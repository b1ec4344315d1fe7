//! gbench: the host-speed and memory benchmark of the GBooster
//! simulator. See `README.md` for the workloads and metrics.

pub mod alloc;
pub mod compare;
pub mod measure;
pub mod metrics;
pub mod replay;
pub mod stats;
pub mod trace;
pub mod workloads;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;
