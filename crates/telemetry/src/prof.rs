//! Host-time (wall-clock) scoped profiler with allocation attribution.
//!
//! Everything else in this crate measures *sim time* — the modeled
//! phone and pool. This module measures the simulator's own cost on
//! the host: where wall-clock nanoseconds and heap allocations go
//! while a session runs. It exists so that hot-path rework (zero-copy
//! serialization, parallel Turbo encode) can be judged against real
//! numbers instead of intuition.
//!
//! Three pieces:
//!
//! * [`HostProfiler`] — an explicit-scope-stack profiler. Scopes are
//!   opened with [`enter`] (or the [`prof_scope!`](crate::prof_scope)
//!   macro) using names from [`crate::names::host`]; the RAII guard
//!   aggregates elapsed wall time into the *collapsed call path* (the
//!   full stack of open scope names), so a snapshot can be rendered as
//!   a top-N cost table ([`HostProfileSnapshot::render_top`]) or
//!   exported as flamegraph.pl-compatible collapsed-stack text
//!   ([`crate::flame::collapsed_stack`]).
//! * A **counting global allocator**, compiled only under the
//!   `host-prof` feature: a zero-overhead-when-absent wrapper around
//!   the system allocator that charges every allocation to the
//!   innermost open scope via a fixed static table (the allocation
//!   path itself never allocates or locks).
//! * A **thread-local install point** ([`install`]) so hot-path code in
//!   other crates can call `prof::enter(name)` without any handle
//!   threading: with no profiler installed the call is one TLS read
//!   and a branch.
//!
//! Single-threaded by design: the engine loop owns the profiler, and
//! scope nesting is tracked per install. Guards must drop in LIFO
//! order (the natural RAII order).

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Maximum distinct scope names trackable by the allocation table.
/// Names past the cap still profile wall time; their allocations fall
/// into the shared overflow slot.
pub const MAX_SCOPES: usize = 64;

/// Per-scope allocation counts, indexed by scope slot. Slot 0 is the
/// "unscoped" catch-all; the last slot absorbs name-table overflow.
static SCOPE_ALLOCS: [AtomicU64; MAX_SCOPES] = [const { AtomicU64::new(0) }; MAX_SCOPES];
static SCOPE_ALLOC_BYTES: [AtomicU64; MAX_SCOPES] = [const { AtomicU64::new(0) }; MAX_SCOPES];

/// Process-wide allocation totals (only advance under `host-prof`).
static TOTAL_ALLOCS: AtomicU64 = AtomicU64::new(0);
static TOTAL_ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// Scope-name table: slot `i` holds the name registered for slot
/// `i + 1` (slot 0 is reserved for "unscoped" and has no name).
static SCOPE_NAMES: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());

thread_local! {
    /// The profiler receiving this thread's scopes, if any.
    static ACTIVE: RefCell<Option<HostProfiler>> = const { RefCell::new(None) };
    /// Slot of the innermost open scope — what the allocator charges.
    static CURRENT_SCOPE: Cell<usize> = const { Cell::new(0) };
}

/// Whether the counting allocator is compiled into this build.
pub const fn alloc_tracking_enabled() -> bool {
    cfg!(feature = "host-prof")
}

#[cfg(feature = "host-prof")]
mod counting_alloc {
    use super::{
        Ordering, CURRENT_SCOPE, MAX_SCOPES, SCOPE_ALLOCS, SCOPE_ALLOC_BYTES, TOTAL_ALLOCS,
        TOTAL_ALLOC_BYTES,
    };
    use std::alloc::{GlobalAlloc, Layout, System};

    /// System-allocator wrapper charging each allocation to the
    /// innermost open profiler scope. The accounting path is atomics
    /// plus one const-initialized TLS read — it never allocates, so it
    /// cannot recurse.
    pub struct CountingAllocator;

    fn charge(bytes: usize) {
        let slot = CURRENT_SCOPE.with(|c| c.get()).min(MAX_SCOPES - 1);
        SCOPE_ALLOCS[slot].fetch_add(1, Ordering::Relaxed);
        SCOPE_ALLOC_BYTES[slot].fetch_add(bytes as u64, Ordering::Relaxed);
        TOTAL_ALLOCS.fetch_add(1, Ordering::Relaxed);
        TOTAL_ALLOC_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    unsafe impl GlobalAlloc for CountingAllocator {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let p = unsafe { System.alloc(layout) };
            if !p.is_null() {
                charge(layout.size());
            }
            p
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            unsafe { System.dealloc(ptr, layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            let p = unsafe { System.realloc(ptr, layout, new_size) };
            if !p.is_null() && new_size > layout.size() {
                // Count only the grown tail: a realloc is one logical
                // allocation event for the extra bytes.
                charge(new_size - layout.size());
            }
            p
        }
    }

    #[global_allocator]
    static GLOBAL: CountingAllocator = CountingAllocator;
}

/// Resolves `name` to its allocation-table slot, registering it on
/// first use. Slot 0 is never handed out (it is the unscoped slot).
fn scope_slot(name: &'static str) -> usize {
    let mut names = SCOPE_NAMES.lock().expect("scope name table poisoned");
    if let Some(pos) = names
        .iter()
        .position(|&n| std::ptr::eq(n, name) || n == name)
    {
        return pos + 1;
    }
    if names.len() + 1 >= MAX_SCOPES {
        return MAX_SCOPES - 1; // overflow slot
    }
    names.push(name);
    names.len()
}

/// Looks up the name registered for `slot` (None for the reserved
/// unscoped/overflow slots with no registration).
fn slot_name(slot: usize) -> Option<&'static str> {
    let names = SCOPE_NAMES.lock().expect("scope name table poisoned");
    slot.checked_sub(1).and_then(|i| names.get(i).copied())
}

/// Wall-time and allocation totals for one collapsed call path.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct PathStats {
    calls: u64,
    total_ns: u64,
    allocs: u64,
    alloc_bytes: u64,
}

#[derive(Default)]
struct ProfState {
    /// Slots of the currently open scopes, outermost first.
    stack: Vec<usize>,
    /// Aggregated stats per collapsed path (stack of slots).
    paths: BTreeMap<Vec<usize>, PathStats>,
}

struct Inner {
    started: Instant,
    allocs_at_start: u64,
    alloc_bytes_at_start: u64,
    /// Per-slot counter baselines, so allocation-only scopes (slots
    /// that never open a timed guard) can report their delta since the
    /// profiler was created.
    slot_allocs_at_start: [u64; MAX_SCOPES],
    slot_bytes_at_start: [u64; MAX_SCOPES],
    state: Mutex<ProfState>,
}

/// The host-time profiler. Cheaply clonable (an `Arc`); install it on
/// the engine thread with [`install`] and take a
/// [`HostProfileSnapshot`] at teardown.
#[derive(Clone)]
pub struct HostProfiler {
    inner: Arc<Inner>,
}

impl Default for HostProfiler {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for HostProfiler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HostProfiler")
            .field("wall_secs", &self.inner.started.elapsed().as_secs_f64())
            .finish()
    }
}

impl HostProfiler {
    /// Creates a profiler; the wall clock starts now.
    pub fn new() -> Self {
        let mut slot_allocs_at_start = [0u64; MAX_SCOPES];
        let mut slot_bytes_at_start = [0u64; MAX_SCOPES];
        for i in 0..MAX_SCOPES {
            slot_allocs_at_start[i] = SCOPE_ALLOCS[i].load(Ordering::Relaxed);
            slot_bytes_at_start[i] = SCOPE_ALLOC_BYTES[i].load(Ordering::Relaxed);
        }
        HostProfiler {
            inner: Arc::new(Inner {
                started: Instant::now(),
                allocs_at_start: TOTAL_ALLOCS.load(Ordering::Relaxed),
                alloc_bytes_at_start: TOTAL_ALLOC_BYTES.load(Ordering::Relaxed),
                slot_allocs_at_start,
                slot_bytes_at_start,
                state: Mutex::new(ProfState::default()),
            }),
        }
    }

    /// Opens a scope on this profiler directly (most callers use the
    /// free function [`enter`] against the installed profiler).
    pub fn begin(&self, name: &'static str) -> ScopeGuard {
        let slot = scope_slot(name);
        self.inner
            .state
            .lock()
            .expect("profiler state poisoned")
            .stack
            .push(slot);
        let prev_scope = CURRENT_SCOPE.with(|c| c.replace(slot));
        ScopeGuard {
            prof: self.clone(),
            slot,
            prev_scope,
            allocs0: SCOPE_ALLOCS[slot].load(Ordering::Relaxed),
            bytes0: SCOPE_ALLOC_BYTES[slot].load(Ordering::Relaxed),
            start: Instant::now(),
        }
    }

    /// Wall seconds since the profiler was created.
    pub fn wall_secs(&self) -> f64 {
        self.inner.started.elapsed().as_secs_f64()
    }

    /// Takes a point-in-time copy of every collapsed path, with
    /// self-time derived from the path tree.
    pub fn snapshot(&self) -> HostProfileSnapshot {
        let state = self.inner.state.lock().expect("profiler state poisoned");
        let mut paths: Vec<ProfPath> = Vec::with_capacity(state.paths.len());
        for (key, stats) in &state.paths {
            // Self time/allocs = this path's totals minus its direct
            // children's. Children sort immediately after their parent
            // in the BTreeMap, but a range scan is simpler than prefix
            // iteration games at this (tiny) table size.
            let mut child_ns = 0u64;
            for (other, os) in &state.paths {
                if other.len() == key.len() + 1 && other.starts_with(key) {
                    child_ns += os.total_ns;
                }
            }
            let path: Vec<&'static str> = key
                .iter()
                .map(|&slot| slot_name(slot).unwrap_or("host.overflow"))
                .collect();
            paths.push(ProfPath {
                path,
                calls: stats.calls,
                total_ns: stats.total_ns,
                self_ns: stats.total_ns.saturating_sub(child_ns),
                // Slot deltas are already self-attribution: the
                // allocator charges the innermost open scope, so a
                // child's allocations never advance the parent's slot
                // while the child is open.
                self_allocs: stats.allocs,
                self_alloc_bytes: stats.alloc_bytes,
            });
        }
        // Allocation-only scopes ([`prof_alloc_scope!`]) never open a
        // timed guard, so no collapsed path carries their slot. Surface
        // their counter deltas as synthetic single-frame paths with
        // zero wall time, keeping the heap churn of million-call paths
        // visible in the table and the flamegraph export.
        if alloc_tracking_enabled() {
            for slot in 1..MAX_SCOPES - 1 {
                let Some(name) = slot_name(slot) else {
                    continue;
                };
                if state.paths.keys().any(|k| k.contains(&slot)) {
                    continue;
                }
                let allocs = SCOPE_ALLOCS[slot]
                    .load(Ordering::Relaxed)
                    .saturating_sub(self.inner.slot_allocs_at_start[slot]);
                let bytes = SCOPE_ALLOC_BYTES[slot]
                    .load(Ordering::Relaxed)
                    .saturating_sub(self.inner.slot_bytes_at_start[slot]);
                if allocs == 0 && bytes == 0 {
                    continue;
                }
                paths.push(ProfPath {
                    path: vec![name],
                    calls: 0,
                    total_ns: 0,
                    self_ns: 0,
                    self_allocs: allocs,
                    self_alloc_bytes: bytes,
                });
            }
        }
        HostProfileSnapshot {
            wall_secs: self.wall_secs(),
            total_allocs: TOTAL_ALLOCS
                .load(Ordering::Relaxed)
                .saturating_sub(self.inner.allocs_at_start),
            total_alloc_bytes: TOTAL_ALLOC_BYTES
                .load(Ordering::Relaxed)
                .saturating_sub(self.inner.alloc_bytes_at_start),
            alloc_tracking: alloc_tracking_enabled(),
            paths,
        }
    }
}

/// Process-wide kill switch, default on. Turning it off makes
/// [`install`] a no-op, so harnesses can time an unprofiled run of the
/// same code path to measure the profiler's own overhead.
static ENABLED: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(true);

/// Enables or disables profiler installation process-wide. Scopes on an
/// already-installed profiler keep recording; only future [`install`]
/// calls observe the switch.
pub fn set_enabled(enabled: bool) {
    ENABLED.store(enabled, Ordering::Relaxed);
}

/// Installs `profiler` as this thread's scope sink; the previous
/// installation (usually none) is restored when the guard drops. With
/// the process-wide switch off ([`set_enabled`]) nothing is installed
/// and the guard restores nothing.
pub fn install(profiler: &HostProfiler) -> InstallGuard {
    if !ENABLED.load(Ordering::Relaxed) {
        return InstallGuard {
            prev: None,
            installed: false,
        };
    }
    let prev = ACTIVE.with(|a| a.borrow_mut().replace(profiler.clone()));
    InstallGuard {
        prev,
        installed: true,
    }
}

/// Restores the previously installed profiler on drop.
pub struct InstallGuard {
    prev: Option<HostProfiler>,
    installed: bool,
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        if !self.installed {
            return;
        }
        let prev = self.prev.take();
        ACTIVE.with(|a| *a.borrow_mut() = prev);
    }
}

/// Opens a scope on the installed profiler. Returns `None` — at the
/// cost of one TLS read and a branch — when no profiler is installed,
/// which is the permanent state of every non-profiled run.
pub fn enter(name: &'static str) -> Option<ScopeGuard> {
    let prof = ACTIVE.with(|a| a.borrow().clone())?;
    Some(prof.begin(name))
}

/// Opens a host-profiler scope for the rest of the enclosing block.
///
/// ```
/// use gbooster_telemetry::{names, prof, prof_scope};
/// let profiler = prof::HostProfiler::new();
/// let _install = prof::install(&profiler);
/// {
///     prof_scope!(names::host::TICK);
///     // ... work measured under host.tick ...
/// }
/// assert_eq!(profiler.snapshot().scope_names(), vec![names::host::TICK]);
/// ```
#[macro_export]
macro_rules! prof_scope {
    ($name:expr) => {
        let _prof_guard = $crate::prof::enter($name);
    };
}

/// Resolves and caches `name`'s allocation slot at a call site (the
/// [`prof_alloc_scope!`] expansion's `OnceLock`).
#[doc(hidden)]
pub fn cached_slot(name: &'static str, cell: &std::sync::OnceLock<usize>) -> usize {
    *cell.get_or_init(|| scope_slot(name))
}

/// Re-points allocation attribution (never wall time) at `slot` for
/// the guard's lifetime. This is the million-calls-per-second variant
/// of a scope: two thread-local cell swaps, no clock read, no lock —
/// cheap enough for per-command hot paths where a timed guard's clock
/// reads and path bookkeeping would dominate the work being measured.
pub fn enter_alloc(slot: usize) -> AllocScopeGuard {
    AllocScopeGuard {
        prev: CURRENT_SCOPE.with(|c| c.replace(slot.min(MAX_SCOPES - 1))),
    }
}

/// Restores the previous allocation-attribution target on drop.
pub struct AllocScopeGuard {
    prev: usize,
}

impl Drop for AllocScopeGuard {
    fn drop(&mut self) {
        CURRENT_SCOPE.with(|c| c.set(self.prev));
    }
}

/// Attributes the enclosing block's allocations (not its wall time) to
/// `$name`. Use on per-command paths called millions of times per
/// session, where [`prof_scope!`](crate::prof_scope)'s clock reads
/// would distort the measurement; the scope's heap churn surfaces in
/// the snapshot as a zero-wall-time path. Use a name that no timed scope shares, and at
/// most one per block (the expansion declares a static).
#[macro_export]
macro_rules! prof_alloc_scope {
    ($name:expr) => {
        static __PROF_ALLOC_SLOT: ::std::sync::OnceLock<usize> = ::std::sync::OnceLock::new();
        let _prof_alloc_guard =
            $crate::prof::enter_alloc($crate::prof::cached_slot($name, &__PROF_ALLOC_SLOT));
    };
}

/// RAII scope handle: measures wall time from creation to drop and
/// charges the scope's allocation-slot delta to its collapsed path.
pub struct ScopeGuard {
    prof: HostProfiler,
    slot: usize,
    prev_scope: usize,
    allocs0: u64,
    bytes0: u64,
    start: Instant,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        let elapsed_ns = self.start.elapsed().as_nanos() as u64;
        CURRENT_SCOPE.with(|c| c.set(self.prev_scope));
        let allocs = SCOPE_ALLOCS[self.slot]
            .load(Ordering::Relaxed)
            .wrapping_sub(self.allocs0);
        let bytes = SCOPE_ALLOC_BYTES[self.slot]
            .load(Ordering::Relaxed)
            .wrapping_sub(self.bytes0);
        let mut state = self
            .prof
            .inner
            .state
            .lock()
            .expect("profiler state poisoned");
        debug_assert_eq!(
            state.stack.last().copied(),
            Some(self.slot),
            "profiler scopes must drop in LIFO order"
        );
        let key = state.stack.clone();
        let entry = state.paths.entry(key).or_default();
        entry.calls += 1;
        entry.total_ns += elapsed_ns;
        entry.allocs += allocs;
        entry.alloc_bytes += bytes;
        state.stack.pop();
    }
}

/// One collapsed call path in a [`HostProfileSnapshot`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProfPath {
    /// Scope names, outermost first.
    pub path: Vec<&'static str>,
    /// Times the path's leaf scope completed.
    pub calls: u64,
    /// Wall nanoseconds inside the leaf scope, children included.
    pub total_ns: u64,
    /// Wall nanoseconds minus direct children's totals.
    pub self_ns: u64,
    /// Heap allocations charged to the leaf scope itself (0 without
    /// the `host-prof` allocator).
    pub self_allocs: u64,
    /// Heap bytes charged to the leaf scope itself.
    pub self_alloc_bytes: u64,
}

impl ProfPath {
    /// The leaf scope name.
    pub fn leaf(&self) -> &'static str {
        self.path.last().copied().unwrap_or("?")
    }
}

/// Subsystem groups the per-frame host-cost split is reported under.
pub const GROUPS: [&str; 4] = ["serialize", "codec", "net", "core"];

/// Maps a scope name onto its reporting group for the
/// `host.ns_per_frame.*` split. Unknown scopes count as engine core.
pub fn scope_group(name: &str) -> &'static str {
    use crate::names::host;
    match name {
        host::GLES_ENCODE | host::GLES_DECODE => "serialize",
        host::CACHE
        | host::LZ4
        | host::LZ4_DECODE
        | host::TURBO_ENCODE
        | host::TURBO_DECODE
        | host::JPEG
        | host::JPEG_DECODE => "codec",
        host::TRANSPORT_SEND | host::TRANSPORT_RECV | host::RUDP | host::CHANNEL => "net",
        _ => "core",
    }
}

/// A point-in-time copy of a [`HostProfiler`]'s aggregated paths.
#[derive(Clone, Debug, Default)]
pub struct HostProfileSnapshot {
    /// Wall seconds since the profiler was created.
    pub wall_secs: f64,
    /// Heap allocations process-wide over the profiler's lifetime
    /// (0 without `host-prof`).
    pub total_allocs: u64,
    /// Heap bytes process-wide over the profiler's lifetime.
    pub total_alloc_bytes: u64,
    /// Whether the counting allocator was compiled in.
    pub alloc_tracking: bool,
    /// Every collapsed path observed, in path order.
    pub paths: Vec<ProfPath>,
}

impl HostProfileSnapshot {
    /// Distinct leaf scope names observed, sorted.
    pub fn scope_names(&self) -> Vec<&'static str> {
        let mut names: Vec<&'static str> = self.paths.iter().map(|p| p.leaf()).collect();
        names.sort_unstable();
        names.dedup();
        names
    }

    /// Sum of self-time across every path — the profiled wall total.
    /// Always ≤ the measured session wall time (what the collapsed
    /// export reconciliation checks).
    pub fn profiled_ns(&self) -> u64 {
        self.paths.iter().map(|p| p.self_ns).sum()
    }

    /// Self-nanoseconds summed per reporting group ([`scope_group`]).
    pub fn group_self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut out: BTreeMap<&'static str, u64> = GROUPS.iter().map(|&g| (g, 0)).collect();
        for p in &self.paths {
            *out.entry(scope_group(p.leaf())).or_insert(0) += p.self_ns;
        }
        out
    }

    /// Renders the top-`n` host-cost table (by self time), mirroring
    /// the attribution tables on `SessionReport`.
    pub fn render_top(&self, n: usize) -> String {
        let mut rows: Vec<&ProfPath> = self.paths.iter().collect();
        rows.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.path.cmp(&b.path)));
        let mut out = String::new();
        out.push_str("=== host cost (wall clock) ===\n");
        out.push_str(&format!(
            "{:<46} {:>9} {:>11} {:>11} {:>10} {:>12}\n",
            "scope path", "calls", "self µs", "total µs", "allocs", "alloc bytes"
        ));
        for p in rows.iter().take(n) {
            out.push_str(&format!(
                "{:<46} {:>9} {:>11} {:>11} {:>10} {:>12}\n",
                p.path.join(";"),
                p.calls,
                p.self_ns / 1_000,
                p.total_ns / 1_000,
                p.self_allocs,
                p.self_alloc_bytes,
            ));
        }
        out.push_str(&format!(
            "profiled {} µs of {} µs wall; {} allocs / {} bytes process-wide{}\n",
            self.profiled_ns() / 1_000,
            (self.wall_secs * 1e6) as u64,
            self.total_allocs,
            self.total_alloc_bytes,
            if self.alloc_tracking {
                ""
            } else {
                " (alloc tracking off: build with --features host-prof)"
            }
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::names;

    fn spin_at_least(ns: u64) {
        let start = Instant::now();
        while (start.elapsed().as_nanos() as u64) < ns {
            std::hint::black_box(0u64);
        }
    }

    #[test]
    fn no_profiler_installed_means_no_scopes() {
        assert!(enter(names::host::TICK).is_none());
    }

    #[test]
    fn nested_scopes_collapse_into_paths_with_self_time() {
        let prof = HostProfiler::new();
        let _install = install(&prof);
        {
            prof_scope!(names::host::SESSION);
            for _ in 0..3 {
                prof_scope!(names::host::TICK);
                spin_at_least(200_000);
                {
                    prof_scope!(names::host::FORWARD);
                    spin_at_least(100_000);
                }
            }
        }
        let snap = prof.snapshot();
        let find = |leaf: &str| {
            snap.paths
                .iter()
                .find(|p| p.leaf() == leaf)
                .unwrap_or_else(|| panic!("missing path for {leaf}"))
        };
        let session = find(names::host::SESSION);
        let tick = find(names::host::TICK);
        let forward = find(names::host::FORWARD);
        assert_eq!(session.path, vec![names::host::SESSION]);
        assert_eq!(tick.path, vec![names::host::SESSION, names::host::TICK]);
        assert_eq!(
            forward.path,
            vec![
                names::host::SESSION,
                names::host::TICK,
                names::host::FORWARD
            ]
        );
        assert_eq!(tick.calls, 3);
        assert_eq!(forward.calls, 3);
        // Totals nest: session ⊇ tick ⊇ forward.
        assert!(session.total_ns >= tick.total_ns);
        assert!(tick.total_ns >= forward.total_ns);
        // Self excludes children: tick spun ~600 µs itself on top of
        // forward's ~300 µs.
        assert!(tick.self_ns >= 500_000, "tick self {}", tick.self_ns);
        assert_eq!(tick.self_ns, tick.total_ns - forward.total_ns);
        // Profiled self-time reconciles against the wall clock.
        assert!(snap.profiled_ns() as f64 <= snap.wall_secs * 1e9);
    }

    #[test]
    fn install_guard_restores_the_previous_profiler() {
        let outer = HostProfiler::new();
        let inner = HostProfiler::new();
        let _outer_install = install(&outer);
        {
            let _inner_install = install(&inner);
            prof_scope!(names::host::ISSUE);
        }
        {
            prof_scope!(names::host::RETIRE);
        }
        assert_eq!(inner.snapshot().scope_names(), vec![names::host::ISSUE]);
        assert_eq!(outer.snapshot().scope_names(), vec![names::host::RETIRE]);
    }

    #[test]
    fn group_split_covers_the_vocabulary() {
        assert_eq!(scope_group(names::host::GLES_ENCODE), "serialize");
        assert_eq!(scope_group(names::host::LZ4), "codec");
        assert_eq!(scope_group(names::host::RUDP), "net");
        assert_eq!(scope_group(names::host::TICK), "core");
        assert_eq!(scope_group("anything.else"), "core");
    }

    #[test]
    fn render_top_mentions_cost_columns() {
        let prof = HostProfiler::new();
        let _install = install(&prof);
        {
            prof_scope!(names::host::PRESENT);
            spin_at_least(50_000);
        }
        let table = prof.snapshot().render_top(5);
        assert!(table.contains("host cost"));
        assert!(table.contains(names::host::PRESENT));
        assert!(table.contains("self µs"));
        assert!(table.contains("alloc bytes"));
    }

    #[cfg(feature = "host-prof")]
    #[test]
    fn counting_allocator_charges_the_innermost_scope() {
        let prof = HostProfiler::new();
        let _install = install(&prof);
        {
            prof_scope!(names::host::GLES_ENCODE);
            let v: Vec<u8> = Vec::with_capacity(1 << 16);
            std::hint::black_box(&v);
        }
        let snap = prof.snapshot();
        assert!(snap.alloc_tracking);
        let p = snap
            .paths
            .iter()
            .find(|p| p.leaf() == names::host::GLES_ENCODE)
            .expect("scope recorded");
        assert!(p.self_allocs >= 1, "allocs {}", p.self_allocs);
        assert!(
            p.self_alloc_bytes >= 1 << 16,
            "bytes {}",
            p.self_alloc_bytes
        );
        assert!(snap.total_alloc_bytes >= p.self_alloc_bytes);
    }

    #[test]
    fn alloc_scope_restores_the_previous_target() {
        let prof = HostProfiler::new();
        let _install = install(&prof);
        prof_scope!(names::host::TICK);
        let tick_slot = CURRENT_SCOPE.with(Cell::get);
        {
            crate::prof_alloc_scope!(names::host::CACHE);
            assert_ne!(CURRENT_SCOPE.with(Cell::get), tick_slot);
        }
        assert_eq!(CURRENT_SCOPE.with(Cell::get), tick_slot);
    }

    #[cfg(feature = "host-prof")]
    #[test]
    fn alloc_only_scopes_surface_as_zero_wall_paths() {
        let prof = HostProfiler::new();
        let _install = install(&prof);
        {
            // A dedicated name no timed scope uses, so the churn can
            // only reach the snapshot through the synthetic path.
            crate::prof_alloc_scope!(names::host::JPEG);
            let v: Vec<u8> = Vec::with_capacity(1 << 14);
            std::hint::black_box(&v);
        }
        let snap = prof.snapshot();
        let p = snap
            .paths
            .iter()
            .find(|p| p.path == [names::host::JPEG])
            .expect("alloc-only scope surfaces a synthetic path");
        assert_eq!((p.calls, p.total_ns, p.self_ns), (0, 0, 0));
        assert!(
            p.self_alloc_bytes >= 1 << 14,
            "bytes {}",
            p.self_alloc_bytes
        );
    }
}
