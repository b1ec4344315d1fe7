//! Deterministic random-number plumbing.
//!
//! Every stochastic element of the simulation (channel loss, workload
//! jitter, touch bursts) derives from a seeded [`rand::rngs::StdRng`], so
//! each experiment binary is reproducible bit-for-bit across runs.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::hash::{fnv1a, FNV1A_OFFSET};

/// Creates a deterministic RNG from a 64-bit seed.
///
/// # Examples
///
/// ```
/// use rand::Rng;
///
/// let mut a = gbooster_sim::rng::seeded(42);
/// let mut b = gbooster_sim::rng::seeded(42);
/// assert_eq!(a.gen::<u64>(), b.gen::<u64>());
/// ```
pub fn seeded(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Derives a child RNG for a named subsystem, so that adding randomness in
/// one subsystem does not perturb another's stream.
///
/// # Examples
///
/// ```
/// use rand::Rng;
///
/// let mut net = gbooster_sim::rng::derived(7, "net");
/// let mut workload = gbooster_sim::rng::derived(7, "workload");
/// // Different labels yield independent streams.
/// let (a, b): (u64, u64) = (net.gen(), workload.gen());
/// assert_ne!(a, b);
/// ```
pub fn derived(seed: u64, label: &str) -> StdRng {
    // FNV-1a over the label, mixed with the master seed.
    StdRng::seed_from_u64(seed ^ fnv1a(FNV1A_OFFSET, label.as_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_seed_same_stream() {
        let mut a = seeded(1);
        let mut b = seeded(1);
        for _ in 0..16 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = seeded(1);
        let mut b = seeded(2);
        assert_ne!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn derived_streams_are_label_dependent_and_stable() {
        let mut x1 = derived(9, "alpha");
        let mut x2 = derived(9, "alpha");
        let mut y = derived(9, "beta");
        let a1: u64 = x1.gen();
        let a2: u64 = x2.gen();
        let b: u64 = y.gen();
        assert_eq!(a1, a2);
        assert_ne!(a1, b);
    }
}
