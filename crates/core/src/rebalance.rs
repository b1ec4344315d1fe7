//! Pool rebalancing policy: watches per-node thermal duty cycles and
//! decides when to drain a throttling node's sessions onto survivors
//! (docs/MIGRATION.md).
//!
//! The policy layer is deliberately mechanism-free: it never touches
//! the event heap or the dispatcher. [`crate::fabric::SessionManager`]
//! feeds it every booking via [`Rebalancer::record`], polls it on a
//! fixed cadence via [`Rebalancer::tick`], and owns the actual
//! drain-and-migrate machinery the verdict triggers. That split keeps
//! the policy unit-testable with synthetic bookings and keeps the
//! fabric's determinism intact — `tick` is a pure function of the
//! bookings it has seen.

use gbooster_sim::time::{SimDuration, SimTime};

use crate::health::{DutyCycleEwma, ThermalHint};

/// Duty-cycle accounting window fed to [`DutyCycleEwma`].
const DUTY_WINDOW: SimDuration = SimDuration::from_millis(100);

/// EWMA smoothing per closed duty window.
const DUTY_ALPHA: f64 = 0.4;

/// Minimum spacing between two drain verdicts.
const DRAIN_COOLDOWN: SimDuration = SimDuration::from_secs(1);

/// Knobs for the rebalance loop.
///
/// The loop is tuned for the fabric's 1 s fair-share window: the
/// thermal EWMA reacts within a few hundred milliseconds of sustained
/// saturation but shrugs off single-frame spikes, and a 1 s cooldown
/// keeps two drains from racing each other's warm-up transients.
#[derive(Clone, Copy, Debug)]
pub struct RebalancePolicy {
    /// Duty EWMA at or above this enters [`ThermalHint::Throttling`].
    pub thermal_enter: f64,
    /// Duty EWMA at or below this clears the hint (hysteresis).
    pub thermal_exit: f64,
}

impl Default for RebalancePolicy {
    fn default() -> Self {
        RebalancePolicy {
            thermal_enter: 0.85,
            thermal_exit: 0.60,
        }
    }
}

impl RebalancePolicy {
    /// Sanity-checks the knobs.
    pub fn valid(&self) -> bool {
        self.thermal_enter > self.thermal_exit
            && self.thermal_enter <= 1.0
            && self.thermal_exit >= 0.0
    }
}

/// The drain verdict a [`Rebalancer::tick`] may hand back.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DrainDecision {
    /// The node whose sessions should migrate away.
    pub node: usize,
}

/// Per-node thermal bookkeeping plus the drain policy.
pub struct Rebalancer {
    thermal: Vec<DutyCycleEwma>,
    last_drain: Option<SimTime>,
}

impl Rebalancer {
    /// A rebalancer for an `n`-node pool.
    ///
    /// # Panics
    ///
    /// Panics if the policy knobs are inconsistent.
    pub fn new(n: usize, policy: RebalancePolicy) -> Self {
        assert!(policy.valid(), "rebalance policy knobs out of range");
        Rebalancer {
            thermal: (0..n)
                .map(|_| {
                    DutyCycleEwma::new(
                        DUTY_WINDOW,
                        DUTY_ALPHA,
                        policy.thermal_enter,
                        policy.thermal_exit,
                    )
                })
                .collect(),
            last_drain: None,
        }
    }

    /// Books `start..finish` of GPU busy time onto `node`'s duty cycle.
    pub fn record(&mut self, node: usize, start: SimTime, finish: SimTime) {
        self.thermal[node].record(start, finish);
    }

    /// The node's current duty-cycle EWMA (windows closed through `now`
    /// at the last [`Self::tick`] or [`Self::settle`]).
    pub fn duty(&self, node: usize) -> f64 {
        self.thermal[node].duty()
    }

    /// The node's thermal hint.
    pub fn hint(&self, node: usize) -> ThermalHint {
        self.thermal[node].hint()
    }

    /// Closes duty windows through `now` on every node without
    /// rendering a verdict.
    pub fn settle(&mut self, now: SimTime) {
        for t in &mut self.thermal {
            t.settle(now);
        }
    }

    /// Polls the policy: settles every node's duty cycle through `now`
    /// and picks the hottest throttling candidate to drain.
    ///
    /// `candidate[j]` marks nodes eligible to be drained (alive,
    /// accepting, and actually hosting sessions); `survivors` is the
    /// count of nodes that could absorb the drained sessions. No
    /// verdict is rendered while the cooldown from the previous drain
    /// is still running, or when draining would leave the sessions
    /// nowhere to go. Ties on duty break toward the lowest node index
    /// so reruns stay deterministic.
    pub fn tick(
        &mut self,
        now: SimTime,
        candidate: &[bool],
        survivors: usize,
    ) -> Option<DrainDecision> {
        self.settle(now);
        if survivors == 0 {
            return None;
        }
        if let Some(last) = self.last_drain {
            if now < last + DRAIN_COOLDOWN {
                return None;
            }
        }
        let mut pick: Option<(f64, usize)> = None;
        for (j, t) in self.thermal.iter().enumerate() {
            if !candidate.get(j).copied().unwrap_or(false) {
                continue;
            }
            if t.hint() != ThermalHint::Throttling {
                continue;
            }
            let duty = t.duty();
            if pick.is_none_or(|(d, _)| duty > d) {
                pick = Some((duty, j));
            }
        }
        let (_, node) = pick?;
        self.last_drain = Some(now);
        Some(DrainDecision { node })
    }

    /// Records an externally-triggered drain (the operator entry point)
    /// so the cooldown also spaces policy drains away from manual ones.
    pub fn note_drain(&mut self, now: SimTime) {
        self.last_drain = Some(now);
    }
}

/// Max-min fair destination assignment: hands each migrating tenant
/// (in index order) to the survivor currently carrying the least homed
/// demand, ties toward the lowest node index.
///
/// `homed_demand[j]` is each survivor's demand before the migration
/// wave and is updated in place; entries for non-survivors must be
/// excluded via `survivor`. Returns `(tenant, destination)` pairs in
/// tenant order, or `None` for a tenant when no survivor exists.
pub fn assign_destinations(
    tenants: &[(usize, f64)],
    survivor: &[bool],
    homed_demand: &mut [f64],
) -> Vec<(usize, Option<usize>)> {
    tenants
        .iter()
        .map(|&(tenant, demand)| {
            let mut best: Option<(f64, usize)> = None;
            for (j, &ok) in survivor.iter().enumerate() {
                if !ok {
                    continue;
                }
                let d = homed_demand[j];
                if best.is_none_or(|(bd, _)| d < bd) {
                    best = Some((d, j));
                }
            }
            let dest = best.map(|(_, j)| j);
            if let Some(j) = dest {
                homed_demand[j] += demand;
            }
            (tenant, dest)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn saturate(r: &mut Rebalancer, node: usize, from_ms: u64, to_ms: u64) {
        r.record(
            node,
            SimTime::from_micros(from_ms * 1000),
            SimTime::from_micros(to_ms * 1000),
        );
    }

    #[test]
    fn tick_drains_the_hottest_throttling_node_once_per_cooldown() {
        let mut r = Rebalancer::new(3, RebalancePolicy::default());
        // Node 1 saturated for a full second, node 0 at ~40 %, node 2 idle.
        saturate(&mut r, 1, 0, 1000);
        for w in 0..10u64 {
            saturate(&mut r, 0, w * 100, w * 100 + 40);
        }
        let candidates = [true, true, true];
        let verdict = r.tick(SimTime::from_secs(1), &candidates, 2);
        assert_eq!(verdict, Some(DrainDecision { node: 1 }));
        // Cooldown suppresses an immediate second verdict even though
        // node 1 is still hot.
        saturate(&mut r, 1, 1000, 1200);
        assert_eq!(r.tick(SimTime::from_millis(1200), &candidates, 2), None);
        // After the cooldown the verdict comes back.
        saturate(&mut r, 1, 1200, 2100);
        assert!(r.tick(SimTime::from_millis(2100), &candidates, 2).is_some());
    }

    #[test]
    fn no_verdict_without_survivors_or_eligible_candidates() {
        let mut r = Rebalancer::new(2, RebalancePolicy::default());
        saturate(&mut r, 0, 0, 1000);
        assert_eq!(r.tick(SimTime::from_secs(1), &[true, true], 0), None);
        assert_eq!(r.tick(SimTime::from_secs(1), &[false, true], 1), None);
        assert!(r.tick(SimTime::from_secs(1), &[true, false], 1).is_some());
    }

    #[test]
    fn assignment_is_max_min_fair_over_survivor_demand() {
        let mut homed = vec![0.3, 0.0, 0.1, 0.0];
        let survivor = [true, false, true, true];
        let moves = assign_destinations(&[(5, 0.2), (6, 0.2), (7, 0.2)], &survivor, &mut homed);
        // Least-loaded survivors in turn: node 3 (0.0), node 2 (0.1),
        // then node 3 again (0.2 vs node 2's 0.3 and node 0's 0.3).
        assert_eq!(moves, vec![(5, Some(3)), (6, Some(2)), (7, Some(3))]);
        assert!((homed[3] - 0.4).abs() < 1e-12);
        // Node 1 is dead and must never be picked.
        assert!(homed[1].abs() < 1e-12);
    }

    #[test]
    fn assignment_with_no_survivors_yields_none() {
        let mut homed = vec![0.0; 2];
        let moves = assign_destinations(&[(0, 1.0)], &[false, false], &mut homed);
        assert_eq!(moves, vec![(0, None)]);
    }
}
