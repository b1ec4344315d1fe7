//! Service-pool health monitoring.
//!
//! Tracks per-node liveness from RUDP ack/heartbeat probes and drives
//! the `Healthy → Suspect → Dead → Rejoining` state machine that feeds
//! the dispatcher ([`crate::scheduler::Dispatcher::fail_node`] /
//! [`crate::scheduler::Dispatcher::revive_node`]) and the local-render
//! fallback in the session engine.
//!
//! * **Adaptive timeout** — each node keeps a TCP-style smoothed RTT
//!   (`srtt`) and mean deviation (`rttvar`); a probe counts as missed
//!   when its measured RTT exceeds `srtt + 4·rttvar` (clamped to a sane
//!   floor/ceiling), so a chatty-but-slow link is not confused with a
//!   dead one and a normally snappy link is declared suspect quickly.
//! * **Probe backoff** — probes to an unresponsive node retry on a
//!   capped exponential backoff with deterministic per-(node, attempt)
//!   jitter, mirroring the RUDP retransmit policy: a dead node is not
//!   hammered at full cadence, yet recovery is noticed within a bounded
//!   interval.
//! * **Determinism** — no wall clock and no RNG; everything is a pure
//!   function of the observation sequence, so chaos drills replay
//!   byte-identically.
//!
//! The full state machine and threshold rationale are documented in
//! `docs/RESILIENCE.md`.

use gbooster_net::rudp::backoff;
use gbooster_sim::time::{SimDuration, SimTime};
use gbooster_telemetry::{names, Counter, Gauge, OpsEventKind, OpsLog, Registry};

/// Liveness states of one service node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeState {
    /// Answering probes within the adaptive timeout.
    Healthy,
    /// Missed a probe; not yet evicted from the pool.
    Suspect,
    /// Missed enough consecutive probes to be evicted.
    Dead,
    /// Answered a probe after death; awaiting the one-shot state resync
    /// before re-admission.
    Rejoining,
}

impl NodeState {
    /// Stable machine-readable name, used in ops event payloads.
    pub fn as_str(&self) -> &'static str {
        match self {
            NodeState::Healthy => "healthy",
            NodeState::Suspect => "suspect",
            NodeState::Dead => "dead",
            NodeState::Rejoining => "rejoining",
        }
    }

    /// Index into the per-state time accumulators.
    fn index(self) -> usize {
        match self {
            NodeState::Healthy => 0,
            NodeState::Suspect => 1,
            NodeState::Dead => 2,
            NodeState::Rejoining => 3,
        }
    }
}

/// State-machine transitions surfaced to the session engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HealthEvent {
    /// Healthy → Suspect: a probe missed its adaptive deadline.
    Suspected(usize),
    /// Suspect → Healthy: the node answered before being declared dead.
    Recovered(usize),
    /// Suspect → Dead: evict the node and orphan its in-flight frames.
    Died(usize),
    /// Dead → Rejoining: the node answered a probe; ship it a state
    /// resync and call [`HealthMonitor::rejoined`] when that lands.
    RejoinReady(usize),
}

// Health-monitor tuning, matched to the session engine's frame
// cadence: one probe opportunity per issued frame, eviction after three
// consecutive misses.

/// Probe cadence while a node is answering; the base of the probe
/// backoff after `attempts` consecutive misses ([`backoff`], the RUDP
/// retransmit schedule keyed by node).
const PROBE_INTERVAL: SimDuration = SimDuration::from_millis(16);

/// Floor on the adaptive timeout (guards the cold-start estimate).
const MIN_TIMEOUT: SimDuration = SimDuration::from_millis(5);

/// Ceiling on the adaptive timeout.
const MAX_TIMEOUT: SimDuration = SimDuration::from_millis(200);

/// Consecutive misses before a Suspect node is declared Dead (the first
/// miss always moves Healthy → Suspect).
const DEAD_MISSES: u32 = 3;

/// Per-node probe bookkeeping.
#[derive(Clone, Debug)]
struct NodeProbe {
    state: NodeState,
    /// When the node entered its current state (drives the per-state
    /// time accounting and the `in_state_us` field of transition events).
    since: SimTime,
    /// Smoothed RTT estimate in seconds (0 before the first sample).
    srtt: f64,
    /// RTT mean deviation in seconds.
    rttvar: f64,
    /// Consecutive missed probes.
    misses: u32,
    /// Probe attempts since the last successful ack — selects the
    /// backoff step for the next probe.
    attempts: u32,
    next_probe_at: SimTime,
}

impl NodeProbe {
    fn new() -> Self {
        NodeProbe {
            state: NodeState::Healthy,
            since: SimTime::ZERO,
            srtt: 0.0,
            rttvar: 0.0,
            misses: 0,
            attempts: 0,
            next_probe_at: SimTime::ZERO,
        }
    }
}

/// Liveness monitor over the service pool.
///
/// The session engine drives it: [`HealthMonitor::probe_due`] says
/// whether a node should be probed at `now`;
/// [`HealthMonitor::observe`] feeds the outcome back (the measured RTT,
/// or `None` when nothing came back) and returns the transitions that
/// observation caused.
///
/// # Examples
///
/// ```
/// use gbooster_core::health::{HealthEvent, HealthMonitor, NodeState};
/// use gbooster_sim::time::{SimDuration, SimTime};
///
/// let mut hm = HealthMonitor::new(1);
/// let now = SimTime::ZERO;
/// assert!(hm.probe_due(0, now));
/// // Three missed probes walk the node to Dead.
/// assert_eq!(hm.observe(0, now, None), vec![HealthEvent::Suspected(0)]);
/// hm.observe(0, now, None);
/// assert_eq!(hm.observe(0, now, None), vec![HealthEvent::Died(0)]);
/// assert_eq!(hm.state(0), NodeState::Dead);
/// // An answered probe starts the rejoin handshake.
/// let ev = hm.observe(0, now, Some(SimDuration::from_millis(2)));
/// assert_eq!(ev, vec![HealthEvent::RejoinReady(0)]);
/// hm.rejoined(0, now);
/// assert_eq!(hm.state(0), NodeState::Healthy);
/// ```
#[derive(Clone, Debug)]
pub struct HealthMonitor {
    nodes: Vec<NodeProbe>,
    telemetry: Option<HealthCounters>,
    /// Structured-event journal for state transitions (live-ops layer).
    ops: Option<OpsLog>,
    /// Accumulated node-seconds per state, indexed by
    /// [`NodeState::index`]; finalized into the `health.*_secs` gauges.
    state_secs: [f64; 4],
}

#[derive(Clone, Debug)]
struct HealthCounters {
    probes: Counter,
    probe_timeouts: Counter,
    suspects: Counter,
    deaths: Counter,
    /// Node-seconds gauges, same order as `HealthMonitor::state_secs`.
    state_secs: [Gauge; 4],
}

impl HealthMonitor {
    /// Creates a monitor for `n` nodes, all initially healthy.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "health monitor needs at least one node");
        HealthMonitor {
            nodes: vec![NodeProbe::new(); n],
            telemetry: None,
            ops: None,
            state_secs: [0.0; 4],
        }
    }

    /// Mirrors probe activity into `registry` under the
    /// [`names::health`] vocabulary.
    pub fn attach_registry(&mut self, registry: &Registry) {
        self.telemetry = Some(HealthCounters {
            probes: registry.counter(names::health::PROBES),
            probe_timeouts: registry.counter(names::health::PROBE_TIMEOUTS),
            suspects: registry.counter(names::health::SUSPECT_TRANSITIONS),
            deaths: registry.counter(names::health::DEAD_TRANSITIONS),
            state_secs: [
                registry.gauge(names::health::HEALTHY_SECS),
                registry.gauge(names::health::SUSPECT_SECS),
                registry.gauge(names::health::DEAD_SECS),
                registry.gauge(names::health::REJOINING_SECS),
            ],
        });
    }

    /// Journals every state transition into `ops` as a structured
    /// [`OpsEventKind::HealthTransition`] event, so incident timelines
    /// can link the probe walk that preceded a death or rejoin.
    pub fn attach_ops(&mut self, ops: OpsLog) {
        self.ops = Some(ops);
    }

    /// Moves node `j` to `to` at `now`: accounts the time spent in the
    /// state being left and journals the transition. No-op when the
    /// node is already in `to`.
    fn transition(&mut self, j: usize, now: SimTime, to: NodeState) {
        let from = self.nodes[j].state;
        if from == to {
            return;
        }
        let in_state = now.saturating_duration_since(self.nodes[j].since);
        self.nodes[j].state = to;
        self.nodes[j].since = now;
        self.state_secs[from.index()] += in_state.as_secs_f64();
        if let Some(ops) = &self.ops {
            ops.push(
                now,
                OpsEventKind::HealthTransition {
                    node: j,
                    from: from.as_str(),
                    to: to.as_str(),
                    in_state_us: in_state.as_micros(),
                },
            );
        }
    }

    /// Current state of node `j`.
    pub fn state(&self, j: usize) -> NodeState {
        self.nodes[j].state
    }

    /// Nodes currently counted in the dispatch pool (Healthy or
    /// Suspect — a suspect node still serves until declared dead).
    pub fn pool_size(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n.state, NodeState::Healthy | NodeState::Suspect))
            .count()
    }

    /// The adaptive probe deadline for node `j`: `srtt + 4·rttvar`
    /// clamped to the 5 ms floor and 200 ms ceiling. Before any RTT sample
    /// the ceiling applies (the conservative cold start of RFC 6298 —
    /// an unmeasured link must not have its first ack misread as slow).
    pub fn timeout(&self, j: usize) -> SimDuration {
        let n = &self.nodes[j];
        if n.srtt == 0.0 {
            return MAX_TIMEOUT;
        }
        let raw = SimDuration::from_secs_f64((n.srtt + 4.0 * n.rttvar).max(0.0));
        raw.max(MIN_TIMEOUT).min(MAX_TIMEOUT)
    }

    /// Whether node `j`'s next probe is due at `now`. Probes to an
    /// unresponsive node back off exponentially (capped, jittered), so
    /// this stays `false` for most of a dead node's downtime.
    pub fn probe_due(&self, j: usize, now: SimTime) -> bool {
        now >= self.nodes[j].next_probe_at
    }

    /// Feeds the outcome of a probe of node `j` issued at `now`:
    /// `Some(rtt)` when an ack arrived (an ack slower than the adaptive
    /// timeout still counts as a miss), `None` when nothing came back.
    /// Returns the state transitions this observation caused, in order.
    pub fn observe(
        &mut self,
        j: usize,
        now: SimTime,
        rtt: Option<SimDuration>,
    ) -> Vec<HealthEvent> {
        let deadline = self.timeout(j);
        let answered = match rtt {
            Some(r) => r <= deadline,
            None => false,
        };
        if let Some(t) = &self.telemetry {
            t.probes.inc();
            if !answered {
                t.probe_timeouts.inc();
            }
        }
        let mut events = Vec::new();
        let state = self.nodes[j].state;
        if answered {
            let sample = rtt.expect("answered implies a sample").as_secs_f64();
            let node = &mut self.nodes[j];
            if node.srtt == 0.0 {
                node.srtt = sample;
                node.rttvar = sample / 2.0;
            } else {
                node.rttvar = 0.75 * node.rttvar + 0.25 * (node.srtt - sample).abs();
                node.srtt = 0.875 * node.srtt + 0.125 * sample;
            }
            node.misses = 0;
            node.attempts = 0;
            match state {
                NodeState::Healthy | NodeState::Rejoining => {}
                NodeState::Suspect => {
                    self.transition(j, now, NodeState::Healthy);
                    events.push(HealthEvent::Recovered(j));
                }
                NodeState::Dead => {
                    self.transition(j, now, NodeState::Rejoining);
                    events.push(HealthEvent::RejoinReady(j));
                }
            }
        } else {
            self.nodes[j].misses += 1;
            self.nodes[j].attempts += 1;
            match state {
                NodeState::Healthy => {
                    self.transition(j, now, NodeState::Suspect);
                    events.push(HealthEvent::Suspected(j));
                    if let Some(t) = &self.telemetry {
                        t.suspects.inc();
                    }
                }
                NodeState::Suspect => {
                    if self.nodes[j].misses >= DEAD_MISSES {
                        self.transition(j, now, NodeState::Dead);
                        events.push(HealthEvent::Died(j));
                        if let Some(t) = &self.telemetry {
                            t.deaths.inc();
                        }
                    }
                }
                NodeState::Rejoining => {
                    // The resync window closed on us: back to Dead.
                    self.transition(j, now, NodeState::Dead);
                }
                NodeState::Dead => {}
            }
        }
        let attempts = self.nodes[j].attempts;
        self.nodes[j].next_probe_at = now + backoff(PROBE_INTERVAL, j as u64, attempts);
        events
    }

    /// Marks node `j`'s state resync complete at `now`: Rejoining →
    /// Healthy. No-op unless the node is actually rejoining.
    pub fn rejoined(&mut self, j: usize, now: SimTime) {
        if self.nodes[j].state == NodeState::Rejoining {
            self.transition(j, now, NodeState::Healthy);
        }
    }

    /// Forces node `j` straight to Dead (an injected kill observed by
    /// the engine out-of-band — no probe round-trip needed). Returns
    /// whether the node was previously serving.
    pub fn force_dead(&mut self, j: usize, now: SimTime) -> bool {
        let was_serving = matches!(self.nodes[j].state, NodeState::Healthy | NodeState::Suspect);
        if was_serving {
            if let Some(t) = &self.telemetry {
                // A hard kill still walks the ranks for the counters:
                // one suspect transition, one death.
                t.suspects.inc();
                t.deaths.inc();
            }
        }
        self.transition(j, now, NodeState::Dead);
        let node = &mut self.nodes[j];
        node.misses = DEAD_MISSES;
        node.attempts = node.attempts.max(1);
        let attempts = node.attempts;
        self.nodes[j].next_probe_at = now + backoff(PROBE_INTERVAL, j as u64, attempts);
        was_serving
    }

    /// Accumulated node-seconds spent in each state so far, in
    /// `[healthy, suspect, dead, rejoining]` order. Time in the current
    /// states is not included until [`HealthMonitor::finalize`] runs.
    pub fn state_secs(&self) -> [f64; 4] {
        self.state_secs
    }

    /// Closes the per-state time accounting at `now` (session end):
    /// folds each node's open interval into the accumulators and
    /// publishes the four `health.*_secs` gauges. Safe to call more
    /// than once — intervals are folded up to the latest `now` only.
    pub fn finalize(&mut self, now: SimTime) {
        for j in 0..self.nodes.len() {
            let open = now.saturating_duration_since(self.nodes[j].since);
            self.state_secs[self.nodes[j].state.index()] += open.as_secs_f64();
            self.nodes[j].since = now;
        }
        if let Some(t) = &self.telemetry {
            for (gauge, secs) in t.state_secs.iter().zip(self.state_secs) {
                gauge.set(secs);
            }
        }
    }
}

/// Thermal-throttle hint derived from a node's GPU-time duty cycle.
///
/// The service GPUs are actively cooled and never clock-throttle in the
/// simulator ([`crate::service::ServiceRuntime`] asserts as much), so
/// the fabric's thermal signal is the *precursor*: the fraction of wall
/// time a node's GPU spends busy. A node pinned near 100 % duty has no
/// thermal headroom left, and the rebalancer drains it before the
/// physical throttle a real deployment would hit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ThermalHint {
    /// Duty cycle inside the sustainable envelope.
    Nominal,
    /// Sustained duty above the enter threshold; drain candidate.
    Throttling,
}

impl ThermalHint {
    /// Stable label for logs and reports.
    pub fn as_str(&self) -> &'static str {
        match self {
            ThermalHint::Nominal => "nominal",
            ThermalHint::Throttling => "throttling",
        }
    }
}

/// Per-node GPU-time duty-cycle EWMA with hysteresis — the signal
/// behind [`ThermalHint`].
///
/// Busy intervals are folded into fixed windows; each closed window's
/// duty (busy ÷ window, clamped to 1) feeds an EWMA. The hint flips to
/// [`ThermalHint::Throttling`] when the EWMA crosses `enter` and back
/// to [`ThermalHint::Nominal`] only below `exit` (`exit < enter`), so a
/// node oscillating around one threshold does not flap. Deterministic:
/// no wall clock, no RNG — a pure function of the booking sequence,
/// like the rest of this module.
#[derive(Clone, Debug)]
pub struct DutyCycleEwma {
    window_us: u64,
    alpha: f64,
    enter: f64,
    exit: f64,
    /// Index of the currently open window.
    window: u64,
    /// Busy time accumulated in the open window (µs).
    busy_us: f64,
    ewma: f64,
    primed: bool,
    throttling: bool,
}

impl DutyCycleEwma {
    /// Creates a monitor with the given window length, EWMA weight, and
    /// hysteresis thresholds (`exit < enter`, both in `[0, 1]`).
    #[must_use]
    pub fn new(window: SimDuration, alpha: f64, enter: f64, exit: f64) -> Self {
        debug_assert!(exit < enter, "hysteresis band must be non-empty");
        DutyCycleEwma {
            window_us: window.as_micros().max(1),
            alpha: alpha.clamp(0.0, 1.0),
            enter,
            exit,
            window: 0,
            busy_us: 0.0,
            ewma: 0.0,
            primed: false,
            throttling: false,
        }
    }

    fn close_through(&mut self, target: u64) {
        while self.window < target {
            let duty = (self.busy_us / self.window_us as f64).min(1.0);
            self.ewma = if self.primed {
                self.alpha * duty + (1.0 - self.alpha) * self.ewma
            } else {
                duty
            };
            self.primed = true;
            if self.throttling {
                if self.ewma <= self.exit {
                    self.throttling = false;
                }
            } else if self.ewma >= self.enter {
                self.throttling = true;
            }
            self.busy_us = 0.0;
            self.window += 1;
        }
    }

    /// Folds one GPU busy booking `[start, finish)` into the windows it
    /// overlaps. Bookings may extend past the last settle point —
    /// scheduled future busy time is exactly what a proactive drain
    /// wants to see. Time before an already-closed window is dropped.
    pub fn record(&mut self, start: SimTime, finish: SimTime) {
        let mut s = start.as_micros().max(self.window * self.window_us);
        let f = finish.as_micros();
        while s < f {
            let w = s / self.window_us;
            self.close_through(w);
            let end = ((w + 1) * self.window_us).min(f);
            self.busy_us += (end - s) as f64;
            s = end;
        }
    }

    /// Closes every window that ended before `now` (idle windows score
    /// zero duty), bringing the EWMA and hint current.
    pub fn settle(&mut self, now: SimTime) {
        self.close_through(now.as_micros() / self.window_us);
    }

    /// The duty-cycle EWMA over closed windows, in `[0, 1]`.
    #[must_use]
    pub fn duty(&self) -> f64 {
        self.ewma
    }

    /// The current hysteretic hint.
    #[must_use]
    pub fn hint(&self) -> ThermalHint {
        if self.throttling {
            ThermalHint::Throttling
        } else {
            ThermalHint::Nominal
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbooster_net::rudp::MAX_BACKOFF_SHIFT;

    #[test]
    fn sustained_overload_flips_the_thermal_hint_and_idling_clears_it() {
        let window = SimDuration::from_millis(100);
        let mut duty = DutyCycleEwma::new(window, 0.4, 0.85, 0.60);
        assert_eq!(duty.hint(), ThermalHint::Nominal);

        // One saturated second: back-to-back bookings covering every
        // window flip the hint within the EWMA's settling time.
        duty.record(SimTime::ZERO, SimTime::from_millis(1_000));
        duty.settle(SimTime::from_millis(1_000));
        assert!(duty.duty() > 0.99, "saturated duty, got {}", duty.duty());
        assert_eq!(duty.hint(), ThermalHint::Throttling);

        // Oscillating just under the exit threshold must not clear it…
        duty.record(SimTime::from_millis(1_000), SimTime::from_millis(1_070));
        duty.settle(SimTime::from_millis(1_100));
        assert_eq!(duty.hint(), ThermalHint::Throttling, "hysteresis holds");

        // …but a genuinely idle stretch does.
        duty.settle(SimTime::from_millis(2_500));
        assert!(duty.duty() < 0.60);
        assert_eq!(duty.hint(), ThermalHint::Nominal);
    }

    #[test]
    fn duty_cycle_splits_bookings_across_windows_and_never_exceeds_one() {
        let window = SimDuration::from_millis(10);
        let mut duty = DutyCycleEwma::new(window, 1.0, 0.9, 0.5);
        // A booking spanning 2.5 windows: 10 ms + 10 ms + 5 ms.
        duty.record(SimTime::ZERO, SimTime::from_millis(25));
        duty.settle(SimTime::from_millis(30));
        // alpha = 1: the EWMA is the last closed window's duty (0.5).
        assert!((duty.duty() - 0.5).abs() < 1e-9, "got {}", duty.duty());

        // Overlapping/duplicate busy past a closed window is clamped.
        let mut d2 = DutyCycleEwma::new(window, 1.0, 0.9, 0.5);
        d2.record(SimTime::ZERO, SimTime::from_millis(10));
        d2.record(SimTime::from_millis(2), SimTime::from_millis(10));
        d2.settle(SimTime::from_millis(10));
        assert!(d2.duty() <= 1.0);
    }

    #[test]
    fn misses_walk_healthy_suspect_dead_and_ack_rejoins() {
        let mut hm = HealthMonitor::new(2);
        let mut now = SimTime::ZERO;
        assert_eq!(hm.observe(0, now, None), vec![HealthEvent::Suspected(0)]);
        assert_eq!(hm.state(0), NodeState::Suspect);
        assert_eq!(hm.pool_size(), 2, "suspect still serves");
        now += SimDuration::from_millis(16);
        assert!(hm.observe(0, now, None).is_empty());
        now += SimDuration::from_millis(32);
        assert_eq!(hm.observe(0, now, None), vec![HealthEvent::Died(0)]);
        assert_eq!(hm.state(0), NodeState::Dead);
        assert_eq!(hm.pool_size(), 1);
        // The node comes back: ack → Rejoining, resync → Healthy.
        now += SimDuration::from_secs(1);
        let ev = hm.observe(0, now, Some(SimDuration::from_millis(2)));
        assert_eq!(ev, vec![HealthEvent::RejoinReady(0)]);
        assert_eq!(hm.pool_size(), 1, "rejoining is not yet in the pool");
        hm.rejoined(0, now);
        assert_eq!(hm.state(0), NodeState::Healthy);
        assert_eq!(hm.pool_size(), 2);
    }

    #[test]
    fn transitions_journal_into_ops_and_account_time_in_state() {
        let ops = OpsLog::new();
        let mut hm = HealthMonitor::new(1);
        hm.attach_ops(ops.clone());
        // Healthy for 100 ms, then three misses walk to Dead, then an
        // ack at 1 s starts the rejoin, completed 50 ms later.
        let mut now = SimTime::from_millis(100);
        hm.observe(0, now, None); // healthy -> suspect
        now = SimTime::from_millis(150);
        hm.observe(0, now, None);
        hm.observe(0, now, None); // suspect -> dead
        now = SimTime::from_millis(1_000);
        hm.observe(0, now, Some(SimDuration::from_millis(2))); // dead -> rejoining
        now = SimTime::from_millis(1_050);
        hm.rejoined(0, now); // rejoining -> healthy
        let events = ops.events();
        let walk: Vec<(&str, &str, u64)> = events
            .iter()
            .map(|e| match e.kind {
                OpsEventKind::HealthTransition {
                    from,
                    to,
                    in_state_us,
                    ..
                } => (from, to, in_state_us),
                ref other => panic!("unexpected event {other:?}"),
            })
            .collect();
        assert_eq!(
            walk,
            vec![
                ("healthy", "suspect", 100_000),
                ("suspect", "dead", 50_000),
                ("dead", "rejoining", 850_000),
                ("rejoining", "healthy", 50_000),
            ]
        );
        // Finalize folds the open healthy interval and fills the gauges
        // — including Rejoining, which matches the other states.
        let registry = Registry::new();
        hm.attach_registry(&registry);
        hm.finalize(SimTime::from_millis(2_050));
        let secs = hm.state_secs();
        assert!((secs[0] - 1.1).abs() < 1e-9, "healthy: {secs:?}");
        assert!((secs[1] - 0.05).abs() < 1e-9, "suspect: {secs:?}");
        assert!((secs[2] - 0.85).abs() < 1e-9, "dead: {secs:?}");
        assert!((secs[3] - 0.05).abs() < 1e-9, "rejoining: {secs:?}");
        let snap = registry.snapshot();
        assert!((snap.gauge(names::health::REJOINING_SECS) - 0.05).abs() < 1e-9);
        assert!((snap.gauge(names::health::HEALTHY_SECS) - 1.1).abs() < 1e-9);
    }

    #[test]
    fn suspect_recovers_on_a_timely_ack() {
        let mut hm = HealthMonitor::new(1);
        hm.observe(0, SimTime::ZERO, None);
        assert_eq!(hm.state(0), NodeState::Suspect);
        let ev = hm.observe(
            0,
            SimTime::from_millis(16),
            Some(SimDuration::from_millis(2)),
        );
        assert_eq!(ev, vec![HealthEvent::Recovered(0)]);
        assert_eq!(hm.state(0), NodeState::Healthy);
    }

    #[test]
    fn adaptive_timeout_tracks_rtt_and_its_variance() {
        let mut hm = HealthMonitor::new(1);
        // Cold start: the conservative ceiling applies.
        assert_eq!(hm.timeout(0), MAX_TIMEOUT);
        let mut now = SimTime::ZERO;
        for _ in 0..20 {
            hm.observe(0, now, Some(SimDuration::from_millis(10)));
            now += SimDuration::from_millis(16);
        }
        // Stable 10 ms RTT: srtt → 10 ms, rttvar decays, timeout settles
        // between the RTT itself and the initial 3x spread.
        let t = hm.timeout(0).as_secs_f64();
        assert!(t > 0.010 && t < 0.030, "timeout {t:.4}s out of band");
        // A slow ack beyond the learned deadline counts as a miss.
        let ev = hm.observe(0, now, Some(SimDuration::from_millis(150)));
        assert_eq!(ev, vec![HealthEvent::Suspected(0)]);
    }

    #[test]
    fn probe_backoff_grows_and_caps_deterministically() {
        let mut hm = HealthMonitor::new(1);
        let base = PROBE_INTERVAL.as_micros();
        let mut now = SimTime::ZERO;
        let mut prev = SimTime::ZERO;
        let mut spacings = Vec::new();
        for i in 0..7 {
            assert!(hm.probe_due(0, now));
            hm.observe(0, now, None);
            let next = hm.nodes[0].next_probe_at;
            if i > 0 {
                spacings.push((now - prev).as_micros());
            }
            prev = now;
            now = next;
        }
        for pair in spacings[..MAX_BACKOFF_SHIFT as usize].windows(2) {
            assert!(pair[1] > pair[0], "backoff must grow: {spacings:?}");
        }
        for &s in &spacings[MAX_BACKOFF_SHIFT as usize - 1..] {
            assert!(
                s >= base << MAX_BACKOFF_SHIFT && s < (base << MAX_BACKOFF_SHIFT) + base / 4,
                "capped spacing out of range: {spacings:?}"
            );
        }
        // A second monitor replays the identical schedule.
        let mut hm2 = HealthMonitor::new(1);
        let mut now2 = SimTime::ZERO;
        for _ in 0..7 {
            hm2.observe(0, now2, None);
            now2 = hm2.nodes[0].next_probe_at;
        }
        assert_eq!(now, now2);
    }

    #[test]
    fn backoff_schedules_are_pinned() {
        use gbooster_net::rudp::{RudpConfig, RudpSender};
        use gbooster_telemetry::TraceContext;
        // The first eight retransmit intervals (µs) of datagram `seq`
        // under the default 20 ms RTO, never acked.
        let rudp = |seq: u64| -> Vec<u64> {
            let cfg = RudpConfig::default();
            let mut tx = RudpSender::new(cfg);
            tx.enqueue_traced(cfg.mtu * (seq as usize + 1), TraceContext::NONE);
            tx.poll_send(SimTime::ZERO);
            tx.on_ack(seq);
            let mut prev = SimTime::ZERO;
            (0..8)
                .map(|_| {
                    let deadline = tx.next_rto_deadline().expect("datagram in flight");
                    tx.poll_retransmit(deadline);
                    let gap = (deadline - prev).as_micros();
                    prev = deadline;
                    gap
                })
                .collect()
        };
        // The first eight probe intervals (µs) of `node` on the 16 ms
        // cadence: one answered probe, then seven misses.
        let probe = |node: usize| -> Vec<u64> {
            let mut hm = HealthMonitor::new(4);
            let mut now = SimTime::ZERO;
            (0..8)
                .map(|i| {
                    let rtt = (i == 0).then(|| SimDuration::from_millis(2));
                    hm.observe(node, now, rtt);
                    let next = hm.nodes[node].next_probe_at;
                    let gap = (next - now).as_micros();
                    now = next;
                    gap
                })
                .collect()
        };
        let rudp: Vec<Vec<u64>> = (0..4).map(rudp).collect();
        let probe: Vec<Vec<u64>> = (0..4).map(probe).collect();
        assert_eq!(
            rudp,
            [
                [20000, 44580, 83111, 160806, 161049, 162128, 160659, 163354],
                [20000, 43765, 81070, 163375, 164008, 161313, 163618, 162539],
                [20000, 43662, 81357, 162436, 160131, 161210, 163905, 161600],
                [20000, 42847, 82700, 161621, 163090, 160395, 161864, 164169],
            ]
        );
        assert_eq!(
            probe,
            [
                [16000, 32580, 65111, 128806, 128049, 128128, 128659, 128354],
                [16000, 35765, 64070, 128375, 131008, 131313, 131618, 131539],
                [16000, 34662, 66357, 130436, 130131, 130210, 129905, 129600],
                [16000, 33847, 65700, 129621, 129090, 129395, 128864, 129169],
            ]
        );
    }

    #[test]
    fn force_dead_skips_the_probe_walk() {
        let mut hm = HealthMonitor::new(2);
        assert!(hm.force_dead(1, SimTime::ZERO));
        assert_eq!(hm.state(1), NodeState::Dead);
        assert_eq!(hm.pool_size(), 1);
        // Idempotent: a second kill reports the node already down.
        assert!(!hm.force_dead(1, SimTime::ZERO));
    }

    #[test]
    fn telemetry_counts_probes_and_transitions() {
        let registry = Registry::new();
        let mut hm = HealthMonitor::new(1);
        hm.attach_registry(&registry);
        let mut now = SimTime::ZERO;
        for _ in 0..3 {
            hm.observe(0, now, None);
            now += SimDuration::from_secs(1);
        }
        hm.observe(0, now, Some(SimDuration::from_millis(2)));
        let snap = registry.snapshot();
        assert_eq!(snap.counter(names::health::PROBES), 4);
        assert_eq!(snap.counter(names::health::PROBE_TIMEOUTS), 3);
        assert_eq!(snap.counter(names::health::SUSPECT_TRANSITIONS), 1);
        assert_eq!(snap.counter(names::health::DEAD_TRANSITIONS), 1);
    }
}
