//! The engine-side live-ops runtime.
//!
//! [`OpsRuntime`] is the glue between the session engine and the
//! telemetry crate's streaming-ops primitives: it owns the shared
//! [`OpsLog`] journal, feeds the windowed metric streams once per
//! presented frame, evaluates every configured
//! [`SloObjective`](gbooster_telemetry::SloObjective) the
//! multi-window burn-rate way, steps the per-objective
//! [`AlertMachine`]s, runs [`AnomalyDetector`]s over the streams that
//! have no hard objective (per-interface power draw), and correlates
//! everything — detector faults, alert firings, injected degradations —
//! into at-most-one-open incident via the [`IncidentManager`].
//!
//! Everything runs in **sim time** and is attribution-only: attaching
//! the runtime changes no frame timing, routing, or protocol behavior,
//! so a session with the ops layer on is byte-identical to one with it
//! off everywhere except the ops outputs themselves.
//!
//! Severity ranking when concurrent triggers correlate (higher wins the
//! incident's kind): `all_nodes_lost` (6) > `node_loss` (5) >
//! `fallback_engaged` (4) > `node_degraded` (3) > the transport
//! symptoms `loss_storm` / `dispatch_timeout` / `interface_flap` (2) >
//! `slo_burn` (1). A rejoin is recovery, not a trigger: it lands in the
//! timeline as a detector event but never opens an incident.

use gbooster_sim::time::{SimDuration, SimTime};
use gbooster_telemetry::{
    names, AlertMachine, AlertSummary, AlertTransition, AnomalyDetector, AttributionLog, BurnState,
    Counter, Fault, IncidentManager, OpsEventKind, OpsLog, OpsReport, Registry, SloWindowState,
    WindowedHistogram,
};

use crate::config::OpsConfig;

/// Slot width of every windowed ops stream. The default burn windows
/// are multiples of this, so window cuts land on slot boundaries.
const SLOT_WIDTH: SimDuration = SimDuration::from_millis(100);

/// Slots retained per stream: covers the longest default slow window
/// (2.5 s) with generous headroom.
const SLOT_RETAIN: usize = 64;

/// EWMA smoothing factor for the power anomaly detectors.
const ANOMALY_ALPHA: f64 = 0.1;

/// z-score bound for the power anomaly detectors.
const ANOMALY_Z: f64 = 5.0;

/// Samples a power anomaly detector observes before it may flag.
const ANOMALY_WARMUP: u64 = 30;

/// Severity of an SLO-burn-triggered incident (the floor of the ranks).
const SLO_BURN_SEVERITY: u8 = 1;

/// Incident kind and severity for a detector-classified fault, or
/// `None` for faults that are recoveries rather than triggers.
fn fault_rank(fault: Fault) -> Option<(&'static str, u8)> {
    match fault {
        Fault::AllNodesLost => Some(("all_nodes_lost", 6)),
        Fault::NodeLoss => Some(("node_loss", 5)),
        Fault::FallbackEngaged => Some(("fallback_engaged", 4)),
        Fault::LossStorm => Some(("loss_storm", 2)),
        Fault::DispatchTimeout => Some(("dispatch_timeout", 2)),
        Fault::InterfaceFlap => Some(("interface_flap", 2)),
        Fault::MigrationStalled => Some(("migration_stalled", 3)),
        Fault::NodeRejoined => None,
    }
}

/// One objective with its stream handle and alert lifecycle.
#[derive(Debug)]
struct ObjectiveRuntime {
    objective: gbooster_telemetry::SloObjective,
    stream: WindowedHistogram,
    alert: AlertMachine,
}

/// The live-ops evaluation loop, owned by the offload engine.
#[derive(Debug)]
pub struct OpsRuntime {
    log: OpsLog,
    objectives: Vec<ObjectiveRuntime>,
    incidents: IncidentManager,
    attr: AttributionLog,
    // Windowed sample streams fed once per presented frame.
    win_latency: WindowedHistogram,
    win_interval: WindowedHistogram,
    win_cache_miss: WindowedHistogram,
    win_wifi_power: WindowedHistogram,
    win_bt_power: WindowedHistogram,
    // Anomaly detectors for the objective-less power streams.
    det_wifi: AnomalyDetector,
    det_bt: AnomalyDetector,
    // Ops counters, published at finalize.
    c_events: Counter,
    c_incidents: Counter,
    c_correlated: Counter,
    c_alerts_fired: Counter,
    c_alerts_deduped: Counter,
    c_anomalies: Counter,
    // Per-present delta state.
    hits: Counter,
    misses: Counter,
    prev_hits: u64,
    prev_misses: u64,
    prev_wifi_j: f64,
    prev_bt_j: f64,
    last_present: Option<SimTime>,
    anomalies: u64,
}

impl OpsRuntime {
    /// Builds the runtime from the session's [`OpsConfig`], registering
    /// every stream and counter in `registry`. Returns `None` when the
    /// layer is disabled — the engine then skips every tap.
    pub fn new(cfg: &OpsConfig, registry: &Registry, attr: AttributionLog) -> Option<Self> {
        if !cfg.enabled {
            return None;
        }
        let objectives = cfg
            .objectives
            .iter()
            .map(|&objective| ObjectiveRuntime {
                objective,
                stream: registry.windowed(objective.stream, SLOT_WIDTH, SLOT_RETAIN),
                alert: AlertMachine::new(objective.name, cfg.alert),
            })
            .collect();
        Some(OpsRuntime {
            log: OpsLog::new(),
            objectives,
            incidents: IncidentManager::default(),
            attr,
            win_latency: registry.windowed(names::ops::WIN_FRAME_LATENCY, SLOT_WIDTH, SLOT_RETAIN),
            win_interval: registry.windowed(
                names::ops::WIN_FRAME_INTERVAL,
                SLOT_WIDTH,
                SLOT_RETAIN,
            ),
            win_cache_miss: registry.windowed(names::ops::WIN_CACHE_MISS, SLOT_WIDTH, SLOT_RETAIN),
            win_wifi_power: registry.windowed(names::ops::WIN_WIFI_POWER, SLOT_WIDTH, SLOT_RETAIN),
            win_bt_power: registry.windowed(names::ops::WIN_BT_POWER, SLOT_WIDTH, SLOT_RETAIN),
            det_wifi: AnomalyDetector::new(
                names::ops::WIN_WIFI_POWER,
                ANOMALY_ALPHA,
                ANOMALY_Z,
                ANOMALY_WARMUP,
            ),
            det_bt: AnomalyDetector::new(
                names::ops::WIN_BT_POWER,
                ANOMALY_ALPHA,
                ANOMALY_Z,
                ANOMALY_WARMUP,
            ),
            c_events: registry.counter(names::ops::EVENTS),
            c_incidents: registry.counter(names::ops::INCIDENTS),
            c_correlated: registry.counter(names::ops::INCIDENTS_CORRELATED),
            c_alerts_fired: registry.counter(names::ops::ALERTS_FIRED),
            c_alerts_deduped: registry.counter(names::ops::ALERTS_DEDUPED),
            c_anomalies: registry.counter(names::ops::ANOMALIES),
            hits: registry.counter(names::forward::CACHE_HITS),
            misses: registry.counter(names::forward::CACHE_MISSES),
            prev_hits: 0,
            prev_misses: 0,
            prev_wifi_j: 0.0,
            prev_bt_j: 0.0,
            last_present: None,
            anomalies: 0,
        })
    }

    /// A handle to the shared event journal, for the other producers
    /// (flight recorder, health monitor, transport).
    pub fn log(&self) -> OpsLog {
        self.log.clone()
    }

    /// Feeds one presented frame's samples into the windowed streams:
    /// end-to-end latency, inter-frame gap, per-frame cache-miss
    /// permille (from the forwarder counter deltas), and per-interface
    /// power rate over the gap (cumulative joules passed in; rates feed
    /// the anomaly detectors).
    pub fn on_present(
        &mut self,
        shown: SimTime,
        latency: SimDuration,
        wifi_joules: f64,
        bt_joules: f64,
    ) {
        self.win_latency.record(shown, latency.as_micros());
        let (hits, misses) = (self.hits.get(), self.misses.get());
        let (dh, dm) = (hits - self.prev_hits, misses - self.prev_misses);
        self.prev_hits = hits;
        self.prev_misses = misses;
        if let Some(permille) = (dm * 1_000).checked_div(dh + dm) {
            self.win_cache_miss.record(shown, permille);
        }
        if let Some(prev) = self.last_present {
            let gap = shown.saturating_duration_since(prev);
            self.win_interval.record(shown, gap.as_micros());
            let secs = gap.as_secs_f64();
            if secs > 0.0 {
                // Round to whole milliwatts before recording *and*
                // detecting: the detector must see exactly the stream
                // the histogram keeps, and sub-mW float noise on a
                // near-constant rate would otherwise shrink the EWMA
                // variance until trivial jitter scores as anomalous.
                let wifi_mw = ((wifi_joules - self.prev_wifi_j).max(0.0) / secs * 1_000.0).round();
                let bt_mw = ((bt_joules - self.prev_bt_j).max(0.0) / secs * 1_000.0).round();
                self.win_wifi_power.record(shown, wifi_mw as u64);
                self.win_bt_power.record(shown, bt_mw as u64);
                for (det, value) in [(&mut self.det_wifi, wifi_mw), (&mut self.det_bt, bt_mw)] {
                    if let Some(hit) = det.observe(value) {
                        self.anomalies += 1;
                        self.log.push(
                            shown,
                            OpsEventKind::Anomaly {
                                metric: det.metric,
                                value: hit.value,
                                mean: hit.mean,
                                z: hit.z,
                            },
                        );
                    }
                }
            }
        }
        self.last_present = Some(shown);
        self.prev_wifi_j = wifi_joules;
        self.prev_bt_j = bt_joules;
    }

    /// Evaluates every objective at `now`, steps its alert machine,
    /// journals the transitions, opens an `slo_burn` incident on a
    /// firing (or correlates it into the open one), and closes the open
    /// incident once the system is quiescent — `pool_healthy` AND no
    /// alert active — past the minimum open time.
    pub fn evaluate(&mut self, now: SimTime, pool_healthy: bool) {
        let burns: Vec<BurnState> = self
            .objectives
            .iter()
            .map(|o| o.objective.evaluate(now, &o.stream))
            .collect();
        for (o, burn) in self.objectives.iter_mut().zip(&burns) {
            let Some(transition) = o.alert.step(now, burn.breaching) else {
                continue;
            };
            self.log.push(
                now,
                OpsEventKind::Alert {
                    alert: o.alert.name,
                    transition: transition.as_str(),
                    fast_burn: burn.fast_burn,
                    slow_burn: burn.slow_burn,
                },
            );
            if transition == AlertTransition::Fired {
                self.incidents.on_trigger(
                    now,
                    "slo_burn",
                    SLO_BURN_SEVERITY,
                    format!(
                        "alert {} fired (burn fast {:.2} / slow {:.2})",
                        o.alert.name, burn.fast_burn, burn.slow_burn
                    ),
                    burns.iter().map(SloWindowState::from).collect(),
                    &self.attr.snapshot(),
                );
            }
        }
        if self.incidents.has_open() {
            let quiescent = pool_healthy && self.objectives.iter().all(|o| !o.alert.is_active());
            self.incidents
                .maybe_close(now, quiescent, &self.attr.snapshot(), &self.log);
        }
    }

    /// Journals a detector-classified fault and folds it into the
    /// incident correlation (rejoins journal only — recovery is not a
    /// trigger).
    pub fn on_fault(&mut self, now: SimTime, fault: Fault) {
        self.log.push(
            now,
            OpsEventKind::FaultDetected {
                fault: fault.as_str(),
            },
        );
        let Some((kind, severity)) = fault_rank(fault) else {
            return;
        };
        let slo = self.burn_snapshot(now);
        self.incidents.on_trigger(
            now,
            kind,
            severity,
            format!("detector classified {}", fault.as_str()),
            slo,
            &self.attr.snapshot(),
        );
    }

    /// Journals an injected capability brownout and opens (or
    /// correlates) a `node_degraded` incident.
    pub fn on_degrade(&mut self, now: SimTime, node: usize, factor: f64) {
        self.log.push(
            now,
            OpsEventKind::NodeDegraded {
                node,
                factor_permille: (factor * 1_000.0).round() as u64,
            },
        );
        let slo = self.burn_snapshot(now);
        self.incidents.on_trigger(
            now,
            "node_degraded",
            3,
            format!("node {node} degraded to {:.1}% throughput", factor * 100.0),
            slo,
            &self.attr.snapshot(),
        );
    }

    /// Journals the fallback engaging (`reason` is `"pool_empty"` or
    /// `"slo_breach"`). The matching incident trigger arrives via the
    /// detector chain's [`Fault::FallbackEngaged`].
    pub fn on_fallback_engaged(&mut self, now: SimTime, reason: &'static str) {
        self.log.push(now, OpsEventKind::FallbackEngaged { reason });
    }

    /// Journals the fallback releasing back to the offload path.
    pub fn on_fallback_released(&mut self, now: SimTime) {
        self.log.push(now, OpsEventKind::FallbackReleased);
    }

    /// Journals `frames` in-flight frames re-dispatched off dead `node`.
    pub fn on_redispatch(&mut self, now: SimTime, node: usize, frames: u64) {
        self.log
            .push(now, OpsEventKind::Redispatch { node, frames });
    }

    /// Current burn state of every objective, for incident records.
    fn burn_snapshot(&self, now: SimTime) -> Vec<SloWindowState> {
        self.objectives
            .iter()
            .map(|o| SloWindowState::from(&o.objective.evaluate(now, &o.stream)))
            .collect()
    }

    /// Ends the session's ops evaluation at `now`: attempts one final
    /// quiescent close, seals any still-open incident as unresolved,
    /// publishes the `ops.*` counters, and bundles the [`OpsReport`].
    pub fn finalize(&mut self, now: SimTime, pool_healthy: bool) -> OpsReport {
        let quiescent = pool_healthy && self.objectives.iter().all(|o| !o.alert.is_active());
        self.incidents
            .maybe_close(now, quiescent, &self.attr.snapshot(), &self.log);
        let incidents = self.incidents.finalize(&self.attr.snapshot(), &self.log);
        let alerts: Vec<AlertSummary> = self
            .objectives
            .iter()
            .map(|o| AlertSummary {
                name: o.alert.name,
                fired: o.alert.fired(),
                deduped: o.alert.deduped(),
                resolved: o.alert.resolved(),
                final_state: o.alert.state().as_str(),
            })
            .collect();
        self.c_events.add(self.log.len() as u64);
        self.c_incidents.add(self.incidents.opened());
        self.c_correlated.add(self.incidents.correlated());
        self.c_alerts_fired
            .add(alerts.iter().map(|a| a.fired).sum());
        self.c_alerts_deduped
            .add(alerts.iter().map(|a| a.deduped).sum());
        self.c_anomalies.add(self.anomalies);
        OpsReport {
            incidents,
            events: self.log.events(),
            alerts,
            anomalies: self.anomalies,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbooster_telemetry::AlertConfig;

    fn runtime() -> OpsRuntime {
        let registry = Registry::new();
        // Tighten the dwell so unit flows stay short.
        let cfg = OpsConfig {
            alert: AlertConfig {
                pending_for: SimDuration::from_millis(50),
                resolve_after: SimDuration::from_millis(100),
            },
            ..OpsConfig::default()
        };
        OpsRuntime::new(&cfg, &registry, AttributionLog::new()).expect("enabled by default")
    }

    #[test]
    fn disabled_config_builds_no_runtime() {
        let registry = Registry::new();
        let cfg = OpsConfig {
            enabled: false,
            ..OpsConfig::default()
        };
        assert!(OpsRuntime::new(&cfg, &registry, AttributionLog::new()).is_none());
    }

    #[test]
    fn sustained_latency_breach_fires_and_opens_an_slo_burn_incident() {
        let mut ops = runtime();
        // Healthy traffic through the warmup, then sustained badness.
        let mut t = SimTime::ZERO;
        for _ in 0..80 {
            t += SimDuration::from_millis(25);
            ops.on_present(t, SimDuration::from_millis(30), 0.0, 0.0);
            ops.evaluate(t, true);
        }
        assert!(!ops.incidents.has_open());
        for _ in 0..80 {
            t += SimDuration::from_millis(25);
            ops.on_present(t, SimDuration::from_millis(200), 0.0, 0.0);
            ops.evaluate(t, true);
        }
        assert!(ops.incidents.has_open(), "burn must open an incident");
        let report = ops.finalize(t, true);
        assert_eq!(report.incidents.len(), 1);
        assert_eq!(report.incidents[0].kind, "slo_burn");
        assert!(report.alerts.iter().any(|a| a.fired > 0));
        // The firing is in the journal as a structured alert event.
        assert!(report.events.iter().any(|e| matches!(
            e.kind,
            OpsEventKind::Alert {
                transition: "firing",
                ..
            }
        )));
    }

    #[test]
    fn a_fault_escalates_the_open_incident_instead_of_opening_a_second() {
        let mut ops = runtime();
        let t = SimTime::from_millis(3_000);
        ops.on_fault(t, Fault::FallbackEngaged);
        ops.on_fault(t + SimDuration::from_millis(10), Fault::NodeLoss);
        ops.on_fault(t + SimDuration::from_millis(20), Fault::NodeRejoined);
        let report = ops.finalize(t + SimDuration::from_millis(30), true);
        assert_eq!(report.incidents.len(), 1, "one correlated incident");
        assert_eq!(report.incidents[0].kind, "node_loss", "escalated");
        assert_eq!(report.incidents[0].correlated, 1, "rejoin never triggers");
        // All three detector events still land on the timeline.
        let faults: Vec<&str> = report.incidents[0]
            .timeline
            .iter()
            .filter_map(|e| match e.kind {
                OpsEventKind::FaultDetected { fault } => Some(fault),
                _ => None,
            })
            .collect();
        assert_eq!(
            faults,
            vec!["fallback_engaged", "node_loss", "node_rejoined"]
        );
    }

    #[test]
    fn clean_samples_raise_nothing() {
        let mut ops = runtime();
        let mut t = SimTime::ZERO;
        for i in 0..240 {
            t += SimDuration::from_millis(25);
            let jitter = SimDuration::from_micros((i % 7) * 300);
            ops.on_present(
                t,
                SimDuration::from_millis(35) + jitter,
                0.01 * i as f64,
                0.0,
            );
            ops.evaluate(t, true);
        }
        let report = ops.finalize(t, true);
        assert!(report.incidents.is_empty());
        assert!(report.alerts.iter().all(|a| a.fired == 0));
        assert_eq!(report.anomalies, 0);
        assert!(report.events.is_empty());
    }
}
