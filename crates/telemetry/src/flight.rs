//! The fault-triggered flight recorder.
//!
//! Like an aircraft's, the recorder costs nothing until a fault fires:
//! it keeps no frames of its own. The dump is cut from the session's
//! [`TraceLog`](crate::trace::TraceLog) — the caller passes the log's
//! last N stitched frame traces to [`FlightRecorder::trigger`] — and is a
//! structured postmortem: the fault, when it fired, those frame traces,
//! and a full registry snapshot. A one-shot latch guarantees **exactly
//! one** dump per recorder no matter how many faults follow the first,
//! so a storm of secondary faults cannot bury the primary evidence.

use gbooster_sim::time::SimTime;

use crate::incident::{OpsEventKind, OpsLog};
use crate::report::TelemetrySnapshot;
use crate::trace::FrameTrace;

/// The fault classes the session engine detects.
///
/// The engine's detector chain ranks these by severity when several
/// symptoms coincide on one frame: pool-wide loss outranks a single
/// node's death, which outranks the fallback flip it caused, which
/// outranks the rejoin that healed it, which outranks the transport
/// symptoms (storm, timeout, flap) that ride along as side effects.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Fault {
    /// A burst of datagram retransmissions above the storm threshold.
    LossStorm,
    /// A frame's dispatch wait exceeded the timeout budget.
    DispatchTimeout,
    /// The WiFi interface flapped (rapid off/on cycling).
    InterfaceFlap,
    /// A service node stopped responding and its in-flight frames were
    /// re-dispatched.
    NodeLoss,
    /// Every service node is dead: the session has no remote pool left.
    AllNodesLost,
    /// The engine flipped SwapBuffers to the local-render path (pool
    /// empty or SLO breached for K consecutive frames).
    FallbackEngaged,
    /// A dead node completed its state resync and re-entered the pool.
    NodeRejoined,
    /// A live migration could not complete: the destination died
    /// mid-transfer and no survivor was left to retarget to
    /// (docs/MIGRATION.md).
    MigrationStalled,
}

impl Fault {
    /// Stable machine-readable name, used in dump headers.
    pub fn as_str(&self) -> &'static str {
        match self {
            Fault::LossStorm => "loss_storm",
            Fault::DispatchTimeout => "dispatch_timeout",
            Fault::InterfaceFlap => "interface_flap",
            Fault::NodeLoss => "node_loss",
            Fault::AllNodesLost => "all_nodes_lost",
            Fault::FallbackEngaged => "fallback_engaged",
            Fault::NodeRejoined => "node_rejoined",
            Fault::MigrationStalled => "migration_stalled",
        }
    }
}

impl std::fmt::Display for Fault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One emitted postmortem.
#[derive(Clone, Debug)]
pub struct FlightDump {
    /// What fired.
    pub fault: Fault,
    /// Sim time of the trigger.
    pub at: SimTime,
    /// The last-N stitched frame traces, oldest first.
    pub frames: Vec<FrameTrace>,
    /// Registry snapshot taken at trigger time.
    pub snapshot: TelemetrySnapshot,
}

impl FlightDump {
    /// Serializes the dump as JSON Lines: a fault header, one line per
    /// retained frame (same schema as the session trace JSONL), and a
    /// snapshot trailer.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"fault\":\"{}\",\"at_us\":{},\"frames\":{}}}\n",
            self.fault.as_str(),
            self.at.as_micros(),
            self.frames.len()
        ));
        for f in &self.frames {
            f.write_jsonl(&mut out);
        }
        out.push_str("{\"snapshot\":");
        out.push_str(&self.snapshot.to_json());
        out.push_str("}\n");
        out
    }
}

/// The one-shot trigger.
#[derive(Clone, Debug, Default)]
pub struct FlightRecorder {
    faults_seen: u64,
    dumps: Vec<FlightDump>,
    ops: Option<OpsLog>,
}

impl FlightRecorder {
    /// Creates an unfired recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Journals the one-shot dump emission into `ops`, so incident
    /// timelines can link the postmortem that fired inside them.
    pub fn attach_ops(&mut self, ops: OpsLog) {
        self.ops = Some(ops);
    }

    /// Reports a fault. The first call emits a dump of `frames` (the
    /// stitched traces leading up to the fault, oldest first) and the
    /// registry `snapshot`, and returns `true`; every later call only
    /// bumps [`FlightRecorder::faults_seen`] — the latch keeps the dump
    /// describing the *primary* fault — and never takes the snapshot.
    pub fn trigger(
        &mut self,
        fault: Fault,
        at: SimTime,
        frames: &[FrameTrace],
        snapshot: impl FnOnce() -> TelemetrySnapshot,
    ) -> bool {
        self.faults_seen += 1;
        if self.has_fired() {
            return false;
        }
        if let Some(ops) = &self.ops {
            ops.push(
                at,
                OpsEventKind::FlightDump {
                    fault: fault.as_str(),
                },
            );
        }
        self.dumps.push(FlightDump {
            fault,
            at,
            frames: frames.to_vec(),
            snapshot: snapshot(),
        });
        true
    }

    /// True once a dump has been emitted.
    pub fn has_fired(&self) -> bool {
        !self.dumps.is_empty()
    }

    /// Faults reported, including latched-out ones.
    pub fn faults_seen(&self) -> u64 {
        self.faults_seen
    }

    /// The emitted dumps (length 0 or 1 by construction).
    pub fn dumps(&self) -> &[FlightDump] {
        &self.dumps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::names;
    use crate::trace::{SpanNode, TraceLog};

    fn frame(seq: u64) -> FrameTrace {
        FrameTrace {
            seq,
            root: SpanNode::new(
                names::stage::FRAME,
                SimTime::from_micros(seq * 1_000),
                SimTime::from_micros(seq * 1_000 + 900),
            ),
        }
    }

    fn log_of(frames: u64) -> TraceLog {
        let mut log = TraceLog::new();
        for seq in 0..frames {
            log.push(frame(seq));
        }
        log
    }

    #[test]
    fn ring_keeps_only_the_last_n() {
        let log = log_of(10);
        let mut rec = FlightRecorder::new();
        assert!(rec.trigger(
            Fault::LossStorm,
            SimTime::from_micros(99),
            log.tail(3),
            TelemetrySnapshot::default
        ));
        let dump = &rec.dumps()[0];
        let seqs: Vec<u64> = dump.frames.iter().map(|f| f.seq).collect();
        assert_eq!(seqs, [7, 8, 9]);
    }

    #[test]
    fn latch_emits_exactly_one_dump() {
        let log = log_of(1);
        let mut rec = FlightRecorder::new();
        assert!(!rec.has_fired());
        assert!(rec.trigger(
            Fault::DispatchTimeout,
            SimTime::from_micros(5),
            log.tail(2),
            TelemetrySnapshot::default
        ));
        assert!(!rec.trigger(
            Fault::LossStorm,
            SimTime::from_micros(6),
            log.tail(2),
            TelemetrySnapshot::default
        ));
        assert!(!rec.trigger(
            Fault::InterfaceFlap,
            SimTime::from_micros(7),
            log.tail(2),
            TelemetrySnapshot::default
        ));
        assert_eq!(rec.dumps().len(), 1);
        assert_eq!(rec.dumps()[0].fault, Fault::DispatchTimeout);
        assert_eq!(rec.faults_seen(), 3);
        assert!(rec.has_fired());
    }

    #[test]
    fn dump_jsonl_has_header_frames_and_trailer() {
        let log = log_of(2);
        let mut rec = FlightRecorder::new();
        rec.trigger(
            Fault::InterfaceFlap,
            SimTime::from_micros(2_500),
            log.tail(4),
            TelemetrySnapshot::default,
        );
        let jsonl = rec.dumps()[0].to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 4); // header + 2 frames + snapshot
        assert_eq!(
            lines[0],
            "{\"fault\":\"interface_flap\",\"at_us\":2500,\"frames\":2}"
        );
        assert!(lines[1].starts_with("{\"seq\":0,\"span\":{\"name\":\"frame\""));
        assert!(lines[3].starts_with("{\"snapshot\":{\"counters\""));
        // Each frame line is the trace log's own line for that frame.
        assert_eq!(lines[1..3].join("\n") + "\n", log.to_jsonl());
    }

    #[test]
    fn trigger_journals_the_dump_once_into_an_attached_ops_log() {
        let ops = OpsLog::new();
        let mut rec = FlightRecorder::new();
        rec.attach_ops(ops.clone());
        rec.trigger(
            Fault::NodeLoss,
            SimTime::from_micros(1_000),
            &[],
            TelemetrySnapshot::default,
        );
        rec.trigger(
            Fault::LossStorm,
            SimTime::from_micros(2_000),
            &[],
            TelemetrySnapshot::default,
        );
        // One dump, one journal entry — the latch gates both.
        let events = ops.events();
        assert_eq!(events.len(), 1);
        assert_eq!(
            events[0].kind,
            OpsEventKind::FlightDump { fault: "node_loss" }
        );
        assert_eq!(events[0].at, SimTime::from_micros(1_000));
    }

    #[test]
    fn a_fault_past_the_log_cap_dumps_the_last_kept_frames() {
        // The log keeps its head: once its cap fills, later frames are
        // counted as dropped, so a fault that first fires after the cap
        // dumps the frames the log kept last, not those before the fault.
        let mut log = TraceLog::with_capacity_limit(5);
        for seq in 0..12 {
            log.push(frame(seq));
        }
        assert_eq!(log.dropped(), 7);
        let mut rec = FlightRecorder::new();
        rec.trigger(
            Fault::LossStorm,
            SimTime::from_micros(11_900),
            log.tail(3),
            TelemetrySnapshot::default,
        );
        let seqs: Vec<u64> = rec.dumps()[0].frames.iter().map(|f| f.seq).collect();
        assert_eq!(seqs, [2, 3, 4]);
    }
}
