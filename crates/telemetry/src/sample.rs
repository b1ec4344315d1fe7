//! Tail-sampled retention of per-frame trace trees.
//!
//! Tracing every frame of a 256-session fabric is exactly the
//! fleet-scale cost problem tail sampling exists for: the verdict runs
//! at frame *retirement*, when the frame's fate is known, and keeps
//! only the traces an operator would actually open — SLO-violating
//! frames, frames presented inside an open incident window, frames
//! that crossed a migration cutover, and a deterministic 1-in-N head
//! sample for baseline context. Everything else is counted and
//! discarded.
//!
//! Retention is bounded per tenant by a byte budget over the
//! serialized trace lines, enforced on computed lengths: whoever offers
//! a frame states the exact length of the line its kept body renders
//! to. So a sampler can hold something cheaper than the line (the
//! fabric holds a frame's waypoints) and render lines only for the
//! traces still retained when the run ends ([`TailSampler::render`]),
//! each into an allocation of exactly its length. When a tenant exceeds
//! its budget the *oldest kept* trace is evicted first — except the
//! tenant's worst-latency kept trace, which is pinned so the trace-id
//! exemplars the latency histograms carry (see
//! [`crate::hist::HistogramCore::record_tagged`]) always resolve to a
//! retained trace. Every decision is a pure function of the offered
//! sequence, so two identical runs retain byte-identical sets.

use std::collections::{BTreeMap, VecDeque};

use crate::json::{push_u64, u64_len};
use crate::trace::FrameTrace;

/// Default deterministic head-sample interval: keep 1 frame in 16
/// regardless of verdict.
pub const DEFAULT_HEAD_INTERVAL: u64 = 16;

/// Default per-tenant budget over serialized trace bytes. Generous
/// enough that, at fabric frame rates, must-keep traces are never
/// evicted in the chaos scenarios; small enough to bound a 256-tenant
/// run to tens of megabytes.
pub const DEFAULT_TENANT_BUDGET_BYTES: u64 = 256 * 1024;

/// Builds the fabric trace id: the session id in the high 32 bits, the
/// frame seq in the low 32. Fits histogram exemplar tags (`u64`), and
/// both halves stay recoverable for display.
#[must_use]
pub fn trace_id(session_id: u64, seq: u64) -> u64 {
    (session_id << 32) | (seq & 0xffff_ffff)
}

/// Why the tail sampler retained a frame, in precedence order: a frame
/// matching several criteria is labelled with the highest one.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum KeepReason {
    /// End-to-end latency exceeded the tenant's SLO.
    SloViolation,
    /// Presented while a pool incident window was open.
    Incident,
    /// In flight or presented across a migration cutover.
    Migration,
    /// The deterministic 1-in-N baseline sample (`seq % N == 0`).
    HeadSample,
}

impl KeepReason {
    /// The serialized tag.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            KeepReason::SloViolation => "slo_violation",
            KeepReason::Incident => "incident",
            KeepReason::Migration => "migration",
            KeepReason::HeadSample => "head_sample",
        }
    }
}

/// The facts about one retired frame that the tail verdict weighs.
#[derive(Clone, Copy, Debug, Default)]
pub struct FrameVerdict {
    /// End-to-end latency exceeded the tenant's SLO.
    pub slo_violation: bool,
    /// An incident window (node loss, degrade, drain…) was open at
    /// presentation.
    pub in_incident: bool,
    /// The tenant was mid-migration, or a cutover landed between issue
    /// and presentation.
    pub migration: bool,
}

/// One retained frame trace. `L` is what the sampler holds for the
/// line: the serialized line itself, or, in a sampler that renders its
/// lines when the run ends, what the line is rendered from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KeptTrace<L = String> {
    /// Owning tenant.
    pub tenant: u32,
    /// `(session_id << 32) | seq` — the exemplar tag on the latency
    /// histograms.
    pub trace_id: u64,
    /// Frame sequence within the tenant.
    pub seq: u64,
    /// Highest-precedence keep criterion the frame matched.
    pub reason: KeepReason,
    /// End-to-end latency in µs (the tail verdict's input).
    pub latency_us: u64,
    /// The line's exact length in bytes — the unit the budget is
    /// enforced in, stated when the frame was offered.
    pub bytes: u64,
    /// The serialized JSONL line (no trailing newline), or what it is
    /// rendered from (see [`TailSampler::render`]).
    pub line: L,
}

/// Per-tenant retention state.
#[derive(Clone, Debug, PartialEq, Eq)]
struct TenantTraces<L> {
    /// Kept traces, oldest first.
    entries: VecDeque<KeptTrace<L>>,
    /// Sum of `entries[*].bytes`, maintained ≤ the budget.
    bytes: u64,
    /// `(latency_us, trace_id)` of the pinned worst kept trace. The
    /// update rule is `latency >= worst` — identical to
    /// [`crate::hist::HistogramCore::record_tagged`], so the pin always
    /// names the same frame as the histogram exemplar.
    worst: Option<(u64, u64)>,
}

/// The deterministic tail sampler. One per fabric run; feeds from
/// frame retirement, answers for the retained set. The budget is
/// enforced on the line lengths each offer computes, so `L`, what a
/// kept trace holds for its line, need not be the line (see the module
/// docs).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TailSampler<L = String> {
    head_interval: u64,
    tenant_budget_bytes: u64,
    tenants: BTreeMap<u32, TenantTraces<L>>,
    kept: u64,
    dropped: u64,
    evictions: u64,
}

impl<L> TailSampler<L> {
    /// Creates a sampler keeping a 1-in-`head_interval` baseline sample
    /// (`0` disables head sampling) under a per-tenant byte budget.
    #[must_use]
    pub fn new(head_interval: u64, tenant_budget_bytes: u64) -> Self {
        TailSampler {
            head_interval,
            tenant_budget_bytes,
            tenants: BTreeMap::new(),
            kept: 0,
            dropped: 0,
            evictions: 0,
        }
    }

    /// The configured per-tenant budget in bytes.
    #[must_use]
    pub fn tenant_budget_bytes(&self) -> u64 {
        self.tenant_budget_bytes
    }

    /// Runs the tail verdict on one retired frame. Only when the
    /// verdict keeps the frame does `keep` run: it is handed the keep
    /// reason and returns the exact length of the frame's line and what
    /// the sampler holds for that line, so the ~15/16 of healthy frames
    /// the head sample discards never pay for either. Returns the keep
    /// reason when the trace was retained — the caller should then tag
    /// the frame's latency samples with `trace_id` — or `None` when it
    /// was discarded (counted in [`TailSampler::dropped`]).
    pub fn offer(
        &mut self,
        tenant: u32,
        seq: u64,
        trace_id: u64,
        latency_us: u64,
        verdict: FrameVerdict,
        keep: impl FnOnce(KeepReason) -> (u64, L),
    ) -> Option<KeepReason> {
        let reason = if verdict.slo_violation {
            KeepReason::SloViolation
        } else if verdict.in_incident {
            KeepReason::Incident
        } else if verdict.migration {
            KeepReason::Migration
        } else if self.head_interval > 0 && seq.is_multiple_of(self.head_interval) {
            KeepReason::HeadSample
        } else {
            self.dropped += 1;
            return None;
        };
        let (bytes, line) = keep(reason);
        if bytes > self.tenant_budget_bytes {
            // One line wider than the whole budget can never be
            // retained without breaking the budget invariant.
            self.dropped += 1;
            return None;
        }
        let t = self.tenants.entry(tenant).or_insert_with(|| TenantTraces {
            entries: VecDeque::new(),
            bytes: 0,
            worst: None,
        });
        if t.worst.is_none_or(|(lat, _)| latency_us >= lat) {
            t.worst = Some((latency_us, trace_id));
        }
        t.entries.push_back(KeptTrace {
            tenant,
            trace_id,
            seq,
            reason,
            latency_us,
            bytes,
            line,
        });
        t.bytes += bytes;
        self.kept += 1;
        // Oldest-kept eviction down to the budget, skipping the pinned
        // worst trace so exemplars keep resolving. At most one entry is
        // pinned, and every entry fits the budget alone, so the loop
        // always terminates within budget.
        while t.bytes > self.tenant_budget_bytes {
            let pinned = t.worst.map(|(_, id)| id);
            let victim = t
                .entries
                .iter()
                .position(|e| Some(e.trace_id) != pinned)
                .expect("a tenant over budget holds a non-pinned entry");
            let evicted = t.entries.remove(victim).expect("victim index in bounds");
            t.bytes -= evicted.bytes;
            self.evictions += 1;
        }
        Some(reason)
    }

    /// Traces accepted by the verdict (including any later evicted for
    /// budget).
    #[must_use]
    pub fn kept(&self) -> u64 {
        self.kept
    }

    /// Traces the verdict discarded outright.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Kept traces later evicted to enforce a tenant budget.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Currently retained traces, ordered by tenant then retention
    /// order (oldest first).
    pub fn retained(&self) -> impl Iterator<Item = &KeptTrace<L>> {
        self.tenants.values().flat_map(|t| t.entries.iter())
    }

    /// Retained trace count.
    #[must_use]
    pub fn retained_count(&self) -> usize {
        self.tenants.values().map(|t| t.entries.len()).sum()
    }

    /// Whether `trace_id` is currently retained.
    #[must_use]
    pub fn is_retained(&self, trace_id: u64) -> bool {
        self.retained().any(|e| e.trace_id == trace_id)
    }

    /// Bytes currently retained for `tenant` (always ≤ the budget).
    #[must_use]
    pub fn tenant_bytes(&self, tenant: u32) -> u64 {
        self.tenants.get(&tenant).map_or(0, |t| t.bytes)
    }

    /// Renders the line of every retained trace with `write`, which
    /// appends the line to an empty string allocated for exactly the
    /// trace's `bytes`. Tenants are rendered one at a time, each
    /// tenant's held bodies freed as its lines are made. The counters,
    /// the tallies and the pins carry over unchanged.
    #[must_use]
    pub fn render(self, mut write: impl FnMut(&KeptTrace<L>, &mut String)) -> TailSampler {
        let tenants = (self.tenants.into_iter())
            .map(|(tenant, t)| {
                let entries = (t.entries.into_iter())
                    .map(|e| {
                        let mut line = String::with_capacity(
                            usize::try_from(e.bytes).expect("a kept line fits in memory"),
                        );
                        write(&e, &mut line);
                        debug_assert_eq!(
                            line.len() as u64,
                            e.bytes,
                            "trace {} rendered to a line of another length",
                            e.trace_id
                        );
                        KeptTrace {
                            tenant: e.tenant,
                            trace_id: e.trace_id,
                            seq: e.seq,
                            reason: e.reason,
                            latency_us: e.latency_us,
                            bytes: e.bytes,
                            line,
                        }
                    })
                    .collect();
                let rendered = TenantTraces {
                    entries,
                    bytes: t.bytes,
                    worst: t.worst,
                };
                (tenant, rendered)
            })
            .collect();
        TailSampler {
            head_interval: self.head_interval,
            tenant_budget_bytes: self.tenant_budget_bytes,
            tenants,
            kept: self.kept,
            dropped: self.dropped,
            evictions: self.evictions,
        }
    }
}

impl TailSampler {
    /// The retained set as JSON Lines, in [`TailSampler::retained`]
    /// order — the byte string the double-run identity tests compare.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in self.retained() {
            out.push_str(&e.line);
            out.push('\n');
        }
        out
    }
}

/// The fixed parts of a retained trace's line, written by
/// [`serialize_into`] and counted by [`line_len`].
const TENANT: &str = "{\"tenant\":";
const TRACE_ID: &str = ",\"trace_id\":";
const SEQ: &str = ",\"seq\":";
const REASON: &str = ",\"reason\":\"";
const SPAN: &str = "\",\"span\":";

/// The exact length of the line [`serialize_into`] writes for a trace
/// whose span tree's JSON is `span_bytes` long (see
/// [`crate::trace::SpanLen`]).
#[must_use]
pub fn line_len(tenant: u32, trace_id: u64, seq: u64, reason: KeepReason, span_bytes: u64) -> u64 {
    let fixed = TENANT.len() + TRACE_ID.len() + SEQ.len() + REASON.len() + SPAN.len() + "}".len();
    fixed as u64
        + u64_len(u64::from(tenant))
        + u64_len(trace_id)
        + u64_len(seq)
        + reason.as_str().len() as u64
        + span_bytes
}

/// Writes the deterministic JSONL form of one retained trace.
pub fn serialize_into(
    out: &mut String,
    tenant: u32,
    trace_id: u64,
    reason: KeepReason,
    trace: &FrameTrace,
) {
    out.push_str(TENANT);
    push_u64(out, u64::from(tenant));
    out.push_str(TRACE_ID);
    push_u64(out, trace_id);
    out.push_str(SEQ);
    push_u64(out, trace.seq);
    out.push_str(REASON);
    out.push_str(reason.as_str());
    out.push_str(SPAN);
    trace.root.write_json(out);
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::names::stage;
    use crate::trace::{SpanLen, SpanNode, SpanTree};
    use gbooster_sim::time::SimTime;

    fn frame<S: SpanTree>(seq: u64) -> S {
        let t = |us: u64| SimTime::from_micros(us);
        let mut root = S::new(stage::FRAME, t(seq * 1_000), t(seq * 1_000 + 900));
        root.stage(stage::DISPATCH_WAIT, t(seq * 1_000), t(seq * 1_000 + 100));
        root
    }

    /// Offers tenant `tenant`'s frame `seq`, holding its trace for the
    /// line and measuring the line without writing it.
    fn offer(
        s: &mut TailSampler<FrameTrace>,
        tenant: u32,
        seq: u64,
        latency_us: u64,
        verdict: FrameVerdict,
    ) -> Option<KeepReason> {
        let id = trace_id(u64::from(tenant) + 1, seq);
        s.offer(tenant, seq, id, latency_us, verdict, |reason| {
            let span = frame::<SpanLen>(seq).bytes();
            let root = frame::<SpanNode>(seq);
            (
                line_len(tenant, id, seq, reason, span),
                FrameTrace { seq, root },
            )
        })
    }

    fn render(s: TailSampler<FrameTrace>) -> TailSampler {
        s.render(|e, out| serialize_into(out, e.tenant, e.trace_id, e.reason, &e.line))
    }

    #[test]
    fn verdict_precedence_and_head_sampling() {
        let mut s = TailSampler::new(4, u64::MAX);
        let all = FrameVerdict {
            slo_violation: true,
            in_incident: true,
            migration: true,
        };
        assert_eq!(
            offer(&mut s, 0, 1, 500, all),
            Some(KeepReason::SloViolation)
        );
        let incident = FrameVerdict {
            in_incident: true,
            ..FrameVerdict::default()
        };
        assert_eq!(
            offer(&mut s, 0, 2, 10, incident),
            Some(KeepReason::Incident)
        );
        // seq 4 is the head sample at interval 4; seq 3 is dropped.
        assert_eq!(offer(&mut s, 0, 3, 10, FrameVerdict::default()), None);
        assert_eq!(
            offer(&mut s, 0, 4, 10, FrameVerdict::default()),
            Some(KeepReason::HeadSample)
        );
        assert_eq!(s.kept(), 3);
        assert_eq!(s.dropped(), 1);
        assert_eq!(s.evictions(), 0);
        assert_eq!(s.retained_count(), 3);
    }

    #[test]
    fn budget_evicts_oldest_but_pins_the_worst() {
        // Budget fits roughly two lines; the worst-latency trace must
        // survive while older cheap ones rotate out.
        let mut line = String::new();
        let first = FrameTrace {
            seq: 0,
            root: frame(0),
        };
        serialize_into(
            &mut line,
            0,
            trace_id(1, 0),
            KeepReason::SloViolation,
            &first,
        );
        let mut s = TailSampler::new(0, line.len() as u64 * 2 + 8);
        let slo = FrameVerdict {
            slo_violation: true,
            ..FrameVerdict::default()
        };
        // Worst latency arrives first.
        offer(&mut s, 0, 0, 9_999, slo);
        for seq in 1..6u64 {
            offer(&mut s, 0, seq, 100 + seq, slo);
        }
        assert!(s.tenant_bytes(0) <= s.tenant_budget_bytes());
        assert!(s.is_retained(trace_id(1, 0)), "worst trace evicted");
        assert_eq!(s.evictions(), 4);
        let ids: Vec<u64> = s.retained().map(|e| e.trace_id).collect();
        assert_eq!(ids, vec![trace_id(1, 0), trace_id(1, 5)]);
    }

    #[test]
    fn kept_lines_are_exact_size() {
        let mut s = TailSampler::new(1, u64::MAX);
        let head = FrameVerdict::default();
        for seq in [0u64, 9, 10, 99_999, 123_456_789] {
            offer(&mut s, 0, seq, 10, head);
        }
        let s = render(s);
        assert_eq!(s.retained_count(), 5);
        for e in s.retained() {
            assert_eq!(e.bytes, e.line.len() as u64, "miscounted {}", e.line);
            assert_eq!(e.line.capacity(), e.line.len(), "slack in {}", e.line);
        }
    }

    #[test]
    fn oversized_lines_are_dropped_not_kept() {
        let mut s = TailSampler::new(1, 8);
        let slo = FrameVerdict {
            slo_violation: true,
            ..FrameVerdict::default()
        };
        assert_eq!(offer(&mut s, 0, 0, 1, slo), None);
        assert_eq!(s.dropped(), 1);
        assert_eq!(s.retained_count(), 0);
    }

    #[test]
    fn jsonl_is_deterministic_and_ordered_by_tenant() {
        let mut a = TailSampler::new(1, u64::MAX);
        let mut b = TailSampler::new(1, u64::MAX);
        for s in [&mut a, &mut b] {
            for tenant in [1u32, 0] {
                for seq in 0..3u64 {
                    offer(s, tenant, seq, 10, FrameVerdict::default());
                }
            }
        }
        let (a, b) = (render(a), render(b));
        assert_eq!(a.to_jsonl(), b.to_jsonl());
        assert_eq!(a, b);
        let jsonl = a.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 6);
        assert!(lines[0].starts_with("{\"tenant\":0,"));
        assert!(lines[3].starts_with("{\"tenant\":1,"));
    }
}
