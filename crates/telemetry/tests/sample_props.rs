//! Property tests for the tail sampler's budget accounting: under any
//! interleaving of tenants, verdicts, and span sizes the per-tenant
//! byte budget is never exceeded, the counters reconcile, and the
//! eviction order is a pure function of the offer sequence.

use gbooster_sim::time::SimTime;
use gbooster_telemetry::sample::{line_len, serialize_into, trace_id, FrameVerdict, TailSampler};
use gbooster_telemetry::trace::{FrameTrace, SpanLen, SpanNode, SpanTree};
use proptest::prelude::*;

/// One synthetic frame offer: tenant, latency, verdict bits, and a
/// span-count knob that varies the serialized line length.
#[derive(Clone, Debug)]
struct Offer {
    tenant: u32,
    latency_us: u64,
    slo_violation: bool,
    in_incident: bool,
    migration: bool,
    spans: usize,
}

fn offers() -> impl Strategy<Value = Vec<Offer>> {
    proptest::collection::vec(
        (
            0u32..4,
            0u64..500_000,
            any::<bool>(),
            any::<bool>(),
            any::<bool>(),
            0usize..24,
        )
            .prop_map(
                |(tenant, latency_us, slo_violation, in_incident, migration, spans)| Offer {
                    tenant,
                    latency_us,
                    slo_violation,
                    in_incident,
                    migration,
                    spans,
                },
            ),
        1..200,
    )
}

fn tree_for<S: SpanTree>(seq: u64, latency_us: u64, spans: usize) -> S {
    let start = SimTime::from_micros(seq * 1_000);
    let end = SimTime::from_micros(seq * 1_000 + latency_us.max(1));
    let mut root = S::new("frame", start, end);
    for _ in 0..spans {
        root.stage("replay", start, end);
    }
    root
}

/// Offers every frame to a fresh sampler, holding each kept frame's
/// trace and measuring its line without writing it, then renders the
/// lines of the traces still retained.
fn drive(head_interval: u64, budget: u64, offers: &[Offer]) -> TailSampler {
    let mut sampler = TailSampler::new(head_interval, budget);
    let mut seqs = [0u64; 4];
    for o in offers {
        let seq = seqs[o.tenant as usize];
        seqs[o.tenant as usize] += 1;
        let id = trace_id(u64::from(o.tenant) + 1, seq);
        let verdict = FrameVerdict {
            slo_violation: o.slo_violation,
            in_incident: o.in_incident,
            migration: o.migration,
        };
        sampler.offer(o.tenant, seq, id, o.latency_us, verdict, |reason| {
            let span = tree_for::<SpanLen>(seq, o.latency_us, o.spans).bytes();
            let root = tree_for::<SpanNode>(seq, o.latency_us, o.spans);
            (
                line_len(o.tenant, id, seq, reason, span),
                FrameTrace { seq, root },
            )
        });
    }
    sampler.render(|e, out| serialize_into(out, e.tenant, e.trace_id, e.reason, &e.line))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn budget_is_never_exceeded(offers in offers(), budget in 64u64..4096) {
        let s = drive(4, budget, &offers);
        for tenant in 0..4u32 {
            let held = s.tenant_bytes(tenant);
            prop_assert!(held <= budget, "tenant {tenant}: {held} > {budget}");
            // The per-tenant tally equals the sum over retained lines.
            let sum: u64 = s
                .retained()
                .filter(|e| e.tenant == tenant)
                .map(|e| e.bytes)
                .sum();
            prop_assert_eq!(sum, held);
        }
        for e in s.retained() {
            prop_assert_eq!(e.bytes as usize, e.line.len());
            prop_assert!(e.bytes <= budget, "oversized line retained");
        }
    }

    #[test]
    fn counters_reconcile(offers in offers(), budget in 64u64..4096) {
        let s = drive(4, budget, &offers);
        prop_assert_eq!(s.kept() + s.dropped(), offers.len() as u64);
        // kept counts verdicts, not residency: evictions only ever
        // shrink the retained set below kept, one entry each.
        prop_assert_eq!(s.retained_count() as u64 + s.evictions(), s.kept());
        // Each retained id resolves through the public lookup.
        for e in s.retained() {
            prop_assert!(s.is_retained(e.trace_id));
        }
    }

    #[test]
    fn eviction_order_is_deterministic(offers in offers(), budget in 64u64..4096) {
        // Same offer sequence, two fresh samplers: every observable —
        // retained set, serialization, counters — must coincide.
        let a = drive(4, budget, &offers);
        let b = drive(4, budget, &offers);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.to_jsonl(), b.to_jsonl());
    }

    #[test]
    fn always_keep_verdicts_are_kept(offers in offers()) {
        // With an effectively unbounded budget, every SLO-violating,
        // incident-window, or migration frame is retained.
        let must_keep = offers
            .iter()
            .filter(|o| o.slo_violation || o.in_incident || o.migration)
            .count() as u64;
        let s = drive(u64::MAX, u64::MAX / 2, &offers);
        prop_assert!(s.kept() >= must_keep);
        prop_assert_eq!(s.evictions(), 0);
        let retained_flagged = s
            .retained()
            .filter(|e| {
                use gbooster_telemetry::sample::KeepReason::*;
                matches!(e.reason, SloViolation | Incident | Migration)
            })
            .count() as u64;
        prop_assert_eq!(retained_flagged, must_keep);
    }
}
