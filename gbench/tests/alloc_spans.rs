//! Allocation bytes are charged to the innermost open span. Alone in its
//! own test binary, because the allocator's counters are process-wide.

use gbooster_perf::trace::Tracer;

#[test]
fn allocations_are_charged_to_the_innermost_open_span() {
    let mut tr = Tracer::new(true);
    tr.begin_run();
    tr.enter("outer");
    let a = std::hint::black_box(Vec::<u8>::with_capacity(1_000));
    let b = tr.span("inner", || {
        std::hint::black_box(Vec::<u8>::with_capacity(50_000))
    });
    tr.exit();
    drop((a, b));
    let spans = tr.spans();
    assert_eq!(spans.len(), 2);
    let (outer, inner) = (&spans[0], &spans[1]);
    assert_eq!(inner.parent, Some(0));
    assert!(
        inner.alloc_bytes >= 50_000,
        "inner charged {}",
        inner.alloc_bytes
    );
    assert!(
        (1_000..50_000).contains(&outer.alloc_bytes),
        "outer charged {}",
        outer.alloc_bytes
    );
    assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);

    let mut off = Tracer::new(false);
    off.span("ignored", || ());
    assert!(off.spans().is_empty());
}
