//! The two run modes of one workload.
//!
//! * Untraced: the end-to-end metrics. One warm-up run (discarded, but
//!   its digest is the reference), then timed runs with the same seed
//!   until the time budget is spent, so the simulated work is identical
//!   and only host noise varies; each is preceded by a set-up run at the
//!   shortest horizon and a [`probe`] of the machine's speed. One thread,
//!   one simulation at a time: a closed loop.
//! * Traced: the per-layer metrics, from spans around the replayed layer
//!   calls, plus the program's own run twice (its digests must match).

use std::hint::black_box;
use std::time::Instant;

use gbooster::core::fabric::FabricConfig;
use gbooster::telemetry::names;

use crate::metrics::WorkloadResult;
use crate::replay::{self, ReplayTotals};
use crate::stats::{median, Summary};
use crate::trace::{layer_totals, LayerTotal, Span, Tracer};
use crate::workloads::{self, Config, Horizon, Report, Run, Workload};

/// Timed runs at least, whatever the time budget.
const MIN_REPS: usize = 3;
/// The time budget without `--seconds`: `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 28.0;
/// The [`probe`]'s median time on the machine the baselines come from
/// (2 vCPUs), in a quiet spell. Host timings are reported at that speed.
pub const PROBE_NOMINAL_S: f64 = 0.0075;

/// Run settings shared by every workload.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    /// Seed every input is made from.
    pub seed: u64,
    /// Host seconds of timed runs to aim for.
    pub seconds: f64,
    /// A tenth of the horizon.
    pub quick: bool,
}

impl Options {
    fn horizon(&self) -> Horizon {
        if self.quick {
            Horizon::Quick
        } else {
            Horizon::Full
        }
    }
}

/// Checks a run's digest against the reference digest and, at the
/// canonical seed and full horizon, against the committed one.
fn check_digest(w: Workload, opt: &Options, reference: u64, run: &Run) -> Result<(), String> {
    if run.digest != reference {
        return Err(format!(
            "simulated outputs changed between runs of one seed: digest {:016x} vs {reference:016x}",
            run.digest
        ));
    }
    let expected = workloads::expected_digest(w);
    if opt.seed == workloads::CANONICAL_SEED && !opt.quick && run.digest != expected {
        return Err(format!(
            "simulated outputs differ from the committed ones: digest {:016x}, expected {expected:016x}",
            run.digest
        ));
    }
    Ok(())
}

/// Times a fixed loop that shares no code with the program: hashing and
/// branching over a fresh 4 MB buffer. A shared machine slows down for
/// seconds to minutes at a time, as others contend for its memory; over
/// a run, the program and this loop slow down together.
pub fn probe() -> f64 {
    let start = Instant::now();
    let mut v: Vec<u64> = (0..1u64 << 19)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    let mut h = 0u64;
    for round in 0..8 {
        for x in v.iter_mut() {
            *x = x.rotate_left(13) ^ round;
            h = h.wrapping_mul(31).wrapping_add(*x >> 7);
            if h & 1 == 0 {
                h ^= *x;
            }
        }
    }
    black_box(h);
    start.elapsed().as_secs_f64()
}

/// The untraced run: every end-to-end metric of `w`.
pub fn measure(w: Workload, opt: &Options) -> WorkloadResult {
    let mut res = WorkloadResult::new(w);
    let setup_cfg = w.config(opt.seed, Horizon::Setup);
    let cfg = w.config(opt.seed, opt.horizon());
    let mut setup = Vec::new();
    let mut probes = Vec::new();
    let mut reference = None;
    let mut runs: Vec<Run> = Vec::new();
    let started = Instant::now();
    // Each round times the probe, one set-up run and one full run, so
    // all three sample the whole time budget. The first round is the warm-up and
    // counts against the budget; another round would overshoot it when
    // the time so far plus one round's share exceeds it.
    for rounds in 0.. {
        let spent = started.elapsed().as_secs_f64();
        if rounds > MIN_REPS && spent + spent / rounds as f64 > opt.seconds {
            break;
        }
        probes.extend([probe(), probe(), probe()]);
        if let Some(run) = res.attempt(workloads::run(&setup_cfg)) {
            if rounds > 0 {
                setup.push(run.wall_s);
            }
        }
        let Some(run) = res.attempt(workloads::run(&cfg)) else {
            continue;
        };
        // The first good run is the warm-up: discarded, but every later
        // run must reproduce its outputs exactly.
        let Some(want) = reference else {
            reference = Some(run.digest);
            if let Err(e) = check_digest(w, opt, run.digest, &run) {
                res.fail(e);
            }
            continue;
        };
        match check_digest(w, opt, want, &run) {
            Ok(()) => runs.push(run),
            Err(e) => res.fail(e),
        }
    }

    // Host timings are scaled to the nominal machine speed by the run's
    // median probe, so a slow spell that spans the run cancels out.
    let slowdown = median(&probes) / PROBE_NOMINAL_S;
    let per_run = |f: &dyn Fn(&Run) -> f64| Summary::of(runs.iter().map(f).collect());
    res.push(
        "frames_per_s",
        per_run(&|r| r.frames as f64 / r.wall_s * slowdown),
    );
    res.push(
        "setup_s",
        Summary::of(setup.iter().map(|s| s / slowdown).collect()),
    );
    res.push(
        "machine.probe_ms",
        Summary::of(probes.iter().map(|s| s * 1e3).collect()),
    );
    res.push(
        "alloc_bytes_per_frame",
        per_run(&|r| r.alloc_bytes as f64 / r.frames as f64),
    );
    res.push("peak_heap_mb", per_run(&|r| r.peak_bytes as f64 / 1e6));
    res.push(
        "failed_frac",
        Summary::one(res.failed as f64 / res.attempted.max(1) as f64),
    );
    if let Some(first) = runs.first() {
        for (k, (name, _)) in first.sim.iter().enumerate() {
            res.push(name, per_run(&|r| r.sim[k].1));
        }
    }
    res
}

/// The traced run: every per-layer metric of `w`, and the spans.
pub fn trace(w: Workload, opt: &Options) -> (WorkloadResult, Vec<Span>) {
    let mut res = WorkloadResult::new(w);
    let cfg = w.config(opt.seed, opt.horizon());
    let (Some(a), Some(b)) = (
        res.attempt(workloads::run(&cfg)),
        res.attempt(workloads::run(&cfg)),
    ) else {
        return (res, Vec::new());
    };
    if let Err(e) = check_digest(w, opt, a.digest, &b) {
        res.fail(e);
    }
    let run_ns = median(&[a.wall_s, b.wall_s]) * 1e9;
    let frames = a.frames as f64;

    let mut tr = Tracer::new(true);
    tr.begin_run();
    let replayed = match (&cfg, &a.report) {
        (Config::Session(sc), Report::Session(report)) => {
            let replay = |tr: &mut Tracer| replay::replay_session(sc, report, tr);
            replay_traced(&mut tr, replay).and_then(|(totals, dts, overhead)| {
                tr.begin_run();
                replay::decompose_session(sc, &dts, &totals, &mut tr)?;
                Ok((totals, overhead))
            })
        }
        (Config::Fabric(fc), _) => {
            let replay = |tr: &mut Tracer| replay::replay_calibration(fc, tr).map(|t| (t, ()));
            replay_traced(&mut tr, replay).and_then(|(totals, _, overhead)| {
                tr.begin_run();
                replay::decompose_calibration(fc, &totals, &mut tr)?;
                Ok((totals, overhead))
            })
        }
        (Config::Session(_), Report::Fabric(_)) => unreachable!("a session config runs a session"),
    };
    let Some((totals, overhead_pct)) = res.attempt(replayed) else {
        return (res, tr.spans().to_vec());
    };
    // A fabric's set-up (calibration and admission) and its observer are
    // split off from outside: a shortest-horizon run, and the same
    // fabric with the observer off.
    let (mut setup_s, mut unobserved_s) = (None, None);
    if let Config::Fabric(fc) = &cfg {
        setup_s = res
            .attempt(workloads::run(&w.config(opt.seed, Horizon::Setup)))
            .map(|r| r.wall_s);
        unobserved_s = match fc.observe {
            Some(_) => {
                let off = FabricConfig {
                    observe: None,
                    ..fc.clone()
                };
                res.attempt(workloads::run(&Config::Fabric(off)))
                    .map(|r| r.wall_s)
            }
            None => Some(a.wall_s - a.export_s),
        };
    }

    let layers = layer_totals(tr.spans());
    let layer = |name: &str| layers.get(name).copied().unwrap_or_default();
    let self_per_frame = |name: &str| layer(name).self_ns as f64 / totals.frames as f64;
    let per_frame = |v: u64| v as f64 / totals.frames as f64;
    let replay_ns: u64 = replay::REPLAY_LAYERS.iter().map(|n| layer(n).self_ns).sum();
    let (decode, apply) = (layer(replay::DECODE), layer(replay::APPLY));
    let mut put = |name: &'static str, v: f64| res.push(name, Summary::one(v));
    put(
        "workload.tracegen.ns_per_frame",
        self_per_frame(replay::TRACEGEN),
    );
    put(
        "gles.serialize.ns_per_frame",
        self_per_frame(replay::SERIALIZE),
    );
    put("codec.lru.ns_per_frame", self_per_frame(replay::LRU));
    put("codec.lz4.ns_per_frame", self_per_frame(replay::LZ4));
    put("core.forward.ns_per_frame", self_per_frame(replay::FORWARD));
    let forward_alloc = layer(replay::FORWARD).alloc_bytes;
    put(
        "core.forward.alloc_bytes_per_frame",
        per_frame(forward_alloc),
    );
    put("codec.lru.hit_rate", totals.hit_rate());
    put("codec.lz4.ratio", totals.lz4_ratio());
    let wire_ratio = totals.wire_bytes as f64 / totals.raw_bytes as f64;
    put("core.forward.wire_ratio", wire_ratio);
    put(
        "core.service.decode_ns_per_frame",
        per_frame(decode.self_ns),
    );
    put("core.service.apply_ns_per_frame", per_frame(apply.self_ns));
    let service_alloc = decode.alloc_bytes + apply.alloc_bytes;
    put(
        "core.service.alloc_bytes_per_frame",
        per_frame(service_alloc),
    );
    put(
        "core.service.replicas_per_frame",
        per_frame(totals.replica_decodes),
    );
    put("trace.coverage", replay_ns as f64 / run_ns);
    put("trace.overhead_pct", overhead_pct);

    match &a.report {
        Report::Session(r) => {
            let loop_ns = run_ns - replay_ns as f64;
            put("core.engine.loop_ns_per_frame", loop_ns / frames);
            let redispatches = r.telemetry.counter(names::sched::REDISPATCHES);
            put("core.scheduler.redispatches", redispatches as f64);
            put("core.fabric.migrations", 0.0);
            put(
                "core.wrapper.intercept_ns_per_frame",
                self_per_frame(replay::INTERCEPT),
            );
            put(
                "core.transport.ns_per_frame",
                self_per_frame(replay::TRANSPORT),
            );
            let retx = r.telemetry.counter(names::net::RETRANSMITS) as f64;
            put("net.rudp.retx_per_frame", retx / frames);
            put(
                "core.scheduler.dispatch_ns",
                per_call(layer(replay::DISPATCH)),
            );
            put(
                "core.reference.ns_per_frame",
                self_per_frame(replay::REFERENCE),
            );
            for (metric, stage) in [
                ("sim.stage.uplink_ms", names::stage::UPLINK),
                ("sim.stage.dispatch_wait_ms", names::stage::DISPATCH_WAIT),
                ("sim.stage.render_ms", names::stage::RENDER),
                ("sim.stage.encode_ms", names::stage::ENCODE),
                ("sim.stage.downlink_ms", names::stage::DOWNLINK),
                ("sim.stage.display_wait_ms", names::stage::DISPLAY_WAIT),
            ] {
                let stage_ms = r.attribution.stage_micros(stage) as f64 / 1e3;
                put(metric, stage_ms / frames);
            }
        }
        Report::Fabric(r) => {
            let observed_s = a.wall_s - a.export_s;
            let setup_s = setup_s.unwrap_or(f64::NAN);
            let observer_s = unobserved_s.map_or(f64::NAN, |off| observed_s - off);
            put(
                "core.engine.loop_ns_per_frame",
                (observed_s - setup_s) * 1e9 / frames,
            );
            put("core.scheduler.redispatches", r.redispatches as f64);
            put("core.fabric.migrations", r.migrations.len() as f64);
            put("core.fabric.calibrate_s", setup_s);
            put("telemetry.observer_ns_per_frame", observer_s * 1e9 / frames);
            if let Some(sampler) = &r.sampler {
                put("telemetry.export_ms", a.export_s * 1e3);
                let offered = sampler.kept() + sampler.dropped();
                let keep_ratio = sampler.kept() as f64 / offered.max(1) as f64;
                put("telemetry.sampler.keep_ratio", keep_ratio);
            }
        }
    }
    (res, tr.spans().to_vec())
}

fn per_call(t: LayerTotal) -> f64 {
    t.self_ns as f64 / t.calls.max(1) as f64
}

/// Runs a replay with spans on, then alternates spans-off and spans-on
/// runs until about two seconds of replay have run. Returns the first
/// traced replay's outcome and the tracing overhead in percent, from the
/// fastest run of each kind (host noise only ever adds time).
fn replay_traced<T>(
    tr: &mut Tracer,
    replay: impl Fn(&mut Tracer) -> Result<(ReplayTotals, T), String>,
) -> Result<(ReplayTotals, T, f64), String> {
    let timed = |tr: &mut Tracer| {
        let start = Instant::now();
        replay(tr).map(|out| (out, start.elapsed().as_secs_f64()))
    };
    let ((totals, extra), mut on) = timed(tr)?;
    let mut off = f64::INFINITY;
    let pairs = (1.0 / on).ceil().clamp(2.0, 20.0) as usize;
    for _ in 0..pairs {
        off = off.min(timed(&mut Tracer::new(false))?.1);
        on = on.min(timed(&mut Tracer::new(true))?.1);
    }
    Ok((totals, extra, (on - off) / off * 100.0))
}
