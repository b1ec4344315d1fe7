//! Self-baselining bench runs: deterministic multi-seed metric
//! collection, committed JSON baselines (`BENCH_fig5.json`,
//! `BENCH_traffic.json`), and the statistical regression gate that
//! `benchdiff` applies between a fresh run and the committed baseline.
//!
//! Every metric carries its improvement direction and a configured
//! relative tolerance. A fresh run regresses a metric when its
//! sign-adjusted mean delta exceeds the tolerance *and* the shift is
//! statistically supported — either Welch's t-test rejects equal means
//! at 95 %, or every per-seed paired delta exceeds the tolerance (the
//! deterministic-replay case, where identical seeds make any consistent
//! shift a real change rather than noise).

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use gbooster_codec::stats::megapixels_per_sec;
use gbooster_core::config::{ExecutionMode, OffloadConfig, SessionConfig};
use gbooster_core::forward::CommandForwarder;
use gbooster_core::session::{Session, SessionReport};
use gbooster_gles::serialize::encode_stream;
use gbooster_net::channel::ChannelModel;
use gbooster_net::rudp::{simulate_transfer, RudpConfig};
use gbooster_sim::device::DeviceSpec;
use gbooster_sim::rng::derived;
use gbooster_telemetry::json::{self, JsonValue};
use gbooster_telemetry::{names, AttributionLog, AttributionSnapshot, Exemplar, Registry};
use gbooster_workload::games::GameTitle;
use gbooster_workload::genre::GenreProfile;
use gbooster_workload::tracegen::TraceGenerator;
use rand::Rng;

use crate::stats::{ci95, mean, stddev, welch};
use crate::{session_secs, smoke, SEED};

/// The seeds every baseline run uses, in order. Three deterministic
/// replays give a (small) sample per metric; the paired per-seed
/// comparison in [`compare_runs`] is what makes n = 3 powerful.
#[must_use]
pub fn baseline_seeds() -> [u64; 3] {
    [SEED, SEED + 1, SEED + 2]
}

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Larger values are better (FPS, cache hit rate, codec ratio).
    HigherIsBetter,
    /// Smaller values are better (latency, bytes, energy).
    LowerIsBetter,
}

impl Direction {
    /// The serialized tag in baseline JSON.
    #[must_use]
    pub fn tag(self) -> &'static str {
        match self {
            Direction::HigherIsBetter => "higher",
            Direction::LowerIsBetter => "lower",
        }
    }

    /// Parses the serialized tag.
    ///
    /// # Errors
    ///
    /// Returns an error for an unknown tag.
    pub fn from_tag(tag: &str) -> Result<Self, String> {
        match tag {
            "higher" => Ok(Direction::HigherIsBetter),
            "lower" => Ok(Direction::LowerIsBetter),
            other => Err(format!("unknown direction tag {other:?}")),
        }
    }
}

/// Static definition of one gated metric.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Metric name as it appears in the baseline JSON.
    pub name: &'static str,
    /// Which way the metric improves.
    pub direction: Direction,
    /// Relative tolerance before a shift counts as a regression.
    pub tolerance: f64,
    /// False for wall-clock metrics (host-dependent, recorded but never
    /// gated — e.g. Turbo megapixels per second).
    pub gated: bool,
    /// True for latency-direction metrics, which the injected-regression
    /// self-test skews via `GBOOSTER_BENCH_INJECT_LATENCY_PCT`.
    pub latency: bool,
}

/// Metric definitions for the `fig5` (end-to-end acceleration) bench.
pub const FIG5_METRICS: &[MetricDef] = &[
    MetricDef {
        name: "local_fps",
        direction: Direction::HigherIsBetter,
        tolerance: 0.05,
        gated: true,
        latency: false,
    },
    MetricDef {
        name: "offloaded_fps",
        direction: Direction::HigherIsBetter,
        tolerance: 0.05,
        gated: true,
        latency: false,
    },
    MetricDef {
        name: "response_time_ms",
        direction: Direction::LowerIsBetter,
        tolerance: 0.05,
        gated: true,
        latency: true,
    },
    MetricDef {
        name: "mean_tp_ms",
        direction: Direction::LowerIsBetter,
        tolerance: 0.10,
        gated: true,
        latency: true,
    },
    MetricDef {
        name: "stability",
        direction: Direction::HigherIsBetter,
        tolerance: 0.05,
        gated: true,
        latency: false,
    },
    MetricDef {
        name: "uplink_bytes",
        direction: Direction::LowerIsBetter,
        tolerance: 0.10,
        gated: true,
        latency: false,
    },
    MetricDef {
        name: "downlink_bytes",
        direction: Direction::LowerIsBetter,
        tolerance: 0.10,
        gated: true,
        latency: false,
    },
    MetricDef {
        name: "energy_j",
        direction: Direction::LowerIsBetter,
        tolerance: 0.10,
        gated: true,
        latency: false,
    },
    MetricDef {
        // Wall-clock speed of the simulator process itself. Gated
        // loosely: machine-to-machine variance passes, but a change
        // that makes the simulator >2x slower fails the gate.
        name: names::host::FRAMES_PER_SEC,
        direction: Direction::HigherIsBetter,
        tolerance: 0.50,
        gated: true,
        latency: false,
    },
    MetricDef {
        // Heap churn per displayed frame (non-zero only when the
        // counting allocator is compiled in via `host-prof`). Unlike
        // wall clock this is near-deterministic, so the tolerance is
        // tight enough to catch a 10 % rise in heap churn.
        name: names::host::ALLOC_BYTES_PER_FRAME,
        direction: Direction::LowerIsBetter,
        tolerance: 0.10,
        gated: true,
        latency: false,
    },
];

/// Metric definitions for the `traffic` (codec pipeline) bench.
pub const TRAFFIC_METRICS: &[MetricDef] = &[
    MetricDef {
        name: "lz4_ratio",
        direction: Direction::LowerIsBetter,
        tolerance: 0.05,
        gated: true,
        latency: false,
    },
    MetricDef {
        name: "pipeline_ratio",
        direction: Direction::LowerIsBetter,
        tolerance: 0.05,
        gated: true,
        latency: false,
    },
    MetricDef {
        name: "cache_hit_rate",
        direction: Direction::HigherIsBetter,
        tolerance: 0.05,
        gated: true,
        latency: false,
    },
    MetricDef {
        name: "turbo_ratio",
        direction: Direction::HigherIsBetter,
        tolerance: 0.10,
        gated: true,
        latency: false,
    },
    MetricDef {
        // Wall-clock throughput: recorded for trend visibility, never
        // gated — it tracks the host machine, not the code under test.
        name: "turbo_mpixels_per_sec",
        direction: Direction::HigherIsBetter,
        tolerance: 0.50,
        gated: false,
        latency: false,
    },
    MetricDef {
        name: "rudp_completion_ms",
        direction: Direction::LowerIsBetter,
        tolerance: 0.10,
        gated: true,
        latency: true,
    },
    MetricDef {
        // Wall-clock speed of one offloaded smoke session (see the
        // fig5 twin for the gating rationale).
        name: names::host::FRAMES_PER_SEC,
        direction: Direction::HigherIsBetter,
        tolerance: 0.50,
        gated: true,
        latency: false,
    },
    MetricDef {
        name: names::host::ALLOC_BYTES_PER_FRAME,
        direction: Direction::LowerIsBetter,
        tolerance: 0.10,
        gated: true,
        latency: false,
    },
    MetricDef {
        // Fabric scaling headroom: admitted sessions meeting their p99
        // SLO per pool node on the 64-session / 2-node ladder rung
        // (docs/FABRIC.md). Purely simulated time, so the tolerance
        // only absorbs admission/schedule changes, not host noise.
        name: names::fabric::SESSIONS_PER_NODE_AT_SLO,
        direction: Direction::HigherIsBetter,
        tolerance: 0.15,
        gated: true,
        latency: false,
    },
    MetricDef {
        // Presentation blackout across a forced drain-and-migrate of
        // the busiest node (docs/MIGRATION.md). Live migration overlaps
        // the transfer with continued dispatch, so this must stay 0;
        // the committed zero baseline makes the gate absolute — any
        // blackout at all fails.
        name: names::fabric::MIGRATION_BLACKOUT_MS,
        direction: Direction::LowerIsBetter,
        tolerance: 0.05,
        gated: true,
        latency: false,
    },
    MetricDef {
        // Wall-clock overhead of tail-sampled tracing over a
        // tracing-off fabric run, stored as the excess over the 5%
        // allowance (docs/OBSERVABILITY.md). The committed zero
        // baseline makes the gate absolute — the row only moves, and
        // the gate only trips, when tracing costs more than 5%;
        // ordinary host noise lands inside the allowance and stays 0.
        name: names::tracing::SAMPLING_OVERHEAD_PCT,
        direction: Direction::LowerIsBetter,
        tolerance: 0.05,
        gated: true,
        latency: false,
    },
];

/// The metric definitions for a named bench.
#[must_use]
pub fn metric_defs(bench: &str) -> &'static [MetricDef] {
    match bench {
        "fig5" => FIG5_METRICS,
        "traffic" => TRAFFIC_METRICS,
        other => panic!("unknown bench {other:?}"),
    }
}

/// One multi-seed collection: per-metric samples (one per seed, in seed
/// order) plus the first seed's attribution snapshot.
#[derive(Clone, Debug)]
pub struct BenchRun {
    /// Bench name (`fig5` or `traffic`).
    pub bench: String,
    /// The seeds, in sample order.
    pub seeds: Vec<u64>,
    /// Metric name → one sample per seed.
    pub samples: BTreeMap<String, Vec<f64>>,
    /// Attribution snapshot from the first seed's run: the explanation
    /// `benchdiff` prints when a metric regresses.
    pub attribution: AttributionSnapshot,
    /// Worst end-to-end frame latency exemplar from the first seed's
    /// offloaded run (`frame.total`): the frame seq `benchdiff` points
    /// at when a latency metric regresses.
    pub worst_frame: Option<Exemplar>,
}

/// Runs the named bench across [`baseline_seeds`].
#[must_use]
pub fn collect(bench: &str) -> BenchRun {
    let seeds = baseline_seeds();
    let mut samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut attribution = AttributionSnapshot::default();
    let mut worst_frame = None;
    for (i, &seed) in seeds.iter().enumerate() {
        let (metrics, attr, worst) = match bench {
            "fig5" => collect_fig5(seed),
            "traffic" => collect_traffic(seed),
            other => panic!("unknown bench {other:?}"),
        };
        if i == 0 {
            attribution = attr;
            worst_frame = worst;
        }
        for (name, v) in metrics {
            samples.entry(name.to_string()).or_default().push(v);
        }
    }
    BenchRun {
        bench: bench.to_string(),
        seeds: seeds.to_vec(),
        samples,
        attribution,
        worst_frame,
    }
}

/// The worst `frame.total` latency exemplar of one session.
fn total_latency_exemplar(report: &SessionReport) -> Option<Exemplar> {
    report
        .telemetry
        .histogram(names::stage::TOTAL)
        .and_then(|h| h.exemplar())
}

/// One seed of the `fig5` bench: G1 on the Nexus 5, local and offloaded.
fn collect_fig5(
    seed: u64,
) -> (
    Vec<(&'static str, f64)>,
    AttributionSnapshot,
    Option<Exemplar>,
) {
    let game = GameTitle::g1_gta_san_andreas();
    let device = DeviceSpec::nexus5();
    let local = Session::run(
        &SessionConfig::builder(game.clone(), device.clone())
            .duration_secs(session_secs())
            .seed(seed)
            .build(),
    );
    let off = Session::run(
        &SessionConfig::builder(game, device)
            .duration_secs(session_secs())
            .seed(seed)
            .mode(ExecutionMode::Offloaded(OffloadConfig::default()))
            .build(),
    );
    let mut metrics = vec![
        ("local_fps", local.median_fps),
        ("offloaded_fps", off.median_fps),
        ("response_time_ms", off.response_time_ms),
        ("mean_tp_ms", off.mean_tp_ms),
        ("stability", off.stability),
        ("uplink_bytes", off.uplink_bytes as f64),
        ("downlink_bytes", off.downlink_bytes as f64),
        ("energy_j", off.energy.total_joules()),
    ];
    metrics.extend(host_metrics(&off));
    let worst = total_latency_exemplar(&off);
    (metrics, off.attribution, worst)
}

/// One seed of the `traffic` bench: the codec pipeline in isolation —
/// LZ4 alone, cache + LZ4 through the real forwarder (with the uplink
/// attribution tap attached), the Turbo encoder (downlink tap), and one
/// reliable-UDP transfer.
fn collect_traffic(
    seed: u64,
) -> (
    Vec<(&'static str, f64)>,
    AttributionSnapshot,
    Option<Exemplar>,
) {
    use gbooster_codec::lz4;
    use gbooster_codec::turbo::TurboEncoder;

    let attr = AttributionLog::new();

    // LZ4 alone on the encoded command stream (no cache).
    let mut gen = TraceGenerator::new(GenreProfile::action(), 1.0, 1280, 720, seed);
    gen.setup_trace();
    let (mut total_raw, mut total_lz4) = (0usize, 0usize);
    for _ in 0..40 {
        let frame = gen.next_frame(1.0 / 30.0);
        let resolved: Vec<_> = frame
            .commands
            .iter()
            .filter(|c| !c.has_unresolved_pointer())
            .cloned()
            .collect();
        let encoded = encode_stream(&resolved).expect("resolved commands encode");
        total_raw += encoded.len();
        total_lz4 += lz4::compress(&encoded).len();
    }
    let lz4_ratio = total_lz4 as f64 / total_raw as f64;

    // The full uplink pipeline through the forwarder, attributed.
    let registry = Registry::new();
    let mut gen = TraceGenerator::new(GenreProfile::action(), 1.0, 1280, 720, seed);
    let mut fw = CommandForwarder::new();
    fw.attach_registry(&registry);
    fw.attach_attribution(attr.clone());
    let setup = gen.setup_trace();
    fw.forward_frame(&setup.commands, gen.client_memory())
        .expect("setup forwards");
    for _ in 0..40 {
        let frame = gen.next_frame(1.0 / 30.0);
        fw.forward_frame(&frame.commands, gen.client_memory())
            .expect("frame forwards");
    }
    let snap = registry.snapshot();
    let pipe_raw = snap.counter(names::forward::RAW_BYTES);
    let pipe_wire = snap.counter(names::forward::WIRE_BYTES);
    let pipeline_ratio = pipe_wire as f64 / pipe_raw as f64;
    let cache_hit_rate = snap.cache_hit_rate();

    // Turbo encoder on a moving scene, attributed by frame kind.
    let (tw, th) = (320u32, 240u32);
    let turbo_registry = Registry::new();
    let mut enc = TurboEncoder::new(tw, th, 80);
    enc.attach_registry(&turbo_registry);
    enc.attach_attribution(attr.clone());
    let mut rng = derived(seed, "turbo-bench");
    let mut frame_data = vec![40u8; (tw * th * 4) as usize];
    enc.encode(&frame_data);
    let keyframe_snap = turbo_registry.snapshot();
    let start = Instant::now();
    let mut pixels = 0u64;
    for step in 0..24u32 {
        for y in (step % 200)..(step % 200 + 32).min(th) {
            for x in (step * 7 % 280)..(step * 7 % 280 + 32).min(tw) {
                let i = ((y * tw + x) * 4) as usize;
                frame_data[i] = 250;
                frame_data[i + 1] = rng.gen();
            }
        }
        enc.encode(&frame_data);
        pixels += u64::from(tw * th);
    }
    let turbo_mps = megapixels_per_sec(pixels, start.elapsed());
    let turbo_snap = turbo_registry.snapshot();
    let raw_bytes = turbo_snap.counter(names::service::TURBO_RAW_BYTES)
        - keyframe_snap.counter(names::service::TURBO_RAW_BYTES);
    let encoded_bytes = turbo_snap.counter(names::service::TURBO_ENCODED_BYTES)
        - keyframe_snap.counter(names::service::TURBO_ENCODED_BYTES);
    let turbo_ratio = raw_bytes as f64 / encoded_bytes as f64;

    // One reliable-UDP command batch on a clean Wi-Fi channel.
    let mut ch = ChannelModel::wifi_80211n();
    ch.loss_rate = 0.0;
    let rudp = simulate_transfer(20_000, &ch, RudpConfig::default(), seed);

    // One offloaded session under the host profiler: the wall-clock and
    // allocation-rate rows the bench gate guards.
    let off = Session::run(
        &SessionConfig::builder(GameTitle::g1_gta_san_andreas(), DeviceSpec::nexus5())
            .duration_secs(session_secs())
            .seed(seed)
            .mode(ExecutionMode::Offloaded(OffloadConfig::default()))
            .build(),
    );
    // The fabric scaling rung: how many sessions one pool node can
    // host at SLO under the multi-tenant scheduler.
    let fabric = crate::run_fabric_rung(64, 2, seed);
    // The migration rung: drain the busiest node mid-run and measure
    // the presentation blackout across cutover (must stay zero).
    let drain = crate::run_fabric_drain_rung(seed);
    // The tracing-overhead rung: the drain scenario observe-on vs
    // observe-off, interleaved min-of-reps wall clock; only the excess
    // over the 5% allowance is recorded, so the row gates absolutely.
    let trace_overhead_excess = (crate::run_trace_overhead_rung(seed) - 5.0).max(0.0);

    let mut metrics = vec![
        ("lz4_ratio", lz4_ratio),
        ("pipeline_ratio", pipeline_ratio),
        ("cache_hit_rate", cache_hit_rate),
        ("turbo_ratio", turbo_ratio),
        ("turbo_mpixels_per_sec", turbo_mps),
        ("rudp_completion_ms", rudp.completion.as_millis_f64()),
        (
            names::fabric::SESSIONS_PER_NODE_AT_SLO,
            fabric.sessions_per_node_at_slo,
        ),
        (
            names::fabric::MIGRATION_BLACKOUT_MS,
            drain.migration_blackout_ms,
        ),
        (names::tracing::SAMPLING_OVERHEAD_PCT, trace_overhead_excess),
    ];
    metrics.extend(host_metrics(&off));
    let worst = total_latency_exemplar(&off);
    (metrics, attr.snapshot(), worst)
}

/// Host-time samples from one offloaded session's wall-clock profile.
///
/// `GBOOSTER_BENCH_INJECT_HOST_SPIN` (the gate self-test) is applied
/// here as a *real* perturbation — the process actually spins the CPU
/// and churns the heap in proportion to the session's frame count —
/// never as an arithmetic skew, so a passing self-test proves the gate
/// catches genuine slowdowns.
fn host_metrics(report: &SessionReport) -> Vec<(&'static str, f64)> {
    let prof = report
        .host_profile
        .as_ref()
        .expect("offloaded sessions carry a host profile");
    let frames = report.frames as f64;
    let mut wall = prof.wall_secs;
    let mut alloc_bytes = prof.total_alloc_bytes as f64;
    let spin_us = injected_host_spin_us();
    if spin_us > 0 && frames > 0.0 {
        // Double the session's own churn (floored well above any real
        // per-frame rate) and stretch the wall clock far past the 50 %
        // tolerance, whatever this machine's absolute speed.
        let per_frame = ((2.0 * alloc_bytes / frames) as usize).max(256 * 1024);
        let start = Instant::now();
        for _ in 0..report.frames {
            let buf = std::hint::black_box(vec![17u8; per_frame]);
            std::hint::black_box(buf.last().copied());
        }
        let target =
            Duration::from_secs_f64((frames * spin_us as f64 / 1e6).max((7.0 * wall).min(10.0)));
        while start.elapsed() < target {
            std::hint::black_box(0u64);
        }
        wall += start.elapsed().as_secs_f64();
        alloc_bytes += frames * per_frame as f64;
    }
    vec![
        (
            names::host::FRAMES_PER_SEC,
            if wall > 0.0 { frames / wall } else { 0.0 },
        ),
        (
            names::host::ALLOC_BYTES_PER_FRAME,
            if frames > 0.0 {
                alloc_bytes / frames
            } else {
                0.0
            },
        ),
    ]
}

/// The injected per-frame host spin in µs from
/// `GBOOSTER_BENCH_INJECT_HOST_SPIN` (0 when unset; a set-but-unparsable
/// value, e.g. `1`, still means a definite injection and uses 2000 µs).
#[must_use]
pub fn injected_host_spin_us() -> u64 {
    match std::env::var("GBOOSTER_BENCH_INJECT_HOST_SPIN") {
        Err(_) => 0,
        Ok(v) => v.parse().ok().filter(|&us| us >= 100).unwrap_or(2000),
    }
}

/// Applies the synthetic latency regression the gate self-test injects:
/// every latency-direction metric's samples and the attribution time
/// table are skewed by `pct` percent.
pub fn apply_latency_injection(run: &mut BenchRun, pct: f64) {
    let factor = 1.0 + pct / 100.0;
    let defs = metric_defs(&run.bench);
    for def in defs.iter().filter(|d| d.latency) {
        if let Some(samples) = run.samples.get_mut(def.name) {
            for v in samples {
                *v *= factor;
            }
        }
    }
    for cell in run.attribution.stages.values_mut() {
        cell.micros = (cell.micros as f64 * factor).round() as u64;
    }
}

/// The injection percentage from `GBOOSTER_BENCH_INJECT_LATENCY_PCT`
/// (0.0 when unset or unparsable).
#[must_use]
pub fn injected_latency_pct() -> f64 {
    std::env::var("GBOOSTER_BENCH_INJECT_LATENCY_PCT")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0)
}

/// Per-metric statistics as stored in a baseline file.
#[derive(Clone, Debug)]
pub struct MetricStats {
    /// Which way the metric improves.
    pub direction: Direction,
    /// Configured relative tolerance.
    pub tolerance: f64,
    /// Whether the gate applies to this metric.
    pub gated: bool,
    /// One sample per seed, in seed order.
    pub samples: Vec<f64>,
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation.
    pub sd: f64,
    /// Half-width of the 95 % confidence interval of the mean.
    pub ci95: f64,
}

/// A parsed (or freshly built) baseline file.
#[derive(Clone, Debug)]
pub struct Baseline {
    /// Bench name (`fig5` or `traffic`).
    pub bench: String,
    /// Whether the baseline was collected under smoke mode.
    pub smoke: bool,
    /// Session length the collection used.
    pub session_secs: u64,
    /// The seeds, in sample order.
    pub seeds: Vec<u64>,
    /// Metric name → statistics.
    pub metrics: BTreeMap<String, MetricStats>,
    /// First-seed attribution snapshot.
    pub attribution: AttributionSnapshot,
}

impl Baseline {
    /// Builds a baseline from a fresh collection run.
    #[must_use]
    pub fn from_run(run: &BenchRun) -> Self {
        let defs = metric_defs(&run.bench);
        let mut metrics = BTreeMap::new();
        for def in defs {
            let samples = run.samples.get(def.name).cloned().unwrap_or_default();
            metrics.insert(
                def.name.to_string(),
                MetricStats {
                    direction: def.direction,
                    tolerance: def.tolerance,
                    gated: def.gated,
                    mean: mean(&samples),
                    sd: stddev(&samples),
                    ci95: ci95(&samples),
                    samples,
                },
            );
        }
        Baseline {
            bench: run.bench.clone(),
            smoke: smoke(),
            session_secs: session_secs(),
            seeds: run.seeds.clone(),
            metrics,
            attribution: run.attribution.clone(),
        }
    }

    /// Serializes the baseline to its committed JSON form.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"bench\": \"{}\",\n", self.bench));
        out.push_str(&format!("  \"smoke\": {},\n", self.smoke));
        out.push_str(&format!("  \"session_secs\": {},\n", self.session_secs));
        let seeds: Vec<String> = self.seeds.iter().map(u64::to_string).collect();
        out.push_str(&format!("  \"seeds\": [{}],\n", seeds.join(", ")));
        out.push_str("  \"metrics\": {\n");
        for (i, (name, m)) in self.metrics.iter().enumerate() {
            let samples: Vec<String> = m.samples.iter().map(|v| fmt_f64(*v)).collect();
            out.push_str(&format!(
                "    \"{name}\": {{\"direction\": \"{}\", \"tolerance\": {}, \"gated\": {}, \
                 \"samples\": [{}], \"mean\": {}, \"sd\": {}, \"ci95\": {}}}{}\n",
                m.direction.tag(),
                fmt_f64(m.tolerance),
                m.gated,
                samples.join(", "),
                fmt_f64(m.mean),
                fmt_f64(m.sd),
                fmt_f64(m.ci95),
                if i + 1 < self.metrics.len() { "," } else { "" },
            ));
        }
        out.push_str("  },\n");
        out.push_str(&format!(
            "  \"attribution\": {}\n",
            self.attribution.to_json()
        ));
        out.push_str("}\n");
        out
    }

    /// Parses a baseline from its JSON form.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first structural problem.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = json::parse(text)?;
        let obj = v.as_obj().ok_or("baseline root is not an object")?;
        let bench = obj
            .get("bench")
            .and_then(JsonValue::as_str)
            .ok_or("missing bench")?
            .to_string();
        let smoke = matches!(obj.get("smoke"), Some(JsonValue::Bool(true)));
        let session_secs = obj
            .get("session_secs")
            .and_then(JsonValue::as_f64)
            .ok_or("missing session_secs")? as u64;
        let seeds = obj
            .get("seeds")
            .and_then(JsonValue::as_arr)
            .ok_or("missing seeds")?
            .iter()
            .map(|s| s.as_f64().map(|f| f as u64).ok_or("non-numeric seed"))
            .collect::<Result<Vec<_>, _>>()?;
        let mut metrics = BTreeMap::new();
        let metric_obj = obj
            .get("metrics")
            .and_then(JsonValue::as_obj)
            .ok_or("missing metrics")?;
        for (name, mv) in metric_obj {
            let m = mv.as_obj().ok_or("metric entry is not an object")?;
            let direction = Direction::from_tag(
                m.get("direction")
                    .and_then(JsonValue::as_str)
                    .ok_or("metric missing direction")?,
            )?;
            let tolerance = m
                .get("tolerance")
                .and_then(JsonValue::as_f64)
                .ok_or("metric missing tolerance")?;
            let gated = matches!(m.get("gated"), Some(JsonValue::Bool(true)));
            let samples = m
                .get("samples")
                .and_then(JsonValue::as_arr)
                .ok_or("metric missing samples")?
                .iter()
                .map(|s| s.as_f64().unwrap_or(f64::NAN))
                .collect::<Vec<_>>();
            metrics.insert(
                name.clone(),
                MetricStats {
                    direction,
                    tolerance,
                    gated,
                    mean: mean(&samples),
                    sd: stddev(&samples),
                    ci95: ci95(&samples),
                    samples,
                },
            );
        }
        let attribution = match obj.get("attribution") {
            Some(av) => AttributionSnapshot::from_json_value(av)?,
            None => AttributionSnapshot::default(),
        };
        Ok(Baseline {
            bench,
            smoke,
            session_secs,
            seeds,
            metrics,
            attribution,
        })
    }
}

/// Formats an `f64` so it round-trips through the JSON parser (`null`
/// for the non-finite values JSON cannot carry).
fn fmt_f64(v: f64) -> String {
    if !v.is_finite() {
        return "null".to_string();
    }
    let s = format!("{v}");
    // Bare integers re-parse fine, but keep the value visibly a float.
    if s.contains('.') || s.contains('e') || s.contains('E') {
        s
    } else {
        format!("{s}.0")
    }
}

/// One regressed metric from [`compare_runs`].
#[derive(Clone, Debug)]
pub struct Regression {
    /// The metric name.
    pub metric: String,
    /// Baseline mean.
    pub base_mean: f64,
    /// Fresh-run mean.
    pub fresh_mean: f64,
    /// Sign-adjusted relative delta (> 0 means worse).
    pub bad_delta: f64,
    /// Configured tolerance the delta exceeded.
    pub tolerance: f64,
    /// Welch t statistic of the two sample sets.
    pub welch_t: f64,
}

/// Compares a fresh run against a committed baseline and returns the
/// gated metrics that regressed. Improvements never fail the gate.
#[must_use]
pub fn compare_runs(base: &Baseline, fresh: &BenchRun) -> Vec<Regression> {
    let mut out = Vec::new();
    for (name, m) in &base.metrics {
        if !m.gated {
            continue;
        }
        let Some(fresh_samples) = fresh.samples.get(name) else {
            continue;
        };
        let base_mean = m.mean;
        if !base_mean.is_finite() {
            continue;
        }
        let fresh_mean = mean(fresh_samples);
        let sign = match m.direction {
            Direction::LowerIsBetter => 1.0,
            Direction::HigherIsBetter => -1.0,
        };
        if base_mean.abs() < 1e-12 {
            // A zero baseline carries no relative scale: the gate is
            // absolute. "Must stay zero" rows (blackout windows, error
            // counts) fail on any movement in the bad direction.
            let bad = sign * fresh_mean;
            if bad > 1e-9 {
                out.push(Regression {
                    metric: name.clone(),
                    base_mean,
                    fresh_mean,
                    bad_delta: bad,
                    tolerance: m.tolerance,
                    welch_t: f64::INFINITY,
                });
            }
            continue;
        }
        let bad_delta = sign * (fresh_mean - base_mean) / base_mean.abs();
        if bad_delta <= m.tolerance {
            continue;
        }
        // Tolerance exceeded: require statistical support. Welch covers
        // the noisy case; the paired per-seed check covers deterministic
        // replays, where a shift on every seed is a real change.
        let w = welch(&m.samples, fresh_samples);
        let paired_all_worse = m.samples.len() == fresh_samples.len()
            && m.samples
                .iter()
                .zip(fresh_samples)
                .all(|(b, f)| b.abs() > 1e-12 && sign * (f - b) / b.abs() > m.tolerance);
        if w.significant || paired_all_worse {
            out.push(Regression {
                metric: name.clone(),
                base_mean,
                fresh_mean,
                bad_delta,
                tolerance: m.tolerance,
                welch_t: w.t,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_run(bench: &str, values: &[(&str, [f64; 3])]) -> BenchRun {
        let mut samples = BTreeMap::new();
        for (name, vs) in values {
            samples.insert((*name).to_string(), vs.to_vec());
        }
        BenchRun {
            bench: bench.to_string(),
            seeds: baseline_seeds().to_vec(),
            samples,
            attribution: AttributionSnapshot::default(),
            worst_frame: None,
        }
    }

    #[test]
    fn baseline_json_round_trips() {
        let run = fake_run(
            "traffic",
            &[
                ("lz4_ratio", [0.70, 0.71, 0.69]),
                ("cache_hit_rate", [0.9, 0.91, 0.89]),
            ],
        );
        let base = Baseline::from_run(&run);
        let parsed = Baseline::from_json(&base.to_json()).expect("round trip parses");
        assert_eq!(parsed.bench, "traffic");
        assert_eq!(parsed.seeds, baseline_seeds().to_vec());
        let lz4 = &parsed.metrics["lz4_ratio"];
        assert_eq!(lz4.direction, Direction::LowerIsBetter);
        assert_eq!(lz4.samples, vec![0.70, 0.71, 0.69]);
        assert!((lz4.mean - 0.70).abs() < 1e-12);
    }

    #[test]
    fn identical_runs_pass_the_gate() {
        let run = fake_run("traffic", &[("lz4_ratio", [0.70, 0.71, 0.69])]);
        let base = Baseline::from_run(&run);
        assert!(compare_runs(&base, &run).is_empty());
    }

    #[test]
    fn consistent_regression_trips_the_gate() {
        let good = fake_run("traffic", &[("lz4_ratio", [0.70, 0.71, 0.69])]);
        let base = Baseline::from_run(&good);
        // 10% worse (larger) on every seed, against a 5% tolerance.
        let bad = fake_run("traffic", &[("lz4_ratio", [0.77, 0.781, 0.759])]);
        let regs = compare_runs(&base, &bad);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].metric, "lz4_ratio");
        assert!(regs[0].bad_delta > 0.05);
    }

    #[test]
    fn zero_mean_baselines_gate_on_absolute_movement() {
        let clean = fake_run(
            "traffic",
            &[("fabric.migration_blackout_ms", [0.0, 0.0, 0.0])],
        );
        let base = Baseline::from_run(&clean);
        assert!(compare_runs(&base, &clean).is_empty());
        // A relative delta is undefined against zero; the gate must
        // still catch any blackout at all.
        let bad = fake_run(
            "traffic",
            &[("fabric.migration_blackout_ms", [12.0, 0.0, 0.0])],
        );
        let regs = compare_runs(&base, &bad);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].metric, "fabric.migration_blackout_ms");
        assert!(regs[0].bad_delta > 0.0);
    }

    #[test]
    fn improvements_and_ungated_metrics_never_fail() {
        let good = fake_run(
            "traffic",
            &[
                ("lz4_ratio", [0.70, 0.71, 0.69]),
                ("turbo_mpixels_per_sec", [100.0, 100.0, 100.0]),
            ],
        );
        let base = Baseline::from_run(&good);
        let better = fake_run(
            "traffic",
            &[
                ("lz4_ratio", [0.50, 0.51, 0.49]),
                // Wall clock cratered — not gated, must not fail.
                ("turbo_mpixels_per_sec", [10.0, 10.0, 10.0]),
            ],
        );
        assert!(compare_runs(&base, &better).is_empty());
    }

    #[test]
    fn latency_injection_skews_metrics_and_time_table() {
        let mut run = fake_run("traffic", &[("rudp_completion_ms", [2.0, 2.0, 2.0])]);
        run.attribution.stages.insert(
            ("stage.uplink".into(), "phone".into(), "wifi".into()),
            gbooster_telemetry::attr::StageCell {
                micros: 1000,
                joules: 0.0,
                samples: 1,
            },
        );
        apply_latency_injection(&mut run, 10.0);
        assert_eq!(run.samples["rudp_completion_ms"], vec![2.2, 2.2, 2.2]);
        assert_eq!(run.attribution.stage_micros("stage.uplink"), 1100);
    }
}
