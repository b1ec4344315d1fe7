//! The traced run's replays: a workload's command stream pushed through
//! the public function of each layer, in the order the program's own
//! engine calls them, with a span around every call.
//!
//! * A session replays the frames `Session::run` produced. The finished
//!   report is the schedule: its frame spans give each frame's uplink
//!   start, downlink start and vsync instant, which fix the order frames
//!   retire in and the frame window the trace generator saw. The replay
//!   then checks its own totals (frames, uplink wire bytes, replica
//!   state) against the report.
//! * A fabric replays the per-title calibration the session manager runs
//!   before admission: each distinct title's setup stream and first
//!   frames through the forwarder and one service replica. The fabric's
//!   report carries nothing the calibration alone decides, so this replay
//!   is unchecked: it mirrors the fabric's calibration constants below,
//!   and a change to them there goes unseen here.
//!
//! A second, untimed-generation pass over the same frames splits the
//! forward path into its serialize, LRU and LZ4 steps. Its cache hits and
//! LZ4 input bytes must equal the forwarder's own.

use gbooster::codec::lru::{CacheToken, CommandCache};
use gbooster::codec::lz4;
use gbooster::core::config::{ExecutionMode, SessionConfig};
use gbooster::core::fabric::FabricConfig;
use gbooster::core::forward::{CommandForwarder, ForwardedFrame, ServiceReceiver, CACHE_CAPACITY};
use gbooster::core::scheduler::{Dispatcher, ReorderBuffer, ServiceNode};
use gbooster::core::service::ServiceRuntime;
use gbooster::core::transport::TransportManager;
use gbooster::core::wrapper::Interceptor;
use gbooster::core::SessionReport;
use gbooster::gles::command::{ClientMemory, GlCommand};
use gbooster::gles::serialize::{encode_command, DeferredResolver};
use gbooster::gles::state::GlContext;
use gbooster::sim::device::DeviceSpec;
use gbooster::sim::rng::derived;
use gbooster::sim::time::{SimDuration, SimTime};
use gbooster::telemetry::names;
use gbooster::telemetry::TraceContext;
use gbooster::workload::games::GameTitle;
use gbooster::workload::tracegen::TraceGenerator;
use rand::Rng;

use crate::trace::Tracer;

/// Span names of the replayed layer calls. Their self times, summed,
/// are what `trace.coverage` compares with the program's own run.
pub const REPLAY_LAYERS: [&str; 11] = [
    TRACEGEN, INTERCEPT, FORWARD, TRANSPORT, DISPATCH, COMPLETE, REORDER, DECODE, APPLY, REFERENCE,
    SNAPSHOT,
];

pub const TRACEGEN: &str = "workload.tracegen";
pub const INTERCEPT: &str = "core.wrapper.intercept";
pub const FORWARD: &str = "core.forward";
pub const TRANSPORT: &str = "core.transport";
pub const DISPATCH: &str = "core.scheduler.dispatch";
pub const COMPLETE: &str = "core.scheduler.complete";
pub const REORDER: &str = "core.scheduler.reorder";
pub const DECODE: &str = "core.service.decode";
pub const APPLY: &str = "core.service.apply";
pub const REFERENCE: &str = "core.reference.ingest";
pub const SNAPSHOT: &str = "core.service.snapshot";
pub const SERIALIZE: &str = "gles.serialize";
/// Parent spans grouping one frame's issue, one retirement, or one
/// calibrated title; their self time is the replay's own bookkeeping.
const ISSUE: &str = "replay.issue";
const RETIRE: &str = "replay.retire";
const TITLE: &str = "replay.title";
pub const LRU: &str = "codec.lru";
pub const LZ4: &str = "codec.lz4";

/// Mirrors `LAN_RTT` in the session engine and the fabric.
const LAN_RTT: SimDuration = SimDuration::from_millis(2);
/// Mirrors `CALIB_FRAMES` in the fabric: frames calibrated per title.
const CALIB_FRAMES: usize = 48;
/// Mirrors the fabric's calibration frame window.
const CALIB_DT: f64 = 1.0 / 30.0;

/// What one replay did, for the per-layer ratios and the totals check.
/// The forward-path figures are the forwarder's own accounting of every
/// frame it forwarded, setup streams included.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ReplayTotals {
    /// Frames replayed (setup streams excluded).
    pub frames: u64,
    /// Serialized command bytes before caching and compression.
    pub raw_bytes: u64,
    /// LRU cache hits.
    pub cache_hits: u64,
    /// LRU cache misses.
    pub cache_misses: u64,
    /// Cache-token bytes fed to LZ4.
    pub token_bytes: u64,
    /// Bytes LZ4 produced.
    pub lz4_bytes: u64,
    /// Wire bytes after caching and LZ4.
    pub wire_bytes: u64,
    /// Frames decoded by service replicas (setup streams excluded).
    pub replica_decodes: u64,
}

impl ReplayTotals {
    fn add_forwarded(&mut self, fwd: &ForwardedFrame) {
        self.raw_bytes += fwd.raw_bytes as u64;
        self.cache_hits += fwd.cache_hits;
        self.cache_misses += fwd.cache_misses;
        self.token_bytes += fwd.token_bytes as u64;
        self.lz4_bytes += fwd.lz4.output_bytes;
        self.wire_bytes += fwd.wire.len() as u64;
    }

    /// LRU hits per offer.
    pub fn hit_rate(&self) -> f64 {
        self.cache_hits as f64 / (self.cache_hits + self.cache_misses).max(1) as f64
    }

    /// LZ4 output bytes per input byte (lower is better).
    pub fn lz4_ratio(&self) -> f64 {
        self.lz4_bytes as f64 / self.token_bytes.max(1) as f64
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// When each frame retired and presented, read from a finished report.
struct FrameSchedule {
    /// Uplink start: the frame's phone-side work is done.
    app_done: SimTime,
    /// Downlink start: the engine retires frames in this order.
    down_start: SimTime,
    /// Vsync instant the frame was shown at.
    shown: SimTime,
}

fn schedule(report: &SessionReport) -> Result<Vec<FrameSchedule>, String> {
    report
        .trace
        .frames()
        .iter()
        .map(|f| {
            let stage = |name: &str| {
                f.root
                    .child(name)
                    .ok_or_else(|| format!("frame {} has no {name} span to replay", f.seq))
            };
            Ok(FrameSchedule {
                app_done: stage(names::stage::UPLINK)?.start,
                down_start: stage(names::stage::DOWNLINK)?.start,
                shown: stage(names::stage::DISPLAY_WAIT)?.end,
            })
        })
        .collect()
}

/// A frame issued by the replay and not yet retired.
struct Pending {
    seq: u64,
    down_start: SimTime,
    node: usize,
    down_bytes: usize,
}

/// The replay's copy of the engine's pipeline components.
struct SessionReplay<'a> {
    sched: &'a [FrameSchedule],
    session_id: u64,
    frame_pixels: u64,
    texture_count: u32,
    gen: TraceGenerator,
    interceptor: Interceptor,
    forwarder: CommandForwarder,
    runtimes: Vec<ServiceRuntime>,
    dispatcher: Dispatcher,
    transport: TransportManager,
    reference_rx: ServiceReceiver,
    reference_ctx: GlContext,
    pending: Vec<Pending>,
    arrived: ReorderBuffer<u64>,
    presented: u64,
    last_shown: SimTime,
    dt_est: f64,
    /// The frame window each frame was generated with.
    dts: Vec<f64>,
    totals: ReplayTotals,
}

impl SessionReplay<'_> {
    fn forward(&mut self, tr: &mut Tracer, commands: &[GlCommand]) -> Result<Vec<u8>, String> {
        let (forwarder, mem) = (&mut self.forwarder, self.gen.client_memory());
        let fwd = tr
            .span(FORWARD, || forwarder.forward_frame(commands, mem))
            .map_err(err)?;
        self.totals.add_forwarded(&fwd);
        Ok(fwd.wire)
    }

    /// Ships a wire frame to every replica (the dispatch target also
    /// executes its draws) and to the phone-side reference state.
    fn replicate(
        &mut self,
        tr: &mut Tracer,
        wire: &[u8],
        target: Option<usize>,
    ) -> Result<(), String> {
        for (j, rt) in self.runtimes.iter_mut().enumerate() {
            let cmds = tr.span(DECODE, || rt.decode(wire)).map_err(err)?;
            self.totals.replica_decodes += u64::from(target.is_some());
            tr.span(APPLY, || {
                if target == Some(j) {
                    rt.apply_frame_validated(&cmds, true)
                } else {
                    rt.apply_frame(&cmds, false)
                }
            })
            .map_err(err)?;
        }
        let (rx, ctx) = (&mut self.reference_rx, &mut self.reference_ctx);
        tr.span(REFERENCE, || -> Result<(), String> {
            for cmd in &rx.receive(wire).map_err(err)? {
                if cmd.is_state_mutating() {
                    ctx.apply(cmd).map_err(err)?;
                }
            }
            Ok(())
        })
    }

    fn issue(&mut self, tr: &mut Tracer, seq: u64) -> Result<(), String> {
        let (gen, dt) = (&mut self.gen, self.dt_est);
        let frame = tr.span(TRACEGEN, || gen.next_frame(dt));
        self.dts.push(dt);
        let interceptor = &mut self.interceptor;
        tr.span(INTERCEPT, || {
            for cmd in &frame.commands {
                interceptor.intercept(cmd);
            }
        });
        let wire = self.forward(tr, &frame.commands)?;
        let textures = self.texture_count + if frame.scene_change { 2 } else { 0 };
        let at = &self.sched[seq as usize];
        let transport = &mut self.transport;
        let ctx = TraceContext::new(self.session_id, seq, 1);
        let up = tr.span(TRANSPORT, || {
            transport.on_frame(frame.touches, textures);
            let up = transport.send(wire.len(), at.app_done);
            transport.begin_frame_transfer(ctx);
            up
        });
        let changed_px = (frame.changed_pixel_ratio * self.frame_pixels as f64).round() as u64;
        let encode = self.runtimes[0].encode_time(self.frame_pixels, changed_px);
        let (dispatcher, sid) = (&mut self.dispatcher, self.session_id);
        let decision = tr.span(DISPATCH, || {
            dispatcher.dispatch_for(sid, seq, frame.effective_fill, encode, up.delivered_at)
        });
        self.replicate(tr, &wire, Some(decision.node))?;
        self.pending.push(Pending {
            seq,
            down_start: at.down_start,
            node: decision.node,
            down_bytes: self.runtimes[0].encoded_bytes(changed_px),
        });
        self.totals.frames += 1;
        Ok(())
    }

    /// Retires the pending frame whose downlink starts first and
    /// presents every frame the reorder buffer releases.
    fn retire_one(&mut self, tr: &mut Tracer) {
        tr.enter(RETIRE);
        let idx = (0..self.pending.len())
            .min_by_key(|&i| (self.pending[i].down_start, self.pending[i].seq))
            .expect("retire with no frames in flight");
        let p = self.pending.swap_remove(idx);
        let transport = &mut self.transport;
        tr.span(TRANSPORT, || transport.recv(p.down_bytes, p.down_start));
        let (dispatcher, sid) = (&mut self.dispatcher, self.session_id);
        tr.span(COMPLETE, || dispatcher.complete_for(p.node, sid, p.seq));
        let arrived = &mut self.arrived;
        let ready = tr.span(REORDER, || {
            arrived.insert(p.seq, p.seq);
            arrived.pop_ready()
        });
        for seq in ready {
            let transport = &mut self.transport;
            tr.span(TRANSPORT, || transport.end_frame_transfer(seq));
            // The engine's frame-window estimate, updated per shown frame.
            let shown = self.sched[seq as usize].shown;
            let interval = (shown - self.last_shown).as_secs_f64();
            if interval > 0.0 {
                self.dt_est = 0.9 * self.dt_est + 0.1 * interval;
            }
            self.last_shown = self.last_shown.max(shown);
            self.presented += 1;
        }
        tr.exit();
    }
}

/// Replays an offloaded session's frames through the layers, in engine
/// order, and checks the replay against the report `Session::run` gave.
/// Returns the totals and the frame window of every replayed frame.
///
/// # Errors
///
/// A config that is not offloaded, a report with frames the replay
/// cannot schedule, a layer error, or a totals mismatch.
pub fn replay_session(
    cfg: &SessionConfig,
    report: &SessionReport,
    tr: &mut Tracer,
) -> Result<(ReplayTotals, Vec<f64>), String> {
    let ExecutionMode::Offloaded(off) = &cfg.mode else {
        return Err("only offloaded sessions replay".into());
    };
    let sched = schedule(report)?;
    let (w, h) = off.render_resolution;
    let mut transport = TransportManager::new(
        off.interface_switching,
        SimDuration::from_millis(cfg.predictor_window_ms),
    );
    transport.set_loss_scale(off.loss_scale);
    transport
        .set_true_clock_offset_us(derived(cfg.seed, "clock-skew").gen_range(-150_000i64..=150_000));
    let mut r = SessionReplay {
        sched: &sched,
        session_id: cfg.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1,
        frame_pixels: w as u64 * h as u64,
        texture_count: cfg.workload.profile.texture_count,
        gen: TraceGenerator::new(
            cfg.workload.profile.clone(),
            cfg.workload.intensity,
            w,
            h,
            cfg.seed,
        ),
        interceptor: Interceptor::install(),
        forwarder: CommandForwarder::new(),
        runtimes: off
            .service_devices
            .iter()
            .map(|spec| ServiceRuntime::new(spec.clone()))
            .collect(),
        dispatcher: Dispatcher::new(
            off.service_devices
                .iter()
                .map(|spec| ServiceNode::new(spec.clone(), LAN_RTT))
                .collect(),
        ),
        transport,
        reference_rx: ServiceReceiver::new(),
        reference_ctx: GlContext::new(),
        pending: Vec::new(),
        arrived: ReorderBuffer::new(),
        presented: 0,
        last_shown: SimTime::ZERO,
        dt_est: 1.0 / 30.0,
        dts: Vec::with_capacity(sched.len()),
        totals: ReplayTotals::default(),
    };
    r.interceptor.verify_coverage().map_err(err)?;

    // The setup stream: pure state, replicated everywhere.
    let gen = &mut r.gen;
    let setup = tr.span(TRACEGEN, || gen.setup_trace());
    let interceptor = &mut r.interceptor;
    tr.span(INTERCEPT, || {
        for cmd in &setup.commands {
            interceptor.intercept(cmd);
        }
    });
    let wire = r.forward(tr, &setup.commands)?;
    let transport = &mut r.transport;
    tr.span(TRANSPORT, || transport.send(wire.len(), SimTime::ZERO));
    r.replicate(tr, &wire, None)?;

    // The engine's two run-ahead windows decide how many frames have
    // presented (and so which frame window the generator sees) before
    // each frame issues.
    let bd = off.buffer_depth as u64;
    let wi = off.max_inflight as u64;
    for seq in 0..sched.len() as u64 {
        for window in [bd, wi] {
            if seq >= window {
                while r.presented < seq - window + 1 {
                    r.retire_one(tr);
                }
            }
        }
        tr.enter(ISSUE);
        let issued = r.issue(tr, seq);
        tr.exit();
        issued?;
    }
    while !r.pending.is_empty() {
        r.retire_one(tr);
    }

    let t = &r.totals;
    let counter = |name| report.telemetry.counter(name);
    let replayed = [
        r.presented,
        t.cache_hits,
        t.cache_misses,
        t.token_bytes,
        t.wire_bytes,
    ];
    let reported = [
        report.frames,
        counter(names::forward::CACHE_HITS),
        counter(names::forward::CACHE_MISSES),
        counter(names::forward::TOKEN_BYTES),
        counter(names::forward::WIRE_BYTES),
    ];
    if replayed != reported {
        return Err(format!(
            "replay diverged from Session::run: frames, cache hits, cache misses, \
             token bytes, wire bytes {replayed:?} vs {reported:?}"
        ));
    }
    let digest = r.reference_ctx.digest();
    if r.runtimes.iter().any(|rt| rt.state_digest() != digest) {
        return Err("replayed replicas disagree with the phone-side reference".into());
    }
    Ok((r.totals, r.dts))
}

/// The distinct titles of a fabric, in the order it calibrates them.
fn fabric_titles(cfg: &FabricConfig) -> Vec<GameTitle> {
    let mut titles: Vec<GameTitle> = Vec::new();
    for t in &cfg.tenants {
        if !titles.iter().any(|seen| seen.id == t.title.id) {
            titles.push(t.title.clone());
        }
    }
    titles
}

/// The generator the fabric calibrates `title` with.
fn calibration_generator(cfg: &FabricConfig, title: &GameTitle) -> TraceGenerator {
    let (w, h) = cfg.resolution;
    let seed = derived(cfg.seed, &format!("fabric-calib-{}", title.id)).gen::<u64>();
    TraceGenerator::new(title.profile(), title.intensity, w, h, seed)
}

/// Replays the fabric's per-title calibration: each title's setup
/// stream and [`CALIB_FRAMES`] frames through a forwarder and one
/// service replica, ending with the warm-state snapshots a migration
/// ships.
///
/// # Errors
///
/// Any layer error.
pub fn replay_calibration(cfg: &FabricConfig, tr: &mut Tracer) -> Result<ReplayTotals, String> {
    let mut totals = ReplayTotals::default();
    for title in fabric_titles(cfg) {
        tr.enter(TITLE);
        let calibrated = calibrate_title(cfg, &title, tr, &mut totals);
        tr.exit();
        calibrated?;
    }
    Ok(totals)
}

fn calibrate_title(
    cfg: &FabricConfig,
    title: &GameTitle,
    tr: &mut Tracer,
    totals: &mut ReplayTotals,
) -> Result<(), String> {
    let mut gen = calibration_generator(cfg, title);
    let mut fw = CommandForwarder::new();
    let mut rt = ServiceRuntime::new(DeviceSpec::nvidia_shield());
    let mut setup_snapshot = None;
    for i in 0..=CALIB_FRAMES {
        let frame = tr.span(TRACEGEN, || {
            if i == 0 {
                gen.setup_trace()
            } else {
                gen.next_frame(CALIB_DT)
            }
        });
        let mem = gen.client_memory();
        let fwd = tr
            .span(FORWARD, || fw.forward_frame(&frame.commands, mem))
            .map_err(err)?;
        let cmds = tr.span(DECODE, || rt.decode(&fwd.wire)).map_err(err)?;
        tr.span(APPLY, || rt.apply_frame(&cmds, true))
            .map_err(err)?;
        totals.add_forwarded(&fwd);
        if i == 0 {
            setup_snapshot = Some(tr.span(SNAPSHOT, || rt.context().snapshot()));
        } else {
            totals.frames += 1;
            totals.replica_decodes += 1;
        }
    }
    let setup_snapshot = setup_snapshot.expect("the setup stream ran first");
    let bytes = tr.span(SNAPSHOT, || {
        let warm = rt.context().snapshot();
        (warm.wire_bytes(), warm.delta_wire_bytes(&setup_snapshot))
    });
    std::hint::black_box(bytes);
    Ok(())
}

/// The forward path one step at a time, on a private resolver and cache
/// that see exactly what the forwarder saw.
struct Decomposer {
    resolver: DeferredResolver,
    cache: CommandCache,
    /// Token-stream bytes fed to LZ4.
    token_bytes: u64,
}

impl Decomposer {
    fn new() -> Self {
        Decomposer {
            resolver: DeferredResolver::new(),
            cache: CommandCache::new(CACHE_CAPACITY),
            token_bytes: 0,
        }
    }

    fn frame(
        &mut self,
        tr: &mut Tracer,
        commands: &[GlCommand],
        mem: &ClientMemory,
    ) -> Result<(), String> {
        let resolver = &mut self.resolver;
        let encoded = tr.span(SERIALIZE, || -> Result<Vec<Vec<u8>>, String> {
            let mut encoded = Vec::new();
            for cmd in commands {
                for resolved in resolver.push(cmd.clone(), mem).map_err(err)? {
                    let mut bytes = Vec::new();
                    encode_command(&resolved, &mut bytes).map_err(err)?;
                    encoded.push(bytes);
                }
            }
            Ok(encoded)
        })?;
        let cache = &mut self.cache;
        let tokens = tr.span(LRU, || {
            let mut tokens = Vec::new();
            for bytes in &encoded {
                match cache.offer(bytes) {
                    CacheToken::Ref(key) => {
                        tokens.push(0x00);
                        tokens.extend_from_slice(&key.to_le_bytes());
                    }
                    CacheToken::Full(body) => {
                        tokens.push(0x01);
                        tokens.extend_from_slice(&(body.len() as u32).to_le_bytes());
                        tokens.extend_from_slice(&body);
                    }
                }
            }
            tokens
        });
        std::hint::black_box(tr.span(LZ4, || lz4::compress(&tokens)));
        self.token_bytes += tokens.len() as u64;
        Ok(())
    }
}

/// Fails unless the decomposition pass's cache hits and LZ4 input bytes
/// equal the forwarder's: the pass copies the forwarder's token format,
/// and a drift in that format must not go unseen.
fn check_decomposition(hits: u64, token_bytes: u64, totals: &ReplayTotals) -> Result<(), String> {
    if (hits, token_bytes) != (totals.cache_hits, totals.token_bytes) {
        return Err(format!(
            "decomposition pass diverged from the forwarder: {hits} cache hits / \
             {token_bytes} token bytes vs {} / {}",
            totals.cache_hits, totals.token_bytes
        ));
    }
    Ok(())
}

/// Regenerates a replayed session's frames (untimed), runs the
/// decomposition pass over them, and checks it against the replay's
/// totals.
///
/// # Errors
///
/// Any layer error, or a pass that diverged from the forwarder.
pub fn decompose_session(
    cfg: &SessionConfig,
    dts: &[f64],
    totals: &ReplayTotals,
    tr: &mut Tracer,
) -> Result<(), String> {
    let ExecutionMode::Offloaded(off) = &cfg.mode else {
        return Err("only offloaded sessions replay".into());
    };
    let (w, h) = off.render_resolution;
    let profile = cfg.workload.profile.clone();
    let mut gen = TraceGenerator::new(profile, cfg.workload.intensity, w, h, cfg.seed);
    let mut d = Decomposer::new();
    let setup = gen.setup_trace();
    d.frame(tr, &setup.commands, gen.client_memory())?;
    for &dt in dts {
        let frame = gen.next_frame(dt);
        d.frame(tr, &frame.commands, gen.client_memory())?;
    }
    check_decomposition(d.cache.hits(), d.token_bytes, totals)
}

/// Regenerates a fabric's calibration frames (untimed), runs the
/// decomposition pass over them, and checks it against the replay's
/// totals.
///
/// # Errors
///
/// Any layer error, or a pass that diverged from the forwarder.
pub fn decompose_calibration(
    cfg: &FabricConfig,
    totals: &ReplayTotals,
    tr: &mut Tracer,
) -> Result<(), String> {
    let (mut hits, mut token_bytes) = (0, 0);
    for title in fabric_titles(cfg) {
        let mut gen = calibration_generator(cfg, &title);
        let mut d = Decomposer::new();
        let setup = gen.setup_trace();
        d.frame(tr, &setup.commands, gen.client_memory())?;
        for _ in 0..CALIB_FRAMES {
            let frame = gen.next_frame(CALIB_DT);
            d.frame(tr, &frame.commands, gen.client_memory())?;
        }
        hits += d.cache.hits();
        token_bytes += d.token_bytes;
    }
    check_decomposition(hits, token_bytes, totals)
}
