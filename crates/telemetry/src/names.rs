//! Canonical metric and span-stage names.
//!
//! Every instrumented crate registers under these constants so that the
//! bench binaries, the end-of-session report, and the tests all agree on
//! one vocabulary. Names are grouped by subsystem; histograms that
//! record durations do so in microseconds of sim time.
//!
//! The full schema is documented in `docs/OBSERVABILITY.md`.

/// Per-frame pipeline stage histograms (µs) and span names, in pipeline
/// order. The root span of every frame is [`FRAME`](stage::FRAME).
pub mod stage {
    /// Root span covering the frame's whole journey.
    pub const FRAME: &str = "frame";
    /// GL call interception and bookkeeping.
    pub const INTERCEPT: &str = "stage.intercept";
    /// Deferred pointer resolution + wire encoding.
    pub const RESOLVE: &str = "stage.resolve";
    /// LRU command-cache tokenization.
    pub const CACHE: &str = "stage.cache";
    /// LZ4 compression of the token stream.
    pub const LZ4: &str = "stage.lz4";
    /// Radio uplink (commands to the service device).
    pub const UPLINK: &str = "stage.uplink";
    /// Queueing at the chosen service node before rendering starts.
    pub const DISPATCH_WAIT: &str = "stage.dispatch_wait";
    /// Remote rasterization.
    pub const RENDER: &str = "stage.render";
    /// Turbo tile encoding (the non-overlapped tail).
    pub const ENCODE: &str = "stage.encode";
    /// Radio downlink (encoded frame back to the phone).
    pub const DOWNLINK: &str = "stage.downlink";
    /// Phone-side Turbo decode.
    pub const DECODE: &str = "stage.decode";
    /// Wait for the next vsync after decode completes.
    pub const DISPLAY_WAIT: &str = "stage.display_wait";
    /// Phone-GPU rasterization on the fallback path (not part of
    /// [`PIPELINE`]: fallback frames never cross the radio).
    pub const LOCAL_RENDER: &str = "stage.local_render";
    /// End-to-end frame latency histogram (µs).
    pub const TOTAL: &str = "frame.total";

    /// The child stages of every offloaded frame span, in order.
    pub const PIPELINE: [&str; 11] = [
        INTERCEPT,
        RESOLVE,
        CACHE,
        LZ4,
        UPLINK,
        DISPATCH_WAIT,
        RENDER,
        ENCODE,
        DOWNLINK,
        DECODE,
        DISPLAY_WAIT,
    ];
}

/// Service-device spans recorded remotely and stitched into the frame
/// tree (crates/core/src/service.rs → crates/telemetry/src/stitch.rs).
/// Timestamps originate on the service clock and are rebased onto the
/// user clock with the estimated offset before stitching.
pub mod remote {
    /// Subtree root grouping the service-side spans under the frame.
    pub const SUBTREE: &str = "remote";
    /// Eq. 4 queueing measured on the service device.
    pub const DISPATCH_WAIT: &str = "remote.dispatch_wait";
    /// GL command replay (rasterization) on the service GPU.
    pub const REPLAY: &str = "remote.replay";
    /// Turbo tile encoding measured on the service device.
    pub const ENCODE: &str = "remote.encode";
    /// Downlink send occupancy on the service radio.
    pub const DOWNLINK_SEND: &str = "remote.downlink_send";

    /// The service-side stages of every stitched frame, in order.
    pub const STAGES: [&str; 4] = [DISPATCH_WAIT, REPLAY, ENCODE, DOWNLINK_SEND];
}

/// Distributed-tracing plumbing (crates/telemetry/src/{context,remote,
/// stitch}.rs).
pub mod tracing {
    /// Estimated service−user clock offset in µs (gauge; may be
    /// negative).
    pub const CLOCK_OFFSET_US: &str = "trace.clock_offset_us";
    /// NTP-style offset samples folded into the estimate (counter).
    pub const CLOCK_SAMPLES: &str = "trace.clock_samples";
    /// Frames whose remote spans were fully stitched (counter).
    pub const STITCHED_FRAMES: &str = "trace.stitched_frames";
    /// Remote spans left unmatched after a session (counter).
    pub const ORPHAN_SPANS: &str = "trace.orphan_spans";
    /// Remote spans clamped into the frame root's bounds (counter).
    pub const CLAMPED_SPANS: &str = "trace.clamped_spans";
    /// Frame traces retained by the tail sampler (counter).
    pub const SAMPLED_KEPT: &str = "trace.sampled_kept";
    /// Frame traces discarded by the tail-sampling verdict (counter).
    pub const SAMPLED_DROPPED: &str = "trace.sampled_dropped";
    /// Kept traces evicted to enforce a per-tenant byte budget
    /// (counter).
    pub const BUDGET_EVICTIONS: &str = "trace.budget_evictions";
    /// Worst absolute per-node clock-offset estimate in ms (gauge; the
    /// per-node values ride as `{node="nNN"}`-labelled samples in the
    /// fabric exposition).
    pub const CLOCK_OFFSET_MS: &str = "trace.clock_offset_ms";
    /// Wall-clock overhead of sampled tracing over a tracing-off
    /// fabric run, in percent (bench row; must stay ≤ 5).
    pub const SAMPLING_OVERHEAD_PCT: &str = "trace.sampling_overhead_pct";
}

/// Embedded ring-buffer time-series database
/// (crates/telemetry/src/{tsdb,query}.rs). The fabric observer sets all
/// three gauges once, at the end of the run, just before the closing
/// scrape, so they leave out that scrape's points.
pub mod tsdb {
    /// Distinct series held (gauge).
    pub const SERIES: &str = "tsdb.series";
    /// Points ingested over the run (gauge).
    pub const SAMPLES: &str = "tsdb.samples";
    /// Points evicted by the fixed-slot rings (gauge).
    pub const POINTS_EVICTED: &str = "tsdb.points_evicted";
}

/// Fault-triggered flight recorder (crates/telemetry/src/flight.rs).
pub mod flight {
    /// Faults detected, whether or not a dump fired (counter).
    pub const FAULTS: &str = "flight.faults";
    /// Postmortem dumps emitted — the one-shot latch caps this at 1
    /// per recorder (counter).
    pub const DUMPS: &str = "flight.dumps";
}

/// Service-pool health monitor and local-render fallback
/// (crates/core/src/health.rs + crates/core/src/session.rs).
pub mod health {
    /// Service nodes currently Healthy (gauge).
    pub const POOL_SIZE: &str = "health.pool_size";
    /// Healthy → Suspect transitions observed (counter).
    pub const SUSPECT_TRANSITIONS: &str = "health.suspect_transitions";
    /// Suspect → Dead transitions observed (counter).
    pub const DEAD_TRANSITIONS: &str = "health.dead_transitions";
    /// Nodes re-admitted to the pool after a state resync (counter).
    pub const REJOINS: &str = "health.rejoins";
    /// Bytes shipped in one-shot rejoin resync transfers (counter).
    pub const RESYNC_BYTES: &str = "health.resync_bytes";
    /// Liveness probes issued (counter).
    pub const PROBES: &str = "health.probes";
    /// Probes that timed out against the adaptive deadline (counter).
    pub const PROBE_TIMEOUTS: &str = "health.probe_timeouts";
    /// Times the engine flipped SwapBuffers to local rendering (counter).
    pub const FALLBACK_ENGAGEMENTS: &str = "health.fallback_engagements";
    /// Accumulated seconds spent in the local-render fallback (gauge).
    pub const FALLBACK_SECS: &str = "health.fallback_secs";
    /// Node-seconds spent Healthy, summed across the pool (gauge).
    pub const HEALTHY_SECS: &str = "health.healthy_secs";
    /// Node-seconds spent Suspect, summed across the pool (gauge).
    pub const SUSPECT_SECS: &str = "health.suspect_secs";
    /// Node-seconds spent Dead, summed across the pool (gauge).
    pub const DEAD_SECS: &str = "health.dead_secs";
    /// Node-seconds spent Rejoining, summed across the pool (gauge).
    pub const REJOINING_SECS: &str = "health.rejoining_secs";
}

/// Live-ops layer: windowed metric streams, SLO alerting, anomaly
/// detection, and incident correlation (crates/telemetry/src/{slo,
/// alert,incident}.rs + crates/core/src/ops.rs).
pub mod ops {
    /// Presented-frame end-to-end latency stream (windowed, µs).
    pub const WIN_FRAME_LATENCY: &str = "win.frame_latency_us";
    /// Gap between consecutive presented frames (windowed, µs) — the
    /// stream behind the presented-fps objective.
    pub const WIN_FRAME_INTERVAL: &str = "win.frame_interval_us";
    /// Per-frame LRU miss ratio (windowed, permille).
    pub const WIN_CACHE_MISS: &str = "win.cache_miss_permille";
    /// WiFi energy drain rate between presents (windowed, milliwatts).
    pub const WIN_WIFI_POWER: &str = "win.wifi_power_mw";
    /// Bluetooth energy drain rate between presents (windowed,
    /// milliwatts).
    pub const WIN_BT_POWER: &str = "win.bt_power_mw";
    /// Structured ops events journaled (counter).
    pub const EVENTS: &str = "ops.events";
    /// Incidents opened (counter).
    pub const INCIDENTS: &str = "ops.incidents";
    /// Triggers correlated into an already-open incident (counter).
    pub const INCIDENTS_CORRELATED: &str = "ops.incidents_correlated";
    /// Alert firing episodes across all objectives (counter).
    pub const ALERTS_FIRED: &str = "ops.alerts_fired";
    /// Re-breaches deduped into an ongoing firing (counter).
    pub const ALERTS_DEDUPED: &str = "ops.alerts_deduped";
    /// Anomalies flagged across all detectors (counter).
    pub const ANOMALIES: &str = "ops.anomalies";
}

/// SLO objective (and alert) names (crates/telemetry/src/slo.rs).
pub mod slo {
    /// Frame end-to-end latency objective over
    /// [`super::ops::WIN_FRAME_LATENCY`].
    pub const FRAME_LATENCY: &str = "slo.frame_latency";
    /// Presented-fps objective, expressed over the inter-frame gap
    /// stream [`super::ops::WIN_FRAME_INTERVAL`].
    pub const PRESENTED_FPS: &str = "slo.presented_fps";
    /// Command-cache hit-rate objective, expressed over the miss-ratio
    /// stream [`super::ops::WIN_CACHE_MISS`].
    pub const CACHE_HIT: &str = "slo.cache_hit";
}

/// Per-interface radio gauges (crates/net/src/switch.rs). Time-in-state
/// is accumulated from the manager's idle ticks and transfer accounting.
pub mod iface {
    /// Seconds the WiFi radio has spent powered (waking/idle/active)
    /// (gauge).
    pub const WIFI_UP_SECS: &str = "iface.wifi.up_secs";
    /// Seconds the WiFi radio has spent powered off (gauge).
    pub const WIFI_OFF_SECS: &str = "iface.wifi.off_secs";
    /// Instantaneous WiFi power state: 0 off, 0.5 waking, 1 on (gauge).
    pub const WIFI_STATE: &str = "iface.wifi.state";
    /// Seconds the Bluetooth radio has been up — always-on, so this
    /// tracks session time (gauge).
    pub const BT_UP_SECS: &str = "iface.bt.up_secs";
}

/// Command forwarder + LRU cache + LZ4 (crates/core + crates/codec).
pub mod forward {
    /// LRU cache hits (counter).
    pub const CACHE_HITS: &str = "cache.hits";
    /// LRU cache misses (counter).
    pub const CACHE_MISSES: &str = "cache.misses";
    /// Serialized command bytes before caching/compression (counter).
    pub const RAW_BYTES: &str = "forward.raw_bytes";
    /// Token-stream bytes after caching, before LZ4 (counter).
    pub const TOKEN_BYTES: &str = "forward.token_bytes";
    /// Wire bytes after LZ4 (counter).
    pub const WIRE_BYTES: &str = "forward.wire_bytes";
    /// Commands forwarded after deferred resolution (counter).
    pub const COMMANDS: &str = "forward.commands";
}

/// Dual-radio transport and the RUDP reliability layer (crates/net).
pub mod net {
    /// Uplink bytes offered to the transport (counter).
    pub const UPLINK_BYTES: &str = "net.uplink_bytes";
    /// Downlink bytes offered to the transport (counter).
    pub const DOWNLINK_BYTES: &str = "net.downlink_bytes";
    /// WiFi wake events (counter).
    pub const WIFI_WAKES: &str = "net.wifi_wakes";
    /// Sends degraded onto Bluetooth by a misprediction (counter).
    pub const MISPREDICTIONS: &str = "net.mispredictions";
    /// Bytes carried over WiFi (counter).
    pub const WIFI_BYTES: &str = "net.wifi_bytes";
    /// Bytes carried over Bluetooth (counter).
    pub const BT_BYTES: &str = "net.bt_bytes";
    /// Estimated datagram retransmissions on the session path (counter).
    pub const RETRANSMITS: &str = "net.retransmits";
    /// RUDP datagrams sent, including retransmissions (counter).
    pub const RUDP_DATAGRAMS: &str = "rudp.datagrams";
    /// RUDP retransmitted datagrams (counter).
    pub const RUDP_RETRANSMITS: &str = "rudp.retransmits";
    /// RUDP per-datagram ack round-trip time histogram (µs).
    pub const RUDP_RTT: &str = "rudp.rtt";
    /// RUDP whole-transfer completion time histogram (µs).
    pub const RUDP_TRANSFER: &str = "rudp.transfer";
}

/// Eq. 4 dispatcher (crates/core/src/scheduler.rs).
pub mod sched {
    /// Rendering requests dispatched, including re-dispatches (counter).
    pub const REQUESTS: &str = "sched.requests";
    /// Queue wait at the chosen node histogram (µs).
    pub const QUEUE_WAIT: &str = "sched.queue_wait";
    /// Frames re-dispatched away from a failed node (counter).
    pub const REDISPATCHES: &str = "sched.redispatches";
    /// Issue-side stalls waiting for a free slot in the in-flight
    /// window (counter).
    pub const WINDOW_STALLS: &str = "sched.window_stalls";
    /// Service nodes declared dead mid-session (counter).
    pub const NODE_FAILURES: &str = "sched.node_failures";
    /// High-water mark of frames concurrently in flight between
    /// SwapBuffers return and presentation (gauge).
    pub const INFLIGHT_PEAK: &str = "sched.inflight_peak";
}

/// Service-device runtime (crates/core/src/service.rs + crates/codec).
pub mod service {
    /// Commands applied to service GL replicas (counter).
    pub const COMMANDS_APPLIED: &str = "service.commands_applied";
    /// Turbo encode time histogram (µs).
    pub const ENCODE_TIME: &str = "service.encode";
    /// Turbo tiles transmitted (counter).
    pub const TURBO_TILES_SENT: &str = "turbo.tiles_sent";
    /// Turbo tiles in the full grid (counter).
    pub const TURBO_TILES_TOTAL: &str = "turbo.tiles_total";
    /// Turbo encoded bytes (counter).
    pub const TURBO_ENCODED_BYTES: &str = "turbo.encoded_bytes";
    /// Turbo raw RGBA bytes (counter).
    pub const TURBO_RAW_BYTES: &str = "turbo.raw_bytes";
    /// Commands rejected by the per-session validation pass at the
    /// service boundary: out-of-bounds buffer/texture references that
    /// must not reach the shared replica (counter).
    pub const REJECTED_COMMANDS: &str = "service.rejected_commands";
}

/// Multi-tenant service fabric (crates/core/src/fabric.rs,
/// docs/FABRIC.md). Pool-level instruments live in the fabric's shared
/// registry; the same names recorded into a tenant's private registry
/// are exported with a `tenant="…"` base label.
pub mod fabric {
    /// Sessions that asked for admission (counter).
    pub const SESSIONS_OFFERED: &str = "fabric.sessions_offered";
    /// Sessions admitted by the capacity check (counter).
    pub const SESSIONS_ADMITTED: &str = "fabric.sessions_admitted";
    /// Sessions rejected at admission (counter).
    pub const SESSIONS_REJECTED: &str = "fabric.sessions_rejected";
    /// Rejected ÷ offered over the whole run (gauge, gated in the
    /// scaling bench).
    pub const REJECTED_RATE: &str = "fabric.rejected_rate";
    /// Cross-session frame latency, issue → presentation (histogram, µs).
    pub const FRAME_LATENCY: &str = "fabric.frame_latency";
    /// Time a frame waits in its tenant queue for a free node
    /// (histogram, µs).
    pub const QUEUE_WAIT: &str = "fabric.queue_wait";
    /// Pool GPU busy time ÷ pool capacity over the run (gauge).
    pub const POOL_UTILIZATION: &str = "fabric.pool_utilization";
    /// Admitted sessions meeting their p99 SLO ÷ pool nodes (gauge,
    /// the gated scaling-bench row).
    pub const SESSIONS_PER_NODE_AT_SLO: &str = "fabric.sessions_per_node_at_slo";
    /// Frames re-queued away from a killed node (counter).
    pub const REDISPATCHES: &str = "fabric.redispatches";
    /// Frames rendered on the tenant's own GPU (counter).
    pub const LOCAL_FRAMES: &str = "fabric.local_frames";
    /// Tenants that flipped to local rendering on SLO breach (counter).
    pub const SLO_FALLBACKS: &str = "fabric.slo_fallbacks";
    /// Uplink wire bytes across all tenants, setup + per-frame (counter).
    pub const UPLINK_BYTES: &str = "fabric.uplink_bytes";
    /// Downlink encoded bytes across all tenants (counter).
    pub const DOWNLINK_BYTES: &str = "fabric.downlink_bytes";
    /// Setup-segment bytes avoided by shared-segment caches (counter).
    pub const SHARED_SEGMENT_BYTES_SAVED: &str = "fabric.shared_segment_bytes_saved";
    /// Per-tenant incident records opened by pool faults (counter).
    pub const INCIDENTS: &str = "fabric.incidents";
    /// p99 presented-frame gap across migrated tenants, in ms (gauge,
    /// gated in the scaling bench — must stay 0 in clean runs).
    pub const MIGRATION_BLACKOUT_MS: &str = "fabric.migration_blackout_ms";
}

/// Live session migration and pool rebalancing
/// (crates/core/src/rebalance.rs, docs/MIGRATION.md).
pub mod migrate {
    /// Migrations that completed a cutover (counter).
    pub const SESSIONS: &str = "migrate.sessions";
    /// Drain operations started, operator or rebalancer (counter).
    pub const DRAINS: &str = "migrate.drains";
    /// Snapshot bytes actually shipped for migrations (counter).
    pub const BYTES: &str = "migrate.bytes";
    /// Snapshot bytes avoided because the destination already held a
    /// shared-segment replica — only the per-session delta shipped
    /// (counter).
    pub const SNAPSHOT_BYTES_SAVED: &str = "migrate.snapshot_bytes_saved";
    /// Snapshot transfer time, checkpoint → cutover (histogram, µs).
    pub const TRANSFER: &str = "migrate.transfer";
    /// Migrations re-aimed at a new destination after the original
    /// died mid-transfer (counter).
    pub const RETARGETS: &str = "migrate.retargets";
    /// Migrations abandoned with no survivor to retarget to (counter).
    pub const ABORTED: &str = "migrate.aborted";
    /// Migrations whose cause folded into an already-open incident for
    /// the drained node instead of opening a duplicate (counter).
    pub const INCIDENTS_FOLDED: &str = "migrate.incidents_folded";
}

/// Attribution-table axis labels (crates/telemetry/src/attr.rs). These
/// are row keys inside [`crate::attr::AttributionSnapshot`] tables, not
/// registry metric names; they are centralized here so taps, reports,
/// and the regression gate agree on spelling.
pub mod attr {
    /// Cache outcome: the LRU command cache replaced the body with a
    /// reference token.
    pub const OUTCOME_HIT: &str = "hit";
    /// Cache outcome: the full command body went on the wire.
    pub const OUTCOME_MISS: &str = "miss";
    /// Downlink frame kind: JPEG-style keyframe (full image).
    pub const KIND_KEYFRAME: &str = "jpeg.keyframe";
    /// Downlink frame kind: Turbo tile-delta update.
    pub const KIND_TILE_DELTA: &str = "turbo.tile_delta";
    /// Node label for the user device.
    pub const NODE_PHONE: &str = "phone";
    /// Interface label for Wi-Fi Direct transfers.
    pub const IFACE_WIFI: &str = "wifi";
    /// Interface label for Bluetooth transfers.
    pub const IFACE_BT: &str = "bt";
    /// Interface label for stages that never touch a radio.
    pub const IFACE_NONE: &str = "-";
    /// Link direction: phone → service device.
    pub const DIR_UPLINK: &str = "uplink";
    /// Link direction: service device → phone.
    pub const DIR_DOWNLINK: &str = "downlink";
    /// Energy row for CPU joules (no pipeline stage).
    pub const ENERGY_CPU: &str = "cpu";
    /// Energy row for display joules.
    pub const ENERGY_DISPLAY: &str = "display";
    /// Energy row for baseline platform draw.
    pub const ENERGY_BASE: &str = "base";
}

/// Host-time (wall-clock) profiler scopes and metrics
/// (crates/telemetry/src/prof.rs). Unlike every other module in this
/// file, these measure the *simulator's own* cost on the host machine,
/// not modeled device time. Scope constants mirror the sim-time stage
/// vocabulary where a direct counterpart exists; metrics are gauges set
/// once at session teardown.
pub mod host {
    /// Root scope wrapping the whole engine run loop.
    pub const SESSION: &str = "host.session";
    /// One choreographer tick of the offload engine.
    pub const TICK: &str = "host.tick";
    /// Frame issue: intercept → forward → uplink modeling.
    pub const ISSUE: &str = "host.issue";
    /// Frame retire: service render/encode/downlink modeling.
    pub const RETIRE: &str = "host.retire";
    /// Frame presentation: decode, stitch, SLO/ops feeds.
    pub const PRESENT: &str = "host.present";
    /// Command forwarding (resolve + cache + compress) on the phone.
    pub const FORWARD: &str = "host.forward";
    /// GL wire encoding (crates/gles serialize path).
    pub const GLES_ENCODE: &str = "host.gles.encode";
    /// GL wire decoding (crates/gles deserialize path).
    pub const GLES_DECODE: &str = "host.gles.decode";
    /// LRU command-cache tokenization (offer/accept).
    pub const CACHE: &str = "host.cache";
    /// LZ4 compression.
    pub const LZ4: &str = "host.lz4";
    /// LZ4 decompression.
    pub const LZ4_DECODE: &str = "host.lz4_decode";
    /// Turbo tile encoding.
    pub const TURBO_ENCODE: &str = "host.turbo_encode";
    /// Turbo tile decoding.
    pub const TURBO_DECODE: &str = "host.turbo_decode";
    /// JPEG keyframe compression.
    pub const JPEG: &str = "host.jpeg";
    /// JPEG keyframe decompression.
    pub const JPEG_DECODE: &str = "host.jpeg_decode";
    /// Transport uplink send modeling.
    pub const TRANSPORT_SEND: &str = "host.transport_send";
    /// Transport downlink receive modeling.
    pub const TRANSPORT_RECV: &str = "host.transport_recv";
    /// RUDP transfer simulation (datagram loop).
    pub const RUDP: &str = "host.rudp";
    /// Per-datagram channel sampling.
    pub const CHANNEL: &str = "host.channel";
    /// Eq. 4 dispatcher node selection.
    pub const DISPATCH: &str = "host.dispatch";
    /// Service-side GL replay.
    pub const REPLAY: &str = "host.replay";

    /// Wall-clock frames simulated per second (gauge, set at teardown).
    pub const FRAMES_PER_SEC: &str = "host.frames_per_sec";
    /// Heap bytes allocated per simulated frame (gauge; 0 unless the
    /// `host-prof` counting allocator is compiled in).
    pub const ALLOC_BYTES_PER_FRAME: &str = "host.alloc_bytes_per_frame";
    /// Host nanoseconds per simulated frame, whole loop (gauge).
    pub const NS_PER_FRAME: &str = "host.ns_per_frame";
    /// Host ns/frame spent in GL wire (de)serialization (gauge).
    pub const NS_PER_FRAME_SERIALIZE: &str = "host.ns_per_frame.serialize";
    /// Host ns/frame spent in codecs (cache/LZ4/Turbo/JPEG) (gauge).
    pub const NS_PER_FRAME_CODEC: &str = "host.ns_per_frame.codec";
    /// Host ns/frame spent in transport/RUDP/channel modeling (gauge).
    pub const NS_PER_FRAME_NET: &str = "host.ns_per_frame.net";
    /// Host ns/frame spent in the core engine itself (gauge).
    pub const NS_PER_FRAME_CORE: &str = "host.ns_per_frame.core";
}

/// Session-level aggregates (crates/core/src/session.rs).
pub mod session {
    /// Frames displayed (counter).
    pub const FRAMES_DISPLAYED: &str = "frames.displayed";
    /// Frames whose transfers were degraded by a misprediction (counter).
    pub const FRAMES_DEGRADED: &str = "frames.degraded";
    /// Choreographer ticks with no redraw (counter).
    pub const FRAMES_IDLE: &str = "frames.idle";
    /// Frames rendered on the phone GPU by the fallback path (counter).
    pub const FRAMES_LOCAL: &str = "frames.local_fallback";
    /// Busy single-core CPU time (counter, µs).
    pub const CPU_BUSY_US: &str = "cpu.busy_core_us";
    /// Whole-chip CPU utilization in `[0, 1]` (gauge).
    pub const CPU_UTILIZATION: &str = "cpu.utilization";
}
