//! The energy-aware transport manager (Section V-B).
//!
//! Couples the ARMAX traffic predictor to the dual-radio
//! [`InterfaceManager`]: traffic and exogenous inputs (touchstrokes,
//! per-frame texture count — the AIC-selected attributes 1 and 3) are
//! accumulated per 500 ms window; at each window boundary the predictor
//! forecasts the next window's demand and the manager pre-wakes or parks
//! the WiFi radio accordingly.

use std::collections::BTreeMap;

use gbooster_forecast::predictor::TrafficPredictor;
use gbooster_net::switch::{IfaceTime, InterfaceManager, Route, SwitchStats};
use gbooster_sim::time::{SimDuration, SimTime};
use gbooster_telemetry::{
    names, AttributionLog, ClockOffsetEstimator, Counter, Gauge, OpsEventKind, OpsLog, Registry,
    TraceContext,
};

/// Per-route propagation latency added on top of serialization.
const WIFI_LATENCY: SimDuration = SimDuration::from_micros(800);
const BT_LATENCY: SimDuration = SimDuration::from_millis(4);

/// Link-layer datagram payload used by the retransmit estimator.
const DATAGRAM_PAYLOAD: u64 = 1200;
/// Expected datagram loss rates per route (matches the channel defaults
/// in `gbooster-net`): losses are recovered by the reliable transport, so
/// here they cost retransmissions, not data.
const WIFI_LOSS: f64 = 0.002;
const BT_LOSS: f64 = 0.005;

/// Mean loss-recovery stall per *excess* expected retransmission when
/// the link is scaled lossy (one RTO-sized round trip, matching the
/// RUDP default in `gbooster-net`).
const RETX_RECOVERY: SimDuration = SimDuration::from_millis(20);

/// A transmission outcome including propagation delay.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Transfer {
    /// Instant the last byte is delivered.
    pub delivered_at: SimTime,
    /// Serialization + propagation span.
    pub duration: SimDuration,
    /// True if the send was degraded onto Bluetooth by a mispredicted
    /// surge (elevated latency — the FN cost).
    pub degraded: bool,
    /// Radio the bytes rode, or `None` for synthesized transfers that
    /// never crossed a link (local-render fallback paths).
    pub route: Option<Route>,
}

impl Transfer {
    /// Attribution interface label for this transfer's route.
    pub fn iface_label(&self) -> &'static str {
        match self.route {
            Some(Route::Wifi) => names::attr::IFACE_WIFI,
            Some(Route::Bluetooth) => names::attr::IFACE_BT,
            None => names::attr::IFACE_NONE,
        }
    }
}

/// The predictor-driven transport.
#[derive(Debug)]
pub struct TransportManager {
    mgr: InterfaceManager,
    predictor: TrafficPredictor,
    window: SimDuration,
    window_end: SimTime,
    /// Per-direction link occupancy. (The medium is shared, but at the
    /// utilizations GBooster reaches the cross-direction contention is
    /// second-order; modeling the directions independently avoids falsely
    /// serializing frame i's download with frame i+1's upload.)
    uplink_free_at: SimTime,
    downlink_free_at: SimTime,
    window_bytes: u64,
    window_busy: SimDuration,
    window_touches: f64,
    window_textures: f64,
    window_frames: u32,
    uplink_bytes: u64,
    downlink_bytes: u64,
    windows_observed: u64,
    /// Fractional expected retransmissions not yet surfaced as a whole
    /// count (the estimator is deterministic: no RNG, no timing impact).
    retransmit_carry: f64,
    /// Multiplier on the profiled loss rate (1.0 = clean link). Above
    /// 1.0 the excess expected retransmissions cost a deterministic
    /// recovery stall on every transfer.
    loss_scale: f64,
    /// Frames with traced transfers currently in flight on this path,
    /// keyed by display sequence (the pipelined session overlaps
    /// several).
    inflight: BTreeMap<u64, TraceContext>,
    inflight_peak: usize,
    /// Ground-truth (service − user) clock skew applied to the ack
    /// timestamps the service device stamps (µs; set by the session
    /// from its seed, never read by the estimator).
    true_clock_offset_us: i64,
    /// NTP-style offset recovery from the modeled RUDP ack feedback.
    clock: ClockOffsetEstimator,
    counters: Option<TransportCounters>,
    attr: Option<AttributionLog>,
    /// Structured-event journal for injected interface flaps
    /// (live-ops layer).
    ops: Option<OpsLog>,
}

/// Pre-resolved registry handles for the transport counters.
#[derive(Clone, Debug)]
struct TransportCounters {
    uplink_bytes: Counter,
    downlink_bytes: Counter,
    retransmits: Counter,
    clock_offset: Gauge,
    clock_samples: Counter,
}

impl TransportManager {
    /// Creates a transport with switching `enabled` and the given
    /// forecast window.
    ///
    /// The predictor is ARMAX(2,1) with 2 lags over 2 exogenous inputs
    /// (touch frequency, texture count), thresholded at the Bluetooth
    /// budget — the paper's final configuration.
    pub fn new(enabled: bool, window: SimDuration) -> Self {
        let mgr = InterfaceManager::new(enabled);
        let threshold = mgr.bt_budget_mbps();
        TransportManager {
            mgr,
            predictor: TrafficPredictor::armax(2, 1, 2, 2, threshold),
            window,
            window_end: SimTime::ZERO + window,
            uplink_free_at: SimTime::ZERO,
            downlink_free_at: SimTime::ZERO,
            window_bytes: 0,
            window_busy: SimDuration::ZERO,
            window_touches: 0.0,
            window_textures: 0.0,
            window_frames: 0,
            uplink_bytes: 0,
            downlink_bytes: 0,
            windows_observed: 0,
            retransmit_carry: 0.0,
            loss_scale: 1.0,
            inflight: BTreeMap::new(),
            inflight_peak: 0,
            true_clock_offset_us: 0,
            clock: ClockOffsetEstimator::new(),
            counters: None,
            attr: None,
            ops: None,
        }
    }

    /// Journals injected interface flaps into `ops`, so incident
    /// timelines can link the radio churn to the frames it degraded.
    /// Purely observational, like [`Self::attach_registry`].
    pub fn attach_ops(&mut self, ops: OpsLog) {
        self.ops = Some(ops);
    }

    /// Attributes every transfer into `log`'s link table along
    /// `direction × interface` (bytes, latency micros, transfer count).
    /// Purely observational, like [`Self::attach_registry`].
    pub fn attach_attribution(&mut self, log: AttributionLog) {
        self.attr = Some(log);
    }

    /// Scales the link's datagram loss rate (1.0 = the profiled link).
    /// Values above 1.0 make the retransmit estimator accrue
    /// proportionally more and charge every transfer a deterministic
    /// recovery stall for the excess losses. At exactly 1.0 transfer
    /// timing is bit-identical to the unscaled transport.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not finite or below 1.0.
    pub fn set_loss_scale(&mut self, scale: f64) {
        assert!(
            scale.is_finite() && scale >= 1.0,
            "loss scale must be finite and >= 1.0: {scale}"
        );
        self.loss_scale = scale;
    }

    /// Recovery stall for the *excess* expected retransmissions of a
    /// `bytes`-sized transfer on `route`. Zero on a clean link, so the
    /// baseline path never pays it.
    fn loss_recovery(&self, bytes: usize, route: Route) -> SimDuration {
        if self.loss_scale <= 1.0 {
            return SimDuration::ZERO;
        }
        let datagrams = (bytes as u64).div_ceil(DATAGRAM_PAYLOAD).max(1);
        let loss = match route {
            Route::Wifi => WIFI_LOSS,
            Route::Bluetooth => BT_LOSS,
        };
        let extra = datagrams as f64 * loss * (self.loss_scale - 1.0);
        SimDuration::from_secs_f64(extra * RETX_RECOVERY.as_secs_f64())
    }

    /// Registers frame `ctx` as having transfers in flight on this path.
    /// The pipelined session keeps several frames open at once; each is
    /// retired by [`TransportManager::end_frame_transfer`] when its
    /// result is presented.
    pub fn begin_frame_transfer(&mut self, ctx: TraceContext) {
        self.inflight.insert(ctx.frame_id, ctx);
        self.inflight_peak = self.inflight_peak.max(self.inflight.len());
    }

    /// Retires frame `seq`'s transfers from the in-flight set.
    pub fn end_frame_transfer(&mut self, seq: u64) {
        self.inflight.remove(&seq);
    }

    /// Frames with transfers currently in flight.
    pub fn inflight_frames(&self) -> usize {
        self.inflight.len()
    }

    /// High-water mark of concurrently in-flight frames.
    pub fn inflight_peak(&self) -> usize {
        self.inflight_peak
    }

    /// Sets the ground-truth service-clock skew (µs, may be negative).
    /// The skew only shapes the timestamps the far side stamps into its
    /// acks; the estimator must recover it from those alone.
    pub fn set_true_clock_offset_us(&mut self, offset_us: i64) {
        self.true_clock_offset_us = offset_us;
    }

    /// The estimated (service − user) clock offset in µs, or `None`
    /// before the first acked transfer.
    pub fn clock_offset_estimate_us(&self) -> Option<i64> {
        self.clock.offset_us()
    }

    /// Feeds one NTP quadruple per transfer, modeling the RUDP
    /// cumulative-ack feedback: the service device stamps its (skewed)
    /// clock at delivery, the ack returns after the route's propagation
    /// latency. The forward path includes serialization while the ack
    /// is latency-only, so individual samples carry a small asymmetry
    /// bias — the estimator's min-RTT filter keeps the least-biased
    /// (smallest) transfer's sample.
    fn observe_clock(&mut self, start: SimTime, delivered_at: SimTime, route: Route) {
        let ack_latency = match route {
            Route::Wifi => WIFI_LATENCY,
            Route::Bluetooth => BT_LATENCY,
        };
        let t1 = start.as_micros() as i64;
        let t2 = delivered_at.as_micros() as i64 + self.true_clock_offset_us;
        let t4 = (delivered_at + ack_latency).as_micros() as i64;
        self.clock.observe(t1, t2, t2, t4);
        if let Some(c) = &self.counters {
            c.clock_samples.inc();
            if let Some(est) = self.clock.offset_us() {
                c.clock_offset.set(est as f64);
            }
        }
    }

    /// Mirrors transport activity into `registry`: per-direction byte
    /// counters, the radio switcher's wake/misprediction/byte counters,
    /// and the deterministic expected-retransmit estimator under
    /// [`names::net::RETRANSMITS`]. Purely observational — attaching never
    /// changes transfer timing or route decisions.
    pub fn attach_registry(&mut self, registry: &Registry) {
        self.mgr.attach_registry(registry);
        self.counters = Some(TransportCounters {
            uplink_bytes: registry.counter(names::net::UPLINK_BYTES),
            downlink_bytes: registry.counter(names::net::DOWNLINK_BYTES),
            retransmits: registry.counter(names::net::RETRANSMITS),
            clock_offset: registry.gauge(names::tracing::CLOCK_OFFSET_US),
            clock_samples: registry.counter(names::tracing::CLOCK_SAMPLES),
        });
    }

    /// Accrues the expected retransmissions for a `bytes`-sized transfer
    /// on `route`: `ceil(bytes / 1200)` datagrams times the route's loss
    /// rate, with the fractional remainder carried to the next transfer
    /// so long sessions converge on the true expectation.
    fn account_retransmits(&mut self, bytes: usize, route: Route) {
        let Some(c) = &self.counters else { return };
        let datagrams = (bytes as u64).div_ceil(DATAGRAM_PAYLOAD).max(1);
        let loss = match route {
            Route::Wifi => WIFI_LOSS,
            Route::Bluetooth => BT_LOSS,
        } * self.loss_scale;
        self.retransmit_carry += datagrams as f64 * loss;
        let whole = self.retransmit_carry.floor();
        if whole >= 1.0 {
            c.retransmits.add(whole as u64);
            self.retransmit_carry -= whole;
        }
    }

    /// Records one frame's exogenous observations.
    pub fn on_frame(&mut self, touches: u32, textures_used: u32) {
        self.window_touches += touches as f64;
        self.window_textures += textures_used as f64;
        self.window_frames += 1;
    }

    /// Rolls the forecast window forward if `now` has passed its end:
    /// observe actual traffic, forecast the next window, actuate radios.
    pub fn maybe_rollover(&mut self, now: SimTime) {
        while now >= self.window_end {
            let mut mbps = self.window_bytes as f64 * 8.0 / 1e6 / self.window.as_secs_f64();
            // A saturated link under-reports offered demand: the carried
            // throughput caps below the switch threshold while the queue
            // grows. Treat near-full busy windows as demand beyond the
            // Bluetooth budget so the predictor sees the real surge.
            let busy_frac = self.window_busy.as_secs_f64() / self.window.as_secs_f64();
            if busy_frac > 0.85 {
                mbps = mbps.max(self.mgr.bt_budget_mbps() * 1.5);
            }
            let textures_avg = if self.window_frames > 0 {
                self.window_textures / self.window_frames as f64
            } else {
                0.0
            };
            let exo = [self.window_touches, textures_avg];
            self.predictor.observe(mbps, &exo);
            // Forecast with the freshest exogenous readings (the inputs
            // observable *now*, before the traffic they cause).
            let predicted = self.predictor.forecast_next(&exo);
            self.mgr.plan(predicted, self.window_end);
            self.mgr.idle_tick(self.window);
            self.window_bytes = 0;
            self.window_busy = SimDuration::ZERO;
            self.window_touches = 0.0;
            self.window_textures = 0.0;
            self.window_frames = 0;
            self.window_end += self.window;
            self.windows_observed += 1;
        }
    }

    /// Sends `bytes` upstream (commands) at `now`. The transfer queues
    /// behind any transfer still occupying the half-duplex medium.
    pub fn send(&mut self, bytes: usize, now: SimTime) -> Transfer {
        gbooster_telemetry::prof_scope!(names::host::TRANSPORT_SEND);
        self.maybe_rollover(now);
        self.window_bytes += bytes as u64;
        self.uplink_bytes += bytes as u64;
        let start = now.max(self.uplink_free_at);
        let out = self.mgr.transmit(bytes, start);
        let done_at = out.done_at + self.loss_recovery(bytes, out.route);
        self.window_busy += done_at - start;
        self.uplink_free_at = done_at;
        if let Some(c) = &self.counters {
            c.uplink_bytes.add(bytes as u64);
        }
        self.account_retransmits(bytes, out.route);
        let transfer = Self::finish(now, done_at, out.route, out.degraded);
        if let Some(attr) = &self.attr {
            attr.record_link(
                names::attr::DIR_UPLINK,
                transfer.iface_label(),
                bytes as u64,
                transfer.duration.as_micros(),
            );
        }
        // Uplink acks are the clock-sync signal (the service stamps its
        // clock at delivery). Downlink acks flow the other way and are
        // not observable here.
        self.observe_clock(start, transfer.delivered_at, out.route);
        transfer
    }

    /// Receives `bytes` downstream (frames) at `now`, queueing behind any
    /// transfer occupying the medium.
    pub fn recv(&mut self, bytes: usize, now: SimTime) -> Transfer {
        gbooster_telemetry::prof_scope!(names::host::TRANSPORT_RECV);
        self.maybe_rollover(now);
        self.window_bytes += bytes as u64;
        self.downlink_bytes += bytes as u64;
        let start = now.max(self.downlink_free_at);
        let out = self.mgr.receive(bytes, start);
        let done_at = out.done_at + self.loss_recovery(bytes, out.route);
        self.window_busy += done_at - start;
        self.downlink_free_at = done_at;
        if let Some(c) = &self.counters {
            c.downlink_bytes.add(bytes as u64);
        }
        self.account_retransmits(bytes, out.route);
        let transfer = Self::finish(now, done_at, out.route, out.degraded);
        if let Some(attr) = &self.attr {
            attr.record_link(
                names::attr::DIR_DOWNLINK,
                transfer.iface_label(),
                bytes as u64,
                transfer.duration.as_micros(),
            );
        }
        transfer
    }

    fn finish(now: SimTime, done_at: SimTime, route: Route, degraded: bool) -> Transfer {
        let latency = match route {
            Route::Wifi => WIFI_LATENCY,
            Route::Bluetooth => BT_LATENCY,
        };
        let delivered_at = done_at + latency;
        Transfer {
            delivered_at,
            duration: delivered_at - now,
            degraded,
            route: Some(route),
        }
    }

    /// Total radio energy, joules.
    pub fn radio_energy_joules(&self) -> f64 {
        self.mgr.energy_joules()
    }

    /// WiFi-attributed energy, joules.
    pub fn wifi_energy_joules(&self) -> f64 {
        self.mgr.wifi_energy_joules()
    }

    /// Switch statistics.
    pub fn switch_stats(&self) -> SwitchStats {
        self.mgr.stats()
    }

    /// Accumulated per-interface time-in-state totals.
    pub fn iface_time(&self) -> IfaceTime {
        self.mgr.time_in_state()
    }

    /// Forces `cycles` rapid WiFi power cycles at `now` (fault injection
    /// for interface-flap drills). See [`InterfaceManager::force_flap`].
    pub fn force_flap(&mut self, now: SimTime, cycles: u32) {
        self.mgr.force_flap(now, cycles);
        if let Some(ops) = &self.ops {
            ops.push(
                now,
                OpsEventKind::IfaceFlap {
                    cycles: cycles as u64,
                },
            );
        }
    }

    /// Lifetime (uplink, downlink) byte totals.
    pub fn traffic_totals(&self) -> (u64, u64) {
        (self.uplink_bytes, self.downlink_bytes)
    }

    /// Average offered load over the observed windows, Mbps.
    pub fn average_mbps(&self, elapsed: SimDuration) -> f64 {
        let secs = elapsed.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            (self.uplink_bytes + self.downlink_bytes) as f64 * 8.0 / 1e6 / secs
        }
    }

    /// Forecast windows processed.
    pub fn windows_observed(&self) -> u64 {
        self.windows_observed
    }
}

/// One-way transfer time for the fabric's per-tenant links
/// (crates/core/src/fabric.rs).
///
/// Every tenant phone owns its own radio, so the fabric does not share
/// one [`TransportManager`] across sessions; each transfer serializes
/// at the 802.11n channel rate plus half the WiFi propagation RTT.
/// `loss_scale` derates goodput the way [`TransportManager::set_loss_scale`]
/// inflates retransmissions: each expected (scaled) datagram loss costs
/// one extra payload transmission, so the effective rate drops by the
/// scaled loss factor. Deterministic — loss *bursts* are injected by the
/// fabric from its per-tenant seeded streams, not here.
pub fn fabric_link_secs(bytes: u64, loss_scale: f64) -> f64 {
    let chan = gbooster_net::channel::ChannelModel::wifi_80211n();
    let serialize = chan.tx_time(bytes as usize).as_secs_f64();
    let overhead = 1.0 + WIFI_LOSS * loss_scale.max(0.0);
    serialize * overhead + WIFI_LATENCY.as_secs_f64()
}

/// Channel share a background snapshot transfer may consume: live
/// migration paces the checkpoint stream at half rate so the session's
/// own frames keep their latency while the transfer overlaps continued
/// dispatch to the source (docs/MIGRATION.md).
const MIGRATION_CHANNEL_SHARE: f64 = 0.5;

/// One-way transfer time for a live-migration state snapshot.
///
/// Same 802.11n link as [`fabric_link_secs`], but the stream is paced
/// to `MIGRATION_CHANNEL_SHARE` of the channel: a migration is a
/// bulk background flow, and starving the per-frame uplink to finish
/// the checkpoint sooner would cause exactly the presentation gap the
/// cutover protocol promises not to have.
pub fn fabric_migration_secs(bytes: u64, loss_scale: f64) -> f64 {
    let chan = gbooster_net::channel::ChannelModel::wifi_80211n();
    let serialize = chan.tx_time(bytes as usize).as_secs_f64() / MIGRATION_CHANNEL_SHARE;
    let overhead = 1.0 + WIFI_LOSS * loss_scale.max(0.0);
    serialize * overhead + WIFI_LATENCY.as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window() -> SimDuration {
        SimDuration::from_millis(500)
    }

    #[test]
    fn quiet_traffic_stays_on_bluetooth_energy() {
        let mut t = TransportManager::new(true, window());
        let mut now = SimTime::ZERO;
        for _ in 0..120 {
            // 20 KB per 100 ms ≈ 1.6 Mbps: far under the BT budget.
            let xfer = t.send(20_000, now);
            assert!(!xfer.degraded);
            now = xfer.delivered_at + SimDuration::from_millis(100);
            t.on_frame(0, 8);
        }
        let stats = t.switch_stats();
        assert_eq!(stats.wifi_bytes, 0, "all bytes must ride Bluetooth");
        assert!(t.radio_energy_joules() < 2.0);
    }

    #[test]
    fn sustained_surge_migrates_to_wifi() {
        let mut t = TransportManager::new(true, window());
        let mut now = SimTime::ZERO;
        // Open-loop offered load of 200 KB every 50 ms ≈ 32 Mbps: beyond
        // Bluetooth, which saturates until the predictor wakes WiFi.
        for _ in 0..400 {
            t.send(200_000, now);
            now += SimDuration::from_millis(50);
            t.on_frame(5, 24);
        }
        let stats = t.switch_stats();
        assert!(stats.wifi_wakes >= 1, "predictor must wake WiFi");
        assert!(
            stats.wifi_bytes > stats.bt_bytes,
            "steady surge should ride WiFi: {stats:?}"
        );
    }

    #[test]
    fn disabled_switching_never_touches_bluetooth() {
        let mut t = TransportManager::new(false, window());
        let mut now = SimTime::from_millis(600); // WiFi booted at t=0
        for _ in 0..50 {
            let xfer = t.send(10_000, now);
            now = xfer.delivered_at + SimDuration::from_millis(20);
        }
        assert_eq!(t.switch_stats().bt_bytes, 0);
    }

    #[test]
    fn traffic_totals_split_directions() {
        let mut t = TransportManager::new(true, window());
        t.send(1000, SimTime::ZERO);
        t.recv(5000, SimTime::from_millis(10));
        assert_eq!(t.traffic_totals(), (1000, 5000));
        let mbps = t.average_mbps(SimDuration::from_secs(1));
        assert!((mbps - 0.048).abs() < 1e-9);
    }

    #[test]
    fn windows_roll_over_with_time() {
        let mut t = TransportManager::new(true, window());
        t.send(100, SimTime::ZERO);
        t.send(100, SimTime::from_secs(3));
        assert!(t.windows_observed() >= 5, "{}", t.windows_observed());
    }

    #[test]
    fn retransmit_estimator_is_deterministic_and_timing_neutral() {
        let registry = Registry::new();
        let mut traced = TransportManager::new(true, window());
        traced.attach_registry(&registry);
        let mut plain = TransportManager::new(true, window());
        let mut now = SimTime::ZERO;
        for _ in 0..200 {
            // 600 KB ≈ 500 datagrams per transfer: enough expected loss to
            // surface whole retransmit units at either loss rate.
            let a = traced.send(600_000, now);
            let b = plain.send(600_000, now);
            assert_eq!(a, b, "telemetry must not perturb transfer timing");
            now = a.delivered_at + SimDuration::from_millis(30);
            traced.on_frame(1, 8);
            plain.on_frame(1, 8);
        }
        let snap = registry.snapshot();
        let retx = snap.counter(names::net::RETRANSMITS);
        // 200 transfers x 500 datagrams x [0.002, 0.005] => 200..=500.
        assert!((150..=600).contains(&retx), "retransmits {retx}");
        assert_eq!(
            snap.counter(names::net::UPLINK_BYTES),
            200 * 600_000,
            "uplink byte counter must mirror traffic_totals"
        );
    }

    #[test]
    fn clock_offset_is_recovered_on_the_session_path() {
        for true_offset in [250_000i64, -90_000, 0] {
            let mut t = TransportManager::new(true, window());
            t.set_true_clock_offset_us(true_offset);
            let mut now = SimTime::ZERO;
            for _ in 0..60 {
                let xfer = t.send(2_000, now);
                now = xfer.delivered_at + SimDuration::from_millis(30);
                t.on_frame(0, 8);
            }
            let est = t.clock_offset_estimate_us().expect("acked transfers");
            // The forward path carries serialization the ack doesn't, so
            // the min-RTT sample is biased by half the smallest transfer's
            // serialization time — well under the 2 ms acceptance bound.
            assert!(
                (est - true_offset).abs() < 2_000,
                "offset {true_offset}: estimated {est}"
            );
        }
    }

    #[test]
    fn clock_sampling_never_perturbs_transfers() {
        let mut skewed = TransportManager::new(true, window());
        skewed.set_true_clock_offset_us(500_000);
        let mut plain = TransportManager::new(true, window());
        let mut now = SimTime::ZERO;
        for _ in 0..100 {
            let a = skewed.send(30_000, now);
            let b = plain.send(30_000, now);
            assert_eq!(a, b, "clock sampling must be observational");
            now = a.delivered_at + SimDuration::from_millis(40);
            skewed.on_frame(1, 8);
            plain.on_frame(1, 8);
        }
        assert!(skewed.clock_offset_estimate_us().is_some());
        assert!(plain.clock_offset_estimate_us().is_some());
    }

    #[test]
    fn unit_loss_scale_is_bit_identical_to_default() {
        let mut scaled = TransportManager::new(true, window());
        scaled.set_loss_scale(1.0);
        let mut plain = TransportManager::new(true, window());
        let mut now = SimTime::ZERO;
        for _ in 0..100 {
            let a = scaled.send(80_000, now);
            let b = plain.send(80_000, now);
            assert_eq!(a, b, "loss_scale 1.0 must be the identity");
            now = a.delivered_at + SimDuration::from_millis(25);
            scaled.on_frame(1, 8);
            plain.on_frame(1, 8);
        }
    }

    #[test]
    fn lossy_link_slows_transfers_and_accrues_retransmits() {
        // Switching disabled pins both transports to WiFi, so the only
        // difference between them is the scaled loss.
        let registry = Registry::new();
        let mut lossy = TransportManager::new(false, window());
        lossy.set_loss_scale(5.0);
        lossy.attach_registry(&registry);
        let clean_registry = Registry::new();
        let mut clean = TransportManager::new(false, window());
        clean.attach_registry(&clean_registry);
        let mut now = SimTime::ZERO;
        for _ in 0..100 {
            let a = lossy.send(120_000, now);
            let b = clean.send(120_000, now);
            assert!(
                a.duration > b.duration,
                "excess losses must cost recovery time"
            );
            now = a.delivered_at.max(b.delivered_at) + SimDuration::from_millis(25);
            lossy.on_frame(1, 8);
            clean.on_frame(1, 8);
        }
        let lossy_retx = registry.snapshot().counter(names::net::RETRANSMITS);
        let clean_retx = clean_registry.snapshot().counter(names::net::RETRANSMITS);
        assert!(
            lossy_retx >= clean_retx * 4,
            "scaled loss must accrue ~5x retransmits: {lossy_retx} vs {clean_retx}"
        );
    }

    #[test]
    #[should_panic(expected = "loss scale")]
    fn sub_unit_loss_scale_panics() {
        TransportManager::new(true, window()).set_loss_scale(0.5);
    }

    #[test]
    fn inflight_frame_contexts_track_the_pipeline_window() {
        let mut t = TransportManager::new(true, window());
        assert_eq!(t.inflight_frames(), 0);
        for seq in 0..4u64 {
            t.begin_frame_transfer(TraceContext::new(7, seq, 1));
        }
        assert_eq!(t.inflight_frames(), 4);
        t.end_frame_transfer(0);
        t.end_frame_transfer(2);
        assert_eq!(t.inflight_frames(), 2);
        // Re-registering an open frame is idempotent.
        t.begin_frame_transfer(TraceContext::new(7, 3, 2));
        assert_eq!(t.inflight_frames(), 2);
        t.end_frame_transfer(1);
        t.end_frame_transfer(3);
        assert_eq!(t.inflight_frames(), 0);
        assert_eq!(t.inflight_peak(), 4);
    }

    #[test]
    fn forced_flap_surfaces_in_wake_counters() {
        let mut t = TransportManager::new(true, window());
        let before = t.switch_stats().wifi_wakes;
        t.force_flap(SimTime::from_secs(1), 4);
        assert_eq!(t.switch_stats().wifi_wakes, before + 4);
    }

    #[test]
    fn migration_transfers_are_paced_below_the_foreground_link() {
        for bytes in [10_000u64, 1_000_000, 50_000_000] {
            let fg = fabric_link_secs(bytes, 0.0);
            let bg = fabric_migration_secs(bytes, 0.0);
            assert!(
                bg > fg,
                "background pacing must slow the bulk flow: {bg} vs {fg} at {bytes}B"
            );
        }
        // Loss derates both the same way, and cost is monotone in size.
        assert!(fabric_migration_secs(1_000_000, 1.0) > fabric_migration_secs(1_000_000, 0.0));
        assert!(fabric_migration_secs(2_000_000, 0.0) > fabric_migration_secs(1_000_000, 0.0));
    }

    #[test]
    fn degraded_transfers_take_longer() {
        // Force a surge the predictor has never seen: the first send
        // after the wake decision rides Bluetooth degraded.
        let mut t = TransportManager::new(true, window());
        let mut now = SimTime::ZERO;
        // Train on quiet traffic.
        for _ in 0..40 {
            let x = t.send(5_000, now);
            now = x.delivered_at + SimDuration::from_millis(100);
            t.on_frame(0, 8);
        }
        // Sudden large burst in one window.
        let burst = t.send(2_000_000, now);
        // Either it rides BT (slow) or WiFi woke in time; both legal —
        // but the duration must reflect the route.
        if burst.degraded {
            assert!(burst.duration.as_millis_f64() > 100.0);
        }
    }
}
