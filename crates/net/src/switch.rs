//! The dual-radio interface manager (Section V-B).
//!
//! "We implement a mechanism that dynamically switches between the
//! Bluetooth and the WiFi to meet the traffic demand while to preserve
//! energy as much as possible. … When a soaring traffic trend that will
//! exceed the Bluetooth throughput is predicted, our system turns on the
//! WiFi interface and then configures the default route to direct the
//! traffic through the interface."
//!
//! [`InterfaceManager`] owns both radios. Each control tick it receives
//! the *predicted* next-window demand (from the ARMAX predictor) and
//! actuates: pre-wake WiFi ahead of a surge, or — after a sustained lull —
//! route back to Bluetooth and power WiFi down. Transmissions route over
//! whatever is ready; a surge that catches WiFi still waking is forced
//! through Bluetooth at its lower bandwidth, which is exactly the elevated
//! latency a false negative costs.

use gbooster_sim::time::{SimDuration, SimTime};
use gbooster_telemetry::{names, Counter, Gauge, Registry};

use crate::channel::ChannelModel;
use crate::iface::{BluetoothIface, RadioState, WifiIface};

/// Which radio carried a transmission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Route {
    /// Low-power Bluetooth.
    Bluetooth,
    /// High-throughput WiFi.
    Wifi,
}

/// Fraction of Bluetooth capacity treated as its usable budget.
const BT_SAFETY: f64 = 0.8;

/// Consecutive low-demand ticks before WiFi is powered down.
const LULL_TICKS: u32 = 6;

/// Outcome of one transmission through the manager.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TxOutcome {
    /// Completion instant.
    pub done_at: SimTime,
    /// Radio used.
    pub route: Route,
    /// True if demand wanted WiFi but it was not ready (a false-negative
    /// penalty: the transfer crawled over Bluetooth).
    pub degraded: bool,
}

/// Energy/usage statistics of the manager.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SwitchStats {
    /// Times WiFi was woken.
    pub wifi_wakes: u32,
    /// Times traffic was degraded onto Bluetooth during a WiFi wake.
    pub degraded_sends: u32,
    /// Bytes carried by WiFi.
    pub wifi_bytes: u64,
    /// Bytes carried by Bluetooth.
    pub bt_bytes: u64,
}

/// Accumulated per-interface time-in-state (from the manager's idle
/// ticks — the session's regular time advancement).
#[derive(Clone, Copy, Debug, Default)]
struct IfaceTime {
    /// Time the WiFi radio spent powered (waking, idle or active).
    wifi_up: SimDuration,
    /// Time the WiFi radio spent off.
    wifi_off: SimDuration,
    /// Time the always-on Bluetooth radio has been up.
    bt_up: SimDuration,
}

/// Pre-resolved registry handles for the switching counters, so the
/// per-transfer path costs one atomic add per event.
#[derive(Clone, Debug)]
struct SwitchCounters {
    wakes: Counter,
    mispredictions: Counter,
    wifi_bytes: Counter,
    bt_bytes: Counter,
    wifi_up_secs: Gauge,
    wifi_off_secs: Gauge,
    wifi_state: Gauge,
    bt_up_secs: Gauge,
}

/// Dual-radio manager implementing the paper's switching policy.
///
/// # Examples
///
/// ```
/// use gbooster_net::switch::{InterfaceManager, Route};
/// use gbooster_sim::time::SimTime;
///
/// let mut mgr = InterfaceManager::new(true);
/// // Low predicted demand keeps traffic on Bluetooth.
/// mgr.plan(5.0, SimTime::ZERO);
/// let out = mgr.transmit(1000, SimTime::ZERO);
/// assert_eq!(out.route, Route::Bluetooth);
/// ```
#[derive(Clone, Debug)]
pub struct InterfaceManager {
    wifi: WifiIface,
    bt: BluetoothIface,
    wifi_channel: ChannelModel,
    bt_channel: ChannelModel,
    switching_enabled: bool,
    want_wifi: bool,
    lull: u32,
    stats: SwitchStats,
    time_in_state: IfaceTime,
    counters: Option<SwitchCounters>,
}

impl InterfaceManager {
    /// Creates a manager. With `switching_enabled = false` the manager
    /// reproduces the paper's ablation (Fig. 6b): WiFi stays on and
    /// carries everything.
    pub fn new(switching_enabled: bool) -> Self {
        let mut mgr = InterfaceManager {
            wifi: WifiIface::new(),
            bt: BluetoothIface::new(),
            wifi_channel: ChannelModel::wifi_80211n(),
            bt_channel: ChannelModel::bluetooth(),
            switching_enabled,
            want_wifi: !switching_enabled,
            lull: 0,
            stats: SwitchStats::default(),
            time_in_state: IfaceTime::default(),
            counters: None,
        };
        if !switching_enabled {
            // Ablated configuration: WiFi permanently on.
            let ready = mgr.wifi.power_on(SimTime::ZERO);
            mgr.wifi.is_ready(ready);
            mgr.stats.wifi_wakes += 1;
        }
        mgr
    }

    /// The Bluetooth usable budget in Mbps (the predictor threshold).
    pub fn bt_budget_mbps(&self) -> f64 {
        self.bt_channel.bandwidth_mbps() * BT_SAFETY
    }

    /// Mirrors switch events into `registry` from now on. Events that
    /// already happened (e.g. the boot wake of the ablated
    /// configuration) are backfilled, so the registry counters always
    /// equal [`InterfaceManager::stats`].
    pub fn attach_registry(&mut self, registry: &Registry) {
        let counters = SwitchCounters {
            wakes: registry.counter(names::net::WIFI_WAKES),
            mispredictions: registry.counter(names::net::MISPREDICTIONS),
            wifi_bytes: registry.counter(names::net::WIFI_BYTES),
            bt_bytes: registry.counter(names::net::BT_BYTES),
            wifi_up_secs: registry.gauge(names::iface::WIFI_UP_SECS),
            wifi_off_secs: registry.gauge(names::iface::WIFI_OFF_SECS),
            wifi_state: registry.gauge(names::iface::WIFI_STATE),
            bt_up_secs: registry.gauge(names::iface::BT_UP_SECS),
        };
        counters.wakes.add(self.stats.wifi_wakes as u64);
        counters
            .mispredictions
            .add(self.stats.degraded_sends as u64);
        counters.wifi_bytes.add(self.stats.wifi_bytes);
        counters.bt_bytes.add(self.stats.bt_bytes);
        self.counters = Some(counters);
        self.publish_iface_gauges();
    }

    /// Pushes the per-interface time-in-state and power-state gauges.
    fn publish_iface_gauges(&self) {
        let Some(c) = &self.counters else { return };
        c.wifi_up_secs.set(self.time_in_state.wifi_up.as_secs_f64());
        c.wifi_off_secs
            .set(self.time_in_state.wifi_off.as_secs_f64());
        c.bt_up_secs.set(self.time_in_state.bt_up.as_secs_f64());
        c.wifi_state.set(match self.wifi.state() {
            RadioState::Off => 0.0,
            RadioState::Waking(_) => 0.5,
            RadioState::Idle | RadioState::Active => 1.0,
        });
    }

    /// Feeds the predicted demand (Mbps) for the next window; actuates
    /// radio power state. Call once per control interval (the paper
    /// forecasts 500 ms ahead).
    pub fn plan(&mut self, predicted_demand_mbps: f64, now: SimTime) {
        if !self.switching_enabled {
            return;
        }
        if predicted_demand_mbps > self.bt_budget_mbps() {
            self.lull = 0;
            if !self.want_wifi {
                self.want_wifi = true;
                self.stats.wifi_wakes += 1;
                if let Some(c) = &self.counters {
                    c.wakes.inc();
                }
            }
            self.wifi.power_on(now);
        } else {
            self.lull += 1;
            if self.lull >= LULL_TICKS && self.want_wifi {
                self.want_wifi = false;
                self.wifi.power_off(now);
            }
        }
        self.publish_iface_gauges();
    }

    /// Forces `cycles` rapid off→on cycles of the WiFi radio at `now` —
    /// the interface-flap fault for failure injection. Each cycle books
    /// a wake (the real energy/latency cost of flapping) and leaves the
    /// radio waking, so the next send pays the degraded-to-Bluetooth
    /// penalty exactly as a genuine flap would.
    pub fn force_flap(&mut self, now: SimTime, cycles: u32) {
        for _ in 0..cycles {
            self.wifi.power_off(now);
            self.wifi.power_on(now);
            self.stats.wifi_wakes += 1;
            if let Some(c) = &self.counters {
                c.wakes.inc();
            }
        }
        if cycles > 0 {
            self.want_wifi = true;
            self.lull = 0;
        }
        self.publish_iface_gauges();
    }

    /// Transmits `bytes` at `now` over the best available radio.
    pub fn transmit(&mut self, bytes: usize, now: SimTime) -> TxOutcome {
        let wifi_ready = self.wifi.is_ready(now);
        if self.want_wifi && wifi_ready {
            let done_at = self.wifi.transmit(bytes, now, &self.wifi_channel);
            self.account(Route::Wifi, bytes, false);
            TxOutcome {
                done_at,
                route: Route::Wifi,
                degraded: false,
            }
        } else {
            let degraded = self.want_wifi && !wifi_ready;
            let done_at = self.bt.transmit(bytes, now, &self.bt_channel);
            self.account(Route::Bluetooth, bytes, degraded);
            TxOutcome {
                done_at,
                route: Route::Bluetooth,
                degraded,
            }
        }
    }

    fn account(&mut self, route: Route, bytes: usize, degraded: bool) {
        match route {
            Route::Wifi => self.stats.wifi_bytes += bytes as u64,
            Route::Bluetooth => self.stats.bt_bytes += bytes as u64,
        }
        if degraded {
            self.stats.degraded_sends += 1;
        }
        if let Some(c) = &self.counters {
            match route {
                Route::Wifi => c.wifi_bytes.add(bytes as u64),
                Route::Bluetooth => c.bt_bytes.add(bytes as u64),
            }
            if degraded {
                c.mispredictions.inc();
            }
        }
    }

    /// Receives `bytes` at `now` over the best available radio (the
    /// downlink image path).
    pub fn receive(&mut self, bytes: usize, now: SimTime) -> TxOutcome {
        let wifi_ready = self.wifi.is_ready(now);
        if self.want_wifi && wifi_ready {
            let done_at = self.wifi.receive(bytes, now, &self.wifi_channel);
            self.account(Route::Wifi, bytes, false);
            TxOutcome {
                done_at,
                route: Route::Wifi,
                degraded: false,
            }
        } else {
            let degraded = self.want_wifi && !wifi_ready;
            let done_at = self.bt.receive(bytes, now, &self.bt_channel);
            self.account(Route::Bluetooth, bytes, degraded);
            TxOutcome {
                done_at,
                route: Route::Bluetooth,
                degraded,
            }
        }
    }

    /// Accrues idle energy on both radios for `dt` and advances the
    /// per-interface time-in-state ledger.
    pub fn idle_tick(&mut self, dt: SimDuration) {
        self.wifi.idle_tick(dt);
        self.bt.idle_tick(dt);
        if matches!(self.wifi.state(), RadioState::Off) {
            self.time_in_state.wifi_off += dt;
        } else {
            self.time_in_state.wifi_up += dt;
        }
        self.time_in_state.bt_up += dt;
        self.publish_iface_gauges();
    }

    /// Total radio energy consumed so far, in joules.
    pub fn energy_joules(&self) -> f64 {
        self.wifi.energy_joules() + self.bt.energy_joules()
    }

    /// WiFi-only energy (for breakdowns).
    pub fn wifi_energy_joules(&self) -> f64 {
        self.wifi.energy_joules()
    }

    /// Usage statistics.
    pub fn stats(&self) -> SwitchStats {
        self.stats
    }

    /// The WiFi channel model (for transfer-time estimation).
    pub fn wifi_channel(&self) -> &ChannelModel {
        &self.wifi_channel
    }

    /// The Bluetooth channel model.
    pub fn bt_channel(&self) -> &ChannelModel {
        &self.bt_channel
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn low_demand_stays_on_bluetooth() {
        let mut mgr = InterfaceManager::new(true);
        for tick in 0..10u64 {
            mgr.plan(3.0, SimTime::from_millis(tick * 500));
        }
        let out = mgr.transmit(10_000, SimTime::from_secs(5));
        assert_eq!(out.route, Route::Bluetooth);
        assert!(!out.degraded);
        assert_eq!(mgr.stats().wifi_wakes, 0);
    }

    #[test]
    fn predicted_surge_prewakes_wifi() {
        let mut mgr = InterfaceManager::new(true);
        // Prediction fires at t=0; surge materializes 500 ms later —
        // enough to cover even a cold 500 ms wake.
        mgr.plan(40.0, SimTime::ZERO);
        let out = mgr.transmit(100_000, SimTime::from_millis(500));
        assert_eq!(out.route, Route::Wifi);
        assert!(!out.degraded);
        assert_eq!(mgr.stats().wifi_wakes, 1);
    }

    #[test]
    fn missed_prediction_degrades_to_bluetooth() {
        let mut mgr = InterfaceManager::new(true);
        // Surge predicted only as it happens: WiFi still waking.
        mgr.plan(40.0, SimTime::ZERO);
        let out = mgr.transmit(100_000, SimTime::from_millis(50));
        assert_eq!(out.route, Route::Bluetooth);
        assert!(out.degraded, "false negative forces degraded send");
        assert_eq!(mgr.stats().degraded_sends, 1);
        // The same bytes take ~7x longer on Bluetooth.
        let bt_time = mgr.bt_channel().tx_time(100_000);
        let wifi_time = mgr.wifi_channel().tx_time(100_000);
        assert!(bt_time.as_secs_f64() > wifi_time.as_secs_f64() * 5.0);
    }

    #[test]
    fn sustained_lull_powers_wifi_down() {
        let mut mgr = InterfaceManager::new(true);
        mgr.plan(40.0, SimTime::ZERO);
        assert_eq!(mgr.stats().wifi_wakes, 1);
        let mut t = SimTime::from_millis(500);
        for _ in 0..LULL_TICKS {
            mgr.plan(2.0, t);
            t += SimDuration::from_millis(500);
        }
        // Bluetooth by choice, not as a fallback from a waking WiFi.
        let out = mgr.transmit(1000, t);
        assert_eq!(out.route, Route::Bluetooth);
        assert!(!out.degraded);
    }

    #[test]
    fn brief_dip_does_not_flap() {
        let mut mgr = InterfaceManager::new(true);
        mgr.plan(40.0, SimTime::ZERO);
        mgr.plan(2.0, SimTime::from_millis(500)); // one low tick
        mgr.plan(40.0, SimTime::from_millis(1000));
        let out = mgr.transmit(1000, SimTime::from_millis(1000));
        assert_eq!(out.route, Route::Wifi, "hysteresis must absorb brief dips");
        assert_eq!(mgr.stats().wifi_wakes, 1, "no redundant wake");
    }

    #[test]
    fn disabled_switching_always_uses_wifi() {
        let mut mgr = InterfaceManager::new(false);
        mgr.plan(1.0, SimTime::ZERO); // ignored
        let out = mgr.transmit(5000, SimTime::from_secs(1));
        assert_eq!(out.route, Route::Wifi);
    }

    #[test]
    fn disabled_switching_burns_more_idle_energy() {
        let mut with = InterfaceManager::new(true);
        let mut without = InterfaceManager::new(false);
        // One minute of idle gameplay lull.
        for _ in 0..120 {
            with.idle_tick(SimDuration::from_millis(500));
            without.idle_tick(SimDuration::from_millis(500));
        }
        assert!(
            without.energy_joules() > with.energy_joules() * 3.0,
            "with {:.2} J vs without {:.2} J",
            with.energy_joules(),
            without.energy_joules()
        );
    }

    #[test]
    fn registry_counters_mirror_stats() {
        let mut mgr = InterfaceManager::new(true);
        mgr.transmit(1000, SimTime::ZERO); // before attach: backfilled
        let registry = Registry::new();
        mgr.attach_registry(&registry);
        mgr.plan(40.0, SimTime::ZERO);
        mgr.transmit(2000, SimTime::from_millis(10)); // degraded: WiFi waking
        mgr.receive(3000, SimTime::from_secs(2));
        let stats = mgr.stats();
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter(names::net::WIFI_WAKES),
            stats.wifi_wakes as u64
        );
        assert_eq!(
            snap.counter(names::net::MISPREDICTIONS),
            stats.degraded_sends as u64
        );
        assert_eq!(snap.counter(names::net::WIFI_BYTES), stats.wifi_bytes);
        assert_eq!(snap.counter(names::net::BT_BYTES), stats.bt_bytes);
        assert!(stats.degraded_sends >= 1);
    }

    #[test]
    fn time_in_state_gauges_are_visible_in_the_registry() {
        let mut mgr = InterfaceManager::new(true);
        let registry = Registry::new();
        mgr.attach_registry(&registry);
        // 4 s with WiFi off, then wake and 6 s powered.
        for _ in 0..8 {
            mgr.idle_tick(SimDuration::from_millis(500));
        }
        mgr.plan(40.0, SimTime::from_secs(4));
        for _ in 0..12 {
            mgr.idle_tick(SimDuration::from_millis(500));
        }
        let snap = registry.snapshot();
        assert_eq!(snap.gauge(names::iface::WIFI_OFF_SECS), 4.0);
        assert_eq!(snap.gauge(names::iface::WIFI_UP_SECS), 6.0);
        assert_eq!(snap.gauge(names::iface::BT_UP_SECS), 10.0);
        // Nothing has polled readiness since the wake, so the state
        // machine still reports Waking — powered either way.
        assert!(snap.gauge(names::iface::WIFI_STATE) >= 0.5);
    }

    #[test]
    fn wifi_state_gauge_tracks_power_transitions() {
        let mut mgr = InterfaceManager::new(true);
        let registry = Registry::new();
        mgr.attach_registry(&registry);
        assert_eq!(registry.snapshot().gauge(names::iface::WIFI_STATE), 0.0);
        mgr.plan(40.0, SimTime::ZERO); // waking
        assert_eq!(registry.snapshot().gauge(names::iface::WIFI_STATE), 0.5);
        mgr.transmit(100, SimTime::from_secs(1)); // wake finished
        mgr.idle_tick(SimDuration::from_millis(1));
        assert_eq!(registry.snapshot().gauge(names::iface::WIFI_STATE), 1.0);
    }

    #[test]
    fn forced_flap_books_wakes_and_degrades_the_next_send() {
        let mut mgr = InterfaceManager::new(true);
        let registry = Registry::new();
        mgr.attach_registry(&registry);
        mgr.force_flap(SimTime::from_secs(1), 3);
        assert_eq!(mgr.stats().wifi_wakes, 3);
        assert_eq!(registry.snapshot().counter(names::net::WIFI_WAKES), 3);
        // Radio is mid-wake: traffic degrades onto Bluetooth.
        let out = mgr.transmit(1_000, SimTime::from_millis(1_010));
        assert_eq!(out.route, Route::Bluetooth);
        assert!(out.degraded);
    }

    #[test]
    fn byte_accounting_by_route() {
        let mut mgr = InterfaceManager::new(true);
        mgr.transmit(1000, SimTime::ZERO);
        mgr.plan(40.0, SimTime::ZERO);
        mgr.transmit(2000, SimTime::from_secs(1));
        let stats = mgr.stats();
        assert_eq!(stats.bt_bytes, 1000);
        assert_eq!(stats.wifi_bytes, 2000);
    }
}
