//! Lightweight reliable transport over UDP (Section IV-B, ref \[19\]).
//!
//! "Due to its complex retransmission mechanism, TCP possesses an inherent
//! delay … To alleviate the delay, instead of TCP, we select the UDP
//! transportation protocol to provide fast delivery of the graphics
//! commands. To prevent packet loss and out-of-order delivery, we
//! implement a light-weight and reliable transmission mechanism in the
//! application layer."
//!
//! The protocol is UDT-flavoured: sequence-numbered datagrams, cumulative
//! ACKs, a sliding send window, timer-based retransmission, and an
//! in-order reassembly buffer on the receiver. [`RudpSender`] and
//! [`RudpReceiver`] are pure state machines (no I/O), and
//! [`simulate_transfer`] drives them through an event-driven lossy channel
//! to measure end-to-end completion times.
//!
//! Every datagram also carries a 20-byte [`TraceContext`] so the far
//! side can attribute its spans to the right frame. Retransmissions
//! reuse the original datagram's context — a retransmit is the same
//! logical send and must attach to the same span — and acks are
//! timestamped on the receiver's clock, which is what
//! [`ClockOffsetEstimator`] consumes to recover the inter-device clock
//! offset (see [`simulate_transfer_ctx`]).

use std::collections::{BTreeMap, VecDeque};

use gbooster_sim::event::EventQueue;
use gbooster_sim::hash::{fnv1a, FNV1A_OFFSET};
use gbooster_sim::time::{SimDuration, SimTime};
use gbooster_telemetry::{names, ClockOffsetEstimator, Registry, TraceContext};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::channel::ChannelModel;

/// Maximum datagram payload (typical WiFi MTU minus headers).
pub const MTU: usize = 1400;

/// Default retransmission timeout: one round of loss recovery, which
/// the engines also charge per excess retransmission on a lossy link.
pub const DEFAULT_RTO: SimDuration = SimDuration::from_millis(20);

/// Transport configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RudpConfig {
    /// Payload bytes per datagram.
    pub mtu: usize,
    /// Maximum unacknowledged datagrams in flight.
    pub window: usize,
    /// Retransmission timeout.
    pub rto: SimDuration,
}

impl Default for RudpConfig {
    fn default() -> Self {
        RudpConfig {
            mtu: MTU,
            window: 64,
            rto: DEFAULT_RTO,
        }
    }
}

/// A sequence-numbered datagram.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Datagram {
    /// Sequence number (0-based, one per datagram).
    pub seq: u64,
    /// Payload length in bytes.
    pub len: usize,
    /// True if this is a retransmission.
    pub retransmit: bool,
    /// Distributed-tracing context riding in the header
    /// ([`TraceContext::NONE`] when untraced). Retransmissions carry
    /// the original context verbatim.
    pub ctx: TraceContext,
}

/// Exponential-backoff cap: a [`backoff`] interval doubles on each
/// expiry up to `base << MAX_BACKOFF_SHIFT` (8× the base). A sick link
/// thus backs off instead of hammering retransmissions at a fixed
/// cadence, without ever stalling longer than a bounded interval.
pub const MAX_BACKOFF_SHIFT: u32 = 3;

/// Interval before retry `attempts` of `key` (a datagram's sequence
/// number, or a probed node): `base` doubled per prior expiry (capped at
/// `<< MAX_BACKOFF_SHIFT`) plus a deterministic jitter of up to a quarter
/// of `base`. The first try waits the bare base, so a single loss
/// recovers as fast as a fixed timer would; jitter only kicks in on a
/// retry, spreading repeat offenders apart instead of synchronizing
/// them. No RNG: the jitter is an FNV-1a hash of `(key, attempts)`, so a
/// schedule replays identically across runs.
pub fn backoff(base: SimDuration, key: u64, attempts: u32) -> SimDuration {
    let base = base.as_micros();
    let jitter = if attempts == 0 {
        0
    } else {
        let h = fnv1a(
            fnv1a(FNV1A_OFFSET, &key.to_le_bytes()),
            &attempts.to_le_bytes(),
        );
        h % (base / 4).max(1)
    };
    SimDuration::from_micros((base << attempts.min(MAX_BACKOFF_SHIFT)) + jitter)
}

/// One unacknowledged datagram tracked by the sender.
#[derive(Clone, Copy, Debug)]
struct Inflight {
    len: usize,
    /// Most recent transmission time (re-stamped on retransmit).
    sent: SimTime,
    /// Retransmissions so far; selects the backoff step.
    attempts: u32,
    ctx: TraceContext,
}

/// Sender-side protocol machine.
///
/// # Examples
///
/// ```
/// use gbooster_net::rudp::{RudpConfig, RudpSender};
/// use gbooster_sim::time::SimTime;
/// use gbooster_telemetry::TraceContext;
///
/// let mut tx = RudpSender::new(RudpConfig::default());
/// tx.enqueue_traced(3000, TraceContext::NONE); // three datagrams at MTU 1400
/// let pkts = tx.poll_send(SimTime::ZERO);
/// assert_eq!(pkts.len(), 3);
/// tx.on_ack(3); // cumulative ACK covers all three
/// assert!(tx.is_complete());
/// ```
#[derive(Clone, Debug)]
pub struct RudpSender {
    config: RudpConfig,
    next_seq: u64,
    /// Datagram lengths + trace contexts waiting to enter the window.
    queue: VecDeque<(usize, TraceContext)>,
    /// In-flight datagrams by sequence number.
    inflight: BTreeMap<u64, Inflight>,
    /// Lowest unacknowledged sequence number.
    base: u64,
    retransmissions: u64,
}

impl RudpSender {
    /// Creates a sender.
    ///
    /// # Panics
    ///
    /// Panics if the config has a zero MTU or window.
    pub fn new(config: RudpConfig) -> Self {
        assert!(config.mtu > 0 && config.window > 0, "invalid rudp config");
        RudpSender {
            config,
            next_seq: 0,
            queue: VecDeque::new(),
            inflight: BTreeMap::new(),
            base: 0,
            retransmissions: 0,
        }
    }

    /// Splits a `bytes`-long message into datagrams carrying `ctx` and
    /// queues them. Every datagram of the message — including any later
    /// retransmission — will carry this context on the wire.
    pub fn enqueue_traced(&mut self, bytes: usize, ctx: TraceContext) {
        let mut remaining = bytes;
        while remaining > 0 {
            let take = remaining.min(self.config.mtu);
            self.queue.push_back((take, ctx));
            remaining -= take;
        }
        if bytes == 0 {
            self.queue.push_back((0, ctx));
        }
    }

    /// Datagrams to put on the wire now, limited by the send window.
    pub fn poll_send(&mut self, now: SimTime) -> Vec<Datagram> {
        let mut out = Vec::new();
        while self.inflight.len() < self.config.window {
            let Some((len, ctx)) = self.queue.pop_front() else {
                break;
            };
            let seq = self.next_seq;
            self.next_seq += 1;
            self.inflight.insert(
                seq,
                Inflight {
                    len,
                    sent: now,
                    attempts: 0,
                    ctx,
                },
            );
            out.push(Datagram {
                seq,
                len,
                retransmit: false,
                ctx,
            });
        }
        out
    }

    /// Processes a cumulative ACK: everything below `ack_seq` is received.
    pub fn on_ack(&mut self, ack_seq: u64) {
        if ack_seq <= self.base {
            return;
        }
        self.inflight.retain(|&seq, _| seq >= ack_seq);
        self.base = ack_seq;
    }

    /// Datagrams whose backoff deadline expired; re-stamps their send
    /// time and bumps their attempt counter so the next deadline is
    /// further out. The retransmitted datagrams carry the original trace
    /// context.
    pub fn poll_retransmit(&mut self, now: SimTime) -> Vec<Datagram> {
        let mut out = Vec::new();
        let deadlines: Vec<(u64, SimDuration)> = self
            .inflight
            .iter()
            .map(|(&seq, e)| (seq, backoff(self.config.rto, seq, e.attempts)))
            .collect();
        for (seq, rto) in deadlines {
            let entry = self.inflight.get_mut(&seq).expect("inflight entry");
            if now - entry.sent >= rto {
                entry.sent = now;
                entry.attempts += 1;
                out.push(Datagram {
                    seq,
                    len: entry.len,
                    retransmit: true,
                    ctx: entry.ctx,
                });
            }
        }
        self.retransmissions += out.len() as u64;
        out
    }

    /// Earliest pending backoff deadline, if any packet is in flight.
    pub fn next_rto_deadline(&self) -> Option<SimTime> {
        self.inflight
            .iter()
            .map(|(&seq, e)| e.sent + backoff(self.config.rto, seq, e.attempts))
            .min()
    }

    /// Send timestamps of the in-flight datagrams a cumulative ACK for
    /// `seq` would retire (for RTT sampling; uses the most recent
    /// transmission of each datagram).
    pub fn sent_times_below(&self, seq: u64) -> Vec<SimTime> {
        self.inflight.range(..seq).map(|(_, e)| e.sent).collect()
    }

    /// True once every queued datagram is acknowledged.
    pub fn is_complete(&self) -> bool {
        self.queue.is_empty() && self.inflight.is_empty()
    }

    /// Total retransmitted datagrams.
    pub fn retransmissions(&self) -> u64 {
        self.retransmissions
    }
}

/// Receiver-side protocol machine: reorders and delivers in sequence.
#[derive(Clone, Debug, Default)]
pub struct RudpReceiver {
    /// Next sequence number expected in order.
    expected: u64,
    /// Out-of-order datagrams held for reassembly.
    buffer: BTreeMap<u64, Datagram>,
    delivered_bytes: u64,
    duplicates: u64,
}

impl RudpReceiver {
    /// Creates a receiver expecting sequence 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Processes an arriving datagram; returns the cumulative ACK to send
    /// back and the datagrams newly delivered in order — sequence, length
    /// *and* trace context, so a traced consumer can attribute every
    /// in-order delivery to its frame even when the arrival that
    /// completed it was a retransmission.
    pub fn on_datagram_full(&mut self, dg: Datagram) -> (u64, Vec<Datagram>) {
        let mut delivered = Vec::new();
        if dg.seq < self.expected || self.buffer.contains_key(&dg.seq) {
            self.duplicates += 1;
        } else {
            self.buffer.insert(dg.seq, dg);
        }
        while let Some(held) = self.buffer.remove(&self.expected) {
            self.delivered_bytes += held.len as u64;
            delivered.push(held);
            self.expected += 1;
        }
        (self.expected, delivered)
    }

    /// Total bytes delivered in order.
    pub fn delivered_bytes(&self) -> u64 {
        self.delivered_bytes
    }

    /// Duplicate datagrams observed (retransmissions that weren't needed).
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }
}

/// Outcome of an end-to-end simulated transfer.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TransferStats {
    /// Time from first send to final in-order delivery.
    pub completion: SimDuration,
    /// Datagrams sent including retransmissions.
    pub datagrams_sent: u64,
    /// Retransmitted datagrams.
    pub retransmissions: u64,
    /// Bytes delivered.
    pub bytes: u64,
}

#[derive(Debug)]
enum NetEvent {
    /// A datagram reaches the receiver; `sent_at` is when its (most
    /// recent) transmission left the sender, kept for ack timestamping.
    DataArrives {
        dg: Datagram,
        sent_at: SimTime,
    },
    /// A cumulative ACK reaches the sender. `t1` is the send time of
    /// the datagram that triggered the ack, `t2_us` the receiver-clock
    /// timestamp stamped into the ack at delivery — together with the
    /// arrival time they form the NTP quadruple (acks are immediate,
    /// so t3 == t2).
    AckArrives {
        ack: u64,
        t1: SimTime,
        t2_us: i64,
    },
    RtoCheck,
}

/// Clock-synchronization hookup for [`simulate_transfer_ctx`].
///
/// `true_offset_us` is the (service − user) skew the simulation applies
/// when stamping receiver timestamps into acks; the `estimator` sees
/// only the timestamps — never the true offset — and must recover it.
#[derive(Debug)]
pub struct ClockSync<'a> {
    /// Ground-truth receiver-clock skew in µs (may be negative).
    pub true_offset_us: i64,
    /// Estimator fed one quadruple per received ack.
    pub estimator: &'a mut ClockOffsetEstimator,
}

/// Simulates transferring one `bytes`-long message over `channel`,
/// driving the two protocol machines through an event queue with sampled
/// loss and latency. Deterministic for a given `seed`.
pub fn simulate_transfer(
    bytes: usize,
    channel: &ChannelModel,
    config: RudpConfig,
    seed: u64,
) -> TransferStats {
    simulate_transfer_traced(bytes, channel, config, seed, None)
}

/// [`simulate_transfer`] with optional telemetry: when `registry` is
/// given, records datagram/retransmission counters, per-datagram ack
/// RTT samples, and the whole-transfer completion time. Identical
/// protocol behavior either way.
pub fn simulate_transfer_traced(
    bytes: usize,
    channel: &ChannelModel,
    config: RudpConfig,
    seed: u64,
    registry: Option<&Registry>,
) -> TransferStats {
    simulate_transfer_ctx(
        bytes,
        channel,
        config,
        seed,
        registry,
        TraceContext::NONE,
        None,
    )
}

/// The fully-traced transfer simulation: datagrams carry `ctx` on the
/// wire (retransmissions included), and when `clock` is given the
/// receiver stamps its skewed clock into every ack so the caller's
/// [`ClockOffsetEstimator`] can recover the offset. Channel sampling is
/// identical to the untraced path — tracing never changes protocol
/// behavior or timing.
pub fn simulate_transfer_ctx(
    bytes: usize,
    channel: &ChannelModel,
    config: RudpConfig,
    seed: u64,
    registry: Option<&Registry>,
    ctx: TraceContext,
    mut clock: Option<ClockSync<'_>>,
) -> TransferStats {
    gbooster_telemetry::prof_scope!(names::host::RUDP);
    let rtt_hist = registry.map(|r| r.histogram(names::net::RUDP_RTT));
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sender = RudpSender::new(config);
    let mut receiver = RudpReceiver::new();
    sender.enqueue_traced(bytes, ctx);
    let true_offset_us = clock.as_ref().map_or(0, |c| c.true_offset_us);

    let mut queue: EventQueue<NetEvent> = EventQueue::new();
    let mut sent: u64 = 0;
    let mut link_free_at = SimTime::ZERO;
    let mut finish = SimTime::ZERO;

    // Helper inline: schedule initial window.
    let initial = sender.poll_send(SimTime::ZERO);
    for dg in initial {
        sent += 1;
        let start = link_free_at.max(SimTime::ZERO);
        let tx_end = start + channel.tx_time(dg.len);
        link_free_at = tx_end;
        if !channel.should_drop(&mut rng) {
            queue.push(
                tx_end + channel.sample_latency(&mut rng),
                NetEvent::DataArrives { dg, sent_at: start },
            );
        }
    }
    queue.push(SimTime::ZERO + config.rto, NetEvent::RtoCheck);

    let mut guard = 0u64;
    while let Some((now, event)) = queue.pop() {
        guard += 1;
        if guard > 10_000_000 {
            panic!("rudp simulation failed to converge");
        }
        match event {
            NetEvent::DataArrives { dg, sent_at } => {
                let (ack, delivered) = receiver.on_datagram_full(dg);
                for d in &delivered {
                    debug_assert_eq!(d.ctx, ctx, "context must survive the wire");
                }
                if !delivered.is_empty() {
                    finish = now;
                }
                // ACK path (ACKs are tiny; serialization ignored). The
                // receiver stamps its own (skewed) clock into the ack.
                if !channel.should_drop(&mut rng) {
                    queue.push(
                        now + channel.sample_latency(&mut rng),
                        NetEvent::AckArrives {
                            ack,
                            t1: sent_at,
                            t2_us: now.as_micros() as i64 + true_offset_us,
                        },
                    );
                }
            }
            NetEvent::AckArrives { ack, t1, t2_us } => {
                if let Some(c) = clock.as_mut() {
                    c.estimator.observe(
                        t1.as_micros() as i64,
                        t2_us,
                        t2_us,
                        now.as_micros() as i64,
                    );
                }
                if let Some(h) = &rtt_hist {
                    for sent_at in sender.sent_times_below(ack) {
                        h.record_duration(now - sent_at);
                    }
                }
                sender.on_ack(ack);
                if sender.is_complete() {
                    break;
                }
                for dg in sender.poll_send(now) {
                    sent += 1;
                    let start = link_free_at.max(now);
                    let tx_end = start + channel.tx_time(dg.len);
                    link_free_at = tx_end;
                    if !channel.should_drop(&mut rng) {
                        queue.push(
                            tx_end + channel.sample_latency(&mut rng),
                            NetEvent::DataArrives { dg, sent_at: start },
                        );
                    }
                }
            }
            NetEvent::RtoCheck => {
                if sender.is_complete() {
                    continue;
                }
                for dg in sender.poll_retransmit(now) {
                    sent += 1;
                    let start = link_free_at.max(now);
                    let tx_end = start + channel.tx_time(dg.len);
                    link_free_at = tx_end;
                    if !channel.should_drop(&mut rng) {
                        queue.push(
                            tx_end + channel.sample_latency(&mut rng),
                            NetEvent::DataArrives { dg, sent_at: start },
                        );
                    }
                }
                let next = sender
                    .next_rto_deadline()
                    .unwrap_or(now + config.rto)
                    .max(now + SimDuration::from_millis(1));
                queue.push(next, NetEvent::RtoCheck);
            }
        }
    }

    let stats = TransferStats {
        completion: finish - SimTime::ZERO,
        datagrams_sent: sent,
        retransmissions: sender.retransmissions(),
        bytes: receiver.delivered_bytes(),
    };
    if let Some(reg) = registry {
        reg.counter(names::net::RUDP_DATAGRAMS)
            .add(stats.datagrams_sent);
        reg.counter(names::net::RUDP_RETRANSMITS)
            .add(stats.retransmissions);
        reg.histogram(names::net::RUDP_TRANSFER)
            .record_duration(stats.completion);
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sender_splits_messages_at_mtu() {
        let mut tx = RudpSender::new(RudpConfig::default());
        tx.enqueue_traced(MTU * 2 + 1, TraceContext::NONE);
        let pkts = tx.poll_send(SimTime::ZERO);
        assert_eq!(pkts.len(), 3);
        assert_eq!(pkts[0].len, MTU);
        assert_eq!(pkts[2].len, 1);
    }

    #[test]
    fn window_limits_inflight() {
        let mut tx = RudpSender::new(RudpConfig {
            window: 4,
            ..RudpConfig::default()
        });
        tx.enqueue_traced(MTU * 10, TraceContext::NONE);
        assert_eq!(tx.poll_send(SimTime::ZERO).len(), 4);
        assert_eq!(tx.poll_send(SimTime::ZERO).len(), 0, "window full");
        tx.on_ack(2);
        assert_eq!(tx.poll_send(SimTime::ZERO).len(), 2, "window slides");
    }

    #[test]
    fn receiver_reorders_out_of_order_arrivals() {
        let mut rx = RudpReceiver::new();
        let dg = |seq| Datagram {
            seq,
            len: 100,
            retransmit: false,
            ctx: TraceContext::NONE,
        };
        let (ack, delivered) = rx.on_datagram_full(dg(1));
        assert_eq!(ack, 0);
        assert!(delivered.is_empty(), "held for reordering");
        let (ack, delivered) = rx.on_datagram_full(dg(0));
        assert_eq!(ack, 2);
        assert_eq!(delivered.len(), 2, "both delivered in order");
        assert_eq!(rx.delivered_bytes(), 200);
    }

    #[test]
    fn receiver_counts_duplicates() {
        let mut rx = RudpReceiver::new();
        let dg = Datagram {
            seq: 0,
            len: 10,
            retransmit: false,
            ctx: TraceContext::NONE,
        };
        rx.on_datagram_full(dg);
        rx.on_datagram_full(dg);
        assert_eq!(rx.duplicates(), 1);
        assert_eq!(rx.delivered_bytes(), 10);
    }

    #[test]
    fn rto_retransmits_unacked_packets() {
        let cfg = RudpConfig::default();
        let mut tx = RudpSender::new(cfg);
        tx.enqueue_traced(100, TraceContext::NONE);
        tx.poll_send(SimTime::ZERO);
        assert!(tx.poll_retransmit(SimTime::from_millis(5)).is_empty());
        let re = tx.poll_retransmit(SimTime::ZERO + cfg.rto);
        assert_eq!(re.len(), 1);
        assert!(re[0].retransmit);
        assert_eq!(tx.retransmissions(), 1);
    }

    #[test]
    fn retransmit_spacing_backs_off_exponentially_and_caps() {
        let cfg = RudpConfig::default();
        let mut tx = RudpSender::new(cfg);
        tx.enqueue_traced(100, TraceContext::NONE); // one datagram, never acked
        tx.poll_send(SimTime::ZERO);
        let base = cfg.rto.as_micros();
        let mut prev = SimTime::ZERO;
        let mut spacings = Vec::new();
        for _ in 0..8 {
            let deadline = tx.next_rto_deadline().expect("packet in flight");
            let re = tx.poll_retransmit(deadline);
            assert_eq!(re.len(), 1, "deadline must fire exactly one retransmit");
            spacings.push((deadline - prev).as_micros());
            prev = deadline;
        }
        // First timeout is the bare configured RTO: a one-off loss must
        // recover exactly as fast as the fixed-RTO design.
        assert_eq!(spacings[0], base);
        // Backoff grows strictly until the cap...
        for pair in spacings[..=MAX_BACKOFF_SHIFT as usize].windows(2) {
            assert!(pair[1] > pair[0], "spacing must grow: {spacings:?}");
        }
        // ...then every later spacing sits at 8x the base plus at most a
        // quarter-RTO of deterministic jitter.
        for &s in &spacings[MAX_BACKOFF_SHIFT as usize..] {
            assert!(
                s >= base << MAX_BACKOFF_SHIFT && s < (base << MAX_BACKOFF_SHIFT) + base / 4,
                "capped spacing out of range: {spacings:?}"
            );
        }
        // Deterministic: an identical sender replays identical deadlines.
        let mut tx2 = RudpSender::new(cfg);
        tx2.enqueue_traced(100, TraceContext::NONE);
        tx2.poll_send(SimTime::ZERO);
        for _ in 0..8 {
            let d = tx2.next_rto_deadline().unwrap();
            tx2.poll_retransmit(d);
        }
        assert_eq!(tx.next_rto_deadline(), tx2.next_rto_deadline());
    }

    #[test]
    fn lossless_transfer_completes_at_line_rate() {
        let mut ch = ChannelModel::wifi_80211n();
        ch.loss_rate = 0.0;
        ch.jitter = SimDuration::ZERO;
        let bytes = 1_500_000; // ~80 ms at 150 Mbps
        let stats = simulate_transfer(bytes, &ch, RudpConfig::default(), 1);
        assert_eq!(stats.bytes, bytes as u64);
        assert_eq!(stats.retransmissions, 0);
        let ideal = ch.tx_time(bytes).as_secs_f64();
        let actual = stats.completion.as_secs_f64();
        assert!(
            actual < ideal * 1.5 + 0.01,
            "actual {actual:.4}s vs ideal {ideal:.4}s"
        );
    }

    #[test]
    fn lossy_transfer_still_delivers_everything() {
        let ch = ChannelModel::lossy(0.05);
        let bytes = 500_000;
        let stats = simulate_transfer(bytes, &ch, RudpConfig::default(), 7);
        assert_eq!(stats.bytes, bytes as u64, "reliability under 5% loss");
        assert!(stats.retransmissions > 0, "loss must trigger retransmits");
    }

    #[test]
    fn heavy_loss_is_survivable() {
        let ch = ChannelModel::lossy(0.3);
        let stats = simulate_transfer(50_000, &ch, RudpConfig::default(), 3);
        assert_eq!(stats.bytes, 50_000);
    }

    #[test]
    fn higher_loss_costs_more_time() {
        let mut clean = ChannelModel::wifi_80211n();
        clean.loss_rate = 0.0;
        let lossy = ChannelModel::lossy(0.1);
        let a = simulate_transfer(300_000, &clean, RudpConfig::default(), 5);
        let b = simulate_transfer(300_000, &lossy, RudpConfig::default(), 5);
        assert!(b.completion > a.completion);
    }

    #[test]
    fn transfer_is_deterministic_per_seed() {
        let ch = ChannelModel::lossy(0.05);
        let a = simulate_transfer(100_000, &ch, RudpConfig::default(), 11);
        let b = simulate_transfer(100_000, &ch, RudpConfig::default(), 11);
        assert_eq!(a, b);
    }

    #[test]
    fn traced_transfer_matches_untraced_and_fills_registry() {
        let ch = ChannelModel::lossy(0.05);
        let registry = Registry::new();
        let plain = simulate_transfer(200_000, &ch, RudpConfig::default(), 9);
        let traced =
            simulate_transfer_traced(200_000, &ch, RudpConfig::default(), 9, Some(&registry));
        assert_eq!(plain, traced, "telemetry must not change the protocol");
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter(names::net::RUDP_DATAGRAMS),
            traced.datagrams_sent
        );
        assert_eq!(
            snap.counter(names::net::RUDP_RETRANSMITS),
            traced.retransmissions
        );
        let rtt = snap.histogram(names::net::RUDP_RTT).unwrap();
        assert!(rtt.count() > 0, "ack RTTs must be sampled");
        assert!(rtt.quantile(0.5) > 0);
    }

    #[test]
    fn empty_message_completes() {
        let ch = ChannelModel::wifi_80211n();
        let stats = simulate_transfer(0, &ch, RudpConfig::default(), 2);
        assert_eq!(stats.bytes, 0);
    }

    #[test]
    fn retransmissions_carry_the_original_context() {
        let cfg = RudpConfig::default();
        let mut tx = RudpSender::new(cfg);
        let ctx = TraceContext::new(42, 7, 1);
        tx.enqueue_traced(MTU * 2, ctx);
        let first = tx.poll_send(SimTime::ZERO);
        assert!(first.iter().all(|d| d.ctx == ctx && !d.retransmit));
        let re = tx.poll_retransmit(SimTime::ZERO + cfg.rto);
        assert_eq!(re.len(), 2);
        assert!(
            re.iter().all(|d| d.ctx == ctx && d.retransmit),
            "retransmit must reuse the original span's context"
        );
        // Seqs unchanged: same logical sends.
        assert_eq!(
            re.iter().map(|d| d.seq).collect::<Vec<_>>(),
            first.iter().map(|d| d.seq).collect::<Vec<_>>()
        );
    }

    #[test]
    fn out_of_order_delivery_keeps_ctx_to_seq_mapping() {
        let mut rx = RudpReceiver::new();
        // Three datagrams, each with a distinct frame id; deliver 2, 0, 1.
        let dg = |seq: u64| Datagram {
            seq,
            len: 10,
            retransmit: false,
            ctx: TraceContext::new(1, seq, 0),
        };
        let (_, d) = rx.on_datagram_full(dg(2));
        assert!(d.is_empty());
        let (_, d) = rx.on_datagram_full(dg(0));
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].ctx.frame_id, 0);
        let (ack, d) = rx.on_datagram_full(dg(1));
        assert_eq!(ack, 3);
        let frames: Vec<u64> = d.iter().map(|x| x.ctx.frame_id).collect();
        assert_eq!(frames, [1, 2], "in-order delivery, contexts intact");
    }

    #[test]
    fn clock_offset_is_recovered_through_a_lossy_channel() {
        for (true_offset, seed) in [(35_000i64, 4u64), (-80_000, 5), (0, 6)] {
            let ch = ChannelModel::lossy(0.1);
            let mut est = ClockOffsetEstimator::new();
            let stats = simulate_transfer_ctx(
                200_000,
                &ch,
                RudpConfig::default(),
                seed,
                None,
                TraceContext::new(9, 0, 0),
                Some(ClockSync {
                    true_offset_us: true_offset,
                    estimator: &mut est,
                }),
            );
            assert_eq!(stats.bytes, 200_000);
            let got = est.offset_us().expect("acks must produce samples");
            let err = (got - true_offset).abs();
            assert!(
                err < 2_000,
                "offset {true_offset} seed {seed}: estimated {got}, error {err} µs"
            );
        }
    }

    #[test]
    fn clock_sync_does_not_change_the_transfer() {
        let ch = ChannelModel::lossy(0.08);
        let plain = simulate_transfer(150_000, &ch, RudpConfig::default(), 13);
        let mut est = ClockOffsetEstimator::new();
        let synced = simulate_transfer_ctx(
            150_000,
            &ch,
            RudpConfig::default(),
            13,
            None,
            TraceContext::new(3, 1, 0),
            Some(ClockSync {
                true_offset_us: 123_456,
                estimator: &mut est,
            }),
        );
        assert_eq!(plain, synced, "tracing must be purely observational");
    }

    #[test]
    fn stale_ack_is_ignored() {
        let mut tx = RudpSender::new(RudpConfig::default());
        tx.enqueue_traced(MTU * 3, TraceContext::NONE);
        tx.poll_send(SimTime::ZERO);
        tx.on_ack(2);
        tx.on_ack(1); // stale
        assert!(!tx.is_complete());
        tx.on_ack(3);
        assert!(tx.is_complete());
    }
}
