//! TCP latency model — the transport the paper measures and rejects.
//!
//! Section IV-B: "due to its complex retransmission mechanism, TCP
//! possesses an inherent delay, which is approximately 40 ms in general
//! settings \[18\] and could be significantly higher under a poor network
//! condition." We model that envelope: serialization + RTT + the
//! delayed-ACK penalty, growing under loss (exponential-backoff flavored),
//! for the TCP-vs-RUDP ablation bench.

use gbooster_sim::time::SimDuration;

use crate::channel::ChannelModel;

/// Inherent delayed-ACK/Nagle delay in general settings (ref \[18\]).
pub const DELAYED_ACK: SimDuration = SimDuration::from_millis(40);

/// Latency model of a TCP transfer over `channel`.
#[derive(Clone, Debug)]
pub struct TcpModel {
    channel: ChannelModel,
}

impl TcpModel {
    /// Wraps a channel.
    pub fn new(channel: ChannelModel) -> Self {
        TcpModel { channel }
    }

    /// The underlying channel.
    pub fn channel(&self) -> &ChannelModel {
        &self.channel
    }

    /// Expected completion time of a `bytes` transfer:
    /// serialization + one RTT + delayed-ACK + loss-recovery penalty.
    ///
    /// Loss recovery is modeled as each lost packet stalling the stream
    /// for one RTO (200 ms minimum per RFC 6298).
    pub fn transfer_time(&self, bytes: usize) -> SimDuration {
        let serialization = self.channel.tx_time(bytes);
        let rtt = self.channel.mean_rtt();
        let packets = bytes.div_ceil(1400).max(1) as f64;
        let expected_losses = packets * self.channel.loss_rate;
        let rto = SimDuration::from_millis(200);
        serialization + rtt + DELAYED_ACK + rto * expected_losses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rudp::{simulate_transfer, RudpConfig};

    #[test]
    fn rudp_beats_tcp_for_small_command_batches() {
        // The paper's core transport claim: for the small per-frame
        // command batches GBooster sends, TCP's 40 ms floor dominates
        // while RUDP completes in milliseconds.
        let mut ch = ChannelModel::wifi_80211n();
        ch.loss_rate = 0.0;
        let batch = 20_000; // ~1 frame of compressed commands
        let tcp_time = TcpModel::new(ch.clone()).transfer_time(batch);
        let rudp = simulate_transfer(batch, &ch, RudpConfig::default(), 1);
        assert!(
            rudp.completion.as_millis_f64() * 4.0 < tcp_time.as_millis_f64(),
            "rudp {:.2}ms vs tcp {:.2}ms",
            rudp.completion.as_millis_f64(),
            tcp_time.as_millis_f64()
        );
    }

    #[test]
    fn loss_inflates_tcp_time_sharply() {
        let clean = TcpModel::new(ChannelModel::wifi_80211n()).transfer_time(100_000);
        let lossy = TcpModel::new(ChannelModel::lossy(0.05)).transfer_time(100_000);
        assert!(lossy.as_millis_f64() > clean.as_millis_f64() + 500.0);
    }

    #[test]
    fn serialization_dominates_large_transfers() {
        let tcp = TcpModel::new(ChannelModel::wifi_80211n());
        let t = tcp.transfer_time(15_000_000); // 0.8 s of serialization
        assert!(t.as_secs_f64() > 0.8);
    }
}
