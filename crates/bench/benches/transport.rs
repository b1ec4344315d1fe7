//! Criterion benches for the transport substrates: reliable-UDP transfer
//! simulation, the ARMA/ARMAX forecasters, and the Eq. 4 dispatcher.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use gbooster_core::scheduler::{Dispatcher, ServiceNode};
use gbooster_forecast::armax::ArmaxModel;
use gbooster_forecast::ArmaModel;
use gbooster_net::channel::ChannelModel;
use gbooster_net::rudp::{simulate_transfer, RudpConfig};
use gbooster_sim::device::DeviceSpec;
use gbooster_sim::time::{SimDuration, SimTime};

fn bench_rudp(c: &mut Criterion) {
    let clean = {
        let mut ch = ChannelModel::wifi_80211n();
        ch.loss_rate = 0.0;
        ch
    };
    let lossy = ChannelModel::lossy(0.05);
    c.bench_function("rudp_transfer_100kb_clean", |b| {
        b.iter(|| simulate_transfer(black_box(100_000), &clean, RudpConfig::default(), 1))
    });
    c.bench_function("rudp_transfer_100kb_5pct_loss", |b| {
        b.iter(|| simulate_transfer(black_box(100_000), &lossy, RudpConfig::default(), 1))
    });
}

fn bench_forecast(c: &mut Criterion) {
    c.bench_function("arma_observe_forecast", |b| {
        let mut model = ArmaModel::new(3, 2);
        let mut t = 0u64;
        b.iter(|| {
            t += 1;
            model.observe(((t % 37) as f64) + 5.0);
            black_box(model.forecast_next())
        })
    });
    c.bench_function("armax_observe_forecast", |b| {
        let mut model = ArmaxModel::new(3, 2, 2, 2);
        let mut t = 0u64;
        b.iter(|| {
            t += 1;
            let exo = [(t % 11) as f64, (t % 7) as f64];
            model.observe(((t % 37) as f64) + 5.0, &exo);
            black_box(model.forecast_next(&exo))
        })
    });
}

fn bench_dispatcher(c: &mut Criterion) {
    c.bench_function("eq4_dispatch_5_nodes", |b| {
        let mut d = Dispatcher::new(
            DeviceSpec::service_devices()
                .into_iter()
                .cycle()
                .take(5)
                .map(|s| ServiceNode::new(s, SimDuration::from_millis(2)))
                .collect(),
        );
        let mut now = SimTime::ZERO;
        let mut seq = 0u64;
        b.iter(|| {
            now += SimDuration::from_millis(5);
            seq += 1;
            let decision = d.dispatch_for(
                0,
                seq,
                black_box(64_000_000),
                SimDuration::from_millis(10),
                now,
            );
            d.complete_for(decision.node, 0, seq);
            black_box(decision)
        })
    });
}

criterion_group!(benches, bench_rudp, bench_forecast, bench_dispatcher);
criterion_main!(benches);
