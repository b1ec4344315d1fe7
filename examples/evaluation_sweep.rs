//! Full evaluation sweep: every game, both phones, all three execution
//! modes — a one-command tour of the paper's Section VII.
//!
//! ```text
//! cargo run --release --example evaluation_sweep
//! ```

use gbooster::core::config::{ExecutionMode, OffloadConfig, SessionConfig};
use gbooster::core::session::Session;
use gbooster::sim::device::DeviceSpec;
use gbooster::workload::games::GameTitle;

fn main() {
    for phone in [DeviceSpec::nexus5(), DeviceSpec::lg_g5()] {
        println!("==== {} ====", phone.name);
        for game in GameTitle::corpus() {
            let base = || {
                SessionConfig::builder(game.clone(), phone.clone())
                    .duration_secs(45)
                    .seed(11)
            };
            let local = Session::run(&base().build());
            let gb = Session::run(
                &base()
                    .mode(ExecutionMode::Offloaded(OffloadConfig::default()))
                    .build(),
            );
            let cloud = Session::run(&base().mode(ExecutionMode::Cloud).build());
            println!(
                "{:4}  local {:>5.1} fps {:>6.1} ms {:>5.2} W | gbooster {:>5.1} fps {:>6.1} ms {:>5.2} W | cloud {:>5.1} fps {:>6.1} ms",
                game.id,
                local.median_fps,
                local.response_time_ms,
                local.energy.average_power_w(),
                gb.median_fps,
                gb.response_time_ms,
                gb.energy.average_power_w(),
                cloud.median_fps,
                cloud.response_time_ms,
            );
        }
        println!();
    }
    println!("GBooster wins on FPS and response; the cloud baseline streams at 30 fps");
    println!("with Internet-scale latency; local play pays the GPU power bill.");
}
