//! Frame-trace synthesis: turning a genre profile into an OpenGL ES
//! command stream.
//!
//! Each generated frame reproduces the statistical structure the paper's
//! mechanisms depend on:
//!
//! * a **stable majority of commands** (static scenery re-drawn with
//!   identical parameters) — what the LRU command cache deduplicates;
//! * an **animated minority** (fresh transform uniforms every frame) —
//!   what still has to cross the network;
//! * **client-memory vertex pointers** on a subset of draws — what forces
//!   the deferred `glVertexAttribPointer` serialization of Section IV-B;
//! * **scene changes** coupled to touch bursts — the exogenous traffic
//!   surges the ARMAX predictor must foresee (Section V-B);
//! * a **workload hint** (complexity-weighted fill pixels) driving the
//!   GPU cost model, calibrated per genre.

use std::sync::Arc;

use gbooster_gles::command::{ClientMemory, ClientPtr, GlCommand, UniformValue, VertexSource};
use gbooster_gles::types::{
    AttribType, BufferId, BufferTarget, BufferUsage, PixelFormat, Primitive, ProgramId, ShaderId,
    ShaderKind, TextureId, TextureTarget, UniformLocation,
};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

use crate::genre::GenreProfile;
use crate::touch::TouchGenerator;

/// Size of the textures games stream in on scene changes.
const SCENE_TEXTURE_SIDE: u32 = 128;

/// One generated frame: the commands plus simulation hints.
#[derive(Clone, Debug, Default)]
pub struct FrameTrace {
    /// The OpenGL ES commands of this frame, ending with `SwapBuffers`.
    pub commands: Vec<GlCommand>,
    /// Complexity-weighted fill pixels (divide by a GPU's fillrate for
    /// render time).
    pub effective_fill: u64,
    /// Raw shaded pixels (for encoder-throughput math).
    pub shaded_pixels: u64,
    /// Fraction of screen pixels that changed versus the previous frame.
    pub changed_pixel_ratio: f64,
    /// CPU giga-cycles of game logic behind this frame.
    pub cpu_gcycles: f64,
    /// Touch events observed during this frame's window.
    pub touches: u32,
    /// True if this frame is a scene change (texture burst, full redraw).
    pub scene_change: bool,
}

/// Generates a deterministic stream of [`FrameTrace`]s for one
/// application session.
///
/// # Examples
///
/// ```
/// use gbooster_workload::genre::GenreProfile;
/// use gbooster_workload::tracegen::TraceGenerator;
///
/// let mut gen = TraceGenerator::new(GenreProfile::puzzle(), 1.0, 640, 480, 7);
/// let setup = gen.setup_trace();
/// assert!(!setup.commands.is_empty());
/// let frame = gen.next_frame(1.0 / 60.0);
/// assert!(frame.commands.last().unwrap().is_swap());
/// ```
#[derive(Debug)]
pub struct TraceGenerator {
    profile: GenreProfile,
    intensity: f64,
    width: u32,
    height: u32,
    rng: StdRng,
    touch: TouchGenerator,
    memory: ClientMemory,
    /// Client-memory quad used by the deferred-pointer draws.
    quad_ptr: ClientPtr,
    /// Stable per-object transform uniforms (static scenery).
    static_mats: Vec<[f32; 16]>,
    frame_index: u64,
    next_texture_id: u32,
    scene_textures: Vec<TextureId>,
    frames_since_scene_change: u64,
    /// High-motion gameplay vs low-motion lulls (menus, cutscenes,
    /// aiming). Lulls shrink the frame delta and the touch rate — the
    /// quiet periods the Bluetooth/WiFi switching exploits (Section V-B).
    high_motion: bool,
}

impl TraceGenerator {
    /// Buffer object holding the shared quad vertex data.
    pub const QUAD_BUFFER: BufferId = BufferId(1);
    /// The linked program every frame uses.
    pub const PROGRAM: ProgramId = ProgramId(1);

    /// Creates a generator for a `width`×`height` session.
    ///
    /// # Panics
    ///
    /// Panics if a dimension is zero or `intensity` is not positive.
    pub fn new(profile: GenreProfile, intensity: f64, width: u32, height: u32, seed: u64) -> Self {
        assert!(width > 0 && height > 0, "resolution must be non-empty");
        assert!(
            intensity.is_finite() && intensity > 0.0,
            "intensity must be positive"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let mut memory = ClientMemory::new();
        let quad_ptr = memory.alloc(Self::quad_bytes());
        let static_mats = (0..profile.draws_per_frame)
            .map(|_| {
                let mut m = [0f32; 16];
                for v in &mut m {
                    *v = rng.gen_range(-1.0..1.0);
                }
                m
            })
            .collect();
        let touch = TouchGenerator::new(profile.touch_rate_hz, seed ^ 0x5eed);
        TraceGenerator {
            profile,
            intensity,
            width,
            height,
            rng,
            touch,
            memory,
            quad_ptr,
            static_mats,
            frame_index: 0,
            next_texture_id: 100,
            scene_textures: Vec::new(),
            frames_since_scene_change: 0,
            high_motion: true,
        }
    }

    fn quad_bytes() -> Vec<u8> {
        // Two triangles covering the unit quad, 2 x f32 per vertex.
        let verts: [f32; 12] = [
            -1.0, -1.0, 1.0, -1.0, -1.0, 1.0, //
            1.0, -1.0, 1.0, 1.0, -1.0, 1.0,
        ];
        verts.iter().flat_map(|v| v.to_le_bytes()).collect()
    }

    /// The genre profile in use.
    pub fn profile(&self) -> &GenreProfile {
        &self.profile
    }

    /// The application's client memory (needed by the forwarder's
    /// deferred-pointer resolver and the local GL driver).
    pub fn client_memory(&self) -> &ClientMemory {
        &self.memory
    }

    /// One-time context setup: shaders, program, quad buffer, initial
    /// texture set. Run through the system before the first frame.
    pub fn setup_trace(&mut self) -> FrameTrace {
        let mut commands = vec![
            GlCommand::CreateShader(ShaderId(1), ShaderKind::Vertex),
            GlCommand::ShaderSource {
                shader: ShaderId(1),
                source: "attribute vec2 pos; uniform mat4 mvp; void main() { \
                         gl_Position = mvp * vec4(pos, 0.0, 1.0); }"
                    .into(),
            },
            GlCommand::CompileShader(ShaderId(1)),
            GlCommand::CreateShader(ShaderId(2), ShaderKind::Fragment),
            GlCommand::ShaderSource {
                shader: ShaderId(2),
                source: "precision mediump float; uniform sampler2D tex; \
                         void main() { gl_FragColor = vec4(0.5); }"
                    .into(),
            },
            GlCommand::CompileShader(ShaderId(2)),
            GlCommand::CreateProgram(Self::PROGRAM),
            GlCommand::AttachShader {
                program: Self::PROGRAM,
                shader: ShaderId(1),
            },
            GlCommand::AttachShader {
                program: Self::PROGRAM,
                shader: ShaderId(2),
            },
            GlCommand::LinkProgram(Self::PROGRAM),
            GlCommand::UseProgram(Self::PROGRAM),
            GlCommand::GenBuffer(Self::QUAD_BUFFER),
            GlCommand::BindBuffer {
                target: BufferTarget::Array,
                buffer: Self::QUAD_BUFFER,
            },
            GlCommand::BufferData {
                target: BufferTarget::Array,
                data: Arc::new(Self::quad_bytes()),
                usage: BufferUsage::StaticDraw,
            },
            GlCommand::EnableVertexAttribArray(0),
            GlCommand::Viewport {
                x: 0,
                y: 0,
                width: self.width,
                height: self.height,
            },
        ];
        for _ in 0..self.profile.texture_count {
            let id = self.alloc_texture(&mut commands);
            self.scene_textures.push(id);
        }
        FrameTrace {
            commands,
            effective_fill: 0,
            shaded_pixels: 0,
            changed_pixel_ratio: 1.0,
            cpu_gcycles: self.profile.cpu_gcycles_per_frame,
            touches: 0,
            scene_change: true,
        }
    }

    fn alloc_texture(&mut self, commands: &mut Vec<GlCommand>) -> TextureId {
        let id = TextureId(self.next_texture_id);
        self.next_texture_id += 1;
        let bytes = (SCENE_TEXTURE_SIDE * SCENE_TEXTURE_SIDE * 4) as usize;
        // Game textures are structured content (gradients, flat regions,
        // dithering) rather than white noise — which is what makes the
        // LZ4 stage effective on asset uploads.
        let phase: u8 = self.rng.gen();
        let mut data = vec![0u8; bytes];
        for (i, b) in data.iter_mut().enumerate() {
            let x = (i / 4) % SCENE_TEXTURE_SIDE as usize;
            let y = (i / 4) / SCENE_TEXTURE_SIDE as usize;
            let base = ((x / 8 + y / 8) as u8).wrapping_mul(16).wrapping_add(phase);
            *b = base ^ (self.rng.gen::<u8>() & 0x01);
        }
        commands.push(GlCommand::GenTexture(id));
        commands.push(GlCommand::BindTexture {
            target: TextureTarget::Texture2D,
            texture: id,
        });
        commands.push(GlCommand::TexImage2D {
            target: TextureTarget::Texture2D,
            level: 0,
            format: PixelFormat::Rgba8,
            width: SCENE_TEXTURE_SIDE,
            height: SCENE_TEXTURE_SIDE,
            data: Arc::new(data),
        });
        id
    }

    /// Generates the next frame for a window of `dt_secs` seconds.
    ///
    /// # Panics
    ///
    /// Panics if `dt_secs` is not positive and finite.
    pub fn next_frame(&mut self, dt_secs: f64) -> FrameTrace {
        let mut frame = FrameTrace::default();
        self.next_frame_into(dt_secs, &mut frame);
        frame
    }

    /// [`Self::next_frame`] into `frame`. Its command list is cleared and
    /// reserved to the frame's exact length, so a caller that keeps
    /// `frame` from one frame to the next allocates no list once it has
    /// held the longest frame.
    ///
    /// # Panics
    ///
    /// As [`Self::next_frame`].
    pub fn next_frame_into(&mut self, dt_secs: f64, frame: &mut FrameTrace) {
        assert!(
            dt_secs.is_finite() && dt_secs > 0.0,
            "frame window must be positive"
        );
        self.frame_index += 1;
        self.frames_since_scene_change += 1;
        // Motion phase transitions: ~8 s of action, ~4 s of lull.
        if self.high_motion {
            if self.rng.gen_bool(0.004) {
                self.high_motion = false;
            }
        } else if self.rng.gen_bool(0.008) {
            self.high_motion = true;
        }
        let raw_touches = self.touch.next_window(dt_secs);
        let touches = if self.high_motion {
            raw_touches
        } else {
            raw_touches / 3
        };

        // Scene changes couple to touch bursts: drastic input changes the
        // scene (the ARMAX exogenous story of Section V-B).
        let burst_boost = if self.touch.in_burst() { 6.0 } else { 1.0 };
        let scene_change = self.frames_since_scene_change > 30
            && self
                .rng
                .gen_bool((self.profile.scene_change_prob * burst_boost).min(1.0));

        let churn = !scene_change
            && self.profile.texture_churn_bytes > 0
            && self.frame_index.is_multiple_of(10);
        // The frame's length, reserved once the uploads are known: the
        // program, the clear and the swap; the uploads; four commands per
        // draw, and a buffer bind on each of the three draws in four that
        // do not read client memory.
        let uploads = if scene_change {
            // Two textures of three commands each, each retiring the
            // oldest texture once the set outgrows `texture_count`.
            let texture_count = self.profile.texture_count as usize;
            6 + (self.scene_textures.len() + 1)
                .saturating_sub(texture_count)
                .min(2)
        } else if churn && !self.scene_textures.is_empty() {
            2
        } else {
            0
        };
        let draws = self.profile.draws_per_frame as usize;
        let commands = &mut frame.commands;
        commands.clear();
        commands.reserve_exact(3 + uploads + 4 * draws + (draws - draws / 4));
        commands.push(GlCommand::UseProgram(Self::PROGRAM));

        if scene_change {
            self.frames_since_scene_change = 0;
            // Stream in a couple of new textures and retire old ones.
            for _ in 0..2 {
                let id = self.alloc_texture(commands);
                if self.scene_textures.len() > self.profile.texture_count as usize {
                    let old = self.scene_textures.remove(0);
                    commands.push(GlCommand::DeleteTexture(old));
                }
                self.scene_textures.push(id);
            }
            // New static layout after the cut.
            for m in &mut self.static_mats {
                for v in m.iter_mut() {
                    *v = self.rng.gen_range(-1.0..1.0);
                }
            }
        } else if churn {
            // Background streaming (mip updates, atlas churn).
            let side = 32u32;
            let phase: u8 = self.rng.gen();
            let mut data = vec![0u8; (side * side * 4) as usize];
            for (i, b) in data.iter_mut().enumerate() {
                *b = ((i / 4) as u8).wrapping_add(phase) ^ (self.rng.gen::<u8>() & 0x01);
            }
            if let Some(&tex) = self.scene_textures.first() {
                commands.push(GlCommand::BindTexture {
                    target: TextureTarget::Texture2D,
                    texture: tex,
                });
                commands.push(GlCommand::TexSubImage2D {
                    target: TextureTarget::Texture2D,
                    level: 0,
                    x: 0,
                    y: 0,
                    width: side,
                    height: side,
                    format: PixelFormat::Rgba8,
                    data: Arc::new(data),
                });
            }
        }

        commands.push(GlCommand::clear_all());

        let animated_fraction = 1.0 - self.profile.command_redundancy;
        for i in 0..self.profile.draws_per_frame {
            let tex = self.scene_textures[i as usize % self.scene_textures.len()];
            commands.push(GlCommand::BindTexture {
                target: TextureTarget::Texture2D,
                texture: tex,
            });
            // Static scenery re-uses a bit-identical transform; animated
            // objects get a fresh matrix every frame.
            let position = (i as f64 + 0.5) / self.profile.draws_per_frame as f64;
            let animated = position < animated_fraction || scene_change;
            let mat = if animated {
                let mut m = self.static_mats[i as usize];
                m[12] = (self.frame_index as f32 * 0.07 + i as f32).sin();
                m[13] = (self.frame_index as f32 * 0.05 + i as f32).cos();
                m
            } else {
                self.static_mats[i as usize]
            };
            commands.push(GlCommand::Uniform {
                location: UniformLocation(0),
                value: UniformValue::Mat4(mat),
            });
            // Every fourth draw sources vertices from client memory,
            // exercising the deferred-pointer path; the rest use the
            // shared buffer object.
            let source = if i % 4 == 3 {
                VertexSource::ClientMemory(self.quad_ptr)
            } else {
                VertexSource::BufferOffset(0)
            };
            if i % 4 != 3 {
                commands.push(GlCommand::BindBuffer {
                    target: BufferTarget::Array,
                    buffer: Self::QUAD_BUFFER,
                });
            }
            commands.push(GlCommand::VertexAttribPointer {
                index: 0,
                size: 2,
                ty: AttribType::F32,
                normalized: false,
                stride: 0,
                source,
            });
            commands.push(GlCommand::DrawArrays {
                mode: Primitive::Triangles,
                first: 0,
                count: 6,
            });
        }
        commands.push(GlCommand::SwapBuffers);

        let changed = if scene_change {
            0.95
        } else {
            let motion_scale = if self.high_motion { 1.0 } else { 0.3 };
            (self.profile.changed_pixel_ratio * motion_scale * self.rng.gen_range(0.8..1.2))
                .min(1.0)
        };
        frame.effective_fill = self
            .profile
            .effective_fill(self.width, self.height, self.intensity);
        frame.shaded_pixels = self.profile.shaded_pixels(self.width, self.height);
        frame.changed_pixel_ratio = changed;
        frame.cpu_gcycles = self.profile.cpu_gcycles_per_frame
            * self.rng.gen_range(0.9..1.1)
            * self.intensity.sqrt();
        frame.touches = touches;
        frame.scene_change = scene_change;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::genre::Genre;
    use gbooster_gles::exec::{ExecMode, SoftGpu};

    fn generator(genre: Genre) -> TraceGenerator {
        TraceGenerator::new(GenreProfile::for_genre(genre), 1.0, 320, 240, 11)
    }

    #[test]
    fn setup_then_frames_execute_cleanly_on_a_soft_gpu() {
        let mut gen = generator(Genre::Action);
        let mut gpu = SoftGpu::new(320, 240, ExecMode::CostOnly);
        let setup = gen.setup_trace();
        for cmd in &setup.commands {
            gpu.execute_mem(cmd, Some(gen.client_memory()))
                .unwrap_or_else(|e| panic!("setup command failed: {e} ({cmd:?})"));
        }
        for _ in 0..30 {
            let frame = gen.next_frame(1.0 / 30.0);
            for cmd in &frame.commands {
                if cmd.is_swap() {
                    gpu.swap_buffers();
                } else {
                    gpu.execute_mem(cmd, Some(gen.client_memory()))
                        .unwrap_or_else(|e| panic!("frame command failed: {e} ({cmd:?})"));
                }
            }
        }
    }

    #[test]
    fn frames_end_with_swap_buffers() {
        let mut gen = generator(Genre::Puzzle);
        gen.setup_trace();
        for _ in 0..10 {
            let frame = gen.next_frame(1.0 / 60.0);
            assert!(frame.commands.last().unwrap().is_swap());
            assert_eq!(
                frame.commands.iter().filter(|c| c.is_swap()).count(),
                1,
                "exactly one swap per frame"
            );
        }
    }

    #[test]
    fn draw_count_matches_profile() {
        let mut gen = generator(Genre::RolePlaying);
        gen.setup_trace();
        let frame = gen.next_frame(1.0 / 30.0);
        let draws = frame.commands.iter().filter(|c| c.is_draw()).count();
        assert_eq!(draws, GenreProfile::role_playing().draws_per_frame as usize);
    }

    #[test]
    fn some_draws_use_client_memory_pointers() {
        let mut gen = generator(Genre::Action);
        gen.setup_trace();
        let frame = gen.next_frame(1.0 / 30.0);
        let unresolved = frame
            .commands
            .iter()
            .filter(|c| c.has_unresolved_pointer())
            .count();
        assert!(unresolved > 0, "deferred-pointer path must be exercised");
    }

    #[test]
    fn consecutive_frames_share_most_commands() {
        // The LRU-cache premise: consecutive frames are highly similar.
        let mut gen = generator(Genre::Puzzle);
        gen.setup_trace();
        let a = gen.next_frame(1.0 / 60.0);
        let b = gen.next_frame(1.0 / 60.0);
        let set_a: std::collections::HashSet<String> =
            a.commands.iter().map(|c| format!("{c:?}")).collect();
        let shared = b
            .commands
            .iter()
            .filter(|c| set_a.contains(&format!("{c:?}")))
            .count();
        let ratio = shared as f64 / b.commands.len() as f64;
        assert!(ratio > 0.7, "inter-frame command redundancy {ratio:.2}");
    }

    #[test]
    fn action_frames_are_less_redundant_than_puzzle() {
        let measure = |genre: Genre| {
            let mut gen = generator(genre);
            gen.setup_trace();
            let a = gen.next_frame(1.0 / 30.0);
            let b = gen.next_frame(1.0 / 30.0);
            let set_a: std::collections::HashSet<String> =
                a.commands.iter().map(|c| format!("{c:?}")).collect();
            b.commands
                .iter()
                .filter(|c| set_a.contains(&format!("{c:?}")))
                .count() as f64
                / b.commands.len() as f64
        };
        assert!(measure(Genre::Action) < measure(Genre::Puzzle));
    }

    #[test]
    fn scene_changes_eventually_occur_and_upload_textures() {
        let mut gen = generator(Genre::Action);
        gen.setup_trace();
        let mut saw_change = false;
        for _ in 0..2000 {
            let frame = gen.next_frame(1.0 / 30.0);
            if frame.scene_change {
                saw_change = true;
                assert!(frame.changed_pixel_ratio > 0.9);
                let uploads = frame
                    .commands
                    .iter()
                    .filter(|c| c.is_texture_upload())
                    .count();
                assert!(uploads >= 2, "scene change must stream textures");
                break;
            }
        }
        assert!(saw_change, "no scene change in 2000 frames");
    }

    #[test]
    fn every_frame_fits_its_reservation() {
        // Scene changes (retiring one texture, then two) and churn
        // uploads change a frame's length; a fresh list must hold the
        // frame without growing, and a reused one grows only to the
        // longest frame so far.
        let mut fresh = generator(Genre::Action);
        let mut reusing = generator(Genre::Action);
        fresh.setup_trace();
        reusing.setup_trace();
        let mut reused = FrameTrace::default();
        let (mut longest, mut scene_changes, mut churns) = (0, 0, 0);
        for _ in 0..2000 {
            let frame = fresh.next_frame(1.0 / 30.0);
            assert_eq!(frame.commands.capacity(), frame.commands.len());
            reusing.next_frame_into(1.0 / 30.0, &mut reused);
            assert_eq!(reused.commands, frame.commands);
            longest = longest.max(frame.commands.len());
            assert_eq!(reused.commands.capacity(), longest);
            scene_changes += usize::from(frame.scene_change);
            churns += usize::from(
                frame
                    .commands
                    .iter()
                    .any(|c| matches!(c, GlCommand::TexSubImage2D { .. })),
            );
        }
        assert!(scene_changes >= 2, "{scene_changes} scene changes");
        assert!(churns > 0, "no churn upload");
    }

    #[test]
    fn workload_hints_match_profile_math() {
        let mut gen = generator(Genre::Action);
        gen.setup_trace();
        let frame = gen.next_frame(1.0 / 30.0);
        let expected = GenreProfile::action().effective_fill(320, 240, 1.0);
        assert_eq!(frame.effective_fill, expected);
        assert!(frame.cpu_gcycles > 0.0);
    }

    #[test]
    fn determinism_per_seed() {
        let mut a = TraceGenerator::new(GenreProfile::action(), 1.0, 320, 240, 5);
        let mut b = TraceGenerator::new(GenreProfile::action(), 1.0, 320, 240, 5);
        a.setup_trace();
        b.setup_trace();
        for _ in 0..20 {
            let fa = a.next_frame(1.0 / 30.0);
            let fb = b.next_frame(1.0 / 30.0);
            assert_eq!(fa.commands, fb.commands);
            assert_eq!(fa.touches, fb.touches);
        }
    }

    #[test]
    #[should_panic(expected = "frame window must be positive")]
    fn zero_dt_panics() {
        let mut gen = generator(Genre::Puzzle);
        gen.next_frame(0.0);
    }
}
