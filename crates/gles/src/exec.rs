//! The software GPU executor (the "OpenGL ES server" of Fig. 3).
//!
//! [`SoftGpu`] consumes [`GlCommand`] streams exactly like the GPU-side
//! server in the paper's client/server model: it maintains a
//! [`GlContext`], rasterizes draws into a framebuffer, and reports the
//! per-frame *workload* (shaded pixels, vertices) that drives the
//! [`gbooster_sim::gpu::GpuModel`] cost model and the Eq. 4 scheduler's
//! request-workload term `r`.
//!
//! Two execution modes trade fidelity for speed:
//!
//! * [`ExecMode::Full`] rasterizes every triangle into real pixels —
//!   used by codec tests, the display path and small scenes.
//! * [`ExecMode::CostOnly`] estimates pixel coverage analytically —
//!   used for long 15-minute game sessions where only the workload
//!   numbers matter.

use std::sync::Arc;

use crate::command::{ClientMemory, GlCommand, IndexSource, VertexSource};
use crate::framebuffer::Framebuffer;
use crate::raster::{draw_triangle, estimate_coverage, DrawStats, RasterState, Vertex};
use crate::state::{FrameStats, GlContext};
use crate::types::{AttribType, Capability, GlError, IndexType, Primitive};

/// Fidelity of the executor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecMode {
    /// Rasterize real pixels.
    Full,
    /// Analytic coverage estimates only (framebuffer untouched by draws).
    CostOnly,
}

/// Workload accumulated over one frame (between `SwapBuffers`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FrameWorkload {
    /// Fragments shaded (or estimated) — the fillrate-bound quantity.
    pub pixels_shaded: u64,
    /// Pixels written to the color buffer (Full mode only).
    pub pixels_written: u64,
    /// Vertices transformed.
    pub vertices: u64,
    /// Draw calls issued.
    pub draw_calls: u32,
    /// Context-derived counters (command count, textures, uploads).
    pub stats: FrameStats,
}

/// A completed frame: the image plus its workload.
#[derive(Clone, Debug)]
pub struct Frame {
    /// The rendered image (black in [`ExecMode::CostOnly`]).
    pub image: Framebuffer,
    /// Workload accumulated while producing it.
    pub workload: FrameWorkload,
}

/// A software OpenGL ES server with a default framebuffer.
///
/// # Examples
///
/// ```
/// use gbooster_gles::command::GlCommand;
/// use gbooster_gles::exec::{ExecMode, SoftGpu};
///
/// let mut gpu = SoftGpu::new(32, 32, ExecMode::Full);
/// gpu.execute(&GlCommand::ClearColor { r: 1.0, g: 1.0, b: 1.0, a: 1.0 })?;
/// gpu.execute(&GlCommand::clear_all())?;
/// let frame = gpu.swap_buffers();
/// assert_eq!(frame.image.pixel(5, 5), [255, 255, 255, 255]);
/// # Ok::<(), gbooster_gles::types::GlError>(())
/// ```
#[derive(Clone, Debug)]
pub struct SoftGpu {
    ctx: GlContext,
    mode: ExecMode,
    back: Framebuffer,
    workload: FrameWorkload,
}

impl SoftGpu {
    /// Creates an executor with a `width`×`height` default framebuffer.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: u32, height: u32, mode: ExecMode) -> Self {
        SoftGpu {
            ctx: GlContext::new(),
            mode,
            back: Framebuffer::new(width, height),
            workload: FrameWorkload::default(),
        }
    }

    /// The context state machine.
    pub fn context(&self) -> &GlContext {
        &self.ctx
    }

    /// Execution fidelity.
    pub fn mode(&self) -> ExecMode {
        self.mode
    }

    /// Executes one command with no client-memory access.
    ///
    /// # Errors
    ///
    /// As [`SoftGpu::execute_mem`]; additionally any draw whose vertex
    /// data still lives in client memory fails with
    /// [`GlError::InvalidOperation`], because the server side never sees
    /// raw client pointers (the forwarder must have materialized them).
    pub fn execute(&mut self, cmd: &GlCommand) -> Result<(), GlError> {
        self.execute_mem(cmd, None)
    }

    /// Executes one command, resolving client-memory vertex pointers
    /// through `mem` (the local-execution path, where the GL driver reads
    /// application RAM directly at draw time).
    ///
    /// # Errors
    ///
    /// Propagates state-machine errors, unresolved pointers, and
    /// out-of-bounds vertex fetches.
    pub fn execute_mem(
        &mut self,
        cmd: &GlCommand,
        mem: Option<&ClientMemory>,
    ) -> Result<(), GlError> {
        self.ctx.apply(cmd)?;
        match cmd {
            GlCommand::Clear(mask) => {
                if mask.color {
                    let c = self.ctx.clear_color();
                    if self.mode == ExecMode::Full {
                        self.back.fill([
                            (c[0].clamp(0.0, 1.0) * 255.0).round() as u8,
                            (c[1].clamp(0.0, 1.0) * 255.0).round() as u8,
                            (c[2].clamp(0.0, 1.0) * 255.0).round() as u8,
                            (c[3].clamp(0.0, 1.0) * 255.0).round() as u8,
                        ]);
                    }
                    self.workload.pixels_shaded += self.back.pixel_count();
                }
                if mask.depth && self.mode == ExecMode::Full {
                    self.back.clear_depth(self.ctx.clear_depth());
                }
            }
            GlCommand::DrawArrays { mode, first, count } => {
                let vertices = self.fetch_vertices_range(*first, *count, mem)?;
                self.rasterize(*mode, &vertices);
            }
            GlCommand::DrawElements {
                mode,
                count,
                index_type,
                indices,
            } => {
                let idx = self.fetch_indices(*count, *index_type, indices)?;
                let max = idx.iter().copied().max().unwrap_or(0);
                let pool = self.fetch_vertices_range(0, max + 1, mem)?;
                let vertices: Vec<Vertex> = idx.iter().map(|&i| pool[i as usize]).collect();
                self.rasterize(*mode, &vertices);
            }
            _ => {}
        }
        Ok(())
    }

    /// Ends the frame: returns the rendered [`Frame`] and resets per-frame
    /// accumulators. Equivalent to the driver-side work of
    /// `eglSwapBuffers`.
    pub fn swap_buffers(&mut self) -> Frame {
        let mut workload = std::mem::take(&mut self.workload);
        workload.stats = self.ctx.end_frame();
        Frame {
            image: self.back.clone(),
            workload,
        }
    }

    fn raster_state(&self) -> RasterState {
        let (x, y, mut w, mut h) = self.ctx.viewport();
        if w == 0 || h == 0 {
            w = self.back.width();
            h = self.back.height();
        }
        let mut state = RasterState::new(self.back.width(), self.back.height());
        state.viewport = (x, y, w, h);
        if self.ctx.is_enabled(Capability::ScissorTest) {
            let (sx, sy, sw, sh) = self.ctx.scissor();
            state.scissor = Some((sx, sy, sw, sh));
        }
        state.depth_test = self.ctx.is_enabled(Capability::DepthTest);
        let (func, mask) = self.ctx.depth_state();
        state.depth_func = func;
        state.depth_write = mask;
        state.blend = self.ctx.is_enabled(Capability::Blend);
        let (src, dst) = self.ctx.blend_func();
        state.blend_src = src;
        state.blend_dst = dst;
        state
    }

    fn rasterize(&mut self, mode: Primitive, vertices: &[Vertex]) {
        self.workload.vertices += vertices.len() as u64;
        self.workload.draw_calls += 1;
        let state = self.raster_state();
        let emit = |gpu: &mut SoftGpu, a: Vertex, b: Vertex, c: Vertex| match gpu.mode {
            ExecMode::Full => {
                let DrawStats {
                    fragments_shaded,
                    pixels_written,
                } = draw_triangle(&mut gpu.back, &state, a, b, c);
                gpu.workload.pixels_shaded += fragments_shaded;
                gpu.workload.pixels_written += pixels_written;
            }
            ExecMode::CostOnly => {
                gpu.workload.pixels_shaded += estimate_coverage(&state, &a, &b, &c);
            }
        };
        match mode {
            Primitive::Triangles => {
                for tri in vertices.chunks_exact(3) {
                    emit(self, tri[0], tri[1], tri[2]);
                }
            }
            Primitive::TriangleStrip => {
                for w in vertices.windows(3) {
                    emit(self, w[0], w[1], w[2]);
                }
            }
            Primitive::TriangleFan => {
                if vertices.len() >= 3 {
                    let hub = vertices[0];
                    for w in vertices[1..].windows(2) {
                        emit(self, hub, w[0], w[1]);
                    }
                }
            }
            Primitive::Points | Primitive::Lines => {
                // Point/line coverage is one fragment per vertex — cheap
                // either way, so we only track the cost.
                self.workload.pixels_shaded += vertices.len() as u64;
            }
        }
    }

    /// Fetches `count` vertices starting at `first` from the position
    /// attribute (slot 0) and optional color attribute (slot 1).
    fn fetch_vertices_range(
        &self,
        first: u32,
        count: u32,
        mem: Option<&ClientMemory>,
    ) -> Result<Vec<Vertex>, GlError> {
        let pos_attrib = self.ctx.attrib(0)?;
        if !pos_attrib.enabled {
            return Err(GlError::InvalidOperation(
                "draw with position attribute (slot 0) disabled".into(),
            ));
        }
        if pos_attrib.ty != AttribType::F32 || pos_attrib.size < 2 {
            return Err(GlError::InvalidOperation(
                "position attribute must be >=2 x F32".into(),
            ));
        }
        let pos_data = self.attrib_bytes(0, mem)?;
        let pos_stride = pos_attrib.effective_stride() as usize;
        let pos_size = pos_attrib.size as usize;

        let color_attrib = self.ctx.attrib(1)?;
        let color_data =
            if color_attrib.enabled && color_attrib.ty == AttribType::F32 && color_attrib.size == 4
            {
                Some((
                    self.attrib_bytes(1, mem)?,
                    color_attrib.effective_stride() as usize,
                ))
            } else {
                None
            };

        let mut out = Vec::with_capacity(count as usize);
        for i in first..first + count {
            let base = i as usize * pos_stride;
            let needed = base + pos_size * 4;
            let bytes = pos_data.as_ref();
            if needed > bytes.len() {
                return Err(GlError::InvalidValue(format!(
                    "vertex {i} reads past end of attribute data ({} bytes)",
                    bytes.len()
                )));
            }
            let read_f32 = |data: &[u8], off: usize| {
                f32::from_le_bytes([data[off], data[off + 1], data[off + 2], data[off + 3]])
            };
            let x = read_f32(bytes, base);
            let y = read_f32(bytes, base + 4);
            let z = if pos_size >= 3 {
                read_f32(bytes, base + 8)
            } else {
                0.0
            };
            let color = if let Some((ref cdata, cstride)) = color_data {
                let cbase = i as usize * cstride;
                let cbytes = cdata.as_ref();
                if cbase + 16 > cbytes.len() {
                    return Err(GlError::InvalidValue(
                        "color attribute data too short".into(),
                    ));
                }
                [
                    read_f32(cbytes, cbase),
                    read_f32(cbytes, cbase + 4),
                    read_f32(cbytes, cbase + 8),
                    read_f32(cbytes, cbase + 12),
                ]
            } else {
                [0.8, 0.8, 0.8, 1.0]
            };
            out.push(Vertex::new([x, y, z], color));
        }
        Ok(out)
    }

    /// Resolves the raw bytes backing attribute `index`.
    fn attrib_bytes(
        &self,
        index: u32,
        mem: Option<&ClientMemory>,
    ) -> Result<Arc<Vec<u8>>, GlError> {
        let attrib = self.ctx.attrib(index)?;
        match attrib.source.as_ref() {
            Some(VertexSource::Materialized(data)) => Ok(Arc::clone(data)),
            Some(VertexSource::BufferOffset(off)) => {
                let buf = self.ctx.buffer(attrib.bound_buffer)?;
                let bytes = buf
                    .data
                    .get(*off as usize..)
                    .ok_or_else(|| GlError::InvalidValue("attrib offset past buffer end".into()))?
                    .to_vec();
                Ok(Arc::new(bytes))
            }
            Some(VertexSource::ClientMemory(ptr)) => {
                let mem = mem.ok_or_else(|| {
                    GlError::InvalidOperation(
                        "server received unmaterialized client pointer".into(),
                    )
                })?;
                // Local path: the driver can see the whole region.
                let mut len = 0;
                // Probe the region length by reading in growing chunks is
                // unnecessary: ClientMemory exposes exact regions, so read
                // the full region via read() with increasing sizes would be
                // O(n^2). Instead rely on read() failing at overrun: fetch
                // as much as exists by binary search is overkill — regions
                // are exact, so read(1) proves existence then we use the
                // arena's region length via successive doubling.
                let mut size = 1usize;
                while mem.read(*ptr, size).is_ok() {
                    len = size;
                    size *= 2;
                }
                // Narrow to exact length.
                let mut lo = len;
                let mut hi = size;
                while lo + 1 < hi {
                    let mid = (lo + hi) / 2;
                    if mem.read(*ptr, mid).is_ok() {
                        lo = mid;
                    } else {
                        hi = mid;
                    }
                }
                Ok(Arc::new(mem.read(*ptr, lo)?.to_vec()))
            }
            None => Err(GlError::InvalidOperation(format!(
                "attribute {index} has no pointer specified"
            ))),
        }
    }

    fn fetch_indices(
        &self,
        count: u32,
        ty: IndexType,
        src: &IndexSource,
    ) -> Result<Vec<u32>, GlError> {
        let bytes: &[u8] = match src {
            IndexSource::Inline(data) => data,
            IndexSource::BufferOffset(off) => {
                let id = self
                    .ctx
                    .buffer_binding(crate::types::BufferTarget::ElementArray);
                if id.is_null() {
                    return Err(GlError::InvalidOperation(
                        "glDrawElements with no element buffer".into(),
                    ));
                }
                let buf = self.ctx.buffer(id)?;
                buf.data
                    .get(*off as usize..)
                    .ok_or_else(|| GlError::InvalidValue("index offset past buffer end".into()))?
            }
        };
        let indices = ty.decode(bytes, count).map_err(GlError::InvalidValue)?;
        Ok(indices.collect())
    }
}

/// Helper building the byte blob for `count` tightly-packed F32 vertices.
///
/// # Examples
///
/// ```
/// let bytes = gbooster_gles::exec::pack_f32(&[0.0, 1.0, -1.0]);
/// assert_eq!(bytes.len(), 12);
/// ```
pub fn pack_f32(values: &[f32]) -> Vec<u8> {
    values.iter().flat_map(|v| v.to_le_bytes()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{ClearMask, ProgramId};

    /// Sets up a linked program and a full-screen triangle in attribute 0.
    fn scene(gpu: &mut SoftGpu) {
        gpu.execute(&GlCommand::CreateProgram(ProgramId(1)))
            .unwrap();
        gpu.execute(&GlCommand::LinkProgram(ProgramId(1))).unwrap();
        gpu.execute(&GlCommand::UseProgram(ProgramId(1))).unwrap();
        gpu.execute(&GlCommand::EnableVertexAttribArray(0)).unwrap();
        let verts = pack_f32(&[-1.0, -1.0, 3.0, -1.0, -1.0, 3.0]);
        gpu.execute(&GlCommand::VertexAttribPointer {
            index: 0,
            size: 2,
            ty: AttribType::F32,
            normalized: false,
            stride: 0,
            source: VertexSource::Materialized(Arc::new(verts)),
        })
        .unwrap();
    }

    #[test]
    fn full_mode_renders_real_pixels() {
        let mut gpu = SoftGpu::new(16, 16, ExecMode::Full);
        scene(&mut gpu);
        gpu.execute(&GlCommand::DrawArrays {
            mode: Primitive::Triangles,
            first: 0,
            count: 3,
        })
        .unwrap();
        let frame = gpu.swap_buffers();
        assert_eq!(frame.image.pixel(8, 8), [204, 204, 204, 255]); // default 0.8 gray
        assert_eq!(frame.workload.pixels_written, 256);
        assert_eq!(frame.workload.draw_calls, 1);
        assert_eq!(frame.workload.vertices, 3);
    }

    #[test]
    fn cost_only_mode_estimates_without_touching_pixels() {
        let mut gpu = SoftGpu::new(16, 16, ExecMode::CostOnly);
        scene(&mut gpu);
        gpu.execute(&GlCommand::DrawArrays {
            mode: Primitive::Triangles,
            first: 0,
            count: 3,
        })
        .unwrap();
        let frame = gpu.swap_buffers();
        assert!(frame.workload.pixels_shaded > 0);
        assert_eq!(frame.workload.pixels_written, 0);
        assert_eq!(frame.image.pixel(8, 8), [0, 0, 0, 255]); // untouched
    }

    #[test]
    fn clear_applies_clear_color_and_costs_fill() {
        let mut gpu = SoftGpu::new(8, 8, ExecMode::Full);
        gpu.execute(&GlCommand::ClearColor {
            r: 0.0,
            g: 1.0,
            b: 0.0,
            a: 1.0,
        })
        .unwrap();
        gpu.execute(&GlCommand::Clear(ClearMask::COLOR)).unwrap();
        let frame = gpu.swap_buffers();
        assert_eq!(frame.image.pixel(0, 0), [0, 255, 0, 255]);
        assert_eq!(frame.workload.pixels_shaded, 64);
    }

    #[test]
    fn draw_elements_indexes_vertices() {
        let mut gpu = SoftGpu::new(16, 16, ExecMode::Full);
        scene(&mut gpu);
        let indices: Vec<u8> = vec![0, 1, 2];
        gpu.execute(&GlCommand::DrawElements {
            mode: Primitive::Triangles,
            count: 3,
            index_type: IndexType::U8,
            indices: IndexSource::Inline(Arc::new(indices)),
        })
        .unwrap();
        let frame = gpu.swap_buffers();
        assert_eq!(frame.workload.pixels_written, 256);
    }

    #[test]
    fn unmaterialized_pointer_on_server_is_rejected() {
        let mut gpu = SoftGpu::new(8, 8, ExecMode::Full);
        gpu.execute(&GlCommand::CreateProgram(ProgramId(1)))
            .unwrap();
        gpu.execute(&GlCommand::LinkProgram(ProgramId(1))).unwrap();
        gpu.execute(&GlCommand::UseProgram(ProgramId(1))).unwrap();
        gpu.execute(&GlCommand::EnableVertexAttribArray(0)).unwrap();
        gpu.execute(&GlCommand::VertexAttribPointer {
            index: 0,
            size: 2,
            ty: AttribType::F32,
            normalized: false,
            stride: 0,
            source: VertexSource::ClientMemory(crate::command::ClientPtr(0x1000)),
        })
        .unwrap();
        let err = gpu
            .execute(&GlCommand::DrawArrays {
                mode: Primitive::Triangles,
                first: 0,
                count: 3,
            })
            .unwrap_err();
        assert!(matches!(err, GlError::InvalidOperation(_)));
    }

    #[test]
    fn client_memory_resolved_on_local_path() {
        let mut gpu = SoftGpu::new(16, 16, ExecMode::Full);
        gpu.execute(&GlCommand::CreateProgram(ProgramId(1)))
            .unwrap();
        gpu.execute(&GlCommand::LinkProgram(ProgramId(1))).unwrap();
        gpu.execute(&GlCommand::UseProgram(ProgramId(1))).unwrap();
        gpu.execute(&GlCommand::EnableVertexAttribArray(0)).unwrap();
        let mut mem = ClientMemory::new();
        let ptr = mem.alloc(pack_f32(&[-1.0, -1.0, 3.0, -1.0, -1.0, 3.0]));
        gpu.execute(&GlCommand::VertexAttribPointer {
            index: 0,
            size: 2,
            ty: AttribType::F32,
            normalized: false,
            stride: 0,
            source: VertexSource::ClientMemory(ptr),
        })
        .unwrap();
        gpu.execute_mem(
            &GlCommand::DrawArrays {
                mode: Primitive::Triangles,
                first: 0,
                count: 3,
            },
            Some(&mem),
        )
        .unwrap();
        let frame = gpu.swap_buffers();
        assert_eq!(frame.workload.pixels_written, 256);
    }

    #[test]
    fn vertex_colors_interpolate() {
        let mut gpu = SoftGpu::new(32, 32, ExecMode::Full);
        scene(&mut gpu);
        gpu.execute(&GlCommand::EnableVertexAttribArray(1)).unwrap();
        let colors = pack_f32(&[
            1.0, 0.0, 0.0, 1.0, //
            0.0, 1.0, 0.0, 1.0, //
            0.0, 0.0, 1.0, 1.0,
        ]);
        gpu.execute(&GlCommand::VertexAttribPointer {
            index: 1,
            size: 4,
            ty: AttribType::F32,
            normalized: false,
            stride: 0,
            source: VertexSource::Materialized(Arc::new(colors)),
        })
        .unwrap();
        gpu.execute(&GlCommand::DrawArrays {
            mode: Primitive::Triangles,
            first: 0,
            count: 3,
        })
        .unwrap();
        let frame = gpu.swap_buffers();
        assert_ne!(frame.image.pixel(1, 30), frame.image.pixel(30, 1));
    }

    #[test]
    fn out_of_bounds_vertex_fetch_is_an_error() {
        let mut gpu = SoftGpu::new(8, 8, ExecMode::Full);
        scene(&mut gpu);
        let err = gpu
            .execute(&GlCommand::DrawArrays {
                mode: Primitive::Triangles,
                first: 0,
                count: 6, // only 3 vertices exist
            })
            .unwrap_err();
        assert!(matches!(err, GlError::InvalidValue(_)));
    }

    #[test]
    fn triangle_strip_assembles_n_minus_two() {
        let mut gpu = SoftGpu::new(16, 16, ExecMode::CostOnly);
        gpu.execute(&GlCommand::CreateProgram(ProgramId(1)))
            .unwrap();
        gpu.execute(&GlCommand::LinkProgram(ProgramId(1))).unwrap();
        gpu.execute(&GlCommand::UseProgram(ProgramId(1))).unwrap();
        gpu.execute(&GlCommand::EnableVertexAttribArray(0)).unwrap();
        let verts = pack_f32(&[-1.0, -1.0, 1.0, -1.0, -1.0, 1.0, 1.0, 1.0]);
        gpu.execute(&GlCommand::VertexAttribPointer {
            index: 0,
            size: 2,
            ty: AttribType::F32,
            normalized: false,
            stride: 0,
            source: VertexSource::Materialized(Arc::new(verts)),
        })
        .unwrap();
        gpu.execute(&GlCommand::DrawArrays {
            mode: Primitive::TriangleStrip,
            first: 0,
            count: 4,
        })
        .unwrap();
        let frame = gpu.swap_buffers();
        assert_eq!(frame.workload.vertices, 4);
        assert!(frame.workload.pixels_shaded > 0);
    }

    #[test]
    fn swap_buffers_resets_workload() {
        let mut gpu = SoftGpu::new(8, 8, ExecMode::Full);
        gpu.execute(&GlCommand::Clear(ClearMask::COLOR)).unwrap();
        let first = gpu.swap_buffers();
        assert!(first.workload.pixels_shaded > 0);
        let second = gpu.swap_buffers();
        assert_eq!(second.workload.pixels_shaded, 0);
    }
}
