//! The OpenGL ES context state machine.
//!
//! "All OpenGL ES calls are implicitly associated with an OpenGL context
//! parameter, which is essentially a state machine that stores all data
//! related to the rendering process such as the cached textures and vertex
//! programs" (Section VI-B). [`GlContext`] is that state machine; each
//! service device owns one, and GBooster keeps them consistent by
//! replicating state-mutating commands to every device.
//!
//! The context also exposes a [`GlContext::digest`] so tests (and the
//! scheduler's consistency assertions) can verify that two devices that
//! received the same state-mutating stream are bit-identical.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use gbooster_sim::hash::{fnv1a, FNV1A_OFFSET};

use crate::command::{GlCommand, TexParam, UniformValue, VertexSource};
use crate::types::{
    AttribType, BlendFactor, BufferId, BufferTarget, BufferUsage, Capability, DepthFunc,
    FramebufferId, GlError, PixelFormat, ProgramId, ShaderId, ShaderKind, TextureId, TextureTarget,
};

/// A texture object's storage and parameters.
#[derive(Clone, Debug, PartialEq)]
pub struct TextureObject {
    /// Binding target the texture was first bound to.
    pub target: TextureTarget,
    /// Width of level 0 in texels.
    pub width: u32,
    /// Height of level 0 in texels.
    pub height: u32,
    /// Texel format.
    pub format: PixelFormat,
    /// Texel bytes of level 0 (empty until `glTexImage2D`).
    pub data: Arc<Vec<u8>>,
    /// Linear minification filter.
    pub min_linear: bool,
    /// Linear magnification filter.
    pub mag_linear: bool,
    /// Repeat wrapping on S.
    pub wrap_s_repeat: bool,
    /// Repeat wrapping on T.
    pub wrap_t_repeat: bool,
}

/// A buffer object's storage.
#[derive(Clone, Debug, PartialEq)]
pub struct BufferObject {
    /// Raw contents.
    pub data: Arc<Vec<u8>>,
    /// Usage hint from `glBufferData`.
    pub usage: BufferUsage,
}

/// A shader object.
#[derive(Clone, Debug, PartialEq)]
pub struct ShaderObject {
    /// Pipeline stage.
    pub kind: ShaderKind,
    /// GLSL source.
    pub source: String,
    /// Whether `glCompileShader` succeeded.
    pub compiled: bool,
}

/// A program object.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ProgramObject {
    /// Attached shaders.
    pub shaders: Vec<ShaderId>,
    /// Whether `glLinkProgram` succeeded.
    pub linked: bool,
    /// Uniform values by location.
    pub uniforms: BTreeMap<u32, UniformValue>,
}

/// One vertex attribute slot.
#[derive(Clone, Debug, PartialEq)]
pub struct VertexAttrib {
    /// Enabled via `glEnableVertexAttribArray`.
    pub enabled: bool,
    /// Components per vertex.
    pub size: u8,
    /// Component type.
    pub ty: AttribType,
    /// Normalized fixed-point conversion.
    pub normalized: bool,
    /// Byte stride (0 = tight).
    pub stride: u32,
    /// Data source as last specified.
    pub source: Option<VertexSource>,
    /// Buffer bound to `GL_ARRAY_BUFFER` when the pointer was specified.
    pub bound_buffer: BufferId,
}

impl Default for VertexAttrib {
    fn default() -> Self {
        VertexAttrib {
            enabled: false,
            size: 4,
            ty: AttribType::F32,
            normalized: false,
            stride: 0,
            source: None,
            bound_buffer: BufferId::NULL,
        }
    }
}

/// The effective byte stride of one vertex.
impl VertexAttrib {
    /// Stride in bytes, substituting the tight packing size for 0.
    pub fn effective_stride(&self) -> u32 {
        if self.stride != 0 {
            self.stride
        } else {
            self.size as u32 * self.ty.size() as u32
        }
    }
}

/// Per-frame counters used by the ARMAX exogenous inputs (Section V-B):
/// command-sequence length (attribute 2), textures used (attribute 3).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FrameStats {
    /// Commands applied since the last `SwapBuffers`.
    pub command_count: u32,
    /// Distinct textures bound since the last `SwapBuffers`.
    pub textures_used: u32,
    /// Draw calls since the last `SwapBuffers`.
    pub draw_calls: u32,
    /// Bytes of texture data uploaded since the last `SwapBuffers`.
    pub texture_upload_bytes: u64,
}

/// Number of vertex attribute slots (ES 2.0 guarantees at least 8; we
/// model 16, the common implementation limit).
pub const MAX_VERTEX_ATTRIBS: usize = 16;

/// Number of texture units.
pub const MAX_TEXTURE_UNITS: usize = 8;

/// A complete OpenGL ES 2.0 context.
///
/// # Examples
///
/// ```
/// use gbooster_gles::command::GlCommand;
/// use gbooster_gles::state::GlContext;
/// use gbooster_gles::types::ProgramId;
///
/// let mut ctx = GlContext::new();
/// ctx.apply(&GlCommand::CreateProgram(ProgramId(1)))?;
/// ctx.apply(&GlCommand::LinkProgram(ProgramId(1)))?;
/// ctx.apply(&GlCommand::UseProgram(ProgramId(1)))?;
/// assert_eq!(ctx.current_program(), ProgramId(1));
/// # Ok::<(), gbooster_gles::types::GlError>(())
/// ```
#[derive(Clone, Debug)]
pub struct GlContext {
    textures: BTreeMap<u32, TextureObject>,
    buffers: BTreeMap<u32, BufferObject>,
    shaders: BTreeMap<u32, ShaderObject>,
    programs: BTreeMap<u32, ProgramObject>,
    framebuffers: BTreeSet<u32>,

    array_buffer: BufferId,
    element_buffer: BufferId,
    texture_units: [Option<TextureId>; MAX_TEXTURE_UNITS],
    active_unit: u32,
    bound_framebuffer: FramebufferId,
    current_program: ProgramId,

    caps: BTreeSet<Capability>,
    blend_src: BlendFactor,
    blend_dst: BlendFactor,
    depth_func: DepthFunc,
    depth_mask: bool,
    clear_color: [f32; 4],
    clear_depth: f32,
    viewport: (i32, i32, u32, u32),
    scissor: (i32, i32, u32, u32),

    attribs: Vec<VertexAttrib>,

    frame_textures: BTreeSet<u32>,
    frame_stats: FrameStats,
}

impl Default for GlContext {
    fn default() -> Self {
        Self::new()
    }
}

impl GlContext {
    /// Creates a context with ES 2.0 default state.
    pub fn new() -> Self {
        GlContext {
            textures: BTreeMap::new(),
            buffers: BTreeMap::new(),
            shaders: BTreeMap::new(),
            programs: BTreeMap::new(),
            framebuffers: BTreeSet::new(),
            array_buffer: BufferId::NULL,
            element_buffer: BufferId::NULL,
            texture_units: [None; MAX_TEXTURE_UNITS],
            active_unit: 0,
            bound_framebuffer: FramebufferId::NULL,
            current_program: ProgramId::NULL,
            caps: BTreeSet::new(),
            blend_src: BlendFactor::One,
            blend_dst: BlendFactor::Zero,
            depth_func: DepthFunc::Less,
            depth_mask: true,
            clear_color: [0.0, 0.0, 0.0, 0.0],
            clear_depth: 1.0,
            viewport: (0, 0, 0, 0),
            scissor: (0, 0, 0, 0),
            attribs: vec![VertexAttrib::default(); MAX_VERTEX_ATTRIBS],
            frame_textures: BTreeSet::new(),
            frame_stats: FrameStats::default(),
        }
    }

    /// Applies one command to the state machine.
    ///
    /// Rendering commands (`Clear`, draws, `SwapBuffers`) only validate
    /// and update counters here; actual pixel work lives in
    /// [`crate::exec::SoftGpu`].
    ///
    /// # Errors
    ///
    /// Returns a [`GlError`] for references to nonexistent objects or
    /// operations invalid in the current state.
    pub fn apply(&mut self, cmd: &GlCommand) -> Result<(), GlError> {
        self.frame_stats.command_count += 1;
        match cmd {
            GlCommand::GenTexture(id) => {
                self.require_nonnull(id.raw(), "texture")?;
                self.textures.insert(
                    id.raw(),
                    TextureObject {
                        target: TextureTarget::Texture2D,
                        width: 0,
                        height: 0,
                        format: PixelFormat::Rgba8,
                        data: Arc::new(Vec::new()),
                        min_linear: true,
                        mag_linear: true,
                        wrap_s_repeat: true,
                        wrap_t_repeat: true,
                    },
                );
            }
            GlCommand::DeleteTexture(id) => {
                self.textures.remove(&id.raw());
                for unit in &mut self.texture_units {
                    if *unit == Some(*id) {
                        *unit = None;
                    }
                }
            }
            GlCommand::GenBuffer(id) => {
                self.require_nonnull(id.raw(), "buffer")?;
                self.buffers.insert(
                    id.raw(),
                    BufferObject {
                        data: Arc::new(Vec::new()),
                        usage: BufferUsage::StaticDraw,
                    },
                );
            }
            GlCommand::DeleteBuffer(id) => {
                self.buffers.remove(&id.raw());
                if self.array_buffer == *id {
                    self.array_buffer = BufferId::NULL;
                }
                if self.element_buffer == *id {
                    self.element_buffer = BufferId::NULL;
                }
            }
            GlCommand::GenFramebuffer(id) => {
                self.require_nonnull(id.raw(), "framebuffer")?;
                self.framebuffers.insert(id.raw());
            }
            GlCommand::DeleteFramebuffer(id) => {
                self.framebuffers.remove(&id.raw());
                if self.bound_framebuffer == *id {
                    self.bound_framebuffer = FramebufferId::NULL;
                }
            }
            GlCommand::CreateShader(id, kind) => {
                self.require_nonnull(id.raw(), "shader")?;
                self.shaders.insert(
                    id.raw(),
                    ShaderObject {
                        kind: *kind,
                        source: String::new(),
                        compiled: false,
                    },
                );
            }
            GlCommand::ShaderSource { shader, source } => {
                let obj = self.shader_mut(*shader)?;
                obj.source = source.clone();
                obj.compiled = false;
            }
            GlCommand::CompileShader(id) => {
                let obj = self.shader_mut(*id)?;
                if obj.source.is_empty() {
                    return Err(GlError::InvalidOperation(
                        "compiling shader with empty source".into(),
                    ));
                }
                obj.compiled = true;
            }
            GlCommand::DeleteShader(id) => {
                self.shaders.remove(&id.raw());
            }
            GlCommand::CreateProgram(id) => {
                self.require_nonnull(id.raw(), "program")?;
                self.programs.insert(id.raw(), ProgramObject::default());
            }
            GlCommand::AttachShader { program, shader } => {
                if !self.shaders.contains_key(&shader.raw()) {
                    return Err(GlError::InvalidHandle(format!("{shader}")));
                }
                let prog = self.program_mut(*program)?;
                prog.shaders.push(*shader);
            }
            GlCommand::LinkProgram(id) => {
                let prog = self.program_mut(*id)?;
                prog.linked = true;
            }
            GlCommand::UseProgram(id) => {
                if !id.is_null() {
                    let prog = self.program(*id)?;
                    if !prog.linked {
                        return Err(GlError::InvalidOperation(format!(
                            "using unlinked program {id}"
                        )));
                    }
                }
                self.current_program = *id;
            }
            GlCommand::DeleteProgram(id) => {
                self.programs.remove(&id.raw());
                if self.current_program == *id {
                    self.current_program = ProgramId::NULL;
                }
            }
            GlCommand::BindBuffer { target, buffer } => {
                if !buffer.is_null() && !self.buffers.contains_key(&buffer.raw()) {
                    return Err(GlError::InvalidHandle(format!("{buffer}")));
                }
                match target {
                    BufferTarget::Array => self.array_buffer = *buffer,
                    BufferTarget::ElementArray => self.element_buffer = *buffer,
                }
            }
            GlCommand::BufferData {
                target,
                data,
                usage,
            } => {
                let id = self.bound_buffer(*target)?;
                let obj = self
                    .buffers
                    .get_mut(&id.raw())
                    .expect("binding invariant: bound buffer exists");
                obj.data = Arc::clone(data);
                obj.usage = *usage;
            }
            GlCommand::BufferSubData {
                target,
                offset,
                data,
            } => {
                self.check_write_bounds(cmd)?;
                let id = self.buffer_binding(*target);
                let obj = self
                    .buffers
                    .get_mut(&id.raw())
                    .expect("binding invariant: bound buffer exists");
                let start = *offset as usize;
                let mut copy = obj.data.as_ref().clone();
                copy[start..start + data.len()].copy_from_slice(data);
                obj.data = Arc::new(copy);
            }
            GlCommand::ActiveTexture(unit) => {
                if *unit as usize >= MAX_TEXTURE_UNITS {
                    return Err(GlError::InvalidValue(format!("texture unit {unit}")));
                }
                self.active_unit = *unit;
            }
            GlCommand::BindTexture { target, texture } => {
                if !texture.is_null() {
                    let obj = self
                        .textures
                        .get_mut(&texture.raw())
                        .ok_or_else(|| GlError::InvalidHandle(format!("{texture}")))?;
                    obj.target = *target;
                    self.frame_textures.insert(texture.raw());
                }
                self.texture_units[self.active_unit as usize] = if texture.is_null() {
                    None
                } else {
                    Some(*texture)
                };
            }
            GlCommand::TexImage2D {
                format,
                width,
                height,
                data,
                ..
            } => {
                // Dimensions come off the wire: a size past `usize`
                // matches no payload.
                let expected = (*width as usize)
                    .checked_mul(*height as usize)
                    .and_then(|texels| texels.checked_mul(format.bytes_per_pixel()));
                if expected != Some(data.len()) {
                    return Err(GlError::InvalidValue(format!(
                        "glTexImage2D payload {} bytes for {width}x{height} {format:?}",
                        data.len()
                    )));
                }
                self.frame_stats.texture_upload_bytes += data.len() as u64;
                let id = self.bound_texture()?;
                let obj = self
                    .textures
                    .get_mut(&id.raw())
                    .expect("binding invariant: bound texture exists");
                obj.width = *width;
                obj.height = *height;
                obj.format = *format;
                obj.data = Arc::clone(data);
            }
            GlCommand::TexSubImage2D { format, data, .. } => {
                self.frame_stats.texture_upload_bytes += data.len() as u64;
                self.check_write_bounds(cmd)?;
                let obj = self.texture(self.bound_texture()?)?;
                if obj.format != *format {
                    return Err(GlError::InvalidOperation(
                        "glTexSubImage2D format mismatch".into(),
                    ));
                }
                // Storage content update elided beyond metadata: the
                // simulator renders with vertex colors, not texel fetches.
            }
            GlCommand::TexParameter { param, .. } => {
                let id = self.bound_texture()?;
                let obj = self
                    .textures
                    .get_mut(&id.raw())
                    .expect("binding invariant: bound texture exists");
                match param {
                    TexParam::MinFilterLinear(v) => obj.min_linear = *v,
                    TexParam::MagFilterLinear(v) => obj.mag_linear = *v,
                    TexParam::WrapSRepeat(v) => obj.wrap_s_repeat = *v,
                    TexParam::WrapTRepeat(v) => obj.wrap_t_repeat = *v,
                }
            }
            GlCommand::BindFramebuffer(id) => {
                if !id.is_null() && !self.framebuffers.contains(&id.raw()) {
                    return Err(GlError::InvalidHandle(format!("{id}")));
                }
                self.bound_framebuffer = *id;
            }
            GlCommand::FramebufferTexture2D { texture } => {
                if self.bound_framebuffer.is_null() {
                    return Err(GlError::InvalidOperation(
                        "no framebuffer bound for attachment".into(),
                    ));
                }
                if !self.textures.contains_key(&texture.raw()) {
                    return Err(GlError::InvalidHandle(format!("{texture}")));
                }
            }
            GlCommand::Enable(cap) => {
                self.caps.insert(*cap);
            }
            GlCommand::Disable(cap) => {
                self.caps.remove(cap);
            }
            GlCommand::BlendFunc { src, dst } => {
                self.blend_src = *src;
                self.blend_dst = *dst;
            }
            GlCommand::DepthFunc(f) => self.depth_func = *f,
            GlCommand::DepthMask(m) => self.depth_mask = *m,
            GlCommand::ClearColor { r, g, b, a } => self.clear_color = [*r, *g, *b, *a],
            GlCommand::ClearDepth(d) => self.clear_depth = *d,
            GlCommand::Viewport {
                x,
                y,
                width,
                height,
            } => self.viewport = (*x, *y, *width, *height),
            GlCommand::Scissor {
                x,
                y,
                width,
                height,
            } => self.scissor = (*x, *y, *width, *height),
            GlCommand::Uniform { location, value } => {
                if self.current_program.is_null() {
                    return Err(GlError::InvalidOperation(
                        "glUniform with no program in use".into(),
                    ));
                }
                let prog = self
                    .programs
                    .get_mut(&self.current_program.raw())
                    .expect("binding invariant: current program exists");
                prog.uniforms.insert(location.raw(), value.clone());
            }
            GlCommand::EnableVertexAttribArray(i) => {
                self.attrib_mut(*i)?.enabled = true;
            }
            GlCommand::DisableVertexAttribArray(i) => {
                self.attrib_mut(*i)?.enabled = false;
            }
            GlCommand::VertexAttribPointer {
                index,
                size,
                ty,
                normalized,
                stride,
                source,
            } => {
                if !(1..=4).contains(size) {
                    return Err(GlError::InvalidValue(format!("attrib size {size}")));
                }
                if matches!(source, VertexSource::BufferOffset(_)) && self.array_buffer.is_null() {
                    return Err(GlError::InvalidOperation(
                        "buffer-offset pointer with no GL_ARRAY_BUFFER bound".into(),
                    ));
                }
                let bound = self.array_buffer;
                let attrib = self.attrib_mut(*index)?;
                attrib.size = *size;
                attrib.ty = *ty;
                attrib.normalized = *normalized;
                attrib.stride = *stride;
                attrib.source = Some(source.clone());
                attrib.bound_buffer = bound;
            }
            GlCommand::Clear(_) | GlCommand::Finish | GlCommand::Flush => {}
            GlCommand::DrawArrays { count, .. } => {
                self.validate_draw()?;
                if *count == 0 {
                    return Err(GlError::InvalidValue("draw of zero vertices".into()));
                }
                self.frame_stats.draw_calls += 1;
            }
            GlCommand::DrawElements { count, .. } => {
                self.validate_draw()?;
                if *count == 0 {
                    return Err(GlError::InvalidValue("draw of zero vertices".into()));
                }
                self.frame_stats.draw_calls += 1;
            }
            GlCommand::SwapBuffers => {
                self.frame_stats.textures_used = self.frame_textures.len() as u32;
            }
        }
        Ok(())
    }

    /// Checks that a sub-range write lands inside the object it writes
    /// to: a `BufferSubData` range inside the buffer bound to its
    /// target, a `TexSubImage2D` rect inside the texture bound to the
    /// active unit. Every other command passes. [`Self::apply`] checks
    /// this before it writes, and the service boundary's validation pass
    /// checks it to reject a command before it is applied. Offsets and
    /// sizes come off the wire, so their sums are checked, never
    /// wrapped.
    ///
    /// # Errors
    ///
    /// [`GlError::InvalidOperation`] when nothing is bound to write to,
    /// and [`GlError::InvalidValue`] when the range ends outside it.
    pub fn check_write_bounds(&self, cmd: &GlCommand) -> Result<(), GlError> {
        match cmd {
            GlCommand::BufferSubData {
                target,
                offset,
                data,
            } => {
                let size = self.buffer(self.bound_buffer(*target)?)?.data.len();
                if (*offset as usize)
                    .checked_add(data.len())
                    .is_none_or(|end| end > size)
                {
                    return Err(GlError::InvalidValue(format!(
                        "glBufferSubData writes {} bytes at {offset} into buffer of {size}",
                        data.len()
                    )));
                }
            }
            GlCommand::TexSubImage2D {
                x,
                y,
                width,
                height,
                ..
            } => {
                let tex = self.texture(self.bound_texture()?)?;
                let outside =
                    |at: u32, len: u32, size: u32| at.checked_add(len).is_none_or(|end| end > size);
                if outside(*x, *width, tex.width) || outside(*y, *height, tex.height) {
                    return Err(GlError::InvalidValue(
                        "glTexSubImage2D region outside texture".into(),
                    ));
                }
            }
            _ => {}
        }
        Ok(())
    }

    /// Finishes the current frame: returns its stats and resets the
    /// per-frame counters. Call after `SwapBuffers`.
    pub fn end_frame(&mut self) -> FrameStats {
        let mut stats = std::mem::take(&mut self.frame_stats);
        stats.textures_used = self.frame_textures.len() as u32;
        self.frame_textures.clear();
        stats
    }

    /// The program currently in use.
    pub fn current_program(&self) -> ProgramId {
        self.current_program
    }

    /// The buffer bound to `target`, or NULL.
    pub fn buffer_binding(&self, target: BufferTarget) -> BufferId {
        match target {
            BufferTarget::Array => self.array_buffer,
            BufferTarget::ElementArray => self.element_buffer,
        }
    }

    /// Whether `cap` is enabled.
    pub fn is_enabled(&self, cap: Capability) -> bool {
        self.caps.contains(&cap)
    }

    /// Current clear color.
    pub fn clear_color(&self) -> [f32; 4] {
        self.clear_color
    }

    /// Current clear depth.
    pub fn clear_depth(&self) -> f32 {
        self.clear_depth
    }

    /// Current viewport.
    pub fn viewport(&self) -> (i32, i32, u32, u32) {
        self.viewport
    }

    /// Current scissor rectangle.
    pub fn scissor(&self) -> (i32, i32, u32, u32) {
        self.scissor
    }

    /// Current blend function.
    pub fn blend_func(&self) -> (BlendFactor, BlendFactor) {
        (self.blend_src, self.blend_dst)
    }

    /// Current depth function and mask.
    pub fn depth_state(&self) -> (DepthFunc, bool) {
        (self.depth_func, self.depth_mask)
    }

    /// The vertex attribute at `index`.
    ///
    /// # Errors
    ///
    /// Returns [`GlError::InvalidValue`] for an out-of-range slot.
    pub fn attrib(&self, index: u32) -> Result<&VertexAttrib, GlError> {
        self.attribs
            .get(index as usize)
            .ok_or_else(|| GlError::InvalidValue(format!("attrib index {index}")))
    }

    /// Looks up a texture object.
    ///
    /// # Errors
    ///
    /// Returns [`GlError::InvalidHandle`] for unknown handles.
    pub fn texture(&self, id: TextureId) -> Result<&TextureObject, GlError> {
        self.textures
            .get(&id.raw())
            .ok_or_else(|| GlError::InvalidHandle(format!("{id}")))
    }

    /// Looks up a buffer object.
    ///
    /// # Errors
    ///
    /// Returns [`GlError::InvalidHandle`] for unknown handles.
    pub fn buffer(&self, id: BufferId) -> Result<&BufferObject, GlError> {
        self.buffers
            .get(&id.raw())
            .ok_or_else(|| GlError::InvalidHandle(format!("{id}")))
    }

    /// Looks up a program object.
    ///
    /// # Errors
    ///
    /// Returns [`GlError::InvalidHandle`] for unknown handles.
    pub fn program(&self, id: ProgramId) -> Result<&ProgramObject, GlError> {
        self.programs
            .get(&id.raw())
            .ok_or_else(|| GlError::InvalidHandle(format!("{id}")))
    }

    /// Total bytes resident in texture and buffer objects.
    pub fn resident_bytes(&self) -> u64 {
        let tex: u64 = self.textures.values().map(|t| t.data.len() as u64).sum();
        let buf: u64 = self.buffers.values().map(|b| b.data.len() as u64).sum();
        tex + buf
    }

    /// An order-insensitive digest of all context state, for verifying
    /// replica consistency across service devices (Section VI-B).
    pub fn digest(&self) -> u64 {
        let mut h = Fnv(FNV1A_OFFSET);
        for (id, t) in &self.textures {
            h.write_u32(*id);
            h.write_u32(t.width);
            h.write_u32(t.height);
            h.write_bytes(&t.data);
        }
        for (id, b) in &self.buffers {
            h.write_u32(*id);
            h.write_bytes(&b.data);
        }
        for (id, s) in &self.shaders {
            h.write_u32(*id);
            h.write_bytes(s.source.as_bytes());
            h.write_u32(s.compiled as u32);
        }
        for (id, p) in &self.programs {
            h.write_u32(*id);
            h.write_u32(p.linked as u32);
            for (loc, v) in &p.uniforms {
                h.write_u32(*loc);
                h.write_bytes(format!("{v:?}").as_bytes());
            }
        }
        h.write_u32(self.current_program.raw());
        h.write_u32(self.array_buffer.raw());
        h.write_u32(self.element_buffer.raw());
        for &cap in &self.caps {
            h.write_u32(cap as u32);
        }
        h.write_bytes(format!("{:?}{:?}", self.viewport, self.clear_color).as_bytes());
        for a in &self.attribs {
            h.write_bytes(format!("{:?}{}{}", a.enabled, a.size, a.stride).as_bytes());
        }
        h.0
    }

    /// Captures the complete context state for a one-shot resync
    /// transfer: everything a rejoining replica needs to become
    /// bit-identical to the donor without replaying the command history
    /// (cf. the record-and-replay reconstruction in GPUReplay, but
    /// shipped as a state image rather than a log).
    pub fn snapshot(&self) -> StateSnapshot {
        StateSnapshot { ctx: self.clone() }
    }

    /// Reconstructs a context from a [`StateSnapshot`]. The result is
    /// bit-identical to the donor at capture time: same
    /// [`GlContext::digest`], same [`GlContext::resident_bytes`], and it
    /// responds to subsequent commands exactly as the donor would.
    pub fn restore(snap: &StateSnapshot) -> GlContext {
        snap.ctx.clone()
    }

    fn require_nonnull(&self, raw: u32, what: &str) -> Result<(), GlError> {
        if raw == 0 {
            Err(GlError::InvalidValue(format!("cannot create {what} 0")))
        } else {
            Ok(())
        }
    }

    fn bound_buffer(&self, target: BufferTarget) -> Result<BufferId, GlError> {
        let id = self.buffer_binding(target);
        if id.is_null() {
            Err(GlError::InvalidOperation(format!(
                "no buffer bound to {target:?}"
            )))
        } else {
            Ok(id)
        }
    }

    fn bound_texture(&self) -> Result<TextureId, GlError> {
        self.texture_units[self.active_unit as usize].ok_or_else(|| {
            GlError::InvalidOperation(format!("no texture bound to unit {}", self.active_unit))
        })
    }

    fn shader_mut(&mut self, id: ShaderId) -> Result<&mut ShaderObject, GlError> {
        self.shaders
            .get_mut(&id.raw())
            .ok_or_else(|| GlError::InvalidHandle(format!("{id}")))
    }

    fn program_mut(&mut self, id: ProgramId) -> Result<&mut ProgramObject, GlError> {
        self.programs
            .get_mut(&id.raw())
            .ok_or_else(|| GlError::InvalidHandle(format!("{id}")))
    }

    fn attrib_mut(&mut self, index: u32) -> Result<&mut VertexAttrib, GlError> {
        self.attribs
            .get_mut(index as usize)
            .ok_or_else(|| GlError::InvalidValue(format!("attrib index {index}")))
    }

    fn validate_draw(&self) -> Result<(), GlError> {
        if self.current_program.is_null() {
            return Err(GlError::InvalidOperation("draw with no program".into()));
        }
        Ok(())
    }
}

/// A serializable image of a [`GlContext`] — every texture, buffer,
/// shader, program, attrib slot, and binding — used to bring a
/// rejoining service device current in one transfer (Section VI-B's
/// replication invariant, re-established without history replay).
///
/// The image is a frozen copy of the context itself, so it cannot drift
/// from the context's own declaration. The copy stays private: commands
/// cannot be applied to a snapshot, and consumers go through
/// [`GlContext::restore`] and the wire-cost accessors below.
#[derive(Clone, Debug)]
pub struct StateSnapshot {
    ctx: GlContext,
}

/// Serialized per-object header overheads for the wire-cost model: a
/// resync ships each object's payload plus a fixed header (id, kind,
/// dimensions, parameters), and a fixed block for scalar state.
const SNAP_TEXTURE_HEADER: u64 = 32;
const SNAP_BUFFER_HEADER: u64 = 16;
const SNAP_SHADER_HEADER: u64 = 12;
const SNAP_PROGRAM_HEADER: u64 = 12;
const SNAP_UNIFORM_BYTES: u64 = 8 + 64;
const SNAP_ATTRIB_BYTES: u64 = 24;
const SNAP_SCALAR_BLOCK: u64 = 128;

impl StateSnapshot {
    /// Deterministic wire cost of shipping this snapshot: object
    /// payloads (texture texels, buffer contents, shader source) plus
    /// per-object headers and the scalar-state block. This is what the
    /// session charges the uplink for a rejoin resync.
    pub fn wire_bytes(&self) -> u64 {
        self.wire_cost(None)
    }

    /// Wire cost of shipping this snapshot to a destination that
    /// already holds `base` — the incremental checkpoint used by live
    /// migration (docs/MIGRATION.md). Objects byte-identical in `base`
    /// (typically the immutable setup segment a shared-cache replica
    /// already holds) are skipped; anything new or mutated ships in
    /// full, and the scalar-state block (bindings, blend/depth,
    /// viewport) always travels. Deletions ride inside the scalar
    /// block as id lists and carry no per-object payload.
    ///
    /// Invariants: `delta_wire_bytes(base) <= wire_bytes()` for any
    /// base, and a snapshot's delta against itself is exactly the
    /// scalar block.
    pub fn delta_wire_bytes(&self, base: &StateSnapshot) -> u64 {
        self.wire_cost(Some(&base.ctx))
    }

    /// The wire-cost model: every object `base` does not hold
    /// byte-identically (all of them with no base) pays its header and
    /// payload, plus the scalar block.
    fn wire_cost(&self, base: Option<&GlContext>) -> u64 {
        fn changed<'a, V: PartialEq>(
            ours: &'a BTreeMap<u32, V>,
            base: Option<&'a BTreeMap<u32, V>>,
        ) -> impl Iterator<Item = &'a V> {
            ours.iter()
                .filter(move |(id, obj)| base.is_none_or(|b| b.get(id) != Some(obj)))
                .map(|(_, obj)| obj)
        }
        let ours = &self.ctx;
        let textures: u64 = changed(&ours.textures, base.map(|b| &b.textures))
            .map(|t| SNAP_TEXTURE_HEADER + t.data.len() as u64)
            .sum();
        let buffers: u64 = changed(&ours.buffers, base.map(|b| &b.buffers))
            .map(|b| SNAP_BUFFER_HEADER + b.data.len() as u64)
            .sum();
        let shaders: u64 = changed(&ours.shaders, base.map(|b| &b.shaders))
            .map(|s| SNAP_SHADER_HEADER + s.source.len() as u64)
            .sum();
        let programs: u64 = changed(&ours.programs, base.map(|b| &b.programs))
            .map(|p| {
                SNAP_PROGRAM_HEADER
                    + p.shaders.len() as u64 * 4
                    + p.uniforms.len() as u64 * SNAP_UNIFORM_BYTES
            })
            .sum();
        let framebuffers = (ours.framebuffers.iter())
            .filter(|id| base.is_none_or(|b| !b.framebuffers.contains(id)))
            .count() as u64
            * 8;
        let attribs = (ours.attribs.iter().enumerate())
            .filter(|(i, a)| base.is_none_or(|b| b.attribs.get(*i) != Some(*a)))
            .count() as u64
            * SNAP_ATTRIB_BYTES;
        textures + buffers + shaders + programs + framebuffers + attribs + SNAP_SCALAR_BLOCK
    }
}

/// Streaming FNV-1a over the context's fields.
struct Fnv(u64);

impl Fnv {
    fn write_bytes(&mut self, bytes: &[u8]) {
        self.0 = fnv1a(self.0, bytes);
    }
    fn write_u32(&mut self, v: u32) {
        self.write_bytes(&v.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::ClientPtr;

    fn linked_program(ctx: &mut GlContext, id: u32) {
        ctx.apply(&GlCommand::CreateProgram(ProgramId(id))).unwrap();
        ctx.apply(&GlCommand::LinkProgram(ProgramId(id))).unwrap();
        ctx.apply(&GlCommand::UseProgram(ProgramId(id))).unwrap();
    }

    #[test]
    fn program_lifecycle() {
        let mut ctx = GlContext::new();
        ctx.apply(&GlCommand::CreateShader(ShaderId(1), ShaderKind::Vertex))
            .unwrap();
        ctx.apply(&GlCommand::ShaderSource {
            shader: ShaderId(1),
            source: "void main(){}".into(),
        })
        .unwrap();
        ctx.apply(&GlCommand::CompileShader(ShaderId(1))).unwrap();
        ctx.apply(&GlCommand::CreateProgram(ProgramId(2))).unwrap();
        ctx.apply(&GlCommand::AttachShader {
            program: ProgramId(2),
            shader: ShaderId(1),
        })
        .unwrap();
        ctx.apply(&GlCommand::LinkProgram(ProgramId(2))).unwrap();
        ctx.apply(&GlCommand::UseProgram(ProgramId(2))).unwrap();
        assert_eq!(ctx.current_program(), ProgramId(2));
    }

    #[test]
    fn using_unlinked_program_fails() {
        let mut ctx = GlContext::new();
        ctx.apply(&GlCommand::CreateProgram(ProgramId(1))).unwrap();
        let err = ctx.apply(&GlCommand::UseProgram(ProgramId(1))).unwrap_err();
        assert!(matches!(err, GlError::InvalidOperation(_)));
    }

    #[test]
    fn compiling_empty_shader_fails() {
        let mut ctx = GlContext::new();
        ctx.apply(&GlCommand::CreateShader(ShaderId(1), ShaderKind::Fragment))
            .unwrap();
        assert!(ctx.apply(&GlCommand::CompileShader(ShaderId(1))).is_err());
    }

    #[test]
    fn buffer_data_requires_binding() {
        let mut ctx = GlContext::new();
        let err = ctx
            .apply(&GlCommand::BufferData {
                target: BufferTarget::Array,
                data: Arc::new(vec![0; 4]),
                usage: BufferUsage::StaticDraw,
            })
            .unwrap_err();
        assert!(matches!(err, GlError::InvalidOperation(_)));
    }

    #[test]
    fn buffer_sub_data_bounds_checked() {
        let mut ctx = GlContext::new();
        ctx.apply(&GlCommand::GenBuffer(BufferId(1))).unwrap();
        ctx.apply(&GlCommand::BindBuffer {
            target: BufferTarget::Array,
            buffer: BufferId(1),
        })
        .unwrap();
        ctx.apply(&GlCommand::BufferData {
            target: BufferTarget::Array,
            data: Arc::new(vec![0; 8]),
            usage: BufferUsage::DynamicDraw,
        })
        .unwrap();
        ctx.apply(&GlCommand::BufferSubData {
            target: BufferTarget::Array,
            offset: 4,
            data: Arc::new(vec![9; 4]),
        })
        .unwrap();
        assert_eq!(ctx.buffer(BufferId(1)).unwrap().data[4], 9);
        let err = ctx
            .apply(&GlCommand::BufferSubData {
                target: BufferTarget::Array,
                offset: 6,
                data: Arc::new(vec![9; 4]),
            })
            .unwrap_err();
        assert!(matches!(err, GlError::InvalidValue(_)));
    }

    #[test]
    fn tex_image_payload_validated() {
        let mut ctx = GlContext::new();
        ctx.apply(&GlCommand::GenTexture(TextureId(1))).unwrap();
        ctx.apply(&GlCommand::BindTexture {
            target: TextureTarget::Texture2D,
            texture: TextureId(1),
        })
        .unwrap();
        let err = ctx
            .apply(&GlCommand::TexImage2D {
                target: TextureTarget::Texture2D,
                level: 0,
                format: PixelFormat::Rgba8,
                width: 2,
                height: 2,
                data: Arc::new(vec![0; 15]), // should be 16
            })
            .unwrap_err();
        assert!(matches!(err, GlError::InvalidValue(_)));
    }

    /// A context with a `w`×`h` RGBA texture bound to unit 0 and a
    /// 16-byte buffer bound to `GL_ARRAY_BUFFER`.
    fn bound_storage(w: u32, h: u32) -> GlContext {
        let mut ctx = GlContext::new();
        for cmd in [
            GlCommand::GenTexture(TextureId(1)),
            GlCommand::BindTexture {
                target: TextureTarget::Texture2D,
                texture: TextureId(1),
            },
            GlCommand::TexImage2D {
                target: TextureTarget::Texture2D,
                level: 0,
                format: PixelFormat::Rgba8,
                width: w,
                height: h,
                data: Arc::new(vec![0; (w * h * 4) as usize]),
            },
            GlCommand::GenBuffer(BufferId(1)),
            GlCommand::BindBuffer {
                target: BufferTarget::Array,
                buffer: BufferId(1),
            },
            GlCommand::BufferData {
                target: BufferTarget::Array,
                data: Arc::new(vec![0; 16]),
                usage: BufferUsage::DynamicDraw,
            },
        ] {
            ctx.apply(&cmd).unwrap();
        }
        ctx
    }

    #[test]
    fn tex_image_size_overflow_is_an_error() {
        // 2^31 × 2^31 RGBA texels is 2^64 bytes: the product must not
        // wrap to 0 and match the empty payload.
        let mut ctx = bound_storage(4, 4);
        let before = ctx.digest();
        let err = ctx
            .apply(&GlCommand::TexImage2D {
                target: TextureTarget::Texture2D,
                level: 0,
                format: PixelFormat::Rgba8,
                width: 1 << 31,
                height: 1 << 31,
                data: Arc::new(Vec::new()),
            })
            .unwrap_err();
        assert!(matches!(err, GlError::InvalidValue(_)), "{err:?}");
        assert_eq!(ctx.digest(), before);
    }

    #[test]
    fn sub_range_write_overflow_is_an_error() {
        let mut ctx = bound_storage(4, 4);
        let before = ctx.digest();
        let rect = |x, y, width, height| GlCommand::TexSubImage2D {
            target: TextureTarget::Texture2D,
            level: 0,
            x,
            y,
            width,
            height,
            format: PixelFormat::Rgba8,
            data: Arc::new(vec![0; 4]),
        };
        let range = |offset, len| GlCommand::BufferSubData {
            target: BufferTarget::Array,
            offset,
            data: Arc::new(vec![1; len]),
        };
        // Each sum passes `u32::MAX` (the buffer range's only where
        // `usize` is 32 bits); wrapped, it would land inside.
        for cmd in [
            rect(u32::MAX, 0, 1, 1),
            rect(0, u32::MAX, 1, 1),
            rect(1, 0, u32::MAX, 1),
            range(u32::MAX, 1),
        ] {
            assert!(matches!(
                ctx.check_write_bounds(&cmd),
                Err(GlError::InvalidValue(_))
            ));
            assert!(matches!(ctx.apply(&cmd), Err(GlError::InvalidValue(_))));
        }
        assert_eq!(ctx.digest(), before);
        // Ranges that end exactly at the edge are inside.
        for cmd in [rect(3, 3, 1, 1), range(12, 4)] {
            ctx.check_write_bounds(&cmd).unwrap();
            ctx.apply(&cmd).unwrap();
        }
    }

    #[test]
    fn draw_requires_program() {
        let mut ctx = GlContext::new();
        let err = ctx
            .apply(&GlCommand::DrawArrays {
                mode: crate::types::Primitive::Triangles,
                first: 0,
                count: 3,
            })
            .unwrap_err();
        assert!(matches!(err, GlError::InvalidOperation(_)));
    }

    #[test]
    fn frame_stats_count_textures_and_draws() {
        let mut ctx = GlContext::new();
        linked_program(&mut ctx, 1);
        for id in [1u32, 2, 3] {
            ctx.apply(&GlCommand::GenTexture(TextureId(id))).unwrap();
            ctx.apply(&GlCommand::BindTexture {
                target: TextureTarget::Texture2D,
                texture: TextureId(id),
            })
            .unwrap();
        }
        // Rebind texture 1: distinct count stays 3.
        ctx.apply(&GlCommand::BindTexture {
            target: TextureTarget::Texture2D,
            texture: TextureId(1),
        })
        .unwrap();
        ctx.apply(&GlCommand::DrawArrays {
            mode: crate::types::Primitive::Triangles,
            first: 0,
            count: 3,
        })
        .unwrap();
        ctx.apply(&GlCommand::SwapBuffers).unwrap();
        let stats = ctx.end_frame();
        assert_eq!(stats.textures_used, 3);
        assert_eq!(stats.draw_calls, 1);
        assert!(stats.command_count >= 9);
        // Counters reset for the next frame.
        let next = ctx.end_frame();
        assert_eq!(next.draw_calls, 0);
        assert_eq!(next.textures_used, 0);
    }

    #[test]
    fn vertex_attrib_pointer_records_source() {
        let mut ctx = GlContext::new();
        ctx.apply(&GlCommand::VertexAttribPointer {
            index: 2,
            size: 3,
            ty: AttribType::F32,
            normalized: false,
            stride: 0,
            source: VertexSource::ClientMemory(ClientPtr(0x1000)),
        })
        .unwrap();
        let a = ctx.attrib(2).unwrap();
        assert_eq!(a.effective_stride(), 12);
        assert!(matches!(a.source, Some(VertexSource::ClientMemory(_))));
    }

    #[test]
    fn buffer_offset_pointer_requires_bound_array_buffer() {
        let mut ctx = GlContext::new();
        let err = ctx
            .apply(&GlCommand::VertexAttribPointer {
                index: 0,
                size: 2,
                ty: AttribType::F32,
                normalized: false,
                stride: 0,
                source: VertexSource::BufferOffset(0),
            })
            .unwrap_err();
        assert!(matches!(err, GlError::InvalidOperation(_)));
    }

    #[test]
    fn identical_streams_produce_identical_digests() {
        let stream = |ctx: &mut GlContext| {
            ctx.apply(&GlCommand::GenBuffer(BufferId(1))).unwrap();
            ctx.apply(&GlCommand::BindBuffer {
                target: BufferTarget::Array,
                buffer: BufferId(1),
            })
            .unwrap();
            ctx.apply(&GlCommand::BufferData {
                target: BufferTarget::Array,
                data: Arc::new(vec![1, 2, 3]),
                usage: BufferUsage::StaticDraw,
            })
            .unwrap();
            ctx.apply(&GlCommand::ClearColor {
                r: 0.5,
                g: 0.25,
                b: 0.125,
                a: 1.0,
            })
            .unwrap();
        };
        let mut a = GlContext::new();
        let mut b = GlContext::new();
        stream(&mut a);
        stream(&mut b);
        assert_eq!(a.digest(), b.digest());
        // Divergence is detected.
        a.apply(&GlCommand::Enable(Capability::Blend)).unwrap();
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn deleting_bound_objects_unbinds_them() {
        let mut ctx = GlContext::new();
        linked_program(&mut ctx, 7);
        ctx.apply(&GlCommand::DeleteProgram(ProgramId(7))).unwrap();
        assert!(ctx.current_program().is_null());
        ctx.apply(&GlCommand::GenBuffer(BufferId(3))).unwrap();
        ctx.apply(&GlCommand::BindBuffer {
            target: BufferTarget::Array,
            buffer: BufferId(3),
        })
        .unwrap();
        ctx.apply(&GlCommand::DeleteBuffer(BufferId(3))).unwrap();
        assert!(ctx.buffer_binding(BufferTarget::Array).is_null());
    }

    #[test]
    fn resident_bytes_tracks_uploads() {
        let mut ctx = GlContext::new();
        ctx.apply(&GlCommand::GenTexture(TextureId(1))).unwrap();
        ctx.apply(&GlCommand::BindTexture {
            target: TextureTarget::Texture2D,
            texture: TextureId(1),
        })
        .unwrap();
        ctx.apply(&GlCommand::TexImage2D {
            target: TextureTarget::Texture2D,
            level: 0,
            format: PixelFormat::Rgba8,
            width: 4,
            height: 4,
            data: Arc::new(vec![0; 64]),
        })
        .unwrap();
        assert_eq!(ctx.resident_bytes(), 64);
    }

    #[test]
    fn snapshot_restore_is_bit_identical_and_stays_in_lockstep() {
        let mut ctx = GlContext::new();
        linked_program(&mut ctx, 1);
        ctx.apply(&GlCommand::GenTexture(TextureId(4))).unwrap();
        ctx.apply(&GlCommand::BindTexture {
            target: TextureTarget::Texture2D,
            texture: TextureId(4),
        })
        .unwrap();
        ctx.apply(&GlCommand::TexImage2D {
            target: TextureTarget::Texture2D,
            level: 0,
            format: PixelFormat::Rgba8,
            width: 2,
            height: 2,
            data: Arc::new(vec![7; 16]),
        })
        .unwrap();
        ctx.apply(&GlCommand::GenBuffer(BufferId(2))).unwrap();
        ctx.apply(&GlCommand::BindBuffer {
            target: BufferTarget::Array,
            buffer: BufferId(2),
        })
        .unwrap();
        ctx.apply(&GlCommand::BufferData {
            target: BufferTarget::Array,
            data: Arc::new(vec![1, 2, 3, 4]),
            usage: BufferUsage::DynamicDraw,
        })
        .unwrap();
        ctx.apply(&GlCommand::Enable(Capability::DepthTest))
            .unwrap();

        let snap = ctx.snapshot();
        let mut restored = GlContext::restore(&snap);
        assert_eq!(restored.digest(), ctx.digest());
        assert_eq!(restored.resident_bytes(), ctx.resident_bytes());

        // The restored context must track the donor through further
        // commands — bindings and per-frame counters included.
        for c in [
            GlCommand::ClearColor {
                r: 0.1,
                g: 0.2,
                b: 0.3,
                a: 1.0,
            },
            GlCommand::BufferSubData {
                target: BufferTarget::Array,
                offset: 0,
                data: Arc::new(vec![9, 9]),
            },
            GlCommand::SwapBuffers,
        ] {
            ctx.apply(&c).unwrap();
            restored.apply(&c).unwrap();
        }
        assert_eq!(restored.digest(), ctx.digest());
        assert_eq!(restored.end_frame(), ctx.end_frame());
    }

    #[test]
    fn snapshot_wire_bytes_cover_payloads_plus_headers() {
        let empty = GlContext::new().snapshot();
        let base = empty.wire_bytes();
        assert!(base >= 128, "scalar block must always be charged");

        let mut ctx = GlContext::new();
        ctx.apply(&GlCommand::GenTexture(TextureId(1))).unwrap();
        ctx.apply(&GlCommand::BindTexture {
            target: TextureTarget::Texture2D,
            texture: TextureId(1),
        })
        .unwrap();
        ctx.apply(&GlCommand::TexImage2D {
            target: TextureTarget::Texture2D,
            level: 0,
            format: PixelFormat::Rgba8,
            width: 4,
            height: 4,
            data: Arc::new(vec![0; 64]),
        })
        .unwrap();
        let snap = ctx.snapshot();
        assert!(
            snap.wire_bytes() >= base + 64,
            "texel payload must be charged: {} vs {base}",
            snap.wire_bytes()
        );
    }

    #[test]
    fn delta_wire_bytes_skip_objects_the_base_already_holds() {
        let mut ctx = GlContext::new();
        linked_program(&mut ctx, 1);
        ctx.apply(&GlCommand::GenTexture(TextureId(4))).unwrap();
        ctx.apply(&GlCommand::BindTexture {
            target: TextureTarget::Texture2D,
            texture: TextureId(4),
        })
        .unwrap();
        ctx.apply(&GlCommand::TexImage2D {
            target: TextureTarget::Texture2D,
            level: 0,
            format: PixelFormat::Rgba8,
            width: 4,
            height: 4,
            data: Arc::new(vec![7; 64]),
        })
        .unwrap();
        let setup = ctx.snapshot();

        // Identity delta: only the scalar block travels.
        assert_eq!(setup.delta_wire_bytes(&setup), SNAP_SCALAR_BLOCK);

        // A warm session mutates one buffer and adds one texture; the
        // delta charges exactly those, not the resident setup texture.
        ctx.apply(&GlCommand::GenBuffer(BufferId(2))).unwrap();
        ctx.apply(&GlCommand::BindBuffer {
            target: BufferTarget::Array,
            buffer: BufferId(2),
        })
        .unwrap();
        ctx.apply(&GlCommand::BufferData {
            target: BufferTarget::Array,
            data: Arc::new(vec![1; 32]),
            usage: BufferUsage::DynamicDraw,
        })
        .unwrap();
        let warm = ctx.snapshot();
        let delta = warm.delta_wire_bytes(&setup);
        assert_eq!(delta, SNAP_BUFFER_HEADER + 32 + SNAP_SCALAR_BLOCK);
        assert!(delta <= warm.wire_bytes());
        assert!(
            warm.wire_bytes() - delta >= 64,
            "the resident 64-byte texture must not reship"
        );

        // Mutating a resident object brings it back into the delta.
        ctx.apply(&GlCommand::BindTexture {
            target: TextureTarget::Texture2D,
            texture: TextureId(4),
        })
        .unwrap();
        ctx.apply(&GlCommand::TexImage2D {
            target: TextureTarget::Texture2D,
            level: 0,
            format: PixelFormat::Rgba8,
            width: 4,
            height: 4,
            data: Arc::new(vec![9; 64]),
        })
        .unwrap();
        let touched = ctx.snapshot();
        assert!(
            touched.delta_wire_bytes(&setup) > delta,
            "a mutated texture must reship"
        );
    }

    #[test]
    fn capabilities_toggle() {
        let mut ctx = GlContext::new();
        assert!(!ctx.is_enabled(Capability::Blend));
        ctx.apply(&GlCommand::Enable(Capability::Blend)).unwrap();
        assert!(ctx.is_enabled(Capability::Blend));
        ctx.apply(&GlCommand::Disable(Capability::Blend)).unwrap();
        assert!(!ctx.is_enabled(Capability::Blend));
    }
}
