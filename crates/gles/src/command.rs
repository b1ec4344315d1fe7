//! The OpenGL ES 2.0 command vocabulary.
//!
//! OpenGL ES follows a client/server model (Fig. 3 of the paper): the
//! application is a *client* emitting a stream of graphics commands, and
//! the GPU-side *server* interprets them. GBooster's entire design hinges
//! on capturing this stream, so [`GlCommand`] is the central data type of
//! the reproduction.
//!
//! Two properties of each command matter to GBooster:
//!
//! * **State-mutating vs. rendering** ([`GlCommand::is_state_mutating`]):
//!   Section VI-B replicates state-mutating commands to *all* service
//!   devices (via multicast) to keep their GL contexts consistent, while
//!   rendering requests are dispatched to exactly one device.
//! * **Client-memory pointers** ([`VertexSource::ClientMemory`]):
//!   `glVertexAttribPointer` may reference application RAM whose length is
//!   unknown until a later draw call — the serialization hazard Section
//!   IV-B defers around.

use std::collections::HashMap;
use std::sync::Arc;

use crate::types::{
    AttribType, BlendFactor, BufferId, BufferTarget, BufferUsage, Capability, ClearMask, DepthFunc,
    FramebufferId, GlError, IndexType, PixelFormat, Primitive, ProgramId, ShaderId, ShaderKind,
    TextureId, TextureTarget, UniformLocation,
};

/// A value assigned to a shader uniform.
#[derive(Clone, Debug, PartialEq)]
pub enum UniformValue {
    /// `glUniform1f`.
    F1(f32),
    /// `glUniform2f`.
    F2([f32; 2]),
    /// `glUniform3f`.
    F3([f32; 3]),
    /// `glUniform4f`.
    F4([f32; 4]),
    /// `glUniform1i` (also used for sampler bindings).
    I1(i32),
    /// `glUniformMatrix4fv` with a single column-major matrix.
    Mat4([f32; 16]),
}

/// Texture sampling/wrapping parameters (`glTexParameter*` subset).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TexParam {
    /// Minification filter: nearest or linear.
    MinFilterLinear(bool),
    /// Magnification filter: nearest or linear.
    MagFilterLinear(bool),
    /// Wrap S to repeat (true) or clamp (false).
    WrapSRepeat(bool),
    /// Wrap T to repeat (true) or clamp (false).
    WrapTRepeat(bool),
}

/// Where `glVertexAttribPointer` points.
#[derive(Clone, Debug, PartialEq)]
pub enum VertexSource {
    /// An offset into the buffer currently bound to `GL_ARRAY_BUFFER`.
    /// The size is bounded by the buffer object — serializable at once.
    BufferOffset(u32),
    /// A raw pointer into client RAM. The referenced length is *unknown*
    /// at interception time; it is only revealed by the vertex count of a
    /// subsequent draw call. This is the case Section IV-B defers.
    ClientMemory(ClientPtr),
    /// Client memory already materialized by the forwarder (produced by
    /// the deferred-serialization pass; never emitted by applications).
    Materialized(Arc<Vec<u8>>),
}

/// An address in simulated application memory (see [`ClientMemory`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ClientPtr(pub u64);

/// Where `glDrawElements` gets its indices.
#[derive(Clone, Debug, PartialEq)]
pub enum IndexSource {
    /// Offset into the bound `GL_ELEMENT_ARRAY_BUFFER`.
    BufferOffset(u32),
    /// Inline index data passed by pointer (already materialized; index
    /// length is computable from `count * index_type.size()`, so this
    /// case never needs deferral).
    Inline(Arc<Vec<u8>>),
}

/// A single OpenGL ES 2.0 call, as intercepted by the GBooster wrapper.
#[derive(Clone, Debug, PartialEq)]
#[allow(missing_docs)] // variants mirror the GL API; fields documented where non-obvious
pub enum GlCommand {
    // -- object lifecycle -------------------------------------------------
    GenTexture(TextureId),
    DeleteTexture(TextureId),
    GenBuffer(BufferId),
    DeleteBuffer(BufferId),
    GenFramebuffer(FramebufferId),
    DeleteFramebuffer(FramebufferId),
    CreateShader(ShaderId, ShaderKind),
    ShaderSource {
        shader: ShaderId,
        source: String,
    },
    CompileShader(ShaderId),
    DeleteShader(ShaderId),
    CreateProgram(ProgramId),
    AttachShader {
        program: ProgramId,
        shader: ShaderId,
    },
    LinkProgram(ProgramId),
    UseProgram(ProgramId),
    DeleteProgram(ProgramId),

    // -- buffers ----------------------------------------------------------
    BindBuffer {
        target: BufferTarget,
        buffer: BufferId,
    },
    BufferData {
        target: BufferTarget,
        data: Arc<Vec<u8>>,
        usage: BufferUsage,
    },
    BufferSubData {
        target: BufferTarget,
        offset: u32,
        data: Arc<Vec<u8>>,
    },

    // -- textures ---------------------------------------------------------
    ActiveTexture(u32),
    BindTexture {
        target: TextureTarget,
        texture: TextureId,
    },
    TexImage2D {
        target: TextureTarget,
        level: u8,
        format: PixelFormat,
        width: u32,
        height: u32,
        data: Arc<Vec<u8>>,
    },
    TexSubImage2D {
        target: TextureTarget,
        level: u8,
        x: u32,
        y: u32,
        width: u32,
        height: u32,
        format: PixelFormat,
        data: Arc<Vec<u8>>,
    },
    TexParameter {
        target: TextureTarget,
        param: TexParam,
    },

    // -- framebuffers -----------------------------------------------------
    BindFramebuffer(FramebufferId),
    FramebufferTexture2D {
        texture: TextureId,
    },

    // -- fixed-function state ----------------------------------------------
    Enable(Capability),
    Disable(Capability),
    BlendFunc {
        src: BlendFactor,
        dst: BlendFactor,
    },
    DepthFunc(DepthFunc),
    DepthMask(bool),
    ClearColor {
        r: f32,
        g: f32,
        b: f32,
        a: f32,
    },
    ClearDepth(f32),
    Viewport {
        x: i32,
        y: i32,
        width: u32,
        height: u32,
    },
    Scissor {
        x: i32,
        y: i32,
        width: u32,
        height: u32,
    },

    // -- program state ------------------------------------------------------
    Uniform {
        location: UniformLocation,
        value: UniformValue,
    },

    // -- vertex attributes --------------------------------------------------
    EnableVertexAttribArray(u32),
    DisableVertexAttribArray(u32),
    VertexAttribPointer {
        index: u32,
        /// Components per vertex (1–4).
        size: u8,
        ty: AttribType,
        normalized: bool,
        /// Byte stride between consecutive vertices (0 = tightly packed).
        stride: u32,
        source: VertexSource,
    },

    // -- rendering ----------------------------------------------------------
    Clear(ClearMask),
    DrawArrays {
        mode: Primitive,
        first: u32,
        count: u32,
    },
    DrawElements {
        mode: Primitive,
        count: u32,
        index_type: IndexType,
        indices: IndexSource,
    },
    Finish,
    Flush,

    // -- EGL boundary --------------------------------------------------------
    /// `eglSwapBuffers`: marks the end of a rendering request (frame).
    SwapBuffers,
}

impl GlCommand {
    /// Convenience constructor for `Clear(ClearMask::ALL)`.
    pub fn clear_all() -> GlCommand {
        GlCommand::Clear(ClearMask::ALL)
    }

    /// True if executing this command changes the GL context state that
    /// later commands depend on.
    ///
    /// Per Section VI-B of the paper, such commands must be replicated to
    /// *every* service device so their contexts stay consistent; rendering
    /// commands ([`GlCommand::is_draw`], `Clear`, `SwapBuffers`, sync) are
    /// dispatched to a single device.
    pub fn is_state_mutating(&self) -> bool {
        !matches!(
            self,
            GlCommand::Clear(_)
                | GlCommand::DrawArrays { .. }
                | GlCommand::DrawElements { .. }
                | GlCommand::Finish
                | GlCommand::Flush
                | GlCommand::SwapBuffers
        )
    }

    /// True for the draw calls that consume vertex data.
    pub fn is_draw(&self) -> bool {
        matches!(
            self,
            GlCommand::DrawArrays { .. } | GlCommand::DrawElements { .. }
        )
    }

    /// True for `SwapBuffers`, the frame boundary.
    pub fn is_swap(&self) -> bool {
        matches!(self, GlCommand::SwapBuffers)
    }

    /// True if this command carries a texture upload (used by the traffic
    /// forecaster's exogenous attribute 3, Section V-B).
    pub fn is_texture_upload(&self) -> bool {
        matches!(
            self,
            GlCommand::TexImage2D { .. } | GlCommand::TexSubImage2D { .. }
        )
    }

    /// True if the command still references unresolved client memory and
    /// therefore cannot be serialized yet (Section IV-B).
    pub fn has_unresolved_pointer(&self) -> bool {
        matches!(
            self,
            GlCommand::VertexAttribPointer {
                source: VertexSource::ClientMemory(_),
                ..
            }
        )
    }
}

/// Simulated application (client) memory.
///
/// On Android, `glVertexAttribPointer` may point into the app's heap; the
/// wrapper cannot know how many bytes are referenced until a draw call
/// supplies a vertex count. This arena stands in for the app heap: regions
/// are allocated with [`ClientMemory::alloc`] and read back by the
/// forwarder once the draw reveals the length.
///
/// # Examples
///
/// ```
/// use gbooster_gles::command::ClientMemory;
///
/// let mut mem = ClientMemory::new();
/// let ptr = mem.alloc(vec![1, 2, 3, 4]);
/// assert_eq!(mem.read(ptr, 2).unwrap(), &[1, 2]);
/// ```
#[derive(Clone, Debug, Default)]
pub struct ClientMemory {
    regions: HashMap<u64, Arc<Vec<u8>>>,
    next_addr: u64,
}

impl ClientMemory {
    /// Creates an empty address space.
    pub fn new() -> Self {
        ClientMemory {
            regions: HashMap::new(),
            next_addr: 0x1000,
        }
    }

    /// Allocates a region holding `data` and returns its address.
    pub fn alloc(&mut self, data: Vec<u8>) -> ClientPtr {
        let addr = self.next_addr;
        // Keep regions page-disjoint so addresses stay unique and stable.
        self.next_addr += (data.len() as u64).max(1).next_multiple_of(0x1000);
        self.regions.insert(addr, Arc::new(data));
        ClientPtr(addr)
    }

    /// Reads `len` bytes starting at `ptr`.
    ///
    /// # Errors
    ///
    /// Returns [`GlError::InvalidValue`] if the pointer is unknown or the
    /// read overruns the region — the crash the real system would risk if
    /// it guessed vertex-array lengths instead of deferring.
    pub fn read(&self, ptr: ClientPtr, len: usize) -> Result<&[u8], GlError> {
        let region = self.regions.get(&ptr.0).ok_or_else(|| {
            GlError::InvalidValue(format!("dangling client pointer {:#x}", ptr.0))
        })?;
        region.get(..len).ok_or_else(|| {
            GlError::InvalidValue(format!(
                "client read of {len} bytes overruns region of {} bytes",
                region.len()
            ))
        })
    }

    /// Frees the region at `ptr`. Unknown pointers are ignored.
    pub fn free(&mut self, ptr: ClientPtr) {
        self.regions.remove(&ptr.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn draw() -> GlCommand {
        GlCommand::DrawArrays {
            mode: Primitive::Triangles,
            first: 0,
            count: 3,
        }
    }

    #[test]
    fn classification_state_vs_rendering() {
        assert!(GlCommand::UseProgram(ProgramId(1)).is_state_mutating());
        assert!(GlCommand::ClearColor {
            r: 0.0,
            g: 0.0,
            b: 0.0,
            a: 1.0
        }
        .is_state_mutating());
        assert!(!draw().is_state_mutating());
        assert!(!GlCommand::clear_all().is_state_mutating());
        assert!(!GlCommand::SwapBuffers.is_state_mutating());
        assert!(!GlCommand::Finish.is_state_mutating());
    }

    fn upload(data: Vec<u8>) -> GlCommand {
        GlCommand::TexImage2D {
            target: TextureTarget::Texture2D,
            level: 0,
            format: PixelFormat::Rgba8,
            width: 4,
            height: 4,
            data: Arc::new(data),
        }
    }

    #[test]
    fn draw_and_swap_predicates() {
        assert!(draw().is_draw());
        assert!(!GlCommand::SwapBuffers.is_draw());
        assert!(GlCommand::SwapBuffers.is_swap());
        assert!(upload(vec![0; 64]).is_texture_upload());
        assert!(!draw().is_texture_upload());
    }

    #[test]
    fn payload_accounts_for_bulk_data() {
        // A command's size is its wire encoding; the bulk data adds
        // exactly its own length to it.
        let wire_len = |cmd: &GlCommand| {
            let mut out = Vec::new();
            crate::serialize::encode_command(cmd, &mut out).unwrap();
            out.len()
        };
        assert_eq!(
            wire_len(&upload(vec![0; 64])),
            wire_len(&upload(Vec::new())) + 64
        );
    }

    #[test]
    fn unresolved_pointer_detection() {
        let cmd = GlCommand::VertexAttribPointer {
            index: 0,
            size: 3,
            ty: AttribType::F32,
            normalized: false,
            stride: 12,
            source: VertexSource::ClientMemory(ClientPtr(0x1000)),
        };
        assert!(cmd.has_unresolved_pointer());
        let resolved = GlCommand::VertexAttribPointer {
            index: 0,
            size: 3,
            ty: AttribType::F32,
            normalized: false,
            stride: 12,
            source: VertexSource::Materialized(Arc::new(vec![0; 36])),
        };
        assert!(!resolved.has_unresolved_pointer());
    }

    #[test]
    fn client_memory_round_trip() {
        let mut mem = ClientMemory::new();
        let data: Vec<u8> = (0..=255).collect();
        let ptr = mem.alloc(data.clone());
        assert_eq!(mem.read(ptr, 256).unwrap(), &data[..]);
        mem.free(ptr);
        assert!(mem.read(ptr, 1).is_err());
    }

    #[test]
    fn client_memory_overrun_is_an_error() {
        let mut mem = ClientMemory::new();
        let ptr = mem.alloc(vec![0; 8]);
        let err = mem.read(ptr, 9).unwrap_err();
        assert!(matches!(err, GlError::InvalidValue(_)));
    }

    #[test]
    fn client_memory_addresses_are_unique() {
        let mut mem = ClientMemory::new();
        let a = mem.alloc(vec![0; 10_000]);
        let b = mem.alloc(vec![1; 4]);
        assert_ne!(a, b);
        assert_eq!(mem.read(b, 4).unwrap(), &[1, 1, 1, 1]);
    }
}
