//! Wire format for forwarding graphics commands (Section IV-B).
//!
//! Serialization must solve the paper's central hazard: OpenGL parameters
//! are either basic values (easy) or *pointers* whose referenced length
//! may be unknown at interception time. `glVertexAttribPointer` is the
//! heavily-invoked offender — the byte count it references "is only
//! revealed in consecutive drawing commands (e.g., glDrawElements)".
//!
//! The paper's fix, reproduced by [`DeferredResolver`]: hold the pointer
//! command back, and when a draw call arrives compute the exact length
//! `(first + count − 1) · stride + size · sizeof(type)`, materialize the
//! client bytes, and emit the held command *immediately before the draw*.
//! "The reorder does not influence the final results so long as
//! glVertexAttribPointer appears before the drawing calls."
//!
//! [`encode_command`]/[`decode_command`] implement the binary wire format
//! itself: a 1-byte opcode followed by the command's fields in order.
//! Each piece of the format is stated once:
//!
//! - the opcode bytes, in `mod op`;
//! - each command's fields in wire order, in one `encode_command` arm
//!   and one `decode_command` arm;
//! - each field type's encoding, in its impl of the private `Wire`
//!   trait: one byte for `u8` and `bool`, little-endian `u32`/`i32`/
//!   `f32` (handles as their raw `u32`), and a varint length before the
//!   bytes of bulk payloads and strings;
//! - the byte of every value of the field enums, in one `wire_enum!`
//!   table.
//!
//! A length read off the wire is checked against the input that remains
//! before anything is sliced, and is never added to a read position
//! unchecked, so no length can overflow a decode.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::command::{ClientMemory, GlCommand, IndexSource, TexParam, UniformValue, VertexSource};
use crate::types::{
    AttribType, BlendFactor, BufferId, BufferTarget, BufferUsage, Capability, ClearMask, DepthFunc,
    FramebufferId, IndexType, PixelFormat, Primitive, ProgramId, ShaderId, ShaderKind, TextureId,
    TextureTarget, UniformLocation,
};

/// Errors produced by the wire codec and the deferred resolver.
#[derive(Clone, Debug, PartialEq)]
pub enum WireError {
    /// Attempted to encode a command still holding a raw client pointer.
    UnresolvedPointer,
    /// Input ended mid-command.
    Truncated,
    /// Unknown opcode byte.
    BadOpcode(u8),
    /// An enum discriminant was out of range.
    BadEnum(&'static str, u8),
    /// String field was not valid UTF-8.
    BadUtf8,
    /// Client-memory read failed while materializing a deferred pointer.
    ClientRead(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::UnresolvedPointer => {
                write!(f, "command references unresolved client memory")
            }
            WireError::Truncated => write!(f, "wire data truncated"),
            WireError::BadOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
            WireError::BadEnum(what, v) => write!(f, "invalid {what} discriminant {v}"),
            WireError::BadUtf8 => write!(f, "invalid utf-8 in string field"),
            WireError::ClientRead(m) => write!(f, "client memory read failed: {m}"),
        }
    }
}

impl std::error::Error for WireError {}

/// A cursor over wire bytes.
#[derive(Debug)]
struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(data: &'a [u8]) -> Self {
        Reader { data, pos: 0 }
    }
    fn get<T: Wire>(&mut self) -> Result<T, WireError> {
        T::get(self)
    }
    fn varint(&mut self) -> Result<u64, WireError> {
        let mut v = 0u64;
        let mut shift = 0;
        loop {
            let byte: u8 = self.get()?;
            v |= ((byte & 0x7f) as u64) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift >= 64 {
                return Err(WireError::Truncated);
            }
        }
    }
    /// A varint length, then that many bytes.
    fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        let len = usize::try_from(self.varint()?).unwrap_or(usize::MAX);
        // `len` comes off the wire: bound it by what remains, never add it.
        let b = self.data[self.pos..]
            .get(..len)
            .ok_or(WireError::Truncated)?;
        self.pos += len;
        Ok(b)
    }
    fn is_empty(&self) -> bool {
        self.pos >= self.data.len()
    }
}

/// The one wire encoding of a field type: `put` appends it to a command
/// being encoded, `get` reads it back.
trait Wire: Sized {
    fn put(&self, out: &mut Vec<u8>);
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError>;
}

/// Appends the encoding of each field to `out`, in order.
macro_rules! put {
    ($out:ident; $($field:expr),+) => {{
        $($field.put($out);)+
    }};
}

impl Wire for u8 {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let v = *r.data.get(r.pos).ok_or(WireError::Truncated)?;
        r.pos += 1;
        Ok(v)
    }
}

impl Wire for bool {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(r.get::<u8>()? != 0)
    }
}

impl Wire for u32 {
    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let b = r.data.get(r.pos..r.pos + 4).ok_or(WireError::Truncated)?;
        r.pos += 4;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
}

impl Wire for i32 {
    fn put(&self, out: &mut Vec<u8>) {
        (*self as u32).put(out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(r.get::<u32>()? as i32)
    }
}

impl Wire for f32 {
    fn put(&self, out: &mut Vec<u8>) {
        self.to_bits().put(out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(f32::from_bits(r.get()?))
    }
}

impl<const N: usize> Wire for [f32; N] {
    fn put(&self, out: &mut Vec<u8>) {
        self.iter().for_each(|x| x.put(out));
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let mut a = [0f32; N];
        for slot in &mut a {
            *slot = r.get()?;
        }
        Ok(a)
    }
}

/// Handles travel as their raw `u32`.
macro_rules! wire_handle {
    ($($ty:ident),+) => {$(
        impl Wire for $ty {
            fn put(&self, out: &mut Vec<u8>) {
                self.raw().put(out);
            }
            fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
                r.get().map($ty)
            }
        }
    )+};
}

wire_handle! { TextureId, BufferId, ShaderId, ProgramId, FramebufferId, UniformLocation }

/// Appends a varint length, then the bytes.
fn put_bytes(out: &mut Vec<u8>, data: &[u8]) {
    let mut v = data.len() as u64;
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
    out.extend_from_slice(data);
}

impl Wire for Arc<Vec<u8>> {
    fn put(&self, out: &mut Vec<u8>) {
        put_bytes(out, self);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Arc::new(r.bytes()?.to_vec()))
    }
}

impl Wire for String {
    fn put(&self, out: &mut Vec<u8>) {
        put_bytes(out, self.as_bytes());
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        String::from_utf8(r.bytes()?.to_vec()).map_err(|_| WireError::BadUtf8)
    }
}

/// States the wire byte of every value of each field enum. An unknown
/// byte decodes to [`WireError::BadEnum`] naming the type.
macro_rules! wire_enum {
    ($($ty:ident { $($value:ident = $byte:literal),+ })+) => {$(
        impl Wire for $ty {
            fn put(&self, out: &mut Vec<u8>) {
                out.push(match self {
                    $($ty::$value => $byte,)+
                });
            }
            fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
                match r.get::<u8>()? {
                    $($byte => Ok($ty::$value),)+
                    v => Err(WireError::BadEnum(stringify!($ty), v)),
                }
            }
        }
    )+};
}

wire_enum! {
    BufferTarget { Array = 0, ElementArray = 1 }
    BufferUsage { StaticDraw = 0, DynamicDraw = 1, StreamDraw = 2 }
    ShaderKind { Vertex = 0, Fragment = 1 }
    TextureTarget { Texture2D = 0, CubeMap = 1 }
    PixelFormat { Rgba8 = 0, Rgb8 = 1, Luminance = 2, Rgb565 = 3 }
    Capability { Blend = 0, DepthTest = 1, CullFace = 2, ScissorTest = 3, Dither = 4 }
    BlendFactor { Zero = 0, One = 1, SrcAlpha = 2, OneMinusSrcAlpha = 3 }
    DepthFunc { Less = 0, LessEqual = 1, Always = 2 }
    Primitive { Points = 0, Lines = 1, Triangles = 2, TriangleStrip = 3, TriangleFan = 4 }
    IndexType { U8 = 0, U16 = 1 }
    AttribType { F32 = 0, U8 = 1, I16 = 2 }
}

/// A tag byte, then the flag byte.
impl Wire for TexParam {
    fn put(&self, out: &mut Vec<u8>) {
        let (tag, on) = match *self {
            TexParam::MinFilterLinear(on) => (0u8, on),
            TexParam::MagFilterLinear(on) => (1, on),
            TexParam::WrapSRepeat(on) => (2, on),
            TexParam::WrapTRepeat(on) => (3, on),
        };
        put!(out; tag, on);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        // Both bytes are read before the tag is checked.
        let (tag, on) = (r.get::<u8>()?, r.get()?);
        match tag {
            0 => Ok(TexParam::MinFilterLinear(on)),
            1 => Ok(TexParam::MagFilterLinear(on)),
            2 => Ok(TexParam::WrapSRepeat(on)),
            3 => Ok(TexParam::WrapTRepeat(on)),
            _ => Err(WireError::BadEnum("TexParam", tag)),
        }
    }
}

/// A tag byte, then the value's components.
impl Wire for UniformValue {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            UniformValue::F1(v) => put!(out; 0u8, v),
            UniformValue::F2(v) => put!(out; 1u8, v),
            UniformValue::F3(v) => put!(out; 2u8, v),
            UniformValue::F4(v) => put!(out; 3u8, v),
            UniformValue::I1(v) => put!(out; 4u8, v),
            UniformValue::Mat4(v) => put!(out; 5u8, v),
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match r.get::<u8>()? {
            0 => UniformValue::F1(r.get()?),
            1 => UniformValue::F2(r.get()?),
            2 => UniformValue::F3(r.get()?),
            3 => UniformValue::F4(r.get()?),
            4 => UniformValue::I1(r.get()?),
            5 => UniformValue::Mat4(r.get()?),
            tag => return Err(WireError::BadEnum("UniformValue", tag)),
        })
    }
}

/// One byte: color in bit 0, depth in bit 1, stencil in bit 2.
impl Wire for ClearMask {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(self.color as u8 | (self.depth as u8) << 1 | (self.stencil as u8) << 2);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let bits: u8 = r.get()?;
        Ok(ClearMask {
            color: bits & 1 != 0,
            depth: bits & 2 != 0,
            stencil: bits & 4 != 0,
        })
    }
}

// Opcode space.
mod op {
    pub const GEN_TEXTURE: u8 = 0x01;
    pub const DELETE_TEXTURE: u8 = 0x02;
    pub const GEN_BUFFER: u8 = 0x03;
    pub const DELETE_BUFFER: u8 = 0x04;
    pub const GEN_FRAMEBUFFER: u8 = 0x05;
    pub const DELETE_FRAMEBUFFER: u8 = 0x06;
    pub const CREATE_SHADER: u8 = 0x07;
    pub const SHADER_SOURCE: u8 = 0x08;
    pub const COMPILE_SHADER: u8 = 0x09;
    pub const DELETE_SHADER: u8 = 0x0a;
    pub const CREATE_PROGRAM: u8 = 0x0b;
    pub const ATTACH_SHADER: u8 = 0x0c;
    pub const LINK_PROGRAM: u8 = 0x0d;
    pub const USE_PROGRAM: u8 = 0x0e;
    pub const DELETE_PROGRAM: u8 = 0x0f;
    pub const BIND_BUFFER: u8 = 0x10;
    pub const BUFFER_DATA: u8 = 0x11;
    pub const BUFFER_SUB_DATA: u8 = 0x12;
    pub const ACTIVE_TEXTURE: u8 = 0x13;
    pub const BIND_TEXTURE: u8 = 0x14;
    pub const TEX_IMAGE_2D: u8 = 0x15;
    pub const TEX_SUB_IMAGE_2D: u8 = 0x16;
    pub const TEX_PARAMETER: u8 = 0x17;
    pub const BIND_FRAMEBUFFER: u8 = 0x18;
    pub const FRAMEBUFFER_TEXTURE_2D: u8 = 0x19;
    pub const ENABLE: u8 = 0x1a;
    pub const DISABLE: u8 = 0x1b;
    pub const BLEND_FUNC: u8 = 0x1c;
    pub const DEPTH_FUNC: u8 = 0x1d;
    pub const DEPTH_MASK: u8 = 0x1e;
    pub const CLEAR_COLOR: u8 = 0x1f;
    pub const CLEAR_DEPTH: u8 = 0x20;
    pub const VIEWPORT: u8 = 0x21;
    pub const SCISSOR: u8 = 0x22;
    pub const UNIFORM: u8 = 0x23;
    pub const ENABLE_VERTEX_ATTRIB: u8 = 0x24;
    pub const DISABLE_VERTEX_ATTRIB: u8 = 0x25;
    pub const VERTEX_ATTRIB_POINTER_BUF: u8 = 0x26;
    pub const VERTEX_ATTRIB_POINTER_MAT: u8 = 0x27;
    pub const CLEAR: u8 = 0x28;
    pub const DRAW_ARRAYS: u8 = 0x29;
    pub const DRAW_ELEMENTS_BUF: u8 = 0x2a;
    pub const DRAW_ELEMENTS_INLINE: u8 = 0x2b;
    pub const FINISH: u8 = 0x2c;
    pub const FLUSH: u8 = 0x2d;
    pub const SWAP_BUFFERS: u8 = 0x2e;
}

/// Encodes one command onto `out`.
///
/// # Errors
///
/// Returns [`WireError::UnresolvedPointer`] if the command still holds a
/// [`VertexSource::ClientMemory`] pointer — run it through a
/// [`DeferredResolver`] first.
pub fn encode_command(cmd: &GlCommand, out: &mut Vec<u8>) -> Result<(), WireError> {
    use GlCommand as C;
    match cmd {
        C::GenTexture(id) => put!(out; op::GEN_TEXTURE, id),
        C::DeleteTexture(id) => put!(out; op::DELETE_TEXTURE, id),
        C::GenBuffer(id) => put!(out; op::GEN_BUFFER, id),
        C::DeleteBuffer(id) => put!(out; op::DELETE_BUFFER, id),
        C::GenFramebuffer(id) => put!(out; op::GEN_FRAMEBUFFER, id),
        C::DeleteFramebuffer(id) => put!(out; op::DELETE_FRAMEBUFFER, id),
        C::CreateShader(id, kind) => put!(out; op::CREATE_SHADER, id, kind),
        C::ShaderSource { shader, source } => put!(out; op::SHADER_SOURCE, shader, source),
        C::CompileShader(id) => put!(out; op::COMPILE_SHADER, id),
        C::DeleteShader(id) => put!(out; op::DELETE_SHADER, id),
        C::CreateProgram(id) => put!(out; op::CREATE_PROGRAM, id),
        C::AttachShader { program, shader } => put!(out; op::ATTACH_SHADER, program, shader),
        C::LinkProgram(id) => put!(out; op::LINK_PROGRAM, id),
        C::UseProgram(id) => put!(out; op::USE_PROGRAM, id),
        C::DeleteProgram(id) => put!(out; op::DELETE_PROGRAM, id),
        C::BindBuffer { target, buffer } => put!(out; op::BIND_BUFFER, target, buffer),
        C::BufferData {
            target,
            data,
            usage,
        } => put!(out; op::BUFFER_DATA, target, usage, data),
        C::BufferSubData {
            target,
            offset,
            data,
        } => put!(out; op::BUFFER_SUB_DATA, target, offset, data),
        C::ActiveTexture(unit) => put!(out; op::ACTIVE_TEXTURE, unit),
        C::BindTexture { target, texture } => put!(out; op::BIND_TEXTURE, target, texture),
        C::TexImage2D {
            target,
            level,
            format,
            width,
            height,
            data,
        } => put!(out; op::TEX_IMAGE_2D, target, level, format, width, height, data),
        C::TexSubImage2D {
            target,
            level,
            x,
            y,
            width,
            height,
            format,
            data,
        } => put!(out; op::TEX_SUB_IMAGE_2D, target, level, x, y, width, height, format, data),
        C::TexParameter { target, param } => put!(out; op::TEX_PARAMETER, target, param),
        C::BindFramebuffer(id) => put!(out; op::BIND_FRAMEBUFFER, id),
        C::FramebufferTexture2D { texture } => put!(out; op::FRAMEBUFFER_TEXTURE_2D, texture),
        C::Enable(cap) => put!(out; op::ENABLE, cap),
        C::Disable(cap) => put!(out; op::DISABLE, cap),
        C::BlendFunc { src, dst } => put!(out; op::BLEND_FUNC, src, dst),
        C::DepthFunc(fun) => put!(out; op::DEPTH_FUNC, fun),
        C::DepthMask(on) => put!(out; op::DEPTH_MASK, on),
        C::ClearColor { r, g, b, a } => put!(out; op::CLEAR_COLOR, r, g, b, a),
        C::ClearDepth(d) => put!(out; op::CLEAR_DEPTH, d),
        C::Viewport {
            x,
            y,
            width,
            height,
        } => put!(out; op::VIEWPORT, x, y, width, height),
        C::Scissor {
            x,
            y,
            width,
            height,
        } => put!(out; op::SCISSOR, x, y, width, height),
        C::Uniform { location, value } => put!(out; op::UNIFORM, location, value),
        C::EnableVertexAttribArray(i) => put!(out; op::ENABLE_VERTEX_ATTRIB, i),
        C::DisableVertexAttribArray(i) => put!(out; op::DISABLE_VERTEX_ATTRIB, i),
        C::VertexAttribPointer {
            index,
            size,
            ty,
            normalized,
            stride,
            source,
        } => match source {
            VertexSource::BufferOffset(off) => put!(
                out; op::VERTEX_ATTRIB_POINTER_BUF, index, size, ty, normalized, stride, off
            ),
            VertexSource::Materialized(data) => put!(
                out; op::VERTEX_ATTRIB_POINTER_MAT, index, size, ty, normalized, stride, data
            ),
            VertexSource::ClientMemory(_) => return Err(WireError::UnresolvedPointer),
        },
        C::Clear(mask) => put!(out; op::CLEAR, mask),
        C::DrawArrays { mode, first, count } => put!(out; op::DRAW_ARRAYS, mode, first, count),
        C::DrawElements {
            mode,
            count,
            index_type,
            indices,
        } => match indices {
            IndexSource::BufferOffset(off) => {
                put!(out; op::DRAW_ELEMENTS_BUF, mode, count, index_type, off)
            }
            IndexSource::Inline(data) => {
                put!(out; op::DRAW_ELEMENTS_INLINE, mode, count, index_type, data)
            }
        },
        C::Finish => put!(out; op::FINISH),
        C::Flush => put!(out; op::FLUSH),
        C::SwapBuffers => put!(out; op::SWAP_BUFFERS),
    }
    Ok(())
}

/// Decodes a single command from `data`, returning it and the bytes
/// consumed.
///
/// # Errors
///
/// Returns a [`WireError`] on truncation or malformed fields.
pub fn decode_command(data: &[u8]) -> Result<(GlCommand, usize), WireError> {
    use GlCommand as C;
    let mut r = Reader::new(data);
    // Struct literals evaluate their fields in the order written, so
    // each arm lists its fields in wire order.
    let cmd = match r.get::<u8>()? {
        op::GEN_TEXTURE => C::GenTexture(r.get()?),
        op::DELETE_TEXTURE => C::DeleteTexture(r.get()?),
        op::GEN_BUFFER => C::GenBuffer(r.get()?),
        op::DELETE_BUFFER => C::DeleteBuffer(r.get()?),
        op::GEN_FRAMEBUFFER => C::GenFramebuffer(r.get()?),
        op::DELETE_FRAMEBUFFER => C::DeleteFramebuffer(r.get()?),
        op::CREATE_SHADER => C::CreateShader(r.get()?, r.get()?),
        op::SHADER_SOURCE => C::ShaderSource {
            shader: r.get()?,
            source: r.get()?,
        },
        op::COMPILE_SHADER => C::CompileShader(r.get()?),
        op::DELETE_SHADER => C::DeleteShader(r.get()?),
        op::CREATE_PROGRAM => C::CreateProgram(r.get()?),
        op::ATTACH_SHADER => C::AttachShader {
            program: r.get()?,
            shader: r.get()?,
        },
        op::LINK_PROGRAM => C::LinkProgram(r.get()?),
        op::USE_PROGRAM => C::UseProgram(r.get()?),
        op::DELETE_PROGRAM => C::DeleteProgram(r.get()?),
        op::BIND_BUFFER => C::BindBuffer {
            target: r.get()?,
            buffer: r.get()?,
        },
        op::BUFFER_DATA => C::BufferData {
            target: r.get()?,
            usage: r.get()?,
            data: r.get()?,
        },
        op::BUFFER_SUB_DATA => C::BufferSubData {
            target: r.get()?,
            offset: r.get()?,
            data: r.get()?,
        },
        op::ACTIVE_TEXTURE => C::ActiveTexture(r.get()?),
        op::BIND_TEXTURE => C::BindTexture {
            target: r.get()?,
            texture: r.get()?,
        },
        op::TEX_IMAGE_2D => C::TexImage2D {
            target: r.get()?,
            level: r.get()?,
            format: r.get()?,
            width: r.get()?,
            height: r.get()?,
            data: r.get()?,
        },
        op::TEX_SUB_IMAGE_2D => C::TexSubImage2D {
            target: r.get()?,
            level: r.get()?,
            x: r.get()?,
            y: r.get()?,
            width: r.get()?,
            height: r.get()?,
            format: r.get()?,
            data: r.get()?,
        },
        op::TEX_PARAMETER => C::TexParameter {
            target: r.get()?,
            param: r.get()?,
        },
        op::BIND_FRAMEBUFFER => C::BindFramebuffer(r.get()?),
        op::FRAMEBUFFER_TEXTURE_2D => C::FramebufferTexture2D { texture: r.get()? },
        op::ENABLE => C::Enable(r.get()?),
        op::DISABLE => C::Disable(r.get()?),
        op::BLEND_FUNC => C::BlendFunc {
            src: r.get()?,
            dst: r.get()?,
        },
        op::DEPTH_FUNC => C::DepthFunc(r.get()?),
        op::DEPTH_MASK => C::DepthMask(r.get()?),
        op::CLEAR_COLOR => C::ClearColor {
            r: r.get()?,
            g: r.get()?,
            b: r.get()?,
            a: r.get()?,
        },
        op::CLEAR_DEPTH => C::ClearDepth(r.get()?),
        op::VIEWPORT => C::Viewport {
            x: r.get()?,
            y: r.get()?,
            width: r.get()?,
            height: r.get()?,
        },
        op::SCISSOR => C::Scissor {
            x: r.get()?,
            y: r.get()?,
            width: r.get()?,
            height: r.get()?,
        },
        op::UNIFORM => C::Uniform {
            location: r.get()?,
            value: r.get()?,
        },
        op::ENABLE_VERTEX_ATTRIB => C::EnableVertexAttribArray(r.get()?),
        op::DISABLE_VERTEX_ATTRIB => C::DisableVertexAttribArray(r.get()?),
        op::VERTEX_ATTRIB_POINTER_BUF => C::VertexAttribPointer {
            index: r.get()?,
            size: r.get()?,
            ty: r.get()?,
            normalized: r.get()?,
            stride: r.get()?,
            source: VertexSource::BufferOffset(r.get()?),
        },
        op::VERTEX_ATTRIB_POINTER_MAT => C::VertexAttribPointer {
            index: r.get()?,
            size: r.get()?,
            ty: r.get()?,
            normalized: r.get()?,
            stride: r.get()?,
            source: VertexSource::Materialized(r.get()?),
        },
        op::CLEAR => C::Clear(r.get()?),
        op::DRAW_ARRAYS => C::DrawArrays {
            mode: r.get()?,
            first: r.get()?,
            count: r.get()?,
        },
        op::DRAW_ELEMENTS_BUF => C::DrawElements {
            mode: r.get()?,
            count: r.get()?,
            index_type: r.get()?,
            indices: IndexSource::BufferOffset(r.get()?),
        },
        op::DRAW_ELEMENTS_INLINE => C::DrawElements {
            mode: r.get()?,
            count: r.get()?,
            index_type: r.get()?,
            indices: IndexSource::Inline(r.get()?),
        },
        op::FINISH => C::Finish,
        op::FLUSH => C::Flush,
        op::SWAP_BUFFERS => C::SwapBuffers,
        other => return Err(WireError::BadOpcode(other)),
    };
    Ok((cmd, r.pos))
}

/// Encodes a whole command sequence.
///
/// # Errors
///
/// Fails on the first command that cannot be encoded.
pub fn encode_stream(cmds: &[GlCommand]) -> Result<Vec<u8>, WireError> {
    gbooster_telemetry::prof_scope!(gbooster_telemetry::names::host::GLES_ENCODE);
    let mut out = Vec::new();
    for cmd in cmds {
        encode_command(cmd, &mut out)?;
    }
    Ok(out)
}

/// Decodes a whole command sequence.
///
/// # Errors
///
/// Fails on truncated or malformed input.
pub fn decode_stream(data: &[u8]) -> Result<Vec<GlCommand>, WireError> {
    gbooster_telemetry::prof_scope!(gbooster_telemetry::names::host::GLES_DECODE);
    let mut out = Vec::new();
    let mut r = Reader::new(data);
    while !r.is_empty() {
        let (cmd, used) = decode_command(&data[r.pos..])?;
        r.pos += used;
        out.push(cmd);
    }
    Ok(out)
}

/// Coarse GL command category used by the uplink attribution profiler
/// to explain which part of the API surface the wire bytes serve.
pub fn command_category(cmd: &GlCommand) -> &'static str {
    match cmd {
        GlCommand::GenTexture(_)
        | GlCommand::DeleteTexture(_)
        | GlCommand::GenBuffer(_)
        | GlCommand::DeleteBuffer(_)
        | GlCommand::GenFramebuffer(_)
        | GlCommand::DeleteFramebuffer(_)
        | GlCommand::CreateShader(..)
        | GlCommand::DeleteShader(_)
        | GlCommand::CreateProgram(_)
        | GlCommand::DeleteProgram(_)
        | GlCommand::AttachShader { .. } => "object",
        GlCommand::ShaderSource { .. }
        | GlCommand::CompileShader(_)
        | GlCommand::LinkProgram(_)
        | GlCommand::UseProgram(_) => "shader",
        GlCommand::BindBuffer { .. }
        | GlCommand::BufferData { .. }
        | GlCommand::BufferSubData { .. } => "buffer",
        GlCommand::ActiveTexture(_)
        | GlCommand::BindTexture { .. }
        | GlCommand::TexImage2D { .. }
        | GlCommand::TexSubImage2D { .. }
        | GlCommand::TexParameter { .. } => "texture",
        GlCommand::BindFramebuffer(_) | GlCommand::FramebufferTexture2D { .. } => "framebuffer",
        GlCommand::Enable(_)
        | GlCommand::Disable(_)
        | GlCommand::BlendFunc { .. }
        | GlCommand::DepthFunc(_)
        | GlCommand::DepthMask(_)
        | GlCommand::ClearColor { .. }
        | GlCommand::ClearDepth(_)
        | GlCommand::Viewport { .. }
        | GlCommand::Scissor { .. } => "state",
        GlCommand::Uniform { .. } => "uniform",
        GlCommand::EnableVertexAttribArray(_)
        | GlCommand::DisableVertexAttribArray(_)
        | GlCommand::VertexAttribPointer { .. } => "vertex",
        GlCommand::Clear(_) | GlCommand::DrawArrays { .. } | GlCommand::DrawElements { .. } => {
            "draw"
        }
        GlCommand::Finish | GlCommand::Flush | GlCommand::SwapBuffers => "frame",
    }
}

/// Resolves deferred client-memory pointers (Section IV-B).
///
/// Commands flow through [`DeferredResolver::push`]; `VertexAttribPointer`
/// commands that reference client memory are *held*, and released —
/// materialized with exact lengths — immediately before the draw call that
/// reveals how many vertices they cover.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use gbooster_gles::command::{ClientMemory, GlCommand, VertexSource};
/// use gbooster_gles::exec::pack_f32;
/// use gbooster_gles::serialize::DeferredResolver;
/// use gbooster_gles::types::{AttribType, Primitive};
///
/// let mut mem = ClientMemory::new();
/// let ptr = mem.alloc(pack_f32(&[0.0; 6]));
/// let mut resolver = DeferredResolver::new();
/// let held = resolver.push(
///     GlCommand::VertexAttribPointer {
///         index: 0, size: 2, ty: AttribType::F32,
///         normalized: false, stride: 0,
///         source: VertexSource::ClientMemory(ptr),
///     },
///     &mem,
/// )?;
/// assert!(held.is_empty(), "pointer command is deferred");
/// let released = resolver.push(
///     GlCommand::DrawArrays { mode: Primitive::Triangles, first: 0, count: 3 },
///     &mem,
/// )?;
/// assert_eq!(released.len(), 2, "pointer released just before the draw");
/// # Ok::<(), gbooster_gles::serialize::WireError>(())
/// ```
#[derive(Debug, Default)]
pub struct DeferredResolver {
    /// Held `VertexAttribPointer` commands by attribute index.
    held: HashMap<u32, GlCommand>,
    /// The held indices in release order, rebuilt for each draw.
    release_order: Vec<u32>,
    /// Shadow copy of element-array buffers, to size `DrawElements`.
    element_buffers: HashMap<u32, Arc<Vec<u8>>>,
    bound_element: BufferId,
}

impl DeferredResolver {
    /// Creates an empty resolver.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of commands currently deferred.
    pub fn pending(&self) -> usize {
        self.held.len()
    }

    /// Pushes one intercepted command; returns the command(s) now ready
    /// for serialization, in order.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::ClientRead`] if a held pointer cannot be
    /// materialized when its draw arrives.
    pub fn push(
        &mut self,
        cmd: GlCommand,
        mem: &ClientMemory,
    ) -> Result<Vec<GlCommand>, WireError> {
        let mut out = Vec::new();
        self.push_into(cmd, mem, &mut out)?;
        Ok(out)
    }

    /// [`Self::push`], appending the ready command(s) to `out` instead of
    /// returning a new `Vec`.
    ///
    /// # Errors
    ///
    /// As [`Self::push`]; `out` may then hold some released pointers.
    pub fn push_into(
        &mut self,
        cmd: GlCommand,
        mem: &ClientMemory,
        out: &mut Vec<GlCommand>,
    ) -> Result<(), WireError> {
        // Shadow the element-buffer state needed to size DrawElements.
        match &cmd {
            GlCommand::BindBuffer {
                target: BufferTarget::ElementArray,
                buffer,
            } => {
                self.bound_element = *buffer;
            }
            GlCommand::BufferData {
                target: BufferTarget::ElementArray,
                data,
                ..
            } if !self.bound_element.is_null() => {
                self.element_buffers
                    .insert(self.bound_element.raw(), Arc::clone(data));
            }
            _ => {}
        }

        match cmd {
            GlCommand::VertexAttribPointer {
                index, ref source, ..
            } if matches!(source, VertexSource::ClientMemory(_)) => {
                // Defer: transmission postponed until a draw reveals size.
                self.held.insert(index, cmd);
                return Ok(());
            }
            GlCommand::VertexAttribPointer { index, .. } => {
                // A new buffer-backed pointer supersedes any held one.
                self.held.remove(&index);
            }
            GlCommand::DrawArrays { first, count, .. } => {
                self.release_held(first + count, mem, out)?;
            }
            GlCommand::DrawElements {
                count,
                index_type,
                ref indices,
                ..
            } => {
                let max_index = self.max_index(count, index_type, indices)?;
                self.release_held(max_index + 1, mem, out)?;
            }
            _ => {}
        }
        out.push(cmd);
        Ok(())
    }

    /// Materializes every held pointer for `vertex_count` vertices and
    /// appends them to `out` in attribute order (all precede the draw).
    fn release_held(
        &mut self,
        vertex_count: u32,
        mem: &ClientMemory,
        out: &mut Vec<GlCommand>,
    ) -> Result<(), WireError> {
        if self.held.is_empty() {
            return Ok(());
        }
        self.release_order.clear();
        self.release_order.extend(self.held.keys());
        self.release_order.sort_unstable();
        out.reserve(self.release_order.len());
        for i in &self.release_order {
            let cmd = self.held.remove(i).expect("key just listed");
            let GlCommand::VertexAttribPointer {
                index,
                size,
                ty,
                normalized,
                stride,
                source: VertexSource::ClientMemory(ptr),
            } = cmd
            else {
                unreachable!("held map only stores client-memory pointers");
            };
            let elem = size as u32 * ty.size() as u32;
            let effective_stride = if stride == 0 { elem } else { stride };
            // Exact bytes referenced by vertex_count vertices.
            let len = if vertex_count == 0 {
                0
            } else {
                ((vertex_count - 1) * effective_stride + elem) as usize
            };
            let data = mem
                .read(ptr, len)
                .map_err(|e| WireError::ClientRead(e.to_string()))?
                .to_vec();
            out.push(GlCommand::VertexAttribPointer {
                index,
                size,
                ty,
                normalized,
                stride,
                source: VertexSource::Materialized(Arc::new(data)),
            });
        }
        Ok(())
    }

    fn max_index(&self, count: u32, ty: IndexType, src: &IndexSource) -> Result<u32, WireError> {
        let bytes: &[u8] = match src {
            IndexSource::Inline(data) => data,
            IndexSource::BufferOffset(off) => {
                let buf = self
                    .element_buffers
                    .get(&self.bound_element.raw())
                    .ok_or_else(|| WireError::ClientRead("element buffer not shadowed".into()))?;
                buf.get(*off as usize..).ok_or_else(|| {
                    WireError::ClientRead("index offset past element buffer".into())
                })?
            }
        };
        let indices = ty.decode(bytes, count).map_err(WireError::ClientRead)?;
        Ok(indices.max().unwrap_or(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::ClientPtr;
    use crate::exec::pack_f32;

    fn roundtrip(cmd: GlCommand) {
        let mut buf = Vec::new();
        encode_command(&cmd, &mut buf).unwrap();
        let (decoded, used) = decode_command(&buf).unwrap();
        assert_eq!(used, buf.len());
        assert_eq!(decoded, cmd);
    }

    #[test]
    fn roundtrip_simple_commands() {
        roundtrip(GlCommand::GenTexture(TextureId(42)));
        roundtrip(GlCommand::UseProgram(ProgramId(7)));
        roundtrip(GlCommand::ActiveTexture(3));
        roundtrip(GlCommand::Enable(Capability::DepthTest));
        roundtrip(GlCommand::Finish);
        roundtrip(GlCommand::SwapBuffers);
        roundtrip(GlCommand::DepthMask(false));
    }

    #[test]
    fn roundtrip_commands_with_floats() {
        roundtrip(GlCommand::ClearColor {
            r: 0.25,
            g: -1.5,
            b: 1e10,
            a: 0.0,
        });
        roundtrip(GlCommand::ClearDepth(0.5));
        roundtrip(GlCommand::Uniform {
            location: UniformLocation(9),
            value: UniformValue::Mat4([1.5; 16]),
        });
        roundtrip(GlCommand::Uniform {
            location: UniformLocation(2),
            value: UniformValue::F3([0.1, 0.2, 0.3]),
        });
    }

    #[test]
    fn roundtrip_bulk_data_commands() {
        roundtrip(GlCommand::BufferData {
            target: BufferTarget::Array,
            data: Arc::new((0..=255).collect()),
            usage: BufferUsage::StreamDraw,
        });
        roundtrip(GlCommand::TexImage2D {
            target: TextureTarget::Texture2D,
            level: 2,
            format: PixelFormat::Rgb565,
            width: 16,
            height: 8,
            data: Arc::new(vec![0xAB; 256]),
        });
        roundtrip(GlCommand::ShaderSource {
            shader: ShaderId(1),
            source: "precision mediump float; void main() {}".into(),
        });
    }

    #[test]
    fn roundtrip_draw_and_pointer_commands() {
        roundtrip(GlCommand::DrawArrays {
            mode: Primitive::TriangleFan,
            first: 3,
            count: 12,
        });
        roundtrip(GlCommand::DrawElements {
            mode: Primitive::Triangles,
            count: 6,
            index_type: IndexType::U16,
            indices: IndexSource::Inline(Arc::new(vec![0, 0, 1, 0, 2, 0])),
        });
        roundtrip(GlCommand::VertexAttribPointer {
            index: 2,
            size: 3,
            ty: AttribType::F32,
            normalized: true,
            stride: 24,
            source: VertexSource::Materialized(Arc::new(vec![1, 2, 3, 4])),
        });
        roundtrip(GlCommand::VertexAttribPointer {
            index: 0,
            size: 2,
            ty: AttribType::I16,
            normalized: false,
            stride: 0,
            source: VertexSource::BufferOffset(128),
        });
    }

    #[test]
    fn stream_roundtrip_preserves_order() {
        let cmds = vec![
            GlCommand::CreateProgram(ProgramId(1)),
            GlCommand::LinkProgram(ProgramId(1)),
            GlCommand::UseProgram(ProgramId(1)),
            GlCommand::clear_all(),
            GlCommand::SwapBuffers,
        ];
        let bytes = encode_stream(&cmds).unwrap();
        let back = decode_stream(&bytes).unwrap();
        assert_eq!(back, cmds);
    }

    #[test]
    fn unresolved_pointer_cannot_be_encoded() {
        let cmd = GlCommand::VertexAttribPointer {
            index: 0,
            size: 2,
            ty: AttribType::F32,
            normalized: false,
            stride: 0,
            source: VertexSource::ClientMemory(ClientPtr(0x1000)),
        };
        let mut out = Vec::new();
        assert_eq!(
            encode_command(&cmd, &mut out),
            Err(WireError::UnresolvedPointer)
        );
    }

    #[test]
    fn truncated_input_is_detected() {
        let mut buf = Vec::new();
        encode_command(
            &GlCommand::ClearColor {
                r: 1.0,
                g: 1.0,
                b: 1.0,
                a: 1.0,
            },
            &mut buf,
        )
        .unwrap();
        for cut in 1..buf.len() {
            assert!(decode_command(&buf[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn unknown_opcode_is_rejected() {
        assert_eq!(decode_command(&[0xff]), Err(WireError::BadOpcode(0xff)));
    }

    #[test]
    fn a_huge_bulk_length_is_truncated_not_a_panic() {
        // Each bulk opcode with the width of its fixed fields, all zero.
        for (opcode, fixed) in [
            (op::SHADER_SOURCE, 4),
            (op::BUFFER_DATA, 2),
            (op::BUFFER_SUB_DATA, 5),
            (op::TEX_IMAGE_2D, 11),
            (op::TEX_SUB_IMAGE_2D, 19),
            (op::VERTEX_ATTRIB_POINTER_MAT, 11),
            (op::DRAW_ELEMENTS_INLINE, 6),
        ] {
            let mut input = vec![opcode];
            input.resize(1 + fixed, 0);
            let head = input.len();
            // An empty payload decodes, so the length sits where expected.
            input.push(0);
            assert_eq!(decode_command(&input).map(|(_, n)| n), Ok(head + 1));
            // A varint of u64::MAX: nine 0xff bytes, then 0x01.
            input.truncate(head);
            input.extend([0xff; 9]);
            input.push(0x01);
            assert_eq!(
                decode_command(&input),
                Err(WireError::Truncated),
                "opcode {opcode:#04x}"
            );
        }
    }

    #[test]
    fn resolver_defers_until_draw_arrays() {
        let mut mem = ClientMemory::new();
        // 6 vertices x 2 f32 = 48 bytes; draw only uses first 3.
        let ptr = mem.alloc(pack_f32(&[0.0; 12]));
        let mut resolver = DeferredResolver::new();
        let held = resolver
            .push(
                GlCommand::VertexAttribPointer {
                    index: 0,
                    size: 2,
                    ty: AttribType::F32,
                    normalized: false,
                    stride: 0,
                    source: VertexSource::ClientMemory(ptr),
                },
                &mem,
            )
            .unwrap();
        assert!(held.is_empty());
        assert_eq!(resolver.pending(), 1);
        let out = resolver
            .push(
                GlCommand::DrawArrays {
                    mode: Primitive::Triangles,
                    first: 0,
                    count: 3,
                },
                &mem,
            )
            .unwrap();
        assert_eq!(out.len(), 2);
        let GlCommand::VertexAttribPointer {
            source: VertexSource::Materialized(data),
            ..
        } = &out[0]
        else {
            panic!("expected materialized pointer, got {:?}", out[0]);
        };
        assert_eq!(data.len(), 24, "3 vertices x 8 bytes");
        assert!(out[1].is_draw());
        assert_eq!(resolver.pending(), 0);
    }

    #[test]
    fn resolver_sizes_draw_elements_from_max_index() {
        let mut mem = ClientMemory::new();
        let ptr = mem.alloc(pack_f32(&[0.0; 20])); // 10 verts x 2 f32
        let mut resolver = DeferredResolver::new();
        resolver
            .push(
                GlCommand::VertexAttribPointer {
                    index: 0,
                    size: 2,
                    ty: AttribType::F32,
                    normalized: false,
                    stride: 0,
                    source: VertexSource::ClientMemory(ptr),
                },
                &mem,
            )
            .unwrap();
        // Indices reference up to vertex 7 -> 8 vertices needed.
        let out = resolver
            .push(
                GlCommand::DrawElements {
                    mode: Primitive::Triangles,
                    count: 3,
                    index_type: IndexType::U8,
                    indices: IndexSource::Inline(Arc::new(vec![0, 7, 3])),
                },
                &mem,
            )
            .unwrap();
        let GlCommand::VertexAttribPointer {
            source: VertexSource::Materialized(data),
            ..
        } = &out[0]
        else {
            panic!("expected materialized pointer");
        };
        assert_eq!(data.len(), 64, "8 vertices x 8 bytes");
    }

    #[test]
    fn resolver_shadow_tracks_element_buffer() {
        let mut mem = ClientMemory::new();
        let ptr = mem.alloc(pack_f32(&[0.0; 8]));
        let mut resolver = DeferredResolver::new();
        resolver
            .push(GlCommand::GenBuffer(BufferId(5)), &mem)
            .unwrap();
        resolver
            .push(
                GlCommand::BindBuffer {
                    target: BufferTarget::ElementArray,
                    buffer: BufferId(5),
                },
                &mem,
            )
            .unwrap();
        resolver
            .push(
                GlCommand::BufferData {
                    target: BufferTarget::ElementArray,
                    data: Arc::new(vec![0u8, 1, 2]),
                    usage: BufferUsage::StaticDraw,
                },
                &mem,
            )
            .unwrap();
        resolver
            .push(
                GlCommand::VertexAttribPointer {
                    index: 0,
                    size: 2,
                    ty: AttribType::F32,
                    normalized: false,
                    stride: 0,
                    source: VertexSource::ClientMemory(ptr),
                },
                &mem,
            )
            .unwrap();
        let out = resolver
            .push(
                GlCommand::DrawElements {
                    mode: Primitive::Triangles,
                    count: 3,
                    index_type: IndexType::U8,
                    indices: IndexSource::BufferOffset(0),
                },
                &mem,
            )
            .unwrap();
        let GlCommand::VertexAttribPointer {
            source: VertexSource::Materialized(data),
            ..
        } = &out[0]
        else {
            panic!("expected materialized pointer");
        };
        assert_eq!(data.len(), 24, "max index 2 -> 3 vertices x 8 bytes");
    }

    #[test]
    fn resolver_passes_other_commands_through() {
        let mem = ClientMemory::new();
        let mut resolver = DeferredResolver::new();
        let out = resolver
            .push(GlCommand::Enable(Capability::Blend), &mem)
            .unwrap();
        assert_eq!(out, vec![GlCommand::Enable(Capability::Blend)]);
    }

    #[test]
    fn resolver_reports_dangling_pointer_at_draw_time() {
        let mem = ClientMemory::new();
        let mut resolver = DeferredResolver::new();
        resolver
            .push(
                GlCommand::VertexAttribPointer {
                    index: 0,
                    size: 2,
                    ty: AttribType::F32,
                    normalized: false,
                    stride: 0,
                    source: VertexSource::ClientMemory(ClientPtr(0xdead)),
                },
                &mem,
            )
            .unwrap();
        let err = resolver
            .push(
                GlCommand::DrawArrays {
                    mode: Primitive::Triangles,
                    first: 0,
                    count: 3,
                },
                &mem,
            )
            .unwrap_err();
        assert!(matches!(err, WireError::ClientRead(_)));
    }

    #[test]
    fn resolver_respects_stride_in_length_formula() {
        let mut mem = ClientMemory::new();
        // Interleaved: stride 20, last vertex needs only 8 bytes.
        // 3 vertices: 2*20 + 8 = 48 bytes exactly.
        let ptr = mem.alloc(vec![0u8; 48]);
        let mut resolver = DeferredResolver::new();
        resolver
            .push(
                GlCommand::VertexAttribPointer {
                    index: 0,
                    size: 2,
                    ty: AttribType::F32,
                    normalized: false,
                    stride: 20,
                    source: VertexSource::ClientMemory(ptr),
                },
                &mem,
            )
            .unwrap();
        let out = resolver
            .push(
                GlCommand::DrawArrays {
                    mode: Primitive::Triangles,
                    first: 0,
                    count: 3,
                },
                &mem,
            )
            .unwrap();
        let GlCommand::VertexAttribPointer {
            source: VertexSource::Materialized(data),
            ..
        } = &out[0]
        else {
            panic!("expected materialized pointer");
        };
        assert_eq!(data.len(), 48);
    }
}
