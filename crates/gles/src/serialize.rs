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
//! itself: a 1-byte opcode followed by little-endian fields, with
//! varint-prefixed bulk payloads.

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

// ---------------------------------------------------------------------------
// primitive writers/readers
// ---------------------------------------------------------------------------

fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}
fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_i32(out: &mut Vec<u8>, v: i32) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_f32(out: &mut Vec<u8>, v: f32) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
}
fn put_bytes(out: &mut Vec<u8>, data: &[u8]) {
    put_varint(out, data.len() as u64);
    out.extend_from_slice(data);
}

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
    fn u8(&mut self) -> Result<u8, WireError> {
        let v = *self.data.get(self.pos).ok_or(WireError::Truncated)?;
        self.pos += 1;
        Ok(v)
    }
    fn u32(&mut self) -> Result<u32, WireError> {
        let b = self
            .data
            .get(self.pos..self.pos + 4)
            .ok_or(WireError::Truncated)?;
        self.pos += 4;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
    fn i32(&mut self) -> Result<i32, WireError> {
        Ok(self.u32()? as i32)
    }
    fn f32(&mut self) -> Result<f32, WireError> {
        Ok(f32::from_bits(self.u32()?))
    }
    fn varint(&mut self) -> Result<u64, WireError> {
        let mut v = 0u64;
        let mut shift = 0;
        loop {
            let byte = self.u8()?;
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
    fn bytes(&mut self) -> Result<Vec<u8>, WireError> {
        let len = self.varint()? as usize;
        let b = self
            .data
            .get(self.pos..self.pos + len)
            .ok_or(WireError::Truncated)?;
        self.pos += len;
        Ok(b.to_vec())
    }
    fn bool(&mut self) -> Result<bool, WireError> {
        Ok(self.u8()? != 0)
    }
    fn is_empty(&self) -> bool {
        self.pos >= self.data.len()
    }
}

// Enum <-> byte tables. Kept adjacent so encode and decode stay in sync.
fn buffer_target_byte(t: BufferTarget) -> u8 {
    match t {
        BufferTarget::Array => 0,
        BufferTarget::ElementArray => 1,
    }
}
fn buffer_target_from(v: u8) -> Result<BufferTarget, WireError> {
    match v {
        0 => Ok(BufferTarget::Array),
        1 => Ok(BufferTarget::ElementArray),
        _ => Err(WireError::BadEnum("BufferTarget", v)),
    }
}
fn usage_byte(u: BufferUsage) -> u8 {
    match u {
        BufferUsage::StaticDraw => 0,
        BufferUsage::DynamicDraw => 1,
        BufferUsage::StreamDraw => 2,
    }
}
fn usage_from(v: u8) -> Result<BufferUsage, WireError> {
    match v {
        0 => Ok(BufferUsage::StaticDraw),
        1 => Ok(BufferUsage::DynamicDraw),
        2 => Ok(BufferUsage::StreamDraw),
        _ => Err(WireError::BadEnum("BufferUsage", v)),
    }
}
fn shader_kind_byte(k: ShaderKind) -> u8 {
    match k {
        ShaderKind::Vertex => 0,
        ShaderKind::Fragment => 1,
    }
}
fn shader_kind_from(v: u8) -> Result<ShaderKind, WireError> {
    match v {
        0 => Ok(ShaderKind::Vertex),
        1 => Ok(ShaderKind::Fragment),
        _ => Err(WireError::BadEnum("ShaderKind", v)),
    }
}
fn tex_target_byte(t: TextureTarget) -> u8 {
    match t {
        TextureTarget::Texture2D => 0,
        TextureTarget::CubeMap => 1,
    }
}
fn tex_target_from(v: u8) -> Result<TextureTarget, WireError> {
    match v {
        0 => Ok(TextureTarget::Texture2D),
        1 => Ok(TextureTarget::CubeMap),
        _ => Err(WireError::BadEnum("TextureTarget", v)),
    }
}
fn pixel_format_byte(p: PixelFormat) -> u8 {
    match p {
        PixelFormat::Rgba8 => 0,
        PixelFormat::Rgb8 => 1,
        PixelFormat::Luminance => 2,
        PixelFormat::Rgb565 => 3,
    }
}
fn pixel_format_from(v: u8) -> Result<PixelFormat, WireError> {
    match v {
        0 => Ok(PixelFormat::Rgba8),
        1 => Ok(PixelFormat::Rgb8),
        2 => Ok(PixelFormat::Luminance),
        3 => Ok(PixelFormat::Rgb565),
        _ => Err(WireError::BadEnum("PixelFormat", v)),
    }
}
fn capability_byte(c: Capability) -> u8 {
    match c {
        Capability::Blend => 0,
        Capability::DepthTest => 1,
        Capability::CullFace => 2,
        Capability::ScissorTest => 3,
        Capability::Dither => 4,
    }
}
fn capability_from(v: u8) -> Result<Capability, WireError> {
    match v {
        0 => Ok(Capability::Blend),
        1 => Ok(Capability::DepthTest),
        2 => Ok(Capability::CullFace),
        3 => Ok(Capability::ScissorTest),
        4 => Ok(Capability::Dither),
        _ => Err(WireError::BadEnum("Capability", v)),
    }
}
fn blend_byte(b: BlendFactor) -> u8 {
    match b {
        BlendFactor::Zero => 0,
        BlendFactor::One => 1,
        BlendFactor::SrcAlpha => 2,
        BlendFactor::OneMinusSrcAlpha => 3,
    }
}
fn blend_from(v: u8) -> Result<BlendFactor, WireError> {
    match v {
        0 => Ok(BlendFactor::Zero),
        1 => Ok(BlendFactor::One),
        2 => Ok(BlendFactor::SrcAlpha),
        3 => Ok(BlendFactor::OneMinusSrcAlpha),
        _ => Err(WireError::BadEnum("BlendFactor", v)),
    }
}
fn depth_func_byte(d: DepthFunc) -> u8 {
    match d {
        DepthFunc::Less => 0,
        DepthFunc::LessEqual => 1,
        DepthFunc::Always => 2,
    }
}
fn depth_func_from(v: u8) -> Result<DepthFunc, WireError> {
    match v {
        0 => Ok(DepthFunc::Less),
        1 => Ok(DepthFunc::LessEqual),
        2 => Ok(DepthFunc::Always),
        _ => Err(WireError::BadEnum("DepthFunc", v)),
    }
}
fn primitive_byte(p: Primitive) -> u8 {
    match p {
        Primitive::Points => 0,
        Primitive::Lines => 1,
        Primitive::Triangles => 2,
        Primitive::TriangleStrip => 3,
        Primitive::TriangleFan => 4,
    }
}
fn primitive_from(v: u8) -> Result<Primitive, WireError> {
    match v {
        0 => Ok(Primitive::Points),
        1 => Ok(Primitive::Lines),
        2 => Ok(Primitive::Triangles),
        3 => Ok(Primitive::TriangleStrip),
        4 => Ok(Primitive::TriangleFan),
        _ => Err(WireError::BadEnum("Primitive", v)),
    }
}
fn index_type_byte(t: IndexType) -> u8 {
    match t {
        IndexType::U8 => 0,
        IndexType::U16 => 1,
    }
}
fn index_type_from(v: u8) -> Result<IndexType, WireError> {
    match v {
        0 => Ok(IndexType::U8),
        1 => Ok(IndexType::U16),
        _ => Err(WireError::BadEnum("IndexType", v)),
    }
}
fn attrib_type_byte(t: AttribType) -> u8 {
    match t {
        AttribType::F32 => 0,
        AttribType::U8 => 1,
        AttribType::I16 => 2,
    }
}
fn attrib_type_from(v: u8) -> Result<AttribType, WireError> {
    match v {
        0 => Ok(AttribType::F32),
        1 => Ok(AttribType::U8),
        2 => Ok(AttribType::I16),
        _ => Err(WireError::BadEnum("AttribType", v)),
    }
}
fn tex_param_encode(out: &mut Vec<u8>, p: TexParam) {
    let (tag, val) = match p {
        TexParam::MinFilterLinear(v) => (0u8, v),
        TexParam::MagFilterLinear(v) => (1, v),
        TexParam::WrapSRepeat(v) => (2, v),
        TexParam::WrapTRepeat(v) => (3, v),
    };
    put_u8(out, tag);
    put_u8(out, val as u8);
}
fn tex_param_decode(r: &mut Reader<'_>) -> Result<TexParam, WireError> {
    let tag = r.u8()?;
    let val = r.bool()?;
    match tag {
        0 => Ok(TexParam::MinFilterLinear(val)),
        1 => Ok(TexParam::MagFilterLinear(val)),
        2 => Ok(TexParam::WrapSRepeat(val)),
        3 => Ok(TexParam::WrapTRepeat(val)),
        _ => Err(WireError::BadEnum("TexParam", tag)),
    }
}
fn uniform_encode(out: &mut Vec<u8>, v: &UniformValue) {
    match v {
        UniformValue::F1(a) => {
            put_u8(out, 0);
            put_f32(out, *a);
        }
        UniformValue::F2(a) => {
            put_u8(out, 1);
            a.iter().for_each(|x| put_f32(out, *x));
        }
        UniformValue::F3(a) => {
            put_u8(out, 2);
            a.iter().for_each(|x| put_f32(out, *x));
        }
        UniformValue::F4(a) => {
            put_u8(out, 3);
            a.iter().for_each(|x| put_f32(out, *x));
        }
        UniformValue::I1(a) => {
            put_u8(out, 4);
            put_i32(out, *a);
        }
        UniformValue::Mat4(a) => {
            put_u8(out, 5);
            a.iter().for_each(|x| put_f32(out, *x));
        }
    }
}
fn uniform_decode(r: &mut Reader<'_>) -> Result<UniformValue, WireError> {
    match r.u8()? {
        0 => Ok(UniformValue::F1(r.f32()?)),
        1 => Ok(UniformValue::F2([r.f32()?, r.f32()?])),
        2 => Ok(UniformValue::F3([r.f32()?, r.f32()?, r.f32()?])),
        3 => Ok(UniformValue::F4([r.f32()?, r.f32()?, r.f32()?, r.f32()?])),
        4 => Ok(UniformValue::I1(r.i32()?)),
        5 => {
            let mut m = [0f32; 16];
            for slot in &mut m {
                *slot = r.f32()?;
            }
            Ok(UniformValue::Mat4(m))
        }
        t => Err(WireError::BadEnum("UniformValue", t)),
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
    match cmd {
        GlCommand::GenTexture(id) => {
            put_u8(out, op::GEN_TEXTURE);
            put_u32(out, id.raw());
        }
        GlCommand::DeleteTexture(id) => {
            put_u8(out, op::DELETE_TEXTURE);
            put_u32(out, id.raw());
        }
        GlCommand::GenBuffer(id) => {
            put_u8(out, op::GEN_BUFFER);
            put_u32(out, id.raw());
        }
        GlCommand::DeleteBuffer(id) => {
            put_u8(out, op::DELETE_BUFFER);
            put_u32(out, id.raw());
        }
        GlCommand::GenFramebuffer(id) => {
            put_u8(out, op::GEN_FRAMEBUFFER);
            put_u32(out, id.raw());
        }
        GlCommand::DeleteFramebuffer(id) => {
            put_u8(out, op::DELETE_FRAMEBUFFER);
            put_u32(out, id.raw());
        }
        GlCommand::CreateShader(id, kind) => {
            put_u8(out, op::CREATE_SHADER);
            put_u32(out, id.raw());
            put_u8(out, shader_kind_byte(*kind));
        }
        GlCommand::ShaderSource { shader, source } => {
            put_u8(out, op::SHADER_SOURCE);
            put_u32(out, shader.raw());
            put_bytes(out, source.as_bytes());
        }
        GlCommand::CompileShader(id) => {
            put_u8(out, op::COMPILE_SHADER);
            put_u32(out, id.raw());
        }
        GlCommand::DeleteShader(id) => {
            put_u8(out, op::DELETE_SHADER);
            put_u32(out, id.raw());
        }
        GlCommand::CreateProgram(id) => {
            put_u8(out, op::CREATE_PROGRAM);
            put_u32(out, id.raw());
        }
        GlCommand::AttachShader { program, shader } => {
            put_u8(out, op::ATTACH_SHADER);
            put_u32(out, program.raw());
            put_u32(out, shader.raw());
        }
        GlCommand::LinkProgram(id) => {
            put_u8(out, op::LINK_PROGRAM);
            put_u32(out, id.raw());
        }
        GlCommand::UseProgram(id) => {
            put_u8(out, op::USE_PROGRAM);
            put_u32(out, id.raw());
        }
        GlCommand::DeleteProgram(id) => {
            put_u8(out, op::DELETE_PROGRAM);
            put_u32(out, id.raw());
        }
        GlCommand::BindBuffer { target, buffer } => {
            put_u8(out, op::BIND_BUFFER);
            put_u8(out, buffer_target_byte(*target));
            put_u32(out, buffer.raw());
        }
        GlCommand::BufferData {
            target,
            data,
            usage,
        } => {
            put_u8(out, op::BUFFER_DATA);
            put_u8(out, buffer_target_byte(*target));
            put_u8(out, usage_byte(*usage));
            put_bytes(out, data);
        }
        GlCommand::BufferSubData {
            target,
            offset,
            data,
        } => {
            put_u8(out, op::BUFFER_SUB_DATA);
            put_u8(out, buffer_target_byte(*target));
            put_u32(out, *offset);
            put_bytes(out, data);
        }
        GlCommand::ActiveTexture(unit) => {
            put_u8(out, op::ACTIVE_TEXTURE);
            put_u32(out, *unit);
        }
        GlCommand::BindTexture { target, texture } => {
            put_u8(out, op::BIND_TEXTURE);
            put_u8(out, tex_target_byte(*target));
            put_u32(out, texture.raw());
        }
        GlCommand::TexImage2D {
            target,
            level,
            format,
            width,
            height,
            data,
        } => {
            put_u8(out, op::TEX_IMAGE_2D);
            put_u8(out, tex_target_byte(*target));
            put_u8(out, *level);
            put_u8(out, pixel_format_byte(*format));
            put_u32(out, *width);
            put_u32(out, *height);
            put_bytes(out, data);
        }
        GlCommand::TexSubImage2D {
            target,
            level,
            x,
            y,
            width,
            height,
            format,
            data,
        } => {
            put_u8(out, op::TEX_SUB_IMAGE_2D);
            put_u8(out, tex_target_byte(*target));
            put_u8(out, *level);
            put_u32(out, *x);
            put_u32(out, *y);
            put_u32(out, *width);
            put_u32(out, *height);
            put_u8(out, pixel_format_byte(*format));
            put_bytes(out, data);
        }
        GlCommand::TexParameter { target, param } => {
            put_u8(out, op::TEX_PARAMETER);
            put_u8(out, tex_target_byte(*target));
            tex_param_encode(out, *param);
        }
        GlCommand::BindFramebuffer(id) => {
            put_u8(out, op::BIND_FRAMEBUFFER);
            put_u32(out, id.raw());
        }
        GlCommand::FramebufferTexture2D { texture } => {
            put_u8(out, op::FRAMEBUFFER_TEXTURE_2D);
            put_u32(out, texture.raw());
        }
        GlCommand::Enable(cap) => {
            put_u8(out, op::ENABLE);
            put_u8(out, capability_byte(*cap));
        }
        GlCommand::Disable(cap) => {
            put_u8(out, op::DISABLE);
            put_u8(out, capability_byte(*cap));
        }
        GlCommand::BlendFunc { src, dst } => {
            put_u8(out, op::BLEND_FUNC);
            put_u8(out, blend_byte(*src));
            put_u8(out, blend_byte(*dst));
        }
        GlCommand::DepthFunc(fun) => {
            put_u8(out, op::DEPTH_FUNC);
            put_u8(out, depth_func_byte(*fun));
        }
        GlCommand::DepthMask(m) => {
            put_u8(out, op::DEPTH_MASK);
            put_u8(out, *m as u8);
        }
        GlCommand::ClearColor { r, g, b, a } => {
            put_u8(out, op::CLEAR_COLOR);
            put_f32(out, *r);
            put_f32(out, *g);
            put_f32(out, *b);
            put_f32(out, *a);
        }
        GlCommand::ClearDepth(d) => {
            put_u8(out, op::CLEAR_DEPTH);
            put_f32(out, *d);
        }
        GlCommand::Viewport {
            x,
            y,
            width,
            height,
        } => {
            put_u8(out, op::VIEWPORT);
            put_i32(out, *x);
            put_i32(out, *y);
            put_u32(out, *width);
            put_u32(out, *height);
        }
        GlCommand::Scissor {
            x,
            y,
            width,
            height,
        } => {
            put_u8(out, op::SCISSOR);
            put_i32(out, *x);
            put_i32(out, *y);
            put_u32(out, *width);
            put_u32(out, *height);
        }
        GlCommand::Uniform { location, value } => {
            put_u8(out, op::UNIFORM);
            put_u32(out, location.raw());
            uniform_encode(out, value);
        }
        GlCommand::EnableVertexAttribArray(i) => {
            put_u8(out, op::ENABLE_VERTEX_ATTRIB);
            put_u32(out, *i);
        }
        GlCommand::DisableVertexAttribArray(i) => {
            put_u8(out, op::DISABLE_VERTEX_ATTRIB);
            put_u32(out, *i);
        }
        GlCommand::VertexAttribPointer {
            index,
            size,
            ty,
            normalized,
            stride,
            source,
        } => match source {
            VertexSource::BufferOffset(off) => {
                put_u8(out, op::VERTEX_ATTRIB_POINTER_BUF);
                put_u32(out, *index);
                put_u8(out, *size);
                put_u8(out, attrib_type_byte(*ty));
                put_u8(out, *normalized as u8);
                put_u32(out, *stride);
                put_u32(out, *off);
            }
            VertexSource::Materialized(data) => {
                put_u8(out, op::VERTEX_ATTRIB_POINTER_MAT);
                put_u32(out, *index);
                put_u8(out, *size);
                put_u8(out, attrib_type_byte(*ty));
                put_u8(out, *normalized as u8);
                put_u32(out, *stride);
                put_bytes(out, data);
            }
            VertexSource::ClientMemory(_) => return Err(WireError::UnresolvedPointer),
        },
        GlCommand::Clear(mask) => {
            put_u8(out, op::CLEAR);
            let bits = (mask.color as u8) | ((mask.depth as u8) << 1) | ((mask.stencil as u8) << 2);
            put_u8(out, bits);
        }
        GlCommand::DrawArrays { mode, first, count } => {
            put_u8(out, op::DRAW_ARRAYS);
            put_u8(out, primitive_byte(*mode));
            put_u32(out, *first);
            put_u32(out, *count);
        }
        GlCommand::DrawElements {
            mode,
            count,
            index_type,
            indices,
        } => match indices {
            IndexSource::BufferOffset(off) => {
                put_u8(out, op::DRAW_ELEMENTS_BUF);
                put_u8(out, primitive_byte(*mode));
                put_u32(out, *count);
                put_u8(out, index_type_byte(*index_type));
                put_u32(out, *off);
            }
            IndexSource::Inline(data) => {
                put_u8(out, op::DRAW_ELEMENTS_INLINE);
                put_u8(out, primitive_byte(*mode));
                put_u32(out, *count);
                put_u8(out, index_type_byte(*index_type));
                put_bytes(out, data);
            }
        },
        GlCommand::Finish => put_u8(out, op::FINISH),
        GlCommand::Flush => put_u8(out, op::FLUSH),
        GlCommand::SwapBuffers => put_u8(out, op::SWAP_BUFFERS),
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
    let mut r = Reader::new(data);
    let opcode = r.u8()?;
    let cmd = match opcode {
        op::GEN_TEXTURE => GlCommand::GenTexture(TextureId(r.u32()?)),
        op::DELETE_TEXTURE => GlCommand::DeleteTexture(TextureId(r.u32()?)),
        op::GEN_BUFFER => GlCommand::GenBuffer(BufferId(r.u32()?)),
        op::DELETE_BUFFER => GlCommand::DeleteBuffer(BufferId(r.u32()?)),
        op::GEN_FRAMEBUFFER => GlCommand::GenFramebuffer(FramebufferId(r.u32()?)),
        op::DELETE_FRAMEBUFFER => GlCommand::DeleteFramebuffer(FramebufferId(r.u32()?)),
        op::CREATE_SHADER => {
            let id = ShaderId(r.u32()?);
            let kind = shader_kind_from(r.u8()?)?;
            GlCommand::CreateShader(id, kind)
        }
        op::SHADER_SOURCE => {
            let shader = ShaderId(r.u32()?);
            let source = String::from_utf8(r.bytes()?).map_err(|_| WireError::BadUtf8)?;
            GlCommand::ShaderSource { shader, source }
        }
        op::COMPILE_SHADER => GlCommand::CompileShader(ShaderId(r.u32()?)),
        op::DELETE_SHADER => GlCommand::DeleteShader(ShaderId(r.u32()?)),
        op::CREATE_PROGRAM => GlCommand::CreateProgram(ProgramId(r.u32()?)),
        op::ATTACH_SHADER => GlCommand::AttachShader {
            program: ProgramId(r.u32()?),
            shader: ShaderId(r.u32()?),
        },
        op::LINK_PROGRAM => GlCommand::LinkProgram(ProgramId(r.u32()?)),
        op::USE_PROGRAM => GlCommand::UseProgram(ProgramId(r.u32()?)),
        op::DELETE_PROGRAM => GlCommand::DeleteProgram(ProgramId(r.u32()?)),
        op::BIND_BUFFER => GlCommand::BindBuffer {
            target: buffer_target_from(r.u8()?)?,
            buffer: BufferId(r.u32()?),
        },
        op::BUFFER_DATA => {
            let target = buffer_target_from(r.u8()?)?;
            let usage = usage_from(r.u8()?)?;
            let data = Arc::new(r.bytes()?);
            GlCommand::BufferData {
                target,
                data,
                usage,
            }
        }
        op::BUFFER_SUB_DATA => {
            let target = buffer_target_from(r.u8()?)?;
            let offset = r.u32()?;
            let data = Arc::new(r.bytes()?);
            GlCommand::BufferSubData {
                target,
                offset,
                data,
            }
        }
        op::ACTIVE_TEXTURE => GlCommand::ActiveTexture(r.u32()?),
        op::BIND_TEXTURE => GlCommand::BindTexture {
            target: tex_target_from(r.u8()?)?,
            texture: TextureId(r.u32()?),
        },
        op::TEX_IMAGE_2D => {
            let target = tex_target_from(r.u8()?)?;
            let level = r.u8()?;
            let format = pixel_format_from(r.u8()?)?;
            let width = r.u32()?;
            let height = r.u32()?;
            let data = Arc::new(r.bytes()?);
            GlCommand::TexImage2D {
                target,
                level,
                format,
                width,
                height,
                data,
            }
        }
        op::TEX_SUB_IMAGE_2D => {
            let target = tex_target_from(r.u8()?)?;
            let level = r.u8()?;
            let x = r.u32()?;
            let y = r.u32()?;
            let width = r.u32()?;
            let height = r.u32()?;
            let format = pixel_format_from(r.u8()?)?;
            let data = Arc::new(r.bytes()?);
            GlCommand::TexSubImage2D {
                target,
                level,
                x,
                y,
                width,
                height,
                format,
                data,
            }
        }
        op::TEX_PARAMETER => GlCommand::TexParameter {
            target: tex_target_from(r.u8()?)?,
            param: tex_param_decode(&mut r)?,
        },
        op::BIND_FRAMEBUFFER => GlCommand::BindFramebuffer(FramebufferId(r.u32()?)),
        op::FRAMEBUFFER_TEXTURE_2D => GlCommand::FramebufferTexture2D {
            texture: TextureId(r.u32()?),
        },
        op::ENABLE => GlCommand::Enable(capability_from(r.u8()?)?),
        op::DISABLE => GlCommand::Disable(capability_from(r.u8()?)?),
        op::BLEND_FUNC => GlCommand::BlendFunc {
            src: blend_from(r.u8()?)?,
            dst: blend_from(r.u8()?)?,
        },
        op::DEPTH_FUNC => GlCommand::DepthFunc(depth_func_from(r.u8()?)?),
        op::DEPTH_MASK => GlCommand::DepthMask(r.bool()?),
        op::CLEAR_COLOR => GlCommand::ClearColor {
            r: r.f32()?,
            g: r.f32()?,
            b: r.f32()?,
            a: r.f32()?,
        },
        op::CLEAR_DEPTH => GlCommand::ClearDepth(r.f32()?),
        op::VIEWPORT => GlCommand::Viewport {
            x: r.i32()?,
            y: r.i32()?,
            width: r.u32()?,
            height: r.u32()?,
        },
        op::SCISSOR => GlCommand::Scissor {
            x: r.i32()?,
            y: r.i32()?,
            width: r.u32()?,
            height: r.u32()?,
        },
        op::UNIFORM => GlCommand::Uniform {
            location: UniformLocation(r.u32()?),
            value: uniform_decode(&mut r)?,
        },
        op::ENABLE_VERTEX_ATTRIB => GlCommand::EnableVertexAttribArray(r.u32()?),
        op::DISABLE_VERTEX_ATTRIB => GlCommand::DisableVertexAttribArray(r.u32()?),
        op::VERTEX_ATTRIB_POINTER_BUF => {
            let index = r.u32()?;
            let size = r.u8()?;
            let ty = attrib_type_from(r.u8()?)?;
            let normalized = r.bool()?;
            let stride = r.u32()?;
            let off = r.u32()?;
            GlCommand::VertexAttribPointer {
                index,
                size,
                ty,
                normalized,
                stride,
                source: VertexSource::BufferOffset(off),
            }
        }
        op::VERTEX_ATTRIB_POINTER_MAT => {
            let index = r.u32()?;
            let size = r.u8()?;
            let ty = attrib_type_from(r.u8()?)?;
            let normalized = r.bool()?;
            let stride = r.u32()?;
            let data = Arc::new(r.bytes()?);
            GlCommand::VertexAttribPointer {
                index,
                size,
                ty,
                normalized,
                stride,
                source: VertexSource::Materialized(data),
            }
        }
        op::CLEAR => {
            let bits = r.u8()?;
            GlCommand::Clear(ClearMask {
                color: bits & 1 != 0,
                depth: bits & 2 != 0,
                stencil: bits & 4 != 0,
            })
        }
        op::DRAW_ARRAYS => GlCommand::DrawArrays {
            mode: primitive_from(r.u8()?)?,
            first: r.u32()?,
            count: r.u32()?,
        },
        op::DRAW_ELEMENTS_BUF => {
            let mode = primitive_from(r.u8()?)?;
            let count = r.u32()?;
            let index_type = index_type_from(r.u8()?)?;
            let off = r.u32()?;
            GlCommand::DrawElements {
                mode,
                count,
                index_type,
                indices: IndexSource::BufferOffset(off),
            }
        }
        op::DRAW_ELEMENTS_INLINE => {
            let mode = primitive_from(r.u8()?)?;
            let count = r.u32()?;
            let index_type = index_type_from(r.u8()?)?;
            let data = Arc::new(r.bytes()?);
            GlCommand::DrawElements {
                mode,
                count,
                index_type,
                indices: IndexSource::Inline(data),
            }
        }
        op::FINISH => GlCommand::Finish,
        op::FLUSH => GlCommand::Flush,
        op::SWAP_BUFFERS => GlCommand::SwapBuffers,
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

/// The attribution categories [`command_category`] can return, sorted.
pub const CATEGORIES: [&str; 10] = [
    "buffer",
    "draw",
    "frame",
    "framebuffer",
    "object",
    "shader",
    "state",
    "texture",
    "uniform",
    "vertex",
];

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
        let mut indices: Vec<u32> = self.held.keys().copied().collect();
        indices.sort_unstable();
        out.reserve(indices.len());
        for i in indices {
            let cmd = self.held.remove(&i).expect("key just listed");
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
        let needed = count as usize * ty.size();
        if bytes.len() < needed {
            return Err(WireError::ClientRead(format!(
                "index data {} bytes, need {needed}",
                bytes.len()
            )));
        }
        let mut max = 0u32;
        for i in 0..count as usize {
            let v = match ty {
                IndexType::U8 => bytes[i] as u32,
                IndexType::U16 => u16::from_le_bytes([bytes[2 * i], bytes[2 * i + 1]]) as u32,
            };
            max = max.max(v);
        }
        Ok(max)
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
    fn command_categories_are_declared_and_sorted() {
        let mut sorted = CATEGORIES;
        sorted.sort_unstable();
        assert_eq!(sorted, CATEGORIES, "CATEGORIES must stay sorted");
        for cmd in [
            GlCommand::GenTexture(TextureId(1)),
            GlCommand::UseProgram(ProgramId(1)),
            GlCommand::BindBuffer {
                target: BufferTarget::Array,
                buffer: BufferId(1),
            },
            GlCommand::ActiveTexture(0),
            GlCommand::BindFramebuffer(FramebufferId(0)),
            GlCommand::Enable(Capability::Blend),
            GlCommand::Uniform {
                location: UniformLocation(0),
                value: UniformValue::F1(1.0),
            },
            GlCommand::EnableVertexAttribArray(0),
            GlCommand::clear_all(),
            GlCommand::SwapBuffers,
        ] {
            let cat = command_category(&cmd);
            assert!(CATEGORIES.contains(&cat), "{cat} missing from CATEGORIES");
        }
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
