//! Pins the GL command wire format (`gles::serialize`) byte for byte.
//!
//! The session and fabric goldens reach only the opcodes and enum values
//! their workloads emit. The list here reaches all 46 opcodes, every
//! value of each field enum, every `TexParam` and `UniformValue` tag,
//! all eight `Clear` bit patterns and the one- to three-byte varint
//! lengths. Each command must decode back to itself, and the FNV-1a
//! digest of the encodings must equal the committed one; a change that
//! is meant to alter the wire format updates the one `expected` value
//! the failure message prints. A second table pins the result that
//! `decode_command` gives for malformed input.

use std::collections::BTreeSet;
use std::sync::Arc;

use gbooster::gles::command::{GlCommand as C, IndexSource, TexParam, UniformValue, VertexSource};
use gbooster::gles::serialize::{decode_command, encode_command, WireError};
use gbooster::gles::types::{
    AttribType, BlendFactor, BufferId, BufferTarget, BufferUsage, Capability, ClearMask, DepthFunc,
    FramebufferId, IndexType, PixelFormat, Primitive, ProgramId, ShaderId, ShaderKind, TextureId,
    TextureTarget, UniformLocation,
};
use gbooster::sim::hash::{fnv1a, FNV1A_OFFSET};

/// What `decode_command` returns: the command and the bytes it used.
type Decoded = Result<(C, usize), WireError>;

/// `len` bytes of a repeating pattern.
fn bytes(len: usize) -> Arc<Vec<u8>> {
    Arc::new((0..len).map(|i| (i * 7 + 3) as u8).collect())
}

/// Every command form the wire format has, with every value of each
/// field enum and edge values of the numeric fields.
fn every_command_form() -> Vec<C> {
    let mut cmds = vec![
        C::GenTexture(TextureId(1)),
        C::DeleteTexture(TextureId(u32::MAX)),
        C::GenBuffer(BufferId(2)),
        C::DeleteBuffer(BufferId(0x0102_0304)),
        C::GenFramebuffer(FramebufferId(3)),
        C::DeleteFramebuffer(FramebufferId(0)),
        C::ShaderSource {
            shader: ShaderId(4),
            source: String::new(),
        },
        C::ShaderSource {
            shader: ShaderId(4),
            source: "void main() { gl_FragColor = vec4(1.0); } // ✓".into(),
        },
        C::CompileShader(ShaderId(5)),
        C::DeleteShader(ShaderId(6)),
        C::CreateProgram(ProgramId(7)),
        C::AttachShader {
            program: ProgramId(7),
            shader: ShaderId(8),
        },
        C::LinkProgram(ProgramId(9)),
        C::UseProgram(ProgramId(10)),
        C::DeleteProgram(ProgramId(11)),
        C::BufferSubData {
            target: BufferTarget::ElementArray,
            offset: 0x8000_0001,
            data: bytes(1),
        },
        C::ActiveTexture(31),
        C::BindFramebuffer(FramebufferId(12)),
        C::FramebufferTexture2D {
            texture: TextureId(13),
        },
        C::DepthMask(false),
        C::DepthMask(true),
        C::ClearColor {
            r: 0.25,
            g: -1.5,
            b: f32::INFINITY,
            a: f32::MIN_POSITIVE,
        },
        C::ClearDepth(-0.0),
        C::Viewport {
            x: -1,
            y: i32::MIN,
            width: 1920,
            height: 1080,
        },
        C::Scissor {
            x: 8,
            y: i32::MAX,
            width: 0,
            height: u32::MAX,
        },
        C::EnableVertexAttribArray(0),
        C::DisableVertexAttribArray(15),
        C::Finish,
        C::Flush,
        C::SwapBuffers,
    ];
    for kind in [ShaderKind::Vertex, ShaderKind::Fragment] {
        cmds.push(C::CreateShader(ShaderId(14), kind));
    }
    for target in [BufferTarget::Array, BufferTarget::ElementArray] {
        cmds.push(C::BindBuffer {
            target,
            buffer: BufferId(16),
        });
    }
    // Payload lengths 0, 127 and 128 take one- and two-byte varints.
    for (usage, len) in [
        (BufferUsage::StaticDraw, 0),
        (BufferUsage::DynamicDraw, 127),
        (BufferUsage::StreamDraw, 128),
    ] {
        cmds.push(C::BufferData {
            target: BufferTarget::Array,
            data: bytes(len),
            usage,
        });
    }
    for target in [TextureTarget::Texture2D, TextureTarget::CubeMap] {
        cmds.push(C::BindTexture {
            target,
            texture: TextureId(17),
        });
        for on in [false, true] {
            for param in [
                TexParam::MinFilterLinear(on),
                TexParam::MagFilterLinear(on),
                TexParam::WrapSRepeat(on),
                TexParam::WrapTRepeat(on),
            ] {
                cmds.push(C::TexParameter { target, param });
            }
        }
    }
    // 16,384 bytes take a three-byte varint.
    for (format, len) in [
        (PixelFormat::Rgba8, 64),
        (PixelFormat::Rgb8, 48),
        (PixelFormat::Luminance, 16),
        (PixelFormat::Rgb565, 16_384),
    ] {
        cmds.push(C::TexImage2D {
            target: TextureTarget::Texture2D,
            level: 0,
            format,
            width: 4,
            height: 4,
            data: bytes(len),
        });
        cmds.push(C::TexSubImage2D {
            target: TextureTarget::CubeMap,
            level: 255,
            x: 1,
            y: 2,
            width: 3,
            height: 4,
            format,
            data: bytes(len / 2),
        });
    }
    for cap in [
        Capability::Blend,
        Capability::DepthTest,
        Capability::CullFace,
        Capability::ScissorTest,
        Capability::Dither,
    ] {
        cmds.push(C::Enable(cap));
        cmds.push(C::Disable(cap));
    }
    let factors = [
        BlendFactor::Zero,
        BlendFactor::One,
        BlendFactor::SrcAlpha,
        BlendFactor::OneMinusSrcAlpha,
    ];
    for (src, dst) in factors.into_iter().zip(factors.into_iter().rev()) {
        cmds.push(C::BlendFunc { src, dst });
    }
    for fun in [DepthFunc::Less, DepthFunc::LessEqual, DepthFunc::Always] {
        cmds.push(C::DepthFunc(fun));
    }
    for value in [
        UniformValue::F1(0.5),
        UniformValue::F2([1.0, -2.0]),
        UniformValue::F3([0.1, 0.2, 0.3]),
        UniformValue::F4([f32::MAX, f32::MIN, 1e-30, -0.0]),
        UniformValue::I1(-7),
        UniformValue::Mat4(std::array::from_fn(|i| i as f32 * 0.5 - 3.0)),
    ] {
        cmds.push(C::Uniform {
            location: UniformLocation(18),
            value,
        });
    }
    for (ty, normalized) in [
        (AttribType::F32, false),
        (AttribType::U8, true),
        (AttribType::I16, false),
    ] {
        cmds.push(C::VertexAttribPointer {
            index: 1,
            size: 3,
            ty,
            normalized,
            stride: 12,
            source: VertexSource::BufferOffset(256),
        });
        cmds.push(C::VertexAttribPointer {
            index: 2,
            size: 4,
            ty,
            normalized: !normalized,
            stride: 0,
            source: VertexSource::Materialized(bytes(24)),
        });
    }
    for bits in 0..8u8 {
        cmds.push(C::Clear(ClearMask {
            color: bits & 1 != 0,
            depth: bits & 2 != 0,
            stencil: bits & 4 != 0,
        }));
    }
    for mode in [
        Primitive::Points,
        Primitive::Lines,
        Primitive::Triangles,
        Primitive::TriangleStrip,
        Primitive::TriangleFan,
    ] {
        cmds.push(C::DrawArrays {
            mode,
            first: 3,
            count: 12,
        });
    }
    for index_type in [IndexType::U8, IndexType::U16] {
        cmds.push(C::DrawElements {
            mode: Primitive::Triangles,
            count: 6,
            index_type,
            indices: IndexSource::BufferOffset(64),
        });
        cmds.push(C::DrawElements {
            mode: Primitive::TriangleStrip,
            count: 3,
            index_type,
            indices: IndexSource::Inline(bytes(6)),
        });
    }
    cmds
}

#[test]
fn every_command_form_keeps_its_wire_bytes() {
    let cmds = every_command_form();
    let mut opcodes = BTreeSet::new();
    let mut digest = FNV1A_OFFSET;
    let mut total = 0usize;
    for cmd in &cmds {
        let mut buf = Vec::new();
        encode_command(cmd, &mut buf).unwrap();
        assert_eq!(decode_command(&buf), Ok((cmd.clone(), buf.len())));
        opcodes.insert(buf[0]);
        digest = fnv1a(digest, &(buf.len() as u64).to_le_bytes());
        digest = fnv1a(digest, &buf);
        total += buf.len();
    }
    assert_eq!(
        opcodes,
        (0x01..=0x2e).collect::<BTreeSet<u8>>(),
        "the list must reach all 46 opcodes"
    );
    let expected = 0xe2e9_36fe_5c9b_ae1e;
    assert_eq!(
        digest,
        expected,
        "{} commands, {total} wire bytes: digest {digest:#018x}",
        cmds.len()
    );
}

#[test]
fn malformed_input_keeps_its_decode_result() {
    let bad_enum = |name, v| Err(WireError::BadEnum(name, v));
    let huge_len = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01];
    let cases: Vec<(Vec<u8>, Decoded)> = vec![
        (vec![], Err(WireError::Truncated)),
        (vec![0x00], Err(WireError::BadOpcode(0x00))),
        (vec![0x2f], Err(WireError::BadOpcode(0x2f))),
        (vec![0x01, 1, 0, 0], Err(WireError::Truncated)),
        (vec![0x07, 1, 0, 0, 0, 2], bad_enum("ShaderKind", 2)),
        (vec![0x10, 2], bad_enum("BufferTarget", 2)),
        (vec![0x11, 0, 3], bad_enum("BufferUsage", 3)),
        (vec![0x14, 2], bad_enum("TextureTarget", 2)),
        (vec![0x15, 0, 0, 4], bad_enum("PixelFormat", 4)),
        (vec![0x1a, 5], bad_enum("Capability", 5)),
        (vec![0x1c, 4], bad_enum("BlendFactor", 4)),
        (vec![0x1c, 0, 4], bad_enum("BlendFactor", 4)),
        (vec![0x1d, 3], bad_enum("DepthFunc", 3)),
        (vec![0x29, 5], bad_enum("Primitive", 5)),
        (vec![0x2a, 0, 6, 0, 0, 0, 2], bad_enum("IndexType", 2)),
        (vec![0x26, 0, 0, 0, 0, 1, 3], bad_enum("AttribType", 3)),
        (vec![0x17, 0, 4, 0], bad_enum("TexParam", 4)),
        // The value byte is read before the tag is checked.
        (vec![0x17, 0, 9], Err(WireError::Truncated)),
        (vec![0x23, 0, 0, 0, 0, 6], bad_enum("UniformValue", 6)),
        (vec![0x23, 0, 0, 0, 0, 5, 0, 0], Err(WireError::Truncated)),
        (vec![0x08, 0, 0, 0, 0, 1, 0xff], Err(WireError::BadUtf8)),
        (vec![0x08, 0, 0, 0, 0, 2, b'a'], Err(WireError::Truncated)),
        (
            [&[0x11, 0, 0][..], &huge_len].concat(),
            Err(WireError::Truncated),
        ),
        // A varint longer than ten bytes, with input to spare.
        (
            [&[0x11, 0, 0][..], &[0x80; 10], &[0; 4]].concat(),
            Err(WireError::Truncated),
        ),
        // Non-canonical flag bytes decode, and trailing bytes are left.
        (vec![0x28, 0xff], Ok((C::Clear(ClearMask::ALL), 2))),
        (vec![0x1e, 2], Ok((C::DepthMask(true), 2))),
        (vec![0x2c, 0x2c], Ok((C::Finish, 1))),
    ];
    for (input, expected) in cases {
        assert_eq!(decode_command(&input), expected, "input {input:02x?}");
    }
}
