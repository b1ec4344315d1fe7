//! Strongly-typed OpenGL ES 2.0 vocabulary.
//!
//! The C API traffics in opaque `GLuint`/`GLenum` integers; here each kind
//! of object handle is a distinct newtype and each enumeration a real Rust
//! enum, so a buffer handle can never be bound where a texture handle is
//! expected.

use core::fmt;

macro_rules! handle {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub u32);

        impl $name {
            /// The reserved null handle (object 0 in GL).
            pub const NULL: $name = $name(0);

            /// Raw numeric value.
            pub const fn raw(self) -> u32 {
                self.0
            }

            /// True for the null handle.
            pub const fn is_null(self) -> bool {
                self.0 == 0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}({})", stringify!($name), self.0)
            }
        }

        impl From<u32> for $name {
            fn from(raw: u32) -> Self {
                $name(raw)
            }
        }
    };
}

handle!(
    /// A texture object handle (`glGenTextures`).
    TextureId
);
handle!(
    /// A buffer object handle (`glGenBuffers`).
    BufferId
);
handle!(
    /// A shader object handle (`glCreateShader`).
    ShaderId
);
handle!(
    /// A program object handle (`glCreateProgram`).
    ProgramId
);
handle!(
    /// A framebuffer object handle (`glGenFramebuffers`).
    FramebufferId
);
handle!(
    /// A uniform location within a linked program.
    UniformLocation
);

/// Buffer binding targets.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BufferTarget {
    /// `GL_ARRAY_BUFFER` — vertex attributes.
    Array,
    /// `GL_ELEMENT_ARRAY_BUFFER` — vertex indices.
    ElementArray,
}

/// Buffer data usage hints.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BufferUsage {
    /// `GL_STATIC_DRAW`.
    StaticDraw,
    /// `GL_DYNAMIC_DRAW`.
    DynamicDraw,
    /// `GL_STREAM_DRAW`.
    StreamDraw,
}

/// Shader stages of the ES 2.0 pipeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ShaderKind {
    /// Vertex shader.
    Vertex,
    /// Fragment shader.
    Fragment,
}

/// Texture binding targets (ES 2.0 subset).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TextureTarget {
    /// `GL_TEXTURE_2D`.
    Texture2D,
    /// `GL_TEXTURE_CUBE_MAP`.
    CubeMap,
}

/// Texel formats (ES 2.0 subset).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PixelFormat {
    /// 8-bit red/green/blue/alpha.
    Rgba8,
    /// 8-bit red/green/blue.
    Rgb8,
    /// Single 8-bit channel (`GL_LUMINANCE`).
    Luminance,
    /// 16-bit 5-6-5 packed RGB.
    Rgb565,
}

impl PixelFormat {
    /// Bytes per texel.
    pub const fn bytes_per_pixel(self) -> usize {
        match self {
            PixelFormat::Rgba8 => 4,
            PixelFormat::Rgb8 => 3,
            PixelFormat::Luminance => 1,
            PixelFormat::Rgb565 => 2,
        }
    }
}

/// Primitive assembly modes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Primitive {
    /// `GL_POINTS`.
    Points,
    /// `GL_LINES`.
    Lines,
    /// `GL_TRIANGLES`.
    Triangles,
    /// `GL_TRIANGLE_STRIP`.
    TriangleStrip,
    /// `GL_TRIANGLE_FAN`.
    TriangleFan,
}

/// Index element types for `glDrawElements`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum IndexType {
    /// `GL_UNSIGNED_BYTE`.
    U8,
    /// `GL_UNSIGNED_SHORT`.
    U16,
}

impl IndexType {
    /// Bytes per index element.
    pub const fn size(self) -> usize {
        match self {
            IndexType::U8 => 1,
            IndexType::U16 => 2,
        }
    }

    /// The first `count` indices of this type in `bytes`, little-endian,
    /// or the reason `bytes` is too short for them.
    pub(crate) fn decode(
        self,
        bytes: &[u8],
        count: u32,
    ) -> Result<impl Iterator<Item = u32> + '_, String> {
        let needed = count as usize * self.size();
        let data = bytes
            .get(..needed)
            .ok_or_else(|| format!("index data {} bytes, need {needed}", bytes.len()))?;
        Ok(data.chunks_exact(self.size()).map(move |c| match self {
            IndexType::U8 => u32::from(c[0]),
            IndexType::U16 => u32::from(u16::from_le_bytes([c[0], c[1]])),
        }))
    }
}

/// Vertex attribute component types (ES 2.0 subset).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AttribType {
    /// `GL_FLOAT`.
    F32,
    /// `GL_UNSIGNED_BYTE`.
    U8,
    /// `GL_SHORT`.
    I16,
}

impl AttribType {
    /// Bytes per component.
    pub const fn size(self) -> usize {
        match self {
            AttribType::F32 => 4,
            AttribType::U8 => 1,
            AttribType::I16 => 2,
        }
    }
}

/// Server-side capabilities toggled with `glEnable`/`glDisable`.
/// Ordered by declaration, which is the order a context's enabled set
/// iterates and digests in.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Capability {
    /// `GL_BLEND`.
    Blend,
    /// `GL_DEPTH_TEST`.
    DepthTest,
    /// `GL_CULL_FACE`.
    CullFace,
    /// `GL_SCISSOR_TEST`.
    ScissorTest,
    /// `GL_DITHER`.
    Dither,
}

/// Blend factors (common subset).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BlendFactor {
    /// `GL_ZERO`.
    Zero,
    /// `GL_ONE`.
    One,
    /// `GL_SRC_ALPHA`.
    SrcAlpha,
    /// `GL_ONE_MINUS_SRC_ALPHA`.
    OneMinusSrcAlpha,
}

/// Depth comparison functions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DepthFunc {
    /// `GL_LESS`.
    Less,
    /// `GL_LEQUAL`.
    LessEqual,
    /// `GL_ALWAYS`.
    Always,
}

/// Buffers selectable in `glClear`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct ClearMask {
    /// Clear the color buffer.
    pub color: bool,
    /// Clear the depth buffer.
    pub depth: bool,
    /// Clear the stencil buffer.
    pub stencil: bool,
}

impl ClearMask {
    /// Color + depth + stencil.
    pub const ALL: ClearMask = ClearMask {
        color: true,
        depth: true,
        stencil: true,
    };

    /// Color buffer only.
    pub const COLOR: ClearMask = ClearMask {
        color: true,
        depth: false,
        stencil: false,
    };
}

/// Errors raised by the simulated GL state machine / executor.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GlError {
    /// A handle referenced an object that was never created or was deleted.
    InvalidHandle(String),
    /// An operation was issued in an invalid state (e.g. drawing with no
    /// program bound).
    InvalidOperation(String),
    /// A parameter value was out of range.
    InvalidValue(String),
}

impl fmt::Display for GlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GlError::InvalidHandle(m) => write!(f, "invalid handle: {m}"),
            GlError::InvalidOperation(m) => write!(f, "invalid operation: {m}"),
            GlError::InvalidValue(m) => write!(f, "invalid value: {m}"),
        }
    }
}

impl std::error::Error for GlError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_distinct_types() {
        // This is a compile-time property; spot-check values and traits.
        let t = TextureId(3);
        let b = BufferId(3);
        assert_eq!(t.raw(), b.raw());
        assert!(TextureId::NULL.is_null());
        assert!(!t.is_null());
        assert_eq!(TextureId::from(7), TextureId(7));
    }

    #[test]
    fn pixel_format_sizes() {
        assert_eq!(PixelFormat::Rgba8.bytes_per_pixel(), 4);
        assert_eq!(PixelFormat::Rgb8.bytes_per_pixel(), 3);
        assert_eq!(PixelFormat::Luminance.bytes_per_pixel(), 1);
        assert_eq!(PixelFormat::Rgb565.bytes_per_pixel(), 2);
    }

    #[test]
    fn index_and_attrib_sizes() {
        assert_eq!(IndexType::U8.size(), 1);
        assert_eq!(IndexType::U16.size(), 2);
        assert_eq!(AttribType::F32.size(), 4);
        assert_eq!(AttribType::I16.size(), 2);
    }

    #[test]
    fn error_display_is_lowercase_prose() {
        let e = GlError::InvalidOperation("no program bound".into());
        assert_eq!(e.to_string(), "invalid operation: no program bound");
    }

    #[test]
    fn clear_mask_constants() {
        const { assert!(ClearMask::ALL.depth) };
        const { assert!(!ClearMask::COLOR.depth) };
        const { assert!(ClearMask::COLOR.color) };
    }
}
