//! Shared-object and function-pointer models.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// A "function pointer": an opaque handle identifying which library's
/// implementation of a symbol a caller is bound to.
///
/// Calling through a [`FnPtr`] is modeled by inspecting
/// [`FnPtr::provider`] — GBooster's wrapper checks whether the call landed
/// in the wrapper library or the genuine one.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct FnPtr {
    provider: Arc<str>,
    symbol: Arc<str>,
}

impl FnPtr {
    /// Creates a pointer into `provider`'s implementation of `symbol`.
    pub fn new(provider: &str, symbol: &str) -> Self {
        FnPtr {
            provider: provider.into(),
            symbol: symbol.into(),
        }
    }

    /// Library that provides the implementation.
    pub fn provider(&self) -> &str {
        &self.provider
    }

    /// Symbol name the pointer was resolved from.
    pub fn symbol(&self) -> &str {
        &self.symbol
    }
}

impl fmt::Display for FnPtr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}!{}", self.provider, self.symbol)
    }
}

/// A shared object exporting a set of symbols.
///
/// # Examples
///
/// ```
/// use gbooster_linker::library::SharedLibrary;
///
/// let lib = SharedLibrary::new("libGLESv2.so")
///     .exporting(["glDrawArrays", "glClear"]);
/// assert!(lib.lookup("glClear").is_some());
/// assert!(lib.lookup("glFoo").is_none());
/// ```
#[derive(Clone, Debug)]
pub struct SharedLibrary {
    name: Arc<str>,
    symbols: BTreeMap<String, FnPtr>,
}

impl SharedLibrary {
    /// Creates an empty library called `name`.
    pub fn new(name: &str) -> Self {
        SharedLibrary {
            name: name.into(),
            symbols: BTreeMap::new(),
        }
    }

    /// Adds exports for each symbol name (builder style).
    pub fn exporting<I, S>(mut self, symbols: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        for s in symbols {
            let s = s.into();
            self.symbols.insert(s.clone(), FnPtr::new(&self.name, &s));
        }
        self
    }

    /// Library name (e.g. `libGLESv2.so`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Looks up an exported symbol.
    pub fn lookup(&self, symbol: &str) -> Option<&FnPtr> {
        self.symbols.get(symbol)
    }
}

/// The OpenGL ES 2.0 entry points GBooster's wrapper must cover. A subset
/// sufficient for the simulated command vocabulary; the real system wraps
/// all ~140 ES 2.0 functions the same mechanical way.
pub const GLES2_SYMBOLS: &[&str] = &[
    "glActiveTexture",
    "glAttachShader",
    "glBindBuffer",
    "glBindFramebuffer",
    "glBindTexture",
    "glBlendFunc",
    "glBufferData",
    "glBufferSubData",
    "glClear",
    "glClearColor",
    "glClearDepthf",
    "glCompileShader",
    "glCreateProgram",
    "glCreateShader",
    "glDeleteBuffers",
    "glDeleteFramebuffers",
    "glDeleteProgram",
    "glDeleteShader",
    "glDeleteTextures",
    "glDepthFunc",
    "glDepthMask",
    "glDisable",
    "glDisableVertexAttribArray",
    "glDrawArrays",
    "glDrawElements",
    "glEnable",
    "glEnableVertexAttribArray",
    "glFinish",
    "glFlush",
    "glFramebufferTexture2D",
    "glGenBuffers",
    "glGenFramebuffers",
    "glGenTextures",
    "glLinkProgram",
    "glScissor",
    "glShaderSource",
    "glTexImage2D",
    "glTexParameteri",
    "glTexSubImage2D",
    "glUniform1f",
    "glUniform1i",
    "glUniform2f",
    "glUniform3f",
    "glUniform4f",
    "glUniformMatrix4fv",
    "glUseProgram",
    "glVertexAttribPointer",
    "glViewport",
];

/// The EGL entry points relevant to interception.
pub const EGL_SYMBOLS: &[&str] = &["eglGetProcAddress", "eglSwapBuffers"];

/// Builds the genuine Android GLES library.
pub fn genuine_gles() -> SharedLibrary {
    SharedLibrary::new("libGLESv2.so").exporting(GLES2_SYMBOLS.iter().copied())
}

/// Builds the genuine Android EGL library.
pub fn genuine_egl() -> SharedLibrary {
    SharedLibrary::new("libEGL.so").exporting(EGL_SYMBOLS.iter().copied())
}

/// Builds GBooster's wrapper library, which exports every GL/EGL symbol
/// plus the `dlopen`/`dlsym` interposers.
pub fn wrapper_library() -> SharedLibrary {
    SharedLibrary::new("libgbooster_wrapper.so")
        .exporting(GLES2_SYMBOLS.iter().copied())
        .exporting(EGL_SYMBOLS.iter().copied())
        .exporting(["dlopen", "dlsym"])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_finds_exports() {
        let lib = genuine_gles();
        let ptr = lib.lookup("glDrawArrays").unwrap();
        assert_eq!(ptr.provider(), "libGLESv2.so");
        assert_eq!(ptr.symbol(), "glDrawArrays");
        assert_eq!(ptr.to_string(), "libGLESv2.so!glDrawArrays");
    }

    #[test]
    fn wrapper_covers_every_gles_symbol() {
        let wrapper = wrapper_library();
        for sym in GLES2_SYMBOLS {
            assert!(wrapper.lookup(sym).is_some(), "missing {sym}");
        }
        for sym in EGL_SYMBOLS {
            assert!(wrapper.lookup(sym).is_some(), "missing {sym}");
        }
        assert!(wrapper.lookup("dlopen").is_some());
        assert!(wrapper.lookup("dlsym").is_some());
    }

    #[test]
    fn fn_ptrs_from_different_libraries_differ() {
        let genuine = genuine_gles();
        let wrapper = wrapper_library();
        assert_ne!(
            genuine.lookup("glClear").unwrap(),
            wrapper.lookup("glClear").unwrap()
        );
    }
}
