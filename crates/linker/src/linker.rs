//! Symbol resolution with `LD_PRELOAD` semantics.

use std::fmt;

use crate::library::{FnPtr, SharedLibrary};

/// Errors from the simulated dynamic linker.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LinkError {
    /// No loaded library exports the symbol.
    UnresolvedSymbol(String),
    /// `dlopen` target was never registered with the linker.
    LibraryNotFound(String),
}

impl fmt::Display for LinkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinkError::UnresolvedSymbol(s) => write!(f, "unresolved symbol {s}"),
            LinkError::LibraryNotFound(l) => write!(f, "library not found: {l}"),
        }
    }
}

impl std::error::Error for LinkError {}

/// A process-wide dynamic linker: an ordered list of loaded libraries plus
/// an `LD_PRELOAD` list that takes precedence.
///
/// Resolution order reproduces `ld.so` (ref \[17\] of the paper): preloaded
/// objects are searched before regular dependencies, which is exactly the
/// mechanism GBooster exploits — "the hooking can be easily done by
/// setting the application's LD_PRELOAD environment variable".
///
/// # Examples
///
/// ```
/// use gbooster_linker::library::{genuine_gles, wrapper_library};
/// use gbooster_linker::linker::DynamicLinker;
///
/// let mut linker = DynamicLinker::new();
/// linker.load(genuine_gles());
/// // Without preload, the genuine library wins.
/// assert_eq!(linker.resolve("glClear").unwrap().provider(), "libGLESv2.so");
/// linker.preload(wrapper_library());
/// // With LD_PRELOAD, the wrapper interposes.
/// assert_eq!(
///     linker.resolve("glClear").unwrap().provider(),
///     "libgbooster_wrapper.so"
/// );
/// ```
#[derive(Clone, Debug, Default)]
pub struct DynamicLinker {
    preloaded: Vec<SharedLibrary>,
    loaded: Vec<SharedLibrary>,
}

impl DynamicLinker {
    /// Creates a linker with nothing loaded.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a library to the regular search order (link-time
    /// dependency or prior `dlopen`).
    pub fn load(&mut self, lib: SharedLibrary) {
        self.loaded.push(lib);
    }

    /// Adds a library to the `LD_PRELOAD` list (searched first).
    pub fn preload(&mut self, lib: SharedLibrary) {
        self.preloaded.push(lib);
    }

    /// Resolves `symbol` using global (RTLD_GLOBAL-style) scope:
    /// preloaded objects first, then load order.
    ///
    /// # Errors
    ///
    /// Returns [`LinkError::UnresolvedSymbol`] if no library exports it.
    pub fn resolve(&self, symbol: &str) -> Result<FnPtr, LinkError> {
        self.preloaded
            .iter()
            .chain(self.loaded.iter())
            .find_map(|lib| lib.lookup(symbol).cloned())
            .ok_or_else(|| LinkError::UnresolvedSymbol(symbol.to_string()))
    }

    /// Looks up a loaded (or preloaded) library by name — the raw
    /// (unhooked) `dlopen`.
    ///
    /// # Errors
    ///
    /// Returns [`LinkError::LibraryNotFound`] for unknown names.
    pub fn find_library(&self, name: &str) -> Result<&SharedLibrary, LinkError> {
        self.preloaded
            .iter()
            .chain(self.loaded.iter())
            .find(|lib| lib.name() == name)
            .ok_or_else(|| LinkError::LibraryNotFound(name.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::{genuine_egl, genuine_gles, wrapper_library};

    #[test]
    fn resolution_without_preload_uses_load_order() {
        let mut linker = DynamicLinker::new();
        linker.load(genuine_gles());
        linker.load(genuine_egl());
        let ptr = linker.resolve("eglGetProcAddress").unwrap();
        assert_eq!(ptr.provider(), "libEGL.so");
    }

    #[test]
    fn preload_interposes_all_matching_symbols() {
        let mut linker = DynamicLinker::new();
        linker.load(genuine_gles());
        linker.load(genuine_egl());
        linker.preload(wrapper_library());
        // Every GL and EGL symbol now resolves to the wrapper.
        for sym in crate::library::GLES2_SYMBOLS {
            assert_eq!(
                linker.resolve(sym).unwrap().provider(),
                "libgbooster_wrapper.so",
                "symbol {sym} escaped the preload"
            );
        }
        assert_eq!(
            linker.resolve("eglSwapBuffers").unwrap().provider(),
            "libgbooster_wrapper.so"
        );
    }

    #[test]
    fn unresolved_symbol_is_an_error() {
        let linker = DynamicLinker::new();
        assert_eq!(
            linker.resolve("glBogus"),
            Err(LinkError::UnresolvedSymbol("glBogus".into()))
        );
    }

    #[test]
    fn find_library_by_name() {
        let mut linker = DynamicLinker::new();
        linker.load(genuine_gles());
        assert!(linker.find_library("libGLESv2.so").is_ok());
        assert_eq!(
            linker.find_library("libNope.so").err(),
            Some(LinkError::LibraryNotFound("libNope.so".into()))
        );
    }
}
