//! The interception layer (Section IV-A).
//!
//! [`Interceptor`] is the deployed form of the hooking machinery: it
//! installs the wrapper library into a process' dynamic linker, verifies
//! that every GL entry point the application resolves — by any of the
//! three lookup routes — lands in the wrapper, and then classifies each
//! intercepted call for the forwarder.
//!
//! This is also where the rewritten `eglSwapBuffers` semantics live
//! (Sections IV-C and VI-A): under GBooster the swap no longer blocks on
//! the local GPU; it returns immediately so rendering requests can pile
//! up for multi-device dispatch, and the frame actually displayed comes
//! from the network.

use gbooster_gles::command::GlCommand;
use gbooster_linker::hook::{HookEngine, LookupRoute};
use gbooster_linker::library::{genuine_egl, genuine_gles};
use gbooster_linker::linker::DynamicLinker;

use crate::error::GBoosterError;

/// Where an intercepted command must be routed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Disposition {
    /// Replicate to every service device (state-mutating; Section VI-B).
    ReplicateAll,
    /// Dispatch to one service device chosen by the Eq. 4 scheduler.
    DispatchOne,
    /// Frame boundary: non-blocking under GBooster; triggers display of
    /// the most recent network frame.
    SwapBoundary,
}

/// The installed wrapper for one application process.
#[derive(Debug)]
pub struct Interceptor {
    hooks: HookEngine,
    intercepted_calls: u64,
}

impl Interceptor {
    /// Builds a process image (genuine GLES + EGL libraries loaded) and
    /// installs the GBooster wrapper via `LD_PRELOAD`.
    pub fn install() -> Self {
        let mut linker = DynamicLinker::new();
        linker.load(genuine_gles());
        linker.load(genuine_egl());
        Interceptor {
            hooks: HookEngine::install(linker),
            intercepted_calls: 0,
        }
    }

    /// Verifies that `symbol` is intercepted on every lookup route an
    /// application could use.
    ///
    /// # Errors
    ///
    /// Returns a link error if the symbol cannot be resolved, or a config
    /// error if any route escapes to the genuine library.
    pub fn verify_symbol(&mut self, symbol: &str) -> Result<(), GBoosterError> {
        for route in LookupRoute::ALL {
            let ptr = self.hooks.lookup(symbol, route)?;
            if !self.hooks.is_intercepted(&ptr) {
                return Err(GBoosterError::Config(format!(
                    "{symbol} escaped interception via {route:?} to {}",
                    ptr.provider()
                )));
            }
        }
        Ok(())
    }

    /// Verifies complete coverage of the GL ES + EGL surface.
    ///
    /// # Errors
    ///
    /// As [`Interceptor::verify_symbol`], for the first failing symbol.
    pub fn verify_coverage(&mut self) -> Result<(), GBoosterError> {
        for sym in gbooster_linker::library::GLES2_SYMBOLS {
            self.verify_symbol(sym)?;
        }
        for sym in gbooster_linker::library::EGL_SYMBOLS {
            self.verify_symbol(sym)?;
        }
        Ok(())
    }

    /// Intercepts one application call: counts it and returns its routing
    /// disposition.
    pub fn intercept(&mut self, cmd: &GlCommand) -> Disposition {
        self.intercepted_calls += 1;
        if cmd.is_swap() {
            Disposition::SwapBoundary
        } else if cmd.is_state_mutating() {
            Disposition::ReplicateAll
        } else {
            Disposition::DispatchOne
        }
    }

    /// Total calls intercepted.
    pub fn intercepted_calls(&self) -> u64 {
        self.intercepted_calls
    }
}

impl Default for Interceptor {
    fn default() -> Self {
        Self::install()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbooster_gles::types::{ClearMask, Primitive, ProgramId};

    #[test]
    fn full_surface_is_intercepted() {
        let mut interceptor = Interceptor::install();
        interceptor.verify_coverage().unwrap();
    }

    #[test]
    fn dispositions_follow_the_paper() {
        let mut i = Interceptor::install();
        assert_eq!(
            i.intercept(&GlCommand::UseProgram(ProgramId(1))),
            Disposition::ReplicateAll
        );
        assert_eq!(
            i.intercept(&GlCommand::DrawArrays {
                mode: Primitive::Triangles,
                first: 0,
                count: 3
            }),
            Disposition::DispatchOne
        );
        assert_eq!(
            i.intercept(&GlCommand::Clear(ClearMask::ALL)),
            Disposition::DispatchOne
        );
        assert_eq!(
            i.intercept(&GlCommand::SwapBuffers),
            Disposition::SwapBoundary
        );
        assert_eq!(i.intercepted_calls(), 4);
    }

    #[test]
    fn unknown_symbol_fails_verification() {
        let mut i = Interceptor::install();
        assert!(i.verify_symbol("glMadeUp").is_err());
    }
}
