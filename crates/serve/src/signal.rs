//! SIGINT/SIGTERM → a process-wide shutdown flag.
//!
//! The bins used to just die mid-write on ctrl-c; the daemon instead
//! turns the signal into an [`AtomicBool`] its loops poll, so sessions
//! close with a typed reason and the event log is flushed and fsynced
//! before exit. The build is fully offline (no `libc` crate is
//! vendored), so handler registration goes through a minimal local
//! `extern "C"` declaration of POSIX `signal(2)`, its `unsafe` scoped to
//! this module and compiled on Unix targets only.

use std::sync::atomic::{AtomicBool, Ordering};

static SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// Whether a shutdown signal has been observed.
pub fn shutdown_requested() -> bool {
    SHUTDOWN.load(Ordering::SeqCst)
}

/// Requests shutdown programmatically (tests; supervisor stop paths).
pub fn request_shutdown() {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

#[cfg(unix)]
#[allow(unsafe_code)]
mod imp {
    use super::SHUTDOWN;
    use std::sync::atomic::Ordering;

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        // A relaxed atomic store is async-signal-safe; everything else
        // (logging, flushing) happens on the main loop after polling.
        SHUTDOWN.store(true, Ordering::SeqCst);
    }

    pub fn install() {
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }
}

#[cfg(not(unix))]
mod imp {
    pub fn install() {}
}

/// Installs the SIGINT/SIGTERM handlers (idempotent; no-op off Unix).
pub fn install_handlers() {
    imp::install();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_sets_flag() {
        // No pristine-state assertion: other tests in the process may
        // already have raised the flag (it is process-wide by design).
        request_shutdown();
        assert!(shutdown_requested());
    }
}
