//! SIGTERM / SIGINT latch with zero dependencies.
//!
//! The workspace is offline, so no `signal-hook` / `ctrlc`; instead a
//! direct FFI declaration of libc's `signal(2)` (libc is always linked
//! on the platforms we build for) installs a handler that does the one
//! async-signal-safe thing a handler may do here: store into an
//! `AtomicBool`. The daemon's main thread polls [`requested`] and turns
//! the latch into a graceful drain. On non-Unix targets installation is
//! a no-op and shutdown is driven programmatically via [`request`]
//! (which is also how tests exercise the drain path).

#![allow(unsafe_code)]

use std::sync::atomic::{AtomicBool, Ordering};

static SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// True once SIGTERM/SIGINT arrived or [`request`] was called.
pub fn requested() -> bool {
    SHUTDOWN.load(Ordering::SeqCst)
}

/// Latches shutdown programmatically (what the signal handler does).
pub fn request() {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Clears the latch — test-only, so one process can run several
/// daemon lifecycles.
pub fn reset() {
    SHUTDOWN.store(false, Ordering::SeqCst);
}

/// Installs the handler for SIGINT (ctrl-c) and SIGTERM.
pub fn install() {
    imp::install();
}

#[cfg(unix)]
mod imp {
    use super::SHUTDOWN;
    use std::sync::atomic::Ordering;

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        SHUTDOWN.store(true, Ordering::SeqCst);
    }

    pub fn install() {
        // SAFETY: `signal(2)` with a handler that only stores into an
        // AtomicBool — the canonical async-signal-safe pattern. The
        // handler address stays valid for the life of the process.
        unsafe {
            signal(SIGINT, on_signal as *const () as usize);
            signal(SIGTERM, on_signal as *const () as usize);
        }
    }
}

#[cfg(not(unix))]
mod imp {
    pub fn install() {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latch_round_trips() {
        reset();
        assert!(!requested());
        request();
        assert!(requested());
        reset();
        assert!(!requested());
    }
}
