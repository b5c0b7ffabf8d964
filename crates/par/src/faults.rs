//! Deterministic fault injection for robustness testing.
//!
//! Production call sites name a *site* (a short static string like
//! `"optimize.score"`) and call [`trip`] with a stable per-item key; tests
//! and the CLI arm faults at `(site, key)` pairs with [`inject`] (or at a
//! whole site with [`inject_all`]) and the instrumented code panics
//! exactly there. Because a fault plan is a pure function of
//! `(site, key)`, injected failures are bit-reproducible at every thread
//! count, which is what lets the fault-injection test suite assert exact
//! degraded outcomes.
//!
//! Arming is process-global (the instrumented code cannot thread a handle
//! through every layer), so tests that inject faults must serialize with
//! each other; the [`FaultGuard`] disarms its plan on drop even when the
//! test itself panics.
//!
//! With nothing armed, the hot-path cost of [`trip`] is one relaxed atomic
//! load.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// One armed fault plan.
struct Plan {
    id: u64,
    site: &'static str,
    /// `None` arms every key of the site.
    keys: Option<Vec<usize>>,
}

static PLANS: Mutex<Vec<Plan>> = Mutex::new(Vec::new());
static ARMED_COUNT: AtomicUsize = AtomicUsize::new(0);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

fn plans() -> std::sync::MutexGuard<'static, Vec<Plan>> {
    // A panic while holding the lock (impossible today — no user code runs
    // under it) must not wedge every later fault check.
    PLANS.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Disarms its plan when dropped.
///
/// Hold the guard for the duration of the run under test; letting it drop
/// (including via an unwinding panic) restores the previous behavior.
#[must_use = "the fault disarms as soon as the guard is dropped"]
pub struct FaultGuard {
    id: u64,
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        let mut plans = plans();
        if let Some(pos) = plans.iter().position(|p| p.id == self.id) {
            plans.remove(pos);
            ARMED_COUNT.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

fn arm(site: &'static str, keys: Option<Vec<usize>>) -> FaultGuard {
    let id = NEXT_ID.fetch_add(1, Ordering::SeqCst);
    plans().push(Plan { id, site, keys });
    ARMED_COUNT.fetch_add(1, Ordering::SeqCst);
    FaultGuard { id }
}

/// Arms a fault at `(site, key)` for each listed key.
pub fn inject(site: &'static str, keys: &[usize]) -> FaultGuard {
    arm(site, Some(keys.to_vec()))
}

/// Arms a fault at every key of `site`.
pub fn inject_all(site: &'static str) -> FaultGuard {
    arm(site, None)
}

/// True when a fault is armed at `(site, key)`.
fn armed(site: &str, key: usize) -> bool {
    if ARMED_COUNT.load(Ordering::Relaxed) == 0 {
        return false;
    }
    plans()
        .iter()
        .any(|p| p.site == site && p.keys.as_ref().is_none_or(|ks| ks.contains(&key)))
}

/// Panics with a structured payload when a fault is armed at
/// `(site, key)`; a no-op otherwise. Call from the instrumented task body.
pub fn trip(site: &str, key: usize) {
    if armed(site, key) {
        panic!("injected fault at {site}[{key}]");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fault plans are process-global; unit tests arming them serialize
    /// here so cargo's parallel test threads cannot observe each other's
    /// injections.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn nothing_armed_by_default() {
        let _serial = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        assert!(!armed("faults.test.none", 0));
        trip("faults.test.none", 0); // must not panic
    }

    #[test]
    fn inject_targets_exact_keys_and_disarms_on_drop() {
        let _serial = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        {
            let _guard = inject("faults.test.keys", &[2, 5]);
            assert!(armed("faults.test.keys", 2));
            assert!(armed("faults.test.keys", 5));
            assert!(!armed("faults.test.keys", 3));
            assert!(!armed("faults.test.other", 2), "site must match");
        }
        assert!(!armed("faults.test.keys", 2), "guard drop disarms");
    }

    #[test]
    fn inject_all_covers_every_key() {
        let _serial = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let _guard = inject_all("faults.test.all");
        assert!(armed("faults.test.all", 0));
        assert!(armed("faults.test.all", 917));
    }

    #[test]
    fn trip_panics_with_structured_payload() {
        let _serial = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let _guard = inject("faults.test.trip", &[7]);
        let err = std::panic::catch_unwind(|| trip("faults.test.trip", 7)).unwrap_err();
        let text = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert_eq!(text, "injected fault at faults.test.trip[7]");
    }

    #[test]
    fn guards_stack_independently() {
        let _serial = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let a = inject("faults.test.stack", &[1]);
        let b = inject("faults.test.stack", &[2]);
        drop(a);
        assert!(!armed("faults.test.stack", 1));
        assert!(armed("faults.test.stack", 2));
        drop(b);
        assert!(!armed("faults.test.stack", 2));
    }
}
