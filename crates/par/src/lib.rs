//! Deterministic parallel evaluation over independent work items.
//!
//! The workspace's hot loops — per-candidate savings estimation inside one
//! optimizer iteration, and the benchmark sweeps that evaluate a grid of
//! independent `optimize()` runs — are embarrassingly parallel: every item
//! is a pure function of shared read-only state. This crate fans such
//! loops across a scoped worker pool (`std::thread::scope`, no external
//! dependencies) while guaranteeing **bit-identical results to the serial
//! path**:
//!
//! * work items are claimed from an atomic counter, but every result is
//!   tagged with its item index and the output is reassembled in index
//!   order, so downstream reductions (sorts, argmax, float sums) see
//!   exactly the serial ordering;
//! * the worker closure receives `(index, &item)` and must be a pure
//!   function of those — all RNG seeding happens per item, never from
//!   shared mutable state;
//! * `threads <= 1` short-circuits to a plain serial loop over the very
//!   same closure, so the two paths cannot diverge.
//!
//! `threads == 0` means "use all available cores".

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod faults;
pub mod queue;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Resolves a `threads` configuration value: `0` becomes the number of
/// available cores, anything else passes through.
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        threads
    }
}

/// Applies `f` to every item and returns the results in item order.
///
/// With `threads <= 1` (after [`resolve_threads`]) this is a plain serial
/// loop; otherwise items are processed by a scoped worker pool. Either
/// way the result vector is index-ordered, so for a pure `f` the output
/// is bit-identical across all thread counts.
///
/// # Panics
///
/// Propagates the first panic raised by `f` on any worker.
pub fn parallel_map<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = resolve_threads(threads).min(items.len().max(1));
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    let next = AtomicUsize::new(0);
    let tagged: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(items.len()));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                // Each worker drains the shared index counter and buffers
                // its results locally; one lock per worker at the end keeps
                // contention negligible for coarse-grained items.
                let mut local: Vec<(usize, R)> = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    local.push((i, f(i, &items[i])));
                }
                tagged.lock().unwrap().extend(local);
            });
        }
    });

    let mut tagged = tagged.into_inner().unwrap();
    tagged.sort_by_key(|&(i, _)| i);
    debug_assert_eq!(tagged.len(), items.len());
    tagged.into_iter().map(|(_, r)| r).collect()
}

/// The result of one isolated work item: either the closure's value or a
/// captured panic.
///
/// Produced by [`parallel_map_isolated`], which converts worker panics into
/// data instead of tearing down the whole pool. Callers choose the
/// semantics: fail fast on the first [`TaskOutcome::Panicked`], or skip the
/// poisoned item, record the diagnostic, and keep going.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskOutcome<R> {
    /// The closure returned normally.
    Ok(R),
    /// The closure panicked; the item was skipped.
    Panicked {
        /// Index of the poisoned item.
        item_index: usize,
        /// The panic payload, rendered as text (`&str` / `String` payloads
        /// verbatim, anything else a placeholder).
        payload: String,
    },
}

impl<R> TaskOutcome<R> {
    /// The success value, if any.
    pub fn ok(self) -> Option<R> {
        match self {
            TaskOutcome::Ok(r) => Some(r),
            TaskOutcome::Panicked { .. } => None,
        }
    }
}

/// Renders a panic payload as text: `&str` / `String` payloads verbatim,
/// anything else a placeholder. Shared by [`parallel_map_isolated`] and
/// any caller doing its own `catch_unwind` (the serve daemon's
/// per-request isolation).
pub fn panic_payload_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Panic-isolating [`parallel_map`]: every item runs inside
/// `catch_unwind`, and a panicking item yields [`TaskOutcome::Panicked`]
/// in its slot instead of poisoning the pool.
///
/// The result vector is index-ordered and has exactly one entry per item,
/// so for a deterministic `f` — including deterministically *panicking*
/// items — the output is bit-identical at every thread count. The process
/// default panic hook still runs (a backtrace may appear on stderr); only
/// propagation is suppressed.
pub fn parallel_map_isolated<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<TaskOutcome<R>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    parallel_map(threads, items, |i, item| {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(i, item))) {
            Ok(r) => TaskOutcome::Ok(r),
            Err(payload) => TaskOutcome::Panicked {
                item_index: i,
                payload: panic_payload_text(payload.as_ref()),
            },
        }
    })
}

/// Fallible [`parallel_map`]: returns the index-ordered results, or the
/// error of the **lowest-indexed** failing item.
///
/// Every item is evaluated even when an earlier one fails (no
/// work-stealing cancellation), so the returned error is the same one the
/// serial path would report, at every thread count.
pub fn try_parallel_map<T, R, E, F>(
    threads: usize,
    items: &[T],
    f: F,
) -> Result<Vec<R>, E>
where
    T: Sync,
    R: Send,
    E: Send,
    F: Fn(usize, &T) -> Result<R, E> + Sync,
{
    let results = parallel_map(threads, items, f);
    let mut out = Vec::with_capacity(results.len());
    for result in results {
        match result {
            Ok(r) => out.push(r),
            Err(e) => return Err(e),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn resolve_zero_means_all_cores() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
    }

    #[test]
    fn results_are_index_ordered_at_every_thread_count() {
        let items: Vec<u64> = (0..257).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 3, 8, 64] {
            let got = parallel_map(threads, &items, |_, &x| x * x);
            assert_eq!(got, expected, "threads={threads}");
        }
    }

    #[test]
    fn serial_and_parallel_agree_on_float_work() {
        let items: Vec<f64> = (0..100).map(|i| i as f64 * 0.37).collect();
        let f = |i: usize, x: &f64| (x.sin() * i as f64).to_bits();
        let serial = parallel_map(1, &items, f);
        let parallel = parallel_map(4, &items, f);
        assert_eq!(serial, parallel, "bit-identical float results");
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let counters: Vec<AtomicU64> = (0..64).map(|_| AtomicU64::new(0)).collect();
        parallel_map(8, &(0..64).collect::<Vec<usize>>(), |_, &i| {
            counters[i].fetch_add(1, Ordering::Relaxed)
        });
        for (i, c) in counters.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "item {i}");
        }
    }

    #[test]
    fn empty_input_is_fine() {
        let out: Vec<u32> = parallel_map(4, &[] as &[u32], |_, &x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn try_map_returns_lowest_index_error() {
        let items: Vec<u32> = (0..32).collect();
        for threads in [1, 4, 16] {
            let err = try_parallel_map(threads, &items, |_, &x| {
                if x % 10 == 7 {
                    Err(x)
                } else {
                    Ok(x)
                }
            })
            .unwrap_err();
            assert_eq!(err, 7, "threads={threads}");
        }
    }

    #[test]
    fn try_map_ok_path_preserves_order() {
        let items: Vec<u32> = (0..100).collect();
        let got: Vec<u32> =
            try_parallel_map::<_, _, (), _>(5, &items, |i, &x| Ok(x + i as u32))
                .unwrap();
        let expected: Vec<u32> = items.iter().map(|&x| x * 2).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn isolated_map_captures_panics_in_slot_order() {
        let items: Vec<u32> = (0..64).collect();
        for threads in [1, 3, 8] {
            let got = parallel_map_isolated(threads, &items, |_, &x| {
                if x % 13 == 4 {
                    panic!("boom {x}");
                }
                x * 2
            });
            assert_eq!(got.len(), items.len(), "threads={threads}");
            for (i, outcome) in got.iter().enumerate() {
                if i % 13 == 4 {
                    assert_eq!(
                        *outcome,
                        TaskOutcome::Panicked {
                            item_index: i,
                            payload: format!("boom {i}"),
                        },
                        "threads={threads}"
                    );
                } else {
                    assert_eq!(*outcome, TaskOutcome::Ok(i as u32 * 2), "threads={threads}");
                }
            }
        }
    }

    #[test]
    fn isolated_map_is_identical_across_thread_counts() {
        let items: Vec<u32> = (0..97).collect();
        let f = |_: usize, &x: &u32| {
            if x == 41 {
                panic!("poisoned");
            }
            x + 1
        };
        let serial = parallel_map_isolated(1, &items, f);
        let parallel = parallel_map_isolated(6, &items, f);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn non_string_payloads_are_described() {
        let got = parallel_map_isolated(1, &[0u8], |_, _| -> u8 {
            std::panic::panic_any(17u64)
        });
        let TaskOutcome::Panicked { payload, .. } = &got[0] else {
            panic!("expected a captured panic");
        };
        assert_eq!(payload, "non-string panic payload");
    }

    #[test]
    #[should_panic]
    fn worker_panics_propagate() {
        parallel_map(4, &[1u8, 2, 3, 4, 5, 6, 7, 8], |_, &x| {
            if x == 5 {
                panic!("worker failure");
            }
            x
        });
    }
}
