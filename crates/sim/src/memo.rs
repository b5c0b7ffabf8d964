//! Memoized simulation: skip re-running stimuli a netlist has already seen.
//!
//! The iterative isolation algorithm and the benchmark sweeps repeatedly
//! simulate the *same* netlist under the *same* stimulus plan — e.g. the
//! final power measurement after the optimizer's loop re-runs the vectors
//! the last iteration just ran, and `paper_table` simulates the identical
//! baseline once per isolation style. Because the [`Simulator`] is fully
//! deterministic (same netlist + same plan ⇒ bit-identical per-net
//! statistics, a property the test suite asserts directly), those repeat
//! runs can be served from a cache keyed by
//! `(netlist fingerprint, plan fingerprint, cycles)`.
//!
//! The policy that keeps this transparent:
//!
//! * **Plain runs** (no monitors attached) go through [`SimMemo::run`] and
//!   may reuse *any* cached report for their key — the per-net toggle
//!   counts, static probabilities, and cycle count of a report do not
//!   depend on which monitors were attached when it was produced.
//! * **Monitored runs always execute** (their monitor sets differ call to
//!   call), but they [`SimMemo::deposit`] their report so a later plain run
//!   on the same netlist + plan becomes a cache hit.
//!
//! Consumers of memoized reports must therefore only read per-net
//! statistics (and cycle count), never monitor or trace data — monitors
//! present in a deposited report belong to whoever deposited it.
//!
//! A miss in [`SimMemo::run`] draws every input live, and the memo holds
//! no input streams. A caller whose runs repeat one plan records its
//! Markov inputs once with an [`InputRecording`] it owns, and computes
//! its misses through [`SimMemo::get_or_insert_with`], as `optimize()`
//! does.
//!
//! [`Simulator`]: crate::Simulator
//! [`InputRecording`]: crate::InputRecording

use crate::engine::EngineKind;
use crate::stats::SimReport;
use crate::stimulus::StimulusPlan;
use crate::testbench::{SimError, Testbench};
use oiso_netlist::Netlist;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Cache key: everything that determines a simulation's per-net statistics.
type MemoKey = (u64, u64, u64);

/// A thread-safe cache of simulation reports keyed by
/// `(netlist fingerprint, plan fingerprint, cycles)`.
///
/// Share one memo (behind an `Arc` or a reference) across the runs that
/// should pool their simulations: the optimizer threads one through a full
/// `optimize()` run, and the benchmark tables share one across isolation
/// styles so the common baseline is simulated once.
///
/// The default memo is unbounded. Long sweeps over many distinct netlists
/// (every isolation candidate of every iteration produces a fresh
/// fingerprint) can instead cap the cache with [`SimMemo::with_capacity`]:
/// past the cap, the oldest entry is evicted first-in-first-out. FIFO
/// matches the optimizer's access pattern — a candidate's report is reused
/// within its iteration and rarely after, so the oldest entries are the
/// least likely to hit again.
///
/// Cloning is cheap and shares the underlying cache.
#[derive(Clone, Default)]
pub struct SimMemo {
    inner: Arc<MemoInner>,
}

/// FIFO insertion order rides along with the map under one lock.
#[derive(Default)]
struct MemoState {
    map: HashMap<MemoKey, Arc<SimReport>>,
    order: VecDeque<MemoKey>,
}

#[derive(Default)]
struct MemoInner {
    state: Mutex<MemoState>,
    capacity: Option<usize>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    /// Mirror of `state.map.len()`, maintained under the state lock but
    /// readable without it, so [`SimMemo::stats`] is a cheap atomic
    /// snapshot (a metrics endpoint polling it never contends with a
    /// simulation inserting a report).
    entries: AtomicUsize,
}

/// A point-in-time snapshot of a [`SimMemo`]'s counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoStats {
    /// Reports currently cached.
    pub entries: usize,
    /// The eviction cap, if the memo is bounded.
    pub capacity: Option<usize>,
    /// [`SimMemo::run`] calls served from cache.
    pub hits: u64,
    /// [`SimMemo::run`] calls that had to simulate.
    pub misses: u64,
    /// Entries evicted to stay under the cap.
    pub evictions: u64,
}

impl std::fmt::Display for MemoStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} cached report(s){}, {} hit(s) / {} miss(es), {} evicted",
            self.entries,
            match self.capacity {
                Some(cap) => format!(" (cap {cap})"),
                None => String::new(),
            },
            self.hits,
            self.misses,
            self.evictions
        )
    }
}

impl std::fmt::Debug for SimMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("SimMemo")
            .field("entries", &stats.entries)
            .field("capacity", &stats.capacity)
            .field("hits", &stats.hits)
            .field("misses", &stats.misses)
            .field("evictions", &stats.evictions)
            .finish()
    }
}

impl SimMemo {
    /// Creates an empty, unbounded cache.
    pub fn new() -> Self {
        SimMemo::default()
    }

    /// Creates an empty cache that evicts FIFO past `max_entries` cached
    /// reports. A capacity of 0 disables caching entirely (every run
    /// simulates; the counters still track the traffic).
    pub fn with_capacity(max_entries: usize) -> Self {
        SimMemo {
            inner: Arc::new(MemoInner {
                capacity: Some(max_entries),
                ..MemoInner::default()
            }),
        }
    }

    /// Inserts under the first-wins policy, evicting FIFO past the cap.
    fn insert(&self, key: MemoKey, report: &Arc<SimReport>) {
        let mut state = self.inner.state.lock().unwrap();
        if state.map.contains_key(&key) {
            return;
        }
        state.map.insert(key, Arc::clone(report));
        state.order.push_back(key);
        if let Some(cap) = self.inner.capacity {
            while state.map.len() > cap {
                let Some(oldest) = state.order.pop_front() else {
                    break;
                };
                state.map.remove(&oldest);
                self.inner.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.inner.entries.store(state.map.len(), Ordering::Relaxed);
    }

    /// Runs (or replays) an unmonitored simulation of `netlist` under
    /// `plan` for `cycles` cycles.
    ///
    /// On a cache hit the stored report is returned without simulating;
    /// the caller must only read per-net statistics from it (see the
    /// module docs). On a miss the simulation runs and the report is
    /// cached. Two threads missing the same key concurrently both
    /// simulate (producing bit-identical reports); one insert wins.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from testbench assembly or the run.
    pub fn run(
        &self,
        netlist: &Netlist,
        plan: &StimulusPlan,
        cycles: u64,
    ) -> Result<Arc<SimReport>, SimError> {
        self.run_with_engine(netlist, plan, cycles, EngineKind::default())
    }

    /// [`SimMemo::run`] on a specific engine. The cache key is deliberately
    /// engine-invariant — both engines produce bit-identical per-net
    /// statistics, so an entry deposited by one engine is served to the
    /// other (the cross-engine test in `tests/sim_engine_equivalence.rs`
    /// proves byte-identity of such a replay).
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from testbench assembly or the run.
    pub fn run_with_engine(
        &self,
        netlist: &Netlist,
        plan: &StimulusPlan,
        cycles: u64,
        engine: EngineKind,
    ) -> Result<Arc<SimReport>, SimError> {
        self.get_or_insert_with(netlist, plan, cycles, || {
            Testbench::from_plan(netlist, plan)?.run_with_engine(cycles, engine)
        })
    }

    /// Entry API: returns the cached report for `(netlist, plan, cycles)`,
    /// or runs `compute` on a miss and caches its report.
    ///
    /// This is [`SimMemo::run`] with the simulation factored out — use it
    /// when the caller builds the report itself (a custom testbench, a
    /// replay, a mock in tests). The counters account the call exactly
    /// like `run`: cache hit or one miss. Errors from `compute` propagate
    /// and are never cached. Two threads missing the same key concurrently
    /// both compute (producing bit-identical reports for a deterministic
    /// `compute`); one insert wins.
    ///
    /// # Errors
    ///
    /// Whatever `compute` returns.
    pub fn get_or_insert_with<F>(
        &self,
        netlist: &Netlist,
        plan: &StimulusPlan,
        cycles: u64,
        compute: F,
    ) -> Result<Arc<SimReport>, SimError>
    where
        F: FnOnce() -> Result<SimReport, SimError>,
    {
        let key = (netlist.fingerprint(), plan.fingerprint(), cycles);
        if let Some(report) = self.inner.state.lock().unwrap().map.get(&key) {
            self.inner.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(report));
        }
        self.inner.misses.fetch_add(1, Ordering::Relaxed);
        let report = Arc::new(compute()?);
        self.insert(key, &report);
        Ok(report)
    }

    /// Deposits a report produced by a run the caller executed directly
    /// (typically a monitored run, which can never be served from cache).
    /// A later [`SimMemo::run`] with the same netlist, plan, and cycle
    /// count then hits without simulating. First deposit for a key wins.
    pub fn deposit(
        &self,
        netlist: &Netlist,
        plan: &StimulusPlan,
        cycles: u64,
        report: &Arc<SimReport>,
    ) {
        let key = (netlist.fingerprint(), plan.fingerprint(), cycles);
        self.insert(key, report);
    }

    /// Number of [`SimMemo::run`] calls served from cache.
    pub fn hits(&self) -> u64 {
        self.inner.hits.load(Ordering::Relaxed)
    }

    /// Number of [`SimMemo::run`] calls that had to simulate.
    pub fn misses(&self) -> u64 {
        self.inner.misses.load(Ordering::Relaxed)
    }

    /// Number of entries evicted to stay under the capacity.
    pub fn evictions(&self) -> u64 {
        self.inner.evictions.load(Ordering::Relaxed)
    }

    /// Snapshot of the cache size and traffic counters.
    ///
    /// Reads only atomics — it never takes the cache lock, so a metrics
    /// endpoint can poll it at any rate without stalling simulations. The
    /// fields are individually coherent but not a single consistent cut
    /// (a concurrent insert may be half-reflected), which is fine for
    /// monitoring.
    pub fn stats(&self) -> MemoStats {
        MemoStats {
            entries: self.inner.entries.load(Ordering::Relaxed),
            capacity: self.inner.capacity,
            hits: self.hits(),
            misses: self.misses(),
            evictions: self.evictions(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stimulus::StimulusSpec;
    use oiso_netlist::{CellKind, NetlistBuilder};

    fn adder() -> Netlist {
        let mut b = NetlistBuilder::new("adder");
        let x = b.input("x", 8);
        let y = b.input("y", 8);
        let s = b.wire("s", 8);
        b.cell("add", CellKind::Add, &[x, y], s).unwrap();
        b.mark_output(s);
        b.build().unwrap()
    }

    fn plan() -> StimulusPlan {
        StimulusPlan::new(3)
            .drive("x", StimulusSpec::UniformRandom)
            .drive("y", StimulusSpec::UniformRandom)
    }

    #[test]
    fn repeat_runs_hit_and_match_direct_simulation() {
        let n = adder();
        let p = plan();
        let memo = SimMemo::new();
        let r1 = memo.run(&n, &p, 500).unwrap();
        let r2 = memo.run(&n, &p, 500).unwrap();
        assert_eq!(memo.misses(), 1);
        assert_eq!(memo.hits(), 1);
        let s = n.find_net("s").unwrap();
        assert_eq!(r1.toggle_count(s), r2.toggle_count(s));
        // And the cached report matches an independent direct run.
        let direct = Testbench::from_plan(&n, &p).unwrap().run(500).unwrap();
        assert_eq!(direct.toggle_count(s), r1.toggle_count(s));
    }

    #[test]
    fn compiled_request_is_served_from_a_scalar_entry_byte_identically() {
        let n = adder();
        let p = plan();
        let memo = SimMemo::new();
        let scalar = memo
            .run_with_engine(&n, &p, 500, EngineKind::Scalar)
            .unwrap();
        let compiled = memo
            .run_with_engine(&n, &p, 500, EngineKind::Compiled)
            .unwrap();
        assert_eq!(memo.misses(), 1, "only the scalar run simulates");
        assert_eq!(memo.hits(), 1, "the compiled engine hits the same entry");
        assert!(Arc::ptr_eq(&scalar, &compiled), "same cached report object");
        // The replay is sound because a fresh compiled run produces the
        // same bytes the scalar entry holds.
        let direct = Testbench::from_plan(&n, &p)
            .unwrap()
            .run_with_engine(500, EngineKind::Compiled)
            .unwrap();
        let s = n.find_net("s").unwrap();
        assert_eq!(direct.toggle_count(s), scalar.toggle_count(s));
        for bit in 0..8 {
            assert_eq!(
                direct.static_prob(s, bit).to_bits(),
                scalar.static_prob(s, bit).to_bits()
            );
        }
    }

    #[test]
    fn key_includes_netlist_plan_and_cycles() {
        let n = adder();
        let p = plan();
        let memo = SimMemo::new();
        memo.run(&n, &p, 500).unwrap();
        memo.run(&n, &p, 600).unwrap();
        memo.run(&n, &p.clone().with_seed(4), 500).unwrap();
        let mut n2 = n.clone();
        n2.add_wire("extra", 8).unwrap();
        memo.run(&n2, &p, 500).unwrap();
        assert_eq!(memo.misses(), 4, "each variation is a distinct key");
        assert_eq!(memo.hits(), 0);
    }

    #[test]
    fn deposit_makes_later_plain_run_hit() {
        let n = adder();
        let p = plan();
        let memo = SimMemo::new();
        let direct = Arc::new(Testbench::from_plan(&n, &p).unwrap().run(500).unwrap());
        memo.deposit(&n, &p, 500, &direct);
        let replay = memo.run(&n, &p, 500).unwrap();
        assert_eq!(memo.hits(), 1);
        assert_eq!(memo.misses(), 0);
        let s = n.find_net("s").unwrap();
        assert_eq!(replay.toggle_count(s), direct.toggle_count(s));
    }

    #[test]
    fn clones_share_the_cache() {
        let n = adder();
        let p = plan();
        let memo = SimMemo::new();
        let alias = memo.clone();
        memo.run(&n, &p, 400).unwrap();
        alias.run(&n, &p, 400).unwrap();
        assert_eq!(memo.hits(), 1);
        assert_eq!(memo.misses(), 1);
    }

    #[test]
    fn capacity_evicts_fifo() {
        let n = adder();
        let p = plan();
        let memo = SimMemo::with_capacity(2);
        memo.run(&n, &p, 100).unwrap(); // key A
        memo.run(&n, &p, 200).unwrap(); // key B
        memo.run(&n, &p, 300).unwrap(); // key C evicts A
        assert_eq!(memo.evictions(), 1);
        assert_eq!(memo.stats().entries, 2);
        // B and C still hit; A re-simulates (and evicts B, the new oldest).
        memo.run(&n, &p, 200).unwrap();
        memo.run(&n, &p, 300).unwrap();
        assert_eq!(memo.hits(), 2);
        memo.run(&n, &p, 100).unwrap();
        assert_eq!(memo.misses(), 4);
        assert_eq!(memo.evictions(), 2);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let n = adder();
        let p = plan();
        let memo = SimMemo::with_capacity(0);
        memo.run(&n, &p, 100).unwrap();
        memo.run(&n, &p, 100).unwrap();
        assert_eq!(memo.hits(), 0);
        assert_eq!(memo.misses(), 2);
        assert_eq!(memo.stats().entries, 0);
    }

    #[test]
    fn stats_snapshot_renders() {
        let n = adder();
        let p = plan();
        let memo = SimMemo::with_capacity(8);
        memo.run(&n, &p, 100).unwrap();
        memo.run(&n, &p, 100).unwrap();
        let stats = memo.stats();
        assert_eq!(
            stats,
            MemoStats {
                entries: 1,
                capacity: Some(8),
                hits: 1,
                misses: 1,
                evictions: 0
            }
        );
        let text = stats.to_string();
        assert!(text.contains("1 cached report(s) (cap 8)"), "{text}");
        assert!(text.contains("1 hit(s) / 1 miss(es)"), "{text}");
    }

    #[test]
    fn get_or_insert_with_runs_compute_only_on_miss() {
        let n = adder();
        let p = plan();
        let memo = SimMemo::new();
        let mut computed = 0u32;
        let direct = Testbench::from_plan(&n, &p).unwrap().run(500).unwrap();
        for _ in 0..3 {
            let report = memo
                .get_or_insert_with(&n, &p, 500, || {
                    computed += 1;
                    Testbench::from_plan(&n, &p)?.run(500)
                })
                .unwrap();
            let s = n.find_net("s").unwrap();
            assert_eq!(report.toggle_count(s), direct.toggle_count(s));
        }
        assert_eq!(computed, 1, "only the first call simulates");
        assert_eq!(memo.misses(), 1);
        assert_eq!(memo.hits(), 2);
    }

    #[test]
    fn get_or_insert_with_propagates_and_never_caches_errors() {
        let n = adder();
        let p = plan();
        let memo = SimMemo::new();
        for _ in 0..2 {
            let err = memo.get_or_insert_with(&n, &p, 500, || {
                // A failing compute: reuse a real SimError from a bad plan.
                let missing = StimulusPlan::new(0).drive("x", StimulusSpec::UniformRandom);
                Testbench::from_plan(&n, &missing)?.run(500)
            });
            assert!(err.is_err());
        }
        assert_eq!(memo.hits(), 0);
        assert_eq!(memo.misses(), 2);
        assert_eq!(memo.stats().entries, 0);
    }

    #[test]
    fn stats_entries_tracks_inserts_and_evictions() {
        let n = adder();
        let p = plan();
        let memo = SimMemo::with_capacity(2);
        assert_eq!(memo.stats().entries, 0);
        memo.run(&n, &p, 100).unwrap();
        assert_eq!(memo.stats().entries, 1);
        memo.run(&n, &p, 200).unwrap();
        memo.run(&n, &p, 300).unwrap();
        let stats = memo.stats();
        assert_eq!(stats.entries, 2, "capped at 2 after eviction");
        assert_eq!(stats.evictions, 1);
    }

    #[test]
    fn errors_are_not_cached() {
        let n = adder();
        let missing = StimulusPlan::new(0).drive("x", StimulusSpec::UniformRandom);
        let memo = SimMemo::new();
        assert!(memo.run(&n, &missing, 100).is_err());
        assert!(memo.run(&n, &missing, 100).is_err());
        assert_eq!(memo.hits(), 0, "failed runs never populate the cache");
    }
}
