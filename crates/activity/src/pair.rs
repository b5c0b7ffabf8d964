//! The BDD pair engine: exact signal probabilities and lag-one transition
//! densities under the source joint model.
//!
//! Every *source* bit (primary input, register output, latch output) is a
//! pair of BDD variables: the current-cycle value `x` and a toggle
//! indicator `t`, so the next-cycle value is `x ⊕ t`. The joint lag-one
//! distribution matches the algebraic estimator's `BitStats` model: with
//! static probability `p` and per-bit toggle rate `d`, toggles split evenly
//! between the two directions (`Pr(toggle, x=1) = Pr(toggle, x=0) = d/2`),
//! which makes the chain stationary. `t` is therefore *not* independent of
//! `x` — the pair-aware probability traversal below conditions `Pr(t)` on
//! the branch taken at `x`, which is sound because the variable order
//! interleaves each `x` immediately before its `t`.
//!
//! The transition density of any function `f` over the sources is then the
//! exact probability of the miter `f(x) ⊕ f(x ⊕ t)` under that joint
//! model — spatial correlation (reconvergent fanout) and temporal
//! correlation (lag-one) are both handled exactly; only correlation
//! *between* distinct source bits is assumed away.

use oiso_boolex::{
    encode_cell, Bdd, BddRef, BoolExpr, IntMap, NodeBudget, ProbabilityMemo, Signal,
};
use oiso_netlist::{Cell, CellKind, Netlist};
use std::collections::HashMap;

// Net widths are capped at 64, so bit indices 64..128 are free to encode
// the toggle companion of each source bit inside the same `Signal` space,
// and 128 encodes the per-net word-change coin of a pseudo-source.
const TOGGLE_BIT_OFFSET: u8 = 64;

/// Bit index of the word-change variable of a multiplier pseudo-source.
const WORD_CHANGE_BIT: u8 = 128;

pub(crate) fn toggle_sig(s: Signal) -> Signal {
    Signal {
        net: s.net,
        bit: s.bit + TOGGLE_BIT_OFFSET,
    }
}

/// The word-change variable of a pseudo-source net: a plain value variable
/// (no toggle pair) whose probability is seeded by the caller from the
/// exact word-change function.
pub(crate) fn word_sig(net: oiso_netlist::NetId) -> Signal {
    Signal {
        net,
        bit: WORD_CHANGE_BIT,
    }
}

fn is_toggle(s: Signal) -> bool {
    (TOGGLE_BIT_OFFSET..WORD_CHANGE_BIT).contains(&s.bit)
}

fn base_sig(s: Signal) -> Signal {
    Signal {
        net: s.net,
        bit: s.bit - TOGGLE_BIT_OFFSET,
    }
}

/// Per-source-bit statistics: static probability and per-bit toggle rate,
/// clamped to a consistent joint distribution (`d ≤ 2·min(p, 1−p)`).
#[derive(Debug, Clone, Copy)]
pub(crate) struct SourceBit {
    pub p: f64,
    pub d: f64,
}

impl SourceBit {
    pub fn clamped(p: f64, d: f64) -> Self {
        let p = p.clamp(0.0, 1.0);
        let d = d.clamp(0.0, 2.0 * p.min(1.0 - p));
        SourceBit { p, d }
    }
}

/// Sub-results of [`pair_probability`] walks, keyed by node and pending
/// value branch.
pub(crate) type PairMemo = IntMap<(BddRef, u8), f64>;

/// Per-source-bit statistics of one snapshot, keyed by signal.
pub(crate) type SourceStats = IntMap<Signal, SourceBit>;

/// Every probability sub-result under one settled statistics snapshot:
/// plain `Pr(f)` walks and pair-model walks alike. Sharing one across all
/// queries of a snapshot is sound because the manager never reorders or
/// collects nodes, so a node index names one function for the manager's
/// whole life; a new snapshot needs a new memo.
#[derive(Default)]
pub(crate) struct SnapshotMemo {
    pub prob: ProbabilityMemo,
    pub pair: PairMemo,
}

/// `Pr(f = 1)` under the pair model. `f` may mention both current-value and
/// toggle variables; toggle probabilities are conditioned on the value
/// branch when the interleaved order makes the value the direct ancestor.
/// `memo` must only ever have seen walks under this same `stats`.
pub(crate) fn pair_probability(
    bdd: &Bdd,
    f: BddRef,
    stats: &SourceStats,
    memo: &mut PairMemo,
) -> f64 {
    pair_prob_rec(bdd, f, None, stats, memo)
}

fn pair_prob_rec(
    bdd: &Bdd,
    f: BddRef,
    pending: Option<(Signal, bool)>,
    stats: &SourceStats,
    cache: &mut PairMemo,
) -> f64 {
    let Some((top, lo, hi)) = bdd.expand(f) else {
        return if f == BddRef::TRUE { 1.0 } else { 0.0 };
    };
    // A pending value branch only matters for its own toggle variable; once
    // the walk passes that position the context is spent.
    let pending = match pending {
        Some((x, _)) if top != toggle_sig(x) => None,
        other => other,
    };
    let key = (
        f,
        match pending {
            None => 0u8,
            Some((_, false)) => 1,
            Some((_, true)) => 2,
        },
    );
    if let Some(&v) = cache.get(&key) {
        return v;
    }
    let v = if is_toggle(top) {
        let s = stats
            .get(&base_sig(top))
            .copied()
            .unwrap_or(SourceBit { p: 0.0, d: 0.0 });
        // Toggles split evenly between directions: Pr(t, x=1) = d/2.
        let pt = match pending {
            Some((_, true)) if s.p > 1e-12 => (s.d / 2.0 / s.p).clamp(0.0, 1.0),
            Some((_, false)) if s.p < 1.0 - 1e-12 => {
                (s.d / 2.0 / (1.0 - s.p)).clamp(0.0, 1.0)
            }
            Some(_) => 0.0,
            None => s.d.clamp(0.0, 1.0),
        };
        pt * pair_prob_rec(bdd, hi, None, stats, cache)
            + (1.0 - pt) * pair_prob_rec(bdd, lo, None, stats, cache)
    } else {
        let p = stats.get(&top).map_or(0.0, |s| s.p);
        (1.0 - p) * pair_prob_rec(bdd, lo, Some((top, false)), stats, cache)
            + p * pair_prob_rec(bdd, hi, Some((top, true)), stats, cache)
    };
    cache.insert(key, v);
    v
}

/// The current- and next-cycle functions of every bit of one net.
pub(crate) struct NetFns {
    pub cur: Vec<BddRef>,
    pub nxt: Vec<BddRef>,
}

/// How a register's next-cycle functions are modeled, keyed by output net.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum RegTier {
    /// `q' = en ? D : q` over covered data/enable cones — fully structural.
    Structural,
    /// Data cone uncovered, enable covered: `q' = q ⊕ (en ∧ t)`.
    Gated { en: oiso_netlist::NetId },
    /// Plain pair toggle `q' = q ⊕ t`.
    Plain,
}

/// The exact pass over a netlist: per-bit BDDs for every combinational net
/// reachable from the sources without crossing an unmodeled cell.
pub(crate) struct ExactPass {
    pub bdd: Bdd,
    pub stats: SourceStats,
    pub fns: Vec<Option<NetFns>>,
    pub reg_tiers: HashMap<oiso_netlist::NetId, RegTier>,
    /// Nets modeled as pseudo-sources (multiplier outputs): covered, but
    /// their values are fresh variables rather than exact functions.
    pub pseudo: Vec<oiso_netlist::NetId>,
    /// Per pseudo-source net, the exact word-change function `W` ("any
    /// operand bit changed this cycle"). The next-cycle functions reference
    /// a single fresh variable ([`word_sig`]) in its place — keeping the
    /// operand cones out of every downstream BDD — and the caller seeds
    /// that variable's probability from `Pr(W)` once statistics settle.
    pub pseudo_words: Vec<(oiso_netlist::NetId, BddRef)>,
    pub blown: bool,
    /// How this pass came to be built in `bdd`.
    pub origin: PassOrigin,
    memo: FnMemo,
    /// For a carried pass, the node count its manager had when the fresh
    /// pass it started with was carried; 0 for a fresh pass.
    fresh_nodes: usize,
}

/// How an exact pass was built: in a new manager, or in the manager a
/// previous pass left behind (see [`ActivityCarry`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PassOrigin {
    /// In a new manager, with no carry offered.
    Fresh,
    /// In the carried manager, reusing the functions of every cell whose
    /// input functions were unchanged.
    Carried,
    /// In a new manager: the carried one interned a different variable
    /// order (a source or multiplier output came or went).
    OrderChanged,
    /// In a new manager: the carried one had outgrown a fixed multiple of
    /// the nodes it held when first carried, after its fresh build.
    Outgrown,
    /// In a new manager, after the carried build tripped the node budget.
    BudgetFallback,
}

/// The BDD manager and function memo of a finished exact pass whose
/// budget held, kept for the next [`crate::ActivityModel`] over a changed
/// netlist.
///
/// Carrying never changes a result: a carried build is bit-identical to a
/// fresh one, or it is discarded for one.
pub struct ActivityCarry {
    bdd: Bdd,
    memo: FnMemo,
    fresh_nodes: usize,
}

/// A carried manager only grows. Past this many times the node count it
/// had when first carried, after its fresh build, the next build starts
/// fresh instead, which bounds the memory a carry holds.
const CARRY_GROWTH_LIMIT: usize = 3;

/// What a cell's output bits are a function of: its kind, its output
/// width and each input port's bits, port boundaries kept.
#[derive(PartialEq, Eq, Hash)]
struct CellKey {
    kind: CellKind,
    width: usize,
    ins: Vec<Vec<BddRef>>,
}

/// Functions computed in one manager, keyed by the functions they were
/// computed from, so a later build in the same manager reuses every cell
/// whose input functions did not change. Keys and values are [`BddRef`]s
/// of that manager only.
#[derive(Default)]
struct FnMemo {
    /// `None` where [`encode_cell`] declined the kind.
    cells: HashMap<CellKey, Option<Vec<BddRef>>>,
    /// A pseudo-multiplier's word-change function, keyed by each operand's
    /// `cur` bits then its `nxt` bits.
    words: HashMap<Vec<Vec<BddRef>>, BddRef>,
}

/// One phase-B work item, in topological order.
enum PlanItem {
    /// A cell whose output has exact per-bit functions.
    Covered(oiso_netlist::CellId),
    /// A multiplier output modeled as a word-change pseudo-source:
    /// `out' = out ⊕ (W ∧ u)` with `W` the exact "any input bit changed"
    /// function and `u` a fresh per-bit coin — product bits re-randomize
    /// together exactly when an operand word changes.
    PseudoMul(oiso_netlist::CellId),
}

/// The variables a build interns, top level first: a value/toggle pair
/// per bit of every source and multiplier output, bit-sliced round-robin
/// across those nets (x[0], y[0], …, x[1], y[1], …) — the classic
/// datapath ordering that keeps ripple-carry chains polynomial — with each
/// value bit immediately before its toggle bit so the pair traversal can
/// condition on the value branch.
///
/// Multiplier outputs become pseudo-sources during phase A; their pairs
/// join the same round-robin so that adder trees mixing products with
/// primary inputs keep the interleaved order (appending them at discovery
/// time recreates the net-by-net ordering that makes ripple carries
/// exponential). Each also claims its word-change slot right after its
/// own bit-0 pair, so the slot never splits a pair of any net.
fn var_order(netlist: &Netlist, source_nets: &[oiso_netlist::NetId]) -> Vec<Signal> {
    let mul_outs = netlist
        .cells()
        .filter(|(_, c)| c.kind() == CellKind::Mul)
        .map(|(_, c)| c.output())
        .filter(|n| !source_nets.contains(n));
    let nets: Vec<(oiso_netlist::NetId, bool)> = source_nets
        .iter()
        .map(|&n| (n, false))
        .chain(mul_outs.map(|n| (n, true)))
        .collect();
    let width = |n: oiso_netlist::NetId| netlist.net(n).width() as usize;
    let max_width = nets.iter().map(|&(n, _)| width(n)).max().unwrap_or(0);
    let mut order = Vec::new();
    for bit in 0..max_width {
        for &(net, is_mul) in &nets {
            if bit >= width(net) {
                continue;
            }
            let sig = Signal {
                net,
                bit: bit as u8,
            };
            order.push(sig);
            order.push(toggle_sig(sig));
            if is_mul && bit == 0 {
                order.push(word_sig(net));
            }
        }
    }
    order
}

impl ExactPass {
    /// Builds the pass under a `node_budget`. `source_stats` must cover
    /// every bit of every source net (primary inputs, register outputs,
    /// latch outputs).
    ///
    /// With a `carry`, the pass is built in the carried manager when that
    /// manager interned the same variable order and has not outgrown
    /// [`CARRY_GROWTH_LIMIT`]; a carried build that trips the budget is
    /// discarded for a fresh one. The functions, `blown` and everything
    /// derived from them equal a fresh build's either way: nodes are
    /// canonical, so at every budget check the carried manager holds a
    /// superset of the fresh build's nodes, and a carried build that fits
    /// is one the fresh build also completes.
    pub fn build(
        netlist: &Netlist,
        source_stats: &SourceStats,
        source_nets: &[oiso_netlist::NetId],
        node_budget: usize,
        carry: Option<ActivityCarry>,
    ) -> ExactPass {
        let order = var_order(netlist, source_nets);
        let origin = match carry {
            None => PassOrigin::Fresh,
            Some(c) if c.bdd.order() != order => PassOrigin::OrderChanged,
            Some(c) if c.bdd.num_nodes() > CARRY_GROWTH_LIMIT * c.fresh_nodes => {
                PassOrigin::Outgrown
            }
            Some(c) => {
                let pass = ExactPass::build_in(
                    c.bdd,
                    c.memo,
                    netlist,
                    source_stats,
                    source_nets,
                    &order,
                    node_budget,
                );
                if !pass.blown {
                    return ExactPass {
                        origin: PassOrigin::Carried,
                        fresh_nodes: c.fresh_nodes,
                        ..pass
                    };
                }
                PassOrigin::BudgetFallback
            }
        };
        ExactPass {
            origin,
            ..ExactPass::build_in(
                Bdd::new(),
                FnMemo::default(),
                netlist,
                source_stats,
                source_nets,
                &order,
                node_budget,
            )
        }
    }

    /// The manager and memo to carry into the next build, or `None` when
    /// the budget blew: a blown pass's manager is never carried.
    pub fn into_carry(self) -> Option<ActivityCarry> {
        let fresh_nodes = match self.origin {
            PassOrigin::Carried => self.fresh_nodes,
            _ => self.bdd.num_nodes(),
        };
        (!self.blown).then_some(ActivityCarry {
            bdd: self.bdd,
            memo: self.memo,
            fresh_nodes,
        })
    }

    /// The one build: phase A, the register refinement and phase B in
    /// `bdd`, which is empty or has interned exactly `order`, reusing
    /// `memo`'s functions wherever a cell's input functions match.
    fn build_in(
        mut bdd: Bdd,
        memo: FnMemo,
        netlist: &Netlist,
        source_stats: &SourceStats,
        source_nets: &[oiso_netlist::NetId],
        order: &[Signal],
        node_budget: usize,
    ) -> ExactPass {
        // The pass depends on its variable order (value/toggle pairs stay
        // adjacent), which the manager keeps fixed; the budget is the only
        // ceiling, debited at once for the nodes a carried manager holds.
        bdd.set_budget(NodeBudget::new(node_budget));
        let mut pass = ExactPass {
            bdd,
            stats: source_stats.clone(),
            fns: (0..netlist.num_nets()).map(|_| None).collect(),
            reg_tiers: HashMap::new(),
            pseudo: Vec::new(),
            pseudo_words: Vec::new(),
            blown: false,
            origin: PassOrigin::Fresh,
            memo,
            fresh_nodes: 0,
        };
        for &net in source_nets {
            let width = netlist.net(net).width() as usize;
            pass.fns[net.index()] = Some(NetFns {
                cur: Vec::with_capacity(width),
                nxt: Vec::with_capacity(width),
            });
        }
        // Every variable's literal, in order; a source bit's next-cycle
        // function `x ⊕ t` follows its toggle literal.
        for &sig in order {
            let lit = pass.bdd.literal(sig);
            if !is_toggle(sig) {
                continue;
            }
            if let Some(fns) = pass.fns[sig.net.index()].as_mut() {
                let x = pass.bdd.literal(base_sig(sig));
                fns.cur.push(x);
                fns.nxt.push(pass.bdd.xor(x, lit));
            }
        }
        // Phase A: current-cycle functions in topological order.
        let topo = oiso_netlist::comb_topo_order(netlist);
        let mut plan: Vec<PlanItem> = Vec::new();
        for &cell_id in &topo {
            let cell = netlist.cell(cell_id);
            if pass.fns[cell.output().index()].is_some() {
                continue; // latch outputs are sources, not functions
            }
            if pass.blown {
                continue;
            }
            let out = pass.eval_phase(netlist, cell, Phase::Cur);
            match out {
                Some(cur) => {
                    pass.fns[cell.output().index()] = Some(NetFns {
                        cur,
                        nxt: Vec::new(),
                    });
                    plan.push(PlanItem::Covered(cell_id));
                }
                None if cell.kind() == CellKind::Mul
                    && cell
                        .inputs()
                        .iter()
                        .all(|n| pass.fns[n.index()].is_some()) =>
                {
                    // Pseudo-source: fresh value/coin pairs, already
                    // interleaved into the variable order above.
                    let q = cell.output();
                    let width = netlist.net(q).width() as usize;
                    let mut cur = Vec::with_capacity(width);
                    for bit in 0..width {
                        let sig = Signal {
                            net: q,
                            bit: bit as u8,
                        };
                        cur.push(pass.bdd.literal(sig));
                        pass.bdd.literal(toggle_sig(sig));
                        pass.stats.insert(sig, SourceBit { p: 0.5, d: 0.5 });
                    }
                    pass.fns[q.index()] = Some(NetFns {
                        cur,
                        nxt: Vec::new(),
                    });
                    pass.pseudo.push(q);
                    plan.push(PlanItem::PseudoMul(cell_id));
                }
                None => continue,
            }
            if pass.bdd.budget_exceeded() {
                // Budget is checked post-hoc, like the optimizer precheck:
                // the cell that blew it keeps nothing, and everything
                // downstream falls back to the algebraic estimate.
                pass.fns[cell.output().index()] = None;
                if matches!(plan.pop(), Some(PlanItem::PseudoMul(_))) {
                    pass.pseudo.pop();
                }
                pass.blown = true;
            }
        }

        // Between phases: refine each register's next-cycle functions now
        // that its data/enable cones are known.
        //
        // * Data and enable both covered → the structural truth,
        //   `q' = en ? D : q`, expressed over current-cycle variables. This
        //   captures state feedback (counters, FSM self-loops) and burst
        //   correlation between lanes sharing one enable exactly — both
        //   invisible to independent per-bit toggles. The one approximation
        //   left is that `q`'s value is independent of `D`'s history, which
        //   is exact for memoryless (uniform-random-fed) data.
        // * Data uncovered but enable covered → `q' = q ⊕ (en ∧ t)` with
        //   `t` rescaled by `1/Pr(en)` to keep the marginal rate: bursts
        //   still correlate through the shared enable function.
        // * Neither → the plain pair toggle stands.
        for (_, cell) in netlist.cells() {
            let CellKind::Reg { has_enable } = cell.kind() else {
                continue;
            };
            let q = cell.output();
            let width = netlist.net(q).width() as usize;
            let data_fns: Option<Vec<BddRef>> = cell.inputs().first().and_then(|d| {
                pass.fns[d.index()]
                    .as_ref()
                    .filter(|f| f.cur.len() >= width)
                    .map(|f| f.cur[..width].to_vec())
            });
            let en_cur: Option<BddRef> = if has_enable {
                cell.inputs().get(1).and_then(|&en| {
                    pass.fns[en.index()]
                        .as_ref()
                        .and_then(|f| f.cur.first().copied())
                })
            } else {
                Some(BddRef::TRUE)
            };
            match (data_fns, en_cur) {
                (Some(data), Some(en)) => {
                    pass.reg_tiers.insert(q, RegTier::Structural);
                    for (bit, &d_cur) in data.iter().enumerate() {
                        let sig = Signal {
                            net: q,
                            bit: bit as u8,
                        };
                        let x = pass.bdd.literal(sig);
                        let nxt = pass.bdd.ite(en, d_cur, x);
                        pass.fns[q.index()].as_mut().expect("register source").nxt[bit] = nxt;
                    }
                }
                (None, Some(en)) if en != BddRef::TRUE => {
                    // The caller owns the toggle-rate seeds; here the
                    // structure alone is fixed so that lanes sharing one
                    // enable toggle in the *same* cycles. The stats entry
                    // for each bit is interpreted as the conditional rate
                    // `Pr(t | enable fired)`.
                    pass.reg_tiers.insert(
                        q,
                        RegTier::Gated {
                            en: cell.inputs()[1],
                        },
                    );
                    for bit in 0..width {
                        let sig = Signal {
                            net: q,
                            bit: bit as u8,
                        };
                        let x = pass.bdd.literal(sig);
                        let t = pass.bdd.literal(toggle_sig(sig));
                        let gated = pass.bdd.and(en, t);
                        let nxt = pass.bdd.xor(x, gated);
                        pass.fns[q.index()].as_mut().expect("register source").nxt[bit] = nxt;
                    }
                }
                _ => {
                    pass.reg_tiers.insert(q, RegTier::Plain);
                }
            }
        }

        // Phase B: next-cycle functions for every planned cell, in the same
        // order (inputs' nxt are ready: sources are pre-seeded and planned
        // cells precede their fanout in `topo`).
        for item in &plan {
            let cell_id = match item {
                PlanItem::Covered(id) | PlanItem::PseudoMul(id) => *id,
            };
            let cell = netlist.cell(cell_id);
            if pass.blown {
                pass.fns[cell.output().index()] = None;
                continue;
            }
            let nxt = match item {
                PlanItem::Covered(_) => pass
                    .eval_phase(netlist, cell, Phase::Nxt)
                    .expect("same structure as the cur phase"),
                PlanItem::PseudoMul(_) => {
                    // W = "any operand bit changed this cycle". Kept aside
                    // for the caller to evaluate; the functions below use
                    // the single fresh word variable instead, so operand
                    // cones never leak into downstream BDDs (an adder tree
                    // over exact-W products goes exponential).
                    let w_changed = pass.word_change(cell);
                    let q = cell.output();
                    pass.pseudo_words.push((q, w_changed));
                    let w = pass.bdd.literal(word_sig(q));
                    let width = netlist.net(q).width() as usize;
                    let mut nxt = Vec::with_capacity(width);
                    for bit in 0..width {
                        let sig = Signal {
                            net: q,
                            bit: bit as u8,
                        };
                        let x = pass.bdd.literal(sig);
                        let u = pass.bdd.literal(toggle_sig(sig));
                        let flip = pass.bdd.and(w, u);
                        nxt.push(pass.bdd.xor(x, flip));
                    }
                    nxt
                }
            };
            pass.fns[cell.output().index()]
                .as_mut()
                .expect("planned in phase A")
                .nxt = nxt;
            if pass.bdd.budget_exceeded() {
                pass.fns[cell.output().index()] = None;
                pass.blown = true;
            }
        }
        pass
    }

    /// Exact `(p, d)` of one covered net bit under the settled
    /// `self.stats`; `memo` carries sub-results across every bit queried
    /// under those statistics.
    pub fn bit_stats(
        &mut self,
        net: oiso_netlist::NetId,
        bit: usize,
        memo: &mut SnapshotMemo,
    ) -> Option<(f64, f64)> {
        let fns = self.fns[net.index()].as_ref()?;
        let (cur, nxt) = (*fns.cur.get(bit)?, *fns.nxt.get(bit)?);
        let stats = &self.stats;
        let prob = |s| stats.get(&s).map_or(0.0, |b: &SourceBit| b.p);
        let p = self.bdd.probability_memo(cur, &prob, &mut memo.prob);
        let miter = self.bdd.xor(cur, nxt);
        let d = pair_probability(&self.bdd, miter, &self.stats, &mut memo.pair);
        Some((p, d))
    }

    /// The cell's per-bit functions in `phase`, or `None` when an input is
    /// uncovered or the kind is not bit-level modeled: multipliers become
    /// word-change pseudo-sources, and the algebraic estimator takes over
    /// for anything else [`encode_cell`] declines. Memoized on the inputs'
    /// functions, so both phases and later builds in this manager share it.
    fn eval_phase(&mut self, netlist: &Netlist, cell: &Cell, phase: Phase) -> Option<Vec<BddRef>> {
        if cell.kind() == CellKind::Mul {
            return None;
        }
        let ins: Option<Vec<Vec<BddRef>>> = cell
            .inputs()
            .iter()
            .map(|n| {
                self.fns[n.index()].as_ref().map(|f| match phase {
                    Phase::Cur => f.cur.clone(),
                    Phase::Nxt => f.nxt.clone(),
                })
            })
            .collect();
        let key = CellKey {
            kind: cell.kind(),
            width: netlist.net(cell.output()).width() as usize,
            ins: ins?,
        };
        if let Some(out) = self.memo.cells.get(&key) {
            return out.clone();
        }
        let ins: Vec<&[BddRef]> = key.ins.iter().map(Vec::as_slice).collect();
        let out = encode_cell(&mut self.bdd, key.kind, &ins, key.width, |_| false);
        self.memo.cells.insert(key, out.clone());
        out
    }

    /// The word-change function `W` of a pseudo-multiplier whose operands
    /// are covered in both phases: "any operand bit changed this cycle".
    /// Memoized on the operands' functions.
    fn word_change(&mut self, cell: &Cell) -> BddRef {
        let key: Vec<Vec<BddRef>> = cell
            .inputs()
            .iter()
            .flat_map(|input| {
                let fns = self.fns[input.index()]
                    .as_ref()
                    .expect("pseudo-mul inputs covered in phase A");
                [fns.cur.clone(), fns.nxt.clone()]
            })
            .collect();
        if let Some(&w) = self.memo.words.get(&key) {
            return w;
        }
        let mut w = BddRef::FALSE;
        for port in key.chunks(2) {
            for (&c, &n) in port[0].iter().zip(&port[1]) {
                let m = self.bdd.xor(c, n);
                w = self.bdd.or(w, m);
            }
        }
        self.memo.words.insert(key, w);
        w
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Phase {
    Cur,
    Nxt,
}

/// Activity of a Boolean expression over nets with known per-bit activity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExprActivity {
    /// `Pr(expr = 1)`.
    pub p: f64,
    /// Transitions of the expression's value per clock cycle.
    pub d: f64,
    /// `true` when computed by the exact pair model (budget permitting).
    pub exact: bool,
}

/// Evaluates [`ExprActivity`] for `expr`, treating every support bit as an
/// independent lag-one source with the given statistics.
///
/// Falls back to a correlation-free algebraic estimate when the BDD grows
/// past `node_budget` nodes.
pub(crate) fn expr_activity_with(
    expr: &BoolExpr,
    stats_of: impl Fn(Signal) -> (f64, f64),
    budget: &NodeBudget,
) -> ExprActivity {
    let support: Vec<Signal> = expr.support().into_iter().collect();
    let mut stats = SourceStats::default();
    for &sig in &support {
        let (p, d) = stats_of(sig);
        stats.insert(sig, SourceBit::clamped(p, d));
    }
    if budget.exceeded() {
        // A shared handle may arrive already spent by earlier work.
        return algebraic_expr_activity(expr, &stats);
    }
    let mut bdd = Bdd::new();
    bdd.set_budget(budget.clone());
    for &sig in &support {
        bdd.literal(sig);
        bdd.literal(toggle_sig(sig));
    }
    let cur = build_expr(&mut bdd, expr, false);
    let nxt = build_expr(&mut bdd, expr, true);
    if bdd.budget_exceeded() {
        return algebraic_expr_activity(expr, &stats);
    }
    let p = bdd.probability(cur, &|s| stats.get(&s).map_or(0.0, |b| b.p));
    let miter = bdd.xor(cur, nxt);
    let d = pair_probability(&bdd, miter, &stats, &mut PairMemo::default());
    ExprActivity { p, d, exact: true }
}

fn build_expr(bdd: &mut Bdd, expr: &BoolExpr, next: bool) -> BddRef {
    match expr {
        BoolExpr::Const(true) => BddRef::TRUE,
        BoolExpr::Const(false) => BddRef::FALSE,
        BoolExpr::Var(s) => {
            let x = bdd.literal(*s);
            if next {
                let t = bdd.literal(toggle_sig(*s));
                bdd.xor(x, t)
            } else {
                x
            }
        }
        BoolExpr::Not(e) => {
            let inner = build_expr(bdd, e, next);
            bdd.not(inner)
        }
        BoolExpr::And(es) => {
            let mut acc = BddRef::TRUE;
            for e in es {
                let x = build_expr(bdd, e, next);
                acc = bdd.and(acc, x);
            }
            acc
        }
        BoolExpr::Or(es) => {
            let mut acc = BddRef::FALSE;
            for e in es {
                let x = build_expr(bdd, e, next);
                acc = bdd.or(acc, x);
            }
            acc
        }
    }
}

/// Correlation-free fallback: tree-algebraic probability, and a coarse
/// density (the chance any support bit toggles, scaled by how balanced the
/// output is — exact for a buffer, conservative for wide cones).
fn algebraic_expr_activity(
    expr: &BoolExpr,
    stats: &SourceStats,
) -> ExprActivity {
    let p = tree_probability(expr, stats);
    // Support order, not map order: the product must not depend on the
    // map's hash seed.
    let mut none_toggle = 1.0;
    for sig in expr.support() {
        none_toggle *= 1.0 - stats[&sig].d.clamp(0.0, 1.0);
    }
    let d = ((1.0 - none_toggle) * 4.0 * p * (1.0 - p)).clamp(0.0, 1.0);
    ExprActivity { p, d, exact: false }
}

fn tree_probability(expr: &BoolExpr, stats: &SourceStats) -> f64 {
    match expr {
        BoolExpr::Const(b) => f64::from(u8::from(*b)),
        BoolExpr::Var(s) => stats.get(s).map_or(0.0, |b| b.p),
        BoolExpr::Not(e) => 1.0 - tree_probability(e, stats),
        BoolExpr::And(es) => es.iter().map(|e| tree_probability(e, stats)).product(),
        BoolExpr::Or(es) => {
            1.0 - es
                .iter()
                .map(|e| 1.0 - tree_probability(e, stats))
                .product::<f64>()
        }
    }
}
