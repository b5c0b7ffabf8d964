//! Static switching-activity and glitch analysis.
//!
//! The paper's savings model hinges on how often a cone's operands toggle
//! while the cone is unobservable — information `optimize()` traditionally
//! buys with simulation. This crate derives it statically:
//!
//! * **Signal probabilities** `Pr(bit = 1)` per net bit, exact under a
//!   per-source independence model, computed on BDDs (`oiso_boolex::Bdd`) with
//!   reconvergent fanout handled exactly. Sources are primary inputs,
//!   register outputs, and latch outputs; their statistics come from the
//!   stimulus plan (via `oiso_sim::analytic::spec_stats`) and the algebraic
//!   estimator's register fixpoint.
//! * **Transition densities** (toggles per clock cycle) under a lag-one
//!   Markov pair model: every source bit `x` gets a toggle companion `t`,
//!   the next-cycle value is `x ⊕ t`, and the density of any net is the
//!   exact probability of the miter `f(x) ⊕ f(x ⊕ t)` — see the `pair`
//!   module for the conditioned traversal that keeps the chain stationary.
//! * **Glitch estimates** per cell from static-timing arrival windows: a
//!   cell whose inputs arrive far apart produces spurious transitions
//!   proportional to the window width and the input activity.
//!
//! A node budget bounds the BDD pass; cells it cannot afford (and
//! everything downstream, plus word-level operators like `Mul` and dynamic
//! shifts) fall back to the correlation-ignoring algebraic propagation in
//! `oiso_sim::analytic`. The result is an [`ActivityReport`] over the whole
//! netlist plus per-cone summaries for every isolation candidate, or an
//! [`ActivityModel`] that derives only the nets a caller asks for.
//!
//! Calibration: `actbench` (in `oiso-bench`) and the repo's
//! `activity_calibration` battery compare these static densities against
//! simulated toggles on every bundled design and a mutant corpus; see
//! `BENCH_activity.json` for the tracked per-design error.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod pair;

pub use pair::{ActivityCarry, ExprActivity, PassOrigin};

use oiso_boolex::{BoolExpr, NodeBudget, ProbabilityMemo, Signal};
use oiso_netlist::{CellId, CellKind, NetId, Netlist};
use oiso_sim::analytic::{propagate, spec_stats, ActivityEstimate, BitStats};
use oiso_sim::{StimulusPlan, StimulusSpec};
use oiso_techlib::{OperatingConditions, TechLibrary, Time};
use pair::{ExactPass, RegTier, SnapshotMemo, SourceBit, SourceStats};
use std::collections::{HashMap, HashSet};

/// Default BDD node budget for the exact pass. The count is *allocated*
/// nodes (the `Bdd` never collects garbage), and the pass covers whole
/// netlists rather than single cones, so this sits well above the
/// optimizer precheck's per-cone budget.
pub const DEFAULT_ACTIVITY_NODE_BUDGET: usize = 4_000_000;

/// Tuning knobs for [`analyze_activity`].
#[derive(Debug, Clone)]
pub struct ActivityOptions {
    /// BDD node budget for the exact pass; once exceeded, remaining nets
    /// use the algebraic fallback. The budget is checked after each cell,
    /// like the optimizer precheck's.
    pub node_budget: usize,
    /// Clock period for glitch windows; defaults to the library's nominal
    /// operating conditions (10 ns at 100 MHz).
    pub clock_period: Option<Time>,
}

impl Default for ActivityOptions {
    fn default() -> Self {
        ActivityOptions {
            node_budget: DEFAULT_ACTIVITY_NODE_BUDGET,
            clock_period: None,
        }
    }
}

/// Static activity of one bit: probability and transition density.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BitActivity {
    /// `Pr(bit = 1)` at a cycle boundary.
    pub p: f64,
    /// Expected transitions per clock cycle.
    pub d: f64,
}

/// Static activity of one net.
#[derive(Debug, Clone)]
pub struct NetActivity {
    /// Per-bit activity, LSB first.
    pub bits: Vec<BitActivity>,
    /// `true` when the BDD pair model computed this net (correlation-aware
    /// under the source model); `false` for the algebraic fallback.
    pub exact: bool,
}

/// Summary of one isolation-candidate cone (an arithmetic cell).
#[derive(Debug, Clone)]
pub struct ConeSummary {
    /// The arithmetic cell at the cone root.
    pub cell: CellId,
    /// Total transition density over the cell's data operands.
    pub operand_density: f64,
    /// Transition density of the cell's output net.
    pub output_density: f64,
    /// Estimated spurious (glitch) transitions per cycle inside the cell.
    pub glitch: f64,
}

/// Per-net activity lookup: what a ranking reads, whether it comes from
/// a full [`ActivityReport`] or an on-demand [`ActivityModel`]. Ranking
/// formulas written against this trait give bit-identical results on
/// both, because both answer every query from the same per-net values.
pub trait ActivityLookup {
    /// Per-bit activity of a net.
    fn net_activity(&mut self, id: NetId) -> &NetActivity;

    /// Total transition density of a net (toggles per cycle, all bits).
    fn density(&mut self, id: NetId) -> f64 {
        self.net_activity(id).bits.iter().map(|b| b.d).sum()
    }

    /// Activity of a Boolean expression over these nets, exact under the
    /// pair model while the **shared** `budget` lasts.
    fn expr_activity_budgeted(&mut self, expr: &BoolExpr, budget: &NodeBudget) -> ExprActivity {
        let stats: HashMap<Signal, (f64, f64)> = expr
            .support()
            .into_iter()
            .map(|sig| {
                let bits = &self.net_activity(sig.net).bits;
                let pd = bits
                    .get(sig.bit as usize)
                    .map_or((0.0, 0.0), |b| (b.p, b.d));
                (sig, pd)
            })
            .collect();
        pair::expr_activity_with(expr, |sig| stats[&sig], budget)
    }
}

/// The full static-analysis result over a netlist.
#[derive(Debug, Clone)]
pub struct ActivityReport {
    nets: Vec<NetActivity>,
    glitch: Vec<f64>,
    arrival_ns: Vec<f64>,
    clock_period_ns: f64,
    cones: Vec<ConeSummary>,
    /// Nets the exact BDD pass covered.
    pub exact_nets: usize,
    /// Live BDD nodes the exact pass used.
    pub bdd_nodes: usize,
    /// `true` when the node budget cut the exact pass short.
    pub budget_blown: bool,
}

impl ActivityLookup for &ActivityReport {
    fn net_activity(&mut self, id: NetId) -> &NetActivity {
        &self.nets[id.index()]
    }
}

impl ActivityReport {
    /// Per-bit activity of a net.
    pub fn net(&self, id: NetId) -> &NetActivity {
        &self.nets[id.index()]
    }

    /// Mean static probability over the bits of a net.
    pub fn prob(&self, id: NetId) -> f64 {
        let bits = &self.nets[id.index()].bits;
        if bits.is_empty() {
            return 0.0;
        }
        bits.iter().map(|b| b.p).sum::<f64>() / bits.len() as f64
    }

    /// Total transition density of a net (toggles per cycle, all bits).
    pub fn density(&self, id: NetId) -> f64 {
        let mut report = self;
        ActivityLookup::density(&mut report, id)
    }

    /// Estimated glitch transitions per cycle inside a cell.
    pub fn glitch(&self, cell: CellId) -> f64 {
        self.glitch[cell.index()]
    }

    /// Worst-case (latest) signal arrival at a net, in ns, from STA.
    pub fn arrival_ns(&self, id: NetId) -> f64 {
        self.arrival_ns[id.index()]
    }

    /// The clock period the glitch windows were normalized by, in ns.
    pub fn clock_period_ns(&self) -> f64 {
        self.clock_period_ns
    }

    /// Per-cone summaries, one per arithmetic cell, in cell-id order.
    pub fn cones(&self) -> &[ConeSummary] {
        &self.cones
    }

    /// Total transition density over every net in the design.
    pub fn total_density(&self) -> f64 {
        self.nets
            .iter()
            .map(|n| n.bits.iter().map(|b| b.d).sum::<f64>())
            .sum()
    }

    /// Total estimated glitch transitions per cycle over every cell.
    pub fn total_glitch(&self) -> f64 {
        self.glitch.iter().sum()
    }

    /// Activity of a Boolean expression (e.g. an activation function) over
    /// this report's nets, exact under the pair model up to `node_budget`.
    pub fn expr_activity(&self, expr: &BoolExpr, node_budget: usize) -> ExprActivity {
        self.expr_activity_budgeted(expr, &NodeBudget::new(node_budget))
    }

    /// [`ActivityReport::expr_activity`] debiting a **shared**
    /// [`NodeBudget`] handle, so many expression queries (e.g. ranking a
    /// whole candidate list) spend one run-level allowance once.
    pub fn expr_activity_budgeted(&self, expr: &BoolExpr, budget: &NodeBudget) -> ExprActivity {
        let mut report = self;
        ActivityLookup::expr_activity_budgeted(&mut report, expr, budget)
    }
}

/// The static activity model of a netlist, evaluated on demand.
///
/// Construction runs everything that fixes the source statistics: the
/// algebraic base estimate, the exact BDD pass, the register fixpoint, the
/// toggle reseed of unmodeled registers and the word-change seeds. After
/// that the statistics are settled, and [`ActivityModel::net`] derives a
/// net's per-bit `(p, d)` only when first asked, memoizing both the net
/// and every probability sub-result. A caller that reads a handful of
/// nets — the optimizer's candidate ranking — pays for those nets' miters
/// only; [`analyze_activity_with_plan`] forces every net and gets the same
/// values bit for bit.
///
/// A model's exact pass can outlive it: [`ActivityModel::into_carry`]
/// keeps its BDD manager and a memo from each cell's input functions to
/// its output functions, and [`ActivityModel::with_carry`] builds the next
/// model of a changed netlist in that manager, encoding again only the
/// cells whose input functions changed. Every value equals a fresh
/// model's bit for bit; only [`ActivityModel::bdd_nodes`] differs, since a
/// carried model counts the whole carried manager.
pub struct ActivityModel {
    base: ActivityEstimate,
    pass: ExactPass,
    pseudo: HashSet<NetId>,
    widths: Vec<usize>,
    memo: SnapshotMemo,
    nets: Vec<Option<NetActivity>>,
}

impl ActivityLookup for ActivityModel {
    fn net_activity(&mut self, id: NetId) -> &NetActivity {
        self.net(id)
    }
}

impl ActivityModel {
    /// Builds the model of `netlist` with input statistics drawn from
    /// `plan`; inputs the plan does not drive are assumed uniform random.
    pub fn new(netlist: &Netlist, plan: &StimulusPlan, opts: &ActivityOptions) -> ActivityModel {
        ActivityModel::with_carry(netlist, plan, opts, None)
    }

    /// [`ActivityModel::new`], building the exact pass in the manager a
    /// previous model left in `carry` when its variable order still fits;
    /// see [`PassOrigin`] for when it starts fresh instead. The algebraic
    /// base, the register fixpoint and the seeds always run again: a
    /// changed netlist moves the source statistics.
    pub fn with_carry(
        netlist: &Netlist,
        plan: &StimulusPlan,
        opts: &ActivityOptions,
        carry: Option<ActivityCarry>,
    ) -> ActivityModel {
        // 1. Input statistics from the plan, then the algebraic base
        //    estimate (register fixpoint included) over every net.
        let mut input_stats: HashMap<NetId, Vec<BitStats>> = HashMap::new();
        for &input in netlist.primary_inputs() {
            let width = netlist.net(input).width();
            let spec = plan
                .spec_for(netlist.net(input).name())
                .cloned()
                .unwrap_or(StimulusSpec::UniformRandom);
            input_stats.insert(input, spec_stats(&spec, width));
        }
        let base = propagate(netlist, &input_stats);

        // 2. The exact BDD pair pass. Sources: primary inputs plus every
        //    stateful cell's output, seeded from the algebraic fixpoint.
        let mut source_nets: Vec<NetId> = netlist.primary_inputs().to_vec();
        for (_, cell) in netlist.cells() {
            if cell.kind().is_stateful() {
                source_nets.push(cell.output());
            }
        }
        source_nets.sort_by_key(|n| n.index());
        source_nets.dedup();
        let mut source_stats = SourceStats::default();
        for &net in &source_nets {
            for (bit, stats) in base.bits(net).iter().enumerate() {
                source_stats.insert(
                    Signal {
                        net,
                        bit: bit as u8,
                    },
                    SourceBit::clamped(stats.p, stats.tr),
                );
            }
        }
        let mut pass = ExactPass::build(
            netlist,
            &source_stats,
            &source_nets,
            opts.node_budget,
            carry,
        );

        // 2b. Outer refinement of the register-probability seeds. For every
        //     structurally-modeled register, `Pr(q') = Pr(ite(en, D, q))` is
        //     a function of the current seeds; iterating that map to its
        //     fixpoint replaces the coarse algebraic seed with the BDD-exact
        //     stationary probability (counters and FSM self-loops converge
        //     here; the BDD *structure* never depends on the seeds, so no
        //     rebuild is needed). Registers whose next functions are
        //     toggle-based evaluate to their own probability (toggle
        //     variables are absent from the value map), so they simply keep
        //     their algebraic seeds.
        //
        //     The update is damped (`p ← (p + Pr(q'))/2`): a free-running
        //     counter's exact map is a *permutation* of states — undamped
        //     iteration walks the orbit forever and stops wherever the round
        //     cap lands; the average contracts onto the orbit's stationary
        //     mean instead, and true fixed points are unmoved. Each round
        //     reads one snapshot, so its walks share one memo.
        let regs: Vec<CellId> = netlist
            .cells()
            .filter(|(_, c)| c.kind().is_register())
            .map(|(id, _)| id)
            .collect();
        for _ in 0..128 {
            let snapshot = pass.stats.clone();
            let mut memo = ProbabilityMemo::default();
            let mut changed = 0.0f64;
            for &cid in &regs {
                let q = netlist.cell(cid).output();
                for bit in 0..netlist.net(q).width() as usize {
                    let Some(nxt) = pass.fns[q.index()].as_ref().map(|f| f.nxt[bit]) else {
                        continue;
                    };
                    let p_next = pass.bdd.probability_memo(
                        nxt,
                        &|s| snapshot.get(&s).map_or(0.0, |b| b.p),
                        &mut memo,
                    );
                    let sig = Signal {
                        net: q,
                        bit: bit as u8,
                    };
                    let s = pass
                        .stats
                        .get(&sig)
                        .copied()
                        .unwrap_or(SourceBit { p: 0.5, d: 0.0 });
                    let p_new = (s.p + p_next) / 2.0;
                    changed = changed.max((s.p - p_new).abs());
                    pass.stats.insert(sig, SourceBit::clamped(p_new, s.d));
                }
            }
            if changed < 1e-9 {
                break;
            }
        }

        // 2c. Re-derive toggle seeds for registers the pass could *not*
        //     model structurally, now that enable probabilities are exact. A
        //     rarely-enabled register holds values much older than one
        //     cycle, so consecutive latched words approach independent
        //     samples of the data — the fixpoint's resampling rule
        //     `tr_D · p_en` undershoots there. Blend the two limits by the
        //     chance the previous cycle also latched:
        //     `d = p_en · (p_en · tr_D + (1 − p_en) · Pr(D ≠ q))`,
        //     which reduces to the fixpoint seed at `p_en = 1`.
        let snapshot = pass.stats.clone();
        let mut memo = ProbabilityMemo::default();
        for (_, cell) in netlist.cells() {
            let CellKind::Reg { has_enable } = cell.kind() else {
                continue;
            };
            let q = cell.output();
            let tier = pass.reg_tiers.get(&q).copied().unwrap_or(RegTier::Plain);
            if tier == RegTier::Structural {
                continue; // density comes out of the structural miter instead
            }
            let algebraic_en = || base.bits(cell.inputs()[1])[0].p.clamp(0.0, 1.0);
            let p_en = match tier {
                RegTier::Gated { en } => match pass.fns[en.index()].as_ref() {
                    Some(f) => pass.bdd.probability_memo(
                        f.cur[0],
                        &|s| snapshot.get(&s).map_or(0.0, |b| b.p),
                        &mut memo,
                    ),
                    // The budget blew after the enable cone was gated in
                    // but before phase B finished, which dropped the
                    // enable's functions: use its algebraic probability.
                    None => algebraic_en(),
                },
                _ if has_enable => algebraic_en(),
                _ => 1.0,
            };
            if p_en < 1e-9 {
                continue; // never enabled: the ~0 fixpoint seed stands
            }
            for (bit, d_stats) in base
                .bits(cell.inputs()[0])
                .iter()
                .enumerate()
                .take(netlist.net(q).width() as usize)
            {
                let sig = Signal {
                    net: q,
                    bit: bit as u8,
                };
                let p_d = d_stats.p.clamp(0.0, 1.0);
                let tr_d = d_stats.tr.clamp(0.0, 1.0);
                let p_q = snapshot.get(&sig).map_or(0.5, |s| s.p);
                let mix = p_d * (1.0 - p_q) + p_q * (1.0 - p_d);
                let d_marginal = p_en * (p_en * tr_d + (1.0 - p_en) * mix);
                // Gated registers carry the *conditional* rate on the toggle
                // variable (`Pr(t)` given the enable fired).
                let d_eff = if matches!(tier, RegTier::Gated { .. }) {
                    d_marginal / p_en
                } else {
                    d_marginal
                };
                pass.stats.insert(sig, SourceBit::clamped(p_q, d_eff));
            }
        }

        // 2d. Seed each pseudo-source's word-change variable: Pr(W) — "any
        //     operand bit changed this cycle" — evaluated under the settled
        //     statistics. The downstream functions reference only this
        //     single variable, so the operand cones never inflate their BDDs.
        let snapshot = pass.stats.clone();
        let mut memo = pair::PairMemo::default();
        for &(net, w) in &pass.pseudo_words {
            let p_w = pair::pair_probability(&pass.bdd, w, &snapshot, &mut memo);
            pass.stats
                .insert(pair::word_sig(net), SourceBit::clamped(p_w, 0.0));
        }

        ActivityModel {
            base,
            pseudo: pass.pseudo.iter().copied().collect(),
            pass,
            widths: netlist.nets().map(|(_, n)| n.width() as usize).collect(),
            memo: SnapshotMemo::default(),
            nets: (0..netlist.num_nets()).map(|_| None).collect(),
        }
    }

    /// Per-bit activity of a net: exact where the pass reached, algebraic
    /// elsewhere. Computed on first request, then memoized.
    ///
    /// Pseudo-source nets (multiplier outputs) are covered — their
    /// densities come out of the word-change model — but are not marked
    /// exact, since their values are modeled, not derived.
    pub fn net(&mut self, id: NetId) -> &NetActivity {
        if self.nets[id.index()].is_none() {
            let activity = self.derive(id);
            self.nets[id.index()] = Some(activity);
        }
        self.nets[id.index()].as_ref().expect("memoized above")
    }

    fn derive(&mut self, id: NetId) -> NetActivity {
        if self.pass.fns[id.index()].is_none() {
            return NetActivity {
                bits: self
                    .base
                    .bits(id)
                    .iter()
                    .map(|b| {
                        let p = b.p.clamp(0.0, 1.0);
                        let d = b.tr.clamp(0.0, 2.0 * p.min(1.0 - p));
                        BitActivity { p, d }
                    })
                    .collect(),
                exact: false,
            };
        }
        let bits = (0..self.widths[id.index()])
            .map(|bit| {
                let (p, d) = self
                    .pass
                    .bit_stats(id, bit, &mut self.memo)
                    .expect("covered net has per-bit functions");
                BitActivity { p, d }
            })
            .collect();
        NetActivity {
            bits,
            exact: !self.pseudo.contains(&id),
        }
    }

    /// BDD nodes allocated so far: the exact pass plus the miters of every
    /// net derived up to now. A carried model also counts every node the
    /// carried manager held before this model was built.
    pub fn bdd_nodes(&self) -> usize {
        self.pass.bdd.num_nodes()
    }

    /// `true` when the node budget cut the exact pass short.
    pub fn budget_blown(&self) -> bool {
        self.pass.blown
    }

    /// How the exact pass was built: fresh, or in a carried manager.
    pub fn pass_origin(&self) -> PassOrigin {
        self.pass.origin
    }

    /// The exact pass's manager and memo, for
    /// [`ActivityModel::with_carry`] on the next version of the netlist;
    /// `None` when the budget blew, since a blown pass is never carried.
    pub fn into_carry(self) -> Option<ActivityCarry> {
        self.pass.into_carry()
    }
}

/// Analyzes a netlist with every primary input assumed uniform random —
/// the convention lint uses when no stimulus plan is in scope.
pub fn analyze_activity(netlist: &Netlist, opts: &ActivityOptions) -> ActivityReport {
    analyze_activity_with_plan(netlist, &StimulusPlan::new(0), opts)
}

/// Analyzes a netlist with input statistics drawn from a stimulus plan.
/// Inputs the plan does not drive are assumed uniform random.
///
/// This is the [`ActivityModel`] forced over every net, plus static
/// timing, glitch estimates and per-cone summaries.
pub fn analyze_activity_with_plan(
    netlist: &Netlist,
    plan: &StimulusPlan,
    opts: &ActivityOptions,
) -> ActivityReport {
    // 1–2. Sources, the exact pass and the settled seeds.
    let mut model = ActivityModel::new(netlist, plan, opts);

    // 3. Every net, in id order: the miters allocate in that order, which
    //    fixes `bdd_nodes`.
    for (id, _) in netlist.nets() {
        model.net(id);
    }
    let bdd_nodes = model.bdd_nodes();
    let budget_blown = model.budget_blown();
    let nets: Vec<NetActivity> = model
        .nets
        .into_iter()
        .map(|n| n.expect("every net forced above"))
        .collect();
    let exact_nets = nets.iter().filter(|n| n.exact).count();

    // 4. Static timing for arrival windows and the glitch estimate.
    let lib = TechLibrary::generic_250nm();
    let period = opts
        .clock_period
        .unwrap_or_else(|| OperatingConditions::default().clock_period());
    let timing = oiso_timing::analyze(&lib, netlist, period);
    let arrival_ns: Vec<f64> = timing.arrival.iter().map(|t| t.as_ns()).collect();
    let period_ns = period.as_ns().max(1e-9);

    let density_of = |nets: &[NetActivity], id: NetId| -> f64 {
        nets[id.index()].bits.iter().map(|b| b.d).sum()
    };
    let mut glitch = vec![0.0f64; netlist.num_cells()];
    for (cid, cell) in netlist.cells() {
        if cell.kind().is_register() || cell.inputs().is_empty() {
            continue; // edge-triggered outputs do not glitch
        }
        let arrivals = cell.inputs().iter().map(|n| arrival_ns[n.index()]);
        let latest = arrivals.clone().fold(f64::MIN, f64::max);
        let earliest = arrivals.fold(f64::MAX, f64::min);
        let window = (latest - earliest).max(0.0);
        let input_density: f64 = cell
            .inputs()
            .iter()
            .map(|&n| density_of(&nets, n))
            .sum();
        glitch[cid.index()] = window / period_ns * input_density;
    }

    // 5. Cone summaries for every isolation candidate.
    let cones = netlist
        .arithmetic_cells()
        .map(|cid| {
            let cell = netlist.cell(cid);
            ConeSummary {
                cell: cid,
                operand_density: cell.data_inputs().map(|n| density_of(&nets, n)).sum(),
                output_density: density_of(&nets, cell.output()),
                glitch: glitch[cid.index()],
            }
        })
        .collect();

    ActivityReport {
        nets,
        glitch,
        arrival_ns,
        clock_period_ns: period_ns,
        cones,
        exact_nets,
        bdd_nodes,
        budget_blown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oiso_netlist::{CellKind, NetlistBuilder};

    fn markov(p_one: f64, toggle_rate: f64) -> StimulusSpec {
        StimulusSpec::MarkovBits { p_one, toggle_rate }
    }

    /// Builds the small gate sample used by several tests.
    fn gate_netlist() -> (Netlist, NetId, NetId, NetId, NetId, NetId) {
        let mut b = NetlistBuilder::new("gates");
        let x = b.input("x", 1);
        let y = b.input("y", 1);
        let a = b.wire("a", 1);
        let o = b.wire("o", 1);
        let xo = b.wire("xo", 1);
        b.cell("and", CellKind::And, &[x, y], a).unwrap();
        b.cell("or", CellKind::Or, &[x, y], o).unwrap();
        b.cell("xor", CellKind::Xor, &[x, y], xo).unwrap();
        for n in [a, o, xo] {
            b.mark_output(n);
        }
        (b.build().unwrap(), x, y, a, o, xo)
    }

    #[test]
    fn pair_model_matches_exact_enumeration_on_gates() {
        // The algebraic estimator enumerates the exact joint transition
        // distribution for cones of ≤ 8 inputs (`propagate_fn`), under the
        // same per-source pair model — the BDD pass must agree closely.
        let (n, x, y, a, o, xo) = gate_netlist();
        let plan = StimulusPlan::new(1)
            .drive("x", markov(0.3, 0.2))
            .drive("y", markov(0.7, 0.4));
        let report = analyze_activity_with_plan(&n, &plan, &ActivityOptions::default());
        let mut input_stats = HashMap::new();
        input_stats.insert(x, spec_stats(&markov(0.3, 0.2), 1));
        input_stats.insert(y, spec_stats(&markov(0.7, 0.4), 1));
        let exact = propagate(&n, &input_stats);
        for net in [a, o, xo] {
            assert!(report.net(net).exact, "net should be BDD-covered");
            assert!(
                (report.density(net) - exact.toggle_rate(net)).abs() < 1e-9,
                "density mismatch on {net:?}: bdd {} vs enumeration {}",
                report.density(net),
                exact.toggle_rate(net)
            );
            assert!(
                (report.prob(net) - exact.mean_p(net)).abs() < 1e-9,
                "probability mismatch on {net:?}"
            );
        }
        // Spot-check the known closed forms at these statistics.
        assert!((report.prob(a) - 0.3 * 0.7).abs() < 1e-12);
        assert!((report.prob(o) - (1.0 - 0.7 * 0.3)).abs() < 1e-12);
    }

    #[test]
    fn buffer_density_equals_source_density() {
        let mut b = NetlistBuilder::new("buf");
        let x = b.input("x", 4);
        let q = b.wire("q", 4);
        b.cell("buf", CellKind::Buf, &[x], q).unwrap();
        b.mark_output(q);
        let n = b.build().unwrap();
        let plan = StimulusPlan::new(1).drive("x", markov(0.4, 0.3));
        let report = analyze_activity_with_plan(&n, &plan, &ActivityOptions::default());
        assert!((report.density(q) - 4.0 * 0.3).abs() < 1e-12);
        assert!((report.prob(q) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn budget_blow_falls_back_to_algebraic_values() {
        let mut b = NetlistBuilder::new("wide");
        let x = b.input("x", 16);
        let y = b.input("y", 16);
        let s = b.wire("s", 16);
        b.cell("add", CellKind::Add, &[x, y], s).unwrap();
        b.mark_output(s);
        let n = b.build().unwrap();
        let opts = ActivityOptions {
            node_budget: 64, // sources alone nearly exhaust this
            ..ActivityOptions::default()
        };
        let report = analyze_activity(&n, &opts);
        assert!(report.budget_blown);
        assert!(!report.net(s).exact);
        // The fallback still produces sane statistics.
        assert!(report.density(s) > 0.0);
        let full = analyze_activity(&n, &ActivityOptions::default());
        assert!(!full.budget_blown, "default budget covers a 16-bit adder");
        assert!(full.net(s).exact);
    }

    #[test]
    fn gated_register_survives_a_budget_blown_between_its_cones() {
        // `r`'s enable cone fits the budget but the adder feeding its data
        // does not, so `r` is gated on `en`; a budget blown later in phase
        // B then drops `en`'s functions. The enable probability must fall
        // back to the algebraic estimate instead of panicking.
        let mut b = NetlistBuilder::new("gated");
        let e1 = b.input("e1", 1);
        let e2 = b.input("e2", 1);
        let x = b.input("x", 16);
        let y = b.input("y", 16);
        let en = b.wire("en", 1);
        let s = b.wire("s", 16);
        let q = b.wire("q", 16);
        b.cell("and", CellKind::And, &[e1, e2], en).unwrap();
        b.cell("add", CellKind::Add, &[x, y], s).unwrap();
        b.cell("r", CellKind::Reg { has_enable: true }, &[s, en], q)
            .unwrap();
        b.mark_output(q);
        let n = b.build().unwrap();
        let mut blown = 0;
        for node_budget in (50..=2_500).step_by(25) {
            let report = analyze_activity(
                &n,
                &ActivityOptions {
                    node_budget,
                    ..ActivityOptions::default()
                },
            );
            blown += usize::from(report.budget_blown);
            for (id, _) in n.nets() {
                for bit in &report.net(id).bits {
                    assert!(
                        (0.0..=1.0).contains(&bit.p),
                        "p out of range at {node_budget}"
                    );
                    assert!(bit.d.is_finite() && bit.d >= 0.0, "bad d at {node_budget}");
                }
            }
        }
        assert!(blown > 0, "the sweep must reach the blown-budget paths");
    }

    #[test]
    fn multiplier_becomes_a_pseudo_source() {
        let mut b = NetlistBuilder::new("mul");
        let x = b.input("x", 8);
        let y = b.input("y", 8);
        let p = b.wire("p", 8);
        let q = b.wire("q", 8);
        b.cell("mul", CellKind::Mul, &[x, y], p).unwrap();
        b.cell("inv", CellKind::Not, &[p], q).unwrap();
        b.mark_output(q);
        let n = b.build().unwrap();
        let report = analyze_activity(&n, &ActivityOptions::default());
        // The product is modeled as a fresh word-change source: covered by
        // the pass (so downstream nets stay exact) but not itself exact.
        assert!(!report.net(p).exact, "mul output is modeled, not derived");
        assert!(report.net(q).exact, "pseudo-source keeps downstream covered");
        assert!(report.net(x).exact, "sources are exact by definition");
        assert!(!report.budget_blown, "pseudo-sources are not a budget event");
        // Word-change model: uniform random operands change almost every
        // cycle, so each product bit approaches the d = 0.5 free rate.
        let d = report.density(p) / 8.0;
        assert!(d > 0.45 && d <= 0.5, "per-bit product density {d}");
        // The inverter preserves density bit for bit.
        assert!((report.density(q) - report.density(p)).abs() < 1e-9);
    }

    #[test]
    fn glitch_windows_follow_arrival_spread() {
        // g = (x + y) & z: the AND sees one input through an adder and one
        // directly, so its arrival window (and glitch) is positive, while
        // the adder's inputs both arrive at t=0.
        let mut b = NetlistBuilder::new("glitchy");
        let x = b.input("x", 8);
        let y = b.input("y", 8);
        let z = b.input("z", 8);
        let s = b.wire("s", 8);
        let g = b.wire("g", 8);
        b.cell("add", CellKind::Add, &[x, y], s).unwrap();
        b.cell("and", CellKind::And, &[s, z], g).unwrap();
        b.mark_output(g);
        let n = b.build().unwrap();
        let report = analyze_activity(&n, &ActivityOptions::default());
        let add = n.find_cell("add").unwrap();
        let and = n.find_cell("and").unwrap();
        assert_eq!(report.glitch(add), 0.0, "PI inputs arrive together");
        assert!(report.glitch(and) > 0.0, "skewed arrivals glitch");
        assert!(report.arrival_ns(s) > report.arrival_ns(x));
        assert_eq!(report.cones().len(), 1);
        assert!(report.cones()[0].operand_density > 0.0);
    }

    #[test]
    fn registers_are_lag_one_sources_with_fixpoint_stats() {
        let mut b = NetlistBuilder::new("pipe");
        let x = b.input("x", 8);
        let en = b.input("en", 1);
        let q = b.wire("q", 8);
        b.cell("r", CellKind::Reg { has_enable: true }, &[x, en], q)
            .unwrap();
        b.mark_output(q);
        let n = b.build().unwrap();
        let plan = StimulusPlan::new(1)
            .drive("x", StimulusSpec::UniformRandom)
            .drive("en", markov(0.25, 0.2));
        let report = analyze_activity_with_plan(&n, &plan, &ActivityOptions::default());
        // The enabled register resamples 25% of cycles: tr = 0.5 * 0.25.
        assert!((report.density(q) - 8.0 * 0.5 * 0.25).abs() < 1e-6);
        let r = n.find_cell("r").unwrap();
        assert_eq!(report.glitch(r), 0.0, "registers do not glitch");
    }

    #[test]
    fn expr_activity_tracks_net_statistics() {
        let (n, x, _, _, _, _) = gate_netlist();
        let plan = StimulusPlan::new(1)
            .drive("x", markov(0.3, 0.2))
            .drive("y", markov(0.7, 0.4));
        let report = analyze_activity_with_plan(&n, &plan, &ActivityOptions::default());
        let var = BoolExpr::var(Signal::bit0(x));
        let act = report.expr_activity(&var, 10_000);
        assert!(act.exact);
        assert!((act.p - 0.3).abs() < 1e-12);
        assert!((act.d - 0.2).abs() < 1e-12);
        // A contradiction never toggles.
        let contra = BoolExpr::and2(var.clone(), var.clone().not());
        let act = report.expr_activity(&contra, 10_000);
        assert_eq!(act.p, 0.0);
        assert_eq!(act.d, 0.0);
        // A forced fallback is labeled as such and stays bounded.
        let act = report.expr_activity(&var, 1);
        assert!(!act.exact);
        assert!((0.0..=1.0).contains(&act.p));
        assert!((0.0..=1.0).contains(&act.d));
    }

    #[test]
    fn constants_are_silent() {
        let mut b = NetlistBuilder::new("c");
        let x = b.input("x", 4);
        let k = b.wire("k", 4);
        let s = b.wire("s", 4);
        b.cell("konst", CellKind::Const { value: 5 }, &[], k).unwrap();
        b.cell("add", CellKind::Add, &[x, k], s).unwrap();
        b.mark_output(s);
        let n = b.build().unwrap();
        let report = analyze_activity(&n, &ActivityOptions::default());
        assert_eq!(report.density(k), 0.0);
        assert!((report.prob(k) - 0.5).abs() < 1e-12, "0b0101: two of four bits");
        assert!(report.density(s) > 0.0);
    }
}
