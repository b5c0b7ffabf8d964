//! Combinational + inductive-sequential equivalence check via BDD miters.
//!
//! The checker proves that an original netlist and its isolated counterpart
//! agree on every *observable*:
//!
//! * every bit of every primary output (settled combinational value), and
//! * every bit of every original stateful cell's **next state** — the value
//!   the cell would store at the clock edge.
//!
//! Current states are modeled as shared free variables: the net `"q"` of
//! the original and the net `"q"` of the transformed design read the
//! *same* state variable. Because both simulators reset all state to 0,
//! equal next states under an arbitrary shared current state is an
//! induction step — together with the equal reset base it yields full
//! sequential equivalence, cycle by cycle.
//!
//! Latches inserted by the transform (isolation banks) exist only on the
//! transformed side; their state variables are fresh and the proof holds
//! for *all* their values, which is exactly the right obligation: bank
//! contents must never be observable when the activation is low.
//!
//! An optional *assumption* restricts the check to input/state
//! combinations satisfying a [`BoolExpr`] over the original netlist's
//! signals. This is the `f_c → (out ≡ out')` obligation of the paper
//! verbatim: with `assumption = f_c` the checker tolerates transforms
//! that corrupt outputs while the activation is low.
//!
//! The check runs in two phases over one symbolic builder. Whenever the
//! original has an arithmetic cell, an *arithmetic cut-point* phase comes
//! first: every arithmetic cell the two netlists share by name becomes
//! free output variables guarded by a condition that implies operand
//! equality — the exact shape an isolation step produces, provable
//! without ever constructing a multiplier's exponential function. Only an
//! all-FALSE abstract miter counts; anything else falls back to the
//! concrete phase, the monolithic miter over the real functions, which
//! alone can produce counterexamples or exhaust the budget.
//!
//! Each phase builds both sides in a manager and variable table of its
//! own, over a fixed variable order, so a miter is a plain `xor` of two
//! handles in that manager: an observable bit whose two sides are the
//! same node costs nothing.

use crate::cex::{extract, Counterexample};
use crate::symb::{build_symbolic, within_bound, BudgetExceeded, Cuts, SymbolicNetlist, VarTable};
use oiso_boolex::{Bdd, BddRef, BoolExpr};
use oiso_netlist::{Cell, CellKind, Netlist};
use std::time::Instant;

/// Tunables for one equivalence check.
#[derive(Debug, Clone)]
pub struct CheckConfig {
    /// Abort with [`Verdict::BudgetExceeded`] once the BDD manager exceeds
    /// this many nodes. Multipliers blow up exponentially in any variable
    /// order; the budget turns a hang into a clean "fall back to
    /// simulation" signal.
    pub node_budget: usize,
    /// Optional constraint over the **original** netlist's signals; the
    /// miters are conjoined with it, so disagreements outside the assumed
    /// region are ignored.
    pub assumption: Option<BoolExpr>,
    /// Optional wall deadline: past it, the check aborts at the next
    /// cooperative point with [`Verdict::BudgetExceeded`] — the same
    /// degradation path as node exhaustion, so a run budget never turns a
    /// slow symbolic proof into a hang.
    pub deadline: Option<Instant>,
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig {
            node_budget: 200_000,
            assumption: None,
            deadline: None,
        }
    }
}

/// Engine counters from one equivalence check.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckStats {
    /// Always 0: the manager's variable order is fixed, so it never
    /// reorders. Kept because existing reports still read the field.
    pub reordered: usize,
    /// High-water mark of allocated nodes over the whole check.
    pub peak_nodes: usize,
    /// True when the arithmetic cut-point phase proved the pair, so the
    /// concrete phase never ran.
    pub cut_proved: bool,
}

/// Outcome of [`check_equivalence`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Every observable bit agrees (under the assumption, if any).
    Equivalent {
        /// Number of observable bits proved equal.
        observables: usize,
    },
    /// A reachable disagreement, with a concrete witness.
    NotEquivalent(Counterexample),
    /// The node budget was exhausted before a verdict.
    BudgetExceeded {
        /// Node count when the check gave up.
        nodes: usize,
    },
}

impl Verdict {
    /// True for [`Verdict::Equivalent`].
    pub fn is_equivalent(&self) -> bool {
        matches!(self, Verdict::Equivalent { .. })
    }
}

/// Interprets `expr` (over `netlist`'s signal space) on the symbolic nets.
fn expr_to_bdd(bdd: &mut Bdd, sym: &SymbolicNetlist, expr: &BoolExpr) -> BddRef {
    match expr {
        BoolExpr::Const(b) => {
            if *b {
                BddRef::TRUE
            } else {
                BddRef::FALSE
            }
        }
        BoolExpr::Var(sig) => sym.net_bits(sig.net)[sig.bit as usize],
        BoolExpr::Not(inner) => {
            let f = expr_to_bdd(bdd, sym, inner);
            bdd.not(f)
        }
        BoolExpr::And(terms) => terms.iter().fold(BddRef::TRUE, |acc, t| {
            let f = expr_to_bdd(bdd, sym, t);
            bdd.and(acc, f)
        }),
        BoolExpr::Or(terms) => terms.iter().fold(BddRef::FALSE, |acc, t| {
            let f = expr_to_bdd(bdd, sym, t);
            bdd.or(acc, f)
        }),
    }
}

/// The bits a stateful cell would store at the next clock edge.
fn next_state_bits(
    bdd: &mut Bdd,
    table: &VarTable,
    sym: &SymbolicNetlist,
    netlist: &Netlist,
    cell: &Cell,
) -> Vec<BddRef> {
    let out = netlist.net(cell.output());
    match cell.kind() {
        CellKind::Reg { has_enable } => {
            let d = sym.net_bits(cell.inputs()[0]).to_vec();
            if !has_enable {
                return d;
            }
            let en = sym.net_bits(cell.inputs()[1])[0];
            let q = table.bits(bdd, out.name(), out.width());
            d.into_iter()
                .zip(q)
                .map(|(d, q)| bdd.ite(en, d, q))
                .collect()
        }
        // A latch's settled output *is* its next state: transparent when
        // enabled, held otherwise — and build_symbolic already encoded
        // exactly that.
        CellKind::Latch => sym.net_bits(cell.output()).to_vec(),
        _ => unreachable!("next_state_bits on combinational cell"),
    }
}

/// The phases of one check, in the order [`check_equivalence`] runs them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    /// Arithmetic cells abstracted into cut points (see
    /// [`Cuts`](crate::symb::Cuts)); conclusive only when every miter is
    /// FALSE.
    Cut,
    /// The monolithic miter over the real cell functions.
    Concrete,
}

/// Proves (or refutes) that `transformed` is observably equivalent to
/// `original`, and reports the engine counters ([`CheckStats`]) the run
/// produced.
///
/// Observables are matched **by net name**: every primary output of the
/// original and the next state of every original stateful cell must exist
/// under the same name on the transformed side — which the isolation
/// transform guarantees, since it only splices logic *in front of* operand
/// ports.
///
/// # Panics
///
/// Panics if an observable net of the original has no counterpart of the
/// same name and role in `transformed` — that is structural breakage well
/// beyond a wrong activation function, not a property this checker reports
/// with a vector.
pub fn check_equivalence(
    original: &Netlist,
    transformed: &Netlist,
    config: &CheckConfig,
) -> (Verdict, CheckStats) {
    check_from(Phase::Cut, original, transformed, config)
}

/// [`check_equivalence`] starting at phase `first`. The cut phase runs
/// only when the original has an arithmetic cell; starting at
/// [`Phase::Concrete`] pins a check to the concrete phase.
pub(crate) fn check_from(
    first: Phase,
    original: &Netlist,
    transformed: &Netlist,
    config: &CheckConfig,
) -> (Verdict, CheckStats) {
    let mut stats = CheckStats::default();
    let has_arithmetic = original
        .cells()
        .any(|(_, cell)| cell.kind().is_arithmetic());
    if first == Phase::Cut && has_arithmetic {
        let (verdict, peak) = run_phase(Phase::Cut, original, transformed, config);
        stats.peak_nodes = peak;
        if let Some(v) = verdict {
            stats.cut_proved = true;
            return (v, stats);
        }
    }
    let (verdict, peak) = run_phase(Phase::Concrete, original, transformed, config);
    stats.peak_nodes = stats.peak_nodes.max(peak);
    (verdict.expect("the concrete phase always concludes"), stats)
}

/// Runs one phase in a manager and table of its own, returning its
/// verdict and peak node count. The cut phase concludes only with
/// [`Verdict::Equivalent`]: a non-FALSE abstract miter may be an artifact
/// and is never reported as a counterexample, and its exhaustion is not
/// the concrete phase's.
fn run_phase(
    phase: Phase,
    original: &Netlist,
    transformed: &Netlist,
    config: &CheckConfig,
) -> (Option<Verdict>, usize) {
    let table = VarTable::for_pair(original, transformed, phase == Phase::Cut);
    let mut bdd = Bdd::with_order(table.order());
    let compared = miter_pair(&mut bdd, &table, original, transformed, config, phase);
    let verdict = match (compared, phase) {
        (Ok(Compared::Equivalent { observables }), _) => Some(Verdict::Equivalent { observables }),
        (_, Phase::Cut) => None,
        (Err(e), Phase::Concrete) => Some(Verdict::BudgetExceeded { nodes: e.nodes }),
        (Ok(Compared::Diff { miter, label }), Phase::Concrete) => {
            let cex = extract(&bdd, &table, miter, &label)
                .expect("non-FALSE miter must have a satisfying path");
            Some(Verdict::NotEquivalent(cex))
        }
    };
    (verdict, bdd.peak_nodes())
}

/// Outcome of comparing every observable bit of a pair of symbolic builds.
enum Compared {
    /// All miters FALSE.
    Equivalent { observables: usize },
    /// First non-FALSE miter, with its observable's label. Whether this is
    /// a real disagreement or an abstraction artifact is the caller's
    /// business.
    Diff { miter: BddRef, label: String },
}

/// Builds both sides of the pair in `bdd` — cuts minted on the original
/// and matched on the transformed side in the cut phase — and compares
/// every primary-output bit and every next-state bit, in deterministic
/// order: each bit's miter is `assume · (o ⊕ t)`, built in place, and the
/// first non-FALSE one is returned.
fn miter_pair(
    bdd: &mut Bdd,
    table: &VarTable,
    original: &Netlist,
    transformed: &Netlist,
    config: &CheckConfig,
    phase: Phase,
) -> Result<Compared, BudgetExceeded> {
    let cut = phase == Phase::Cut;
    let mode = if cut { Cuts::Mint } else { Cuts::Off };
    let (sym_o, minted) = build_symbolic(bdd, table, original, config, mode)?;
    let mode = if cut { Cuts::Match(&minted) } else { Cuts::Off };
    let (sym_t, _) = build_symbolic(bdd, table, transformed, config, mode)?;
    let assume = match &config.assumption {
        Some(expr) => expr_to_bdd(bdd, &sym_o, expr),
        None => BddRef::TRUE,
    };
    let mut observables = 0usize;
    let mut check_bits = |bdd: &mut Bdd, o: &[BddRef], t: &[BddRef], label: &str| {
        for (b, (&ob, &tb)) in o.iter().zip(t).enumerate() {
            let diff = bdd.xor(ob, tb);
            let miter = bdd.and(assume, diff);
            if miter != BddRef::FALSE {
                return Ok(Some(Compared::Diff {
                    miter,
                    label: format!("{label}[{b}]"),
                }));
            }
            observables += 1;
            within_bound(bdd, config)?;
        }
        Ok::<_, BudgetExceeded>(None)
    };

    for &po in original.primary_outputs() {
        let name = original.net(po).name();
        let other = transformed
            .find_net(name)
            .unwrap_or_else(|| panic!("primary output `{name}` missing from transformed netlist"));
        let o_bits = sym_o.net_bits(po).to_vec();
        let t_bits = sym_t.net_bits(other).to_vec();
        if let Some(v) = check_bits(bdd, &o_bits, &t_bits, name)? {
            return Ok(v);
        }
    }
    for (_, cell) in original.cells() {
        if !cell.kind().is_stateful() {
            continue;
        }
        let name = original.net(cell.output()).name();
        let other_net = transformed
            .find_net(name)
            .unwrap_or_else(|| panic!("state net `{name}` missing from transformed netlist"));
        let other_cell = transformed
            .net(other_net)
            .driver()
            .map(|cid| transformed.cell(cid))
            .filter(|c| c.kind().is_stateful())
            .unwrap_or_else(|| panic!("net `{name}` lost its stateful driver in the transform"));
        let o_bits = next_state_bits(bdd, table, &sym_o, original, cell);
        let t_bits = next_state_bits(bdd, table, &sym_t, transformed, other_cell);
        if let Some(v) = check_bits(bdd, &o_bits, &t_bits, &format!("{name}'"))? {
            return Ok(v);
        }
    }
    Ok(Compared::Equivalent { observables })
}

#[cfg(test)]
mod tests {
    use super::*;
    use oiso_boolex::Signal;
    use oiso_netlist::{CellKind, NetId, NetlistBuilder};

    /// x + y into an enabled register feeding the PO; returns (netlist,
    /// gate-net id).
    fn gated_adder() -> (Netlist, NetId) {
        let mut b = NetlistBuilder::new("ga");
        let x = b.input("x", 6);
        let y = b.input("y", 6);
        let g = b.input("g", 1);
        let s = b.wire("s", 6);
        let q = b.wire("q", 6);
        b.cell("add", CellKind::Add, &[x, y], s).unwrap();
        b.cell("r", CellKind::Reg { has_enable: true }, &[s, g], q)
            .unwrap();
        b.mark_output(q);
        let n = b.build().unwrap();
        (n, g)
    }

    /// Same interface, but the adder is AND-masked by `act` (operand
    /// isolation by hand).
    fn masked_adder(act_from_g: bool) -> Netlist {
        let mut b = NetlistBuilder::new("ga_iso");
        let x = b.input("x", 6);
        let y = b.input("y", 6);
        let g = b.input("g", 1);
        let s = b.wire("s", 6);
        let q = b.wire("q", 6);
        let gm = b.wire("gm", 6);
        let xm = b.wire("xm", 6);
        let ym = b.wire("ym", 6);
        let mask_src: Vec<NetId> = (0..6).map(|_| g).collect();
        b.cell("rep", CellKind::Concat, &mask_src, gm).unwrap();
        b.cell("mx", CellKind::And, &[x, gm], xm).unwrap();
        b.cell("my", CellKind::And, &[y, gm], ym).unwrap();
        b.cell("add", CellKind::Add, &[xm, ym], s).unwrap();
        let ins: Vec<NetId> = if act_from_g { vec![s, g] } else { vec![s] };
        let kind = CellKind::Reg {
            has_enable: act_from_g,
        };
        b.cell("r", kind, &ins, q).unwrap();
        b.mark_output(q);
        b.build().unwrap()
    }

    #[test]
    fn identical_netlists_are_equivalent() {
        let (n, _) = gated_adder();
        let v = check_equivalence(&n, &n, &CheckConfig::default()).0;
        assert!(matches!(v, Verdict::Equivalent { observables: 12 }));
    }

    #[test]
    fn budget_just_above_the_peak_suffices() {
        // Miters are XORed in the check's own manager, so the budget is
        // debited for table nodes only: a second run whose budget sits
        // just above the first run's peak proves the same pair.
        let (n, _) = gated_adder();
        for first in [Phase::Cut, Phase::Concrete] {
            let generous = CheckConfig::default();
            let (v, stats) = check_from(first, &n, &n, &generous);
            assert!(matches!(v, Verdict::Equivalent { observables: 12 }), "got {v:?}");
            let tight = CheckConfig {
                node_budget: stats.peak_nodes + 1,
                ..generous
            };
            let (v, again) = check_from(first, &n, &n, &tight);
            assert!(
                matches!(v, Verdict::Equivalent { observables: 12 }),
                "from {first:?}, budget {}: got {v:?}",
                tight.node_budget
            );
            assert_eq!(again.peak_nodes, stats.peak_nodes);
        }
    }

    #[test]
    fn hand_isolated_adder_is_equivalent() {
        // Masking the operands with the register enable never changes what
        // the register stores: when g = 0 the register holds anyway.
        let (orig, _) = gated_adder();
        let iso = masked_adder(true);
        let v = check_equivalence(&orig, &iso, &CheckConfig::default()).0;
        assert!(v.is_equivalent(), "got {v:?}");
    }

    #[test]
    fn broken_isolation_yields_replayable_counterexample() {
        // Dropping the register enable on the masked side makes the masked
        // sum observable while g = 0.
        let (orig, _) = gated_adder();
        let broken = masked_adder(false);
        let v = check_equivalence(&orig, &broken, &CheckConfig::default()).0;
        let Verdict::NotEquivalent(cex) = v else {
            panic!("expected a counterexample, got {v:?}");
        };
        assert!(cex.observable.starts_with("q'"), "{}", cex.observable);
        // The witness must disagree concretely on replay.
        let vector = cex.to_vector();
        let o = oiso_sim::replay_vector(&orig, &vector);
        let t = oiso_sim::replay_vector(&broken, &vector);
        assert_ne!(o.next_state("q"), t.next_state("q"));
    }

    #[test]
    fn assumption_restricts_the_check() {
        // The broken pair above IS equivalent whenever g = 1.
        let (orig, g) = gated_adder();
        let broken = masked_adder(false);
        let config = CheckConfig {
            assumption: Some(BoolExpr::var(Signal::bit0(g))),
            ..CheckConfig::default()
        };
        let v = check_equivalence(&orig, &broken, &config).0;
        assert!(v.is_equivalent(), "got {v:?}");
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        let mut b = NetlistBuilder::new("wide");
        let x = b.input("x", 14);
        let y = b.input("y", 14);
        let p = b.wire("p", 14);
        b.cell("mul", CellKind::Mul, &[x, y], p).unwrap();
        b.mark_output(p);
        let n = b.build().unwrap();
        let config = CheckConfig {
            node_budget: 2_000,
            ..CheckConfig::default()
        };
        assert!(matches!(
            check_from(Phase::Concrete, &n, &n, &config).0,
            Verdict::BudgetExceeded { .. }
        ));
    }

    #[test]
    fn arithmetic_cuts_prove_wide_multipliers_within_budget() {
        // Same pair and node budget as `budget_exhaustion_is_reported`:
        // with the cut phase on (the default), the matched multiplier is
        // never built and the proof fits in a tiny table.
        let mut b = NetlistBuilder::new("wide");
        let x = b.input("x", 14);
        let y = b.input("y", 14);
        let p = b.wire("p", 14);
        b.cell("mul", CellKind::Mul, &[x, y], p).unwrap();
        b.mark_output(p);
        let n = b.build().unwrap();
        let config = CheckConfig {
            node_budget: 2_000,
            ..CheckConfig::default()
        };
        let v = check_equivalence(&n, &n, &config).0;
        assert!(matches!(v, Verdict::Equivalent { observables: 14 }), "got {v:?}");
    }

    #[test]
    fn cut_proof_covers_masked_multiplier_isolation() {
        // A 16-bit multiplier behind an act-enabled register: monolithic
        // miters are exponential here, but the cut abstraction proves the
        // isolation from `act → operands equal` alone.
        let build = |masked: bool| {
            let mut b = NetlistBuilder::new("mi");
            let x = b.input("x", 16);
            let y = b.input("y", 16);
            let g = b.input("g", 1);
            let p = b.wire("p", 16);
            let q = b.wire("q", 16);
            let (mx, my) = if masked {
                let gm = b.wire("gm", 16);
                let xm = b.wire("xm", 16);
                let ym = b.wire("ym", 16);
                let rep: Vec<NetId> = (0..16).map(|_| g).collect();
                b.cell("rep", CellKind::Concat, &rep, gm).unwrap();
                b.cell("mx", CellKind::And, &[x, gm], xm).unwrap();
                b.cell("my", CellKind::And, &[y, gm], ym).unwrap();
                (xm, ym)
            } else {
                (x, y)
            };
            b.cell("mul", CellKind::Mul, &[mx, my], p).unwrap();
            b.cell("r", CellKind::Reg { has_enable: true }, &[p, g], q)
                .unwrap();
            b.mark_output(q);
            b.build().unwrap()
        };
        let orig = build(false);
        let iso = build(true);
        let config = CheckConfig {
            node_budget: 10_000,
            ..CheckConfig::default()
        };
        let v = check_equivalence(&orig, &iso, &config).0;
        assert!(v.is_equivalent(), "got {v:?}");
    }

    /// A 16-bit cascade: the candidate `s1 = a + b` feeds `s2 = s1 * c`,
    /// `s3 = s2 - d` and `s4 = s3 + e`, then a `sel` mux into a
    /// `g`-enabled register.
    fn cascade() -> Netlist {
        let mut b = NetlistBuilder::new("cascade");
        let [a, bb, c, d, e, f] = ["a", "b", "c", "d", "e", "f"].map(|n| b.input(n, 16));
        let sel = b.input("sel", 1);
        let g = b.input("g", 1);
        let [s1, s2, s3, s4, m, q] = ["s1", "s2", "s3", "s4", "m", "q"].map(|n| b.wire(n, 16));
        b.cell("add1", CellKind::Add, &[a, bb], s1).unwrap();
        b.cell("mul2", CellKind::Mul, &[s1, c], s2).unwrap();
        b.cell("sub3", CellKind::Sub, &[s2, d], s3).unwrap();
        b.cell("add4", CellKind::Add, &[s3, e], s4).unwrap();
        b.cell("mux", CellKind::Mux, &[sel, f, s4], m).unwrap();
        b.cell("r", CellKind::Reg { has_enable: true }, &[m, g], q)
            .unwrap();
        b.mark_output(q);
        b.build().unwrap()
    }

    /// Verifies the one-step plan isolating `add1` in `n` under
    /// `activation` (the derived one when `None`).
    fn isolate_add1(
        n: &Netlist,
        activation: Option<BoolExpr>,
        node_budget: usize,
    ) -> crate::CandidateCheck {
        use oiso_core::{derive_activation_functions, ActivationConfig, IsolationStyle};
        let add1 = n.find_cell("add1").unwrap();
        let activation = activation.unwrap_or_else(|| {
            derive_activation_functions(n, &ActivationConfig::default())[&add1].clone()
        });
        let config = crate::VerifyConfig {
            check: CheckConfig {
                node_budget,
                ..CheckConfig::default()
            },
            ..crate::VerifyConfig::default()
        };
        let plan = [(add1, activation, IsolationStyle::And)];
        let (_, mut checks) = crate::verify_isolation_plan(n, &plan, &config).unwrap();
        checks.remove(0)
    }

    #[test]
    fn cascade_proves_in_the_cut_phase() {
        // Each downstream cut reuses its upstream cut's guard, so the
        // proof peaks near 2.6k nodes. XOR-ing every operand word instead
        // peaked near 50k, past this budget, and the multiplier puts the
        // concrete phase far past it too: that rule could only sample.
        let check = isolate_add1(&cascade(), None, 10_000);
        assert!(
            matches!(
                check.outcome,
                crate::VerifyOutcome::Verified(crate::Proof::Bdd { .. })
            ),
            "got {:?}",
            check.outcome
        );
        assert!(check.stats.cut_proved);
        assert!(check.stats.peak_nodes <= 10_000, "{:?}", check.stats);
    }

    #[test]
    fn sabotaged_cascade_is_refuted_with_a_confirmed_witness() {
        let check = isolate_add1(&cascade(), Some(BoolExpr::FALSE), 10_000);
        let crate::VerifyOutcome::Violation { replay, .. } = &check.outcome else {
            panic!("expected a violation, got {:?}", check.outcome);
        };
        assert!(
            matches!(replay, crate::ReplayVerdict::Confirmed { .. }),
            "witness must reproduce concretely: {replay:?}"
        );
        assert!(!check.stats.cut_proved);
    }

    #[test]
    fn a_cut_rewired_to_another_guarded_cut_is_refuted() {
        // Original: d = (x + y) + w. Transformed: the isolated `s2 = x - z`
        // (guarded, since its operands are masked by g) drives `d` in
        // place of `s1`. The port of `d` is the output of a guarded cut,
        // but the original side reads `s1`'s variables, not `s2`'s, so the
        // guard of `s2` must not stand in for the operand equality.
        let build = |rewired: bool| {
            let mut b = NetlistBuilder::new("rewire");
            let [x, y, z, w] = ["x", "y", "z", "w"].map(|n| b.input(n, 8));
            let g = b.input("g", 1);
            let [s1, s2, d, q1, q2, q3] = ["s1", "s2", "d", "q1", "q2", "q3"].map(|n| b.wire(n, 8));
            let (xs, zs) = if rewired {
                let [gm, xm, zm] = ["gm", "xm", "zm"].map(|n| b.wire(n, 8));
                let rep: Vec<NetId> = (0..8).map(|_| g).collect();
                b.cell("rep", CellKind::Concat, &rep, gm).unwrap();
                b.cell("mx", CellKind::And, &[x, gm], xm).unwrap();
                b.cell("mz", CellKind::And, &[z, gm], zm).unwrap();
                (xm, zm)
            } else {
                (x, z)
            };
            b.cell("add1", CellKind::Add, &[x, y], s1).unwrap();
            b.cell("sub2", CellKind::Sub, &[xs, zs], s2).unwrap();
            let from = if rewired { s2 } else { s1 };
            b.cell("add3", CellKind::Add, &[from, w], d).unwrap();
            for (i, (src, q)) in [(s1, q1), (s2, q2), (d, q3)].into_iter().enumerate() {
                let kind = CellKind::Reg { has_enable: true };
                b.cell(format!("r{i}"), kind, &[src, g], q).unwrap();
                b.mark_output(q);
            }
            b.build().unwrap()
        };
        let (orig, rewired) = (build(false), build(true));
        let (v, stats) = check_equivalence(&orig, &rewired, &CheckConfig::default());
        let Verdict::NotEquivalent(cex) = v else {
            panic!("expected a counterexample, got {v:?}");
        };
        assert!(!stats.cut_proved);
        assert!(cex.observable.starts_with("q3'"), "{}", cex.observable);
    }

    #[test]
    fn expired_deadline_reports_budget_exceeded() {
        // Tiny design, huge node budget — only the deadline can trip.
        let (n, _) = gated_adder();
        let config = CheckConfig {
            deadline: Some(std::time::Instant::now() - std::time::Duration::from_secs(1)),
            ..CheckConfig::default()
        };
        assert!(matches!(
            check_equivalence(&n, &n, &config).0,
            Verdict::BudgetExceeded { .. }
        ));
    }

    #[test]
    fn plain_register_next_state_compared() {
        // Registers without enables: next state is simply d, so a detour
        // through an inverter pair stays equivalent while a single inverter
        // is caught.
        let build = |invert: bool| {
            let mut b = NetlistBuilder::new(if invert { "inv" } else { "id" });
            let x = b.input("x", 4);
            let q = b.wire("q", 4);
            if invert {
                let t = b.wire("t", 4);
                b.cell("n1", CellKind::Not, &[x], t).unwrap();
                b.cell("r", CellKind::Reg { has_enable: false }, &[t], q)
                    .unwrap();
            } else {
                b.cell("r", CellKind::Reg { has_enable: false }, &[x], q)
                    .unwrap();
            }
            b.mark_output(q);
            b.build().unwrap()
        };
        let a = build(false);
        let c = build(true);
        let v = check_equivalence(&a, &c, &CheckConfig::default()).0;
        assert!(matches!(v, Verdict::NotEquivalent(_)), "got {v:?}");
    }
}
