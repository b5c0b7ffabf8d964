//! Combinational + inductive-sequential equivalence check via BDD miters.
//!
//! The checker proves that an original netlist and its isolated counterpart
//! agree on every *observable*:
//!
//! * every bit of every primary output (settled combinational value), and
//! * every bit of every original stateful cell's **next state** — the value
//!   the cell would store at the clock edge.
//!
//! Current states are modeled as shared free variables (see
//! [`VarTable`]): the net `"q"` of the original and the
//! net `"q"` of the transformed design read the *same* state variable.
//! Because both simulators reset all state to 0, equal next states under an
//! arbitrary shared current state is an induction step — together with the
//! equal reset base it yields full sequential equivalence, cycle by cycle.
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
//! The check runs in two phases. First an *arithmetic cut-point* phase
//! ([`CheckConfig::arithmetic_cuts`]) abstracts every arithmetic cell the
//! two netlists share by name into free output variables guarded by an
//! operand-equality condition — the exact shape an isolation step
//! produces, provable without ever constructing a multiplier's
//! exponential function. Only when that phase is inconclusive does the
//! checker fall back to the monolithic miter over the real functions
//! (which alone can produce counterexamples or exhaust the budget).
//!
//! Each phase builds both sides in one manager over a fixed variable
//! order, so a miter is a plain `xor` of two handles in that manager:
//! an observable bit whose two sides are the same node costs nothing.

use crate::cex::{extract, Counterexample};
use crate::symb::{build_symbolic_bounded, build_symbolic_with_cuts, SymbolicNetlist, VarTable};
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
    /// Tries an *arithmetic cut-point* proof before the monolithic miter
    /// (default true). The pre/post netlists of an isolation step share
    /// every arithmetic cell by instance name, so each matched pair is
    /// modeled as one free output vector guarded by an operand-equality
    /// condition (see [`build_symbolic_with_cuts`]) — the checker proves
    /// the shallow logic *around* a multiplier without ever building its
    /// exponential function. Sound for `Equivalent`; any non-FALSE
    /// abstract miter silently falls back to the concrete check, which
    /// alone may report counterexamples or exhaust the budget.
    pub arithmetic_cuts: bool,
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig {
            node_budget: 200_000,
            assumption: None,
            deadline: None,
            arithmetic_cuts: true,
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
            (0..out.width())
                .map(|b| {
                    let q = table
                        .signal(out.name(), b)
                        .expect("state bit missing from var table");
                    let q = bdd.literal(q);
                    bdd.ite(en, d[b as usize], q)
                })
                .collect()
        }
        // A latch's settled output *is* its next state: transparent when
        // enabled, held otherwise — and build_symbolic already encoded
        // exactly that.
        CellKind::Latch => sym.net_bits(cell.output()).to_vec(),
        _ => unreachable!("next_state_bits on combinational cell"),
    }
}

/// Proves (or refutes) that `transformed` is observably equivalent to
/// `original`.
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
pub fn check_equivalence(original: &Netlist, transformed: &Netlist, config: &CheckConfig) -> Verdict {
    check_equivalence_with_stats(original, transformed, config).0
}

/// [`check_equivalence`] plus the engine counters ([`CheckStats`]) the
/// run produced — the peak allocated node count.
pub fn check_equivalence_with_stats(
    original: &Netlist,
    transformed: &Netlist,
    config: &CheckConfig,
) -> (Verdict, CheckStats) {
    let mut stats = CheckStats::default();
    let has_arithmetic = original
        .cells()
        .any(|(_, cell)| cell.kind().is_arithmetic());
    if config.arithmetic_cuts && has_arithmetic {
        let mut table = VarTable::for_pair_with_cuts(original, transformed);
        let mut bdd = Bdd::with_order(table.order());
        let verdict = run_abstract_check(&mut bdd, &mut table, original, transformed, config);
        stats.peak_nodes = bdd.peak_nodes();
        if let Some(v) = verdict {
            return (v, stats);
        }
    }
    let table = VarTable::for_pair(original, transformed);
    let mut bdd = Bdd::with_order(table.order());
    let verdict = run_check(&mut bdd, &table, original, transformed, config);
    stats.peak_nodes = stats.peak_nodes.max(bdd.peak_nodes());
    (verdict, stats)
}

/// Outcome of comparing every observable bit of a pair of symbolic builds.
enum Compared {
    /// All miters FALSE.
    Equivalent { observables: usize },
    /// Node budget or deadline exhausted mid-comparison.
    Budget { nodes: usize },
    /// First non-FALSE miter, with its observable's label. Whether this is
    /// a real disagreement or an abstraction artifact is the caller's
    /// business.
    Diff { miter: BddRef, label: String },
}

/// Compares every primary-output bit and every next-state bit of the pair,
/// in deterministic order: each bit's miter is `assume · (o ⊕ t)`, built
/// in place, and the first non-FALSE one is returned.
#[allow(clippy::too_many_arguments)] // both netlists and both symbolic builds
fn compare_observables(
    bdd: &mut Bdd,
    table: &VarTable,
    original: &Netlist,
    transformed: &Netlist,
    sym_o: &SymbolicNetlist,
    sym_t: &SymbolicNetlist,
    assume: BddRef,
    config: &CheckConfig,
) -> Compared {
    let mut observables = 0usize;
    let mut check_bits =
        |bdd: &mut Bdd, o: &[BddRef], t: &[BddRef], label: &str| -> Option<Compared> {
            for (b, (&ob, &tb)) in o.iter().zip(t).enumerate() {
                let diff = bdd.xor(ob, tb);
                let miter = bdd.and(assume, diff);
                if miter != BddRef::FALSE {
                    return Some(Compared::Diff {
                        miter,
                        label: format!("{label}[{b}]"),
                    });
                }
                observables += 1;
                let late = config.deadline.is_some_and(|d| Instant::now() >= d);
                if bdd.num_nodes() > config.node_budget || late {
                    return Some(Compared::Budget {
                        nodes: bdd.num_nodes(),
                    });
                }
            }
            None
        };

    for &po in original.primary_outputs() {
        let name = original.net(po).name();
        let other = transformed
            .find_net(name)
            .unwrap_or_else(|| panic!("primary output `{name}` missing from transformed netlist"));
        let o_bits = sym_o.net_bits(po).to_vec();
        let t_bits = sym_t.net_bits(other).to_vec();
        if let Some(v) = check_bits(bdd, &o_bits, &t_bits, name) {
            return v;
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
        let o_bits = next_state_bits(bdd, table, sym_o, original, cell);
        let t_bits = next_state_bits(bdd, table, sym_t, transformed, other_cell);
        if let Some(v) = check_bits(bdd, &o_bits, &t_bits, &format!("{name}'")) {
            return v;
        }
    }
    Compared::Equivalent { observables }
}

/// The cut-point phase: proves equivalence over the arithmetic-cut
/// abstraction, or returns `None` to fall back to the concrete check.
/// `None` covers every inconclusive outcome — a non-FALSE abstract miter
/// (possibly an artifact, never reported as a counterexample), budget or
/// deadline exhaustion, and the degenerate no-cuts build.
fn run_abstract_check(
    bdd: &mut Bdd,
    table: &mut VarTable,
    original: &Netlist,
    transformed: &Netlist,
    config: &CheckConfig,
) -> Option<Verdict> {
    let (sym_o, cuts) = build_symbolic_with_cuts(
        bdd,
        table,
        original,
        config.node_budget,
        config.deadline,
        None,
    )
    .ok()?;
    if cuts.is_empty() {
        return None;
    }
    let (sym_t, _) = build_symbolic_with_cuts(
        bdd,
        table,
        transformed,
        config.node_budget,
        config.deadline,
        Some(&cuts),
    )
    .ok()?;
    let assume = match &config.assumption {
        Some(expr) => expr_to_bdd(bdd, &sym_o, expr),
        None => BddRef::TRUE,
    };
    match compare_observables(
        bdd,
        table,
        original,
        transformed,
        &sym_o,
        &sym_t,
        assume,
        config,
    ) {
        Compared::Equivalent { observables } => Some(Verdict::Equivalent { observables }),
        Compared::Budget { .. } | Compared::Diff { .. } => None,
    }
}

/// The concrete phase: the monolithic miter over the real cell functions.
fn run_check(
    bdd: &mut Bdd,
    table: &VarTable,
    original: &Netlist,
    transformed: &Netlist,
    config: &CheckConfig,
) -> Verdict {
    let sym_o = match build_symbolic_bounded(bdd, table, original, config.node_budget, config.deadline) {
        Ok(s) => s,
        Err(e) => return Verdict::BudgetExceeded { nodes: e.nodes },
    };
    let sym_t = match build_symbolic_bounded(bdd, table, transformed, config.node_budget, config.deadline) {
        Ok(s) => s,
        Err(e) => return Verdict::BudgetExceeded { nodes: e.nodes },
    };
    let assume = match &config.assumption {
        Some(expr) => expr_to_bdd(bdd, &sym_o, expr),
        None => BddRef::TRUE,
    };
    match compare_observables(
        bdd,
        table,
        original,
        transformed,
        &sym_o,
        &sym_t,
        assume,
        config,
    ) {
        Compared::Equivalent { observables } => Verdict::Equivalent { observables },
        Compared::Budget { nodes } => Verdict::BudgetExceeded { nodes },
        Compared::Diff { miter, label } => {
            let cex = extract(bdd, table, miter, &label)
                .expect("non-FALSE miter must have a satisfying path");
            Verdict::NotEquivalent(cex)
        }
    }
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
        let v = check_equivalence(&n, &n, &CheckConfig::default());
        assert!(matches!(v, Verdict::Equivalent { observables: 12 }));
    }

    #[test]
    fn budget_just_above_the_peak_suffices() {
        // Miters are XORed in the check's own manager, so the budget is
        // debited for table nodes only: a second run whose budget sits
        // just above the first run's peak proves the same pair.
        let (n, _) = gated_adder();
        for arithmetic_cuts in [true, false] {
            let generous = CheckConfig {
                arithmetic_cuts,
                ..CheckConfig::default()
            };
            let (v, stats) = check_equivalence_with_stats(&n, &n, &generous);
            assert!(matches!(v, Verdict::Equivalent { observables: 12 }), "got {v:?}");
            let tight = CheckConfig {
                node_budget: stats.peak_nodes + 1,
                ..generous
            };
            let (v, again) = check_equivalence_with_stats(&n, &n, &tight);
            assert!(
                matches!(v, Verdict::Equivalent { observables: 12 }),
                "cuts {arithmetic_cuts}, budget {}: got {v:?}",
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
        let v = check_equivalence(&orig, &iso, &CheckConfig::default());
        assert!(v.is_equivalent(), "got {v:?}");
    }

    #[test]
    fn broken_isolation_yields_replayable_counterexample() {
        // Dropping the register enable on the masked side makes the masked
        // sum observable while g = 0.
        let (orig, _) = gated_adder();
        let broken = masked_adder(false);
        let v = check_equivalence(&orig, &broken, &CheckConfig::default());
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
        let v = check_equivalence(&orig, &broken, &config);
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
            arithmetic_cuts: false,
            ..CheckConfig::default()
        };
        assert!(matches!(
            check_equivalence(&n, &n, &config),
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
        let v = check_equivalence(&n, &n, &config);
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
        let v = check_equivalence(&orig, &iso, &config);
        assert!(v.is_equivalent(), "got {v:?}");
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
            check_equivalence(&n, &n, &config),
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
        let v = check_equivalence(&a, &c, &CheckConfig::default());
        assert!(matches!(v, Verdict::NotEquivalent(_)), "got {v:?}");
    }
}
