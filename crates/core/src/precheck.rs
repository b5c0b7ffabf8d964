//! Static pre-simulation soundness checks for isolation candidates.
//!
//! The paper derives activation functions by purely *static* backward
//! traversal (Section 3), yet Algorithm 1 pays a full simulation to score
//! every candidate — including candidates that static reasoning already
//! proves useless or unsound:
//!
//! * `f_c ≡ 1`: the module is always observable, so isolation banks are
//!   pure overhead (the savings term of Eq. 1 is identically zero).
//! * `f_c ≡ 0`: the module's result is never observed; it is dead logic
//!   that pruning, not isolation, should remove.
//! * Feedback: the activation cone reads a net inside the candidate's own
//!   combinational fanout, so synthesizing `AS` and wiring the banks
//!   would create a combinational cycle.
//!
//! [`precheck_candidate`] decides these three statically — feedback by
//! [`feedback_net`], the constant cases via a BDD under a node budget, so
//! pathological cones degrade to "inconclusive, simulate anyway" instead
//! of blowing up. The check runs serially in candidate order and depends
//! only on the netlist and the activation expression, so enabling it
//! never perturbs thread-count determinism. `oiso-lint` reuses the same
//! verdicts for its diagnostics.

use oiso_activity::{ActivityLookup, ActivityReport};
use oiso_boolex::{Bdd, BddRef, BoolExpr, NodeBudget};
use oiso_netlist::{transitive_fanout, CellId, NetId, Netlist};
use std::collections::HashSet;

/// BDD node budget used when the run's [`crate::RunBudget`] does not set
/// one. Activation cones are shallow control logic; anything this large
/// is pathological and simply falls back to dynamic scoring.
pub const DEFAULT_PRECHECK_NODE_BUDGET: usize = 50_000;

/// Why a candidate was dropped before simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PrecheckVerdict {
    /// `f_c ≡ 1`: always observable, isolation is pure overhead.
    ConstantTrue,
    /// `f_c ≡ 0`: never observable, the module is dead logic.
    ConstantFalse,
    /// The activation cone depends on the named net, which the candidate
    /// itself (or its combinational fanout) drives; isolating would tie a
    /// combinational loop.
    Feedback {
        /// Name of the net closing the loop.
        via: String,
    },
}

impl PrecheckVerdict {
    /// Human-readable skip reason, recorded like a panic payload in
    /// [`crate::SkippedCandidate::reason`].
    pub fn reason(&self) -> String {
        match self {
            PrecheckVerdict::ConstantTrue => {
                "static precheck: activation is constant 1 (isolation would be pure overhead)"
                    .to_string()
            }
            PrecheckVerdict::ConstantFalse => {
                "static precheck: activation is constant 0 (module output is never observed)"
                    .to_string()
            }
            PrecheckVerdict::Feedback { via } => format!(
                "static precheck: activation cone depends on net `{via}` driven by the \
                 candidate's own combinational fanout (isolation would create a cycle)"
            ),
        }
    }
}

/// Statically classifies a candidate's activation function, returning
/// `Some(verdict)` when the candidate is provably useless or unsound and
/// `None` when it must be scored dynamically.
///
/// The feedback check is purely structural; the constant checks build the
/// activation's BDD and give up (returning `None`) if it exceeds
/// `node_budget` nodes.
pub fn precheck_candidate(
    netlist: &Netlist,
    cell: CellId,
    activation: &BoolExpr,
    node_budget: usize,
) -> Option<PrecheckVerdict> {
    precheck_candidate_with_budget(netlist, cell, activation, &NodeBudget::new(node_budget))
}

/// [`precheck_candidate`] against a **shared** [`NodeBudget`] handle:
/// allocations made deciding this candidate are debited against the
/// caller's run-level budget instead of a fresh per-candidate ceiling,
/// so a whole plan's prechecks spend one allowance once.
pub fn precheck_candidate_with_budget(
    netlist: &Netlist,
    cell: CellId,
    activation: &BoolExpr,
    budget: &NodeBudget,
) -> Option<PrecheckVerdict> {
    // Feedback first: it is cheap, and a looping activation must never
    // reach the BDD path (the expression is fine, the wiring is not).
    if let Some(net) = feedback_net(netlist, cell, activation) {
        return Some(PrecheckVerdict::Feedback {
            via: netlist.net(net).name().to_string(),
        });
    }

    match constant_check_with_budget(activation, budget) {
        ConstCheck::Proved(Some(true)) => Some(PrecheckVerdict::ConstantTrue),
        ConstCheck::Proved(Some(false)) => Some(PrecheckVerdict::ConstantFalse),
        // Not constant, or too big to decide statically: simulate instead.
        ConstCheck::Proved(None) | ConstCheck::Undecided => None,
    }
}

/// The structural half of [`precheck_candidate`]: the first net of
/// `activation`'s support that `cell` or its combinational fanout drives
/// (registers break the path; transparent latches do not), or `None`.
///
/// The isolation transform synthesizes the activation into logic feeding
/// the candidate's operand banks, so an activation reading such a net
/// would close a combinational cycle. The optimizer's precheck, the plan
/// verifier and lint's OL006 all ask this one question.
pub fn feedback_net(netlist: &Netlist, cell: CellId, activation: &BoolExpr) -> Option<NetId> {
    let out = netlist.cell(cell).output();
    let mut fed_nets: HashSet<NetId> = HashSet::new();
    fed_nets.insert(out);
    for load in transitive_fanout(netlist, out, true) {
        // `transitive_fanout` includes the registers it stops at; a net
        // *behind* a register is a legal (registered) dependency, so only
        // combinational cone outputs count.
        if netlist.cell(load).kind().is_combinational() {
            fed_nets.insert(netlist.cell(load).output());
        }
    }
    activation
        .support()
        .into_iter()
        .map(|sig| sig.net)
        .find(|net| fed_nets.contains(net))
}

/// Outcome of the constant-activation decision, exposing whether the BDD
/// fit the node budget — [`precheck_candidate`] collapses `Undecided` into
/// "simulate anyway", but diagnostics (lint's OL003/OL004) want to know
/// when they are falling back to sampling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConstCheck {
    /// The BDD fit the budget: `Some(value)` for a semantic constant,
    /// `None` for a provably non-constant activation.
    Proved(Option<bool>),
    /// The BDD blew the budget; the query is undecided.
    Undecided,
}

/// Decides whether `activation` is semantically constant, under a BDD
/// node budget.
pub fn constant_check(activation: &BoolExpr, node_budget: usize) -> ConstCheck {
    constant_check_with_budget(activation, &NodeBudget::new(node_budget))
}

/// [`constant_check`] debiting a **shared** [`NodeBudget`] handle.
pub fn constant_check_with_budget(activation: &BoolExpr, budget: &NodeBudget) -> ConstCheck {
    // Syntactic constants are free; the BDD catches semantic ones
    // (`g | !g`) that `identify_candidates`' syntactic filter misses.
    if activation.is_const(true) {
        return ConstCheck::Proved(Some(true));
    }
    if activation.is_const(false) {
        return ConstCheck::Proved(Some(false));
    }
    if budget.exceeded() {
        // A shared handle may arrive already spent by earlier work.
        return ConstCheck::Undecided;
    }
    let mut bdd = Bdd::new();
    bdd.set_budget(budget.clone());
    let f = bdd.from_expr(activation);
    if budget.exceeded() {
        return ConstCheck::Undecided;
    }
    ConstCheck::Proved(if f == BddRef::TRUE {
        Some(true)
    } else if f == BddRef::FALSE {
        Some(false)
    } else {
        None
    })
}

/// Statically-estimated savings rank of one candidate:
///
/// `ĥ(c) = density(operands) × P(unobservable)`
///
/// where the operand density is the summed static transition density of
/// the candidate's data inputs and `P(unobservable) = 1 − Pr(f_c)` is the
/// probability the activation function is false. This is the shape of the
/// paper's Eq. 1 savings term with every dynamic quantity replaced by its
/// static estimate — good enough to *order* candidates so a binding
/// candidate cap evaluates the most promising ones first, never to accept
/// or reject them outright.
///
/// The activation's probability is derived on a BDD that debits the
/// **shared** [`NodeBudget`] handle, so one budget covers a whole
/// candidate list.
pub fn activity_rank_with_budget(
    report: &ActivityReport,
    netlist: &Netlist,
    cell: CellId,
    activation: &BoolExpr,
    budget: &NodeBudget,
) -> f64 {
    let mut report = report;
    activity_rank_by(&mut report, netlist, cell, activation, budget)
}

/// The rank formula of [`activity_rank_with_budget`] over any [`ActivityLookup`]:
/// a full report, or an [`oiso_activity::ActivityModel`] that derives
/// only the operand and activation-support nets asked for here. Both give
/// the same rank bit for bit.
pub fn activity_rank_by(
    activity: &mut impl ActivityLookup,
    netlist: &Netlist,
    cell: CellId,
    activation: &BoolExpr,
    budget: &NodeBudget,
) -> f64 {
    let operand_density: f64 = netlist
        .cell(cell)
        .data_inputs()
        .map(|n| activity.density(n))
        .sum();
    let p_active = activity.expr_activity_budgeted(activation, budget).p;
    operand_density * (1.0 - p_active).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oiso_boolex::Signal;
    use oiso_netlist::{CellKind, NetlistBuilder};

    /// Adder feeding two enabled registers; enable nets `g` and `gn`.
    fn adder_with_split_enables() -> (Netlist, CellId, Signal, Signal) {
        let mut b = NetlistBuilder::new("p");
        let a = b.input("a", 8);
        let c = b.input("c", 8);
        let g = b.input("g", 1);
        let gn = b.wire("gn", 1);
        let s = b.wire("s", 8);
        let q0 = b.wire("q0", 8);
        let q1 = b.wire("q1", 8);
        b.cell("inv", CellKind::Not, &[g], gn).unwrap();
        b.cell("add", CellKind::Add, &[a, c], s).unwrap();
        b.cell("r0", CellKind::Reg { has_enable: true }, &[s, g], q0)
            .unwrap();
        b.cell("r1", CellKind::Reg { has_enable: true }, &[s, gn], q1)
            .unwrap();
        b.mark_output(q0);
        b.mark_output(q1);
        let n = b.build().unwrap();
        let add = n.find_cell("add").unwrap();
        let sig_g = Signal { net: n.find_net("g").unwrap(), bit: 0 };
        let sig_gn = Signal { net: n.find_net("gn").unwrap(), bit: 0 };
        (n, add, sig_g, sig_gn)
    }

    #[test]
    fn semantically_constant_true_is_caught() {
        let (n, add, g, gn) = adder_with_split_enables();
        // `g | gn` is not syntactically constant but is a tautology once
        // the inverter's function is inlined: here we model the derived
        // activation as `g | !g` over the primary enable.
        let act = BoolExpr::or2(BoolExpr::var(g), BoolExpr::var(g).not());
        assert_eq!(
            precheck_candidate(&n, add, &act, 1_000),
            Some(PrecheckVerdict::ConstantTrue)
        );
        // The two-variable form `g | gn` is *not* constant over its own
        // support (the precheck sees independent variables), so it is
        // left for dynamic scoring.
        let act2 = BoolExpr::or2(BoolExpr::var(g), BoolExpr::var(gn));
        assert_eq!(precheck_candidate(&n, add, &act2, 1_000), None);
    }

    #[test]
    fn constant_false_is_caught() {
        let (n, add, g, _) = adder_with_split_enables();
        let act = BoolExpr::and2(BoolExpr::var(g), BoolExpr::var(g).not());
        assert_eq!(
            precheck_candidate(&n, add, &act, 1_000),
            Some(PrecheckVerdict::ConstantFalse)
        );
        assert!(act.is_const(false) || !act.is_const(true));
    }

    #[test]
    fn feedback_sees_through_gates_but_not_registers() {
        // The adder's sum reduces to a 1-bit flag that gates the register
        // it feeds; a second flag reads the *registered* copy.
        let mut b = NetlistBuilder::new("fb");
        let a = b.input("a", 8);
        let c = b.input("c", 8);
        let s = b.wire("s", 8);
        let nz = b.wire("nz", 1);
        let q = b.wire("q", 8);
        let qnz = b.wire("qnz", 1);
        b.cell("add", CellKind::Add, &[a, c], s).unwrap();
        b.cell("red", CellKind::RedOr, &[s], nz).unwrap();
        b.cell("r", CellKind::Reg { has_enable: true }, &[s, nz], q)
            .unwrap();
        b.cell("qred", CellKind::RedOr, &[q], qnz).unwrap();
        b.mark_output(q);
        b.mark_output(qnz);
        let n = b.build().unwrap();
        let add = n.find_cell("add").unwrap();
        let var = |name: &str| BoolExpr::var(Signal::bit0(n.find_net(name).unwrap()));
        // The adder's own output, and a gate in its fanout: cycles.
        assert_eq!(feedback_net(&n, add, &var("s")), n.find_net("s"));
        assert_eq!(feedback_net(&n, add, &var("nz")), n.find_net("nz"));
        match precheck_candidate(&n, add, &var("nz"), 1_000) {
            Some(PrecheckVerdict::Feedback { via }) => assert_eq!(via, "nz"),
            other => panic!("expected feedback verdict, got {other:?}"),
        }
        // Behind the register (one cycle of delay breaks the loop): legal.
        assert_eq!(feedback_net(&n, add, &var("q")), None);
        assert_eq!(feedback_net(&n, add, &var("qnz")), None);
        assert_eq!(precheck_candidate(&n, add, &var("qnz"), 1_000), None);
    }

    #[test]
    fn node_budget_degrades_to_inconclusive() {
        let (n, add, g, gn) = adder_with_split_enables();
        let act = BoolExpr::or2(BoolExpr::var(g), BoolExpr::var(gn));
        // Budget below even the terminal nodes: must give up, not panic.
        assert_eq!(precheck_candidate(&n, add, &act, 1), None);
    }

    #[test]
    fn verdict_reasons_are_descriptive() {
        assert!(PrecheckVerdict::ConstantTrue.reason().contains("constant 1"));
        assert!(PrecheckVerdict::ConstantFalse.reason().contains("never observed"));
        assert!(PrecheckVerdict::Feedback { via: "nz".into() }
            .reason()
            .contains("`nz`"));
    }
}
