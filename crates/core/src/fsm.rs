//! FSM reachability analysis — the paper's "analyzing the corresponding
//! FSM" option (Section 3), used here to harvest *don't-cares*.
//!
//! Many control signals are decoded from a small state register. States the
//! machine can never reach induce control-signal combinations that can
//! never occur; activation logic distinguishing those combinations is pure
//! waste. This module:
//!
//! 1. finds *closed* FSM registers — registers whose next-state cone
//!    depends only on their own output and constants ([`find_closed_fsms`]);
//! 2. enumerates their reachable state sets from the reset state 0 by
//!    explicit forward evaluation ([`ClosedFsm::reachable`]);
//! 3. builds the *care set* over any group of FSM-decoded control signals —
//!    the disjunction of the signal combinations that actually occur
//!    ([`control_care_set`]);
//! 4. shrinks an activation function against those don't-cares
//!    ([`refine_with_fsm_dont_cares`]), via
//!    [`oiso_boolex::simplify::minimize_with_care`].
//!
//! The reset-state assumption (state registers come up as 0) matches the
//! simulator's initialization; a design whose FSM is re-seeded from primary
//! inputs simply has no closed FSM and is left untouched.

use oiso_boolex::{simplify::minimize_with_care, BoolExpr, Signal};
use oiso_netlist::{comb_topo_order, eval_comb_cell, CellId, CellKind, NetId, Netlist};
use std::collections::{BTreeMap, HashMap, HashSet};

/// A register whose next-state logic is self-contained, with its
/// enumerated reachable states.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClosedFsm {
    /// The state register.
    pub state_reg: CellId,
    /// Reachable state values, ascending, starting from the reset state 0.
    pub reachable: Vec<u64>,
    /// `false` if enumeration stopped at the state cap before reaching a
    /// fixed point (the reachable set is then a subset).
    pub complete: bool,
}

impl ClosedFsm {
    /// Number of reachable states.
    pub fn num_states(&self) -> usize {
        self.reachable.len()
    }
}

/// Upper bound on enumerated states per FSM; wider registers than this are
/// not worth explicit enumeration.
pub const MAX_STATES: usize = 256;

/// The set of source elements a net's combinational cone draws from.
#[derive(Debug, Default)]
struct ConeSupport {
    registers: HashSet<CellId>,
    has_primary_input: bool,
    has_latch: bool,
}

fn cone_support(netlist: &Netlist, net: NetId) -> ConeSupport {
    let mut support = ConeSupport::default();
    let mut stack = vec![net];
    let mut seen = HashSet::new();
    while let Some(n) = stack.pop() {
        if !seen.insert(n) {
            continue;
        }
        match netlist.net(n).driver() {
            None => support.has_primary_input = true,
            Some(driver) => {
                let cell = netlist.cell(driver);
                match cell.kind() {
                    CellKind::Reg { .. } => {
                        support.registers.insert(driver);
                    }
                    CellKind::Latch => support.has_latch = true,
                    CellKind::Const { .. } => {}
                    _ => {
                        for &inp in cell.inputs() {
                            stack.push(inp);
                        }
                    }
                }
            }
        }
    }
    support
}

/// Evaluates every combinational cell whose inputs are determined by the
/// given seed values, returning the value map (seed included).
fn eval_forward(netlist: &Netlist, seed: &HashMap<NetId, u64>) -> HashMap<NetId, u64> {
    let mut values = seed.clone();
    // Constants are always known.
    for (_, cell) in netlist.cells() {
        if let CellKind::Const { value } = cell.kind() {
            values.insert(cell.output(), value & netlist.net(cell.output()).mask());
        }
    }
    let mut scratch = Vec::new();
    for cid in comb_topo_order(netlist) {
        let cell = netlist.cell(cid);
        if matches!(cell.kind(), CellKind::Const { .. } | CellKind::Latch) {
            continue;
        }
        if values.contains_key(&cell.output()) {
            continue;
        }
        scratch.clear();
        let mut ready = true;
        for &inp in cell.inputs() {
            match values.get(&inp) {
                Some(&v) => scratch.push(v),
                None => {
                    ready = false;
                    break;
                }
            }
        }
        if ready {
            values.insert(cell.output(), eval_comb_cell(netlist, cell, &scratch));
        }
    }
    values
}

/// Finds every closed FSM in the netlist and enumerates its reachable
/// states (from reset state 0, up to [`MAX_STATES`]).
pub fn find_closed_fsms(netlist: &Netlist) -> Vec<ClosedFsm> {
    let mut result = Vec::new();
    for rid in netlist.registers() {
        let cell = netlist.cell(rid);
        let d_net = cell.inputs()[0];
        if netlist.net(cell.output()).width() > 16 {
            continue; // 2^17+ states: out of explicit-enumeration scope
        }
        let support = cone_support(netlist, d_net);
        if support.has_primary_input
            || support.has_latch
            || support.registers.iter().any(|&r| r != rid)
        {
            continue; // next state depends on the outside world
        }
        // Enumerate: state' = D(state); enabled registers can also hold,
        // which never adds states (the current one is already reachable).
        let q = cell.output();
        let mut reachable = HashSet::new();
        let mut frontier = vec![0u64];
        reachable.insert(0u64);
        let mut complete = true;
        while let Some(state) = frontier.pop() {
            let mut seed = HashMap::new();
            seed.insert(q, state);
            let values = eval_forward(netlist, &seed);
            let Some(&next) = values.get(&d_net) else {
                complete = false; // cone evaluation incomplete: bail out
                break;
            };
            if reachable.insert(next) {
                if reachable.len() >= MAX_STATES {
                    complete = false;
                    break;
                }
                frontier.push(next);
            }
        }
        let mut reachable: Vec<u64> = reachable.into_iter().collect();
        reachable.sort_unstable();
        result.push(ClosedFsm {
            state_reg: rid,
            reachable,
            complete,
        });
    }
    result.sort_by_key(|f| f.state_reg);
    result
}

/// The value a signal takes in each reachable state of `fsm`, if the
/// signal's cone is determined by that FSM alone.
fn signal_values_per_state(
    netlist: &Netlist,
    fsm: &ClosedFsm,
    signals: &[Signal],
) -> Option<Vec<Vec<bool>>> {
    let q = netlist.cell(fsm.state_reg).output();
    let mut rows = Vec::with_capacity(fsm.reachable.len());
    for &state in &fsm.reachable {
        let mut seed = HashMap::new();
        seed.insert(q, state);
        let values = eval_forward(netlist, &seed);
        let mut row = Vec::with_capacity(signals.len());
        for sig in signals {
            let &v = values.get(&sig.net)?;
            row.push((v >> sig.bit) & 1 == 1);
        }
        rows.push(row);
    }
    Some(rows)
}

/// Builds the care set over `signals`: the disjunction of the joint value
/// combinations the closed FSMs actually produce. Signals not determined by
/// any closed FSM are unconstrained (the care set does not mention them).
pub fn control_care_set(
    netlist: &Netlist,
    fsms: &[ClosedFsm],
    signals: impl IntoIterator<Item = Signal>,
) -> BoolExpr {
    // Group signals by the (single) closed FSM that determines them.
    let mut by_fsm: BTreeMap<CellId, Vec<Signal>> = BTreeMap::new();
    for sig in signals {
        let support = cone_support(netlist, sig.net);
        if support.has_primary_input || support.has_latch || support.registers.len() != 1 {
            continue;
        }
        let reg = *support.registers.iter().next().expect("one register");
        if fsms.iter().any(|f| f.state_reg == reg && f.complete) {
            by_fsm.entry(reg).or_default().push(sig);
        }
    }
    let mut constraints = Vec::new();
    for (reg, sigs) in by_fsm {
        let fsm = fsms
            .iter()
            .find(|f| f.state_reg == reg)
            .expect("grouped by existing fsm");
        let Some(rows) = signal_values_per_state(netlist, fsm, &sigs) else {
            continue;
        };
        let mut minterms: Vec<BoolExpr> = Vec::new();
        for row in rows {
            let term = BoolExpr::and(
                sigs.iter()
                    .zip(&row)
                    .map(|(&sig, &value)| {
                        let v = BoolExpr::var(sig);
                        if value {
                            v
                        } else {
                            v.not()
                        }
                    })
                    .collect(),
            );
            minterms.push(term);
        }
        constraints.push(BoolExpr::or(minterms));
    }
    BoolExpr::and(constraints)
}

/// Shrinks an activation function using FSM-reachability don't-cares.
/// Returns the input unchanged when no closed FSM constrains its support.
pub fn refine_with_fsm_dont_cares(
    netlist: &Netlist,
    fsms: &[ClosedFsm],
    expr: &BoolExpr,
) -> BoolExpr {
    if fsms.is_empty() || expr.is_const(true) || expr.is_const(false) {
        return expr.clone();
    }
    let care = control_care_set(netlist, fsms, expr.support());
    if care.is_const(true) {
        return expr.clone();
    }
    minimize_with_care(expr, &care)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oiso_netlist::NetlistBuilder;

    /// A 3-bit counter that wraps from `limit` back to 0:
    /// state' = (state == limit) ? 0 : state + 1.
    fn counter(limit: u64) -> (Netlist, CellId, NetId) {
        let mut b = NetlistBuilder::new("ctr");
        let state = b.wire("state", 3);
        let one = b.constant("one", 3, 1).unwrap();
        let zero = b.constant("zero", 3, 0).unwrap();
        let lim = b.constant("lim", 3, limit).unwrap();
        let inc = b.wire("inc", 3);
        let at_limit = b.wire("at_limit", 1);
        let next = b.wire("next", 3);
        b.cell("add", CellKind::Add, &[state, one], inc).unwrap();
        b.cell("cmp", CellKind::Eq, &[state, lim], at_limit).unwrap();
        b.cell("sel", CellKind::Mux, &[at_limit, inc, zero], next)
            .unwrap();
        let reg = b
            .cell("r", CellKind::Reg { has_enable: false }, &[next], state)
            .unwrap();
        b.mark_output(state);
        (b.build().unwrap(), reg, state)
    }

    #[test]
    fn wrapping_counter_reaches_exactly_its_range() {
        let (n, reg, _) = counter(4);
        let fsms = find_closed_fsms(&n);
        assert_eq!(fsms.len(), 1);
        let fsm = &fsms[0];
        assert_eq!(fsm.state_reg, reg);
        assert!(fsm.complete);
        assert_eq!(fsm.reachable, vec![0, 1, 2, 3, 4], "states 5-7 unreachable");
    }

    #[test]
    fn free_running_counter_reaches_everything() {
        let (n, _, _) = counter(7);
        let fsms = find_closed_fsms(&n);
        assert_eq!(fsms[0].reachable, vec![0, 1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn input_fed_registers_are_not_closed() {
        let mut b = NetlistBuilder::new("open");
        let d = b.input("d", 4);
        let q = b.wire("q", 4);
        b.cell("r", CellKind::Reg { has_enable: false }, &[d], q)
            .unwrap();
        b.mark_output(q);
        let n = b.build().unwrap();
        assert!(find_closed_fsms(&n).is_empty());
    }

    #[test]
    fn decode_exclusivity_becomes_dont_care() {
        // Counter 0..=4; decodes d2 = (state==2), d6 = (state==6).
        // d6 is constant-false on reachable states, so an activation
        // `d2 + !d6·x`-style expression loses the d6 literal entirely.
        let (mut n, _, state) = counter(4);
        let k2 = n.add_wire("k2", 3).unwrap();
        n.add_cell("k2c", CellKind::Const { value: 2 }, &[], k2)
            .unwrap();
        let k6 = n.add_wire("k6", 3).unwrap();
        n.add_cell("k6c", CellKind::Const { value: 6 }, &[], k6)
            .unwrap();
        let d2 = n.add_wire("d2", 1).unwrap();
        n.add_cell("dec2", CellKind::Eq, &[state, k2], d2).unwrap();
        let d6 = n.add_wire("d6", 1).unwrap();
        n.add_cell("dec6", CellKind::Eq, &[state, k6], d6).unwrap();
        n.mark_output(d2);
        n.mark_output(d6);
        n.validate().unwrap();

        let fsms = find_closed_fsms(&n);
        let f = BoolExpr::and2(
            BoolExpr::var(Signal::bit0(d2)),
            BoolExpr::var(Signal::bit0(d6)).not(),
        );
        let refined = refine_with_fsm_dont_cares(&n, &fsms, &f);
        assert_eq!(
            refined,
            BoolExpr::var(Signal::bit0(d2)),
            "the !d6 literal is free under reachability don't-cares"
        );
        // And a function of only-unreachable conditions collapses.
        let dead = BoolExpr::var(Signal::bit0(d6));
        let refined_dead = refine_with_fsm_dont_cares(&n, &fsms, &dead);
        assert!(refined_dead.is_const(false), "{refined_dead}");
    }

    #[test]
    fn signals_with_free_inputs_stay_unconstrained() {
        // A decode mixed with a primary input is not FSM-determined.
        let (mut n, _, state) = counter(4);
        let pi = {
            // add_input on an existing netlist is allowed.
            n.add_input("ext", 1).unwrap()
        };
        let k2 = n.add_wire("k2", 3).unwrap();
        n.add_cell("k2c", CellKind::Const { value: 2 }, &[], k2)
            .unwrap();
        let d2 = n.add_wire("d2", 1).unwrap();
        n.add_cell("dec2", CellKind::Eq, &[state, k2], d2).unwrap();
        let mixed = n.add_wire("mixed", 1).unwrap();
        n.add_cell("mix", CellKind::And, &[d2, pi], mixed).unwrap();
        n.mark_output(mixed);
        n.validate().unwrap();

        let fsms = find_closed_fsms(&n);
        let care = control_care_set(&n, &fsms, [Signal::bit0(mixed)]);
        assert!(care.is_const(true), "{care}");
    }

    #[test]
    fn enabled_state_registers_are_still_closed() {
        // A counter that pauses on `hold`: the D cone is still closed; the
        // enable only stalls progress and adds no states.
        let mut b = NetlistBuilder::new("pausable");
        let hold = b.input("hold", 1);
        let state = b.wire("state", 2);
        let one = b.constant("one", 2, 1).unwrap();
        let inc = b.wire("inc", 2);
        let nhold = b.wire("nhold", 1);
        b.cell("add", CellKind::Add, &[state, one], inc).unwrap();
        b.cell("inv", CellKind::Not, &[hold], nhold).unwrap();
        b.cell("r", CellKind::Reg { has_enable: true }, &[inc, nhold], state)
            .unwrap();
        b.mark_output(state);
        let n = b.build().unwrap();
        let fsms = find_closed_fsms(&n);
        assert_eq!(fsms.len(), 1);
        assert_eq!(fsms[0].reachable, vec![0, 1, 2, 3]);
    }
}
