//! Single-vector replay: one settle/clock step under a named assignment.
//!
//! Equivalence checkers produce counterexamples as *named* value
//! assignments (primary inputs plus stateful-cell states). Replaying such a
//! vector on a concrete [`Simulator`] turns a symbolic
//! verdict into a ground-truth observation: set the state, apply the
//! inputs, settle, and read back every primary output and every next
//! state. Running the same vector on two netlists and diffing the outcomes
//! is the differential oracle of the verification harness.
//!
//! Names that don't resolve on a given netlist are skipped silently: a
//! counterexample extracted from a *transformed* design mentions nets (bank
//! latches, activation logic) that simply do not exist on the original, and
//! vice versa. Only the shared observables matter for the comparison.

use crate::engine::Simulator;
use oiso_netlist::Netlist;

/// A named single-cycle stimulus: primary-input values plus forced
/// register/latch states.
///
/// Word values; bits above a net's width are masked off on application.
/// Unmentioned inputs and states stay at 0, matching both the simulator's
/// reset state and the equivalence checker's don't-care default.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VectorAssignment {
    /// `(primary input net name, value)` pairs.
    pub inputs: Vec<(String, u64)>,
    /// `(stateful cell output net name, stored value)` pairs.
    pub states: Vec<(String, u64)>,
}

/// What one replayed cycle observed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VectorOutcome {
    /// Settled `(name, value)` of every primary output, sorted by name.
    pub outputs: Vec<(String, u64)>,
    /// Post-edge `(output net name, stored value)` of every register and
    /// latch, sorted by name.
    pub next_states: Vec<(String, u64)>,
}

impl VectorOutcome {
    /// The value recorded for primary output `name`, if present.
    pub fn output(&self, name: &str) -> Option<u64> {
        self.outputs
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// The post-edge state recorded for the stateful cell driving `name`.
    pub fn next_state(&self, name: &str) -> Option<u64> {
        self.next_states
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }
}

/// Replays one cycle of `vector` on `netlist`: forces the named states,
/// applies the named inputs, settles, records primary outputs, clocks, and
/// records the next states.
///
/// Unknown names — and names that resolve to something of the wrong role
/// (a non-input net in `inputs`, a net without a stateful driver in
/// `states`) — are ignored, so one vector can be replayed unchanged on an
/// original netlist and its transformed counterpart.
pub fn replay_vector(netlist: &Netlist, vector: &VectorAssignment) -> VectorOutcome {
    let mut sim = Simulator::new(netlist);
    for (name, value) in &vector.states {
        let Some(net) = netlist.find_net(name) else {
            continue;
        };
        let Some(driver) = netlist.net(net).driver() else {
            continue;
        };
        if netlist.cell(driver).kind().is_stateful() {
            sim.force_state(driver, *value);
        }
    }
    for (name, value) in &vector.inputs {
        let Some(net) = netlist.find_net(name) else {
            continue;
        };
        if netlist.net(net).is_primary_input() {
            sim.set_input(net, *value);
        }
    }
    sim.settle();
    let mut outputs: Vec<(String, u64)> = netlist
        .primary_outputs()
        .iter()
        .map(|&po| (netlist.net(po).name().to_string(), sim.value(po)))
        .collect();
    outputs.sort();
    sim.clock_edge();
    let mut next_states: Vec<(String, u64)> = netlist
        .cells()
        .filter(|(_, cell)| cell.kind().is_stateful())
        .map(|(cid, cell)| {
            (
                netlist.net(cell.output()).name().to_string(),
                sim.stored_state(cid),
            )
        })
        .collect();
    next_states.sort();
    VectorOutcome {
        outputs,
        next_states,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oiso_netlist::{CellKind, NetlistBuilder};

    /// x + y stored into an enabled register feeding the PO.
    fn gated_adder() -> Netlist {
        let mut b = NetlistBuilder::new("ga");
        let x = b.input("x", 8);
        let y = b.input("y", 8);
        let g = b.input("g", 1);
        let s = b.wire("s", 8);
        let q = b.wire("q", 8);
        b.cell("add", CellKind::Add, &[x, y], s).unwrap();
        b.cell("r", CellKind::Reg { has_enable: true }, &[s, g], q)
            .unwrap();
        b.mark_output(q);
        b.build().unwrap()
    }

    #[test]
    fn replay_observes_outputs_and_next_state() {
        let n = gated_adder();
        let v = VectorAssignment {
            inputs: vec![
                ("x".into(), 5),
                ("y".into(), 7),
                ("g".into(), 1),
            ],
            states: vec![("q".into(), 0x21)],
        };
        let out = replay_vector(&n, &v);
        // The PO sees the forced state this cycle; the register samples the
        // sum at the edge.
        assert_eq!(out.output("q"), Some(0x21));
        assert_eq!(out.next_state("q"), Some(12));
    }

    #[test]
    fn disabled_register_holds_forced_state() {
        let n = gated_adder();
        let v = VectorAssignment {
            inputs: vec![("x".into(), 5), ("y".into(), 7)], // g defaults to 0
            states: vec![("q".into(), 0x33)],
        };
        let out = replay_vector(&n, &v);
        assert_eq!(out.next_state("q"), Some(0x33));
    }

    #[test]
    fn unknown_and_misrole_names_are_skipped() {
        let n = gated_adder();
        let v = VectorAssignment {
            inputs: vec![
                ("x".into(), 3),
                ("no_such_net".into(), 9),
                ("s".into(), 9), // internal net: not an input
            ],
            states: vec![
                ("iso_bank_private".into(), 1), // other-netlist-only name
                ("s".into(), 9),                // comb-driven: not a state
            ],
        };
        let out = replay_vector(&n, &v);
        assert_eq!(out.output("q"), Some(0));
        assert_eq!(out.next_state("q"), Some(0), "g=0 holds reset state");
    }

    #[test]
    fn values_masked_to_net_width() {
        let n = gated_adder();
        let v = VectorAssignment {
            inputs: vec![("x".into(), 0x1FF), ("g".into(), 1)],
            states: vec![],
        };
        let out = replay_vector(&n, &v);
        assert_eq!(out.next_state("q"), Some(0xFF));
    }

    #[test]
    fn latch_state_forced_and_reported() {
        let mut b = NetlistBuilder::new("l");
        let d = b.input("d", 4);
        let en = b.input("en", 1);
        let q = b.wire("q", 4);
        b.cell("lat", CellKind::Latch, &[d, en], q).unwrap();
        b.mark_output(q);
        let n = b.build().unwrap();
        // Opaque latch keeps the forced value through settle and edge.
        let v = VectorAssignment {
            inputs: vec![("d".into(), 9)], // en = 0
            states: vec![("q".into(), 6)],
        };
        let out = replay_vector(&n, &v);
        assert_eq!(out.output("q"), Some(6));
        assert_eq!(out.next_state("q"), Some(6));
        // Transparent latch follows d instead.
        let v2 = VectorAssignment {
            inputs: vec![("d".into(), 9), ("en".into(), 1)],
            states: vec![("q".into(), 6)],
        };
        let out2 = replay_vector(&n, &v2);
        assert_eq!(out2.output("q"), Some(9));
        assert_eq!(out2.next_state("q"), Some(9));
    }
}
