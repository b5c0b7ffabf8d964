//! The reusable dataflow engine the rules are built on.
//!
//! Two analyses, both purely static:
//!
//! * **Forward constant/X propagation** — a three-value lattice per net
//!   (`Const(v)` / `X` / `Varies`) generalizing the folding pass of
//!   `oiso_netlist::opt`: besides constants it tracks *forever-undefined*
//!   values (`X`), seeded by stateful cells that provably never load
//!   (enable constant 0), with the usual masking semantics (AND with 0,
//!   OR with all-ones, a constant mux select choosing a defined branch).
//!   All-constant cells fold through [`oiso_netlist::eval_comb_cell`], the
//!   simulator's own word semantics.
//! * **Backward static observability** — [`oiso_netlist::live_cells`],
//!   the optimizer's dead-logic sweep: a cell is observable when a primary
//!   output or a stateful element transitively reads its result.

use oiso_netlist::{eval_comb_cell, live_cells, CellId, CellKind, NetId, Netlist};
use std::collections::HashSet;

/// What a net provably carries, every cycle, forever.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetValue {
    /// Provably this constant on every cycle.
    Const(u64),
    /// May carry an undefined value on some cycle: its cone contains
    /// stateful elements that can never load a defined value.
    X,
    /// A defined, varying signal (the normal case).
    Varies,
}

/// Results of the forward/backward analyses over one netlist.
#[derive(Debug, Clone)]
pub struct Dataflow {
    /// Per-net lattice value, indexed by [`NetId::index`].
    pub values: Vec<NetValue>,
    /// Cells some primary output or stateful element observes.
    pub live_cells: HashSet<CellId>,
}

impl Dataflow {
    /// The lattice value of `net`.
    pub fn value(&self, net: NetId) -> NetValue {
        self.values[net.index()]
    }

    /// True when nothing observes `cell`'s result.
    pub fn is_dead(&self, cell: CellId) -> bool {
        !self.live_cells.contains(&cell)
    }
}

/// Runs both analyses. The netlist must be structurally valid (acyclic);
/// run the structural rules first and skip dataflow when they fail.
pub fn analyze(netlist: &Netlist) -> Dataflow {
    Dataflow {
        values: propagate(netlist),
        live_cells: live_cells(netlist),
    }
}

/// Forward constant/X propagation to a fixpoint.
///
/// Stateful cells force the iteration: a register that never loads is an
/// X source, and a register that only ever loads X data is X too, which
/// can in turn starve further state downstream. X-ness only grows, so
/// the loop terminates within one pass per stateful cell.
fn propagate(netlist: &Netlist) -> Vec<NetValue> {
    let mut values = vec![NetValue::Varies; netlist.num_nets()];
    let order = oiso_netlist::comb_topo_order(netlist);
    loop {
        let mut changed = false;
        // Stateful sources: enable provably 0 means the element never
        // loads, so its output is undefined forever; loading provably-X
        // data is just as undefined.
        for (cid, cell) in netlist.cells() {
            if !cell.kind().is_stateful() {
                continue;
            }
            let out = cell.output();
            if values[out.index()] == NetValue::X {
                continue;
            }
            let enable_dead = cell
                .enable()
                .map(|en| values[en.index()] == NetValue::Const(0))
                .unwrap_or(false);
            let d_is_x = values[cell.inputs()[0].index()] == NetValue::X;
            if enable_dead || d_is_x {
                values[out.index()] = NetValue::X;
                changed = true;
            }
            let _ = cid;
        }
        // Forward sweep over combinational cells in topological order.
        // (Latches count as combinational in the topo order but are
        // handled above as stateful; skip them here.)
        for cid in &order {
            let cell = netlist.cell(*cid);
            if cell.kind().is_stateful() {
                continue;
            }
            let new = eval_cell(netlist, *cid, &values);
            if values[cell.output().index()] != new {
                values[cell.output().index()] = new;
                changed = true;
            }
        }
        if !changed {
            return values;
        }
    }
}

/// Three-valued evaluation of one combinational cell.
fn eval_cell(netlist: &Netlist, cid: CellId, values: &[NetValue]) -> NetValue {
    let cell = netlist.cell(cid);
    let out_mask = netlist.net(cell.output()).mask();
    if let CellKind::Const { value } = cell.kind() {
        return NetValue::Const(value & out_mask);
    }
    let ins: Vec<NetValue> = cell
        .inputs()
        .iter()
        .map(|n| values[n.index()])
        .collect();

    // Masking: a controlling constant makes the output defined no matter
    // how undefined the other operands are.
    match cell.kind() {
        CellKind::And | CellKind::Mul if ins.contains(&NetValue::Const(0)) => {
            return NetValue::Const(0);
        }
        // All-ones at the *input* width; And/Or operands share the
        // output width per the port convention.
        CellKind::Or if ins.contains(&NetValue::Const(out_mask)) => {
            return NetValue::Const(out_mask);
        }
        CellKind::Mux => {
            if let NetValue::Const(sel) = ins[0] {
                let n_data = ins.len() - 1;
                return ins[1 + (sel as usize).min(n_data - 1)];
            }
        }
        _ => {}
    }

    if ins.contains(&NetValue::X) {
        return NetValue::X;
    }
    let consts: Option<Vec<u64>> = ins
        .iter()
        .map(|v| match v {
            NetValue::Const(c) => Some(*c),
            _ => None,
        })
        .collect();
    match consts {
        Some(vals) => NetValue::Const(eval_comb_cell(netlist, cell, &vals)),
        None => NetValue::Varies,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oiso_netlist::NetlistBuilder;

    #[test]
    fn constants_fold_forward() {
        let mut b = NetlistBuilder::new("c");
        let k1 = b.constant("k1", 8, 3).unwrap();
        let k2 = b.constant("k2", 8, 4).unwrap();
        let a = b.input("a", 8);
        let s = b.wire("s", 8);
        let t = b.wire("t", 8);
        b.cell("add", CellKind::Add, &[k1, k2], s).unwrap();
        b.cell("add2", CellKind::Add, &[s, a], t).unwrap();
        b.mark_output(t);
        let n = b.build().unwrap();
        let df = analyze(&n);
        assert_eq!(df.value(n.find_net("s").unwrap()), NetValue::Const(7));
        assert_eq!(df.value(n.find_net("t").unwrap()), NetValue::Varies);
    }

    #[test]
    fn never_enabled_latch_is_x_and_propagates() {
        let mut b = NetlistBuilder::new("x");
        let a = b.input("a", 8);
        let zero = b.constant("zero", 1, 0).unwrap();
        let lq = b.wire("lq", 8);
        let s = b.wire("s", 8);
        b.cell("lat", CellKind::Latch, &[a, zero], lq).unwrap();
        b.cell("add", CellKind::Add, &[lq, a], s).unwrap();
        b.mark_output(s);
        let n = b.build().unwrap();
        let df = analyze(&n);
        assert_eq!(df.value(n.find_net("lq").unwrap()), NetValue::X);
        assert_eq!(df.value(n.find_net("s").unwrap()), NetValue::X);
    }

    #[test]
    fn and_with_zero_masks_x() {
        let mut b = NetlistBuilder::new("m");
        let a = b.input("a", 8);
        let zero1 = b.constant("zero1", 1, 0).unwrap();
        let zero8 = b.constant("zero8", 8, 0).unwrap();
        let lq = b.wire("lq", 8);
        let g = b.wire("g", 8);
        b.cell("lat", CellKind::Latch, &[a, zero1], lq).unwrap();
        b.cell("gate", CellKind::And, &[lq, zero8], g).unwrap();
        b.mark_output(g);
        let n = b.build().unwrap();
        let df = analyze(&n);
        assert_eq!(df.value(n.find_net("g").unwrap()), NetValue::Const(0));
    }

    #[test]
    fn constant_mux_select_picks_defined_branch() {
        let mut b = NetlistBuilder::new("mx");
        let a = b.input("a", 8);
        let zero1 = b.constant("zero1", 1, 0).unwrap();
        let sel0 = b.constant("sel0", 1, 0).unwrap();
        let lq = b.wire("lq", 8);
        let m = b.wire("m", 8);
        b.cell("lat", CellKind::Latch, &[a, zero1], lq).unwrap();
        // Select 0 always routes `a`; the X branch is unreachable.
        b.cell("mx", CellKind::Mux, &[sel0, a, lq], m).unwrap();
        b.mark_output(m);
        let n = b.build().unwrap();
        let df = analyze(&n);
        assert_eq!(df.value(n.find_net("m").unwrap()), NetValue::Varies);
    }

    #[test]
    fn x_starves_downstream_registers() {
        // reg1 never loads (en = 0); reg2 loads reg1's X forever.
        let mut b = NetlistBuilder::new("star");
        let a = b.input("a", 8);
        let en = b.input("en", 1);
        let zero = b.constant("zero", 1, 0).unwrap();
        let q1 = b.wire("q1", 8);
        let q2 = b.wire("q2", 8);
        b.cell("r1", CellKind::Reg { has_enable: true }, &[a, zero], q1)
            .unwrap();
        b.cell("r2", CellKind::Reg { has_enable: true }, &[q1, en], q2)
            .unwrap();
        b.mark_output(q2);
        let n = b.build().unwrap();
        let df = analyze(&n);
        assert_eq!(df.value(n.find_net("q1").unwrap()), NetValue::X);
        assert_eq!(df.value(n.find_net("q2").unwrap()), NetValue::X);
    }

    #[test]
    fn liveness_marks_unobserved_cells_dead() {
        let mut b = NetlistBuilder::new("l");
        let a = b.input("a", 8);
        let c = b.input("c", 8);
        let used = b.wire("used", 8);
        let dead = b.wire("deadw", 8);
        b.cell("keep", CellKind::Add, &[a, c], used).unwrap();
        b.cell("drop", CellKind::Mul, &[a, c], dead).unwrap();
        b.mark_output(used);
        let n = b.build().unwrap();
        let df = analyze(&n);
        assert!(!df.is_dead(n.find_cell("keep").unwrap()));
        assert!(df.is_dead(n.find_cell("drop").unwrap()));
    }
}
