//! Graph traversals over the netlist: topological ordering, levelization,
//! transitive fanin/fanout cones, and static observability.

use crate::cell::CellKind;
use crate::id::{CellId, NetId};
use crate::netlist::Netlist;
use std::collections::HashSet;

/// Topological order of all *combinational* cells (latches included),
/// treating register outputs, primary inputs, and constants as sources.
///
/// This is the evaluation order used by the cycle-based simulator and the
/// reverse order used by activation-function derivation.
///
/// # Panics
///
/// Panics if the netlist contains a combinational cycle (ruled out by
/// [`Netlist::validate`]).
pub fn comb_topo_order(netlist: &Netlist) -> Vec<CellId> {
    // Kahn's algorithm over comb cells; in-degree counts comb drivers only.
    let n = netlist.num_cells();
    let mut indeg = vec![0usize; n];
    let mut order = Vec::with_capacity(n);
    let mut queue = std::collections::VecDeque::new();

    for (cid, cell) in netlist.cells() {
        if !cell.kind().is_combinational() {
            continue;
        }
        let deg = cell
            .inputs()
            .iter()
            .filter(|&&net| {
                netlist
                    .net(net)
                    .driver()
                    .map(|d| netlist.cell(d).kind().is_combinational())
                    .unwrap_or(false)
            })
            .count();
        indeg[cid.index()] = deg;
        if deg == 0 {
            queue.push_back(cid);
        }
    }
    while let Some(cid) = queue.pop_front() {
        order.push(cid);
        let out = netlist.cell(cid).output();
        for &(load, _) in netlist.net(out).loads() {
            if netlist.cell(load).kind().is_combinational() {
                indeg[load.index()] -= 1;
                if indeg[load.index()] == 0 {
                    queue.push_back(load);
                }
            }
        }
    }
    let comb_count = netlist
        .cells()
        .filter(|(_, c)| c.kind().is_combinational())
        .count();
    assert_eq!(
        order.len(),
        comb_count,
        "combinational cycle in `{}` (validate() would have caught this)",
        netlist.name()
    );
    order
}

/// Assigns every combinational cell a level: sources (cells fed only by
/// registers/PIs/constants) are level 0; otherwise 1 + max level of
/// combinational fanin. Registers get level 0 as well.
pub fn levelize(netlist: &Netlist) -> Vec<usize> {
    let mut levels = vec![0usize; netlist.num_cells()];
    for cid in comb_topo_order(netlist) {
        let cell = netlist.cell(cid);
        let lvl = cell
            .inputs()
            .iter()
            .filter_map(|&net| netlist.net(net).driver())
            .filter(|&d| netlist.cell(d).kind().is_combinational())
            .map(|d| levels[d.index()] + 1)
            .max()
            .unwrap_or(0);
        levels[cid.index()] = lvl;
    }
    levels
}

/// Cells in the transitive fanout of `net`, stopping at (but including)
/// register cells when `stop_at_registers` is set.
///
/// This is the cone the paper's *secondary savings* model looks at: the
/// downstream logic whose input activity an isolated module quiets.
pub fn transitive_fanout(
    netlist: &Netlist,
    net: NetId,
    stop_at_registers: bool,
) -> HashSet<CellId> {
    let mut seen = HashSet::new();
    let mut stack: Vec<NetId> = vec![net];
    let mut visited_nets = HashSet::new();
    while let Some(n) = stack.pop() {
        if !visited_nets.insert(n) {
            continue;
        }
        for &(cell, _) in netlist.net(n).loads() {
            if seen.insert(cell) {
                let kind = netlist.cell(cell).kind();
                if stop_at_registers && kind.is_register() {
                    continue;
                }
                stack.push(netlist.cell(cell).output());
            }
        }
    }
    seen
}

/// Cells in the transitive fanin of `net`, stopping at (but including)
/// register cells when `stop_at_registers` is set.
pub fn transitive_fanin(
    netlist: &Netlist,
    net: NetId,
    stop_at_registers: bool,
) -> HashSet<CellId> {
    let mut seen = HashSet::new();
    let mut stack: Vec<NetId> = vec![net];
    let mut visited_nets = HashSet::new();
    while let Some(n) = stack.pop() {
        if !visited_nets.insert(n) {
            continue;
        }
        if let Some(driver) = netlist.net(n).driver() {
            if seen.insert(driver) {
                let kind = netlist.cell(driver).kind();
                if stop_at_registers && kind.is_register() {
                    continue;
                }
                for &inp in netlist.cell(driver).inputs() {
                    stack.push(inp);
                }
            }
        }
    }
    seen
}

/// The *fanin candidates* of a cell input (Section 4.1 of the paper): the
/// arithmetic cells reachable backwards from `net` through combinational
/// non-arithmetic logic, without crossing registers or other candidates.
pub fn fanin_candidates(netlist: &Netlist, net: NetId) -> Vec<CellId> {
    let mut result = Vec::new();
    let mut stack = vec![net];
    let mut visited = HashSet::new();
    while let Some(n) = stack.pop() {
        if !visited.insert(n) {
            continue;
        }
        let Some(driver) = netlist.net(n).driver() else {
            continue; // primary input
        };
        let kind = netlist.cell(driver).kind();
        if kind.is_arithmetic() {
            result.push(driver);
        } else if kind.is_combinational() && !matches!(kind, CellKind::Latch) {
            for &inp in netlist.cell(driver).inputs() {
                stack.push(inp);
            }
        }
        // Registers and latches are boundaries: stop.
    }
    result.sort();
    result.dedup();
    result
}

/// The *fanout candidates* of a cell (Section 4.1): arithmetic cells
/// reachable forward from its output through combinational non-arithmetic
/// logic, without crossing registers or other candidates.
pub fn fanout_candidates(netlist: &Netlist, cell: CellId) -> Vec<CellId> {
    let mut result = Vec::new();
    let mut stack = vec![netlist.cell(cell).output()];
    let mut visited = HashSet::new();
    while let Some(n) = stack.pop() {
        if !visited.insert(n) {
            continue;
        }
        for &(load, _) in netlist.net(n).loads() {
            let kind = netlist.cell(load).kind();
            if kind.is_arithmetic() {
                result.push(load);
            } else if kind.is_combinational() && !matches!(kind, CellKind::Latch) {
                stack.push(netlist.cell(load).output());
            }
        }
    }
    result.sort();
    result.dedup();
    result
}

/// The *source nets* a net's value depends on combinationally: primary
/// inputs and stateful-cell (register/latch) outputs reachable backwards
/// from `net` without crossing a stateful cell.
///
/// This is exactly the variable support an equivalence checker must
/// enumerate to compare `net`'s function on two netlists: everything else
/// in the cone is an internal node whose function is determined by these
/// sources. Returned sorted by id for deterministic iteration.
pub fn input_support(netlist: &Netlist, net: NetId) -> Vec<NetId> {
    let mut support = Vec::new();
    let mut stack = vec![net];
    let mut visited = HashSet::new();
    while let Some(n) = stack.pop() {
        if !visited.insert(n) {
            continue;
        }
        match netlist.net(n).driver() {
            None => support.push(n), // primary input
            Some(driver) => {
                let kind = netlist.cell(driver).kind();
                if kind.is_register() || matches!(kind, CellKind::Latch) {
                    support.push(n);
                } else {
                    for &inp in netlist.cell(driver).inputs() {
                        stack.push(inp);
                    }
                }
            }
        }
    }
    support.sort();
    support
}

/// Cells whose result is statically observable: every stateful cell, plus
/// every cell a primary output or a stateful cell's input transitively
/// reads. Registers and latches are observable state, so they are live
/// and keep their fanin alive.
///
/// The dead-logic pass of [`crate::opt`] removes every cell outside this
/// set; `oiso-lint` reports them.
pub fn live_cells(netlist: &Netlist) -> HashSet<CellId> {
    let mut live: HashSet<CellId> = HashSet::new();
    let mut stack: Vec<NetId> = netlist.primary_outputs().to_vec();
    for (cid, cell) in netlist.cells() {
        if cell.kind().is_stateful() {
            live.insert(cid);
            stack.extend_from_slice(cell.inputs());
        }
    }
    let mut visited: HashSet<NetId> = HashSet::new();
    while let Some(net) = stack.pop() {
        if !visited.insert(net) {
            continue;
        }
        if let Some(driver) = netlist.net(net).driver() {
            if live.insert(driver) {
                stack.extend_from_slice(netlist.cell(driver).inputs());
            }
        }
    }
    live
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CellKind, NetlistBuilder};

    /// a ── add0 ── mux ── reg ── out
    /// b ──╯        │
    /// c ───────────╯  (sel s)
    fn pipeline() -> Netlist {
        let mut b = NetlistBuilder::new("p");
        let a = b.input("a", 8);
        let bb = b.input("b", 8);
        let c = b.input("c", 8);
        let s = b.input("s", 1);
        let sum = b.wire("sum", 8);
        let m = b.wire("m", 8);
        let q = b.wire("q", 8);
        b.cell("add0", CellKind::Add, &[a, bb], sum).unwrap();
        b.cell("mx", CellKind::Mux, &[s, sum, c], m).unwrap();
        b.cell("r", CellKind::Reg { has_enable: false }, &[m], q)
            .unwrap();
        b.mark_output(q);
        b.build().unwrap()
    }

    #[test]
    fn topo_order_respects_dependencies() {
        let n = pipeline();
        let order = comb_topo_order(&n);
        let pos = |name: &str| {
            order
                .iter()
                .position(|&c| n.cell(c).name() == name)
                .unwrap()
        };
        assert!(pos("add0") < pos("mx"));
        // Register excluded from comb order.
        assert_eq!(order.len(), 2);
    }

    #[test]
    fn levelize_counts_depth() {
        let n = pipeline();
        let levels = levelize(&n);
        let add = n.find_cell("add0").unwrap();
        let mx = n.find_cell("mx").unwrap();
        assert_eq!(levels[add.index()], 0);
        assert_eq!(levels[mx.index()], 1);
    }

    #[test]
    fn fanout_stops_at_registers() {
        let n = pipeline();
        let sum = n.find_net("sum").unwrap();
        let cone = transitive_fanout(&n, sum, true);
        assert!(cone.contains(&n.find_cell("mx").unwrap()));
        assert!(cone.contains(&n.find_cell("r").unwrap()));
        assert_eq!(cone.len(), 2);
    }

    #[test]
    fn fanin_cone_reaches_sources() {
        let n = pipeline();
        let q = n.find_net("q").unwrap();
        let cone = transitive_fanin(&n, q, false);
        assert_eq!(cone.len(), 3); // r, mx, add0
    }

    #[test]
    fn fanin_candidates_see_through_mux() {
        let n = pipeline();
        let r = n.find_cell("r").unwrap();
        let d_net = n.cell(r).inputs()[0];
        let cands = fanin_candidates(&n, d_net);
        assert_eq!(cands, vec![n.find_cell("add0").unwrap()]);
    }

    #[test]
    fn fanout_candidates_chain() {
        // add0 -> mux -> add1: add1 is a fanout candidate of add0.
        let mut b = NetlistBuilder::new("chain");
        let a = b.input("a", 8);
        let c = b.input("c", 8);
        let s = b.input("s", 1);
        let sum0 = b.wire("sum0", 8);
        let m = b.wire("m", 8);
        let sum1 = b.wire("sum1", 8);
        b.cell("add0", CellKind::Add, &[a, c], sum0).unwrap();
        b.cell("mx", CellKind::Mux, &[s, sum0, c], m).unwrap();
        b.cell("add1", CellKind::Add, &[m, c], sum1).unwrap();
        b.mark_output(sum1);
        let n = b.build().unwrap();
        let add0 = n.find_cell("add0").unwrap();
        assert_eq!(fanout_candidates(&n, add0), vec![n.find_cell("add1").unwrap()]);
        // And symmetric: add0 is a fanin candidate of add1's A input.
        let add1 = n.find_cell("add1").unwrap();
        let a_net = n.cell(add1).inputs()[0];
        assert_eq!(fanin_candidates(&n, a_net), vec![add0]);
    }

    #[test]
    fn input_support_stops_at_state_and_inputs() {
        let n = pipeline();
        // m = mux(s, a+b, c): support of the register's D input is the four
        // primary inputs; the register output q's support is q itself.
        let m = n.find_net("m").unwrap();
        let mut names: Vec<&str> = input_support(&n, m)
            .into_iter()
            .map(|id| n.net(id).name())
            .collect();
        names.sort_unstable();
        assert_eq!(names, vec!["a", "b", "c", "s"]);
        let q = n.find_net("q").unwrap();
        assert_eq!(input_support(&n, q), vec![q]);
    }

    #[test]
    fn input_support_of_const_is_empty() {
        let mut b = NetlistBuilder::new("k");
        let k = b.wire("k", 4);
        b.cell("c", CellKind::Const { value: 5 }, &[], k).unwrap();
        b.mark_output(k);
        let n = b.build().unwrap();
        assert!(input_support(&n, n.find_net("k").unwrap()).is_empty());
    }

    #[test]
    fn candidates_do_not_cross_other_candidates() {
        // add0 -> add1 -> add2: fanout candidates of add0 = {add1} only.
        let mut b = NetlistBuilder::new("nocross");
        let a = b.input("a", 8);
        let c = b.input("c", 8);
        let s1 = b.wire("s1", 8);
        let s2 = b.wire("s2", 8);
        let s3 = b.wire("s3", 8);
        b.cell("add0", CellKind::Add, &[a, c], s1).unwrap();
        b.cell("add1", CellKind::Add, &[s1, c], s2).unwrap();
        b.cell("add2", CellKind::Add, &[s2, c], s3).unwrap();
        b.mark_output(s3);
        let n = b.build().unwrap();
        let add0 = n.find_cell("add0").unwrap();
        assert_eq!(fanout_candidates(&n, add0), vec![n.find_cell("add1").unwrap()]);
    }
}
