//! The compiled simulation engine: a flat straight-line op tape.
//!
//! [`CompiledSim`] levelizes the netlist **once** at construction
//! ([`oiso_netlist::comb_topo_order`]) and lowers every combinational cell
//! to one [`TapeOp`] whose operands are pre-resolved indices into the dense
//! per-net value arena. A cycle then replays the tape as a tight loop over
//! a `Vec` of small enum values — no graph walking, no per-cell input
//! gathering, no width lookups — which is what makes the tape the fast
//! engine next to the scalar oracle (and the
//! [`EngineKind`](crate::EngineKind) default). Counting and monitors are
//! not the tape's: both engines run through the same block-sliced
//! [`Testbench`](crate::Testbench) loop.
//!
//! Semantics are bit-identical to the scalar
//! [`Simulator`](crate::Simulator) by construction: each op replicates
//! one arm of [`eval_comb_cell`] — the one word-level definition of each
//! cell kind — with its masks and widths baked in at compile time, and
//! the rare n-ary shapes (wide And/Or/Xor, multi-way muxes,
//! concatenations) fall back to `eval_comb_cell` itself through a
//! pre-resolved argument list. The differential suite
//! (`tests/sim_engine_equivalence.rs`) enforces the equivalence.

use crate::engine::SimBackend;
use oiso_netlist::net::mask;
use oiso_netlist::{comb_topo_order, eval_comb_cell, CellId, CellKind, NetId, Netlist};

/// One straight-line operation: operands are `values` arena indices,
/// `state` operands are [`CompiledSim::state`] slot indices, and masks are
/// precomputed from net widths.
#[derive(Debug, Clone)]
enum TapeOp {
    Add { a: u32, b: u32, out: u32, mask: u64 },
    Sub { a: u32, b: u32, out: u32, mask: u64 },
    Mul { a: u32, b: u32, out: u32, mask: u64 },
    Shl { a: u32, b: u32, out: u32, mask: u64, width: u64 },
    Shr { a: u32, b: u32, out: u32, mask: u64, width: u64 },
    Lt { a: u32, b: u32, out: u32 },
    Eq { a: u32, b: u32, out: u32 },
    /// Two-data mux: a nonzero select picks `b` (the scalar engine clamps
    /// the select to `n_data - 1 = 1`).
    Mux2 { s: u32, a: u32, b: u32, out: u32 },
    And2 { a: u32, b: u32, out: u32, mask: u64 },
    Or2 { a: u32, b: u32, out: u32, mask: u64 },
    Xor2 { a: u32, b: u32, out: u32, mask: u64 },
    Not { a: u32, out: u32, mask: u64 },
    /// Buf and Zext (both masked copies).
    Copy { a: u32, out: u32, mask: u64 },
    RedOr { a: u32, out: u32 },
    RedAnd { a: u32, out: u32, in_mask: u64 },
    Const { out: u32, value: u64 },
    Slice { a: u32, out: u32, lo: u32, mask: u64 },
    /// Transparent latch; `state` is the stored-value slot.
    Latch { d: u32, en: u32, out: u32, state: u32 },
    /// Anything without a specialized op (n-ary gates, wide muxes,
    /// concats): gathers `aux[args..args+n]` into scratch and calls
    /// [`eval_comb_cell`] on the original cell.
    General { cell: u32, args: u32, n: u32, out: u32 },
}

/// One register step of the clock edge (`en == u32::MAX` means always
/// load).
#[derive(Debug, Clone, Copy)]
struct RegStep {
    d: u32,
    en: u32,
    out: u32,
    state: u32,
}

/// A compiled simulation of one netlist: the tape replayed each cycle.
///
/// Drop-in replacement for [`Simulator`](crate::Simulator) in the
/// testbench loop — construct with [`CompiledSim::new`], then drive
/// `set_input` / `settle` / `clock_edge` exactly like the scalar engine.
#[derive(Debug)]
pub struct CompiledSim<'a> {
    netlist: &'a Netlist,
    ops: Vec<TapeOp>,
    /// Cells in tape order (levelization schedule; exposed for the
    /// topological-validity property test).
    schedule: Vec<CellId>,
    regs: Vec<RegStep>,
    /// Pre-resolved argument indices for [`TapeOp::General`] ops.
    aux: Vec<u32>,
    /// Dense state arena: one settled value per net.
    values: Vec<u64>,
    /// Stored values of registers and latches, in tape discovery order.
    state: Vec<u64>,
    /// Double buffer for the two-phase register update.
    reg_scratch: Vec<u64>,
    scratch: Vec<u64>,
    cycle: u64,
}

impl<'a> CompiledSim<'a> {
    /// Compiles `netlist` into an op tape with all nets and state at 0.
    pub fn new(netlist: &'a Netlist) -> Self {
        let schedule = comb_topo_order(netlist);
        let mut ops = Vec::with_capacity(schedule.len());
        let mut aux: Vec<u32> = Vec::new();
        let mut state_slots = 0u32;
        let net_idx = |n: NetId| n.index() as u32;
        for &cid in &schedule {
            let cell = netlist.cell(cid);
            let out = net_idx(cell.output());
            let out_mask = netlist.net(cell.output()).mask();
            let out_width = netlist.net(cell.output()).width() as u64;
            let inp = |i: usize| net_idx(cell.inputs()[i]);
            let op = match cell.kind() {
                CellKind::Add => TapeOp::Add { a: inp(0), b: inp(1), out, mask: out_mask },
                CellKind::Sub => TapeOp::Sub { a: inp(0), b: inp(1), out, mask: out_mask },
                CellKind::Mul => TapeOp::Mul { a: inp(0), b: inp(1), out, mask: out_mask },
                CellKind::Shl => TapeOp::Shl {
                    a: inp(0),
                    b: inp(1),
                    out,
                    mask: out_mask,
                    width: out_width,
                },
                CellKind::Shr => TapeOp::Shr {
                    a: inp(0),
                    b: inp(1),
                    out,
                    mask: out_mask,
                    width: out_width,
                },
                CellKind::Lt => TapeOp::Lt { a: inp(0), b: inp(1), out },
                CellKind::Eq => TapeOp::Eq { a: inp(0), b: inp(1), out },
                CellKind::Mux if cell.inputs().len() == 3 => TapeOp::Mux2 {
                    s: inp(0),
                    a: inp(1),
                    b: inp(2),
                    out,
                },
                CellKind::And if cell.inputs().len() == 2 => {
                    TapeOp::And2 { a: inp(0), b: inp(1), out, mask: out_mask }
                }
                CellKind::Or if cell.inputs().len() == 2 => {
                    TapeOp::Or2 { a: inp(0), b: inp(1), out, mask: out_mask }
                }
                CellKind::Xor if cell.inputs().len() == 2 => {
                    TapeOp::Xor2 { a: inp(0), b: inp(1), out, mask: out_mask }
                }
                CellKind::Not => TapeOp::Not { a: inp(0), out, mask: out_mask },
                CellKind::Buf | CellKind::Zext => {
                    TapeOp::Copy { a: inp(0), out, mask: out_mask }
                }
                CellKind::RedOr => TapeOp::RedOr { a: inp(0), out },
                CellKind::RedAnd => TapeOp::RedAnd {
                    a: inp(0),
                    out,
                    in_mask: netlist.net(cell.inputs()[0]).mask(),
                },
                CellKind::Const { value } => TapeOp::Const { out, value: value & out_mask },
                CellKind::Slice { lo, hi } => TapeOp::Slice {
                    a: inp(0),
                    out,
                    lo: lo as u32,
                    mask: mask(hi - lo + 1) & out_mask,
                },
                CellKind::Latch => {
                    let slot = state_slots;
                    state_slots += 1;
                    TapeOp::Latch { d: inp(0), en: inp(1), out, state: slot }
                }
                // N-ary gates, wide muxes, concats: pre-resolve the
                // argument list, evaluate via the oracle's cell evaluator.
                CellKind::And
                | CellKind::Or
                | CellKind::Xor
                | CellKind::Mux
                | CellKind::Concat => {
                    let args = aux.len() as u32;
                    aux.extend(cell.inputs().iter().map(|&n| net_idx(n)));
                    TapeOp::General {
                        cell: cid.index() as u32,
                        args,
                        n: cell.inputs().len() as u32,
                        out,
                    }
                }
                CellKind::Reg { .. } => unreachable!("registers are not in the comb schedule"),
            };
            ops.push(op);
        }
        let mut regs = Vec::new();
        for (_, cell) in netlist.cells() {
            if let CellKind::Reg { has_enable } = cell.kind() {
                let slot = state_slots;
                state_slots += 1;
                regs.push(RegStep {
                    d: net_idx(cell.inputs()[0]),
                    en: if has_enable { net_idx(cell.inputs()[1]) } else { u32::MAX },
                    out: net_idx(cell.output()),
                    state: slot,
                });
            }
        }
        let reg_count = regs.len();
        CompiledSim {
            netlist,
            ops,
            schedule,
            regs,
            aux,
            values: vec![0; netlist.num_nets()],
            state: vec![0; state_slots as usize],
            reg_scratch: vec![0; reg_count],
            scratch: Vec::with_capacity(8),
            cycle: 0,
        }
    }

    /// The netlist under simulation.
    pub fn netlist(&self) -> &Netlist {
        self.netlist
    }

    /// Number of completed [`CompiledSim::clock_edge`] calls.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The cells of the compiled tape in replay order — a topological
    /// order of the combinational graph, fixed at construction.
    pub fn schedule(&self) -> &[CellId] {
        &self.schedule
    }

    /// Sets the value of a primary input for the current cycle.
    ///
    /// # Panics
    ///
    /// Panics if `net` is not a primary input.
    pub fn set_input(&mut self, net: NetId, value: u64) {
        assert!(
            self.netlist.net(net).is_primary_input(),
            "set_input on non-input net `{}`",
            self.netlist.net(net).name()
        );
        self.values[net.index()] = value & self.netlist.net(net).mask();
    }

    /// The settled value of any net (meaningful after
    /// [`CompiledSim::settle`]).
    pub fn value(&self, net: NetId) -> u64 {
        self.values[net.index()]
    }

    /// One bit of a settled net value.
    pub fn bit(&self, net: NetId, bit: u8) -> bool {
        (self.values[net.index()] >> bit) & 1 == 1
    }

    /// Snapshot of all net values.
    pub fn all_values(&self) -> &[u64] {
        &self.values
    }

    /// Replays the tape: evaluates all combinational logic for the cycle.
    pub fn settle(&mut self) {
        let v = &mut self.values;
        for op in &self.ops {
            match *op {
                TapeOp::Add { a, b, out, mask } => {
                    v[out as usize] = v[a as usize].wrapping_add(v[b as usize]) & mask;
                }
                TapeOp::Sub { a, b, out, mask } => {
                    v[out as usize] = v[a as usize].wrapping_sub(v[b as usize]) & mask;
                }
                TapeOp::Mul { a, b, out, mask } => {
                    v[out as usize] = v[a as usize].wrapping_mul(v[b as usize]) & mask;
                }
                TapeOp::Shl { a, b, out, mask, width } => {
                    let amt = v[b as usize];
                    v[out as usize] =
                        if amt >= width { 0 } else { (v[a as usize] << amt) & mask };
                }
                TapeOp::Shr { a, b, out, mask, width } => {
                    let amt = v[b as usize];
                    v[out as usize] =
                        if amt >= width { 0 } else { (v[a as usize] >> amt) & mask };
                }
                TapeOp::Lt { a, b, out } => {
                    v[out as usize] = (v[a as usize] < v[b as usize]) as u64;
                }
                TapeOp::Eq { a, b, out } => {
                    v[out as usize] = (v[a as usize] == v[b as usize]) as u64;
                }
                TapeOp::Mux2 { s, a, b, out } => {
                    v[out as usize] =
                        if v[s as usize] != 0 { v[b as usize] } else { v[a as usize] };
                }
                TapeOp::And2 { a, b, out, mask } => {
                    v[out as usize] = v[a as usize] & v[b as usize] & mask;
                }
                TapeOp::Or2 { a, b, out, mask } => {
                    v[out as usize] = (v[a as usize] | v[b as usize]) & mask;
                }
                TapeOp::Xor2 { a, b, out, mask } => {
                    v[out as usize] = (v[a as usize] ^ v[b as usize]) & mask;
                }
                TapeOp::Not { a, out, mask } => {
                    v[out as usize] = !v[a as usize] & mask;
                }
                TapeOp::Copy { a, out, mask } => {
                    v[out as usize] = v[a as usize] & mask;
                }
                TapeOp::RedOr { a, out } => {
                    v[out as usize] = (v[a as usize] != 0) as u64;
                }
                TapeOp::RedAnd { a, out, in_mask } => {
                    v[out as usize] = (v[a as usize] == in_mask) as u64;
                }
                TapeOp::Const { out, value } => {
                    v[out as usize] = value;
                }
                TapeOp::Slice { a, out, lo, mask } => {
                    v[out as usize] = (v[a as usize] >> lo) & mask;
                }
                TapeOp::Latch { d, en, out, state } => {
                    if v[en as usize] & 1 == 1 {
                        self.state[state as usize] = v[d as usize];
                    }
                    v[out as usize] = self.state[state as usize];
                }
                TapeOp::General { cell, args, n, out } => {
                    self.scratch.clear();
                    for &idx in &self.aux[args as usize..(args + n) as usize] {
                        self.scratch.push(v[idx as usize]);
                    }
                    let cid = CellId::from_index(cell as usize);
                    v[out as usize] =
                        eval_comb_cell(self.netlist, self.netlist.cell(cid), &self.scratch);
                }
            }
        }
    }

    /// Advances the clock: registers sample their D inputs (respecting
    /// load enables) and drive the new state. Call after
    /// [`CompiledSim::settle`].
    pub fn clock_edge(&mut self) {
        // Two phases so register-to-register paths sample consistently.
        for (i, r) in self.regs.iter().enumerate() {
            let load = r.en == u32::MAX || self.values[r.en as usize] & 1 == 1;
            self.reg_scratch[i] = if load {
                self.values[r.d as usize]
            } else {
                self.state[r.state as usize]
            };
        }
        for (i, r) in self.regs.iter().enumerate() {
            self.state[r.state as usize] = self.reg_scratch[i];
            self.values[r.out as usize] = self.reg_scratch[i];
        }
        self.cycle += 1;
    }
}

impl SimBackend for CompiledSim<'_> {
    fn write_input(&mut self, index: usize, value: u64) {
        self.values[index] = value;
    }

    fn settle(&mut self) {
        CompiledSim::settle(self);
    }

    fn clock_edge(&mut self) {
        CompiledSim::clock_edge(self);
    }

    fn values(&mut self) -> &[u64] {
        &self.values
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Simulator;
    use oiso_netlist::NetlistBuilder;

    /// Scalar and compiled engines agree step by step on a small design
    /// exercising every specialized op plus a General fallback (3-data mux)
    /// and an enabled register.
    #[test]
    fn tape_matches_scalar_cycle_by_cycle() {
        let mut b = NetlistBuilder::new("mix");
        let x = b.input("x", 8);
        let y = b.input("y", 8);
        let sel = b.input("sel", 2);
        let sum = b.wire("sum", 8);
        let diff = b.wire("diff", 8);
        let prod = b.wire("prod", 8);
        let m = b.wire("m", 8);
        let lt = b.wire("lt", 1);
        let q = b.wire("q", 8);
        b.cell("add", CellKind::Add, &[x, y], sum).unwrap();
        b.cell("sub", CellKind::Sub, &[x, y], diff).unwrap();
        b.cell("mul", CellKind::Mul, &[x, y], prod).unwrap();
        b.cell("mx", CellKind::Mux, &[sel, sum, diff, prod], m).unwrap();
        b.cell("cmp", CellKind::Lt, &[x, y], lt).unwrap();
        b.cell("r", CellKind::Reg { has_enable: true }, &[m, lt], q)
            .unwrap();
        b.mark_output(q);
        let n = b.build().unwrap();

        let mut scalar = Simulator::new(&n);
        let mut compiled = CompiledSim::new(&n);
        for cycle in 0..200u64 {
            let xv = cycle.wrapping_mul(37) & 0xFF;
            let yv = cycle.wrapping_mul(91).wrapping_add(13) & 0xFF;
            let sv = cycle % 4;
            scalar.set_input(x, xv);
            scalar.set_input(y, yv);
            scalar.set_input(sel, sv);
            scalar.settle();
            compiled.set_input(x, xv);
            compiled.set_input(y, yv);
            compiled.set_input(sel, sv);
            compiled.settle();
            assert_eq!(scalar.all_values(), compiled.all_values(), "cycle {cycle}");
            scalar.clock_edge();
            compiled.clock_edge();
            assert_eq!(scalar.all_values(), compiled.all_values(), "edge {cycle}");
        }
        assert_eq!(compiled.cycle(), 200);
    }

    #[test]
    fn schedule_is_topological() {
        let mut b = NetlistBuilder::new("chain");
        let a = b.input("a", 4);
        let w1 = b.wire("w1", 4);
        let w2 = b.wire("w2", 4);
        b.cell("n1", CellKind::Not, &[a], w1).unwrap();
        b.cell("n2", CellKind::Not, &[w1], w2).unwrap();
        b.mark_output(w2);
        let n = b.build().unwrap();
        let sim = CompiledSim::new(&n);
        assert_eq!(sim.schedule().len(), 2);
        assert_eq!(n.cell(sim.schedule()[0]).name(), "n1");
        assert_eq!(n.cell(sim.schedule()[1]).name(), "n2");
    }
}
