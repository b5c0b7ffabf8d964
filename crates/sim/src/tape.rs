//! The compiled simulation engine: a block-major op tape.
//!
//! [`CompiledSim`] lowers every cell of the netlist **once** at
//! construction to one `TapeOp` whose operands are pre-resolved net
//! indices, then simulates [`BLOCK`] = 64 cycles at a time. The value
//! arena holds one 64-word *column* per net — `values[net * 64 + t]` is
//! the net's settled value in cycle `t` of the block — and each op runs as
//! one tight loop over its input columns: no graph walking, no per-cell
//! input gathering and one dispatch per op per block instead of per
//! cycle.
//!
//! The tape follows the condensation of the cell graph, registers
//! included (an edge runs from each cell to every cell that reads its
//! output), in topological order:
//!
//! * a combinational cell computes its whole output column at once;
//! * a register that is on no feedback loop is a *scan*,
//!   `q[t+1] = en[t] ? d[t] : q[t]`, with its state carried from block to
//!   block; a latch is the same kind of scan, `q[t] = en[t] ? d[t] : q[t-1]`;
//! * a register feedback loop — a strongly connected component of more
//!   than one cell, or a register that reads its own output — is one
//!   *feedback group*: its registers, combinational cells and latches are
//!   stepped cycle by cycle inside the block, as the scalar engine would.
//!
//! Feedback groups are rare (on the bundled designs, a handful of cells in
//! two designs); the column ops do nearly all the work. Counting and
//! monitors are not the tape's: both engines run through the same
//! block-sliced [`Testbench`](crate::Testbench) loop, which reads the
//! columns.
//!
//! Semantics are bit-identical to the scalar
//! [`Simulator`](crate::Simulator) by construction: each op replicates
//! one arm of [`eval_comb_cell`](oiso_netlist::eval_comb_cell) — the one
//! word-level definition of each cell kind — with its masks and widths
//! baked in at compile time, and every kind and arity has its own op,
//! n-ary And/Or/Xor, n-way muxes and concatenations included. The
//! differential suite (`tests/sim_engine_equivalence.rs`) and the
//! feedback-loop property in `crates/sim/tests/prop_tape.rs` enforce the
//! equivalence.

use crate::engine::{SimBackend, BLOCK};
use oiso_netlist::net::mask;
use oiso_netlist::{comb_topo_order, CellId, CellKind, NetId, Netlist};
use std::ops::Range;

/// One net's values over the cycles of a block.
type Column = [u64; BLOCK];

/// The operator of an n-ary bitwise gate.
#[derive(Debug, Clone, Copy)]
enum Gate {
    And,
    Or,
    Xor,
}

/// One column operation: operands are net indices, `state` operands are
/// [`CompiledSim`] state slots, and masks are precomputed from net widths.
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
    Mux2 { s: u32, a: u32, b: u32, out: u32, mask: u64 },
    /// Mux over three or more data inputs; the select clamps to the last.
    MuxN { s: u32, data: Box<[u32]>, out: u32, mask: u64 },
    And2 { a: u32, b: u32, out: u32, mask: u64 },
    Or2 { a: u32, b: u32, out: u32, mask: u64 },
    Xor2 { a: u32, b: u32, out: u32, mask: u64 },
    /// And/Or/Xor of any other arity.
    Gate { gate: Gate, ins: Box<[u32]>, out: u32, mask: u64 },
    Not { a: u32, out: u32, mask: u64 },
    /// Buf and Zext (both masked copies).
    Copy { a: u32, out: u32, mask: u64 },
    RedOr { a: u32, out: u32 },
    RedAnd { a: u32, out: u32, in_mask: u64 },
    Slice { a: u32, out: u32, lo: u32, mask: u64 },
    /// Concatenation, first input most significant: `(net, width)` per
    /// input.
    Concat { ins: Box<[(u32, u32)]>, out: u32, mask: u64 },
    /// Transparent latch; `state` is the stored-value slot.
    Latch { d: u32, en: u32, out: u32, state: u32 },
    /// A register on no feedback loop, run as a scan.
    Reg(RegStep),
}

/// One register: `en == u32::MAX` means always load.
#[derive(Debug, Clone, Copy)]
struct RegStep {
    d: u32,
    en: u32,
    out: u32,
    state: u32,
}

impl RegStep {
    fn loads(&self, values: &[u64], t: usize) -> bool {
        self.en == u32::MAX || values[self.en as usize * BLOCK + t] & 1 == 1
    }
}

/// One entry of the tape.
#[derive(Debug, Clone)]
enum Step {
    /// A feed-forward cell: one op over the block's columns.
    Op(TapeOp),
    /// A register feedback loop, stepped cycle by cycle: each cycle the
    /// registers drive their state, the ops (combinational cells and
    /// latches, in topological order) settle, and the registers sample.
    Group { regs: Box<[RegStep]>, ops: Box<[TapeOp]> },
}

/// Read access to every column of the arena but one, whose mutable borrow
/// has been split off.
struct Inputs<'a> {
    below: &'a [u64],
    above: &'a [u64],
    out: usize,
}

impl<'a> Inputs<'a> {
    #[inline(always)]
    fn col(&self, net: u32) -> &'a Column {
        let net = net as usize;
        let words = if net < self.out {
            &self.below[net * BLOCK..]
        } else {
            &self.above[(net - self.out - 1) * BLOCK..]
        };
        words[..BLOCK].try_into().expect("a column is BLOCK words")
    }
}

/// Splits the arena into the mutable column of net `out` and read access
/// to all other columns (no cell reads its own output).
#[inline(always)]
fn split(values: &mut [u64], out: u32) -> (&mut Column, Inputs<'_>) {
    let out = out as usize;
    let (below, rest) = values.split_at_mut(out * BLOCK);
    let (col, above) = rest.split_at_mut(BLOCK);
    let col = col.try_into().expect("a column is BLOCK words");
    (col, Inputs { below, above, out })
}

impl TapeOp {
    /// Evaluates the op over cycles `ts` of the block.
    #[inline(always)]
    fn exec(&self, values: &mut [u64], state: &mut [u64], ts: Range<usize>) {
        macro_rules! map1 {
            ($a:expr, $out:expr, |$x:ident| $f:expr) => {{
                let (o, cols) = split(values, $out);
                let xa = &cols.col($a)[ts.clone()];
                for (o, &$x) in o[ts].iter_mut().zip(xa) {
                    *o = $f;
                }
            }};
        }
        macro_rules! map2 {
            ($a:expr, $b:expr, $out:expr, |$x:ident, $y:ident| $f:expr) => {{
                let (o, cols) = split(values, $out);
                let (xa, xb) = (&cols.col($a)[ts.clone()], &cols.col($b)[ts.clone()]);
                for ((o, &$x), &$y) in o[ts].iter_mut().zip(xa).zip(xb) {
                    *o = $f;
                }
            }};
        }
        match *self {
            TapeOp::Add { a, b, out, mask } => map2!(a, b, out, |x, y| x.wrapping_add(y) & mask),
            TapeOp::Sub { a, b, out, mask } => map2!(a, b, out, |x, y| x.wrapping_sub(y) & mask),
            TapeOp::Mul { a, b, out, mask } => map2!(a, b, out, |x, y| x.wrapping_mul(y) & mask),
            TapeOp::Shl { a, b, out, mask, width } => {
                map2!(a, b, out, |x, y| if y >= width { 0 } else { (x << y) & mask })
            }
            TapeOp::Shr { a, b, out, mask, width } => {
                map2!(a, b, out, |x, y| if y >= width { 0 } else { (x >> y) & mask })
            }
            TapeOp::Lt { a, b, out } => map2!(a, b, out, |x, y| (x < y) as u64),
            TapeOp::Eq { a, b, out } => map2!(a, b, out, |x, y| (x == y) as u64),
            TapeOp::Mux2 { s, a, b, out, mask } => {
                let (o, cols) = split(values, out);
                let (xs, xa, xb) = (cols.col(s), cols.col(a), cols.col(b));
                for t in ts {
                    o[t] = (if xs[t] != 0 { xb[t] } else { xa[t] }) & mask;
                }
            }
            TapeOp::MuxN { s, ref data, out, mask } => {
                // Start from the last input (where the select clamps), then
                // overwrite the cycles that select each earlier one.
                let (o, cols) = split(values, out);
                let xs = cols.col(s);
                let last = data.len() - 1;
                let xl = cols.col(data[last]);
                for t in ts.clone() {
                    o[t] = xl[t] & mask;
                }
                for (k, &input) in data[..last].iter().enumerate() {
                    let xk = cols.col(input);
                    for t in ts.clone() {
                        if xs[t] == k as u64 {
                            o[t] = xk[t] & mask;
                        }
                    }
                }
            }
            TapeOp::And2 { a, b, out, mask } => map2!(a, b, out, |x, y| x & y & mask),
            TapeOp::Or2 { a, b, out, mask } => map2!(a, b, out, |x, y| (x | y) & mask),
            TapeOp::Xor2 { a, b, out, mask } => map2!(a, b, out, |x, y| (x ^ y) & mask),
            TapeOp::Gate { gate, ref ins, out, mask } => {
                let (o, cols) = split(values, out);
                let o = &mut o[ts.clone()];
                o.fill(match gate {
                    Gate::And => mask,
                    Gate::Or | Gate::Xor => 0,
                });
                for &input in ins.iter() {
                    let x = &cols.col(input)[ts.clone()];
                    match gate {
                        Gate::And => o.iter_mut().zip(x).for_each(|(o, &x)| *o &= x),
                        Gate::Or => o.iter_mut().zip(x).for_each(|(o, &x)| *o |= x & mask),
                        Gate::Xor => o.iter_mut().zip(x).for_each(|(o, &x)| *o ^= x & mask),
                    }
                }
            }
            TapeOp::Not { a, out, mask } => map1!(a, out, |x| !x & mask),
            TapeOp::Copy { a, out, mask } => map1!(a, out, |x| x & mask),
            TapeOp::RedOr { a, out } => map1!(a, out, |x| (x != 0) as u64),
            TapeOp::RedAnd { a, out, in_mask } => map1!(a, out, |x| (x == in_mask) as u64),
            TapeOp::Slice { a, out, lo, mask } => map1!(a, out, |x| (x >> lo) & mask),
            TapeOp::Concat { ref ins, out, mask } => {
                let (o, cols) = split(values, out);
                let o = &mut o[ts.clone()];
                o.fill(0);
                for &(input, width) in ins.iter() {
                    let x = &cols.col(input)[ts.clone()];
                    for (o, &x) in o.iter_mut().zip(x) {
                        *o = o.wrapping_shl(width) | x;
                    }
                }
                o.iter_mut().for_each(|o| *o &= mask);
            }
            TapeOp::Latch { d, en, out, state: slot } => {
                let (o, cols) = split(values, out);
                let (xd, xe) = (cols.col(d), cols.col(en));
                let mut s = state[slot as usize];
                for t in ts {
                    if xe[t] & 1 == 1 {
                        s = xd[t];
                    }
                    o[t] = s;
                }
                state[slot as usize] = s;
            }
            TapeOp::Reg(RegStep { d, en, out, state: slot }) => {
                let (o, cols) = split(values, out);
                let xd = cols.col(d);
                let mut s = state[slot as usize];
                if en == u32::MAX {
                    for t in ts {
                        o[t] = s;
                        s = xd[t];
                    }
                } else {
                    let xe = cols.col(en);
                    for t in ts {
                        o[t] = s;
                        if xe[t] & 1 == 1 {
                            s = xd[t];
                        }
                    }
                }
                state[slot as usize] = s;
            }
        }
    }
}

/// The strongly connected components of the cell graph — an edge runs
/// from each cell to every cell reading its output, registers included —
/// in a topological order of the condensation (Tarjan's algorithm, with
/// an explicit stack).
fn condensation(netlist: &Netlist) -> Vec<Vec<CellId>> {
    const UNSEEN: u32 = u32::MAX;
    let cells = netlist.num_cells();
    let loads = |c: usize| {
        let cell = netlist.cell(CellId::from_index(c));
        netlist.net(cell.output()).loads()
    };
    let mut index = vec![UNSEEN; cells];
    let mut low = vec![0u32; cells];
    let mut on_stack = vec![false; cells];
    let mut stack: Vec<usize> = Vec::new();
    let mut calls: Vec<(usize, usize)> = Vec::new();
    let mut components = Vec::new();
    let mut next = 0u32;
    for root in 0..cells {
        if index[root] != UNSEEN {
            continue;
        }
        calls.push((root, 0));
        while let Some(&mut (v, ref mut edge)) = calls.last_mut() {
            if *edge == 0 && index[v] == UNSEEN {
                index[v] = next;
                low[v] = next;
                next += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if let Some(&(w, _)) = loads(v).get(*edge) {
                *edge += 1;
                let w = w.index();
                if index[w] == UNSEEN {
                    calls.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
                continue;
            }
            calls.pop();
            if let Some(&(u, _)) = calls.last() {
                low[u] = low[u].min(low[v]);
            }
            if low[v] == index[v] {
                let mut component = Vec::new();
                loop {
                    let w = stack.pop().expect("v is on the stack");
                    on_stack[w] = false;
                    component.push(CellId::from_index(w));
                    if w == v {
                        break;
                    }
                }
                components.push(component);
            }
        }
    }
    // Tarjan emits each component after every component it reaches.
    components.reverse();
    components
}

/// Lowers one non-register cell to its op, allocating a state slot for a
/// latch. Constants have no op: their columns are filled at construction.
fn lower(netlist: &Netlist, cid: CellId, state_slots: &mut u32) -> TapeOp {
    let cell = netlist.cell(cid);
    let net_idx = |n: NetId| n.index() as u32;
    let out = net_idx(cell.output());
    let out_mask = netlist.net(cell.output()).mask();
    let out_width = netlist.net(cell.output()).width() as u64;
    let inp = |i: usize| net_idx(cell.inputs()[i]);
    let all = || cell.inputs().iter().map(|&n| net_idx(n)).collect::<Box<[u32]>>();
    let two = cell.inputs().len() == 2;
    match cell.kind() {
        CellKind::Add => TapeOp::Add { a: inp(0), b: inp(1), out, mask: out_mask },
        CellKind::Sub => TapeOp::Sub { a: inp(0), b: inp(1), out, mask: out_mask },
        CellKind::Mul => TapeOp::Mul { a: inp(0), b: inp(1), out, mask: out_mask },
        CellKind::Shl => {
            TapeOp::Shl { a: inp(0), b: inp(1), out, mask: out_mask, width: out_width }
        }
        CellKind::Shr => {
            TapeOp::Shr { a: inp(0), b: inp(1), out, mask: out_mask, width: out_width }
        }
        CellKind::Lt => TapeOp::Lt { a: inp(0), b: inp(1), out },
        CellKind::Eq => TapeOp::Eq { a: inp(0), b: inp(1), out },
        CellKind::Mux if cell.inputs().len() == 3 => {
            TapeOp::Mux2 { s: inp(0), a: inp(1), b: inp(2), out, mask: out_mask }
        }
        CellKind::Mux => TapeOp::MuxN { s: inp(0), data: all()[1..].into(), out, mask: out_mask },
        CellKind::And if two => TapeOp::And2 { a: inp(0), b: inp(1), out, mask: out_mask },
        CellKind::Or if two => TapeOp::Or2 { a: inp(0), b: inp(1), out, mask: out_mask },
        CellKind::Xor if two => TapeOp::Xor2 { a: inp(0), b: inp(1), out, mask: out_mask },
        CellKind::And => TapeOp::Gate { gate: Gate::And, ins: all(), out, mask: out_mask },
        CellKind::Or => TapeOp::Gate { gate: Gate::Or, ins: all(), out, mask: out_mask },
        CellKind::Xor => TapeOp::Gate { gate: Gate::Xor, ins: all(), out, mask: out_mask },
        CellKind::Not => TapeOp::Not { a: inp(0), out, mask: out_mask },
        CellKind::Buf | CellKind::Zext => TapeOp::Copy { a: inp(0), out, mask: out_mask },
        CellKind::RedOr => TapeOp::RedOr { a: inp(0), out },
        CellKind::RedAnd => TapeOp::RedAnd {
            a: inp(0),
            out,
            in_mask: netlist.net(cell.inputs()[0]).mask(),
        },
        CellKind::Slice { lo, hi } => TapeOp::Slice {
            a: inp(0),
            out,
            lo: lo as u32,
            mask: mask(hi - lo + 1) & out_mask,
        },
        CellKind::Concat => TapeOp::Concat {
            ins: cell
                .inputs()
                .iter()
                .map(|&n| (net_idx(n), netlist.net(n).width() as u32))
                .collect(),
            out,
            mask: out_mask,
        },
        CellKind::Latch => {
            *state_slots += 1;
            TapeOp::Latch { d: inp(0), en: inp(1), out, state: *state_slots - 1 }
        }
        CellKind::Reg { has_enable } => {
            *state_slots += 1;
            TapeOp::Reg(RegStep {
                d: inp(0),
                en: if has_enable { inp(1) } else { u32::MAX },
                out,
                state: *state_slots - 1,
            })
        }
        CellKind::Const { .. } => unreachable!("constants are filled at construction"),
    }
}

/// A compiled simulation of one netlist: the tape run once per block of up
/// to [`BLOCK`] cycles.
///
/// Fill the primary inputs' columns with [`CompiledSim::set_input_column`],
/// run the block with [`CompiledSim::run_block`], then read each net's
/// settled values, one per cycle, with [`CompiledSim::column`]. Registers,
/// latches and every net start at 0, as on the scalar
/// [`Simulator`](crate::Simulator).
#[derive(Debug)]
pub struct CompiledSim<'a> {
    netlist: &'a Netlist,
    tape: Vec<Step>,
    /// The condensation the tape follows (exposed for the schedule
    /// property test).
    schedule: Vec<Vec<CellId>>,
    /// Column arena: `values[net * BLOCK + t]` is the net's settled value
    /// in cycle `t` of the current block.
    values: Vec<u64>,
    /// Stored values of registers and latches.
    state: Vec<u64>,
    cycle: u64,
}

impl<'a> CompiledSim<'a> {
    /// Compiles `netlist` into a tape with all nets and state at 0.
    pub fn new(netlist: &'a Netlist) -> Self {
        let schedule = condensation(netlist);
        let mut comb_rank = vec![0usize; netlist.num_cells()];
        for (rank, cid) in comb_topo_order(netlist).into_iter().enumerate() {
            comb_rank[cid.index()] = rank;
        }
        let mut values = vec![0; netlist.num_nets() * BLOCK];
        let mut state_slots = 0u32;
        let mut tape = Vec::with_capacity(schedule.len());
        for component in &schedule {
            let cell = netlist.cell(component[0]);
            let feeds_itself = cell.inputs().contains(&cell.output());
            if component.len() == 1 && !feeds_itself {
                if let CellKind::Const { value } = cell.kind() {
                    let out = cell.output();
                    values[out.index() * BLOCK..][..BLOCK]
                        .fill(value & netlist.net(out).mask());
                    continue;
                }
                tape.push(Step::Op(lower(netlist, component[0], &mut state_slots)));
                continue;
            }
            // A feedback group: its ops settle in topological order (the
            // registers, split off below, have no rank of their own).
            let mut members = component.clone();
            members.sort_by_key(|c| comb_rank[c.index()]);
            let mut regs = Vec::new();
            let mut ops = Vec::new();
            for cid in members {
                match lower(netlist, cid, &mut state_slots) {
                    TapeOp::Reg(reg) => regs.push(reg),
                    op => ops.push(op),
                }
            }
            tape.push(Step::Group { regs: regs.into(), ops: ops.into() });
        }
        CompiledSim {
            netlist,
            tape,
            schedule,
            values,
            state: vec![0; state_slots as usize],
            cycle: 0,
        }
    }

    /// The netlist under simulation.
    pub fn netlist(&self) -> &Netlist {
        self.netlist
    }

    /// Number of simulated cycles.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The strongly connected components of the cell graph (registers
    /// included) in tape order, a topological order of its condensation.
    /// A component of more than one cell, or a register that reads its own
    /// output, is a feedback group stepped cycle by cycle; every other
    /// component is one cell run over whole columns.
    pub fn schedule(&self) -> impl ExactSizeIterator<Item = &[CellId]> + '_ {
        self.schedule.iter().map(Vec::as_slice)
    }

    /// Sets primary input `net` for the first `values.len()` cycles of the
    /// next block, masked to the net's width.
    ///
    /// # Panics
    ///
    /// Panics if `net` is not a primary input or more than [`BLOCK`]
    /// values are given.
    pub fn set_input_column(&mut self, net: NetId, values: &[u64]) {
        assert!(
            self.netlist.net(net).is_primary_input(),
            "set_input_column on non-input net `{}`",
            self.netlist.net(net).name()
        );
        let mask = self.netlist.net(net).mask();
        let col = &mut self.values[net.index() * BLOCK..][..values.len()];
        for (slot, &v) in col.iter_mut().zip(values) {
            *slot = v & mask;
        }
    }

    /// Simulates the next `n` cycles: each cycle settles the logic on the
    /// input columns' values and then clocks the registers.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= n <= BLOCK`.
    pub fn run_block(&mut self, n: usize) {
        assert!((1..=BLOCK).contains(&n), "a block is 1..={BLOCK} cycles, got {n}");
        let (values, state) = (&mut self.values, &mut self.state);
        for step in &self.tape {
            match step {
                Step::Op(op) => op.exec(values, state, 0..n),
                Step::Group { regs, ops } => {
                    for t in 0..n {
                        for r in regs.iter() {
                            values[r.out as usize * BLOCK + t] = state[r.state as usize];
                        }
                        for op in ops.iter() {
                            op.exec(values, state, t..t + 1);
                        }
                        for r in regs.iter() {
                            if r.loads(values, t) {
                                state[r.state as usize] = values[r.d as usize * BLOCK + t];
                            }
                        }
                    }
                }
            }
        }
        self.cycle += n as u64;
    }

    /// The settled values of `net` in the cycles of the last block: entry
    /// `t` is cycle `t`; only the block's first `n` entries are meaningful.
    pub fn column(&self, net: NetId) -> &[u64] {
        &self.values[net.index() * BLOCK..][..BLOCK]
    }
}

impl SimBackend for CompiledSim<'_> {
    fn columns_mut(&mut self) -> &mut [u64] {
        &mut self.values
    }

    fn run_block(&mut self, n: usize) {
        CompiledSim::run_block(self, n);
    }

    fn columns(&self) -> &[u64] {
        &self.values
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Simulator;
    use oiso_netlist::NetlistBuilder;

    /// Runs `cycles` cycles on both engines with the same per-cycle input
    /// function and asserts every net's value agrees in every cycle.
    fn assert_matches_scalar(n: &Netlist, cycles: u64, input: impl Fn(u64, usize) -> u64) {
        let inputs = n.primary_inputs();
        let mut scalar = Simulator::new(n);
        let mut compiled = CompiledSim::new(n);
        let mut start = 0u64;
        while start < cycles {
            let len = (cycles - start).min(BLOCK as u64) as usize;
            for (k, &pi) in inputs.iter().enumerate() {
                let col: Vec<u64> = (0..len as u64).map(|t| input(start + t, k)).collect();
                compiled.set_input_column(pi, &col);
            }
            compiled.run_block(len);
            for t in 0..len {
                for (k, &pi) in inputs.iter().enumerate() {
                    scalar.set_input(pi, input(start + t as u64, k));
                }
                scalar.settle();
                for (net, _) in n.nets() {
                    assert_eq!(
                        scalar.value(net),
                        compiled.column(net)[t],
                        "net {} in cycle {}",
                        n.net(net).name(),
                        start + t as u64
                    );
                }
                scalar.clock_edge();
            }
            start += len as u64;
        }
        assert_eq!(compiled.cycle(), cycles);
    }

    /// Every specialized op, the n-ary shapes (3-data mux, wide gates,
    /// concatenation), an enabled register and a register feedback loop
    /// (an accumulator through a latch) agree with the scalar engine
    /// cycle by cycle, across block boundaries.
    #[test]
    fn tape_matches_scalar_cycle_by_cycle() {
        let mut b = NetlistBuilder::new("mix");
        let x = b.input("x", 8);
        let y = b.input("y", 8);
        let sel = b.input("sel", 2);
        let en = b.input("en", 1);
        let w = |b: &mut NetlistBuilder, name: &str, width| b.wire(name, width);
        let (sum, diff, prod) = (w(&mut b, "sum", 8), w(&mut b, "diff", 8), w(&mut b, "prod", 8));
        let (m, lt, q) = (w(&mut b, "m", 8), w(&mut b, "lt", 1), w(&mut b, "q", 8));
        let (and3, xor3, cat) = (w(&mut b, "and3", 8), w(&mut b, "xor3", 8), w(&mut b, "cat", 16));
        let (acc, held, accq) = (w(&mut b, "acc", 8), w(&mut b, "held", 8), w(&mut b, "accq", 8));
        let k = w(&mut b, "k", 8);
        b.cell("add", CellKind::Add, &[x, y], sum).unwrap();
        b.cell("sub", CellKind::Sub, &[x, y], diff).unwrap();
        b.cell("mul", CellKind::Mul, &[x, y], prod).unwrap();
        b.cell("mx", CellKind::Mux, &[sel, sum, diff, prod], m).unwrap();
        b.cell("cmp", CellKind::Lt, &[x, y], lt).unwrap();
        b.cell("r", CellKind::Reg { has_enable: true }, &[m, lt], q).unwrap();
        b.cell("k", CellKind::Const { value: 0x5A }, &[], k).unwrap();
        b.cell("and3", CellKind::And, &[x, y, m], and3).unwrap();
        b.cell("xor3", CellKind::Xor, &[x, k, q], xor3).unwrap();
        b.cell("cat", CellKind::Concat, &[and3, xor3], cat).unwrap();
        // acc = accq + x, held through a latch, registered back.
        b.cell("acc", CellKind::Add, &[accq, x], acc).unwrap();
        b.cell("lat", CellKind::Latch, &[acc, en], held).unwrap();
        b.cell("racc", CellKind::Reg { has_enable: false }, &[held], accq).unwrap();
        b.mark_output(cat);
        b.mark_output(accq);
        let n = b.build().unwrap();
        for cycles in [1, 63, 64, 65, 200] {
            assert_matches_scalar(&n, cycles, |cycle, k| match k {
                0 => cycle.wrapping_mul(37) & 0xFF,
                1 => cycle.wrapping_mul(91).wrapping_add(13) & 0xFF,
                2 => cycle % 4,
                _ => (cycle / 3) & 1,
            });
        }
    }

    /// The schedule follows the condensation: a chain is one cell per
    /// component in order, and a register that feeds itself through an
    /// adder forms one two-cell feedback group.
    #[test]
    fn schedule_is_the_condensation() {
        let mut b = NetlistBuilder::new("chain");
        let a = b.input("a", 4);
        let w1 = b.wire("w1", 4);
        let w2 = b.wire("w2", 4);
        let s = b.wire("s", 4);
        let q = b.wire("q", 4);
        b.cell("n1", CellKind::Not, &[a], w1).unwrap();
        b.cell("n2", CellKind::Not, &[w1], w2).unwrap();
        b.cell("add", CellKind::Add, &[w2, q], s).unwrap();
        b.cell("r", CellKind::Reg { has_enable: false }, &[s], q).unwrap();
        b.mark_output(q);
        let n = b.build().unwrap();
        let sim = CompiledSim::new(&n);
        let names: Vec<Vec<&str>> = sim
            .schedule()
            .map(|c| {
                let mut names: Vec<&str> = c.iter().map(|&id| n.cell(id).name()).collect();
                names.sort_unstable();
                names
            })
            .collect();
        assert_eq!(names, [vec!["n1"], vec!["n2"], vec!["add", "r"]]);
    }
}
