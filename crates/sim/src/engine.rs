//! The cycle-based simulation engine.
//!
//! Per clock cycle the engine:
//!
//! 1. applies externally supplied primary-input values,
//! 2. evaluates all combinational cells in topological order — transparent
//!    latches update their stored value when enabled and always drive it,
//! 3. lets the caller observe settled net values (statistics, monitors,
//!    waveform dump),
//! 4. on [`Simulator::clock_edge`], samples every register's D (respecting
//!    load enables) and drives the new state onto the register outputs.
//!
//! Registers and latches initialize to 0, the usual reset state of
//! synthesized datapath blocks.

use oiso_netlist::{comb_topo_order, eval_comb_cell, CellId, CellKind, NetId, Netlist};

/// Which simulation engine executes a run.
///
/// Both engines are proven bit-identical by the differential test battery
/// (`tests/sim_engine_equivalence.rs`): same netlist + same stimulus plan
/// produce the same per-net toggle counts, per-bit static probabilities,
/// waveforms, and monitor statistics. Because results are
/// engine-invariant, the engine is deliberately *not* part of any
/// fingerprint — [`SimMemo`](crate::SimMemo) entries and checkpoint
/// journals are shared freely across engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EngineKind {
    /// The reference interpreter: walks the netlist graph cell by cell.
    /// Kept as the oracle the compiled engine is differentially tested
    /// against.
    Scalar,
    /// Compiled mode: levelizes the netlist once into a flat straight-line
    /// op tape (pre-resolved indices into the dense value arena) and
    /// replays the tape each cycle instead of re-walking the graph (see
    /// [`crate::tape`]). The fast engine, hence the default; statistics
    /// counting and monitors are the same shared testbench loop on both
    /// engines.
    #[default]
    Compiled,
}

impl EngineKind {
    /// Both engines, oracle first (test matrices iterate this).
    pub const ALL: [EngineKind; 2] = [EngineKind::Scalar, EngineKind::Compiled];

    /// Stable lowercase name (CLI flags, JSON fields, logs).
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Scalar => "scalar",
            EngineKind::Compiled => "compiled",
        }
    }

    /// Parses a CLI/JSON engine name.
    ///
    /// # Errors
    ///
    /// Returns a description of the accepted values on unknown input.
    pub fn parse(raw: &str) -> Result<EngineKind, String> {
        match raw {
            "scalar" => Ok(EngineKind::Scalar),
            "compiled" => Ok(EngineKind::Compiled),
            other => Err(format!("engine must be scalar|compiled, got {other:?}")),
        }
    }
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for EngineKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        EngineKind::parse(s)
    }
}

/// Cycles per block of the testbench loop, one per bit of a `u64`:
/// engines simulate a block at a time, and monitors and conditional
/// toggles are evaluated once per block, on one bit-plane word per signal.
pub const BLOCK: usize = 64;

/// The uniform surface the testbench drives: a column arena of [`BLOCK`]
/// words per net, `columns[net * BLOCK + t]` being the net's value in
/// cycle `t` of the current block.
pub(crate) trait SimBackend {
    /// The arena, for writing the primary-input columns. Unchecked: the
    /// caller writes only primary inputs' columns, masked to their widths.
    fn columns_mut(&mut self) -> &mut [u64];
    /// Simulates the block's first `n` cycles (`1 ..= BLOCK`): each cycle
    /// settles the logic on the input columns and then clocks the
    /// registers, leaving every net's settled values in its column.
    fn run_block(&mut self, n: usize);
    /// The arena after [`SimBackend::run_block`].
    fn columns(&self) -> &[u64];
}

/// The scalar oracle behind the block surface: it steps the block's cycles
/// one at a time and scatters each cycle's settled values into the
/// columns, so one testbench loop serves both engines.
#[derive(Debug)]
pub(crate) struct ScalarColumns<'a> {
    sim: Simulator<'a>,
    columns: Vec<u64>,
}

impl<'a> ScalarColumns<'a> {
    pub(crate) fn new(netlist: &'a Netlist) -> Self {
        ScalarColumns {
            sim: Simulator::new(netlist),
            columns: vec![0; netlist.num_nets() * BLOCK],
        }
    }
}

impl SimBackend for ScalarColumns<'_> {
    fn columns_mut(&mut self) -> &mut [u64] {
        &mut self.columns
    }

    fn run_block(&mut self, n: usize) {
        let sim = &mut self.sim;
        for t in 0..n {
            for &pi in sim.netlist.primary_inputs() {
                sim.values[pi.index()] = self.columns[pi.index() * BLOCK + t];
            }
            sim.settle();
            for (net, &v) in sim.values.iter().enumerate() {
                self.columns[net * BLOCK + t] = v;
            }
            sim.clock_edge();
        }
    }

    fn columns(&self) -> &[u64] {
        &self.columns
    }
}

/// A running simulation of one netlist.
///
/// The [`Testbench`](crate::Testbench) wraps this with stimulus and
/// statistics; use `Simulator` directly for fine-grained control (e.g.
/// single-stepping a design in a test).
#[derive(Debug)]
pub struct Simulator<'a> {
    netlist: &'a Netlist,
    topo: Vec<CellId>,
    values: Vec<u64>,
    state: Vec<u64>, // per cell: register/latch stored value
    input_scratch: Vec<u64>,
    /// The registers, in cell order, and each one's next state, filled by
    /// the first phase of [`Simulator::clock_edge`].
    regs: Vec<CellId>,
    reg_next: Vec<u64>,
    cycle: u64,
}

impl<'a> Simulator<'a> {
    /// Creates a simulator with all nets and state at 0.
    pub fn new(netlist: &'a Netlist) -> Self {
        let regs: Vec<CellId> = netlist.registers().collect();
        Simulator {
            netlist,
            topo: comb_topo_order(netlist),
            values: vec![0; netlist.num_nets()],
            state: vec![0; netlist.num_cells()],
            input_scratch: Vec::with_capacity(8),
            reg_next: vec![0; regs.len()],
            regs,
            cycle: 0,
        }
    }

    /// The netlist under simulation.
    pub fn netlist(&self) -> &Netlist {
        self.netlist
    }

    /// Number of completed [`Simulator::clock_edge`] calls.
    pub fn cycle(&self) -> u64 {
        self.cycle
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
    /// [`Simulator::settle`]).
    pub fn value(&self, net: NetId) -> u64 {
        self.values[net.index()]
    }

    /// One bit of a settled net value.
    pub fn bit(&self, net: NetId, bit: u8) -> bool {
        (self.values[net.index()] >> bit) & 1 == 1
    }

    /// Evaluates all combinational logic for the current cycle.
    pub fn settle(&mut self) {
        for idx in 0..self.topo.len() {
            let cid = self.topo[idx];
            let cell = self.netlist.cell(cid);
            let out = cell.output().index();
            match cell.kind() {
                CellKind::Latch => {
                    // inputs: [d, en]; transparent when en = 1.
                    let d = self.values[cell.inputs()[0].index()];
                    let en = self.values[cell.inputs()[1].index()] & 1;
                    if en == 1 {
                        self.state[cid.index()] = d;
                    }
                    self.values[out] = self.state[cid.index()];
                }
                _ => {
                    self.input_scratch.clear();
                    for &inp in cell.inputs() {
                        self.input_scratch.push(self.values[inp.index()]);
                    }
                    self.values[out] = eval_comb_cell(self.netlist, cell, &self.input_scratch);
                }
            }
        }
    }

    /// Advances the clock: registers sample their D inputs (respecting load
    /// enables) and drive the new state. Call after [`Simulator::settle`].
    pub fn clock_edge(&mut self) {
        // Two phases so that register-to-register paths sample consistently.
        // A register that does not load keeps its state, which its output
        // net already carries.
        for (next, &cid) in self.reg_next.iter_mut().zip(&self.regs) {
            let cell = self.netlist.cell(cid);
            let load = cell.enable().is_none_or(|en| self.values[en.index()] & 1 == 1);
            *next = if load {
                self.values[cell.inputs()[0].index()]
            } else {
                self.state[cid.index()]
            };
        }
        for (&next, &cid) in self.reg_next.iter().zip(&self.regs) {
            self.state[cid.index()] = next;
            self.values[self.netlist.cell(cid).output().index()] = next;
        }
        self.cycle += 1;
    }

    /// Forces a register's or latch's stored state (testing hook).
    ///
    /// # Panics
    ///
    /// Panics if `cell` is not stateful.
    pub fn force_state(&mut self, cell: CellId, value: u64) {
        let c = self.netlist.cell(cell);
        assert!(c.kind().is_stateful(), "force_state on combinational cell");
        let masked = value & self.netlist.net(c.output()).mask();
        self.state[cell.index()] = masked;
        self.values[c.output().index()] = masked;
    }

    /// The stored state of a register or latch.
    pub fn stored_state(&self, cell: CellId) -> u64 {
        self.state[cell.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oiso_netlist::NetlistBuilder;

    #[test]
    fn accumulator_integrates() {
        let mut b = NetlistBuilder::new("acc");
        let a = b.input("a", 8);
        let sum = b.wire("sum", 8);
        let q = b.wire("q", 8);
        b.cell("add", CellKind::Add, &[a, q], sum).unwrap();
        b.cell("r", CellKind::Reg { has_enable: false }, &[sum], q)
            .unwrap();
        b.mark_output(q);
        let n = b.build().unwrap();
        let mut sim = Simulator::new(&n);
        for step in 1..=5u64 {
            sim.set_input(a, 3);
            sim.settle();
            sim.clock_edge();
            assert_eq!(sim.value(q), 3 * step);
        }
        assert_eq!(sim.cycle(), 5);
    }

    #[test]
    fn register_enable_holds_value() {
        let mut b = NetlistBuilder::new("hold");
        let d = b.input("d", 4);
        let en = b.input("en", 1);
        let q = b.wire("q", 4);
        b.cell("r", CellKind::Reg { has_enable: true }, &[d, en], q)
            .unwrap();
        b.mark_output(q);
        let n = b.build().unwrap();
        let mut sim = Simulator::new(&n);

        sim.set_input(d, 9);
        sim.set_input(en, 1);
        sim.settle();
        sim.clock_edge();
        assert_eq!(sim.value(q), 9);

        sim.set_input(d, 3);
        sim.set_input(en, 0);
        sim.settle();
        sim.clock_edge();
        assert_eq!(sim.value(q), 9, "disabled register must hold");
    }

    #[test]
    fn latch_transparent_and_opaque() {
        let mut b = NetlistBuilder::new("lat");
        let d = b.input("d", 4);
        let en = b.input("en", 1);
        let q = b.wire("q", 4);
        b.cell("l", CellKind::Latch, &[d, en], q).unwrap();
        b.mark_output(q);
        let n = b.build().unwrap();
        let mut sim = Simulator::new(&n);

        // Transparent: q follows d within the same cycle.
        sim.set_input(d, 7);
        sim.set_input(en, 1);
        sim.settle();
        assert_eq!(sim.value(q), 7);
        sim.clock_edge();

        // Opaque: q freezes at the held value — this is precisely how a
        // latch-based isolation bank blocks operand transitions.
        sim.set_input(d, 2);
        sim.set_input(en, 0);
        sim.settle();
        assert_eq!(sim.value(q), 7);
        sim.clock_edge();
        sim.set_input(d, 15);
        sim.settle();
        assert_eq!(sim.value(q), 7);
    }

    #[test]
    fn shift_register_pipelines() {
        // Two back-to-back registers: data takes two edges to traverse,
        // proving edge sampling is consistent (no shoot-through).
        let mut b = NetlistBuilder::new("pipe");
        let d = b.input("d", 4);
        let q1 = b.wire("q1", 4);
        let q2 = b.wire("q2", 4);
        b.cell("r1", CellKind::Reg { has_enable: false }, &[d], q1)
            .unwrap();
        b.cell("r2", CellKind::Reg { has_enable: false }, &[q1], q2)
            .unwrap();
        b.mark_output(q2);
        let n = b.build().unwrap();
        let mut sim = Simulator::new(&n);

        sim.set_input(d, 5);
        sim.settle();
        sim.clock_edge();
        assert_eq!(sim.value(q1), 5);
        assert_eq!(sim.value(q2), 0, "q2 must get the *old* q1");

        sim.set_input(d, 0);
        sim.settle();
        sim.clock_edge();
        assert_eq!(sim.value(q2), 5);
    }

    #[test]
    fn force_state_overrides() {
        let mut b = NetlistBuilder::new("f");
        let d = b.input("d", 8);
        let q = b.wire("q", 8);
        b.cell("r", CellKind::Reg { has_enable: false }, &[d], q)
            .unwrap();
        b.mark_output(q);
        let n = b.build().unwrap();
        let r = n.find_cell("r").unwrap();
        let mut sim = Simulator::new(&n);
        sim.force_state(r, 0x1AB);
        assert_eq!(sim.value(q), 0xAB, "masked to 8 bits");
        assert_eq!(sim.stored_state(r), 0xAB);
    }

    #[test]
    #[should_panic(expected = "set_input on non-input net")]
    fn set_input_rejects_internal_nets() {
        let mut b = NetlistBuilder::new("x");
        let d = b.input("d", 4);
        let q = b.wire("q", 4);
        b.cell("bufc", CellKind::Buf, &[d], q).unwrap();
        b.mark_output(q);
        let n = b.build().unwrap();
        let mut sim = Simulator::new(&n);
        sim.set_input(q, 1);
    }
}
