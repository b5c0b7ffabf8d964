//! The bit-parallel simulation engine: 64 stimulus lanes per `u64` word.
//!
//! # Lane packing layout
//!
//! Where the scalar engine stores one `u64` *value* per net, the packed
//! engine stores one `u64` word per **(net, bit)**: bit `l` of the word for
//! `(net, b)` is bit `b` of that net's value in *lane* `l`. A lane is one
//! independent stimulus plan; up to 64 lanes run in lock-step, so a single
//! pass over the netlist advances all of them at once. Words for a net are
//! contiguous (`offsets[net] .. offsets[net] + width`), LSB first.
//!
//! Logic cells evaluate **bitwise across all lanes simultaneously**: an
//! n-ary AND is `width` word-ANDs regardless of lane count, adders and
//! subtractors ripple a carry word across the output bits, comparators run
//! a borrow/difference chain, multipliers shift-add the multiplier's bit
//! planes with masked ripple-carry adds, and variable shifts run a barrel
//! of bit-plane mux stages keyed on the shift amount's planes. Only muxes
//! with more than two data inputs have no practical bitwise form and fall
//! back to per-lane evaluation: gather each lane's operand values from the
//! bit-sliced words, call the scalar oracle's
//! [`eval_comb_cell`](crate::eval::eval_comb_cell), and scatter the result
//! bits back. The fallback is exact by construction (it *is* the scalar
//! semantics), it just costs per-lane work like the scalar engine does.
//!
//! Runs with fewer than 64 lanes keep an `active_mask` of the low `n`
//! bits; every formula masks so that inactive lanes hold 0 everywhere,
//! which keeps carries, borrows, and state updates from leaking across the
//! boundary.
//!
//! # Exact toggle counting
//!
//! [`simulate_batch`] accumulates per-lane toggle and ones counts exactly
//! with the shared Harley–Seal vertical-counter kernel in
//! [`crate::stats`], fed one word per (net, bit) so that each counter lane
//! is one stimulus plan. The result is *bit-identical* to running the
//! scalar engine once per lane, which the differential suite
//! (`tests/sim_engine_equivalence.rs`) and the property tests
//! (`crates/sim/tests/prop_packed.rs`) verify.

use crate::engine::{EngineKind, SimBackend};
use crate::eval::eval_comb_cell;
use crate::stats::{BatchCounters, SimReport, FLUSH_INTERVAL};
use crate::stimulus::{Stimulus, StimulusPlan};
use crate::testbench::{instantiate_drivers, SimError, Testbench};
use oiso_netlist::{comb_topo_order, CellId, CellKind, NetId, Netlist};

/// Maximum number of lanes per packed block (one bit per lane in a `u64`).
pub const MAX_LANES: usize = 64;

/// One register's pre-resolved word offsets for the clock edge.
#[derive(Debug, Clone, Copy)]
struct PackedReg {
    d_off: u32,
    /// Word offset of the 1-bit enable net, or `u32::MAX` for always-load.
    en_off: u32,
    out_off: u32,
    state_off: u32,
    width: u8,
}

/// A bit-parallel simulation of one netlist over up to 64 lanes.
///
/// Mirrors [`Simulator`](crate::Simulator)'s cycle protocol —
/// [`set_input`](PackedSimulator::set_input) /
/// [`settle`](PackedSimulator::settle) /
/// [`clock_edge`](PackedSimulator::clock_edge) — except that inputs and
/// observed values carry a lane index. Most callers want
/// [`simulate_batch`] instead.
#[derive(Debug)]
pub struct PackedSimulator<'a> {
    netlist: &'a Netlist,
    topo: Vec<CellId>,
    /// Word offset of each net's bit 0; `offsets[num_nets]` is the total.
    offsets: Vec<u32>,
    /// One word per (net, bit): bit `l` = that bit's value in lane `l`.
    words: Vec<u64>,
    /// Per cell: offset into `state_words`, `u32::MAX` if combinational.
    state_off: Vec<u32>,
    state_words: Vec<u64>,
    regs: Vec<PackedReg>,
    reg_scratch: Vec<u64>,
    fallback_vals: Vec<u64>,
    n_lanes: usize,
    active_mask: u64,
    cycle: u64,
}

impl<'a> PackedSimulator<'a> {
    /// Creates a packed simulator with `n_lanes` active lanes (1..=64) and
    /// all nets and state at 0.
    ///
    /// # Panics
    ///
    /// Panics if `n_lanes` is 0 or exceeds [`MAX_LANES`].
    pub fn new(netlist: &'a Netlist, n_lanes: usize) -> Self {
        assert!(
            (1..=MAX_LANES).contains(&n_lanes),
            "lane count must be 1..=64, got {n_lanes}"
        );
        let mut offsets = Vec::with_capacity(netlist.num_nets() + 1);
        let mut total = 0u32;
        for (_, net) in netlist.nets() {
            offsets.push(total);
            total += net.width() as u32;
        }
        offsets.push(total);
        let mut state_off = vec![u32::MAX; netlist.num_cells()];
        let mut state_total = 0u32;
        let mut regs = Vec::new();
        let mut reg_bits = 0usize;
        for (cid, cell) in netlist.cells() {
            if !cell.kind().is_stateful() {
                continue;
            }
            let w = netlist.net(cell.output()).width();
            state_off[cid.index()] = state_total;
            if let CellKind::Reg { has_enable } = cell.kind() {
                regs.push(PackedReg {
                    d_off: offsets[cell.inputs()[0].index()],
                    en_off: if has_enable {
                        offsets[cell.inputs()[1].index()]
                    } else {
                        u32::MAX
                    },
                    out_off: offsets[cell.output().index()],
                    state_off: state_total,
                    width: w,
                });
                reg_bits += w as usize;
            }
            state_total += w as u32;
        }
        PackedSimulator {
            netlist,
            topo: comb_topo_order(netlist),
            offsets,
            words: vec![0; total as usize],
            state_off,
            state_words: vec![0; state_total as usize],
            regs,
            reg_scratch: vec![0; reg_bits],
            fallback_vals: Vec::with_capacity(8),
            n_lanes,
            active_mask: if n_lanes == MAX_LANES {
                u64::MAX
            } else {
                (1u64 << n_lanes) - 1
            },
            cycle: 0,
        }
    }

    /// The netlist under simulation.
    pub fn netlist(&self) -> &Netlist {
        self.netlist
    }

    /// Number of active lanes.
    pub fn n_lanes(&self) -> usize {
        self.n_lanes
    }

    /// Number of completed [`PackedSimulator::clock_edge`] calls.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Sets a primary input's value in one lane for the current cycle.
    ///
    /// # Panics
    ///
    /// Panics if `net` is not a primary input or `lane` is out of range.
    pub fn set_input(&mut self, net: NetId, lane: usize, value: u64) {
        assert!(
            self.netlist.net(net).is_primary_input(),
            "set_input on non-input net `{}`",
            self.netlist.net(net).name()
        );
        assert!(lane < self.n_lanes, "lane {lane} out of range");
        let v = value & self.netlist.net(net).mask();
        let off = self.offsets[net.index()] as usize;
        let w = self.netlist.net(net).width() as usize;
        let lane_bit = 1u64 << lane;
        for b in 0..w {
            let word = &mut self.words[off + b];
            *word = (*word & !lane_bit) | (((v >> b) & 1) << lane);
        }
    }

    /// The settled value of any net in one lane (meaningful after
    /// [`PackedSimulator::settle`]).
    pub fn lane_value(&self, net: NetId, lane: usize) -> u64 {
        assert!(lane < self.n_lanes, "lane {lane} out of range");
        let off = self.offsets[net.index()] as usize;
        let w = self.netlist.net(net).width() as usize;
        gather_word(&self.words, off, w, lane)
    }

    /// Evaluates all combinational logic for the current cycle, all lanes
    /// at once.
    pub fn settle(&mut self) {
        let amask = self.active_mask;
        for idx in 0..self.topo.len() {
            let cid = self.topo[idx];
            let cell = self.netlist.cell(cid);
            let out = cell.output();
            let out_off = self.offsets[out.index()] as usize;
            let out_w = self.netlist.net(out).width() as usize;
            let mut ob = [0u64; 64];
            match cell.kind() {
                CellKind::Add => {
                    let ao = self.offsets[cell.inputs()[0].index()] as usize;
                    let bo = self.offsets[cell.inputs()[1].index()] as usize;
                    let mut carry = 0u64;
                    for (b, slot) in ob.iter_mut().enumerate().take(out_w) {
                        let x = self.words[ao + b];
                        let y = self.words[bo + b];
                        *slot = x ^ y ^ carry;
                        carry = (x & y) | (carry & (x ^ y));
                    }
                }
                CellKind::Sub => {
                    // a − b = a + !b + 1: invert the subtrahend (active
                    // lanes only) and start the ripple with carry-in = 1.
                    let ao = self.offsets[cell.inputs()[0].index()] as usize;
                    let bo = self.offsets[cell.inputs()[1].index()] as usize;
                    let mut carry = amask;
                    for (b, slot) in ob.iter_mut().enumerate().take(out_w) {
                        let x = self.words[ao + b];
                        let y = !self.words[bo + b] & amask;
                        *slot = x ^ y ^ carry;
                        carry = (x & y) | (carry & (x ^ y));
                    }
                }
                CellKind::Lt => {
                    let ao = self.offsets[cell.inputs()[0].index()] as usize;
                    let bo = self.offsets[cell.inputs()[1].index()] as usize;
                    let w = self.netlist.net(cell.inputs()[0]).width() as usize;
                    let mut borrow = 0u64;
                    for b in 0..w {
                        let x = self.words[ao + b];
                        let y = self.words[bo + b];
                        borrow = (!x & (y | borrow)) | (x & y & borrow);
                    }
                    ob[0] = borrow & amask;
                }
                CellKind::Eq => {
                    let ao = self.offsets[cell.inputs()[0].index()] as usize;
                    let bo = self.offsets[cell.inputs()[1].index()] as usize;
                    let w = self.netlist.net(cell.inputs()[0]).width() as usize;
                    let mut diff = 0u64;
                    for b in 0..w {
                        diff |= self.words[ao + b] ^ self.words[bo + b];
                    }
                    ob[0] = !diff & amask;
                }
                CellKind::Mux if cell.inputs().len() == 3 => {
                    // Nonzero select picks d1 (the scalar engine clamps
                    // out-of-range selects to the last data input).
                    let so = self.offsets[cell.inputs()[0].index()] as usize;
                    let sw = self.netlist.net(cell.inputs()[0]).width() as usize;
                    let d0 = self.offsets[cell.inputs()[1].index()] as usize;
                    let d1 = self.offsets[cell.inputs()[2].index()] as usize;
                    let mut s = 0u64;
                    for b in 0..sw {
                        s |= self.words[so + b];
                    }
                    for (b, slot) in ob.iter_mut().enumerate().take(out_w) {
                        *slot = (!s & self.words[d0 + b]) | (s & self.words[d1 + b]);
                    }
                }
                CellKind::And => {
                    for (b, slot) in ob.iter_mut().enumerate().take(out_w) {
                        let mut acc = amask;
                        for &inp in cell.inputs() {
                            acc &= self.words[self.offsets[inp.index()] as usize + b];
                        }
                        *slot = acc;
                    }
                }
                CellKind::Or => {
                    for (b, slot) in ob.iter_mut().enumerate().take(out_w) {
                        let mut acc = 0u64;
                        for &inp in cell.inputs() {
                            acc |= self.words[self.offsets[inp.index()] as usize + b];
                        }
                        *slot = acc;
                    }
                }
                CellKind::Xor => {
                    for (b, slot) in ob.iter_mut().enumerate().take(out_w) {
                        let mut acc = 0u64;
                        for &inp in cell.inputs() {
                            acc ^= self.words[self.offsets[inp.index()] as usize + b];
                        }
                        *slot = acc;
                    }
                }
                CellKind::Not => {
                    let ao = self.offsets[cell.inputs()[0].index()] as usize;
                    for (b, slot) in ob.iter_mut().enumerate().take(out_w) {
                        *slot = !self.words[ao + b] & amask;
                    }
                }
                CellKind::Buf | CellKind::Zext => {
                    let ao = self.offsets[cell.inputs()[0].index()] as usize;
                    let iw = self.netlist.net(cell.inputs()[0]).width() as usize;
                    for (b, slot) in ob.iter_mut().enumerate().take(out_w.min(iw)) {
                        *slot = self.words[ao + b];
                    }
                }
                CellKind::RedOr => {
                    let ao = self.offsets[cell.inputs()[0].index()] as usize;
                    let iw = self.netlist.net(cell.inputs()[0]).width() as usize;
                    let mut s = 0u64;
                    for b in 0..iw {
                        s |= self.words[ao + b];
                    }
                    ob[0] = s;
                }
                CellKind::RedAnd => {
                    let ao = self.offsets[cell.inputs()[0].index()] as usize;
                    let iw = self.netlist.net(cell.inputs()[0]).width() as usize;
                    let mut acc = amask;
                    for b in 0..iw {
                        acc &= self.words[ao + b];
                    }
                    ob[0] = acc;
                }
                CellKind::Const { value } => {
                    for (b, slot) in ob.iter_mut().enumerate().take(out_w) {
                        *slot = if (value >> b) & 1 == 1 { amask } else { 0 };
                    }
                }
                CellKind::Slice { lo, .. } => {
                    let ao = self.offsets[cell.inputs()[0].index()] as usize;
                    for (b, slot) in ob.iter_mut().enumerate().take(out_w) {
                        *slot = self.words[ao + lo as usize + b];
                    }
                }
                CellKind::Concat => {
                    // Inputs are MSB-first; fill the output from the LSB by
                    // walking them in reverse (matches the scalar fold
                    // `acc = (acc << w) | v` plus the output-width mask).
                    let mut pos = 0usize;
                    for &inp in cell.inputs().iter().rev() {
                        let off = self.offsets[inp.index()] as usize;
                        let w = self.netlist.net(inp).width() as usize;
                        for b in 0..w {
                            if pos + b < out_w {
                                ob[pos + b] = self.words[off + b];
                            }
                        }
                        pos += w;
                    }
                }
                CellKind::Latch => {
                    // inputs: [d, en]; transparent when en = 1, per lane.
                    let d_off = self.offsets[cell.inputs()[0].index()] as usize;
                    let en = self.words[self.offsets[cell.inputs()[1].index()] as usize];
                    let soff = self.state_off[cid.index()] as usize;
                    for (b, slot) in ob.iter_mut().enumerate().take(out_w) {
                        let s = self.state_words[soff + b];
                        let new = (en & self.words[d_off + b]) | (!en & s);
                        self.state_words[soff + b] = new;
                        *slot = new;
                    }
                }
                CellKind::Mul => {
                    // Bit-sliced shift-add: for each multiplier bit j, the
                    // word `yj` selects the lanes where that bit is 1; those
                    // lanes add `x << j` into the accumulator via a masked
                    // ripple-carry add. Carries past the top bit drop, so
                    // the product is taken mod 2^w exactly like the scalar
                    // engine's wrapping multiply (operand and result widths
                    // are equal by netlist validation).
                    let ao = self.offsets[cell.inputs()[0].index()] as usize;
                    let bo = self.offsets[cell.inputs()[1].index()] as usize;
                    for j in 0..out_w {
                        let yj = self.words[bo + j];
                        if yj == 0 {
                            continue;
                        }
                        let mut carry = 0u64;
                        for (xw, slot) in self.words[ao..ao + out_w - j]
                            .iter()
                            .zip(ob[j..out_w].iter_mut())
                        {
                            let p = xw & yj;
                            let a = *slot;
                            *slot = a ^ p ^ carry;
                            carry = (a & p) | (carry & (a ^ p));
                        }
                    }
                }
                CellKind::Shl | CellKind::Shr => {
                    // Bit-sliced barrel shifter: one mux stage per bit of
                    // the shift amount; lanes where amount bit k is set
                    // (word `ak`) take the 2^k-shifted planes, the rest keep
                    // theirs. Out-of-range source planes are zero, so any
                    // lane whose amount reaches the output width shifts
                    // every bit out — the scalar engine's explicit
                    // `amt >= width → 0` cutoff, for free.
                    let ao = self.offsets[cell.inputs()[0].index()] as usize;
                    let so = self.offsets[cell.inputs()[1].index()] as usize;
                    let sw = self.netlist.net(cell.inputs()[1]).width() as usize;
                    let left = matches!(cell.kind(), CellKind::Shl);
                    ob[..out_w].copy_from_slice(&self.words[ao..ao + out_w]);
                    for k in 0..sw {
                        let ak = self.words[so + k];
                        if ak == 0 {
                            continue; // no lane shifts at this stage
                        }
                        let step = 1usize << k;
                        if step >= out_w {
                            for slot in ob.iter_mut().take(out_w) {
                                *slot &= !ak;
                            }
                            continue;
                        }
                        // In-place is safe walking away from the source
                        // direction: Shl reads lower planes (descend), Shr
                        // reads higher planes (ascend).
                        if left {
                            for b in (0..out_w).rev() {
                                let src = if b >= step { ob[b - step] } else { 0 };
                                ob[b] = (!ak & ob[b]) | (ak & src);
                            }
                        } else {
                            for b in 0..out_w {
                                let src = if b + step < out_w { ob[b + step] } else { 0 };
                                ob[b] = (!ak & ob[b]) | (ak & src);
                            }
                        }
                    }
                }
                // No practical bitwise form (a mux with 3+ data inputs):
                // evaluate each lane through the scalar oracle (exact by
                // construction).
                CellKind::Mux => {
                    for lane in 0..self.n_lanes {
                        self.fallback_vals.clear();
                        for &inp in cell.inputs() {
                            let off = self.offsets[inp.index()] as usize;
                            let w = self.netlist.net(inp).width() as usize;
                            self.fallback_vals.push(gather_word(&self.words, off, w, lane));
                        }
                        let r = eval_comb_cell(self.netlist, cell, &self.fallback_vals);
                        for (b, slot) in ob.iter_mut().enumerate().take(out_w) {
                            *slot |= ((r >> b) & 1) << lane;
                        }
                    }
                }
                CellKind::Reg { .. } => unreachable!("registers are not in the comb schedule"),
            }
            self.words[out_off..out_off + out_w].copy_from_slice(&ob[..out_w]);
        }
    }

    /// Advances the clock: registers sample their D inputs (respecting
    /// per-lane load enables) and drive the new state. Call after
    /// [`PackedSimulator::settle`].
    pub fn clock_edge(&mut self) {
        let amask = self.active_mask;
        // Two phases so register-to-register paths sample consistently.
        let mut pos = 0usize;
        for r in &self.regs {
            let load = if r.en_off == u32::MAX {
                amask
            } else {
                self.words[r.en_off as usize]
            };
            for b in 0..r.width as usize {
                let d = self.words[r.d_off as usize + b];
                let s = self.state_words[r.state_off as usize + b];
                self.reg_scratch[pos] = (load & d) | (!load & s);
                pos += 1;
            }
        }
        pos = 0;
        for r in &self.regs {
            for b in 0..r.width as usize {
                let v = self.reg_scratch[pos];
                pos += 1;
                self.state_words[r.state_off as usize + b] = v;
                self.words[r.out_off as usize + b] = v;
            }
        }
        self.cycle += 1;
    }
}

impl PackedSimulator<'_> {
    /// Drives a primary input across all lanes at once from a 64-entry
    /// lane-value array (entry `l` is lane `l`'s value; entries at or above
    /// the active lane count must be 0). For wide nets one 64×64 bit
    /// transpose replaces up to 64 per-lane bit scatters; narrow nets build
    /// their few planes directly.
    fn drive_planes(&mut self, net: NetId, lane_vals: &[u64; MAX_LANES]) {
        debug_assert!(self.netlist.net(net).is_primary_input());
        let m = self.netlist.net(net).mask();
        let off = self.offsets[net.index()] as usize;
        let w = self.netlist.net(net).width() as usize;
        if w * self.n_lanes >= 256 {
            let mut buf = [0u64; MAX_LANES];
            for (slot, &v) in buf.iter_mut().zip(lane_vals.iter()).take(self.n_lanes) {
                *slot = v & m;
            }
            transpose64(&mut buf);
            self.words[off..off + w].copy_from_slice(&buf[..w]);
        } else {
            for b in 0..w {
                let mut word = 0u64;
                for (lane, &v) in lane_vals.iter().enumerate().take(self.n_lanes) {
                    word |= ((v >> b) & 1) << lane;
                }
                self.words[off + b] = word;
            }
        }
    }
}

/// In-place transpose of a 64×64 bit matrix: bit `c` of row `r` moves to
/// bit `r` of row `c` (the recursive block-swap of Hacker's Delight §7-3,
/// widened to 64 rows).
fn transpose64(a: &mut [u64; 64]) {
    let mut j = 32usize;
    let mut m = 0x0000_0000_FFFF_FFFFu64;
    while j != 0 {
        let mut k = 0usize;
        while k < 64 {
            let t = ((a[k] >> j) ^ a[k + j]) & m;
            a[k] ^= t << j;
            a[k + j] ^= t;
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        m ^= m << j;
    }
}

/// Reassembles one lane's value of a net from its bit-sliced words.
fn gather_word(words: &[u64], off: usize, width: usize, lane: usize) -> u64 {
    let mut v = 0u64;
    for b in 0..width {
        v |= ((words[off + b] >> lane) & 1) << b;
    }
    v
}

/// Single-lane packed backend so `Testbench` runs can use the packed
/// engine through the common [`SimBackend`] loop. Gathers all nets into a
/// dense value cache when observed — correct because `settle` never writes
/// register-output nets, so post-edge values survive into the next
/// observation.
pub(crate) struct PackedLane<'a> {
    sim: PackedSimulator<'a>,
    cache: Vec<u64>,
}

impl<'a> PackedLane<'a> {
    pub(crate) fn new(netlist: &'a Netlist) -> Self {
        PackedLane {
            cache: vec![0; netlist.num_nets()],
            sim: PackedSimulator::new(netlist, 1),
        }
    }
}

impl SimBackend for PackedLane<'_> {
    fn write_input(&mut self, index: usize, value: u64) {
        let off = self.sim.offsets[index] as usize;
        let end = self.sim.offsets[index + 1] as usize;
        for (b, word) in self.sim.words[off..end].iter_mut().enumerate() {
            *word = (value >> b) & 1;
        }
    }

    fn settle(&mut self) {
        self.sim.settle();
    }

    fn clock_edge(&mut self) {
        self.sim.clock_edge();
    }

    fn values(&mut self) -> &[u64] {
        for (net, slot) in self.cache.iter_mut().enumerate() {
            let off = self.sim.offsets[net] as usize;
            let w = (self.sim.offsets[net + 1] - self.sim.offsets[net]) as usize;
            *slot = gather_word(&self.sim.words, off, w, 0);
        }
        &self.cache
    }
}

/// Simulates many independent stimulus plans over one netlist and returns
/// one [`SimReport`] per plan, in order.
///
/// With [`EngineKind::Packed`] the plans are packed 64 to a block and run
/// bit-parallel with exact vertical-counter statistics — the fast path this
/// function exists for. The other engines run the plans sequentially
/// through [`Testbench::from_plan`]; every engine returns bit-identical
/// reports. Batch reports carry toggle counts and static probabilities but
/// no monitors or traces (attach those via a [`Testbench`] run).
///
/// # Errors
///
/// Returns an error if `cycles` is 0 or any plan leaves a primary input
/// undriven, names an unknown input, targets a non-input net, or contains
/// an invalid stimulus spec — the same checks a `Testbench` run performs.
pub fn simulate_batch(
    netlist: &Netlist,
    plans: &[StimulusPlan],
    cycles: u64,
    engine: EngineKind,
) -> Result<Vec<SimReport>, SimError> {
    if cycles == 0 {
        return Err(SimError::ZeroCycles);
    }
    match engine {
        EngineKind::Scalar | EngineKind::Compiled => plans
            .iter()
            .map(|plan| Testbench::from_plan(netlist, plan)?.run_with_engine(cycles, engine))
            .collect(),
        EngineKind::Packed => {
            let mut reports = Vec::with_capacity(plans.len());
            for chunk in plans.chunks(MAX_LANES) {
                run_packed_block(netlist, chunk, cycles, &mut reports)?;
            }
            Ok(reports)
        }
    }
}

/// Runs one block of up to 64 plans bit-parallel and appends their reports.
fn run_packed_block(
    netlist: &Netlist,
    plans: &[StimulusPlan],
    cycles: u64,
    reports: &mut Vec<SimReport>,
) -> Result<(), SimError> {
    let n_lanes = plans.len();
    // Drivers are re-keyed from net IDs to slots in a dedup'd driven-net
    // list, so each cycle fills a `slot × lane` value matrix and drives
    // each net's bit planes in one transpose instead of 64 bit scatters.
    // Within a lane the plan's driver order is kept (a duplicate driver
    // overwrites its slot, matching sequential `set_input` calls).
    let mut driven: Vec<NetId> = Vec::new();
    let mut lanes: Vec<Vec<(usize, Box<dyn Stimulus>)>> = Vec::with_capacity(n_lanes);
    for plan in plans {
        let drivers = instantiate_drivers(netlist, plan)?;
        // Every primary input must have a driver, same as a Testbench run.
        for &pi in netlist.primary_inputs() {
            if !drivers.iter().any(|(net, _)| *net == pi) {
                return Err(SimError::UndrivenInput(
                    netlist.net(pi).name().to_string(),
                ));
            }
        }
        lanes.push(
            drivers
                .into_iter()
                .map(|(net, stim)| {
                    let slot = driven.iter().position(|&d| d == net).unwrap_or_else(|| {
                        driven.push(net);
                        driven.len() - 1
                    });
                    (slot, stim)
                })
                .collect(),
        );
    }
    let mut sim = PackedSimulator::new(netlist, n_lanes);
    let total_bits = sim.offsets[netlist.num_nets()] as usize;
    let mut counters = BatchCounters::new(total_bits, n_lanes, netlist.num_nets());
    let mut mat = vec![[0u64; MAX_LANES]; driven.len()];
    for cycle in 0..cycles {
        for (lane, drivers) in lanes.iter_mut().enumerate() {
            for (slot, stim) in drivers.iter_mut() {
                mat[*slot][lane] = stim.next_value(cycle);
            }
        }
        for (slot, &net) in driven.iter().enumerate() {
            sim.drive_planes(net, &mat[slot]);
        }
        sim.settle();
        counters.add_cycle(&sim.words);
        if (cycle + 1) % FLUSH_INTERVAL == 0 {
            counters.flush(&sim.offsets);
        }
        sim.clock_edge();
    }
    counters.flush(&sim.offsets);
    for lane in 0..n_lanes {
        let toggles: Vec<u64> = (0..netlist.num_nets())
            .map(|net| counters.toggle_acc[net * n_lanes + lane])
            .collect();
        let ones: Vec<Vec<u64>> = (0..netlist.num_nets())
            .map(|net| {
                let off = sim.offsets[net] as usize;
                let end = sim.offsets[net + 1] as usize;
                (off..end)
                    .map(|w| counters.ones_acc[w * n_lanes + lane])
                    .collect()
            })
            .collect();
        reports.push(SimReport::from_counts(netlist, cycles, toggles, ones));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Simulator;
    use crate::stimulus::StimulusSpec;
    use oiso_netlist::NetlistBuilder;

    /// A design hitting bitwise adders/subtractors/comparators, a 2-data
    /// mux, logic gates, a latch, an enabled register, and a per-lane
    /// fallback multiplier.
    fn mixed_design() -> Netlist {
        let mut b = NetlistBuilder::new("mixed");
        let x = b.input("x", 8);
        let y = b.input("y", 8);
        let en = b.input("en", 1);
        let sum = b.wire("sum", 8);
        let diff = b.wire("diff", 8);
        let prod = b.wire("prod", 8);
        let lt = b.wire("lt", 1);
        let eq = b.wire("eq", 1);
        let m = b.wire("m", 8);
        let g = b.wire("g", 8);
        let lat = b.wire("lat", 8);
        let q = b.wire("q", 8);
        b.cell("add", CellKind::Add, &[x, y], sum).unwrap();
        b.cell("sub", CellKind::Sub, &[x, y], diff).unwrap();
        b.cell("mul", CellKind::Mul, &[x, y], prod).unwrap();
        b.cell("cmp", CellKind::Lt, &[x, y], lt).unwrap();
        b.cell("cme", CellKind::Eq, &[x, y], eq).unwrap();
        b.cell("mx", CellKind::Mux, &[lt, sum, diff], m).unwrap();
        b.cell("gx", CellKind::Xor, &[m, prod], g).unwrap();
        b.cell("l", CellKind::Latch, &[g, en], lat).unwrap();
        b.cell("r", CellKind::Reg { has_enable: true }, &[lat, eq], q)
            .unwrap();
        b.mark_output(q);
        b.build().unwrap()
    }

    #[test]
    fn lanes_match_scalar_cycle_by_cycle() {
        let n = mixed_design();
        let x = n.find_net("x").unwrap();
        let y = n.find_net("y").unwrap();
        let en = n.find_net("en").unwrap();
        let n_lanes = 5;
        let mut packed = PackedSimulator::new(&n, n_lanes);
        let mut scalars: Vec<Simulator> = (0..n_lanes).map(|_| Simulator::new(&n)).collect();
        for cycle in 0..300u64 {
            for (lane, scalar) in scalars.iter_mut().enumerate() {
                let xv = cycle.wrapping_mul(31).wrapping_add(lane as u64 * 7) & 0xFF;
                let yv = cycle.wrapping_mul(53).wrapping_add(lane as u64 * 11) & 0xFF;
                let ev = (cycle + lane as u64).is_multiple_of(3);
                packed.set_input(x, lane, xv);
                packed.set_input(y, lane, yv);
                packed.set_input(en, lane, ev as u64);
                scalar.set_input(x, xv);
                scalar.set_input(y, yv);
                scalar.set_input(en, ev as u64);
            }
            packed.settle();
            for s in &mut scalars {
                s.settle();
            }
            for (lane, s) in scalars.iter().enumerate() {
                for (nid, _) in n.nets() {
                    assert_eq!(
                        packed.lane_value(nid, lane),
                        s.value(nid),
                        "net {} lane {lane} cycle {cycle}",
                        n.net(nid).name()
                    );
                }
            }
            packed.clock_edge();
            for s in &mut scalars {
                s.clock_edge();
            }
        }
    }

    #[test]
    fn batch_reports_match_scalar_runs() {
        let n = mixed_design();
        let plans: Vec<StimulusPlan> = (0..7)
            .map(|i| {
                StimulusPlan::new(100 + i)
                    .drive("x", StimulusSpec::UniformRandom)
                    .drive("y", StimulusSpec::UniformRandom)
                    .drive("en", StimulusSpec::MarkovBits {
                        p_one: 0.4,
                        toggle_rate: 0.3,
                    })
            })
            .collect();
        // 2500 cycles crosses the vertical-counter flush boundary.
        let packed = simulate_batch(&n, &plans, 2500, EngineKind::Packed).unwrap();
        let scalar = simulate_batch(&n, &plans, 2500, EngineKind::Scalar).unwrap();
        assert_eq!(packed.len(), plans.len());
        for (lane, (p, s)) in packed.iter().zip(&scalar).enumerate() {
            assert_eq!(p.cycles(), s.cycles());
            for (nid, net) in n.nets() {
                assert_eq!(
                    p.toggle_count(nid),
                    s.toggle_count(nid),
                    "toggles of {} lane {lane}",
                    net.name()
                );
                for bit in 0..net.width() {
                    assert_eq!(
                        p.static_prob(nid, bit),
                        s.static_prob(nid, bit),
                        "ones of {} bit {bit} lane {lane}",
                        net.name()
                    );
                }
            }
        }
    }

    #[test]
    fn batch_rejects_zero_cycles_and_bad_plans() {
        let n = mixed_design();
        let plan = StimulusPlan::new(1)
            .drive("x", StimulusSpec::UniformRandom)
            .drive("y", StimulusSpec::UniformRandom)
            .drive("en", StimulusSpec::Constant(1));
        assert!(matches!(
            simulate_batch(&n, std::slice::from_ref(&plan), 0, EngineKind::Packed),
            Err(SimError::ZeroCycles)
        ));
        let missing = StimulusPlan::new(1).drive("x", StimulusSpec::UniformRandom);
        assert!(matches!(
            simulate_batch(&n, &[missing], 10, EngineKind::Packed),
            Err(SimError::UndrivenInput(_))
        ));
        let unknown = plan.clone().drive("nope", StimulusSpec::Constant(0));
        assert!(matches!(
            simulate_batch(&n, &[unknown], 10, EngineKind::Packed),
            Err(SimError::UnknownInput(_))
        ));
    }
}
