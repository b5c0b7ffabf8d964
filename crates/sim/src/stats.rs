//! Switching statistics collected during simulation.
//!
//! # Exact counting
//!
//! Both engines count toggles and ones with one kernel, `NetCounters`:
//! *vertical counters* (bit-sliced carry-save counters, as in the
//! bit-transition-counter literature) fed by a Harley–Seal carry-save
//! adder tree. Each cycle's settled net values are packed side by side
//! into a *frame* of `u64` words, so a *lane* — a bit position within a
//! word — is one bit of one net. The kernel counts, per word and lane, how
//! many frames had the bit set (ones) and how many frames changed it from
//! the frame before (toggles, via `popcount(frame[t] ^ frame[t+1])`).

use crate::engine::BLOCK;
use oiso_netlist::{NetId, Netlist};
use std::collections::HashMap;

/// Depth of a vertical (bit-sliced carry-save) counter: each counter holds
/// per-lane counts up to `2^VC_DEPTH − 1` between flushes.
const VC_DEPTH: usize = 16;

/// Most cycles between vertical-counter flushes. Each per-word counter
/// gets at most one addition per cycle, so counts stay at most
/// `FLUSH_INTERVAL = 1000 < 2^10`: the bank's branchless ripple covers
/// them, with a wide margin below `2^16 − 1` (kept low so routine tests
/// cross the flush boundary).
const FLUSH_INTERVAL: u64 = 1000;

/// Drains a vertical counter into per-lane accumulators and zeroes it.
fn vc_flush(vc: &mut [u64], acc: &mut [u64]) {
    for (k, w) in vc.iter_mut().enumerate() {
        let mut word = *w;
        while word != 0 {
            let lane = word.trailing_zeros() as usize;
            if lane < acc.len() {
                acc[lane] += 1u64 << k;
            }
            word &= word - 1;
        }
        *w = 0;
    }
}

/// One carry-save adder step: returns `(sum, carry)` of three bit vectors.
#[inline(always)]
fn csa(a: u64, b: u64, c: u64) -> (u64, u64) {
    let u = a ^ b;
    (u ^ c, (a & b) | (c & u))
}

/// Adds, per lane, the number of set bits among the block's 64 frame words
/// `d` into word `w` of a level-major counter bank.
fn count_into(bank: &mut [Vec<u64>], w: usize, d: &[u64; BLOCK]) {
    // Harley–Seal: fold 8 inputs at a time into ones/twos/fours/eights;
    // each step's carry out of the eights is half-added into a 3-level
    // count of sixteens (a block adds at most 64 per lane).
    let (mut ones, mut twos, mut fours, mut eights) = (0u64, 0, 0, 0);
    let (mut s16, mut s32, mut s64) = (0u64, 0, 0);
    for i in (0..BLOCK).step_by(8) {
        let (o1, t1) = csa(ones, d[i], d[i + 1]);
        let (o2, t2) = csa(o1, d[i + 2], d[i + 3]);
        let (tw1, f1) = csa(twos, t1, t2);
        let (o3, t3) = csa(o2, d[i + 4], d[i + 5]);
        let (o4, t4) = csa(o3, d[i + 6], d[i + 7]);
        let (tw2, f2) = csa(tw1, t3, t4);
        let (fo, e) = csa(fours, f1, f2);
        let (ei, sx) = csa(eights, e, 0);
        ones = o4;
        twos = tw2;
        fours = fo;
        eights = ei;
        let c16 = s16 & sx;
        s16 ^= sx;
        let c32 = s32 & c16;
        s32 ^= c16;
        s64 |= c32;
    }
    // Add the 7-level number into the bank: branchless ripple through
    // level 9 (counts stay < 2^10 between flushes), sparse tail above.
    let num = [ones, twos, fours, eights, s16, s32, s64];
    let mut c = 0u64;
    for (k, slot) in bank.iter_mut().enumerate().take(10) {
        let x = num.get(k).copied().unwrap_or(0);
        let (lo, hi) = csa(slot[w], x, c);
        slot[w] = lo;
        c = hi;
    }
    let mut k = 10;
    while c != 0 {
        debug_assert!(k < bank.len(), "vertical counter overflow");
        let t = bank[k][w];
        bank[k][w] = t ^ c;
        c &= t;
        k += 1;
    }
}

/// Exact per-net toggle and per-bit ones counts of a single-plan run.
///
/// Each cycle's net values are packed into a frame of words, a net at a
/// time; a net that does not fit in the rest of the current word starts
/// the next one. Net `n`'s bit `b` is then lane `shift + b` of word
/// `word`, where `(word, shift) = place[n]`. Packing costs a shift and an
/// OR per net and cycle — one contiguous loop over each net's block column
/// — and lets the kernel count several narrow nets per word.
///
/// A block's frames are packed word-major, so each word's 64 frame values
/// sit side by side; a Harley–Seal carry-save adder tree compresses them
/// into a 7-level vertical number (counts 0..=64 per lane) in
/// straight-line branchless code, which is added into a deep level-major
/// counter bank. Amortized over the block this is a few ops per word per
/// cycle — far cheaper than maintaining the deep counters cycle by cycle,
/// where every cycle pays its own carry propagation. Toggles are counted
/// per word and lane too, and folded per net only at the end.
pub(crate) struct NetCounters {
    place: Vec<(usize, u32)>,
    /// Words per frame.
    words: usize,
    /// The current block's frames, word-major: `frames[w * BLOCK + t]` is
    /// word `w` of cycle `t`'s frame.
    frames: Vec<u64>,
    /// Last frame of the previous block, which the toggles of the next
    /// block's first frame are counted against.
    prev_last: Vec<u64>,
    /// No frame precedes the very first one, so its toggle XOR is zero.
    has_prev: bool,
    /// Level-major vertical counters: `ones_vc[k][w]` is bit `k` of word
    /// `w`'s per-lane ones count. `tog_vc` counts word toggles the same way.
    ones_vc: Vec<Vec<u64>>,
    tog_vc: Vec<Vec<u64>>,
    /// Flushed toggle and ones totals: `acc[w * 64 + lane]` for word `w`.
    toggle_acc: Vec<u64>,
    ones_acc: Vec<u64>,
    /// Cycles counted since the last flush.
    unflushed: u64,
}

impl NetCounters {
    pub(crate) fn new(netlist: &Netlist) -> Self {
        const BITS: u32 = u64::BITS;
        let mut place = Vec::with_capacity(netlist.num_nets());
        let (mut word, mut used) = (0usize, 0u32);
        for (_, net) in netlist.nets() {
            let width = net.width() as u32;
            if used + width > BITS {
                word += 1;
                used = 0;
            }
            place.push((word, used));
            used += width;
        }
        let words = word + 1;
        NetCounters {
            place,
            words,
            frames: vec![0; words * BLOCK],
            prev_last: vec![0; words],
            has_prev: false,
            ones_vc: vec![vec![0; words]; VC_DEPTH],
            tog_vc: vec![vec![0; words]; VC_DEPTH],
            toggle_acc: vec![0; words * BITS as usize],
            ones_acc: vec![0; words * BITS as usize],
            unflushed: 0,
        }
    }

    /// Counts the first `n` cycles of a block of settled values, laid out
    /// as columns: `columns[net * BLOCK + t]` is the net's value in cycle
    /// `t`. Each value must be masked to its net's width, as both engines
    /// keep them; stray high bits would land in the next net's lanes.
    pub(crate) fn add_block(&mut self, columns: &[u64], n: usize) {
        self.frames.fill(0);
        for (col, &(word, shift)) in columns.chunks_exact(BLOCK).zip(&self.place) {
            let row = &mut self.frames[word * BLOCK..][..BLOCK];
            for (frame, &v) in row.iter_mut().zip(col) {
                *frame |= v << shift;
            }
        }
        for (w, row) in self.frames.chunks_exact(BLOCK).enumerate() {
            let mut d = [0u64; BLOCK];
            d[..n].copy_from_slice(&row[..n]);
            count_into(&mut self.ones_vc, w, &d);
            let mut prev = self.prev_last[w];
            for (slot, &cur) in d.iter_mut().zip(&row[..n]) {
                *slot = cur ^ prev;
                prev = cur;
            }
            if !self.has_prev {
                d[0] = 0;
            }
            self.prev_last[w] = prev;
            count_into(&mut self.tog_vc, w, &d);
        }
        self.has_prev = true;
        self.unflushed += n as u64;
        if self.unflushed + BLOCK as u64 > FLUSH_INTERVAL {
            self.flush();
        }
    }

    /// Flushes every vertical counter into the per-lane accumulators.
    fn flush(&mut self) {
        const LANES: usize = u64::BITS as usize;
        let mut tmp = [0u64; VC_DEPTH];
        for w in 0..self.words {
            let lanes = w * LANES..(w + 1) * LANES;
            for (k, t) in tmp.iter_mut().enumerate() {
                *t = self.ones_vc[k][w];
                self.ones_vc[k][w] = 0;
            }
            vc_flush(&mut tmp, &mut self.ones_acc[lanes.clone()]);
            for (k, t) in tmp.iter_mut().enumerate() {
                *t = self.tog_vc[k][w];
                self.tog_vc[k][w] = 0;
            }
            vc_flush(&mut tmp, &mut self.toggle_acc[lanes]);
        }
        self.unflushed = 0;
    }

    /// Per-net toggle totals and per-net, per-bit ones counts.
    pub(crate) fn finish(mut self, netlist: &Netlist) -> (Vec<u64>, Vec<Vec<u64>>) {
        self.flush();
        let lanes = |id: NetId| {
            let (word, shift) = self.place[id.index()];
            let start = word * u64::BITS as usize + shift as usize;
            start..start + netlist.net(id).width() as usize
        };
        let toggles = netlist
            .nets()
            .map(|(id, _)| self.toggle_acc[lanes(id)].iter().sum())
            .collect();
        let ones = netlist
            .nets()
            .map(|(id, _)| self.ones_acc[lanes(id)].to_vec())
            .collect();
        (toggles, ones)
    }
}

/// The measurements of one simulation run: per-net toggle counts, per-bit
/// static probabilities, and Boolean monitor counts.
///
/// This is the "simulation of real-life test vectors" data the paper's
/// power model consumes (Section 4.1).
#[derive(Debug, Clone)]
pub struct SimReport {
    cycles: u64,
    /// Total bit toggles per net across the run.
    toggles: Vec<u64>,
    /// Per net, per bit: number of cycles the bit was 1.
    ones: Vec<Vec<u64>>,
    /// Monitor true-counts, by registration order.
    monitor_counts: Vec<u64>,
    /// Per monitor: number of value changes across consecutive cycles.
    monitor_transitions: Vec<u64>,
    monitor_index: HashMap<String, usize>,
    /// Conditional toggle counts, by registration order.
    cond_toggle_counts: Vec<u64>,
    cond_toggle_index: HashMap<String, usize>,
    /// Captured per-cycle value traces for selected nets.
    traces: HashMap<NetId, Vec<u64>>,
}

impl SimReport {
    /// Report without conditional-toggle monitors (test helper).
    #[cfg(test)]
    pub(crate) fn new(netlist: &Netlist, monitor_names: &[String]) -> Self {
        Self::with_cond_toggles(netlist, monitor_names, &[])
    }

    pub(crate) fn with_cond_toggles(
        netlist: &Netlist,
        monitor_names: &[String],
        cond_toggle_names: &[String],
    ) -> Self {
        let mut monitor_index = HashMap::new();
        for (i, name) in monitor_names.iter().enumerate() {
            monitor_index.insert(name.clone(), i);
        }
        let mut cond_toggle_index = HashMap::new();
        for (i, name) in cond_toggle_names.iter().enumerate() {
            cond_toggle_index.insert(name.clone(), i);
        }
        SimReport {
            cycles: 0,
            toggles: vec![0; netlist.num_nets()],
            ones: netlist
                .nets()
                .map(|(_, n)| vec![0; n.width() as usize])
                .collect(),
            monitor_counts: vec![0; monitor_names.len()],
            monitor_transitions: vec![0; monitor_names.len()],
            monitor_index,
            cond_toggle_counts: vec![0; cond_toggle_names.len()],
            cond_toggle_index,
            traces: HashMap::new(),
        }
    }

    /// Installs externally accumulated per-net toggle and ones counts — the
    /// simulation loop counts them with the shared vertical-counter kernel
    /// and deposits the totals here once at the end.
    pub(crate) fn set_net_counts(
        &mut self,
        cycles: u64,
        toggles: Vec<u64>,
        ones: Vec<Vec<u64>>,
    ) {
        debug_assert_eq!(toggles.len(), self.toggles.len());
        debug_assert_eq!(ones.len(), self.ones.len());
        self.cycles = cycles;
        self.toggles = toggles;
        self.ones = ones;
    }

    #[cfg(test)]
    pub(crate) fn record_cycle(&mut self, prev: Option<&[u64]>, current: &[u64]) {
        for (net, &value) in current.iter().enumerate() {
            if let Some(prev_vals) = prev {
                self.toggles[net] += (value ^ prev_vals[net]).count_ones() as u64;
            }
            let ones = &mut self.ones[net];
            let mut v = value;
            while v != 0 {
                let bit = v.trailing_zeros() as usize;
                if bit < ones.len() {
                    ones[bit] += 1;
                }
                v &= v - 1;
            }
        }
        self.cycles += 1;
    }

    /// Adds a block's true-count and value changes to a monitor's totals.
    pub(crate) fn record_monitor(&mut self, index: usize, count: u64, transitions: u64) {
        self.monitor_counts[index] += count;
        self.monitor_transitions[index] += transitions;
    }

    pub(crate) fn record_cond_toggles(&mut self, index: usize, toggles: u64) {
        self.cond_toggle_counts[index] += toggles;
    }

    pub(crate) fn record_trace(&mut self, net: NetId, values: &[u64]) {
        self.traces.entry(net).or_default().extend_from_slice(values);
    }

    /// Number of simulated cycles.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Average *total* bit toggles per cycle on `net` (a 16-bit bus with
    /// fully random data reports ≈ 8.0).
    pub fn toggle_rate(&self, net: NetId) -> f64 {
        if self.cycles <= 1 {
            return 0.0;
        }
        self.toggles[net.index()] as f64 / (self.cycles - 1) as f64
    }

    /// Average toggles per cycle *per bit* on `net` (0.0 ..= 1.0).
    pub fn toggle_rate_per_bit(&self, net: NetId, width: u8) -> f64 {
        self.toggle_rate(net) / width as f64
    }

    /// Fraction of cycles in which `bit` of `net` was 1.
    pub fn static_prob(&self, net: NetId, bit: u8) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.ones[net.index()][bit as usize] as f64 / self.cycles as f64
    }

    /// Raw toggle count of a net.
    pub fn toggle_count(&self, net: NetId) -> u64 {
        self.toggles[net.index()]
    }

    /// Number of cycles a named monitor evaluated true.
    pub fn monitor_count(&self, name: &str) -> Option<u64> {
        self.monitor_index
            .get(name)
            .map(|&i| self.monitor_counts[i])
    }

    /// Fraction of cycles a named monitor evaluated true.
    pub fn monitor_prob(&self, name: &str) -> Option<f64> {
        if self.cycles == 0 {
            return None;
        }
        self.monitor_count(name)
            .map(|c| c as f64 / self.cycles as f64)
    }

    /// Average transitions per cycle of a named monitor's value — the
    /// toggle rate of the (1-bit) monitored condition. Used to charge the
    /// switching cost of activation signals.
    pub fn monitor_transition_rate(&self, name: &str) -> Option<f64> {
        if self.cycles <= 1 {
            return None;
        }
        self.monitor_index
            .get(name)
            .map(|&i| self.monitor_transitions[i] as f64 / (self.cycles - 1) as f64)
    }

    /// Names of all registered monitors.
    pub fn monitor_names(&self) -> impl Iterator<Item = &str> {
        self.monitor_index.keys().map(String::as_str)
    }

    /// Average bit toggles *per overall cycle* of a conditionally monitored
    /// net, restricted to cycles where the monitor's condition held. (Divide
    /// by the condition's probability to get the rate *within* those
    /// cycles — the paper's Eq. 2 scaling.)
    pub fn cond_toggle_rate(&self, name: &str) -> Option<f64> {
        if self.cycles <= 1 {
            return None;
        }
        self.cond_toggle_index
            .get(name)
            .map(|&i| self.cond_toggle_counts[i] as f64 / (self.cycles - 1) as f64)
    }

    /// Raw conditional toggle count.
    pub fn cond_toggle_count(&self, name: &str) -> Option<u64> {
        self.cond_toggle_index
            .get(name)
            .map(|&i| self.cond_toggle_counts[i])
    }

    /// The captured per-cycle value trace of a net registered with
    /// [`Testbench::capture`](crate::Testbench::capture).
    pub fn trace(&self, net: NetId) -> Option<&[u64]> {
        self.traces.get(&net).map(Vec::as_slice)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oiso_netlist::{CellKind, NetlistBuilder};

    fn one_net() -> Netlist {
        let mut b = NetlistBuilder::new("n");
        let a = b.input("a", 4);
        let o = b.wire("o", 4);
        b.cell("bufc", CellKind::Buf, &[a], o).unwrap();
        b.mark_output(o);
        b.build().unwrap()
    }

    #[test]
    fn toggle_counting_across_cycles() {
        let n = one_net();
        let mut r = SimReport::new(&n, &[]);
        // Net 0 = a, net 1 = o. Values per cycle for both nets.
        r.record_cycle(None, &[0b0000, 0b0000]);
        r.record_cycle(Some(&[0b0000, 0b0000]), &[0b0011, 0b0011]);
        r.record_cycle(Some(&[0b0011, 0b0011]), &[0b0001, 0b0001]);
        let a = n.find_net("a").unwrap();
        assert_eq!(r.toggle_count(a), 3); // 2 toggles then 1
        assert_eq!(r.cycles(), 3);
        assert!((r.toggle_rate(a) - 1.5).abs() < 1e-12);
        assert!((r.toggle_rate_per_bit(a, 4) - 0.375).abs() < 1e-12);
    }

    #[test]
    fn static_probability_per_bit() {
        let n = one_net();
        let mut r = SimReport::new(&n, &[]);
        r.record_cycle(None, &[0b0001, 0]);
        r.record_cycle(Some(&[0b0001, 0]), &[0b0011, 0]);
        let a = n.find_net("a").unwrap();
        assert!((r.static_prob(a, 0) - 1.0).abs() < 1e-12);
        assert!((r.static_prob(a, 1) - 0.5).abs() < 1e-12);
        assert!((r.static_prob(a, 3) - 0.0).abs() < 1e-12);
    }

    #[test]
    fn monitors_count_true_cycles() {
        let n = one_net();
        let mut r = SimReport::new(&n, &["act".to_string()]);
        r.record_cycle(None, &[0, 0]);
        r.record_cycle(Some(&[0, 0]), &[0, 0]);
        r.record_monitor(0, 1, 1);
        assert_eq!(r.monitor_count("act"), Some(1));
        assert!((r.monitor_prob("act").unwrap() - 0.5).abs() < 1e-12);
        assert_eq!(r.monitor_count("missing"), None);
    }

    /// The Harley–Seal counters must agree with naive per-bit counting
    /// across full and partial blocks, automatic and mid-stream flushes,
    /// for many frames of pseudo-random values on nets that share frame
    /// words and nets that fill one. Column words past a partial block's
    /// length hold values too, which must not be counted.
    #[test]
    fn net_counters_match_naive_counts() {
        let mut b = NetlistBuilder::new("widths");
        for (i, width) in [64u8, 5, 60, 1, 7, 64, 3].into_iter().enumerate() {
            let net = b.input(format!("i{i}"), width);
            b.mark_output(net);
        }
        let n = b.build().unwrap();
        let masks: Vec<u64> = n.nets().map(|(_, net)| net.mask()).collect();
        let mut counters = NetCounters::new(&n);
        let mut exp_toggles = vec![0u64; masks.len()];
        let mut exp_ones: Vec<Vec<u64>> = n
            .nets()
            .map(|(_, net)| vec![0; net.width() as usize])
            .collect();
        let mut prev: Option<Vec<u64>> = None;
        let mut s = 0x243F_6A88_85A3_08D3u64;
        let mut cycle = 0u64;
        let mut columns = vec![0u64; masks.len() * BLOCK];
        // Block lengths that leave partial blocks behind, then a stretch
        // of full blocks that crosses the automatic flush.
        let lengths = [3usize, 64, 17, 40, 1, 63, 15].into_iter().chain([64; 20]);
        for (i, len) in lengths.enumerate() {
            for t in 0..BLOCK {
                for (net, &m) in masks.iter().enumerate() {
                    s ^= s << 13;
                    s ^= s >> 7;
                    s ^= s << 17;
                    columns[net * BLOCK + t] = s & m;
                }
            }
            counters.add_block(&columns, len);
            for t in 0..len {
                let values: Vec<u64> =
                    (0..masks.len()).map(|net| columns[net * BLOCK + t]).collect();
                for (net, &cur) in values.iter().enumerate() {
                    for (bit, ones) in exp_ones[net].iter_mut().enumerate() {
                        *ones += (cur >> bit) & 1;
                    }
                    if let Some(p) = &prev {
                        exp_toggles[net] += u64::from((cur ^ p[net]).count_ones());
                    }
                }
                prev = Some(values);
                cycle += 1;
            }
            // Flush mid-stream now and then: toggles must stay continuous
            // into the next block.
            if i % 3 == 0 {
                counters.flush();
            }
        }
        assert!(cycle > FLUSH_INTERVAL);
        assert_eq!(counters.words, 6, "packing shares and fills words");
        let (toggles, ones) = counters.finish(&n);
        assert_eq!(toggles, exp_toggles);
        assert_eq!(ones, exp_ones);
    }

    #[test]
    fn zero_cycle_report_is_safe() {
        let n = one_net();
        let r = SimReport::new(&n, &["m".to_string()]);
        let a = n.find_net("a").unwrap();
        assert_eq!(r.toggle_rate(a), 0.0);
        assert_eq!(r.static_prob(a, 0), 0.0);
        assert_eq!(r.monitor_prob("m"), None);
    }
}
