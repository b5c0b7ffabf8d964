//! Testbench: stimulus + simulation + statistics in one call.

use crate::engine::{EngineKind, ScalarColumns, SimBackend, BLOCK};
use crate::stats::{NetCounters, SimReport};
use crate::stimulus::{Stimulus, StimulusError, StimulusPlan, StimulusSpec};
use crate::tape::CompiledSim;
use crate::vcd::VcdWriter;
use oiso_boolex::{BoolExpr, Signal};
use oiso_netlist::{NetId, Netlist};
use std::error::Error;
use std::fmt;
use std::io::Write;

/// Errors raised when assembling or running a testbench.
#[derive(Debug)]
pub enum SimError {
    /// A primary input has no stimulus attached.
    UndrivenInput(String),
    /// A stimulus was attached to a net that is not a primary input.
    NotAnInput(String),
    /// A plan references an input name absent from the netlist.
    UnknownInput(String),
    /// Stimulus construction failed.
    Stimulus(StimulusError),
    /// A run of zero cycles was requested.
    ZeroCycles,
    /// Waveform output failed.
    Io(std::io::Error),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::UndrivenInput(n) => write!(f, "primary input `{n}` has no stimulus"),
            SimError::NotAnInput(n) => write!(f, "net `{n}` is not a primary input"),
            SimError::UnknownInput(n) => write!(f, "no primary input named `{n}`"),
            SimError::Stimulus(e) => write!(f, "stimulus error: {e}"),
            SimError::ZeroCycles => write!(f, "simulation of zero cycles requested"),
            SimError::Io(e) => write!(f, "waveform output failed: {e}"),
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::Stimulus(e) => Some(e),
            SimError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StimulusError> for SimError {
    fn from(e: StimulusError) -> Self {
        SimError::Stimulus(e)
    }
}

impl From<std::io::Error> for SimError {
    fn from(e: std::io::Error) -> Self {
        SimError::Io(e)
    }
}

/// A testbench: a netlist, stimuli for its primary inputs, and Boolean
/// monitors sampled each cycle after the combinational logic settles.
///
/// # Examples
///
/// Measuring the probability of an activation condition:
///
/// ```
/// use oiso_boolex::{BoolExpr, Signal};
/// use oiso_netlist::{CellKind, NetlistBuilder};
/// use oiso_sim::{StimulusSpec, Testbench};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = NetlistBuilder::new("d");
/// let g = b.input("g", 1);
/// let o = b.wire("o", 1);
/// b.cell("bufc", CellKind::Buf, &[g], o)?;
/// b.mark_output(o);
/// let n = b.build()?;
///
/// let mut tb = Testbench::new(&n);
/// tb.drive_spec(g, StimulusSpec::MarkovBits { p_one: 0.25, toggle_rate: 0.2 })?;
/// tb.monitor("g_high", BoolExpr::var(Signal::bit0(g)));
/// let report = tb.run(20_000)?;
/// let p = report.monitor_prob("g_high").unwrap();
/// assert!((p - 0.25).abs() < 0.02);
/// # Ok(())
/// # }
/// ```
pub struct Testbench<'a> {
    netlist: &'a Netlist,
    drivers: Vec<(NetId, Box<dyn Stimulus>)>,
    monitors: Vec<(String, BoolExpr)>,
    cond_toggles: Vec<(String, NetId, BoolExpr)>,
    captures: Vec<NetId>,
    default_seed: u64,
}

impl fmt::Debug for Testbench<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Testbench")
            .field("netlist", &self.netlist.name())
            .field("drivers", &self.drivers.len())
            .field("monitors", &self.monitors.len())
            .finish()
    }
}

impl<'a> Testbench<'a> {
    /// Creates an empty testbench over `netlist`.
    pub fn new(netlist: &'a Netlist) -> Self {
        Testbench {
            netlist,
            drivers: Vec::new(),
            monitors: Vec::new(),
            cond_toggles: Vec::new(),
            captures: Vec::new(),
            default_seed: 0,
        }
    }

    /// Builds a testbench from a [`StimulusPlan`], matching inputs by name.
    ///
    /// # Errors
    ///
    /// Returns an error if the plan names an unknown input, targets a
    /// non-input net, or a stimulus spec is invalid. Inputs missing from the
    /// plan are reported at [`Testbench::run`].
    pub fn from_plan(netlist: &'a Netlist, plan: &StimulusPlan) -> Result<Self, SimError> {
        let drivers = instantiate_plan(netlist, plan)?
            .into_iter()
            .map(|(net, _, stim)| (net, stim))
            .collect();
        Ok(Testbench::with_drivers(netlist, plan.seed, drivers))
    }

    /// A testbench over ready drivers, with `seed` as the master seed
    /// [`Testbench::drive_spec`] derives from.
    pub(crate) fn with_drivers(
        netlist: &'a Netlist,
        seed: u64,
        drivers: Vec<(NetId, Box<dyn Stimulus>)>,
    ) -> Self {
        Testbench {
            drivers,
            default_seed: seed,
            ..Testbench::new(netlist)
        }
    }

    /// Attaches a ready-made stimulus to a primary input.
    ///
    /// # Errors
    ///
    /// Returns an error if `net` is not a primary input.
    pub fn drive(&mut self, net: NetId, stim: Box<dyn Stimulus>) -> Result<(), SimError> {
        if !self.netlist.net(net).is_primary_input() {
            return Err(SimError::NotAnInput(self.netlist.net(net).name().to_string()));
        }
        self.drivers.push((net, stim));
        Ok(())
    }

    /// Instantiates and attaches a [`StimulusSpec`], deriving the seed from
    /// the input name (so different inputs get decorrelated streams).
    ///
    /// # Errors
    ///
    /// Returns an error if `net` is not a primary input or the spec is
    /// invalid.
    pub fn drive_spec(&mut self, net: NetId, spec: StimulusSpec) -> Result<(), SimError> {
        let name = self.netlist.net(net).name().to_string();
        let plan = StimulusPlan::new(self.default_seed);
        let stim = spec.instantiate(self.netlist.net(net).width(), plan.seed_for(&name))?;
        self.drive(net, stim)
    }

    /// Registers a named Boolean monitor, evaluated every cycle after the
    /// logic settles. Used for `Pr(f_c)` and the joint probabilities of the
    /// savings model.
    pub fn monitor(&mut self, name: impl Into<String>, expr: BoolExpr) {
        self.monitors.push((name.into(), expr));
    }

    /// Records the full per-cycle value trace of `net` into the report
    /// (settled value, one entry per cycle). Used by equivalence tests;
    /// memory grows linearly with the run length.
    pub fn capture(&mut self, net: NetId) {
        self.captures.push(net);
    }

    /// Registers a *conditional toggle* monitor: counts the bit toggles of
    /// `net` occurring in cycles where `condition` evaluates true. This is
    /// how the savings estimator measures toggle rates "during redundant
    /// computation cycles" directly, without the even-distribution
    /// assumption the paper's Eq. 1 makes.
    pub fn cond_toggle_monitor(
        &mut self,
        name: impl Into<String>,
        net: NetId,
        condition: BoolExpr,
    ) {
        self.cond_toggles.push((name.into(), net, condition));
    }

    /// Runs the simulation for `cycles` cycles on the default engine
    /// ([`EngineKind::default`]).
    ///
    /// # Errors
    ///
    /// Returns an error if any primary input is undriven or `cycles` is 0.
    pub fn run(&mut self, cycles: u64) -> Result<SimReport, SimError> {
        self.run_with_engine(cycles, EngineKind::default())
    }

    /// Runs the simulation on a specific engine. Both engines produce
    /// bit-identical reports (the differential suite enforces this); the
    /// choice only affects wall-clock time.
    ///
    /// # Errors
    ///
    /// As [`Testbench::run`].
    pub fn run_with_engine(
        &mut self,
        cycles: u64,
        engine: EngineKind,
    ) -> Result<SimReport, SimError> {
        let no_vcd = None::<&mut VcdWriter<std::io::Sink>>;
        match engine {
            EngineKind::Scalar => {
                let mut sim = ScalarColumns::new(self.netlist);
                self.run_loop(&mut sim, cycles, no_vcd)
            }
            EngineKind::Compiled => {
                let mut sim = CompiledSim::new(self.netlist);
                self.run_loop(&mut sim, cycles, no_vcd)
            }
        }
    }

    /// Runs the simulation, additionally dumping a VCD waveform.
    ///
    /// # Errors
    ///
    /// As [`Testbench::run`], plus I/O errors from the writer.
    pub fn run_with_vcd<W: Write>(
        &mut self,
        cycles: u64,
        vcd: &mut VcdWriter<W>,
    ) -> Result<SimReport, SimError> {
        let mut sim = CompiledSim::new(self.netlist);
        self.run_loop(&mut sim, cycles, Some(vcd))
    }

    /// The loop both engines run, in blocks of 64 cycles. Each block
    /// fills every driver's input column, simulates, and then reads the
    /// settled columns: the counters pack them into frames, each signal
    /// the monitors read becomes one 64-cycle bit-plane, and every monitor
    /// and condition is evaluated once, on those bit-planes.
    fn run_loop<B: SimBackend, W: Write>(
        &mut self,
        sim: &mut B,
        cycles: u64,
        mut vcd: Option<&mut VcdWriter<W>>,
    ) -> Result<SimReport, SimError> {
        if cycles == 0 {
            return Err(SimError::ZeroCycles);
        }
        let netlist = self.netlist;
        // Every primary input needs a driver. An input driven twice takes
        // the later driver's value, as successive `set_input` calls would.
        for &pi in netlist.primary_inputs() {
            if !self.drivers.iter().any(|(net, _)| *net == pi) {
                return Err(SimError::UndrivenInput(netlist.net(pi).name().to_string()));
            }
        }
        // Drivers target primary inputs (checked when attached), so each
        // fills its column of the arena, masked to the net's width.
        let slots: Vec<(usize, u64)> = self
            .drivers
            .iter()
            .map(|(net, _)| (net.index(), netlist.net(*net).mask()))
            .collect();
        let monitor_names: Vec<String> =
            self.monitors.iter().map(|(n, _)| n.clone()).collect();
        let cond_names: Vec<String> =
            self.cond_toggles.iter().map(|(n, _, _)| n.clone()).collect();
        let mut report = SimReport::with_cond_toggles(netlist, &monitor_names, &cond_names);
        if let Some(w) = vcd.as_deref_mut() {
            w.write_header(netlist)?;
        }
        let mut counts = NetCounters::new(netlist);
        // Monitors and conditions read one bit-plane per signal of their
        // supports: bit `t` is the signal's value in cycle `t` of the block.
        let mut support: Vec<Signal> = self
            .monitors
            .iter()
            .map(|(_, e)| e)
            .chain(self.cond_toggles.iter().map(|(_, _, c)| c))
            .flat_map(BoolExpr::support)
            .collect();
        support.sort_unstable();
        support.dedup();
        let mut planes = vec![0u64; support.len()];
        // Per conditional toggle monitor: the net's value in the last
        // cycle of the previous block.
        let mut cond_prev = vec![0u64; self.cond_toggles.len()];
        // Per monitor: its value in the last cycle of the previous block.
        let mut monitor_last = vec![0u64; self.monitors.len()];
        // Waveform rows: every net's value in one cycle, and in the cycle
        // before.
        let vcd_nets = if vcd.is_some() { netlist.num_nets() } else { 0 };
        let (mut row, mut prev) = (vec![0u64; vcd_nets], vec![0u64; vcd_nets]);
        let mut block_start = 0u64;
        while block_start < cycles {
            let n = (cycles - block_start).min(BLOCK as u64) as usize;
            let arena = sim.columns_mut();
            for (&(index, mask), (_, stim)) in slots.iter().zip(&mut self.drivers) {
                let col = &mut arena[index * BLOCK..][..n];
                stim.fill(block_start, col);
                col.iter_mut().for_each(|v| *v &= mask);
            }
            sim.run_block(n);
            let arena = sim.columns();
            let column = |net: NetId| &arena[net.index() * BLOCK..][..n];
            counts.add_block(arena, n);
            for (plane, s) in planes.iter_mut().zip(&support) {
                *plane = column(s.net)
                    .iter()
                    .enumerate()
                    .fold(0, |p, (t, &v)| p | ((v >> s.bit) & 1) << t);
            }
            for &net in &self.captures {
                report.record_trace(net, column(net));
            }
            if let Some(w) = vcd.as_deref_mut() {
                for t in 0..n {
                    let cycle = block_start + t as u64;
                    for (net, slot) in row.iter_mut().enumerate() {
                        *slot = arena[net * BLOCK + t];
                    }
                    w.write_cycle(netlist, cycle, &row, (cycle > 0).then_some(prev.as_slice()))?;
                    std::mem::swap(&mut row, &mut prev);
                }
            }
            let valid = u64::MAX >> (BLOCK - n);
            // No cycle precedes global cycle 0, so it has no transitions.
            let after_first = if block_start == 0 { valid & !1 } else { valid };
            let plane = |s: Signal| {
                planes[support.binary_search(&s).expect("signal is in the support")]
            };
            for (i, (_, expr)) in self.monitors.iter().enumerate() {
                let fired = expr.eval_word(&plane) & valid;
                let changed = (fired ^ ((fired << 1) | monitor_last[i])) & after_first;
                report.record_monitor(i, fired.count_ones() as u64, changed.count_ones() as u64);
                monitor_last[i] = (fired >> (n - 1)) & 1;
            }
            for (i, (_, net, condition)) in self.cond_toggles.iter().enumerate() {
                let col = column(*net);
                let mut fired = condition.eval_word(&plane) & after_first;
                let mut toggles = 0u64;
                while fired != 0 {
                    let t = fired.trailing_zeros() as usize;
                    let before = if t == 0 { cond_prev[i] } else { col[t - 1] };
                    toggles += (col[t] ^ before).count_ones() as u64;
                    fired &= fired - 1;
                }
                report.record_cond_toggles(i, toggles);
                cond_prev[i] = col[n - 1];
            }
            block_start += n as u64;
        }
        let (toggles, ones) = counts.finish(netlist);
        report.set_net_counts(cycles, toggles, ones);
        Ok(report)
    }
}

/// One plan driver: its input net, its spec and a live instance.
pub(crate) type PlanDriver<'p> = (NetId, &'p StimulusSpec, Box<dyn Stimulus>);

/// Resolves a plan's drivers in plan order and instantiates each live,
/// failing at the first driver [`Testbench::from_plan`] refuses: an
/// unknown name, a net that is not a primary input, or an invalid spec.
pub(crate) fn instantiate_plan<'p>(
    netlist: &Netlist,
    plan: &'p StimulusPlan,
) -> Result<Vec<PlanDriver<'p>>, SimError> {
    plan.drivers
        .iter()
        .map(|(name, spec)| {
            let net = netlist
                .find_net(name)
                .ok_or_else(|| SimError::UnknownInput(name.clone()))?;
            if !netlist.net(net).is_primary_input() {
                return Err(SimError::NotAnInput(name.clone()));
            }
            let stim = spec.instantiate(netlist.net(net).width(), plan.seed_for(name))?;
            Ok((net, spec, stim))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use oiso_netlist::{CellKind, NetlistBuilder};

    fn mux_design() -> Netlist {
        // out = sel ? a : b, registered.
        let mut b = NetlistBuilder::new("muxed");
        let a = b.input("a", 8);
        let bb = b.input("b", 8);
        let sel = b.input("sel", 1);
        let m = b.wire("m", 8);
        let q = b.wire("q", 8);
        b.cell("mx", CellKind::Mux, &[sel, a, bb], m).unwrap();
        b.cell("r", CellKind::Reg { has_enable: false }, &[m], q)
            .unwrap();
        b.mark_output(q);
        b.build().unwrap()
    }

    #[test]
    fn undriven_input_is_an_error() {
        let n = mux_design();
        let mut tb = Testbench::new(&n);
        tb.drive_spec(n.find_net("a").unwrap(), StimulusSpec::UniformRandom)
            .unwrap();
        let err = tb.run(10).unwrap_err();
        assert!(matches!(err, SimError::UndrivenInput(_)), "{err}");
    }

    #[test]
    fn zero_cycles_is_an_error() {
        let n = mux_design();
        let mut tb = Testbench::new(&n);
        assert!(matches!(tb.run(0), Err(SimError::ZeroCycles)));
    }

    #[test]
    fn driving_internal_net_is_an_error() {
        let n = mux_design();
        let mut tb = Testbench::new(&n);
        let err = tb
            .drive_spec(n.find_net("m").unwrap(), StimulusSpec::Constant(0))
            .unwrap_err();
        assert!(matches!(err, SimError::NotAnInput(_)), "{err}");
    }

    #[test]
    fn plan_roundtrip_and_determinism() {
        let n = mux_design();
        let plan = StimulusPlan::new(11)
            .drive("a", StimulusSpec::UniformRandom)
            .drive("b", StimulusSpec::UniformRandom)
            .drive("sel", StimulusSpec::MarkovBits {
                p_one: 0.3,
                toggle_rate: 0.2,
            });
        let r1 = Testbench::from_plan(&n, &plan).unwrap().run(500).unwrap();
        let r2 = Testbench::from_plan(&n, &plan).unwrap().run(500).unwrap();
        let m = n.find_net("m").unwrap();
        assert_eq!(r1.toggle_count(m), r2.toggle_count(m), "same plan, same run");
        let r3 = Testbench::from_plan(&n, &plan.clone().with_seed(12))
            .unwrap()
            .run(500)
            .unwrap();
        assert_ne!(r1.toggle_count(m), r3.toggle_count(m), "seed changes run");
    }

    #[test]
    fn plan_unknown_input_is_an_error() {
        let n = mux_design();
        let plan = StimulusPlan::new(0).drive("nope", StimulusSpec::Constant(0));
        assert!(matches!(
            Testbench::from_plan(&n, &plan),
            Err(SimError::UnknownInput(_))
        ));
    }

    #[test]
    fn mux_select_statistics_flow_to_output() {
        // With sel stuck at 1, the mux output follows `a` only: its toggle
        // rate tracks a's, and b's activity never propagates.
        let n = mux_design();
        let plan = StimulusPlan::new(5)
            .drive("a", StimulusSpec::Constant(0))
            .drive("b", StimulusSpec::UniformRandom)
            .drive("sel", StimulusSpec::Constant(0));
        let report = Testbench::from_plan(&n, &plan).unwrap().run(2000).unwrap();
        let m = n.find_net("m").unwrap();
        assert_eq!(report.toggle_count(m), 0, "mux passes constant a");
        // Flip: select b.
        let plan2 = plan.clone().drive("x_unused", StimulusSpec::Constant(0));
        let _ = plan2;
        let plan3 = StimulusPlan::new(5)
            .drive("a", StimulusSpec::Constant(0))
            .drive("b", StimulusSpec::UniformRandom)
            .drive("sel", StimulusSpec::Constant(1));
        let report3 = Testbench::from_plan(&n, &plan3).unwrap().run(2000).unwrap();
        assert!(report3.toggle_rate(m) > 3.0, "mux passes random b");
    }

    #[test]
    fn monitor_probability_matches_input_statistics() {
        let n = mux_design();
        let sel = n.find_net("sel").unwrap();
        let plan = StimulusPlan::new(3)
            .drive("a", StimulusSpec::Constant(0))
            .drive("b", StimulusSpec::Constant(0))
            .drive("sel", StimulusSpec::MarkovBits {
                p_one: 0.7,
                toggle_rate: 0.3,
            });
        let mut tb = Testbench::from_plan(&n, &plan).unwrap();
        tb.monitor("sel1", BoolExpr::var(Signal::bit0(sel)));
        tb.monitor("sel0", BoolExpr::var(Signal::bit0(sel)).not());
        let report = tb.run(30_000).unwrap();
        let p1 = report.monitor_prob("sel1").unwrap();
        let p0 = report.monitor_prob("sel0").unwrap();
        assert!((p1 - 0.7).abs() < 0.02, "p1 = {p1}");
        assert!((p0 + p1 - 1.0).abs() < 1e-12);
    }
}
