//! Related-work baselines (Section 2 of the paper).
//!
//! * [`correale_local_isolation`] — the manual, *local* technique of
//!   Correale \[3\] as used in the IBM PowerPC 4xx datapath: only modules
//!   feeding a multiplexor directly are isolated, and the mux select signal
//!   itself is the activation signal. No cost model, no transitive fanout
//!   analysis.
//! * [`kapadia_enable_gating`] — the control-signal gating of Kapadia et
//!   al. \[4\]: switching activity is blocked by gating *register enables*
//!   rather than by inserting latches. The two coverage limitations the
//!   paper points out are modeled faithfully: modules driven by
//!   multiple-fanout registers cannot be isolated (gating the register's
//!   enable would corrupt its other consumers), and combinational logic
//!   fed directly by primary inputs cannot be protected at all.

use crate::activation::{derive_activation_functions, ActivationConfig};
use crate::report::IsolationOutcome;
use crate::transform::{isolate, IsolationRecord, IsolationStyle};
use oiso_boolex::BoolExpr;
use oiso_netlist::{CellId, CellKind, Netlist};
use oiso_power::{total_area, PowerEstimator};
use oiso_sim::{EngineKind, InputRecording, StimulusPlan};
use oiso_techlib::{OperatingConditions, TechLibrary};
use oiso_timing::analyze;

use crate::algorithm::{IsolationConfig, IsolationError};

/// Outcome of a baseline technique, with coverage accounting.
#[derive(Debug, Clone)]
pub struct BaselineOutcome {
    /// The standard outcome fields.
    pub outcome: IsolationOutcome,
    /// Arithmetic modules that existed but the technique could not cover.
    pub uncovered: Vec<CellId>,
}

#[allow(clippy::too_many_arguments)]
fn measure(
    netlist_before: &Netlist,
    work: Netlist,
    records: Vec<IsolationRecord>,
    uncovered: Vec<CellId>,
    plan: &StimulusPlan,
    style: IsolationStyle,
    lib: &TechLibrary,
    cond: OperatingConditions,
    sim_cycles: u64,
) -> Result<BaselineOutcome, IsolationError> {
    let pe = PowerEstimator::new(lib, cond);
    let clock_period = cond.clock_period();
    // Both runs drive the same vectors: the plan's Markov streams are
    // drawn once and replayed into each.
    let inputs = InputRecording::record(netlist_before, plan, sim_cycles)?;
    let report_before = inputs.run(netlist_before, EngineKind::default(), |_| {})?;
    let power_before = pe.estimate(netlist_before, &report_before).total;
    let area_before = total_area(lib, netlist_before);
    let slack_before = analyze(lib, netlist_before, clock_period).worst_slack;

    let report_after = inputs.run(&work, EngineKind::default(), |_| {})?;
    let power_after = pe.estimate(&work, &report_after).total;
    let area_after = total_area(lib, &work);
    let slack_after = analyze(lib, &work, clock_period).worst_slack;

    Ok(BaselineOutcome {
        outcome: IsolationOutcome {
            netlist: work,
            style,
            isolated: records,
            iterations: Vec::new(),
            power_before,
            power_after,
            area_before,
            area_after,
            slack_before,
            slack_after,
            truncated: false,
            skipped: Vec::new(),
            pre_skipped: Vec::new(),
            evaluated: 0,
        },
        uncovered,
    })
}

/// Correale-style local isolation: isolate every arithmetic module whose
/// output feeds a multiplexor *directly*, using only that multiplexor's
/// select condition as the activation function.
///
/// # Errors
///
/// Returns an error if simulation or a transform fails.
pub fn correale_local_isolation(
    netlist: &Netlist,
    plan: &StimulusPlan,
    config: &IsolationConfig,
) -> Result<BaselineOutcome, IsolationError> {
    let mut work = netlist.clone();
    let mut records = Vec::new();
    let mut uncovered = Vec::new();

    let candidates: Vec<CellId> = netlist.arithmetic_cells().collect();
    for cid in candidates {
        let out = netlist.cell(cid).output();
        // Local scope: the module must feed mux data inputs directly, and
        // nothing else (otherwise gating by the select would be unsound as
        // a local argument — the original technique was applied manually
        // exactly in such spots).
        let loads = netlist.net(out).loads();
        let mut select_terms = Vec::new();
        let mut local = !loads.is_empty();
        for &(load, port) in loads {
            let cell = netlist.cell(load);
            if cell.kind() == CellKind::Mux && port >= 1 {
                select_terms.push(crate::observability::observability_condition(
                    netlist, load, port,
                ));
            } else {
                local = false;
                break;
            }
        }
        if !local || select_terms.is_empty() {
            uncovered.push(cid);
            continue;
        }
        let activation = BoolExpr::or(select_terms);
        if activation.is_const(true) || activation.is_const(false) {
            uncovered.push(cid);
            continue;
        }
        let record = isolate(&mut work, cid, &activation, config.style)?;
        records.push(record);
    }

    measure(
        netlist,
        work,
        records,
        uncovered,
        plan,
        config.style,
        &config.library,
        config.conditions,
        config.sim_cycles,
    )
}

/// Kapadia-style enable gating: instead of inserting isolation banks, gate
/// the *enables of the source registers* feeding a module with the module's
/// activation function, so idle operands freeze in place.
///
/// Coverage limitations (modeled after Section 2's discussion of \[4\]):
///
/// * every operand of the module must come directly from a register that
///   (a) has an enable port and (b) feeds *only* this module — gating a
///   multiple-fanout register would starve its other consumers;
/// * operands arriving from primary inputs or through shared logic cannot
///   be protected.
///
/// # Errors
///
/// Returns an error if simulation or a transform fails.
pub fn kapadia_enable_gating(
    netlist: &Netlist,
    plan: &StimulusPlan,
    config: &IsolationConfig,
) -> Result<BaselineOutcome, IsolationError> {
    let mut work = netlist.clone();
    let mut records = Vec::new();
    let mut uncovered = Vec::new();
    let activations = derive_activation_functions(netlist, &ActivationConfig::default());

    let candidates: Vec<CellId> = netlist.arithmetic_cells().collect();
    for cid in candidates {
        let Some(activation) = activations.get(&cid) else {
            uncovered.push(cid);
            continue;
        };
        if activation.is_const(true) || activation.is_const(false) {
            uncovered.push(cid);
            continue;
        }
        // Every operand must be a single-fanout enabled register output.
        let cell = netlist.cell(cid);
        let mut source_regs = Vec::new();
        let mut coverable = true;
        for &inp in cell.inputs() {
            let Some(driver) = netlist.net(inp).driver() else {
                coverable = false; // primary input: [4] cannot protect it
                break;
            };
            let dk = netlist.cell(driver).kind();
            if dk != (CellKind::Reg { has_enable: true })
                || netlist.net(inp).loads().len() != 1
            {
                coverable = false; // multi-fanout or unenabled source
                break;
            }
            source_regs.push(driver);
        }
        if !coverable {
            uncovered.push(cid);
            continue;
        }
        // Gate each source register's enable with AS: en' = en & AS.
        let as_net =
            oiso_boolex::synthesize_into(&mut work, activation, &format!("kap_{}", cid.index()))
                .map_err(IsolationError::Build)?;
        let mut gated_regs = Vec::new();
        for reg in source_regs {
            let en = work.cell(reg).inputs()[1];
            let gated = work
                .add_wire(work.fresh_net_name(&format!("kap_en_{}", reg.index())), 1)
                .map_err(IsolationError::Build)?;
            work.add_cell(
                work.fresh_cell_name(&format!("kap_gate_{}", reg.index())),
                CellKind::And,
                &[en, as_net],
                gated,
            )
            .map_err(IsolationError::Build)?;
            work.rewire_input(reg, 1, gated)
                .map_err(IsolationError::Build)?;
            gated_regs.push(reg);
        }
        records.push(IsolationRecord {
            candidate: cid,
            style: config.style,
            activation_net: as_net,
            activation: activation.clone(),
            bank_cells: gated_regs,
            isolated_bits: cell
                .inputs()
                .iter()
                .map(|&n| netlist.net(n).width() as usize)
                .sum(),
        });
    }
    debug_assert!(work.validate().is_ok());

    measure(
        netlist,
        work,
        records,
        uncovered,
        plan,
        config.style,
        &config.library,
        config.conditions,
        config.sim_cycles,
    )
}

// NOTE on soundness of enable gating: freezing a source register while the
// consumer is idle changes that register's *architected* contents. This is
// sound only when the register is a dedicated operand buffer (single
// fanout into the gated module) — precisely the coverage restriction above,
// and the reason [4] applies it to bus drivers. The signal seen by the
// isolated module is then identical to latch-based isolation.
fn _doc_anchor() {}

#[cfg(test)]
mod tests {
    use super::*;
    use oiso_boolex::Signal as _Sig;
    use oiso_netlist::NetlistBuilder;
    use oiso_sim::StimulusSpec;

    /// Adder -> mux (sel s) -> enabled register. Correale-coverable.
    fn mux_fed() -> (Netlist, StimulusPlan) {
        let mut b = NetlistBuilder::new("mf");
        let x = b.input("x", 16);
        let y = b.input("y", 16);
        let c = b.input("c", 16);
        let s = b.input("s", 1);
        let g = b.input("g", 1);
        let sum = b.wire("sum", 16);
        let m = b.wire("m", 16);
        let q = b.wire("q", 16);
        b.cell("add", CellKind::Add, &[x, y], sum).unwrap();
        b.cell("mx", CellKind::Mux, &[s, sum, c], m).unwrap();
        b.cell("r", CellKind::Reg { has_enable: true }, &[m, g], q)
            .unwrap();
        b.mark_output(q);
        let plan = StimulusPlan::new(5)
            .drive("x", StimulusSpec::UniformRandom)
            .drive("y", StimulusSpec::UniformRandom)
            .drive("c", StimulusSpec::UniformRandom)
            .drive("s", StimulusSpec::MarkovBits { p_one: 0.85, toggle_rate: 0.2 })
            .drive("g", StimulusSpec::MarkovBits { p_one: 0.5, toggle_rate: 0.4 });
        (b.build().unwrap(), plan)
    }

    #[test]
    fn correale_covers_mux_fed_modules() {
        let (n, plan) = mux_fed();
        let config = IsolationConfig::default().with_sim_cycles(1500);
        let result = correale_local_isolation(&n, &plan, &config).unwrap();
        assert_eq!(result.outcome.num_isolated(), 1);
        assert!(result.uncovered.is_empty());
        // s = 1 (select c) 85% of the time: the adder is mostly redundant
        // and local isolation should save real power.
        assert!(
            result.outcome.power_reduction_percent() > 5.0,
            "{:.2}%",
            result.outcome.power_reduction_percent()
        );
        result.outcome.netlist.validate().unwrap();
    }

    #[test]
    fn correale_skips_register_fed_modules() {
        // Adder feeding a register directly: outside the local pattern.
        let mut b = NetlistBuilder::new("rf");
        let x = b.input("x", 16);
        let y = b.input("y", 16);
        let g = b.input("g", 1);
        let s = b.wire("s", 16);
        let q = b.wire("q", 16);
        b.cell("add", CellKind::Add, &[x, y], s).unwrap();
        b.cell("r", CellKind::Reg { has_enable: true }, &[s, g], q)
            .unwrap();
        b.mark_output(q);
        let n = b.build().unwrap();
        let plan = StimulusPlan::new(1)
            .drive("x", StimulusSpec::UniformRandom)
            .drive("y", StimulusSpec::UniformRandom)
            .drive("g", StimulusSpec::MarkovBits { p_one: 0.2, toggle_rate: 0.2 });
        let config = IsolationConfig::default().with_sim_cycles(800);
        let result = correale_local_isolation(&n, &plan, &config).unwrap();
        assert_eq!(result.outcome.num_isolated(), 0);
        assert_eq!(result.uncovered.len(), 1);
        // The full algorithm DOES cover it — the paper's coverage claim.
        let full = crate::optimize(&n, &plan, &config).unwrap();
        assert_eq!(full.num_isolated(), 1);
    }

    /// Dedicated operand registers -> multiplier -> enabled sink register.
    fn buffered_mul(share_operand_reg: bool) -> (Netlist, StimulusPlan) {
        let mut b = NetlistBuilder::new("bm");
        let x = b.input("x", 16);
        let y = b.input("y", 16);
        let en = b.input("en", 1);
        let g = b.input("g", 1);
        let qx = b.wire("qx", 16);
        let qy = b.wire("qy", 16);
        let p = b.wire("p", 16);
        let q = b.wire("q", 16);
        b.cell("rx", CellKind::Reg { has_enable: true }, &[x, en], qx)
            .unwrap();
        b.cell("ry", CellKind::Reg { has_enable: true }, &[y, en], qy)
            .unwrap();
        b.cell("mul", CellKind::Mul, &[qx, qy], p).unwrap();
        b.cell("rq", CellKind::Reg { has_enable: true }, &[p, g], q)
            .unwrap();
        b.mark_output(q);
        if share_operand_reg {
            // qx also feeds a second consumer: multi-fanout register.
            let extra = b.wire("extra", 16);
            b.cell("bufx", CellKind::Buf, &[qx], extra).unwrap();
            b.mark_output(extra);
        }
        let n = b.build().unwrap();
        let plan = StimulusPlan::new(8)
            .drive("x", StimulusSpec::UniformRandom)
            .drive("y", StimulusSpec::UniformRandom)
            .drive("en", StimulusSpec::Constant(1))
            .drive("g", StimulusSpec::MarkovBits { p_one: 0.15, toggle_rate: 0.15 });
        (n, plan)
    }

    #[test]
    fn kapadia_gates_dedicated_operand_registers() {
        let (n, plan) = buffered_mul(false);
        let config = IsolationConfig::default().with_sim_cycles(1500);
        let result = kapadia_enable_gating(&n, &plan, &config).unwrap();
        assert_eq!(result.outcome.num_isolated(), 1);
        assert!(
            result.outcome.power_reduction_percent() > 5.0,
            "{:.2}%",
            result.outcome.power_reduction_percent()
        );
        result.outcome.netlist.validate().unwrap();
    }

    #[test]
    fn kapadia_cannot_gate_multifanout_registers() {
        let (n, plan) = buffered_mul(true);
        let config = IsolationConfig::default().with_sim_cycles(800);
        let result = kapadia_enable_gating(&n, &plan, &config).unwrap();
        assert_eq!(result.outcome.num_isolated(), 0, "Fig. 7 of [4]");
        assert_eq!(result.uncovered.len(), 1);
        // The full algorithm covers it regardless.
        let full = crate::optimize(&n, &plan, &config).unwrap();
        assert_eq!(full.num_isolated(), 1);
    }

    #[test]
    fn kapadia_cannot_protect_pi_fed_logic() {
        // Multiplier fed straight from primary inputs.
        let mut b = NetlistBuilder::new("pif");
        let x = b.input("x", 16);
        let y = b.input("y", 16);
        let g = b.input("g", 1);
        let p = b.wire("p", 16);
        let q = b.wire("q", 16);
        b.cell("mul", CellKind::Mul, &[x, y], p).unwrap();
        b.cell("r", CellKind::Reg { has_enable: true }, &[p, g], q)
            .unwrap();
        b.mark_output(q);
        let n = b.build().unwrap();
        let plan = StimulusPlan::new(2)
            .drive("x", StimulusSpec::UniformRandom)
            .drive("y", StimulusSpec::UniformRandom)
            .drive("g", StimulusSpec::MarkovBits { p_one: 0.2, toggle_rate: 0.2 });
        let config = IsolationConfig::default().with_sim_cycles(800);
        let result = kapadia_enable_gating(&n, &plan, &config).unwrap();
        assert_eq!(result.outcome.num_isolated(), 0);
        let _ = _Sig::bit0(x);
    }
}
