//! The isolation transform: banks + activation logic (Section 5.2).
//!
//! Three implementation styles, mirroring the paper:
//!
//! * **Latch-based**: transparent latches on every operand bit, enabled by
//!   the activation signal `AS`. Operands freeze at their last value the
//!   first idle cycle — effective even for single idle cycles, but latches
//!   are expensive and hostile to verification/testability/timing.
//! * **AND-based**: AND gates forcing operands to 0 while `AS = 0`. One
//!   extra transition entering/leaving an idle period; pays off for
//!   multi-cycle idleness.
//! * **OR-based**: OR gates forcing operands to 1 while `AS = 0` (the gate
//!   receives `!AS`).
//! * **BDD-synthesized** ([`IsolationStyle::BddSynth`]): AND-gate banks,
//!   but the activation signal is emitted as the canonical ROBDD of `f_c`
//!   rendered as a mux tree ([`oiso_boolex::synthesize_bdd_into`], after
//!   Popel) — the minimized implementation regardless of how the factored
//!   expression was written, with shared BDD subgraphs becoming shared
//!   gates.
//!
//! The activation signal is produced by *activation logic* synthesized from
//! the activation function via [`oiso_boolex::synthesize_into`] (or the
//! BDD emitter for [`IsolationStyle::BddSynth`]).

use oiso_boolex::{synthesize_into_cached, BoolExpr};
use oiso_netlist::{BuildError, CellId, CellKind, NetId, Netlist, PortRole};
use oiso_timing::incremental::BankKind;
use std::collections::HashMap;
use std::fmt;

/// The isolation implementation style.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum IsolationStyle {
    /// AND-gate banks (force 0 while idle).
    #[default]
    And,
    /// OR-gate banks (force 1 while idle).
    Or,
    /// Transparent-latch banks (hold last operand while idle).
    Latch,
    /// AND-gate banks with the activation signal synthesized as the
    /// minimized ROBDD mux circuit of `f_c` instead of the factored
    /// expression tree.
    BddSynth,
}

impl IsolationStyle {
    /// The paper's three styles, in its table order. Deliberately
    /// excludes [`IsolationStyle::BddSynth`] so existing style-sampling
    /// streams (e.g. the verify fuzzer's) stay stable; use
    /// [`IsolationStyle::ALL_WITH_BDD`] to cover every style.
    pub const ALL: [IsolationStyle; 3] =
        [IsolationStyle::And, IsolationStyle::Or, IsolationStyle::Latch];

    /// Every style, including the BDD-synthesized activation variant.
    pub const ALL_WITH_BDD: [IsolationStyle; 4] = [
        IsolationStyle::And,
        IsolationStyle::Or,
        IsolationStyle::Latch,
        IsolationStyle::BddSynth,
    ];

    /// The corresponding timing-bank kind.
    pub fn bank_kind(self) -> BankKind {
        match self {
            IsolationStyle::And | IsolationStyle::BddSynth => BankKind::And,
            IsolationStyle::Or => BankKind::Or,
            IsolationStyle::Latch => BankKind::Latch,
        }
    }

    /// Stable lowercase name: the CLI's `--style` values and serve's
    /// `"style"` field.
    pub fn name(self) -> &'static str {
        match self {
            IsolationStyle::And => "and",
            IsolationStyle::Or => "or",
            IsolationStyle::Latch => "latch",
            IsolationStyle::BddSynth => "bdd",
        }
    }

    /// The style called `raw` by [`IsolationStyle::name`], if any.
    pub fn parse(raw: &str) -> Option<IsolationStyle> {
        Self::ALL_WITH_BDD.into_iter().find(|s| s.name() == raw)
    }

    /// Table-row label used in reports ("AND-isolated", ...).
    pub fn label(self) -> &'static str {
        match self {
            IsolationStyle::And => "AND-isolated",
            IsolationStyle::Or => "OR-isolated",
            IsolationStyle::Latch => "LAT-isolated",
            IsolationStyle::BddSynth => "BDD-isolated",
        }
    }
}

impl fmt::Display for IsolationStyle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            IsolationStyle::And => "AND",
            IsolationStyle::Or => "OR",
            IsolationStyle::Latch => "LATCH",
            IsolationStyle::BddSynth => "BDD",
        })
    }
}

/// What one [`isolate`] call added to the netlist.
#[derive(Debug, Clone)]
pub struct IsolationRecord {
    /// The isolated candidate.
    pub candidate: CellId,
    /// The style used.
    pub style: IsolationStyle,
    /// The 1-bit activation-signal net `AS`.
    pub activation_net: NetId,
    /// The activation function the banks were built from, in terms of the
    /// *original* netlist's signals. Equivalence checkers replay this as
    /// the `f_c` of the paper's safety obligation `f_c → (out ≡ out')`.
    pub activation: BoolExpr,
    /// The inserted bank cells (one per isolated operand port).
    pub bank_cells: Vec<CellId>,
    /// Number of operand bits isolated (the bank width — the paper's
    /// isolation-bank area driver).
    pub isolated_bits: usize,
}

/// Isolates `candidate` with the given style: synthesizes the activation
/// logic for `activation`, inserts an isolation bank on every *data* input
/// port, and rewires the candidate behind the banks.
///
/// The caller is responsible for `activation` actually being the cell's
/// activation function (Algorithm 1 derives it; tests may pass anything).
///
/// # Errors
///
/// Returns an error if netlist mutation fails (e.g. name collisions with
/// pre-existing `iso_*` nets not created through
/// [`Netlist::fresh_net_name`]).
pub fn isolate(
    netlist: &mut Netlist,
    candidate: CellId,
    activation: &BoolExpr,
    style: IsolationStyle,
) -> Result<IsolationRecord, BuildError> {
    let mut cache = HashMap::new();
    isolate_with_cache(netlist, candidate, activation, style, &mut cache)
}

/// Like [`isolate`], but shares activation logic across calls through
/// `cache` (see [`oiso_boolex::synthesize_into_cached`]). Candidates whose
/// activation functions overlap — typical in FSM-scheduled datapaths where
/// many modules decode the same states — then share one implementation
/// instead of duplicating gates.
///
/// # Errors
///
/// As [`isolate`].
pub fn isolate_with_cache(
    netlist: &mut Netlist,
    candidate: CellId,
    activation: &BoolExpr,
    style: IsolationStyle,
    cache: &mut HashMap<BoolExpr, NetId>,
) -> Result<IsolationRecord, BuildError> {
    let cname = netlist.cell(candidate).name().to_string();
    let prefix = format!("iso_{cname}");

    // 1. Activation logic -> AS net. Both emitters share one cache, so a
    // candidate whose activation was already synthesized (by either
    // emitter) reuses that net — the implementations are functionally
    // identical, and sharing is the point of the cache.
    let as_net = match style {
        IsolationStyle::BddSynth => {
            oiso_boolex::synthesize_bdd_into(netlist, activation, &format!("{prefix}_act"), cache)?
        }
        _ => synthesize_into_cached(netlist, activation, &format!("{prefix}_act"), cache)?,
    };

    // For OR banks the control input is !AS (force 1 when idle).
    let control_net = match style {
        IsolationStyle::Or => {
            let inv = netlist.add_wire(netlist.fresh_net_name(&format!("{prefix}_nas")), 1)?;
            netlist.add_cell(
                netlist.fresh_cell_name(&format!("{prefix}_nas")),
                CellKind::Not,
                &[as_net],
                inv,
            )?;
            inv
        }
        _ => as_net,
    };

    // 2. One bank per data input port.
    let ports: Vec<usize> = (0..netlist.cell(candidate).inputs().len())
        .filter(|&p| netlist.cell(candidate).port_role(p) == PortRole::Data)
        .collect();
    let mut bank_cells = Vec::new();
    let mut isolated_bits = 0usize;
    for port in ports {
        let old_net = netlist.cell(candidate).inputs()[port];
        let width = netlist.net(old_net).width();
        isolated_bits += width as usize;
        let banked = netlist.add_wire(
            netlist.fresh_net_name(&format!("{prefix}_d{port}")),
            width,
        )?;
        let bank = match style {
            IsolationStyle::And | IsolationStyle::Or | IsolationStyle::BddSynth => {
                // Replicate the 1-bit control to operand width.
                let wide = replicate(netlist, control_net, width, &prefix)?;
                let kind = if style == IsolationStyle::Or {
                    CellKind::Or
                } else {
                    CellKind::And
                };
                netlist.add_cell(
                    netlist.fresh_cell_name(&format!("{prefix}_bank{port}")),
                    kind,
                    &[old_net, wide],
                    banked,
                )?
            }
            IsolationStyle::Latch => netlist.add_cell(
                netlist.fresh_cell_name(&format!("{prefix}_bank{port}")),
                CellKind::Latch,
                &[old_net, control_net],
                banked,
            )?,
        };
        netlist.rewire_input(candidate, port, banked)?;
        bank_cells.push(bank);
    }

    debug_assert!(netlist.validate().is_ok());
    Ok(IsolationRecord {
        candidate,
        style,
        activation_net: as_net,
        activation: activation.clone(),
        bank_cells,
        isolated_bits,
    })
}

/// Applies a sequence of isolations to a copy of `netlist`, invoking
/// `observer(before, after, record)` after every step with the netlist as
/// it stood *before* and *after* that candidate's banks went in.
///
/// This is the transform hook the verification harness builds on: each
/// pre/post pair is a self-contained equivalence obligation, so a checker
/// can attribute any mismatch to the exact candidate whose isolation
/// introduced it instead of diffing the fully transformed design. All steps
/// share one activation-synthesis cache, exactly as [`isolate_with_cache`]
/// in the optimizer's inner loop.
///
/// # Errors
///
/// As [`isolate`]; the observer is not called for the failing step.
pub fn isolate_each<F>(
    netlist: &Netlist,
    plan: &[(CellId, BoolExpr, IsolationStyle)],
    mut observer: F,
) -> Result<(Netlist, Vec<IsolationRecord>), BuildError>
where
    F: FnMut(&Netlist, &Netlist, &IsolationRecord),
{
    let mut work = netlist.clone();
    let mut cache = HashMap::new();
    let mut records = Vec::with_capacity(plan.len());
    for (candidate, activation, style) in plan {
        let before = work.clone();
        let record = isolate_with_cache(&mut work, *candidate, activation, *style, &mut cache)?;
        observer(&before, &work, &record);
        records.push(record);
    }
    Ok((work, records))
}

/// Replicates a 1-bit net to `width` bits (a fanout bundle, implemented as
/// a `Concat` of the same bit — pure wiring, zero area).
fn replicate(
    netlist: &mut Netlist,
    bit: NetId,
    width: u8,
    prefix: &str,
) -> Result<NetId, BuildError> {
    if width == 1 {
        return Ok(bit);
    }
    let wide = netlist.add_wire(netlist.fresh_net_name(&format!("{prefix}_rep")), width)?;
    let inputs = vec![bit; width as usize];
    netlist.add_cell(
        netlist.fresh_cell_name(&format!("{prefix}_rep")),
        CellKind::Concat,
        &inputs,
        wide,
    )?;
    Ok(wide)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oiso_boolex::Signal;
    use oiso_netlist::NetlistBuilder;
    use oiso_sim::{StimulusPlan, StimulusSpec, Testbench};

    /// Adder whose result is stored only when `g = 1`.
    fn gated_adder() -> (Netlist, CellId, NetId) {
        let mut b = NetlistBuilder::new("ga");
        let x = b.input("x", 8);
        let y = b.input("y", 8);
        let g = b.input("g", 1);
        let s = b.wire("s", 8);
        let q = b.wire("q", 8);
        let add = b.cell("add", CellKind::Add, &[x, y], s).unwrap();
        b.cell("r", CellKind::Reg { has_enable: true }, &[s, g], q)
            .unwrap();
        b.mark_output(q);
        (b.build().unwrap(), add, g)
    }

    fn run_toggles(n: &Netlist, g_spec: StimulusSpec) -> (u64, u64) {
        // Returns (toggles at adder input port 0 net, toggles at adder out).
        let plan = StimulusPlan::new(9)
            .drive("x", StimulusSpec::UniformRandom)
            .drive("y", StimulusSpec::UniformRandom)
            .drive("g", g_spec);
        let report = Testbench::from_plan(n, &plan).unwrap().run(4000).unwrap();
        let add = n.find_cell("add").unwrap();
        let in0 = n.cell(add).inputs()[0];
        let out = n.cell(add).output();
        (report.toggle_count(in0), report.toggle_count(out))
    }

    #[test]
    fn functional_equivalence_under_isolation() {
        // The architected output (q) must be bit-identical before and after
        // isolation for every style, for the same stimulus.
        let (orig, _, _) = gated_adder();
        let plan = StimulusPlan::new(4)
            .drive("x", StimulusSpec::UniformRandom)
            .drive("y", StimulusSpec::UniformRandom)
            .drive("g", StimulusSpec::MarkovBits {
                p_one: 0.4,
                toggle_rate: 0.4,
            });
        // Collect q trace of the original via a per-cycle monitor... simpler:
        // compare q toggle counts AND final static probabilities per bit.
        let ref_report = Testbench::from_plan(&orig, &plan).unwrap().run(3000).unwrap();
        let q = orig.find_net("q").unwrap();

        for style in IsolationStyle::ALL_WITH_BDD {
            let (mut iso, add, g) = gated_adder();
            let act = BoolExpr::var(Signal::bit0(g));
            isolate(&mut iso, add, &act, style).unwrap();
            iso.validate().unwrap();
            let report = Testbench::from_plan(&iso, &plan).unwrap().run(3000).unwrap();
            let qi = iso.find_net("q").unwrap();
            assert_eq!(
                ref_report.toggle_count(q),
                report.toggle_count(qi),
                "style {style}: q toggle trace diverged"
            );
            for bit in 0..8 {
                assert_eq!(
                    ref_report.static_prob(q, bit),
                    report.static_prob(qi, bit),
                    "style {style}: q bit {bit} diverged"
                );
            }
        }
    }

    #[test]
    fn isolation_quiets_idle_operands() {
        let (orig, _, _) = gated_adder();
        let mostly_idle = StimulusSpec::MarkovBits {
            p_one: 0.1,
            toggle_rate: 0.1,
        };
        let (in_toggles_before, out_toggles_before) =
            run_toggles(&orig, mostly_idle.clone());

        for style in IsolationStyle::ALL_WITH_BDD {
            let (mut iso, add, g) = gated_adder();
            let act = BoolExpr::var(Signal::bit0(g));
            isolate(&mut iso, add, &act, style).unwrap();
            let (in_toggles, out_toggles) = run_toggles(&iso, mostly_idle.clone());
            assert!(
                in_toggles < in_toggles_before / 2,
                "style {style}: {in_toggles} vs {in_toggles_before}"
            );
            assert!(
                out_toggles < out_toggles_before / 2,
                "style {style}: output should quiet too"
            );
        }
    }

    #[test]
    fn latch_blocks_first_idle_cycle_gates_do_not() {
        // g: 1,0,1,0,... — single-cycle idle periods. The latch bank holds
        // the operand (no extra transitions); AND banks force 0 and re-open
        // every other cycle, adding transitions. This is the effect behind
        // the paper's Section 5.2 remark that gate-based isolation "will
        // result in power savings only if the module is idle for several
        // consecutive clock cycles".
        let alternating = StimulusSpec::Trace(vec![1, 0]);
        let (orig, _, _) = gated_adder();
        let plan = |n: &Netlist, style: Option<IsolationStyle>| {
            let (netlist, add, g);
            let target: &Netlist = if let Some(s) = style {
                let t = gated_adder();
                netlist = {
                    let (mut iso, a, gg) = t;
                    add = a;
                    g = gg;
                    isolate(&mut iso, add, &BoolExpr::var(Signal::bit0(g)), s).unwrap();
                    iso
                };
                &netlist
            } else {
                n
            };
            let plan = StimulusPlan::new(2)
                .drive("x", StimulusSpec::UniformRandom)
                .drive("y", StimulusSpec::UniformRandom)
                .drive("g", alternating.clone());
            let report = Testbench::from_plan(target, &plan).unwrap().run(4000).unwrap();
            let a = target.find_cell("add").unwrap();
            report.toggle_count(target.cell(a).inputs()[0])
        };
        let baseline = plan(&orig, None);
        let latch = plan(&orig, Some(IsolationStyle::Latch));
        let and = plan(&orig, Some(IsolationStyle::And));
        // Latch bank reduces operand activity even at single-cycle idles.
        assert!(latch < baseline, "latch {latch} vs baseline {baseline}");
        // AND bank cannot do better than the latch here.
        assert!(and >= latch, "and {and} vs latch {latch}");
    }

    #[test]
    fn or_style_forces_ones() {
        let (mut iso, add, g) = gated_adder();
        isolate(&mut iso, add, &BoolExpr::var(Signal::bit0(g)), IsolationStyle::Or).unwrap();
        let plan = StimulusPlan::new(1)
            .drive("x", StimulusSpec::Constant(0x12))
            .drive("y", StimulusSpec::Constant(0x34))
            .drive("g", StimulusSpec::Constant(0));
        let mut tb = Testbench::from_plan(&iso, &plan).unwrap();
        let in0 = iso.cell(add).inputs()[0];
        tb.monitor(
            "all_ones",
            BoolExpr::and(
                (0..8)
                    .map(|bit| BoolExpr::var(Signal::new(in0, bit)))
                    .collect(),
            ),
        );
        let report = tb.run(10).unwrap();
        assert_eq!(report.monitor_count("all_ones"), Some(10));
    }

    #[test]
    fn shared_activation_logic_across_candidates() {
        // Two adders in separate blocks, both gated by !S & G: the second
        // isolation must reuse the first one's activation gates.
        let mut b = NetlistBuilder::new("shared_as");
        let x = b.input("x", 8);
        let y = b.input("y", 8);
        let c = b.input("c", 8);
        let s = b.input("S", 1);
        let g = b.input("G", 1);
        let mut adders = Vec::new();
        for i in 0..2 {
            let sum = b.wire(format!("sum{i}"), 8);
            let m = b.wire(format!("m{i}"), 8);
            let q = b.wire(format!("q{i}"), 8);
            adders.push(b.cell(format!("add{i}"), CellKind::Add, &[x, y], sum).unwrap());
            b.cell(format!("mx{i}"), CellKind::Mux, &[s, sum, c], m).unwrap();
            b.cell(format!("r{i}"), CellKind::Reg { has_enable: true }, &[m, g], q)
                .unwrap();
            b.mark_output(q);
        }
        let mut n = b.build().unwrap();
        let act = BoolExpr::and2(
            BoolExpr::var(Signal::bit0(s)).not(),
            BoolExpr::var(Signal::bit0(g)),
        );
        let mut cache = std::collections::HashMap::new();
        let r0 =
            isolate_with_cache(&mut n, adders[0], &act, IsolationStyle::And, &mut cache)
                .unwrap();
        let cells_after_first = n.num_cells();
        let r1 =
            isolate_with_cache(&mut n, adders[1], &act, IsolationStyle::And, &mut cache)
                .unwrap();
        assert_eq!(r0.activation_net, r1.activation_net, "AS net shared");
        // Second isolation adds banks + replication but NO activation gates.
        let act_cells_added = n
            .cells()
            .filter(|(_, cell)| {
                cell.name().contains("_act") && cell.name().starts_with("iso_add1")
            })
            .count();
        assert_eq!(act_cells_added, 0, "no duplicated activation logic");
        assert!(n.num_cells() > cells_after_first, "banks still added");
        n.validate().unwrap();
    }

    #[test]
    fn record_reports_banks_and_bits() {
        let (mut iso, add, g) = gated_adder();
        let rec =
            isolate(&mut iso, add, &BoolExpr::var(Signal::bit0(g)), IsolationStyle::Latch)
                .unwrap();
        assert_eq!(rec.candidate, add);
        assert_eq!(rec.bank_cells.len(), 2);
        assert_eq!(rec.isolated_bits, 16);
        assert_eq!(rec.style, IsolationStyle::Latch);
        assert_eq!(iso.net(rec.activation_net).width(), 1);
        // Banks are latches.
        for &bc in &rec.bank_cells {
            assert_eq!(iso.cell(bc).kind(), CellKind::Latch);
        }
    }

    #[test]
    fn isolate_each_exposes_pre_post_pairs() {
        let (orig, add, g) = gated_adder();
        let act = BoolExpr::var(Signal::bit0(g));
        let plan = vec![(add, act.clone(), IsolationStyle::And)];
        let mut observed = 0usize;
        let (iso, records) = isolate_each(&orig, &plan, |before, after, rec| {
            observed += 1;
            assert_eq!(before.fingerprint(), orig.fingerprint(), "pre = untouched");
            assert!(after.num_cells() > before.num_cells(), "post grew");
            assert_eq!(rec.candidate, add);
            assert_eq!(rec.activation, act);
        })
        .unwrap();
        assert_eq!(observed, 1);
        assert_eq!(records.len(), 1);
        assert!(iso.num_cells() > orig.num_cells());
        // The input netlist is untouched.
        assert_eq!(orig.fingerprint(), gated_adder().0.fingerprint());
        iso.validate().unwrap();
    }

    #[test]
    fn styles_have_stable_labels() {
        assert_eq!(IsolationStyle::And.label(), "AND-isolated");
        assert_eq!(IsolationStyle::Or.label(), "OR-isolated");
        assert_eq!(IsolationStyle::Latch.label(), "LAT-isolated");
        assert_eq!(IsolationStyle::BddSynth.label(), "BDD-isolated");
        assert_eq!(IsolationStyle::Latch.to_string(), "LATCH");
        assert_eq!(IsolationStyle::BddSynth.to_string(), "BDD");
        assert_eq!(IsolationStyle::ALL.len(), 3, "fuzz streams depend on this");
        assert_eq!(IsolationStyle::ALL_WITH_BDD.len(), 4);
    }

    #[test]
    fn bdd_synth_emits_mux_tree_activation() {
        // A two-level factored activation: the BDD emitter must produce a
        // mux-based AS net that simulates identically to the tree form.
        let build = || {
            let mut b = NetlistBuilder::new("bs");
            let x = b.input("x", 8);
            let y = b.input("y", 8);
            let g = b.input("g", 1);
            let h = b.input("h", 1);
            let s = b.wire("s", 8);
            let q = b.wire("q", 8);
            let en = b.wire("en", 1);
            b.cell("en_or", CellKind::Or, &[g, h], en).unwrap();
            let add = b.cell("add", CellKind::Add, &[x, y], s).unwrap();
            b.cell("r", CellKind::Reg { has_enable: true }, &[s, en], q)
                .unwrap();
            b.mark_output(q);
            (b.build().unwrap(), add, g, h)
        };
        let (orig, ..) = build();
        let (mut iso, add, g, h) = build();
        let act = BoolExpr::or2(
            BoolExpr::var(Signal::bit0(g)),
            BoolExpr::var(Signal::bit0(h)),
        );
        let rec = isolate(&mut iso, add, &act, IsolationStyle::BddSynth).unwrap();
        iso.validate().unwrap();
        assert_eq!(rec.style, IsolationStyle::BddSynth);
        // The activation logic is mux cells, not the boolex gate tree.
        assert!(
            iso.cells().any(|(_, c)| c.kind() == CellKind::Mux
                && c.name().starts_with("iso_add_act")),
            "expected mux-tree activation logic"
        );
        // Banks are plain AND gates.
        for &bc in &rec.bank_cells {
            assert_eq!(iso.cell(bc).kind(), CellKind::And);
        }
        // And the architected output is untouched by the transform.
        let plan = StimulusPlan::new(11)
            .drive("x", StimulusSpec::UniformRandom)
            .drive("y", StimulusSpec::UniformRandom)
            .drive("g", StimulusSpec::MarkovBits { p_one: 0.3, toggle_rate: 0.4 })
            .drive("h", StimulusSpec::MarkovBits { p_one: 0.2, toggle_rate: 0.3 });
        let r0 = Testbench::from_plan(&orig, &plan).unwrap().run(2000).unwrap();
        let r1 = Testbench::from_plan(&iso, &plan).unwrap().run(2000).unwrap();
        let q0 = orig.find_net("q").unwrap();
        let q1 = iso.find_net("q").unwrap();
        assert_eq!(r0.toggle_count(q0), r1.toggle_count(q1));
        for bit in 0..8 {
            assert_eq!(r0.static_prob(q0, bit), r1.static_prob(q1, bit));
        }
    }
}
