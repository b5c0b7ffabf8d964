//! End-to-end integration: the full Algorithm 1 pipeline on every
//! benchmark design, every isolation style.
//!
//! The key invariant is *architected equivalence*: operand isolation must
//! never change what the design computes — only when internal nodes toggle.
//! Every primary-output trace is compared bit-for-bit before and after.

use operand_isolation::core::{optimize, IsolationConfig, IsolationOutcome, IsolationStyle};
use operand_isolation::designs::{
    alu_ctrl, busnet, design1, design2, figure1, fir, pipeline, Design,
};
use operand_isolation::netlist::{CellKind, Netlist};
use operand_isolation::sim::Testbench;
use operand_isolation::verify::{
    verify_isolation_plan, ReplayVerdict, VerifyConfig, VerifyOutcome,
};

fn all_designs() -> Vec<Design> {
    vec![
        figure1::build(),
        design1::build(&design1::Design1Params {
            lanes: 2,
            act_p_one: 0.3,
            act_toggle_rate: 0.2,
            ..Default::default()
        }),
        design2::build(&design2::Design2Params::default()),
        alu_ctrl::build(&alu_ctrl::AluParams::default()),
        fir::build(&fir::FirParams::default()),
        busnet::build(&busnet::BusParams::default()),
    ]
}

fn po_traces(netlist: &Netlist, design: &Design, cycles: u64) -> Vec<Vec<u64>> {
    let mut tb = Testbench::from_plan(netlist, &design.stimuli).expect("plan");
    // Match outputs by *name* (ids differ between original and transformed).
    let mut names: Vec<String> = netlist
        .primary_outputs()
        .iter()
        .map(|&po| netlist.net(po).name().to_string())
        .collect();
    names.sort();
    for name in &names {
        tb.capture(netlist.find_net(name).expect("po"));
    }
    let report = tb.run(cycles).expect("run");
    names
        .iter()
        .map(|name| {
            report
                .trace(netlist.find_net(name).expect("po"))
                .expect("captured")
                .to_vec()
        })
        .collect()
}

#[test]
fn isolation_preserves_architected_behavior_everywhere() {
    let cycles = 1000;
    for design in all_designs() {
        let reference = po_traces(&design.netlist, &design, cycles);
        for style in IsolationStyle::ALL {
            let config = IsolationConfig::default()
                .with_style(style)
                .with_sim_cycles(600);
            let outcome =
                optimize(&design.netlist, &design.stimuli, &config).expect("optimize");
            outcome.netlist.validate().expect("transformed netlist valid");
            let transformed = po_traces(&outcome.netlist, &design, cycles);
            assert_eq!(
                reference,
                transformed,
                "{} with {style}: primary outputs diverged after isolating {} cells",
                design.netlist.name(),
                outcome.num_isolated()
            );
        }
    }
}

#[test]
fn idle_designs_save_measurable_power() {
    // Designs whose candidates are mostly idle must show double-digit
    // savings with at least one style; the optimizer must never make the
    // measured power *worse* (its cost model guards against that).
    for design in [
        design2::build(&design2::Design2Params::default()),
        alu_ctrl::build(&alu_ctrl::AluParams {
            width: 16,
            valid_duty: 0.3,
        }),
        fir::build(&fir::FirParams {
            valid_duty: 0.15,
            ..Default::default()
        }),
    ] {
        let mut best = f64::MIN;
        for style in IsolationStyle::ALL {
            let config = IsolationConfig::default()
                .with_style(style)
                .with_sim_cycles(1200);
            let outcome =
                optimize(&design.netlist, &design.stimuli, &config).expect("optimize");
            let red = outcome.power_reduction_percent();
            assert!(
                red > -2.0,
                "{} with {style}: isolation degraded power by {:.2}%",
                design.netlist.name(),
                -red
            );
            best = best.max(red);
        }
        assert!(
            best > 10.0,
            "{}: best reduction only {best:.2}%",
            design.netlist.name()
        );
    }
}

#[test]
fn transformed_netlists_roundtrip_through_exports() {
    // The isolated circuits must still export cleanly (names sanitized,
    // every cell kind handled).
    use operand_isolation::netlist::{dot, verilog};
    let design = design2::build(&design2::Design2Params::default());
    let config = IsolationConfig::default()
        .with_style(IsolationStyle::Latch)
        .with_sim_cycles(400);
    let outcome = optimize(&design.netlist, &design.stimuli, &config).expect("optimize");
    let v = verilog::to_verilog(&outcome.netlist);
    assert!(v.contains("module design2"));
    assert!(v.contains("always @(*)"), "latch banks must appear");
    let d = dot::to_dot(&outcome.netlist);
    assert!(d.contains("digraph"));
}

#[test]
fn lookahead_preserves_behavior_and_unlocks_pipelines() {
    // The Section 3 extension: on a pipeline whose stage results land in
    // plain registers, the baseline derivation finds nothing; the one-cycle
    // look-ahead isolates the stage multipliers — without changing a single
    // output bit.
    let design = pipeline::build(&pipeline::PipelineParams::default());
    let cycles = 1200;
    let reference = po_traces(&design.netlist, &design, cycles);

    let base_cfg = IsolationConfig::default().with_sim_cycles(800);
    let base = optimize(&design.netlist, &design.stimuli, &base_cfg).expect("base");
    assert_eq!(base.num_isolated(), 0, "f+=1 must find nothing here");

    let mut look_cfg = base_cfg.clone();
    look_cfg.activation = look_cfg.activation.with_lookahead();
    for style in IsolationStyle::ALL {
        let outcome = optimize(
            &design.netlist,
            &design.stimuli,
            &look_cfg.clone().with_style(style),
        )
        .expect("lookahead optimize");
        assert!(outcome.num_isolated() >= 1, "{style}");
        let transformed = po_traces(&outcome.netlist, &design, cycles);
        assert_eq!(reference, transformed, "{style}: behavior changed");
        assert!(
            outcome.power_reduction_percent() > 5.0,
            "{style}: {:.2}%",
            outcome.power_reduction_percent()
        );
        assert_lookahead_refusals_are_next_state_only(&design.netlist, &outcome, style);
    }
}

/// Pins a known limit of the one-step inductive proof: look-ahead isolates
/// a module exactly when the *plain* register it feeds is not read in the
/// next cycle, so that register's next state really differs while no
/// primary output can see it (the traces above stay equal). Every refused
/// step must therefore be a confirmed violation on a plain register's
/// next state, never on a primary output. Sequential proofs for
/// look-ahead plans (ROADMAP item 3) turn this into "all proved".
fn assert_lookahead_refusals_are_next_state_only(
    netlist: &Netlist,
    outcome: &IsolationOutcome,
    style: IsolationStyle,
) {
    let plan: Vec<_> = outcome
        .isolated
        .iter()
        .map(|r| (r.candidate, r.activation.clone(), r.style))
        .collect();
    let (_, checks) =
        verify_isolation_plan(netlist, &plan, &VerifyConfig::default()).expect("plan splices");
    let plain_register = |observable: &str| {
        let name = observable.split('\'').next().unwrap_or(observable);
        observable.contains("'")
            && netlist
                .find_net(name)
                .and_then(|net| netlist.net(net).driver())
                .is_some_and(|cid| netlist.cell(cid).kind() == CellKind::Reg { has_enable: false })
    };
    let mut refused = 0;
    for check in &checks {
        match &check.outcome {
            VerifyOutcome::Verified(_) => {}
            VerifyOutcome::Violation {
                counterexample,
                replay: ReplayVerdict::Confirmed { observable, .. },
            } => {
                refused += 1;
                for seen in [&counterexample.observable, observable] {
                    assert!(
                        plain_register(seen),
                        "{style} {}: refused on {seen}, not a plain register's next state",
                        check.candidate
                    );
                }
            }
            other => panic!("{style} {}: {other:?}", check.candidate),
        }
    }
    assert!(
        refused >= 1,
        "{style}: the look-ahead finding no longer reproduces"
    );
}

#[test]
fn fsm_dont_cares_preserve_behavior_on_design2() {
    // design2's per-state decodes are mutually exclusive; reachability
    // don't-cares may rewrite activation functions, but never behavior.
    let design = design2::build(&design2::Design2Params::default());
    let cycles = 1200;
    let reference = po_traces(&design.netlist, &design, cycles);
    let config = IsolationConfig::default()
        .with_sim_cycles(800)
        .with_fsm_dont_cares(true);
    let outcome = optimize(&design.netlist, &design.stimuli, &config).expect("optimize");
    assert!(outcome.num_isolated() >= 2);
    let transformed = po_traces(&outcome.netlist, &design, cycles);
    assert_eq!(reference, transformed);

    // The FSM analysis itself: design2's pausable 3-bit counter visits all
    // eight states.
    use operand_isolation::core::find_closed_fsms;
    let fsms = find_closed_fsms(&design.netlist);
    let state_reg = design.netlist.find_cell("fsm_state").expect("fsm reg");
    let fsm = fsms
        .iter()
        .find(|f| f.state_reg == state_reg)
        .expect("closed fsm found");
    assert!(fsm.complete);
    assert_eq!(fsm.reachable, (0..8).collect::<Vec<u64>>());
}

#[test]
fn optimizer_is_deterministic() {
    let design = design1::build(&design1::Design1Params::default());
    let config = IsolationConfig::default().with_sim_cycles(500);
    let a = optimize(&design.netlist, &design.stimuli, &config).expect("run a");
    let b = optimize(&design.netlist, &design.stimuli, &config).expect("run b");
    assert_eq!(a.num_isolated(), b.num_isolated());
    assert_eq!(a.power_after.as_mw(), b.power_after.as_mw());
    let cells_a: Vec<_> = a.isolated.iter().map(|r| r.candidate).collect();
    let cells_b: Vec<_> = b.isolated.iter().map(|r| r.candidate).collect();
    assert_eq!(cells_a, cells_b);
}

#[test]
fn report_percentages_are_consistent() {
    let design = design1::build(&design1::Design1Params::default());
    let config = IsolationConfig::default().with_sim_cycles(500);
    let outcome = optimize(&design.netlist, &design.stimuli, &config).expect("optimize");
    let red = outcome.power_reduction_percent();
    let recomputed = (outcome.power_before - outcome.power_after).as_mw()
        / outcome.power_before.as_mw()
        * 100.0;
    assert!((red - recomputed).abs() < 1e-9);
    assert!(outcome.area_after >= outcome.area_before);
    assert!(outcome.slack_after <= outcome.slack_before);
}
