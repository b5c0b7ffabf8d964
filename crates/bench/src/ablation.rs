//! EXP-ABL: ablations of the design choices DESIGN.md calls out.
//!
//! * **Estimator fidelity** — Eq.-1 simple vs. pairwise (Eqs. 2–3) vs.
//!   measured-conditional primary-savings estimation, each compared to the
//!   re-simulated ground truth (the paper's own validation loop: "the
//!   toggle rate at the output of a candidate after isolation can then be
//!   measured by simulation in the following iteration").
//! * **Secondary savings on/off** — how much of the win comes from the
//!   fanout term of Eqs. 4–5.
//! * **Area-weight sweep** — how `ω_a` throttles isolation (Eq. 6).
//! * **Slack guard on/off** — candidates rejected to protect timing.

use oiso_core::{
    derive_activation_functions, find_closed_fsms, optimize,
    refine_with_fsm_dont_cares, ActivationConfig, EstimatorKind, IsolationConfig,
    IsolationError,
};
use oiso_designs::pipeline::{build as build_pipeline, PipelineParams};
use oiso_designs::Design;
use oiso_techlib::{Frequency, OperatingConditions, Time, Voltage};
use std::fmt::Write as _;

/// Estimator-fidelity result for one estimator kind.
#[derive(Debug, Clone, PartialEq)]
pub struct EstimatorFidelity {
    /// The estimator.
    pub kind: EstimatorKind,
    /// Sum of per-iteration estimated savings, mW.
    pub estimated_mw: f64,
    /// Measured (re-simulated) savings, mW.
    pub measured_mw: f64,
}

impl EstimatorFidelity {
    /// Relative estimation error vs. ground truth.
    pub fn relative_error(&self) -> f64 {
        if self.measured_mw.abs() < f64::EPSILON {
            return 0.0;
        }
        (self.estimated_mw - self.measured_mw).abs() / self.measured_mw
    }
}

/// Runs the estimator-fidelity ablation on one design.
///
/// # Errors
///
/// Returns an error if simulation fails.
pub fn estimator_fidelity(
    design: &Design,
    config: &IsolationConfig,
) -> Result<Vec<EstimatorFidelity>, IsolationError> {
    let kinds = [
        EstimatorKind::Simple,
        EstimatorKind::Pairwise,
        EstimatorKind::MeasuredConditional,
    ];
    let run_config = config.clone().with_threads(1);
    oiso_par::try_parallel_map(config.threads, &kinds, |_, &kind| {
        let c = run_config.clone().with_estimator(kind);
        let outcome = optimize(&design.netlist, &design.stimuli, &c)?;
        let estimated: f64 = outcome
            .iterations
            .iter()
            .flat_map(|it| it.isolated.iter().map(|&(_, _, mw)| mw))
            .sum();
        let measured = (outcome.power_before - outcome.power_after).as_mw();
        Ok(EstimatorFidelity {
            kind,
            estimated_mw: estimated,
            measured_mw: measured,
        })
    })
}

/// Secondary-savings ablation result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SecondaryAblation {
    /// Measured reduction with the Eqs. 4–5 term active.
    pub with_secondary_pct: f64,
    /// Measured reduction with the term zeroed.
    pub without_secondary_pct: f64,
    /// Isolated counts (with, without).
    pub isolated: (usize, usize),
}

/// Runs the secondary-savings on/off ablation.
///
/// # Errors
///
/// Returns an error if simulation fails.
pub fn secondary_savings(
    design: &Design,
    config: &IsolationConfig,
) -> Result<SecondaryAblation, IsolationError> {
    let run_config = config.clone().with_threads(1);
    let outcomes =
        oiso_par::try_parallel_map(config.threads, &[true, false], |_, &enabled| {
            optimize(
                &design.netlist,
                &design.stimuli,
                &run_config.clone().with_secondary_savings(enabled),
            )
        })?;
    let [on, off] = <[_; 2]>::try_from(outcomes).expect("two ablation arms");
    Ok(SecondaryAblation {
        with_secondary_pct: on.power_reduction_percent(),
        without_secondary_pct: off.power_reduction_percent(),
        isolated: (on.num_isolated(), off.num_isolated()),
    })
}

/// One point of the area-weight sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeightPoint {
    /// The `ω_a` weight.
    pub omega_a: f64,
    /// Measured power reduction, percent.
    pub power_reduction_pct: f64,
    /// Measured area increase, percent.
    pub area_increase_pct: f64,
    /// Candidates isolated.
    pub isolated: usize,
}

/// Sweeps `ω_a` (with `ω_p = 1`).
///
/// # Errors
///
/// Returns an error if simulation fails.
pub fn weight_sweep(
    design: &Design,
    config: &IsolationConfig,
    omegas: &[f64],
) -> Result<Vec<WeightPoint>, IsolationError> {
    let run_config = config.clone().with_threads(1);
    oiso_par::try_parallel_map(config.threads, omegas, |_, &omega_a| {
        let c = run_config.clone().with_weights(oiso_core::CostWeights {
            power: 1.0,
            area: omega_a,
        });
        let outcome = optimize(&design.netlist, &design.stimuli, &c)?;
        Ok(WeightPoint {
            omega_a,
            power_reduction_pct: outcome.power_reduction_percent(),
            area_increase_pct: outcome.area_increase_percent(),
            isolated: outcome.num_isolated(),
        })
    })
}

/// Slack-guard ablation result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlackAblation {
    /// With the guard: (isolated, measured reduction %, final slack ns).
    pub guarded: (usize, f64, f64),
    /// Without the guard: same tuple.
    pub unguarded: (usize, f64, f64),
}

/// Runs the slack-guard on/off ablation at an aggressive clock.
///
/// # Errors
///
/// Returns an error if simulation fails.
pub fn slack_guard(
    design: &Design,
    config: &IsolationConfig,
    clock_mhz: f64,
) -> Result<SlackAblation, IsolationError> {
    let tight = OperatingConditions::new(
        Voltage::from_volts(2.5),
        Frequency::from_mhz(clock_mhz),
    );
    let thresholds = [Some(Time::ZERO), None];
    let run_config = config.clone().with_threads(1);
    let outcomes =
        oiso_par::try_parallel_map(config.threads, &thresholds, |_, &threshold| {
            let mut c = run_config.clone().with_slack_threshold(threshold);
            c.conditions = tight;
            optimize(&design.netlist, &design.stimuli, &c)
        })?;
    let [g, u] = <[_; 2]>::try_from(outcomes).expect("two ablation arms");
    Ok(SlackAblation {
        guarded: (
            g.num_isolated(),
            g.power_reduction_percent(),
            g.slack_after.as_ns(),
        ),
        unguarded: (
            u.num_isolated(),
            u.power_reduction_percent(),
            u.slack_after.as_ns(),
        ),
    })
}

/// Register look-ahead ablation result (the Section 3 extension).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LookaheadAblation {
    /// Baseline `f⁺ = 1`: (isolated, measured power reduction %).
    pub baseline: (usize, f64),
    /// One-cycle structural look-ahead: same tuple.
    pub lookahead: (usize, f64),
}

/// Runs the look-ahead on/off ablation on the pipelined design, where all
/// stage results land in plain pipeline registers and the baseline rule
/// finds no isolation cases at all.
///
/// # Errors
///
/// Returns an error if simulation fails.
pub fn register_lookahead(
    config: &IsolationConfig,
) -> Result<LookaheadAblation, IsolationError> {
    let design = build_pipeline(&PipelineParams::default());
    let base = optimize(&design.netlist, &design.stimuli, config)?;
    let mut look_cfg = config.clone();
    look_cfg.activation = look_cfg.activation.with_lookahead();
    let look = optimize(&design.netlist, &design.stimuli, &look_cfg)?;
    Ok(LookaheadAblation {
        baseline: (base.num_isolated(), base.power_reduction_percent()),
        lookahead: (look.num_isolated(), look.power_reduction_percent()),
    })
}

/// FSM don't-care ablation result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FsmDcAblation {
    /// Total activation-function literals across candidates, baseline.
    pub literals_baseline: usize,
    /// Same total after reachability don't-care refinement.
    pub literals_refined: usize,
    /// Closed FSMs found.
    pub fsms: usize,
}

/// Measures how much FSM-reachability don't-cares shrink the activation
/// logic of a design (Section 3's "analyzing the corresponding FSM").
pub fn fsm_dont_cares(design: &Design) -> FsmDcAblation {
    let netlist = &design.netlist;
    let acts = derive_activation_functions(netlist, &ActivationConfig::default());
    let fsms = find_closed_fsms(netlist);
    let mut baseline = 0usize;
    let mut refined = 0usize;
    for cid in netlist.arithmetic_cells() {
        let Some(act) = acts.get(&cid) else { continue };
        if act.is_const(true) || act.is_const(false) {
            continue;
        }
        baseline += act.literal_count();
        refined += refine_with_fsm_dont_cares(netlist, &fsms, act).literal_count();
    }
    FsmDcAblation {
        literals_baseline: baseline,
        literals_refined: refined,
        fsms: fsms.len(),
    }
}

/// Renders all ablation results.
pub fn render(
    fidelity: &[EstimatorFidelity],
    secondary: &SecondaryAblation,
    weights: &[WeightPoint],
    slack: &SlackAblation,
    lookahead: &LookaheadAblation,
    fsm_dc: &FsmDcAblation,
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "(a) estimator fidelity (estimated vs measured savings)");
    for f in fidelity {
        let _ = writeln!(
            out,
            "    {:<22} est {:>7.4} mW   meas {:>7.4} mW   rel.err {:>6.1}%",
            format!("{:?}", f.kind),
            f.estimated_mw,
            f.measured_mw,
            f.relative_error() * 100.0
        );
    }
    let _ = writeln!(
        out,
        "(b) secondary savings: with {:.2}% ({} iso) / without {:.2}% ({} iso)",
        secondary.with_secondary_pct,
        secondary.isolated.0,
        secondary.without_secondary_pct,
        secondary.isolated.1
    );
    let _ = writeln!(out, "(c) area-weight sweep (omega_p = 1)");
    for w in weights {
        let _ = writeln!(
            out,
            "    omega_a {:>5.2}: {:>6.2}% power red, {:>6.2}% area incr, {} isolated",
            w.omega_a, w.power_reduction_pct, w.area_increase_pct, w.isolated
        );
    }
    let _ = writeln!(
        out,
        "(d) slack guard at tight clock: guarded {} iso / {:.2}% / slack {:.3} ns; \
         unguarded {} iso / {:.2}% / slack {:.3} ns",
        slack.guarded.0,
        slack.guarded.1,
        slack.guarded.2,
        slack.unguarded.0,
        slack.unguarded.1,
        slack.unguarded.2
    );
    let _ = writeln!(
        out,
        "(e) register look-ahead (pipelined design): f+=1 baseline {} iso / {:.2}%; \
         look-ahead {} iso / {:.2}%",
        lookahead.baseline.0,
        lookahead.baseline.1,
        lookahead.lookahead.0,
        lookahead.lookahead.1
    );
    let _ = writeln!(
        out,
        "(f) FSM reachability don't-cares (design2): {} closed FSM(s), \
         activation literals {} -> {}",
        fsm_dc.fsms, fsm_dc.literals_baseline, fsm_dc.literals_refined
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use oiso_designs::design1::{build, Design1Params};

    #[test]
    fn estimator_fidelity_is_sane() {
        let design = build(&Design1Params {
            lanes: 2,
            act_p_one: 0.2,
            act_toggle_rate: 0.2,
            ..Default::default()
        });
        let config = IsolationConfig::default().with_sim_cycles(800);
        let rows = estimator_fidelity(&design, &config).unwrap();
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!(r.measured_mw > 0.0, "{r:?}");
            assert!(r.estimated_mw > 0.0, "{r:?}");
            // Estimates must be in the right order of magnitude.
            assert!(r.relative_error() < 1.0, "{r:?}");
        }
    }

    #[test]
    fn lookahead_unlocks_pipelined_candidates() {
        let config = IsolationConfig::default().with_sim_cycles(800);
        let result = register_lookahead(&config).unwrap();
        assert_eq!(result.baseline.0, 0, "f+=1 finds nothing in a pipeline");
        assert!(result.lookahead.0 >= 1, "{result:?}");
        assert!(
            result.lookahead.1 > result.baseline.1 + 5.0,
            "look-ahead must unlock real savings: {result:?}"
        );
    }

    #[test]
    fn fsm_dont_cares_never_grow_literals() {
        use oiso_designs::design2::{build as build_d2, Design2Params};
        let result = fsm_dont_cares(&build_d2(&Design2Params::default()));
        // The figures EXPERIMENTS.md publishes for EXP-ABL (f).
        assert_eq!(result.fsms, 1);
        assert_eq!((result.literals_baseline, result.literals_refined), (9, 5));
    }

    #[test]
    fn heavy_area_weight_reduces_isolation() {
        let design = build(&Design1Params {
            lanes: 2,
            act_p_one: 0.3,
            act_toggle_rate: 0.2,
            ..Default::default()
        });
        let config = IsolationConfig::default().with_sim_cycles(600);
        let points = weight_sweep(&design, &config, &[0.0, 50.0]).unwrap();
        assert!(points[0].isolated >= points[1].isolated);
    }
}
