//! Calibration and integration battery for the static activity engine.
//!
//! Four contracts, extending `crates/activity/tests/calibration.rs`
//! (which pins per-net accuracy on the bundled designs close to the
//! engine):
//!
//! * design-wide static density stays within `TOTAL_TOL` of the cycle
//!   simulator on every bundled design;
//! * the analyzer holds a looser `MUTANT_TOL` off the happy path, on
//!   structural mutants it was never tuned for;
//! * activity pre-ranking is simulation-free: a ranking-on optimize run
//!   performs exactly as many simulator invocations as a ranking-off
//!   run (asserted via `MemoStats`), and under a non-binding candidate
//!   budget its accepted output is byte-identical at threads 1, 2, 4;
//! * under a *binding* candidate cap, ranking keeps the statically most
//!   promising candidate, so the ranked run saves at least as much
//!   power as the unranked run on at least one bundled design.

use operand_isolation::activity::{analyze_activity_with_plan, ActivityOptions};
use operand_isolation::core::{optimize_with_memo, IsolationConfig, IsolationOutcome, RunBudget};
use operand_isolation::designs::{bundled, BUNDLED_NAMES};
use operand_isolation::netlist::Netlist;
use operand_isolation::sim::{SimMemo, StimulusPlan, Testbench};
use operand_isolation::verify::mutate_netlist;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Design-wide tolerance on total transition density, matching the
/// crate-level calibration test and the `actbench --check` gate.
const TOTAL_TOL: f64 = 0.10;

/// Mutant-corpus tolerance: mutations deliberately produce structure the
/// estimator was never tuned on (dead cones, rewired operands), so the
/// bound is looser but still within the same order of accuracy.
const MUTANT_TOL: f64 = 0.20;

const CYCLES: u64 = 8_000;

/// Total static density vs simulated density on one plan.
fn density_gap(netlist: &Netlist, plan: &StimulusPlan, cycles: u64) -> (f64, f64) {
    let report = analyze_activity_with_plan(netlist, plan, &ActivityOptions::default());
    let sim = Testbench::from_plan(netlist, plan)
        .and_then(|mut tb| tb.run(cycles))
        .expect("bundled plan drives every input");
    let mut stat = 0.0;
    let mut meas = 0.0;
    for (id, _) in netlist.nets() {
        stat += report.density(id);
        meas += sim.toggle_rate(id);
    }
    (stat, meas)
}

#[test]
fn bundled_designs_calibrate_design_wide() {
    for &name in BUNDLED_NAMES {
        let design = bundled(name).expect("bundled design");
        let (stat, meas) = density_gap(&design.netlist, &design.stimuli, CYCLES);
        let rel = (stat - meas).abs() / meas.max(0.05);
        assert!(
            rel <= TOTAL_TOL,
            "{name}: static {stat:.2} vs measured {meas:.2} (rel {rel:.3} > {TOTAL_TOL})"
        );
    }
}

#[test]
fn structural_mutants_calibrate_within_the_loose_bound() {
    // The fast half of actbench's mutant corpus (design1's mutants run
    // there in release; its BDDs are too slow for a debug-mode test).
    for name in ["busnet", "alu_ctrl"] {
        let design = bundled(name).expect("bundled design");
        for m in 0..3u64 {
            let mut rng = StdRng::seed_from_u64(design.netlist.fingerprint() ^ m);
            let mutant = mutate_netlist(&design.netlist, &mut rng, 6);
            let (stat, meas) = density_gap(&mutant, &design.stimuli, 5_000);
            let rel = (stat - meas).abs() / meas.max(0.05);
            assert!(
                rel <= MUTANT_TOL,
                "{name}#{m}: static {stat:.2} vs measured {meas:.2} \
                 (rel {rel:.3} > {MUTANT_TOL})"
            );
        }
    }
}

/// A fast optimizer configuration for the ranking contracts.
fn quick_config() -> IsolationConfig {
    IsolationConfig::default().with_sim_cycles(400)
}

/// Everything observable about an outcome, floats as exact bit patterns
/// so `==` means byte-identical (mirrors `parallel_equivalence.rs`).
fn signature(outcome: &IsolationOutcome) -> (u64, Vec<(String, usize)>, u64, u64) {
    (
        outcome.netlist.fingerprint(),
        outcome
            .isolated
            .iter()
            .map(|r| (format!("{:?}", r.candidate), r.isolated_bits))
            .collect(),
        outcome.power_before.as_mw().to_bits(),
        outcome.power_after.as_mw().to_bits(),
    )
}

#[test]
fn ranking_is_simulation_free_and_thread_invariant_when_not_binding() {
    for name in ["figure1", "busnet", "pipeline"] {
        let design = bundled(name).expect("bundled design");

        let memo_off = SimMemo::new();
        let unranked = optimize_with_memo(
            &design.netlist,
            &design.stimuli,
            &quick_config().with_threads(1),
            &memo_off,
        )
        .expect("unranked run");

        let memo_on = SimMemo::new();
        let ranked = optimize_with_memo(
            &design.netlist,
            &design.stimuli,
            &quick_config().with_activity_ranking(true).with_threads(1),
            &memo_on,
        )
        .expect("ranked run");

        // The ranking stage is pure static analysis: it must not add a
        // single simulator invocation on top of the unranked schedule.
        assert_eq!(
            memo_on.stats().misses,
            memo_off.stats().misses,
            "{name}: activity ranking changed the simulation count"
        );

        // With no candidate cap the budget cannot bind, so ranking could
        // only reorder evaluation — it never changes what gets accepted.
        let base = signature(&unranked);
        assert_eq!(base, signature(&ranked), "{name}: ranking changed the outcome");

        // Neither can a cap no smaller than the candidate count: the
        // outcome and the simulation count stay those of the unranked run.
        let k = design.netlist.arithmetic_cells().count();
        let memo_k = SimMemo::new();
        let capped = optimize_with_memo(
            &design.netlist,
            &design.stimuli,
            &quick_config()
                .with_activity_ranking(true)
                .with_candidate_cap(Some(k))
                .with_threads(1),
            &memo_k,
        )
        .expect("ranked run under a non-binding cap");
        assert_eq!(memo_k.stats().misses, memo_off.stats().misses, "{name}: cap {k}");
        assert_eq!(
            base,
            signature(&capped),
            "{name}: a non-binding cap {k} changed the outcome"
        );

        // And the ranked path stays bit-identical across worker counts.
        for threads in [2, 4] {
            let outcome = optimize_with_memo(
                &design.netlist,
                &design.stimuli,
                &quick_config()
                    .with_activity_ranking(true)
                    .with_threads(threads),
                &SimMemo::new(),
            )
            .expect("ranked run");
            assert_eq!(
                base,
                signature(&outcome),
                "{name}: ranked outcome diverges at {threads} threads"
            );
        }
    }
}

#[test]
fn binding_candidate_cap_prefers_the_statically_ranked_candidate() {
    let mut improved_somewhere = false;
    for name in ["figure1", "busnet", "alu_ctrl", "pipeline"] {
        let design = bundled(name).expect("bundled design");
        // cap 1 + a single iteration: exactly one candidate is ever
        // evaluated, so which one the schedule puts first decides the
        // entire outcome — the budget is genuinely binding.
        let capped = quick_config()
            .with_candidate_cap(Some(1))
            .with_budget(RunBudget::unlimited().with_max_iterations(1));
        let unranked = optimize_with_memo(
            &design.netlist,
            &design.stimuli,
            &capped,
            &SimMemo::new(),
        )
        .expect("unranked capped run");
        let ranked = optimize_with_memo(
            &design.netlist,
            &design.stimuli,
            &capped.clone().with_activity_ranking(true),
            &SimMemo::new(),
        )
        .expect("ranked capped run");

        let saved = |o: &IsolationOutcome| o.power_before.as_mw() - o.power_after.as_mw();
        let (su, sr) = (saved(&unranked), saved(&ranked));
        println!("{name}: capped savings unranked {su:.4} mW, ranked {sr:.4} mW");
        assert!(
            sr >= su - 1e-12,
            "{name}: ranking lost savings under a binding cap \
             (unranked {su:.6} mW, ranked {sr:.6} mW)"
        );
        if sr >= su && su > 0.0 {
            improved_somewhere = true;
        }
    }
    assert!(
        improved_somewhere,
        "ranking under a binding cap never matched positive unranked savings"
    );
}
