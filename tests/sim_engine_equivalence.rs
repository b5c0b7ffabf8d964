//! Differential test battery for the two simulation engines.
//!
//! `oiso-sim` promises that the scalar interpreter (the oracle) and the
//! compiled op-tape engine are **bit-identical**: same per-net toggle
//! counts, same static probabilities, same captured waveforms, same power
//! reports, and the same accepted-candidate sequence out of `optimize()`
//! at every thread count. These tests enforce that promise on all bundled
//! benchmark designs and on a corpus of structural mutants.

use operand_isolation::core::{optimize, EngineKind, IsolationConfig};
use operand_isolation::designs::{bundled, textfmt, BUNDLED_NAMES};
use operand_isolation::netlist::Netlist;
use operand_isolation::power::PowerEstimator;
use operand_isolation::sim::analytic::{propagate, spec_stats, BitStats};
use operand_isolation::sim::{SimReport, StimulusPlan, Testbench};
use operand_isolation::techlib::{OperatingConditions, TechLibrary};
use operand_isolation::verify::mutate_netlist;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

/// Everything observable about a report, floats as exact bit patterns:
/// `(toggle count, static-probability bits per bit)` for every net.
fn report_signature(netlist: &Netlist, report: &SimReport) -> Vec<(u64, Vec<u64>)> {
    netlist
        .nets()
        .map(|(id, net)| {
            (
                report.toggle_count(id),
                (0..net.width())
                    .map(|bit| report.static_prob(id, bit).to_bits())
                    .collect(),
            )
        })
        .collect()
}

/// Per-net toggle/ones statistics, captured waveforms, and the power
/// total, as produced by the first (scalar) engine.
type OracleObservation = (Vec<(u64, Vec<u64>)>, Vec<Vec<u64>>, u64);

/// Runs `plan` on every engine and asserts statistics, waveforms, and the
/// derived power report are indistinguishable from the scalar oracle.
fn assert_engines_agree(netlist: &Netlist, plan: &StimulusPlan, cycles: u64, label: &str) {
    let lib = TechLibrary::generic_250nm();
    let cond = OperatingConditions::default();
    let nets: Vec<_> = netlist.nets().map(|(id, _)| id).collect();
    let mut oracle: Option<OracleObservation> = None;
    for engine in EngineKind::ALL {
        let mut tb = Testbench::from_plan(netlist, plan).expect(label);
        for &net in &nets {
            tb.capture(net);
        }
        let report = tb
            .run_with_engine(cycles, engine)
            .unwrap_or_else(|e| panic!("{label}/{engine}: {e}"));
        let sig = report_signature(netlist, &report);
        let waves: Vec<Vec<u64>> = nets
            .iter()
            .map(|&net| report.trace(net).expect("captured").to_vec())
            .collect();
        let power = PowerEstimator::new(&lib, cond)
            .estimate(netlist, &report)
            .total
            .as_mw()
            .to_bits();
        match &oracle {
            None => oracle = Some((sig, waves, power)),
            Some((sig0, waves0, power0)) => {
                assert_eq!(sig0, &sig, "{label}: {engine} statistics diverge from scalar");
                assert_eq!(waves0, &waves, "{label}: {engine} waveforms diverge from scalar");
                assert_eq!(*power0, power, "{label}: {engine} power report diverges");
            }
        }
    }
}

#[test]
fn bundled_designs_are_bit_identical_across_engines() {
    for &name in BUNDLED_NAMES {
        let design = bundled(name).expect("bundled design");
        assert_engines_agree(&design.netlist, &design.stimuli, 300, name);
    }
}

#[test]
fn mutant_corpus_is_bit_identical_across_engines() {
    // Structural mutants stress cell/wiring shapes the curated designs
    // don't: dangling slices, zero-extensions, rewired operands.
    for &name in BUNDLED_NAMES {
        let design = bundled(name).expect("bundled design");
        for seed in 0..3u64 {
            let mut rng = StdRng::seed_from_u64(seed ^ 0xB175 ^ design.netlist.fingerprint());
            let mutant = mutate_netlist(&design.netlist, &mut rng, 6);
            assert_engines_agree(
                &mutant,
                &design.stimuli,
                200,
                &format!("{name} mutant {seed}"),
            );
        }
    }
}

#[test]
fn optimizer_accepts_identical_candidates_at_every_engine_and_thread_count() {
    let design = bundled("design1").expect("design1");
    let base = IsolationConfig::default().with_sim_cycles(400);
    let signature = |config: &IsolationConfig| {
        let outcome = optimize(&design.netlist, &design.stimuli, config).expect("optimize");
        (
            outcome
                .isolated
                .iter()
                .map(|r| (r.candidate, r.isolated_bits))
                .collect::<Vec<_>>(),
            outcome
                .iterations
                .iter()
                .map(|it| {
                    (
                        it.iteration,
                        it.isolated
                            .iter()
                            .map(|&(c, h, s)| (c, h.to_bits(), s.to_bits()))
                            .collect::<Vec<_>>(),
                        it.rejected,
                    )
                })
                .collect::<Vec<_>>(),
            outcome.power_after.as_mw().to_bits(),
        )
    };
    let oracle = signature(&base.clone().with_engine(EngineKind::Scalar).with_threads(1));
    for engine in EngineKind::ALL {
        for threads in [1usize, 2, 4] {
            let got = signature(&base.clone().with_engine(engine).with_threads(threads));
            assert_eq!(
                oracle, got,
                "engine {engine}, threads {threads}: accepted-candidate sequence diverges"
            );
        }
    }
}

/// Golden regression: the closed-form activity estimates of
/// `oiso_sim::analytic` pinned against the compiled engine's empirical
/// estimates on `examples/gated_alu.oiso`.
///
/// Tolerances: pinned analytic values are exact to 1e-9 (a drifting
/// closed form is a bug, not noise); compiled empirical toggle rates must
/// sit within 10% relative (floor 0.05 absolute on the denominator) of
/// the analytic prediction at 30k cycles.
#[test]
fn gated_alu_analytic_golden_tracks_compiled_empirical() {
    let source = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/examples/gated_alu.oiso"
    ))
    .expect("read gated_alu.oiso");
    let design = textfmt::parse(&source).expect("parse gated_alu");
    let netlist = &design.netlist;

    let mut input_stats: HashMap<_, Vec<BitStats>> = HashMap::new();
    for (name, spec) in &design.stimuli.drivers {
        let net = netlist.find_net(name).expect("input net");
        input_stats.insert(net, spec_stats(spec, netlist.net(net).width()));
    }
    let analytic = propagate(netlist, &input_stats);

    // Pinned closed-form outputs (per-net total toggle rates).
    let pinned: &[(&str, f64)] = &[
        ("sum", 4.0),
        ("diff", 4.0),
        ("res", 4.0),
        ("q", 1.2),
    ];
    for &(name, expected) in pinned {
        let net = netlist.find_net(name).expect("net");
        let got = analytic.toggle_rate(net);
        assert!(
            (got - expected).abs() < 1e-9,
            "analytic golden for `{name}` drifted: pinned {expected}, got {got}"
        );
    }

    let report = Testbench::from_plan(netlist, &design.stimuli)
        .expect("plan")
        .run_with_engine(30_000, EngineKind::Compiled)
        .expect("compiled run");
    for &(name, _) in pinned {
        let net = netlist.find_net(name).expect("net");
        let predicted = analytic.toggle_rate(net);
        let measured = report.toggle_rate(net);
        let denom = measured.max(0.05);
        assert!(
            (predicted - measured).abs() / denom <= 0.10,
            "`{name}`: analytic {predicted:.4} vs compiled empirical {measured:.4}"
        );
    }
}
