//! The traced replay must reproduce `optimize()` exactly. If the loop in
//! `crates/core/src/algorithm.rs` changes and `src/replay.rs` does not
//! follow, these cases fail before the benchmark's layer numbers go wrong.
//! Short simulations and small designs keep the debug build fast.

use oiso_core::{optimize_with_memo, IsolationConfig, IsolationOutcome, IsolationStyle};
use oiso_designs::random::{self, RandomParams};
use oiso_designs::{bundled, Design, BUNDLED_NAMES};
use oiso_sim::SimMemo;
use optbench::replay::{replay_optimize, ROOT};
use optbench::trace::{Totals, Tracer};

const CYCLES: u64 = 300;

fn key(o: &IsolationOutcome) -> (u64, Vec<usize>, u64, u64, usize, usize) {
    (
        o.netlist.fingerprint(),
        o.isolated.iter().map(|r| r.candidate.index()).collect(),
        o.power_after.as_mw().to_bits(),
        o.slack_after.as_ns().to_bits(),
        o.iterations.len(),
        o.evaluated,
    )
}

/// Runs every config on `design` twice — `optimize_with_memo` and the
/// replay — each side sharing one memo across the configs, as the
/// `styles` workload does.
fn assert_replay_matches(label: &str, design: &Design, configs: &[IsolationConfig]) {
    let (memo_opt, memo_rep) = (SimMemo::new(), SimMemo::new());
    let mut tr = Tracer::new();
    for config in configs {
        let expected = optimize_with_memo(&design.netlist, &design.stimuli, config, &memo_opt)
            .expect("optimize");
        let replayed = replay_optimize(
            &mut tr,
            label,
            &design.netlist,
            &design.stimuli,
            config,
            &memo_rep,
        )
        .expect("replay");
        assert_eq!(
            key(&replayed),
            key(&expected),
            "{label} {} threads={}",
            config.style,
            config.threads
        );
    }
    assert_eq!(memo_rep.hits(), memo_opt.hits(), "{label}: memo traffic");
    let totals = Totals::of(tr.spans());
    assert_eq!(
        totals.root_ns.keys().copied().collect::<Vec<_>>(),
        vec![ROOT]
    );
    assert!(
        totals.counter("timing.sta_calls") >= 2 * configs.len() as u64,
        "{label}"
    );
}

#[test]
fn replay_matches_optimize_on_every_bundled_design_style_and_thread_count() {
    for name in BUNDLED_NAMES {
        let design = bundled(name).expect("bundled");
        for threads in [1, 2] {
            let configs: Vec<IsolationConfig> = IsolationStyle::ALL_WITH_BDD
                .into_iter()
                .map(|style| {
                    IsolationConfig::default()
                        .with_style(style)
                        .with_sim_cycles(CYCLES)
                        .with_threads(threads)
                })
                .collect();
            assert_replay_matches(name, &design, &configs);
        }
    }
}

#[test]
fn replay_matches_optimize_on_random_designs() {
    for seed in [1000, 1001] {
        let design = random::build(&RandomParams {
            seed,
            ops: 12,
            width: 8,
        });
        let config = IsolationConfig::default()
            .with_sim_cycles(CYCLES)
            .with_threads(2);
        assert_replay_matches(&format!("random{seed}"), &design, &[config]);
    }
}

#[test]
fn replay_matches_optimize_with_activity_ranking() {
    let design = bundled("figure1").expect("bundled");
    let config = IsolationConfig::default()
        .with_sim_cycles(CYCLES)
        .with_activity_ranking(true)
        .with_candidate_cap(Some(2));
    assert_replay_matches("figure1", &design, &[config]);
}
