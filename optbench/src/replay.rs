//! Algorithm 1 replayed from outside the optimizer, one span per phase.
//!
//! [`replay_optimize`] performs the same public layer calls as
//! `oiso_core::optimize_with_memo`, in the same order, and wraps each
//! phase in a [`Tracer`] span with its work counters. It must produce the
//! same outcome as the optimizer (netlist fingerprint, accepted cells,
//! `power_after` bits); the benchmark counts any difference as a failure
//! and `tests/replay.rs` checks it on every bundled design, so a change to
//! the loop in `crates/core/src/algorithm.rs` that this file does not
//! follow shows up as a failing test rather than as wrong layer numbers.
//!
//! Checkpoint journaling, resume and progress taps are not replayed: the
//! benchmark's configurations use none of them.
//!
//! Every phase span is opened unconditionally at its place in the loop,
//! around the phase's own guard, so a phase the configuration switches
//! off still records a (near-zero) span. A phase that fails leaves its
//! span open, which reads as zero duration.

use crate::trace::Tracer;
use oiso_boolex::BoolExpr;
use oiso_core::candidates::CandidateFilter;
use oiso_core::{
    find_closed_fsms, identify_candidates, isolate_with_cache, precheck_candidate_with_budget,
    refine_with_fsm_dont_cares, Candidate, CostModel, IsolationConfig, IsolationError,
    IsolationOutcome, IterationLog, NodeBudget, SavingsEstimate, SavingsEstimator,
    SkippedCandidate, DEFAULT_PRECHECK_NODE_BUDGET, FAULT_SITE_SCORE,
};
use oiso_netlist::{CellId, Netlist};
use oiso_par::TaskOutcome;
use oiso_power::{total_area, PowerEstimator};
use oiso_sim::{SimMemo, SimReport, StimulusPlan, Testbench};
use oiso_techlib::{Power, Time};
use oiso_timing::analyze;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Root span name of one replayed `optimize` call.
pub const ROOT: &str = "bench.optimize";

/// Runs `memo.run_with_engine` inside a span named `name` (outside the
/// main loop), counting an executed simulation (a memo miss) in
/// `sim.runs`/`sim.cell_cycles` and every lookup in
/// `sim.memo_lookups`/`sim.memo_hits`.
fn memo_run(
    tr: &mut Tracer,
    name: &'static str,
    root: usize,
    memo: &SimMemo,
    work: &Netlist,
    plan: &StimulusPlan,
    config: &IsolationConfig,
) -> Result<Arc<SimReport>, IsolationError> {
    let span = tr.begin(name, Some(root), 0);
    let hits = memo.hits();
    let report = memo.run_with_engine(work, plan, config.sim_cycles, config.engine)?;
    let hit = memo.hits() > hits;
    tr.end(span);
    tr.count(span, "sim.memo_lookups", 1);
    if hit {
        tr.count(span, "sim.memo_hits", 1);
    } else {
        tr.count(span, "sim.runs", 1);
        tr.count(
            span,
            "sim.cell_cycles",
            work.num_cells() as u64 * config.sim_cycles,
        );
    }
    Ok(report)
}

/// Replays `optimize_with_memo(netlist, plan, config, memo)` under a root
/// span [`ROOT`] stamped with `design` and the config's style.
///
/// # Errors
///
/// As `oiso_core::optimize_with_memo`.
///
/// # Panics
///
/// Panics if `config` asks for checkpointing or resume, which the replay
/// does not model.
pub fn replay_optimize(
    tr: &mut Tracer,
    design: &str,
    netlist: &Netlist,
    plan: &StimulusPlan,
    config: &IsolationConfig,
    memo: &SimMemo,
) -> Result<IsolationOutcome, IsolationError> {
    assert!(
        config.checkpoint.is_none() && config.resume.is_none(),
        "the replay does not model checkpoint journals"
    );
    tr.set_call(design, config.style.label());
    let root = tr.begin(ROOT, None, 0);
    let result = replay_inner(tr, root, netlist, plan, config, memo);
    tr.end(root);
    result
}

fn replay_inner(
    tr: &mut Tracer,
    root: usize,
    netlist: &Netlist,
    plan: &StimulusPlan,
    config: &IsolationConfig,
    memo: &SimMemo,
) -> Result<IsolationOutcome, IsolationError> {
    let lib = &config.library;
    let cond = config.conditions;
    let clock_period = cond.clock_period();
    let pe = PowerEstimator::new(lib, cond);
    let mut work = netlist.clone();

    let report0 = memo_run(tr, "sim.baseline", root, memo, &work, plan, config)?;
    let span = tr.begin("power.estimate", Some(root), 0);
    let power_before = pe.estimate(&work, &report0).total;
    let area_before = total_area(lib, &work);
    tr.end(span);
    let span = tr.begin("timing.sta", Some(root), 0);
    let slack_before = analyze(lib, &work, clock_period).worst_slack;
    tr.end(span);
    tr.count(span, "timing.sta_calls", 1);

    let mut isolated_records = Vec::new();
    let mut isolated_acts: HashMap<CellId, BoolExpr> = HashMap::new();
    let mut iterations: Vec<IterationLog> = Vec::new();
    let mut synth_cache: HashMap<BoolExpr, oiso_netlist::NetId> = HashMap::new();
    let mut skipped: Vec<SkippedCandidate> = Vec::new();
    let mut poisoned: HashSet<CellId> = HashSet::new();
    let mut pre_skipped: Vec<SkippedCandidate> = Vec::new();
    let mut pre_excluded: HashSet<CellId> = HashSet::new();
    let mut evaluated: usize = 0;
    let mut truncated = false;

    for iter_no in 1..=config.max_iterations {
        if config.budget.expired() || config.budget.iteration_exhausted(iter_no) {
            truncated = true;
            break;
        }
        let span = tr.begin("timing.sta", Some(root), iter_no);
        let timing = analyze(lib, &work, clock_period);
        tr.end(span);
        tr.count(span, "timing.sta_calls", 1);

        let span = tr.begin("core.candidates", Some(root), iter_no);
        let filter = CandidateFilter {
            min_width: config.min_width,
            slack_threshold: config
                .slack_threshold
                .unwrap_or(Time::from_ns(f64::NEG_INFINITY)),
            bank: config.style.bank_kind(),
        };
        let mut candidates: Vec<Candidate> =
            identify_candidates(&work, lib, &timing, &config.activation, &filter)
                .into_iter()
                .filter(|c| {
                    !isolated_acts.contains_key(&c.cell)
                        && !poisoned.contains(&c.cell)
                        && !pre_excluded.contains(&c.cell)
                })
                .collect();
        if config.fsm_dont_cares {
            let fsms = find_closed_fsms(&work);
            for cand in &mut candidates {
                cand.activation = refine_with_fsm_dont_cares(&work, &fsms, &cand.activation);
            }
        }
        tr.end(span);
        tr.count(span, "core.iterations", 1);
        tr.count(span, "core.candidates_in", candidates.len() as u64);

        let span = tr.begin("boolex.minimize", Some(root), iter_no);
        if config.optimize_activation_logic {
            let (mut lits_in, mut lits_out) = (0, 0);
            for cand in &mut candidates {
                lits_in += cand.activation.literal_count() as u64;
                cand.activation = oiso_boolex::minimize(&cand.activation);
                lits_out += cand.activation.literal_count() as u64;
            }
            tr.count(span, "boolex.literals_in", lits_in);
            tr.count(span, "boolex.literals_out", lits_out);
        }
        tr.end(span);

        let span = tr.begin("core.precheck", Some(root), iter_no);
        if config.static_precheck {
            let before = candidates.len();
            let shared = config.budget.bdd_node_ceiling.map(NodeBudget::new);
            candidates.retain(|cand| {
                let budget = shared
                    .clone()
                    .unwrap_or_else(|| NodeBudget::new(DEFAULT_PRECHECK_NODE_BUDGET));
                match precheck_candidate_with_budget(&work, cand.cell, &cand.activation, &budget) {
                    Some(verdict) => {
                        pre_excluded.insert(cand.cell);
                        pre_skipped.push(SkippedCandidate {
                            cell: cand.cell,
                            name: work.cell(cand.cell).name().to_string(),
                            iteration: iter_no,
                            reason: verdict.reason(),
                        });
                        false
                    }
                    None => true,
                }
            });
            tr.count(
                span,
                "core.precheck_dropped",
                (before - candidates.len()) as u64,
            );
        }
        tr.end(span);

        let ranking = config.activity_ranking && !candidates.is_empty();
        let span = tr.begin("activity.analyze", Some(root), iter_no);
        let activity = ranking.then(|| {
            oiso_activity::analyze_activity_with_plan(
                &work,
                plan,
                &oiso_activity::ActivityOptions::default(),
            )
        });
        tr.end(span);
        if let Some(a) = &activity {
            tr.count(span, "activity.bdd_nodes", a.bdd_nodes as u64);
            tr.count(span, "activity.exact_nets", a.exact_nets as u64);
            tr.count(span, "activity.nets", work.num_nets() as u64);
            tr.count(span, "activity.budget_blown", u64::from(a.budget_blown));
        }
        let span = tr.begin("core.rank", Some(root), iter_no);
        if let Some(activity) = &activity {
            let shared = config.budget.bdd_node_ceiling.map(NodeBudget::new);
            let mut ranked: Vec<(f64, Candidate)> = candidates
                .drain(..)
                .map(|cand| {
                    let budget = shared
                        .clone()
                        .unwrap_or_else(|| NodeBudget::new(DEFAULT_PRECHECK_NODE_BUDGET));
                    let rank = oiso_core::precheck::activity_rank_with_budget(
                        activity,
                        &work,
                        cand.cell,
                        &cand.activation,
                        &budget,
                    );
                    (rank, cand)
                })
                .collect();
            ranked.sort_by(|a, b| {
                b.0.partial_cmp(&a.0)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then_with(|| a.1.cell.index().cmp(&b.1.cell.index()))
            });
            candidates.extend(ranked.into_iter().map(|(_, cand)| cand));
        }
        if let Some(cap) = config.candidate_cap {
            candidates.truncate(cap);
        }
        tr.end(span);
        if candidates.is_empty() {
            break;
        }

        let span = tr.begin("core.estimator_setup", Some(root), iter_no);
        let estimator = SavingsEstimator::new(&work, config.estimator, &candidates, &isolated_acts);
        let mut tb = Testbench::from_plan(&work, plan)?;
        estimator.register_monitors(&mut tb);
        tr.end(span);

        let span = tr.begin("sim.monitored", Some(root), iter_no);
        let report = Arc::new(tb.run_with_engine(config.sim_cycles, config.engine)?);
        memo.deposit(&work, plan, config.sim_cycles, &report);
        tr.end(span);
        tr.count(span, "sim.runs", 1);
        tr.count(
            span,
            "sim.cell_cycles",
            work.num_cells() as u64 * config.sim_cycles,
        );

        let span = tr.begin("power.estimate", Some(root), iter_no);
        let breakdown = pe.estimate(&work, &report);
        let area_now = total_area(lib, &work);
        tr.end(span);

        let span = tr.begin("core.score", Some(root), iter_no);
        let cost_model = CostModel::new(lib, cond, config.weights).with_h_min(config.h_min);
        evaluated += candidates.len();
        let scores: Vec<TaskOutcome<(f64, SavingsEstimate)>> =
            oiso_par::parallel_map_isolated(config.threads, &candidates, |_, cand| {
                oiso_par::faults::trip(FAULT_SITE_SCORE, cand.cell.index());
                let mut savings = estimator.estimate(&work, &pe, &report, cand.cell);
                if !config.secondary_savings {
                    savings.secondary = Power::ZERO;
                }
                let as_rate = estimator.activation_toggle_rate(&report, cand.cell);
                let cost = cost_model.isolation_cost(
                    &work,
                    &report,
                    &pe,
                    cand.cell,
                    &cand.activation,
                    config.style,
                    as_rate,
                );
                let h = cost_model.h(&savings, &cost, breakdown.total, area_now);
                (h, savings)
            });
        let mut by_block: HashMap<usize, Vec<(&Candidate, f64, SavingsEstimate)>> = HashMap::new();
        for (cand, outcome) in candidates.iter().zip(scores) {
            match outcome {
                TaskOutcome::Ok((h, savings)) => {
                    by_block
                        .entry(cand.block)
                        .or_default()
                        .push((cand, h, savings));
                }
                TaskOutcome::Panicked { payload, .. } => {
                    poisoned.insert(cand.cell);
                    skipped.push(SkippedCandidate {
                        cell: cand.cell,
                        name: work.cell(cand.cell).name().to_string(),
                        iteration: iter_no,
                        reason: payload,
                    });
                }
            }
        }
        if config.budget.skipped_exhausted(skipped.len()) {
            return Err(IsolationError::TooManySkipped {
                skipped,
                max: config.budget.max_skipped.unwrap_or(0),
            });
        }
        let mut log = IterationLog {
            iteration: iter_no,
            total_power: breakdown.total,
            isolated: Vec::new(),
            rejected: 0,
        };
        let mut winners: Vec<(CellId, BoolExpr, f64, f64)> = Vec::new();
        let mut blocks: Vec<_> = by_block.into_iter().collect();
        blocks.sort_by_key(|(block, _)| *block);
        for (_, mut scored) in blocks {
            scored.sort_by(|a, b| {
                b.1.partial_cmp(&a.1)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then_with(|| a.0.cell.index().cmp(&b.0.cell.index()))
            });
            let (best, h, savings) = &scored[0];
            if *h >= config.h_min {
                winners.push((
                    best.cell,
                    best.activation.clone(),
                    *h,
                    savings.total().as_mw(),
                ));
                log.rejected += scored.len() - 1;
            } else {
                log.rejected += scored.len();
            }
        }
        tr.end(span);
        tr.count(span, "core.evaluated", candidates.len() as u64);
        tr.count(span, "core.accepted", winners.len() as u64);
        if winners.is_empty() {
            iterations.push(log);
            break;
        }

        let span = tr.begin("core.transform", Some(root), iter_no);
        for (cell, activation, h, saved) in winners {
            let record =
                isolate_with_cache(&mut work, cell, &activation, config.style, &mut synth_cache)?;
            isolated_records.push(record);
            isolated_acts.insert(cell, activation);
            log.isolated.push((cell, h, saved));
        }
        tr.end(span);
        iterations.push(log);
    }

    let report_final = memo_run(tr, "sim.final", root, memo, &work, plan, config)?;
    let span = tr.begin("power.estimate", Some(root), 0);
    let power_after = pe.estimate(&work, &report_final).total;
    let area_after = total_area(lib, &work);
    tr.end(span);
    let span = tr.begin("timing.sta", Some(root), 0);
    let slack_after = analyze(lib, &work, clock_period).worst_slack;
    tr.end(span);
    tr.count(span, "timing.sta_calls", 1);

    Ok(IsolationOutcome {
        netlist: work,
        style: config.style,
        isolated: isolated_records,
        iterations,
        power_before,
        power_after,
        area_before,
        area_after,
        slack_before,
        slack_after,
        truncated,
        skipped,
        pre_skipped,
        evaluated,
    })
}
