//! The two kinds of run: untraced rounds for the end-to-end metrics and
//! traced replay rounds for the per-layer metrics.
//!
//! Both check every output they produce: an `optimize()` call must
//! succeed untruncated with no skipped candidate and give the same
//! outcome in every round; every accepted step must be proved (or
//! sampled) equivalent by `verify_isolation_plan`, whose final netlist
//! must be the one `optimize()` returned; and a replay (one untimed round
//! after an untraced run's timed rounds, every replay round of a traced
//! run) must give the outcome of the untraced call.

use crate::replay::{replay_optimize, ROOT};
use crate::stats::{median, p90};
use crate::trace::{Totals, Tracer};
use crate::workload::{base_config, fnv, inputs, Input, Workload};
use oiso_core::{optimize, optimize_with_memo, IsolationConfig, IsolationOutcome};
use oiso_netlist::Netlist;
use oiso_sim::SimMemo;
use oiso_verify::{verify_isolation_plan, Proof, VerifyConfig, VerifyOutcome};
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// Untraced rounds a full run makes at least: the cross-round check
/// needs a second, and each call's fastest time a few to choose from.
const MIN_ROUNDS: usize = 3;

/// What to run.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// The workload.
    pub workload: Workload,
    /// Seed of every stimulus plan.
    pub seed: u64,
    /// Measuring time; rounds start until it has passed.
    pub seconds: f64,
    /// One round on reduced inputs (smoke run, never recorded).
    pub quick: bool,
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: String,
    /// Samples the value summarizes, when it summarizes more than one.
    pub samples: Option<usize>,
}

fn metric(name: &str, value: f64, unit: &str, samples: Option<usize>) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit: unit.to_string(),
        samples,
    }
}

/// A run's result: operations attempted and failed, and its metrics.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Operations attempted: `optimize()` calls (warm-ups included),
    /// proof steps and traced replays.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// The metrics.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Counts one operation, failed when `problems` is non-empty; each
    /// problem is printed to standard error.
    fn op(&mut self, what: &str, problems: &[String]) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            for p in problems {
                eprintln!("FAIL {what}: {p}");
            }
        }
    }
}

/// What identifies an outcome across rounds and between the optimizer
/// and its replay.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Signature {
    fingerprint: u64,
    accepted: Vec<usize>,
    power_after_bits: u64,
}

fn signature(o: &IsolationOutcome) -> Signature {
    Signature {
        fingerprint: o.netlist.fingerprint(),
        accepted: o.isolated.iter().map(|r| r.candidate.index()).collect(),
        power_after_bits: o.power_after.as_mw().to_bits(),
    }
}

/// Problems an outcome shows on its own: a truncated run or a skipped
/// (panicked) candidate.
fn outcome_problems(o: &IsolationOutcome) -> Vec<String> {
    let mut problems = Vec::new();
    if o.truncated {
        problems.push("outcome is truncated".to_string());
    }
    for s in &o.skipped {
        problems.push(format!("skipped candidate: {s}"));
    }
    problems
}

/// Verdict counts of one plan proof.
#[derive(Debug, Clone, Copy, Default)]
struct ProofTally {
    proved: usize,
    sampled: usize,
    violations: usize,
    skipped: usize,
    peak_nodes: usize,
    reorders: usize,
}

impl ProofTally {
    fn steps(&self) -> usize {
        self.proved + self.sampled + self.violations + self.skipped
    }
}

/// Proves `outcome`'s accepted steps one by one against `netlist`.
/// Returns the tally and the fingerprint of the proof's final netlist.
fn prove(netlist: &Netlist, outcome: &IsolationOutcome) -> Result<(ProofTally, u64), String> {
    let plan: Vec<_> = outcome
        .isolated
        .iter()
        .map(|r| (r.candidate, r.activation.clone(), r.style))
        .collect();
    let (last, checks) = verify_isolation_plan(netlist, &plan, &VerifyConfig::default())
        .map_err(|e| format!("plan does not splice: {e}"))?;
    let mut t = ProofTally::default();
    for c in &checks {
        t.peak_nodes = t.peak_nodes.max(c.stats.peak_nodes);
        t.reorders += c.stats.reordered;
        match &c.outcome {
            VerifyOutcome::Verified(Proof::Bdd { .. }) => t.proved += 1,
            VerifyOutcome::Verified(Proof::Sampled { .. }) => t.sampled += 1,
            VerifyOutcome::Violation { .. } => t.violations += 1,
            VerifyOutcome::Skipped { .. } => t.skipped += 1,
        }
    }
    Ok((t, last.fingerprint()))
}

/// Proves `outcome`, counting each proof step as an operation and
/// returning the tally plus the problems of the `optimize()` call itself
/// (a proof that does not rebuild its netlist).
fn prove_and_count(
    report: &mut Report,
    what: &str,
    netlist: &Netlist,
    outcome: &IsolationOutcome,
) -> (ProofTally, Vec<String>) {
    match prove(netlist, outcome) {
        Ok((tally, fingerprint)) => {
            for _ in 0..tally.proved + tally.sampled {
                report.op(what, &[]);
            }
            for _ in 0..tally.violations {
                report.op(what, &["a proof step found a violation".to_string()]);
            }
            for _ in 0..tally.skipped {
                report.op(what, &["the prover refused a step".to_string()]);
            }
            let mut problems = Vec::new();
            if fingerprint != outcome.netlist.fingerprint() {
                problems.push("the proved netlist is not the returned netlist".to_string());
            }
            (tally, problems)
        }
        Err(e) => (ProofTally::default(), vec![e]),
    }
}

/// Replays one call of `input` and returns its outcome with the problems
/// found: the outcome's own, and any difference from `reference`, the
/// signature of the untraced `optimize()` call it must reproduce.
fn replay_call(
    tr: &mut Tracer,
    input: &Input,
    config: &IsolationConfig,
    memo: &SimMemo,
    reference: Option<&Signature>,
) -> (Option<IsolationOutcome>, Vec<String>) {
    let d = &input.design;
    match replay_optimize(tr, &input.label, &d.netlist, &d.stimuli, config, memo) {
        Ok(o) => {
            let mut problems = outcome_problems(&o);
            if reference != Some(&signature(&o)) {
                problems.push("replay differs from optimize()".to_string());
            }
            (Some(o), problems)
        }
        Err(e) => (None, vec![format!("replay failed: {e}")]),
    }
}

/// Builds the inputs and runs the warm-up `optimize()` on `figure1`,
/// [`SETUP_REPEATS`] times; the first set-up counts from `started`.
/// Returns the inputs and the median set-up time in seconds.
fn setup(opts: &RunOptions, started: Instant, report: &mut Report) -> (Vec<Input>, f64) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut built = Vec::new();
    for i in 0..SETUP_REPEATS {
        let t0 = if i == 0 { started } else { Instant::now() };
        built = inputs(opts.workload, opts.seed, opts.quick);
        let warm = oiso_designs::figure1::build().with_seed(fnv(opts.seed, "figure1"));
        let problems = match optimize(&warm.netlist, &warm.stimuli, &base_config(opts.workload)) {
            Ok(o) => outcome_problems(&o),
            Err(e) => vec![format!("optimize failed: {e}")],
        };
        times.push(t0.elapsed().as_secs_f64());
        report.op("warm-up figure1", &problems);
    }
    (built, median(&times))
}

/// True once `rounds` rounds (at least one) cover the run: a quick run
/// makes one, a full run `min_rounds` and then more until `--seconds`
/// have passed since `since`.
fn done(opts: &RunOptions, rounds: usize, min_rounds: usize, since: Instant) -> bool {
    rounds >= 1
        && (opts.quick || (rounds >= min_rounds && since.elapsed().as_secs_f64() >= opts.seconds))
}

/// Peak resident set size of this process so far (`VmHWM`), in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Keeps, per call of a round, the fastest time seen over the rounds.
fn keep_fastest(best: &mut Vec<f64>, op: usize, seconds: f64) {
    match best.get_mut(op) {
        Some(b) => *b = b.min(seconds),
        None => best.push(seconds),
    }
}

/// Untraced rounds: times each `optimize()` call and each plan proof,
/// and reports the end-to-end metrics.
///
/// Each call's time is its fastest over the run's rounds. The calls are
/// deterministic, so rounds repeat identical work; on a shared machine
/// interference comes in bursts that only ever add time, and the fastest
/// repetition stays within a few percent of the quiet-machine time even
/// while the median of all repetitions drifts by 20%.
pub fn run_untraced(opts: &RunOptions, started: Instant) -> Report {
    let mut report = Report::default();
    let (inputs, setup_s) = setup(opts, started, &mut report);

    let mut isolate_s = Vec::new();
    let mut verify_s = Vec::new();
    let mut reference: Vec<Option<Signature>> = Vec::new();
    let mut quality = [0.0f64; 3];
    let mut calls = 0usize;
    let mut proofs = ProofTally::default();

    let since = Instant::now();
    let mut rounds = 0;
    let mut rss = None;
    while !done(opts, rounds, MIN_ROUNDS, since) {
        let mut op = 0;
        for input in &inputs {
            let memo = SimMemo::new();
            for config in &input.configs {
                let what = format!("{} {}", input.label, config.style.label());
                let d = &input.design;
                let t = Instant::now();
                let result = optimize_with_memo(&d.netlist, &d.stimuli, config, &memo);
                keep_fastest(&mut isolate_s, op, t.elapsed().as_secs_f64());

                let mut problems = Vec::new();
                let sig = match &result {
                    Ok(o) => {
                        problems.extend(outcome_problems(o));
                        Some(signature(o))
                    }
                    Err(e) => {
                        problems.push(format!("optimize failed: {e}"));
                        None
                    }
                };
                if rounds == 0 {
                    reference.push(sig);
                } else if sig != reference[op] {
                    problems.push(format!(
                        "outcome differs from round 1 in round {}",
                        rounds + 1
                    ));
                }
                let t = Instant::now();
                if let Ok(o) = &result {
                    let (tally, proof_problems) =
                        prove_and_count(&mut report, &what, &d.netlist, o);
                    problems.extend(proof_problems);
                    if rounds == 0 {
                        quality[0] += o.power_reduction_percent();
                        quality[1] += o.area_increase_percent();
                        quality[2] += o.slack_reduction_percent();
                        calls += 1;
                        proofs.proved += tally.proved;
                        proofs.sampled += tally.sampled;
                        proofs.violations += tally.violations;
                    }
                }
                keep_fastest(&mut verify_s, op, t.elapsed().as_secs_f64());
                report.op(&what, &problems);
                op += 1;
            }
        }
        if rounds == 0 {
            // One pass over the inputs needs this much; later rounds repeat
            // the same work and only add allocator fragmentation, which
            // varied the final high-water mark by 15% between runs.
            rss = peak_rss_mb();
        }
        rounds += 1;
    }

    // One untimed replay round, so that every run, traced or not, fails
    // when `replay.rs` stops reproducing `optimize()`.
    let mut tr = Tracer::new();
    let mut op = 0;
    for input in &inputs {
        let memo = SimMemo::new();
        for config in &input.configs {
            let (_, problems) = replay_call(&mut tr, input, config, &memo, reference[op].as_ref());
            report.op(
                &format!("{} {} replay", input.label, config.style.label()),
                &problems,
            );
            op += 1;
        }
    }

    let mean = |sum: f64| sum / calls.max(1) as f64;
    let checked = proofs.proved + proofs.sampled + proofs.violations;
    let rss = rss.unwrap_or_else(|| {
        report.op(
            "peak RSS",
            &["cannot read VmHWM from /proc/self/status".to_string()],
        );
        f64::NAN
    });
    let latencies_ms: Vec<f64> = isolate_s.iter().map(|s| s * 1e3).collect();
    let n = Some(latencies_ms.len());
    report.metrics = vec![
        metric("setup_s", setup_s, "s", Some(SETUP_REPEATS)),
        metric("isolate_s", isolate_s.iter().sum(), "s", Some(rounds)),
        metric("isolate_p50_ms", median(&latencies_ms), "ms", n),
        metric("isolate_p90_ms", p90(&latencies_ms), "ms", n),
        metric("verify_s", verify_s.iter().sum(), "s", Some(rounds)),
        metric("peak_rss_mb", rss, "MB", None),
        metric("power_reduction_pct", mean(quality[0]), "%", Some(calls)),
        metric("area_increase_pct", mean(quality[1]), "%", Some(calls)),
        metric("slack_reduction_pct", mean(quality[2]), "%", Some(calls)),
        metric(
            "proved_ratio",
            ratio(proofs.proved as u64, checked as u64),
            "ratio",
            Some(checked),
        ),
    ];
    report
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Traced rounds: each pairs an untraced round of plain `optimize()`
/// calls (the reference outcomes and wall time) with a replay round that
/// records spans. Reports the per-layer metrics, each the median over
/// replay rounds of the round's total. `chrome` receives the first
/// replay round's spans as Chrome trace-event JSON.
pub fn run_traced(opts: &RunOptions, started: Instant, chrome: Option<&str>) -> Report {
    let mut report = Report::default();
    let (inputs, _) = setup(opts, started, &mut report);

    let mut per_round: Vec<Vec<Metric>> = Vec::new();
    let since = Instant::now();
    while !done(opts, per_round.len(), 1, since) {
        let mut reference = Vec::new();
        let mut untraced = Duration::ZERO;
        for input in &inputs {
            let memo = SimMemo::new();
            for config in &input.configs {
                let d = &input.design;
                let t = Instant::now();
                let result = optimize_with_memo(&d.netlist, &d.stimuli, config, &memo);
                untraced += t.elapsed();
                let problems = match &result {
                    Ok(o) => outcome_problems(o),
                    Err(e) => vec![format!("optimize failed: {e}")],
                };
                report.op(
                    &format!("{} {}", input.label, config.style.label()),
                    &problems,
                );
                reference.push(result.ok().map(|o| signature(&o)));
            }
        }

        let mut tr = Tracer::new();
        let mut peak_nodes = 0;
        let mut op = 0;
        for input in &inputs {
            let memo = SimMemo::new();
            for config in &input.configs {
                let what = format!("{} {} replay", input.label, config.style.label());
                let (outcome, mut problems) =
                    replay_call(&mut tr, input, config, &memo, reference[op].as_ref());
                if let Some(o) = &outcome {
                    // A root of its own: proofs are not part of the
                    // replayed call, so they stay out of its coverage.
                    let root = tr.begin("bench.prove", None, 0);
                    let span = tr.begin("verify.plan", Some(root), 0);
                    let (tally, proof_problems) =
                        prove_and_count(&mut report, &what, &input.design.netlist, o);
                    tr.end(span);
                    tr.end(root);
                    problems.extend(proof_problems);
                    tr.count(span, "verify.steps", tally.steps() as u64);
                    tr.count(span, "verify.proved", tally.proved as u64);
                    tr.count(span, "verify.sampled", tally.sampled as u64);
                    tr.count(span, "verify.reorders", tally.reorders as u64);
                    peak_nodes = peak_nodes.max(tally.peak_nodes);
                }
                report.op(&what, &problems);
                op += 1;
            }
        }

        let totals = Totals::of(tr.spans());
        let replayed = totals.root_ns.get(ROOT).copied().unwrap_or(0) as f64 / 1e9;
        per_round.push(layer_metrics(
            &totals,
            peak_nodes,
            replayed / untraced.as_secs_f64(),
        ));
        if per_round.len() == 1 {
            if let Some(path) = chrome {
                if let Err(e) = std::fs::write(path, tr.chrome_json()) {
                    report.op("chrome trace", &[format!("cannot write {path}: {e}")]);
                }
            }
        }
    }

    let rounds = per_round.len();
    report.metrics = per_round[0]
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let values: Vec<f64> = per_round.iter().map(|r| r[i].value).collect();
            metric(&m.name, median(&values), &m.unit, Some(rounds))
        })
        .collect();
    report
}

/// The per-layer metrics of one replay round.
fn layer_metrics(t: &Totals, peak_nodes: usize, replay_ratio: f64) -> Vec<Metric> {
    let c = |key: &str| t.counter(key);
    let count = |name: &str, key: &str| metric(name, c(key) as f64, "count", None);
    let time = |name: &str, span: &str| metric(name, t.self_ms(span), "ms", None);
    vec![
        time("sim.baseline_ms", "sim.baseline"),
        time("sim.monitored_ms", "sim.monitored"),
        time("sim.final_ms", "sim.final"),
        count("sim.runs", "sim.runs"),
        count("sim.cell_cycles", "sim.cell_cycles"),
        metric(
            "sim.memo_hit_ratio",
            ratio(c("sim.memo_hits"), c("sim.memo_lookups")),
            "ratio",
            None,
        ),
        time("core.estimator_setup_ms", "core.estimator_setup"),
        time("core.candidates_ms", "core.candidates"),
        count("core.candidates_in", "core.candidates_in"),
        time("core.precheck_ms", "core.precheck"),
        count("core.precheck_dropped", "core.precheck_dropped"),
        time("core.rank_ms", "core.rank"),
        time("core.score_ms", "core.score"),
        count("core.evaluated", "core.evaluated"),
        count("core.accepted", "core.accepted"),
        metric(
            "core.accept_ratio",
            ratio(c("core.accepted"), c("core.evaluated")),
            "ratio",
            None,
        ),
        time("core.transform_ms", "core.transform"),
        count("core.iterations", "core.iterations"),
        time("boolex.minimize_ms", "boolex.minimize"),
        count("boolex.literals_in", "boolex.literals_in"),
        count("boolex.literals_out", "boolex.literals_out"),
        time("timing.sta_ms", "timing.sta"),
        count("timing.sta_calls", "timing.sta_calls"),
        time("power.estimate_ms", "power.estimate"),
        time("activity.analyze_ms", "activity.analyze"),
        count("activity.bdd_nodes", "activity.bdd_nodes"),
        metric(
            "activity.exact_ratio",
            ratio(c("activity.exact_nets"), c("activity.nets")),
            "ratio",
            None,
        ),
        count("activity.budget_blown", "activity.budget_blown"),
        time("verify.plan_ms", "verify.plan"),
        count("verify.steps", "verify.steps"),
        count("verify.proved", "verify.proved"),
        count("verify.sampled", "verify.sampled"),
        metric("verify.peak_nodes", peak_nodes as f64, "count", None),
        count("verify.reorders", "verify.reorders"),
        metric("bench.coverage", t.coverage(ROOT), "ratio", None),
        metric("bench.replay_ratio", replay_ratio, "ratio", None),
    ]
}
