//! `optbench` — end-to-end benchmark of Algorithm 1 with proved outputs.
//!
//! ```text
//! optbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--quick]
//!          [--json PATH] [--chrome-trace PATH]
//! optbench --compare PARENT.json... -- CHANGE.json...
//! ```
//!
//! Built as a package of its own; from the repository root:
//! `cargo run --release --offline --manifest-path optbench/Cargo.toml -- --workload styles`.
//!
//! With `--workload`, one workload runs in this process: set-up, then
//! rounds of plain, uninstrumented `optimize_with_memo()` calls, each
//! followed by `verify_isolation_plan()` over its accepted steps, until
//! `--seconds` (default 30) have passed and at least three rounds are
//! done. Without `--workload`, every workload runs in a child process of
//! its own (this program re-executed), so memory and set-up are per
//! workload. Each metric prints as `workload metric value unit
//! [n=samples]`; the last line is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. `--json PATH` also writes the
//! results, keyed by workload, for `--compare`. The exit code is nonzero
//! when any output was wrong.
//!
//! `--trace 1` replaces the timed rounds by pairs of an untraced round
//! and a traced replay round (see `replay.rs`), and reports the per-layer
//! metrics; `--chrome-trace PATH` writes the first replay round's spans
//! as Chrome trace-event JSON. `--quick` runs one round on reduced inputs
//! as a smoke test; its numbers are never recorded.
//!
//! `--compare` reads `--json` files of parent and change runs and prints,
//! per workload × metric, each side's median and quartiles, the pairs the
//! change won, and a verdict: improved, unchanged, unresolved or
//! regressed (rule in `compare.rs`, bounds and directions from the
//! repository's `BENCHMARK.json`). The quality metrics, which the seed
//! determines, are compared run against run at equal seeds, and any
//! difference counts. It exits nonzero when a bounded metric regressed.
//!
//! # Load model
//!
//! A closed loop with one client: one call at a time from one process.
//! `scaled` scores candidates on two threads (the machine the numbers
//! below come from has two cores); the others use one. A *round* is one
//! pass over a workload's inputs. `--seed` (default 1) reseeds every
//! stimulus plan by FNV-1a over (seed, design label).
//!
//! # Workloads
//!
//! | name | what | why |
//! |---|---|---|
//! | `styles` | 8 bundled designs × {AND, OR, LATCH, BDD}, one `SimMemo` shared by a design's four calls (as `tables::paper_table` does); default config but 20000 cycles; each plan then proved | The paper's Tables 1–2 flow on small designs. Simulation is nearly all of `optimize()`; all four transform styles run, and columns 2–4 read the memo. Activity never runs: the control for activity changes. |
//! | `scaled` | 8 random gated datapaths (`oiso_designs::random`, 48 ops × 16 bits, ~95 cells, twice `soc`), AND, 2000 cycles, fresh memo per call, 2 threads; each plan then proved | 6–10 iterations and 21–70 candidate scorings per design, so STA, derivation, minimization, precheck and parallel scoring carry weight they never have on bundled designs. Proofs hit the BDD node budget and fall back to sampling on one step; they take most of the round. The memo is only written. |
//! | `ranked` | 8 bundled designs, AND, 20000 cycles, activity ranking with `candidate_cap = 2`, 1 thread; each plan then proved | The only workload that runs `oiso-activity`, which takes 93% of `optimize()` against 7% for simulation: the control for simulator changes. Not run on random designs, where one `optimize()` with ranking takes tens of seconds. |
//!
//! The bundled designs simulate 20000 cycles, ten times the default,
//! because at 2000 the estimated `h` of design1's tree adders straddles
//! zero and whether they are isolated flipped with the stimulus seed in
//! half the seeds, moving `ranked`'s round time by up to 40%. The
//! `scaled` circuit structures are fixed and `--seed` changes only their
//! stimuli, for the same reason (see `workload.rs`).
//!
//! Before timing, each workload runs one warm-up `optimize()` on
//! `figure1` with its own configuration.
//!
//! # End-to-end metrics (`--trace 0`)
//!
//! Timings take each call at its fastest over the run's rounds: the calls
//! are deterministic, and on a shared machine interference only adds
//! time, in bursts; the median of all repetitions drifted by 20% between
//! runs where the fastest stayed within a few percent.
//!
//! | metric | unit | better | bound | definition |
//! |---|---|---|---|---|
//! | `setup_s` | s | lower | 0.25 | median of 5 set-ups (inputs built + warm-up); the first counts from process start |
//! | `isolate_s` | s | lower | 0.25 | Σ over a round's `optimize()` calls of each call's fastest wall time |
//! | `isolate_p50_ms` | ms | lower | 0.25 | median over calls of each call's fastest latency (n = calls: 32, 8, 8) |
//! | `isolate_p90_ms` | ms | lower | 0.25 | 90th percentile of the same, interpolated between calls (Python's `inclusive` method); under 10 calls lie beyond it, so it marks the expensive end of the call set rather than a latency tail |
//! | `verify_s` | s | lower | 0.25 | Σ over calls of each plan proof's fastest wall time |
//! | `peak_rss_mb` | MB | lower | 0.2 | `VmHWM` after the first round (later rounds repeat its work) |
//! | `power_reduction_pct` | % | higher | 0.1 | mean measured power reduction over the calls |
//! | `area_increase_pct` | % | lower | 0.05 | mean area increase |
//! | `slack_reduction_pct` | % | lower | 0.05 | mean worst-slack reduction |
//! | `proved_ratio` | ratio | higher | 0.05 | proved steps / (proved + sampled + violations) |
//!
//! The four quality metrics are a function of the seed: at one seed any
//! change is a change, and `--compare` treats it so. Their bounds only
//! absorb how much the median over a set of seeds moves with the set, as
//! stimulus noise shifts `power_reduction_pct` by up to 3% between seeds.
//!
//! Failed operations are counted in the result's `failed` against
//! `attempted`. An operation is one `optimize()` call, one proof step or
//! one replay; it fails on an error, a truncated outcome, a skipped
//! candidate, a violation or refused proof step, a proof whose final
//! netlist is not the returned one, an outcome that differs between
//! rounds, or a replay that differs from `optimize()`. After its timed
//! rounds every run replays one untimed round (see `replay.rs`), so a
//! change to Algorithm 1 that the replay does not follow fails every run,
//! not only traced ones.
//!
//! # Per-layer metrics (`--trace 1`)
//!
//! Self times (a span's duration minus its children's) summed over one
//! replay round, the median over replay rounds; counters are per round.
//!
//! | layer | metrics | should move |
//! |---|---|---|
//! | sim | `sim.baseline_ms`, `sim.monitored_ms`, `sim.final_ms`, `sim.runs`, `sim.cell_cycles`, `sim.memo_hit_ratio` | `isolate_s`/`isolate_p50_ms` on `styles` (98% of `optimize()`) and `scaled` (88%); little on `ranked` (7%). The hit ratio moves `isolate_s` on `styles` only. |
//! | core | `core.estimator_setup_ms`, `core.candidates_ms`, `core.candidates_in`, `core.precheck_ms`, `core.precheck_dropped`, `core.rank_ms`, `core.score_ms`, `core.evaluated`, `core.accepted`, `core.accept_ratio`, `core.transform_ms`, `core.iterations` | `isolate_s` on `scaled`; `core.transform_ms` on `styles` (mux trees, latch banks) |
//! | boolex | `boolex.minimize_ms`, `boolex.literals_in`, `boolex.literals_out` | `isolate_s` on `scaled` |
//! | timing | `timing.sta_ms`, `timing.sta_calls` | `isolate_s` on `scaled` |
//! | power | `power.estimate_ms` | `isolate_s` on `scaled` |
//! | activity | `activity.analyze_ms`, `activity.bdd_nodes`, `activity.exact_ratio`, `activity.budget_blown` | `isolate_s` and `peak_rss_mb` on `ranked`; near zero elsewhere |
//! | verify/bdd | `verify.plan_ms`, `verify.steps`, `verify.proved`, `verify.sampled`, `verify.peak_nodes`, `verify.reorders` | `verify_s` on `scaled` and `styles`; `proved_ratio` everywhere |
//! | bench | `bench.coverage`, `bench.replay_ratio` | checks on the trace: coverage (Σ phase self time / Σ wall time of the replayed `optimize()` calls; proof spans are roots of their own and do not count) must stay ≥ 0.95; a replay ratio (replayed / plain `optimize()` wall) far from 1 means the loop changed and the replay needs updating |
//!
//! # Recorded numbers
//!
//! One run per workload at `--seed 1 --seconds 30`, release build, on a
//! shared 2-vCPU Linux VM:
//!
//! | workload | setup_s | isolate_s | p50 ms | p90 ms | verify_s | RSS MB | power % | area % | slack % | proved |
//! |---|---|---|---|---|---|---|---|---|---|---|
//! | `styles` | 0.042 | 1.409 | 36.5 | 73.4 | 0.596 | 13.3 | 30.71 | 7.58 | 14.96 | 110/110 |
//! | `scaled` | 0.0057 | 0.401 | 52.0 | 57.2 | 2.313 | 66.0 | 5.38 | 1.26 | 0.20 | 50/51 |
//! | `ranked` | 0.183 | 7.102 | 296.8 | 2688 | 0.110 | 77.0 | 30.46 | 4.91 | 4.99 | 24/24 |
//!
//! Traced split of one replay round (`--trace 1`, seed 1), as shares of
//! the replayed `optimize()` wall time:
//!
//! * `styles`: 1.71 s — sim 98.5% (monitored runs 1.46 s), core 1.2%,
//!   the rest under 0.1% each; proofs 0.74 s.
//! * `scaled`: 0.45 s — sim 88%, core 11% (candidates, estimator set-up,
//!   scoring), boolex 0.8%, timing 0.5%, power 0.4%; proofs 2.59 s, 85%
//!   of the round.
//! * `ranked`: 7.14 s — activity 93%, sim 6.7%; proofs 0.12 s.
//!
//! (The machine ran about 20% slower than for the table above.) Coverage
//! was 0.999, 0.997 and 0.9999, the replay ratio 0.96–1.02.
//!
//! # Spread
//!
//! The interquartile distance of ten runs at ten seeds, as a share of
//! their median, in two sets (seeds 1–10, then 11–20):
//!
//! | workload | timings | `setup_s` | `peak_rss_mb` | `power_reduction_pct` | other quality |
//! |---|---|---|---|---|---|
//! | `styles` | 0.035–0.069, 0.056–0.092 | 0.13, 0.16 | 0.013, 0.012 | 0.004, 0.005 | 0 |
//! | `scaled` | 0.041–0.065, 0.054–0.106 | 0.12, 0.26 | 0.062, 0.032 | 0.022, 0.031 | 0 |
//! | `ranked` | 0.092–0.152, 0.060–0.099 | 0.13, 0.07 | 0.014, 0.018 | 0.005, 0.006 | 0 |
//!
//! The machine, a shared VM, slows by 10–15% for minutes at a time, which
//! no statistic within a run can hide: in the first set the last four
//! `ranked` runs all read 7.5 s against 6.4–7.1 s before, and the second
//! set's `styles` median sat 13% above the first's. Hence timing bounds
//! of 0.25. The other bounds are at least three times the largest spread
//! seen for their metric: 0.2 for `peak_rss_mb`, 0.1 for
//! `power_reduction_pct`, 0.05 for the other quality metrics.

use optbench::compare::compare;
use optbench::json::{self, Value};
use optbench::run::{run_traced, run_untraced, Metric, Report, RunOptions};
use optbench::workload::Workload;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage: optbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
                     [--quick] [--json PATH] [--chrome-trace PATH]\n       \
                     optbench --compare PARENT.json... -- CHANGE.json...";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    json: Option<String>,
    chrome: Option<String>,
}

enum Command {
    Run(Args),
    Compare {
        parent: Vec<String>,
        change: Vec<String>,
    },
}

fn parse_args(argv: &[String]) -> Result<Command, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 30.0,
        trace: false,
        quick: false,
        json: None,
        chrome: None,
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().cloned().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                args.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds must be a positive number")?;
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                };
            }
            "--quick" => args.quick = true,
            "--json" => args.json = Some(value("--json")?),
            "--chrome-trace" => args.chrome = Some(value("--chrome-trace")?),
            "--compare" => {
                let rest: Vec<String> = it.cloned().collect();
                let split = rest
                    .iter()
                    .position(|a| a == "--")
                    .ok_or("--compare needs `--` between parent and change files")?;
                let (parent, change) = (rest[..split].to_vec(), rest[split + 1..].to_vec());
                if parent.is_empty() || change.is_empty() {
                    return Err("--compare needs files on both sides of `--`".to_string());
                }
                return Ok(Command::Compare { parent, change });
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    if args.chrome.is_some() && (args.workload.is_none() || !args.trace) {
        return Err("--chrome-trace needs --workload and --trace 1".to_string());
    }
    Ok(Command::Run(args))
}

fn result_json(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json::num(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

fn report_from_json(v: &Value) -> Option<Report> {
    let count = |key| v.get(key).and_then(Value::as_f64).map(|n| n as u64);
    let metrics = v
        .get("metrics")?
        .as_object()?
        .iter()
        .map(|(name, m)| {
            Some(Metric {
                name: name.clone(),
                value: m.get("value")?.as_f64()?,
                unit: m.get("unit")?.as_str()?.to_string(),
                samples: None,
            })
        })
        .collect::<Option<Vec<_>>>()?;
    Some(Report {
        attempted: count("attempted")?,
        failed: count("failed")?,
        metrics,
    })
}

fn print_report(workload: Workload, report: &Report) {
    let w = workload.name();
    for m in &report.metrics {
        let n = m.samples.map_or(String::new(), |n| format!(" n={n}"));
        println!("{w} {} {} {}{n}", m.name, m.value, m.unit);
    }
    println!(
        "{w} ops attempted={} failed={}",
        report.attempted, report.failed
    );
}

/// Runs `workload` in a child process with the same settings and returns
/// its parsed result (a failed operation when the child printed none).
fn run_child(args: &Args, workload: Workload) -> Report {
    let mut cmd_args = vec![
        "--workload".to_string(),
        workload.name().to_string(),
        "--seed".to_string(),
        args.seed.to_string(),
        "--seconds".to_string(),
        args.seconds.to_string(),
        "--trace".to_string(),
        if args.trace { "1" } else { "0" }.to_string(),
    ];
    if args.quick {
        cmd_args.push("--quick".to_string());
    }
    let child = std::env::current_exe().and_then(|exe| {
        std::process::Command::new(exe)
            .args(&cmd_args)
            .stderr(std::process::Stdio::inherit())
            .output()
    });
    let crashed = |why: String| {
        eprintln!("FAIL {}: {why}", workload.name());
        Report {
            attempted: 1,
            failed: 1,
            metrics: Vec::new(),
        }
    };
    let out = match child {
        Ok(out) => out,
        Err(e) => return crashed(format!("cannot run child: {e}")),
    };
    let text = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = text.lines().collect();
    let last = lines.pop().unwrap_or("");
    for line in lines {
        println!("{line}");
    }
    match json::parse(last).ok().as_ref().and_then(report_from_json) {
        Some(report) => report,
        None => crashed(format!("child printed no result ({})", out.status)),
    }
}

fn write_json(path: &str, args: &Args, results: &[(Workload, Report)]) -> Result<(), String> {
    let workloads: Vec<String> = results
        .iter()
        .map(|(w, r)| format!("\"{}\": {}", w.name(), result_json(r)))
        .collect();
    let doc = format!(
        "{{\"seed\": {}, \"trace\": {}, \"quick\": {}, \"workloads\": {{{}}}}}\n",
        args.seed,
        u8::from(args.trace),
        args.quick,
        workloads.join(", ")
    );
    std::fs::write(path, doc).map_err(|e| format!("cannot write {path}: {e}"))
}

fn main() -> ExitCode {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(Command::Run(args)) => args,
        Ok(Command::Compare { parent, change }) => {
            return match compare(&parent, &change) {
                Ok(false) => ExitCode::SUCCESS,
                Ok(true) => ExitCode::FAILURE,
                Err(e) => {
                    eprintln!("{e}");
                    ExitCode::from(2)
                }
            };
        }
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };

    let results: Vec<(Workload, Report)> = match args.workload {
        Some(workload) => {
            let opts = RunOptions {
                workload,
                seed: args.seed,
                seconds: args.seconds,
                quick: args.quick,
            };
            let report = if args.trace {
                run_traced(&opts, started, args.chrome.as_deref())
            } else {
                run_untraced(&opts, started)
            };
            print_report(workload, &report);
            vec![(workload, report)]
        }
        None => Workload::ALL
            .into_iter()
            .map(|w| (w, run_child(&args, w)))
            .collect(),
    };

    let mut summary = Report::default();
    for (w, r) in &results {
        summary.attempted += r.attempted;
        summary.failed += r.failed;
        summary.metrics.extend(r.metrics.iter().map(|m| Metric {
            name: if args.workload.is_some() {
                m.name.clone()
            } else {
                format!("{}/{}", w.name(), m.name)
            },
            ..m.clone()
        }));
    }
    if let Some(path) = &args.json {
        if let Err(e) = write_json(path, &args, &results) {
            eprintln!("{e}");
            summary.attempted += 1;
            summary.failed += 1;
        }
    }
    println!("{}", result_json(&summary));
    if summary.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
