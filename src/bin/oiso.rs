//! `oiso` — operand isolation from the command line.
//!
//! ```text
//! oiso show       <design.oiso>                      # structure + stats
//! oiso activation <design.oiso> [--lookahead]        # activation functions
//! oiso simulate   <design.oiso> [--cycles N] [--engine E] # power/timing report
//! oiso isolate    <design.oiso> [--style and|or|latch]
//!                 [--cycles N] [--engine scalar|compiled]
//!                 [--threads N] [--lookahead]
//!                 [--deadline SECS] [--max-skipped N]
//!                 [--checkpoint FILE] [--resume FILE]
//!                 [--out isolated.oiso] [--verilog out.v] [--dot out.dot]
//! oiso optimize   <design.oiso> [--out cleaned.oiso]   # const-fold + sweep
//! oiso analyze    <design.oiso> [--budget N] [--format text|json]
//!                                                    # static activity report
//! oiso timing     <design.oiso> [--clock-period NS] [--format text|json]
//! oiso verify     <design.oiso> [--style and|or|latch] [--lookahead]
//!                 [--budget N] [--deadline SECS]     # prove isolate() safe
//! oiso fuzz       [--cases N] [--seed S] [--threads N] [--budget N]
//!                 [--deadline SECS] [--max-skipped N]
//!                 [--checkpoint FILE] [--resume FILE]
//!                 [--sabotage force-false|negate]    # random transform fuzzing
//! oiso lint       [<design.oiso>...] [--bundled] [--deny CODE|error|warn|info]
//!                 [--format text|json|sarif] [--lookahead] [--budget N]
//!                 [--explain CODE]                   # describe one lint rule
//! oiso serve      [--port P] [--threads T] [--cache-cap N] [--queue-cap N]
//!                 [--memo-cap N] [--max-body BYTES] [--store DIR] [--quiet]
//! ```
//!
//! Design files use the text format documented in
//! [`operand_isolation::designs::textfmt`]; see `examples/cmac.oiso`.
//! `verify` and `fuzz` exit nonzero when an equivalence violation is found;
//! `lint` exits nonzero when any finding matches a `--deny` spec (a rule
//! code such as `OL003`, or a severity threshold: `error`, `warn`, `info`).
//! `lint --bundled` additionally checks every bundled benchmark design —
//! the CI lint gate runs `oiso lint --bundled --deny error --format sarif`.
//!
//! `serve` runs the whole pipeline as a resident HTTP/1.1 daemon on
//! `127.0.0.1` — `POST /v1/{isolate,lint,verify,simulate}` with a JSON
//! body (or raw `.oiso` text), `GET /healthz` and `GET /metrics` — with a
//! fingerprint-keyed result cache, bounded-queue load shedding, and
//! graceful SIGTERM/ctrl-c drain; `--store DIR` keeps cached results on
//! disk so a restarted daemon (even after SIGKILL) answers warm. See
//! [`operand_isolation::serve`].
//!
//! Fault tolerance: `--deadline` stops a long `isolate`/`fuzz` run at the
//! next cooperative check and returns the best-so-far result labeled
//! `truncated: true`; `--checkpoint` journals accepted steps (or clean
//! fuzz cases) as they land, and `--resume` replays that journal without
//! re-simulating, refusing journals from different inputs. The
//! fault-injection flags `--inject-panic N` (panic the scoring of cell
//! index N / fuzz case N) and `--inject-budget` (expire the budget at the
//! first check) exist to exercise those degradation paths end-to-end.

use operand_isolation::boolex::Signal;
use operand_isolation::core::{
    derive_activation_functions, optimize_with_memo, ActivationConfig, IsolationConfig,
    IsolationStyle, RunBudget, FAULT_SITE_SCORE,
};
use operand_isolation::designs::textfmt;
use operand_isolation::designs::Design;
use operand_isolation::netlist::{dot, verilog, NetlistStats};
use operand_isolation::par::faults;
use operand_isolation::power::{total_area, PowerEstimator};
use operand_isolation::sim::{EngineKind, SimMemo, Testbench};
use operand_isolation::techlib::{OperatingConditions, TechLibrary, Time};
use operand_isolation::timing::analyze;
use operand_isolation::verify::{
    run_fuzz, verify_isolation_plan, CheckConfig, FuzzConfig, Proof, ReplayVerdict, Sabotage,
    VerifyConfig, VerifyOutcome, FAULT_SITE_CASE,
};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

struct Options {
    command: String,
    file: String,
    style: IsolationStyle,
    cycles: u64,
    engine: EngineKind,
    threads: usize,
    lookahead: bool,
    fsm_dc: bool,
    out: Option<String>,
    verilog: Option<String>,
    dot: Option<String>,
    cases: usize,
    seed: u64,
    budget: usize,
    sabotage: Sabotage,
    deadline: Option<Duration>,
    max_skipped: Option<usize>,
    checkpoint: Option<PathBuf>,
    resume: Option<PathBuf>,
    inject_panic: Vec<usize>,
    inject_budget: bool,
    lint_files: Vec<String>,
    bundled: bool,
    explain: Option<String>,
    deny: Vec<String>,
    clock_period: Option<f64>,
    budget_set: bool,
    format: String,
    port: u16,
    cache_cap: usize,
    queue_cap: usize,
    memo_cap: usize,
    max_body: usize,
    store: Option<PathBuf>,
    quiet: bool,
}

const USAGE: &str = "usage: oiso <show|activation|simulate|isolate|optimize|verify> <design.oiso> \
                     [--style and|or|latch] [--cycles N] \
                     [--engine scalar|compiled] [--threads N] [--lookahead] \
                     [--fsm-dc] [--budget N] [--deadline SECS] [--max-skipped N] \
                     [--checkpoint FILE] [--resume FILE] \
                     [--out FILE] [--verilog FILE] [--dot FILE]\n\
                     \u{20}      oiso fuzz [--cases N] [--seed S] [--threads N] [--budget N] \
                     [--deadline SECS] [--max-skipped N] [--checkpoint FILE] [--resume FILE] \
                     [--sabotage force-false|negate]\n\
                     --threads N evaluates isolation candidates (or fuzz cases) on N worker \
                     threads (0 = all cores); the result is identical at every setting\n\
                     --engine picks the simulation engine (default compiled); both engines \
                     are bit-identical, only wall-clock differs\n\
                     --deadline stops the run gracefully (best-so-far, labeled truncated); \
                     --checkpoint/--resume journal and replay accepted work\n\
                     fault injection (testing the harness itself): --inject-panic N panics \
                     candidate/case N, --inject-budget expires the budget immediately\n\
                     \u{20}      oiso analyze <design.oiso> [--budget N] [--format text|json]\n\
                     analyze prints the static switching-activity report (per-net \
                     probability/density, per-cone glitch estimates) without simulating; \
                     --budget caps the exact BDD pass's node count\n\
                     \u{20}      oiso timing <design.oiso> [--clock-period NS] \
                     [--format text|json]\n\
                     timing prints arrival/slack and the critical path from static timing \
                     analysis (default clock period 10 ns)\n\
                     \u{20}      oiso lint [<design.oiso>...] [--bundled] \
                     [--deny CODE|error|warn|info] [--format text|json|sarif] \
                     [--lookahead] [--budget N] [--explain CODE]\n\
                     --deny is repeatable; any matching finding makes lint exit nonzero; \
                     --explain CODE describes one rule from the registry and exits\n\
                     \u{20}      oiso serve [--port P] [--threads T] [--cache-cap N] \
                     [--queue-cap N] [--memo-cap N] [--max-body BYTES] [--store DIR] \
                     [--quiet]\n\
                     serve exposes the pipeline as an HTTP daemon on 127.0.0.1 (port 0 = \
                     ephemeral); --quiet suppresses the JSON access log\n\
                     --store DIR persists cached 200s on disk, so a restarted daemon \
                     answers them from the store";

fn parse_options() -> Result<Options, String> {
    let mut args = std::env::args().skip(1);
    let command = args.next().ok_or(USAGE)?;
    if command == "--help" || command == "-h" {
        return Err(USAGE.to_string());
    }
    // `fuzz` generates its own designs, `serve` reads designs per
    // request, and `lint` takes any number of files (parsed below);
    // every other command reads exactly one.
    let file = if matches!(command.as_str(), "fuzz" | "lint" | "serve") {
        String::new()
    } else {
        args.next().ok_or(USAGE)?
    };
    let is_lint = command == "lint";
    let mut opts = Options {
        command,
        file,
        style: IsolationStyle::And,
        cycles: 3000,
        engine: EngineKind::default(),
        threads: 1,
        lookahead: false,
        fsm_dc: false,
        out: None,
        verilog: None,
        dot: None,
        cases: 100,
        seed: 1,
        budget: CheckConfig::default().node_budget,
        sabotage: Sabotage::None,
        deadline: None,
        max_skipped: None,
        checkpoint: None,
        resume: None,
        inject_panic: Vec::new(),
        inject_budget: false,
        lint_files: Vec::new(),
        bundled: false,
        explain: None,
        deny: Vec::new(),
        clock_period: None,
        budget_set: false,
        format: "text".to_string(),
        port: 0,
        cache_cap: 128,
        queue_cap: 64,
        memo_cap: 1024,
        max_body: 1 << 20,
        store: None,
        quiet: false,
    };
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--style" => {
                let raw = args.next();
                opts.style = raw
                    .as_deref()
                    .and_then(IsolationStyle::parse)
                    .ok_or_else(|| format!("--style needs and|or|latch|bdd, got {raw:?}"))?;
            }
            "--cycles" => {
                opts.cycles = args
                    .next()
                    .ok_or("--cycles needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --cycles: {e}"))?;
            }
            "--threads" => {
                opts.threads = args
                    .next()
                    .ok_or("--threads needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --threads: {e}"))?;
            }
            "--engine" => {
                opts.engine = args
                    .next()
                    .ok_or("--engine needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --engine: {e}"))?;
            }
            "--lookahead" => opts.lookahead = true,
            "--fsm-dc" => opts.fsm_dc = true,
            "--cases" => {
                opts.cases = args
                    .next()
                    .ok_or("--cases needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --cases: {e}"))?;
            }
            "--seed" => {
                opts.seed = args
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?;
            }
            "--budget" => {
                opts.budget = args
                    .next()
                    .ok_or("--budget needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --budget: {e}"))?;
                opts.budget_set = true;
            }
            "--explain" => {
                opts.explain = Some(args.next().ok_or("--explain needs a rule code")?);
            }
            "--clock-period" => {
                let ns: f64 = args
                    .next()
                    .ok_or("--clock-period needs nanoseconds")?
                    .parse()
                    .map_err(|e| format!("bad --clock-period: {e}"))?;
                if !ns.is_finite() || ns <= 0.0 {
                    return Err(format!(
                        "--clock-period needs a positive number of nanoseconds, got {ns}"
                    ));
                }
                opts.clock_period = Some(ns);
            }
            "--sabotage" => {
                opts.sabotage = match args.next().as_deref() {
                    Some("force-false") => Sabotage::ForceFalse,
                    Some("negate") => Sabotage::Negate,
                    other => {
                        return Err(format!(
                            "--sabotage needs force-false|negate, got {other:?}"
                        ))
                    }
                };
            }
            "--deadline" => {
                let secs: f64 = args
                    .next()
                    .ok_or("--deadline needs seconds")?
                    .parse()
                    .map_err(|e| format!("bad --deadline: {e}"))?;
                if !secs.is_finite() || secs < 0.0 {
                    return Err(format!(
                        "--deadline needs a non-negative number of seconds, got {secs}"
                    ));
                }
                opts.deadline = Some(Duration::from_secs_f64(secs));
            }
            "--max-skipped" => {
                opts.max_skipped = Some(
                    args.next()
                        .ok_or("--max-skipped needs a value")?
                        .parse()
                        .map_err(|e| format!("bad --max-skipped: {e}"))?,
                );
            }
            "--checkpoint" => {
                opts.checkpoint =
                    Some(PathBuf::from(args.next().ok_or("--checkpoint needs a path")?));
            }
            "--resume" => {
                opts.resume = Some(PathBuf::from(args.next().ok_or("--resume needs a path")?));
            }
            "--inject-panic" => {
                opts.inject_panic.push(
                    args.next()
                        .ok_or("--inject-panic needs a candidate/case index")?
                        .parse()
                        .map_err(|e| format!("bad --inject-panic: {e}"))?,
                );
            }
            "--inject-budget" => opts.inject_budget = true,
            "--out" => opts.out = Some(args.next().ok_or("--out needs a path")?),
            "--verilog" => {
                opts.verilog = Some(args.next().ok_or("--verilog needs a path")?)
            }
            "--dot" => opts.dot = Some(args.next().ok_or("--dot needs a path")?),
            "--bundled" => opts.bundled = true,
            "--port" => {
                opts.port = args
                    .next()
                    .ok_or("--port needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --port: {e}"))?;
            }
            "--cache-cap" => {
                opts.cache_cap = args
                    .next()
                    .ok_or("--cache-cap needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --cache-cap: {e}"))?;
            }
            "--queue-cap" => {
                opts.queue_cap = args
                    .next()
                    .ok_or("--queue-cap needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --queue-cap: {e}"))?;
            }
            "--memo-cap" => {
                opts.memo_cap = args
                    .next()
                    .ok_or("--memo-cap needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --memo-cap: {e}"))?;
            }
            "--max-body" => {
                opts.max_body = args
                    .next()
                    .ok_or("--max-body needs a byte count")?
                    .parse()
                    .map_err(|e| format!("bad --max-body: {e}"))?;
            }
            "--store" => {
                opts.store = Some(PathBuf::from(
                    args.next().ok_or("--store needs a directory")?,
                ));
            }
            "--quiet" => opts.quiet = true,
            "--deny" => opts
                .deny
                .push(args.next().ok_or("--deny needs a rule code or severity")?),
            "--format" => {
                let fmt = args.next().ok_or("--format needs text|json|sarif")?;
                if !matches!(fmt.as_str(), "text" | "json" | "sarif") {
                    return Err(format!("--format needs text|json|sarif, got `{fmt}`"));
                }
                opts.format = fmt;
            }
            other if is_lint && !other.starts_with('-') => {
                opts.lint_files.push(other.to_string())
            }
            other => return Err(format!("unknown flag `{other}` ({USAGE})")),
        }
    }
    Ok(opts)
}

fn load(path: &str) -> Result<Design, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read `{path}`: {e}"))?;
    textfmt::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn activation_config(lookahead: bool) -> ActivationConfig {
    if lookahead {
        ActivationConfig::default().with_lookahead()
    } else {
        ActivationConfig::default()
    }
}

fn run() -> Result<(), String> {
    let opts = parse_options()?;
    if opts.command == "fuzz" {
        return fuzz_command(&opts);
    }
    if opts.command == "lint" {
        return lint_command(&opts);
    }
    if opts.command == "serve" {
        return operand_isolation::serve::run_daemon(operand_isolation::serve::ServeConfig {
            port: opts.port,
            threads: opts.threads,
            cache_cap: opts.cache_cap,
            queue_cap: opts.queue_cap,
            memo_cap: opts.memo_cap,
            max_body: opts.max_body,
            log: !opts.quiet,
            store: opts.store,
        });
    }
    let design = load(&opts.file)?;
    let netlist = &design.netlist;

    match opts.command.as_str() {
        "show" => {
            println!("design `{}`", netlist.name());
            print!("{}", NetlistStats::of(netlist));
            let blocks = operand_isolation::netlist::partition_into_blocks(netlist);
            println!("  {} combinational block(s)", blocks.len());
            for fsm in operand_isolation::core::find_closed_fsms(netlist) {
                println!(
                    "  closed FSM `{}`: {} reachable state(s){}",
                    netlist.cell(fsm.state_reg).name(),
                    fsm.num_states(),
                    if fsm.complete { "" } else { " (truncated)" }
                );
            }
        }
        "activation" => {
            let acts =
                derive_activation_functions(netlist, &activation_config(opts.lookahead));
            let fsms = if opts.fsm_dc {
                operand_isolation::core::find_closed_fsms(netlist)
            } else {
                Vec::new()
            };
            let name_of = |s: Signal| {
                let net = netlist.net(s.net);
                if net.width() == 1 {
                    net.name().to_string()
                } else {
                    format!("{}[{}]", net.name(), s.bit)
                }
            };
            let mut rows: Vec<_> = netlist
                .arithmetic_cells()
                .filter_map(|cid| {
                    acts.get(&cid)
                        .map(|act| (netlist.cell(cid).name().to_string(), act))
                })
                .collect();
            rows.sort_by(|a, b| a.0.cmp(&b.0));
            for (name, act) in rows {
                // Print the form the transform will implement: minimized,
                // with FSM don't-cares when requested.
                let refined = operand_isolation::core::refine_with_fsm_dont_cares(
                    netlist, &fsms, act,
                );
                let minimized = operand_isolation::boolex::minimize(&refined);
                println!("AS_{name} = {}", minimized.render(&name_of));
            }
        }
        "simulate" => {
            let lib = TechLibrary::generic_250nm();
            let cond = OperatingConditions::default();
            let report = Testbench::from_plan(netlist, &design.stimuli)
                .map_err(|e| e.to_string())?
                .run_with_engine(opts.cycles, opts.engine)
                .map_err(|e| e.to_string())?;
            let breakdown = PowerEstimator::new(&lib, cond).estimate(netlist, &report);
            let timing = analyze(&lib, netlist, cond.clock_period());
            println!(
                "power {} (leakage {}, clock {}), area {}, worst slack {}",
                breakdown.total,
                breakdown.leakage,
                breakdown.clock,
                total_area(&lib, netlist),
                timing.worst_slack
            );
            let mut cells: Vec<_> = netlist
                .cells()
                .map(|(id, c)| (breakdown.cell_power(id), c.name().to_string()))
                .collect();
            cells.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
            println!("top consumers:");
            for (p, name) in cells.into_iter().take(8) {
                println!("  {name:<20} {p}");
            }
        }
        "isolate" => {
            let mut budget = RunBudget::unlimited();
            if let Some(d) = opts.deadline {
                budget = budget.with_deadline_in(d);
            }
            if let Some(n) = opts.max_skipped {
                budget = budget.with_max_skipped(n);
            }
            if opts.inject_budget {
                budget = budget.with_expiry_after_checks(0);
            }
            let mut config = IsolationConfig::default()
                .with_style(opts.style)
                .with_sim_cycles(opts.cycles)
                .with_engine(opts.engine)
                .with_threads(opts.threads)
                .with_fsm_dont_cares(opts.fsm_dc)
                .with_budget(budget);
            if let Some(path) = &opts.checkpoint {
                config = config.with_checkpoint(path.clone());
            }
            if let Some(path) = &opts.resume {
                config = config.with_resume(path.clone());
            }
            config.activation = activation_config(opts.lookahead);
            let _fault = (!opts.inject_panic.is_empty())
                .then(|| faults::inject(FAULT_SITE_SCORE, &opts.inject_panic));
            let memo = SimMemo::new();
            let outcome = optimize_with_memo(netlist, &design.stimuli, &config, &memo)
                .map_err(|e| e.to_string())?;
            print!("{outcome}");
            println!("  sim memo: {}", memo.stats());
            for record in &outcome.isolated {
                println!(
                    "  isolated `{}` ({} bits, {} style)",
                    outcome.netlist.cell(record.candidate).name(),
                    record.isolated_bits,
                    record.style
                );
            }
            if let Some(path) = &opts.out {
                let out_design = Design {
                    netlist: outcome.netlist.clone(),
                    stimuli: design.stimuli.clone(),
                };
                std::fs::write(path, textfmt::emit(&out_design))
                    .map_err(|e| format!("cannot write `{path}`: {e}"))?;
                println!("wrote {path}");
            }
            if let Some(path) = &opts.verilog {
                std::fs::write(path, verilog::to_verilog(&outcome.netlist))
                    .map_err(|e| format!("cannot write `{path}`: {e}"))?;
                println!("wrote {path}");
            }
            if let Some(path) = &opts.dot {
                std::fs::write(path, dot::to_dot(&outcome.netlist))
                    .map_err(|e| format!("cannot write `{path}`: {e}"))?;
                println!("wrote {path}");
            }
        }
        "optimize" => {
            let (cleaned, stats) = operand_isolation::netlist::optimize_netlist(netlist)
                .map_err(|e| e.to_string())?;
            println!(
                "removed {} dead cell(s), folded {} constant(s), collapsed {} mux(es): \
                 {} -> {} cells",
                stats.dead_cells,
                stats.folded_cells,
                stats.collapsed_muxes,
                netlist.num_cells(),
                cleaned.num_cells()
            );
            if let Some(path) = &opts.out {
                let out_design = Design {
                    netlist: cleaned,
                    stimuli: design.stimuli.clone(),
                };
                std::fs::write(path, textfmt::emit(&out_design))
                    .map_err(|e| format!("cannot write `{path}`: {e}"))?;
                println!("wrote {path}");
            }
        }
        "analyze" => {
            use operand_isolation::activity::{
                analyze_activity_with_plan, ActivityOptions, DEFAULT_ACTIVITY_NODE_BUDGET,
            };
            // The shared `--budget` default (200k) is sized for per-cone
            // verification BDDs; the activity pass covers whole netlists
            // and gets its own, much larger default.
            let node_budget = if opts.budget_set {
                opts.budget
            } else {
                DEFAULT_ACTIVITY_NODE_BUDGET
            };
            let act_opts = ActivityOptions {
                node_budget,
                clock_period: opts.clock_period.map(Time::from_ns),
            };
            let report = analyze_activity_with_plan(netlist, &design.stimuli, &act_opts);
            match opts.format.as_str() {
                "text" => print_activity_text(netlist, &report),
                "json" => print_activity_json(netlist, &report),
                other => {
                    return Err(format!("analyze supports --format text|json, got `{other}`"))
                }
            }
        }
        "timing" => {
            let lib = TechLibrary::generic_250nm();
            let period = opts
                .clock_period
                .map(Time::from_ns)
                .unwrap_or_else(|| OperatingConditions::default().clock_period());
            let report = analyze(&lib, netlist, period);
            match opts.format.as_str() {
                "text" => print_timing_text(netlist, &report),
                "json" => print_timing_json(netlist, &report),
                other => {
                    return Err(format!("timing supports --format text|json, got `{other}`"))
                }
            }
        }
        "verify" => {
            let acts =
                derive_activation_functions(netlist, &activation_config(opts.lookahead));
            let plan: Vec<_> = netlist
                .arithmetic_cells()
                .filter_map(|cid| acts.get(&cid).map(|a| (cid, a.clone(), opts.style)))
                .collect();
            println!(
                "verifying `{}`: {} candidate(s), {} style",
                netlist.name(),
                plan.len(),
                opts.style
            );
            let config = VerifyConfig {
                check: CheckConfig {
                    node_budget: opts.budget,
                    assumption: None,
                    deadline: opts.deadline.map(|d| Instant::now() + d),
                },
                ..VerifyConfig::default()
            };
            let (_, checks) =
                verify_isolation_plan(netlist, &plan, &config).map_err(|e| e.to_string())?;
            let mut violations = 0usize;
            let mut proved = 0usize;
            let mut sampled = 0usize;
            for check in &checks {
                match &check.outcome {
                    VerifyOutcome::Verified(Proof::Bdd { observables }) => {
                        proved += 1;
                        println!(
                            "  {}: proved equivalent ({observables} observable bits)",
                            check.candidate
                        );
                    }
                    VerifyOutcome::Verified(Proof::Sampled { vectors }) => {
                        sampled += 1;
                        println!(
                            "  {}: BDD budget exceeded; {vectors} random vectors agree",
                            check.candidate
                        );
                    }
                    VerifyOutcome::Skipped { reason } => {
                        println!("  {}: skipped ({reason})", check.candidate)
                    }
                    VerifyOutcome::Violation {
                        counterexample,
                        replay,
                    } => {
                        violations += 1;
                        let replay_note = match replay {
                            ReplayVerdict::Confirmed { .. } => "replay confirmed",
                            ReplayVerdict::Refuted => "replay REFUTED — checker bug?",
                        };
                        println!("  {}: VIOLATION ({replay_note})", check.candidate);
                        print!("{counterexample}");
                    }
                }
            }
            if violations > 0 {
                return Err(format!("{violations} equivalence violation(s) found"));
            }
            println!("  {proved} proved, {sampled} sampled");
            println!("all candidates verified");
        }
        other => return Err(format!("unknown command `{other}` ({USAGE})")),
    }
    Ok(())
}

fn print_activity_text(
    netlist: &operand_isolation::netlist::Netlist,
    report: &operand_isolation::activity::ActivityReport,
) {
    println!(
        "activity `{}`: total density {:.3} toggles/cycle, total glitch {:.3}/cycle, \
         clock period {:.3} ns",
        netlist.name(),
        report.total_density(),
        report.total_glitch(),
        report.clock_period_ns()
    );
    println!(
        "exact pass: {}/{} net(s) exact, {} BDD node(s){}",
        report.exact_nets,
        netlist.num_nets(),
        report.bdd_nodes,
        if report.budget_blown {
            ", budget blown (remaining nets used the algebraic fallback)"
        } else {
            ""
        }
    );
    let mut nets: Vec<_> = netlist
        .nets()
        .map(|(id, net)| (report.density(id), id, net.name().to_string()))
        .collect();
    nets.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
    println!("top nets by transition density:");
    for (d, id, name) in nets.into_iter().take(12) {
        println!(
            "  {name:<20} p={:.3} d={d:.3} arrival {:.2} ns{}",
            report.prob(id),
            report.arrival_ns(id),
            if report.net(id).exact { "" } else { " (approx)" }
        );
    }
    if !report.cones().is_empty() {
        println!("isolation-candidate cones:");
        for cone in report.cones() {
            println!(
                "  {:<20} operands {:.3} output {:.3} glitch {:.3}",
                netlist.cell(cone.cell).name(),
                cone.operand_density,
                cone.output_density,
                cone.glitch
            );
        }
    }
}

fn print_activity_json(
    netlist: &operand_isolation::netlist::Netlist,
    report: &operand_isolation::activity::ActivityReport,
) {
    use operand_isolation::core::escape_json;
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"design\":\"{}\",\"clock_period_ns\":{},\"total_density\":{},\
         \"total_glitch\":{},\"exact_nets\":{},\"bdd_nodes\":{},\"budget_blown\":{},\
         \"nets\":[",
        escape_json(netlist.name()),
        report.clock_period_ns(),
        report.total_density(),
        report.total_glitch(),
        report.exact_nets,
        report.bdd_nodes,
        report.budget_blown
    );
    for (i, (id, net)) in netlist.nets().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"p\":{},\"density\":{},\"arrival_ns\":{},\"exact\":{}}}",
            escape_json(net.name()),
            report.prob(id),
            report.density(id),
            report.arrival_ns(id),
            report.net(id).exact
        );
    }
    out.push_str("],\"cones\":[");
    for (i, cone) in report.cones().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"cell\":\"{}\",\"operand_density\":{},\"output_density\":{},\"glitch\":{}}}",
            escape_json(netlist.cell(cone.cell).name()),
            cone.operand_density,
            cone.output_density,
            cone.glitch
        );
    }
    out.push_str("]}");
    println!("{out}");
}

fn print_timing_text(
    netlist: &operand_isolation::netlist::Netlist,
    report: &operand_isolation::timing::TimingReport,
) {
    println!(
        "timing `{}`: clock period {:.3} ns, worst slack {:.3} ns",
        netlist.name(),
        report.clock_period.as_ns(),
        report.worst_slack.as_ns()
    );
    let path = report.critical_path(netlist);
    if !path.is_empty() {
        println!("critical path:");
        for cid in &path {
            let cell = netlist.cell(*cid);
            println!(
                "  {:<20} arrival {:.3} ns",
                cell.name(),
                report.arrival[cell.output().index()].as_ns()
            );
        }
    }
    let mut nets: Vec<_> = netlist
        .nets()
        .map(|(id, net)| (report.slack_of_net(id).as_ns(), id, net.name().to_string()))
        .filter(|(slack, _, _)| slack.is_finite())
        .collect();
    nets.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
    println!("tightest nets:");
    for (slack, id, name) in nets.into_iter().take(10) {
        println!(
            "  {name:<20} arrival {:.3} ns, slack {slack:.3} ns",
            report.arrival[id.index()].as_ns()
        );
    }
}

fn print_timing_json(
    netlist: &operand_isolation::netlist::Netlist,
    report: &operand_isolation::timing::TimingReport,
) {
    use operand_isolation::core::escape_json;
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"design\":\"{}\",\"clock_period_ns\":{},\"worst_slack_ns\":{},\
         \"critical_path\":[",
        escape_json(netlist.name()),
        report.clock_period.as_ns(),
        report.worst_slack.as_ns()
    );
    for (i, cid) in report.critical_path(netlist).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\"", escape_json(netlist.cell(*cid).name()));
    }
    out.push_str("],\"nets\":[");
    for (i, (id, net)) in netlist.nets().enumerate() {
        if i > 0 {
            out.push(',');
        }
        // Nets with no timed endpoint downstream have infinite required
        // time; JSON has no Infinity, so those fields render as null.
        let required = report.required[id.index()].as_ns();
        let slack = report.slack_of_net(id).as_ns();
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"arrival_ns\":{}",
            escape_json(net.name()),
            report.arrival[id.index()].as_ns()
        );
        if required.is_finite() {
            let _ = write!(out, ",\"required_ns\":{required},\"slack_ns\":{slack}");
        } else {
            out.push_str(",\"required_ns\":null,\"slack_ns\":null");
        }
        out.push('}');
    }
    out.push_str("]}");
    println!("{out}");
}

fn lint_command(opts: &Options) -> Result<(), String> {
    use operand_isolation::designs::{bundled, BUNDLED_NAMES};
    use operand_isolation::lint::{
        lint_netlist, render_json, render_sarif, render_text, LintOptions, REGISTRY,
    };

    if let Some(code) = &opts.explain {
        let Some(rule) = REGISTRY.iter().find(|r| r.code.eq_ignore_ascii_case(code)) else {
            let valid: Vec<&str> = REGISTRY.iter().map(|r| r.code).collect();
            return Err(format!(
                "unknown rule code `{code}`; valid codes: {}",
                valid.join(", ")
            ));
        };
        println!("{} {} ({})", rule.code, rule.name, rule.default_severity);
        println!("  {}", rule.summary);
        return Ok(());
    }

    // Work list: (artifact uri for SARIF, netlist). Files first, in the
    // order given; then the bundled benchmark designs from the shared
    // registry (the same one behind the serve API's `{"design": name}`).
    let mut inputs: Vec<(Option<String>, operand_isolation::netlist::Netlist)> = Vec::new();
    for path in &opts.lint_files {
        inputs.push((Some(path.clone()), load(path)?.netlist));
    }
    if opts.bundled {
        for name in BUNDLED_NAMES {
            let design = bundled(name).expect("registry names build their designs");
            inputs.push((None, design.netlist));
        }
    }
    if inputs.is_empty() {
        return Err(format!("lint needs design files or --bundled ({USAGE})"));
    }

    let lint_options = LintOptions {
        activation: activation_config(opts.lookahead),
        bdd_node_budget: opts.budget,
    };
    let reports: Vec<_> = inputs
        .iter()
        .map(|(artifact, netlist)| (artifact.clone(), lint_netlist(netlist, &lint_options)))
        .collect();

    match opts.format.as_str() {
        "text" => {
            for (_, report) in &reports {
                print!("{}", render_text(report));
            }
        }
        "json" => {
            for (_, report) in &reports {
                print!("{}", render_json(report));
            }
        }
        "sarif" => {
            let refs: Vec<_> = reports
                .iter()
                .map(|(artifact, report)| (artifact.clone(), report))
                .collect();
            print!("{}", render_sarif(&refs));
        }
        other => unreachable!("--format validated at parse time: {other}"),
    }

    let mut denied = 0usize;
    for (_, report) in &reports {
        for spec in &opts.deny {
            for d in report.denied(spec) {
                denied += 1;
                eprintln!(
                    "denied [{} {}] {}: {}",
                    d.severity,
                    d.code,
                    d.span.path(&report.design),
                    d.message
                );
            }
        }
    }
    if denied > 0 {
        return Err(format!("{denied} denied finding(s)"));
    }
    Ok(())
}

fn fuzz_command(opts: &Options) -> Result<(), String> {
    let mut budget = RunBudget::unlimited();
    if let Some(d) = opts.deadline {
        budget = budget.with_deadline_in(d);
    }
    if let Some(n) = opts.max_skipped {
        budget = budget.with_max_skipped(n);
    }
    if opts.inject_budget {
        // The fuzzer's deterministic budget bound is its per-index case
        // cap; zero means "budget exhausted before any case starts".
        budget = budget.with_max_iterations(0);
    }
    let config = FuzzConfig {
        cases: opts.cases,
        seed: opts.seed,
        threads: opts.threads,
        node_budget: opts.budget,
        sabotage: opts.sabotage,
        budget,
        checkpoint: opts.checkpoint.clone(),
        resume: opts.resume.clone(),
        ..FuzzConfig::default()
    };
    println!(
        "fuzzing the isolation transform: {} case(s), seed {}",
        config.cases, config.seed
    );
    let _fault = (!opts.inject_panic.is_empty())
        .then(|| faults::inject(FAULT_SITE_CASE, &opts.inject_panic));
    let report = run_fuzz(&config).map_err(|e| e.to_string())?;
    if report.replayed > 0 {
        println!("  {} case(s) replayed from checkpoint", report.replayed);
    }
    println!(
        "  {} candidate(s): {} proved, {} sampled, {} skipped",
        report.total_candidates(),
        report.total_bdd_proved(),
        report.total_sampled(),
        report.total_skipped()
    );
    if report.truncated {
        println!(
            "  truncated: true (budget exhausted; {} case(s) not run)",
            report.not_run.len()
        );
    }
    for p in &report.panicked {
        println!("  skipped case {}: {}", p.case_index, p.reason);
    }
    for (case, error) in report.transform_errors() {
        println!("  case {case}: transform error: {error}");
    }
    let violations: Vec<_> = report.violations().collect();
    for v in &violations {
        println!(
            "  case {}: VIOLATION isolating `{}` ({} style, replay {})",
            v.case_index,
            v.candidate,
            v.style,
            if v.replay_confirmed {
                "confirmed"
            } else {
                "REFUTED"
            }
        );
        print!("{}", v.counterexample);
    }
    if !report.is_clean() {
        return Err(format!(
            "{} equivalence violation(s), {} transform error(s), {} panicked case(s)",
            violations.len(),
            report.transform_errors().count(),
            report.panicked.len()
        ));
    }
    println!("no violations");
    Ok(())
}
