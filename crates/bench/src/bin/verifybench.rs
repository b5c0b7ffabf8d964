//! `verifybench` — equivalence-checker battery over the bundled designs.
//!
//! ```text
//! verifybench [--budget N] [--json PATH] [--check]
//! ```
//!
//! For every bundled design, derives the activation functions, isolates
//! every arithmetic candidate step by step (`verify_isolation_plan`), and
//! records how the symbolic checker fared: how many steps were **proved**
//! by BDD (and how many of those the arithmetic cut-point phase closed,
//! `cut_proved`), how many fell back to **sampled** differential
//! evidence, the peak allocated node count, and wall-clock. The checker runs with
//! `CheckConfig::default()` except for the node budget.
//!
//! `--json PATH` writes the measurements as `BENCH_verify.json`, the
//! artifact the `bdd-smoke` CI job and `DESIGN.md` §16 reference.
//! `--check` exits nonzero if any step finds a violation or the
//! proved-by-BDD ratio over all checked steps drops below `PROVED_GATE`.

use oiso_bench::json::Json;
use oiso_core::{derive_activation_functions, ActivationConfig, IsolationStyle};
use oiso_designs::{bundled, BUNDLED_NAMES};
use oiso_verify::{verify_isolation_plan, CheckConfig, Proof, VerifyConfig, VerifyOutcome};
use std::process::ExitCode;
use std::time::Instant;

/// Minimum fraction of checked (non-skipped) plan steps that must be
/// proved exhaustively by BDD rather than fall back to sampling.
const PROVED_GATE: f64 = 0.99;

/// Node budget for the battery. Larger than the CLI default (200k):
/// the bench's job is to measure how far exhaustive proof reaches, so it
/// gives the checker the headroom a nightly run can afford.
const DEFAULT_BUDGET: usize = 4_000_000;

struct Args {
    budget: usize,
    json: Option<String>,
    check: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        budget: DEFAULT_BUDGET,
        json: None,
        check: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--budget" => {
                let v = it.next().ok_or("--budget needs a value")?;
                args.budget = v.parse().map_err(|e| format!("bad --budget: {e}"))?;
            }
            "--json" => args.json = Some(it.next().ok_or("--json needs a path")?),
            "--check" => args.check = true,
            "--help" | "-h" => {
                return Err(
                    "usage: verifybench [--budget N] [--json PATH] [--check]".to_string(),
                );
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    if args.budget == 0 {
        return Err("--budget must be positive".to_string());
    }
    Ok(args)
}

/// Checker outcomes over one design's full isolation plan.
struct Row {
    candidates: usize,
    proved: usize,
    cut_proved: usize,
    sampled: usize,
    skipped: usize,
    violations: usize,
    peak_nodes: usize,
    wall_ms: f64,
}

fn run_design(name: &str, args: &Args) -> Row {
    let design = bundled(name).expect("bundled design");
    let netlist = &design.netlist;
    let acts = derive_activation_functions(netlist, &ActivationConfig::default());
    let plan: Vec<_> = netlist
        .arithmetic_cells()
        .filter_map(|cid| {
            acts.get(&cid)
                .map(|a| (cid, a.clone(), IsolationStyle::And))
        })
        .collect();

    let config = VerifyConfig {
        check: CheckConfig {
            node_budget: args.budget,
            ..CheckConfig::default()
        },
        ..VerifyConfig::default()
    };

    let t0 = Instant::now();
    let (_, checks) =
        verify_isolation_plan(netlist, &plan, &config).expect("bundled plans splice cleanly");
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;

    let mut row = Row {
        candidates: plan.len(),
        proved: 0,
        cut_proved: 0,
        sampled: 0,
        skipped: 0,
        violations: 0,
        peak_nodes: 0,
        wall_ms,
    };
    for check in &checks {
        row.peak_nodes = row.peak_nodes.max(check.stats.peak_nodes);
        row.cut_proved += usize::from(check.stats.cut_proved);
        match &check.outcome {
            VerifyOutcome::Verified(Proof::Bdd { .. }) => row.proved += 1,
            VerifyOutcome::Verified(Proof::Sampled { .. }) => row.sampled += 1,
            VerifyOutcome::Skipped { .. } => row.skipped += 1,
            VerifyOutcome::Violation { .. } => row.violations += 1,
        }
    }
    row
}

fn row_json(name: &str, row: &Row) -> Json {
    Json::obj([
        ("design", Json::str(name)),
        ("candidates", Json::int(row.candidates)),
        ("proved", Json::int(row.proved)),
        ("cut_proved", Json::int(row.cut_proved)),
        ("sampled", Json::int(row.sampled)),
        ("skipped", Json::int(row.skipped)),
        ("violations", Json::int(row.violations)),
        ("peak_nodes", Json::int(row.peak_nodes)),
        ("wall_ms", Json::num(row.wall_ms)),
    ])
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    println!("== verify battery (budget {}) ==", args.budget);
    let mut rows = Vec::new();
    for &name in BUNDLED_NAMES {
        let row = run_design(name, &args);
        println!(
            "  {name:>9}: {} candidate(s): {} proved ({} by cuts), {} sampled, {} skipped, \
             {} violation(s); peak {} nodes; {:.1} ms",
            row.candidates,
            row.proved,
            row.cut_proved,
            row.sampled,
            row.skipped,
            row.violations,
            row.peak_nodes,
            row.wall_ms
        );
        rows.push((name, row));
    }

    let proved: usize = rows.iter().map(|(_, r)| r.proved).sum();
    let cut_proved: usize = rows.iter().map(|(_, r)| r.cut_proved).sum();
    let sampled: usize = rows.iter().map(|(_, r)| r.sampled).sum();
    let violations: usize = rows.iter().map(|(_, r)| r.violations).sum();
    let checked = proved + sampled + violations;
    let ratio = if checked == 0 {
        1.0
    } else {
        proved as f64 / checked as f64
    };
    println!(
        "proved-by-BDD ratio: {ratio:.4} ({proved}/{checked} checked steps, \
         {cut_proved} by cuts)"
    );

    if let Some(path) = &args.json {
        let doc = Json::obj([
            (
                "methodology",
                Json::str(
                    "verify_isolation_plan over every arithmetic candidate of each bundled \
                     design (activations from derive_activation_functions, AND style); \
                     symbolic check on oiso_boolex::Bdd over a fixed variable order with \
                     CheckConfig::default() apart from node_budget, each miter XORed in \
                     the check's own manager; peak_nodes = largest allocated table of any \
                     step; proved = exhaustive BDD proof, cut_proved = the proved steps the \
                     arithmetic cut-point phase closed, sampled = budget fallback to \
                     differential vectors; the check gate requires \
                     proved/(proved+sampled+violations) >= proved_gate and zero violations",
                ),
            ),
            ("node_budget", Json::int(args.budget)),
            ("proved_gate", Json::num(PROVED_GATE)),
            ("proved", Json::int(proved)),
            ("cut_proved", Json::int(cut_proved)),
            ("sampled", Json::int(sampled)),
            ("violations", Json::int(violations)),
            ("proved_ratio", Json::num(ratio)),
            ("designs", Json::Arr(rows.iter().map(|(n, r)| row_json(n, r)).collect())),
        ]);
        if let Err(e) = std::fs::write(path, doc.render()) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }

    if args.check {
        let mut failed = false;
        if violations > 0 {
            eprintln!("FAIL: {violations} equivalence violation(s)");
            failed = true;
        }
        if ratio < PROVED_GATE {
            eprintln!("FAIL: proved ratio {ratio:.4} below gate {PROVED_GATE}");
            failed = true;
        }
        if failed {
            return ExitCode::FAILURE;
        }
        println!("check passed: proved ratio {ratio:.4} >= {PROVED_GATE}, no violations");
    }

    ExitCode::SUCCESS
}
