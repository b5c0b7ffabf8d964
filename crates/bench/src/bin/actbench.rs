//! `actbench` — differential calibration of the static activity analyzer.
//!
//! ```text
//! actbench [--cycles N] [--mutants M] [--json PATH] [--check]
//! ```
//!
//! Two corpora, both compared net-by-net against the cycle simulator
//! (compiled, the default engine) under each design's bundled stimulus plan:
//!
//! * **designs** — all eight bundled designs. These gate: `--check`
//!   exits nonzero if any design's total static transition density
//!   drifts more than `TOTAL_TOL` from the measured density, or if the
//!   default node budget no longer covers a design exactly.
//! * **mutants** — `--mutants` structural mutants of the larger bundled
//!   designs (the `oiso-verify` mutation operators, same corpus as
//!   simbench's fuzz-smoke workload). These track how the analyzer
//!   degrades off the happy path; they are reported, not gated, because
//!   mutations deliberately produce pathological structure.
//!
//! `--json PATH` writes the measurements as `BENCH_activity.json`, the
//! artifact the `activity-smoke` CI job and `DESIGN.md` §15 reference.

use oiso_activity::{analyze_activity_with_plan, ActivityOptions};
use oiso_bench::json::Json;
use oiso_designs::{bundled, BUNDLED_NAMES};
use oiso_netlist::Netlist;
use oiso_sim::{StimulusPlan, Testbench};
use oiso_verify::mutate_netlist;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::ExitCode;
use std::time::Instant;

/// Design-wide tolerance on total transition density for the gated
/// corpus. Mirrors `crates/activity/tests/calibration.rs`.
const TOTAL_TOL: f64 = 0.10;

/// Reporting threshold for the mutant corpus: the JSON records what
/// fraction of mutants stay inside this looser bound.
const MUTANT_TOL: f64 = 0.20;

struct Args {
    cycles: u64,
    mutants: usize,
    json: Option<String>,
    check: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        cycles: 20_000,
        mutants: 4,
        json: None,
        check: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--cycles" => {
                let v = it.next().ok_or("--cycles needs a value")?;
                args.cycles = v.parse().map_err(|e| format!("bad --cycles: {e}"))?;
            }
            "--mutants" => {
                let v = it.next().ok_or("--mutants needs a value")?;
                args.mutants = v.parse().map_err(|e| format!("bad --mutants: {e}"))?;
            }
            "--json" => args.json = Some(it.next().ok_or("--json needs a path")?),
            "--check" => args.check = true,
            "--help" | "-h" => {
                return Err(
                    "usage: actbench [--cycles N] [--mutants M] [--json PATH] [--check]"
                        .to_string(),
                );
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    if args.cycles == 0 {
        return Err("--cycles must be positive".to_string());
    }
    Ok(args)
}

/// One static-vs-simulated comparison on a single netlist + plan.
struct Row {
    static_total: f64,
    measured_total: f64,
    rel: f64,
    worst_net: String,
    worst_rel: f64,
    exact_nets: usize,
    nets: usize,
    bdd_nodes: usize,
    budget_blown: bool,
    static_ms: f64,
    sim_ms: f64,
}

fn compare(netlist: &Netlist, plan: &StimulusPlan, cycles: u64) -> Row {
    let t0 = Instant::now();
    let report = analyze_activity_with_plan(netlist, plan, &ActivityOptions::default());
    let static_ms = t0.elapsed().as_secs_f64() * 1e3;

    let t1 = Instant::now();
    let sim = Testbench::from_plan(netlist, plan)
        .and_then(|mut tb| tb.run(cycles))
        .expect("bundled plan drives every input");
    let sim_ms = t1.elapsed().as_secs_f64() * 1e3;

    let mut static_total = 0.0;
    let mut measured_total = 0.0;
    let mut worst_net = String::new();
    let mut worst_rel = 0.0f64;
    for (id, net) in netlist.nets() {
        let d_static = report.density(id);
        let d_meas = sim.toggle_rate(id);
        static_total += d_static;
        measured_total += d_meas;
        let rel = (d_static - d_meas).abs() / d_meas.max(0.05);
        if rel > worst_rel {
            worst_rel = rel;
            worst_net = net.name().to_string();
        }
    }
    let rel = (static_total - measured_total).abs() / measured_total.max(0.05);
    Row {
        static_total,
        measured_total,
        rel,
        worst_net,
        worst_rel,
        exact_nets: report.exact_nets,
        nets: netlist.num_nets(),
        bdd_nodes: report.bdd_nodes,
        budget_blown: report.budget_blown,
        static_ms,
        sim_ms,
    }
}

fn row_json(name: &str, row: &Row) -> Json {
    Json::obj([
        ("design", Json::str(name)),
        ("nets", Json::int(row.nets)),
        ("static_density", Json::num(row.static_total)),
        ("measured_density", Json::num(row.measured_total)),
        ("rel_err", Json::num(row.rel)),
        ("worst_net", Json::str(row.worst_net.clone())),
        ("worst_net_rel_err", Json::num(row.worst_rel)),
        ("exact_nets", Json::int(row.exact_nets)),
        ("bdd_nodes", Json::int(row.bdd_nodes)),
        ("budget_blown", Json::Bool(row.budget_blown)),
        ("static_ms", Json::num(row.static_ms)),
        ("sim_ms", Json::num(row.sim_ms)),
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

    println!("== bundled designs ({} cycles) ==", args.cycles);
    let mut design_rows = Vec::new();
    let mut failures = Vec::new();
    for &name in BUNDLED_NAMES {
        let design = bundled(name).expect("bundled design");
        let row = compare(&design.netlist, &design.stimuli, args.cycles);
        println!(
            "  {name:>9}: static {:>8.2} vs measured {:>8.2} toggles/cycle \
             (rel {:.4}); exact {}/{} nets; {:.1} ms static, {:.1} ms sim",
            row.static_total,
            row.measured_total,
            row.rel,
            row.exact_nets,
            row.nets,
            row.static_ms,
            row.sim_ms
        );
        if row.rel > TOTAL_TOL {
            failures.push(format!(
                "{name}: density off by {:.3} (> {TOTAL_TOL})",
                row.rel
            ));
        }
        if row.budget_blown {
            failures.push(format!("{name}: default node budget blown"));
        }
        design_rows.push((name, row));
    }

    println!("== mutant corpus ({} per design) ==", args.mutants);
    let mut mutant_rows = Vec::new();
    let mut within = 0usize;
    // The same corpus simbench's fuzz-smoke workload uses: the bundled
    // designs large enough for `mutate_netlist` to find mutation sites.
    for name in ["design1", "busnet", "alu_ctrl"] {
        let design = bundled(name).expect("bundled design");
        for m in 0..args.mutants {
            let mut rng = StdRng::seed_from_u64(design.netlist.fingerprint() ^ m as u64);
            let mutant = mutate_netlist(&design.netlist, &mut rng, 6);
            let row = compare(&mutant, &design.stimuli, args.cycles.min(5_000));
            if row.rel <= MUTANT_TOL {
                within += 1;
            }
            mutant_rows.push((format!("{name}#{m}"), row));
        }
    }
    let mutant_count = mutant_rows.len();
    let mean_rel = if mutant_count == 0 {
        0.0
    } else {
        mutant_rows.iter().map(|(_, r)| r.rel).sum::<f64>() / mutant_count as f64
    };
    let max_rel = mutant_rows
        .iter()
        .map(|(_, r)| r.rel)
        .fold(0.0f64, f64::max);
    println!(
        "  {within}/{mutant_count} mutants within {MUTANT_TOL}; \
         mean rel {mean_rel:.4}, max rel {max_rel:.4}"
    );

    if let Some(path) = &args.json {
        let doc = Json::obj([
            (
                "methodology",
                Json::str(
                    "static transition densities (analyze_activity_with_plan, default \
                     node budget) vs compiled-engine cycle simulation under each design's \
                     bundled stimulus plan; rel_err = |static - measured| / max(measured, \
                     0.05) over the design-wide density sum; designs gate at TOTAL_TOL, \
                     mutants (oiso-verify structural mutations, deterministic seeds) are \
                     tracked but not gated",
                ),
            ),
            ("cycles", Json::int(args.cycles as usize)),
            ("total_tol", Json::num(TOTAL_TOL)),
            ("mutant_tol", Json::num(MUTANT_TOL)),
            (
                "designs",
                Json::Arr(
                    design_rows
                        .iter()
                        .map(|(name, row)| row_json(name, row))
                        .collect(),
                ),
            ),
            (
                "mutants",
                Json::obj([
                    ("count", Json::int(mutant_count)),
                    ("within_tol", Json::int(within)),
                    ("mean_rel_err", Json::num(mean_rel)),
                    ("max_rel_err", Json::num(max_rel)),
                    (
                        "rows",
                        Json::Arr(
                            mutant_rows
                                .iter()
                                .map(|(name, row)| row_json(name, row))
                                .collect(),
                        ),
                    ),
                ]),
            ),
        ]);
        if let Err(e) = std::fs::write(path, doc.render()) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }

    if args.check {
        if !failures.is_empty() {
            for f in &failures {
                eprintln!("FAIL: {f}");
            }
            return ExitCode::FAILURE;
        }
        println!("check passed: all {} designs within {TOTAL_TOL}", design_rows.len());
    }

    ExitCode::SUCCESS
}
