//! `simbench` — wall-clock comparison of the two simulation engines.
//!
//! ```text
//! simbench [--cycles N] [--seeds R] [--mutants M] [--json PATH] [--check]
//! ```
//!
//! Two workloads, both measured per engine with identical stimulus plans,
//! one `Testbench` run per plan:
//!
//! * **sweep** — the EXP-SW grid workload: design1 simulated under every
//!   `default_grid()` point's stimulus plan, each replicated `--seeds`
//!   times with distinct master seeds. These are the single-plan
//!   `Testbench` runs the `repro --sweep` optimizer makes on every
//!   candidate evaluation.
//! * **fuzz-smoke** — a corpus of `oiso-verify` structural mutants of the
//!   bundled designs, 8 seed-variant plans each: the load a fuzz smoke
//!   run pays.
//!
//! Every engine's runs are checksummed (total toggle count over all nets
//! and plans) and the checksums are asserted equal — a simbench run is
//! also a coarse differential test. `--json PATH` writes the
//! measurements as `BENCH_sim.json`; `--check` exits nonzero if the
//! compiled engine is slower than the scalar oracle on the sweep
//! workload.

use oiso_bench::json::Json;
use oiso_bench::sweep::{default_grid, point_seed};
use oiso_bench::DEFAULT_CYCLES;
use oiso_core::EngineKind;
use oiso_designs::design1::{build, Design1Params};
use oiso_designs::bundled;
use oiso_netlist::Netlist;
use oiso_sim::{StimulusPlan, StimulusSpec, Testbench};
use oiso_verify::mutate_netlist;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::ExitCode;
use std::time::Instant;

struct Args {
    cycles: u64,
    seeds: u64,
    mutants: usize,
    json: Option<String>,
    check: bool,
    baseline_ms: Option<f64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        cycles: DEFAULT_CYCLES,
        seeds: 4,
        mutants: 4,
        json: None,
        check: false,
        baseline_ms: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--cycles" => {
                let v = it.next().ok_or("--cycles needs a value")?;
                args.cycles = v.parse().map_err(|e| format!("bad --cycles: {e}"))?;
            }
            "--seeds" => {
                let v = it.next().ok_or("--seeds needs a value")?;
                args.seeds = v.parse().map_err(|e| format!("bad --seeds: {e}"))?;
            }
            "--mutants" => {
                let v = it.next().ok_or("--mutants needs a value")?;
                args.mutants = v.parse().map_err(|e| format!("bad --mutants: {e}"))?;
            }
            "--json" => args.json = Some(it.next().ok_or("--json needs a path")?),
            "--check" => args.check = true,
            "--baseline-ms" => {
                let v = it.next().ok_or("--baseline-ms needs a value")?;
                args.baseline_ms =
                    Some(v.parse().map_err(|e| format!("bad --baseline-ms: {e}"))?);
            }
            "--help" | "-h" => {
                return Err("usage: simbench [--cycles N] [--seeds R] [--mutants M] \
                            [--json PATH] [--check] [--baseline-ms MS]"
                    .to_string());
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    if args.cycles == 0 {
        return Err("--cycles must be positive".to_string());
    }
    if args.seeds == 0 {
        return Err("--seeds must be positive".to_string());
    }
    Ok(args)
}

/// One workload: batches of stimulus plans over shared netlists.
struct Workload {
    label: &'static str,
    items: Vec<(Netlist, Vec<StimulusPlan>)>,
}

impl Workload {
    fn plans(&self) -> usize {
        self.items.iter().map(|(_, plans)| plans.len()).sum()
    }
}

/// The EXP-SW simulation load: one netlist, grid × seed-replica plans.
fn sweep_workload(seeds: u64) -> Workload {
    let design = build(&Design1Params::default());
    let mut plans = Vec::new();
    for (p_active, toggle_rate) in default_grid() {
        for rep in 0..seeds {
            let mut plan = design.stimuli.clone();
            plan.drivers.retain(|(name, _)| name != "act");
            plans.push(
                plan.drive(
                    "act",
                    StimulusSpec::MarkovBits {
                        p_one: p_active,
                        toggle_rate,
                    },
                )
                .with_seed(point_seed(design.stimuli.seed, p_active, toggle_rate) ^ rep),
            );
        }
    }
    Workload {
        label: "sweep",
        items: vec![(design.netlist, plans)],
    }
}

/// A mutant corpus: `mutants` structural mutants of each base design,
/// 8 seed-variant plans per mutant.
fn fuzz_workload(mutants: usize) -> Workload {
    let mut items = Vec::new();
    for name in ["design1", "busnet", "alu_ctrl"] {
        let design = bundled(name).expect("bundled design");
        for m in 0..mutants {
            let mut rng = StdRng::seed_from_u64(design.netlist.fingerprint() ^ m as u64);
            let mutant = mutate_netlist(&design.netlist, &mut rng, 6);
            let plans: Vec<StimulusPlan> = (0..8)
                .map(|s| design.stimuli.clone().with_seed(0xF022 ^ s))
                .collect();
            items.push((mutant, plans));
        }
    }
    Workload {
        label: "fuzz_smoke",
        items,
    }
}

/// Runs a workload on one engine; returns (elapsed ms, toggle checksum).
fn measure(workload: &Workload, cycles: u64, engine: EngineKind) -> (f64, u64) {
    let start = Instant::now();
    let mut checksum = 0u64;
    for (netlist, plans) in &workload.items {
        for plan in plans {
            let report = Testbench::from_plan(netlist, plan)
                .and_then(|mut tb| tb.run_with_engine(cycles, engine))
                .unwrap_or_else(|e| panic!("{} on {engine}: {e}", workload.label));
            for (id, _) in netlist.nets() {
                checksum = checksum.wrapping_add(report.toggle_count(id));
            }
        }
    }
    (start.elapsed().as_secs_f64() * 1e3, checksum)
}

/// Benchmarks all engines on one workload; asserts checksum equality.
/// Returns the per-engine timings and the shared toggle checksum.
fn bench(workload: &Workload, cycles: u64) -> (Vec<(EngineKind, f64)>, u64) {
    let mut rows = Vec::new();
    let mut checksum: Option<u64> = None;
    for engine in EngineKind::ALL {
        let (ms, sum) = measure(workload, cycles, engine);
        match checksum {
            None => checksum = Some(sum),
            Some(expect) => assert_eq!(
                expect, sum,
                "{}: {engine} checksum diverges from scalar",
                workload.label
            ),
        }
        println!(
            "  {:>10}: {:>9.1} ms  ({} plans x {} cycles)",
            engine.name(),
            ms,
            workload.plans(),
            cycles
        );
        rows.push((engine, ms));
    }
    (rows, checksum.expect("at least one engine"))
}

fn scalar_ms(rows: &[(EngineKind, f64)]) -> f64 {
    rows.iter()
        .find(|(e, _)| *e == EngineKind::Scalar)
        .map(|&(_, ms)| ms)
        .expect("scalar row")
}

fn workload_json(workload: &Workload, cycles: u64, rows: &[(EngineKind, f64)], checksum: u64) -> Json {
    let base = scalar_ms(rows);
    let mut pairs: Vec<(String, Json)> = vec![
        ("plans".to_string(), Json::int(workload.plans())),
        ("cycles".to_string(), Json::int(cycles as usize)),
        ("toggle_checksum".to_string(), Json::int(checksum as usize)),
    ];
    for &(engine, ms) in rows {
        pairs.push((format!("{}_ms", engine.name()), Json::num(ms)));
    }
    for &(engine, ms) in rows {
        if engine != EngineKind::Scalar {
            pairs.push((
                format!("{}_speedup", engine.name()),
                Json::num(base / ms.max(1e-9)),
            ));
        }
    }
    Json::Obj(pairs)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    let sweep = sweep_workload(args.seeds);
    println!("== sweep workload ==");
    let (sweep_rows, sweep_sum) = bench(&sweep, args.cycles);

    let fuzz = fuzz_workload(args.mutants);
    println!("== fuzz-smoke workload ==");
    let (fuzz_rows, fuzz_sum) = bench(&fuzz, args.cycles.min(1000));

    if let Some(path) = &args.json {
        let mut sweep_json = workload_json(&sweep, args.cycles, &sweep_rows, sweep_sum);
        if let (Some(base), Json::Obj(pairs)) = (args.baseline_ms, &mut sweep_json) {
            // Externally measured pre-engine baseline (the seed tree's
            // scalar Testbench on this exact workload), passed in because
            // the old code can't be rebuilt from this binary.
            pairs.push(("seed_baseline_ms".to_string(), Json::num(base)));
            for &(engine, ms) in &sweep_rows {
                pairs.push((
                    format!("{}_speedup_vs_seed", engine.name()),
                    Json::num(base / ms.max(1e-9)),
                ));
            }
        }
        let doc = Json::obj([
            (
                "methodology",
                Json::str(
                    "single timed pass per engine in one process, identical plans and \
                     cycle counts; checksums (total toggle count) asserted equal across \
                     engines before timings are reported; sweep = design1 x default_grid \
                     x seed replicas, fuzz_smoke = oiso-verify mutants x 8 seed plans; \
                     seed_baseline_ms, when present, is the same sweep workload timed \
                     through the seed tree's scalar Testbench (worktree build of the \
                     pre-engine commit, min of 3 runs, identical toggle checksum)",
                ),
            ),
            ("sweep", sweep_json),
            (
                "fuzz_smoke",
                workload_json(&fuzz, args.cycles.min(1000), &fuzz_rows, fuzz_sum),
            ),
        ]);
        if let Err(e) = std::fs::write(path, doc.render()) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }

    if args.check {
        let base = scalar_ms(&sweep_rows);
        for &(engine, ms) in &sweep_rows {
            if engine != EngineKind::Scalar && ms > base {
                eprintln!(
                    "FAIL: {} ({ms:.1} ms) is slower than scalar ({base:.1} ms) on the \
                     sweep workload",
                    engine.name()
                );
                return ExitCode::FAILURE;
            }
        }
        println!("check passed: compiled is no slower than scalar");
    }

    ExitCode::SUCCESS
}
