//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! repro [--table1] [--table2] [--figure1] [--sweep] [--styles]
//!       [--baselines] [--ablation] [--all] [--cycles N] [--quick]
//!       [--threads N] [--engine scalar|compiled]
//! ```
//!
//! With no selection flags, `--all` is assumed. `--quick` shrinks the
//! simulation length for smoke runs. `--threads N` fans the independent
//! runs of each experiment (sweep grid points, table styles, ablation
//! arms) across `N` workers — `0` means all cores — with **bit-identical
//! output at every setting**; the default of 1 is the plain serial path.
//! `--engine` selects the simulation engine; both engines produce
//! bit-identical results, so this only changes wall-clock time.

use oiso_bench::json::{self, Json};
use oiso_bench::{ablation, baselines, styles, sweep, tables, DEFAULT_CYCLES};
use oiso_core::{derive_activation_functions, ActivationConfig, EngineKind, IsolationConfig};
use oiso_designs::{alu_ctrl, busnet, design1, design2, figure1, fir, soc};
use std::process::ExitCode;

struct Args {
    table1: bool,
    table2: bool,
    figure1: bool,
    sweep: bool,
    styles: bool,
    baselines: bool,
    ablation: bool,
    extras: bool,
    cycles: u64,
    threads: usize,
    engine: EngineKind,
    json: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        table1: false,
        table2: false,
        figure1: false,
        sweep: false,
        styles: false,
        baselines: false,
        ablation: false,
        extras: false,
        cycles: DEFAULT_CYCLES,
        threads: 1,
        engine: EngineKind::default(),
        json: None,
    };
    let mut any = false;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--table1" => args.table1 = true,
            "--table2" => args.table2 = true,
            "--figure1" => args.figure1 = true,
            "--sweep" => args.sweep = true,
            "--styles" => args.styles = true,
            "--baselines" => args.baselines = true,
            "--ablation" => args.ablation = true,
            "--extras" => args.extras = true,
            "--all" => {
                args.table1 = true;
                args.table2 = true;
                args.figure1 = true;
                args.sweep = true;
                args.styles = true;
                args.baselines = true;
                args.ablation = true;
                args.extras = true;
            }
            "--quick" => args.cycles = 500,
            "--cycles" => {
                let v = it.next().ok_or("--cycles needs a value")?;
                args.cycles = v.parse().map_err(|e| format!("bad --cycles: {e}"))?;
            }
            "--threads" => {
                let v = it.next().ok_or("--threads needs a value")?;
                args.threads = v.parse().map_err(|e| format!("bad --threads: {e}"))?;
            }
            "--engine" => {
                let v = it.next().ok_or("--engine needs a value")?;
                args.engine = v.parse().map_err(|e| format!("bad --engine: {e}"))?;
            }
            "--json" => {
                args.json = Some(it.next().ok_or("--json needs a path")?);
            }
            "--help" | "-h" => {
                return Err("usage: repro [--table1|--table2|--figure1|--sweep|--styles|\
                            --baselines|--ablation|--extras|--all] [--cycles N] [--quick] \
                            [--threads N] [--engine scalar|compiled]  (N=0 means all \
                            cores; results are identical at every thread count and engine)"
                    .to_string());
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
        if !matches!(
            arg.as_str(),
            "--cycles" | "--quick" | "--json" | "--threads" | "--engine"
        ) {
            any = true;
        }
    }
    if !any {
        args.table1 = true;
        args.table2 = true;
        args.figure1 = true;
        args.sweep = true;
        args.styles = true;
        args.baselines = true;
        args.ablation = true;
        args.extras = true;
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let config = IsolationConfig::default()
        .with_sim_cycles(args.cycles)
        .with_threads(args.threads)
        .with_engine(args.engine);
    let mut json_out: Vec<(String, Json)> = Vec::new();

    if args.figure1 {
        println!("== EXP-F1: Figure 1/2 worked example (Section 3) ==");
        let d = figure1::build();
        let acts = derive_activation_functions(&d.netlist, &ActivationConfig::default());
        for name in ["a0", "a1"] {
            match d.netlist.find_cell(name).and_then(|cell| acts.get(&cell)) {
                // Render with net names for readability.
                Some(act) => println!("  AS_{name} = {}", pretty(&d.netlist, act)),
                None => eprintln!("figure1 failed: no activation function for adder `{name}`"),
            }
        }
        println!("  (paper: AS_a0 = G0; AS_a1 = !S2&G1 + !S0&S1&G0)\n");
    }

    if args.table1 {
        println!("== EXP-T1: Table 1 (design1, representative stimuli) ==");
        let d = design1::build(&design1::Design1Params::default());
        match tables::paper_table(&d, &config) {
            Ok(rows) => {
                println!("{}", tables::render("design1", &rows));
                json_out.push(("table1".into(), json::table_to_json("design1", &rows)));
            }
            Err(e) => eprintln!("table1 failed: {e}"),
        }
    }

    if args.table2 {
        println!("== EXP-T2: Table 2 (design2, FSM-driven activation) ==");
        let d = design2::build(&design2::Design2Params::default());
        match tables::paper_table(&d, &config) {
            Ok(rows) => {
                println!("{}", tables::render("design2", &rows));
                json_out.push(("table2".into(), json::table_to_json("design2", &rows)));
            }
            Err(e) => eprintln!("table2 failed: {e}"),
        }
    }

    if args.sweep {
        println!("== EXP-SW: activation-statistics sweep (Section 6) ==");
        match sweep::activation_sweep(&sweep::default_grid(), &config) {
            Ok(points) => {
                println!("{}", sweep::render(&points));
                json_out.push(("sweep".into(), json::sweep_to_json(&points)));
            }
            Err(e) => eprintln!("sweep failed: {e}"),
        }
    }

    if args.styles {
        println!("== EXP-STYLE: gate vs latch isolation vs idle-run length ==");
        match styles::idle_length_study(&[1.5, 3.0, 6.0, 12.0, 24.0], &config) {
            Ok(points) => {
                println!("{}", styles::render(&points));
                json_out.push(("styles".into(), json::styles_to_json(&points)));
            }
            Err(e) => eprintln!("styles failed: {e}"),
        }
    }

    if args.baselines {
        println!("== EXP-BASE: related-work baselines (Section 2) ==");
        for (name, design) in [
            ("busnet", busnet::build(&busnet::BusParams::default())),
            ("design1", design1::build(&design1::Design1Params::default())),
        ] {
            match baselines::compare(&design, &config) {
                Ok(rows) => {
                    println!("{}", baselines::render(name, &rows));
                    json_out.push((
                        format!("baselines_{name}"),
                        json::baselines_to_json(name, &rows),
                    ));
                }
                Err(e) => eprintln!("baselines on {name} failed: {e}"),
            }
        }
    }

    if args.ablation {
        println!("== EXP-ABL: ablations ==");
        let d = design1::build(&design1::Design1Params {
            act_p_one: 0.25,
            act_toggle_rate: 0.2,
            ..Default::default()
        });
        let result = (|| -> Result<String, oiso_core::IsolationError> {
            let fid = ablation::estimator_fidelity(&d, &config)?;
            let sec = ablation::secondary_savings(&d, &config)?;
            let w = ablation::weight_sweep(&d, &config, &[0.0, 0.1, 1.0, 10.0, 50.0])?;
            let sg = ablation::slack_guard(&d, &config, 230.0)?;
            let la = ablation::register_lookahead(&config)?;
            let fdc = ablation::fsm_dont_cares(&design2::build(
                &design2::Design2Params::default(),
            ));
            Ok(ablation::render(&fid, &sec, &w, &sg, &la, &fdc))
        })();
        match result {
            Ok(text) => println!("{text}"),
            Err(e) => eprintln!("ablation failed: {e}"),
        }
    }

    if args.extras {
        println!("== extra designs (motivating cases of Section 1) ==");
        for (name, design) in [
            ("alu_ctrl", alu_ctrl::build(&alu_ctrl::AluParams::default())),
            ("fir", fir::build(&fir::FirParams::default())),
            ("soc", soc::build(&soc::SocParams::default())),
        ] {
            match tables::paper_table(&design, &config) {
                Ok(rows) => {
                    println!("{}", tables::render(name, &rows));
                    json_out.push((
                        format!("extra_{name}"),
                        json::table_to_json(name, &rows),
                    ));
                }
                Err(e) => eprintln!("{name} failed: {e}"),
            }
        }
    }

    if let Some(path) = &args.json {
        let doc = Json::Obj(json_out);
        if let Err(e) = std::fs::write(path, doc.render()) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }

    ExitCode::SUCCESS
}

/// Renders an activation function with primary-input names instead of net
/// ids.
fn pretty(netlist: &oiso_netlist::Netlist, expr: &oiso_boolex::BoolExpr) -> String {
    let mut text = expr.to_string();
    // Longest names first so "n10" is not clobbered by "n1".
    let mut nets: Vec<_> = netlist.nets().collect();
    nets.sort_by_key(|(id, _)| std::cmp::Reverse(id.index()));
    for (id, net) in nets {
        text = text.replace(&id.to_string(), net.name());
    }
    text
}
