//! Oracle test for `InputRecording`: a run whose Markov inputs replay
//! recorded streams must report exactly what `Testbench::from_plan`, which
//! draws every stream live, reports.
//!
//! Compared bit for bit: per-net toggles and ones (as static-probability
//! bit patterns), monitor counts and transitions, conditional toggles and
//! captured traces. The battery covers the bundled designs, the 8 `scaled`
//! structures and simbench's mutant corpus, at 1/63/64/65/2000/20000
//! cycles on both engines, each recording replayed twice.

use operand_isolation::boolex::{BoolExpr, Signal};
use operand_isolation::designs::random::{self, RandomParams};
use operand_isolation::designs::{bundled, BUNDLED_NAMES};
use operand_isolation::netlist::{CellKind, NetId, Netlist, NetlistBuilder};
use operand_isolation::sim::{
    EngineKind, InputRecording, SimError, SimReport, StimulusPlan, StimulusSpec, Testbench,
    RECORDING_BUDGET,
};
use operand_isolation::verify::mutate_netlist;
use rand::rngs::StdRng;
use rand::SeedableRng;

const CYCLES: [u64; 6] = [1, 63, 64, 65, 2000, 20_000];

/// Everything a run reports, floats as exact bit patterns.
#[derive(Debug, PartialEq)]
struct Observation {
    toggles: Vec<u64>,
    ones: Vec<Vec<u64>>,
    monitors: Vec<(u64, Option<u64>)>,
    cond_toggles: Vec<u64>,
    traces: Vec<Vec<u64>>,
}

/// The nets whose traces a run captures: every net on short runs, the
/// primary inputs (the replayed columns) on long ones.
fn captured(netlist: &Netlist, cycles: u64) -> Vec<NetId> {
    if cycles <= 2000 {
        netlist.nets().map(|(id, _)| id).collect()
    } else {
        netlist.primary_inputs().to_vec()
    }
}

/// What [`attach`] registered, to read back from the report.
struct Attached {
    monitors: Vec<String>,
    conds: Vec<String>,
    captures: Vec<NetId>,
}

/// Attaches one monitor per primary input bit 0, one over two inputs, a
/// conditional toggle monitor on up to 8 internal nets, and captures.
fn attach(netlist: &Netlist, tb: &mut Testbench<'_>, cycles: u64) -> Attached {
    let inputs: Vec<Signal> = netlist
        .primary_inputs()
        .iter()
        .map(|&pi| Signal::bit0(pi))
        .collect();
    let mut monitors = Vec::new();
    for (k, &s) in inputs.iter().enumerate() {
        let name = format!("pi{k}");
        tb.monitor(name.clone(), BoolExpr::var(s));
        monitors.push(name);
    }
    if let [a, b, ..] = inputs[..] {
        tb.monitor(
            "pair",
            BoolExpr::and(vec![BoolExpr::var(a), BoolExpr::var(b).not()]),
        );
        monitors.push("pair".to_string());
    }
    let mut conds = Vec::new();
    let internal = netlist
        .nets()
        .map(|(id, _)| id)
        .filter(|id| !netlist.net(*id).is_primary_input());
    for (k, net) in internal.take(8).enumerate() {
        let name = format!("cond{k}");
        let condition = inputs
            .get(k % inputs.len().max(1))
            .map_or(BoolExpr::TRUE, |&s| BoolExpr::var(s));
        tb.cond_toggle_monitor(name.clone(), net, condition);
        conds.push(name);
    }
    let captures = captured(netlist, cycles);
    for &net in &captures {
        tb.capture(net);
    }
    Attached {
        monitors,
        conds,
        captures,
    }
}

fn signature(netlist: &Netlist, report: &SimReport, attached: &Attached) -> Observation {
    Observation {
        toggles: netlist
            .nets()
            .map(|(id, _)| report.toggle_count(id))
            .collect(),
        ones: netlist
            .nets()
            .map(|(id, net)| {
                (0..net.width())
                    .map(|bit| report.static_prob(id, bit).to_bits())
                    .collect()
            })
            .collect(),
        monitors: attached
            .monitors
            .iter()
            .map(|m| {
                (
                    report.monitor_count(m).expect("monitor"),
                    report.monitor_transition_rate(m).map(f64::to_bits),
                )
            })
            .collect(),
        cond_toggles: attached
            .conds
            .iter()
            .map(|c| report.cond_toggle_count(c).expect("cond"))
            .collect(),
        traces: attached
            .captures
            .iter()
            .map(|&net| report.trace(net).expect("captured").to_vec())
            .collect(),
    }
}


fn reference(
    netlist: &Netlist,
    plan: &StimulusPlan,
    cycles: u64,
    engine: EngineKind,
) -> Observation {
    let mut tb = Testbench::from_plan(netlist, plan).expect("plan");
    let attached = attach(netlist, &mut tb, cycles);
    let report = tb.run_with_engine(cycles, engine).expect("run");
    signature(netlist, &report, &attached)
}

/// A run of `inputs`, recorded for `cycles` cycles.
fn replayed(
    inputs: &InputRecording<'_>,
    netlist: &Netlist,
    cycles: u64,
    engine: EngineKind,
) -> Observation {
    let mut attached = None;
    let report = inputs
        .run(netlist, engine, |tb| {
            attached = Some(attach(netlist, tb, cycles));
        })
        .expect("run");
    signature(netlist, &report, &attached.expect("attached"))
}

/// At every cycle count and engine, two runs of one recording equal
/// `from_plan`'s report. Returns the recording's bytes at each count.
fn assert_replay_matches(netlist: &Netlist, plan: &StimulusPlan, label: &str) -> Vec<u64> {
    CYCLES
        .iter()
        .map(|&cycles| {
            let inputs = InputRecording::record(netlist, plan, cycles).expect("plan");
            for engine in EngineKind::ALL {
                let want = reference(netlist, plan, cycles, engine);
                for run in 0..2 {
                    assert_eq!(
                        replayed(&inputs, netlist, cycles, engine),
                        want,
                        "{label}: run {run}, {cycles} cycles on {engine}"
                    );
                }
            }
            inputs.bytes()
        })
        .collect()
}

#[test]
fn bundled_designs_replay_bit_identically() {
    for &name in BUNDLED_NAMES {
        let design = bundled(name).expect("bundled design");
        let bytes = assert_replay_matches(&design.netlist, &design.stimuli, name);
        // Every bundled design drives a Markov input, and the budget holds
        // each at the benchmark's 20 000 cycles.
        assert!(bytes.iter().all(|&b| b > 0), "{name} records: {bytes:?}");
    }
}

#[test]
fn scaled_structures_replay_bit_identically() {
    for structure in [1000, 1003, 1006, 1010, 1011, 1014, 1024, 1037] {
        let design = random::build(&RandomParams {
            seed: structure,
            ops: 48,
            width: 16,
        });
        let bytes = assert_replay_matches(
            &design.netlist,
            &design.stimuli,
            &format!("scaled {structure}"),
        );
        // Recorded at the benchmark's 2000 cycles; at 20 000 cycles the 26
        // one-bit Markov inputs pass the budget and drive live.
        assert!(bytes[4] > 0, "scaled {structure} records at 2000 cycles");
        assert_eq!(bytes[5], 0, "scaled {structure} is live at 20 000 cycles");
    }
}

#[test]
fn simbench_mutants_replay_bit_identically() {
    for name in ["design1", "busnet", "alu_ctrl"] {
        let design = bundled(name).expect("bundled design");
        for m in 0..4u64 {
            let mut rng = StdRng::seed_from_u64(design.netlist.fingerprint() ^ m);
            let mutant = mutate_netlist(&design.netlist, &mut rng, 6);
            let plan = design.stimuli.clone().with_seed(0xF022 ^ m);
            assert_replay_matches(&mutant, &plan, &format!("{name} mutant {m}"));
        }
    }
}

/// `x` (`width` bits) and a 1-bit `g` gate a register through an adder.
fn gated(width: u8) -> Netlist {
    let mut b = NetlistBuilder::new("gated");
    let x = b.input("x", width);
    let y = b.input("y", width);
    let g = b.input("g", 1);
    let s = b.wire("s", width);
    let q = b.wire("q", width);
    b.cell("add", CellKind::Add, &[x, y], s).unwrap();
    b.cell("r", CellKind::Reg { has_enable: true }, &[s, g], q)
        .unwrap();
    b.mark_output(q);
    b.build().unwrap()
}

fn markov(p_one: f64, toggle_rate: f64) -> StimulusSpec {
    StimulusSpec::MarkovBits { p_one, toggle_rate }
}

fn gated_plan(seed: u64) -> StimulusPlan {
    StimulusPlan::new(seed)
        .drive("x", markov(0.4, 0.3))
        .drive("y", StimulusSpec::UniformRandom)
        .drive("g", markov(0.7, 0.2))
}

#[test]
fn a_recording_replays_on_netlists_with_the_same_inputs_only() {
    let engine = EngineKind::Compiled;
    let plan = gated_plan(1);
    let n8 = gated(8);
    let inputs = InputRecording::record(&n8, &plan, 2000).unwrap();
    assert_eq!(inputs.bytes(), 2 * 2000, "x and g, one byte a cycle each");
    // A transformed netlist with the same inputs replays the same streams.
    let mut grown = n8.clone();
    grown.add_wire("spare", 4).unwrap();
    // One whose `x` is wider draws other streams: it is driven live.
    let n12 = gated(12);
    for netlist in [&n8, &grown, &n12] {
        assert_eq!(
            replayed(&inputs, netlist, 2000, engine),
            reference(netlist, &plan, 2000, engine),
            "{} nets",
            netlist.nets().count()
        );
    }
}

#[test]
fn plans_past_the_budget_or_without_markov_inputs_record_nothing() {
    let uniform = StimulusPlan::new(3)
        .drive("x", StimulusSpec::UniformRandom)
        .drive("y", StimulusSpec::Counter { step: 3 })
        .drive("g", StimulusSpec::Trace(vec![0, 1, 1]));
    let n = gated(8);
    let inputs = InputRecording::record(&n, &uniform, 500).unwrap();
    assert_eq!(inputs.bytes(), 0);
    assert_eq!(
        replayed(&inputs, &n, 500, EngineKind::Compiled),
        reference(&n, &uniform, 500, EngineKind::Compiled)
    );

    // The budget is on the whole plan: x and g take 2 bytes a cycle.
    let at_budget = RECORDING_BUDGET / 2;
    let plan = gated_plan(2);
    assert_eq!(
        InputRecording::record(&n, &plan, at_budget).unwrap().bytes(),
        RECORDING_BUDGET
    );
    assert_eq!(
        InputRecording::record(&n, &plan, at_budget + 1).unwrap().bytes(),
        0
    );

    // 200 64-bit Markov inputs at 10^6 cycles (1.6 GB of streams) record
    // nothing; recording returns without drawing a stream.
    let mut b = NetlistBuilder::new("wide");
    let mut plan = StimulusPlan::new(4);
    for k in 0..200 {
        let x = b.input(format!("x{k}"), 64);
        b.mark_output(x);
        plan = plan.drive(format!("x{k}"), markov(0.5, 0.5));
    }
    let wide = b.build().unwrap();
    let inputs = InputRecording::record(&wide, &plan, 1_000_000).unwrap();
    assert_eq!(inputs.bytes(), 0);
    let short = InputRecording::record(&wide, &plan, 100).unwrap();
    assert!(short.bytes() > 0);
    assert_eq!(
        replayed(&short, &wide, 100, EngineKind::Compiled),
        reference(&wide, &plan, 100, EngineKind::Compiled)
    );
}

#[test]
fn a_duplicate_drive_keeps_last_wins() {
    let n = gated(8);
    let plans = [
        gated_plan(4).drive("x", markov(0.2, 0.1)),
        gated_plan(4).drive("x", StimulusSpec::UniformRandom),
        gated_plan(4).drive("y", markov(0.5, 0.5)),
        gated_plan(4)
            .drive("g", StimulusSpec::Constant(1))
            .drive("g", markov(0.3, 0.3)),
    ];
    for (i, plan) in plans.iter().enumerate() {
        let inputs = InputRecording::record(&n, plan, 700).unwrap();
        for engine in EngineKind::ALL {
            assert_eq!(
                replayed(&inputs, &n, 700, engine),
                reference(&n, plan, 700, engine),
                "plan {i} on {engine}"
            );
        }
    }
}

fn variant(e: &SimError) -> &'static str {
    match e {
        SimError::UnknownInput(_) => "unknown",
        SimError::NotAnInput(_) => "not-an-input",
        SimError::Stimulus(_) => "stimulus",
        _ => "other",
    }
}

#[test]
fn errors_match_from_plan() {
    let n = gated(8);
    let bad = [
        gated_plan(1).drive("nope", markov(0.5, 0.5)),
        gated_plan(1).drive("s", StimulusSpec::UniformRandom),
        gated_plan(1).drive("x", markov(0.1, 0.5)),
        gated_plan(1).drive("x", markov(1.5, 0.0)),
        gated_plan(1).drive("x", markov(0.5, -0.1)),
        // The first bad driver in plan order is the one reported.
        StimulusPlan::new(1)
            .drive("x", markov(0.1, 0.5))
            .drive("nope", StimulusSpec::UniformRandom),
        StimulusPlan::new(1)
            .drive("q", StimulusSpec::Constant(0))
            .drive("x", markov(2.0, 0.0)),
    ];
    for plan in &bad {
        let Err(want) = Testbench::from_plan(&n, plan) else {
            panic!("plan must fail")
        };
        let Err(got) = InputRecording::record(&n, plan, 100) else {
            panic!("recording must fail")
        };
        assert_eq!(variant(&got), variant(&want));
        assert_eq!(got.to_string(), want.to_string());
    }
    // A recording run on a netlist the plan does not fit fails as
    // `from_plan` does there: here `g` is not an input.
    let plan = gated_plan(1);
    let inputs = InputRecording::record(&n, &plan, 100).unwrap();
    let mut b = NetlistBuilder::new("no_g");
    let x = b.input("x", 8);
    let y = b.input("y", 8);
    let g = b.wire("g", 8);
    b.cell("add", CellKind::Add, &[x, y], g).unwrap();
    b.mark_output(g);
    let no_g = b.build().unwrap();
    let Err(want) = Testbench::from_plan(&no_g, &plan) else {
        panic!("plan must fail")
    };
    let Err(got) = inputs.run(&no_g, EngineKind::Compiled, |_| {}) else {
        panic!("recording run must fail")
    };
    assert_eq!(variant(&got), "not-an-input");
    assert_eq!(got.to_string(), want.to_string());
}

#[test]
fn threads_sharing_a_recording_match_serial_runs() {
    let plan = gated_plan(6);
    let netlists: Vec<Netlist> = (0..4)
        .map(|k| {
            let mut n = gated(8);
            n.add_wire(format!("spare{k}"), 4).unwrap();
            n
        })
        .collect();
    let want: Vec<Observation> = netlists
        .iter()
        .map(|n| reference(n, &plan, 1000, EngineKind::Compiled))
        .collect();
    let inputs = InputRecording::record(&netlists[0], &plan, 1000).unwrap();
    std::thread::scope(|scope| {
        for t in 0..2 {
            let (inputs, netlists, want) = (&inputs, &netlists, &want);
            scope.spawn(move || {
                for round in 0..6 {
                    let i = (t + 2 * round) % netlists.len();
                    let got = replayed(inputs, &netlists[i], 1000, EngineKind::Compiled);
                    assert_eq!(got, want[i], "thread {t}, netlist {i}");
                }
            });
        }
    });
}
