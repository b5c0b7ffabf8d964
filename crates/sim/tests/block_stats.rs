//! Oracle test for the testbench's block-sliced statistics loop.
//!
//! Every engine runs through the same `Testbench` loop, which counts
//! toggles and ones with the shared Harley–Seal kernel and evaluates
//! monitors on 64-cycle bit-plane words. A bug there would be identical on
//! all engines, so the cross-engine suite cannot see it. This test checks
//! the loop's reports against a per-cycle reference written here: the
//! scalar `Simulator`, `BoolExpr::eval` once per cycle, and naive per-bit
//! counting. Run lengths straddle the 64-cycle block and the 1000-cycle
//! counter flush.

use oiso_boolex::{BoolExpr, Signal};
use oiso_designs::{bundled, BUNDLED_NAMES};
use oiso_netlist::{NetId, Netlist};
use oiso_sim::{EngineKind, SimReport, Simulator, StimulusPlan, Testbench};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CYCLES: [u64; 8] = [1, 63, 64, 65, 999, 1000, 1001, 20_007];

/// A random expression over the design's signal bits, built from the raw
/// variants so that un-normalized shapes (constants inside products,
/// nested negations, one-factor sums) are covered too.
fn random_expr(rng: &mut StdRng, signals: &[Signal], depth: u32) -> BoolExpr {
    let pick = if depth == 0 {
        rng.gen_range(0..2)
    } else {
        rng.gen_range(0..6)
    };
    match pick {
        0 if rng.gen_bool(0.1) => BoolExpr::Const(rng.gen_bool(0.5)),
        0 | 1 => BoolExpr::Var(signals[rng.gen_range(0..signals.len())]),
        2 => BoolExpr::Not(Box::new(random_expr(rng, signals, depth - 1))),
        3 | 4 => {
            let n = rng.gen_range(1..4);
            BoolExpr::And(
                (0..n)
                    .map(|_| random_expr(rng, signals, depth - 1))
                    .collect(),
            )
        }
        _ => {
            let n = rng.gen_range(1..4);
            BoolExpr::Or(
                (0..n)
                    .map(|_| random_expr(rng, signals, depth - 1))
                    .collect(),
            )
        }
    }
}

/// Monitors and conditional-toggle monitors of one test case.
struct Probes {
    monitors: Vec<BoolExpr>,
    cond_toggles: Vec<(NetId, BoolExpr)>,
}

fn random_probes(netlist: &Netlist, seed: u64) -> Probes {
    let mut rng = StdRng::seed_from_u64(seed);
    let signals: Vec<Signal> = netlist
        .nets()
        .flat_map(|(id, net)| (0..net.width()).map(move |bit| Signal::new(id, bit)))
        .collect();
    let nets: Vec<NetId> = netlist.nets().map(|(id, _)| id).collect();
    Probes {
        monitors: (0..6).map(|_| random_expr(&mut rng, &signals, 3)).collect(),
        cond_toggles: (0..4)
            .map(|_| {
                let net = nets[rng.gen_range(0..nets.len())];
                (net, random_expr(&mut rng, &signals, 3))
            })
            .collect(),
    }
}

/// The reference statistics, counted cycle by cycle.
struct Expected {
    toggles: Vec<u64>,
    ones: Vec<Vec<u64>>,
    monitor_counts: Vec<u64>,
    monitor_transitions: Vec<u64>,
    cond_toggles: Vec<u64>,
}

fn reference(netlist: &Netlist, plan: &StimulusPlan, probes: &Probes, cycles: u64) -> Expected {
    let mut drivers: Vec<_> = plan
        .drivers
        .iter()
        .map(|(name, spec)| {
            let net = netlist.find_net(name).expect("plan names an input");
            let stim = spec
                .instantiate(netlist.net(net).width(), plan.seed_for(name))
                .expect("valid spec");
            (net, stim)
        })
        .collect();
    let mut sim = Simulator::new(netlist);
    let mut exp = Expected {
        toggles: vec![0; netlist.num_nets()],
        ones: netlist
            .nets()
            .map(|(_, n)| vec![0; n.width() as usize])
            .collect(),
        monitor_counts: vec![0; probes.monitors.len()],
        monitor_transitions: vec![0; probes.monitors.len()],
        cond_toggles: vec![0; probes.cond_toggles.len()],
    };
    let mut prev: Option<Vec<u64>> = None;
    let mut prev_fired: Option<Vec<bool>> = None;
    for cycle in 0..cycles {
        for (net, stim) in &mut drivers {
            sim.set_input(*net, stim.next_value(cycle));
        }
        sim.settle();
        let vals: Vec<u64> = netlist.nets().map(|(id, _)| sim.value(id)).collect();
        let assign = |s: Signal| (vals[s.net.index()] >> s.bit) & 1 == 1;
        for (id, net) in netlist.nets() {
            let i = id.index();
            for bit in 0..net.width() as usize {
                exp.ones[i][bit] += (vals[i] >> bit) & 1;
                if let Some(p) = &prev {
                    exp.toggles[i] += ((vals[i] ^ p[i]) >> bit) & 1;
                }
            }
        }
        let fired: Vec<bool> = probes.monitors.iter().map(|e| e.eval(&assign)).collect();
        for (i, &f) in fired.iter().enumerate() {
            exp.monitor_counts[i] += f as u64;
            if let Some(pf) = &prev_fired {
                exp.monitor_transitions[i] += (pf[i] != f) as u64;
            }
        }
        if let Some(p) = &prev {
            for (i, (net, cond)) in probes.cond_toggles.iter().enumerate() {
                if cond.eval(&assign) {
                    let x = vals[net.index()] ^ p[net.index()];
                    exp.cond_toggles[i] += (0..64).map(|b| (x >> b) & 1).sum::<u64>();
                }
            }
        }
        prev = Some(vals);
        prev_fired = Some(fired);
        sim.clock_edge();
    }
    exp
}

fn check(netlist: &Netlist, report: &SimReport, exp: &Expected, cycles: u64, label: &str) {
    assert_eq!(report.cycles(), cycles, "{label}");
    for (id, net) in netlist.nets() {
        let i = id.index();
        assert_eq!(
            report.toggle_count(id),
            exp.toggles[i],
            "{label}: toggles of {}",
            net.name()
        );
        for bit in 0..net.width() {
            assert_eq!(
                report.static_prob(id, bit).to_bits(),
                (exp.ones[i][bit as usize] as f64 / cycles as f64).to_bits(),
                "{label}: ones of {}[{bit}]",
                net.name()
            );
        }
    }
    for (i, &count) in exp.monitor_counts.iter().enumerate() {
        let name = format!("m{i}");
        assert_eq!(
            report.monitor_count(&name),
            Some(count),
            "{label}: count of {name}"
        );
        let rate = (cycles > 1)
            .then(|| (exp.monitor_transitions[i] as f64 / (cycles - 1) as f64).to_bits());
        assert_eq!(
            report.monitor_transition_rate(&name).map(f64::to_bits),
            rate,
            "{label}: transitions of {name}"
        );
    }
    for (i, &count) in exp.cond_toggles.iter().enumerate() {
        let name = format!("c{i}");
        assert_eq!(
            report.cond_toggle_count(&name),
            Some(count),
            "{label}: {name}"
        );
    }
}

fn run_case(netlist: &Netlist, plan: &StimulusPlan, probes: &Probes, cycles: u64, label: &str) {
    let exp = reference(netlist, plan, probes, cycles);
    for engine in EngineKind::ALL {
        let mut tb = Testbench::from_plan(netlist, plan).expect(label);
        for (i, expr) in probes.monitors.iter().enumerate() {
            tb.monitor(format!("m{i}"), expr.clone());
        }
        for (i, (net, cond)) in probes.cond_toggles.iter().enumerate() {
            tb.cond_toggle_monitor(format!("c{i}"), *net, cond.clone());
        }
        let report = tb.run_with_engine(cycles, engine).expect(label);
        check(netlist, &report, &exp, cycles, &format!("{label}/{engine}"));
    }
}

#[test]
fn bundled_designs_match_the_per_cycle_reference_across_block_boundaries() {
    for (d, name) in BUNDLED_NAMES.iter().enumerate() {
        let design = bundled(name).expect("bundled design");
        for (k, &cycles) in CYCLES.iter().enumerate() {
            let probes = random_probes(&design.netlist, (d * 100 + k) as u64);
            let plan = design.stimuli.clone().with_seed(d as u64 * 7 + k as u64);
            run_case(
                &design.netlist,
                &plan,
                &probes,
                cycles,
                &format!("{name}@{cycles}"),
            );
        }
    }
}

#[test]
fn constant_and_single_signal_monitors_match_the_reference() {
    // Always-true and always-false monitors pin the block masks: a true
    // monitor counts every cycle and never transitions; conditional
    // toggles under a true condition equal the net's toggle count.
    let design = bundled("figure1").expect("bundled design");
    let n = &design.netlist;
    let (net, _) = n.nets().next().expect("a net");
    let probes = Probes {
        monitors: vec![
            BoolExpr::Const(true),
            BoolExpr::Const(false),
            BoolExpr::Var(Signal::bit0(net)),
        ],
        cond_toggles: vec![(net, BoolExpr::Const(true)), (net, BoolExpr::Const(false))],
    };
    for cycles in CYCLES {
        run_case(
            n,
            &design.stimuli,
            &probes,
            cycles,
            &format!("constants@{cycles}"),
        );
    }
}
