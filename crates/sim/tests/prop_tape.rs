//! Property test for the compiled engine: over arbitrary generated
//! netlists, the op-tape schedule is a valid topological order of the
//! combinational DAG.

use oiso_netlist::{CellKind, NetId, Netlist, NetlistBuilder};
use oiso_sim::CompiledSim;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// Seed-driven small random design: same-width logic and arithmetic ops
/// over a growing value pool, muxes, latches, and enabled registers.
fn random_netlist(seed: u64, ops: usize, width: u8) -> Netlist {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = NetlistBuilder::new(format!("prop_{seed}"));
    let mut pool: Vec<NetId> = (0..3).map(|i| b.input(format!("in{i}"), width)).collect();
    let ctrl: Vec<NetId> = (0..3).map(|i| b.input(format!("ctl{i}"), 1)).collect();
    for op in 0..ops {
        let pick = |rng: &mut StdRng, pool: &[NetId]| pool[rng.gen_range(0..pool.len())];
        let a = pick(&mut rng, &pool);
        let c = pick(&mut rng, &pool);
        let out = b.wire(format!("op{op}"), width);
        match rng.gen_range(0..9) {
            0 => b.cell(format!("u{op}"), CellKind::Add, &[a, c], out),
            1 => b.cell(format!("u{op}"), CellKind::Sub, &[a, c], out),
            2 => b.cell(format!("u{op}"), CellKind::Mul, &[a, c], out),
            3 => b.cell(format!("u{op}"), CellKind::And, &[a, c], out),
            4 => b.cell(format!("u{op}"), CellKind::Or, &[a, c], out),
            5 => b.cell(format!("u{op}"), CellKind::Xor, &[a, c], out),
            6 => b.cell(format!("u{op}"), CellKind::Not, &[a], out),
            7 => {
                let sel = ctrl[rng.gen_range(0..ctrl.len())];
                b.cell(format!("u{op}"), CellKind::Mux, &[sel, a, c], out)
            }
            _ => {
                let en = ctrl[rng.gen_range(0..ctrl.len())];
                b.cell(format!("u{op}"), CellKind::Latch, &[a, en], out)
            }
        }
        .expect("generated op is well-formed");
        pool.push(out);
        if rng.gen_bool(0.3) {
            let en = ctrl[rng.gen_range(0..ctrl.len())];
            let q = b.wire(format!("q{op}"), width);
            b.cell(format!("r{op}"), CellKind::Reg { has_enable: true }, &[out, en], q)
                .expect("generated register is well-formed");
            b.mark_output(q);
            pool.push(q);
        }
    }
    let last = *pool.last().expect("non-empty pool");
    b.mark_output(last);
    b.build().expect("generated netlist is well-formed")
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// The compiled tape's schedule is a valid topological order: every
    /// combinational cell appears exactly once, after the producers of
    /// all its non-register inputs.
    #[test]
    fn tape_schedule_is_a_topological_order(
        seed in 0u64..10_000,
        ops in 1usize..10,
        width in 4u8..10,
    ) {
        let netlist = random_netlist(seed, ops, width);
        let sim = CompiledSim::new(&netlist);
        let schedule = sim.schedule();

        let comb: HashSet<_> = netlist
            .cells()
            .filter(|(_, cell)| !matches!(cell.kind(), CellKind::Reg { .. }))
            .map(|(id, _)| id)
            .collect();
        let scheduled: HashSet<_> = schedule.iter().copied().collect();
        prop_assert_eq!(schedule.len(), scheduled.len(), "no cell is scheduled twice");
        prop_assert_eq!(&scheduled, &comb, "every combinational cell is scheduled once");

        // A net is available if it is a primary input, a register output,
        // or the output of an already-replayed tape op.
        let mut available: HashSet<NetId> = netlist
            .nets()
            .filter(|(_, net)| net.is_primary_input())
            .map(|(id, _)| id)
            .collect();
        for (_, cell) in netlist.cells() {
            if matches!(cell.kind(), CellKind::Reg { .. }) {
                available.insert(cell.output());
            }
        }
        for &cid in schedule {
            for &input in netlist.cell(cid).inputs() {
                prop_assert!(
                    available.contains(&input),
                    "cell {} reads net {:?} before it is produced",
                    netlist.cell(cid).name(), input
                );
            }
            available.insert(netlist.cell(cid).output());
        }
    }
}
