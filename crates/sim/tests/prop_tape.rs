//! Property tests for the compiled engine over random netlists with
//! register feedback loops: the tape's schedule is the condensation of the
//! cell graph in topological order, and the block-major engine matches the
//! scalar oracle on every net in every cycle.

use oiso_netlist::{CellId, CellKind, NetId, Netlist, NetlistBuilder};
use oiso_sim::engine::BLOCK;
use oiso_sim::{CompiledSim, Simulator};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Seed-driven random design in which every register closes a feedback
/// loop. Register outputs join the value pool before any op is built; at
/// the end each register's D is picked among the nets that depend on its
/// own output (through logic, latches and other registers), or is the
/// output itself. The ops cover arithmetic, shifts, 2- to 4-input
/// And/Or/Xor, 2- to 4-way muxes (wide selects clamp), concatenations of
/// slices, latches, comparisons and reductions feeding enables, constants
/// and feed-forward registers.
fn feedback_netlist(seed: u64, ops: usize, width: u8) -> Netlist {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = NetlistBuilder::new(format!("loop_{seed}"));
    // Per net: the loop registers it depends on, as a bit mask.
    let mut deps: HashMap<NetId, u32> = HashMap::new();
    let mut pool: Vec<NetId> = (0..3).map(|i| b.input(format!("in{i}"), width)).collect();
    let mut bits: Vec<NetId> = (0..2).map(|i| b.input(format!("ctl{i}"), 1)).collect();
    let loops: Vec<NetId> = (0..rng.gen_range(1..4))
        .map(|k| {
            let q = b.wire(format!("q{k}"), width);
            deps.insert(q, 1 << k);
            q
        })
        .collect();
    pool.extend(&loops);
    for op in 0..ops {
        let pick = |rng: &mut StdRng, from: &[NetId]| from[rng.gen_range(0..from.len())];
        let ins: Vec<NetId> = (0..rng.gen_range(2..5))
            .map(|_| pick(&mut rng, &pool))
            .collect();
        let en = pick(&mut rng, &bits);
        let (name, wire) = (format!("u{op}"), format!("w{op}"));
        let out = b.wire(&wire, width);
        let (a, c) = (ins[0], ins[1]);
        let mut reads = vec![a, c];
        let built = match rng.gen_range(0..12) {
            0 => b.cell(name, CellKind::Add, &[a, c], out),
            1 => b.cell(name, CellKind::Sub, &[a, c], out),
            2 => b.cell(name, CellKind::Mul, &[a, c], out),
            3 => {
                let kind = [CellKind::And, CellKind::Or, CellKind::Xor][rng.gen_range(0..3usize)];
                reads = ins.clone();
                b.cell(name, kind, &ins, out)
            }
            4 => {
                reads = vec![a];
                b.cell(name, CellKind::Not, &[a], out)
            }
            5 => {
                // A 1-bit select for two data inputs, else a full-width one
                // whose large values clamp to the last input.
                let sel = if ins.len() == 2 {
                    en
                } else {
                    pick(&mut rng, &pool)
                };
                let mut ports = vec![sel];
                ports.extend(&ins);
                reads = ports.clone();
                b.cell(name, CellKind::Mux, &ports, out)
            }
            6 => {
                reads = vec![a, en];
                b.cell(name, CellKind::Latch, &[a, en], out)
            }
            7 => {
                let k = rng.gen_range(1..width);
                let hi = b.wire(format!("{wire}_hi"), k);
                let lo = b.wire(format!("{wire}_lo"), width - k);
                b.cell(
                    format!("{name}_hi"),
                    CellKind::Slice { lo: 0, hi: k - 1 },
                    &[a],
                    hi,
                )
                .expect("slice is well-formed");
                b.cell(
                    format!("{name}_lo"),
                    CellKind::Slice {
                        lo: k,
                        hi: width - 1,
                    },
                    &[c],
                    lo,
                )
                .expect("slice is well-formed");
                b.cell(name, CellKind::Concat, &[hi, lo], out)
            }
            8 => {
                let kind = if rng.gen_bool(0.5) {
                    CellKind::Shl
                } else {
                    CellKind::Shr
                };
                b.cell(name, kind, &[a, c], out)
            }
            9 => {
                // A 1-bit net for later selects and enables, widened back
                // onto the pool.
                let bit = b.wire(format!("{wire}_bit"), 1);
                let (kind, ports) = match rng.gen_range(0..4) {
                    0 => (CellKind::Lt, vec![a, c]),
                    1 => (CellKind::Eq, vec![a, c]),
                    2 => (CellKind::RedOr, vec![a]),
                    _ => (CellKind::RedAnd, vec![a]),
                };
                b.cell(format!("{name}_bit"), kind, &ports, bit)
                    .expect("reduction is well-formed");
                deps.insert(
                    bit,
                    ports
                        .iter()
                        .map(|n| deps.get(n).copied().unwrap_or(0))
                        .fold(0, |x, y| x | y),
                );
                bits.push(bit);
                reads = vec![bit];
                b.cell(name, CellKind::Zext, &[bit], out)
            }
            10 => {
                reads = vec![a, en];
                b.cell(name, CellKind::Reg { has_enable: true }, &[a, en], out)
            }
            _ => {
                reads.clear();
                b.cell(name, CellKind::Const { value: rng.gen() }, &[], out)
            }
        };
        built.expect("generated op is well-formed");
        let dep = reads
            .iter()
            .map(|n| deps.get(n).copied().unwrap_or(0))
            .fold(0, |x, y| x | y);
        deps.insert(out, dep);
        pool.push(out);
    }
    for (k, &q) in loops.iter().enumerate() {
        let closing: Vec<NetId> = pool
            .iter()
            .copied()
            .filter(|n| deps.get(n).copied().unwrap_or(0) & (1 << k) != 0)
            .collect();
        let d = closing[rng.gen_range(0..closing.len())];
        let name = format!("r{k}");
        if rng.gen_bool(0.6) {
            let en = bits[rng.gen_range(0..bits.len())];
            b.cell(name, CellKind::Reg { has_enable: true }, &[d, en], q)
        } else {
            b.cell(name, CellKind::Reg { has_enable: false }, &[d], q)
        }
        .expect("loop register is well-formed");
        b.mark_output(q);
    }
    let last = *pool.last().expect("non-empty pool");
    b.mark_output(last);
    b.build().expect("generated netlist is well-formed")
}

/// Runs `cycles` cycles of seeded random inputs on both engines and
/// asserts that every net agrees in every cycle.
fn assert_engines_agree(netlist: &Netlist, cycles: u64, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let inputs = netlist.primary_inputs();
    let stimulus: Vec<Vec<u64>> = (0..cycles)
        .map(|_| inputs.iter().map(|_| rng.gen::<u64>()).collect())
        .collect();
    let mut scalar = Simulator::new(netlist);
    let mut compiled = CompiledSim::new(netlist);
    for (block, rows) in stimulus.chunks(BLOCK).enumerate() {
        for (k, &pi) in inputs.iter().enumerate() {
            let col: Vec<u64> = rows.iter().map(|row| row[k]).collect();
            compiled.set_input_column(pi, &col);
        }
        compiled.run_block(rows.len());
        for (t, row) in rows.iter().enumerate() {
            for (&pi, &v) in inputs.iter().zip(row) {
                scalar.set_input(pi, v);
            }
            scalar.settle();
            for (net, _) in netlist.nets() {
                assert_eq!(
                    scalar.value(net),
                    compiled.column(net)[t],
                    "net {} in cycle {} of a {}-cycle run",
                    netlist.net(net).name(),
                    block * BLOCK + t,
                    cycles
                );
            }
            scalar.clock_edge();
        }
    }
    assert_eq!(compiled.cycle(), cycles);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// The compiled engine equals the scalar oracle on every net, in every
    /// cycle, at run lengths around the 64-cycle block.
    #[test]
    fn feedback_loops_match_the_scalar_oracle(
        seed in 0u64..10_000,
        ops in 1usize..24,
        width in 4u8..12,
    ) {
        let netlist = feedback_netlist(seed, ops, width);
        for cycles in [1, 63, 64, 65, 200] {
            assert_engines_agree(&netlist, cycles, seed ^ cycles);
        }
    }

    /// The schedule is the condensation of the cell graph (an edge from
    /// each cell to every reader of its output, registers included) in
    /// topological order: every cell is in exactly one component, every
    /// component is strongly connected, and every edge between two
    /// components runs forward.
    #[test]
    fn schedule_is_a_topological_order_of_the_condensation(
        seed in 0u64..10_000,
        ops in 1usize..24,
        width in 4u8..12,
    ) {
        let netlist = feedback_netlist(seed, ops, width);
        let sim = CompiledSim::new(&netlist);
        let mut component = vec![usize::MAX; netlist.num_cells()];
        for (i, cells) in sim.schedule().enumerate() {
            for &cid in cells {
                prop_assert_eq!(component[cid.index()], usize::MAX, "a cell is scheduled twice");
                component[cid.index()] = i;
            }
        }
        prop_assert!(component.iter().all(|&c| c != usize::MAX), "every cell is scheduled");
        let readers = |cid: CellId| {
            netlist.net(netlist.cell(cid).output()).loads().iter().map(|&(load, _)| load)
        };
        for (cid, cell) in netlist.cells() {
            for load in readers(cid) {
                prop_assert!(
                    component[cid.index()] <= component[load.index()],
                    "{} is read by {}, which is scheduled before it",
                    cell.name(), netlist.cell(load).name()
                );
            }
        }
        // Strong connectivity: within its component, the first cell
        // reaches every cell and every cell reaches the first.
        for cells in sim.schedule().filter(|cells| cells.len() > 1) {
            let inside = |c: CellId| cells.contains(&c);
            let mut reached = vec![cells[0]];
            let mut frontier = vec![cells[0]];
            while let Some(c) = frontier.pop() {
                for load in readers(c).filter(|&l| inside(l)) {
                    if !reached.contains(&load) {
                        reached.push(load);
                        frontier.push(load);
                    }
                }
            }
            prop_assert_eq!(reached.len(), cells.len(), "component is reachable from its first cell");
            for &c in cells {
                let mut seen = vec![c];
                let mut frontier = vec![c];
                while let Some(x) = frontier.pop() {
                    for load in readers(x).filter(|&l| inside(l)) {
                        if !seen.contains(&load) {
                            seen.push(load);
                            frontier.push(load);
                        }
                    }
                }
                prop_assert!(seen.contains(&cells[0]), "every cell reaches the first one");
            }
            prop_assert!(
                cells.iter().any(|&c| netlist.cell(c).kind().is_register()),
                "a feedback group holds a register"
            );
        }
    }
}
