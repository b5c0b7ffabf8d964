//! Symbolic interpretation of a netlist: one BDD per net bit.
//!
//! The checker compares two netlists that share no [`NetId`] space, so BDD
//! variables cannot be netlist signals directly. Instead a [`VarTable`]
//! interns *named* bits — `(net name, bit)` of every primary input and
//! every stateful cell output — as synthetic [`Signal`]s shared by both
//! sides: the net `"x"` of the original and the net `"x"` of the
//! transformed design map to the *same* BDD variable, which is exactly
//! what makes the miter `out ⊕ out'` meaningful.
//!
//! Variables are ordered by interleaving the source bits LSB-first across
//! all sources. For ripple-carry arithmetic this keeps each sum bit's
//! cone contiguous in the order (`a0 b0 a1 b1 …`), which is linear-sized,
//! whereas an `a…a b…b` order is exponential for adders.
//!
//! Combinational cells are encoded by [`oiso_boolex::encode_cell`], the
//! one BDD meaning of each cell kind, which is tested bit for bit against
//! the word evaluator the simulators run — so the differential replay
//! backend and the BDD verdict cannot disagree on a cell's semantics.
//! Latches and cut points ([`Cuts`]) are this module's own.

use crate::check::CheckConfig;
use oiso_boolex::{encode_cell, Bdd, BddRef, Signal};
use oiso_netlist::{comb_topo_order, CellKind, NetId, Netlist};
use std::collections::{HashMap, HashSet};
use std::time::Instant;

/// What a BDD variable stands for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum VarKind {
    /// A primary-input bit (free every cycle).
    Input,
    /// A stateful-cell state bit (free by the inductive argument: both
    /// netlists reset to 0 and the checker proves next states equal, so an
    /// arbitrary shared current state is the induction hypothesis).
    State,
    /// One output bit of an abstracted arithmetic cell (a *cut point*,
    /// see [`Cuts`]): a free variable standing for whatever the cell
    /// computes. Never part of a counterexample — only the concrete phase
    /// extracts witnesses, and its table has no cut variables.
    Cut,
}

/// One interned BDD variable.
#[derive(Debug, Clone)]
pub(crate) struct VarEntry {
    /// Input, state or cut.
    pub(crate) kind: VarKind,
    /// The net name the bit belongs to (shared across both netlists).
    pub(crate) name: String,
    /// Bit index within the net.
    pub(crate) bit: u8,
}

/// Bidirectional `(name, bit) ↔ Signal` map shared by both netlists.
#[derive(Debug, Default)]
pub(crate) struct VarTable {
    entries: Vec<VarEntry>,
    index: HashMap<(String, u8), usize>,
}

/// The variable name of an abstracted cell's output; `side` is `"'"` for
/// the transformed netlist's fresh copies. The `#cut:` prefix cannot
/// collide with net names, which the text format restricts to identifier
/// characters.
fn cut_name(cell: &str, side: &str) -> String {
    format!("#cut:{cell}{side}")
}

impl VarTable {
    /// Builds the table for an original/transformed pair, interning every
    /// source bit of both netlists in the interleaved order (see module
    /// docs). Sources present in both (by name) share one variable.
    ///
    /// With `cuts`, the cut variables of every arithmetic cell of either
    /// side are interned too, *inside* the interleaved order rather than
    /// below it. A cut output bit then sits next to the input/state bits of
    /// the same significance — the operand-equality and `ite(eq, v, v')`
    /// structures of [`Cuts::Match`] stay linear instead of fanning every
    /// path through variables stranded at the bottom.
    pub(crate) fn for_pair(a: &Netlist, b: &Netlist, cuts: bool) -> VarTable {
        let mut sources: Vec<(VarKind, String, u8)> = Vec::new();
        let mut seen: HashSet<String> = HashSet::new();
        for nl in [a, b] {
            for &pi in nl.primary_inputs() {
                let net = nl.net(pi);
                if seen.insert(net.name().to_string()) {
                    sources.push((VarKind::Input, net.name().to_string(), net.width()));
                }
            }
            for (_, cell) in nl.cells() {
                if !cell.kind().is_stateful() {
                    continue;
                }
                let net = nl.net(cell.output());
                if seen.insert(net.name().to_string()) {
                    sources.push((VarKind::State, net.name().to_string(), net.width()));
                }
            }
        }
        if cuts {
            for (nl, side) in [(a, ""), (b, "'")] {
                for (_, cell) in nl.cells().filter(|(_, c)| c.kind().is_arithmetic()) {
                    let name = cut_name(cell.name(), side);
                    if seen.insert(name.clone()) {
                        sources.push((VarKind::Cut, name, nl.net(cell.output()).width()));
                    }
                }
            }
        }
        let mut table = VarTable::default();
        let max_width = sources.iter().map(|&(_, _, w)| w).max().unwrap_or(0);
        for bit in 0..max_width {
            for (kind, name, width) in &sources {
                if bit < *width {
                    table.index.insert((name.clone(), bit), table.entries.len());
                    table.entries.push(VarEntry {
                        kind: *kind,
                        name: name.clone(),
                        bit,
                    });
                }
            }
        }
        table
    }

    /// The literals of bits `0..width` of the source `name` — an input,
    /// a state element, or a cut.
    pub(crate) fn bits(&self, bdd: &mut Bdd, name: &str, width: u8) -> Vec<BddRef> {
        (0..width)
            .map(|b| {
                let &i = self
                    .index
                    .get(&(name.to_string(), b))
                    .expect("source bit missing from var table");
                bdd.literal(Signal::bit0(NetId::from_index(i)))
            })
            .collect()
    }

    /// Decodes a synthetic signal back to its named bit.
    pub(crate) fn decode(&self, sig: Signal) -> &VarEntry {
        &self.entries[sig.net.index()]
    }

    /// All variables in interleaved interning order — pass to
    /// [`Bdd::with_order`].
    pub(crate) fn order(&self) -> Vec<Signal> {
        (0..self.entries.len())
            .map(|i| Signal::bit0(NetId::from_index(i)))
            .collect()
    }
}

/// BDD node budget (or wall deadline) blown while building or comparing
/// functions.
///
/// Word-level multipliers have exponentially-sized BDDs in every variable
/// order; the checker aborts symbolically and falls back to differential
/// sampling instead of hanging. A wall deadline trips the same abort path
/// — both exhaustions degrade identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BudgetExceeded {
    /// Node count at the moment the budget check fired.
    pub(crate) nodes: usize,
}

/// Fails when either symbolic bound of `config` is blown: more allocated
/// BDD nodes than its budget, or its wall deadline has passed. Polled
/// cooperatively — per combinational cell, per multiplier partial-product
/// row, and per compared observable bit.
pub(crate) fn within_bound(bdd: &Bdd, config: &CheckConfig) -> Result<(), BudgetExceeded> {
    let late = |d: Instant| Instant::now() >= d;
    if bdd.num_nodes() > config.node_budget || config.deadline.is_some_and(late) {
        return Err(BudgetExceeded {
            nodes: bdd.num_nodes(),
        });
    }
    Ok(())
}

/// Per-net-bit BDDs of one netlist's settled (post-`settle()`) values.
#[derive(Debug)]
pub(crate) struct SymbolicNetlist {
    bits: Vec<Vec<BddRef>>,
}

impl SymbolicNetlist {
    /// The settled per-bit functions of `net` (LSB first).
    pub(crate) fn net_bits(&self, net: NetId) -> &[BddRef] {
        &self.bits[net.index()]
    }
}

/// One abstracted arithmetic cell: its kind, the settled functions of its
/// operand inputs (per port, per bit), and the free variables standing
/// for its output bits.
#[derive(Debug, Clone)]
struct CutCell {
    kind: CellKind,
    operands: Vec<Vec<BddRef>>,
    outputs: Vec<BddRef>,
}

/// The cut points [`Cuts::Mint`] minted while interpreting one netlist,
/// keyed by cell instance name.
#[derive(Debug, Default)]
pub(crate) struct CutBuild {
    cells: HashMap<String, CutCell>,
}

/// How [`build_symbolic`] treats arithmetic cells
/// ([`CellKind::is_arithmetic`]).
///
/// The cut modes are *sound for equivalence*: any pair of concrete
/// functions is an instance of the abstraction (a guard implies equal
/// operands, which force equal outputs; nothing else is assumed), so a
/// FALSE miter over a `Mint`/`Match` pair is FALSE for the real netlists. A
/// guard stronger than operand equality only leaves more outputs free. The
/// abstraction is incomplete — a non-FALSE miter may be an artifact, so
/// the checker falls back to an `Off` build rather than report a
/// counterexample.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Cuts<'a> {
    /// Evaluate every cell: the real functions.
    Off,
    /// The original netlist of a pair: each arithmetic cell's output bits
    /// become its cut variables, and the settled functions of its operands
    /// are recorded in the returned [`CutBuild`].
    Mint,
    /// The transformed netlist: a cell whose name, kind and port shape
    /// match a minted cut is modeled as `ite(eq, v, v')` per bit — `eq` its
    /// *guard*, `v` the minted variables, `v'` fresh ones — instead of its
    /// concrete function. Unmatched arithmetic cells are evaluated, since
    /// abstracting without a counterpart gains nothing.
    ///
    /// The guard conjoins one term per operand port. A port driven by an
    /// upstream matched cut `j` whose guard `eq_j` is not TRUE, where the
    /// minted port is `j`'s own variables `v_j`, contributes `eq_j`: the
    /// port then reads `ite(eq_j, v_j, v'_j)`, which equals `v_j` wherever
    /// `eq_j` holds. Every other port contributes bitwise equality of the
    /// two sides' functions. Reusing `eq_j` keeps a cascade's guards from
    /// compounding, as they do when each cell XORs its upstream `ite` words.
    Match(&'a CutBuild),
}

/// Interprets every net of `netlist` symbolically over `table`'s
/// variables, treating arithmetic cells as `cuts` says.
///
/// Primary inputs and register outputs become variables; latch outputs
/// become `ite(en, d, state)` — the settled value of a transparent latch;
/// combinational cells are evaluated in topological order with the exact
/// semantics of the concrete simulator. The returned [`CutBuild`] is empty
/// unless `cuts` is [`Cuts::Mint`].
///
/// # Errors
///
/// Returns [`BudgetExceeded`] at the first cooperative check that finds
/// `bound`'s node budget or deadline blown (see [`within_bound`]).
pub(crate) fn build_symbolic(
    bdd: &mut Bdd,
    table: &VarTable,
    netlist: &Netlist,
    bound: &CheckConfig,
    cuts: Cuts<'_>,
) -> Result<(SymbolicNetlist, CutBuild), BudgetExceeded> {
    let mut bits: Vec<Vec<BddRef>> = vec![Vec::new(); netlist.num_nets()];
    let mut minted = CutBuild::default();
    // Match side: the guard and minted variables of every matched cut
    // whose guard is not TRUE, by the cut's output net.
    let mut guards: HashMap<NetId, (BddRef, &[BddRef])> = HashMap::new();
    for (nid, net) in netlist.nets() {
        if net.is_primary_input() {
            bits[nid.index()] = table.bits(bdd, net.name(), net.width());
        }
    }
    for (_, cell) in netlist.cells() {
        if cell.kind().is_register() {
            let net = netlist.net(cell.output());
            bits[cell.output().index()] = table.bits(bdd, net.name(), net.width());
        }
    }
    for cid in comb_topo_order(netlist) {
        let cell = netlist.cell(cid);
        let kind = cell.kind();
        let out_net = netlist.net(cell.output());
        let w = out_net.width();
        let ins: Vec<Vec<BddRef>> = cell
            .inputs()
            .iter()
            .map(|&n| bits[n.index()].clone())
            .collect();
        let base = match cuts {
            Cuts::Match(built) if kind.is_arithmetic() => built.cells.get(cell.name()),
            _ => None,
        };
        let out = if kind == CellKind::Latch {
            // Settled latch value: transparent when en = 1, held otherwise.
            let state = table.bits(bdd, out_net.name(), w);
            let en = ins[1][0];
            (0..w as usize)
                .map(|i| bdd.ite(en, ins[0][i], state[i]))
                .collect()
        } else if matches!(cuts, Cuts::Mint) && kind.is_arithmetic() {
            let vars = table.bits(bdd, &cut_name(cell.name(), ""), w);
            let cut = CutCell {
                kind,
                operands: ins,
                outputs: vars.clone(),
            };
            minted.cells.insert(cell.name().to_string(), cut);
            vars
        } else if let Some(base) = base.filter(|base| {
            base.kind == kind
                && base.outputs.len() == w as usize
                && base.operands.len() == ins.len()
                && base
                    .operands
                    .iter()
                    .zip(&ins)
                    .all(|(a, b)| a.len() == b.len())
        }) {
            // Matched cut: functional consistency with the minted side.
            let mut eq = BddRef::TRUE;
            for ((base_in, this_in), net) in base.operands.iter().zip(&ins).zip(cell.inputs()) {
                match guards.get(net) {
                    Some(&(guard, vars)) if base_in.as_slice() == vars => eq = bdd.and(eq, guard),
                    _ => {
                        for (&a, &b) in base_in.iter().zip(this_in) {
                            let x = bdd.xor(a, b);
                            let same = bdd.not(x);
                            eq = bdd.and(eq, same);
                        }
                    }
                }
            }
            if eq == BddRef::TRUE {
                base.outputs.clone()
            } else {
                guards.insert(cell.output(), (eq, base.outputs.as_slice()));
                let fresh = table.bits(bdd, &cut_name(cell.name(), "'"), w);
                base.outputs
                    .iter()
                    .zip(fresh)
                    .map(|(&v, f)| bdd.ite(eq, v, f))
                    .collect()
            }
        } else {
            let ins: Vec<&[BddRef]> = ins.iter().map(Vec::as_slice).collect();
            encode_cell(bdd, kind, &ins, w as usize, |bdd| {
                within_bound(bdd, bound).is_err()
            })
            .ok_or(BudgetExceeded {
                nodes: bdd.num_nodes(),
            })?
        };
        bits[cell.output().index()] = out;
        within_bound(bdd, bound)?;
    }
    Ok((SymbolicNetlist { bits }, minted))
}

#[cfg(test)]
mod tests {
    use super::*;
    use oiso_netlist::NetlistBuilder;

    fn build(table: &VarTable, n: &Netlist, bound: &CheckConfig) -> Result<(), BudgetExceeded> {
        let mut bdd = Bdd::with_order(table.order());
        build_symbolic(&mut bdd, table, n, bound, Cuts::Off).map(|_| ())
    }

    #[test]
    fn budget_aborts_early() {
        // A 12-bit multiplier exhausts a tiny node budget.
        let mut b = NetlistBuilder::new("m");
        let x = b.input("x", 12);
        let y = b.input("y", 12);
        let p = b.wire("p", 12);
        b.cell("mul", CellKind::Mul, &[x, y], p).unwrap();
        b.mark_output(p);
        let n = b.build().unwrap();
        let table = VarTable::for_pair(&n, &n, false);
        let bound = CheckConfig {
            node_budget: 500,
            ..CheckConfig::default()
        };
        let err = build(&table, &n, &bound).unwrap_err();
        assert!(err.nodes > 500);
    }

    #[test]
    fn expired_deadline_aborts_like_node_exhaustion() {
        // A generous node budget but a deadline already in the past: the
        // first cooperative check trips and the caller gets the same
        // BudgetExceeded degradation signal.
        let mut b = NetlistBuilder::new("d");
        let x = b.input("x", 8);
        let y = b.input("y", 8);
        let s = b.wire("s", 8);
        b.cell("add", CellKind::Add, &[x, y], s).unwrap();
        b.mark_output(s);
        let n = b.build().unwrap();
        let table = VarTable::for_pair(&n, &n, false);
        let past = CheckConfig {
            node_budget: 1 << 24,
            deadline: Some(Instant::now() - std::time::Duration::from_secs(1)),
            ..CheckConfig::default()
        };
        let err = build(&table, &n, &past).unwrap_err();
        assert!(err.nodes <= 1 << 24);
        // And with no deadline the same build succeeds.
        let open = CheckConfig {
            deadline: None,
            ..past
        };
        assert!(build(&table, &n, &open).is_ok());
    }

    #[test]
    fn shared_names_share_variables() {
        let build = |name: &str| {
            let mut b = NetlistBuilder::new(name);
            let x = b.input("x", 4);
            let o = b.wire("o", 4);
            b.cell("bufc", CellKind::Buf, &[x], o).unwrap();
            b.mark_output(o);
            b.build().unwrap()
        };
        let a = build("a");
        let c = build("c");
        let table = VarTable::for_pair(&a, &c, false);
        let mut bdd = Bdd::with_order(table.order());
        let bound = CheckConfig::default();
        let (sa, _) = build_symbolic(&mut bdd, &table, &a, &bound, Cuts::Off).unwrap();
        let (sc, _) = build_symbolic(&mut bdd, &table, &c, &bound, Cuts::Off).unwrap();
        // Identical functions of the shared variable → identical BddRefs.
        assert_eq!(
            sa.net_bits(a.find_net("o").unwrap()),
            sc.net_bits(c.find_net("o").unwrap())
        );
    }
}
