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
//! Latches and cut points are this module's own.

use oiso_boolex::{encode_cell, Bdd, BddRef, Signal};
use oiso_netlist::{comb_topo_order, CellKind, NetId, Netlist};
use std::collections::HashMap;
use std::time::Instant;

/// What a BDD variable stands for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarKind {
    /// A primary-input bit (free every cycle).
    Input,
    /// A stateful-cell state bit (free by the inductive argument: both
    /// netlists reset to 0 and the checker proves next states equal, so an
    /// arbitrary shared current state is the induction hypothesis).
    State,
    /// One output bit of an abstracted arithmetic cell (a *cut point*,
    /// see [`build_symbolic_with_cuts`]): a free variable standing for
    /// whatever the cell computes. Never part of a counterexample — the
    /// checker re-runs concretely before extracting witnesses.
    Cut,
}

/// One interned BDD variable.
#[derive(Debug, Clone)]
pub struct VarEntry {
    /// Input or state.
    pub kind: VarKind,
    /// The net name the bit belongs to (shared across both netlists).
    pub name: String,
    /// Bit index within the net.
    pub bit: u8,
}

/// Bidirectional `(name, bit) ↔ Signal` map shared by both netlists.
#[derive(Debug, Default)]
pub struct VarTable {
    entries: Vec<VarEntry>,
    index: HashMap<(String, u8), usize>,
}

impl VarTable {
    /// Builds the table for an original/transformed pair, interning every
    /// source bit of both netlists in the interleaved order (see module
    /// docs). Sources present in both (by name) share one variable.
    pub fn for_pair(a: &Netlist, b: &Netlist) -> VarTable {
        Self::build(a, b, false)
    }

    /// [`VarTable::for_pair`] plus pre-interned cut variables for every
    /// arithmetic cell of either side, placed *inside* the interleaved
    /// order rather than appended below it. A cut output bit then sits
    /// next to the input/state bits of the same significance — the
    /// operand-equality and `ite(eq, v, v')` structures the abstraction
    /// builds (see [`build_symbolic_with_cuts`]) stay linear instead of
    /// fanning every path through variables stranded at the bottom.
    pub fn for_pair_with_cuts(a: &Netlist, b: &Netlist) -> VarTable {
        Self::build(a, b, true)
    }

    fn build(a: &Netlist, b: &Netlist, cuts: bool) -> VarTable {
        let mut sources: Vec<(VarKind, String, u8)> = Vec::new();
        let mut seen: HashMap<String, ()> = HashMap::new();
        for nl in [a, b] {
            for &pi in nl.primary_inputs() {
                let net = nl.net(pi);
                if seen.insert(net.name().to_string(), ()).is_none() {
                    sources.push((VarKind::Input, net.name().to_string(), net.width()));
                }
            }
            for (_, cell) in nl.cells() {
                if !cell.kind().is_stateful() {
                    continue;
                }
                let net = nl.net(cell.output());
                if seen.insert(net.name().to_string(), ()).is_none() {
                    sources.push((VarKind::State, net.name().to_string(), net.width()));
                }
            }
        }
        if cuts {
            for (nl, side) in [(a, ""), (b, "'")] {
                for (_, cell) in nl.cells() {
                    if !cell.kind().is_arithmetic() {
                        continue;
                    }
                    let name = format!("#cut:{}{side}", cell.name());
                    if seen.insert(name.clone(), ()).is_none() {
                        let w = nl.net(cell.output()).width();
                        sources.push((VarKind::Cut, name, w));
                    }
                }
            }
        }
        let mut table = VarTable::default();
        let max_width = sources.iter().map(|&(_, _, w)| w).max().unwrap_or(0);
        for bit in 0..max_width {
            for (kind, name, width) in &sources {
                if bit < *width {
                    table.intern(*kind, name, bit);
                }
            }
        }
        table
    }

    fn intern(&mut self, kind: VarKind, name: &str, bit: u8) -> Signal {
        if let Some(&i) = self.index.get(&(name.to_string(), bit)) {
            return Signal::bit0(NetId::from_index(i));
        }
        let i = self.entries.len();
        self.entries.push(VarEntry {
            kind,
            name: name.to_string(),
            bit,
        });
        self.index.insert((name.to_string(), bit), i);
        Signal::bit0(NetId::from_index(i))
    }

    /// Interns a fresh cut variable for bit `bit` of the abstracted cell
    /// `cell` (the `side` suffix distinguishes the transformed netlist's
    /// fresh copies). The `#cut:` prefix cannot collide with net names,
    /// which the text format restricts to identifier characters.
    pub fn intern_cut(&mut self, cell: &str, side: &str, bit: u8) -> Signal {
        self.intern(VarKind::Cut, &format!("#cut:{cell}{side}"), bit)
    }

    /// The synthetic signal of `(name, bit)`, if interned.
    pub fn signal(&self, name: &str, bit: u8) -> Option<Signal> {
        self.index
            .get(&(name.to_string(), bit))
            .map(|&i| Signal::bit0(NetId::from_index(i)))
    }

    /// Decodes a synthetic signal back to its named bit.
    pub fn decode(&self, sig: Signal) -> &VarEntry {
        &self.entries[sig.net.index()]
    }

    /// All variables in interleaved interning order — pass to
    /// [`Bdd::with_order`].
    pub fn order(&self) -> Vec<Signal> {
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
pub struct BudgetExceeded {
    /// Node count at the moment the budget check fired.
    pub nodes: usize,
}

/// True when either symbolic bound is blown: too many allocated BDD nodes, or
/// the wall deadline has passed. Checked cooperatively — per combinational
/// cell and per multiplier partial-product row.
fn bound_hit(bdd: &Bdd, node_budget: usize, deadline: Option<Instant>) -> bool {
    bdd.num_nodes() > node_budget || deadline.is_some_and(|d| Instant::now() >= d)
}

/// Per-net-bit BDDs of one netlist's settled (post-`settle()`) values.
#[derive(Debug)]
pub struct SymbolicNetlist {
    bits: Vec<Vec<BddRef>>,
}

impl SymbolicNetlist {
    /// The settled per-bit functions of `net` (LSB first).
    pub fn net_bits(&self, net: NetId) -> &[BddRef] {
        &self.bits[net.index()]
    }
}

/// Interprets every net of `netlist` symbolically over `table`'s variables.
///
/// Primary inputs and register outputs become variables; latch outputs
/// become `ite(en, d, state)` — the settled value of a transparent latch;
/// combinational cells are evaluated in topological order with the exact
/// semantics of the concrete simulator.
///
/// # Errors
///
/// Returns [`BudgetExceeded`] as soon as the manager holds more than
/// `node_budget` nodes.
pub fn build_symbolic(
    bdd: &mut Bdd,
    table: &VarTable,
    netlist: &Netlist,
    node_budget: usize,
) -> Result<SymbolicNetlist, BudgetExceeded> {
    build_symbolic_bounded(bdd, table, netlist, node_budget, None)
}

/// [`build_symbolic`] with an additional cooperative wall deadline: once
/// `deadline` passes, the build aborts at the next per-cell (or
/// per-multiplier-row) check with [`BudgetExceeded`], so a run budget
/// turns a pathological BDD build into the same clean fall-back-to-
/// sampling signal as node exhaustion.
///
/// # Errors
///
/// Returns [`BudgetExceeded`] when the manager holds more than
/// `node_budget` nodes or `deadline` has passed.
pub fn build_symbolic_bounded(
    bdd: &mut Bdd,
    table: &VarTable,
    netlist: &Netlist,
    node_budget: usize,
    deadline: Option<Instant>,
) -> Result<SymbolicNetlist, BudgetExceeded> {
    let mut bits: Vec<Vec<BddRef>> = vec![Vec::new(); netlist.num_nets()];
    let source_bits = |bdd: &mut Bdd, name: &str, width: u8| -> Vec<BddRef> {
        (0..width)
            .map(|b| {
                let sig = table
                    .signal(name, b)
                    .expect("source bit missing from var table");
                bdd.literal(sig)
            })
            .collect()
    };
    for (nid, net) in netlist.nets() {
        if net.is_primary_input() {
            bits[nid.index()] = source_bits(bdd, net.name(), net.width());
        }
    }
    for (_, cell) in netlist.cells() {
        if cell.kind().is_register() {
            let net = netlist.net(cell.output());
            bits[cell.output().index()] = source_bits(bdd, net.name(), net.width());
        }
    }
    for cid in comb_topo_order(netlist) {
        let cell = netlist.cell(cid);
        let out_net = netlist.net(cell.output());
        let ins: Vec<Vec<BddRef>> = cell
            .inputs()
            .iter()
            .map(|&n| bits[n.index()].clone())
            .collect();
        let out = if cell.kind() == CellKind::Latch {
            // Settled latch value: transparent when en = 1, held otherwise.
            let state = source_bits(bdd, out_net.name(), out_net.width());
            let en = ins[1][0];
            (0..out_net.width() as usize)
                .map(|i| bdd.ite(en, ins[0][i], state[i]))
                .collect()
        } else {
            encode(bdd, cell.kind(), &ins, out_net.width(), node_budget, deadline)?
        };
        bits[cell.output().index()] = out;
        if bound_hit(bdd, node_budget, deadline) {
            return Err(BudgetExceeded {
                nodes: bdd.num_nodes(),
            });
        }
    }
    Ok(SymbolicNetlist { bits })
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

/// The cut points minted while symbolically interpreting one netlist with
/// [`build_symbolic_with_cuts`], keyed by cell instance name.
///
/// Passed back in as the `baseline` when building the *other* netlist of
/// an equivalence pair: a cell matched by name, kind, and port shape is
/// then modeled as `ite(guard, baseline-vars, fresh-vars)`, the guard
/// implying equal operands, instead of its concrete function — functional
/// consistency without ever constructing the (for multipliers,
/// exponential) function itself.
#[derive(Debug, Default)]
pub struct CutBuild {
    cells: HashMap<String, CutCell>,
}

impl CutBuild {
    /// Number of cut cells minted.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True when no cell was abstracted (the build degenerated to
    /// [`build_symbolic_bounded`]).
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }
}

/// [`build_symbolic_bounded`] with *arithmetic cut points*: every
/// arithmetic cell ([`CellKind::is_arithmetic`]) is abstracted instead of
/// evaluated.
///
/// With `baseline = None` (the original netlist of a pair), each
/// arithmetic cell's output bits become fresh free variables, and the
/// settled functions of its operands are recorded in the returned
/// [`CutBuild`]. With `baseline = Some` (the transformed netlist), a cell
/// whose name, kind, and port shape match a recorded cut is modeled as
/// `ite(eq, v, v')` per bit — `eq` its *guard*, `v` the baseline's
/// variables, `v'` fresh ones. Unmatched arithmetic cells are evaluated
/// concretely.
///
/// The guard conjoins one term per operand port. A port driven by an
/// upstream matched cut `j` whose guard `eq_j` is not TRUE, where the
/// baseline's port is `j`'s own variables `v_j`, contributes `eq_j`: the
/// port then reads `ite(eq_j, v_j, v'_j)`, which equals `v_j` wherever
/// `eq_j` holds. Every other port contributes bitwise equality of the two
/// sides' functions. Reusing `eq_j` keeps a cascade's guards from
/// compounding, as they do when each cell XORs its upstream `ite` words.
///
/// The abstraction is *sound for equivalence*: any pair of concrete
/// functions is an instance of it (the guard implies equal operands,
/// which force equal outputs; nothing else is assumed), so a FALSE miter
/// over the abstraction is FALSE for the real netlists. A guard stronger
/// than operand equality only leaves more outputs free. It is incomplete
/// — a non-FALSE miter may be an abstraction artifact, so callers must
/// fall back to the concrete check rather than report a counterexample.
///
/// # Errors
///
/// Returns [`BudgetExceeded`] on node or deadline exhaustion, exactly
/// like [`build_symbolic_bounded`].
pub fn build_symbolic_with_cuts(
    bdd: &mut Bdd,
    table: &mut VarTable,
    netlist: &Netlist,
    node_budget: usize,
    deadline: Option<Instant>,
    baseline: Option<&CutBuild>,
) -> Result<(SymbolicNetlist, CutBuild), BudgetExceeded> {
    let mut bits: Vec<Vec<BddRef>> = vec![Vec::new(); netlist.num_nets()];
    let mut cuts = CutBuild::default();
    // Transformed side: the guard and baseline variables of every matched
    // cut whose guard is not TRUE, by the cut's output net.
    let mut guards: HashMap<NetId, (BddRef, &[BddRef])> = HashMap::new();
    let side = if baseline.is_some() { "'" } else { "" };
    for (nid, net) in netlist.nets() {
        if net.is_primary_input() {
            bits[nid.index()] = (0..net.width())
                .map(|b| {
                    let sig = table
                        .signal(net.name(), b)
                        .expect("source bit missing from var table");
                    bdd.literal(sig)
                })
                .collect();
        }
    }
    for (_, cell) in netlist.cells() {
        if cell.kind().is_register() {
            let net = netlist.net(cell.output());
            bits[cell.output().index()] = (0..net.width())
                .map(|b| {
                    let sig = table
                        .signal(net.name(), b)
                        .expect("state bit missing from var table");
                    bdd.literal(sig)
                })
                .collect();
        }
    }
    for cid in comb_topo_order(netlist) {
        let cell = netlist.cell(cid);
        let out_net = netlist.net(cell.output());
        let w = out_net.width();
        let ins: Vec<Vec<BddRef>> = cell
            .inputs()
            .iter()
            .map(|&n| bits[n.index()].clone())
            .collect();
        let out = if cell.kind() == CellKind::Latch {
            let state: Vec<BddRef> = (0..w)
                .map(|b| {
                    let sig = table
                        .signal(out_net.name(), b)
                        .expect("state bit missing from var table");
                    bdd.literal(sig)
                })
                .collect();
            let en = ins[1][0];
            (0..w as usize)
                .map(|i| bdd.ite(en, ins[0][i], state[i]))
                .collect()
        } else if cell.kind().is_arithmetic() {
            match baseline.and_then(|b| b.cells.get(cell.name())) {
                // Matched cut: functional consistency with the baseline.
                Some(base)
                    if base.kind == cell.kind()
                        && base.outputs.len() == w as usize
                        && base.operands.len() == ins.len()
                        && base
                            .operands
                            .iter()
                            .zip(&ins)
                            .all(|(a, b)| a.len() == b.len()) =>
                {
                    let mut eq = BddRef::TRUE;
                    let ports = base.operands.iter().zip(&ins).zip(cell.inputs());
                    for ((base_in, this_in), net) in ports {
                        // A port driven by an upstream matched cut whose
                        // original side reads that cut's own variables
                        // agrees wherever the upstream guard holds.
                        match guards.get(net) {
                            Some(&(guard, vars)) if base_in.as_slice() == vars => {
                                eq = bdd.and(eq, guard);
                            }
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
                        (0..w)
                            .map(|b| {
                                let sig = table.intern_cut(cell.name(), side, b);
                                let fresh = bdd.literal(sig);
                                bdd.ite(eq, base.outputs[b as usize], fresh)
                            })
                            .collect()
                    }
                }
                // Unmatched on the baseline side (or shape mismatch):
                // evaluate concretely — abstracting without a counterpart
                // to stay consistent with would gain nothing.
                Some(_) => encode(bdd, cell.kind(), &ins, w, node_budget, deadline)?,
                None if baseline.is_some() => {
                    encode(bdd, cell.kind(), &ins, w, node_budget, deadline)?
                }
                // Baseline side: mint the cut.
                None => {
                    let vars: Vec<BddRef> = (0..w)
                        .map(|b| {
                            let sig = table.intern_cut(cell.name(), side, b);
                            bdd.literal(sig)
                        })
                        .collect();
                    cuts.cells.insert(
                        cell.name().to_string(),
                        CutCell {
                            kind: cell.kind(),
                            operands: ins.clone(),
                            outputs: vars.clone(),
                        },
                    );
                    vars
                }
            }
        } else {
            encode(bdd, cell.kind(), &ins, w, node_budget, deadline)?
        };
        bits[cell.output().index()] = out;
        if bound_hit(bdd, node_budget, deadline) {
            return Err(BudgetExceeded {
                nodes: bdd.num_nodes(),
            });
        }
    }
    Ok((SymbolicNetlist { bits }, cuts))
}

/// Encodes one combinational cell with the shared
/// [`encode_cell`], polling the node budget and deadline between
/// multiplier partial-product rows.
fn encode(
    bdd: &mut Bdd,
    kind: CellKind,
    ins: &[Vec<BddRef>],
    out_width: u8,
    node_budget: usize,
    deadline: Option<Instant>,
) -> Result<Vec<BddRef>, BudgetExceeded> {
    let ins: Vec<&[BddRef]> = ins.iter().map(Vec::as_slice).collect();
    encode_cell(bdd, kind, &ins, out_width as usize, |bdd| {
        bound_hit(bdd, node_budget, deadline)
    })
    .ok_or_else(|| BudgetExceeded {
        nodes: bdd.num_nodes(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use oiso_netlist::NetlistBuilder;

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
        let table = VarTable::for_pair(&n, &n);
        let mut bdd = Bdd::with_order(table.order());
        let err = build_symbolic(&mut bdd, &table, &n, 500).unwrap_err();
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
        let table = VarTable::for_pair(&n, &n);
        let mut bdd = Bdd::with_order(table.order());
        let past = Instant::now() - std::time::Duration::from_secs(1);
        let err = build_symbolic_bounded(&mut bdd, &table, &n, 1 << 24, Some(past)).unwrap_err();
        assert!(err.nodes <= 1 << 24);
        // And with no deadline the same build succeeds.
        let mut bdd = Bdd::with_order(table.order());
        assert!(build_symbolic(&mut bdd, &table, &n, 1 << 24).is_ok());
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
        let table = VarTable::for_pair(&a, &c);
        let mut bdd = Bdd::with_order(table.order());
        let sa = build_symbolic(&mut bdd, &table, &a, 1 << 20).unwrap();
        let sc = build_symbolic(&mut bdd, &table, &c, 1 << 20).unwrap();
        // Identical functions of the shared variable → identical BddRefs.
        assert_eq!(
            sa.net_bits(a.find_net("o").unwrap()),
            sc.net_bits(c.find_net("o").unwrap())
        );
    }
}
