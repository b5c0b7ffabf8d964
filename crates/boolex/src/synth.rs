//! Synthesis of activation functions into netlist gates.
//!
//! The isolation transform implements each activation function as *activation
//! logic*: a tree of 1-bit cells inserted into the design
//! (Section 3: "this function is implemented by the activation logic which
//! is either a direct implementation or an optimized version thereof").
//! [`synthesize_into`] emits the factored form as AND/OR/NOT gates,
//! sharing structurally identical subexpressions;
//! [`synthesize_bdd_into`] emits the function's canonical ROBDD as a mux
//! tree. Both name and insert their cells through one emitter.

use crate::bdd::{Bdd, BddRef};
use crate::expr::{BoolExpr, Signal};
use oiso_netlist::{BuildError, CellKind, NetId, Netlist};
use std::collections::HashMap;

/// Synthesizes `expr` into 1-bit gates inside `netlist`, returning the net
/// carrying the expression's value. New nets and cells are named with
/// `prefix`.
///
/// Variables must refer to existing nets; a variable addressing bit `b > 0`
/// of a multi-bit net materializes a `Slice` cell. Common subexpressions are
/// shared within one call.
///
/// # Errors
///
/// Returns an error if net/cell insertion fails (which only happens if the
/// netlist already contains colliding names created outside
/// [`Netlist::fresh_net_name`]).
///
/// # Examples
///
/// ```
/// use oiso_boolex::{synthesize_into, BoolExpr, Signal};
/// use oiso_netlist::{CellKind, NetlistBuilder};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = NetlistBuilder::new("d");
/// let s = b.input("s", 1);
/// let g = b.input("g", 1);
/// let o = b.wire("o", 1);
/// b.cell("pass", CellKind::And, &[s, g], o)?;
/// b.mark_output(o);
/// let mut n = b.build()?;
///
/// let expr = BoolExpr::and2(
///     BoolExpr::var(Signal::bit0(s)).not(),
///     BoolExpr::var(Signal::bit0(g)),
/// );
/// let as_net = synthesize_into(&mut n, &expr, "act")?;
/// n.mark_output(as_net);
/// n.validate()?;
/// # Ok(())
/// # }
/// ```
pub fn synthesize_into(
    netlist: &mut Netlist,
    expr: &BoolExpr,
    prefix: &str,
) -> Result<NetId, BuildError> {
    let mut cache = HashMap::new();
    synthesize_into_cached(netlist, expr, prefix, &mut cache)
}

/// Like [`synthesize_into`], but shares logic across calls through `cache`
/// (a map from already-synthesized subexpressions to their nets).
///
/// The isolation algorithm passes one cache for the whole run, so
/// candidates with identical (sub-)activation functions share a single
/// implementation — common in FSM-scheduled datapaths where many modules
/// decode the same states.
///
/// The cache must only be reused on the same netlist it was filled from;
/// nets referenced by stale caches would alias unrelated logic.
///
/// # Errors
///
/// As [`synthesize_into`].
pub fn synthesize_into_cached(
    netlist: &mut Netlist,
    expr: &BoolExpr,
    prefix: &str,
    cache: &mut HashMap<BoolExpr, NetId>,
) -> Result<NetId, BuildError> {
    let mut ctx = Synth {
        out: Emitter { netlist, prefix },
        memo: cache,
    };
    ctx.emit(expr)
}

/// Synthesizes the ROBDD of `expr` into `netlist` as a mux tree,
/// returning the net carrying the expression's value.
///
/// Following Popel's observation that the BDD of a minimized activation
/// function is itself a low-switching implementation, every BDD node
/// becomes one 1-bit `Mux` cell (select = the node's variable, data = the
/// lo/hi child functions) and every distinct complemented edge one `Not`
/// cell. Because the ROBDD is canonical, the circuit is the same however
/// the factored expression was written, and shared BDD subgraphs become
/// shared gates. New nets and cells are named with `prefix`; `cache`
/// shares results across calls exactly like [`synthesize_into_cached`].
///
/// # Errors
///
/// As [`synthesize_into`].
pub fn synthesize_bdd_into(
    netlist: &mut Netlist,
    expr: &BoolExpr,
    prefix: &str,
    cache: &mut HashMap<BoolExpr, NetId>,
) -> Result<NetId, BuildError> {
    if let Some(&net) = cache.get(expr) {
        return Ok(net);
    }
    let mut bdd = Bdd::new();
    let f = bdd.from_expr(expr);
    let mut ctx = BddSynth {
        out: Emitter { netlist, prefix },
        node_nets: HashMap::new(),
        not_nets: HashMap::new(),
        var_nets: HashMap::new(),
        const_nets: [None, None],
    };
    let net = ctx.emit(&bdd, f)?;
    cache.insert(expr.clone(), net);
    Ok(net)
}

/// Names and inserts the 1-bit nets and cells of one synthesis call.
struct Emitter<'a> {
    netlist: &'a mut Netlist,
    prefix: &'a str,
}

impl Emitter<'_> {
    /// A fresh 1-bit wire driven by a new `kind` cell over `inputs`.
    fn gate(&mut self, kind: CellKind, inputs: &[NetId]) -> Result<NetId, BuildError> {
        let name = self.netlist.fresh_net_name(self.prefix);
        let w = self.netlist.add_wire(name, 1)?;
        let name = self.netlist.fresh_cell_name(self.prefix);
        self.netlist.add_cell(name, kind, inputs, w)?;
        Ok(w)
    }

    /// The net carrying `sig`: the net itself when it is 1 bit wide,
    /// otherwise a new `Slice` of the addressed bit.
    fn bit(&mut self, sig: Signal) -> Result<NetId, BuildError> {
        if self.netlist.net(sig.net).width() == 1 {
            debug_assert_eq!(sig.bit, 0, "bit index on 1-bit net");
            return Ok(sig.net);
        }
        self.gate(
            CellKind::Slice {
                lo: sig.bit,
                hi: sig.bit,
            },
            &[sig.net],
        )
    }
}

/// Direct synthesis of the factored form.
struct Synth<'a> {
    out: Emitter<'a>,
    memo: &'a mut HashMap<BoolExpr, NetId>,
}

impl Synth<'_> {
    fn emit(&mut self, expr: &BoolExpr) -> Result<NetId, BuildError> {
        if let Some(&net) = self.memo.get(expr) {
            return Ok(net);
        }
        let net = match expr {
            BoolExpr::Const(b) => self.out.gate(CellKind::Const { value: *b as u64 }, &[])?,
            BoolExpr::Var(sig) => self.out.bit(*sig)?,
            BoolExpr::Not(inner) => {
                let x = self.emit(inner)?;
                self.out.gate(CellKind::Not, &[x])?
            }
            BoolExpr::And(es) => self.emit_nary(CellKind::And, es)?,
            BoolExpr::Or(es) => self.emit_nary(CellKind::Or, es)?,
        };
        self.memo.insert(expr.clone(), net);
        Ok(net)
    }

    fn emit_nary(&mut self, kind: CellKind, es: &[BoolExpr]) -> Result<NetId, BuildError> {
        debug_assert!(es.len() >= 2, "normalized n-ary node has >= 2 children");
        let inputs: Vec<NetId> = es.iter().map(|e| self.emit(e)).collect::<Result<_, _>>()?;
        self.out.gate(kind, &inputs)
    }
}

/// Mux-tree synthesis of a canonical ROBDD.
struct BddSynth<'a> {
    out: Emitter<'a>,
    /// Regular node edge (raw ref) → net carrying that node's function.
    node_nets: HashMap<u32, NetId>,
    /// Complemented edge (raw ref) → net carrying the inverted function.
    not_nets: HashMap<u32, NetId>,
    var_nets: HashMap<Signal, NetId>,
    const_nets: [Option<NetId>; 2],
}

impl BddSynth<'_> {
    fn const_net(&mut self, value: bool) -> Result<NetId, BuildError> {
        if let Some(net) = self.const_nets[value as usize] {
            return Ok(net);
        }
        let w = self.out.gate(CellKind::Const { value: value as u64 }, &[])?;
        self.const_nets[value as usize] = Some(w);
        Ok(w)
    }

    fn var_net(&mut self, sig: Signal) -> Result<NetId, BuildError> {
        if let Some(&net) = self.var_nets.get(&sig) {
            return Ok(net);
        }
        let net = self.out.bit(sig)?;
        self.var_nets.insert(sig, net);
        Ok(net)
    }

    /// Net carrying the function of edge `r` (inserting a `Not` for a
    /// complemented edge, shared per distinct edge).
    fn emit(&mut self, bdd: &Bdd, r: BddRef) -> Result<NetId, BuildError> {
        if r == BddRef::TRUE {
            return self.const_net(true);
        }
        if r == BddRef::FALSE {
            return self.const_net(false);
        }
        if r.is_complemented() {
            if let Some(&net) = self.not_nets.get(&r.raw()) {
                return Ok(net);
            }
            let pos = self.emit(bdd, r.regular())?;
            let w = self.out.gate(CellKind::Not, &[pos])?;
            self.not_nets.insert(r.raw(), w);
            return Ok(w);
        }
        if let Some(&net) = self.node_nets.get(&r.raw()) {
            return Ok(net);
        }
        let sig = bdd.top_var(r).expect("non-terminal node has a variable");
        let (lo, hi) = bdd.children(r);
        let lo_net = self.emit(bdd, lo)?;
        let hi_net = self.emit(bdd, hi)?;
        let sel = self.var_net(sig)?;
        let w = self.out.gate(CellKind::Mux, &[sel, lo_net, hi_net])?;
        self.node_nets.insert(r.raw(), w);
        Ok(w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oiso_netlist::NetlistBuilder;

    fn base() -> (Netlist, NetId, NetId, NetId) {
        let mut b = NetlistBuilder::new("t");
        let s0 = b.input("s0", 1);
        let s1 = b.input("s1", 1);
        let g = b.input("g", 4);
        let o = b.wire("o", 1);
        b.cell("keep", CellKind::Or, &[s0, s1], o).unwrap();
        b.mark_output(o);
        (b.build().unwrap(), s0, s1, g)
    }

    #[test]
    fn synthesized_logic_matches_expression() {
        let (mut n, s0, s1, _) = base();
        let expr = BoolExpr::or2(
            BoolExpr::and2(
                BoolExpr::var(Signal::bit0(s0)).not(),
                BoolExpr::var(Signal::bit0(s1)),
            ),
            BoolExpr::var(Signal::bit0(s0)),
        );
        let out = synthesize_into(&mut n, &expr, "act").unwrap();
        n.mark_output(out);
        n.validate().unwrap();
        // The new logic: 1 NOT + 1 AND + 1 OR.
        let added: Vec<_> = n
            .cells()
            .filter(|(_, c)| c.name().starts_with("act"))
            .collect();
        assert_eq!(added.len(), 3);
    }

    #[test]
    fn multibit_variable_gets_a_slice() {
        let (mut n, _, _, g) = base();
        let expr = BoolExpr::var(Signal::new(g, 2));
        let out = synthesize_into(&mut n, &expr, "act").unwrap();
        n.mark_output(out);
        n.validate().unwrap();
        assert_eq!(n.net(out).width(), 1);
        let slicer = n
            .cells()
            .find(|(_, c)| matches!(c.kind(), CellKind::Slice { lo: 2, hi: 2 }))
            .expect("slice cell emitted");
        assert_eq!(slicer.1.inputs()[0], g);
    }

    #[test]
    fn one_bit_variable_reuses_net() {
        let (mut n, s0, _, _) = base();
        let before = n.num_cells();
        let out =
            synthesize_into(&mut n, &BoolExpr::var(Signal::bit0(s0)), "act").unwrap();
        assert_eq!(out, s0);
        assert_eq!(n.num_cells(), before);
    }

    #[test]
    fn common_subexpressions_are_shared() {
        let (mut n, s0, s1, _) = base();
        let sub = BoolExpr::and2(
            BoolExpr::var(Signal::bit0(s0)),
            BoolExpr::var(Signal::bit0(s1)),
        );
        // sub appears twice, but OR-normalization dedups identical terms, so
        // construct an expression where it genuinely appears twice:
        // (s0&s1) + !(s0&s1)&s0  -> the AND node appears in both branches.
        let expr = BoolExpr::or2(
            sub.clone(),
            BoolExpr::and2(sub.clone().not(), BoolExpr::var(Signal::bit0(s0))),
        );
        let out = synthesize_into(&mut n, &expr, "act").unwrap();
        n.mark_output(out);
        n.validate().unwrap();
        let ands = n
            .cells()
            .filter(|(_, c)| c.name().starts_with("act") && c.kind() == CellKind::And)
            .count();
        // Exactly two AND gates: the shared (s0&s1) and the outer product.
        assert_eq!(ands, 2);
    }

    #[test]
    fn cross_call_cache_shares_logic() {
        let (mut n, s0, s1, _) = base();
        let expr = BoolExpr::and2(
            BoolExpr::var(Signal::bit0(s0)),
            BoolExpr::var(Signal::bit0(s1)),
        );
        let mut cache = HashMap::new();
        let first =
            synthesize_into_cached(&mut n, &expr, "act", &mut cache).unwrap();
        let cells_after_first = n.num_cells();
        let second =
            synthesize_into_cached(&mut n, &expr, "act", &mut cache).unwrap();
        assert_eq!(first, second, "identical expressions share one net");
        assert_eq!(n.num_cells(), cells_after_first, "no new gates");
        n.mark_output(first);
        n.validate().unwrap();
    }

    #[test]
    fn constant_expression_emits_const_cell() {
        let (mut n, _, _, _) = base();
        let out = synthesize_into(&mut n, &BoolExpr::TRUE, "act").unwrap();
        n.mark_output(out);
        n.validate().unwrap();
        assert_eq!(n.constant_value(out), Some(1));
    }
}
