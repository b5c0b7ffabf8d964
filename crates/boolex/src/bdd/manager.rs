//! The BDD manager: hash-consed unique table with complement edges,
//! operation-keyed computed table, and Rudell-style sifting reorder.
//!
//! # Representation
//!
//! A [`BddRef`] packs a node index and a complement flag into one `u32`
//! (`index << 1 | complemented`). There is a single terminal node at
//! index 0 representing the constant TRUE; FALSE is its complement
//! edge. Canonical form requires the *then* (high) edge of every stored
//! node to be regular (un-complemented): `mk` rewrites
//! `(v, lo, ¬hi)` as `¬(v, ¬lo, hi)`, which makes complementation a
//! zero-cost bit flip and guarantees that a function and its complement
//! never both occupy unique-table slots.
//!
//! # Reordering
//!
//! Adjacent-level swaps rewrite affected nodes **in place**: a node keeps
//! its index (and therefore its meaning to every outstanding [`BddRef`])
//! across any reorder, so callers never need to re-translate handles.
//! Sifting minimizes the number of *live* nodes — those reachable from
//! roots registered via [`Bdd::protect`] plus the operands of the
//! operation that triggered the reorder.

use super::{NodeBudget, ReorderPolicy};
use crate::expr::{BoolExpr, Signal};
use std::collections::HashMap;

/// A handle to a BDD function: node index plus complement flag.
///
/// Handles stay valid across [`Bdd::reorder`] — swaps rewrite nodes in
/// place without changing the function any allocated index denotes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct BddRef(u32);

impl BddRef {
    /// The constant-true function (the terminal node, regular edge).
    pub const TRUE: BddRef = BddRef(0);
    /// The constant-false function (the terminal node, complemented).
    pub const FALSE: BddRef = BddRef(1);

    /// Whether this handle points at the terminal node (TRUE or FALSE).
    pub fn is_terminal(self) -> bool {
        self.0 < 2
    }

    /// Whether the edge carries a complement mark.
    pub fn is_complemented(self) -> bool {
        self.0 & 1 == 1
    }

    /// The complemented function — an O(1) bit flip, no table access.
    pub fn complement(self) -> BddRef {
        BddRef(self.0 ^ 1)
    }

    /// The regular (un-complemented) version of this edge.
    pub fn regular(self) -> BddRef {
        BddRef(self.0 & !1)
    }

    pub(crate) fn index(self) -> usize {
        (self.0 >> 1) as usize
    }

    pub(crate) fn raw(self) -> u32 {
        self.0
    }

    pub(crate) fn from_raw(raw: u32) -> BddRef {
        BddRef(raw)
    }
}

/// Sub-results of [`Bdd::probability_memo`], keyed by node.
#[derive(Debug, Default)]
pub struct ProbabilityMemo(HashMap<u32, f64>);

#[derive(Clone, Copy, Debug)]
struct Node {
    /// Variable id (*not* level); `u32::MAX` for the terminal.
    var: u32,
    lo: BddRef,
    /// Always a regular edge (canonical-form invariant).
    hi: BddRef,
}

const OP_AND: u8 = 0;
const OP_XOR: u8 = 1;
const OP_ITE: u8 = 2;

/// How many variables one sifting pass moves (the most-populated levels
/// first); bounds reorder wall-clock on very wide managers.
const MAX_SIFT_VARS: usize = 12;

/// How far (in levels) one sift walk may carry a variable from its
/// starting position. Each position probe costs a live-set mark, so the
/// window bounds a pass at `MAX_SIFT_VARS × 4 × SIFT_WINDOW` marks.
const SIFT_WINDOW: usize = 8;

/// A reduced ordered BDD manager with complement edges.
///
/// Variables are [`Signal`]s, ordered by first registration (or
/// explicitly via [`Bdd::with_order`]) until a reorder moves them.
///
/// # Examples
///
/// ```
/// use oiso_boolex::{Bdd, BoolExpr, Signal};
/// use oiso_netlist::NetId;
///
/// let x = BoolExpr::var(Signal::bit0(NetId::from_index(0)));
/// let y = BoolExpr::var(Signal::bit0(NetId::from_index(1)));
/// let mut bdd = Bdd::new();
/// let lhs = bdd.from_expr(&BoolExpr::and2(x.clone(), y.clone()).not());
/// let rhs = bdd.from_expr(&BoolExpr::or2(x.not(), y.not()));
/// assert_eq!(lhs, rhs); // De Morgan, by canonicity
/// ```
pub struct Bdd {
    nodes: Vec<Node>,
    /// `(var, lo, hi)` → node index. Keys always describe the node's
    /// *current* shape; adjacent swaps remove and re-insert them.
    unique: HashMap<(u32, u32, u32), u32>,
    /// Operation-keyed memo: `(op, a, b, c)` → result. Cleared on reorder.
    computed: HashMap<(u8, u32, u32, u32), u32>,
    vars: Vec<Signal>,
    var_index: HashMap<Signal, u32>,
    /// level → var id.
    perm: Vec<u32>,
    /// var id → level.
    inv: Vec<u32>,
    budget: Option<NodeBudget>,
    policy: ReorderPolicy,
    next_reorder_at: usize,
    reorders: usize,
    roots: Vec<BddRef>,
    /// var id → indices of that variable's allocated nodes. Kept exact by
    /// `mk_raw` (push on allocation), `swap_adjacent` (moves), and the
    /// post-reorder sweep (rebuild); lets a swap touch only its own level
    /// instead of scanning the whole table.
    by_var: Vec<Vec<u32>>,
    /// Recyclable node indices: sift churn reclaimed after a reorder pass.
    free: Vec<u32>,
    /// High-water mark of `num_nodes()`.
    peak: usize,
}

impl Default for Bdd {
    fn default() -> Self {
        Bdd::new()
    }
}

impl Bdd {
    /// Creates an empty manager (no variables registered).
    pub fn new() -> Self {
        Bdd {
            nodes: vec![Node {
                var: u32::MAX,
                lo: BddRef::TRUE,
                hi: BddRef::TRUE,
            }],
            unique: HashMap::new(),
            computed: HashMap::new(),
            vars: Vec::new(),
            var_index: HashMap::new(),
            perm: Vec::new(),
            inv: Vec::new(),
            budget: None,
            policy: ReorderPolicy::Never,
            next_reorder_at: 0,
            reorders: 0,
            roots: Vec::new(),
            by_var: Vec::new(),
            free: Vec::new(),
            peak: 1,
        }
    }

    /// Creates a manager with a fixed initial variable order.
    pub fn with_order(order: impl IntoIterator<Item = Signal>) -> Self {
        let mut bdd = Bdd::new();
        for sig in order {
            bdd.var_id(sig);
        }
        bdd
    }

    /// Number of allocated nodes (terminal included). Ordinary operation
    /// never frees — garbage stays allocated, so every outstanding
    /// [`BddRef`] remains valid — but a reorder pass reclaims its own
    /// sift churn, so this can shrink across [`Bdd::reorder`]. See
    /// [`Bdd::peak_nodes`] for the high-water mark.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len() - self.free.len()
    }

    /// High-water mark of [`Bdd::num_nodes`] over the manager's lifetime.
    pub fn peak_nodes(&self) -> usize {
        self.peak
    }

    /// Number of registered variables.
    pub fn var_count(&self) -> usize {
        self.vars.len()
    }

    /// The current variable order, top level first.
    pub fn order(&self) -> Vec<Signal> {
        self.perm
            .iter()
            .map(|&v| self.vars[v as usize])
            .collect()
    }

    /// Attaches a (possibly shared) node budget. The manager's already
    /// allocated nodes are debited immediately so a budget handed across
    /// several managers accounts for the total table size of the run.
    pub fn set_budget(&mut self, budget: NodeBudget) {
        budget.debit(self.num_nodes().saturating_sub(1));
        self.budget = Some(budget);
    }

    /// The attached budget, if any.
    pub fn budget(&self) -> Option<&NodeBudget> {
        self.budget.as_ref()
    }

    /// Whether the attached budget (if any) has been exhausted.
    /// Operations remain infallible past this point; callers poll at
    /// their own checkpoints, exactly like the old `num_nodes` bound.
    pub fn budget_exceeded(&self) -> bool {
        self.budget.as_ref().is_some_and(NodeBudget::exceeded)
    }

    /// Sets the automatic-reorder policy (default: [`ReorderPolicy::Never`]).
    pub fn set_reorder_policy(&mut self, policy: ReorderPolicy) {
        self.policy = policy;
    }

    /// How many times this manager has reordered (auto or manual).
    pub fn reorder_count(&self) -> usize {
        self.reorders
    }

    /// Registers `root` as externally held: it is kept live for sifting's
    /// size metric and counted by [`Bdd::live_nodes`].
    pub fn protect(&mut self, root: BddRef) {
        self.roots.push(root);
    }

    /// Number of nodes reachable from the protected roots (terminal
    /// excluded) — the "live" size, as opposed to [`Bdd::num_nodes`]'s
    /// allocated size.
    pub fn live_nodes(&self) -> usize {
        self.live_size(&[])
    }

    fn var_id(&mut self, sig: Signal) -> u32 {
        if let Some(&id) = self.var_index.get(&sig) {
            return id;
        }
        let id = self.vars.len() as u32;
        self.vars.push(sig);
        self.var_index.insert(sig, id);
        self.perm.push(id);
        self.inv.push(id);
        self.by_var.push(Vec::new());
        id
    }

    fn node(&self, r: BddRef) -> Node {
        self.nodes[r.index()]
    }

    /// Level of the edge's node; terminals sort below every variable.
    fn level_of(&self, r: BddRef) -> u32 {
        if r.is_terminal() {
            u32::MAX
        } else {
            self.inv[self.node(r).var as usize]
        }
    }

    fn mk(&mut self, var: u32, lo: BddRef, hi: BddRef) -> BddRef {
        if lo == hi {
            return lo;
        }
        if hi.is_complemented() {
            return self.mk_raw(var, lo.complement(), hi.complement()).complement();
        }
        self.mk_raw(var, lo, hi)
    }

    fn mk_raw(&mut self, var: u32, lo: BddRef, hi: BddRef) -> BddRef {
        debug_assert!(!hi.is_complemented(), "then-edge must be regular");
        let key = (var, lo.raw(), hi.raw());
        if let Some(&idx) = self.unique.get(&key) {
            return BddRef(idx << 1);
        }
        let idx = match self.free.pop() {
            Some(i) => {
                self.nodes[i as usize] = Node { var, lo, hi };
                i
            }
            None => {
                let i = self.nodes.len() as u32;
                self.nodes.push(Node { var, lo, hi });
                i
            }
        };
        if let Some(b) = &self.budget {
            b.debit(1);
        }
        self.unique.insert(key, idx);
        self.by_var[var as usize].push(idx);
        self.peak = self.peak.max(self.num_nodes());
        BddRef(idx << 1)
    }

    /// Cofactors of `r` with respect to `var` when `var` labels `r`'s
    /// node; `(r, r)` otherwise (i.e. top-variable cofactoring).
    fn cofactors_at(&self, r: BddRef, var: u32) -> (BddRef, BddRef) {
        if r.is_terminal() {
            return (r, r);
        }
        let node = self.node(r);
        if node.var != var {
            return (r, r);
        }
        let parity = r.raw() & 1;
        (
            BddRef(node.lo.raw() ^ parity),
            BddRef(node.hi.raw() ^ parity),
        )
    }

    /// The BDD of a single positive literal.
    pub fn literal(&mut self, sig: Signal) -> BddRef {
        let v = self.var_id(sig);
        self.mk(v, BddRef::FALSE, BddRef::TRUE)
    }

    /// Negation — an O(1) complement-edge flip.
    pub fn not(&self, a: BddRef) -> BddRef {
        a.complement()
    }

    /// Conjunction.
    pub fn and(&mut self, a: BddRef, b: BddRef) -> BddRef {
        self.maybe_reorder(&[a, b]);
        self.and_rec(a, b)
    }

    /// Disjunction, via De Morgan on the AND memo.
    pub fn or(&mut self, a: BddRef, b: BddRef) -> BddRef {
        self.maybe_reorder(&[a, b]);
        self.and_rec(a.complement(), b.complement()).complement()
    }

    /// Exclusive or.
    pub fn xor(&mut self, a: BddRef, b: BddRef) -> BddRef {
        self.maybe_reorder(&[a, b]);
        self.xor_rec(a, b)
    }

    /// The difference `a · ¬b`.
    pub fn and_not(&mut self, a: BddRef, b: BddRef) -> BddRef {
        self.maybe_reorder(&[a, b]);
        self.and_rec(a, b.complement())
    }

    /// Whether `a → b` holds for every assignment.
    pub fn implies(&mut self, a: BddRef, b: BddRef) -> bool {
        self.and_not(a, b) == BddRef::FALSE
    }

    /// If-then-else: the canonical ternary combinator.
    pub fn ite(&mut self, f: BddRef, g: BddRef, h: BddRef) -> BddRef {
        self.maybe_reorder(&[f, g, h]);
        self.ite_rec(f, g, h)
    }

    fn and_rec(&mut self, f: BddRef, g: BddRef) -> BddRef {
        if f == BddRef::FALSE || g == BddRef::FALSE || f == g.complement() {
            return BddRef::FALSE;
        }
        if f == BddRef::TRUE || f == g {
            return g;
        }
        if g == BddRef::TRUE {
            return f;
        }
        let (a, b) = if f.raw() <= g.raw() { (f, g) } else { (g, f) };
        let key = (OP_AND, a.raw(), b.raw(), 0);
        if let Some(&r) = self.computed.get(&key) {
            return BddRef::from_raw(r);
        }
        let v = self.top_level_var2(a, b);
        let (a0, a1) = self.cofactors_at(a, v);
        let (b0, b1) = self.cofactors_at(b, v);
        let lo = self.and_rec(a0, b0);
        let hi = self.and_rec(a1, b1);
        let r = self.mk(v, lo, hi);
        self.computed.insert(key, r.raw());
        r
    }

    fn xor_rec(&mut self, f: BddRef, g: BddRef) -> BddRef {
        if f == BddRef::FALSE {
            return g;
        }
        if f == BddRef::TRUE {
            return g.complement();
        }
        if g == BddRef::FALSE {
            return f;
        }
        if g == BddRef::TRUE {
            return f.complement();
        }
        if f == g {
            return BddRef::FALSE;
        }
        if f == g.complement() {
            return BddRef::TRUE;
        }
        // xor(¬a, b) = ¬xor(a, b): normalize both operands regular.
        let mut parity = 0u32;
        let mut a = f;
        let mut b = g;
        if a.is_complemented() {
            a = a.complement();
            parity ^= 1;
        }
        if b.is_complemented() {
            b = b.complement();
            parity ^= 1;
        }
        if a.raw() > b.raw() {
            std::mem::swap(&mut a, &mut b);
        }
        let key = (OP_XOR, a.raw(), b.raw(), 0);
        if let Some(&r) = self.computed.get(&key) {
            return BddRef::from_raw(r ^ parity);
        }
        let v = self.top_level_var2(a, b);
        let (a0, a1) = self.cofactors_at(a, v);
        let (b0, b1) = self.cofactors_at(b, v);
        let lo = self.xor_rec(a0, b0);
        let hi = self.xor_rec(a1, b1);
        let r = self.mk(v, lo, hi);
        self.computed.insert(key, r.raw());
        BddRef::from_raw(r.raw() ^ parity)
    }

    fn ite_rec(&mut self, f: BddRef, g: BddRef, h: BddRef) -> BddRef {
        if f == BddRef::TRUE {
            return g;
        }
        if f == BddRef::FALSE {
            return h;
        }
        let mut g = g;
        let mut h = h;
        if g == f {
            g = BddRef::TRUE;
        } else if g == f.complement() {
            g = BddRef::FALSE;
        }
        if h == f {
            h = BddRef::FALSE;
        } else if h == f.complement() {
            h = BddRef::TRUE;
        }
        if g == h {
            return g;
        }
        if g == BddRef::TRUE && h == BddRef::FALSE {
            return f;
        }
        if g == BddRef::FALSE && h == BddRef::TRUE {
            return f.complement();
        }
        // Two-operand shapes route through the AND memo.
        if g == BddRef::TRUE {
            return self
                .and_rec(f.complement(), h.complement())
                .complement();
        }
        if g == BddRef::FALSE {
            return self.and_rec(f.complement(), h);
        }
        if h == BddRef::FALSE {
            return self.and_rec(f, g);
        }
        if h == BddRef::TRUE {
            return self.and_rec(f, g.complement()).complement();
        }
        // Normalize: ite(¬f, g, h) = ite(f, h, g), then
        // ite(f, ¬g, ¬h) = ¬ite(f, g, h), so the cached key has a
        // regular predicate and a regular then-branch.
        let mut f = f;
        if f.is_complemented() {
            f = f.complement();
            std::mem::swap(&mut g, &mut h);
        }
        let mut parity = 0u32;
        if g.is_complemented() {
            g = g.complement();
            h = h.complement();
            parity = 1;
        }
        let key = (OP_ITE, f.raw(), g.raw(), h.raw());
        if let Some(&r) = self.computed.get(&key) {
            return BddRef::from_raw(r ^ parity);
        }
        let v = self.top_level_var3(f, g, h);
        let (f0, f1) = self.cofactors_at(f, v);
        let (g0, g1) = self.cofactors_at(g, v);
        let (h0, h1) = self.cofactors_at(h, v);
        let lo = self.ite_rec(f0, g0, h0);
        let hi = self.ite_rec(f1, g1, h1);
        let r = self.mk(v, lo, hi);
        self.computed.insert(key, r.raw());
        BddRef::from_raw(r.raw() ^ parity)
    }

    fn top_level_var2(&self, a: BddRef, b: BddRef) -> u32 {
        let la = self.level_of(a);
        let lb = self.level_of(b);
        let top = la.min(lb);
        debug_assert_ne!(top, u32::MAX);
        self.perm[top as usize]
    }

    fn top_level_var3(&self, a: BddRef, b: BddRef, c: BddRef) -> u32 {
        let top = self
            .level_of(a)
            .min(self.level_of(b))
            .min(self.level_of(c));
        debug_assert_ne!(top, u32::MAX);
        self.perm[top as usize]
    }

    /// Builds the BDD of a factored-form expression. The expression's
    /// support is registered (in sorted signal order) before building, so
    /// managers constructed from the same expression agree on the order.
    pub fn from_expr(&mut self, expr: &BoolExpr) -> BddRef {
        for sig in expr.support() {
            self.var_id(sig);
        }
        self.maybe_reorder(&[]);
        self.build_expr(expr)
    }

    fn build_expr(&mut self, expr: &BoolExpr) -> BddRef {
        match expr {
            BoolExpr::Const(b) => {
                if *b {
                    BddRef::TRUE
                } else {
                    BddRef::FALSE
                }
            }
            BoolExpr::Var(sig) => self.literal(*sig),
            BoolExpr::Not(inner) => self.build_expr(inner).complement(),
            BoolExpr::And(es) => {
                let mut acc = BddRef::TRUE;
                for e in es {
                    if acc == BddRef::FALSE {
                        break;
                    }
                    let operand = self.build_expr(e);
                    acc = self.and_rec(acc, operand);
                }
                acc
            }
            BoolExpr::Or(es) => {
                let mut acc = BddRef::FALSE;
                for e in es {
                    if acc == BddRef::TRUE {
                        break;
                    }
                    let operand = self.build_expr(e);
                    acc = self
                        .and_rec(acc.complement(), operand.complement())
                        .complement();
                }
                acc
            }
        }
    }

    /// Whether two expressions denote the same function.
    pub fn equivalent(&mut self, a: &BoolExpr, b: &BoolExpr) -> bool {
        let fa = self.from_expr(a);
        let fb = self.from_expr(b);
        fa == fb
    }

    /// The (lo, hi) cofactor edges of a non-terminal edge with respect
    /// to its own top variable (parity-adjusted for complement marks).
    ///
    /// # Panics
    ///
    /// Panics if `f` is a terminal.
    pub fn children(&self, f: BddRef) -> (BddRef, BddRef) {
        assert!(!f.is_terminal(), "terminal edge has no children");
        let node = self.node(f);
        let parity = f.raw() & 1;
        (
            BddRef(node.lo.raw() ^ parity),
            BddRef(node.hi.raw() ^ parity),
        )
    }

    /// Shannon expansion of `f` at its top node: the labelling signal and
    /// the parity-adjusted `(lo, hi)` cofactors, or `None` for a terminal.
    /// A pure table read — unlike [`Bdd::cofactor_by`] it never registers
    /// a variable.
    pub fn expand(&self, f: BddRef) -> Option<(Signal, BddRef, BddRef)> {
        if f.is_terminal() {
            return None;
        }
        let (lo, hi) = self.children(f);
        Some((self.vars[self.node(f).var as usize], lo, hi))
    }

    /// The signal labelling `f`'s top node, or `None` for a terminal.
    pub fn top_var(&self, f: BddRef) -> Option<Signal> {
        if f.is_terminal() {
            None
        } else {
            Some(self.vars[self.node(f).var as usize])
        }
    }

    /// Position of a signal in the manager's *current* variable order.
    ///
    /// # Panics
    ///
    /// Panics if the signal was never registered in this manager.
    pub fn var_order_index(&self, sig: Signal) -> u32 {
        self.inv[self.var_index[&sig] as usize]
    }

    /// The negative/positive cofactors of `f` with respect to `sig`,
    /// when `sig` labels `f`'s top node; `(f, f)` otherwise.
    pub fn cofactor_by(&mut self, f: BddRef, sig: Signal) -> (BddRef, BddRef) {
        let var = self.var_id(sig);
        self.cofactors_at(f, var)
    }

    /// Existential quantification: `∃ sig. f`.
    pub fn exists(&mut self, f: BddRef, sig: Signal) -> BddRef {
        self.maybe_reorder(&[f]);
        let v = self.var_id(sig);
        let mut cache = HashMap::new();
        self.exists_rec(f, v, &mut cache)
    }

    /// Universal quantification: `∀ sig. f`.
    pub fn forall(&mut self, f: BddRef, sig: Signal) -> BddRef {
        self.exists(f.complement(), sig).complement()
    }

    fn exists_rec(
        &mut self,
        f: BddRef,
        v: u32,
        cache: &mut HashMap<u32, BddRef>,
    ) -> BddRef {
        if f.is_terminal() {
            return f;
        }
        let node = self.node(f);
        if self.inv[node.var as usize] > self.inv[v as usize] {
            // Every node in f sits below v's level: v is not in f's support.
            return f;
        }
        if let Some(&r) = cache.get(&f.raw()) {
            return r;
        }
        let (f0, f1) = self.cofactors_at(f, node.var);
        let r = if node.var == v {
            self.and_rec(f0.complement(), f1.complement()).complement()
        } else {
            let lo = self.exists_rec(f0, v, cache);
            let hi = self.exists_rec(f1, v, cache);
            self.mk(node.var, lo, hi)
        };
        cache.insert(f.raw(), r);
        r
    }

    /// Functional composition: `f` with `sig` replaced by the function `g`.
    pub fn compose(&mut self, f: BddRef, sig: Signal, g: BddRef) -> BddRef {
        self.maybe_reorder(&[f, g]);
        let v = self.var_id(sig);
        let mut cache = HashMap::new();
        self.compose_rec(f, v, g, &mut cache)
    }

    fn compose_rec(
        &mut self,
        f: BddRef,
        v: u32,
        g: BddRef,
        cache: &mut HashMap<u32, BddRef>,
    ) -> BddRef {
        if f.is_terminal() {
            return f;
        }
        let node = self.node(f);
        if self.inv[node.var as usize] > self.inv[v as usize] {
            return f;
        }
        if let Some(&r) = cache.get(&f.raw()) {
            return r;
        }
        let (f0, f1) = self.cofactors_at(f, node.var);
        let r = if node.var == v {
            self.ite_rec(g, f1, f0)
        } else {
            let lo = self.compose_rec(f0, v, g, cache);
            let hi = self.compose_rec(f1, v, g, cache);
            // g's support may sit above this node's level, so rebuild
            // through ITE rather than mk.
            let lit = self.mk(node.var, BddRef::FALSE, BddRef::TRUE);
            self.ite_rec(lit, hi, lo)
        };
        cache.insert(f.raw(), r);
        r
    }

    /// Restriction: `f` with `sig` pinned to `value`, at any depth.
    pub fn restrict(&mut self, f: BddRef, sig: Signal, value: bool) -> BddRef {
        let v = self.var_id(sig);
        let mut cache = HashMap::new();
        self.restrict_rec(f, v, value, &mut cache)
    }

    fn restrict_rec(
        &mut self,
        f: BddRef,
        v: u32,
        value: bool,
        cache: &mut HashMap<u32, BddRef>,
    ) -> BddRef {
        if f.is_terminal() {
            return f;
        }
        let node = self.node(f);
        if self.inv[node.var as usize] > self.inv[v as usize] {
            return f;
        }
        if let Some(&r) = cache.get(&f.raw()) {
            return r;
        }
        let (f0, f1) = self.cofactors_at(f, node.var);
        let r = if node.var == v {
            if value {
                f1
            } else {
                f0
            }
        } else {
            let lo = self.restrict_rec(f0, v, value, cache);
            let hi = self.restrict_rec(f1, v, value, cache);
            self.mk(node.var, lo, hi)
        };
        cache.insert(f.raw(), r);
        r
    }

    /// One satisfying assignment of `f`, or `None` if unsatisfiable.
    ///
    /// Deterministic low-branch-preferring walk: variables absent from
    /// the result are don't-cares on the extracted path. Read with the
    /// don't-cares as 0, the witness is the lexicographically smallest
    /// model in the current variable order (top level most significant),
    /// which is what keeps pinned counterexamples stable.
    pub fn satisfy_one(&self, f: BddRef) -> Option<Vec<(Signal, bool)>> {
        if f == BddRef::FALSE {
            return None;
        }
        let mut path = Vec::new();
        let mut cur = f;
        while !cur.is_terminal() {
            let node = self.node(cur);
            let sig = self.vars[node.var as usize];
            let parity = cur.raw() & 1;
            let lo = BddRef(node.lo.raw() ^ parity);
            let hi = BddRef(node.hi.raw() ^ parity);
            // Every non-FALSE edge reaches TRUE, so following any
            // non-FALSE child terminates.
            if lo != BddRef::FALSE {
                path.push((sig, false));
                cur = lo;
            } else {
                path.push((sig, true));
                cur = hi;
            }
        }
        debug_assert_eq!(cur, BddRef::TRUE);
        Some(path)
    }

    /// Exact model count of `f` over all registered variables.
    ///
    /// # Panics
    ///
    /// Panics if more than 127 variables are registered (the count no
    /// longer fits in `u128`).
    pub fn sat_count(&self, f: BddRef) -> u128 {
        let n = self.vars.len() as u32;
        assert!(n <= 127, "sat_count supports at most 127 variables");
        let mut cache = HashMap::new();
        let top = if f.is_terminal() {
            n
        } else {
            self.inv[self.node(f).var as usize]
        };
        self.sat_adj(f, top, n, &mut cache) << top
    }

    /// Models of `f` over the variables at levels `[level, n)`, where
    /// `level` is the level `f` is being viewed from.
    fn sat_adj(
        &self,
        f: BddRef,
        level: u32,
        n: u32,
        cache: &mut HashMap<u32, u128>,
    ) -> u128 {
        let full = 1u128 << (n - level);
        if f == BddRef::TRUE {
            return full;
        }
        if f == BddRef::FALSE {
            return 0;
        }
        let node_level = self.inv[self.node(f).var as usize];
        let scale = node_level - level;
        let reg_count = self.sat_reg(f.regular(), n, cache);
        let at_node = if f.is_complemented() {
            (1u128 << (n - node_level)) - reg_count
        } else {
            reg_count
        };
        at_node << scale
    }

    fn sat_reg(&self, f: BddRef, n: u32, cache: &mut HashMap<u32, u128>) -> u128 {
        debug_assert!(!f.is_complemented() && !f.is_terminal());
        if let Some(&c) = cache.get(&f.raw()) {
            return c;
        }
        let node = self.node(f);
        let level = self.inv[node.var as usize];
        let lo = self.sat_adj(node.lo, level + 1, n, cache);
        let hi = self.sat_adj(node.hi, level + 1, n, cache);
        let c = lo + hi;
        cache.insert(f.raw(), c);
        c
    }

    /// Evaluates `f` under a concrete assignment.
    pub fn eval(&self, f: BddRef, assignment: &impl Fn(Signal) -> bool) -> bool {
        let mut cur = f;
        while !cur.is_terminal() {
            let node = self.node(cur);
            let parity = cur.raw() & 1;
            let child = if assignment(self.vars[node.var as usize]) {
                node.hi
            } else {
                node.lo
            };
            cur = BddRef(child.raw() ^ parity);
        }
        cur == BddRef::TRUE
    }

    /// Probability that `f` is 1 given independent per-signal
    /// probabilities. Cached on regular edges; `P(¬f) = 1 − P(f)`.
    pub fn probability(&self, f: BddRef, prob: &impl Fn(Signal) -> f64) -> f64 {
        self.probability_memo(f, prob, &mut ProbabilityMemo::default())
    }

    /// [`Bdd::probability`] reading and filling a caller-held memo, so
    /// many queries under the **same** `prob` share every sub-result.
    /// The memo is keyed by node index: it stays valid while the manager
    /// only grows, and must be dropped on a reorder (which may recycle
    /// indices) or a change of `prob`.
    pub fn probability_memo(
        &self,
        f: BddRef,
        prob: &impl Fn(Signal) -> f64,
        memo: &mut ProbabilityMemo,
    ) -> f64 {
        self.prob_rec(f, prob, &mut memo.0)
    }

    fn prob_rec(
        &self,
        f: BddRef,
        prob: &impl Fn(Signal) -> f64,
        cache: &mut HashMap<u32, f64>,
    ) -> f64 {
        if f == BddRef::TRUE {
            return 1.0;
        }
        if f == BddRef::FALSE {
            return 0.0;
        }
        let reg = f.regular();
        let p = if let Some(&p) = cache.get(&reg.raw()) {
            p
        } else {
            let node = self.node(reg);
            let pv = prob(self.vars[node.var as usize]);
            let ph = self.prob_rec(node.hi, prob, cache);
            let pl = self.prob_rec(node.lo, prob, cache);
            let p = pv * ph + (1.0 - pv) * pl;
            cache.insert(reg.raw(), p);
            p
        };
        if f.is_complemented() {
            1.0 - p
        } else {
            p
        }
    }

    // ---- reordering -----------------------------------------------------

    fn maybe_reorder(&mut self, extra: &[BddRef]) {
        if let ReorderPolicy::Auto(threshold) = self.policy {
            if self.num_nodes() >= self.next_reorder_at.max(threshold) {
                self.reorder_with_extra(extra);
                self.next_reorder_at = (self.num_nodes() * 2).max(threshold);
            }
        }
    }

    /// Runs one Rudell sifting pass now, minimizing the live-node count.
    /// Outstanding [`BddRef`]s stay valid: swaps rewrite nodes in place
    /// and never change the function an allocated index denotes.
    pub fn reorder(&mut self) {
        self.reorder_with_extra(&[]);
    }

    fn reorder_with_extra(&mut self, extra: &[BddRef]) {
        let n = self.vars.len();
        if n < 2 {
            return;
        }
        self.reorders += 1;
        // Results cached under the old order may disagree with
        // recursion under the new one; drop them wholesale.
        self.computed.clear();
        // Nodes allocated from here on are sift churn: no external handle
        // can name them, so the post-pass sweep may reclaim the dead ones.
        let pass_start = self.nodes.len();
        let live = self.mark_live(extra);
        let mut pop = vec![0usize; n];
        for (idx, node) in self.nodes.iter().enumerate().skip(1) {
            if live[idx] {
                pop[self.inv[node.var as usize] as usize] += 1;
            }
        }
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_by_key(|&v| std::cmp::Reverse(pop[self.inv[v as usize] as usize]));
        for &v in order.iter().take(MAX_SIFT_VARS) {
            self.sift_var(v);
        }
        self.sweep_pass_churn(pass_start);
    }

    /// Moves one variable up to [`SIFT_WINDOW`] levels each way and parks
    /// it where the table was smallest (first such position on ties).
    ///
    /// The metric is the O(1) *allocated* count, not an exact live mark:
    /// swap churn only ever inflates it, and monotonically in the number
    /// of swaps performed, so a position can beat the exactly-measured
    /// starting size only if its true live size is smaller — the pass
    /// still never increases the live count, it just may miss a win that
    /// churn masked.
    fn sift_var(&mut self, v: u32) {
        let n = self.vars.len();
        let start = self.inv[v as usize] as usize;
        let mut size = self.num_nodes();
        let mut best_size = size;
        // Abort a direction once the table grows past ~1.2× the best seen.
        let limit = size + size / 5 + 2;
        let down_stop = (start + SIFT_WINDOW).min(n - 1);
        let up_stop = start.saturating_sub(SIFT_WINDOW);
        let mut cur = start;
        let mut best = start;
        while cur < down_stop {
            self.swap_adjacent(cur);
            cur += 1;
            size = self.num_nodes();
            if size < best_size {
                best_size = size;
                best = cur;
            }
            if size > limit {
                break;
            }
        }
        while cur > up_stop {
            self.swap_adjacent(cur - 1);
            cur -= 1;
            size = self.num_nodes();
            if size < best_size {
                best_size = size;
                best = cur;
            }
            if cur < start && size > limit {
                break;
            }
        }
        while cur < best {
            self.swap_adjacent(cur);
            cur += 1;
        }
        while cur > best {
            self.swap_adjacent(cur - 1);
            cur -= 1;
        }
    }

    /// Swaps levels `i` and `i+1` in place.
    ///
    /// Only level-`i` nodes that depend on the level-`i+1` variable are
    /// rewritten, and each keeps its index, so the function denoted by
    /// every allocated node — live or garbage, protected or not — is
    /// preserved. Rewrites cannot collide in the unique table: two
    /// distinct canonical nodes denote distinct functions, and the swap
    /// preserves functions.
    fn swap_adjacent(&mut self, i: usize) {
        let x = self.perm[i];
        let y = self.perm[i + 1];
        // `mk` below allocates fresh x-nodes straight into the (taken,
        // hence empty) by_var[x] list; the untouched survivors of the
        // snapshot are appended back afterwards.
        let xs = std::mem::take(&mut self.by_var[x as usize]);
        let mut keep = Vec::with_capacity(xs.len());
        for &idx32 in &xs {
            let idx = idx32 as usize;
            let node = self.nodes[idx];
            debug_assert_eq!(node.var, x, "stale by_var entry");
            let f0 = node.lo;
            let f1 = node.hi;
            let dep0 = !f0.is_terminal() && self.nodes[f0.index()].var == y;
            let dep1 = !f1.is_terminal() && self.nodes[f1.index()].var == y;
            if !dep0 && !dep1 {
                keep.push(idx32);
                continue;
            }
            let (f00, f01) = if dep0 {
                let c = self.nodes[f0.index()];
                let p = f0.raw() & 1;
                (BddRef(c.lo.raw() ^ p), BddRef(c.hi.raw() ^ p))
            } else {
                (f0, f0)
            };
            let (f10, f11) = if dep1 {
                let c = self.nodes[f1.index()];
                let p = f1.raw() & 1;
                (BddRef(c.lo.raw() ^ p), BddRef(c.hi.raw() ^ p))
            } else {
                (f1, f1)
            };
            self.unique.remove(&(x, f0.raw(), f1.raw()));
            // n = y ? (x ? f11 : f01) : (x ? f10 : f00). The grandchild
            // cofactors live at levels ≥ i+2, so the x-nodes built here
            // are valid below y's new level; f11 is regular (hi edges
            // are), hence new_hi is too and the node needs no flip.
            let new_lo = self.mk(x, f00, f10);
            let new_hi = self.mk(x, f01, f11);
            debug_assert!(!new_hi.is_complemented());
            debug_assert_ne!(new_lo, new_hi, "swapped node lost its support");
            self.nodes[idx] = Node {
                var: y,
                lo: new_lo,
                hi: new_hi,
            };
            self.by_var[y as usize].push(idx32);
            let prev = self.unique.insert((y, new_lo.raw(), new_hi.raw()), idx as u32);
            debug_assert!(prev.is_none(), "canonicity collision during swap");
        }
        self.by_var[x as usize].extend(keep);
        self.perm.swap(i, i + 1);
        self.inv[x as usize] = (i + 1) as u32;
        self.inv[y as usize] = i as u32;
    }

    /// Reclaims dead sift churn after a reorder pass.
    ///
    /// Indices at or above `pass_start` were allocated *during* the pass,
    /// so no handle outside the manager names them. Any such node
    /// unreachable from the pre-pass table (whose functions every
    /// outstanding [`BddRef`] may still read) or the protected roots is
    /// tombstoned, unlinked from the unique table, and queued for reuse
    /// by `mk_raw`.
    fn sweep_pass_churn(&mut self, pass_start: usize) {
        let len = self.nodes.len();
        let mut live = vec![false; len - pass_start];
        let mut stack: Vec<usize> = Vec::new();
        let seed = |live: &mut Vec<bool>, stack: &mut Vec<usize>, r: BddRef| {
            let i = r.index();
            if i >= pass_start && !live[i - pass_start] {
                live[i - pass_start] = true;
                stack.push(i);
            }
        };
        for idx in 1..pass_start {
            let node = self.nodes[idx];
            if node.var == u32::MAX {
                continue; // tombstone from an earlier pass
            }
            seed(&mut live, &mut stack, node.lo);
            seed(&mut live, &mut stack, node.hi);
        }
        for i in 0..self.roots.len() {
            let r = self.roots[i];
            seed(&mut live, &mut stack, r);
        }
        while let Some(idx) = stack.pop() {
            let node = self.nodes[idx];
            seed(&mut live, &mut stack, node.lo);
            seed(&mut live, &mut stack, node.hi);
        }
        let mut freed = 0usize;
        for idx in pass_start..len {
            if live[idx - pass_start] {
                continue;
            }
            let node = self.nodes[idx];
            self.unique.remove(&(node.var, node.lo.raw(), node.hi.raw()));
            self.nodes[idx] = Node {
                var: u32::MAX,
                lo: BddRef::TRUE,
                hi: BddRef::TRUE,
            };
            self.free.push(idx as u32);
            freed += 1;
        }
        if freed > 0 {
            // Reclaimed churn is returned to the budget: a reorder pass
            // must not eat into the caller's allowance for live work.
            if let Some(b) = &self.budget {
                b.credit(freed);
            }
            // Drop the tombstoned entries from the per-var lists.
            for list in &mut self.by_var {
                list.clear();
            }
            for idx in 1..len {
                let var = self.nodes[idx].var;
                if var != u32::MAX {
                    self.by_var[var as usize].push(idx as u32);
                }
            }
        }
    }

    fn mark_live(&self, extra: &[BddRef]) -> Vec<bool> {
        let mut live = vec![false; self.nodes.len()];
        let mut stack: Vec<usize> = Vec::new();
        for r in self.roots.iter().chain(extra.iter()) {
            let idx = r.index();
            if !r.is_terminal() && !live[idx] {
                live[idx] = true;
                stack.push(idx);
            }
        }
        while let Some(idx) = stack.pop() {
            let node = self.nodes[idx];
            for child in [node.lo, node.hi] {
                let ci = child.index();
                if !child.is_terminal() && !live[ci] {
                    live[ci] = true;
                    stack.push(ci);
                }
            }
        }
        live
    }

    fn live_size(&self, extra: &[BddRef]) -> usize {
        self.mark_live(extra).iter().filter(|&&b| b).count()
    }

    // ---- internal accessors for the parallel-apply module ---------------

    pub(crate) fn node_parts(&self, idx: usize) -> (u32, BddRef, BddRef) {
        let n = self.nodes[idx];
        (n.var, n.lo, n.hi)
    }

    pub(crate) fn level_of_var(&self, var: u32) -> u32 {
        self.inv[var as usize]
    }

    pub(crate) fn var_at_level(&self, level: u32) -> u32 {
        self.perm[level as usize]
    }

    pub(crate) fn mk_at(&mut self, var: u32, lo: BddRef, hi: BddRef) -> BddRef {
        self.mk(var, lo, hi)
    }

    pub(crate) fn run_auto_reorder_check(&mut self, operands: &[BddRef]) {
        self.maybe_reorder(operands);
    }
}
