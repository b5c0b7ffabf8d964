//! The BDD manager: hash-consed unique table with complement edges and
//! a bounded, lossy computed cache over a fixed variable order.
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
//! # Tables
//!
//! The unique table is an open-addressed array of node indices, probed
//! linearly from a multiply-mix of `(var, lo, hi)` and compared against
//! the node array itself, so it stores no keys. Slot 0 means empty (the
//! terminal is never hashed). It starts at 64 slots and doubles at ¾ load.
//!
//! The computed table is a direct-mapped cache of `(op, a, b, c) → r`
//! entries, overwritten on collision. It grows with the unique table up
//! to [`CACHE_MAX`] entries and never past it. Losing an entry cannot
//! change a result or a node count: the nodes are canonical, so a
//! recomputation rebuilds the same function through `mk` calls whose
//! nodes all already sit in the unique table. Node indices, budget
//! debits and `num_nodes` are therefore those of an unbounded memo.
//!
//! # Variable order
//!
//! A variable's id *is* its level: ids are handed out in registration
//! order (or as given to [`Bdd::with_order`]) and never move. Nodes are
//! never freed either, so every [`BddRef`] stays valid for the manager's
//! lifetime and the table only grows.

use super::hash::{mix3, IntMap};
use super::NodeBudget;
use crate::expr::{BoolExpr, Signal};

/// A handle to a BDD function: node index plus complement flag.
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

    fn index(self) -> usize {
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
pub struct ProbabilityMemo(IntMap<u32, f64>);

#[derive(Clone, Copy, Debug)]
struct Node {
    /// Variable id, which is also its level; `u32::MAX` for the terminal.
    var: u32,
    lo: BddRef,
    /// Always a regular edge (canonical-form invariant).
    hi: BddRef,
}

/// Initial slot count of both tables: most managers (one per `minimize`
/// call, per activation derivation, per precheck) stay tiny.
const INITIAL_SLOTS: usize = 64;

/// The computed cache's entry cap (4 MiB of entries).
const CACHE_MAX: usize = 1 << 18;

/// The third key word of AND and XOR entries. ITE entries carry their
/// else-branch there instead, which is never a terminal once `ite` has
/// routed its two-operand shapes to AND, so the three never collide.
const OP_AND: u32 = 0;
const OP_XOR: u32 = 1;

/// One computed-cache entry. Every cached operation has a non-terminal
/// first operand (`a ≥ 2`), so the all-zero entry is an empty slot that
/// no lookup matches.
#[derive(Clone, Copy, Default)]
struct CacheEntry {
    a: u32,
    b: u32,
    c: u32,
    r: u32,
}

/// A reduced ordered BDD manager with complement edges.
///
/// Variables are [`Signal`]s, ordered by first registration (or
/// explicitly via [`Bdd::with_order`]); the order never changes.
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
    /// Open-addressed `(var, lo, hi)` → node index; 0 is an empty slot.
    unique: Vec<u32>,
    /// `64 − log2(unique.len())`: takes a key's hash to its home slot.
    unique_shift: u32,
    /// Direct-mapped, lossy `(op, a, b, c)` → result cache.
    computed: Vec<CacheEntry>,
    /// `64 − log2(computed.len())`.
    computed_shift: u32,
    /// var id (= level) → signal.
    vars: Vec<Signal>,
    var_index: IntMap<Signal, u32>,
    budget: Option<NodeBudget>,
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
            unique: vec![0; INITIAL_SLOTS],
            unique_shift: shift_for(INITIAL_SLOTS),
            computed: vec![CacheEntry::default(); INITIAL_SLOTS],
            computed_shift: shift_for(INITIAL_SLOTS),
            vars: Vec::new(),
            var_index: IntMap::default(),
            budget: None,
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

    /// Number of allocated nodes (terminal included). Nothing is ever
    /// freed — garbage stays allocated, so every outstanding [`BddRef`]
    /// remains valid.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// High-water mark of [`Bdd::num_nodes`]: the same number, since the
    /// table never shrinks.
    pub fn peak_nodes(&self) -> usize {
        self.num_nodes()
    }

    /// Number of registered variables.
    pub fn var_count(&self) -> usize {
        self.vars.len()
    }

    /// The variable order, top level first.
    pub fn order(&self) -> Vec<Signal> {
        self.vars.clone()
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

    fn var_id(&mut self, sig: Signal) -> u32 {
        if let Some(&id) = self.var_index.get(&sig) {
            return id;
        }
        let id = self.vars.len() as u32;
        self.vars.push(sig);
        self.var_index.insert(sig, id);
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
            self.node(r).var
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
        let mask = self.unique.len() - 1;
        let mut slot = (mix3(var, lo.raw(), hi.raw()) >> self.unique_shift) as usize;
        loop {
            let idx = self.unique[slot];
            if idx == 0 {
                break;
            }
            let node = &self.nodes[idx as usize];
            if node.var == var && node.lo == lo && node.hi == hi {
                return BddRef(idx << 1);
            }
            slot = (slot + 1) & mask;
        }
        let idx = self.nodes.len() as u32;
        self.nodes.push(Node { var, lo, hi });
        if let Some(b) = &self.budget {
            b.debit(1);
        }
        self.unique[slot] = idx;
        if 4 * idx as usize > 3 * self.unique.len() {
            self.grow();
        }
        BddRef(idx << 1)
    }

    /// Doubles the unique table, rehashing every node, and lets the
    /// computed cache follow it up to [`CACHE_MAX`].
    fn grow(&mut self) {
        let slots = 2 * self.unique.len();
        let shift = shift_for(slots);
        let mut unique = vec![0u32; slots];
        for (idx, node) in self.nodes.iter().enumerate().skip(1) {
            let mut slot = (mix3(node.var, node.lo.raw(), node.hi.raw()) >> shift) as usize;
            while unique[slot] != 0 {
                slot = (slot + 1) & (slots - 1);
            }
            unique[slot] = idx as u32;
        }
        self.unique = unique;
        self.unique_shift = shift;

        let entries = slots.min(CACHE_MAX);
        if entries > self.computed.len() {
            let old = std::mem::replace(&mut self.computed, vec![CacheEntry::default(); entries]);
            self.computed_shift = shift_for(entries);
            for e in old.into_iter().filter(|e| e.a != 0) {
                self.cache_put(e.a, e.b, e.c, e.r);
            }
        }
    }

    fn cache_slot(&self, a: u32, b: u32, c: u32) -> usize {
        (mix3(a, b, c) >> self.computed_shift) as usize
    }

    fn cache_get(&self, a: u32, b: u32, c: u32) -> Option<u32> {
        let e = self.computed[self.cache_slot(a, b, c)];
        (e.a == a && e.b == b && e.c == c).then_some(e.r)
    }

    fn cache_put(&mut self, a: u32, b: u32, c: u32, r: u32) {
        debug_assert!(a >= 2, "cached operands are non-terminal");
        let slot = self.cache_slot(a, b, c);
        self.computed[slot] = CacheEntry { a, b, c, r };
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

    /// Disjunction, via De Morgan on the AND memo.
    pub fn or(&mut self, a: BddRef, b: BddRef) -> BddRef {
        self.and(a.complement(), b.complement()).complement()
    }

    /// The difference `a · ¬b`.
    pub fn and_not(&mut self, a: BddRef, b: BddRef) -> BddRef {
        self.and(a, b.complement())
    }

    /// Whether `a → b` holds for every assignment.
    pub fn implies(&mut self, a: BddRef, b: BddRef) -> bool {
        self.and_not(a, b) == BddRef::FALSE
    }

    /// Conjunction.
    pub fn and(&mut self, f: BddRef, g: BddRef) -> BddRef {
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
        if let Some(r) = self.cache_get(a.raw(), b.raw(), OP_AND) {
            return BddRef::from_raw(r);
        }
        let v = self.top_level_var2(a, b);
        let (a0, a1) = self.cofactors_at(a, v);
        let (b0, b1) = self.cofactors_at(b, v);
        let lo = self.and(a0, b0);
        let hi = self.and(a1, b1);
        let r = self.mk(v, lo, hi);
        self.cache_put(a.raw(), b.raw(), OP_AND, r.raw());
        r
    }

    /// Exclusive or.
    pub fn xor(&mut self, f: BddRef, g: BddRef) -> BddRef {
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
        if let Some(r) = self.cache_get(a.raw(), b.raw(), OP_XOR) {
            return BddRef::from_raw(r ^ parity);
        }
        let v = self.top_level_var2(a, b);
        let (a0, a1) = self.cofactors_at(a, v);
        let (b0, b1) = self.cofactors_at(b, v);
        let lo = self.xor(a0, b0);
        let hi = self.xor(a1, b1);
        let r = self.mk(v, lo, hi);
        self.cache_put(a.raw(), b.raw(), OP_XOR, r.raw());
        BddRef::from_raw(r.raw() ^ parity)
    }

    /// If-then-else: the canonical ternary combinator.
    pub fn ite(&mut self, f: BddRef, g: BddRef, h: BddRef) -> BddRef {
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
            return self.and(f.complement(), h.complement()).complement();
        }
        if g == BddRef::FALSE {
            return self.and(f.complement(), h);
        }
        if h == BddRef::FALSE {
            return self.and(f, g);
        }
        if h == BddRef::TRUE {
            return self.and(f, g.complement()).complement();
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
        debug_assert!(!h.is_terminal(), "ITE keys must not collide with AND/XOR tags");
        if let Some(r) = self.cache_get(f.raw(), g.raw(), h.raw()) {
            return BddRef::from_raw(r ^ parity);
        }
        let v = self.top_level_var3(f, g, h);
        let (f0, f1) = self.cofactors_at(f, v);
        let (g0, g1) = self.cofactors_at(g, v);
        let (h0, h1) = self.cofactors_at(h, v);
        let lo = self.ite(f0, g0, h0);
        let hi = self.ite(f1, g1, h1);
        let r = self.mk(v, lo, hi);
        self.cache_put(f.raw(), g.raw(), h.raw(), r.raw());
        BddRef::from_raw(r.raw() ^ parity)
    }

    fn top_level_var2(&self, a: BddRef, b: BddRef) -> u32 {
        let top = self.level_of(a).min(self.level_of(b));
        debug_assert_ne!(top, u32::MAX);
        top
    }

    fn top_level_var3(&self, a: BddRef, b: BddRef, c: BddRef) -> u32 {
        let top = self
            .level_of(a)
            .min(self.level_of(b))
            .min(self.level_of(c));
        debug_assert_ne!(top, u32::MAX);
        top
    }

    /// Builds the BDD of a factored-form expression. The expression's
    /// support is registered (in sorted signal order) before building, so
    /// managers constructed from the same expression agree on the order.
    pub fn from_expr(&mut self, expr: &BoolExpr) -> BddRef {
        for sig in expr.support() {
            self.var_id(sig);
        }
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
                    acc = self.and(acc, operand);
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
                    acc = self.and(acc.complement(), operand.complement()).complement();
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

    /// Position of a signal in the manager's variable order.
    ///
    /// # Panics
    ///
    /// Panics if the signal was never registered in this manager.
    pub fn var_order_index(&self, sig: Signal) -> u32 {
        self.var_index[&sig]
    }

    /// The negative/positive cofactors of `f` with respect to `sig`,
    /// when `sig` labels `f`'s top node; `(f, f)` otherwise.
    pub fn cofactor_by(&mut self, f: BddRef, sig: Signal) -> (BddRef, BddRef) {
        let var = self.var_id(sig);
        self.cofactors_at(f, var)
    }

    /// One satisfying assignment of `f`, or `None` if unsatisfiable.
    ///
    /// Deterministic low-branch-preferring walk: variables absent from
    /// the result are don't-cares on the extracted path. Read with the
    /// don't-cares as 0, the witness is the lexicographically smallest
    /// model in the manager's variable order (top level most significant),
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
    /// The memo is keyed by node index: it stays valid as the manager
    /// grows (indices are never recycled) and must be dropped on a change
    /// of `prob`.
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
        cache: &mut IntMap<u32, f64>,
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
}

/// The hash shift that maps a 64-bit mix onto `slots` (a power of two).
fn shift_for(slots: usize) -> u32 {
    debug_assert!(slots.is_power_of_two());
    64 - slots.trailing_zeros()
}
