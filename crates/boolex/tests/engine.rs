//! Property battery for the BDD engine: truth-table oracle for
//! evaluation, equivalence verdicts and probabilities, the least-model
//! witness contract of `satisfy_one`, the fixed variable order,
//! complement-edge canonicity, unique-table growth and computed-cache
//! eviction, and the hand-checked functions of the paper's examples.

use oiso_boolex::{Bdd, BddRef, BoolExpr, NodeBudget, ProbabilityMemo, Signal};
use oiso_netlist::NetId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn sig(i: usize) -> Signal {
    Signal::bit0(NetId::from_index(i))
}

/// A random factored-form expression over `vars` variables.
fn random_expr(rng: &mut StdRng, vars: usize, depth: usize) -> BoolExpr {
    if depth == 0 || rng.gen_range(0..6) == 0 {
        let leaf = BoolExpr::var(sig(rng.gen_range(0..vars)));
        return if rng.gen_bool(0.5) { leaf.not() } else { leaf };
    }
    let arity = rng.gen_range(2..4usize);
    let kids: Vec<BoolExpr> = (0..arity)
        .map(|_| random_expr(rng, vars, depth - 1))
        .collect();
    let node = if rng.gen_bool(0.5) {
        BoolExpr::and(kids)
    } else {
        BoolExpr::or(kids)
    };
    if rng.gen_bool(0.3) {
        node.not()
    } else {
        node
    }
}

fn eval_expr(expr: &BoolExpr, assignment: u32) -> bool {
    match expr {
        BoolExpr::Const(b) => *b,
        BoolExpr::Var(s) => assignment >> s.net.index() & 1 == 1,
        BoolExpr::Not(e) => !eval_expr(e, assignment),
        BoolExpr::And(es) => es.iter().all(|e| eval_expr(e, assignment)),
        BoolExpr::Or(es) => es.iter().any(|e| eval_expr(e, assignment)),
    }
}

fn assignment_fn(bits: u32) -> impl Fn(Signal) -> bool {
    move |s: Signal| bits >> s.net.index() & 1 == 1
}

#[test]
fn truth_table_oracle_up_to_12_vars() {
    let mut rng = StdRng::seed_from_u64(0xB0D);
    for case in 0..60 {
        let vars = 2 + case % 11; // 2..=12
        let expr = random_expr(&mut rng, vars, 3);
        let mut bdd = Bdd::new();
        let f = bdd.from_expr(&expr);
        for bits in 0..(1u32 << vars) {
            assert_eq!(
                bdd.eval(f, &assignment_fn(bits)),
                eval_expr(&expr, bits),
                "case {case} assignment {bits:#x}"
            );
        }
    }
}

/// `Pr(expr = 1)` by summing the weight of every satisfying assignment.
fn truth_table_probability(expr: &BoolExpr, vars: usize, p: &impl Fn(Signal) -> f64) -> f64 {
    (0..(1u32 << vars))
        .filter(|&bits| eval_expr(expr, bits))
        .map(|bits| {
            (0..vars)
                .map(|i| if bits >> i & 1 == 1 { p(sig(i)) } else { 1.0 - p(sig(i)) })
                .product::<f64>()
        })
        .sum()
}

#[test]
fn verdicts_and_probabilities_match_truth_tables() {
    let mut rng = StdRng::seed_from_u64(0x01D);
    for case in 0..80 {
        let vars = 2 + case % 7;
        let a = random_expr(&mut rng, vars, 3);
        let b = random_expr(&mut rng, vars, 3);
        let mut bdd = Bdd::new();
        let same = (0..(1u32 << vars)).all(|bits| eval_expr(&a, bits) == eval_expr(&b, bits));
        assert_eq!(bdd.equivalent(&a, &b), same, "equivalence verdict on case {case}");
        // Probability evaluation under a biased input model.
        let fa = bdd.from_expr(&a);
        let p = |s: Signal| 0.15 + 0.1 * (s.net.index() % 8) as f64;
        let exact = truth_table_probability(&a, vars, &p);
        let got = bdd.probability(fa, &p);
        assert!(
            (exact - got).abs() < 1e-12,
            "probability diverges on case {case}: {exact} vs {got}"
        );
    }
}

#[test]
fn expand_and_shared_probability_memo_agree_with_fresh_walks() {
    let mut rng = StdRng::seed_from_u64(0xE7A);
    let mut bdd = Bdd::new();
    let roots: Vec<BddRef> = (0..40)
        .map(|_| {
            let e = random_expr(&mut rng, 8, 3);
            bdd.from_expr(&e)
        })
        .collect();
    let vars_before = bdd.var_count();
    let p = |s: Signal| 0.1 + 0.1 * (s.net.index() % 8) as f64;
    let mut memo = ProbabilityMemo::default();
    for &f in &roots {
        // One memo across every root gives each root's fresh-walk value.
        let shared = bdd.probability_memo(f, &p, &mut memo);
        assert_eq!(shared.to_bits(), bdd.probability(f, &p).to_bits());
        match bdd.expand(f) {
            None => assert!(f.is_terminal()),
            Some((top, lo, hi)) => {
                assert_eq!(bdd.top_var(f), Some(top));
                assert_eq!((lo, hi), bdd.children(f));
                // Shannon: Pr(f) = p·Pr(hi) + (1 − p)·Pr(lo).
                let pt = p(top);
                let split = pt * bdd.probability(hi, &p) + (1.0 - pt) * bdd.probability(lo, &p);
                assert!((split - shared).abs() < 1e-12);
            }
        }
    }
    assert_eq!(bdd.var_count(), vars_before, "expand never registers variables");
}

#[test]
fn satisfy_one_is_the_least_model_in_manager_order() {
    // The witness contract the pinned counterexample goldens rely on:
    // with don't-cares read as 0, `satisfy_one` is the lexicographically
    // smallest model, the top level of the order being most significant.
    let mut rng = StdRng::seed_from_u64(0x5A7);
    for case in 0..60 {
        let vars = 2 + case % 8;
        let expr = random_expr(&mut rng, vars, 3);
        let mut bdd = Bdd::new();
        let f = bdd.from_expr(&expr);
        let order = bdd.order();
        // Assignment `rank` gives order[k] the bit `n-1-k` of `rank`, so
        // counting up enumerates assignments in lexicographic order.
        let n = order.len();
        let to_bits = |rank: u32| {
            (0..n)
                .filter(|k| rank >> (n - 1 - k) & 1 == 1)
                .fold(0u32, |bits, k| bits | 1 << order[k].net.index())
        };
        let least = (0..(1u32 << n)).map(to_bits).find(|&bits| eval_expr(&expr, bits));
        let witness = bdd.satisfy_one(f).map(|path| {
            let mut seen = Vec::new();
            let mut bits = 0u32;
            for (s, v) in path {
                assert!(!seen.contains(&s), "case {case}: {s} assigned twice");
                seen.push(s);
                if v {
                    bits |= 1 << s.net.index();
                }
            }
            bits
        });
        assert_eq!(witness, least, "case {case}: witness is not the least model");
    }
}

#[test]
fn complement_edge_canonicity() {
    // Building ¬f after f must cost zero nodes: the complement is the
    // same node with the parity bit flipped, so a function and its
    // complement can never both occupy table slots.
    let mut rng = StdRng::seed_from_u64(0xC0);
    for case in 0..40 {
        let vars = 2 + case % 9;
        let expr = random_expr(&mut rng, vars, 3);
        let mut bdd = Bdd::new();
        let f = bdd.from_expr(&expr);
        let nodes_after_f = bdd.num_nodes();
        let g = bdd.from_expr(&expr.clone().not());
        assert_eq!(g, f.complement(), "case {case}");
        assert_eq!(g.regular(), f.regular(), "case {case}");
        assert_eq!(
            bdd.num_nodes(),
            nodes_after_f,
            "complement allocated nodes on case {case}"
        );
    }
}

#[test]
fn variable_order_is_fixed_at_registration() {
    // `with_order` fixes the top levels; later signals append below them
    // in registration order, and no operation ever moves a variable.
    let mut bdd = Bdd::with_order([sig(3), sig(1)]);
    let mut rng = StdRng::seed_from_u64(0xF1D);
    let mut acc = bdd.from_expr(&random_expr(&mut rng, 6, 3));
    let mut registered = bdd.order();
    for _ in 0..20 {
        let f = bdd.from_expr(&random_expr(&mut rng, 6, 3));
        acc = bdd.xor(acc, f);
        let order = bdd.order();
        assert_eq!(&order[..registered.len()], &registered[..], "a level moved");
        registered = order;
    }
    assert_eq!(&registered[..2], &[sig(3), sig(1)]);
    for (level, &s) in registered.iter().enumerate() {
        assert_eq!(bdd.var_order_index(s) as usize, level);
    }
    assert_ne!(acc, BddRef::TRUE, "the xor chain stays a real function");
    assert_eq!(bdd.peak_nodes(), bdd.num_nodes(), "the table never shrinks");
}

#[test]
fn satisfy_one_returns_a_model() {
    let mut rng = StdRng::seed_from_u64(0x10DE1);
    for case in 0..40 {
        let vars = 2 + case % 9;
        let expr = random_expr(&mut rng, vars, 3);
        let mut bdd = Bdd::new();
        let f = bdd.from_expr(&expr);
        match bdd.satisfy_one(f) {
            None => assert_eq!(f, BddRef::FALSE, "case {case}"),
            Some(path) => {
                let mut bits = 0u32;
                for (s, v) in &path {
                    if *v {
                        bits |= 1 << s.net.index();
                    }
                }
                assert!(eval_expr(&expr, bits), "case {case}: model is wrong");
            }
        }
    }
}

/// A `2^vars`-bit truth table, one bit per assignment (bit `i` of the
/// assignment is `sig(i)`).
#[derive(Clone, PartialEq, Debug)]
struct Table(Vec<u64>);

impl Table {
    fn of_expr(expr: &BoolExpr, vars: usize) -> Table {
        let mut words = vec![0u64; (1usize << vars).div_ceil(64)];
        for bits in 0..(1u32 << vars) {
            if eval_expr(expr, bits) {
                words[bits as usize / 64] |= 1 << (bits % 64);
            }
        }
        Table(words)
    }

    fn zip(&self, other: &Table, op: impl Fn(u64, u64) -> u64) -> Table {
        Table(self.0.iter().zip(&other.0).map(|(&a, &b)| op(a, b)).collect())
    }

    fn ite(&self, g: &Table, h: &Table) -> Table {
        Table((0..self.0.len()).map(|i| self.0[i] & g.0[i] | !self.0[i] & h.0[i]).collect())
    }

    fn get(&self, bits: u32) -> bool {
        self.0[bits as usize / 64] >> (bits % 64) & 1 == 1
    }
}

/// One deterministic sequence of `from_expr`/`and`/`xor`/`ite` calls over
/// `vars` variables, returning every result beside its truth table.
fn op_sequence(bdd: &mut Bdd, vars: usize, steps: usize) -> Vec<(BddRef, Table)> {
    let mut rng = StdRng::seed_from_u64(0x6E0);
    let mut out: Vec<(BddRef, Table)> = Vec::new();
    for step in 0..steps {
        let e = random_expr(&mut rng, vars, 3);
        let f = (bdd.from_expr(&e), Table::of_expr(&e, vars));
        let next = if step < 2 {
            f
        } else {
            let a = out[rng.gen_range(0..out.len())].clone();
            let b = out[rng.gen_range(0..out.len())].clone();
            match step % 3 {
                0 => (bdd.and(a.0, f.0), a.1.zip(&f.1, |x, y| x & y)),
                1 => (bdd.xor(a.0, f.0), a.1.zip(&f.1, |x, y| x ^ y)),
                _ => (bdd.ite(f.0, a.0, b.0), f.1.ite(&a.1, &b.1)),
            }
        };
        out.push(next);
    }
    out
}

#[test]
fn unique_table_growth_keeps_every_function_and_node_count() {
    // Both tables start at 64 slots and the unique table doubles at 3/4
    // load, so more than 1536 stored nodes means at least six doublings
    // (64 -> 4096 slots), each of which rehashes every node.
    const VARS: usize = 12;
    let mut bdd = Bdd::new();
    let roots = op_sequence(&mut bdd, VARS, 400);
    assert!(bdd.num_nodes() > 1 + 1536, "only {} nodes", bdd.num_nodes());
    for (i, (f, table)) in roots.iter().enumerate() {
        for bits in 0..(1u32 << VARS) {
            assert_eq!(
                bdd.eval(*f, &assignment_fn(bits)),
                table.get(bits),
                "root {i} assignment {bits:#x}"
            );
        }
    }
    // A second manager fed the same sequence allocates the same nodes and
    // hands out the same edges.
    let mut again = Bdd::new();
    let replay = op_sequence(&mut again, VARS, 400);
    assert_eq!(again.num_nodes(), bdd.num_nodes());
    assert!(roots.iter().zip(&replay).all(|(a, b)| a.0 == b.0));
    // After growth every old node is still found: rebuilding allocates
    // nothing.
    let nodes = bdd.num_nodes();
    let rebuilt = op_sequence(&mut bdd, VARS, 400);
    assert!(roots.iter().zip(&rebuilt).all(|(a, b)| a.0 == b.0));
    assert_eq!(bdd.num_nodes(), nodes);
}

/// Every product bit of an `n × n` shift-add multiplier with the operand
/// words ordered one after the other (a[0..n], then b[0..n]): an order in
/// which the middle bits blow up, so the build hits the computed cache
/// with far more distinct keys than it holds.
fn multiplier_bits(bdd: &mut Bdd, n: usize) -> Vec<BddRef> {
    let a: Vec<BddRef> = (0..n).map(|i| bdd.literal(sig(i))).collect();
    let b: Vec<BddRef> = (0..n).map(|i| bdd.literal(sig(n + i))).collect();
    let mut acc = vec![BddRef::FALSE; 2 * n];
    for (j, &bj) in b.iter().enumerate() {
        let mut carry = BddRef::FALSE;
        for k in j..2 * n {
            let pp = if k - j < n { bdd.and(a[k - j], bj) } else { BddRef::FALSE };
            let half = bdd.xor(acc[k], pp);
            let sum = bdd.xor(half, carry);
            carry = bdd.ite(half, carry, acc[k]);
            acc[k] = sum;
        }
    }
    acc
}

#[test]
fn cache_eviction_never_changes_a_result_or_a_node_count() {
    // The computed cache holds at most 2^18 entries. Every node an
    // operation allocates is the result of at least one distinct cached
    // key, so a build that allocates more nodes than that has overflowed
    // the cache and evicted entries. Replaying it on the same manager then
    // recomputes the lost entries, which must find every node already in
    // the unique table.
    const CACHE_MAX: usize = 1 << 18;
    const N: usize = 10;
    let mut bdd = Bdd::new();
    let first = multiplier_bits(&mut bdd, N);
    let nodes = bdd.num_nodes();
    assert!(nodes > 1 + 2 * N + CACHE_MAX, "only {nodes} nodes");
    let second = multiplier_bits(&mut bdd, N);
    assert_eq!(first, second);
    assert_eq!(bdd.num_nodes(), nodes);
    // Spot-check the product against integer multiplication.
    let mut rng = StdRng::seed_from_u64(0x3C7);
    for _ in 0..200 {
        let (x, y) = (rng.gen_range(0..1u32 << N), rng.gen_range(0..1u32 << N));
        let bits = x | y << N;
        let got = (0..2 * N)
            .filter(|&k| bdd.eval(first[k], &assignment_fn(bits)))
            .fold(0u32, |p, k| p | 1 << k);
        assert_eq!(got, x * y, "{x} * {y}");
    }
}

#[test]
fn node_budget_is_shared_across_managers() {
    let budget = NodeBudget::new(10);
    let mut a = Bdd::new();
    let mut b = Bdd::new();
    a.set_budget(budget.clone());
    b.set_budget(budget.clone());
    let mut rng = StdRng::seed_from_u64(7);
    let ea = random_expr(&mut rng, 6, 3);
    let eb = random_expr(&mut rng, 6, 3);
    a.from_expr(&ea);
    b.from_expr(&eb);
    assert_eq!(
        budget.used(),
        (a.num_nodes() - 1) + (b.num_nodes() - 1),
        "shared budget must see both managers' allocations"
    );
    assert!(budget.exceeded() || budget.used() <= 10);
}

#[test]
fn budget_never_blocks_operations() {
    // Exhausting the budget keeps operations infallible; callers poll.
    let mut bdd = Bdd::new();
    bdd.set_budget(NodeBudget::new(1));
    let expr = BoolExpr::and((0..8).map(|i| BoolExpr::var(sig(i))).collect());
    let f = bdd.from_expr(&expr);
    assert!(bdd.budget_exceeded());
    for bits in 0..(1u32 << 8) {
        assert_eq!(bdd.eval(f, &assignment_fn(bits)), eval_expr(&expr, bits));
    }
}

// Hand-checked functions, including the paper's Figure 1/2 activations.

fn v(i: usize) -> BoolExpr {
    BoolExpr::var(sig(i))
}

#[test]
fn tautology_and_contradiction_reach_the_terminals() {
    let mut bdd = Bdd::new();
    assert_eq!(bdd.from_expr(&BoolExpr::or2(v(0), v(0).not())), BddRef::TRUE);
    assert_eq!(bdd.from_expr(&BoolExpr::and2(v(0), v(0).not())), BddRef::FALSE);
}

#[test]
fn probability_of_simple_functions() {
    let mut bdd = Bdd::new();
    let f = bdd.from_expr(&BoolExpr::and2(v(0), v(1)));
    assert!((bdd.probability(f, &|_| 0.5) - 0.25).abs() < 1e-12);
    let g = bdd.from_expr(&BoolExpr::or2(v(0), v(1)));
    assert!((bdd.probability(g, &|_| 0.5) - 0.75).abs() < 1e-12);
    let ph = bdd.probability(f, &|s| if s == sig(0) { 0.1 } else { 0.8 });
    assert!((ph - 0.08).abs() < 1e-12);
    // Majority of 3 shares subgraphs: Pr = 0.5 at p = 0.5.
    let maj = bdd.from_expr(&BoolExpr::or(vec![
        BoolExpr::and2(v(0), v(1)),
        BoolExpr::and2(v(0), v(2)),
        BoolExpr::and2(v(1), v(2)),
    ]));
    assert!((bdd.probability(maj, &|_| 0.5) - 0.5).abs() < 1e-12);
}

#[test]
fn implication_and_difference() {
    let mut bdd = Bdd::new();
    let xy = bdd.from_expr(&BoolExpr::and2(v(0), v(1)));
    let x = bdd.from_expr(&v(0));
    assert!(bdd.implies(xy, x), "x&y -> x");
    assert!(!bdd.implies(x, xy), "x -/-> x&y");
    // The difference of x over x&y is exactly x&!y.
    let diff = bdd.and_not(x, xy);
    let expect = bdd.from_expr(&BoolExpr::and2(v(0), v(1).not()));
    assert_eq!(diff, expect);
    assert!(bdd.implies(BddRef::FALSE, x));
    assert!(bdd.implies(x, BddRef::TRUE));
}

#[test]
fn xor_miter_of_equal_functions_is_unsatisfiable() {
    let mut bdd = Bdd::new();
    let a = bdd.literal(sig(0));
    let b = bdd.literal(sig(1));
    let x = bdd.xor(a, b);
    assert!(bdd.eval(x, &|s| s == sig(0)));
    assert!(bdd.eval(x, &|s| s == sig(1)));
    assert!(!bdd.eval(x, &|_| true));
    assert!(!bdd.eval(x, &|_| false));
    // x&(y+z) against its distributed form.
    let lhs = bdd.from_expr(&BoolExpr::and2(v(0), BoolExpr::or2(v(1), v(2))));
    let rhs = bdd.from_expr(&BoolExpr::or2(
        BoolExpr::and2(v(0), v(1)),
        BoolExpr::and2(v(0), v(2)),
    ));
    let miter = bdd.xor(lhs, rhs);
    assert_eq!(bdd.satisfy_one(miter), None);
}

#[test]
fn satisfy_one_is_deterministic_and_prefers_low() {
    let mut bdd = Bdd::new();
    assert_eq!(bdd.satisfy_one(BddRef::FALSE), None);
    assert_eq!(bdd.satisfy_one(BddRef::TRUE), Some(vec![]));
    // x&!y: the unique model restricted to its support.
    let f = bdd.from_expr(&BoolExpr::and2(v(0), v(1).not()));
    assert_eq!(bdd.satisfy_one(f), Some(vec![(sig(0), true), (sig(1), false)]));
    // x + y: the low-preferring walk gives x=0, y=1, on every call.
    let g = bdd.from_expr(&BoolExpr::or2(v(0), v(1)));
    let first = bdd.satisfy_one(g).unwrap();
    assert_eq!(first, vec![(sig(0), false), (sig(1), true)]);
    assert_eq!(bdd.satisfy_one(g).unwrap(), first);
}

#[test]
fn paper_activation_functions_differ() {
    // AS_a0 = G0 vs AS_a1 = !S2&G1 + !S0&S1&G0 are different functions.
    let as_a0 = v(3);
    let as_a1 = BoolExpr::or2(
        BoolExpr::and2(v(2).not(), v(4)),
        BoolExpr::and(vec![v(0).not(), v(1), v(3)]),
    );
    let mut bdd = Bdd::new();
    assert!(!bdd.equivalent(&as_a0, &as_a1));
    assert!(bdd.equivalent(&as_a1, &as_a1.clone().not().not()));
}

#[test]
fn node_sharing_keeps_the_table_small() {
    // A 16-literal AND chain needs one node per variable; accumulating
    // it leaves at most quadratic garbage in the table.
    let mut bdd = Bdd::new();
    let f = bdd.from_expr(&BoolExpr::and((0..16).map(v).collect()));
    assert!(bdd.num_nodes() <= 1 + 16 * 17 / 2, "{} nodes", bdd.num_nodes());
    assert!(bdd.eval(f, &|_| true));
    assert!(!bdd.eval(f, &|s| s != sig(7)));
}
