//! Property battery for the production BDD engine: truth-table oracle,
//! agreement with the old `boolex::bdd` prototype, sifting invariants,
//! parallel-apply determinism, and complement-edge canonicity.

use oiso_bdd::{Bdd, BddOp, BddRef, NodeBudget, ProbabilityMemo, ReorderPolicy};
use oiso_boolex::{BoolExpr, Signal};
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

#[test]
fn agrees_with_old_boolex_engine() {
    let mut rng = StdRng::seed_from_u64(0x01D);
    for case in 0..80 {
        let vars = 2 + case % 7;
        let a = random_expr(&mut rng, vars, 3);
        let b = random_expr(&mut rng, vars, 3);
        let mut old = oiso_boolex::Bdd::new();
        let mut new = Bdd::new();
        assert_eq!(
            old.equivalent(&a, &b),
            new.equivalent(&a, &b),
            "equivalence verdicts diverge on case {case}"
        );
        // Probability evaluation agrees under a biased input model.
        let fa_old = old.from_expr(&a);
        let fa_new = new.from_expr(&a);
        let p = |s: Signal| 0.15 + 0.1 * (s.net.index() % 8) as f64;
        let po = old.probability(fa_old, &p);
        let pn = new.probability(fa_new, &p);
        assert!(
            (po - pn).abs() < 1e-12,
            "probability diverges on case {case}: {po} vs {pn}"
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
fn satisfy_one_matches_old_engine_paths() {
    // Same function, same order, no reorder ⇒ the low-preferring walk
    // must extract the identical witness the old engine produced (the
    // counterexample-stability contract for pinned goldens).
    let mut rng = StdRng::seed_from_u64(0x5A7);
    for case in 0..60 {
        let vars = 2 + case % 8;
        let expr = random_expr(&mut rng, vars, 3);
        let mut old = oiso_boolex::Bdd::new();
        let mut new = Bdd::new();
        let fo = old.from_expr(&expr);
        let fn_ = new.from_expr(&expr);
        assert_eq!(
            old.satisfy_one(fo),
            new.satisfy_one(fn_),
            "witness diverges on case {case}"
        );
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
fn sifting_preserves_functions_and_never_exceeds_peak() {
    let mut rng = StdRng::seed_from_u64(0x51F7);
    for case in 0..25 {
        let vars = 3 + case % 8;
        let exprs: Vec<BoolExpr> =
            (0..3).map(|_| random_expr(&mut rng, vars, 3)).collect();
        let mut bdd = Bdd::new();
        let roots: Vec<BddRef> =
            exprs.iter().map(|e| bdd.from_expr(e)).collect();
        for &r in &roots {
            bdd.protect(r);
        }
        let live_before = bdd.live_nodes();
        bdd.reorder();
        assert_eq!(bdd.reorder_count(), 1);
        assert!(
            bdd.live_nodes() <= live_before,
            "case {case}: live {} > pre-reorder peak {}",
            bdd.live_nodes(),
            live_before
        );
        // Handles survive the reorder with their functions intact.
        for (expr, &r) in exprs.iter().zip(&roots) {
            for bits in 0..(1u32 << vars) {
                assert_eq!(
                    bdd.eval(r, &assignment_fn(bits)),
                    eval_expr(expr, bits),
                    "case {case} function changed at {bits:#x}"
                );
            }
        }
        // The manager stays canonical after swaps: rebuilding an
        // expression lands on the same handle.
        for (expr, &r) in exprs.iter().zip(&roots) {
            assert_eq!(bdd.from_expr(expr), r, "case {case} lost canonicity");
        }
    }
}

#[test]
fn auto_reorder_triggers_on_growth() {
    let mut bdd = Bdd::new();
    bdd.set_reorder_policy(ReorderPolicy::Auto(32));
    let mut rng = StdRng::seed_from_u64(0xA7);
    let mut acc = bdd.from_expr(&random_expr(&mut rng, 10, 3));
    for _ in 0..20 {
        let f = bdd.from_expr(&random_expr(&mut rng, 10, 3));
        acc = bdd.xor(acc, f);
    }
    assert!(bdd.reorder_count() >= 1, "threshold never fired");
}

#[test]
fn parallel_apply_is_thread_count_invariant() {
    let build = |threads: usize| {
        let mut rng = StdRng::seed_from_u64(0x9AB);
        let mut bdd = Bdd::new();
        let budget = NodeBudget::new(1_000_000);
        bdd.set_budget(budget.clone());
        let jobs: Vec<(BddOp, BddRef, BddRef)> = (0..12)
            .map(|i| {
                let a = bdd.from_expr(&random_expr(&mut rng, 9, 3));
                let b = bdd.from_expr(&random_expr(&mut rng, 9, 3));
                let op = match i % 3 {
                    0 => BddOp::And,
                    1 => BddOp::Or,
                    _ => BddOp::Xor,
                };
                (op, a, b)
            })
            .collect();
        let results = bdd.apply_batch(threads, &jobs);
        (results, bdd.num_nodes(), budget.used())
    };
    let baseline = build(1);
    for threads in [2, 4] {
        assert_eq!(
            build(threads),
            baseline,
            "apply_batch diverges at {threads} threads"
        );
    }
}

#[test]
fn parallel_apply_matches_serial_ops() {
    let mut rng = StdRng::seed_from_u64(0x7E57);
    let mut bdd = Bdd::new();
    let jobs: Vec<(BddOp, BddRef, BddRef)> = (0..9)
        .map(|i| {
            let a = bdd.from_expr(&random_expr(&mut rng, 8, 3));
            let b = bdd.from_expr(&random_expr(&mut rng, 8, 3));
            let op = match i % 3 {
                0 => BddOp::And,
                1 => BddOp::Or,
                _ => BddOp::Xor,
            };
            (op, a, b)
        })
        .collect();
    let batched = bdd.apply_batch(4, &jobs);
    for (&(op, a, b), &r) in jobs.iter().zip(&batched) {
        let direct = match op {
            BddOp::And => bdd.and(a, b),
            BddOp::Or => bdd.or(a, b),
            BddOp::Xor => bdd.xor(a, b),
        };
        assert_eq!(direct, r, "batched result disagrees with serial op");
    }
}

#[test]
fn sat_count_matches_truth_table() {
    let mut rng = StdRng::seed_from_u64(0x5EED);
    for case in 0..40 {
        let vars = 2 + case % 10;
        let expr = random_expr(&mut rng, vars, 3);
        // Register every variable so the model count ranges over all
        // `vars` inputs even when the expression's support is smaller.
        let mut bdd = Bdd::with_order((0..vars).map(sig));
        let f = bdd.from_expr(&expr);
        let expected = (0..(1u32 << vars))
            .filter(|&bits| eval_expr(&expr, bits))
            .count() as u128;
        assert_eq!(bdd.sat_count(f), expected, "case {case}");
        assert_eq!(
            bdd.sat_count(f.complement()),
            (1u128 << vars) - expected,
            "complement count, case {case}"
        );
    }
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

#[test]
fn quantification_compose_restrict_semantics() {
    let mut rng = StdRng::seed_from_u64(0xE715);
    for case in 0..30 {
        let vars = 3 + case % 6;
        let expr = random_expr(&mut rng, vars, 3);
        let g_expr = random_expr(&mut rng, vars, 2);
        let v = sig(case % vars);
        let mut bdd = Bdd::new();
        let f = bdd.from_expr(&expr);
        let g = bdd.from_expr(&g_expr);

        let r0 = bdd.restrict(f, v, false);
        let r1 = bdd.restrict(f, v, true);
        let ex = bdd.exists(f, v);
        let fa = bdd.forall(f, v);
        let or = bdd.or(r0, r1);
        let and = bdd.and(r0, r1);
        assert_eq!(ex, or, "exists != r0|r1, case {case}");
        assert_eq!(fa, and, "forall != r0&r1, case {case}");

        let composed = bdd.compose(f, v, g);
        let expected = bdd.ite(g, r1, r0);
        assert_eq!(composed, expected, "compose != ite(g,f1,f0), case {case}");
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
