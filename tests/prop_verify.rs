//! Property-based tests for the equivalence checker and fuzz harness.
//!
//! Two universal properties anchor the harness's trustworthiness:
//!
//! * **Soundness of the transform + checker pair**: on any random design
//!   (mutations included), every candidate the activation sweep accepts is
//!   equivalence-clean after isolation — no false alarms, no real bugs.
//! * **Sensitivity**: a corrupted activation on a genuinely observable
//!   candidate is always caught, and the witness always reproduces on the
//!   concrete simulator (no phantom counterexamples).

use operand_isolation::boolex::BoolExpr;
use operand_isolation::core::{
    derive_activation_functions, optimize, ActivationConfig, IsolationConfig, IsolationStyle,
};
use operand_isolation::designs::random::{self, RandomParams};
use operand_isolation::netlist::{CellKind, Netlist, NetlistBuilder};
use operand_isolation::verify::{
    run_case, FuzzConfig, Proof, ReplayVerdict, VerifyConfig, VerifyOutcome,
    verify_isolation_plan,
};
use proptest::prelude::*;

/// width-bit x + y into a g-enabled register: always observable via g.
fn gated_adder(width: u8) -> Netlist {
    let mut b = NetlistBuilder::new("ga");
    let x = b.input("x", width);
    let y = b.input("y", width);
    let g = b.input("g", 1);
    let s = b.wire("s", width);
    let q = b.wire("q", width);
    b.cell("add", CellKind::Add, &[x, y], s).unwrap();
    b.cell("r", CellKind::Reg { has_enable: true }, &[s, g], q)
        .unwrap();
    b.mark_output(q);
    b.build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        ..ProptestConfig::default()
    })]

    /// The shipped transform is equivalence-clean on arbitrary fuzz cases:
    /// random design, random mutations, random styles — zero violations,
    /// zero structural failures, and the case must do real work.
    #[test]
    fn accepted_candidates_are_equivalence_clean(seed in 0u64..100_000, index in 0usize..64) {
        let config = FuzzConfig { seed, ..FuzzConfig::default() };
        let outcome = run_case(&config, index);
        prop_assert!(outcome.violations.is_empty(), "{outcome:?}");
        prop_assert!(outcome.transform_error.is_none(), "{outcome:?}");
        // Without sabotage every skip happens inside the plan, so the
        // accounting must balance exactly.
        prop_assert_eq!(
            outcome.candidates,
            outcome.bdd_proved + outcome.sampled + outcome.violations.len() + outcome.skipped,
            "candidate accounting must balance: {:?}", outcome
        );
    }

    /// A forced-FALSE activation on an observable candidate is always
    /// caught, and the counterexample always replays concretely.
    #[test]
    fn corrupted_activation_is_caught(width in 4u8..16, style_idx in 0usize..3) {
        let n = gated_adder(width);
        let add = n.find_cell("add").unwrap();
        let style = IsolationStyle::ALL[style_idx];
        // Sanity: the derived activation is the register enable, not const.
        let acts = derive_activation_functions(&n, &ActivationConfig::default());
        prop_assert!(!acts[&add].is_const(true) && !acts[&add].is_const(false));

        let plan = vec![(add, BoolExpr::FALSE, style)];
        let (_, checks) =
            verify_isolation_plan(&n, &plan, &VerifyConfig::default()).unwrap();
        let VerifyOutcome::Violation { ref counterexample, ref replay } = checks[0].outcome
        else {
            panic!(
                "style {style:?} width {width}: sabotage not caught: {:?}",
                checks[0].outcome
            );
        };
        prop_assert!(
            matches!(replay, ReplayVerdict::Confirmed { .. }),
            "witness must reproduce: {replay:?}"
        );
        // Any witness must enable the register: g = 1.
        prop_assert_eq!(counterexample.input("g"), Some(1));
    }

    /// The correct activation, by contrast, verifies in every style at
    /// every width (symbolically — adders stay within budget).
    #[test]
    fn derived_activation_verifies(width in 4u8..16, style_idx in 0usize..3) {
        let n = gated_adder(width);
        let add = n.find_cell("add").unwrap();
        let acts = derive_activation_functions(&n, &ActivationConfig::default());
        let plan = vec![(add, acts[&add].clone(), IsolationStyle::ALL[style_idx])];
        let (_, checks) =
            verify_isolation_plan(&n, &plan, &VerifyConfig::default()).unwrap();
        prop_assert!(checks[0].outcome.is_verified(), "{:?}", checks[0].outcome);
    }
}

/// FNV-1a over `seed`'s bytes then `name`'s bytes: the per-design
/// stimulus seed the end-to-end benchmark derives for each design label.
fn fnv(seed: u64, name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in seed.to_le_bytes().into_iter().chain(name.bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// The eight random 48-op, 16-bit datapaths of the benchmark's `scaled`
/// workload, stimulated as at `--seed 1`: every step `optimize()` accepts
/// proves by BDD at the default budget. Structure 1000's step `u2` feeds
/// a cascade of arithmetic cells, and proves only because each
/// downstream cut reuses its upstream cut's guard.
#[test]
fn scaled_workload_plans_prove_every_step_by_bdd() {
    const STRUCTURES: [u64; 8] = [1000, 1003, 1006, 1010, 1011, 1014, 1024, 1037];
    let config = IsolationConfig::default().with_threads(2);
    let mut steps = 0;
    for (i, structure) in STRUCTURES.into_iter().enumerate() {
        let design = random::build(&RandomParams {
            seed: structure,
            ops: 48,
            width: 16,
        })
        .with_seed(fnv(1, &format!("random{i}")));
        let outcome = optimize(&design.netlist, &design.stimuli, &config).unwrap();
        let plan: Vec<_> = outcome
            .isolated
            .iter()
            .map(|r| (r.candidate, r.activation.clone(), r.style))
            .collect();
        let (last, checks) =
            verify_isolation_plan(&design.netlist, &plan, &VerifyConfig::default()).unwrap();
        assert_eq!(last.fingerprint(), outcome.netlist.fingerprint());
        for check in &checks {
            assert!(
                matches!(check.outcome, VerifyOutcome::Verified(Proof::Bdd { .. })),
                "structure {structure}, step {}: {:?}",
                check.candidate,
                check.outcome
            );
        }
        steps += checks.len();
    }
    assert_eq!(steps, 51);
}
