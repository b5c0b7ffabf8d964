//! The on-demand `ActivityModel` against the full `ActivityReport`.
//!
//! The optimizer ranks candidates against the model, which derives only
//! the nets a rank reads; lint, `oiso analyze` and `/v1/analyze` read the
//! report, which forces every net. The two must never drift:
//!
//! * every net the model derives — queried in *reverse* id order, so no
//!   query sees the forward pass's memo state — equals the report's, bit
//!   for bit, on every bundled design and simbench's mutant corpus;
//! * the rank of every arithmetic cell under its derived activation is
//!   bit-identical on both;
//! * ranking alone allocates fewer BDD nodes than the full pass;
//! * a model built in the previous model's carried BDD manager equals a
//!   fresh model bit for bit, on the work netlists `optimize()` visits
//!   and across the mutant corpus, where carried builds trip the budget
//!   and fall back. Node counts are asserted on fresh models only: a
//!   carried model's `bdd_nodes()` counts the whole carried manager.

use operand_isolation::activity::{
    analyze_activity_with_plan, ActivityCarry, ActivityModel, ActivityOptions, BitActivity,
    PassOrigin,
};
use operand_isolation::core::precheck::{activity_rank_by, activity_rank_with_budget};
use operand_isolation::core::{
    derive_activation_functions, optimize, ActivationConfig, IsolationConfig, IsolationStyle,
    NodeBudget, RunBudget,
};
use operand_isolation::designs::{bundled, BUNDLED_NAMES};
use operand_isolation::netlist::Netlist;
use operand_isolation::sim::StimulusPlan;
use operand_isolation::verify::mutate_netlist;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Per-activation node budget, as the optimizer's ranking uses by default.
const RANK_BUDGET: usize = 50_000;

/// Whether the carried-vs-fresh chains run over their whole corpora.
/// Unoptimized builds take minutes over the large designs' BDDs, so they
/// chain only the small bundled designs and the first mutant of each
/// design; CI's `activity-smoke` job runs this file in release.
const FULL_SIZE: bool = !cfg!(debug_assertions);

/// The bundled designs whose chains unoptimized builds still run.
const SMALL_DESIGNS: [&str; 4] = ["figure1", "alu_ctrl", "busnet", "pipeline"];

/// Default-budget analysis of the eight bundled designs.
fn bundled_corpus() -> Vec<(String, Netlist, StimulusPlan)> {
    BUNDLED_NAMES
        .iter()
        .map(|&name| {
            let d = bundled(name).expect("bundled design");
            (name.to_string(), d.netlist, d.stimuli)
        })
        .collect()
}

/// simbench's fuzz-smoke mutant corpus: four structural mutants each of
/// design1, busnet and alu_ctrl.
fn mutant_corpus() -> Vec<(String, Netlist, StimulusPlan)> {
    let mut out = Vec::new();
    for name in ["design1", "busnet", "alu_ctrl"] {
        let d = bundled(name).expect("bundled design");
        for m in 0..4u64 {
            let mut rng = StdRng::seed_from_u64(d.netlist.fingerprint() ^ m);
            let mutant = mutate_netlist(&d.netlist, &mut rng, 6);
            out.push((format!("{name}#{m}"), mutant, d.stimuli.clone()));
        }
    }
    out
}

/// Checks one netlist: ranks first (recording the nodes ranking alone
/// allocates), then every net in reverse id order on the same model, so
/// the comparison also covers nets first derived in ranking order.
/// Returns whether the node budget blew.
fn check(label: &str, netlist: &Netlist, plan: &StimulusPlan, opts: &ActivityOptions) -> bool {
    let report = analyze_activity_with_plan(netlist, plan, opts);
    let mut model = ActivityModel::new(netlist, plan, opts);
    assert_eq!(
        model.budget_blown(),
        report.budget_blown,
        "{label}: budget_blown"
    );

    let acts = derive_activation_functions(netlist, &ActivationConfig::default());
    let mut ranked = 0usize;
    for cell in netlist.arithmetic_cells() {
        let Some(act) = acts.get(&cell) else { continue };
        let budget = || NodeBudget::new(RANK_BUDGET);
        let want = activity_rank_with_budget(&report, netlist, cell, act, &budget());
        let got = activity_rank_by(&mut model, netlist, cell, act, &budget());
        assert_eq!(got.to_bits(), want.to_bits(), "{label}: rank of {cell:?}");
        ranked += 1;
    }
    if ranked > 0 {
        assert!(
            model.bdd_nodes() < report.bdd_nodes,
            "{label}: ranking allocated {} nodes, the full pass {}",
            model.bdd_nodes(),
            report.bdd_nodes
        );
    }

    let ids: Vec<_> = netlist.nets().map(|(id, _)| id).collect();
    for &id in ids.iter().rev() {
        let want = report.net(id);
        let got = model.net(id);
        assert_eq!(got.exact, want.exact, "{label}: exact flag of net {id:?}");
        assert_eq!(
            got.bits.len(),
            want.bits.len(),
            "{label}: width of net {id:?}"
        );
        for (bit, (g, w)) in got.bits.iter().zip(&want.bits).enumerate() {
            assert_eq!(
                (g.p.to_bits(), g.d.to_bits()),
                (w.p.to_bits(), w.d.to_bits()),
                "{label}: net {id:?} bit {bit}: model ({}, {}) vs report ({}, {})",
                g.p,
                g.d,
                w.p,
                w.d
            );
        }
    }
    // Forcing every net allocates exactly the full pass's miters.
    assert_eq!(
        model.bdd_nodes(),
        report.bdd_nodes,
        "{label}: forced node count"
    );
    report.budget_blown
}

#[test]
fn model_matches_report_on_bundled_designs() {
    for (label, netlist, plan) in bundled_corpus() {
        assert!(
            !check(&label, &netlist, &plan, &ActivityOptions::default()),
            "{label}: the default budget covers every bundled design"
        );
    }
}

#[test]
fn model_matches_report_on_the_mutant_corpus() {
    // A budget below what the larger design1 mutants need: the blown-budget
    // fallback is part of the contract, and the default budget would take
    // minutes to exhaust in an unoptimized build.
    let opts = ActivityOptions {
        node_budget: 250_000,
        ..ActivityOptions::default()
    };
    let mut blown = 0;
    for (label, netlist, plan) in mutant_corpus() {
        blown += usize::from(check(&label, &netlist, &plan, &opts));
    }
    assert!(
        blown > 0,
        "the corpus must exercise the blown-budget fallback"
    );
}

/// The work netlists `optimize()` visits on `netlist`, in order: the input,
/// then the outcome netlist under an iteration cap of k for k = 1, 2, …
/// until a run ends before its cap.
fn visited_netlists(netlist: &Netlist, plan: &StimulusPlan, style: IsolationStyle) -> Vec<Netlist> {
    let mut out = vec![netlist.clone()];
    for k in 1.. {
        let config = IsolationConfig::default()
            .with_sim_cycles(400)
            .with_style(style)
            .with_candidate_cap(Some(2))
            .with_budget(RunBudget::unlimited().with_max_iterations(k));
        let outcome = optimize(netlist, plan, &config).expect("bundled plan drives every input");
        if outcome.netlist.fingerprint() != out.last().expect("seeded").fingerprint() {
            out.push(outcome.netlist);
        }
        if !outcome.truncated {
            return out;
        }
    }
    unreachable!("the loop returns once a run ends before its cap")
}

/// Chains models across `netlists` as `optimize()` does — ranks first,
/// then carry — and checks each carried model against a fresh one built
/// after it: every arithmetic cell's rank, every net's `(p, d)` and
/// `exact`, and `budget_blown`, bit for bit. Returns each carried model's
/// pass origin.
fn check_carried(
    label: &str,
    netlists: &[Netlist],
    plan: &StimulusPlan,
    opts: &ActivityOptions,
) -> Vec<PassOrigin> {
    let mut carry: Option<ActivityCarry> = None;
    let mut origins = Vec::new();
    for (k, netlist) in netlists.iter().enumerate() {
        let label = format!("{label} netlist {k}");
        let mut carried = ActivityModel::with_carry(netlist, plan, opts, carry.take());
        let mut fresh = ActivityModel::new(netlist, plan, opts);
        assert_eq!(
            carried.budget_blown(),
            fresh.budget_blown(),
            "{label}: budget_blown"
        );

        let acts = derive_activation_functions(netlist, &ActivationConfig::default());
        for cell in netlist.arithmetic_cells() {
            let Some(act) = acts.get(&cell) else { continue };
            let budget = || NodeBudget::new(RANK_BUDGET);
            let want = activity_rank_by(&mut fresh, netlist, cell, act, &budget());
            let got = activity_rank_by(&mut carried, netlist, cell, act, &budget());
            assert_eq!(got.to_bits(), want.to_bits(), "{label}: rank of {cell:?}");
        }
        for (id, _) in netlist.nets() {
            let want = fresh.net(id).clone();
            let got = carried.net(id);
            assert_eq!(got.exact, want.exact, "{label}: exact flag of net {id:?}");
            let bits = |n: &[BitActivity]| -> Vec<(u64, u64)> {
                n.iter().map(|b| (b.p.to_bits(), b.d.to_bits())).collect()
            };
            assert_eq!(bits(&got.bits), bits(&want.bits), "{label}: net {id:?}");
        }
        origins.push(carried.pass_origin());
        carry = carried.into_carry();
    }
    origins
}

#[test]
fn carried_models_match_fresh_ones_on_visited_netlists() {
    let mut carried = 0;
    let corpus = bundled_corpus()
        .into_iter()
        .filter(|(name, ..)| FULL_SIZE || SMALL_DESIGNS.contains(&name.as_str()));
    for (label, netlist, plan) in corpus {
        for style in [
            IsolationStyle::And,
            IsolationStyle::Or,
            IsolationStyle::Latch,
        ] {
            let visited = visited_netlists(&netlist, &plan, style);
            let label = format!("{label}/{style:?}");
            let origins = check_carried(&label, &visited, &plan, &ActivityOptions::default());
            assert_eq!(
                origins[0],
                PassOrigin::Fresh,
                "{label}: nothing to carry at first"
            );
            if style == IsolationStyle::Latch {
                // Every latch bank is a new source, so its order moves.
                assert!(
                    origins[1..].iter().all(|&o| o == PassOrigin::OrderChanged),
                    "{label}: {origins:?}"
                );
            }
            carried += origins
                .iter()
                .filter(|&&o| o == PassOrigin::Carried)
                .count();
        }
    }
    assert!(
        carried > 0,
        "no visited netlist was built in a carried manager"
    );
}

#[test]
fn carried_models_match_fresh_ones_across_the_mutant_corpus() {
    // Each mutant's visited netlists under the budget of
    // `model_matches_report_on_the_mutant_corpus`, below what the larger
    // design1 mutants need: a manager that fit it once can overflow it on
    // the next netlist, and that carried build falls back to a fresh one.
    let opts = ActivityOptions {
        node_budget: 250_000,
        ..ActivityOptions::default()
    };
    let mut fallbacks = 0;
    let corpus = mutant_corpus()
        .into_iter()
        .filter(|(label, ..)| FULL_SIZE || label.ends_with("#0"));
    for (label, mutant, plan) in corpus {
        let visited = visited_netlists(&mutant, &plan, IsolationStyle::And);
        let origins = check_carried(&label, &visited, &plan, &opts);
        fallbacks += origins
            .iter()
            .filter(|&&o| o == PassOrigin::BudgetFallback)
            .count();
    }
    assert!(fallbacks > 0, "no carried build fell back on the budget");
}
