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
//! * ranking alone allocates fewer BDD nodes than the full pass.

use operand_isolation::activity::{analyze_activity_with_plan, ActivityModel, ActivityOptions};
use operand_isolation::core::precheck::{activity_rank_by, activity_rank_with_budget};
use operand_isolation::core::{derive_activation_functions, ActivationConfig, NodeBudget};
use operand_isolation::designs::{bundled, BUNDLED_NAMES};
use operand_isolation::netlist::Netlist;
use operand_isolation::sim::StimulusPlan;
use operand_isolation::verify::mutate_netlist;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Per-activation node budget, as the optimizer's ranking uses by default.
const RANK_BUDGET: usize = 50_000;

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
