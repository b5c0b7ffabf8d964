//! Formal verification and fuzzing of the operand-isolation transform.
//!
//! The isolation transform (`oiso_core`) splices AND/OR/latch banks in
//! front of arithmetic operands, gated by a derived activation function
//! `AS`. The paper's correctness obligation is `f_c → (out ≡ out')`: the
//! transformed datapath must be indistinguishable whenever its result is
//! observable. This crate discharges that obligation three ways:
//!
//! 1. **BDD equivalence check** ([`check_equivalence`]) — per-observable
//!    miters over shared input/state variables; an inductive argument (see
//!    [`check`]) lifts the single-cycle proof to full sequential
//!    equivalence. One symbolic builder serves both of its phases: an
//!    arithmetic cut-point phase, which runs whenever the original has an
//!    arithmetic cell, then the concrete phase, which alone reports
//!    budget exhaustion or a refutation with a concrete
//!    [`Counterexample`].
//! 2. **Differential replay** ([`replay_counterexample`],
//!    [`differential_sample`]) — every symbolic witness is replayed on the
//!    concrete simulator of both netlists, and designs too wide for BDDs
//!    (multipliers) fall back to seeded random sampling.
//! 3. **Fuzzing** ([`run_fuzz`]) — seeded random netlists
//!    (`oiso_designs::random`) plus a structural [mutation
//!    layer](mutate_netlist) drive derive→isolate→check loops in parallel
//!    (`oiso_par`), with optional activation *sabotage* to prove the
//!    harness actually catches broken transforms.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cex;
pub mod check;
pub mod differential;
pub mod fuzz;
pub mod mutate;
mod symb;

pub use cex::Counterexample;
pub use check::{check_equivalence, CheckConfig, CheckStats, Verdict};
pub use differential::{differential_sample, replay_counterexample, ReplayVerdict};
pub use fuzz::{
    case_seed, fuzz_config_fingerprint, run_case, run_fuzz, CaseOutcome, FuzzConfig, FuzzError,
    FuzzReport, PanickedCase, Sabotage, Violation, FAULT_SITE_CASE,
};
pub use mutate::mutate_netlist;

use oiso_boolex::BoolExpr;
use oiso_core::{feedback_net, isolate_with_cache, IsolationStyle};
use oiso_netlist::{BuildError, CellId, Netlist};
use std::collections::HashMap;

/// Tunables for [`verify`] / [`verify_isolation_plan`].
#[derive(Debug, Clone)]
pub struct VerifyConfig {
    /// The symbolic check's budget and optional assumption.
    pub check: CheckConfig,
    /// Random vectors for the differential fallback when the BDD budget is
    /// exhausted.
    pub sample_vectors: usize,
    /// Seed of the fallback vector stream.
    pub sample_seed: u64,
}

impl Default for VerifyConfig {
    fn default() -> Self {
        VerifyConfig {
            check: CheckConfig::default(),
            sample_vectors: 64,
            sample_seed: 0x5EED,
        }
    }
}

/// How a [`VerifyOutcome::Verified`] verdict was established.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Proof {
    /// Exhaustive symbolic proof over all inputs and states.
    Bdd {
        /// Observable bits proved equal.
        observables: usize,
    },
    /// BDD budget exhausted; this many random vectors agreed. Evidence,
    /// not proof.
    Sampled {
        /// Vectors replayed without divergence.
        vectors: usize,
    },
}

/// Result of verifying one original/transformed pair (or one plan step).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyOutcome {
    /// No reachable disagreement found.
    Verified(Proof),
    /// A disagreement, with its witness and the concrete replay verdict.
    Violation {
        /// The symbolic witness.
        counterexample: Counterexample,
        /// Whether the witness reproduces on the concrete simulators.
        replay: ReplayVerdict,
    },
    /// The plan step was not applied (vacuous or structurally unsafe);
    /// nothing to verify.
    Skipped {
        /// Why the step was skipped.
        reason: String,
    },
}

impl VerifyOutcome {
    /// True for [`VerifyOutcome::Verified`].
    pub fn is_verified(&self) -> bool {
        matches!(self, VerifyOutcome::Verified(_))
    }
}

/// Verifies that `transformed` is observably equivalent to `original`:
/// BDD check first, differential sampling as the budget fallback, concrete
/// replay of any counterexample. Returns the outcome with the symbolic
/// engine's [`CheckStats`].
pub fn verify(
    original: &Netlist,
    transformed: &Netlist,
    config: &VerifyConfig,
) -> (VerifyOutcome, CheckStats) {
    let (verdict, stats) = check_equivalence(original, transformed, &config.check);
    (resolve(original, transformed, config, verdict), stats)
}

/// Turns a checker verdict into an outcome: a witness is replayed on the
/// concrete simulators, and budget exhaustion falls back to sampling.
fn resolve(
    original: &Netlist,
    transformed: &Netlist,
    config: &VerifyConfig,
    verdict: Verdict,
) -> VerifyOutcome {
    let counterexample = match verdict {
        Verdict::Equivalent { observables } => {
            return VerifyOutcome::Verified(Proof::Bdd { observables })
        }
        Verdict::NotEquivalent(counterexample) => counterexample,
        Verdict::BudgetExceeded { .. } => {
            match differential_sample(
                original,
                transformed,
                config.sample_seed,
                config.sample_vectors,
            ) {
                Some(counterexample) => counterexample,
                None => {
                    return VerifyOutcome::Verified(Proof::Sampled {
                        vectors: config.sample_vectors,
                    })
                }
            }
        }
    };
    let replay = replay_counterexample(original, transformed, &counterexample);
    VerifyOutcome::Violation {
        counterexample,
        replay,
    }
}

/// One verified step of an isolation plan.
#[derive(Debug, Clone)]
pub struct CandidateCheck {
    /// Instance name of the isolated cell.
    pub candidate: String,
    /// Bank style applied.
    pub style: IsolationStyle,
    /// What the checker concluded for this step.
    pub outcome: VerifyOutcome,
    /// Engine counters of this step's symbolic check (zeroed for skipped
    /// steps, which never reach the checker).
    pub stats: CheckStats,
}

/// Applies an isolation plan step by step, verifying each pre/post netlist
/// pair as it goes, and returns the final netlist with one
/// [`CandidateCheck`] per plan entry.
///
/// Per-step checking attributes a violation to the exact candidate whose
/// isolation introduced it, and the pairwise equivalences chain
/// transitively into `original ≡ final`. Steps whose activation is
/// constant `TRUE` (vacuous — the banks would be transparent wires) or
/// would close a combinational cycle (see [`oiso_core::feedback_net`],
/// judged against the *evolving* netlist) are skipped, not applied.
///
/// # Errors
///
/// Returns the transform's own [`BuildError`] if splicing a bank fails
/// structurally — that is a harness-level failure, distinct from a
/// [`VerifyOutcome::Violation`].
pub fn verify_isolation_plan(
    netlist: &Netlist,
    plan: &[(CellId, BoolExpr, IsolationStyle)],
    config: &VerifyConfig,
) -> Result<(Netlist, Vec<CandidateCheck>), BuildError> {
    let mut work = netlist.clone();
    let mut cache = HashMap::new();
    let mut checks = Vec::with_capacity(plan.len());
    for (cid, activation, style) in plan {
        let candidate = work.cell(*cid).name().to_string();
        if activation.is_const(true) {
            checks.push(CandidateCheck {
                candidate,
                style: *style,
                outcome: VerifyOutcome::Skipped {
                    reason: "activation is constant TRUE (isolation is vacuous)".into(),
                },
                stats: CheckStats::default(),
            });
            continue;
        }
        if feedback_net(&work, *cid, activation).is_some() {
            checks.push(CandidateCheck {
                candidate,
                style: *style,
                outcome: VerifyOutcome::Skipped {
                    reason: "activation reads the candidate's own fanout cone".into(),
                },
                stats: CheckStats::default(),
            });
            continue;
        }
        let before = work.clone();
        let record = isolate_with_cache(&mut work, *cid, activation, *style, &mut cache)?;
        debug_assert_eq!(&record.activation, activation);
        let (outcome, stats) = verify(&before, &work, config);
        checks.push(CandidateCheck {
            candidate,
            style: *style,
            outcome,
            stats,
        });
    }
    Ok((work, checks))
}

#[cfg(test)]
mod tests {
    use super::*;
    use oiso_boolex::Signal;
    use oiso_core::{derive_activation_functions, ActivationConfig};
    use oiso_netlist::{CellKind, NetlistBuilder};

    /// x + y into a g-enabled register: the canonical isolation candidate.
    fn gated_adder() -> Netlist {
        let mut b = NetlistBuilder::new("ga");
        let x = b.input("x", 6);
        let y = b.input("y", 6);
        let g = b.input("g", 1);
        let s = b.wire("s", 6);
        let q = b.wire("q", 6);
        b.cell("add", CellKind::Add, &[x, y], s).unwrap();
        b.cell("r", CellKind::Reg { has_enable: true }, &[s, g], q)
            .unwrap();
        b.mark_output(q);
        b.build().unwrap()
    }

    fn derived_plan(n: &Netlist, style: IsolationStyle) -> Vec<(CellId, BoolExpr, IsolationStyle)> {
        let acts = derive_activation_functions(n, &ActivationConfig::default());
        n.arithmetic_cells()
            .filter_map(|cid| acts.get(&cid).map(|a| (cid, a.clone(), style)))
            .collect()
    }

    #[test]
    fn shipped_transform_verifies_in_all_styles() {
        let n = gated_adder();
        for style in IsolationStyle::ALL {
            let plan = derived_plan(&n, style);
            assert_eq!(plan.len(), 1);
            let (_, checks) = verify_isolation_plan(&n, &plan, &VerifyConfig::default()).unwrap();
            assert!(
                matches!(checks[0].outcome, VerifyOutcome::Verified(Proof::Bdd { .. })),
                "{style:?}: {:?}",
                checks[0].outcome
            );
        }
    }

    #[test]
    fn sabotaged_activation_is_caught_and_replayable() {
        let n = gated_adder();
        let mut plan = derived_plan(&n, IsolationStyle::And);
        plan[0].1 = BoolExpr::FALSE; // operands forced to 0 even when g = 1
        let (_, checks) = verify_isolation_plan(&n, &plan, &VerifyConfig::default()).unwrap();
        let VerifyOutcome::Violation {
            ref counterexample,
            ref replay,
        } = checks[0].outcome
        else {
            panic!("expected a violation, got {:?}", checks[0].outcome);
        };
        // g must be 1 in any witness: with g = 0 the register holds either way.
        assert_eq!(counterexample.input("g"), Some(1));
        assert!(
            matches!(replay, ReplayVerdict::Confirmed { .. }),
            "witness must reproduce concretely: {replay:?}"
        );
    }

    #[test]
    fn sabotage_is_tolerated_under_the_matching_assumption() {
        // The paper's obligation is f_c → (out ≡ out'); restricting the
        // check to cycles where the result is *unobservable* (assumption
        // !f_c) makes even a FALSE-activation sabotage pass — the
        // assumption facility isolates exactly the observable region.
        let n = gated_adder();
        let real = derived_plan(&n, IsolationStyle::And)[0].1.clone();
        let mut plan = derived_plan(&n, IsolationStyle::And);
        plan[0].1 = BoolExpr::FALSE;
        let config = VerifyConfig {
            check: CheckConfig {
                assumption: Some(real.not()),
                ..CheckConfig::default()
            },
            ..VerifyConfig::default()
        };
        let (_, checks) = verify_isolation_plan(&n, &plan, &config).unwrap();
        assert!(
            checks[0].outcome.is_verified(),
            "got {:?}",
            checks[0].outcome
        );
    }

    #[test]
    fn vacuous_and_cyclic_steps_are_skipped() {
        let n = gated_adder();
        let add = n.find_cell("add").unwrap();
        let s = n.cell(add).output();
        let plan = vec![
            (add, BoolExpr::TRUE, IsolationStyle::And),
            // Activation reading the adder's own output net.
            (add, BoolExpr::var(Signal::bit0(s)), IsolationStyle::And),
        ];
        let (out, checks) = verify_isolation_plan(&n, &plan, &VerifyConfig::default()).unwrap();
        assert!(matches!(checks[0].outcome, VerifyOutcome::Skipped { .. }));
        assert!(matches!(checks[1].outcome, VerifyOutcome::Skipped { .. }));
        assert_eq!(out.fingerprint(), n.fingerprint(), "nothing applied");
    }

    #[test]
    fn budget_fallback_samples_instead_of_hanging() {
        // 16-bit multiplier into an enabled register: far past any sane
        // node budget, so verification degrades to seeded sampling. The
        // cut-point phase proves this exact shape outright (see
        // `check::tests::cut_proof_covers_masked_multiplier_isolation`),
        // so the isolated pair is re-checked from the concrete phase here
        // to keep the fallback path covered.
        let mut b = NetlistBuilder::new("wide");
        let x = b.input("x", 16);
        let y = b.input("y", 16);
        let g = b.input("g", 1);
        let p = b.wire("p", 16);
        let q = b.wire("q", 16);
        b.cell("mul", CellKind::Mul, &[x, y], p).unwrap();
        b.cell("r", CellKind::Reg { has_enable: true }, &[p, g], q)
            .unwrap();
        b.mark_output(q);
        let n = b.build().unwrap();
        let plan = derived_plan(&n, IsolationStyle::And);
        let config = VerifyConfig {
            check: CheckConfig {
                node_budget: 10_000,
                ..CheckConfig::default()
            },
            ..VerifyConfig::default()
        };
        let (iso, _) = verify_isolation_plan(&n, &plan, &config).unwrap();
        let (verdict, _) = check::check_from(check::Phase::Concrete, &n, &iso, &config.check);
        let outcome = resolve(&n, &iso, &config, verdict);
        assert!(
            matches!(
                outcome,
                VerifyOutcome::Verified(Proof::Sampled { vectors: 64 })
            ),
            "got {outcome:?}"
        );
    }
}
