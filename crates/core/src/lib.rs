//! Automated RT-level operand isolation — the DATE 2000 algorithm.
//!
//! This crate implements the paper's contribution on top of the workspace
//! substrates:
//!
//! * [`observability`] / [`activation`] — Section 3: per-cell observability
//!   conditions and the breadth-first derivation of *activation functions*
//!   (`f_c` evaluates 1 exactly when module `c`'s result is observable this
//!   cycle), with registers fixed to the constant activation `f⁺ = 1` so the
//!   analysis stays local to combinational blocks.
//! * [`muxfunc`] — Section 4.1: the *multiplexing functions* `g^k_{i,A}`
//!   describing when fanin candidate `c_k` is connected to input `A` of
//!   candidate `c_i` through the interconnect network `L_A`.
//! * [`savings`] — Section 4.2/4.3: primary and secondary power-savings
//!   estimation (Eqs. 1–5), in three fidelity variants used by the
//!   ablation study.
//! * [`cost`] — Section 5.1: isolation-bank and activation-logic overhead,
//!   the relative terms `rP`, `rA`, and the cost function
//!   `h(c) = ω_p·rP(c) − ω_a·rA(c)` (Eq. 6).
//! * [`transform`] — Section 5.2: the AND / OR / LATCH isolation
//!   implementations (banks + synthesized activation logic).
//! * [`algorithm`] — Section 5.3, Algorithm 1: the iterative optimizer that
//!   isolates at most one candidate per combinational block per iteration
//!   until no improvement remains.
//! * [`precheck`] — static candidate screening: BDD-provable constant
//!   activations and combinational-feedback hazards are dropped before
//!   any simulation is paid for (shared with `oiso-lint`'s rules).
//! * [`baseline`] — Section 2's comparators: Correale-style local mux
//!   isolation and Kapadia-style register-enable gating.
//! * [`fsm`] — the "analyzing the corresponding FSM" option Section 3
//!   mentions: reachable-state enumeration of closed FSM registers and
//!   don't-care-based shrinking of activation logic.
//! * [`checkpoint`] / [`json`] — the crash-resume journal of Algorithm 1's
//!   accepted steps, and the workspace's one JSON reader, which also reads
//!   the fuzz journal, the serve result store and every request body.
//!
//! # Examples
//!
//! ```
//! use oiso_core::{optimize, IsolationConfig, IsolationStyle};
//! use oiso_netlist::{CellKind, NetlistBuilder};
//! use oiso_sim::{StimulusPlan, StimulusSpec};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // out = G ? (a+b) stored : held — the adder is redundant while G=0.
//! let mut b = NetlistBuilder::new("tiny");
//! let a = b.input("a", 16);
//! let x = b.input("x", 16);
//! let g = b.input("g", 1);
//! let s = b.wire("s", 16);
//! let q = b.wire("q", 16);
//! b.cell("add", CellKind::Add, &[a, x], s)?;
//! b.cell("r", CellKind::Reg { has_enable: true }, &[s, g], q)?;
//! b.mark_output(q);
//! let netlist = b.build()?;
//!
//! let plan = StimulusPlan::new(1)
//!     .drive("a", StimulusSpec::UniformRandom)
//!     .drive("x", StimulusSpec::UniformRandom)
//!     .drive("g", StimulusSpec::MarkovBits { p_one: 0.2, toggle_rate: 0.2 });
//! let outcome = optimize(&netlist, &plan, &IsolationConfig::default())?;
//! assert!(outcome.isolated.len() <= 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod activation;
pub mod algorithm;
pub mod baseline;
pub mod budget;
pub mod candidates;
pub mod checkpoint;
pub mod cost;
pub mod fsm;
pub mod json;
pub mod muxfunc;
pub mod observability;
pub mod precheck;
pub mod report;
pub mod savings;
pub mod transform;

pub use activation::{derive_activation_functions, ActivationConfig};
pub use algorithm::{
    optimize, optimize_with_memo, IsolationConfig, IsolationError, FAULT_SITE_SCORE,
};
pub use baseline::{correale_local_isolation, kapadia_enable_gating, BaselineOutcome};
pub use budget::RunBudget;
pub use oiso_sim::EngineKind;
pub use candidates::{identify_candidates, Candidate};
pub use checkpoint::{
    config_fingerprint, AcceptedStep, Checkpoint, CheckpointError, CheckpointHeader,
    CheckpointWriter, StepTap,
};
pub use cost::{CostModel, CostWeights, IsolationCost};
pub use fsm::{find_closed_fsms, refine_with_fsm_dont_cares, ClosedFsm};
pub use json::{escape_json, JsonValue};
pub use muxfunc::multiplexing_functions;
pub use oiso_boolex::NodeBudget;
pub use precheck::{
    constant_check, constant_check_with_budget, feedback_net, precheck_candidate,
    precheck_candidate_with_budget, ConstCheck, PrecheckVerdict, DEFAULT_PRECHECK_NODE_BUDGET,
};
pub use report::{IsolationOutcome, IterationLog, SkippedCandidate};
pub use savings::{EstimatorKind, SavingsEstimate, SavingsEstimator};
pub use transform::{isolate, isolate_each, isolate_with_cache, IsolationRecord, IsolationStyle};
