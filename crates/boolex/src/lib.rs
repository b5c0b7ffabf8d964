//! Boolean machinery for activation functions.
//!
//! The paper derives, for every isolation candidate, an *activation
//! function* — a Boolean function over mux-select and enable bits that
//! evaluates 1 exactly when the candidate's result is observable. This
//! crate provides:
//!
//! * [`BoolExpr`]: a factored-form expression AST whose literal count is the
//!   paper's area proxy for the activation logic (Section 5.1: "the area
//!   cost of the activation logic can be approximated by the literal count
//!   of the activation function, which by construction is given in factored
//!   form"),
//! * [`Bdd`]: the pipeline's one ROBDD engine (complement edges, a fixed
//!   variable order, shared [`NodeBudget`]), used
//!   by the minimizer here and by equivalence checking, the static
//!   precheck, and static activity downstream — including
//!   [`encode_cell`], the one BDD encoding of every netlist cell kind,
//! * [`minimize`]: the Minato–Morreale ISOP minimizer, run on that engine,
//! * [`synth`]: synthesis of an expression into 1-bit netlist gates — the
//!   *activation logic* inserted by the isolation transform — either as
//!   the factored form or as the mux tree of its ROBDD.
//!
//! # Examples
//!
//! Build `AS_a1 = !S2·G1 + !S0·S1·G0` — the simplified activation signal of
//! adder `a1` in the paper's Figure 2 — and count its literals:
//!
//! ```
//! use oiso_boolex::{BoolExpr, Signal};
//! use oiso_netlist::NetId;
//!
//! let s0 = BoolExpr::var(Signal::bit0(NetId::from_index(0)));
//! let s1 = BoolExpr::var(Signal::bit0(NetId::from_index(1)));
//! let s2 = BoolExpr::var(Signal::bit0(NetId::from_index(2)));
//! let g0 = BoolExpr::var(Signal::bit0(NetId::from_index(3)));
//! let g1 = BoolExpr::var(Signal::bit0(NetId::from_index(4)));
//! let as_a1 = BoolExpr::or(vec![
//!     BoolExpr::and(vec![s2.not(), g1]),
//!     BoolExpr::and(vec![s0.not(), s1, g0]),
//! ]);
//! assert_eq!(as_a1.literal_count(), 5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bdd;
pub mod expr;
pub mod simplify;
pub mod synth;

pub use bdd::{encode_cell, Bdd, BddRef, IntHasher, IntMap, NodeBudget, ProbabilityMemo};
pub use expr::{BoolExpr, Signal};
pub use simplify::minimize;
pub use synth::{synthesize_bdd_into, synthesize_into, synthesize_into_cached};
