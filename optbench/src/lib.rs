//! End-to-end benchmark of the operand-isolation optimizer (Algorithm 1).
//!
//! The `optbench` binary's documentation describes the workloads, the
//! metrics and how to run it. This library holds its parts so that the
//! replay-fidelity test can reach them:
//!
//! * [`workload`] — the workloads and the inputs each builds from a seed;
//! * [`run`] — untraced rounds (end-to-end metrics) and traced replay
//!   rounds (per-layer metrics), with every output checked;
//! * [`replay`] — Algorithm 1 replayed from its public layer calls, one
//!   span per phase;
//! * [`trace`] — the in-memory span recorder and Chrome trace output;
//! * [`compare`] — the parent-versus-change verdict rule;
//! * [`stats`], [`json`] — order statistics and a JSON reader.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod json;
pub mod replay;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workload;
