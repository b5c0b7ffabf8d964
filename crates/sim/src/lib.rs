//! Cycle-based RT-level simulation with switching statistics.
//!
//! The paper's power model consumes three kinds of statistics, all "measured
//! during a simulation of real-life test vectors" (Section 4.1):
//!
//! * **toggle rates** — average bit toggles per clock cycle on every net,
//! * **static probabilities** — fraction of cycles each bit is 1,
//! * **joint probabilities** of Boolean conditions over control signals
//!   (`Pr(!f_c)`, `Pr(AS_i · AS_j · g)` — the paper explicitly refuses to
//!   assume statistical independence, so these are measured, not derived).
//!
//! This crate provides the two-valued, cycle-based simulator producing those
//! statistics, plus stimulus processes with *controllable signal statistics*
//! (static probability and toggle rate), which Section 6 of the paper sweeps
//! on design1.
//!
//! # Examples
//!
//! ```
//! use oiso_netlist::{CellKind, NetlistBuilder};
//! use oiso_sim::{StimulusSpec, Testbench};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = NetlistBuilder::new("adder");
//! let x = b.input("x", 8);
//! let y = b.input("y", 8);
//! let s = b.wire("s", 8);
//! b.cell("add", CellKind::Add, &[x, y], s)?;
//! b.mark_output(s);
//! let n = b.build()?;
//!
//! let mut tb = Testbench::new(&n);
//! tb.drive_spec(x, StimulusSpec::UniformRandom)?;
//! tb.drive_spec(y, StimulusSpec::UniformRandom)?;
//! let report = tb.run(1000)?;
//! // Random operands toggle roughly half their bits per cycle.
//! assert!(report.toggle_rate(s) > 2.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analytic;
pub mod engine;
pub mod memo;
pub mod recording;
pub mod replay;
pub mod stats;
pub mod stimulus;
pub mod tape;
pub mod testbench;
pub mod vcd;

pub use analytic::{propagate as propagate_activity, ActivityEstimate, BitStats};
pub use engine::{EngineKind, Simulator};
pub use memo::{MemoStats, SimMemo};
pub use recording::{InputRecording, RECORDING_BUDGET};
pub use replay::{replay_vector, VectorAssignment, VectorOutcome};
pub use stats::SimReport;
pub use stimulus::{Stimulus, StimulusError, StimulusPlan, StimulusSpec};
pub use tape::CompiledSim;
pub use testbench::{SimError, Testbench};
