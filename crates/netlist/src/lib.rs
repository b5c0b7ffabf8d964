//! RT-level netlist intermediate representation.
//!
//! This crate provides the structural RTL network graph the DATE 2000
//! operand-isolation paper operates on: word-level nets connecting
//! arithmetic modules, multiplexors, registers, latches, and generic logic
//! gates, bounded by primary inputs and outputs. On top of the raw graph it
//! offers:
//!
//! * a validating [`NetlistBuilder`] for constructing designs,
//! * fanin/fanout traversal and combinational topological ordering
//!   ([`graph`]),
//! * partitioning into *combinational blocks* bounded by sequential cells
//!   and primary I/O ([`partition`]) — the unit at which the paper derives
//!   activation functions and isolates candidates,
//! * the word-level meaning of every combinational cell kind
//!   ([`eval_comb_cell`]), shared by the simulators and the cleanup pass,
//! * DOT and structural-Verilog export for inspection.
//!
//! # Examples
//!
//! Build a datapath fragment of the paper's Figure 1 (one adder feeding a
//! register through a multiplexor):
//!
//! ```
//! use oiso_netlist::{CellKind, NetlistBuilder};
//!
//! # fn main() -> Result<(), oiso_netlist::BuildError> {
//! let mut b = NetlistBuilder::new("fig1_fragment");
//! let a = b.input("A", 16);
//! let bb = b.input("B", 16);
//! let c = b.input("C", 16);
//! let s0 = b.input("S0", 1);
//! let g0 = b.input("G0", 1);
//! let sum = b.wire("sum", 16);
//! let m0 = b.wire("m0", 16);
//! let q = b.wire("q", 16);
//! b.cell("a0", CellKind::Add, &[a, bb], sum)?;
//! b.cell("m0", CellKind::Mux, &[s0, sum, c], m0)?;
//! b.cell("r0", CellKind::Reg { has_enable: true }, &[m0, g0], q)?;
//! b.mark_output(q);
//! let netlist = b.build()?;
//! assert_eq!(netlist.cells().count(), 3);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod cell;
pub mod dot;
pub mod eval;
pub mod graph;
pub mod id;
pub mod net;
pub mod netlist;
pub mod opt;
pub mod partition;
pub mod stats;
pub mod validate;
pub mod verilog;

pub use builder::{BuildError, NetlistBuilder};
pub use cell::{Cell, CellKind, PortRole};
pub use eval::eval_comb_cell;
pub use graph::{
    comb_topo_order, input_support, levelize, live_cells, transitive_fanin, transitive_fanout,
};
pub use id::{CellId, NetId};
pub use net::Net;
pub use netlist::{Fnv, Netlist};
pub use opt::{optimize as optimize_netlist, OptStats};
pub use partition::{partition_into_blocks, CombBlock};
pub use stats::NetlistStats;
pub use validate::ValidateError;
