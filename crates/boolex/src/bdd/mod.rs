//! The BDD engine behind every symbolic layer of the pipeline.
//!
//! One manager serves the ISOP minimizer ([`crate::simplify`]), the
//! BDD-derived isolation style ([`crate::synthesize_bdd_into`]), the
//! equivalence checker, the static precheck, and static activity. It
//! provides:
//!
//! * **Complement edges** on a hash-consed, open-addressed unique table:
//!   negation is an O(1) bit flip, and a function and its complement
//!   share one node.
//! * **A bounded, lossy computed cache** shared by every
//!   `and`/`xor`/`ite` call on the manager: direct-mapped, overwritten on
//!   collision and capped in size, which canonicity makes invisible in
//!   every result and node count.
//! * **A fixed variable order**: a variable's id is its level, assigned
//!   at registration (or by [`Bdd::with_order`]) and never moved, and no
//!   node is ever freed, so every [`BddRef`] stays valid.
//! * **SAT-one witnesses** and exact signal-probability evaluation.
//! * **[`NodeBudget`]**: one shared, atomically-debited allocation
//!   budget handle that the precheck and activity can carry through a
//!   whole run instead of each keeping a private ceiling.
//! * **[`encode_cell`]**: the one BDD meaning of every netlist cell kind,
//!   shared by the equivalence checker and static activity.
//! * **[`IntMap`]**: the multiply-rotate hashed map for node-keyed memos.

mod cells;
mod hash;
mod manager;

pub use cells::encode_cell;
pub use hash::{IntHasher, IntMap};
pub use manager::{Bdd, BddRef, ProbabilityMemo};

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A shared, thread-safe node-allocation budget.
///
/// Cloning hands out another handle to the **same** counter, so one
/// budget can be debited by several managers over a whole run.
/// Operations never fail when the budget is exhausted — callers poll
/// [`NodeBudget::exceeded`] at their own checkpoints (cooperative abort).
#[derive(Clone, Debug)]
pub struct NodeBudget {
    inner: Arc<BudgetInner>,
}

#[derive(Debug)]
struct BudgetInner {
    limit: usize,
    used: AtomicUsize,
}

impl NodeBudget {
    /// A budget allowing `limit` node allocations in total.
    pub fn new(limit: usize) -> Self {
        NodeBudget {
            inner: Arc::new(BudgetInner {
                limit,
                used: AtomicUsize::new(0),
            }),
        }
    }

    /// A budget that never runs out.
    pub fn unlimited() -> Self {
        NodeBudget::new(usize::MAX)
    }

    /// Records `n` allocations against the budget.
    pub fn debit(&self, n: usize) {
        if n > 0 {
            self.inner.used.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Total allocations debited so far, across every holder of a clone.
    pub fn used(&self) -> usize {
        self.inner.used.load(Ordering::Relaxed)
    }

    /// The configured allocation limit.
    pub fn limit(&self) -> usize {
        self.inner.limit
    }

    /// Whether more nodes have been allocated than the limit allows.
    pub fn exceeded(&self) -> bool {
        self.used() > self.inner.limit
    }
}
