//! The BDD engine behind every symbolic layer of the pipeline.
//!
//! One manager serves the ISOP minimizer ([`crate::simplify`]), the
//! BDD-derived isolation style ([`crate::synthesize_bdd_into`]), the
//! equivalence checker, the static precheck, and static activity. It
//! provides:
//!
//! * **Complement edges** on a hash-consed unique table: negation is an
//!   O(1) bit flip, and a function and its complement share one node.
//! * **Operation-keyed computed table**: one persistent memo shared by
//!   every `and`/`xor`/`ite` call on the manager.
//! * **Rudell sifting** ([`Bdd::reorder`]), optionally auto-triggered on
//!   table-growth thresholds ([`ReorderPolicy::Auto`]). Reorders rewrite
//!   nodes *in place*, so outstanding [`BddRef`] handles stay valid.
//! * **Quantification / compose / restrict**, **SAT-one / SAT-count**,
//!   and exact signal-probability evaluation.
//! * **Deterministic parallel apply** ([`Bdd::apply_batch`]): batches of
//!   independent operations fan out over `oiso_par::parallel_map` with
//!   bit-identical results at any thread count.
//! * **[`NodeBudget`]**: one shared, atomically-debited allocation
//!   budget handle that verify, lint, precheck, and activity can carry
//!   through a whole run instead of each keeping a private ceiling.
//! * **[`encode_cell`]**: the one BDD meaning of every netlist cell kind,
//!   shared by the equivalence checker and static activity.

mod cells;
mod manager;
mod parallel;

pub use cells::encode_cell;
pub use manager::{Bdd, BddRef, ProbabilityMemo};
pub use parallel::BddOp;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// When (if ever) a manager reorders itself.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ReorderPolicy {
    /// Never reorder automatically; [`Bdd::reorder`] still works. The
    /// default — callers whose algorithms depend on the variable order
    /// (e.g. activity's value/toggle pairing) must keep this.
    #[default]
    Never,
    /// Sift automatically once the allocated-node count reaches the
    /// given threshold, then again at every doubling of the table size.
    /// Checked only at public operation entry points.
    Auto(usize),
}

/// A shared, thread-safe node-allocation budget.
///
/// Cloning hands out another handle to the **same** counter, so one
/// budget can be debited by several managers (and by parallel-apply
/// workers) over a whole run. Operations never fail when the budget is
/// exhausted — callers poll [`NodeBudget::exceeded`] at their own
/// checkpoints (cooperative abort).
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

    /// Returns `n` previously debited allocations to the budget.
    ///
    /// Used by the manager when a reorder pass reclaims its own churn:
    /// the budget tracks *net* allocation, so sifting that frees its
    /// scratch nodes does not eat into the caller's allowance. Callers
    /// must only credit what they have debited.
    pub fn credit(&self, n: usize) {
        if n > 0 {
            self.inner.used.fetch_sub(n, Ordering::Relaxed);
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
