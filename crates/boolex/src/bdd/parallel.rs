//! Batched parallel apply with deterministic, thread-count-invariant
//! results.
//!
//! Each job `(op, f, g)` is *extracted* from the master manager as a
//! self-contained cone: nodes in children-first order annotated with
//! their **levels** (not variable ids or node indices — after reorders,
//! index order is not topological and ids don't encode position). A
//! worker rebuilds the cone in a fresh private manager whose variable
//! ids coincide with levels, computes the operation there, and exports
//! the result cone the same way. The master then imports results
//! **sequentially in job order**, so the sequence of `mk` calls on the
//! master — and therefore every allocated index — is identical for any
//! thread count; `threads == 1` runs the very same extract/rebuild
//! path. Worker allocations are debited to the master's [`NodeBudget`]
//! handle (a shared atomic counter), so total accounting is also
//! thread-count-invariant.
//!
//! [`NodeBudget`]: super::NodeBudget

use super::manager::{Bdd, BddRef};
use crate::expr::Signal;
use oiso_netlist::NetId;

/// A binary operation for [`Bdd::apply_batch`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BddOp {
    /// Conjunction.
    And,
    /// Disjunction.
    Or,
    /// Exclusive or.
    Xor,
}

/// A cone-local edge: `index << 1 | complement`, index 0 = terminal
/// (the same packing as [`BddRef`], but indices address the cone).
type SubRef = u32;

/// One extracted node: `(level, lo, hi)` with cone-local child edges.
type ConeNode = (u32, SubRef, SubRef);

struct Job {
    op: BddOp,
    /// Children-first node list; entry 0 is a placeholder terminal.
    cone: Vec<ConeNode>,
    f: SubRef,
    g: SubRef,
}

struct JobResult {
    cone: Vec<ConeNode>,
    root: SubRef,
}

impl Bdd {
    /// Applies a batch of independent binary operations, fanning the
    /// per-job work out over `threads` workers.
    ///
    /// Results are bit-identical for any `threads` value (see the module
    /// docs for the argument). The automatic-reorder check runs once at
    /// entry; no reorder can occur between extraction and import.
    pub fn apply_batch(
        &mut self,
        threads: usize,
        jobs: &[(BddOp, BddRef, BddRef)],
    ) -> Vec<BddRef> {
        let operands: Vec<BddRef> = jobs
            .iter()
            .flat_map(|&(_, f, g)| [f, g])
            .collect();
        self.run_auto_reorder_check(&operands);

        let extracted: Vec<Job> = jobs
            .iter()
            .map(|&(op, f, g)| self.extract_job(op, f, g))
            .collect();
        let budget = self.budget().cloned();
        let results = oiso_par::parallel_map(threads, &extracted, |_, job| {
            run_job(job, budget.clone())
        });
        results
            .into_iter()
            .map(|res| self.import_cone(&res))
            .collect()
    }

    /// Extracts the merged cone of `f` and `g` as level-annotated nodes
    /// in deterministic children-first order.
    fn extract_job(&self, op: BddOp, f: BddRef, g: BddRef) -> Job {
        let mut cone: Vec<ConeNode> = vec![(u32::MAX, 0, 0)];
        let mut map: std::collections::HashMap<usize, u32> =
            std::collections::HashMap::new();
        let fr = self.extract_rec(f, &mut cone, &mut map);
        let gr = self.extract_rec(g, &mut cone, &mut map);
        Job {
            op,
            cone,
            f: fr,
            g: gr,
        }
    }

    fn extract_rec(
        &self,
        r: BddRef,
        cone: &mut Vec<ConeNode>,
        map: &mut std::collections::HashMap<usize, u32>,
    ) -> SubRef {
        let parity = if r.is_complemented() { 1 } else { 0 };
        if r.is_terminal() {
            return parity;
        }
        let idx = r.regular().raw() >> 1;
        if let Some(&local) = map.get(&(idx as usize)) {
            return (local << 1) | parity;
        }
        let (var, lo, hi) = self.node_parts(idx as usize);
        let lo_sub = self.extract_rec(lo, cone, map);
        let hi_sub = self.extract_rec(hi, cone, map);
        let local = cone.len() as u32;
        cone.push((self.level_of_var(var), lo_sub, hi_sub));
        map.insert(idx as usize, local);
        (local << 1) | parity
    }

    /// Rebuilds an exported cone inside the master, in one sequential
    /// `mk` walk; returns the root edge.
    fn import_cone(&mut self, res: &JobResult) -> BddRef {
        let mut local: Vec<BddRef> = Vec::with_capacity(res.cone.len());
        local.push(BddRef::TRUE);
        for &(level, lo, hi) in res.cone.iter().skip(1) {
            let lo_ref = decode(&local, lo);
            let hi_ref = decode(&local, hi);
            let var = self.var_at_level(level);
            local.push(self.mk_at(var, lo_ref, hi_ref));
        }
        decode(&local, res.root)
    }
}

fn decode(local: &[BddRef], sub: SubRef) -> BddRef {
    let base = local[(sub >> 1) as usize];
    if sub & 1 == 1 {
        base.complement()
    } else {
        base
    }
}

/// Runs one job in a fresh private manager whose variable ids equal
/// levels (registered in ascending level order, never reordered).
fn run_job(job: &Job, budget: Option<super::NodeBudget>) -> JobResult {
    let max_level = job
        .cone
        .iter()
        .skip(1)
        .map(|&(level, _, _)| level)
        .max()
        .unwrap_or(0);
    let mut worker = Bdd::with_order(
        (0..=max_level as usize).map(|l| Signal::bit0(NetId::from_index(l))),
    );
    if let Some(b) = budget {
        worker.set_budget(b);
    }
    let mut local: Vec<BddRef> = Vec::with_capacity(job.cone.len());
    local.push(BddRef::TRUE);
    for &(level, lo, hi) in job.cone.iter().skip(1) {
        let lo_ref = decode(&local, lo);
        let hi_ref = decode(&local, hi);
        local.push(worker.mk_at(level, lo_ref, hi_ref));
    }
    let f = decode(&local, job.f);
    let g = decode(&local, job.g);
    let root = match job.op {
        BddOp::And => worker.and(f, g),
        BddOp::Or => worker.or(f, g),
        BddOp::Xor => worker.xor(f, g),
    };
    // Export the result cone; worker var ids are levels already.
    let mut cone: Vec<ConeNode> = vec![(u32::MAX, 0, 0)];
    let mut map = std::collections::HashMap::new();
    let root_sub = worker.extract_rec(root, &mut cone, &mut map);
    JobResult {
        cone,
        root: root_sub,
    }
}
