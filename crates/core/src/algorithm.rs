//! Algorithm 1: iterative operand isolation on an RT structure.
//!
//! Per iteration the optimizer re-simulates the (partially isolated)
//! circuit, estimates the cost function `h` of every remaining candidate,
//! and isolates the best candidate of each combinational block whose
//! `h ≥ h_min`; it terminates when an iteration isolates nothing. This is
//! the paper's Algorithm 1 verbatim, with the slack pre-filter of lines
//! 3–11 applied at candidate identification.

use crate::activation::ActivationConfig;
use crate::budget::RunBudget;
use crate::candidates::{identify_candidates, Candidate, CandidateFilter};
use crate::checkpoint::{
    config_fingerprint, AcceptedStep, Checkpoint, CheckpointError, CheckpointHeader,
    CheckpointWriter, StepTap,
};
use crate::cost::{CostModel, CostWeights};
use crate::report::{IsolationOutcome, IterationLog, SkippedCandidate};
use crate::savings::{EstimatorKind, SavingsEstimate, SavingsEstimator};
use crate::transform::{isolate_with_cache, IsolationStyle};
use oiso_boolex::BoolExpr;
use oiso_netlist::{BuildError, CellId, Netlist};
use oiso_par::TaskOutcome;
use oiso_power::{total_area, PowerEstimator};
use oiso_sim::{EngineKind, SimError, SimMemo, StimulusPlan, Testbench};
use oiso_techlib::{OperatingConditions, Power, TechLibrary, Time};
use oiso_timing::analyze;
use std::collections::{HashMap, HashSet};
use std::error::Error;
use std::fmt;
use std::path::PathBuf;

/// Fault-injection site inside per-candidate scoring; the key is the
/// candidate's [`CellId::index`] (see [`oiso_par::faults`]).
pub const FAULT_SITE_SCORE: &str = "optimize.score";

/// Errors from the isolation optimizer.
#[derive(Debug)]
pub enum IsolationError {
    /// Simulation failed (undriven inputs, invalid stimuli, ...).
    Sim(SimError),
    /// A netlist transformation failed.
    Build(BuildError),
    /// More candidate evaluations panicked than
    /// [`RunBudget::max_skipped`] tolerates.
    TooManySkipped {
        /// Every candidate skipped up to the abort, in candidate order.
        skipped: Vec<SkippedCandidate>,
        /// The configured tolerance that was exceeded.
        max: usize,
    },
    /// Reading or writing the checkpoint journal failed.
    Checkpoint(CheckpointError),
}

impl fmt::Display for IsolationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IsolationError::Sim(e) => write!(f, "simulation failed: {e}"),
            IsolationError::Build(e) => write!(f, "netlist transformation failed: {e}"),
            IsolationError::TooManySkipped { skipped, max } => {
                writeln!(
                    f,
                    "aborting: {} candidate evaluation(s) panicked, budget tolerates {max}:",
                    skipped.len()
                )?;
                for s in skipped {
                    writeln!(f, "  {s}")?;
                }
                Ok(())
            }
            IsolationError::Checkpoint(e) => write!(f, "{e}"),
        }
    }
}

impl Error for IsolationError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            IsolationError::Sim(e) => Some(e),
            IsolationError::Build(e) => Some(e),
            IsolationError::TooManySkipped { .. } => None,
            IsolationError::Checkpoint(e) => Some(e),
        }
    }
}

impl From<SimError> for IsolationError {
    fn from(e: SimError) -> Self {
        IsolationError::Sim(e)
    }
}

impl From<BuildError> for IsolationError {
    fn from(e: BuildError) -> Self {
        IsolationError::Build(e)
    }
}

impl From<CheckpointError> for IsolationError {
    fn from(e: CheckpointError) -> Self {
        IsolationError::Checkpoint(e)
    }
}

/// Configuration of the isolation optimizer.
#[derive(Debug, Clone)]
pub struct IsolationConfig {
    /// The isolation implementation style (Section 5.2).
    pub style: IsolationStyle,
    /// Savings-estimator variant (Section 4).
    pub estimator: EstimatorKind,
    /// Eq. 6 weights.
    pub weights: CostWeights,
    /// Minimum cost value for a candidate to be isolated.
    pub h_min: f64,
    /// Candidates whose estimated post-isolation slack drops below this are
    /// rejected. `None` disables the slack filter (EXP-ABL ablation).
    pub slack_threshold: Option<Time>,
    /// Minimum operand width for candidacy.
    pub min_width: u8,
    /// Activation-function derivation knobs.
    pub activation: ActivationConfig,
    /// Whether secondary savings participate in the cost function
    /// (EXP-ABL ablation switch).
    pub secondary_savings: bool,
    /// Minimize activation functions (BDD-based irredundant SOP) before
    /// costing and synthesis — the paper's "optimized version" of the
    /// activation logic. On by default.
    pub optimize_activation_logic: bool,
    /// Shrink activation functions with FSM-reachability don't-cares (the
    /// "analyzing the corresponding FSM" extension of Section 3). Off by
    /// default, matching the published algorithm.
    pub fsm_dont_cares: bool,
    /// Drop provably-useless or unsound candidates *before* simulation
    /// using the static checks of [`crate::precheck`] (BDD-constant
    /// activation, combinational feedback). Dropped candidates are
    /// recorded in [`IsolationOutcome::pre_skipped`]. The check is a pure
    /// serial function of the candidate list, so the accepted-candidate
    /// sequence stays bit-identical at every thread count. On by default.
    pub static_precheck: bool,
    /// Rank surviving candidates by the static activity estimate
    /// `ĥ(c) = density(operands) × P(unobservable)` (see
    /// [`crate::precheck::activity_rank_with_budget`]) before scoring, so
    /// a binding [`IsolationConfig::candidate_cap`] evaluates the
    /// statically most promising candidates first. Ranking only *reorders*
    /// the list; per-block winner selection breaks ties on cell identity,
    /// so with a non-binding cap the accepted sequence is bit-identical to an
    /// unranked run at every thread count. For the same reason ranking is
    /// a no-op — the analysis is not even run — in any iteration where the
    /// cap cannot bind: `candidate_cap` is `None`, or no smaller than the
    /// candidate count. Off by default.
    pub activity_ranking: bool,
    /// Upper bound on candidates scored per iteration, applied after the
    /// precheck (and after activity ranking when enabled). `None` scores
    /// everything. Unlike [`RunBudget`] bounds this can *change* the
    /// accepted sequence, so it participates in the config fingerprint.
    pub candidate_cap: Option<usize>,
    /// Simulation length per iteration.
    pub sim_cycles: u64,
    /// Simulation engine executing every run of the optimizer (baseline,
    /// per-iteration monitored runs, final measurement). All engines are
    /// bit-identical (the differential suite proves it), so the choice
    /// affects wall-clock only — it is deliberately excluded from the
    /// checkpoint fingerprint, and `SimMemo` entries are shared across
    /// engines. Defaults to the fastest engine.
    pub engine: EngineKind,
    /// Worker threads for per-candidate savings evaluation inside one
    /// iteration: `1` is the plain serial loop, `0` means all available
    /// cores. Candidate evaluation is a pure function of the iteration's
    /// shared state and results are reduced in candidate order, so the
    /// outcome is **bit-identical at every thread count** (a property the
    /// equivalence test suite enforces).
    pub threads: usize,
    /// Technology library.
    pub library: TechLibrary,
    /// Supply/clock operating point.
    pub conditions: OperatingConditions,
    /// Safety bound on main-loop iterations.
    pub max_iterations: usize,
    /// Resource bounds; the run degrades to a `truncated: true` best-so-far
    /// outcome when exhausted. Unlimited by default. Not part of the
    /// checkpoint fingerprint: a budget truncates the accepted-candidate
    /// sequence, it never changes it.
    pub budget: RunBudget,
    /// Journal every accepted candidate to this JSONL file as it is
    /// accepted (see [`crate::checkpoint`]).
    pub checkpoint: Option<PathBuf>,
    /// Resume from a previously written journal: validate its fingerprints
    /// against this run's inputs, replay the accepted steps without
    /// re-simulating, and continue from the first un-journaled iteration.
    pub resume: Option<PathBuf>,
    /// In-process observer of the accepted-candidate stream (the same
    /// events the checkpoint journal records, including replayed steps).
    /// Like the journal writer it observes the run without influencing
    /// it, so it is excluded from [`crate::checkpoint::config_fingerprint`].
    pub progress: Option<StepTap>,
}

impl Default for IsolationConfig {
    fn default() -> Self {
        IsolationConfig {
            style: IsolationStyle::And,
            estimator: EstimatorKind::Pairwise,
            weights: CostWeights::default(),
            h_min: 0.0,
            slack_threshold: Some(Time::ZERO),
            min_width: 4,
            activation: ActivationConfig::default(),
            secondary_savings: true,
            optimize_activation_logic: true,
            fsm_dont_cares: false,
            static_precheck: true,
            activity_ranking: false,
            candidate_cap: None,
            sim_cycles: 2000,
            engine: EngineKind::default(),
            threads: 1,
            library: TechLibrary::generic_250nm(),
            conditions: OperatingConditions::default(),
            max_iterations: 16,
            budget: RunBudget::unlimited(),
            checkpoint: None,
            resume: None,
            progress: None,
        }
    }
}

impl IsolationConfig {
    /// Sets the isolation style.
    pub fn with_style(mut self, style: IsolationStyle) -> Self {
        self.style = style;
        self
    }

    /// Sets the estimator variant.
    pub fn with_estimator(mut self, estimator: EstimatorKind) -> Self {
        self.estimator = estimator;
        self
    }

    /// Sets the cost weights.
    pub fn with_weights(mut self, weights: CostWeights) -> Self {
        self.weights = weights;
        self
    }

    /// Sets `h_min`.
    pub fn with_h_min(mut self, h_min: f64) -> Self {
        self.h_min = h_min;
        self
    }

    /// Sets the per-iteration simulation length.
    pub fn with_sim_cycles(mut self, cycles: u64) -> Self {
        self.sim_cycles = cycles;
        self
    }

    /// Selects the simulation engine (results are identical on every
    /// engine; only wall-clock differs).
    pub fn with_engine(mut self, engine: EngineKind) -> Self {
        self.engine = engine;
        self
    }

    /// Sets the worker-thread count for candidate evaluation
    /// (`1` = serial, `0` = all cores; results are identical either way).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Enables or disables the secondary-savings term.
    pub fn with_secondary_savings(mut self, on: bool) -> Self {
        self.secondary_savings = on;
        self
    }

    /// Enables or disables activation-logic minimization.
    pub fn with_activation_optimization(mut self, on: bool) -> Self {
        self.optimize_activation_logic = on;
        self
    }

    /// Enables or disables FSM-reachability don't-care refinement.
    pub fn with_fsm_dont_cares(mut self, on: bool) -> Self {
        self.fsm_dont_cares = on;
        self
    }

    /// Enables or disables the static candidate precheck.
    pub fn with_static_precheck(mut self, on: bool) -> Self {
        self.static_precheck = on;
        self
    }

    /// Enables or disables activity-based candidate pre-ranking.
    pub fn with_activity_ranking(mut self, on: bool) -> Self {
        self.activity_ranking = on;
        self
    }

    /// Caps (or uncaps, with `None`) the candidates scored per iteration.
    pub fn with_candidate_cap(mut self, cap: Option<usize>) -> Self {
        self.candidate_cap = cap;
        self
    }

    /// Sets (or disables, with `None`) the slack threshold.
    pub fn with_slack_threshold(mut self, threshold: Option<Time>) -> Self {
        self.slack_threshold = threshold;
        self
    }

    /// Sets the run budget.
    pub fn with_budget(mut self, budget: RunBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Journals accepted candidates to `path`.
    pub fn with_checkpoint(mut self, path: impl Into<PathBuf>) -> Self {
        self.checkpoint = Some(path.into());
        self
    }

    /// Resumes from the journal at `path`.
    pub fn with_resume(mut self, path: impl Into<PathBuf>) -> Self {
        self.resume = Some(path.into());
        self
    }

    /// Observes every accepted candidate as it is decided.
    pub fn with_progress(mut self, tap: StepTap) -> Self {
        self.progress = Some(tap);
        self
    }
}

/// Runs Algorithm 1 on a copy of `netlist` under the stimulus `plan`.
///
/// The input netlist is not modified; the transformed circuit is returned
/// in the outcome together with measured before/after power, area, and
/// slack.
///
/// # Errors
///
/// Returns an error if simulation or a transformation fails — typically an
/// input missing from the stimulus plan.
pub fn optimize(
    netlist: &Netlist,
    plan: &StimulusPlan,
    config: &IsolationConfig,
) -> Result<IsolationOutcome, IsolationError> {
    optimize_with_memo(netlist, plan, config, &SimMemo::new())
}

/// [`optimize`] with a caller-provided simulation memo.
///
/// The memo caches per-netlist simulation statistics keyed by
/// `(netlist fingerprint, stimulus fingerprint, cycles)`, so runs sharing a
/// memo — e.g. the per-style columns of one benchmark table, which all
/// measure the same baseline circuit — skip re-simulating stimuli any of
/// them has already run. Because the simulator is deterministic, memoized
/// results are bit-identical to fresh runs, and sharing (or not sharing) a
/// memo never changes an outcome.
///
/// # Errors
///
/// As [`optimize`].
pub fn optimize_with_memo(
    netlist: &Netlist,
    plan: &StimulusPlan,
    config: &IsolationConfig,
    memo: &SimMemo,
) -> Result<IsolationOutcome, IsolationError> {
    let lib = &config.library;
    let cond = config.conditions;
    let clock_period = cond.clock_period();
    let pe = PowerEstimator::new(lib, cond);
    let mut work = netlist.clone();

    // The binding header a journal of this run must carry. Deliberately
    // computed from the *input* netlist: resume re-derives the transformed
    // netlist by replaying steps.
    let header = CheckpointHeader {
        netlist_fp: netlist.fingerprint(),
        plan_fp: plan.fingerprint(),
        config_fp: config_fingerprint(config),
        sim_cycles: config.sim_cycles,
    };

    // Load and validate the resume journal before any heavy work, so a
    // mismatched checkpoint is refused instantly.
    let resume_steps: Vec<AcceptedStep> = match &config.resume {
        Some(path) => {
            let ckpt = Checkpoint::load(path)?;
            ckpt.validate(&header)?;
            ckpt.steps
        }
        None => Vec::new(),
    };

    // Baseline measurement.
    let report0 = memo.run_with_engine(&work, plan, config.sim_cycles, config.engine)?;
    let power_before = pe.estimate(&work, &report0).total;
    let area_before = total_area(lib, &work);
    let slack_before = analyze(lib, &work, clock_period).worst_slack;

    // Opened after the resume journal is fully loaded, so resuming a run
    // from its own checkpoint path works (the truncating create happens
    // after the read).
    let mut writer = match &config.checkpoint {
        Some(path) => Some(CheckpointWriter::create(path, &header)?),
        None => None,
    };

    let mut isolated_records = Vec::new();
    let mut isolated_acts: HashMap<CellId, BoolExpr> = HashMap::new();
    let mut iterations: Vec<IterationLog> = Vec::new();
    // Activation logic shared across all isolations of this run.
    let mut synth_cache: HashMap<BoolExpr, oiso_netlist::NetId> = HashMap::new();
    let mut skipped: Vec<SkippedCandidate> = Vec::new();
    // Candidates whose evaluation panicked: skipped once, then excluded
    // from every later iteration (a deterministic fault would otherwise
    // re-panic forever and inflate the skip count).
    let mut poisoned: HashSet<CellId> = HashSet::new();
    // Candidates the static precheck rejected: recorded once in
    // `pre_skipped`, then excluded like poisoned ones (the verdict is a
    // pure function of the netlist, so it would recur every iteration).
    let mut pre_skipped: Vec<SkippedCandidate> = Vec::new();
    let mut pre_excluded: HashSet<CellId> = HashSet::new();
    let mut evaluated: usize = 0;
    let mut truncated = false;
    // The last ranking's exact activity pass, carried into the next so
    // that only cells whose input functions changed are encoded again.
    let mut activity_carry: Option<oiso_activity::ActivityCarry> = None;

    // Replay journaled accepted steps without re-simulating: the journal
    // stores everything the transform needs (cell, activation, style via
    // the config fingerprint), so replay is pure netlist surgery.
    for step in &resume_steps {
        let cell = work
            .find_cell(&step.cell)
            .ok_or_else(|| CheckpointError::UnknownCell {
                name: step.cell.clone(),
            })?;
        let record = isolate_with_cache(&mut work, cell, &step.activation, config.style, &mut synth_cache)?;
        isolated_records.push(record);
        isolated_acts.insert(cell, step.activation.clone());
        if iterations.last().map(|l| l.iteration) != Some(step.iteration) {
            iterations.push(IterationLog {
                iteration: step.iteration,
                total_power: Power::from_mw(step.power),
                isolated: Vec::new(),
                // Rejection counts are not journaled; replayed logs carry
                // only the accepted entries.
                rejected: 0,
            });
        }
        iterations
            .last_mut()
            .expect("pushed above")
            .isolated
            .push((cell, step.h, step.saved));
        if let Some(w) = &mut writer {
            w.append(step)?;
        }
        if let Some(tap) = &config.progress {
            tap.notify(step);
        }
    }
    // An uninterrupted run would enter the iteration after the last
    // journaled one; resume does exactly that.
    let start_iter = resume_steps.last().map_or(1, |s| s.iteration + 1);

    for iter_no in start_iter..=config.max_iterations {
        // Cooperative budget check between iterations: on exhaustion the
        // accepted-so-far prefix is returned as a truncated outcome.
        if config.budget.expired() || config.budget.iteration_exhausted(iter_no) {
            truncated = true;
            break;
        }
        let timing = analyze(lib, &work, clock_period);
        let filter = CandidateFilter {
            min_width: config.min_width,
            slack_threshold: config
                .slack_threshold
                .unwrap_or(Time::from_ns(f64::NEG_INFINITY)),
            bank: config.style.bank_kind(),
        };
        let mut candidates: Vec<Candidate> =
            identify_candidates(&work, lib, &timing, &config.activation, &filter)
                .into_iter()
                .filter(|c| {
                    !isolated_acts.contains_key(&c.cell)
                        && !poisoned.contains(&c.cell)
                        && !pre_excluded.contains(&c.cell)
                })
                .collect();
        if config.fsm_dont_cares {
            let fsms = crate::fsm::find_closed_fsms(&work);
            for cand in &mut candidates {
                cand.activation =
                    crate::fsm::refine_with_fsm_dont_cares(&work, &fsms, &cand.activation);
            }
        }
        if config.optimize_activation_logic {
            for cand in &mut candidates {
                cand.activation = oiso_boolex::minimize(&cand.activation);
            }
        }
        // Static precheck (after minimization, so the checked expression
        // is the one that would be synthesized): drop provably-useless or
        // unsound candidates without paying for their simulation scoring.
        // Serial, in candidate order — deterministic at any thread count.
        if config.static_precheck {
            // An explicit run ceiling is one shared allowance debited
            // across every precheck of the run; the bundled default stays
            // per-candidate so one pathological cone cannot starve the
            // rest.
            let shared = config.budget.bdd_node_ceiling.map(oiso_boolex::NodeBudget::new);
            candidates.retain(|cand| {
                let budget = shared.clone().unwrap_or_else(|| {
                    oiso_boolex::NodeBudget::new(crate::precheck::DEFAULT_PRECHECK_NODE_BUDGET)
                });
                match crate::precheck::precheck_candidate_with_budget(
                    &work,
                    cand.cell,
                    &cand.activation,
                    &budget,
                ) {
                    Some(verdict) => {
                        pre_excluded.insert(cand.cell);
                        pre_skipped.push(SkippedCandidate {
                            cell: cand.cell,
                            name: work.cell(cand.cell).name().to_string(),
                            iteration: iter_no,
                            reason: verdict.reason(),
                        });
                        false
                    }
                    None => true,
                }
            });
        }
        // Activity pre-ranking: order candidates by the static savings
        // estimate so a binding cap below keeps the most promising ones.
        // The ranking is a pure serial function of the work netlist and
        // the stimulus plan — thread-count invariant by construction. A cap
        // that cannot bind keeps every candidate, and winners break ties on
        // cell identity, so the order is moot and the analysis is skipped.
        // The model derives only the nets the ranks read: operands and
        // activation supports. It is built in the previous ranking's BDD
        // manager where it can be, with ranks bit-identical to a fresh
        // model's.
        let cap_binds = config
            .candidate_cap
            .is_some_and(|cap| candidates.len() > cap);
        if config.activity_ranking && cap_binds {
            let mut activity = oiso_activity::ActivityModel::with_carry(
                &work,
                plan,
                &oiso_activity::ActivityOptions::default(),
                activity_carry.take(),
            );
            // Same budget policy as the precheck above: an explicit run
            // ceiling is shared across the whole ranked list.
            let shared = config.budget.bdd_node_ceiling.map(oiso_boolex::NodeBudget::new);
            let mut ranked: Vec<(f64, Candidate)> = candidates
                .drain(..)
                .map(|cand| {
                    let budget = shared.clone().unwrap_or_else(|| {
                        oiso_boolex::NodeBudget::new(crate::precheck::DEFAULT_PRECHECK_NODE_BUDGET)
                    });
                    let rank = crate::precheck::activity_rank_by(
                        &mut activity,
                        &work,
                        cand.cell,
                        &cand.activation,
                        &budget,
                    );
                    (rank, cand)
                })
                .collect();
            activity_carry = activity.into_carry();
            ranked.sort_by(|a, b| {
                b.0.partial_cmp(&a.0)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then_with(|| a.1.cell.index().cmp(&b.1.cell.index()))
            });
            candidates.extend(ranked.into_iter().map(|(_, cand)| cand));
        }
        if let Some(cap) = config.candidate_cap {
            candidates.truncate(cap);
        }
        if candidates.is_empty() {
            break;
        }

        // Measure probabilities and toggle rates with the estimator's
        // monitors attached (Algorithm 1 line 16: estimate_power +
        // signal statistics).
        let estimator =
            SavingsEstimator::new(&work, config.estimator, &candidates, &isolated_acts);
        let mut tb = Testbench::from_plan(&work, plan)?;
        estimator.register_monitors(&mut tb);
        // Monitored runs always execute (their monitor set is unique to this
        // iteration), but deposit their statistics: if the loop terminates
        // without transforming further, the final measurement below replays
        // this report instead of re-simulating.
        let report =
            std::sync::Arc::new(tb.run_with_engine(config.sim_cycles, config.engine)?);
        memo.deposit(&work, plan, config.sim_cycles, &report);
        let breakdown = pe.estimate(&work, &report);
        let area_now = total_area(lib, &work);
        let cost_model =
            CostModel::new(lib, cond, config.weights).with_h_min(config.h_min);

        // Score every candidate. Each candidate's (h, savings) is a pure
        // function of this iteration's shared read-only state, so the
        // evaluations fan out across the worker pool; `parallel_map`
        // returns them in candidate order, making the grouping below —
        // and everything downstream — identical at every thread count.
        // Panic isolation: a panicking evaluation (a buggy estimator, or
        // the FAULT_SITE_SCORE injection) poisons only its own slot; the
        // candidate is recorded as skipped and excluded from later
        // iterations instead of tearing down the run.
        evaluated += candidates.len();
        let scores: Vec<TaskOutcome<(f64, SavingsEstimate)>> =
            oiso_par::parallel_map_isolated(config.threads, &candidates, |_, cand| {
                oiso_par::faults::trip(FAULT_SITE_SCORE, cand.cell.index());
                let mut savings = estimator.estimate(&work, &pe, &report, cand.cell);
                if !config.secondary_savings {
                    savings.secondary = oiso_techlib::Power::ZERO;
                }
                let as_rate = estimator.activation_toggle_rate(&report, cand.cell);
                let cost = cost_model.isolation_cost(
                    &work,
                    &report,
                    &pe,
                    cand.cell,
                    &cand.activation,
                    config.style,
                    as_rate,
                );
                let h = cost_model.h(&savings, &cost, breakdown.total, area_now);
                (h, savings)
            });

        // Group the scored candidates by combinational block, diverting
        // panicked slots to the skip list.
        let mut by_block: HashMap<usize, Vec<(&Candidate, f64, SavingsEstimate)>> =
            HashMap::new();
        for (cand, outcome) in candidates.iter().zip(scores) {
            match outcome {
                TaskOutcome::Ok((h, savings)) => {
                    by_block
                        .entry(cand.block)
                        .or_default()
                        .push((cand, h, savings));
                }
                TaskOutcome::Panicked { payload, .. } => {
                    poisoned.insert(cand.cell);
                    skipped.push(SkippedCandidate {
                        cell: cand.cell,
                        name: work.cell(cand.cell).name().to_string(),
                        iteration: iter_no,
                        reason: payload,
                    });
                }
            }
        }
        if config.budget.skipped_exhausted(skipped.len()) {
            return Err(IsolationError::TooManySkipped {
                skipped,
                max: config.budget.max_skipped.unwrap_or(0),
            });
        }

        // Isolate the best candidate per block (lines 17-29).
        let mut log = IterationLog {
            iteration: iter_no,
            total_power: breakdown.total,
            isolated: Vec::new(),
            rejected: 0,
        };
        let mut winners: Vec<(CellId, BoolExpr, f64, f64)> = Vec::new();
        let mut blocks: Vec<_> = by_block.into_iter().collect();
        blocks.sort_by_key(|(block, _)| *block);
        for (_, mut scored) in blocks {
            // Ties break on cell identity so the winner is independent of
            // the candidate-list order (activity ranking reorders it).
            scored.sort_by(|a, b| {
                b.1.partial_cmp(&a.1)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then_with(|| a.0.cell.index().cmp(&b.0.cell.index()))
            });
            let (best, h, savings) = &scored[0];
            if *h >= config.h_min {
                winners.push((
                    best.cell,
                    best.activation.clone(),
                    *h,
                    savings.total().as_mw(),
                ));
                log.rejected += scored.len() - 1;
            } else {
                log.rejected += scored.len();
            }
        }
        if winners.is_empty() {
            iterations.push(log);
            break;
        }
        for (cell, activation, h, saved) in winners {
            let record =
                isolate_with_cache(&mut work, cell, &activation, config.style, &mut synth_cache)?;
            isolated_records.push(record);
            // Journal the acceptance as soon as it happens (flushed per
            // line), so a killed run loses at most a torn final record.
            let step = AcceptedStep {
                iteration: iter_no,
                cell: work.cell(cell).name().to_string(),
                activation: activation.clone(),
                h,
                saved,
                power: breakdown.total.as_mw(),
            };
            if let Some(w) = &mut writer {
                w.append(&step)?;
            }
            if let Some(tap) = &config.progress {
                tap.notify(&step);
            }
            isolated_acts.insert(cell, activation);
            log.isolated.push((cell, h, saved));
        }
        iterations.push(log);
    }

    // Final measurement on the transformed circuit. When the loop's last
    // iteration simulated this exact netlist (it terminated without
    // isolating), the memo serves its deposited report back and no
    // simulation runs here.
    let report_final =
        memo.run_with_engine(&work, plan, config.sim_cycles, config.engine)?;
    let power_after = pe.estimate(&work, &report_final).total;
    let area_after = total_area(lib, &work);
    let slack_after = analyze(lib, &work, clock_period).worst_slack;

    Ok(IsolationOutcome {
        netlist: work,
        style: config.style,
        isolated: isolated_records,
        iterations,
        power_before,
        power_after,
        area_before,
        area_after,
        slack_before,
        slack_after,
        truncated,
        skipped,
        pre_skipped,
        evaluated,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use oiso_netlist::{CellKind, NetlistBuilder};
    use oiso_sim::StimulusSpec;

    /// A mostly-idle gated multiplier: the canonical isolation win.
    fn idle_mac() -> (Netlist, StimulusPlan) {
        let mut b = NetlistBuilder::new("mac");
        let x = b.input("x", 16);
        let y = b.input("y", 16);
        let g = b.input("g", 1);
        let p = b.wire("p", 16);
        let q = b.wire("q", 16);
        b.cell("mul", CellKind::Mul, &[x, y], p).unwrap();
        b.cell("r", CellKind::Reg { has_enable: true }, &[p, g], q)
            .unwrap();
        b.mark_output(q);
        let plan = StimulusPlan::new(7)
            .drive("x", StimulusSpec::UniformRandom)
            .drive("y", StimulusSpec::UniformRandom)
            .drive("g", StimulusSpec::MarkovBits {
                p_one: 0.1,
                toggle_rate: 0.1,
            });
        (b.build().unwrap(), plan)
    }

    #[test]
    fn idle_multiplier_gets_isolated_and_saves_power() {
        let (n, plan) = idle_mac();
        for style in IsolationStyle::ALL {
            let config = IsolationConfig::default()
                .with_style(style)
                .with_sim_cycles(1500);
            let outcome = optimize(&n, &plan, &config).unwrap();
            assert_eq!(outcome.num_isolated(), 1, "{style}");
            let red = outcome.power_reduction_percent();
            assert!(red > 10.0, "{style}: measured reduction {red:.2}%");
            assert!(outcome.area_increase_percent() > 0.0, "{style}");
            outcome.netlist.validate().unwrap();
        }
    }

    #[test]
    fn busy_multiplier_is_left_alone() {
        let (n, _) = idle_mac();
        let plan = StimulusPlan::new(7)
            .drive("x", StimulusSpec::UniformRandom)
            .drive("y", StimulusSpec::UniformRandom)
            .drive("g", StimulusSpec::MarkovBits {
                p_one: 0.98,
                toggle_rate: 0.02,
            });
        let config = IsolationConfig::default()
            .with_sim_cycles(1500)
            // Demand a clear win.
            .with_h_min(0.02);
        let outcome = optimize(&n, &plan, &config).unwrap();
        assert_eq!(
            outcome.num_isolated(),
            0,
            "busy module must not be isolated: {:?}",
            outcome.iterations
        );
    }

    #[test]
    fn huge_h_min_blocks_everything() {
        let (n, plan) = idle_mac();
        let config = IsolationConfig::default()
            .with_sim_cycles(800)
            .with_h_min(10.0);
        let outcome = optimize(&n, &plan, &config).unwrap();
        assert_eq!(outcome.num_isolated(), 0);
        assert_eq!(outcome.power_reduction_percent(), 0.0);
        assert_eq!(outcome.area_increase_percent(), 0.0);
    }

    #[test]
    fn original_netlist_is_untouched() {
        let (n, plan) = idle_mac();
        let cells_before = n.num_cells();
        let config = IsolationConfig::default().with_sim_cycles(800);
        let outcome = optimize(&n, &plan, &config).unwrap();
        assert_eq!(n.num_cells(), cells_before);
        assert!(outcome.netlist.num_cells() > cells_before);
    }

    #[test]
    fn iteration_log_records_decisions() {
        let (n, plan) = idle_mac();
        let config = IsolationConfig::default().with_sim_cycles(800);
        let outcome = optimize(&n, &plan, &config).unwrap();
        assert!(!outcome.iterations.is_empty());
        let first = &outcome.iterations[0];
        assert_eq!(first.iteration, 1);
        assert_eq!(first.isolated.len(), 1);
        assert!(first.total_power.as_mw() > 0.0);
        let (_, h, saved) = first.isolated[0];
        assert!(h > 0.0);
        assert!(saved > 0.0);
    }

    #[test]
    fn missing_stimulus_is_reported() {
        let (n, _) = idle_mac();
        let plan = StimulusPlan::new(0).drive("x", StimulusSpec::UniformRandom);
        let err = optimize(&n, &plan, &IsolationConfig::default()).unwrap_err();
        assert!(matches!(err, IsolationError::Sim(_)), "{err}");
    }

    fn temp_journal(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "oiso-alg-{}-{tag}-{n}.jsonl",
            std::process::id()
        ))
    }

    #[test]
    fn expired_budget_truncates_before_any_iteration() {
        let (n, plan) = idle_mac();
        let config = IsolationConfig::default()
            .with_sim_cycles(500)
            .with_budget(RunBudget::unlimited().with_expiry_after_checks(0));
        let outcome = optimize(&n, &plan, &config).unwrap();
        assert!(outcome.truncated);
        assert_eq!(outcome.num_isolated(), 0);
        assert!(outcome.iterations.is_empty());
        assert_eq!(outcome.power_reduction_percent(), 0.0);
    }

    #[test]
    fn mid_run_budget_expiry_returns_best_so_far() {
        // A healthy run needs a second iteration to observe convergence;
        // capping the budget at one iteration keeps that iteration's
        // accepted candidate but flags the outcome truncated.
        let (n, plan) = idle_mac();
        let config = IsolationConfig::default()
            .with_sim_cycles(800)
            .with_budget(RunBudget::unlimited().with_max_iterations(1));
        let outcome = optimize(&n, &plan, &config).unwrap();
        assert!(outcome.truncated, "stopped by budget, not convergence");
        assert_eq!(outcome.num_isolated(), 1);
        assert!(outcome.power_reduction_percent() > 0.0, "best-so-far kept");
    }

    #[test]
    fn checkpoint_resume_reproduces_the_run_bit_for_bit() {
        let (n, plan) = idle_mac();
        let journal = temp_journal("resume");
        let base = IsolationConfig::default().with_sim_cycles(800);

        let full = optimize(&n, &plan, &base).unwrap();
        let written = optimize(&n, &plan, &base.clone().with_checkpoint(&journal)).unwrap();
        assert_eq!(written.num_isolated(), full.num_isolated());

        for threads in [1, 4] {
            let resumed = optimize(
                &n,
                &plan,
                &base.clone().with_threads(threads).with_resume(&journal),
            )
            .unwrap();
            assert!(!resumed.truncated);
            assert_eq!(resumed.num_isolated(), full.num_isolated(), "threads={threads}");
            for (a, b) in full.isolated.iter().zip(&resumed.isolated) {
                assert_eq!(a.candidate, b.candidate, "threads={threads}");
                assert_eq!(a.activation, b.activation, "threads={threads}");
            }
            assert_eq!(
                resumed.power_after.as_mw().to_bits(),
                full.power_after.as_mw().to_bits(),
                "threads={threads}"
            );
            assert_eq!(resumed.netlist.fingerprint(), full.netlist.fingerprint());
        }
        std::fs::remove_file(&journal).ok();
    }

    #[test]
    fn resume_rejects_mismatched_fingerprints() {
        let (n, plan) = idle_mac();
        let journal = temp_journal("mismatch");
        let base = IsolationConfig::default().with_sim_cycles(800);
        optimize(&n, &plan, &base.clone().with_checkpoint(&journal)).unwrap();

        // Different stimulus seed → plan fingerprint differs → refused.
        let other_plan = StimulusPlan::new(8)
            .drive("x", StimulusSpec::UniformRandom)
            .drive("y", StimulusSpec::UniformRandom)
            .drive("g", StimulusSpec::MarkovBits {
                p_one: 0.1,
                toggle_rate: 0.1,
            });
        let err = optimize(&n, &other_plan, &base.clone().with_resume(&journal)).unwrap_err();
        assert!(
            matches!(
                err,
                IsolationError::Checkpoint(CheckpointError::FingerprintMismatch {
                    field: "stimulus",
                    ..
                })
            ),
            "{err}"
        );

        // Different algorithm config → config fingerprint differs.
        let err = optimize(
            &n,
            &plan,
            &base.clone().with_h_min(0.5).with_resume(&journal),
        )
        .unwrap_err();
        assert!(
            matches!(
                err,
                IsolationError::Checkpoint(CheckpointError::FingerprintMismatch {
                    field: "config",
                    ..
                })
            ),
            "{err}"
        );
        std::fs::remove_file(&journal).ok();
    }

    #[test]
    fn two_blocks_isolate_independently() {
        // Two gated multipliers separated by a register boundary: both get
        // isolated (one per block, single iteration).
        let mut b = NetlistBuilder::new("two");
        let x = b.input("x", 16);
        let y = b.input("y", 16);
        let g = b.input("g", 1);
        let p1 = b.wire("p1", 16);
        let q1 = b.wire("q1", 16);
        let p2 = b.wire("p2", 16);
        let q2 = b.wire("q2", 16);
        b.cell("mul1", CellKind::Mul, &[x, y], p1).unwrap();
        b.cell("r1", CellKind::Reg { has_enable: true }, &[p1, g], q1)
            .unwrap();
        b.cell("mul2", CellKind::Mul, &[q1, y], p2).unwrap();
        b.cell("r2", CellKind::Reg { has_enable: true }, &[p2, g], q2)
            .unwrap();
        b.mark_output(q2);
        let n = b.build().unwrap();
        let plan = StimulusPlan::new(3)
            .drive("x", StimulusSpec::UniformRandom)
            .drive("y", StimulusSpec::UniformRandom)
            .drive("g", StimulusSpec::MarkovBits {
                p_one: 0.15,
                toggle_rate: 0.15,
            });
        let config = IsolationConfig::default().with_sim_cycles(1500);
        let outcome = optimize(&n, &plan, &config).unwrap();
        assert_eq!(outcome.num_isolated(), 2);
        assert!(outcome.power_reduction_percent() > 10.0);
    }
}
