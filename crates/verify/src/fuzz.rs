//! Seeded transform fuzzing: random netlists → mutate → derive → isolate
//! → check, in parallel.
//!
//! Each case is fully determined by `(seed, case index)`: the generator
//! parameters, the mutation stream, the style choices, and the fallback
//! sampling seed all derive from one per-case seed, and the parallel
//! driver (`oiso_par::parallel_map`) is index-ordered — so a fuzz run is
//! bit-identical at any thread count and any failure reproduces from its
//! case index alone.
//!
//! *Sabotage* modes corrupt the derived activation before isolating,
//! turning the fuzzer on itself: a harness that cannot catch a
//! forced-FALSE activation would also miss a genuinely broken transform.

use crate::cex::Counterexample;
use crate::check::CheckConfig;
use crate::mutate::mutate_netlist;
use crate::{verify_isolation_plan, Proof, VerifyConfig, VerifyOutcome};
use oiso_boolex::BoolExpr;
use oiso_core::checkpoint::{parse_journal, read_journal, JournalWriter};
use oiso_core::{
    derive_activation_functions, json, ActivationConfig, CheckpointError, IsolationStyle,
    RunBudget,
};
use oiso_designs::random::{build_netlist, RandomParams};
use oiso_netlist::Fnv;
use oiso_par::{parallel_map_isolated, TaskOutcome};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::HashSet;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Fault-injection site: the body of one fuzz case, keyed by case index.
/// Arm it with `oiso_par::faults::inject` to make specific cases panic —
/// the run skips them, records a [`PanickedCase`], and stays bit-identical
/// at every thread count.
pub const FAULT_SITE_CASE: &str = "fuzz.case";

/// Version tag of the fuzz journal format. v2 case lines carried a
/// `reordered` counter, which is no longer written; the reader ignores it,
/// so journals that still have it resume unchanged.
const FUZZ_JOURNAL_VERSION: u64 = 2;

/// How (and whether) to corrupt activations before isolating.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Sabotage {
    /// Ship the derived activation unchanged: violations indicate a real
    /// transform or checker bug.
    #[default]
    None,
    /// Replace the activation with constant FALSE: operands stay masked
    /// even while observable. Candidates whose derived activation is
    /// already FALSE are skipped (the sabotage would be a no-op).
    ForceFalse,
    /// Negate the derived activation: isolation exactly when active.
    Negate,
}

/// Parameters of a fuzz run.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Number of independent cases.
    pub cases: usize,
    /// Master seed; every case derives its own stream from it.
    pub seed: u64,
    /// Worker threads for `parallel_map` (1 = serial, 0 = all cores).
    pub threads: usize,
    /// BDD node budget per equivalence check.
    pub node_budget: usize,
    /// Random vectors for the differential fallback.
    pub sample_vectors: usize,
    /// Activation corruption mode.
    pub sabotage: Sabotage,
    /// Resource bounds. The wall deadline stops starting new cases (those
    /// become [`FuzzReport::not_run`]) and degrades in-flight BDD checks to
    /// sampling; `max_iterations` caps cases by index; `max_skipped` bounds
    /// tolerated case panics; `bdd_node_ceiling` overrides `node_budget`.
    pub budget: RunBudget,
    /// Journal completed clean cases to this JSONL file as they finish.
    pub checkpoint: Option<PathBuf>,
    /// Replay clean cases recorded in this journal instead of re-running
    /// them. The journal must have been produced by an equivalent config
    /// (see [`fuzz_config_fingerprint`]); a mismatch is refused.
    pub resume: Option<PathBuf>,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            cases: 100,
            seed: 1,
            threads: 1,
            node_budget: CheckConfig::default().node_budget,
            sample_vectors: 64,
            sabotage: Sabotage::None,
            budget: RunBudget::unlimited(),
            checkpoint: None,
            resume: None,
        }
    }
}

/// One equivalence violation found by the fuzzer.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The case that produced it (replays the whole scenario).
    pub case_index: usize,
    /// Instance name of the isolated candidate.
    pub candidate: String,
    /// Bank style in effect.
    pub style: IsolationStyle,
    /// The symbolic (or sampled) witness.
    pub counterexample: Counterexample,
    /// Whether the witness reproduced on the concrete simulators.
    pub replay_confirmed: bool,
}

/// Aggregated result of one fuzz case.
#[derive(Debug, Clone, Default)]
pub struct CaseOutcome {
    /// Which case this is.
    pub case_index: usize,
    /// Isolation candidates considered (plan length).
    pub candidates: usize,
    /// Candidates skipped (vacuous activation, cycle filter, or sabotage
    /// not applicable).
    pub skipped: usize,
    /// Candidates proved equivalent symbolically.
    pub bdd_proved: usize,
    /// Candidates validated by sampling only (BDD budget exceeded).
    pub sampled: usize,
    /// Equivalence violations found.
    pub violations: Vec<Violation>,
    /// A structural transform failure, if one occurred (harness bug — the
    /// cycle filter and validators should make this unreachable).
    pub transform_error: Option<String>,
    /// True when this outcome was replayed from a resume journal rather
    /// than re-executed.
    pub replayed: bool,
}

impl CaseOutcome {
    /// True when the case found no violation and no transform error —
    /// exactly the cases the checkpoint journal records for replay.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.transform_error.is_none()
    }
}

/// One fuzz case whose body panicked (a poisoned generator/checker input,
/// or an injected fault). The case is skipped, not retried.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PanickedCase {
    /// Index of the poisoned case.
    pub case_index: usize,
    /// The panic payload, rendered as text.
    pub reason: String,
}

impl fmt::Display for PanickedCase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "case {}: {}", self.case_index, self.reason)
    }
}

/// A fuzz run failure (as opposed to a violation *finding*, which is data).
#[derive(Debug)]
pub enum FuzzError {
    /// More cases panicked than [`RunBudget::max_skipped`] tolerates.
    TooManyPanicked {
        /// Every panicked case, in case order.
        panicked: Vec<PanickedCase>,
        /// The tolerance that was exceeded.
        max: usize,
    },
    /// The checkpoint journal could not be written, read, or validated.
    Checkpoint(CheckpointError),
}

impl fmt::Display for FuzzError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FuzzError::TooManyPanicked { panicked, max } => {
                writeln!(
                    f,
                    "aborting: {} fuzz case(s) panicked, budget tolerates {max}:",
                    panicked.len()
                )?;
                for p in panicked {
                    writeln!(f, "  {p}")?;
                }
                Ok(())
            }
            FuzzError::Checkpoint(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for FuzzError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FuzzError::Checkpoint(e) => Some(e),
            FuzzError::TooManyPanicked { .. } => None,
        }
    }
}

impl From<CheckpointError> for FuzzError {
    fn from(e: CheckpointError) -> Self {
        FuzzError::Checkpoint(e)
    }
}

/// Derives the per-case seed from the master seed — a SplitMix64-style
/// finalizer so neighboring indices land in unrelated streams.
pub fn case_seed(seed: u64, index: usize) -> u64 {
    let mut z = seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs one fuzz case. Deterministic in `(config.seed, index)` and
/// independent of every other case.
pub fn run_case(config: &FuzzConfig, index: usize) -> CaseOutcome {
    let mut rng = StdRng::seed_from_u64(case_seed(config.seed, index));
    let ops = rng.gen_range(2usize..10);
    let width = rng.gen_range(4u8..9);
    let base = build_netlist(&RandomParams {
        seed: rng.gen::<u64>(),
        ops,
        width,
    });
    let mutations = rng.gen_range(0usize..5);
    let netlist = mutate_netlist(&base, &mut rng, mutations);

    let activations = derive_activation_functions(&netlist, &ActivationConfig::default());
    let mut outcome = CaseOutcome {
        case_index: index,
        ..CaseOutcome::default()
    };
    let mut plan = Vec::new();
    for cid in netlist.arithmetic_cells() {
        let Some(act) = activations.get(&cid) else {
            continue;
        };
        let style = IsolationStyle::ALL[rng.gen_range(0usize..IsolationStyle::ALL.len())];
        let act = match config.sabotage {
            Sabotage::None => act.clone(),
            Sabotage::ForceFalse => {
                if act.is_const(false) {
                    outcome.skipped += 1;
                    continue;
                }
                BoolExpr::FALSE
            }
            Sabotage::Negate => act.clone().not(),
        };
        plan.push((cid, act, style));
    }
    outcome.candidates = plan.len();

    let vconfig = VerifyConfig {
        check: CheckConfig {
            node_budget: effective_node_budget(config),
            assumption: None,
            // Past the run deadline, in-flight symbolic checks degrade to
            // differential sampling instead of delaying shutdown.
            deadline: config.budget.wall_deadline,
        },
        sample_vectors: config.sample_vectors,
        sample_seed: case_seed(config.seed, index) ^ 0xD1FF_5A3E,
    };
    match verify_isolation_plan(&netlist, &plan, &vconfig) {
        Err(e) => outcome.transform_error = Some(e.to_string()),
        Ok((_, checks)) => {
            for check in checks {
                match check.outcome {
                    VerifyOutcome::Verified(Proof::Bdd { .. }) => outcome.bdd_proved += 1,
                    VerifyOutcome::Verified(Proof::Sampled { .. }) => outcome.sampled += 1,
                    VerifyOutcome::Skipped { .. } => outcome.skipped += 1,
                    VerifyOutcome::Violation {
                        counterexample,
                        replay,
                    } => outcome.violations.push(Violation {
                        case_index: index,
                        candidate: check.candidate,
                        style: check.style,
                        counterexample,
                        replay_confirmed: matches!(
                            replay,
                            crate::ReplayVerdict::Confirmed { .. }
                        ),
                    }),
                }
            }
        }
    }
    outcome
}

/// Fingerprint (FNV-1a) of the config knobs that determine per-case
/// outcomes: the seed, the *effective* BDD node budget, the sampling
/// width, and the sabotage mode. Thread count, deadlines, case count, and
/// journal paths are excluded — they bound or route the run without
/// changing any individual case's result, so a journal stays resumable at
/// a different thread count or under a different deadline.
pub fn fuzz_config_fingerprint(config: &FuzzConfig) -> u64 {
    let words = [
        FUZZ_JOURNAL_VERSION,
        config.seed,
        effective_node_budget(config) as u64,
        config.sample_vectors as u64,
        match config.sabotage {
            Sabotage::None => 0,
            Sabotage::ForceFalse => 1,
            Sabotage::Negate => 2,
        },
    ];
    let mut h = Fnv::new();
    for w in words {
        h.u64(w);
    }
    h.finish()
}

/// The node budget actually applied to symbolic checks:
/// [`RunBudget::bdd_node_ceiling`] wins over [`FuzzConfig::node_budget`].
fn effective_node_budget(config: &FuzzConfig) -> usize {
    config.budget.bdd_node_ceiling.unwrap_or(config.node_budget)
}

fn parse_case_line(raw: &str, line: usize) -> Result<CaseOutcome, CheckpointError> {
    let format_err = |message| CheckpointError::Format { line, message };
    let record = json::parse(raw).map_err(format_err)?;
    if record.str_field("kind").map_err(format_err)? != "case" {
        return Err(format_err("expected a \"case\" record".into()));
    }
    let count = |key: &str| record.int_field(key).map(|n| n as usize).map_err(format_err);
    Ok(CaseOutcome {
        case_index: count("index")?,
        candidates: count("candidates")?,
        skipped: count("skipped")?,
        bdd_proved: count("bdd_proved")?,
        sampled: count("sampled")?,
        violations: Vec::new(),
        transform_error: None,
        replayed: true,
    })
}

/// Checks a fuzz journal's header line against `expected_fp`.
fn check_fuzz_header(line: &str, expected_fp: u64) -> Result<(), CheckpointError> {
    // A line that is not JSON or misses a field is not a header at all.
    let no_header = |_| CheckpointError::MissingHeader;
    let header = json::parse(line).map_err(no_header)?;
    if header.str_field("kind").map_err(no_header)? != "fuzz-header" {
        return Err(CheckpointError::MissingHeader);
    }
    let version = header.int_field("version").map_err(no_header)?;
    if version != FUZZ_JOURNAL_VERSION {
        return Err(CheckpointError::FingerprintMismatch {
            field: "version",
            expected: FUZZ_JOURNAL_VERSION,
            found: version,
        });
    }
    let fp_text = header.str_field("config").map_err(no_header)?;
    let found = (fp_text.len() == 16)
        .then(|| u64::from_str_radix(fp_text, 16).ok())
        .flatten()
        .ok_or(CheckpointError::MissingHeader)?;
    if found != expected_fp {
        return Err(CheckpointError::FingerprintMismatch {
            field: "config",
            expected: expected_fp,
            found,
        });
    }
    Ok(())
}

/// Loads a fuzz journal, validating its header against `expected_fp`,
/// under the shared journal rules ([`parse_journal`]): a torn final line
/// is dropped, any other malformation is a hard error.
fn load_fuzz_journal(path: &Path, expected_fp: u64) -> Result<Vec<CaseOutcome>, CheckpointError> {
    let text = read_journal(path)?;
    let header = |line: &str| check_fuzz_header(line, expected_fp);
    parse_journal(&text, header, parse_case_line).map(|(_, cases, _)| cases)
}

/// Creates a fuzz journal bound to the config fingerprint `fp`.
fn create_fuzz_journal(path: &Path, fp: u64) -> Result<JournalWriter, CheckpointError> {
    let header = format!(
        "{{\"kind\":\"fuzz-header\",\"version\":{FUZZ_JOURNAL_VERSION},\"config\":\"{fp:016x}\"}}"
    );
    JournalWriter::create(path, &header)
}

/// Appends one clean case to a fuzz journal shared by the parallel
/// workers. Record order in the file is completion order, which is fine —
/// replay is keyed by case index, not position.
fn append_case(journal: &Mutex<JournalWriter>, c: &CaseOutcome) -> Result<(), CheckpointError> {
    let line = format!(
        "{{\"kind\":\"case\",\"index\":{},\"candidates\":{},\"skipped\":{},\"bdd_proved\":{},\"sampled\":{}}}",
        c.case_index, c.candidates, c.skipped, c.bdd_proved, c.sampled
    );
    journal.lock().expect("fuzz journal lock").write_line(&line)
}

/// Everything a fuzz run observed.
#[derive(Debug, Clone, Default)]
pub struct FuzzReport {
    /// Per-case outcomes (run or replayed), in case order.
    pub cases: Vec<CaseOutcome>,
    /// True when the budget stopped the run before every case was started;
    /// `cases` is then a best-so-far prefix of the full run.
    pub truncated: bool,
    /// Case indices never started because the budget expired first.
    pub not_run: Vec<usize>,
    /// Cases whose body panicked (skipped, with diagnostics), in case order.
    pub panicked: Vec<PanickedCase>,
    /// How many outcomes were replayed from the resume journal.
    pub replayed: usize,
}

impl FuzzReport {
    /// Candidates considered across all cases.
    pub fn total_candidates(&self) -> usize {
        self.cases.iter().map(|c| c.candidates).sum()
    }

    /// Candidates skipped across all cases.
    pub fn total_skipped(&self) -> usize {
        self.cases.iter().map(|c| c.skipped).sum()
    }

    /// Candidates proved equivalent symbolically.
    pub fn total_bdd_proved(&self) -> usize {
        self.cases.iter().map(|c| c.bdd_proved).sum()
    }

    /// Candidates validated by sampling only.
    pub fn total_sampled(&self) -> usize {
        self.cases.iter().map(|c| c.sampled).sum()
    }

    /// All violations, in case order.
    pub fn violations(&self) -> impl Iterator<Item = &Violation> {
        self.cases.iter().flat_map(|c| c.violations.iter())
    }

    /// All structural transform failures, in case order.
    pub fn transform_errors(&self) -> impl Iterator<Item = (usize, &str)> {
        self.cases
            .iter()
            .filter_map(|c| c.transform_error.as_deref().map(|e| (c.case_index, e)))
    }

    /// True when no violation, no transform error, and no panicked case
    /// occurred.
    pub fn is_clean(&self) -> bool {
        self.violations().next().is_none()
            && self.transform_errors().next().is_none()
            && self.panicked.is_empty()
    }
}

/// Runs `config.cases` independent fuzz cases across `config.threads`
/// workers. Deterministic in the seed regardless of thread count: case
/// panics are isolated per case, the budget's deadline/iteration bounds
/// mark un-started cases as [`FuzzReport::not_run`], and clean cases are
/// journaled to (and replayed from) the checkpoint paths.
///
/// # Errors
///
/// [`FuzzError::TooManyPanicked`] when more cases panic than
/// [`RunBudget::max_skipped`] tolerates; [`FuzzError::Checkpoint`] when a
/// journal cannot be written, read, or validated (including a resume
/// journal produced by a different seed/budget/sabotage config).
pub fn run_fuzz(config: &FuzzConfig) -> Result<FuzzReport, FuzzError> {
    let fp = fuzz_config_fingerprint(config);
    let mut cases: Vec<CaseOutcome> = match &config.resume {
        Some(path) => {
            let mut seen = HashSet::new();
            load_fuzz_journal(path, fp)?
                .into_iter()
                .filter(|c| c.case_index < config.cases && seen.insert(c.case_index))
                .collect()
        }
        None => Vec::new(),
    };
    // The writer opens after the resume journal is read, so resuming from
    // and checkpointing to the same path works.
    let journal = match &config.checkpoint {
        Some(path) => Some(Mutex::new(create_fuzz_journal(path, fp)?)),
        None => None,
    };
    if let Some(j) = &journal {
        for c in &cases {
            append_case(j, c)?;
        }
    }
    let done: HashSet<usize> = cases.iter().map(|c| c.case_index).collect();
    let to_run: Vec<usize> = (0..config.cases).filter(|i| !done.contains(i)).collect();
    let write_err: Mutex<Option<CheckpointError>> = Mutex::new(None);
    let outcomes = parallel_map_isolated(config.threads, &to_run, |_, &i| {
        // Index-based iteration cap and a non-counting wall probe: both
        // deterministic per case, regardless of worker interleaving.
        if config.budget.wall_expired() || config.budget.iteration_exhausted(i + 1) {
            return None;
        }
        oiso_par::faults::trip(FAULT_SITE_CASE, i);
        let outcome = run_case(config, i);
        if let Some(j) = &journal {
            if outcome.is_clean() {
                if let Err(e) = append_case(j, &outcome) {
                    write_err.lock().expect("write_err lock").get_or_insert(e);
                }
            }
        }
        Some(outcome)
    });
    if let Some(e) = write_err.into_inner().expect("write_err lock") {
        return Err(e.into());
    }
    let mut not_run = Vec::new();
    let mut panicked = Vec::new();
    for (slot, &i) in outcomes.into_iter().zip(&to_run) {
        match slot {
            TaskOutcome::Ok(Some(c)) => cases.push(c),
            TaskOutcome::Ok(None) => not_run.push(i),
            TaskOutcome::Panicked { payload, .. } => panicked.push(PanickedCase {
                case_index: i,
                reason: payload,
            }),
        }
    }
    if config.budget.skipped_exhausted(panicked.len()) {
        return Err(FuzzError::TooManyPanicked {
            panicked,
            max: config.budget.max_skipped.unwrap_or(0),
        });
    }
    cases.sort_by_key(|c| c.case_index);
    Ok(FuzzReport {
        truncated: !not_run.is_empty(),
        not_run,
        panicked,
        replayed: done.len(),
        cases,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shipped_transform_survives_fuzzing() {
        let config = FuzzConfig {
            cases: 40,
            seed: 1,
            ..FuzzConfig::default()
        };
        let report = run_fuzz(&config).expect("unlimited run cannot fail");
        assert!(
            report.is_clean(),
            "violations: {:?}, errors: {:?}",
            report.violations().collect::<Vec<_>>(),
            report.transform_errors().collect::<Vec<_>>()
        );
        assert!(!report.truncated);
        assert!(report.not_run.is_empty());
        // The run must actually exercise the checker, not skip everything.
        assert!(report.total_bdd_proved() > 10, "{report:?}");
    }

    #[test]
    fn fuzzing_is_deterministic_across_thread_counts() {
        let base = FuzzConfig {
            cases: 12,
            seed: 7,
            ..FuzzConfig::default()
        };
        let serial = run_fuzz(&base).expect("serial run");
        let parallel = run_fuzz(&FuzzConfig {
            threads: 4,
            ..base.clone()
        })
        .expect("parallel run");
        assert_eq!(serial.cases.len(), parallel.cases.len());
        for (s, p) in serial.cases.iter().zip(&parallel.cases) {
            assert_eq!(s.case_index, p.case_index);
            assert_eq!(s.candidates, p.candidates);
            assert_eq!(s.bdd_proved, p.bdd_proved);
            assert_eq!(s.sampled, p.sampled);
            assert_eq!(s.skipped, p.skipped);
            assert_eq!(s.violations.len(), p.violations.len());
        }
    }

    #[test]
    fn sabotage_is_detected_with_replayable_witnesses() {
        let config = FuzzConfig {
            cases: 20,
            seed: 1,
            sabotage: Sabotage::ForceFalse,
            ..FuzzConfig::default()
        };
        let report = run_fuzz(&config).expect("sabotage run");
        let violations: Vec<_> = report.violations().collect();
        assert!(
            !violations.is_empty(),
            "a forced-FALSE activation must be caught somewhere in 20 cases"
        );
        assert!(
            violations.iter().all(|v| v.replay_confirmed),
            "every symbolic witness must reproduce concretely: {violations:?}"
        );
    }

    fn temp_journal(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "oiso-fuzz-{tag}-{}-{}.jsonl",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ))
    }

    #[test]
    fn expired_deadline_marks_cases_not_run() {
        let config = FuzzConfig {
            cases: 6,
            seed: 3,
            budget: RunBudget::unlimited()
                .with_wall_deadline(std::time::Instant::now() - std::time::Duration::from_secs(1)),
            ..FuzzConfig::default()
        };
        let report = run_fuzz(&config).expect("deadline is graceful, not an error");
        assert!(report.truncated);
        assert_eq!(report.not_run, vec![0, 1, 2, 3, 4, 5]);
        assert!(report.cases.is_empty());
    }

    #[test]
    fn iteration_cap_truncates_by_case_index() {
        let base = FuzzConfig {
            cases: 8,
            seed: 5,
            budget: RunBudget::unlimited().with_max_iterations(3),
            ..FuzzConfig::default()
        };
        for threads in [1, 4] {
            let report = run_fuzz(&FuzzConfig {
                threads,
                ..base.clone()
            })
            .expect("capped run");
            assert!(report.truncated, "threads={threads}");
            let run: Vec<usize> = report.cases.iter().map(|c| c.case_index).collect();
            assert_eq!(run, vec![0, 1, 2], "threads={threads}");
            assert_eq!(report.not_run, vec![3, 4, 5, 6, 7], "threads={threads}");
        }
    }

    #[test]
    fn checkpoint_then_resume_replays_clean_cases() {
        let path = temp_journal("resume");
        let config = FuzzConfig {
            cases: 10,
            seed: 11,
            checkpoint: Some(path.clone()),
            ..FuzzConfig::default()
        };
        let first = run_fuzz(&config).expect("checkpointed run");
        assert!(first.is_clean(), "{first:?}");
        // Journals from before the `reordered` counter was dropped carry
        // it on every case line; rewrite half the lines in that shape.
        let text = std::fs::read_to_string(&path).expect("journal readable");
        let mixed: String = text
            .lines()
            .enumerate()
            .map(|(i, line)| match line.strip_suffix('}') {
                Some(body) if i % 2 == 1 => format!("{body},\"reordered\":0}}\n"),
                _ => format!("{line}\n"),
            })
            .collect();
        assert!(mixed.contains("\"reordered\":0}"), "{mixed}");
        std::fs::write(&path, mixed).expect("journal writable");
        let resumed = run_fuzz(&FuzzConfig {
            checkpoint: None,
            resume: Some(path.clone()),
            ..config.clone()
        })
        .expect("resumed run");
        assert_eq!(resumed.replayed, 10, "every clean case replays");
        assert_eq!(resumed.cases.len(), first.cases.len());
        for (a, b) in first.cases.iter().zip(&resumed.cases) {
            assert_eq!(a.case_index, b.case_index);
            assert_eq!(a.candidates, b.candidates);
            assert_eq!(a.skipped, b.skipped);
            assert_eq!(a.bdd_proved, b.bdd_proved);
            assert_eq!(a.sampled, b.sampled);
            assert!(b.replayed);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_rejects_a_journal_from_a_different_config() {
        let path = temp_journal("mismatch");
        let config = FuzzConfig {
            cases: 3,
            seed: 21,
            checkpoint: Some(path.clone()),
            ..FuzzConfig::default()
        };
        run_fuzz(&config).expect("checkpointed run");
        let err = run_fuzz(&FuzzConfig {
            seed: 22,
            checkpoint: None,
            resume: Some(path.clone()),
            ..config.clone()
        })
        .expect_err("a different seed must be refused");
        assert!(
            matches!(
                err,
                FuzzError::Checkpoint(CheckpointError::FingerprintMismatch {
                    field: "config",
                    ..
                })
            ),
            "got {err:?}"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_dropped_but_corruption_is_fatal() {
        let path = temp_journal("torn");
        let config = FuzzConfig {
            cases: 4,
            seed: 31,
            checkpoint: Some(path.clone()),
            ..FuzzConfig::default()
        };
        run_fuzz(&config).expect("checkpointed run");
        // A crash mid-append leaves an unterminated fragment: tolerated,
        // the torn case just re-runs.
        let mut text = std::fs::read_to_string(&path).expect("journal readable");
        text.push_str("{\"kind\":\"case\",\"ind");
        std::fs::write(&path, &text).expect("journal writable");
        let resumed = run_fuzz(&FuzzConfig {
            checkpoint: None,
            resume: Some(path.clone()),
            ..config.clone()
        })
        .expect("torn tail is tolerated");
        assert_eq!(resumed.replayed, 4);
        // The same fragment *with* a newline is interior corruption: fatal.
        text.push('\n');
        std::fs::write(&path, &text).expect("journal writable");
        let err = run_fuzz(&FuzzConfig {
            checkpoint: None,
            resume: Some(path.clone()),
            ..config.clone()
        })
        .expect_err("terminated corruption must be refused");
        assert!(
            matches!(err, FuzzError::Checkpoint(CheckpointError::Format { .. })),
            "got {err:?}"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn case_seed_spreads_neighboring_indices() {
        let a = case_seed(1, 0);
        let b = case_seed(1, 1);
        let c = case_seed(2, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        // And stays stable: reproducibility contract for logged case ids.
        assert_eq!(case_seed(1, 0), a);
    }
}
