//! Append-only JSONL checkpoints for the iterative optimizer.
//!
//! A long `optimize()` run journals every accepted candidate to a
//! checkpoint file as soon as it is isolated, so a killed or
//! budget-truncated run loses nothing that was already decided. The file
//! is line-oriented JSON (JSONL):
//!
//! * line 1 is a **header** binding the journal to the run that produced
//!   it — the PR-1 content fingerprints of the netlist and stimulus plan,
//!   a fingerprint of the algorithm configuration
//!   ([`config_fingerprint`]), and the simulation length;
//! * every further line is one **accepted step**: iteration number, cell
//!   name, the activation function (prefix-encoded), and the scored
//!   `h`/savings values as exact f64 bit patterns.
//!
//! Resume ([`Checkpoint::load`] + validation) refuses a journal whose
//! fingerprints do not match the current inputs, replays the accepted
//! steps without re-simulating, and continues the algorithm from the
//! first un-journaled iteration. Because the optimizer is deterministic,
//! a resumed run reproduces the exact accepted-candidate sequence of an
//! uninterrupted run, at every thread count.
//!
//! Each journal line is flushed as it is written, so the only loss mode
//! of a killed run is a *torn final line*; the loader tolerates exactly
//! that (an unparsable last line with no trailing newline) and treats any
//! other malformation as corruption, which is a hard error. These rules
//! live in [`JournalWriter`] and [`parse_journal`], which every JSONL
//! journal shares — the fuzz journal of `oiso-verify` too.

use crate::json::{self, escape_json};
use crate::transform::IsolationStyle;
use oiso_boolex::{BoolExpr, Signal};
use oiso_netlist::{Fnv, NetId};
use std::error::Error;
use std::fmt;
use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::path::{Path, PathBuf};

/// Journal format version written by this build.
pub const CHECKPOINT_VERSION: u64 = 1;

/// Errors reading or writing a checkpoint journal.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem failure.
    Io {
        /// The journal path.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// A journal line is malformed (corruption that is not a torn tail).
    Format {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        message: String,
    },
    /// The file has no parsable header line.
    MissingHeader,
    /// The journal was produced by different inputs than this run's.
    FingerprintMismatch {
        /// Which binding failed (`"netlist"`, `"stimulus"`, `"config"`,
        /// `"sim_cycles"`, `"version"`).
        field: &'static str,
        /// The value this run computed.
        expected: u64,
        /// The value found in the journal.
        found: u64,
    },
    /// A journaled cell name does not exist in the netlist being resumed.
    UnknownCell {
        /// The cell name from the journal.
        name: String,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io { path, source } => {
                write!(f, "checkpoint I/O failed at {}: {source}", path.display())
            }
            CheckpointError::Format { line, message } => {
                write!(f, "corrupt checkpoint at line {line}: {message}")
            }
            CheckpointError::MissingHeader => {
                write!(f, "checkpoint has no header line (not a checkpoint file?)")
            }
            CheckpointError::FingerprintMismatch {
                field,
                expected,
                found,
            } => write!(
                f,
                "checkpoint {field} fingerprint mismatch: run has {expected:#018x}, \
                 journal has {found:#018x} — this checkpoint belongs to different inputs"
            ),
            CheckpointError::UnknownCell { name } => {
                write!(f, "checkpoint accepts cell {name:?} which this netlist does not contain")
            }
        }
    }
}

impl Error for CheckpointError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CheckpointError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// The header line binding a journal to its producing run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointHeader {
    /// [`Netlist::fingerprint`](oiso_netlist::Netlist::fingerprint) of the
    /// *input* netlist.
    pub netlist_fp: u64,
    /// [`StimulusPlan::fingerprint`](oiso_sim::StimulusPlan::fingerprint).
    pub plan_fp: u64,
    /// [`config_fingerprint`] of the algorithm configuration.
    pub config_fp: u64,
    /// Simulation length per iteration.
    pub sim_cycles: u64,
}

/// One journaled accepted candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct AcceptedStep {
    /// Main-loop iteration (1-based) that accepted the candidate.
    pub iteration: usize,
    /// Instance name of the isolated cell (stable across runs, unlike raw
    /// ids of a *transformed* netlist).
    pub cell: String,
    /// The (possibly minimized) activation function the banks were built
    /// from, in terms of the original netlist's nets.
    pub activation: BoolExpr,
    /// The cost value `h` that won the block.
    pub h: f64,
    /// Estimated savings in mW.
    pub saved: f64,
    /// Total measured power (mW) at the start of the accepting iteration —
    /// lets resume rebuild the iteration log without re-simulating.
    pub power: f64,
}

/// An observer invoked with every [`AcceptedStep`] at the moment it is
/// decided — the same per-candidate event stream the checkpoint journal
/// records, surfaced in-process. The optimizer calls it for freshly
/// accepted candidates *and* for steps replayed from a resumed journal,
/// so a consumer always sees the full accepted sequence in order.
///
/// The tap is deliberately not part of [`config_fingerprint`]: like the
/// journal writer it observes the run without influencing it.
#[derive(Clone)]
pub struct StepTap(std::sync::Arc<dyn Fn(&AcceptedStep) + Send + Sync>);

impl StepTap {
    /// Wraps a callback.
    pub fn new(f: impl Fn(&AcceptedStep) + Send + Sync + 'static) -> Self {
        StepTap(std::sync::Arc::new(f))
    }

    /// Delivers one accepted step to the observer.
    pub fn notify(&self, step: &AcceptedStep) {
        (self.0)(step)
    }
}

impl fmt::Debug for StepTap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("StepTap(..)")
    }
}

/// A loaded journal.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// The binding header.
    pub header: CheckpointHeader,
    /// Accepted steps in journal (= isolation) order.
    pub steps: Vec<AcceptedStep>,
    /// True when a torn final line was dropped (the run that wrote the
    /// journal died mid-write).
    pub torn: bool,
}

impl Checkpoint {
    /// Loads and parses a journal.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] on filesystem failure,
    /// [`CheckpointError::MissingHeader`] /
    /// [`CheckpointError::Format`] on corruption. A torn *final* line
    /// (no trailing newline) is tolerated and reported via
    /// [`Checkpoint::torn`], not an error.
    pub fn load(path: &Path) -> Result<Checkpoint, CheckpointError> {
        Self::parse(&read_journal(path)?)
    }

    /// Parses journal text (see [`Checkpoint::load`]).
    ///
    /// # Errors
    ///
    /// As [`Checkpoint::load`], minus I/O.
    pub fn parse(text: &str) -> Result<Checkpoint, CheckpointError> {
        let (header, steps, torn) = parse_journal(text, parse_header, parse_step)?;
        Ok(Checkpoint {
            header,
            steps,
            torn,
        })
    }

    /// Checks the journal's binding against this run's inputs.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::FingerprintMismatch`] naming the first field
    /// that differs.
    pub fn validate(&self, expected: &CheckpointHeader) -> Result<(), CheckpointError> {
        let pairs: [(&'static str, u64, u64); 4] = [
            ("netlist", expected.netlist_fp, self.header.netlist_fp),
            ("stimulus", expected.plan_fp, self.header.plan_fp),
            ("config", expected.config_fp, self.header.config_fp),
            ("sim_cycles", expected.sim_cycles, self.header.sim_cycles),
        ];
        for (field, want, got) in pairs {
            if want != got {
                return Err(CheckpointError::FingerprintMismatch {
                    field,
                    expected: want,
                    found: got,
                });
            }
        }
        Ok(())
    }
}

/// Reads a whole journal file.
///
/// # Errors
///
/// [`CheckpointError::Io`].
pub fn read_journal(path: &Path) -> Result<String, CheckpointError> {
    std::fs::read_to_string(path).map_err(|source| CheckpointError::Io {
        path: path.to_path_buf(),
        source,
    })
}

/// Parses JSONL journal text: line 1 through `header`, every further
/// non-blank line through `record` (with its 1-based line number).
/// Returns the header, the records in file order, and whether a torn
/// final line was dropped.
///
/// This is the one tolerance rule of every journal: a journal is appended
/// one flushed line at a time, so only the physically last line of a file
/// without a trailing newline can be a torn write. That line is dropped
/// when `record` rejects it; any other malformed line is corruption.
///
/// # Errors
///
/// [`CheckpointError::MissingHeader`] for empty text, and whatever
/// `header` or `record` return for a line that is not a torn tail.
pub fn parse_journal<H, R>(
    text: &str,
    header: impl FnOnce(&str) -> Result<H, CheckpointError>,
    mut record: impl FnMut(&str, usize) -> Result<R, CheckpointError>,
) -> Result<(H, Vec<R>, bool), CheckpointError> {
    let complete = text.ends_with('\n');
    let lines: Vec<&str> = text.lines().collect();
    let Some((&first, rest)) = lines.split_first() else {
        return Err(CheckpointError::MissingHeader);
    };
    let header = header(first)?;
    let mut records = Vec::new();
    let mut torn = false;
    for (i, &line) in rest.iter().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match record(line, i + 2) {
            Ok(r) => records.push(r),
            Err(_) if !complete && i == rest.len() - 1 => torn = true,
            Err(e) => return Err(e),
        }
    }
    Ok((header, records, torn))
}

/// An append-only JSONL journal file: a header line, then one flushed
/// line per record, so a killed run loses at most a torn final line
/// (which [`parse_journal`] tolerates).
#[derive(Debug)]
pub struct JournalWriter {
    path: PathBuf,
    file: BufWriter<File>,
}

impl JournalWriter {
    /// Creates (truncating) the journal and writes `header` as its first
    /// line.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`].
    pub fn create(path: &Path, header: &str) -> Result<Self, CheckpointError> {
        let file = File::create(path).map_err(|source| CheckpointError::Io {
            path: path.to_path_buf(),
            source,
        })?;
        let mut writer = JournalWriter {
            path: path.to_path_buf(),
            file: BufWriter::new(file),
        };
        writer.write_line(header)?;
        Ok(writer)
    }

    /// Appends `line` and a newline, and flushes both.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`].
    pub fn write_line(&mut self, line: &str) -> Result<(), CheckpointError> {
        let io_err = |source| CheckpointError::Io {
            path: self.path.clone(),
            source,
        };
        self.file.write_all(line.as_bytes()).map_err(io_err)?;
        self.file.write_all(b"\n").map_err(io_err)?;
        self.file.flush().map_err(io_err)
    }
}

/// Incremental optimizer journal writer: one flushed line per accepted
/// step.
#[derive(Debug)]
pub struct CheckpointWriter(JournalWriter);

impl CheckpointWriter {
    /// Creates (truncating) the journal and writes its header line.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`].
    pub fn create(path: &Path, header: &CheckpointHeader) -> Result<Self, CheckpointError> {
        let line = format!(
            "{{\"kind\":\"header\",\"version\":{},\"netlist\":\"{:016x}\",\
             \"stimulus\":\"{:016x}\",\"config\":\"{:016x}\",\"cycles\":{}}}",
            CHECKPOINT_VERSION, header.netlist_fp, header.plan_fp, header.config_fp,
            header.sim_cycles
        );
        JournalWriter::create(path, &line).map(CheckpointWriter)
    }

    /// Appends (and flushes) one accepted step.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`].
    pub fn append(&mut self, step: &AcceptedStep) -> Result<(), CheckpointError> {
        let line = format!(
            "{{\"kind\":\"accept\",\"iteration\":{},\"cell\":\"{}\",\
             \"activation\":\"{}\",\"h\":\"{}\",\"saved\":\"{}\",\"power\":\"{}\"}}",
            step.iteration,
            escape_json(&step.cell),
            encode_expr(&step.activation),
            f64_hex(step.h),
            f64_hex(step.saved),
            f64_hex(step.power),
        );
        self.0.write_line(&line)
    }
}

/// Content fingerprint (FNV-1a) of the algorithm parameters that determine
/// the accepted-candidate sequence.
///
/// Deliberately **excluded**: `threads` (the optimizer is bit-identical at
/// every thread count, so a checkpoint written at `threads=4` must resume
/// at `threads=1`), `engine` (every simulation engine produces
/// bit-identical statistics, so a journal written under one engine must
/// resume under any other), and the run budget / checkpoint paths
/// (resource bounds only truncate the sequence, never change it).
pub fn config_fingerprint(config: &crate::algorithm::IsolationConfig) -> u64 {
    let mut h = Fnv::new();
    h.u64(CHECKPOINT_VERSION);
    h.u64(match config.style {
        IsolationStyle::And => 0,
        IsolationStyle::Or => 1,
        IsolationStyle::Latch => 2,
        IsolationStyle::BddSynth => 3,
    });
    h.u64(match config.estimator {
        crate::savings::EstimatorKind::Simple => 0,
        crate::savings::EstimatorKind::Pairwise => 1,
        crate::savings::EstimatorKind::MeasuredConditional => 2,
    });
    h.f64(config.weights.power);
    h.f64(config.weights.area);
    h.f64(config.h_min);
    match config.slack_threshold {
        Some(t) => {
            h.u64(1);
            h.f64(t.as_ns());
        }
        None => h.u64(0),
    }
    h.u64(config.min_width as u64);
    h.u64(config.activation.max_literals as u64);
    h.u64(config.activation.register_lookahead as u64);
    h.u64(config.secondary_savings as u64);
    h.u64(config.optimize_activation_logic as u64);
    h.u64(config.fsm_dont_cares as u64);
    h.u64(config.static_precheck as u64);
    h.u64(config.sim_cycles);
    h.u64(config.max_iterations as u64);
    h.str(config.library.name());
    h.f64(config.conditions.vdd.as_volts());
    h.f64(config.conditions.clock.as_mhz());
    // Activity ranking can only matter through a binding candidate cap,
    // but both knobs shape which candidates get scored, so both are part
    // of the sequence-defining configuration.
    h.u64(config.activity_ranking as u64);
    match config.candidate_cap {
        Some(cap) => {
            h.u64(1);
            h.u64(cap as u64);
        }
        None => h.u64(0),
    }
    h.finish()
}

// ---------------------------------------------------------------------------
// f64 ⇄ exact hex bit pattern

fn f64_hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn f64_from_hex(s: &str) -> Option<f64> {
    if s.len() != 16 {
        return None;
    }
    u64::from_str_radix(s, 16).ok().map(f64::from_bits)
}

// ---------------------------------------------------------------------------
// BoolExpr ⇄ prefix token string

/// Encodes an expression as space-separated prefix tokens: `T`/`F`
/// constants, `v<net>.<bit>` literals, `!` negation, and `&<n>` / `|<n>`
/// n-ary operators followed by their `n` operands.
pub fn encode_expr(expr: &BoolExpr) -> String {
    let mut out = String::new();
    push_expr(expr, &mut out);
    out
}

fn push_expr(expr: &BoolExpr, out: &mut String) {
    if !out.is_empty() {
        out.push(' ');
    }
    match expr {
        BoolExpr::Const(true) => out.push('T'),
        BoolExpr::Const(false) => out.push('F'),
        BoolExpr::Var(sig) => {
            out.push('v');
            out.push_str(&sig.net.index().to_string());
            out.push('.');
            out.push_str(&sig.bit.to_string());
        }
        BoolExpr::Not(inner) => {
            out.push('!');
            push_expr(inner, out);
        }
        BoolExpr::And(parts) => {
            out.push('&');
            out.push_str(&parts.len().to_string());
            for p in parts {
                push_expr(p, out);
            }
        }
        BoolExpr::Or(parts) => {
            out.push('|');
            out.push_str(&parts.len().to_string());
            for p in parts {
                push_expr(p, out);
            }
        }
    }
}

/// Decodes [`encode_expr`] output. Reconstruction goes through the normal
/// normalizing constructors; encoded expressions are already normalized,
/// so the round trip is exact.
pub fn decode_expr(text: &str) -> Option<BoolExpr> {
    let mut tokens = text.split_whitespace();
    let expr = decode_tokens(&mut tokens)?;
    // Trailing garbage means the encoding is corrupt.
    if tokens.next().is_some() {
        return None;
    }
    Some(expr)
}

fn decode_tokens<'a>(tokens: &mut impl Iterator<Item = &'a str>) -> Option<BoolExpr> {
    let tok = tokens.next()?;
    match tok {
        "T" => Some(BoolExpr::TRUE),
        "F" => Some(BoolExpr::FALSE),
        "!" => Some(decode_tokens(tokens)?.not()),
        _ if tok.starts_with('v') => {
            let (net, bit) = tok[1..].split_once('.')?;
            let net: usize = net.parse().ok()?;
            let bit: u8 = bit.parse().ok()?;
            Some(BoolExpr::var(Signal::new(NetId::from_index(net), bit)))
        }
        _ if tok.starts_with('&') || tok.starts_with('|') => {
            let n: usize = tok[1..].parse().ok()?;
            // An n-ary node always has ≥ 2 operands; a huge count is
            // corruption, not an expression worth allocating for.
            if !(2..=1_000_000).contains(&n) {
                return None;
            }
            let mut parts = Vec::with_capacity(n);
            for _ in 0..n {
                parts.push(decode_tokens(tokens)?);
            }
            if tok.starts_with('&') {
                Some(BoolExpr::and(parts))
            } else {
                Some(BoolExpr::or(parts))
            }
        }
        _ => None,
    }
}

fn parse_header(line: &str) -> Result<CheckpointHeader, CheckpointError> {
    // A line that is not JSON or misses a field is not a header at all.
    let no_header = |_| CheckpointError::MissingHeader;
    let header = json::parse(line).map_err(no_header)?;
    if header.str_field("kind").map_err(no_header)? != "header" {
        return Err(CheckpointError::MissingHeader);
    }
    let version = header.int_field("version").map_err(no_header)?;
    if version != CHECKPOINT_VERSION {
        return Err(CheckpointError::FingerprintMismatch {
            field: "version",
            expected: CHECKPOINT_VERSION,
            found: version,
        });
    }
    let fp = |key: &str| -> Result<u64, CheckpointError> {
        let text = header.str_field(key).map_err(no_header)?;
        u64::from_str_radix(text, 16).map_err(|_| CheckpointError::Format {
            line: 1,
            message: format!("bad {key} fingerprint {text:?}"),
        })
    };
    Ok(CheckpointHeader {
        netlist_fp: fp("netlist")?,
        plan_fp: fp("stimulus")?,
        config_fp: fp("config")?,
        sim_cycles: header.int_field("cycles").map_err(no_header)?,
    })
}

fn parse_step(line: &str, line_no: usize) -> Result<AcceptedStep, CheckpointError> {
    let format_err = |message: String| CheckpointError::Format {
        line: line_no,
        message,
    };
    let record = json::parse(line).map_err(format_err)?;
    let str_field = |key: &str| record.str_field(key).map_err(format_err);
    if str_field("kind")? != "accept" {
        return Err(format_err("unknown record kind".into()));
    }
    let activation_text = str_field("activation")?;
    let activation = decode_expr(activation_text)
        .ok_or_else(|| format_err(format!("bad activation encoding {activation_text:?}")))?;
    let hex_field = |key: &str| -> Result<f64, CheckpointError> {
        let text = str_field(key)?;
        f64_from_hex(text)
            .ok_or_else(|| format_err(format!("field {key:?} is not an f64 bit pattern: {text:?}")))
    };
    Ok(AcceptedStep {
        iteration: record.int_field("iteration").map_err(format_err)? as usize,
        cell: str_field("cell")?.to_string(),
        activation,
        h: hex_field("h")?,
        saved: hex_field("saved")?,
        power: hex_field("power")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_path(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "oiso-ckpt-{}-{tag}-{n}.jsonl",
            std::process::id()
        ))
    }

    fn sample_expr() -> BoolExpr {
        let v = |i: usize| BoolExpr::var(Signal::new(NetId::from_index(i), 0));
        BoolExpr::or(vec![
            BoolExpr::and(vec![v(2).not(), v(4)]),
            BoolExpr::and(vec![v(0).not(), v(1), v(3)]),
        ])
    }

    fn sample_header() -> CheckpointHeader {
        CheckpointHeader {
            netlist_fp: 0x0123_4567_89ab_cdef,
            plan_fp: 0xfedc_ba98_7654_3210,
            config_fp: 42,
            sim_cycles: 1500,
        }
    }

    fn sample_step(i: usize) -> AcceptedStep {
        AcceptedStep {
            iteration: i,
            cell: format!("mul\"{i}\\x"),
            activation: sample_expr(),
            h: 0.123_456_789 * i as f64,
            saved: -0.0,
            power: 24.6 + i as f64,
        }
    }

    #[test]
    fn expr_roundtrips_exactly() {
        for expr in [
            BoolExpr::TRUE,
            BoolExpr::FALSE,
            BoolExpr::var(Signal::new(NetId::from_index(7), 3)),
            BoolExpr::var(Signal::bit0(NetId::from_index(0))).not(),
            sample_expr(),
        ] {
            let encoded = encode_expr(&expr);
            assert_eq!(decode_expr(&encoded), Some(expr), "{encoded}");
        }
    }

    #[test]
    fn bad_expr_encodings_are_rejected() {
        for bad in ["", "X", "v7", "v7.", "!", "&2 T", "&1 T", "T F", "&999999999 T"] {
            assert!(decode_expr(bad).is_none(), "{bad:?}");
        }
    }

    #[test]
    fn f64_hex_is_bit_exact() {
        for v in [0.0, -0.0, 1.5, f64::MIN_POSITIVE, 1e-310, f64::MAX] {
            let decoded = f64_from_hex(&f64_hex(v)).unwrap();
            assert_eq!(decoded.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn journal_roundtrips_header_and_steps() {
        let path = temp_path("roundtrip");
        let header = sample_header();
        let mut w = CheckpointWriter::create(&path, &header).unwrap();
        let steps: Vec<AcceptedStep> = (1..=3).map(sample_step).collect();
        for s in &steps {
            w.append(s).unwrap();
        }
        drop(w);
        let loaded = Checkpoint::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded.header, header);
        assert!(!loaded.torn);
        assert_eq!(loaded.steps, steps);
        assert_eq!(loaded.steps[1].saved.to_bits(), (-0.0f64).to_bits());
        loaded.validate(&header).unwrap();
    }

    #[test]
    fn torn_final_line_is_tolerated() {
        let path = temp_path("torn");
        let mut w = CheckpointWriter::create(&path, &sample_header()).unwrap();
        w.append(&sample_step(1)).unwrap();
        drop(w);
        // Simulate a crash mid-write: half a record, no trailing newline.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"kind\":\"accept\",\"iteration\":2,\"ce");
        std::fs::write(&path, &text).unwrap();
        let loaded = Checkpoint::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(loaded.torn);
        assert_eq!(loaded.steps.len(), 1);
    }

    #[test]
    fn corrupt_interior_line_is_a_hard_error() {
        let path = temp_path("corrupt");
        let mut w = CheckpointWriter::create(&path, &sample_header()).unwrap();
        w.append(&sample_step(1)).unwrap();
        w.append(&sample_step(2)).unwrap();
        drop(w);
        let text = std::fs::read_to_string(&path).unwrap();
        let mangled = text.replacen("\"kind\":\"accept\"", "\"kind\":\"accpet\"", 1);
        std::fs::write(&path, &mangled).unwrap();
        let err = Checkpoint::load(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(
            matches!(err, CheckpointError::Format { line: 2, .. }),
            "{err}"
        );
    }

    #[test]
    fn missing_header_is_rejected() {
        assert!(matches!(
            Checkpoint::parse(""),
            Err(CheckpointError::MissingHeader)
        ));
        assert!(matches!(
            Checkpoint::parse("not json at all\n"),
            Err(CheckpointError::MissingHeader)
        ));
    }

    #[test]
    fn fingerprint_mismatch_names_the_field() {
        let good = sample_header();
        let mut ckpt = Checkpoint {
            header: good,
            steps: Vec::new(),
            torn: false,
        };
        ckpt.header.plan_fp ^= 1;
        let err = ckpt.validate(&good).unwrap_err();
        assert!(
            matches!(err, CheckpointError::FingerprintMismatch { field: "stimulus", .. }),
            "{err}"
        );
        assert!(err.to_string().contains("different inputs"));
    }

    #[test]
    fn config_fingerprint_tracks_algorithm_knobs_not_threads() {
        let base = crate::algorithm::IsolationConfig::default();
        let fp = config_fingerprint(&base);
        assert_eq!(
            fp,
            config_fingerprint(&base.clone().with_threads(8)),
            "threads must not change the fingerprint"
        );
        assert_ne!(fp, config_fingerprint(&base.clone().with_h_min(0.5)));
        assert_ne!(
            fp,
            config_fingerprint(&base.clone().with_style(IsolationStyle::Or))
        );
        assert_ne!(fp, config_fingerprint(&base.clone().with_sim_cycles(999)));
    }
}
