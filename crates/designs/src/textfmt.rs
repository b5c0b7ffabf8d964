//! A plain-text design interchange format.
//!
//! Lets users run the isolation flow on their own circuits via the `oiso`
//! command-line tool without writing Rust. One directive per line,
//! `#`-comments allowed:
//!
//! ```text
//! design cmac
//! input  a 16
//! input  x 16
//! input  go 1
//! wire   prod 16
//! wire   sum 16
//! wire   acc 16
//! cell   mul   mul    a x      -> prod
//! cell   add   add    prod acc -> sum
//! cell   r_acc reg.en sum go   -> acc
//! output acc
//! drive  a  uniform
//! drive  x  uniform
//! drive  go markov 0.2 0.2
//! seed   42
//! ```
//!
//! Cell kinds: `add sub mul shl shr lt eq mux reg reg.en latch and or xor
//! not buf redor redand concat zext`, plus `const:<value>` and
//! `slice:<hi>:<lo>`. Stimulus specs: `uniform`, `const <v>`,
//! `markov <p1> <toggle-rate>`, `counter <step>`, `trace v1,v2,...`.

use crate::Design;
use oiso_netlist::{BuildError, CellKind, NetId, NetlistBuilder};
use oiso_sim::{StimulusPlan, StimulusSpec};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// Errors from [`parse`].
#[derive(Debug)]
pub enum ParseError {
    /// A malformed directive, with 1-based line number and explanation.
    Syntax {
        /// Line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// The netlist failed structural validation after parsing.
    Build(BuildError),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Syntax { line, message } => {
                write!(f, "line {line}: {message}")
            }
            ParseError::Build(e) => write!(f, "invalid netlist: {e}"),
        }
    }
}

impl Error for ParseError {}

impl From<BuildError> for ParseError {
    fn from(e: BuildError) -> Self {
        ParseError::Build(e)
    }
}

fn syntax(line: usize, message: impl Into<String>) -> ParseError {
    ParseError::Syntax {
        line,
        message: message.into(),
    }
}

fn parse_kind(token: &str, line: usize) -> Result<CellKind, ParseError> {
    if let Some(value) = token.strip_prefix("const:") {
        let value = parse_u64(value, line)?;
        return Ok(CellKind::Const { value });
    }
    if let Some(range) = token.strip_prefix("slice:") {
        let (hi, lo) = range
            .split_once(':')
            .ok_or_else(|| syntax(line, "slice needs `slice:<hi>:<lo>`"))?;
        return Ok(CellKind::Slice {
            hi: hi.parse().map_err(|e| syntax(line, format!("bad hi: {e}")))?,
            lo: lo.parse().map_err(|e| syntax(line, format!("bad lo: {e}")))?,
        });
    }
    Ok(match token {
        "add" => CellKind::Add,
        "sub" => CellKind::Sub,
        "mul" => CellKind::Mul,
        "shl" => CellKind::Shl,
        "shr" => CellKind::Shr,
        "lt" => CellKind::Lt,
        "eq" => CellKind::Eq,
        "mux" => CellKind::Mux,
        "reg" => CellKind::Reg { has_enable: false },
        "reg.en" => CellKind::Reg { has_enable: true },
        "latch" => CellKind::Latch,
        "and" => CellKind::And,
        "or" => CellKind::Or,
        "xor" => CellKind::Xor,
        "not" => CellKind::Not,
        "buf" => CellKind::Buf,
        "redor" => CellKind::RedOr,
        "redand" => CellKind::RedAnd,
        "concat" => CellKind::Concat,
        "zext" => CellKind::Zext,
        other => return Err(syntax(line, format!("unknown cell kind `{other}`"))),
    })
}

/// Mnemonic used by [`emit`] for a cell kind.
fn kind_token(kind: CellKind) -> String {
    match kind {
        CellKind::Reg { has_enable: true } => "reg.en".to_string(),
        CellKind::Const { value } => format!("const:{value}"),
        CellKind::Slice { lo, hi } => format!("slice:{hi}:{lo}"),
        other => other.mnemonic().to_string(),
    }
}

fn parse_u64(token: &str, line: usize) -> Result<u64, ParseError> {
    let parsed = if let Some(hex) = token.strip_prefix("0x") {
        u64::from_str_radix(hex, 16)
    } else {
        token.parse()
    };
    parsed.map_err(|e| syntax(line, format!("bad number `{token}`: {e}")))
}

fn parse_f64(token: &str, line: usize) -> Result<f64, ParseError> {
    token
        .parse()
        .map_err(|e| syntax(line, format!("bad number `{token}`: {e}")))
}

/// Parses a design from text.
///
/// # Errors
///
/// Returns a [`ParseError`] pinpointing the offending line, or the builder
/// error if the parsed structure is invalid.
pub fn parse(text: &str) -> Result<Design, ParseError> {
    let mut builder: Option<NetlistBuilder> = None;
    let mut nets: HashMap<String, NetId> = HashMap::new();
    let mut outputs: Vec<String> = Vec::new();
    let mut drivers: Vec<(String, StimulusSpec)> = Vec::new();
    let mut seed = 0u64;

    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut tokens = line.split_whitespace();
        let directive = tokens.next().expect("non-empty line");
        let rest: Vec<&str> = tokens.collect();
        match directive {
            "design" => {
                let name = rest
                    .first()
                    .ok_or_else(|| syntax(line_no, "design needs a name"))?;
                if builder.is_some() {
                    return Err(syntax(line_no, "duplicate `design` directive"));
                }
                builder = Some(NetlistBuilder::new(name.to_string()));
            }
            "input" | "wire" => {
                let b = builder
                    .as_mut()
                    .ok_or_else(|| syntax(line_no, "`design` must come first"))?;
                let [name, width] = rest[..] else {
                    return Err(syntax(line_no, format!("{directive} needs <name> <width>")));
                };
                let width: u8 = width
                    .parse()
                    .map_err(|e| syntax(line_no, format!("bad width: {e}")))?;
                if nets.contains_key(name) {
                    return Err(syntax(line_no, format!("duplicate net `{name}`")));
                }
                let id = if directive == "input" {
                    b.try_input(name.to_string(), width)
                } else {
                    b.try_wire(name.to_string(), width)
                }
                .map_err(|e| syntax(line_no, e.to_string()))?;
                nets.insert(name.to_string(), id);
            }
            "cell" => {
                let b = builder
                    .as_mut()
                    .ok_or_else(|| syntax(line_no, "`design` must come first"))?;
                let arrow = rest
                    .iter()
                    .position(|&t| t == "->")
                    .ok_or_else(|| syntax(line_no, "cell needs `-> <output>`"))?;
                if arrow < 2 || arrow + 2 != rest.len() {
                    return Err(syntax(
                        line_no,
                        "cell syntax: cell <name> <kind> <inputs...> -> <output>",
                    ));
                }
                let name = rest[0];
                let kind = parse_kind(rest[1], line_no)?;
                let mut inputs = Vec::new();
                for &tok in &rest[2..arrow] {
                    let id = nets
                        .get(tok)
                        .ok_or_else(|| syntax(line_no, format!("unknown net `{tok}`")))?;
                    inputs.push(*id);
                }
                let out = nets
                    .get(rest[arrow + 1])
                    .ok_or_else(|| syntax(line_no, format!("unknown net `{}`", rest[arrow + 1])))?;
                b.cell(name.to_string(), kind, &inputs, *out)
                    .map_err(ParseError::Build)?;
            }
            "output" => {
                let name = rest
                    .first()
                    .ok_or_else(|| syntax(line_no, "output needs a net name"))?;
                if !nets.contains_key(*name) {
                    return Err(syntax(line_no, format!("unknown net `{name}`")));
                }
                outputs.push(name.to_string());
            }
            "drive" => {
                let name = rest
                    .first()
                    .ok_or_else(|| syntax(line_no, "drive needs an input name"))?;
                if drivers.iter().any(|(driven, _)| driven == name) {
                    return Err(syntax(line_no, format!("duplicate `drive` for `{name}`")));
                }
                let spec = match rest.get(1).copied() {
                    Some("uniform") => StimulusSpec::UniformRandom,
                    Some("const") => StimulusSpec::Constant(parse_u64(
                        rest.get(2)
                            .ok_or_else(|| syntax(line_no, "const needs a value"))?,
                        line_no,
                    )?),
                    Some("markov") => {
                        let p_one = parse_f64(
                            rest.get(2)
                                .ok_or_else(|| syntax(line_no, "markov needs <p1> <tr>"))?,
                            line_no,
                        )?;
                        let toggle_rate = parse_f64(
                            rest.get(3)
                                .ok_or_else(|| syntax(line_no, "markov needs <p1> <tr>"))?,
                            line_no,
                        )?;
                        for (label, v) in [("p1", p_one), ("toggle-rate", toggle_rate)] {
                            if !v.is_finite() || !(0.0..=1.0).contains(&v) {
                                return Err(syntax(
                                    line_no,
                                    format!("markov {label} must be a probability in [0, 1], got {v}"),
                                ));
                            }
                        }
                        StimulusSpec::MarkovBits { p_one, toggle_rate }
                    }
                    Some("counter") => StimulusSpec::Counter {
                        step: parse_u64(
                            rest.get(2)
                                .ok_or_else(|| syntax(line_no, "counter needs a step"))?,
                            line_no,
                        )?,
                    },
                    Some("trace") => {
                        let list = rest
                            .get(2)
                            .ok_or_else(|| syntax(line_no, "trace needs v1,v2,..."))?;
                        let values: Result<Vec<u64>, _> = list
                            .split(',')
                            .map(|v| parse_u64(v, line_no))
                            .collect();
                        StimulusSpec::Trace(values?)
                    }
                    other => {
                        return Err(syntax(
                            line_no,
                            format!("unknown stimulus `{}`", other.unwrap_or("<none>")),
                        ))
                    }
                };
                drivers.push((name.to_string(), spec));
            }
            "seed" => {
                seed = parse_u64(
                    rest.first()
                        .ok_or_else(|| syntax(line_no, "seed needs a value"))?,
                    line_no,
                )?;
            }
            other => return Err(syntax(line_no, format!("unknown directive `{other}`"))),
        }
    }

    let mut b = builder.ok_or_else(|| syntax(0, "missing `design` directive"))?;
    for name in &outputs {
        b.mark_output(nets[name]);
    }
    let netlist = b.build()?;
    let mut plan = StimulusPlan::new(seed);
    for (name, spec) in drivers {
        plan = plan.drive(name, spec);
    }
    Ok(Design {
        netlist,
        stimuli: plan,
    })
}

/// Emits a design in the text format; `parse(&emit(d))` reconstructs an
/// equivalent design.
pub fn emit(design: &Design) -> String {
    use std::fmt::Write as _;
    let n = &design.netlist;
    let mut out = String::new();
    let _ = writeln!(out, "design {}", n.name());
    for &pi in n.primary_inputs() {
        let net = n.net(pi);
        let _ = writeln!(out, "input {} {}", net.name(), net.width());
    }
    for (_, net) in n.nets() {
        if net.is_primary_input() {
            continue;
        }
        let _ = writeln!(out, "wire {} {}", net.name(), net.width());
    }
    for (_, cell) in n.cells() {
        let inputs: Vec<&str> = cell
            .inputs()
            .iter()
            .map(|&i| n.net(i).name())
            .collect();
        let _ = writeln!(
            out,
            "cell {} {} {} -> {}",
            cell.name(),
            kind_token(cell.kind()),
            inputs.join(" "),
            n.net(cell.output()).name()
        );
    }
    for &po in n.primary_outputs() {
        let _ = writeln!(out, "output {}", n.net(po).name());
    }
    let drivers = &design.stimuli.drivers;
    for (i, (name, spec)) in drivers.iter().enumerate() {
        // The parser takes one `drive` per input: emit only the last
        // registration, the one simulation uses.
        if drivers[i + 1..].iter().any(|(later, _)| later == name) {
            continue;
        }
        let spec_text = match spec {
            StimulusSpec::UniformRandom => "uniform".to_string(),
            StimulusSpec::Constant(v) => format!("const {v}"),
            StimulusSpec::MarkovBits { p_one, toggle_rate } => {
                format!("markov {p_one} {toggle_rate}")
            }
            StimulusSpec::Counter { step } => format!("counter {step}"),
            StimulusSpec::Trace(values) => format!(
                "trace {}",
                values
                    .iter()
                    .map(u64::to_string)
                    .collect::<Vec<_>>()
                    .join(",")
            ),
        };
        let _ = writeln!(out, "drive {name} {spec_text}");
    }
    let _ = writeln!(out, "seed {}", design.stimuli.seed);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const CMAC: &str = "
design cmac
input  a 16
input  x 16
input  go 1
wire   prod 16
wire   sum 16
wire   acc 16
cell   mul   mul    a x      -> prod
cell   add   add    prod acc -> sum
cell   r_acc reg.en sum go   -> acc
output acc          # the accumulator is observable
drive  a  uniform
drive  x  uniform
drive  go markov 0.2 0.2
seed   42
";

    #[test]
    fn parses_the_doc_example() {
        let d = parse(CMAC).unwrap();
        assert_eq!(d.netlist.name(), "cmac");
        assert_eq!(d.netlist.num_cells(), 3);
        assert_eq!(d.netlist.primary_inputs().len(), 3);
        assert_eq!(d.stimuli.drivers.len(), 3);
        assert_eq!(d.stimuli.seed, 42);
        d.netlist.validate().unwrap();
    }

    #[test]
    fn roundtrips_through_emit() {
        let d = parse(CMAC).unwrap();
        let text = emit(&d);
        let d2 = parse(&text).unwrap();
        assert_eq!(d.netlist.num_cells(), d2.netlist.num_cells());
        assert_eq!(d.netlist.num_nets(), d2.netlist.num_nets());
        assert_eq!(d.stimuli, d2.stimuli);
        // Same cells, same kinds.
        for (id, cell) in d.netlist.cells() {
            assert_eq!(cell.kind(), d2.netlist.cell(id).kind());
            assert_eq!(cell.name(), d2.netlist.cell(id).name());
        }
    }

    #[test]
    fn roundtrips_every_builtin_design() {
        for design in [
            crate::figure1::build(),
            crate::design1::build(&crate::design1::Design1Params::default()),
            crate::design2::build(&crate::design2::Design2Params::default()),
            crate::alu_ctrl::build(&crate::alu_ctrl::AluParams::default()),
            crate::fir::build(&crate::fir::FirParams::default()),
            crate::busnet::build(&crate::busnet::BusParams::default()),
            crate::pipeline::build(&crate::pipeline::PipelineParams::default()),
        ] {
            let text = emit(&design);
            let reparsed = parse(&text)
                .unwrap_or_else(|e| panic!("{}: {e}", design.netlist.name()));
            assert_eq!(design.netlist.num_cells(), reparsed.netlist.num_cells());
            reparsed.netlist.validate().unwrap();
        }
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = parse("design d\ninput a 8\ncell c frobnicate a -> a\n").unwrap_err();
        let msg = err.to_string();
        assert!(msg.starts_with("line 3"), "{msg}");

        let err = parse("input a 8\n").unwrap_err();
        assert!(err.to_string().contains("`design` must come first"));

        let err = parse("design d\ninput a 8\noutput nope\n").unwrap_err();
        assert!(err.to_string().contains("unknown net `nope`"), "{err}");
    }

    #[test]
    fn bad_widths_are_line_numbered_errors_not_panics() {
        for (text, needle) in [
            ("design d\ninput a 0\n", "invalid width 0"),
            ("design d\nwire w 80\n", "invalid width 80"),
        ] {
            let err = parse(text).unwrap_err();
            let msg = err.to_string();
            assert!(msg.starts_with("line 2"), "{msg}");
            assert!(msg.contains(needle), "{msg}");
        }
    }

    #[test]
    fn markov_probabilities_are_range_checked_at_parse_time() {
        for bad in ["drive g markov 1.5 0.2", "drive g markov 0.2 -0.1", "drive g markov nan 0.2"] {
            let text = format!("design d\ninput g 1\noutput g\n{bad}\n");
            let err = parse(&text).unwrap_err();
            let msg = err.to_string();
            assert!(msg.starts_with("line 4"), "{bad}: {msg}");
            assert!(msg.contains("probability in [0, 1]") || msg.contains("bad number"), "{bad}: {msg}");
        }
        // The boundary values stay legal.
        parse("design d\ninput g 1\noutput g\ndrive g markov 0 1\n").unwrap();
    }

    #[test]
    fn a_second_drive_for_the_same_input_is_a_syntax_error() {
        let text = "design d\ninput g 1\noutput g\ndrive g const 0\ndrive g const 1\n";
        let msg = parse(text).unwrap_err().to_string();
        assert!(msg.starts_with("line 5"), "{msg}");
        assert!(msg.contains("duplicate `drive` for `g`"), "{msg}");

        // A plan that drives an input twice emits only the driver in force.
        let mut d = parse(CMAC).unwrap();
        d.stimuli = d.stimuli.drive("go", StimulusSpec::Constant(1));
        let re = parse(&emit(&d)).unwrap();
        assert_eq!(re.stimuli.spec_for("go"), Some(&StimulusSpec::Constant(1)));
        assert_eq!(re.stimuli.drivers.len(), 3);
    }

    #[test]
    fn const_and_slice_kinds_roundtrip() {
        let text = "
design k
input a 8
wire k 8
wire s 4
cell kc const:0x2a -> k
cell sl slice:7:4 a -> s
output k
output s
";
        let d = parse(text).unwrap();
        let k = d.netlist.find_net("k").unwrap();
        assert_eq!(d.netlist.constant_value(k), Some(0x2a));
        let re = parse(&emit(&d)).unwrap();
        assert_eq!(
            re.netlist.constant_value(re.netlist.find_net("k").unwrap()),
            Some(0x2a)
        );
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "\n# header\ndesign d  # trailing\n\ninput a 4\noutput a\n";
        let d = parse(text).unwrap();
        assert_eq!(d.netlist.name(), "d");
    }
}
