//! User input never reaches a panic: byte-level properties over the two
//! text loaders that read files a user hands the tools.
//!
//! * `textfmt::parse` (the `.oiso` design format) on arbitrary bytes, on
//!   token soup built from the format's own vocabulary, on every
//!   truncation of each bundled `examples/*.oiso`, and on single-byte
//!   mutations of them;
//! * `Checkpoint::parse` (the `--checkpoint`/`--resume` journal) on every
//!   truncation of a journal written by a real run, and on random byte
//!   flips of it.
//!
//! Every input must come back as `Ok` or a typed error whose message
//! renders; a panic fails the test. Bytes that are not UTF-8 go through
//! `String::from_utf8_lossy`, since both loaders read files with
//! `read_to_string`, which rejects invalid UTF-8 before parsing.

use operand_isolation::core::{optimize, Checkpoint, IsolationConfig};
use operand_isolation::designs::{design1, textfmt};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::OnceLock;

const EXAMPLES: [&str; 4] = ["cmac", "fsm_pipeline", "gated_alu", "lint_demo"];

fn example(name: &str) -> String {
    let path = format!("{}/examples/{name}.oiso", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// Parses `bytes` as a design; panics only if the parser does.
fn parse_design(bytes: &[u8]) {
    if let Err(e) = textfmt::parse(&String::from_utf8_lossy(bytes)) {
        assert!(!e.to_string().is_empty());
    }
}

/// Parses `bytes` as a checkpoint journal; panics only if the parser does.
fn parse_journal(bytes: &[u8]) {
    if let Err(e) = Checkpoint::parse(&String::from_utf8_lossy(bytes)) {
        assert!(!e.to_string().is_empty());
    }
}

/// A journal written by a real checkpointed run of design1 (header plus
/// one line per accepted step).
fn journal() -> &'static [u8] {
    static JOURNAL: OnceLock<Vec<u8>> = OnceLock::new();
    JOURNAL.get_or_init(|| {
        let path: PathBuf =
            std::env::temp_dir().join(format!("oiso-prop-input-{}.jsonl", std::process::id()));
        let design = design1::build(&design1::Design1Params::default());
        let config = IsolationConfig::default()
            .with_sim_cycles(300)
            .with_checkpoint(&path);
        let outcome = optimize(&design.netlist, &design.stimuli, &config).expect("optimize");
        assert!(outcome.num_isolated() >= 2, "journal needs accepted steps");
        let bytes = std::fs::read(&path).expect("read journal");
        let _ = std::fs::remove_file(&path);
        let parsed = Checkpoint::parse(std::str::from_utf8(&bytes).expect("utf-8 journal"))
            .expect("a freshly written journal parses");
        assert_eq!(parsed.steps.len(), outcome.num_isolated());
        bytes
    })
}

/// Words of the `.oiso` format, separators, and a few hostile numbers.
#[rustfmt::skip]
const VOCAB: &[&str] = &[
    "design", "input", "wire", "cell", "output", "drive", "seed", "->", "#", "\n", " ",
    "add", "mul", "mux", "reg", "reg.en", "latch", "concat", "zext", "slice:3:0",
    "slice:0:9", "slice:", "const:", "const:0x", "uniform", "markov", "counter", "trace",
    "const", "a", "b", "q", "0", "1", "8", "64", "65", "255", "256", "-1", "0.5", "NaN",
    "inf", "1e309", "18446744073709551616", "0xffffffffffffffff", ",", ",,", "é", "\u{0}",
];

fn token_soup() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0usize..VOCAB.len(), 0..80)
        .prop_map(|picks| picks.into_iter().flat_map(|i| VOCAB[i].bytes()).collect())
}

fn raw_bytes() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec((0u16..256).prop_map(|b| b as u8), 0..300)
}

#[test]
fn design_parser_survives_every_truncation_of_the_examples() {
    for name in EXAMPLES {
        let text = example(name);
        textfmt::parse(&text).unwrap_or_else(|e| panic!("{name} parses whole: {e}"));
        for end in 0..=text.len() {
            parse_design(&text.as_bytes()[..end]);
        }
    }
}

#[test]
fn checkpoint_parser_survives_every_truncation_of_a_real_journal() {
    let bytes = journal();
    for end in 0..=bytes.len() {
        parse_journal(&bytes[..end]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn design_parser_never_panics_on_arbitrary_bytes(bytes in raw_bytes()) {
        parse_design(&bytes);
    }

    #[test]
    fn design_parser_never_panics_on_token_soup(bytes in token_soup()) {
        parse_design(&bytes);
    }

    /// One byte of an example replaced, then optionally the result cut
    /// short.
    #[test]
    fn design_parser_never_panics_on_mutated_examples(
        which in 0usize..EXAMPLES.len(),
        at in 0usize..4096,
        byte in 0u16..256,
        cut in 0usize..8192,
    ) {
        let mut bytes = example(EXAMPLES[which]).into_bytes();
        let at = at % bytes.len();
        bytes[at] = byte as u8;
        bytes.truncate(cut.max(at + 1));
        parse_design(&bytes);
    }

    /// Up to three whitespace-separated tokens of an example replaced by
    /// format vocabulary: inputs that get past the tokenizer and reach
    /// the netlist builder with bad widths, kinds, arities and numbers.
    #[test]
    fn design_parser_never_panics_on_token_swaps(
        which in 0usize..EXAMPLES.len(),
        swaps in proptest::collection::vec(0u64..u64::MAX, 1..4),
    ) {
        let text = example(EXAMPLES[which]);
        let mut tokens: Vec<&str> = text.split(' ').collect();
        let len = tokens.len() as u64;
        for swap in swaps {
            tokens[((swap >> 8) % len) as usize] = VOCAB[(swap & 0xff) as usize % VOCAB.len()];
        }
        parse_design(tokens.join(" ").as_bytes());
    }

    /// Up to four bytes of a real journal replaced; each draw packs a
    /// position (high bits) and a replacement byte (low 8 bits).
    #[test]
    fn checkpoint_parser_never_panics_on_byte_flips(
        flips in proptest::collection::vec(0u64..u64::MAX, 1..5),
    ) {
        let mut bytes = journal().to_vec();
        let len = bytes.len() as u64;
        for flip in flips {
            bytes[((flip >> 8) % len) as usize] = flip as u8;
        }
        parse_journal(&bytes);
    }
}
