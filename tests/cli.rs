//! Smoke tests for the `oiso` command-line tool.

use std::path::PathBuf;
use std::process::Command;

fn oiso() -> Command {
    Command::new(env!("CARGO_BIN_EXE_oiso"))
}

fn example() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples/cmac.oiso")
}

#[test]
fn show_reports_structure() {
    let out = oiso().arg("show").arg(example()).output().expect("run");
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("design `cmac`"), "{text}");
    assert!(text.contains("2 arithmetic"), "{text}");
}

#[test]
fn activation_prints_named_functions() {
    let out = oiso()
        .arg("activation")
        .arg(example())
        .output()
        .expect("run");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    // Both the multiplier and adder are gated by `go`.
    assert!(text.contains("AS_mul = go"), "{text}");
    assert!(text.contains("AS_add = go"), "{text}");
}

#[test]
fn isolate_saves_power_and_writes_outputs() {
    let dir = std::env::temp_dir().join(format!("oiso_cli_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let out_file = dir.join("isolated.oiso");
    let v_file = dir.join("isolated.v");
    let out = oiso()
        .arg("isolate")
        .arg(example())
        .args(["--style", "latch", "--cycles", "800"])
        .arg("--out")
        .arg(&out_file)
        .arg("--verilog")
        .arg(&v_file)
        .output()
        .expect("run");
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("LAT-isolated"), "{text}");
    assert!(text.contains("reduction"), "{text}");

    // The written design file must re-parse and still simulate.
    let written = std::fs::read_to_string(&out_file).expect("out file");
    let reparsed = operand_isolation::designs::textfmt::parse(&written).expect("reparse");
    reparsed.netlist.validate().expect("valid");
    assert!(
        reparsed
            .netlist
            .cells()
            .any(|(_, c)| c.kind() == operand_isolation::netlist::CellKind::Latch),
        "latch banks must survive the roundtrip"
    );
    let verilog = std::fs::read_to_string(&v_file).expect("verilog");
    assert!(verilog.contains("module cmac"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn lookahead_and_fsm_dc_flags_work_end_to_end() {
    let file = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples/fsm_pipeline.oiso");
    // Without look-ahead the pipelined multiplier has constant activation.
    let out = oiso().arg("activation").arg(&file).output().expect("run");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("AS_mul0 = 1"), "{text}");

    // With look-ahead it becomes the rewound next-state decode.
    let out = oiso()
        .arg("activation")
        .arg(&file)
        .arg("--lookahead")
        .output()
        .expect("run");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("AS_mul0 = state_inc[0]&!state_inc[1]"),
        "{text}"
    );

    // The full run with both extensions isolates the multiplier and saves
    // measurable power.
    let out = oiso()
        .arg("isolate")
        .arg(&file)
        .args(["--style", "and", "--lookahead", "--fsm-dc", "--cycles", "1200"])
        .output()
        .expect("run");
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("isolated `mul0`"), "{text}");

    // `show` reports the closed scheduler FSM.
    let out = oiso().arg("show").arg(&file).output().expect("run");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("closed FSM `sched`: 4 reachable"), "{text}");
}

#[test]
fn optimize_subcommand_reports_cleanup() {
    let out = oiso()
        .arg("optimize")
        .arg(example())
        .output()
        .expect("run");
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("cells"), "{text}");
}

#[test]
fn verify_proves_the_gated_alu() {
    let file = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples/gated_alu.oiso");
    let out = oiso().arg("verify").arg(&file).output().expect("run");
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("proved equivalent"), "{text}");
    assert!(text.contains("all candidates verified"), "{text}");
}

#[test]
fn verify_proves_cmac_outright_via_arithmetic_cuts() {
    // cmac's 16-bit multiplier used to blow the default BDD budget and
    // fall back to sampling; the arithmetic cut-point abstraction now
    // proves both candidates outright.
    let out = oiso().arg("verify").arg(example()).output().expect("run");
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("proved equivalent"), "{text}");
    assert!(text.contains("2 proved, 0 sampled"), "{text}");
}

#[test]
fn verify_falls_back_to_sampling_over_budget() {
    // A budget too small for even the cut abstraction degrades to the
    // seeded differential-sampling fallback instead of hanging.
    let out = oiso()
        .arg("verify")
        .arg(example())
        .args(["--budget", "300"])
        .output()
        .expect("run");
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("BDD budget exceeded"), "{text}");
    assert!(text.contains("vectors agree"), "{text}");
}

#[test]
fn fuzz_smoke_is_clean() {
    let out = oiso()
        .args(["fuzz", "--cases", "3", "--seed", "1"])
        .output()
        .expect("run");
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("no violations"), "{text}");
}

#[test]
fn fuzz_detects_a_sabotaged_transform() {
    // The harness's self-test: force every activation to FALSE and the
    // checker must object with a replayable witness.
    let out = oiso()
        .args(["fuzz", "--cases", "3", "--seed", "1", "--sabotage", "force-false"])
        .output()
        .expect("run");
    assert!(!out.status.success(), "sabotage must fail the run: {out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("VIOLATION"), "{text}");
    assert!(text.contains("counterexample at observable"), "{text}");
}

#[test]
fn bad_input_fails_cleanly() {
    let out = oiso().arg("show").arg("/nonexistent.oiso").output().expect("run");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("cannot read"), "{err}");

    let out = oiso().arg("frobnicate").arg(example()).output().expect("run");
    assert!(!out.status.success());

    // The retired multi-daemon surface is a usage error, not a panic.
    for args in [&["fleet"][..], &["serve", "--shard", "1/2"][..]] {
        let out = oiso().args(args).output().expect("run");
        assert!(!out.status.success(), "{args:?} must fail");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("usage:"), "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
    }
}
