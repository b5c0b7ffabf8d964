//! Golden file for the activation covers every transform, golden and
//! metric builds on: `minimize(refine_with_fsm_dont_cares(f_c))` for every
//! arithmetic cell of the bundled designs and of the `scaled` random
//! structures, under the default and the look-ahead derivation.
//!
//! The covers depend on the BDD engine the ISOP minimizer runs on (its
//! variable order and cofactor walk), so any engine change that alters a
//! single cube shows up here.
//!
//! Regenerate with `UPDATE_GOLDEN=1 cargo test --test activation_covers`.

use operand_isolation::boolex::{minimize, Signal};
use operand_isolation::core::{
    derive_activation_functions, find_closed_fsms, refine_with_fsm_dont_cares, ActivationConfig,
};
use operand_isolation::designs::random::{self, RandomParams};
use operand_isolation::designs::{bundled, Design, BUNDLED_NAMES};
use operand_isolation::netlist::Netlist;
use std::fmt::Write as _;
use std::path::PathBuf;

/// The random structures of the end-to-end benchmark's `scaled` workload.
const SCALED_STRUCTURES: [u64; 8] = [1000, 1003, 1006, 1010, 1011, 1014, 1024, 1037];

fn check_golden(name: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {name}: {e}; run with UPDATE_GOLDEN=1"));
    assert_eq!(
        expected, actual,
        "golden {name} diverged; run with UPDATE_GOLDEN=1 if intentional"
    );
}

fn signal_name(netlist: &Netlist, sig: Signal) -> String {
    let net = netlist.net(sig.net);
    if net.width() == 1 {
        net.name().to_string()
    } else {
        format!("{}[{}]", net.name(), sig.bit)
    }
}

fn render_covers(out: &mut String, design: &Design) {
    let netlist = &design.netlist;
    let fsms = find_closed_fsms(netlist);
    for (label, config) in [
        ("default", ActivationConfig::default()),
        ("lookahead", ActivationConfig::default().with_lookahead()),
    ] {
        let acts = derive_activation_functions(netlist, &config);
        writeln!(out, "## {} {label} fsms={}", netlist.name(), fsms.len()).unwrap();
        for (id, cell) in netlist.cells().filter(|(_, c)| c.kind().is_arithmetic()) {
            let act = &acts[&id];
            let cover = minimize(&refine_with_fsm_dont_cares(netlist, &fsms, act));
            let name_of = |s: Signal| signal_name(netlist, s);
            writeln!(
                out,
                "{} [{} -> {}] {}",
                cell.name(),
                act.literal_count(),
                cover.literal_count(),
                cover.render(&name_of)
            )
            .unwrap();
        }
    }
}

#[test]
fn activation_covers_are_stable() {
    let mut out = String::new();
    for name in BUNDLED_NAMES {
        render_covers(&mut out, &bundled(name).expect("bundled design"));
    }
    for seed in SCALED_STRUCTURES {
        let design = random::build(&RandomParams {
            seed,
            ops: 48,
            width: 16,
        });
        render_covers(&mut out, &design);
    }
    check_golden("activation_covers.txt", &out);
}
