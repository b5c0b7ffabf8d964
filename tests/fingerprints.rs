//! Pins every FNV-1a-derived value that leaves the process: netlist and
//! stimulus fingerprints (the simulation memo key), per-input stimulus
//! seeds, checkpoint and fuzz-journal config fingerprints, store entry
//! checksums, sweep point seeds, and serve cache keys.
//!
//! These values are persisted (checkpoints, journals, on-disk stores) or
//! decide which vectors a run draws, so any change to the byte stream a
//! hasher consumes is a compatibility break, not a refactor.

use oiso_bench::sweep::point_seed;
use operand_isolation::core::{config_fingerprint, IsolationConfig};
use operand_isolation::designs::bundled;
use operand_isolation::serve::api::ApiRequest;
use operand_isolation::serve::http::Request;
use operand_isolation::serve::store::entry_checksum;
use operand_isolation::serve::Endpoint;
use operand_isolation::sim::{StimulusPlan, StimulusSpec};
use operand_isolation::verify::{fuzz_config_fingerprint, FuzzConfig};

#[test]
fn fingerprints_are_pinned() {
    let fig1 = bundled("figure1").expect("bundled figure1");
    let plan = StimulusPlan::new(7)
        .drive("a", StimulusSpec::Constant(3))
        .drive("b", StimulusSpec::UniformRandom)
        .drive(
            "s",
            StimulusSpec::MarkovBits {
                p_one: 0.25,
                toggle_rate: 0.125,
            },
        )
        .drive("c", StimulusSpec::Counter { step: 5 })
        .drive("t", StimulusSpec::Trace(vec![1, 2, 3]));
    let req = ApiRequest::parse(
        Endpoint::Isolate,
        &Request {
            method: "POST".to_string(),
            path: "/v1/isolate".to_string(),
            headers: Vec::new(),
            body: b"{\"design\":\"figure1\"}".to_vec(),
        },
    )
    .expect("valid request");
    let pins: [(&str, u64, u64); 10] = [
        (
            "figure1 netlist",
            fig1.netlist.fingerprint(),
            0xe831_c0a4_7f34_fb7a,
        ),
        (
            "figure1 stimuli",
            fig1.stimuli.fingerprint(),
            0x1d3c_8ea6_ea4c_3762,
        ),
        ("plan", plan.fingerprint(), 0xebef_dad6_a820_bf30),
        ("seed_for(a)", plan.seed_for("a"), 0xaf74_c84c_8601_ead9),
        (
            "seed_for(operand_b)",
            plan.seed_for("operand_b"),
            0x39de_45fb_f4b1_76a6,
        ),
        (
            "config_fingerprint",
            config_fingerprint(&IsolationConfig::default()),
            0x263c_8f55_bd5d_6bac,
        ),
        (
            "fuzz_config_fingerprint",
            fuzz_config_fingerprint(&FuzzConfig::default()),
            0x93a9_60f8_9acb_5a5e,
        ),
        (
            "entry_checksum",
            entry_checksum(0x0123_4567_89ab_cdef, "{\"ok\":true}"),
            0x29ef_be62_51e1_5215,
        ),
        (
            "point_seed",
            point_seed(42, 0.3, 0.75),
            0x612d_9f8e_7029_9a62,
        ),
        (
            "serve cache key",
            req.cache_key().expect("cacheable"),
            0xbb09_4b3e_02e9_d29f,
        ),
    ];
    for (what, got, want) in pins {
        assert_eq!(got, want, "{what}: {got:#018x} != {want:#018x}");
    }
}
