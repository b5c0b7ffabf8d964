//! The benchmark's workloads and the inputs each builds from a seed.

use oiso_core::{IsolationConfig, IsolationStyle};
use oiso_designs::random::{self, RandomParams};
use oiso_designs::{bundled, Design, BUNDLED_NAMES};

/// A workload: one set of `optimize()` inputs with its configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Bundled designs × {AND, OR, LATCH, BDD}, one shared memo per design.
    Styles,
    /// Random 48-op datapaths, AND, two scoring threads, fresh memo.
    Scaled,
    /// Bundled designs, AND, activity ranking with a binding cap of 2.
    Ranked,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [Workload::Styles, Workload::Scaled, Workload::Ranked];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Styles => "styles",
            Workload::Scaled => "scaled",
            Workload::Ranked => "ranked",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Seeds of the `scaled` workload's random design *structures*. They are
/// fixed so that every `--seed` measures the same eight circuits (only
/// their stimulus vectors change): regenerating the structures per seed
/// moved round time by ±20% between seeds. These are the structures among
/// seeds 1000–1039 that run at least five iterations and whose accepted
/// set stayed the same under ten stimulus seeds, so a run's time reflects
/// the code rather than which marginal candidate a draw tips over.
const SCALED_STRUCTURES: [u64; 8] = [1000, 1003, 1006, 1010, 1011, 1014, 1024, 1037];

/// Operators per `scaled` design (about 95 cells, twice `soc`).
const SCALED_OPS: usize = 48;

/// Operand width of the `scaled` designs.
const SCALED_WIDTH: u8 = 16;

/// One design of a workload with the configurations run on it. All
/// configurations of one input share one `SimMemo` per round, the way
/// `oiso_bench::tables::paper_table` shares it across a design's style
/// columns; a single-configuration input therefore gets a fresh memo per
/// call, which is what `optimize()` does.
#[derive(Debug, Clone)]
pub struct Input {
    /// Label used in reports and spans.
    pub label: String,
    /// Circuit and stimulus plan.
    pub design: Design,
    /// Configurations run on the design, in order.
    pub configs: Vec<IsolationConfig>,
}

/// FNV-1a over the seed's bytes then `name`'s bytes: the per-design
/// stimulus seed.
pub fn fnv(seed: u64, name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in seed.to_le_bytes().into_iter().chain(name.bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

fn bundled_input(name: &str, seed: u64, configs: Vec<IsolationConfig>) -> Input {
    Input {
        label: name.to_string(),
        design: bundled(name)
            .expect("bundled design name")
            .with_seed(fnv(seed, name)),
        configs,
    }
}

/// Simulated cycles per run on the bundled designs, ten times the
/// default. At 2000 cycles the estimated `h` of design1's tree adders
/// straddles zero, so whether they are isolated (and how many iterations
/// and proof steps follow) flipped in about half of the stimulus seeds;
/// at 20000 it flips in about one in twenty.
const BUNDLED_CYCLES: u64 = 20_000;

/// The configuration of a workload's calls (the first style for `styles`).
pub fn base_config(workload: Workload) -> IsolationConfig {
    match workload {
        Workload::Styles => IsolationConfig::default().with_sim_cycles(BUNDLED_CYCLES),
        Workload::Scaled => IsolationConfig::default().with_threads(2),
        Workload::Ranked => IsolationConfig::default()
            .with_sim_cycles(BUNDLED_CYCLES)
            .with_activity_ranking(true)
            .with_candidate_cap(Some(2)),
    }
}

/// Builds a workload's inputs from `seed`. `quick` shrinks them for a
/// smoke run whose numbers are never recorded.
pub fn inputs(workload: Workload, seed: u64, quick: bool) -> Vec<Input> {
    let config = base_config(workload);
    match workload {
        Workload::Styles => {
            let names: &[&str] = if quick {
                &["figure1", "design2", "alu_ctrl", "busnet"]
            } else {
                BUNDLED_NAMES
            };
            let configs: Vec<IsolationConfig> = IsolationStyle::ALL_WITH_BDD
                .into_iter()
                .map(|style| config.clone().with_style(style))
                .collect();
            names
                .iter()
                .map(|name| bundled_input(name, seed, configs.clone()))
                .collect()
        }
        Workload::Scaled => {
            let count = if quick { 2 } else { SCALED_STRUCTURES.len() };
            SCALED_STRUCTURES[..count]
                .iter()
                .enumerate()
                .map(|(i, &structure)| {
                    let label = format!("random{i}");
                    let design = random::build(&RandomParams {
                        seed: structure,
                        ops: SCALED_OPS,
                        width: SCALED_WIDTH,
                    });
                    Input {
                        design: design.with_seed(fnv(seed, &label)),
                        label,
                        configs: vec![config.clone()],
                    }
                })
                .collect()
        }
        Workload::Ranked => {
            let names: &[&str] = if quick {
                &["figure1", "alu_ctrl", "busnet"]
            } else {
                BUNDLED_NAMES
            };
            names
                .iter()
                .map(|name| bundled_input(name, seed, vec![config.clone()]))
                .collect()
        }
    }
}
