//! EXP-SW: the Section 6 sweep over activation-signal statistics.
//!
//! "To study the effect of signal statistics on power savings, we generated
//! a set of testbenches ranging between low and high static probabilities
//! and toggle rates of the activation signal. Average reduction in power
//! consumption varied between 9% and 30%; overall the power reduction
//! varied between approximately 5% in the worst case and 70% in the best
//! case."
//!
//! The sweep drives design1's primary-input activation signal `act` with
//! two-state Markov streams across a grid of `(Pr(act=1), toggle rate)`
//! points and records the measured power reduction of the optimized
//! circuit.

use oiso_core::{optimize_with_memo, IsolationConfig, IsolationError};
use oiso_designs::design1::{build, Design1Params};
use oiso_netlist::Fnv;
use oiso_sim::{SimMemo, StimulusSpec};
use std::fmt::Write as _;

/// One sweep point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// Static probability of the activation input being 1 (module active).
    pub p_active: f64,
    /// Toggle rate of the activation input.
    pub toggle_rate: f64,
    /// Measured power reduction, percent.
    pub power_reduction_pct: f64,
    /// Candidates isolated.
    pub isolated: usize,
}

/// The default grid: static probabilities from nearly-always-idle to
/// nearly-always-active, each at a feasible toggle rate.
pub fn default_grid() -> Vec<(f64, f64)> {
    let mut grid = Vec::new();
    for &p in &[0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95] {
        let tr_max: f64 = 2.0 * f64::min(p, 1.0 - p);
        for &fraction in &[0.3, 0.9] {
            grid.push((p, (tr_max * fraction).max(0.01)));
        }
    }
    grid
}

/// Derives the master stimulus seed of one grid point from the base seed
/// and the point's coordinates (FNV-1a over the exact `f64` bit patterns).
///
/// Seeding from the *coordinates* rather than the grid index means a point
/// keeps its exact vectors when the grid is reordered, subsampled, or
/// processed by a parallel worker pool — the per-point result is a pure
/// function of `(base_seed, p_active, toggle_rate)` and nothing else.
pub fn point_seed(base_seed: u64, p_active: f64, toggle_rate: f64) -> u64 {
    let mut h = Fnv::seeded(base_seed).legacy_prime();
    h.f64(p_active);
    h.f64(toggle_rate);
    h.finish()
}

/// Runs the sweep on design1.
///
/// Grid points are independent `optimize()` runs and are fanned across
/// `config.threads` workers (each running its optimizer serially); every
/// point's stimuli are seeded by [`point_seed`] from its coordinates, so
/// the result vector is bit-identical at every thread count.
///
/// # Errors
///
/// Returns an error if simulation fails at any grid point; with several
/// failing points, the lowest-indexed one's error is returned (same as a
/// serial loop).
pub fn activation_sweep(
    grid: &[(f64, f64)],
    config: &IsolationConfig,
) -> Result<Vec<SweepPoint>, IsolationError> {
    // The fan-out happens here at grid level; each point's optimizer runs
    // serially so `config.threads` is consumed exactly once.
    let point_config = config.clone().with_threads(1);
    oiso_par::try_parallel_map(config.threads, grid, |_, &(p_active, toggle_rate)| {
        let design = build(&Design1Params {
            act_p_one: p_active,
            act_toggle_rate: toggle_rate,
            ..Default::default()
        });
        // Rewrite the act driver with this grid point's statistics and
        // re-seed the whole plan from the point coordinates.
        let mut plan = design.stimuli.clone();
        plan.drivers.retain(|(name, _)| name != "act");
        let plan = plan
            .drive("act", StimulusSpec::MarkovBits {
                p_one: p_active,
                toggle_rate,
            })
            .with_seed(point_seed(design.stimuli.seed, p_active, toggle_rate));
        let outcome =
            optimize_with_memo(&design.netlist, &plan, &point_config, &SimMemo::new())?;
        Ok(SweepPoint {
            p_active,
            toggle_rate,
            power_reduction_pct: outcome.power_reduction_percent(),
            isolated: outcome.num_isolated(),
        })
    })
}

/// Renders the sweep as a table.
pub fn render(points: &[SweepPoint]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "design1 activation-statistics sweep (Section 6)\n\
         {:>9} {:>9} {:>12} {:>6}",
        "Pr(act)", "Tr(act)", "%power red", "#iso"
    );
    for p in points {
        let _ = writeln!(
            out,
            "{:>9.2} {:>9.2} {:>11.2}% {:>6}",
            p.p_active, p.toggle_rate, p.power_reduction_pct, p.isolated
        );
    }
    if !points.is_empty() {
        let avg =
            points.iter().map(|p| p.power_reduction_pct).sum::<f64>() / points.len() as f64;
        let best = points
            .iter()
            .map(|p| p.power_reduction_pct)
            .fold(f64::MIN, f64::max);
        let worst = points
            .iter()
            .map(|p| p.power_reduction_pct)
            .fold(f64::MAX, f64::min);
        let _ = writeln!(
            out,
            "average {avg:.2}%  best {best:.2}%  worst {worst:.2}%  \
             (paper: average 9-30%, range ~5-70%)"
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_points_are_feasible_markov_statistics() {
        for (p, tr) in default_grid() {
            assert!(tr <= 2.0 * p.min(1.0 - p) + 1e-9, "({p}, {tr})");
            assert!(tr > 0.0);
        }
    }

    #[test]
    fn point_seed_is_a_pure_function_of_coordinates() {
        assert_eq!(point_seed(7, 0.2, 0.1), point_seed(7, 0.2, 0.1));
        assert_ne!(point_seed(7, 0.2, 0.1), point_seed(7, 0.2, 0.15));
        assert_ne!(point_seed(7, 0.2, 0.1), point_seed(8, 0.2, 0.1));
    }

    #[test]
    fn sweep_is_thread_count_invariant() {
        let grid = [(0.2, 0.1), (0.5, 0.3), (0.8, 0.1)];
        let serial =
            activation_sweep(&grid, &IsolationConfig::default().with_sim_cycles(400))
                .unwrap();
        let parallel = activation_sweep(
            &grid,
            &IsolationConfig::default().with_sim_cycles(400).with_threads(4),
        )
        .unwrap();
        assert_eq!(serial, parallel, "bit-identical across thread counts");
    }

    #[test]
    fn sweep_monotone_in_idleness() {
        // Two extreme points: nearly idle saves far more than nearly busy.
        let config = IsolationConfig::default().with_sim_cycles(600);
        let points =
            activation_sweep(&[(0.05, 0.05), (0.95, 0.05)], &config).unwrap();
        assert!(points[0].power_reduction_pct > points[1].power_reduction_pct);
        assert!(points[0].power_reduction_pct > 10.0);
    }
}
