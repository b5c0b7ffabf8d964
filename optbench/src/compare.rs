//! `--compare`: parent runs against change runs, per workload × metric.
//!
//! The rule is the one a performance claim must meet: a change
//! *improved* a metric only when it wins at least nine tenths of the
//! pairs (ties count for neither) and the medians differ by more than the
//! parent's own spread (its interquartile distance). A
//! metric with a bound in `BENCHMARK.json` *regressed* when the change's
//! median is worse than the parent's by more than the bound, and is
//! *unresolved* when the parent's spread is wider than the bound unless
//! every change run beats every parent run.
//!
//! The quality metrics ([`EXACT`]) are a function of the seed alone, so
//! they are compared run against run at equal seeds, and any difference
//! counts: their bounds in `BENCHMARK.json` only absorb the spread across
//! seeds of a set of runs.

use crate::json::{self, Value};
use crate::stats::{median, quartiles};
use std::collections::BTreeMap;

/// The file holding every metric's direction and bound.
const BENCHMARK_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

/// End-to-end metrics that the seed determines exactly.
pub const EXACT: [&str; 4] = [
    "power_reduction_pct",
    "area_increase_pct",
    "slack_reduction_pct",
    "proved_ratio",
];

/// The verdict for one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change wins by the rule above.
    Improved,
    /// Within the bound (or, unbounded, not shown worse).
    Unchanged,
    /// The parent's spread is wider than the bound.
    Unresolved,
    /// Worse by more than the bound (or, unbounded, by the mirrored rule).
    Regressed,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
            Verdict::Regressed => "regressed",
        }
    }
}

/// Direction and bound of one metric, from `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rule {
    /// Lower values are better.
    pub lower_is_better: bool,
    /// Allowed relative worsening of the median; `None` for per-layer
    /// metrics, which have no bound.
    pub bound: Option<f64>,
}

/// Applies the rule to one metric: parent runs against change runs,
/// paired in order. Returns the verdict and the pairs the change won out
/// of those compared.
pub fn verdict(parent: &[f64], change: &[f64], rule: Rule) -> (Verdict, usize, usize) {
    let better = |base: f64, other: f64| {
        if rule.lower_is_better {
            other < base
        } else {
            other > base
        }
    };
    let pairs = parent.len().min(change.len());
    if pairs == 0 {
        return (Verdict::Unresolved, 0, 0);
    }
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| better(**p, **c))
        .count();
    let losses = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| better(**c, **p))
        .count();
    let (pm, cm) = (median(parent), median(change));
    let (q1, q3) = quartiles(parent);
    let spread = q3 - q1;
    let apart = (cm - pm).abs() > spread;
    if wins * 10 >= pairs * 9 && apart && better(pm, cm) {
        return (Verdict::Improved, wins, pairs);
    }
    let verdict = match rule.bound {
        Some(bound) => {
            let all_better = change.iter().all(|&c| parent.iter().all(|&p| better(p, c)));
            let worse_by = if rule.lower_is_better {
                cm - pm
            } else {
                pm - cm
            };
            if spread > bound * pm.abs() && !all_better {
                Verdict::Unresolved
            } else if worse_by > bound * pm.abs() {
                Verdict::Regressed
            } else {
                Verdict::Unchanged
            }
        }
        None if losses * 10 >= pairs * 9 && apart && better(cm, pm) => Verdict::Regressed,
        None => Verdict::Unchanged,
    };
    (verdict, wins, pairs)
}

/// The verdict for an [`EXACT`] metric: every parent run is paired with
/// every change run of the same seed. One pair the change loses makes it
/// regressed; otherwise one it wins makes it improved. Without a pair of
/// equal seeds it is unresolved. Returns the verdict and the pairs the
/// change won out of those compared.
pub fn exact_verdict(
    parent: &[(u64, f64)],
    change: &[(u64, f64)],
    lower_is_better: bool,
) -> (Verdict, usize, usize) {
    let (mut wins, mut losses, mut pairs) = (0, 0, 0);
    for &(seed, c) in change {
        for &(_, p) in parent.iter().filter(|(s, _)| *s == seed) {
            pairs += 1;
            if c != p {
                if (c < p) == lower_is_better {
                    wins += 1;
                } else {
                    losses += 1;
                }
            }
        }
    }
    let verdict = if pairs == 0 {
        Verdict::Unresolved
    } else if losses > 0 {
        Verdict::Regressed
    } else if wins > 0 {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    (verdict, wins, pairs)
}

/// Reads every metric's direction and bound from `path`.
fn load_rules(path: &str) -> Result<BTreeMap<String, Rule>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let mut rules = BTreeMap::new();
    for (section, bounded) in [("end_to_end", true), ("per_layer", false)] {
        let entries = doc
            .get(section)
            .and_then(Value::as_array)
            .ok_or_else(|| format!("{path}: no `{section}` array"))?;
        for e in entries {
            let name = e.get("name").and_then(Value::as_str);
            let better = e.get("better").and_then(Value::as_str);
            let bound = e.get("bound").and_then(Value::as_f64);
            let (Some(name), Some(better)) = (name, better) else {
                return Err(format!("{path}: `{section}` entry without name or better"));
            };
            if bounded && bound.is_none() {
                return Err(format!("{path}: `{name}` has no bound"));
            }
            rules.insert(
                name.to_string(),
                Rule {
                    lower_is_better: better == "lower",
                    bound,
                },
            );
        }
    }
    Ok(rules)
}

/// (seed, value) per (workload, metric) over a list of `--json` result
/// files, in file order.
type Samples = BTreeMap<(String, String), Vec<(u64, f64)>>;

fn load_results(paths: &[String]) -> Result<Samples, String> {
    let mut samples = Samples::new();
    for path in paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        let seed = doc
            .get("seed")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("{path}: no `seed`"))? as u64;
        let workloads = doc
            .get("workloads")
            .and_then(Value::as_object)
            .ok_or_else(|| format!("{path}: no `workloads` object"))?;
        for (workload, result) in workloads {
            let metrics = result
                .get("metrics")
                .and_then(Value::as_object)
                .ok_or_else(|| format!("{path}: `{workload}` has no metrics"))?;
            for (name, m) in metrics {
                let value = m
                    .get("value")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("{path}: `{workload}/{name}` has no value"))?;
                samples
                    .entry((workload.clone(), name.clone()))
                    .or_default()
                    .push((seed, value));
            }
        }
    }
    Ok(samples)
}

fn summary(values: &[f64]) -> String {
    let (q1, q3) = quartiles(values);
    format!("{:.6} [{:.6}, {:.6}]", median(values), q1, q3)
}

/// Prints one verdict line per workload × metric found on both sides and
/// named in the repository's `BENCHMARK.json`. Returns whether any
/// bounded metric regressed.
///
/// # Errors
///
/// An unreadable or malformed file.
pub fn compare(parent: &[String], change: &[String]) -> Result<bool, String> {
    let rules = load_rules(BENCHMARK_JSON)?;
    let parent = load_results(parent)?;
    let change = load_results(change)?;
    println!(
        "workload metric | parent median [q1, q3] | change median [q1, q3] | pairs won | verdict"
    );
    let mut regressed = false;
    for ((workload, name), p) in &parent {
        let (Some(c), Some(rule)) = (
            change.get(&(workload.clone(), name.clone())),
            rules.get(name),
        ) else {
            continue;
        };
        let values = |runs: &[(u64, f64)]| runs.iter().map(|r| r.1).collect::<Vec<_>>();
        let (pv, cv) = (values(p), values(c));
        let (v, wins, pairs) = if EXACT.contains(&name.as_str()) {
            exact_verdict(p, c, rule.lower_is_better)
        } else {
            verdict(&pv, &cv, *rule)
        };
        regressed |= v == Verdict::Regressed && rule.bound.is_some();
        println!(
            "{workload} {name} | {} | {} | {wins}/{pairs} | {}",
            summary(&pv),
            summary(&cv),
            v.label()
        );
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: Rule = Rule {
        lower_is_better: true,
        bound: Some(0.1),
    };

    #[test]
    fn a_clear_win_is_improved() {
        let parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.1, 9.8, 10.0, 10.2, 9.9];
        let change = [8.0, 8.1, 7.9, 8.0, 8.2, 8.0, 7.9, 8.1, 8.0, 8.0];
        assert_eq!(
            verdict(&parent, &change, LOWER),
            (Verdict::Improved, 10, 10)
        );
    }

    #[test]
    fn bounds_separate_noise_from_regressions() {
        let parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.1, 9.8, 10.0, 10.2, 9.9];
        let slightly_worse: Vec<f64> = parent.iter().map(|v| v * 1.05).collect();
        let much_worse: Vec<f64> = parent.iter().map(|v| v * 1.3).collect();
        assert_eq!(
            verdict(&parent, &slightly_worse, LOWER).0,
            Verdict::Unchanged
        );
        assert_eq!(verdict(&parent, &much_worse, LOWER).0, Verdict::Regressed);
        let noisy = [5.0, 15.0, 7.0, 13.0, 10.0, 9.0, 11.0, 6.0, 14.0, 10.0];
        assert_eq!(verdict(&noisy, &parent, LOWER).0, Verdict::Unresolved);
        let higher = Rule {
            lower_is_better: false,
            bound: None,
        };
        assert_eq!(verdict(&parent, &much_worse, higher).0, Verdict::Improved);
        assert_eq!(verdict(&much_worse, &parent, higher).0, Verdict::Regressed);
    }

    #[test]
    fn exact_metrics_count_any_same_seed_difference() {
        let parent = [(1, 30.71), (2, 30.52), (1, 30.71)];
        assert_eq!(
            exact_verdict(&parent, &[(1, 30.71), (2, 30.52)], false),
            (Verdict::Unchanged, 0, 3)
        );
        // A drop well inside a relative bound of 0.05 still regresses.
        assert_eq!(
            exact_verdict(&parent, &[(1, 29.3), (2, 30.52)], false).0,
            Verdict::Regressed
        );
        assert_eq!(
            exact_verdict(&parent, &[(2, 30.6)], false),
            (Verdict::Improved, 1, 1)
        );
        assert_eq!(
            exact_verdict(&parent, &[(2, 30.6)], true).0,
            Verdict::Regressed
        );
        assert_eq!(
            exact_verdict(&parent, &[(3, 30.71)], false),
            (Verdict::Unresolved, 0, 0)
        );
    }

    #[test]
    fn the_repository_bounds_load_and_exact_metrics_have_rules() {
        let rules = load_rules(BENCHMARK_JSON).expect("BENCHMARK.json");
        for name in EXACT.into_iter().chain(["setup_s", "isolate_s"]) {
            assert!(rules[name].bound.is_some(), "{name}");
        }
        assert_eq!(rules["bench.coverage"].bound, None);
    }
}
