//! Order statistics, computed the way Python's `statistics` module does
//! so that numbers printed here match a reader's own check.

/// `statistics.median`: the middle value, or the mean of the two middle
/// values. `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `statistics.quantiles(values, n=n)` with the default `exclusive`
/// method: the `n - 1` cut points dividing the data into `n` groups. A
/// single value is repeated; an empty slice gives `NaN`s.
pub fn quantiles(values: &[f64], n: usize) -> Vec<f64> {
    let data = sorted(values);
    let ld = data.len();
    match ld {
        0 => return vec![f64::NAN; n - 1],
        1 => return vec![data[0]; n - 1],
        _ => {}
    }
    let m = ld + 1;
    (1..n)
        .map(|i| {
            let j = (i * m / n).clamp(1, ld - 1);
            // Negative near the ends: Python extrapolates there.
            let delta = (i * m) as f64 - (j * n) as f64;
            (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64
        })
        .collect()
}

/// First and third quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let q = quantiles(values, 4);
    (q[0], q[2])
}

/// The 90th percentile, `quantiles(values, n=10, method="inclusive")[8]`:
/// linear interpolation between order statistics, never beyond the
/// largest value (the `exclusive` method extrapolates on small samples).
/// `NaN` for an empty slice.
pub fn p90(values: &[f64]) -> f64 {
    let data = sorted(values);
    let Some(&last) = data.last() else {
        return f64::NAN;
    };
    if data.len() == 1 {
        return last;
    }
    let m = data.len() - 1;
    let j = 9 * m / 10;
    let delta = (9 * m - 10 * j) as f64;
    (data[j] * (10.0 - delta) + data[j + 1] * delta) / 10.0
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantiles(&v, 4), vec![2.75, 5.5, 8.25]);
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([1..10], n=10, method="inclusive")[8] == 9.1
        assert!((p90(&v) - 9.1).abs() < 1e-12);
        // ... and of [1..8]: 7.3, where `exclusive` would give 8.1.
        let eight: Vec<f64> = (1..=8).map(f64::from).collect();
        assert!((p90(&eight) - 7.3).abs() < 1e-12);
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), (0.5, 3.5));
        assert_eq!(median(&[2.0, 9.0, 4.0]), 4.0);
    }
}
