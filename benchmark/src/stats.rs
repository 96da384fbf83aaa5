//! Order statistics for timing samples.

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The smallest value: interference from the host only ever adds time.
pub fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Median over consecutive blocks of `block` values of each block's
/// smallest; fewer values than one block are one block. A block's fastest
/// sample is what the operation costs on an undisturbed core, a fixed block
/// size keeps that independent of how many samples a run took, and the
/// median over blocks keeps one lucky sample from deciding the result.
pub fn median_of_block_minima(values: &[f64], block: usize) -> f64 {
    if values.len() < block {
        return fastest(values);
    }
    let minima: Vec<f64> = values.chunks_exact(block).map(fastest).collect();
    median(&minima)
}

pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// First, second and third quartile, computed as Python's
/// `statistics.quantiles(values, n=4)` computes them, so a spread printed
/// here matches the one the driver derives from the same runs. A single
/// value is its own quartiles.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    let m = v.len();
    if m < 2 {
        return [v.first().copied().unwrap_or(f64::NAN); 3];
    }
    [1usize, 2, 3].map(|i| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

/// Distance between the first and third quartile as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// Nearest-rank position (1-based) of percentile `p` among `n` samples.
fn rank(n: usize, p: u32) -> usize {
    (n * p as usize).div_ceil(100).max(1)
}

pub fn percentile(values: &[f64], p: u32) -> f64 {
    if p == 50 {
        return median(values);
    }
    let v = sorted(values);
    if v.is_empty() {
        return f64::NAN;
    }
    v[rank(v.len(), p) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p75_of_41_is_the_31st_sample() {
        // Ten samples lie beyond it, so the tail never rests on a handful
        // of outliers.
        let v: Vec<f64> = (1..=41).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 75), 31.0);
        assert_eq!(percentile(&v, 50), 21.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn block_minima_ignore_a_trailing_partial_block() {
        let v = [5.0, 3.0, 4.0, 9.0, 8.0, 7.0, 1.0];
        assert_eq!(median_of_block_minima(&v, 3), 5.0);
        assert_eq!(median_of_block_minima(&v, 8), 1.0);
    }

    #[test]
    fn median_of_even_count_averages() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
