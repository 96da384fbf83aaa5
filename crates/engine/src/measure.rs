//! Waveform measurements: the `.measure`-style post-processing a designer
//! applies to transient results (threshold crossings, delays, rise/fall
//! times, period, RMS/average).
//!
//! All functions operate on a `(time, value)` trace as produced by
//! [`crate::TransientResult::trace`], interpolating linearly between points.

/// Direction of a threshold crossing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Edge {
    /// Value crosses the threshold upward.
    Rising,
    /// Value crosses the threshold downward.
    Falling,
    /// Either direction.
    Any,
}

/// Returns every instant the trace crosses `threshold` in the requested
/// direction (linear interpolation).
///
/// ```
/// use wavepipe_engine::measure::{crossings, Edge};
///
/// let ramp = vec![(0.0, 0.0), (1.0, 1.0)];
/// assert_eq!(crossings(&ramp, 0.25, Edge::Rising), vec![0.25]);
/// ```
pub fn crossings(trace: &[(f64, f64)], threshold: f64, edge: Edge) -> Vec<f64> {
    let mut out = Vec::new();
    for w in trace.windows(2) {
        let (t0, v0) = w[0];
        let (t1, v1) = w[1];
        let rising = v0 < threshold && v1 >= threshold;
        let falling = v0 > threshold && v1 <= threshold;
        let hit = match edge {
            Edge::Rising => rising,
            Edge::Falling => falling,
            Edge::Any => rising || falling,
        };
        if hit && v1 != v0 {
            out.push(t0 + (t1 - t0) * (threshold - v0) / (v1 - v0));
        }
    }
    out
}

/// The `n`-th (0-based) crossing of `threshold` in the given direction.
pub(crate) fn nth_crossing(
    trace: &[(f64, f64)],
    threshold: f64,
    edge: Edge,
    n: usize,
) -> Option<f64> {
    crossings(trace, threshold, edge).into_iter().nth(n)
}

/// Delay from the `n`-th crossing of one trace to the `n`-th crossing of
/// another (e.g. input edge to output edge of a gate).
pub fn delay(
    from: &[(f64, f64)],
    from_threshold: f64,
    from_edge: Edge,
    to: &[(f64, f64)],
    to_threshold: f64,
    to_edge: Edge,
    n: usize,
) -> Option<f64> {
    let a = nth_crossing(from, from_threshold, from_edge, n)?;
    // First `to` crossing at or after the `from` event.
    let b = crossings(to, to_threshold, to_edge).into_iter().find(|&t| t >= a)?;
    Some(b - a)
}

/// 10%–90% rise time of the `n`-th low-to-high transition between the given
/// levels.
pub fn rise_time(trace: &[(f64, f64)], low: f64, high: f64, n: usize) -> Option<f64> {
    let swing = high - low;
    let t10 = crossings(trace, low + 0.1 * swing, Edge::Rising);
    let t90 = crossings(trace, low + 0.9 * swing, Edge::Rising);
    let a = *t10.get(n)?;
    let b = t90.into_iter().find(|&t| t >= a)?;
    Some(b - a)
}

/// 90%–10% fall time of the `n`-th high-to-low transition.
pub fn fall_time(trace: &[(f64, f64)], low: f64, high: f64, n: usize) -> Option<f64> {
    let swing = high - low;
    let t90 = crossings(trace, low + 0.9 * swing, Edge::Falling);
    let t10 = crossings(trace, low + 0.1 * swing, Edge::Falling);
    let a = *t90.get(n)?;
    let b = t10.into_iter().find(|&t| t >= a)?;
    Some(b - a)
}

/// Oscillation period estimated from the mean spacing of the last `cycles`
/// rising crossings of `threshold` (skips the startup transient).
pub fn period(trace: &[(f64, f64)], threshold: f64, cycles: usize) -> Option<f64> {
    let rising = crossings(trace, threshold, Edge::Rising);
    if rising.len() < cycles + 1 || cycles == 0 {
        return None;
    }
    let tail = &rising[rising.len() - cycles - 1..];
    Some((tail[cycles] - tail[0]) / cycles as f64)
}

/// Time-weighted average of the trace over `[t0, t1]` (trapezoidal).
pub fn average(trace: &[(f64, f64)], t0: f64, t1: f64) -> Option<f64> {
    let integral = integrate(trace, t0, t1)?;
    Some(integral / (t1 - t0))
}

/// Time-weighted RMS of the trace over `[t0, t1]`.
pub fn rms(trace: &[(f64, f64)], t0: f64, t1: f64) -> Option<f64> {
    let squared: Vec<(f64, f64)> = trace.iter().map(|&(t, v)| (t, v * v)).collect();
    let integral = integrate(&squared, t0, t1)?;
    Some((integral / (t1 - t0)).sqrt())
}

/// Trapezoidal integral of the trace over `[t0, t1]`; `None` if the window
/// is empty or outside the trace.
pub(crate) fn integrate(trace: &[(f64, f64)], t0: f64, t1: f64) -> Option<f64> {
    if trace.len() < 2 || t1 <= t0 {
        return None;
    }
    if t0 < trace[0].0 - 1e-30 || t1 > trace[trace.len() - 1].0 + 1e-30 {
        return None;
    }
    let sample = |t: f64| -> f64 {
        let k = trace.partition_point(|&(tt, _)| tt <= t);
        if k == 0 {
            return trace[0].1;
        }
        if k >= trace.len() {
            return trace[trace.len() - 1].1;
        }
        let (ta, va) = trace[k - 1];
        let (tb, vb) = trace[k];
        va + (vb - va) * (t - ta) / (tb - ta)
    };
    let mut sum = 0.0;
    let mut prev = (t0, sample(t0));
    for &(t, v) in trace.iter().filter(|&&(t, _)| t > t0 && t < t1) {
        sum += 0.5 * (prev.1 + v) * (t - prev.0);
        prev = (t, v);
    }
    let end = (t1, sample(t1));
    sum += 0.5 * (prev.1 + end.1) * (end.0 - prev.0);
    Some(sum)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp_up_down() -> Vec<(f64, f64)> {
        // 0 -> 1 over [0,1], flat to 2, 1 -> 0 over [2,3].
        vec![(0.0, 0.0), (1.0, 1.0), (2.0, 1.0), (3.0, 0.0)]
    }

    #[test]
    fn crossings_both_directions() {
        let tr = ramp_up_down();
        assert_eq!(crossings(&tr, 0.5, Edge::Rising), vec![0.5]);
        assert_eq!(crossings(&tr, 0.5, Edge::Falling), vec![2.5]);
        assert_eq!(crossings(&tr, 0.5, Edge::Any).len(), 2);
    }

    #[test]
    fn nth_crossing_indexes() {
        let tr: Vec<(f64, f64)> = (0..40)
            .map(|k| {
                let t = k as f64 * 0.25;
                (t, (std::f64::consts::TAU * t / 2.0).sin())
            })
            .collect();
        let c0 = nth_crossing(&tr, 0.0, Edge::Rising, 0);
        let c1 = nth_crossing(&tr, 0.0, Edge::Rising, 1);
        assert!(c1.unwrap() - c0.unwrap() > 1.5, "one period apart");
    }

    #[test]
    fn rise_and_fall_times_of_linear_edges() {
        let tr = ramp_up_down();
        // Linear 0->1 edge over 1 s: 10%-90% spans 0.8 s.
        let r = rise_time(&tr, 0.0, 1.0, 0).unwrap();
        assert!((r - 0.8).abs() < 1e-12, "rise {r}");
        let f = fall_time(&tr, 0.0, 1.0, 0).unwrap();
        assert!((f - 0.8).abs() < 1e-12, "fall {f}");
    }

    #[test]
    fn delay_between_traces() {
        let a = vec![(0.0, 0.0), (1.0, 1.0), (4.0, 1.0)];
        let b = vec![(0.0, 0.0), (2.0, 0.0), (3.0, 1.0), (4.0, 1.0)];
        let d = delay(&a, 0.5, Edge::Rising, &b, 0.5, Edge::Rising, 0).unwrap();
        assert!((d - 2.0).abs() < 1e-12, "delay {d}");
    }

    #[test]
    fn period_of_sine() {
        let f = 3.0;
        let tr: Vec<(f64, f64)> = (0..2000)
            .map(|k| {
                let t = k as f64 * 0.001;
                (t, (std::f64::consts::TAU * f * t).sin())
            })
            .collect();
        let p = period(&tr, 0.0, 3).unwrap();
        assert!((p - 1.0 / f).abs() < 1e-3, "period {p}");
    }

    #[test]
    fn average_and_rms_of_constant() {
        let tr = vec![(0.0, 2.0), (5.0, 2.0)];
        assert!((average(&tr, 1.0, 4.0).unwrap() - 2.0).abs() < 1e-12);
        assert!((rms(&tr, 1.0, 4.0).unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn rms_of_sine_is_amplitude_over_sqrt2() {
        let tr: Vec<(f64, f64)> = (0..=10000)
            .map(|k| {
                let t = k as f64 * 1e-4;
                (t, 3.0 * (std::f64::consts::TAU * 10.0 * t).sin())
            })
            .collect();
        let r = rms(&tr, 0.0, 1.0).unwrap();
        assert!((r - 3.0 / std::f64::consts::SQRT_2).abs() < 1e-3, "rms {r}");
    }

    #[test]
    fn integrate_rejects_bad_windows() {
        let tr = ramp_up_down();
        assert!(integrate(&tr, 2.0, 1.0).is_none());
        assert!(integrate(&tr, -1.0, 2.0).is_none());
        assert!(integrate(&tr, 0.0, 9.0).is_none());
    }

    #[test]
    fn integrate_of_triangle() {
        // Area of the up-flat-down trapezoid: 0.5 + 1 + 0.5 = 2.
        let tr = ramp_up_down();
        let a = integrate(&tr, 0.0, 3.0).unwrap();
        assert!((a - 2.0).abs() < 1e-12, "area {a}");
    }
}
