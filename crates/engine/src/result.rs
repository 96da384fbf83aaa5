//! Transient simulation results: waveform storage, probing, and comparison.

use crate::stats::SimStats;

/// The recorded outcome of a transient analysis: every accepted time point
/// with its full solution vector, plus run statistics.
///
/// Storage is row-major (`n_points x n_unknowns`) in blocks of a power-of-two
/// number of rows, with node names carried along so results are
/// self-describing. A block is allocated whole and filled in place, so a
/// stored row never moves: growing the waveform by reallocating one flat
/// array stranded 0.4–0.5 MiB of a run's peak memory on the 1,032-unknown
/// grid (EXPERIMENTS.md E22).
#[derive(Debug, Clone)]
pub struct TransientResult {
    times: Vec<f64>,
    /// Row `k` is row `k & (2^block_shift - 1)` of block `k >> block_shift`.
    blocks: Vec<Vec<f64>>,
    block_shift: u32,
    n_unknowns: usize,
    node_names: Vec<String>,
    branch_names: Vec<(String, usize)>,
    stats: SimStats,
}

/// Samples a block holds at most (64 KiB of them), unless one row is longer.
const BLOCK_SAMPLES: usize = 8192;

impl TransientResult {
    /// Creates an empty result for a system with the given unknown layout.
    pub fn new(n_unknowns: usize, node_names: Vec<String>) -> Self {
        TransientResult {
            times: Vec::new(),
            blocks: Vec::new(),
            block_shift: (BLOCK_SAMPLES / n_unknowns.max(1)).max(1).ilog2(),
            n_unknowns,
            node_names,
            branch_names: Vec::new(),
            stats: SimStats::new(),
        }
    }

    /// Attaches the branch-current name map (element name -> unknown index)
    /// so currents are addressable by element name.
    pub(crate) fn set_branch_names(&mut self, branch_names: Vec<(String, usize)>) {
        self.branch_names = branch_names;
    }

    /// Unknown index of the branch current of a named element (voltage
    /// source, inductor, or VCVS), if present.
    pub fn branch_of(&self, element_name: &str) -> Option<usize> {
        self.branch_names
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(element_name))
            .map(|&(_, u)| u)
    }

    /// Where row `k` sits within its block, `blocks[k >> block_shift]`.
    fn row_in_block(&self, k: usize) -> usize {
        k & ((1 << self.block_shift) - 1)
    }

    /// Appends an accepted point.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the unknown count, or `t` does not
    /// increase.
    pub fn push(&mut self, t: f64, x: &[f64]) {
        assert_eq!(x.len(), self.n_unknowns);
        if let Some(&last) = self.times.last() {
            assert!(t > last, "time must increase: {t} after {last}");
        }
        if self.row_in_block(self.times.len()) == 0 {
            self.blocks.push(Vec::with_capacity(self.n_unknowns << self.block_shift));
        }
        self.times.push(t);
        self.blocks.last_mut().expect("a block was pushed for row 0").extend_from_slice(x);
    }

    /// Replaces the run statistics.
    pub(crate) fn set_stats(&mut self, stats: SimStats) {
        self.stats = stats;
    }

    /// Run statistics.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Number of stored time points.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// `true` if no points are stored.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Number of unknowns per point.
    pub fn n_unknowns(&self) -> usize {
        self.n_unknowns
    }

    /// Number of node-voltage unknowns (indices `0..node_count()`); the
    /// remaining unknowns are branch currents.
    pub fn node_count(&self) -> usize {
        self.node_names.len()
    }

    /// The accepted time points.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Full solution vector at point `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn solution(&self, k: usize) -> &[f64] {
        let row = self.row_in_block(k);
        &self.blocks[k >> self.block_shift][row * self.n_unknowns..(row + 1) * self.n_unknowns]
    }

    /// Unknown index of a node name, if present.
    pub fn unknown_of(&self, node_name: &str) -> Option<usize> {
        self.node_names.iter().position(|n| n == node_name)
    }

    /// Step sizes between consecutive accepted points.
    pub fn step_sizes(&self) -> Vec<f64> {
        self.times.windows(2).map(|w| w[1] - w[0]).collect()
    }

    /// The `(time, value)` trace of one unknown.
    ///
    /// # Panics
    ///
    /// Panics if `unknown` is out of range.
    pub fn trace(&self, unknown: usize) -> Vec<(f64, f64)> {
        assert!(unknown < self.n_unknowns);
        self.times.iter().enumerate().map(|(k, &t)| (t, self.solution(k)[unknown])).collect()
    }

    /// Linearly interpolated value of an unknown at time `t` (clamped to the
    /// stored range).
    ///
    /// # Panics
    ///
    /// Panics if the result is empty or `unknown` out of range.
    pub fn sample(&self, unknown: usize, t: f64) -> f64 {
        assert!(!self.is_empty());
        assert!(unknown < self.n_unknowns);
        let at = |k: usize| self.solution(k)[unknown];
        if t <= self.times[0] {
            return at(0);
        }
        let last = self.times.len() - 1;
        if t >= self.times[last] {
            return at(last);
        }
        let k = self.times.partition_point(|&tt| tt <= t);
        let (t0, t1) = (self.times[k - 1], self.times[k]);
        let (v0, v1) = (at(k - 1), at(k));
        v0 + (v1 - v0) * (t - t0) / (t1 - t0)
    }

    /// Maximum absolute deviation of one unknown between two results,
    /// evaluated on the union of both time grids (linear interpolation).
    ///
    /// # Panics
    ///
    /// Panics if either result is empty.
    pub fn max_deviation(&self, other: &TransientResult, unknown: usize) -> f64 {
        let mut worst = 0.0_f64;
        for &t in self.times.iter().chain(other.times.iter()) {
            let d = (self.sample(unknown, t) - other.sample(unknown, t)).abs();
            worst = worst.max(d);
        }
        worst
    }

    /// Peak absolute value of one unknown over the run.
    pub fn peak(&self, unknown: usize) -> f64 {
        self.trace(unknown).iter().fold(0.0_f64, |m, &(_, v)| m.max(v.abs()))
    }

    /// Writes the traces of the named unknowns as CSV (`t,name1,name2,...`).
    pub fn to_csv(&self, unknowns: &[(String, usize)]) -> String {
        let mut out = String::from("t");
        for (name, _) in unknowns {
            out.push(',');
            out.push_str(name);
        }
        out.push('\n');
        for (k, &t) in self.times.iter().enumerate() {
            out.push_str(&format!("{t:.6e}"));
            for &(_, u) in unknowns {
                out.push_str(&format!(",{:.6e}", self.solution(k)[u]));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp_result() -> TransientResult {
        let mut r = TransientResult::new(2, vec!["a".into(), "b".into()]);
        for k in 0..=10 {
            let t = k as f64 * 0.1;
            r.push(t, &[t, 2.0 * t]);
        }
        r
    }

    #[test]
    fn push_and_probe() {
        let r = ramp_result();
        assert_eq!(r.len(), 11);
        assert_eq!(r.unknown_of("b"), Some(1));
        assert_eq!(r.solution(5), &[0.5, 1.0]);
    }

    #[test]
    #[should_panic(expected = "time must increase")]
    fn non_monotone_time_rejected() {
        let mut r = TransientResult::new(1, vec!["a".into()]);
        r.push(1.0, &[0.0]);
        r.push(0.5, &[0.0]);
    }

    #[test]
    fn sample_interpolates_and_clamps() {
        let r = ramp_result();
        assert!((r.sample(0, 0.55) - 0.55).abs() < 1e-12);
        assert_eq!(r.sample(0, -1.0), 0.0);
        assert_eq!(r.sample(0, 99.0), 1.0);
    }

    #[test]
    fn deviation_of_identical_is_zero() {
        let r = ramp_result();
        assert_eq!(r.max_deviation(&r.clone(), 0), 0.0);
        assert_eq!(r.max_deviation(&r.clone(), 1), 0.0);
    }

    #[test]
    fn deviation_detects_offset() {
        let a = ramp_result();
        let mut b = TransientResult::new(2, vec!["a".into(), "b".into()]);
        for k in 0..=10 {
            let t = k as f64 * 0.1;
            b.push(t, &[t + 0.25, 2.0 * t]);
        }
        assert!((a.max_deviation(&b, 0) - 0.25).abs() < 1e-12);
        assert_eq!(a.max_deviation(&b, 1), 0.0);
    }

    #[test]
    fn deviation_handles_different_grids() {
        // Same linear waveform sampled on different grids: deviation ~ 0.
        let a = ramp_result();
        let mut b = TransientResult::new(2, vec!["a".into(), "b".into()]);
        for k in 0..=7 {
            let t = k as f64 * 1.0 / 7.0;
            b.push(t, &[t, 2.0 * t]);
        }
        assert!(a.max_deviation(&b, 0) < 1e-12);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let r = ramp_result();
        let csv = r.to_csv(&[("a".into(), 0)]);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "t,a");
        assert_eq!(lines.len(), 12);
    }

    /// Row `k` of the block-boundary results: unknown `u` holds `k + u/n`.
    fn boundary_row(k: usize, n: usize) -> Vec<f64> {
        (0..n).map(|u| k as f64 + u as f64 / n as f64).collect()
    }

    #[test]
    fn every_reader_crosses_block_boundaries() {
        for n in [1usize, 1032] {
            let mut r = TransientResult::new(n, vec!["a".into()]);
            let b = 1usize << r.block_shift;
            assert!(b * n <= BLOCK_SAMPLES && 2 * b * n > BLOCK_SAMPLES, "{b} rows of {n}");
            let (mut first_row, mut moved) = (None, false);
            for k in 0..=2 * b + 1 {
                r.push(k as f64, &boundary_row(k, n));
                let at = r.solution(0).as_ptr();
                moved |= *first_row.get_or_insert(at) != at;
            }
            assert!(!moved, "row 0 moved while the result grew");
            assert_eq!(r.blocks.len(), 3);
            assert!(r.blocks.iter().all(|blk| blk.capacity() == b * n));
            let u = n - 1;
            let csv = r.to_csv(&[("last".into(), u)]);
            let lines: Vec<&str> = csv.lines().skip(1).collect();
            let trace = r.trace(u);
            assert_eq!((lines.len(), trace.len()), (r.len(), r.len()));
            for k in [0, b - 1, b, b + 1, 2 * b - 1, 2 * b, 2 * b + 1] {
                let want = boundary_row(k, n);
                assert_eq!(r.solution(k), &want[..], "row {k} of {n}");
                assert_eq!(trace[k], (k as f64, want[u]));
                assert_eq!(r.sample(u, k as f64), want[u]);
                assert_eq!(lines[k], format!("{:.6e},{:.6e}", k as f64, want[u]));
            }
            // Halfway from the last row of one block to the first of the next.
            let mid = r.sample(u, b as f64 - 0.5);
            assert_eq!(mid, (boundary_row(b - 1, n)[u] + boundary_row(b, n)[u]) / 2.0);
            assert_eq!(r.clone().solution(b + 1), r.solution(b + 1));
        }
    }

    #[test]
    fn step_sizes_and_peak() {
        let r = ramp_result();
        let hs = r.step_sizes();
        assert_eq!(hs.len(), 10);
        assert!((hs[0] - 0.1).abs() < 1e-12);
        assert!((r.peak(1) - 2.0).abs() < 1e-12);
    }
}
