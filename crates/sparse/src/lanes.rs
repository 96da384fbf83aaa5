//! Lane-packed numeric LU: refactor/solve up to [`MAX_LANES`] independent
//! matrices that share one symbolic factorization in a single sweep.
//!
//! **No caller in the program.** The batch tier described below is deleted;
//! this module is compiled only because `benchmark/src/layers.rs` times it
//! (`lanes.*`), and goes with ROADMAP's benchmark-only follow-up.
//!
//! The batch engine runs many transient instances whose MNA matrices share
//! the same pattern and (usually) the same frozen pivot sequence. A
//! [`LanePackedLu`] stores the factor *values* of up to `K` such instances
//! lane-interleaved (`vals[idx * K + lane]`), so one pass over the shared
//! index structure (`l_rows`, `u_rows`, column pointers, permutations)
//! refactors or solves all lanes at once. Index loads, pointer chasing, and
//! loop control are amortized across lanes; the per-lane floating-point work
//! is **exactly** the scalar sequence of [`SparseLu::refactor`] and
//! [`SparseLu::solve_with_scratch`]:
//!
//! * each lane performs the same adds/mults/divides on the same operands in
//!   the same order (IEEE-754 ops are deterministic; nothing is reassociated
//!   and no FMA contraction is introduced), and
//! * value-dependent branches (`if x != 0.0` sparsity skips, pivot-degradation
//!   checks) are evaluated **per lane**, so a lane's op sequence never depends
//!   on its neighbours.
//!
//! Consequently every lane's factor values and solve results are bit-equal to
//! what a private [`SparseLu`] would have produced — the property the batch
//! engine's bit-identity invariant rests on.
//!
//! Lanes join by *adopting* a scalar factorization whose structure (ordering,
//! pivot sequence, elimination pattern) matches the pack; lanes whose pivot
//! search diverged simply don't adopt and stay on the scalar path. Per-lane
//! failures (non-finite entries, degraded pivots) deactivate only that lane
//! for the remainder of the sweep and are reported per lane.

use crate::csc::CscMatrix;
use crate::error::SparseError;
use crate::lu::SparseLu;
use crate::ordering::Permutation;

/// Maximum number of lanes a [`LanePackedLu`] can hold.
pub(crate) const MAX_LANES: usize = 4;

/// Numeric LU factors for up to four same-structure matrices, stored
/// lane-interleaved: lane `l` of factor entry `idx` lives at
/// `vals[idx * k + l]`, and each lane replays the exact scalar operation
/// sequence of [`SparseLu::refactor`] / [`SparseLu::solve`].
#[derive(Debug, Clone)]
pub struct LanePackedLu {
    k: usize,
    n: usize,
    pivot_floor: f64,
    q: Permutation,
    p: Vec<usize>,
    pinv: Vec<usize>,
    l_colptr: Vec<usize>,
    l_rows: Vec<usize>,
    u_colptr: Vec<usize>,
    u_rows: Vec<usize>,
    a_nnz: usize,
    /// `L` values, `[idx * k + lane]`.
    l_vals: Vec<f64>,
    /// `U` (strict upper) values, `[idx * k + lane]`.
    u_vals: Vec<f64>,
    /// Pivots, `[col * k + lane]`.
    u_diag: Vec<f64>,
    /// Dense per-column workspace for refactor, `[row * k + lane]`; kept
    /// all-zero between calls (mirroring the scalar gather/zero discipline).
    x: Vec<f64>,
    /// Solve scratch, `[pos * k + lane]`; fully overwritten each solve.
    y: Vec<f64>,
    present: [bool; MAX_LANES],
}

/// One lane's solve request for [`LanePackedLu::solve_lanes`].
pub struct LaneSolve<'a> {
    /// Right-hand side, length the matrix dimension.
    pub b: &'a [f64],
    /// Solution output, length the matrix dimension.
    pub x: &'a mut [f64],
}

impl LanePackedLu {
    /// Creates an empty pack of `k` lanes (`1..=MAX_LANES`) whose structure
    /// (ordering, pivot order, elimination pattern) is copied from `seed`.
    /// No lane holds values yet; use [`LanePackedLu::adopt`].
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `k > MAX_LANES`.
    pub fn from_structure(k: usize, seed: &SparseLu) -> Self {
        assert!((1..=MAX_LANES).contains(&k), "lane count {k} outside 1..={MAX_LANES}");
        let plan = &*seed.plan;
        let n = plan.n;
        LanePackedLu {
            k,
            n,
            pivot_floor: seed.opts.pivot_floor,
            q: plan.q.clone(),
            p: plan.p.clone(),
            pinv: plan.pinv.clone(),
            l_colptr: plan.l_colptr.clone(),
            // The lane kernels index their workspace by ORIGINAL row id;
            // `SparseLu` stores pivot positions.
            l_rows: plan.l_rows.iter().map(|&t| plan.p[t as usize]).collect(),
            u_colptr: plan.u_colptr.clone(),
            u_rows: plan.u_rows.iter().map(|&t| t as usize).collect(),
            a_nnz: seed.a_nnz(),
            l_vals: vec![0.0; plan.l_rows.len() * k],
            u_vals: vec![0.0; plan.u_rows.len() * k],
            u_diag: vec![0.0; n * k],
            x: vec![0.0; n * k],
            y: vec![0.0; n * k],
            present: [false; MAX_LANES],
        }
    }

    /// True when `lu` has the same symbolic structure (dimension, ordering,
    /// pivot sequence, elimination pattern, pattern nnz, and pivot floor) as
    /// this pack, i.e. its numeric values can live in a lane.
    pub(crate) fn structure_matches(&self, lu: &SparseLu) -> bool {
        let plan = &*lu.plan;
        plan.n == self.n
            && lu.a_nnz() == self.a_nnz
            && lu.opts.pivot_floor == self.pivot_floor
            && plan.q.perm() == self.q.perm()
            && plan.p == self.p
            && plan.pinv == self.pinv
            && plan.l_colptr == self.l_colptr
            && plan.l_rows.iter().map(|&t| plan.p[t as usize]).eq(self.l_rows.iter().copied())
            && plan.u_colptr == self.u_colptr
            && plan.u_rows.iter().map(|&t| t as usize).eq(self.u_rows.iter().copied())
    }

    /// Copies `lu`'s numeric values into `lane`. Returns `false` (without
    /// touching the pack) when the structure does not match.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is not below the lane count.
    pub fn adopt(&mut self, lane: usize, lu: &SparseLu) -> bool {
        assert!(lane < self.k);
        if !self.structure_matches(lu) {
            return false;
        }
        let k = self.k;
        for (i, &v) in lu.vals.l_vals.iter().enumerate() {
            self.l_vals[i * k + lane] = v;
        }
        for (i, &v) in lu.vals.u_vals.iter().enumerate() {
            self.u_vals[i * k + lane] = v;
        }
        for (i, &v) in lu.vals.u_diag.iter().enumerate() {
            self.u_diag[i * k + lane] = v;
        }
        self.present[lane] = true;
        true
    }

    /// Numeric refactorization of every requested lane in one sweep over the
    /// shared structure, mirroring [`SparseLu::refactor`] per lane.
    ///
    /// `mats[l] = Some(a)` requests lane `l` (must be present); `None` skips
    /// it. Per-lane failures are reported in `errs[l]` exactly as the scalar
    /// path would have returned them ([`SparseError::NotFinite`] /
    /// [`SparseError::PivotDegraded`] / [`SparseError::DimensionMismatch`]);
    /// a failed lane is deactivated for the rest of the sweep, its factors
    /// are evicted, and its workspace column is re-zeroed, leaving the other
    /// lanes untouched.
    ///
    /// # Panics
    ///
    /// Panics if `mats.len()` or `errs.len()` differs from the lane count.
    // The `for l in 0..k` inner loops below are the lane kernels: lock-step
    // indexed traversal of several `idx * k + l`-interleaved arrays at once.
    // Iterator chains would hide that structure from both the reader and the
    // autovectorizer.
    #[allow(clippy::needless_range_loop)]
    pub fn refactor_lanes(
        &mut self,
        mats: &[Option<&CscMatrix>],
        errs: &mut [Option<SparseError>],
    ) {
        let k = self.k;
        let n = self.n;
        assert_eq!(mats.len(), k);
        assert_eq!(errs.len(), k);
        let mut active = [false; MAX_LANES];
        let mut failed = [false; MAX_LANES];
        for l in 0..k {
            errs[l] = None;
            if let Some(a) = mats[l] {
                debug_assert!(self.present[l], "refactor requested for an empty lane");
                if a.nrows() != n || a.ncols() != n {
                    errs[l] =
                        Some(SparseError::DimensionMismatch { expected: n, found: a.nrows() });
                } else if a.nnz() != self.a_nnz {
                    errs[l] = Some(SparseError::DimensionMismatch {
                        expected: self.a_nnz,
                        found: a.nnz(),
                    });
                } else {
                    active[l] = true;
                }
                if errs[l].is_some() {
                    failed[l] = true;
                }
            }
        }
        let mut xs = [0.0f64; MAX_LANES];
        let mut pivots = [0.0f64; MAX_LANES];
        for kk in 0..n {
            let j = self.q.perm()[kk];
            let (us, ue) = (self.u_colptr[kk], self.u_colptr[kk + 1]);
            let (ls, le) = (self.l_colptr[kk], self.l_colptr[kk + 1]);

            // Scatter A(:,j) per lane; the workspace columns are clean (the
            // gather loops below re-zero everything they touched).
            for l in 0..k {
                if !active[l] {
                    continue;
                }
                let (a_rows, a_vals) = mats[l].expect("active lane has a matrix").col(j);
                let mut bad = false;
                for (&r, &v) in a_rows.iter().zip(a_vals) {
                    if !v.is_finite() {
                        errs[l] = Some(SparseError::NotFinite {
                            context: "matrix entry during refactorization",
                        });
                        bad = true;
                        break;
                    }
                    self.x[r * k + l] = v;
                }
                if bad {
                    // Mirrors the scalar early return (which abandons its
                    // workspace mid-column): deactivate, clean up at the end.
                    active[l] = false;
                    failed[l] = true;
                }
            }
            // Replay the recorded update sequence. Per lane this is exactly
            // the scalar loop: read x at the pivot row, store into U, and —
            // only when that lane's value is nonzero — apply the column
            // update. The `xs` staging keeps each lane's value across the
            // shared inner loop without changing its op order.
            for up in us..ue {
                let t = self.u_rows[up];
                let pt = self.p[t] * k;
                let mut any = false;
                for l in 0..k {
                    if active[l] {
                        let xr = self.x[pt + l];
                        self.u_vals[up * k + l] = xr;
                        xs[l] = xr;
                        any |= xr != 0.0;
                    } else {
                        xs[l] = 0.0;
                    }
                }
                if any {
                    for pp in self.l_colptr[t]..self.l_colptr[t + 1] {
                        let r = self.l_rows[pp] * k;
                        let lv = pp * k;
                        for l in 0..k {
                            let xr = xs[l];
                            if xr != 0.0 {
                                self.x[r + l] -= self.l_vals[lv + l] * xr;
                            }
                        }
                    }
                }
            }
            let piv_row = self.p[kk];
            for l in 0..k {
                if !active[l] {
                    continue;
                }
                let pivot = self.x[piv_row * k + l];
                // Degradation check, same fold order as the scalar path.
                let mut col_max = pivot.abs();
                for up in us..ue {
                    col_max = col_max.max(self.u_vals[up * k + l].abs());
                }
                for lp in ls..le {
                    col_max = col_max.max(self.x[self.l_rows[lp] * k + l].abs());
                }
                if pivot.abs() < self.pivot_floor || pivot.abs() < 1e-10 * col_max {
                    errs[l] =
                        Some(SparseError::PivotDegraded { column: kk, magnitude: pivot.abs() });
                    active[l] = false;
                    failed[l] = true;
                    continue;
                }
                self.u_diag[kk * k + l] = pivot;
                pivots[l] = pivot;
            }
            // Gather (and zero) the L part, then zero the U part and pivot.
            for lp in ls..le {
                let r = self.l_rows[lp] * k;
                let lv = lp * k;
                for l in 0..k {
                    if active[l] {
                        self.l_vals[lv + l] = self.x[r + l] / pivots[l];
                        self.x[r + l] = 0.0;
                    }
                }
            }
            for up in us..ue {
                let pr = self.p[self.u_rows[up]] * k;
                for l in 0..k {
                    if active[l] {
                        self.x[pr + l] = 0.0;
                    }
                }
            }
            for l in 0..k {
                if active[l] {
                    self.x[piv_row * k + l] = 0.0;
                }
            }
        }
        // Failed lanes abandoned their workspace column mid-sweep; scrub it
        // so the pack is clean for the survivors' next refactor, and evict
        // their (now partially overwritten) factors.
        for l in 0..k {
            if failed[l] {
                for row in 0..n {
                    self.x[row * k + l] = 0.0;
                }
                self.present[l] = false;
            }
        }
    }

    /// Triangular solves for every requested lane in one sweep, mirroring
    /// [`SparseLu::solve_with_scratch`] per lane. `reqs[l] = Some(..)`
    /// solves lane `l` (which must be present and factored).
    ///
    /// # Panics
    ///
    /// Panics if `reqs.len()` differs from the lane count, if a requested
    /// lane is not present, or if a buffer length differs from the matrix
    /// dimension.
    // Same lane-kernel shape as `refactor_lanes` — see the note there.
    #[allow(clippy::needless_range_loop)]
    pub fn solve_lanes(&mut self, reqs: &mut [Option<LaneSolve<'_>>]) {
        let k = self.k;
        let n = self.n;
        assert_eq!(reqs.len(), k);
        let mut active = [false; MAX_LANES];
        for (l, req) in reqs.iter().enumerate() {
            if let Some(r) = req {
                assert!(self.present[l], "solve requested for an empty lane");
                assert_eq!(r.b.len(), n);
                assert_eq!(r.x.len(), n);
                active[l] = true;
            }
        }
        // Forward solve L y = P b (unit diagonal), in pivot coordinates.
        for kk in 0..n {
            let pk = self.p[kk];
            for l in 0..k {
                if active[l] {
                    self.y[kk * k + l] = reqs[l].as_ref().expect("active lane").b[pk];
                }
            }
        }
        let mut yks = [0.0f64; MAX_LANES];
        for kk in 0..n {
            let mut any = false;
            for l in 0..k {
                let yk = if active[l] { self.y[kk * k + l] } else { 0.0 };
                yks[l] = yk;
                any |= yk != 0.0;
            }
            if any {
                for pp in self.l_colptr[kk]..self.l_colptr[kk + 1] {
                    let t = self.pinv[self.l_rows[pp]] * k;
                    let lv = pp * k;
                    for l in 0..k {
                        let yk = yks[l];
                        if yk != 0.0 {
                            self.y[t + l] -= self.l_vals[lv + l] * yk;
                        }
                    }
                }
            }
        }
        // Backward solve U w = y (columns right-to-left).
        for kk in (0..n).rev() {
            let mut any = false;
            for l in 0..k {
                if active[l] {
                    let wk = self.y[kk * k + l] / self.u_diag[kk * k + l];
                    self.y[kk * k + l] = wk;
                    yks[l] = wk;
                    any |= wk != 0.0;
                } else {
                    yks[l] = 0.0;
                }
            }
            if any {
                for up in self.u_colptr[kk]..self.u_colptr[kk + 1] {
                    let t = self.u_rows[up] * k;
                    let uv = up * k;
                    for l in 0..k {
                        let wk = yks[l];
                        if wk != 0.0 {
                            self.y[t + l] -= self.u_vals[uv + l] * wk;
                        }
                    }
                }
            }
        }
        // Undo the column permutation: x[q[k]] = w[k].
        for kk in 0..n {
            let qk = self.q.perm()[kk];
            for l in 0..k {
                if active[l] {
                    reqs[l].as_mut().expect("active lane").x[qk] = self.y[kk * k + l];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;
    use crate::lu::LuOptions;

    /// Small asymmetric test matrix with lane-dependent values on a shared
    /// pattern.
    fn matrix(scale: f64) -> CscMatrix {
        let mut t = CooMatrix::new(4, 4);
        let entries = [
            (0, 0, 4.0),
            (0, 1, -1.0),
            (1, 0, -1.3),
            (1, 1, 3.0),
            (1, 2, -0.5),
            (2, 1, -0.7),
            (2, 2, 5.0),
            (2, 3, -1.1),
            (3, 2, -0.2),
            (3, 3, 2.0),
        ];
        for (r, c, v) in entries {
            t.push(r, c, v * scale).unwrap();
        }
        t.to_csc()
    }

    #[test]
    fn packed_refactor_and_solve_are_bit_identical_to_scalar() {
        let opts = LuOptions::default();
        let base = matrix(1.0);
        let seed = SparseLu::factor(&base, &opts).unwrap();
        for k in [1usize, 2, 4] {
            let mut pack = LanePackedLu::from_structure(k, &seed);
            let scales: Vec<f64> = (0..k).map(|l| 1.0 + 0.37 * l as f64).collect();
            let mats: Vec<CscMatrix> = scales.iter().map(|&s| matrix(s)).collect();
            let mut scalars: Vec<SparseLu> = Vec::new();
            for (l, m) in mats.iter().enumerate() {
                let mut lu = seed.clone();
                lu.refactor(m).unwrap();
                assert!(pack.adopt(l, &seed), "structure must match its own seed");
                scalars.push(lu);
            }
            // Packed refactor vs scalar refactor.
            let mat_refs: Vec<Option<&CscMatrix>> = mats.iter().map(Some).collect();
            let mut errs: Vec<Option<SparseError>> = vec![None; k];
            pack.refactor_lanes(&mat_refs, &mut errs);
            assert!(errs.iter().all(Option::is_none), "{errs:?}");
            // Packed solve vs scalar solve, bit for bit.
            let b: Vec<f64> = (0..4).map(|i| 0.3 + i as f64).collect();
            let mut outs = vec![vec![0.0f64; 4]; k];
            {
                let mut reqs: Vec<Option<LaneSolve<'_>>> =
                    outs.iter_mut().map(|x| Some(LaneSolve { b: &b, x })).collect();
                pack.solve_lanes(&mut reqs);
            }
            for (l, lu) in scalars.iter().enumerate() {
                let want = lu.solve(&b).unwrap();
                for (a, w) in outs[l].iter().zip(&want) {
                    assert_eq!(a.to_bits(), w.to_bits(), "lane {l} of {k} diverged");
                }
            }
        }
    }

    #[test]
    fn failed_lane_is_deactivated_and_survivors_stay_exact() {
        let opts = LuOptions::default();
        let base = matrix(1.0);
        let seed = SparseLu::factor(&base, &opts).unwrap();
        let mut pack = LanePackedLu::from_structure(2, &seed);
        assert!(pack.adopt(0, &seed));
        assert!(pack.adopt(1, &seed));
        let good = matrix(2.0);
        let mut bad = matrix(1.0);
        bad.values_mut()[0] = f64::NAN;
        let mut errs: Vec<Option<SparseError>> = vec![None; 2];
        pack.refactor_lanes(&[Some(&good), Some(&bad)], &mut errs);
        assert!(errs[0].is_none());
        assert!(matches!(errs[1], Some(SparseError::NotFinite { .. })));
        assert!(pack.present[0]);
        assert!(!pack.present[1]);
        // Survivor solves bit-identically to a scalar refactor of the same
        // matrix, and a fresh refactor after the failure still works (the
        // failed lane's workspace was scrubbed).
        let mut lu = seed.clone();
        lu.refactor(&good).unwrap();
        let b = [1.0, -2.0, 0.5, 3.0];
        let mut x0 = vec![0.0f64; 4];
        {
            let mut reqs = vec![Some(LaneSolve { b: &b, x: &mut x0 }), None];
            pack.solve_lanes(&mut reqs);
        }
        let want = lu.solve(&b).unwrap();
        for (a, w) in x0.iter().zip(&want) {
            assert_eq!(a.to_bits(), w.to_bits());
        }
        let good2 = matrix(3.0);
        pack.refactor_lanes(&[Some(&good2), None], &mut errs);
        assert!(errs[0].is_none());
        let mut lu2 = seed.clone();
        lu2.refactor(&good2).unwrap();
        let mut x2 = vec![0.0f64; 4];
        {
            let mut reqs = vec![Some(LaneSolve { b: &b, x: &mut x2 }), None];
            pack.solve_lanes(&mut reqs);
        }
        let want2 = lu2.solve(&b).unwrap();
        for (a, w) in x2.iter().zip(&want2) {
            assert_eq!(a.to_bits(), w.to_bits());
        }
    }

    #[test]
    fn adopt_rejects_mismatched_structure() {
        let opts = LuOptions::default();
        let seed = SparseLu::factor(&matrix(1.0), &opts).unwrap();
        let mut other_t = CooMatrix::new(4, 4);
        for i in 0..4 {
            other_t.push(i, i, 2.0).unwrap();
        }
        let other = SparseLu::factor(&other_t.to_csc(), &opts).unwrap();
        let mut pack = LanePackedLu::from_structure(2, &seed);
        assert!(!pack.adopt(0, &other));
        assert!(!pack.present[0]);
    }
}
