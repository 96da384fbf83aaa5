//! Sparse LU factorization (Gilbert–Peierls, left-looking, threshold partial
//! pivoting) with a KLU-style fast *refactorization* path.
//!
//! The factorization is split the way circuit simulators need it:
//!
//! * [`SparseLu::factor`] — full factorization with pivot search; run once
//!   when the matrix pattern is created (and whenever a pivot degrades).
//! * [`SparseLu::refactor`] — numeric-only refactorization that replays the
//!   recorded pivot sequence and elimination pattern. This is the per-Newton-
//!   iteration hot path: no graph traversal, no pivot search.
//! * [`SparseLu::solve`] / [`SparseLu::solve_with_scratch`] — triangular
//!   solves.
//!
//! # Stored layout
//!
//! Once `factor` has chosen the pivots, everything the numeric kernels index
//! is kept in *pivot coordinates* (row `r` of `A` sits at position `pinv[r]`)
//! as `u32`, so the kernels run over zipped slices with no permutation
//! lookups:
//!
//! * `L` by column, row positions ascending within a column. The order of
//!   rows inside an `L` column enters no refactorization or solve result
//!   (every row of a column is a distinct target).
//! * strict `U` by column, in the elimination (DFS-topological) order the
//!   pivoting factorization found. That order *is* the order in which every
//!   factor entry receives its updates, so it is never re-sorted.
//! * a scatter map from each stored entry of `A` (CSC order) to its pivot
//!   position, with `A`'s column pointers to validate the pattern against.
//! * a chain plan over `U`'s stored entries: consecutive entries `t1, t2, ..`
//!   of one `U` column form a chain while the sorted `L(ti)` is `[ti+1]`
//!   followed by `L(ti+1)` (a supernode, met in elimination order). A chain's
//!   common rows are updated in one pass, up to four source columns per row
//!   visit and in stored order, so each workspace entry still receives the
//!   same products in the same sequence as one column at a time.
//!
//! Every kernel applies a source column (or a block of them) to its target
//! rows through one function, `update_rows`, which takes the targets four at
//! a time through a local array; the order of subtractions per target is
//! that of the plain loop.
//! * the dense refactorization workspace, all-zero between calls.
//!
//! # Plan and numeric sets
//!
//! What `factor` decides — ordering, pivot sequence, the index arrays of `L`
//! and `U`, the chain plan, the scatter map — is the *plan*: immutable once
//! built, held behind an `Arc`. What `refactor` writes — the values of `L`,
//! strict `U` and the pivots — is a *numeric set*. A clone shares the plan
//! and copies only values; a fresh `factor` builds a new plan. One factor
//! object may hold further, *parked* numeric sets over the same plan, in
//! numbered slots ([`SparseLu::swap_parked`]): `refactor` and the solves work
//! on the active set, a parked one keeps the factors of another matrix of the
//! same pattern until it trades places with the active one. `refactor` is a
//! pure function of the plan and the matrix (every value it reads it has
//! written earlier in the same pass), so which set it lands in changes no
//! bit. How many slots are used, and which factors are worth keeping in
//! them, is the caller's rule; this module only stores them.
//!
//! # Adopting another owner's plan
//!
//! A plan can be handed to another owner ([`SparseLu::shared_plan`], an
//! opaque [`SharedPlan`]) who adopts it ([`SparseLu::adopt`]) instead of
//! pivoting its own first matrix. The adopter's first `refactor` then checks,
//! column by column and before it gathers the column, that `factor` would
//! have chosen exactly the plan's pivot from the candidates it holds: the
//! diagonal when it is nonzero and at least `pivot_threshold` times the
//! largest candidate, else the unique largest candidate. An exact tie for the
//! largest magnitude, where `factor` would take whichever its search met
//! first, fails the check, as does any other mismatch; a failed check returns
//! [`SparseError::PivotDegraded`], which a caller already answers with a
//! fresh `factor`. A check that passes at every column means `factor` of the
//! same matrix under the plan's ordering would have rebuilt this plan, index
//! for index, and computed every value by the same operations in the same
//! order, so the adopter's factors are those of the `factor` it skipped, bit
//! for bit (the unit tests compare `L`, `U` and the pivots by `to_bits`). The
//! one operation the two do not share is a zero multiplier, which `factor`
//! applies and `refactor` skips; that can only flip the sign of a zero
//! target that is already negative, and only a `-0.0` stored in the matrix
//! starts one, so a matrix holding one fails the check as well.

use crate::csc::CscMatrix;
use crate::error::{Result, SparseError};
use crate::ordering::{min_degree, Permutation};
use std::sync::Arc;

/// Options controlling the sparse LU factorization.
#[derive(Debug, Clone, PartialEq)]
pub struct LuOptions {
    /// Threshold partial-pivoting parameter `tau` in `(0, 1]`.
    ///
    /// The natural (diagonal) candidate is accepted when its magnitude is at
    /// least `tau` times the largest candidate in the column; otherwise the
    /// largest candidate is chosen. `tau = 1.0` is strict partial pivoting;
    /// smaller values preserve the diagonal (and hence sparsity and pattern
    /// stability across refactorizations). Default `0.1`.
    pub pivot_threshold: f64,
    /// Absolute magnitude below which a pivot is considered numerically zero.
    /// Default `1e-13`.
    pub pivot_floor: f64,
}

impl Default for LuOptions {
    fn default() -> Self {
        LuOptions { pivot_threshold: 0.1, pivot_floor: 1e-13 }
    }
}

/// A computed sparse LU factorization `P * A * Q = L * U`.
///
/// `L` is unit lower triangular (unit diagonal implicit), `U` upper
/// triangular; `P` is the row permutation found by pivoting and `Q` the
/// fill-reducing column permutation chosen up front.
///
/// ```
/// use wavepipe_sparse::{CooMatrix, LuOptions, SparseLu, SparseOperator};
///
/// # fn main() -> Result<(), wavepipe_sparse::SparseError> {
/// let mut t = CooMatrix::new(2, 2);
/// t.push(0, 0, 4.0)?;
/// t.push(0, 1, 1.0)?;
/// t.push(1, 0, 1.0)?;
/// t.push(1, 1, 3.0)?;
/// let a = t.to_csc();
/// let lu = SparseLu::factor(&a, &LuOptions::default())?;
/// let x = lu.solve(&[1.0, 2.0])?;
/// let mut b = vec![0.0; 2];
/// a.apply(&x, &mut b)?;
/// assert!((b[0] - 1.0).abs() < 1e-12 && (b[1] - 2.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SparseLu {
    pub(crate) opts: LuOptions,
    pub(crate) plan: Arc<LuPlan>,
    /// The active numeric set: what `refactor` writes and the solves read.
    pub(crate) vals: LuValues,
    /// The parked numeric sets by slot, each allocated by the first
    /// [`SparseLu::swap_parked`] that names it.
    parked: Vec<LuValues>,
    /// Dense refactorization workspace in pivot coordinates; every kernel
    /// that writes it leaves it all-zero, error returns included.
    work: Vec<f64>,
    /// The plan was adopted ([`SparseLu::adopt`]) and no `refactor` over it
    /// has passed the pivot check yet.
    unchecked: bool,
}

/// A factorization's plan as another owner adopts it ([`SparseLu::adopt`]):
/// opaque, and a clone is one more reference to the same plan.
#[derive(Debug, Clone)]
pub struct SharedPlan(Arc<LuPlan>);

impl SharedPlan {
    /// The fill-reducing column ordering the plan was factored under.
    pub fn ordering(&self) -> &Permutation {
        &self.0.q
    }
}

/// The symbolic half of a factorization (see the [module docs](self)): what
/// the pivoting `factor` chose, read-only to every numeric kernel.
#[derive(Debug)]
pub(crate) struct LuPlan {
    pub(crate) n: usize,
    /// Column permutation (fill ordering), new-to-old.
    pub(crate) q: Permutation,
    /// Pivot-position -> original-row.
    pub(crate) p: Vec<usize>,
    /// Original-row -> pivot-position.
    pub(crate) pinv: Vec<usize>,
    // L: unit lower triangular, stored by factorization column; row indices
    // are PIVOT POSITIONS (> column index), ascending within a column.
    pub(crate) l_colptr: Vec<usize>,
    pub(crate) l_rows: Vec<u32>,
    // U: strictly upper part stored by column; row indices are PIVOT
    // POSITIONS (< column index), recorded in elimination (topological)
    // order so refactorization can replay updates directly.
    pub(crate) u_colptr: Vec<usize>,
    pub(crate) u_rows: Vec<u32>,
    /// Chain plan, per stored U entry: how many entries of its chain are left
    /// from this one on (saturating, so a lower bound). `u_run[up] > 1` means
    /// the sorted `L(u_rows[up])` is `[u_rows[up + 1]]` followed by
    /// `L(u_rows[up + 1])`.
    u_run: Vec<u8>,
    /// Multiply-adds of one refactorization: `|L(t)|` summed over the stored
    /// `U` entries `t`, counted by the pass that builds the chain plan.
    madds: u64,
    /// Column pointers of the factored matrix: the pattern `refactor` accepts.
    a_colptr: Vec<usize>,
    /// Pivot position of each stored entry of the factored matrix, CSC order.
    a_pos: Vec<u32>,
}

/// A [`LuPlan`]'s arrays as slices. A numeric kernel takes this once, before
/// its loops, so they index locals and never re-read a `Vec` header through
/// the `Arc` (which the compiler cannot prove a store to the workspace leaves
/// alone).
struct PlanView<'a> {
    n: usize,
    q: &'a [usize],
    p: &'a [usize],
    l_colptr: &'a [usize],
    l_rows: &'a [u32],
    u_colptr: &'a [usize],
    u_rows: &'a [u32],
    u_run: &'a [u8],
    a_colptr: &'a [usize],
    a_pos: &'a [u32],
}

impl LuPlan {
    fn view(&self) -> PlanView<'_> {
        PlanView {
            n: self.n,
            q: self.q.perm(),
            p: &self.p,
            l_colptr: &self.l_colptr,
            l_rows: &self.l_rows,
            u_colptr: &self.u_colptr,
            u_rows: &self.u_rows,
            u_run: &self.u_run,
            a_colptr: &self.a_colptr,
            a_pos: &self.a_pos,
        }
    }
}

/// One numeric set over a [`LuPlan`]: the values parallel to `l_rows` and
/// `u_rows`, and the `U` diagonal (the pivots) by column.
#[derive(Debug, Clone)]
pub(crate) struct LuValues {
    pub(crate) l_vals: Vec<f64>,
    pub(crate) u_vals: Vec<f64>,
    pub(crate) u_diag: Vec<f64>,
}

const UNASSIGNED: usize = usize::MAX;

/// Widest block of chained source columns one row visit applies.
const BLOCK: usize = 4;

/// Targets one register chunk of [`update_rows`] holds. The chunk body is
/// written out for four.
const CHUNK: usize = 4;

/// `x[rows[e]] -= cols[0][e] * xr[0]; .. -= cols[W - 1][e] * xr[W - 1]` for
/// every `e`: the one scatter-update of the numeric kernels. Each target
/// receives its `W` products one rounded subtraction at a time, in order.
///
/// Targets go `CHUNK` at a time: loaded into a local array, updated from the
/// contiguous value slices with the source column outermost, stored back —
/// four independent subtraction chains instead of a load, `W` subtractions
/// and a store that the next target's load has to wait behind. The rows of
/// one `L` or `U` column are distinct, so the targets of a chunk never alias
/// and each still sees exactly the subtractions, in the order, of the
/// one-target-at-a-time loop that takes the remainder (and all of a column
/// shorter than a chunk).
#[inline(always)]
fn update_rows<const W: usize>(x: &mut [f64], rows: &[u32], cols: [&[f64]; W], xr: [f64; W]) {
    let cols = cols.map(|c| &c[..rows.len()]);
    let mut e = 0;
    while e + CHUNK <= rows.len() {
        let r = &rows[e..e + CHUNK];
        let mut v = [x[r[0] as usize], x[r[1] as usize], x[r[2] as usize], x[r[3] as usize]];
        for c in 0..W {
            let l = &cols[c][e..e + CHUNK];
            v = [
                v[0] - l[0] * xr[c],
                v[1] - l[1] * xr[c],
                v[2] - l[2] * xr[c],
                v[3] - l[3] * xr[c],
            ];
        }
        x[r[0] as usize] = v[0];
        x[r[1] as usize] = v[1];
        x[r[2] as usize] = v[2];
        x[r[3] as usize] = v[3];
        e += CHUNK;
    }
    let (rows, cols) = (&rows[e..], cols.map(|c| &c[e..]));
    for (e, &r) in rows.iter().enumerate() {
        let mut v = x[r as usize];
        for c in 0..W {
            v -= cols[c][e] * xr[c];
        }
        x[r as usize] = v;
    }
}

impl SparseLu {
    /// Factors the square matrix `a`, ordering its columns by
    /// [`min_degree`](crate::ordering::min_degree) and choosing the pivot
    /// sequence.
    ///
    /// # Errors
    ///
    /// * [`SparseError::NotSquare`] if `a` is not square.
    /// * [`SparseError::Singular`] if no acceptable pivot exists at some step.
    /// * [`SparseError::NotFinite`] if `a` contains NaN/inf.
    pub fn factor(a: &CscMatrix, opts: &LuOptions) -> Result<Self> {
        if a.nrows() != a.ncols() {
            return Err(SparseError::NotSquare { nrows: a.nrows(), ncols: a.ncols() });
        }
        let q = min_degree(a)?;
        Self::factor_with_ordering(a, opts, q)
    }

    /// Factors `a` using a caller-supplied column permutation.
    ///
    /// # Errors
    ///
    /// Same as [`SparseLu::factor`], plus
    /// [`SparseError::DimensionMismatch`] if `q.len() != a.ncols()` or the
    /// dimension does not fit the `u32` indices of the stored layout.
    pub fn factor_with_ordering(a: &CscMatrix, opts: &LuOptions, q: Permutation) -> Result<Self> {
        if a.nrows() != a.ncols() {
            return Err(SparseError::NotSquare { nrows: a.nrows(), ncols: a.ncols() });
        }
        if q.len() != a.ncols() {
            return Err(SparseError::DimensionMismatch { expected: a.ncols(), found: q.len() });
        }
        let n = a.ncols();
        if u32::try_from(n).is_err() {
            return Err(SparseError::DimensionMismatch { expected: u32::MAX as usize, found: n });
        }
        let mut plan = LuPlan {
            n,
            q,
            p: vec![UNASSIGNED; n],
            pinv: vec![UNASSIGNED; n],
            l_colptr: vec![0; n + 1],
            l_rows: Vec::with_capacity(a.nnz() * 2),
            u_colptr: vec![0; n + 1],
            u_rows: Vec::with_capacity(a.nnz() * 2),
            u_run: Vec::new(),
            madds: 0,
            a_colptr: a.col_ptr().to_vec(),
            a_pos: Vec::new(),
        };
        let mut vals = LuValues {
            l_vals: Vec::with_capacity(a.nnz() * 2),
            u_vals: Vec::with_capacity(a.nnz() * 2),
            u_diag: vec![0.0; n],
        };
        let mut work = vec![0.0; n];
        plan.factor_numeric_with_pivoting(&mut vals, &mut work, opts, a)?;
        plan.store_pivot_layout(&mut vals, &mut work, a);
        Ok(SparseLu {
            opts: opts.clone(),
            plan: Arc::new(plan),
            vals,
            parked: Vec::new(),
            work,
            unchecked: false,
        })
    }

    /// This factorization's plan, for another owner to [`adopt`](Self::adopt).
    pub fn shared_plan(&self) -> SharedPlan {
        SharedPlan(Arc::clone(&self.plan))
    }

    /// A factor object over `plan`, which some other owner's `factor` built,
    /// holding no factors yet. Its first [`refactor`](Self::refactor) checks,
    /// column by column, that `factor`'s threshold pivoting would have chosen
    /// the plan's pivot for that matrix — the diagonal when it is nonzero and
    /// at least `pivot_threshold` times the largest candidate, else the
    /// largest, which must beat every other candidate strictly — and fails
    /// with [`SparseError::PivotDegraded`] where it would not, and on a
    /// matrix holding a `-0.0`. Where the check passes, the factors are those
    /// `factor` of the same matrix under the plan's ordering computes, bit for
    /// bit. Solving before a `refactor` succeeded is meaningless.
    pub fn adopt(plan: &SharedPlan, opts: &LuOptions) -> Self {
        let plan = Arc::clone(&plan.0);
        let vals = LuValues {
            l_vals: vec![0.0; plan.l_rows.len()],
            u_vals: vec![0.0; plan.u_rows.len()],
            u_diag: vec![0.0; plan.n],
        };
        SparseLu {
            opts: opts.clone(),
            work: vec![0.0; plan.n],
            plan,
            vals,
            parked: Vec::new(),
            unchecked: true,
        }
    }
}

impl LuPlan {
    /// Gilbert–Peierls left-looking factorization with pivot search. While
    /// it runs `l_rows` holds ORIGINAL row ids in discovery order (pivot
    /// positions of later rows are not known yet).
    fn factor_numeric_with_pivoting(
        &mut self,
        vals: &mut LuValues,
        x: &mut [f64],
        opts: &LuOptions,
        a: &CscMatrix,
    ) -> Result<()> {
        let n = self.n;
        // `x` is the dense workspace, here indexed by ORIGINAL row id.
        // Visit marks for the reachability DFS: mark[i] == k+1 means row i
        // was reached while processing column k.
        let mut mark = vec![0usize; n];
        // Topologically ordered reach set (original row ids).
        let mut topo: Vec<usize> = Vec::with_capacity(n);
        // Explicit DFS stack of (row, next-child-position).
        let mut dfs: Vec<(usize, usize)> = Vec::new();

        for k in 0..n {
            let j = self.q.perm()[k];
            let stamp = k + 1;
            topo.clear();

            // --- Symbolic: compute Reach(pattern(A(:,j))) over L's graph. ---
            let (a_rows, a_vals) = a.col(j);
            for &r0 in a_rows {
                if mark[r0] == stamp {
                    continue;
                }
                // Iterative DFS from r0.
                dfs.push((r0, 0));
                mark[r0] = stamp;
                while let Some(&(r, child_pos)) = dfs.last() {
                    let t = self.pinv[r];
                    if t == UNASSIGNED {
                        // Not yet pivoted: leaf node.
                        dfs.pop();
                        topo.push(r);
                        continue;
                    }
                    let (ls, le) = (self.l_colptr[t], self.l_colptr[t + 1]);
                    let mut c = child_pos;
                    let mut next_child = None;
                    while c < le - ls {
                        let rr = self.l_rows[ls + c] as usize;
                        c += 1;
                        if mark[rr] != stamp {
                            next_child = Some(rr);
                            break;
                        }
                    }
                    dfs.last_mut().expect("stack verified non-empty").1 = c;
                    if let Some(rr) = next_child {
                        mark[rr] = stamp;
                        dfs.push((rr, 0));
                    } else {
                        dfs.pop();
                        topo.push(r);
                    }
                }
            }
            // topo now holds the reach set with each node after its
            // dependencies' dependents... DFS post-order gives reverse
            // topological order; reverse it so parents come first.
            topo.reverse();

            // --- Numeric: scatter A(:,j) then apply updates in topo order. ---
            for &r in topo.iter() {
                x[r] = 0.0;
            }
            for (&r, &v) in a_rows.iter().zip(a_vals) {
                if !v.is_finite() {
                    return Err(SparseError::NotFinite {
                        context: "matrix entry during factorization",
                    });
                }
                x[r] = v;
            }
            for &r in topo.iter() {
                let t = self.pinv[r];
                if t == UNASSIGNED {
                    continue;
                }
                let xr = x[r];
                for pp in self.l_colptr[t]..self.l_colptr[t + 1] {
                    x[self.l_rows[pp] as usize] -= vals.l_vals[pp] * xr;
                }
            }

            // --- Pivot search among the not-yet-pivoted reach entries. ---
            let mut max_mag = 0.0_f64;
            let mut max_row = UNASSIGNED;
            let mut diag_mag = 0.0_f64;
            let diag_row = j; // natural diagonal of the permuted matrix
            for &r in topo.iter() {
                if self.pinv[r] == UNASSIGNED {
                    let m = x[r].abs();
                    if m > max_mag {
                        max_mag = m;
                        max_row = r;
                    }
                    if r == diag_row {
                        diag_mag = m;
                    }
                }
            }
            if max_row == UNASSIGNED || max_mag < opts.pivot_floor {
                return Err(SparseError::Singular { column: k });
            }
            let piv_row = if diag_mag >= opts.pivot_threshold * max_mag && diag_mag > 0.0 {
                diag_row
            } else {
                max_row
            };
            let pivot = x[piv_row];
            self.p[k] = piv_row;
            self.pinv[piv_row] = k;
            vals.u_diag[k] = pivot;

            // --- Gather U column k (pivot positions, topo order) and L column k. ---
            for &r in topo.iter() {
                let t = self.pinv[r];
                if t != UNASSIGNED && t != k {
                    self.u_rows.push(t as u32);
                    vals.u_vals.push(x[r]);
                }
            }
            self.u_colptr[k + 1] = self.u_rows.len();
            for &r in topo.iter() {
                if self.pinv[r] == UNASSIGNED {
                    self.l_rows.push(r as u32);
                    vals.l_vals.push(x[r] / pivot);
                }
            }
            self.l_colptr[k + 1] = self.l_rows.len();
        }
        x.fill(0.0);
        Ok(())
    }

    /// Rewrites the finished factors into the layout the numeric kernels
    /// index (see the module docs): `L` rows as ascending pivot positions,
    /// the scatter map of `a`'s entries, and the chain plan over `U`. Linear
    /// in `nnz(L) + nnz(U) + nnz(A)` apart from the per-column sorts.
    fn store_pivot_layout(&mut self, vals: &mut LuValues, work: &mut [f64], a: &CscMatrix) {
        let n = self.n;
        for k in 0..n {
            let lr = self.l_colptr[k]..self.l_colptr[k + 1];
            let (rows, vals) = (&mut self.l_rows[lr.clone()], &mut vals.l_vals[lr]);
            // Sort the column through the (zeroed) dense workspace: park each
            // value at its pivot position, sort the positions, pick them up.
            for (r, &v) in rows.iter_mut().zip(&*vals) {
                *r = self.pinv[*r as usize] as u32;
                work[*r as usize] = v;
            }
            rows.sort_unstable();
            for (&r, v) in rows.iter().zip(vals) {
                *v = std::mem::take(&mut work[r as usize]);
            }
        }
        self.a_pos = a.row_idx().iter().map(|&r| self.pinv[r] as u32).collect();

        let l_col = |t: usize| &self.l_rows[self.l_colptr[t]..self.l_colptr[t + 1]];
        // next[t]: the column that continues a chain from t — the first row
        // t' of the sorted L(t), when the rest of L(t) is L(t').
        const NONE: u32 = u32::MAX;
        let next: Vec<u32> = (0..n)
            .map(|t| match l_col(t).split_first() {
                Some((&t2, rest)) if rest == l_col(t2 as usize) => t2,
                _ => NONE,
            })
            .collect();
        // One walk over every stored U entry builds the chain plan and
        // counts the multiply-adds each entry's source column costs.
        self.u_run = vec![1; self.u_rows.len()];
        let mut madds = 0;
        for k in 0..n {
            let us = self.u_colptr[k];
            for up in (us..self.u_colptr[k + 1]).rev() {
                let t = self.u_rows[up] as usize;
                madds += self.l_colptr[t + 1] - self.l_colptr[t];
                if up > us && next[self.u_rows[up - 1] as usize] == t as u32 {
                    self.u_run[up - 1] = self.u_run[up].saturating_add(1);
                }
            }
        }
        self.madds = madds as u64;
    }
}

impl LuPlan {
    /// The pivot check of an adopted plan, for column `k` with its updates
    /// applied: whether `factor`'s threshold pivoting would pick position `k`
    /// from the candidates in `x` — position `k` and the rows of `L(k)`. That
    /// is the diagonal when it is nonzero and at least `tau` times the largest
    /// candidate magnitude, else the largest, which must beat every other
    /// strictly: on a tie `factor` takes the one its search met first, an
    /// order the stored layout does not keep. The maxima drop NaN as
    /// `factor`'s comparisons do. Out of line and cold: it runs on one pass
    /// per adopted plan, and the loop it is called from is the hot path.
    #[cold]
    #[inline(never)]
    fn factor_picks(&self, x: &[f64], k: usize, tau: f64) -> bool {
        let pivot = x[k].abs();
        let rows = &self.l_rows[self.l_colptr[k]..self.l_colptr[k + 1]];
        let others = rows.iter().fold(0.0_f64, |m, &r| m.max(x[r as usize].abs()));
        // Where the diagonal sits now. Outside `L(k)` and `k` the workspace
        // is zero by now (the `U` entries before `k` were taken), so a
        // diagonal that is no candidate reads zero.
        let diag = self.pinv[self.q.perm()[k]];
        let d = x[diag].abs();
        let diagonal = d > 0.0 && d >= tau * pivot.max(others);
        if diag == k {
            diagonal
        } else {
            !diagonal && pivot > others
        }
    }
}

impl SparseLu {
    /// Recomputes the numeric factors for a matrix with the *same pattern*
    /// as the one originally factored, reusing the recorded pivot order and
    /// elimination pattern (no pivot search, no graph traversal).
    ///
    /// This is the per-Newton-iteration fast path.
    ///
    /// # Errors
    ///
    /// * [`SparseError::DimensionMismatch`] if `a`'s shape, nnz or column
    ///   pointers differ from the originally factored matrix.
    /// * [`SparseError::PivotDegraded`] if a frozen pivot's magnitude falls
    ///   below the stability floor — the caller should run a fresh
    ///   [`SparseLu::factor`].
    /// * [`SparseError::NotFinite`] if `a` contains NaN/inf.
    ///
    /// After an error the factor values are unspecified; the object itself
    /// stays usable for a later `refactor`.
    ///
    /// # What the degradation check sees
    ///
    /// The column maximum a pivot is compared with folds `f64::max` over the
    /// magnitudes of the column's `U` entries, its pivot and its `L` entries
    /// before the division, and `f64::max` drops NaN. Entries of `a` are
    /// checked for finiteness as they are scattered, so a NaN or an infinity
    /// can only arise *inside* the elimination (an overflow, `inf - inf`):
    /// an infinite entry beside a finite pivot makes the column maximum
    /// infinite and the pivot reads as degraded; a NaN entry is invisible to
    /// the maximum, and a NaN or infinite pivot passes both comparisons.
    /// Such factors are returned as `Ok`; what rejects them is the caller's
    /// backward-error check of the solve, which asks the residual for
    /// finiteness explicitly.
    ///
    /// Over an [adopted](Self::adopt) plan, until one call succeeds, a column
    /// whose pivot `factor` would not have chosen for `a` is reported as
    /// [`SparseError::PivotDegraded`] too.
    pub fn refactor(&mut self, a: &CscMatrix) -> Result<()> {
        self.check_pattern(a)?;
        let Self {
            opts, plan, vals: LuValues { l_vals, u_vals, u_diag }, work: x, unchecked, ..
        } = self;
        let PlanView { n, q, l_colptr, l_rows, u_colptr, u_rows, u_run, a_colptr, a_pos, .. } =
            plan.view();
        let check = *unchecked;
        if check && a.values().iter().any(|v| *v == 0.0 && v.is_sign_negative()) {
            return Err(SparseError::PivotDegraded { column: 0, magnitude: 0.0 });
        }
        for k in 0..n {
            // Scatter A(:,j). Every position a column touches is zeroed
            // again as it is read below, so the workspace is clean.
            let j = q[k];
            let ar = a_colptr[j]..a_colptr[j + 1];
            let pos = &a_pos[ar.clone()];
            for (&i, &v) in pos.iter().zip(&a.values()[ar]) {
                if !v.is_finite() {
                    pos.iter().for_each(|&i| x[i as usize] = 0.0);
                    return Err(SparseError::NotFinite {
                        context: "matrix entry during refactorization",
                    });
                }
                x[i as usize] = v;
            }
            // Replay updates: U rows are stored in elimination (topological)
            // order, so applying them front-to-back is exactly the original
            // update sequence. A block of up to BLOCK chained entries first
            // settles its own rows (the head of each chained L column, one
            // source column at a time), then updates the rows common to all
            // of them — L of the block's last column, the tail of every
            // other — in one pass.
            let mut col_max = 0.0_f64;
            let (mut up, ue) = (u_colptr[k], u_colptr[k + 1]);
            while up < ue {
                let w = usize::from(u_run[up]).min(BLOCK);
                if w == 1 {
                    // No chain: the plain column update. Its own branch
                    // because matrices without supernodes run nothing else,
                    // and the block set-up below costs them a quarter more.
                    let t = u_rows[up] as usize;
                    let v = std::mem::take(&mut x[t]);
                    u_vals[up] = v;
                    col_max = col_max.max(v.abs());
                    if v != 0.0 {
                        let lr = l_colptr[t]..l_colptr[t + 1];
                        update_rows(x, &l_rows[lr.clone()], [&l_vals[lr]], [v]);
                    }
                    up += 1;
                    continue;
                }
                let ts = &u_rows[up..up + w];
                let mut xr = [0.0_f64; BLOCK];
                let mut all_nonzero = true;
                for i in 0..w {
                    let v = std::mem::take(&mut x[ts[i] as usize]);
                    u_vals[up + i] = v;
                    xr[i] = v;
                    col_max = col_max.max(v.abs());
                    if v != 0.0 {
                        let ls = l_colptr[ts[i] as usize];
                        update_rows(x, &ts[i + 1..], [&l_vals[ls..]], [v]);
                    } else {
                        all_nonzero = false;
                    }
                }
                let last = ts[w - 1] as usize;
                let rows = &l_rows[l_colptr[last]..l_colptr[last + 1]];
                let tail = |i: usize| {
                    let le = l_colptr[ts[i] as usize + 1];
                    &l_vals[le - rows.len()..le]
                };
                match (w, all_nonzero) {
                    (2, true) => update_rows(x, rows, [tail(0), tail(1)], [xr[0], xr[1]]),
                    (3, true) => {
                        update_rows(x, rows, [tail(0), tail(1), tail(2)], [xr[0], xr[1], xr[2]])
                    }
                    (4, true) => update_rows(x, rows, [tail(0), tail(1), tail(2), tail(3)], xr),
                    // A zero multiplier in the block: one column at a time
                    // skips a zero source column, which keeps the sign of a
                    // zero target that applying it could flip.
                    _ => {
                        for (i, &v) in xr[..w].iter().enumerate() {
                            if v != 0.0 {
                                update_rows(x, rows, [tail(i)], [v]);
                            }
                        }
                    }
                }
                up += w;
            }
            let picked = !check || plan.factor_picks(x, k, opts.pivot_threshold);
            // Gather (and zero) the pivot and the L part. Degradation check:
            // the frozen pivot must not be tiny either absolutely or
            // RELATIVE to its column — values restamped with very different
            // magnitudes (e.g. a companion model at a much smaller time
            // step) can make a once-good pivot numerically meaningless while
            // still above any absolute floor, which would silently produce
            // garbage solutions.
            let pivot = std::mem::take(&mut x[k]);
            col_max = col_max.max(pivot.abs());
            let lr = l_colptr[k]..l_colptr[k + 1];
            let (rows, l_col) = (&l_rows[lr.clone()], &mut l_vals[lr]);
            if rows.len() < CHUNK {
                for (&r, l) in rows.iter().zip(l_col) {
                    let v = std::mem::take(&mut x[r as usize]);
                    col_max = col_max.max(v.abs());
                    *l = v / pivot;
                }
            } else {
                // The column is gathered first and divided in a loop of its
                // own, which is then nothing but contiguous divisions.
                for (&r, l) in rows.iter().zip(l_col.iter_mut()) {
                    *l = std::mem::take(&mut x[r as usize]);
                    col_max = col_max.max(l.abs());
                }
                for l in l_col {
                    *l /= pivot;
                }
            }
            if !picked || pivot.abs() < opts.pivot_floor || pivot.abs() < 1e-10 * col_max {
                return Err(SparseError::PivotDegraded { column: k, magnitude: pivot.abs() });
            }
            u_diag[k] = pivot;
        }
        *unchecked = false;
        Ok(())
    }

    /// Trades the active numeric set with the parked one in `slot`, over the
    /// same plan.
    ///
    /// The set that was active is parked with its factors intact and comes
    /// back with the next call naming the same slot. A slot is allocated by
    /// the first call that names it (with every slot below it) and then
    /// holds no factors: `refactor` must run before the next solve. A fresh
    /// `factor` returns a new object, which has no parked sets.
    pub fn swap_parked(&mut self, slot: usize) {
        let active = &self.vals;
        if self.parked.len() <= slot {
            self.parked.resize_with(slot + 1, || LuValues {
                l_vals: vec![0.0; active.l_vals.len()],
                u_vals: vec![0.0; active.u_vals.len()],
                u_diag: vec![0.0; active.u_diag.len()],
            });
        }
        std::mem::swap(&mut self.vals, &mut self.parked[slot]);
    }

    /// `refactor`'s input check: shape, nnz and column pointers must be
    /// those of the factored matrix (the scatter map is per stored entry).
    fn check_pattern(&self, a: &CscMatrix) -> Result<()> {
        let plan = &*self.plan;
        if a.nrows() != plan.n || a.ncols() != plan.n {
            return Err(SparseError::DimensionMismatch { expected: plan.n, found: a.nrows() });
        }
        if a.nnz() != self.a_nnz() {
            return Err(SparseError::DimensionMismatch { expected: self.a_nnz(), found: a.nnz() });
        }
        if let Some((&want, &got)) =
            plan.a_colptr.iter().zip(a.col_ptr()).find(|(want, got)| want != got)
        {
            return Err(SparseError::DimensionMismatch { expected: want, found: got });
        }
        debug_assert!(
            a.row_idx().iter().zip(&plan.a_pos).all(|(&r, &i)| plan.pinv[r] == i as usize),
            "refactor: row indices differ from the factored matrix"
        );
        Ok(())
    }

    /// Dimension of the factored matrix.
    pub(crate) fn dim(&self) -> usize {
        self.plan.n
    }

    /// Number of stored off-diagonal entries in `L`.
    pub fn nnz_l(&self) -> usize {
        self.plan.l_rows.len()
    }

    /// Number of stored entries in `U` (including the diagonal).
    pub fn nnz_u(&self) -> usize {
        self.plan.u_rows.len() + self.plan.n
    }

    /// Number of stored entries of the factored matrix.
    pub(crate) fn a_nnz(&self) -> usize {
        self.plan.a_pos.len()
    }

    /// How many triangular solves one [`refactor`](Self::refactor) costs:
    /// its multiply-adds over `nnz(L) + nnz(U)`, those of one solve. Below
    /// one on circuits whose factors hardly fill in, and growing with the
    /// fill of a mesh.
    pub fn refactor_weight(&self) -> f64 {
        self.plan.madds as f64 / (self.nnz_l() + self.nnz_u()) as f64
    }

    /// Fill ratio: `(nnz(L) + nnz(U)) / nnz(A)`.
    pub fn fill_ratio(&self) -> f64 {
        if self.a_nnz() == 0 {
            return 0.0;
        }
        (self.nnz_l() + self.nnz_u()) as f64 / self.a_nnz() as f64
    }

    /// Solves `A x = b`, allocating the result and scratch space.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] if `b.len() != dim()`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let mut x = vec![0.0; self.dim()];
        let mut scratch = vec![0.0; self.dim()];
        self.solve_with_scratch(b, &mut x, &mut scratch)?;
        Ok(x)
    }

    /// Solves `A x = b` using caller-provided buffers (no allocation) —
    /// the Newton-loop hot path. `scratch` is clobbered.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] if any buffer length
    /// differs from `dim()`.
    pub fn solve_with_scratch(&self, b: &[f64], x: &mut [f64], scratch: &mut [f64]) -> Result<()> {
        let PlanView { n, q, p, l_colptr, l_rows, u_colptr, u_rows, .. } = self.plan.view();
        let LuValues { l_vals, u_vals, u_diag } = &self.vals;
        if b.len() != n || x.len() != n || scratch.len() != n {
            return Err(SparseError::DimensionMismatch {
                expected: n,
                found: b.len().min(x.len()).min(scratch.len()),
            });
        }
        let y = scratch;
        // Forward solve L y = P b (unit diagonal), in pivot coordinates.
        for (yk, &pk) in y.iter_mut().zip(p) {
            *yk = b[pk];
        }
        for k in 0..n {
            let yk = y[k];
            if yk != 0.0 {
                let lr = l_colptr[k]..l_colptr[k + 1];
                update_rows(y, &l_rows[lr.clone()], [&l_vals[lr]], [yk]);
            }
        }
        // Backward solve U w = y, in pivot coordinates (columns right-to-left).
        for k in (0..n).rev() {
            let wk = y[k] / u_diag[k];
            y[k] = wk;
            if wk != 0.0 {
                let ur = u_colptr[k]..u_colptr[k + 1];
                update_rows(y, &u_rows[ur.clone()], [&u_vals[ur]], [wk]);
            }
        }
        // Undo the column permutation: x[q[k]] = w[k].
        for (&yk, &qk) in y.iter().zip(q) {
            x[qk] = yk;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;
    use crate::dense::DenseMatrix;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn laplacian_2d(nx: usize, ny: usize) -> CscMatrix {
        let n = nx * ny;
        let idx = |i: usize, j: usize| i * ny + j;
        let mut t = CooMatrix::new(n, n);
        for i in 0..nx {
            for j in 0..ny {
                t.push(idx(i, j), idx(i, j), 4.0 + 0.01 * (i + j) as f64).unwrap();
                if i + 1 < nx {
                    t.push(idx(i, j), idx(i + 1, j), -1.0).unwrap();
                    t.push(idx(i + 1, j), idx(i, j), -1.0).unwrap();
                }
                if j + 1 < ny {
                    t.push(idx(i, j), idx(i, j + 1), -1.0).unwrap();
                    t.push(idx(i, j + 1), idx(i, j), -1.0).unwrap();
                }
            }
        }
        t.to_csc()
    }

    fn assert_solves(a: &CscMatrix, lu: &SparseLu, tol: f64) {
        let n = a.ncols();
        let xt: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin() + 1.5).collect();
        let b = a.matvec(&xt).unwrap();
        let x = lu.solve(&b).unwrap();
        for (xi, ti) in x.iter().zip(&xt) {
            assert!((xi - ti).abs() < tol, "|{xi} - {ti}| >= {tol}");
        }
    }

    #[test]
    fn factor_solve_identity() {
        let a = CscMatrix::identity(5);
        let lu = SparseLu::factor(&a, &LuOptions::default()).unwrap();
        let x = lu.solve(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(x, vec![1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn factor_solve_laplacian_in_min_degree_and_natural_order() {
        let a = laplacian_2d(6, 7);
        let opts = LuOptions::default();
        assert_solves(&a, &SparseLu::factor(&a, &opts).unwrap(), 1e-10);
        let natural = Permutation::identity(a.ncols());
        assert_solves(&a, &SparseLu::factor_with_ordering(&a, &opts, natural).unwrap(), 1e-10);
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        // [0 1; 1 0] has no usable natural diagonal pivot at step 0.
        let mut t = CooMatrix::new(2, 2);
        t.push(0, 1, 1.0).unwrap();
        t.push(1, 0, 1.0).unwrap();
        let a = t.to_csc();
        let lu = SparseLu::factor(&a, &LuOptions::default()).unwrap();
        let x = lu.solve(&[3.0, 7.0]).unwrap();
        assert!((x[0] - 7.0).abs() < 1e-14);
        assert!((x[1] - 3.0).abs() < 1e-14);
    }

    #[test]
    fn singular_matrix_reported() {
        let mut t = CooMatrix::new(2, 2);
        t.push(0, 0, 1.0).unwrap();
        t.push(1, 0, 2.0).unwrap();
        // Column 1 is structurally empty.
        let a = t.to_csc();
        assert!(matches!(
            SparseLu::factor(&a, &LuOptions::default()),
            Err(SparseError::Singular { .. })
        ));
    }

    #[test]
    fn refactor_same_values_matches_solve() {
        let a = laplacian_2d(5, 5);
        let mut lu = SparseLu::factor(&a, &LuOptions::default()).unwrap();
        lu.refactor(&a).unwrap();
        assert_solves(&a, &lu, 1e-10);
    }

    #[test]
    fn refactor_new_values_matches_fresh_factor() {
        let a = laplacian_2d(5, 6);
        let mut lu = SparseLu::factor(&a, &LuOptions::default()).unwrap();
        // Same pattern, different values (scale + perturb diagonal).
        let mut t = CooMatrix::new(a.nrows(), a.ncols());
        for (r, c, v) in a.iter() {
            let nv = if r == c { v * 1.5 + 0.3 } else { v * 0.8 };
            t.push(r, c, nv).unwrap();
        }
        let a2 = t.to_csc();
        assert_eq!(a2.nnz(), a.nnz());
        lu.refactor(&a2).unwrap();
        assert_solves(&a2, &lu, 1e-10);
    }

    #[test]
    fn refactor_repeatedly_is_stable() {
        let a = laplacian_2d(4, 4);
        let mut lu = SparseLu::factor(&a, &LuOptions::default()).unwrap();
        for iter in 0..10 {
            let mut t = CooMatrix::new(a.nrows(), a.ncols());
            for (r, c, v) in a.iter() {
                let nv = v * (1.0 + 0.05 * iter as f64);
                t.push(r, c, nv).unwrap();
            }
            let a2 = t.to_csc();
            lu.refactor(&a2).unwrap();
            assert_solves(&a2, &lu, 1e-9);
        }
    }

    #[test]
    fn refactor_detects_degraded_pivot() {
        let mut t = CooMatrix::new(2, 2);
        t.push(0, 0, 1.0).unwrap();
        t.push(1, 1, 1.0).unwrap();
        let a = t.to_csc();
        let mut lu = SparseLu::factor(&a, &LuOptions::default()).unwrap();
        let mut t2 = CooMatrix::new(2, 2);
        t2.push(0, 0, 0.0).unwrap(); // collapses the frozen pivot
        t2.push(1, 1, 1.0).unwrap();
        let a2 = t2.to_csc();
        assert!(matches!(lu.refactor(&a2), Err(SparseError::PivotDegraded { column: 0, .. })));
        // Factor object must remain usable: refactor back with good values.
        lu.refactor(&a).unwrap();
        let x = lu.solve(&[2.0, 3.0]).unwrap();
        assert_eq!(x, vec![2.0, 3.0]);
    }

    #[test]
    fn matches_dense_oracle_unsymmetric() {
        // Deliberately unsymmetric pattern and values.
        let rows: Vec<&[f64]> = vec![
            &[3.0, 0.0, 1.0, 0.0, -2.0],
            &[0.0, 2.5, 0.0, 0.0, 0.0],
            &[0.5, -1.0, 4.0, 0.0, 0.0],
            &[0.0, 0.0, -0.7, 1.8, 0.0],
            &[1.0, 0.0, 0.0, -0.2, 5.0],
        ];
        let d = DenseMatrix::from_rows(&rows);
        let mut t = CooMatrix::new(5, 5);
        for (i, r) in rows.iter().enumerate() {
            for (j, &v) in r.iter().enumerate() {
                if v != 0.0 {
                    t.push(i, j, v).unwrap();
                }
            }
        }
        let a = t.to_csc();
        let b = [1.0, -2.0, 3.0, 0.5, 4.0];
        let xd = d.solve(&b).unwrap();
        let lu = SparseLu::factor(&a, &LuOptions::default()).unwrap();
        let xs = lu.solve(&b).unwrap();
        for (s, dd) in xs.iter().zip(&xd) {
            assert!((s - dd).abs() < 1e-11, "sparse {s} vs dense {dd}");
        }
    }

    #[test]
    fn fill_ratio_and_rcond_reasonable() {
        let a = laplacian_2d(8, 8);
        let lu = SparseLu::factor(&a, &LuOptions::default()).unwrap();
        assert!(lu.fill_ratio() >= 1.0);
    }

    #[test]
    fn non_finite_entries_rejected() {
        let mut t = CooMatrix::new(2, 2);
        t.push(0, 0, f64::NAN).unwrap();
        t.push(1, 1, 1.0).unwrap();
        let a = t.to_csc();
        assert!(matches!(
            SparseLu::factor(&a, &LuOptions::default()),
            Err(SparseError::NotFinite { .. })
        ));
    }

    #[test]
    fn strict_partial_pivoting_also_works() {
        let a = laplacian_2d(5, 5);
        let opts = LuOptions { pivot_threshold: 1.0, ..LuOptions::default() };
        let lu = SparseLu::factor(&a, &opts).unwrap();
        assert_solves(&a, &lu, 1e-10);
    }

    #[test]
    fn refactor_rejects_a_different_pattern_of_equal_nnz() {
        let entries = |moved: (usize, usize)| {
            let mut t = CooMatrix::new(3, 3);
            for (i, d) in [4.0, 5.0, 6.0].into_iter().enumerate() {
                t.push(i, i, d).unwrap();
            }
            t.push(moved.0, moved.1, -1.0).unwrap();
            t.to_csc()
        };
        let a = entries((0, 1));
        let moved = entries((0, 2));
        assert_eq!((a.nrows(), a.nnz()), (moved.nrows(), moved.nnz()));
        let mut lu = SparseLu::factor(&a, &LuOptions::default()).unwrap();
        assert!(matches!(lu.refactor(&moved), Err(SparseError::DimensionMismatch { .. })));
        lu.refactor(&a).unwrap();
        assert_solves(&a, &lu, 1e-12);
    }

    // ---- The kernels against a column-at-a-time reference ----------------

    /// The refactorization loop as it was before chains, written against the
    /// stored layout: one source column at a time with the `xr != 0.0` skip,
    /// a private workspace scattered through `pinv` (not the scatter map),
    /// separate `col_max` and zeroing passes. Returns the multiply-adds its
    /// column loops stand for, zero multipliers included.
    fn refactor_reference(lu: &mut SparseLu, a: &CscMatrix) -> Result<u64> {
        lu.check_pattern(a)?;
        let mut x = vec![0.0_f64; lu.plan.n];
        let mut madds = 0;
        for k in 0..lu.plan.n {
            let (us, ue) = (lu.plan.u_colptr[k], lu.plan.u_colptr[k + 1]);
            let (ls, le) = (lu.plan.l_colptr[k], lu.plan.l_colptr[k + 1]);
            let (a_rows, a_vals) = a.col(lu.plan.q.perm()[k]);
            for (&r, &v) in a_rows.iter().zip(a_vals) {
                if !v.is_finite() {
                    return Err(SparseError::NotFinite {
                        context: "matrix entry during refactorization",
                    });
                }
                x[lu.plan.pinv[r]] = v;
            }
            for up in us..ue {
                let t = lu.plan.u_rows[up] as usize;
                let xr = x[t];
                lu.vals.u_vals[up] = xr;
                madds += (lu.plan.l_colptr[t + 1] - lu.plan.l_colptr[t]) as u64;
                if xr != 0.0 {
                    for pp in lu.plan.l_colptr[t]..lu.plan.l_colptr[t + 1] {
                        x[lu.plan.l_rows[pp] as usize] -= lu.vals.l_vals[pp] * xr;
                    }
                }
            }
            let pivot = x[k];
            let mut col_max = pivot.abs();
            for up in us..ue {
                col_max = col_max.max(lu.vals.u_vals[up].abs());
            }
            for lp in ls..le {
                col_max = col_max.max(x[lu.plan.l_rows[lp] as usize].abs());
            }
            if pivot.abs() < lu.opts.pivot_floor || pivot.abs() < 1e-10 * col_max {
                return Err(SparseError::PivotDegraded { column: k, magnitude: pivot.abs() });
            }
            lu.vals.u_diag[k] = pivot;
            for lp in ls..le {
                let r = lu.plan.l_rows[lp] as usize;
                lu.vals.l_vals[lp] = x[r] / pivot;
                x[r] = 0.0;
            }
            for up in us..ue {
                x[lu.plan.u_rows[up] as usize] = 0.0;
            }
            x[k] = 0.0;
        }
        Ok(madds)
    }

    /// Forward/backward substitution as indexed loops over the stored layout.
    fn solve_reference(lu: &SparseLu, b: &[f64]) -> Vec<f64> {
        let n = lu.plan.n;
        let mut y: Vec<f64> = (0..n).map(|k| b[lu.plan.p[k]]).collect();
        for k in 0..n {
            let yk = y[k];
            if yk != 0.0 {
                for pp in lu.plan.l_colptr[k]..lu.plan.l_colptr[k + 1] {
                    y[lu.plan.l_rows[pp] as usize] -= lu.vals.l_vals[pp] * yk;
                }
            }
        }
        for k in (0..n).rev() {
            let wk = y[k] / lu.vals.u_diag[k];
            y[k] = wk;
            if wk != 0.0 {
                for up in lu.plan.u_colptr[k]..lu.plan.u_colptr[k + 1] {
                    y[lu.plan.u_rows[up] as usize] -= lu.vals.u_vals[up] * wk;
                }
            }
        }
        let mut x = vec![0.0; n];
        for k in 0..n {
            x[lu.plan.q.perm()[k]] = y[k];
        }
        x
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Refactors `lu` with the kernel and `reference` with the reference
    /// loop; on success the factors and the solve must agree bit for bit,
    /// on failure the errors must be equal, and either way the persistent
    /// workspace must be back to all (positive) zeros. The plan's count of
    /// multiply-adds must be the reference loops'.
    fn assert_refactor_matches_reference(
        lu: &mut SparseLu,
        reference: &mut SparseLu,
        a: &CscMatrix,
    ) -> Result<()> {
        let got = lu.refactor(a);
        let want = refactor_reference(reference, a);
        if let Ok(madds) = want {
            assert_eq!(lu.plan.madds, madds, "multiply-adds of one refactorization");
        }
        assert_eq!(got, want.map(|_| ()));
        assert!(lu.work.iter().all(|v| v.to_bits() == 0), "workspace left dirty after {got:?}");
        if got.is_ok() {
            assert_eq!(bits(&lu.vals.l_vals), bits(&reference.vals.l_vals));
            assert_eq!(bits(&lu.vals.u_vals), bits(&reference.vals.u_vals));
            assert_eq!(bits(&lu.vals.u_diag), bits(&reference.vals.u_diag));
            let b: Vec<f64> = (0..lu.plan.n).map(|i| (i as f64 * 0.37).sin() + 0.25).collect();
            assert_eq!(bits(&lu.solve(&b)?), bits(&solve_reference(reference, &b)));
        }
        got
    }

    /// Blocks of two or more chained entries, as `refactor` splits them,
    /// that hold a zero multiplier after a refactorization: each took the
    /// per-column fallback.
    fn blocks_with_a_zero_multiplier(lu: &SparseLu) -> usize {
        let mut count = 0;
        for k in 0..lu.plan.n {
            let (mut up, ue) = (lu.plan.u_colptr[k], lu.plan.u_colptr[k + 1]);
            while up < ue {
                let w = usize::from(lu.plan.u_run[up]).min(BLOCK);
                count += usize::from(w > 1 && lu.vals.u_vals[up..up + w].contains(&0.0));
                up += w;
            }
        }
        count
    }

    #[test]
    fn laplacian_runs_the_four_wide_block_its_remainders_and_the_zero_fallback() {
        let a = laplacian_2d(12, 12);
        let mut lu = SparseLu::factor(&a, &LuOptions::default()).unwrap();
        // A chain of 5..=7 entries splits into a block of four and a
        // remainder of one, two or three; this mesh has all of them.
        for width in 5..=7 {
            assert!(lu.plan.u_run.contains(&width), "no chain of width {width}");
        }
        let mut reference = lu.clone();
        assert_refactor_matches_reference(&mut lu, &mut reference, &a).unwrap();
        assert_eq!(blocks_with_a_zero_multiplier(&lu), 0);
        // Explicit zeros in every third column's off-diagonals put zero
        // multipliers next to nonzero ones inside chains.
        let mut zeros = a.clone();
        let coords: Vec<(usize, usize)> = a.iter().map(|(r, c, _)| (r, c)).collect();
        for (v, &(r, c)) in zeros.values_mut().iter_mut().zip(&coords) {
            if r != c && c % 3 == 0 && (r + c) % 2 == 1 {
                *v = 0.0;
            }
        }
        assert_refactor_matches_reference(&mut lu, &mut reference, &zeros).unwrap();
        assert!(blocks_with_a_zero_multiplier(&lu) > 0, "zero-multiplier fallback did not run");
        assert_refactor_matches_reference(&mut lu, &mut reference, &a).unwrap();
    }

    /// A banded pattern with random fill outside the band. Every even row
    /// `i` flagged in the returned `branch` has no diagonal entry and a strong
    /// `(i, i + 1)` / `(i + 1, i)` pair instead (an MNA voltage-source
    /// branch), which forces an off-diagonal pivot.
    fn banded_plus_fill(n: usize, band: usize, rng: &mut StdRng) -> (CscMatrix, Vec<bool>) {
        let mut branch = vec![false; n];
        for i in (0..n - 1).step_by(2) {
            branch[i] = rng.gen_range(0..5usize) == 0;
        }
        // Kept for certain: diagonals of ordinary rows and the branch pairs.
        let fixed = |r: usize, c: usize| match r.abs_diff(c) {
            0 => Some(!branch[r]),
            1 if branch[r.min(c)] => Some(true),
            _ => None,
        };
        let mut t = CooMatrix::new(n, n);
        for r in 0..n {
            for c in r.saturating_sub(band)..(r + band + 1).min(n) {
                if fixed(r, c).unwrap_or_else(|| rng.gen_range(0..10usize) < 7) {
                    t.push(r, c, 1.0).unwrap();
                }
            }
        }
        for _ in 0..n / 2 {
            let (r, c) = (rng.gen_range(0..n), rng.gen_range(0..n));
            if r.abs_diff(c) > band {
                t.push(r, c, 1.0).unwrap();
            }
        }
        (t.to_csc(), branch)
    }

    /// Redraws every value of `pattern`: dominant diagonals, strong branch
    /// pairs, weak off-diagonals of which about one in `zero_one_in` is an
    /// explicit zero of either sign (`0` for none) — a skipped zero source
    /// column and an applied one differ only in the sign of a zero target.
    fn redraw(
        pattern: &CscMatrix,
        branch: &[bool],
        zero_one_in: usize,
        rng: &mut StdRng,
    ) -> CscMatrix {
        let coords: Vec<(usize, usize)> = pattern.iter().map(|(r, c, _)| (r, c)).collect();
        let mut a = pattern.clone();
        for (v, (r, c)) in a.values_mut().iter_mut().zip(coords) {
            *v = if r == c {
                rng.gen_range(4.0..9.0)
            } else if r.abs_diff(c) == 1 && branch[r.min(c)] {
                rng.gen_range(1.0..2.0)
            } else if zero_one_in > 0 && rng.gen_range(0..zero_one_in) == 0 {
                [0.0, -0.0][rng.gen_range(0..2usize)]
            } else {
                rng.gen_range(-1.0..1.0)
            };
        }
        a
    }

    /// The refactorization sequence every pattern goes through, kernel
    /// against reference: redrawn values without and with explicit zeros of
    /// either sign, then a zeroed column (collapses its frozen pivot after
    /// the columns before it went through) and a NaN (stops a scatter
    /// half-way), each followed by a good matrix that must find the
    /// workspace clean.
    fn check_refactor_sequence(
        pattern: &CscMatrix,
        branch: &[bool],
        q: Permutation,
        rng: &mut StdRng,
    ) -> std::result::Result<SparseLu, TestCaseError> {
        let n = pattern.ncols();
        let first = redraw(pattern, branch, 0, rng);
        let Ok(mut lu) = SparseLu::factor_with_ordering(&first, &LuOptions::default(), q) else {
            return Err(TestCaseError::Reject("singular draw"));
        };
        let mut reference = lu.clone();
        // Values redrawn per refactorization; a frozen pivot may degrade
        // on a draw, in which case both sides must say so alike.
        for zero_one_in in [0, 6, 3] {
            let a = redraw(pattern, branch, zero_one_in, rng);
            let _ = assert_refactor_matches_reference(&mut lu, &mut reference, &a);
        }
        let good = redraw(pattern, branch, 0, rng);
        if assert_refactor_matches_reference(&mut lu, &mut reference, &good).is_err() {
            return Err(TestCaseError::Reject("frozen pivots degraded on the good draw"));
        }
        let j = rng.gen_range(0..n);
        let mut degraded = good.clone();
        let (s, e) = (degraded.col_ptr()[j], degraded.col_ptr()[j + 1]);
        degraded.values_mut()[s..e].fill(0.0);
        let got = assert_refactor_matches_reference(&mut lu, &mut reference, &degraded);
        prop_assert!(matches!(got, Err(SparseError::PivotDegraded { .. })), "{:?}", got);
        assert_refactor_matches_reference(&mut lu, &mut reference, &good).unwrap();
        let mut nan = good.clone();
        nan.values_mut()[e - 1] = f64::NAN;
        let got = assert_refactor_matches_reference(&mut lu, &mut reference, &nan);
        prop_assert!(matches!(got, Err(SparseError::NotFinite { .. })), "{:?}", got);
        assert_refactor_matches_reference(&mut lu, &mut reference, &good).unwrap();
        Ok(lu)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn refactor_and_solves_are_bit_equal_to_the_reference(
            n in 4usize..=48,
            band in 1usize..=4,
            seed in 0u64..u64::MAX,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (pattern, branch) = banded_plus_fill(n, band, &mut rng);
            let q = min_degree(&pattern).unwrap();
            check_refactor_sequence(&pattern, &branch, q, &mut rng)?;
        }
    }

    fn assert_same_factors(got: &SparseLu, want: &SparseLu, b: &[f64]) {
        assert_eq!(bits(&got.vals.l_vals), bits(&want.vals.l_vals));
        assert_eq!(bits(&got.vals.u_vals), bits(&want.vals.u_vals));
        assert_eq!(bits(&got.vals.u_diag), bits(&want.vals.u_diag));
        assert_eq!(bits(&got.solve(b).unwrap()), bits(&want.solve(b).unwrap()));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// One object walking its four numeric sets (the active one and
        /// three parked slots) against four one-set objects, one per matrix:
        /// whichever set a refactorization lands in, factors and solutions
        /// are those of a plain `refactor`, and a parked set comes back as
        /// it was left, however many trades later.
        #[test]
        fn any_numeric_set_refactors_to_the_bits_of_a_one_set_refactor(
            n in 4usize..=40,
            band in 1usize..=4,
            seed in 0u64..u64::MAX,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (pattern, branch) = banded_plus_fill(n, band, &mut rng);
            let first = redraw(&pattern, &branch, 0, &mut rng);
            let Ok(mut lu) = SparseLu::factor(&first, &LuOptions::default()) else {
                return Err(TestCaseError::Reject("singular draw"));
            };
            let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() + 0.25).collect();
            let mats: Vec<CscMatrix> =
                [6, 0, 3, 0].iter().map(|&zeros| redraw(&pattern, &branch, zeros, &mut rng)).collect();
            let mut refs = Vec::new();
            for a in &mats {
                let mut one = lu.clone();
                prop_assert!(Arc::ptr_eq(&lu.plan, &one.plan), "a clone built its own plan");
                if one.refactor(a).is_err() {
                    return Err(TestCaseError::Reject("frozen pivots degraded"));
                }
                refs.push(one);
            }
            // The clones' values are their own: `lu` still holds `first`'s.
            assert_same_factors(&lu, &SparseLu::factor(&first, &LuOptions::default()).unwrap(), &b);

            // Which matrix each set holds the factors of: the active one,
            // then the slots. A slot never named holds nothing.
            let mut held: [Option<usize>; 4] = [None; 4];
            for _ in 0..24 {
                if rng.gen_range(0..2usize) == 0 {
                    let m = rng.gen_range(0..mats.len());
                    lu.refactor(&mats[m]).unwrap();
                    held[0] = Some(m);
                } else {
                    let slot = rng.gen_range(0..3usize);
                    lu.swap_parked(slot);
                    held.swap(0, slot + 1);
                }
                if let Some(m) = held[0] {
                    assert_same_factors(&lu, &refs[m], &b);
                }
            }
            prop_assert!(lu.parked.len() <= 3);
            prop_assert!(lu.work.iter().all(|v| v.to_bits() == 0));
            prop_assert!(Arc::ptr_eq(&lu.plan, &lu.clone().plan));

            // A degraded pivot, then the re-pivot a caller answers it with:
            // the new object has a plan of its own and nothing parked.
            lu.swap_parked(2);
            lu.refactor(&mats[1]).unwrap();
            let j = rng.gen_range(0..n);
            let mut degraded = mats[1].clone();
            let (s, e) = (degraded.col_ptr()[j], degraded.col_ptr()[j + 1]);
            degraded.values_mut()[s..e].fill(0.0);
            prop_assert!(matches!(lu.refactor(&degraded), Err(SparseError::PivotDegraded { .. })));
            let q = lu.plan.q.clone();
            let Ok(repivoted) = SparseLu::factor_with_ordering(&mats[0], &LuOptions::default(), q) else {
                return Err(TestCaseError::Reject("singular draw"));
            };
            prop_assert!(repivoted.parked.is_empty() && !Arc::ptr_eq(&repivoted.plan, &lu.plan));
            // The old object stays usable, every set, after the failure.
            for (slot, m) in [(0, 0), (1, 2), (2, 3)] {
                lu.refactor(&mats[m]).unwrap();
                assert_same_factors(&lu, &refs[m], &b);
                lu.swap_parked(slot);
            }
            lu.swap_parked(1);
            assert_same_factors(&lu, &refs[2], &b);
        }
    }

    // ---- Adopting another owner's plan -----------------------------------

    /// Adopts `owner`'s plan, refactors it with `a` and holds the outcome
    /// against a fresh `factor` of `a` under the plan's ordering: a check
    /// that passes means that factorization rebuilt the plan index for index
    /// and computed the adopter's factors bit for bit; one that fails is a
    /// `PivotDegraded` that leaves the workspace clean and the check armed.
    /// Returns whether the check passed.
    fn check_adoption(owner: &SparseLu, a: &CscMatrix) -> bool {
        let mut adopter = SparseLu::adopt(&owner.shared_plan(), &owner.opts);
        assert!(Arc::ptr_eq(&adopter.plan, &owner.plan) && adopter.unchecked);
        let got = adopter.refactor(a);
        assert!(adopter.work.iter().all(|v| v.to_bits() == 0), "workspace left dirty");
        let fresh = SparseLu::factor_with_ordering(a, &owner.opts, owner.plan.q.clone());
        let Ok(()) = got else {
            assert!(matches!(got, Err(SparseError::PivotDegraded { .. })), "{got:?}");
            assert!(adopter.unchecked, "a failed check disarmed itself");
            return false;
        };
        let fresh = fresh.expect("a passed check stands for a factorization that succeeds");
        let (mine, theirs) = (&*adopter.plan, &*fresh.plan);
        assert_eq!(mine.p, theirs.p);
        assert_eq!(mine.pinv, theirs.pinv);
        assert_eq!((&mine.l_colptr, &mine.l_rows), (&theirs.l_colptr, &theirs.l_rows));
        assert_eq!((&mine.u_colptr, &mine.u_rows), (&theirs.u_colptr, &theirs.u_rows));
        assert_eq!((&mine.u_run, &mine.a_pos), (&theirs.u_run, &theirs.a_pos));
        let b: Vec<f64> = (0..a.ncols()).map(|i| (i as f64 * 0.37).sin() + 0.25).collect();
        assert_same_factors(&adopter, &fresh, &b);
        assert!(!adopter.unchecked);
        true
    }

    #[test]
    fn an_adopted_plan_refactors_to_the_bits_of_the_factor_it_skips_or_fails_closed() {
        let opts = LuOptions::default();
        let (mut passed, mut failed) = (0, 0);
        for seed in 0..400u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (n, band) = (rng.gen_range(4..=40usize), rng.gen_range(1..=4usize));
            let (pattern, branch) = banded_plus_fill(n, band, &mut rng);
            let Ok(owner) = SparseLu::factor(&redraw(&pattern, &branch, 0, &mut rng), &opts) else {
                continue;
            };
            let mut a = redraw(&pattern, &branch, 0, &mut rng);
            // Every other draw weakens one ordinary diagonal far enough that
            // pivoting may leave it for an off-diagonal candidate.
            let weak: Vec<usize> = (0..n).filter(|&i| !branch[i]).collect();
            if seed % 2 == 1 && !weak.is_empty() {
                let j = weak[rng.gen_range(0..weak.len())];
                let coords: Vec<(usize, usize)> = a.iter().map(|(r, c, _)| (r, c)).collect();
                for (v, &(r, c)) in a.values_mut().iter_mut().zip(&coords) {
                    if (r, c) == (j, j) {
                        *v *= 0.01;
                    }
                }
            }
            if check_adoption(&owner, &a) {
                passed += 1;
            } else {
                failed += 1;
            }
        }
        // Both sides of the check, many times each.
        assert!(passed >= 100 && failed >= 40, "{passed} passed, {failed} failed");
    }

    /// Column 0 holds an explicit zero on its diagonal and `below` in rows
    /// 1 and 2 (an MNA branch column: pivoting must leave the diagonal);
    /// the rest is nonsingular whatever `below` is.
    fn branch_column(below: [f64; 2]) -> CscMatrix {
        let mut t = CooMatrix::new(3, 3);
        for (r, c, v) in [(0, 0, 0.0), (1, 0, below[0]), (2, 0, below[1]), (0, 1, 1.0)] {
            t.push(r, c, v).unwrap();
        }
        t.push(1, 2, 1.0).unwrap();
        t.push(2, 2, 1.0).unwrap();
        t.to_csc()
    }

    #[test]
    fn the_check_takes_a_strict_largest_off_diagonal_and_refuses_a_tie_or_another_row() {
        let opts = LuOptions::default();
        let natural = Permutation::identity(3);
        let owner =
            SparseLu::factor_with_ordering(&branch_column([2.0, 1.0]), &opts, natural).unwrap();
        assert_eq!(owner.plan.p[0], 1, "row 1 is the largest candidate");
        // Row 1 still strictly the largest: the check passes, bit for bit.
        assert!(check_adoption(&owner, &branch_column([3.0, -1.5])));
        // Row 2 the largest: pivoting would take another row.
        assert!(!check_adoption(&owner, &branch_column([1.0, 3.0])));
        // An exact tie in magnitude: `factor` takes whichever its search
        // met first, an order the plan does not keep, so the check refuses.
        assert!(!check_adoption(&owner, &branch_column([1.0, -1.0])));
        let mut adopter = SparseLu::adopt(&owner.shared_plan(), &opts);
        let tie = branch_column([1.0, -1.0]);
        assert_eq!(
            adopter.refactor(&tie),
            Err(SparseError::PivotDegraded { column: 0, magnitude: 1.0 })
        );
        // Once a check has passed the plan is this owner's: the tie that the
        // check refused is an ordinary refactorization now.
        adopter.refactor(&branch_column([3.0, -1.5])).unwrap();
        adopter.refactor(&tie).unwrap();
        assert_solves(&tie, &adopter, 1e-12);
    }

    #[test]
    fn a_negative_zero_in_the_matrix_fails_the_check() {
        let a = laplacian_2d(4, 4);
        let owner = SparseLu::factor(&a, &LuOptions::default()).unwrap();
        assert!(check_adoption(&owner, &a));
        // A zero multiplier `factor` applies and `refactor` skips can flip the
        // sign of a negative zero: such a matrix is refused, a positive zero
        // is not.
        let off_diagonal = a.iter().position(|(r, c, _)| r != c).unwrap();
        for (zero, passes) in [(0.0, true), (-0.0, false)] {
            let mut z = a.clone();
            z.values_mut()[off_diagonal] = zero;
            assert_eq!(check_adoption(&owner, &z), passes, "{zero:?}");
        }
    }

    /// A pattern from its coordinates, values all one.
    fn pattern_of(n: usize, coords: impl IntoIterator<Item = (usize, usize)>) -> CscMatrix {
        let mut t = CooMatrix::new(n, n);
        for (r, c) in coords {
            t.push(r, c, 1.0).unwrap();
        }
        t.to_csc()
    }

    /// Runs [`check_refactor_sequence`] in the natural ordering (so the test
    /// decides which column holds what), retrying the rare draw on which a
    /// frozen pivot degrades.
    fn check_in_natural_order(pattern: &CscMatrix, seed: u64) -> SparseLu {
        let natural = || Permutation::identity(pattern.ncols());
        let branch = vec![false; pattern.ncols()];
        (seed..seed + 20)
            .find_map(|s| {
                let mut rng = StdRng::seed_from_u64(s);
                match check_refactor_sequence(pattern, &branch, natural(), &mut rng) {
                    Ok(lu) => Some(lu),
                    Err(TestCaseError::Reject(_)) => None,
                    Err(TestCaseError::Fail(msg)) => panic!("{msg}"),
                }
            })
            .expect("a draw whose frozen pivots hold")
    }

    #[test]
    fn every_row_count_around_the_chunk_is_bit_equal_in_the_plain_and_block_paths() {
        for m in 0..=2 * CHUNK + 1 {
            // Plain path (`W = 1`): column 0 reaches rows 1..=m and the last
            // column reaches row 0, so refactoring the last column applies
            // L(0), m rows, as a single unchained source column; so does the
            // forward solve, and the backward solve the last column of U.
            let n = m + 2;
            let diag = (0..n).map(|i| (i, i));
            let bordered = pattern_of(n, diag.chain((1..=m).map(|r| (r, 0))).chain([(0, n - 1)]));
            let lu = check_in_natural_order(&bordered, 7 + m as u64);
            assert_eq!(lu.plan.l_colptr[1] - lu.plan.l_colptr[0], m);
            assert_eq!(lu.plan.u_colptr[n] - lu.plan.u_colptr[n - 1], m + 1);
            if m >= 2 {
                assert_eq!(lu.plan.u_run[lu.plan.u_colptr[n - 1]], 1, "L(0) is not a chain head");
            }
            // Block path: a dense matrix is one chain, so the first block of
            // its last column updates the m rows of L(BLOCK - 1) from BLOCK
            // source columns (m = 0 leaves that column a block of three),
            // and the shorter columns before it run every smaller count
            // through the narrower blocks.
            let d = m + BLOCK;
            let dense = pattern_of(d, (0..d).flat_map(|r| (0..d).map(move |c| (r, c))));
            let lu = check_in_natural_order(&dense, 70 + m as u64);
            assert_eq!(lu.plan.l_colptr[BLOCK] - lu.plan.l_colptr[BLOCK - 1], m);
            assert_eq!(usize::from(lu.plan.u_run[lu.plan.u_colptr[d - 1]]), d - 1);
        }
    }

    /// `update_rows` itself against one source column and one target at a
    /// time, values chosen to show any reordering: signed zeros among the
    /// targets, the values and the multipliers, a NaN and an infinity.
    fn check_update_rows<const W: usize>(m: usize, rng: &mut StdRng) {
        let special = [0.0, -0.0, f64::NAN, f64::INFINITY, 1.0e-300];
        let draw = |rng: &mut StdRng| match rng.gen_range(0..4usize) {
            0 => special[rng.gen_range(0..special.len())],
            _ => rng.gen_range(-2.0..2.0),
        };
        // Distinct targets in no particular order, as in a U column.
        let mut rows: Vec<u32> = (0..3 * CHUNK as u32 + 2).collect();
        for i in (1..rows.len()).rev() {
            rows.swap(i, rng.gen_range(0..=i));
        }
        let x0: Vec<f64> = rows.iter().map(|_| draw(rng)).collect();
        rows.truncate(m);
        let cols: [Vec<f64>; W] = std::array::from_fn(|_| (0..m + 3).map(|_| draw(rng)).collect());
        let xr: [f64; W] = std::array::from_fn(|_| draw(rng));
        let mut want = x0.clone();
        for (e, &r) in rows.iter().enumerate() {
            for c in 0..W {
                want[r as usize] -= cols[c][e] * xr[c];
            }
        }
        let mut got = x0;
        update_rows(&mut got, &rows, std::array::from_fn(|c| cols[c].as_slice()), xr);
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            // Which NaN a NaN operand yields is the instruction selector's
            // choice; that it is one is not.
            assert!(g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()), "W {W} m {m} x[{i}]");
        }
    }

    #[test]
    fn update_rows_is_one_target_at_a_time_at_every_width_and_row_count() {
        let mut rng = StdRng::seed_from_u64(0x5eed);
        for m in 0..=2 * CHUNK + 1 {
            for _ in 0..40 {
                check_update_rows::<1>(m, &mut rng);
                check_update_rows::<2>(m, &mut rng);
                check_update_rows::<3>(m, &mut rng);
                check_update_rows::<4>(m, &mut rng);
            }
        }
    }
}
