//! Solver bake-off: direct sparse LU versus preconditioned GMRES on the
//! 2-D power-grid mesh family, with the direct path's min-degree fill,
//! swept over grid sizes.
//!
//! Each row times a *fresh-linearization* solve — the cost the transient
//! loop pays whenever chord Newton must refactor — for both paths:
//!
//! * **direct**: Gilbert–Peierls LU factorization (min-degree ordering)
//!   plus one triangular solve;
//! * **gmres**: ILU(0) factorization plus one restarted-GMRES solve to
//!   the backend's default relative tolerance (1e-10).
//!
//! A transient pass pays that fresh cost once and then refactors with frozen
//! pivots hundreds of times, so each row also times what the pass mostly
//! runs: `refactor_us` ([`SparseLu::refactor`] of the same matrix) and
//! `solve_us` (one `solve_with_scratch`).
//!
//! Ladder/line matrices are banded and the direct path is unbeatable
//! there; on the 2-D mesh fill-in grows superlinearly with grid size and
//! the iterative path crosses over *per fresh solve*. The emitted
//! `BENCH_solver.json` records, per size, `gmres_speedup` (fresh direct
//! over gmres wall time, >1 past that crossover; mostly a measure of the
//! fill-reducing ordering's cost, so not gated),
//! `gmres_vs_refactor` (`(refactor_us + solve_us) / gmres_us`: GMRES against
//! what a transient run pays per linearization, >1 where the Krylov backend
//! would win inside a run; gated by `perf-gate` against the committed
//! baseline) and `mindeg_fill_nnz` (`nnz(L) + nnz(U)`, deterministic).
//!
//! Usage: `cargo run --release -p wavepipe-bench --bin solver_bakeoff [-- --small]`;
//! any other argument is a usage error (exit 64).

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;
use wavepipe_bench::Scale;
use wavepipe_sparse::{gmres, CooMatrix, CscMatrix, GmresOptions, Ilu0, LuOptions, SparseLu};

/// Fewest timed repetitions per path and mesh size.
const REPS: usize = 9;

/// Conductance matrix of an `n × n` resistive power-delivery mesh: unit
/// branch conductances to the four neighbours plus a small load/leak term
/// on the diagonal — the same structure `generators::power_grid` stamps,
/// without the source rows.
fn mesh(n: usize) -> CscMatrix {
    let id = |i: usize, j: usize| i * n + j;
    let mut t = CooMatrix::new(n * n, n * n);
    for i in 0..n {
        for j in 0..n {
            let mut diag = 0.1; // via/load conductance to the supply
            let mut couple = |a: usize, b: usize| {
                t.push_unchecked(a, b, -1.0);
                t.push_unchecked(b, a, -1.0);
            };
            if i + 1 < n {
                couple(id(i, j), id(i + 1, j));
            }
            if j + 1 < n {
                couple(id(i, j), id(i, j + 1));
            }
            diag += [i > 0, i + 1 < n, j > 0, j + 1 < n].iter().filter(|&&x| x).count() as f64;
            t.push_unchecked(id(i, j), id(i, j), diag);
        }
    }
    t.to_csc()
}

fn rhs(n: usize) -> Vec<f64> {
    (0..n).map(|i| ((i % 11) as f64) * 0.25 - 1.0).collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let small = Scale::from_args("solver_bakeoff") == Scale::Small;
    let sizes: &[usize] = if small { &[4, 8] } else { &[2, 4, 8, 16, 24, 32, 48, 64, 96] };

    let mut doc = String::from("[");
    let mut first = true;
    for &n in sizes {
        let a = mesh(n);
        let dim = a.ncols();
        let b = rhs(dim);

        // Warm-up both paths once, then best-of-`reps` each. Small meshes
        // cost microseconds per call and get more repetitions, for about the
        // same wall time per row.
        let reps = (20_000 / dim).clamp(REPS, 400);
        let direct_opts = LuOptions::default();
        let warm = SparseLu::factor(&a, &direct_opts)?;
        let mindeg_nnz = warm.nnz_l() + warm.nnz_u();
        black_box(warm.solve(&b)?);
        let mut direct_ns = u128::MAX;
        for _ in 0..reps {
            let t0 = Instant::now();
            let lu = SparseLu::factor(&a, &direct_opts)?;
            black_box(lu.solve(&b)?);
            direct_ns = direct_ns.min(t0.elapsed().as_nanos());
        }

        let mut lu = SparseLu::factor(&a, &direct_opts)?;
        let (mut x, mut scratch) = (vec![0.0; dim], vec![0.0; dim]);
        let (mut refactor_ns, mut solve_ns) = (u128::MAX, u128::MAX);
        for _ in 0..reps {
            let t0 = Instant::now();
            lu.refactor(&a)?;
            refactor_ns = refactor_ns.min(t0.elapsed().as_nanos());
            let t0 = Instant::now();
            lu.solve_with_scratch(&b, &mut x, &mut scratch)?;
            solve_ns = solve_ns.min(t0.elapsed().as_nanos());
            black_box(&x);
        }

        let gopts = GmresOptions::default();
        let mut iterations = 0usize;
        black_box(Ilu0::factor(&a)?);
        let mut gmres_ns = u128::MAX;
        for _ in 0..reps {
            let t0 = Instant::now();
            let ilu = Ilu0::factor(&a)?;
            x.fill(0.0);
            let out = gmres(&a, &ilu, &b, &mut x, &gopts)?;
            gmres_ns = gmres_ns.min(t0.elapsed().as_nanos());
            assert!(out.converged, "GMRES must converge on the mesh family (n={n})");
            iterations = out.iterations;
            black_box(&x);
        }

        let direct_us = direct_ns as f64 / 1e3;
        let refactor_us = refactor_ns as f64 / 1e3;
        let solve_us = solve_ns as f64 / 1e3;
        let gmres_us = gmres_ns as f64 / 1e3;
        let speedup = direct_us / gmres_us;
        let vs_refactor = (refactor_us + solve_us) / gmres_us;
        let name = format!("power_grid({n},{n})");
        println!(
            "{name}: unknowns {dim} direct {direct_us:.1}us (refactor {refactor_us:.1}us \
             solve {solve_us:.1}us) gmres {gmres_us:.1}us \
             ({iterations} iters) speedup {speedup:.2}{} vs refactor+solve {vs_refactor:.2} \
             | fill mindeg {mindeg_nnz}",
            if speedup >= 1.0 { " <- crossover" } else { "" },
        );

        if !first {
            doc.push(',');
        }
        first = false;
        let _ = write!(
            doc,
            "\n  {{\"circuit\":\"{}\",\"unknowns\":{dim},\"nnz\":{},\
             \"mindeg_fill_nnz\":{mindeg_nnz},\"direct_us\":{},\"refactor_us\":{},\
             \"solve_us\":{},\"gmres_us\":{},\
             \"gmres_iterations\":{iterations},\"gmres_speedup\":{},\
             \"gmres_vs_refactor\":{},\"crossover\":{}}}",
            wavepipe_telemetry::json::escape(&name),
            a.nnz(),
            wavepipe_telemetry::json::fmt_f64(direct_us),
            wavepipe_telemetry::json::fmt_f64(refactor_us),
            wavepipe_telemetry::json::fmt_f64(solve_us),
            wavepipe_telemetry::json::fmt_f64(gmres_us),
            wavepipe_telemetry::json::fmt_f64(speedup),
            wavepipe_telemetry::json::fmt_f64(vs_refactor),
            speedup >= 1.0,
        );
    }
    doc.push_str("\n]\n");
    std::fs::write("BENCH_solver.json", doc)?;
    println!("wrote BENCH_solver.json");
    Ok(())
}
