//! The traced run: bench-side spans around every call into a layer, the
//! program's own counters, kernel probes on each job's matrix, and the
//! ledger that estimates from outside where a pass's time went.

use crate::measure::{Checker, RunConfig};
use crate::metrics::Report;
use crate::stats::median;
use crate::trace::Tracer;
use crate::workload::{
    build_job, build_jobs, job_count, Engine, Family, JobInput, Pass, PipeStats, Rng, Runner,
};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use wavepipe_circuit::parse_netlist;
use wavepipe_engine::integrate::IntegCoeffs;
use wavepipe_engine::{ProbeHandle, RecordingProbe, SimOptions, SimStats, StampInput};
use wavepipe_sparse::{
    gmres, CscMatrix, GmresOptions, Ilu0, LanePackedLu, LaneSolve, LuOptions, SparseLu,
};

/// Median cost in microseconds of one call of each kernel, on the matrix
/// stamped at a job's DC operating point with the companion models of the
/// first transient step.
#[derive(Debug, Clone, Copy, Default)]
struct Kernels {
    stamp_us: f64,
    stamp_cached_us: f64,
    stamp_lane_us: f64,
    factor_us: f64,
    refactor_us: f64,
    solve_us: f64,
    fill_ratio: f64,
    ilu_factor_us: f64,
    gmres_solve_us: f64,
    lanes_refactor_us_per_lane: f64,
    lanes_solve_us_per_lane: f64,
}

/// Times `calls` calls of `f` one by one under a span; the median in
/// microseconds.
fn probe(tracer: &mut Tracer, name: &str, calls: usize, mut f: impl FnMut()) -> f64 {
    tracer.enter(name);
    let samples: Vec<f64> = (0..calls)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    tracer.exit();
    median(&samples)
}

/// `krylov` adds the ILU(0) and GMRES probes, `lanes` the lane-packed LU
/// ones; a probe that did not run leaves its cost at 0.
fn probe_kernels(
    job: &JobInput,
    sim: &SimOptions,
    calls: usize,
    (krylov, lanes): (bool, bool),
    tracer: &mut Tracer,
) -> Result<Kernels, String> {
    let sys = &job.sys;
    let n = sys.n_unknowns();
    let x = &job.x0;
    let caps = vec![0.0; sys.cap_state_count()];
    let h = job.bench.tstep;
    let input = StampInput {
        time: h,
        coeffs: Some(IntegCoeffs::new(sim.method, h, h)),
        x_prev: x,
        x_prev2: x,
        cap_currents: &caps,
        gmin: sim.gmin,
        gshunt: 0.0,
        source_scale: 1.0,
        ic_mode: false,
    };
    let ctl = sim.cache_ctl();
    let mut k = Kernels::default();

    let mut ws = sys.new_workspace();
    k.stamp_us = probe(tracer, "probe.mna.stamp", calls, || {
        black_box(sys.stamp(&mut ws, &input, x));
    });
    k.stamp_cached_us = probe(tracer, "probe.mna.stamp_with", calls, || {
        black_box(sys.stamp_with(&mut ws, &input, x, &ctl));
    });
    // A Newton point is one first-iteration stamp and one or more repeat
    // stamps; a pair of one each is timed and halved.
    let mut lane_ws = sys.new_workspace();
    k.stamp_lane_us = 0.5
        * probe(tracer, "probe.mna.stamp_lane", calls, || {
            black_box(sys.stamp_lane(&mut lane_ws, &input, x, &ctl, true));
            black_box(sys.stamp_lane(&mut lane_ws, &input, x, &ctl, false));
        });

    let a = ws.matrix.clone();
    let b = ws.rhs.clone();
    let opts = LuOptions::default();
    let sparse = |e: wavepipe_sparse::SparseError| format!("{}: {e}", job.bench.name);
    let mut lu = SparseLu::factor(&a, &opts).map_err(sparse)?;
    k.fill_ratio = lu.fill_ratio();
    k.factor_us = probe(tracer, "probe.lu.factor", calls, || {
        black_box(SparseLu::factor(&a, &opts).is_ok());
    });
    let mut refactored = true;
    k.refactor_us = probe(tracer, "probe.lu.refactor", calls, || {
        refactored &= lu.refactor(&a).is_ok();
    });
    let (mut sol, mut scratch) = (vec![0.0; n], vec![0.0; n]);
    k.solve_us = probe(tracer, "probe.lu.solve", calls, || {
        refactored &= lu.solve_with_scratch(&b, &mut sol, &mut scratch).is_ok();
        black_box(&sol);
    });
    if !refactored {
        return Err(format!("{}: LU refactor or solve failed in the probe", job.bench.name));
    }

    if krylov {
        probe_krylov(&mut k, &a, &b, &lu, calls, tracer)
            .map_err(|e| format!("{}: {e}", job.bench.name))?;
    }
    if lanes {
        probe_lanes(&mut k, &a, &b, &lu, calls, tracer)
            .map_err(|e| format!("{}: {e}", job.bench.name))?;
    }
    Ok(k)
}

fn probe_krylov(
    k: &mut Kernels,
    a: &CscMatrix,
    b: &[f64],
    lu: &SparseLu,
    calls: usize,
    tracer: &mut Tracer,
) -> Result<(), String> {
    // ILU(0) breaks down on MNA matrices with voltage-source branch rows;
    // the backend then preconditions with the standing LU factors, and so
    // does this probe. The attempt is timed either way.
    let mut sol = vec![0.0; b.len()];
    let mut ilu = None;
    k.ilu_factor_us = probe(tracer, "probe.ilu.factor", calls, || {
        ilu = Ilu0::factor(a).ok();
    });
    let gopts = GmresOptions::default();
    let mut converged = true;
    k.gmres_solve_us = probe(tracer, "probe.gmres.solve", calls, || {
        sol.fill(0.0);
        let out = match &ilu {
            Some(ilu) => gmres(a, ilu, b, &mut sol, &gopts),
            None => gmres(a, lu, b, &mut sol, &gopts),
        };
        converged &= out.is_ok_and(|o| o.converged);
    });
    if converged {
        Ok(())
    } else {
        Err("GMRES did not converge in the probe".into())
    }
}

fn probe_lanes(
    k: &mut Kernels,
    a: &CscMatrix,
    b: &[f64],
    lu: &SparseLu,
    calls: usize,
    tracer: &mut Tracer,
) -> Result<(), String> {
    const LANES: usize = 4;
    let mut pack = LanePackedLu::from_structure(LANES, lu);
    for lane in 0..LANES {
        if !pack.adopt(lane, lu) {
            return Err("lane pack refused its own factors".into());
        }
    }
    let mats = [Some(a); LANES];
    let mut errs = [None, None, None, None];
    k.lanes_refactor_us_per_lane = probe(tracer, "probe.lanes.refactor", calls, || {
        pack.refactor_lanes(&mats, &mut errs);
    }) / LANES as f64;
    if errs.iter().any(Option::is_some) {
        return Err("a lane failed to refactor in the probe".into());
    }
    let mut xs = vec![vec![0.0; b.len()]; LANES];
    k.lanes_solve_us_per_lane = probe(tracer, "probe.lanes.solve", calls, || {
        let mut it = xs.iter_mut();
        let mut reqs: [Option<LaneSolve<'_>>; LANES] =
            std::array::from_fn(|_| it.next().map(|x| LaneSolve { b, x }));
        pack.solve_lanes(&mut reqs);
    }) / LANES as f64;
    black_box(&xs);
    Ok(())
}

/// A deck of about `lines` lines the parser accepts, every value seeded.
fn emit_deck(lines: usize, seed: u64) -> String {
    use std::fmt::Write as _;
    let mut deck = String::from("parser probe deck\n.model NL NMOS (VTO=0.7 KP=100u W=10u L=1u)\n");
    deck.push_str("V1 n0 0 PULSE(0 3.3 1n 0.2n 0.2n 6n 14n)\nVdd vdd 0 3.3\n");
    let mut rng = Rng(seed);
    for i in 0..lines.saturating_sub(6) / 3 {
        let (r, c) = (rng.range(500.0, 1500.0), rng.range(5.0, 25.0));
        let _ = writeln!(deck, "R{i} n{i} n{} {r:.1}", i + 1);
        let _ = writeln!(deck, "C{i} n{} 0 {c:.2}f", i + 1);
        let _ = writeln!(deck, "M{i} vdd n{i} n{} NL", i + 1);
    }
    deck.push_str(".tran 0.1n 30n\n.end\n");
    deck
}

/// Runs `a` and `b` alternately `n` times each and returns the fastest time
/// of each. A ratio of the two isolates what the variant itself costs:
/// interference from the host only ever adds time, to either side.
fn alternate(n: usize, mut a: impl FnMut() -> f64, mut b: impl FnMut() -> f64) -> (f64, f64) {
    let (mut best_a, mut best_b) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..n {
        best_a = best_a.min(a());
        best_b = best_b.min(b());
    }
    (best_a, best_b)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn total_stats(pass: &Pass) -> SimStats {
    pass.outcomes.iter().fold(SimStats::new(), |acc, o| acc + o.stats)
}

pub fn run_per_layer(cfg: &RunConfig) -> Result<(Report, Tracer), String> {
    let w = cfg.workload;
    let runner = Runner::new(w.engine);
    let mut tracer = Tracer::new(true);
    let mut off = Tracer::new(false);
    let mut check = Checker::default();
    let mut report = Report::default();
    let (pairs, calls) = if cfg.quick { (2, 20) } else { (9, 200) };
    let few = pairs.min(3);

    let jobs = build_jobs(w.family, cfg.seed, cfg.quick, &runner.sim, &mut off)?;
    for _ in 0..2 {
        check.pass(&runner.pass(&jobs, &mut off));
    }

    // Untraced and traced passes alternate, so drift hits both alike. A
    // traced pass also rebuilds its inputs, under spans of their own. The
    // fastest traced pass is the one every per-layer number describes.
    let mut base_s = f64::INFINITY;
    let mut sample = Pass { wall_s: f64::INFINITY, ..Pass::default() };
    for _ in 0..pairs {
        let pass = runner.pass(&jobs, &mut off);
        check.pass(&pass);
        base_s = base_s.min(pass.wall_s);

        tracer.enter("pass");
        let mut pass = Pass::default();
        for idx in 0..job_count(w.family) {
            tracer.enter("job");
            let job = build_job(w.family, idx, cfg.seed, cfg.quick, &runner.sim, &mut tracer)?;
            runner.run_job(&job, &mut pass, &mut tracer);
            tracer.exit();
        }
        tracer.exit();
        check.pass(&pass);
        if pass.wall_s < sample.wall_s {
            sample = pass;
        }
    }
    let pass_s = sample.wall_s;
    let span_mean = |tracer: &Tracer, name: &str| {
        tracer.spans().iter().filter(|s| s.name == name).map(|s| s.seconds()).sum::<f64>()
            / pairs as f64
    };
    report.set("trace.overhead_ratio", ratio(pass_s, base_s));
    report.set("circuit.generate_s", span_mean(&tracer, "circuit.generate"));
    report.set("mna.compile_s", span_mean(&tracer, "mna.compile"));
    report.set("dcop.solve_s", span_mean(&tracer, "dcop"));
    report.set(
        "dcop.iterations",
        jobs.iter().map(|j| j.dcop.newton_iterations).sum::<usize>() as f64,
    );

    // The program's own counters.
    let s = total_stats(&sample);
    let stamp_s = s.stamp_ns as f64 / 1e9;
    let fresh = s.factorizations - s.refactorizations;
    let c = |v: usize| v as f64;
    report.set("mna.stamp_s", stamp_s);
    report.set("mna.stamp_share", ratio(stamp_s, pass_s));
    report.set("mna.device_evals", c(s.device_evals));
    report.set("mna.bypass_hit_ratio", ratio(c(s.bypass_hits), c(s.bypass_hits + s.device_evals)));
    report.set("mna.companion_hit_ratio", ratio(c(s.companion_hits), c(s.newton_iterations)));
    report.set("newton.iterations", c(s.newton_iterations));
    report.set("newton.iters_per_point", s.newton_per_step());
    report.set("newton.us_per_iter", ratio(pass_s * 1e6, c(s.newton_iterations)));
    report.set("newton.jacobian_reuse_ratio", ratio(c(s.jacobian_reuses), c(s.newton_iterations)));
    report.set("transient.points", c(s.steps_accepted));
    report.set("transient.rejected_lte", c(s.steps_rejected_lte));
    report.set("transient.rejected_newton", c(s.steps_rejected_newton));
    report.set(
        "transient.accept_ratio",
        ratio(c(s.steps_accepted), c(s.steps_accepted + s.steps_rejected())),
    );
    report.set("lu.fresh_factorizations", c(fresh));
    report.set("lu.refactorizations", c(s.refactorizations));
    report.set("lu.solves", c(s.solves));
    report.set("gmres.iterations", c(s.krylov_iterations));
    report.set("gmres.iters_per_solve", ratio(c(s.krylov_iterations), c(s.solves)));
    report.set("gmres.precond_refreshes", c(s.precond_refreshes));
    report.set("gmres.fallbacks", c(s.solver_fallbacks));

    // Kernel probes, one set per job. A reported per-call cost is the mean
    // over jobs weighted by how often the pass made that call, so that
    // count x cost reproduces the ledger.
    // The Krylov and lane kernels are probed where a workload or its
    // family's comparison uses them.
    let krylov = w.family == Family::Grid;
    let lanes =
        matches!((w.family, w.engine), (Family::Corner, _) | (Family::Grid, Engine::Serial));
    tracer.enter("probes");
    let kernels = jobs
        .iter()
        .map(|job| probe_kernels(job, &runner.sim, calls, (krylov, lanes), &mut tracer))
        .collect::<Result<Vec<_>, _>>()?;
    let deck = emit_deck(if cfg.quick { 200 } else { 5000 }, cfg.seed);
    let deck_lines = deck.lines().count();
    let mut parsed = true;
    let parse_us = probe(&mut tracer, "probe.circuit.parse", few, || {
        parsed &= parse_netlist(black_box(&deck)).is_ok();
    });
    tracer.exit();
    if !parsed {
        return Err("the parser rejected the probe deck".into());
    }
    report.set("circuit.parse_us_per_line", parse_us / deck_lines as f64);

    // Sweep instances all belong to the one corner job.
    let job_of = |outcome: usize| outcome.min(jobs.len() - 1);
    let weighted = |cost: fn(&Kernels) -> f64, count: fn(&SimStats) -> usize| {
        let mut per_job = vec![0usize; jobs.len()];
        for (i, o) in sample.outcomes.iter().enumerate() {
            per_job[job_of(i)] += count(&o.stats);
        }
        let total: f64 = kernels.iter().zip(&per_job).map(|(k, &n)| cost(k) * n as f64).sum();
        let calls: usize = per_job.iter().sum();
        if calls == 0 {
            kernels.iter().map(cost).sum::<f64>() / kernels.len() as f64
        } else {
            total / calls as f64
        }
    };
    let iters = |s: &SimStats| s.newton_iterations;
    let solves = |s: &SimStats| s.solves;
    let refacs = |s: &SimStats| s.refactorizations;
    let freshs = |s: &SimStats| s.factorizations - s.refactorizations;
    report.set("mna.stamp_call_us", weighted(|k| k.stamp_us, iters));
    report.set("mna.stamp_cached_call_us", weighted(|k| k.stamp_cached_us, iters));
    report.set("mna.stamp_lane_call_us", weighted(|k| k.stamp_lane_us, iters));
    report.set("lu.fill_ratio", weighted(|k| k.fill_ratio, solves));
    let factor_us = weighted(|k| k.factor_us, freshs);
    let refactor_us = weighted(|k| k.refactor_us, refacs);
    let solve_us = weighted(|k| k.solve_us, solves);
    report.set("lu.factor_us", factor_us);
    report.set("lu.refactor_us", refactor_us);
    report.set("lu.solve_us", solve_us);
    if krylov {
        report.set("ilu.factor_us", weighted(|k| k.ilu_factor_us, solves));
        report.set("gmres.solve_us", weighted(|k| k.gmres_solve_us, solves));
    }
    if lanes {
        let refactor_us = weighted(|k| k.lanes_refactor_us_per_lane, refacs);
        report.set("lanes.refactor_us_per_lane", refactor_us);
        report.set("lanes.solve_us_per_lane", weighted(|k| k.lanes_solve_us_per_lane, solves));
    }

    // The ledger: measured stamping time plus counted factorizations and
    // solves priced by the probes; what is left is convergence test, LTE,
    // commit, history and allocation (and, pipelined, waiting).
    let factor_s = (c(fresh) * factor_us + c(s.refactorizations) * refactor_us) / 1e6;
    let solve_s = c(s.solves) * solve_us / 1e6;
    report.set("ledger.stamp_s", stamp_s);
    report.set("ledger.factor_s_est", factor_s);
    report.set("ledger.solve_s_est", solve_s);
    report.set("ledger.other_s", pass_s - stamp_s - factor_s - solve_s);
    report.set("ledger.coverage", ratio(stamp_s + factor_s + solve_s, pass_s));

    // A pass with a recording probe attached against one without. A probe
    // makes a batch ineligible for the lane tier, so there both sides run
    // with the tier off and the ratio is the probe's cost, not the tier's.
    let plain = Runner { simd: false, ..runner.clone() };
    let recorder = RecordingProbe::shared();
    let probed = Runner {
        sim: runner.sim.clone().with_probe(ProbeHandle::new(Arc::clone(&recorder) as _)),
        ..plain.clone()
    };
    let mut events = 0;
    let (plain_s, probed_s) = alternate(
        few,
        || plain.pass(&jobs, &mut Tracer::new(false)).wall_s,
        || {
            let pass = probed.pass(&jobs, &mut Tracer::new(false));
            events = recorder.take_events().len();
            pass.wall_s
        },
    );
    report.set("telemetry.probe_overhead_ratio", ratio(probed_s, plain_s));
    report.set("telemetry.events", events as f64);

    match w.engine {
        Engine::Serial if w.family == Family::Digital => {
            let wide = Runner { sim: runner.sim.clone().with_stamp_workers(2), ..runner.clone() };
            let (w0, w2) = alternate(
                few,
                || runner.pass(&jobs, &mut off).wall_s,
                || wide.pass(&jobs, &mut Tracer::new(false)).wall_s,
            );
            report.set("parstamp.pass_ratio_w2", ratio(w2, w0));
        }
        Engine::Backward2 => {
            let serial = Runner::new(Engine::Serial);
            let mut serial_stats = SimStats::new();
            let (serial_s, piped_s) = alternate(
                few,
                || {
                    let pass = serial.pass(&jobs, &mut Tracer::new(false));
                    serial_stats = total_stats(&pass);
                    pass.wall_s
                },
                || runner.pass(&jobs, &mut off).wall_s,
            );
            let pipes = sample.outcomes.iter().filter_map(|o| o.pipe);
            let sum = |f: fn(&PipeStats) -> f64| pipes.clone().map(|p| f(&p)).sum::<f64>();
            let critical_s = sum(|p| p.critical_ns as f64) / 1e9;
            let (accepted, rejected) =
                (sum(|p| p.lead_accepted as f64), sum(|p| p.lead_rejected as f64));
            let modeled = ratio(serial_stats.work_units() as f64, sum(|p| p.critical_work as f64));
            let measured = ratio(serial_s, piped_s);
            report.set("core.rounds", sum(|p| p.rounds as f64));
            report.set("core.lead_accept_ratio", ratio(accepted, accepted + rejected));
            report.set(
                "core.work_ratio",
                ratio(c(s.newton_iterations), c(serial_stats.newton_iterations)),
            );
            report.set("core.critical_s", critical_s);
            report.set("core.overhead_s", pass_s - critical_s);
            report.set("core.modeled_speedup", modeled);
            report.set("core.measured_speedup", measured);
            report.set("core.model_error", ratio(modeled, measured) - 1.0);
            report.set("core.workers_lost", sum(|p| p.workers_lost as f64));
        }
        Engine::Batch => {
            let b = sample.batch.unwrap_or_default();
            let scalar = Runner { simd: false, ..runner.clone() };
            let (scalar_s, simd_s) = alternate(
                few,
                || scalar.pass(&jobs, &mut Tracer::new(false)).wall_s,
                || runner.pass(&jobs, &mut off).wall_s,
            );
            let mut loop_s = f64::INFINITY;
            for _ in 0..few.min(2) {
                loop_s = loop_s.min(runner.independent_loop(&jobs[0])?);
            }
            report.set("batch.prep_s", b.prep_s);
            report.set("batch.run_s", b.wall_s);
            report.set("batch.instances_per_s", ratio(sample.outcomes.len() as f64, pass_s));
            report.set("batch.lane_width", b.lane_width as f64);
            report.set("batch.quarantined", b.quarantined as f64);
            report.set("batch.simd_speedup", ratio(scalar_s, simd_s));
            report.set("batch.speedup_vs_loop", ratio(loop_s, simd_s));
        }
        Engine::Serial | Engine::Gmres => {}
    }

    report.notes.push(format!(
        "{pairs} traced passes alternated with {pairs} untraced; the fastest traced pass took {pass_s:.9} s; kernel probes: median of {calls} calls"
    ));
    report.attempted = check.attempted;
    report.failed = check.failed;
    report.notes.extend(check.notes);
    Ok((report, tracer))
}
