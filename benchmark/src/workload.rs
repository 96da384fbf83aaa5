//! The six workloads: what each one runs, how its inputs derive from the
//! seed, and how one job is built and executed through public API only.

use crate::trace::Tracer;
use std::sync::Arc;
use std::time::Instant;
use wavepipe_batch::{BatchSim, ParamKind};
use wavepipe_circuit::generators::{self, Benchmark};
use wavepipe_circuit::{Circuit, Element};
use wavepipe_core::{run_wavepipe, Scheme, WavePipeOptions};
use wavepipe_engine::dcop::dc_operating_point;
use wavepipe_engine::newton::LinearCache;
use wavepipe_engine::{
    run_transient, GmresConfig, MnaSystem, SimOptions, SimStats, SolverHandle, TransientResult,
};

/// Which circuits a workload simulates. Workloads of one family get the same
/// circuits from the same seed, so their pass times divide into speedups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// `inverter_chain` + `nand_chain`: transistor-heavy, tiny matrices.
    Digital,
    /// `power_grid`: one mesh of ~1000 unknowns, few nonlinear devices.
    Grid,
    /// `inverter_chain(8)` swept over seeded process corners.
    Corner,
}

/// Which entry point runs the jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// `run_transient`, direct LU.
    Serial,
    /// `run_wavepipe(Scheme::Backward, 2)`, direct LU.
    Backward2,
    /// `run_transient` through the GMRES backend.
    Gmres,
    /// `BatchSim`, lane tier at its default.
    Batch,
}

#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub family: Family,
    pub engine: Engine,
    /// Why the workload exists; copied into `BENCHMARK.json`.
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "digital_serial",
        family: Family::Digital,
        engine: Engine::Serial,
        why: "transistor-heavy chains, matrices under 100 unknowns: stamping, bypass and Newton caches do the work, LU does little; the single-threaded baseline",
    },
    Workload {
        name: "digital_bp2",
        family: Family::Digital,
        engine: Engine::Backward2,
        why: "the same chains through Backward x2: solves cost microseconds, so round dispatch, sync-wait and discarded leads dominate; pipelining is predicted not to pay",
    },
    Workload {
        name: "grid_serial",
        family: Family::Grid,
        engine: Engine::Serial,
        why: "a 32x32 power grid, 1032 unknowns: refactor and triangular solve do the work, stamping little; a stamping optimisation should leave it flat",
    },
    Workload {
        name: "grid_bp2",
        family: Family::Grid,
        engine: Engine::Backward2,
        why: "the same grid through Backward x2: solves are long and leads commit, the regime the paper targets; its headline speedup is grid_serial/grid_bp2",
    },
    Workload {
        name: "grid_gmres",
        family: Family::Grid,
        engine: Engine::Gmres,
        why: "the same grid through the GMRES backend: uses the solver seam differently, so a seam or ordering change that helps direct LU but costs Krylov shows",
    },
    Workload {
        name: "corner_sweep",
        family: Family::Corner,
        engine: Engine::Batch,
        why: "BatchSim over 200 seeded corners of an 8-stage chain on 2 threads: batch, lane-packed LU and stamp_lane do all the work, the serial step loop none",
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// SplitMix64: the benchmark's only source of randomness.
pub struct Rng(pub u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64)
    }
}

/// Instances in the corner sweep.
pub fn sweep_instances(quick: bool) -> usize {
    if quick {
        12
    } else {
        200
    }
}

/// Every how-manieth sweep instance is checked against the reference.
pub const SWEEP_REFERENCE_STRIDE: usize = 25;

pub fn job_count(family: Family) -> usize {
    match family {
        Family::Digital => 2,
        Family::Grid | Family::Corner => 1,
    }
}

/// The program's own generator call for job `idx`, nothing else: this is
/// the part of input building that `circuit.generate_s` times.
fn generate(family: Family, idx: usize, quick: bool) -> Benchmark {
    match (family, idx, quick) {
        (Family::Digital, 0, false) => generators::inverter_chain(80),
        (Family::Digital, _, false) => generators::nand_chain(40),
        (Family::Digital, 0, true) => generators::inverter_chain(6),
        (Family::Digital, _, true) => generators::nand_chain(3),
        (Family::Grid, _, false) => generators::power_grid(32, 32),
        (Family::Grid, _, true) => generators::power_grid(6, 6),
        (Family::Corner, _, false) => generators::inverter_chain(8),
        (Family::Corner, _, true) => generators::inverter_chain(4),
    }
}

/// Multiplies every capacitor by a seeded value in `[0.95, 1.05)`.
fn perturb_capacitors(ckt: &mut Circuit, rng: &mut Rng) {
    let names: Vec<String> = ckt
        .elements()
        .iter()
        .filter(|e| matches!(e, Element::Capacitor { .. }))
        .map(|e| e.name().to_string())
        .collect();
    for name in names {
        if let Some(Element::Capacitor { capacitance, .. }) = ckt.element_mut(&name) {
            *capacitance *= rng.range(0.95, 1.05);
        }
    }
}

/// A corner sweep: the compiled batch plus what is needed to rebuild any
/// instance as a stand-alone circuit.
#[derive(Debug, Clone)]
pub struct Sweep {
    pub sim: BatchSim,
    stages: usize,
    pub rows: Vec<Vec<f64>>,
}

impl Sweep {
    /// Instance `i` as its own circuit, for the independent-loop comparison
    /// and the accuracy reference.
    pub fn instance_circuit(&self, base: &Circuit, i: usize) -> Circuit {
        let mut ckt = base.clone();
        let row = &self.rows[i];
        for s in 0..self.stages {
            if let Some(Element::Mosfet { model, .. }) = ckt.element_mut(&format!("Mn{s}")) {
                model.kp = row[3 * s];
            }
            if let Some(Element::Mosfet { model, .. }) = ckt.element_mut(&format!("Mp{s}")) {
                model.kp = row[3 * s + 1];
            }
            if let Some(Element::Capacitor { capacitance, .. }) = ckt.element_mut(&format!("Cl{s}"))
            {
                *capacitance = row[3 * s + 2];
            }
        }
        ckt
    }
}

/// Everything a pass needs for one job, with the time each part of building
/// it took. `sys` and `x0` also feed the kernel probes.
#[derive(Debug)]
pub struct JobInput {
    pub bench: Benchmark,
    pub sys: Arc<MnaSystem>,
    pub x0: Vec<f64>,
    pub dcop: SimStats,
    pub sweep: Option<Sweep>,
    pub generate_s: f64,
    pub compile_s: f64,
    pub dcop_s: f64,
}

impl JobInput {
    /// Set-up time of this job: generator call + compile + DC operating
    /// point. The seeded patching of values is input generation by the
    /// benchmark and is left out.
    pub fn setup_s(&self) -> f64 {
        self.generate_s + self.compile_s + self.dcop_s
    }
}

/// Counts the chain's stages and draws each instance's row: per stage the
/// `kp` of `Mn{i}` and `Mp{i}` and the capacitance of `Cl{i}`, each times a
/// seeded value in `[0.9, 1.1)`.
fn draw_corners(
    ckt: &Circuit,
    instances: usize,
    rng: &mut Rng,
) -> Result<(usize, Vec<Vec<f64>>), String> {
    let mut nominal = Vec::new();
    let mut stages = 0;
    while let Some(Element::Mosfet { model: nmos, .. }) = ckt.element(&format!("Mn{stages}")) {
        let (
            Some(Element::Mosfet { model: pmos, .. }),
            Some(Element::Capacitor { capacitance, .. }),
        ) = (ckt.element(&format!("Mp{stages}")), ckt.element(&format!("Cl{stages}")))
        else {
            return Err(format!("stage {stages} lacks Mp{stages} or Cl{stages}"));
        };
        nominal.extend([nmos.kp, pmos.kp, *capacitance]);
        stages += 1;
    }
    let rows = (0..instances)
        .map(|_| nominal.iter().map(|&v| v * rng.range(0.9, 1.1)).collect())
        .collect();
    Ok((stages, rows))
}

/// `BatchSim::compile`, one column per swept value, one instance per row.
fn compile_sweep(
    b: &Benchmark,
    sim: &SimOptions,
    stages: usize,
    rows: Vec<Vec<f64>>,
) -> Result<Sweep, String> {
    let mut batch = BatchSim::compile(&b.circuit, b.tstep, b.tstop)
        .map_err(|e| e.to_string())?
        .with_sim(sim.clone());
    for s in 0..stages {
        for (name, kind) in [
            (format!("Mn{s}"), ParamKind::MosKp),
            (format!("Mp{s}"), ParamKind::MosKp),
            (format!("Cl{s}"), ParamKind::Capacitance),
        ] {
            batch.param(&name, kind).map_err(|e| e.to_string())?;
        }
    }
    for row in &rows {
        batch.add_instance(row).map_err(|e| e.to_string())?;
    }
    Ok(Sweep { sim: batch, stages, rows })
}

/// Builds job `idx` of the workload's family from the seed, under spans
/// `circuit.generate`, `mna.compile` and `dcop`. Everything seeded is drawn
/// outside the spans.
pub fn build_job(
    family: Family,
    idx: usize,
    seed: u64,
    quick: bool,
    sim: &SimOptions,
    tracer: &mut Tracer,
) -> Result<JobInput, String> {
    // One stream per (seed, family, job), so workloads of a family share
    // their circuits.
    let mut rng = Rng(seed ^ ((family as u64 + 1) << 56) ^ ((idx as u64 + 1) << 48));
    let (mut bench, generate_s) = tracer.timed("circuit.generate", || generate(family, idx, quick));
    perturb_capacitors(&mut bench.circuit, &mut rng);

    let (compiled, compile_s) = if family == Family::Corner {
        let (stages, rows) = draw_corners(&bench.circuit, sweep_instances(quick), &mut rng)?;
        let (sweep, dt) = tracer.timed("mna.compile", || compile_sweep(&bench, sim, stages, rows));
        (sweep.map(|s| (Arc::clone(s.sim.system()), Some(s))), dt)
    } else {
        let (sys, dt) = tracer.timed("mna.compile", || MnaSystem::compile(&bench.circuit));
        (sys.map(|sys| (Arc::new(sys), None)).map_err(|e| e.to_string()), dt)
    };
    let (sys, sweep) = compiled?;

    let mut dcop = SimStats::new();
    let (x0, dcop_s) = tracer.timed("dcop", || {
        let mut ws = sys.new_workspace();
        let mut cache = LinearCache::for_options(sim);
        dc_operating_point(&sys, &mut ws, &mut cache, None, sim, &mut dcop)
    });
    let x0 = x0.map_err(|e| format!("{}: DC operating point failed: {e}", bench.name))?;
    Ok(JobInput { bench, sys, x0, dcop, sweep, generate_s, compile_s, dcop_s })
}

pub fn build_jobs(
    family: Family,
    seed: u64,
    quick: bool,
    sim: &SimOptions,
    tracer: &mut Tracer,
) -> Result<Vec<JobInput>, String> {
    (0..job_count(family)).map(|idx| build_job(family, idx, seed, quick, sim, tracer)).collect()
}

/// Counters of a pipelined run that `SimStats` does not carry.
#[derive(Debug, Clone, Copy, Default)]
pub struct PipeStats {
    pub rounds: usize,
    pub lead_accepted: usize,
    pub lead_rejected: usize,
    pub critical_ns: u128,
    pub critical_work: u64,
    pub workers_lost: usize,
}

#[derive(Debug, Clone, Copy, Default)]
pub struct BatchStats {
    pub prep_s: f64,
    pub wall_s: f64,
    pub lane_width: usize,
    pub quarantined: usize,
}

/// What one job (or one sweep instance) produced.
#[derive(Debug)]
pub struct Outcome {
    pub result: Result<TransientResult, String>,
    pub stats: SimStats,
    pub pipe: Option<PipeStats>,
    /// Stop time the run had to reach.
    pub tstop: f64,
}

/// One execution of the workload's job list.
#[derive(Debug, Default)]
pub struct Pass {
    /// Sum of the jobs' `run` times: time to solution, set-up inside the
    /// `run_*` call included.
    pub wall_s: f64,
    pub outcomes: Vec<Outcome>,
    pub batch: Option<BatchStats>,
}

/// How jobs are executed. The workload fixes `engine`; the traced run varies
/// the other fields to measure one layer against another.
#[derive(Debug, Clone)]
pub struct Runner {
    pub engine: Engine,
    pub sim: SimOptions,
    pub threads: usize,
    pub simd: bool,
}

/// Threads a workload may use: never more than two, never more than the
/// host has.
pub fn thread_budget() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from).min(2)
}

impl Runner {
    pub fn new(engine: Engine) -> Self {
        // Stamp workers and the solver are pinned, so no `WAVEPIPE_*`
        // default can reach a workload.
        let solver = match engine {
            Engine::Gmres => SolverHandle::gmres(GmresConfig::default()),
            _ => SolverHandle::direct(),
        };
        let threads = match engine {
            Engine::Serial | Engine::Gmres => 1,
            Engine::Backward2 | Engine::Batch => thread_budget(),
        };
        Runner {
            engine,
            sim: SimOptions::default().with_stamp_workers(0).with_solver(solver),
            threads,
            simd: true,
        }
    }

    /// Runs one job under a `run` span and appends what it produced.
    pub fn run_job(&self, job: &JobInput, pass: &mut Pass, tracer: &mut Tracer) {
        let b = &job.bench;
        let outcome = |result: Result<TransientResult, String>| {
            let stats = result.as_ref().map_or_else(|_| SimStats::new(), |r| *r.stats());
            Outcome { result, stats, pipe: None, tstop: b.tstop }
        };
        match self.engine {
            Engine::Serial | Engine::Gmres => {
                let (res, dt) =
                    tracer.timed("run", || run_transient(&b.circuit, b.tstep, b.tstop, &self.sim));
                pass.wall_s += dt;
                pass.outcomes.push(outcome(res.map_err(|e| e.to_string())));
            }
            Engine::Backward2 => {
                let opts = WavePipeOptions::new(Scheme::Backward, self.threads)
                    .with_stamp_workers(self.sim.stamp_workers)
                    .with_sim(self.sim.clone());
                let (res, dt) =
                    tracer.timed("run", || run_wavepipe(&b.circuit, b.tstep, b.tstop, &opts));
                pass.wall_s += dt;
                pass.outcomes.push(match res {
                    Ok(rep) => Outcome {
                        // Work summed over both threads, discarded leads included.
                        stats: rep.total,
                        pipe: Some(PipeStats {
                            rounds: rep.rounds,
                            lead_accepted: rep.lead_accepted,
                            lead_rejected: rep.lead_rejected,
                            critical_ns: rep.critical_ns,
                            critical_work: rep.critical_work,
                            workers_lost: rep.workers_lost,
                        }),
                        ..outcome(Ok(rep.result))
                    },
                    Err(e) => outcome(Err(e.to_string())),
                });
            }
            Engine::Batch => {
                let sweep = job.sweep.as_ref().expect("a corner job carries its sweep");
                let batch = sweep
                    .sim
                    .clone()
                    .with_sim(self.sim.clone())
                    .with_threads(self.threads)
                    .with_simd(self.simd);
                let mut slots: Vec<_> = sweep.rows.iter().map(|_| None).collect();
                let (res, dt) = tracer.timed("run", || batch.run_each(|i, r| slots[i] = Some(r)));
                pass.wall_s += dt;
                let mut quarantined = 0;
                pass.outcomes.extend(slots.into_iter().map(|slot| {
                    outcome(match (slot, &res) {
                        (Some(Ok(r)), _) => Ok(r),
                        (Some(Err(q)), _) => {
                            quarantined += 1;
                            Err(q.to_string())
                        }
                        (None, Err(e)) => Err(e.to_string()),
                        (None, Ok(_)) => Err("the batch returned no result".to_string()),
                    })
                }));
                if let Ok(d) = res {
                    pass.batch = Some(BatchStats {
                        prep_s: d.prep_ns as f64 / 1e9,
                        wall_s: d.wall_ns as f64 / 1e9,
                        lane_width: d.lane_width,
                        quarantined,
                    });
                }
            }
        }
    }

    pub fn pass(&self, jobs: &[JobInput], tracer: &mut Tracer) -> Pass {
        let mut pass = Pass::default();
        for job in jobs {
            self.run_job(job, &mut pass, tracer);
        }
        pass
    }

    /// The sweep as one `run_transient` call per patched circuit, one after
    /// the other: the loop a user without `BatchSim` writes. Returns the
    /// wall time.
    pub fn independent_loop(&self, job: &JobInput) -> Result<f64, String> {
        let sweep = job.sweep.as_ref().expect("a corner job carries its sweep");
        let b = &job.bench;
        let circuits: Vec<Circuit> =
            (0..sweep.rows.len()).map(|i| sweep.instance_circuit(&b.circuit, i)).collect();
        let t0 = Instant::now();
        for ckt in &circuits {
            let r = run_transient(ckt, b.tstep, b.tstop, &self.sim).map_err(|e| e.to_string())?;
            std::hint::black_box(r);
        }
        Ok(t0.elapsed().as_secs_f64())
    }
}

/// The accuracy reference: a serial run at a tenth of `reltol` and `vntol`
/// with bypass, chord Newton and the companion cache off.
pub fn reference_sim() -> SimOptions {
    let d = SimOptions::default();
    let (reltol, vntol) = (d.reltol / 10.0, d.vntol / 10.0);
    d.with_stamp_workers(0)
        .with_solver(SolverHandle::direct())
        .with_reltol(reltol)
        .with_vntol(vntol)
        .with_bypass(false)
        .with_chord_newton(false)
        .with_companion_cache(false)
}
