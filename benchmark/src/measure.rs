//! The untraced run: one pass on fixed inputs for `rms_dev` and
//! `peak_rss_mib`, then warm-up and timed passes on the seed's inputs with a
//! set-up repetition after each, output checks, and the end-to-end metrics.

use crate::metrics::{Report, RMS_DEV_LIMIT};
use crate::stats::{fastest, median, median_of_block_minima, percentile};
use crate::trace::Tracer;
use crate::workload::{
    build_jobs, reference_sim, Family, JobInput, Outcome, Pass, Runner, Workload,
    SWEEP_REFERENCE_STRIDE,
};
use std::time::Instant;
use wavepipe_core::verify::compare;
use wavepipe_engine::{run_transient, TransientResult};

#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: &'static Workload,
    pub seed: u64,
    /// The timed passes run at least this long.
    pub seconds: f64,
    /// Small circuits, three timed passes: a smoke run, not a measurement.
    pub quick: bool,
}

/// Warm-up runs at least this many passes and at least this long: on a
/// shared host a core that sat idle during set-up takes a second or so to
/// come back to speed, which the two-thread workloads would otherwise time.
const WARMUP_PASSES: usize = 3;
const WARMUP_SECONDS: f64 = 2.0;
/// Fewest timed passes of a full run: with 41 samples the 31st (p75) still
/// has ten beyond it.
const MIN_TIMED_PASSES: usize = 41;
const QUICK_PASSES: usize = 3;
/// `pass_tail_s` is this percentile of the timed passes.
const TAIL_PERCENTILE: u32 = 75;
/// `setup_s` is the median over blocks of this many set-ups of each block's
/// fastest. After a two-thread pass the thread that sets up is left on
/// either virtual core, and for minutes at a time one of the two runs it
/// 1.4x slower: the plain median of a run's set-ups moved by 23 % between
/// two ten-run sets of one commit, this by 7 %.
const SETUP_BLOCK: usize = 8;
/// Seed of the inputs `rms_dev` and `peak_rss_mib` are measured on, whatever
/// `--seed` says. The largest deviation over a circuit's nodes follows the
/// step grid and moves by 10 % from one seed to the next, and the peak of a
/// 7 MiB process jumps by 1 MiB when a waveform buffer doubles once more; on
/// fixed inputs both are properties of the program alone and hold bounds
/// far below that.
const FIXED_SEED: u64 = 20_080_608;

/// What identifies a job's output: work counters and the waveform's bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Fingerprint {
    newton_iterations: usize,
    points: usize,
    waveform: u64,
}

/// FNV-1a over the bits of every time and sample; `None` when a value is
/// not finite.
fn waveform_hash(r: &TransientResult) -> Option<u64> {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    let mut ok = true;
    let mut eat = |v: f64| {
        ok &= v.is_finite();
        h = (h ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01b3);
    };
    for (k, &t) in r.times().iter().enumerate() {
        eat(t);
        r.solution(k).iter().copied().for_each(&mut eat);
    }
    ok.then_some(h)
}

/// Checks every pass of a run: each job must reach `tstop` with finite
/// samples, and must repeat the first pass's counters and waveform exactly.
#[derive(Debug, Default)]
pub struct Checker {
    first: Vec<Fingerprint>,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Checker {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(format!("FAILED: {what}"));
        }
    }

    fn check(&mut self, idx: usize, o: &Outcome) {
        self.attempted += 1;
        let r = match &o.result {
            Ok(r) => r,
            Err(e) => return self.fail(format!("job {idx}: {e}")),
        };
        let t_end = r.times().last().copied().unwrap_or(0.0);
        if t_end < o.tstop * (1.0 - 1e-9) {
            return self.fail(format!("job {idx}: stopped at {t_end:e} short of {:e}", o.tstop));
        }
        let Some(waveform) = waveform_hash(r) else {
            return self.fail(format!("job {idx}: non-finite sample"));
        };
        let fp = Fingerprint {
            newton_iterations: o.stats.newton_iterations,
            points: o.stats.steps_accepted,
            waveform,
        };
        match self.first.get(idx) {
            None => self.first.push(fp),
            Some(first) if *first != fp => {
                self.fail(format!("job {idx}: {fp:?} differs from the first pass's {first:?}"));
            }
            Some(_) => {}
        }
    }

    pub fn pass(&mut self, pass: &Pass) {
        for (idx, o) in pass.outcomes.iter().enumerate() {
            self.check(idx, o);
        }
    }

    /// Adds the counts and notes of a checker that watched other inputs.
    fn absorb(&mut self, other: Checker) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.notes.extend(other.notes);
    }
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Largest relative RMS deviation of the pass's waveforms from a reference
/// run at a tenth of the tolerances with every Newton cache off. A job
/// beyond [`RMS_DEV_LIMIT`] is marked failed.
fn rms_dev(
    family: Family,
    jobs: &[JobInput],
    pass: &Pass,
    check: &mut Checker,
) -> Result<f64, String> {
    let sim = reference_sim();
    let mut worst = 0.0_f64;
    let mut judge = |idx: usize, reference: &TransientResult, check: &mut Checker| {
        if let Ok(r) = &pass.outcomes[idx].result {
            let dev = compare(reference, r).rms_rel();
            if dev.is_nan() || dev > RMS_DEV_LIMIT {
                check.fail(format!("job {idx}: rms_dev {dev:e} beyond {RMS_DEV_LIMIT:e}"));
            }
            worst = worst.max(dev);
        }
    };
    for (j, job) in jobs.iter().enumerate() {
        let b = &job.bench;
        if family == Family::Corner {
            let sweep = job.sweep.as_ref().expect("a corner job carries its sweep");
            for i in (0..sweep.rows.len()).step_by(SWEEP_REFERENCE_STRIDE) {
                let ckt = sweep.instance_circuit(&b.circuit, i);
                let reference =
                    run_transient(&ckt, b.tstep, b.tstop, &sim).map_err(|e| e.to_string())?;
                judge(i, &reference, check);
            }
        } else {
            let reference =
                run_transient(&b.circuit, b.tstep, b.tstop, &sim).map_err(|e| e.to_string())?;
            judge(j, &reference, check);
        }
    }
    Ok(worst)
}

/// `peak_rss_mib` and `rms_dev`, from the first pass of the process on the
/// inputs of [`FIXED_SEED`]: what a user who runs the jobs once sees. Later
/// passes only add what the allocator keeps of their predecessors, which on
/// the two-thread workloads moves the peak by 8 % from pass to pass.
fn seedless_metrics(
    w: &Workload,
    runner: &Runner,
    quick: bool,
    check: &mut Checker,
) -> Result<(f64, f64), String> {
    let mut off = Tracer::new(false);
    let jobs = build_jobs(w.family, FIXED_SEED, quick, &runner.sim, &mut off)?;
    let mut fixed = Checker::default();
    let pass = runner.pass(&jobs, &mut off);
    fixed.pass(&pass);
    // Read before the reference runs, whose waveforms are larger.
    let rss = peak_rss_mib()?;
    let dev = rms_dev(w.family, &jobs, &pass, &mut fixed)?;
    check.absorb(fixed);
    Ok((rss, dev))
}

pub fn run_end_to_end(cfg: &RunConfig) -> Result<Report, String> {
    let w = cfg.workload;
    let runner = Runner::new(w.engine);
    let mut off = Tracer::new(false);
    let mut report = Report::default();
    let mut check = Checker::default();
    let (rss, dev) = seedless_metrics(w, &runner, cfg.quick, &mut check)?;

    let jobs = build_jobs(w.family, cfg.seed, cfg.quick, &runner.sim, &mut off)?;
    let mut timed = Checker::default();
    // A quick run ignores the clock: one warm-up pass, three timed ones.
    let (warm_passes, warm_s, min_passes, seconds) = if cfg.quick {
        (1, 0.0, QUICK_PASSES, 0.0)
    } else {
        (WARMUP_PASSES, WARMUP_SECONDS, MIN_TIMED_PASSES, cfg.seconds)
    };
    let t0 = Instant::now();
    let mut warm = 0;
    while warm < warm_passes || t0.elapsed().as_secs_f64() < warm_s {
        timed.pass(&runner.pass(&jobs, &mut off));
        warm += 1;
    }
    let t0 = Instant::now();
    let (mut walls, mut setup) = (Vec::new(), Vec::new());
    while walls.len() < min_passes || t0.elapsed().as_secs_f64() < seconds {
        let pass = runner.pass(&jobs, &mut off);
        timed.pass(&pass);
        walls.push(pass.wall_s);
        drop(pass);
        // One set-up repetition after every pass, so that both timings
        // sample the same stretch of host time: set-up timed in a block of
        // its own ran at two speeds, depending on which core the thread was
        // left on by the two-thread passes before it.
        let rebuilt = build_jobs(w.family, cfg.seed, cfg.quick, &runner.sim, &mut off)?;
        setup.push(rebuilt.iter().map(JobInput::setup_s).sum::<f64>());
    }
    // This seed's outputs against their own reference: pass or fail only.
    let last = runner.pass(&jobs, &mut off);
    timed.pass(&last);
    let seed_dev = rms_dev(w.family, &jobs, &last, &mut timed)?;
    check.absorb(timed);

    report.set("setup_s", median_of_block_minima(&setup, SETUP_BLOCK));
    report.set("pass_s", median(&walls));
    report.set("pass_tail_s", percentile(&walls, TAIL_PERCENTILE));
    report.set("pass_best_s", fastest(&walls));
    report.set("rms_dev", dev);
    report.set("peak_rss_mib", rss);
    report.notes.push(format!(
        "n = {} timed passes and as many set-ups: pass_s is the passes' median, pass_tail_s their p{TAIL_PERCENTILE}, pass_best_s the fastest; setup_s the median over blocks of {SETUP_BLOCK} set-ups of each block's fastest (plain median {:.9} s); rms_dev and peak_rss_mib on the inputs of seed {FIXED_SEED} (rms_dev on this seed's: {seed_dev:e})",
        walls.len(),
        median(&setup)
    ));
    report.samples.insert("pass_s", walls);
    report.samples.insert("setup_s", setup);
    report.attempted = check.attempted;
    report.failed = check.failed;
    report.notes.extend(check.notes);
    Ok(report)
}
