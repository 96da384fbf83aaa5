//! What a pipelined run has that a serial one does not: the lanes. The
//! [`Driver`] owns the worker pool and the concurrent round executor, the
//! hand-off ledger, the critical-path accounting and the lead-placement
//! state; every step decision it delegates to the engine's
//! [`StepController`] — the one the serial loop runs on — so there is no
//! second copy of step control here to keep equal.

use crate::options::{Scheme, WavePipeOptions};
use crate::report::WavePipeReport;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, RecvError, Sender, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};
use wavepipe_circuit::Circuit;
use wavepipe_engine::{
    Commit, EngineError, HistoryWindow, MnaSystem, PointSolution, PointSolver, Result, SimOptions,
    SimStats, SolverHandle, StepController,
};
use wavepipe_telemetry::{DiscardReason, EventKind};

/// Renders a `catch_unwind` payload as a human-readable cause string.
pub(crate) fn panic_cause(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic payload of unknown type".to_string()
    }
}

/// How long a lane polls its channel for the next hand-off before it parks
/// in the blocking `recv()`. One constant, justified by the per-round waits
/// behind the ledger (DESIGN.md, "Round hand-off"): parked, every hand-off
/// costs a futex wake and a halted vCPU, which on the digital chains (solves
/// of 20-50 us) is most of the round. 200 us covers nearly every wait there
/// and four in five on the 32x32 grid, where 50 us covered a third and
/// measured 8-14 % slower. Waits beyond it run to milliseconds (narrow rounds,
/// long lead solves) and absorb a park, so the bound is also the most an
/// idle lane burns per hand-off.
const POLL_BOUND: Duration = Duration::from_micros(200);

/// How many times a lost pool worker (panicked solve) is respawned before its
/// lane is retired and rounds run narrower. Every pool task is speculative,
/// so worker loss never moves a result; this only bounds the respawn churn a
/// persistently faulting lane may cause. One respawn is what
/// `tests/failure_modes.rs` exercises: a lane lost twice is retired and the
/// run goes on narrower. E10 measured the fault-free cost of the whole
/// runtime below noise.
const WORKER_RESPAWNS: usize = 1;

/// Receives the next item of a hand-off channel: polls for at most `bound`
/// ([`POLL_BOUND`] at both call sites; a parameter so the tests can tell the
/// two phases apart), then parks in the blocking `recv()`. Between polls the
/// lane yields rather than spins, which is what lets every run poll, however
/// many cores it has: a spinning lane holds its core for the whole bound
/// while the thread it waits for may be queued behind it (measured 5x on an
/// 8x8 grid with the worker woken onto the coordinator's core); yielding
/// hands the core over and costs one cheap syscall when nobody else wants it.
/// A disconnected channel reports as it does from `recv()`, whichever phase
/// notices it.
fn recv_handoff<T>(rx: &Receiver<T>, bound: Duration) -> std::result::Result<T, RecvError> {
    let start = Instant::now();
    loop {
        match rx.try_recv() {
            Ok(item) => return Ok(item),
            Err(TryRecvError::Disconnected) => return Err(RecvError),
            Err(TryRecvError::Empty) => {}
        }
        if start.elapsed() >= bound {
            break;
        }
        std::thread::yield_now();
    }
    rx.recv()
}

/// One concurrent point-solve request.
pub(crate) struct Task {
    /// History window the solve integrates from (true or speculative);
    /// tasks integrating from the same window share one snapshot.
    pub hw: Arc<HistoryWindow>,
    /// Target time.
    pub t: f64,
    /// Optional Newton initial guess (defaults to the window's predictor).
    pub guess: Option<Vec<f64>>,
}

/// A solve request shipped to a pool worker.
struct Job {
    task: Task,
    max_iters: usize,
    /// Position in the round's result vector.
    slot: usize,
}

/// One pool lane: the job channel and thread handle, plus the remaining
/// respawn budget. `sender` is `None` while the worker is dead.
struct WorkerSlot {
    sender: Option<Sender<Job>>,
    handle: Option<std::thread::JoinHandle<()>>,
    respawns_left: usize,
}

/// A pool of persistent worker threads, each owning its own [`PointSolver`]
/// (matrix values, LU factors, junction state survive across rounds, so the
/// refactorization fast path stays warm). Compared to spawning scoped
/// threads per round, this removes thread-creation latency from every
/// round's wall time.
///
/// Fault tolerance: each worker runs its solves under `catch_unwind` and
/// *always* replies to a received job — a panic is reported as
/// [`EngineError::WorkerLost`] before the worker retires — so the master's
/// result collection can never hang on a dead lane. Lost workers are
/// respawned up to [`WORKER_RESPAWNS`] times per slot; past that budget the
/// pool shrinks and the driver runs narrower rounds, degrading ultimately to
/// the serial single-lane schedule.
pub(crate) struct WorkerPool {
    slots: Vec<WorkerSlot>,
    results: Receiver<(usize, Result<PointSolution>)>,
    /// Kept so the result channel can never disconnect (workers hold clones)
    /// and so respawned workers can be handed a sender.
    result_tx: Sender<(usize, Result<PointSolution>)>,
    sys: Arc<MnaSystem>,
    lane_sim: SimOptions,
}

impl WorkerPool {
    /// Spawns `n` workers for the given compiled system, each with a respawn
    /// budget of [`WORKER_RESPAWNS`].
    fn new(sys: &Arc<MnaSystem>, sim: &SimOptions, n: usize) -> Self {
        let (result_tx, results) = channel();
        let mut pool = WorkerPool {
            slots: Vec::with_capacity(n),
            results,
            result_tx,
            sys: Arc::clone(sys),
            lane_sim: sim.clone(),
        };
        for i in 0..n {
            let (tx, handle) = pool.spawn_worker(i);
            pool.slots.push(WorkerSlot {
                sender: Some(tx),
                handle: Some(handle),
                respawns_left: WORKER_RESPAWNS,
            });
        }
        pool
    }

    /// Spawns the thread for pool slot `i` (fresh solver, lane `i + 1`).
    fn spawn_worker(&self, i: usize) -> (Sender<Job>, std::thread::JoinHandle<()>) {
        let (tx, rx) = channel::<Job>();
        let out = self.result_tx.clone();
        // Worker i solves the (i+1)-th task of every round; tag its probe
        // (and fault handle) with that lane so traces show the pipelining
        // overlap and injected faults can target individual lanes.
        let lane = i as u32 + 1;
        let mut worker_sim = self.lane_sim.clone();
        worker_sim.probe = self.lane_sim.probe.with_lane(lane);
        worker_sim.faults = self.lane_sim.faults.with_lane(lane);
        let mut solver = PointSolver::new(Arc::clone(&self.sys), worker_sim);
        let handle = std::thread::spawn(move || {
            while let Ok(job) = recv_handoff(&rx, POLL_BOUND) {
                // Contain panics (organic or injected): always reply, then
                // retire — the solver's internal state cannot be trusted
                // after an unwind through it.
                let solved = catch_unwind(AssertUnwindSafe(|| {
                    solver.solve_point(
                        &job.task.hw,
                        job.task.t,
                        job.task.guess.as_deref(),
                        job.max_iters,
                    )
                }));
                match solved {
                    Ok(r) => {
                        if out.send((job.slot, r)).is_err() {
                            break;
                        }
                    }
                    Err(payload) => {
                        let cause = panic_cause(payload);
                        let _ = out.send((job.slot, Err(EngineError::WorkerLost { lane, cause })));
                        break;
                    }
                }
            }
        });
        (tx, handle)
    }

    fn len(&self) -> usize {
        self.slots.len()
    }

    /// Number of workers currently accepting jobs.
    fn alive(&self) -> usize {
        self.slots.iter().filter(|s| s.sender.is_some()).count()
    }

    /// Respawns every dead slot that still has respawn budget. Returns how
    /// many workers were brought back.
    fn respawn_dead(&mut self) -> usize {
        let mut respawned = 0;
        for i in 0..self.slots.len() {
            if self.slots[i].sender.is_some() || self.slots[i].respawns_left == 0 {
                continue;
            }
            self.slots[i].respawns_left -= 1;
            // The retired thread exited after replying; reap it first.
            if let Some(h) = self.slots[i].handle.take() {
                let _ = h.join();
            }
            let (tx, handle) = self.spawn_worker(i);
            self.slots[i].sender = Some(tx);
            self.slots[i].handle = Some(handle);
            respawned += 1;
        }
        respawned
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the job channels lets every worker's recv() fail and the
        // thread exit; join to avoid leaking threads across runs. A panic
        // payload escaping a worker (outside the per-solve catch) is
        // surfaced rather than silently dropped.
        for s in &mut self.slots {
            s.sender = None;
        }
        for (i, s) in self.slots.iter_mut().enumerate() {
            if let Some(h) = s.handle.take() {
                if let Err(payload) = h.join() {
                    let lane = i as u32 + 1;
                    self.lane_sim.probe.with_lane(lane).emit(0.0, EventKind::WorkerLost { lane });
                    eprintln!(
                        "wavepipe: worker lane {lane} panicked outside a solve: {}",
                        panic_cause(payload)
                    );
                }
            }
        }
    }
}

/// The per-run driver: the lanes, and everything the round planner needs
/// to schedule them.
pub(crate) struct Driver {
    /// Solver used by the coordinating thread (round base points,
    /// speculative refinements, rescues).
    pub lead: PointSolver,
    pool: WorkerPool,
    pub wp: WavePipeOptions,
    /// Step control: the window, breakpoints, history, base step, waveform
    /// and counters. Slot 0 of every round is its serial point.
    pub ctl: StepController,
    /// LTE growth factor observed at the last accepted point (used by the
    /// forward stride rule).
    pub last_growth: f64,
    /// LTE error ratio observed at the last accepted point (<= 1).
    pub last_ratio: f64,
    /// Exponential moving average of the lead-point accept rate; drives the
    /// ladder-depth hysteresis below.
    pub lead_ema: f64,
    /// Hysteresis state: whether deep ladders / speculation are currently
    /// enabled (flips at lead-EMA 0.45 up / 0.25 down).
    deep_mode: bool,
    pub critical_work: u64,
    pub critical_ns: u128,
    /// The hand-off ledger: four laps of one clock ([`Driver::lap`]) per
    /// round, so the sums partition the stepping loop's wall time exactly.
    /// `dispatch_ns`: from the previous round's end (the first round: from
    /// the end of set-up) until this round's tasks are with their lanes.
    pub dispatch_ns: u128,
    /// The coordinating lane's own solve.
    pub lead_ns: u128,
    /// From the end of that solve until the last worker reply is in; a
    /// round that dispatched nothing takes no lap, so width 1 reads zero.
    pub wait_ns: u128,
    /// From there to the round's end: accounting, commits, refinements.
    pub commit_ns: u128,
    /// Where the last ledger lap ended.
    mark: Instant,
    pub rounds: usize,
    pub lead_accepted: usize,
    pub lead_rejected: usize,
    pub spec_accepted: usize,
    pub spec_rejected: usize,
    /// Worker-loss events observed (a respawned-then-lost worker counts
    /// each time).
    pub workers_lost: usize,
    /// `FallbackSerial` has been emitted (the pool shrank to nothing).
    serial_fallback_emitted: bool,
    run_start: Instant,
}

impl Driver {
    /// Compiles the circuit, solves the operating point (counted on the
    /// critical path — it is inherently sequential), and prepares the run:
    /// the worker lanes come last, so that they can start on the plan of the
    /// operating point's factorization.
    pub fn new(circuit: &Circuit, tstep: f64, tstop: f64, wp: &WavePipeOptions) -> Result<Self> {
        let run_start = Instant::now();
        let sys = Arc::new(MnaSystem::compile(circuit)?);
        let mut lead = PointSolver::new(Arc::clone(&sys), wp.sim.clone());
        let dc_start = Instant::now();
        let ctl = StepController::start(&mut lead, tstep, tstop, &wp.sim)?;
        let critical_ns = dc_start.elapsed().as_nanos();
        let mut lane_sim = wp.sim.clone();
        if let Some(plan) = lead.shared_plan().filter(|_| lane_sim.solver.is_direct()) {
            // One plan per run: every worker adopts the coordinating lane's
            // (ordering, pivot sequence, index arrays) under the pivot check,
            // and pays a private factorization only where its first matrix
            // would have pivoted otherwise. A solver the caller chose is left
            // as it is.
            lane_sim.solver = SolverHandle::adopting(plan);
        }
        let pool = WorkerPool::new(&sys, &lane_sim, wp.width().saturating_sub(1));
        Ok(Driver {
            lead,
            pool,
            wp: wp.clone(),
            last_growth: 1.0,
            last_ratio: 0.5,
            lead_ema: 0.5,
            deep_mode: true,
            critical_work: ctl.stats().work_units(),
            critical_ns,
            ctl,
            dispatch_ns: 0,
            lead_ns: 0,
            wait_ns: 0,
            commit_ns: 0,
            mark: Instant::now(),
            rounds: 0,
            lead_accepted: 0,
            lead_rejected: 0,
            spec_accepted: 0,
            spec_rejected: 0,
            workers_lost: 0,
            serial_fallback_emitted: false,
            run_start,
        })
    }

    /// Ends a ledger lap: the nanoseconds since the previous lap ended.
    fn lap(&mut self) -> u128 {
        let now = Instant::now();
        let ns = now.duration_since(self.mark).as_nanos();
        self.mark = now;
        ns
    }

    /// Solves up to `1 + pool_size` tasks concurrently: task 0 on the
    /// coordinating thread, the rest on the persistent workers. Results are
    /// returned in task order; a task whose worker was lost (panic, dead
    /// channel) yields [`EngineError::WorkerLost`] in its slot instead of
    /// tearing the run down. Dead workers are respawned afterwards while
    /// their budget lasts.
    ///
    /// # Errors
    ///
    /// [`EngineError::Internal`] when more tasks are submitted than the pool
    /// has solver lanes (a scheme bug, not a simulation failure).
    pub fn solve_round(
        &mut self,
        tasks: Vec<Task>,
        max_iters: usize,
    ) -> Result<Vec<Result<PointSolution>>> {
        if tasks.len() > 1 + self.pool.len() {
            return Err(EngineError::Internal {
                context: format!(
                    "round of {} tasks exceeds {} solver lanes",
                    tasks.len(),
                    1 + self.pool.len()
                ),
            });
        }
        let n = tasks.len();
        let mut out: Vec<Option<Result<PointSolution>>> = (0..n).map(|_| None).collect();
        // Which pool slot each task slot went to, for marking dead workers
        // when their reply says they are gone.
        let mut slot_worker: Vec<Option<usize>> = vec![None; n];
        let mut iter = tasks.into_iter().enumerate();
        let first = iter.next();
        let mut dispatched = 0usize;
        let mut cursor = 0usize;
        for (slot, task) in iter {
            // Stamp the task's lane span at *dispatch*: the worker's own
            // SolveStart marks execution start, but the Chrome exporter keeps
            // the earliest start per lane, so traces show the round's tasks
            // in flight concurrently even when the host has fewer cores than
            // lanes (queue wait is part of the task's lifetime there).
            self.wp
                .sim
                .probe
                .with_lane(slot as u32)
                .emit(task.t, EventKind::SolveStart { h: task.t - task.hw.t() });
            let mut job = Job { task, max_iters, slot };
            let mut placed = false;
            while cursor < self.pool.slots.len() {
                let w = cursor;
                cursor += 1;
                let Some(tx) = self.pool.slots[w].sender.as_ref() else {
                    continue;
                };
                match tx.send(job) {
                    Ok(()) => {
                        slot_worker[slot] = Some(w);
                        dispatched += 1;
                        placed = true;
                        break;
                    }
                    Err(returned) => {
                        // Channel closed: the worker died since last round.
                        job = returned.0;
                        self.note_worker_lost(w, job.task.t);
                    }
                }
            }
            if !placed {
                out[slot] = Some(Err(EngineError::WorkerLost {
                    lane: slot as u32,
                    cause: "worker pool exhausted".to_string(),
                }));
            }
        }
        self.dispatch_ns += self.lap();
        if let Some((slot, task)) = first {
            out[slot] = Some(self.lead_solve(&task.hw, task.t, task.guess.as_deref(), max_iters));
        }
        self.lead_ns += self.lap();
        for _ in 0..dispatched {
            let received = recv_handoff(&self.pool.results, POLL_BOUND);
            match received {
                Ok((slot, r)) => {
                    if matches!(r, Err(EngineError::WorkerLost { .. })) {
                        if let Some(w) = slot_worker[slot] {
                            self.note_worker_lost(w, 0.0);
                        }
                    }
                    out[slot] = Some(r);
                }
                Err(_) => break, // cannot happen (pool holds a sender); stop waiting
            }
        }
        if dispatched > 0 {
            self.wait_ns += self.lap();
        }
        // Bring lost workers back while their respawn budget lasts, so a
        // transient fault costs one narrow round rather than the whole run.
        self.pool.respawn_dead();
        if self.pool.len() > 0 && self.pool.alive() == 0 && !self.serial_fallback_emitted {
            self.serial_fallback_emitted = true;
            self.wp.sim.probe.emit(self.ctl.t(), EventKind::FallbackSerial);
        }
        Ok(out
            .into_iter()
            .map(|o| {
                o.unwrap_or_else(|| {
                    Err(EngineError::Internal {
                        context: "round task produced no result".to_string(),
                    })
                })
            })
            .collect())
    }

    /// Records one observed worker loss: marks the pool slot dead, counts
    /// it, and emits [`EventKind::WorkerLost`] for the lane.
    fn note_worker_lost(&mut self, w: usize, t: f64) {
        self.pool.slots[w].sender = None;
        self.workers_lost += 1;
        let lane = w as u32 + 1;
        self.wp.sim.probe.with_lane(lane).emit(t, EventKind::WorkerLost { lane });
    }

    /// Runs a solve on the coordinating thread's solver with panic isolation:
    /// an unwind out of the solver surfaces as [`EngineError::WorkerLost`]
    /// on lane 0 (terminal for the run — the lead solver's state cannot be
    /// trusted afterwards) instead of aborting the process.
    pub fn lead_solve(
        &mut self,
        hw: &HistoryWindow,
        t: f64,
        guess: Option<&[f64]>,
        max_iters: usize,
    ) -> Result<PointSolution> {
        match catch_unwind(AssertUnwindSafe(|| self.lead.solve_point(hw, t, guess, max_iters))) {
            Ok(r) => r,
            Err(payload) => Err(EngineError::WorkerLost { lane: 0, cause: panic_cause(payload) }),
        }
    }

    /// [`Driver::lead_solve`] against the driver's own (true) history —
    /// the case of speculative refinements, which always integrate from it.
    ///
    /// # Errors
    ///
    /// Engine solve failures, or [`EngineError::WorkerLost`] (lane 0) when
    /// the solve panicked.
    pub fn refine_solve(
        &mut self,
        t: f64,
        guess: &[f64],
        max_iters: usize,
    ) -> Result<PointSolution> {
        match catch_unwind(AssertUnwindSafe(|| {
            self.lead.solve_point(self.ctl.history(), t, Some(guess), max_iters)
        })) {
            Ok(r) => r,
            Err(payload) => Err(EngineError::WorkerLost { lane: 0, cause: panic_cause(payload) }),
        }
    }

    /// Clamps a requested round width to what the pool can still serve:
    /// the coordinating lane plus the live workers. Shrinks to 1 (serial
    /// schedule) once every worker is gone.
    pub fn round_width(&self, requested: usize) -> usize {
        requested.min(1 + self.pool.alive()).max(1)
    }

    /// [`StepController::try_commit`], plus what the lanes want to know
    /// about an accepted point: its growth and error ratio place the next
    /// round's leads.
    pub fn try_commit(&mut self, sol: &PointSolution) -> Commit {
        let commit = self.ctl.try_commit(sol);
        if let Commit::Accepted { growth, ratio, .. } = commit {
            self.last_growth = growth;
            self.last_ratio = ratio;
        }
        commit
    }

    /// Adds a round's concurrent task costs: everything into the run's
    /// totals, the maximum into the critical path.
    pub fn account_parallel(&mut self, task_stats: &[SimStats]) {
        let mut max_work = 0u64;
        let mut max_ns = 0u128;
        for s in task_stats {
            *self.ctl.stats_mut() += *s;
            max_work = max_work.max(s.work_units());
            max_ns = max_ns.max(s.wall_ns);
        }
        self.critical_work += max_work;
        self.critical_ns += max_ns;
        self.rounds += 1;
    }

    /// Adds inherently sequential work (speculation refinement, serial
    /// fix-up solves) to both totals and the critical path.
    pub fn account_sequential(&mut self, s: &SimStats) {
        *self.ctl.stats_mut() += *s;
        self.critical_work += s.work_units();
        self.critical_ns += s.wall_ns;
    }

    /// Lead-placement growth factor, on the step lattice `1`, `√rmax`,
    /// `rmax`: the rung below the *LTE boundary* the last accepted point's
    /// error ratio predicts (a step grown by `f` scales the ratio by
    /// `f^(order+1)`; target 0.9), rounded up to `rmax` from halfway there,
    /// `(1 + rmax)/2`, and to `√rmax` from `rmax^(1/4)`, halfway on a log
    /// scale. The boundary itself is a growth no other solve used, so a lead
    /// aimed there would integrate across a stride whose factor key no parked
    /// set holds; on the lattice a lead strides `(1 + g) h` for one of three
    /// `g` of a base step that itself recurs. The middle rung keeps leads the
    /// boundary allows up to half again longer than `h` from being cut back
    /// to `h`, which cost the closed-form decks accuracy (EXPERIMENTS.md
    /// E26; there, always `rmax` made `digital_bp2` slower and two
    /// tight-reference grid rows worse). In rapid growth phases (ratio ~ 0)
    /// this is `rmax`.
    pub fn lead_growth(&self) -> f64 {
        let rmax = self.wp.sim.rmax;
        let order = self.wp.sim.method.order() as f64;
        let boundary = (0.9 / self.last_ratio).powf(1.0 / (order + 1.0));
        if boundary >= (1.0 + rmax) / 2.0 {
            rmax
        } else if boundary >= rmax.powf(0.25) {
            rmax.sqrt()
        } else {
            1.0
        }
    }

    /// Builds the backward target ladder from the current time: gaps start
    /// at the base step and stretch by [`Driver::lead_growth`], so they are
    /// the base step times successive powers of one lattice growth up to
    /// `hmax` (or the base step throughout). Every lead is launched, however
    /// far past the LTE boundary its stride reaches: an over-ambitious lead
    /// is a lottery ticket its LTE test discards, and in Figure D2 no finite
    /// stride budget beat an unlimited one (EXPERIMENTS.md E8). Also returns
    /// the last rung's gap, which a speculative chain strides on from.
    pub fn backward_ladder(&self, width: usize) -> (Vec<f64>, f64) {
        let growth = self.lead_growth();
        // Ladder depth scales with how well leads have been paying: one
        // lottery lead is near-free on the critical path, but deep ladders
        // only earn their keep in sustained growth phases (hysteresis on
        // the lead-EMA avoids flapping at the threshold).
        let width = if self.deep_mode() { width } else { width.min(2) };
        let mut targets = Vec::with_capacity(width);
        let mut t = self.ctl.t();
        let mut gap = self.ctl.h();
        let mut last_gap = gap;
        for _ in 0..width {
            t += gap;
            targets.push(t);
            last_gap = gap;
            gap = (gap * growth).min(self.ctl.hmax());
        }
        (targets, last_gap)
    }

    /// Records a lead-point outcome in the accept-rate EMA.
    pub fn note_lead(&mut self, accepted: bool) {
        const ALPHA: f64 = 0.08;
        let x = if accepted { 1.0 } else { 0.0 };
        self.lead_ema = (1.0 - ALPHA) * self.lead_ema + ALPHA * x;
        if self.lead_ema > 0.45 {
            self.deep_mode = true;
        } else if self.lead_ema < 0.25 {
            self.deep_mode = false;
        }
        let state = EventKind::LeadEma { ema: self.lead_ema, deep: self.deep_mode };
        self.wp.sim.probe.emit(self.ctl.t(), state);
    }

    /// Whether sustained lead success currently justifies deep ladders and
    /// forward speculation past the lead.
    pub fn deep_mode(&self) -> bool {
        self.deep_mode
    }

    /// Newton failure on the base point: the controller shrinks the step,
    /// and once that falls below the floor runs the recovery ladder on the
    /// *lead* lane (speculation was already discarded by the caller) — the
    /// serial loop's own sequence, so the waveform stays bit-identical with
    /// the serial recovery path. The ladder is inherently sequential work.
    /// Returns `true` when a rescued point was committed (so callers can
    /// count it in the round's committed total).
    ///
    /// # Errors
    ///
    /// See [`StepController::rescue`].
    pub fn newton_backoff(&mut self, h_attempt: f64, failed_iters: usize) -> Result<bool> {
        if !self.ctl.newton_reject(h_attempt) {
            return Ok(false);
        }
        let work = self.ctl.rescue(&mut self.lead, h_attempt, failed_iters)?;
        self.critical_work += work.work_units();
        self.critical_ns += work.wall_ns;
        Ok(true)
    }

    /// Packages the run into a report.
    pub fn finish(self, scheme: Scheme) -> WavePipeReport {
        let result = self.ctl.finish(self.run_start.elapsed().as_nanos());
        WavePipeReport {
            total: *result.stats(),
            result,
            scheme,
            threads: self.wp.threads,
            rounds: self.rounds,
            critical_work: self.critical_work,
            critical_ns: self.critical_ns,
            dispatch_ns: self.dispatch_ns,
            lead_ns: self.lead_ns,
            wait_ns: self.wait_ns,
            commit_ns: self.commit_ns,
            lead_accepted: self.lead_accepted,
            lead_rejected: self.lead_rejected,
            speculation_accepted: self.spec_accepted,
            speculation_rejected: self.spec_rejected,
            workers_lost: self.workers_lost,
        }
    }
}

/// Splits a round's per-slot results into the usable prefix of solutions,
/// accounting every completed solve's cost. A slot-0 error is structural
/// (the base solve is not speculative) and propagates; an error at slot
/// `i > 0` truncates the round there — every pool task is speculative, so
/// discarding it and everything after is always safe; the committed prefix
/// stays serial-identical. Slots below `spec_from` emit
/// [`EventKind::LeadDiscarded`], the rest [`EventKind::SpeculationDiscarded`].
///
/// # Errors
///
/// The slot-0 error, when the round's base solve itself failed.
pub(crate) fn usable_prefix(
    drv: &mut Driver,
    sols: Vec<Result<PointSolution>>,
    spec_from: usize,
) -> Result<Vec<PointSolution>> {
    let mut costs: Vec<SimStats> = Vec::with_capacity(sols.len());
    let mut solutions: Vec<PointSolution> = Vec::with_capacity(sols.len());
    let mut truncated = false;
    for (i, s) in sols.into_iter().enumerate() {
        match s {
            Ok(sol) => {
                costs.push(sol.stats);
                if truncated {
                    // Solved fine, but an earlier slot is missing and commits
                    // walk left to right — the chain is broken here.
                    emit_discard(drv, sol.t, i, spec_from, DiscardReason::ChainBroken);
                } else {
                    solutions.push(sol);
                }
            }
            Err(e) if i == 0 => return Err(e),
            Err(_) => {
                emit_discard(drv, drv.ctl.t(), i, spec_from, DiscardReason::WorkerLost);
                truncated = true;
            }
        }
    }
    drv.account_parallel(&costs);
    Ok(solutions)
}

fn emit_discard(drv: &Driver, t: f64, slot: usize, spec_from: usize, reason: DiscardReason) {
    let kind = if slot >= spec_from {
        EventKind::SpeculationDiscarded { reason }
    } else {
        EventKind::LeadDiscarded { reason }
    };
    drv.wp.sim.probe.emit(t, kind);
}

/// The shared scheme loop: rounds until `tstop`, checking the deadline /
/// cancellation token at every round boundary and narrowing the round width
/// to what the worker pool can still serve, and closing each round's ledger
/// (`commit_ns`). Returns the terminal error of a partial run, or `None` when
/// the run completed.
pub(crate) fn drive(
    drv: &mut Driver,
    width: usize,
    mut round: impl FnMut(&mut Driver, usize) -> Result<usize>,
) -> Option<EngineError> {
    while !drv.ctl.done() {
        if let Err(e) = drv.ctl.check_budget() {
            return Some(e);
        }
        let w = drv.round_width(width);
        let outcome = round(drv, w);
        drv.commit_ns += drv.lap();
        if let Err(e) = outcome {
            return Some(e);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::round::{round, Plan};
    use wavepipe_circuit::generators;

    fn backward_round(drv: &mut Driver, width: usize) -> Result<usize> {
        round(drv, Plan::of(Scheme::Backward, width))
    }

    /// Far longer than any test runs: a receive that returns sooner was
    /// served by the poll loop, not by the parked `recv()` behind it.
    const LONG_POLL: Duration = Duration::from_secs(30);
    /// A hundred [`POLL_BOUND`]s: by then a polling receiver has parked.
    const PARKED_BY: Duration = Duration::from_millis(20);

    /// Runs `recv_handoff(.., bound)` on this thread while another thread
    /// waits `delay` after the receive is about to start and then sends 7
    /// (`send == true`) or drops the sender. The delays only make the
    /// intended interleaving all but certain; every assertion made on the
    /// outcome holds under any interleaving.
    fn receive_while(
        bound: Duration,
        delay: Duration,
        send: bool,
    ) -> (std::result::Result<u32, RecvError>, Duration) {
        let (tx, rx) = channel::<u32>();
        let (go_tx, go_rx) = channel::<()>();
        let peer = std::thread::spawn(move || {
            go_rx.recv().expect("receiver signals before it receives");
            std::thread::sleep(delay);
            if send {
                tx.send(7).expect("receiver is alive");
            }
        });
        go_tx.send(()).expect("peer is alive");
        let start = Instant::now();
        let got = recv_handoff(&rx, bound);
        let took = start.elapsed();
        peer.join().expect("peer thread");
        (got, took)
    }

    #[test]
    fn queued_item_is_received() {
        let (tx, rx) = channel::<u32>();
        tx.send(7).unwrap();
        assert_eq!(recv_handoff(&rx, POLL_BOUND), Ok(7));
        // A zero bound still polls once before it parks.
        tx.send(8).unwrap();
        drop(tx);
        assert_eq!(recv_handoff(&rx, Duration::ZERO), Ok(8));
        assert_eq!(recv_handoff(&rx, Duration::ZERO), Err(RecvError));
    }

    #[test]
    fn item_sent_mid_poll_is_received_without_parking() {
        let (got, took) = receive_while(LONG_POLL, Duration::from_millis(2), true);
        assert_eq!(got, Ok(7));
        assert!(took < LONG_POLL, "served by the parked recv after {took:?}");
    }

    #[test]
    fn item_sent_after_parking_is_received() {
        let (got, _) = receive_while(POLL_BOUND, PARKED_BY, true);
        assert_eq!(got, Ok(7));
    }

    #[test]
    fn dropped_sender_is_a_disconnect_mid_poll_and_after_parking() {
        let (got, took) = receive_while(LONG_POLL, Duration::from_millis(2), false);
        assert_eq!(got, Err(RecvError));
        assert!(took < LONG_POLL, "noticed only by the parked recv after {took:?}");
        let (got, _) = receive_while(POLL_BOUND, PARKED_BY, false);
        assert_eq!(got, Err(RecvError));
    }

    #[test]
    fn driver_with_idle_workers_drops_promptly() {
        let b = generators::rc_ladder(4);
        let drv =
            Driver::new(&b.circuit, b.tstep, b.tstop, &WavePipeOptions::new(Scheme::Backward, 3))
                .unwrap();
        // Let the idle workers run out their poll bound and park.
        std::thread::sleep(PARKED_BY);
        let start = Instant::now();
        drop(drv);
        assert!(start.elapsed() < Duration::from_secs(1), "drop hung");
    }

    #[test]
    fn lead_growth_is_on_the_lattice_and_switches_halfway() {
        let b = generators::rc_ladder(4);
        for rmax in [2.0_f64, 4.0] {
            let sim = SimOptions::default().with_rmax(rmax);
            let wp = WavePipeOptions::new(Scheme::Backward, 1).with_sim(sim);
            let mut drv = Driver::new(&b.circuit, b.tstep, b.tstop, &wp).unwrap();
            let mut seen = Vec::new();
            for k in 0..=400 {
                drv.last_ratio = f64::from(k) / 400.0;
                let g = drv.lead_growth();
                assert!([1.0, rmax.sqrt(), rmax].contains(&g), "rmax {rmax}: {g}");
                if seen.last() != Some(&g) {
                    seen.push(g);
                }
            }
            // Falling growth as the ratio rises, each rung once.
            assert_eq!(seen, [rmax, rmax.sqrt(), 1.0]);
            // The ratios at which the unsnapped growth reaches `(1 + rmax)/2`
            // and `rmax^(1/4)`: a part in a thousand either side switches.
            let order = drv.wp.sim.method.order() as f64;
            for (at, above, below) in
                [((1.0 + rmax) / 2.0, rmax, rmax.sqrt()), (rmax.powf(0.25), rmax.sqrt(), 1.0)]
            {
                let ratio = 0.9 / at.powf(order + 1.0);
                for (r, want) in [(ratio * 0.999, above), (ratio * 1.001, below)] {
                    drv.last_ratio = r;
                    assert_eq!(drv.lead_growth(), want);
                }
            }
        }
    }

    #[test]
    fn ledger_partitions_the_stepping_loop() {
        let b = generators::power_grid(8, 8);
        let mut drv =
            Driver::new(&b.circuit, b.tstep, b.tstop, &WavePipeOptions::new(Scheme::Backward, 2))
                .unwrap();
        // Set-up and worker spawn are behind us: from here to the end of
        // `drive` the ledger's laps are all that runs.
        let start = Instant::now();
        assert!(drive(&mut drv, 2, backward_round).is_none());
        let stepping = start.elapsed().as_nanos();
        let rep = drv.finish(Scheme::Backward);
        let parts = [rep.dispatch_ns, rep.lead_ns, rep.wait_ns, rep.commit_ns];
        assert!(parts.iter().all(|&p| p > 0), "{parts:?}");
        let ledger: u128 = parts.iter().sum();
        assert!(ledger <= rep.total.wall_ns, "{ledger} > {}", rep.total.wall_ns);
        assert!(ledger * 10 >= stepping * 9, "ledger {ledger} ns of {stepping} ns stepping");

        let x1 = crate::run_wavepipe(
            &b.circuit,
            b.tstep,
            b.tstop,
            &WavePipeOptions::new(Scheme::Backward, 1),
        )
        .expect("width-1 run");
        assert_eq!(x1.wait_ns, 0);
        assert!(x1.lead_ns > 0 && x1.commit_ns > 0);
    }
}
