//! What a pipelined run has that a serial one does not: the lanes. This
//! module moves bits and keeps time — the worker pool, the hand-off channels,
//! respawn and the fall back to one lane, the hand-off ledger — and decides
//! nothing: every round is [`Round`]'s plan, offers and close.

use crate::options::{Scheme, WavePipeOptions};
use crate::report::{RunOutcome, WavePipeReport};
use crate::round::{Plan, Round, Task};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, RecvError, Sender, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};
use wavepipe_circuit::Circuit;
use wavepipe_engine::transient::MAX_NEWTON_ITERS;
use wavepipe_engine::{
    panic_message, EngineError, MnaSystem, PointSolution, PointSolver, ProbeHandle, Result,
    SimOptions,
};
use wavepipe_telemetry::EventKind;

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

/// A solve request shipped to a pool worker: a task and its slot.
type Job = (usize, Task);

/// One pool lane: the job channel and thread handle, plus the remaining
/// respawn budget. `sender` is `None` while the worker is dead.
struct WorkerSlot {
    sender: Option<Sender<Job>>,
    handle: Option<std::thread::JoinHandle<()>>,
    respawns_left: usize,
}

/// A pool of persistent worker threads, each owning its own [`PointSolver`],
/// whose factors survive across rounds. Each worker runs its solves under
/// `catch_unwind` and *always* replies to a received job — a panic is
/// reported as [`EngineError::WorkerLost`] before the worker retires — so
/// reply collection can never hang on a dead lane. Lost workers are
/// respawned up to [`WORKER_RESPAWNS`] times per slot; past that the pool
/// shrinks and rounds run narrower, down to the serial single-lane schedule.
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
        let lane = i as u32 + 1;
        let mut solver = lane_solver(&self.sys, &self.lane_sim, lane);
        let handle = std::thread::spawn(move || {
            while let Ok((slot, task)) = recv_handoff(&rx, POLL_BOUND) {
                // Contain panics (organic or injected): always reply, then
                // retire — the solver's internal state cannot be trusted
                // after an unwind through it.
                let solved = catch_unwind(AssertUnwindSafe(|| {
                    solver.solve_point(&task.hw, task.t, None, MAX_NEWTON_ITERS)
                }));
                let lost = solved.is_err();
                let reply = solved.unwrap_or_else(|payload| {
                    Err(EngineError::WorkerLost { lane, cause: panic_message(&*payload) })
                });
                if out.send((slot, reply)).is_err() || lost {
                    break;
                }
            }
        });
        (tx, handle)
    }

    /// Number of workers currently accepting jobs.
    fn alive(&self) -> usize {
        self.slots.iter().filter(|s| s.sender.is_some()).count()
    }

    /// Respawns every dead slot that still has respawn budget.
    fn respawn_dead(&mut self) {
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
        }
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
                        panic_message(&*payload)
                    );
                }
            }
        }
    }
}

/// The solver of pool lane `lane`: the lanes' options, with the probe and
/// the fault handle tagged with the lane, so traces show the pipelining
/// overlap and injected faults can target individual lanes.
pub(crate) fn lane_solver(sys: &Arc<MnaSystem>, sim: &SimOptions, lane: u32) -> PointSolver {
    let mut sim = sim.clone();
    sim.probe = sim.probe.with_lane(lane);
    sim.faults = sim.faults.with_lane(lane);
    PointSolver::new(Arc::clone(sys), sim)
}

/// Runs a pipelined transient analysis under `wp.scheme`.
///
/// # Errors
///
/// Pre-run failures only (bad parameters, compile, DC operating point); a
/// mid-run failure (deadline, cancellation, lead-solver loss) yields the
/// report over the accepted prefix alongside the error.
pub(crate) fn run(
    circuit: &Circuit,
    tstep: f64,
    tstop: f64,
    wp: &WavePipeOptions,
) -> Result<RunOutcome> {
    let mut drv = Driver::new(circuit, tstep, tstop, wp)?;
    let error = drv.drive(wp.scheme, wp.width());
    Ok(RunOutcome { report: drv.finish(), error })
}

/// The per-run driver: the decision machine, the lanes that solve its
/// tasks, and the ledger that times them.
pub(crate) struct Driver {
    round: Round,
    pool: WorkerPool,
    probe: ProbeHandle,
    /// The operating point's solve, on the critical path: it is inherently
    /// sequential.
    dc_ns: u128,
    /// The hand-off ledger: four kinds of lap of one clock ([`Driver::lap`])
    /// per round, so the sums partition the stepping loop's wall time exactly.
    /// `dispatch_ns`: from the previous round's end (the first round: from
    /// the end of set-up) until this round's tasks are with their lanes.
    dispatch_ns: u128,
    /// The coordinating lane's own solve.
    lead_ns: u128,
    /// Waiting for worker replies: from the end of each commit until the
    /// next reply is in. A round that dispatched nothing waits for none, so
    /// width 1 reads zero.
    wait_ns: u128,
    /// Commits and refinements (slot 0's as soon as it is solved, each
    /// reply's as it arrives), respawns and the round's close.
    commit_ns: u128,
    /// Where the last ledger lap ended.
    mark: Instant,
    /// Worker-loss events observed (a respawned-then-lost worker counts
    /// each time).
    workers_lost: usize,
    /// `FallbackSerial` has been emitted (the pool shrank to nothing).
    serial_fallback_emitted: bool,
    run_start: Instant,
}

impl Driver {
    /// Compiles the circuit, solves the operating point and prepares the
    /// run: the worker lanes come last, so that they can start on the plan
    /// of the operating point's factorization.
    pub(crate) fn new(
        circuit: &Circuit,
        tstep: f64,
        tstop: f64,
        wp: &WavePipeOptions,
    ) -> Result<Self> {
        let run_start = Instant::now();
        let sys = Arc::new(MnaSystem::compile(circuit)?);
        let lead = PointSolver::new(Arc::clone(&sys), wp.sim.clone());
        let dc_start = Instant::now();
        let round = Round::start(lead, tstep, tstop, wp)?;
        let dc_ns = dc_start.elapsed().as_nanos();
        let pool = WorkerPool::new(&sys, &round.lane_options(), wp.width().saturating_sub(1));
        Ok(Driver {
            round,
            pool,
            probe: wp.sim.probe.clone(),
            dc_ns,
            dispatch_ns: 0,
            lead_ns: 0,
            wait_ns: 0,
            commit_ns: 0,
            mark: Instant::now(),
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

    /// The run loop: rounds until `tstop`, each at `width` narrowed to what
    /// the pool can still serve, closing each round's ledger (`commit_ns`).
    /// Returns the terminal error of a partial run, or `None` when the run
    /// completed.
    pub(crate) fn drive(&mut self, scheme: Scheme, width: usize) -> Option<EngineError> {
        while !self.round.done() {
            let width = width.min(1 + self.pool.alive()).max(1);
            let outcome = self.play(Plan::of(scheme, width));
            self.commit_ns += self.lap();
            if let Err(e) = outcome {
                return Some(e);
            }
        }
        None
    }

    /// One round: plan, dispatch slots 1.. to the workers, solve slot 0 on
    /// this thread and offer it at once, so it commits while the workers
    /// still solve; then offer each reply as it arrives (a lost worker's as
    /// [`EngineError::WorkerLost`]), each committing as soon as the slots
    /// left of it have, and close once every reply is in.
    fn play(&mut self, plan: Plan) -> Result<()> {
        let tasks = self.round.plan(plan)?;
        // Which pool slot each task went to, for marking dead workers when
        // their reply says they are gone.
        let mut workers: Vec<Option<usize>> = vec![None; tasks.len()];
        let mut cursor = 0usize;
        for (slot, task) in tasks.iter().enumerate().skip(1) {
            // Stamp the task's lane span at *dispatch*: the worker's own
            // SolveStart marks execution start, but the Chrome exporter keeps
            // the earliest start per lane, so traces show the round's tasks
            // in flight concurrently even when the host has fewer cores than
            // lanes (queue wait is part of the task's lifetime there).
            let start = EventKind::SolveStart { h: task.t - task.hw.t() };
            self.probe.with_lane(slot as u32).emit(task.t, start);
            let mut job = (slot, task.clone());
            while cursor < self.pool.slots.len() {
                let w = cursor;
                cursor += 1;
                let Some(tx) = self.pool.slots[w].sender.as_ref() else {
                    continue;
                };
                match tx.send(job) {
                    Ok(()) => {
                        workers[slot] = Some(w);
                        break;
                    }
                    Err(returned) => {
                        // Channel closed: the worker died since last round.
                        job = returned.0;
                        self.note_worker_lost(w, task.t);
                    }
                }
            }
            if workers[slot].is_none() {
                let cause = "worker pool exhausted".to_string();
                self.round
                    .offer(slot, Err(EngineError::WorkerLost { lane: slot as u32, cause }))?;
            }
        }
        self.dispatch_ns += self.lap();
        let lead = self.round.solve_lead(&tasks[0]);
        self.lead_ns += self.lap();
        // Slot 0 commits while the workers still solve. Every dispatched
        // reply is received whatever happens, so none is left for a later
        // round; after an error none is offered, and the error ends the run.
        let mut outcome = self.round.offer(0, lead);
        self.commit_ns += self.lap();
        for _ in 0..workers.iter().flatten().count() {
            let (slot, reply) = recv_handoff(&self.pool.results, POLL_BOUND)
                .expect("the pool keeps a result sender, so the channel stays open");
            self.wait_ns += self.lap();
            if let (Err(EngineError::WorkerLost { .. }), Some(w)) = (&reply, workers[slot]) {
                self.note_worker_lost(w, tasks[slot].t);
            }
            if outcome.is_ok() {
                outcome = self.round.offer(slot, reply);
            }
            self.commit_ns += self.lap();
        }
        outcome?;
        // Bring lost workers back while their respawn budget lasts, so a
        // transient fault costs one narrow round rather than the whole run.
        self.pool.respawn_dead();
        if !self.pool.slots.is_empty() && self.pool.alive() == 0 && !self.serial_fallback_emitted {
            self.serial_fallback_emitted = true;
            self.probe.emit(tasks[0].hw.t(), EventKind::FallbackSerial);
        }
        self.round.close();
        Ok(())
    }

    /// Records one observed worker loss at its task's target `t`: marks the
    /// pool slot dead, counts it, and emits [`EventKind::WorkerLost`] for
    /// the lane.
    fn note_worker_lost(&mut self, w: usize, t: f64) {
        self.pool.slots[w].sender = None;
        self.workers_lost += 1;
        let lane = w as u32 + 1;
        self.probe.with_lane(lane).emit(t, EventKind::WorkerLost { lane });
    }

    /// Packages the run into a report: the machine's, with the ledger, the
    /// operating point's time and the lost workers added.
    pub(crate) fn finish(self) -> WavePipeReport {
        let mut rep = self.round.finish(self.run_start.elapsed().as_nanos());
        rep.critical_ns += self.dc_ns;
        (rep.dispatch_ns, rep.lead_ns) = (self.dispatch_ns, self.lead_ns);
        (rep.wait_ns, rep.commit_ns) = (self.wait_ns, self.commit_ns);
        rep.workers_lost = self.workers_lost;
        rep
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::round::lead_growth;
    use wavepipe_circuit::generators;

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
        let order = SimOptions::default().method.order() as f64;
        for rmax in [2.0_f64, 4.0] {
            let mut seen = Vec::new();
            for k in 0..=400 {
                let g = lead_growth(f64::from(k) / 400.0, rmax, order);
                assert!([1.0, rmax.sqrt(), rmax].contains(&g), "rmax {rmax}: {g}");
                if seen.last() != Some(&g) {
                    seen.push(g);
                }
            }
            // Falling growth as the ratio rises, each rung once.
            assert_eq!(seen, [rmax, rmax.sqrt(), 1.0]);
            // The ratios at which the unsnapped growth reaches `(1 + rmax)/2`
            // and `rmax^(1/4)`: a part in a thousand either side switches.
            for (at, above, below) in
                [((1.0 + rmax) / 2.0, rmax, rmax.sqrt()), (rmax.powf(0.25), rmax.sqrt(), 1.0)]
            {
                let ratio = 0.9 / at.powf(order + 1.0);
                for (r, want) in [(ratio * 0.999, above), (ratio * 1.001, below)] {
                    assert_eq!(lead_growth(r, rmax, order), want);
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
        assert!(drv.drive(Scheme::Backward, 2).is_none());
        let stepping = start.elapsed().as_nanos();
        let rep = drv.finish();
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
