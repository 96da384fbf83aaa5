//! Intra-step parallel device evaluation: the colored stamp executor.
//!
//! [`MnaSystem::compile`] level-colors the device conflict graph (two
//! devices conflict iff they write a shared matrix slot or RHS entry). The
//! executor built here parallelises the *nonlinear* device evaluations (the
//! expensive part): the master stamps the linear phase itself (optionally
//! replayed from the step-size-keyed companion cache), while nonlinear
//! chunks are evaluated concurrently on a small persistent worker set —
//! evaluation is pure apart from device-owned junction state, so chunks
//! from *different* colors can be in flight at once — and then accumulated
//! into the workspace serially, in the fixed color-then-element order the
//! coloring guarantees matches the serial per-slot addition order. Device
//! bypass is decided on the master before dispatch (one mask per stamp
//! call), so workers skip exactly the devices the serial path skips. The
//! result is bit-identical to [`MnaSystem::stamp_lane`], independent of
//! worker count, scheduling, and cache knob settings.
//!
//! Timing: [`SimStats::stamp_ns`] gets the actual wall time of each call,
//! while [`SimStats::stamp_modeled_ns`] gets the critical-path model (the
//! busiest worker's evaluation time plus the master-serial snapshot and
//! accumulation overhead) — what an otherwise-idle machine with enough cores
//! would realise. The repo's speedup reports are built from the model, per
//! the convention documented in EXPERIMENTS.md.
//!
//! Fault tolerance: worker evaluation runs under `catch_unwind`. A panic in
//! a worker (organic or injected via [`crate::fault::FaultPlan`]) retires
//! that worker; the master evaluates the affected chunks inline from the
//! retained snapshot — same devices, same order, bit-identical results —
//! and then degrades the executor permanently to the serial
//! [`MnaSystem::stamp_lane`] kernel, emitting [`EventKind::WorkerLost`] and
//! [`EventKind::FallbackSerial`] once.

use crate::env;
use crate::fault::FaultHandle;
use crate::integrate::IntegCoeffs;
use crate::mna::{MnaSystem, MnaWorkspace, StampInput, StampResult};
use crate::options::CacheCtl;
use crate::stats::SimStats;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;
use wavepipe_telemetry::{Counter, EventKind, MetricsHandle, ProbeHandle};

/// Per-chunk scratch buffers, recycled across stamp calls.
#[derive(Debug, Default)]
struct ChunkBufs {
    mat: Vec<f64>,
    rhs: Vec<f64>,
    jct: Vec<(u32, f64)>,
    /// Devices (in chunk order) whose junction limiter fired.
    limited_devs: Vec<u32>,
}

/// One dispatched evaluation job: a contiguous span of the nonlinear replay
/// order.
struct Job {
    ctx: Arc<CallCtx>,
    chunk_id: u32,
    /// `[start, end)` into `StampPlan::nl_order`.
    start: u32,
    end: u32,
    bufs: ChunkBufs,
}

/// A finished chunk, sent back to the master.
struct ChunkOut {
    chunk_id: u32,
    bufs: ChunkBufs,
    eval_ns: u64,
    /// The worker panicked evaluating this chunk; `bufs` is empty and the
    /// worker has retired. The master re-evaluates the chunk inline.
    failed: bool,
}

/// Owned snapshot of one stamp call's borrowed inputs. Workers hold it via
/// `Arc`; the buffers are recycled call-to-call to avoid reallocation.
#[derive(Default)]
struct CallCtx {
    time: f64,
    coeffs: Option<IntegCoeffs>,
    x_prev: Vec<f64>,
    x_prev2: Vec<f64>,
    cap_currents: Vec<f64>,
    gmin: f64,
    gshunt: f64,
    source_scale: f64,
    ic_mode: bool,
    x_iter: Vec<f64>,
    junction: Vec<f64>,
    /// Per-device bypass decisions for this stamp call, computed once on the
    /// master so every worker skips exactly the serial path's devices.
    mask: Vec<bool>,
}

impl CallCtx {
    fn capture(&mut self, input: &StampInput<'_>, x_iter: &[f64], junction: &[f64], mask: &[bool]) {
        self.time = input.time;
        self.coeffs = input.coeffs;
        self.x_prev.clear();
        self.x_prev.extend_from_slice(input.x_prev);
        self.x_prev2.clear();
        self.x_prev2.extend_from_slice(input.x_prev2);
        self.cap_currents.clear();
        self.cap_currents.extend_from_slice(input.cap_currents);
        self.gmin = input.gmin;
        self.gshunt = input.gshunt;
        self.source_scale = input.source_scale;
        self.ic_mode = input.ic_mode;
        self.x_iter.clear();
        self.x_iter.extend_from_slice(x_iter);
        self.junction.clear();
        self.junction.extend_from_slice(junction);
        self.mask.clear();
        self.mask.extend_from_slice(mask);
    }

    fn input(&self) -> StampInput<'_> {
        StampInput {
            time: self.time,
            coeffs: self.coeffs,
            x_prev: &self.x_prev,
            x_prev2: &self.x_prev2,
            cap_currents: &self.cap_currents,
            gmin: self.gmin,
            gshunt: self.gshunt,
            source_scale: self.source_scale,
            ic_mode: self.ic_mode,
        }
    }
}

/// One precomputed chunk of the nonlinear replay order.
#[derive(Debug, Clone, Copy)]
struct ChunkSpec {
    /// `[start, end)` into `StampPlan::nl_order`.
    start: u32,
    end: u32,
    /// Worker the chunk is pinned to (round-robin at plan time).
    worker: u32,
}

/// Persistent worker set evaluating stamp chunks concurrently.
///
/// Created once per solver (the workers and all buffers are reused across
/// every Newton iteration); dropped workers shut down when their job channel
/// closes. The executor snapshots the system at construction via `Arc`, so
/// the system must not be mutated afterwards (use the serial path for
/// workflows like DC sweeps that edit sources between solves).
pub struct StampExecutor {
    sys: Arc<MnaSystem>,
    n_workers: usize,
    chunks: Vec<ChunkSpec>,
    job_txs: Vec<Sender<Job>>,
    result_rx: Receiver<ChunkOut>,
    handles: Vec<JoinHandle<()>>,
    /// Reorder buffer: finished chunks land here until their turn.
    pending: Vec<Option<ChunkOut>>,
    /// Recycled per-chunk buffers, indexed by chunk id.
    spare: Vec<Option<ChunkBufs>>,
    /// Recycled snapshot (taken back from workers each call via `Arc`
    /// reference-count collapse; re-allocated only if a worker still holds it).
    ctx: Option<Arc<CallCtx>>,
    /// Per-worker busy nanoseconds within the current call.
    worker_busy: Vec<u64>,
    /// Fault-injection handle shared with the owning solver (inert outside
    /// tests unless `WAVEPIPE_FAULT_SEED` is set).
    faults: FaultHandle,
    /// Workers observed dead (send failed or a failed [`ChunkOut`] arrived).
    worker_dead: Vec<bool>,
    /// Permanently degraded: every future call takes the serial path.
    broken: bool,
    /// `WorkerLost`/`FallbackSerial` have been emitted (once per executor).
    fallback_logged: bool,
    /// Calibration mode (`WAVEPIPE_STAMP_SEQUENTIAL=1`): dispatch chunks one
    /// at a time so each chunk's evaluation is timed without the other
    /// workers competing for cores. Results are bit-identical either way —
    /// only the timing quality changes. Benchmarks use this on oversubscribed
    /// hosts, where concurrent chunk wall times would overstate the critical
    /// path that [`SimStats::stamp_modeled_ns`] models.
    sequential: bool,
}

impl fmt::Debug for StampExecutor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StampExecutor")
            .field("workers", &self.n_workers)
            .field("chunks", &self.chunks.len())
            .field("colors", &self.sys.stamp_color_count())
            .finish()
    }
}

/// Rough per-device evaluation cost used to balance chunks (model
/// evaluations dominate; linear stamps are almost free).
fn device_cost(sys: &MnaSystem, d: u32) -> u64 {
    sys.device_eval_weight(d as usize)
}

impl StampExecutor {
    /// Spawns `workers` evaluation threads for `sys`. Returns `None` when
    /// `workers == 0` (serial stamping) or the system has no devices.
    /// `faults` is the owning solver's fault-injection handle; pass
    /// [`FaultHandle::none`] outside a simulation context.
    pub fn new(sys: &Arc<MnaSystem>, workers: usize, faults: &FaultHandle) -> Option<Self> {
        if workers == 0 || sys.plan().order.is_empty() {
            return None;
        }
        let n_workers = workers;
        // Only nonlinear devices are worth shipping to workers: linear
        // stamps are almost free (and companion-cacheable), so the master
        // keeps them. One contiguous span of the nonlinear replay order per
        // worker, balanced by estimated cost. A single chunk per worker
        // minimises the per-stamp channel round-trips, which dominate
        // overhead on small circuits; the cost weights keep the spans even
        // enough without work stealing. All-linear circuits get an empty
        // chunk list: the executor still exists, the master just does
        // everything itself.
        let nl_len = sys.plan().nl_order.len();
        let mut chunks: Vec<ChunkSpec> = Vec::new();
        if nl_len > 0 {
            let n_chunks = n_workers.min(nl_len);
            let order = &sys.plan().nl_order;
            let total_cost: u64 = order.iter().map(|&d| device_cost(sys, d)).sum();
            let target = total_cost.max(1).div_ceil(n_chunks as u64);
            let mut start = 0usize;
            let mut acc = 0u64;
            for (i, &d) in order.iter().enumerate() {
                acc += device_cost(sys, d);
                let remaining_chunks = n_chunks - chunks.len();
                let remaining_items = nl_len - i - 1;
                if (acc >= target || remaining_items < remaining_chunks) && i + 1 > start {
                    chunks.push(ChunkSpec {
                        start: start as u32,
                        end: (i + 1) as u32,
                        worker: (chunks.len() % n_workers) as u32,
                    });
                    start = i + 1;
                    acc = 0;
                    if chunks.len() == n_chunks {
                        break;
                    }
                }
            }
            if start < nl_len {
                // Fold any tail into the last chunk.
                match chunks.last_mut() {
                    Some(last) => last.end = nl_len as u32,
                    None => chunks.push(ChunkSpec { start: 0, end: nl_len as u32, worker: 0 }),
                }
            }
        }
        let (result_tx, result_rx) = channel::<ChunkOut>();
        let mut job_txs = Vec::with_capacity(n_workers);
        let mut handles = Vec::with_capacity(n_workers);
        for widx in 0..n_workers {
            let (tx, rx) = channel::<Job>();
            job_txs.push(tx);
            let out = result_tx.clone();
            let sys = Arc::clone(sys);
            let faults = faults.clone();
            handles.push(std::thread::spawn(move || {
                let mut calls = 0u64;
                while let Ok(mut job) = rx.recv() {
                    let t0 = Instant::now();
                    let call = calls;
                    calls += 1;
                    let chunk_id = job.chunk_id;
                    // Contain panics (organic or injected) to this worker:
                    // evaluation writes only job-private buffers, so a caught
                    // unwind leaves no shared state to corrupt.
                    let result = catch_unwind(AssertUnwindSafe(|| {
                        if faults.stamp_panic(widx, call) {
                            panic!("injected fault: stamp worker {widx} panics at call {call}");
                        }
                        let devices = &sys.plan().nl_order[job.start as usize..job.end as usize];
                        sys.eval_devices(
                            &job.ctx.input(),
                            &job.ctx.x_iter,
                            &job.ctx.junction,
                            devices,
                            &job.ctx.mask,
                            &mut job.bufs.mat,
                            &mut job.bufs.rhs,
                            &mut job.bufs.jct,
                            &mut job.bufs.limited_devs,
                        );
                        drop(job.ctx);
                        job.bufs
                    }));
                    let eval_ns = t0.elapsed().as_nanos() as u64;
                    match result {
                        Ok(bufs) => {
                            if out
                                .send(ChunkOut { chunk_id, bufs, eval_ns, failed: false })
                                .is_err()
                            {
                                break;
                            }
                        }
                        Err(_) => {
                            // Report the failure (best effort) and retire so
                            // the master falls back to serial evaluation.
                            let _ = out.send(ChunkOut {
                                chunk_id,
                                bufs: ChunkBufs::default(),
                                eval_ns,
                                failed: true,
                            });
                            break;
                        }
                    }
                }
            }));
        }
        let n_chunks = chunks.len();
        Some(StampExecutor {
            sys: Arc::clone(sys),
            n_workers,
            chunks,
            job_txs,
            result_rx,
            handles,
            pending: (0..n_chunks).map(|_| None).collect(),
            spare: (0..n_chunks).map(|_| Some(ChunkBufs::default())).collect(),
            ctx: Some(Arc::new(CallCtx::default())),
            worker_busy: vec![0; n_workers],
            faults: faults.clone(),
            worker_dead: vec![false; n_workers],
            broken: false,
            fallback_logged: false,
            sequential: env::set_and_not_zero("WAVEPIPE_STAMP_SEQUENTIAL"),
        })
    }

    /// The system this executor was built for.
    pub fn system(&self) -> &Arc<MnaSystem> {
        &self.sys
    }

    /// Number of evaluation workers.
    pub fn workers(&self) -> usize {
        self.n_workers
    }

    /// Parallel equivalent of [`MnaSystem::stamp_lane`]: bit-identical
    /// results, concurrent nonlinear device evaluation. Records actual and
    /// critical-path-modeled stamp time into `stats`, emits per-color spans
    /// through `probe` when enabled, and mirrors worker-loss / fallback
    /// transitions into `metrics`.
    #[allow(clippy::too_many_arguments)] // mirrors the serial stamp context plus observability handles
    pub fn stamp(
        &mut self,
        ws: &mut MnaWorkspace,
        input: &StampInput<'_>,
        x_iter: &[f64],
        ctl: &CacheCtl,
        first_iter: bool,
        probe: &ProbeHandle,
        metrics: &MetricsHandle,
        stats: &mut SimStats,
    ) -> StampResult {
        if self.broken {
            return self.stamp_serial(ws, input, x_iter, ctl, first_iter, stats);
        }
        let t_call = Instant::now();
        // Decide bypass on the master (exactly as the serial path does),
        // then snapshot the borrowed inputs — mask included — so they can
        // cross into the workers.
        self.sys.compute_bypass_mask(&mut ws.caches, input, x_iter, ctl);
        let mut ctx_arc = self.ctx.take().and_then(|a| Arc::try_unwrap(a).ok()).unwrap_or_default();
        ctx_arc.capture(input, x_iter, &ws.junction_state, &ws.caches.mask);
        let ctx = Arc::new(ctx_arc);

        // Dispatch every chunk up-front: evaluation is safe across colors
        // (workers write only private buffers and device-owned junction
        // entries); only the *accumulation* below is ordered. In calibration
        // mode each dispatch waits for its result so chunk evaluations are
        // timed one at a time (same results, uncontended timing).
        for (id, chunk) in self.chunks.iter().enumerate() {
            let w = chunk.worker as usize;
            if self.worker_dead[w] {
                continue; // evaluated inline during accumulation
            }
            let bufs = self.spare[id].take().unwrap_or_default();
            let job = Job {
                ctx: Arc::clone(&ctx),
                chunk_id: id as u32,
                start: chunk.start,
                end: chunk.end,
                bufs,
            };
            if let Err(returned) = self.job_txs[w].send(job) {
                // Channel closed: the worker died earlier. Reclaim the
                // buffers; the accumulation pass evaluates the chunk inline.
                self.worker_dead[w] = true;
                self.spare[id] = Some(returned.0.bufs);
                continue;
            }
            if self.sequential {
                match self.result_rx.recv() {
                    Ok(out) => {
                        let id = out.chunk_id as usize;
                        if out.failed {
                            self.worker_dead[self.chunks[id].worker as usize] = true;
                        }
                        self.pending[id] = Some(out);
                    }
                    Err(_) => self.worker_dead.iter_mut().for_each(|d| *d = true),
                }
            }
        }
        self.ctx = Some(ctx);

        // The master stamps the linear phase itself while the workers chew
        // on the nonlinear chunks.
        let companion_hit = self.sys.stamp_linear_phase(ws, input, x_iter, ctl, first_iter);
        let serial_ns = t_call.elapsed().as_nanos() as u64;

        // Accumulate strictly in chunk order (= color-then-element order
        // over the nonlinear devices), emitting a span per color group as it
        // is folded in.
        self.worker_busy.fill(0);
        let mut acc_ns = 0u64;
        let mut evals = self.sys.linear_device_count();
        let mut bypassed = 0usize;
        let plan = self.sys.plan();
        let mut open_color: Option<(u32, u32)> = None;
        for next in 0..self.chunks.len() {
            let chunk = self.chunks[next];
            let w = chunk.worker as usize;
            while self.pending[next].is_none() && !self.worker_dead[w] {
                match self.result_rx.recv() {
                    Ok(out) => {
                        let id = out.chunk_id as usize;
                        if out.failed {
                            self.worker_dead[self.chunks[id].worker as usize] = true;
                        }
                        self.pending[id] = Some(out);
                    }
                    Err(_) => self.worker_dead.iter_mut().for_each(|d| *d = true),
                }
            }
            let devices = &plan.nl_order[chunk.start as usize..chunk.end as usize];
            let out = match self.pending[next].take() {
                Some(out) if !out.failed => out,
                lost => {
                    // Worker lost: evaluate the chunk inline from the
                    // retained snapshot. Same devices, same inputs, same
                    // mask, same order — the accumulated result stays
                    // bit-identical.
                    if !self.fallback_logged {
                        self.fallback_logged = true;
                        probe.emit(input.time, EventKind::WorkerLost { lane: self.faults.lane() });
                        probe.emit(input.time, EventKind::FallbackSerial);
                        metrics.inc(Counter::WorkersLost);
                        metrics.inc(Counter::SerialFallbacks);
                    }
                    let mut bufs = lost.map(|o| o.bufs).unwrap_or_default();
                    let t0 = Instant::now();
                    let ctx_ref: &CallCtx = self.ctx.as_deref().expect("snapshot retained");
                    self.sys.eval_devices(
                        &ctx_ref.input(),
                        &ctx_ref.x_iter,
                        &ctx_ref.junction,
                        devices,
                        &ctx_ref.mask,
                        &mut bufs.mat,
                        &mut bufs.rhs,
                        &mut bufs.jct,
                        &mut bufs.limited_devs,
                    );
                    // Inline evaluation runs on the master thread, so it
                    // belongs to the serial critical path, not worker time.
                    acc_ns += t0.elapsed().as_nanos() as u64;
                    ChunkOut { chunk_id: next as u32, bufs, eval_ns: 0, failed: false }
                }
            };
            self.worker_busy[w] += out.eval_ns;
            let t_acc = Instant::now();
            if probe.enabled() {
                for &d in devices {
                    let c = plan.color[d as usize];
                    match open_color {
                        Some((open, n)) if open == c => open_color = Some((open, n + 1)),
                        Some((open, n)) => {
                            probe.emit(
                                input.time,
                                EventKind::StampColorEnd { color: open, devices: n },
                            );
                            probe.emit(input.time, EventKind::StampColorStart { color: c });
                            open_color = Some((c, 1));
                        }
                        None => {
                            probe.emit(input.time, EventKind::StampColorStart { color: c });
                            open_color = Some((c, 1));
                        }
                    }
                }
            }
            let (ev, byp) = self.sys.accumulate_devices(
                ws,
                devices,
                &out.bufs.mat,
                &out.bufs.rhs,
                &out.bufs.jct,
                &out.bufs.limited_devs,
                x_iter,
            );
            evals += ev;
            bypassed += byp;
            acc_ns += t_acc.elapsed().as_nanos() as u64;
            self.spare[next] = Some(out.bufs);
        }
        if let Some((open, n)) = open_color {
            probe.emit(input.time, EventKind::StampColorEnd { color: open, devices: n });
        }

        if self.worker_dead.iter().any(|&d| d) {
            // Degrade permanently: close the job channels so the surviving
            // workers exit, and take the serial path from now on. Keeping a
            // half-dead pool would re-balance chunks and change timing for no
            // benefit — correctness is already guaranteed by the serial path.
            self.broken = true;
            self.job_txs.clear();
        }

        let busiest = self.worker_busy.iter().copied().max().unwrap_or(0);
        stats.stamp_ns += t_call.elapsed().as_nanos();
        stats.stamp_modeled_ns += u128::from(busiest + serial_ns + acc_ns);
        StampResult { evals, bypassed, companion_hit }
    }

    /// Serial fallback once a worker has been lost: delegates to
    /// [`MnaSystem::stamp_lane`] with the *same* cache controls, the very
    /// kernel parallel stamping is bit-identical to, so degradation never
    /// changes results.
    fn stamp_serial(
        &mut self,
        ws: &mut MnaWorkspace,
        input: &StampInput<'_>,
        x_iter: &[f64],
        ctl: &CacheCtl,
        first_iter: bool,
        stats: &mut SimStats,
    ) -> StampResult {
        let t0 = Instant::now();
        let res = self.sys.stamp_lane(ws, input, x_iter, ctl, first_iter);
        let ns = t0.elapsed().as_nanos();
        stats.stamp_ns += ns;
        stats.stamp_modeled_ns += ns;
        res
    }

    /// True once a worker has been lost and the executor has fallen back to
    /// serial stamping for good.
    pub fn is_degraded(&self) -> bool {
        self.broken
    }
}

impl Drop for StampExecutor {
    fn drop(&mut self) {
        self.job_txs.clear(); // close channels: workers exit their recv loop
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}
