//! **Batched corner-sweep figure** — throughput of [`BatchSim`] against the
//! classic one-run-at-a-time loop on a many-instance parameter sweep.
//!
//! Two quantities are reported, and they answer different questions:
//!
//! * `work_ratio` — real, single-core CPU-work saving: total wall of the
//!   independent loop (recompile + solve per instance) divided by the
//!   total wall of the batched engine on one worker (compile **once**,
//!   value-patch + solve per instance). Both are timed on this host,
//!   sequentially, in [`PAIRS`](crate::PAIRS) alternating pairs in one process, and the
//!   ratio is the median of the pairs' ratios.
//! * `measured_speedup` — the throughput the batch gets at the host's real
//!   width: the median independent-loop total divided by the wall of one batch
//!   run on `threads` workers, where `threads` is the requested width capped
//!   at [`std::thread::available_parallelism`]. Nothing is modeled, so the
//!   number is only as steady as the host; the perf gate does not gate it.
//!
//! The figure also cross-checks correctness in passing: every batched
//! instance must land on **exactly** the same time grid as its independent
//! twin (the bit-identity property pinned ulp-level by
//! `wavepipe-batch/tests/bit_identity.rs`).

use crate::{alternating_pairs, median};
use std::fmt::Write as _;
use std::time::Instant;
use wavepipe_batch::{BatchSim, ParamKind};
use wavepipe_circuit::generators::Benchmark;
use wavepipe_circuit::{Circuit, Element};
use wavepipe_engine::{run_transient, SimOptions, SolverHandle};
use wavepipe_telemetry::json;

/// One measured sweep configuration — a row of `BENCH_sweep.json`.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// Benchmark name.
    pub circuit: String,
    /// Instances in the sweep.
    pub instances: usize,
    /// Batch workers of the timed parallel run: the requested width, capped
    /// at the host's available parallelism.
    pub threads: usize,
    /// Total wall of the independent loop, milliseconds: the median over
    /// [`PAIRS`](crate::PAIRS) runs.
    pub independent_ms: f64,
    /// Total sequential wall of the batched engine, milliseconds: the median
    /// over [`PAIRS`](crate::PAIRS) runs.
    pub batched_cpu_ms: f64,
    /// Real single-core work saving: the median over [`PAIRS`](crate::PAIRS) alternating
    /// pairs of each pair's independent/batched wall ratio.
    pub work_ratio: f64,
    /// Measured throughput gain, `independent_ms` over the wall of the batch
    /// on `threads` workers.
    pub measured_speedup: f64,
}

/// Deterministic corner multiplier stream: a tiny LCG (no external RNG in
/// the bench path) yielding multipliers in `[0.9, 1.1)`.
struct Corners {
    state: u64,
}

impl Corners {
    fn new(seed: u64) -> Self {
        Corners { state: seed.max(1) }
    }

    fn next_mult(&mut self) -> f64 {
        // Numerical Recipes LCG constants; top 32 bits for the mantissa.
        self.state = self.state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let u = (self.state >> 32) as f64 / 4294967296.0;
        0.9 + 0.2 * u
    }
}

/// The sweep parameter set for an inverter-chain-style benchmark: per stage
/// `i`, the NMOS/PMOS transconductance of `Mn{i}`/`Mp{i}` and the load
/// capacitance of `Cl{i}`. Stages are discovered by name probing so the
/// figure works at any chain length.
fn stage_count(ckt: &Circuit) -> usize {
    let mut n = 0;
    while ckt.element(&format!("Mn{n}")).is_some() {
        n += 1;
    }
    assert!(n > 0, "sweep subject must be an inverter-chain-style circuit");
    n
}

/// Nominal values for the swept parameters, read from the base circuit so
/// corners perturb whatever the generator chose.
fn nominals(ckt: &Circuit, stages: usize) -> Vec<f64> {
    let mut out = Vec::with_capacity(stages * 3);
    for i in 0..stages {
        let Some(Element::Mosfet { model, .. }) = ckt.element(&format!("Mn{i}")) else {
            unreachable!("stage {i} probed above");
        };
        out.push(model.kp);
        let Some(Element::Mosfet { model, .. }) = ckt.element(&format!("Mp{i}")) else {
            panic!("stage {i} lacks Mp{i}");
        };
        out.push(model.kp);
        let Some(Element::Capacitor { capacitance, .. }) = ckt.element(&format!("Cl{i}")) else {
            panic!("stage {i} lacks Cl{i}");
        };
        out.push(*capacitance);
    }
    out
}

/// Patch one instance's values into a fresh copy of the base circuit (the
/// independent loop's equivalent of a batch instance).
fn patched(base: &Circuit, stages: usize, row: &[f64]) -> Circuit {
    let mut ckt = base.clone();
    for i in 0..stages {
        if let Some(Element::Mosfet { model, .. }) = ckt.element_mut(&format!("Mn{i}")) {
            model.kp = row[i * 3];
        }
        if let Some(Element::Mosfet { model, .. }) = ckt.element_mut(&format!("Mp{i}")) {
            model.kp = row[i * 3 + 1];
        }
        if let Some(Element::Capacitor { capacitance, .. }) = ckt.element_mut(&format!("Cl{i}")) {
            *capacitance = row[i * 3 + 2];
        }
    }
    ckt
}

/// **Batched corner-sweep figure** — runs `instances` corners of the
/// benchmark through the independent loop and through [`BatchSim`] on one
/// worker in [`PAIRS`](crate::PAIRS) alternating pairs, then once on `workers` capped at
/// the host's available parallelism, and cross-checks every batched time
/// grid against its independent twin. See the module docs for what each reported number
/// means.
pub fn fig_sweep(b: &Benchmark, instances: usize, workers: usize) -> (String, SweepRow) {
    assert!(instances >= 1 && workers >= 1);
    let threads = workers.min(std::thread::available_parallelism().map_or(1, |n| n.get()));
    let stages = stage_count(&b.circuit);
    let noms = nominals(&b.circuit, stages);
    let mut corners = Corners::new(0x5eed_cafe);
    let rows: Vec<Vec<f64>> =
        (0..instances).map(|_| noms.iter().map(|&v| v * corners.next_mult()).collect()).collect();
    // One solver pinned for both sides, so the work-ratio comparison is
    // solver-for-solver and the figure means the same under
    // `WAVEPIPE_SOLVER`.
    let opts = SimOptions::default().with_solver(SolverHandle::direct());

    // Independent loop: rebuild + recompile + solve per instance, each
    // timed individually. Every pass computes the same results; the last
    // pass's are what the batches are checked against.
    let mut independent = Vec::with_capacity(instances);
    let mut independent_loop = || -> u128 {
        independent.clear();
        let mut ns = 0u128;
        for row in &rows {
            let ckt = patched(&b.circuit, stages, row);
            let t0 = Instant::now();
            let res = run_transient(&ckt, b.tstep, b.tstop, &opts)
                .unwrap_or_else(|e| panic!("{}: independent run failed: {e}", b.name));
            ns += t0.elapsed().as_nanos();
            independent.push(res);
        }
        ns
    };

    // Batched engine, compile to last result, timed whole: in pairs with the
    // loop on one worker (the work comparison), then once at the host's
    // width. Each run hands back its instances' time grids.
    let batched = |threads: usize| -> (u128, Vec<Vec<f64>>) {
        let t0 = Instant::now();
        let mut batch = BatchSim::compile(&b.circuit, b.tstep, b.tstop)
            .unwrap_or_else(|e| panic!("{}: batch compile failed: {e}", b.name))
            .with_sim(opts.clone())
            .with_threads(threads);
        for i in 0..stages {
            batch.param(&format!("Mn{i}"), ParamKind::MosKp).expect("Mn kp column");
            batch.param(&format!("Mp{i}"), ParamKind::MosKp).expect("Mp kp column");
            batch.param(&format!("Cl{i}"), ParamKind::Capacitance).expect("Cl column");
        }
        for row in &rows {
            batch.add_instance(row).expect("instance row");
        }
        let run = batch.run().unwrap_or_else(|e| panic!("{}: batch run failed: {e}", b.name));
        let ns = t0.elapsed().as_nanos();
        (ns, run.results().iter().map(|r| r.times().to_vec()).collect())
    };
    let mut grids = Vec::new();
    let pairs = alternating_pairs(&mut independent_loop, || {
        let (ns, times) = batched(1);
        grids.push((1, times));
        ns
    });
    let (parallel_ns, times) = batched(threads);
    grids.push((threads, times));
    // Correctness cross-check: identical time grids instance by instance.
    for (threads, times) in &grids {
        for (i, (got, want)) in times.iter().zip(&independent).enumerate() {
            assert_eq!(
                got.as_slice(),
                want.times(),
                "{}: batched instance {i} on {threads} workers diverged from its independent twin",
                b.name
            );
        }
    }
    let independent_ns = median(pairs.iter().map(|p| p.0).collect());

    let row = SweepRow {
        circuit: b.name.clone(),
        instances,
        threads,
        independent_ms: independent_ns / 1e6,
        batched_cpu_ms: median(pairs.iter().map(|p| p.1).collect()) / 1e6,
        work_ratio: median(pairs.iter().map(|(loop_ns, batch_ns)| loop_ns / batch_ns).collect()),
        measured_speedup: independent_ns / parallel_ns.max(1) as f64,
    };

    let mut out = String::new();
    let _ = writeln!(out, "Batched corner sweep: BatchSim vs independent runs");
    let _ = writeln!(
        out,
        "{:<22} {:>5} {:>4} {:>12} {:>12} {:>6} {:>9}",
        "circuit", "inst", "thr", "indep (ms)", "batch (ms)", "work", "measured"
    );
    let _ = writeln!(
        out,
        "{:<22} {:>5} {:>4} {:>12.1} {:>12.1} {:>5.2}x {:>8.2}x",
        row.circuit,
        row.instances,
        row.threads,
        row.independent_ms,
        row.batched_cpu_ms,
        row.work_ratio,
        row.measured_speedup,
    );
    (out, row)
}

/// Machine-readable form of the sweep rows — written by the `sweep` binary
/// as `BENCH_sweep.json`.
pub fn sweep_to_json(rows: &[SweepRow]) -> String {
    let mut out = String::from("[");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n  {{\"circuit\":\"{}\",\"instances\":{},\"threads\":{},\
             \"independent_ms\":{},\"batched_cpu_ms\":{},\
             \"work_ratio\":{},\"measured_speedup\":{}}}",
            json::escape(&r.circuit),
            r.instances,
            r.threads,
            json::fmt_f64(r.independent_ms),
            json::fmt_f64(r.batched_cpu_ms),
            json::fmt_f64(r.work_ratio),
            json::fmt_f64(r.measured_speedup),
        );
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use wavepipe_circuit::generators;

    #[test]
    fn corners_are_deterministic_and_bounded() {
        let mut a = Corners::new(7);
        let mut b = Corners::new(7);
        for _ in 0..100 {
            let m = a.next_mult();
            assert_eq!(m, b.next_mult());
            assert!((0.9..1.1).contains(&m), "multiplier {m} out of band");
        }
    }

    #[test]
    fn small_sweep_produces_consistent_row() {
        let b = generators::inverter_chain(2);
        let (txt, row) = fig_sweep(&b, 3, 2);
        assert!(txt.contains("inverter_chain(2)"));
        assert_eq!(row.instances, 3);
        assert!((1..=2).contains(&row.threads));
        assert!(row.independent_ms > 0.0 && row.batched_cpu_ms > 0.0);
        assert!(row.work_ratio > 0.0 && row.measured_speedup > 0.0);
    }

    #[test]
    fn json_round_trips_through_the_shared_parser() {
        let rows = vec![SweepRow {
            circuit: "inverter_chain(8)".into(),
            instances: 100,
            threads: 2,
            independent_ms: 1000.0,
            batched_cpu_ms: 900.0,
            work_ratio: 1.11,
            measured_speedup: 1.9,
        }];
        let doc = sweep_to_json(&rows);
        let v = json::parse(&doc).expect("valid json");
        let arr = v.as_array().expect("array");
        assert_eq!(arr.len(), 1);
        assert_eq!(arr[0].get("threads").and_then(json::JsonValue::as_f64), Some(2.0));
        assert_eq!(arr[0].get("measured_speedup").and_then(json::JsonValue::as_f64), Some(1.9));
    }
}
