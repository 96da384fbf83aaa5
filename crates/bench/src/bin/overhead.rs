//! Fault-tolerance overhead probe: times the serial engine with the
//! convergence-recovery ladder disarmed vs armed (both fault-free) and the
//! backward scheme on the largest Table-1 circuit (`power_grid(12,12)`),
//! printing best-of-N wall times in microseconds plus the measured
//! clean-run recovery overhead. The recovery ladder only engages where the
//! classic controller would already have died, so the armed run must cost
//! within noise of the disarmed one (acceptance bound: <= 1%).
//!
//! Writes `BENCH_overhead.json` with the off/on ratio and the recovery
//! counters of the armed clean run, both gated by `perf-gate` against the
//! committed baseline: a clean run that starts engaging the ladder drops
//! `rescue_free_fraction` below 1 and fails deterministically.
//!
//! Usage: `cargo run --release -p wavepipe-bench --bin overhead [-- --small]`

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;
use wavepipe_circuit::generators;
use wavepipe_core::{run_wavepipe, Scheme, WavePipeOptions};
use wavepipe_engine::{run_transient, SimOptions};
use wavepipe_telemetry::{analyze, json, ProbeHandle, RecordingProbe};

const REPS: usize = 7;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let small = args.iter().any(|a| a == "--small");
    let b = if small { generators::power_grid(4, 4) } else { generators::power_grid(12, 12) };

    let off = SimOptions::default().with_recovery(false);
    let on = SimOptions::default().with_recovery(true);
    let wp = WavePipeOptions::new(Scheme::Backward, 2);

    // Warm-up: fault the allocator and branch predictors equally.
    black_box(run_transient(&b.circuit, b.tstep, b.tstop, &off).unwrap());
    black_box(run_wavepipe(&b.circuit, b.tstep, b.tstop, &wp).unwrap());

    let mut off_best = u128::MAX;
    let mut on_best = u128::MAX;
    let mut backward_best = u128::MAX;
    for _ in 0..REPS {
        let t0 = Instant::now();
        black_box(run_transient(&b.circuit, b.tstep, b.tstop, &off).unwrap());
        off_best = off_best.min(t0.elapsed().as_micros());

        let t0 = Instant::now();
        black_box(run_transient(&b.circuit, b.tstep, b.tstop, &on).unwrap());
        on_best = on_best.min(t0.elapsed().as_micros());

        let t0 = Instant::now();
        black_box(run_wavepipe(&b.circuit, b.tstep, b.tstop, &wp).unwrap());
        backward_best = backward_best.min(t0.elapsed().as_micros());
    }

    // Untimed armed run with a recorder attached: a clean run must never tick
    // the recovery counters (the zero-overhead invariant, in counter form).
    let recorder = RecordingProbe::shared();
    let counted = on.clone().with_probe(ProbeHandle::new(recorder.clone()));
    black_box(run_transient(&b.circuit, b.tstep, b.tstop, &counted).unwrap());
    let counts = analyze(&recorder.events()).counts;
    let attempts = counts.recovery_attempts;
    let rescues = counts.recovery_rescues;
    let rollbacks = counts.cache_rollbacks;
    let accepted = counts.points_accepted;
    let rescue_free = if accepted > 0 { 1.0 - rescues as f64 / accepted as f64 } else { 1.0 };

    let ratio = off_best as f64 / on_best as f64;
    let overhead_pct = (on_best as f64 / off_best as f64 - 1.0) * 100.0;
    println!(
        "circuit {} serial_off_us {off_best} serial_on_us {on_best} backward2_us {backward_best}",
        b.name
    );
    println!(
        "recovery overhead {overhead_pct:+.2}% (off/on ratio {ratio:.4}), \
         clean-run ladder engagements: {attempts} attempts / {rescues} rescues / \
         {rollbacks} rollbacks over {accepted} accepted points"
    );

    let mut doc = String::from("[");
    let _ = write!(
        doc,
        "\n  {{\"circuit\":\"{}\",\"serial_off_us\":{off_best},\"serial_on_us\":{on_best},\
         \"backward2_us\":{backward_best},\"off_on_ratio\":{},\
         \"recovery_attempts\":{attempts},\"recovery_rescues\":{rescues},\
         \"cache_rollbacks\":{rollbacks},\"rescue_free_fraction\":{}}}",
        json::escape(&b.name),
        json::fmt_f64(ratio),
        json::fmt_f64(rescue_free),
    );
    doc.push_str("\n]\n");
    std::fs::write("BENCH_overhead.json", doc)?;
    println!("wrote BENCH_overhead.json");
    Ok(())
}
