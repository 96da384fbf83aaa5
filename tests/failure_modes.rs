//! Failure injection: the error surface must be informative and stable —
//! bad circuits and impossible analyses produce typed errors, not panics or
//! garbage results — and the fault-tolerant runtime must absorb worker
//! panics, deadlines, and injected faults without corrupting the waveform.

use std::time::Duration;
use wavepipe::circuit::{generators, Circuit, CircuitError, DiodeModel, Waveform};
use wavepipe::core::{run_wavepipe, run_wavepipe_recoverable, Scheme, WavePipeOptions};
use wavepipe::engine::{
    run_transient, run_transient_recoverable, CancelToken, EngineError, FaultKind, FaultPlan,
    ProbeHandle, RecordingProbe, SimOptions, TransientResult,
};
use wavepipe::telemetry::{DiscardReason, EventKind};

/// Asserts two waveforms share the exact time grid and bit-identical
/// solution vectors.
fn assert_bit_identical(a: &TransientResult, b: &TransientResult, what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: point counts differ");
    assert_eq!(a.times(), b.times(), "{what}: time grids differ");
    for k in 0..a.len() {
        assert_eq!(a.solution(k), b.solution(k), "{what}: solutions differ at point {k}");
    }
}

#[test]
fn floating_node_is_rejected_before_simulation() {
    let mut ckt = Circuit::new("floating");
    let a = ckt.node("a");
    let f1 = ckt.node("f1");
    let f2 = ckt.node("f2");
    ckt.add_vsource("V1", a, Circuit::GROUND, Waveform::dc(1.0)).unwrap();
    ckt.add_resistor("Rg", a, Circuit::GROUND, 1e3).unwrap();
    ckt.add_resistor("Rf", f1, f2, 1e3).unwrap();
    let err = run_transient(&ckt, 1e-9, 1e-6, &SimOptions::default()).unwrap_err();
    assert!(matches!(err, EngineError::Circuit(_)), "got {err}");
    assert!(err.to_string().contains("path to ground"), "{err}");
    // WavePipe surfaces the same error.
    let err2 =
        run_wavepipe(&ckt, 1e-9, 1e-6, &WavePipeOptions::new(Scheme::Backward, 2)).unwrap_err();
    assert!(matches!(err2, EngineError::Circuit(_)));
}

#[test]
fn parallel_voltage_sources_report_singular_matrix() {
    // Two ideal sources forcing different voltages on the same node pair.
    let mut ckt = Circuit::new("vloop");
    let a = ckt.node("a");
    ckt.add_vsource("V1", a, Circuit::GROUND, Waveform::dc(1.0)).unwrap();
    ckt.add_vsource("V2", a, Circuit::GROUND, Waveform::dc(2.0)).unwrap();
    ckt.add_resistor("R1", a, Circuit::GROUND, 1e3).unwrap();
    let err = run_transient(&ckt, 1e-9, 1e-6, &SimOptions::default()).unwrap_err();
    // The matrix would be singular: validation names the loop before any
    // solve.
    assert!(
        matches!(err, EngineError::Circuit(CircuitError::VoltageLoop { ref element }) if element == "V2"),
        "got {err}"
    );
    assert!(err.to_string().contains("loop of ideal voltage sources"), "{err}");
}

#[test]
fn nonpositive_analysis_windows_are_rejected() {
    let mut ckt = Circuit::new("ok");
    let a = ckt.node("a");
    ckt.add_vsource("V1", a, Circuit::GROUND, Waveform::dc(1.0)).unwrap();
    ckt.add_resistor("R1", a, Circuit::GROUND, 1e3).unwrap();
    for (tstep, tstop) in [(0.0, 1e-6), (1e-9, 0.0), (-1e-9, 1e-6), (1e-9, f64::NAN)] {
        let err = run_transient(&ckt, tstep, tstop, &SimOptions::default()).unwrap_err();
        assert!(matches!(err, EngineError::BadParameter { .. }), "({tstep},{tstop}): {err}");
    }
}

#[test]
fn a_step_ratio_cap_below_one_is_rejected_by_every_scheme() {
    // A cap below 1 forbids even holding the step, and NaN caps nothing: a
    // typed error before the first step, not a panic in a `clamp` whose
    // bounds cross or a "non-finite solution" mid-run.
    let b = generators::rc_ladder(4);
    for rmax in [0.2, 0.5, f64::NAN] {
        let sim = SimOptions::default().with_rmax(rmax);
        let serial = run_transient(&b.circuit, b.tstep, b.tstop, &sim).map(drop);
        let runs = [(Scheme::Backward, 2), (Scheme::Forward, 2)].map(|(scheme, threads)| {
            let opts = WavePipeOptions::new(scheme, threads).with_sim(sim.clone());
            (scheme.to_string(), run_wavepipe(&b.circuit, b.tstep, b.tstop, &opts).map(drop))
        });
        for (what, r) in std::iter::once(("serial".to_string(), serial)).chain(runs) {
            let err = r.expect_err(&what);
            assert!(
                matches!(err, EngineError::BadParameter { name: "rmax", .. }),
                "rmax {rmax}, {what}: {err}"
            );
        }
    }
}

#[test]
fn empty_circuit_is_rejected() {
    let ckt = Circuit::new("empty");
    let err = run_transient(&ckt, 1e-9, 1e-6, &SimOptions::default()).unwrap_err();
    assert!(matches!(err, EngineError::Circuit(_)));
}

#[test]
fn antiparallel_diodes_with_huge_drive_still_converge_or_error_cleanly() {
    // A stress circuit: stiff source, antiparallel diodes, tiny resistor —
    // must either simulate or produce a typed error (no panic, no NaN).
    let mut ckt = Circuit::new("stress");
    let a = ckt.node("a");
    let d = ckt.node("d");
    ckt.add_vsource(
        "V1",
        a,
        Circuit::GROUND,
        Waveform::pulse(-50.0, 50.0, 0.0, 1e-12, 1e-12, 1e-9, 2e-9),
    )
    .unwrap();
    ckt.add_resistor("R1", a, d, 0.1).unwrap();
    ckt.add_diode("D1", d, Circuit::GROUND, DiodeModel::default()).unwrap();
    ckt.add_diode("D2", Circuit::GROUND, d, DiodeModel::default()).unwrap();
    match run_transient(&ckt, 1e-12, 10e-9, &SimOptions::default()) {
        Ok(res) => {
            for k in 0..res.len() {
                assert!(
                    res.solution(k).iter().all(|v| v.is_finite()),
                    "non-finite value escaped at point {k}"
                );
            }
        }
        Err(e) => {
            assert!(
                matches!(
                    e,
                    EngineError::NoConvergence { .. } | EngineError::NumericalBlowup { .. }
                ),
                "unexpected error kind: {e}"
            );
        }
    }
}

#[test]
fn persistent_worker_panics_collapse_to_serial_identical_waveform() {
    // Every pool lane panics on every solve, and keeps panicking after its
    // respawn: the pool exhausts its budget, the driver falls back to the
    // serial single-lane schedule, and — because pool tasks are speculative
    // by construction — the committed grid must be bit-identical to the
    // plain serial engine's.
    let b = generators::rc_ladder(8);
    let serial = run_transient(&b.circuit, b.tstep, b.tstop, &SimOptions::default()).unwrap();
    let plan = FaultPlan::new().with_solve_fault(1, None, FaultKind::PanicWorker).with_solve_fault(
        2,
        None,
        FaultKind::PanicWorker,
    );
    let opts = WavePipeOptions::new(Scheme::Backward, 3).with_faults(plan);
    let rep = run_wavepipe(&b.circuit, b.tstep, b.tstop, &opts).unwrap();
    assert!(rep.workers_lost >= 2, "expected both pool lanes lost, got {}", rep.workers_lost);
    assert!(rep.summary().contains("workers lost"), "{}", rep.summary());
    assert_bit_identical(&serial.clone(), &rep.result, "panicking pool vs serial");
}

#[test]
fn soft_faults_on_leads_leave_the_grid_serial_identical() {
    // Singular factorizations and NaN solutions on the speculative lane are
    // absorbed by the existing commit tests (unconverged / non-finite →
    // discard); no worker dies and the accepted grid equals serial's.
    let b = generators::rc_ladder(8);
    let serial = run_transient(&b.circuit, b.tstep, b.tstop, &SimOptions::default()).unwrap();
    for kind in [FaultKind::SingularMatrix, FaultKind::NanSolution] {
        let plan = FaultPlan::new().with_solve_fault(1, None, kind);
        let opts = WavePipeOptions::new(Scheme::Backward, 2).with_faults(plan);
        let rep = run_wavepipe(&b.circuit, b.tstep, b.tstop, &opts).unwrap();
        assert_eq!(rep.workers_lost, 0, "{kind:?} must not kill a worker");
        assert_eq!(rep.lead_accepted, 0, "{kind:?}: every lead should be discarded");
        assert_bit_identical(&serial, &rep.result, "soft-faulted leads vs serial");
    }
}

#[test]
fn single_worker_panic_respawns_and_run_stays_accurate() {
    // A panic at the pool lane's 5th solve: the lane is lost and respawned;
    // the fresh solver's counter restarts, so its own 5th solve panics too
    // and the respawn budget retires the lane for good (2 losses total).
    // Either way the run completes with normal accuracy — worker loss only
    // ever discards speculative work.
    let b = generators::power_grid(4, 4);
    let serial = run_transient(&b.circuit, b.tstep, b.tstop, &SimOptions::default()).unwrap();
    let plan = FaultPlan::new().with_solve_fault(1, Some(5), FaultKind::PanicWorker);
    let opts = WavePipeOptions::new(Scheme::Backward, 2).with_faults(plan);
    let rep = run_wavepipe(&b.circuit, b.tstep, b.tstop, &opts).unwrap();
    assert_eq!(rep.workers_lost, 2, "initial worker and its respawn both hit solve #5");
    assert!(rep.lead_accepted > 0, "solves before the fault should contribute leads");
    let eq = wavepipe::core::verify::compare(&serial, &rep.result);
    assert!(eq.rms_rel() < 0.02, "rms deviation after respawn = {}", eq.rms_rel());
}

#[test]
fn a_lost_worker_is_reported_at_its_task_target() {
    // The lane panics at its 3rd solve, and its respawn at the respawn's
    // 3rd: each loss is reported at the target of the task the lane lost —
    // the one its dispatch was stamped with — both by the lane's WorkerLost
    // event and by the slot's discard, not at t = 0 or the round's start.
    let b = generators::power_grid(4, 4);
    let probe = RecordingProbe::shared();
    let plan = FaultPlan::new().with_solve_fault(1, Some(3), FaultKind::PanicWorker);
    let opts = WavePipeOptions::new(Scheme::Backward, 2)
        .with_faults(plan)
        .with_probe(ProbeHandle::new(probe.clone()));
    let rep = run_wavepipe(&b.circuit, b.tstep, b.tstop, &opts).unwrap();
    assert_eq!(rep.workers_lost, 2);
    let events = probe.events();
    let in_round = |round: u64, t: f64, kind: &dyn Fn(&EventKind) -> bool| {
        events.iter().any(|e| e.round == round && e.t_sim == t && kind(&e.kind))
    };
    let lost: Vec<_> =
        events.iter().filter(|e| matches!(e.kind, EventKind::WorkerLost { lane: 1 })).collect();
    assert_eq!(lost.len(), 2);
    for e in lost {
        assert!(e.t_sim > 0.0, "lost at t = {}", e.t_sim);
        let dispatched = |k: &EventKind| matches!(k, EventKind::SolveStart { .. });
        assert!(in_round(e.round, e.t_sim, &dispatched), "no task targeted t = {}", e.t_sim);
        let discarded =
            |k: &EventKind| *k == EventKind::LeadDiscarded { reason: DiscardReason::WorkerLost };
        assert!(in_round(e.round, e.t_sim, &discarded), "no discard at t = {}", e.t_sim);
    }
}

#[test]
fn zero_deadline_keeps_the_dc_point_as_partial_result() {
    let b = generators::rc_ladder(6);
    // Engine level.
    let outcome = run_transient_recoverable(
        &b.circuit,
        b.tstep,
        b.tstop,
        &SimOptions::default().with_deadline(Duration::ZERO),
    )
    .unwrap();
    assert!(
        matches!(outcome.error, Some(EngineError::DeadlineExceeded { .. })),
        "{:?}",
        outcome.error
    );
    assert!(!outcome.result.is_empty(), "the t=0 point must survive a zero budget");
    assert_eq!(outcome.result.times()[0], 0.0);

    // WavePipe level, every parallel scheme.
    for scheme in [Scheme::Backward, Scheme::Forward, Scheme::Combined] {
        let opts = WavePipeOptions::new(scheme, 3).with_deadline(Duration::ZERO);
        let out = run_wavepipe_recoverable(&b.circuit, b.tstep, b.tstop, &opts).unwrap();
        assert!(
            matches!(out.error, Some(EngineError::DeadlineExceeded { .. })),
            "{scheme}: {:?}",
            out.error
        );
        assert!(!out.report.result.is_empty(), "{scheme}: t=0 point missing");
        assert!(out.into_result().is_err(), "{scheme}: strict view must surface the error");
    }
}

#[test]
fn pre_cancelled_token_is_terminal_before_any_result() {
    // Cancelling before the run starts aborts inside the DC solve — there is
    // no partial result to keep, so the recoverable entry point reports it
    // as a pre-run failure.
    let b = generators::rc_ladder(4);
    let token = CancelToken::new();
    token.cancel();
    let opts = WavePipeOptions::new(Scheme::Backward, 2).with_cancel_token(token);
    let err = run_wavepipe_recoverable(&b.circuit, b.tstep, b.tstop, &opts).unwrap_err();
    assert!(matches!(err, EngineError::Cancelled { .. }), "got {err}");
}

#[test]
fn mid_run_cancellation_keeps_the_accepted_prefix() {
    // A slow lead solve gives a background cancel a deterministic window:
    // the DC solve finishes in well under the 40 ms cancel delay, and the
    // first post-DC solve sleeps 200 ms, so Newton's budget check observes
    // the cancellation mid-solve.
    let b = generators::rc_ladder(4);
    let token = CancelToken::new();
    let plan = FaultPlan::new().with_solve_fault(0, None, FaultKind::SlowSolve { millis: 200 });
    let opts = WavePipeOptions::new(Scheme::Backward, 2)
        .with_cancel_token(token.clone())
        .with_faults(plan);
    let canceller = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(40));
        token.cancel();
    });
    let out = run_wavepipe_recoverable(&b.circuit, b.tstep, b.tstop, &opts).unwrap();
    canceller.join().unwrap();
    assert!(matches!(out.error, Some(EngineError::Cancelled { .. })), "{:?}", out.error);
    assert!(!out.report.result.is_empty(), "accepted prefix discarded on cancellation");
}

#[test]
fn chaos_seed_runs_complete_and_stay_accurate() {
    // The CI chaos leg in miniature: a seeded plan spraying soft faults
    // across the run must neither break completion nor accuracy.
    let b = generators::power_grid(4, 4);
    let serial = run_transient(&b.circuit, b.tstep, b.tstop, &SimOptions::default()).unwrap();
    let opts = WavePipeOptions::new(Scheme::Backward, 2).with_faults(FaultPlan::seeded(0xC0FFEE));
    let rep = run_wavepipe(&b.circuit, b.tstep, b.tstop, &opts).unwrap();
    let eq = wavepipe::core::verify::compare(&serial, &rep.result);
    assert!(eq.rms_rel() < 0.02, "rms deviation under chaos = {}", eq.rms_rel());
}

#[test]
fn errors_format_usefully() {
    let samples: Vec<EngineError> = vec![
        EngineError::NoConvergence { time: 1e-9, iterations: 40, report: Box::default() },
        EngineError::BadParameter { name: "tstop", value: -1.0 },
        EngineError::NumericalBlowup { time: 3e-9 },
    ];
    for e in samples {
        let msg = e.to_string();
        assert!(!msg.is_empty());
        assert_eq!(msg, msg.trim(), "no stray whitespace: {msg:?}");
        assert!(msg.chars().next().unwrap().is_lowercase(), "lowercase start: {msg}");
    }
}

#[test]
fn no_convergence_report_carries_forensics() {
    use wavepipe::engine::{ConvergenceReport, RecoveryRung};
    let report = ConvergenceReport {
        worst_node: Some("out".into()),
        residual: Some(3.2e-4),
        iterations_history: vec![40, 12, 12],
        rungs_tried: vec![RecoveryRung::CacheRollback, RecoveryRung::DeepCut],
    };
    let err = EngineError::NoConvergence { time: 1e-9, iterations: 40, report: Box::new(report) };
    let msg = err.to_string();
    assert!(msg.contains("worst residual"), "{msg}");
    assert!(msg.contains("out"), "{msg}");
    assert!(msg.contains("cache_rollback"), "{msg}");
    assert!(msg.contains("deep_cut"), "{msg}");
    // A report with no detail stays out of the headline message.
    let bare = EngineError::NoConvergence { time: 1e-9, iterations: 40, report: Box::default() };
    assert!(!bare.to_string().contains("residual"), "{bare}");
}
