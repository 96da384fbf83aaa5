//! Heap allocations per solved time point of the serial engine.
//!
//! A solved point owns two vectors — its solution and its capacitor currents
//! (`PointSolution` is sent across threads by the pipelined tier, so it keeps
//! them) — and the waveform grows by doubling. Everything else a point needs
//! (predictor output, the Newton linear-solve buffers, the LTE test's
//! divided-difference table, the history window's slots) lives in buffers
//! their owners keep, so the steady-state cost of a point is those two
//! allocations and an amortised fraction of a third. Before the buffers were
//! kept this run made 14.6 allocations per solve (9,792 over 669).
//!
//! The count is taken on the test's own thread through a counting global
//! allocator, as the difference between a long and a short run of the same
//! compiled circuit, which cancels set-up (workspace, DC operating point,
//! first factorization) and leaves what stepping costs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use wavepipe::circuit::generators;
use wavepipe::engine::{
    run_transient_recoverable_compiled, FaultPlan, MnaSystem, SimOptions, SolverHandle,
};

thread_local! {
    /// Allocations (and reallocations) made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

fn count_one() {
    // `try_with`: the allocator also runs while a thread's locals are torn
    // down, when the counter is gone and nobody reads it any more.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a `const`-initialised
// thread-local `Cell` without a destructor, so touching it neither allocates
// nor unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// (allocations, solved points) of one serial run to `tstop`.
fn run(sys: &Arc<MnaSystem>, tstep: f64, tstop: f64, opts: &SimOptions) -> (u64, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let result = run_transient_recoverable_compiled(sys, tstep, tstop, opts)
        .and_then(|outcome| outcome.into_result())
        .expect("serial run");
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    let s = result.stats();
    let solves = s.steps_accepted + s.steps_rejected_lte + s.steps_rejected_newton;
    (allocations, solves as u64)
}

#[test]
fn a_solved_point_allocates_its_two_vectors_and_little_else() {
    let b = generators::inverter_chain(8);
    let sys = Arc::new(MnaSystem::compile(&b.circuit).expect("compile"));
    // Pinned like the golden runs, so no environment leg of CI changes what
    // is counted: no injected faults, direct LU.
    let opts =
        SimOptions::default().with_solver(SolverHandle::direct()).with_faults(FaultPlan::new());
    let (short_allocs, short_solves) = run(&sys, b.tstep, b.tstop / 4.0, &opts);
    let (long_allocs, long_solves) = run(&sys, b.tstep, b.tstop, &opts);
    assert!(long_solves >= short_solves + 300, "{short_solves} -> {long_solves} solves");
    let per_solve = (long_allocs - short_allocs) as f64 / (long_solves - short_solves) as f64;
    assert!(
        per_solve <= 4.0,
        "{per_solve:.2} allocations per solved point in steady state \
         ({short_allocs} over {short_solves} solves, then {long_allocs} over {long_solves})"
    );
}
