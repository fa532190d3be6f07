//! Steady-state allocation budget of the engine↔DES loop.
//!
//! A counting global allocator, local to this test binary, counts the
//! heap allocations the test's own thread makes inside one
//! `Simulator::run` of a fixed multi-core DES stream, after a warm-up run
//! of the same stream. The run is single-threaded and bitwise
//! reproducible; the count can still move by an allocation or two from
//! run to run, because the engine's location index uses `std`'s randomly
//! keyed hasher and its removals leave hash-dependent tombstones, which
//! decide when the table rehashes.
//!
//! Release builds assert the count against a budget. Debug builds run
//! the same stream without asserting, because their cross-checks (DES
//! step 2 against general Energy-OPT, the §V-D discard-resume re-solve)
//! allocate by design.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use qes::core::{ExpQuality, PolynomialPower, SimDuration};
use qes::multicore::DesPolicy;
use qes::sim::{SimConfig, Simulator};
use qes::workload::WebSearchWorkload;

/// Forwards to the system allocator, counting per thread every call
/// that may allocate (`alloc`, `alloc_zeroed`, `realloc`).
struct Counting;

thread_local! {
    // Const-initialized and without a destructor, so reading it never
    // allocates and works at any point of the thread's life.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    ALLOCS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches no memory
// the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's guarantees for `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's guarantees for `layout` pass through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with `layout`; the caller's guarantees pass through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations of the measured run before the engine's event loop and
/// DES's per-trigger steps were made allocation-free (release build,
/// x86-64 Linux): 97 977, or 24.5 per job. The budget is half of it;
/// the loop now makes about 7.4 per job.
const BEFORE: u64 = 97_977;

#[test]
fn des_replay_stays_within_its_allocation_budget() {
    // The benchmark's `single_paper` machine on a short stream: 16 cores,
    // 320 W, half the jobs all-or-nothing, so the run crosses the
    // budget-free exit, water-filling, Online-QE and the §V-D discards.
    let jobs = WebSearchWorkload::new(200.0)
        .with_partial_fraction(0.5)
        .generate_exact(4_000, 7)
        .expect("workload generation");
    let quality = ExpQuality::PAPER_DEFAULT;
    let cfg = SimConfig {
        num_cores: 16,
        budget: 320.0,
        model: &PolynomialPower::PAPER_SIM,
        quality: &quality,
        end: jobs.last_deadline().expect("non-empty stream"),
        record_trace: false,
        overhead: SimDuration::ZERO,
    };
    // Warm-up: first-touch allocations (lazy statics, the allocator's own
    // arenas) land here, not in the measured run.
    let (warm, _) = Simulator::run(&cfg, &mut DesPolicy::new(), &jobs);

    let mut policy = DesPolicy::new();
    let before = ALLOCS.with(Cell::get);
    let (report, _) = Simulator::run(&cfg, &mut policy, &jobs);
    let allocs = ALLOCS.with(Cell::get) - before;

    assert_eq!(
        report.counters, warm.counters,
        "the replay is deterministic"
    );
    assert!(report.counters.jobs_discarded > 0, "{report}");
    let per_job = allocs as f64 / report.jobs_total() as f64;
    println!(
        "{allocs} allocations for {} jobs ({per_job:.2} per job)",
        report.jobs_total()
    );
    if cfg!(not(debug_assertions)) {
        assert!(
            allocs <= BEFORE / 2,
            "{allocs} allocations exceed the budget of {} (half of {BEFORE})",
            BEFORE / 2
        );
    }
}
