//! Verifies the steady-state step loops allocate nothing.
//!
//! A counting global allocator measures two runs that differ only in
//! step count (4 vs 64 steps), for the parallel in-memory engine and for
//! the streaming out-of-core loop.  Setup allocations — walker arrays,
//! scratch, PS buffers, worker stacks, read buffers — are identical for
//! both, so if the per-step loop is allocation-free the totals match
//! exactly; any per-step Vec/Box (the old cursor-matrix clone,
//! scoped-spawn bookkeeping, a per-read byte buffer, …) would show up as
//! ~60 extra allocations.  Both cases run in one test so that no other
//! test thread allocates while one is measured.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use flashmob::oocore::{run_ooc, DiskGraph};
use flashmob::{FlashMob, WalkConfig};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: pure pass-through to the System allocator; the only addition
// is a relaxed atomic counter bump, which cannot violate GlobalAlloc's
// contract (no reentrant allocation, layout forwarded unchanged).
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: caller upholds GlobalAlloc's contract; forwarded verbatim.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout, same contract as our caller's.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: caller upholds GlobalAlloc's contract; forwarded verbatim.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: ptr was produced by our alloc, i.e. by System.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: caller upholds GlobalAlloc's contract; forwarded verbatim.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: ptr was produced by our alloc, i.e. by System.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocation count of one measured `run()` at the given step count.
fn measured_allocs(steps: usize) -> u64 {
    let g = fm_graph::synth::power_law(400, 2.0, 1, 40, 9);
    let cfg = WalkConfig::deepwalk()
        .walkers(512)
        .steps(steps)
        .seed(3)
        .threads(4)
        .record_paths(false);
    let engine = FlashMob::new(&g, cfg).unwrap();
    // Warm-up run so lazily initialized state doesn't skew the count.
    engine.run().unwrap();
    let before = ALLOCS.load(Ordering::SeqCst);
    engine.run().unwrap();
    ALLOCS.load(Ordering::SeqCst) - before
}

/// Allocation count of one measured streaming out-of-core run at the
/// given step count; the budget cuts the graph into several partitions.
fn measured_ooc_allocs(disk: &DiskGraph, steps: usize) -> u64 {
    let cfg = WalkConfig::deepwalk()
        .walkers(512)
        .steps(steps)
        .seed(3)
        .record_paths(false);
    run_ooc(disk, &cfg, 1 << 10).unwrap();
    let before = ALLOCS.load(Ordering::SeqCst);
    run_ooc(disk, &cfg, 1 << 10).unwrap();
    ALLOCS.load(Ordering::SeqCst) - before
}

#[test]
fn steady_state_step_loop_is_allocation_free() {
    let short = measured_allocs(4);
    let long = measured_allocs(64);
    assert_eq!(
        short, long,
        "allocation count must not grow with step count \
         ({short} allocs at 4 steps vs {long} at 64)"
    );

    let g = fm_graph::synth::power_law(400, 2.0, 1, 40, 9);
    let path = std::env::temp_dir().join(format!("fm-alloc-free-{}.fmdisk", std::process::id()));
    let disk = DiskGraph::create(&g, &path).unwrap();
    let (short, long) = (
        measured_ooc_allocs(&disk, 4),
        measured_ooc_allocs(&disk, 64),
    );
    std::fs::remove_file(&path).ok();
    assert_eq!(
        short, long,
        "out-of-core allocation count must not grow with step count \
         ({short} allocs at 4 steps vs {long} at 64)"
    );
}
