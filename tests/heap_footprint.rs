//! Heap-footprint contract (DESIGN.md §10, §12): observability that is
//! not recording holds no memory, and a process costs what it maps.
//!
//! * A default `System` (tracing off) holds at most 4 MiB of heap: the
//!   flight recorder reserves its rings only when tracing turns on.
//! * With QoS on, binding a queue pair and completing one 4 KB read
//!   holds at most 4 KiB per PASID: a tenant's latency histogram grows
//!   with its samples instead of starting at 16 KB, and the read gives
//!   its DMA page back.
//! * `UserProcess::start` plus the first `open` of a 4 MB file hold at
//!   most 3 KiB per process: the process's upper page tables are sparse
//!   table frames, not 4 KB pages, and the file's FTE leaves are shared.
//! * A fleet-shaped thread (`thread_with(4, 16 KiB)`) that has served a
//!   4-read `pread_batch` and a `pread` holds at most 4 KiB once idle:
//!   its DMA frames give their host pages back when each op is done
//!   with them, so the 16 KiB buffer costs nothing between ops.
//!
//! The binary installs a counting `#[global_allocator]` that tracks live
//! heap bytes across all threads. This file is its own test target with
//! a single `#[test]` so no parallel test can share the process.

use std::alloc::{GlobalAlloc, Layout, System as SysAlloc};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use bypassd::{QosConfig, ReadReq, System, UserProcess};
use bypassd_sim::Simulation;
use parking_lot::Mutex;

/// Live heap bytes: allocated minus freed, by every thread.
static LIVE: AtomicUsize = AtomicUsize::new(0);

struct CountingAlloc;

// SAFETY: delegates every operation verbatim to the system allocator;
// the counter update has no side effect on the allocation itself.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // ordering: Relaxed — a statistics counter; it publishes no memory.
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        unsafe { SysAlloc.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // ordering: Relaxed — a statistics counter; it publishes no memory.
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        unsafe { SysAlloc.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // ordering: Relaxed — a statistics counter; it publishes no memory.
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { SysAlloc.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // ordering: Relaxed — a statistics counter; it publishes no memory.
        LIVE.fetch_add(new_size, Ordering::Relaxed);
        // ordering: Relaxed — as above.
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { SysAlloc.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn live() -> usize {
    // ordering: Relaxed — read after the measured work on the same thread.
    LIVE.load(Ordering::Relaxed)
}

#[test]
fn idle_observability_holds_no_heap() {
    const SYSTEM_BOUND: usize = 4 << 20;
    const PASIDS: usize = 1_000;
    const PER_PASID_BOUND: usize = 4 << 10;
    const PER_PROCESS_BOUND: usize = 3 << 10;
    const PER_THREAD_BOUND: usize = 4 << 10;

    let before = live();
    let sys = System::builder().build();
    let held = live() - before;
    // `BYPASSD_TRACE=1` turns tracing on in every build; its rings are
    // then reserved by design.
    if !sys.recorder().on() {
        assert!(
            held <= SYSTEM_BOUND,
            "a default System holds {held} B of heap (contract: at most {SYSTEM_BOUND} B)"
        );
    }
    drop(sys);

    let sys = System::builder().qos(QosConfig::enabled()).build();
    sys.fs().populate("/f", 4 << 20, 0x42).unwrap();
    let sim = Simulation::new();
    let s2 = sys.clone();
    let held = Arc::new(Mutex::new((0, 0, 0)));
    let h2 = Arc::clone(&held);
    sim.spawn("tenants", move |ctx| {
        let mut buf = [0u8; 4096];
        let mut flight = [[0u8; 4096]; 4];
        let mut procs = Vec::with_capacity(PASIDS);
        let (mut pasid_bytes, mut process_bytes, mut thread_bytes) = (0, 0, 0);
        for i in 0..PASIDS as u64 {
            let before = live();
            let proc = UserProcess::start(&s2, 1000, 1000);
            process_bytes += live() - before;
            // Queue-pair bind registers the PASID's tenant with the
            // device; the read records its first latency sample.
            let before = live();
            let mut t = proc.thread_with(4, 4096);
            pasid_bytes += live() - before;
            // The first open fmaps the file: its shared FTE leaves are
            // attached through the process's own upper tables.
            let before = live();
            let fd = t.open(ctx, "/f", false).unwrap();
            process_bytes += live() - before;
            let before = live();
            assert_eq!(t.pread(ctx, fd, &mut buf, (i % 1024) * 4096).unwrap(), 4096);
            pasid_bytes += live() - before;
            // The fleet's thread shape, idle after a flight and a read.
            let before = live();
            let mut ft = proc.thread_with(4, 16 << 10);
            let mut k = 4 * i;
            let mut reqs = flight.each_mut().map(|buf| {
                k += 1;
                ReadReq {
                    offset: (k % 1024) * 4096,
                    buf,
                }
            });
            assert_eq!(ft.pread_batch(ctx, fd, &mut reqs).unwrap(), 4 * 4096);
            assert_eq!(
                ft.pread(ctx, fd, &mut buf, (i % 1024) * 4096).unwrap(),
                4096
            );
            thread_bytes += live() - before;
            procs.push((proc, t, ft));
        }
        *h2.lock() = (pasid_bytes, process_bytes, thread_bytes);
    });
    sim.run();
    let (pasid_bytes, process_bytes, thread_bytes) = *held.lock();
    let per_pasid = pasid_bytes / PASIDS;
    assert!(
        per_pasid <= PER_PASID_BOUND,
        "binding a queue pair and one read hold {per_pasid} B per PASID \
         (contract: at most {PER_PASID_BOUND} B)"
    );
    let per_process = process_bytes / PASIDS;
    assert!(
        per_process <= PER_PROCESS_BOUND,
        "starting a process and its first open hold {per_process} B per process \
         (contract: at most {PER_PROCESS_BOUND} B)"
    );
    let per_thread = thread_bytes / PASIDS;
    assert!(
        per_thread <= PER_THREAD_BOUND,
        "a thread_with(4, 16 KiB) idle after a 4-read flight and a read holds \
         {per_thread} B (contract: at most {PER_THREAD_BOUND} B)"
    );
}
