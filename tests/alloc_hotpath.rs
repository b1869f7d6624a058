//! Allocation contract for the steady-state data path (DESIGN.md §12):
//! after warmup, a cached-fd 4 KB direct read and an 8-read
//! `pread_batch` flight must each touch the global allocator **zero**
//! times — every per-op buffer lives in a preallocated slab, scratch,
//! or ring.
//!
//! The binary installs a counting `#[global_allocator]` with a
//! *thread-local* allocation counter, so only allocations made by the
//! actor thread running the read loop are charged — the conductor
//! thread's bookkeeping is irrelevant to the contract. This file is its
//! own test target with a single `#[test]` so no parallel test can share
//! the process.

use std::alloc::{GlobalAlloc, Layout, System as SysAlloc};
use std::cell::Cell;
use std::sync::Arc;

use bypassd::{ReadReq, System, UserProcess};
use bypassd_sim::rng::Rng;
use bypassd_sim::Simulation;
use parking_lot::Mutex;

thread_local! {
    /// Allocations (alloc + realloc) made by this thread. Const-init and
    /// non-Drop, so reading it never itself allocates or registers a TLS
    /// destructor.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

// SAFETY: delegates every operation verbatim to the system allocator;
// the counter update has no side effect on the allocation itself.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { SysAlloc.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { SysAlloc.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { SysAlloc.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_cached_fd_reads_do_not_allocate() {
    const WARMUP: u64 = 2_000;
    const OPS: u64 = 10_000;
    const FILE: u64 = 8 << 20;
    const FLIGHTS: u64 = 1_000;
    const WIDTH: usize = 8;
    let sys = System::builder().capacity(64 << 20).build();
    sys.fs().populate("/hot", FILE, 0x5a).unwrap();
    let sim = Simulation::new();
    let s2 = sys.clone();
    let delta = Arc::new(Mutex::new((u64::MAX, u64::MAX)));
    let d2 = Arc::clone(&delta);
    sim.spawn("reader", move |ctx| {
        let proc = UserProcess::start(&s2, 0, 0);
        let mut t = proc.thread();
        let fd = t.open(ctx, "/hot", false).unwrap();
        let mut buf = vec![0u8; 4096];
        let mut rng = Rng::new(1);
        // Warmup: touch every page once so the IOTLB/PWC reach their
        // steady population (the working set fits the IOTLB, so the
        // timed loop only hits warm entries), then run a random pass to
        // arm the fd cache, grow device/IOMMU scratch to its high-water
        // mark, and settle the engine on the no-handoff fast path.
        let mut off = 0;
        while off < FILE {
            t.pread(ctx, fd, &mut buf, off).unwrap();
            off += 4096;
        }
        for _ in 0..WARMUP {
            let off = rng.gen_range(FILE / 4096) * 4096;
            t.pread(ctx, fd, &mut buf, off).unwrap();
        }
        let before = ALLOCS.with(Cell::get);
        for _ in 0..OPS {
            let off = rng.gen_range(FILE / 4096) * 4096;
            let n = t.pread(ctx, fd, &mut buf, off).unwrap();
            assert_eq!(n, 4096);
        }
        let after = ALLOCS.with(Cell::get);
        // Flights: same offsets drawn the same way, WIDTH reads each,
        // into buffers and a request array allocated once up front.
        let mut bufs = [[0u8; 4096]; WIDTH];
        let mut flight = |t: &mut bypassd::UserThread, ctx: &mut _, rng: &mut Rng| {
            let mut reqs = bufs.each_mut().map(|buf| ReadReq {
                offset: rng.gen_range(FILE / 4096) * 4096,
                buf,
            });
            let n = t.pread_batch(ctx, fd, &mut reqs).unwrap();
            assert_eq!(n, WIDTH * 4096);
        };
        for _ in 0..WARMUP {
            flight(&mut t, ctx, &mut rng);
        }
        let flights_before = ALLOCS.with(Cell::get);
        for _ in 0..FLIGHTS {
            flight(&mut t, ctx, &mut rng);
        }
        let flights_after = ALLOCS.with(Cell::get);
        *d2.lock() = (after - before, flights_after - flights_before);
        let (direct, fallback) = proc.op_counts();
        let flight_reads = (WARMUP + FLIGHTS) * WIDTH as u64;
        assert_eq!(direct, FILE / 4096 + WARMUP + OPS + flight_reads);
        assert_eq!(fallback, 0);
    });
    sim.run();
    let (allocs, flight_allocs) = *delta.lock();
    assert_eq!(
        allocs, 0,
        "steady-state cached-fd 4KB reads hit the global allocator {allocs} times \
         (contract: zero after warmup)"
    );
    assert_eq!(
        flight_allocs, 0,
        "{FLIGHTS} steady-state {WIDTH}-read flights hit the global allocator \
         {flight_allocs} times (contract: zero after warmup)"
    );
}
