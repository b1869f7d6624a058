//! Guards the async bodies task actors await. The direct `pread`
//! future is embedded in every caller's future and its state is walked
//! on every poll, so the cold paths it can reach (kernel fallback,
//! re-fmap, size refresh) are boxed behind a pointer instead of inlined
//! into it: 520 bytes boxed against 1,400 inlined when this bound was
//! set. Every operation a fleet driver awaits must also stay `Send`,
//! which is what rules out holding a lock guard across an `.await`.

use std::mem::size_of_val;
use std::sync::Arc;

use bypassd::{ReadReq, System, UserProcess};
use bypassd_sim::Simulation;
use parking_lot::Mutex;

/// 1.5x the measured 520 bytes.
const PREAD_FUTURE_MAX: usize = 780;

/// The `pwrite` future holds every write path (in place, sub-sector,
/// append): 1,544 bytes when this bound was set, with 10% headroom.
const PWRITE_FUTURE_MAX: usize = 1_700;

fn assert_send<T: Send>(_: &T) {}

#[test]
fn direct_pread_future_stays_small() {
    let sys = System::builder().build();
    sys.fs().populate("/f", 1 << 20, 0x11).unwrap();
    let sizes = Arc::new(Mutex::new(Vec::new()));
    let (s2, out) = (sys.clone(), Arc::clone(&sizes));
    let sim = Simulation::new();
    sim.spawn("sizer", move |ctx| {
        let proc = UserProcess::start(&s2, 0, 0);
        let mut t = proc.thread();
        let fd = t.open(ctx, "/f", true).unwrap();
        let mut buf = vec![0u8; 4096];
        let mut out = out.lock();
        let f = t.pread_fut(ctx, fd, &mut buf, 0);
        assert_send(&f);
        out.push(("pread", size_of_val(&f)));
        drop(f);
        let mut reqs = [ReadReq {
            offset: 0,
            buf: &mut buf,
        }];
        let f = t.pread_batch_fut(ctx, fd, &mut reqs);
        assert_send(&f);
        out.push(("pread_batch", size_of_val(&f)));
        drop(f);
        let f = t.pwrite_fut(ctx, fd, &[0u8; 512], 0);
        assert_send(&f);
        out.push(("pwrite", size_of_val(&f)));
        drop(f);
        let f = t.open_fut(ctx, "/f", false);
        assert_send(&f);
        out.push(("open", size_of_val(&f)));
        drop(f);
        let f = t.close_fut(ctx, fd);
        assert_send(&f);
        out.push(("close", size_of_val(&f)));
        drop(f);
        // The remaining async bodies: `Send` only, which proves no lock
        // guard lives across one of their awaits.
        let prog = bypassd_offload::ProgHandle(0);
        assert_send(&t.pread_chain_fut(ctx, fd, prog, [0; 8], 0, &mut buf));
        let mut chains = [bypassd::ChainReq {
            start: 0,
            regs: [0; 8],
            buf: &mut buf,
        }];
        assert_send(&t.pread_chain_batch_fut(ctx, fd, prog, &mut chains));
        assert_send(&t.pwrite_async_fut(ctx, fd, &[0u8; 512], 0));
        assert_send(&t.flush_writes_fut(ctx, fd));
        assert_send(&t.read_fut(ctx, fd, &mut buf));
        assert_send(&t.write_fut(ctx, fd, &[0u8; 512]));
        assert_send(&t.fsync_fut(ctx, fd));
        assert_send(&t.fallocate_fut(ctx, fd, 0, 4096));
        let (k, pid) = (s2.kernel(), proc.pid());
        assert_send(&k.sys_pread_fut(ctx, pid, fd, &mut buf, 0));
        assert_send(&k.sys_pwrite_fut(ctx, pid, fd, &[0u8; 512], 0));
        assert_send(&k.sys_append_fut(ctx, pid, fd, &[0u8; 512]));
        assert_send(&k.sys_fsync_fut(ctx, pid, fd));
        assert_send(&k.sys_fallocate_fut(ctx, pid, fd, 0, 4096));
        assert_send(&k.sys_fallocate_keep_fut(ctx, pid, fd, 0, 4096));
        assert_send(&k.sys_ftruncate_fut(ctx, pid, fd, 0));
        assert_send(&k.sys_set_size_fut(ctx, pid, fd, 0));
    });
    sim.run();
    let sizes = sizes.lock();
    for (name, size) in sizes.iter() {
        println!("{name}_fut: {size} bytes");
    }
    let pread = sizes[0].1;
    assert!(
        pread <= PREAD_FUTURE_MAX,
        "the direct pread future grew to {pread} bytes (bound {PREAD_FUTURE_MAX}): \
         box the new cold path instead of inlining it"
    );
    let pwrite = sizes[2].1;
    assert!(
        pwrite <= PWRITE_FUTURE_MAX,
        "the pwrite future grew to {pwrite} bytes (bound {PWRITE_FUTURE_MAX}): \
         box the new cold path instead of inlining it"
    );
}
