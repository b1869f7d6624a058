//! Cross-path differential test for the LBA command builder and the
//! block-I/O routine every kernel and SPDK path shares: a file whose
//! extents interleave with another file's (the two are appended to in
//! turn), with an optional hole after its data, is read on every
//! `BackendKind` at random sector-aligned ranges that span extent
//! boundaries, and each path's reads must be the bytes of a flat model
//! (zeros over the hole, where libaio and SPDK refuse it with `Inval`).
//! Then each path in turn overwrites a random range, and every path must
//! read the new bytes back.
//!
//! CI runs this file in release mode with a raised `PROPTEST_CASES`.

use bypassd::System;
use bypassd_backends::{Backend, BackendKind, BackendProcess};
use bypassd_os::{Errno, OpenFlags};
use bypassd_sim::{ActorCtx, Simulation};
use proptest::prelude::*;

const SECTOR: u64 = 512;
const BLOCK: u64 = 4096;

/// A byte that differs at nearly every file position, so a segment read
/// or written at the wrong offset of its buffer shows.
fn pattern(seed: u8, pos: u64) -> u8 {
    (pos.wrapping_mul(0x9E37_79B9) >> 11) as u8 ^ seed
}

/// The file range `[off, off + len)` in bytes for a drawn start sector
/// and sector count, clamped to `sectors`.
fn range(sectors: u64, (start, count): (u64, u64)) -> (u64, u64) {
    let first = start % sectors;
    (first * SECTOR, count.min(sectors - first) * SECTOR)
}

/// Reads `[off, off + len)` of `path` on `b`, opening and closing it
/// around the read so no kernel-interface open outlives its step.
fn read_on(
    b: &mut Backend,
    ctx: &mut ActorCtx,
    path: &str,
    off: u64,
    len: u64,
) -> Result<Vec<u8>, Errno> {
    let h = b.open(ctx, path, false)?;
    let mut buf = vec![0u8; len as usize];
    let res = b.pread(ctx, h, &mut buf, off);
    b.close(ctx, h)?;
    res.map(|n| {
        assert_eq!(n, len as usize, "short read");
        buf
    })
}

proptest! {
    #[test]
    fn every_path_reads_and_writes_the_flat_model(
        appends in prop::collection::vec((1u64..=2, 0u64..8, any::<u8>()), 6..12),
        hole_blocks in 0u64..3,
        reads in prop::collection::vec((any::<u64>(), 1u64..=48), 3..6),
        writes in prop::collection::vec((any::<u64>(), 1u64..=24, any::<u8>()), 7..8),
    ) {
        let sys = System::builder().build();
        let sim = Simulation::new();
        let sys2 = sys.clone();
        sim.spawn("t", move |ctx| {
            // Appends to /a and /b in turn: each allocates at least one
            // new block, so /a's extents interleave with /b's.
            let k = sys2.kernel();
            let pid = k.spawn_process(0, 0);
            let flags = OpenFlags::rdwr_direct().creat();
            let fds = [
                k.sys_open(ctx, pid, "/a", flags, 0o644).unwrap(),
                k.sys_open(ctx, pid, "/b", flags, 0o644).unwrap(),
            ];
            let mut model = Vec::new();
            for (i, &(blocks, sectors, seed)) in appends.iter().enumerate() {
                let len = blocks * BLOCK + sectors * SECTOR;
                let data: Vec<u8> = (0..len).map(|p| pattern(seed, model.len() as u64 + p)).collect();
                k.sys_append(ctx, pid, fds[i % 2], &data).unwrap();
                if i % 2 == 0 {
                    model.extend_from_slice(&data);
                }
            }
            let data_sectors = model.len() as u64 / SECTOR;
            if hole_blocks > 0 {
                let size = (model.len() as u64).div_ceil(BLOCK) * BLOCK + hole_blocks * BLOCK;
                k.sys_ftruncate(ctx, pid, fds[0], size).unwrap();
                model.resize(size as usize, 0);
            }
            let hole_from = (data_sectors * SECTOR).div_ceil(BLOCK) * BLOCK;
            for fd in fds {
                k.sys_close(ctx, pid, fd).unwrap();
            }
            let ino = sys2.fs().lookup("/a").unwrap();
            let (segs, _) = sys2.fs().resolve(ino, 0, data_sectors * SECTOR).unwrap();
            assert!(segs.len() >= 2, "/a is not fragmented: {segs:?}");

            let mut paths: Vec<(BackendKind, Backend)> = BackendKind::all()
                .into_iter()
                .map(|kind| (kind, BackendProcess::new(kind, &sys2, 0, 0).thread()))
                .collect();
            let file_sectors = model.len() as u64 / SECTOR;
            for &drawn in &reads {
                let (off, len) = range(file_sectors, drawn);
                let over_hole = hole_blocks > 0 && off + len > hole_from;
                for (kind, b) in &mut paths {
                    let got = read_on(b, ctx, "/a", off, len);
                    if over_hole && matches!(kind, BackendKind::Libaio | BackendKind::Spdk) {
                        assert_eq!(got, Err(Errno::Inval), "{kind}: hole read at {off}+{len}");
                    } else {
                        let want = &model[off as usize..(off + len) as usize];
                        assert!(got.as_deref() == Ok(want), "{kind}: read at {off}+{len} differs");
                    }
                }
            }

            // Overwrites stay inside /a's data: no path appends or fills
            // the hole here.
            let n = paths.len();
            for (w, &(start, count, seed)) in writes.iter().enumerate() {
                let (off, len) = range(data_sectors, (start, count));
                let data: Vec<u8> = (0..len).map(|p| pattern(seed, off + p)).collect();
                let (kind, b) = &mut paths[w % n];
                let h = b.open(ctx, "/a", true).unwrap();
                assert_eq!(b.pwrite(ctx, h, &data, off), Ok(data.len()), "{kind}: pwrite");
                b.close(ctx, h).unwrap();
                let writer = *kind;
                model[off as usize..(off + len) as usize].copy_from_slice(&data);
                for (kind, b) in &mut paths {
                    let got = read_on(b, ctx, "/a", off, len);
                    assert!(
                        got.as_deref() == Ok(&data[..]),
                        "{kind}: reading back {writer}'s pwrite at {off}+{len} differs"
                    );
                }
            }
        });
        sim.run();
    }
}
