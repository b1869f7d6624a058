//! Property tests for journal crash recovery (satellite of the fault
//! campaigns): replay is idempotent — recovering twice leaves the same
//! media image as recovering once — and a crash during a commit never
//! half-applies a transaction, for clean cuts, reordered drops and torn
//! commit writes alike.

use std::sync::Arc;

use proptest::prelude::*;

use bypassd_ext4::fs::{Ext4, Ext4Options};
use bypassd_ext4::journal::{Journal, Tx};
use bypassd_ext4::layout::BLOCK_SIZE;
use bypassd_faults::plane::{Cut, Tear};
use bypassd_hw::iommu::Iommu;
use bypassd_hw::mem::PhysMem;
use bypassd_hw::types::{DevId, Lba};
use bypassd_ssd::device::NvmeDevice;
use bypassd_ssd::timing::MediaTiming;
use parking_lot::Mutex;

fn device() -> (Arc<NvmeDevice>, PhysMem) {
    let mem = PhysMem::new();
    let iommu = Arc::new(Mutex::new(Iommu::new(&mem)));
    (
        NvmeDevice::new(DevId(0), 1 << 20, MediaTiming::default(), iommu),
        mem,
    )
}

const TXS: u64 = 8;
const BLOCKS_PER_TX: u64 = 3;
const HOME_BASE: u64 = 2_000;

/// Commits `TXS` transactions of `BLOCKS_PER_TX` blocks each; tx `i`
/// fills its blocks with byte `i + 1` at disjoint homes.
fn commit_workload(j: &mut Journal) {
    for t in 0..TXS {
        let mut tx = Tx::default();
        for k in 0..BLOCKS_PER_TX {
            tx.stage(
                HOME_BASE + t * 16 + k,
                vec![(t + 1) as u8; BLOCK_SIZE as usize],
            );
        }
        j.commit(&tx);
    }
}

/// Recovers with a fresh journal, applying home writes to the device.
fn recover_home(dev: &Arc<NvmeDevice>, start: u64, len: u64) -> u64 {
    let mut j = Journal::new(Arc::clone(dev), start, len);
    j.recover(|home, data| dev.write_raw(Lba::from_block(home), data))
}

/// A generated transaction: uniform-byte blocks at small home numbers.
type GenTx = Vec<(u64, u8)>;

fn txs_strategy() -> impl Strategy<Value = Vec<GenTx>> {
    collection::vec(collection::vec((0u64..24, any::<u8>()), 1..5), 1..8)
}

fn commit_all(j: &mut Journal, txs: &[GenTx]) {
    for t in txs {
        let mut tx = Tx::default();
        for &(home, byte) in t {
            tx.stage(HOME_BASE + home, vec![byte; BLOCK_SIZE as usize]);
        }
        j.commit(&tx);
    }
}

/// Recovers with a fresh `Journal` and folds the applies into final
/// per-home state (later applies overwrite earlier ones, like the real
/// home-location writes would).
fn recover_state(dev: &Arc<NvmeDevice>) -> (u64, std::collections::BTreeMap<u64, u8>) {
    let mut j = Journal::new(Arc::clone(dev), 10, 600);
    let mut state = std::collections::BTreeMap::new();
    let n = j.recover(|home, data| {
        assert!(
            data.iter().all(|&b| b == data[0]),
            "mixed bytes within one applied block: a torn write leaked \
             through recovery"
        );
        state.insert(home, data[0]);
    });
    (n, state)
}

/// The state after replaying exactly the first `m` transactions.
fn prefix_state(txs: &[GenTx], m: usize) -> std::collections::BTreeMap<u64, u8> {
    let mut state = std::collections::BTreeMap::new();
    for t in &txs[..m] {
        // Tx::stage dedups by home (last stage wins) before commit.
        let mut dedup = std::collections::BTreeMap::new();
        for &(home, byte) in t {
            dedup.insert(HOME_BASE + home, byte);
        }
        state.extend(dedup);
    }
    state
}

/// True iff `state` matches replaying some prefix of `txs` — the
/// atomicity contract: a cut may lose whole *suffix* transactions but
/// never tear one apart or skip one in the middle.
fn is_atomic_prefix(state: &std::collections::BTreeMap<u64, u8>, txs: &[GenTx]) -> bool {
    (0..=txs.len()).any(|m| prefix_state(txs, m) == *state)
}

proptest! {
    /// Random transaction contents: replay is idempotent at the state
    /// level and applies every transaction, last writer winning.
    #[test]
    fn replay_is_idempotent_and_last_writer_wins(txs in txs_strategy()) {
        let (dev, _mem) = device();
        let mut j = Journal::new(Arc::clone(&dev), 10, 600);
        commit_all(&mut j, &txs);

        let (n1, s1) = recover_state(&dev);
        let (n2, s2) = recover_state(&dev);
        prop_assert_eq!(n1, n2);
        prop_assert_eq!(&s1, &s2);
        prop_assert_eq!(n1, txs.len() as u64);
        prop_assert_eq!(&s1, &prefix_state(&txs, txs.len()));
    }

    /// Power dies after an arbitrary number of journal writes, possibly
    /// mid-transaction: recovery yields exactly the state of some
    /// *prefix* of the committed transactions — stronger than per-tx
    /// atomicity, this also forbids gaps and reordering.
    #[test]
    fn crash_during_commit_recovers_an_atomic_prefix(
        txs in txs_strategy(),
        cut in 0u64..96,
    ) {
        let (dev, _mem) = device();
        let plane = dev.fault_plane();
        plane.activate();
        plane.arm(Cut::at_seq(cut));

        let mut j = Journal::new(Arc::clone(&dev), 10, 600);
        commit_all(&mut j, &txs);
        plane.power_restore();

        let (n, state) = recover_state(&dev);
        prop_assert!(n <= txs.len() as u64);
        prop_assert!(
            is_atomic_prefix(&state, &txs),
            "cut@{} recovered a non-prefix state {:?}", cut, state
        );
    }

    /// The volatile cache drops ONE journal write the host believed
    /// durable (everything after it persisted — a reorder, not a clean
    /// cut). With commit checksums on, recovery must still produce an
    /// atomic prefix: if the lost write belonged to transaction i,
    /// nothing from i onward may apply.
    #[test]
    fn reordered_single_loss_never_yields_partial_tx(
        txs in txs_strategy(),
        lost in 0u64..96,
    ) {
        let (dev, _mem) = device();
        let plane = dev.fault_plane();
        plane.activate();
        plane.arm(Cut {
            cut_seq: u64::MAX,
            drop_before: vec![lost],
            tear: None,
        });

        let mut j = Journal::new(Arc::clone(&dev), 10, 600);
        commit_all(&mut j, &txs);
        plane.power_restore();

        let (_, state) = recover_state(&dev);
        prop_assert!(
            is_atomic_prefix(&state, &txs),
            "losing write {} leaked a partial transaction: {:?}", lost, state
        );
    }

    /// Crash at an arbitrary write seq (optionally with a torn final
    /// write or a dropped earlier write): after recovery every
    /// transaction is all-or-nothing on the media.
    #[test]
    fn crash_during_commit_is_atomic(
        cut_seq in 0u64..(TXS * (BLOCKS_PER_TX + 2) + 1),
        shape in 0u8..6,
    ) {
        let (dev, _mem) = device();
        let plane = dev.fault_plane();
        plane.activate();
        // Shape 0-1: clean cut. 2-3: tear the write at the cut (prefix /
        // scattered sectors). 4-5: additionally drop an earlier write.
        let tear = match shape % 3 {
            1 => Some(Tear { seq: cut_seq, keep_sectors: 4, scatter_salt: 0 }),
            2 => Some(Tear { seq: cut_seq, keep_sectors: 3, scatter_salt: 0x5EED }),
            _ => None,
        };
        let drop_before = if shape >= 4 && cut_seq > 1 {
            vec![cut_seq / 2]
        } else {
            Vec::new()
        };
        let cut_seq = if tear.is_some() { cut_seq + 1 } else { cut_seq };
        plane.arm(Cut { cut_seq, drop_before, tear });

        let mut j = Journal::new(Arc::clone(&dev), 10, 600);
        commit_workload(&mut j);

        plane.power_restore();
        recover_home(&dev, 10, 600);

        let mut buf = vec![0u8; BLOCK_SIZE as usize];
        for t in 0..TXS {
            let mut applied = 0;
            for k in 0..BLOCKS_PER_TX {
                dev.read_raw(Lba::from_block(HOME_BASE + t * 16 + k), &mut buf);
                let want = (t + 1) as u8;
                if buf.iter().all(|&b| b == want) {
                    applied += 1;
                } else {
                    prop_assert!(
                        buf.iter().all(|&b| b == 0),
                        "tx {t} block {k} half-applied after cut at {cut_seq}"
                    );
                }
            }
            prop_assert!(
                applied == 0 || applied == BLOCKS_PER_TX,
                "tx {t} partially applied ({applied}/{BLOCKS_PER_TX}) after cut at {cut_seq}"
            );
        }
    }

    /// Recovering the journal twice leaves the same media image as
    /// recovering once, from any crash point.
    #[test]
    fn journal_replay_twice_equals_once(
        cut_seq in 0u64..(TXS * (BLOCKS_PER_TX + 2) + 1),
    ) {
        let (dev, _mem) = device();
        let plane = dev.fault_plane();
        plane.activate();
        plane.arm(Cut {
            cut_seq,
            drop_before: Vec::new(),
            tear: None,
        });
        let mut j = Journal::new(Arc::clone(&dev), 10, 600);
        commit_workload(&mut j);
        plane.power_restore();

        let first = recover_home(&dev, 10, 600);
        let once = dev.media_fingerprint();
        let second = recover_home(&dev, 10, 600);
        let twice = dev.media_fingerprint();
        prop_assert_eq!(first, second, "replay count must be stable");
        prop_assert_eq!(once, twice, "second replay changed the media");
    }

    /// End-to-end: random namespace activity, a full power cut, then two
    /// consecutive mounts produce bit-identical media (mount-level
    /// replay idempotence).
    #[test]
    fn mount_replay_twice_equals_once(ops in collection::vec(0u8..4, 1..24)) {
        let (dev, mem) = device();
        let fs = Ext4::format(&dev, &mem, Ext4Options {
            journal_blocks: 600,
            itable_blocks: 64,
            max_run: None,
        });
        let mut made = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            match op {
                0 => {
                    let path = format!("/f{i}");
                    let ino = fs.create(&path, 0o644, 0, 0).unwrap();
                    made.push(path);
                    let _ = fs.allocate(ino, 0, 2 * BLOCK_SIZE).unwrap();
                    fs.set_size(ino, 2 * BLOCK_SIZE).unwrap();
                }
                1 => {
                    fs.mkdir(&format!("/d{i}"), 0o755, 0, 0).unwrap();
                }
                2 => {
                    if let Some(path) = made.pop() {
                        fs.unlink(&path, 0, 0).unwrap();
                    }
                }
                _ => {
                    fs.sync_point();
                }
            }
        }
        // Power cut: no write from here on reaches the media.
        let plane = dev.fault_plane();
        plane.arm(Cut::at_seq(plane.seq()));
        drop(fs);

        let m1 = Ext4::mount(&dev, &mem).unwrap();
        drop(m1);
        let once = dev.media_fingerprint();
        let m2 = Ext4::mount(&dev, &mem).unwrap();
        let report = bypassd_ext4::fsck(&dev);
        prop_assert!(report.clean(), "post-recovery fsck: {:?}", report.errors);
        drop(m2);
        let twice = dev.media_fingerprint();
        prop_assert_eq!(once, twice, "second mount replay changed the media");
    }
}
