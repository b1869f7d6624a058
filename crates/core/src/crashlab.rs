//! CrashLab: the full-stack [`FaultHarness`] for deterministic crash
//! campaigns.
//!
//! Each campaign iteration rebuilds the whole machine — memory, IOMMU,
//! device, freshly formatted ext4, kernel — on one shared [`FaultPlane`]
//! (so write sequence numbers align across iterations), runs a workload
//! through `UserLib` (`pwrite`/`fsync` on the direct path, with a
//! [`FaultPlane::mark`] checkpoint after every fsync), and then verifies
//! the post-crash image:
//!
//! 1. remount ([`Ext4::mount_with`]) — journal recovery;
//! 2. [`bypassd_ext4::fsck()`] — structural invariants;
//! 3. replay-twice idempotence — a second mount must leave the media
//!    fingerprint unchanged;
//! 4. data integrity — every fsync state at or below the durable-mark
//!    horizon must be fully visible, and every byte of the file must be
//!    explainable by the write history (a durable write's content, a
//!    newer not-yet-durable write's content, or zeroes from the
//!    allocator's pre-zeroing — never anything else, which is also what
//!    makes the checker a confidentiality probe).
//!
//! Three workloads ship: an **append** log (the fsync-heavy pattern the
//! paper's RocksDB runs stress), a seeded **overwrite** pattern over a
//! fixed region (torn in-place updates), and **interleaved** appends to
//! several logs, which fragment every log into one extent per append so
//! power is cut while inodes carry overflow extent chains.

use std::sync::Arc;

use parking_lot::Mutex;

use bypassd_ext4::layout::{BLOCK_SIZE, EXTENTS_PER_BLOCK, INLINE_EXTENTS};
use bypassd_ext4::{Ext4, Ext4Options, MountOptions};
use bypassd_faults::campaign::{run_campaign, CampaignConfig, CampaignReport, FaultHarness};
use bypassd_faults::plane::FaultPlane;
use bypassd_hw::types::SECTOR_SIZE;
use bypassd_sim::Simulation;

use crate::system::System;
use crate::userlib::UserProcess;

/// The workload a [`CrashLab`] runs between crash points.
#[derive(Debug, Clone, Copy)]
pub enum CrashWorkload {
    /// Append-only log: step `i` writes `blocks_per_step` fresh blocks,
    /// then fsyncs. Exercises allocation, kernel appends and size
    /// commits (optimized append stays off).
    Append {
        /// fsync'd steps.
        steps: usize,
        /// Blocks appended per step.
        blocks_per_step: u64,
    },
    /// Seeded in-place overwrites of a pre-populated region: step `i`
    /// rewrites every block `b` with `(i + b) % 3 == 0`, then fsyncs.
    /// Exercises torn overwrites of existing data.
    Overwrite {
        /// fsync'd steps.
        steps: usize,
        /// Region length in blocks.
        region_blocks: u64,
    },
    /// Round-robin appends to three logs: step `i` appends one block to
    /// log `i % 3`, then fsyncs, until every log passes
    /// `INLINE_EXTENTS + EXTENTS_PER_BLOCK` extents. Each append lands
    /// right after another log's, so it starts a new extent, and every
    /// log grows an overflow extent chain of two blocks.
    Interleaved,
}

impl CrashWorkload {
    /// Paths of the workload's files.
    fn paths(&self) -> Vec<String> {
        match self {
            CrashWorkload::Append { .. } => vec!["/wal".to_string()],
            CrashWorkload::Overwrite { .. } => vec!["/db".to_string()],
            CrashWorkload::Interleaved => {
                (0..INTERLEAVED_LOGS).map(|l| format!("/log{l}")).collect()
            }
        }
    }
}

/// Logs of a [`CrashWorkload::Interleaved`] run. At least 2, or every
/// append would be contiguous with its log's last one.
const INTERLEAVED_LOGS: usize = 3;

/// Steps of a [`CrashWorkload::Interleaved`] run:
/// `INLINE_EXTENTS + EXTENTS_PER_BLOCK + 2` appends per log, so each log
/// passes `INLINE_EXTENTS + EXTENTS_PER_BLOCK` extents even though its
/// first append lands in the block `populate` preallocated.
const INTERLEAVED_STEPS: usize = INTERLEAVED_LOGS * (INLINE_EXTENTS + EXTENTS_PER_BLOCK + 2);

/// Deterministic, non-zero fill byte for (step, file block). Zero is
/// reserved for "never written / dropped write over a pre-zeroed block".
fn pattern(step: usize, block: u64) -> u8 {
    ((step as u64 * 131 + block * 7) % 250 + 1) as u8
}

/// Does overwrite step `step` rewrite block `block`?
fn overwrites(step: usize, block: u64) -> bool {
    (step as u64 + block).is_multiple_of(3)
}

/// Full-stack crash-campaign harness. See the module docs.
pub struct CrashLab {
    plane: Arc<FaultPlane>,
    workload: CrashWorkload,
    /// Mutation-testing knob: mount recovery with checksum validation
    /// off to prove the campaign notices (default on).
    validate_journal_checksums: bool,
    state: Mutex<Option<System>>,
}

impl CrashLab {
    /// A lab with its own fresh plane.
    pub fn new(workload: CrashWorkload) -> CrashLab {
        CrashLab {
            plane: Arc::new(FaultPlane::new()),
            workload,
            validate_journal_checksums: true,
            state: Mutex::new(None),
        }
    }

    /// The shared plane (pass to [`run_campaign`]).
    pub fn plane(&self) -> &Arc<FaultPlane> {
        &self.plane
    }

    /// Disables journal checksum validation during recovery — the
    /// deliberately-broken recovery the campaigns must catch.
    pub fn set_validate_journal_checksums(&mut self, on: bool) {
        self.validate_journal_checksums = on;
    }

    /// Runs a campaign over this lab's workload.
    pub fn campaign(&self, cfg: &CampaignConfig) -> CampaignReport {
        run_campaign(self, &self.plane, cfg)
    }

    /// Reads the whole file back through the recovered mount's extent
    /// map (holes read zero), rounded up to a block multiple.
    fn read_back(&self, sys: &System, fs: &Ext4, path: &str) -> Result<Vec<u8>, String> {
        let ino = fs
            .lookup(path)
            .map_err(|e| format!("recovered fs lost {path}: {e}"))?;
        let size = fs.size_of(ino).map_err(|e| e.to_string())?;
        let aligned = size.div_ceil(BLOCK_SIZE) * BLOCK_SIZE;
        let mut out = Vec::with_capacity(aligned as usize);
        if aligned > 0 {
            let (segs, _) = fs.resolve(ino, 0, aligned).map_err(|e| e.to_string())?;
            for (lba, len) in segs {
                match lba {
                    Some(lba) => {
                        let mut buf = vec![0u8; len as usize];
                        sys.device().read_raw(lba, &mut buf);
                        out.extend_from_slice(&buf);
                    }
                    None => out.resize(out.len() + len as usize, 0),
                }
            }
        }
        out.truncate(size as usize);
        Ok(out)
    }

    /// Append invariants: size is a whole number of steps, covers every
    /// durable step, and each 512 B sector holds either its step's
    /// pattern (mandatory at or below the durable horizon) or zeroes
    /// (allocator pre-zeroing, only above it). The file's `n`-th append
    /// is workload step `step_of(n)`.
    fn check_append(
        &self,
        content: &[u8],
        durable: Option<u64>,
        blocks_per_step: u64,
        step_of: impl Fn(u64) -> u64,
    ) -> Result<(), String> {
        let step_bytes = blocks_per_step * BLOCK_SIZE;
        let size = content.len() as u64;
        if !size.is_multiple_of(step_bytes) {
            return Err(format!("size {size} is not a whole number of append steps"));
        }
        let persisted_steps = size / step_bytes;
        if let Some(k) = durable {
            if step_of(persisted_steps) <= k {
                return Err(format!(
                    "fsync #{k} was durable but only {persisted_steps} steps persisted"
                ));
            }
        }
        for n in 0..persisted_steps {
            let step = step_of(n);
            let required = durable.is_some_and(|k| step <= k);
            for j in 0..blocks_per_step {
                let block = n * blocks_per_step + j;
                let want = pattern(step as usize, block);
                let base = (block * BLOCK_SIZE) as usize;
                for s in 0..(BLOCK_SIZE / SECTOR_SIZE) {
                    let sector =
                        &content[base + (s * SECTOR_SIZE) as usize..][..SECTOR_SIZE as usize];
                    let byte = sector[0];
                    if !sector.iter().all(|&b| b == byte) {
                        return Err(format!(
                            "step {step} block {block} sector {s}: mixed bytes within a sector"
                        ));
                    }
                    if byte == want || (!required && byte == 0) {
                        continue;
                    }
                    return Err(format!(
                        "step {step} block {block} sector {s}: byte {byte:#x}, \
                         want {want:#x}{}",
                        if required { " (durable)" } else { " or 00" }
                    ));
                }
            }
        }
        Ok(())
    }

    /// Overwrite invariants: every sector of every region block holds a
    /// value from its block's admissible write history — the last
    /// durable writer's pattern or any newer writer's; zero only if no
    /// durable step ever wrote the block.
    fn check_overwrite(
        &self,
        content: &[u8],
        durable: Option<u64>,
        steps: usize,
        region_blocks: u64,
    ) -> Result<(), String> {
        if (content.len() as u64) < region_blocks * BLOCK_SIZE {
            return Err(format!(
                "region shrank: {} bytes, want {}",
                content.len(),
                region_blocks * BLOCK_SIZE
            ));
        }
        for block in 0..region_blocks {
            let last_durable =
                durable.and_then(|k| (0..=k as usize).rev().find(|&j| overwrites(j, block)));
            let mut allowed: Vec<u8> = (0..steps)
                .filter(|&j| overwrites(j, block) && last_durable.is_none_or(|d| j >= d))
                .map(|j| pattern(j, block))
                .collect();
            if last_durable.is_none() {
                allowed.push(0); // baseline: populate-zeroed, no durable writer
            }
            let base = (block * BLOCK_SIZE) as usize;
            for s in 0..(BLOCK_SIZE / SECTOR_SIZE) {
                let sector = &content[base + (s * SECTOR_SIZE) as usize..][..SECTOR_SIZE as usize];
                let byte = sector[0];
                if !sector.iter().all(|&b| b == byte) {
                    return Err(format!(
                        "block {block} sector {s}: mixed bytes within a sector"
                    ));
                }
                if !allowed.contains(&byte) {
                    return Err(format!(
                        "block {block} sector {s}: byte {byte:#x} not in admissible \
                         history {allowed:02x?} (durable step {durable:?})"
                    ));
                }
            }
        }
        Ok(())
    }
}

impl FaultHarness for CrashLab {
    fn prepare(&self, plane: &Arc<FaultPlane>) {
        // Small geometry keeps per-point fsck cheap; the journal still
        // holds a maximal transaction (>= 511 blocks).
        let sys = System::builder()
            .fault_plane(Arc::clone(plane))
            .capacity(256 << 20)
            .fs_options(Ext4Options {
                journal_blocks: 600,
                itable_blocks: 64,
                max_run: None,
            })
            .build();
        // Appended files start at size 0: every byte of them is
        // workload-written, so the checker can demand size % step_bytes
        // == 0.
        let size = match self.workload {
            CrashWorkload::Overwrite { region_blocks, .. } => region_blocks * BLOCK_SIZE,
            CrashWorkload::Append { .. } | CrashWorkload::Interleaved => 0,
        };
        for path in self.workload.paths() {
            sys.fs().populate(&path, size, 0).unwrap();
        }
        *self.state.lock() = Some(sys);
    }

    fn run(&self, plane: &Arc<FaultPlane>) {
        let sys = self
            .state
            .lock()
            .clone()
            .expect("prepare builds the system");
        let workload = self.workload;
        let paths = workload.paths();
        let plane = Arc::clone(plane);
        let sim = Simulation::new();
        sim.spawn("crashlab", move |ctx| {
            let proc = UserProcess::start(&sys, 0, 0);
            let mut t = proc.thread();
            let fds: Vec<_> = paths
                .iter()
                .map(|path| t.open(ctx, path, true).unwrap())
                .collect();
            let fd = fds[0];
            match workload {
                CrashWorkload::Append {
                    steps,
                    blocks_per_step,
                } => {
                    for step in 0..steps {
                        let mut data = Vec::with_capacity((blocks_per_step * BLOCK_SIZE) as usize);
                        for j in 0..blocks_per_step {
                            let block = step as u64 * blocks_per_step + j;
                            data.resize(data.len() + BLOCK_SIZE as usize, pattern(step, block));
                        }
                        let off = step as u64 * blocks_per_step * BLOCK_SIZE;
                        assert_eq!(t.pwrite(ctx, fd, &data, off).unwrap(), data.len());
                        t.fsync(ctx, fd).unwrap();
                        plane.mark(step as u64);
                    }
                }
                CrashWorkload::Overwrite {
                    steps,
                    region_blocks,
                } => {
                    for step in 0..steps {
                        for block in (0..region_blocks).filter(|&b| overwrites(step, b)) {
                            let data = vec![pattern(step, block); BLOCK_SIZE as usize];
                            assert_eq!(
                                t.pwrite(ctx, fd, &data, block * BLOCK_SIZE).unwrap(),
                                data.len()
                            );
                        }
                        t.fsync(ctx, fd).unwrap();
                        plane.mark(step as u64);
                    }
                }
                CrashWorkload::Interleaved => {
                    for step in 0..INTERLEAVED_STEPS {
                        let (fd, block) = (
                            fds[step % INTERLEAVED_LOGS],
                            (step / INTERLEAVED_LOGS) as u64,
                        );
                        let data = vec![pattern(step, block); BLOCK_SIZE as usize];
                        assert_eq!(
                            t.pwrite(ctx, fd, &data, block * BLOCK_SIZE).unwrap(),
                            data.len()
                        );
                        t.fsync(ctx, fd).unwrap();
                        plane.mark(step as u64);
                    }
                }
            }
        });
        sim.run();
    }

    fn recover_and_check(&self, plane: &Arc<FaultPlane>) -> Result<(), String> {
        let sys = self.state.lock().take().expect("prepare builds the system");
        let dev = Arc::clone(sys.device());
        let opts = MountOptions {
            validate_journal_checksums: self.validate_journal_checksums,
        };
        // 1. Remount: journal recovery over the post-crash image.
        let fs = Ext4::mount_with(&dev, sys.mem(), opts)
            .map_err(|e| format!("post-crash mount failed: {e}"))?;
        // 2. Structural invariants.
        let report = bypassd_ext4::fsck(&dev);
        if !report.clean() {
            return Err(format!("fsck: {}", report.errors.join("; ")));
        }
        // 3. Replay-twice idempotence (recover twice == recover once).
        let once = dev.media_fingerprint();
        drop(fs);
        let fs = Ext4::mount_with(&dev, sys.mem(), opts)
            .map_err(|e| format!("second mount failed: {e}"))?;
        let twice = dev.media_fingerprint();
        if once != twice {
            return Err(format!(
                "journal replay is not idempotent: {once:#x} -> {twice:#x}"
            ));
        }
        // 4. Data integrity against the durable-mark horizon.
        let durable = plane.durable_marks().into_iter().max();
        let paths = self.workload.paths();
        match self.workload {
            CrashWorkload::Append {
                blocks_per_step, ..
            } => {
                let content = self.read_back(&sys, &fs, &paths[0])?;
                self.check_append(&content, durable, blocks_per_step, |n| n)
            }
            CrashWorkload::Overwrite {
                steps,
                region_blocks,
            } => {
                let content = self.read_back(&sys, &fs, &paths[0])?;
                self.check_overwrite(&content, durable, steps, region_blocks)
            }
            CrashWorkload::Interleaved => {
                for (log, path) in paths.iter().enumerate() {
                    let content = self.read_back(&sys, &fs, path)?;
                    let step_of = |n: u64| n * INTERLEAVED_LOGS as u64 + log as u64;
                    self.check_append(&content, durable, 1, step_of)
                        .map_err(|e| format!("{path}: {e}"))?;
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg(max_points: usize) -> CampaignConfig {
        CampaignConfig {
            max_points,
            shrink_budget: 4,
            ..CampaignConfig::default()
        }
    }

    #[test]
    fn append_smoke_campaign_passes() {
        let lab = CrashLab::new(CrashWorkload::Append {
            steps: 3,
            blocks_per_step: 2,
        });
        let report = lab.campaign(&small_cfg(16));
        assert!(report.passed(), "{}", report.summary());
        assert_eq!(report.points_run, 16);
        assert!(report.clean_points > 0 && report.torn_points > 0);
    }

    #[test]
    fn interleaved_workload_grows_overflow_chains() {
        let lab = CrashLab::new(CrashWorkload::Interleaved);
        let plane = Arc::clone(lab.plane());
        lab.prepare(&plane);
        lab.run(&plane);
        {
            let state = lab.state.lock();
            let fs = state.as_ref().unwrap().fs();
            for path in lab.workload.paths() {
                let ino = fs.lookup(&path).unwrap();
                let size = fs.size_of(ino).unwrap();
                // Interleaved appends are never device-contiguous, so
                // every run is an extent.
                let extents = fs.resolve(ino, 0, size).unwrap().0.len();
                assert!(
                    extents > INLINE_EXTENTS + EXTENTS_PER_BLOCK,
                    "{path}: {extents} extents"
                );
            }
        }
        lab.recover_and_check(&plane).unwrap();
    }

    #[test]
    fn overwrite_smoke_campaign_passes() {
        let lab = CrashLab::new(CrashWorkload::Overwrite {
            steps: 3,
            region_blocks: 6,
        });
        let report = lab.campaign(&small_cfg(16));
        assert!(report.passed(), "{}", report.summary());
        assert!(report.points_run > 0);
    }
}
