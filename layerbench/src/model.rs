//! The benchmark's flat model of what each file block holds.
//!
//! Every 4 KB block the benchmark writes, at set-up or through UserLib,
//! is a fixed 512-word pattern XOR-ed with one 64-bit tag naming the
//! file, the block and the block's version. A reader checks a block
//! against the tag its model expects in one branch-free pass: cheap
//! enough for the read path, yet it catches a flipped byte and a block
//! read from the wrong place.

use std::time::Instant;

use bypassd::System;
use bypassd_hw::types::Lba;

use crate::spans::SpanLog;

/// Bytes per block, and per benchmark I/O.
pub const BLOCK: usize = 4096;
const WORDS: usize = BLOCK / 8;
const SECTOR: u64 = 512;

/// File id of the file every process reads.
pub const SHARED: u64 = 0;

const fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const PATTERN: [u64; WORDS] = {
    let mut p = [0u64; WORDS];
    let mut i = 0;
    while i < WORDS {
        p[i] = mix((i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        i += 1;
    }
    p
};

/// File id of process `p`'s private data file.
pub fn private_file(p: usize) -> u64 {
    1 + p as u64
}

/// File id of process `p`'s append log.
pub fn log_file(p: usize) -> u64 {
    (1 << 32) + p as u64
}

/// The tag of `block` of `file` at `version` (0 = as populated).
pub fn tag(file: u64, block: u64, version: u64) -> u64 {
    mix(mix(file ^ 0x5851_F42D_4C95_7F2D) ^ block ^ version.rotate_left(40))
}

/// Writes the block that carries `tag` into `buf`.
pub fn fill(buf: &mut [u8], tag: u64) {
    assert_eq!(buf.len(), BLOCK, "model blocks are 4 KB");
    for (chunk, p) in buf.chunks_exact_mut(8).zip(&PATTERN) {
        chunk.copy_from_slice(&(p ^ tag).to_le_bytes());
    }
}

/// Whether `buf` is exactly the block that carries `tag`.
pub fn holds(buf: &[u8], tag: u64) -> bool {
    buf.len() == BLOCK
        && buf
            .chunks_exact(8)
            .zip(&PATTERN)
            .fold(0, |diff, (chunk, p)| {
                let word = u64::from_le_bytes(chunk.try_into().expect("chunks_exact(8)"));
                diff | (word ^ p ^ tag)
            })
            == 0
}

/// Creates `path` with `blocks` populated blocks and stamps block `b`
/// with `tag(file, b, 0)` through the device's raw set-up path. Returns
/// the wall seconds `Ext4::populate` took.
///
/// # Errors
/// File system errors, or a populated file that is not fully mapped.
pub fn make_file(
    sys: &System,
    log: &mut SpanLog,
    path: &str,
    blocks: u64,
    file: u64,
) -> Result<f64, String> {
    const CHUNK: usize = 64 * BLOCK;
    let len = blocks * BLOCK as u64;
    let start = Instant::now();
    let ino = log
        .time("ext4.populate", || sys.fs().populate(path, len, 0))
        .map_err(|e| format!("populate {path}: {e:?}"))?;
    let populate_s = start.elapsed().as_secs_f64();
    let (segs, _) = sys
        .fs()
        .resolve(ino, 0, len)
        .map_err(|e| format!("resolve {path}: {e:?}"))?;
    let mut buf = vec![0u8; CHUNK];
    let mut block = 0;
    for (lba, seg_len) in segs {
        let lba = lba.ok_or_else(|| format!("{path} has a hole after populate"))?;
        let mut done = 0;
        while done < seg_len {
            let n = (seg_len - done).min(CHUNK as u64) as usize;
            if !n.is_multiple_of(BLOCK) {
                return Err(format!(
                    "{path}: extent of {seg_len} bytes is not whole blocks"
                ));
            }
            for (i, b) in buf[..n].chunks_exact_mut(BLOCK).enumerate() {
                fill(b, tag(file, block + i as u64, 0));
            }
            sys.device()
                .write_raw(Lba(lba.0 + done / SECTOR), &buf[..n]);
            block += (n / BLOCK) as u64;
            done += n as u64;
        }
    }
    if block != blocks {
        return Err(format!("{path}: stamped {block} of {blocks} blocks"));
    }
    Ok(populate_s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checker_catches_a_flipped_byte() {
        let t = tag(SHARED, 7, 0);
        let mut b = vec![0u8; BLOCK];
        fill(&mut b, t);
        assert!(holds(&b, t));
        for pos in [0, 1, 8, BLOCK / 2, BLOCK - 1] {
            for bit in [0x01, 0x80] {
                let mut c = b.clone();
                c[pos] ^= bit;
                assert!(
                    !holds(&c, t),
                    "flip of bit {bit:#x} at byte {pos} went unseen"
                );
            }
        }
        assert!(!holds(&b[..BLOCK - 8], t), "a short read is not the block");
    }

    #[test]
    fn tags_tell_files_blocks_and_versions_apart() {
        let mut seen = std::collections::HashSet::new();
        for file in [
            SHARED,
            private_file(0),
            private_file(7),
            log_file(0),
            log_file(7),
        ] {
            for block in 0..64 {
                for version in 0..4 {
                    assert!(seen.insert(tag(file, block, version)));
                }
            }
        }
        let mut b = vec![0u8; BLOCK];
        fill(&mut b, tag(SHARED, 1, 0));
        assert!(
            !holds(&b, tag(SHARED, 2, 0)),
            "a block read from the wrong place"
        );
        assert!(!holds(&b, tag(SHARED, 1, 1)), "a stale version");
    }

    #[test]
    fn stamped_file_reads_back_raw() {
        let sys = System::builder().build();
        let mut log = SpanLog::new(None);
        make_file(&sys, &mut log, "/f", 40, 3).unwrap();
        let ino = sys.fs().lookup("/f").unwrap();
        let (segs, _) = sys.fs().resolve(ino, 0, 40 * BLOCK as u64).unwrap();
        let mut block = 0;
        let mut buf = vec![0u8; BLOCK];
        for (lba, len) in segs {
            let lba = lba.unwrap();
            for k in 0..len / BLOCK as u64 {
                sys.device()
                    .read_raw(Lba(lba.0 + k * (BLOCK as u64 / SECTOR)), &mut buf);
                assert!(holds(&buf, tag(3, block, 0)), "block {block}");
                block += 1;
            }
        }
        assert_eq!(block, 40);
    }
}
