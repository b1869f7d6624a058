//! Differential test for `PhysMem`'s table frames and page-less data
//! frames: seeded random sequences of data- and table-frame allocations
//! and frees, aligned and unaligned `write_u64`/`read_u64`, writes of
//! zero, tables filled past the sparse threshold, partial and
//! whole-frame `write_with`, `read_with`, releases of several frames at
//! once, consuming `consume_with` reads, and `walk_raw` over linked tables
//! must read exactly the bytes of a flat model that keeps every frame as
//! 4 KB, kept here as the reference. The model also predicts which table
//! frames are still sparse and how many entries each stores, and which
//! frames hold a host page, so a promotion that loses an entry, a zero
//! write that leaves a stale entry, a partial write after a release that
//! leaves stale bytes around it, and a release that keeps its page all
//! fail it. Frame numbers are the model's keys: a released frame stays
//! allocated under its number and is never handed out again.
//!
//! CI runs this file in release mode with a raised `PROPTEST_CASES`.

use std::collections::BTreeMap;

use bypassd_hw::mem::{PhysMem, TABLE_SPARSE_MAX};
use bypassd_hw::page_table::{walk_raw, Walk};
use bypassd_hw::pte::Pte;
use bypassd_hw::types::{PhysAddr, VirtAddr, PAGE_SIZE};
use bypassd_sim::rng::Rng;
use proptest::prelude::*;

const PAGE: usize = PAGE_SIZE as usize;
/// Most frames live at once.
const MAX_LIVE: usize = 12;
/// Entry indices most writes pick, so entries are overwritten and zeroed.
const HOT: [u64; 6] = [0, 1, 7, 255, 256, 511];

/// One frame of the flat model.
struct ModelFrame {
    bytes: Box<[u8]>,
    /// The frame should still store only its entries.
    sparse: bool,
    /// The frame should hold a 4 KB host page: a data frame from its
    /// first write until released, a table frame once dense.
    backed: bool,
}

impl ModelFrame {
    fn word(&self, off: usize) -> u64 {
        u64::from_le_bytes(self.bytes[off..off + 8].try_into().unwrap())
    }

    fn entries(&self) -> usize {
        (0..PAGE / 8).filter(|&i| self.word(8 * i) != 0).count()
    }
}

/// The memory under test and its flat model, keyed by frame number.
struct Pair {
    mem: PhysMem,
    model: BTreeMap<u64, ModelFrame>,
}

impl Pair {
    fn alloc(&mut self, table: bool) -> u64 {
        let f = if table {
            self.mem.alloc_table_frame()
        } else {
            self.mem.alloc_frame()
        };
        let frame = ModelFrame {
            bytes: vec![0u8; PAGE].into_boxed_slice(),
            sparse: table,
            backed: false,
        };
        assert!(
            self.model.insert(f, frame).is_none(),
            "frame {f} handed out twice"
        );
        f
    }

    fn free(&mut self, f: u64) {
        self.mem.free_frame(f);
        self.model.remove(&f);
    }

    fn write_u64(&mut self, f: u64, off: usize, value: u64) {
        self.mem
            .write_u64(PhysAddr::from_frame(f, off as u64), value);
        let m = self.model.get_mut(&f).unwrap();
        let grows = m.word(off & !7) == 0 && value != 0;
        if !off.is_multiple_of(8) || (grows && m.entries() == TABLE_SPARSE_MAX) {
            m.sparse = false;
        }
        m.backed |= !m.sparse;
        m.bytes[off..off + 8].copy_from_slice(&value.to_le_bytes());
    }

    fn write_bytes(&mut self, f: u64, off: usize, data: &[u8]) {
        let addr = PhysAddr::from_frame(f, off as u64);
        self.mem
            .write_with(addr, data.len(), |dst| dst.copy_from_slice(data));
        let m = self.model.get_mut(&f).unwrap();
        m.sparse = false;
        m.backed = true;
        m.bytes[off..off + data.len()].copy_from_slice(data);
    }

    /// The model of releasing `f`: it reads zeros and holds no page.
    fn model_release(&mut self, f: u64) {
        let m = self.model.get_mut(&f).unwrap();
        m.bytes.fill(0);
        m.backed = false;
    }

    fn release(&mut self, frames: &[u64]) {
        self.mem.release(frames);
        for &f in frames {
            self.model_release(f);
        }
    }

    /// Every byte, word and the sparse state of frame `f` agree.
    fn same_frame(&self, f: u64) -> Result<(), String> {
        let m = &self.model[&f];
        let mut got = vec![0xEEu8; PAGE];
        self.mem.read(PhysAddr::from_frame(f, 0), &mut got);
        if let Some(i) = (0..PAGE).find(|&i| got[i] != m.bytes[i]) {
            return Err(format!(
                "frame {f} byte {i}: mem {:#04x}, model {:#04x}",
                got[i], m.bytes[i]
            ));
        }
        for i in 0..PAGE / 8 {
            let got = self.mem.read_u64(PhysAddr::from_frame(f, 8 * i as u64));
            if got != m.word(8 * i) {
                return Err(format!(
                    "frame {f} entry {i}: mem {got:#x}, model {:#x}",
                    m.word(8 * i)
                ));
            }
        }
        if self.mem.holds_page(f) != m.backed {
            return Err(format!(
                "frame {f}: holds a page {}, model {}",
                self.mem.holds_page(f),
                m.backed
            ));
        }
        let want = m.sparse.then(|| m.entries());
        match self.mem.sparse_entries(f) {
            got if got == want => Ok(()),
            got => Err(format!(
                "frame {f}: stores {got:?} sparse entries, model {want:?}"
            )),
        }
    }

    /// The model's walk from `root`, or `None` if it would leave the
    /// allocated frames (where `walk_raw` panics, as real memory faults).
    fn model_walk(&self, root: u64, va: VirtAddr) -> Option<Option<Walk>> {
        let mut table = root;
        let mut writable = true;
        for level in (1..=4).rev() {
            let entry = Pte(self.model.get(&table)?.word(8 * va.index(level)));
            if !entry.present() {
                return Some(None);
            }
            if level == 1 {
                return Some(Some(Walk {
                    pte: entry,
                    effective_writable: writable && entry.writable(),
                    levels: 4,
                }));
            }
            writable &= entry.writable();
            table = entry.frame();
        }
        unreachable!("the leaf level returns")
    }
}

fn pick(rng: &mut Rng, live: &[u64]) -> u64 {
    live[rng.gen_range(live.len() as u64) as usize]
}

fn entry_index(rng: &mut Rng) -> u64 {
    if rng.gen_range(3) == 0 {
        rng.gen_range(512)
    } else {
        HOT[rng.gen_range(HOT.len() as u64) as usize]
    }
}

fn value(rng: &mut Rng) -> u64 {
    match rng.gen_range(4) {
        0 => 0,
        1 => rng.gen_range(4) + 1,
        _ => rng.next_u64(),
    }
}

/// A random byte range within one frame.
fn range(rng: &mut Rng) -> (usize, usize) {
    let off = rng.gen_range(PAGE as u64) as usize;
    let len = 1 + rng.gen_range((PAGE - off).min(96) as u64) as usize;
    (off, len)
}

/// A virtual address whose four radix indices come from `HOT`.
fn hot_va(rng: &mut Rng) -> VirtAddr {
    let va = (1..=4u8).fold(0u64, |va, level| {
        va | (entry_index(rng) << (12 + 9 * (u64::from(level) - 1)))
    });
    VirtAddr(va)
}

proptest! {
    #[test]
    fn table_frames_read_as_dense_frames(seed: u64) {
        let mut rng = Rng::new(seed);
        let mut p = Pair { mem: PhysMem::new(), model: BTreeMap::new() };
        // Linked paths, walked again after every later step.
        let mut paths: Vec<(u64, VirtAddr)> = Vec::new();
        for step in 0..64 {
            let at = format!("seed {seed:#x}, step {step}");
            let live: Vec<u64> = p.model.keys().copied().collect();
            let op = if live.len() < 4 { 0 } else { rng.gen_range(15) };
            let touched = match op {
                // Alloc either kind.
                0 | 1 if live.len() < MAX_LIVE => p.alloc(rng.gen_range(3) != 0),
                // Free a frame and take its slot back as the other kind:
                // it must read zero and hold no page.
                0..=2 => {
                    let f = pick(&mut rng, &live);
                    let table = !p.model[&f].sparse;
                    p.free(f);
                    prop_assert_eq!(p.alloc(table), f, "{}: free list should recycle", at);
                    f
                }
                // Aligned entry writes, zeros included.
                3..=5 => {
                    let f = pick(&mut rng, &live);
                    let v = value(&mut rng);
                    p.write_u64(f, 8 * entry_index(&mut rng) as usize, v);
                    f
                }
                // An unaligned word write.
                6 => {
                    let f = pick(&mut rng, &live);
                    let off = 1 + 8 * rng.gen_range(511) as usize + rng.gen_range(7) as usize;
                    let v = value(&mut rng);
                    p.write_u64(f, off, v);
                    f
                }
                // Fill a frame toward and past the sparse threshold.
                7 => {
                    let f = pick(&mut rng, &live);
                    let n = TABLE_SPARSE_MAX as u64 - 2 + rng.gen_range(5);
                    let start = rng.gen_range(512 - n);
                    for i in start..start + n {
                        p.write_u64(f, 8 * i as usize, rng.next_u64() | 1);
                    }
                    f
                }
                // Zero a run of entries written before.
                8 => {
                    let f = pick(&mut rng, &live);
                    for i in 0..rng.gen_range(48) {
                        p.write_u64(f, 8 * i as usize, 0);
                    }
                    f
                }
                // A byte-level write.
                9 => {
                    let f = pick(&mut rng, &live);
                    let (off, len) = range(&mut rng);
                    let data: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
                    p.write_bytes(f, off, &data);
                    f
                }
                // Release one to three frames in one call (a frame twice
                // included): each reads zeros after.
                10 => {
                    let frames: Vec<u64> = (0..1 + rng.gen_range(3)).map(|_| pick(&mut rng, &live)).collect();
                    p.release(&frames);
                    frames[0]
                }
                // Link a path of tables and walk it.
                11 => {
                    let path: Vec<u64> = (0..4).map(|_| pick(&mut rng, &live)).collect();
                    let va = hot_va(&mut rng);
                    for (k, level) in (2..=4u8).rev().enumerate() {
                        let mut entry = Pte::table(path[k + 1]);
                        if rng.gen_range(4) == 0 {
                            entry = entry.read_only();
                        }
                        p.write_u64(path[k], 8 * va.index(level), entry.bits());
                    }
                    let leaf = Pte::leaf(rng.gen_range(1 << 20), rng.gen_range(2) == 0);
                    p.write_u64(path[3], 8 * va.index(1), leaf.bits());
                    if paths.len() == 16 {
                        paths.remove(0);
                    }
                    paths.push((path[0], va));
                    path[0]
                }
                // A whole-frame write: lent a recycled page, it must read
                // back exactly.
                12 => {
                    let f = pick(&mut rng, &live);
                    let data: Vec<u8> = (0..PAGE).map(|_| rng.next_u64() as u8).collect();
                    p.write_bytes(f, 0, &data);
                    f
                }
                // A consuming read: the bytes as they were, then released.
                13 => {
                    let f = pick(&mut rng, &live);
                    let (off, len) = range(&mut rng);
                    let got = p.mem.consume_with(PhysAddr::from_frame(f, off as u64), len, <[u8]>::to_vec);
                    prop_assert!(got == p.model[&f].bytes[off..off + len], "{at}: consume_with");
                    p.model_release(f);
                    f
                }
                // Unaligned reads and lent reads.
                _ => {
                    let f = pick(&mut rng, &live);
                    let off = rng.gen_range(PAGE as u64 - 7);
                    let got = p.mem.read_u64(PhysAddr::from_frame(f, off));
                    let want = p.model[&f].word(off as usize);
                    prop_assert_eq!(got, want, "{}: read_u64 at {}", at, off);
                    let (off, len) = range(&mut rng);
                    let got = p.mem.read_with(PhysAddr::from_frame(f, off as u64), len, <[u8]>::to_vec);
                    prop_assert!(got == p.model[&f].bytes[off..off + len], "{at}: read_with");
                    f
                }
            };
            if let Err(e) = p.same_frame(touched) {
                prop_assert!(false, "{at}: {e}");
            }
            prop_assert_eq!(p.mem.allocated_frames(), p.model.len() as u64, "{}", at);
            let roots: Vec<u64> = p.model.keys().copied().collect();
            let random = (0..2).map(|_| {
                let root = pick(&mut rng, &roots);
                let va = if rng.gen_range(2) == 0 { hot_va(&mut rng) } else { VirtAddr(rng.next_u64() & ((1 << 48) - 1)) };
                (root, va)
            }).collect::<Vec<_>>();
            for &(root, va) in paths.iter().chain(&random) {
                if let Some(want) = p.model_walk(root, va) {
                    prop_assert_eq!(walk_raw(&p.mem, root, va), want, "{}: walk {} from {}", at, va, root);
                }
            }
        }
        for f in p.model.keys() {
            if let Err(e) = p.same_frame(*f) {
                prop_assert!(false, "seed {seed:#x}, final: {e}");
            }
        }
    }
}
