//! Criterion microbenchmarks of the core data structures: the hot paths
//! whose costs the simulation's wall-clock time depends on.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use bypassd_ext4::alloc::BlockAllocator;
use bypassd_ext4::extent::ExtentTree;
use bypassd_ext4::journal::{Journal, Tx, MAX_TX_BLOCKS};
use bypassd_ext4::layout::{
    encode_extent_block, mode, DiskInode, Extent, BLOCK_SIZE, EXTENTS_PER_BLOCK, INODES_PER_BLOCK,
};
use bypassd_ext4::{Ext4, Ext4Options, Ino};
use bypassd_hw::iommu::AccessKind;
use bypassd_hw::page_table::{walk_raw, AddressSpace};
use bypassd_hw::pte::Pte;
use bypassd_hw::types::{DevId, Lba, Pasid, Vba, VirtAddr, PAGE_SIZE};
use bypassd_hw::{Iommu, PhysMem};
use bypassd_qos::{QosArbiter, QosConfig, Tenant, TenantShare};
use bypassd_sim::rng::{Fnv64, Rng, Zipfian};
use bypassd_sim::time::Nanos;
use bypassd_ssd::device::NvmeDevice;
use bypassd_ssd::store::SectorStore;
use bypassd_ssd::timing::MediaTiming;
use bypassd_trace::Histogram;

fn bench_page_walk(c: &mut Criterion) {
    let mem = PhysMem::new();
    let mut asid = AddressSpace::new(&mem);
    for i in 0..512u64 {
        asid.map_page(
            VirtAddr(0x4000_0000 + i * PAGE_SIZE),
            Pte::leaf(i + 1, true),
        );
    }
    let root = asid.root_frame();
    let mut i = 0u64;
    c.bench_function("page_table_walk", |b| {
        b.iter(|| {
            i = (i + 1) % 512;
            black_box(walk_raw(&mem, root, VirtAddr(0x4000_0000 + i * PAGE_SIZE)));
        });
    });
}

fn bench_iommu_translate(c: &mut Criterion) {
    let mem = PhysMem::new();
    let mut asid = AddressSpace::new(&mem);
    let vba = Vba(0x4000_0000);
    for i in 0..512u64 {
        asid.map_page(
            vba.as_virt().offset(i * PAGE_SIZE),
            Pte::fte(Lba::from_block(1000 + i), DevId(1), true),
        );
    }
    let mut iommu = Iommu::new(&mem);
    iommu.register(Pasid(1), asid.root_frame());
    let mut i = 0u64;
    c.bench_function("iommu_translate_4k", |b| {
        b.iter(|| {
            i = (i + 1) % 512;
            black_box(
                iommu
                    .translate(
                        Pasid(1),
                        vba.offset(i * PAGE_SIZE),
                        PAGE_SIZE,
                        AccessKind::Read,
                        DevId(1),
                    )
                    .unwrap(),
            );
        });
    });
}

fn bench_extent_resolve(c: &mut Criterion) {
    let mut tree = ExtentTree::new();
    for i in 0..1000u64 {
        tree.insert(Extent {
            file_block: i * 4,
            start_block: 10_000 + i * 7,
            len: 4,
        });
    }
    let mut i = 0u64;
    c.bench_function("extent_resolve_16k", |b| {
        b.iter(|| {
            i = (i + 13) % 3900;
            black_box(tree.resolve_bytes(i * 4096, 16 * 1024));
        });
    });
}

fn bench_allocator(c: &mut Criterion) {
    c.bench_function("block_alloc_free_64", |b| {
        let mut a = BlockAllocator::new(1 << 20, 100);
        b.iter(|| {
            let run = a.alloc(64).unwrap();
            a.free_run(run.start, run.len);
            black_box(run);
        });
    });
}

fn bench_histogram(c: &mut Criterion) {
    let mut h = Histogram::new();
    let mut v = 1u64;
    c.bench_function("histogram_record", |b| {
        b.iter(|| {
            v = v.wrapping_mul(6364136223846793005).wrapping_add(1);
            h.record(Nanos(v % 100_000_000));
        });
    });
}

fn bench_zipfian(c: &mut Criterion) {
    let z = Zipfian::new(1_000_000_000, 0.99);
    let mut rng = Rng::new(7);
    c.bench_function("zipfian_sample_1e9", |b| {
        b.iter(|| {
            black_box(z.next(&mut rng));
        });
    });
}

/// A full overflow extent block: 16-byte header, then 20-byte records
/// of small integers, so most bytes are zero.
fn extent_chain_block() -> Vec<u8> {
    let extents: Vec<Extent> = (0..EXTENTS_PER_BLOCK as u64)
        .map(|i| Extent {
            file_block: i * 2,
            start_block: 10_000 + i * 3,
            len: 1 + (i % 2) as u32,
        })
        .collect();
    encode_extent_block(&extents, 0)
}

/// An inode-table block with every slot in use.
fn inode_table_block() -> Vec<u8> {
    let mut block = Vec::with_capacity(BLOCK_SIZE as usize);
    for i in 0..INODES_PER_BLOCK {
        let mut inode = DiskInode::new(mode::REG | 0o644, 1000 + i as u32, 1000);
        inode.size = (i + 1) * 3 * BLOCK_SIZE;
        block.extend_from_slice(&inode.encode());
    }
    block.resize(BLOCK_SIZE as usize, 0);
    block
}

/// FNV over one 4 KB block: the journal checksum's per-block kernel.
fn bench_fnv(c: &mut Criterion) {
    let mut rng = Rng::new(11);
    let dense: Vec<u8> = (0..BLOCK_SIZE).map(|_| rng.next_u64() as u8).collect();
    for (name, block) in [
        ("fnv_4k_zero", vec![0u8; BLOCK_SIZE as usize]),
        ("fnv_4k_extent_chain", extent_chain_block()),
        ("fnv_4k_dense", dense),
    ] {
        c.bench_function(name, |b| {
            b.iter(|| {
                let mut h = Fnv64::new();
                h.write(black_box(&block));
                black_box(h.finish());
            });
        });
    }
}

/// One journal commit of an append-shaped transaction: an inode-table
/// block, an extent-chain block and a block-bitmap block.
fn bench_journal_commit(c: &mut Criterion) {
    let mem = PhysMem::new();
    let iommu = std::sync::Arc::new(parking_lot::Mutex::new(Iommu::new(&mem)));
    let dev = NvmeDevice::new(DevId(1), 1 << 16, MediaTiming::default(), iommu);
    let mut journal = Journal::new(dev, 1, MAX_TX_BLOCKS as u64 + 2);
    let mut bitmap = vec![0u8; BLOCK_SIZE as usize];
    bitmap[..512].fill(0xFF);
    let mut tx = Tx::default();
    tx.stage(100, inode_table_block());
    tx.stage(101, extent_chain_block());
    tx.stage(102, bitmap);
    c.bench_function("journal_commit_3_blocks", |b| {
        b.iter(|| black_box(journal.commit(&tx)));
    });
}

/// One kernel append (`allocate_keep_size` + `set_size`, two journal
/// commits) on `Ext4` directly, round-robin over 8 logs so that every
/// append starts a new extent. Each log grows to 500 extents, is
/// truncated to empty and grows again, so the row averages appends over
/// 0–500 extents (one truncate per 500 appends, and one sync point per
/// 4,000 to release the freed blocks, are timed with them).
fn bench_ext4_append(c: &mut Criterion) {
    const LOGS: usize = 8;
    const EXTENTS: u64 = 500;
    let mem = PhysMem::new();
    let iommu = std::sync::Arc::new(parking_lot::Mutex::new(Iommu::new(&mem)));
    let dev = NvmeDevice::new(DevId(1), 1 << 20, MediaTiming::default(), iommu);
    let fs = Ext4::format(&dev, &mem, Ext4Options::default());
    let logs: Vec<Ino> = (0..LOGS)
        .map(|l| fs.create(&format!("/log{l}"), 0o644, 0, 0).unwrap())
        .collect();
    let mut next = 0usize;
    c.bench_function("ext4_append_8_logs", |b| {
        b.iter(|| {
            let log = next % LOGS;
            next += 1;
            let ino = logs[log];
            let mut size = fs.size_of(ino).unwrap();
            if size == EXTENTS * BLOCK_SIZE {
                fs.truncate(ino, 0).unwrap();
                if log == LOGS - 1 {
                    fs.sync_point();
                }
                size = 0;
            }
            fs.allocate_keep_size(ino, size, BLOCK_SIZE).unwrap();
            fs.set_size(ino, size + BLOCK_SIZE).unwrap();
        });
    });
}

/// One QoS admission on a device with `n` registered tenants, weighted
/// 1..4 as the fleet registers them. Tenants take turns submitting a
/// batch of 4 commands (the fleet's batch), 500 ns apart with 4 µs of
/// media each, so with 251 or more tenants every batch opens one
/// activity window and closes another.
fn bench_qos_admit(c: &mut Criterion) {
    for n in [8u32, 251, 1_250] {
        let mut arb = QosArbiter::new(QosConfig::enabled(), 8);
        let tenants: Vec<Tenant> = (0..n).map(|p| Tenant::User(Pasid(p + 1))).collect();
        for (i, t) in tenants.iter().enumerate() {
            arb.register(*t, TenantShare::weight(1 + i as u32 % 4));
        }
        let (mut i, mut now) = (0usize, Nanos::ZERO);
        c.bench_function(&format!("qos_admit_{n}_tenants"), |b| {
            b.iter(|| {
                i = (i + 1) % (4 * tenants.len());
                now += Nanos(500);
                black_box(arb.admit(tenants[i / 4], now, Nanos(4_000), 4096));
            });
        });
    }
}

/// The media fingerprint of one fleet machine's device: eight 4 MB
/// tenant files of 0x42 blocks, plus blocks in the fill bytes the
/// fleet's writes use.
fn bench_media_fingerprint(c: &mut Criterion) {
    let system = bypassd::System::builder().build();
    for t in 0..8 {
        system
            .fs()
            .populate(&format!("/tenant{t}"), 4 << 20, 0x42)
            .expect("populate tenant file");
    }
    for round in 0..3u8 {
        for idx in 0..8u8 {
            system
                .fs()
                .populate(&format!("/w{round}_{idx}"), BLOCK_SIZE, round ^ idx ^ 0xA5)
                .expect("populate written block");
        }
    }
    let dev = system.device();
    c.bench_function("media_fingerprint_machine", |b| {
        b.iter(|| black_box(dev.media_fingerprint()));
    });
}

/// The media store under `direct_read`'s data set: 64 MB of 4 KB
/// blocks, each with its own content.
const STAMP_BLOCKS: u64 = 16_384;

/// Writes `STAMP_BLOCKS` distinct blocks into `store`.
fn stamp(store: &mut SectorStore) {
    let mut block: Vec<u8> = (0..BLOCK_SIZE).map(|i| i as u8).collect();
    for b in 0..STAMP_BLOCKS {
        block[..8].copy_from_slice(&b.to_le_bytes());
        store.write(Lba::from_block(b), &block);
    }
}

/// Host ns to stamp 64 MB into a fresh 8 GB store, with one store
/// already dropped in the process (as every layerbench repetition,
/// test and figure cell after the first finds it); and per uniform
/// random 4 KB read from those 64 MB.
fn bench_media_store(c: &mut Criterion) {
    const SECTORS: u64 = (8 << 30) / 512;
    stamp(&mut SectorStore::new(SECTORS));
    c.bench_function("store_stamp_64mb", |b| {
        b.iter(|| {
            let mut store = SectorStore::new(SECTORS);
            stamp(&mut store);
            black_box(store.resident_blocks())
        });
    });
    let mut store = SectorStore::new(SECTORS);
    stamp(&mut store);
    let (mut rng, mut buf) = (Rng::new(5), vec![0u8; BLOCK_SIZE as usize]);
    c.bench_function("store_read_4k_random", |b| {
        b.iter(|| {
            store.read(Lba::from_block(rng.gen_range(STAMP_BLOCKS)), &mut buf);
            black_box(buf[0])
        });
    });
}

/// Host time to build and drop a default `System` (tracing and QoS
/// off): the set-up cost every test, figure cell and fleet machine pays.
fn bench_system_build(c: &mut Criterion) {
    c.bench_function("system_build_default", |b| {
        b.iter(|| drop(black_box(bypassd::System::builder().build())));
    });
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .measurement_time(std::time::Duration::from_millis(500))
        .warm_up_time(std::time::Duration::from_millis(200))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_page_walk, bench_iommu_translate, bench_extent_resolve,
              bench_allocator, bench_histogram, bench_zipfian, bench_fnv,
              bench_journal_commit, bench_ext4_append, bench_qos_admit,
              bench_media_fingerprint, bench_media_store, bench_system_build
}
criterion_main!(benches);
