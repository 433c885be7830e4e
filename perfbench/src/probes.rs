//! Single-layer probes: each times one layer's public functions in
//! isolation, at the sizes the workloads use.

use std::time::Instant;

use veros_blockstore::wire::{block_checksum, Request};
use veros_blockstore::BlockStore;
use veros_fs::journal::{FsOp, JournaledFs};
use veros_hw::disk::SimDisk;

use crate::report::{percentile, Metric, Outcome};

/// Live 1 KiB blocks before the timed operations: every key of
/// `chain_put_get`.
const LIVE: usize = 512;
/// Timed operations per probe.
const TIMED: usize = 300;
/// The 4 MiB disk of a `chain_put_get` node.
const SECTORS: u64 = 1 << 13;
const VALUE: usize = 1024;

/// Runs every probe.
pub fn run(out: &mut Outcome, seed: u64) {
    const GET: &str = "p50_us on chain_put_get";
    let kib = vec![0xa5u8; VALUE];
    let iters = 20_000;
    let t = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(block_checksum(std::hint::black_box(&kib)));
    }
    let checksum = t.elapsed().as_nanos() as f64 / iters as f64;

    let req = Request::Put {
        id: 7,
        key: "chain-1".into(),
        data: kib.clone(),
        checksum: 0,
        replicate: true,
    };
    let t = Instant::now();
    for _ in 0..iters {
        let bytes = std::hint::black_box(&req).encode();
        std::hint::black_box(Request::decode(&bytes).expect("round trip"));
    }
    let codec = t.elapsed().as_nanos() as f64 / iters as f64;
    out.metrics.push(Metric::layer(
        "blockstore.checksum_ns_per_kib",
        checksum,
        "ns",
        iters,
        GET,
    ));
    out.metrics.push(Metric::layer(
        "blockstore.wire.codec_ns_per_msg",
        codec,
        "ns",
        iters,
        GET,
    ));
    store(out);
    journal(out);
    out.metrics.push(Metric::layer(
        "net.max_fleet_value_bytes",
        crate::fleet::max_fleet_value_bytes(seed) as f64,
        "bytes",
        1,
        "the value sizes a fleet workload may use",
    ));
}

/// `BlockStore::put`/`get` on a store holding [`LIVE`] blocks, and the
/// disk writes and flushes each put costs.
fn store(out: &mut Outcome) {
    let mut s = BlockStore::format(SECTORS);
    let data = vec![0x3cu8; VALUE];
    let sum = block_checksum(&data);
    for k in 0..LIVE {
        s.put(&format!("k{k}"), &data, sum).expect("fill store");
    }
    let (mut put, mut get) = (Vec::new(), Vec::new());
    for i in 0..TIMED {
        let key = format!("k{}", (i * 7) % LIVE);
        let t = Instant::now();
        s.put(&key, &data, sum).expect("timed put");
        put.push(t.elapsed().as_nanos() as f64 / 1e3);
        let t = Instant::now();
        std::hint::black_box(s.get(&key).expect("timed get"));
        get.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    let (writes, flushes) = s.into_disk().stats();
    let puts = (LIVE + TIMED) as f64;
    const PUT: &str = "p50_us on chain_put_get";
    out.metrics.extend([
        Metric::layer(
            "blockstore.store.put_us_p50",
            percentile(&mut put, 50.0),
            "us",
            TIMED,
            PUT,
        ),
        Metric::layer(
            "blockstore.store.get_us_p50",
            percentile(&mut get, 50.0),
            "us",
            TIMED,
            PUT,
        ),
        Metric::layer(
            "hw.disk.writes_per_put",
            writes as f64 / puts,
            "count",
            puts as usize,
            PUT,
        ),
        Metric::layer(
            "hw.disk.flushes_per_put",
            flushes as f64 / puts,
            "count",
            puts as usize,
            PUT,
        ),
    ]);
}

/// `JournaledFs::apply` and `commit` of a 1 KiB overwrite with
/// [`LIVE`] live files: `apply` copies the whole `MemFs`, so it grows
/// with live data.
fn journal(out: &mut Outcome) {
    let mut fs = JournaledFs::format(SimDisk::new(SECTORS));
    for k in 0..LIVE {
        let path = format!("/f{k}");
        fs.apply(FsOp::Create(path.clone())).expect("create");
        fs.apply(FsOp::WriteAt(path, 0, vec![1; VALUE]))
            .expect("fill");
        fs.commit().expect("commit");
    }
    let (mut apply, mut commit) = (Vec::new(), Vec::new());
    for i in 0..TIMED {
        let path = format!("/f{}", (i * 7) % LIVE);
        let t = Instant::now();
        fs.apply(FsOp::WriteAt(path, 0, vec![2; VALUE]))
            .expect("timed apply");
        apply.push(t.elapsed().as_nanos() as f64 / 1e3);
        let t = Instant::now();
        fs.commit().expect("timed commit");
        commit.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    const PUT: &str = "p50_us on chain_put_get";
    out.metrics.extend([
        Metric::layer(
            "fs.journal.apply_us_p50",
            percentile(&mut apply, 50.0),
            "us",
            TIMED,
            PUT,
        ),
        Metric::layer(
            "fs.journal.commit_us_p50",
            percentile(&mut commit, 50.0),
            "us",
            TIMED,
            PUT,
        ),
    ]);
}
