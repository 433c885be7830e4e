//! Cross-crate integration: the storage path from application protocol
//! down to simulated sectors — block store over journaled filesystem
//! over the crash-injecting disk, across the lossy network.

use veros::blockstore::{wire, BlockStore, Cluster, Response};
use veros::net::sim::FaultPlan;
use veros::spec::rng::SpecRng;

#[test]
fn blockstore_agrees_with_an_abstract_map_under_random_workload() {
    use std::collections::BTreeMap;

    let mut rng = SpecRng::seeded(77);
    let mut store = BlockStore::format(1 << 15);
    let mut spec: BTreeMap<String, Vec<u8>> = BTreeMap::new();
    for _ in 0..200 {
        let key = format!("k{}", rng.below(10));
        match rng.below(3) {
            0 => {
                let mut data = vec![0u8; rng.index(128) + 1];
                rng.fill(&mut data);
                store
                    .put(&key, &data, wire::block_checksum(&data))
                    .expect("put");
                spec.insert(key, data);
            }
            1 => {
                let got = store.get(&key).ok().map(|(d, _)| d);
                assert_eq!(got, spec.get(&key).cloned(), "get {key}");
            }
            _ => {
                let got = store.delete(&key).is_ok();
                let want = spec.remove(&key).is_some();
                assert_eq!(got, want, "delete {key}");
            }
        }
        // List always agrees.
        let keys: Vec<String> = spec.keys().cloned().collect();
        assert_eq!(store.list(), keys);
    }
}

#[test]
fn refused_writes_leave_the_previous_value_readable() {
    use veros::blockstore::store::StoreError;

    // The journal is never checkpointed, so a store whose disk is too
    // small for its writes must start refusing them. A refused put or
    // delete must leave the key's previous value readable, in memory
    // and after a crash and recovery.
    let no_space = StoreError::Fs("no space left".into());
    let block = |fill: u8| vec![fill; 1024];
    let mut store = BlockStore::format(22);
    for k in ["k0", "k1", "k2", "k3"] {
        store.put(k, &block(0), wire::block_checksum(&block(0))).expect("fits");
    }

    // Overwrite one key until the journal refuses a put.
    let mut acked = block(0);
    for fill in 1.. {
        assert!(fill < 32, "a 22-sector journal never filled");
        let v = block(fill);
        match store.put("k0", &v, wire::block_checksum(&v)) {
            Ok(()) => acked = v,
            Err(e) => {
                assert_eq!(e, no_space);
                break;
            }
        }
    }
    assert_eq!(store.get("k0").expect("refused put keeps k0").0, acked);

    // Delete keys until the journal refuses a delete.
    let mut deleted = Vec::new();
    let mut kept = Vec::new();
    for k in ["k1", "k2", "k3"] {
        match store.delete(k) {
            Ok(()) => deleted.push(k),
            Err(e) => {
                assert_eq!(e, no_space, "delete {k}");
                kept.push(k);
            }
        }
    }
    assert!(!kept.is_empty(), "the full journal refused no delete");

    // A full journal still refuses every write.
    let v = block(0xee);
    assert_eq!(store.put("k9", &v, wire::block_checksum(&v)), Err(no_space.clone()));
    assert_eq!(store.put("k0", &v, wire::block_checksum(&v)), Err(no_space));

    let check = |s: &BlockStore, when: &str| {
        let read = |k: &str| s.get(k).map(|(d, _)| d);
        assert_eq!(read("k0"), Ok(acked.clone()), "{when}: k0");
        for k in &kept {
            assert_eq!(read(k), Ok(block(0)), "{when}: refused delete of {k}");
        }
        for k in &deleted {
            assert_eq!(read(k), Err(StoreError::NotFound), "{when}: deleted {k}");
        }
        assert_eq!(read("k9"), Err(StoreError::NotFound), "{when}: refused k9");
    };
    check(&store, "live");
    let mut disk = store.into_disk();
    disk.crash_keep_prefix(0);
    check(&BlockStore::recover(disk), "recovered");
}

#[test]
fn acknowledged_cluster_writes_survive_crash_of_either_replica() {
    let mut cluster = Cluster::new(FaultPlan::hostile(), 31);
    for i in 0..5u32 {
        cluster
            .rpc(|cl, s, t| cl.put(s, t, &format!("blk{i}"), format!("data{i}").as_bytes()))
            .expect("put");
    }

    // Crash the PRIMARY's disk: recover and check every acknowledged
    // block.
    let store = std::mem::replace(&mut cluster.primary.store, BlockStore::format(64));
    let mut disk = store.into_disk();
    let mut rng = SpecRng::seeded(5);
    disk.crash_random(&mut rng);
    let recovered = BlockStore::recover(disk);
    for i in 0..5u32 {
        assert_eq!(
            recovered.get(&format!("blk{i}")).expect("acknowledged block").0,
            format!("data{i}").as_bytes()
        );
    }

    // The BACKUP independently has every acknowledged block (synchronous
    // replication), so losing the primary entirely is also fine.
    for i in 0..5u32 {
        assert_eq!(
            cluster.backup.store.get(&format!("blk{i}")).expect("replicated").0,
            format!("data{i}").as_bytes()
        );
    }
}

#[test]
fn overwrites_replicate_in_order() {
    let mut cluster = Cluster::new(FaultPlan::hostile(), 13);
    for round in 0..4u32 {
        let data = format!("version {round}");
        cluster
            .rpc(|cl, s, t| cl.put(s, t, "hot-key", data.as_bytes()))
            .expect("put");
    }
    match cluster.rpc(|cl, s, t| cl.get(s, t, "hot-key")).expect("get") {
        Response::GetOk { data, .. } => assert_eq!(data, b"version 3"),
        other => panic!("{other:?}"),
    }
    assert_eq!(cluster.backup.store.get("hot-key").unwrap().0, b"version 3");
}

#[test]
fn wire_protocol_rejects_corruption_everywhere() {
    let mut rng = SpecRng::seeded(3);
    let req = wire::Request::Put {
        id: 9,
        key: "key".into(),
        data: vec![1, 2, 3, 4, 5],
        checksum: wire::block_checksum(&[1, 2, 3, 4, 5]),
        replicate: true,
    };
    let bytes = req.encode();
    // Any single bit flip either still decodes (benign field change) or
    // is rejected — never a panic.
    for _ in 0..200 {
        let mut corrupt = bytes.clone();
        let i = rng.index(corrupt.len());
        corrupt[i] ^= 1 << rng.index(8);
        let _ = wire::Request::decode(&corrupt);
    }
}
