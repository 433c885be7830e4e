//! Randomized tests of the filesystem's core invariants, driven by the
//! in-tree deterministic [`SpecRng`] (formerly proptest-based).

use veros_spec::rng::SpecRng;
use veros_fs::journal::FsOp;
use veros_fs::spec::view_flat;
use veros_fs::{FsError, JournaledFs, MemFs, Path};
use veros_hw::SimDisk;

fn arbitrary_name(rng: &mut SpecRng) -> String {
    let letters = ['a', 'b', 'c', 'd'];
    (0..1 + rng.index(3)).map(|_| *rng.choose(&letters)).collect()
}

fn arbitrary_path(rng: &mut SpecRng) -> String {
    let a = arbitrary_name(rng);
    if rng.chance(1, 2) {
        let b = arbitrary_name(rng);
        format!("/{a}/{b}")
    } else {
        format!("/{a}")
    }
}

fn arbitrary_op(rng: &mut SpecRng) -> FsOp {
    let p = arbitrary_path(rng);
    match rng.below(7) {
        0 => FsOp::Create(p),
        1 => FsOp::Mkdir(p),
        2 => FsOp::Unlink(p),
        3 => FsOp::Rmdir(p),
        4 => {
            let mut data = vec![0u8; rng.index(32)];
            rng.fill(&mut data);
            FsOp::WriteAt(p, rng.below(256), data)
        }
        5 => FsOp::Truncate(p, rng.below(512)),
        _ => {
            let mut data = vec![0u8; rng.index(1024)];
            rng.fill(&mut data);
            FsOp::Replace(p, data)
        }
    }
}

/// The flat view is always consistent with the inode tree after any
/// operation sequence, and replaying the successful ops into a fresh
/// filesystem reproduces the same state (determinism — the property
/// journal recovery rests on).
#[test]
fn view_and_replay_consistent() {
    let mut rng = SpecRng::for_obligation("fs::tests::view_and_replay_consistent");
    for _ in 0..64 {
        let mut fs = MemFs::new();
        let mut accepted = Vec::new();
        for _ in 0..rng.index(40) {
            let op = arbitrary_op(&mut rng);
            if op.apply(&mut fs).is_ok() {
                accepted.push(op);
            }
        }
        // Replay determinism.
        let mut replay = MemFs::new();
        for op in &accepted {
            op.apply(&mut replay).expect("accepted ops replay");
        }
        assert_eq!(&fs, &replay);
        // View sanity: every file in the view is readable with the same
        // bytes.
        let flat = view_flat(&fs);
        for (path, bytes) in &flat.files {
            let p = Path::parse(path).expect("view paths are valid");
            assert_eq!(&fs.read_file(&p).expect("file exists"), bytes);
        }
    }
}

/// Journal record encoding round-trips every operation.
#[test]
fn journal_ops_encode_round_trip() {
    let mut rng = SpecRng::for_obligation("fs::tests::journal_ops_encode_round_trip");
    for _ in 0..64 {
        let op = arbitrary_op(&mut rng);
        let mut jfs = veros_fs::JournaledFs::format(veros_hw::SimDisk::new(1024));
        // Apply may fail (e.g. Unlink of nothing); both outcomes must be
        // stable across a recovery cycle.
        let _ = jfs.apply(op);
        jfs.commit().expect("commit");
        let state = jfs.fs.clone();
        let recovered = veros_fs::JournaledFs::recover(jfs.into_disk());
        assert_eq!(recovered.fs, state);
    }
}

/// The journal's failure atomicity, driven into exhaustion: random
/// transactions on a small disk until the journal refuses every op. A
/// refused op leaves the live state exactly as it was; every commit is
/// exactly what recovery rebuilds after a crash that loses all unflushed
/// writes; an uncommitted transaction vanishes whole.
#[test]
fn journal_refusals_change_nothing_and_commits_recover() {
    let mut rng =
        SpecRng::for_obligation("fs::tests::journal_refusals_change_nothing_and_commits_recover");
    for _ in 0..16 {
        let mut jfs = JournaledFs::format(SimDisk::new(8 + rng.below(40)));
        let mut committed = jfs.fs.clone();
        let mut no_space = 0;
        for _ in 0..256 {
            for _ in 0..1 + rng.index(3) {
                let before = jfs.fs.clone();
                if let Err(e) = jfs.apply(arbitrary_op(&mut rng)) {
                    assert_eq!(jfs.fs, before, "a refused op ({e}) changed the state");
                    no_space += usize::from(e == FsError::NoSpace);
                }
            }
            if rng.chance(3, 4) {
                jfs.commit().expect("commit never runs out of space");
                committed = jfs.fs.clone();
            }
            let mut disk = jfs.into_disk();
            disk.crash_keep_prefix(0);
            jfs = JournaledFs::recover(disk);
            assert_eq!(jfs.fs, committed, "recovery is not the last commit");
        }
        assert!(no_space > 0, "the journal never filled");
    }
}

/// Path join/split are exact inverses, and re-parsing the rendered path
/// is the identity.
#[test]
fn path_join_split_inverse() {
    let mut rng = SpecRng::for_obligation("fs::tests::path_join_split_inverse");
    let letters: Vec<char> = ('a'..='z').collect();
    for _ in 0..128 {
        let comps: Vec<String> = (0..1 + rng.index(5))
            .map(|_| (0..1 + rng.index(8)).map(|_| *rng.choose(&letters)).collect())
            .collect();
        let mut p = Path::root();
        for c in &comps {
            p = p.join(c);
        }
        // split_last unwinds join exactly.
        let mut back = Vec::new();
        let mut cur = p.clone();
        while let Some((parent, last)) = cur.clone().split_last().map(|(a, b)| (a, b.to_string())) {
            back.push(last);
            cur = parent;
        }
        back.reverse();
        assert_eq!(back, comps);
        // And re-parsing the string representation is the identity.
        assert_eq!(Path::parse(p.as_str()).expect("rendered paths parse"), p);
    }
}

/// read_at/write_at behave like operations on a byte vector.
#[test]
fn file_io_matches_vec_model() {
    let mut rng = SpecRng::for_obligation("fs::tests::file_io_matches_vec_model");
    for _ in 0..64 {
        let mut fs = MemFs::new();
        let ino = fs.create(&Path::parse("/f").expect("valid")).expect("create");
        let mut model: Vec<u8> = Vec::new();
        for _ in 0..1 + rng.index(9) {
            let off = rng.below(512);
            let mut data = vec![0u8; 1 + rng.index(63)];
            rng.fill(&mut data);
            fs.write_at(ino, off, &data).expect("write");
            let end = off as usize + data.len();
            if model.len() < end {
                model.resize(end, 0);
            }
            model[off as usize..end].copy_from_slice(&data);
        }
        assert_eq!(fs.read_file(&Path::parse("/f").expect("valid")).expect("read"), model);
    }
}
