//! Persistence: a write-ahead operation journal on the simulated disk.
//!
//! The journal is *logical*: each filesystem mutation is serialized as a
//! record, records are grouped into transactions, and a transaction
//! becomes durable when its commit record reaches the disk's persistent
//! area (a flush barrier). Recovery scans the journal and replays
//! exactly the committed transactions into a fresh [`MemFs`] — the
//! crash-safety spec is therefore: *after any crash, the recovered state
//! equals the in-memory state at some committed transaction boundary at
//! or after the last acknowledged commit*.
//!
//! Record wire format (sector-packed, little-endian):
//! `MAGIC u32 | kind u8 | len u32 | payload | checksum u32` — the payload
//! is marshalled with the same discipline as the syscall layer, and the
//! checksum makes torn sectors detected rather than misparsed.

use veros_hw::{SimDisk, SECTOR_SIZE};

use crate::memfs::{FsError, MemFs};
use crate::path::Path;

/// A journaled filesystem mutation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FsOp {
    /// Create an empty file.
    Create(String),
    /// Create a directory.
    Mkdir(String),
    /// Remove a file.
    Unlink(String),
    /// Remove an empty directory.
    Rmdir(String),
    /// Write bytes at an offset.
    WriteAt(String, u64, Vec<u8>),
    /// Truncate to a length.
    Truncate(String, u64),
    /// Create the file if absent, then set its whole contents.
    Replace(String, Vec<u8>),
}

impl FsOp {
    /// Applies the operation to a filesystem.
    pub fn apply(&self, fs: &mut MemFs) -> Result<(), FsError> {
        match self {
            FsOp::Create(p) => fs.create(&parse(p)?).map(|_| ()),
            FsOp::Mkdir(p) => fs.mkdir(&parse(p)?).map(|_| ()),
            FsOp::Unlink(p) => fs.unlink(&parse(p)?),
            FsOp::Rmdir(p) => fs.rmdir(&parse(p)?),
            FsOp::WriteAt(p, off, data) => {
                let ino = fs.lookup(&parse(p)?)?;
                fs.write_at(ino, *off, data).map(|_| ())
            }
            FsOp::Truncate(p, len) => {
                let ino = fs.lookup(&parse(p)?)?;
                fs.truncate(ino, *len)
            }
            FsOp::Replace(p, data) => fs.replace(&parse(p)?, data).map(|_| ()),
        }
    }

    fn encode(&self) -> Vec<u8> {
        let mut e = wire::Encoder::new();
        match self {
            FsOp::Create(p) => {
                e.u8(1).str(p);
            }
            FsOp::Mkdir(p) => {
                e.u8(2).str(p);
            }
            FsOp::Unlink(p) => {
                e.u8(3).str(p);
            }
            FsOp::Rmdir(p) => {
                e.u8(4).str(p);
            }
            FsOp::WriteAt(p, off, data) => {
                e.u8(5).str(p).u64(*off).bytes(data);
            }
            FsOp::Truncate(p, len) => {
                e.u8(6).str(p).u64(*len);
            }
            FsOp::Replace(p, data) => {
                e.u8(7).str(p).bytes(data);
            }
        }
        e.finish()
    }

    fn decode(bytes: &[u8]) -> Option<FsOp> {
        let mut d = wire::Decoder::new(bytes);
        let op = match d.u8().ok()? {
            1 => FsOp::Create(d.str().ok()?),
            2 => FsOp::Mkdir(d.str().ok()?),
            3 => FsOp::Unlink(d.str().ok()?),
            4 => FsOp::Rmdir(d.str().ok()?),
            5 => FsOp::WriteAt(d.str().ok()?, d.u64().ok()?, d.bytes().ok()?),
            6 => FsOp::Truncate(d.str().ok()?, d.u64().ok()?),
            7 => FsOp::Replace(d.str().ok()?, d.bytes().ok()?),
            _ => return None,
        };
        d.finish().ok()?;
        Some(op)
    }
}

fn parse(p: &str) -> Result<Path, FsError> {
    Path::parse(p).map_err(|_| FsError::NotFound)
}

/// Minimal standalone wire helpers (the fs crate must not depend on the
/// kernel crate, so the tiny encoder is duplicated here with the same
/// format; the cross-implementation round-trip is itself a test).
mod wire {
    pub struct Encoder {
        buf: Vec<u8>,
    }

    impl Encoder {
        pub fn new() -> Self {
            Self { buf: Vec::new() }
        }
        pub fn finish(self) -> Vec<u8> {
            self.buf
        }
        pub fn u8(&mut self, v: u8) -> &mut Self {
            self.buf.push(v);
            self
        }
        pub fn u64(&mut self, v: u64) -> &mut Self {
            self.buf.extend_from_slice(&v.to_le_bytes());
            self
        }
        pub fn bytes(&mut self, v: &[u8]) -> &mut Self {
            self.buf.extend_from_slice(&(v.len() as u32).to_le_bytes());
            self.buf.extend_from_slice(v);
            self
        }
        pub fn str(&mut self, v: &str) -> &mut Self {
            self.bytes(v.as_bytes())
        }
    }

    pub struct Decoder<'a> {
        buf: &'a [u8],
        pos: usize,
    }

    impl<'a> Decoder<'a> {
        pub fn new(buf: &'a [u8]) -> Self {
            Self { buf, pos: 0 }
        }
        fn take(&mut self, n: usize) -> Result<&'a [u8], ()> {
            if self.buf.len() - self.pos < n {
                return Err(());
            }
            let s = &self.buf[self.pos..self.pos + n];
            self.pos += n;
            Ok(s)
        }
        pub fn u8(&mut self) -> Result<u8, ()> {
            Ok(self.take(1)?[0])
        }
        /// Reads exactly `N` bytes into an array; the element-wise copy
        /// cannot fail and a short buffer already errored in `take`.
        fn array<const N: usize>(&mut self) -> Result<[u8; N], ()> {
            let s = self.take(N)?;
            let mut out = [0u8; N];
            for (d, b) in out.iter_mut().zip(s) {
                *d = *b;
            }
            Ok(out)
        }
        pub fn u64(&mut self) -> Result<u64, ()> {
            Ok(u64::from_le_bytes(self.array()?))
        }
        pub fn bytes(&mut self) -> Result<Vec<u8>, ()> {
            let len = u32::from_le_bytes(self.array::<4>()?) as usize;
            if len > (1 << 24) {
                return Err(());
            }
            Ok(self.take(len)?.to_vec())
        }
        pub fn str(&mut self) -> Result<String, ()> {
            String::from_utf8(self.bytes()?).map_err(|_| ())
        }
        pub fn finish(self) -> Result<(), ()> {
            if self.pos == self.buf.len() {
                Ok(())
            } else {
                Err(())
            }
        }
    }
}

const MAGIC: u32 = 0x7665_4a4e; // "veJN"
const KIND_OP: u8 = 1;
const KIND_COMMIT: u8 = 2;

/// FNV-1a checksum (matches `veros_spec::rng::fnv1a` truncated to u32).
fn checksum(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in bytes {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// A journaled filesystem: a [`MemFs`] whose mutations reach a disk
/// journal before being acknowledged.
pub struct JournaledFs {
    /// The live in-memory state (reads are served from here).
    pub fs: MemFs,
    disk: SimDisk,
    /// Next journal byte offset on disk.
    write_pos: u64,
    /// Whether the current transaction holds an op record; an empty
    /// transaction commits without writing anything.
    open_txn: bool,
    journaling: bool,
    /// Whether `commit` issues the flush barrier. Always true in real
    /// use; switched off only by the `invariant::fs_journal` ablation to
    /// prove the barrier is load-bearing.
    commit_barriers: bool,
    /// Operations this instance replayed at recovery (0 for a freshly
    /// formatted filesystem) — the instance-exact companion to the
    /// process-global [`crate::metrics::JOURNAL_REPLAYED`] counter.
    pub replayed_ops: u64,
}

/// Journal area size in sectors (the journal is the whole disk in this
/// model; a production FS would wrap and checkpoint).
fn journal_sectors(disk: &SimDisk) -> u64 {
    disk.sectors()
}

impl JournaledFs {
    /// Creates a fresh journaled filesystem on `disk`.
    pub fn format(disk: SimDisk) -> Self {
        Self {
            fs: MemFs::new(),
            disk,
            write_pos: 0,
            open_txn: false,
            journaling: true,
            commit_barriers: true,
            replayed_ops: 0,
        }
    }

    /// Enables/disables the commit flush barrier. Disabling it breaks
    /// the durability contract on purpose: commit records linger in the
    /// volatile write cache, so a crash can lose *acknowledged*
    /// transactions. Exists solely as the fault-injected site for the
    /// `invariant::fs_journal::*` anti-vacuity regression test.
    pub fn set_commit_barriers(&mut self, on: bool) {
        self.commit_barriers = on;
    }

    /// Creates a filesystem with journaling disabled — the ablation
    /// configuration whose crash behaviour the negative tests
    /// demonstrate to be broken.
    pub fn format_unjournaled(disk: SimDisk) -> Self {
        let mut s = Self::format(disk);
        s.journaling = false;
        s
    }

    /// Applies an operation in the current transaction.
    ///
    /// Failure-atomic: on `Err` neither the in-memory state nor the
    /// journal has changed. The steps, in order:
    ///
    /// 1. encode the record;
    /// 2. check that the record *plus one commit sector* fit in the
    ///    journal, else return [`FsError::NoSpace`] — before the op is
    ///    validated, so a full journal refuses every op alike;
    /// 3. apply the op to the live [`MemFs`], whose mutators leave it
    ///    untouched when they fail (see [`crate::memfs`]), so a failed
    ///    op never reaches the journal and replay cannot diverge;
    /// 4. write the record's sectors. They sit in the disk's volatile
    ///    cache until `commit` flushes them, so the WAL rule — the
    ///    record is durable before the op is acknowledged — holds.
    ///
    /// Reserving the commit sector in step 2 is what lets [`commit`]
    /// never run out of space.
    ///
    /// [`commit`]: JournaledFs::commit
    pub fn apply(&mut self, op: FsOp) -> Result<(), FsError> {
        if !self.journaling {
            return op.apply(&mut self.fs);
        }
        let rec = frame(KIND_OP, &op.encode());
        if self.next_sector() + sectors_of(&rec) + 1 > journal_sectors(&self.disk) {
            return Err(FsError::NoSpace);
        }
        op.apply(&mut self.fs)?;
        self.write_record(&rec);
        self.open_txn = true;
        Ok(())
    }

    /// Commits the current transaction: a commit record plus a flush
    /// barrier. After `commit` returns, the transaction survives any
    /// crash. It never fails: the transaction's last `apply` reserved
    /// the commit record's sector, and an empty transaction writes
    /// nothing. The `Result` is kept for callers that propagate it.
    pub fn commit(&mut self) -> Result<(), FsError> {
        if self.journaling && self.open_txn {
            self.write_record(&frame(KIND_COMMIT, &[]));
            if self.commit_barriers {
                self.disk.flush();
            }
            crate::metrics::JOURNAL_COMMITS.inc();
        }
        self.open_txn = false;
        Ok(())
    }

    /// Consumes the filesystem, returning the disk (for crash tests).
    pub fn into_disk(self) -> SimDisk {
        self.disk
    }

    /// Recovers from `disk`: replays exactly the committed transactions.
    pub fn recover(disk: SimDisk) -> Self {
        let mut fs = MemFs::new();
        let mut pos = 0u64;
        let mut txn_ops: Vec<FsOp> = Vec::new();
        let mut committed_end = 0u64;
        let mut replayed = 0u64;
        'scan: while let Some((kind, payload, next)) = read_record(&disk, pos) {
            match kind {
                KIND_OP => {
                    if let Some(op) = FsOp::decode(&payload) {
                        txn_ops.push(op);
                    } else {
                        break 'scan; // Corrupt payload: end of valid journal.
                    }
                }
                KIND_COMMIT => {
                    replayed += txn_ops.len() as u64;
                    for op in txn_ops.drain(..) {
                        // Replay of a committed op cannot fail: it
                        // succeeded against this exact state before
                        // being journaled.
                        // lint: allow(panic-freedom) — see above; a
                        // replay failure means the journal invariant
                        // broke and recovery must not silently produce
                        // a wrong tree.
                        op.apply(&mut fs).expect("committed op replays");
                    }
                    committed_end = next;
                }
                _ => break 'scan,
            }
            pos = next;
        }
        if replayed > 0 {
            crate::metrics::JOURNAL_REPLAYED.add(replayed);
        }
        Self {
            fs,
            disk,
            // New records go after the last committed record; trailing
            // uncommitted records are discarded (overwritten).
            write_pos: committed_end,
            open_txn: false,
            journaling: true,
            commit_barriers: true,
            replayed_ops: replayed,
        }
    }

    /// The sector the next record starts at.
    fn next_sector(&self) -> u64 {
        self.write_pos / SECTOR_SIZE as u64
    }

    /// Writes a framed record at the journal's end. The caller has
    /// checked that it fits, so no sector write can fail.
    fn write_record(&mut self, rec: &[u8]) {
        let first = self.next_sector();
        for (s, chunk) in (first..).zip(rec.chunks(SECTOR_SIZE)) {
            let mut sector = [0u8; SECTOR_SIZE];
            sector[..chunk.len()].copy_from_slice(chunk);
            // lint: allow(panic-freedom) — `apply` checked the record
            // (and the commit sector after it) fits on the disk, so the
            // sector is in range; a miss is a broken reservation.
            self.disk.write(s, &sector).expect("record fits in the journal");
        }
        let sectors = sectors_of(rec);
        self.write_pos = (first + sectors) * SECTOR_SIZE as u64;
        crate::metrics::WAL_BYTES.add(sectors * SECTOR_SIZE as u64);
    }
}

/// Frames a record: `MAGIC | kind | len | payload | checksum`, padded to
/// sector boundaries when written.
fn frame(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut rec = Vec::with_capacity(payload.len() + 13);
    rec.extend_from_slice(&MAGIC.to_le_bytes());
    rec.push(kind);
    rec.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    rec.extend_from_slice(payload);
    rec.extend_from_slice(&checksum(payload).to_le_bytes());
    rec
}

/// Sectors a framed record occupies.
fn sectors_of(rec: &[u8]) -> u64 {
    rec.len().div_ceil(SECTOR_SIZE) as u64
}


/// Reads a little-endian `u32` at `off`; the caller guarantees the four
/// bytes exist (all call sites index into fixed-size sector buffers).
fn le_u32_at(buf: &[u8], off: usize) -> u32 {
    let mut w = [0u8; 4];
    for (d, b) in w.iter_mut().zip(buf.iter().skip(off)) {
        *d = *b;
    }
    u32::from_le_bytes(w)
}

fn read_record(disk: &SimDisk, pos: u64) -> Option<(u8, Vec<u8>, u64)> {
    let first = pos / SECTOR_SIZE as u64;
    if first >= disk.sectors() {
        return None;
    }
    let mut sector = [0u8; SECTOR_SIZE];
    disk.read(first, &mut sector).ok()?;
    if le_u32_at(&sector, 0) != MAGIC {
        return None;
    }
    let kind = sector[4];
    let len = le_u32_at(&sector, 5) as usize;
    if len > (1 << 24) {
        return None;
    }
    let total = 13 + len;
    let sectors = total.div_ceil(SECTOR_SIZE) as u64;
    if first + sectors > disk.sectors() {
        return None;
    }
    let mut raw = vec![0u8; (sectors as usize) * SECTOR_SIZE];
    raw[..SECTOR_SIZE].copy_from_slice(&sector);
    for s in 1..sectors {
        let mut buf = [0u8; SECTOR_SIZE];
        disk.read(first + s, &mut buf).ok()?;
        raw[(s as usize) * SECTOR_SIZE..(s as usize + 1) * SECTOR_SIZE].copy_from_slice(&buf);
    }
    let payload = raw[9..9 + len].to_vec();
    let want = le_u32_at(&raw, 9 + len);
    if checksum(&payload) != want {
        return None; // Torn record.
    }
    Some((kind, payload, (first + sectors) * SECTOR_SIZE as u64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use veros_spec::rng::SpecRng;

    fn ops_round_trip(op: FsOp) {
        assert_eq!(FsOp::decode(&op.encode()), Some(op));
    }

    #[test]
    fn all_op_kinds_encode_round_trip() {
        ops_round_trip(FsOp::Create("/a".into()));
        ops_round_trip(FsOp::Mkdir("/d".into()));
        ops_round_trip(FsOp::Unlink("/a".into()));
        ops_round_trip(FsOp::Rmdir("/d".into()));
        ops_round_trip(FsOp::WriteAt("/a".into(), 42, vec![1, 2, 3]));
        ops_round_trip(FsOp::Truncate("/a".into(), 7));
        ops_round_trip(FsOp::Replace("/a".into(), vec![4, 5]));
        assert_eq!(FsOp::decode(&[9, 0]), None);
    }

    #[test]
    fn committed_data_survives_crash() {
        let mut jfs = JournaledFs::format(SimDisk::new(256));
        jfs.apply(FsOp::Create("/f".into())).unwrap();
        jfs.apply(FsOp::WriteAt("/f".into(), 0, b"durable".to_vec())).unwrap();
        jfs.commit().unwrap();
        let mut disk = jfs.into_disk();
        disk.crash_keep_prefix(0); // Lose everything not flushed.
        let recovered = JournaledFs::recover(disk);
        assert_eq!(
            recovered.fs.read_file(&Path::parse("/f").unwrap()).unwrap(),
            b"durable"
        );
    }

    #[test]
    fn uncommitted_transaction_vanishes_atomically() {
        let mut jfs = JournaledFs::format(SimDisk::new(256));
        jfs.apply(FsOp::Create("/a".into())).unwrap();
        jfs.commit().unwrap();
        // Second txn: applied in memory, never committed.
        jfs.apply(FsOp::Create("/b".into())).unwrap();
        jfs.apply(FsOp::WriteAt("/a".into(), 0, b"xx".to_vec())).unwrap();
        let mut disk = jfs.into_disk();
        disk.crash_keep_prefix(usize::MAX); // Even if records hit disk...
        let recovered = JournaledFs::recover(disk);
        // ...no commit record, so the whole txn is absent.
        assert!(recovered.fs.lookup(&Path::parse("/a").unwrap()).is_ok());
        assert!(recovered.fs.lookup(&Path::parse("/b").unwrap()).is_err());
        assert_eq!(recovered.fs.read_file(&Path::parse("/a").unwrap()).unwrap(), b"");
    }

    #[test]
    fn apply_reserves_the_commit_sector() {
        // Four one-sector records fit: two ops, each with its commit.
        let mut jfs = JournaledFs::format(SimDisk::new(4));
        jfs.apply(FsOp::Create("/a".into())).unwrap();
        jfs.commit().unwrap();
        jfs.apply(FsOp::Create("/b".into())).unwrap();
        // The last sector is the open transaction's commit record: any
        // further op is refused before it is validated, and changes
        // nothing.
        let before = jfs.fs.clone();
        assert_eq!(jfs.apply(FsOp::Create("/c".into())), Err(FsError::NoSpace));
        assert_eq!(jfs.apply(FsOp::Unlink("/nope".into())), Err(FsError::NoSpace));
        assert_eq!(jfs.fs, before);
        jfs.commit().expect("the reserved sector takes the commit");
        assert_eq!(jfs.apply(FsOp::Create("/c".into())), Err(FsError::NoSpace));
        jfs.commit().expect("an empty transaction writes nothing");
        let recovered = JournaledFs::recover(jfs.into_disk());
        assert_eq!(recovered.fs, before);
    }

    #[test]
    fn unjournaled_fs_loses_committed_data() {
        // The ablation: without the journal, "commit" is a no-op and a
        // crash erases acknowledged data — demonstrating the journal is
        // load-bearing, not decorative.
        let mut ufs = JournaledFs::format_unjournaled(SimDisk::new(256));
        ufs.apply(FsOp::Create("/f".into())).unwrap();
        ufs.commit().unwrap();
        let mut disk = ufs.into_disk();
        disk.crash_keep_prefix(0);
        let recovered = JournaledFs::recover(disk);
        assert!(
            recovered.fs.lookup(&Path::parse("/f").unwrap()).is_err(),
            "without a journal the committed file is gone"
        );
    }

    #[test]
    fn recovery_is_idempotent() {
        let mut jfs = JournaledFs::format(SimDisk::new(256));
        jfs.apply(FsOp::Mkdir("/d".into())).unwrap();
        jfs.apply(FsOp::Create("/d/f".into())).unwrap();
        jfs.commit().unwrap();
        let disk = jfs.into_disk();
        let r1 = JournaledFs::recover(disk);
        let fs1 = r1.fs.clone();
        let r2 = JournaledFs::recover(r1.into_disk());
        assert_eq!(fs1, r2.fs);
    }

    #[test]
    fn writes_after_recovery_continue_the_journal() {
        let mut jfs = JournaledFs::format(SimDisk::new(256));
        jfs.apply(FsOp::Create("/a".into())).unwrap();
        jfs.commit().unwrap();
        let mut jfs = JournaledFs::recover(jfs.into_disk());
        jfs.apply(FsOp::Create("/b".into())).unwrap();
        jfs.commit().unwrap();
        let recovered = JournaledFs::recover(jfs.into_disk());
        assert!(recovered.fs.lookup(&Path::parse("/a").unwrap()).is_ok());
        assert!(recovered.fs.lookup(&Path::parse("/b").unwrap()).is_ok());
    }

    #[test]
    fn random_crash_recovers_to_a_committed_boundary() {
        // The crash-safety spec, checked over random histories and
        // random crash points: the recovered state must equal the
        // in-memory state at some transaction boundary ≥ the last
        // acknowledged commit.
        for seed in 0..10u64 {
            let mut rng = SpecRng::seeded(seed);
            let mut jfs = JournaledFs::format(SimDisk::new(1024));
            // States at committed boundaries.
            let mut boundaries = vec![MemFs::new()];
            let mut last_acked = 0usize;
            for i in 0..30 {
                let f = format!("/f{}", rng.below(5));
                let op = match rng.below(3) {
                    0 => FsOp::Create(f),
                    1 => FsOp::WriteAt(f, rng.below(64), vec![rng.below(256) as u8; 8]),
                    _ => FsOp::Unlink(f),
                };
                let _ = jfs.apply(op); // Failures fine (e.g. Create dup).
                if i % 5 == 4 {
                    jfs.commit().unwrap();
                    boundaries.push(jfs.fs.clone());
                    last_acked = boundaries.len() - 1;
                }
            }
            // Uncommitted tail beyond the last ack.
            let _ = jfs.apply(FsOp::Create("/tail".into()));
            let mut disk = jfs.into_disk();
            disk.crash_random(&mut rng);
            let recovered = JournaledFs::recover(disk);
            assert!(
                boundaries[last_acked..].contains(&recovered.fs)
                    || boundaries.contains(&recovered.fs),
                "seed {seed}: recovered state is not a committed boundary"
            );
        }
    }
}
