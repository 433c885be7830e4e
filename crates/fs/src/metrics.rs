//! Telemetry instruments for the journaled filesystem.
//!
//! All instruments are process-global `veros-telemetry` statics that
//! compile to no-ops with the `telemetry` feature off. The journal
//! paths are µs-scale (sector writes, flush barriers), so the counters
//! here are unconditional — no sampling needed. [`export`] registers
//! everything under the `fs.` prefix; see `OBSERVABILITY.md`.

use veros_telemetry::{Counter, Registry};

/// Transactions committed (commit record + flush barrier reached disk);
/// an empty transaction writes no record and is not counted.
pub static JOURNAL_COMMITS: Counter = Counter::new();

/// Journal operations replayed by recovery, summed over every
/// [`crate::JournaledFs::recover`] in the process. For an instance-exact
/// count use [`crate::JournaledFs::replayed_ops`].
pub static JOURNAL_REPLAYED: Counter = Counter::new();

/// Bytes appended to the write-ahead journal (sector-padded, so this is
/// the on-disk footprint, not the logical record size).
pub static WAL_BYTES: Counter = Counter::new();

/// Registers every filesystem instrument with `reg` under the `fs.`
/// prefix.
pub fn export(reg: &mut Registry) {
    reg.counter("fs.journal.commits", "transactions", &JOURNAL_COMMITS);
    reg.counter("fs.journal.replayed", "ops", &JOURNAL_REPLAYED);
    reg.counter("fs.journal.wal_bytes", "bytes", &WAL_BYTES);
}
