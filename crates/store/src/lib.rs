//! # rtx-store
//!
//! The durable catalog — the substrate standing in for the external database
//! the paper assumes behind the `db` relations of a transducer schema ("the
//! db relations represent a database used by the system, possibly very large
//! and external", §2.2; the prototype of \[FAY97\] used Postgres).
//!
//! [`DurableStore`] holds the catalog once, as the version-stamped
//! [`ResidentDb`](rtx_datalog::ResidentDb) every session reads, and makes it
//! survive crashes:
//!
//! * named tables with a fixed arity and optional attribute names;
//! * a write-ahead log and snapshots over a pluggable storage backend
//!   ([`Vfs`]), with deterministic fault injection ([`FaultVfs`]) for
//!   testing recovery.
//!
//! # Durability lifecycle
//!
//! The durable layer persists the catalog as **one snapshot plus a WAL
//! tail**, moving through a fixed lifecycle:
//!
//! 1. **Append** — every mutation is encoded as a length-prefixed,
//!    CRC32-checksummed record and appended to the on-disk WAL *before* it is
//!    applied to the resident database (write-ahead ordering).  Interned
//!    symbols cross this boundary by text, so a recovering process (with an
//!    empty [`SymbolTable`](rtx_relational::SymbolTable)) re-interns them.
//!    The apply bumps only the touched relation's version stamp, so open
//!    sessions reseed only what changed; a duplicate insert or an absent
//!    retraction is neither logged nor applied.
//! 2. **Fsync policy** — [`FsyncPolicy`] decides when appended records become
//!    durable: `Always` (fsync per commit), `EveryN` (group commit), or
//!    `Never` (leave it to the OS).  The `RTX_FSYNC` environment variable
//!    overrides the policy at [`DurableStore::open`] time.
//! 3. **Snapshot** — [`DurableStore::checkpoint`] writes the whole catalog to
//!    a temp file, fsyncs it, and atomically renames it into place.  The
//!    snapshot records the absolute operation count it captures.
//! 4. **Truncate** — only after the snapshot is durable is the WAL reset (new
//!    epoch, base offset = snapshot's operation count).
//! 5. **Recover** — [`DurableStore::open`] loads the latest valid snapshot
//!    and replays the WAL tail.  A torn final record (the classic
//!    half-written append at the crash point) is detected by length/CRC
//!    mismatch and dropped with a note in the [`RecoveryReport`]; corruption
//!    *before* the tail is a hard [`StoreError::Corrupt`] with a byte offset.
//!
//! Recovery is exercised by a deterministic fault-injection harness
//! ([`FaultVfs`]) that crashes the storage backend at the k-th I/O operation;
//! the workspace-level kill-and-recover sweep asserts that for *every* crash
//! point the recovered state equals the committed prefix of the workload.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod durable;
mod vfs;

pub use durable::{DurableStore, FsyncPolicy, RecoveryReport, TornTail};
pub use vfs::{Fault, FaultVfs, MemVfs, StdVfs, Vfs, VfsFile};

/// Errors produced by the store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// A table name was used that does not exist.
    UnknownTable(String),
    /// A table was created twice.
    DuplicateTable(String),
    /// A row of the wrong arity was inserted or retracted.
    ArityMismatch {
        /// The table involved.
        table: String,
        /// Declared arity.
        expected: usize,
        /// Offending row arity.
        actual: usize,
    },
    /// An error from the relational layer.
    Relational(rtx_relational::RelationalError),
    /// An I/O error from the storage backend.  The rendered
    /// [`std::io::Error`] (operation, path, OS detail) is captured as text so
    /// the error type stays `Clone + PartialEq + Eq` like the rest of the
    /// enum.
    Io {
        /// What failed, where, and why (e.g. `"fsync wal: No space left"`).
        context: String,
    },
    /// Persisted data failed validation during recovery — a checksum or
    /// structural mismatch *before* the final WAL record, or an unreadable
    /// snapshot.  (A torn **final** record is not corruption: it is dropped
    /// gracefully and reported via
    /// [`RecoveryReport::torn_tail`].)
    Corrupt {
        /// Byte offset into the corrupt file where validation failed.
        offset: u64,
        /// What the validator expected vs. what it found.
        reason: String,
    },
    /// A malformed configuration override (e.g. an unparseable `RTX_FSYNC`
    /// value).  Never produced for an *unset* variable — only a set value
    /// that fails the strict parse, so a typo'd fsync policy can't silently
    /// weaken (or tighten) durability.
    Config {
        /// Which override failed to parse, the value, and the accepted forms.
        detail: String,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::UnknownTable(name) => write!(f, "unknown table `{name}`"),
            StoreError::DuplicateTable(name) => write!(f, "table `{name}` already exists"),
            StoreError::ArityMismatch {
                table,
                expected,
                actual,
            } => write!(
                f,
                "arity mismatch for table `{table}`: expected {expected}, got {actual}"
            ),
            StoreError::Relational(e) => write!(f, "relational error: {e}"),
            StoreError::Io { context } => write!(f, "i/o error: {context}"),
            StoreError::Corrupt { offset, reason } => {
                write!(f, "corrupt store data at byte {offset}: {reason}")
            }
            StoreError::Config { detail } => write!(f, "configuration error: {detail}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<rtx_relational::RelationalError> for StoreError {
    fn from(e: rtx_relational::RelationalError) -> Self {
        StoreError::Relational(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtx_relational::{Tuple, Value};
    use std::sync::Arc;

    #[test]
    fn store_end_to_end() {
        let vfs = MemVfs::new();
        let (mut store, _) =
            DurableStore::open(Arc::new(vfs.clone()), FsyncPolicy::Always).unwrap();
        store
            .create_table("price", 2, Some(vec!["product".into(), "amount".into()]))
            .unwrap();
        store
            .insert(
                "price",
                Tuple::from_iter(vec![Value::str("time"), Value::int(855)]),
            )
            .unwrap();
        store
            .insert(
                "price",
                Tuple::from_iter(vec![Value::str("newsweek"), Value::int(845)]),
            )
            .unwrap();
        let instance = store.database().snapshot();
        assert_eq!(instance.relation("price").unwrap().len(), 2);
        assert!(instance.holds(
            "price",
            &Tuple::from_iter(vec![Value::str("time"), Value::int(855)])
        ));
        drop(store);

        let (recovered, _) = DurableStore::open(Arc::new(vfs), FsyncPolicy::Always).unwrap();
        assert_eq!(recovered.database().snapshot(), instance);
        assert_eq!(
            recovered.attributes("price"),
            Some(&["product".to_string(), "amount".to_string()][..])
        );
    }

    #[test]
    fn error_display() {
        assert!(StoreError::UnknownTable("x".into())
            .to_string()
            .contains('x'));
        assert!(StoreError::DuplicateTable("x".into())
            .to_string()
            .contains("exists"));
    }
}
