//! Crash-safe persistence: an on-disk WAL plus snapshots, with recovery.
//!
//! [`DurableStore`] owns the catalog as a shared [`ResidentDb`] and persists
//! every mutation through a [`Vfs`] **before** it is applied in memory, so a
//! process can recover the exact committed state after a crash.  The on-disk
//! layout is one snapshot file plus a write-ahead log tail (see the [crate
//! docs](crate) for the full lifecycle):
//!
//! * **WAL** (`wal`) — a 24-byte header (magic, epoch, base offset) followed
//!   by records, each `len: u32 | crc32: u32 | payload`, where the payload is
//!   one operation (create table, insert row or retract row) encoded with the
//!   [`rtx_relational::codec`] (symbols by text — the symbol-resolution
//!   boundary).  The record with ordinal `i` holds the operation with
//!   *absolute* index `base + i`; [`DurableStore::op_count`] is the absolute
//!   index the next record will take.
//! * **Snapshot** (`snapshot`) — magic, CRC over the body, epoch, the
//!   absolute operation count it captures, then every table with its
//!   attribute names and rows.  Snapshots are written to a temp file and
//!   atomically renamed ([`Vfs::write_atomic`]), so a crash mid-checkpoint
//!   leaves the old snapshot intact.
//!
//! Recovery ([`DurableStore::open`]) loads the snapshot, replays the WAL
//! records whose absolute index the snapshot has not already captured, and
//! classifies damage precisely: a **torn tail** (the final record's bytes run
//! out at end-of-file — the signature of a crash mid-append) is dropped and
//! reported via [`RecoveryReport::torn_tail`]; any mismatch *before* the
//! tail — a failed checksum on a complete record, an undecodable payload, a
//! base offset that skips operations — is a hard [`StoreError::Corrupt`]
//! with the byte offset where validation failed.

use crate::vfs::{Vfs, VfsFile};
use crate::StoreError;
use rtx_datalog::ResidentDb;
use rtx_relational::codec::{self, Reader};
use rtx_relational::{Instance, RelationName, Schema, Tuple};
use std::collections::BTreeMap;
use std::sync::Arc;

const WAL_FILE: &str = "wal";
const SNAPSHOT_FILE: &str = "snapshot";
const WAL_MAGIC: &[u8; 8] = b"RTXWAL1\n";
const SNAP_MAGIC: &[u8; 8] = b"RTXSNAP1";
const WAL_HEADER_LEN: usize = 8 + 8 + 8;

const OP_CREATE: u8 = 0;
const OP_INSERT: u8 = 1;
const OP_RETRACT: u8 = 2;

/// Attribute names of the tables created with them, by table name.  A table
/// created without attribute names has no entry.
type Attributes = BTreeMap<String, Vec<String>>;

// ---------------------------------------------------------------------------
// CRC32 (IEEE), table computed at compile time — no external dependency.
// ---------------------------------------------------------------------------

const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC32 (IEEE 802.3 polynomial) of `bytes`.
fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Fsync policy
// ---------------------------------------------------------------------------

/// When WAL appends are forced to stable storage.
///
/// The `RTX_FSYNC` environment variable overrides the policy passed to
/// [`DurableStore::open`] (mirroring the engine's `RTX_THREADS` override):
/// `always`, `never`, or `every:N` for group commit of `N` appends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Fsync after every append: an acknowledged write is durable.
    Always,
    /// Group commit: fsync after every `N` appends (and at checkpoints).
    /// A crash can lose up to `N - 1` acknowledged operations.
    EveryN(usize),
    /// Never fsync from the store; leave flushing to the OS.  Fastest, and
    /// still crash-*consistent* (recovery sees a clean prefix), but recent
    /// acknowledged writes may be lost.
    Never,
}

impl FsyncPolicy {
    /// The accepted forms of `RTX_FSYNC`, for the strict-parse error
    /// message.
    pub const ENV_EXPECTED: &'static str = "`always`, `never`, or `every:N` with N >= 1";

    /// Parses one (pre-trimmed, non-empty) `RTX_FSYNC` token: `"always"`,
    /// `"never"`, or `"every:N"` with `N ≥ 1` (ASCII case-insensitive on the
    /// keyword; the count rejects signs, spaces and 0).
    fn parse_token(value: &str) -> Option<FsyncPolicy> {
        match value.to_ascii_lowercase().as_str() {
            "always" => Some(FsyncPolicy::Always),
            "never" => Some(FsyncPolicy::Never),
            v => {
                let n = v.strip_prefix("every:")?;
                if n.is_empty() || !n.bytes().all(|b| b.is_ascii_digit()) {
                    return None;
                }
                match n.parse::<usize>() {
                    Ok(n) if n >= 1 => Some(FsyncPolicy::EveryN(n)),
                    _ => None,
                }
            }
        }
    }

    /// Strictly parses an `RTX_FSYNC` override through the shared
    /// [`env`](rtx_relational::env) contract: `Ok(None)` ("no override")
    /// when the value is absent or blank, a hard
    /// [`EnvParseError`](rtx_relational::env::EnvParseError) when it is set
    /// but malformed.  [`DurableStore::open`] turns that error into
    /// [`StoreError::Config`] — a typo'd fsync policy must refuse to open
    /// the store, not silently fall back to the programmatic default.
    pub fn from_env(
        value: Option<&str>,
    ) -> Result<Option<FsyncPolicy>, rtx_relational::env::EnvParseError> {
        rtx_relational::env::parse_setting(
            "RTX_FSYNC",
            value,
            Self::ENV_EXPECTED,
            Self::parse_token,
        )
    }
}

// ---------------------------------------------------------------------------
// Operation codec
// ---------------------------------------------------------------------------

/// One WAL record: a catalog mutation that changed state.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Operation {
    CreateTable {
        name: String,
        arity: usize,
        attributes: Option<Vec<String>>,
    },
    Insert {
        table: String,
        row: Tuple,
    },
    Retract {
        table: String,
        row: Tuple,
    },
}

fn put_attributes(out: &mut Vec<u8>, attributes: Option<&[String]>) {
    match attributes {
        None => out.push(0),
        Some(attrs) => {
            out.push(1);
            codec::put_u32(out, attrs.len() as u32);
            for a in attrs {
                codec::put_str(out, a);
            }
        }
    }
}

fn get_attributes(r: &mut Reader<'_>) -> Result<Option<Vec<String>>, codec::DecodeError> {
    match r.get_u8("attributes flag")? {
        0 => Ok(None),
        1 => {
            let count = r.get_u32("attribute count")? as usize;
            if count > r.remaining() {
                return Err(codec::DecodeError {
                    offset: r.position(),
                    reason: format!(
                        "attribute count {count} exceeds the {} remaining bytes",
                        r.remaining()
                    ),
                });
            }
            let mut attrs = Vec::with_capacity(count);
            for _ in 0..count {
                attrs.push(r.get_str("attribute name")?.to_string());
            }
            Ok(Some(attrs))
        }
        flag => Err(codec::DecodeError {
            offset: r.position() - 1,
            reason: format!("invalid attributes flag {flag}"),
        }),
    }
}

fn encode_operation(op: &Operation) -> Vec<u8> {
    let mut out = Vec::new();
    match op {
        Operation::CreateTable {
            name,
            arity,
            attributes,
        } => {
            out.push(OP_CREATE);
            codec::put_str(&mut out, name);
            codec::put_u32(&mut out, *arity as u32);
            put_attributes(&mut out, attributes.as_deref());
        }
        Operation::Insert { table, row } => {
            out.push(OP_INSERT);
            codec::put_str(&mut out, table);
            codec::put_tuple(&mut out, row);
        }
        Operation::Retract { table, row } => {
            out.push(OP_RETRACT);
            codec::put_str(&mut out, table);
            codec::put_tuple(&mut out, row);
        }
    }
    out
}

fn decode_operation(r: &mut Reader<'_>) -> Result<Operation, codec::DecodeError> {
    let at = r.position();
    match r.get_u8("operation tag")? {
        OP_CREATE => Ok(Operation::CreateTable {
            name: r.get_str("table name")?.to_string(),
            arity: r.get_u32("table arity")? as usize,
            attributes: get_attributes(r)?,
        }),
        OP_INSERT => Ok(Operation::Insert {
            table: r.get_str("table name")?.to_string(),
            row: r.get_tuple()?,
        }),
        OP_RETRACT => Ok(Operation::Retract {
            table: r.get_str("table name")?.to_string(),
            row: r.get_tuple()?,
        }),
        tag => Err(codec::DecodeError {
            offset: at,
            reason: format!("unknown operation tag {tag}"),
        }),
    }
}

// ---------------------------------------------------------------------------
// Recovery report
// ---------------------------------------------------------------------------

/// A dropped torn tail: where the final, incomplete WAL record started and
/// why it was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TornTail {
    /// Byte offset into the WAL file where the torn record begins.
    pub offset: u64,
    /// Why the record was rejected (truncated header, short payload…).
    pub reason: String,
}

/// What [`DurableStore::open`] found and did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Absolute operation count captured by the loaded snapshot (0 when
    /// booting fresh or before the first checkpoint).
    pub snapshot_ops: usize,
    /// WAL tail operations replayed on top of the snapshot.
    pub replayed: usize,
    /// The torn final record, if the WAL ended mid-append.  The torn bytes
    /// were discarded (and the WAL file trimmed back to its valid prefix);
    /// the operation they encoded was never acknowledged durable under
    /// [`FsyncPolicy::Always`].
    pub torn_tail: Option<TornTail>,
}

// ---------------------------------------------------------------------------
// DurableStore
// ---------------------------------------------------------------------------

/// The durable catalog: a [`ResidentDb`] whose mutations are write-ahead
/// logged through a [`Vfs`], with checkpointing and crash recovery.  See the
/// [crate docs](crate) for the durability lifecycle.
///
/// The store must be the only writer of its database: a row written to the
/// [`ResidentDb`] behind its back is neither logged nor checkpointed
/// consistently.
pub struct DurableStore {
    vfs: Arc<dyn Vfs>,
    db: Arc<ResidentDb>,
    attributes: Attributes,
    /// Operations ever logged: the absolute index of the next WAL record.
    op_count: usize,
    wal: Box<dyn VfsFile>,
    epoch: u64,
    policy: FsyncPolicy,
    /// Appends not yet covered by an fsync (group commit accounting).
    unsynced: usize,
}

impl std::fmt::Debug for DurableStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableStore")
            .field("epoch", &self.epoch)
            .field("policy", &self.policy)
            .field("op_count", &self.op_count)
            .finish_non_exhaustive()
    }
}

impl DurableStore {
    /// Opens (or creates) a durable store on `vfs`, recovering any persisted
    /// state: the latest snapshot is loaded, the WAL tail replayed, and a
    /// torn final record dropped with a note in the [`RecoveryReport`].
    ///
    /// The fsync `policy` may be overridden by the `RTX_FSYNC` environment
    /// variable ([`FsyncPolicy::from_env`]).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if the backend fails; [`StoreError::Corrupt`] if
    /// persisted data fails validation anywhere before the WAL tail;
    /// [`StoreError::Config`] if `RTX_FSYNC` is set to a malformed value —
    /// a typo'd policy refuses to open rather than silently running under
    /// the wrong durability guarantee.
    pub fn open(
        vfs: Arc<dyn Vfs>,
        policy: FsyncPolicy,
    ) -> Result<(Self, RecoveryReport), StoreError> {
        let raw = std::env::var("RTX_FSYNC").ok();
        let policy = FsyncPolicy::from_env(raw.as_deref())
            .map_err(|e| StoreError::Config {
                detail: e.to_string(),
            })?
            .unwrap_or(policy);
        let mut report = RecoveryReport::default();

        // 1. Snapshot: the base state plus the absolute op count it captures.
        let (mut instance, mut attributes, snapshot_ops, snapshot_epoch) =
            match vfs.read(SNAPSHOT_FILE)? {
                None => (Instance::empty(&Schema::default()), Attributes::new(), 0, 0),
                Some(bytes) => decode_snapshot(&bytes)?,
            };
        report.snapshot_ops = snapshot_ops;

        // 2. WAL: header + tail records.
        let mut epoch = snapshot_epoch;
        match vfs.read(WAL_FILE)? {
            None => {
                // First boot (or the WAL vanished after a clean checkpoint):
                // start a fresh log continuing the snapshot's numbering.
                vfs.write_atomic(WAL_FILE, &wal_header(epoch, snapshot_ops))?;
            }
            Some(bytes) => {
                let parsed = parse_wal(&bytes)?;
                if parsed.epoch > snapshot_epoch {
                    return Err(StoreError::Corrupt {
                        offset: 8,
                        reason: format!(
                            "wal epoch {} is newer than snapshot epoch {} — snapshot lost",
                            parsed.epoch, snapshot_epoch
                        ),
                    });
                }
                if parsed.base > snapshot_ops {
                    return Err(StoreError::Corrupt {
                        offset: 16,
                        reason: format!(
                            "wal base {} skips past snapshot op count {snapshot_ops} — \
                             operations missing",
                            parsed.base
                        ),
                    });
                }
                let wal_end = parsed.base + parsed.records.len();
                if snapshot_ops >= wal_end && (snapshot_ops > parsed.base || parsed.torn.is_some())
                {
                    // The snapshot already covers everything this WAL holds
                    // (a crash landed between snapshot rename and WAL swap
                    // during a checkpoint): retire the stale log.
                    report.torn_tail = parsed.torn;
                    vfs.write_atomic(WAL_FILE, &wal_header(epoch, snapshot_ops))?;
                } else {
                    epoch = epoch.max(parsed.epoch);
                    // Replay the records the snapshot has not captured.
                    let covered = snapshot_ops - parsed.base;
                    for op in parsed.records.into_iter().skip(covered) {
                        replay(&mut instance, &mut attributes, op)?;
                        report.replayed += 1;
                    }
                    if parsed.torn.is_some() {
                        // Trim the torn bytes so future appends extend a
                        // clean prefix.
                        vfs.write_atomic(WAL_FILE, &bytes[..parsed.valid_len])?;
                    }
                    report.torn_tail = parsed.torn;
                }
            }
        }

        let wal = vfs.open_append(WAL_FILE)?;
        Ok((
            DurableStore {
                vfs,
                db: Arc::new(ResidentDb::new(instance)),
                attributes,
                op_count: snapshot_ops + report.replayed,
                wal,
                epoch,
                policy,
                unsynced: 0,
            },
            report,
        ))
    }

    /// The catalog, resident and shareable: sessions read it, and every
    /// write through this store reaches it after its WAL append.
    pub fn database(&self) -> &Arc<ResidentDb> {
        &self.db
    }

    /// The attribute names `table` was created with, if any.
    pub fn attributes(&self, table: &str) -> Option<&[String]> {
        self.attributes.get(table).map(Vec::as_slice)
    }

    /// Operations ever logged (creates, inserts and retractions that changed
    /// state), across checkpoints: the absolute index of the next WAL record.
    pub fn op_count(&self) -> usize {
        self.op_count
    }

    /// The current snapshot/WAL epoch (bumped by every checkpoint).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The fsync policy in effect.
    pub fn policy(&self) -> FsyncPolicy {
        self.policy
    }

    /// WAL appends acknowledged since the last fsync (group-commit debt).
    pub fn pending_sync(&self) -> usize {
        self.unsynced
    }

    /// Creates a table, write-ahead logged.
    pub fn create_table(
        &mut self,
        name: impl Into<String>,
        arity: usize,
        attributes: Option<Vec<String>>,
    ) -> Result<(), StoreError> {
        let name = name.into();
        // Pre-validate so the WAL only ever records operations that apply
        // cleanly: the on-disk stream must replay change-for-change.
        if self.db.arity(&RelationName::new(name.as_str())).is_some() {
            return Err(StoreError::DuplicateTable(name));
        }
        self.log(&Operation::CreateTable {
            name: name.clone(),
            arity,
            attributes: attributes.clone(),
        })?;
        self.db.ensure_relation(name.as_str(), arity)?;
        if let Some(attributes) = attributes {
            self.attributes.insert(name, attributes);
        }
        Ok(())
    }

    /// Inserts a row, write-ahead logged.  Returns `true` if the row was
    /// new; a duplicate insert touches neither the WAL nor any version
    /// stamp.
    pub fn insert(&mut self, table: &str, row: Tuple) -> Result<bool, StoreError> {
        let name = self.relation_for(table, &row)?;
        if self.db.contains(&name, &row) {
            return Ok(false);
        }
        self.log(&Operation::Insert {
            table: table.to_string(),
            row: row.clone(),
        })?;
        self.db.insert(name, row)?;
        Ok(true)
    }

    /// Retracts a row, write-ahead logged.  Returns `true` if the row was
    /// present; retracting an absent row touches neither the WAL nor any
    /// version stamp.
    pub fn retract(&mut self, table: &str, row: &Tuple) -> Result<bool, StoreError> {
        let name = self.relation_for(table, row)?;
        if !self.db.contains(&name, row) {
            return Ok(false);
        }
        self.log(&Operation::Retract {
            table: table.to_string(),
            row: row.clone(),
        })?;
        self.db.retract(name, row)?;
        Ok(true)
    }

    /// Forces every acknowledged append to stable storage, regardless of
    /// policy.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        if self.unsynced > 0 || matches!(self.policy, FsyncPolicy::Never) {
            self.wal.sync()?;
            self.unsynced = 0;
        }
        Ok(())
    }

    /// Checkpoints the store: writes a snapshot of the current state (temp
    /// file + fsync + atomic rename), then — only once the snapshot is
    /// durable — truncates the WAL to a fresh epoch whose base offset is the
    /// snapshot's operation count.  The resident database is not touched.
    ///
    /// A crash at *any* point leaves a recoverable pair: before the snapshot
    /// rename the old snapshot + full WAL still recover; between rename and
    /// WAL swap the new snapshot subsumes the stale WAL, which recovery
    /// detects by op count and retires.
    pub fn checkpoint(&mut self) -> Result<(), StoreError> {
        self.sync()?;
        let next_epoch = self.epoch + 1;
        let snapshot = encode_snapshot(
            &self.db.snapshot(),
            &self.attributes,
            next_epoch,
            self.op_count,
        );
        self.vfs.write_atomic(SNAPSHOT_FILE, &snapshot)?;
        // Snapshot is durable; the WAL records it covers are now redundant.
        self.vfs
            .write_atomic(WAL_FILE, &wal_header(next_epoch, self.op_count))?;
        self.wal = self.vfs.open_append(WAL_FILE)?;
        self.epoch = next_epoch;
        self.unsynced = 0;
        Ok(())
    }

    /// The relation a row of `table` goes to, once the table is known to
    /// exist with the row's arity.
    fn relation_for(&self, table: &str, row: &Tuple) -> Result<RelationName, StoreError> {
        let name = RelationName::new(table);
        match self.db.arity(&name) {
            None => Err(StoreError::UnknownTable(table.to_string())),
            Some(expected) if expected != row.arity() => Err(StoreError::ArityMismatch {
                table: table.to_string(),
                expected,
                actual: row.arity(),
            }),
            Some(_) => Ok(name),
        }
    }

    /// Encodes `op`, appends it as a checksummed WAL record, and applies the
    /// fsync policy.  Called *before* the in-memory apply (write-ahead
    /// ordering): on error the database is untouched.
    fn log(&mut self, op: &Operation) -> Result<(), StoreError> {
        let payload = encode_operation(op);
        let mut record = Vec::with_capacity(8 + payload.len());
        codec::put_u32(&mut record, payload.len() as u32);
        codec::put_u32(&mut record, crc32(&payload));
        record.extend_from_slice(&payload);
        self.wal.append(&record)?;
        self.op_count += 1;
        match self.policy {
            FsyncPolicy::Always => self.wal.sync()?,
            FsyncPolicy::EveryN(n) => {
                self.unsynced += 1;
                if self.unsynced >= n {
                    self.wal.sync()?;
                    self.unsynced = 0;
                }
            }
            FsyncPolicy::Never => {}
        }
        Ok(())
    }
}

/// Applies one replayed WAL operation to the catalog being recovered.  The
/// WAL only ever records operations that changed state, so a replay that
/// turns out to be a no-op means the log and snapshot disagree — corruption
/// that slipped past the checksums, surfaced loudly rather than absorbed.
fn replay(
    instance: &mut Instance,
    attributes: &mut Attributes,
    op: Operation,
) -> Result<(), StoreError> {
    let changed = match op {
        Operation::CreateTable {
            name,
            arity,
            attributes: attrs,
        } => {
            let added = instance.ensure_relation(name.as_str(), arity)?;
            if let (true, Some(attrs)) = (added, attrs) {
                attributes.insert(name, attrs);
            }
            added
        }
        Operation::Insert { table, row } => instance.insert(table, row)?,
        Operation::Retract { table, row } => instance.remove(table, &row)?,
    };
    if !changed {
        return Err(StoreError::Corrupt {
            offset: 0,
            reason: "wal record replayed as a no-op — log and snapshot disagree".to_string(),
        });
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// WAL encode / parse
// ---------------------------------------------------------------------------

fn wal_header(epoch: u64, base: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(WAL_HEADER_LEN);
    out.extend_from_slice(WAL_MAGIC);
    codec::put_u64(&mut out, epoch);
    codec::put_u64(&mut out, base as u64);
    out
}

struct ParsedWal {
    epoch: u64,
    base: usize,
    records: Vec<Operation>,
    /// Byte length of the valid prefix (header + intact records).
    valid_len: usize,
    torn: Option<TornTail>,
}

/// Parses a WAL file: header, then records until end-of-file.  An incomplete
/// **final** record (its bytes run out at EOF) is a torn tail — reported,
/// not fatal.  A complete record that fails its checksum or does not decode
/// is corruption — fatal, with the offending byte offset.
fn parse_wal(bytes: &[u8]) -> Result<ParsedWal, StoreError> {
    if bytes.len() < WAL_HEADER_LEN || &bytes[..8] != WAL_MAGIC {
        return Err(StoreError::Corrupt {
            offset: 0,
            reason: format!(
                "bad wal header: {}",
                if bytes.len() < WAL_HEADER_LEN {
                    format!("{} bytes, need {WAL_HEADER_LEN}", bytes.len())
                } else {
                    "magic mismatch".to_string()
                }
            ),
        });
    }
    let mut header = Reader::new(&bytes[8..WAL_HEADER_LEN]);
    let epoch = header.get_u64("wal epoch").expect("16 header bytes");
    let base = header.get_u64("wal base").expect("16 header bytes") as usize;

    let mut records = Vec::new();
    let mut pos = WAL_HEADER_LEN;
    let mut torn = None;
    while pos < bytes.len() {
        let remaining = bytes.len() - pos;
        if remaining < 8 {
            torn = Some(TornTail {
                offset: pos as u64,
                reason: format!("record header truncated: {remaining} of 8 bytes"),
            });
            break;
        }
        let mut head = Reader::new(&bytes[pos..pos + 8]);
        let len = head.get_u32("record length").expect("8 bytes") as usize;
        let crc = head.get_u32("record checksum").expect("8 bytes");
        if remaining - 8 < len {
            torn = Some(TornTail {
                offset: pos as u64,
                reason: format!("record payload truncated: {} of {len} bytes", remaining - 8),
            });
            break;
        }
        // The record's bytes are fully present: any mismatch from here on is
        // corruption, not a tear.
        let payload = &bytes[pos + 8..pos + 8 + len];
        let actual = crc32(payload);
        if actual != crc {
            return Err(StoreError::Corrupt {
                offset: pos as u64,
                reason: format!(
                    "record checksum mismatch: stored {crc:#010x}, computed {actual:#010x}"
                ),
            });
        }
        let mut r = Reader::new(payload);
        let op = decode_operation(&mut r).map_err(|e| {
            let e = e.offset_by(pos + 8);
            StoreError::Corrupt {
                offset: e.offset as u64,
                reason: e.reason,
            }
        })?;
        if !r.is_empty() {
            return Err(StoreError::Corrupt {
                offset: (pos + 8 + r.position()) as u64,
                reason: format!("{} trailing bytes after operation", r.remaining()),
            });
        }
        records.push(op);
        pos += 8 + len;
    }
    Ok(ParsedWal {
        epoch,
        base,
        records,
        valid_len: pos,
        torn,
    })
}

// ---------------------------------------------------------------------------
// Snapshot encode / decode
// ---------------------------------------------------------------------------

fn encode_snapshot(
    instance: &Instance,
    attributes: &Attributes,
    epoch: u64,
    op_count: usize,
) -> Vec<u8> {
    let mut body = Vec::new();
    codec::put_u64(&mut body, epoch);
    codec::put_u64(&mut body, op_count as u64);
    codec::put_u32(&mut body, instance.iter().count() as u32);
    for (name, relation) in instance.iter() {
        codec::put_str(&mut body, name.as_str());
        codec::put_u32(&mut body, relation.arity() as u32);
        put_attributes(&mut body, attributes.get(name.as_str()).map(Vec::as_slice));
        codec::put_u64(&mut body, relation.len() as u64);
        for row in relation.iter() {
            codec::put_tuple(&mut body, row);
        }
    }
    let mut out = Vec::with_capacity(12 + body.len());
    out.extend_from_slice(SNAP_MAGIC);
    codec::put_u32(&mut out, crc32(&body));
    out.extend_from_slice(&body);
    out
}

/// Decodes a snapshot into the catalog and attribute names it holds, plus
/// the absolute op count and epoch it captured.  Snapshots are written
/// atomically, so *any* damage — short file, bad magic, checksum or
/// structural mismatch — is hard corruption.
fn decode_snapshot(bytes: &[u8]) -> Result<(Instance, Attributes, usize, u64), StoreError> {
    if bytes.len() < 12 || &bytes[..8] != SNAP_MAGIC {
        return Err(StoreError::Corrupt {
            offset: 0,
            reason: format!(
                "bad snapshot header: {}",
                if bytes.len() < 12 {
                    format!("{} bytes, need at least 12", bytes.len())
                } else {
                    "magic mismatch".to_string()
                }
            ),
        });
    }
    let stored_crc = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    let body = &bytes[12..];
    let actual = crc32(body);
    if actual != stored_crc {
        return Err(StoreError::Corrupt {
            offset: 8,
            reason: format!(
                "snapshot checksum mismatch: stored {stored_crc:#010x}, computed {actual:#010x}"
            ),
        });
    }
    let corrupt = |e: codec::DecodeError| {
        let e = e.offset_by(12);
        StoreError::Corrupt {
            offset: e.offset as u64,
            reason: e.reason,
        }
    };
    let mut r = Reader::new(body);
    let epoch = r.get_u64("snapshot epoch").map_err(corrupt)?;
    let op_count = r.get_u64("snapshot op count").map_err(corrupt)? as usize;
    let table_count = r.get_u32("table count").map_err(corrupt)? as usize;
    let mut instance = Instance::empty(&Schema::default());
    let mut attributes = Attributes::new();
    for _ in 0..table_count {
        let at = r.position();
        let name = RelationName::new(r.get_str("table name").map_err(corrupt)?);
        let arity = r.get_u32("table arity").map_err(corrupt)? as usize;
        if !instance.ensure_relation(&name, arity)? {
            return Err(corrupt(codec::DecodeError {
                offset: at,
                reason: format!("table `{name}` appears twice"),
            }));
        }
        if let Some(attrs) = get_attributes(&mut r).map_err(corrupt)? {
            attributes.insert(name.as_str().to_string(), attrs);
        }
        let row_count = r.get_u64("row count").map_err(corrupt)? as usize;
        if row_count > r.remaining() {
            return Err(corrupt(codec::DecodeError {
                offset: r.position(),
                reason: format!(
                    "row count {row_count} exceeds the {} remaining bytes",
                    r.remaining()
                ),
            }));
        }
        for _ in 0..row_count {
            instance.insert(&name, r.get_tuple().map_err(corrupt)?)?;
        }
    }
    if !r.is_empty() {
        return Err(corrupt(codec::DecodeError {
            offset: r.position(),
            reason: format!("{} trailing bytes after last table", r.remaining()),
        }));
    }
    Ok((instance, attributes, op_count, epoch))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Fault, FaultVfs, MemVfs};
    use rtx_relational::Value;

    fn open_mem(vfs: &MemVfs) -> (DurableStore, RecoveryReport) {
        DurableStore::open(Arc::new(vfs.clone()), FsyncPolicy::Always).unwrap()
    }

    fn price_rows(store: &DurableStore) -> usize {
        store.database().snapshot().relation("price").unwrap().len()
    }

    fn seed(store: &mut DurableStore) {
        store.create_table("price", 2, None).unwrap();
        for (p, amt) in [("time", 855), ("newsweek", 845)] {
            store
                .insert("price", Tuple::new(vec![Value::str(p), Value::int(amt)]))
                .unwrap();
        }
    }

    #[test]
    fn reopen_recovers_from_the_wal_alone() {
        let vfs = MemVfs::new();
        let (mut store, report) = open_mem(&vfs);
        assert_eq!(report, RecoveryReport::default());
        seed(&mut store);
        store
            .retract(
                "price",
                &Tuple::new(vec![Value::str("time"), Value::int(855)]),
            )
            .unwrap();
        let expect = store.database().snapshot();
        drop(store); // "crash": no checkpoint ever ran

        let (recovered, report) = open_mem(&vfs);
        assert_eq!(report.snapshot_ops, 0);
        assert_eq!(report.replayed, 4);
        assert_eq!(report.torn_tail, None);
        assert_eq!(recovered.database().snapshot(), expect);
        // Absolute numbering continues where the log left off.
        assert_eq!(recovered.op_count(), 4);
    }

    #[test]
    fn checkpoint_then_reopen_uses_the_snapshot() {
        let vfs = MemVfs::new();
        let (mut store, _) = open_mem(&vfs);
        seed(&mut store);
        store.checkpoint().unwrap();
        assert_eq!(store.epoch(), 1);
        assert_eq!(store.op_count(), 3);
        // Post-checkpoint writes land in the fresh WAL tail.
        store
            .insert(
                "price",
                Tuple::new(vec![Value::str("lemonde"), Value::int(8350)]),
            )
            .unwrap();
        let expect = store.database().snapshot();
        drop(store);

        let (recovered, report) = open_mem(&vfs);
        assert_eq!(report.snapshot_ops, 3);
        assert_eq!(report.replayed, 1);
        assert_eq!(recovered.database().snapshot(), expect);
        assert_eq!(recovered.epoch(), 1);
        assert_eq!(recovered.op_count(), 4);

        // Duplicate-table creation still rejected after recovery.
        assert!(matches!(
            {
                let mut r = recovered;
                r.create_table("price", 2, None)
            },
            Err(StoreError::DuplicateTable(_))
        ));
    }

    #[test]
    fn torn_tail_is_dropped_gracefully_and_trimmed() {
        let vfs = MemVfs::new();
        let (mut store, _) = open_mem(&vfs);
        seed(&mut store);
        drop(store);
        // Tear the last record: chop 3 bytes off the WAL.
        let len = vfs.len_of(WAL_FILE).unwrap();
        vfs.truncate(WAL_FILE, len - 3);

        let (recovered, report) = open_mem(&vfs);
        let torn = report.torn_tail.expect("tail was torn");
        assert!(torn.reason.contains("truncated"), "{}", torn.reason);
        assert_eq!(report.replayed, 2); // create + first insert survive
        assert_eq!(price_rows(&recovered), 1);
        drop(recovered);

        // The torn bytes were trimmed: a second recovery is clean.
        let (_, report) = open_mem(&vfs);
        assert_eq!(report.torn_tail, None);
        assert_eq!(report.replayed, 2);
    }

    #[test]
    fn mid_file_corruption_is_a_hard_error_with_offset() {
        let vfs = MemVfs::new();
        let (mut store, _) = open_mem(&vfs);
        seed(&mut store);
        drop(store);
        // Flip a byte inside the FIRST record's payload (header is 24
        // bytes, record header 8 more).
        vfs.corrupt_byte(WAL_FILE, WAL_HEADER_LEN + 8 + 2);

        let err = DurableStore::open(Arc::new(vfs.clone()), FsyncPolicy::Always).unwrap_err();
        match err {
            StoreError::Corrupt { offset, reason } => {
                assert_eq!(offset, WAL_HEADER_LEN as u64);
                assert!(reason.contains("checksum"), "{reason}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn a_wal_record_that_replays_as_a_no_op_is_corruption() {
        // Append a second copy of the last insert record: it passes its
        // checksum but changes nothing on replay.
        let vfs = MemVfs::new();
        let (mut store, _) = open_mem(&vfs);
        seed(&mut store);
        drop(store);
        let wal = vfs.read(WAL_FILE).unwrap().unwrap();
        let last = encode_operation(&Operation::Insert {
            table: "price".into(),
            row: Tuple::new(vec![Value::str("newsweek"), Value::int(845)]),
        });
        let record = &wal[wal.len() - 8 - last.len()..];
        assert_eq!(&record[8..], &last[..]);
        let doubled = [&wal[..], record].concat();
        vfs.write_atomic(WAL_FILE, &doubled).unwrap();

        let err = DurableStore::open(Arc::new(vfs.clone()), FsyncPolicy::Always).unwrap_err();
        assert!(
            matches!(&err, StoreError::Corrupt { reason, .. } if reason.contains("no-op")),
            "{err:?}"
        );
    }

    #[test]
    fn corrupt_snapshot_is_a_hard_error() {
        let vfs = MemVfs::new();
        let (mut store, _) = open_mem(&vfs);
        seed(&mut store);
        store.checkpoint().unwrap();
        drop(store);
        vfs.corrupt_byte(SNAPSHOT_FILE, 20);
        let err = DurableStore::open(Arc::new(vfs.clone()), FsyncPolicy::Always).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }), "{err:?}");
    }

    #[test]
    fn crash_between_snapshot_and_wal_swap_recovers() {
        // Checkpoint's danger window: the new snapshot is renamed into
        // place, then the crash hits before the WAL is reset.  Recovery
        // must notice the stale WAL (its ops are all covered) and retire it.
        let vfs = MemVfs::new();
        let (mut store, _) = open_mem(&vfs);
        seed(&mut store);
        let expect = store.database().snapshot();
        // Hand-roll the first half of a checkpoint.
        let snap = encode_snapshot(&expect, &store.attributes, 1, store.op_count());
        vfs.write_atomic(SNAPSHOT_FILE, &snap).unwrap();
        drop(store); // crash before the WAL swap

        let (recovered, report) = open_mem(&vfs);
        assert_eq!(report.snapshot_ops, 3);
        assert_eq!(report.replayed, 0);
        assert_eq!(recovered.database().snapshot(), expect);
        assert_eq!(recovered.op_count(), 3);
    }

    #[test]
    fn group_commit_syncs_every_n() {
        let vfs = MemVfs::new();
        let (mut store, _) =
            DurableStore::open(Arc::new(vfs.clone()), FsyncPolicy::EveryN(3)).unwrap();
        store.create_table("t", 1, None).unwrap();
        assert_eq!(store.pending_sync(), 1);
        store
            .insert("t", Tuple::from_iter(vec![Value::int(1)]))
            .unwrap();
        assert_eq!(store.pending_sync(), 2);
        store
            .insert("t", Tuple::from_iter(vec![Value::int(2)]))
            .unwrap(); // third append: group commits
        assert_eq!(store.pending_sync(), 0);
        store
            .insert("t", Tuple::from_iter(vec![Value::int(3)]))
            .unwrap();
        assert_eq!(store.pending_sync(), 1);
        store.sync().unwrap();
        assert_eq!(store.pending_sync(), 0);
    }

    #[test]
    fn wal_append_failure_leaves_memory_untouched() {
        // Fault the 6th I/O op: snapshot read (1), wal read (2), header
        // write (3), create append (4), create fsync (5), insert append
        // (6) — the insert's WAL write fails, so the in-memory store must
        // not apply it either.
        let vfs = MemVfs::new();
        let faulty = FaultVfs::new(vfs.clone(), 6, Fault::Error);
        let (mut store, _) = DurableStore::open(Arc::new(faulty), FsyncPolicy::Always).unwrap();
        store.create_table("t", 1, None).unwrap();
        let row = Tuple::from_iter(vec![Value::int(1)]);
        assert!(matches!(
            store.insert("t", row.clone()),
            Err(StoreError::Io { .. })
        ));
        assert!(store
            .database()
            .snapshot()
            .relation("t")
            .unwrap()
            .is_empty());
        assert_eq!(store.op_count(), 1);
        // The fault was transient: the same insert goes through now.
        assert!(store.insert("t", row).unwrap());
        assert_eq!(store.database().snapshot().relation("t").unwrap().len(), 1);
    }

    #[test]
    fn rtx_fsync_override_parses_strictly() {
        // Unset or blank means "no override" under the shared RTX_* contract.
        assert_eq!(FsyncPolicy::from_env(None), Ok(None));
        assert_eq!(FsyncPolicy::from_env(Some("")), Ok(None));
        assert_eq!(FsyncPolicy::from_env(Some("  ")), Ok(None));
        // Well-formed values trim surrounding whitespace and ignore keyword
        // case, like every other RTX_* variable.
        assert_eq!(
            FsyncPolicy::from_env(Some("always")),
            Ok(Some(FsyncPolicy::Always))
        );
        assert_eq!(
            FsyncPolicy::from_env(Some(" Never ")),
            Ok(Some(FsyncPolicy::Never))
        );
        assert_eq!(
            FsyncPolicy::from_env(Some("every:8")),
            Ok(Some(FsyncPolicy::EveryN(8)))
        );
        // Malformed values are hard errors naming the variable — no signs,
        // no zero, no inner spaces, no garbage.
        for bad in [
            "every:",
            "every:0",
            "every:-2",
            "every: 3",
            "every:3x",
            "3",
            "sometimes",
            "alwaysnever",
        ] {
            let err = FsyncPolicy::from_env(Some(bad)).unwrap_err();
            assert_eq!(err.var, "RTX_FSYNC", "{bad:?}");
            assert_eq!(err.value, bad);
        }
    }

    #[test]
    fn operation_codec_round_trips() {
        let ops = vec![
            Operation::CreateTable {
                name: "t".into(),
                arity: 2,
                attributes: Some(vec!["a".into(), "b".into()]),
            },
            Operation::CreateTable {
                name: String::new(),
                arity: 0,
                attributes: None,
            },
            Operation::Insert {
                table: "t".into(),
                row: Tuple::new(vec![Value::str("x\"y\n"), Value::int(i64::MIN)]),
            },
            Operation::Retract {
                table: "t".into(),
                row: Tuple::new(vec![Value::str(""), Value::int(-1)]),
            },
        ];
        for op in &ops {
            let bytes = encode_operation(op);
            let mut r = Reader::new(&bytes);
            assert_eq!(&decode_operation(&mut r).unwrap(), op);
            assert!(r.is_empty());
            // Every truncation errors, never panics.
            for cut in 0..bytes.len() {
                assert!(decode_operation(&mut Reader::new(&bytes[..cut])).is_err());
            }
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn unknown_tables_and_wrong_arities_are_rejected_before_the_wal() {
        let vfs = MemVfs::new();
        let (mut store, _) = open_mem(&vfs);
        seed(&mut store);
        let wal_len = vfs.len_of(WAL_FILE).unwrap();
        let row = Tuple::new(vec![Value::str("time"), Value::int(855)]);
        assert_eq!(
            store.insert("nope", row.clone()),
            Err(StoreError::UnknownTable("nope".into()))
        );
        assert_eq!(
            store.retract("nope", &row),
            Err(StoreError::UnknownTable("nope".into()))
        );
        let short = Tuple::from_iter(["time"]);
        let mismatch = StoreError::ArityMismatch {
            table: "price".into(),
            expected: 2,
            actual: 1,
        };
        assert_eq!(store.insert("price", short.clone()), Err(mismatch.clone()));
        assert_eq!(store.retract("price", &short), Err(mismatch));
        assert_eq!(
            store.create_table("price", 1, None),
            Err(StoreError::DuplicateTable("price".into()))
        );
        assert_eq!(vfs.len_of(WAL_FILE), Some(wal_len));
        assert_eq!(store.op_count(), 3);
    }

    #[test]
    fn a_write_bumps_only_the_touched_relation_stamp() {
        let vfs = MemVfs::new();
        let (mut store, _) = open_mem(&vfs);
        seed(&mut store);
        store.create_table("available", 1, None).unwrap();
        let db = Arc::clone(store.database());
        let price = RelationName::new("price");
        let available = RelationName::new("available");

        let available_before = db.version_of(&available);
        let price_before = db.version_of(&price);
        store
            .insert(
                "price",
                Tuple::new(vec![Value::str("lemonde"), Value::int(8350)]),
            )
            .unwrap();
        assert!(db.version_of(&price) > price_before);
        assert_eq!(db.version_of(&available), available_before);

        // Retractions bump through the same stamp channel.
        let price_before = db.version_of(&price);
        store
            .retract(
                "price",
                &Tuple::new(vec![Value::str("time"), Value::int(855)]),
            )
            .unwrap();
        assert!(db.version_of(&price) > price_before);
        assert_eq!(db.version_of(&available), available_before);
    }

    #[test]
    fn no_op_writes_leave_every_stamp_untouched() {
        let vfs = MemVfs::new();
        let (mut store, _) = open_mem(&vfs);
        seed(&mut store);
        let db = Arc::clone(store.database());
        let price = RelationName::new("price");
        let (version, stamp) = (db.version(), db.version_of(&price));
        let (wal_len, ops) = (vfs.len_of(WAL_FILE), store.op_count());

        let present = Tuple::new(vec![Value::str("time"), Value::int(855)]);
        let absent = Tuple::new(vec![Value::str("herald"), Value::int(500)]);
        assert!(!store.insert("price", present).unwrap());
        assert!(!store.retract("price", &absent).unwrap());

        assert_eq!((db.version(), db.version_of(&price)), (version, stamp));
        assert_eq!((vfs.len_of(WAL_FILE), store.op_count()), (wal_len, ops));
    }

    #[test]
    fn checkpointed_mixed_churn_matches_a_fresh_recovery() {
        // Interleave inserts and retractions, including an insert that is
        // later retracted and a retraction that is later re-inserted, with a
        // checkpoint in the middle.
        let vfs = MemVfs::new();
        let (mut store, _) = open_mem(&vfs);
        seed(&mut store);
        store.create_table("available", 1, None).unwrap();
        let lemonde = Tuple::new(vec![Value::str("lemonde"), Value::int(8350)]);
        let time = Tuple::new(vec![Value::str("time"), Value::int(855)]);
        assert!(store.insert("price", lemonde.clone()).unwrap());
        assert!(store.retract("price", &time).unwrap());
        store.checkpoint().unwrap();
        assert!(store
            .insert("available", Tuple::from_iter(["lemonde"]))
            .unwrap());
        assert!(store.retract("price", &lemonde).unwrap());
        assert!(store.insert("price", time).unwrap());

        let (fresh, report) = open_mem(&vfs);
        assert_eq!((report.snapshot_ops, report.replayed), (6, 3));
        assert_eq!(fresh.database().snapshot(), store.database().snapshot());
        assert_eq!(fresh.op_count(), store.op_count());
    }

    /// The catalog held by `testdata/rtxsnap1`: a store image (snapshot plus
    /// WAL tail) written by the `Store`-backed implementation this one
    /// replaced.  Its tables and op count are those of the writes below.
    fn expected_rtxsnap1() -> Instance {
        let row = |p: &str, n: i64| Tuple::new(vec![Value::str(p), Value::int(n)]);
        let schema = Schema::from_pairs([("price", 2), ("available", 1), ("category", 2)]).unwrap();
        let mut db = Instance::empty(&schema);
        // Snapshot (6 ops): create price (with attributes), three prices,
        // create available, available(time).  WAL tail (5 ops): create
        // category (with attributes), category(news, time), price(economist),
        // retract price(newsweek), retract available(time).
        for p in [
            row("time", 855),
            row("lemonde", 8350),
            row("economist", 700),
        ] {
            db.insert("price", p).unwrap();
        }
        db.insert("category", Tuple::from_iter(["news", "time"]))
            .unwrap();
        db
    }

    fn assert_recovers_rtxsnap1(store: &DurableStore) {
        assert_eq!(store.database().snapshot(), expected_rtxsnap1());
        assert_eq!(store.op_count(), 11);
        let names = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(
            store.attributes("price"),
            Some(&names(&["product", "amount"])[..])
        );
        assert_eq!(store.attributes("available"), None);
        assert_eq!(
            store.attributes("category"),
            Some(&names(&["category", "product"])[..])
        );
    }

    #[test]
    fn images_written_before_the_resident_catalog_recover_identically() {
        let vfs = MemVfs::new();
        vfs.write_atomic(
            SNAPSHOT_FILE,
            include_bytes!("../testdata/rtxsnap1/snapshot"),
        )
        .unwrap();
        vfs.write_atomic(WAL_FILE, include_bytes!("../testdata/rtxsnap1/wal"))
            .unwrap();
        let (mut store, report) = open_mem(&vfs);
        assert_eq!((report.snapshot_ops, report.replayed), (6, 5));
        assert_eq!(report.torn_tail, None);
        assert_recovers_rtxsnap1(&store);

        // One more checkpoint rewrites the image in this implementation's
        // hands; recovering that one gives the same catalog again.
        store.checkpoint().unwrap();
        drop(store);
        let (recovered, report) = open_mem(&vfs);
        assert_eq!((report.snapshot_ops, report.replayed), (11, 0));
        assert_recovers_rtxsnap1(&recovered);
    }
}
