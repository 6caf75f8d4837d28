//! The checksummed append-only write-ahead log.
//!
//! Every mutation is framed and checksummed before it reaches the
//! memtable, so a crash at *any* byte boundary loses at most the
//! unacknowledged suffix:
//!
//! ```text
//! record := [crc32: u32 LE over payload] [len: u32 LE] [payload]
//! payload := [op: u8 (1 = put, 2 = delete)]
//!            [klen: u32 LE] [key bytes]
//!            (put only) [vlen: u32 LE] [value bytes]
//! ```
//!
//! Recovery reads records sequentially and stops at the first frame that
//! does not fully fit (a torn write) or whose CRC does not match (a torn
//! or corrupted write); everything before that point is the committed
//! prefix and is replayed, everything after is truncated away so the log
//! never re-serves damage. The crash-recovery property tests exercise
//! truncation and single-byte corruption at every offset of a synthetic
//! log.

use std::path::{Path, PathBuf};

use crate::vfs::{Vfs, VfsFile};
use crate::{crc32, StoreError};

/// One recovered WAL operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalOp {
    /// Insert or overwrite `key` with `value`.
    Put {
        /// The key.
        key: Vec<u8>,
        /// The value.
        value: Vec<u8>,
    },
    /// Delete `key` (a tombstone until compaction reclaims it).
    Delete {
        /// The key.
        key: Vec<u8>,
    },
}

impl WalOp {
    /// The key this operation touches.
    #[must_use]
    pub fn key(&self) -> &[u8] {
        match self {
            WalOp::Put { key, .. } | WalOp::Delete { key } => key,
        }
    }
}

const OP_PUT: u8 = 1;
const OP_DELETE: u8 = 2;
const FRAME_HEADER: usize = 8; // crc32 + len

fn encode_payload(op: &WalOp) -> Vec<u8> {
    let mut buf = Vec::with_capacity(16 + op.key().len());
    match op {
        WalOp::Put { key, value } => {
            buf.push(OP_PUT);
            buf.extend_from_slice(&(u32::try_from(key.len()).expect("key fits u32")).to_le_bytes());
            buf.extend_from_slice(key);
            buf.extend_from_slice(
                &(u32::try_from(value.len()).expect("value fits u32")).to_le_bytes(),
            );
            buf.extend_from_slice(value);
        }
        WalOp::Delete { key } => {
            buf.push(OP_DELETE);
            buf.extend_from_slice(&(u32::try_from(key.len()).expect("key fits u32")).to_le_bytes());
            buf.extend_from_slice(key);
        }
    }
    buf
}

fn decode_payload(payload: &[u8]) -> Option<WalOp> {
    let (&op, rest) = payload.split_first()?;
    let take = |bytes: &[u8]| -> Option<(Vec<u8>, usize)> {
        let len = u32::from_le_bytes(bytes.get(..4)?.try_into().ok()?) as usize;
        Some((bytes.get(4..4 + len)?.to_vec(), 4 + len))
    };
    match op {
        OP_PUT => {
            let (key, used) = take(rest)?;
            let (value, used2) = take(&rest[used..])?;
            (used + used2 == rest.len()).then_some(WalOp::Put { key, value })
        }
        OP_DELETE => {
            let (key, used) = take(rest)?;
            (used == rest.len()).then_some(WalOp::Delete { key })
        }
        _ => None,
    }
}

/// Frame one operation exactly as [`Wal::append`] writes it — exposed so
/// the crash-recovery tests can build synthetic logs byte-for-byte.
#[must_use]
pub fn encode_record(op: &WalOp) -> Vec<u8> {
    let payload = encode_payload(op);
    let mut rec = Vec::with_capacity(FRAME_HEADER + payload.len());
    rec.extend_from_slice(&crc32(&payload).to_le_bytes());
    rec.extend_from_slice(&(u32::try_from(payload.len()).expect("payload fits u32")).to_le_bytes());
    rec.extend_from_slice(&payload);
    rec
}

/// What recovery found in a log.
#[derive(Debug)]
pub struct Recovery {
    /// The committed operations, in append order.
    pub ops: Vec<WalOp>,
    /// Byte length of the committed prefix.
    pub committed_bytes: u64,
    /// `true` when a torn or corrupt tail was found (and truncated).
    pub tail_damaged: bool,
}

/// Scan `bytes` as a WAL and return the committed prefix. Pure — the
/// file-level [`Wal::open`] and the property tests both call this.
#[must_use]
pub fn scan(bytes: &[u8]) -> Recovery {
    let mut ops = Vec::new();
    let mut at = 0usize;
    loop {
        let Some(header) = bytes.get(at..at + FRAME_HEADER) else {
            // Torn frame header (or clean EOF when at == len).
            return Recovery {
                ops,
                committed_bytes: at as u64,
                tail_damaged: at != bytes.len(),
            };
        };
        let stored_crc = u32::from_le_bytes(header[..4].try_into().expect("4 bytes"));
        let len = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes")) as usize;
        let Some(payload) = bytes.get(at + FRAME_HEADER..at + FRAME_HEADER + len) else {
            // Torn payload: the frame claims more bytes than exist.
            return Recovery { ops, committed_bytes: at as u64, tail_damaged: true };
        };
        if crc32(payload) != stored_crc {
            // Corrupt record: checksum rejects it (and everything after —
            // the log has no resynchronization points by design).
            return Recovery { ops, committed_bytes: at as u64, tail_damaged: true };
        }
        let Some(op) = decode_payload(payload) else {
            // Checksum passed but the payload grammar is wrong — a
            // same-CRC corruption or a foreign writer. Reject it too.
            return Recovery { ops, committed_bytes: at as u64, tail_damaged: true };
        };
        ops.push(op);
        at += FRAME_HEADER + len;
    }
}

/// The write-ahead log file: append + fsync per operation, recover on
/// open, truncate after a successful memtable flush. All I/O goes
/// through the [`Vfs`] the log was opened with.
pub struct Wal {
    file: Box<dyn VfsFile>,
    path: PathBuf,
    fsync: bool,
    /// Length of the committed (acknowledged) prefix. A failed append or
    /// fsync rolls the file back to this point so an unacknowledged
    /// record never survives, not even in the segment of a later flush
    /// whose WAL reset fails.
    committed: u64,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("path", &self.path)
            .field("fsync", &self.fsync)
            .finish_non_exhaustive()
    }
}

impl Wal {
    /// Open (creating if absent) the log at `path` on `vfs`, recovering
    /// the committed prefix and truncating any damaged tail.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failures.
    pub fn open(vfs: &dyn Vfs, path: &Path, fsync: bool) -> Result<(Wal, Recovery), StoreError> {
        let mut file = vfs
            .open_rw(path)
            .map_err(|e| StoreError::io(format!("open wal {}", path.display()), e))?;
        let bytes = file
            .read_all()
            .map_err(|e| StoreError::io(format!("read wal {}", path.display()), e))?;
        let recovery = scan(&bytes);
        // Cut any damaged tail (truncate also positions the cursor at the
        // committed end, where fresh appends belong).
        file.truncate(recovery.committed_bytes)
            .map_err(|e| StoreError::io("truncate damaged wal tail", e))?;
        let committed = recovery.committed_bytes;
        let wal = Wal { file, path: path.to_path_buf(), fsync, committed };
        Ok((wal, recovery))
    }

    /// Append one operation durably. Returns the framed record length.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on write or sync failure. The operation is not
    /// committed, and the log is rolled back (best-effort truncate —
    /// never fault-injected) to the committed prefix so the torn or
    /// unsynced record cannot be replayed later.
    pub fn append(&mut self, op: &WalOp) -> Result<usize, StoreError> {
        let rec = encode_record(op);
        if let Err(e) = self.file.append(&rec) {
            let _ = self.file.truncate(self.committed);
            return Err(StoreError::io(format!("append wal {}", self.path.display()), e));
        }
        if self.fsync {
            if let Err(e) = self.file.sync() {
                let _ = self.file.truncate(self.committed);
                return Err(StoreError::io("fsync wal", e));
            }
        }
        self.committed += rec.len() as u64;
        Ok(rec.len())
    }

    /// Drop every record — called after the memtable has been durably
    /// flushed into a segment, which supersedes the log.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on truncate/sync failure.
    pub fn reset(&mut self) -> Result<(), StoreError> {
        self.file.truncate(0).map_err(|e| StoreError::io("truncate wal", e))?;
        self.committed = 0;
        if self.fsync {
            self.file.sync().map_err(|e| StoreError::io("fsync wal", e))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::RealVfs;

    fn ops() -> Vec<WalOp> {
        vec![
            WalOp::Put { key: b"table/5".to_vec(), value: b"rendered bytes".to_vec() },
            WalOp::Delete { key: b"stale".to_vec() },
            WalOp::Put { key: b"k".to_vec(), value: vec![0u8; 100] },
        ]
    }

    fn log_of(ops: &[WalOp]) -> Vec<u8> {
        ops.iter().flat_map(encode_record).collect()
    }

    #[test]
    fn scan_recovers_every_committed_record() {
        let ops = ops();
        let log = log_of(&ops);
        let rec = scan(&log);
        assert_eq!(rec.ops, ops);
        assert_eq!(rec.committed_bytes, log.len() as u64);
        assert!(!rec.tail_damaged);
    }

    #[test]
    fn scan_rejects_torn_and_corrupt_tails() {
        let ops = ops();
        let log = log_of(&ops);
        // Torn: drop the last byte — the final record must vanish whole.
        let rec = scan(&log[..log.len() - 1]);
        assert_eq!(rec.ops, ops[..2]);
        assert!(rec.tail_damaged);
        // Corrupt: flip a byte in the last record's payload.
        let mut bad = log.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0xFF;
        let rec = scan(&bad);
        assert_eq!(rec.ops, ops[..2]);
        assert!(rec.tail_damaged);
    }

    #[test]
    fn file_roundtrip_and_tail_truncation() {
        let dir = std::env::temp_dir().join(format!("memo-wal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.log");
        let _ = std::fs::remove_file(&path);

        let (mut wal, rec) = Wal::open(&RealVfs, &path, true).unwrap();
        assert!(rec.ops.is_empty());
        for op in ops() {
            wal.append(&op).unwrap();
        }
        drop(wal);

        // Damage the tail on disk; reopen must truncate it away.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.pop();
        std::fs::write(&path, &bytes).unwrap();
        let (mut wal, rec) = Wal::open(&RealVfs, &path, true).unwrap();
        assert_eq!(rec.ops, ops()[..2]);
        assert!(rec.tail_damaged);
        // The truncated log accepts fresh appends cleanly.
        wal.append(&WalOp::Put { key: b"new".to_vec(), value: b"v".to_vec() }).unwrap();
        drop(wal);
        let rec = scan(&std::fs::read(&path).unwrap());
        assert_eq!(rec.ops.len(), 3);
        assert!(!rec.tail_damaged);

        wal_cleanup(&dir);
    }

    #[test]
    fn failed_appends_roll_back_to_the_committed_prefix() {
        use crate::vfs::{FaultConfig, FaultKind, FaultOp, FaultVfs, ScheduledFault};
        let dir = std::env::temp_dir().join(format!("memo-wal-rollback-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.log");
        let _ = std::fs::remove_file(&path);
        let vfs = FaultVfs::new(FaultConfig {
            scheduled: vec![
                ScheduledFault { op: FaultOp::Write, nth: 2, kind: FaultKind::ShortWrite },
                ScheduledFault { op: FaultOp::Fsync, nth: 2, kind: FaultKind::Error },
            ],
            ..FaultConfig::quiet(21)
        });
        let (mut wal, _) = Wal::open(&vfs, &path, true).unwrap();
        let ops = ops();
        wal.append(&ops[0]).unwrap();
        // Short write: a prefix lands, then the call fails — the log must
        // snap back to exactly one committed record, immediately.
        assert!(wal.append(&ops[1]).is_err());
        assert_eq!(scan(&std::fs::read(&path).unwrap()).ops, ops[..1]);
        // Fsync failure: the bytes landed but were never made durable —
        // the unacknowledged record must be rolled back too.
        assert!(wal.append(&ops[2]).is_err());
        assert_eq!(scan(&std::fs::read(&path).unwrap()).ops, ops[..1]);
        // The log keeps accepting appends afterwards.
        wal.append(&ops[2]).unwrap();
        drop(wal);
        let rec = scan(&std::fs::read(&path).unwrap());
        assert_eq!(rec.ops, vec![ops[0].clone(), ops[2].clone()]);
        assert!(!rec.tail_damaged);
        wal_cleanup(&dir);
    }

    #[test]
    fn reset_empties_the_log() {
        let dir = std::env::temp_dir().join(format!("memo-wal-reset-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.log");
        let _ = std::fs::remove_file(&path);
        let (mut wal, _) = Wal::open(&RealVfs, &path, false).unwrap();
        wal.append(&WalOp::Delete { key: b"k".to_vec() }).unwrap();
        wal.reset().unwrap();
        wal.append(&WalOp::Put { key: b"a".to_vec(), value: b"b".to_vec() }).unwrap();
        drop(wal);
        let rec = scan(&std::fs::read(&path).unwrap());
        assert_eq!(rec.ops, vec![WalOp::Put { key: b"a".to_vec(), value: b"b".to_vec() }]);
        wal_cleanup(&dir);
    }

    fn wal_cleanup(dir: &Path) {
        let _ = std::fs::remove_dir_all(dir);
    }
}
