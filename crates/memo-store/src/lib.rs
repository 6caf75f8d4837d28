//! # memo-store
//!
//! A log-structured, crash-safe key-value store — the persistent tier
//! under the reproduction's in-memory memo caches.
//!
//! The paper's argument is that recomputation is waste: a memo table
//! turns a multi-cycle multiply into a one-cycle lookup. The in-memory
//! caches (`ShardedLru`, the per-process trace caches) apply that idea
//! within one process; this crate applies it *across* processes, so a
//! server restart or a fresh experiment run serves previously computed
//! artifacts from disk instead of replaying kernels.
//!
//! The shape is the classic LSM triad, deliberately mirroring the
//! paper's hit/miss/insert protocol one level up:
//!
//! * [`wal`] — a checksummed append-only write-ahead log. Every write is
//!   durable before it is acknowledged; recovery replays the committed
//!   prefix and detects torn or corrupt tails by length framing + CRC-32.
//! * [`memtable`] — the mutable in-memory tier (a sorted map with byte
//!   accounting), populated by writes and by WAL recovery.
//! * [`segment`] — immutable sorted segment files flushed from the
//!   memtable, each carrying a sparse in-memory index, whole-region
//!   checksums, and a persisted [`bloom`] filter so lookups skip files
//!   that definitely lack the key. Lookups consult the memtable first,
//!   then segments newest to oldest (the same "probe the table before
//!   the unit" protocol).
//! * flush and compaction run inline: the write that finds the memtable
//!   at its watermark writes the segment first, on its own thread and
//!   under the store's lock, as a MEMO-TABLE miss inserts its result on
//!   the spot. A failed flush fails that write, so an error always means
//!   "not committed". [`Store::flush`] and [`Store::compact`] are plain
//!   calls of the same code.
//! * compaction (explicit [`Store::compact`] or run by the flush that
//!   brings the segment count to a threshold) merges all segments into
//!   one, reclaiming superseded keys and dropping tombstones.
//! * [`block_cache`] — the seam through which callers plug a checksummed
//!   in-memory cache of segment spans under the read path.
//! * [`vfs`] — the virtual filesystem every byte of store I/O goes
//!   through: [`RealVfs`] in production, [`FaultVfs`] (deterministic
//!   seeded fault injection — errors, ENOSPC, short writes, latency)
//!   in chaos tests.
//! * [`retry`] — bounded retry-with-backoff for transient I/O errors,
//!   used by callers that sit between a flaky disk and a deadline.
//! * [`codec`] — the typed payload layer for the two blob families the
//!   reproduction persists: rendered `(experiment, config)` result blobs
//!   and RLE operand-trace archives, both behind a versioned envelope so
//!   a format bump invalidates cleanly instead of misdecoding.
//!
//! Everything is `std`-only. The store assumes a single writing process
//! per directory (the serving deployment shape); concurrent readers in
//! the same process are fine — [`Store`] is `Sync`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod block_cache;
pub mod bloom;
pub mod codec;
pub mod memtable;
pub mod retry;
pub mod segment;
pub mod store;
pub mod vfs;
pub mod wal;

pub use block_cache::{BlockCache, CachedBlock};
pub use bloom::Bloom;
pub use codec::{CodecError, ResultBlob};
pub use retry::RetryPolicy;
pub use store::{Store, StoreConfig, StoreStats};
pub use vfs::{FaultConfig, FaultKind, FaultOp, FaultStats, FaultVfs, RealVfs, ScheduledFault, Vfs};

use std::fmt;
use std::io;
use std::path::PathBuf;

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), the checksum
/// guarding WAL records and segment regions. Slicing-by-8: eight lookup
/// tables consume the input a u64 at a time, which matters because this
/// runs on every WAL append, every segment span read, and every block
/// cache fill (hits trust the stored CRC until a parse fails). No deps.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    static TABLES: std::sync::OnceLock<[[u32; 256]; 8]> = std::sync::OnceLock::new();
    let tables = TABLES.get_or_init(|| {
        let mut tables = [[0u32; 256]; 8];
        for (i, slot) in tables[0].iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 == 1 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            }
            *slot = crc;
        }
        // tables[k][b] = the CRC of byte b followed by k zero bytes, so
        // eight table hits fold eight input bytes at once.
        #[allow(clippy::needless_range_loop)]
        for i in 0..256 {
            let mut crc = tables[0][i];
            for k in 1..8 {
                crc = (crc >> 8) ^ tables[0][(crc & 0xFF) as usize];
                tables[k][i] = crc;
            }
        }
        tables
    });
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in chunks.by_ref() {
        let lo = u32::from_le_bytes(chunk[0..4].try_into().expect("4 bytes")) ^ crc;
        let hi = u32::from_le_bytes(chunk[4..8].try_into().expect("4 bytes"));
        crc = tables[7][(lo & 0xFF) as usize]
            ^ tables[6][((lo >> 8) & 0xFF) as usize]
            ^ tables[5][((lo >> 16) & 0xFF) as usize]
            ^ tables[4][(lo >> 24) as usize]
            ^ tables[3][(hi & 0xFF) as usize]
            ^ tables[2][((hi >> 8) & 0xFF) as usize]
            ^ tables[1][((hi >> 16) & 0xFF) as usize]
            ^ tables[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ tables[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// Everything that can go wrong opening or operating a [`Store`].
#[derive(Debug)]
pub enum StoreError {
    /// An underlying filesystem operation failed.
    Io {
        /// What the store was doing.
        context: String,
        /// The OS error.
        source: io::Error,
    },
    /// A segment file failed validation (bad magic, version, or checksum).
    /// Segments are written to a temp file and renamed, so this indicates
    /// bit rot or external tampering — never a crash mid-write.
    CorruptSegment {
        /// The offending file.
        path: PathBuf,
        /// What failed to validate.
        detail: String,
    },
    /// The directory carries a store format marker from an incompatible
    /// version of this crate.
    FormatMismatch {
        /// The marker found on disk.
        found: String,
        /// The marker this build writes.
        expected: String,
    },
}

impl StoreError {
    /// An [`StoreError::Io`] with its context in one call — used
    /// throughout this crate and by layers wrapping store operations.
    #[must_use]
    pub fn io(context: impl Into<String>, source: io::Error) -> Self {
        StoreError::Io { context: context.into(), source }
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { context, source } => write!(f, "{context}: {source}"),
            StoreError::CorruptSegment { path, detail } => {
                write!(f, "corrupt segment {}: {detail}", path.display())
            }
            StoreError::FormatMismatch { found, expected } => {
                write!(f, "store format {found:?} is not this build's {expected:?}")
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // The canonical IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"a"), crc32(b"b"));
    }

    #[test]
    fn crc32_sliced_path_matches_the_bytewise_definition() {
        // Lengths straddling the 8-byte fold boundary, bytes that
        // exercise every table row over enough input.
        let data: Vec<u8> = (0..4096u32).map(|i| (i.wrapping_mul(167) >> 3) as u8).collect();
        let bytewise = |bytes: &[u8]| -> u32 {
            let mut crc = 0xFFFF_FFFFu32;
            for &b in bytes {
                crc ^= u32::from(b);
                for _ in 0..8 {
                    crc = if crc & 1 == 1 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
                }
            }
            !crc
        };
        for len in [0, 1, 7, 8, 9, 15, 16, 63, 64, 100, 4096] {
            assert_eq!(crc32(&data[..len]), bytewise(&data[..len]), "len {len}");
        }
    }

    #[test]
    fn error_display_names_the_failure() {
        let e = StoreError::FormatMismatch { found: "v0".into(), expected: "v1".into() };
        assert!(e.to_string().contains("v0") && e.to_string().contains("v1"));
        let e = StoreError::CorruptSegment { path: "/x/seg".into(), detail: "bad crc".into() };
        assert!(e.to_string().contains("bad crc"));
    }
}
