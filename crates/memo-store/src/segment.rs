//! Immutable sorted segment files with a sparse in-memory index and a
//! persisted per-segment bloom filter.
//!
//! A segment is one memtable flush (or one compaction output), laid out
//! for cheap point lookups without loading the data into memory:
//!
//! ```text
//! header : magic "MSEG" | version u16 LE | reserved u16
//! data   : entries sorted by key, each
//!          [op: u8 (1 = put, 2 = tombstone)]
//!          [klen: u32 LE] [key] (put only: [vlen: u32 LE] [value])
//! index  : [count: u32 LE] then, for every SPARSE_EVERY-th entry,
//!          [klen: u32 LE] [key] [file offset: u64 LE]
//! bloom  : serialized [`Bloom`] over every key (incl. tombstones);
//!          empty when the store was configured with 0 bits/key
//! footer : [data_off u64][index_off u64][bloom_off u64][entry_count u64]
//!          [data_crc u32][index_crc u32][bloom_crc u32][index_count u32]
//!          | magic "GESM"
//! ```
//!
//! Version 1 files (no bloom region, 40-byte footer) remain readable:
//! `open` detects them by the header version and rebuilds the filter
//! from the data region, so old stores upgrade in place on recovery.
//!
//! Writers stream to `<name>.tmp`, `rename` into place, and fsync the
//! *parent directory* — a rename is only crash-durable once the dir
//! entry itself is on stable storage. A crash mid-flush therefore never
//! leaves a half-segment under a live name, and a published segment
//! cannot vanish with the directory cache. `open` validates all region
//! checksums and the footer framing, so bit rot is detected rather than
//! served. Lookups consult the bloom filter (callers use
//! [`Segment::maybe_contains`] to skip files entirely), then
//! binary-search the sparse index for the greatest indexed key ≤ target
//! and scan forward at most `SPARSE_EVERY` entries — the classic SSTable
//! read path, optionally short-circuited by the checksummed
//! [`BlockCache`] so hot spans skip the disk read.

use std::path::{Path, PathBuf};
use std::sync::Mutex;

use crate::block_cache::BlockCache;
use crate::bloom::{self, Bloom};
use crate::vfs::{Vfs, VfsFile};
use crate::{crc32, StoreError};

const MAGIC_HEAD: &[u8; 4] = b"MSEG";
const MAGIC_FOOT: &[u8; 4] = b"GESM";
const VERSION: u16 = 2;
const VERSION_V1: u16 = 1;
const HEADER_LEN: u64 = 8;
const FOOTER_LEN_V1: u64 = 8 + 8 + 8 + 4 + 4 + 4 + 4; // 3 u64s, 3 u32s, magic
const FOOTER_LEN: u64 = 8 + 8 + 8 + 8 + 4 + 4 + 4 + 4 + 4; // 4 u64s, 4 u32s, magic

/// Bits/key used when rebuilding the filter for a version-1 segment
/// (which recorded no sizing preference of its own).
const REBUILD_BLOOM_BITS: u32 = 10;

/// Every how many entries the sparse index records a (key, offset) pair.
pub const SPARSE_EVERY: usize = 16;

/// Lookup result: `Some(Some(v))` live value, `Some(None)` tombstone,
/// `None` not present in this segment.
pub type Lookup = Option<Option<Vec<u8>>>;

/// Full segment contents in key order; `None` values are tombstones.
pub type Entries = Vec<(Vec<u8>, Option<Vec<u8>>)>;

const OP_PUT: u8 = 1;
const OP_TOMBSTONE: u8 = 2;

/// Serialize one data entry.
fn encode_entry(out: &mut Vec<u8>, key: &[u8], value: Option<&[u8]>) {
    match value {
        Some(v) => {
            out.push(OP_PUT);
            out.extend_from_slice(&(u32::try_from(key.len()).expect("key fits u32")).to_le_bytes());
            out.extend_from_slice(key);
            out.extend_from_slice(&(u32::try_from(v.len()).expect("value fits u32")).to_le_bytes());
            out.extend_from_slice(v);
        }
        None => {
            out.push(OP_TOMBSTONE);
            out.extend_from_slice(&(u32::try_from(key.len()).expect("key fits u32")).to_le_bytes());
            out.extend_from_slice(key);
        }
    }
}

/// Write a segment from `entries` (must be sorted by key, newest version
/// only) to `path` atomically, with a bloom filter at `bloom_bits_per_key`
/// bits per key (0 disables the filter — every probe then reads the
/// index span). Returns the entry count and file size.
///
/// A failed write never leaves anything visible: the temp file is
/// removed on every error path (write, fsync, or rename failure), and if
/// the *directory* fsync after the rename fails, the just-published file
/// is removed again — an un-synced dir entry is not durable, so the
/// caller must retry rather than believe a publish that could vanish.
///
/// # Errors
///
/// [`StoreError::Io`] on filesystem failures.
pub fn write<'a>(
    vfs: &dyn Vfs,
    path: &Path,
    entries: impl Iterator<Item = (&'a [u8], Option<&'a [u8]>)>,
    fsync: bool,
    bloom_bits_per_key: u32,
) -> Result<(u64, u64), StoreError> {
    let mut data = Vec::new();
    let mut index: Vec<u8> = Vec::new();
    let mut hashes: Vec<(u64, u64)> = Vec::new();
    let mut index_count: u32 = 0;
    let mut entry_count: u64 = 0;
    for (key, value) in entries {
        if entry_count.is_multiple_of(SPARSE_EVERY as u64) {
            index.extend_from_slice(
                &(u32::try_from(key.len()).expect("key fits u32")).to_le_bytes(),
            );
            index.extend_from_slice(key);
            index.extend_from_slice(&(HEADER_LEN + data.len() as u64).to_le_bytes());
            index_count += 1;
        }
        if bloom_bits_per_key > 0 {
            // Tombstones too: a probe for a deleted key must reach this
            // segment's tombstone, not fall through to an older value.
            hashes.push(bloom::hash_pair(key));
        }
        encode_entry(&mut data, key, value);
        entry_count += 1;
    }
    let bloom_bytes = if bloom_bits_per_key > 0 {
        Bloom::from_hashes(&hashes, bloom_bits_per_key).to_bytes()
    } else {
        Vec::new()
    };

    let mut out = Vec::with_capacity(
        HEADER_LEN as usize + data.len() + index.len() + bloom_bytes.len() + 64,
    );
    out.extend_from_slice(MAGIC_HEAD);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&[0u8; 2]);
    let data_off = out.len() as u64;
    out.extend_from_slice(&data);
    let index_off = out.len() as u64;
    out.extend_from_slice(&index_count.to_le_bytes());
    out.extend_from_slice(&index);
    let bloom_off = out.len() as u64;
    out.extend_from_slice(&bloom_bytes);
    out.extend_from_slice(&data_off.to_le_bytes());
    out.extend_from_slice(&index_off.to_le_bytes());
    out.extend_from_slice(&bloom_off.to_le_bytes());
    out.extend_from_slice(&entry_count.to_le_bytes());
    out.extend_from_slice(&crc32(&data).to_le_bytes());
    out.extend_from_slice(&crc32(&index).to_le_bytes());
    out.extend_from_slice(&crc32(&bloom_bytes).to_le_bytes());
    out.extend_from_slice(&index_count.to_le_bytes()); // footer copy, framing check
    out.extend_from_slice(MAGIC_FOOT);

    let tmp = path.with_extension("tmp");
    let publish = || -> Result<(), StoreError> {
        let mut file = vfs
            .create(&tmp)
            .map_err(|e| StoreError::io(format!("create segment {}", tmp.display()), e))?;
        file.append(&out).map_err(|e| StoreError::io("write segment", e))?;
        if fsync {
            file.sync().map_err(|e| StoreError::io("fsync segment", e))?;
        }
        drop(file);
        vfs.rename(&tmp, path)
            .map_err(|e| StoreError::io(format!("rename segment into {}", path.display()), e))?;
        if fsync {
            if let Err(e) = vfs.sync_dir(path.parent().unwrap_or_else(|| Path::new("."))) {
                // The rename landed but its dir entry is not durable: a
                // crash could un-publish it. Withdraw the segment so the
                // caller retries from a clean state (the WAL still holds
                // the data).
                let _ = vfs.remove_file(path);
                return Err(StoreError::io("fsync segment directory", e));
            }
        }
        Ok(())
    };
    if let Err(e) = publish() {
        let _ = vfs.remove_file(&tmp);
        return Err(e);
    }
    Ok((entry_count, out.len() as u64))
}

/// One sparse-index point.
#[derive(Debug, Clone)]
struct IndexPoint {
    key: Vec<u8>,
    offset: u64,
}

/// Parse a run of data-region entries out of `buf` (offsets relative to
/// the buffer). Shared by [`Segment::scan_all`] and the version-1 bloom
/// rebuild.
fn parse_entries(path: &Path, buf: &[u8]) -> Result<Entries, StoreError> {
    let mut out = Vec::new();
    let mut at = 0usize;
    while at < buf.len() {
        let op = buf[at];
        let klen = buf
            .get(at + 1..at + 5)
            .map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")) as usize)
            .ok_or_else(|| Segment::corrupt(path, "entry truncated"))?;
        let kend = at + 5 + klen;
        let key = buf
            .get(at + 5..kend)
            .ok_or_else(|| Segment::corrupt(path, "key truncated"))?
            .to_vec();
        match op {
            OP_TOMBSTONE => {
                out.push((key, None));
                at = kend;
            }
            OP_PUT => {
                let vlen = buf
                    .get(kend..kend + 4)
                    .map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")) as usize)
                    .ok_or_else(|| Segment::corrupt(path, "value length truncated"))?;
                let value = buf
                    .get(kend + 4..kend + 4 + vlen)
                    .ok_or_else(|| Segment::corrupt(path, "value truncated"))?
                    .to_vec();
                out.push((key, Some(value)));
                at = kend + 4 + vlen;
            }
            other => return Err(Segment::corrupt(path, format!("unknown entry op {other}"))),
        }
    }
    Ok(out)
}

/// Per-read accounting for the store's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReadAcct {
    /// Bytes actually read from disk (0 on a block-cache hit).
    pub disk_bytes: u64,
    /// The span came out of the block cache with a matching checksum.
    pub cache_hit: bool,
    /// The span was consulted in the cache but absent or failed its
    /// checksum (a miss that fell through to disk).
    pub cache_miss: bool,
}

/// An open, validated segment: sparse index and bloom filter in memory,
/// data on disk.
pub struct Segment {
    path: PathBuf,
    /// Stable identity for block-cache keys: the `seg-NNNNNNNN` sequence
    /// number when the filename has one, else a hash of the path.
    id: u64,
    file: Mutex<Box<dyn VfsFile>>,
    index: Vec<IndexPoint>,
    bloom: Option<Bloom>,
    data_off: u64,
    index_off: u64,
    entries: u64,
    file_len: u64,
}

impl std::fmt::Debug for Segment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Segment")
            .field("path", &self.path)
            .field("entries", &self.entries)
            .field("file_len", &self.file_len)
            .field("bloom", &self.bloom.is_some())
            .finish_non_exhaustive()
    }
}

/// Derive a stable segment id from its path (sequence number when the
/// store's `seg-NNNNNNNN.seg` naming is in use, FNV-1a of the path
/// otherwise).
fn segment_id(path: &Path) -> u64 {
    let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or_default();
    if let Some(seq) = stem.strip_prefix("seg-").and_then(|d| d.parse::<u64>().ok()) {
        return seq;
    }
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in path.to_string_lossy().as_bytes() {
        h = (h ^ u64::from(*b)).wrapping_mul(0x1_0000_01B3);
    }
    h
}

impl Segment {
    fn corrupt(path: &Path, detail: impl Into<String>) -> StoreError {
        StoreError::CorruptSegment { path: path.to_path_buf(), detail: detail.into() }
    }

    /// Open and validate the segment at `path` (checks magic, version,
    /// and every region CRC — a full read once, then lookups seek).
    /// Version-1 files get their bloom filter rebuilt from the data
    /// region; version-2 files load the persisted, checksummed one.
    ///
    /// # Errors
    ///
    /// [`StoreError::CorruptSegment`] when validation fails;
    /// [`StoreError::Io`] on filesystem failures.
    pub fn open(vfs: &dyn Vfs, path: &Path) -> Result<Segment, StoreError> {
        let mut file = vfs
            .open_read(path)
            .map_err(|e| StoreError::io(format!("open segment {}", path.display()), e))?;
        let bytes = file
            .read_all()
            .map_err(|e| StoreError::io(format!("read segment {}", path.display()), e))?;
        let len = bytes.len() as u64;
        if len < HEADER_LEN + FOOTER_LEN_V1 || &bytes[..4] != MAGIC_HEAD {
            return Err(Self::corrupt(path, "missing header"));
        }
        let version = u16::from_le_bytes(bytes[4..6].try_into().expect("2 bytes"));
        let footer_len = match version {
            VERSION_V1 => FOOTER_LEN_V1,
            VERSION => FOOTER_LEN,
            v => return Err(Self::corrupt(path, format!("unknown version {v}"))),
        };
        if len < HEADER_LEN + footer_len {
            return Err(Self::corrupt(path, "file shorter than its footer"));
        }
        let foot = &bytes[(len - footer_len) as usize..];
        if &foot[footer_len as usize - 4..] != MAGIC_FOOT {
            return Err(Self::corrupt(path, "missing footer magic"));
        }
        let u64_at = |b: &[u8], at: usize| u64::from_le_bytes(b[at..at + 8].try_into().expect("8"));
        let u32_at = |b: &[u8], at: usize| u32::from_le_bytes(b[at..at + 4].try_into().expect("4"));
        // The v2 footer inserts bloom_off after index_off and bloom_crc
        // after index_crc; v1 fields otherwise line up.
        let (data_off, index_off, bloom_off, entries, data_crc, index_crc, bloom_crc, index_count_footer) =
            if version == VERSION {
                (
                    u64_at(foot, 0),
                    u64_at(foot, 8),
                    Some(u64_at(foot, 16)),
                    u64_at(foot, 24),
                    u32_at(foot, 32),
                    u32_at(foot, 36),
                    u32_at(foot, 40),
                    u32_at(foot, 44),
                )
            } else {
                (
                    u64_at(foot, 0),
                    u64_at(foot, 8),
                    None,
                    u64_at(foot, 16),
                    u32_at(foot, 24),
                    u32_at(foot, 28),
                    0,
                    u32_at(foot, 32),
                )
            };
        let regions_end = len - footer_len;
        let index_end = bloom_off.unwrap_or(regions_end);
        if data_off != HEADER_LEN
            || index_off < data_off
            || index_off + 4 > index_end
            || index_end > regions_end
        {
            return Err(Self::corrupt(path, "offsets out of range"));
        }
        let data = &bytes[data_off as usize..index_off as usize];
        if crc32(data) != data_crc {
            return Err(Self::corrupt(path, "data checksum mismatch"));
        }
        let index_bytes = &bytes[index_off as usize + 4..index_end as usize];
        if crc32(index_bytes) != index_crc {
            return Err(Self::corrupt(path, "index checksum mismatch"));
        }
        let index_count = u32_at(&bytes, index_off as usize);
        if index_count != index_count_footer {
            return Err(Self::corrupt(path, "index count mismatch"));
        }
        let bloom = match bloom_off {
            Some(off) => {
                let bloom_bytes = &bytes[off as usize..regions_end as usize];
                if crc32(bloom_bytes) != bloom_crc {
                    return Err(Self::corrupt(path, "bloom checksum mismatch"));
                }
                if bloom_bytes.is_empty() {
                    None // written with bloom disabled
                } else {
                    Some(
                        Bloom::from_bytes(bloom_bytes)
                            .ok_or_else(|| Self::corrupt(path, "bloom region malformed"))?,
                    )
                }
            }
            None => {
                // Version-1 segment: no persisted filter. Rebuild from
                // the (already checksummed) data region so old stores
                // gain the skip-probe path on recovery.
                let keys = parse_entries(path, data)?;
                Some(Bloom::build(keys.iter().map(|(k, _)| k.as_slice()), REBUILD_BLOOM_BITS))
            }
        };

        // Decode the sparse index.
        let mut index = Vec::with_capacity(index_count as usize);
        let mut at = 0usize;
        for _ in 0..index_count {
            let klen = *index_bytes
                .get(at..at + 4)
                .and_then(|b| Some(u32::from_le_bytes(b.try_into().ok()?)))
                .as_ref()
                .ok_or_else(|| Self::corrupt(path, "index truncated"))?
                as usize;
            let key = index_bytes
                .get(at + 4..at + 4 + klen)
                .ok_or_else(|| Self::corrupt(path, "index key truncated"))?
                .to_vec();
            let offset = index_bytes
                .get(at + 4 + klen..at + 12 + klen)
                .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
                .ok_or_else(|| Self::corrupt(path, "index offset truncated"))?;
            if offset < data_off || offset > index_off {
                return Err(Self::corrupt(path, "index offset out of range"));
            }
            index.push(IndexPoint { key, offset });
            at += 12 + klen;
        }
        if at != index_bytes.len() {
            return Err(Self::corrupt(path, "index trailing bytes"));
        }

        Ok(Segment {
            path: path.to_path_buf(),
            id: segment_id(path),
            file: Mutex::new(file),
            index,
            bloom,
            data_off,
            index_off,
            entries,
            file_len: len,
        })
    }

    /// Number of entries (live + tombstones).
    #[must_use]
    pub fn entries(&self) -> u64 {
        self.entries
    }

    /// On-disk size in bytes.
    #[must_use]
    pub fn file_len(&self) -> u64 {
        self.file_len
    }

    /// The file path (for deletion after compaction).
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The block-cache identity of this segment.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Bloom-filter verdict: `false` means `key` is definitely not here
    /// and the probe can be skipped; `true` means "maybe" (always, when
    /// the segment was written with the filter disabled).
    #[must_use]
    pub fn maybe_contains(&self, key: &[u8]) -> bool {
        self.bloom.as_ref().is_none_or(|b| b.contains(key))
    }

    /// Whether this segment carries a bloom filter (persisted or rebuilt).
    /// Callers use it to tell "filter said maybe but the key was absent"
    /// (a countable false positive) from "no filter to ask".
    #[must_use]
    pub fn has_bloom(&self) -> bool {
        self.bloom.is_some()
    }

    /// Look up `key`: `Some(Some(v))` live value, `Some(None)` tombstone,
    /// `None` not present in this segment. Also returns bytes read from
    /// disk for the caller's accounting.
    ///
    /// # Errors
    ///
    /// As [`get_with_cache`](Self::get_with_cache).
    pub fn get(&self, key: &[u8]) -> Result<(Lookup, u64), StoreError> {
        self.get_with_cache(key, None).map(|(l, acct)| (l, acct.disk_bytes))
    }

    /// [`get`](Self::get), optionally short-circuited by a checksummed
    /// block cache. The cacheable unit is one sparse-index span: on a
    /// miss the span read from disk is inserted with its CRC; a hit is
    /// parsed directly (the whole point of the cache is that hot serves
    /// stop paying read + re-verify). The stored CRC arbitrates parse
    /// failures: if the cached bytes no longer match it, the entry was
    /// corrupted in memory and the probe falls through to disk; if they
    /// still match, the corruption is real — it came from the segment —
    /// and the error propagates.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on read failures, [`StoreError::CorruptSegment`]
    /// if the data region does not parse (defense in depth — the CRC was
    /// already verified at open).
    pub fn get_with_cache(
        &self,
        key: &[u8],
        cache: Option<&dyn BlockCache>,
    ) -> Result<(Lookup, ReadAcct), StoreError> {
        let mut acct = ReadAcct::default();
        // Greatest indexed key <= target.
        let slot = self.index.partition_point(|p| p.key.as_slice() <= key);
        if slot == 0 {
            return Ok((None, acct)); // target sorts before the first key
        }
        let start = self.index[slot - 1].offset;
        let end = self.index.get(slot).map_or(self.index_off, |p| p.offset);
        let span = usize::try_from(end - start).expect("segment spans fit usize");

        if let Some(cache) = cache {
            match cache.get(self.id, start) {
                Some(block) if block.1.len() == span => match self.scan_span(&block.1, key) {
                    Ok(found) => {
                        acct.cache_hit = true;
                        return Ok((found, acct));
                    }
                    // Unparseable: the CRC recorded at fill time says
                    // whether the bytes rotted in cache (mismatch — fall
                    // through to disk and re-fill) or were bad from the
                    // start (match — surface the corruption).
                    Err(err) => {
                        if crc32(&block.1) == block.0 {
                            return Err(err);
                        }
                        acct.cache_miss = true;
                    }
                },
                // Absent, or the wrong length for this span: read from
                // disk and (re-)insert.
                _ => acct.cache_miss = true,
            }
        }

        let mut buf = vec![0u8; span];
        {
            let mut file = self.file.lock().expect("segment file poisoned");
            file.read_exact_at(start, &mut buf)
                .map_err(|e| StoreError::io("read segment span", e))?;
        }
        acct.disk_bytes = span as u64;
        if let Some(cache) = cache {
            cache.put(self.id, start, crc32(&buf), buf.clone());
        }
        Ok((self.scan_span(&buf, key)?, acct))
    }

    /// Scan one sparse-index span for `key` (early exit once past it).
    fn scan_span(&self, buf: &[u8], key: &[u8]) -> Result<Lookup, StoreError> {
        let mut at = 0usize;
        while at < buf.len() {
            let (op, rest) = (buf[at], at + 1);
            let klen = buf
                .get(rest..rest + 4)
                .map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")) as usize)
                .ok_or_else(|| Self::corrupt(&self.path, "entry truncated"))?;
            let kend = rest + 4 + klen;
            let k = buf.get(rest + 4..kend).ok_or_else(|| Self::corrupt(&self.path, "key truncated"))?;
            match op {
                OP_TOMBSTONE => {
                    if k == key {
                        return Ok(Some(None));
                    }
                    if k > key {
                        return Ok(None);
                    }
                    at = kend;
                }
                OP_PUT => {
                    let vlen = buf
                        .get(kend..kend + 4)
                        .map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")) as usize)
                        .ok_or_else(|| Self::corrupt(&self.path, "value length truncated"))?;
                    if k == key {
                        let v = buf
                            .get(kend + 4..kend + 4 + vlen)
                            .ok_or_else(|| Self::corrupt(&self.path, "value truncated"))?;
                        return Ok(Some(Some(v.to_vec())));
                    }
                    if k > key {
                        return Ok(None);
                    }
                    at = kend + 4 + vlen;
                }
                other => {
                    return Err(Self::corrupt(&self.path, format!("unknown entry op {other}")))
                }
            }
        }
        Ok(None)
    }

    /// Stream every entry in key order — compaction's input.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] / [`StoreError::CorruptSegment`] as in [`get`](Self::get).
    pub fn scan_all(&self) -> Result<Entries, StoreError> {
        let span = usize::try_from(self.index_off - self.data_off).expect("span fits usize");
        let mut buf = vec![0u8; span];
        {
            let mut file = self.file.lock().expect("segment file poisoned");
            file.read_exact_at(self.data_off, &mut buf)
                .map_err(|e| StoreError::io("read segment data", e))?;
        }
        parse_entries(&self.path, &buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block_cache::CachedBlock;
    use crate::vfs::{FaultConfig, FaultKind, FaultOp, FaultVfs, RealVfs, ScheduledFault};
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// `name` in a fresh directory of its own, so tests running in
    /// parallel share none; [`remove_tmp`] deletes the directory.
    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("memo-seg-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn remove_tmp(path: &Path) {
        let _ = std::fs::remove_dir_all(path.parent().expect("a tmp path has a directory"));
    }

    fn sample() -> Vec<(Vec<u8>, Option<Vec<u8>>)> {
        // > SPARSE_EVERY entries so multiple index points exist.
        let mut entries: Vec<(Vec<u8>, Option<Vec<u8>>)> = (0..50u32)
            .map(|i| (format!("key-{i:04}").into_bytes(), Some(vec![i as u8; 10 + i as usize])))
            .collect();
        entries[7].1 = None; // a tombstone mid-run
        entries
    }

    fn write_sample(path: &Path, entries: &Entries, bloom_bits: u32) -> (u64, u64) {
        write(
            &RealVfs,
            path,
            entries.iter().map(|(k, v)| (k.as_slice(), v.as_deref())),
            true,
            bloom_bits,
        )
        .unwrap()
    }

    /// Build a version-1 segment file byte-for-byte (the pre-bloom
    /// format), for the upgrade-path tests.
    fn write_v1_file(path: &Path, entries: &Entries) {
        let mut data = Vec::new();
        let mut index: Vec<u8> = Vec::new();
        let mut index_count: u32 = 0;
        for (n, (key, value)) in entries.iter().enumerate() {
            if n % SPARSE_EVERY == 0 {
                index.extend_from_slice(&(u32::try_from(key.len()).unwrap()).to_le_bytes());
                index.extend_from_slice(key);
                index.extend_from_slice(&(HEADER_LEN + data.len() as u64).to_le_bytes());
                index_count += 1;
            }
            encode_entry(&mut data, key, value.as_deref());
        }
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC_HEAD);
        out.extend_from_slice(&VERSION_V1.to_le_bytes());
        out.extend_from_slice(&[0u8; 2]);
        let data_off = out.len() as u64;
        out.extend_from_slice(&data);
        let index_off = out.len() as u64;
        out.extend_from_slice(&index_count.to_le_bytes());
        out.extend_from_slice(&index);
        out.extend_from_slice(&data_off.to_le_bytes());
        out.extend_from_slice(&index_off.to_le_bytes());
        out.extend_from_slice(&(entries.len() as u64).to_le_bytes());
        out.extend_from_slice(&crc32(&data).to_le_bytes());
        out.extend_from_slice(&crc32(&index).to_le_bytes());
        out.extend_from_slice(&index_count.to_le_bytes());
        out.extend_from_slice(MAGIC_FOOT);
        std::fs::write(path, out).unwrap();
    }

    #[test]
    fn roundtrips_every_entry_through_the_sparse_index() {
        let path = tmp("roundtrip.seg");
        let entries = sample();
        let (count, size) = write_sample(&path, &entries, 10);
        assert_eq!(count, 50);
        assert!(size > 0);
        let seg = Segment::open(&RealVfs, &path).unwrap();
        assert_eq!(seg.entries(), 50);
        assert!(seg.index.len() >= 2, "50 entries need >1 sparse point");
        for (k, v) in &entries {
            let (found, _bytes) = seg.get(k).unwrap();
            assert_eq!(found, Some(v.clone()), "key {:?}", String::from_utf8_lossy(k));
        }
        // Absent keys: before the first, between entries, after the last.
        assert_eq!(seg.get(b"aaa").unwrap().0, None);
        assert_eq!(seg.get(b"key-0007x").unwrap().0, None);
        assert_eq!(seg.get(b"zzz").unwrap().0, None);
        assert_eq!(seg.scan_all().unwrap(), entries);
        remove_tmp(&path);
    }

    #[test]
    fn detects_corruption_anywhere() {
        let path = tmp("corrupt.seg");
        let entries = sample();
        write(&RealVfs, &path, entries.iter().map(|(k, v)| (k.as_slice(), v.as_deref())), false, 10)
            .unwrap();
        let clean = std::fs::read(&path).unwrap();
        // Flip one byte at a spread of offsets; every variant must be
        // rejected at open (magic, version, region crcs, footer).
        for at in [0usize, 5, 9, clean.len() / 2, clean.len() - 30, clean.len() - 1] {
            let mut bad = clean.clone();
            bad[at] ^= 0x01;
            std::fs::write(&path, &bad).unwrap();
            assert!(
                matches!(Segment::open(&RealVfs, &path), Err(StoreError::CorruptSegment { .. })),
                "corruption at byte {at} must be detected"
            );
        }
        // Truncation too.
        std::fs::write(&path, &clean[..clean.len() - 10]).unwrap();
        assert!(Segment::open(&RealVfs, &path).is_err());
        remove_tmp(&path);
    }

    #[test]
    fn empty_segment_is_valid() {
        let path = tmp("empty.seg");
        write(&RealVfs, &path, std::iter::empty(), false, 10).unwrap();
        let seg = Segment::open(&RealVfs, &path).unwrap();
        assert_eq!(seg.entries(), 0);
        assert_eq!(seg.get(b"anything").unwrap().0, None);
        assert!(!seg.maybe_contains(b"anything"), "an empty segment contains nothing");
        remove_tmp(&path);
    }

    /// Satellite: a failed publish (rename, fsync — file *or* directory —
    /// or body write) must leave neither the temp file nor a visible
    /// segment behind.
    #[test]
    fn failed_publish_cleans_up_the_temp_file() {
        let entries = sample();
        let faults = [
            ("rename", ScheduledFault { op: FaultOp::Rename, nth: 1, kind: FaultKind::Error }),
            ("fsync", ScheduledFault { op: FaultOp::Fsync, nth: 1, kind: FaultKind::Error }),
            // Fsync #2 is the parent-directory sync after the rename:
            // the file landed under its final name, but the publish is
            // not durable, so the writer must withdraw it.
            ("dirsync", ScheduledFault { op: FaultOp::Fsync, nth: 2, kind: FaultKind::Error }),
            ("write", ScheduledFault { op: FaultOp::Write, nth: 1, kind: FaultKind::Enospc }),
            ("short", ScheduledFault { op: FaultOp::Write, nth: 1, kind: FaultKind::ShortWrite }),
        ];
        for (tag, fault) in faults {
            let path = tmp(&format!("cleanup-{tag}.seg"));
            let vfs =
                FaultVfs::new(FaultConfig { scheduled: vec![fault], ..FaultConfig::quiet(2) });
            let err = write(
                &vfs,
                &path,
                entries.iter().map(|(k, v)| (k.as_slice(), v.as_deref())),
                true,
                10,
            );
            assert!(err.is_err(), "{tag}: the injected fault must surface");
            assert!(!path.exists(), "{tag}: no half-segment may become visible");
            assert!(!path.with_extension("tmp").exists(), "{tag}: the temp file must be removed");
            // The same writer succeeds once the disk behaves again.
            write(&vfs, &path, entries.iter().map(|(k, v)| (k.as_slice(), v.as_deref())), true, 10)
                .unwrap();
            let seg = Segment::open(&vfs, &path).unwrap();
            assert_eq!(seg.entries(), 50);
            remove_tmp(&path);
        }
    }

    #[test]
    fn bloom_filter_persists_and_screens_absent_keys() {
        let path = tmp("bloom.seg");
        let entries = sample();
        write_sample(&path, &entries, 10);
        let seg = Segment::open(&RealVfs, &path).unwrap();
        for (k, _) in &entries {
            assert!(seg.maybe_contains(k), "no false negatives, ever");
        }
        assert!(seg.maybe_contains(b"key-0007"), "tombstoned keys must stay in the filter");
        let rejected = (0..1000)
            .filter(|i| !seg.maybe_contains(format!("absent-{i}").as_bytes()))
            .count();
        assert!(rejected > 900, "only {rejected}/1000 absent keys screened");
        remove_tmp(&path);
    }

    #[test]
    fn bloom_disabled_segments_always_say_maybe() {
        let path = tmp("nobloom.seg");
        let entries = sample();
        write_sample(&path, &entries, 0);
        let seg = Segment::open(&RealVfs, &path).unwrap();
        assert!(seg.bloom.is_none());
        assert!(seg.maybe_contains(b"definitely-absent"));
        assert_eq!(seg.get(b"key-0003").unwrap().0, Some(entries[3].1.clone()));
        remove_tmp(&path);
    }

    #[test]
    fn version_one_segments_open_with_a_rebuilt_bloom() {
        let path = tmp("v1.seg");
        let entries = sample();
        write_v1_file(&path, &entries);
        let seg = Segment::open(&RealVfs, &path).unwrap();
        assert!(seg.bloom.is_some(), "old-format segments must gain a filter at open");
        assert_eq!(seg.entries(), 50);
        for (k, v) in &entries {
            assert!(seg.maybe_contains(k));
            assert_eq!(seg.get(k).unwrap().0, Some(v.clone()));
        }
        assert!(
            (0..1000).any(|i| !seg.maybe_contains(format!("absent-{i}").as_bytes())),
            "the rebuilt filter must actually screen"
        );
        remove_tmp(&path);
    }

    #[test]
    fn bloom_region_corruption_is_detected_at_open() {
        let path = tmp("bloomcorrupt.seg");
        let entries = sample();
        write_sample(&path, &entries, 10);
        let clean = std::fs::read(&path).unwrap();
        // The bloom region sits between the index and the footer; flip a
        // byte inside it (12-byte bloom header is right after the index,
        // whose end we can find from the footer).
        let foot = &clean[clean.len() - FOOTER_LEN as usize..];
        let bloom_off = u64::from_le_bytes(foot[16..24].try_into().unwrap()) as usize;
        assert!(bloom_off + 12 < clean.len() - FOOTER_LEN as usize, "bloom region exists");
        let mut bad = clean.clone();
        bad[bloom_off + 13] ^= 0x40; // a word inside the bit array
        std::fs::write(&path, &bad).unwrap();
        let err = Segment::open(&RealVfs, &path).unwrap_err();
        assert!(
            matches!(&err, StoreError::CorruptSegment { detail, .. } if detail.contains("bloom")),
            "{err}"
        );
        remove_tmp(&path);
    }

    /// A test block cache: a locked map plus hit/put counters.
    #[derive(Debug, Default)]
    struct MapCache {
        map: Mutex<HashMap<(u64, u64), CachedBlock>>,
        gets: AtomicU64,
        puts: AtomicU64,
    }

    impl BlockCache for MapCache {
        fn get(&self, segment_id: u64, offset: u64) -> Option<CachedBlock> {
            self.gets.fetch_add(1, Ordering::Relaxed);
            self.map.lock().unwrap().get(&(segment_id, offset)).cloned()
        }
        fn put(&self, segment_id: u64, offset: u64, checksum: u32, block: Vec<u8>) {
            self.puts.fetch_add(1, Ordering::Relaxed);
            self.map.lock().unwrap().insert((segment_id, offset), Arc::new((checksum, block)));
        }
    }

    #[test]
    fn block_cache_serves_repeat_reads_and_rejects_corrupt_entries() {
        let path = tmp("blockcache.seg");
        let entries = sample();
        write_sample(&path, &entries, 10);
        let seg = Segment::open(&RealVfs, &path).unwrap();
        let cache = MapCache::default();

        let (found, acct) = seg.get_with_cache(b"key-0003", Some(&cache)).unwrap();
        assert_eq!(found, Some(entries[3].1.clone()));
        assert!(acct.cache_miss && !acct.cache_hit && acct.disk_bytes > 0, "{acct:?}");

        let (found, acct) = seg.get_with_cache(b"key-0003", Some(&cache)).unwrap();
        assert_eq!(found, Some(entries[3].1.clone()));
        assert!(acct.cache_hit && acct.disk_bytes == 0, "{acct:?}");
        // A different key in the same span hits the same cached block.
        let (found, acct) = seg.get_with_cache(b"key-0005", Some(&cache)).unwrap();
        assert_eq!(found, Some(entries[5].1.clone()));
        assert!(acct.cache_hit, "{acct:?}");
        assert_eq!(cache.puts.load(Ordering::Relaxed), 1);

        // Corrupt the cached bytes under their checksum: the next read
        // must fall through to disk and still answer correctly.
        {
            let mut map = cache.map.lock().unwrap();
            let entry = map.values_mut().next().unwrap();
            let (crc, mut bytes) = (**entry).clone();
            bytes[0] ^= 0xFF;
            *entry = Arc::new((crc, bytes));
        }
        let (found, acct) = seg.get_with_cache(b"key-0003", Some(&cache)).unwrap();
        assert_eq!(found, Some(entries[3].1.clone()));
        assert!(acct.cache_miss && acct.disk_bytes > 0, "corrupt entry must not serve: {acct:?}");
        remove_tmp(&path);
    }
}
