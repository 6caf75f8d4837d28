//! The store proper: WAL + memtable + segments + compaction behind one
//! thread-safe handle.
//!
//! Read path (the paper's probe protocol, one level up): the memtable
//! first (newest), then segments newest → oldest; the first tier that
//! knows the key answers, with tombstones shadowing older live values.
//! Segment probes are screened by per-segment bloom filters and served
//! through an optional checksummed block cache.
//!
//! Write path: WAL append (durability point), then memtable. A write that
//! finds the memtable at its byte threshold flushes it first, on its own
//! thread and under the store's lock, the way a MEMO-TABLE miss inserts
//! its result on the spot: it writes, opens and installs the segment,
//! resets the WAL, and runs a full compaction once the segment count
//! reaches its threshold. Crash ordering is segment-then-WAL-reset, so
//! every committed write lives in the WAL or in a segment at all times.
//! A flush or compaction error fails the write before its append, so an
//! `Err` from any write still means "not committed".

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use crate::block_cache::BlockCache;
use crate::memtable::MemTable;
use crate::segment::{self, Segment};
use crate::vfs::{RealVfs, Vfs};
use crate::wal::{Wal, WalOp};
use crate::StoreError;

/// Tuning knobs for [`Store::open`].
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Flush the memtable into a segment before the next write once it
    /// holds this many bytes.
    pub memtable_max_bytes: usize,
    /// `fsync` after every WAL append and segment write (including the
    /// directory fsync that makes a segment's rename durable). Turn off
    /// only in tests and benchmarks where the OS page cache is
    /// durability enough.
    pub fsync: bool,
    /// Run a full compaction after the flush that brings the segment
    /// count to this many.
    pub compact_at_segments: usize,
    /// Bloom-filter budget per segment entry, in bits (0 disables the
    /// filter for newly written segments). 10 bits/key ≈ 1% false
    /// positives.
    pub bloom_bits_per_key: u32,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            memtable_max_bytes: 4 << 20,
            fsync: true,
            compact_at_segments: 8,
            bloom_bits_per_key: 10,
        }
    }
}

impl StoreConfig {
    /// A config suited to tests: tiny memtable, no fsync, early
    /// compaction.
    #[must_use]
    pub fn small_for_tests() -> Self {
        StoreConfig {
            memtable_max_bytes: 256,
            fsync: false,
            compact_at_segments: 4,
            bloom_bits_per_key: 10,
        }
    }
}

/// Operation counters, all monotonic since open (except the size
/// gauges).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// `get` calls answered from the memtable.
    pub memtable_hits: u64,
    /// `get` calls answered from a segment file.
    pub segment_hits: u64,
    /// `get` calls that found nothing (or a tombstone).
    pub misses: u64,
    /// `put`/`delete` calls accepted.
    pub writes: u64,
    /// Memtable flushes completed.
    pub flushes: u64,
    /// Compactions performed.
    pub compactions: u64,
    /// Bytes read from segment files while serving gets.
    pub bytes_read: u64,
    /// Bytes appended to the WAL.
    pub bytes_written: u64,
    /// Live segment files right now.
    pub segments: u64,
    /// Total bytes across live segment files.
    pub segment_bytes: u64,
    /// Entries currently buffered in the memtable.
    pub memtable_entries: u64,
    /// Approximate bytes currently buffered in the memtable.
    pub memtable_bytes: u64,
    /// Operations replayed from the WAL at open.
    pub recovered_ops: u64,
    /// `true` when open found (and truncated) a torn or corrupt WAL tail.
    pub recovered_torn_tail: bool,
    /// Flush and compaction attempts that failed. Each one also failed
    /// the write or barrier that ran it.
    pub flush_failures: u64,
    /// Segment probes skipped because the bloom filter ruled the key out.
    pub bloom_negatives: u64,
    /// Segment probes the bloom filter allowed that found nothing — the
    /// filter's false positives.
    pub bloom_false_positives: u64,
    /// Segment spans served from the block cache (checksum verified).
    pub block_cache_hits: u64,
    /// Segment spans the block cache was asked for but could not serve.
    pub block_cache_misses: u64,
}

#[derive(Default)]
struct Counters {
    memtable_hits: AtomicU64,
    segment_hits: AtomicU64,
    misses: AtomicU64,
    writes: AtomicU64,
    flushes: AtomicU64,
    compactions: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
    flush_failures: AtomicU64,
    bloom_negatives: AtomicU64,
    bloom_false_positives: AtomicU64,
    block_cache_hits: AtomicU64,
    block_cache_misses: AtomicU64,
}

struct Inner {
    wal: Wal,
    memtable: MemTable,
    /// Newest first — lookup order. `Arc` so reads snapshot the set and
    /// probe outside the lock.
    segments: Vec<Arc<Segment>>,
    /// Sequence number for the next segment file name.
    next_seq: u64,
}

/// A log-structured, crash-safe KV store rooted at one directory.
/// All methods take `&self`; a single `Mutex` serializes mutation (the
/// workload is coarse blobs, not hot small keys), and the write that
/// crosses the memtable watermark pays for the flush it triggers.
pub struct Store {
    dir: PathBuf,
    config: StoreConfig,
    vfs: Arc<dyn Vfs>,
    inner: Mutex<Inner>,
    counters: Counters,
    block_cache: OnceLock<Arc<dyn BlockCache>>,
    recovered_ops: u64,
    recovered_torn_tail: bool,
}

impl std::fmt::Debug for Store {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Store").field("dir", &self.dir).finish_non_exhaustive()
    }
}

fn segment_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("seg-{seq:08}.seg"))
}

impl Store {
    /// Open (creating if needed) the store rooted at `dir`: load and
    /// validate every segment, recover the WAL into a fresh memtable, and
    /// truncate any damaged log tail.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failures and
    /// [`StoreError::CorruptSegment`] when a segment fails validation —
    /// segments are written atomically, so corruption means bit rot, and
    /// refusing to open beats silently serving damage.
    pub fn open(dir: &Path, config: StoreConfig) -> Result<Store, StoreError> {
        Self::open_with_vfs(dir, config, Arc::new(RealVfs))
    }

    /// [`open`](Self::open) on an explicit [`Vfs`] — the chaos-testing
    /// entry point: hand in a `FaultVfs` and every byte of store I/O
    /// runs through the injector.
    ///
    /// # Errors
    ///
    /// As [`open`](Self::open).
    pub fn open_with_vfs(
        dir: &Path,
        config: StoreConfig,
        vfs: Arc<dyn Vfs>,
    ) -> Result<Store, StoreError> {
        vfs.create_dir_all(dir)
            .map_err(|e| StoreError::io(format!("create store dir {}", dir.display()), e))?;

        // Collect `seg-*.seg` segments. A stray `.tmp` is a flush that
        // crashed before its rename, so it is dead; a `wal-*.log` is a
        // frozen log left by an older build, which flushed in the
        // background. The store holds only derived artifacts, so losing
        // one costs a recompute.
        let mut seg_files: Vec<(u64, PathBuf)> = Vec::new();
        let entries = vfs
            .list_dir(dir)
            .map_err(|e| StoreError::io(format!("list store dir {}", dir.display()), e))?;
        for path in entries {
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else { continue };
            if name.ends_with(".tmp") || (name.starts_with("wal-") && name.ends_with(".log")) {
                let _ = vfs.remove_file(&path);
                continue;
            }
            if let Some(seq) = name
                .strip_prefix("seg-")
                .and_then(|rest| rest.strip_suffix(".seg"))
                .and_then(|digits| digits.parse::<u64>().ok())
            {
                seg_files.push((seq, path));
            }
        }

        // Newest (highest seq) first: lookup order.
        seg_files.sort_by_key(|(seq, _)| std::cmp::Reverse(*seq));
        let next_seq = seg_files.first().map_or(0, |(seq, _)| seq + 1);
        let mut segments = Vec::with_capacity(seg_files.len());
        for (_, path) in &seg_files {
            segments.push(Arc::new(Segment::open(vfs.as_ref(), path)?));
        }

        let (wal, recovery) = Wal::open(vfs.as_ref(), &dir.join("wal.log"), config.fsync)?;
        let recovered_ops = recovery.ops.len() as u64;
        let mut memtable = MemTable::new();
        for op in recovery.ops {
            match op {
                WalOp::Put { key, value } => memtable.put(key, value),
                WalOp::Delete { key } => memtable.delete(key),
            }
        }

        Ok(Store {
            dir: dir.to_path_buf(),
            config,
            vfs,
            inner: Mutex::new(Inner { wal, memtable, segments, next_seq }),
            counters: Counters::default(),
            block_cache: OnceLock::new(),
            recovered_ops,
            recovered_torn_tail: recovery.tail_damaged,
        })
    }

    /// Plug a checksummed block cache under every segment read. First
    /// call wins; later calls are ignored (the cache is process wiring,
    /// set once at startup).
    pub fn attach_block_cache(&self, cache: Arc<dyn BlockCache>) {
        let _ = self.block_cache.set(cache);
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().expect("store poisoned")
    }

    /// Look up `key` across all tiers. `Ok(None)` covers both "never
    /// written" and "deleted".
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] / [`StoreError::CorruptSegment`] from the
    /// segment read path.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, StoreError> {
        let c = &self.counters;
        // The memtable and the segment snapshot under one lock hold: a
        // flush installs its segment and empties the memtable under the
        // same lock, so nothing committed can fall between tiers.
        let segments: Vec<Arc<Segment>> = {
            let inner = self.lock();
            if let Some(hit) = inner.memtable.get(key) {
                return match hit {
                    Some(v) => {
                        c.memtable_hits.fetch_add(1, Ordering::Relaxed);
                        Ok(Some(v.to_vec()))
                    }
                    None => {
                        c.misses.fetch_add(1, Ordering::Relaxed);
                        Ok(None) // tombstone shadows older tiers
                    }
                };
            }
            inner.segments.clone()
        };
        let cache = self.block_cache.get().map(|c| c.as_ref() as &dyn BlockCache);
        for seg in &segments {
            if !seg.maybe_contains(key) {
                c.bloom_negatives.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            let (found, acct) = seg.get_with_cache(key, cache)?;
            c.bytes_read.fetch_add(acct.disk_bytes, Ordering::Relaxed);
            if acct.cache_hit {
                c.block_cache_hits.fetch_add(1, Ordering::Relaxed);
            }
            if acct.cache_miss {
                c.block_cache_misses.fetch_add(1, Ordering::Relaxed);
            }
            match found {
                Some(Some(v)) => {
                    c.segment_hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(Some(v));
                }
                Some(None) => {
                    c.misses.fetch_add(1, Ordering::Relaxed);
                    return Ok(None); // tombstone
                }
                None => {
                    if seg.has_bloom() {
                        c.bloom_false_positives.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }
        c.misses.fetch_add(1, Ordering::Relaxed);
        Ok(None)
    }

    /// Write `key` → `value` durably (WAL first, then memtable), after
    /// flushing the memtable if it has reached its watermark.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] from the WAL append or from the flush or
    /// compaction this write ran. Either way the write is not
    /// committed.
    pub fn put(&self, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
        self.write(WalOp::Put { key: key.to_vec(), value: value.to_vec() })
    }

    /// Record a tombstone for `key`.
    ///
    /// # Errors
    ///
    /// As [`put`](Self::put).
    pub fn delete(&self, key: &[u8]) -> Result<(), StoreError> {
        self.write(WalOp::Delete { key: key.to_vec() })
    }

    fn write(&self, op: WalOp) -> Result<(), StoreError> {
        let mut inner = self.lock();
        if inner.memtable.approx_bytes() >= self.config.memtable_max_bytes {
            self.flush_locked(&mut inner, false)?;
        }
        let written = inner.wal.append(&op)?;
        self.counters.bytes_written.fetch_add(written as u64, Ordering::Relaxed);
        self.counters.writes.fetch_add(1, Ordering::Relaxed);
        match op {
            WalOp::Put { key, value } => inner.memtable.put(key, value),
            WalOp::Delete { key } => inner.memtable.delete(key),
        }
        Ok(())
    }

    /// Flush a non-empty memtable: write its segment, install it, then
    /// reset the WAL it supersedes. Then run a full compaction when
    /// `compact` asks for one or the segment count has reached its
    /// threshold. A failed segment write leaves the memtable and the WAL
    /// as they were; a failed reset leaves the WAL holding records the
    /// installed segment also holds, which a replay applies harmlessly.
    fn flush_locked(&self, inner: &mut Inner, mut compact: bool) -> Result<(), StoreError> {
        if !inner.memtable.is_empty() {
            let seg = self
                .write_segment(inner.next_seq, inner.memtable.iter())
                .map_err(|e| self.failed(e))?;
            inner.next_seq += 1;
            inner.segments.insert(0, Arc::new(seg));
            inner.memtable.clear();
            self.counters.flushes.fetch_add(1, Ordering::Relaxed);
            inner.wal.reset().map_err(|e| self.failed(e))?;
            compact |= inner.segments.len() >= self.config.compact_at_segments;
        }
        if compact {
            self.compact_locked(inner).map_err(|e| self.failed(e))?;
        }
        Ok(())
    }

    /// Count a failed flush or compaction and pass its error on.
    fn failed(&self, e: StoreError) -> StoreError {
        self.counters.flush_failures.fetch_add(1, Ordering::Relaxed);
        e
    }

    /// Merge every segment into one, newest version wins, tombstones
    /// dropped (nothing older survives for them to shadow).
    fn compact_locked(&self, inner: &mut Inner) -> Result<(), StoreError> {
        if inner.segments.len() <= 1 {
            return Ok(());
        }
        // Scan oldest → newest into a map so newer versions overwrite
        // older ones.
        let mut merged: HashMap<Vec<u8>, Option<Vec<u8>>> = HashMap::new();
        for seg in inner.segments.iter().rev() {
            merged.extend(seg.scan_all()?);
        }
        let mut live: Vec<(Vec<u8>, Vec<u8>)> =
            merged.into_iter().filter_map(|(k, v)| v.map(|v| (k, v))).collect();
        live.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let seg = self.write_segment(
            inner.next_seq,
            live.iter().map(|(k, v)| (k.as_slice(), Some(v.as_slice()))),
        )?;
        inner.next_seq += 1;
        let old = std::mem::replace(&mut inner.segments, vec![Arc::new(seg)]);
        self.counters.compactions.fetch_add(1, Ordering::Relaxed);
        // The merge is durable under a newer sequence number; a crash
        // while deleting old files leaves shadowed-but-consistent
        // duplicates for the next compaction.
        for seg in old {
            let _ = self.vfs.remove_file(seg.path());
        }
        Ok(())
    }

    /// Write `entries` as segment `seq` and open it. A file that was
    /// written but fails to open is removed again.
    fn write_segment<'a>(
        &self,
        seq: u64,
        entries: impl Iterator<Item = (&'a [u8], Option<&'a [u8]>)>,
    ) -> Result<Segment, StoreError> {
        let path = segment_path(&self.dir, seq);
        let vfs = self.vfs.as_ref();
        segment::write(vfs, &path, entries, self.config.fsync, self.config.bloom_bits_per_key)?;
        Segment::open(vfs, &path).inspect_err(|_| {
            let _ = vfs.remove_file(&path);
        })
    }

    /// Flush the memtable into a segment now (compacting if that brings
    /// the segment count to its threshold). No-op when nothing is
    /// buffered.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] from the segment write, the WAL reset or the
    /// compaction. The buffered writes stay in the WAL and the memtable
    /// (or in the installed segment), so a later flush retries.
    pub fn flush(&self) -> Result<(), StoreError> {
        self.flush_locked(&mut self.lock(), false)
    }

    /// Merge every segment into one, keeping only the newest version of
    /// each key and dropping tombstones. Flushes the memtable first so
    /// the result is the complete state.
    ///
    /// # Errors
    ///
    /// As [`flush`](Self::flush), plus compaction-merge failures.
    pub fn compact(&self) -> Result<(), StoreError> {
        self.flush_locked(&mut self.lock(), true)
    }

    /// Delete every key and segment — the format-bump invalidation path.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failures.
    pub fn clear(&self) -> Result<(), StoreError> {
        let mut inner = self.lock();
        inner.memtable.clear();
        inner.wal.reset()?;
        for seg in std::mem::take(&mut inner.segments) {
            self.vfs
                .remove_file(seg.path())
                .map_err(|e| StoreError::io("remove segment on clear", e))?;
        }
        Ok(())
    }

    /// The store directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// A snapshot of all counters and gauges.
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        let inner = self.lock();
        let c = &self.counters;
        StoreStats {
            memtable_hits: c.memtable_hits.load(Ordering::Relaxed),
            segment_hits: c.segment_hits.load(Ordering::Relaxed),
            misses: c.misses.load(Ordering::Relaxed),
            writes: c.writes.load(Ordering::Relaxed),
            flushes: c.flushes.load(Ordering::Relaxed),
            compactions: c.compactions.load(Ordering::Relaxed),
            bytes_read: c.bytes_read.load(Ordering::Relaxed),
            bytes_written: c.bytes_written.load(Ordering::Relaxed),
            segments: inner.segments.len() as u64,
            segment_bytes: inner.segments.iter().map(|s| s.file_len()).sum(),
            memtable_entries: inner.memtable.len() as u64,
            memtable_bytes: inner.memtable.approx_bytes() as u64,
            recovered_ops: self.recovered_ops,
            recovered_torn_tail: self.recovered_torn_tail,
            flush_failures: c.flush_failures.load(Ordering::Relaxed),
            bloom_negatives: c.bloom_negatives.load(Ordering::Relaxed),
            bloom_false_positives: c.bloom_false_positives.load(Ordering::Relaxed),
            block_cache_hits: c.block_cache_hits.load(Ordering::Relaxed),
            block_cache_misses: c.block_cache_misses.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::{FaultConfig, FaultKind, FaultOp, FaultVfs, ScheduledFault};
    use crate::wal;
    use std::sync::atomic::AtomicU32;

    fn tmp_dir(tag: &str) -> PathBuf {
        static N: AtomicU32 = AtomicU32::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("memo-store-{tag}-{}-{n}", std::process::id()))
    }

    #[test]
    fn survives_reopen_through_wal_and_segments() {
        let dir = tmp_dir("reopen");
        {
            let store = Store::open(&dir, StoreConfig::small_for_tests()).unwrap();
            for i in 0..40u32 {
                store.put(format!("k{i:03}").as_bytes(), &[i as u8; 40]).unwrap();
            }
            store.delete(b"k005").unwrap();
            // No explicit flush: some state is in segments (writes flush
            // at 256 bytes), the rest only in the WAL.
        }
        let store = Store::open(&dir, StoreConfig::small_for_tests()).unwrap();
        assert_eq!(store.get(b"k003").unwrap(), Some(vec![3u8; 40]));
        assert_eq!(store.get(b"k039").unwrap(), Some(vec![39u8; 40]));
        assert_eq!(store.get(b"k005").unwrap(), None, "tombstone survives reopen");
        assert_eq!(store.get(b"absent").unwrap(), None);
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn newest_version_wins_across_tiers() {
        let dir = tmp_dir("versions");
        let store = Store::open(&dir, StoreConfig::small_for_tests()).unwrap();
        store.put(b"k", b"old").unwrap();
        store.flush().unwrap(); // "old" now lives in a segment
        store.put(b"k", b"new").unwrap(); // memtable shadows it
        assert_eq!(store.get(b"k").unwrap(), Some(b"new".to_vec()));
        store.flush().unwrap(); // both versions in segments, newest first
        assert_eq!(store.get(b"k").unwrap(), Some(b"new".to_vec()));
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_reclaims_superseded_keys_and_tombstones() {
        let dir = tmp_dir("compact");
        let store = Store::open(&dir, StoreConfig::small_for_tests()).unwrap();
        for round in 0..3 {
            for i in 0..10u32 {
                store.put(format!("k{i}").as_bytes(), &[round; 64]).unwrap();
            }
            store.flush().unwrap();
        }
        store.delete(b"k9").unwrap();
        store.compact().unwrap();
        let stats = store.stats();
        assert_eq!(stats.segments, 1, "full compaction leaves one segment");
        for i in 0..9u32 {
            assert_eq!(store.get(format!("k{i}").as_bytes()).unwrap(), Some(vec![2u8; 64]));
        }
        assert_eq!(store.get(b"k9").unwrap(), None, "tombstone dropped, key gone");
        // Reopen sees the compacted state.
        drop(store);
        let store = Store::open(&dir, StoreConfig::small_for_tests()).unwrap();
        assert_eq!(store.get(b"k0").unwrap(), Some(vec![2u8; 64]));
        assert_eq!(store.get(b"k9").unwrap(), None);
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_track_tiers_and_bytes() {
        let dir = tmp_dir("stats");
        let store = Store::open(&dir, StoreConfig::small_for_tests()).unwrap();
        store.put(b"mem", b"v").unwrap();
        assert_eq!(store.get(b"mem").unwrap(), Some(b"v".to_vec()));
        store.flush().unwrap();
        assert_eq!(store.get(b"mem").unwrap(), Some(b"v".to_vec()));
        assert_eq!(store.get(b"gone").unwrap(), None);
        let stats = store.stats();
        assert_eq!(stats.memtable_hits, 1);
        assert_eq!(stats.segment_hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.writes, 1);
        assert_eq!(stats.flushes, 1);
        assert!(stats.bytes_written > 0);
        assert!(stats.segment_bytes > 0);
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn clear_wipes_everything() {
        let dir = tmp_dir("clear");
        let store = Store::open(&dir, StoreConfig::small_for_tests()).unwrap();
        store.put(b"a", b"1").unwrap();
        store.flush().unwrap();
        store.put(b"b", b"2").unwrap();
        store.clear().unwrap();
        assert_eq!(store.get(b"a").unwrap(), None);
        assert_eq!(store.get(b"b").unwrap(), None);
        drop(store);
        let store = Store::open(&dir, StoreConfig::default()).unwrap();
        assert_eq!(store.get(b"a").unwrap(), None);
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_put_stays_readable_through_inline_flushes() {
        let dir = tmp_dir("inline-read");
        let store = Store::open(&dir, StoreConfig::small_for_tests()).unwrap();
        for i in 0..200u32 {
            let key = format!("k{i:04}");
            store.put(key.as_bytes(), &[i as u8; 48]).unwrap();
            // An acked write must be visible in whichever tier holds it.
            assert_eq!(store.get(key.as_bytes()).unwrap(), Some(vec![i as u8; 48]));
        }
        for i in 0..200u32 {
            let key = format!("k{i:04}");
            assert_eq!(store.get(key.as_bytes()).unwrap(), Some(vec![i as u8; 48]));
        }
        let stats = store.stats();
        assert!(stats.flushes > 0, "watermark crossings flushed: {stats:?}");
        assert!(stats.compactions > 0, "segment counts reached the threshold: {stats:?}");
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_write_after_the_watermark_flushes_before_its_append() {
        let dir = tmp_dir("watermark");
        let config = StoreConfig { compact_at_segments: 3, ..StoreConfig::small_for_tests() };
        let store = Store::open(&dir, config).unwrap();
        // Each entry is charged 126 bytes: two stay under the 256-byte
        // watermark, the third crosses it.
        let fill = |tag: u8| {
            for i in 0..3u8 {
                store.put(&[tag, i], &[i; 60]).unwrap();
            }
        };
        fill(b'a');
        let stats = store.stats();
        assert_eq!((stats.flushes, stats.memtable_entries), (0, 3), "{stats:?}");
        // The next write finds the memtable full and flushes it first.
        store.put(b"b", b"after").unwrap();
        let stats = store.stats();
        assert_eq!((stats.flushes, stats.segments, stats.memtable_entries), (1, 1, 1), "{stats:?}");
        store.flush().unwrap();
        fill(b'c');
        // This flush brings the segment count to 3, so it compacts too.
        store.put(b"d", b"last").unwrap();
        let stats = store.stats();
        assert_eq!(
            (stats.flushes, stats.compactions, stats.segments, stats.memtable_entries),
            (3, 1, 1, 1),
            "{stats:?}"
        );
        drop(store);
        let store = Store::open(&dir, StoreConfig::small_for_tests()).unwrap();
        assert_eq!(store.stats().recovered_ops, 1, "only the last write waits in the WAL");
        assert_eq!(store.get(&[b'a', 2]).unwrap(), Some(vec![2; 60]));
        assert_eq!(store.get(b"b").unwrap(), Some(b"after".to_vec()));
        assert_eq!(store.get(&[b'c', 1]).unwrap(), Some(vec![1; 60]));
        assert_eq!(store.get(b"d").unwrap(), Some(b"last".to_vec()));
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_flush_fails_the_write_before_its_append() {
        let dir = tmp_dir("flush-fault");
        // Writes 1-3 are WAL appends; write 4 is the segment body of the
        // flush that the fourth put runs first.
        let vfs = Arc::new(FaultVfs::new(FaultConfig {
            scheduled: vec![ScheduledFault { op: FaultOp::Write, nth: 4, kind: FaultKind::Enospc }],
            ..FaultConfig::quiet(3)
        }));
        let store =
            Store::open_with_vfs(&dir, StoreConfig::small_for_tests(), vfs.clone()).unwrap();
        for i in 0..3u8 {
            store.put(&[b'a', i], &[i; 60]).unwrap();
        }
        assert!(store.put(b"b", b"lost").is_err(), "the failed flush fails the put");
        let stats = store.stats();
        assert_eq!((stats.flushes, stats.flush_failures, stats.writes), (0, 1, 3), "{stats:?}");
        assert_eq!(store.get(b"b").unwrap(), None, "a failed put is not committed");
        assert_eq!(store.get(&[b'a', 1]).unwrap(), Some(vec![1; 60]));
        // The next write retries the flush.
        store.put(b"b", b"kept").unwrap();
        assert_eq!(store.stats().flushes, 1);
        drop(store);
        let store = Store::open(&dir, StoreConfig::small_for_tests()).unwrap();
        assert_eq!(store.get(b"b").unwrap(), Some(b"kept".to_vec()));
        assert_eq!(store.get(&[b'a', 0]).unwrap(), Some(vec![0; 60]));
        assert_eq!(vfs.stats().injected, [0, 1, 0, 0]);
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_removes_temp_files_and_frozen_logs_of_older_builds() {
        let dir = tmp_dir("leftovers");
        {
            let store = Store::open(&dir, StoreConfig::small_for_tests()).unwrap();
            store.put(b"kept", b"v").unwrap();
        }
        // A frozen log from a build that flushed in the background, and a
        // segment whose rename never happened.
        let frozen =
            wal::encode_record(&WalOp::Put { key: b"frozen".to_vec(), value: b"f".to_vec() });
        std::fs::write(dir.join("wal-00000000.log"), &frozen).unwrap();
        std::fs::write(dir.join("seg-00000000.tmp"), b"half a segment").unwrap();
        let store = Store::open(&dir, StoreConfig::small_for_tests()).unwrap();
        assert_eq!(store.get(b"kept").unwrap(), Some(b"v".to_vec()));
        assert_eq!(store.get(b"frozen").unwrap(), None, "frozen logs are not replayed");
        assert_eq!(store.stats().recovered_ops, 1);
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        assert_eq!(names, ["wal.log"]);
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bloom_screens_absent_keys_from_segment_probes() {
        let dir = tmp_dir("bloom-neg");
        let store = Store::open(&dir, StoreConfig::small_for_tests()).unwrap();
        for i in 0..32u32 {
            store.put(format!("present-{i:04}").as_bytes(), &[1u8; 32]).unwrap();
        }
        store.flush().unwrap();
        for i in 0..64u32 {
            assert_eq!(store.get(format!("absent-{i:04}").as_bytes()).unwrap(), None);
        }
        let stats = store.stats();
        assert_eq!(stats.misses, 64);
        assert!(stats.bloom_negatives > 0, "absent keys were screened: {stats:?}");
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
