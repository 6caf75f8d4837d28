//! The store proper: WAL + memtable + frozen memtables + segments +
//! compaction behind one thread-safe handle, with flush and compaction
//! on a dedicated background thread.
//!
//! Read path (the paper's probe protocol, one level up): active memtable
//! first (newest), then frozen memtables newest → oldest, then segments
//! newest → oldest; the first tier that knows the key answers, with
//! tombstones shadowing older live values. Segment probes are screened
//! by per-segment bloom filters and served through an optional
//! checksummed block cache.
//!
//! Write path: WAL append (durability point), then active memtable; when
//! the memtable passes its byte threshold it is *frozen* — the active
//! WAL is renamed to `wal-{gen}.log`, a fresh one opened, and the full
//! table pushed onto a bounded queue for the flush thread. Writers never
//! wait for segment I/O; they wait only when the queue is full
//! (backpressure). Crash ordering is segment-then-WAL-delete, so every
//! committed write lives in either a frozen log or its segment at all
//! times, and recovery turns leftover frozen logs back into segments.
//!
//! [`Store::flush`] and [`Store::compact`] remain synchronous barriers
//! (freeze, then wait for the background thread to drain), and dropping
//! the store drains the queue — one attempt per pending table, with
//! failures leaving their frozen logs for the next open.

use std::collections::{HashMap, VecDeque};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::time::Duration;

use crate::block_cache::BlockCache;
use crate::memtable::MemTable;
use crate::segment::{self, Segment};
use crate::vfs::{RealVfs, Vfs};
use crate::wal::{self, Wal, WalOp};
use crate::StoreError;

/// Tuning knobs for [`Store::open`].
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Freeze the memtable for background flush once it holds this many
    /// bytes.
    pub memtable_max_bytes: usize,
    /// `fsync` after every WAL append and segment write (including the
    /// directory fsync that makes a segment's rename durable). Turn off
    /// only in tests and benchmarks where the OS page cache is
    /// durability enough.
    pub fsync: bool,
    /// Request a full compaction automatically once this many segments
    /// exist.
    pub compact_at_segments: usize,
    /// Backpressure bound: a write that needs to freeze the memtable
    /// blocks while this many frozen tables already await flushing.
    pub max_immutables: usize,
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
            max_immutables: 4,
            bloom_bits_per_key: 10,
        }
    }
}

impl StoreConfig {
    /// A config suited to tests: tiny memtable, no fsync, short queue.
    #[must_use]
    pub fn small_for_tests() -> Self {
        StoreConfig {
            memtable_max_bytes: 256,
            fsync: false,
            compact_at_segments: 4,
            max_immutables: 2,
            bloom_bits_per_key: 10,
        }
    }

}

/// Operation counters, all monotonic since open (except the queue-depth
/// gauge).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// `get` calls answered from the active or a frozen memtable.
    pub memtable_hits: u64,
    /// `get` calls answered from a segment file.
    pub segment_hits: u64,
    /// `get` calls that found nothing (or a tombstone).
    pub misses: u64,
    /// `put`/`delete` calls accepted.
    pub writes: u64,
    /// Memtable flushes completed by the background thread.
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
    /// Entries currently buffered in the active memtable.
    pub memtable_entries: u64,
    /// Approximate bytes currently buffered in the active memtable.
    pub memtable_bytes: u64,
    /// Operations replayed from WALs (active and frozen) at open.
    pub recovered_ops: u64,
    /// `true` when open found (and truncated) a torn or corrupt WAL tail.
    pub recovered_torn_tail: bool,
    /// Frozen memtables awaiting background flush right now (gauge).
    pub flush_queue_depth: u64,
    /// Deepest the flush queue has been since open.
    pub flush_queue_peak: u64,
    /// Background flush/compaction attempts that failed (each retry
    /// counts — the breaker wants every disk grievance).
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
    flush_queue_peak: AtomicU64,
}

/// A memtable frozen for background flush, still serving reads. Its
/// contents are durable in `wal_path`; `gen` doubles as the sequence
/// number of the segment it will become.
struct Frozen {
    table: Arc<MemTable>,
    wal_path: PathBuf,
    gen: u64,
}

struct Inner {
    wal: Wal,
    memtable: MemTable,
    /// Oldest first — flush order. Lookups scan newest → oldest.
    immutables: VecDeque<Frozen>,
    /// Newest first — lookup order. `Arc` so reads snapshot the set and
    /// probe outside the lock.
    segments: Vec<Arc<Segment>>,
    /// Sequence number for the next segment file name / freeze gen.
    next_seq: u64,
    /// Set by drop: the flusher drains and exits, barriers stop waiting.
    shutdown: bool,
    /// A full compaction is queued for the flusher (stays set while one
    /// runs, so barriers can wait on it).
    compact_requested: bool,
    /// Last background failure, for the error barriers surface.
    last_flush_error: Option<String>,
    /// Bumped on every background failure; barriers compare against a
    /// baseline to detect failures that happened on their watch.
    failures_seen: u64,
}

struct Shared {
    dir: PathBuf,
    config: StoreConfig,
    vfs: Arc<dyn Vfs>,
    inner: Mutex<Inner>,
    /// Signals the flusher: new frozen table, compaction request, shutdown.
    work: Condvar,
    /// Signals writers/barriers: queue drained a slot, compaction done,
    /// failure recorded.
    space: Condvar,
    counters: Counters,
    block_cache: OnceLock<Arc<dyn BlockCache>>,
    flush_observer: OnceLock<Box<dyn Fn(bool) + Send + Sync>>,
}

/// A log-structured, crash-safe KV store rooted at one directory.
/// All methods take `&self`; a single `Mutex` serializes mutation (the
/// workload is coarse blobs, not hot small keys), and segment I/O runs
/// on a background flush thread.
pub struct Store {
    shared: Arc<Shared>,
    flusher: Option<std::thread::JoinHandle<()>>,
    recovered_ops: u64,
    recovered_torn_tail: bool,
}

impl std::fmt::Debug for Store {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Store").field("dir", &self.shared.dir).finish_non_exhaustive()
    }
}

fn segment_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("seg-{seq:08}.seg"))
}

fn frozen_wal_path(dir: &Path, gen: u64) -> PathBuf {
    dir.join(format!("wal-{gen:08}.log"))
}

impl Store {
    /// Open (creating if needed) the store rooted at `dir`: load and
    /// validate every segment, turn frozen WALs left by a crash back
    /// into segments, recover the active WAL into a fresh memtable,
    /// truncate any damaged log tail, and start the background flush
    /// thread.
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

        // Collect `seg-*.seg` segments and `wal-*.log` frozen logs;
        // ignore stray `.tmp` leftovers from a crash mid-flush (their
        // rename never happened, so they are dead).
        let mut seg_files: Vec<(u64, PathBuf)> = Vec::new();
        let mut frozen_wals: Vec<(u64, PathBuf)> = Vec::new();
        let entries = vfs
            .list_dir(dir)
            .map_err(|e| StoreError::io(format!("list store dir {}", dir.display()), e))?;
        for path in entries {
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else { continue };
            if name.ends_with(".tmp") {
                let _ = vfs.remove_file(&path);
                continue;
            }
            if let Some(seq) = name
                .strip_prefix("seg-")
                .and_then(|rest| rest.strip_suffix(".seg"))
                .and_then(|digits| digits.parse::<u64>().ok())
            {
                seg_files.push((seq, path));
            } else if let Some(gen) = name
                .strip_prefix("wal-")
                .and_then(|rest| rest.strip_suffix(".log"))
                .and_then(|digits| digits.parse::<u64>().ok())
            {
                frozen_wals.push((gen, path));
            }
        }

        // A frozen WAL is a flush that never finished (or whose log
        // deletion was lost). Replay each into the segment it was headed
        // for — oldest first, so sequence order matches write order.
        frozen_wals.sort_by_key(|(gen, _)| *gen);
        let mut recovered_ops = 0u64;
        let mut recovered_torn_tail = false;
        for (gen, wal_path) in &frozen_wals {
            if seg_files.iter().any(|(seq, _)| seq == gen) {
                // The segment landed; only the log deletion was lost.
                let _ = vfs.remove_file(wal_path);
                continue;
            }
            let bytes = vfs
                .open_read(wal_path)
                .and_then(|mut f| f.read_all())
                .map_err(|e| {
                    StoreError::io(format!("read frozen wal {}", wal_path.display()), e)
                })?;
            let recovery = wal::scan(&bytes);
            recovered_ops += recovery.ops.len() as u64;
            recovered_torn_tail |= recovery.tail_damaged;
            if !recovery.ops.is_empty() {
                let mut table = MemTable::new();
                for op in recovery.ops {
                    match op {
                        WalOp::Put { key, value } => table.put(key, value),
                        WalOp::Delete { key } => table.delete(key),
                    }
                }
                let seg_path = segment_path(dir, *gen);
                segment::write(
                    vfs.as_ref(),
                    &seg_path,
                    table.iter(),
                    config.fsync,
                    config.bloom_bits_per_key,
                )?;
                seg_files.push((*gen, seg_path));
            }
            let _ = vfs.remove_file(wal_path);
        }

        // Newest (highest seq) first: lookup order.
        seg_files.sort_by_key(|(seq, _)| std::cmp::Reverse(*seq));
        let next_seq = seg_files
            .first()
            .map_or(0, |(seq, _)| seq + 1)
            .max(frozen_wals.last().map_or(0, |(gen, _)| gen + 1));
        let mut segments = Vec::with_capacity(seg_files.len());
        for (_, path) in &seg_files {
            segments.push(Arc::new(Segment::open(vfs.as_ref(), path)?));
        }

        let (active_wal, recovery) = Wal::open(vfs.as_ref(), &dir.join("wal.log"), config.fsync)?;
        let mut memtable = MemTable::new();
        for op in &recovery.ops {
            match op {
                WalOp::Put { key, value } => memtable.put(key.clone(), value.clone()),
                WalOp::Delete { key } => memtable.delete(key.clone()),
            }
        }
        recovered_ops += recovery.ops.len() as u64;
        recovered_torn_tail |= recovery.tail_damaged;

        let shared = Arc::new(Shared {
            dir: dir.to_path_buf(),
            config,
            vfs,
            inner: Mutex::new(Inner {
                wal: active_wal,
                memtable,
                immutables: VecDeque::new(),
                segments,
                next_seq,
                shutdown: false,
                compact_requested: false,
                last_flush_error: None,
                failures_seen: 0,
            }),
            work: Condvar::new(),
            space: Condvar::new(),
            counters: Counters::default(),
            block_cache: OnceLock::new(),
            flush_observer: OnceLock::new(),
        });
        let flusher = std::thread::Builder::new()
            .name("memo-store-flush".into())
            .spawn({
                let shared = Arc::clone(&shared);
                move || Self::flusher_loop(&shared)
            })
            .map_err(|e| StoreError::io("spawn flush thread", e))?;

        Ok(Store { shared, flusher: Some(flusher), recovered_ops, recovered_torn_tail })
    }

    /// Plug a checksummed block cache under every segment read. First
    /// call wins; later calls are ignored (the cache is process wiring,
    /// set once at startup).
    pub fn attach_block_cache(&self, cache: Arc<dyn BlockCache>) {
        let _ = self.shared.block_cache.set(cache);
    }

    /// Register an observer called with `true` after every successful
    /// background flush/compaction and `false` after a failure — the
    /// serving layer points this at its disk-tier circuit breaker so
    /// background disk trouble trips the same protections as foreground
    /// loads. Called outside the store lock. First call wins.
    pub fn set_flush_observer(&self, observer: Box<dyn Fn(bool) + Send + Sync>) {
        let _ = self.shared.flush_observer.set(observer);
    }

    fn notify_observer(shared: &Shared, ok: bool) {
        if let Some(observer) = shared.flush_observer.get() {
            observer(ok);
        }
    }

    fn record_flush_failure_locked(shared: &Shared, inner: &mut Inner, e: &StoreError) {
        shared.counters.flush_failures.fetch_add(1, Ordering::Relaxed);
        inner.last_flush_error = Some(e.to_string());
        inner.failures_seen += 1;
    }

    fn background_error(inner: &Inner) -> StoreError {
        let detail = inner.last_flush_error.clone().unwrap_or_else(|| "unknown failure".into());
        StoreError::io("background flush", io::Error::other(detail))
    }

    /// Look up `key` across all tiers. `Ok(None)` covers both "never
    /// written" and "deleted".
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] / [`StoreError::CorruptSegment`] from the
    /// segment read path.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, StoreError> {
        let shared = &self.shared;
        let c = &shared.counters;
        // Memory tiers and the segment snapshot under one lock hold:
        // the flusher installs a segment and pops its frozen table
        // atomically, so nothing committed can fall between tiers.
        let segments: Vec<Arc<Segment>> = {
            let inner = shared.inner.lock().expect("store poisoned");
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
            let mut frozen_hit = None;
            for frozen in inner.immutables.iter().rev() {
                if let Some(hit) = frozen.table.get(key) {
                    frozen_hit = Some(hit.map(<[u8]>::to_vec));
                    break;
                }
            }
            if let Some(hit) = frozen_hit {
                return match hit {
                    Some(v) => {
                        c.memtable_hits.fetch_add(1, Ordering::Relaxed);
                        Ok(Some(v))
                    }
                    None => {
                        c.misses.fetch_add(1, Ordering::Relaxed);
                        Ok(None)
                    }
                };
            }
            inner.segments.clone()
        };
        let cache = shared.block_cache.get().map(|c| c.as_ref() as &dyn BlockCache);
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

    /// Write `key` → `value` durably (WAL first, then memtable). Freezes
    /// the memtable for background flushing when the watermark is
    /// crossed; blocks only when the flush queue is full.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] — on error the write must be treated as not
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
        let shared = &self.shared;
        let mut inner = shared.inner.lock().expect("store poisoned");
        let written = inner.wal.append(&op)?;
        shared.counters.bytes_written.fetch_add(written as u64, Ordering::Relaxed);
        shared.counters.writes.fetch_add(1, Ordering::Relaxed);
        match op {
            WalOp::Put { key, value } => inner.memtable.put(key, value),
            WalOp::Delete { key } => inner.memtable.delete(key),
        }
        let mut freeze_failed = false;
        if inner.memtable.approx_bytes() >= shared.config.memtable_max_bytes {
            // Backpressure: hold the writer (not the flusher) while the
            // queue is full.
            while inner.immutables.len() >= shared.config.max_immutables && !inner.shutdown {
                inner = shared.space.wait(inner).expect("store poisoned");
            }
            if inner.memtable.approx_bytes() >= shared.config.memtable_max_bytes
                && !inner.shutdown
            {
                if let Err(e) = Self::freeze_locked(shared, &mut inner) {
                    // The write itself is durable in the WAL; the freeze
                    // can be retried at the next watermark crossing.
                    Self::record_flush_failure_locked(shared, &mut inner, &e);
                    freeze_failed = true;
                }
            }
        }
        drop(inner);
        if freeze_failed {
            Self::notify_observer(shared, false);
        }
        Ok(())
    }

    /// Freeze the active memtable: rename its WAL to `wal-{gen}.log`,
    /// open a fresh active WAL, and queue the table for the flusher.
    /// `gen` is one `next_seq` draw, reused as the segment's sequence
    /// number so the log and the segment it becomes share a name.
    fn freeze_locked(shared: &Shared, inner: &mut Inner) -> Result<(), StoreError> {
        if inner.memtable.is_empty() {
            return Ok(());
        }
        let gen = inner.next_seq;
        let frozen_path = frozen_wal_path(&shared.dir, gen);
        let active_path = shared.dir.join("wal.log");
        shared
            .vfs
            .rename(&active_path, &frozen_path)
            .map_err(|e| StoreError::io("freeze wal", e))?;
        let fresh = match Wal::open(shared.vfs.as_ref(), &active_path, shared.config.fsync) {
            Ok((wal, _)) => wal,
            Err(e) => {
                // Put the log back so the active memtable stays durable.
                let _ = shared.vfs.rename(&frozen_path, &active_path);
                return Err(e);
            }
        };
        inner.wal = fresh;
        inner.next_seq = gen + 1;
        let table = Arc::new(std::mem::replace(&mut inner.memtable, MemTable::new()));
        inner.immutables.push_back(Frozen { table, wal_path: frozen_path, gen });
        shared
            .counters
            .flush_queue_peak
            .fetch_max(inner.immutables.len() as u64, Ordering::Relaxed);
        shared.work.notify_one();
        Ok(())
    }

    /// The background thread: flush frozen tables oldest-first, run
    /// requested compactions, retry failures with backoff, drain on
    /// shutdown.
    fn flusher_loop(shared: &Arc<Shared>) {
        const BACKOFF_FLOOR: Duration = Duration::from_millis(2);
        const BACKOFF_CAP: Duration = Duration::from_millis(250);
        let mut backoff = BACKOFF_FLOOR;
        loop {
            let mut inner = shared.inner.lock().expect("store poisoned");
            while inner.immutables.is_empty() && !inner.compact_requested && !inner.shutdown {
                inner = shared.work.wait(inner).expect("store poisoned");
            }
            // Compaction runs BEFORE the next flush: under sustained
            // write load the queue is never empty, and a queue-first
            // policy would starve compaction forever — the segment
            // count (and with it every read) then grows without bound.
            // Draining on shutdown still wins: a skipped compaction
            // re-requests itself, a dropped flush loses a WAL.
            if inner.compact_requested {
                if inner.shutdown {
                    inner.compact_requested = false;
                } else {
                    Self::compact_step(shared, inner);
                    shared.space.notify_all();
                    continue;
                }
            }
            if let Some(front) = inner.immutables.front() {
                let table = Arc::clone(&front.table);
                let wal_path = front.wal_path.clone();
                let gen = front.gen;
                let shutting_down = inner.shutdown;
                drop(inner);

                let path = segment_path(&shared.dir, gen);
                let result = segment::write(
                    shared.vfs.as_ref(),
                    &path,
                    table.iter(),
                    shared.config.fsync,
                    shared.config.bloom_bits_per_key,
                )
                .and_then(|_| Segment::open(shared.vfs.as_ref(), &path));

                match result {
                    Ok(seg) => {
                        let mut inner = shared.inner.lock().expect("store poisoned");
                        let still_queued = inner
                            .immutables
                            .front()
                            .is_some_and(|f| Arc::ptr_eq(&f.table, &table));
                        if still_queued {
                            // Install and pop under one lock hold: a
                            // reader's snapshot always sees the data in
                            // exactly one tier.
                            inner.segments.insert(0, Arc::new(seg));
                            inner.immutables.pop_front();
                            if inner.segments.len() >= shared.config.compact_at_segments {
                                inner.compact_requested = true;
                            }
                            shared.counters.flushes.fetch_add(1, Ordering::Relaxed);
                            drop(inner);
                            // The segment is durable; its log is now
                            // redundant (recovery tolerates a lost delete).
                            let _ = shared.vfs.remove_file(&wal_path);
                            Self::notify_observer(shared, true);
                        } else {
                            // clear() won the race: the table is gone, so
                            // the segment must not become visible either.
                            drop(inner);
                            let _ = shared.vfs.remove_file(&path);
                        }
                        shared.space.notify_all();
                        backoff = BACKOFF_FLOOR;
                    }
                    Err(e) => {
                        let mut inner = shared.inner.lock().expect("store poisoned");
                        let still_queued = inner
                            .immutables
                            .front()
                            .is_some_and(|f| Arc::ptr_eq(&f.table, &table));
                        if still_queued {
                            Self::record_flush_failure_locked(shared, &mut inner, &e);
                            if shutting_down {
                                // Give up on this table: its frozen WAL
                                // stays on disk and the next open turns
                                // it into the segment we could not write.
                                inner.immutables.pop_front();
                            }
                        }
                        drop(inner);
                        shared.space.notify_all();
                        if still_queued {
                            Self::notify_observer(shared, false);
                            if !shutting_down {
                                let guard = shared.inner.lock().expect("store poisoned");
                                if !guard.shutdown {
                                    // Wake early on new work or shutdown.
                                    let _ = shared
                                        .work
                                        .wait_timeout(guard, backoff)
                                        .expect("store poisoned");
                                }
                                backoff = (backoff * 2).min(BACKOFF_CAP);
                            }
                        }
                    }
                }
                continue;
            }
            // Shutdown with an empty queue: drained (any compaction
            // request was cleared above; barriers observe `shutdown`).
            drop(inner);
            shared.space.notify_all();
            return;
        }
    }

    /// One full compaction on the flusher thread: snapshot the segment
    /// set, merge outside the lock, install only if the set is unchanged
    /// (only [`Store::clear`] can race — this thread is the sole
    /// installer). `compact_requested` stays set until the merge lands
    /// so barriers can wait on it.
    fn compact_step(shared: &Arc<Shared>, mut inner: MutexGuard<'_, Inner>) {
        if inner.segments.len() <= 1 {
            inner.compact_requested = false;
            return;
        }
        let snapshot: Vec<Arc<Segment>> = inner.segments.clone();
        let seq = inner.next_seq;
        inner.next_seq = seq + 1;
        drop(inner);

        let merge = || -> Result<Segment, StoreError> {
            // Newest-wins merge: scan oldest → newest into a map so
            // later (newer) versions overwrite earlier ones; tombstones
            // drop out (safe in a full merge — nothing older survives
            // for them to shadow).
            let mut merged: HashMap<Vec<u8>, Option<Vec<u8>>> = HashMap::new();
            for seg in snapshot.iter().rev() {
                for (key, value) in seg.scan_all()? {
                    merged.insert(key, value);
                }
            }
            let mut live: Vec<(Vec<u8>, Vec<u8>)> =
                merged.into_iter().filter_map(|(k, v)| v.map(|v| (k, v))).collect();
            live.sort_by(|a, b| a.0.cmp(&b.0));
            let path = segment_path(&shared.dir, seq);
            segment::write(
                shared.vfs.as_ref(),
                &path,
                live.iter().map(|(k, v)| (k.as_slice(), Some(v.as_slice()))),
                shared.config.fsync,
                shared.config.bloom_bits_per_key,
            )?;
            Segment::open(shared.vfs.as_ref(), &path)
        };

        match merge() {
            Ok(seg) => {
                let mut inner = shared.inner.lock().expect("store poisoned");
                inner.compact_requested = false;
                let unchanged = inner.segments.len() == snapshot.len()
                    && inner.segments.iter().zip(&snapshot).all(|(a, b)| Arc::ptr_eq(a, b));
                if unchanged {
                    let old = std::mem::replace(&mut inner.segments, vec![Arc::new(seg)]);
                    shared.counters.compactions.fetch_add(1, Ordering::Relaxed);
                    drop(inner);
                    // The merge is durable under a newer sequence number;
                    // a crash while deleting old files leaves
                    // shadowed-but-consistent duplicates for the next
                    // compaction.
                    for seg in old {
                        let _ = shared.vfs.remove_file(seg.path());
                    }
                    Self::notify_observer(shared, true);
                } else {
                    drop(inner);
                    let _ = shared.vfs.remove_file(seg.path());
                }
            }
            Err(e) => {
                let mut inner = shared.inner.lock().expect("store poisoned");
                // Do not retry in a hot loop; the next flush re-requests
                // compaction, and explicit callers get the error below.
                inner.compact_requested = false;
                Self::record_flush_failure_locked(shared, &mut inner, &e);
                drop(inner);
                Self::notify_observer(shared, false);
            }
        }
    }

    /// Freeze the memtable and wait for the background thread to flush
    /// everything queued — a synchronous barrier. No-op when nothing is
    /// buffered.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on freeze failures or any background flush
    /// failure that happened while waiting (the write data stays durable
    /// in its frozen WAL and the flusher keeps retrying).
    pub fn flush(&self) -> Result<(), StoreError> {
        let shared = &self.shared;
        let mut inner = shared.inner.lock().expect("store poisoned");
        Self::freeze_locked(shared, &mut inner)?;
        let baseline = inner.failures_seen;
        while !inner.immutables.is_empty() && !inner.shutdown {
            if inner.failures_seen > baseline {
                return Err(Self::background_error(&inner));
            }
            inner = shared.space.wait(inner).expect("store poisoned");
        }
        if inner.failures_seen > baseline {
            return Err(Self::background_error(&inner));
        }
        Ok(())
    }

    /// Merge every segment into one, keeping only the newest version of
    /// each key and dropping tombstones. Freezes the memtable first so
    /// the result is the complete state, then waits for the background
    /// thread to finish — a synchronous barrier.
    ///
    /// # Errors
    ///
    /// As [`flush`](Self::flush), plus compaction-merge failures.
    pub fn compact(&self) -> Result<(), StoreError> {
        let shared = &self.shared;
        let mut inner = shared.inner.lock().expect("store poisoned");
        Self::freeze_locked(shared, &mut inner)?;
        let baseline = inner.failures_seen;
        // Drain queued flushes before requesting the merge: the flusher
        // services compactions ahead of flushes (so sustained writes
        // can't starve them), which means a request posted now would
        // merge only the segments already on disk and leave the tables
        // frozen above as fresh segments — not the "complete state"
        // this barrier promises.
        while !inner.immutables.is_empty() && !inner.shutdown {
            if inner.failures_seen > baseline {
                return Err(Self::background_error(&inner));
            }
            inner = shared.space.wait(inner).expect("store poisoned");
        }
        inner.compact_requested = true;
        shared.work.notify_one();
        while (!inner.immutables.is_empty() || inner.compact_requested) && !inner.shutdown {
            if inner.failures_seen > baseline {
                return Err(Self::background_error(&inner));
            }
            inner = shared.space.wait(inner).expect("store poisoned");
        }
        if inner.failures_seen > baseline {
            return Err(Self::background_error(&inner));
        }
        Ok(())
    }

    /// Delete every key, frozen table, and segment — the format-bump
    /// invalidation path. An in-flight background flush of a dropped
    /// table notices (the queue entry it took is gone) and withdraws its
    /// segment instead of installing it.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failures.
    pub fn clear(&self) -> Result<(), StoreError> {
        let shared = &self.shared;
        let mut inner = shared.inner.lock().expect("store poisoned");
        inner.memtable.clear();
        inner.wal.reset()?;
        while let Some(frozen) = inner.immutables.pop_front() {
            let _ = shared.vfs.remove_file(&frozen.wal_path);
        }
        let old = std::mem::take(&mut inner.segments);
        for seg in &old {
            shared
                .vfs
                .remove_file(seg.path())
                .map_err(|e| StoreError::io("remove segment on clear", e))?;
        }
        drop(inner);
        shared.space.notify_all();
        Ok(())
    }

    /// The store directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.shared.dir
    }

    /// A snapshot of all counters and gauges.
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        let inner = self.shared.inner.lock().expect("store poisoned");
        let c = &self.shared.counters;
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
            flush_queue_depth: inner.immutables.len() as u64,
            flush_queue_peak: c.flush_queue_peak.load(Ordering::Relaxed),
            flush_failures: c.flush_failures.load(Ordering::Relaxed),
            bloom_negatives: c.bloom_negatives.load(Ordering::Relaxed),
            bloom_false_positives: c.bloom_false_positives.load(Ordering::Relaxed),
            block_cache_hits: c.block_cache_hits.load(Ordering::Relaxed),
            block_cache_misses: c.block_cache_misses.load(Ordering::Relaxed),
        }
    }
}

impl Drop for Store {
    fn drop(&mut self) {
        {
            let mut inner = self.shared.inner.lock().expect("store poisoned");
            inner.shutdown = true;
        }
        self.shared.work.notify_all();
        self.shared.space.notify_all();
        if let Some(handle) = self.flusher.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
            // No explicit flush: some state is in segments (auto-freeze
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
    fn every_put_stays_readable_through_async_flushes() {
        let dir = tmp_dir("async-read");
        let store = Store::open(&dir, StoreConfig::small_for_tests()).unwrap();
        for i in 0..200u32 {
            let key = format!("k{i:04}");
            store.put(key.as_bytes(), &[i as u8; 48]).unwrap();
            // An acked write must be visible no matter which tier —
            // active, frozen, or mid-flush — currently holds it.
            assert_eq!(store.get(key.as_bytes()).unwrap(), Some(vec![i as u8; 48]));
        }
        for i in 0..200u32 {
            let key = format!("k{i:04}");
            assert_eq!(store.get(key.as_bytes()).unwrap(), Some(vec![i as u8; 48]));
        }
        assert!(store.stats().flushes > 0, "watermark crossings flushed in the background");
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn backpressure_caps_the_flush_queue() {
        let dir = tmp_dir("backpressure");
        let config = StoreConfig { max_immutables: 2, ..StoreConfig::small_for_tests() };
        let store = Store::open(&dir, config).unwrap();
        for i in 0..300u32 {
            store.put(format!("k{i:04}").as_bytes(), &[7u8; 64]).unwrap();
        }
        let stats = store.stats();
        assert!(stats.flush_queue_peak >= 1, "freezes went through the queue: {stats:?}");
        assert!(stats.flush_queue_peak <= 2, "bounded queue held its cap: {stats:?}");
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn drop_drains_pending_flushes() {
        let dir = tmp_dir("drain");
        {
            let store = Store::open(&dir, StoreConfig::small_for_tests()).unwrap();
            for i in 0..100u32 {
                store.put(format!("k{i:04}").as_bytes(), &[i as u8; 64]).unwrap();
            }
        } // drop: shutdown drains every queued freeze
        let leftover: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with("wal-"))
            .collect();
        assert!(leftover.is_empty(), "drained queue leaves no frozen logs: {leftover:?}");
        let store = Store::open(&dir, StoreConfig::small_for_tests()).unwrap();
        for i in 0..100u32 {
            assert_eq!(
                store.get(format!("k{i:04}").as_bytes()).unwrap(),
                Some(vec![i as u8; 64])
            );
        }
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_replays_frozen_wals_into_segments() {
        let dir = tmp_dir("frozen-wal");
        std::fs::create_dir_all(&dir).unwrap();
        // Simulate a crash after a freeze but before its flush landed:
        // one frozen log, one active log, no segments.
        let frozen =
            wal::encode_record(&WalOp::Put { key: b"frozen".to_vec(), value: b"f".to_vec() });
        std::fs::write(dir.join("wal-00000000.log"), &frozen).unwrap();
        let active =
            wal::encode_record(&WalOp::Put { key: b"active".to_vec(), value: b"a".to_vec() });
        std::fs::write(dir.join("wal.log"), &active).unwrap();

        let store = Store::open(&dir, StoreConfig::small_for_tests()).unwrap();
        assert_eq!(store.get(b"frozen").unwrap(), Some(b"f".to_vec()));
        assert_eq!(store.get(b"active").unwrap(), Some(b"a".to_vec()));
        assert_eq!(store.stats().recovered_ops, 2);
        assert!(
            dir.join("seg-00000000.seg").exists(),
            "the frozen log became the segment it was headed for"
        );
        assert!(!dir.join("wal-00000000.log").exists(), "consumed frozen log is gone");
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

    #[test]
    fn concurrent_reads_see_acked_writes_during_flushes() {
        let dir = tmp_dir("concurrent");
        let store = Store::open(&dir, StoreConfig::small_for_tests()).unwrap();
        std::thread::scope(|s| {
            let writer = s.spawn(|| {
                for i in 0..150u32 {
                    store.put(format!("c{i:04}").as_bytes(), &[i as u8; 40]).unwrap();
                }
            });
            for _ in 0..4 {
                s.spawn(|| {
                    for i in (0..150u32).rev() {
                        // Any key may or may not be written yet; what is
                        // forbidden is an error or a wrong value.
                        if let Some(v) = store.get(format!("c{i:04}").as_bytes()).unwrap() {
                            assert_eq!(v, vec![i as u8; 40]);
                        }
                    }
                });
            }
            writer.join().unwrap();
        });
        for i in 0..150u32 {
            assert_eq!(store.get(format!("c{i:04}").as_bytes()).unwrap(), Some(vec![i as u8; 40]));
        }
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flush_observer_hears_background_outcomes() {
        let dir = tmp_dir("observer");
        let store = Store::open(&dir, StoreConfig::small_for_tests()).unwrap();
        let oks = Arc::new(AtomicU64::new(0));
        let sink = Arc::clone(&oks);
        store.set_flush_observer(Box::new(move |ok| {
            if ok {
                sink.fetch_add(1, Ordering::Relaxed);
            }
        }));
        store.put(b"k", b"v").unwrap();
        store.flush().unwrap();
        assert!(oks.load(Ordering::Relaxed) >= 1, "observer saw the background flush");
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
