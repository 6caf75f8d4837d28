//! The process-global persistent tier.
//!
//! `memo-store` is a plain bytes→bytes store; this module is the typed
//! glue the rest of the workspace uses:
//!
//! * a **global handle** — installed once (by `memo-serve` start-up or an
//!   experiment driver), consulted by the trace cache and the serving
//!   layer. Installable and removable so tests can run isolated stores.
//! * a **format guard** — the store carries a `meta/format` key encoding
//!   every serialization version it depends on (result codec, trace
//!   archive, `OpTrace`). A mismatch wipes the store: stale blobs
//!   invalidate instead of misdecoding.
//! * **typed load/save helpers** for operand trace archives. Load
//!   failures (IO, corruption, decode) degrade to `None`, i.e.
//!   "recompute"; save failures are swallowed after recording the event,
//!   because persistence is an accelerator here, never a correctness
//!   dependency. (memo-serve persists rendered results itself, through
//!   its own retry policy and disk breaker.)

use std::path::Path;
use std::sync::{Arc, Mutex, OnceLock};

use memo_sim::{OpTrace, OP_TRACE_VERSION};
use memo_store::codec::{self, RESULT_VERSION, TRACE_ARCHIVE_VERSION};
use memo_store::{BlockCache, CachedBlock, Store, StoreConfig, StoreError};

use crate::cache::ShardedLru;
use crate::env;

/// The key under which the format marker lives.
const FORMAT_KEY: &[u8] = b"meta/format";

/// memo-store's [`BlockCache`] backed by this crate's [`ShardedLru`]:
/// hot segment spans served from memory under LRU eviction. The store's
/// reader re-verifies each span's CRC at every hit, so a corrupted cache
/// entry degrades to a disk read instead of serving damage.
#[derive(Debug)]
pub struct LruBlockCache {
    spans: ShardedLru<(u64, u64), (u32, Vec<u8>)>,
}

impl LruBlockCache {
    /// A cache holding at most `capacity` segment spans.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero (disable by not attaching instead).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        LruBlockCache {
            spans: ShardedLru::new(8, capacity).with_weigher(|(_, block)| block.len().max(1)),
        }
    }
}

impl BlockCache for LruBlockCache {
    fn get(&self, segment_id: u64, offset: u64) -> Option<CachedBlock> {
        self.spans.peek(&(segment_id, offset))
    }

    fn put(&self, segment_id: u64, offset: u64, checksum: u32, block: Vec<u8>) {
        let _ = self.spans.get_or_compute(&(segment_id, offset), move || (checksum, block));
    }
}

fn global() -> &'static Mutex<Option<Arc<Store>>> {
    static GLOBAL: OnceLock<Mutex<Option<Arc<Store>>>> = OnceLock::new();
    GLOBAL.get_or_init(|| Mutex::new(None))
}

/// The format marker this build writes: every version the persisted
/// blobs depend on.
#[must_use]
pub fn format_tag() -> String {
    format!("result=v{RESULT_VERSION};archive=v{TRACE_ARCHIVE_VERSION};optrace=v{OP_TRACE_VERSION}")
}

/// Open (or create) a store at `dir` and guard its format: if the
/// directory carries a marker from a different format generation, the
/// store is wiped and re-marked — previously persisted blobs would not
/// decode anyway.
///
/// Corruption in the marker's own storage is handled the same way, not
/// surfaced: a torn `meta/format` WAL record is truncated away by WAL
/// recovery (the marker is then missing → rewritten), and a corrupt
/// segment — or one in a segment format this build no longer reads —
/// fails validation at open → the directory is wiped and restarted
/// fresh. The store is a cache; losing it must never keep the process
/// from starting.
///
/// # Errors
///
/// [`StoreError::Io`] when the directory cannot be opened, wiped, or
/// re-marked.
pub fn open_guarded(dir: &Path, config: StoreConfig) -> Result<Arc<Store>, StoreError> {
    let store = match Store::open(dir, config.clone()) {
        Ok(store) => store,
        Err(StoreError::CorruptSegment { .. }) => {
            // Segments are written atomically, so this is bit rot (or
            // tampering), not a crash artifact. Start over.
            std::fs::remove_dir_all(dir)
                .map_err(|e| StoreError::io("wipe corrupt store dir", e))?;
            Store::open(dir, config)?
        }
        Err(e) => return Err(e),
    };
    let cache_spans = env::store_block_cache_spans();
    if cache_spans > 0 {
        store.attach_block_cache(Arc::new(LruBlockCache::new(cache_spans)));
    }
    let expected = format_tag();
    match store.get(FORMAT_KEY)? {
        Some(found) if found == expected.as_bytes() => {}
        found => {
            if found.is_some() {
                // Format changed underneath a populated store: wipe.
                store.clear()?;
            }
            store.put(FORMAT_KEY, expected.as_bytes())?;
        }
    }
    Ok(Arc::new(store))
}

/// Install `store` as the process-global persistent tier (replacing any
/// previous one). The trace cache and serving layer pick it up on their
/// next access.
pub fn install(store: Arc<Store>) {
    *global().lock().expect("store handle poisoned") = Some(store);
}

/// Remove the global store (tests; shutdown). In-flight users holding an
/// `Arc` finish against the old store harmlessly.
pub fn uninstall() {
    *global().lock().expect("store handle poisoned") = None;
}

/// The currently installed store, if any.
#[must_use]
pub fn installed() -> Option<Arc<Store>> {
    global().lock().expect("store handle poisoned").clone()
}

/// Load an operand-trace archive (one `OpTrace` per part). `None` on any
/// failure, including a version-tag mismatch in any part.
#[must_use]
pub fn load_traces(key: &str) -> Option<Vec<OpTrace>> {
    let store = installed()?;
    let bytes = store.get(key.as_bytes()).ok()??;
    let parts = codec::decode_trace_archive(&bytes).ok()?;
    parts.iter().map(|p| OpTrace::from_bytes(p).ok()).collect()
}

/// Persist an operand-trace archive under `key`; failures are swallowed.
pub fn save_traces(key: &str, traces: &[OpTrace]) {
    if let Some(store) = installed() {
        let parts: Vec<Vec<u8>> = traces.iter().map(OpTrace::to_bytes).collect();
        let _ = store.put(key.as_bytes(), &codec::encode_trace_archive(&parts));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memo_table::Op;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn tmp_dir(tag: &str) -> PathBuf {
        static N: AtomicU32 = AtomicU32::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("memo-expstore-{tag}-{}-{n}", std::process::id()))
    }

    // The global handle is process-wide state; serialize the tests that
    // install/uninstall it so they do not clobber each other.
    fn handle_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn format_guard_wipes_foreign_generations() {
        let _guard = handle_lock();
        let dir = tmp_dir("format");
        {
            let store = Store::open(&dir, StoreConfig::small_for_tests()).unwrap();
            store.put(FORMAT_KEY, b"result=v0;ancient").unwrap();
            store.put(b"old-blob", b"stale bytes").unwrap();
            store.flush().unwrap();
        }
        let store = open_guarded(&dir, StoreConfig::small_for_tests()).unwrap();
        assert_eq!(store.get(b"old-blob").unwrap(), None, "foreign-format store is wiped");
        assert_eq!(store.get(FORMAT_KEY).unwrap(), Some(format_tag().into_bytes()));
        // Same generation: contents survive a reopen.
        store.put(b"blob", b"bytes").unwrap();
        store.flush().unwrap();
        drop(store);
        let store = open_guarded(&dir, StoreConfig::small_for_tests()).unwrap();
        assert_eq!(store.get(b"blob").unwrap(), Some(b"bytes".to_vec()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A config that keeps everything in the WAL (no auto-flush), so the
    /// guard-corruption tests control where the marker lives.
    fn wal_only_config() -> StoreConfig {
        StoreConfig {
            memtable_max_bytes: 1 << 20,
            fsync: false,
            compact_at_segments: 100,
            ..StoreConfig::default()
        }
    }

    #[test]
    fn guard_recovers_when_the_format_marker_wal_record_is_damaged() {
        let _guard = handle_lock();
        for (tag, damage) in [
            ("torn", &(|bytes: &mut Vec<u8>| bytes.truncate(10)) as &dyn Fn(&mut Vec<u8>)),
            ("corrupt", &|bytes: &mut Vec<u8>| bytes[10] ^= 0xFF),
        ] {
            let dir = tmp_dir(&format!("marker-wal-{tag}"));
            {
                let store = open_guarded(&dir, wal_only_config()).unwrap();
                store.put(b"blob", b"payload").unwrap();
                // No flush: the marker and the blob live only in the WAL.
            }
            let wal = dir.join("wal.log");
            let mut bytes = std::fs::read(&wal).unwrap();
            damage(&mut bytes);
            std::fs::write(&wal, &bytes).unwrap();
            // The marker record itself is damaged: recovery truncates it
            // (and everything after it) away, and the guard re-marks the
            // now-empty store instead of failing.
            let store = open_guarded(&dir, wal_only_config()).unwrap();
            assert_eq!(
                store.get(FORMAT_KEY).unwrap(),
                Some(format_tag().into_bytes()),
                "{tag}: marker must be restored"
            );
            assert_eq!(store.get(b"blob").unwrap(), None, "{tag}: data after the tear is lost");
            store.put(b"fresh", b"works").unwrap();
            assert_eq!(store.get(b"fresh").unwrap(), Some(b"works".to_vec()));
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn guard_wipes_and_restarts_when_the_marker_segment_is_damaged() {
        let _guard = handle_lock();
        for (tag, damage) in [
            ("corrupt", &(|bytes: &mut Vec<u8>| {
                let mid = bytes.len() / 2;
                bytes[mid] ^= 0xFF;
            }) as &dyn Fn(&mut Vec<u8>)),
            ("truncated", &|bytes: &mut Vec<u8>| {
                let keep = bytes.len() - 20;
                bytes.truncate(keep);
            }),
        ] {
            let dir = tmp_dir(&format!("marker-seg-{tag}"));
            {
                let store = open_guarded(&dir, wal_only_config()).unwrap();
                store.put(b"blob", b"payload").unwrap();
                store.flush().unwrap(); // marker + blob now live in a segment
            }
            let seg = dir.join("seg-00000000.seg");
            let mut bytes = std::fs::read(&seg).unwrap();
            damage(&mut bytes);
            std::fs::write(&seg, &bytes).unwrap();
            // Plain open refuses to serve the damage...
            assert!(matches!(
                Store::open(&dir, wal_only_config()),
                Err(StoreError::CorruptSegment { .. })
            ));
            // ...but the guarded open wipes and restarts fresh.
            let store = open_guarded(&dir, wal_only_config()).unwrap();
            assert_eq!(
                store.get(FORMAT_KEY).unwrap(),
                Some(format_tag().into_bytes()),
                "{tag}: marker must be restored"
            );
            assert_eq!(store.get(b"blob").unwrap(), None, "{tag}: the wiped blob is gone");
            store.put(b"fresh", b"works").unwrap();
            store.flush().unwrap();
            drop(store);
            let store = open_guarded(&dir, wal_only_config()).unwrap();
            assert_eq!(store.get(b"fresh").unwrap(), Some(b"works".to_vec()));
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn version_one_segments_are_corrupt_and_the_guard_wipes_them() {
        let _guard = handle_lock();
        let dir = tmp_dir("v1-segment");
        {
            let store = open_guarded(&dir, wal_only_config()).unwrap();
            store.put(b"blob", b"payload").unwrap();
            store.flush().unwrap();
        }
        // Stamp the segment with the version-1 header of the pre-bloom
        // format, which this build no longer reads.
        let seg = dir.join("seg-00000000.seg");
        let mut bytes = std::fs::read(&seg).unwrap();
        bytes[4..6].copy_from_slice(&1u16.to_le_bytes());
        std::fs::write(&seg, &bytes).unwrap();
        let err = memo_store::segment::Segment::open(&memo_store::RealVfs, &seg).unwrap_err();
        assert!(
            matches!(&err, StoreError::CorruptSegment { detail, .. } if detail.contains("version 1")),
            "{err}"
        );
        let store = open_guarded(&dir, wal_only_config()).unwrap();
        assert_eq!(store.get(b"blob").unwrap(), None, "the wiped blob is gone");
        assert_eq!(store.get(FORMAT_KEY).unwrap(), Some(format_tag().into_bytes()));
        assert!(!seg.exists(), "the version-1 segment was wiped");
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn typed_helpers_roundtrip_through_the_global_handle() {
        let _guard = handle_lock();
        let dir = tmp_dir("typed");
        let store = open_guarded(&dir, StoreConfig::small_for_tests()).unwrap();
        install(store);

        let mut trace = OpTrace::new();
        trace.push(Op::FpDiv(355.0, 113.0));
        trace.push(Op::IntMul(6, 7));
        save_traces("traces/k", &[trace.clone(), OpTrace::new()]);
        let back = load_traces("traces/k").unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].len(), 2);
        assert!(back[1].is_empty());

        uninstall();
        assert!(load_traces("traces/k").is_none(), "no store, no disk tier");
        save_traces("traces/k", &[OpTrace::new()]); // no-op, no panic
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_cache_consults_the_store_before_recording() {
        let _guard = handle_lock();
        let dir = tmp_dir("traces");
        let store = open_guarded(&dir, StoreConfig::small_for_tests()).unwrap();
        install(store);
        // A scale no other test uses, so the per-process trace cache has
        // no entry and must go through the store path.
        let cfg = crate::ExpConfig { image_scale: 17, sci_n: 17 };
        let app = memo_workloads::mm::find("vgpwl").unwrap();
        let n_images = crate::traces::corpus(17).len();
        // Pre-seed a recognizable archive of the right arity: mm_traces
        // must serve it instead of re-recording the kernel.
        let mut fake = OpTrace::new();
        fake.push(Op::IntMul(41, 2));
        let fakes: Vec<OpTrace> = (0..n_images).map(|_| fake.clone()).collect();
        save_traces("traces/mm/vgpwl/17", &fakes);
        let got = crate::traces::mm_traces(cfg, &app);
        assert_eq!(got.len(), n_images);
        assert!(got.iter().all(|t| t.len() == 1), "served from disk, not re-recorded");
        // Sci path: no archive yet → records natively and writes back.
        let sci_app = *memo_workloads::sci::all_apps().first().unwrap();
        let t = crate::traces::sci_trace(cfg, &sci_app);
        assert!(!t.is_empty());
        let back = load_traces(&format!("traces/sci/{}/17", sci_app.name)).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].len(), t.len());
        uninstall();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lru_block_cache_roundtrips_and_misses_cleanly() {
        let cache = LruBlockCache::new(4);
        assert!(cache.get(1, 0).is_none(), "empty cache misses");
        cache.put(1, 0, 0xDEAD_BEEF, vec![1, 2, 3]);
        let hit = cache.get(1, 0).expect("inserted span is served");
        assert_eq!(hit.0, 0xDEAD_BEEF);
        assert_eq!(hit.1, vec![1, 2, 3]);
        assert!(cache.get(1, 64).is_none(), "other offsets are distinct keys");
        assert!(cache.get(2, 0).is_none(), "other segments are distinct keys");
    }

    #[test]
    fn guarded_open_serves_hot_spans_through_the_block_cache() {
        let _guard = handle_lock();
        let dir = tmp_dir("blockcache");
        let store = open_guarded(&dir, StoreConfig::small_for_tests()).unwrap();
        store.put(b"hot/key", b"span payload").unwrap();
        store.flush().unwrap(); // the key now lives in a segment
        assert_eq!(store.get(b"hot/key").unwrap(), Some(b"span payload".to_vec()));
        assert_eq!(store.get(b"hot/key").unwrap(), Some(b"span payload".to_vec()));
        let stats = store.stats();
        assert!(stats.block_cache_misses >= 1, "first probe fills the cache: {stats:?}");
        assert!(stats.block_cache_hits >= 1, "repeat probe is served from memory: {stats:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn format_tag_is_stable_and_self_describing() {
        assert_eq!(format_tag(), "result=v1;archive=v1;optrace=v3");
    }
}
