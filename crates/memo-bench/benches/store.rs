//! Throughput of the persistent tier's building blocks: WAL-backed puts,
//! memtable flushes into sorted segments, point gets against segment
//! files, and crash recovery (reopen + WAL replay). Medians land in
//! `BENCH_store.json` so CI can archive the store's cost profile next to
//! the serve and sweep benchmarks.
//!
//! The bloom filter and the block cache are measured as before/after
//! pairs in the same artifact: absent-key gets with the filter off vs on,
//! and hot gets with and without the cache. CI gates on those ratios.
//! Per-put latency quantiles are reported with each put that finds the
//! memtable at its watermark paying for the flush.
//!
//! Runs without fsync — the interesting costs here are framing,
//! checksumming, and the segment index, not the device sync latency.

use std::fmt::Write as _;
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use memo_bench::bench_median;
use memo_experiments::cache::{ShardedLru, TierBreaker};
use memo_experiments::store::LruBlockCache;
use memo_store::{Store, StoreConfig};

/// Keys/values sized like the workload the serve layer actually stores:
/// short path-style keys, table-render-sized bodies.
const BATCH: usize = 1000;
const VALUE_LEN: usize = 256;

fn bench_config() -> StoreConfig {
    StoreConfig {
        // Large enough that a batch never auto-flushes mid-measurement.
        memtable_max_bytes: 64 << 20,
        fsync: false,
        compact_at_segments: usize::MAX,
        ..StoreConfig::default()
    }
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("memo-bench-store-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn key(i: usize) -> Vec<u8> {
    format!("results/bench/{i:06}").into_bytes()
}

/// A key sorting strictly between `key(i)` and `key(i + 1)`, so an
/// absent-key probe lands inside the segment's index range and cannot
/// take the sorts-before-everything early exit.
fn absent_key(i: usize) -> Vec<u8> {
    format!("results/bench/{i:06}x").into_bytes()
}

/// A segment-backed store holding `BATCH` entries at the given
/// bits-per-key setting (0 disables the bloom filter).
fn segment_store(tag: &str, value: &[u8], bloom_bits_per_key: u32) -> (PathBuf, Store) {
    let dir = fresh_dir(tag);
    let config = StoreConfig { bloom_bits_per_key, ..bench_config() };
    let store = Store::open(&dir, config).expect("open");
    for i in 0..BATCH {
        store.put(&key(i), value).expect("put");
    }
    store.flush().expect("flush");
    (dir, store)
}

/// Per-put latency quantiles (microseconds) over `n` puts. The put that
/// finds the memtable at its watermark writes the segment first, so the
/// tail carries the flushes.
fn put_quantiles(value: &[u8], n: usize) -> (PathBuf, u64, u64) {
    let dir = fresh_dir("putlatency");
    // Small watermark so flushes actually happen during the run.
    let config = StoreConfig {
        memtable_max_bytes: 32 << 10,
        fsync: false,
        compact_at_segments: usize::MAX,
        ..StoreConfig::default()
    };
    let store = Store::open(&dir, config).expect("open");
    let mut lat_us: Vec<u64> = Vec::with_capacity(n);
    for i in 0..n {
        let t0 = Instant::now();
        store.put(&key(i), value).expect("put");
        lat_us.push(u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX));
    }
    lat_us.sort_unstable();
    let q = |f: f64| {
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss, clippy::cast_precision_loss)]
        let idx = ((lat_us.len() - 1) as f64 * f).round() as usize;
        lat_us[idx]
    };
    (dir, q(0.50), q(0.99))
}

#[allow(clippy::too_many_lines)]
fn main() {
    let value = vec![0x5au8; VALUE_LEN];

    // Puts: append to the WAL and insert into the memtable.
    let dir = fresh_dir("put");
    let store = Store::open(&dir, bench_config()).expect("open");
    let mut next = 0usize;
    let put_s = bench_median("store", "put_wal_memtable_1k", 10, || {
        for i in next..next + BATCH {
            store.put(&key(i), &value).expect("put");
        }
        next += BATCH;
    });

    // Flush: write a batch and flush it into a sorted segment. Each
    // sample refills the memtable first (a bare flush of an empty
    // memtable is a no-op), so this times the puts plus the segment
    // write.
    let flush_s = bench_median("store", "put_1k_then_flush", 10, || {
        for i in next..next + BATCH {
            store.put(&key(i), &value).expect("put");
        }
        next += BATCH;
        store.flush().expect("flush");
    });

    // Segment gets: every key written above now lives in segment files.
    let get_s = bench_median("store", "get_from_segments_1k", 10, || {
        for i in 0..BATCH {
            black_box(store.get(&key(i)).expect("get"));
        }
    });
    // Degraded path: the tiered lookup the serve layer runs, with the
    // disk-tier breaker closed (every cold key loads from the segment
    // files) vs open (disk skipped entirely, straight to compute). The
    // gap is what an outage costs — and what the breaker saves by not
    // waiting on a dead disk.
    let tiered_closed_s = bench_median("store", "tiered_get_breaker_closed_1k", 10, || {
        let cache: ShardedLru<usize, Vec<u8>> = ShardedLru::new(8, 2 * BATCH);
        let breaker = TierBreaker::new(5, Duration::from_secs(60));
        for i in 0..BATCH {
            let (v, _) = cache.get_or_compute_tiered_guarded(
                &i,
                &breaker,
                || store.get(&key(i)).map_err(|_| ()),
                |_| Ok(()),
                || value.clone(),
            );
            black_box(v);
        }
    });
    let tiered_open_s = bench_median("store", "tiered_get_breaker_open_1k", 10, || {
        let cache: ShardedLru<usize, Vec<u8>> = ShardedLru::new(8, 2 * BATCH);
        let breaker = TierBreaker::new(1, Duration::from_secs(3600));
        breaker.record_failure(); // threshold 1: tripped before the loop
        for i in 0..BATCH {
            let (v, _) = cache.get_or_compute_tiered_guarded(
                &i,
                &breaker,
                || store.get(&key(i)).map_err(|_| ()),
                |_| Ok(()),
                || value.clone(),
            );
            black_box(v);
        }
    });

    let stats = store.stats();
    drop(store);

    // Miss-heavy gets: the same absent keys against a segment with no
    // bloom filter (every probe reads and scans an index span) vs one
    // with the default filter (probes are screened in memory).
    let (nb_dir, nb_store) = segment_store("nobloom", &value, 0);
    let absent_nobloom_s = bench_median("store", "absent_get_no_bloom_1k", 10, || {
        for i in 0..BATCH {
            black_box(nb_store.get(&absent_key(i)).expect("get"));
        }
    });
    let (bl_dir, bl_store) = segment_store("bloom", &value, StoreConfig::default().bloom_bits_per_key);
    let absent_bloom_s = bench_median("store", "absent_get_bloom_1k", 10, || {
        for i in 0..BATCH {
            black_box(bl_store.get(&absent_key(i)).expect("get"));
        }
    });
    let bloom_stats = bl_store.stats();

    // Hot gets: a 16-key working set hammered by 4 threads — the shape
    // the serve layer's worker pool produces — with and without the
    // block cache. Without it every read serializes on the segment
    // file's mutex around pread; with it, hits stay on sharded
    // in-memory spans. Warmup (inside bench_median) leaves each path in
    // steady state: page cache for disk, cached spans for the other.
    const HOT_THREADS: usize = 4;
    let hot_nocache_s = bench_median("store", "hot_get_no_cache_4x1k", 10, || {
        std::thread::scope(|scope| {
            for t in 0..HOT_THREADS {
                let store = &bl_store;
                scope.spawn(move || {
                    for i in 0..BATCH {
                        black_box(store.get(&key((t + i) % 16)).expect("get"));
                    }
                });
            }
        });
    });
    let cached_store = bl_store;
    cached_store.attach_block_cache(Arc::new(LruBlockCache::new(256)));
    let hot_cache_s = bench_median("store", "hot_get_block_cache_4x1k", 10, || {
        std::thread::scope(|scope| {
            for t in 0..HOT_THREADS {
                let store = &cached_store;
                scope.spawn(move || {
                    for i in 0..BATCH {
                        black_box(store.get(&key((t + i) % 16)).expect("get"));
                    }
                });
            }
        });
    });
    let cache_stats = cached_store.stats();
    drop(cached_store);
    drop(nb_store);

    // Put latency quantiles with the flush at the watermark: 32 KiB /
    // ~340 B charged per entry ≈ a flush every ~96 puts.
    let (put_dir, put_p50, put_p99) = put_quantiles(&value, 4 * BATCH);
    println!("store/put_latency: p50/p99 = {put_p50}/{put_p99} us");

    // Recovery: reopen a store whose WAL holds one unflushed batch.
    let recover_dir = fresh_dir("recover");
    {
        let store = Store::open(&recover_dir, bench_config()).expect("open");
        for i in 0..BATCH {
            store.put(&key(i), &value).expect("put");
        }
        // Dropped without flush: everything stays in the WAL.
    }
    let recover_s = bench_median("store", "reopen_replay_1k_wal_ops", 10, || {
        let store = Store::open(&recover_dir, bench_config()).expect("reopen");
        black_box(store.stats().recovered_ops);
    });

    let mut json = String::from("{\n  \"bench\": \"memo_store\",\n");
    let _ = writeln!(json, "  \"batch\": {BATCH},");
    let _ = writeln!(json, "  \"value_len\": {VALUE_LEN},");
    let _ = writeln!(json, "  \"put_1k_ms\": {:.3},", put_s * 1e3);
    let _ = writeln!(json, "  \"put_1k_then_flush_ms\": {:.3},", flush_s * 1e3);
    let _ = writeln!(json, "  \"get_segment_1k_ms\": {:.3},", get_s * 1e3);
    let _ = writeln!(json, "  \"recover_1k_ms\": {:.3},", recover_s * 1e3);
    let _ = writeln!(json, "  \"tiered_get_breaker_closed_1k_ms\": {:.3},", tiered_closed_s * 1e3);
    let _ = writeln!(json, "  \"tiered_get_breaker_open_1k_ms\": {:.3},", tiered_open_s * 1e3);
    let _ = writeln!(json, "  \"absent_get_no_bloom_1k_ms\": {:.3},", absent_nobloom_s * 1e3);
    let _ = writeln!(json, "  \"absent_get_bloom_1k_ms\": {:.3},", absent_bloom_s * 1e3);
    let _ = writeln!(json, "  \"absent_get_speedup\": {:.2},", absent_nobloom_s / absent_bloom_s.max(1e-9));
    let _ = writeln!(json, "  \"hot_get_no_cache_4x1k_ms\": {:.3},", hot_nocache_s * 1e3);
    let _ = writeln!(json, "  \"hot_get_block_cache_4x1k_ms\": {:.3},", hot_cache_s * 1e3);
    let _ = writeln!(json, "  \"hot_get_speedup\": {:.2},", hot_nocache_s / hot_cache_s.max(1e-9));
    let _ = writeln!(json, "  \"put_p50_us\": {put_p50},");
    let _ = writeln!(json, "  \"put_p99_us\": {put_p99},");
    let _ = writeln!(json, "  \"bloom_negatives\": {},", bloom_stats.bloom_negatives);
    let _ = writeln!(json, "  \"block_cache_hits\": {},", cache_stats.block_cache_hits);
    let _ = writeln!(json, "  \"segments\": {},", stats.segments);
    let _ = writeln!(json, "  \"segment_bytes\": {}", stats.segment_bytes);
    json.push_str("}\n");
    let path = "BENCH_store.json";
    std::fs::write(path, json).expect("write BENCH_store.json");
    println!("wrote {path}");

    for d in [&dir, &recover_dir, &nb_dir, &bl_dir, &put_dir] {
        let _ = std::fs::remove_dir_all(d);
    }
}
