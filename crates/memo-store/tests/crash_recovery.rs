//! Crash-recovery property tests: kill the write at *every* byte offset.
//!
//! The external-dependency policy rules out proptest, so these are
//! exhaustive instead of sampled — for a synthetic multi-record WAL we
//! try every truncation point and every single-byte corruption, and
//! assert the invariant the WAL promises: reopen recovers exactly the
//! longest committed record prefix, never a partial or damaged record.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use memo_store::wal::{self, encode_record, WalOp};
use memo_store::{FaultConfig, FaultKind, FaultOp, FaultVfs, ScheduledFault, Store, StoreConfig};

fn tmp_dir(tag: &str) -> PathBuf {
    static N: AtomicU32 = AtomicU32::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("memo-crash-{tag}-{}-{n}", std::process::id()))
}

/// A synthetic log: varied ops, varied sizes, including an empty value
/// and a delete, so record boundaries land at irregular offsets.
fn synthetic_ops() -> Vec<WalOp> {
    vec![
        WalOp::Put { key: b"mm/rgb-blend".to_vec(), value: vec![0x11; 57] },
        WalOp::Delete { key: b"stale/result".to_vec() },
        WalOp::Put { key: b"k".to_vec(), value: Vec::new() },
        WalOp::Put { key: b"sci/nbody".to_vec(), value: (0..=255u8).collect() },
        WalOp::Put { key: b"meta/format".to_vec(), value: b"v1".to_vec() },
    ]
}

/// Record boundaries: offsets[i] = start of record i; last = total len.
fn boundaries(ops: &[WalOp]) -> (Vec<u8>, Vec<usize>) {
    let mut log = Vec::new();
    let mut bounds = vec![0usize];
    for op in ops {
        log.extend_from_slice(&encode_record(op));
        bounds.push(log.len());
    }
    (log, bounds)
}

/// How many whole records fit in a prefix of `len` bytes.
fn committed_prefix(bounds: &[usize], len: usize) -> usize {
    bounds.iter().filter(|&&b| b != 0 && b <= len).count()
}

#[test]
fn truncation_at_every_byte_recovers_exactly_the_committed_prefix() {
    let ops = synthetic_ops();
    let (log, bounds) = boundaries(&ops);
    for cut in 0..=log.len() {
        let rec = wal::scan(&log[..cut]);
        let expect = committed_prefix(&bounds, cut);
        assert_eq!(
            rec.ops,
            ops[..expect],
            "truncation at byte {cut}: expected the first {expect} records"
        );
        assert_eq!(rec.committed_bytes as usize, bounds[expect], "truncation at byte {cut}");
        // The tail is damaged exactly when the cut is not a record boundary.
        assert_eq!(rec.tail_damaged, cut != bounds[expect], "truncation at byte {cut}");
    }
}

#[test]
fn corrupting_any_single_byte_never_yields_a_damaged_record() {
    let ops = synthetic_ops();
    let (log, bounds) = boundaries(&ops);
    for at in 0..log.len() {
        let mut bad = log.clone();
        bad[at] ^= 0xFF;
        let rec = wal::scan(&bad);
        // The record containing the flipped byte must not survive; every
        // record before it must.
        let victim = bounds.iter().filter(|&&b| b != 0 && b <= at).count();
        assert!(
            rec.ops.len() <= victim,
            "corruption at byte {at}: recovered {} records, the damaged one is #{victim}",
            rec.ops.len()
        );
        assert_eq!(rec.ops, ops[..rec.ops.len()], "corruption at byte {at}: prefix must be clean");
        assert!(rec.tail_damaged, "corruption at byte {at} must be reported");
        // Whatever survives must end on a record boundary.
        assert_eq!(rec.committed_bytes as usize, bounds[rec.ops.len()]);
    }
}

#[test]
fn store_reopen_after_on_disk_truncation_serves_the_committed_prefix() {
    let ops = synthetic_ops();
    let (log, bounds) = boundaries(&ops);
    let dir = tmp_dir("truncate");
    std::fs::create_dir_all(&dir).unwrap();
    let wal_path = dir.join("wal.log");
    // A spread of cuts through the full file-level open path (every byte
    // is already covered by the pure-scan test above).
    let cuts: Vec<usize> =
        bounds.iter().copied().chain(bounds.iter().map(|b| b + 1)).filter(|&c| c <= log.len()).collect();
    for cut in cuts {
        std::fs::write(&wal_path, &log[..cut]).unwrap();
        let store = Store::open(&dir, StoreConfig::small_for_tests()).unwrap();
        let expect = committed_prefix(&bounds, cut);
        let stats = store.stats();
        assert_eq!(stats.recovered_ops as usize, expect, "cut at {cut}");
        assert_eq!(stats.recovered_torn_tail, cut != bounds[expect], "cut at {cut}");
        // Spot-check visibility of the last committed op.
        if expect >= 1 {
            assert_eq!(store.get(b"mm/rgb-blend").unwrap(), Some(vec![0x11; 57]));
        }
        if expect >= 4 {
            assert_eq!(store.get(b"sci/nbody").unwrap(), Some((0..=255u8).collect::<Vec<_>>()));
        }
        drop(store);
        // Reopen truncated the damaged tail: the file now scans clean.
        let on_disk = std::fs::read(&wal_path).unwrap();
        assert!(!wal::scan(&on_disk).tail_damaged, "cut at {cut} left damage on disk");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn store_reopen_after_corruption_rejects_via_checksum_and_truncates() {
    let ops = synthetic_ops();
    let (log, bounds) = boundaries(&ops);
    let dir = tmp_dir("corrupt");
    std::fs::create_dir_all(&dir).unwrap();
    let wal_path = dir.join("wal.log");
    // Corrupt one byte inside each record (header and payload) in turn.
    for rec_idx in 0..ops.len() {
        for offset in [0usize, 4, 8] {
            let at = bounds[rec_idx] + offset;
            let mut bad = log.clone();
            bad[at] ^= 0x01;
            std::fs::write(&wal_path, &bad).unwrap();
            let store = Store::open(&dir, StoreConfig::small_for_tests()).unwrap();
            let stats = store.stats();
            assert!(
                (stats.recovered_ops as usize) <= rec_idx,
                "byte {at}: record {rec_idx} carried the damage and must not be recovered"
            );
            assert!(stats.recovered_torn_tail, "byte {at}: damage must be reported");
            drop(store);
            let on_disk = std::fs::read(&wal_path).unwrap();
            assert_eq!(on_disk.len(), bounds[stats.recovered_ops as usize]);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The every-byte truncation suite, re-run with every store I/O routed
/// through `FaultVfs` (quiet — a counting passthrough). The recovery
/// invariant must be bit-identical to the direct-filesystem run, and the
/// injector must actually have seen the traffic.
#[test]
fn every_byte_truncation_recovers_identically_through_fault_vfs() {
    let ops = synthetic_ops();
    let (log, bounds) = boundaries(&ops);
    let dir = tmp_dir("vfs-truncate");
    std::fs::create_dir_all(&dir).unwrap();
    let wal_path = dir.join("wal.log");
    let vfs = Arc::new(FaultVfs::new(FaultConfig::quiet(1998)));
    for cut in 0..=log.len() {
        std::fs::write(&wal_path, &log[..cut]).unwrap();
        let store =
            Store::open_with_vfs(&dir, StoreConfig::small_for_tests(), vfs.clone()).unwrap();
        let expect = committed_prefix(&bounds, cut);
        let stats = store.stats();
        assert_eq!(stats.recovered_ops as usize, expect, "cut at {cut}");
        assert_eq!(stats.recovered_torn_tail, cut != bounds[expect], "cut at {cut}");
        drop(store);
        let on_disk = std::fs::read(&wal_path).unwrap();
        assert!(!wal::scan(&on_disk).tail_damaged, "cut at {cut} left damage on disk");
    }
    let stats = vfs.stats();
    assert!(stats.ops[0] > 0, "the injector must have carried the reads");
    assert_eq!(stats.injected, [0; 4], "a quiet config must inject nothing");
    let _ = std::fs::remove_dir_all(&dir);
}

/// An injected short write at every possible append: the k-th operation
/// tears mid-record, the put fails, and a crash+reopen recovers exactly
/// the k acknowledged operations — never the torn one.
#[test]
fn short_write_at_every_append_recovers_the_acknowledged_prefix() {
    let ops = synthetic_ops();
    // Large memtable + no fsync: the only Write-class ops are WAL appends.
    let config = StoreConfig {
        memtable_max_bytes: usize::MAX,
        fsync: false,
        compact_at_segments: 100,
        ..StoreConfig::default()
    };
    for k in 0..ops.len() {
        let dir = tmp_dir("short-write");
        std::fs::create_dir_all(&dir).unwrap();
        let vfs = Arc::new(FaultVfs::new(FaultConfig {
            scheduled: vec![ScheduledFault {
                op: FaultOp::Write,
                nth: k as u64 + 1,
                kind: FaultKind::ShortWrite,
            }],
            ..FaultConfig::quiet(k as u64)
        }));
        let store = Store::open_with_vfs(&dir, config.clone(), vfs).unwrap();
        for (i, op) in ops.iter().enumerate() {
            let outcome = match op {
                WalOp::Put { key, value } => store.put(key, value),
                WalOp::Delete { key } => store.delete(key),
            };
            if i == k {
                assert!(outcome.is_err(), "append {k} tears and must fail");
                break;
            }
            outcome.unwrap();
        }
        drop(store); // crash

        let store = Store::open(&dir, config.clone()).unwrap();
        assert_eq!(
            store.stats().recovered_ops as usize,
            k,
            "short write at append {k}: only acknowledged ops recover"
        );
        // The torn op's key reflects only operations before it.
        let mut expect: Option<Vec<u8>> = None;
        for op in &ops[..k] {
            if op.key() == ops[k].key() {
                expect = match op {
                    WalOp::Put { value, .. } => Some(value.clone()),
                    WalOp::Delete { .. } => None,
                };
            }
        }
        assert_eq!(store.get(ops[k].key()).unwrap(), expect, "torn op {k} must not be visible");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Fsync-failure-then-crash ordering: a put whose fsync fails is
/// unacknowledged; after a flush and a crash it must not resurrect —
/// the flush carries only acknowledged state and the WAL reset discards
/// the failed record's bytes.
#[test]
fn fsync_failure_then_crash_never_resurrects_the_unacknowledged_put() {
    let keys: Vec<String> = (0..5).map(|i| format!("key-{i}")).collect();
    let config = StoreConfig {
        memtable_max_bytes: usize::MAX,
        fsync: true,
        compact_at_segments: 100,
        ..StoreConfig::default()
    };
    for k in 0..keys.len() {
        let dir = tmp_dir("fsync-crash");
        std::fs::create_dir_all(&dir).unwrap();
        // Each put is one Write then one Fsync; a clean baseline put goes
        // first (so the flush below always has state to carry), then the
        // (k+2)-th fsync — put k of the loop — fails.
        let vfs = Arc::new(FaultVfs::new(FaultConfig {
            scheduled: vec![ScheduledFault {
                op: FaultOp::Fsync,
                nth: k as u64 + 2,
                kind: FaultKind::Error,
            }],
            ..FaultConfig::quiet(7)
        }));
        let store = Store::open_with_vfs(&dir, config.clone(), vfs).unwrap();
        store.put(b"base", b"acknowledged").unwrap();
        for (i, key) in keys.iter().enumerate() {
            let outcome = store.put(key.as_bytes(), format!("val-{i}").as_bytes());
            if i == k {
                assert!(outcome.is_err(), "put {k}: the failed fsync must surface");
                break;
            }
            outcome.unwrap();
        }
        // The store keeps serving: flush the acknowledged state to a
        // segment (later fsyncs are clean), then crash.
        store.flush().unwrap();
        drop(store);

        let store = Store::open(&dir, config.clone()).unwrap();
        let stats = store.stats();
        assert_eq!(stats.recovered_ops, 0, "put {k}: the flush reset the WAL");
        assert_eq!(store.get(b"base").unwrap(), Some(b"acknowledged".to_vec()));
        for (i, key) in keys.iter().enumerate() {
            let expect = (i < k).then(|| format!("val-{i}").into_bytes());
            assert_eq!(
                store.get(key.as_bytes()).unwrap(),
                expect,
                "put {k}: key {i} — unacknowledged writes must stay dead"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// An injected `ENOSPC` or short write during a flush must fail that
/// flush and leave the store readable (the memtable still serves),
/// retryable (the next flush succeeds), and consistent after a crash — no
/// lost committed writes, no visible half-segment.
#[test]
fn flush_fault_leaves_the_store_readable_and_retryable() {
    for kind in [FaultKind::Enospc, FaultKind::ShortWrite] {
        let dir = tmp_dir("flush-fault");
        std::fs::create_dir_all(&dir).unwrap();
        let n = 20u32;
        // fsync off + huge watermark: the only Write-class ops before the
        // explicit flush are the n WAL appends, so the (n+1)-th write is
        // the segment append.
        let config = StoreConfig {
            memtable_max_bytes: usize::MAX,
            fsync: false,
            compact_at_segments: 100,
            ..StoreConfig::default()
        };
        let vfs = Arc::new(FaultVfs::new(FaultConfig {
            scheduled: vec![ScheduledFault { op: FaultOp::Write, nth: u64::from(n) + 1, kind }],
            ..FaultConfig::quiet(42)
        }));
        let store = Store::open_with_vfs(&dir, config.clone(), vfs).unwrap();
        for i in 0..n {
            store.put(format!("k{i:02}").as_bytes(), &[i as u8; 32]).unwrap();
        }
        assert!(store.flush().is_err(), "{kind:?}: the faulted flush must surface");
        for i in 0..n {
            assert_eq!(
                store.get(format!("k{i:02}").as_bytes()).unwrap(),
                Some(vec![i as u8; 32]),
                "{kind:?}: reads must not notice the failed flush"
            );
        }
        // Nothing else is scheduled: the retry lands.
        store.flush().unwrap();
        let stats = store.stats();
        assert_eq!((stats.flushes, stats.flush_failures), (1, 1), "{kind:?}: {stats:?}");
        drop(store);
        let store = Store::open(&dir, config).unwrap();
        assert_eq!(store.stats().recovered_ops, 0, "{kind:?}: the flush reset the WAL");
        for i in 0..n {
            assert_eq!(
                store.get(format!("k{i:02}").as_bytes()).unwrap(),
                Some(vec![i as u8; 32]),
                "{kind:?}: consistent after reopen"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// When no flush can land at all (every segment write fails) and the
/// process dies, the WAL is the durability anchor: the next open replays
/// every committed write from it.
#[test]
fn crash_after_failed_flushes_recovers_from_the_wal() {
    let dir = tmp_dir("flush-crash");
    std::fs::create_dir_all(&dir).unwrap();
    let n = 10u32;
    let config = StoreConfig {
        memtable_max_bytes: usize::MAX,
        fsync: false,
        compact_at_segments: 100,
        ..StoreConfig::default()
    };
    // Fail every segment append after the n WAL appends.
    let scheduled: Vec<ScheduledFault> = (0..3)
        .map(|i| ScheduledFault {
            op: FaultOp::Write,
            nth: u64::from(n) + 1 + i,
            kind: FaultKind::Error,
        })
        .collect();
    let vfs = Arc::new(FaultVfs::new(FaultConfig { scheduled, ..FaultConfig::quiet(7) }));
    let store = Store::open_with_vfs(&dir, config.clone(), vfs).unwrap();
    for i in 0..n {
        store.put(format!("k{i:02}").as_bytes(), &[i as u8; 32]).unwrap();
    }
    for attempt in 0..3 {
        assert!(store.flush().is_err(), "flush attempt {attempt} must surface its fault");
    }
    for i in 0..n {
        assert_eq!(
            store.get(format!("k{i:02}").as_bytes()).unwrap(),
            Some(vec![i as u8; 32]),
            "reads keep working while flushes fail"
        );
    }
    assert_eq!(store.stats().flush_failures, 3);
    drop(store); // crash
    let store = Store::open(&dir, config).unwrap();
    assert_eq!(store.stats().recovered_ops, u64::from(n), "every committed op recovers");
    assert_eq!(store.stats().segments, 0, "no failed flush left a segment");
    for i in 0..n {
        assert_eq!(store.get(format!("k{i:02}").as_bytes()).unwrap(), Some(vec![i as u8; 32]));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The publish ordering satellite: the segment's rename lands but the
/// *directory* fsync fails, so the dir entry is not durable. The publish
/// must be withdrawn (no half-published segment) and the retry must
/// succeed.
#[test]
fn directory_fsync_failure_during_publish_withdraws_and_retries() {
    let dir = tmp_dir("dirsync");
    std::fs::create_dir_all(&dir).unwrap();
    let n = 8u32;
    let config = StoreConfig {
        memtable_max_bytes: usize::MAX,
        fsync: true,
        compact_at_segments: 100,
        ..StoreConfig::default()
    };
    // Fsync ordinals: 1..=n are WAL appends, n+1 is the segment file,
    // n+2 is the directory sync that makes the rename durable.
    let vfs = Arc::new(FaultVfs::new(FaultConfig {
        scheduled: vec![ScheduledFault {
            op: FaultOp::Fsync,
            nth: u64::from(n) + 2,
            kind: FaultKind::Error,
        }],
        ..FaultConfig::quiet(1998)
    }));
    let store = Store::open_with_vfs(&dir, config.clone(), vfs).unwrap();
    for i in 0..n {
        store.put(format!("k{i:02}").as_bytes(), &[i as u8; 32]).unwrap();
    }
    assert!(store.flush().is_err(), "the dir-fsync failure must surface at the barrier");
    for i in 0..n {
        assert_eq!(store.get(format!("k{i:02}").as_bytes()).unwrap(), Some(vec![i as u8; 32]));
    }
    store.flush().unwrap(); // retry publishes cleanly
    drop(store);
    let store = Store::open(&dir, config).unwrap();
    assert_eq!(store.stats().recovered_ops, 0, "the retried publish reset the WAL");
    for i in 0..n {
        assert_eq!(store.get(format!("k{i:02}").as_bytes()).unwrap(), Some(vec![i as u8; 32]));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The write-ordinal sweep: inject one Write-class fault at *every*
/// ordinal in turn and crash. Whichever operation it lands on — a WAL
/// append, a flush's segment append, a compaction merge — every
/// acknowledged put is present after reopen and no failed put is.
#[test]
fn every_write_ordinal_fault_keeps_acked_puts() {
    for nth in 1..=40u64 {
        let dir = tmp_dir("ordinal-sweep");
        std::fs::create_dir_all(&dir).unwrap();
        let config = StoreConfig {
            memtable_max_bytes: 192,
            fsync: false,
            compact_at_segments: 3,
            bloom_bits_per_key: 10,
        };
        let vfs = Arc::new(FaultVfs::new(FaultConfig {
            scheduled: vec![ScheduledFault {
                op: FaultOp::Write,
                nth,
                kind: FaultKind::ShortWrite,
            }],
            ..FaultConfig::quiet(nth)
        }));
        let store = Store::open_with_vfs(&dir, config.clone(), vfs.clone()).unwrap();
        let acked: Vec<bool> = (0..30u32)
            .map(|i| store.put(format!("k{i:02}").as_bytes(), &[i as u8; 24]).is_ok())
            .collect();
        assert_eq!(vfs.stats().injected[1], 1, "fault at write #{nth} must fire");
        assert_eq!(acked.iter().filter(|ok| !**ok).count(), 1, "fault at write #{nth}");
        drop(store); // crash
        let store = Store::open(&dir, config).unwrap();
        for (i, ok) in acked.iter().enumerate() {
            assert_eq!(
                store.get(format!("k{i:02}").as_bytes()).unwrap(),
                ok.then(|| vec![i as u8; 24]),
                "fault at write #{nth}: put k{i:02} (acked: {ok}) after the crash"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn writes_after_recovery_extend_the_clean_prefix() {
    let ops = synthetic_ops();
    let (log, _) = boundaries(&ops);
    let dir = tmp_dir("resume");
    std::fs::create_dir_all(&dir).unwrap();
    // Torn mid-final-record.
    std::fs::write(dir.join("wal.log"), &log[..log.len() - 3]).unwrap();
    let store = Store::open(&dir, StoreConfig { fsync: false, ..StoreConfig::default() }).unwrap();
    assert_eq!(store.stats().recovered_ops, 4);
    store.put(b"fresh", b"after-crash").unwrap();
    drop(store);
    let store = Store::open(&dir, StoreConfig::default()).unwrap();
    assert_eq!(store.get(b"fresh").unwrap(), Some(b"after-crash".to_vec()));
    assert_eq!(store.get(b"sci/nbody").unwrap(), Some((0..=255u8).collect::<Vec<_>>()));
    assert_eq!(store.get(b"meta/format").unwrap(), None, "the torn record must stay lost");
    let _ = std::fs::remove_dir_all(&dir);
}
