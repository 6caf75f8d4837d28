//! Model oracle: seeded op sequences run against the store and against a
//! `BTreeMap`, which must agree at every get and after every reopen.
//!
//! The store runs on `StoreConfig::small_for_tests()`, whose 256-byte
//! memtable and 4-segment compaction threshold make writes flush and
//! compact every few ops. Flushes run inline on the writing thread, so the
//! I/O an op sequence does is a function of the sequence alone: a counting
//! dry run tells which write and fsync ordinals each op performs, and the
//! fault variant then fails one of them inside a chosen put or delete.
//! Every assertion names its seed and op index. A last test races
//! readers against a writer whose puts flush and compact.

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use memo_store::{FaultConfig, FaultKind, FaultOp, FaultVfs, ScheduledFault, Store, StoreConfig};

const SEEDS: u64 = 64;
const KEYS: u64 = 24;
const OPS: usize = 200;
/// Ops per fault-variant sequence: each runs twice, half of them with an
/// fsync per write.
const FAULT_OPS: usize = 120;

/// SplitMix64, the generator behind every op sequence.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

#[derive(Debug, Clone)]
enum Op {
    Put(Vec<u8>, Vec<u8>),
    Delete(Vec<u8>),
    Get(Vec<u8>),
    Flush,
    Compact,
    Clear,
    Reopen,
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let key = |k: &[u8]| String::from_utf8_lossy(k).into_owned();
        match self {
            Op::Put(k, v) => write!(f, "put {} ({} B)", key(k), v.len()),
            Op::Delete(k) => write!(f, "delete {}", key(k)),
            Op::Get(k) => write!(f, "get {}", key(k)),
            Op::Flush => f.write_str("flush"),
            Op::Compact => f.write_str("compact"),
            Op::Clear => f.write_str("clear"),
            Op::Reopen => f.write_str("drop and reopen"),
        }
    }
}

fn key(i: u64) -> Vec<u8> {
    format!("key-{i:02}").into_bytes()
}

fn ops(seed: u64, n: usize) -> Vec<Op> {
    let mut rng = Rng(seed);
    (0..n)
        .map(|_| {
            let k = key(rng.below(KEYS));
            match rng.below(100) {
                0..45 => {
                    let len = rng.below(301);
                    Op::Put(k, (0..len).map(|_| rng.next() as u8).collect())
                }
                45..57 => Op::Delete(k),
                57..82 => Op::Get(k),
                82..88 => Op::Flush,
                88..92 => Op::Compact,
                92..93 => Op::Clear,
                _ => Op::Reopen,
            }
        })
        .collect()
}

fn tmp_dir(tag: &str, seed: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("memo-model-{tag}-{}-{seed}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every key of the universe reads as the model says.
fn assert_matches(store: &Store, model: &BTreeMap<Vec<u8>, Vec<u8>>, at: &str) {
    for i in 0..KEYS {
        let k = key(i);
        let got = store.get(&k).unwrap_or_else(|e| panic!("{at}: get key-{i:02} failed: {e}"));
        assert_eq!(got.as_ref(), model.get(&k), "{at}: key-{i:02} differs from the model");
    }
}

/// Run `ops` on a fresh store over `vfs`, mirroring each into the model
/// and checking every get against it; the op at index `faulted` must
/// fail, is left out of the model, and must leave the store equal to the
/// model both before and after a reopen. Finishes with a reopen on the
/// real filesystem that
/// must equal the model. Returns the cumulative `[writes, fsyncs]` the
/// VFS had seen after each op.
fn run(
    seed: u64,
    ops: &[Op],
    config: &StoreConfig,
    dir: &Path,
    vfs: &Arc<FaultVfs>,
    faulted: Option<usize>,
) -> Vec<[u64; 2]> {
    let open = |at: &str| {
        Store::open_with_vfs(dir, config.clone(), vfs.clone())
            .unwrap_or_else(|e| panic!("{at}: open failed: {e}"))
    };
    let mut store = open(&format!("seed {seed} start"));
    let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
    let mut io = Vec::with_capacity(ops.len());
    for (i, op) in ops.iter().enumerate() {
        let at = format!("seed {seed} op {i} ({op})");
        let result = match op {
            Op::Put(k, v) => store.put(k, v),
            Op::Delete(k) => store.delete(k),
            Op::Get(k) => {
                let got = store.get(k).unwrap_or_else(|e| panic!("{at}: get failed: {e}"));
                assert_eq!(got.as_ref(), model.get(k), "{at}: differs from the model");
                Ok(())
            }
            Op::Flush => store.flush(),
            Op::Compact => store.compact(),
            Op::Clear => store.clear(),
            Op::Reopen => {
                drop(store);
                store = open(&at);
                assert_matches(&store, &model, &at);
                Ok(())
            }
        };
        if faulted == Some(i) {
            assert!(result.is_err(), "{at}: the scheduled fault must fail this op");
            // The failed op changed nothing the store serves, in memory
            // or, after a crash right here, on disk.
            assert_matches(&store, &model, &format!("{at}, after its fault"));
            drop(store);
            store = open(&at);
            assert_matches(&store, &model, &format!("{at}, reopened after its fault"));
        } else {
            result.unwrap_or_else(|e| panic!("{at}: failed: {e}"));
            match op {
                Op::Put(k, v) => {
                    model.insert(k.clone(), v.clone());
                }
                Op::Delete(k) => {
                    model.remove(k);
                }
                Op::Clear => model.clear(),
                _ => {}
            }
        }
        let seen = vfs.stats().ops;
        io.push([seen[1], seen[2]]);
    }
    drop(store);
    let at = format!("seed {seed} after op {} and a reopen", ops.len() - 1);
    let store = Store::open(dir, config.clone()).unwrap_or_else(|e| panic!("{at}: {e}"));
    assert_matches(&store, &model, &at);
    drop(store);
    let _ = std::fs::remove_dir_all(dir);
    io
}

#[test]
fn seeded_op_sequences_match_a_btreemap() {
    let config = StoreConfig::small_for_tests();
    for seed in 0..SEEDS {
        let dir = tmp_dir("plain", seed);
        let vfs = Arc::new(FaultVfs::new(FaultConfig::quiet(seed)));
        run(seed, &ops(seed, OPS), &config, &dir, &vfs, None);
    }
}

#[test]
fn one_write_or_fsync_fault_at_op_k_leaves_the_model_after_reopen() {
    for seed in 0..SEEDS {
        // Even seeds fail a write, odd seeds an fsync, which needs a
        // store that syncs.
        let (class, column, config) = if seed % 2 == 0 {
            (FaultOp::Write, 0, StoreConfig::small_for_tests())
        } else {
            (FaultOp::Fsync, 1, StoreConfig { fsync: true, ..StoreConfig::small_for_tests() })
        };
        let kind = match (class, seed % 6) {
            (FaultOp::Write, 0) => FaultKind::Error,
            (FaultOp::Write, 2) => FaultKind::Enospc,
            (FaultOp::Write, _) => FaultKind::ShortWrite,
            _ => FaultKind::Error,
        };
        let ops = ops(seed.wrapping_add(1 << 32), FAULT_OPS);
        let dir = tmp_dir("fault", seed);
        let dry = Arc::new(FaultVfs::new(FaultConfig::quiet(seed)));
        let io = run(seed, &ops, &config, &dir, &dry, None);

        // Op k is a put or a delete; the fault lands on one of the
        // writes or fsyncs it performs: a WAL append, or a step of the
        // flush or compaction it runs first.
        let mut rng = Rng(seed ^ 0xFA17);
        let writes: Vec<usize> =
            (0..ops.len()).filter(|&i| matches!(ops[i], Op::Put(..) | Op::Delete(_))).collect();
        let k = writes[rng.below(writes.len() as u64) as usize];
        let before = if k == 0 { 0 } else { io[k - 1][column] };
        let during = io[k][column] - before;
        assert!(during > 0, "seed {seed} op {k} ({}): does no {class:?}", ops[k]);
        let nth = before + 1 + rng.below(during);

        let vfs = Arc::new(FaultVfs::new(FaultConfig {
            scheduled: vec![ScheduledFault { op: class, nth, kind }],
            ..FaultConfig::quiet(seed)
        }));
        run(seed, &ops, &config, &dir, &vfs, Some(k));
        let injected = vfs.stats().injected;
        assert_eq!(
            injected[column + 1],
            1,
            "seed {seed} op {k} ({}): {class:?} #{nth} was not injected",
            ops[k]
        );
    }
}

/// Readers racing a writer whose puts flush and compact: every read
/// finds a key absent or holding the value written for it, never an
/// error or other bytes, and every write is readable at the end.
#[test]
fn concurrent_readers_see_absent_or_the_written_value() {
    let dir = tmp_dir("concurrent", 0);
    let store = Store::open(&dir, StoreConfig::small_for_tests()).unwrap();
    let value = |i: u32| vec![i as u8; 40];
    std::thread::scope(|s| {
        let writer = s.spawn(|| {
            for i in 0..150u32 {
                store.put(format!("c{i:04}").as_bytes(), &value(i)).unwrap();
            }
        });
        for _ in 0..4 {
            s.spawn(|| {
                for i in (0..150u32).rev() {
                    if let Some(v) = store.get(format!("c{i:04}").as_bytes()).unwrap() {
                        assert_eq!(v, value(i), "c{i:04}");
                    }
                }
            });
        }
        writer.join().unwrap();
    });
    for i in 0..150u32 {
        assert_eq!(store.get(format!("c{i:04}").as_bytes()).unwrap(), Some(value(i)), "c{i:04}");
    }
    assert!(store.stats().compactions > 0, "the writer flushed and compacted");
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}
