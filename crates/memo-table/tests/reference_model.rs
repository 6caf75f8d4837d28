//! An independent oracle for `MemoTable`: a naive model written from the
//! paper's description (§2.1–§3.1) and from the protection ladder that
//! `fault.rs` documents, sharing no code with the table beyond the
//! operation types, the trivial-operation classifier and the fault
//! injector's random streams. Each set is a vector of full-value entries
//! in MRU-first order: a hit moves the entry to the front, and an insert
//! into a full set drops the last. Each entry keeps its stored payload
//! and the clean payload it was written with, so the model sees exactly
//! the bit errors a checker would.
//!
//! `MemoTable::execute` and `execute_batch` (tile widths 1, 5, 64 and a
//! ragged mix) must agree with the model on the hostile streams of
//! `common::stream`, under all three trivial policies, commutative
//! probing on and off, and both hash schemes. Protected tables must agree
//! op by op under every policy, value-strike rate and double-flip
//! fraction.

mod common;

use common::stream;
use memo_table::{
    trivial_result, Assoc, BatchOutcome, FaultConfig, FaultInjector, HashScheme, MemoConfig,
    MemoStats, MemoTable, Memoizer, Op, OpBatch, OpKind, Outcome, Protection, TrivialPolicy,
};

/// An entry's tag: the kind plus both operand bit patterns.
type Tag = (OpKind, u64, u64);

#[derive(Clone, Copy)]
struct Entry {
    tag: Tag,
    /// The payload as it now sits in the cell, strikes included.
    stored: u64,
    /// The payload as written; the check bits cover this one.
    clean: u64,
}

#[derive(Clone)]
struct Model {
    /// Per set, MRU first.
    sets: Vec<Vec<Entry>>,
    ways: usize,
    trivial: TrivialPolicy,
    commutative: bool,
    hash: HashScheme,
    protection: Protection,
    /// The value-strike process: one draw per matched probe.
    faults: FaultInjector,
    stats: MemoStats,
}

impl Model {
    fn new(cfg: &MemoConfig, faults: FaultConfig) -> Self {
        Model {
            sets: vec![Vec::new(); cfg.sets()],
            ways: cfg.ways(),
            trivial: cfg.trivial(),
            commutative: cfg.commutative(),
            hash: cfg.hash(),
            protection: cfg.protection(),
            faults: FaultInjector::new(faults),
            stats: MemoStats::default(),
        }
    }

    /// The paper's index: XOR of the low bits of integer operands, or of
    /// the top mantissa bits of floating-point ones; or the FoldMix hash.
    fn set_of(&self, op: &Op) -> usize {
        let sets = self.sets.len() as u64;
        if sets == 1 {
            return 0;
        }
        let n = sets.trailing_zeros();
        let (a, b) = op.operand_bits();
        let index = match self.hash {
            HashScheme::PaperXor => {
                let top = |x: u64| (x & ((1 << 52) - 1)) >> (52 - n);
                match op {
                    Op::IntMul(..) => a ^ b,
                    Op::FpSqrt(_) => top(a),
                    _ => top(a) ^ top(b),
                }
            }
            HashScheme::FoldMix => {
                (a ^ b.rotate_left(31)).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - n)
            }
        };
        (index & (sets - 1)) as usize
    }

    /// Search one set. A match may first take a new strike, then is
    /// checked by the protection policy on the number of flipped bits:
    ///
    /// * none serves whatever is stored;
    /// * parity detects odd counts and serves even ones;
    /// * SEC-DED corrects one flip in place, detects two, and serves
    ///   three or more as a miscorrection;
    /// * verification recomputes and detects any difference.
    ///
    /// A detected corruption drops the entry and the probe misses; an
    /// entry that survives becomes the most recently used.
    fn lookup(&mut self, set: usize, tag: Tag) -> Option<u64> {
        let pos = self.sets[set].iter().position(|e| e.tag == tag)?;
        let mut entry = self.sets[set].remove(pos);
        if let Some(mask) = self.faults.value_strike() {
            entry.stored ^= mask;
            self.stats.faults_injected += 1;
        }
        let stats = &mut self.stats;
        let served = match (self.protection, (entry.stored ^ entry.clean).count_ones()) {
            (_, 0) => entry.stored,
            (Protection::ParityDetect, n) if n % 2 == 1 => {
                stats.faults_detected += 1;
                return None;
            }
            (Protection::EccSecDed, 2) | (Protection::VerifyOnHit { .. }, _) => {
                stats.faults_detected += 1;
                return None;
            }
            (Protection::EccSecDed, 1) => {
                stats.faults_corrected += 1;
                entry.stored = entry.clean;
                entry.clean
            }
            _ => {
                stats.faults_silent += 1;
                entry.stored
            }
        };
        self.sets[set].insert(0, entry);
        Some(served)
    }

    /// Probe, compute on a miss, insert: the outcome and the served bits.
    fn execute(&mut self, op: Op) -> (Outcome, u64) {
        let truth = op.compute().to_bits();
        self.stats.ops_seen += 1;
        if trivial_result(&op).is_some() {
            self.stats.trivial_seen += 1;
            match self.trivial {
                TrivialPolicy::Exclude => return (Outcome::Filtered, truth),
                TrivialPolicy::Integrate => return (Outcome::Trivial, truth),
                TrivialPolicy::Memoize => {}
            }
        }
        self.stats.table_lookups += 1;
        let (kind, (a, b)) = (op.kind(), op.operand_bits());
        let set = self.set_of(&op);
        if let Some(bits) = self.lookup(set, (kind, a, b)) {
            self.stats.table_hits += 1;
            return (Outcome::Hit, bits);
        }
        if let Some(swapped) = op.swapped().filter(|_| self.commutative) {
            if let Some(bits) = self.lookup(self.set_of(&swapped), (kind, b, a)) {
                self.stats.table_hits += 1;
                self.stats.commutative_hits += 1;
                return (Outcome::Hit, bits);
            }
        }
        let row = &mut self.sets[set];
        if row.len() == self.ways {
            row.pop();
            self.stats.evictions += 1;
        }
        row.insert(0, Entry { tag: (kind, a, b), stored: truth, clean: truth });
        self.stats.insertions += 1;
        (Outcome::Miss, truth)
    }
}

/// Every (trivial, commutative, hash) combination at four geometries:
/// set-associative, direct-mapped, and a single fully associative set.
fn configs() -> Vec<MemoConfig> {
    let geometries =
        [(8, Assoc::Ways(2)), (32, Assoc::Ways(4)), (16, Assoc::DirectMapped), (4, Assoc::Full)];
    let mut out = Vec::new();
    for (entries, assoc) in geometries {
        for trivial in [TrivialPolicy::Exclude, TrivialPolicy::Integrate, TrivialPolicy::Memoize] {
            for commutative in [false, true] {
                for hash in [HashScheme::PaperXor, HashScheme::FoldMix] {
                    let cfg = MemoConfig::builder(entries)
                        .assoc(assoc)
                        .trivial(trivial)
                        .commutative(commutative)
                        .hash(hash)
                        .build()
                        .expect("valid config");
                    out.push(cfg);
                }
            }
        }
    }
    out
}

#[test]
fn execute_matches_reference_model() {
    for kind in OpKind::ALL {
        let (a, b) = stream(kind, 0x1998_0006, 483);
        let batch = OpBatch::new(kind, &a, &b);
        for cfg in configs() {
            let (mut table, mut model) =
                (MemoTable::new(cfg), Model::new(&cfg, FaultConfig::disabled()));
            for i in 0..batch.len() {
                let op = batch.op(i);
                let got = table.execute(op);
                let want = model.execute(op);
                let label = format!("{} {} op {i} ({op})", kind.label(), cfg.canonical());
                assert_eq!((got.outcome, got.value.to_bits()), want, "{label}");
            }
            assert_eq!(table.stats(), model.stats, "{} {}", kind.label(), cfg.canonical());
        }
    }
}

#[test]
fn execute_batch_matches_reference_model_at_every_tile_width() {
    // 483 lanes leave ragged tails at widths 5 and 64; the last pattern
    // mixes widths so tiles start at arbitrary offsets.
    const PATTERNS: [&[usize]; 4] = [&[1], &[5], &[64], &[1, 5, 64, 7, 33, 2]];
    for kind in OpKind::ALL {
        let (a, b) = stream(kind, 0x1998_0007, 483);
        let batch = OpBatch::new(kind, &a, &b);
        for cfg in configs() {
            let mut model = Model::new(&cfg, FaultConfig::disabled());
            let mut want = BatchOutcome::default();
            for i in 0..batch.len() {
                match model.execute(batch.op(i)).0 {
                    Outcome::Hit => want.hits += 1,
                    Outcome::Trivial => want.trivials += 1,
                    Outcome::Filtered | Outcome::Miss => {}
                }
            }
            for widths in PATTERNS {
                let mut table = MemoTable::new(cfg);
                let mut got = BatchOutcome::default();
                let (mut start, mut tile) = (0, 0);
                while start < batch.len() {
                    let w = widths[tile % widths.len()].min(batch.len() - start);
                    got.absorb(table.execute_batch(&batch.slice(start, w)));
                    start += w;
                    tile += 1;
                }
                let label = format!("{} {} widths {widths:?}", kind.label(), cfg.canonical());
                assert_eq!(got, want, "{label}: tallies");
                assert_eq!(table.stats(), model.stats, "{label}: stats");

                // Same resident entries and recency: a scalar follow-up
                // pass must agree op for op.
                let mut after = model.clone();
                for i in 0..96 {
                    let op = batch.op(i);
                    let got = table.execute(op);
                    let want = after.execute(op);
                    assert_eq!((got.outcome, got.value.to_bits()), want, "{label}: state");
                }
            }
        }
    }
}

#[test]
fn protected_execute_matches_reference_model() {
    let geometries =
        [(8, Assoc::Ways(2)), (32, Assoc::Ways(4)), (16, Assoc::DirectMapped), (4, Assoc::Full)];
    for protection in Protection::ALL {
        for rate in [0.0, 0.1, 1.0] {
            for double in [0.0, 0.5] {
                let faults = FaultConfig::single_bit(0x50F7, rate).with_double_fraction(double);
                let mut seen = MemoStats::default();
                for (entries, assoc) in geometries {
                    let cfg = MemoConfig::builder(entries)
                        .assoc(assoc)
                        .protection(protection)
                        .build()
                        .expect("valid config");
                    for kind in OpKind::ALL {
                        let (a, b) = stream(kind, 0x1998_0008, 483);
                        let batch = OpBatch::new(kind, &a, &b);
                        let mut table =
                            MemoTable::new(cfg).with_fault_injector(FaultInjector::new(faults));
                        let mut model = Model::new(&cfg, faults);
                        let case = format!(
                            "{protection}, value rate {rate}, double fraction {double}, {} {}",
                            cfg.canonical(),
                            kind.label()
                        );
                        for i in 0..batch.len() {
                            let op = batch.op(i);
                            let got = table.execute(op);
                            let want = model.execute(op);
                            let at = format!("{case}: op {i} ({op})");
                            assert_eq!((got.outcome, got.value.to_bits()), want, "{at}");
                            assert_eq!(table.stats(), model.stats, "{at}: stats");
                        }
                        seen += model.stats;
                    }
                }
                // The case must have exercised the fault path it names.
                assert_eq!(seen.faults_injected > 0, rate > 0.0, "{protection} at rate {rate}");
            }
        }
    }
}
