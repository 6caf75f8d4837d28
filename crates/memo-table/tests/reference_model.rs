//! An independent oracle for `MemoTable`: a naive model written from the
//! paper's description (§2.1–§3.1) that shares no code with the table
//! beyond the operation types and the trivial-operation classifier. Each
//! set is a vector of full-value entries in MRU-first order: a hit moves
//! the entry to the front, and an insert into a full set drops the last.
//!
//! `MemoTable::execute` and `execute_batch` (tile widths 1, 5, 64 and a
//! ragged mix) must agree with the model on the hostile streams of
//! `common::stream`, under all three trivial policies, commutative
//! probing on and off, and both hash schemes.

mod common;

use common::stream;
use memo_table::{
    trivial_result, Assoc, BatchOutcome, HashScheme, MemoConfig, MemoStats, MemoTable, Memoizer,
    Op, OpBatch, OpKind, Outcome, TrivialPolicy,
};

/// An entry's tag: the kind plus both operand bit patterns.
type Tag = (OpKind, u64, u64);

#[derive(Clone)]
struct Model {
    /// Per set, MRU first: (tag, result bits).
    sets: Vec<Vec<(Tag, u64)>>,
    ways: usize,
    trivial: TrivialPolicy,
    commutative: bool,
    hash: HashScheme,
    stats: MemoStats,
}

impl Model {
    fn new(cfg: &MemoConfig) -> Self {
        Model {
            sets: vec![Vec::new(); cfg.sets()],
            ways: cfg.ways(),
            trivial: cfg.trivial(),
            commutative: cfg.commutative(),
            hash: cfg.hash(),
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

    /// Search one set; a hit becomes the most recently used entry.
    fn lookup(&mut self, set: usize, tag: Tag) -> Option<u64> {
        let row = &mut self.sets[set];
        let pos = row.iter().position(|&(t, _)| t == tag)?;
        let entry = row.remove(pos);
        row.insert(0, entry);
        Some(entry.1)
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
        row.insert(0, ((kind, a, b), truth));
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
            let (mut table, mut model) = (MemoTable::new(cfg), Model::new(&cfg));
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
            let mut model = Model::new(&cfg);
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
