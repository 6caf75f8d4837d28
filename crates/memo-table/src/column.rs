//! The infinite-table column of a sweep, counted without the table.
//!
//! Tables 5–7 report every application's hit ratios against an
//! "infinitely large, fully associative" table next to the finite
//! configuration. [`InfiniteMemoTable`] answers that by storing every
//! result it ever computed; its *statistics* need far less. Under the
//! reference table's policies — full-value tags, trivial operations kept
//! out of the table, commutative probing — a full-value tag always
//! encodes and a result always stores, and nothing is ever evicted, so a
//! lookup hits exactly when its operand pair was seen before (in either
//! order, for a commutative kind). [`InfiniteColumn`] therefore keeps one
//! open-addressed set of canonical operand pairs and the orientation each
//! was first stored in: 17 bytes a slot, at most three quarters of the
//! slots in use.
//!
//! [`InfiniteMemoTable`]: crate::InfiniteMemoTable

use std::hash::BuildHasher;

use crate::config::{TagPolicy, TrivialPolicy};
use crate::key::{encode_tag, KeyHashBuilder};
use crate::op::Op;
use crate::stack::SweepGridError;
use crate::stats::MemoStats;
use crate::trivial::trivial_result;

/// Slot marks: empty, or the orientation the pair was first stored in.
const EMPTY: u8 = 0;
const STORED: u8 = 1;
const STORED_SWAPPED: u8 = 2;

/// Slots allocated on the first insertion.
const INITIAL_SLOTS: usize = 64;

/// Exact [`InfiniteMemoTable`](crate::InfiniteMemoTable) statistics for
/// one operation kind's stream, from a compact set of operand pairs.
///
/// Feed it the stream of one table — every hardware unit has its own, so
/// streams of different kinds never share a column — via
/// [`access`](Self::access), then read [`stats`](Self::stats).
///
/// # Examples
///
/// ```
/// use memo_table::{InfiniteColumn, InfiniteMemoTable, Memoizer, Op};
///
/// let ops = [Op::IntMul(3, 9), Op::IntMul(9, 3), Op::IntMul(1, 7), Op::IntMul(3, 9)];
/// let mut column = InfiniteColumn::new();
/// let mut table = InfiniteMemoTable::new();
/// for op in ops {
///     column.access(op);
///     table.execute(op);
/// }
/// assert_eq!(column.stats(), table.stats());
/// assert_eq!(column.stats().commutative_hits, 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct InfiniteColumn {
    /// Canonical operand-pair tags, open-addressed with linear probing.
    tags: Vec<u128>,
    /// One mark per slot of `tags`.
    marks: Vec<u8>,
    /// Occupied slots.
    len: usize,
    stats: MemoStats,
}

impl InfiniteColumn {
    /// The column of [`InfiniteMemoTable::new`](crate::InfiniteMemoTable::new):
    /// full-value tags, trivial operations excluded, commutative probing.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The column of an infinite table with these policies.
    ///
    /// # Errors
    ///
    /// [`SweepGridError::MixedPolicies`] unless the policies are the ones
    /// the column models: full-value tags, trivial operations kept out of
    /// the table (`Exclude` and `Integrate` see identical table traffic),
    /// and commutative probing.
    pub fn with_policies(
        tag: TagPolicy,
        trivial: TrivialPolicy,
        commutative: bool,
    ) -> Result<Self, SweepGridError> {
        if tag != TagPolicy::FullValue || trivial == TrivialPolicy::Memoize || !commutative {
            return Err(SweepGridError::MixedPolicies);
        }
        Ok(Self::new())
    }

    /// Count one operation.
    pub fn access(&mut self, op: Op) {
        self.stats.ops_seen += 1;
        if trivial_result(&op).is_some() {
            self.stats.trivial_seen += 1;
            return;
        }
        self.stats.table_lookups += 1;
        let own = encode_tag(&op, TagPolicy::FullValue).expect("full-value tags always encode");
        // Track a commutative pair under its smaller order; the mark
        // records which order the table stored, so a later access in the
        // other order is a commutative hit.
        let mut canon = own.tag;
        let mut swapped_now = false;
        if let Some(sw) = op.swapped() {
            let skey =
                encode_tag(&sw, TagPolicy::FullValue).expect("full-value tags always encode");
            if skey.tag < canon {
                canon = skey.tag;
                swapped_now = true;
            }
        }
        if (self.len + 1) * 4 > self.tags.len() * 3 {
            self.grow();
        }
        let mask = self.tags.len() - 1;
        let mut slot = self.home(canon);
        loop {
            match self.marks[slot] {
                EMPTY => {
                    self.tags[slot] = canon;
                    self.marks[slot] = if swapped_now { STORED_SWAPPED } else { STORED };
                    self.len += 1;
                    self.stats.insertions += 1;
                    return;
                }
                mark if self.tags[slot] == canon => {
                    self.stats.table_hits += 1;
                    if (mark == STORED_SWAPPED) != swapped_now {
                        self.stats.commutative_hits += 1;
                    }
                    return;
                }
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// The statistics an [`InfiniteMemoTable`](crate::InfiniteMemoTable)
    /// would report for the same stream.
    #[must_use]
    pub fn stats(&self) -> MemoStats {
        self.stats
    }

    fn home(&self, tag: u128) -> usize {
        KeyHashBuilder::default().hash_one(tag) as usize & (self.tags.len() - 1)
    }

    /// Double the slot count (or allocate the first slots) and re-place
    /// every stored pair.
    fn grow(&mut self) {
        let slots = (self.tags.len() * 2).max(INITIAL_SLOTS);
        let tags = std::mem::replace(&mut self.tags, vec![0; slots]);
        let marks = std::mem::replace(&mut self.marks, vec![EMPTY; slots]);
        for (tag, mark) in tags.into_iter().zip(marks).filter(|&(_, mark)| mark != EMPTY) {
            let mut slot = self.home(tag);
            while self.marks[slot] != EMPTY {
                slot = (slot + 1) & (slots - 1);
            }
            self.tags[slot] = tag;
            self.marks[slot] = mark;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::infinite::InfiniteMemoTable;
    use crate::op::OpKind;
    use crate::rng::SplitMix64;
    use crate::Memoizer;

    /// Operand bit patterns that stress the tag path: small reusable
    /// values, trivial operands, both zeros, NaNs with distinct payloads,
    /// infinities and denormals.
    fn operand(rng: &mut SplitMix64) -> u64 {
        const SPECIAL: [u64; 10] = [
            0x0000_0000_0000_0000, // +0.0
            0x8000_0000_0000_0000, // -0.0
            0x3FF0_0000_0000_0000, // 1.0
            0xBFF0_0000_0000_0000, // -1.0
            0x7FF8_0000_0000_0000, // quiet NaN
            0x7FF8_0000_0000_0001, // NaN, another payload
            0xFFF4_0000_0000_0000, // negative signalling NaN
            0x7FF0_0000_0000_0000, // +inf
            0x0000_0000_0000_0001, // smallest denormal
            0x4000_0000_0000_0000, // 2.0
        ];
        if rng.next_below(4) == 0 {
            SPECIAL[rng.next_below(SPECIAL.len() as u64) as usize]
        } else {
            (f64::from(rng.next_below(24) as u32) * 0.5 - 2.0).to_bits()
        }
    }

    /// A seeded stream of one kind: both operand orders, `a == b` pairs,
    /// trivial operands and special bit patterns.
    fn stream(kind: OpKind, seed: u64, n: usize) -> Vec<Op> {
        let mut rng = SplitMix64::new(seed).split("infinite-column");
        let mut ops = Vec::with_capacity(n);
        while ops.len() < n {
            let a = operand(&mut rng);
            let b = if rng.next_below(8) == 0 { a } else { operand(&mut rng) };
            let op = match kind {
                OpKind::IntMul => {
                    // Small integers, so 0 and 1 (trivial) recur.
                    let (a, b) = ((a % 13) as i64 - 3, (b % 13) as i64 - 3);
                    Op::IntMul(a, b)
                }
                OpKind::FpMul => Op::FpMul(f64::from_bits(a), f64::from_bits(b)),
                OpKind::FpDiv => Op::FpDiv(f64::from_bits(a), f64::from_bits(b)),
                OpKind::FpSqrt => Op::FpSqrt(f64::from_bits(a)),
            };
            ops.push(op);
            // Replay the pair in the other order now and then.
            if rng.next_below(4) == 0 {
                if let Some(sw) = op.swapped() {
                    ops.push(sw);
                }
            }
        }
        ops
    }

    #[test]
    fn matches_the_infinite_table_on_seeded_streams() {
        for kind in OpKind::ALL {
            for seed in 0..16u64 {
                let ops = stream(kind, seed, 3000);
                let mut column = InfiniteColumn::new();
                let mut table = InfiniteMemoTable::new();
                for &op in &ops {
                    column.access(op);
                    table.execute(op);
                }
                assert_eq!(column.stats(), table.stats(), "{kind:?}, seed {seed}");
                assert_eq!(column.len, table.len(), "{kind:?}, seed {seed}");
            }
        }
    }

    #[test]
    fn integrate_counts_like_exclude() {
        let ops = stream(OpKind::FpMul, 0x1A7E, 3000);
        let mut column =
            InfiniteColumn::with_policies(TagPolicy::FullValue, TrivialPolicy::Integrate, true)
                .unwrap();
        let mut table =
            InfiniteMemoTable::with_policies(TagPolicy::FullValue, TrivialPolicy::Integrate, true);
        for &op in &ops {
            column.access(op);
            table.execute(op);
        }
        assert_eq!(column.stats(), table.stats());
    }

    #[test]
    fn commutative_and_symmetric_pairs() {
        let mut column = InfiniteColumn::new();
        column.access(Op::FpMul(3.0, 5.0));
        column.access(Op::FpMul(5.0, 3.0)); // other order: commutative hit
        column.access(Op::FpMul(3.0, 5.0)); // stored order: plain hit
        column.access(Op::FpMul(2.5, 2.5));
        column.access(Op::FpMul(2.5, 2.5)); // a == b is never commutative
        let s = column.stats();
        assert_eq!((s.table_hits, s.commutative_hits, s.insertions), (3, 1, 2));

        let mut divider = InfiniteColumn::new();
        divider.access(Op::FpDiv(3.0, 5.0));
        divider.access(Op::FpDiv(5.0, 3.0)); // division does not commute
        let s = divider.stats();
        assert_eq!((s.table_hits, s.insertions), (0, 2));
    }

    #[test]
    fn growth_keeps_every_pair() {
        let mut column = InfiniteColumn::new();
        for i in 0..10_000i64 {
            column.access(Op::IntMul(i + 2, 7));
        }
        assert_eq!(column.len, 10_000);
        for i in 0..10_000i64 {
            column.access(Op::IntMul(7, i + 2));
        }
        let s = column.stats();
        assert_eq!((s.table_hits, s.commutative_hits), (10_000, 10_000 - 1));
        assert!(column.tags.len() * 3 >= column.len * 4, "load stays at most 3/4");
    }

    #[test]
    fn rejects_policies_it_does_not_model() {
        // The column models Exclude-class traffic under full-value tags
        // and commutative probing, and nothing else.
        assert!(InfiniteColumn::with_policies(TagPolicy::FullValue, TrivialPolicy::Exclude, true)
            .is_ok());
        assert_eq!(
            InfiniteColumn::with_policies(TagPolicy::FullValue, TrivialPolicy::Memoize, true)
                .unwrap_err(),
            SweepGridError::MixedPolicies
        );
        assert_eq!(
            InfiniteColumn::with_policies(TagPolicy::MantissaOnly, TrivialPolicy::Exclude, true)
                .unwrap_err(),
            SweepGridError::MixedPolicies
        );
        assert_eq!(
            InfiniteColumn::with_policies(TagPolicy::FullValue, TrivialPolicy::Exclude, false)
                .unwrap_err(),
            SweepGridError::MixedPolicies
        );
    }
}
