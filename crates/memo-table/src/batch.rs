//! Fixed-width structure-of-arrays operand batches (warp-style execution).
//!
//! The trace-replay loop and the memo-table probe are the hot path under
//! every experiment sweep. Feeding them one [`Op`] at a time pays an enum
//! construction, a virtual dispatch, and a full policy-branch cascade per
//! operation. An [`OpBatch`] instead presents a *lane tile*: one operation
//! kind and two borrowed operand columns (`a`/`b` as raw bit patterns),
//! the layout a recorded trace decodes each kind's operations into. Batched
//! consumers hoist the per-kind and per-policy dispatch out of the lane
//! loop, precompute set indices and trivial masks in plain
//! autovectorizable loops over the columns, and fall back to scalar code
//! only where the table state itself is serial (conflict resolution, LRU
//! updates, insertions).
//!
//! Lanes within a batch are always the same kind and in that kind's
//! recorded order. A recorded trace keeps each kind's operations as a
//! stream of its own, and trace replay cuts each stream into tiles (a
//! tile may span many native runs of that kind). A partial tail batch is
//! just a shorter tile.
//! `std::simd` is nightly-only, so the lane loops are written as scalar
//! loops over slices that the optimizer can vectorize; correctness never
//! depends on vectorization.

use crate::op::{Op, OpKind};

/// Widest lane tile any batched consumer has to handle, and the width
/// trace replay tiles at; per-batch scratch buffers are stack arrays of
/// this length.
pub const MAX_BATCH_WIDTH: usize = 64;

/// A borrowed tile of same-kind operations in structure-of-arrays form.
///
/// `a` and `b` hold raw operand bit patterns ([`Op::operand_bits`]
/// convention: integer operands as two's-complement `u64`, floating-point
/// operands as IEEE-754 bits). Unary operations ([`OpKind::FpSqrt`]) carry
/// an empty `b` column.
#[derive(Debug, Clone, Copy)]
pub struct OpBatch<'a> {
    kind: OpKind,
    a: &'a [u64],
    b: &'a [u64],
}

impl<'a> OpBatch<'a> {
    /// Wrap operand columns as a batch.
    ///
    /// # Panics
    ///
    /// Panics if the column lengths disagree: binary kinds require
    /// `b.len() == a.len()`, unary kinds require `b` to be empty.
    #[must_use]
    pub fn new(kind: OpKind, a: &'a [u64], b: &'a [u64]) -> Self {
        if kind == OpKind::FpSqrt {
            assert!(b.is_empty(), "unary batches carry no b column");
        } else {
            assert_eq!(a.len(), b.len(), "operand columns must have equal length");
        }
        OpBatch { kind, a, b }
    }

    /// The operation kind shared by every lane.
    #[must_use]
    pub fn kind(&self) -> OpKind {
        self.kind
    }

    /// Number of lanes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.a.len()
    }

    /// `true` when the batch has no lanes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.a.is_empty()
    }

    /// First operand column (raw bit patterns).
    #[must_use]
    pub fn a(&self) -> &'a [u64] {
        self.a
    }

    /// Second operand column — empty for unary kinds.
    #[must_use]
    pub fn b(&self) -> &'a [u64] {
        self.b
    }

    /// Rebuild lane `i` as a scalar [`Op`].
    #[must_use]
    pub fn op(&self, i: usize) -> Op {
        match self.kind {
            OpKind::IntMul => Op::IntMul(self.a[i] as i64, self.b[i] as i64),
            OpKind::FpMul => Op::FpMul(f64::from_bits(self.a[i]), f64::from_bits(self.b[i])),
            OpKind::FpDiv => Op::FpDiv(f64::from_bits(self.a[i]), f64::from_bits(self.b[i])),
            OpKind::FpSqrt => Op::FpSqrt(f64::from_bits(self.a[i])),
        }
    }

    /// A sub-tile of `len` lanes starting at `start` (tail chunking).
    #[must_use]
    pub fn slice(&self, start: usize, len: usize) -> OpBatch<'a> {
        OpBatch {
            kind: self.kind,
            a: &self.a[start..start + len],
            b: if self.b.is_empty() { self.b } else { &self.b[start..start + len] },
        }
    }
}

/// Result bits of one lane without materializing an [`Op`] or a
/// [`crate::Value`] — bit-identical to `batch.op(i).compute().to_bits()`.
#[must_use]
pub(crate) fn compute_bits(kind: OpKind, a: u64, b: u64) -> u64 {
    match kind {
        OpKind::IntMul => (a as i64).wrapping_mul(b as i64) as u64,
        OpKind::FpMul => (f64::from_bits(a) * f64::from_bits(b)).to_bits(),
        OpKind::FpDiv => (f64::from_bits(a) / f64::from_bits(b)).to_bits(),
        OpKind::FpSqrt => f64::from_bits(a).sqrt().to_bits(),
    }
}

/// Per-batch outcome tally: how many lanes were served in a single cycle.
///
/// Cycle accountants charge a whole batch from these counts instead of
/// inspecting one [`crate::Outcome`] per op; `Filtered` and `Miss` lanes
/// both run at the unit's full latency, so only the two single-cycle
/// outcomes need distinguishing (protection penalties apply to `hits`
/// only).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchOutcome {
    /// Lanes served by the table ([`crate::Outcome::Hit`]).
    pub hits: u64,
    /// Lanes served by the integrated trivial detector
    /// ([`crate::Outcome::Trivial`]).
    pub trivials: u64,
}

impl BatchOutcome {
    /// Lanes that avoided the full-latency computation.
    #[must_use]
    pub fn avoided(&self) -> u64 {
        self.hits + self.trivials
    }

    /// Accumulate another tile's tally.
    pub fn absorb(&mut self, other: BatchOutcome) {
        self.hits += other.hits;
        self.trivials += other.trivials;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_rebuilds_scalar_ops() {
        let a = [3.5f64.to_bits(), (-0.0f64).to_bits()];
        let b = [2.0f64.to_bits(), 7.25f64.to_bits()];
        let batch = OpBatch::new(OpKind::FpMul, &a, &b);
        assert_eq!(batch.len(), 2);
        assert_eq!(batch.op(0), Op::FpMul(3.5, 2.0));
        assert_eq!(batch.op(1), Op::FpMul(-0.0, 7.25));

        let ia = [5i64 as u64, (-3i64) as u64];
        let ib = [7i64 as u64, 11i64 as u64];
        let batch = OpBatch::new(OpKind::IntMul, &ia, &ib);
        assert_eq!(batch.op(1), Op::IntMul(-3, 11));

        let sq = [2.0f64.to_bits()];
        let batch = OpBatch::new(OpKind::FpSqrt, &sq, &[]);
        assert_eq!(batch.op(0), Op::FpSqrt(2.0));
    }

    #[test]
    fn slice_takes_a_tail() {
        let a: Vec<u64> = (0..10).map(|i| f64::from(i).to_bits()).collect();
        let batch = OpBatch::new(OpKind::FpSqrt, &a, &[]);
        let tail = batch.slice(7, 3);
        assert_eq!(tail.len(), 3);
        assert_eq!(tail.op(0), Op::FpSqrt(7.0));
    }

    #[test]
    fn compute_bits_matches_op_compute() {
        let ops = [
            Op::IntMul(-7, 13),
            Op::IntMul(i64::MAX, 3),
            Op::FpMul(3.25, -0.125),
            Op::FpMul(0.0, f64::INFINITY),
            Op::FpDiv(9.5, 0.0),
            Op::FpDiv(f64::NAN, 2.0),
            Op::FpSqrt(7.0),
            Op::FpSqrt(-1.0),
        ];
        for op in ops {
            let (a, b) = op.operand_bits();
            assert_eq!(
                compute_bits(op.kind(), a, b),
                op.compute().to_bits(),
                "lane compute must be bit-identical for {op}"
            );
        }
    }

    #[test]
    fn outcome_tallies_accumulate() {
        let mut total = BatchOutcome::default();
        total.absorb(BatchOutcome { hits: 3, trivials: 1 });
        total.absorb(BatchOutcome { hits: 2, trivials: 0 });
        assert_eq!(total, BatchOutcome { hits: 5, trivials: 1 });
        assert_eq!(total.avoided(), 6);
    }
}
