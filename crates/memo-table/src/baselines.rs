//! Related-work baselines (§1.1) — the schemes the paper positions
//! MEMO-TABLEs against, implemented so experiments can compare them on
//! identical operand streams.
//!
//! * [`ReciprocalCache`] — Oberman & Flynn, *"Reducing Division Latency
//!   with Reciprocal Caches"*: cache `1/b` keyed by the **divisor only**;
//!   on a hit the division becomes a multiplication (`a × 1/b`), paying
//!   the multiplier's latency rather than a single cycle.
//! * [`ReuseBuffer`] — Sodani & Sohi, *"Dynamic Instruction Reuse"*: a
//!   table indexed by **instruction address**, hitting only when the same
//!   *static instruction* recurs with the same operands. The paper's
//!   §1.1 argument: a value-keyed MEMO-TABLE also catches reuse across
//!   different instructions — e.g. the copies produced by loop unrolling.

use std::collections::HashMap;

use crate::config::{Assoc, MemoConfig};
use crate::key::set_index;
use crate::op::{Op, OpKind, Value};
use crate::stats::MemoStats;
use crate::table::Outcome;

/// How a reciprocal-cache access resolved.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReciprocalOutcome {
    /// Divisor found: the division completes as `a × 1/b` at multiplier
    /// latency. The value is what the *hardware* would produce — one
    /// rounding from the cached reciprocal, which may differ from `a / b`
    /// in the last bit (the scheme's documented accuracy trade-off).
    Hit(f64),
    /// Divisor not cached: full division, reciprocal inserted.
    Miss(f64),
}

impl ReciprocalOutcome {
    /// The numeric result, however it was produced.
    #[must_use]
    pub fn value(self) -> f64 {
        match self {
            ReciprocalOutcome::Hit(v) | ReciprocalOutcome::Miss(v) => v,
        }
    }

    /// `true` on a hit.
    #[must_use]
    pub fn is_hit(self) -> bool {
        matches!(self, ReciprocalOutcome::Hit(_))
    }
}

/// An Oberman–Flynn reciprocal cache: set-associative over divisors.
///
/// # Examples
///
/// ```
/// use memo_table::baselines::ReciprocalCache;
///
/// let mut cache = ReciprocalCache::new(32, 4);
/// assert!(!cache.divide(10.0, 3.0).is_hit());
/// // Any dividend reuses the cached reciprocal of 3.0:
/// assert!(cache.divide(99.0, 3.0).is_hit());
/// ```
#[derive(Debug, Clone)]
pub struct ReciprocalCache {
    // (divisor bits, reciprocal, last_use) per way.
    sets: usize,
    ways: usize,
    entries: Vec<Option<(u64, f64, u64)>>,
    clock: u64,
    stats: MemoStats,
}

impl ReciprocalCache {
    /// A cache with `entries` total entries in `ways`-way sets.
    ///
    /// # Panics
    ///
    /// Panics unless `entries` is a power of two divisible into whole
    /// power-of-two sets.
    #[must_use]
    pub fn new(entries: usize, ways: usize) -> Self {
        let cfg = MemoConfig::builder(entries)
            .assoc(Assoc::Ways(ways))
            .build()
            .expect("valid reciprocal-cache geometry");
        ReciprocalCache {
            sets: cfg.sets(),
            ways,
            entries: vec![None; entries],
            clock: 0,
            stats: MemoStats::new(),
        }
    }

    fn index(&self, divisor: f64) -> usize {
        // Reuse the paper's mantissa-MSB XOR scheme on a single operand.
        set_index(&Op::FpSqrt(divisor), self.sets, crate::HashScheme::PaperXor)
    }

    /// Perform `a / b` through the cache.
    pub fn divide(&mut self, a: f64, b: f64) -> ReciprocalOutcome {
        self.clock += 1;
        self.stats.ops_seen += 1;
        self.stats.table_lookups += 1;
        let bits = b.to_bits();
        let set = self.index(b);
        let base = set * self.ways;

        for (tag, recip, last) in self.entries[base..base + self.ways].iter_mut().flatten() {
            if *tag == bits {
                *last = self.clock;
                self.stats.table_hits += 1;
                return ReciprocalOutcome::Hit(a * *recip);
            }
        }

        // Miss: full division, insert the reciprocal.
        let victim = (0..self.ways)
            .min_by_key(|&w| self.entries[base + w].map_or(0, |(_, _, last)| last))
            .expect("ways >= 1");
        if self.entries[base + victim].is_some() {
            self.stats.evictions += 1;
        }
        self.entries[base + victim] = Some((bits, 1.0 / b, self.clock));
        self.stats.insertions += 1;
        ReciprocalOutcome::Miss(a / b)
    }

    /// Accumulated statistics (`table_hits` / `table_lookups` is the
    /// divisor hit ratio).
    #[must_use]
    pub fn stats(&self) -> MemoStats {
        self.stats
    }

    /// Worst-case relative error a hit can introduce (one extra rounding).
    #[must_use]
    pub fn max_relative_error() -> f64 {
        // Two roundings (reciprocal, multiply) instead of one: 2 ulp.
        2.0 * f64::EPSILON
    }
}

/// A Sodani–Sohi style reuse buffer: entries are tagged by *instruction
/// address* and operand values; only the same static instruction can
/// reuse its own previous results.
///
/// Capacity-managed as fully associative LRU over `entries` slots (the
/// RB in the paper is also a small associative structure).
#[derive(Debug, Clone)]
pub struct ReuseBuffer {
    capacity: usize,
    // (pc, operand bits) -> (result bits, last_use)
    entries: HashMap<(u64, u128), (u64, u64)>,
    clock: u64,
    stats: MemoStats,
}

impl ReuseBuffer {
    /// A reuse buffer with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "reuse buffer needs at least one entry");
        ReuseBuffer { capacity, entries: HashMap::new(), clock: 0, stats: MemoStats::new() }
    }

    /// Execute `op` issued from instruction address `pc`.
    pub fn execute(&mut self, pc: u64, op: Op) -> Outcome {
        self.clock += 1;
        self.stats.ops_seen += 1;
        self.stats.table_lookups += 1;
        let (a, b) = op.operand_bits();
        let key = (pc, ((a as u128) << 64) | b as u128);

        if let Some((_, last)) = self.entries.get_mut(&key) {
            *last = self.clock;
            self.stats.table_hits += 1;
            return Outcome::Hit;
        }

        if self.entries.len() >= self.capacity {
            // Evict the LRU entry.
            if let Some((&victim, _)) =
                self.entries.iter().min_by_key(|(_, &(_, last))| last)
            {
                self.entries.remove(&victim);
                self.stats.evictions += 1;
            }
        }
        self.entries.insert(key, (op.compute().to_bits(), self.clock));
        self.stats.insertions += 1;
        Outcome::Miss
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> MemoStats {
        self.stats
    }
}

/// The kinds a reuse buffer records in these experiments (multi-cycle
/// operations only, matching what the MEMO-TABLE sees).
pub const REUSE_KINDS: [OpKind; 4] =
    [OpKind::IntMul, OpKind::FpMul, OpKind::FpDiv, OpKind::FpSqrt];

/// Compute `a / b` both directly and via a reciprocal hit, returning the
/// ulp-level discrepancy — used by tests documenting the accuracy
/// trade-off.
#[must_use]
pub fn reciprocal_discrepancy(a: f64, b: f64) -> f64 {
    let direct = a / b;
    let via_recip = a * (1.0 / b);
    let diff = (Value::Fp(direct), Value::Fp(via_recip));
    match diff {
        (Value::Fp(x), Value::Fp(y)) => (x - y).abs(),
        _ => unreachable!(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MemoTable, Memoizer};

    #[test]
    fn reciprocal_cache_hits_on_divisor_reuse() {
        let mut cache = ReciprocalCache::new(32, 4);
        assert!(!cache.divide(10.0, 7.0).is_hit());
        // Different dividends, same divisor: all hits.
        for i in 0..20 {
            assert!(cache.divide(f64::from(i), 7.0).is_hit(), "dividend {i}");
        }
        assert_eq!(cache.stats().table_hits, 20);
    }

    #[test]
    fn reciprocal_hit_value_is_close_but_not_exact() {
        let mut cache = ReciprocalCache::new(32, 4);
        let _ = cache.divide(1.0, 3.0);
        let hit = cache.divide(10.0, 3.0);
        assert!(hit.is_hit());
        let direct = 10.0 / 3.0;
        let err = (hit.value() - direct).abs() / direct;
        assert!(err <= ReciprocalCache::max_relative_error(), "error {err}");
    }

    #[test]
    fn reciprocal_cache_evicts_lru_divisor() {
        let mut cache = ReciprocalCache::new(2, 2);
        let _ = cache.divide(1.0, 3.0);
        let _ = cache.divide(1.0, 5.0);
        let _ = cache.divide(1.0, 3.0); // refresh 3.0
        let _ = cache.divide(1.0, 7.0); // evicts 5.0
        assert!(cache.divide(2.0, 3.0).is_hit());
        assert!(!cache.divide(2.0, 5.0).is_hit());
    }

    #[test]
    fn reuse_buffer_is_pc_sensitive() {
        let mut rb = ReuseBuffer::new(64);
        let op = Op::FpDiv(9.0, 3.0);
        assert_eq!(rb.execute(0x100, op), Outcome::Miss);
        assert_eq!(rb.execute(0x100, op), Outcome::Hit, "same pc, same operands");
        // The same computation from a different instruction misses — this
        // is exactly where the MEMO-TABLE wins (§1.1, loop unrolling).
        assert_eq!(rb.execute(0x200, op), Outcome::Miss);
    }

    #[test]
    fn reuse_buffer_respects_capacity() {
        let mut rb = ReuseBuffer::new(4);
        for i in 0..10 {
            rb.execute(0x100 + i, Op::IntMul(i as i64, 3));
        }
        assert_eq!(rb.stats().insertions, 10);
        assert_eq!(rb.stats().evictions, 6);
    }

    #[test]
    fn memo_table_beats_reuse_buffer_under_unrolling() {
        // A loop body with one division, unrolled 8×: eight static PCs
        // issue the same operand pairs round-robin.
        let ops: Vec<(u64, Op)> = (0..400)
            .map(|i| {
                let pc = 0x1000 + (i % 8) * 4; // 8 unrolled copies
                let op = Op::FpDiv((i % 4 + 2) as f64, 3.0); // 4 distinct pairs
                (pc, op)
            })
            .collect();

        let mut rb = ReuseBuffer::new(32);
        let mut memo = MemoTable::new(MemoConfig::paper_default());
        let mut rb_hits = 0u64;
        let mut memo_hits = 0u64;
        for &(pc, op) in &ops {
            if rb.execute(pc, op) == Outcome::Hit {
                rb_hits += 1;
            }
            if memo.execute(op).outcome == Outcome::Hit {
                memo_hits += 1;
            }
        }
        assert!(
            memo_hits > rb_hits,
            "value-keyed {memo_hits} must beat pc-keyed {rb_hits} on unrolled code"
        );
        // The memo table misses only the 4 cold pairs.
        assert_eq!(memo_hits, 400 - 4);
    }

    #[test]
    fn discrepancy_is_at_most_ulps() {
        for (a, b) in [(10.0, 3.0), (1.0, 7.0), (355.0, 113.0), (2.5, 0.3)] {
            let d = reciprocal_discrepancy(a, b);
            assert!(d <= (a / b).abs() * 4.0 * f64::EPSILON, "{a}/{b}: {d}");
        }
    }
}
