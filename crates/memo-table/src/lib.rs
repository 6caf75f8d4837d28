//! # memo-table
//!
//! A software model of the **MEMO-TABLE** proposed in *"Accelerating
//! Multi-Media Processing by Implementing Memoing in Multiplication and
//! Division Units"* (Citron, Feitelson, Rudolph — ASPLOS 1998).
//!
//! A MEMO-TABLE is a small cache-like lookup table placed next to a
//! multi-cycle computation unit (integer multiplier, floating-point
//! multiplier / divider / square-root unit). The operands of each operation
//! are hashed into the table *in parallel* with the conventional
//! computation:
//!
//! * on a **hit** the previously computed result is returned in a single
//!   cycle and the computation unit is aborted;
//! * on a **miss** nothing is lost — the computation completes normally and
//!   the result is inserted into the table for future reuse.
//!
//! This crate provides the full design space explored by the paper:
//!
//! * table geometry: any power-of-two entry count, direct-mapped to fully
//!   associative ([`Assoc`]);
//! * the paper's XOR indexing scheme (§3.1) plus a stronger mixing hash for
//!   ablation ([`HashScheme`]);
//! * full-value or mantissa-only tags (§2.1, Table 10) ([`TagPolicy`]);
//! * trivial-operation handling — memoized, excluded, or detected by an
//!   integrated front-end filter (§3.2, Table 9) ([`TrivialPolicy`]);
//! * commutative dual-order probing for multiplications (§2.2);
//! * LRU / FIFO / random replacement ([`Replacement`]);
//! * an "infinitely large, fully associative" reference table
//!   ([`InfiniteMemoTable`]);
//! * a multi-ported table shared between several computation units (§2.3)
//!   ([`SharedMemoTable`]);
//! * a single-pass stack-distance sweep engine that evaluates an entire
//!   size × associativity grid in one pass over an operand stream
//!   ([`StackSimulator`], [`SweepGrid`]), and a compact exact counter for
//!   the infinite-table column beside it ([`InfiniteColumn`]);
//! * soft-error fault injection and protection policies
//!   ([`FaultInjector`], [`Protection`]) — parity, SEC-DED, or
//!   recompute-and-verify guarding the stored entries — and a
//!   [`FaultShadow`] that derives every policy's fault-injected table from
//!   one clean table's per-lane slot records.
//!
//! ## Quick start
//!
//! ```
//! use memo_table::{MemoConfig, MemoTable, Memoizer, Op, Outcome};
//!
//! // The paper's default geometry: 32 entries in 8 sets of 4.
//! let mut table = MemoTable::new(MemoConfig::paper_default());
//!
//! let first = table.execute(Op::FpDiv(355.0, 113.0));
//! assert_eq!(first.outcome, Outcome::Miss);
//!
//! // The same operands hit and would complete in a single cycle.
//! let again = table.execute(Op::FpDiv(355.0, 113.0));
//! assert_eq!(again.outcome, Outcome::Hit);
//! assert_eq!(again.value.as_f64(), 355.0 / 113.0);
//! assert_eq!(table.stats().table_hits, 1);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod baselines;
mod batch;
mod column;
mod config;
mod fault;
mod infinite;
mod key;
mod op;
mod ported;
pub mod rng;
mod shadow;
mod stack;
mod stats;
mod table;
mod trivial;

pub use batch::{BatchOutcome, OpBatch, MAX_BATCH_WIDTH};
pub use column::InfiniteColumn;
pub use config::{
    Assoc, HashScheme, MemoConfig, MemoConfigBuilder, MemoConfigError, Replacement, TagPolicy,
    TrivialPolicy, STABLE_ENCODED_LEN, STABLE_ENCODING_VERSION,
};
pub use fault::{Fault, FaultConfig, FaultInjector, Protection};
pub use infinite::InfiniteMemoTable;
pub use key::{fp_parts, is_normal_or_zero, Key, KeyHashBuilder, KeyHasher};
pub use op::{Op, OpKind, ParseOpKindError, Value};
pub use ported::{PortStats, SharedMemoTable};
pub use shadow::{FaultShadow, ShadowCounts, ShadowError};
pub use stack::{StackSimulator, SweepGrid, SweepGridError, SweepOutcome};
pub use stats::MemoStats;
pub use table::{Executed, LaneSlot, MemoTable, Outcome, Probe};
pub use trivial::{trivial_result, TrivialKind};

/// Common interface implemented by every memo-table flavour.
///
/// Simulators are written against this trait so that a finite
/// [`MemoTable`], the reference [`InfiniteMemoTable`], and a
/// [`SharedMemoTable`] handle can be used interchangeably.
pub trait Memoizer {
    /// Present the operands of `op` to the table *without* computing.
    ///
    /// Returns what the hardware lookup would produce. A trivial operation
    /// under [`TrivialPolicy::Integrate`] reports [`Probe::Trivial`]; under
    /// [`TrivialPolicy::Exclude`] it reports [`Probe::Filtered`] and never
    /// reaches the lookup logic.
    fn probe(&mut self, op: Op) -> Probe;

    /// Record the `result` of `op` after a miss completed its computation.
    ///
    /// Must only be called after a [`Probe::Miss`]; calling it after a hit
    /// would model hardware that re-inserts present entries (harmless but
    /// inaccurate — the stats would double-count insertions).
    fn update(&mut self, op: Op, result: Value);

    /// Probe, compute on miss, and update — the full per-instruction cycle
    /// of the tandem *(computation unit, MEMO-TABLE)* pair (§2.2).
    fn execute(&mut self, op: Op) -> Executed {
        match self.probe(op) {
            Probe::Hit(v) => Executed { value: v, outcome: Outcome::Hit },
            Probe::Trivial(v) => Executed { value: v, outcome: Outcome::Trivial },
            Probe::Filtered => Executed { value: op.compute(), outcome: Outcome::Filtered },
            Probe::Miss => {
                let value = op.compute();
                self.update(op, value);
                Executed { value, outcome: Outcome::Miss }
            }
        }
    }

    /// Execute a whole same-kind lane tile, returning only the per-batch
    /// outcome tally (the per-op results are recomputable and replay-style
    /// callers discard them).
    ///
    /// Must be observably identical to calling [`execute`] on every lane in
    /// order — same statistics, same table state afterwards — for any tile
    /// width, including partial tails. The default does exactly that.
    /// [`MemoTable`] overrides it: a full-value table with no enabled
    /// fault injector runs a lane-parallel front end (batched hashing and
    /// trivial masks) feeding the same scalar conflict resolution, and
    /// every other table runs the default.
    ///
    /// [`execute`]: Memoizer::execute
    fn execute_batch(&mut self, batch: &OpBatch<'_>) -> BatchOutcome {
        execute_each(self, batch, None)
    }

    /// Statistics accumulated since construction or the last [`reset`]
    /// (a copy — `MemoStats` is small and `Copy`).
    ///
    /// [`reset`]: Memoizer::reset
    fn stats(&self) -> MemoStats;

    /// Clear both the stored entries and the statistics.
    fn reset(&mut self);

    /// Extra cycles this table's protection policy adds to every served
    /// hit (see [`Protection::hit_penalty`]); 0 for unprotected tables.
    ///
    /// Surfaced on the trait so latency models (the cycle accountant in
    /// `memo-sim`) can charge protection without knowing the concrete
    /// table type.
    fn hit_penalty(&self) -> u32 {
        0
    }
}

/// [`Memoizer::execute`] on every lane of `batch` in order, tallied — the
/// trait's default batch path and the fallback of tables whose
/// lane-parallel path does not apply. With `served`, lane `i`'s value
/// bits land in `served[i]`.
pub(crate) fn execute_each<M: Memoizer + ?Sized>(
    table: &mut M,
    batch: &OpBatch<'_>,
    mut served: Option<&mut [u64]>,
) -> BatchOutcome {
    let mut out = BatchOutcome::default();
    for i in 0..batch.len() {
        let executed = table.execute(batch.op(i));
        match executed.outcome {
            Outcome::Hit => out.hits += 1,
            Outcome::Trivial => out.trivials += 1,
            Outcome::Filtered | Outcome::Miss => {}
        }
        if let Some(served) = served.as_deref_mut() {
            served[i] = executed.value.to_bits();
        }
    }
    out
}
