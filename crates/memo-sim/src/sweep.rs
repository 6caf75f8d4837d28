//! Fused sweep evaluation: one trace pass per op kind serves an entire
//! [`SweepGrid`] of table shapes.
//!
//! The stack engine lives in `memo-table` ([`StackSimulator`]); this
//! module feeds it from recorded [`OpTrace`]s. Each hardware unit has its
//! own MEMO-TABLE, so grids are evaluated kind-by-kind: the pass for
//! `FpMul` walks only the trace's multiply columns and never touches the
//! other kinds'.

use memo_table::{OpKind, StackSimulator, SweepGrid, SweepOutcome};

use crate::trace::OpTrace;

/// Run one fused pass of `kind`'s operations from `traces` (in order)
/// over every point of `grid` at once.
///
/// Equivalent to replaying the traces through one dedicated
/// [`memo_table::MemoTable`] per grid point — bit-identical statistics,
/// G times fewer passes. Operations are decoded tile by tile and fed to
/// [`StackSimulator::access`] one at a time; the per-level recency-row
/// walks dominate the pass, so a lane-parallel front end does not pay
/// here. Check [`SweepOutcome::exact`] before trusting the counters: a
/// mantissa-mode decode failure mid-pass flags the outcome as inexact and
/// the caller must fall back to direct replay.
pub fn sweep_kind<'a>(
    traces: impl IntoIterator<Item = &'a OpTrace>,
    kind: OpKind,
    grid: &SweepGrid,
) -> SweepOutcome {
    let mut sim = StackSimulator::new(grid);
    for trace in traces {
        trace.for_each_kind(kind, |op| sim.access(op));
    }
    sim.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use memo_table::{MemoConfig, MemoTable, Memoizer, Op};

    #[test]
    fn sweep_kind_matches_per_config_replay_kind() {
        let mut trace = OpTrace::new();
        for i in 0..2000i64 {
            trace.push(Op::IntMul(i % 13, i % 7 + 2));
            trace.push(Op::FpMul((i % 9) as f64 + 0.5, 3.0));
            if i % 3 == 0 {
                trace.push(Op::FpDiv((i % 11) as f64 + 1.0, 4.0));
            }
        }
        let configs: Vec<MemoConfig> =
            [8usize, 32, 128].iter().map(|&e| MemoConfig::builder(e).build().unwrap()).collect();
        let grid = SweepGrid::new(&configs).unwrap();
        for kind in [OpKind::IntMul, OpKind::FpMul, OpKind::FpDiv] {
            let out = sweep_kind([&trace], kind, &grid);
            assert!(out.exact);
            for (cfg, fused) in configs.iter().zip(&out.finite) {
                let mut table = MemoTable::new(*cfg);
                trace.replay_kind(kind, &mut table);
                assert_eq!(*fused, table.stats());
            }
        }
    }
}
