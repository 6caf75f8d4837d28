//! The MEMO-TABLE as a second functional unit (§2.3 / §4).
//!
//! §2.3: "Instead of having, for instance, two floating point dividers,
//! only one will be integrated and the second will be an interface to a
//! multi-ported MEMO-TABLE in the division unit. In the case where two fp
//! divisions are issued together, the second one is issued to the
//! MEMO-TABLE interface. In the case of a miss it will be stalled until
//! the divider is free." §4 names quantifying this against duplicated
//! units as future work — [`DividerFarm`] is that quantification.
//!
//! The model replays a division stream through three machines:
//!
//! * one conventional divider;
//! * one divider **plus a MEMO-TABLE interface** (hits retire from the
//!   interface in one cycle; misses queue for the real divider);
//! * two conventional dividers (the expensive alternative — a second
//!   high-radix SRT divider costs far more area than a 32-entry table,
//!   §2.4).

use memo_table::{MemoConfig, MemoTable, Memoizer, Op, OpKind};

use crate::cpu::CpuModel;

/// Completion-time results for one machine configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FarmResult {
    /// Cycles to drain the division stream.
    pub cycles: u64,
    /// Divisions served by the MEMO-TABLE interface (0 for the
    /// conventional configurations).
    pub interface_hits: u64,
}

impl FarmResult {
    /// Average issue-to-issue throughput in divisions per cycle.
    #[must_use]
    pub fn throughput(&self, divisions: u64) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        divisions as f64 / self.cycles as f64
    }
}

/// The three-way §2.3 comparison on a division stream.
#[derive(Debug, Clone, Copy)]
pub struct FarmComparison {
    /// Dynamic divisions replayed.
    pub divisions: u64,
    /// One conventional divider.
    pub single: FarmResult,
    /// One divider + MEMO-TABLE interface.
    pub with_interface: FarmResult,
    /// Two conventional dividers.
    pub dual: FarmResult,
}

/// A bank of `real_dividers` conventional dividers with an optional
/// memo-table interface, drained by a greedy in-order issue model: one
/// division is considered per cycle; it retires immediately on an
/// interface hit, otherwise it occupies the earliest-free divider.
#[derive(Debug)]
pub struct DividerFarm {
    latency: u64,
    free_at: Vec<u64>,
    table: Option<MemoTable>,
    now: u64,
    issued: u64,
    interface_hits: u64,
}

impl DividerFarm {
    /// A farm of `real_dividers` dividers with `cpu`'s division latency;
    /// pass `Some(config)` to add the MEMO-TABLE interface.
    ///
    /// # Panics
    ///
    /// Panics if `real_dividers` is zero.
    #[must_use]
    pub fn new(cpu: &CpuModel, real_dividers: usize, table: Option<MemoConfig>) -> Self {
        assert!(real_dividers > 0, "at least one real divider is required");
        DividerFarm {
            latency: u64::from(cpu.latency(OpKind::FpDiv)),
            free_at: vec![0; real_dividers],
            table: table.map(MemoTable::new),
            now: 0,
            issued: 0,
            interface_hits: 0,
        }
    }

    /// Issue one division. Returns the cycle at which it completes.
    pub fn issue(&mut self, op: Op) -> u64 {
        debug_assert_eq!(op.kind(), OpKind::FpDiv);
        self.now += 1; // one issue slot per cycle
        self.issued += 1;

        if let Some(table) = &mut self.table {
            if table.execute(op).outcome.avoided_computation() {
                self.interface_hits += 1;
                return self.now; // served by the interface this cycle
            }
        }
        // Miss (or no interface): occupy the earliest-free divider,
        // stalling issue until one is available.
        let unit = (0..self.free_at.len())
            .min_by_key(|&u| self.free_at[u])
            .expect("at least one divider");
        let start = self.now.max(self.free_at[unit]);
        self.now = start; // in-order issue stalls behind the busy farm
        self.free_at[unit] = start + self.latency;
        self.free_at[unit]
    }

    /// Drain: the cycle at which all in-flight work completes.
    #[must_use]
    pub fn drain(&self) -> u64 {
        self.free_at.iter().copied().max().unwrap_or(0).max(self.now)
    }

    /// Result summary.
    #[must_use]
    pub fn result(&self) -> FarmResult {
        FarmResult { cycles: self.drain(), interface_hits: self.interface_hits }
    }
}

/// Replay `divisions` through the three §2.3 machine configurations.
///
/// Operations of other kinds are skipped, so a mixed stream can be
/// streamed straight from its recording without collecting it first.
#[must_use]
pub fn compare_divider_farms(
    cpu: &CpuModel,
    table: MemoConfig,
    divisions: impl IntoIterator<Item = Op>,
) -> FarmComparison {
    let mut single = DividerFarm::new(cpu, 1, None);
    let mut with_interface = DividerFarm::new(cpu, 1, Some(table));
    let mut dual = DividerFarm::new(cpu, 2, None);
    for op in divisions {
        if op.kind() != OpKind::FpDiv {
            continue;
        }
        single.issue(op);
        with_interface.issue(op);
        dual.issue(op);
    }
    FarmComparison {
        divisions: single.issued,
        single: single.result(),
        with_interface: with_interface.result(),
        dual: dual.result(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn repetitive_stream(n: usize, distinct: usize) -> Vec<Op> {
        (0..n).map(|i| Op::FpDiv((i % distinct + 2) as f64, 3.0)).collect()
    }

    #[test]
    fn interface_approaches_dual_divider_throughput_on_hot_streams() {
        let cpu = CpuModel::paper_slow();
        let ops = repetitive_stream(2000, 8);
        let cmp = compare_divider_farms(&cpu, MemoConfig::paper_default(), ops);
        assert!(cmp.with_interface.cycles < cmp.single.cycles / 3,
            "interface {} vs single {}", cmp.with_interface.cycles, cmp.single.cycles);
        // On a hot stream the table interface beats even two real dividers:
        // hits retire 1/cycle while dividers still take 39 cycles each.
        assert!(
            cmp.with_interface.cycles <= cmp.dual.cycles,
            "interface {} vs dual {}",
            cmp.with_interface.cycles,
            cmp.dual.cycles
        );
        assert!(cmp.with_interface.interface_hits > 1900);
    }

    #[test]
    fn cold_streams_leave_the_interface_idle() {
        let cpu = CpuModel::paper_slow();
        let ops: Vec<Op> = (0..500).map(|i| Op::FpDiv(f64::from(i) + 0.5, 3.0)).collect();
        let cmp = compare_divider_farms(&cpu, MemoConfig::paper_default(), ops);
        assert_eq!(cmp.with_interface.interface_hits, 0);
        // Without hits the interface machine degenerates to the single
        // divider (every division stalls for the one real unit).
        assert_eq!(cmp.with_interface.cycles, cmp.single.cycles);
        // …and two dividers genuinely double throughput.
        assert!(cmp.dual.cycles < cmp.single.cycles * 6 / 10);
    }

    #[test]
    fn throughput_accounting() {
        let cpu = CpuModel::paper_fast(); // 13-cycle divider
        let ops = repetitive_stream(130, 1);
        let cmp = compare_divider_farms(&cpu, MemoConfig::paper_default(), ops);
        // Single divider: ~1/13 division per cycle.
        let tp = cmp.single.throughput(cmp.divisions);
        assert!((tp - 1.0 / 13.0).abs() < 0.01, "single throughput {tp}");
        // Interface: first missed, rest hit → ~1/cycle.
        let tp = cmp.with_interface.throughput(cmp.divisions);
        assert!(tp > 0.85, "interface throughput {tp}");
    }

    #[test]
    #[should_panic(expected = "at least one real divider")]
    fn zero_dividers_rejected() {
        let _ = DividerFarm::new(&CpuModel::paper_slow(), 0, None);
    }
}
