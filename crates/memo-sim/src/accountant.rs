//! Total-cycle accounting over an event stream (§3.3).
//!
//! A single pass over the dynamic instruction stream produces *both*
//! machines of the paper's comparison:
//!
//! * the **baseline** — every multi-cycle operation at its full unit
//!   latency;
//! * the **memoized** machine — table hits complete in one cycle.
//!
//! Memory accesses go through the two-level cache model and cost the same
//! on both machines (memoing does not change the data stream), so the
//! measured speedup isolates exactly the cycles the MEMO-TABLEs avoid —
//! the paper's "number of superfluous cycles avoided".
//!
//! The accountant charges arithmetic a tile at a time, whether the events
//! come from a kernel running natively or from a replayed trace: each
//! kind's operands wait in a pending tile until [`MAX_BATCH_WIDTH`] of
//! them have arrived, and the full tile goes through the bank's lane
//! kernel ([`MemoBank::execute_batch`]) in one call. The result is the
//! one per-op charging gives, not an approximation of it:
//!
//! * a [`MemoBank`] has one independent table per kind, so each table
//!   still sees its kind's operations in recorded order;
//! * the memory hierarchy sees only loads and stores, still in order;
//! * every charge is a sum, and each table's hit penalty is a constant;
//! * an armed circuit breaker still trips on the same operation, because
//!   `execute_batch` checks it lane by lane.
//!
//! [`CycleAccountant::report`] and [`CycleAccountant::bank`] charge the
//! pending tiles before they answer.

use memo_table::{OpBatch, OpKind, MAX_BATCH_WIDTH};

use crate::bank::MemoBank;
use crate::cache::{CacheStats, MemoryHierarchy};
use crate::cpu::CpuModel;
use crate::event::{Event, EventSink, InstrMix};
use crate::amdahl;

/// Cycles charged per instruction category.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CycleBreakdown {
    /// Integer ALU cycles.
    pub int_alu: u64,
    /// FP add/subtract cycles.
    pub fp_add: u64,
    /// Branch cycles.
    pub branch: u64,
    /// Annulled-slot cycles.
    pub annulled: u64,
    /// Memory-access cycles (loads and stores, cache penalties included).
    pub memory: u64,
    /// Cycles per multi-cycle kind, indexed `[imul, fmul, fdiv, fsqrt]`.
    pub arith: [u64; 4],
}

impl CycleBreakdown {
    /// Total cycles.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.int_alu
            + self.fp_add
            + self.branch
            + self.annulled
            + self.memory
            + self.arith.iter().sum::<u64>()
    }

    /// Cycles spent in one multi-cycle kind.
    #[must_use]
    pub fn arith_cycles(&self, kind: OpKind) -> u64 {
        self.arith[kind_slot(kind)]
    }
}

fn kind_slot(kind: OpKind) -> usize {
    match kind {
        OpKind::IntMul => 0,
        OpKind::FpMul => 1,
        OpKind::FpDiv => 2,
        OpKind::FpSqrt => 3,
    }
}

/// The measurement produced by a [`CycleAccountant`] run.
#[derive(Debug, Clone)]
pub struct CycleReport {
    cpu: CpuModel,
    baseline: CycleBreakdown,
    memoized: CycleBreakdown,
    mix: InstrMix,
    arith_count: [u64; 4],
    arith_single: [u64; 4],
    l1: CacheStats,
    l2: CacheStats,
}

impl CycleReport {
    /// The CPU model the cycles were charged against.
    #[must_use]
    pub fn cpu(&self) -> &CpuModel {
        &self.cpu
    }

    /// Baseline (no MEMO-TABLE) cycle breakdown.
    #[must_use]
    pub fn baseline(&self) -> &CycleBreakdown {
        &self.baseline
    }

    /// Memoized-machine cycle breakdown.
    #[must_use]
    pub fn memoized(&self) -> &CycleBreakdown {
        &self.memoized
    }

    /// Dynamic instruction mix.
    #[must_use]
    pub fn mix(&self) -> &InstrMix {
        &self.mix
    }

    /// L1 data-cache statistics.
    #[must_use]
    pub fn l1_stats(&self) -> CacheStats {
        self.l1
    }

    /// L2 data-cache statistics.
    #[must_use]
    pub fn l2_stats(&self) -> CacheStats {
        self.l2
    }

    /// Directly measured speedup: baseline cycles / memoized cycles.
    #[must_use]
    pub fn speedup_measured(&self) -> f64 {
        if self.memoized.total() == 0 {
            return 1.0;
        }
        self.baseline.total() as f64 / self.memoized.total() as f64
    }

    /// Measured speedup when only `kinds` keep their table savings.
    ///
    /// Per-kind tables are independent — each sees the full operand stream
    /// of its kind regardless of which other units are memoized — so a run
    /// whose bank covers a *superset* of `kinds` accumulates, per kind,
    /// exactly the cycles a `kinds`-only bank would. The subset machine's
    /// total is then the baseline total minus the savings of precisely the
    /// kinds in `kinds` (savings can be negative when a protection penalty
    /// exceeds the unit latency). One replay therefore serves every
    /// memoized-unit selection of Tables 11–13.
    #[must_use]
    pub fn speedup_measured_for(&self, kinds: &[OpKind]) -> f64 {
        let total = self.baseline.total() as i128;
        if total == 0 {
            return 1.0;
        }
        let saved: i128 = kinds
            .iter()
            .map(|&k| {
                i128::from(self.baseline.arith_cycles(k))
                    - i128::from(self.memoized.arith_cycles(k))
            })
            .sum();
        total as f64 / (total - saved) as f64
    }

    /// *Fraction Enhanced* for `kind`: its share of baseline cycles.
    #[must_use]
    pub fn fraction_enhanced(&self, kind: OpKind) -> f64 {
        let total = self.baseline.total();
        if total == 0 {
            return 0.0;
        }
        self.baseline.arith_cycles(kind) as f64 / total as f64
    }

    /// Observed single-cycle (hit) ratio for `kind` over its dynamic
    /// operations.
    #[must_use]
    pub fn hit_ratio(&self, kind: OpKind) -> f64 {
        let n = self.arith_count[kind_slot(kind)];
        if n == 0 {
            return 0.0;
        }
        self.arith_single[kind_slot(kind)] as f64 / n as f64
    }

    /// *Speedup Enhanced* for `kind` from its latency and hit ratio
    /// (the paper's `dc / ((1 − hr)·dc + hr)`).
    #[must_use]
    pub fn speedup_enhanced(&self, kind: OpKind) -> f64 {
        amdahl::speedup_enhanced(f64::from(self.cpu.latency(kind)), self.hit_ratio(kind))
    }

    /// Analytic Amdahl speedup when only `kinds` are considered enhanced —
    /// the construction of Tables 11–13.
    #[must_use]
    pub fn speedup_amdahl(&self, kinds: &[OpKind]) -> f64 {
        let parts: Vec<(f64, f64)> = kinds
            .iter()
            .map(|&k| (self.fraction_enhanced(k), self.speedup_enhanced(k)))
            .collect();
        amdahl::speedup_multi(&parts)
    }

    /// The same run priced on `cpu`: exactly the report a
    /// [`CycleAccountant`] on `cpu` would produce for the same events and
    /// bank.
    ///
    /// Every charge is a count times a price. ALU, fp-add and branch
    /// events cost their unit's latency each and annulled slots one cycle;
    /// memory cycles come from the cache model, which no latency touches;
    /// and the tables' hits never depend on latencies. Per arithmetic kind
    /// the memoized charge is `single + penalties + (n − single)·latency`,
    /// so the hit penalties are what remains of it once the single-cycle
    /// and full-latency parts are taken out at the old price.
    #[must_use]
    pub fn repriced(&self, cpu: CpuModel) -> CycleReport {
        let mix = &self.mix;
        let (mut baseline, mut memoized) = (self.baseline, self.memoized);
        for machine in [&mut baseline, &mut memoized] {
            machine.int_alu = mix.int_alu * u64::from(cpu.int_alu);
            machine.fp_add = mix.fp_add * u64::from(cpu.fp_add);
            machine.branch = mix.branches * u64::from(cpu.branch);
        }
        for kind in OpKind::ALL {
            let slot = kind_slot(kind);
            let (n, single) = (self.arith_count[slot], self.arith_single[slot]);
            let (old, new) = (u64::from(self.cpu.latency(kind)), u64::from(cpu.latency(kind)));
            let penalties = self.memoized.arith[slot] - single - (n - single) * old;
            baseline.arith[slot] = n * new;
            memoized.arith[slot] = single + penalties + (n - single) * new;
        }
        CycleReport { cpu, baseline, memoized, ..self.clone() }
    }
}

/// An [`EventSink`] that charges cycles for both machines in one pass.
///
/// Arithmetic is charged in lane tiles (see the module docs); a memoizer
/// that shares state across kinds — one [`memo_table::SharedMemoTable`]
/// attached to two kinds — would see the tiles of different kinds in
/// charge order rather than in recorded order.
#[derive(Debug)]
pub struct CycleAccountant {
    cpu: CpuModel,
    memory: MemoryHierarchy,
    bank: MemoBank,
    baseline: CycleBreakdown,
    memoized: CycleBreakdown,
    mix: InstrMix,
    arith_count: [u64; 4],
    arith_single: [u64; 4],
    /// Operand columns recorded but not yet charged, one tile per kind.
    pending_a: [[u64; MAX_BATCH_WIDTH]; 4],
    pending_b: [[u64; MAX_BATCH_WIDTH]; 4],
    /// Lanes filled in each pending tile.
    pending: [usize; 4],
}

impl CycleAccountant {
    /// Build an accountant for one run.
    #[must_use]
    pub fn new(cpu: CpuModel, memory: MemoryHierarchy, bank: MemoBank) -> Self {
        CycleAccountant {
            cpu,
            memory,
            bank,
            baseline: CycleBreakdown::default(),
            memoized: CycleBreakdown::default(),
            mix: InstrMix::default(),
            arith_count: [0; 4],
            arith_single: [0; 4],
            pending_a: [[0; MAX_BATCH_WIDTH]; 4],
            pending_b: [[0; MAX_BATCH_WIDTH]; 4],
            pending: [0; 4],
        }
    }

    /// The memo bank (e.g. to read per-table statistics mid-run), after
    /// charging every pending tile.
    #[must_use]
    pub fn bank(&mut self) -> &MemoBank {
        self.charge_pending();
        &self.bank
    }

    /// Produce the report of everything recorded so far, after charging
    /// every pending tile.
    #[must_use]
    pub fn report(&mut self) -> CycleReport {
        self.charge_pending();
        CycleReport {
            cpu: self.cpu,
            baseline: self.baseline,
            memoized: self.memoized,
            mix: self.mix,
            arith_count: self.arith_count,
            arith_single: self.arith_single,
            l1: self.memory.l1_stats(),
            l2: self.memory.l2_stats(),
        }
    }

    /// Charge every kind's pending tile.
    fn charge_pending(&mut self) {
        for kind in OpKind::ALL {
            self.charge_pending_kind(kind);
        }
    }

    /// Charge `kind`'s pending tile, if it holds any lanes.
    fn charge_pending_kind(&mut self, kind: OpKind) {
        let slot = kind_slot(kind);
        let n = std::mem::take(&mut self.pending[slot]);
        if n == 0 {
            return;
        }
        // Copied out so the tile can be charged while `self` is borrowed.
        let (a, b) = (self.pending_a[slot], self.pending_b[slot]);
        let b = if kind == OpKind::FpSqrt { &[][..] } else { &b[..n] };
        self.charge(&OpBatch::new(kind, &a[..n], b));
    }

    /// Charge one same-kind tile through the bank's lane kernel, then do
    /// the per-tile cycle arithmetic — hits cost `1 + penalty`, trivials
    /// 1, everything else full latency, exactly as per-op charging would.
    /// The instruction mix is counted by the caller.
    fn charge(&mut self, batch: &OpBatch<'_>) {
        let kind = batch.kind();
        let slot = kind_slot(kind);
        let n = batch.len() as u64;
        let full = u64::from(self.cpu.latency(kind));
        self.arith_count[slot] += n;
        self.baseline.arith[slot] += full * n;
        let out = self.bank.execute_batch(batch);
        let avoided = out.avoided();
        self.arith_single[slot] += avoided;
        // Table hits pay the protection policy's verify/correct latency on
        // top of the single cycle; trivial results come from the detector,
        // not the SRAM, and stay at 1.
        let penalty = u64::from(self.bank.hit_penalty(kind));
        self.memoized.arith[slot] += avoided + out.hits * penalty + (n - avoided) * full;
    }
}

impl EventSink for CycleAccountant {
    fn record(&mut self, event: Event) {
        self.mix.count(&event);
        match event {
            Event::IntAlu => {
                let c = u64::from(self.cpu.int_alu);
                self.baseline.int_alu += c;
                self.memoized.int_alu += c;
            }
            Event::FpAdd => {
                let c = u64::from(self.cpu.fp_add);
                self.baseline.fp_add += c;
                self.memoized.fp_add += c;
            }
            Event::Branch => {
                let c = u64::from(self.cpu.branch);
                self.baseline.branch += c;
                self.memoized.branch += c;
            }
            Event::Annulled => {
                self.baseline.annulled += 1;
                self.memoized.annulled += 1;
            }
            Event::Load(addr) | Event::Store(addr) => {
                let c = u64::from(self.memory.access(addr));
                self.baseline.memory += c;
                self.memoized.memory += c;
            }
            Event::Arith(op) => {
                let slot = kind_slot(op.kind());
                let lane = self.pending[slot];
                let (a, b) = op.operand_bits();
                self.pending_a[slot][lane] = a;
                self.pending_b[slot][lane] = b;
                self.pending[slot] = lane + 1;
                if lane + 1 == MAX_BATCH_WIDTH {
                    self.charge_pending_kind(op.kind());
                }
            }
        }
    }

    /// Bulk charge for a run of identical payload-free events: the cost of
    /// one event of these classes is state-independent, so `n` of them cost
    /// exactly `n ×` the single-event charge. Loads/stores (cache state)
    /// and arithmetic (table state) fall back to per-event recording.
    fn record_repeated(&mut self, event: Event, n: u64) {
        match event {
            Event::IntAlu => {
                self.mix.int_alu += n;
                let c = u64::from(self.cpu.int_alu) * n;
                self.baseline.int_alu += c;
                self.memoized.int_alu += c;
            }
            Event::FpAdd => {
                self.mix.fp_add += n;
                let c = u64::from(self.cpu.fp_add) * n;
                self.baseline.fp_add += c;
                self.memoized.fp_add += c;
            }
            Event::Branch => {
                self.mix.branches += n;
                let c = u64::from(self.cpu.branch) * n;
                self.baseline.branch += c;
                self.memoized.branch += c;
            }
            Event::Annulled => {
                self.mix.annulled += n;
                self.baseline.annulled += n;
                self.memoized.annulled += n;
            }
            Event::Load(_) | Event::Store(_) | Event::Arith(_) => {
                for _ in 0..n {
                    self.record(event);
                }
            }
        }
    }

    /// Batch charge for a same-kind arithmetic tile: the kind's pending
    /// tile first (its operations were recorded earlier), then this one.
    fn record_arith_batch(&mut self, batch: &OpBatch<'_>) {
        self.charge_pending_kind(batch.kind());
        self.mix.count_arith(batch.kind(), batch.len() as u64);
        self.charge(batch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn accountant(bank: MemoBank) -> CycleAccountant {
        CycleAccountant::new(CpuModel::paper_slow(), MemoryHierarchy::typical_1997(), bank)
    }

    /// A small kernel with heavy operand reuse: `n` divisions drawn from
    /// 8 distinct operand pairs, padded with ALU/branch/memory work.
    fn run_kernel(acc: &mut CycleAccountant, n: u64) {
        for i in 0..n {
            acc.load((i % 64) * 8);
            let a = f64::from(2 + (i % 8) as u32);
            let _ = acc.fdiv(a, 3.0);
            acc.int_ops(2);
            acc.branch();
        }
    }

    #[test]
    fn baseline_charges_full_latency() {
        let mut acc = accountant(MemoBank::none());
        run_kernel(&mut acc, 100);
        let r = acc.report();
        assert_eq!(r.baseline().arith_cycles(OpKind::FpDiv), 100 * 39);
        // No tables: memoized == baseline.
        assert_eq!(r.baseline(), r.memoized());
        assert!((r.speedup_measured() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn memoized_machine_avoids_cycles() {
        let mut acc = accountant(MemoBank::paper_default());
        run_kernel(&mut acc, 100);
        let r = acc.report();
        // 8 distinct pairs fit the 32-entry table: 8 misses, 92 hits.
        assert_eq!(r.memoized().arith_cycles(OpKind::FpDiv), 8 * 39 + 92);
        assert!((r.hit_ratio(OpKind::FpDiv) - 0.92).abs() < 1e-12);
        assert!(r.speedup_measured() > 1.0);
    }

    #[test]
    fn memory_cycles_equal_on_both_machines() {
        let mut acc = accountant(MemoBank::paper_default());
        run_kernel(&mut acc, 50);
        let r = acc.report();
        assert_eq!(r.baseline().memory, r.memoized().memory);
        assert!(r.baseline().memory >= 50, "each load costs at least a cycle");
        assert_eq!(r.l2_stats().accesses, r.l1_stats().misses());
    }

    #[test]
    fn fraction_enhanced_is_a_fraction_of_total() {
        let mut acc = accountant(MemoBank::paper_default());
        run_kernel(&mut acc, 200);
        let r = acc.report();
        let fe = r.fraction_enhanced(OpKind::FpDiv);
        assert!(fe > 0.0 && fe < 1.0);
        let expected =
            r.baseline().arith_cycles(OpKind::FpDiv) as f64 / r.baseline().total() as f64;
        assert!((fe - expected).abs() < 1e-12);
    }

    #[test]
    fn amdahl_and_measured_speedups_agree() {
        // With only the divider enhanced and everything else identical, the
        // analytic Amdahl speedup must equal the measured one exactly.
        let mut acc = accountant(MemoBank::uniform(
            memo_table::MemoConfig::paper_default(),
            &[OpKind::FpDiv],
        ));
        run_kernel(&mut acc, 500);
        let r = acc.report();
        let analytic = r.speedup_amdahl(&[OpKind::FpDiv]);
        let measured = r.speedup_measured();
        assert!(
            (analytic - measured).abs() < 1e-9,
            "analytic {analytic} vs measured {measured}"
        );
    }

    /// Mixed fdiv/fmul kernel for the subset-derivation test.
    fn run_mixed_kernel(acc: &mut CycleAccountant, n: u64) {
        for i in 0..n {
            let a = f64::from(2 + (i % 8) as u32);
            let _ = acc.fdiv(a, 3.0);
            let _ = acc.fmul(a, 0.5);
            acc.int_ops(1);
        }
    }

    #[test]
    fn subset_speedup_from_superset_bank_matches_dedicated_bank() {
        use memo_table::MemoConfig;
        // One run with both units memoized…
        let mut both = accountant(MemoBank::uniform(
            MemoConfig::paper_default(),
            &[OpKind::FpMul, OpKind::FpDiv],
        ));
        run_mixed_kernel(&mut both, 300);
        let superset = both.report();
        // …must yield, for each unit alone, exactly the measured speedup of
        // a run whose bank holds only that unit's table.
        for kinds in [&[OpKind::FpDiv][..], &[OpKind::FpMul][..]] {
            let mut alone = accountant(MemoBank::uniform(MemoConfig::paper_default(), kinds));
            run_mixed_kernel(&mut alone, 300);
            assert_eq!(
                superset.speedup_measured_for(kinds),
                alone.report().speedup_measured(),
                "{kinds:?}"
            );
        }
        // The full set reduces to the plain measurement.
        assert_eq!(
            superset.speedup_measured_for(&[OpKind::FpMul, OpKind::FpDiv]),
            superset.speedup_measured()
        );
    }

    #[test]
    fn instruction_mix_is_counted() {
        let mut acc = accountant(MemoBank::none());
        run_kernel(&mut acc, 10);
        let m = *acc.report().mix();
        assert_eq!(m.fp_div, 10);
        assert_eq!(m.loads, 10);
        assert_eq!(m.branches, 10);
        assert_eq!(m.int_alu, 20);
        assert_eq!(m.total(), 50);
    }

    #[test]
    fn trivial_operations_cost_full_latency_on_both_machines() {
        let mut acc = accountant(MemoBank::paper_default());
        let _ = acc.fdiv(5.0, 1.0); // trivial, excluded from the table
        let r = acc.report();
        assert_eq!(r.baseline().arith_cycles(OpKind::FpDiv), 39);
        assert_eq!(r.memoized().arith_cycles(OpKind::FpDiv), 39);
    }

    #[test]
    fn protection_penalty_is_charged_per_hit() {
        use memo_table::{MemoConfig, Protection};
        let cfg = MemoConfig::builder(32)
            .protection(Protection::VerifyOnHit { verify_cycles: 4 })
            .build()
            .unwrap();
        let bank = MemoBank::none().with_table(OpKind::FpDiv, memo_table::MemoTable::new(cfg));
        let mut acc = accountant(bank);
        run_kernel(&mut acc, 100);
        let r = acc.report();
        // 8 misses at full latency, 92 hits at 1 + 4 verify cycles.
        assert_eq!(r.memoized().arith_cycles(OpKind::FpDiv), 8 * 39 + 92 * 5);
        // Slower than the unprotected machine, still faster than baseline.
        assert!(r.speedup_measured() > 1.0);

        let mut plain = accountant(MemoBank::uniform(
            memo_table::MemoConfig::paper_default(),
            &[OpKind::FpDiv],
        ));
        run_kernel(&mut plain, 100);
        assert!(r.memoized().total() > plain.report().memoized().total());
    }

    #[test]
    fn empty_run_reports_identity() {
        let mut acc = accountant(MemoBank::paper_default());
        let r = acc.report();
        assert_eq!(r.baseline().total(), 0);
        assert_eq!(r.speedup_measured(), 1.0);
        assert_eq!(r.hit_ratio(OpKind::FpDiv), 0.0);
        assert_eq!(r.speedup_amdahl(&[OpKind::FpDiv]), 1.0);
    }
}
