//! Suite-level measurement drivers: run applications over their input
//! sets and collect the statistics the paper's tables report.
//!
//! Two measurement paths produce bit-identical results (asserted by the
//! `trace_equivalence` integration tests):
//!
//! * **native** — run the kernel with a [`MemoProbeSink`] attached, as the
//!   paper ran binaries under Shade;
//! * **record / replay** — record the kernel's operand stream once with
//!   [`record_mm_trace`] / [`record_sci_trace`] and replay the
//!   [`OpTrace`] against any number of configurations with
//!   [`replay_stats`] / [`replay_ratios`]. Sweeps use this path: one
//!   native execution, N memory-speed replays.
//!
//! Bank construction lives in one place — [`SweepSpec`] — instead of
//! being re-closed at every call site.

use std::sync::atomic::{AtomicU64, Ordering};

use memo_imaging::synth::{self, CorpusImage};
use memo_imaging::Image;
use memo_sim::{
    sweep_kind, CpuModel, CycleAccountant, CycleReport, Event, EventSink, MemoBank,
    MemoryHierarchy, OpTrace, TraceRecorderSink,
};
use memo_table::{InfiniteColumn, MemoConfig, MemoStats, OpKind, SweepGrid};

use crate::mm::MmApp;
use crate::sci::SciApp;

/// The table shape a sweep point evaluates: a finite geometry or the
/// "infinitely large, fully associative" reference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TableShape {
    /// Identical finite tables built from one [`MemoConfig`].
    Finite(MemoConfig),
    /// The infinite reference table.
    Infinite,
}

/// One sweep point's bank recipe: a [`TableShape`] plus the operation
/// kinds that get a table. `Copy`, comparable, and buildable anywhere —
/// the single place bank construction happens in the sweep drivers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepSpec {
    shape: TableShape,
    kinds: [bool; 4],
}

impl SweepSpec {
    /// The paper's simulated system: 32-entry 4-way tables on the integer
    /// multiplier, fp multiplier, and fp divider.
    #[must_use]
    pub fn paper_default() -> Self {
        Self::finite(
            MemoConfig::paper_default(),
            &[OpKind::IntMul, OpKind::FpMul, OpKind::FpDiv],
        )
    }

    /// Identical finite tables from `cfg` on each of `kinds`.
    #[must_use]
    pub fn finite(cfg: MemoConfig, kinds: &[OpKind]) -> Self {
        SweepSpec { shape: TableShape::Finite(cfg), kinds: Self::mask(kinds) }
    }

    /// Infinite reference tables on each of `kinds`.
    #[must_use]
    pub fn infinite(kinds: &[OpKind]) -> Self {
        SweepSpec { shape: TableShape::Infinite, kinds: Self::mask(kinds) }
    }

    fn mask(kinds: &[OpKind]) -> [bool; 4] {
        let mut mask = [false; 4];
        for &kind in kinds {
            mask[kind as usize] = true;
        }
        mask
    }

    /// The shape of this spec's tables.
    #[must_use]
    pub fn shape(&self) -> TableShape {
        self.shape
    }

    /// The kinds that receive a table, in [`OpKind::ALL`] order.
    pub fn kinds(&self) -> impl Iterator<Item = OpKind> + '_ {
        OpKind::ALL.into_iter().filter(|&k| self.kinds[k as usize])
    }

    /// Construct the bank this spec describes.
    #[must_use]
    pub fn build(&self) -> MemoBank {
        let kinds: Vec<OpKind> = self.kinds().collect();
        match self.shape {
            TableShape::Finite(cfg) => MemoBank::uniform(cfg, &kinds),
            TableShape::Infinite => MemoBank::infinite(&kinds),
        }
    }
}

/// An [`EventSink`] that routes multi-cycle operations into a [`MemoBank`]
/// and discards everything else — the fast path for pure hit-ratio
/// experiments (Tables 5–10, Figures 2–4), where cycle accounting is not
/// needed.
#[derive(Debug)]
pub struct MemoProbeSink {
    bank: MemoBank,
}

impl MemoProbeSink {
    /// Probe through a fresh bank built from `spec`.
    #[must_use]
    pub fn new(spec: SweepSpec) -> Self {
        Self::with_bank(spec.build())
    }

    /// Probe through an existing bank (custom constructions — fault
    /// injection, circuit breakers — that [`SweepSpec`] doesn't describe).
    #[must_use]
    pub fn with_bank(bank: MemoBank) -> Self {
        MemoProbeSink { bank }
    }

    /// The bank, for reading statistics.
    #[must_use]
    pub fn bank(&self) -> &MemoBank {
        &self.bank
    }

    /// Consume the sink and return its bank.
    #[must_use]
    pub fn into_bank(self) -> MemoBank {
        self.bank
    }
}

impl EventSink for MemoProbeSink {
    fn record(&mut self, event: Event) {
        if let Event::Arith(op) = event {
            self.bank.execute(op);
        }
    }
}

/// Hit ratios per operation kind; `None` mirrors the paper's `-` cells
/// (the application never issues that operation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HitRatios {
    /// Integer multiplication hit ratio.
    pub int_mul: Option<f64>,
    /// Floating-point multiplication hit ratio.
    pub fp_mul: Option<f64>,
    /// Floating-point division hit ratio.
    pub fp_div: Option<f64>,
}

impl HitRatios {
    /// Extract the ratio for `kind`.
    #[must_use]
    pub fn get(&self, kind: OpKind) -> Option<f64> {
        match kind {
            OpKind::IntMul => self.int_mul,
            OpKind::FpMul => self.fp_mul,
            OpKind::FpDiv => self.fp_div,
            OpKind::FpSqrt => None,
        }
    }

    /// Read the per-kind lookup hit ratios out of a bank.
    #[must_use]
    pub fn from_bank(bank: &MemoBank) -> Self {
        let ratio = |kind| {
            bank.stats(kind).and_then(|s: MemoStats| {
                if s.table_lookups == 0 {
                    None
                } else {
                    Some(s.lookup_hit_ratio())
                }
            })
        };
        HitRatios {
            int_mul: ratio(OpKind::IntMul),
            fp_mul: ratio(OpKind::FpMul),
            fp_div: ratio(OpKind::FpDiv),
        }
    }
}

/// The image corpus an MM application is evaluated on (the paper ran each
/// application "on 8 to 14 inputs"; we use the full 14-image Table 8
/// corpus).
#[must_use]
pub fn mm_inputs(scale: usize) -> Vec<CorpusImage> {
    synth::corpus(scale)
}

/// Record the operand stream of one MM application over `inputs` —
/// executed natively exactly once; the trace replays against any number
/// of configurations.
#[must_use]
pub fn record_mm_trace(app: &MmApp, inputs: &[&Image]) -> OpTrace {
    let mut rec = TraceRecorderSink::new();
    for input in inputs {
        app.run(&mut rec, input);
    }
    rec.into_trace()
}

/// Record the operand stream of one scientific kernel at size `n`.
#[must_use]
pub fn record_sci_trace(app: &SciApp, n: usize) -> OpTrace {
    let mut rec = TraceRecorderSink::new();
    app.run(&mut rec, n);
    rec.into_trace()
}

/// Replay one or more traces, in order, through a fresh bank built from
/// `spec` and return the bank (per-kind statistics are bit-identical to a
/// native run of the same stream).
///
/// Replay flows through the batched probe path ([`OpTrace::replay`] →
/// [`MemoBank::execute_batch`]); the per-op scalar path remains available
/// as [`OpTrace::replay_scalar`] and is property-tested bit-identical.
#[must_use]
pub fn replay_stats<'a>(
    traces: impl IntoIterator<Item = &'a OpTrace>,
    spec: SweepSpec,
) -> MemoBank {
    DIRECT_REPLAYS.fetch_add(1, Ordering::Relaxed);
    let mut bank = spec.build();
    for trace in traces {
        trace.replay(&mut bank);
    }
    bank
}

// Process-wide accounting of how sweep points were evaluated, surfaced in
// the `memo-experiments all` summary so the fused-pass win is visible in CI.
static GRIDS_FUSED: AtomicU64 = AtomicU64::new(0);
static POINTS_FUSED: AtomicU64 = AtomicU64::new(0);
static DIRECT_REPLAYS: AtomicU64 = AtomicU64::new(0);

/// How many sweep evaluations went through the fused single-pass engine
/// versus direct per-configuration replay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FusionCounters {
    /// Fused passes executed (one [`replay_stats_fused`] call that fused).
    pub grids_fused: u64,
    /// Sweep points those passes served; `points_fused - grids_fused`
    /// full-trace replays were avoided.
    pub points_fused: u64,
    /// Full-trace replays performed directly ([`replay_stats`] calls).
    pub direct_replays: u64,
}

/// Snapshot the process-wide fusion accounting.
#[must_use]
pub fn fusion_counters() -> FusionCounters {
    FusionCounters {
        grids_fused: GRIDS_FUSED.load(Ordering::Relaxed),
        points_fused: POINTS_FUSED.load(Ordering::Relaxed),
        direct_replays: DIRECT_REPLAYS.load(Ordering::Relaxed),
    }
}

/// Per-kind [`MemoStats`] of one sweep point, however it was evaluated.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KindStats {
    stats: [Option<MemoStats>; 4],
}

impl KindStats {
    /// Read a bank's per-kind statistics (the direct-path constructor).
    #[must_use]
    pub fn from_bank(bank: &MemoBank) -> Self {
        let mut stats = [None; 4];
        for kind in OpKind::ALL {
            stats[kind as usize] = bank.stats(kind);
        }
        KindStats { stats }
    }

    /// Statistics of `kind`'s table (`None` when the spec attached none).
    #[must_use]
    pub fn stats(&self, kind: OpKind) -> Option<MemoStats> {
        self.stats[kind as usize]
    }

    /// Per-kind lookup hit ratios, with the same `None` semantics as
    /// [`HitRatios::from_bank`] (no table, or no lookups).
    #[must_use]
    pub fn ratios(&self) -> HitRatios {
        let ratio = |kind: OpKind| {
            self.stats(kind).and_then(|s| {
                if s.table_lookups == 0 {
                    None
                } else {
                    Some(s.lookup_hit_ratio())
                }
            })
        };
        HitRatios {
            int_mul: ratio(OpKind::IntMul),
            fp_mul: ratio(OpKind::FpMul),
            fp_div: ratio(OpKind::FpDiv),
        }
    }
}

/// Evaluate every spec in `specs` over the same traces. Finite specs fuse
/// into one stack pass per op kind when the family qualifies (at least two
/// points sharing their kinds, and [`SweepGrid`]'s preconditions: shared
/// policies, LRU, unprotected) and replay directly otherwise, or when a
/// mantissa-mode pass loses exactness. Infinite specs are counted by an
/// [`InfiniteColumn`] per kind instead of an unbounded table. Every path
/// is bit-identical to per-spec replay.
///
/// Returns one [`KindStats`] per spec, in order.
#[must_use]
pub fn replay_stats_fused<'a>(
    traces: impl IntoIterator<Item = &'a OpTrace>,
    specs: &[SweepSpec],
) -> Vec<KindStats> {
    let traces: Vec<&OpTrace> = traces.into_iter().collect();
    let finite: Vec<SweepSpec> =
        specs.iter().copied().filter(|s| s.shape != TableShape::Infinite).collect();
    let finite_stats = match try_fused(&traces, &finite) {
        Some(fused) => {
            // The infinite specs are served by the same call.
            GRIDS_FUSED.fetch_add(1, Ordering::Relaxed);
            POINTS_FUSED.fetch_add(specs.len() as u64, Ordering::Relaxed);
            fused
        }
        None => finite
            .iter()
            .map(|&spec| KindStats::from_bank(&replay_stats(traces.iter().copied(), spec)))
            .collect(),
    };
    let mut finite_stats = finite_stats.into_iter();
    specs
        .iter()
        .map(|spec| match spec.shape {
            TableShape::Finite(_) => finite_stats.next().expect("one result per finite spec"),
            TableShape::Infinite => infinite_column(&traces, spec),
        })
        .collect()
}

/// One stack pass per op kind over a family of finite specs, or `None`
/// when the family cannot share one.
fn try_fused(traces: &[&OpTrace], specs: &[SweepSpec]) -> Option<Vec<KindStats>> {
    // A one-point "grid" has no replays to avoid, and direct replay
    // through the lane kernel is cheaper than a one-point stack pass
    // (30 against 55 ns per op over the Table 7 recordings).
    if specs.len() < 2 {
        return None;
    }
    let first = specs.first()?;
    let mut configs = Vec::with_capacity(specs.len());
    for spec in specs {
        match spec.shape {
            TableShape::Finite(cfg) if spec.kinds == first.kinds => configs.push(cfg),
            _ => return None,
        }
    }
    let grid = SweepGrid::new(&configs).ok()?;

    let mut results = vec![KindStats::default(); specs.len()];
    for kind in first.kinds() {
        let out = sweep_kind(traces.iter().copied(), kind, &grid);
        if !out.exact {
            return None;
        }
        for (result, stats) in results.iter_mut().zip(out.finite) {
            result.stats[kind as usize] = Some(stats);
        }
    }
    Some(results)
}

/// An infinite spec's statistics: one [`InfiniteColumn`] walk per kind,
/// the same counts [`MemoBank::infinite`] would report.
fn infinite_column(traces: &[&OpTrace], spec: &SweepSpec) -> KindStats {
    let mut out = KindStats::default();
    for kind in spec.kinds() {
        let mut column = InfiniteColumn::new();
        for trace in traces {
            trace.for_each_kind(kind, |op| column.access(op));
        }
        out.stats[kind as usize] = Some(column.stats());
    }
    out
}

/// Replay one or more traces through a fresh bank and report hit ratios.
#[must_use]
pub fn replay_ratios<'a>(
    traces: impl IntoIterator<Item = &'a OpTrace>,
    spec: SweepSpec,
) -> HitRatios {
    HitRatios::from_bank(&replay_stats(traces, spec))
}

/// Run one MM application over `inputs` and report per-kind hit ratios
/// from a fresh bank built from `spec`.
pub fn measure_mm_app(app: &MmApp, inputs: &[&Image], spec: SweepSpec) -> HitRatios {
    let mut sink = MemoProbeSink::new(spec);
    for input in inputs {
        app.run(&mut sink, input);
    }
    HitRatios::from_bank(sink.bank())
}

/// Run one scientific kernel at size `n` and report per-kind hit ratios.
pub fn measure_sci_app(app: &SciApp, n: usize, spec: SweepSpec) -> HitRatios {
    let mut sink = MemoProbeSink::new(spec);
    app.run(&mut sink, n);
    HitRatios::from_bank(sink.bank())
}

/// Full cycle-level measurement of one MM application over its inputs —
/// the machinery behind the paper's speedup tables (11–13).
pub fn measure_mm_cycles(
    app: &MmApp,
    inputs: &[&Image],
    cpu: CpuModel,
    bank: MemoBank,
) -> CycleReport {
    let mut acc = CycleAccountant::new(cpu, MemoryHierarchy::typical_1997(), bank);
    for input in inputs {
        app.run(&mut acc, input);
    }
    acc.report()
}

/// Raw per-kind memo statistics after running an MM app over `inputs`.
pub fn measure_mm_stats(app: &MmApp, inputs: &[&Image], spec: SweepSpec) -> MemoBank {
    let mut sink = MemoProbeSink::new(spec);
    for input in inputs {
        app.run(&mut sink, input);
    }
    sink.into_bank()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{mm, sci};

    fn small_inputs() -> Vec<Image> {
        mm_inputs(16).into_iter().map(|c| c.image).take(4).collect()
    }

    #[test]
    fn mm_hit_ratios_beat_sci_hit_ratios_at_32_entries() {
        // The paper's central claim (Tables 5-7): MM applications reuse
        // operands far better than scientific codes in a small table.
        let inputs = small_inputs();
        let input_refs: Vec<&Image> = inputs.iter().collect();

        let mm_apps = ["vspatial", "vgauss", "vgpwl"];
        let mut mm_div = Vec::new();
        for name in mm_apps {
            let app = mm::find(name).unwrap();
            let r = measure_mm_app(&app, &input_refs, SweepSpec::paper_default());
            if let Some(d) = r.fp_div {
                mm_div.push(d);
            }
        }
        let mm_avg = mm_div.iter().sum::<f64>() / mm_div.len() as f64;

        let mut sci_div = Vec::new();
        for app in sci::all_apps() {
            let r = measure_sci_app(&app, 24, SweepSpec::paper_default());
            if let Some(d) = r.fp_div {
                sci_div.push(d);
            }
        }
        let sci_avg = sci_div.iter().sum::<f64>() / sci_div.len() as f64;

        assert!(
            mm_avg > sci_avg + 0.15,
            "MM fdiv hit {mm_avg:.2} should clearly beat scientific {sci_avg:.2}"
        );
        assert!(mm_avg > 0.4, "MM suite fdiv average {mm_avg:.2}");
    }

    #[test]
    fn infinite_bank_dominates_finite_bank() {
        let inputs = small_inputs();
        let input_refs: Vec<&Image> = inputs.iter().collect();
        let app = mm::find("vcost").unwrap();
        let finite = measure_mm_app(&app, &input_refs, SweepSpec::paper_default());
        let infinite = measure_mm_app(
            &app,
            &input_refs,
            SweepSpec::infinite(&[OpKind::IntMul, OpKind::FpMul, OpKind::FpDiv]),
        );
        for kind in [OpKind::IntMul, OpKind::FpMul, OpKind::FpDiv] {
            if let (Some(f), Some(i)) = (finite.get(kind), infinite.get(kind)) {
                assert!(i + 1e-9 >= f, "{kind}: infinite {i:.3} >= finite {f:.3}");
            }
        }
    }

    #[test]
    fn absent_ops_are_none() {
        let inputs = small_inputs();
        let input_refs: Vec<&Image> = inputs.iter().collect();
        let app = mm::find("vgauss").unwrap();
        let r = measure_mm_app(&app, &input_refs, SweepSpec::paper_default());
        assert_eq!(r.int_mul, None, "vgauss has no imul (Table 7 '-')");
        assert!(r.fp_div.is_some());
    }

    #[test]
    fn cycle_measurement_produces_speedup() {
        let inputs = small_inputs();
        let input_refs: Vec<&Image> = inputs.iter().take(2).collect();
        let app = mm::find("vspatial").unwrap();
        let report = measure_mm_cycles(
            &app,
            &input_refs,
            CpuModel::paper_slow(),
            MemoBank::paper_default(),
        );
        assert!(report.speedup_measured() > 1.0, "vspatial must speed up");
        let fe = report.fraction_enhanced(OpKind::FpDiv);
        assert!(fe > 0.0 && fe < 0.6, "FE {fe}");
    }

    #[test]
    fn uniform_bank_scales_with_size() {
        // Bigger tables never hurt on a real workload (fully associative).
        let inputs = small_inputs();
        let input_refs: Vec<&Image> = inputs.iter().take(2).collect();
        let app = mm::find("venhance").unwrap();
        let small = measure_mm_app(
            &app,
            &input_refs,
            SweepSpec::finite(
                MemoConfig::builder(8).assoc(memo_table::Assoc::Full).build().unwrap(),
                &[OpKind::FpMul],
            ),
        );
        let large = measure_mm_app(
            &app,
            &input_refs,
            SweepSpec::finite(
                MemoConfig::builder(512).assoc(memo_table::Assoc::Full).build().unwrap(),
                &[OpKind::FpMul],
            ),
        );
        assert!(large.fp_mul.unwrap() + 1e-9 >= small.fp_mul.unwrap());
    }

    #[test]
    fn spec_build_matches_bank_constructors() {
        // SweepSpec::paper_default() must describe MemoBank::paper_default().
        let spec = SweepSpec::paper_default();
        let from_spec = spec.build();
        let direct = MemoBank::paper_default();
        for kind in OpKind::ALL {
            assert_eq!(from_spec.stats(kind).is_some(), direct.stats(kind).is_some(), "{kind}");
        }
        assert_eq!(spec.kinds().count(), 3);
        assert!(matches!(spec.shape(), TableShape::Finite(_)));
    }

    #[test]
    fn fused_replay_matches_direct_and_counts_itself() {
        let inputs = small_inputs();
        let input_refs: Vec<&Image> = inputs.iter().take(2).collect();
        let app = mm::find("vspatial").unwrap();
        let trace = record_mm_trace(&app, &input_refs);
        let kinds = [OpKind::IntMul, OpKind::FpMul, OpKind::FpDiv];
        let specs: Vec<SweepSpec> = [8usize, 32, 128]
            .iter()
            .map(|&e| SweepSpec::finite(MemoConfig::builder(e).build().unwrap(), &kinds))
            .chain(std::iter::once(SweepSpec::infinite(&kinds)))
            .collect();
        let before = fusion_counters();
        let fused = replay_stats_fused([&trace], &specs);
        let after = fusion_counters();
        assert_eq!(after.grids_fused, before.grids_fused + 1, "grid must fuse");
        assert_eq!(after.points_fused, before.points_fused + 4);
        for (spec, ks) in specs.iter().zip(&fused) {
            let bank = replay_stats([&trace], *spec);
            assert_eq!(*ks, KindStats::from_bank(&bank), "{spec:?}");
        }
    }

    #[test]
    fn unfusable_specs_fall_back_to_direct() {
        let inputs = small_inputs();
        let input_refs: Vec<&Image> = inputs.iter().take(2).collect();
        let app = mm::find("vcost").unwrap();
        let trace = record_mm_trace(&app, &input_refs);
        // FIFO replacement has no inclusion property: the helper must
        // quietly take the direct path and still be bit-identical.
        let cfg = MemoConfig::builder(32)
            .replacement(memo_table::Replacement::Fifo)
            .build()
            .unwrap();
        let spec = SweepSpec::finite(cfg, &[OpKind::FpMul]);
        let before = fusion_counters();
        let fused = replay_stats_fused([&trace], &[spec]);
        let after = fusion_counters();
        assert_eq!(after.grids_fused, before.grids_fused, "FIFO must not fuse");
        assert!(after.direct_replays > before.direct_replays);
        assert_eq!(fused[0], KindStats::from_bank(&replay_stats([&trace], spec)));
    }

    #[test]
    fn replay_is_bit_identical_to_native() {
        let inputs = small_inputs();
        let input_refs: Vec<&Image> = inputs.iter().take(2).collect();
        let app = mm::find("vspatial").unwrap();
        let spec = SweepSpec::paper_default();

        let native = measure_mm_stats(&app, &input_refs, spec);
        let trace = record_mm_trace(&app, &input_refs);
        let replayed = replay_stats([&trace], spec);
        for kind in OpKind::ALL {
            assert_eq!(native.stats(kind), replayed.stats(kind), "{kind}");
        }
        assert_eq!(
            measure_mm_app(&app, &input_refs, spec),
            replay_ratios([&trace], spec)
        );
    }
}
