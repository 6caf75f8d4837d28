//! Soft-error fault tolerance of the MEMO-TABLE (robustness study).
//!
//! The paper assumes the memo SRAM is perfect: a hit is served verbatim.
//! A particle strike that flips a stored result bit breaks exactly the
//! property the whole design rests on — bit-exact transparency — and does
//! so *silently*, because the conventional unit never recomputes a hit.
//!
//! This module quantifies that exposure and the cost of closing it:
//!
//! * [`sweep`] — fault rate × [`Protection`] policy over the MM and
//!   scientific suites, reporting end-to-end silent-data-corruption (SDC)
//!   rates, hit ratios, and the injector/detector counters;
//! * [`protection_speedups`] — how much of the memoization speedup each
//!   policy retains once its per-hit cycle charge is accounted;
//! * [`breaker_demo`] — the circuit breaker taking a faulty table slot
//!   offline after repeated detections (graceful degradation to the
//!   conventional unit);
//! * [`check_transparency`] — the differential checker: every MM kernel
//!   re-run with table-served arithmetic must produce a bit-identical
//!   image, and every scientific kernel's served values must match native
//!   computation op-for-op, whenever injection is disabled.

use std::sync::Arc;

use memo_sim::{
    CpuModel, CycleAccountant, Event, EventSink, MemoBank, MemoizedSink, MemoryHierarchy,
    NullSink, OpTrace,
};
use memo_table::{
    FaultConfig, FaultInjector, FaultShadow, LaneSlot, MemoConfig, MemoStats, MemoTable, Memoizer,
    OpKind, Protection, ShadowCounts, MAX_BATCH_WIDTH,
};
use memo_workloads::{mm, sci};

use crate::error::find_mm;
use crate::format::{ratio, TextTable};
use crate::{parallel, traces, ExpConfig, ExperimentError};

/// The operation kinds memoized throughout the fault studies.
pub const MEMO_KINDS: [OpKind; 4] =
    [OpKind::IntMul, OpKind::FpMul, OpKind::FpDiv, OpKind::FpSqrt];

/// Per-lookup single-bit upset probabilities swept by [`sweep`]. Vastly
/// above any physical rate, deliberately: the point is to separate the
/// policies, not to model a particular altitude.
pub const FAULT_RATES: [f64; 3] = [0.0, 0.01, 0.1];

/// The fault seed of every [`sweep`] cell.
const SWEEP_SEED: u64 = 0xFA17;

/// Division-heavy applications used for the speedup-retention study.
pub const SPEEDUP_SAMPLE: [&str; 3] = ["vspatial", "vgauss", "vgpwl"];

/// Human label for a protection policy.
#[must_use]
pub fn protection_label(p: Protection) -> String {
    match p {
        Protection::None => "none".to_string(),
        Protection::ParityDetect => "parity".to_string(),
        Protection::EccSecDed => "ecc sec-ded".to_string(),
        Protection::VerifyOnHit { verify_cycles } => format!("verify({verify_cycles}c)"),
    }
}

fn protected_config(protection: Protection) -> MemoConfig {
    // 32-entry 4-way is the paper's default geometry; always valid.
    MemoConfig::builder(32).protection(protection).build().expect("32/4 is valid")
}

/// Build a bank of protected tables, one per kind in [`MEMO_KINDS`], each
/// with its own deterministic injector stream (the seed is split per slot
/// so the streams are independent but replayable).
#[must_use]
pub fn faulty_bank(protection: Protection, rate: f64, seed: u64) -> MemoBank {
    MEMO_KINDS.iter().enumerate().fold(MemoBank::none(), |bank, (slot, &kind)| {
        let injector = FaultInjector::new(slot_faults(rate, seed, slot));
        bank.with_table(
            kind,
            MemoTable::new(protected_config(protection)).with_fault_injector(injector),
        )
    })
}

/// The fault process of slot `slot` of [`faulty_bank`]: single-bit value
/// strikes at `rate` from the slot's share of `seed`, disabled at rate 0.
/// The sweep's shadows draw from it too, so both see the same strikes.
fn slot_faults(rate: f64, seed: u64, slot: usize) -> FaultConfig {
    if rate > 0.0 {
        FaultConfig::single_bit(
            seed ^ 0x9e37_79b9_7f4a_7c15_u64.wrapping_mul(slot as u64 + 1),
            rate,
        )
    } else {
        FaultConfig::disabled()
    }
}

// ---------------------------------------------------------------------------
// DiffSink — the differential observer
// ---------------------------------------------------------------------------

/// An [`EventSink`] that executes every multi-cycle operation twice — once
/// through a memo bank, once natively — and counts bit-level divergence.
/// The kernel always consumes the native result, so its control flow never
/// depends on (possibly corrupted) table output: the sink is a pure
/// observer of end-to-end silent corruption.
#[derive(Debug)]
pub struct DiffSink {
    bank: MemoBank,
    served: u64,
    mismatches: u64,
}

impl DiffSink {
    /// Wrap a bank.
    #[must_use]
    pub fn new(bank: MemoBank) -> Self {
        DiffSink { bank, served: 0, mismatches: 0 }
    }

    /// Operations compared so far.
    #[must_use]
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Operations whose table-served value differed from native.
    #[must_use]
    pub fn mismatches(&self) -> u64 {
        self.mismatches
    }

    /// The bank (for fault statistics).
    #[must_use]
    pub fn bank(&self) -> &MemoBank {
        &self.bank
    }
}

impl EventSink for DiffSink {
    fn record(&mut self, event: Event) {
        if let Event::Arith(op) = event {
            self.served += 1;
            if self.bank.execute(op).value != op.compute() {
                self.mismatches += 1;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The fault-rate × protection sweep
// ---------------------------------------------------------------------------

/// One (protection, fault-rate) cell of the sweep.
#[derive(Debug, Clone, Copy)]
pub struct FaultCell {
    /// Table protection policy.
    pub protection: Protection,
    /// Per-lookup single-bit upset probability.
    pub fault_rate: f64,
    /// End-to-end SDC rate: served operations whose value diverged from
    /// native computation, over all served operations.
    pub sdc_rate: f64,
    /// Pooled hit ratio across the memoized kinds (hits / lookups).
    pub hit_ratio: f64,
    /// Bit flips the injector planted.
    pub faults_injected: u64,
    /// Corrupted hits the policy detected (entry invalidated, miss).
    pub faults_detected: u64,
    /// Corrupted hits ECC repaired in place.
    pub faults_corrected: u64,
    /// Corrupted hits served to the consumer unnoticed.
    pub faults_silent: u64,
}

/// Pool one cell's tables: summed fault counters, the hit ratio over
/// their lookups, and the SDC rate over every operation they served.
fn pooled_cell(
    protection: Protection,
    rate: f64,
    stats: impl IntoIterator<Item = MemoStats>,
    served: u64,
    mismatches: u64,
) -> FaultCell {
    let mut total = MemoStats::new();
    for s in stats {
        total += s;
    }
    let ratio = |num: u64, den: u64| if den == 0 { 0.0 } else { num as f64 / den as f64 };
    FaultCell {
        protection,
        fault_rate: rate,
        sdc_rate: ratio(mismatches, served),
        hit_ratio: ratio(total.table_hits, total.table_lookups),
        faults_injected: total.faults_injected,
        faults_detected: total.faults_detected,
        faults_corrected: total.faults_corrected,
        faults_silent: total.faults_silent,
    }
}

/// The recordings of both suites, recorded once, process-wide: each MM
/// application's per-image traces and each scientific kernel's trace.
struct Recordings {
    mm: Vec<Arc<Vec<OpTrace>>>,
    sci: Vec<Arc<OpTrace>>,
}

impl Recordings {
    /// Fetch (or record) every suite's recordings, in parallel.
    fn fetch(cfg: ExpConfig) -> Self {
        Recordings {
            mm: parallel::par_map(mm::apps(), |app| traces::mm_traces(cfg, &app)),
            sci: parallel::par_map(sci::all_apps(), |app| traces::sci_trace(cfg, &app)),
        }
    }

    /// Every recording in the order the native loops ran them: MM apps
    /// over the corpus, then the scientific suites.
    fn walk(&self) -> impl Iterator<Item = &OpTrace> {
        self.mm.iter().flat_map(|traces| traces.iter()).chain(self.sci.iter().map(|t| &**t))
    }
}

/// Sweep fault rate × protection policy over the full MM corpus and the
/// scientific suites, measuring end-to-end SDC and hit-ratio impact.
///
/// Each cell is what a [`DiffSink`] over the cell's [`faulty_bank`] counts
/// (seed `0xFA17`), but only the clean cell's four tables are simulated.
/// At rate 0 the injector is disabled and every policy's read path is a
/// no-op on clean entries — parity always passes, ECC never corrects,
/// verification always matches — so the four clean cells are one cell.
///
/// Every faulted cell is derived from the clean tables by a
/// [`FaultShadow`] per table and nonzero rate. The sweep's tables (32
/// entries, 4 ways, LRU, the paper's XOR hash, full-value tags,
/// commutative probing) and its fault model ([`FaultConfig::single_bit`]:
/// one-bit value strikes only) are exactly what the shadow's derivation
/// covers: every policy then hits and fills the clean table's slots, and
/// differs only in its payloads and counters.
///
/// * No protection at rate r: the clean hits and lookups, with the
///   shadow's strikes, silent reads and corrupted lanes.
/// * Parity and verify-on-hit at r: hits = clean hits − strikes, every
///   strike detected, and the corrupted lanes of the detecting payloads.
/// * SEC-DED at r: the clean cell, with every strike corrected.
///
/// The four clean tables are dealt to the [`parallel::jobs`] workers by
/// their kind's operation count. Each worker walks its kinds' warps once,
/// in the order the native loops ran them, computes each warp's true
/// results once, runs the warp through the clean table, and feeds the
/// table's lane records to one shadow per nonzero rate. A bank's tables never
/// interact, so each kind's table seeing its own operations in recorded
/// order is what the bank sees.
#[must_use]
pub fn sweep(cfg: ExpConfig) -> Vec<FaultCell> {
    let recordings = Recordings::fetch(cfg);
    let walk: Vec<&OpTrace> = recordings.walk().collect();
    let rates: Vec<f64> = FAULT_RATES.into_iter().filter(|&rate| rate > 0.0).collect();
    let ops = |kind| walk.iter().map(|t| t.count(kind)).sum::<usize>();
    let units: Vec<(usize, OpKind)> = MEMO_KINDS.into_iter().enumerate().collect();
    let workers = deal(units, parallel::jobs(), |&(_, kind)| ops(kind));
    let kinds: Vec<KindSweep> = parallel::par_map(workers, |units| {
        units
            .into_iter()
            .map(|(slot, kind)| KindSweep::run(&walk, slot, kind, &rates))
            .collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect();

    let served = kinds.iter().map(|k| k.served).sum();
    let corrupted = kinds.iter().map(|k| k.corrupted).sum();
    let clean =
        pooled_cell(Protection::None, 0.0, kinds.iter().map(|k| k.clean), served, corrupted);
    let mut out = Vec::with_capacity(Protection::ALL.len() * FAULT_RATES.len());
    for &protection in &Protection::ALL {
        for &rate in &FAULT_RATES {
            out.push(match rates.iter().position(|&r| r == rate) {
                None => FaultCell { protection, ..clean },
                Some(r) => {
                    let stats = kinds.iter().map(|k| k.shadows[r].stats(protection, k.clean));
                    let corrupted = kinds.iter().map(|k| k.shadows[r].corrupted(protection));
                    pooled_cell(protection, rate, stats, served, corrupted.sum())
                }
            });
        }
    }
    out
}

/// One kind's clean table and its shadows, after the walk.
struct KindSweep {
    /// The clean table's statistics.
    clean: MemoStats,
    /// Operations the table executed.
    served: u64,
    /// Operations whose clean served bits differed from the true result.
    corrupted: u64,
    /// One shadow's counts per nonzero rate of [`FAULT_RATES`], in order.
    shadows: Vec<ShadowCounts>,
}

impl KindSweep {
    /// Walk `kind`'s warps of every recording through the clean table of
    /// [`faulty_bank`]'s slot `slot`, and follow it with one shadow per
    /// rate in `rates`.
    fn run(walk: &[&OpTrace], slot: usize, kind: OpKind, rates: &[f64]) -> Self {
        let config = protected_config(Protection::None);
        let mut clean = MemoTable::new(config);
        let mut shadows: Vec<FaultShadow> = rates
            .iter()
            .map(|&rate| {
                FaultShadow::new(&config, slot_faults(rate, SWEEP_SEED, slot))
                    .expect("the sweep's tables and fault model are what a shadow covers")
            })
            .collect();
        let (mut served, mut corrupted) = (0, 0);
        let mut truth = [0u64; MAX_BATCH_WIDTH];
        let mut clean_bits = [0u64; MAX_BATCH_WIDTH];
        let mut slots = [LaneSlot::NoLookup; MAX_BATCH_WIDTH];
        let mut unprotected = [0u64; MAX_BATCH_WIDTH];
        let mut detecting = [0u64; MAX_BATCH_WIDTH];
        for trace in walk {
            trace.for_each_kind_batch(kind, MAX_BATCH_WIDTH, |warp| {
                let n = warp.len();
                let (truth, clean_bits, slots) =
                    (&mut truth[..n], &mut clean_bits[..n], &mut slots[..n]);
                for (i, bits) in truth.iter_mut().enumerate() {
                    *bits = warp.op(i).compute().to_bits();
                }
                clean.execute_batch_with_truth(warp, truth, clean_bits, slots);
                served += n as u64;
                corrupted +=
                    clean_bits.iter().zip(&*truth).filter(|(got, want)| got != want).count() as u64;
                for shadow in &mut shadows {
                    shadow.follow(
                        slots,
                        truth,
                        clean_bits,
                        &mut unprotected[..n],
                        &mut detecting[..n],
                    );
                }
            });
        }
        KindSweep {
            clean: clean.stats(),
            served,
            corrupted,
            shadows: shadows.iter().map(FaultShadow::counts).collect(),
        }
    }
}

/// Deal `items` to at most `workers` groups, heaviest first, each to the
/// group with the least weight so far (the first such group on a tie).
fn deal<T>(mut items: Vec<T>, workers: usize, weight: impl Fn(&T) -> usize) -> Vec<Vec<T>> {
    items.sort_by_key(|item| std::cmp::Reverse(weight(item)));
    let mut groups: Vec<(usize, Vec<T>)> = (0..workers.max(1)).map(|_| (0, Vec::new())).collect();
    for item in items {
        let (load, group) =
            groups.iter_mut().min_by_key(|(load, _)| *load).expect("at least one group");
        *load += weight(&item);
        group.push(item);
    }
    groups.into_iter().map(|(_, group)| group).filter(|group| !group.is_empty()).collect()
}

// ---------------------------------------------------------------------------
// Speedup retained under protection
// ---------------------------------------------------------------------------

/// Speedup of the division-heavy sample under one protection policy.
#[derive(Debug, Clone, Copy)]
pub struct ProtectionSpeedup {
    /// The policy.
    pub protection: Protection,
    /// Mean measured speedup over [`SPEEDUP_SAMPLE`] (39-cycle divider).
    pub speedup: f64,
}

/// Measure how much of the memoization speedup survives each policy's
/// per-hit cycle charge (clean tables — the cost is the read-path logic,
/// not the faults).
///
/// On clean tables a policy changes *only* the per-hit cycle charge
/// ([`Protection::hit_penalty`]) — the hit pattern itself is identical,
/// since parity always passes, ECC never corrects, and verification
/// always matches. One unprotected native run per application therefore
/// yields every policy's cycle count exactly: the protected machine's
/// total is the unprotected total plus `table hits × penalty`.
///
/// # Errors
///
/// Fails if a [`SPEEDUP_SAMPLE`] name is missing from the registry.
pub fn protection_speedups(cfg: ExpConfig) -> Result<Vec<ProtectionSpeedup>, ExperimentError> {
    let apps =
        SPEEDUP_SAMPLE.iter().map(|name| find_mm(name)).collect::<Result<Vec<_>, _>>()?;
    let corpus = traces::corpus(cfg.image_scale);
    // (baseline cycles, unprotected memoized cycles, table hits) per app.
    let measured: Vec<(u64, u64, u64)> = parallel::par_map(apps, |app| {
        let mut acc = CycleAccountant::new(
            CpuModel::paper_slow(),
            MemoryHierarchy::typical_1997(),
            faulty_bank(Protection::None, 0.0, 0),
        );
        for c in corpus.iter() {
            app.run(&mut acc, &c.image);
        }
        let bank = acc.bank();
        let hits = MEMO_KINDS.iter().filter_map(|&k| bank.stats(k)).map(|s| s.table_hits).sum();
        let report = acc.report();
        (report.baseline().total(), report.memoized().total(), hits)
    });
    Ok(Protection::ALL
        .iter()
        .map(|&protection| {
            let penalty = u64::from(protection.hit_penalty());
            let total: f64 = measured
                .iter()
                .map(|&(baseline, memoized, hits)| {
                    baseline as f64 / (memoized + hits * penalty) as f64
                })
                .sum();
            ProtectionSpeedup { protection, speedup: total / SPEEDUP_SAMPLE.len() as f64 }
        })
        .collect())
}

// ---------------------------------------------------------------------------
// Circuit breaker
// ---------------------------------------------------------------------------

/// Outcome of the circuit-breaker demonstration.
#[derive(Debug, Clone, Copy)]
pub struct BreakerDemo {
    /// Detections required to trip a slot.
    pub threshold: u64,
    /// How many of the four table slots tripped.
    pub tripped_slots: usize,
    /// Total detections across the bank when the run ended.
    pub faults_detected: u64,
}

/// Drive parity-protected tables at an unrealistically hostile fault rate
/// behind a circuit breaker: every slot should exceed the detection
/// threshold and be taken offline, degrading to the conventional unit.
///
/// The recordings replay straight into the bank, in the order the native
/// loops ran them; [`MemoBank::execute_batch`] checks the breaker lane by
/// lane, so each slot trips on the operation a live run would trip it on.
/// A recording in which every kind present has already tripped is
/// skipped. That is exact: a tripped table is never consulted again, and
/// the demo reports only trips and detections.
#[must_use]
pub fn breaker_demo(cfg: ExpConfig) -> BreakerDemo {
    let threshold = 8;
    let mut bank =
        faulty_bank(Protection::ParityDetect, 0.5, 0xB2EA).with_circuit_breaker(threshold);
    for trace in Recordings::fetch(cfg).walk() {
        let live = |kind| trace.count(kind) > 0 && !bank.breaker_tripped(kind);
        if MEMO_KINDS.into_iter().any(live) {
            trace.replay(&mut bank);
        }
    }
    let tripped = MEMO_KINDS.iter().filter(|&&k| bank.breaker_tripped(k)).count();
    let detected = MEMO_KINDS
        .iter()
        .filter_map(|&k| bank.stats(k))
        .map(|s| s.faults_detected)
        .sum();
    BreakerDemo { threshold, tripped_slots: tripped, faults_detected: detected }
}

// ---------------------------------------------------------------------------
// Differential transparency
// ---------------------------------------------------------------------------

/// What the differential checker covered.
#[derive(Debug, Clone, Copy, Default)]
pub struct TransparencyReport {
    /// MM kernels whose output images were bit-compared.
    pub mm_apps: usize,
    /// Scientific kernels whose served values were op-compared.
    pub sci_apps: usize,
    /// Total operations served through tables during the check.
    pub ops_compared: u64,
}

/// The differential transparency checker. With injection disabled, every
/// MM kernel must produce a bit-identical output image when its arithmetic
/// is served by memo tables, and every scientific kernel's served values
/// must match native computation op-for-op — under every protection
/// policy's read path (the ECC corrector and parity checker must be
/// no-ops on clean entries).
///
/// The MM kernels run in parallel over the cached corpus; each is
/// independent, and the verdicts are read back in registry order.
///
/// # Errors
///
/// Returns [`ExperimentError::Transparency`] naming the first diverging
/// kernel.
pub fn check_transparency(cfg: ExpConfig) -> Result<TransparencyReport, ExperimentError> {
    let corpus = traces::corpus(cfg.image_scale);
    let mut report = TransparencyReport::default();

    let mm_ops = parallel::par_map(mm::apps(), |app| {
        let mut ops = 0;
        for (protection, c) in Protection::ALL.iter().cycle().zip(corpus.iter()) {
            let expected = app.run(&mut NullSink, &c.image);
            let mut memo = MemoizedSink::new(faulty_bank(*protection, 0.0, 0));
            let got = app.run(&mut memo, &c.image);
            if expected != got {
                return Err(ExperimentError::Transparency {
                    app: app.name.to_string(),
                    detail: format!(
                        "memoized output image differs from native under {} protection",
                        protection_label(*protection)
                    ),
                });
            }
            ops += MEMO_KINDS
                .iter()
                .filter_map(|&k| memo.bank().stats(k))
                .map(|s| s.ops_seen)
                .sum::<u64>();
        }
        Ok(ops)
    });
    for ops in mm_ops {
        report.ops_compared += ops?;
        report.mm_apps += 1;
    }

    for app in &sci::all_apps() {
        let mut diff = DiffSink::new(faulty_bank(Protection::EccSecDed, 0.0, 0));
        app.run(&mut diff, cfg.sci_n);
        if diff.mismatches() > 0 {
            return Err(ExperimentError::Transparency {
                app: app.name.to_string(),
                detail: format!(
                    "{} of {} served values diverged from native computation",
                    diff.mismatches(),
                    diff.served()
                ),
            });
        }
        report.ops_compared += diff.served();
        report.sci_apps += 1;
    }

    Ok(report)
}

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

/// Render the full fault-tolerance report.
///
/// # Errors
///
/// Fails if a sampled app is unregistered or transparency is violated.
pub fn render(cfg: ExpConfig) -> Result<String, ExperimentError> {
    let mut out = String::from(
        "Fault tolerance: single-bit soft errors in the MEMO-TABLE SRAM\n\
         (injection rates are per lookup, far above physical rates, to\n\
         separate the policies; all streams are deterministic)\n\n",
    );

    let mut t = TextTable::new(&[
        "protection",
        "fault rate",
        "hit",
        "SDC rate",
        "injected",
        "detected",
        "corrected",
        "silent",
    ]);
    for cell in sweep(cfg) {
        t.row(vec![
            protection_label(cell.protection),
            format!("{:.3}", cell.fault_rate),
            ratio(Some(cell.hit_ratio)),
            format!("{:.5}", cell.sdc_rate),
            cell.faults_injected.to_string(),
            cell.faults_detected.to_string(),
            cell.faults_corrected.to_string(),
            cell.faults_silent.to_string(),
        ]);
    }
    out.push_str(&format!("SDC sweep (MM corpus + scientific suites)\n{}\n", t.render()));

    let mut t = TextTable::new(&["protection", "speedup retained (39c divider)"]);
    for p in protection_speedups(cfg)? {
        t.row(vec![protection_label(p.protection), format!("{:.3}x", p.speedup)]);
    }
    out.push_str(&format!(
        "Cost of protection (clean tables, division-heavy sample)\n{}\n",
        t.render()
    ));

    let b = breaker_demo(cfg);
    out.push_str(&format!(
        "Circuit breaker: {}/{} slots taken offline after {} detections \
         (threshold {} per slot)\n\n",
        b.tripped_slots,
        MEMO_KINDS.len(),
        b.faults_detected,
        b.threshold,
    ));

    let tr = check_transparency(cfg)?;
    out.push_str(&format!(
        "Differential transparency: {} MM kernels bit-identical, {} scientific \
         kernels op-identical ({} table-served operations compared)\n",
        tr.mm_apps, tr.sci_apps, tr.ops_compared,
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Feed `sink` one [`Event::Arith`] per recorded operation, kind by
    /// kind. The [`DiffSink`] only observes arithmetic, and its bank's
    /// tables never interact, so this reproduces its counters exactly.
    fn replay_ops(trace: &OpTrace, sink: &mut DiffSink) {
        for kind in MEMO_KINDS {
            trace.for_each_kind(kind, |op| sink.record(Event::Arith(op)));
        }
    }

    /// Replay every kernel of both suites — recorded once, process-wide —
    /// into `sink`, in the order the native loops ran them (MM apps over
    /// the corpus, then the scientific suites).
    fn replay_suites(cfg: ExpConfig, sink: &mut DiffSink) {
        for app in &mm::apps() {
            for trace in traces::mm_traces(cfg, app).iter() {
                replay_ops(trace, sink);
            }
        }
        for app in &sci::all_apps() {
            replay_ops(&traces::sci_trace(cfg, app), sink);
        }
    }

    fn sink_cell(protection: Protection, rate: f64, sink: &DiffSink) -> FaultCell {
        let stats = MEMO_KINDS.iter().filter_map(|&k| sink.bank().stats(k));
        pooled_cell(protection, rate, stats, sink.served(), sink.mismatches())
    }

    fn run_sample(sink: &mut DiffSink) {
        let cfg = ExpConfig::quick();
        for name in SPEEDUP_SAMPLE {
            let app = mm::find(name).expect("sample registered");
            for trace in traces::mm_traces(cfg, &app).iter() {
                replay_ops(trace, sink);
            }
        }
    }

    #[test]
    fn unprotected_tables_suffer_silent_corruption() {
        let mut sink = DiffSink::new(faulty_bank(Protection::None, 0.1, 3));
        run_sample(&mut sink);
        assert!(sink.mismatches() > 0, "faults must reach the consumer");
        let cell = sink_cell(Protection::None, 0.1, &sink);
        assert!(cell.sdc_rate > 0.0);
        assert!(cell.faults_silent > 0);
        assert_eq!(cell.faults_detected, 0, "no detector fitted");
    }

    #[test]
    fn parity_and_ecc_stop_single_bit_sdc() {
        for protection in [Protection::ParityDetect, Protection::EccSecDed] {
            let mut sink = DiffSink::new(faulty_bank(protection, 0.1, 3));
            run_sample(&mut sink);
            assert_eq!(
                sink.mismatches(),
                0,
                "{} must stop single-bit SDC",
                protection_label(protection)
            );
            let cell = sink_cell(protection, 0.1, &sink);
            assert!(cell.faults_injected > 0, "the injector must have fired");
            assert!(
                cell.faults_detected + cell.faults_corrected > 0,
                "the policy must have acted"
            );
            assert_eq!(cell.faults_silent, 0);
        }
    }

    #[test]
    fn ecc_keeps_more_hits_than_parity() {
        // Parity downgrades every detected fault to a miss; ECC repairs it
        // and keeps the hit. Same injector seed, same stream.
        let mut parity = DiffSink::new(faulty_bank(Protection::ParityDetect, 0.1, 3));
        run_sample(&mut parity);
        let mut ecc = DiffSink::new(faulty_bank(Protection::EccSecDed, 0.1, 3));
        run_sample(&mut ecc);
        let p = sink_cell(Protection::ParityDetect, 0.1, &parity);
        let e = sink_cell(Protection::EccSecDed, 0.1, &ecc);
        assert!(e.faults_corrected > 0);
        assert!(
            e.hit_ratio >= p.hit_ratio,
            "ecc {} vs parity {}",
            e.hit_ratio,
            p.hit_ratio
        );
    }

    #[test]
    fn verification_cycles_tax_the_speedup() {
        let speedups = protection_speedups(ExpConfig::quick()).unwrap();
        let by = |p: Protection| {
            speedups
                .iter()
                .find(|s| s.protection == p)
                .map(|s| s.speedup)
                .expect("policy swept")
        };
        let none = by(Protection::None);
        let parity = by(Protection::ParityDetect);
        let ecc = by(Protection::EccSecDed);
        let verify = by(Protection::VerifyOnHit { verify_cycles: 4 });
        // Parity overlaps the compare: free. ECC charges 1 cycle per hit,
        // verify charges 4 — the ordering must be visible.
        assert!((parity - none).abs() < 1e-9, "parity {parity} vs none {none}");
        assert!(ecc < none, "ecc {ecc} must pay its read-path cycle vs {none}");
        assert!(verify < ecc, "verify {verify} must cost more than ecc {ecc}");
        assert!(verify > 1.0, "even verified memoing must still pay off: {verify}");
    }

    #[test]
    fn breaker_takes_hostile_slots_offline() {
        let b = breaker_demo(ExpConfig::quick());
        assert!(b.tripped_slots > 0, "at least one slot must trip");
        assert!(b.faults_detected >= b.threshold);
    }

    #[test]
    fn transparency_holds_with_faults_disabled() {
        let report = check_transparency(ExpConfig::quick()).unwrap();
        assert_eq!(report.mm_apps, mm::apps().len());
        assert_eq!(report.sci_apps, sci::all_apps().len());
        assert!(report.ops_compared > 0);
    }

    /// The one-walk sweep against the per-cell oracle it replaced: a
    /// [`DiffSink`] over the cell's own [`faulty_bank`], driven op by op
    /// through [`replay_suites`]. Every field must match, floats by bits.
    #[test]
    fn sweep_matches_a_diff_sink_per_cell() {
        let cfg = ExpConfig::quick();
        let cells = sweep(cfg);
        let grid: Vec<(Protection, f64)> = Protection::ALL
            .iter()
            .flat_map(|&p| FAULT_RATES.iter().map(move |&r| (p, r)))
            .collect();
        let oracle = parallel::par_map(grid, |(protection, rate)| {
            let mut sink = DiffSink::new(faulty_bank(protection, rate, 0xFA17));
            replay_suites(cfg, &mut sink);
            sink_cell(protection, rate, &sink)
        });
        assert_eq!(cells.len(), oracle.len());
        for (got, want) in cells.iter().zip(&oracle) {
            let label = format!("{} at rate {}", want.protection, want.fault_rate);
            assert_eq!(got.protection, want.protection, "{label}");
            assert_eq!(got.fault_rate.to_bits(), want.fault_rate.to_bits(), "{label}");
            assert_eq!(got.sdc_rate.to_bits(), want.sdc_rate.to_bits(), "{label}: SDC rate");
            assert_eq!(got.hit_ratio.to_bits(), want.hit_ratio.to_bits(), "{label}: hit ratio");
            assert_eq!(got.faults_injected, want.faults_injected, "{label}: injected");
            assert_eq!(got.faults_detected, want.faults_detected, "{label}: detected");
            assert_eq!(got.faults_corrected, want.faults_corrected, "{label}: corrected");
            assert_eq!(got.faults_silent, want.faults_silent, "{label}: silent");
        }
    }

    #[test]
    fn sweep_separates_the_policies() {
        let cells = sweep(ExpConfig::quick());
        assert_eq!(cells.len(), Protection::ALL.len() * FAULT_RATES.len());
        for cell in &cells {
            if cell.fault_rate == 0.0 {
                assert_eq!(cell.faults_injected, 0);
                assert_eq!(cell.sdc_rate, 0.0, "{}", protection_label(cell.protection));
            }
            match cell.protection {
                Protection::None => assert_eq!(cell.faults_detected, 0),
                _ => assert_eq!(
                    cell.faults_silent, 0,
                    "{} leaks under single-bit faults",
                    protection_label(cell.protection)
                ),
            }
        }
        // The headline: unprotected tables corrupt results; parity doesn't.
        let none_hot = cells
            .iter()
            .find(|c| c.protection == Protection::None && c.fault_rate == 0.1)
            .expect("swept");
        assert!(none_hot.sdc_rate > 0.0);
    }
}
