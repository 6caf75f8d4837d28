//! Fused-sweep equivalence: the single-pass stack engine must be
//! bit-identical to per-configuration replay for every (size,
//! associativity, tag-policy, trivial-policy) cell of the paper grid —
//! over real recorded kernels and SplitMix64-driven synthetic streams
//! (no external dev-deps; the repo builds offline).

use memo_imaging::Image;
use memo_sim::OpTrace;
use memo_table::rng::SplitMix64;
use memo_table::{Assoc, MemoConfig, Op, OpKind, TagPolicy, TrivialPolicy};
use memo_workloads::suite::{
    fusion_counters, mm_inputs, record_mm_trace, record_sci_trace, replay_stats,
    replay_stats_fused, KindStats, SweepSpec,
};
use memo_workloads::{mm, sci};

const KINDS: [OpKind; 3] = [OpKind::IntMul, OpKind::FpMul, OpKind::FpDiv];

/// The paper's geometry grid: Figure 3's sizes at 4 ways plus Figure 4's
/// associativities at 32 entries (direct-mapped through fully
/// associative).
fn paper_grid(tag: TagPolicy, trivial: TrivialPolicy) -> Vec<MemoConfig> {
    let mut configs = Vec::new();
    for size in [8usize, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192] {
        configs.push(
            MemoConfig::builder(size)
                .assoc(Assoc::Ways(4))
                .tag(tag)
                .trivial(trivial)
                .build()
                .unwrap(),
        );
    }
    for assoc in [Assoc::DirectMapped, Assoc::Ways(2), Assoc::Ways(8), Assoc::Full] {
        configs.push(
            MemoConfig::builder(32).assoc(assoc).tag(tag).trivial(trivial).build().unwrap(),
        );
    }
    configs
}

/// Fused vs direct over one trace set and one (tag, trivial) plane of the
/// paper grid; asserts bit-identical per-kind statistics for every cell.
fn assert_plane_matches(name: &str, traces: &[&OpTrace], tag: TagPolicy, trivial: TrivialPolicy) {
    let with_infinite = tag == TagPolicy::FullValue && trivial != TrivialPolicy::Memoize;
    let mut specs: Vec<SweepSpec> = paper_grid(tag, trivial)
        .into_iter()
        .map(|cfg| SweepSpec::finite(cfg, &KINDS))
        .collect();
    if with_infinite {
        specs.push(SweepSpec::infinite(&KINDS));
    }
    let fused = replay_stats_fused(traces.iter().copied(), &specs);
    for (spec, cell) in specs.iter().zip(&fused) {
        let direct = KindStats::from_bank(&replay_stats(traces.iter().copied(), *spec));
        assert_eq!(*cell, direct, "{name}: {tag:?}/{trivial:?} diverged at {spec:?}");
    }
}

/// ≥8 real kernels (five MM applications, four scientific kernels), full
/// paper grid, all four (tag, trivial) planes the hit-ratio experiments
/// use.
#[test]
fn fused_sweep_is_bit_identical_for_real_kernels() {
    let images: Vec<Image> = mm_inputs(16).into_iter().map(|c| c.image).take(2).collect();
    let image_refs: Vec<&Image> = images.iter().collect();
    let mut kernels: Vec<(String, OpTrace)> = Vec::new();
    for name in ["vcost", "vdiff", "venhance", "vgauss", "vspatial"] {
        let app = mm::find(name).unwrap();
        kernels.push((name.to_string(), record_mm_trace(&app, &image_refs)));
    }
    for app in sci::all_apps().into_iter().take(4) {
        let trace = record_sci_trace(&app, 20);
        kernels.push((app.name.to_string(), trace));
    }
    assert!(kernels.len() >= 8, "enough kernels for the property");

    let before = fusion_counters();
    for (name, trace) in &kernels {
        for (tag, trivial) in [
            (TagPolicy::FullValue, TrivialPolicy::Exclude),
            (TagPolicy::FullValue, TrivialPolicy::Integrate),
            (TagPolicy::FullValue, TrivialPolicy::Memoize),
            (TagPolicy::MantissaOnly, TrivialPolicy::Exclude),
        ] {
            assert_plane_matches(name, &[trace], tag, trivial);
        }
    }
    let after = fusion_counters();
    assert!(
        after.grids_fused > before.grids_fused,
        "the full-value planes must actually take the fused path"
    );
}

/// Deterministic synthetic operand streams: heavy reuse, conflict
/// pressure, trivial operands, denormal-adjacent magnitudes, and both
/// operand orders — the stress inputs the image kernels don't produce.
fn synthetic_trace(seed: u64, n: usize) -> OpTrace {
    let mut rng = SplitMix64::new(seed).split("sweep-fusion");
    let mut trace = OpTrace::new();
    for _ in 0..n {
        let a = rng.next_below(40) as i64 - 4;
        let b = rng.next_below(40) as i64 - 4;
        let scale = match rng.next_below(8) {
            0 => 2f64.powi(-500),
            1 => 2f64.powi(400),
            _ => 0.5,
        };
        match rng.next_below(4) {
            0 => trace.push(Op::IntMul(a, b)),
            1 => trace.push(Op::FpMul(a as f64 * scale, b as f64 * 0.25)),
            2 => trace.push(Op::FpDiv(a as f64, b as f64 * scale)),
            _ => trace.push(Op::FpSqrt((a.unsigned_abs() as f64) * scale)),
        }
    }
    trace
}

/// Eight synthetic kernels across the same planes, plus the edge
/// geometries (assoc == entries, single-entry, infinite column).
#[test]
fn fused_sweep_is_bit_identical_for_synthetic_streams() {
    for kernel in 0..8u64 {
        let trace = synthetic_trace(0x5EED + kernel, 6000);
        for (tag, trivial) in [
            (TagPolicy::FullValue, TrivialPolicy::Exclude),
            (TagPolicy::FullValue, TrivialPolicy::Memoize),
            (TagPolicy::MantissaOnly, TrivialPolicy::Exclude),
        ] {
            assert_plane_matches("synthetic", &[&trace], tag, trivial);
        }
    }
}

/// Edge geometries as their own spec family: a 1-entry table and a fully
/// associative 4-entry table (one set) fused in a single grid, with the
/// infinite column counted beside them.
#[test]
fn fused_sweep_handles_edge_geometries() {
    let trace = synthetic_trace(0xED6E, 5000);
    let specs = [
        SweepSpec::finite(
            MemoConfig::builder(1).assoc(Assoc::DirectMapped).build().unwrap(),
            &KINDS,
        ),
        SweepSpec::finite(MemoConfig::builder(4).assoc(Assoc::Full).build().unwrap(), &KINDS),
        SweepSpec::infinite(&KINDS),
    ];
    let fused = replay_stats_fused([&trace], &specs);
    for (spec, cell) in specs.iter().zip(&fused) {
        let direct = KindStats::from_bank(&replay_stats([&trace], *spec));
        assert_eq!(*cell, direct, "edge geometry diverged at {spec:?}");
    }
}

/// Multi-trace replay (several inputs of one application) must fuse to
/// the same statistics as feeding the same traces directly, in order.
#[test]
fn fused_sweep_preserves_multi_trace_order() {
    let traces: Vec<OpTrace> = (0..3).map(|i| synthetic_trace(0xABC + i, 2000)).collect();
    let refs: Vec<&OpTrace> = traces.iter().collect();
    let specs: Vec<SweepSpec> = paper_grid(TagPolicy::FullValue, TrivialPolicy::Exclude)
        .into_iter()
        .map(|cfg| SweepSpec::finite(cfg, &KINDS))
        .collect();
    let fused = replay_stats_fused(refs.iter().copied(), &specs);
    for (spec, cell) in specs.iter().zip(&fused) {
        let direct = KindStats::from_bank(&replay_stats(refs.iter().copied(), *spec));
        assert_eq!(*cell, direct, "multi-trace diverged at {spec:?}");
    }
}
