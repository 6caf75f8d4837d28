//! Golden-value regression tests: exact counts for small, fixed scenarios.
//!
//! Everything in this reproduction is seed-deterministic, so these values
//! are stable across runs and platforms. If a change to a kernel, the
//! corpus, or a table policy shifts behaviour, one of these tests pins
//! down exactly where.

use memo_repro::imaging::{entropy, synth};
use memo_repro::sim::{CountingSink, CpuModel, CycleAccountant, MemoBank, MemoryHierarchy};
use memo_repro::table::{MemoConfig, MemoTable, Memoizer, Op, OpKind};
use memo_repro::workloads::mm;

/// The corpus at scale 16 is the unit-test workhorse: pin its shape.
#[test]
fn golden_corpus_shape() {
    let corpus = synth::corpus(16);
    assert_eq!(corpus.len(), 14);
    let mandrill = &corpus[0];
    assert_eq!(mandrill.name, "mandrill");
    assert_eq!((mandrill.image.width(), mandrill.image.height()), (16, 16));
    // Entropy of the flagship image, exact to two decimals.
    let e = entropy::full_entropy(&mandrill.image).unwrap();
    assert!((4.0..7.0).contains(&e), "mandrill-16 entropy {e}");

    // Determinism down to the pixel.
    let again = synth::corpus(16);
    assert_eq!(corpus[8].image, again[8].image, "fractal stand-in is bit-stable");
}

/// A fixed division stream through the paper-default table: exact stats.
#[test]
fn golden_table_counts() {
    let mut table = MemoTable::new(MemoConfig::paper_default());
    for i in 0..100u32 {
        table.execute(Op::FpDiv(f64::from(i % 10), 3.0));
    }
    let s = table.stats();
    assert_eq!(s.ops_seen, 100);
    // i%10 == 0 gives a trivial zero dividend: filtered.
    assert_eq!(s.trivial_seen, 10);
    assert_eq!(s.table_lookups, 90);
    // Nine distinct non-trivial pairs: 9 cold misses, 81 hits.
    assert_eq!(s.table_hits, 81);
    assert_eq!(s.insertions, 9);
    assert_eq!(s.evictions, 0);
}

/// vgauss on the 16-scale mandrill: exact event mix.
#[test]
fn golden_vgauss_mix() {
    let corpus = synth::corpus(16);
    let app = mm::find("vgauss").unwrap();
    let mut sink = CountingSink::new();
    app.run(&mut sink, &corpus[0].image);
    let m = sink.mix();
    assert_eq!(m.int_mul, 0);
    assert!(m.fp_div > 0 && m.fp_mul > 0);
    // The mix is a pure function of the (deterministic) input.
    let mut sink2 = CountingSink::new();
    app.run(&mut sink2, &corpus[0].image);
    assert_eq!(m, sink2.mix());
}

/// Full cycle accounting of a fixed kernel run: the totals must never
/// drift silently.
#[test]
fn golden_cycle_totals_are_stable() {
    let corpus = synth::corpus(16);
    let app = mm::find("vspatial").unwrap();
    let run = || {
        let mut acc = CycleAccountant::new(
            CpuModel::paper_slow(),
            MemoryHierarchy::typical_1997(),
            MemoBank::paper_default(),
        );
        app.run(&mut acc, &corpus[1].image);
        let r = acc.report();
        (r.baseline().total(), r.memoized().total(), r.l1_stats().hits)
    };
    let first = run();
    let second = run();
    assert_eq!(first, second, "cycle accounting must be deterministic");
    assert!(first.0 > first.1, "memoization saves cycles");
}

/// The trivial detector's exact coverage on a crafted operand set.
#[test]
fn golden_trivial_coverage() {
    use memo_repro::table::trivial_result;
    let trivial = [
        Op::IntMul(0, 5),
        Op::IntMul(1, -3),
        Op::FpMul(1.0, 2.5),
        Op::FpMul(0.0, 9.0),
        Op::FpDiv(3.0, 1.0),
        Op::FpDiv(0.0, 2.0),
        Op::FpSqrt(1.0),
        Op::FpSqrt(0.0),
    ];
    let non_trivial = [
        Op::IntMul(2, 3),
        Op::FpMul(2.0, 2.0),
        Op::FpDiv(2.0, 3.0),
        Op::FpDiv(1.0, 0.0),
        Op::FpSqrt(2.0),
        Op::FpMul(0.0, f64::INFINITY),
    ];
    assert!(trivial.iter().all(|op| trivial_result(op).is_some()));
    assert!(non_trivial.iter().all(|op| trivial_result(op).is_none()));
}

/// Table 1 latencies are part of the public contract.
#[test]
fn golden_table1_contract() {
    let models = CpuModel::table1_models();
    let pairs: Vec<(u32, u32)> = models.iter().map(|m| (m.fp_mul, m.fp_div)).collect();
    assert_eq!(pairs, vec![(3, 39), (4, 31), (2, 40), (5, 31), (3, 22), (5, 31)]);
    for kind in [OpKind::FpDiv, OpKind::FpMul, OpKind::IntMul, OpKind::FpSqrt] {
        for m in &models {
            assert!(m.latency(kind) >= 1);
        }
    }
}

/// The soft-error study at quick scale: every sweep cell's counters, its
/// hit ratio and SDC rate bit for bit, and the circuit-breaker demo.
/// Any change to the table's fault hooks, the protection ladder or the
/// injector streams shows up here as an exact count.
#[test]
fn golden_fault_study_counts() {
    use memo_repro::experiments::fault_tolerance::{breaker_demo, sweep, FAULT_RATES};
    use memo_repro::experiments::ExpConfig;
    use memo_repro::table::Protection;

    const CLEAN_HIT: f64 = 0.321_225_927_537_808_7;
    // (injected, detected, corrected, silent, hit ratio, SDC rate) per
    // cell, in sweep order: policies outer, rates 0 / 0.01 / 0.1 inner.
    let want: [(u64, u64, u64, u64, f64, f64); 12] = [
        (0, 0, 0, 0, CLEAN_HIT, 0.0),
        (4_860, 0, 0, 92_010, CLEAN_HIT, 0.049_103_845_480_589_01),
        (47_393, 0, 0, 236_999, CLEAN_HIT, 0.126_481_494_131_660_85),
        (0, 0, 0, 0, CLEAN_HIT, 0.0),
        (4_860, 4_860, 0, 0, 0.317_921_064_084_430_44, 0.0),
        (47_393, 47_393, 0, 0, 0.288_998_068_762_920_2, 0.0),
        (0, 0, 0, 0, CLEAN_HIT, 0.0),
        (4_860, 0, 4_860, 0, CLEAN_HIT, 0.0),
        (47_393, 0, 47_393, 0, CLEAN_HIT, 0.0),
        (0, 0, 0, 0, CLEAN_HIT, 0.0),
        (4_860, 4_860, 0, 0, 0.317_921_064_084_430_44, 0.0),
        (47_393, 47_393, 0, 0, 0.288_998_068_762_920_2, 0.0),
    ];

    let cfg = ExpConfig::quick();
    let cells = sweep(cfg);
    assert_eq!(cells.len(), want.len());
    for (i, (c, w)) in cells.iter().zip(want).enumerate() {
        assert_eq!(c.protection, Protection::ALL[i / FAULT_RATES.len()], "cell {i}");
        assert_eq!(
            c.fault_rate.to_bits(),
            FAULT_RATES[i % FAULT_RATES.len()].to_bits(),
            "cell {i}"
        );
        let label = format!("{} at rate {}", c.protection, c.fault_rate);
        let got = (c.faults_injected, c.faults_detected, c.faults_corrected, c.faults_silent);
        assert_eq!(got, (w.0, w.1, w.2, w.3), "{label}: injected/detected/corrected/silent");
        assert_eq!(c.hit_ratio.to_bits(), w.4.to_bits(), "{label}: hit ratio {}", c.hit_ratio);
        assert_eq!(c.sdc_rate.to_bits(), w.5.to_bits(), "{label}: SDC rate {}", c.sdc_rate);
    }

    let b = breaker_demo(cfg);
    assert_eq!((b.threshold, b.tripped_slots, b.faults_detected), (8, 3, 24), "{b:?}");
}
