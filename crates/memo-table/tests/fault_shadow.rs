//! The fault sweep's derivation, checked table by table: a `FaultShadow`
//! that follows a clean table's lane records yields exactly the counters
//! and served bits of simulated unprotected, parity, verify-on-hit and
//! SEC-DED tables at the same seed and rate.
//!
//! Each seeded stream (`common::stream` plus the hazards below) runs in
//! seeded batch widths through `execute_batch_with_truth`, as the sweep
//! drives it, and every table is compared after every batch:
//!
//! * the unprotected table keeps the clean trajectory, takes the shadow's
//!   strikes, counts the shadow's silent reads and serves its unprotected
//!   payloads;
//! * the parity and verify tables have the clean lookups and evictions,
//!   hits = clean hits − strikes, insertions = clean insertions + strikes,
//!   detect every strike and serve the shadow's detecting payloads;
//! * the SEC-DED table is the clean table, correcting every strike.
//!
//! The hazards are what an exact derivation has to get right: products
//! of two NaNs with distinct payloads, whose bits depend on the operand
//! order, replayed in both orders; and results of ±0, whose sign bit a
//! verify-on-hit compare must see. Negative controls show that FIFO
//! replacement, FoldMix hashing with commutative probing and double flips
//! each move a simulated table off the derivation on some seed, and that
//! the shadow refuses each of them.

mod common;

use common::stream;
use memo_table::rng::SplitMix64;
use memo_table::{
    FaultConfig, FaultInjector, FaultShadow, HashScheme, LaneSlot, MemoConfig, MemoConfigBuilder,
    MemoStats, MemoTable, Memoizer, OpBatch, OpKind, Protection, Replacement, ShadowCounts,
    ShadowError, TagPolicy, MAX_BATCH_WIDTH,
};

const SEEDS: u64 = 32;
const RATES: [f64; 3] = [0.01, 0.1, 0.5];
const STREAM_LEN: usize = 4000;

/// Operand pairs the derivation has to get exactly right, per kind.
fn hazards(kind: OpKind) -> Vec<(u64, u64)> {
    let nans = [0x7FF8_0000_0000_0001, 0xFFF8_0000_0000_0002, 0x7FF4_0000_0000_0003];
    let fp = |x: f64| x.to_bits();
    match kind {
        OpKind::IntMul => vec![(1 << 32, 1 << 32), (-(1i64 << 40) as u64, 1 << 30)],
        OpKind::FpMul => vec![
            (nans[0], nans[1]),
            (nans[1], nans[2]),
            (nans[2], nans[0]),
            (nans[0], fp(2.5)),
            (fp(1e-200), fp(1e-200)),
            (fp(-1e-200), fp(3e-200)),
        ],
        OpKind::FpDiv => vec![
            (nans[0], nans[1]),
            (nans[1], nans[2]),
            (fp(1e-200), fp(1e200)),
            (fp(-1e-200), fp(1e200)),
        ],
        OpKind::FpSqrt => nans.iter().map(|&n| (n, n)).chain([(fp(-2.0), fp(-2.0))]).collect(),
    }
}

/// `common::stream` with about one lane in six replaced by a hazard, in a
/// random operand order.
fn hazard_stream(kind: OpKind, seed: u64) -> (Vec<u64>, Vec<u64>) {
    let (mut a, mut b) = stream(kind, seed, STREAM_LEN);
    let pool = hazards(kind);
    let mut rng = SplitMix64::new(seed).split("hazards");
    for i in 0..a.len() {
        if rng.next_below(6) == 0 {
            let (x, y) = pool[rng.next_below(pool.len() as u64) as usize];
            let (x, y) = if rng.next_below(2) == 0 { (x, y) } else { (y, x) };
            a[i] = x;
            if !b.is_empty() {
                b[i] = y;
            }
        }
    }
    (a, b)
}

/// What one run saw, for the non-vacuity checks.
#[derive(Debug, Default)]
struct Seen {
    strikes: u64,
    silent: u64,
    /// Lanes on which parity served other bits than the clean table.
    parity_differs: u64,
}

/// Run one kind's hazard stream through a clean table built by `tables`,
/// and through unprotected, parity, SEC-DED and verify copies struck by
/// `fault`. After every batch each struck table's statistics must be what
/// `ShadowCounts::stats` derives from the clean table's (all but
/// `commutative_hits`). With a shadow, when it accepts the configuration,
/// its counts drive that derivation, and every lane's served bits and
/// each table's corrupted-lane count must equal the shadow's too; without
/// one, the unprotected table's strikes and silent reads do. Returns what
/// the run saw, or the first disagreement.
fn derive(
    kind: OpKind,
    seed: u64,
    tables: &MemoConfigBuilder,
    fault: FaultConfig,
) -> Result<Seen, String> {
    let (a, b) = hazard_stream(kind, seed);
    let build = |protection| tables.clone().protection(protection).build().expect("valid");
    let cfg = build(Protection::None);
    let mut clean = MemoTable::new(cfg);
    // Per policy: the struck table and the lanes it served corrupted.
    let mut struck = Protection::ALL.map(|protection| {
        let table = MemoTable::new(build(protection));
        (protection, table.with_fault_injector(FaultInjector::new(fault)), 0u64)
    });
    let mut shadow = FaultShadow::new(&cfg, fault).ok();
    let mut widths = SplitMix64::new(seed).split("widths");
    let mut seen = Seen::default();
    let differs = |x: &[u64], y: &[u64]| x.iter().zip(y).filter(|(p, q)| p != q).count() as u64;
    let mut start = 0;
    while start < a.len() {
        let w = (1 + widths.next_below(2 * MAX_BATCH_WIDTH as u64) as usize).min(a.len() - start);
        let b = if b.is_empty() { &b[..] } else { &b[start..start + w] };
        let batch = OpBatch::new(kind, &a[start..start + w], b);
        let truth: Vec<u64> = (0..w).map(|i| batch.op(i).compute().to_bits()).collect();
        let mut clean_served = vec![0; w];
        let mut slots = vec![LaneSlot::NoLookup; w];
        clean.execute_batch_with_truth(&batch, &truth, &mut clean_served, &mut slots);
        let served = struck.each_mut().map(|(_, table, corrupted)| {
            let mut bits = vec![0; w];
            table.execute_batch_with_truth(&batch, &truth, &mut bits, &mut []);
            *corrupted += differs(&bits, &truth);
            bits
        });
        start += w;
        let at = format!("after {start} ops");
        let none = struck[0].1.stats();
        seen.strikes = none.faults_injected;
        seen.silent = none.faults_silent;
        seen.parity_differs += differs(&served[1], &clean_served);

        let counts = match shadow.as_mut() {
            Some(shadow) => {
                let (mut unprotected, mut detecting) = (vec![0; w], vec![0; w]);
                shadow.follow(&slots, &truth, &clean_served, &mut unprotected, &mut detecting);
                for ((protection, ..), got) in struck.iter().zip(&served) {
                    let want = match protection {
                        Protection::None => &unprotected,
                        Protection::EccSecDed => &clean_served,
                        _ => &detecting,
                    };
                    if let Some(lane) = (0..w).find(|&i| got[i] != want[i]) {
                        return Err(format!(
                            "{at}: lane {lane}: {protection} served {:#x}, the shadow {:#x}",
                            got[lane], want[lane]
                        ));
                    }
                }
                shadow.counts()
            }
            None => ShadowCounts {
                strikes: none.faults_injected,
                silent: none.faults_silent,
                ..ShadowCounts::default()
            },
        };
        for (protection, table, corrupted) in &struck {
            let want = counts.stats(*protection, clean.stats());
            let got = MemoStats { commutative_hits: want.commutative_hits, ..table.stats() };
            if got != want {
                return Err(format!("{at}: {protection} {got:?}, derived {want:?}"));
            }
            if shadow.is_some() && *corrupted != counts.corrupted(*protection) {
                return Err(format!(
                    "{at}: {protection} served {corrupted} lanes corrupted, the shadow {}",
                    counts.corrupted(*protection)
                ));
            }
        }
    }
    Ok(seen)
}

#[test]
fn shadow_equals_simulated_tables_after_every_batch() {
    let mut seen = Seen::default();
    for seed in 0..SEEDS {
        for kind in OpKind::ALL {
            for rate in RATES {
                let fault = FaultConfig::single_bit(seed ^ 0xFA17, rate);
                let tables = MemoConfig::builder(32);
                let cfg = tables.clone().build().expect("32/4 is valid");
                assert!(FaultShadow::new(&cfg, fault).is_ok(), "seed {seed}: shadow refused");
                match derive(kind, seed, &tables, fault) {
                    Ok(run) => {
                        seen.strikes += run.strikes;
                        seen.silent += run.silent;
                        seen.parity_differs += run.parity_differs;
                    }
                    Err(why) => panic!("seed {seed}, {kind:?} at rate {rate}: {why}"),
                }
            }
        }
    }
    assert!(seen.strikes > 1000, "the injectors must have struck: {seen:?}");
    assert!(seen.parity_differs > 0, "parity never served other bits than the clean table");
    // Each strike is read silently once where it lands; more silent reads
    // than strikes means some strike persisted across later hits.
    assert!(seen.silent > seen.strikes, "no unprotected strike persisted: {seen:?}");
}

/// Each configuration outside the derivation moves a simulated table off
/// it on some seed, and the shadow refuses it.
#[test]
fn shadow_refuses_what_leaves_the_clean_trajectory() {
    let paper = MemoConfig::builder(32);
    let fifo = MemoConfig::builder(32).replacement(Replacement::Fifo);
    let foldmix = MemoConfig::builder(32).hash(HashScheme::FoldMix);
    // (name, tables, fraction of strikes that flip two bits, refusal)
    let controls = [
        ("FIFO", fifo, 0.0, ShadowError::Fifo),
        ("FoldMix", foldmix, 0.0, ShadowError::SplitOrders),
        ("double flips", paper.clone(), 0.5, ShadowError::DoubleFlips),
    ];
    for (name, tables, double, refusal) in controls {
        let fault =
            |seed: u64| FaultConfig::single_bit(seed ^ 0xFA17, 0.1).with_double_fraction(double);
        let cfg = tables.clone().build().expect("valid");
        assert_eq!(FaultShadow::new(&cfg, fault(0)).err(), Some(refusal), "{name}");
        let broken = (0..SEEDS).find_map(|seed| {
            OpKind::ALL.into_iter().find_map(|kind| {
                let why = derive(kind, seed, &tables, fault(seed)).err()?;
                Some(format!("seed {seed}, {kind:?}: {why}"))
            })
        });
        assert!(broken.is_some(), "{name} left every seed on the derived trajectory");
        eprintln!("{name} diverged as expected: {}", broken.unwrap_or_default());
    }
    // The rest of the refusals, each naming its premise.
    let cfg = paper.build().expect("valid");
    let mantissa = MemoConfig::builder(32).tag(TagPolicy::MantissaOnly).build().expect("valid");
    let refused = [
        (mantissa, FaultConfig::single_bit(1, 0.1), ShadowError::MantissaTags),
        (cfg, FaultConfig::single_bit(1, 0.1).with_tag_rate(0.1), ShadowError::TagStrikes),
        (cfg, FaultConfig::single_bit(1, 0.1).with_stuck_rate(0.1), ShadowError::StuckAt),
    ];
    for (cfg, fault, refusal) in refused {
        let err = FaultShadow::new(&cfg, fault).err();
        assert_eq!(err, Some(refusal));
        assert!(!refusal.to_string().is_empty());
    }
}
