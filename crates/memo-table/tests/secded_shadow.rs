//! The premise behind the fault sweep's derived SEC-DED cells: under
//! one-bit value strikes (`FaultConfig::single_bit` on full-value tags), a
//! SEC-DED table and an unprotected table follow the clean table's
//! trajectory exactly, and the SEC-DED table corrects every strike the
//! unprotected table at the same seed and rate takes.
//!
//! * Every strike on a SEC-DED entry is corrected and rewritten on the
//!   read it lands on, so the next read sees at most one flipped bit
//!   again: the table never invalidates, serves the clean payload, and
//!   keeps the clean table's valid bits, tags and LRU stamps.
//! * An unprotected full-value table serves whatever it reads and never
//!   touches a tag, so its hits, insertions and evictions are the clean
//!   table's too. Both draw one value strike per tag match from the same
//!   seed, so they take the same strikes.
//!
//! Three tables run each seeded stream (`common::stream`) in seeded batch
//! widths through `execute_batch_with_truth`, as the sweep drives them,
//! and every premise is checked after every batch. A negative control
//! with double flips shows the check notices a change to the fault model.

mod common;

use common::stream;
use memo_table::rng::SplitMix64;
use memo_table::{
    FaultConfig, FaultInjector, MemoConfig, MemoStats, MemoTable, Memoizer, OpBatch, OpKind,
    Protection, MAX_BATCH_WIDTH,
};

const SEEDS: u64 = 16;
const RATES: [f64; 3] = [0.01, 0.1, 0.5];
const STREAM_LEN: usize = 3000;

fn table(protection: Protection, faults: FaultConfig) -> MemoTable {
    let cfg = MemoConfig::builder(32).protection(protection).build().expect("32/4 is valid");
    MemoTable::new(cfg).with_fault_injector(FaultInjector::new(faults))
}

/// The counters that fix a table's trajectory.
fn trajectory(s: &MemoStats) -> [u64; 4] {
    [s.table_hits, s.table_lookups, s.insertions, s.evictions]
}

/// Run one kind's seeded stream through a clean, an unprotected and a
/// SEC-DED table, the last two struck by `faults`. Returns the strikes
/// the SEC-DED table took, or the first premise that broke.
fn shadow(kind: OpKind, seed: u64, faults: FaultConfig) -> Result<u64, String> {
    let (a, b) = stream(kind, seed, STREAM_LEN);
    let mut widths = SplitMix64::new(seed).split("widths");
    let mut clean = table(Protection::None, FaultConfig::disabled());
    let mut none = table(Protection::None, faults);
    let mut ecc = table(Protection::EccSecDed, faults);
    let mut start = 0;
    while start < a.len() {
        let w = (1 + widths.next_below(2 * MAX_BATCH_WIDTH as u64) as usize).min(a.len() - start);
        let b = if b.is_empty() { &b[..] } else { &b[start..start + w] };
        let batch = OpBatch::new(kind, &a[start..start + w], b);
        let truth: Vec<u64> = (0..w).map(|i| batch.op(i).compute().to_bits()).collect();
        let (mut clean_served, mut none_served, mut ecc_served) =
            (vec![0; w], vec![0; w], vec![0; w]);
        clean.execute_batch_with_truth(&batch, &truth, &mut clean_served, &mut []);
        none.execute_batch_with_truth(&batch, &truth, &mut none_served, &mut []);
        ecc.execute_batch_with_truth(&batch, &truth, &mut ecc_served, &mut []);
        start += w;

        let (c, n, e) = (clean.stats(), none.stats(), ecc.stats());
        let at = format!("after {start} ops");
        if trajectory(&e) != trajectory(&c) {
            return Err(format!(
                "{at}: sec-ded [hits, lookups, insertions, evictions] {:?} vs clean {:?}",
                trajectory(&e),
                trajectory(&c)
            ));
        }
        if ecc_served != clean_served {
            return Err(format!("{at}: sec-ded served other bits than the clean table"));
        }
        if e.faults_corrected != e.faults_injected || e.faults_detected + e.faults_silent != 0 {
            return Err(format!(
                "{at}: sec-ded injected {}, corrected {}, detected {}, silent {}",
                e.faults_injected, e.faults_corrected, e.faults_detected, e.faults_silent
            ));
        }
        if e.faults_injected != n.faults_injected {
            return Err(format!(
                "{at}: sec-ded took {} strikes, the unprotected table {}",
                e.faults_injected, n.faults_injected
            ));
        }
        if trajectory(&n) != trajectory(&c) {
            return Err(format!(
                "{at}: unprotected [hits, lookups, insertions, evictions] {:?} vs clean {:?}",
                trajectory(&n),
                trajectory(&c)
            ));
        }
    }
    Ok(ecc.stats().faults_injected)
}

#[test]
fn secded_and_unprotected_tables_follow_the_clean_trajectory() {
    let mut strikes = 0;
    for seed in 0..SEEDS {
        for kind in OpKind::ALL {
            for rate in RATES {
                let faults = FaultConfig::single_bit(seed ^ 0xFA17, rate);
                match shadow(kind, seed, faults) {
                    Ok(n) => strikes += n,
                    Err(why) => panic!("seed {seed}, {kind:?} at rate {rate}: {why}"),
                }
            }
        }
    }
    assert!(strikes > 1000, "the injectors must have struck: {strikes} strikes");
}

/// Negative control: once half of the strikes flip two bits, SEC-DED
/// detects and invalidates instead of correcting, and its trajectory
/// leaves the clean one on some seed.
#[test]
fn double_flips_break_the_shadow() {
    let broken = (0..SEEDS).find_map(|seed| {
        OpKind::ALL.into_iter().find_map(|kind| {
            let faults = FaultConfig::single_bit(seed ^ 0xFA17, 0.1).with_double_fraction(0.5);
            shadow(kind, seed, faults).err().map(|why| format!("seed {seed}, {kind:?}: {why}"))
        })
    });
    assert!(broken.is_some(), "double flips left every seed on the clean trajectory");
    eprintln!("diverged as expected: {}", broken.unwrap_or_default());
}
