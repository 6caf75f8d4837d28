//! Golden statistics for `MemoTable` under every fault source at once:
//! value strikes (half of them double flips), tag strikes and stuck-at
//! cells. No experiment drives tag strikes or stuck-at defects, so this
//! is the pin that keeps their bookkeeping — the tag scrub, the victim
//! pick of a tag strike, the stuck-at read — from drifting.
//!
//! Each case replays the hostile streams of `common::stream` (all four
//! kinds, into one shared table) alternating between `execute` and the
//! `probe`/`update` pair, and compares the exact `MemoStats` plus a digest
//! of every served value against figures recorded from the reference
//! implementation.

mod common;

use common::stream;
use memo_table::{
    Assoc, FaultConfig, FaultInjector, MemoConfig, MemoStats, MemoTable, Memoizer, OpBatch, OpKind,
    Probe, Protection, Replacement,
};

/// Value rate 0.1 with half of the strikes flipping two bits, tag rate
/// 0.2 per probed set, and 30% of the slots stuck at one value bit.
fn faults() -> FaultConfig {
    FaultConfig::single_bit(0x5EED_FA17, 0.1)
        .with_double_fraction(0.5)
        .with_tag_rate(0.2)
        .with_stuck_rate(0.3)
}

/// Replay every kind's stream through one faulty table; the served-value
/// digest is FNV-1a over the result bits in order.
fn run(cfg: MemoConfig) -> (MemoStats, u64) {
    let mut table = MemoTable::new(cfg).with_fault_injector(FaultInjector::new(faults()));
    let mut digest = 0xCBF2_9CE4_8422_2325u64;
    for kind in OpKind::ALL {
        let (a, b) = stream(kind, 0xFA17_0015, 600);
        let batch = OpBatch::new(kind, &a, &b);
        for i in 0..batch.len() {
            let op = batch.op(i);
            let served = if i % 2 == 0 {
                table.execute(op).value
            } else {
                match table.probe(op) {
                    Probe::Hit(v) | Probe::Trivial(v) => v,
                    Probe::Filtered => op.compute(),
                    Probe::Miss => {
                        let v = op.compute();
                        table.update(op, v);
                        v
                    }
                }
            };
            digest = (digest ^ served.to_bits()).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    (table.stats(), digest)
}

/// `MemoStats` as an array, in declaration order: ops seen, trivial
/// seen, lookups, hits, commutative hits, bypasses, insertions,
/// evictions, then faults injected / detected / corrected / silent.
fn counts(s: &MemoStats) -> [u64; 12] {
    [
        s.ops_seen,
        s.trivial_seen,
        s.table_lookups,
        s.table_hits,
        s.commutative_hits,
        s.bypasses,
        s.insertions,
        s.evictions,
        s.faults_injected,
        s.faults_detected,
        s.faults_corrected,
        s.faults_silent,
    ]
}

const VERIFY: Protection = Protection::VerifyOnHit { verify_cycles: 4 };

/// Every protection × replacement × geometry of a 32-entry table:
/// direct-mapped (32 sets), 4-way (8 sets), fully associative (1 set).
#[rustfmt::skip]
const GOLDEN: [(Protection, Replacement, Assoc, [u64; 12], u64); 36] = [
    (Protection::None, Replacement::Lru, Assoc::DirectMapped, [2400, 640, 1760, 297, 81, 0, 1463, 1437, 537, 0, 0, 94], 0x42C9_9148_2600_CED5),
    (Protection::None, Replacement::Lru, Assoc::Ways(4), [2400, 640, 1760, 517, 124, 0, 1243, 1211, 553, 0, 0, 136], 0xCB89_7EE5_7C64_309A),
    (Protection::None, Replacement::Lru, Assoc::Full, [2400, 640, 1760, 593, 145, 0, 1167, 1135, 573, 0, 0, 190], 0xD692_CBC9_4355_6576),
    (Protection::None, Replacement::Fifo, Assoc::DirectMapped, [2400, 640, 1760, 297, 81, 0, 1463, 1437, 537, 0, 0, 94], 0x42C9_9148_2600_CED5),
    (Protection::None, Replacement::Fifo, Assoc::Ways(4), [2400, 640, 1760, 482, 127, 0, 1278, 1246, 551, 0, 0, 117], 0x22AF_36EB_8D54_B878),
    (Protection::None, Replacement::Fifo, Assoc::Full, [2400, 640, 1760, 553, 138, 0, 1207, 1175, 592, 0, 0, 150], 0xDECD_D998_4850_6EF3),
    (Protection::None, Replacement::Random, Assoc::DirectMapped, [2400, 640, 1760, 297, 81, 0, 1463, 1437, 537, 0, 0, 94], 0x42C9_9148_2600_CED5),
    (Protection::None, Replacement::Random, Assoc::Ways(4), [2400, 640, 1760, 446, 108, 0, 1314, 1282, 549, 0, 0, 128], 0xFD38_1647_6A7A_2638),
    (Protection::None, Replacement::Random, Assoc::Full, [2400, 640, 1760, 498, 136, 0, 1262, 1230, 559, 0, 0, 133], 0x809C_265E_BC23_24B6),
    (Protection::ParityDetect, Replacement::Lru, Assoc::DirectMapped, [2400, 640, 1760, 242, 71, 0, 1518, 1295, 495, 197, 0, 25], 0x6AA0_33AF_33DB_3280),
    (Protection::ParityDetect, Replacement::Lru, Assoc::Ways(4), [2400, 640, 1760, 441, 114, 0, 1319, 801, 557, 486, 0, 38], 0x370B_3BA8_9ECB_D249),
    (Protection::ParityDetect, Replacement::Lru, Assoc::Full, [2400, 640, 1760, 502, 112, 0, 1258, 695, 577, 532, 0, 97], 0xBFFA_3A68_68DF_2B12),
    (Protection::ParityDetect, Replacement::Fifo, Assoc::DirectMapped, [2400, 640, 1760, 242, 71, 0, 1518, 1295, 495, 197, 0, 25], 0x6AA0_33AF_33DB_3280),
    (Protection::ParityDetect, Replacement::Fifo, Assoc::Ways(4), [2400, 640, 1760, 435, 120, 0, 1325, 812, 557, 483, 0, 44], 0x1C07_252D_3BA3_0BA0),
    (Protection::ParityDetect, Replacement::Fifo, Assoc::Full, [2400, 640, 1760, 505, 111, 0, 1255, 688, 577, 535, 0, 66], 0x7C3E_330D_92E4_36F4),
    (Protection::ParityDetect, Replacement::Random, Assoc::DirectMapped, [2400, 640, 1760, 242, 71, 0, 1518, 1295, 495, 197, 0, 25], 0x6AA0_33AF_33DB_3280),
    (Protection::ParityDetect, Replacement::Random, Assoc::Ways(4), [2400, 640, 1760, 445, 115, 0, 1315, 815, 537, 469, 0, 46], 0x880F_C779_026A_2E27),
    (Protection::ParityDetect, Replacement::Random, Assoc::Full, [2400, 640, 1760, 488, 112, 0, 1272, 710, 572, 531, 0, 78], 0xC6AB_7AE5_0321_C90A),
    (Protection::EccSecDed, Replacement::Lru, Assoc::DirectMapped, [2400, 640, 1760, 297, 91, 0, 1463, 1421, 551, 16, 191, 4], 0xFED4_34BF_DF66_F347),
    (Protection::EccSecDed, Replacement::Lru, Assoc::Ways(4), [2400, 640, 1760, 548, 152, 0, 1212, 1152, 576, 28, 472, 9], 0xBB63_C25A_0E51_0347),
    (Protection::EccSecDed, Replacement::Lru, Assoc::Full, [2400, 640, 1760, 671, 177, 0, 1089, 1025, 600, 32, 551, 12], 0xD869_5EA2_9906_F347),
    (Protection::EccSecDed, Replacement::Fifo, Assoc::DirectMapped, [2400, 640, 1760, 297, 91, 0, 1463, 1421, 551, 16, 191, 4], 0xFED4_34BF_DF66_F347),
    (Protection::EccSecDed, Replacement::Fifo, Assoc::Ways(4), [2400, 640, 1760, 527, 146, 0, 1233, 1178, 559, 23, 460, 7], 0xEC41_E6D3_1617_8447),
    (Protection::EccSecDed, Replacement::Fifo, Assoc::Full, [2400, 640, 1760, 636, 171, 0, 1124, 1063, 600, 29, 540, 14], 0xD784_E724_4891_E565),
    (Protection::EccSecDed, Replacement::Random, Assoc::DirectMapped, [2400, 640, 1760, 297, 91, 0, 1463, 1421, 551, 16, 191, 4], 0xFED4_34BF_DF66_F347),
    (Protection::EccSecDed, Replacement::Random, Assoc::Ways(4), [2400, 640, 1760, 540, 139, 0, 1220, 1161, 572, 27, 468, 3], 0x3905_A320_6D16_1347),
    (Protection::EccSecDed, Replacement::Random, Assoc::Full, [2400, 640, 1760, 623, 170, 0, 1137, 1073, 586, 32, 543, 1], 0x383F_9B10_2B06_F347),
    (VERIFY, Replacement::Lru, Assoc::DirectMapped, [2400, 640, 1760, 229, 64, 0, 1531, 1438, 536, 67, 0, 0], 0x6AC3_8995_1B06_F347),
    (VERIFY, Replacement::Lru, Assoc::Ways(4), [2400, 640, 1760, 417, 107, 0, 1343, 1227, 564, 84, 0, 0], 0x6AC3_8995_1B06_F347),
    (VERIFY, Replacement::Lru, Assoc::Full, [2400, 640, 1760, 484, 105, 0, 1276, 1139, 576, 105, 0, 0], 0x6AC3_8995_1B06_F347),
    (VERIFY, Replacement::Fifo, Assoc::DirectMapped, [2400, 640, 1760, 229, 64, 0, 1531, 1438, 536, 67, 0, 0], 0x6AC3_8995_1B06_F347),
    (VERIFY, Replacement::Fifo, Assoc::Ways(4), [2400, 640, 1760, 393, 106, 0, 1367, 1251, 565, 84, 0, 0], 0x6AC3_8995_1B06_F347),
    (VERIFY, Replacement::Fifo, Assoc::Full, [2400, 640, 1760, 427, 112, 0, 1333, 1171, 610, 130, 0, 0], 0x6AC3_8995_1B06_F347),
    (VERIFY, Replacement::Random, Assoc::DirectMapped, [2400, 640, 1760, 229, 64, 0, 1531, 1438, 536, 67, 0, 0], 0x6AC3_8995_1B06_F347),
    (VERIFY, Replacement::Random, Assoc::Ways(4), [2400, 640, 1760, 360, 96, 0, 1400, 1285, 559, 83, 0, 0], 0x6AC3_8995_1B06_F347),
    (VERIFY, Replacement::Random, Assoc::Full, [2400, 640, 1760, 420, 94, 0, 1340, 1220, 562, 88, 0, 0], 0x6AC3_8995_1B06_F347),
];

#[test]
fn fault_statistics_match_the_recorded_figures() {
    for (protection, replacement, assoc, want, want_digest) in GOLDEN {
        let cfg = MemoConfig::builder(32)
            .assoc(assoc)
            .replacement(replacement)
            .protection(protection)
            .build()
            .expect("valid geometry");
        let (stats, digest) = run(cfg);
        let label = format!("{protection} {replacement:?} {assoc:?}");
        assert_eq!(counts(&stats), want, "{label}: statistics");
        assert_eq!(digest, want_digest, "{label}: served values");
    }
}
