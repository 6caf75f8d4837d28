//! Property tests: `MemoTable`'s batched execution must be *observably
//! identical* to its scalar path — same statistics, same table state,
//! same per-op outcome tallies — for every configuration in the design
//! space, every tile width (including ragged tails), and operand streams
//! that exercise commutative-pair orientation, trivial operands, and
//! mantissa-hostile values.
//!
//! The oracle is the scalar `Memoizer::execute` loop; the subject is the
//! table's `execute_batch` driven through uneven batch slices. A
//! full-value table with no enabled fault injector takes the lane kernel;
//! mantissa-only and fault-injected tables run `execute` per lane. Fault-
//! injected tables are also driven through `execute_batch_with_truth`,
//! whose per-lane served bits must be exactly what `execute` served. The
//! independent oracle for both paths is `reference_model.rs`.

mod common;

use common::stream;
use memo_table::{
    Assoc, BatchOutcome, FaultConfig, FaultInjector, HashScheme, MemoConfig, MemoStats, MemoTable,
    Memoizer, OpBatch, OpKind, Outcome, Protection, Replacement, TagPolicy, TrivialPolicy,
};

/// Scalar oracle: per-op `execute` loop, tallying outcomes like
/// `BatchOutcome` does.
fn run_scalar(table: &mut dyn Memoizer, batch: &OpBatch<'_>) -> BatchOutcome {
    let mut out = BatchOutcome::default();
    for i in 0..batch.len() {
        match table.execute(batch.op(i)).outcome {
            Outcome::Hit => out.hits += 1,
            Outcome::Trivial => out.trivials += 1,
            Outcome::Filtered | Outcome::Miss => {}
        }
    }
    out
}

/// Call `f(start, width)` over `len` lanes in deliberately uneven tile
/// widths, so both full tiles and partial tails (down to single-lane
/// batches) are hit.
fn for_uneven_tiles(len: usize, mut f: impl FnMut(usize, usize)) {
    const WIDTHS: [usize; 8] = [1, 5, 64, 7, 33, 2, 64, 19];
    let mut start = 0;
    let mut wi = 0;
    while start < len {
        let w = WIDTHS[wi % WIDTHS.len()].min(len - start);
        f(start, w);
        start += w;
        wi += 1;
    }
}

/// Subject: `execute_batch` over uneven tile widths.
fn run_batched(table: &mut dyn Memoizer, batch: &OpBatch<'_>) -> BatchOutcome {
    let mut out = BatchOutcome::default();
    for_uneven_tiles(batch.len(), |start, w| {
        out.absorb(table.execute_batch(&batch.slice(start, w)));
    });
    out
}

/// Drive the same stream through a scalar-oracle table and a batched
/// table, then verify stats, tallies, and (via a shared follow-up scalar
/// pass) that the *stored state* of both tables is identical too.
fn assert_equivalent(
    mut scalar: Box<dyn Memoizer>,
    mut batched: Box<dyn Memoizer>,
    kind: OpKind,
    a: &[u64],
    b: &[u64],
    label: &str,
) {
    let batch = OpBatch::new(kind, a, b);
    let want = run_scalar(scalar.as_mut(), &batch);
    let got = run_batched(batched.as_mut(), &batch);
    assert_eq!(got, want, "{label}: outcome tallies diverged");
    assert_eq!(batched.stats(), scalar.stats(), "{label}: stats diverged");

    // State probe: replay a deterministic slice of the stream through both
    // tables *scalar*. Any divergence in stored entries / recency /
    // insertion order shows up as differing stats here.
    let probe_len = batch.len().min(96);
    let probe = batch.slice(batch.len() - probe_len, probe_len);
    let want2 = run_scalar(scalar.as_mut(), &probe);
    let got2 = run_scalar(batched.as_mut(), &probe);
    assert_eq!(got2, want2, "{label}: post-pass tallies diverged (state mismatch)");
    assert_eq!(batched.stats(), scalar.stats(), "{label}: post-pass stats diverged");
}

const TRIVIALS: [TrivialPolicy; 3] =
    [TrivialPolicy::Exclude, TrivialPolicy::Integrate, TrivialPolicy::Memoize];

/// Full cross of the axes the issue names — (assoc, protection,
/// trivial-filter) — with the secondary axes (tag, hash, commutative,
/// replacement) rotated deterministically so every value of each appears
/// against many primary combinations.
#[test]
fn finite_table_batched_equals_scalar_across_configs() {
    let assocs = [Assoc::DirectMapped, Assoc::Ways(2), Assoc::Ways(4), Assoc::Full];
    let tags = [TagPolicy::FullValue, TagPolicy::MantissaOnly];
    let hashes = [HashScheme::PaperXor, HashScheme::FoldMix];
    let replacements = [Replacement::Lru, Replacement::Fifo, Replacement::Random];

    let mut rotor = 0usize;
    for kind in OpKind::ALL {
        let (a, b) = stream(kind, 0x1998_0001, 480);
        for assoc in assocs {
            for protection in Protection::ALL {
                for trivial in TRIVIALS {
                    let tag = tags[rotor % tags.len()];
                    let hash = hashes[(rotor / 2) % hashes.len()];
                    let commutative = !rotor.is_multiple_of(3);
                    let replacement = replacements[rotor % replacements.len()];
                    rotor += 1;

                    let cfg = MemoConfig::builder(32)
                        .assoc(assoc)
                        .tag(tag)
                        .trivial(trivial)
                        .replacement(replacement)
                        .hash(hash)
                        .commutative(commutative)
                        .protection(protection)
                        .build()
                        .expect("valid config");
                    let label = format!("{} {cfg:?}", kind.label());
                    assert_equivalent(
                        Box::new(MemoTable::new(cfg)),
                        Box::new(MemoTable::new(cfg)),
                        kind,
                        &a,
                        &b,
                        &label,
                    );
                }
            }
        }
    }
}

/// Dedicated full cross of the secondary axes (tag × hash × commutative ×
/// replacement) at a fixed small geometry, where conflict pressure is
/// highest and the commutative second probe fires most often.
#[test]
fn finite_table_secondary_axes_full_cross() {
    for kind in OpKind::ALL {
        let (a, b) = stream(kind, 0x1998_0002, 480);
        for tag in [TagPolicy::FullValue, TagPolicy::MantissaOnly] {
            for hash in [HashScheme::PaperXor, HashScheme::FoldMix] {
                for commutative in [false, true] {
                    for replacement in
                        [Replacement::Lru, Replacement::Fifo, Replacement::Random]
                    {
                        let cfg = MemoConfig::builder(8)
                            .assoc(Assoc::Ways(2))
                            .tag(tag)
                            .trivial(TrivialPolicy::Exclude)
                            .replacement(replacement)
                            .hash(hash)
                            .commutative(commutative)
                            .build()
                            .expect("valid config");
                        let label = format!("{} {cfg:?}", kind.label());
                        assert_equivalent(
                            Box::new(MemoTable::new(cfg)),
                            Box::new(MemoTable::new(cfg)),
                            kind,
                            &a,
                            &b,
                            &label,
                        );
                    }
                }
            }
        }
    }
}

/// Single-lane batches are the degenerate tail case: they must behave
/// exactly like scalar `execute`, op by op, for a hostile stream.
#[test]
fn width_one_batches_match_scalar_op_by_op() {
    for kind in OpKind::ALL {
        let (a, b) = stream(kind, 0x1998_0005, 200);
        let batch = OpBatch::new(kind, &a, &b);
        let cfg = MemoConfig::paper_default();
        let mut scalar = MemoTable::new(cfg);
        let mut batched = MemoTable::new(cfg);
        for i in 0..batch.len() {
            let lane = batch.slice(i, 1);
            let want = match scalar.execute(lane.op(0)).outcome {
                Outcome::Hit => BatchOutcome { hits: 1, trivials: 0 },
                Outcome::Trivial => BatchOutcome { hits: 0, trivials: 1 },
                _ => BatchOutcome::default(),
            };
            let got = batched.execute_batch(&lane);
            assert_eq!(got, want, "{} lane {i}", kind.label());
            assert_eq!(
                Memoizer::stats(&batched),
                Memoizer::stats(&scalar),
                "{} lane {i}",
                kind.label()
            );
        }
    }
}

/// Sanity anchor so a bug that zeroes both sides can't pass silently:
/// the streams must actually produce hits, trivials, commutative hits,
/// and (under mantissa tags) bypasses.
#[test]
fn streams_exercise_all_outcome_classes() {
    let mut saw = MemoStats::default();
    for kind in OpKind::ALL {
        let (a, b) = stream(kind, 0x1998_0001, 480);
        let cfg = MemoConfig::builder(32)
            .assoc(Assoc::Ways(4))
            .tag(TagPolicy::MantissaOnly)
            .trivial(TrivialPolicy::Integrate)
            .commutative(true)
            .build()
            .expect("valid config");
        let mut table = MemoTable::new(cfg);
        let batch = OpBatch::new(kind, &a, &b);
        run_batched(&mut table, &batch);
        let s = Memoizer::stats(&table);
        saw.table_hits += s.table_hits;
        saw.trivial_seen += s.trivial_seen;
        saw.commutative_hits += s.commutative_hits;
        saw.bypasses += s.bypasses;
        saw.evictions += s.evictions;
        saw.insertions += s.insertions;
    }
    assert!(saw.table_hits > 0, "no hits: stream too cold");
    assert!(saw.trivial_seen > 0, "no trivials in stream");
    assert!(saw.commutative_hits > 0, "no swapped-orientation hits");
    assert!(saw.bypasses > 0, "no mantissa bypasses");
    assert!(saw.evictions > 0, "no capacity pressure");
    assert!(saw.insertions > 0, "no insertions");
}

/// Scalar oracle with the value each lane served, as result bits.
fn scalar_served(table: &mut MemoTable, batch: &OpBatch<'_>) -> (BatchOutcome, Vec<u64>) {
    let mut out = BatchOutcome::default();
    let served = (0..batch.len())
        .map(|i| {
            let executed = table.execute(batch.op(i));
            match executed.outcome {
                Outcome::Hit => out.hits += 1,
                Outcome::Trivial => out.trivials += 1,
                Outcome::Filtered | Outcome::Miss => {}
            }
            executed.value.to_bits()
        })
        .collect();
    (out, served)
}

/// Subject: `execute_batch_with_truth` over uneven tile widths, handed
/// each lane's true result.
fn truth_served(table: &mut MemoTable, batch: &OpBatch<'_>) -> (BatchOutcome, Vec<u64>) {
    let truth: Vec<u64> = (0..batch.len()).map(|i| batch.op(i).compute().to_bits()).collect();
    let mut served = vec![0; batch.len()];
    let mut out = BatchOutcome::default();
    for_uneven_tiles(batch.len(), |start, w| {
        out.absorb(table.execute_batch_with_truth(
            &batch.slice(start, w),
            &truth[start..start + w],
            &mut served[start..start + w],
            &mut [],
        ));
    });
    (out, served)
}

/// Each fault source alone, then all three at once: value strikes at 0.1
/// (half of them double flips), tag strikes at 0.2 per probed set, and
/// 30% of the slots stuck at one value bit.
fn fault_sources() -> [(&'static str, FaultConfig); 4] {
    let value = FaultConfig::single_bit(0xBA7C_FA17, 0.1).with_double_fraction(0.5);
    let tag = FaultConfig::disabled().with_seed(0xBA7C_FA17).with_tag_rate(0.2);
    let stuck = FaultConfig::disabled().with_seed(0xBA7C_FA17).with_stuck_rate(0.3);
    let all = value.with_tag_rate(0.2).with_stuck_rate(0.3);
    [("value", value), ("tag", tag), ("stuck", stuck), ("all", all)]
}

/// Fault-injected tables: every fault source × protection × replacement
/// × geometry × tag policy, with trivial policy, hash and commutativity
/// rotated. Every one of these tables, full-value or mantissa-only, runs
/// `execute` per lane in both batch methods. The scalar oracle,
/// `execute_batch` and `execute_batch_with_truth` must agree on tallies,
/// statistics (every fault counter included), stored state, and — for the
/// truth-supplying path — the bits served on every lane.
#[test]
fn fault_injected_batches_equal_scalar() {
    let assocs = [Assoc::DirectMapped, Assoc::Ways(4), Assoc::Full];
    let replacements = [Replacement::Lru, Replacement::Fifo, Replacement::Random];
    let hashes = [HashScheme::PaperXor, HashScheme::FoldMix];

    let mut saw = MemoStats::default();
    let mut corrupted_lanes = 0usize;
    let mut rotor = 0usize;
    for kind in OpKind::ALL {
        let (a, b) = stream(kind, 0x1998_0016, 480);
        let batch = OpBatch::new(kind, &a, &b);
        for (source, faults) in fault_sources() {
            for (protection, tag) in Protection::ALL
                .into_iter()
                .flat_map(|p| [TagPolicy::FullValue, TagPolicy::MantissaOnly].map(|t| (p, t)))
            {
                for replacement in replacements {
                    for assoc in assocs {
                        let cfg = MemoConfig::builder(16)
                            .assoc(assoc)
                            .replacement(replacement)
                            .protection(protection)
                            .tag(tag)
                            .trivial(TRIVIALS[rotor % TRIVIALS.len()])
                            .hash(hashes[(rotor / 3) % hashes.len()])
                            .commutative(!rotor.is_multiple_of(4))
                            .build()
                            .expect("valid config");
                        rotor += 1;
                        let label =
                            format!("{} {source} faults, {cfg:?}", kind.label());
                        let table =
                            || MemoTable::new(cfg).with_fault_injector(FaultInjector::new(faults));

                        let mut scalar = table();
                        let (want, want_served) = scalar_served(&mut scalar, &batch);
                        let mut with_truth = table();
                        let (got, got_served) = truth_served(&mut with_truth, &batch);
                        let mut batched = table();
                        let got_batched = run_batched(&mut batched, &batch);

                        assert_eq!(got, want, "{label}: truth-path tallies diverged");
                        assert_eq!(got_batched, want, "{label}: batch tallies diverged");
                        for (i, (g, w)) in got_served.iter().zip(&want_served).enumerate() {
                            assert_eq!(g, w, "{label}: lane {i} served {g:#x}, scalar {w:#x}");
                        }
                        let stats = Memoizer::stats(&scalar);
                        assert_eq!(
                            Memoizer::stats(&with_truth),
                            stats,
                            "{label}: truth-path stats"
                        );
                        assert_eq!(Memoizer::stats(&batched), stats, "{label}: batch stats");

                        // Stored entries, recency, drift and the injector's
                        // streams all feed the next pass: run the tail of the
                        // stream through each table again, scalar.
                        let probe = batch.slice(batch.len() - 96, 96);
                        let want2 = scalar_served(&mut scalar, &probe);
                        assert_eq!(
                            scalar_served(&mut with_truth, &probe),
                            want2,
                            "{label}: post-pass"
                        );
                        assert_eq!(
                            scalar_served(&mut batched, &probe),
                            want2,
                            "{label}: post-pass"
                        );

                        corrupted_lanes += (0..batch.len())
                            .filter(|&i| want_served[i] != batch.op(i).compute().to_bits())
                            .count();
                        saw.faults_injected += stats.faults_injected;
                        saw.faults_detected += stats.faults_detected;
                        saw.faults_corrected += stats.faults_corrected;
                        saw.faults_silent += stats.faults_silent;
                        saw.commutative_hits += stats.commutative_hits;
                    }
                }
            }
        }
    }
    // Anchor: the grid must really strike, detect, correct, leak and serve
    // corrupted lanes, or the comparisons above prove nothing.
    assert!(saw.faults_injected > 0 && saw.faults_detected > 0, "{saw:?}");
    assert!(saw.faults_corrected > 0 && saw.faults_silent > 0, "{saw:?}");
    assert!(saw.commutative_hits > 0, "{saw:?}");
    assert!(corrupted_lanes > 0, "no lane was served a corrupted value");
}
