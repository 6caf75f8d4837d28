//! Property tests: `MemoTable`'s batched execution must be *observably
//! identical* to its scalar path — same statistics, same table state,
//! same per-op outcome tallies — for every configuration in the design
//! space, every tile width (including ragged tails), and operand streams
//! that exercise commutative-pair orientation, trivial operands, and
//! mantissa-hostile values.
//!
//! The oracle is the scalar `Memoizer::execute` loop; the subject is the
//! table's `execute_batch` driven through uneven batch slices. The
//! independent oracle for both is `reference_model.rs`.

mod common;

use common::stream;
use memo_table::{
    Assoc, BatchOutcome, HashScheme, MemoConfig, MemoStats, MemoTable, Memoizer, OpBatch, OpKind,
    Outcome, Protection, Replacement, TagPolicy, TrivialPolicy,
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

/// Subject: `execute_batch` over deliberately uneven tile widths so both
/// full tiles and partial tails (down to single-lane batches) are hit.
fn run_batched(table: &mut dyn Memoizer, batch: &OpBatch<'_>) -> BatchOutcome {
    const WIDTHS: [usize; 8] = [1, 5, 64, 7, 33, 2, 64, 19];
    let mut out = BatchOutcome::default();
    let mut start = 0;
    let mut wi = 0;
    while start < batch.len() {
        let w = WIDTHS[wi % WIDTHS.len()].min(batch.len() - start);
        out.absorb(table.execute_batch(&batch.slice(start, w)));
        start += w;
        wi += 1;
    }
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
                    let label = format!("{} {}", kind.label(), cfg.canonical());
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
                        let label = format!("{} {}", kind.label(), cfg.canonical());
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
