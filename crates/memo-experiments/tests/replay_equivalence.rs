//! Record-once / replay-many correctness: for **every** kernel in the
//! evaluation — all MM applications and both scientific suites — the
//! memo statistics produced by replaying the recorded operand trace must
//! be bit-identical to running the kernel natively against the same bank
//! recipe. This is the property that lets every sweep driver share one
//! recording.

use memo_experiments::{traces, ExpConfig};
use memo_table::OpKind;
use memo_workloads::suite::{
    measure_mm_app, measure_mm_stats, measure_sci_app, mm_inputs, replay_ratios, replay_stats,
    SweepSpec,
};
use memo_workloads::{mm, sci};

const KINDS: [OpKind; 3] = [OpKind::IntMul, OpKind::FpMul, OpKind::FpDiv];

fn specs() -> [SweepSpec; 2] {
    [SweepSpec::paper_default(), SweepSpec::infinite(&KINDS)]
}

#[test]
fn every_mm_kernel_replays_bit_identically() {
    let cfg = ExpConfig::quick();
    let corpus = mm_inputs(cfg.image_scale);
    let inputs: Vec<_> = corpus.iter().map(|c| &c.image).collect();
    for app in mm::apps() {
        let app_traces = traces::mm_traces(cfg, &app);
        for spec in specs() {
            let native = measure_mm_app(&app, &inputs, spec);
            let replayed = replay_ratios(app_traces.iter(), spec);
            assert_eq!(native, replayed, "{}: hit ratios diverge", app.name);

            // Stronger than the ratios: every raw counter must agree.
            let native_bank = measure_mm_stats(&app, &inputs, spec);
            let replay_bank = replay_stats(app_traces.iter(), spec);
            for kind in KINDS {
                assert_eq!(
                    native_bank.stats(kind),
                    replay_bank.stats(kind),
                    "{}: {kind} stats diverge",
                    app.name
                );
            }
        }
    }
}

#[test]
fn every_sci_kernel_replays_bit_identically() {
    let cfg = ExpConfig::quick();
    for app in sci::all_apps() {
        let trace = traces::sci_trace(cfg, &app);
        for spec in specs() {
            let native = measure_sci_app(&app, cfg.sci_n, spec);
            let replayed = replay_ratios([&*trace], spec);
            assert_eq!(native, replayed, "{}: hit ratios diverge", app.name);
        }
    }
}

/// The batched replay engine (lane-parallel probes, tiled decode) must be
/// bit-identical to the scalar per-op path on the operand stream of
/// **every** kernel in the evaluation — at the default tile width and at
/// a narrow width of 8 (maximum partial-tail pressure).
#[test]
fn batched_replay_matches_scalar_replay_on_every_kernel() {
    fn check(name: &str, app_traces: &[&memo_sim::OpTrace]) {
        for spec in specs() {
            let mut scalar = spec.build();
            let mut batched = spec.build();
            let mut narrow = spec.build();
            for trace in app_traces {
                trace.replay_scalar(&mut scalar);
                trace.replay(&mut batched);
                trace.replay_batched(&mut narrow, 8);
            }
            for kind in OpKind::ALL {
                assert_eq!(
                    batched.stats(kind),
                    scalar.stats(kind),
                    "{name}: {kind} batched != scalar"
                );
                assert_eq!(
                    narrow.stats(kind),
                    scalar.stats(kind),
                    "{name}: {kind} width-8 batched != scalar"
                );
            }
        }
    }

    let cfg = ExpConfig::quick();
    let mut covered = 0usize;
    for app in mm::apps() {
        let app_traces = traces::mm_traces(cfg, &app);
        check(app.name, &app_traces.iter().collect::<Vec<_>>());
        covered += 1;
    }
    for app in sci::all_apps() {
        let trace = traces::sci_trace(cfg, &app);
        check(app.name, &[&trace]);
        covered += 1;
    }
    assert_eq!(covered, 37, "the comparison must cover every kernel");
}

#[test]
fn the_suites_cover_the_papers_37_kernels() {
    assert_eq!(mm::apps().len() + sci::all_apps().len(), 37);
}
