//! The replay cache: every shared paper-default replay in `traces` must
//! equal a fresh replay of the same recording, and `results::clear()`
//! must forget them so a measurement that has to recompute does.
//!
//! Table 9 reads both its Exclude and its Integrate column from the one
//! shared replay; the premise is that the two policies record identical
//! statistics, which is checked here for every Table 9 application.

use std::sync::Arc;

use memo_experiments::trivial::TABLE9_APPS;
use memo_experiments::{results, traces, ExpConfig};
use memo_table::{MemoConfig, OpKind, TrivialPolicy};
use memo_workloads::suite::{replay_ratios, replay_stats, KindStats, SweepSpec};
use memo_workloads::{mm, sci};

fn fresh<'a>(recordings: impl IntoIterator<Item = &'a memo_sim::OpTrace>) -> KindStats {
    KindStats::from_bank(&replay_stats(recordings, SweepSpec::paper_default()))
}

#[test]
fn shared_replays_equal_fresh_ones() {
    let cfg = ExpConfig::quick();
    let spec = SweepSpec::paper_default();
    for app in mm::apps() {
        let recordings = traces::mm_traces(cfg, &app);
        assert_eq!(
            traces::mm_paper_default(cfg, &app),
            fresh(recordings.iter()),
            "{}: corpus-level replay",
            app.name
        );
        let per_image = traces::mm_image_paper_defaults(cfg, &app);
        assert_eq!(per_image.len(), recordings.len(), "{}: one entry per image", app.name);
        for (i, (shared, trace)) in per_image.iter().zip(recordings.iter()).enumerate() {
            assert_eq!(*shared, fresh([trace]), "{}: image {i}", app.name);
            assert_eq!(shared.ratios(), replay_ratios([trace], spec), "{}: image {i}", app.name);
        }
    }
    for app in sci::all_apps() {
        assert_eq!(
            traces::sci_paper_default(cfg, &app),
            fresh([&*traces::sci_trace(cfg, &app)]),
            "{}",
            app.name
        );
    }
}

#[test]
fn integrate_records_what_exclude_records() {
    let cfg = ExpConfig::quick();
    let kinds = [OpKind::IntMul, OpKind::FpMul, OpKind::FpDiv];
    let with = |policy| {
        let table = MemoConfig::builder(32).trivial(policy).build().expect("32/4 is valid");
        SweepSpec::finite(table, &kinds)
    };
    for name in TABLE9_APPS {
        let app = mm::find(name).expect("Table 9 app registered");
        let recordings = traces::mm_traces(cfg, &app);
        let replay = |policy| KindStats::from_bank(&replay_stats(recordings.iter(), with(policy)));
        let exclude = replay(TrivialPolicy::Exclude);
        assert_eq!(replay(TrivialPolicy::Integrate), exclude, "{name}: Integrate vs Exclude");
        assert_eq!(traces::mm_paper_default(cfg, &app), exclude, "{name}: shared vs Exclude");
        assert!(
            kinds.iter().any(|&k| exclude.stats(k).is_some_and(|s| s.trivial_seen > 0)),
            "{name}: the premise is only tested where trivial operations occur"
        );
    }
}

#[test]
fn clear_forgets_the_shared_replays() {
    let cfg = ExpConfig::quick();
    let app = mm::find("vgauss").expect("vgauss registered");
    let before = traces::mm_image_paper_defaults(cfg, &app);
    results::clear();
    let after = traces::mm_image_paper_defaults(cfg, &app);
    assert!(!Arc::ptr_eq(&before, &after), "the request after clear() must replay again");
    assert_eq!(before, after, "a replay after clear() counts the same");
}
