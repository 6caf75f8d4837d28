//! Process-wide record-once trace cache, and the replay cache beside it.
//!
//! Every kernel/input pair is executed natively **exactly once per
//! process**; all sweep points, all experiments — including the scorecard,
//! which re-derives earlier tables — replay the cached trace. Traces are
//! shared immutably (`Arc`), so parallel sweep tasks read them without
//! copies; banks remain per-task.
//!
//! Granularity: MM traces are stored *per corpus image* so single-image
//! experiments (Table 8, Figure 2) and corpus-level experiments (Table 7,
//! the policy tables) share the same recordings — replaying the per-image
//! traces in corpus order through one bank is exactly the native
//! corpus-level stream.
//!
//! The paper evaluates every table configuration against one recording
//! (§3.1), and most of the reproduction evaluates one configuration: the
//! paper's default, [`SweepSpec::paper_default`]. The replay cache holds
//! its statistics once per recording, in the three shapes the tables
//! read:
//!
//! * [`mm_paper_default`] — an MM application over its whole corpus,
//!   through one bank (Table 7's stream; Tables 9 and 10 and the
//!   ablations read it too);
//! * [`mm_image_paper_defaults`] — an MM application per corpus image,
//!   each through a fresh bank (Table 8 and Figure 2);
//! * [`sci_paper_default`] — a scientific kernel (Tables 5, 6 and 10).
//!
//! It is keyed like the trace cache and single-flight per key, and
//! [`crate::results::clear`] empties it, so a measurement that must
//! recompute really replays; recordings stay shared.
//!
//! Only operand streams are cached. The cycle-accounting experiments
//! (Tables 11–13, the protection overhead, the pipeline models) need
//! loads, branches and the instruction mix as well; they run the kernels
//! natively over the cached [`corpus`] into their accountants instead of
//! keeping each application's full instruction stream, which is several
//! times the size of its operand stream.

use std::sync::{Arc, OnceLock};

use memo_imaging::synth::{self, CorpusImage};
use memo_sim::{OpTrace, TraceRecorderSink};
use memo_workloads::mm::MmApp;
use memo_workloads::sci::SciApp;
use memo_workloads::suite::{record_sci_trace, replay_stats, KindStats, SweepSpec};

use crate::cache::ShardedLru;
use crate::ExpConfig;

type Key = (&'static str, usize);

/// One record-once map: [`ShardedLru`] unbounded, so concurrent requests
/// for *different* keys record in parallel and concurrent requests for
/// the *same* key record once.
type TraceCache<V> = ShardedLru<Key, V>;

fn corpus_cache() -> &'static TraceCache<Vec<CorpusImage>> {
    static CACHE: OnceLock<TraceCache<Vec<CorpusImage>>> = OnceLock::new();
    CACHE.get_or_init(|| ShardedLru::unbounded(8))
}

fn mm_cache() -> &'static TraceCache<Vec<OpTrace>> {
    static CACHE: OnceLock<TraceCache<Vec<OpTrace>>> = OnceLock::new();
    CACHE.get_or_init(|| ShardedLru::unbounded(8))
}

fn sci_cache() -> &'static TraceCache<OpTrace> {
    static CACHE: OnceLock<TraceCache<OpTrace>> = OnceLock::new();
    CACHE.get_or_init(|| ShardedLru::unbounded(8))
}

fn mm_default_cache() -> &'static TraceCache<KindStats> {
    static CACHE: OnceLock<TraceCache<KindStats>> = OnceLock::new();
    CACHE.get_or_init(|| ShardedLru::unbounded(8))
}

fn mm_image_default_cache() -> &'static TraceCache<Vec<KindStats>> {
    static CACHE: OnceLock<TraceCache<Vec<KindStats>>> = OnceLock::new();
    CACHE.get_or_init(|| ShardedLru::unbounded(8))
}

fn sci_default_cache() -> &'static TraceCache<KindStats> {
    static CACHE: OnceLock<TraceCache<KindStats>> = OnceLock::new();
    CACHE.get_or_init(|| ShardedLru::unbounded(8))
}

/// The Table 8 image corpus at `scale`, synthesized once per process.
#[must_use]
pub fn corpus(scale: usize) -> Arc<Vec<CorpusImage>> {
    corpus_cache().get_or_compute(&("corpus", scale), || synth::corpus(scale))
}

/// The operand traces of one MM application, one per corpus image in
/// corpus order. Replaying them sequentially through one bank reproduces
/// the corpus-level stream; indexing reproduces a single-image run.
///
/// Record-once extends **across processes** when a persistent store is
/// installed ([`crate::store`]): the kernel runs natively only if the
/// store has no archive for this `(app, scale)` key, and the recording is
/// written back so the next process replays from disk.
#[must_use]
pub fn mm_traces(cfg: ExpConfig, app: &MmApp) -> Arc<Vec<OpTrace>> {
    mm_cache().get_or_compute(&(app.name, cfg.image_scale), || {
        let key = format!("traces/mm/{}/{}", app.name, cfg.image_scale);
        let corpus = corpus(cfg.image_scale);
        if let Some(traces) = crate::store::load_traces(&key) {
            if traces.len() == corpus.len() {
                return traces;
            }
            // Image-count mismatch: a stale or foreign archive. Re-record.
        }
        let traces: Vec<OpTrace> = corpus
            .iter()
            .map(|c| {
                let mut rec = TraceRecorderSink::new();
                app.run(&mut rec, &c.image);
                rec.into_trace()
            })
            .collect();
        crate::store::save_traces(&key, &traces);
        traces
    })
}

/// The operand trace of one scientific kernel at `cfg.sci_n`.
///
/// Like [`mm_traces`], consults the installed persistent store before
/// recording natively, and writes fresh recordings back.
#[must_use]
pub fn sci_trace(cfg: ExpConfig, app: &SciApp) -> Arc<OpTrace> {
    sci_cache().get_or_compute(&(app.name, cfg.sci_n), || {
        let key = format!("traces/sci/{}/{}", app.name, cfg.sci_n);
        if let Some(mut traces) = crate::store::load_traces(&key) {
            if traces.len() == 1 {
                return traces.remove(0);
            }
        }
        let trace = record_sci_trace(app, cfg.sci_n);
        crate::store::save_traces(&key, std::slice::from_ref(&trace));
        trace
    })
}

/// The paper-default statistics of one MM application over its whole
/// corpus, replayed through one bank once per process.
#[must_use]
pub fn mm_paper_default(cfg: ExpConfig, app: &MmApp) -> KindStats {
    *mm_default_cache().get_or_compute(&(app.name, cfg.image_scale), || {
        let bank = replay_stats(mm_traces(cfg, app).iter(), SweepSpec::paper_default());
        KindStats::from_bank(&bank)
    })
}

/// The paper-default statistics of one MM application per corpus image,
/// in corpus order, each replayed through a fresh bank once per process.
#[must_use]
pub fn mm_image_paper_defaults(cfg: ExpConfig, app: &MmApp) -> Arc<Vec<KindStats>> {
    mm_image_default_cache().get_or_compute(&(app.name, cfg.image_scale), || {
        mm_traces(cfg, app)
            .iter()
            .map(|trace| KindStats::from_bank(&replay_stats([trace], SweepSpec::paper_default())))
            .collect()
    })
}

/// The paper-default statistics of one scientific kernel at `cfg.sci_n`,
/// replayed once per process.
#[must_use]
pub fn sci_paper_default(cfg: ExpConfig, app: &SciApp) -> KindStats {
    *sci_default_cache().get_or_compute(&(app.name, cfg.sci_n), || {
        KindStats::from_bank(&replay_stats([&*sci_trace(cfg, app)], SweepSpec::paper_default()))
    })
}

/// Empty the replay cache (the recordings stay).
pub(crate) fn forget_replays() {
    mm_default_cache().clear();
    mm_image_default_cache().clear();
    sci_default_cache().clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use memo_table::OpKind;
    use memo_workloads::suite::{measure_mm_app, replay_ratios, SweepSpec};
    use memo_workloads::{mm, sci};

    #[test]
    fn cached_traces_are_shared() {
        let cfg = ExpConfig::quick();
        let app = mm::find("vgpwl").unwrap();
        let a = mm_traces(cfg, &app);
        let b = mm_traces(cfg, &app);
        assert!(Arc::ptr_eq(&a, &b), "second request must hit the cache");
        assert_eq!(a.len(), corpus(cfg.image_scale).len());
    }

    #[test]
    fn corpus_level_replay_matches_native_measurement() {
        let cfg = ExpConfig::quick();
        let app = mm::find("vspatial").unwrap();
        let corpus = corpus(cfg.image_scale);
        let inputs: Vec<_> = corpus.iter().map(|c| &c.image).collect();
        let spec = SweepSpec::paper_default();
        let native = measure_mm_app(&app, &inputs, spec);
        let traces = mm_traces(cfg, &app);
        assert_eq!(native, replay_ratios(traces.iter(), spec));
    }

    #[test]
    fn sci_trace_counts_real_ops() {
        let cfg = ExpConfig::quick();
        let app = *sci::all_apps().first().unwrap();
        let t = sci_trace(cfg, &app);
        assert!(!t.is_empty());
        let total: usize = OpKind::ALL.iter().map(|&k| t.count(k)).sum();
        assert_eq!(total, t.len());
    }
}
