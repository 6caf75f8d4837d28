//! # memo-bench
//!
//! Timing benchmarks for the memo-tables reproduction:
//!
//! * `memo_table` — microbenchmarks of the MEMO-TABLE itself (probe hit,
//!   probe miss, insert, mantissa reconstruction, infinite-table lookups);
//! * `paper_tables` — end-to-end regeneration of Tables 5–13 at reduced
//!   scale;
//! * `paper_figures` — Figures 2–4;
//! * `workloads` — event-stream throughput of representative kernels;
//! * `trace_replay` — native re-execution vs. operand-trace replay;
//! * `sweep_fusion` — fused single-pass sweep vs. per-configuration
//!   replay, emitting machine-readable `BENCH_sweep.json`.
//!
//! Run `cargo bench --workspace`; each bench is a plain `harness = false`
//! binary (the repo builds offline, so no criterion) that prints one
//! median-of-runs line per target. The shared reduced-scale configuration
//! lives in [`bench_cfg`].

use std::time::Instant;

use memo_experiments::ExpConfig;

/// The scale every paper-table benchmark runs at: small enough for
/// benchmarking, large enough to exercise the full code paths.
#[must_use]
pub fn bench_cfg() -> ExpConfig {
    ExpConfig::quick()
}

/// Time `f` for a handful of samples after one warmup call and print the
/// median wall-clock time per call, benchmark-harness style.
pub fn bench<F: FnMut()>(group: &str, name: &str, samples: usize, f: F) {
    bench_median(group, name, samples, f);
}

/// Like [`bench()`], but also return the median seconds per call so
/// callers can emit machine-readable results (e.g. `BENCH_sweep.json`).
pub fn bench_median<F: FnMut()>(group: &str, name: &str, samples: usize, mut f: F) -> f64 {
    f(); // warmup
    let mut times: Vec<f64> = Vec::with_capacity(samples.max(1));
    for _ in 0..samples.max(1) {
        let t0 = Instant::now();
        f();
        times.push(t0.elapsed().as_secs_f64());
    }
    times.sort_by(|a, b| a.total_cmp(b));
    let median = times[times.len() / 2];
    let (lo, hi) = (times[0], times[times.len() - 1]);
    println!(
        "{group}/{name:<34} median {:>12} [{} .. {}]",
        fmt_time(median),
        fmt_time(lo),
        fmt_time(hi)
    );
    median
}

fn fmt_time(secs: f64) -> String {
    if secs >= 1.0 {
        format!("{secs:.3} s")
    } else if secs >= 1e-3 {
        format!("{:.3} ms", secs * 1e3)
    } else if secs >= 1e-6 {
        format!("{:.3} µs", secs * 1e6)
    } else {
        format!("{:.1} ns", secs * 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_cfg_is_quick_scale() {
        let cfg = bench_cfg();
        assert!(cfg.image_scale >= 16);
    }

    #[test]
    fn time_formatting_covers_magnitudes() {
        assert!(fmt_time(2.5).ends_with(" s"));
        assert!(fmt_time(2.5e-3).ends_with(" ms"));
        assert!(fmt_time(2.5e-6).ends_with(" µs"));
        assert!(fmt_time(2.5e-9).ends_with(" ns"));
    }
}
