//! Scalar vs batched trace replay — the economics of the warp-style
//! execution engine. The scalar path pulls one [`memo_table::Op`] at a
//! time through `MemoBank::execute` (a virtual call, an enum build, and a
//! policy cascade per operation); the batched path decodes each kind's
//! dictionary-coded columns into structure-of-arrays lane tiles and
//! drives the memo tables' lane-parallel probe front end
//! (`execute_batch`).
//!
//! Results are written to `BENCH_replay.json`: one scalar/batched median
//! pair per kernel (every MM application and both scientific suites) and
//! a geometric-mean speedup. CI archives the file and fails if the
//! batched path is slower than its scalar baseline. The two paths'
//! samples are taken interleaved, so machine noise hits both alike.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use memo_bench::{bench_cfg, bench_median};
use memo_sim::{MemoBank, OpTrace, TraceRecorderSink};
use memo_table::OpKind;
use memo_workloads::mm;
use memo_workloads::sci;
use memo_workloads::suite::{mm_inputs, record_sci_trace, MemoProbeSink, SweepSpec};

const SAMPLES: usize = 12;

struct KernelRow {
    name: &'static str,
    suite: &'static str,
    ops: usize,
    scalar_ms: f64,
    batched_ms: f64,
}

impl KernelRow {
    fn speedup(&self) -> f64 {
        if self.batched_ms > 0.0 { self.scalar_ms / self.batched_ms } else { 0.0 }
    }
}

/// Median seconds per call of `a` and of `b` after one warmup each. The
/// samples interleave `a b`, `b a`, `a b`, ... so a slow stretch on a
/// shared machine lands on both sides alike instead of on whichever side
/// was timed during it.
fn median_pair(mut a: impl FnMut(), mut b: impl FnMut()) -> (f64, f64) {
    fn time(f: &mut impl FnMut()) -> f64 {
        let t0 = Instant::now();
        f();
        t0.elapsed().as_secs_f64()
    }
    fn median(mut times: Vec<f64>) -> f64 {
        times.sort_by(f64::total_cmp);
        times[times.len() / 2]
    }
    a();
    b();
    let (mut ta, mut tb) = (Vec::with_capacity(SAMPLES), Vec::with_capacity(SAMPLES));
    for i in 0..SAMPLES {
        if i % 2 == 0 {
            ta.push(time(&mut a));
            tb.push(time(&mut b));
        } else {
            tb.push(time(&mut b));
            ta.push(time(&mut a));
        }
    }
    (median(ta), median(tb))
}

fn time_kernel(
    name: &'static str,
    suite: &'static str,
    traces: &[&OpTrace],
) -> KernelRow {
    let ops = traces.iter().map(|t| t.len()).sum();
    let (scalar, batched) = median_pair(
        || {
            let mut bank = MemoBank::paper_default();
            for trace in traces {
                trace.replay_scalar(&mut bank);
            }
            black_box(bank.stats(OpKind::FpMul));
        },
        || {
            let mut bank = MemoBank::paper_default();
            for trace in traces {
                trace.replay(&mut bank);
            }
            black_box(bank.stats(OpKind::FpMul));
        },
    );
    KernelRow { name, suite, ops, scalar_ms: scalar * 1e3, batched_ms: batched * 1e3 }
}

fn main() {
    let cfg = bench_cfg();
    let corpus = mm_inputs(cfg.image_scale);
    let inputs: Vec<_> = corpus.iter().map(|c| &c.image).collect();

    // Record every kernel once; replays reuse the recordings.
    let mut kernels: Vec<KernelRow> = Vec::new();
    for app in mm::apps() {
        let mut rec = TraceRecorderSink::new();
        for input in &inputs {
            app.run(&mut rec, input);
        }
        let trace = rec.into_trace();
        kernels.push(time_kernel(app.name, "mm", &[&trace]));
    }
    for app in sci::all_apps() {
        let trace = record_sci_trace(&app, cfg.sci_n);
        kernels.push(time_kernel(app.name, "sci", &[&trace]));
    }

    let geomean = {
        let speedups: Vec<f64> = kernels.iter().map(KernelRow::speedup).collect();
        (speedups.iter().map(|s| s.ln()).sum::<f64>() / speedups.len() as f64).exp()
    };

    // The record-once economics line, for continuity with earlier runs:
    // replaying beats re-running the kernel natively.
    let app = mm::find("vspatial").expect("registered");
    bench_median("trace_replay", "vspatial_native_rerun", SAMPLES, || {
        let mut sink = MemoProbeSink::new(SweepSpec::paper_default());
        for input in &inputs {
            black_box(app.run(&mut sink, input));
        }
        black_box(sink.bank().stats(OpKind::FpDiv));
    });

    let mut json = String::from("{\n  \"bench\": \"trace_replay\",\n");
    json.push_str("  \"kernels\": [\n");
    for (i, r) in kernels.iter().enumerate() {
        let comma = if i + 1 < kernels.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"suite\": \"{}\", \"ops\": {}, \"scalar_ms\": {:.4}, \
             \"batched_ms\": {:.4}, \"speedup\": {:.2}}}{comma}",
            r.name,
            r.suite,
            r.ops,
            r.scalar_ms,
            r.batched_ms,
            r.speedup()
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(json, "  \"geomean_speedup\": {geomean:.2}");
    json.push_str("}\n");

    for r in &kernels {
        println!(
            "trace_replay/{} ({}): {} ops, scalar {:.3} ms vs batched {:.3} ms ({:.2}x)",
            r.name,
            r.suite,
            r.ops,
            r.scalar_ms,
            r.batched_ms,
            r.speedup()
        );
    }
    println!("trace_replay/geomean_speedup: {geomean:.2}x over {} kernels", kernels.len());

    let path = "BENCH_replay.json";
    std::fs::write(path, json).expect("write BENCH_replay.json");
    println!("wrote {path}");
}
