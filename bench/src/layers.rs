//! The layer pass of a traced run: a fresh child process calls each
//! layer's public entry points on the workload's inputs, cold, and
//! reports one timing per layer. The parent turns the timings into
//! per-layer records and spans.
//!
//! | metric | call |
//! |---|---|
//! | `imaging.corpus_s` | `suite::mm_inputs` |
//! | `workloads.record_s`, `workloads.ops` | `record_mm_trace` + `record_sci_trace`, all 37 kernels |
//! | `sim.replay_s`, `sim.replay_ns_per_op` | `OpTrace::replay` into `MemoBank::paper_default` |
//! | `table.hit_ratio.*` | pooled hits over lookups of that replay |
//! | `sim.cycle_replay_s` | `EventTrace::replay_into` a `CycleAccountant`, Tables 11–13 apps |
//! | `table.sweep_fused_s` | `replay_stats_fused` on the Figure 3 grid, sample apps |
//! | `table.fault_replay_s` | replay into `fault_tolerance::faulty_bank` per protection |
//! | `region.survey_s` | `regions::survey` |
//! | `store.*_us`, `store.open_s` | a store from `store::open_guarded`, the run's blob sizes |
//! | `cache.peek_ns` | `ShardedLru::peek` on 20 resident renders |
//! | `experiments.<entry>_s` | each registry entry, when asked for |

use std::hash::Hasher as _;
use std::hint::black_box;
use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

use memo_experiments::cache::{Fnv1a, ShardedLru};
use memo_experiments::{env, fault_tolerance, figures, regions, runner, speedup, store, ExpConfig};
use memo_sim::{CpuModel, CycleAccountant, EventTrace, MemoBank, MemoryHierarchy, OpTrace};
use memo_store::ResultBlob;
use memo_table::{Assoc, MemoConfig, OpKind, Protection};
use memo_workloads::suite::{
    mm_inputs, record_mm_trace, record_sci_trace, replay_stats_fused, SweepSpec,
};
use memo_workloads::{mm, sci};

use crate::catalog::{entry_slug, layer_record};
use crate::fleet::{clean_command, Helper, TAG};
use crate::record::Record;
use crate::trace::Trace;

/// Store operations timed per kind (put, hit get, absent get).
const STORE_OPS: usize = 256;
/// Rounds over the 20 resident keys when timing `peek`.
const PEEK_ROUNDS: usize = 50_000;

/// What the parent asks the layer pass to do.
#[derive(Debug, Clone)]
pub struct Request {
    pub cfg: ExpConfig,
    /// Also run the registry, entry by entry.
    pub registry: bool,
    /// Where the pass may create its store.
    pub dir: std::path::PathBuf,
    /// Blob sizes the store is exercised with.
    pub blobs: Vec<usize>,
}

/// FNV-1a of a response body or artifact.
pub fn body_hash(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::default();
    h.write(bytes);
    h.finish()
}

/// The benchmark executable in child mode, with a clean environment.
pub fn child_command(args: &[String]) -> Result<Command, String> {
    let exe = std::env::current_exe()
        .map_err(|e| format!("cannot locate the benchmark executable: {e}"))?;
    let mut cmd = clean_command(exe);
    cmd.env("MEMO_JOBS", "2").arg("child").args(args);
    Ok(cmd)
}

/// Run the layer pass in a fresh child; its spans hang under `parent`
/// on the run's clock, which started at `epoch`.
pub fn run(
    req: &Request,
    trace: &mut Trace,
    parent: u64,
    epoch: Instant,
) -> Result<Vec<Record>, String> {
    let blobs: Vec<String> = req.blobs.iter().map(usize::to_string).collect();
    let args = vec![
        "layers".to_string(),
        req.cfg.image_scale.to_string(),
        req.cfg.sci_n.to_string(),
        u8::from(req.registry).to_string(),
        req.dir.display().to_string(),
        blobs.join(","),
    ];
    let offset_ns = nanos(epoch.elapsed());
    let mut child = Helper::spawn(child_command(&args)?)?;
    let deadline = Instant::now() + Duration::from_secs(150);
    let mut records = Vec::new();
    loop {
        let line = child.next_line(deadline)?;
        let mut parts = line.split(' ');
        match (parts.next(), parts.next(), parts.next(), parts.next()) {
            (Some("metric"), Some(name), Some(value), None) => {
                let value: f64 = value
                    .parse()
                    .map_err(|_| format!("bad layer metric line {line:?}"))?;
                records.push(layer_record(name, value));
            }
            (Some("span"), Some(name), Some(start), Some(end)) => {
                let parse = |v: &str| {
                    v.parse::<u64>()
                        .map_err(|_| format!("bad span line {line:?}"))
                };
                trace.add(
                    parent,
                    name,
                    offset_ns + parse(start)?,
                    offset_ns + parse(end)?,
                    "",
                    "",
                );
            }
            (Some("done"), ..) => break,
            _ => return Err(format!("unexpected layer pass line {line:?}")),
        }
    }
    child.finish()?;
    Ok(records)
}

pub fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Child side: emits `metric` and `span` lines, then `done`.
struct Emitter {
    t0: Instant,
}

impl Emitter {
    fn metric(&self, name: &str, value: f64) {
        println!("{TAG}metric {name} {value}");
    }

    /// Time `f` as the span `name`; returns its result and seconds.
    fn span<T>(&self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let start = self.t0.elapsed();
        let out = f();
        let end = self.t0.elapsed();
        println!("{TAG}span {name} {} {}", nanos(start), nanos(end));
        (out, (end - start).as_secs_f64())
    }
}

/// `child layers <scale> <sci_n> <registry> <dir> <blob sizes>`.
pub fn child_main(args: &[String]) -> Result<(), String> {
    let [scale, sci_n, registry, dir, blobs] = args else {
        return Err("usage: child layers <scale> <sci_n> <0|1> <dir> <blob,sizes>".to_string());
    };
    let num = |v: &str| v.parse::<usize>().map_err(|_| format!("bad number {v:?}"));
    let cfg = ExpConfig {
        image_scale: num(scale)?,
        sci_n: num(sci_n)?,
    };
    let blobs = blobs
        .split(',')
        .filter(|s| !s.is_empty())
        .map(num)
        .collect::<Result<Vec<_>, _>>()?;
    let out = Emitter { t0: Instant::now() };

    let (corpus, s) = out.span("imaging.corpus", || mm_inputs(cfg.image_scale));
    out.metric("imaging.corpus_s", s);
    let images: Vec<_> = corpus.iter().map(|c| &c.image).collect();

    let mm_apps = mm::apps();
    let (traces, s) = out.span("workloads.record", || {
        let mut traces: Vec<(&'static str, OpTrace)> = mm_apps
            .iter()
            .map(|app| (app.name, record_mm_trace(app, &images)))
            .collect();
        traces.extend(
            sci::all_apps()
                .iter()
                .map(|app| (app.name, record_sci_trace(app, cfg.sci_n))),
        );
        traces
    });
    let ops: usize = traces.iter().map(|(_, t)| t.len()).sum();
    out.metric("workloads.record_s", s);
    #[allow(clippy::cast_precision_loss)]
    let ops_f = ops as f64;
    out.metric("workloads.ops", ops_f);

    let kinds = [OpKind::IntMul, OpKind::FpMul, OpKind::FpDiv];
    let (pooled, s) = out.span("sim.replay", || {
        let mut pooled = [(0u64, 0u64); 3];
        for (_, trace) in &traces {
            let mut bank = MemoBank::paper_default();
            trace.replay(&mut bank);
            for (slot, &kind) in pooled.iter_mut().zip(&kinds) {
                if let Some(st) = bank.stats(kind) {
                    slot.0 += st.table_hits;
                    slot.1 += st.table_lookups;
                }
            }
        }
        pooled
    });
    out.metric("sim.replay_s", s);
    out.metric("sim.replay_ns_per_op", s * 1e9 / ops_f.max(1.0));
    for ((hits, lookups), name) in pooled.iter().zip(["int_mul", "fp_mul", "fp_div"]) {
        #[allow(clippy::cast_precision_loss)]
        let ratio = if *lookups == 0 {
            0.0
        } else {
            *hits as f64 / *lookups as f64
        };
        out.metric(&format!("table.hit_ratio.{name}"), ratio);
    }

    // Event traces are recorded one app at a time (they are large); only
    // the replays are timed.
    let mut cycle_s = 0.0;
    for name in speedup::SPEEDUP_APPS {
        let app = mm::find(name).ok_or_else(|| format!("no MM app {name}"))?;
        let mut events = EventTrace::new();
        for image in &images {
            app.run(&mut events, image);
        }
        let (_, s) = out.span("sim.cycle_replay", || {
            let mut acc = CycleAccountant::new(
                CpuModel::paper_slow(),
                MemoryHierarchy::typical_1997(),
                MemoBank::paper_default(),
            );
            events.replay_into(&mut acc);
            black_box(acc.report());
        });
        cycle_s += s;
    }
    out.metric("sim.cycle_replay_s", cycle_s);

    let sizes = [8usize, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192];
    let (_, s) = out.span("table.sweep_fused", || {
        for kind in [OpKind::FpMul, OpKind::FpDiv] {
            let specs: Vec<SweepSpec> = sizes
                .iter()
                .map(|&e| {
                    let c = MemoConfig::builder(e)
                        .assoc(Assoc::Ways(4))
                        .build()
                        .expect("Figure 3 geometry");
                    SweepSpec::finite(c, &[kind])
                })
                .collect();
            for (_, trace) in traces
                .iter()
                .filter(|(n, _)| figures::SAMPLE_APPS.contains(n))
            {
                black_box(replay_stats_fused(std::iter::once(trace), &specs));
            }
        }
    });
    out.metric("table.sweep_fused_s", s);

    let (_, s) = out.span("table.fault_replay", || {
        for protection in Protection::ALL {
            let mut bank = fault_tolerance::faulty_bank(protection, 0.01, 0xFA17);
            for (_, trace) in &traces {
                trace.replay(&mut bank);
            }
            black_box(bank.stats(OpKind::FpDiv));
        }
    });
    out.metric("table.fault_replay_s", s);
    drop(traces);

    let (survey, s) = out.span("region.survey", || regions::survey(cfg));
    survey.map_err(|e| format!("region survey failed: {e}"))?;
    out.metric("region.survey_s", s);

    store_layer(&out, Path::new(dir), &blobs)?;
    peek_layer(&out, &blobs);

    if registry == "1" {
        for entry in runner::experiments() {
            let (outcome, s) = out.span(&format!("experiments.{}", entry_slug(entry.0)), || {
                runner::run_registry(cfg, std::slice::from_ref(&entry), |_| {})
            });
            if runner::failed(&outcome) > 0 {
                return Err(format!("registry entry {} failed", entry.0));
            }
            out.metric(&format!("experiments.{}_s", entry_slug(entry.0)), s);
        }
    }
    println!("{TAG}done");
    Ok(())
}

fn median_us(mut ns: Vec<u64>) -> f64 {
    ns.sort_unstable();
    #[allow(clippy::cast_precision_loss)]
    let us = crate::stats::nearest_rank(&ns, 0.5).unwrap_or(0) as f64 / 1e3;
    us
}

fn store_layer(out: &Emitter, dir: &Path, blobs: &[usize]) -> Result<(), String> {
    let dir = dir.join("layer-store");
    let open =
        || store::open_guarded(&dir, env::store_config()).map_err(|e| format!("open store: {e}"));
    let sizes = if blobs.is_empty() { &[1024][..] } else { blobs };
    let key = |i: usize| format!("results/bench/{i}");
    let store = open()?;
    let mut puts = Vec::with_capacity(STORE_OPS);
    for i in 0..STORE_OPS {
        let blob = ResultBlob {
            status: 200,
            body: vec![b'x'; sizes[i % sizes.len()]],
        }
        .to_bytes();
        let t = Instant::now();
        store
            .put(key(i).as_bytes(), &blob)
            .map_err(|e| format!("store put: {e}"))?;
        puts.push(nanos(t.elapsed()));
    }
    store.flush().map_err(|e| format!("store flush: {e}"))?;
    drop(store);
    let (store, open_s) = out.span("store.open", open);
    let store = store?;
    let time_gets =
        |keys: &mut dyn Iterator<Item = String>, want_hit: bool| -> Result<Vec<u64>, String> {
            let mut ns = Vec::with_capacity(STORE_OPS);
            for k in keys {
                let t = Instant::now();
                let got = store
                    .get(k.as_bytes())
                    .map_err(|e| format!("store get: {e}"))?;
                ns.push(nanos(t.elapsed()));
                if got.is_some() != want_hit {
                    return Err(format!("store get {k}: expected hit={want_hit}"));
                }
            }
            Ok(ns)
        };
    let hits = time_gets(&mut (0..STORE_OPS).map(key), true)?;
    let absent = time_gets(
        &mut (0..STORE_OPS).map(|i| format!("results/absent/{i}")),
        false,
    )?;
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    out.metric("store.put_us", median_us(puts));
    out.metric("store.get_hit_us", median_us(hits));
    out.metric("store.get_absent_us", median_us(absent));
    out.metric("store.open_s", open_s);
    Ok(())
}

fn peek_layer(out: &Emitter, blobs: &[usize]) {
    let cache: ShardedLru<String, (u16, String)> = ShardedLru::new(8, 256);
    let keys: Vec<String> = (0..20)
        .map(|i| format!("table/{i}@scale=16;sci_n=16"))
        .collect();
    for (i, k) in keys.iter().enumerate() {
        let len = blobs.get(i % blobs.len().max(1)).copied().unwrap_or(1024);
        let _ = cache.get_or_compute(k, || (200, "x".repeat(len)));
    }
    let (_, s) = out.span("cache.peek", || {
        for _ in 0..PEEK_ROUNDS {
            for k in &keys {
                black_box(cache.peek(black_box(k)));
            }
        }
    });
    #[allow(clippy::cast_precision_loss)]
    let per = s * 1e9 / (PEEK_ROUNDS * keys.len()) as f64;
    out.metric("cache.peek_ns", per);
}
