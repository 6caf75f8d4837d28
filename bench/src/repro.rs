//! The `repro` workload: the paper's own deliverable. A fresh child
//! process runs every `runner::experiments()` entry at the default
//! configuration (image scale 4, sci_n 32) with `MEMO_JOBS=2`, so its
//! process-wide caches start cold, as they do for a user. The inputs are
//! the paper's fixed synthetic corpus, so the seed changes nothing here.
//!
//! Setup is spawning the child and synthesizing its input corpus. An
//! operation is one whole reproduction, which is what a user waits for;
//! its latency is the registry's wall time. Each of the 20 artifacts
//! counts as one attempted operation for the failure count, and must be
//! byte-identical to its committed
//! `docs/outputs/*.txt`; fault tolerance and regions have none and must
//! render without error (the regions render includes its transparency
//! proof, which fails the render if it finds a divergence).

use std::collections::HashMap;
use std::hint::black_box;
use std::io::BufRead as _;
use std::time::{Duration, Instant};

use memo_experiments::{runner, traces, ExpConfig};

use crate::catalog::{entry_slug, layer_record};
use crate::fleet::{vm_hwm_kb, Helper, TempDir, TAG};
use crate::layers::{self, body_hash, child_command, nanos};
use crate::record::{latency_records, Outcome, Record, E2E};
use crate::trace::Trace;
use crate::Ctx;

/// Set-ups per run; `setup_s` is their median. A set-up takes about
/// 10 ms, so many of them keep the median steady at little cost.
const SETUPS: usize = 15;
/// Longest a child may take to become ready or to finish a registry.
const CHILD_TIMEOUT: Duration = Duration::from_secs(170);

/// Registry entries and the committed output each must match.
const GOLDEN: [(&str, &str); 18] = [
    ("table 1", "table1"),
    ("tables 2-4", "table2_3_4"),
    ("table 5", "table5"),
    ("table 6", "table6"),
    ("table 7", "table7"),
    ("table 8", "table8"),
    ("table 9", "table9"),
    ("table 10", "table10"),
    ("table 11", "table11"),
    ("table 12", "table12"),
    ("table 13", "table13"),
    ("figure 2", "fig2"),
    ("figure 3", "fig3"),
    ("figure 4", "fig4"),
    ("ablations", "ablations"),
    ("related work", "related_work"),
    ("future work", "future_work"),
    ("scorecard", "scorecard"),
];

struct Entry {
    slug: String,
    start_ns: u64,
    end_ns: u64,
    ok: bool,
    len: usize,
    hash: u64,
}

struct Reproduction {
    wall: Duration,
    entries: Vec<Entry>,
    hwm_kb: u64,
}

/// Spawn a child and wait until its corpus is built; returns the child
/// and the set-up time.
fn spawn_ready() -> Result<(Helper, Duration), String> {
    let t0 = Instant::now();
    let mut child = Helper::spawn(child_command(&["repro".to_string()])?)?;
    let line = child.next_line(t0 + CHILD_TIMEOUT)?;
    if !line.starts_with("ready") {
        return Err(format!("repro child said {line:?} instead of ready"));
    }
    Ok((child, t0.elapsed()))
}

fn reproduce(mut child: Helper) -> Result<Reproduction, String> {
    let t0 = Instant::now();
    child.send("go")?;
    let mut entries = Vec::new();
    let hwm_kb = loop {
        let line = child.next_line(t0 + CHILD_TIMEOUT)?;
        let f: Vec<&str> = line.split(' ').collect();
        let bad = || format!("bad repro child line {line:?}");
        match f.as_slice() {
            ["entry", slug, start, end, ok, len, hash] => entries.push(Entry {
                slug: (*slug).to_string(),
                start_ns: start.parse().map_err(|_| bad())?,
                end_ns: end.parse().map_err(|_| bad())?,
                ok: *ok == "1",
                len: len.parse().map_err(|_| bad())?,
                hash: hash.parse().map_err(|_| bad())?,
            }),
            ["done", hwm] => break hwm.parse().map_err(|_| bad())?,
            _ => return Err(bad()),
        }
    };
    let wall = t0.elapsed();
    child.finish()?;
    Ok(Reproduction {
        wall,
        entries,
        hwm_kb,
    })
}

/// (length, hash) of each committed output, keyed by entry slug; `None`
/// when the file is missing, which fails that artifact.
fn golden(ctx: &Ctx) -> HashMap<String, Option<(usize, u64)>> {
    GOLDEN
        .iter()
        .map(|(entry, file)| {
            let path = ctx.repo.join("docs/outputs").join(format!("{file}.txt"));
            let digest = std::fs::read(path).ok().map(|b| (b.len(), body_hash(&b)));
            (entry_slug(entry), digest)
        })
        .collect()
}

/// Count attempted, failed and wrong artifacts of a reproduction.
fn check(
    rep: &Reproduction,
    golden: &HashMap<String, Option<(usize, u64)>>,
    tally: &mut (u64, u64, u64),
) {
    for e in &rep.entries {
        tally.0 += 1;
        let right = e.ok
            && match golden.get(&e.slug) {
                Some(Some(digest)) => *digest == (e.len, e.hash),
                Some(None) => false,
                None => true,
            };
        if !right {
            eprintln!(
                "benchmark: repro artifact {} failed or differs from docs/outputs",
                e.slug
            );
            tally.1 += 1;
            tally.2 += 1;
        }
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Run the workload: set up [`SETUPS`] times, then reproduce for about
/// `ctx.seconds` (at least once).
pub fn run(ctx: &Ctx, traced: bool) -> Result<Outcome, String> {
    let golden = golden(ctx);
    let mut setups = Vec::with_capacity(SETUPS);
    let mut ready = None;
    for _ in 0..SETUPS {
        drop(ready.take());
        let (child, took) = spawn_ready()?;
        setups.push(secs(took));
        ready = Some(child);
    }
    let budget = Duration::from_secs(ctx.seconds);
    let phase = Instant::now();
    let mut reps = vec![reproduce(ready.take().expect("a set-up child is ready"))?];
    // Start another reproduction only if it should finish in budget.
    while phase.elapsed() + reps[reps.len() - 1].wall <= budget {
        reps.push(reproduce(spawn_ready()?.0)?);
    }

    let mut tally = (0, 0, 0);
    for rep in &reps {
        check(rep, &golden, &mut tally);
    }
    let mut walls: Vec<u64> = reps.iter().map(|r| nanos(r.wall)).collect();
    walls.sort_unstable();
    let throughput = reps.len() as f64 / reps.iter().map(|r| secs(r.wall)).sum::<f64>();
    let mut records = latency_records(&walls, &setups);
    records.push(Record {
        samples: reps.len() as u64,
        ..Record::value(E2E, "throughput", "ops/s", throughput)
    });
    let hwm = reps.iter().map(|r| r.hwm_kb).max().unwrap_or(0);
    records.push(Record::value(E2E, "peak_rss_mb", "MB", hwm as f64 / 1024.0));

    if traced {
        let epoch = Instant::now();
        let mut trace = Trace::default();
        let (child, _) = spawn_ready()?;
        let go_ns = nanos(epoch.elapsed());
        let rep = reproduce(child)?;
        check(&rep, &golden, &mut tally);
        let root = trace.add(0, "repro.registry", go_ns, go_ns + nanos(rep.wall), "", "");
        for e in &rep.entries {
            trace.add(
                root,
                format!("experiments.{}", e.slug),
                go_ns + e.start_ns,
                go_ns + e.end_ns,
                "",
                "",
            );
            let s = (e.end_ns.saturating_sub(e.start_ns)) as f64 / 1e9;
            records.push(layer_record(&format!("experiments.{}_s", e.slug), s));
        }
        // A traced reproduction does the same work: its extra wall time
        // against the untraced phase is the tracing overhead.
        records.push(layer_record(
            "trace.overhead_pct",
            100.0 * (secs(rep.wall) * throughput - 1.0),
        ));
        let tmp = TempDir::new(&ctx.out.join("tmp"), "repro-layers")?;
        let request = layers::Request {
            cfg: ExpConfig::default(),
            registry: false,
            dir: tmp.path().to_path_buf(),
            blobs: rep
                .entries
                .iter()
                .map(|e| e.len)
                .filter(|&l| l > 0)
                .collect(),
        };
        let layers_start = nanos(epoch.elapsed());
        let layers_root = trace.add(0, "layers", layers_start, layers_start, "", "");
        records.extend(layers::run(&request, &mut trace, layers_root, epoch)?);
        trace.close(layers_root, nanos(epoch.elapsed()));
        trace.write(&ctx.out, "repro", ctx.seed)?;
    }
    Ok(Outcome {
        correct: tally.2 == 0,
        attempted: tally.0,
        failed: tally.1,
        records,
    })
}

/// `child repro`: build the corpus, say `ready`, and on `go` render the
/// registry entry by entry.
pub fn child_main() -> Result<(), String> {
    let cfg = ExpConfig::default();
    let t = Instant::now();
    black_box(traces::corpus(cfg.image_scale));
    println!("{TAG}ready {}", nanos(t.elapsed()));
    let mut line = String::new();
    std::io::stdin()
        .lock()
        .read_line(&mut line)
        .map_err(|e| format!("read stdin: {e}"))?;
    if line.trim() != "go" {
        return Ok(());
    }
    let t0 = Instant::now();
    for entry in runner::experiments() {
        let start = nanos(t0.elapsed());
        let mut body = None;
        let outcome = runner::run_registry(cfg, std::slice::from_ref(&entry), |report| {
            body = Some(format!("{report}\n"))
        });
        let end = nanos(t0.elapsed());
        if let Some(Err(e)) = outcome.first().map(|o| &o.result) {
            eprintln!("benchmark: {} failed: {e}", entry.0);
        }
        let (len, hash) = body
            .as_deref()
            .map_or((0, 0), |b| (b.len(), body_hash(b.as_bytes())));
        let ok = runner::failed(&outcome) == 0 && body.is_some();
        println!(
            "{TAG}entry {} {start} {end} {} {len} {hash}",
            entry_slug(entry.0),
            u8::from(ok)
        );
    }
    println!("{TAG}done {}", vm_hwm_kb(std::process::id()).unwrap_or(0));
    Ok(())
}
