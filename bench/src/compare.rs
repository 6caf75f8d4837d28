//! `benchmark compare`: judge a change against its parent from two sets
//! of result files, metric by metric and workload by workload, under the
//! bounds `BENCHMARK.json` fixes.
//!
//! Runs pair up in seed order, so run both sides with the same seeds.
//! Each side needs at least [`MIN_RUNS`] untraced runs per workload.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::json::{self, Json};
use crate::stats::{self, Better};

/// Fewest runs per side and workload a verdict rests on.
pub const MIN_RUNS: usize = 10;

/// One end-to-end metric as `BENCHMARK.json` defines it.
struct Metric {
    name: String,
    better: Better,
    bound: f64,
}

fn load_spec(path: &Path) -> Result<Vec<Metric>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let spec = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let list = spec
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without a name")?;
            let better = match m.get("better").and_then(Json::as_str) {
                Some("lower") => Better::Lower,
                Some("higher") => Better::Higher,
                other => return Err(format!("metric {name}: bad better {other:?}")),
            };
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("metric {name}: no bound"))?;
            Ok(Metric {
                name: name.to_string(),
                better,
                bound,
            })
        })
        .collect()
}

/// workload → seed → metric → value, from every untraced run in `paths`
/// (files, or directories of files; each file holds one run per line).
type Runs = BTreeMap<String, BTreeMap<u64, BTreeMap<String, f64>>>;

fn load_runs(paths: &[PathBuf]) -> Result<Runs, String> {
    let mut files = Vec::new();
    for p in paths {
        if p.is_dir() {
            let mut inside: Vec<PathBuf> = std::fs::read_dir(p)
                .map_err(|e| format!("read {}: {e}", p.display()))?
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|f| f.extension().is_some_and(|x| x == "json" || x == "jsonl"))
                .collect();
            inside.sort();
            files.extend(inside);
        } else {
            files.push(p.clone());
        }
    }
    let mut runs = Runs::new();
    for file in files {
        let text =
            std::fs::read_to_string(&file).map_err(|e| format!("read {}: {e}", file.display()))?;
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            let run = json::parse(line).map_err(|e| format!("{}: {e}", file.display()))?;
            if run.get("trace") == Some(&Json::Bool(true)) {
                continue;
            }
            let workload = run
                .get("workload")
                .and_then(Json::as_str)
                .ok_or("run without a workload")?;
            let seed = run
                .get("seed")
                .and_then(Json::as_f64)
                .ok_or("run without a seed")?;
            let mut metrics = BTreeMap::new();
            for r in run
                .get("records")
                .and_then(Json::as_array)
                .unwrap_or_default()
            {
                if let (Some(name), Some(v)) = (
                    r.get("name").and_then(Json::as_str),
                    r.get("median").and_then(Json::as_f64),
                ) {
                    metrics.insert(name.to_string(), v);
                }
            }
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            runs.entry(workload.to_string())
                .or_default()
                .insert(seed as u64, metrics);
        }
    }
    Ok(runs)
}

fn parse_args(args: &[String]) -> Result<(Vec<PathBuf>, Vec<PathBuf>), String> {
    let (mut base, mut head) = (Vec::new(), Vec::new());
    let mut side: Option<&mut Vec<PathBuf>> = None;
    for arg in args {
        match arg.as_str() {
            "--base" => side = Some(&mut base),
            "--head" => side = Some(&mut head),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            path => side
                .as_mut()
                .ok_or("give --base or --head before paths")?
                .push(PathBuf::from(path)),
        }
    }
    if base.is_empty() || head.is_empty() {
        return Err("usage: benchmark compare --base FILE|DIR... --head FILE|DIR...".into());
    }
    Ok((base, head))
}

/// Print one row per (workload, metric); exit status 1 if any is worse.
pub fn main(args: &[String]) -> Result<bool, String> {
    let (base_paths, head_paths) = parse_args(args)?;
    let metrics = load_spec(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))?;
    let base = load_runs(&base_paths)?;
    let head = load_runs(&head_paths)?;
    println!(
        "{:<12} {:<12} {:>12} {:>25} {:>12} {:>25} {:>5} {:>6}  verdict",
        "workload",
        "metric",
        "base median",
        "base q1..q3",
        "head median",
        "head q1..q3",
        "won",
        "bound"
    );
    let mut worse = false;
    for (workload, base_runs) in &base {
        let Some(head_runs) = head.get(workload) else {
            return Err(format!("head has no {workload} runs"));
        };
        for (side, runs) in [("base", base_runs), ("head", head_runs)] {
            if runs.len() < MIN_RUNS {
                return Err(format!(
                    "{side} has {} {workload} runs; at least {MIN_RUNS} are needed",
                    runs.len()
                ));
            }
        }
        for m in &metrics {
            let values = |runs: &BTreeMap<u64, BTreeMap<String, f64>>| -> Vec<f64> {
                runs.values()
                    .filter_map(|r| r.get(&m.name).copied())
                    .collect()
            };
            let (b, h) = (values(base_runs), values(head_runs));
            let Some(c) = stats::compare(&b, &h, m.bound, m.better) else {
                continue;
            };
            worse |= c.verdict == stats::Verdict::Worse;
            let q = |q: [f64; 3]| format!("{:.4}..{:.4}", q[0], q[2]);
            println!(
                "{:<12} {:<12} {:>12.4} {:>25} {:>12.4} {:>25} {:>5.2} {:>6.2}  {}",
                workload,
                m.name,
                c.base_median,
                q(c.base_quartiles),
                c.head_median,
                q(c.head_quartiles),
                c.won,
                m.bound,
                c.verdict.label()
            );
        }
    }
    Ok(!worse)
}
