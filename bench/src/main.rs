//! `benchmark`: one command for the paper reproduction and its serving
//! path. See `BENCHMARK.md` for the workloads, the metrics and why each
//! was chosen.
//!
//! ```text
//! benchmark run [--workload NAME] [--seed N] [--seconds N] [--trace [0|1]]
//! benchmark compare --base FILE|DIR... --head FILE|DIR...
//! ```
//!
//! `run` prints every metric of each workload and, as its last line, one
//! JSON summary object; it also writes a result file per run under
//! `<target dir>/bench/results/`. `compare` judges two sets of result
//! files against the bounds in `BENCHMARK.json`.

mod catalog;
mod client;
mod compare;
mod fleet;
mod json;
mod layers;
mod mix;
mod record;
mod repro;
mod serve;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use crate::record::{result_line, summary_line, Stamp};

const USAGE: &str =
    "usage: benchmark run [--workload NAME] [--seed N] [--seconds N] [--trace [0|1]]\n       \
                     benchmark compare --base FILE|DIR... --head FILE|DIR...";

/// The workloads, in the order a full run takes them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Repro,
    ServeHot,
    ServeDisk,
    ClusterHot,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::Repro,
        Workload::ServeHot,
        Workload::ServeDisk,
        Workload::ClusterHot,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Repro => "repro",
            Workload::ServeHot => "serve_hot",
            Workload::ServeDisk => "serve_disk",
            Workload::ClusterHot => "cluster_hot",
        }
    }
}

/// Where a run finds the repository and puts its output, and what it
/// was asked for.
pub struct Ctx {
    /// The repository root: the parent of this package.
    pub repo: PathBuf,
    /// The cargo target directory the benchmark was built into; the
    /// server binaries are built there too.
    pub target: PathBuf,
    /// `<target>/bench`: result files, trace files, scratch stores.
    pub out: PathBuf,
    pub seed: u64,
    pub seconds: u64,
}

struct RunArgs {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut out = RunArgs {
        workloads: Workload::ALL.to_vec(),
        seed: 1,
        seconds: 20,
        trace: false,
    };
    let mut i = 0;
    while i < args.len() {
        let (key, inline) = match args[i].split_once('=') {
            Some((k, v)) => (k, Some(v.to_string())),
            None => (args[i].as_str(), None),
        };
        let mut value = || -> Result<String, String> {
            if let Some(v) = inline.clone() {
                return Ok(v);
            }
            i += 1;
            args.get(i)
                .cloned()
                .ok_or_else(|| format!("{key} needs a value"))
        };
        let number = |v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{key}: {v:?} is not a whole number"))
        };
        match key {
            "--workload" => {
                let v = value()?;
                let wl = Workload::ALL
                    .into_iter()
                    .find(|w| w.name() == v)
                    .ok_or_else(|| {
                        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                        format!("unknown workload {v:?}; choose one of {}", names.join(", "))
                    })?;
                out.workloads = vec![wl];
            }
            "--seed" => out.seed = number(value()?)?,
            "--seconds" => out.seconds = number(value()?)?.max(1),
            "--trace" => {
                let explicit = inline.clone().or_else(|| {
                    args.get(i + 1)
                        .filter(|v| *v == "0" || *v == "1")
                        .inspect(|_| i += 1)
                        .cloned()
                });
                out.trace = match explicit.as_deref() {
                    None | Some("1") => true,
                    Some("0") => false,
                    Some(v) => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                };
            }
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
        i += 1;
    }
    Ok(out)
}

fn git_rev(repo: &Path) -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .current_dir(repo)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|r| !r.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn run(args: &[String]) -> Result<(), String> {
    let args = parse_run_args(args)?;
    let repo = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .ok_or("package has no parent directory")?
        .to_path_buf();
    let exe = std::env::current_exe()
        .map_err(|e| format!("cannot locate the benchmark executable: {e}"))?;
    let target = exe
        .parent()
        .and_then(Path::parent)
        .ok_or("the benchmark executable is not inside a cargo target directory")?
        .to_path_buf();
    let out = target.join("bench");
    let results = out.join("results");
    std::fs::create_dir_all(&results).map_err(|e| format!("create {}: {e}", results.display()))?;
    let ctx = Ctx {
        repo,
        target,
        out,
        seed: args.seed,
        seconds: args.seconds,
    };
    let rev = git_rev(&ctx.repo);
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    for wl in args.workloads {
        eprintln!(
            "benchmark: {} seed={} seconds={} trace={}",
            wl.name(),
            ctx.seed,
            ctx.seconds,
            u8::from(args.trace)
        );
        let outcome = match wl {
            Workload::Repro => repro::run(&ctx, args.trace)?,
            _ => serve::run(&ctx, wl, args.trace)?,
        };
        let outcome = catalog::complete(outcome, args.trace);
        let stamp = Stamp {
            workload: wl.name(),
            seed: ctx.seed,
            trace: args.trace,
            rev: rev.clone(),
            nproc,
        };
        let line = result_line(&stamp, &outcome);
        let started = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_millis());
        let file = results.join(format!(
            "{}-seed{}-trace{}-{started}-{}.json",
            wl.name(),
            ctx.seed,
            u8::from(args.trace),
            std::process::id()
        ));
        std::fs::write(&file, format!("{line}\n"))
            .map_err(|e| format!("write {}: {e}", file.display()))?;
        for r in &outcome.records {
            eprintln!("  {:<32} {:>16} {}", r.name, json::num(r.median), r.unit);
        }
        println!("{}", summary_line(&outcome, args.trace));
    }
    Ok(())
}

fn child(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("repro") => repro::child_main(),
        Some("layers") => layers::child_main(&args[1..]),
        _ => Err("usage: benchmark child repro|layers ...".to_string()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]).map(|()| true),
        Some("compare") => compare::main(&args[1..]),
        Some("child") => child(&args[1..]).map(|()| true),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("benchmark: {msg}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn run_flags_take_both_spellings() {
        let a = parse_run_args(&strings(&[
            "--workload",
            "serve_disk",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "0",
        ]))
        .unwrap();
        assert_eq!(a.workloads, vec![Workload::ServeDisk]);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 12, false));
        let b = parse_run_args(&strings(&["--workload=repro", "--seed=3", "--trace"])).unwrap();
        assert_eq!(b.workloads, vec![Workload::Repro]);
        assert_eq!((b.seed, b.seconds, b.trace), (3, 20, true));
        let c = parse_run_args(&strings(&["--trace", "--seed", "4"])).unwrap();
        assert!(c.trace);
        assert_eq!(c.seed, 4);
        assert_eq!(c.workloads.len(), 4);
        assert!(parse_run_args(&strings(&["--workload", "nope"])).is_err());
        assert!(parse_run_args(&strings(&["--seed"])).is_err());
        assert!(parse_run_args(&strings(&["--trace=2"])).is_err());
        assert!(parse_run_args(&strings(&["--bogus"])).is_err());
    }
}
