//! `memo-experiments <word>`: print one row of [`runner::ARTIFACTS`]
//! (exactly `docs/outputs/<word>.txt` at the default scale), run every
//! row with a pass/fail summary (`all`), or run a custom sweep (`sweep`).
//! `--help` lists the words and their flags.

use std::time::Instant;

use memo_experiments::cli::{self, Decision};
use memo_experiments::runner::{self, SweepQuery, ARTIFACTS};
use memo_experiments::{figures, regions, ExpConfig, ExperimentError};

/// Every word with its usage line: the artifact rows, then `all` and `sweep`.
fn words() -> impl Iterator<Item = (&'static str, &'static str)> {
    let all = ("all", "every artifact above in sequence, then a pass/fail summary");
    let sweep = ("sweep", "a custom hit-ratio sweep over the sample applications");
    ARTIFACTS.iter().map(|a| (a.cli, a.about)).chain([all, sweep])
}

/// The flags `word` accepts.
fn flags(word: &str) -> &'static [(&'static str, &'static str)] {
    match word {
        "fig2" => &[("--csv", "fig2: also dump the scatter points as CSV")],
        "sweep" => &[
            ("--entries=", "sweep: comma-separated entry counts (default 32)"),
            ("--ways=", "sweep: associativities - direct, full, or ways (default 4)"),
        ],
        "regions" => &[("--bench-out=", "regions: also write the per-kernel results as JSON")],
        _ => &[],
    }
}

fn usage() -> String {
    let lines: String = words().map(|(word, line)| format!("\n  {word:<18} {line}")).collect();
    let about = format!("Regenerates the paper's tables and figures.\n\nWords:{lines}");
    let all_flags: Vec<_> = words().flat_map(|(word, _)| flags(word).iter().copied()).collect();
    cli::usage("memo-experiments <WORD>", &about, &all_flags)
}

fn main() -> Result<(), ExperimentError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let accepted: Vec<_> = words().map(|(word, _)| (word, flags(word))).collect();
    match cli::validate_word(&accepted, &args) {
        Decision::Run => {}
        Decision::Help => {
            println!("{}", usage());
            std::process::exit(0);
        }
        Decision::Reject(why) => {
            eprintln!("memo-experiments: {why}\n\n{}", usage());
            std::process::exit(2);
        }
    }
    let value_of = |prefix: &str| args.iter().find_map(|a| a.strip_prefix(prefix));
    let cfg = ExpConfig::from_env();
    match args[0].as_str() {
        "all" => all(cfg),
        "sweep" => {
            let query = SweepQuery::parse(value_of("--entries="), value_of("--ways="))?;
            println!("{}", runner::sweep(cfg, &query)?);
        }
        word => {
            let row = runner::artifact(word).expect("validate_word admits only known words");
            println!("{}", (row.render)(cfg)?);
            // Validation admits `--csv` only after fig2 and
            // `--bench-out=` only after regions.
            if args.iter().any(|a| a == "--csv") {
                println!("{}", figures::figure2(cfg)?.points_csv());
            }
            if let Some(path) = value_of("--bench-out=") {
                std::fs::write(path, regions::bench_json(cfg)?).expect("--bench-out is writable");
                eprintln!("wrote {path}");
            }
        }
    }
    Ok(())
}

/// The full reproduction. Each row runs under its own catch barrier: a
/// typed error or a panic is reported and the run continues, and the
/// process exits 1 if any row failed — including a scorecard claim that
/// does not hold.
fn all(cfg: ExpConfig) {
    let total_start = Instant::now();
    let outcomes = runner::run_registry(cfg, &runner::experiments(), |report| println!("{report}"));
    let fusion = memo_workloads::suite::fusion_counters();
    let avoided = fusion.points_fused.saturating_sub(fusion.grids_fused);
    println!(
        "\nsweep fusion: {} grids fused covering {} sweep points ({avoided} full replays \
         avoided); {} direct replays (stateful/unfusable paths)",
        fusion.grids_fused, fusion.points_fused, fusion.direct_replays
    );
    println!("\n=== experiment summary ===");
    for o in &outcomes {
        match &o.result {
            Ok(()) => println!("  PASS  {:<16} {:>7} ms", o.name, o.ms),
            Err(why) => {
                eprintln!("[all] {} FAILED: {why}", o.name);
                println!("  FAIL  {:<16} {:>7} ms — {why}", o.name, o.ms);
            }
        }
    }
    let (ran, failed) = (outcomes.len(), runner::failed(&outcomes));
    let ms = total_start.elapsed().as_millis();
    println!("{} of {ran} experiments passed in {ms} ms", ran - failed);
    if failed > 0 {
        std::process::exit(1);
    }
}
