//! `memo-load`: deterministic load generator for a running memo-serve.
//!
//! Exits nonzero when any request failed, with the failure class in the
//! code so CI can tell a sick server from a sick network: 1 for 5xx
//! responses other than the server's deliberate 503 shedding (or for no
//! request completing at all), 3 for transport failures (connection
//! reset, EOF mid-response, protocol garbage). Shed 503s alone exit 0 —
//! backpressure is the server working as designed. Writes
//! `BENCH_serve.json` with throughput, an error breakdown, and cold vs
//! cached latency quantiles.

use std::time::Duration;

use memo_experiments::cli;
use memo_serve::load::{self, LoadConfig, Mode};

const FLAGS: [(&str, &str); 10] = [
    ("--addr=", "server address (default 127.0.0.1:7070)"),
    ("--cluster", "target is a memo-router: per-node stats, rebalance/failover/read-repair counters"),
    ("--connections=", "concurrent connections (default 32)"),
    ("--duration-s=", "run length in seconds (default 15)"),
    ("--mode=", "closed (default) or open"),
    ("--rate=", "per-connection requests/sec in open mode (default 50)"),
    ("--seed=", "request-mix seed (default 1998)"),
    ("--store-miss-rate=", "fraction of requests aimed at never-cached keys (default 0)"),
    ("--out=", "report path (default BENCH_serve.json)"),
    ("--expect-warm", "fail unless some responses came from cache (memory or disk)"),
];

fn main() {
    let args = cli::enforce(
        "memo-load",
        "Generates deterministic load against a running memo-serve and reports latency.",
        &FLAGS,
    );
    let mut config = LoadConfig::default();
    if let Some(addr) = args.value("--addr=") {
        config.addr = addr;
    }
    config.cluster = args.has("--cluster");
    if let Some(v) = args.value::<usize>("--connections=") {
        config.connections = v.max(1);
    }
    if let Some(v) = args.value::<u64>("--duration-s=") {
        config.duration = Duration::from_secs(v.max(1));
    }
    if let Some(v) = args.value("--seed=") {
        config.seed = v;
    }
    if let Some(f) = args.value::<f64>("--store-miss-rate=") {
        if !(0.0..=1.0).contains(&f) {
            eprintln!("memo-load: --store-miss-rate must be a fraction in [0, 1], got {f}");
            std::process::exit(2);
        }
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        {
            config.store_miss_permille = (f * 1000.0).round() as u32;
        }
    }
    let rate = args.value("--rate=").unwrap_or(50);
    match args.value::<String>("--mode=").as_deref() {
        None | Some("closed") => config.mode = Mode::Closed,
        Some("open") => config.mode = Mode::Open { rate },
        Some(other) => {
            eprintln!("memo-load: --mode must be 'closed' or 'open', got {other:?}");
            std::process::exit(2);
        }
    }
    let out_path = args.value("--out=").unwrap_or_else(|| "BENCH_serve.json".to_string());

    println!(
        "memo-load: {} connections against {} for {:?} ({} mode, seed {})",
        config.connections,
        config.addr,
        config.duration,
        match config.mode {
            Mode::Closed => "closed".to_string(),
            Mode::Open { rate } => format!("open@{rate}rps"),
        },
        config.seed
    );
    let report = load::run(&config);
    println!("{}", report.summary());

    let json = report.to_json(&config);
    if let Err(err) = std::fs::write(&out_path, &json) {
        eprintln!("memo-load: could not write {out_path}: {err}");
        std::process::exit(1);
    }
    println!("report written to {out_path}");

    if report.requests == 0 {
        eprintln!("memo-load: no request completed — is the server up at {}?", config.addr);
        std::process::exit(1);
    }
    // Server-side failures (unexpected 5xx) outrank transport ones:
    // exit 1 points at the server, exit 3 at the path to it.
    if report.other_5xx > 0 {
        eprintln!(
            "memo-load: {} request(s) got a non-backpressure 5xx response",
            report.other_5xx
        );
        std::process::exit(1);
    }
    if report.transport_errors > 0 {
        eprintln!(
            "memo-load: {} request(s) failed in transport (no HTTP response)",
            report.transport_errors
        );
        std::process::exit(3);
    }
    if args.has("--expect-warm") && report.cache_hits + report.cache_disk_hits == 0 {
        eprintln!(
            "memo-load: --expect-warm, but every artifact response was computed fresh \
             (memory hits = 0, disk hits = 0) — is the cache or store wired up?"
        );
        std::process::exit(1);
    }
}
