//! `memo-serve`: serve the reproduction's tables, figures, and sweeps
//! over HTTP, with a bounded queue, a worker pool, and a result cache.

use std::time::Duration;

use memo_experiments::cli;
use memo_serve::server::{self, ServerConfig};

const FLAGS: [(&str, &str); 8] = [
    ("--addr=", "bind address (default 127.0.0.1:7070; port 0 = ephemeral)"),
    ("--workers=", "worker threads (default: MEMO_JOBS or all cores)"),
    ("--queue-cap=", "queued connections before shedding 503 (default 128)"),
    ("--cache-cap=", "rendered results kept in cache (default 256)"),
    ("--read-timeout-ms=", "per-connection read timeout (default 10000)"),
    ("--write-timeout-ms=", "per-connection write timeout (default 10000)"),
    ("--store-dir=", "persist results and traces here; serve them across restarts"),
    ("--node-id=", "cluster identity stamped on responses as x-memo-node"),
];

fn main() {
    let args = cli::enforce(
        "memo-serve",
        "Serves tables, figures, and custom sweeps over HTTP with a memoizing result cache.",
        &FLAGS,
    );
    let mut config = ServerConfig::default();
    if let Some(addr) = args.value("--addr=") {
        config.addr = addr;
    }
    if let Some(v) = args.value::<usize>("--workers=") {
        config.workers = v.max(1);
    }
    if let Some(v) = args.value::<usize>("--queue-cap=") {
        config.queue_capacity = v.max(1);
    }
    if let Some(v) = args.value::<usize>("--cache-cap=") {
        config.cache_capacity = v.max(8);
    }
    if let Some(ms) = args.value::<u64>("--read-timeout-ms=") {
        config.read_timeout = Duration::from_millis(ms.max(1));
    }
    if let Some(ms) = args.value::<u64>("--write-timeout-ms=") {
        config.write_timeout = Duration::from_millis(ms.max(1));
    }
    if let Some(dir) = args.value::<String>("--store-dir=") {
        config.store_dir = Some(dir.into());
    }
    if let Some(id) = args.value::<String>("--node-id=").filter(|id| !id.is_empty()) {
        config.node_id = Some(id);
    }

    match server::start(&config) {
        Ok(handle) => {
            println!(
                "memo-serve listening on http://{} ({} workers, queue {}, cache {}{})",
                handle.addr(),
                config.workers.max(1),
                config.queue_capacity,
                config.cache_capacity,
                config.store_dir.as_ref().map_or(String::new(), |d| format!(
                    ", store {}",
                    d.display()
                ))
            );
            println!("endpoints: /healthz /metrics /v1/table/{{1..13}} /v1/figure/{{2..4}} /v1/sweep /v1/region /quitquitquit");
            handle.wait();
            println!("memo-serve drained; bye");
        }
        Err(err) => {
            eprintln!("memo-serve: failed to bind {}: {err}", config.addr);
            std::process::exit(1);
        }
    }
}
