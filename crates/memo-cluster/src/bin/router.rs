//! `memo-router`: a consistent-hash router over a memo-serve fleet —
//! replica failover, health probing, and read-repair in one binary.

use std::time::Duration;

use memo_cluster::router::{self, RouterConfig};
use memo_cluster::topology::Node;
use memo_experiments::cli;

const FLAGS: [(&str, &str); 10] = [
    ("--addr=", "bind address (default 127.0.0.1:7170; port 0 = ephemeral)"),
    ("--nodes=", "backend fleet: name=host:port,name=host:port (names optional: bare host:port gets n0,n1,…)"),
    ("--rf=", "owners per key (default 2, clamped to the fleet size)"),
    ("--workers=", "worker threads (default: MEMO_JOBS or all cores)"),
    ("--queue-cap=", "queued connections before shedding 503 (default 128)"),
    ("--probe-interval-ms=", "time between /healthz sweeps of the fleet (default 500)"),
    ("--probe-timeout-ms=", "per-node probe timeout (default 250)"),
    ("--connect-timeout-ms=", "backend connect timeout (default 1000)"),
    ("--read-timeout-ms=", "client and backend read timeout (default 10000)"),
    ("--write-timeout-ms=", "client write timeout (default 10000)"),
];

/// Parse `--nodes=`: comma-separated `name=host:port` entries, with
/// bare `host:port` entries auto-named `n0`, `n1`, … by position.
fn parse_nodes(spec: &str) -> Result<Vec<Node>, String> {
    let mut nodes = Vec::new();
    for (idx, entry) in spec.split(',').filter(|e| !e.is_empty()).enumerate() {
        // `name=host:port` — but a bare `host:port` contains no `=`.
        let (name, addr) = match entry.split_once('=') {
            Some((name, addr)) if !name.is_empty() => (name.to_string(), addr.to_string()),
            Some((_, _)) => return Err(format!("empty node name in {entry:?}")),
            None => (format!("n{idx}"), entry.to_string()),
        };
        if !addr.contains(':') {
            return Err(format!("node address {addr:?} is not host:port"));
        }
        if nodes.iter().any(|n: &Node| n.name == name) {
            return Err(format!("duplicate node name {name:?}"));
        }
        nodes.push(Node { name, addr });
    }
    if nodes.is_empty() {
        return Err("--nodes= lists no backends".to_string());
    }
    Ok(nodes)
}

fn main() {
    let args = cli::enforce(
        "memo-router",
        "Routes requests over a memo-serve fleet by consistent hash, with failover and read-repair.",
        &FLAGS,
    );
    let millis = |prefix| args.value::<u64>(prefix).map(|ms| Duration::from_millis(ms.max(1)));
    let mut config = RouterConfig::default();
    if let Some(addr) = args.value("--addr=") {
        config.addr = addr;
    }
    match args.value::<String>("--nodes=").as_deref().map(parse_nodes) {
        Some(Ok(nodes)) => config.nodes = nodes,
        Some(Err(err)) => {
            eprintln!("memo-router: {err}");
            std::process::exit(2);
        }
        None => {
            eprintln!("memo-router: --nodes= is required (try --help)");
            std::process::exit(2);
        }
    }
    if let Some(v) = args.value::<usize>("--rf=") {
        config.replication = v.max(1);
    }
    if let Some(v) = args.value::<usize>("--workers=") {
        config.workers = v.max(1);
    }
    if let Some(v) = args.value::<usize>("--queue-cap=") {
        config.queue_capacity = v.max(1);
    }
    if let Some(d) = millis("--probe-interval-ms=") {
        config.probe_interval = d;
    }
    if let Some(d) = millis("--probe-timeout-ms=") {
        config.probe_timeout = d;
    }
    if let Some(d) = millis("--connect-timeout-ms=") {
        config.connect_timeout = d;
    }
    if let Some(d) = millis("--read-timeout-ms=") {
        config.read_timeout = d;
        config.io_timeout = d;
    }
    if let Some(d) = millis("--write-timeout-ms=") {
        config.write_timeout = d;
    }

    match router::start(&config) {
        Ok(handle) => {
            let fleet: Vec<String> =
                config.nodes.iter().map(|n| format!("{}={}", n.name, n.addr)).collect();
            println!(
                "memo-router listening on http://{} (rf {}, {} workers, fleet {})",
                handle.addr(),
                config.replication.min(config.nodes.len()).max(1),
                config.workers.max(1),
                fleet.join(",")
            );
            println!("endpoints: /healthz /metrics /quitquitquit + every memo-serve GET route");
            handle.wait();
            println!("memo-router drained; bye");
        }
        Err(err) => {
            eprintln!("memo-router: failed to start on {}: {err}", config.addr);
            std::process::exit(1);
        }
    }
}
