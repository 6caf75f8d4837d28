//! The three serving workloads, measured from outside: the benchmark
//! spawns the release `memo-serve` and `memo-router` binaries and loads
//! them through its own keep-alive client. Load is closed-loop — the
//! callers (scripts, notebooks, CI) each wait for their reply — from one
//! process with [`LANES`] client threads, one connection each.
//!
//! * `serve_hot`: one node, no store, every artifact request a memory
//!   hit. Isolates the HTTP, queue, pool and cache path.
//! * `serve_disk`: one node with an 8-entry memory cache over a store
//!   that was flushed and reopened. Reads come from disk while
//!   never-requested sweeps render and write at the same time.
//! * `cluster_hot`: two nodes behind the router, both warm. The same
//!   traffic as `serve_hot` plus one hop.
//!
//! A run sets up [`FLEETS`] fleets from nothing, one after another, and
//! then each serves an equal segment of the timed phase. Some state lives
//! as long as a fleet and decides its speed: which pooled router
//! connections the kernel delays ACKs on, which allocator arenas the
//! workers touch. A run that sampled one fleet would read that state,
//! not the code, so a run samples several. The set-ups all come first
//! because on a virtual machine a set-up that follows an idle stretch
//! (a hot segment barely uses the CPU) ran up to twice as slow.

use std::collections::HashMap;
use std::path::Path;
use std::process::Command;
use std::thread;
use std::time::{Duration, Instant};

use memo_experiments::{runner, ExpConfig};

use crate::catalog::layer_record;
use crate::client::{fetch, Conn};
use crate::fleet::{clean_command, Bins, Fleet, Server, TempDir, FETCH_TIMEOUT};
use crate::layers::{self, body_hash, nanos};
use crate::mix::{self, Mix, Stream, StreamId, Target, HOT_KEYS, READ_SET_LEN};
use crate::record::{latency_records, Outcome, Record, E2E};
use crate::stats::{median, nearest_rank};
use crate::trace::{Trace, MAX_LANE_SPANS};
use crate::{Ctx, Workload};

/// Client threads, one keep-alive connection each.
const LANES: usize = 2;
/// Fleets per run, each set up from nothing and timed for an equal
/// segment; `setup_s` is the median set-up.
const FLEETS: usize = 5;
/// The servers' problem size.
const SERVE_CFG: ExpConfig = ExpConfig {
    image_scale: 16,
    sci_n: 16,
};
/// Never-requested sweeps per lane and segment re-rendered in-process
/// after the segment and compared byte for byte; the rest are checked
/// for their shape.
const SWEEP_FULL_CHECKS: usize = 4;
/// Read and write timeout of load connections.
const IO_TIMEOUT: Duration = Duration::from_secs(30);
/// How long read-repair may take to warm the replicas after set-up.
const REPAIR_TIMEOUT: Duration = Duration::from_secs(30);
/// First line of every never-requested sweep.
const SWEEP_TITLE: &[u8] = b"Sweep: hit ratio vs LUT size (4-way)\n";

/// Render `path` in-process exactly as the server does, trailing newline
/// included.
fn render(path: &str, base: ExpConfig) -> Result<Vec<u8>, String> {
    let (route, query) = path.split_once('?').unwrap_or((path, ""));
    let param = |name: &str| {
        query
            .split('&')
            .find_map(|kv| kv.strip_prefix(name).and_then(|v| v.strip_prefix('=')))
    };
    let mut cfg = base;
    if let Some(scale) = param("scale") {
        cfg.image_scale = scale.parse().map_err(|_| format!("bad scale in {path}"))?;
    }
    let number = |n: &str| {
        n.parse::<usize>()
            .map_err(|_| format!("bad number in {path}"))
    };
    let text = if let Some(n) = route.strip_prefix("/v1/table/") {
        runner::table(number(n)?, cfg)
    } else if let Some(n) = route.strip_prefix("/v1/figure/") {
        runner::figure(number(n)?, cfg)
    } else if route == "/v1/sweep" {
        runner::SweepQuery::parse(param("entries"), param("ways"))
            .and_then(|q| runner::sweep(cfg, &q))
    } else if route == "/v1/region" {
        runner::region(cfg)
    } else {
        return Err(format!("no reference render for {path}"));
    };
    text.map(|t| format!("{t}\n").into_bytes())
        .map_err(|e| format!("reference render of {path}: {e}"))
}

/// The bytes every deterministic response must equal.
struct Refs {
    hot: Vec<Vec<u8>>,
    /// Tables 1–4 for the read set; their renders do not depend on the
    /// configuration, so one per table covers every scale.
    tables: Vec<Vec<u8>>,
}

enum Expect<'a> {
    Bytes(&'a [u8]),
    Prefix(&'a [u8]),
}

impl Refs {
    fn compute(read_set: bool) -> Result<Refs, String> {
        let hot = HOT_KEYS
            .iter()
            .map(|p| render(p, SERVE_CFG))
            .collect::<Result<_, _>>()?;
        let tables = if read_set {
            (0..4)
                .map(|i| render(&mix::read_key(i), SERVE_CFG))
                .collect::<Result<_, _>>()?
        } else {
            Vec::new()
        };
        Ok(Refs { hot, tables })
    }

    fn expect(&self, target: Target) -> Expect<'_> {
        match target {
            Target::Hot(i) => Expect::Bytes(&self.hot[i]),
            Target::Healthz => Expect::Bytes(b"ok\n"),
            Target::Metrics => Expect::Prefix(b"# TYPE"),
            Target::Read(i) => Expect::Bytes(&self.tables[mix::read_table(i) - 1]),
            Target::SweepMiss(_) => Expect::Prefix(SWEEP_TITLE),
        }
    }
}

/// Operations attempted and failed; `wrong` counts responses whose bytes
/// differ from the reference.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    attempted: u64,
    failed: u64,
    wrong: u64,
}

impl Tally {
    fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
    }

    /// Count one response; `true` if it was a good one.
    fn response(&mut self, status: u16, body: &[u8], expect: &Expect<'_>) -> bool {
        self.attempted += 1;
        let right = match expect {
            Expect::Bytes(b) => body == *b,
            Expect::Prefix(p) => body.starts_with(p),
        };
        if !(200..300).contains(&status) {
            self.failed += 1;
            false
        } else if !right {
            self.failed += 1;
            self.wrong += 1;
            false
        } else {
            true
        }
    }
}

/// Request every target on fresh connections, split over the lanes, and
/// check each response in full. Returns how many were rendered or loaded
/// from disk rather than served from memory.
fn warm(addr: &str, targets: &[Target], refs: &Refs, tally: &mut Tally) -> u64 {
    let results: Vec<(Tally, u64)> = thread::scope(|s| {
        let handles: Vec<_> = (0..LANES)
            .map(|lane| {
                s.spawn(move || {
                    let mut t = Tally::default();
                    let mut rendered = 0;
                    for target in targets.iter().skip(lane).step_by(LANES) {
                        match fetch(addr, &target.path(), FETCH_TIMEOUT) {
                            Ok(r) => {
                                t.response(r.status, &r.body, &refs.expect(*target));
                                rendered +=
                                    u64::from(matches!(r.cache.as_deref(), Some("miss" | "disk")));
                            }
                            Err(_) => {
                                t.attempted += 1;
                                t.failed += 1;
                            }
                        }
                    }
                    (t, rendered)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("warm lane panicked"))
            .collect()
    });
    results
        .iter()
        .map(|(t, rendered)| {
            tally.add(*t);
            rendered
        })
        .sum()
}

/// A server binary with the settings every fleet member shares: the
/// serving scale, two render threads, four workers, an ephemeral port.
fn server_command(bin: &Path, args: &[String]) -> Command {
    let mut cmd = clean_command(bin);
    cmd.env("MEMO_SCALE", SERVE_CFG.image_scale.to_string())
        .env("MEMO_SCI_N", SERVE_CFG.sci_n.to_string())
        .env("MEMO_JOBS", "2")
        .args(["--addr=127.0.0.1:0", "--workers=4"])
        .args(args);
    cmd
}

fn hot_targets() -> Vec<Target> {
    (0..HOT_KEYS.len()).map(Target::Hot).collect()
}

/// Bring one workload's fleet up, warm, from nothing in `dir`.
fn setup(
    wl: Workload,
    bins: &Bins,
    dir: &Path,
    refs: &Refs,
    tally: &mut Tally,
) -> Result<Fleet, String> {
    match wl {
        Workload::ServeHot => {
            let node = Server::spawn("memo-serve", server_command(&bins.serve, &[]))?;
            node.wait_healthy(b"ok\n")?;
            warm(node.addr(), &hot_targets(), refs, tally);
            Ok(Fleet {
                router: None,
                nodes: vec![node],
            })
        }
        Workload::ServeDisk => {
            let args = [
                "--cache-cap=8".to_string(),
                format!("--store-dir={}", dir.join("store").display()),
            ];
            let node = Server::spawn("memo-serve", server_command(&bins.serve, &args))?;
            node.wait_healthy(b"ok\n")?;
            let mut targets = hot_targets();
            targets.extend((0..READ_SET_LEN).map(Target::Read));
            warm(node.addr(), &targets, refs, tally);
            // Draining flushes the store into segments; the restarted
            // node serves everything from disk.
            node.quit()?;
            let node = Server::spawn("memo-serve", server_command(&bins.serve, &args))?;
            node.wait_healthy(b"ok\n")?;
            Ok(Fleet {
                router: None,
                nodes: vec![node],
            })
        }
        Workload::ClusterHot => {
            let mut nodes = Vec::new();
            for name in ["n0", "n1"] {
                let args = [
                    format!("--node-id={name}"),
                    format!("--store-dir={}", dir.join(name).display()),
                ];
                let node = Server::spawn(name, server_command(&bins.serve, &args))?;
                node.wait_healthy(b"ok\n")?;
                nodes.push(node);
            }
            let members: Vec<String> = nodes
                .iter()
                .map(|n| format!("{}={}", n.name(), n.addr()))
                .collect();
            let args = [
                "--rf=2".to_string(),
                format!("--nodes={}", members.join(",")),
            ];
            let router = Server::spawn("memo-router", server_command(&bins.router, &args))?;
            router.wait_healthy(b"ok\n")?;
            let fleet = Fleet {
                router: Some(router),
                nodes,
            };
            let rendered = warm(fleet.entry(), &hot_targets(), refs, tally);
            wait_for_repairs(fleet.entry(), rendered)?;
            Ok(fleet)
        }
        Workload::Repro => Err("repro is not a serving workload".to_string()),
    }
}

/// Wait until the router has finished (or given up on) one read-repair
/// per artifact a primary rendered, so both owners hold every key.
fn wait_for_repairs(router: &str, expected: u64) -> Result<(), String> {
    let deadline = Instant::now() + REPAIR_TIMEOUT;
    loop {
        let p = Prom::scrape(router)?;
        let settled = p.get("memo_router_read_repairs_total")
            + p.get("memo_router_read_repair_failures_total")
            + p.get("memo_router_repair_queue_drops_total");
        if settled >= expected as f64 {
            return Ok(());
        }
        if Instant::now() >= deadline {
            return Err(format!("read-repair settled {settled} of {expected} warms"));
        }
        thread::sleep(Duration::from_millis(10));
    }
}

/// A scraped `/metrics` page.
struct Prom(HashMap<String, f64>);

impl Prom {
    fn scrape(addr: &str) -> Result<Prom, String> {
        let r =
            fetch(addr, "/metrics", FETCH_TIMEOUT).map_err(|e| format!("scrape {addr}: {e}"))?;
        let text = String::from_utf8_lossy(&r.body);
        Ok(Prom(
            text.lines()
                .filter(|l| !l.starts_with('#'))
                .filter_map(|l| {
                    let (key, value) = l.rsplit_once(' ')?;
                    Some((key.to_string(), value.parse().ok()?))
                })
                .collect(),
        ))
    }

    fn get(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0.0)
    }
}

/// How a response was served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Healthz,
    Metrics,
    Hit,
    Disk,
    Miss,
}

impl Class {
    fn label(self) -> &'static str {
        match self {
            Class::Healthz => "healthz",
            Class::Metrics => "metrics",
            Class::Hit => "hit",
            Class::Disk => "disk",
            Class::Miss => "miss",
        }
    }
}

/// What one load lane saw.
#[derive(Default)]
struct Lane {
    /// (latency ns, class) of every response.
    samples: Vec<(u64, Class)>,
    /// (start ns, end ns, class, node index) of kept request spans.
    spans: Vec<(u64, u64, Class, Option<usize>)>,
    dropped: u64,
    /// (code, length, hash) of the sweeps checked in full afterwards.
    sweeps: Vec<(u64, usize, u64)>,
    tally: Tally,
    good: u64,
    shed: u64,
    rebalances: u64,
    /// Responses per `x-memo-node`.
    nodes: Vec<(String, u64)>,
}

/// Timed segments, lanes merged.
#[derive(Default)]
struct Phase {
    lanes: Vec<Lane>,
    elapsed: Duration,
}

impl Phase {
    fn absorb(&mut self, segment: Phase) {
        self.lanes.extend(segment.lanes);
        self.elapsed += segment.elapsed;
    }

    fn good(&self) -> u64 {
        self.lanes.iter().map(|l| l.good).sum()
    }

    fn throughput(&self) -> f64 {
        self.good() as f64 / self.elapsed.as_secs_f64()
    }

    fn tally(&self) -> Tally {
        let mut t = Tally::default();
        for lane in &self.lanes {
            t.add(lane.tally);
        }
        t
    }

    /// Sorted latencies, of one class or all.
    fn latencies(&self, class: Option<Class>) -> Vec<u64> {
        let mut ns: Vec<u64> = self
            .lanes
            .iter()
            .flat_map(|l| l.samples.iter())
            .filter(|(_, c)| class.is_none_or(|want| *c == want))
            .map(|(ns, _)| *ns)
            .collect();
        ns.sort_unstable();
        ns
    }

    fn quantile_us(&self, class: Class, q: f64) -> Option<f64> {
        nearest_rank(&self.latencies(Some(class)), q).map(|ns| ns as f64 / 1e3)
    }

    fn node_counts(&self) -> HashMap<&str, u64> {
        let mut counts = HashMap::new();
        for (node, n) in self.lanes.iter().flat_map(|l| l.nodes.iter()) {
            *counts.entry(node.as_str()).or_insert(0) += n;
        }
        counts
    }
}

/// What every timed segment of a run shares.
struct Load<'a> {
    mix: Mix,
    seed: u64,
    refs: &'a Refs,
    /// The run's clock.
    epoch: Instant,
}

/// Drive closed-loop load at `entry` for `length`; returns the segment
/// and when it started on the run's clock.
fn drive(
    load: &Load<'_>,
    entry: &str,
    segment: usize,
    length: Duration,
    traced: bool,
) -> (Phase, u64) {
    let start = Instant::now();
    let deadline = start + length;
    let lanes = thread::scope(|s| {
        let handles: Vec<_> = (0..LANES)
            .map(|lane| {
                let stream = Stream::new(
                    load.mix,
                    load.seed,
                    StreamId {
                        segment,
                        traced,
                        lane,
                        lanes: LANES,
                    },
                );
                s.spawn(move || run_lane(entry, stream, deadline, load.refs, load.epoch, traced))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load lane panicked"))
            .collect()
    });
    (
        Phase {
            lanes,
            elapsed: start.elapsed(),
        },
        nanos(start - load.epoch),
    )
}

fn run_lane(
    entry: &str,
    mut stream: Stream,
    deadline: Instant,
    refs: &Refs,
    epoch: Instant,
    traced: bool,
) -> Lane {
    let mut out = Lane::default();
    let mut conn: Option<Conn> = None;
    let mut ring_gen = None;
    while Instant::now() < deadline {
        let target = stream.next_target();
        let path = target.path();
        if conn.is_none() {
            match Conn::connect(entry, IO_TIMEOUT) {
                Ok(c) => conn = Some(c),
                Err(_) => {
                    out.tally.attempted += 1;
                    out.tally.failed += 1;
                    thread::sleep(Duration::from_millis(10));
                    continue;
                }
            }
        }
        let c = conn.as_mut().expect("connected above");
        let t0 = Instant::now();
        let reply = c.get(&path, false);
        let t1 = Instant::now();
        let Ok(reply) = reply else {
            out.tally.attempted += 1;
            out.tally.failed += 1;
            conn = None;
            continue;
        };
        let class = match (reply.cache, target) {
            (Some("hit"), _) => Class::Hit,
            (Some("disk"), _) => Class::Disk,
            (Some(_), _) => Class::Miss,
            (None, Target::Healthz) => Class::Healthz,
            (None, Target::Metrics) => Class::Metrics,
            (None, _) => Class::Miss,
        };
        if out
            .tally
            .response(reply.status, reply.body, &refs.expect(target))
        {
            out.good += 1;
        }
        out.shed += u64::from(reply.status == 503);
        if let Target::SweepMiss(code) = target {
            if reply.status == 200 && out.sweeps.len() < SWEEP_FULL_CHECKS {
                out.sweeps
                    .push((code, reply.body.len(), body_hash(reply.body)));
            }
        }
        let node = reply
            .node
            .map(|name| match out.nodes.iter().position(|(n, _)| n == name) {
                Some(i) => {
                    out.nodes[i].1 += 1;
                    i
                }
                None => {
                    out.nodes.push((name.to_string(), 1));
                    out.nodes.len() - 1
                }
            });
        if let Some(generation) = reply.ring_gen {
            out.rebalances += u64::from(ring_gen.is_some_and(|g| g != generation));
            ring_gen = Some(generation);
        }
        let keep_alive = reply.keep_alive;
        out.samples.push((nanos(t1 - t0), class));
        if traced {
            if out.spans.len() < MAX_LANE_SPANS {
                out.spans
                    .push((nanos(t0 - epoch), nanos(t1 - epoch), class, node));
            } else {
                out.dropped += 1;
            }
        }
        if !keep_alive {
            conn = None;
        }
    }
    out
}

/// Re-render the sweeps kept for a full check and compare.
fn check_sweeps(phase: &Phase, tally: &mut Tally) -> Result<(), String> {
    for &(code, len, hash) in phase.lanes.iter().flat_map(|l| l.sweeps.iter()) {
        let want = render(&mix::sweep_miss_path(code), SERVE_CFG)?;
        if (want.len(), body_hash(&want)) != (len, hash) {
            eprintln!(
                "benchmark: {} differs from its in-process render",
                mix::sweep_miss_path(code)
            );
            tally.failed += 1;
            tally.wrong += 1;
        }
    }
    Ok(())
}

/// `/metrics` of every fleet member.
struct Scrape {
    nodes: Vec<Prom>,
    router: Option<Prom>,
}

impl Scrape {
    fn take(fleet: &Fleet) -> Result<Scrape, String> {
        let nodes = fleet
            .nodes
            .iter()
            .map(|n| Prom::scrape(n.addr()))
            .collect::<Result<_, _>>()?;
        let router = fleet
            .router
            .as_ref()
            .map(|r| Prom::scrape(r.addr()))
            .transpose()?;
        Ok(Scrape { nodes, router })
    }
}

/// Run one serving workload.
pub fn run(ctx: &Ctx, wl: Workload, traced: bool) -> Result<Outcome, String> {
    let bins = Bins::build(&ctx.repo, &ctx.target)?;
    let refs = Refs::compute(wl == Workload::ServeDisk)?;
    let tmp = TempDir::new(&ctx.out.join("tmp"), wl.name())?;
    let mix = if wl == Workload::ServeDisk {
        Mix::Disk
    } else {
        Mix::Hot
    };
    let length = Duration::from_secs(ctx.seconds) / FLEETS as u32;
    let epoch = Instant::now();
    let load = Load {
        mix,
        seed: ctx.seed,
        refs: &refs,
        epoch,
    };
    let mut tally = Tally::default();
    let (mut setups, mut rss) = (Vec::with_capacity(FLEETS), Vec::with_capacity(FLEETS));
    let (mut plain, mut repeat) = (Phase::default(), Phase::default());
    let mut scrapes = Vec::new();
    let mut trace = Trace::default();
    let mut fleets = Vec::with_capacity(FLEETS);
    for i in 0..FLEETS {
        let t0 = Instant::now();
        let dir = tmp.path().join(format!("fleet-{i}"));
        fleets.push(setup(wl, &bins, &dir, &refs, &mut tally)?);
        setups.push(t0.elapsed().as_secs_f64());
    }
    // Each fleet is torn down at the end of its own iteration.
    for (segment, fleet) in fleets.into_iter().enumerate() {
        let (timed, _) = drive(&load, fleet.entry(), segment, length, false);
        check_sweeps(&timed, &mut tally)?;
        plain.absorb(timed);
        rss.push(fleet.rss_mb());
        if traced {
            let before = Scrape::take(&fleet)?;
            let (timed, start_ns) = drive(&load, fleet.entry(), segment, length, true);
            scrapes.push((before, Scrape::take(&fleet)?));
            check_sweeps(&timed, &mut tally)?;
            let end_ns = start_ns + nanos(timed.elapsed);
            let root = trace.add(
                0,
                format!("{}.segment-{segment}", wl.name()),
                start_ns,
                end_ns,
                "",
                "",
            );
            for lane in &timed.lanes {
                for &(start, end, class, node) in &lane.spans {
                    let node = node.map_or("", |i| lane.nodes[i].0.as_str());
                    trace.add(root, "request", start, end, class.label(), node);
                }
                trace.dropped += lane.dropped;
            }
            repeat.absorb(timed);
        }
    }
    tally.add(plain.tally());
    let mut records = latency_records(&plain.latencies(None), &setups);
    records.push(Record {
        samples: plain.good(),
        ..Record::value(E2E, "throughput", "ops/s", plain.throughput())
    });
    records.push(Record {
        samples: rss.len() as u64,
        ..Record::value(E2E, "peak_rss_mb", "MB", median(&rss))
    });

    if traced {
        tally.add(repeat.tally());
        records.extend(layer_records(&plain, &repeat, &scrapes));
        let request = layers::Request {
            cfg: SERVE_CFG,
            registry: true,
            dir: tmp.path().join("layers"),
            blobs: refs.hot.iter().map(Vec::len).collect(),
        };
        let layers_start = nanos(epoch.elapsed());
        let layers_root = trace.add(0, "layers", layers_start, layers_start, "", "");
        records.extend(layers::run(&request, &mut trace, layers_root, epoch)?);
        trace.close(layers_root, nanos(epoch.elapsed()));
        trace.write(&ctx.out, wl.name(), ctx.seed)?;
    }
    Ok(Outcome {
        correct: tally.wrong == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        records,
    })
}

/// Artifact endpoints whose handler latency the nodes export.
const ARTIFACT_ENDPOINTS: [&str; 4] = ["table", "figure", "sweep", "region"];

/// Count-weighted mean of per-endpoint handler p50s for one cache class
/// over the given node scrapes, in microseconds.
fn handler_p50_us<'a>(nodes: impl Iterator<Item = &'a Prom>, cache: &str) -> Option<f64> {
    let (mut weighted, mut count) = (0.0, 0.0);
    for p in nodes {
        for ep in ARTIFACT_ENDPOINTS {
            let n = p.get(&format!(
                "memo_serve_latency_seconds_count{{endpoint=\"{ep}\",cache=\"{cache}\"}}"
            ));
            let q = p.get(&format!("memo_serve_latency_seconds{{endpoint=\"{ep}\",cache=\"{cache}\",quantile=\"0.5\"}}"));
            weighted += n * q * 1e6;
            count += n;
        }
    }
    (count > 0.0).then(|| weighted / count)
}

/// Count-weighted mean of the routers' per-node upstream p50, in µs.
fn upstream_p50_us<'a>(routers: impl Iterator<Item = &'a Prom>, nodes: &[&str]) -> Option<f64> {
    let (mut weighted, mut count) = (0.0, 0.0);
    for router in routers {
        for node in nodes {
            let n = router.get(&format!(
                "memo_router_node_latency_seconds_count{{node=\"{node}\"}}"
            ));
            let q = router.get(&format!(
                "memo_router_node_latency_seconds{{node=\"{node}\",quantile=\"0.5\"}}"
            ));
            weighted += n * q * 1e6;
            count += n;
        }
    }
    (count > 0.0).then(|| weighted / count)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Per-layer records of the traced segments, from their samples and the
/// `/metrics` scrapes taken just before and after each. Handler and
/// upstream latencies are the servers' own summaries since start.
fn layer_records(plain: &Phase, repeat: &Phase, scrapes: &[(Scrape, Scrape)]) -> Vec<Record> {
    let mut out = Vec::new();
    let mut put = |name: &str, v: f64| out.push(layer_record(name, v));
    let q = |class, p| repeat.quantile_us(class, p);
    for (class, name) in [
        (Class::Healthz, "healthz"),
        (Class::Hit, "hit"),
        (Class::Disk, "disk"),
        (Class::Miss, "miss"),
    ] {
        put(
            &format!("serve.{name}_p50_us"),
            q(class, 0.5).unwrap_or(0.0),
        );
        if class != Class::Healthz {
            put(
                &format!("serve.{name}_p99_us"),
                q(class, 0.99).unwrap_or(0.0),
            );
        }
    }
    let after_nodes = || scrapes.iter().flat_map(|(_, after)| after.nodes.iter());
    for cache in ["hit", "disk", "miss"] {
        put(
            &format!("serve.handler_{cache}_p50_us"),
            handler_p50_us(after_nodes(), cache).unwrap_or(0.0),
        );
    }
    let client_hit = q(Class::Hit, 0.5);
    let unattributed = client_hit
        .zip(handler_p50_us(after_nodes(), "hit"))
        .map_or(0.0, |(c, h)| c - h);
    put("serve.unattributed_hit_p50_us", unattributed);

    let delta = |key: &str| -> f64 {
        let sum = |s: &Scrape| s.nodes.iter().map(|p| p.get(key)).sum::<f64>();
        scrapes
            .iter()
            .map(|(before, after)| sum(after) - sum(before))
            .sum()
    };
    let hits = delta("memo_serve_cache_hits_total");
    let served =
        hits + delta("memo_serve_cache_disk_hits_total") + delta("memo_serve_cache_misses_total");
    put("serve.cache_hit_ratio", ratio(hits, served));
    put(
        "serve.shed_503",
        repeat.lanes.iter().map(|l| l.shed).sum::<u64>() as f64,
    );
    put(
        "serve.deadline_exceeded",
        delta("memo_serve_deadline_exceeded_total"),
    );
    put(
        "serve.connections_accepted",
        delta("memo_serve_connections_accepted_total"),
    );

    for (name, key) in [
        ("store.segment_hits", "memo_store_segment_hits_total"),
        ("store.memtable_hits", "memo_store_memtable_hits_total"),
        ("store.bloom_negatives", "memo_store_bloom_negatives_total"),
        ("store.flushes", "memo_store_flushes_total"),
        ("store.bytes_written", "memo_store_bytes_written_total"),
    ] {
        put(name, delta(key));
    }
    put(
        "store.flush_queue_peak",
        after_nodes()
            .map(|p| p.get("memo_store_flush_queue_peak"))
            .fold(0.0, f64::max),
    );
    let (fp, neg) = (
        delta("memo_store_bloom_false_positives_total"),
        delta("memo_store_bloom_negatives_total"),
    );
    put("store.bloom_fp_rate", ratio(fp, fp + neg));
    let (bc_hits, bc_misses) = (
        delta("memo_store_block_cache_hits_total"),
        delta("memo_store_block_cache_misses_total"),
    );
    put(
        "store.block_cache_hit_ratio",
        ratio(bc_hits, bc_hits + bc_misses),
    );

    if scrapes
        .first()
        .is_some_and(|(before, _)| before.router.is_some())
    {
        let rdelta = |key: &str| -> f64 {
            let get = |s: &Scrape| s.router.as_ref().map_or(0.0, |r| r.get(key));
            scrapes
                .iter()
                .map(|(before, after)| get(after) - get(before))
                .sum()
        };
        put("router.failovers", rdelta("memo_router_failovers_total"));
        put(
            "router.read_repairs",
            rdelta("memo_router_read_repairs_total"),
        );
        put(
            "router.repair_drops",
            rdelta("memo_router_repair_queue_drops_total"),
        );
        let rebalances: u64 = plain
            .lanes
            .iter()
            .chain(&repeat.lanes)
            .map(|l| l.rebalances)
            .sum();
        put("router.rebalance_events", rebalances as f64);
        let counts = repeat.node_counts();
        let total: u64 = counts.values().sum();
        put(
            "router.node_share_max",
            ratio(
                counts.values().copied().max().unwrap_or(0) as f64,
                total as f64,
            ),
        );
        let names: Vec<&str> = counts.keys().copied().collect();
        let upstream = upstream_p50_us(
            scrapes
                .iter()
                .filter_map(|(_, after)| after.router.as_ref()),
            &names,
        );
        put("router.upstream_p50_us", upstream.unwrap_or(0.0));
        put(
            "router.hop_p50_us",
            client_hit.zip(upstream).map_or(0.0, |(c, u)| c - u),
        );
    }
    put(
        "trace.overhead_pct",
        100.0 * (plain.throughput() / repeat.throughput() - 1.0),
    );
    out
}
