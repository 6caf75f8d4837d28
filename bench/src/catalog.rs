//! Every metric the benchmark reports, with its unit. `BENCHMARK.json`
//! lists the same names; a unit test keeps the two in step.
//!
//! Every workload reports every metric. A per-layer metric whose layer
//! is not on a workload's path — the router on `serve_hot`, the server
//! on `repro` — reads 0.

use crate::record::{Outcome, Record, E2E};

/// End-to-end metrics: (name, unit).
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("throughput", "ops/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: (name, unit).
pub const PER_LAYER: [(&str, &str); 68] = [
    ("experiments.table_1_s", "s"),
    ("experiments.tables_2-4_s", "s"),
    ("experiments.table_5_s", "s"),
    ("experiments.table_6_s", "s"),
    ("experiments.table_7_s", "s"),
    ("experiments.table_8_s", "s"),
    ("experiments.table_9_s", "s"),
    ("experiments.table_10_s", "s"),
    ("experiments.table_11_s", "s"),
    ("experiments.table_12_s", "s"),
    ("experiments.table_13_s", "s"),
    ("experiments.figure_2_s", "s"),
    ("experiments.figure_3_s", "s"),
    ("experiments.figure_4_s", "s"),
    ("experiments.ablations_s", "s"),
    ("experiments.related_work_s", "s"),
    ("experiments.future_work_s", "s"),
    ("experiments.fault_tolerance_s", "s"),
    ("experiments.regions_s", "s"),
    ("experiments.scorecard_s", "s"),
    ("cache.peek_ns", "ns"),
    ("imaging.corpus_s", "s"),
    ("workloads.record_s", "s"),
    ("workloads.ops", "count"),
    ("sim.replay_s", "s"),
    ("sim.replay_ns_per_op", "ns"),
    ("sim.cycle_replay_s", "s"),
    ("table.sweep_fused_s", "s"),
    ("table.fault_replay_s", "s"),
    ("table.hit_ratio.int_mul", "ratio"),
    ("table.hit_ratio.fp_mul", "ratio"),
    ("table.hit_ratio.fp_div", "ratio"),
    ("region.survey_s", "s"),
    ("serve.healthz_p50_us", "us"),
    ("serve.hit_p50_us", "us"),
    ("serve.disk_p50_us", "us"),
    ("serve.miss_p50_us", "us"),
    ("serve.hit_p99_us", "us"),
    ("serve.disk_p99_us", "us"),
    ("serve.miss_p99_us", "us"),
    ("serve.handler_hit_p50_us", "us"),
    ("serve.handler_disk_p50_us", "us"),
    ("serve.handler_miss_p50_us", "us"),
    ("serve.unattributed_hit_p50_us", "us"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.shed_503", "count"),
    ("serve.deadline_exceeded", "count"),
    ("serve.connections_accepted", "count"),
    ("store.segment_hits", "count"),
    ("store.memtable_hits", "count"),
    ("store.bloom_negatives", "count"),
    ("store.flushes", "count"),
    ("store.flush_queue_peak", "count"),
    ("store.bytes_written", "bytes"),
    ("store.bloom_fp_rate", "ratio"),
    ("store.block_cache_hit_ratio", "ratio"),
    ("store.get_hit_us", "us"),
    ("store.get_absent_us", "us"),
    ("store.put_us", "us"),
    ("store.open_s", "s"),
    ("router.failovers", "count"),
    ("router.read_repairs", "count"),
    ("router.repair_drops", "count"),
    ("router.rebalance_events", "count"),
    ("router.node_share_max", "ratio"),
    ("router.upstream_p50_us", "us"),
    ("router.hop_p50_us", "us"),
    ("trace.overhead_pct", "%"),
];

/// The crate a per-layer metric belongs to, from its name's prefix.
pub fn layer_of(name: &str) -> &'static str {
    match name.split('.').next().unwrap_or_default() {
        "experiments" | "cache" => "memo-experiments",
        "imaging" => "memo-imaging",
        "workloads" => "memo-workloads",
        "sim" => "memo-sim",
        "table" => "memo-table",
        "region" => "memo-region",
        "serve" => "memo-serve",
        "store" => "memo-store",
        "router" => "memo-cluster",
        _ => "benchmark",
    }
}

/// The unit of a per-layer metric, if the catalog has it.
pub fn unit_of(name: &str) -> Option<&'static str> {
    PER_LAYER.iter().find(|(n, _)| *n == name).map(|(_, u)| *u)
}

/// A per-layer record with its catalog unit and layer.
pub fn layer_record(name: &str, value: f64) -> Record {
    Record::value(
        layer_of(name),
        name,
        unit_of(name).unwrap_or("count"),
        value,
    )
}

/// The registry entry name as it appears in a metric name:
/// `"tables 2-4"` → `"tables_2-4"`.
pub fn entry_slug(entry: &str) -> String {
    entry.replace(' ', "_")
}

/// Keep only catalog metrics, in catalog order, adding a 0 for every
/// per-layer metric a traced run did not reach.
pub fn complete(mut outcome: Outcome, traced: bool) -> Outcome {
    let mut records = Vec::new();
    for (name, _) in END_TO_END {
        if let Some(r) = outcome
            .records
            .iter()
            .find(|r| r.layer == E2E && r.name == name)
        {
            records.push(r.clone());
        }
    }
    if traced {
        for (name, _) in PER_LAYER {
            match outcome
                .records
                .iter()
                .find(|r| r.layer != E2E && r.name == name)
            {
                Some(r) => records.push(r.clone()),
                None => records.push(layer_record(name, 0.0)),
            }
        }
    }
    outcome.records = records;
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};

    fn spec() -> Json {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
            .expect("BENCHMARK.json parses")
    }

    fn names_units(spec: &Json, key: &str) -> Vec<(String, String)> {
        spec.get(key)
            .and_then(Json::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                (
                    m.get("name").and_then(Json::as_str).unwrap().to_string(),
                    m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn catalog_matches_benchmark_json() {
        let spec = spec();
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
                .collect()
        };
        assert_eq!(names_units(&spec, "end_to_end"), own(&END_TO_END));
        assert_eq!(names_units(&spec, "per_layer"), own(&PER_LAYER));
    }

    #[test]
    fn registry_entries_all_have_a_metric() {
        for (entry, _) in memo_experiments::runner::experiments() {
            let name = format!("experiments.{}_s", entry_slug(entry));
            assert!(unit_of(&name).is_some(), "{name} missing from the catalog");
        }
    }

    #[test]
    fn complete_fills_unreached_layers_with_zero() {
        let outcome = Outcome {
            correct: true,
            attempted: 1,
            failed: 0,
            records: vec![
                Record::value(E2E, "p50_ms", "ms", 1.5),
                layer_record("serve.hit_p50_us", 9.0),
                layer_record("not.in.catalog", 1.0),
            ],
        };
        let traced = complete(outcome.clone(), true);
        assert_eq!(traced.records.len(), 1 + PER_LAYER.len());
        let hit = traced
            .records
            .iter()
            .find(|r| r.name == "serve.hit_p50_us")
            .unwrap();
        assert_eq!((hit.median, hit.layer, hit.unit), (9.0, "memo-serve", "us"));
        let router = traced
            .records
            .iter()
            .find(|r| r.name == "router.hop_p50_us")
            .unwrap();
        assert_eq!(router.median, 0.0);
        assert!(traced.records.iter().all(|r| r.name != "not.in.catalog"));
        let plain = complete(outcome, false);
        assert_eq!(plain.records.len(), 1);
    }
}
