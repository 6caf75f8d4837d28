//! The benchmark's one record type and the files it is written to.
//!
//! Every number the benchmark produces — end-to-end or per-layer — is a
//! [`Record`]. A run writes its records, stamped with the workload, seed,
//! git revision and core count, to one result file; `compare` reads those
//! files back. The last line of standard output is the summary object the
//! benchmark contract asks for, built from the same records.

use std::fmt::Write as _;

use crate::json::{num, quote};
use crate::stats::{median, nearest_rank};

/// The layer tag of end-to-end metrics.
pub const E2E: &str = "e2e";

/// One measured metric of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// [`E2E`], or the crate-level layer the number belongs to.
    pub layer: &'static str,
    pub name: String,
    pub unit: &'static str,
    /// The metric's value in this run.
    pub median: f64,
    /// 10th and 90th percentile of the samples behind `median` (equal to
    /// it for a single count or ratio).
    pub p10: f64,
    pub p90: f64,
    /// How many samples `median` summarises.
    pub samples: u64,
}

impl Record {
    /// A single-valued record: a count, a ratio, one timing.
    pub fn value(layer: &'static str, name: impl Into<String>, unit: &'static str, v: f64) -> Self {
        Record {
            layer,
            name: name.into(),
            unit,
            median: v,
            p10: v,
            p90: v,
            samples: 1,
        }
    }
}

/// `setup_s` and `p50_ms` from set-up times (seconds) and ascending
/// operation latencies (nanoseconds).
pub fn latency_records(sorted_ns: &[u64], setups: &[f64]) -> Vec<Record> {
    let lo = setups.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = setups.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let ms = |q: f64| nearest_rank(sorted_ns, q).unwrap_or(0) as f64 / 1e6;
    vec![
        Record {
            p10: lo,
            p90: hi,
            samples: setups.len() as u64,
            ..Record::value(E2E, "setup_s", "s", median(setups))
        },
        Record {
            p10: ms(0.1),
            p90: ms(0.9),
            samples: sorted_ns.len() as u64,
            ..Record::value(E2E, "p50_ms", "ms", ms(0.5))
        },
    ]
}

/// Everything a run reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// No output differed from its reference.
    pub correct: bool,
    /// Operations attempted: requests sent, artifacts rendered.
    pub attempted: u64,
    /// Failed operations: transport errors, non-2xx responses, wrong
    /// bytes, failed artifacts.
    pub failed: u64,
    pub records: Vec<Record>,
}

/// Run identity stamped on every record in a result file.
#[derive(Debug, Clone)]
pub struct Stamp {
    pub workload: &'static str,
    pub seed: u64,
    pub trace: bool,
    pub rev: String,
    pub nproc: usize,
}

/// One run as one line of JSON: the run's stamp plus one object per
/// record. Result files hold one or more such lines.
pub fn result_line(stamp: &Stamp, outcome: &Outcome) -> String {
    let mut out = format!(
        "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"rev\": {}, \"nproc\": {}, \"correct\": {}, \
         \"attempted\": {}, \"failed\": {}, \"records\": [",
        quote(stamp.workload),
        stamp.seed,
        stamp.trace,
        quote(&stamp.rev),
        stamp.nproc,
        outcome.correct,
        outcome.attempted,
        outcome.failed
    );
    for (i, r) in outcome.records.iter().enumerate() {
        let comma = if i + 1 < outcome.records.len() {
            ", "
        } else {
            ""
        };
        let _ = write!(
            out,
            "{{\"layer\": {}, \"name\": {}, \"unit\": {}, \"median\": {}, \"p10\": {}, \"p90\": {}, \
             \"samples\": {}, \"seed\": {}, \"rev\": {}, \"workload\": {}}}{comma}",
            quote(r.layer),
            quote(&r.name),
            quote(r.unit),
            num(r.median),
            num(r.p10),
            num(r.p90),
            r.samples,
            stamp.seed,
            quote(&stamp.rev),
            quote(stamp.workload),
        );
    }
    out.push_str("]}");
    out
}

/// The one-line summary the benchmark contract reads: end-to-end metrics
/// for an untraced run, per-layer metrics for a traced one.
pub fn summary_line(outcome: &Outcome, traced: bool) -> String {
    let metrics: Vec<String> = outcome
        .records
        .iter()
        .filter(|r| (r.layer == E2E) != traced)
        .map(|r| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(&r.name),
                num(r.median),
                quote(r.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};

    fn outcome() -> Outcome {
        Outcome {
            correct: true,
            attempted: 12,
            failed: 0,
            records: vec![
                Record::value(E2E, "p50_ms", "ms", 43.125),
                Record::value("serve", "serve.hit_p50_us", "us", 43_001.0),
            ],
        }
    }

    #[test]
    fn summary_line_splits_end_to_end_from_per_layer() {
        let o = outcome();
        let plain = parse(&summary_line(&o, false)).unwrap();
        assert_eq!(plain.get("attempted"), Some(&Json::Num(12.0)));
        let metrics = plain.get("metrics").unwrap();
        assert_eq!(
            metrics.get("p50_ms").and_then(|m| m.get("value")),
            Some(&Json::Num(43.125))
        );
        assert!(metrics.get("serve.hit_p50_us").is_none());
        let traced = parse(&summary_line(&o, true)).unwrap();
        assert!(traced.get("metrics").unwrap().get("p50_ms").is_none());
        assert!(traced
            .get("metrics")
            .unwrap()
            .get("serve.hit_p50_us")
            .is_some());
    }

    #[test]
    fn result_line_stamps_every_record() {
        let stamp = Stamp {
            workload: "serve_hot",
            seed: 7,
            trace: false,
            rev: "abc".into(),
            nproc: 2,
        };
        let line = result_line(&stamp, &outcome());
        assert!(!line.contains('\n'));
        let file = parse(&line).unwrap();
        let records = file.get("records").and_then(Json::as_array).unwrap();
        assert_eq!(records.len(), 2);
        for r in records {
            assert_eq!(r.get("seed"), Some(&Json::Num(7.0)));
            assert_eq!(r.get("rev").and_then(Json::as_str), Some("abc"));
            assert_eq!(r.get("workload").and_then(Json::as_str), Some("serve_hot"));
        }
    }
}
