//! Public runner entry points: every paper artifact behind one function.
//!
//! The `memo-experiments` command, its `all` word, and the `memo-serve`
//! HTTP endpoints all need the same thing — "give me the rendered bytes
//! of table *n* / figure *n* / this sweep" — and they must agree
//! byte-for-byte (the serve end-to-end test asserts it). This module is
//! that single source: [`table`], [`figure`], [`sweep`], [`region`], and
//! [`ARTIFACTS`], the one table of the reproduction's artifacts.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use memo_table::{Assoc, MemoConfig, OpKind};

use crate::{
    ablations, extension, fault_tolerance, figures, hits, images, mantissa, regions, related,
    speedup,
    suites, summary, table1, trivial, ExpConfig, ExperimentError,
};

/// Render table `n` (1–13) exactly as `memo-experiments table<n>` prints
/// it (without the trailing newline `println!` appends).
///
/// # Errors
///
/// [`ExperimentError::UnknownArtifact`] for numbers outside 1–13, or the
/// underlying experiment's error.
pub fn table(n: usize, cfg: ExpConfig) -> Result<String, ExperimentError> {
    match n {
        1 => Ok(table1::render()),
        2 => Ok(suites::render_table2()),
        3 => Ok(suites::render_table3()),
        4 => Ok(suites::render_table4()),
        5 => Ok(hits::table5(cfg).render()),
        6 => Ok(hits::table6(cfg).render()),
        7 => Ok(hits::table7(cfg).render()),
        8 => Ok(images::render(&images::table8(cfg))),
        9 => Ok(trivial::render(&trivial::table9(cfg)?)),
        10 => Ok(mantissa::render(&mantissa::table10(cfg))),
        11 => Ok(speedup::render(
            "Table 11: Speedup, fp division memoized",
            "13c",
            "39c",
            &speedup::table11(cfg)?,
        )),
        12 => Ok(speedup::render(
            "Table 12: Speedup, fp multiplication memoized",
            "3c",
            "5c",
            &speedup::table12(cfg)?,
        )),
        13 => Ok(speedup::render(
            "Table 13: Speedup, fp mul+div memoized",
            "3/13c",
            "5/39c",
            &speedup::table13(cfg)?,
        )),
        n => Err(ExperimentError::UnknownArtifact { kind: "table", n }),
    }
}

/// Render figure `n` (2–4) exactly as `memo-experiments fig<n>` prints it.
///
/// # Errors
///
/// [`ExperimentError::UnknownArtifact`] for numbers outside 2–4, or the
/// underlying experiment's error.
pub fn figure(n: usize, cfg: ExpConfig) -> Result<String, ExperimentError> {
    match n {
        2 => Ok(figures::figure2(cfg)?.render()),
        3 => Ok(figures::render_sweep(
            "Figure 3: Hit ratio vs LUT size (4-way)",
            "entries",
            &figures::figure3(cfg)?,
        )),
        4 => Ok(figures::render_sweep(
            "Figure 4: Hit ratio vs associativity (32 entries)",
            "ways",
            &figures::figure4(cfg)?,
        )),
        n => Err(ExperimentError::UnknownArtifact { kind: "figure", n }),
    }
}

/// A caller-chosen hit-ratio sweep over the five sample applications:
/// one axis (entry counts or associativities), fmul and fdiv curves, the
/// same fused stack-distance pass Figures 3 and 4 use.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepQuery {
    /// Entry counts (default `[32]`); the sweep axis when longer than 1.
    pub entries: Vec<usize>,
    /// Associativities (default `[Ways(4)]`); the axis when `entries`
    /// is a single value and this is longer.
    pub ways: Vec<Assoc>,
}

/// The largest entry count a sweep may ask for: 2^16, eight times the
/// paper's largest table. A table allocates its slots up front, so one
/// `?entries=1099511627776` would otherwise ask for a terabyte and abort
/// the process — an abort no catch barrier stops.
pub const MAX_SWEEP_ENTRIES: usize = 1 << 16;

impl Default for SweepQuery {
    fn default() -> Self {
        SweepQuery { entries: vec![32], ways: vec![Assoc::Ways(4)] }
    }
}

impl SweepQuery {
    /// Build from the textual forms used by `--entries=`/`--ways=` flags
    /// and `?entries=&ways=` query parameters (comma-separated lists;
    /// `None` keeps the default axis value).
    ///
    /// # Errors
    ///
    /// [`ExperimentError::InvalidSweep`] on unparsable values, entry
    /// counts above [`MAX_SWEEP_ENTRIES`], empty lists, or two
    /// multi-value axes at once.
    pub fn parse(entries: Option<&str>, ways: Option<&str>) -> Result<Self, ExperimentError> {
        let bad = |what: &str, v: &str| {
            ExperimentError::InvalidSweep(format!("bad {what} value {v:?}"))
        };
        let entry = |v: &str| match v.trim().parse::<usize>() {
            Ok(e) if e <= MAX_SWEEP_ENTRIES => Ok(e),
            Ok(_) => Err(ExperimentError::InvalidSweep(format!(
                "entries value {v:?} is above {MAX_SWEEP_ENTRIES}"
            ))),
            Err(_) => Err(bad("entries", v)),
        };
        let mut q = SweepQuery::default();
        if let Some(list) = entries {
            q.entries = list.split(',').map(entry).collect::<Result<_, _>>()?;
        }
        if let Some(list) = ways {
            q.ways = list
                .split(',')
                .map(|v| Assoc::parse(v.trim()).ok_or_else(|| bad("ways", v)))
                .collect::<Result<_, _>>()?;
        }
        if q.entries.is_empty() || q.ways.is_empty() {
            return Err(ExperimentError::InvalidSweep("empty axis".to_string()));
        }
        if q.entries.len() > 1 && q.ways.len() > 1 {
            return Err(ExperimentError::InvalidSweep(
                "sweep one axis at a time: multiple entries AND multiple ways".to_string(),
            ));
        }
        Ok(q)
    }

    /// Stable canonical form — the `memo-serve` cache key component.
    /// Equal queries render identically; parsing the canonical form
    /// round-trips.
    #[must_use]
    pub fn canonical(&self) -> String {
        let entries: Vec<String> = self.entries.iter().map(usize::to_string).collect();
        let ways: Vec<String> = self.ways.iter().map(|w| w.canonical()).collect();
        format!("entries={};ways={}", entries.join(","), ways.join(","))
    }

    /// The `(x, config)` grid this query describes, plus the axis label.
    fn grid(&self) -> Result<SweepGridSpec, ExperimentError> {
        let build = |e: usize, a: Assoc| {
            MemoConfig::builder(e)
                .assoc(a)
                .build()
                .map_err(|err| ExperimentError::InvalidSweep(err.to_string()))
        };
        if self.ways.len() > 1 {
            let entries = self.entries[0];
            let title = format!("Sweep: hit ratio vs associativity ({entries} entries)");
            let grid = self
                .ways
                .iter()
                .map(|&a| Ok::<_, ExperimentError>((a.ways(entries), build(entries, a)?)))
                .collect::<Result<_, _>>()?;
            Ok(("ways", title, grid))
        } else {
            let assoc = self.ways[0];
            let title = format!("Sweep: hit ratio vs LUT size ({})", assoc_phrase(assoc));
            let grid = self
                .entries
                .iter()
                .map(|&e| Ok::<_, ExperimentError>((e, build(e, assoc)?)))
                .collect::<Result<_, _>>()?;
            Ok(("entries", title, grid))
        }
    }
}

/// A sweep grid: `(x-axis label, title, (x, config) pairs)`.
type SweepGridSpec = (&'static str, String, Vec<(usize, MemoConfig)>);

fn assoc_phrase(a: Assoc) -> String {
    match a {
        Assoc::DirectMapped => "direct-mapped".to_string(),
        Assoc::Ways(n) => format!("{n}-way"),
        Assoc::Full => "fully associative".to_string(),
    }
}

/// Run and render the custom sweep `q` describes — the direct runner the
/// `/v1/sweep` endpoint must match byte-for-byte.
///
/// # Errors
///
/// [`ExperimentError::InvalidSweep`] for unbuildable grids, or a missing
/// sample application.
pub fn sweep(cfg: ExpConfig, q: &SweepQuery) -> Result<String, ExperimentError> {
    let (x_label, title, grid) = q.grid()?;
    let traces = figures::sample_traces(cfg)?;
    let curves = [
        figures::sweep_curve(&traces, OpKind::FpMul, &grid),
        figures::sweep_curve(&traces, OpKind::FpDiv, &grid),
    ];
    Ok(figures::render_sweep(&title, x_label, &curves))
}

/// Render the region-memoization family (crate `memo-region`) — the
/// direct runner the `/v1/region` endpoint must match byte-for-byte.
///
/// # Errors
///
/// [`ExperimentError::Transparency`] if the differential checker finds
/// any architectural-state divergence.
pub fn region(cfg: ExpConfig) -> Result<String, ExperimentError> {
    regions::render(cfg)
}

/// One experiment runner: a config in, the rendered artifact out.
pub type Runner = fn(ExpConfig) -> Result<String, ExperimentError>;

/// One artifact of the reproduction.
#[derive(Debug, Clone, Copy)]
pub struct Artifact {
    /// The registry name (`"table 5"`): the `all` summary prints it and
    /// the benchmark's `experiments.<slug>_s` metrics key on it.
    pub name: &'static str,
    /// The `memo-experiments` word (`table5`), also the stem of the
    /// committed `docs/outputs/<cli>.txt`.
    pub cli: &'static str,
    /// The usage line for the word.
    pub about: &'static str,
    /// The render; `memo-experiments <cli>` prints it plus a newline.
    pub render: Runner,
}

/// An [`ARTIFACTS`] row: `(name, cli, about, render)`.
const fn row(
    name: &'static str,
    cli: &'static str,
    about: &'static str,
    render: Runner,
) -> Artifact {
    Artifact { name, cli, about, render }
}

/// The reproduction's artifacts, in paper order. The command's words,
/// `all`, [`experiments`] and `docs/outputs` all follow this table; the
/// scorecard row uses [`summary::render_strict`] so a failing claim
/// fails the run.
pub const ARTIFACTS: [Artifact; 20] = [
    row("table 1", "table1", "Table 1: processor cycle times", |cfg| table(1, cfg)),
    row("tables 2-4", "table2_3_4", "Tables 2-4: benchmark-suite inventories", |cfg| {
        Ok(format!("{}\n{}\n{}", table(2, cfg)?, table(3, cfg)?, table(4, cfg)?))
    }),
    row("table 5", "table5", "Table 5: Perfect-suite hit ratios", |cfg| table(5, cfg)),
    row("table 6", "table6", "Table 6: SPEC CFP95 hit ratios", |cfg| table(6, cfg)),
    row("table 7", "table7", "Table 7: multi-media hit ratios", |cfg| table(7, cfg)),
    row("table 8", "table8", "Table 8: image entropy, per-image hit ratios", |cfg| table(8, cfg)),
    row("table 9", "table9", "Table 9: trivial-operation policies", |cfg| table(9, cfg)),
    row("table 10", "table10", "Table 10: mantissa-only vs full-value tags", |cfg| table(10, cfg)),
    row("table 11", "table11", "Table 11: fp-division memoization speedups", |cfg| table(11, cfg)),
    row("table 12", "table12", "Table 12: fp-multiplication speedups", |cfg| table(12, cfg)),
    row("table 13", "table13", "Table 13: combined memoization speedups", |cfg| table(13, cfg)),
    row("figure 2", "fig2", "Figure 2: hit ratio vs entropy, LM best fit", |cfg| figure(2, cfg)),
    row("figure 3", "fig3", "Figure 3: hit ratio vs LUT size", |cfg| figure(3, cfg)),
    row("figure 4", "fig4", "Figure 4: hit ratio vs associativity", |cfg| figure(4, cfg)),
    row("ablations", "ablations", "ablations: hash, replacement, sharing", ablations::render),
    row("related work", "related_work", "MEMO-TABLEs vs related division schemes", related::render),
    row("future work", "future_work", "sqrt memoization, pipeline-hazard model", extension::render),
    row("fault tolerance", "fault_tolerance", "soft-error robustness", fault_tolerance::render),
    row("regions", "regions", "region memoization of basic blocks", regions::render),
    row("scorecard", "scorecard", "live claim check, exit 1 on a failure", summary::render_strict),
];

/// The [`ARTIFACTS`] row whose word is `cli`.
#[must_use]
pub fn artifact(cli: &str) -> Option<&'static Artifact> {
    ARTIFACTS.iter().find(|a| a.cli == cli)
}

/// The full-reproduction registry: [`ARTIFACTS`] as `(name, render)`
/// pairs, the shape [`run_registry`] takes.
#[must_use]
pub fn experiments() -> Vec<(&'static str, Runner)> {
    ARTIFACTS.iter().map(|a| (a.name, a.render)).collect()
}

/// One registry entry's outcome.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The registry name.
    pub name: &'static str,
    /// `Ok` when the experiment rendered, else the failure text.
    pub result: Result<(), String>,
    /// Wall-clock milliseconds spent.
    pub ms: u128,
}

/// Run every registry entry under a catch barrier, feeding each rendered
/// report to `emit` as it completes. A typed error or panic in one
/// experiment is recorded and the run continues — but it is *recorded*:
/// use [`failed`] to decide the exit code.
pub fn run_registry(
    cfg: ExpConfig,
    registry: &[(&'static str, Runner)],
    mut emit: impl FnMut(&str),
) -> Vec<RunOutcome> {
    let mut outcomes = Vec::with_capacity(registry.len());
    for &(name, run) in registry {
        let start = Instant::now();
        let result = match catch_unwind(AssertUnwindSafe(|| run(cfg))) {
            Ok(Ok(report)) => {
                emit(&report);
                Ok(())
            }
            Ok(Err(e)) => Err(e.to_string()),
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| panic.downcast_ref::<&str>().copied())
                    .unwrap_or("panic with non-string payload");
                Err(format!("panicked: {msg}"))
            }
        };
        outcomes.push(RunOutcome { name, result, ms: start.elapsed().as_millis() });
    }
    outcomes
}

/// How many outcomes failed — nonzero means the driver must exit nonzero
/// (CI depends on it to see partial failures).
#[must_use]
pub fn failed(outcomes: &[RunOutcome]) -> usize {
    outcomes.iter().filter(|o| o.result.is_err()).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_artifacts_are_typed_errors() {
        let cfg = ExpConfig::quick();
        assert!(matches!(
            table(0, cfg),
            Err(ExperimentError::UnknownArtifact { kind: "table", n: 0 })
        ));
        assert!(matches!(
            table(14, cfg),
            Err(ExperimentError::UnknownArtifact { kind: "table", n: 14 })
        ));
        assert!(matches!(
            figure(5, cfg),
            Err(ExperimentError::UnknownArtifact { kind: "figure", n: 5 })
        ));
    }

    #[test]
    fn table_matches_module_render() {
        // The command line and the HTTP routes share these calls; a
        // drift here would silently fork the HTTP bytes from the CLI.
        let cfg = ExpConfig::quick();
        assert_eq!(table(1, cfg).unwrap(), table1::render());
        assert_eq!(table(5, cfg).unwrap(), hits::table5(cfg).render());
    }

    #[test]
    fn sweep_query_parses_and_round_trips() {
        let q = SweepQuery::parse(Some("8,16,32"), None).unwrap();
        assert_eq!(q.entries, vec![8, 16, 32]);
        assert_eq!(q.ways, vec![Assoc::Ways(4)]);
        let again = SweepQuery::parse(Some("8,16,32"), Some("4")).unwrap();
        assert_eq!(q.canonical(), again.canonical());

        let w = SweepQuery::parse(None, Some("direct,2,4,full")).unwrap();
        assert_eq!(w.ways.len(), 4);
        assert_eq!(w.ways[0], Assoc::DirectMapped);
        assert_eq!(w.ways[3], Assoc::Full);

        assert!(SweepQuery::parse(Some("8,x"), None).is_err());
        assert!(SweepQuery::parse(Some("8,16"), Some("2,4")).is_err());
        assert!(SweepQuery::parse(Some(""), None).is_err());
    }

    #[test]
    fn sweep_entries_are_capped_at_65536() {
        assert_eq!(SweepQuery::parse(Some("65536"), None).unwrap().entries, vec![65_536]);
        let err = SweepQuery::parse(Some("8,131072"), None).unwrap_err();
        assert!(matches!(err, ExperimentError::InvalidSweep(_)), "{err:?}");
    }

    #[test]
    fn sweep_rejects_unbuildable_geometry() {
        // 3 ways do not divide 32 entries.
        let q = SweepQuery::parse(Some("32"), Some("3")).unwrap();
        assert!(matches!(sweep(ExpConfig::quick(), &q), Err(ExperimentError::InvalidSweep(_))));
    }

    #[test]
    fn default_sweep_runs_and_renders() {
        let out = sweep(ExpConfig::quick(), &SweepQuery::default()).unwrap();
        assert!(out.starts_with("Sweep: hit ratio vs LUT size (4-way)"));
        assert!(out.contains("fmul avg"));
    }

    #[test]
    fn run_registry_continues_past_failures_and_counts_them() {
        let registry: Vec<(&'static str, Runner)> = vec![
            ("ok", |_| Ok("fine".to_string())),
            ("typed error", |_| {
                Err(ExperimentError::UnknownArtifact { kind: "table", n: 99 })
            }),
            ("panic", |_| panic!("boom")),
            ("also ok", |_| Ok("still fine".to_string())),
        ];
        let mut emitted = Vec::new();
        let outcomes =
            run_registry(ExpConfig::quick(), &registry, |report| emitted.push(report.to_string()));
        assert_eq!(outcomes.len(), 4);
        assert_eq!(emitted, vec!["fine".to_string(), "still fine".to_string()]);
        assert_eq!(failed(&outcomes), 2);
        assert!(outcomes[2].result.as_ref().unwrap_err().contains("boom"));
    }
}
