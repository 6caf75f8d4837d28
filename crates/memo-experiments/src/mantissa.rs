//! Table 10 — storing only the mantissas vs. the whole floating-point
//! number (suite averages, 32-entry 4-way tables).

use memo_sim::OpTrace;
use memo_table::{MemoConfig, OpKind, TagPolicy};
use memo_workloads::suite::{replay_stats_fused, HitRatios, SweepSpec};
use memo_workloads::{mm, sci};

use crate::format::{ratio, TextTable};
use crate::{parallel, results, traces, ExpConfig};

/// One suite's Table 10 row.
#[derive(Debug, Clone, Copy)]
pub struct MantissaRow {
    /// Suite label ("Perfect" / "Multi-Media").
    pub suite: &'static str,
    /// Average fmul hit ratio with full-value tags.
    pub fmul_full: f64,
    /// Average fmul hit ratio with mantissa-only tags.
    pub fmul_mant: f64,
    /// Average fdiv hit ratio with full-value tags.
    pub fdiv_full: f64,
    /// Average fdiv hit ratio with mantissa-only tags.
    pub fdiv_mant: f64,
}

/// The mantissa-only column's tables.
fn mantissa_spec() -> SweepSpec {
    let cfg = MemoConfig::builder(32).tag(TagPolicy::MantissaOnly).build().expect("32/4 is valid");
    SweepSpec::finite(cfg, &[OpKind::FpMul, OpKind::FpDiv])
}

/// Compute Table 10: Perfect and Multi-Media suite averages under both
/// tag policies. Full-value tags are the paper's default, and a bank's
/// tables never interact, so the full-value column reads each
/// application's shared paper-default replay ([`crate::traces`]). The
/// mantissa-only tables see other traffic (non-normal operands bypass
/// them), so they get a replay of their own.
#[must_use]
pub fn table10(cfg: ExpConfig) -> [MantissaRow; 2] {
    results::cached("table10", cfg, || table10_uncached(cfg))
}

fn table10_uncached(cfg: ExpConfig) -> [MantissaRow; 2] {
    let accumulate = |pairs: Vec<[HitRatios; 2]>| {
        let mut avg = SuiteAvg::default();
        for [full, mant] in pairs {
            avg.add(0, full.fp_mul, full.fp_div);
            avg.add(1, mant.fp_mul, mant.fp_div);
        }
        avg
    };
    let mant = |traces: &[&OpTrace]| {
        replay_stats_fused(traces.iter().copied(), &[mantissa_spec()])[0].ratios()
    };

    let perfect = accumulate(parallel::par_map(sci::perfect_apps(), |app| {
        let trace = traces::sci_trace(cfg, &app);
        [traces::sci_paper_default(cfg, &app).ratios(), mant(&[&*trace])]
    }));

    let media = accumulate(parallel::par_map(mm::apps(), |app| {
        let app_traces = traces::mm_traces(cfg, &app);
        let refs: Vec<&OpTrace> = app_traces.iter().collect();
        [traces::mm_paper_default(cfg, &app).ratios(), mant(&refs)]
    }));

    [perfect.row("Perfect"), media.row("Multi-Media")]
}

#[derive(Default)]
struct SuiteAvg {
    // [full, mantissa] × [fmul, fdiv] sums and counts.
    sums: [[f64; 2]; 2],
    counts: [[u32; 2]; 2],
}

impl SuiteAvg {
    fn add(&mut self, tag_slot: usize, fmul: Option<f64>, fdiv: Option<f64>) {
        if let Some(v) = fmul {
            self.sums[tag_slot][0] += v;
            self.counts[tag_slot][0] += 1;
        }
        if let Some(v) = fdiv {
            self.sums[tag_slot][1] += v;
            self.counts[tag_slot][1] += 1;
        }
    }

    fn avg(&self, tag_slot: usize, op_slot: usize) -> f64 {
        if self.counts[tag_slot][op_slot] == 0 {
            0.0
        } else {
            self.sums[tag_slot][op_slot] / f64::from(self.counts[tag_slot][op_slot])
        }
    }

    fn row(&self, suite: &'static str) -> MantissaRow {
        MantissaRow {
            suite,
            fmul_full: self.avg(0, 0),
            fmul_mant: self.avg(1, 0),
            fdiv_full: self.avg(0, 1),
            fdiv_mant: self.avg(1, 1),
        }
    }
}

/// Render the Table 10 layout.
#[must_use]
pub fn render(rows: &[MantissaRow; 2]) -> String {
    let mut t = TextTable::new(&["suite", "fmul/full", "fmul/mant", "fdiv/full", "fdiv/mant"]);
    for r in rows {
        t.row(vec![
            r.suite.to_string(),
            ratio(Some(r.fmul_full)),
            ratio(Some(r.fmul_mant)),
            ratio(Some(r.fdiv_full)),
            ratio(Some(r.fdiv_mant)),
        ]);
    }
    format!(
        "Table 10: Mantissa-only vs whole-value tags (averages, 32-entry 4-way)\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mantissa_tags_never_lose_and_sometimes_gain() {
        let rows = table10(ExpConfig::quick());
        for r in &rows {
            // Paper Table 10: mantissa ≥ full, by a small margin.
            assert!(
                r.fmul_mant + 0.02 >= r.fmul_full,
                "{}: fmul mant {} vs full {}",
                r.suite,
                r.fmul_mant,
                r.fmul_full
            );
            assert!(
                r.fdiv_mant + 0.02 >= r.fdiv_full,
                "{}: fdiv mant {} vs full {}",
                r.suite,
                r.fdiv_mant,
                r.fdiv_full
            );
        }
        // Multi-media clearly beats Perfect under either policy.
        assert!(rows[1].fdiv_full > rows[0].fdiv_full);
    }

    #[test]
    fn render_mentions_both_suites() {
        let rows = table10(ExpConfig::quick());
        let s = render(&rows);
        assert!(s.contains("Perfect") && s.contains("Multi-Media"));
    }
}
