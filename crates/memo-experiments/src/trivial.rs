//! Table 9 — trivial-operation policies: memoize them, exclude them, or
//! integrate their detection into the MEMO-TABLE front end.

use memo_table::{MemoConfig, OpKind, TrivialPolicy};
use memo_workloads::suite::{replay_stats_fused, SweepSpec};

use crate::error::find_mm;
use crate::format::{ratio, TextTable};
use crate::{parallel, results, traces, ExpConfig, ExperimentError};

/// The applications the paper tabulates in Table 9.
pub const TABLE9_APPS: [&str; 8] =
    ["vdiff", "vcost", "vgauss", "vspatial", "vslope", "vgef", "vdetilt", "venhance"];

/// Per-kind Table 9 cells: trivial fraction and the three policy ratios.
#[derive(Debug, Clone, Copy, Default)]
pub struct TrivialCells {
    /// Whether the application issues this kind at all.
    pub present: bool,
    /// Fraction of operations that are trivial ("trv").
    pub trivial_fraction: f64,
    /// Hit ratio with trivial operations memoized like all others ("all").
    pub all: f64,
    /// Hit ratio over non-trivial operations only ("non").
    pub non: f64,
    /// Hit ratio with integrated trivial detection ("intgr").
    pub integrated: f64,
}

/// One application row of Table 9.
#[derive(Debug, Clone)]
pub struct TrivialRow {
    /// Application name.
    pub name: String,
    /// Cells for integer multiply.
    pub int_mul: TrivialCells,
    /// Cells for fp multiply.
    pub fp_mul: TrivialCells,
    /// Cells for fp divide.
    pub fp_div: TrivialCells,
}

/// The "all" column's table: trivial operations memoized like the rest.
fn memoize_spec() -> SweepSpec {
    let cfg =
        MemoConfig::builder(32).trivial(TrivialPolicy::Memoize).build().expect("32/4 is valid");
    SweepSpec::finite(cfg, &[OpKind::IntMul, OpKind::FpMul, OpKind::FpDiv])
}

/// Compute Table 9 over the image corpus. Exclude is the paper's default
/// policy, so the "non" column reads the shared paper-default replay of
/// [`traces::mm_paper_default`]; Integrate keeps trivial operations out
/// of the table just as Exclude does, so its table sees the same traffic
/// and records the same statistics, and the "intgr" column reads that
/// replay too — the two policies differ only in how
/// [`memo_table::MemoStats::hit_ratio`] counts trivials. Memoize routes
/// trivials through the table and gets a replay of its own.
///
/// # Errors
///
/// Fails if a [`TABLE9_APPS`] name is missing from the registry.
pub fn table9(cfg: ExpConfig) -> Result<Vec<TrivialRow>, ExperimentError> {
    results::cached("table9", cfg, || table9_uncached(cfg))
}

fn table9_uncached(cfg: ExpConfig) -> Result<Vec<TrivialRow>, ExperimentError> {
    let apps = TABLE9_APPS.iter().map(|name| find_mm(name)).collect::<Result<Vec<_>, _>>()?;
    Ok(parallel::par_map(apps, |app| {
        let filtered = traces::mm_paper_default(cfg, &app);
        let memoize =
            replay_stats_fused(traces::mm_traces(cfg, &app).iter(), &[memoize_spec()])[0];

        let cells = |kind: OpKind| {
            let m = memoize.stats(kind).expect("bank covers kind");
            if m.ops_seen == 0 {
                return TrivialCells::default();
            }
            let f = filtered.stats(kind).expect("bank covers kind");
            TrivialCells {
                present: true,
                trivial_fraction: m.trivial_fraction(),
                all: m.hit_ratio(TrivialPolicy::Memoize),
                non: f.hit_ratio(TrivialPolicy::Exclude),
                integrated: f.hit_ratio(TrivialPolicy::Integrate),
            }
        };

        TrivialRow {
            name: app.name.to_string(),
            int_mul: cells(OpKind::IntMul),
            fp_mul: cells(OpKind::FpMul),
            fp_div: cells(OpKind::FpDiv),
        }
    }))
}

/// Render the Table 9 layout.
#[must_use]
pub fn render(rows: &[TrivialRow]) -> String {
    let mut t = TextTable::new(&[
        "application",
        "im:trv", "im:all", "im:non", "im:intgr",
        "fm:trv", "fm:all", "fm:non", "fm:intgr",
        "fd:trv", "fd:all", "fd:non", "fd:intgr",
    ]);
    let cell = |c: &TrivialCells| -> Vec<String> {
        if c.present {
            vec![
                ratio(Some(c.trivial_fraction)),
                ratio(Some(c.all)),
                ratio(Some(c.non)),
                ratio(Some(c.integrated)),
            ]
        } else {
            vec!["-".into(), "-".into(), "-".into(), "-".into()]
        }
    };
    for r in rows {
        let mut line = vec![r.name.clone()];
        line.extend(cell(&r.int_mul));
        line.extend(cell(&r.fp_mul));
        line.extend(cell(&r.fp_div));
        t.row(line);
    }
    format!(
        "Table 9: Hit ratios under trivial-operation policies (32-entry, 4-way)\n\
         trv = trivial fraction, all = trivials memoized, non = trivials excluded,\n\
         intgr = integrated trivial detection (trivials count as hits)\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integrated_detection_wins_where_trivials_exist() {
        // The paper's point: "intgr" gives the highest hit ratios when the
        // trivial fraction is substantial.
        let rows = table9(ExpConfig::quick()).unwrap();
        assert_eq!(rows.len(), 8);
        let mut checked = 0;
        for r in &rows {
            for c in [&r.int_mul, &r.fp_mul, &r.fp_div] {
                if c.present && c.trivial_fraction > 0.1 {
                    assert!(
                        c.integrated + 1e-9 >= c.non,
                        "{}: intgr {} >= non {} (trv {})",
                        r.name,
                        c.integrated,
                        c.non,
                        c.trivial_fraction
                    );
                    checked += 1;
                }
            }
        }
        assert!(checked > 0, "at least one op class has substantial trivials");
    }

    #[test]
    fn vdiff_has_substantial_trivial_multiplies() {
        // Sobel's ±1 taps are trivial multiplies (paper: trv .62 for fmul).
        let rows = table9(ExpConfig::quick()).unwrap();
        let vdiff = rows.iter().find(|r| r.name == "vdiff").unwrap();
        assert!(
            vdiff.fp_mul.trivial_fraction > 0.3,
            "vdiff fmul trivial fraction {}",
            vdiff.fp_mul.trivial_fraction
        );
    }

    #[test]
    fn absent_kinds_render_dashes() {
        let rows = table9(ExpConfig::quick()).unwrap();
        let vdetilt = rows.iter().find(|r| r.name == "vdetilt").unwrap();
        assert!(!vdetilt.fp_div.present);
        let s = render(&rows);
        assert!(s.contains("vdetilt"));
    }
}
