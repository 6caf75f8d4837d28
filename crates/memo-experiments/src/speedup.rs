//! Tables 11, 12, 13 — application speedups from Amdahl's law over the
//! cycle-accounting simulator (§3.3).
//!
//! Each application runs natively once over the cached image corpus into
//! a [`memo_sim::CycleAccountant`] on the slow CPU profile, which charges
//! its arithmetic through the lane kernel a tile at a time, and no
//! instruction stream is kept. The two profiles differ only in unit
//! latencies, and every charge is a count times a latency — the cache
//! model's cycles and the tables' hits do not depend on the CPU — so the
//! fast profile's report is the same run repriced
//! ([`CycleReport::repriced`]), not a second run.

use memo_sim::{CpuModel, CycleReport, MemoBank};
use memo_table::{MemoConfig, OpKind};
use memo_workloads::suite::measure_mm_cycles;

use crate::error::find_mm;
use crate::format::{frac3, ratio, TextTable};
use crate::{parallel, results, traces, ExpConfig, ExperimentError};

/// The nine applications of Tables 11–13.
pub const SPEEDUP_APPS: [&str; 9] =
    ["venhance", "vbrf", "vsqrt", "vslope", "vbpf", "vkmeans", "vspatial", "vgauss", "vgpwl"];

/// The union of units any of Tables 11–13 memoizes. One run per
/// application against a bank covering the union yields every table's
/// cells: per-kind tables are independent, so each table's subset is
/// derived exactly ([`CycleReport::speedup_measured_for`]).
const SPEEDUP_KINDS: [OpKind; 2] = [OpKind::FpMul, OpKind::FpDiv];

/// One (application, latency-profile) measurement.
#[derive(Debug, Clone, Copy)]
pub struct SpeedupCells {
    /// Observed hit ratio of the memoized unit(s).
    pub hit_ratio: f64,
    /// Fraction Enhanced: the units' share of baseline cycles.
    pub fe: f64,
    /// Speedup Enhanced (pooled over the memoized units).
    pub se: f64,
    /// Overall Amdahl speedup.
    pub speedup: f64,
    /// Directly measured speedup (baseline cycles / memoized cycles) —
    /// must agree with the Amdahl number; kept as a cross-check.
    pub measured: f64,
}

/// One application row: the two latency profiles of the paper's table.
#[derive(Debug, Clone)]
pub struct SpeedupRow {
    /// Application name.
    pub name: String,
    /// Fast-unit profile (13-cycle fdiv / 3-cycle fmul).
    pub fast: SpeedupCells,
    /// Slow-unit profile (39-cycle fdiv / 5-cycle fmul).
    pub slow: SpeedupCells,
}

/// The slow-profile cycle reports of all nine applications — computed
/// once per process (one native run per app over the cached corpus) and
/// shared by Tables 11, 12, 13 and the scorecard.
fn slow_reports(cfg: ExpConfig) -> Result<Vec<CycleReport>, ExperimentError> {
    results::cached("speedup-reports", cfg, || {
        let apps =
            SPEEDUP_APPS.iter().map(|name| find_mm(name)).collect::<Result<Vec<_>, _>>()?;
        let corpus = traces::corpus(cfg.image_scale);
        let inputs: Vec<_> = corpus.iter().map(|c| &c.image).collect();
        Ok(parallel::par_map(apps, |app| {
            let bank = MemoBank::uniform(MemoConfig::paper_default(), &SPEEDUP_KINDS);
            measure_mm_cycles(&app, &inputs, CpuModel::paper_slow(), bank)
        }))
    })
}

fn cells(report: &CycleReport, kinds: &[OpKind]) -> SpeedupCells {
    let fe: f64 = kinds.iter().map(|&k| report.fraction_enhanced(k)).sum();
    let scaled: f64 = kinds
        .iter()
        .map(|&k| report.fraction_enhanced(k) / report.speedup_enhanced(k))
        .sum();
    // Pooled SE as the paper reports it: FE/SE = Σ FE_i/SE_i.
    let se = if scaled > 0.0 { fe / scaled } else { 1.0 };
    // Hit ratio pooled over the memoized kinds (weighted by op counts via
    // cycles is what FE already captures; report the plain mean of the
    // present kinds, as the paper's hr column lists the div/mul ratio).
    let hrs: Vec<f64> = kinds
        .iter()
        .filter(|&&k| report.fraction_enhanced(k) > 0.0)
        .map(|&k| report.hit_ratio(k))
        .collect();
    let hit_ratio = if hrs.is_empty() { 0.0 } else { hrs.iter().sum::<f64>() / hrs.len() as f64 };
    SpeedupCells {
        hit_ratio,
        fe,
        se,
        speedup: report.speedup_amdahl(kinds),
        measured: report.speedup_measured_for(kinds),
    }
}

fn build(cfg: ExpConfig, kinds: &[OpKind]) -> Result<Vec<SpeedupRow>, ExperimentError> {
    let slow = slow_reports(cfg)?;
    Ok(SPEEDUP_APPS
        .iter()
        .zip(&slow)
        .map(|(name, s)| SpeedupRow {
            name: (*name).to_string(),
            fast: cells(&s.repriced(CpuModel::paper_fast()), kinds),
            slow: cells(s, kinds),
        })
        .collect())
}

/// Table 11 — fp division memoized; 13- vs 39-cycle dividers.
///
/// # Errors
///
/// Fails if a [`SPEEDUP_APPS`] name is missing from the registry.
pub fn table11(cfg: ExpConfig) -> Result<Vec<SpeedupRow>, ExperimentError> {
    build(cfg, &[OpKind::FpDiv])
}

/// Table 12 — fp multiplication memoized; 3- vs 5-cycle multipliers.
///
/// # Errors
///
/// Fails if a [`SPEEDUP_APPS`] name is missing from the registry.
pub fn table12(cfg: ExpConfig) -> Result<Vec<SpeedupRow>, ExperimentError> {
    build(cfg, &[OpKind::FpMul])
}

/// Table 13 — both memoized; (3, 13) vs (5, 39) cycle profiles.
///
/// # Errors
///
/// Fails if a [`SPEEDUP_APPS`] name is missing from the registry.
pub fn table13(cfg: ExpConfig) -> Result<Vec<SpeedupRow>, ExperimentError> {
    build(cfg, &SPEEDUP_KINDS)
}

/// Column-mean row ("average" line of the paper's tables).
#[must_use]
pub fn averages(rows: &[SpeedupRow]) -> SpeedupRow {
    let avg = |pick: fn(&SpeedupRow) -> SpeedupCells| {
        let n = rows.len() as f64;
        SpeedupCells {
            hit_ratio: rows.iter().map(|r| pick(r).hit_ratio).sum::<f64>() / n,
            fe: rows.iter().map(|r| pick(r).fe).sum::<f64>() / n,
            se: rows.iter().map(|r| pick(r).se).sum::<f64>() / n,
            speedup: rows.iter().map(|r| pick(r).speedup).sum::<f64>() / n,
            measured: rows.iter().map(|r| pick(r).measured).sum::<f64>() / n,
        }
    };
    SpeedupRow { name: "average".to_string(), fast: avg(|r| r.fast), slow: avg(|r| r.slow) }
}

/// Render one speedup table in the paper's layout.
#[must_use]
pub fn render(title: &str, fast_label: &str, slow_label: &str, rows: &[SpeedupRow]) -> String {
    let mut t = TextTable::new(&[
        "app",
        "hit",
        &format!("FE@{fast_label}"),
        &format!("SE@{fast_label}"),
        &format!("spd@{fast_label}"),
        &format!("FE@{slow_label}"),
        &format!("SE@{slow_label}"),
        &format!("spd@{slow_label}"),
    ]);
    let mut all = rows.to_vec();
    all.push(averages(rows));
    for r in &all {
        t.row(vec![
            r.name.clone(),
            ratio(Some(r.fast.hit_ratio)),
            frac3(r.fast.fe),
            format!("{:.2}", r.fast.se),
            format!("{:.2}", r.fast.speedup),
            frac3(r.slow.fe),
            format!("{:.2}", r.slow.se),
            format!("{:.2}", r.slow.speedup),
        ]);
    }
    format!("{title}\n{}", t.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn division_speedups_exceed_multiplication_speedups() {
        let cfg = ExpConfig::quick();
        let t11 = averages(&table11(cfg).unwrap());
        let t12 = averages(&table12(cfg).unwrap());
        // Paper: fdiv memoing averages 1.05–1.15, fmul only 1.02–1.03.
        assert!(
            t11.slow.speedup > t12.slow.speedup,
            "fdiv {} must beat fmul {}",
            t11.slow.speedup,
            t12.slow.speedup
        );
        assert!(t11.slow.speedup > 1.03, "fdiv speedup {}", t11.slow.speedup);
    }

    #[test]
    fn slower_units_benefit_more() {
        let rows = table11(ExpConfig::quick()).unwrap();
        for r in &rows {
            assert!(
                r.slow.speedup + 1e-9 >= r.fast.speedup,
                "{}: 39-cycle divider gains at least as much as 13-cycle",
                r.name
            );
        }
    }

    #[test]
    fn combined_memoization_beats_either_alone() {
        let cfg = ExpConfig::quick();
        let t11 = averages(&table11(cfg).unwrap());
        let t12 = averages(&table12(cfg).unwrap());
        let t13 = averages(&table13(cfg).unwrap());
        assert!(t13.slow.speedup + 1e-9 >= t11.slow.speedup.max(t12.slow.speedup));
        // Paper's headline: average speedup up to ≈ 1.2 on the slow profile.
        assert!(t13.slow.speedup > 1.05, "combined speedup {}", t13.slow.speedup);
    }

    #[test]
    fn amdahl_matches_direct_measurement() {
        for r in table13(ExpConfig::quick()).unwrap() {
            assert!(
                (r.slow.speedup - r.slow.measured).abs() < 1e-6,
                "{}: analytic {} vs measured {}",
                r.name,
                r.slow.speedup,
                r.slow.measured
            );
        }
    }

    #[test]
    fn render_has_all_apps_and_average() {
        let rows = table11(ExpConfig::quick()).unwrap();
        let s = render("Table 11", "13c", "39c", &rows);
        for app in SPEEDUP_APPS {
            assert!(s.contains(app));
        }
        assert!(s.contains("average"));
    }
}
