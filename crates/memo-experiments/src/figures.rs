//! Figures 2, 3, 4 — the entropy correlation, the table-size sweep, and
//! the associativity sweep.

use std::sync::Arc;

use memo_fit::{fit_line, Line};
use memo_imaging::entropy;
use memo_table::{Assoc, MemoConfig, OpKind};
use memo_workloads::mm::{self, MmApp};
use memo_workloads::suite::{replay_stats_fused, SweepSpec};

use crate::format::TextTable;
use crate::{parallel, results, traces, ExpConfig, ExperimentError};

// The compact structure-of-arrays operand trace now lives in `memo_sim`
// (recorded once per kernel/input by the process-wide cache in
// [`crate::traces`]); re-exported here for sweep consumers.
pub use memo_sim::OpTrace;

/// The five sample applications the paper uses for Figures 3 and 4.
pub const SAMPLE_APPS: [&str; 5] = ["vcost", "venhance", "vgpwl", "vspatial", "vsurf"];

// ---------------------------------------------------------------------------
// Figure 2 — hit ratio vs entropy
// ---------------------------------------------------------------------------

/// One scatter point of Figure 2.
#[derive(Debug, Clone, Copy)]
pub struct EntropyPoint {
    /// Whole-image entropy (bits).
    pub entropy_full: f64,
    /// Mean 8×8-window entropy (bits).
    pub entropy_8: f64,
    /// fmul hit ratio, if the app multiplies.
    pub fp_mul: Option<f64>,
    /// fdiv hit ratio, if the app divides.
    pub fp_div: Option<f64>,
}

/// Figure 2: the four panels' points and fitted lines.
#[derive(Debug, Clone)]
pub struct Figure2 {
    /// One point per (application, byte-image) pair.
    pub points: Vec<EntropyPoint>,
    /// fdiv hit ratio vs 8×8 entropy.
    pub fdiv_vs_win8: Line,
    /// fdiv hit ratio vs whole-image entropy.
    pub fdiv_vs_full: Line,
    /// fmul hit ratio vs 8×8 entropy.
    pub fmul_vs_win8: Line,
    /// fmul hit ratio vs whole-image entropy.
    pub fmul_vs_full: Line,
}

/// Compute Figure 2 over the corpus (byte/integer images only — FLOAT
/// imagery has no defined entropy, as in the paper).
///
/// # Errors
///
/// Fails if a panel's scatter is too small or degenerate to fit.
pub fn figure2(cfg: ExpConfig) -> Result<Figure2, ExperimentError> {
    results::cached("figure2", cfg, || figure2_uncached(cfg))
}

fn figure2_uncached(cfg: ExpConfig) -> Result<Figure2, ExperimentError> {
    let corpus = traces::corpus(cfg.image_scale);
    // One paper-default replay per (app, image) — shared with Table 8.
    let per_app = parallel::par_map(mm::apps(), |app| traces::mm_image_paper_defaults(cfg, &app));
    let per_image = parallel::par_map((0..corpus.len()).collect(), |i| {
        let Some(report) = entropy::report(&corpus[i].image) else {
            return Vec::new();
        };
        let mut points = Vec::new();
        for images in &per_app {
            let hits = images[i].ratios();
            if hits.fp_mul.is_none() && hits.fp_div.is_none() {
                continue;
            }
            points.push(EntropyPoint {
                entropy_full: report.full,
                entropy_8: report.win8,
                fp_mul: hits.fp_mul,
                fp_div: hits.fp_div,
            });
        }
        points
    });
    let points: Vec<EntropyPoint> = per_image.into_iter().flatten().collect();

    let panel = |fx: fn(&EntropyPoint) -> f64,
                 fy: fn(&EntropyPoint) -> Option<f64>|
     -> Result<Line, ExperimentError> {
        let (xs, ys): (Vec<f64>, Vec<f64>) =
            points.iter().filter_map(|p| fy(p).map(|y| (fx(p), y))).unzip();
        Ok(fit_line(&xs, &ys)?)
    };

    Ok(Figure2 {
        fdiv_vs_win8: panel(|p| p.entropy_8, |p| p.fp_div)?,
        fdiv_vs_full: panel(|p| p.entropy_full, |p| p.fp_div)?,
        fmul_vs_win8: panel(|p| p.entropy_8, |p| p.fp_mul)?,
        fmul_vs_full: panel(|p| p.entropy_full, |p| p.fp_mul)?,
        points,
    })
}

impl Figure2 {
    /// Render the four fitted lines (the paper's per-panel summary: about
    /// a 5 % hit-ratio drop per entropy bit).
    #[must_use]
    pub fn render(&self) -> String {
        let mut t = TextTable::new(&["panel", "slope (hit/bit)", "intercept", "points"]);
        let n_div = self.points.iter().filter(|p| p.fp_div.is_some()).count();
        let n_mul = self.points.iter().filter(|p| p.fp_mul.is_some()).count();
        for (name, line, n) in [
            ("fdiv vs 8x8 entropy", self.fdiv_vs_win8, n_div),
            ("fdiv vs full entropy", self.fdiv_vs_full, n_div),
            ("fmul vs 8x8 entropy", self.fmul_vs_win8, n_mul),
            ("fmul vs full entropy", self.fmul_vs_full, n_mul),
        ] {
            t.row(vec![
                name.to_string(),
                format!("{:+.4}", line.slope),
                format!("{:.3}", line.intercept),
                n.to_string(),
            ]);
        }
        format!(
            "Figure 2: Hit ratios vs entropy (Marquardt-Levenberg best fit)\n{}",
            t.render()
        )
    }

    /// Dump the scatter points as CSV (for external plotting).
    #[must_use]
    pub fn points_csv(&self) -> String {
        let mut out = String::from("entropy_full,entropy_8x8,fmul_hit,fdiv_hit\n");
        for p in &self.points {
            let opt = |v: Option<f64>| v.map_or(String::new(), |x| format!("{x:.4}"));
            out.push_str(&format!(
                "{:.4},{:.4},{},{}\n",
                p.entropy_full,
                p.entropy_8,
                opt(p.fp_mul),
                opt(p.fp_div)
            ));
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Figures 3 & 4 — geometry sweeps
// ---------------------------------------------------------------------------

/// Aggregate hit-ratio statistics at one sweep point.
#[derive(Debug, Clone, Copy)]
pub struct SweepPoint {
    /// Sweep coordinate: entry count (Fig. 3) or way count (Fig. 4).
    pub x: usize,
    /// Mean hit ratio across the sample apps.
    pub avg: f64,
    /// Minimum across the sample apps.
    pub min: f64,
    /// Maximum across the sample apps.
    pub max: f64,
}

/// One operation kind's sweep curve.
#[derive(Debug, Clone)]
pub struct SweepCurve {
    /// `fmul` or `fdiv`.
    pub kind: OpKind,
    /// The measured points, in sweep order.
    pub points: Vec<SweepPoint>,
}

/// The cached per-image traces of the five sample apps, one `Vec` per app
/// in [`SAMPLE_APPS`] order.
///
/// # Errors
///
/// Fails if a [`SAMPLE_APPS`] name is missing from the registry.
pub fn sample_traces(cfg: ExpConfig) -> Result<Vec<Arc<Vec<OpTrace>>>, ExperimentError> {
    Ok(sample_apps()?.iter().map(|app| traces::mm_traces(cfg, app)).collect())
}

/// The five sample apps, in [`SAMPLE_APPS`] order.
pub(crate) fn sample_apps() -> Result<Vec<MmApp>, ExperimentError> {
    SAMPLE_APPS.iter().map(|name| crate::error::find_mm(name)).collect()
}

/// Measure one operation kind's hit-ratio curve over an arbitrary
/// configuration grid (Figures 3/4 are instances; `runner::sweep` serves
/// caller-chosen grids through the same fused path). Each `(x, config)`
/// pair becomes one [`SweepPoint`] at coordinate `x`.
#[must_use]
pub fn sweep_curve(
    traces: &[Arc<Vec<OpTrace>>],
    kind: OpKind,
    configs: &[(usize, MemoConfig)],
) -> SweepCurve {
    sweep(traces, kind, configs)
}

fn sweep(traces: &[Arc<Vec<OpTrace>>], kind: OpKind, configs: &[(usize, MemoConfig)]) -> SweepCurve {
    // One fused stack pass per application serves the entire grid
    // (applications fan out across cores; the recorded traces are shared).
    let specs: Vec<SweepSpec> =
        configs.iter().map(|&(_, c)| SweepSpec::finite(c, &[kind])).collect();
    let per_app: Vec<Vec<f64>> = parallel::par_map(traces.to_vec(), |app_traces| {
        replay_stats_fused(app_traces.iter(), &specs)
            .iter()
            .zip(configs)
            .map(|(ks, &(_, c))| {
                ks.stats(kind).expect("spec attaches a table to kind").hit_ratio(c.trivial())
            })
            .collect()
    });
    let points = configs
        .iter()
        .enumerate()
        .map(|(i, &(x, _))| {
            let ratios: Vec<f64> = per_app.iter().map(|app| app[i]).collect();
            SweepPoint {
                x,
                avg: ratios.iter().sum::<f64>() / ratios.len() as f64,
                min: ratios.iter().cloned().fold(f64::INFINITY, f64::min),
                max: ratios.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
            }
        })
        .collect();
    SweepCurve { kind, points }
}

/// Figure 3: hit ratio vs LUT size (8 → 8192 entries, 4-way), for fmul
/// and fdiv, over the five sample applications.
///
/// # Errors
///
/// Fails if a [`SAMPLE_APPS`] name is missing from the registry.
pub fn figure3(cfg: ExpConfig) -> Result<[SweepCurve; 2], ExperimentError> {
    results::cached("figure3", cfg, || {
        let traces = sample_traces(cfg)?;
        let sizes = [8usize, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192];
        let configs: Vec<(usize, MemoConfig)> = sizes
            .iter()
            .map(|&s| {
                (s, MemoConfig::builder(s).assoc(Assoc::Ways(4)).build().expect("size is valid"))
            })
            .collect();
        Ok([sweep(&traces, OpKind::FpMul, &configs), sweep(&traces, OpKind::FpDiv, &configs)])
    })
}

/// Figure 4: hit ratio vs associativity (direct-mapped → 8-way) at 32
/// entries.
///
/// # Errors
///
/// Fails if a [`SAMPLE_APPS`] name is missing from the registry.
pub fn figure4(cfg: ExpConfig) -> Result<[SweepCurve; 2], ExperimentError> {
    results::cached("figure4", cfg, || {
        let traces = sample_traces(cfg)?;
        let ways = [1usize, 2, 4, 8];
        let configs: Vec<(usize, MemoConfig)> = ways
            .iter()
            .map(|&w| {
                let assoc = if w == 1 { Assoc::DirectMapped } else { Assoc::Ways(w) };
                (w, MemoConfig::builder(32).assoc(assoc).build().expect("geometry is valid"))
            })
            .collect();
        Ok([sweep(&traces, OpKind::FpMul, &configs), sweep(&traces, OpKind::FpDiv, &configs)])
    })
}

/// Render a sweep figure as a table of avg (min–max) per point.
#[must_use]
pub fn render_sweep(title: &str, x_label: &str, curves: &[SweepCurve]) -> String {
    let mut t = TextTable::new(&[x_label, "fmul avg", "fmul min-max", "fdiv avg", "fdiv min-max"]);
    let n = curves[0].points.len();
    for i in 0..n {
        let (m, d) = (&curves[0].points[i], &curves[1].points[i]);
        t.row(vec![
            m.x.to_string(),
            format!("{:.3}", m.avg),
            format!("{:.2}-{:.2}", m.min, m.max),
            format!("{:.3}", d.avg),
            format!("{:.2}-{:.2}", d.min, d.max),
        ]);
    }
    format!("{title}\n{}", t.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure2_slopes_are_negative() {
        let fig = figure2(ExpConfig::quick()).unwrap();
        // The paper's takeaway: hit ratio falls with entropy, roughly 5 %
        // per bit on the windowed panels.
        assert!(fig.fdiv_vs_win8.slope < 0.0, "fdiv/8x8 slope {}", fig.fdiv_vs_win8.slope);
        assert!(fig.fmul_vs_win8.slope < 0.0, "fmul/8x8 slope {}", fig.fmul_vs_win8.slope);
        assert!(fig.points.len() > 50, "scatter has real mass: {}", fig.points.len());
        let csv = fig.points_csv();
        assert!(csv.lines().count() == fig.points.len() + 1);
    }

    #[test]
    fn figure3_grows_and_saturates() {
        let curves = figure3(ExpConfig::quick()).unwrap();
        for curve in &curves {
            let first = curve.points.first().unwrap().avg;
            let biggest = curve.points.last().unwrap().avg;
            assert!(
                biggest >= first,
                "{}: hit ratio must not shrink with size",
                curve.kind
            );
            // Saturation: the last doubling adds almost nothing.
            let n = curve.points.len();
            let tail_gain = curve.points[n - 1].avg - curve.points[n - 2].avg;
            assert!(tail_gain < 0.05, "{}: tail gain {tail_gain}", curve.kind);
        }
    }

    #[test]
    fn figure4_direct_mapped_is_worst() {
        let curves = figure4(ExpConfig::quick()).unwrap();
        for curve in &curves {
            let dm = curve.points[0].avg;
            let four_way = curve.points[2].avg;
            assert!(
                four_way + 1e-9 >= dm,
                "{}: 4-way {} vs direct-mapped {}",
                curve.kind,
                four_way,
                dm
            );
        }
        // Beyond 4 ways hardly improves (paper: flat past 4).
        let fdiv = &curves[1];
        let gain = fdiv.points[3].avg - fdiv.points[2].avg;
        assert!(gain.abs() < 0.05, "8-way adds {gain}");
    }

    #[test]
    fn render_sweep_formats() {
        let curves = figure4(ExpConfig::quick()).unwrap();
        let s = render_sweep("Figure 4", "ways", &curves);
        assert!(s.contains("Figure 4"));
        assert!(s.lines().count() >= 6);
    }
}
