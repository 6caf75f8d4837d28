//! # memo-experiments
//!
//! The harness that regenerates **every table and figure** of the paper's
//! evaluation (§3). One module per experiment, and one table of artifacts,
//! [`runner::ARTIFACTS`], behind one command: `memo-experiments <word>`
//! prints one artifact (`table1` … `table13`, `fig2`, `fig3`, `fig4`, …),
//! `memo-experiments all` runs the full reproduction, and
//! `memo-experiments sweep` a custom sweep.
//!
//! Absolute numbers differ from the paper — the traces come from our
//! re-implemented workloads on synthetic inputs, not Shade on SPARC
//! binaries — but every *shape* the paper argues from is checked by this
//! crate's tests: MM ≫ scientific at 32 entries, the entropy/hit-ratio
//! slope, the size/associativity saturation points, mantissa ≥ full tags,
//! and fdiv speedups exceeding fmul speedups.
//!
//! ## Scaling
//!
//! Full-size runs stream hundreds of millions of operations. [`ExpConfig`]
//! controls the problem sizes: `ExpConfig::default()` (image scale 4,
//! grid 32) keeps every word under a minute; `MEMO_SCALE` and
//! `MEMO_SCI_N` environment variables override.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ablations;
pub mod cache;
pub mod cli;
pub mod env;
pub mod error;
pub mod extension;
pub mod fault_tolerance;
pub mod figures;
pub mod format;
pub mod hits;
pub mod images;
pub mod mantissa;
pub mod parallel;
pub mod regions;
pub mod related;
pub mod results;
pub mod runner;
pub mod speedup;
pub mod store;
pub mod suites;
pub mod summary;
pub mod table1;
pub mod traces;
pub mod trivial;

pub use error::ExperimentError;

/// Problem-size configuration shared by all experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExpConfig {
    /// Divisor applied to the Table 8 image dimensions (1 = paper size).
    pub image_scale: usize,
    /// Grid side / problem size for the scientific kernels.
    pub sci_n: usize,
}

impl Default for ExpConfig {
    fn default() -> Self {
        ExpConfig { image_scale: 4, sci_n: 32 }
    }
}

impl ExpConfig {
    /// Tiny sizes for unit tests (seconds, not minutes).
    #[must_use]
    pub fn quick() -> Self {
        ExpConfig { image_scale: 16, sci_n: 16 }
    }

    /// Read `MEMO_SCALE` / `MEMO_SCI_N` from the environment, falling back
    /// to the defaults.
    #[must_use]
    pub fn from_env() -> Self {
        let mut cfg = ExpConfig::default();
        if let Some(v) = env::usize_var("MEMO_SCALE") {
            cfg.image_scale = v.max(1);
        }
        if let Some(v) = env::usize_var("MEMO_SCI_N") {
            cfg.sci_n = v.max(8);
        }
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_and_quick_differ() {
        assert!(ExpConfig::quick().image_scale > ExpConfig::default().image_scale);
    }

    #[test]
    fn from_env_clamps() {
        // No env vars set in the test harness: defaults come back.
        let cfg = ExpConfig::from_env();
        assert!(cfg.image_scale >= 1);
        assert!(cfg.sci_n >= 8);
    }
}
