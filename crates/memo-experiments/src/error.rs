//! Typed errors for the experiment harness.
//!
//! Experiments used to `expect()` their way past fallible lookups (app
//! registries, regression fits); a typo in an app list or a degenerate
//! scatter would abort the whole reproduction run. Every runner now
//! returns [`ExperimentError`] instead, and `memo-experiments all` downgrades a
//! failing experiment to a reported failure rather than a crash.

use std::fmt;

use memo_fit::FitError;
use memo_workloads::mm::MmApp;

/// Why an experiment could not produce its table or figure.
#[derive(Debug, Clone, PartialEq)]
pub enum ExperimentError {
    /// An application name is missing from its suite registry.
    UnknownApp {
        /// Which registry was consulted (`"mm"` or `"sci"`).
        suite: &'static str,
        /// The name that failed to resolve.
        name: String,
    },
    /// A least-squares fit failed (empty or degenerate scatter).
    Fit(FitError),
    /// A differential transparency check observed diverging outputs.
    Transparency {
        /// The application whose outputs diverged.
        app: String,
        /// What diverged, human-readable.
        detail: String,
    },
    /// A paper artifact number outside the reproduced set (tables 1–13,
    /// figures 2–4).
    UnknownArtifact {
        /// `"table"` or `"figure"`.
        kind: &'static str,
        /// The rejected number.
        n: usize,
    },
    /// A custom sweep request named an invalid grid (bad axis values,
    /// unbuildable geometry, or two axes at once).
    InvalidSweep(String),
    /// The scorecard ran but one or more claims do not hold — partial
    /// failure that must not exit 0.
    Scorecard {
        /// `source — statement` of every failing claim.
        failing: Vec<String>,
    },
}

impl fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExperimentError::UnknownApp { suite, name } => {
                write!(f, "application {name:?} is not registered in the {suite} suite")
            }
            ExperimentError::Fit(e) => write!(f, "regression fit failed: {e}"),
            ExperimentError::Transparency { app, detail } => {
                write!(f, "transparency violated in {app}: {detail}")
            }
            ExperimentError::UnknownArtifact { kind, n } => {
                write!(f, "no {kind} {n} in the reproduction (tables 1-13, figures 2-4)")
            }
            ExperimentError::InvalidSweep(why) => write!(f, "invalid sweep request: {why}"),
            ExperimentError::Scorecard { failing } => {
                write!(f, "{} scorecard claim(s) FAIL: {}", failing.len(), failing.join("; "))
            }
        }
    }
}

impl std::error::Error for ExperimentError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExperimentError::Fit(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FitError> for ExperimentError {
    fn from(e: FitError) -> Self {
        ExperimentError::Fit(e)
    }
}

/// Resolve an MM application by name, as a typed error instead of a panic.
pub fn find_mm(name: &str) -> Result<MmApp, ExperimentError> {
    memo_workloads::mm::find(name)
        .ok_or_else(|| ExperimentError::UnknownApp { suite: "mm", name: name.to_string() })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn find_mm_resolves_and_reports() {
        assert!(find_mm("vspatial").is_ok());
        let err = find_mm("vbogus").unwrap_err();
        assert_eq!(
            err,
            ExperimentError::UnknownApp { suite: "mm", name: "vbogus".to_string() }
        );
        assert!(err.to_string().contains("vbogus"));
    }

    #[test]
    fn fit_errors_convert() {
        let err: ExperimentError = FitError::BadData.into();
        assert!(err.to_string().contains("fit failed"));
    }
}
