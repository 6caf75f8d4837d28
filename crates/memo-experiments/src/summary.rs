//! The reproduction scorecard: every headline claim of the paper,
//! evaluated live, with a ✓/✗ verdict — the machine-checked version of
//! `EXPERIMENTS.md`.

use memo_table::OpKind;

use crate::format::TextTable;
use crate::{figures, hits, mantissa, speedup, trivial, ExpConfig, ExperimentError};

/// One claim's evaluation.
#[derive(Debug, Clone)]
pub struct Claim {
    /// Where in the paper the claim lives.
    pub source: &'static str,
    /// The claim, in one sentence.
    pub statement: &'static str,
    /// The measured evidence.
    pub evidence: String,
    /// Whether the measurement supports the claim.
    pub holds: bool,
}

/// Evaluate the full scorecard (runs the underlying experiments; several
/// seconds at quick scale, a minute or two at default scale).
///
/// # Errors
///
/// Fails if any underlying experiment fails (unregistered app, bad fit).
pub fn scorecard(cfg: ExpConfig) -> Result<Vec<Claim>, ExperimentError> {
    let mut claims = Vec::new();

    // --- Tables 5-7 ---
    let t5 = hits::table5(cfg);
    let t6 = hits::table6(cfg);
    let t7 = hits::table7(cfg);
    let mm_div = t7.averages.0.fp_div.unwrap_or(0.0);
    let sci_div = t5
        .averages
        .0
        .fp_div
        .unwrap_or(0.0)
        .max(t6.averages.0.fp_div.unwrap_or(0.0));
    claims.push(Claim {
        source: "Tables 5-7",
        statement: "MM applications beat both scientific suites at 32 entries (fdiv)",
        evidence: format!("MM {:.2} vs best scientific {:.2}", mm_div, sci_div),
        holds: mm_div > sci_div,
    });
    let inf_dominates = [&t5, &t6, &t7].iter().all(|t| {
        [OpKind::IntMul, OpKind::FpMul, OpKind::FpDiv].iter().all(|&k| {
            match (t.averages.0.get(k), t.averages.1.get(k)) {
                (Some(f), Some(i)) => i + 1e-9 >= f,
                _ => true,
            }
        })
    });
    claims.push(Claim {
        source: "§3.1",
        statement: "Unbounded tables dominate 32-entry tables on every suite and unit",
        evidence: format!(
            "MM fdiv {:.2} -> {:.2} unbounded",
            mm_div,
            t7.averages.1.fp_div.unwrap_or(0.0)
        ),
        holds: inf_dominates,
    });

    // --- Figure 2 ---
    let fig2 = figures::figure2(cfg)?;
    claims.push(Claim {
        source: "Figure 2",
        statement: "Hit ratio falls a few percent per entropy bit",
        evidence: format!(
            "slopes: fdiv {:.3}, fmul {:.3} per 8x8-entropy bit",
            fig2.fdiv_vs_win8.slope, fig2.fmul_vs_win8.slope
        ),
        holds: fig2.fdiv_vs_win8.slope < -0.01 && fig2.fmul_vs_win8.slope < -0.01,
    });

    // --- Figure 3 ---
    let [fmul3, fdiv3] = figures::figure3(cfg)?;
    let tail = fdiv3.points[fdiv3.points.len() - 1].avg - fdiv3.points[fdiv3.points.len() - 2].avg;
    claims.push(Claim {
        source: "Figure 3",
        statement: "Hit ratio grows with table size and saturates",
        evidence: format!(
            "fdiv {:.2}@8 -> {:.2}@1024 -> {:.2}@8192 (last doubling +{:.3})",
            fdiv3.points[0].avg,
            fdiv3.points[7].avg,
            fdiv3.points[10].avg,
            tail
        ),
        holds: fdiv3.points[10].avg >= fdiv3.points[0].avg && tail < 0.05,
    });
    claims.push(Claim {
        source: "Figure 3",
        statement: "Division tolerates smaller tables than multiplication",
        evidence: format!(
            "at 8 entries fdiv keeps {:.0}% of its 32-entry ratio, fmul {:.0}%",
            100.0 * fdiv3.points[0].avg / fdiv3.points[2].avg.max(1e-9),
            100.0 * fmul3.points[0].avg / fmul3.points[2].avg.max(1e-9),
        ),
        holds: fdiv3.points[0].avg / fdiv3.points[2].avg.max(1e-9)
            >= fmul3.points[0].avg / fmul3.points[2].avg.max(1e-9) - 0.05,
    });

    // --- Figure 4 ---
    let [fmul4, fdiv4] = figures::figure4(cfg)?;
    claims.push(Claim {
        source: "Figure 4",
        statement: "Direct-mapped tables suffer conflicts; gains flatten past 4 ways",
        evidence: format!(
            "fdiv: {:.2}@1w {:.2}@2w {:.2}@4w {:.2}@8w",
            fdiv4.points[0].avg, fdiv4.points[1].avg, fdiv4.points[2].avg, fdiv4.points[3].avg
        ),
        holds: fdiv4.points[1].avg >= fdiv4.points[0].avg
            && (fdiv4.points[3].avg - fdiv4.points[2].avg).abs() < 0.05
            && fmul4.points[1].avg >= fmul4.points[0].avg,
    });

    // --- Table 9 ---
    let t9 = trivial::table9(cfg)?;
    let mut wins = 0;
    let mut total = 0;
    for r in &t9 {
        for c in [&r.int_mul, &r.fp_mul, &r.fp_div] {
            if c.present {
                total += 1;
                if c.integrated + 1e-9 >= c.non.max(c.all) {
                    wins += 1;
                }
            }
        }
    }
    claims.push(Claim {
        source: "Table 9",
        statement: "Integrated trivial detection gives the highest hit ratios",
        evidence: format!("best-of-three in {wins}/{total} cells"),
        holds: wins * 10 >= total * 8,
    });

    // --- Table 10 ---
    let t10 = mantissa::table10(cfg);
    claims.push(Claim {
        source: "Table 10",
        statement: "Mantissa-only tags raise hit ratios, albeit not dramatically",
        evidence: format!(
            "MM fdiv {:.2} -> {:.2}; Perfect fdiv {:.2} -> {:.2}",
            t10[1].fdiv_full, t10[1].fdiv_mant, t10[0].fdiv_full, t10[0].fdiv_mant
        ),
        holds: t10.iter().all(|r| r.fdiv_mant + 0.02 >= r.fdiv_full),
    });

    // --- Tables 11-13 ---
    let t11 = speedup::averages(&speedup::table11(cfg)?);
    let t12 = speedup::averages(&speedup::table12(cfg)?);
    let t13 = speedup::averages(&speedup::table13(cfg)?);
    claims.push(Claim {
        source: "Tables 11-12",
        statement: "Memoizing division outpays memoizing multiplication",
        evidence: format!(
            "avg speedup {:.2}x (fdiv@39c) vs {:.2}x (fmul@5c)",
            t11.slow.speedup, t12.slow.speedup
        ),
        holds: t11.slow.speedup > t12.slow.speedup,
    });
    claims.push(Claim {
        source: "Table 13",
        statement: "Combined memoization reaches a material average speedup",
        evidence: format!(
            "{:.2}x fast profile, {:.2}x slow profile (paper: 1.08x / 1.22x)",
            t13.fast.speedup, t13.slow.speedup
        ),
        holds: t13.slow.speedup > 1.05 && t13.slow.speedup >= t13.fast.speedup,
    });

    Ok(claims)
}

/// Render the scorecard.
///
/// # Errors
///
/// Fails if any underlying experiment fails (unregistered app, bad fit).
pub fn render(cfg: ExpConfig) -> Result<String, ExperimentError> {
    let claims = scorecard(cfg)?;
    Ok(render_claims(&claims))
}

/// [`render`], but failing claims are an error: prints nothing less, yet
/// lets `memo-experiments all` (and CI behind it) exit nonzero on a partial
/// failure instead of reporting PASS around a `FAILS` verdict.
///
/// # Errors
///
/// Fails if an underlying experiment fails, or — as
/// [`ExperimentError::Scorecard`] — if any evaluated claim does not hold.
pub fn render_strict(cfg: ExpConfig) -> Result<String, ExperimentError> {
    let claims = scorecard(cfg)?;
    let failing: Vec<String> = claims
        .iter()
        .filter(|c| !c.holds)
        .map(|c| format!("{} — {}", c.source, c.statement))
        .collect();
    if failing.is_empty() {
        Ok(render_claims(&claims))
    } else {
        // The table itself still reaches the user: print it before
        // surfacing the error, since the error names only the claims.
        println!("{}", render_claims(&claims));
        Err(ExperimentError::Scorecard { failing })
    }
}

/// Render an already-evaluated claim list in the scorecard layout.
#[must_use]
pub fn render_claims(claims: &[Claim]) -> String {
    let mut t = TextTable::new(&["source", "claim", "measured", "verdict"]);
    let all_hold = claims.iter().all(|c| c.holds);
    for c in claims {
        t.row(vec![
            c.source.to_string(),
            c.statement.to_string(),
            c.evidence.clone(),
            if c.holds { "HOLDS".to_string() } else { "FAILS".to_string() },
        ]);
    }
    format!(
        "Reproduction scorecard ({} claims, {} hold)\n{}",
        claims.len(),
        if all_hold { "all".to_string() } else { "NOT all".to_string() },
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_claim_holds_at_quick_scale() {
        let claims = scorecard(ExpConfig::quick()).unwrap();
        assert_eq!(claims.len(), 10);
        for c in &claims {
            assert!(c.holds, "{} — {} ({})", c.source, c.statement, c.evidence);
        }
    }

    #[test]
    fn render_shows_verdicts() {
        let s = render(ExpConfig::quick()).unwrap();
        assert!(s.contains("HOLDS"));
        assert!(!s.contains("FAILS"));
    }

    #[test]
    fn render_claims_flags_failures() {
        let claims = vec![Claim {
            source: "Table 0",
            statement: "water flows uphill",
            evidence: "it does not".to_string(),
            holds: false,
        }];
        let s = render_claims(&claims);
        assert!(s.contains("FAILS"));
        assert!(s.contains("NOT all"));
    }
}
