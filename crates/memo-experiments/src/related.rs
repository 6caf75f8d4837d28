//! Related-work comparison (§1.1): MEMO-TABLEs vs. the schemes the paper
//! positions itself against, on identical division streams from the MM
//! suite.
//!
//! * **Trivial-only detection** (Richardson): a front-end filter with no
//!   table at all — its "hit ratio" is the trivial fraction.
//! * **Reciprocal cache** (Oberman & Flynn): keyed by divisor only; hits
//!   are frequent but each still pays a multiply.
//! * **MEMO-TABLE** (this paper): keyed by both operands; hits complete
//!   in one cycle.
//!
//! The interesting economics: the reciprocal cache hits *more often*
//! (divisors repeat far more than (dividend, divisor) pairs) but saves
//! *less per hit*, so which scheme wins depends on the fmul/fdiv latency
//! gap — quantified here through the same Amdahl SE formula used in §3.3.

use memo_sim::{amdahl, CpuModel};
use memo_table::baselines::ReciprocalCache;
use memo_table::{trivial_result, MemoConfig, MemoTable, Memoizer, OpKind};

use crate::figures::sample_traces;
use crate::format::{ratio, TextTable};
use crate::{ExpConfig, ExperimentError};

/// One scheme's results on the pooled division stream.
#[derive(Debug, Clone, Copy)]
pub struct SchemeResult {
    /// Scheme label.
    pub label: &'static str,
    /// Fraction of divisions served by the scheme's fast path.
    pub hit_ratio: f64,
    /// *Speedup Enhanced* of the division unit under this scheme
    /// (`dc → 1` cycle for memo hits, `dc → fmul` cycles for reciprocal
    /// hits, `dc → trivial latency` for trivial detections).
    pub unit_speedup: f64,
}

/// Compare the three schemes on the sample applications' divisions,
/// using `cpu`'s latencies for the economics.
///
/// # Errors
///
/// Fails if a [`SAMPLE_APPS`] name is missing from the registry.
pub fn compare_division_schemes(
    cfg: ExpConfig,
    cpu: CpuModel,
) -> Result<Vec<SchemeResult>, ExperimentError> {
    let dc = f64::from(cpu.latency(OpKind::FpDiv));
    let mc = f64::from(cpu.latency(OpKind::FpMul));

    // Pool the division stream of the five sample apps, replayed from the
    // shared recordings in app-major, corpus order: one streamed pass
    // feeds every scheme, so the stream is never collected.
    //
    // Scheme 1, trivial-only detection, needs only the counts.
    // Scheme 2: reciprocal cache (same 32-entry 4-way budget).
    let mut recip = ReciprocalCache::new(32, 4);
    // Scheme 3: the MEMO-TABLE (paper default: trivials excluded).
    let mut memo = MemoTable::new(MemoConfig::paper_default());
    // Scheme 4: MEMO-TABLE with the integrated trivial detector (the
    // paper's best configuration, Table 9 "intgr").
    let mut memo_intgr = MemoTable::new(
        MemoConfig::builder(32)
            .trivial(memo_table::TrivialPolicy::Integrate)
            .build()
            .expect("valid"),
    );
    let (mut total, mut trivial_hits) = (0u64, 0u64);
    let traces = sample_traces(cfg)?;
    for trace in traces.iter().flat_map(|app_traces| app_traces.iter()) {
        trace.for_each_kind(OpKind::FpDiv, |op| {
            total += 1;
            if trivial_result(&op).is_some() {
                trivial_hits += 1;
            }
            if let memo_table::Op::FpDiv(a, b) = op {
                let _ = recip.divide(a, b);
            }
            memo.execute(op);
            memo_intgr.execute(op);
        });
    }

    let trivial_hr = trivial_hits as f64 / total as f64;
    // Detected trivials complete in one cycle.
    let trivial_se = dc / ((1.0 - trivial_hr) * dc + trivial_hr);
    let recip_hr = recip.stats().lookup_hit_ratio();
    // A reciprocal hit still pays the multiplier's latency.
    let recip_se = dc / ((1.0 - recip_hr) * dc + recip_hr * mc);
    let memo_hr = memo.hit_ratio();
    let memo_se = amdahl::speedup_enhanced(dc, memo_hr);
    let intgr_hr = memo_intgr.hit_ratio();
    let intgr_se = amdahl::speedup_enhanced(dc, intgr_hr);

    Ok(vec![
        SchemeResult {
            label: "trivial-only detection",
            hit_ratio: trivial_hr,
            unit_speedup: trivial_se,
        },
        SchemeResult {
            label: "reciprocal cache 32/4",
            hit_ratio: recip_hr,
            unit_speedup: recip_se,
        },
        SchemeResult { label: "MEMO-TABLE 32/4", hit_ratio: memo_hr, unit_speedup: memo_se },
        SchemeResult {
            label: "MEMO-TABLE 32/4 + intgr trivials",
            hit_ratio: intgr_hr,
            unit_speedup: intgr_se,
        },
    ])
}

/// Render the comparison for the fast and slow FPU profiles.
///
/// # Errors
///
/// Fails if a [`SAMPLE_APPS`] name is missing from the registry.
pub fn render(cfg: ExpConfig) -> Result<String, ExperimentError> {
    let mut out = String::from(
        "Related-work comparison (Section 1.1): division acceleration schemes\n\
         on the pooled division stream of the five sample MM applications\n\n",
    );
    for cpu in [CpuModel::paper_fast(), CpuModel::paper_slow()] {
        let mut t = TextTable::new(&["scheme", "hit ratio", "division-unit speedup"]);
        for r in compare_division_schemes(cfg, cpu)? {
            t.row(vec![
                r.label.to_string(),
                ratio(Some(r.hit_ratio)),
                format!("{:.2}x", r.unit_speedup),
            ]);
        }
        out.push_str(&format!("{} ({}-cycle divider):\n{}\n", cpu.name, cpu.fp_div, t.render()));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reciprocal_cache_hits_more_often_than_memo_table() {
        // Divisors repeat far more than full operand pairs.
        let rows = compare_division_schemes(ExpConfig::quick(), CpuModel::paper_slow()).unwrap();
        let recip = rows[1];
        let memo = rows[2];
        assert!(
            recip.hit_ratio > memo.hit_ratio,
            "reciprocal {:.2} vs memo {:.2}",
            recip.hit_ratio,
            memo.hit_ratio
        );
    }

    #[test]
    fn memo_table_stays_competitive_despite_fewer_hits() {
        // Each memo hit saves dc−1 cycles; each reciprocal hit only dc−mc.
        // On the slow profile (5 vs 39 cycles) the memo table's per-hit
        // advantage keeps it within reach or ahead.
        let rows = compare_division_schemes(ExpConfig::quick(), CpuModel::paper_slow()).unwrap();
        let trivial = rows[0];
        let memo = rows[2];
        assert!(memo.unit_speedup > trivial.unit_speedup, "memoing beats trivial-only");
        assert!(memo.unit_speedup > 1.1);
    }

    #[test]
    fn all_schemes_report_valid_ratios() {
        for cpu in [CpuModel::paper_fast(), CpuModel::paper_slow()] {
            for r in compare_division_schemes(ExpConfig::quick(), cpu).unwrap() {
                assert!((0.0..=1.0).contains(&r.hit_ratio), "{}", r.label);
                assert!(r.unit_speedup >= 1.0 - 1e-9, "{}", r.label);
            }
        }
    }

    #[test]
    fn render_lists_all_schemes() {
        let s = render(ExpConfig::quick()).unwrap();
        assert!(s.contains("trivial-only"));
        assert!(s.contains("reciprocal"));
        assert!(s.contains("MEMO-TABLE"));
    }
}
