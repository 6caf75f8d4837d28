//! The paper's named future work (§4): extending MEMO-TABLEs to the
//! square-root unit, and quantifying the pipeline-hazard benefit that the
//! headline cycle counts deliberately exclude (§3.3).

use memo_imaging::Image;
use memo_sim::{
    compare_divider_farms, CpuModel, CycleAccountant, EventSink, FarmComparison, MemoBank,
    MemoryHierarchy, PipelineModel,
};
use memo_table::{MemoConfig, MemoTable, OpKind};
use memo_workloads::suite::measure_mm_cycles;

use crate::error::find_mm;
use crate::figures::sample_traces;
use crate::format::{ratio, TextTable};
use crate::{parallel, traces, ExpConfig, ExperimentError};

/// A workload variant that uses the hardware square-root *instruction*
/// instead of Newton iteration on the divider — per-pixel `fsqrt` over an
/// image, the `vsqrt` of a machine with a real sqrt unit.
pub fn sqrt_image<S: EventSink + ?Sized>(sink: &mut S, input: &Image) {
    for y in 0..input.height() {
        for x in 0..input.width() {
            sink.load((y * input.width() + x) as u64 * 8);
            let _ = sink.fsqrt(input.get(x, y, 0));
            sink.int_ops(2);
            sink.branch();
        }
    }
}

/// Square-root memoization results.
#[derive(Debug, Clone, Copy)]
pub struct SqrtExtension {
    /// Hit ratio of a 32-entry, 4-way table on the sqrt unit.
    pub hit_ratio: f64,
    /// Measured speedup of the sqrt-heavy workload.
    pub speedup: f64,
    /// Fraction of baseline cycles spent in the sqrt unit.
    pub fraction_enhanced: f64,
}

/// Run the sqrt future-work experiment over the image corpus.
#[must_use]
pub fn sqrt_extension(cfg: ExpConfig) -> SqrtExtension {
    let corpus = traces::corpus(cfg.image_scale);
    let bank = MemoBank::none()
        .with_table(OpKind::FpSqrt, MemoTable::new(MemoConfig::paper_default()));
    let mut acc =
        CycleAccountant::new(CpuModel::paper_slow(), MemoryHierarchy::typical_1997(), bank);
    for c in corpus.iter() {
        sqrt_image(&mut acc, &c.image);
    }
    let report = acc.report();
    SqrtExtension {
        hit_ratio: report.hit_ratio(OpKind::FpSqrt),
        speedup: report.speedup_measured(),
        fraction_enhanced: report.fraction_enhanced(OpKind::FpSqrt),
    }
}

/// One application's pipeline-model vs latency-model comparison.
#[derive(Debug, Clone)]
pub struct PipelineRow {
    /// Application name.
    pub name: String,
    /// Speedup under the paper's latency-accounting model.
    pub latency_model: f64,
    /// Speedup under the in-order pipeline model with structural hazards.
    pub pipeline_model: f64,
    /// Divider stall cycles removed by memoization.
    pub stalls_removed: u64,
}

/// §2.2–2.3: how much more a MEMO-TABLE buys once structural hazards are
/// modelled — the non-pipelined divider blocks issue on the baseline
/// machine but is freed by table hits.
///
/// # Errors
///
/// Fails if a studied app name is missing from the registry.
pub fn pipeline_study(cfg: ExpConfig) -> Result<Vec<PipelineRow>, ExperimentError> {
    let apps = ["vspatial", "vgauss", "vgpwl", "vkmeans"]
        .iter()
        .map(|name| find_mm(name))
        .collect::<Result<Vec<_>, _>>()?;

    let corpus = traces::corpus(cfg.image_scale);
    let inputs: Vec<&Image> = corpus.iter().map(|c| &c.image).collect();
    Ok(parallel::par_map(apps, |app| {
        // Three native runs per app, one per machine model.
        let latency_model =
            measure_mm_cycles(&app, &inputs, CpuModel::paper_slow(), MemoBank::paper_default())
                .speedup_measured();

        // Pipeline model: baseline vs memoized.
        let pipeline = |bank| {
            let mut model =
                PipelineModel::new(CpuModel::paper_slow(), MemoryHierarchy::typical_1997(), bank);
            for &input in &inputs {
                app.run(&mut model, input);
            }
            model
        };
        let base = pipeline(MemoBank::none());
        let memo = pipeline(MemoBank::paper_default());
        let b = base.report();
        let m = memo.report();
        PipelineRow {
            name: app.name.to_string(),
            latency_model,
            pipeline_model: b.cycles as f64 / m.cycles as f64,
            stalls_removed: b.fp_div_stalls.saturating_sub(m.fp_div_stalls),
        }
    }))
}

/// §2.3 / §4: one divider + MEMO-TABLE interface vs. a duplicated divider,
/// on the pooled division stream of the sample applications.
///
/// # Errors
///
/// Fails if a [`SAMPLE_APPS`] name is missing from the registry.
pub fn divider_farm_study(cfg: ExpConfig) -> Result<FarmComparison, ExperimentError> {
    let traces = sample_traces(cfg)?;
    // Streamed one recording at a time, so the sample's divisions are
    // never collected as a whole.
    let divisions = traces.iter().flat_map(|app_traces| app_traces.iter()).flat_map(|trace| {
        let mut ops = Vec::with_capacity(trace.count(OpKind::FpDiv));
        trace.for_each_kind(OpKind::FpDiv, |op| ops.push(op));
        ops
    });
    Ok(compare_divider_farms(&CpuModel::paper_slow(), MemoConfig::paper_default(), divisions))
}

/// Render both future-work studies.
///
/// # Errors
///
/// Fails if a studied app name is missing from the registry.
pub fn render(cfg: ExpConfig) -> Result<String, ExperimentError> {
    let s = sqrt_extension(cfg);
    let mut out = format!(
        "Future work (Section 4): memoizing the square-root unit\n\
         32-entry 4-way table on fsqrt: hit ratio {}, FE {:.3}, speedup {:.3}x\n\n",
        ratio(Some(s.hit_ratio)),
        s.fraction_enhanced,
        s.speedup
    );

    let mut t = TextTable::new(&["app", "latency-model", "pipeline-model", "stalls removed"]);
    for r in pipeline_study(cfg)? {
        t.row(vec![
            r.name,
            format!("{:.3}x", r.latency_model),
            format!("{:.3}x", r.pipeline_model),
            r.stalls_removed.to_string(),
        ]);
    }
    out.push_str(&format!(
        "Pipeline integration (Sections 2.2-2.3): speedup once structural\n\
         hazards of the non-pipelined divider are modelled\n{}\n",
        t.render()
    ));

    let farm = divider_farm_study(cfg)?;
    out.push_str(&format!(
        "Divider farm (Section 2.3 / Section 4): draining {} divisions (39-cycle divider)\n\
         1 divider                    : {:>9} cycles ({:.3} div/cycle)\n\
         1 divider + MEMO-TABLE iface : {:>9} cycles ({:.3} div/cycle, {} interface hits)\n\
         2 dividers                   : {:>9} cycles ({:.3} div/cycle)\n",
        farm.divisions,
        farm.single.cycles,
        farm.single.throughput(farm.divisions),
        farm.with_interface.cycles,
        farm.with_interface.throughput(farm.divisions),
        farm.with_interface.interface_hits,
        farm.dual.cycles,
        farm.dual.throughput(farm.divisions),
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sqrt_unit_memoizes_like_the_divider() {
        let s = sqrt_extension(ExpConfig::quick());
        // Byte-valued pixels: at most 256 distinct square roots; locally
        // far fewer — solid hit ratios and a real speedup.
        assert!(s.hit_ratio > 0.3, "sqrt hit ratio {}", s.hit_ratio);
        assert!(s.speedup > 1.1, "sqrt speedup {}", s.speedup);
        assert!(s.fraction_enhanced > 0.2, "sqrt FE {}", s.fraction_enhanced);
    }

    #[test]
    fn pipeline_model_amplifies_division_wins() {
        let rows = pipeline_study(ExpConfig::quick()).unwrap();
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert!(r.latency_model >= 1.0, "{}", r.name);
            assert!(r.pipeline_model >= 1.0, "{}", r.name);
        }
        // Division-heavy apps remove real stalls.
        let total_removed: u64 = rows.iter().map(|r| r.stalls_removed).sum();
        assert!(total_removed > 0);
    }

    #[test]
    fn divider_farm_interface_is_worth_a_second_divider() {
        let farm = divider_farm_study(ExpConfig::quick()).unwrap();
        assert!(farm.divisions > 100);
        assert!(
            farm.with_interface.cycles < farm.single.cycles,
            "the interface must help: {} vs {}",
            farm.with_interface.cycles,
            farm.single.cycles
        );
        // The table interface recovers a substantial share of what a full
        // second divider would buy (at a fraction of the area, §2.4).
        let gain_interface =
            farm.single.cycles.saturating_sub(farm.with_interface.cycles) as f64;
        let gain_dual = farm.single.cycles.saturating_sub(farm.dual.cycles) as f64;
        assert!(
            gain_interface > 0.3 * gain_dual,
            "interface gain {gain_interface} vs dual-divider gain {gain_dual}"
        );
    }

    #[test]
    fn render_mentions_all_studies() {
        let s = render(ExpConfig::quick()).unwrap();
        assert!(s.contains("square-root"));
        assert!(s.contains("Pipeline integration"));
        assert!(s.contains("Divider farm"));
    }
}
