//! Region memoization: the paper's per-unit memoing generalized to
//! whole basic blocks (crate `memo-region`), evaluated over ISA-level
//! proxies of all 18 MM + 19 sci kernels.
//!
//! Each kernel is represented by a small assembly program with the same
//! value-locality character the paper measured: a load → pure arithmetic
//! chain → store loop, with MM inputs quantized to a handful of distinct
//! values (images are low-entropy) and sci inputs effectively unique.
//! The pure chain between the load and the store is exactly what the
//! region detector finds, so region hit ratios track input reuse the way
//! the paper's per-unit hit ratios do — high for MM, near zero for sci.
//!
//! Three sections ride on the same machinery:
//!
//! - a per-kernel table comparing region hit ratio and speedup against
//!   the per-unit memoized machine on the identical instruction stream;
//! - a differential transparency check proving final architectural state
//!   (all registers, all memory, retired count, exit reason) bit-exact
//!   with the region table on vs. off, at every swept geometry and
//!   protection policy;
//! - a fault-injection demo showing that parity/SEC-DED/verify-on-hit
//!   keep the transparency guarantee under payload strikes while an
//!   unprotected table silently corrupts.

use memo_isa::{assemble, Cpu, IsaError, Program};
use memo_region::{run_with_regions, RegionConfig, RegionIndex, RegionTable};
use memo_sim::{CpuModel, CycleAccountant, MemoryHierarchy, NullSink};
use memo_table::rng::SplitMix64;
use memo_table::{Assoc, FaultConfig, Protection};
use memo_workloads::{mm, sci};

use crate::error::ExperimentError;
use crate::fault_tolerance::faulty_bank;
use crate::format::{frac3, TextTable};
use crate::{parallel, ExpConfig};

/// Longest pure instruction run one region may cover; longer runs are
/// chunked.
const MAX_LEN: usize = 16;

/// Region-table entries in the survey and the rendered report.
const TABLE_ENTRIES: usize = 64;

/// Dynamic-instruction budget per proxy run (far above any proxy's need).
const FUEL: u64 = 50_000_000;

/// Fault rate for the protection demo, per matched probe.
const DEMO_FAULT_RATE: f64 = 0.1;

/// An ISA-level proxy for one kernel: the program plus its input image.
struct Proxy {
    name: &'static str,
    suite: &'static str,
    program: Program,
    data: Vec<f64>,
}

impl Proxy {
    /// A machine with the proxy's inputs written at address 0 and room
    /// for the outputs behind them.
    fn fresh_cpu(&self) -> Cpu {
        let mut cpu = Cpu::new(self.data.len() * 16 + 64);
        for (i, &v) in self.data.iter().enumerate() {
            cpu.write_f64(i as u64 * 8, v).expect("input fits the allocated memory");
        }
        cpu
    }
}

/// Generate the proxy for one kernel. The arithmetic chain (ops, constants,
/// length) and the input distribution derive deterministically from the
/// kernel name, so every run of every binary sees the same programs.
fn proxy(name: &'static str, suite: &'static str, elems: usize, distinct: Option<u64>) -> Proxy {
    let mut rng = SplitMix64::new(0x7e61_0a11).split(name);
    let c8 = 0.5 + rng.next_f64() * 3.0;
    let c9 = 1.0 + rng.next_f64() * 3.0;
    let chain_len = 3 + rng.next_below(4);
    let mut chain = String::new();
    let mut cur = 1u8; // f1 holds the loaded element
    for _ in 0..chain_len {
        let dst = 2 + rng.next_below(5) as u8; // f2..f6
        let line = match rng.next_below(6) {
            0 => format!("fmul f{dst}, f{cur}, f8"),
            1 => format!("fadd f{dst}, f{cur}, f9"),
            2 => format!("fsub f{dst}, f{cur}, f8"),
            3 => format!("fdiv f{dst}, f{cur}, f9"),
            4 => format!("fsqrt f{dst}, f{cur}"),
            _ => format!("fmul f{dst}, f{cur}, f{cur}"),
        };
        chain.push_str("    ");
        chain.push_str(&line);
        chain.push('\n');
        cur = dst;
    }
    let out_base = elems * 8;
    let src = format!(
        "    li r1, 0\n    li r2, {elems}\n    li r3, 0\n    li r4, {out_base}\n    \
         lif f8, {c8:?}\n    lif f9, {c9:?}\n\
         loop:\n    ldf f1, r3, 0\n{chain}    stf f{cur}, r4, 0\n    \
         addi r3, r3, 8\n    addi r4, r4, 8\n    addi r1, r1, 1\n    \
         blt r1, r2, loop\n    halt\n"
    );
    let program = assemble(&src).expect("generated proxy assembles");
    let base = rng.next_f64() * 4.0;
    let step = 0.25 + rng.next_f64();
    let data = (0..elems)
        .map(|_| match distinct {
            // Multi-media inputs: pixels quantized to a few levels.
            Some(levels) => base + step * rng.next_below(levels) as f64,
            // Scientific inputs: effectively unique doubles.
            None => rng.next_f64() * 100.0,
        })
        .collect();
    Proxy { name, suite, program, data }
}

/// Proxies for all 18 MM + 19 sci kernels at this config's problem size.
fn proxies(cfg: ExpConfig) -> Vec<Proxy> {
    let mm_elems = (1024 / cfg.image_scale).max(64);
    let sci_elems = (cfg.sci_n * 8).max(64);
    let mut out = Vec::new();
    for app in mm::apps() {
        let mut rng = SplitMix64::new(0x1e5e15).split(app.name);
        let levels = 4u64 << rng.next_below(3); // 4, 8 or 16 pixel levels
        out.push(proxy(app.name, "mm", mm_elems, Some(levels)));
    }
    for app in sci::all_apps() {
        out.push(proxy(app.name, "sci", sci_elems, None));
    }
    out
}

fn isa_error(app: &str, e: IsaError) -> ExperimentError {
    ExperimentError::Transparency { app: app.to_string(), detail: format!("proxy run failed: {e}") }
}

/// Assert every piece of architectural state is bit-identical.
fn compare_state(
    app: &str,
    context: &str,
    plain: &Cpu,
    memoized: &Cpu,
) -> Result<(), ExperimentError> {
    let fail = |detail: String| {
        Err(ExperimentError::Transparency { app: app.to_string(), detail: format!("{context}: {detail}") })
    };
    for r in 0..32 {
        if plain.reg(r) != memoized.reg(r) {
            return fail(format!("r{r} {} != {}", plain.reg(r), memoized.reg(r)));
        }
        if plain.freg(r).to_bits() != memoized.freg(r).to_bits() {
            return fail(format!("f{r} {:?} != {:?}", plain.freg(r), memoized.freg(r)));
        }
    }
    if plain.memory() != memoized.memory() {
        let at = plain
            .memory()
            .iter()
            .zip(memoized.memory())
            .position(|(a, b)| a != b)
            .unwrap_or(0);
        return fail(format!("memory diverges at byte {at}"));
    }
    if plain.retired() != memoized.retired() {
        return fail(format!("retired {} != {}", plain.retired(), memoized.retired()));
    }
    Ok(())
}

/// One kernel's measurements at the default (env-knob) region table.
pub struct KernelRegions {
    /// Kernel name.
    pub name: &'static str,
    /// `"mm"` or `"sci"`.
    pub suite: &'static str,
    /// Statically detected regions in the proxy.
    pub static_regions: usize,
    /// Dynamic instructions inside entered regions / retired instructions.
    pub coverage: f64,
    /// Region-table hits over region entries.
    pub hit_ratio: f64,
    /// Speedup of the region-memoized machine over the baseline.
    pub region_speedup: f64,
    /// Speedup of the paper's per-unit memoized machine on the same run.
    pub unit_speedup: f64,
}

fn survey_one(proxy: &Proxy) -> Result<KernelRegions, ExperimentError> {
    // The per-unit machine: one plain run through a CycleAccountant with
    // the paper's slow-latency model and unprotected memo bank.
    let mut acc = CycleAccountant::new(
        CpuModel::paper_slow(),
        MemoryHierarchy::typical_1997(),
        faulty_bank(Protection::None, 0.0, 0),
    );
    let mut plain = proxy.fresh_cpu();
    plain.run(&proxy.program, &mut acc, FUEL).map_err(|e| isa_error(proxy.name, e))?;
    let report = acc.report();
    let baseline = report.baseline().total();
    let unit_speedup = report.speedup_measured();

    // The region machine: identical initial state, identical stream.
    let index = RegionIndex::new(&proxy.program, MAX_LEN);
    let mut table = RegionTable::new(RegionConfig::new(TABLE_ENTRIES))
        .expect("entries are a power of two >= 8");
    let mut memoized = proxy.fresh_cpu();
    let (_, stats) = run_with_regions(
        &mut memoized,
        &proxy.program,
        &index,
        &mut table,
        &CpuModel::paper_slow(),
        &mut NullSink,
        FUEL,
    )
    .map_err(|e| isa_error(proxy.name, e))?;
    compare_state(proxy.name, "default table", &plain, &memoized)?;

    Ok(KernelRegions {
        name: proxy.name,
        suite: proxy.suite,
        static_regions: index.regions().len(),
        coverage: stats.covered as f64 / memoized.retired() as f64,
        hit_ratio: stats.hit_ratio().unwrap_or(0.0),
        region_speedup: stats.speedup(baseline),
        unit_speedup,
    })
}

/// Measure every kernel at the default region table (also verifying
/// state transparency along the way).
///
/// # Errors
///
/// [`ExperimentError::Transparency`] if any proxy's final state diverges.
pub fn survey(cfg: ExpConfig) -> Result<Vec<KernelRegions>, ExperimentError> {
    parallel::par_map(proxies(cfg), |p| survey_one(&p)).into_iter().collect()
}

/// What the differential checker proved.
pub struct RegionTransparency {
    /// Kernels checked (all 37).
    pub kernels: usize,
    /// Table configurations checked per kernel.
    pub configs: usize,
}

/// The sweep grid the checker runs: three sizes by three associativities
/// unprotected, plus every protection policy at the default geometry.
fn checker_grid() -> Vec<(usize, Assoc, Protection)> {
    let mut grid = Vec::new();
    for entries in [16, 64, 256] {
        for assoc in [Assoc::DirectMapped, Assoc::Ways(4), Assoc::Full] {
            grid.push((entries, assoc, Protection::None));
        }
    }
    for protection in
        [Protection::ParityDetect, Protection::EccSecDed, Protection::VerifyOnHit { verify_cycles: 4 }]
    {
        grid.push((64, Assoc::Ways(4), protection));
    }
    grid
}

/// Differential transparency: run every kernel plain and region-memoized
/// at every grid point, demanding bit-identical final state.
///
/// # Errors
///
/// [`ExperimentError::Transparency`] naming the first diverging kernel
/// and configuration.
pub fn check_transparency(cfg: ExpConfig) -> Result<RegionTransparency, ExperimentError> {
    let grid = checker_grid();
    let configs = grid.len();
    let all = proxies(cfg);
    let kernels = all.len();
    parallel::par_map(all, move |proxy| -> Result<(), ExperimentError> {
        let mut plain = proxy.fresh_cpu();
        plain.run(&proxy.program, &mut NullSink, FUEL).map_err(|e| isa_error(proxy.name, e))?;
        let index = RegionIndex::new(&proxy.program, MAX_LEN);
        for &(entries, assoc, protection) in &grid {
            let mut table = RegionTable::new(
                RegionConfig::new(entries).assoc(assoc).protection(protection),
            )
            .expect("grid geometries are valid");
            let mut memoized = proxy.fresh_cpu();
            run_with_regions(
                &mut memoized,
                &proxy.program,
                &index,
                &mut table,
                &CpuModel::paper_slow(),
                &mut NullSink,
                FUEL,
            )
            .map_err(|e| isa_error(proxy.name, e))?;
            let context = format!("{entries} entries, {assoc:?}, {protection}");
            compare_state(proxy.name, &context, &plain, &memoized)?;
        }
        Ok(())
    })
    .into_iter()
    .collect::<Result<(), _>>()?;
    Ok(RegionTransparency { kernels, configs })
}

/// One row of the fault-injection demo.
pub struct FaultDemoRow {
    /// Protection policy label.
    pub protection: Protection,
    /// Counters from the struck table.
    pub injected: u64,
    /// Faults the policy caught (entry invalidated, fell back to execution).
    pub detected: u64,
    /// Faults SEC-DED repaired in place.
    pub corrected: u64,
    /// Faults served without detection.
    pub silent: u64,
    /// Whether final state still matched plain execution.
    pub transparent: bool,
}

/// Strike the region table of one high-reuse proxy and show which
/// policies keep the transparency guarantee. Detecting policies must;
/// `Protection::None` is expected to corrupt silently.
#[must_use]
pub fn fault_demo(cfg: ExpConfig) -> Vec<FaultDemoRow> {
    let p = proxies(cfg).into_iter().next().expect("at least one proxy");
    let mut plain = p.fresh_cpu();
    plain.run(&p.program, &mut NullSink, FUEL).expect("proxy halts");
    Protection::ALL
        .iter()
        .map(|&protection| {
            let mut table = RegionTable::new(
                RegionConfig::new(64)
                    .protection(protection)
                    .faults(FaultConfig::single_bit(977, DEMO_FAULT_RATE)),
            )
            .expect("demo geometry is valid");
            // Two passes through one table: the first fills it, the
            // second takes hits under strikes. A corrupt payload served
            // by an unprotected table can steer the program anywhere —
            // even into a memory fault — so a failed run is just another
            // (extreme) form of lost transparency, not a harness error.
            let index = RegionIndex::new(&p.program, MAX_LEN);
            let mut memoized = p.fresh_cpu();
            let mut ran = Ok(());
            for pass in 0..2 {
                if pass == 1 {
                    memoized = p.fresh_cpu();
                }
                ran = run_with_regions(
                    &mut memoized,
                    &p.program,
                    &index,
                    &mut table,
                    &CpuModel::paper_slow(),
                    &mut NullSink,
                    FUEL,
                )
                .map(|_| ());
                if ran.is_err() {
                    break;
                }
            }
            let transparent =
                ran.is_ok() && compare_state(p.name, "fault demo", &plain, &memoized).is_ok();
            let s = table.stats();
            FaultDemoRow {
                protection,
                injected: s.faults_injected,
                detected: s.faults_detected,
                corrected: s.faults_corrected,
                silent: s.faults_silent,
                transparent,
            }
        })
        .collect()
}

fn geomean(xs: impl Iterator<Item = f64>) -> Option<f64> {
    let (mut sum, mut n) = (0.0, 0u32);
    for x in xs {
        if x > 0.0 {
            sum += x.ln();
            n += 1;
        }
    }
    (n > 0).then(|| (sum / f64::from(n)).exp())
}

/// Render the full region-memoization report.
///
/// # Errors
///
/// [`ExperimentError::Transparency`] if any differential check fails.
pub fn render(cfg: ExpConfig) -> Result<String, ExperimentError> {
    let rows = survey(cfg)?;
    let proof = check_transparency(cfg)?;
    let demo = fault_demo(cfg);

    let mut out = String::new();
    out.push_str(&format!(
        "Region memoization: basic-block bypass keyed on (entry pc, live-in values)\n\
         Region table: {TABLE_ENTRIES} entries, 4-way LRU, regions up to {MAX_LEN} instructions.\n\
         Each kernel runs as an ISA-level proxy (load -> pure arithmetic chain -> store);\n\
         MM inputs are quantized to 4-16 pixel levels, sci inputs are effectively unique,\n\
         so region reuse tracks the value locality the paper measured per unit.\n\
         'region' speedup bypasses whole blocks; 'per-unit' memoizes single operations\n\
         on the identical instruction stream (paper_slow latencies).\n\n"
    ));

    let mut t = TextTable::new(&[
        "app", "suite", "regions", "coverage", "hit ratio", "region speedup", "per-unit speedup",
    ]);
    for r in &rows {
        t.row(vec![
            r.name.to_string(),
            r.suite.to_string(),
            r.static_regions.to_string(),
            frac3(r.coverage),
            frac3(r.hit_ratio),
            format!("{:.2}x", r.region_speedup),
            format!("{:.2}x", r.unit_speedup),
        ]);
    }
    out.push_str(&t.render());

    for suite in ["mm", "sci"] {
        let region =
            geomean(rows.iter().filter(|r| r.suite == suite).map(|r| r.region_speedup));
        let unit = geomean(rows.iter().filter(|r| r.suite == suite).map(|r| r.unit_speedup));
        out.push_str(&format!(
            "\n{suite} geomean: region {}, per-unit {}",
            region.map_or_else(|| "-".to_string(), |v| format!("{v:.2}x")),
            unit.map_or_else(|| "-".to_string(), |v| format!("{v:.2}x")),
        ));
    }

    out.push_str(&format!(
        "\n\nFault injection on the region table ({} proxy, {:.0}% strike rate per matched probe):\n\n",
        rows[0].name,
        DEMO_FAULT_RATE * 100.0
    ));
    let mut t = TextTable::new(&["protection", "injected", "detected", "corrected", "silent", "state"]);
    for row in &demo {
        t.row(vec![
            row.protection.to_string(),
            row.injected.to_string(),
            row.detected.to_string(),
            row.corrected.to_string(),
            row.silent.to_string(),
            if row.transparent { "bit-identical".to_string() } else { "CORRUPTED (expected for none)".to_string() },
        ]);
    }
    out.push_str(&t.render());

    out.push_str(&format!(
        "\nDifferential transparency: {} kernels x {} table configs, final architectural\n\
         state (32 iregs, 32 fregs bit-exact, all memory, retired count) identical to\n\
         plain execution at every point.\n",
        proof.kernels, proof.configs
    ));
    Ok(out)
}

/// The per-kernel measurements as a JSON document for the CI gate
/// (`BENCH_region.json`): hand-rolled, no dependencies, stable keys.
///
/// # Errors
///
/// [`ExperimentError::Transparency`] if any differential check fails —
/// meaning the gate never sees `"transparency_ok": true` unless the
/// checker really passed.
pub fn bench_json(cfg: ExpConfig) -> Result<String, ExperimentError> {
    let rows = survey(cfg)?;
    let proof = check_transparency(cfg)?;
    let mut out = String::from("{\n");
    out.push_str("  \"transparency_ok\": true,\n");
    out.push_str(&format!("  \"kernels_checked\": {},\n", proof.kernels));
    out.push_str(&format!("  \"configs_checked\": {},\n", proof.configs));
    for suite in ["mm", "sci"] {
        let g = geomean(rows.iter().filter(|r| r.suite == suite).map(|r| r.region_speedup))
            .unwrap_or(0.0);
        out.push_str(&format!("  \"{suite}_geomean_region_speedup\": {g:.4},\n"));
    }
    out.push_str("  \"kernels\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"suite\": \"{}\", \"regions\": {}, \"coverage\": {:.4}, \
             \"hit_ratio\": {:.4}, \"region_speedup\": {:.4}, \"unit_speedup\": {:.4}}}{}\n",
            r.name,
            r.suite,
            r.static_regions,
            r.coverage,
            r.hit_ratio,
            r.region_speedup,
            r.unit_speedup,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ExpConfig {
        ExpConfig::quick()
    }

    #[test]
    fn proxies_cover_both_suites_and_assemble() {
        let all = proxies(cfg());
        assert_eq!(all.len(), 18 + 19);
        assert_eq!(all.iter().filter(|p| p.suite == "mm").count(), 18);
        // Every proxy runs to completion and detects at least one region.
        for p in &all {
            let mut cpu = p.fresh_cpu();
            cpu.run(&p.program, &mut NullSink, FUEL).expect("proxy halts");
            assert!(
                !RegionIndex::new(&p.program, 16).regions().is_empty(),
                "{} has no regions",
                p.name
            );
        }
    }

    #[test]
    fn mm_reuses_and_sci_does_not() {
        let rows = survey(cfg()).expect("survey is transparent");
        let mm_hits = geomean(rows.iter().filter(|r| r.suite == "mm").map(|r| r.hit_ratio + 1e-9))
            .unwrap();
        let sci_speedup =
            geomean(rows.iter().filter(|r| r.suite == "sci").map(|r| r.region_speedup)).unwrap();
        let mm_speedup =
            geomean(rows.iter().filter(|r| r.suite == "mm").map(|r| r.region_speedup)).unwrap();
        // Quantized MM inputs make the arithmetic regions hit; unique sci
        // inputs leave probes unpaid — the paper's MM >> sci story.
        assert!(mm_hits > 0.3, "mm pooled hit ratio too low: {mm_hits}");
        assert!(mm_speedup > 1.0, "mm region speedup not profitable: {mm_speedup}");
        assert!(mm_speedup > sci_speedup, "{mm_speedup} vs {sci_speedup}");
    }

    #[test]
    fn transparency_holds_over_the_grid() {
        let proof = check_transparency(cfg()).expect("bit-identical state everywhere");
        assert_eq!(proof.kernels, 37);
        assert_eq!(proof.configs, 12);
    }

    #[test]
    fn fault_demo_keeps_detecting_policies_transparent() {
        let demo = fault_demo(cfg());
        assert_eq!(demo.len(), 4);
        for row in &demo {
            assert!(row.injected > 0, "{}: no strikes landed", row.protection);
            if row.protection != Protection::None {
                assert!(row.transparent, "{} must stay transparent", row.protection);
                assert_eq!(row.silent, 0, "{} let faults through", row.protection);
            }
        }
    }

    #[test]
    fn bench_json_is_well_formed_enough_for_the_gate() {
        let json = bench_json(cfg()).expect("renders");
        assert!(json.contains("\"transparency_ok\": true"));
        assert!(json.contains("\"kernels_checked\": 37"));
        assert!(json.contains("\"vspatial\""));
        assert!(json.contains("\"mgrid\""));
        // Balanced braces/brackets (cheap structural check, no parser).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
