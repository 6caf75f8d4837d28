//! The parallel sweep executor must be invisible in the output: every
//! rendered table is byte-identical whatever `MEMO_JOBS` says. Banks are
//! per-task and result slots are indexed, so scheduling cannot reorder or
//! perturb anything.
//!
//! Everything lives in one `#[test]` because `MEMO_JOBS` is process-global
//! state; a single test keeps the mutation race-free.

use memo_experiments::{fault_tolerance, figures, hits, trivial, ExpConfig};

fn render_everything(cfg: ExpConfig) -> String {
    // Drop memoized experiment results so every pass genuinely recomputes
    // under its MEMO_JOBS setting (shared recorded traces are fine: they
    // are inputs, identical by construction).
    memo_experiments::results::clear();
    let mut out = String::new();
    out.push_str(&hits::table5(cfg).render());
    out.push_str(&hits::table7(cfg).render());
    out.push_str(&trivial::render(&trivial::table9(cfg).unwrap()));
    out.push_str(&figures::render_sweep(
        "Figure 4",
        "ways",
        &figures::figure4(cfg).unwrap(),
    ));
    for cell in fault_tolerance::sweep(cfg) {
        out.push_str(&format!(
            "{:?} {} {} {} {} {} {} {}\n",
            cell.protection,
            cell.fault_rate,
            cell.sdc_rate,
            cell.hit_ratio,
            cell.faults_injected,
            cell.faults_detected,
            cell.faults_corrected,
            cell.faults_silent
        ));
    }
    out
}

#[test]
fn parallel_output_is_byte_identical_to_serial() {
    let cfg = ExpConfig::quick();

    std::env::set_var("MEMO_JOBS", "1");
    let serial = render_everything(cfg);

    for jobs in ["2", "4", "7"] {
        std::env::set_var("MEMO_JOBS", jobs);
        let parallel = render_everything(cfg);
        assert_eq!(serial, parallel, "MEMO_JOBS={jobs} must not change any byte");
    }
    std::env::remove_var("MEMO_JOBS");
}
