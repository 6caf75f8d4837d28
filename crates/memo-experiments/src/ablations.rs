//! Ablations of the MEMO-TABLE design choices that the paper fixes
//! without measurement — the index hash, the replacement policy,
//! commutative dual-order probing (§2.2), and the shared multi-ported
//! table vs. private per-unit tables (§2.3, also named as future work in
//! §4).

use memo_table::{
    HashScheme, MemoConfig, MemoTable, Memoizer, OpKind, Replacement, SharedMemoTable,
};
use memo_workloads::mm::MmApp;
use memo_workloads::suite::{replay_stats_fused, SweepSpec};

use crate::figures::{sample_apps, sample_traces};
use crate::format::{ratio, TextTable};
use crate::{parallel, traces, ExpConfig, ExperimentError};

/// Hit ratios of one configuration, averaged over the five sample apps.
#[derive(Debug, Clone, Copy)]
pub struct AblationPoint {
    /// Configuration label.
    pub label: &'static str,
    /// Average fmul hit ratio.
    pub fp_mul: f64,
    /// Average fdiv hit ratio.
    pub fp_div: f64,
}

/// The fmul and fdiv hit ratios of one configuration, each averaged over
/// the sample apps. The paper-default point of each ablation reads the
/// apps' shared paper-default replays ([`traces::mm_paper_default`]).
/// Every other point differs in exactly the policy axis under study, so no
/// two share a pass; each app's recordings are replayed once through a
/// two-kind bank. Both readings are exact because a bank's tables never
/// interact: its fmul and fdiv tables count what one-kind banks would.
fn ablate_point(
    cfg: ExpConfig,
    apps: &[MmApp],
    label: &'static str,
    table_cfg: MemoConfig,
) -> AblationPoint {
    let spec = [SweepSpec::finite(table_cfg, &[OpKind::FpMul, OpKind::FpDiv])];
    let per_app: Vec<_> = apps
        .iter()
        .map(|app| {
            if table_cfg == MemoConfig::paper_default() {
                traces::mm_paper_default(cfg, app)
            } else {
                replay_stats_fused(traces::mm_traces(cfg, app).iter(), &spec)[0]
            }
        })
        .collect();
    let average = |kind: OpKind| {
        let ratios = per_app.iter().map(|stats| {
            stats.stats(kind).expect("spec attaches a table to kind").hit_ratio(table_cfg.trivial())
        });
        ratios.sum::<f64>() / per_app.len() as f64
    };
    AblationPoint { label, fp_mul: average(OpKind::FpMul), fp_div: average(OpKind::FpDiv) }
}

/// Evaluate each labelled configuration over the sample apps in parallel,
/// keeping input order.
fn ablate(
    cfg: ExpConfig,
    configs: Vec<(&'static str, MemoConfig)>,
) -> Result<Vec<AblationPoint>, ExperimentError> {
    let apps = sample_apps()?;
    Ok(parallel::par_map(configs, |(label, table_cfg)| ablate_point(cfg, &apps, label, table_cfg)))
}

/// Ablate the index hash: the paper's XOR scheme vs. a multiply-fold mix.
///
/// # Errors
///
/// Fails if a [`SAMPLE_APPS`](crate::figures::SAMPLE_APPS) name is missing from the registry.
pub fn hash_schemes(cfg: ExpConfig) -> Result<Vec<AblationPoint>, ExperimentError> {
    let configs = [("paper XOR", HashScheme::PaperXor), ("fold-mix", HashScheme::FoldMix)]
        .into_iter()
        .map(|(label, hash)| {
            (label, MemoConfig::builder(32).hash(hash).build().expect("valid"))
        })
        .collect();
    ablate(cfg, configs)
}

/// Ablate the replacement policy within a set.
///
/// # Errors
///
/// Fails if a [`SAMPLE_APPS`](crate::figures::SAMPLE_APPS) name is missing from the registry.
pub fn replacement_policies(cfg: ExpConfig) -> Result<Vec<AblationPoint>, ExperimentError> {
    let configs = [
        ("LRU", Replacement::Lru),
        ("FIFO", Replacement::Fifo),
        ("random", Replacement::Random),
    ]
    .into_iter()
    .map(|(label, replacement)| {
        (label, MemoConfig::builder(32).replacement(replacement).build().expect("valid"))
    })
    .collect();
    ablate(cfg, configs)
}

/// Ablate commutative dual-order probing (§2.2) — multiplication only;
/// the fdiv column doubles as the control (it must not move).
///
/// # Errors
///
/// Fails if a [`SAMPLE_APPS`](crate::figures::SAMPLE_APPS) name is missing from the registry.
pub fn commutative_probing(cfg: ExpConfig) -> Result<Vec<AblationPoint>, ExperimentError> {
    let configs = [("both orders", true), ("as-written order", false)]
        .into_iter()
        .map(|(label, commutative)| {
            (label, MemoConfig::builder(32).commutative(commutative).build().expect("valid"))
        })
        .collect();
    ablate(cfg, configs)
}

/// §2.3: two fp dividers. Compare (a) a private 32-entry table per
/// divider with round-robin dispatch, against (b) one shared, 2-ported
/// 32-entry table. Sharing lets one divider reuse the other's work.
#[derive(Debug, Clone, Copy)]
pub struct SharedVsPrivate {
    /// fdiv hit ratio with private per-unit tables.
    pub private_hit: f64,
    /// fdiv hit ratio with the shared multi-ported table.
    pub shared_hit: f64,
    /// Port conflicts observed by the shared table.
    pub port_conflicts: u64,
}

/// Run the shared-vs-private comparison over the sample applications.
///
/// # Errors
///
/// Fails if a [`SAMPLE_APPS`](crate::figures::SAMPLE_APPS) name is missing from the registry.
pub fn shared_vs_private(cfg: ExpConfig) -> Result<SharedVsPrivate, ExperimentError> {
    let traces = sample_traces(cfg)?;

    // Private tables, round-robin dispatch.
    let mut unit0 = MemoTable::new(MemoConfig::paper_default());
    let mut unit1 = MemoTable::new(MemoConfig::paper_default());
    // Shared table with 2 ports.
    let shared = SharedMemoTable::new(MemoConfig::paper_default(), 2);
    let mut shared0 = shared.clone();
    let mut shared1 = shared.clone();

    // The combined division stream of the sample apps, replayed from the
    // shared recordings in app-major, corpus order.
    let mut toggle = false;
    for trace in traces.iter().flat_map(|app_traces| app_traces.iter()) {
        trace.for_each_kind(OpKind::FpDiv, |op| {
            shared.begin_cycle();
            if toggle {
                unit0.execute(op);
                shared0.execute(op);
            } else {
                unit1.execute(op);
                shared1.execute(op);
            }
            toggle = !toggle;
        });
    }

    let private_stats_hits = unit0.stats().table_hits + unit1.stats().table_hits;
    let private_lookups = unit0.stats().table_lookups + unit1.stats().table_lookups;
    let shared_stats = shared.stats_snapshot();
    Ok(SharedVsPrivate {
        private_hit: if private_lookups == 0 {
            0.0
        } else {
            private_stats_hits as f64 / private_lookups as f64
        },
        shared_hit: shared_stats.lookup_hit_ratio(),
        port_conflicts: shared.port_stats().conflicts,
    })
}

/// Render all ablations as one report.
///
/// # Errors
///
/// Fails if a [`SAMPLE_APPS`](crate::figures::SAMPLE_APPS) name is missing from the registry.
pub fn render(cfg: ExpConfig) -> Result<String, ExperimentError> {
    let mut out = String::new();

    for (title, points) in [
        ("Ablation: index hash scheme (32-entry, 4-way)", hash_schemes(cfg)?),
        ("Ablation: replacement policy (32-entry, 4-way)", replacement_policies(cfg)?),
        ("Ablation: commutative dual-order probing (32-entry, 4-way)", commutative_probing(cfg)?),
    ] {
        let mut t = TextTable::new(&["configuration", "fmul", "fdiv"]);
        for p in points {
            t.row(vec![p.label.to_string(), ratio(Some(p.fp_mul)), ratio(Some(p.fp_div))]);
        }
        out.push_str(&format!("{title}\n{}\n", t.render()));
    }

    let s = shared_vs_private(cfg)?;
    out.push_str(&format!(
        "Ablation: dual dividers, shared vs private tables (Section 2.3)\n\
         private 32-entry per divider : fdiv hit {}\n\
         shared 2-ported 32-entry     : fdiv hit {}  ({} port conflicts)\n",
        ratio(Some(s.private_hit)),
        ratio(Some(s.shared_hit)),
        s.port_conflicts,
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commutative_probing_helps_multiplication_only() {
        let points = commutative_probing(ExpConfig::quick()).unwrap();
        let both = &points[0];
        let single = &points[1];
        assert!(both.fp_mul + 1e-9 >= single.fp_mul, "dual-order probing never hurts fmul");
        assert!(
            (both.fp_div - single.fp_div).abs() < 1e-12,
            "division is unaffected by commutativity"
        );
    }

    #[test]
    fn shared_table_beats_private_tables() {
        // One divider reuses work performed by the other (§2.3).
        let s = shared_vs_private(ExpConfig::quick()).unwrap();
        assert!(
            s.shared_hit > s.private_hit - 1e-9,
            "shared {} vs private {}",
            s.shared_hit,
            s.private_hit
        );
    }

    #[test]
    fn replacement_policies_are_all_functional() {
        let points = replacement_policies(ExpConfig::quick()).unwrap();
        assert_eq!(points.len(), 3);
        for p in &points {
            assert!(p.fp_div > 0.0, "{} produces hits", p.label);
        }
        // LRU is at least competitive with random on these workloads.
        let lru = points[0].fp_div;
        let random = points[2].fp_div;
        assert!(lru + 0.05 >= random, "LRU {lru} vs random {random}");
    }

    #[test]
    fn render_includes_all_sections(){
        let s = render(ExpConfig::quick()).unwrap();
        assert!(s.contains("index hash"));
        assert!(s.contains("replacement"));
        assert!(s.contains("commutative"));
        assert!(s.contains("shared vs private"));
    }
}
