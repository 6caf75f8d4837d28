//! Table 8 — the input images: dimensions, type, bands, entropies
//! (full / 16×16 / 8×8 windows), and the average hit ratios of the
//! applications run on each image.

use memo_imaging::entropy;
use memo_imaging::synth::CorpusImage;
use memo_table::OpKind;
use memo_workloads::mm;
use memo_workloads::suite::HitRatios;

use crate::format::{ratio, TextTable};
use crate::{parallel, traces, ExpConfig};

/// One Table 8 row.
#[derive(Debug, Clone)]
pub struct ImageRow {
    /// Image name (the paper image it stands in for).
    pub name: String,
    /// Width × height.
    pub size: (usize, usize),
    /// Pixel type label (BYTE / INTEGER / FLOAT).
    pub pixel_type: String,
    /// Number of bands.
    pub bands: usize,
    /// Whole-image entropy (None for FLOAT imagery).
    pub entropy_full: Option<f64>,
    /// Mean 16×16-window entropy.
    pub entropy_16: Option<f64>,
    /// Mean 8×8-window entropy.
    pub entropy_8: Option<f64>,
    /// Hit ratios averaged over all applications run on this image.
    pub hits: HitRatios,
}

/// Average each kind over the applications that issue it, then describe
/// the image.
fn row(c: &CorpusImage, per_app_hits: &[HitRatios]) -> ImageRow {
    let mut sums = [0.0f64; 3];
    let mut counts = [0u32; 3];
    for r in per_app_hits {
        for (slot, kind) in [OpKind::IntMul, OpKind::FpMul, OpKind::FpDiv].iter().enumerate() {
            if let Some(v) = r.get(*kind) {
                sums[slot] += v;
                counts[slot] += 1;
            }
        }
    }
    let avg = |slot: usize| (counts[slot] > 0).then(|| sums[slot] / f64::from(counts[slot]));
    ImageRow {
        name: c.name.to_string(),
        size: (c.image.width(), c.image.height()),
        pixel_type: c.image.pixel_type().to_string(),
        bands: c.image.bands(),
        entropy_full: entropy::full_entropy(&c.image),
        entropy_16: entropy::windowed_entropy(&c.image, 16),
        entropy_8: entropy::windowed_entropy(&c.image, 8),
        hits: HitRatios { int_mul: avg(0), fp_mul: avg(1), fp_div: avg(2) },
    }
}

/// Compute Table 8 for the synthetic corpus from the shared per-image
/// paper-default replays (one per application and image, shared with
/// Figure 2).
#[must_use]
pub fn table8(cfg: ExpConfig) -> Vec<ImageRow> {
    let corpus = traces::corpus(cfg.image_scale);
    let per_app = parallel::par_map(mm::apps(), |app| traces::mm_image_paper_defaults(cfg, &app));
    parallel::par_map((0..corpus.len()).collect(), |i| {
        let hits: Vec<HitRatios> = per_app.iter().map(|images| images[i].ratios()).collect();
        row(&corpus[i], &hits)
    })
}

/// Render the Table 8 layout.
#[must_use]
pub fn render(rows: &[ImageRow]) -> String {
    let mut t = TextTable::new(&[
        "image", "size", "type", "bands", "full", "16x16", "8x8", "imul", "fmul", "fdiv",
    ]);
    let ent = |e: Option<f64>| e.map_or("-".to_string(), |v| format!("{v:.2}"));
    for r in rows {
        t.row(vec![
            r.name.clone(),
            format!("{}x{}", r.size.0, r.size.1),
            r.pixel_type.clone(),
            r.bands.to_string(),
            ent(r.entropy_full),
            ent(r.entropy_16),
            ent(r.entropy_8),
            ratio(r.hits.int_mul),
            ratio(r.hits.fp_mul),
            ratio(r.hits.fp_div),
        ]);
    }
    format!("Table 8: Description of the images used in IP applications\n{}", t.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_cover_the_corpus_with_entropy_ordering() {
        let rows = table8(ExpConfig::quick());
        assert_eq!(rows.len(), 14);
        for r in &rows {
            if let (Some(full), Some(w16), Some(w8)) =
                (r.entropy_full, r.entropy_16, r.entropy_8)
            {
                assert!(w8 <= w16 + 0.3, "{}: 8x8 {w8} vs 16x16 {w16}", r.name);
                assert!(w16 <= full + 0.3, "{}: 16x16 {w16} vs full {full}", r.name);
            }
            assert!(r.hits.fp_mul.is_some(), "{} ran fp multiplies", r.name);
        }
        // FLOAT rows have unreported entropy, like the paper.
        assert!(rows.iter().any(|r| r.pixel_type == "FLOAT" && r.entropy_full.is_none()));
    }

    #[test]
    fn low_entropy_images_hit_more() {
        let rows = table8(ExpConfig::quick());
        let byte_rows: Vec<_> = rows.iter().filter(|r| r.entropy_8.is_some()).collect();
        let lowest = byte_rows
            .iter()
            .min_by(|a, b| a.entropy_8.partial_cmp(&b.entropy_8).unwrap())
            .unwrap();
        let highest = byte_rows
            .iter()
            .max_by(|a, b| a.entropy_8.partial_cmp(&b.entropy_8).unwrap())
            .unwrap();
        assert!(
            lowest.hits.fp_div.unwrap() > highest.hits.fp_div.unwrap(),
            "fdiv: low-entropy {} ({:?}) vs high-entropy {} ({:?})",
            lowest.name,
            lowest.hits.fp_div,
            highest.name,
            highest.hits.fp_div
        );
    }

    #[test]
    fn render_contains_every_image() {
        let rows = table8(ExpConfig::quick());
        let s = render(&rows);
        for name in ["mandrill", "lablabel", "fractal", "lenna.rgb"] {
            assert!(s.contains(name));
        }
    }
}
