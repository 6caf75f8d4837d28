//! Shared environment-variable parsing.
//!
//! Every knob the harness reads from the environment (`MEMO_SCALE`,
//! `MEMO_SCI_N`, `MEMO_JOBS`, the `MEMO_STORE_*` family, and the serving
//! knobs built on top) parses the same way:
//! trimmed, base-10,
//! silently ignored when absent or malformed, clamped into a documented
//! range when one exists. This module is the one implementation; the
//! sweep executor ([`crate::parallel`]), [`crate::ExpConfig::from_env`],
//! the `memo-serve` worker pool, and the persistent-store open path
//! ([`store_config`], [`STORE_KNOBS`]) all call it.

use memo_store::StoreConfig;

/// Parse `name` as a `usize`, returning `None` when the variable is
/// unset, empty, or not a base-10 integer.
#[must_use]
pub fn usize_var(name: &str) -> Option<usize> {
    std::env::var(name).ok()?.trim().parse().ok()
}

/// Parse `name` as a `usize` clamped into `[min, max]`. A deployment
/// typo (one zero too many, a negative pasted as garbage) degrades to
/// the nearest sane value instead of a pathological store config.
#[must_use]
pub fn ranged_var(name: &str, min: usize, max: usize) -> Option<usize> {
    usize_var(name).map(|v| v.clamp(min, max))
}

/// The persistent-store knobs, all optional. This table is the single
/// source of truth — [`store_config`] and [`store_block_cache_spans`]
/// parse exactly these names with exactly these ranges:
///
/// | variable | default | range | tunes |
/// |---|---|---|---|
/// | `MEMO_STORE_MEMTABLE_BYTES` | 4 MiB | 4 KiB – 1 GiB | flush watermark: memtable bytes before the next write flushes it to a segment |
/// | `MEMO_STORE_BLOOM_BITS` | 10 | 0 – 64 | bloom bits per key (`0` writes filterless segments) |
/// | `MEMO_STORE_COMPACT_AT` | 8 | 2 – 1024 | segment count at which a flush runs a full compaction |
/// | `MEMO_STORE_BLOCK_CACHE_CAP` | 256 | 0 – 1 Mi | cached decoded spans (`0` disables the block cache) |
///
/// Unset or unparseable values keep the default; parseable values
/// outside the range are clamped to its nearest edge.
pub const STORE_KNOBS: [(&str, &str, usize, usize); 4] = [
    ("MEMO_STORE_MEMTABLE_BYTES", "flush watermark (bytes)", 4 << 10, 1 << 30),
    ("MEMO_STORE_BLOOM_BITS", "bloom bits per key (0 disables)", 0, 64),
    ("MEMO_STORE_COMPACT_AT", "segments before auto-compaction", 2, 1024),
    ("MEMO_STORE_BLOCK_CACHE_CAP", "cached spans (0 disables)", 0, 1 << 20),
];

fn knob(name: &str) -> Option<usize> {
    let (_, _, min, max) =
        STORE_KNOBS.iter().find(|(n, ..)| *n == name).expect("knob listed in STORE_KNOBS");
    ranged_var(name, *min, *max)
}

/// [`StoreConfig`] defaults overridden by the `MEMO_STORE_*` variables
/// in [`STORE_KNOBS`]. The one implementation — `memo-serve` start-up
/// and any experiment driver opening a store read the environment
/// through here.
#[must_use]
pub fn store_config() -> StoreConfig {
    let mut config = StoreConfig::default();
    if let Some(v) = knob("MEMO_STORE_MEMTABLE_BYTES") {
        config.memtable_max_bytes = v;
    }
    if let Some(v) = knob("MEMO_STORE_BLOOM_BITS") {
        config.bloom_bits_per_key = u32::try_from(v).unwrap_or(64);
    }
    if let Some(v) = knob("MEMO_STORE_COMPACT_AT") {
        config.compact_at_segments = v;
    }
    config
}

/// Block-cache capacity in spans: `MEMO_STORE_BLOCK_CACHE_CAP` under
/// the [`STORE_KNOBS`] range, defaulting to 256. Zero disables the
/// cache.
#[must_use]
pub fn store_block_cache_spans() -> usize {
    knob("MEMO_STORE_BLOCK_CACHE_CAP").unwrap_or(256)
}

/// The worker count shared by the sweep executor and the `memo-serve`
/// worker pool: `MEMO_JOBS` if set and valid (clamped to at least 1),
/// else the machine's available parallelism, else 1.
#[must_use]
pub fn jobs() -> usize {
    usize_var("MEMO_JOBS").map_or_else(
        || std::thread::available_parallelism().map_or(1, |n| n.get()),
        |n| n.max(1),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absent_variable_is_none_and_jobs_stays_positive() {
        // The test harness does not define this variable.
        assert_eq!(usize_var("MEMO_NO_SUCH_VARIABLE"), None);
        assert!(jobs() >= 1);
    }

    #[test]
    fn parses_trimmed_base10() {
        std::env::set_var("MEMO_ENV_TEST_USIZE", " 42 ");
        assert_eq!(usize_var("MEMO_ENV_TEST_USIZE"), Some(42));
        std::env::set_var("MEMO_ENV_TEST_USIZE", "not-a-number");
        assert_eq!(usize_var("MEMO_ENV_TEST_USIZE"), None);
        std::env::remove_var("MEMO_ENV_TEST_USIZE");
    }

    #[test]
    fn ranged_var_clamps_to_its_edges() {
        std::env::set_var("MEMO_ENV_TEST_RANGED", "5");
        assert_eq!(ranged_var("MEMO_ENV_TEST_RANGED", 10, 100), Some(10));
        std::env::set_var("MEMO_ENV_TEST_RANGED", "5000");
        assert_eq!(ranged_var("MEMO_ENV_TEST_RANGED", 10, 100), Some(100));
        std::env::set_var("MEMO_ENV_TEST_RANGED", "50");
        assert_eq!(ranged_var("MEMO_ENV_TEST_RANGED", 10, 100), Some(50));
        std::env::remove_var("MEMO_ENV_TEST_RANGED");
        assert_eq!(ranged_var("MEMO_ENV_TEST_RANGED", 10, 100), None);
    }

    #[test]
    fn store_config_reads_the_documented_knobs_with_validation() {
        // Note: other tests in this binary also touch the environment;
        // use distinct values and restore on the way out.
        std::env::set_var("MEMO_STORE_MEMTABLE_BYTES", "8192");
        std::env::set_var("MEMO_STORE_BLOOM_BITS", "999"); // above range → clamped to 64
        std::env::set_var("MEMO_STORE_COMPACT_AT", "1"); // below range → clamped to 2
        std::env::set_var("MEMO_STORE_BLOCK_CACHE_CAP", "0");
        let config = store_config();
        assert_eq!(config.memtable_max_bytes, 8192);
        assert_eq!(config.bloom_bits_per_key, 64);
        assert_eq!(config.compact_at_segments, 2);
        assert_eq!(store_block_cache_spans(), 0);
        for (name, ..) in STORE_KNOBS {
            std::env::remove_var(name);
        }
        // With nothing set, every field keeps its default.
        let fresh = store_config();
        let default = StoreConfig::default();
        assert_eq!(fresh.memtable_max_bytes, default.memtable_max_bytes);
        assert_eq!(fresh.bloom_bits_per_key, default.bloom_bits_per_key);
        assert_eq!(fresh.compact_at_segments, default.compact_at_segments);
        assert_eq!(store_block_cache_spans(), 256);
    }
}
