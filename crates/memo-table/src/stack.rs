//! Single-pass multi-configuration sweep simulation.
//!
//! The paper's evaluation sweeps MEMO-TABLE size and associativity over
//! identical operand streams (Tables 5–10, Figures 2–4). Replaying a
//! recorded trace once per sweep point costs G full passes for a G-point
//! grid. For LRU tables the Mattson stack algorithm collapses that to one
//! pass: at a fixed set count, a w-way LRU set always holds exactly the w
//! most recently touched keys that map to it (the *inclusion property*),
//! so one MRU-ordered list per set answers the hit/miss question for every
//! associativity simultaneously — an entry found at stack depth `k` hits
//! every table with `ways > k` and misses the rest. Distinct set counts
//! need one list family ("level") each. A key that falls out of every
//! list misses everywhere, exactly like one never seen, so the engine
//! forgets it: the key store stays bounded by the grid's total capacity,
//! not by the stream's distinct keys. (The infinite-table column is
//! counted separately, by [`crate::InfiniteColumn`].)
//!
//! [`SweepGrid::new`] validates that a family of configurations actually
//! shares one pass (same tag/trivial/commutative/hash policies, LRU,
//! unprotected); [`StackSimulator`] consumes one operand stream and
//! [`StackSimulator::finish`] emits a [`MemoStats`] per grid point that is
//! bit-identical to what a dedicated [`crate::MemoTable`] replay would
//! have produced. Stateful studies — fault injection, protection
//! policies, shared tables, FIFO/random replacement — cannot share a pass
//! and stay on the direct path, which doubles as the equivalence oracle.

use std::collections::HashMap;
use std::fmt;

use crate::config::{HashScheme, MemoConfig, Replacement, TagPolicy, TrivialPolicy};
use crate::fault::Protection;
use crate::key::{decode_value, encode_tag, encode_value, Key, KeyHashBuilder, SetSel};
use crate::op::{Op, OpKind};
use crate::stats::MemoStats;
use crate::trivial::trivial_result;

/// Empty slot marker in the packed per-set recency rows.
const NONE: u32 = u32::MAX;

/// Width of the per-entry orientation bitmask, and thus the most finite
/// points one pass can serve.
const MAX_POINTS: usize = 128;

/// Why a family of configurations cannot share one stack pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepGridError {
    /// The grid has no finite points.
    Empty,
    /// More than 128 finite points (the per-entry orientation mask width).
    TooManyPoints,
    /// Points disagree on tag policy, commutative probing, or hash
    /// scheme, or mix `Memoize` with the trivial-filtering policies
    /// (`Exclude` and `Integrate` see identical table traffic and may
    /// mix freely; `Memoize` routes trivial operations through the
    /// table and may not). An [`crate::InfiniteColumn`] asked for
    /// policies other than the ones it models reports this too.
    MixedPolicies,
    /// A point replaces entries by FIFO or random choice; only LRU has
    /// the inclusion property the stack pass relies on.
    UnsupportedReplacement,
    /// A point carries a protection policy, whose scrub/verify state is
    /// inherently per-table.
    UnsupportedProtection,
    /// FoldMix hashing with commutative probing: the two operand orders
    /// hash to different sets, so which set holds the pair depends on
    /// which order each table inserted first — inclusion across sizes
    /// breaks.
    UnsupportedHash,
}

impl fmt::Display for SweepGridError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let msg = match self {
            SweepGridError::Empty => "sweep grid has no finite points",
            SweepGridError::TooManyPoints => "sweep grid exceeds 128 finite points",
            SweepGridError::MixedPolicies => {
                "sweep points disagree on tag/trivial/commutative/hash policy"
            }
            SweepGridError::UnsupportedReplacement => {
                "only LRU replacement has the stack inclusion property"
            }
            SweepGridError::UnsupportedProtection => {
                "protected tables carry per-table scrub state"
            }
            SweepGridError::UnsupportedHash => {
                "FoldMix hashing with commutative probing breaks inclusion"
            }
        };
        f.write_str(msg)
    }
}

impl std::error::Error for SweepGridError {}

/// A validated family of table shapes that one [`StackSimulator`] pass
/// can evaluate simultaneously.
#[derive(Debug, Clone)]
pub struct SweepGrid {
    configs: Vec<MemoConfig>,
    tag: TagPolicy,
    commutative: bool,
    hash: HashScheme,
    filter_trivials: bool,
}

impl SweepGrid {
    /// Validate that `configs` can share a single stack pass.
    ///
    /// # Errors
    ///
    /// Returns a [`SweepGridError`] naming the first property that rules
    /// fusion out; the caller is expected to fall back to direct replay.
    pub fn new(configs: &[MemoConfig]) -> Result<Self, SweepGridError> {
        let Some(first) = configs.first() else {
            return Err(SweepGridError::Empty);
        };
        if configs.len() > MAX_POINTS {
            return Err(SweepGridError::TooManyPoints);
        }
        let tag = first.tag();
        let commutative = first.commutative();
        let hash = first.hash();
        let filter_trivials = first.trivial() != TrivialPolicy::Memoize;
        for cfg in configs {
            if cfg.tag() != tag
                || cfg.commutative() != commutative
                || cfg.hash() != hash
                || (cfg.trivial() != TrivialPolicy::Memoize) != filter_trivials
            {
                return Err(SweepGridError::MixedPolicies);
            }
            if cfg.replacement() != Replacement::Lru {
                return Err(SweepGridError::UnsupportedReplacement);
            }
            if cfg.protection() != Protection::None {
                return Err(SweepGridError::UnsupportedProtection);
            }
        }
        if hash == HashScheme::FoldMix && commutative {
            return Err(SweepGridError::UnsupportedHash);
        }
        Ok(SweepGrid {
            configs: configs.to_vec(),
            tag,
            commutative,
            hash,
            filter_trivials,
        })
    }

    /// The finite grid points, in the order results are reported.
    #[must_use]
    pub fn configs(&self) -> &[MemoConfig] {
        &self.configs
    }

    /// Number of finite grid points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.configs.len()
    }

    /// `true` when the grid has no finite points (never, by construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.configs.is_empty()
    }
}

/// One distinct set count: a packed MRU-first recency row per set, wide
/// enough for the largest associativity sharing this set count.
struct Level {
    sets: usize,
    max_ways: usize,
    /// `sets × max_ways` node ids, MRU first, front-packed, `NONE`-padded.
    rows: Vec<u32>,
    /// `(grid point index, ways)` of every configuration at this level.
    points: Vec<(usize, usize)>,
}

/// One distinct key resident in at least one recency row.
struct Node {
    /// Encoded result, fixed at node creation. Under either tag policy
    /// the stored bits are determined by the key (the tag fixes every
    /// operand bit the result encoding depends on), so one compute per
    /// distinct key serves every grid point.
    payload: u64,
    /// Bit `p` set ⇒ the entry resident at grid point `p` stores the
    /// swapped (non-canonical) operand order. Written on insert only,
    /// matching the real table, which never rewrites an entry on a hit.
    swapped: u128,
    /// Canonical key, kept for index removal when the node leaves its
    /// last recency row.
    key: Key,
    /// Number of level rows currently holding this node. When it drops
    /// to zero the node is reclaimed: the key store then stays bounded by
    /// the grid's total capacity instead of growing with every distinct
    /// key in the trace.
    resident: u32,
}

/// Results of one fused pass.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// One statistics block per grid point, in [`SweepGrid::configs`]
    /// order.
    pub finite: Vec<MemoStats>,
    /// `false` when a mantissa-mode payload failed to decode mid-pass
    /// (the real table's bypass-then-reinsert behaviour then depends on
    /// which configurations still hold the entry, so no single pass can
    /// stay exact). The counters are meaningless and the caller must
    /// fall back to direct replay.
    pub exact: bool,
}

/// Single-pass stack-distance simulator over a [`SweepGrid`].
///
/// Feed it one operand stream (one op kind — each hardware unit has its
/// own table, so streams of different kinds never share one) via
/// [`StackSimulator::access`], then collect per-point [`MemoStats`] with
/// [`StackSimulator::finish`].
pub struct StackSimulator {
    tag: TagPolicy,
    commutative: bool,
    hash: HashScheme,
    filter_trivials: bool,
    levels: Vec<Level>,
    nodes: Vec<Node>,
    // The key store is the profile's hottest map; see [`KeyHashBuilder`]
    // for why SipHash is overkill here (get/insert/remove only).
    index: HashMap<Key, u32, KeyHashBuilder>,
    /// Reusable node slots.
    free: Vec<u32>,
    // Counters identical across grid points (the front-end path never
    // depends on table geometry).
    ops_seen: u64,
    trivial_seen: u64,
    table_lookups: u64,
    bypasses: u64,
    // Per-point counters, indexed by grid point.
    hits: Vec<u64>,
    commutative_hits: Vec<u64>,
    insertions: Vec<u64>,
    evictions: Vec<u64>,
    exact: bool,
}

impl StackSimulator {
    /// Build a simulator for `grid`, with empty tables.
    #[must_use]
    pub fn new(grid: &SweepGrid) -> Self {
        let mut levels: Vec<Level> = Vec::new();
        for (p, cfg) in grid.configs.iter().enumerate() {
            let (sets, ways) = (cfg.sets(), cfg.ways());
            let level = match levels.iter_mut().find(|l| l.sets == sets) {
                Some(level) => level,
                None => {
                    levels.push(Level { sets, max_ways: 0, rows: Vec::new(), points: Vec::new() });
                    levels.last_mut().expect("just pushed")
                }
            };
            level.max_ways = level.max_ways.max(ways);
            level.points.push((p, ways));
        }
        for level in &mut levels {
            level.rows = vec![NONE; level.sets * level.max_ways];
        }
        let n = grid.configs.len();
        StackSimulator {
            tag: grid.tag,
            commutative: grid.commutative,
            hash: grid.hash,
            filter_trivials: grid.filter_trivials,
            levels,
            nodes: Vec::new(),
            index: HashMap::default(),
            free: Vec::new(),
            ops_seen: 0,
            trivial_seen: 0,
            table_lookups: 0,
            bypasses: 0,
            hits: vec![0; n],
            commutative_hits: vec![0; n],
            insertions: vec![0; n],
            evictions: vec![0; n],
            exact: true,
        }
    }

    /// Simulate one operation against every grid point at once.
    pub fn access(&mut self, op: Op) {
        if !self.exact {
            return;
        }
        self.ops_seen += 1;
        if trivial_result(&op).is_some() {
            self.trivial_seen += 1;
            if self.filter_trivials {
                return;
            }
        }
        self.table_lookups += 1;
        let Some(own) = encode_tag(&op, self.tag) else {
            self.bypasses += 1;
            return;
        };
        // Commutative probing under PaperXor: both operand orders select
        // the same set (the hash is symmetric), and at most one order is
        // resident in any table (the second order always hits the first).
        // Track the pair under the order-independent canonical key; the
        // stored orientation decides primary vs commutative hit.
        let mut canon = own;
        let mut swapped_now = false;
        if self.commutative {
            if let Some(sw) = op.swapped() {
                let skey = encode_tag(&sw, self.tag)
                    .expect("the swap of an encodable commutative op is encodable");
                if skey.tag < canon.tag {
                    canon = skey;
                    swapped_now = true;
                }
            }
        }
        // One operand mix serves every level: `set_index` only varies in
        // its final shift/mask across set counts.
        let sel = SetSel::of(&op, self.hash);
        match self.index.get(&canon).copied() {
            Some(id) => self.touch(&op, sel, id, swapped_now),
            None => self.insert(&op, sel, canon, swapped_now),
        }
    }

    /// The pair has been stored before: hit wherever it is still within
    /// reach, miss-and-reinsert wherever it has already been evicted.
    fn touch(&mut self, op: &Op, sel: SetSel, id: u32, swapped_now: bool) {
        if self.tag == TagPolicy::MantissaOnly
            && op.kind() != OpKind::IntMul
            && decode_value(op, self.nodes[id as usize].payload, self.tag).is_none()
        {
            // The stored mantissa cannot be rebuilt against this access's
            // exponents; see `SweepOutcome::exact`.
            self.exact = false;
            return;
        }
        let mut orient = self.nodes[id as usize].swapped;
        for level in &mut self.levels {
            let set = sel.set(level.sets);
            let row = &mut level.rows[set * level.max_ways..(set + 1) * level.max_ways];
            let mut pos = None;
            let mut len = 0;
            for (k, &slot) in row.iter().enumerate() {
                if slot == NONE {
                    break;
                }
                len += 1;
                if slot == id {
                    pos = Some(k);
                }
            }
            match pos {
                Some(k) => {
                    for &(p, ways) in &level.points {
                        if k < ways {
                            self.hits[p] += 1;
                            if ((orient >> p) & 1 == 1) != swapped_now {
                                self.commutative_hits[p] += 1;
                            }
                        } else {
                            // Depth k needs more than `ways` ways: this
                            // point evicted the pair earlier, so it
                            // misses and reinserts into a full set.
                            self.insertions[p] += 1;
                            self.evictions[p] += 1;
                            set_bit(&mut orient, p, swapped_now);
                        }
                    }
                    // Move-to-front serves every point at once: a hit
                    // refreshes LRU state, a reinsert lands at MRU.
                    row[..=k].rotate_right(1);
                }
                None => {
                    for &(p, ways) in &level.points {
                        self.insertions[p] += 1;
                        if len >= ways {
                            self.evictions[p] += 1;
                        }
                        set_bit(&mut orient, p, swapped_now);
                    }
                    let dropped = push_front(row, len, id);
                    self.nodes[id as usize].resident += 1;
                    if dropped != NONE {
                        release(&mut self.nodes, &mut self.index, &mut self.free, dropped);
                    }
                }
            }
        }
        self.nodes[id as usize].swapped = orient;
    }

    /// The pair is resident nowhere: a miss at every point.
    fn insert(&mut self, op: &Op, sel: SetSel, canon: Key, swapped_now: bool) {
        let Some(payload) = encode_value(op, op.compute(), self.tag) else {
            // The result is not representable (e.g. a denormal product
            // under mantissa-only tags): every table declines the insert
            // identically, so nothing becomes resident anywhere.
            self.bypasses += 1;
            return;
        };
        let node = Node {
            payload,
            swapped: if swapped_now { u128::MAX } else { 0 },
            key: canon,
            resident: u32::try_from(self.levels.len()).expect("level count fits in u32"),
        };
        let id = match self.free.pop() {
            Some(id) => {
                self.nodes[id as usize] = node;
                id
            }
            None => {
                let id = u32::try_from(self.nodes.len()).expect("node count fits in u32");
                self.nodes.push(node);
                id
            }
        };
        self.index.insert(canon, id);
        for level in &mut self.levels {
            let set = sel.set(level.sets);
            let row = &mut level.rows[set * level.max_ways..(set + 1) * level.max_ways];
            let len = row.iter().take_while(|&&slot| slot != NONE).count();
            for &(p, ways) in &level.points {
                self.insertions[p] += 1;
                if len >= ways {
                    self.evictions[p] += 1;
                }
            }
            let dropped = push_front(row, len, id);
            if dropped != NONE {
                release(&mut self.nodes, &mut self.index, &mut self.free, dropped);
            }
        }
    }

    /// Assemble per-point statistics. Evictions beyond the widest level
    /// row are still counted exactly: a node found deeper than a point's
    /// ways (or fallen off the row entirely) implies that point's set was
    /// full when it reinserted.
    #[must_use]
    pub fn finish(self) -> SweepOutcome {
        let shared = MemoStats {
            ops_seen: self.ops_seen,
            trivial_seen: self.trivial_seen,
            table_lookups: self.table_lookups,
            bypasses: self.bypasses,
            ..MemoStats::new()
        };
        let finite = (0..self.hits.len())
            .map(|p| MemoStats {
                table_hits: self.hits[p],
                commutative_hits: self.commutative_hits[p],
                insertions: self.insertions[p],
                evictions: self.evictions[p],
                ..shared
            })
            .collect();
        SweepOutcome { finite, exact: self.exact }
    }
}

#[inline]
fn set_bit(mask: &mut u128, bit: usize, value: bool) {
    if value {
        *mask |= 1 << bit;
    } else {
        *mask &= !(1 << bit);
    }
}

/// Insert `id` at the MRU end of a front-packed row holding `len` valid
/// entries, dropping the LRU tail when the row is full. Returns the
/// dropped node id, or [`NONE`] when the row still had room.
#[inline]
fn push_front(row: &mut [u32], len: usize, id: u32) -> u32 {
    let dropped = if len == row.len() {
        let tail = row[len - 1];
        row.rotate_right(1);
        tail
    } else {
        row[..=len].rotate_right(1);
        NONE
    };
    row[0] = id;
    dropped
}

/// A row dropped `id`: one residency gone. When it was the last, the
/// node leaves the key store and its slot becomes reusable — a key in no
/// row behaves exactly like one never seen (full miss, fresh insert), so
/// forgetting it is free and keeps the store bounded by grid capacity.
#[inline]
fn release(
    nodes: &mut [Node],
    index: &mut HashMap<Key, u32, KeyHashBuilder>,
    free: &mut Vec<u32>,
    id: u32,
) {
    let node = &mut nodes[id as usize];
    node.resident -= 1;
    if node.resident == 0 {
        index.remove(&node.key);
        free.push(id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::InfiniteColumn;
    use crate::config::Assoc;
    use crate::infinite::InfiniteMemoTable;
    use crate::rng::SplitMix64;
    use crate::table::MemoTable;
    use crate::Memoizer;

    /// A deterministic operand stream with enough reuse to exercise
    /// hits, evictions, and commutative probes at every table size.
    fn stream(kind: OpKind, seed: u64, n: usize) -> Vec<Op> {
        let mut rng = SplitMix64::new(seed);
        (0..n)
            .map(|_| {
                // Small operand pools create heavy reuse; occasional
                // wide values create conflict misses.
                let wide = rng.next_below(16) == 0;
                let pool = if wide { 4096 } else { 24 };
                let a = rng.next_below(pool) as i64 - 3;
                let b = rng.next_below(pool) as i64 - 3;
                match kind {
                    OpKind::IntMul => Op::IntMul(a, b),
                    OpKind::FpMul => Op::FpMul(a as f64 * 0.5, b as f64 * 0.25),
                    OpKind::FpDiv => Op::FpDiv(a as f64, b as f64 * 0.5),
                    OpKind::FpSqrt => Op::FpSqrt((a.unsigned_abs() as f64) * 0.5),
                }
            })
            .collect()
    }

    /// The fused pass against one dedicated table per point; with
    /// `infinite`, also the infinite column against the reference table.
    fn assert_grid_matches(ops: &[Op], configs: &[MemoConfig], infinite: bool) {
        let grid = SweepGrid::new(configs).expect("grid is fusable");
        let mut sim = StackSimulator::new(&grid);
        for &op in ops {
            sim.access(op);
        }
        let out = sim.finish();
        assert!(out.exact);
        for (cfg, fused) in configs.iter().zip(&out.finite) {
            let mut table = MemoTable::new(*cfg);
            for &op in ops {
                table.execute(op);
            }
            assert_eq!(*fused, table.stats(), "direct replay diverged for {cfg:?}");
        }
        if infinite {
            let mut column = InfiniteColumn::new();
            let mut table = InfiniteMemoTable::new();
            for &op in ops {
                column.access(op);
                table.execute(op);
            }
            assert_eq!(column.stats(), table.stats());
        }
    }

    fn paper_sizes() -> Vec<MemoConfig> {
        [8usize, 16, 32, 64, 128, 256]
            .iter()
            .map(|&e| MemoConfig::builder(e).build().unwrap())
            .collect()
    }

    #[test]
    fn matches_direct_replay_across_sizes_and_kinds() {
        for kind in OpKind::ALL {
            let ops = stream(kind, 0xC17_2041 + kind as u64, 4000);
            assert_grid_matches(&ops, &paper_sizes(), true);
        }
    }

    #[test]
    fn matches_direct_replay_across_associativities() {
        let mut configs = vec![MemoConfig::builder(32).assoc(Assoc::DirectMapped).build().unwrap()];
        for ways in [2usize, 4, 8] {
            configs.push(MemoConfig::builder(32).assoc(Assoc::Ways(ways)).build().unwrap());
        }
        // Fully associative: ways == entries, a single set.
        configs.push(MemoConfig::builder(32).assoc(Assoc::Full).build().unwrap());
        for kind in [OpKind::IntMul, OpKind::FpMul] {
            let ops = stream(kind, 0xA550C, 4000);
            assert_grid_matches(&ops, &configs, true);
        }
    }

    #[test]
    fn matches_direct_replay_without_commutative_probing() {
        let configs: Vec<MemoConfig> = [8usize, 32, 128]
            .iter()
            .map(|&e| MemoConfig::builder(e).commutative(false).build().unwrap())
            .collect();
        let ops = stream(OpKind::IntMul, 0xBEE, 3000);
        assert_grid_matches(&ops, &configs, false);
    }

    #[test]
    fn matches_direct_replay_under_foldmix_without_commutative() {
        let configs: Vec<MemoConfig> = [16usize, 64]
            .iter()
            .map(|&e| {
                MemoConfig::builder(e)
                    .hash(HashScheme::FoldMix)
                    .commutative(false)
                    .build()
                    .unwrap()
            })
            .collect();
        let ops = stream(OpKind::FpMul, 0xF01D, 3000);
        assert_grid_matches(&ops, &configs, false);
    }

    #[test]
    fn matches_direct_replay_with_memoized_trivials() {
        let configs: Vec<MemoConfig> = [8usize, 64]
            .iter()
            .map(|&e| MemoConfig::builder(e).trivial(TrivialPolicy::Memoize).build().unwrap())
            .collect();
        let ops = stream(OpKind::FpMul, 0x7121A, 3000);
        assert_grid_matches(&ops, &configs, false);
    }

    #[test]
    fn integrate_shares_the_exclude_pass() {
        // Exclude and Integrate produce identical statistics (both keep
        // trivial operations out of the table); only the derived hit
        // ratio differs. A mixed grid must therefore stay exact.
        let configs = vec![
            MemoConfig::builder(32).trivial(TrivialPolicy::Exclude).build().unwrap(),
            MemoConfig::builder(32).trivial(TrivialPolicy::Integrate).build().unwrap(),
        ];
        let ops = stream(OpKind::IntMul, 0x171, 2000);
        assert_grid_matches(&ops, &configs, true);
        let grid = SweepGrid::new(&configs).unwrap();
        let mut sim = StackSimulator::new(&grid);
        for &op in &ops {
            sim.access(op);
        }
        let out = sim.finish();
        assert_eq!(out.finite[0], out.finite[1]);
    }

    #[test]
    fn single_set_and_tiny_tables_match() {
        // assoc == entries (one set) and a 1-entry direct-mapped table.
        let configs = vec![
            MemoConfig::builder(4).assoc(Assoc::Full).build().unwrap(),
            MemoConfig::builder(1).assoc(Assoc::DirectMapped).build().unwrap(),
        ];
        let ops = stream(OpKind::FpDiv, 0x5E7, 2500);
        assert_grid_matches(&ops, &configs, true);
    }

    #[test]
    fn mantissa_grid_matches_or_flags_inexact() {
        let configs: Vec<MemoConfig> = [16usize, 64]
            .iter()
            .map(|&e| MemoConfig::builder(e).tag(TagPolicy::MantissaOnly).build().unwrap())
            .collect();
        let ops = stream(OpKind::FpMul, 0x3A9, 3000);
        let grid = SweepGrid::new(&configs).unwrap();
        let mut sim = StackSimulator::new(&grid);
        for &op in &ops {
            sim.access(op);
        }
        let out = sim.finish();
        if out.exact {
            for (cfg, fused) in configs.iter().zip(&out.finite) {
                let mut table = MemoTable::new(*cfg);
                for &op in &ops {
                    table.execute(op);
                }
                assert_eq!(*fused, table.stats());
            }
        }
    }

    #[test]
    fn poisoned_pass_reports_inexact() {
        let configs = vec![MemoConfig::builder(8).tag(TagPolicy::MantissaOnly).build().unwrap()];
        let grid = SweepGrid::new(&configs).unwrap();
        let mut sim = StackSimulator::new(&grid);
        // Same mantissas, exponents far enough apart that the rebuilt
        // exponent of the second access's result leaves the normal range.
        sim.access(Op::FpMul(1.5, 1.25));
        sim.access(Op::FpMul(1.5 * 2f64.powi(900), 1.25 * 2f64.powi(200)));
        let out = sim.finish();
        assert!(!out.exact);
    }

    #[test]
    fn grid_rejections_name_the_reason() {
        let lru = MemoConfig::builder(32).build().unwrap();
        assert_eq!(SweepGrid::new(&[]).unwrap_err(), SweepGridError::Empty);
        let fifo = MemoConfig::builder(32).replacement(Replacement::Fifo).build().unwrap();
        assert_eq!(
            SweepGrid::new(&[fifo]).unwrap_err(),
            SweepGridError::UnsupportedReplacement
        );
        let foldmix = MemoConfig::builder(32).hash(HashScheme::FoldMix).build().unwrap();
        assert_eq!(
            SweepGrid::new(&[foldmix]).unwrap_err(),
            SweepGridError::UnsupportedHash
        );
        let mantissa = MemoConfig::builder(32).tag(TagPolicy::MantissaOnly).build().unwrap();
        assert_eq!(
            SweepGrid::new(&[lru, mantissa]).unwrap_err(),
            SweepGridError::MixedPolicies
        );
        let memoize = MemoConfig::builder(32).trivial(TrivialPolicy::Memoize).build().unwrap();
        assert_eq!(
            SweepGrid::new(&[lru, memoize]).unwrap_err(),
            SweepGridError::MixedPolicies
        );
        let protected = MemoConfig::builder(32)
            .protection(Protection::ParityDetect)
            .build()
            .unwrap();
        assert_eq!(
            SweepGrid::new(&[protected]).unwrap_err(),
            SweepGridError::UnsupportedProtection
        );
    }
}
