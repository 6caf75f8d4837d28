//! The finite, set-associative MEMO-TABLE (§2.1–§2.2).

use crate::batch::{compute_bits, BatchOutcome, OpBatch, MAX_BATCH_WIDTH};
use crate::config::{HashScheme, MemoConfig, Replacement, TagPolicy, TrivialPolicy};
use crate::fault::{read_checked, FaultInjector, Protection, Repair};
use crate::key::{encode_tag, encode_value, fill_set_indices, set_index, Key};
use crate::op::{Op, OpKind, Value};
use crate::stats::MemoStats;
use crate::trivial::{fill_trivial_lanes, trivial_result};
use crate::{execute_each, Memoizer};

/// Result of presenting operands to a memo table (the lookup phase).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Probe {
    /// The table holds the result: the computation unit can be aborted and
    /// the value forwarded to write-back after a single cycle.
    Hit(Value),
    /// The integrated trivial-operation detector produced the result
    /// (only under [`TrivialPolicy::Integrate`]).
    Trivial(Value),
    /// The operation is trivial and was filtered before the table (only
    /// under [`TrivialPolicy::Exclude`]); the conventional unit computes it
    /// and nothing is recorded.
    Filtered,
    /// No matching entry; the conventional computation proceeds and its
    /// result should be offered to [`Memoizer::update`].
    Miss,
}

/// How an operation was ultimately satisfied (the complete probe→compute→
/// update cycle of [`Memoizer::execute`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Satisfied by the table in a single cycle.
    Hit,
    /// Satisfied by the integrated trivial detector in a single cycle.
    Trivial,
    /// Trivial, filtered before the table, computed conventionally.
    Filtered,
    /// Computed conventionally at full latency; result inserted.
    Miss,
}

impl Outcome {
    /// `true` when the operation completed in a single cycle instead of the
    /// unit's full latency.
    #[must_use]
    pub fn avoided_computation(self) -> bool {
        matches!(self, Outcome::Hit | Outcome::Trivial)
    }
}

/// Where one lane of a batch went in a full-value table, as
/// [`MemoTable::execute_batch_with_truth`] records it. A slot is an index
/// `set * ways + way` into the table's entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneSlot {
    /// The lane made no lookup: a trivial operation under
    /// [`TrivialPolicy::Exclude`] or [`TrivialPolicy::Integrate`].
    NoLookup,
    /// A tag match on this slot, in either operand order, served the lane.
    Hit(usize),
    /// The lane missed, and its result was inserted into this slot.
    Filled(usize),
}

/// A fully executed operation: its (bit-exact) value and how it was served.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Executed {
    /// The operation's result — always identical to [`Op::compute`].
    pub value: Value,
    /// How the result was obtained.
    pub outcome: Outcome,
}

/// A finite, set-associative memo table.
///
/// See the [crate docs](crate) for the big picture and [`MemoConfig`] for
/// the design space. All state is owned; the table is `Send`.
///
/// Storage is one array per slot field, indexed `set * ways + way`, so a
/// probe walks a few dense words instead of whole entries. The geometry is
/// cached at construction, so no probe divides.
///
/// # Examples
///
/// ```
/// use memo_table::{Assoc, MemoConfig, MemoTable, Memoizer, Op, Outcome};
///
/// let cfg = MemoConfig::builder(16).assoc(Assoc::Ways(2)).build()?;
/// let mut t = MemoTable::new(cfg);
/// assert_eq!(t.execute(Op::IntMul(6, 7)).outcome, Outcome::Miss);
/// assert_eq!(t.execute(Op::IntMul(6, 7)).outcome, Outcome::Hit);
/// // Commutative probing: the swapped order also hits (§2.2).
/// assert_eq!(t.execute(Op::IntMul(7, 6)).outcome, Outcome::Hit);
/// # Ok::<(), memo_table::MemoConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct MemoTable {
    cfg: MemoConfig,
    sets: usize,
    ways: usize,
    valid: Vec<bool>,
    kind: Vec<OpKind>,
    /// The tag as stored — may drift from `clean_tag` under tag faults.
    tag: Vec<u128>,
    /// The tag as written at insert time (the checker's reference).
    clean_tag: Vec<u128>,
    /// The payload as stored — may drift from `clean_value` under value
    /// faults.
    value: Vec<u64>,
    /// The payload as written at insert time (what the entry's parity/ECC
    /// bits were computed over; the Hamming distance `value ^ clean_value`
    /// is exactly the error count a real checker would see).
    clean_value: Vec<u64>,
    last_use: Vec<u64>,
    inserted: Vec<u64>,
    clock: u64,
    stats: MemoStats,
    rng: u64,
    injector: Option<FaultInjector>,
    /// A tag strike has landed since construction or the last reset. Until
    /// one does, every stored tag equals its clean copy and the tag scrub
    /// has nothing to find.
    tag_drift: bool,
}

impl MemoTable {
    /// Create an empty table with the given configuration.
    #[must_use]
    pub fn new(cfg: MemoConfig) -> Self {
        let slots = cfg.entries();
        MemoTable {
            cfg,
            sets: cfg.sets(),
            ways: cfg.ways(),
            valid: vec![false; slots],
            kind: vec![OpKind::IntMul; slots],
            tag: vec![0; slots],
            clean_tag: vec![0; slots],
            value: vec![0; slots],
            clean_value: vec![0; slots],
            last_use: vec![0; slots],
            inserted: vec![0; slots],
            clock: 0,
            stats: MemoStats::new(),
            rng: 0x9E37_79B9_7F4A_7C15,
            injector: None,
            tag_drift: false,
        }
    }

    /// Attach a soft-error process; the table consults it on every probe.
    /// Attach it when the table is built: a batch picks its path from the
    /// attached injector alone, so the strikes of an enabled injector that
    /// a disabled one replaced would reach the lane kernel unchecked.
    ///
    /// # Panics
    ///
    /// Panics if the table already has an injector.
    #[must_use]
    pub fn with_fault_injector(mut self, injector: FaultInjector) -> Self {
        assert!(self.injector.is_none(), "a memo table takes one fault injector");
        self.injector = Some(injector);
        self
    }

    /// The table's configuration.
    #[must_use]
    pub fn config(&self) -> &MemoConfig {
        &self.cfg
    }

    /// Number of valid entries currently stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.valid.iter().filter(|&&v| v).count()
    }

    /// `true` if no entries are stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        !self.valid.contains(&true)
    }

    /// Hit ratio under this table's own trivial policy — the number the
    /// paper's tables report.
    #[must_use]
    pub fn hit_ratio(&self) -> f64 {
        self.stats.hit_ratio(self.cfg.trivial())
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// The slot of the set starting at `base` that holds `key`, if any.
    #[inline]
    fn find(&self, base: usize, key: Key) -> Option<usize> {
        let end = base + self.ways;
        let way = self.valid[base..end]
            .iter()
            .zip(&self.kind[base..end])
            .zip(&self.tag[base..end])
            .position(|((&valid, &kind), &tag)| valid && tag == key.tag && kind == key.kind)?;
        Some(base + way)
    }

    /// Search the set starting at `base` for `key`; on success refresh its
    /// LRU stamp and return the matching slot index.
    fn lookup(&mut self, base: usize, key: Key) -> Option<usize> {
        let stamp = self.tick();
        let slot = self.find(base, key)?;
        self.last_use[slot] = stamp;
        Some(slot)
    }

    fn next_random(&mut self) -> u64 {
        // xorshift64* — deterministic, dependency-free.
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Store `key` in `set` and return the slot it took.
    fn insert(&mut self, set: usize, key: Key, value: u64) -> usize {
        let base = set * self.ways;
        let end = base + self.ways;
        let stamp = self.tick();

        // Prefer an invalid slot; with all ways valid, pick a victim.
        let slot = match self.valid[base..end].iter().position(|&v| !v) {
            Some(way) => base + way,
            None => {
                self.stats.evictions += 1;
                let oldest = |stamps: &[u64]| {
                    (0..stamps.len()).min_by_key(|&w| stamps[w]).expect("ways >= 1")
                };
                base + match self.cfg.replacement() {
                    Replacement::Lru => oldest(&self.last_use[base..end]),
                    Replacement::Fifo => oldest(&self.inserted[base..end]),
                    Replacement::Random => (self.next_random() % self.ways as u64) as usize,
                }
            }
        };
        self.valid[slot] = true;
        self.kind[slot] = key.kind;
        self.tag[slot] = key.tag;
        self.clean_tag[slot] = key.tag;
        self.value[slot] = value;
        self.clean_value[slot] = value;
        self.last_use[slot] = stamp;
        self.inserted[slot] = stamp;
        self.stats.insertions += 1;
        slot
    }

    /// The protection policy scrubs the entries of one probed set whose
    /// stored tag has drifted from its checked reference.
    ///
    /// A tag-corrupted entry can no longer match its operands (a false
    /// miss), so it costs hit ratio rather than correctness; parity and
    /// SEC-DED additionally notice the corruption on the next probe of the
    /// set and either repair (single flips, SEC-DED) or invalidate it.
    /// [`Protection::VerifyOnHit`] only checks *served* values, so it never
    /// sees unreachable entries.
    fn scrub_tags(&mut self, base: usize) {
        let protection = self.cfg.protection();
        if !matches!(protection, Protection::ParityDetect | Protection::EccSecDed) {
            return;
        }
        for slot in base..base + self.ways {
            if !self.valid[slot] {
                continue;
            }
            let errs = (self.tag[slot] ^ self.clean_tag[slot]).count_ones();
            let detected = if protection == Protection::ParityDetect {
                errs % 2 == 1
            } else if errs == 1 {
                self.tag[slot] = self.clean_tag[slot];
                self.stats.faults_corrected += 1;
                false
            } else {
                errs >= 2
            };
            if detected {
                self.stats.faults_detected += 1;
                self.valid[slot] = false;
            }
        }
    }

    /// A tag strike on the set starting at `base`: flip tag bit `bit` of
    /// its `way_draw`-th valid entry, counted modulo the valid entries. A
    /// set with no valid entry absorbs the strike.
    fn strike_tag(&mut self, base: usize, way_draw: u64, bit: u32) {
        let valid = &self.valid[base..base + self.ways];
        let count = valid.iter().filter(|&&v| v).count();
        if count == 0 {
            return;
        }
        let target = (way_draw % count as u64) as usize;
        let (way, _) =
            valid.iter().enumerate().filter(|(_, &v)| v).nth(target).expect("target < valid count");
        self.tag[base + way] ^= 1u128 << bit;
        self.stats.faults_injected += 1;
        self.tag_drift = true;
    }

    /// Read a matched entry through the fault process and the protection
    /// policy. `None` means the hit was downgraded to a miss (corruption
    /// detected, entry invalidated) or the payload cannot be decoded.
    fn read_protected(&mut self, op: &Op, slot: usize) -> Option<Value> {
        // New soft errors strike the cell itself: persist them.
        if let Some(mask) = self.injector.as_mut().and_then(FaultInjector::value_strike) {
            self.value[slot] ^= mask;
            self.stats.faults_injected += 1;
        }

        let clean = self.clean_value[slot];
        let mut read = self.value[slot];
        // Stuck-at defects corrupt the read, not the cell contents.
        if let Some(injector) = &self.injector {
            let stuck = injector.apply_stuck(slot, read);
            if stuck != read {
                self.stats.faults_injected += 1;
                read = stuck;
            }
        }

        let (value, repair) =
            read_checked(self.cfg.protection(), op, read, clean, self.cfg.tag(), &mut self.stats);
        match repair {
            Repair::Keep => {}
            Repair::Rewrite => self.value[slot] = clean,
            Repair::Invalidate => self.valid[slot] = false,
        }
        value
    }

    /// Probe for `op` with its tag and set already derived. Returns the
    /// decoded value on a tag match whose result is reconstructible and
    /// survives the protection policy's corruption check.
    ///
    /// Tag encoding and set hashing happen exactly once per operand order
    /// (in the callers) — not once for the existence check and again for
    /// the lookup, and not a third time for the insert after a miss.
    ///
    /// Each fault hook runs only when it can change something: the tag
    /// scrub once a tag strike has landed, the strike draws when the
    /// injector's rates are non-zero (the draws themselves check).
    fn probe_keyed(&mut self, op: &Op, key: Key, set: usize) -> Option<Value> {
        let base = set * self.ways;
        if self.tag_drift {
            self.scrub_tags(base);
        }
        if let Some((way_draw, bit)) = self.injector.as_mut().and_then(FaultInjector::tag_strike) {
            self.strike_tag(base, way_draw, bit);
        }
        let slot = self.lookup(base, key)?;
        self.read_protected(op, slot)
    }

    /// Probe the swapped operand order of a commutative operation (§2.2).
    fn probe_commutative(&mut self, op: &Op) -> Option<Value> {
        if !self.cfg.commutative() {
            return None;
        }
        let swapped = op.swapped()?;
        let key = encode_tag(&swapped, self.cfg.tag())?;
        let set = set_index(&swapped, self.sets, self.cfg.hash());
        let v = self.probe_keyed(&swapped, key, set)?;
        self.stats.table_hits += 1;
        self.stats.commutative_hits += 1;
        Some(v)
    }

    /// Shared front half of [`Memoizer::probe`] and the overridden
    /// [`Memoizer::execute`]: trivial handling, tag encoding, and the
    /// lookup. `Err(probe)` is an early decision; `Ok((key, set))` means
    /// the lookup missed and the derived key/set are reusable for insert.
    fn probe_front(&mut self, op: &Op) -> Result<(Key, usize), Probe> {
        self.stats.ops_seen += 1;

        if let Some((_, value)) = trivial_result(op) {
            self.stats.trivial_seen += 1;
            match self.cfg.trivial() {
                TrivialPolicy::Exclude => return Err(Probe::Filtered),
                TrivialPolicy::Integrate => return Err(Probe::Trivial(value)),
                TrivialPolicy::Memoize => {} // falls through to the table
            }
        }

        self.stats.table_lookups += 1;

        let Some(key) = encode_tag(op, self.cfg.tag()) else {
            // Operands not representable under the tag policy: the lookup
            // simply misses (and the insert path declines to store).
            self.stats.bypasses += 1;
            return Err(Probe::Miss);
        };
        let set = set_index(op, self.sets, self.cfg.hash());

        if let Some(v) = self.probe_keyed(op, key, set) {
            self.stats.table_hits += 1;
            return Err(Probe::Hit(v));
        }
        if let Some(v) = self.probe_commutative(op) {
            return Err(Probe::Hit(v));
        }
        Ok((key, set))
    }

    /// `true` when the table has an enabled soft-error process. A table
    /// gets its injector when it is built, so without an enabled one no
    /// strike has landed: every stored tag and payload equals its clean
    /// copy, and no fault hook changes what a probe does.
    fn fault_source(&self) -> bool {
        self.injector.as_ref().is_some_and(|i| !i.config().is_disabled())
    }

    /// Batched execution that also reports what the table served: lane
    /// `i`'s value bits land in `served[i]`, exactly
    /// `execute(batch.op(i)).value` — faults and protection included. A
    /// caller that compares `served` with `truth` counts the lanes that
    /// were silently corrupted, with no second pass over the table.
    ///
    /// `truth[i]` must be the true result bits of lane `i`
    /// ([`Op::compute`]). On a full-value table with no enabled fault
    /// injector a miss inserts it instead of recomputing it; debug builds
    /// check that the two agree, as [`Memoizer::update`] does. Statistics,
    /// table state and the returned tally are those of
    /// [`Memoizer::execute_batch`].
    ///
    /// `slots` is either empty or one record per lane. A full-value table
    /// then records where each lane went: [`LaneSlot::Hit`] with the slot
    /// that served it, [`LaneSlot::Filled`] with the slot its result was
    /// inserted into, or [`LaneSlot::NoLookup`].
    ///
    /// # Panics
    ///
    /// Panics if `truth` or `served` does not have one element per lane,
    /// or if `slots` is neither empty nor one per lane. A mantissa-only
    /// table, and a table with an enabled fault injector, runs
    /// [`Memoizer::execute`] per lane, which reports no slot, so either
    /// panics when handed a non-empty `slots`.
    pub fn execute_batch_with_truth(
        &mut self,
        batch: &OpBatch<'_>,
        truth: &[u64],
        served: &mut [u64],
        slots: &mut [LaneSlot],
    ) -> BatchOutcome {
        assert_eq!(truth.len(), batch.len(), "one true result per lane");
        assert_eq!(served.len(), batch.len(), "one served slot per lane");
        if !slots.is_empty() {
            assert_eq!(slots.len(), batch.len(), "one lane record per lane");
            assert_eq!(self.cfg.tag(), TagPolicy::FullValue, "only full-value tables record slots");
            assert!(
                !self.fault_source(),
                "a table with an enabled fault injector records no slots"
            );
        }
        self.run_batch(batch, Some((truth, served, slots)))
    }

    /// Route a batch: a full-value table with no enabled fault injector
    /// takes the lane kernel. Mantissa-only and fault-injected tables run
    /// [`Memoizer::execute`] per lane, the oracle the lane kernel is tested
    /// against, where the fault hooks and the protection ladder live. That
    /// scalar path costs more per operation than the lane kernel: Table
    /// 10's mantissa column (25.3 M fmul and fdiv operations at default
    /// scale) measured 68–77 ns/op through it against 45–51 ns/op through
    /// the full-value lane kernel. A mantissa lane path is ROADMAP item 6.
    /// No experiment batches a fault-injected table: the fault sweep
    /// derives its faulted tables from clean ones, and the breaker demo's
    /// bank calls `execute` per lane.
    fn run_batch(&mut self, batch: &OpBatch<'_>, lanes: Option<LaneOut<'_>>) -> BatchOutcome {
        if self.cfg.tag() != TagPolicy::FullValue || self.fault_source() {
            return execute_each(self, batch, lanes.map(|(_, served, _)| served));
        }
        match lanes {
            Some(_) => self.execute_batch_lanes_full::<true>(batch, lanes),
            None => self.execute_batch_lanes_full::<false>(batch, None),
        }
    }

    /// One set probe of the lane kernel: [`lookup`](Self::lookup) with the
    /// clock in a register. Returns the matched slot and its stored payload
    /// (read only when `SERVE`; 0 otherwise), or `None` for a miss.
    #[inline(always)]
    fn probe_lane<const SERVE: bool>(
        &mut self,
        base: usize,
        key: Key,
        clock: &mut u64,
    ) -> Option<(usize, u64)> {
        *clock += 1;
        let slot = self.find(base, key)?;
        self.last_use[slot] = *clock;
        Some((slot, if SERVE { self.value[slot] } else { 0 }))
    }

    /// Lane-parallel batch execution for **full-value** tables with no
    /// enabled fault injector — the paper default and every clean or
    /// protected table of the experiments.
    ///
    /// Under [`TagPolicy::FullValue`] every lane is encodable (no bypass
    /// lanes) and a matched payload always decodes, so the whole per-lane
    /// cascade collapses: trivial masks and set indices are filled in
    /// lane-parallel loops, tags are two raw-column loads folded inline,
    /// and the serial resolve keeps the clock and the probe statistics in
    /// registers, flushing to the table's counters once per batch. The
    /// decision sequence per lane — probe, swapped probe, insert, every
    /// clock tick and LRU stamp — is exactly the scalar one, so state and
    /// stats land bit-identical to [`Memoizer::execute`] lane by lane.
    /// With no fault source the scalar probe's fault hooks do nothing and
    /// its protected read returns the stored payload under every policy,
    /// so a match here serves that payload.
    ///
    /// `SERVE` is set exactly when `lanes` is given: a miss then inserts
    /// the caller's true result instead of recomputing it, and each lane's
    /// served bits and slot record are written out (see
    /// [`execute_batch_with_truth`](Self::execute_batch_with_truth)).
    ///
    /// Each instantiation stays a function of its own. Inlined together
    /// into [`run_batch`](Self::run_batch), the serving instantiation's
    /// slot records changed the code generated for the plain one, which
    /// every paper-default replay runs. Replaying the 18 MM apps into
    /// `MemoBank::paper_default` took 0.365–0.366 s inlined and 0.356–0.357 s
    /// out of line, against 0.355–0.360 s before the slot records existed
    /// (2-vCPU x86-64; medians of 9 rounds, 4 alternations; both builds in
    /// paths of one length, since code placement alone moves this loop by
    /// a few percent).
    #[inline(never)]
    fn execute_batch_lanes_full<const SERVE: bool>(
        &mut self,
        batch: &OpBatch<'_>,
        mut lanes: Option<LaneOut<'_>>,
    ) -> BatchOutcome {
        debug_assert_eq!(self.cfg.tag(), TagPolicy::FullValue);
        debug_assert!(!self.fault_source());
        debug_assert_eq!(SERVE, lanes.is_some());
        let kind = batch.kind();
        let scheme = self.cfg.hash();
        let (sets, ways) = (self.sets, self.ways);
        let trivial_policy = self.cfg.trivial();
        let commutative = self.cfg.commutative() && kind.is_commutative();
        let swap_hashes = commutative && scheme == HashScheme::FoldMix;

        let mut out = BatchOutcome::default();
        let (mut ops_seen, mut trivial_seen, mut lookups) = (0u64, 0u64, 0u64);
        let (mut hits, mut comm_hits) = (0u64, 0u64);
        let mut clock = self.clock;

        let mut start = 0usize;
        while start < batch.len() {
            let w = (batch.len() - start).min(MAX_BATCH_WIDTH);
            let a = &batch.a()[start..start + w];
            let b = if batch.b().is_empty() { &[][..] } else { &batch.b()[start..start + w] };
            let first = start;
            start += w;

            let mut trivial = [false; MAX_BATCH_WIDTH];
            let mut set_idx = [0u32; MAX_BATCH_WIDTH];
            let mut swapped_set_idx = [0u32; MAX_BATCH_WIDTH];
            fill_trivial_lanes(kind, a, b, &mut trivial[..w]);
            fill_set_indices(kind, scheme, sets, a, b, false, &mut set_idx[..w]);
            if swap_hashes {
                fill_set_indices(kind, scheme, sets, a, b, true, &mut swapped_set_idx[..w]);
            }

            for i in 0..w {
                let lane = first + i;
                ops_seen += 1;
                // Where this lane went and the bits it served; a lane with
                // no lookup serves the true result.
                let (record, bits) = 'lane: {
                    if trivial[i] {
                        trivial_seen += 1;
                        match trivial_policy {
                            TrivialPolicy::Exclude => break 'lane (LaneSlot::NoLookup, 0),
                            TrivialPolicy::Integrate => {
                                out.trivials += 1;
                                break 'lane (LaneSlot::NoLookup, 0);
                            }
                            TrivialPolicy::Memoize => {}
                        }
                    }
                    lookups += 1;
                    let ai = a[i];
                    let bi = if b.is_empty() { ai } else { b[i] };
                    let tag = ((ai as u128) << 64) | bi as u128;
                    let set = set_idx[i] as usize;

                    let key = Key { kind, tag };
                    if let Some((slot, bits)) =
                        self.probe_lane::<SERVE>(set * ways, key, &mut clock)
                    {
                        hits += 1;
                        out.hits += 1;
                        break 'lane (LaneSlot::Hit(slot), bits);
                    }

                    if commutative {
                        let stag = ((bi as u128) << 64) | ai as u128;
                        let sset = if swap_hashes { swapped_set_idx[i] as usize } else { set };
                        let key = Key { kind, tag: stag };
                        if let Some((slot, bits)) =
                            self.probe_lane::<SERVE>(sset * ways, key, &mut clock)
                        {
                            hits += 1;
                            comm_hits += 1;
                            out.hits += 1;
                            break 'lane (LaneSlot::Hit(slot), bits);
                        }
                    }

                    // Miss: insert the true result, syncing the register
                    // clock with the shared helper's tick.
                    let result = match &lanes {
                        Some((truth, ..)) if SERVE => {
                            debug_assert_eq!(
                                truth[lane],
                                compute_bits(kind, ai, bi),
                                "the caller's truth must be the true result"
                            );
                            truth[lane]
                        }
                        _ => compute_bits(kind, ai, bi),
                    };
                    self.clock = clock;
                    let slot = self.insert(set, key, result);
                    clock = self.clock;
                    (LaneSlot::Filled(slot), result)
                };
                if SERVE {
                    if let Some((truth, served, slots)) = lanes.as_mut() {
                        served[lane] =
                            if record == LaneSlot::NoLookup { truth[lane] } else { bits };
                        if let Some(slot) = slots.get_mut(lane) {
                            *slot = record;
                        }
                    }
                }
            }
        }

        self.clock = clock;
        self.stats.ops_seen += ops_seen;
        self.stats.trivial_seen += trivial_seen;
        self.stats.table_lookups += lookups;
        self.stats.table_hits += hits;
        self.stats.commutative_hits += comm_hits;
        out
    }
}

/// The per-lane inputs and outputs of
/// [`MemoTable::execute_batch_with_truth`]: true results, served bits and
/// slot records (empty when not recorded).
type LaneOut<'a> = (&'a [u64], &'a mut [u64], &'a mut [LaneSlot]);

impl Memoizer for MemoTable {
    fn probe(&mut self, op: Op) -> Probe {
        match self.probe_front(&op) {
            Err(probe) => probe,
            Ok(_) => Probe::Miss,
        }
    }

    /// Specialized probe→compute→insert cycle: the tag and set index
    /// derived during the probe are reused by the insert after a miss,
    /// instead of being recomputed by [`Memoizer::update`]. This is the
    /// per-op path (`MemoizedSink`, `DiffSink` and breaker-armed banks),
    /// the batch path of mantissa-only and fault-injected tables, and the
    /// oracle the lane kernel is tested against.
    fn execute(&mut self, op: Op) -> Executed {
        match self.probe_front(&op) {
            Err(Probe::Hit(v)) => Executed { value: v, outcome: Outcome::Hit },
            Err(Probe::Trivial(v)) => Executed { value: v, outcome: Outcome::Trivial },
            Err(Probe::Filtered) => {
                Executed { value: op.compute(), outcome: Outcome::Filtered }
            }
            Err(Probe::Miss) => {
                // Tag not encodable: computed conventionally, never stored.
                Executed { value: op.compute(), outcome: Outcome::Miss }
            }
            Ok((key, set)) => {
                let value = op.compute();
                match encode_value(&op, value, self.cfg.tag()) {
                    Some(stored) => {
                        self.insert(set, key, stored);
                    }
                    None => self.stats.bypasses += 1,
                }
                Executed { value, outcome: Outcome::Miss }
            }
        }
    }

    /// Batched execution. A full-value table with no enabled fault
    /// injector — the paper default and every clean or protected table of
    /// the experiments — takes the lane kernel. Mantissa-only and
    /// fault-injected tables run [`Memoizer::execute`] per lane.
    fn execute_batch(&mut self, batch: &OpBatch<'_>) -> BatchOutcome {
        self.run_batch(batch, None)
    }

    fn update(&mut self, op: Op, result: Value) {
        debug_assert_eq!(result, op.compute(), "update must receive the true result");

        if trivial_result(&op).is_some() && self.cfg.trivial() != TrivialPolicy::Memoize {
            return;
        }
        let Some(key) = encode_tag(&op, self.cfg.tag()) else { return };
        let Some(value) = encode_value(&op, result, self.cfg.tag()) else {
            self.stats.bypasses += 1;
            return;
        };
        let set = set_index(&op, self.sets, self.cfg.hash());
        self.insert(set, key, value);
    }

    fn stats(&self) -> MemoStats {
        self.stats
    }

    fn reset(&mut self) {
        self.valid.fill(false);
        self.tag_drift = false;
        self.clock = 0;
        self.stats = MemoStats::new();
        self.rng = 0x9E37_79B9_7F4A_7C15;
        // Restart the error process from its seed so a reset table replays
        // deterministically.
        self.injector = self.injector.as_ref().map(|i| FaultInjector::new(i.config()));
    }

    fn hit_penalty(&self) -> u32 {
        self.cfg.protection().hit_penalty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Assoc, HashScheme, TagPolicy};

    fn table(entries: usize, ways: usize) -> MemoTable {
        MemoTable::new(MemoConfig::builder(entries).assoc(Assoc::Ways(ways)).build().unwrap())
    }

    #[test]
    fn miss_then_hit() {
        let mut t = MemoTable::new(MemoConfig::paper_default());
        assert_eq!(t.execute(Op::FpMul(2.5, 4.0)).outcome, Outcome::Miss);
        let e = t.execute(Op::FpMul(2.5, 4.0));
        assert_eq!(e.outcome, Outcome::Hit);
        assert_eq!(e.value, Value::Fp(10.0));
        assert_eq!(t.stats().table_hits, 1);
        assert_eq!(t.stats().insertions, 1);
    }

    #[test]
    fn division_is_not_commutative() {
        let mut t = MemoTable::new(MemoConfig::paper_default());
        t.execute(Op::FpDiv(8.0, 2.0));
        assert_eq!(t.execute(Op::FpDiv(2.0, 8.0)).outcome, Outcome::Miss);
    }

    #[test]
    fn commutative_probe_hits_swapped_order() {
        let mut t = MemoTable::new(MemoConfig::paper_default());
        t.execute(Op::FpMul(3.0, 7.0));
        let e = t.execute(Op::FpMul(7.0, 3.0));
        assert_eq!(e.outcome, Outcome::Hit);
        assert_eq!(e.value, Value::Fp(21.0));
        assert_eq!(t.stats().commutative_hits, 1);
    }

    #[test]
    fn commutative_probe_can_be_disabled() {
        let cfg = MemoConfig::builder(32).commutative(false).build().unwrap();
        let mut t = MemoTable::new(cfg);
        t.execute(Op::FpMul(3.0, 7.0));
        assert_eq!(t.execute(Op::FpMul(7.0, 3.0)).outcome, Outcome::Miss);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        // Fully associative 2-entry table isolates replacement behaviour.
        let cfg = MemoConfig::builder(2).assoc(Assoc::Full).build().unwrap();
        let mut t = MemoTable::new(cfg);
        t.execute(Op::FpDiv(10.0, 2.0)); // A
        t.execute(Op::FpDiv(20.0, 2.0)); // B
        t.execute(Op::FpDiv(10.0, 2.0)); // touch A => B is LRU
        t.execute(Op::FpDiv(30.0, 2.0)); // C evicts B
        assert_eq!(t.execute(Op::FpDiv(10.0, 2.0)).outcome, Outcome::Hit, "A survives");
        assert_eq!(t.execute(Op::FpDiv(20.0, 2.0)).outcome, Outcome::Miss, "B evicted");
        assert!(t.stats().evictions >= 1);
    }

    #[test]
    fn fifo_evicts_oldest_insertion() {
        let cfg = MemoConfig::builder(2)
            .assoc(Assoc::Full)
            .replacement(Replacement::Fifo)
            .build()
            .unwrap();
        let mut t = MemoTable::new(cfg);
        t.execute(Op::FpDiv(10.0, 2.0)); // A (oldest)
        t.execute(Op::FpDiv(20.0, 2.0)); // B
        t.execute(Op::FpDiv(10.0, 2.0)); // touch A — irrelevant to FIFO
        t.execute(Op::FpDiv(30.0, 2.0)); // C evicts A
        assert_eq!(t.execute(Op::FpDiv(20.0, 2.0)).outcome, Outcome::Hit, "B survives");
        assert_eq!(t.execute(Op::FpDiv(10.0, 2.0)).outcome, Outcome::Miss, "A evicted");
    }

    #[test]
    fn random_replacement_still_functions() {
        let cfg = MemoConfig::builder(4)
            .assoc(Assoc::Full)
            .replacement(Replacement::Random)
            .build()
            .unwrap();
        let mut t = MemoTable::new(cfg);
        for i in 0..100 {
            t.execute(Op::FpDiv(i as f64 + 2.0, 3.0));
        }
        assert_eq!(t.len(), 4);
        assert_eq!(t.stats().insertions, 100);
        assert_eq!(t.stats().evictions, 96);
    }

    #[test]
    fn direct_mapped_conflict_pathology() {
        // §3.2: two values mapping to the same set alternate and conflict on
        // every lookup when direct-mapped; 2 ways fix it. Engineer two fp
        // pairs with identical mantissa MSBs (same index) but different tags.
        let a = Op::FpDiv(1.5, 3.0); // mantissas 1.5/1.5: XOR of MSBs = 0
        let b = Op::FpDiv(1.25, 2.5); // mantissas 1.25/1.25: XOR of MSBs = 0
        let dm = MemoConfig::builder(4).assoc(Assoc::DirectMapped).build().unwrap();
        let mut t = MemoTable::new(dm);
        // Confirm they collide under the paper hash.
        assert_eq!(
            set_index(&a, 4, HashScheme::PaperXor),
            set_index(&b, 4, HashScheme::PaperXor)
        );
        for _ in 0..10 {
            t.execute(a);
            t.execute(b);
        }
        assert_eq!(t.stats().table_hits, 0, "alternating conflicts: zero hits");

        let two_way = MemoConfig::builder(4).assoc(Assoc::Ways(2)).build().unwrap();
        let mut t = MemoTable::new(two_way);
        for _ in 0..10 {
            t.execute(a);
            t.execute(b);
        }
        assert_eq!(t.stats().table_hits, 18, "2 ways absorb the alternation");
    }

    #[test]
    fn trivial_exclude_filters_before_table() {
        let mut t = MemoTable::new(MemoConfig::paper_default()); // Exclude default
        let e = t.execute(Op::FpMul(1.0, 9.0));
        assert_eq!(e.outcome, Outcome::Filtered);
        assert_eq!(e.value, Value::Fp(9.0));
        assert_eq!(t.stats().table_lookups, 0);
        assert_eq!(t.stats().trivial_seen, 1);
        assert!(t.is_empty(), "excluded trivials must not occupy entries");
    }

    #[test]
    fn trivial_integrate_counts_as_hit() {
        let cfg = MemoConfig::builder(32).trivial(TrivialPolicy::Integrate).build().unwrap();
        let mut t = MemoTable::new(cfg);
        assert_eq!(t.execute(Op::FpDiv(7.0, 1.0)).outcome, Outcome::Trivial);
        assert_eq!(t.execute(Op::FpDiv(7.0, 2.0)).outcome, Outcome::Miss);
        assert_eq!(t.execute(Op::FpDiv(7.0, 2.0)).outcome, Outcome::Hit);
        // intgr ratio: (1 trivial + 1 hit) / 3 ops.
        assert!((t.hit_ratio() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn trivial_memoize_sends_trivials_through_table() {
        let cfg = MemoConfig::builder(32).trivial(TrivialPolicy::Memoize).build().unwrap();
        let mut t = MemoTable::new(cfg);
        assert_eq!(t.execute(Op::FpMul(1.0, 9.0)).outcome, Outcome::Miss);
        assert_eq!(t.execute(Op::FpMul(1.0, 9.0)).outcome, Outcome::Hit);
        assert_eq!(t.stats().trivial_seen, 2);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn mantissa_mode_hits_across_exponents() {
        let cfg = MemoConfig::builder(32).tag(TagPolicy::MantissaOnly).build().unwrap();
        let mut t = MemoTable::new(cfg);
        assert_eq!(t.execute(Op::FpMul(1.7, 3.3)).outcome, Outcome::Miss);
        // Same mantissas, scaled by powers of two (and one sign flip).
        let op = Op::FpMul(-1.7 * 16.0, 3.3 / 4.0);
        let e = t.execute(op);
        assert_eq!(e.outcome, Outcome::Hit);
        assert_eq!(e.value, op.compute(), "reconstruction must be bit-exact");
    }

    #[test]
    fn full_mode_misses_across_exponents() {
        let mut t = MemoTable::new(MemoConfig::paper_default());
        t.execute(Op::FpMul(1.7, 3.3));
        assert_eq!(t.execute(Op::FpMul(1.7 * 16.0, 3.3 / 4.0)).outcome, Outcome::Miss);
    }

    #[test]
    fn mantissa_mode_bypasses_non_normals() {
        let cfg = MemoConfig::builder(32).tag(TagPolicy::MantissaOnly).build().unwrap();
        let mut t = MemoTable::new(cfg);
        let e = t.execute(Op::FpMul(f64::NAN, 3.0));
        assert_eq!(e.outcome, Outcome::Miss);
        assert!(e.value.as_f64().is_nan());
        assert_eq!(t.stats().bypasses, 1);
        assert!(t.is_empty());
    }

    #[test]
    fn mantissa_mode_declines_unstorable_results() {
        let cfg = MemoConfig::builder(32).tag(TagPolicy::MantissaOnly).build().unwrap();
        let mut t = MemoTable::new(cfg);
        // Underflows to subnormal: operands normal, result not storable.
        let e = t.execute(Op::FpMul(1.5e-200, 1.5e-200));
        assert_eq!(e.outcome, Outcome::Miss);
        assert_eq!(e.value, Op::FpMul(1.5e-200, 1.5e-200).compute());
        assert!(t.is_empty());
    }

    #[test]
    fn full_tags_memoize_nan_exactly() {
        let mut t = MemoTable::new(MemoConfig::paper_default());
        let op = Op::FpMul(f64::NAN, 3.0);
        let first = t.execute(op);
        assert_eq!(first.outcome, Outcome::Miss);
        let again = t.execute(op);
        assert_eq!(again.outcome, Outcome::Hit);
        assert_eq!(again.value.to_bits(), first.value.to_bits());
    }

    #[test]
    fn int_and_fp_entries_do_not_alias() {
        // 2.0f64 bits and some integer could in principle produce equal tags;
        // the kind field must keep them apart. Force full associativity so
        // both land in the same set.
        let cfg = MemoConfig::builder(8).assoc(Assoc::Full).build().unwrap();
        let mut t = MemoTable::new(cfg);
        let ibits = 2.0f64.to_bits() as i64;
        t.execute(Op::FpMul(2.0, 2.0));
        assert_eq!(t.execute(Op::IntMul(ibits, ibits)).outcome, Outcome::Miss);
    }

    #[test]
    fn capacity_eviction_at_scale() {
        let mut t = table(32, 4);
        // 1000 distinct divisions cannot fit in 32 entries.
        for i in 0..1000 {
            t.execute(Op::FpDiv(i as f64 + 2.0, 1.000001 + i as f64));
        }
        assert!(t.len() <= 32);
        assert_eq!(t.stats().table_hits, 0);
        // Replay: the *last* few should still be resident.
        let last = Op::FpDiv(999.0 + 2.0, 1.000001 + 999.0);
        assert_eq!(t.execute(last).outcome, Outcome::Hit);
    }

    #[test]
    fn reset_clears_entries_and_stats() {
        let mut t = MemoTable::new(MemoConfig::paper_default());
        t.execute(Op::FpDiv(9.0, 3.0));
        t.execute(Op::FpDiv(9.0, 3.0));
        t.reset();
        assert!(t.is_empty());
        assert_eq!(t.stats(), MemoStats::new());
        assert_eq!(t.execute(Op::FpDiv(9.0, 3.0)).outcome, Outcome::Miss);
    }

    #[test]
    fn hit_ratio_matches_paper_semantics() {
        let mut t = MemoTable::new(MemoConfig::paper_default());
        t.execute(Op::FpDiv(6.0, 1.0)); // trivial, filtered
        t.execute(Op::FpDiv(6.0, 2.0)); // miss
        t.execute(Op::FpDiv(6.0, 2.0)); // hit
        t.execute(Op::FpDiv(6.0, 2.0)); // hit
        // "non" ratio: 2 hits / 3 non-trivial lookups.
        assert!((t.hit_ratio() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn unprotected_table_serves_corrupted_values_silently() {
        use crate::fault::{FaultConfig, FaultInjector};
        let mut t = MemoTable::new(MemoConfig::paper_default())
            .with_fault_injector(FaultInjector::new(FaultConfig::single_bit(7, 1.0)));
        let op = Op::FpDiv(9.0, 7.0);
        t.execute(op); // miss, insert
        let mut corrupted = 0;
        for _ in 0..20 {
            let e = t.execute(op);
            if e.outcome == Outcome::Hit && e.value != op.compute() {
                corrupted += 1;
            }
        }
        assert!(corrupted > 0, "rate-1.0 flips must corrupt served hits");
        assert!(t.stats().faults_silent > 0);
        assert_eq!(t.stats().faults_detected, 0, "no protection: nothing detected");
    }

    #[test]
    fn parity_never_serves_single_bit_corruption() {
        use crate::fault::{FaultConfig, FaultInjector, Protection};
        let cfg =
            MemoConfig::builder(32).protection(Protection::ParityDetect).build().unwrap();
        let mut t = MemoTable::new(cfg)
            .with_fault_injector(FaultInjector::new(FaultConfig::single_bit(7, 1.0)));
        let op = Op::FpDiv(9.0, 7.0);
        for _ in 0..50 {
            let e = t.execute(op);
            assert_eq!(e.value, op.compute(), "parity must never serve a flipped value");
        }
        let s = t.stats();
        assert!(s.faults_detected > 0, "every strike is a detected parity error");
        assert_eq!(s.faults_silent, 0);
        assert_eq!(s.table_hits, 0, "every hit was downgraded to a miss");
    }

    #[test]
    fn ecc_corrects_single_flips_and_keeps_the_hit() {
        use crate::fault::{FaultConfig, FaultInjector, Protection};
        let cfg = MemoConfig::builder(32).protection(Protection::EccSecDed).build().unwrap();
        let mut t = MemoTable::new(cfg)
            .with_fault_injector(FaultInjector::new(FaultConfig::single_bit(7, 1.0)));
        let op = Op::FpDiv(9.0, 7.0);
        t.execute(op);
        for _ in 0..20 {
            let e = t.execute(op);
            assert_eq!(e.outcome, Outcome::Hit, "single flips are corrected in place");
            assert_eq!(e.value, op.compute());
        }
        let s = t.stats();
        assert_eq!(s.faults_corrected, s.faults_injected);
        assert_eq!(s.faults_silent, 0);
        assert_eq!(s.table_hits, 20);
    }

    #[test]
    fn ecc_detects_double_flips_as_misses() {
        use crate::fault::{FaultConfig, FaultInjector, Protection};
        let cfg = MemoConfig::builder(32).protection(Protection::EccSecDed).build().unwrap();
        let inj =
            FaultInjector::new(FaultConfig::single_bit(7, 1.0).with_double_fraction(1.0));
        let mut t = MemoTable::new(cfg).with_fault_injector(inj);
        let op = Op::FpDiv(9.0, 7.0);
        for _ in 0..30 {
            let e = t.execute(op);
            assert_eq!(e.value, op.compute(), "double flips must never be served");
        }
        let s = t.stats();
        assert!(s.faults_detected > 0);
        assert_eq!(s.faults_silent, 0);
    }

    #[test]
    fn verify_on_hit_catches_everything_and_charges() {
        use crate::fault::{FaultConfig, FaultInjector, Protection};
        let cfg = MemoConfig::builder(32)
            .protection(Protection::VerifyOnHit { verify_cycles: 4 })
            .build()
            .unwrap();
        assert_eq!(MemoTable::new(cfg).hit_penalty(), 4);
        let inj =
            FaultInjector::new(FaultConfig::single_bit(7, 1.0).with_double_fraction(0.5));
        let mut t = MemoTable::new(cfg).with_fault_injector(inj);
        let op = Op::FpDiv(9.0, 7.0);
        for _ in 0..30 {
            assert_eq!(t.execute(op).value, op.compute());
        }
        let s = t.stats();
        assert_eq!(s.faults_silent, 0, "verification catches every mismatch");
        assert!(s.faults_detected > 0);
    }

    #[test]
    fn stuck_at_defects_corrupt_unprotected_reads() {
        use crate::fault::{FaultConfig, FaultInjector};
        // Every slot defective: any hit reads through a stuck bit.
        let inj = FaultInjector::new(FaultConfig::disabled().with_seed(3).with_stuck_rate(1.0));
        let mut t = MemoTable::new(MemoConfig::paper_default()).with_fault_injector(inj);
        let mut corrupted = 0;
        for i in 0..16 {
            let op = Op::IntMul(0x5555_5555 + i, 0x3333_3333);
            t.execute(op);
            if t.execute(op).value != op.compute() {
                corrupted += 1;
            }
        }
        assert!(corrupted > 0, "stuck bits must show up in served values");
        assert_eq!(t.stats().faults_silent, corrupted);
    }

    #[test]
    fn tag_strikes_cause_false_misses_without_protection() {
        use crate::fault::{FaultConfig, FaultInjector};
        let inj = FaultInjector::new(FaultConfig::disabled().with_seed(11).with_tag_rate(1.0));
        let mut t = MemoTable::new(MemoConfig::paper_default()).with_fault_injector(inj);
        let op = Op::FpDiv(9.0, 7.0);
        t.execute(op);
        // The probe first strikes the only valid entry's tag, then looks up:
        // guaranteed false miss, but the served value is still correct.
        let e = t.execute(op);
        assert_eq!(e.outcome, Outcome::Miss);
        assert_eq!(e.value, op.compute());
        assert!(t.stats().faults_injected > 0);
    }

    #[test]
    fn ecc_scrubs_corrupted_tags() {
        use crate::fault::{FaultConfig, FaultInjector, Protection};
        let cfg = MemoConfig::builder(32).protection(Protection::EccSecDed).build().unwrap();
        let inj = FaultInjector::new(FaultConfig::disabled().with_seed(11).with_tag_rate(1.0));
        let mut t = MemoTable::new(cfg).with_fault_injector(inj);
        let op = Op::FpDiv(9.0, 7.0);
        t.execute(op); // insert
        t.execute(op); // strike corrupts the tag → miss (re-inserts via update? no: same set, corrupted entry + fresh insert)
        // Next probe scrubs the single-bit tag error before lookup.
        let e = t.execute(op);
        assert_eq!(e.outcome, Outcome::Hit, "scrubbed entry is reachable again");
        assert!(t.stats().faults_corrected > 0);
    }

    #[test]
    fn fault_process_is_deterministic_across_replays() {
        use crate::fault::{FaultConfig, FaultInjector};
        let cfg = MemoConfig::paper_default();
        let fc = FaultConfig::single_bit(99, 0.3).with_tag_rate(0.1);
        let run = |t: &mut MemoTable| {
            let mut bits = 0u64;
            for i in 0..200 {
                let op = Op::FpDiv(f64::from(i % 16) + 2.0, 3.0);
                bits ^= t.execute(op).value.to_bits().rotate_left(i);
            }
            (bits, t.stats())
        };
        let mut a = MemoTable::new(cfg).with_fault_injector(FaultInjector::new(fc));
        let mut b = MemoTable::new(cfg).with_fault_injector(FaultInjector::new(fc));
        assert_eq!(run(&mut a), run(&mut b));
        // reset() restarts the error process from its seed.
        a.reset();
        b.reset();
        assert_eq!(run(&mut a), run(&mut b));
    }

    /// A seeded multiplication stream over a small operand pool: reuse in
    /// both operand orders, trivial operands, and two NaN payloads.
    fn lane_stream(seed: u64, len: usize) -> (Vec<u64>, Vec<u64>) {
        use crate::rng::SplitMix64;
        const POOL: [f64; 10] = [0.0, 1.0, 2.5, -3.0, 0.75, 1.5e-300, 7.0, -0.5, 12.0, 1e300];
        let nans = [0x7FF8_0000_0000_0001u64, 0xFFF8_0000_0000_0002];
        let mut rng = SplitMix64::new(seed);
        let pick = |rng: &mut SplitMix64| match rng.next_below(12) {
            10 => nans[0],
            11 => nans[1],
            i => POOL[i as usize].to_bits(),
        };
        (0..len).map(|_| (pick(&mut rng), pick(&mut rng))).unzip()
    }

    /// Run `a`/`b` through `table` at batch width `width`, returning each
    /// lane's record. At width 1 every lane's record is also checked
    /// against the table's state: a hit names a valid slot holding the
    /// lane's key in either operand order, a fill names the slot `insert`
    /// chose (the set's first invalid way, else its LRU way), and a
    /// trivial lane names none.
    fn lane_records(table: &mut MemoTable, a: &[u64], b: &[u64], width: usize) -> Vec<LaneSlot> {
        let mut records = vec![LaneSlot::NoLookup; a.len()];
        for start in (0..a.len()).step_by(width) {
            let end = (start + width).min(a.len());
            let batch = OpBatch::new(OpKind::FpMul, &a[start..end], &b[start..end]);
            let truth: Vec<u64> =
                (0..batch.len()).map(|i| batch.op(i).compute().to_bits()).collect();
            let mut served = vec![0; batch.len()];
            // The slot an insert would take now, for a width-1 batch.
            let op = batch.op(0);
            let base = set_index(&op, table.sets, table.cfg.hash()) * table.ways;
            let ways = base..base + table.ways;
            let victim = ways.clone().find(|&s| !table.valid[s]).unwrap_or_else(|| {
                ways.clone().min_by_key(|&s| table.last_use[s]).expect("ways >= 1")
            });
            table.execute_batch_with_truth(&batch, &truth, &mut served, &mut records[start..end]);
            if width > 1 {
                continue;
            }
            let keys = [(a[start], b[start]), (b[start], a[start])]
                .map(|(x, y)| ((x as u128) << 64) | y as u128);
            match records[start] {
                LaneSlot::NoLookup => assert!(trivial_result(&op).is_some(), "lane {start}"),
                LaneSlot::Hit(s) => {
                    assert!(table.valid[s] && keys.contains(&table.tag[s]), "lane {start}");
                }
                LaneSlot::Filled(s) => {
                    assert_eq!(s, victim, "lane {start}: the fill took another slot");
                    assert_eq!(table.tag[s], keys[0], "lane {start}");
                }
            }
        }
        records
    }

    #[test]
    fn lane_records_name_the_slot_each_lane_used() {
        use crate::fault::{FaultConfig, FaultInjector};
        let cfg = MemoConfig::builder(8).assoc(Assoc::Ways(2)).build().unwrap();
        for seed in 0..8 {
            let (a, b) = lane_stream(seed, 600);
            let clean = || MemoTable::new(cfg);
            // A disabled injector keeps the table on the lane kernel, so it
            // records what a clean table records; per-lane `execute` would
            // record nothing.
            let idle = || clean().with_fault_injector(FaultInjector::new(FaultConfig::disabled()));
            let want = lane_records(&mut clean(), &a, &b, 1);
            assert_eq!(lane_records(&mut idle(), &a, &b, 1), want, "seed {seed}");
            for width in [7, 64] {
                assert_eq!(lane_records(&mut clean(), &a, &b, width), want, "seed {seed}");
                assert_eq!(lane_records(&mut idle(), &a, &b, width), want, "seed {seed}");
            }
            let count = |f: fn(&LaneSlot) -> bool| want.iter().filter(|r| f(r)).count();
            assert!(count(|r| matches!(r, LaneSlot::Hit(_))) > 0, "seed {seed}: no hit");
            assert!(count(|r| matches!(r, LaneSlot::Filled(_))) > 0, "seed {seed}: no fill");
            assert!(count(|r| *r == LaneSlot::NoLookup) > 0, "seed {seed}: no trivial");
        }
    }

    #[test]
    #[should_panic(expected = "a table with an enabled fault injector records no slots")]
    fn fault_injected_tables_record_no_slots() {
        use crate::fault::{FaultConfig, FaultInjector};
        let mut t = MemoTable::new(MemoConfig::paper_default())
            .with_fault_injector(FaultInjector::new(FaultConfig::single_bit(7, 0.5)));
        let (a, b) = lane_stream(0, 4);
        let batch = OpBatch::new(OpKind::FpMul, &a, &b);
        let truth: Vec<u64> = (0..batch.len()).map(|i| batch.op(i).compute().to_bits()).collect();
        let mut slots = [LaneSlot::NoLookup; 4];
        t.execute_batch_with_truth(&batch, &truth, &mut [0; 4], &mut slots);
    }

    #[test]
    #[should_panic(expected = "a memo table takes one fault injector")]
    fn a_second_fault_injector_is_refused() {
        use crate::fault::{FaultConfig, FaultInjector};
        // A struck table whose injector a disabled one replaced would send
        // its next batches through the lane kernel, which serves drifted
        // payloads without counting them.
        let mut t = MemoTable::new(MemoConfig::paper_default())
            .with_fault_injector(FaultInjector::new(FaultConfig::single_bit(7, 0.5)));
        let (a, b) = lane_stream(0, 200);
        t.execute_batch(&OpBatch::new(OpKind::FpMul, &a, &b));
        assert!(t.stats().faults_silent > 0, "the table was struck");
        let _ = t.with_fault_injector(FaultInjector::new(FaultConfig::disabled()));
    }

    #[test]
    fn outcome_avoided_computation() {
        assert!(Outcome::Hit.avoided_computation());
        assert!(Outcome::Trivial.avoided_computation());
        assert!(!Outcome::Filtered.avoided_computation());
        assert!(!Outcome::Miss.avoided_computation());
    }
}
