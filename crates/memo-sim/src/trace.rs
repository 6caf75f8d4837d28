//! Record-once / replay-many operand traces.
//!
//! The paper's evaluation sweeps table geometry and policy over a *fixed*
//! dynamic operand stream — Shade recorded each benchmark once and every
//! MEMO-TABLE configuration was evaluated against the same trace (§3.1).
//! Our harness originally re-executed every kernel natively per sweep
//! point; the structures here restore the paper's record-once model:
//!
//! * [`OpTrace`] — the arithmetic operand stream (the traffic MEMO-TABLEs
//!   see), stored as a structure-of-arrays buffer: run-length-encoded
//!   [`OpKind`] discriminants plus packed `u64` operand columns. No
//!   per-event allocation; ≤ 16 bytes per operation.
//! * [`TraceRecorderSink`] — an [`EventSink`] that captures the `Arith`
//!   events of a kernel run into an `OpTrace` and discards the rest.
//! * [`EventTrace`] — the *full* event stream (loads, branches, ALU ops,
//!   arithmetic) in the same SoA style, for replaying a whole instruction
//!   stream into cycle sinks. The experiments' cycle studies run their
//!   kernels natively instead of keeping one: a full stream is several
//!   times the size of its operand stream.
//!
//! Replay is exact: operands are stored as raw bit patterns
//! ([`Op::operand_bits`]) and reconstructed bit-identically, so a replayed
//! probe stream drives a [`MemoBank`] through precisely the operand values,
//! order, and kinds of the native run — hit ratios and statistics are
//! bit-identical (asserted by the equivalence tests in `memo-workloads`).

use memo_table::{Memoizer, Op, OpBatch, OpKind, MAX_BATCH_WIDTH};

use crate::bank::MemoBank;
use crate::event::{Event, EventSink};

/// One run of consecutive same-kind operations, packed into 4 bytes:
/// kind index in the top 2 bits, run length in the low 30.
#[derive(Debug, Clone, Copy)]
struct KindRun(u32);

const RUN_LEN_BITS: u32 = 30;
const MAX_RUN_LEN: u32 = (1 << RUN_LEN_BITS) - 1;

impl KindRun {
    fn new(kind: OpKind, len: u32) -> Self {
        let idx = match kind {
            OpKind::IntMul => 0u32,
            OpKind::FpMul => 1,
            OpKind::FpDiv => 2,
            OpKind::FpSqrt => 3,
        };
        KindRun(idx << RUN_LEN_BITS | len)
    }

    fn kind(self) -> OpKind {
        match self.0 >> RUN_LEN_BITS {
            0 => OpKind::IntMul,
            1 => OpKind::FpMul,
            2 => OpKind::FpDiv,
            _ => OpKind::FpSqrt,
        }
    }

    fn len(self) -> u32 {
        self.0 & MAX_RUN_LEN
    }
}

/// A compact structure-of-arrays trace of the arithmetic operand stream.
///
/// Layout: kinds are run-length encoded (`KindRun`), first operands live in
/// column `a`, second operands of binary operations in column `b` (square
/// root consumes only `a`). Binary operations therefore cost 16 bytes,
/// square roots 8, plus a few bytes amortized over each kind run.
#[derive(Debug, Clone, Default)]
pub struct OpTrace {
    runs: Vec<KindRun>,
    a: Vec<u64>,
    b: Vec<u64>,
    len: usize,
}

impl OpTrace {
    /// An empty trace.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one operation.
    pub fn push(&mut self, op: Op) {
        let kind = op.kind();
        let (a, b) = op.operand_bits();
        self.a.push(a);
        if kind != OpKind::FpSqrt {
            self.b.push(b);
        }
        match self.runs.last_mut() {
            Some(run) if run.kind() == kind && run.len() < MAX_RUN_LEN => run.0 += 1,
            _ => self.runs.push(KindRun::new(kind, 1)),
        }
        self.len += 1;
    }

    /// Number of recorded operations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of recorded operations of `kind`.
    #[must_use]
    pub fn count(&self, kind: OpKind) -> usize {
        self.runs.iter().filter(|r| r.kind() == kind).map(|r| r.len() as usize).sum()
    }

    /// Approximate heap footprint in bytes (operand columns + run index).
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        self.a.len() * 8 + self.b.len() * 8 + self.runs.len() * std::mem::size_of::<KindRun>()
    }

    /// Iterate the operations in recorded order, reconstructed bit-exactly.
    pub fn iter(&self) -> OpIter<'_> {
        OpIter { cursor: RunCursor::new(self), current: None, lane: 0, remaining: self.len }
    }

    /// The trace as a contiguous operation list (for consumers that need a
    /// slice, e.g. the divider-farm comparison).
    #[must_use]
    pub fn to_ops(&self) -> Vec<Op> {
        let mut ops = Vec::with_capacity(self.len());
        ops.extend(self.iter());
        ops
    }

    /// Replay every operation into `bank`, exactly as
    /// [`MemoBank::execute`] would see them from a native run.
    ///
    /// Operations flow through the batched path ([`MemoBank::execute_batch`])
    /// in [`MAX_BATCH_WIDTH`]-lane tiles — bit-identical statistics to
    /// [`replay_scalar`](Self::replay_scalar), faster on the paper-default
    /// tables.
    pub fn replay(&self, bank: &mut MemoBank) {
        self.replay_batched(bank, MAX_BATCH_WIDTH);
    }

    /// Batched replay at an explicit tile width: every warp of
    /// [`for_each_warp`](Self::for_each_warp) goes to
    /// [`MemoBank::execute_batch`].
    pub fn replay_batched(&self, bank: &mut MemoBank, width: usize) {
        self.for_each_warp(width, |warp| {
            bank.execute_batch(warp);
        });
    }

    /// Visit the trace as *warps*: same-kind operand tiles of `width`
    /// lanes (clamped to `1..=`[`MAX_BATCH_WIDTH`]).
    ///
    /// Same-kind lanes are gathered across RLE run boundaries into
    /// per-kind pending buffers and flushed as full-width tiles (short
    /// interleaved runs — the common shape of per-pixel kernels — would
    /// otherwise produce one- and two-lane tiles whose setup cost erases
    /// the batching win). Each kind's lanes arrive in recorded order, so a
    /// consumer that keeps one independent table per [`OpKind`] sees
    /// exactly the per-table operand order of a scalar walk and every
    /// statistic stays bit-identical to [`replay_scalar`](Self::replay_scalar);
    /// only the interleaving *between* kinds changes. Partial warps left
    /// at the end of the trace flush in [`OpKind::ALL`] order. Long runs
    /// still stream zero-copy: whole-width tiles are sliced straight from
    /// the operand columns and only run tails touch the gather buffers.
    pub fn for_each_warp(&self, width: usize, f: impl FnMut(&OpBatch<'_>)) {
        self.gather_warps(width, |_| true, f);
    }

    /// The warp-gathering loop behind [`for_each_warp`](Self::for_each_warp)
    /// and [`for_each_kind_batch`](Self::for_each_kind_batch). Runs whose
    /// kind `keep` rejects are skipped without touching their operands.
    fn gather_warps(
        &self,
        width: usize,
        keep: impl Fn(OpKind) -> bool,
        mut f: impl FnMut(&OpBatch<'_>),
    ) {
        let width = width.clamp(1, MAX_BATCH_WIDTH);
        let mut pend_a = [[0u64; MAX_BATCH_WIDTH]; 4];
        let mut pend_b = [[0u64; MAX_BATCH_WIDTH]; 4];
        let mut fill = [0usize; 4];
        let lane = |kind: OpKind| kind as usize;

        let mut cursor = RunCursor::new(self);
        while let Some(run) = cursor.next_run() {
            let kind = run.kind();
            if !keep(kind) {
                continue;
            }
            let k = lane(kind);
            let unary = kind == OpKind::FpSqrt;
            let (ra, rb) = (run.a(), run.b());
            let n = run.len();
            let mut start = 0usize;

            // Top up a pending warp before streaming whole tiles.
            if fill[k] > 0 {
                let take = (width - fill[k]).min(n);
                pend_a[k][fill[k]..fill[k] + take].copy_from_slice(&ra[..take]);
                if !unary {
                    pend_b[k][fill[k]..fill[k] + take].copy_from_slice(&rb[..take]);
                }
                fill[k] += take;
                start = take;
                if fill[k] < width {
                    continue; // run exhausted; warp still filling
                }
                let b = if unary { &[][..] } else { &pend_b[k][..width] };
                f(&OpBatch::new(kind, &pend_a[k][..width], b));
                fill[k] = 0;
            }
            while n - start >= width {
                f(&run.slice(start, width));
                start += width;
            }
            let rem = n - start;
            if rem > 0 {
                pend_a[k][..rem].copy_from_slice(&ra[start..]);
                if !unary {
                    pend_b[k][..rem].copy_from_slice(&rb[start..]);
                }
                fill[k] = rem;
            }
        }
        for kind in OpKind::ALL {
            let k = lane(kind);
            if fill[k] > 0 {
                let b = if kind == OpKind::FpSqrt { &[][..] } else { &pend_b[k][..fill[k]] };
                f(&OpBatch::new(kind, &pend_a[k][..fill[k]], b));
            }
        }
    }

    /// Scalar per-op replay — the oracle the batched path is property-tested
    /// against, and the baseline the `trace_replay` bench measures it over.
    pub fn replay_scalar(&self, bank: &mut MemoBank) {
        self.for_each(|op| {
            bank.execute(op);
        });
    }

    /// Replay only the operations of `kind` into a single memoizer — the
    /// per-unit sweep used by the size/associativity figures. Batched, like
    /// [`replay`](Self::replay).
    pub fn replay_kind<M: Memoizer>(&self, kind: OpKind, table: &mut M) {
        self.for_each_kind_batch(kind, MAX_BATCH_WIDTH, |tile| {
            table.execute_batch(tile);
        });
    }

    /// Visit the operations of `kind` in recorded order, decoded through
    /// the shared run cursor.
    pub fn for_each_kind(&self, kind: OpKind, mut f: impl FnMut(Op)) {
        let mut cursor = RunCursor::new(self);
        while let Some(run) = cursor.next_run() {
            if run.kind() == kind {
                decode_run(kind, run.a(), run.b(), &mut f);
            }
        }
    }

    /// Visit the trace as same-kind operand tiles of at most `width` lanes.
    ///
    /// Each RLE run is expanded **once** into its structure-of-arrays
    /// operand slices and then chunked; tiles never cross run boundaries,
    /// so the final tile of a run may be partial (down to a single lane).
    /// A zero `width` is treated as 1.
    pub fn for_each_batch(&self, width: usize, mut f: impl FnMut(&OpBatch<'_>)) {
        let width = width.max(1);
        let mut cursor = RunCursor::new(self);
        while let Some(run) = cursor.next_run() {
            let n = run.len();
            let mut start = 0;
            while start < n {
                let w = width.min(n - start);
                f(&run.slice(start, w));
                start += w;
            }
        }
    }

    /// Visit only the operations of `kind` as operand tiles of exactly
    /// `width` lanes (clamped to [`MAX_BATCH_WIDTH`]; only the final tile
    /// may be shorter): the warps of [`for_each_warp`](Self::for_each_warp)
    /// of that kind. Runs of other kinds are skipped by the run index
    /// without decoding their operands.
    pub fn for_each_kind_batch(&self, kind: OpKind, width: usize, f: impl FnMut(&OpBatch<'_>)) {
        self.gather_warps(width, |k| k == kind, f);
    }

    /// Replay the trace as [`Event::Arith`] events into an arbitrary sink
    /// (e.g. the fault-tolerance differential checker). Tiled through
    /// [`EventSink::record_arith_batch`] so batching-aware sinks (the cycle
    /// accountant) charge per run, while plain sinks see the usual per-op
    /// `record` calls via the trait default.
    pub fn replay_events<S: EventSink>(&self, sink: &mut S) {
        self.for_each_batch(MAX_BATCH_WIDTH, |tile| sink.record_arith_batch(tile));
    }

    fn for_each(&self, mut f: impl FnMut(Op)) {
        let mut cursor = RunCursor::new(self);
        while let Some(run) = cursor.next_run() {
            decode_run(run.kind(), run.a(), run.b(), &mut f);
        }
    }
}

/// Shared RLE decoder over an [`OpTrace`]: resolves one kind run at a time
/// into its structure-of-arrays operand slices.
///
/// Every consumer — the batch visitors, the scalar [`OpIter`], `for_each`
/// — draws whole runs from this cursor, so run expansion (kind decode and
/// operand-column slicing) happens once per *run*, not once per operation.
#[derive(Debug, Clone)]
struct RunCursor<'a> {
    trace: &'a OpTrace,
    run: usize,
    ai: usize,
    bi: usize,
}

impl<'a> RunCursor<'a> {
    fn new(trace: &'a OpTrace) -> Self {
        RunCursor { trace, run: 0, ai: 0, bi: 0 }
    }

    /// Decode the next run into a whole-run operand batch (zero copies —
    /// the batch borrows the trace's columns).
    fn next_run(&mut self) -> Option<OpBatch<'a>> {
        let run = self.trace.runs.get(self.run)?;
        self.run += 1;
        let kind = run.kind();
        let n = run.len() as usize;
        let a = &self.trace.a[self.ai..self.ai + n];
        self.ai += n;
        let b = if kind == OpKind::FpSqrt {
            &[][..]
        } else {
            let b = &self.trace.b[self.bi..self.bi + n];
            self.bi += n;
            b
        };
        Some(OpBatch::new(kind, a, b))
    }
}

/// Why [`OpTrace::from_bytes`] rejected a buffer. Callers treat any
/// variant as "not a usable trace" and fall back to native recording.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceDecodeError {
    /// The magic bytes do not mark an `OpTrace`.
    WrongMagic,
    /// The version tag is not the one this build encodes — the format
    /// changed, so the trace must be re-recorded, not reinterpreted.
    WrongVersion {
        /// The version found in the header.
        found: u16,
    },
    /// The buffer is shorter than its own headers claim.
    Truncated,
    /// The decoded structure is internally inconsistent (run lengths do
    /// not sum to the operation count, or operand columns are missized).
    Inconsistent,
}

impl std::fmt::Display for TraceDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceDecodeError::WrongMagic => write!(f, "not an OpTrace blob"),
            TraceDecodeError::WrongVersion { found } => {
                write!(f, "OpTrace format v{found} (this build reads v{OP_TRACE_VERSION})")
            }
            TraceDecodeError::Truncated => write!(f, "OpTrace blob truncated"),
            TraceDecodeError::Inconsistent => write!(f, "OpTrace blob internally inconsistent"),
        }
    }
}

impl std::error::Error for TraceDecodeError {}

/// Serialization format version written by [`OpTrace::to_bytes`]. Bump on
/// any layout change so stale persisted traces invalidate cleanly.
pub const OP_TRACE_VERSION: u16 = 1;

const OP_TRACE_MAGIC: &[u8; 4] = b"MTRV";

impl OpTrace {
    /// Serialize to a self-describing byte buffer: magic, version tag,
    /// then the SoA columns verbatim (RLE kind runs, operand columns).
    /// The encoding is little-endian and platform-independent.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(26 + self.runs.len() * 4 + (self.a.len() + self.b.len()) * 8);
        out.extend_from_slice(OP_TRACE_MAGIC);
        out.extend_from_slice(&OP_TRACE_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.len as u64).to_le_bytes());
        out.extend_from_slice(&(u32::try_from(self.runs.len()).expect("runs fit u32")).to_le_bytes());
        out.extend_from_slice(&(u32::try_from(self.a.len()).expect("column fits u32")).to_le_bytes());
        out.extend_from_slice(&(u32::try_from(self.b.len()).expect("column fits u32")).to_le_bytes());
        for run in &self.runs {
            out.extend_from_slice(&run.0.to_le_bytes());
        }
        for &a in &self.a {
            out.extend_from_slice(&a.to_le_bytes());
        }
        for &b in &self.b {
            out.extend_from_slice(&b.to_le_bytes());
        }
        out
    }

    /// Deserialize a buffer produced by [`to_bytes`](Self::to_bytes),
    /// validating the version tag and the structural invariants (run
    /// lengths sum to the operation count, operand columns are exactly
    /// the sizes the runs imply).
    ///
    /// # Errors
    ///
    /// [`TraceDecodeError`] on any mismatch — treat as "record natively".
    pub fn from_bytes(bytes: &[u8]) -> Result<OpTrace, TraceDecodeError> {
        if bytes.len() < 6 {
            return Err(TraceDecodeError::Truncated);
        }
        if &bytes[..4] != OP_TRACE_MAGIC {
            return Err(TraceDecodeError::WrongMagic);
        }
        let version = u16::from_le_bytes(bytes[4..6].try_into().expect("2 bytes"));
        if version != OP_TRACE_VERSION {
            return Err(TraceDecodeError::WrongVersion { found: version });
        }
        let rest = &bytes[6..];
        if rest.len() < 20 {
            return Err(TraceDecodeError::Truncated);
        }
        let len = u64::from_le_bytes(rest[..8].try_into().expect("8 bytes"));
        let len = usize::try_from(len).map_err(|_| TraceDecodeError::Inconsistent)?;
        let nruns = u32::from_le_bytes(rest[8..12].try_into().expect("4 bytes")) as usize;
        let na = u32::from_le_bytes(rest[12..16].try_into().expect("4 bytes")) as usize;
        let nb = u32::from_le_bytes(rest[16..20].try_into().expect("4 bytes")) as usize;
        let body = &rest[20..];
        let need = nruns
            .checked_mul(4)
            .and_then(|r| (na + nb).checked_mul(8).map(|c| (r, c)))
            .and_then(|(r, c)| r.checked_add(c))
            .ok_or(TraceDecodeError::Inconsistent)?;
        if body.len() != need {
            return Err(TraceDecodeError::Truncated);
        }
        let runs: Vec<KindRun> = body[..nruns * 4]
            .chunks_exact(4)
            .map(|c| KindRun(u32::from_le_bytes(c.try_into().expect("4 bytes"))))
            .collect();
        let a: Vec<u64> = body[nruns * 4..nruns * 4 + na * 8]
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
            .collect();
        let b: Vec<u64> = body[nruns * 4 + na * 8..]
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
            .collect();
        // Structural invariants: run lengths sum to `len`, column sizes
        // are exactly what the runs imply (sqrt consumes only column a).
        let mut total = 0usize;
        let mut binary = 0usize;
        for run in &runs {
            let n = run.len() as usize;
            if n == 0 {
                return Err(TraceDecodeError::Inconsistent);
            }
            total += n;
            if run.kind() != OpKind::FpSqrt {
                binary += n;
            }
        }
        if total != len || a.len() != len || b.len() != binary {
            return Err(TraceDecodeError::Inconsistent);
        }
        Ok(OpTrace { runs, a, b, len })
    }
}

/// Decode one same-kind run from its operand slices. The kind match is
/// hoisted out of the operand loop and the zipped slices elide the
/// per-operand bounds checks of indexed decoding.
#[inline]
fn decode_run(kind: OpKind, a: &[u64], b: &[u64], f: &mut impl FnMut(Op)) {
    match kind {
        OpKind::IntMul => {
            for (&a, &b) in a.iter().zip(b) {
                f(Op::IntMul(a as i64, b as i64));
            }
        }
        OpKind::FpMul => {
            for (&a, &b) in a.iter().zip(b) {
                f(Op::FpMul(f64::from_bits(a), f64::from_bits(b)));
            }
        }
        OpKind::FpDiv => {
            for (&a, &b) in a.iter().zip(b) {
                f(Op::FpDiv(f64::from_bits(a), f64::from_bits(b)));
            }
        }
        OpKind::FpSqrt => {
            for &a in a {
                f(Op::FpSqrt(f64::from_bits(a)));
            }
        }
    }
}

/// Iterator over the operations of an [`OpTrace`].
///
/// A thin wrapper over the shared [`RunCursor`]: each RLE run is expanded
/// into operand slices once (the same decode the batch visitors use) and
/// lanes are then rebuilt by slice index — the per-op `next()` no longer
/// carries run-state bookkeeping.
#[derive(Debug)]
pub struct OpIter<'a> {
    cursor: RunCursor<'a>,
    /// The run currently being yielded; lanes `< lane` are consumed.
    current: Option<OpBatch<'a>>,
    lane: usize,
    remaining: usize,
}

impl Iterator for OpIter<'_> {
    type Item = Op;

    #[inline]
    fn next(&mut self) -> Option<Op> {
        loop {
            if let Some(run) = &self.current {
                if self.lane < run.len() {
                    let op = run.op(self.lane);
                    self.lane += 1;
                    self.remaining -= 1;
                    return Some(op);
                }
            }
            self.current = Some(self.cursor.next_run()?);
            self.lane = 0;
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for OpIter<'_> {}

/// Records the arithmetic operand stream of a kernel run; every other
/// event is discarded. Use [`EventTrace`] when the full stream matters.
#[derive(Debug, Clone, Default)]
pub struct TraceRecorderSink {
    trace: OpTrace,
}

impl TraceRecorderSink {
    /// A recorder with an empty trace.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Finish recording and take the trace.
    #[must_use]
    pub fn into_trace(self) -> OpTrace {
        self.trace
    }

    /// The trace recorded so far.
    #[must_use]
    pub fn trace(&self) -> &OpTrace {
        &self.trace
    }
}

impl EventSink for TraceRecorderSink {
    fn record(&mut self, event: Event) {
        if let Event::Arith(op) = event {
            self.trace.push(op);
        }
    }
}

/// Event-class discriminant for [`EventTrace`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EvClass {
    IntAlu,
    FpAdd,
    Branch,
    Annulled,
    Load,
    Store,
    Arith(OpKind),
}

impl EvClass {
    fn of(event: &Event) -> Self {
        match event {
            Event::IntAlu => EvClass::IntAlu,
            Event::FpAdd => EvClass::FpAdd,
            Event::Branch => EvClass::Branch,
            Event::Annulled => EvClass::Annulled,
            Event::Load(_) => EvClass::Load,
            Event::Store(_) => EvClass::Store,
            Event::Arith(op) => EvClass::Arith(op.kind()),
        }
    }

    /// `u64` payload words one event of this class consumes.
    fn payload_words(self) -> usize {
        match self {
            EvClass::IntAlu | EvClass::FpAdd | EvClass::Branch | EvClass::Annulled => 0,
            EvClass::Load | EvClass::Store | EvClass::Arith(OpKind::FpSqrt) => 1,
            EvClass::Arith(_) => 2,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct EvRun {
    class: EvClass,
    len: u32,
}

/// The complete dynamic event stream of one kernel run, in SoA form.
///
/// Cycle accounting needs loads, branches, and the instruction mix — not
/// just the arithmetic traffic. `EventTrace` records the full stream once
/// and replays it into any number of [`EventSink`]s (cycle accountants
/// with different CPU profiles, banks with different protection
/// policies) without re-running the kernel. The price is memory: the
/// nine Table 11–13 applications come to 56.2 M events and 536 MB at
/// default scale, so the experiments run those kernels natively into
/// their sinks instead (the [`crate::CycleAccountant`] batches its own
/// arithmetic either way).
///
/// Payload-free events (ALU ops, branches, FP adds, annulled slots) cost
/// only their share of a run header; loads/stores and square roots cost
/// 8 bytes; binary arithmetic costs 16.
#[derive(Debug, Clone, Default)]
pub struct EventTrace {
    runs: Vec<EvRun>,
    payload: Vec<u64>,
    len: usize,
}

impl EventTrace {
    /// An empty trace.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of recorded events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Approximate heap footprint in bytes.
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        self.payload.len() * 8 + self.runs.len() * std::mem::size_of::<EvRun>()
    }

    /// Replay the stream into `sink`, reconstructing each event
    /// bit-identically in recorded order.
    ///
    /// Payload-free runs go through [`EventSink::record_repeated`] and
    /// arithmetic runs through [`EventSink::record_arith_batch`] in
    /// [`MAX_BATCH_WIDTH`]-lane tiles, so batching-aware sinks (the cycle
    /// accountant) charge whole runs at once; sinks relying on the trait
    /// defaults observe exactly the historical per-event `record` calls.
    pub fn replay_into<S: EventSink>(&self, sink: &mut S) {
        let width = MAX_BATCH_WIDTH;
        let mut pi = 0usize;
        for run in &self.runs {
            let n = run.len as usize;
            match run.class {
                EvClass::IntAlu => sink.record_repeated(Event::IntAlu, n as u64),
                EvClass::FpAdd => sink.record_repeated(Event::FpAdd, n as u64),
                EvClass::Branch => sink.record_repeated(Event::Branch, n as u64),
                EvClass::Annulled => sink.record_repeated(Event::Annulled, n as u64),
                EvClass::Load => {
                    for i in 0..n {
                        sink.record(Event::Load(self.payload[pi + i]));
                    }
                    pi += n;
                }
                EvClass::Store => {
                    for i in 0..n {
                        sink.record(Event::Store(self.payload[pi + i]));
                    }
                    pi += n;
                }
                EvClass::Arith(OpKind::FpSqrt) => {
                    // The payload already *is* the contiguous `a` column.
                    let col = &self.payload[pi..pi + n];
                    let mut start = 0;
                    while start < n {
                        let w = width.min(n - start);
                        sink.record_arith_batch(&OpBatch::new(
                            OpKind::FpSqrt,
                            &col[start..start + w],
                            &[],
                        ));
                        start += w;
                    }
                    pi += n;
                }
                EvClass::Arith(kind) => {
                    // Binary payload is interleaved `[a, b, a, b, …]`:
                    // gather it into stack lane tiles.
                    let mut a = [0u64; MAX_BATCH_WIDTH];
                    let mut b = [0u64; MAX_BATCH_WIDTH];
                    let mut start = 0;
                    while start < n {
                        let w = width.min(n - start);
                        for i in 0..w {
                            a[i] = self.payload[pi + (start + i) * 2];
                            b[i] = self.payload[pi + (start + i) * 2 + 1];
                        }
                        sink.record_arith_batch(&OpBatch::new(kind, &a[..w], &b[..w]));
                        start += w;
                    }
                    pi += n * EvClass::Arith(kind).payload_words();
                }
            }
        }
    }
}

impl EventSink for EventTrace {
    fn record(&mut self, event: Event) {
        let class = EvClass::of(&event);
        match event {
            Event::Load(addr) | Event::Store(addr) => self.payload.push(addr),
            Event::Arith(op) => {
                let (a, b) = op.operand_bits();
                self.payload.push(a);
                if op.kind() != OpKind::FpSqrt {
                    self.payload.push(b);
                }
            }
            _ => {}
        }
        match self.runs.last_mut() {
            Some(run) if run.class == class && run.len < u32::MAX => run.len += 1,
            _ => self.runs.push(EvRun { class, len: 1 }),
        }
        self.len += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{CountingSink, TraceBuffer};
    use memo_table::{MemoConfig, MemoTable};

    fn sample_ops() -> Vec<Op> {
        vec![
            Op::FpDiv(355.0, 113.0),
            Op::FpDiv(355.0, 113.0),
            Op::FpMul(1.5, -0.0),
            Op::IntMul(-7, 6),
            Op::IntMul(i64::MIN, -1),
            Op::FpSqrt(2.0),
            Op::FpMul(f64::NAN, 1.0),
            Op::FpDiv(1.0, 0.0),
        ]
    }

    #[test]
    fn roundtrips_ops_bit_exactly() {
        let mut trace = OpTrace::new();
        for &op in &sample_ops() {
            trace.push(op);
        }
        assert_eq!(trace.len(), 8);
        let back = trace.to_ops();
        for (orig, got) in sample_ops().iter().zip(&back) {
            assert_eq!(orig.kind(), got.kind());
            assert_eq!(orig.operand_bits(), got.operand_bits());
        }
    }

    #[test]
    fn recorder_keeps_only_arith() {
        let mut rec = TraceRecorderSink::new();
        let _ = rec.fdiv(10.0, 4.0);
        rec.load(0x40);
        rec.branch();
        let _ = rec.imul(3, 4);
        rec.int_ops(5);
        let trace = rec.into_trace();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.count(OpKind::FpDiv), 1);
        assert_eq!(trace.count(OpKind::IntMul), 1);
    }

    #[test]
    fn replay_matches_native_bank_stats() {
        let ops = sample_ops();
        let mut native = MemoBank::paper_default();
        let mut trace = OpTrace::new();
        for &op in &ops {
            native.execute(op);
            trace.push(op);
        }
        let mut replayed = MemoBank::paper_default();
        trace.replay(&mut replayed);
        for kind in OpKind::ALL {
            assert_eq!(native.stats(kind), replayed.stats(kind), "{kind}");
        }
    }

    #[test]
    fn replay_kind_filters() {
        let mut trace = OpTrace::new();
        for &op in &sample_ops() {
            trace.push(op);
        }
        let mut table = MemoTable::new(MemoConfig::paper_default());
        trace.replay_kind(OpKind::FpDiv, &mut table);
        assert_eq!(table.stats().ops_seen, 3);
    }

    #[test]
    fn memory_bound_is_16_bytes_per_op() {
        // Kernel inner loops emit bursts of same-kind operations; the run
        // index amortizes to well under a byte per op.
        let mut trace = OpTrace::new();
        for burst in 0..200i64 {
            for i in 0..64 {
                trace.push(Op::IntMul(burst, i));
            }
            for i in 0..64 {
                trace.push(Op::FpMul(burst as f64, i as f64));
            }
        }
        let per_op = trace.approx_bytes() as f64 / trace.len() as f64;
        assert!(per_op <= 16.1, "got {per_op} bytes/op");
    }

    #[test]
    fn event_trace_replays_full_stream() {
        let mut native = TraceBuffer::new();
        let mut trace = EventTrace::new();
        for sink in [&mut native as &mut dyn EventSink, &mut trace as &mut dyn EventSink] {
            let _ = sink.fmul(2.0, 3.0);
            sink.load(0x100);
            sink.int_ops(4);
            sink.branch();
            let _ = sink.fsqrt(2.0);
            sink.store(0x200);
            sink.annulled();
            let _ = sink.fadd(1.0, 1.0);
            let _ = sink.imul(5, 9);
        }
        assert_eq!(trace.len(), native.len());

        let mut replayed = TraceBuffer::new();
        trace.replay_into(&mut replayed);
        assert_eq!(replayed.events(), native.events());

        let mut mix = CountingSink::new();
        trace.replay_into(&mut mix);
        assert_eq!(mix.mix().int_alu, 4);
        assert_eq!(mix.mix().loads, 1);
        assert_eq!(mix.mix().fp_sqrt, 1);
    }

    #[test]
    fn serialization_roundtrips_bit_exactly() {
        let mut trace = OpTrace::new();
        for &op in &sample_ops() {
            trace.push(op);
        }
        let bytes = trace.to_bytes();
        let back = OpTrace::from_bytes(&bytes).unwrap();
        assert_eq!(back.len(), trace.len());
        for (orig, got) in trace.iter().zip(back.iter()) {
            assert_eq!(orig.kind(), got.kind());
            assert_eq!(orig.operand_bits(), got.operand_bits());
        }
        // Replay equivalence: the decoded trace drives a bank identically.
        let mut native = MemoBank::paper_default();
        trace.replay(&mut native);
        let mut decoded = MemoBank::paper_default();
        back.replay(&mut decoded);
        for kind in OpKind::ALL {
            assert_eq!(native.stats(kind), decoded.stats(kind), "{kind}");
        }
        // Empty trace roundtrips too.
        let empty = OpTrace::from_bytes(&OpTrace::new().to_bytes()).unwrap();
        assert!(empty.is_empty());
    }

    #[test]
    fn deserialization_rejects_damage() {
        let mut trace = OpTrace::new();
        for &op in &sample_ops() {
            trace.push(op);
        }
        let bytes = trace.to_bytes();
        assert!(matches!(OpTrace::from_bytes(b"xx"), Err(TraceDecodeError::Truncated)));
        assert!(matches!(OpTrace::from_bytes(b"NOPE\x01\x00"), Err(TraceDecodeError::WrongMagic)));
        let mut wrong_version = bytes.clone();
        wrong_version[4] = 9;
        assert!(matches!(
            OpTrace::from_bytes(&wrong_version),
            Err(TraceDecodeError::WrongVersion { found: 9 })
        ));
        assert!(matches!(
            OpTrace::from_bytes(&bytes[..bytes.len() - 1]),
            Err(TraceDecodeError::Truncated)
        ));
        // Corrupt the op count so runs no longer sum to it.
        let mut inconsistent = bytes.clone();
        inconsistent[6] ^= 0x01;
        assert!(matches!(
            OpTrace::from_bytes(&inconsistent),
            Err(TraceDecodeError::Inconsistent)
        ));
    }

    #[test]
    fn op_iter_is_exact_size() {
        let mut trace = OpTrace::new();
        for &op in &sample_ops() {
            trace.push(op);
        }
        let mut iter = trace.iter();
        assert_eq!(iter.len(), 8);
        iter.next();
        assert_eq!(iter.len(), 7);
        assert_eq!(iter.count(), 7);
    }
}
