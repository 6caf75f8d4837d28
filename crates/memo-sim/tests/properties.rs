//! Property-style tests for the simulation substrate: cache invariants and
//! cycle-accounting conservation laws, driven by deterministic SplitMix64
//! streams (the repo builds offline, so no proptest).

use memo_sim::{
    amdahl, Cache, CacheConfig, CpuModel, CycleAccountant, CycleBreakdown, Event, EventSink,
    EventTrace, InstrMix, MemoBank, MemoryHierarchy,
};
use memo_table::rng::SplitMix64;
use memo_table::{
    FaultConfig, FaultInjector, MemoConfig, MemoTable, Op, OpBatch, OpKind, Outcome, Protection,
    TrivialPolicy, MAX_BATCH_WIDTH,
};

fn arb_addr(r: &mut SplitMix64) -> u64 {
    // A few KB of hot area plus occasional far misses.
    let a = if r.next_below(5) < 4 { r.next_below(4096) } else { r.next_below(1_000_000) };
    a & !7
}

fn arb_addrs(r: &mut SplitMix64) -> Vec<u64> {
    let n = 1 + r.next_below(500) as usize;
    (0..n).map(|_| arb_addr(r)).collect()
}

fn arb_event(r: &mut SplitMix64) -> Event {
    match r.next_below(9) {
        0 => Event::IntAlu,
        1 => Event::FpAdd,
        2 => Event::Branch,
        3 => Event::Annulled,
        4 => Event::Load(arb_addr(r)),
        5 => Event::Store(arb_addr(r)),
        6 => Event::Arith(Op::IntMul(r.next_below(32) as i64, r.next_below(32) as i64)),
        7 => Event::Arith(Op::FpMul(r.next_below(32) as f64, 1.0 + r.next_below(15) as f64)),
        _ => Event::Arith(Op::FpDiv(r.next_below(32) as f64, 1.0 + r.next_below(15) as f64)),
    }
}

const ROUNDS: u64 = 32;

/// LRU caches obey the inclusion property in associativity: with the
/// same set count, more ways never lose hits.
#[test]
fn cache_inclusion_in_ways() {
    for seed in 0..ROUNDS {
        let mut r = SplitMix64::new(seed).split("inclusion");
        let mut small = Cache::new(CacheConfig { size_bytes: 1024, line_bytes: 32, ways: 1 });
        let mut large = Cache::new(CacheConfig { size_bytes: 2048, line_bytes: 32, ways: 2 });
        for a in arb_addrs(&mut r) {
            small.access(a);
            large.access(a);
        }
        assert!(large.stats().hits >= small.stats().hits);
    }
}

/// Basic cache bookkeeping holds for any address stream.
#[test]
fn cache_stats_are_consistent() {
    for seed in 0..ROUNDS {
        let mut r = SplitMix64::new(seed).split("cache-stats");
        let mut cache = Cache::new(CacheConfig { size_bytes: 4096, line_bytes: 64, ways: 4 });
        let addrs = arb_addrs(&mut r);
        for &a in &addrs {
            cache.access(a);
        }
        let s = cache.stats();
        assert_eq!(s.accesses, addrs.len() as u64);
        assert!(s.hits <= s.accesses);
        assert!((0.0..=1.0).contains(&s.hit_ratio()));
    }
}

/// Hierarchy invariant: the L2 sees exactly the L1's misses, and every
/// access costs at least the L1 hit time.
#[test]
fn hierarchy_charges_are_layered() {
    for seed in 0..ROUNDS {
        let mut r = SplitMix64::new(seed).split("hierarchy");
        let mut m = MemoryHierarchy::typical_1997();
        for a in arb_addrs(&mut r) {
            let cycles = m.access(a);
            assert!(cycles == 1 || cycles == 7 || cycles == 37, "cycles {cycles}");
        }
        assert_eq!(m.l2_stats().accesses, m.l1_stats().misses());
    }
}

/// Conservation laws of the one-pass accountant: the memoized machine
/// never spends more cycles than the baseline, memory costs are
/// identical on both, and removing the bank collapses the two.
#[test]
fn accountant_conservation() {
    for seed in 0..ROUNDS {
        let mut r = SplitMix64::new(seed).split("accountant");
        let events: Vec<Event> =
            (0..1 + r.next_below(500)).map(|_| arb_event(&mut r)).collect();
        let mut with_bank = CycleAccountant::new(
            CpuModel::paper_slow(),
            MemoryHierarchy::typical_1997(),
            MemoBank::paper_default(),
        );
        let mut without = CycleAccountant::new(
            CpuModel::paper_slow(),
            MemoryHierarchy::typical_1997(),
            MemoBank::none(),
        );
        for &e in &events {
            with_bank.record(e);
            without.record(e);
        }
        let rb = with_bank.report();
        let rn = without.report();
        assert!(rb.memoized().total() <= rb.baseline().total());
        assert_eq!(rb.baseline().memory, rb.memoized().memory);
        assert_eq!(rb.baseline(), rn.baseline(), "baseline is bank-independent");
        assert_eq!(rn.baseline(), rn.memoized(), "no bank: machines coincide");
        assert!(rb.speedup_measured() >= 1.0 - 1e-12);
        assert_eq!(rb.mix().total(), events.len() as u64);
    }
}

/// Amdahl arithmetic: speedup is monotone in SE and bounded by the
/// serial fraction.
#[test]
fn amdahl_bounds() {
    for seed in 0..ROUNDS * 4 {
        let mut r = SplitMix64::new(seed).split("amdahl");
        let fe = r.next_f64();
        let se = 1.0 + 99.0 * r.next_f64();
        let s = amdahl::speedup(fe, se);
        assert!(s >= 1.0 - 1e-12);
        assert!(s <= 1.0 / (1.0 - fe) + 1e-9);
        let s_bigger = amdahl::speedup(fe, se * 2.0);
        assert!(s_bigger + 1e-12 >= s);
        // Unit enhancement: identity.
        assert!((amdahl::speedup(fe, 1.0) - 1.0).abs() < 1e-12);
    }
}

/// One step of a random instruction stream: a single event, a run of
/// identical payload-free events (the way kernels emit ALU work), or a
/// short same-kind arithmetic tile handed over whole.
#[derive(Clone)]
enum Step {
    One(Event),
    Run(Event, u64),
    Tile(OpKind, Vec<u64>, Vec<u64>),
}

/// Operands from small pools, so every kind reuses pairs (hits), swaps
/// them (commutative hits) and now and then issues a trivial operation.
fn arb_step(r: &mut SplitMix64) -> Step {
    let small = |r: &mut SplitMix64| r.next_below(12) as i64 - 1;
    let fp = |r: &mut SplitMix64| f64::from(r.next_below(12) as u32) * 0.5;
    match r.next_below(12) {
        0 => Step::Run(Event::IntAlu, 1 + r.next_below(6)),
        1 => Step::Run(Event::FpAdd, 1 + r.next_below(3)),
        2 => Step::One(Event::Branch),
        3 => Step::One(Event::Annulled),
        4 => Step::One(Event::Load(arb_addr(r))),
        5 => Step::One(Event::Store(arb_addr(r))),
        6 | 7 => Step::One(Event::Arith(Op::IntMul(small(r), small(r)))),
        8 => Step::One(Event::Arith(Op::FpMul(fp(r), fp(r)))),
        9 => Step::One(Event::Arith(Op::FpDiv(fp(r), 0.5 + fp(r)))),
        10 => {
            let divisions = 1 + r.next_below(8);
            let a = (0..divisions).map(|_| fp(r).to_bits()).collect();
            let b = (0..divisions).map(|_| (0.5 + fp(r)).to_bits()).collect();
            Step::Tile(OpKind::FpDiv, a, b)
        }
        _ => Step::One(Event::Arith(Op::FpSqrt(fp(r)))),
    }
}

fn feed(sink: &mut impl EventSink, steps: &[Step]) {
    for step in steps {
        match step {
            Step::One(event) => sink.record(*event),
            Step::Run(event, n) => sink.record_repeated(*event, *n),
            Step::Tile(kind, a, b) => sink.record_arith_batch(&OpBatch::new(*kind, a, b)),
        }
    }
}

/// The per-op accountant, rebuilt here as the reference: every event is
/// charged the moment it arrives, arithmetic through `MemoBank::execute`.
struct PerOpReference {
    cpu: CpuModel,
    memory: MemoryHierarchy,
    bank: MemoBank,
    baseline: CycleBreakdown,
    memoized: CycleBreakdown,
    mix: InstrMix,
    count: [u64; 4],
    single: [u64; 4],
    /// Per kind: lanes in the batching accountant's current tile, which
    /// closes when full, on a whole-tile hand-over and on a `bank()` read.
    lane: [usize; 4],
    /// Per kind: the breaker tripped on a lane of the still-open tile.
    trip_open: [bool; 4],
    /// Trips followed by more lanes of the same tile.
    mid_tile_trips: usize,
}

impl PerOpReference {
    fn new(bank: MemoBank) -> Self {
        PerOpReference {
            cpu: CpuModel::paper_slow(),
            memory: MemoryHierarchy::typical_1997(),
            bank,
            baseline: CycleBreakdown::default(),
            memoized: CycleBreakdown::default(),
            mix: InstrMix::default(),
            count: [0; 4],
            single: [0; 4],
            lane: [0; 4],
            trip_open: [false; 4],
            mid_tile_trips: 0,
        }
    }

    /// The batching accountant charged `kind`'s tile.
    fn close_tile(&mut self, kind: OpKind) {
        self.lane[kind as usize] = 0;
        self.trip_open[kind as usize] = false;
    }

    fn hit_ratio(&self, kind: OpKind) -> f64 {
        let k = kind as usize;
        if self.count[k] == 0 {
            0.0
        } else {
            self.single[k] as f64 / self.count[k] as f64
        }
    }
}

impl EventSink for PerOpReference {
    fn record(&mut self, event: Event) {
        self.mix.count(&event);
        let (base, memo) = (&mut self.baseline, &mut self.memoized);
        match event {
            Event::IntAlu => {
                base.int_alu += u64::from(self.cpu.int_alu);
                memo.int_alu += u64::from(self.cpu.int_alu);
            }
            Event::FpAdd => {
                base.fp_add += u64::from(self.cpu.fp_add);
                memo.fp_add += u64::from(self.cpu.fp_add);
            }
            Event::Branch => {
                base.branch += u64::from(self.cpu.branch);
                memo.branch += u64::from(self.cpu.branch);
            }
            Event::Annulled => {
                base.annulled += 1;
                memo.annulled += 1;
            }
            Event::Load(addr) | Event::Store(addr) => {
                let cycles = u64::from(self.memory.access(addr));
                base.memory += cycles;
                memo.memory += cycles;
            }
            Event::Arith(op) => {
                let (kind, k) = (op.kind(), op.kind() as usize);
                if self.trip_open[k] {
                    self.mid_tile_trips += 1;
                    self.trip_open[k] = false;
                }
                let full = u64::from(self.cpu.latency(kind));
                self.count[k] += 1;
                base.arith[k] += full;
                let was_tripped = self.bank.breaker_tripped(kind);
                let outcome = self.bank.execute(op).outcome;
                memo.arith[k] += match outcome {
                    Outcome::Hit => 1 + u64::from(self.bank.hit_penalty(kind)),
                    Outcome::Trivial => 1,
                    Outcome::Filtered | Outcome::Miss => full,
                };
                if outcome.avoided_computation() {
                    self.single[k] += 1;
                }
                if !was_tripped && self.bank.breaker_tripped(kind) {
                    self.trip_open[k] = true;
                }
                self.lane[k] += 1;
                if self.lane[k] == MAX_BATCH_WIDTH {
                    self.close_tile(kind);
                }
            }
        }
    }

    /// Per op, like the trait default, but the tile boundaries of the
    /// batching accountant are tracked: it charges a handed-over tile on
    /// its own.
    fn record_arith_batch(&mut self, batch: &OpBatch<'_>) {
        self.close_tile(batch.kind());
        for i in 0..batch.len() {
            self.record(Event::Arith(batch.op(i)));
        }
        self.close_tile(batch.kind());
    }
}

/// The paper's tables on all four kinds.
fn plain_bank() -> MemoBank {
    MemoBank::paper_default()
        .with_table(OpKind::FpSqrt, MemoTable::new(MemoConfig::paper_default()))
}

/// Clean tables whose hits cost extra cycles (ECC and verify-on-hit).
fn protected_bank() -> MemoBank {
    let table = |protection| {
        MemoTable::new(MemoConfig::builder(32).protection(protection).build().unwrap())
    };
    MemoBank::none()
        .with_table(OpKind::IntMul, table(Protection::ParityDetect))
        .with_table(OpKind::FpMul, table(Protection::EccSecDed))
        .with_table(OpKind::FpDiv, table(Protection::VerifyOnHit { verify_cycles: 4 }))
        .with_table(OpKind::FpSqrt, table(Protection::VerifyOnHit { verify_cycles: 2 }))
}

/// Parity tables struck by frequent faults behind an armed breaker, so
/// tables go offline part way through the stream.
fn breaker_bank(seed: u64) -> MemoBank {
    OpKind::ALL.iter().fold(MemoBank::none().with_circuit_breaker(6), |bank, &kind| {
        let fault = FaultConfig::single_bit(seed ^ (kind as u64 + 1), 0.05);
        let cfg = MemoConfig::builder(32).protection(Protection::ParityDetect).build().unwrap();
        let table = MemoTable::new(cfg).with_fault_injector(FaultInjector::new(fault));
        bank.with_table(kind, table)
    })
}

/// Assert that an accountant's report and bank match the reference.
fn assert_matches(acc: &mut CycleAccountant, reference: &PerOpReference, what: &str) {
    let bank = acc.bank();
    for kind in OpKind::ALL {
        assert_eq!(bank.stats(kind), reference.bank.stats(kind), "{what}: {kind:?} stats");
        assert_eq!(
            bank.breaker_tripped(kind),
            reference.bank.breaker_tripped(kind),
            "{what}: {kind:?} breaker"
        );
    }
    let report = acc.report();
    assert_eq!(*report.cpu(), reference.cpu, "{what}: cpu");
    assert_eq!(*report.baseline(), reference.baseline, "{what}: baseline cycles");
    assert_eq!(*report.memoized(), reference.memoized, "{what}: memoized cycles");
    assert_eq!(*report.mix(), reference.mix, "{what}: instruction mix");
    assert_eq!(report.l1_stats(), reference.memory.l1_stats(), "{what}: L1");
    assert_eq!(report.l2_stats(), reference.memory.l2_stats(), "{what}: L2");
    for kind in OpKind::ALL {
        assert_eq!(
            report.hit_ratio(kind).to_bits(),
            reference.hit_ratio(kind).to_bits(),
            "{what}: {kind:?} hit ratio"
        );
    }
}

/// The batching accountant charges exactly what per-op charging does:
/// fed natively (single events, ALU runs and whole division tiles), fed
/// by `EventTrace` replay, and against a per-op reference built on
/// `MemoBank::execute`, with a `bank()` read part way through — for
/// plain, protected (hit penalties) and breaker-armed banks, all four
/// kinds interleaved with memory and ALU work.
#[test]
fn batching_accountant_matches_per_op_charging() {
    let mut mid_tile_trips = 0;
    for seed in 0..ROUNDS {
        let mut r = SplitMix64::new(seed).split("batching-accountant");
        let steps: Vec<Step> = (0..3000 + r.next_below(3000)).map(|_| arb_step(&mut r)).collect();
        let cut = r.next_below(steps.len() as u64) as usize;
        let (head, tail) = steps.split_at(cut);
        let mut traces = [EventTrace::new(), EventTrace::new()];
        feed(&mut traces[0], head);
        feed(&mut traces[1], tail);

        for name in ["plain", "protected", "breaker"] {
            let what = format!("seed {seed}, {name} bank");
            let bank = || match name {
                "plain" => plain_bank(),
                "protected" => protected_bank(),
                _ => breaker_bank(seed),
            };
            let accountant = || {
                let memory = MemoryHierarchy::typical_1997();
                CycleAccountant::new(CpuModel::paper_slow(), memory, bank())
            };
            let mut reference = PerOpReference::new(bank());
            let mut native = accountant();
            let mut replayed = accountant();

            feed(&mut reference, head);
            feed(&mut native, head);
            traces[0].replay_into(&mut replayed);
            assert_matches(&mut native, &reference, &format!("{what}, mid-stream native"));
            assert_matches(&mut replayed, &reference, &format!("{what}, mid-stream replay"));

            for kind in OpKind::ALL {
                reference.close_tile(kind);
            }
            feed(&mut reference, tail);
            feed(&mut native, tail);
            traces[1].replay_into(&mut replayed);
            assert_matches(&mut native, &reference, &format!("{what}, end native"));
            assert_matches(&mut replayed, &reference, &format!("{what}, end replay"));

            if name == "breaker" {
                assert!(
                    OpKind::ALL.iter().any(|&k| reference.bank.breaker_tripped(k)),
                    "{what}: no breaker tripped"
                );
                mid_tile_trips += reference.mid_tile_trips;
            }
        }
    }
    assert!(mid_tile_trips > 0, "no breaker tripped in the middle of a tile");
}

/// Integrate-policy tables, two of them protected: their trivial results
/// are avoided (one cycle, no penalty) without being hits, while their
/// hits pay the protection's penalty.
fn integrate_bank() -> MemoBank {
    let table = |protection| {
        let cfg = MemoConfig::builder(32)
            .trivial(TrivialPolicy::Integrate)
            .protection(protection)
            .build()
            .unwrap();
        MemoTable::new(cfg)
    };
    MemoBank::none()
        .with_table(OpKind::IntMul, table(Protection::None))
        .with_table(OpKind::FpMul, table(Protection::EccSecDed))
        .with_table(OpKind::FpDiv, table(Protection::VerifyOnHit { verify_cycles: 3 }))
        .with_table(OpKind::FpSqrt, table(Protection::None))
}

/// Repricing is exact: a run charged on one CPU profile and repriced for
/// the other equals a run charged on the other profile in every field —
/// both breakdowns, the mix, the hit ratios and the cache statistics —
/// for plain, protected (non-zero hit penalties) and Integrate-policy
/// banks, in both directions.
#[test]
fn repricing_matches_a_run_on_the_other_profile() {
    let (slow_cpu, fast_cpu) = (CpuModel::paper_slow(), CpuModel::paper_fast());
    for seed in 0..ROUNDS {
        let mut r = SplitMix64::new(seed).split("repricing");
        let steps: Vec<Step> = (0..2000 + r.next_below(2000)).map(|_| arb_step(&mut r)).collect();
        for name in ["plain", "protected", "integrate"] {
            let run = |cpu| {
                let bank = match name {
                    "plain" => plain_bank(),
                    "protected" => protected_bank(),
                    _ => integrate_bank(),
                };
                let mut acc = CycleAccountant::new(cpu, MemoryHierarchy::typical_1997(), bank);
                feed(&mut acc, &steps);
                acc.report()
            };
            let (slow, fast) = (run(slow_cpu), run(fast_cpu));
            assert_ne!(slow.baseline(), fast.baseline(), "seed {seed}, {name}: profiles differ");
            for (from, to) in [(&slow, &fast), (&fast, &slow)] {
                let what = format!("seed {seed}, {name} bank, {} -> {}", from.cpu(), to.cpu());
                let got = from.repriced(*to.cpu());
                assert_eq!(*got.cpu(), *to.cpu(), "{what}: cpu");
                assert_eq!(*got.baseline(), *to.baseline(), "{what}: baseline cycles");
                assert_eq!(*got.memoized(), *to.memoized(), "{what}: memoized cycles");
                assert_eq!(*got.mix(), *to.mix(), "{what}: instruction mix");
                assert_eq!(got.l1_stats(), to.l1_stats(), "{what}: L1");
                assert_eq!(got.l2_stats(), to.l2_stats(), "{what}: L2");
                for kind in OpKind::ALL {
                    assert_eq!(
                        got.hit_ratio(kind).to_bits(),
                        to.hit_ratio(kind).to_bits(),
                        "{what}: {kind:?} hit ratio"
                    );
                }
            }
        }
    }
}
