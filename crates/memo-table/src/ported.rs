//! A multi-ported MEMO-TABLE shared between several computation units
//! (§2.3).
//!
//! When a processor implements several instances of the same computation
//! unit, a private table per unit would let recurring calculations be
//! dispatched to different units, computed more than once, and stored more
//! than once. The paper's solution is one larger, multi-ported table shared
//! by all the units, so one unit can reuse work performed by another.
//!
//! [`SharedMemoTable`] models this: cheap clonable handles over one
//! underlying [`MemoTable`], plus a port-contention model — each simulated
//! cycle offers `ports` accesses; accesses beyond that are counted as
//! conflicts (in hardware they would stall one cycle, which `memo-sim`
//! charges when configured to).

use std::cell::RefCell;
use std::rc::Rc;

use crate::op::{Op, Value};
use crate::stats::MemoStats;
use crate::table::{MemoTable, Probe};
use crate::Memoizer;

/// Port-contention counters for a [`SharedMemoTable`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PortStats {
    /// Total accesses (probes and updates) issued by all sharers.
    pub accesses: u64,
    /// Accesses beyond the port count within a single cycle.
    pub conflicts: u64,
    /// Simulated cycles observed via [`SharedMemoTable::begin_cycle`].
    pub cycles: u64,
}

#[derive(Debug)]
struct Shared {
    table: MemoTable,
    ports: u32,
    used_this_cycle: u32,
    port_stats: PortStats,
}

/// A handle to a memo table shared by several computation units.
///
/// Clone the handle once per unit; all clones see the same entries and
/// statistics. Single-threaded by design (simulators here are
/// single-threaded event loops), hence `Rc<RefCell<…>>` rather than locks.
///
/// # Examples
///
/// ```
/// use memo_table::{MemoConfig, Memoizer, Op, Outcome, SharedMemoTable};
///
/// let unit0 = SharedMemoTable::new(MemoConfig::paper_default(), 2);
/// let mut unit1 = unit0.clone();
/// let mut unit0 = unit0;
///
/// unit0.execute(Op::FpDiv(9.0, 4.0));
/// // The second divider reuses work performed by the first.
/// assert_eq!(unit1.execute(Op::FpDiv(9.0, 4.0)).outcome, Outcome::Hit);
/// ```
#[derive(Debug, Clone)]
pub struct SharedMemoTable {
    inner: Rc<RefCell<Shared>>,
}

impl SharedMemoTable {
    /// Create a shared table with `ports` access ports per cycle.
    ///
    /// # Panics
    ///
    /// Panics if `ports` is zero.
    #[must_use]
    pub fn new(cfg: crate::MemoConfig, ports: u32) -> Self {
        assert!(ports > 0, "a shared table needs at least one port");
        SharedMemoTable {
            inner: Rc::new(RefCell::new(Shared {
                table: MemoTable::new(cfg),
                ports,
                used_this_cycle: 0,
                port_stats: PortStats::default(),
            })),
        }
    }

    /// Advance the port-contention model by one simulated cycle.
    pub fn begin_cycle(&self) {
        let mut s = self.inner.borrow_mut();
        s.used_this_cycle = 0;
        s.port_stats.cycles += 1;
    }

    /// Port-contention counters.
    #[must_use]
    pub fn port_stats(&self) -> PortStats {
        self.inner.borrow().port_stats
    }

    /// Number of handles currently sharing the table (including this one).
    #[must_use]
    pub fn sharers(&self) -> usize {
        Rc::strong_count(&self.inner)
    }

    /// Snapshot of the underlying table's statistics.
    #[must_use]
    pub fn stats_snapshot(&self) -> MemoStats {
        self.inner.borrow().table.stats()
    }

    /// Hit ratio under the table's trivial policy.
    #[must_use]
    pub fn hit_ratio(&self) -> f64 {
        self.inner.borrow().table.hit_ratio()
    }

    fn charge_port(s: &mut Shared) {
        s.port_stats.accesses += 1;
        s.used_this_cycle += 1;
        if s.used_this_cycle > s.ports {
            s.port_stats.conflicts += 1;
        }
    }
}

impl Memoizer for SharedMemoTable {
    fn probe(&mut self, op: Op) -> Probe {
        let mut s = self.inner.borrow_mut();
        Self::charge_port(&mut s);
        s.table.probe(op)
    }

    fn update(&mut self, op: Op, result: Value) {
        let mut s = self.inner.borrow_mut();
        Self::charge_port(&mut s);
        s.table.update(op, result);
    }

    fn stats(&self) -> MemoStats {
        self.stats_snapshot()
    }

    fn reset(&mut self) {
        let mut s = self.inner.borrow_mut();
        s.table.reset();
        s.used_this_cycle = 0;
        s.port_stats = PortStats::default();
    }

    fn hit_penalty(&self) -> u32 {
        self.inner.borrow().table.hit_penalty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Outcome;
    use crate::MemoConfig;

    #[test]
    fn sharers_reuse_each_others_work() {
        let a = SharedMemoTable::new(MemoConfig::paper_default(), 2);
        let mut b = a.clone();
        let mut a = a;
        assert_eq!(a.sharers(), 2);
        assert_eq!(a.execute(Op::FpDiv(6.0, 4.0)).outcome, Outcome::Miss);
        assert_eq!(b.execute(Op::FpDiv(6.0, 4.0)).outcome, Outcome::Hit);
        assert_eq!(a.stats_snapshot().table_hits, 1);
    }

    #[test]
    fn port_conflicts_counted() {
        let t = SharedMemoTable::new(MemoConfig::paper_default(), 1);
        let mut a = t.clone();
        let mut b = t.clone();
        t.begin_cycle();
        a.execute(Op::FpDiv(6.0, 4.0)); // probe + update = 2 accesses
        b.execute(Op::FpDiv(8.0, 4.0)); // 2 more accesses, all past port 1
        let ps = t.port_stats();
        assert_eq!(ps.accesses, 4);
        assert_eq!(ps.conflicts, 3, "only the first access fits the single port");
        t.begin_cycle();
        a.execute(Op::FpDiv(6.0, 4.0)); // hit: probe only
        assert_eq!(t.port_stats().conflicts, 3, "new cycle, port free again");
    }

    #[test]
    #[should_panic(expected = "at least one port")]
    fn zero_ports_rejected() {
        let _ = SharedMemoTable::new(MemoConfig::paper_default(), 0);
    }

    #[test]
    fn reset_clears_everything() {
        let mut t = SharedMemoTable::new(MemoConfig::paper_default(), 2);
        t.execute(Op::FpDiv(6.0, 4.0));
        t.reset();
        assert_eq!(t.stats_snapshot(), MemoStats::new());
        assert_eq!(t.port_stats(), PortStats::default());
        assert_eq!(t.execute(Op::FpDiv(6.0, 4.0)).outcome, Outcome::Miss);
    }
}
