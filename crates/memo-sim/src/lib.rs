//! # memo-sim
//!
//! Cycle-accounting simulation substrate for the ASPLOS'98 memoing
//! reproduction — the stand-in for the paper's Shade-based measurement
//! stack (§3.1, §3.3).
//!
//! The paper computes speedups by counting **total cycles executed by all
//! instructions**: the instruction-level simulator was "enhanced to
//! incorporate a memory hierarchy of two caches and take into account
//! annulled instructions"; multiple issue and pipelining are deliberately
//! *not* modelled. This crate reproduces exactly that measurement model:
//!
//! * [`CpuModel`] — per-unit instruction latencies, including the six
//!   processors of Table 1 and the two synthetic "fast"/"slow" FP profiles
//!   used by Tables 11–13;
//! * [`Cache`] / [`MemoryHierarchy`] — a two-level data-cache model
//!   charging hit/miss cycles per access;
//! * [`Event`] / [`EventSink`] — the dynamic instruction stream emitted by
//!   instrumented workloads (crate `memo-workloads`) and by the `memo-isa`
//!   interpreter;
//! * [`MemoBank`] — one memo table per multi-cycle operation kind,
//!   attached to the execution stage;
//! * [`CycleAccountant`] — consumes an event stream once and produces
//!   *both* the baseline (no MEMO-TABLE) and memoized cycle totals, plus
//!   per-unit breakdowns for Amdahl's-law analysis;
//! * [`amdahl`] — the FE / SE / speedup arithmetic of §3.3.
//!
//! ## Example: measuring a tiny kernel
//!
//! ```
//! use memo_sim::{CpuModel, CycleAccountant, EventSink, MemoBank};
//!
//! let mut acc = CycleAccountant::new(
//!     CpuModel::paper_slow(),        // 5-cycle fmul, 39-cycle fdiv
//!     memo_sim::MemoryHierarchy::typical_1997(),
//!     MemoBank::paper_default(),     // 32-entry 4-way tables
//! );
//!
//! // A loop dividing the same pixel values over and over.
//! for i in 0..100u64 {
//!     acc.load(8 * (i % 16));                        // low-entropy data
//!     let _ = acc.fdiv(f64::from(i as u32 % 16), 3.0);
//!     acc.branch();
//! }
//!
//! let report = acc.report();
//! assert!(report.speedup_measured() > 1.5, "memoing pays off on repeated divisions");
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod amdahl;
mod accountant;
mod pipeline;
mod issue;
mod bank;
mod cache;
mod cpu;
mod event;
mod memoized;
mod sweep;
mod trace;

pub use accountant::{CycleAccountant, CycleBreakdown, CycleReport};
pub use bank::MemoBank;
pub use cache::{Cache, CacheConfig, CacheStats, MemoryHierarchy};
pub use cpu::CpuModel;
pub use issue::{compare_divider_farms, DividerFarm, FarmComparison, FarmResult};
pub use memoized::MemoizedSink;
pub use pipeline::{PipelineModel, PipelineReport};
pub use sweep::sweep_kind;
pub use event::{CountingSink, Event, EventSink, InstrMix, NullSink, TraceBuffer};
pub use memo_table::{BatchOutcome, OpBatch};
pub use trace::{EventTrace, OpTrace, TraceDecodeError, TraceRecorderSink, OP_TRACE_VERSION};
