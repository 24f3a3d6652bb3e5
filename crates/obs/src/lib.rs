//! # anyk-obs
//!
//! Observability primitives for the any-k query service — the measurement
//! side of the paper's *time guarantees* (Tziavelis et al., VLDB 2020:
//! TTF, TT(k), and bounded delay between consecutive ranked answers).
//!
//! The crate is dependency-free and sits at the very bottom of the
//! workspace DAG so that every layer — storage's index build, core's
//! bottom-up sweep, the engine's expansion loop, the service, the wire —
//! can record without cycles or plumbing. Four pieces:
//!
//! * [`hist`] — fixed-size, allocation-free, lock-free log-bucketed latency
//!   histograms ([`LatencyHistogram`], ~1.6% midpoint error, 15 KiB flat)
//!   with mergeable [`HistogramSnapshot`]s and p50/p90/p99/max summaries.
//! * [`phase`] — RAII [`phase::span`]s accumulating wall time per pipeline
//!   stage (index build → compile → bottom-up, refresh, rotation, wire
//!   read/write).
//! * [`ring`] — bounded per-session [`EventRing`]s of lifecycle events for
//!   post-mortem dumps.
//! * [`record`] — the per-cursor [`DelayRecorder`] (one [`Clock`] read per
//!   stride of answers and at each end of a page pull, plain integer adds,
//!   flushed to shared per-plan histograms at page boundaries) and the
//!   process-wide recording switch ([`set_recording`]).
//!
//! The injectable [`Clock`] (production [`MonotonicClock`], hand-cranked
//! [`ManualClock`] for deterministic tests) lives here too, re-exported by
//! `anyk-server` for compatibility.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod clock;
pub mod hist;
pub mod phase;
pub mod record;
pub mod ring;

pub use clock::{Clock, ManualClock, MonotonicClock};
pub use hist::{HistogramSnapshot, HistogramSummary, LatencyHistogram, LocalHistogram};
pub use phase::{Phase, PhaseSnapshot, PhaseSpan};
pub use record::{
    recording_enabled, set_recording, DelayRecorder, PlanObs, PlanRegistry, PlanSummaries,
};
pub use ring::{Event, EventKind, EventRing};

/// Serialises tests that flip the global recording switch (and tests that
/// depend on it being on).
#[cfg(test)]
pub(crate) static RECORDING_TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
