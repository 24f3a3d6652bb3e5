//! Phase-timing spans: where does the wall-clock go, per pipeline stage?
//!
//! The prep pipeline (index build → compile → bottom-up sweep), delta
//! refresh, snapshot rotation, and the wire's read/write halves each get a
//! process-global `(count, total_nanos, max_nanos)` accumulator. A
//! [`PhaseSpan`] is an RAII guard: construct it entering the phase, drop it
//! leaving; recording is two relaxed `fetch_add`s and one `fetch_max`, and
//! an unarmed span (recording switched off) costs one relaxed load.
//!
//! Phases may nest — [`Phase::Compile`] wholly contains
//! [`Phase::BottomUp`] and usually several [`Phase::IndexBuild`]s — so the
//! per-phase totals answer "how much time did stage X contribute", not "what
//! fraction of a disjoint pie is stage X".
//!
//! The accumulators are process-global statics rather than per-service
//! state so the leaf crates (storage's index build, core's bottom-up sweep)
//! can record without any plumbing through their APIs; a process hosting two
//! services sees their phases merged.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// An instrumented pipeline stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Phase {
    /// One `HashIndex::build` pass over a relation (storage layer).
    IndexBuild = 0,
    /// Whole-plan compilation: validation, join-tree / cycle-decomposition
    /// selection, T-DP compilation, bottom-up phase (engine layer).
    Compile = 1,
    /// The bottom-up dynamic-programming sweep (core layer).
    BottomUp = 2,
    /// Delta-maintenance of a cached plan (`PreparedQuery::refresh`).
    Refresh = 3,
    /// Snapshot rotation / delta ingestion under the service's rotation
    /// lock (`QueryService::ingest` / `rotate`).
    Rotation = 4,
    /// Reading one request frame off a connection (includes waiting for the
    /// client to send it, so idle connections inflate this phase's totals).
    WireRead = 5,
    /// Encoding and writing one response frame to a connection.
    WireWrite = 6,
}

/// Number of phases (array sizing).
pub const PHASE_COUNT: usize = 7;

impl Phase {
    /// All phases in wire/display order.
    pub const ALL: [Phase; PHASE_COUNT] = [
        Phase::IndexBuild,
        Phase::Compile,
        Phase::BottomUp,
        Phase::Refresh,
        Phase::Rotation,
        Phase::WireRead,
        Phase::WireWrite,
    ];

    /// Stable snake_case name (wire rendering, Prometheus labels).
    pub fn name(self) -> &'static str {
        match self {
            Phase::IndexBuild => "index_build",
            Phase::Compile => "compile",
            Phase::BottomUp => "bottom_up",
            Phase::Refresh => "refresh",
            Phase::Rotation => "rotation",
            Phase::WireRead => "wire_read",
            Phase::WireWrite => "wire_write",
        }
    }

    /// Inverse of the `repr(u8)` discriminant (wire decoding).
    pub fn from_u8(b: u8) -> Option<Phase> {
        Phase::ALL.get(b as usize).copied()
    }
}

struct PhaseCell {
    count: AtomicU64,
    total_nanos: AtomicU64,
    max_nanos: AtomicU64,
}

impl PhaseCell {
    const fn new() -> Self {
        PhaseCell {
            count: AtomicU64::new(0),
            total_nanos: AtomicU64::new(0),
            max_nanos: AtomicU64::new(0),
        }
    }
}

#[allow(clippy::declare_interior_mutable_const)]
const CELL_INIT: PhaseCell = PhaseCell::new();
static CELLS: [PhaseCell; PHASE_COUNT] = [CELL_INIT; PHASE_COUNT];

/// Start timing `phase`; the span records on drop. Returns an unarmed
/// (no-op) span when recording is switched off ([`crate::set_recording`]).
#[must_use = "a span records on drop; binding it to `_` drops it immediately"]
pub fn span(phase: Phase) -> PhaseSpan {
    PhaseSpan {
        phase,
        start: crate::recording_enabled().then(Instant::now),
    }
}

/// RAII guard for one phase execution (see [`span`]).
#[derive(Debug)]
pub struct PhaseSpan {
    phase: Phase,
    start: Option<Instant>,
}

impl Drop for PhaseSpan {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            let cell = &CELLS[self.phase as usize];
            cell.count.fetch_add(1, Ordering::Relaxed);
            cell.total_nanos.fetch_add(nanos, Ordering::Relaxed);
            cell.max_nanos.fetch_max(nanos, Ordering::Relaxed);
        }
    }
}

/// A point-in-time reading of one phase's accumulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseSnapshot {
    /// Which phase.
    pub phase: Phase,
    /// Completed spans.
    pub count: u64,
    /// Total nanoseconds across all spans.
    pub total_nanos: u64,
    /// Longest single span, nanoseconds.
    pub max_nanos: u64,
}

impl PhaseSnapshot {
    /// Mean span duration in nanoseconds (0 if no spans).
    pub fn mean_nanos(&self) -> u64 {
        self.total_nanos.checked_div(self.count).unwrap_or(0)
    }
}

/// Read every phase accumulator (in [`Phase::ALL`] order).
pub fn snapshot_phases() -> Vec<PhaseSnapshot> {
    Phase::ALL
        .iter()
        .map(|&phase| {
            let cell = &CELLS[phase as usize];
            PhaseSnapshot {
                phase,
                count: cell.count.load(Ordering::Relaxed),
                total_nanos: cell.total_nanos.load(Ordering::Relaxed),
                max_nanos: cell.max_nanos.load(Ordering::Relaxed),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(phase: Phase) -> PhaseSnapshot {
        snapshot_phases()
            .into_iter()
            .find(|p| p.phase == phase)
            .unwrap()
    }

    #[test]
    fn span_accumulates_count_and_time() {
        let _guard = crate::RECORDING_TEST_LOCK.lock().unwrap();
        crate::set_recording(true);
        // Globals are shared across parallel tests: assert deltas only.
        let before = read(Phase::Rotation);
        {
            let _s = span(Phase::Rotation);
            std::hint::black_box(0u64);
        }
        let after = read(Phase::Rotation);
        assert!(after.count > before.count);
        assert!(after.total_nanos >= before.total_nanos);
        assert!(after.max_nanos >= before.max_nanos);
    }

    #[test]
    fn phase_names_round_trip() {
        for p in Phase::ALL {
            assert_eq!(Phase::from_u8(p as u8), Some(p));
        }
        assert_eq!(Phase::from_u8(PHASE_COUNT as u8), None);
        let names: std::collections::HashSet<_> = Phase::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(names.len(), PHASE_COUNT, "names are distinct");
    }
}
