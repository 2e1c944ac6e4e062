//! Query-lifecycle spans: per-phase timing for the translate → probe →
//! merge pipeline.
//!
//! A [`QuerySpan`] is handed out by [`crate::obs::Obs::query_span`] at
//! the top of `exec::execute` and marks each phase boundary as the
//! four-step sequence runs; every mark records the elapsed slice into
//! that phase's latency histogram, and [`QuerySpan::finish`] records
//! the end-to-end latency plus the query's [`ScanStats`] into the
//! per-query counters. When observability is off the span is a unit
//! struct holding `None` — no clock reads, no atomics, nothing.

use std::time::Instant;

use coax_index::ScanStats;

use super::ObsHandles;
use std::sync::Arc;

/// The phases of one query through the exec pipeline, in order.
/// `Translate` is timed at plan construction (the plan may be reused
/// across an epoch), the remaining three inside `exec::execute`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryPhase {
    /// Soft-FD query translation (Eq. 2): building the `QueryPlan`.
    Translate,
    /// Probing the primary (in-margin) partition.
    PrimaryProbe,
    /// Probing the outlier partition.
    OutlierProbe,
    /// Result assembly: stats flattening and id merge.
    Merge,
}

impl QueryPhase {
    /// Stable lowercase tag, matching the metric name suffix.
    pub fn as_str(self) -> &'static str {
        match self {
            QueryPhase::Translate => "translate",
            QueryPhase::PrimaryProbe => "primary_probe",
            QueryPhase::OutlierProbe => "outlier_probe",
            QueryPhase::Merge => "merge",
        }
    }
}

/// An in-flight query measurement. Obtained from
/// [`crate::obs::Obs::query_span`]; a disabled recorder returns an
/// inert span whose methods compile to a `None` check.
#[derive(Debug)]
pub struct QuerySpan {
    inner: Option<SpanInner>,
}

#[derive(Debug)]
struct SpanInner {
    handles: Arc<ObsHandles>,
    epoch: u64,
    shard: Option<u32>,
    start: Instant,
    last: Instant,
}

impl QuerySpan {
    /// An inert span (observability off).
    pub(super) fn disabled() -> Self {
        QuerySpan { inner: None }
    }

    /// A live span starting now, tagged with the publishing `epoch` and
    /// the recorder's `shard` label.
    pub(super) fn started(handles: Arc<ObsHandles>, epoch: u64, shard: Option<u32>) -> Self {
        let now = Instant::now();
        QuerySpan { inner: Some(SpanInner { handles, epoch, shard, start: now, last: now }) }
    }

    /// The epoch this query is tagged with (0 when the span is inert or
    /// the index is not behind an epoch-swapped handle).
    pub fn epoch(&self) -> u64 {
        self.inner.as_ref().map_or(0, |s| s.epoch)
    }

    /// The shard this query ran on (`None` when the span is inert or
    /// the index is not a shard of a sharded handle).
    pub fn shard(&self) -> Option<u32> {
        self.inner.as_ref().and_then(|s| s.shard)
    }

    /// Marks the end of `phase`: records the slice since the previous
    /// mark (or span start) into the phase histogram.
    pub fn phase(&mut self, phase: QueryPhase) {
        if let Some(s) = self.inner.as_mut() {
            let now = Instant::now();
            s.handles.phase_histogram(phase).record_duration(now - s.last);
            s.last = now;
        }
    }

    /// Finishes the span: records the residual slice as the merge
    /// phase, the end-to-end latency, and the query's flattened
    /// [`ScanStats`] deltas into the per-query counters.
    pub fn finish(mut self, stats: &ScanStats) {
        self.phase(QueryPhase::Merge);
        if let Some(s) = self.inner.take() {
            s.handles.query_latency_us.record_duration(s.start.elapsed());
            s.handles.query_count.inc();
            s.handles.query_cells_visited.add(stats.cells_visited as u64);
            s.handles.query_rows_examined.add(stats.rows_examined as u64);
            s.handles.query_scanned_pending.add(stats.scanned_pending as u64);
            s.handles.query_matches.add(stats.matches as u64);
        }
    }
}
