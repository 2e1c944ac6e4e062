//! The system under test as a client sees it, and the per-layer calls
//! the traced run makes beneath it.
//!
//! Layers, top down, each entered through its public function:
//!
//! ```text
//! ShardedHandle::range_query_stats          sharded.query
//!   IndexHandle::range_query_stats (per shard)  shard.handle / handle.query
//!     snapshot().frozen(): CoaxIndex::range_query_stats   index.query
//!       CoaxIndex::plan                          index.plan
//!       CoaxIndex::execute_plan                  index.execute
//!         CoaxIndex::query_primary (plans too)   index.primary
//!         CoaxIndex::query_outliers              index.outliers
//! ```

use crate::check;
use crate::inputs::Read;
use crate::trace::{self_time, Trace};
use coax_core::obs::HistogramSnapshot;
use coax_core::{
    CoaxConfig, CoaxIndex, IndexHandle, IndexSpec, MetricsRegistry, ShardedHandle,
};
use coax_data::{Dataset, RangeQuery, RowId};
use coax_index::{MultidimIndex, QueryResult, ScanStats};
use std::sync::Arc;
use std::time::Instant;

/// The entry point a workload's client calls.
#[derive(Clone)]
pub enum Service {
    /// One live, unsharded handle.
    Handle(Arc<IndexHandle>),
    /// A range-sharded service of handles.
    Sharded(ShardedHandle),
}

impl Service {
    /// The service behind the shared index trait.
    pub fn index(&self) -> &dyn MultidimIndex {
        match self {
            Service::Handle(h) => h.as_ref(),
            Service::Sharded(s) => s,
        }
    }

    /// Every handle under the service with its metrics label.
    pub fn handles(&self) -> Vec<(Option<u32>, &IndexHandle)> {
        match self {
            Service::Handle(h) => vec![(None, h.as_ref())],
            Service::Sharded(s) => (0..s.shard_count())
                .map(|k| (Some(k as u32), s.shard_handle(k).as_ref()))
                .collect(),
        }
    }

    /// The service's frozen read session, for bit-identity checks.
    fn frozen_answer(&self, read: &Read, out: &mut Vec<RowId>) -> ScanStats {
        match self {
            Service::Handle(h) => read.run(h.snapshot().frozen(), out),
            Service::Sharded(s) => read.run(&s.snapshot(), out),
        }
    }
}

/// One set-up: discovery, then the index build, timed apart.
pub struct Setup {
    /// The built service.
    pub service: Service,
    /// `IndexSpec::discover_for`, seconds.
    pub discovery_s: f64,
    /// The index build from that discovery, seconds.
    pub build_s: f64,
}

/// Discovers soft FDs on `rows` and builds the service under `config`
/// (sharded when `config.shard` asks for more than one shard).
pub fn set_up(rows: &Dataset, config: &CoaxConfig) -> Setup {
    let t0 = Instant::now();
    let discovery = IndexSpec::discover_for(config, rows);
    let t1 = Instant::now();
    let service = if config.shard.count() > 1 {
        Service::Sharded(ShardedHandle::build_with_discovery(rows, discovery, config))
    } else {
        Service::Handle(Arc::new(IndexHandle::new(CoaxIndex::build_with_discovery(
            rows, discovery, config,
        ))))
    };
    let t2 = Instant::now();
    Setup { service, discovery_s: (t1 - t0).as_secs_f64(), build_s: (t2 - t1).as_secs_f64() }
}

/// Number of checks that failed out of those made.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    /// Checks made.
    pub attempted: usize,
    /// Checks that found a wrong answer.
    pub failed: usize,
}

impl Tally {
    /// Counts one check.
    pub fn add(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += usize::from(!ok);
    }
}

/// Before any timing: every read through the service must return its
/// full-scan reference set, and the service, its frozen session and
/// every twin must agree bit for bit (ids in order and scan counters).
pub fn check_before_timing(svc: &Service, twins: &[&Service], reads: &[&Read]) -> Tally {
    let mut tally = Tally::default();
    let (mut a, mut b) = (Vec::new(), Vec::new());
    for read in reads {
        a.clear();
        let stats = read.run(svc.index(), &mut a);
        tally.add(check::same_set(&a, &read.reference));
        b.clear();
        let frozen = svc.frozen_answer(read, &mut b);
        tally.add(a == b && stats == frozen);
        for twin in twins {
            b.clear();
            let twin_stats = read.run(twin.index(), &mut b);
            tally.add(a == b && stats == twin_stats);
        }
    }
    tally
}

/// Checks a batch answer query by query against the references.
pub fn batch_matches(results: &[QueryResult], reads: &[&Read]) -> bool {
    results.len() == reads.len()
        && results.iter().zip(reads).all(|(r, read)| check::same_set(&r.ids, &read.reference))
}

/// Per-layer times of one sampled read, microseconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerSample {
    /// Whether the read was a point lookup.
    pub point: bool,
    /// Handle minus its frozen index, summed over shards.
    pub handle_self: f64,
    /// `CoaxIndex::plan`, summed over shards.
    pub plan: f64,
    /// `query_primary` minus its own plan, summed over shards.
    pub primary: f64,
    /// `query_outliers`, summed over shards.
    pub outliers: f64,
    /// `execute_plan` minus primary and outliers, summed over shards.
    pub exec_self: f64,
    /// Sharded call minus its shard handle calls (0 unsharded).
    pub shard_self: f64,
    /// The obs-on twin's time on this read.
    pub obs_on: f64,
    /// The obs-off twin's time on this read.
    pub obs_off: f64,
}

/// The program's own `coax.handle.query_us` beside the benchmark's
/// timing of the same handle calls.
#[derive(Debug)]
pub struct CrossCheck {
    /// Benchmark-timed handle calls, microseconds.
    pub timed_us: Vec<f64>,
    /// What the handle histograms recorded for exactly those calls.
    pub recorded: HistogramSnapshot,
}

impl Default for CrossCheck {
    fn default() -> Self {
        Self { timed_us: Vec::new(), recorded: HistogramSnapshot::empty() }
    }
}

/// Where the traced run's calls are recorded: the spans, the
/// cross-check, scratch output buffers, and the current operation id.
#[derive(Debug)]
pub struct Recorder {
    /// The span records.
    pub trace: Trace,
    /// Handle calls timed here beside what the program recorded.
    pub xcheck: CrossCheck,
    /// Id of the operation being decomposed.
    pub op: u64,
    /// Output buffers reused across calls, so no timed call pays for
    /// growing its result vector.
    buf: [Vec<RowId>; 4],
}

impl Recorder {
    /// An empty recorder timing relative to `origin`.
    pub fn new(origin: Instant) -> Self {
        Self {
            trace: Trace::new(origin),
            xcheck: CrossCheck::default(),
            op: 0,
            buf: Default::default(),
        }
    }

    /// Starts the next operation and returns its id.
    pub fn next_op(&mut self) -> u64 {
        self.op += 1;
        self.op
    }

    /// Times `f` as a span of the current operation, handing it cleared
    /// output buffer `i`.
    fn span<R>(
        &mut self,
        parent: Option<usize>,
        name: &'static str,
        i: usize,
        f: impl FnOnce(&mut Vec<RowId>) -> R,
    ) -> (usize, R) {
        let out = &mut self.buf[i];
        out.clear();
        self.trace.span(self.op, parent, name, || f(out))
    }

    /// Runs `f` untimed on cleared output buffer 0.
    fn untimed<R>(&mut self, f: impl FnOnce(&mut Vec<RowId>) -> R) -> R {
        let out = &mut self.buf[0];
        out.clear();
        std::hint::black_box(f(out))
    }

    /// Duration of span `id`, microseconds.
    fn us(&self, id: usize) -> f64 {
        self.trace.us(id)
    }

    /// One call of `handle` on `read`, timed here, with the handle's
    /// histogram read before and after it so the observation it recorded
    /// is compared with this timing. The call also warms the caches for
    /// the timed layer calls that follow.
    fn cross_check(&mut self, handle: &IndexHandle, label: Option<u32>, read: &Read) {
        let hist = MetricsRegistry::global().histogram_shard("coax.handle.query_us", label);
        let before = hist.snapshot();
        let t0 = Instant::now();
        self.untimed(|out| read.run(handle, out));
        let us = t0.elapsed().as_nanos() as f64 / 1e3;
        self.xcheck.recorded.merge(&hist.snapshot().since(&before));
        self.xcheck.timed_us.push(us);
    }
}

/// `handle` and the frozen index under it, decomposed into plan,
/// primary, outliers and execute, accumulated into `s`. Returns the
/// handle span.
fn handle_layers(
    handle: &IndexHandle,
    label: Option<u32>,
    read: &Read,
    parent: Option<usize>,
    rec: &mut Recorder,
    s: &mut LayerSample,
) -> usize {
    rec.cross_check(handle, label, read);
    let name = if parent.is_some() { "shard.handle" } else { "handle.query" };
    let (root, _) = rec.span(parent, name, 0, |out| read.run(handle, out));
    let snapshot = handle.snapshot();
    let index = snapshot.frozen();
    let q = &read.query;
    let (query, _) = rec.span(Some(root), "index.query", 0, |out| read.run(index, out));
    let (plan_span, plan) = rec.span(Some(query), "index.plan", 0, |_| index.plan(q));
    let (exec, _) =
        rec.span(Some(query), "index.execute", 1, |out| index.execute_plan(&plan, out));
    let (primary, _) =
        rec.span(Some(exec), "index.primary", 2, |out| index.query_primary(q, out));
    let (outliers, _) =
        rec.span(Some(exec), "index.outliers", 3, |out| index.query_outliers(q, out));
    let plan_us = rec.us(plan_span);
    let primary_net = rec.us(primary) - plan_us;
    let outliers_us = rec.us(outliers);
    s.handle_self += self_time(rec.us(root), &[rec.us(query)]);
    s.plan += plan_us;
    s.primary += primary_net;
    s.outliers += outliers_us;
    s.exec_self += self_time(rec.us(exec), &[primary_net, outliers_us]);
    root
}

/// Calls every layer beneath `svc` on `read` (see the module docs) and
/// the obs-on / obs-off twins, recording spans under a new operation.
pub fn decompose(
    svc: &Service,
    twin_on: &Service,
    twin_off: &Service,
    read: &Read,
    rec: &mut Recorder,
) -> LayerSample {
    let op = rec.next_op();
    let mut s = LayerSample { point: read.point.is_some(), ..Default::default() };
    match svc {
        Service::Handle(h) => {
            handle_layers(h, None, read, None, rec, &mut s);
        }
        Service::Sharded(sh) => {
            let (root, _) = rec.span(None, "sharded.query", 0, |out| read.run(sh, out));
            let shard_spans: Vec<f64> = svc
                .handles()
                .into_iter()
                .map(|(label, h)| {
                    let span = handle_layers(h, label, read, Some(root), rec, &mut s);
                    rec.us(span)
                })
                .collect();
            s.shard_self = self_time(rec.us(root), &shard_spans);
        }
    }
    // Warm both twins on this read, then time them in alternating order
    // so neither always runs colder.
    let twin = |name, t: &Service, rec: &mut Recorder| {
        rec.untimed(|out| read.run(t.index(), out));
        let (span, _) = rec.span(None, name, 0, |out| read.run(t.index(), out));
        rec.us(span)
    };
    if op % 2 == 0 {
        s.obs_on = twin("obs.on", twin_on, rec);
        s.obs_off = twin("obs.off", twin_off, rec);
    } else {
        s.obs_off = twin("obs.off", twin_off, rec);
        s.obs_on = twin("obs.on", twin_on, rec);
    }
    s
}

/// Counts that depend only on the inputs and the index state, taken
/// over every distinct read after the measured phases: they repeat
/// exactly across runs with one seed.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Counts {
    /// `memory_overhead()` of the service.
    pub index_bytes: f64,
    /// `primary_overhead()`, summed over shards.
    pub primary_bytes: f64,
    /// `outlier_overhead()`, summed over shards.
    pub outlier_bytes: f64,
    /// Service overhead minus its handles' (the shard id tables).
    pub id_table_bytes: f64,
    /// Outlier rows over indexed rows.
    pub outlier_frac: f64,
    /// Rows `query_primary` examined per read.
    pub primary_rows: f64,
    /// Cells `query_primary` visited per read.
    pub primary_cells: f64,
    /// Rows `query_outliers` examined per read.
    pub outlier_rows: f64,
    /// Eq. 5 over all reads: matches over rows examined by `execute_plan`.
    pub effectiveness: f64,
    /// Shards whose handle answered, per sharded read (0 unsharded).
    pub visited_per_query: f64,
    /// Shards visited that held a match, over shards visited.
    pub useful_frac: f64,
    /// Cells scanned over cell visits across the batches (0 without).
    pub probe_share: f64,
}

/// Takes the [`Counts`] of `svc` over `reads` and `batches`.
pub fn counts(svc: &Service, reads: &[&Read], batches: &[Vec<RangeQuery>]) -> Counts {
    let mut c =
        Counts { index_bytes: svc.index().memory_overhead() as f64, ..Default::default() };
    let handles = svc.handles();
    let handle_bytes: usize = handles.iter().map(|(_, h)| h.memory_overhead()).sum();
    c.id_table_bytes = c.index_bytes - handle_bytes as f64;
    let (mut outliers, mut indexed) = (0usize, 0usize);
    let (mut matches, mut examined) = (0usize, 0usize);
    let mut out = Vec::new();
    for (_, h) in &handles {
        let snapshot = h.snapshot();
        let index = snapshot.frozen();
        c.primary_bytes += index.primary_overhead() as f64;
        c.outlier_bytes += index.outlier_overhead() as f64;
        outliers += index.outlier_len();
        indexed += index.primary_len() + index.outlier_len();
        for read in reads {
            out.clear();
            let p = index.query_primary(&read.query, &mut out);
            c.primary_rows += p.rows_examined as f64;
            c.primary_cells += p.cells_visited as f64;
            out.clear();
            c.outlier_rows += index.query_outliers(&read.query, &mut out).rows_examined as f64;
            out.clear();
            let all = index.execute_plan(&index.plan(&read.query), &mut out).flatten();
            matches += all.matches;
            examined += all.total_examined();
        }
    }
    let n = reads.len().max(1) as f64;
    c.primary_rows /= n;
    c.primary_cells /= n;
    c.outlier_rows /= n;
    c.outlier_frac = outliers as f64 / indexed.max(1) as f64;
    c.effectiveness = if examined == 0 { 1.0 } else { matches as f64 / examined as f64 };
    if let Service::Sharded(sh) = svc {
        let hists: Vec<_> = handles
            .iter()
            .map(|(label, _)| {
                MetricsRegistry::global().histogram_shard("coax.handle.query_us", *label)
            })
            .collect();
        let (mut visited, mut useful) = (0usize, 0usize);
        for read in reads {
            let before: Vec<u64> = hists.iter().map(|h| h.count()).collect();
            out.clear();
            read.run(sh, &mut out);
            let moved: Vec<bool> =
                hists.iter().zip(&before).map(|(h, &b)| h.count() > b).collect();
            visited += moved.iter().filter(|&&m| m).count();
            for ((_, h), m) in handles.iter().zip(&moved) {
                out.clear();
                if *m && read.run(*h, &mut out).matches > 0 {
                    useful += 1;
                }
            }
        }
        c.visited_per_query = visited as f64 / n;
        c.useful_frac = useful as f64 / visited.max(1) as f64;
    }
    let (s0, v0) = coax_index::telemetry::shared_probe_totals();
    for batch in batches {
        svc.index().batch_query(batch);
    }
    let (s1, v1) = coax_index::telemetry::shared_probe_totals();
    if v1 > v0 {
        c.probe_share = (s1 - s0) as f64 / (v1 - v0) as f64;
    }
    c
}
