//! The three workloads: what each sets up, how its clients drive the
//! service, and which numbers it reports.
//!
//! * `read-mix` — 2 M airline rows (8 columns, ~128 MB of column data:
//!   more than the last-level cache), one unsharded `IndexHandle`, one
//!   closed-loop client alternating point lookups at existing records
//!   and KNN-box range queries (k = 100). Shards, maintenance and the
//!   batch engine do no work.
//! * `sharded-mix` — 200 k airline rows (fits the cache), a
//!   `ShardedHandle` range-sharded 4 ways on column 0 with a 2-thread
//!   fan-out, one closed-loop client cycling point lookups, range
//!   queries and batches of 256 range queries (64 single reads per
//!   batch: about equal time in each). The only workload with
//!   shard routing, fan-out, id remapping and the batch worker pool.
//! * `drift-ingest` — 100 k stationary rows of a drifting linear
//!   stream, then a writer inserting the drifting suffix open loop at
//!   20 k rows/s (bursts of 20 every millisecond) with a
//!   `Maintainer::tick` inline every 4096 inserts, beside a closed-loop
//!   reader of dependent-band range queries (`y` only) and point
//!   lookups. The only workload that writes: inserts, the overlay scan,
//!   fold/refit and stale models. The index grows while the writer
//!   runs, and reads slow with it, so a phase is cut into episodes of
//!   at most [`EPISODE_S`] that each replay the same suffix on a fresh
//!   handle: every episode passes through the same states, and the
//!   reported figure is the median over episodes.

use crate::check;
use crate::inputs::{self, Read};
use crate::openloop::{self, Timing, WallClock};
use crate::service::{self, LayerSample, Recorder, Service, Tally};
use crate::stats::{
    mean, median, per_window, quantile, whole_run_quantile, windowed_quantile, windows_for,
};
use coax_core::{
    CoaxConfig, ExecConfig, IndexHandle, Maintainer, MaintenanceAction, ObsConfig, ShardSpec,
};
use coax_data::{Dataset, RangeQuery, RowId};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Every how many single reads of a kind one is re-checked.
const CHECK_EVERY: usize = 8;
/// Every how many single reads of a kind the traced run decomposes one.
const TRACE_EVERY: usize = 64;
/// Every how many batches one is re-checked / traced.
const BATCH_EVERY: usize = 4;
/// Prefix-checked reads kept per writer run (spread evenly over it).
const PREFIX_CAP: usize = 1024;
/// Inserts between two maintenance ticks in `drift-ingest`.
const TICK_EVERY: usize = 4096;
/// Seconds between two bursts of the open-loop writer: it wakes this
/// often and sends the inserts then due, rather than holding a CPU
/// awake for one insert every 50 µs beside the reader.
const BURST_S: f64 = 0.001;
/// Every how many single reads the client notes the time, for the
/// per-window read rate.
const MARK_EVERY: usize = 500;
/// Longest episode of `drift-ingest`: a phase is cut into this many
/// seconds or fewer, each replaying the drifting suffix on a fresh
/// handle from the same stationary rows.
const EPISODE_S: f64 = 2.5;
/// Seconds a read-only client runs untimed before a measured phase.
const WARMUP_S: f64 = 1.0;
/// Every how many inserts the traced run records an insert span.
const INSERT_SPAN_EVERY: usize = 64;

/// One operation of a closed-loop client.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// A point lookup through `point_query_stats`.
    Point,
    /// A range query through `range_query_stats`.
    Range,
    /// A batch of range queries through `batch_query`.
    Batch,
}

/// Sizes and shape of one workload.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Name on the command line.
    pub name: &'static str,
    /// Rows the index is set up on.
    pub rows: usize,
    /// Distinct point reads.
    pub points: usize,
    /// Distinct range reads.
    pub ranges: usize,
    /// KNN-box selectivity target of range reads.
    pub k: usize,
    /// Range queries per batch (0: no batches).
    pub batch_len: usize,
    /// Shards (1: one unsharded handle).
    pub shards: usize,
    /// The single reads the client alternates between.
    pub singles: &'static [Op],
    /// Single reads between two batches (0: no batches).
    pub reads_per_batch: usize,
    /// Rows inserted per second (0: read-only).
    pub insert_rate: f64,
    /// Times the set-up is repeated for `setup_s` (more where it is
    /// quick, so the median is steady).
    pub setups: usize,
}

impl Workload {
    /// The workload called `name`.
    pub fn named(name: &str) -> Option<Self> {
        use Op::*;
        let w = match name {
            "read-mix" => Workload {
                name: "read-mix",
                rows: 2_000_000,
                points: 512,
                ranges: 512,
                k: 100,
                batch_len: 0,
                shards: 1,
                singles: &[Point, Range],
                reads_per_batch: 0,
                insert_rate: 0.0,
                setups: 5,
            },
            "sharded-mix" => Workload {
                name: "sharded-mix",
                rows: 200_000,
                points: 512,
                ranges: 1024,
                k: 100,
                batch_len: 256,
                shards: 4,
                singles: &[Point, Range],
                // A 256-range batch takes about as long as 64 single reads
                // (~5 ms against ~80 µs each), so the client spends about
                // equal time on each; every run prints the measured shares.
                reads_per_batch: 64,
                insert_rate: 0.0,
                setups: 11,
            },
            "drift-ingest" => Workload {
                name: "drift-ingest",
                rows: 100_000,
                points: 256,
                ranges: 256,
                k: 0,
                batch_len: 0,
                shards: 1,
                singles: &[Range, Point],
                reads_per_batch: 0,
                insert_rate: 20_000.0,
                setups: 81,
            },
            _ => return None,
        };
        Some(w)
    }

    /// Episodes of a `seconds`-long phase, and the rows each inserts
    /// (see [`EPISODE_S`]). A read-only phase is one episode.
    pub fn episodes(&self, seconds: f64) -> (usize, usize) {
        if self.insert_rate == 0.0 {
            return (1, 0);
        }
        let episodes = (seconds / EPISODE_S).ceil().max(1.0) as usize;
        (episodes, (self.insert_rate * seconds / episodes as f64).round() as usize)
    }

    /// The client's repeating operation cycle: the single reads, then a
    /// batch after every `reads_per_batch` of them.
    pub fn cycle(&self) -> Vec<Op> {
        if self.reads_per_batch == 0 {
            return self.singles.to_vec();
        }
        let singles = self.singles.iter().cycle().take(self.reads_per_batch);
        singles.copied().chain([Op::Batch]).collect()
    }

    /// The workload's `CoaxConfig`: the default, plus the sharding.
    pub fn config(&self, obs: bool) -> CoaxConfig {
        let mut c = CoaxConfig::default();
        if self.shards > 1 {
            c.shard = ShardSpec::range(self.shards, 0);
            c.exec = ExecConfig::default().with_threads(2);
        }
        if !obs {
            c.obs = ObsConfig::disabled();
        }
        c
    }
}

/// The reads and batches a client cycles through.
struct Mix<'a> {
    cycle: &'a [Op],
    points: &'a [Read],
    ranges: &'a [Read],
    /// Each batch as indexes into `ranges`, and as the queries sent.
    batches: &'a [(Vec<usize>, Vec<RangeQuery>)],
}

/// The live writer's progress, read by the client for prefix checks.
struct Progress<'a> {
    /// Stream rows below this id were acknowledged.
    acked: &'a AtomicU32,
    /// Stream rows at or above this id had not been sent.
    issued: &'a AtomicU32,
}

/// The traced run's recorder, the twins it compares against, and what
/// it measured.
struct Tracer {
    rec: Recorder,
    on: Service,
    off: Service,
    layers: Vec<LayerSample>,
    batch_seq_us: Vec<f64>,
}

/// What one closed-loop client measured.
#[derive(Default)]
struct ReadLog {
    point_us: Vec<f64>,
    range_us: Vec<f64>,
    batch_ms: Vec<f64>,
    /// Per query, microseconds, of each batch.
    batch_per_query_us: Vec<f64>,
    reads: usize,
    batches: usize,
    /// Seconds spent inside single-read calls.
    read_s: f64,
    /// Seconds spent inside batch calls.
    batch_s: f64,
    /// `read_s` at every [`MARK_EVERY`]th single read.
    marks: Vec<f64>,
    tally: Tally,
    pending_rows: usize,
    /// Reads kept for the prefix check: (reads of its kind when taken,
    /// the read, acked before it, issued after it, its result).
    prefix: Vec<(usize, Read, RowId, RowId, Vec<RowId>)>,
    prefix_stride: usize,
    /// Where each episode ended, when the phase ran in episodes.
    episodes: Vec<EpisodeEnd>,
}

/// The client's totals when an episode ended.
#[derive(Clone, Copy, Debug)]
struct EpisodeEnd {
    points: usize,
    ranges: usize,
    reads: usize,
    read_s: f64,
}

impl ReadLog {
    fn single_us(&self) -> Vec<f64> {
        self.point_us.iter().chain(&self.range_us).copied().collect()
    }

    /// Appends the log of the next episode.
    fn absorb(&mut self, next: ReadLog) {
        self.point_us.extend(next.point_us);
        self.range_us.extend(next.range_us);
        self.batch_ms.extend(next.batch_ms);
        self.batch_per_query_us.extend(next.batch_per_query_us);
        self.batches += next.batches;
        self.batch_s += next.batch_s;
        self.marks.extend(next.marks.iter().map(|m| m + self.read_s));
        self.reads += next.reads;
        self.read_s += next.read_s;
        self.pending_rows += next.pending_rows;
        self.tally.attempted += next.tally.attempted;
        self.tally.failed += next.tally.failed;
        self.episodes.push(EpisodeEnd {
            points: self.point_us.len(),
            ranges: self.range_us.len(),
            reads: self.reads,
            read_s: self.read_s,
        });
    }

    /// Medians of the point (or range) latencies, one per episode when
    /// the phase ran in episodes, else one per window (see [`p50`]).
    fn p50s(&self, point: bool) -> Result<Vec<f64>, String> {
        let samples = if point { &self.point_us } else { &self.range_us };
        if self.episodes.is_empty() {
            return per_window(samples, 0.5, windows_for(samples.len()));
        }
        let mut from = 0;
        self.episodes
            .iter()
            .map(|e| {
                let to = if point { e.points } else { e.ranges };
                let p = whole_run_quantile(&samples[from..to], 0.5);
                from = to;
                p
            })
            .collect()
    }

    /// Single reads completed per second of the client's time inside
    /// single-read calls (batch calls and the benchmark's own checks left
    /// out), in each episode, or else in each of the windows [`p50`]
    /// would use for this many reads.
    fn read_rates(&self) -> Vec<f64> {
        if !self.episodes.is_empty() {
            let mut from = (0, 0.0);
            return self
                .episodes
                .iter()
                .map(|e| {
                    let rate = (e.reads - from.0) as f64 / (e.read_s - from.1);
                    from = (e.reads, e.read_s);
                    rate
                })
                .collect();
        }
        let windows = windows_for(self.reads);
        let per = self.marks.len() / windows;
        if per == 0 {
            return vec![self.reads as f64 / self.read_s];
        }
        let mut from = 0.0;
        (1..=windows)
            .map(|w| {
                let to = self.marks[w * per - 1];
                let rate = (per * MARK_EVERY) as f64 / (to - from);
                from = to;
                rate
            })
            .collect()
    }
}

/// Runs one closed-loop client until `stop(elapsed seconds)` holds.
fn read_loop(
    svc: &Service,
    mix: &Mix,
    stop: &dyn Fn(f64) -> bool,
    progress: Option<&Progress>,
    mut tracer: Option<&mut Tracer>,
) -> ReadLog {
    let mut log = ReadLog { prefix_stride: CHECK_EVERY, ..Default::default() };
    let (mut next_point, mut next_range, mut next_batch) = (0, 0, 0);
    let mut out = Vec::with_capacity(1 << 14);
    let start = Instant::now();
    for i in 0.. {
        if stop(start.elapsed().as_secs_f64()) {
            break;
        }
        let op = mix.cycle[i % mix.cycle.len()];
        if op == Op::Batch {
            let (ids, queries) = &mix.batches[next_batch % mix.batches.len()];
            next_batch += 1;
            let t0 = Instant::now();
            let results = svc.index().batch_query(queries);
            let t1 = Instant::now();
            let us = (t1 - t0).as_nanos() as f64 / 1e3;
            log.batch_ms.push(us / 1e3);
            log.batch_per_query_us.push(us / queries.len() as f64);
            log.batches += 1;
            log.batch_s += us / 1e6;
            if log.batches % BATCH_EVERY == 0 {
                let refs: Vec<&Read> = ids.iter().map(|&r| &mix.ranges[r]).collect();
                log.tally.add(service::batch_matches(&results, &refs));
                if let Some(t) = tracer.as_deref_mut() {
                    let op = t.rec.next_op();
                    let trace = &mut t.rec.trace;
                    let root = trace.record(op, None, "batch.query", t0, t1);
                    let (seq, _) = trace.span(op, Some(root), "batch.sequential", || {
                        for q in queries {
                            out.clear();
                            svc.index().range_query_stats(q, &mut out);
                        }
                    });
                    t.batch_seq_us.push(trace.us(seq) / queries.len() as f64);
                }
            }
            continue;
        }
        // Checks and traces count reads per kind, so a cycle's period
        // cannot alias them onto one kind.
        let (read, n) = if op == Op::Point {
            next_point += 1;
            (&mix.points[(next_point - 1) % mix.points.len()], next_point)
        } else {
            next_range += 1;
            (&mix.ranges[(next_range - 1) % mix.ranges.len()], next_range)
        };
        out.clear();
        let acked = progress.map_or(0, |p| p.acked.load(Ordering::SeqCst));
        let t0 = Instant::now();
        let stats = read.run(svc.index(), &mut out);
        let us = t0.elapsed().as_nanos() as f64 / 1e3;
        let issued = progress.map_or(0, |p| p.issued.load(Ordering::SeqCst));
        if op == Op::Point {
            log.point_us.push(us);
        } else {
            log.range_us.push(us);
        }
        log.reads += 1;
        log.read_s += us / 1e6;
        if log.reads % MARK_EVERY == 0 {
            log.marks.push(log.read_s);
        }
        log.pending_rows += stats.scanned_pending;
        if progress.is_none() {
            if n % CHECK_EVERY == 0 {
                log.tally.add(check::same_set(&out, &read.reference));
            }
        } else if n % log.prefix_stride == 0 {
            log.prefix.push((n, read.clone(), acked, issued, out.clone()));
            if log.prefix.len() == PREFIX_CAP {
                // Keep every other sample and halve the rate, so the
                // kept samples stay spread over the whole phase.
                log.prefix_stride *= 2;
                let stride = log.prefix_stride;
                log.prefix.retain(|s| s.0 % stride == 0);
            }
        }
        if let Some(t) = tracer.as_deref_mut() {
            if n % TRACE_EVERY == 0 {
                t.layers.push(service::decompose(svc, &t.on, &t.off, read, &mut t.rec));
            }
        }
    }
    log
}

/// What the open-loop writer measured.
struct WriteLog {
    timings: Vec<Timing>,
    /// Each tick's action with its start and end.
    ticks: Vec<(MaintenanceAction, Instant, Instant)>,
    failed: usize,
    origin: Instant,
    period_ns: u64,
    burst: usize,
}

impl WriteLog {
    fn ticks(&self, action: MaintenanceAction) -> impl Iterator<Item = f64> + '_ {
        self.ticks
            .iter()
            .filter(move |t| t.0 == action)
            .map(|t| (t.2 - t.1).as_secs_f64() * 1e3)
    }
}

/// Sets `done` when dropped, so a panicking writer still stops the
/// reader.
struct DoneOnDrop<'a>(&'a AtomicBool);

impl Drop for DoneOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

/// Inserts stream rows `build..build + inserts` open loop at `rate`
/// rows/s in bursts every [`BURST_S`], ticking the maintainer inline
/// every [`TICK_EVERY`] inserts.
fn write_stream(
    handle: &Arc<IndexHandle>,
    stream: &Dataset,
    build: usize,
    inserts: usize,
    rate: f64,
    progress: &Progress,
) -> WriteLog {
    let maintainer = Maintainer::new(Arc::clone(handle));
    let origin = Instant::now();
    let period_ns = (1e9 / rate) as u64;
    let burst = ((rate * BURST_S).round() as usize).max(1);
    let mut clock = WallClock(origin);
    let mut row = Vec::with_capacity(stream.dims());
    let mut failed = 0;
    let mut ticks = Vec::new();
    let timings = openloop::run(
        inserts,
        period_ns,
        burst,
        &mut clock,
        |k, _| {
            let id = (build + k) as RowId;
            stream.row_into(id, &mut row);
            progress.issued.store(id + 1, Ordering::SeqCst);
            failed += usize::from(handle.insert(&row) != Ok(id));
            progress.acked.store(id + 1, Ordering::SeqCst);
        },
        |k, _| {
            if (k + 1) % TICK_EVERY == 0 {
                let t0 = Instant::now();
                let outcome = maintainer.tick();
                ticks.push((outcome.action, t0, Instant::now()));
            }
        },
    );
    WriteLog { timings, ticks, failed, origin, period_ns, burst }
}

/// One measured phase: the client's log, the writer's of each episode
/// (none when read-only), and the service as the phase left it.
struct Phase {
    reads: ReadLog,
    writes: Vec<WriteLog>,
    svc: Service,
}

impl Phase {
    fn ops(&self) -> usize {
        self.reads.reads
            + self.reads.batches
            + self.writes.iter().map(|w| w.timings.len()).sum::<usize>()
    }

    fn failed(&self) -> usize {
        self.reads.tally.failed + self.writes.iter().map(|w| w.failed).sum::<usize>()
    }

    fn ticks(&self, action: MaintenanceAction) -> Vec<f64> {
        self.writes.iter().flat_map(|w| w.ticks(action)).collect()
    }

    fn timings(&self) -> impl Iterator<Item = &Timing> {
        self.writes.iter().flat_map(|w| &w.timings)
    }
}

/// The drifting stream a writer replays, and the stationary rows each
/// episode's fresh handle is set up on.
struct Stream<'a> {
    rows: &'a Dataset,
    stream: &'a Dataset,
    /// Rows inserted per episode.
    inserts: usize,
    episodes: usize,
}

/// Runs the workload's clients against `svc` for one phase; with a
/// stream, in episodes, the first on `svc` and each later one on a fresh
/// set-up from the same rows.
fn phase(
    w: &Workload,
    svc: Service,
    mix: &Mix,
    stream: Option<&Stream>,
    seconds: f64,
    mut tracer: Option<&mut Tracer>,
) -> Result<Phase, String> {
    let Some(st) = stream else {
        // Untimed warm-up: caches, the allocator and thread stacks settle.
        read_loop(&svc, mix, &|t| t >= WARMUP_S, None, None);
        let reads = read_loop(&svc, mix, &|t| t >= seconds, None, tracer);
        return Ok(Phase { reads, writes: Vec::new(), svc });
    };
    let mut reads = ReadLog::default();
    let mut writes = Vec::new();
    let mut svc = svc;
    for e in 0..st.episodes {
        if e > 0 {
            svc = service::set_up(st.rows, &w.config(true)).service;
        }
        let Service::Handle(handle) = &svc else {
            return Err("the writer needs an unsharded handle".into());
        };
        let (acked, issued) = (AtomicU32::new(w.rows as u32), AtomicU32::new(w.rows as u32));
        let progress = Progress { acked: &acked, issued: &issued };
        let done = AtomicBool::new(false);
        let (mut episode, written) = std::thread::scope(|s| {
            let writer = s.spawn(|| {
                let _done = DoneOnDrop(&done);
                write_stream(handle, st.stream, w.rows, st.inserts, w.insert_rate, &progress)
            });
            let reads = read_loop(
                &svc,
                mix,
                &|_| done.load(Ordering::SeqCst),
                Some(&progress),
                tracer.as_deref_mut(),
            );
            (reads, writer.join())
        });
        writes.push(written.map_err(|_| "the writer panicked".to_string())?);
        for (_, read, acked, issued, ids) in std::mem::take(&mut episode.prefix) {
            let ok = check::check_prefix(&ids, acked, issued, |id| {
                read.query.matches_row(st.stream, id)
            });
            episode.tally.add(ok.is_ok());
        }
        reads.absorb(episode);
    }
    Ok(Phase { reads, writes, svc })
}

/// Everything one run measured, before it is reduced to metrics.
struct Collected {
    /// FNV digest of the generated rows and queries.
    digest: u64,
    /// (discovery, build) seconds of each set-up.
    setup: Vec<(f64, f64)>,
    counts: service::Counts,
    plain: Phase,
    traced: Option<(Phase, Tracer)>,
    attempted: usize,
    failed: usize,
}

impl Collected {
    /// The phase whose final index state the counts were taken on.
    fn last(&self) -> &Phase {
        self.traced.as_ref().map_or(&self.plain, |(p, _)| p)
    }
}

/// Generates the inputs, sets up, checks answers before timing, and
/// runs the measured phases (a second, traced one when `traced`).
fn collect(w: &Workload, seed: u64, seconds: f64, traced: bool) -> Result<Collected, String> {
    // --- inputs (not timed) ------------------------------------------
    let drift = w.insert_rate > 0.0;
    let (episodes, inserts) = w.episodes(seconds);
    let (stream, rows) = if drift {
        // The intercept ramps over as many rows as the index is built on
        // (the `maint` bin's shape), whatever part of it an episode
        // inserts, so the drift per insert does not depend on --seconds.
        let stream = inputs::drift_stream(w.rows, inserts.max(w.rows), seed);
        let prefix: Vec<RowId> = (0..w.rows as RowId).collect();
        let rows = stream.take_rows(&prefix);
        (Some(stream), rows)
    } else {
        (None, inputs::airline(w.rows, seed))
    };
    let mut points = inputs::point_reads(&rows, w.points, seed);
    let mut ranges = if drift {
        inputs::band_reads(&rows, w.ranges, 40.0, seed)
    } else {
        inputs::knn_reads(&rows, w.ranges, w.k, seed)
    };
    inputs::fill_references(
        &rows,
        &mut points.iter_mut().chain(ranges.iter_mut()).collect::<Vec<_>>(),
    );
    let batches: Vec<(Vec<usize>, Vec<RangeQuery>)> =
        (0..ranges.len().checked_div(w.batch_len).unwrap_or(0))
            .map(|b| {
                let ids: Vec<usize> = (b * w.batch_len..(b + 1) * w.batch_len).collect();
                let queries = ids.iter().map(|&i| ranges[i].query.clone()).collect();
                (ids, queries)
            })
            .collect();
    let all_reads: Vec<&Read> = points.iter().chain(&ranges).collect();
    let digest = inputs::digest(stream.as_ref().unwrap_or(&rows), &all_reads);

    // --- set-up, repeated; the last one is kept -----------------------
    let config = w.config(true);
    let mut setup = Vec::new();
    let mut last = None;
    for _ in 0..w.setups {
        // Drop the previous index first: two 2 M-row builds need not coexist.
        drop(last.take());
        let s = service::set_up(&rows, &config);
        setup.push((s.discovery_s, s.build_s));
        last = Some(s.service);
    }
    let svc = last.ok_or("no set-up ran")?;

    // --- twins and checks before timing -------------------------------
    let twins = if traced {
        let on = if drift { service::set_up(&rows, &config).service } else { svc.clone() };
        let off = service::set_up(&rows, &w.config(false)).service;
        Some((on, off))
    } else {
        None
    };
    let twin_refs: Vec<&Service> = twins.iter().flat_map(|(a, b)| [a, b]).collect();
    let mut checks = service::check_before_timing(&svc, &twin_refs, &all_reads);
    for (ids, queries) in &batches {
        let refs: Vec<&Read> = ids.iter().map(|&r| &ranges[r]).collect();
        checks.add(service::batch_matches(&svc.index().batch_query(queries), &refs));
    }
    let cycle = w.cycle();
    let mix = Mix { cycle: &cycle, points: &points, ranges: &ranges, batches: &batches };
    let stream =
        stream.as_ref().map(|stream| Stream { rows: &rows, stream, inserts, episodes });

    // --- measured phases ----------------------------------------------
    let plain = phase(w, svc, &mix, stream.as_ref(), seconds, None)?;
    let mut last_svc = plain.svc.clone();
    let traced = match twins {
        None => None,
        Some((on, off)) => {
            let mut tracer = Tracer {
                rec: Recorder::new(Instant::now()),
                on,
                off,
                layers: Vec::new(),
                batch_seq_us: Vec::new(),
            };
            if drift {
                // The writer starts over on a fresh handle from the same rows.
                last_svc = service::set_up(&rows, &config).service;
            }
            let p = phase(w, last_svc, &mix, stream.as_ref(), seconds, Some(&mut tracer))?;
            for wl in &p.writes {
                record_writer_spans(&mut tracer.rec, wl);
            }
            last_svc = p.svc.clone();
            Some((p, tracer))
        }
    };
    let batch_queries: Vec<Vec<RangeQuery>> = batches.into_iter().map(|(_, q)| q).collect();
    let counts = service::counts(&last_svc, &all_reads, &batch_queries);
    let phases = std::iter::once(&plain).chain(traced.as_ref().map(|(p, _)| p));
    let (ops, failed) = phases.fold((0, 0), |(o, f), p| (o + p.ops(), f + p.failed()));
    Ok(Collected {
        digest,
        setup,
        counts,
        attempted: ops + checks.attempted,
        failed: failed + checks.failed,
        plain,
        traced,
    })
}

/// Adds spans for a sample of the writer's inserts and for every tick.
fn record_writer_spans(rec: &mut Recorder, wl: &WriteLog) {
    for (k, t) in wl.timings.iter().enumerate().step_by(INSERT_SPAN_EVERY) {
        let due = openloop::due_ns(k, wl.period_ns, wl.burst);
        let sent = wl.origin + Duration::from_nanos(due + t.late_ns);
        let done = sent + Duration::from_nanos(t.busy_ns);
        let op = rec.next_op();
        rec.trace.record(op, None, "handle.insert", sent, done);
    }
    for (action, t0, t1) in &wl.ticks {
        let name = match action {
            MaintenanceAction::Fold => "maint.tick.fold",
            MaintenanceAction::Refit => "maint.tick.refit",
            MaintenanceAction::None => "maint.tick.none",
        };
        let op = rec.next_op();
        rec.trace.record(op, None, name, *t0, *t1);
    }
}

/// The median of `samples` as reported: the median of the per-window
/// medians (see [`windows_for`]), so seconds of neighbour load move a
/// few windows rather than the result.
fn p50(samples: &[f64]) -> Result<f64, String> {
    windowed_quantile(samples, 0.5, windows_for(samples.len()))
}

/// The p99 of `samples` as reported: over the whole run, so a stall is
/// counted however few windows it lands in.
fn p99(samples: &[f64]) -> Result<f64, String> {
    whole_run_quantile(samples, 0.99)
}

/// A reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The outcome of one run.
pub struct Report {
    /// The metrics the run's mode reports.
    pub metrics: Vec<Metric>,
    /// Operations attempted, checks before timing included.
    pub attempted: usize,
    /// Operations that erred or answered wrongly.
    pub failed: usize,
    /// Human-readable lines for standard error.
    pub notes: Vec<String>,
    /// Span records of the traced run, one JSON object per line.
    pub spans: Option<String>,
}

/// Runs workload `w` with `seed` for `seconds` per measured phase and
/// reduces it to the end-to-end metrics, or with `traced` to the
/// per-layer ones.
pub fn run(w: &Workload, seed: u64, seconds: f64, traced: bool) -> Result<Report, String> {
    let c = collect(w, seed, seconds, traced)?;
    let last = c.last();
    let mut notes = vec![
        format!("inputs_digest={:016x}", c.digest),
        format!(
            "counts: index_bytes={} primary.rows_examined={} primary.cells={} \
             outliers.rows_examined={} maint.folds={} maint.refits={}",
            c.counts.index_bytes,
            c.counts.primary_rows,
            c.counts.primary_cells,
            c.counts.outlier_rows,
            last.ticks(MaintenanceAction::Fold).len(),
            last.ticks(MaintenanceAction::Refit).len(),
        ),
    ];
    let r = &c.plain.reads;
    notes.push(format!(
        "client time: {:.2} s in single reads ({:.0} %), {:.2} s in batches",
        r.read_s,
        100.0 * r.read_s / (r.read_s + r.batch_s),
        r.batch_s
    ));
    let m = |name, value, unit| Metric { name, value, unit };
    let metrics = match &c.traced {
        None => {
            let r = &c.plain.reads;
            let per = if r.episodes.is_empty() { "window" } else { "episode" };
            for (name, point) in [("point", true), ("range", false)] {
                let w: Vec<String> = r.p50s(point)?.iter().map(|v| format!("{v:.1}")).collect();
                notes.push(format!("{name} p50 per {per}: {}", w.join(" ")));
            }
            let w: Vec<String> = r.read_rates().iter().map(|v| format!("{v:.0}")).collect();
            notes.push(format!("read rate per {per}: {}", w.join(" ")));
            vec![
                m(
                    "setup_s",
                    median(&c.setup.iter().map(|(d, b)| d + b).collect::<Vec<_>>()),
                    "s",
                ),
                m("index_bytes", c.counts.index_bytes, "bytes"),
                m("point_p50_us", median(&r.p50s(true)?), "us"),
                m("range_p50_us", median(&r.p50s(false)?), "us"),
                m("read_qps", median(&r.read_rates()), "1/s"),
            ]
        }
        Some((traced, tracer)) => layer_metrics(&c, traced, tracer, &mut notes)?,
    };
    let spans = c.traced.map(|(_, t)| t.rec.trace.to_jsonl());
    Ok(Report { metrics, attempted: c.attempted, failed: c.failed, notes, spans })
}

/// The per-layer metrics of a traced run: counts, the traced phase's
/// decomposition, and the plain phase's tails, batch and insert
/// latencies.
fn layer_metrics(
    c: &Collected,
    traced: &Phase,
    t: &Tracer,
    notes: &mut Vec<String>,
) -> Result<Vec<Metric>, String> {
    let m = |name, value, unit| Metric { name, value, unit };
    let layer = |f: fn(&LayerSample) -> f64| mean(&t.layers.iter().map(f).collect::<Vec<_>>());
    // Medians: the twins' difference is small beside their tails.
    let obs = |point: bool| {
        let of = |f: fn(&LayerSample) -> f64| {
            median(&t.layers.iter().filter(|s| s.point == point).map(f).collect::<Vec<_>>())
        };
        of(|s| s.obs_on) - of(|s| s.obs_off)
    };
    let plain = &c.plain;
    let (batch_qps, batch_p50, batch_p99) = if plain.reads.batches > 0 {
        let r = &plain.reads;
        (r.batches as f64 / r.batch_s, p50(&r.batch_ms)?, p99(&r.batch_ms)?)
    } else {
        (0.0, 0.0, 0.0)
    };
    let us = |ns: u64| ns as f64 / 1e3;
    let (insert_p50, insert_p99, late_p99, busy) = if plain.writes.is_empty() {
        (0.0, 0.0, 0.0, 0.0)
    } else {
        let lat: Vec<f64> = plain.timings().map(|t| us(t.latency_ns)).collect();
        let late: Vec<f64> = plain.timings().map(|t| us(t.late_ns) / 1e3).collect();
        let busy: Vec<f64> = traced.timings().map(|t| us(t.busy_ns)).collect();
        (p50(&lat)?, p99(&lat)?, p99(&late)?, mean(&busy))
    };
    let mut timed = t.rec.xcheck.timed_us.clone();
    timed.sort_by(f64::total_cmp);
    let timed_p50 = quantile(&timed, 0.5)?;
    let recorded_p50 = t.rec.xcheck.recorded.quantile(0.5) as f64;
    notes.push(format!(
        "xcheck: benchmark-timed handle p50 {timed_p50:.3} us vs coax.handle.query_us p50 \
         {recorded_p50} us over {} calls",
        timed.len()
    ));
    let counts = &c.counts;
    let (fold, refit) =
        (traced.ticks(MaintenanceAction::Fold), traced.ticks(MaintenanceAction::Refit));
    Ok(vec![
        m("discovery.s", median(&c.setup.iter().map(|s| s.0).collect::<Vec<_>>()), "s"),
        m("build.s", median(&c.setup.iter().map(|s| s.1).collect::<Vec<_>>()), "s"),
        m("index.primary_bytes", counts.primary_bytes, "bytes"),
        m("index.outlier_bytes", counts.outlier_bytes, "bytes"),
        m("shard.id_table_bytes", counts.id_table_bytes, "bytes"),
        m("index.outlier_frac", counts.outlier_frac, "fraction"),
        m("plan.us", layer(|s| s.plan), "us"),
        m("primary.us", layer(|s| s.primary), "us"),
        m("primary.rows_examined", counts.primary_rows, "rows"),
        m("primary.cells", counts.primary_cells, "cells"),
        m("outliers.us", layer(|s| s.outliers), "us"),
        m("outliers.rows_examined", counts.outlier_rows, "rows"),
        m("exec.self_us", layer(|s| s.exec_self), "us"),
        m("exec.effectiveness", counts.effectiveness, "fraction"),
        m("obs.point_overhead_us", obs(true), "us"),
        m("obs.range_overhead_us", obs(false), "us"),
        m("handle.self_us", layer(|s| s.handle_self), "us"),
        m(
            "handle.overlay_rows_per_read",
            traced.reads.pending_rows as f64 / traced.reads.reads.max(1) as f64,
            "rows",
        ),
        m("handle.insert_busy_us", busy, "us"),
        m("maint.folds", fold.len() as f64, "count"),
        m("maint.refits", refit.len() as f64, "count"),
        m("maint.fold_ms", mean(&fold), "ms"),
        m("maint.refit_ms", mean(&refit), "ms"),
        m("shard.self_us", layer(|s| s.shard_self), "us"),
        m("shard.visited_per_query", counts.visited_per_query, "shards"),
        m("shard.useful_frac", counts.useful_frac, "fraction"),
        m("batch.per_query_us", mean(&traced.reads.batch_per_query_us), "us"),
        m("batch.sequential_per_query_us", mean(&t.batch_seq_us), "us"),
        m("batch.probe_share", counts.probe_share, "fraction"),
        m("point_p99_us", p99(&plain.reads.point_us)?, "us"),
        m("range_p99_us", p99(&plain.reads.range_us)?, "us"),
        m("batch_qps", batch_qps, "1/s"),
        m("batch_p50_ms", batch_p50, "ms"),
        m("batch_p99_ms", batch_p99, "ms"),
        m("insert_p50_us", insert_p50, "us"),
        m("insert_p99_us", insert_p99, "us"),
        m("gen.late_p99_ms", late_p99, "ms"),
        m("xcheck.handle_p50_us", timed_p50, "us"),
        m("xcheck.recorded_handle_p50_us", recorded_p50, "us"),
        m(
            "trace.overhead_frac",
            mean(&traced.reads.single_us()) / mean(&plain.reads.single_us()) - 1.0,
            "fraction",
        ),
        m("failed_frac", c.failed as f64 / c.attempted.max(1) as f64, "fraction"),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A workload shrunk to test size: same shape, few rows, one set-up.
    fn tiny(name: &str, rows: usize, ranges: usize) -> Workload {
        let w = Workload::named(name).expect("known workload");
        Workload { rows, points: 16, ranges, setups: 1, ..w }
    }

    fn repeat(w: &Workload, insert_rate: f64) {
        let w = Workload { insert_rate, ..w.clone() };
        let a = collect(&w, 11, 1.0, false).expect("first run");
        let b = collect(&w, 11, 1.0, false).expect("second run");
        assert_eq!(a.digest, b.digest, "{}: inputs differ", w.name);
        assert_eq!(a.counts, b.counts, "{}: counts differ", w.name);
        for action in [MaintenanceAction::Fold, MaintenanceAction::Refit] {
            assert_eq!(a.plain.ticks(action).len(), b.plain.ticks(action).len(), "{}", w.name);
        }
        assert_eq!((a.failed, b.failed), (0, 0), "{}: wrong answers", w.name);
        assert!(a.counts.index_bytes > 0.0 && a.counts.primary_rows > 0.0, "{}", w.name);
        let c = collect(&w, 12, 1.0, false).expect("third run");
        assert_ne!(a.digest, c.digest, "{}: another seed, same inputs", w.name);
    }

    #[test]
    fn an_episode_phase_reports_a_median_and_a_rate_per_episode() {
        let episode = |us: f64| ReadLog {
            range_us: vec![us; 30],
            reads: 30,
            read_s: 30.0 * us / 1e6,
            ..Default::default()
        };
        let mut log = ReadLog::default();
        for us in [10.0, 40.0, 11.0] {
            log.absorb(episode(us));
        }
        assert_eq!(log.p50s(false), Ok(vec![10.0, 40.0, 11.0]));
        let rates: Vec<f64> = log.read_rates().iter().map(|r| r.round()).collect();
        assert_eq!(rates, [100_000.0, 25_000.0, 90_909.0]);
        // One slow episode of three leaves the reported median alone.
        assert_eq!(median(&log.p50s(false).unwrap()), 11.0);
    }

    #[test]
    fn one_seed_repeats_inputs_and_counts() {
        repeat(&tiny("read-mix", 4000, 8), 0.0);
        repeat(&Workload { batch_len: 16, ..tiny("sharded-mix", 4000, 64) }, 0.0);
        // 9000 inserts: two maintenance ticks.
        let drift = Workload { batch_len: 0, ..tiny("drift-ingest", 3000, 8) };
        let a = collect(&Workload { insert_rate: 9000.0, ..drift.clone() }, 11, 1.0, false)
            .expect("drift run");
        let ticks: usize = a.plain.writes.iter().map(|w| w.ticks.len()).sum();
        assert_eq!(ticks, 2);
        repeat(&drift, 9000.0);
    }
}
