//! Workload inputs, generated from the run's seed alone: the same seed
//! gives the same rows and queries, and the program under test receives
//! nothing else.

use coax_data::synth::{AirlineConfig, DriftingLinearConfig, Generator};
use coax_data::workload::{knn_rectangle_queries, point_queries};
use coax_data::{Dataset, RangeQuery, RowId, Value};
use coax_index::{FullScan, MultidimIndex};

/// One single-query read: a point lookup or a range query.
#[derive(Clone, Debug)]
pub struct Read {
    /// The query; a degenerate rectangle for a point lookup.
    pub query: RangeQuery,
    /// The looked-up record when this is a point read (sent through
    /// `point_query_stats`).
    pub point: Option<Vec<Value>>,
    /// Ascending ids a full scan of the set-up rows returns.
    pub reference: Vec<RowId>,
}

impl Read {
    fn range(query: RangeQuery) -> Self {
        Self { query, point: None, reference: Vec::new() }
    }

    fn point(values: Vec<Value>) -> Self {
        Self { query: RangeQuery::point(&values), point: Some(values), reference: Vec::new() }
    }

    /// Answers the read through the trait's public entry point for its
    /// kind.
    pub fn run(
        &self,
        index: &dyn MultidimIndex,
        out: &mut Vec<RowId>,
    ) -> coax_index::ScanStats {
        match &self.point {
            Some(p) => index.point_query_stats(p, out),
            None => index.range_query_stats(&self.query, out),
        }
    }
}

/// A sub-seed per input stream, so changing one stream's size never
/// shifts another's draws.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The airline analogue: 8 columns, two soft-FD groups, ~8 % outliers.
pub fn airline(rows: usize, seed: u64) -> Dataset {
    AirlineConfig::small(rows, sub_seed(seed, 1)).generate()
}

/// Point reads at existing records.
pub fn point_reads(rows: &Dataset, count: usize, seed: u64) -> Vec<Read> {
    point_queries(rows, count, sub_seed(seed, 2))
        .into_iter()
        .map(|q| Read::point(q.lows().to_vec()))
        .collect()
}

/// Rows a KNN-box generator measures distances against: one in this
/// many. Exact boxes cost a pass over every row per query, too slow for
/// hundreds of distinct queries over 2 M rows.
const KNN_THIN: usize = 10;

/// KNN-box range reads (§8.1.2): each the bounding box of the `k /
/// KNN_THIN` nearest rows, within a 1-in-`KNN_THIN` sample of `rows`,
/// to a random anchor — about `k` rows of the full set. Generated in two
/// halves on two threads.
pub fn knn_reads(rows: &Dataset, count: usize, k: usize, seed: u64) -> Vec<Read> {
    let sample: Vec<RowId> = (0..rows.len() as RowId).step_by(KNN_THIN).collect();
    let sample = rows.take_rows(&sample);
    let k = (k / KNN_THIN).max(1);
    let halves = [count / 2, count - count / 2];
    let parts: Vec<Vec<RangeQuery>> = std::thread::scope(|s| {
        let workers: Vec<_> = halves
            .iter()
            .enumerate()
            .map(|(h, &n)| {
                let sample = &sample;
                s.spawn(move || {
                    knn_rectangle_queries(sample, n, k, sub_seed(seed, 3 + h as u64))
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("query generator panicked")).collect()
    });
    parts.into_iter().flatten().map(Read::range).collect()
}

/// The drifting stream: `build` stationary rows, then `inserts` rows
/// whose planted intercept ramps from 25 to 55 (columns `x`, `y`, `z`).
pub fn drift_stream(build: usize, inserts: usize, seed: u64) -> Dataset {
    DriftingLinearConfig {
        rows: build + inserts,
        drift_after: build,
        x_range: (0.0, 1000.0),
        start: (2.0, 25.0),
        end: (2.0, 55.0),
        noise_sigma: 4.0,
        outlier_fraction: 0.01,
        outlier_offset_sigmas: 25.0,
        independent: vec![(0.0, 100.0)],
        seed: sub_seed(seed, 5),
    }
    .generate()
}

/// Range reads constraining only the dependent attribute `y` (column 1)
/// to a band of `width`, placed uniformly over the stationary range.
pub fn band_reads(rows: &Dataset, count: usize, width: Value, seed: u64) -> Vec<Read> {
    let (lo, hi) = rows.min_max(1).expect("non-empty stream");
    let mut state = sub_seed(seed, 6);
    (0..count)
        .map(|_| {
            state = sub_seed(state, 7);
            let u = (state >> 11) as f64 / (1u64 << 53) as f64;
            let y0 = lo + (hi - lo - width) * u;
            let mut q = RangeQuery::unbounded(rows.dims());
            q.constrain(1, y0, y0 + width);
            Read::range(q)
        })
        .collect()
}

/// Fills every read's full-scan reference over `rows`, on two threads.
pub fn fill_references(rows: &Dataset, reads: &mut [&mut Read]) {
    let scan = FullScan::build(rows);
    let mid = reads.len() / 2;
    let (a, b) = reads.split_at_mut(mid);
    std::thread::scope(|s| {
        for half in [a, b] {
            let scan = &scan;
            s.spawn(move || {
                for r in half.iter_mut() {
                    let mut ids = Vec::new();
                    scan.range_query_stats(&r.query, &mut ids);
                    ids.sort_unstable();
                    r.reference = ids;
                }
            });
        }
    });
}

/// FNV-1a over the rows and queries, printed with every run so two runs
/// can be shown to have received identical inputs.
pub fn digest(rows: &Dataset, reads: &[&Read]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bits: u64| {
        for b in bits.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for d in 0..rows.dims() {
        rows.column(d).iter().for_each(|v| eat(v.to_bits()));
    }
    for r in reads {
        r.query.lows().iter().chain(r.query.highs()).for_each(|v| eat(v.to_bits()));
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_gives_identical_inputs_and_another_does_not() {
        let make = |seed| {
            let rows = airline(3000, seed);
            let mut reads = point_reads(&rows, 20, seed);
            reads.extend(knn_reads(&rows, 9, 50, seed));
            let stream = drift_stream(500, 300, seed);
            let bands = band_reads(&stream, 10, 40.0, seed);
            let all: Vec<&Read> = reads.iter().chain(&bands).collect();
            (digest(&rows, &all), digest(&stream, &[]), reads.len())
        };
        assert_eq!(make(7), make(7));
        assert_ne!(make(7).0, make(8).0);
        assert_ne!(make(7).1, make(8).1);
        assert_eq!(make(7).2, 29);
    }

    #[test]
    fn references_match_a_direct_scan() {
        let rows = airline(2000, 3);
        let mut reads = point_reads(&rows, 5, 3);
        reads.extend(knn_reads(&rows, 4, 30, 3));
        fill_references(&rows, &mut reads.iter_mut().collect::<Vec<_>>());
        for r in &reads {
            let direct: Vec<RowId> =
                rows.row_ids().filter(|&id| r.query.matches_row(&rows, id)).collect();
            assert_eq!(r.reference, direct);
            assert!(!r.reference.is_empty(), "every query lands on existing rows");
        }
    }
}
