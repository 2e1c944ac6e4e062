//! Integration tests for the update path (§5's Bayesian update story +
//! §9 future work) through `IndexHandle`, the one write path: insert →
//! overlay queries → fold/refit → model refresh, plus the
//! maintenance-equivalence property behind the fold/refit split: `fold()`
//! and `refit()` must answer every query exactly like the never-folded
//! handle. Routing is read off the fold: the primary/outlier partition
//! sizes of the folded epoch grow by the rows each verdict sent there.

use coax::core::{CoaxConfig, IndexHandle, OutlierBackend, PrimaryBackend};
use coax::data::synth::{Generator, LinearPairConfig};
use coax::data::RangeQuery;
use coax::index::{BackendSpec, FullScan, MultidimIndex};

fn planted(rows: usize, seed: u64) -> coax::data::Dataset {
    LinearPairConfig {
        rows,
        slope: 2.0,
        intercept: 10.0,
        noise_sigma: 4.0,
        outlier_fraction: 0.05,
        seed,
        ..Default::default()
    }
    .generate()
}

fn sorted(mut v: Vec<u32>) -> Vec<u32> {
    v.sort_unstable();
    v
}

#[test]
fn inserted_rows_are_visible_before_and_after_rebuild() {
    let ds = planted(10_000, 1);
    let index = IndexHandle::build(&ds, &CoaxConfig::default());
    let built = index.snapshot();
    assert!(!built.frozen().groups().is_empty());

    let rows: Vec<Vec<f64>> = (0..50)
        .map(|i| {
            let x = 13.0 * i as f64 % 1000.0;
            vec![x, 2.0 * x + 10.0]
        })
        .collect();
    let mut ids = Vec::new();
    for row in &rows {
        ids.push(index.insert(row).unwrap());
    }
    assert_eq!(index.pending_len(), 50);

    for (row, id) in rows.iter().zip(&ids) {
        assert!(index.range_query(&RangeQuery::point(row)).contains(id));
    }

    index.fold();
    let routed = index.snapshot().frozen().primary_len() - built.frozen().primary_len();
    assert_eq!(routed, 50, "on-line rows route to primary");

    index.refit();
    assert_eq!(index.pending_len(), 0);
    let snapshot = index.snapshot();
    let rebuilt = snapshot.frozen();
    for (row, id) in rows.iter().zip(&ids) {
        assert!(rebuilt.range_query(&RangeQuery::point(row)).contains(id));
    }
    // The folded-in rows landed in the primary partition.
    assert_eq!(rebuilt.primary_len() + rebuilt.outlier_len(), ds.len() + 50);
}

#[test]
fn outlier_inserts_route_to_outlier_partition() {
    let ds = planted(10_000, 2);
    let index = IndexHandle::build(&ds, &CoaxConfig::default());
    let built = index.snapshot();
    let before_outliers = built.frozen().outlier_len();
    for i in 0..20 {
        let x = 50.0 * i as f64 % 1000.0;
        index.insert(&[x, 2.0 * x + 10.0 + 5000.0]).unwrap(); // far off the band
    }
    index.fold();
    let routed = index.snapshot().frozen().primary_len() - built.frozen().primary_len();
    assert_eq!(routed, 0);
    index.refit();
    let snapshot = index.snapshot();
    let rebuilt = snapshot.frozen();
    assert!(
        rebuilt.outlier_len() >= before_outliers + 20,
        "gross outliers must land in the outlier index"
    );
}

#[test]
fn posterior_update_tracks_a_drifting_stream() {
    // Build on data with slope 2, then stream in many rows with slope
    // 2.2; after rebuild the refreshed model should sit between the two,
    // pulled towards the new evidence.
    let ds = planted(5_000, 3);
    let index = IndexHandle::build(&ds, &CoaxConfig::default());
    let model = index.snapshot().frozen().groups()[0].models[0].clone();
    let slope_before = model.as_linear().expect("linear model").params.slope.abs();
    for i in 0..5_000 {
        let x = (i as f64 * 7.7) % 1000.0;
        // Keep drifted rows inside the current margins so the posterior
        // actually sees them.
        let drift = (0.2 * x).min(model.margin_width() * 0.45);
        let y = model.predict(x) + drift;
        let _ = index.insert(&[x, y]).unwrap();
    }
    index.refit();
    let snapshot = index.snapshot();
    let rebuilt = snapshot.frozen();
    let slope_after =
        rebuilt.groups()[0].models[0].as_linear().expect("linear model").params.slope.abs();
    assert!(slope_after != slope_before, "posterior refresh must move the model");
    // And the rebuilt index still answers exactly.
    let fs_rows = rebuilt.len();
    let all = rebuilt.range_query(&RangeQuery::unbounded(2));
    assert_eq!(all.len(), fs_rows);
}

/// Property-style seeded sweep: across primary×outlier backend
/// combinations and seeds, a mixed insert stream followed by (a) nothing,
/// (b) `fold()` — models frozen — or (c) `refit()` must answer every
/// query identically, and identically to a full scan over the logical
/// table. Each stage is read through its own snapshot.
#[test]
fn fold_refit_and_no_rebuild_agree_across_backend_combos() {
    let combos: Vec<(PrimaryBackend, OutlierBackend)> = vec![
        (PrimaryBackend::GridFile, OutlierBackend::GridFile),
        (PrimaryBackend::RTree { capacity: 10 }, OutlierBackend::GridFile),
        (PrimaryBackend::GridFile, OutlierBackend::RTree { capacity: 8 }),
        (
            PrimaryBackend::Custom(BackendSpec::UniformGrid { cells_per_dim: 6 }),
            OutlierBackend::Custom(BackendSpec::FullScan),
        ),
    ];
    for (combo_i, (primary, outlier)) in combos.into_iter().enumerate() {
        for seed in [21u64, 22] {
            let ds = planted(4000, seed);
            let cfg = CoaxConfig {
                primary_backend: primary.clone(),
                outlier_backend: outlier,
                ..Default::default()
            };
            let handle = IndexHandle::build(&ds, &cfg);
            // A seeded mixed stream: in-band, gross-outlier, and
            // near-margin rows.
            let mut logical: Vec<Vec<f64>> = (0..ds.len() as u32).map(|r| ds.row(r)).collect();
            let model = handle.snapshot().frozen().groups()[0].models[0].clone();
            for i in 0..150 {
                let x = ((seed as f64 + i as f64) * 37.3) % 1000.0;
                let y = match i % 4 {
                    0 => model.predict(x),
                    1 => model.predict(x) + 30.0 * model.margin_width(),
                    2 => model.predict(x) - 0.45 * model.margin_width(),
                    _ => model.predict(x) + 0.45 * model.margin_width(),
                };
                handle.insert(&[x, y]).unwrap();
                logical.push(vec![x, y]);
            }

            let index = handle.snapshot();
            handle.fold();
            let folded = handle.snapshot();
            handle.refit();
            let refitted = handle.snapshot();
            assert_eq!(folded.pending_len(), 0);
            assert_eq!(folded.len(), index.len());
            // The fold must not have touched a model.
            assert_eq!(
                folded.frozen().groups()[0].models[0],
                index.frozen().groups()[0].models[0],
                "fold froze no model (combo {combo_i}, seed {seed})"
            );

            let columns: Vec<Vec<f64>> =
                (0..2).map(|d| logical.iter().map(|r| r[d]).collect()).collect();
            let fs = FullScan::build(&coax::data::Dataset::new(columns));
            let mut queries: Vec<RangeQuery> = (0..8)
                .map(|i| {
                    let x0 = (seed as f64 * 11.0 + i as f64 * 113.0) % 900.0;
                    let mut q = RangeQuery::unbounded(2);
                    q.constrain(0, x0, x0 + 80.0);
                    q.constrain(1, 2.0 * x0 - 100.0, 2.0 * x0 + 400.0);
                    q
                })
                .collect();
            // Dependent-only queries exercise translation through all
            // three lifecycles (and the refitted margins).
            let mut dep_only = RangeQuery::unbounded(2);
            dep_only.constrain(1, 300.0, 420.0);
            queries.push(dep_only);
            for q in &queries {
                let expected = sorted(fs.range_query(q));
                assert_eq!(
                    sorted(index.range_query(q)),
                    expected,
                    "never-rebuilt diverged (combo {combo_i}, seed {seed}, {q:?})"
                );
                assert_eq!(
                    sorted(folded.range_query(q)),
                    expected,
                    "fold diverged (combo {combo_i}, seed {seed}, {q:?})"
                );
                assert_eq!(
                    sorted(refitted.range_query(q)),
                    expected,
                    "refit diverged (combo {combo_i}, seed {seed}, {q:?})"
                );
            }
        }
    }
}

/// The fold carries the Bayesian posteriors over, so evidence collected
/// before a fold still shapes a later refit.
#[test]
fn fold_preserves_posterior_evidence_for_a_later_refit() {
    let ds = planted(5_000, 31);
    let index = IndexHandle::build(&ds, &CoaxConfig::default());
    let model = index.snapshot().frozen().groups()[0].models[0].clone();
    let slope_before = model.as_linear().expect("linear model").params.slope;
    // Stream biased-but-in-margin rows, fold (models must stay frozen),
    // then refit: the refreshed line must reflect the pre-fold stream.
    for i in 0..4_000 {
        let x = (i as f64 * 7.7) % 1000.0;
        let y = model.predict(x) + model.margin_width() * 0.45;
        index.insert(&[x, y]).unwrap();
    }
    index.fold();
    let slope_folded = index.snapshot().frozen().groups()[0].models[0]
        .as_linear()
        .expect("linear model")
        .params
        .slope;
    assert_eq!(slope_folded, slope_before, "fold must not move the line");
    index.refit();
    let intercept_before = model.as_linear().expect("linear model").params.intercept;
    let intercept_after = index.snapshot().frozen().groups()[0].models[0]
        .as_linear()
        .expect("linear model")
        .params
        .intercept;
    assert!(
        intercept_after != intercept_before,
        "refit after fold must see the folded stream's evidence"
    );
}

#[test]
fn rebuild_after_mixed_inserts_is_exact() {
    let ds = planted(8_000, 4);
    let index = IndexHandle::build(&ds, &CoaxConfig::default());
    // A mix of in-band, off-band, and boundary rows.
    let mut all_rows: Vec<Vec<f64>> = Vec::new();
    for r in 0..ds.len() as u32 {
        all_rows.push(ds.row(r));
    }
    for i in 0..200 {
        let x = (i as f64 * 31.0) % 1000.0;
        let y = match i % 3 {
            0 => 2.0 * x + 10.0,
            1 => 2.0 * x + 10.0 + 1000.0,
            _ => 2.0 * x + 10.0 - 300.0,
        };
        index.insert(&[x, y]).unwrap();
        all_rows.push(vec![x, y]);
    }
    index.refit();
    let snapshot = index.snapshot();
    let rebuilt = snapshot.frozen();

    // Compare against a full scan over the same logical table.
    let columns =
        (0..2).map(|d| all_rows.iter().map(|r| r[d]).collect::<Vec<f64>>()).collect::<Vec<_>>();
    let logical = coax::data::Dataset::new(columns);
    let fs = FullScan::build(&logical);
    for i in 0..12 {
        let x0 = i as f64 * 80.0;
        let mut q = RangeQuery::unbounded(2);
        q.constrain(0, x0, x0 + 60.0);
        q.constrain(1, 2.0 * x0 - 200.0, 2.0 * x0 + 400.0);
        assert_eq!(sorted(rebuilt.range_query(&q)), sorted(fs.range_query(&q)));
    }
}
