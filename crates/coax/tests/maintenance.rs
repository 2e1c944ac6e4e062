//! End-to-end test of the live-maintenance subsystem: a seeded
//! correlation-drift scenario driven through the full loop —
//! `DriftMonitor` detects, `MaintenancePolicy`/`Maintainer` choose refit,
//! `IndexHandle` readers stay exact throughout, and post-refit
//! effectiveness recovers to a fresh build's level.

use coax::core::maint::{IndexHandle, Maintainer, MaintenanceAction};
use coax::core::obs::{self, EventJournal};
use coax::core::{CoaxConfig, CoaxIndex, MaintenancePolicy, ObsConfig};
use coax::data::synth::{DriftingLinearConfig, Generator};
use coax::data::{Dataset, RangeQuery, RowId};
use coax::index::{FullScan, MultidimIndex, ScanStats};
use std::sync::Arc;

fn sorted(mut v: Vec<RowId>) -> Vec<RowId> {
    v.sort_unstable();
    v
}

/// Micro-averaged Eq. 5 over a workload (Σmatches / Σexamined, pending
/// scans included).
fn effectiveness(index: &dyn MultidimIndex, queries: &[RangeQuery]) -> f64 {
    let mut total = ScanStats::default();
    let mut out = Vec::new();
    for q in queries {
        out.clear();
        total = total.merge(index.range_query_stats(q, &mut out));
    }
    total.effectiveness()
}

/// Band queries on the *dependent* attribute — the queries translation
/// exists for, and the first casualties of a drifted model.
fn dependent_band_queries(ds: &Dataset, count: usize, width: f64) -> Vec<RangeQuery> {
    let (lo, hi) = ds.min_max(1).expect("non-empty");
    (0..count)
        .map(|i| {
            let y0 = lo + (hi - lo - width) * i as f64 / count as f64;
            let mut q = RangeQuery::unbounded(ds.dims());
            q.constrain(1, y0, y0 + width);
            q
        })
        .collect()
}

/// The ISSUE's acceptance scenario, seeded and asserted end to end.
#[test]
fn drift_scenario_detect_refit_recover() {
    // A stream whose dependency holds for the first half, then the
    // intercept drifts upward by about two margin half-widths — enough
    // to break the frozen margins, gentle enough that the dependency
    // itself survives (a fresh discovery still accepts the pair, which
    // is what makes the fresh-build comparison below meaningful).
    let stream = DriftingLinearConfig {
        rows: 24_000,
        drift_after: 12_000,
        x_range: (0.0, 1000.0),
        start: (2.0, 25.0),
        end: (2.0, 55.0),
        noise_sigma: 4.0,
        outlier_fraction: 0.01,
        outlier_offset_sigmas: 25.0,
        independent: vec![(0.0, 100.0)],
        seed: 0xD41F,
    };
    let full = stream.generate();
    let build_rows: Vec<RowId> = (0..stream.drift_after as RowId).collect();
    let build_ds = full.take_rows(&build_rows);

    let config = CoaxConfig {
        maintenance: MaintenancePolicy {
            // Let the whole drifting suffix accumulate so this test makes
            // exactly one maintenance decision at the end; the policy
            // must still rank refit (drifted models) above fold (long
            // buffer).
            max_pending: usize::MAX,
            ..Default::default()
        },
        ..Default::default()
    };
    let handle = Arc::new(IndexHandle::build(&build_ds, &config));
    assert!(!handle.snapshot().frozen().groups().is_empty(), "dependency must be discovered");

    // --- stream the drifting suffix, asserting reader exactness at
    // --- checkpoints against a full scan of everything inserted so far.
    let mut checkpoints_checked = 0;
    for i in stream.drift_after..stream.rows {
        let id = handle.insert(&full.row(i as RowId)).expect("insert");
        assert_eq!(id as usize, i, "handle ids follow stream order");
        if (i + 1) % 4000 == 0 {
            let seen: Vec<RowId> = (0..=i as RowId).collect();
            let fs = FullScan::build(&full.take_rows(&seen));
            for q in dependent_band_queries(&full, 6, 40.0) {
                assert_eq!(
                    sorted(handle.range_query(&q)),
                    sorted(fs.range_query(&q)),
                    "reader diverged at row {i} on {q:?}"
                );
            }
            checkpoints_checked += 1;
        }
    }
    assert_eq!(checkpoints_checked, 3);

    // --- the monitor saw the drift.
    let report = handle.drift_report();
    assert!(
        report.max_drift_score() >= config.maintenance.drift_threshold,
        "drift score {} must cross the threshold {}",
        report.max_drift_score(),
        config.maintenance.drift_threshold
    );
    assert_eq!(report.pending, 12_000);

    // --- effectiveness during drift (stale margins + bloated buffer).
    let queries = dependent_band_queries(&full, 15, 40.0);
    let eff_during = effectiveness(&*handle, &queries);

    // --- the maintainer chooses refit and publishes a new epoch.
    let outcome = Maintainer::new(Arc::clone(&handle)).tick();
    assert_eq!(outcome.action, MaintenanceAction::Refit, "drift demands a refit, not a fold");
    assert_eq!(outcome.epoch, 1);
    assert_eq!(handle.pending_len(), 0);

    // --- readers are still exact against the full logical table.
    let fs = FullScan::build(&full);
    for q in &queries {
        assert_eq!(sorted(handle.range_query(q)), sorted(fs.range_query(q)));
    }

    // --- and effectiveness recovered to a fresh build's level.
    let fresh = CoaxIndex::build(&full, &config);
    let eff_fresh = effectiveness(&fresh, &queries);
    let eff_after = effectiveness(&*handle, &queries);
    assert!(
        eff_after > eff_during,
        "refit must improve effectiveness: during={eff_during:.4} after={eff_after:.4}"
    );
    assert!(
        eff_after >= 0.9 * eff_fresh,
        "post-refit effectiveness {eff_after:.4} must be within 10% of a fresh \
         build's {eff_fresh:.4}"
    );
}

/// A stationary stream must never trigger a refit — the policy folds on
/// buffer length alone, keeping the models untouched.
#[test]
fn stationary_stream_folds_but_never_refits() {
    let stream = DriftingLinearConfig {
        rows: 12_000,
        drift_after: 12_000, // never drifts
        start: (2.0, 25.0),
        end: (2.0, 25.0),
        outlier_fraction: 0.02,
        seed: 0xBEEF,
        ..Default::default()
    };
    let full = stream.generate();
    let build_rows: Vec<RowId> = (0..8_000).collect();
    let config = CoaxConfig {
        maintenance: MaintenancePolicy { max_pending: 1500, ..Default::default() },
        ..Default::default()
    };
    let handle = Arc::new(IndexHandle::build(&full.take_rows(&build_rows), &config));
    let model_before = handle.snapshot().frozen().groups()[0].models[0].clone();
    let maintainer = Maintainer::new(Arc::clone(&handle));
    let mut folds = 0;
    for i in 8_000..12_000 {
        handle.insert(&full.row(i)).expect("insert");
        let outcome = maintainer.tick();
        match outcome.action {
            MaintenanceAction::None => {}
            MaintenanceAction::Fold => folds += 1,
            MaintenanceAction::Refit => {
                panic!("stationary stream refitted: {:?}", outcome.report)
            }
        }
    }
    assert!(folds >= 2, "the fold trigger must have fired, got {folds}");
    assert_eq!(
        handle.snapshot().frozen().groups()[0].models[0],
        model_before,
        "folds froze every model"
    );
    // Everything inserted is still there, exactly once.
    let all = sorted(handle.range_query(&RangeQuery::unbounded(full.dims())));
    assert_eq!(all, (0..12_000).collect::<Vec<RowId>>());
}

/// The bounded journal keeps the decisions that matter: idle ticks only
/// count, so a refit's decision and publish events are still there after
/// 10 000 idle polls (more than the journal holds).
#[test]
fn refit_events_survive_ten_thousand_idle_ticks() {
    // A shard tag no other test uses: every test in the process shares
    // one journal, so this test reads only its own tagged events.
    const TAG: u32 = 7_713;
    let stream = DriftingLinearConfig {
        rows: 8_000,
        drift_after: 8_000, // never drifts
        start: (2.0, 25.0),
        end: (2.0, 25.0),
        seed: 0x1D1E,
        ..Default::default()
    };
    let config = CoaxConfig {
        maintenance: MaintenancePolicy { max_pending: usize::MAX, ..Default::default() },
        obs: ObsConfig::default().for_shard(TAG),
        ..Default::default()
    };
    let handle = Arc::new(IndexHandle::build(&stream.generate(), &config));
    let model = handle.snapshot().frozen().groups()[0].models[0].clone();
    // Gross outliers only: the outlier rate blows past the build's
    // baseline, so the first tick after the warm-up refits.
    for i in 0..300 {
        let x = (i as f64 * 7.3) % 1000.0;
        handle
            .insert(&[x, model.predict(x) + 40.0 * model.margin_width(), 5.0])
            .expect("insert");
    }
    let maintainer = Maintainer::new(Arc::clone(&handle));
    assert_eq!(maintainer.tick().action, MaintenanceAction::Refit);

    let ticks = || obs::snapshot().get_shard("coax.maint.ticks", TAG).map_or(0, |s| s.value);
    let ticks_before = ticks();
    for _ in 0..10_000 {
        assert_eq!(maintainer.tick().action, MaintenanceAction::None);
    }
    assert_eq!(ticks() - ticks_before, 10_000, "every idle tick still counts");

    let prefix = format!("shard={TAG} ");
    let ours: Vec<_> = EventJournal::global()
        .events()
        .into_iter()
        .filter(|e| e.detail.starts_with(&prefix))
        .collect();
    assert!(
        ours.iter().any(|e| e.kind == "maint_decision" && e.detail.contains("action=Refit")),
        "the refit decision was evicted: {ours:?}"
    );
    assert!(
        ours.iter().any(|e| e.kind == "epoch_publish" && e.detail.contains("action=refit")),
        "the refit publish was evicted: {ours:?}"
    );
    assert!(
        ours.iter().all(|e| !e.detail.contains("action=None")),
        "idle ticks must not be journalled"
    );
}
