//! Mid-run checkpoint/restore: a run stopped at an edge boundary, saved,
//! reloaded and resumed must reproduce the uninterrupted trajectory
//! bitwise — curve, γℓ trace and final parameters.

mod common;

use common::sim_fixture;
use hieradmo::core::algorithms::HierAdMo;
use hieradmo::core::{run, run_span, RunConfig, RunError, RunResult, TrainingSnapshot};
use hieradmo::models::zoo;

/// The equivalence fixture stretched to 40 ticks so the stop point (t=15,
/// an edge boundary k=3 that is *not* a cloud boundary) leaves plenty of
/// run on both sides, with eval points in both segments.
fn cfg(dropout: f64) -> (common::SimFixture, RunConfig) {
    let f = sim_fixture(dropout);
    let cfg = RunConfig {
        total_iters: 40,
        ..f.cfg.clone()
    };
    (f, cfg)
}

fn check_restore_round_trip(dropout: f64, resumed_threads: Option<usize>) {
    let (f, cfg) = cfg(dropout);
    let model = zoo::logistic_regression(&f.train, 1);
    let algo = HierAdMo::adaptive(0.05, 0.5);

    let full = run(&algo, &model, &f.hierarchy, &f.shards, &f.test, &cfg).unwrap();
    let (first, snap) = run_span(
        &algo,
        &model,
        &f.hierarchy,
        &f.shards,
        &f.test,
        &cfg,
        None,
        None,
        Some(15),
    )
    .unwrap();
    let snap = snap.expect("stop_at returns a snapshot");
    assert_eq!(snap.tick, 15);
    assert_eq!(snap.algorithm, "HierAdMo");

    // The snapshot survives serialization bit-for-bit.
    let snap = TrainingSnapshot::from_json(&snap.to_json()).unwrap();

    let resumed_cfg = RunConfig {
        threads: resumed_threads,
        ..cfg.clone()
    };
    let (resumed, _) = run_span(
        &algo,
        &model,
        &f.hierarchy,
        &f.shards,
        &f.test,
        &resumed_cfg,
        None,
        Some(&snap),
        None,
    )
    .unwrap();

    // The two segments partition the uninterrupted run exactly.
    assert!(first.curve.points().iter().all(|p| p.iteration <= 15));
    assert!(resumed.curve.points().iter().all(|p| p.iteration > 15));
    let concat: Vec<_> = first
        .curve
        .points()
        .iter()
        .chain(resumed.curve.points())
        .copied()
        .collect();
    assert_eq!(
        concat,
        full.curve.points().to_vec(),
        "dropout={dropout}: concatenated curves must match the full run bitwise"
    );

    let concat_gamma: Vec<_> = first
        .gamma_trace
        .iter()
        .chain(&resumed.gamma_trace)
        .copied()
        .collect();
    assert_eq!(concat_gamma, full.gamma_trace, "gamma trace differs");
    let concat_cos: Vec<_> = first
        .cos_trace
        .iter()
        .chain(&resumed.cos_trace)
        .copied()
        .collect();
    assert_eq!(concat_cos, full.cos_trace, "cos trace differs");

    assert_eq!(
        resumed.final_params, full.final_params,
        "dropout={dropout}: resumed run must land on the exact same model"
    );
}

#[test]
fn restore_at_edge_boundary_matches_uninterrupted_run() {
    check_restore_round_trip(0.0, Some(1));
}

#[test]
fn restore_replays_dropout_draws_exactly() {
    check_restore_round_trip(0.3, Some(1));
}

#[test]
fn restore_is_thread_count_invariant() {
    check_restore_round_trip(0.0, Some(4));
}

/// Resuming under an active `AdversaryPlan` replays the adversary RNG
/// streams instead of storing them: the stop/resume trajectory must match
/// the uninterrupted adversarial run bitwise. `GaussianNoise` is in the
/// plan on purpose — it is the only stateful attack, so the test fails if
/// the fast-forward path skips the wrong number of draws.
#[test]
fn restore_replays_adversary_streams_exactly() {
    use hieradmo::core::RobustAggregator;
    use hieradmo::netsim::{AdversaryPlan, AttackModel, ByzantineWorker};

    let (f, base) = cfg(0.0);
    let cfg = RunConfig {
        adversary: AdversaryPlan {
            byzantine: vec![
                ByzantineWorker {
                    worker: 0,
                    attack: AttackModel::GaussianNoise { norm: 4.0 },
                },
                ByzantineWorker {
                    worker: 3,
                    attack: AttackModel::MomentumPoison { scale: 5.0 },
                },
            ],
        },
        aggregator: RobustAggregator::Median,
        ..base
    };
    let model = zoo::logistic_regression(&f.train, 1);
    let algo = HierAdMo::adaptive(0.05, 0.5);

    let full = run(&algo, &model, &f.hierarchy, &f.shards, &f.test, &cfg).unwrap();
    let h = &f.hierarchy;
    let (first, snap) = run_span(
        &algo,
        &model,
        h,
        &f.shards,
        &f.test,
        &cfg,
        None,
        None,
        Some(15),
    )
    .unwrap();
    // The adversary draws from replayable streams; nothing of it is stored.
    let snap = TrainingSnapshot::from_json(&snap.unwrap().to_json()).unwrap();
    let (resumed, _) = run_span(
        &algo,
        &model,
        h,
        &f.shards,
        &f.test,
        &cfg,
        None,
        Some(&snap),
        None,
    )
    .unwrap();

    let concat: Vec<_> = first
        .curve
        .points()
        .iter()
        .chain(resumed.curve.points())
        .copied()
        .collect();
    assert_eq!(
        concat,
        full.curve.points().to_vec(),
        "adversarial stop/resume must match the uninterrupted run bitwise"
    );
    assert_eq!(
        resumed.final_params, full.final_params,
        "adversarial resume must land on the exact same model"
    );
}

/// Depth-4 stop/resume: the snapshot is taken at an edge round that is a
/// *middle*-tier boundary but not a root boundary (k=2 with the region
/// tier syncing every 2 edge rounds and the root every 4), survives a
/// JSON round-trip carrying the middle-tier states, and resumes under a
/// different thread count bitwise identically to the uninterrupted
/// N-tier run — γ traces, per-tier γ traces and final model included.
#[test]
fn restore_at_a_middle_tier_boundary_is_bitwise_on_depth_4_trees() {
    use common::{run_on_tree, tiered_fixture};
    use hieradmo::topology::{TierSpec, TierTree};

    let tree = TierTree::new(vec![
        TierSpec::new(2, 2),
        TierSpec::new(2, 2),
        TierSpec::new(2, 5),
    ])
    .unwrap();
    let f = tiered_fixture(&tree);
    let model = zoo::logistic_regression(&f.train, 1);
    let algo = HierAdMo::adaptive(0.05, 0.5);

    // Tick 10 = edge round 2: the region tier (period 2) just fired,
    // the root (period 4) did not — a non-leaf, non-root boundary.
    let stop = 2 * f.cfg.tau;
    assert_eq!(stop % (f.cfg.tau * tree.sync_rounds(1)), 0);
    assert_ne!(stop % (f.cfg.tau * tree.pi_total()), 0);

    let h = tree.edge_hierarchy();
    let full = run_on_tree(&algo, &model, &tree, &f.shards, &f.test, &f.cfg).unwrap();
    let (first, snap) = run_span(
        &algo,
        &model,
        &h,
        &f.shards,
        &f.test,
        &f.cfg,
        Some(&tree),
        None,
        Some(stop),
    )
    .unwrap();
    let snap = snap.expect("stop_at returns a snapshot");
    assert_eq!(snap.tick, stop);
    assert_eq!(
        snap.middle.len(),
        1,
        "the snapshot must carry the middle tier"
    );
    assert_eq!(snap.middle[0].len(), 2, "two region nodes");

    // The middle tier survives serialization bit-for-bit.
    let snap = TrainingSnapshot::from_json(&snap.to_json()).unwrap();

    let resumed_cfg = RunConfig {
        threads: Some(4),
        ..f.cfg.clone()
    };
    let (resumed, _) = run_span(
        &algo,
        &model,
        &h,
        &f.shards,
        &f.test,
        &resumed_cfg,
        Some(&tree),
        Some(&snap),
        None,
    )
    .unwrap();

    let concat: Vec<_> = first
        .curve
        .points()
        .iter()
        .chain(resumed.curve.points())
        .copied()
        .collect();
    assert_eq!(
        concat,
        full.curve.points().to_vec(),
        "depth-4 stop/resume must match the uninterrupted run bitwise"
    );
    let concat_gamma: Vec<_> = first
        .gamma_trace
        .iter()
        .chain(&resumed.gamma_trace)
        .copied()
        .collect();
    assert_eq!(concat_gamma, full.gamma_trace, "gamma trace differs");
    assert_eq!(full.tier_gamma.len(), 1);
    let concat_tier: Vec<_> = first.tier_gamma[0]
        .iter()
        .chain(&resumed.tier_gamma[0])
        .copied()
        .collect();
    assert_eq!(
        concat_tier, full.tier_gamma[0],
        "the region tier's γ trace must partition exactly"
    );
    assert_eq!(
        resumed.final_params, full.final_params,
        "depth-4 resume must land on the exact same model"
    );

    // A snapshot whose middle-tier shape disagrees with the tree is
    // rejected before any training step.
    let mut wrong = snap.clone();
    wrong.middle.clear();
    let err = run_span(
        &algo,
        &model,
        &h,
        &f.shards,
        &f.test,
        &f.cfg,
        Some(&tree),
        Some(&wrong),
        None,
    );
    assert!(matches!(err, Err(RunError::Data(_))));
}

#[test]
fn file_round_trip_preserves_the_snapshot() {
    let (f, cfg) = cfg(0.0);
    let model = zoo::logistic_regression(&f.train, 1);
    let algo = HierAdMo::adaptive(0.05, 0.5);
    let h = &f.hierarchy;
    let (_, snap) = run_span(
        &algo,
        &model,
        h,
        &f.shards,
        &f.test,
        &cfg,
        None,
        None,
        Some(20),
    )
    .unwrap();
    let snap = snap.expect("stop_at returns a snapshot");

    let dir = std::env::temp_dir().join("hieradmo-restore-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("mid_run.json");
    snap.save(&path).unwrap();
    let back = TrainingSnapshot::load(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(back, snap);
}

#[test]
fn invalid_stop_points_and_snapshots_are_rejected() {
    let (f, cfg) = cfg(0.0);
    let model = zoo::logistic_regression(&f.train, 1);
    let algo = HierAdMo::adaptive(0.05, 0.5);
    let h = &f.hierarchy;
    let go_until = |stop: usize| -> Result<(RunResult, TrainingSnapshot), RunError> {
        run_span(
            &algo,
            &model,
            h,
            &f.shards,
            &f.test,
            &cfg,
            None,
            None,
            Some(stop),
        )
        .map(|(r, snap)| (r, snap.expect("stop_at returns a snapshot")))
    };

    // Off-boundary, zero and past-the-end stop points.
    assert!(matches!(go_until(7), Err(RunError::BadConfig(_))));
    assert!(matches!(go_until(0), Err(RunError::BadConfig(_))));
    assert!(matches!(go_until(45), Err(RunError::BadConfig(_))));

    let (_, snap) = go_until(15).unwrap();

    // Wrong algorithm: HierAdMo-R is a different strategy.
    let other = HierAdMo::reduced(0.05, 0.5, 0.5);
    let err = run_span(
        &other,
        &model,
        h,
        &f.shards,
        &f.test,
        &cfg,
        None,
        Some(&snap),
        None,
    );
    assert!(matches!(err, Err(RunError::BadConfig(_))));

    // A snapshot at (or past) the end of the run cannot be resumed.
    let (_, done) = go_until(40).unwrap();
    let err = run_span(
        &algo,
        &model,
        h,
        &f.shards,
        &f.test,
        &cfg,
        None,
        Some(&done),
        None,
    );
    assert!(matches!(err, Err(RunError::BadConfig(_))));

    // Shape mismatch: snapshot against a smaller hierarchy.
    let mut short = snap.clone();
    short.workers.truncate(2);
    let err = run_span(
        &algo,
        &model,
        h,
        &f.shards,
        &f.test,
        &cfg,
        None,
        Some(&short),
        None,
    );
    assert!(matches!(err, Err(RunError::Data(_))));
}

/// Sampled deep-tree stop/resume: a depth-4 *virtual-population* run
/// snapshots at a middle-tier boundary (not a root boundary), survives a
/// JSON round-trip, and resumes under a different thread count bitwise
/// identically to the uninterrupted sampled run. Cohorts re-materialize
/// from `(seed, worker, round)` streams, so the snapshot stores no RNG
/// state — this test is the gate on that claim.
#[test]
fn sampled_deep_tree_restore_at_middle_boundary_is_bitwise() {
    use common::{sampled_matrix_trees, sampled_tier_fixture};
    use hieradmo::core::run_virtual_span;

    // The depth-4 matrix tree: tau = 2, region tier syncing every 2 edge
    // rounds, root every 4. eval_every = 4 puts eval points in both
    // segments.
    let tree = sampled_matrix_trees()[1].clone();
    let f = sampled_tier_fixture(&tree);
    let cfg = RunConfig {
        eval_every: 4,
        ..f.cfg.clone()
    };
    let model = zoo::logistic_regression(&f.train, 1);
    let algo = HierAdMo::adaptive(0.05, 0.5);

    // Tick 4 = edge round 2: a middle boundary, not a root boundary.
    let stop = 2 * cfg.tau;
    assert_eq!(stop % (cfg.tau * tree.sync_rounds(1)), 0);
    assert_ne!(stop % (cfg.tau * tree.pi_total()), 0);

    let pop = &f.population;
    let (full, _) = run_virtual_span(
        &algo,
        &model,
        pop,
        &f.shards,
        &f.test,
        &cfg,
        Some(&tree),
        None,
        None,
    )
    .unwrap();
    let (first, snap) = run_virtual_span(
        &algo,
        &model,
        pop,
        &f.shards,
        &f.test,
        &cfg,
        Some(&tree),
        None,
        Some(stop),
    )
    .unwrap();
    let snap = snap.expect("stop_at returns a snapshot");
    assert_eq!(snap.tick, stop);
    assert_eq!(
        snap.middle.len(),
        1,
        "the snapshot must carry the middle tier"
    );
    assert_eq!(snap.middle[0].len(), 2, "two region nodes");

    // The middle tier survives serialization bit-for-bit.
    let snap = TrainingSnapshot::from_json(&snap.to_json()).unwrap();

    let resumed_cfg = RunConfig {
        threads: Some(4),
        ..cfg.clone()
    };
    let (resumed, _) = run_virtual_span(
        &algo,
        &model,
        pop,
        &f.shards,
        &f.test,
        &resumed_cfg,
        Some(&tree),
        Some(&snap),
        None,
    )
    .unwrap();

    assert!(first.curve.points().iter().all(|p| p.iteration <= stop));
    assert!(resumed.curve.points().iter().all(|p| p.iteration > stop));
    let concat: Vec<_> = first
        .curve
        .points()
        .iter()
        .chain(resumed.curve.points())
        .copied()
        .collect();
    assert_eq!(
        concat,
        full.curve.points().to_vec(),
        "sampled depth-4 stop/resume must match the uninterrupted run bitwise"
    );
    let concat_gamma: Vec<_> = first
        .gamma_trace
        .iter()
        .chain(&resumed.gamma_trace)
        .copied()
        .collect();
    assert_eq!(concat_gamma, full.gamma_trace, "gamma trace differs");
    assert_eq!(full.tier_gamma.len(), 1);
    let concat_tier: Vec<_> = first.tier_gamma[0]
        .iter()
        .chain(&resumed.tier_gamma[0])
        .copied()
        .collect();
    assert_eq!(
        concat_tier, full.tier_gamma[0],
        "the region tier's γ trace must partition exactly"
    );
    assert_eq!(
        resumed.final_params, full.final_params,
        "sampled depth-4 resume must land on the exact same model"
    );

    // A snapshot that lost its middle tier is rejected before training.
    let mut wrong = snap.clone();
    wrong.middle.clear();
    let err = run_virtual_span(
        &algo,
        &model,
        pop,
        &f.shards,
        &f.test,
        &cfg,
        Some(&tree),
        Some(&wrong),
        None,
    );
    assert!(matches!(err, Err(RunError::Data(_))));
}

/// Sampled stop/resume without a tier tree: a depth-3 virtual-population
/// run snapshots at an edge round that is not a cloud boundary and
/// resumes bitwise identically to the uninterrupted sampled run, at 1
/// and 4 threads.
#[test]
fn sampled_depth_3_restore_without_a_tree_is_bitwise() {
    use common::{sampled_matrix_trees, sampled_tier_fixture};
    use hieradmo::core::run_virtual_span;

    let f = sampled_tier_fixture(&sampled_matrix_trees()[0]);
    let cfg = RunConfig {
        eval_every: 4,
        ..f.cfg.clone()
    };
    let model = zoo::logistic_regression(&f.train, 1);
    let algo = HierAdMo::adaptive(0.05, 0.5);
    let pop = &f.population;
    // Tick 6 = edge round 3: the cloud fires every 2 rounds.
    let stop = 3 * cfg.tau;
    assert_ne!(stop % (cfg.tau * cfg.pi), 0);

    let (full, _) = run_virtual_span(
        &algo, &model, pop, &f.shards, &f.test, &cfg, None, None, None,
    )
    .unwrap();
    for threads in [1, 4] {
        let cfg = RunConfig {
            threads: Some(threads),
            ..cfg.clone()
        };
        let (first, snap) = run_virtual_span(
            &algo,
            &model,
            pop,
            &f.shards,
            &f.test,
            &cfg,
            None,
            None,
            Some(stop),
        )
        .unwrap();
        let snap = TrainingSnapshot::from_json(&snap.expect("stop_at").to_json()).unwrap();
        assert!(snap.middle.is_empty());
        let (resumed, _) = run_virtual_span(
            &algo,
            &model,
            pop,
            &f.shards,
            &f.test,
            &cfg,
            None,
            Some(&snap),
            None,
        )
        .unwrap();
        assert!(!first.curve.points().is_empty() && !resumed.curve.points().is_empty());
        let concat: Vec<_> = first
            .curve
            .points()
            .iter()
            .chain(resumed.curve.points())
            .copied()
            .collect();
        assert_eq!(concat, full.curve.points().to_vec(), "threads={threads}");
        let concat_gamma: Vec<_> = first
            .gamma_trace
            .iter()
            .chain(&resumed.gamma_trace)
            .copied()
            .collect();
        assert_eq!(concat_gamma, full.gamma_trace, "threads={threads}");
        assert_eq!(resumed.final_params, full.final_params, "threads={threads}");
    }
}
