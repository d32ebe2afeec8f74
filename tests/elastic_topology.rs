//! Acceptance gates for the elastic hierarchy runtime.
//!
//! Four guarantees are pinned here, mirroring the depth-equivalence
//! suite's structure for the topology-churn axis:
//!
//! 1. **Empty-plan identity** — in both engines, the one-segment epoch
//!    path an empty [`ChurnPlan`] takes when a registered-but-absent uid
//!    trails the tree is *bitwise* the direct frozen-tree path for every
//!    algorithm in the five-algorithm lineup: same curve, final
//!    parameters, diagnostics traces and simulated clock, with all-zero
//!    topology counters. Elasticity must cost nothing when nothing
//!    churns.
//! 2. **Churn determinism** — a non-trivial `(plan, seed)` pair replays
//!    bitwise across thread counts *and* across engines (core driver vs
//!    FullSync co-simulation), topology counters included.
//! 3. **Graceful degradation** — permanently failing a minority edge
//!    mid-run, with its workers live-re-parented onto the survivor,
//!    finishes within three points of the clean run's accuracy.
//! 4. **Composition** — churn composes with a fault plan and an
//!    adversary plan under every [`SyncPolicy`] without deadlock, and a
//!    checkpoint taken mid-plan resumes across the remaining topology
//!    epochs bitwise, through a JSON round-trip, at any thread count.

mod common;

use common::{
    assert_bitwise_equal, matrix_policies, sim_config, sim_fixture, wide_sim_fixture, SimFixture,
};
use hieradmo::core::algorithms::{Cfl, HierAdMo, HierFavg};
use hieradmo::core::compression::{Compression, QuantizedHierFavg};
use hieradmo::core::{run, run_span, RunError, Strategy, TrainingSnapshot};
use hieradmo::data::partition::x_class_partition;
use hieradmo::netsim::{
    stream_seed, AdversaryPlan, AttackModel, CrashProfile, DelaySpikes, FaultPlan, LinkFaults,
    PermanentCrash,
};
use hieradmo::simrt::{simulate, SimError, SyncPolicy};
use hieradmo::topology::{churn_stream_seed, ChurnPlan, ScheduledEvent, TierTree, TopologyEvent};

/// The five-algorithm lineup every equivalence gate runs.
fn lineup() -> Vec<Box<dyn Strategy>> {
    vec![
        Box::new(HierAdMo::adaptive(0.01, 0.5)),
        Box::new(HierAdMo::reduced(0.01, 0.5, 0.5)),
        Box::new(HierFavg::new(0.01)),
        Box::new(Cfl::new(0.01, 0.5)),
        Box::new(QuantizedHierFavg::new(0.01, Compression::TopK { k: 8 })),
    ]
}

/// [`sim_fixture`] stretched for churn: five registered workers over the
/// 2 × 2 tree (uid 4 starts absent, available to `Join`) and 40 ticks,
/// so cloud rounds 1–3 are usable churn boundaries (ticks 10, 20, 30).
fn churn_fixture() -> SimFixture {
    let mut fx = sim_fixture(0.0);
    fx.shards = x_class_partition(&fx.train, 5, 2, 11);
    fx.cfg.total_iters = 40;
    fx.cfg.eval_every = 7;
    fx
}

/// Join the spare worker, fail an edge (re-homing its members), then
/// re-form: one of every event family the counters distinguish.
fn churn_plan() -> ChurnPlan {
    ChurnPlan {
        events: vec![
            ScheduledEvent {
                round: 1,
                event: TopologyEvent::Join { worker: 4, edge: 0 },
            },
            ScheduledEvent {
                round: 2,
                event: TopologyEvent::EdgeFail { edge: 1 },
            },
            ScheduledEvent {
                round: 3,
                event: TopologyEvent::EdgeReform,
            },
        ],
        reform_every: None,
    }
}

#[test]
fn empty_plan_epoch_path_is_bitwise_identical_to_the_frozen_path() {
    let fx = sim_fixture(0.0);
    // A trailing registered-but-absent uid sends the empty plan through
    // the one-segment epoch path instead of the direct frozen loop.
    let mut registered = fx.shards.clone();
    registered.push(fx.shards[0].clone());
    for strategy in lineup() {
        let model = hieradmo::models::zoo::logistic_regression(&fx.train, 3);
        let frozen = run(
            strategy.as_ref(),
            &model,
            &fx.hierarchy,
            &fx.shards,
            &fx.test,
            &fx.cfg,
        )
        .unwrap();
        let elastic = run(
            strategy.as_ref(),
            &model,
            &fx.hierarchy,
            &registered,
            &fx.test,
            &fx.cfg,
        )
        .unwrap();
        let label = strategy.name();
        assert_eq!(frozen.curve, elastic.curve, "{label}: curve differs");
        assert_eq!(
            frozen.final_params, elastic.final_params,
            "{label}: final params differ"
        );
        assert_eq!(frozen.gamma_trace, elastic.gamma_trace, "{label}: gamma");
        assert_eq!(frozen.cos_trace, elastic.cos_trace, "{label}: cos");
        assert!(
            elastic.topology.is_zero(),
            "{label}: empty plan tallied topology counters"
        );

        let sim_cfg = sim_config(7, SyncPolicy::FullSync);
        let frozen_sim = simulate(
            strategy.as_ref(),
            &model,
            &fx.hierarchy,
            &fx.shards,
            &fx.test,
            &fx.cfg,
            &sim_cfg,
        )
        .unwrap();
        let elastic_sim = simulate(
            strategy.as_ref(),
            &model,
            &fx.hierarchy,
            &registered,
            &fx.test,
            &fx.cfg,
            &sim_cfg,
        )
        .unwrap();
        assert_bitwise_equal(&frozen, &elastic_sim, &format!("{label} (sim)"));
        assert_eq!(
            frozen_sim.simulated_seconds, elastic_sim.simulated_seconds,
            "{label}: simulated clock differs"
        );
        assert_eq!(
            frozen_sim.timed_curve, elastic_sim.timed_curve,
            "{label}: timed curve differs"
        );
        assert!(elastic_sim.topology.is_zero(), "{label}: sim counters");
    }
}

#[test]
fn churn_replays_bitwise_across_thread_counts_and_engines() {
    let fx = churn_fixture();
    let plan = churn_plan();
    let model = hieradmo::models::zoo::logistic_regression(&fx.train, 3);
    let strategy = HierAdMo::adaptive(0.01, 0.5);

    let mut cfg1 = fx.cfg.clone();
    cfg1.churn = plan.clone();
    let core1 = run(
        &strategy,
        &model,
        &fx.hierarchy,
        &fx.shards,
        &fx.test,
        &cfg1,
    )
    .unwrap();

    let mut cfg4 = cfg1.clone();
    cfg4.threads = Some(4);
    let core4 = run(
        &strategy,
        &model,
        &fx.hierarchy,
        &fx.shards,
        &fx.test,
        &cfg4,
    )
    .unwrap();
    assert_eq!(core1.final_params, core4.final_params, "thread count");
    assert_eq!(core1.curve, core4.curve, "thread count: curve");
    assert_eq!(core1.topology, core4.topology, "thread count: counters");

    assert_eq!(core1.topology.joins, 1);
    assert_eq!(core1.topology.leaves, 0);
    assert_eq!(core1.topology.orphaned_rounds, 2, "EdgeFail strands 2");
    assert_eq!(core1.topology.reformations, 1);
    assert!(
        core1.topology.migrations >= 2,
        "both stranded workers must re-home"
    );

    let sim_cfg = sim_config(7, SyncPolicy::FullSync);
    let sim = simulate(
        &strategy,
        &model,
        &fx.hierarchy,
        &fx.shards,
        &fx.test,
        &cfg1,
        &sim_cfg,
    )
    .unwrap();
    assert_bitwise_equal(&core1, &sim, "churn cross-engine");
    assert_eq!(core1.topology, sim.topology, "cross-engine counters");
}

#[test]
fn edge_failure_with_live_reparenting_degrades_gracefully() {
    let fx = wide_sim_fixture();
    let model = hieradmo::models::zoo::logistic_regression(&fx.train, 3);
    let strategy = HierAdMo::adaptive(0.01, 0.5);
    let clean = run(
        &strategy,
        &model,
        &fx.hierarchy,
        &fx.shards,
        &fx.test,
        &fx.cfg,
    )
    .unwrap();

    // Fail edge 1 at the half-way cloud round (tick 100 of 200); its four
    // workers re-home under edge 0 and keep training there.
    let mut cfg = fx.cfg.clone();
    cfg.churn = ChurnPlan {
        events: vec![ScheduledEvent {
            round: 10,
            event: TopologyEvent::EdgeFail { edge: 1 },
        }],
        reform_every: None,
    };
    let churned = run(&strategy, &model, &fx.hierarchy, &fx.shards, &fx.test, &cfg).unwrap();
    assert_eq!(churned.topology.orphaned_rounds, 4);
    assert_eq!(churned.topology.migrations, 4);

    let clean_acc = clean.curve.final_accuracy().unwrap();
    let churn_acc = churned.curve.final_accuracy().unwrap();
    assert!(
        churn_acc >= clean_acc - 0.03,
        "edge failure cost more than 3 points: clean {clean_acc:.4}, churned {churn_acc:.4}"
    );
}

#[test]
fn churn_composes_with_faults_and_adversaries_under_every_policy() {
    let fx = churn_fixture();
    let model = hieradmo::models::zoo::logistic_regression(&fx.train, 3);
    let strategy = HierAdMo::adaptive(0.01, 0.5);

    let mut cfg = fx.cfg.clone();
    cfg.churn = churn_plan();
    cfg.adversary = AdversaryPlan::uniform([0], AttackModel::SignFlip { scale: 3.0 });

    let faults = FaultPlan {
        crash: Some(CrashProfile {
            per_step: 0.2,
            min_downtime_ms: 10.0,
            max_downtime_ms: 50.0,
        }),
        permanent: vec![PermanentCrash {
            worker: 1,
            at_ms: 150.0,
        }],
        link: Some(LinkFaults::flaky()),
        spikes: Some(DelaySpikes {
            prob: 0.2,
            factor: 3.0,
        }),
    };

    for policy in matrix_policies() {
        let sim_cfg = sim_config(11, policy).with_faults(faults.clone());
        let a = simulate(
            &strategy,
            &model,
            &fx.hierarchy,
            &fx.shards,
            &fx.test,
            &cfg,
            &sim_cfg,
        )
        .unwrap_or_else(|e| panic!("{policy:?} deadlocked or failed: {e:?}"));
        assert!(
            !a.curve.is_empty(),
            "{policy:?}: churn + faults produced no eval points"
        );
        assert!(
            a.final_params.iter().all(|p| p.is_finite()),
            "{policy:?}: non-finite parameters"
        );
        assert!(a.simulated_seconds > 0.0, "{policy:?}: clock never moved");
        assert_eq!(a.topology.joins, 1, "{policy:?}: join not applied");
        assert_eq!(a.topology.reformations, 1, "{policy:?}: reform not applied");

        // The same chaos cell replays bitwise: determinism survives the
        // full fault × adversary × churn composition.
        let b = simulate(
            &strategy,
            &model,
            &fx.hierarchy,
            &fx.shards,
            &fx.test,
            &cfg,
            &sim_cfg,
        )
        .unwrap();
        assert_eq!(a.final_params, b.final_params, "{policy:?}: replay");
        assert_eq!(a.timed_curve, b.timed_curve, "{policy:?}: replay clock");
    }
}

#[test]
fn checkpoint_resumes_across_a_topology_epoch_boundary() {
    let fx = churn_fixture();
    let plan = churn_plan();
    let model = hieradmo::models::zoo::logistic_regression(&fx.train, 3);
    let strategy = HierAdMo::adaptive(0.01, 0.5);
    let mut cfg = fx.cfg.clone();
    cfg.churn = plan;

    let full = run(&strategy, &model, &fx.hierarchy, &fx.shards, &fx.test, &cfg).unwrap();

    // Stop mid-epoch at tick 25: the Join (tick 10) and EdgeFail (tick
    // 20) epochs are behind the snapshot, the EdgeReform (tick 30) still
    // ahead of it.
    let (_, snap) = run_span(
        &strategy,
        &model,
        &fx.hierarchy,
        &fx.shards,
        &fx.test,
        &cfg,
        None,
        None,
        Some(25),
    )
    .unwrap();
    let snap = snap.expect("stop_at returns a snapshot");
    let topo = snap.topology.as_ref().expect("elastic snapshot");
    assert_eq!(topo.live_edges(), vec![0], "edge 1 failed before the cut");
    assert_eq!(snap.workers.len(), 5, "joined worker checkpointed");
    // The re-homed ex-members of edge 1 carry damped but non-zero
    // momentum through the checkpoint.
    let moved: Vec<usize> = (0..5).filter(|&u| topo.parent_of(u) == Some(0)).collect();
    assert_eq!(moved.len(), 5, "all five workers sit under the survivor");

    let json = snap.to_json();
    let restored = TrainingSnapshot::from_json(&json).unwrap();
    assert_eq!(restored.tick, 25);
    assert_eq!(restored.topology, snap.topology, "topology survives JSON");

    for threads in [1usize, 4] {
        let mut resume_cfg = cfg.clone();
        resume_cfg.threads = Some(threads);
        let (resumed, _) = run_span(
            &strategy,
            &model,
            &fx.hierarchy,
            &fx.shards,
            &fx.test,
            &resume_cfg,
            None,
            Some(&restored),
            None,
        )
        .unwrap();
        assert_eq!(
            resumed.final_params, full.final_params,
            "resume at {threads} threads diverged"
        );
        // Only the reform boundary remains ahead of the snapshot.
        assert_eq!(resumed.topology.reformations, 1, "threads {threads}");
        assert_eq!(resumed.topology.joins, 0, "threads {threads}");
        assert_eq!(resumed.topology.orphaned_rounds, 0, "threads {threads}");
    }
}

/// N-tier trees do not compose with churn yet: both engines refuse the
/// pair with a typed configuration error instead of dropping either.
#[test]
fn a_tier_tree_with_a_churn_plan_is_a_typed_error() {
    let fx = churn_fixture();
    let model = hieradmo::models::zoo::logistic_regression(&fx.train, 3);
    let strategy = HierAdMo::adaptive(0.01, 0.5);
    let mut cfg = fx.cfg.clone();
    cfg.churn = churn_plan();
    let tree = TierTree::three_tier(2, 2, cfg.tau, cfg.pi);
    let err = run_span(
        &strategy,
        &model,
        &fx.hierarchy,
        &fx.shards,
        &fx.test,
        &cfg,
        Some(&tree),
        None,
        None,
    )
    .unwrap_err();
    assert!(matches!(err, RunError::BadConfig(_)), "{err:?}");
    let sim_cfg = sim_config(7, SyncPolicy::FullSync).with_tiers(tree);
    let err = simulate(
        &strategy,
        &model,
        &fx.hierarchy,
        &fx.shards,
        &fx.test,
        &cfg,
        &sim_cfg,
    )
    .unwrap_err();
    assert!(
        matches!(err, SimError::Run(RunError::BadConfig(_))),
        "{err:?}"
    );
}

#[test]
fn churn_streams_reuse_the_netsim_stream_hash() {
    for master in [0u64, 1, 42, 0xdead_beef, u64::MAX] {
        for stream in [0u64, 1, 7, 1_000_003] {
            assert_eq!(
                churn_stream_seed(master, stream),
                stream_seed(master, stream),
                "churn streams must be the netsim SplitMix64 hash bit-for-bit"
            );
        }
    }
}

#[test]
fn deadline_policy_survives_a_minority_edge_failure_without_deadlock() {
    // The CI churn-smoke step's no-deadlock gate: kill the minority edge
    // under each relaxed policy and require the run to drain to the end.
    let fx = churn_fixture();
    let model = hieradmo::models::zoo::logistic_regression(&fx.train, 3);
    let strategy = HierFavg::new(0.01);
    let mut cfg = fx.cfg.clone();
    cfg.churn = ChurnPlan {
        events: vec![ScheduledEvent {
            round: 1,
            event: TopologyEvent::EdgeFail { edge: 1 },
        }],
        reform_every: None,
    };
    for policy in matrix_policies() {
        let sim_cfg = sim_config(3, policy);
        let out = simulate(
            &strategy,
            &model,
            &fx.hierarchy,
            &fx.shards,
            &fx.test,
            &cfg,
            &sim_cfg,
        )
        .unwrap_or_else(|e| panic!("{policy:?} failed after edge death: {e:?}"));
        assert_eq!(out.topology.orphaned_rounds, 2, "{policy:?}");
        assert!(!out.curve.is_empty(), "{policy:?}: no eval points");
    }
}
