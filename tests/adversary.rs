//! Chaos-grade suite for the Byzantine-resilient aggregation layer.
//!
//! Four guarantees are pinned here:
//!
//! 1. **Equivalence** — an adversarial run is the *same trajectory* in the
//!    core driver and the co-simulation under full sync, bitwise, for any
//!    thread count (including the noise-drawing attack, which proves the
//!    per-worker adversary RNG streams are aligned across engines); and a
//!    defense whose rule never triggers (zero trim, unreachable clip
//!    threshold) is bitwise identical to the plain data-weighted mean.
//! 2. **Defense** — a strict minority of sign-flipping workers under the
//!    coordinate-wise trimmed mean or median lands within 2 % of the clean
//!    final accuracy, while the undefended mean visibly degrades.
//! 3. **Determinism** — the same `(AdversaryPlan, FaultPlan, seed)` replays
//!    bitwise across thread counts, poisoned-upload counters included.
//! 4. **Plumbing** — counters export through `SimRunRecord`; invalid plans
//!    are rejected before any event is processed.

mod common;

use common::{
    assert_bitwise_equal, sim_config, sim_fixture, small_tier_trees, tiered_fixture,
    tiered_sim_config, wide_sim_fixture,
};
use hieradmo::core::algorithms::HierAdMo;
use hieradmo::core::{run, RobustAggregator, RunConfig, RunError};
use hieradmo::metrics::export::{sim_run_from_json, sim_run_to_json, SimRunRecord};
use hieradmo::models::zoo;
use hieradmo::netsim::{
    AdversaryPlan, AttackModel, ByzantineWorker, CrashProfile, FaultPlan, LinkFaults,
};
use hieradmo::simrt::{simulate, SimError, SyncPolicy};
use proptest::prelude::*;

/// One attacker of each flavor on the 2 × 2 fixture (worker 1 stays
/// honest): a model flipper, a noise injector and a momentum poisoner.
fn mixed_plan() -> AdversaryPlan {
    AdversaryPlan {
        byzantine: vec![
            ByzantineWorker {
                worker: 0,
                attack: AttackModel::SignFlip { scale: 3.0 },
            },
            ByzantineWorker {
                worker: 2,
                attack: AttackModel::GaussianNoise { norm: 4.0 },
            },
            ByzantineWorker {
                worker: 3,
                attack: AttackModel::MomentumPoison { scale: 5.0 },
            },
        ],
    }
}

// ---------------------------------------------------------------------
// 1. Equivalence gates.
// ---------------------------------------------------------------------

/// Under full sync an adversarial run is the same trajectory in both
/// engines, for every defense and thread count. `GaussianNoise` is in the
/// plan on purpose: it only replays bitwise if the co-simulation draws
/// from the same per-worker training-seed streams as the core driver.
#[test]
fn adversarial_full_sync_is_bitwise_identical_to_core_driver() {
    let f = sim_fixture(0.0);
    let algo = HierAdMo::adaptive(0.01, 0.5);
    for aggregator in [
        RobustAggregator::Mean,
        RobustAggregator::TrimmedMean { trim_ratio: 0.4 },
        RobustAggregator::Median,
        RobustAggregator::NormClip { threshold: 1.0 },
    ] {
        let cfg = RunConfig {
            adversary: mixed_plan(),
            aggregator,
            ..f.cfg.clone()
        };
        let model = zoo::logistic_regression(&f.train, 1);
        let reference = run(&algo, &model, &f.hierarchy, &f.shards, &f.test, &cfg).unwrap();
        for threads in [1usize, 4] {
            let cfg = RunConfig {
                threads: Some(threads),
                ..cfg.clone()
            };
            let sim = simulate(
                &algo,
                &model,
                &f.hierarchy,
                &f.shards,
                &f.test,
                &cfg,
                &sim_config(7, SyncPolicy::FullSync),
            )
            .unwrap();
            let label = format!("{} threads={threads}", aggregator.label());
            assert_bitwise_equal(&reference, &sim, &label);
            // Both engines tallied the exact same corruption, worker by
            // worker (the sim's actor list leads with the workers).
            for (i, counters) in reference.adversaries.iter().enumerate() {
                assert_eq!(
                    &sim.adversaries[i].counters, counters,
                    "{label}: worker {i} adversary counters differ"
                );
            }
        }
    }
}

/// A defense whose rule never triggers takes the exact
/// `Vector::weighted_average` code path: a zero-trim trimmed mean and an
/// unreachable clip threshold reproduce the plain-mean run bitwise.
#[test]
fn degenerate_defenses_match_plain_mean_bitwise() {
    let f = sim_fixture(0.0);
    let algo = HierAdMo::adaptive(0.01, 0.5);
    let model = zoo::logistic_regression(&f.train, 1);
    let base = run(&algo, &model, &f.hierarchy, &f.shards, &f.test, &f.cfg).unwrap();
    for aggregator in [
        // trim_ratio 0.1 over at most 2 children trims ⌊0.2⌋ = 0 entries.
        RobustAggregator::TrimmedMean { trim_ratio: 0.1 },
        RobustAggregator::NormClip { threshold: 1e30 },
    ] {
        let cfg = RunConfig {
            aggregator,
            ..f.cfg.clone()
        };
        let r = run(&algo, &model, &f.hierarchy, &f.shards, &f.test, &cfg).unwrap();
        let label = aggregator.label();
        assert_eq!(base.curve, r.curve, "{label}: curve differs");
        assert_eq!(
            base.final_params, r.final_params,
            "{label}: final params differ"
        );
        assert_eq!(base.gamma_trace, r.gamma_trace, "{label}: gamma differs");
    }
}

// ---------------------------------------------------------------------
// 2. Defense.
// ---------------------------------------------------------------------

/// The acceptance gate: one sign-flipping worker per edge (2 of 8, a
/// strict minority everywhere) under the trimmed mean or median lands
/// within 2 % of the clean final accuracy, while the plain mean degrades.
#[test]
fn minority_sign_flip_is_defended_by_trimmed_mean_and_median() {
    let f = wide_sim_fixture();
    let algo = HierAdMo::adaptive(0.01, 0.5);
    let model = zoo::logistic_regression(&f.train, 1);
    // Workers 0 and 4: the first worker of each 4-worker edge.
    let attack = AdversaryPlan::uniform([0usize, 4], AttackModel::SignFlip { scale: 3.0 });
    let run_acc = |aggregator: RobustAggregator, adversary: AdversaryPlan| {
        let cfg = RunConfig {
            aggregator,
            adversary,
            ..f.cfg.clone()
        };
        let r = run(&algo, &model, &f.hierarchy, &f.shards, &f.test, &cfg).unwrap();
        assert!(
            r.final_params.is_finite(),
            "{}: non-finite model",
            aggregator.label()
        );
        r.curve.final_accuracy().unwrap()
    };
    let clean = run_acc(RobustAggregator::Mean, AdversaryPlan::none());
    let undefended = run_acc(RobustAggregator::Mean, attack.clone());
    let trimmed = run_acc(
        RobustAggregator::TrimmedMean { trim_ratio: 0.25 },
        attack.clone(),
    );
    let median = run_acc(RobustAggregator::Median, attack);
    assert!(
        undefended < clean - 0.05,
        "the attack must visibly degrade the plain mean: {undefended} vs clean {clean}"
    );
    assert!(
        trimmed >= clean - 0.02,
        "trimmed mean must stay within 2% of clean: {trimmed} vs {clean}"
    );
    assert!(
        median >= clean - 0.02,
        "median must stay within 2% of clean: {median} vs {clean}"
    );
}

/// The HierAdMo-specific vector: poisoning only the momentum upload. The
/// Eq. 7 factor must stay inside `[0, 0.99]` for every round (the NaN
/// regression guarded in `core::adaptive`) and the model must stay finite
/// even with no robust defense at all.
#[test]
fn momentum_poison_keeps_adaptive_gamma_in_range() {
    let f = sim_fixture(0.0);
    let algo = HierAdMo::adaptive(0.01, 0.5);
    let model = zoo::logistic_regression(&f.train, 1);
    let cfg = RunConfig {
        adversary: AdversaryPlan::uniform([0usize], AttackModel::MomentumPoison { scale: 50.0 }),
        ..f.cfg.clone()
    };
    let r = run(&algo, &model, &f.hierarchy, &f.shards, &f.test, &cfg).unwrap();
    assert!(r.final_params.is_finite());
    for &(k, g) in &r.gamma_trace {
        assert!(
            (0.0..=0.99).contains(&g),
            "round {k}: poisoned momentum pushed gamma to {g}"
        );
    }
}

// ---------------------------------------------------------------------
// 3. Determinism.
// ---------------------------------------------------------------------

/// Adversary and fault plans compose: the same `(AdversaryPlan, FaultPlan,
/// seed)` replays the whole co-simulation bitwise across thread counts —
/// trajectory, clock, event count, fault counters and poisoned-upload
/// counters.
#[test]
fn combined_adversary_and_fault_plans_replay_bitwise_across_threads() {
    let f = sim_fixture(0.0);
    let algo = HierAdMo::adaptive(0.01, 0.5);
    let faults = FaultPlan {
        crash: Some(CrashProfile {
            per_step: 0.05,
            min_downtime_ms: 20.0,
            max_downtime_ms: 200.0,
        }),
        link: Some(LinkFaults::flaky()),
        ..FaultPlan::none()
    };
    let model = zoo::logistic_regression(&f.train, 1);
    let run_with = |threads: usize| {
        let cfg = RunConfig {
            threads: Some(threads),
            adversary: mixed_plan(),
            aggregator: RobustAggregator::Median,
            ..f.cfg.clone()
        };
        simulate(
            &algo,
            &model,
            &f.hierarchy,
            &f.shards,
            &f.test,
            &cfg,
            &sim_config(
                7,
                SyncPolicy::Deadline {
                    quorum: 0.5,
                    timeout_ms: 50.0,
                },
            )
            .with_faults(faults.clone()),
        )
        .unwrap()
    };
    let a = run_with(1);
    let b = run_with(4);
    assert_eq!(a.curve, b.curve);
    assert_eq!(a.timed_curve, b.timed_curve);
    assert_eq!(a.final_params, b.final_params);
    assert_eq!(a.simulated_seconds, b.simulated_seconds);
    assert_eq!(a.events, b.events);
    assert_eq!(a.faults, b.faults);
    assert_eq!(a.adversaries, b.adversaries);
    // The plan was live: every Byzantine worker tallied poisoned uploads,
    // everyone else (honest worker, edges, cloud) tallied nothing.
    for adv in &a.adversaries {
        match adv.actor.as_str() {
            "worker-0" | "worker-2" | "worker-3" => assert!(
                adv.counters.poisoned_uploads > 0,
                "{} poisoned nothing",
                adv.actor
            ),
            _ => assert!(
                adv.counters.is_zero(),
                "{} must stay honest, counted {:?}",
                adv.actor,
                adv.counters
            ),
        }
    }
}

// ---------------------------------------------------------------------
// 4. Plumbing: export and validation.
// ---------------------------------------------------------------------

#[test]
fn adversary_counters_export_through_sim_run_record() {
    let f = sim_fixture(0.0);
    let algo = HierAdMo::adaptive(0.01, 0.5);
    let model = zoo::logistic_regression(&f.train, 1);
    let cfg = RunConfig {
        adversary: mixed_plan(),
        aggregator: RobustAggregator::TrimmedMean { trim_ratio: 0.4 },
        ..f.cfg.clone()
    };
    let sim = simulate(
        &algo,
        &model,
        &f.hierarchy,
        &f.shards,
        &f.test,
        &cfg,
        &sim_config(7, SyncPolicy::FullSync),
    )
    .unwrap();
    assert_eq!(sim.adversaries.len(), 7, "4 workers + 2 edges + cloud");
    let record = SimRunRecord::new(
        sim.algorithm.clone(),
        sim.policy.clone(),
        sim.timed_curve.clone(),
        0.9,
        sim.utilization.clone(),
    )
    .with_faults(sim.faults.clone())
    .with_adversaries(sim.adversaries.clone());
    let back = sim_run_from_json(&sim_run_to_json(&record)).unwrap();
    assert_eq!(back, record);
    assert!(back.adversaries[0].counters.poisoned_uploads > 0);
    // The noise injector drew two calibrated vectors per upload.
    assert_eq!(
        back.adversaries[2].counters.noise_injections,
        2 * back.adversaries[2].counters.poisoned_uploads
    );
}

#[test]
fn invalid_adversary_plans_are_rejected_before_the_run() {
    let f = sim_fixture(0.0);
    let algo = HierAdMo::adaptive(0.01, 0.5);
    let model = zoo::logistic_regression(&f.train, 1);

    // A plan naming a worker outside the topology: both engines refuse.
    let out_of_range = RunConfig {
        adversary: AdversaryPlan::uniform([99usize], AttackModel::SignFlip { scale: 1.0 }),
        ..f.cfg.clone()
    };
    let err = run(
        &algo,
        &model,
        &f.hierarchy,
        &f.shards,
        &f.test,
        &out_of_range,
    )
    .unwrap_err();
    assert!(matches!(err, RunError::BadConfig(_)), "got {err}");
    let err = simulate(
        &algo,
        &model,
        &f.hierarchy,
        &f.shards,
        &f.test,
        &out_of_range,
        &sim_config(7, SyncPolicy::FullSync),
    )
    .unwrap_err();
    assert!(matches!(err, SimError::Adversary(_)), "got {err}");

    // Non-finite attack parameters fail RunConfig validation everywhere.
    let bad_scale = RunConfig {
        adversary: AdversaryPlan::uniform(
            [0usize],
            AttackModel::SignFlip {
                scale: f32::INFINITY,
            },
        ),
        ..f.cfg.clone()
    };
    let err = run(&algo, &model, &f.hierarchy, &f.shards, &f.test, &bad_scale).unwrap_err();
    assert!(matches!(err, RunError::BadConfig(_)), "got {err}");
    let err = simulate(
        &algo,
        &model,
        &f.hierarchy,
        &f.shards,
        &f.test,
        &bad_scale,
        &sim_config(7, SyncPolicy::FullSync),
    )
    .unwrap_err();
    assert!(
        matches!(err, SimError::Run(RunError::BadConfig(_))),
        "got {err}"
    );

    // An invalid defense is rejected the same way.
    let bad_defense = RunConfig {
        aggregator: RobustAggregator::TrimmedMean { trim_ratio: 0.5 },
        ..f.cfg.clone()
    };
    let err = run(
        &algo,
        &model,
        &f.hierarchy,
        &f.shards,
        &f.test,
        &bad_defense,
    )
    .unwrap_err();
    assert!(matches!(err, RunError::BadConfig(_)), "got {err}");
}

/// Depth-4 adversary smoke for the CI `adversary-smoke` step: Byzantine
/// workers addressed by tier path, defended by a trimmed mean, replay
/// bitwise across engines and thread counts on an N-tier tree — the
/// middle-tier reductions must neither consume nor skip any adversary
/// RNG draws.
#[test]
fn depth_4_adversary_smoke() {
    use crate::common::run_on_tree;
    use hieradmo::topology::{TierPath, TierSpec, TierTree};

    let tree = TierTree::new(vec![
        TierSpec::new(2, 2),
        TierSpec::new(2, 2),
        TierSpec::new(2, 5),
    ])
    .unwrap();
    let f = tiered_fixture(&tree);
    // One attacker per region, by path; GaussianNoise draws RNG, so a
    // misaligned stream breaks bitwise equality immediately.
    let paths = [TierPath(vec![0, 0, 0]), TierPath(vec![1, 1, 0])];
    let plan =
        AdversaryPlan::uniform_at_paths(&tree, &paths, AttackModel::GaussianNoise { norm: 4.0 })
            .unwrap();
    assert_eq!(
        plan.byzantine.iter().map(|b| b.worker).collect::<Vec<_>>(),
        vec![0, 6]
    );
    let cfg = RunConfig {
        adversary: plan,
        aggregator: RobustAggregator::TrimmedMean { trim_ratio: 0.4 },
        ..f.cfg.clone()
    };
    let model = zoo::logistic_regression(&f.train, 1);
    let algo = HierAdMo::adaptive(0.01, 0.5);
    let reference = run_on_tree(&algo, &model, &tree, &f.shards, &f.test, &cfg).unwrap();
    for threads in [1usize, 4] {
        let cfg = RunConfig {
            threads: Some(threads),
            ..cfg.clone()
        };
        let sim = simulate(
            &algo,
            &model,
            &f.hierarchy,
            &f.shards,
            &f.test,
            &cfg,
            &tiered_sim_config(&tree, 7, SyncPolicy::FullSync),
        )
        .unwrap();
        assert_bitwise_equal(
            &reference,
            &sim,
            &format!("depth-4 adversary threads={threads}"),
        );
        let poisoned: u64 = sim
            .adversaries
            .iter()
            .map(|a| a.counters.poisoned_uploads)
            .sum();
        assert!(poisoned >= 2, "both attackers must actually fire");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Path-addressed attackers generalize past the fixtures: on random
    /// small tier trees the first worker of the leftmost branch
    /// sign-flips under the trimmed mean, and the tiered core driver
    /// matches the full-sync co-simulation bitwise, poison tally
    /// included.
    #[test]
    fn path_addressed_attacks_are_bitwise_on_random_trees(tree in small_tier_trees()) {
        use crate::common::run_on_tree;
        use hieradmo::topology::TierPath;

        let f = tiered_fixture(&tree);
        let path = TierPath(vec![0; tree.levels().len()]);
        let plan = AdversaryPlan::uniform_at_paths(
            &tree,
            &[path],
            AttackModel::SignFlip { scale: 3.0 },
        )
        .unwrap();
        prop_assert_eq!(plan.byzantine[0].worker, 0, "the leftmost path is flat worker 0");
        let cfg = RunConfig {
            adversary: plan,
            aggregator: RobustAggregator::TrimmedMean { trim_ratio: 0.4 },
            ..f.cfg.clone()
        };
        let model = zoo::logistic_regression(&f.train, 1);
        let algo = HierAdMo::adaptive(0.01, 0.5);
        let reference = run_on_tree(&algo, &model, &tree, &f.shards, &f.test, &cfg).unwrap();
        let sim = simulate(
            &algo,
            &model,
            &f.hierarchy,
            &f.shards,
            &f.test,
            &cfg,
            &tiered_sim_config(&tree, 31, SyncPolicy::FullSync),
        )
        .unwrap();
        assert_bitwise_equal(&reference, &sim, &format!("random tree {:?}", tree.levels()));
        let poisoned: u64 = sim
            .adversaries
            .iter()
            .map(|a| a.counters.poisoned_uploads)
            .sum();
        prop_assert!(poisoned >= 1, "the attacker must actually fire");
    }
}
