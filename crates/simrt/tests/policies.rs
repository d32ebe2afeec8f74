//! End-to-end runs of the relaxed synchronization policies on the paper's
//! three-tier schedule: the runs must terminate, produce a monotone
//! simulated-time axis, finite models, and sane utilization figures.

use hieradmo_core::algorithms::HierAdMo;
use hieradmo_core::RunConfig;
use hieradmo_data::partition::x_class_partition;
use hieradmo_data::synthetic::SyntheticDataset;
use hieradmo_models::zoo;
use hieradmo_netsim::{Architecture, NetworkEnv};
use hieradmo_simrt::{simulate, SimConfig, SimError, SimResult, SyncPolicy};
use hieradmo_topology::Hierarchy;

fn run_policy(policy: SyncPolicy) -> SimResult {
    let tt = SyntheticDataset::mnist_like(60, 30, 5);
    let hierarchy = Hierarchy::balanced(2, 2);
    let shards = x_class_partition(&tt.train, 4, 2, 5);
    let model = zoo::logistic_regression(&tt.train, 1);
    let cfg = RunConfig {
        tau: 5,
        pi: 2,
        total_iters: 40,
        eval_every: 10,
        batch_size: 8,
        seed: 3,
        threads: Some(1),
        ..RunConfig::default()
    };
    let algo = HierAdMo::adaptive(cfg.eta, cfg.gamma);
    let sim = SimConfig::new(
        NetworkEnv::paper_testbed(4),
        Architecture::ThreeTier,
        50_000,
        13,
        policy,
    );
    simulate(&algo, &model, &hierarchy, &shards, &tt.test, &cfg, &sim)
        .expect("simulation should complete")
}

fn check_sane(res: &SimResult) {
    assert!(res.simulated_seconds > 0.0, "run must consume virtual time");
    assert!(res.events > 0);
    assert!(
        !res.timed_curve.is_empty(),
        "at least one evaluation must be recorded"
    );
    // TimedCurve::push enforces non-decreasing seconds and strictly
    // increasing iterations; check the envelope explicitly anyway.
    let pts = res.timed_curve.points();
    for w in pts.windows(2) {
        assert!(w[1].seconds >= w[0].seconds, "time axis must be monotone");
        assert!(w[1].iteration > w[0].iteration);
    }
    assert!(
        pts.last().unwrap().seconds <= res.simulated_seconds + 1e-9,
        "no evaluation can postdate the end of the run"
    );
    assert!(res.final_params.iter().all(|v| v.is_finite()));
    // 4 workers + 2 edges + cloud.
    assert_eq!(res.utilization.len(), 7);
    for u in &res.utilization {
        assert!(
            (0.0..=1.0).contains(&u.utilization),
            "{}: utilization {} out of range",
            u.actor,
            u.utilization
        );
        assert!(u.busy_seconds >= 0.0);
    }
}

#[test]
fn deadline_policy_runs_end_to_end() {
    // A tight timeout relative to the paper testbed's heterogeneous worker
    // speeds, so quorum firings (and carried-over stale uploads) actually
    // happen.
    let res = run_policy(SyncPolicy::Deadline {
        quorum: 0.5,
        timeout_ms: 50.0,
    });
    check_sane(&res);
    assert!(res.policy.starts_with("deadline"));
    assert!(!res.gamma_trace.is_empty());
}

#[test]
fn deadline_with_generous_timeout_behaves_like_full_sync_rounds() {
    // With an enormous timeout no round ever times out, so every round
    // collects everyone: the trajectory must equal full sync's.
    let relaxed = run_policy(SyncPolicy::Deadline {
        quorum: 0.5,
        timeout_ms: 1e12,
    });
    check_sane(&relaxed);
    let full = run_policy(SyncPolicy::FullSync);
    assert_eq!(
        relaxed.final_params, full.final_params,
        "no-timeout deadline must reduce to full-sync aggregation"
    );
}

#[test]
fn async_age_policy_runs_end_to_end() {
    let res = run_policy(SyncPolicy::AsyncAge { max_staleness: 2 });
    check_sane(&res);
    assert!(res.policy.starts_with("async"));
    // Per-arrival firing produces at least as many edge firings as the
    // synchronous schedule (K = 8 rounds × 2 edges).
    assert!(res.gamma_trace.len() >= 16);
}

/// Two AsyncAge root firings closer together than the jitter of the
/// cloud's compute time must still stamp their evaluations in firing
/// order: one cloud actor cannot finish a later firing first. This seed
/// of the 2 × 4 federation hits exactly that pair of firings.
#[test]
fn async_age_eval_stamps_stay_monotone_under_cloud_compute_jitter() {
    let seed = 27;
    let tt = SyntheticDataset::mnist_like(20, 5, seed);
    let hierarchy = Hierarchy::balanced(2, 4);
    let shards = x_class_partition(&tt.train, 8, 2, seed + 2);
    let model = zoo::logistic_regression(&tt.train, seed + 100);
    let cfg = RunConfig {
        tau: 5,
        pi: 2,
        total_iters: 40,
        eval_every: 10,
        batch_size: 8,
        seed,
        threads: Some(1),
        ..RunConfig::default()
    };
    let algo = HierAdMo::adaptive(cfg.eta, cfg.gamma);
    let sim = SimConfig::new(
        NetworkEnv::paper_testbed(8),
        Architecture::ThreeTier,
        31_400,
        seed + 7,
        SyncPolicy::AsyncAge { max_staleness: 2 },
    );
    let res = simulate(&algo, &model, &hierarchy, &shards, &tt.test, &cfg, &sim)
        .expect("simulation should complete");
    let pts = res.timed_curve.points();
    assert!(pts.windows(2).all(|w| w[1].seconds >= w[0].seconds));
    assert!(res.final_params.iter().all(|v| v.is_finite()));
}

#[test]
fn async_age_one_is_the_tightest_valid_bound() {
    let res = run_policy(SyncPolicy::AsyncAge { max_staleness: 1 });
    check_sane(&res);
}

#[test]
fn two_tier_architecture_runs_end_to_end() {
    let tt = SyntheticDataset::mnist_like(60, 30, 9);
    let hierarchy = Hierarchy::two_tier(4);
    let shards = x_class_partition(&tt.train, 4, 2, 9);
    let model = zoo::logistic_regression(&tt.train, 1);
    let cfg = RunConfig {
        tau: 10,
        pi: 1,
        total_iters: 40,
        eval_every: 10,
        batch_size: 8,
        seed: 3,
        threads: Some(1),
        ..RunConfig::default()
    };
    let algo = HierAdMo::adaptive(cfg.eta, cfg.gamma);
    // Pinned fingerprints (see `fingerprint`): nothing else fixes the
    // two-tier Deadline trajectory.
    for (policy, pin) in [
        (
            SyncPolicy::FullSync,
            (0xc469867e40338696, 200, 0x401609cf4698f4b5, 4, 4),
        ),
        (
            SyncPolicy::Deadline {
                quorum: 0.5,
                timeout_ms: 50.0,
            },
            (0x81201d33019f5da9, 204, 0x4015f6e1ca8a207d, 5, 4),
        ),
    ] {
        let sim = SimConfig::new(
            NetworkEnv::paper_testbed(4),
            Architecture::TwoTier,
            50_000,
            13,
            policy,
        );
        let res = simulate(&algo, &model, &hierarchy, &shards, &tt.test, &cfg, &sim)
            .expect("two-tier simulation should complete");
        assert!(res.simulated_seconds > 0.0);
        assert!(res.final_params.iter().all(|v| v.is_finite()));
        // 4 workers + 1 pass-through edge + cloud.
        assert_eq!(res.utilization.len(), 6);
        assert_eq!(
            fingerprint(&res),
            pin,
            "{}: pinned trajectory",
            policy.label()
        );
    }
}

/// A run's fingerprint for hard-coded pins: an FNV-1a hash of the final
/// parameters' bits, the event count, the bits of the simulated duration,
/// and the curve and γ-trace lengths.
fn fingerprint(res: &SimResult) -> (u64, u64, u64, usize, usize) {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in res.final_params.iter() {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    (
        h,
        res.events,
        res.simulated_seconds.to_bits(),
        res.curve.len(),
        res.gamma_trace.len(),
    )
}

#[test]
fn mismatched_device_count_is_rejected() {
    let tt = SyntheticDataset::mnist_like(40, 20, 5);
    let hierarchy = Hierarchy::balanced(2, 2);
    let shards = x_class_partition(&tt.train, 4, 2, 5);
    let model = zoo::logistic_regression(&tt.train, 1);
    let cfg = RunConfig {
        tau: 5,
        pi: 2,
        total_iters: 20,
        eval_every: 10,
        batch_size: 8,
        ..RunConfig::default()
    };
    let algo = HierAdMo::adaptive(cfg.eta, cfg.gamma);
    let sim = SimConfig::new(
        NetworkEnv::paper_testbed(3), // three profiles for four workers
        Architecture::ThreeTier,
        50_000,
        1,
        SyncPolicy::FullSync,
    );
    let err = simulate(&algo, &model, &hierarchy, &shards, &tt.test, &cfg, &sim)
        .expect_err("device/worker count mismatch must be rejected");
    assert!(matches!(err, SimError::Net(_)), "got {err:?}");
}

#[test]
fn invalid_policy_is_rejected() {
    let tt = SyntheticDataset::mnist_like(40, 20, 5);
    let hierarchy = Hierarchy::balanced(2, 2);
    let shards = x_class_partition(&tt.train, 4, 2, 5);
    let model = zoo::logistic_regression(&tt.train, 1);
    let cfg = RunConfig {
        tau: 5,
        pi: 2,
        total_iters: 20,
        eval_every: 10,
        batch_size: 8,
        ..RunConfig::default()
    };
    let algo = HierAdMo::adaptive(cfg.eta, cfg.gamma);
    let sim = SimConfig::new(
        NetworkEnv::paper_testbed(4),
        Architecture::ThreeTier,
        50_000,
        1,
        SyncPolicy::AsyncAge { max_staleness: 0 },
    );
    let err = simulate(&algo, &model, &hierarchy, &shards, &tt.test, &cfg, &sim)
        .expect_err("zero staleness bound must be rejected");
    assert!(matches!(err, SimError::Policy(_)), "got {err:?}");
}
