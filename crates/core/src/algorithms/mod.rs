//! The paper's algorithm and all ten evaluation baselines.
//!
//! Categories follow Section V-B:
//!
//! 1. **Three-tier with momentum**: [`HierAdMo`] (adaptive `γℓ`, the
//!    contribution) and HierAdMo-R ([`HierAdMo::reduced`], fixed `γℓ`).
//! 2. **Three-tier without momentum**: [`HierFavg`], [`Cfl`].
//! 3. **Two-tier with momentum**: [`FastSlowMo`], [`FedAdc`], [`FedNag`],
//!    [`FedMom`], [`SlowMo`], [`Mime`].
//! 4. **Two-tier without momentum**: [`FedAvg`].
//!
//! All baselines are re-implemented from their original papers' update
//! rules at the level of detail the comparison requires (see each type's
//! docs and DESIGN.md §4 for the two role-approximations, CFL and Mime).

mod cfl;
mod fastslowmo;
mod fedadc;
mod fedavg;
mod fedmom;
mod fednag;
mod hieradmo;
mod hierfavg;
mod mime;
mod slowmo;

pub use cfl::Cfl;
pub use fastslowmo::FastSlowMo;
pub use fedadc::FedAdc;
pub use fedavg::FedAvg;
pub use fedmom::FedMom;
pub use fednag::FedNag;
pub use hieradmo::{GammaMode, HierAdMo};
pub use hierfavg::HierFavg;
pub use mime::Mime;
pub use slowmo::SlowMo;

use hieradmo_tensor::{kernels, Vector};

use crate::state::WorkerState;
use crate::strategy::Strategy;

/// Plain SGD local step: `x ← x − η·∇F(x)` (no momentum, used by FedAvg,
/// HierFAVG, CFL). Allocation-free: the gradient lands in the worker's
/// scratch buffer.
pub(crate) fn sgd_local_step(
    eta: f32,
    worker: &mut WorkerState,
    grad: &mut dyn FnMut(&Vector, &mut Vector),
) {
    let mut g = std::mem::take(&mut worker.scratch);
    grad(&worker.x, &mut g);
    worker.x.axpy(-eta, &g);
    worker.scratch = g;
}

/// Worker NAG step (Algorithm 1 lines 5–6) with edge-interval accumulation
/// (line 9's sums):
///
/// ```text
/// y_t = x_{t−1} − η ∇F(x_{t−1})
/// x_t = y_t + γ (y_t − y_{t−1})
/// ```
///
/// Also maintains `v = y_t − y_{t−1}`, the velocity form of Appendix A
/// (Eqs. 24–25).
///
/// Allocation-free, and one pass over the worker's vectors
/// ([`kernels::nag_step`]): `Σ ∇F_{i,ℓ}(x^t)` and `Σ y^t` over the edge
/// interval accumulate *before* the update (the sums run over
/// t = (k−1)τ … kτ−1), with every per-element float expression of the
/// textbook clone-based formulation, so the fusion is bitwise-neutral.
pub(crate) fn nag_local_step(
    eta: f32,
    gamma: f32,
    worker: &mut WorkerState,
    grad: &mut dyn FnMut(&Vector, &mut Vector),
) {
    let mut g = std::mem::take(&mut worker.scratch);
    grad(&worker.x, &mut g);
    worker.steps += 1;
    kernels::nag_step(
        worker.x.as_mut_slice(),
        worker.y.as_mut_slice(),
        worker.v.as_mut_slice(),
        worker.grad_accum.as_mut_slice(),
        worker.y_accum.as_mut_slice(),
        worker.v_accum.as_mut_slice(),
        g.as_slice(),
        eta,
        gamma,
    );
    worker.scratch = g;
}

/// All eleven algorithms of Table II with the paper's hyper-parameters,
/// boxed for table-style iteration in experiments.
///
/// `eta`/`gamma`/`gamma_edge` follow the table's setting (`γ = γℓ = 0.5`,
/// `η = 0.01`). The returned order matches the rows of Table II.
pub fn table2_lineup(eta: f32, gamma: f32, gamma_edge: f32) -> Vec<Box<dyn Strategy>> {
    vec![
        Box::new(HierAdMo::adaptive(eta, gamma)),
        Box::new(HierAdMo::reduced(eta, gamma, gamma_edge)),
        Box::new(HierFavg::new(eta)),
        Box::new(Cfl::new(eta, 0.75)),
        Box::new(FastSlowMo::new(eta, gamma, gamma_edge)),
        Box::new(FedAdc::new(eta, gamma)),
        Box::new(FedMom::new(eta, gamma)),
        Box::new(SlowMo::new(eta, gamma, 1.0)),
        Box::new(FedNag::new(eta, gamma)),
        Box::new(Mime::new(eta, gamma)),
        Box::new(FedAvg::new(eta)),
    ]
}

#[cfg(test)]
pub(crate) mod testutil {
    //! Shared fixtures for algorithm tests: a small separable problem and a
    //! driver invocation helper.

    use hieradmo_data::partition::x_class_partition;
    use hieradmo_data::Dataset;
    use hieradmo_models::{zoo, Sequential};
    use hieradmo_topology::Hierarchy;

    use crate::config::RunConfig;
    use crate::driver::{run, RunResult};
    use crate::strategy::Strategy;

    /// A small 4-class flat classification problem, 2-class non-iid over
    /// `n` workers.
    pub fn small_problem(n_workers: usize) -> (Dataset, Dataset, Vec<Dataset>, Sequential) {
        let spec = hieradmo_data::synthetic::SyntheticSpec {
            num_classes: 4,
            shape: hieradmo_data::FeatureShape::Flat(16),
            noise: 0.3,
            prototype_scale: 1.0,
            max_shift: 0,
            class_group: 1,
        };
        let tt = hieradmo_data::synthetic::generate(&spec, 30, 10, 42);
        let shards = x_class_partition(&tt.train, n_workers, 2, 7);
        let model = zoo::logistic_regression(&tt.train, 3);
        (tt.train, tt.test, shards, model)
    }

    /// Runs a strategy on [`small_problem`] with a short schedule.
    pub fn quick_run(strategy: &dyn Strategy, hierarchy: Hierarchy, cfg: RunConfig) -> RunResult {
        let (_, test, shards, model) = small_problem(hierarchy.num_workers());
        run(strategy, &model, &hierarchy, &shards, &test, &cfg).expect("run should succeed")
    }

    /// Default quick config: η=0.05 for fast convergence on the small
    /// problem.
    pub fn quick_cfg() -> RunConfig {
        RunConfig {
            eta: 0.05,
            tau: 5,
            pi: 2,
            total_iters: 200,
            batch_size: 16,
            eval_every: 50,
            threads: Some(1),
            ..RunConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::Tier;

    /// The fused NAG pass equals the composition it replaced — `+=`,
    /// `copy_from` + `axpy`, buffer swap, `sub_from` — bit for bit, over
    /// several steps and with a dimension that is not a multiple of the
    /// kernel lane width.
    #[test]
    fn fused_nag_step_is_bitwise_the_unfused_composition() {
        fn unfused(eta: f32, gamma: f32, w: &mut WorkerState, g: &Vector) {
            w.grad_accum += g;
            w.y_accum += &w.y;
            w.steps += 1;
            w.v.copy_from(&w.x);
            w.v.axpy(-eta, g);
            std::mem::swap(&mut w.y, &mut w.v);
            w.v.sub_from(&w.y);
            w.v_accum += &w.v;
            w.x.copy_from(&w.y);
            w.x.axpy(gamma, &w.v);
        }
        let d = 37;
        let x0: Vector = (0..d).map(|i| (i as f32 * 0.37).sin()).collect();
        let (eta, gamma) = (0.05f32, 0.5f32);
        let mut fused = WorkerState::new(&x0);
        let mut reference = WorkerState::new(&x0);
        for step in 0..3 {
            let g: Vector = (0..d)
                .map(|i| ((i + 3 * step) as f32 * 0.91).cos() * 2.0)
                .collect();
            let mut grad = |_: &Vector, out: &mut Vector| out.copy_from(&g);
            nag_local_step(eta, gamma, &mut fused, &mut grad);
            unfused(eta, gamma, &mut reference, &g);
        }
        let bits = |v: &Vector| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (a, b) in [
            (&fused.x, &reference.x),
            (&fused.y, &reference.y),
            (&fused.v, &reference.v),
            (&fused.grad_accum, &reference.grad_accum),
            (&fused.y_accum, &reference.y_accum),
            (&fused.v_accum, &reference.v_accum),
        ] {
            assert_eq!(bits(a), bits(b));
        }
        assert_eq!(fused.steps, reference.steps);
    }

    #[test]
    fn lineup_matches_table2_rows() {
        let lineup = table2_lineup(0.01, 0.5, 0.5);
        let names: Vec<&str> = lineup.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            vec![
                "HierAdMo",
                "HierAdMo-R",
                "HierFAVG",
                "CFL",
                "FastSlowMo",
                "FedADC",
                "FedMom",
                "SlowMo",
                "FedNAG",
                "Mime",
                "FedAvg"
            ]
        );
        // Category split: first four are three-tier, the rest two-tier.
        for s in &lineup[..4] {
            assert_eq!(s.tier(), Tier::Three, "{}", s.name());
        }
        for s in &lineup[4..] {
            assert_eq!(s.tier(), Tier::Two, "{}", s.name());
        }
    }
}
