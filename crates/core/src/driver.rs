//! The simulation engine: walks the aggregation schedule, runs worker
//! steps on a persistent worker pool, fires the strategy's aggregation
//! hooks, and records a convergence curve.
//!
//! Parallelism is governed by [`RunConfig::resolved_threads`]. The engine
//! chunks every phase — local steps, per-edge aggregation, evaluation — in
//! a fixed order that does not depend on the thread count, so results are
//! bitwise identical whether a run uses one thread or all cores.

use std::error::Error;
use std::fmt;
use std::mem;
use std::time::{Duration, Instant};

use hieradmo_data::{Batcher, Dataset};
use hieradmo_metrics::{AdversaryCounters, ConvergenceCurve, EvalPoint, TopologyCounters};
use hieradmo_models::{EvalSums, Evaluation, Model};
use hieradmo_netsim::adversary::{AdversarySampler, AttackModel};
use hieradmo_tensor::Vector;
use hieradmo_topology::{Hierarchy, Schedule, ScheduleError, TierTree, Weights};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::byzantine::{corrupt_upload, replay_upload};
use crate::checkpoint::TrainingSnapshot;
use crate::config::RunConfig;
use crate::pool::{chunk, EdgeItem, ExecCtx, Job, Pool, Reply, StepCtx, StepItem};
use crate::state::{FlState, TierState, WorkerState};
use crate::strategy::{fire_middle_tiers, Strategy, TierScope};

/// Errors a run can fail with before any training happens.
#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    /// The configuration failed [`RunConfig::validate`].
    BadConfig(String),
    /// The schedule could not be built from `(τ, π, T)`.
    Schedule(ScheduleError),
    /// The algorithm's tier does not match the topology.
    Topology(String),
    /// Worker data does not line up with the hierarchy.
    Data(String),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::BadConfig(m) => write!(f, "invalid configuration: {m}"),
            RunError::Schedule(e) => write!(f, "invalid schedule: {e}"),
            RunError::Topology(m) => write!(f, "topology mismatch: {m}"),
            RunError::Data(m) => write!(f, "data mismatch: {m}"),
        }
    }
}

impl Error for RunError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RunError::Schedule(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ScheduleError> for RunError {
    fn from(e: ScheduleError) -> Self {
        RunError::Schedule(e)
    }
}

/// Wall-clock spent in each phase of a run (simulation time, not emulated
/// network time — see `hieradmo-netsim` for the latter).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimings {
    /// Worker local steps, summed over all ticks.
    pub local_steps: Duration,
    /// Edge aggregations (every `τ` ticks).
    pub edge_agg: Duration,
    /// Cloud aggregations (every `τ·π` ticks).
    pub cloud_agg: Duration,
    /// Global-model evaluations (test set + training probe).
    pub eval: Duration,
}

impl PhaseTimings {
    /// Total time across all phases.
    pub fn total(&self) -> Duration {
        self.local_steps + self.edge_agg + self.cloud_agg + self.eval
    }
}

impl From<PhaseTimings> for hieradmo_metrics::PhaseBreakdown {
    /// The serializable (milliseconds) form of the timings, as persisted by
    /// `hieradmo_metrics::export::RunRecord`.
    fn from(t: PhaseTimings) -> Self {
        hieradmo_metrics::PhaseBreakdown {
            local_steps_ms: t.local_steps.as_secs_f64() * 1000.0,
            edge_agg_ms: t.edge_agg.as_secs_f64() * 1000.0,
            cloud_agg_ms: t.cloud_agg.as_secs_f64() * 1000.0,
            eval_ms: t.eval.as_secs_f64() * 1000.0,
        }
    }
}

/// The outcome of one training run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Algorithm name (Table II row label).
    pub algorithm: String,
    /// Accuracy/loss trajectory of the global model.
    pub curve: ConvergenceCurve,
    /// `(k, mean-over-edges γℓ)` at every edge aggregation — the raw data
    /// behind the Fig. 2(i)–(k) adaptive-γℓ diagnostics.
    pub gamma_trace: Vec<(usize, f32)>,
    /// `(k, mean-over-edges cos θ)` at every edge aggregation (Eq. 6's
    /// measured worker/edge momentum agreement).
    pub cos_trace: Vec<(usize, f32)>,
    /// Per-middle-tier γ diagnostics on N-tier runs: one trace per
    /// middle depth (in [`TierTree::middle_depths`] order), each holding
    /// `(round, mean-over-nodes γ)` at that tier's aggregations — the
    /// per-tier generalization of [`RunResult::gamma_trace`]. Empty on
    /// three-tier runs; an identity (pass-through) tier's trace stays
    /// empty, since that tier never aggregates.
    pub tier_gamma: Vec<Vec<(usize, f32)>>,
    /// Final global model parameters.
    pub final_params: Vector,
    /// Wall-clock duration of the simulation (not of the emulated network;
    /// see `hieradmo-netsim` for trace-driven time).
    pub elapsed: Duration,
    /// Per-phase wall-clock breakdown of `elapsed`.
    pub timings: PhaseTimings,
    /// Per-worker Byzantine corruption tallies, indexed like the
    /// hierarchy's workers. All-zero (but still one entry per worker)
    /// when [`RunConfig::adversary`](crate::RunConfig) is empty.
    pub adversaries: Vec<AdversaryCounters>,
    /// Churn tallies from the elastic topology layer ([`crate::elastic`]).
    /// All-zero on frozen-tree runs.
    pub topology: TopologyCounters,
}

/// Runs `strategy` on the given topology/data with the paper's training
/// loop (Algorithm 1's skeleton):
///
/// 1. every tick, each worker takes one local step on its own mini-batch;
/// 2. at `t = kτ`, every edge aggregates (edges run in parallel on the
///    pool);
/// 3. at `t = pτπ`, the cloud aggregates;
/// 4. every `eval_every` ticks (and at `t = T`) the global model is
///    evaluated on the test set and a capped training probe.
///
/// The worker pool is created once and lives for the whole loop; see
/// [`RunConfig::threads`] for the parallelism knob and the determinism
/// guarantee.
///
/// `worker_data` registers the whole uid space: the first
/// `hierarchy.num_workers()` datasets fill the initial tree in flat order,
/// trailing datasets belong to registered-but-absent workers that a
/// [`RunConfig::churn`] join can bring in. An empty plan with one dataset
/// per worker runs the frozen-tree loop directly; anything else runs the
/// elastic epoch segments of [`crate::elastic`] — see [`run_span`].
///
/// # Errors
///
/// Returns [`RunError`] if the config, schedule, topology or data are
/// inconsistent, or a churn event is invalid against the live topology
/// when it applies.
pub fn run<M, S>(
    strategy: &S,
    model: &M,
    hierarchy: &Hierarchy,
    worker_data: &[Dataset],
    test_data: &Dataset,
    cfg: &RunConfig,
) -> Result<RunResult, RunError>
where
    M: Model + Clone + Send,
    S: Strategy + ?Sized,
{
    run_span(
        strategy,
        model,
        hierarchy,
        worker_data,
        test_data,
        cfg,
        None,
        None,
        None,
    )
    .map(|(result, _)| result)
}

/// [`run`] with an optional N-tier tree, resume point and stop point: the
/// one entry point behind every span of a tick-driven run.
///
/// - `tree` lays the run over an arbitrary-depth [`TierTree`] whose edge
///   tier spans `hierarchy` (usually [`TierTree::edge_hierarchy`]); middle
///   tiers fire bottom-up at their interval boundaries through
///   [`Strategy::tier_aggregate`], between the edge and root aggregations.
///   A depth-3 tree is bitwise equal to no tree.
/// - `stop_at` stops after that tick (a positive multiple of `τ` no larger
///   than `T`) and returns the federation state there alongside the
///   partial result.
/// - `resume` continues from such a snapshot, bitwise identically to the
///   uninterrupted run: the driver replays the dropout, mini-batch and
///   adversary RNG draws of the completed prefix without recomputing any
///   steps. The returned curve and traces cover only this span.
///
/// The path follows the inputs. An empty [`RunConfig::churn`] plan with
/// one dataset per worker (and a snapshot without a topology version)
/// runs the frozen-tree loop, so its snapshots keep `topology: None`.
/// Anything else runs the elastic epoch segments: the frozen loop once per
/// topology epoch, with the churn boundary applied to the snapshot in
/// between; its snapshots carry the topology version in force at
/// `stop_at`, and a stop exactly at a churn boundary captures the
/// *post*-transform tree, so resuming never re-applies the boundary.
///
/// # Errors
///
/// Everything [`run`] rejects, plus a tree whose `(τ, π)` or shape
/// disagree with the config or hierarchy, a tree together with a
/// non-empty churn plan ([`RunError::BadConfig`]), an invalid `stop_at`,
/// and a snapshot whose algorithm, tick or shapes do not match this run.
#[allow(clippy::too_many_arguments)]
pub fn run_span<M, S>(
    strategy: &S,
    model: &M,
    hierarchy: &Hierarchy,
    worker_data: &[Dataset],
    test_data: &Dataset,
    cfg: &RunConfig,
    tree: Option<&TierTree>,
    resume: Option<&TrainingSnapshot>,
    stop_at: Option<usize>,
) -> Result<(RunResult, Option<TrainingSnapshot>), RunError>
where
    M: Model + Clone + Send,
    S: Strategy + ?Sized,
{
    cfg.validate().map_err(RunError::BadConfig)?;
    if tree.is_some() && !cfg.churn.is_empty() {
        return Err(RunError::BadConfig(
            "N-tier trees do not compose with a ChurnPlan yet; elastic runs \
             are three-tier"
                .into(),
        ));
    }
    let frozen = cfg.churn.is_empty()
        && worker_data.len() == hierarchy.num_workers()
        && resume.is_none_or(|snap| snap.topology.is_none());
    if frozen || tree.is_some() {
        frozen_span(
            strategy,
            model,
            hierarchy,
            worker_data,
            test_data,
            cfg,
            tree,
            resume,
            stop_at,
        )
    } else {
        crate::elastic::run_epochs(
            strategy,
            model,
            hierarchy,
            worker_data,
            test_data,
            cfg,
            resume,
            stop_at,
        )
    }
}

/// The frozen-tree training loop behind [`run_span`], also run once per
/// topology epoch by the elastic segments (`crate::elastic`). Expects a
/// validated config.
#[allow(clippy::too_many_arguments)]
pub(crate) fn frozen_span<M, S>(
    strategy: &S,
    model: &M,
    hierarchy: &Hierarchy,
    worker_data: &[Dataset],
    test_data: &Dataset,
    cfg: &RunConfig,
    tiers: Option<&TierTree>,
    resume: Option<&TrainingSnapshot>,
    stop_at: Option<usize>,
) -> Result<(RunResult, Option<TrainingSnapshot>), RunError>
where
    M: Model + Clone + Send,
    S: Strategy + ?Sized,
{
    if let Some(tree) = tiers {
        tree.check_periods(cfg.tau, cfg.pi)
            .map_err(RunError::BadConfig)?;
        tree.check_spans(hierarchy).map_err(RunError::Topology)?;
    }
    strategy
        .check_topology(hierarchy)
        .map_err(RunError::Topology)?;
    if worker_data.len() != hierarchy.num_workers() {
        return Err(RunError::Data(format!(
            "{} worker datasets for {} workers",
            worker_data.len(),
            hierarchy.num_workers()
        )));
    }
    if let Some(i) = worker_data.iter().position(Dataset::is_empty) {
        return Err(RunError::Data(format!("worker {i} has no data")));
    }
    if let Some(b) = cfg
        .adversary
        .byzantine
        .iter()
        .find(|b| b.worker >= hierarchy.num_workers())
    {
        return Err(RunError::BadConfig(format!(
            "adversary plan marks worker {} Byzantine, but the hierarchy has \
             only {} workers",
            b.worker,
            hierarchy.num_workers()
        )));
    }
    let schedule = Schedule::three_tier(cfg.tau, cfg.pi, cfg.total_iters)?;

    let started = Instant::now();
    let samples: Vec<u64> = worker_data.iter().map(|d| d.len() as u64).collect();
    let weights = Weights::from_samples(hierarchy, &samples);
    // The pool threads need the weights by shared reference while the main
    // thread holds `&mut state`, so the engine keeps its own copy.
    let engine_weights = weights.clone();
    let mut state = FlState::new(hierarchy.clone(), weights, &model.params());
    state.aggregator = cfg.aggregator;
    if let Some(tree) = tiers {
        state.attach_tree(tree.clone());
    }
    strategy.init(&mut state);
    let start = TrainingSnapshot::open_span(resume, stop_at, strategy.name(), cfg, &mut state)?;

    let train_probe = build_train_probe(worker_data, cfg.train_eval_cap);
    let threads = cfg.resolved_threads();

    // Per-worker step contexts: a private batcher stream (so data order is
    // independent of scheduling) and a reusable batch buffer. `None` while
    // checked out to a job.
    let mut ctxs: Vec<Option<StepCtx>> = worker_data
        .iter()
        .enumerate()
        .map(|(i, d)| {
            Some(StepCtx {
                batcher: Batcher::new(d.len(), cfg.batch_size, cfg.seed.wrapping_add(i as u64)),
                batch: Vec::with_capacity(cfg.batch_size.min(d.len())),
            })
        })
        .collect();
    // One model replica per evaluation lane; the first is also the calling
    // thread's pool lane, on which its share of the local steps run (each
    // spawned pool thread holds its own).
    let mut lane_models: Vec<M> = (0..threads).map(|_| model.clone()).collect();

    let mut curve = ConvergenceCurve::new();
    let mut gamma_trace = Vec::new();
    let mut cos_trace = Vec::new();
    let mut tier_gamma: Vec<Vec<(usize, f32)>> = vec![Vec::new(); state.middle.len()];
    let mut timings = PhaseTimings::default();
    // Failure-injection RNG: drawn per (tick, worker) serially on the main
    // thread so runs stay deterministic regardless of threading.
    let mut fault_rng = StdRng::seed_from_u64(cfg.seed ^ 0x5f5f_5f5f_5f5f_5f5f);
    // Byzantine workers: each owns a salted per-worker adversary stream
    // derived from the *training* seed, so the same poisoned trajectory
    // replays under any network seed and any thread count (uploads are
    // corrupted serially on the main thread, in flat worker order).
    let mut adversaries: Vec<Option<(AttackModel, AdversarySampler)>> = (0..state.workers.len())
        .map(|i| {
            cfg.adversary
                .attack_for(i)
                .map(|a| (a, AdversarySampler::from_stream(cfg.seed, i as u64)))
        })
        .collect();
    let mut adversary_counters = vec![AdversaryCounters::default(); state.workers.len()];

    let ctx = ExecCtx {
        strategy,
        cfg,
        worker_data,
        weights: &engine_weights,
    };

    std::thread::scope(|scope| {
        let pool = Pool::new(scope, threads - 1, ctx, model);

        for tick in schedule.ticks() {
            if stop_at.is_some_and(|stop| tick.t > stop) {
                break;
            }
            let active: Vec<bool> = (0..state.workers.len())
                .map(|_| cfg.dropout == 0.0 || fault_rng.gen_range(0.0..1.0) >= cfg.dropout)
                .collect();

            if tick.t <= start {
                // Fast-forward over the already-trained prefix: replay
                // exactly the RNG draws an uninterrupted run would make —
                // one dropout draw per worker (above) and one mini-batch
                // draw per *active* worker (here) — without recomputing any
                // steps, so every stream resumes at the position it held
                // when the snapshot was captured.
                for (i, _) in active.iter().enumerate().filter(|(_, a)| **a) {
                    let c = ctxs[i].as_mut().expect("step context double checkout");
                    c.batcher.next_batch_into(&mut c.batch);
                }
                // Adversary streams advance once per upload (edge
                // boundary); replay them too, without touching state.
                if tick.edge_aggregation.is_some() {
                    let dim = state.dim();
                    for (attack, sampler) in adversaries.iter_mut().flatten() {
                        replay_upload(dim, attack, sampler);
                    }
                }
                continue;
            }

            let t0 = Instant::now();
            let items: Vec<StepItem> = active
                .iter()
                .enumerate()
                .filter(|(_, a)| **a)
                .map(|(i, _)| StepItem {
                    idx: i,
                    worker: mem::replace(&mut state.workers[i], WorkerState::placeholder()),
                    ctx: ctxs[i].take().expect("step context double checkout"),
                })
                .collect();
            let jobs = chunk(items, threads)
                .into_iter()
                .map(|items| Job::Steps { t: tick.t, items })
                .collect();
            for reply in pool.exec(ctx, &mut lane_models[0], jobs) {
                let Reply::Steps(items) = reply else {
                    unreachable!("step job must yield a step reply")
                };
                for item in items {
                    state.workers[item.idx] = item.worker;
                    ctxs[item.idx] = Some(item.ctx);
                }
            }
            timings.local_steps += t0.elapsed();

            if let Some(k) = tick.edge_aggregation {
                let t0 = Instant::now();
                // Byzantine workers corrupt their upload at the moment it
                // becomes visible to the edge — i.e. right before the edge
                // aggregates. In this synchronous driver the worker state
                // *is* the upload, so corrupt it in place; the
                // redistribution at the end of `edge_aggregate` then
                // overwrites the poisoned fields, exactly as a mailbox
                // model would.
                for (i, adv) in adversaries.iter_mut().enumerate() {
                    if let Some((attack, sampler)) = adv {
                        corrupt_upload(
                            &mut state.workers[i],
                            attack,
                            sampler,
                            &mut adversary_counters[i],
                        );
                    }
                }
                edge_aggregations(&pool, ctx, &mut lane_models[0], &mut state, k, threads);
                let n_edges = state.edges.len() as f32;
                let mean_gamma = state.edges.iter().map(|e| e.gamma_edge).sum::<f32>() / n_edges;
                gamma_trace.push((k, mean_gamma));
                let mean_cos = state.edges.iter().map(|e| e.cos_theta).sum::<f32>() / n_edges;
                cos_trace.push((k, mean_cos));
                timings.edge_agg += t0.elapsed();

                // Middle tiers fire bottom-up whenever the edge round count
                // divides their synchronization period, serially on the
                // main thread and without RNG — the basis of the
                // depth-collapse equivalence guarantee.
                if let Some(tree) = tiers {
                    let t0 = Instant::now();
                    fire_middle_tiers(strategy, &mut state, tree, k, None, &mut tier_gamma);
                    timings.cloud_agg += t0.elapsed();
                }
            }
            if let Some(p) = tick.cloud_aggregation {
                let t0 = Instant::now();
                if tiers.is_some() {
                    strategy.tier_aggregate(TierScope::Root(&mut state), p);
                } else {
                    strategy.cloud_aggregate(p, &mut state);
                }
                timings.cloud_agg += t0.elapsed();
            }

            if tick.t % cfg.eval_every == 0 || tick.t == cfg.total_iters {
                let t0 = Instant::now();
                let global = strategy.global_params(&state);
                let (test_eval, train_eval) =
                    evaluate_on_replicas(&mut lane_models, test_data, &train_probe, &global);
                curve.push(EvalPoint {
                    iteration: tick.t,
                    train_loss: train_eval.loss,
                    test_loss: test_eval.loss,
                    test_accuracy: test_eval.accuracy,
                });
                timings.eval += t0.elapsed();
            }
        }
    });

    let final_params = strategy.global_params(&state);
    let snapshot = stop_at.map(|stop| TrainingSnapshot {
        algorithm: strategy.name().to_string(),
        tick: stop,
        workers: state.workers.clone(),
        edges: state.edges.clone(),
        cloud: state.cloud.clone(),
        middle: state.middle.clone(),
        topology: None,
    });
    Ok((
        RunResult {
            algorithm: strategy.name().to_string(),
            curve,
            gamma_trace,
            cos_trace,
            tier_gamma,
            final_params,
            elapsed: started.elapsed(),
            timings,
            adversaries: adversary_counters,
            topology: TopologyCounters::default(),
        },
        snapshot,
    ))
}

/// Runs aggregation `k` on every edge, in parallel across the pool: edge
/// states and workers are checked out as disjoint [`EdgeItem`]s (workers
/// are stored edge-major, so each edge owns a contiguous block), processed
/// in fixed edge order within each chunk, and reassembled by edge index.
fn edge_aggregations<M, S>(
    pool: &Pool,
    ctx: ExecCtx<'_, S>,
    lane_model: &mut M,
    state: &mut FlState,
    k: usize,
    threads: usize,
) where
    M: Model + Clone + Send,
    S: Strategy + ?Sized,
{
    let mut workers = mem::take(&mut state.workers);
    let mut items = Vec::with_capacity(state.edges.len());
    for edge in (0..state.edges.len()).rev() {
        let offset = state.hierarchy.edge_workers(edge).start;
        items.push(EdgeItem {
            edge,
            offset,
            workers: workers.split_off(offset),
            state: mem::replace(&mut state.edges[edge], TierState::placeholder()),
        });
    }
    items.reverse();

    let jobs = chunk(items, threads)
        .into_iter()
        .map(|items| Job::Edges { k, items })
        .collect();
    let mut returned: Vec<EdgeItem> = pool
        .exec(ctx, lane_model, jobs)
        .into_iter()
        .flat_map(|reply| {
            let Reply::Edges(items) = reply else {
                unreachable!("edge job must yield an edge reply")
            };
            items
        })
        .collect();
    returned.sort_unstable_by_key(|item| item.edge);

    // `workers` is empty after the split-offs; refill it edge-major.
    for item in returned {
        state.edges[item.edge] = item.state;
        workers.extend(item.workers);
    }
    state.workers = workers;
}

/// Samples per evaluation chunk, fixed for all lane counts: chunk
/// boundaries depend only on the dataset length, so the f64 partial-sum
/// reduction order of [`evaluate_on_replicas`] is invariant.
pub const EVAL_CHUNK: usize = 256;

/// One local step of `strategy` at tick `t` on `worker`, with the gradient
/// path every engine shares: the hook loads the queried parameters into
/// `model`, takes the loss gradient over `batch` of `data`, and rescales it
/// to `clip_norm` when its norm exceeds that. `model` is scratch — any
/// replica works, since its parameters are set before every gradient.
pub fn clipped_local_step<M, S>(
    strategy: &S,
    t: usize,
    worker: &mut WorkerState,
    model: &mut M,
    data: &Dataset,
    batch: &[usize],
    clip_norm: Option<f32>,
) where
    M: Model,
    S: Strategy + ?Sized,
{
    let mut grad_fn = |p: &Vector, out: &mut Vector| {
        model.set_params(p);
        model.loss_and_grad_into(data, batch, out);
        if let Some(max_norm) = clip_norm {
            let norm = out.norm();
            if norm > max_norm {
                out.scale_in_place(max_norm / norm);
            }
        }
    };
    strategy.local_step(t, worker, &mut grad_fn);
}

/// Evaluates `params` on the test set and training probe with this
/// engine's exact reduction — fixed [`EVAL_CHUNK`]-sample chunks, partial
/// sums merged in `(target, chunk index)` order — on caller-provided model
/// replicas, one per evaluation lane. With a single replica everything
/// runs on the calling thread through the identical code path, so the
/// result is bitwise independent of the lane count.
///
/// Public so alternative drivers (the event-driven runtime in
/// `hieradmo-simrt` and the virtual-population engines) evaluate through
/// *one* implementation and stay bitwise comparable to [`run`].
///
/// # Panics
///
/// Panics if `models` is empty.
pub fn evaluate_on_replicas<M>(
    models: &mut [M],
    test: &Dataset,
    probe: &Dataset,
    params: &Vector,
) -> (Evaluation, Evaluation)
where
    M: Model + Send,
{
    assert!(!models.is_empty(), "need at least one model replica");
    let mut chunks: Vec<(u8, usize, std::ops::Range<usize>)> = Vec::new();
    for (target, len) in [(0u8, test.len()), (1u8, probe.len())] {
        for (idx, start) in (0..len).step_by(EVAL_CHUNK).enumerate() {
            chunks.push((target, idx, start..(start + EVAL_CHUNK).min(len)));
        }
    }
    let lanes = models.len().clamp(1, chunks.len().max(1));
    let mut partials: Vec<(u8, usize, EvalSums)> = Vec::with_capacity(chunks.len());
    if lanes <= 1 {
        let model = &mut models[0];
        model.set_params(params);
        for (t, idx, r) in chunks {
            let data = if t == 0 { test } else { probe };
            partials.push((t, idx, model.evaluate_range(data, r)));
        }
    } else {
        let per = chunks.len().div_ceil(lanes);
        let groups: Vec<Vec<(u8, usize, std::ops::Range<usize>)>> =
            chunks.chunks(per).map(<[_]>::to_vec).collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = groups
                .into_iter()
                .zip(models.iter_mut())
                .map(|(group, model)| {
                    scope.spawn(move || {
                        model.set_params(params);
                        group
                            .into_iter()
                            .map(|(t, idx, r)| {
                                let data = if t == 0 { test } else { probe };
                                (t, idx, model.evaluate_range(data, r))
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for h in handles {
                partials.extend(h.join().expect("evaluation thread panicked"));
            }
        });
    }
    partials.sort_unstable_by_key(|&(t, idx, _)| (t, idx));
    let mut test_sums = EvalSums::default();
    let mut probe_sums = EvalSums::default();
    for (t, _, s) in partials {
        if t == 0 {
            test_sums.merge(&s);
        } else {
            probe_sums.merge(&s);
        }
    }
    (test_sums.finish(), probe_sums.finish())
}

/// A fixed, affordable probe of training data for the train-loss metric:
/// round-robin over the worker shards up to `cap` samples total (always at
/// least one sample).
///
/// Public so alternative drivers (the event-driven co-simulation runtime in
/// `hieradmo-simrt`) can build the *same* probe and keep their evaluation
/// bitwise comparable to [`run`].
pub fn build_train_probe(worker_data: &[Dataset], cap: usize) -> Dataset {
    let total: usize = worker_data.iter().map(Dataset::len).sum();
    let take = cap.min(total).max(1);
    let mut samples = Vec::with_capacity(take);
    let mut cursors = vec![0usize; worker_data.len()];
    'outer: loop {
        let mut advanced = false;
        for (i, data) in worker_data.iter().enumerate() {
            if cursors[i] < data.len() {
                samples.push(data.sample(cursors[i]).clone());
                cursors[i] += 1;
                advanced = true;
                if samples.len() >= take {
                    break 'outer;
                }
            }
        }
        if !advanced {
            break;
        }
    }
    Dataset::new(
        samples,
        worker_data[0].shape(),
        worker_data[0].num_classes(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::testutil::small_problem;
    use crate::algorithms::{FedAvg, HierAdMo};

    fn cfg() -> RunConfig {
        RunConfig {
            eta: 0.05,
            tau: 5,
            pi: 2,
            total_iters: 100,
            eval_every: 25,
            batch_size: 16,
            threads: Some(1),
            ..RunConfig::default()
        }
    }

    #[test]
    fn records_expected_eval_points() {
        let (_, test, shards, model) = small_problem(4);
        let h = Hierarchy::balanced(2, 2);
        let algo = HierAdMo::adaptive(0.05, 0.5);
        let res = run(&algo, &model, &h, &shards, &test, &cfg()).unwrap();
        let iters: Vec<usize> = res.curve.points().iter().map(|p| p.iteration).collect();
        assert_eq!(iters, vec![25, 50, 75, 100]);
        assert_eq!(res.algorithm, "HierAdMo");
        assert_eq!(res.final_params.len(), model.dim());
        assert_eq!(res.gamma_trace.len(), 20, "K = 100/5 edge aggregations");
        assert_eq!(res.cos_trace.len(), 20);
        for &(_, cos) in &res.cos_trace {
            assert!((-1.0..=1.0).contains(&cos), "cos θ out of range: {cos}");
        }
    }

    #[test]
    fn parallel_and_serial_agree_exactly() {
        let (_, test, shards, model) = small_problem(4);
        let h = Hierarchy::balanced(2, 2);
        let algo = HierAdMo::adaptive(0.05, 0.5);
        let serial = run(&algo, &model, &h, &shards, &test, &cfg()).unwrap();
        let par_cfg = RunConfig {
            threads: None,
            ..cfg()
        };
        let parallel = run(&algo, &model, &h, &shards, &test, &par_cfg).unwrap();
        assert_eq!(
            serial.curve, parallel.curve,
            "determinism across threading modes"
        );
        assert_eq!(serial.final_params, parallel.final_params);
    }

    #[test]
    fn explicit_thread_counts_agree_exactly() {
        let (_, test, shards, model) = small_problem(4);
        let h = Hierarchy::balanced(2, 2);
        let algo = HierAdMo::adaptive(0.05, 0.5);
        let base = run(&algo, &model, &h, &shards, &test, &cfg()).unwrap();
        for threads in [2, 3, 8] {
            let t_cfg = RunConfig {
                threads: Some(threads),
                ..cfg()
            };
            let res = run(&algo, &model, &h, &shards, &test, &t_cfg).unwrap();
            assert_eq!(base.curve, res.curve, "threads = {threads}");
            assert_eq!(base.final_params, res.final_params, "threads = {threads}");
        }
    }

    #[test]
    fn run_is_deterministic_per_seed() {
        let (_, test, shards, model) = small_problem(4);
        let h = Hierarchy::balanced(2, 2);
        let algo = HierAdMo::adaptive(0.05, 0.5);
        let a = run(&algo, &model, &h, &shards, &test, &cfg()).unwrap();
        let b = run(&algo, &model, &h, &shards, &test, &cfg()).unwrap();
        assert_eq!(a.curve, b.curve);
        let other_seed = RunConfig { seed: 99, ..cfg() };
        let c = run(&algo, &model, &h, &shards, &test, &other_seed).unwrap();
        // The tiny fixture can saturate to identical (zero-loss) curves on
        // any seed, so distinguish runs by the exact final parameters.
        assert_ne!(
            a.final_params, c.final_params,
            "different seed should change the trajectory"
        );
    }

    #[test]
    fn timings_cover_every_phase() {
        let (_, test, shards, model) = small_problem(4);
        let h = Hierarchy::balanced(2, 2);
        let algo = HierAdMo::adaptive(0.05, 0.5);
        let res = run(&algo, &model, &h, &shards, &test, &cfg()).unwrap();
        assert!(res.timings.local_steps > Duration::ZERO);
        assert!(res.timings.edge_agg > Duration::ZERO);
        assert!(res.timings.cloud_agg > Duration::ZERO);
        assert!(res.timings.eval > Duration::ZERO);
        assert!(res.timings.total() <= res.elapsed);
    }

    #[test]
    fn errors_are_reported() {
        let (_, test, shards, model) = small_problem(4);
        let h = Hierarchy::balanced(2, 2);
        let algo = FedAvg::new(0.05);
        // Two-tier algorithm on three-tier topology.
        let err = run(&algo, &model, &h, &shards, &test, &cfg()).unwrap_err();
        assert!(matches!(err, RunError::Topology(_)));
        // Wrong shard count.
        let algo3 = HierAdMo::adaptive(0.05, 0.5);
        let err = run(&algo3, &model, &h, &shards[..3], &test, &cfg()).unwrap_err();
        assert!(matches!(err, RunError::Data(_)));
        // Bad config.
        let bad = RunConfig {
            total_iters: 101,
            ..cfg()
        };
        let err = run(&algo3, &model, &h, &shards, &test, &bad).unwrap_err();
        assert!(matches!(err, RunError::BadConfig(_)));
        // Errors display non-trivially.
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn train_probe_round_robins_across_workers() {
        let (_, _, shards, _) = small_problem(4);
        let probe = build_train_probe(&shards, 8);
        assert_eq!(probe.len(), 8);
        // With 4 workers and cap 8, the probe holds 2 samples per worker:
        // its class histogram must span more than one worker's classes.
        let classes_held = probe.class_histogram().iter().filter(|&&c| c > 0).count();
        assert!(classes_held >= 2);
    }
}
