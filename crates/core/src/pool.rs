//! The persistent parallel execution engine.
//!
//! [`Pool`] is a scoped worker pool created once per [`crate::driver::run`]
//! and kept alive for the whole training loop (replacing per-tick
//! spawn/join). The driver checks state *out* of [`crate::state::FlState`]
//! into self-contained job items, ships contiguous fixed-order chunks to
//! the pool over channels, runs the first chunk on the calling thread, and
//! reassembles results by identity (worker index, edge index) — never by
//! arrival order. Each lane owns one model replica and computes the
//! gradients of whichever workers its chunk holds; together with
//! per-worker RNG streams this makes every run bitwise identical for any
//! thread count.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::Scope;

use hieradmo_data::{Batcher, Dataset};
use hieradmo_models::Model;
use hieradmo_topology::Weights;

use crate::config::RunConfig;
use crate::driver::clipped_local_step;
use crate::state::{EdgeView, TierState, WorkerState};
use crate::strategy::Strategy;

/// Everything a pool thread needs by reference: the strategy and the
/// run-wide immutable inputs. `Copy` so each job execution can capture it
/// by value.
pub(crate) struct ExecCtx<'a, S: ?Sized> {
    /// The algorithm under execution.
    pub strategy: &'a S,
    /// Run configuration (clipping, batch size, …).
    pub cfg: &'a RunConfig,
    /// Per-worker training shards, flat order.
    pub worker_data: &'a [Dataset],
    /// Data-size weights (an owned copy held by the driver, identical to
    /// `FlState::weights`).
    pub weights: &'a Weights,
}

impl<S: ?Sized> Clone for ExecCtx<'_, S> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<S: ?Sized> Copy for ExecCtx<'_, S> {}

/// A worker's checked-out step state: its private batcher stream and a
/// reusable batch-index buffer.
pub(crate) struct StepCtx {
    pub batcher: Batcher,
    pub batch: Vec<usize>,
}

/// One worker's local-step work item.
pub(crate) struct StepItem {
    /// Flat worker index (identity for reassembly).
    pub idx: usize,
    pub worker: WorkerState,
    pub ctx: StepCtx,
}

/// One edge's aggregation work item: its workers and edge state, checked
/// out of `FlState`.
pub(crate) struct EdgeItem {
    /// Edge index (identity for reassembly).
    pub edge: usize,
    /// Flat index of the edge's first worker.
    pub offset: usize,
    pub workers: Vec<WorkerState>,
    pub state: TierState,
}

/// Work shipped to a pool thread (or run inline on the caller).
pub(crate) enum Job {
    /// Local steps at tick `t` for the contained workers.
    Steps { t: usize, items: Vec<StepItem> },
    /// Edge aggregations `k` for the contained edges.
    Edges { k: usize, items: Vec<EdgeItem> },
}

/// The completed counterpart of a [`Job`], carrying state back.
pub(crate) enum Reply {
    Steps(Vec<StepItem>),
    Edges(Vec<EdgeItem>),
}

/// Splits `items` into at most `parts` contiguous chunks (first chunks get
/// the extra items). Order within and across chunks follows the input.
pub(crate) fn chunk<T>(items: Vec<T>, parts: usize) -> Vec<Vec<T>> {
    if items.is_empty() {
        return Vec::new();
    }
    let parts = parts.clamp(1, items.len());
    let per = items.len().div_ceil(parts);
    let mut out = Vec::with_capacity(parts);
    let mut it = items.into_iter();
    loop {
        let c: Vec<T> = it.by_ref().take(per).collect();
        if c.is_empty() {
            break;
        }
        out.push(c);
    }
    out
}

/// Runs one job to completion on a lane whose model replica is
/// `lane_model`. Shared by pool threads and the caller (so `threads = 1`
/// exercises the identical code path with zero spawns).
pub(crate) fn execute<M, S>(ctx: ExecCtx<'_, S>, lane_model: &mut M, job: Job) -> Reply
where
    M: Model,
    S: Strategy + ?Sized,
{
    match job {
        Job::Steps { t, mut items } => {
            for item in &mut items {
                let step = &mut item.ctx;
                step.batcher.next_batch_into(&mut step.batch);
                clipped_local_step(
                    ctx.strategy,
                    t,
                    &mut item.worker,
                    lane_model,
                    &ctx.worker_data[item.idx],
                    &step.batch,
                    ctx.cfg.clip_norm,
                );
            }
            Reply::Steps(items)
        }
        Job::Edges { k, mut items } => {
            for item in &mut items {
                let mut view = EdgeView::detached(
                    item.edge,
                    item.offset,
                    &mut item.workers,
                    &mut item.state,
                    ctx.weights,
                    ctx.cfg.aggregator,
                );
                ctx.strategy.edge_aggregate(k, &mut view);
            }
            Reply::Edges(items)
        }
    }
}

/// A long-lived pool of `spawned` scoped threads, each holding its own
/// lane model replica and draining jobs from a private channel.
pub(crate) struct Pool {
    senders: Vec<Sender<Job>>,
    reply_rx: Receiver<Reply>,
}

impl Pool {
    /// Spawns `spawned` worker threads on `scope` (the caller participates
    /// as thread 0, so the engine runs `spawned + 1` lanes). Dropping the
    /// pool closes the job channels, which ends every worker loop; the
    /// scope then joins them.
    pub(crate) fn new<'env, 'scope, M, S>(
        scope: &'scope Scope<'scope, 'env>,
        spawned: usize,
        ctx: ExecCtx<'env, S>,
        model: &M,
    ) -> Self
    where
        M: Model + Clone + Send + 'env,
        S: Strategy + ?Sized,
    {
        let (reply_tx, reply_rx) = channel();
        let mut senders = Vec::with_capacity(spawned);
        for _ in 0..spawned {
            let (tx, rx) = channel::<Job>();
            let reply_tx = reply_tx.clone();
            let mut lane_model = model.clone();
            scope.spawn(move || {
                while let Ok(job) = rx.recv() {
                    if reply_tx.send(execute(ctx, &mut lane_model, job)).is_err() {
                        break;
                    }
                }
            });
            senders.push(tx);
        }
        Pool { senders, reply_rx }
    }

    /// Executes a batch of jobs: jobs `1..` go to pool threads, job `0`
    /// runs on the calling thread (overlapping with the pool) on
    /// `lane_model`, then all replies are collected. `jobs.len()` must not
    /// exceed the lane count.
    pub(crate) fn exec<M, S>(
        &self,
        ctx: ExecCtx<'_, S>,
        lane_model: &mut M,
        mut jobs: Vec<Job>,
    ) -> Vec<Reply>
    where
        M: Model,
        S: Strategy + ?Sized,
    {
        assert!(
            jobs.len() <= self.senders.len() + 1,
            "more jobs than pool lanes"
        );
        let mut replies = Vec::with_capacity(jobs.len());
        if jobs.is_empty() {
            return replies;
        }
        let main_job = jobs.remove(0);
        let sent = jobs.len();
        for (job, tx) in jobs.into_iter().zip(&self.senders) {
            tx.send(job).expect("pool thread terminated early");
        }
        replies.push(execute(ctx, lane_model, main_job));
        for _ in 0..sent {
            replies.push(self.reply_rx.recv().expect("pool thread terminated early"));
        }
        replies
    }
}
