//! The co-simulation engine: the real training functions under a virtual
//! clock.
//!
//! # How the trajectory stays bitwise-faithful
//!
//! The engine keeps the canonical [`FlState`] as the *server-side mailbox*:
//! worker actors own private training state (a private batch stream
//! seeded exactly like the core driver's, and their [`WorkerState`]; every
//! gradient is computed on the engine's one step model); an upload copies
//! the actor's state into its `FlState` slot; aggregation hooks run
//! against `FlState` through the same `EdgeView` the core driver uses; and
//! a download ships the post-hook slot back to the actor. Under [`SyncPolicy::FullSync`] the mailbox therefore
//! undergoes *exactly* the mutation sequence of [`hieradmo_core::run`] —
//! same gradient path (batch draw, clipping, `local_step`), same
//! aggregation order, same fixed-chunk ordered evaluation reduction — so
//! the final model, convergence curve and γℓ diagnostics are bitwise
//! identical; only the time axis is new.
//!
//! # Determinism
//!
//! Events are processed in `(time, actor, seq)` order from a single queue
//! ([`crate::EventQueue`]); every actor draws its delays from a private
//! decorrelated RNG stream ([`hieradmo_netsim::stream_seed`]), so an
//! actor's delay sequence depends only on its own draw count, never on
//! global interleaving. Threads are used only inside evaluation, which
//! reduces partial sums in a fixed order — results are identical for any
//! `RunConfig::threads`.

use std::collections::{BTreeMap, BTreeSet};
use std::error::Error;
use std::fmt;

use hieradmo_core::byzantine::{corrupt_upload, replay_upload};
use hieradmo_core::driver::{build_train_probe, clipped_local_step, evaluate_on_replicas};
use hieradmo_core::strategy::fire_middle_tiers;
use hieradmo_core::{
    FlState, RunConfig, RunError, Strategy, TierState, TrainingSnapshot, WorkerState,
};
use hieradmo_data::{Batcher, Dataset};
use hieradmo_metrics::{
    ActorAdversaries, ActorFaults, ActorUtilization, AdversaryCounters, ConvergenceCurve,
    EvalPoint, FaultCounters, TimedCurve, TimedPoint, TopologyCounters,
};
use hieradmo_models::{Evaluation, Model};
use hieradmo_netsim::{
    AdversarySampler, Architecture, AttackModel, DelaySampler, FaultSampler, LinkProfile,
};
use hieradmo_tensor::Vector;
use hieradmo_topology::{Hierarchy, Schedule, TierTree, Weights};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::event::{ActorId, EventQueue};
use crate::policy::{Barrier, SimConfig, SyncPolicy};
use crate::vpop::link_transfer;

/// Errors a co-simulation can fail with before any events are processed.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The training inputs are inconsistent (same checks as the core
    /// driver).
    Run(RunError),
    /// The network environment does not match the topology.
    Net(String),
    /// The synchronization policy's parameters are invalid.
    Policy(String),
    /// The fault plan's parameters are invalid or reference unknown
    /// actors.
    Fault(String),
    /// The adversary plan references workers outside the topology (its
    /// parameter validity is checked by [`RunConfig::validate`]).
    Adversary(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Run(e) => write!(f, "{e}"),
            SimError::Net(m) => write!(f, "network mismatch: {m}"),
            SimError::Policy(m) => write!(f, "invalid sync policy: {m}"),
            SimError::Fault(m) => write!(f, "invalid fault plan: {m}"),
            SimError::Adversary(m) => write!(f, "invalid adversary plan: {m}"),
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::Run(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RunError> for SimError {
    fn from(e: RunError) -> Self {
        SimError::Run(e)
    }
}

/// The outcome of one co-simulated training run.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Algorithm name (Table II row label).
    pub algorithm: String,
    /// Label of the [`SyncPolicy`] the run used.
    pub policy: String,
    /// Accuracy/loss trajectory, indexed by training progress. Under
    /// [`SyncPolicy::FullSync`] this is bitwise identical to
    /// [`hieradmo_core::RunResult::curve`]; under relaxed policies one
    /// point is recorded per cloud aggregation, indexed by committed local
    /// steps.
    pub curve: ConvergenceCurve,
    /// The same trajectory against *simulated seconds* — the honest
    /// time-to-accuracy axis of the paper's Fig. 2(h)/(l).
    pub timed_curve: TimedCurve,
    /// `(k, γℓ)` diagnostics. Under full sync: `(round, mean over edges)`,
    /// identical to the core driver's; under relaxed policies one entry per
    /// edge firing (in firing order).
    pub gamma_trace: Vec<(usize, f32)>,
    /// `(k, cos θ)` diagnostics, same convention as
    /// [`SimResult::gamma_trace`].
    pub cos_trace: Vec<(usize, f32)>,
    /// Per-middle-tier γ diagnostics on N-tier runs, one trace per middle
    /// depth in `TierTree::middle_depths` order — the event-driven
    /// counterpart of `hieradmo_core::RunResult::tier_gamma`. Empty on
    /// three-tier runs; an identity (pass-through) tier's trace stays
    /// empty, since that tier never aggregates.
    pub tier_gamma: Vec<Vec<(usize, f32)>>,
    /// Final global model parameters.
    pub final_params: Vector,
    /// Virtual duration of the whole run.
    pub simulated_seconds: f64,
    /// Per-actor busy time and utilization over the run.
    pub utilization: Vec<ActorUtilization>,
    /// Per-actor fault tallies, in the same actor order as
    /// [`SimResult::utilization`]. All-zero when the run's
    /// [`hieradmo_netsim::FaultPlan`] is empty.
    pub faults: Vec<ActorFaults>,
    /// Per-actor Byzantine-attack tallies, in the same actor order as
    /// [`SimResult::utilization`]. Only workers can be Byzantine, so edge
    /// and cloud entries are always zero; everything is zero when the
    /// run's [`hieradmo_netsim::AdversaryPlan`] is empty.
    pub adversaries: Vec<ActorAdversaries>,
    /// Number of discrete events processed.
    pub events: u64,
    /// Topology-churn tallies. All-zero on frozen-tree runs; populated when
    /// a [`hieradmo_core::RunConfig::churn`] plan mutates the tree mid-run.
    pub topology: TopologyCounters,
}

/// One scheduled occurrence in the simulation.
enum Ev {
    /// A worker finished local step `tick + 1`.
    Step { worker: usize },
    /// A worker's end-of-interval upload reached its aggregator.
    Upload { worker: usize },
    /// A Deadline-policy edge round's timeout expired.
    EdgeTimeout { edge: usize, round: usize },
    /// A distributed model reached a worker (payload snapshotted at fire
    /// time, so later mailbox writes cannot race with it).
    Deliver {
        worker: usize,
        state: Box<WorkerState>,
    },
    /// An edge's submission reached the cloud.
    CloudSubmit { edge: usize, round: usize },
    /// A Deadline-policy cloud round's timeout expired.
    CloudTimeout { round: usize },
    /// The cloud's reply reached an edge.
    CloudReply { edge: usize },
    /// A transiently-crashed worker's downtime expired; it rejoins from
    /// its last server-delivered state.
    Recover { worker: usize },
    /// A worker's scheduled permanent death.
    Die { worker: usize },
    /// A duplicated message's trailing copy arrived at `to`; the
    /// protocol-level round-number dedup (see `hieradmo_netsim::proto`)
    /// suppresses it, so it costs bookkeeping, never state.
    DupArrival { to: ActorId },
}

/// A worker actor: private training state plus its virtual-clock bookkeeping.
struct WorkerSim {
    state: WorkerState,
    batcher: Batcher,
    batch: Vec<usize>,
    /// Completed local steps.
    tick: usize,
    sampler: DelaySampler,
    busy_ms: f64,
    /// Final model received; the worker schedules nothing further.
    done: bool,
    /// Fault draws for this worker's crashes, spikes and link faults.
    fsampler: FaultSampler,
    /// Transiently crashed: down until its pending `Recover` fires.
    down: bool,
    /// Permanently crashed: never recovers, never uploads again.
    dead: bool,
    /// `(tick, state)` of the last server-delivered model — the rejoin
    /// point after a crash. Maintained only when faults are on.
    chain: Option<(usize, Box<WorkerState>)>,
    faults: FaultCounters,
    /// `Some` when this worker is Byzantine: every upload it lands is
    /// corrupted in the server-side mailbox before aggregation.
    attack: Option<AttackModel>,
    /// Noise draws for this worker's attacks (same stream the core driver
    /// uses, so trajectories are comparable run-for-run).
    asampler: AdversarySampler,
    advers: AdversaryCounters,
}

/// An edge actor: round-collection state for the current aggregation.
struct EdgeSim {
    /// Completed firings; the round being collected is the next one.
    firings: usize,
    /// Collection state over the edge's local workers.
    barrier: Barrier,
    /// A cloud submission is outstanding; firing is paused.
    waiting_cloud: bool,
    /// Local workers to release when the cloud replies.
    pending_release: Vec<usize>,
    /// Post-hook worker slots of the last firing — what a late-rejoining
    /// worker is handed (relaxed policies; also maintained under full
    /// sync when faults are on).
    last_dist: Vec<WorkerState>,
    sampler: DelaySampler,
    busy_ms: f64,
    /// Fault draws for this edge's cloud-hop transfers (both directions:
    /// link-fault tallies live at the non-root endpoint of each hop).
    fsampler: FaultSampler,
    faults: FaultCounters,
}

/// The cloud actor: the edge-level analogue of [`EdgeSim`].
struct CloudSim {
    firings: usize,
    /// Collection state over the edges.
    barrier: Barrier,
    /// Latest finish time of any firing so far.
    done_ms: f64,
    /// Post-hook worker slots per edge from the last firing, handed to
    /// edges whose submissions arrive late (relaxed policies; also
    /// maintained under full sync when faults are on).
    last_dist: Vec<Option<Vec<WorkerState>>>,
    sampler: DelaySampler,
    busy_ms: f64,
    faults: FaultCounters,
}

/// Pending full-sync evaluation at one tick: per-worker model snapshots,
/// evaluated once all `N` have contributed.
struct EvalStage {
    xs: Vec<Option<Vector>>,
    count: usize,
    last_ms: f64,
}

/// One completed evaluation, ordered by `iter` when the curves are built.
struct EvalRec {
    iter: usize,
    at_ms: f64,
    test: Evaluation,
    train: Evaluation,
}

/// One topology-epoch slice of a virtual-clock run (see
/// [`crate::elastic`]): the engine executes ticks
/// `(start, limit]` against a frozen tree, restoring the mailbox from
/// `resume` and fast-forwarding every training RNG stream over the prefix
/// exactly as the core driver's resume path does. A plain
/// [`crate::simulate`] is the full span.
pub(crate) struct Span<'a> {
    /// Ticks already trained when the span begins (a multiple of `τ·π`).
    pub start: usize,
    /// The tick the span runs to (a multiple of `τ·π`; the whole run on
    /// frozen-tree simulations).
    pub limit: usize,
    /// Mid-run federation state to restore the mailbox from.
    pub resume: Option<&'a TrainingSnapshot>,
    /// Last curve iteration issued by the previous span (relaxed-policy
    /// index continuity).
    pub iter_base: usize,
    /// Global edge-firing counter carried over from the previous span
    /// (relaxed-policy trace index continuity).
    pub firing_base: usize,
    /// This span runs to the end of the whole run: record the final
    /// relaxed-policy evaluation in `finish`.
    pub final_segment: bool,
}

impl Span<'_> {
    /// The whole run as one span.
    fn full(cfg: &RunConfig) -> Self {
        Span {
            start: 0,
            limit: cfg.total_iters,
            resume: None,
            iter_base: 0,
            firing_base: 0,
            final_segment: true,
        }
    }
}

struct Engine<'a, M, S: ?Sized> {
    strategy: &'a S,
    cfg: &'a RunConfig,
    sim: &'a SimConfig,
    hierarchy: &'a Hierarchy,
    worker_data: &'a [Dataset],
    test_data: &'a Dataset,
    train_probe: Dataset,
    /// The one model every local step computes its gradient on (params
    /// are set before every use, so the workers can share it).
    step_model: M,
    /// One replica per evaluation lane.
    eval_models: Vec<M>,
    /// Flat-worker → edge index.
    edge_of: Vec<usize>,
    /// Edge → flat index of its first worker.
    offsets: Vec<usize>,
    /// Pre-drawn dropout table, `(tick - 1) * N + worker`, in the core
    /// driver's exact draw order.
    active: Vec<bool>,
    fl: FlState,
    workers: Vec<WorkerSim>,
    edges: Vec<EdgeSim>,
    cloud: CloudSim,
    queue: EventQueue<Ev>,
    now: f64,
    events: u64,
    evals: Vec<EvalRec>,
    pending_evals: BTreeMap<usize, EvalStage>,
    /// Full-sync eval ticks already evaluated — a crash-redo must not
    /// re-create a completed stage (faults only; empty otherwise).
    completed_evals: BTreeSet<usize>,
    /// Per-round `(γℓ, cos θ)` per edge, emitted as means once every edge
    /// has fired the round (full sync only).
    gamma_stage: BTreeMap<usize, Vec<Option<(f32, f32)>>>,
    gamma_trace: Vec<(usize, f32)>,
    cos_trace: Vec<(usize, f32)>,
    /// Per-middle-depth `(round, mean γℓ)` traces (N-tier runs only).
    tier_gamma: Vec<Vec<(usize, f32)>>,
    /// Edge rounds between cloud submissions: the most frequent boundary
    /// at which any state-changing aggregation above the edges fires —
    /// `π` on three-tier runs (and whenever every middle tier is
    /// identity), else the deepest non-identity middle tier's
    /// `TierTree::sync_rounds`. Divides `π` by construction, so root
    /// boundaries are always submission boundaries.
    submit_period: usize,
    /// Global edge-firing counter (relaxed-policy trace index).
    firing_seq: usize,
    /// Last curve iteration issued (relaxed policies).
    last_iter: usize,
    /// The fault plan injects something; `false` guarantees zero fault
    /// draws and a run bitwise identical to one without fault injection.
    faults_on: bool,
    /// Tick this span runs to (`total_iters` on frozen-tree runs).
    limit: usize,
    /// Whether `finish` records the final relaxed-policy evaluation.
    final_segment: bool,
}

impl<'a, M, S> Engine<'a, M, S>
where
    M: Model + Clone + Send,
    S: Strategy + ?Sized,
{
    #[allow(clippy::too_many_arguments)]
    fn new(
        strategy: &'a S,
        model: &M,
        hierarchy: &'a Hierarchy,
        worker_data: &'a [Dataset],
        test_data: &'a Dataset,
        cfg: &'a RunConfig,
        sim: &'a SimConfig,
        span: Span<'_>,
    ) -> Self {
        let n = hierarchy.num_workers();
        let l_count = hierarchy.num_edges();
        let samples: Vec<u64> = worker_data.iter().map(|d| d.len() as u64).collect();
        let weights = Weights::from_samples(hierarchy, &samples);
        let mut fl = FlState::new(hierarchy.clone(), weights, &model.params());
        fl.aggregator = cfg.aggregator;
        if let Some(tree) = &sim.tiers {
            fl.attach_tree(tree.clone());
        }
        strategy.init(&mut fl);
        if let Some(snap) = span.resume {
            // All algorithm state lives in the tier vectors (same rule the
            // core driver's resume path relies on).
            fl.workers = snap.workers.clone();
            fl.edges = snap.edges.clone();
            fl.cloud = snap.cloud.clone();
        }
        // Edges submit cloud-wards at every boundary where some tier above
        // them mutates state; identity middles are free, so a pure
        // pass-through tree keeps the three-tier submission cadence (and
        // every delay stream) untouched.
        let submit_period = sim.tiers.as_ref().map_or(cfg.pi, TierTree::submit_rounds);

        let mut edge_of = vec![0usize; n];
        let mut offsets = vec![0usize; l_count];
        for (e, offset) in offsets.iter_mut().enumerate() {
            let range = hierarchy.edge_workers(e);
            *offset = range.start;
            for i in range {
                edge_of[i] = e;
            }
        }

        // Dropout table, pre-drawn in the core driver's (tick-major,
        // worker-minor) order; when dropout is zero the driver draws
        // nothing, and neither does the table.
        let total = cfg.total_iters;
        let active = if cfg.dropout == 0.0 {
            vec![true; total * n]
        } else {
            let mut fault_rng = StdRng::seed_from_u64(cfg.seed ^ 0x5f5f_5f5f_5f5f_5f5f);
            (0..total * n)
                .map(|_| fault_rng.gen_range(0.0..1.0) >= cfg.dropout)
                .collect()
        };

        let faults_on = !sim.faults.is_empty();
        let dim = fl.dim();
        let start = span.start;
        let edge_rounds_done = start / cfg.tau;
        let cloud_rounds_done = start / (cfg.tau * submit_period);
        let workers: Vec<WorkerSim> = (0..n)
            .map(|i| {
                // Fast-forward the training RNG streams over the span's
                // prefix exactly as the core driver's resume path does:
                // one mini-batch draw per *active* prefix tick (the
                // dropout table above already replayed those draws) and
                // one adversary draw per edge boundary.
                let mut batcher = Batcher::new(
                    worker_data[i].len(),
                    cfg.batch_size,
                    cfg.seed.wrapping_add(i as u64),
                );
                let mut batch = Vec::with_capacity(cfg.batch_size.min(worker_data[i].len()));
                for t in 1..=start {
                    if active[(t - 1) * n + i] {
                        batcher.next_batch_into(&mut batch);
                    }
                }
                let attack = cfg.adversary.attack_for(i);
                let mut asampler = AdversarySampler::from_stream(cfg.seed, i as u64);
                if let Some(a) = attack {
                    for _ in 0..edge_rounds_done {
                        replay_upload(dim, &a, &mut asampler);
                    }
                }
                WorkerSim {
                    state: fl.workers[i].clone(),
                    batcher,
                    batch,
                    tick: start,
                    sampler: DelaySampler::from_stream(sim.net_seed, i as u64),
                    busy_ms: 0.0,
                    done: false,
                    fsampler: FaultSampler::from_stream(sim.net_seed, i as u64),
                    down: false,
                    dead: false,
                    chain: faults_on.then(|| (start, Box::new(fl.workers[i].clone()))),
                    faults: FaultCounters::default(),
                    attack,
                    asampler,
                    advers: AdversaryCounters::default(),
                }
            })
            .collect();
        let edges: Vec<EdgeSim> = (0..l_count)
            .map(|e| {
                let c = hierarchy.workers_in_edge(e);
                EdgeSim {
                    firings: edge_rounds_done,
                    barrier: Barrier::new(c, edge_rounds_done),
                    waiting_cloud: false,
                    pending_release: Vec::new(),
                    last_dist: fl.workers[hierarchy.edge_workers(e)].to_vec(),
                    sampler: DelaySampler::from_stream(sim.net_seed, (n + e) as u64),
                    busy_ms: 0.0,
                    fsampler: FaultSampler::from_stream(sim.net_seed, (n + e) as u64),
                    faults: FaultCounters::default(),
                }
            })
            .collect();
        let cloud = CloudSim {
            firings: cloud_rounds_done,
            barrier: Barrier::new(l_count, cloud_rounds_done),
            done_ms: 0.0,
            last_dist: vec![None; l_count],
            sampler: DelaySampler::from_stream(sim.net_seed, (n + l_count) as u64),
            busy_ms: 0.0,
            faults: FaultCounters::default(),
        };
        let threads = cfg.resolved_threads();
        let tier_gamma = vec![Vec::new(); fl.middle.len()];

        Engine {
            strategy,
            cfg,
            sim,
            hierarchy,
            worker_data,
            test_data,
            train_probe: build_train_probe(worker_data, cfg.train_eval_cap),
            step_model: model.clone(),
            eval_models: (0..threads).map(|_| model.clone()).collect(),
            edge_of,
            offsets,
            active,
            fl,
            workers,
            edges,
            cloud,
            queue: EventQueue::new(),
            now: 0.0,
            events: 0,
            evals: Vec::new(),
            pending_evals: BTreeMap::new(),
            completed_evals: BTreeSet::new(),
            gamma_stage: BTreeMap::new(),
            gamma_trace: Vec::new(),
            cos_trace: Vec::new(),
            tier_gamma,
            submit_period,
            firing_seq: span.firing_base,
            last_iter: span.iter_base,
            faults_on,
            limit: span.limit,
            final_segment: span.final_segment,
        }
    }

    fn full_sync(&self) -> bool {
        matches!(self.sim.policy, SyncPolicy::FullSync)
    }

    fn is_eval_tick(&self, t: usize) -> bool {
        t.is_multiple_of(self.cfg.eval_every) || t == self.cfg.total_iters
    }

    /// The link and concurrent-flow count a worker's transfers use.
    fn worker_link(&self, edge: usize) -> (&'a LinkProfile, usize) {
        let sim = self.sim;
        let hierarchy = self.hierarchy;
        match sim.architecture {
            Architecture::ThreeTier => (&sim.env.worker_edge_link, hierarchy.workers_in_edge(edge)),
            Architecture::TwoTier => (&sim.env.worker_cloud_link, hierarchy.num_workers()),
        }
    }

    /// Draws a worker's up/down transfer delay (including retry/backoff
    /// penalties when link faults are on) and charges its busy time.
    /// Returns `(delay_ms, duplicate_lag_ms)`.
    fn worker_transfer(&mut self, i: usize, bytes: u64) -> (f64, Option<f64>) {
        let link_faults = self.sim.faults.link;
        let (link, flows) = self.worker_link(self.edge_of[i]);
        let w = &mut self.workers[i];
        let mut d = w.sampler.shared_transfer_ms(link, bytes, flows);
        let mut dup = None;
        if let Some(lf) = link_faults {
            let (penalty, lag) = link_transfer(&lf, &mut w.fsampler, &mut w.faults);
            d += penalty;
            dup = lag;
        }
        w.busy_ms += d;
        (d, dup)
    }

    /// Draws edge `e`'s cloud-hop transfer delay (both directions share
    /// the edge's streams and its link-fault tallies) and charges its busy
    /// time. A two-tier "edge" is the cloud's frontend: its hop is free.
    /// Returns `(delay_ms, duplicate_lag_ms)`.
    fn cloud_hop(&mut self, e: usize, bytes: u64) -> (f64, Option<f64>) {
        let sim = self.sim;
        if sim.architecture == Architecture::TwoTier {
            return (0.0, None);
        }
        let flows = self.edges.len();
        let edge = &mut self.edges[e];
        let mut d = edge
            .sampler
            .shared_transfer_ms(&sim.env.edge_cloud_link, bytes, flows);
        let mut dup = None;
        if let Some(lf) = sim.faults.link {
            let (penalty, lag) = link_transfer(&lf, &mut edge.fsampler, &mut edge.faults);
            d += penalty;
            dup = lag;
        }
        edge.busy_ms += d;
        (d, dup)
    }

    /// Crash draw at one of a worker's two draw points. On a crash the
    /// worker goes down, its in-progress work is lost, and a `Recover`
    /// fires after the drawn downtime. Returns `true` when it crashed.
    fn maybe_crash(&mut self, i: usize, now: f64, lost_upload: bool) -> bool {
        let Some(cp) = self.sim.faults.crash else {
            return false;
        };
        let w = &mut self.workers[i];
        let Some(dt) = w.fsampler.crash_downtime_ms(&cp) else {
            return false;
        };
        w.faults.crashes += 1;
        w.faults.recovery_ms += dt;
        if lost_upload {
            w.faults.lost_uploads += 1;
        }
        w.down = true;
        self.queue
            .push(now + dt, ActorId::Worker(i), Ev::Recover { worker: i });
        true
    }

    fn schedule_step(&mut self, i: usize, now: f64) {
        if self.maybe_crash(i, now, false) {
            return;
        }
        let sim = self.sim;
        let spikes = sim.faults.spikes;
        let w = &mut self.workers[i];
        let mut d = w.sampler.compute_ms(&sim.env.worker_devices[i]);
        if let Some(sp) = spikes {
            if let Some(factor) = w.fsampler.spike_factor(&sp) {
                d *= factor;
                w.faults.delay_spikes += 1;
            }
        }
        w.busy_ms += d;
        self.queue
            .push(now + d, ActorId::Worker(i), Ev::Step { worker: i });
    }

    /// Sends `state` down to worker `flat` (payload snapshotted now).
    /// Messages to permanently-dead workers are not sent at all.
    fn deliver(&mut self, flat: usize, state: Box<WorkerState>, now: f64) {
        if self.workers[flat].dead {
            return;
        }
        let (d, dup) = self.worker_transfer(flat, self.sim.download_bytes);
        self.queue.push(
            now + d,
            ActorId::Worker(flat),
            Ev::Deliver {
                worker: flat,
                state,
            },
        );
        if let Some(lag) = dup {
            let to = ActorId::Worker(flat);
            self.queue.push(now + d + lag, to, Ev::DupArrival { to });
        }
    }

    fn run_eval(&mut self, params: &Vector) -> (Evaluation, Evaluation) {
        evaluate_on_replicas(
            &mut self.eval_models,
            self.test_data,
            &self.train_probe,
            params,
        )
    }

    /// Full-sync evaluation staging: collects one model snapshot per worker
    /// for tick `t` and evaluates their data-weighted average once all `N`
    /// have contributed — reproducing the core driver's
    /// `global_params`-then-evaluate at that tick bit-for-bit.
    fn stage_eval(&mut self, t: usize, flat: usize, x: Vector, at_ms: f64) {
        if self.completed_evals.contains(&t) {
            // A crash-redo re-passed an already-evaluated tick.
            debug_assert!(self.faults_on);
            return;
        }
        let n = self.workers.len();
        let stage = self.pending_evals.entry(t).or_insert_with(|| EvalStage {
            xs: vec![None; n],
            count: 0,
            last_ms: 0.0,
        });
        if stage.xs[flat].is_some() {
            // A crash-redo re-contributed: keep the first pass's snapshot.
            debug_assert!(
                self.faults_on,
                "worker {flat} contributed twice to tick {t}"
            );
            return;
        }
        stage.xs[flat] = Some(x);
        stage.count += 1;
        stage.last_ms = stage.last_ms.max(at_ms);
        self.try_finish_eval(t, at_ms);
    }

    /// Fires a staged full-sync evaluation once every worker has either
    /// contributed or died permanently; dead workers' snapshots come from
    /// their server-side mailbox slots. With no faults this is exactly the
    /// "all `N` contributed" barrier.
    fn try_finish_eval(&mut self, t: usize, now: f64) {
        let complete = match self.pending_evals.get(&t) {
            Some(stage) => stage
                .xs
                .iter()
                .enumerate()
                .all(|(i, x)| x.is_some() || self.workers[i].dead),
            None => return,
        };
        if !complete {
            return;
        }
        let stage = self.pending_evals.remove(&t).expect("stage just checked");
        self.completed_evals.insert(t);
        let params = Vector::weighted_average(stage.xs.iter().enumerate().map(|(i, x)| {
            (
                self.fl.weights.worker_in_total(i),
                x.as_ref().unwrap_or(&self.fl.workers[i].x),
            )
        }));
        let (test, train) = self.run_eval(&params);
        self.evals.push(EvalRec {
            iter: t,
            at_ms: stage.last_ms.max(now),
            test,
            train,
        });
    }

    /// Full-sync trace staging: per-edge `(γℓ, cos θ)` of round `k`,
    /// reduced to the driver's edge-index-order `f32` means once every edge
    /// has fired the round.
    fn stage_gamma(&mut self, k: usize, e: usize, gamma: f32, cos: f32) {
        let l_count = self.edges.len();
        let slot = self
            .gamma_stage
            .entry(k)
            .or_insert_with(|| vec![None; l_count]);
        slot[e] = Some((gamma, cos));
        self.try_finish_gamma(k);
    }

    /// All of an edge's workers have died permanently: it will never fire
    /// a round again.
    fn edge_all_dead(&self, e: usize) -> bool {
        self.faults_on && self.hierarchy.edge_workers(e).all(|i| self.workers[i].dead)
    }

    /// Emits a staged full-sync `(γℓ, cos θ)` round once every edge has
    /// fired it or will never fire again; the mean is over the edges that
    /// did fire. With no faults this is exactly the "all edges fired"
    /// barrier with the driver's edge-index-order means.
    fn try_finish_gamma(&mut self, k: usize) {
        let complete = match self.gamma_stage.get(&k) {
            Some(slot) => slot
                .iter()
                .enumerate()
                .all(|(e, p)| p.is_some() || self.edge_all_dead(e)),
            None => return,
        };
        if !complete {
            return;
        }
        let slot = self.gamma_stage.remove(&k).expect("stage just checked");
        let fired: Vec<(f32, f32)> = slot.into_iter().flatten().collect();
        let n = fired.len() as f32;
        self.gamma_trace
            .push((k, fired.iter().map(|p| p.0).sum::<f32>() / n));
        self.cos_trace
            .push((k, fired.iter().map(|p| p.1).sum::<f32>() / n));
    }

    /// Relaxed-policy evaluation: the server's current global view, indexed
    /// by committed local steps (made strictly increasing).
    fn record_relaxed_eval(&mut self, at_ms: f64) {
        let committed: usize = self.workers.iter().map(|w| w.tick).sum();
        let iter = committed.max(self.last_iter + 1);
        self.last_iter = iter;
        let params = self.strategy.global_params(&self.fl);
        let (test, train) = self.run_eval(&params);
        self.evals.push(EvalRec {
            iter,
            at_ms,
            test,
            train,
        });
    }

    fn on_step_done(&mut self, i: usize, now: f64) {
        if self.workers[i].dead || self.workers[i].down {
            return; // step was in flight when the worker crashed
        }
        self.workers[i].tick += 1;
        let t = self.workers[i].tick;
        let n = self.workers.len();
        if self.active[(t - 1) * n + i] {
            self.do_local_step(i, t);
        }
        if t.is_multiple_of(self.cfg.tau) {
            // End of interval: upload (dropout skips the step, never the
            // aggregation — matching the core driver). A crash here loses
            // the upload outright.
            if self.maybe_crash(i, now, true) {
                return;
            }
            let (d, dup) = self.worker_transfer(i, self.sim.upload_bytes);
            self.queue
                .push(now + d, ActorId::Worker(i), Ev::Upload { worker: i });
            if let Some(lag) = dup {
                let to = match self.sim.architecture {
                    Architecture::ThreeTier => ActorId::Edge(self.edge_of[i]),
                    Architecture::TwoTier => ActorId::Cloud,
                };
                self.queue.push(now + d + lag, to, Ev::DupArrival { to });
            }
        } else {
            if self.full_sync() && self.is_eval_tick(t) {
                let x = self.workers[i].state.x.clone();
                self.stage_eval(t, i, x, now);
            }
            self.schedule_step(i, now);
        }
    }

    /// One local step on the core engines' gradient path: batch draw into
    /// the worker's reusable buffer, then the clipped-gradient step on the
    /// shared step model.
    fn do_local_step(&mut self, i: usize, t: usize) {
        let w = &mut self.workers[i];
        w.batcher.next_batch_into(&mut w.batch);
        clipped_local_step(
            self.strategy,
            t,
            &mut w.state,
            &mut self.step_model,
            &self.worker_data[i],
            &w.batch,
            self.cfg.clip_norm,
        );
    }

    fn on_upload(&mut self, i: usize, now: f64) {
        if self.workers[i].dead {
            // The sender died while its upload was in flight: lost.
            self.workers[i].faults.lost_uploads += 1;
            return;
        }
        let e = self.edge_of[i];
        let j = i - self.offsets[e];
        let k_up = self.workers[i].tick / self.cfg.tau;
        // Mailbox write: the server-side slot now holds the upload.
        self.fl.workers[i] = self.workers[i].state.clone();
        // A Byzantine worker poisons the upload in flight: the corruption
        // lands on the mailbox slot (what aggregation reads), never on the
        // actor's private state — under full sync this is exactly the core
        // driver's corrupt-before-aggregate, because the post-hook slot is
        // shipped back wholesale on the download. One draw per landed
        // upload keeps the per-worker stream aligned with the core driver's
        // per-boundary draws.
        if let Some(attack) = self.workers[i].attack {
            let w = &mut self.workers[i];
            corrupt_upload(
                &mut self.fl.workers[i],
                &attack,
                &mut w.asampler,
                &mut w.advers,
            );
        }
        let policy = self.sim.policy;
        if matches!(policy, SyncPolicy::Deadline { .. }) && k_up <= self.edges[e].firings {
            // Late: the round fired without this worker. Its upload carries
            // over in the mailbox; hand it the round's distribution so it
            // rejoins immediately.
            self.edges[e].barrier.refresh(j, k_up);
            if self.edges[e].waiting_cloud {
                self.edges[e].pending_release.push(j);
            } else {
                let payload = Box::new(self.edges[e].last_dist[j].clone());
                self.deliver(i, payload, now);
            }
            return;
        }
        let first = self.edges[e].barrier.arrive(j, k_up);
        if let SyncPolicy::Deadline { timeout_ms, .. } = policy {
            if first {
                let round = self.edges[e].firings + 1;
                self.queue.push(
                    now + timeout_ms,
                    ActorId::Edge(e),
                    Ev::EdgeTimeout { edge: e, round },
                );
            }
        }
        self.try_fire_edge(e, now);
    }

    fn on_edge_timeout(&mut self, e: usize, round: usize, now: f64) {
        if self.edges[e].firings + 1 != round {
            return; // stale timer for an already-fired round
        }
        self.edges[e].barrier.expire();
        self.try_fire_edge(e, now);
    }

    /// Whether worker `i` is waived at its edge's barrier: it died
    /// permanently, or — under AsyncAge, where a finished worker has no
    /// round left to miss — it holds its final model.
    fn worker_waived(&self, i: usize) -> bool {
        let w = &self.workers[i];
        w.dead || (matches!(self.sim.policy, SyncPolicy::AsyncAge { .. }) && w.done)
    }

    /// Whether edge `l` is waived at the cloud barrier: nothing of its is
    /// in flight and every one of its workers is waived.
    fn edge_waived(&self, l: usize) -> bool {
        !self.edges[l].waiting_cloud
            && self
                .hierarchy
                .edge_workers(l)
                .all(|i| self.worker_waived(i))
    }

    /// Fires edge `e`'s round if its barrier is ready and no cloud
    /// submission is outstanding. With no faults the waiver never engages.
    fn try_fire_edge(&mut self, e: usize, now: f64) {
        let offset = self.offsets[e];
        let edge = &self.edges[e];
        if !edge.waiting_cloud
            && edge
                .barrier
                .ready(self.sim.policy, |j| self.worker_waived(offset + j))
        {
            self.fire_edge(e, now);
        }
    }

    /// Fires the cloud round if its barrier is ready.
    fn try_fire_cloud(&mut self, now: f64) {
        if self
            .cloud
            .barrier
            .ready(self.sim.policy, |l| self.edge_waived(l))
        {
            self.fire_cloud(now);
        }
    }

    /// Fires the edge's current round with whoever has arrived: runs the
    /// strategy's (staleness-aware) edge hook against the mailbox, then
    /// either submits to the cloud (boundary rounds) or distributes the
    /// post-hook slots back to the participants.
    fn fire_edge(&mut self, e: usize, now: f64) {
        let strategy = self.strategy;
        let sim = self.sim;
        let offset = self.offsets[e];
        let k = self.edges[e].firings + 1;
        // Aggregation compute (three-tier only: a two-tier "edge" is the
        // cloud's frontend and charges nothing of its own).
        let d = match sim.architecture {
            Architecture::ThreeTier => {
                let dd = self.edges[e].sampler.compute_ms(&sim.env.edge_device);
                self.edges[e].busy_ms += dd;
                dd
            }
            Architecture::TwoTier => 0.0,
        };
        {
            let staleness = self.edges[e].barrier.staleness(sim.policy, k);
            let mut view = self.fl.edge_view(e);
            strategy.edge_aggregate_stale(k, &mut view, staleness);
        }
        let participants = self.edges[e].barrier.close(sim.policy);
        let c = self.edges[e].barrier.children();
        let (gamma, cos) = (self.fl.edges[e].gamma_edge, self.fl.edges[e].cos_theta);
        if self.full_sync() {
            self.stage_gamma(k, e, gamma, cos);
        } else {
            self.firing_seq += 1;
            self.gamma_trace.push((self.firing_seq, gamma));
            self.cos_trace.push((self.firing_seq, cos));
        }
        if !self.full_sync() || self.faults_on {
            // Rejoin snapshot for late or recovering workers.
            self.edges[e].last_dist = self.fl.workers[offset..offset + c].to_vec();
        }
        // `submit_period` equals `π` except on N-tier runs, where a
        // non-identity middle tier pulls the submission boundary in.
        let cloud_round = k.is_multiple_of(self.submit_period);
        if self.full_sync() {
            let t = k * self.cfg.tau;
            if !cloud_round && self.is_eval_tick(t) {
                for j in 0..c {
                    let x = self.fl.workers[offset + j].x.clone();
                    self.stage_eval(t, offset + j, x, now + d);
                }
            }
        }
        if cloud_round {
            self.edges[e].waiting_cloud = true;
            self.edges[e].pending_release = participants;
            let (du, dup) = self.cloud_hop(e, sim.upload_bytes);
            self.queue.push(
                now + d + du,
                ActorId::Edge(e),
                Ev::CloudSubmit {
                    edge: e,
                    round: k / self.submit_period,
                },
            );
            if let Some(lag) = dup {
                self.queue.push(
                    now + d + du + lag,
                    ActorId::Cloud,
                    Ev::DupArrival { to: ActorId::Cloud },
                );
            }
        } else {
            for &j in &participants {
                let flat = offset + j;
                let payload = Box::new(self.fl.workers[flat].clone());
                self.deliver(flat, payload, now + d);
            }
        }
        self.edges[e].firings = k;
    }

    fn on_cloud_submit(&mut self, e: usize, p: usize, now: f64) {
        let policy = self.sim.policy;
        if !matches!(policy, SyncPolicy::AsyncAge { .. }) && p <= self.cloud.firings {
            // Late: the cloud round fired without this edge (a Deadline
            // quorum, or a FullSync round that waived it). Its submission
            // carries over in the mailbox; release its waiting workers with
            // the last distributed global.
            self.cloud.barrier.refresh(e, p);
            self.release_edge_from_snapshot(e, now);
            return;
        }
        let first = self.cloud.barrier.arrive(e, p);
        if let SyncPolicy::Deadline { timeout_ms, .. } = policy {
            if first {
                let round = self.cloud.firings + 1;
                self.queue
                    .push(now + timeout_ms, ActorId::Cloud, Ev::CloudTimeout { round });
            }
        }
        self.try_fire_cloud(now);
    }

    fn on_cloud_timeout(&mut self, round: usize, now: f64) {
        if self.cloud.firings + 1 != round {
            return;
        }
        self.cloud.barrier.expire();
        self.try_fire_cloud(now);
    }

    /// Fires the cloud round with whichever edges have submitted (see
    /// [`fire_cloud_round`]), evaluates, and replies to the participants.
    fn fire_cloud(&mut self, now: f64) {
        let sim = self.sim;
        let hierarchy = self.hierarchy;
        let p = self.cloud.firings + 1;
        let d = self.cloud.sampler.compute_ms(&sim.env.cloud_device);
        self.cloud.busy_ms += d;
        // One cloud actor cannot finish a later firing first: stamp this
        // firing's evaluation no earlier than any previous one's finish.
        let done_ms = self.cloud.done_ms.max(now + d);
        self.cloud.done_ms = done_ms;
        // The edge round this submission closes; `p` counts submission
        // boundaries, which fall every `submit_period` edge rounds.
        let k = p * self.submit_period;
        let snapshot = !self.full_sync() || self.faults_on;
        let last_dist = &mut self.cloud.last_dist;
        let participants = fire_cloud_round(
            self.strategy,
            &mut self.fl,
            &mut self.cloud.barrier,
            sim.policy,
            p,
            k,
            self.cfg.pi,
            sim.tiers.as_ref(),
            &mut self.tier_gamma,
            |fl| {
                if snapshot {
                    for (l, dist) in last_dist.iter_mut().enumerate() {
                        *dist = Some(fl.workers[hierarchy.edge_workers(l)].to_vec());
                    }
                }
            },
        );
        if self.full_sync() {
            let t = k * self.cfg.tau;
            if self.is_eval_tick(t) {
                let params = self.strategy.global_params(&self.fl);
                let (test, train) = self.run_eval(&params);
                self.evals.push(EvalRec {
                    iter: t,
                    at_ms: done_ms,
                    test,
                    train,
                });
            }
        } else {
            self.record_relaxed_eval(done_ms);
        }
        for &l in &participants {
            let (dd, dup) = self.cloud_hop(l, sim.download_bytes);
            self.queue
                .push(now + d + dd, ActorId::Edge(l), Ev::CloudReply { edge: l });
            if let Some(lag) = dup {
                let to = ActorId::Edge(l);
                self.queue
                    .push(now + d + dd + lag, to, Ev::DupArrival { to });
            }
        }
        self.cloud.firings = p;
    }

    /// Releases an edge whose submission arrived after its cloud round
    /// fired: its waiting workers get the last distributed global model.
    fn release_edge_from_snapshot(&mut self, e: usize, now: f64) {
        let ws = self.cloud.last_dist[e]
            .clone()
            .expect("late cloud submission implies a prior cloud firing");
        self.edges[e].waiting_cloud = false;
        self.edges[e].last_dist = ws.clone();
        let offset = self.offsets[e];
        let pending: Vec<usize> = std::mem::take(&mut self.edges[e].pending_release);
        for j in pending {
            self.deliver(offset + j, Box::new(ws[j].clone()), now);
        }
    }

    fn on_cloud_reply(&mut self, e: usize, now: f64) {
        self.edges[e].waiting_cloud = false;
        let offset = self.offsets[e];
        let c = self.edges[e].barrier.children();
        if !self.full_sync() || self.faults_on {
            // Late joiners from here on get the post-cloud distribution.
            self.edges[e].last_dist = self.fl.workers[offset..offset + c].to_vec();
        }
        let pending: Vec<usize> = std::mem::take(&mut self.edges[e].pending_release);
        for j in pending {
            let flat = offset + j;
            let payload = Box::new(self.fl.workers[flat].clone());
            self.deliver(flat, payload, now);
        }
        match self.sim.policy {
            SyncPolicy::AsyncAge { .. } => {
                // Arrivals queued while the submission was outstanding.
                self.try_fire_edge(e, now);
            }
            SyncPolicy::FullSync if self.faults_on => {
                // A death while the submission was outstanding may have
                // satisfied the waived barrier.
                self.try_fire_edge(e, now);
                self.try_fire_cloud(now);
            }
            _ => {}
        }
    }

    fn on_deliver(&mut self, flat: usize, state: WorkerState, now: f64) {
        if self.workers[flat].dead {
            return; // delivery raced the worker's permanent death
        }
        self.workers[flat].state = state;
        if self.faults_on {
            let snap = (
                self.workers[flat].tick,
                Box::new(self.workers[flat].state.clone()),
            );
            self.workers[flat].chain = Some(snap);
        }
        if self.workers[flat].down {
            return; // its pending Recover rejoins from the fresh snapshot
        }
        if self.workers[flat].tick < self.limit {
            self.schedule_step(flat, now);
        } else {
            self.workers[flat].done = true;
        }
    }

    /// A transiently-crashed worker comes back: it lost whatever it was
    /// doing and rejoins from the last server-delivered model at that
    /// snapshot's tick, replaying the interval with fresh batch draws.
    fn on_recover(&mut self, i: usize, now: f64) {
        let w = &mut self.workers[i];
        if w.dead || !w.down {
            return;
        }
        w.down = false;
        let (tick, state) = w
            .chain
            .clone()
            .expect("fault injection keeps a rejoin snapshot");
        w.tick = tick;
        w.state = *state;
        if w.tick >= self.limit {
            w.done = true;
            return;
        }
        self.schedule_step(i, now);
    }

    /// A worker dies permanently: it never uploads again, and every
    /// barrier that could wait for it is re-derived so the run cannot
    /// deadlock on a dead child.
    fn on_die(&mut self, i: usize, now: f64) {
        {
            let w = &mut self.workers[i];
            if w.dead || w.done {
                return;
            }
            w.dead = true;
            w.down = false;
            w.faults.crashes += 1;
        }
        if self.full_sync() {
            // Stages first (they evaluate at `now`), then barriers (their
            // evaluations land after aggregation compute).
            let ts: Vec<usize> = self.pending_evals.keys().copied().collect();
            for t in ts {
                self.try_finish_eval(t, now);
            }
            let ks: Vec<usize> = self.gamma_stage.keys().copied().collect();
            for k in ks {
                self.try_finish_gamma(k);
            }
        }
        self.try_fire_edge(self.edge_of[i], now);
        self.try_fire_cloud(now);
    }

    fn dispatch(&mut self, ev: Ev, now: f64) {
        match ev {
            Ev::Step { worker } => self.on_step_done(worker, now),
            Ev::Upload { worker } => self.on_upload(worker, now),
            Ev::EdgeTimeout { edge, round } => self.on_edge_timeout(edge, round, now),
            Ev::Deliver { worker, state } => self.on_deliver(worker, *state, now),
            Ev::CloudSubmit { edge, round } => self.on_cloud_submit(edge, round, now),
            Ev::CloudTimeout { round } => self.on_cloud_timeout(round, now),
            Ev::CloudReply { edge } => self.on_cloud_reply(edge, now),
            Ev::Recover { worker } => self.on_recover(worker, now),
            Ev::Die { worker } => self.on_die(worker, now),
            Ev::DupArrival { to } => {
                let counters = match to {
                    ActorId::Worker(i) => &mut self.workers[i].faults,
                    ActorId::Edge(e) => &mut self.edges[e].faults,
                    ActorId::Cloud => &mut self.cloud.faults,
                };
                counters.duplicates_received += 1;
            }
        }
    }

    /// End-of-run safety net: if the queue is dry but a barrier is still
    /// collecting (an async age gate can be left waiting for a child that
    /// exhausted mid-round), force the pending rounds to fire so every
    /// worker is released and the run terminates.
    fn drain_stalled(&mut self) -> bool {
        for e in 0..self.edges.len() {
            if !self.edges[e].waiting_cloud && self.edges[e].barrier.have() > 0 {
                self.fire_edge(e, self.now);
                return true;
            }
        }
        if self.cloud.barrier.have() > 0 {
            self.fire_cloud(self.now);
            return true;
        }
        false
    }

    fn run(&mut self) {
        let sim = self.sim;
        for p in &sim.faults.permanent {
            self.queue.push(
                p.at_ms,
                ActorId::Worker(p.worker),
                Ev::Die { worker: p.worker },
            );
        }
        for i in 0..self.workers.len() {
            self.schedule_step(i, 0.0);
        }
        loop {
            match self.queue.pop() {
                Some((time, _actor, payload)) => {
                    // A stale timeout (its round already fired) is a no-op
                    // and must not advance the clock — otherwise a generous
                    // deadline inflates the run's end time long after the
                    // last real event.
                    let live = match &payload {
                        Ev::EdgeTimeout { edge, round } => self.edges[*edge].firings + 1 == *round,
                        Ev::CloudTimeout { round } => self.cloud.firings + 1 == *round,
                        _ => true,
                    };
                    if !live {
                        continue;
                    }
                    self.now = time;
                    self.events += 1;
                    self.dispatch(payload, time);
                }
                None => {
                    if !self.drain_stalled() {
                        break;
                    }
                }
            }
        }
    }

    /// The mailbox federation state at the span's end tick — what an
    /// elastic run's churn transform (and the next span's resume) reads.
    fn final_snapshot(&self) -> TrainingSnapshot {
        TrainingSnapshot {
            algorithm: self.strategy.name().to_string(),
            tick: self.limit,
            workers: self.fl.workers.clone(),
            edges: self.fl.edges.clone(),
            cloud: self.fl.cloud.clone(),
            middle: Vec::new(),
            topology: None,
        }
    }

    /// Builds the result; also returns `(last_iter, firing_seq)` so an
    /// elastic run's next span can continue the relaxed-policy indices.
    fn finish(mut self) -> (SimResult, usize, usize) {
        let strategy = self.strategy;
        if !self.full_sync() && self.final_segment {
            // Final state after all deliveries (late arrivals may have
            // landed after the last cloud firing).
            self.record_relaxed_eval(self.now.max(self.cloud.done_ms));
        }
        self.evals.sort_by_key(|r| r.iter);
        let mut curve = ConvergenceCurve::new();
        let mut timed = TimedCurve::new();
        for r in &self.evals {
            curve.push(EvalPoint {
                iteration: r.iter,
                train_loss: r.train.loss,
                test_loss: r.test.loss,
                test_accuracy: r.test.accuracy,
            });
            timed.push(TimedPoint {
                seconds: r.at_ms / 1000.0,
                iteration: r.iter,
                train_loss: r.train.loss,
                test_loss: r.test.loss,
                test_accuracy: r.test.accuracy,
            });
        }
        let end_ms = self.now;
        let util = |busy_ms: f64| {
            if end_ms > 0.0 {
                (busy_ms / end_ms).min(1.0)
            } else {
                0.0
            }
        };
        let actors = self.workers.len() + self.edges.len() + 1;
        let mut utilization = Vec::with_capacity(actors);
        let mut faults = Vec::with_capacity(actors);
        let mut adversaries = Vec::with_capacity(actors);
        for (i, w) in self.workers.iter().enumerate() {
            utilization.push(ActorUtilization {
                actor: format!("worker-{i}"),
                busy_seconds: w.busy_ms / 1000.0,
                utilization: util(w.busy_ms),
            });
            faults.push(ActorFaults {
                actor: format!("worker-{i}"),
                counters: w.faults,
            });
            adversaries.push(ActorAdversaries {
                actor: format!("worker-{i}"),
                counters: w.advers,
            });
        }
        for (l, e) in self.edges.iter().enumerate() {
            utilization.push(ActorUtilization {
                actor: format!("edge-{l}"),
                busy_seconds: e.busy_ms / 1000.0,
                utilization: util(e.busy_ms),
            });
            faults.push(ActorFaults {
                actor: format!("edge-{l}"),
                counters: e.faults,
            });
            adversaries.push(ActorAdversaries {
                actor: format!("edge-{l}"),
                counters: AdversaryCounters::default(),
            });
        }
        utilization.push(ActorUtilization {
            actor: "cloud".to_string(),
            busy_seconds: self.cloud.busy_ms / 1000.0,
            utilization: util(self.cloud.busy_ms),
        });
        faults.push(ActorFaults {
            actor: "cloud".to_string(),
            counters: self.cloud.faults,
        });
        adversaries.push(ActorAdversaries {
            actor: "cloud".to_string(),
            counters: AdversaryCounters::default(),
        });
        let result = SimResult {
            algorithm: strategy.name().to_string(),
            policy: self.sim.policy.label(),
            curve,
            timed_curve: timed,
            gamma_trace: self.gamma_trace,
            cos_trace: self.cos_trace,
            tier_gamma: self.tier_gamma,
            final_params: strategy.global_params(&self.fl),
            simulated_seconds: end_ms / 1000.0,
            utilization,
            faults,
            adversaries,
            events: self.events,
            topology: TopologyCounters::default(),
        };
        (result, self.last_iter, self.firing_seq)
    }
}

/// One cloud firing over the edges that arrived at `barrier`, shared by
/// both engines. Middle tiers (co-hosted at the cloud actor, so no extra
/// network hops) fire bottom-up at edge round `k`, exactly as the
/// tick-driven driver fires them between its edge and cloud phases; then
/// the root fires on its own `π` boundary — every submission on three-tier
/// runs, every `π / submit_period`-th on N-tier runs. Every hook sees the
/// barrier's staleness for cloud round `p`, so each middle node sees its
/// own subtree's edges: all-zero (every FullSync round) is bitwise the
/// synchronous hook, otherwise stale subtree edges are carried over at
/// bounded age (`default_middle_aggregate_stale`).
///
/// Absent edges' mailbox state is saved around the hooks and restored
/// after, so the global update reads their carried-over submissions but
/// does not overwrite state they never received; `observe` sees the
/// post-hook mailbox before the restore. Closes the barrier and returns
/// the edges that took part.
#[allow(clippy::too_many_arguments)]
pub(crate) fn fire_cloud_round<S>(
    strategy: &S,
    fl: &mut FlState,
    barrier: &mut Barrier,
    policy: SyncPolicy,
    p: usize,
    k: usize,
    pi: usize,
    tree: Option<&TierTree>,
    tier_gamma: &mut [Vec<(usize, f32)>],
    observe: impl FnOnce(&FlState),
) -> Vec<usize>
where
    S: Strategy + ?Sized,
{
    let saved: Vec<(usize, TierState, Vec<WorkerState>)> = (0..barrier.children())
        .filter(|&l| !barrier.arrived(l))
        .map(|l| {
            (
                l,
                fl.edges[l].clone(),
                fl.workers[fl.hierarchy.edge_workers(l)].to_vec(),
            )
        })
        .collect();
    let staleness = barrier.staleness(policy, p);
    if let Some(tree) = tree {
        fire_middle_tiers(strategy, fl, tree, k, Some(staleness), tier_gamma);
    }
    if k.is_multiple_of(pi) {
        strategy.cloud_aggregate_stale(k / pi, fl, staleness);
    }
    observe(fl);
    for (l, es, ws) in saved {
        fl.edges[l] = es;
        let range = fl.hierarchy.edge_workers(l);
        fl.workers[range].clone_from_slice(&ws);
    }
    barrier.close(policy)
}

/// Runs `strategy` under the co-simulation: same training semantics as
/// [`hieradmo_core::run`] (bitwise-identical under
/// [`SyncPolicy::FullSync`]), but every compute and transfer charges
/// virtual time drawn from `sim.env`, and aggregation fires per
/// `sim.policy` rather than at a global barrier.
///
/// As in [`hieradmo_core::run`], `worker_data` registers the whole uid
/// space. An empty [`RunConfig::churn`] plan with one dataset per worker
/// runs the frozen-tree engine directly; anything else runs the elastic
/// epoch segments of [`crate::elastic`], where `cfg.adversary` and
/// `sim.faults.permanent` are keyed by uid and `sim.env.worker_devices` is
/// a device pool (worker `g` computes on profile `g mod pool size`).
/// N-tier trees ([`SimConfig::tiers`]) do not compose with churn yet and
/// are rejected.
///
/// # Errors
///
/// Returns [`SimError`] if the config, schedule, topology, data, network
/// environment or policy are inconsistent — the same pre-flight checks as
/// the core driver plus the network/policy ones — or a churn event is
/// invalid against the live topology when it applies.
pub fn simulate<M, S>(
    strategy: &S,
    model: &M,
    hierarchy: &Hierarchy,
    worker_data: &[Dataset],
    test_data: &Dataset,
    cfg: &RunConfig,
    sim: &SimConfig,
) -> Result<SimResult, SimError>
where
    M: Model + Clone + Send,
    S: Strategy + ?Sized,
{
    if !cfg.churn.is_empty() || worker_data.len() != hierarchy.num_workers() {
        return crate::elastic::simulate_epochs(
            strategy,
            model,
            hierarchy,
            worker_data,
            test_data,
            cfg,
            sim,
        );
    }
    validate_sim(strategy, hierarchy, worker_data, cfg, sim)?;
    let mut engine = Engine::new(
        strategy,
        model,
        hierarchy,
        worker_data,
        test_data,
        cfg,
        sim,
        Span::full(cfg),
    );
    engine.run();
    Ok(engine.finish().0)
}

/// The pre-flight checks of every engine launch: the frozen-tree
/// [`simulate`] and the per-segment launches of [`crate::elastic`].
pub(crate) fn validate_sim<S>(
    strategy: &S,
    hierarchy: &Hierarchy,
    worker_data: &[Dataset],
    cfg: &RunConfig,
    sim: &SimConfig,
) -> Result<(), SimError>
where
    S: Strategy + ?Sized,
{
    cfg.validate()
        .map_err(|m| SimError::Run(RunError::BadConfig(m)))?;
    strategy
        .check_topology(hierarchy)
        .map_err(|m| SimError::Run(RunError::Topology(m)))?;
    if worker_data.len() != hierarchy.num_workers() {
        return Err(SimError::Run(RunError::Data(format!(
            "{} worker datasets for {} workers",
            worker_data.len(),
            hierarchy.num_workers()
        ))));
    }
    if let Some(i) = worker_data.iter().position(Dataset::is_empty) {
        return Err(SimError::Run(RunError::Data(format!(
            "worker {i} has no data"
        ))));
    }
    Schedule::three_tier(cfg.tau, cfg.pi, cfg.total_iters)
        .map_err(|e| SimError::Run(RunError::Schedule(e)))?;
    sim.faults.validate().map_err(SimError::Fault)?;
    for p in &sim.faults.permanent {
        if p.worker >= hierarchy.num_workers() {
            return Err(SimError::Fault(format!(
                "permanent crash targets worker {} but the topology has {} workers",
                p.worker,
                hierarchy.num_workers()
            )));
        }
    }
    for b in &cfg.adversary.byzantine {
        if b.worker >= hierarchy.num_workers() {
            return Err(SimError::Adversary(format!(
                "attack targets worker {} but the topology has {} workers",
                b.worker,
                hierarchy.num_workers()
            )));
        }
    }
    sim.validate(None).map_err(SimError::Policy)?;
    if let Some(tree) = &sim.tiers {
        tree.check_periods(cfg.tau, cfg.pi)
            .map_err(|m| SimError::Run(RunError::BadConfig(m)))?;
        tree.check_spans(hierarchy)
            .map_err(|m| SimError::Run(RunError::Topology(m)))?;
    }
    for e in 0..hierarchy.num_edges() {
        sim.policy
            .validate_for_children(hierarchy.workers_in_edge(e))
            .map_err(SimError::Policy)?;
    }
    sim.policy
        .validate_for_children(hierarchy.num_edges())
        .map_err(SimError::Policy)?;
    if sim.env.worker_devices.len() != hierarchy.num_workers() {
        return Err(SimError::Net(format!(
            "{} device profiles for {} workers",
            sim.env.worker_devices.len(),
            hierarchy.num_workers()
        )));
    }
    Ok(())
}

/// Runs one topology-epoch segment of an elastic co-simulation: ticks
/// `(span.start, span.limit]` against `hierarchy` (the segment's frozen
/// tree), resuming the mailbox from `span.resume`. Returns the segment's
/// result, the end-of-segment snapshot (what the churn transform mutates),
/// and the relaxed-policy index carry-overs `(iter_base, firing_base)`.
#[allow(clippy::too_many_arguments, clippy::type_complexity)]
pub(crate) fn simulate_span<M, S>(
    strategy: &S,
    model: &M,
    hierarchy: &Hierarchy,
    worker_data: &[Dataset],
    test_data: &Dataset,
    cfg: &RunConfig,
    sim: &SimConfig,
    span: Span<'_>,
) -> Result<(SimResult, TrainingSnapshot, usize, usize), SimError>
where
    M: Model + Clone + Send,
    S: Strategy + ?Sized,
{
    validate_sim(strategy, hierarchy, worker_data, cfg, sim)?;
    let mut engine = Engine::new(
        strategy,
        model,
        hierarchy,
        worker_data,
        test_data,
        cfg,
        sim,
        span,
    );
    engine.run();
    let snapshot = engine.final_snapshot();
    let (result, iter_base, firing_base) = engine.finish();
    Ok((result, snapshot, iter_base, firing_base))
}
