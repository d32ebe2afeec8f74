//! Event-driven co-simulation over a *virtual* worker population: only the
//! per-round sampled cohort exists as actors, so queue cost, memory, and
//! events processed are all `O(active)`, never `O(registered)`.
//!
//! [`simulate_virtual`] is the event-driven counterpart of
//! [`hieradmo_core::population::run_virtual`] and its tiered variants.
//! Under full participation it materializes the population and delegates
//! to [`crate::simulate`] (bitwise identical to the classic path); under
//! sampling it runs an event loop whose per-slot RNG streams — mini-batch
//! order, adversary draws, network delays, fault draws, dropout masks —
//! all re-derive from `(seed, worker_id, round)`, so under
//! [`SyncPolicy::FullSync`] the model trajectory is bitwise identical to
//! `run_virtual`'s / `run_virtual_span`'s and independent of thread
//! count (gated by `tests/sampling_equivalence.rs`).
//!
//! Edges progress their rounds independently between cloud barriers;
//! evaluation and γ traces are staged per round at *edge* granularity and
//! emitted once every edge has contributed, reproducing the tick-driven
//! round means exactly.
//!
//! # Relaxed policies over sampled cohorts
//!
//! Edge and cloud rounds collect through the same per-tier barrier as the
//! classic engine (`crate::policy::Barrier`: one firing rule, one
//! staleness vector, one age update for every policy); only the waivers
//! and the late-arrival handling are this engine's own. Because a cohort
//! worker only exists for one round and re-materializes from its edge at
//! the next round's start, the straggler semantics of
//! [`SyncPolicy::Deadline`] and [`SyncPolicy::AsyncAge`] simplify to
//! *waiver-at-the-round*: a straggler that misses its round's firing is
//! discarded (its slot re-materializes next round — the rejoin is free),
//! and the slot's carried state enters the aggregation hook at staleness
//! ≥ 1. Materialization dates every slot to the previous round, so
//! Deadline rounds see per-slot staleness of 0 or 1; AsyncAge ages persist
//! per slot, grow one per missed round and are bounded by `max_staleness`
//! exactly as in the classic engine.
//!
//! # Faults over sampled cohorts
//!
//! Transient crashes are decided *at materialization*: sampled worker `g`
//! in round `k` draws once from its private `(net_seed, g, k)` fault
//! stream ([`fault_stream`]) and, if it crashes, sits the round out
//! (absent: no download, no steps, no upload) — the event-driven spelling
//! of a crash that costs the whole interval. Absent slots are waived at
//! every policy's barrier, and rejoin automatically at the next
//! materialization. Permanent crashes remove a registered id from every
//! cohort from `at_ms` on. Delay spikes multiply individual step times
//! from the same per-`(worker, round)` stream.
//!
//! Link faults run the classic retry/duplicate protocol over the sampled
//! cohort: slot downloads and uploads draw the transfer outcome from the
//! occupying worker's `(worker, round)` fault stream, and the edge↔cloud
//! hops from a per-edge stream (`SALT_EDGE_FAULT_STREAM`) that exists
//! for the whole run — the mailbox state a cohort slot cannot keep lives
//! at the (persistent) edge actors. Retries and backoff only stretch the
//! transfer (delivery eventually succeeds, as in the classic engine), so
//! the FullSync model trajectory stays bitwise identical to the fault-free
//! run; duplicates arrive as separate `VEv::DupArrival` events and are
//! tallied at the receiving actor.

use std::collections::BTreeMap;

use hieradmo_core::byzantine::corrupt_upload;
use hieradmo_core::driver::{
    build_train_probe, clipped_local_step, evaluate_on_replicas, RunError,
};
use hieradmo_core::population::{
    adversary_stream, batcher_seed, cohort_dropout_mask, delay_stream, fault_stream,
    materialize_edge_cohort, virtual_global_params, weighted_edge_average, CohortSampler,
    WorkerPopulation,
};
use hieradmo_core::{FlState, RunConfig, Strategy};
use hieradmo_data::{Batcher, Dataset};
use hieradmo_metrics::{
    ActorAdversaries, ActorFaults, ActorUtilization, AdversaryCounters, ConvergenceCurve,
    EvalPoint, FaultCounters, TimedCurve, TimedPoint,
};
use hieradmo_models::{Evaluation, Model};
use hieradmo_netsim::{AdversarySampler, Architecture, AttackModel, DelaySampler, FaultSampler};
use hieradmo_tensor::Vector;
use hieradmo_topology::{Hierarchy, TierTree, Weights};

use crate::driver::{fire_cloud_round, SimError, SimResult};
use crate::event::{ActorId, EventQueue};
use crate::policy::{Barrier, SimConfig, SyncPolicy};

/// One scheduled occurrence in the virtual-population simulation. `slot`
/// indexes the cohort (the active actors), never the registered
/// population. Slot events carry the round they belong to and boundary
/// events the submission boundary, so anything a relaxed policy leaves in
/// flight past its firing is dropped instead of leaking into the next
/// materialization.
enum VEv {
    /// An edge begins its next round: sample the cohort, charge downloads.
    StartRound { edge: usize },
    /// A cohort slot's model download landed; local steps begin.
    Arrive { slot: usize, round: usize },
    /// A cohort slot finished one local step.
    StepDone { slot: usize, round: usize },
    /// A cohort slot's end-of-round upload reached its edge.
    Upload { slot: usize, round: usize },
    /// A deadline edge round's quorum timer expired.
    EdgeTimeout { edge: usize, round: usize },
    /// An edge's boundary-round submission reached the cloud.
    CloudSubmit { edge: usize, boundary: usize },
    /// A deadline cloud boundary's quorum timer expired.
    CloudTimeout { boundary: usize },
    /// The cloud's reply reached an edge.
    CloudReply { edge: usize },
    /// A duplicated message's second copy landed at `to` (link faults).
    DupArrival { to: ActorId },
}

/// Round-scoped context of one cohort slot, rebuilt from
/// `(seed, worker_id, round)` at every materialization.
struct SlotCtx {
    /// Global (population) id of the worker occupying the slot this round.
    gid: u64,
    /// The slot's edge (fixed: the cohort hierarchy is constant).
    edge: usize,
    /// The worker's shard index this round.
    shard: usize,
    /// Local steps completed this round.
    steps: usize,
    /// This round's mini-batch stream.
    batcher: Batcher,
    /// This round's private delay stream.
    delays: DelaySampler,
    /// This round's private fault stream (`None` when the plan is empty,
    /// so fault-free runs draw nothing).
    fsampler: Option<FaultSampler>,
    /// Per-step dropout mask for this round (all-false without dropout).
    dropped: Vec<bool>,
    /// The occupying worker's attack, if it is Byzantine.
    attack: Option<AttackModel>,
}

struct EdgeSim {
    /// Current round (1-based; 0 before the first `StartRound`).
    round: usize,
    /// The current round's aggregation already ran: anything still in
    /// flight for it is a straggler and is discarded on arrival.
    fired: bool,
    /// Collection state over the edge's cohort slots.
    barrier: Barrier,
    /// Per-slot fault absence this round (crashed at materialization).
    absent: Vec<bool>,
    /// The edge has finished its final round.
    done: bool,
    /// Busy virtual milliseconds (aggregation compute + cloud transfers).
    busy_ms: f64,
    /// Private delay stream for aggregation compute and cloud hops.
    sampler: DelaySampler,
    /// Private fault stream for the edge↔cloud retry protocol (`None`
    /// without link faults, so fault-free runs draw nothing).
    fsampler: Option<FaultSampler>,
    /// Link-fault tallies of this edge's transfers and received duplicates.
    faults: FaultCounters,
}

struct EvalRec {
    iter: usize,
    at_ms: f64,
    test: Evaluation,
    train: Evaluation,
}

struct VEngine<'a, M, S: ?Sized> {
    strategy: &'a S,
    cfg: &'a RunConfig,
    sim: &'a SimConfig,
    population: &'a WorkerPopulation,
    shards: &'a [Dataset],
    shard_sizes: Vec<u64>,
    sampler: CohortSampler,
    fl: FlState,
    slots: Vec<SlotCtx>,
    edges: Vec<EdgeSim>,
    /// The sampled sub-tree (the registered tree with its leaf fanout
    /// swapped for the uniform cohort size), when this is an N-tier run.
    cohort_tree: Option<TierTree>,
    /// Edge rounds per cloud submission: `π`, or the deepest non-identity
    /// middle tier's `TierTree::sync_rounds` on N-tier runs.
    submit_period: usize,
    /// The fault plan injects something; `false` guarantees zero fault
    /// draws and a run bitwise identical to one without fault injection.
    faults_on: bool,
    /// Cloud firings so far; the boundary being collected is the next one.
    cloud_firings: usize,
    /// Collection state over the edges.
    cloud_barrier: Barrier,
    cloud_busy_ms: f64,
    cloud_sampler: DelaySampler,
    /// Aggregate busy time of all sampled workers (the worker tier is
    /// virtual, so per-actor accounting would be `O(registered)`).
    workers_busy_ms: f64,
    /// Aggregate fault tallies of all sampled workers, ditto.
    worker_faults: FaultCounters,
    /// Duplicates received by the cloud (its transfers are charged — and
    /// drawn — at the edges, mirroring the classic engine).
    cloud_faults: FaultCounters,
    /// One flag per permanent-crash plan entry: already counted.
    permanent_counted: Vec<bool>,
    queue: EventQueue<VEv>,
    /// Per-round staged edge `x_plus` snapshots for evaluation.
    eval_stage: BTreeMap<usize, (Vec<Option<Vector>>, f64)>,
    /// Per-round staged `(γℓ, cos θ)` per edge.
    gamma_stage: BTreeMap<usize, Vec<Option<(f32, f32)>>>,
    gamma_trace: Vec<(usize, f32)>,
    cos_trace: Vec<(usize, f32)>,
    /// Per-middle-depth `(round, mean γℓ)` traces (N-tier runs).
    tier_gamma: Vec<Vec<(usize, f32)>>,
    evals: Vec<EvalRec>,
    /// One scratch model for gradient math (params are set before every
    /// use, so slots can share it) and the evaluation replicas.
    step_model: M,
    eval_models: Vec<M>,
    test_data: &'a Dataset,
    train_probe: Dataset,
    batch: Vec<usize>,
    /// One counter per adversary-plan entry, in plan order.
    adversaries: Vec<AdversaryCounters>,
    rounds: usize,
    edges_done: usize,
    events: u64,
    now: f64,
}

/// Runs the link-fault retry protocol for one transfer: draws the outcome
/// from `fs`, tallies it into the sender's `counters`, and returns the
/// delay penalty plus the duplicate's extra lag, if one was spawned.
pub(crate) fn link_transfer(
    lf: &hieradmo_netsim::LinkFaults,
    fs: &mut FaultSampler,
    counters: &mut FaultCounters,
) -> (f64, Option<f64>) {
    let out = fs.transfer(lf);
    counters.add_transfer(
        out.messages_lost,
        out.transfer_failures,
        out.retries,
        out.duplicate_lag_ms.is_some(),
    );
    (out.penalty_ms, out.duplicate_lag_ms)
}

impl<'a, M: Model + Clone + Send, S: Strategy + ?Sized> VEngine<'a, M, S> {
    fn is_eval_round(&self, k: usize) -> bool {
        (k * self.cfg.tau).is_multiple_of(self.cfg.eval_every) || k == self.rounds
    }

    fn device_of(&self, gid: u64) -> usize {
        // Profile-pool semantics: registered worker `g` draws its compute
        // profile from the pool slot `g mod pool size`, so a small profile
        // set covers any population size.
        (gid % self.sim.env.worker_devices.len() as u64) as usize
    }

    /// A slot event from a round that already fired (or was replaced by a
    /// newer materialization) — a straggler to be discarded.
    fn slot_event_stale(&self, slot: usize, round: usize) -> bool {
        let e = self.slots[slot].edge;
        self.edges[e].round != round || self.edges[e].fired
    }

    fn on_start_round(&mut self, e: usize, now: f64) {
        self.edges[e].round += 1;
        let k = self.edges[e].round;
        self.edges[e].fired = false;
        // Fresh slots carry the edge's state over from the last round, so
        // a slot that misses this round is one round stale.
        self.edges[e].barrier.restart(k - 1);
        let ids = materialize_edge_cohort(
            &mut self.fl,
            self.population,
            &self.shard_sizes,
            &self.sampler,
            e,
            k,
        );
        let range = self.fl.hierarchy.edge_workers(e);
        for (j, &g) in ids.iter().enumerate() {
            let slot = range.start + j;
            let mut fsampler = self
                .faults_on
                .then(|| FaultSampler::from_stream(self.sim.net_seed, fault_stream(g, k as u64)));
            // Fault waiver at materialization: the round's crash draw is
            // taken up front, so absence is a per-(worker, round) fact
            // independent of event interleaving. An absent slot loses its
            // whole round and rejoins at the next materialization.
            let mut absent = false;
            for (idx, perm) in self.sim.faults.permanent.iter().enumerate() {
                if perm.worker as u64 == g && perm.at_ms <= now {
                    if !self.permanent_counted[idx] {
                        self.permanent_counted[idx] = true;
                        self.worker_faults.crashes += 1;
                    }
                    absent = true;
                }
            }
            if !absent {
                if let (Some(c), Some(fs)) = (self.sim.faults.crash.as_ref(), fsampler.as_mut()) {
                    if let Some(downtime) = fs.crash_downtime_ms(c) {
                        absent = true;
                        self.worker_faults.crashes += 1;
                        self.worker_faults.recovery_ms += downtime;
                    }
                }
            }
            self.edges[e].absent[j] = absent;
            let ctx = &mut self.slots[slot];
            ctx.gid = g;
            ctx.shard = self.population.shard_of(g);
            ctx.steps = 0;
            ctx.batcher = Batcher::new(
                self.shard_sizes[ctx.shard] as usize,
                self.cfg.batch_size,
                batcher_seed(self.cfg.seed, g, k as u64),
            );
            ctx.delays = DelaySampler::from_stream(self.sim.net_seed, delay_stream(g, k as u64));
            ctx.fsampler = fsampler;
            ctx.dropped =
                cohort_dropout_mask(self.cfg.seed, g, k as u64, self.cfg.tau, self.cfg.dropout);
            ctx.attack = self.cfg.adversary.attack_for(g as usize);
            if absent {
                self.worker_faults.lost_uploads += 1;
                continue; // down for the round: no download, no steps
            }
            // Model download to the freshly sampled participant.
            let mut d = self.slots[slot]
                .delays
                .transfer_ms(&self.sim.env.worker_edge_link, self.sim.download_bytes);
            let mut dup = None;
            if let Some(lf) = self.sim.faults.link {
                let fs = self.slots[slot]
                    .fsampler
                    .as_mut()
                    .expect("link faults imply an active fault stream");
                let (pen, lag) = link_transfer(&lf, fs, &mut self.worker_faults);
                d += pen;
                dup = lag;
            }
            self.workers_busy_ms += d;
            self.queue.push(
                now + d,
                ActorId::Worker(slot),
                VEv::Arrive { slot, round: k },
            );
            if let Some(lag) = dup {
                let to = ActorId::Worker(slot);
                self.queue.push(now + d + lag, to, VEv::DupArrival { to });
            }
        }
        if self.edges[e].absent.iter().all(|&a| a) {
            // Every sampled participant is down: the round fires empty and
            // the edge relays its carried state at the boundaries, so no
            // barrier above can deadlock on it.
            self.fire_edge(e, now);
        }
    }

    fn schedule_step(&mut self, slot: usize, now: f64) {
        let e = self.slots[slot].edge;
        let k = self.edges[e].round;
        let next = self.slots[slot].steps;
        if self.slots[slot].dropped[next] {
            // Dropped step: the device sits idle — no compute draw, and
            // (in `on_step_done`) no mini-batch draw and no local step,
            // exactly matching the tick-driven cohort engine.
            self.queue
                .push(now, ActorId::Worker(slot), VEv::StepDone { slot, round: k });
            return;
        }
        let device = self.device_of(self.slots[slot].gid);
        let mut d = self.slots[slot]
            .delays
            .compute_ms(&self.sim.env.worker_devices[device]);
        if let Some(s) = self.sim.faults.spikes.as_ref() {
            let spike = self.slots[slot]
                .fsampler
                .as_mut()
                .and_then(|fs| fs.spike_factor(s));
            if let Some(f) = spike {
                d *= f;
                self.worker_faults.delay_spikes += 1;
            }
        }
        self.workers_busy_ms += d;
        self.queue.push(
            now + d,
            ActorId::Worker(slot),
            VEv::StepDone { slot, round: k },
        );
    }

    fn on_step_done(&mut self, slot: usize, round: usize, now: f64) {
        if self.slot_event_stale(slot, round) {
            return;
        }
        self.slots[slot].steps += 1;
        let steps = self.slots[slot].steps;
        if !self.slots[slot].dropped[steps - 1] {
            let t = (round - 1) * self.cfg.tau + steps;
            let ctx = &mut self.slots[slot];
            ctx.batcher.next_batch_into(&mut self.batch);
            clipped_local_step(
                self.strategy,
                t,
                &mut self.fl.workers[slot],
                &mut self.step_model,
                &self.shards[ctx.shard],
                &self.batch,
                self.cfg.clip_norm,
            );
        }
        if steps < self.cfg.tau {
            self.schedule_step(slot, now);
        } else {
            let mut d = self.slots[slot]
                .delays
                .transfer_ms(&self.sim.env.worker_edge_link, self.sim.upload_bytes);
            let mut dup = None;
            if let Some(lf) = self.sim.faults.link {
                let fs = self.slots[slot]
                    .fsampler
                    .as_mut()
                    .expect("link faults imply an active fault stream");
                let (pen, lag) = link_transfer(&lf, fs, &mut self.worker_faults);
                d += pen;
                dup = lag;
            }
            self.workers_busy_ms += d;
            self.queue
                .push(now + d, ActorId::Worker(slot), VEv::Upload { slot, round });
            if let Some(lag) = dup {
                let to = ActorId::Edge(self.slots[slot].edge);
                self.queue.push(now + d + lag, to, VEv::DupArrival { to });
            }
        }
    }

    fn on_upload(&mut self, slot: usize, round: usize, now: f64) {
        if self.slot_event_stale(slot, round) {
            // A straggler past its round's firing: the slot has been (or
            // is about to be) re-materialized — the upload is discarded
            // and the rejoin happens at the next round start for free.
            return;
        }
        let e = self.slots[slot].edge;
        if let Some(attack) = self.slots[slot].attack {
            let g = self.slots[slot].gid;
            let entry = self
                .cfg
                .adversary
                .byzantine
                .iter()
                .position(|b| b.worker as u64 == g)
                .expect("attack implies a plan entry");
            // A fresh per-(worker, round) stream: the draw is independent
            // of event interleaving and of every other corruption.
            let mut sampler =
                AdversarySampler::from_stream(self.cfg.seed, adversary_stream(g, round as u64));
            corrupt_upload(
                &mut self.fl.workers[slot],
                &attack,
                &mut sampler,
                &mut self.adversaries[entry],
            );
        }
        let j = slot - self.fl.hierarchy.edge_workers(e).start;
        let first = self.edges[e].barrier.arrive(j, round);
        if let SyncPolicy::Deadline { timeout_ms, .. } = self.sim.policy {
            if first {
                self.queue.push(
                    now + timeout_ms,
                    ActorId::Edge(e),
                    VEv::EdgeTimeout { edge: e, round },
                );
            }
        }
        self.try_fire_edge(e, now);
    }

    fn on_edge_timeout(&mut self, e: usize, round: usize, now: f64) {
        if self.edges[e].round != round || self.edges[e].fired {
            return; // stale timer for an already-fired round
        }
        self.edges[e].barrier.expire();
        self.try_fire_edge(e, now);
    }

    /// Fires edge `e`'s round if its barrier is ready. Slots that are down
    /// for the round (absent) are waived under every policy: they
    /// re-materialize next round anyway.
    fn try_fire_edge(&mut self, e: usize, now: f64) {
        let edge = &self.edges[e];
        if !edge.fired && edge.barrier.ready(self.sim.policy, |j| edge.absent[j]) {
            self.fire_edge(e, now);
        }
    }

    /// Fires the cloud boundary if its barrier is ready. Edges never die
    /// here (cohorts re-materialize); under AsyncAge an edge that retired
    /// after its final round is waived.
    fn try_fire_cloud(&mut self, now: f64) {
        let retired_waived = matches!(self.sim.policy, SyncPolicy::AsyncAge { .. });
        if self
            .cloud_barrier
            .ready(self.sim.policy, |l| retired_waived && self.edges[l].done)
        {
            self.fire_cloud(now);
        }
    }

    /// Draws edge `e`'s cloud-hop transfer delay (both directions share the
    /// edge's streams and its link-fault tallies) and charges its busy
    /// time. Returns `(delay_ms, duplicate_lag_ms)`.
    fn cloud_hop(&mut self, e: usize, bytes: u64) -> (f64, Option<f64>) {
        let flows = self.edges.len();
        let edge = &mut self.edges[e];
        let mut d = edge
            .sampler
            .shared_transfer_ms(&self.sim.env.edge_cloud_link, bytes, flows);
        let mut dup = None;
        if let Some(lf) = self.sim.faults.link {
            let fs = edge
                .fsampler
                .as_mut()
                .expect("link faults imply an active edge fault stream");
            let (penalty, lag) = link_transfer(&lf, fs, &mut edge.faults);
            d += penalty;
            dup = lag;
        }
        edge.busy_ms += d;
        (d, dup)
    }

    /// Fires the edge's current round with whoever has arrived: runs the
    /// strategy's (staleness-aware) edge hook against the cohort, then
    /// either submits to the cloud (boundary rounds) or finishes the round
    /// locally. An empty round (every slot absent) skips the hook and
    /// relays the edge's carried state.
    fn fire_edge(&mut self, e: usize, now: f64) {
        let k = self.edges[e].round;
        self.edges[e].fired = true;
        let d = self.edges[e].sampler.compute_ms(&self.sim.env.edge_device);
        self.edges[e].busy_ms += d;
        if self.edges[e].barrier.have() > 0 {
            let staleness = self.edges[e].barrier.staleness(self.sim.policy, k);
            let mut view = self.fl.edge_view(e);
            self.strategy.edge_aggregate_stale(k, &mut view, staleness);
        }
        self.edges[e].barrier.close(self.sim.policy);
        let (gamma, cos) = (self.fl.edges[e].gamma_edge, self.fl.edges[e].cos_theta);
        self.stage_gamma(k, e, gamma, cos);
        if k.is_multiple_of(self.submit_period) {
            // Boundary round: submit to the cloud (where any middle tiers
            // are co-hosted) and wait for its reply before evaluating or
            // advancing.
            let (du, dup) = self.cloud_hop(e, self.sim.upload_bytes);
            self.queue.push(
                now + d + du,
                ActorId::Edge(e),
                VEv::CloudSubmit {
                    edge: e,
                    boundary: k / self.submit_period,
                },
            );
            if let Some(lag) = dup {
                self.queue.push(
                    now + d + du + lag,
                    ActorId::Cloud,
                    VEv::DupArrival { to: ActorId::Cloud },
                );
            }
        } else {
            self.finish_edge_round(e, now + d);
        }
    }

    /// Post-aggregation bookkeeping of edge `e`'s round `k`: stage the
    /// evaluation snapshot if this is an evaluation round, then start the
    /// next round or retire the edge.
    fn finish_edge_round(&mut self, e: usize, now: f64) {
        let k = self.edges[e].round;
        if self.is_eval_round(k) {
            let x = self.fl.edges[e].x_plus.clone();
            self.stage_eval(k, e, x, now);
        }
        if k < self.rounds {
            self.queue
                .push(now, ActorId::Edge(e), VEv::StartRound { edge: e });
        } else {
            self.edges[e].done = true;
            self.edges_done += 1;
        }
    }

    fn on_cloud_submit(&mut self, e: usize, p: usize, now: f64) {
        let policy = self.sim.policy;
        if !matches!(policy, SyncPolicy::AsyncAge { .. }) && p <= self.cloud_firings {
            // Late: the boundary fired without this edge (its carried state
            // was merged at staleness ≥ 1). The continuation is a release
            // without a pull — the edge keeps its own state and rolls
            // straight on.
            self.cloud_barrier.refresh(e, p);
            self.finish_edge_round(e, now);
            return;
        }
        let first = self.cloud_barrier.arrive(e, p);
        if let SyncPolicy::Deadline { timeout_ms, .. } = policy {
            if first {
                let boundary = self.cloud_firings + 1;
                self.queue.push(
                    now + timeout_ms,
                    ActorId::Cloud,
                    VEv::CloudTimeout { boundary },
                );
            }
        }
        self.try_fire_cloud(now);
    }

    fn on_cloud_timeout(&mut self, boundary: usize, now: f64) {
        if self.cloud_firings + 1 != boundary {
            return; // stale timer for an already-fired boundary
        }
        self.cloud_barrier.expire();
        self.try_fire_cloud(now);
    }

    /// Fires the cloud boundary with whichever edges have submitted (see
    /// [`fire_cloud_round`]) and replies to the participants.
    fn fire_cloud(&mut self, now: f64) {
        let p = self.cloud_firings + 1;
        let d = self.cloud_sampler.compute_ms(&self.sim.env.cloud_device);
        self.cloud_busy_ms += d;
        // The edge round this submission closes; `p` counts submission
        // boundaries, which fall every `submit_period` edge rounds.
        let k = p * self.submit_period;
        let participants = fire_cloud_round(
            self.strategy,
            &mut self.fl,
            &mut self.cloud_barrier,
            self.sim.policy,
            p,
            k,
            self.cfg.pi,
            self.cohort_tree.as_ref(),
            &mut self.tier_gamma,
            |_| {},
        );
        for &l in &participants {
            let (dd, dup) = self.cloud_hop(l, self.sim.download_bytes);
            self.queue
                .push(now + d + dd, ActorId::Edge(l), VEv::CloudReply { edge: l });
            if let Some(lag) = dup {
                let to = ActorId::Edge(l);
                self.queue
                    .push(now + d + dd + lag, to, VEv::DupArrival { to });
            }
        }
        self.cloud_firings = p;
    }

    /// Stages edge `e`'s round-`k` post-aggregation model; fires the
    /// evaluation once all edges have contributed, on the same
    /// population-weighted edge average as the tick-driven engine. Every
    /// edge fires every round exactly once under every policy (stragglers
    /// are waived, never re-fired), so the stage always completes.
    fn stage_eval(&mut self, k: usize, e: usize, x: Vector, at_ms: f64) {
        let l = self.edges.len();
        let (xs, last_ms) = self
            .eval_stage
            .entry(k)
            .or_insert_with(|| (vec![None; l], 0.0));
        xs[e] = Some(x);
        *last_ms = last_ms.max(at_ms);
        let complete = xs.iter().all(Option::is_some);
        if !complete {
            return;
        }
        let (xs, last_ms) = self.eval_stage.remove(&k).expect("stage just checked");
        let params = weighted_edge_average(
            &self.fl.weights,
            xs.iter().map(|x| x.as_ref().expect("stage complete")),
        );
        let (test, train) = evaluate_on_replicas(
            &mut self.eval_models,
            self.test_data,
            &self.train_probe,
            &params,
        );
        self.evals.push(EvalRec {
            iter: k * self.cfg.tau,
            at_ms: last_ms,
            test,
            train,
        });
    }

    fn stage_gamma(&mut self, k: usize, e: usize, gamma: f32, cos: f32) {
        let l = self.edges.len();
        let slot = self.gamma_stage.entry(k).or_insert_with(|| vec![None; l]);
        slot[e] = Some((gamma, cos));
        if !slot.iter().all(Option::is_some) {
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

    fn run(&mut self) {
        for e in 0..self.edges.len() {
            self.queue
                .push(0.0, ActorId::Edge(e), VEv::StartRound { edge: e });
        }
        while let Some((time, _actor, payload)) = self.queue.pop() {
            self.now = time;
            self.events += 1;
            match payload {
                VEv::StartRound { edge } => self.on_start_round(edge, time),
                VEv::Arrive { slot, round } => {
                    if !self.slot_event_stale(slot, round) {
                        self.schedule_step(slot, time);
                    }
                }
                VEv::StepDone { slot, round } => self.on_step_done(slot, round, time),
                VEv::Upload { slot, round } => self.on_upload(slot, round, time),
                VEv::EdgeTimeout { edge, round } => self.on_edge_timeout(edge, round, time),
                VEv::CloudSubmit { edge, boundary } => self.on_cloud_submit(edge, boundary, time),
                VEv::CloudTimeout { boundary } => self.on_cloud_timeout(boundary, time),
                VEv::CloudReply { edge } => self.finish_edge_round(edge, time),
                VEv::DupArrival { to } => {
                    let counters = match to {
                        ActorId::Worker(_) => &mut self.worker_faults,
                        ActorId::Edge(e) => &mut self.edges[e].faults,
                        ActorId::Cloud => &mut self.cloud_faults,
                    };
                    counters.duplicates_received += 1;
                }
            }
        }
        assert_eq!(
            self.edges_done,
            self.edges.len(),
            "event queue drained before every edge finished its rounds"
        );
    }

    fn finish(mut self) -> SimResult {
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
        // O(edges) actor accounting: the worker tier is virtual, so all
        // sampled slots report as one aggregate "workers" entry.
        let mut utilization = Vec::with_capacity(self.edges.len() + 2);
        let mut faults = Vec::with_capacity(self.edges.len() + 2);
        utilization.push(ActorUtilization {
            actor: "workers".to_string(),
            busy_seconds: self.workers_busy_ms / 1000.0,
            utilization: util(self.workers_busy_ms),
        });
        faults.push(ActorFaults {
            actor: "workers".to_string(),
            counters: self.worker_faults,
        });
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
        }
        utilization.push(ActorUtilization {
            actor: "cloud".to_string(),
            busy_seconds: self.cloud_busy_ms / 1000.0,
            utilization: util(self.cloud_busy_ms),
        });
        faults.push(ActorFaults {
            actor: "cloud".to_string(),
            counters: self.cloud_faults,
        });
        let adversaries: Vec<ActorAdversaries> = self
            .cfg
            .adversary
            .byzantine
            .iter()
            .zip(self.adversaries.iter())
            .map(|(b, c)| ActorAdversaries {
                actor: format!("worker-{}", b.worker),
                counters: *c,
            })
            .collect();
        SimResult {
            algorithm: self.strategy.name().to_string(),
            policy: self.sim.policy.label(),
            curve,
            timed_curve: timed,
            gamma_trace: self.gamma_trace,
            cos_trace: self.cos_trace,
            tier_gamma: self.tier_gamma,
            final_params: virtual_global_params(&self.fl),
            simulated_seconds: end_ms / 1000.0,
            utilization,
            faults,
            adversaries,
            events: self.events,
            topology: hieradmo_metrics::TopologyCounters::default(),
        }
    }
}

/// Runs `strategy` over a virtual population under the co-simulation: the
/// event-driven counterpart of [`hieradmo_core::run_virtual`] and
/// [`hieradmo_core::run_virtual_span`], with the same
/// sampled model trajectory bit for bit under [`SyncPolicy::FullSync`]
/// (gated by `tests/sampling_equivalence.rs`) and an honest virtual-time
/// axis on top.
///
/// Under full participation this materializes the population and
/// delegates to [`crate::simulate`] — `sim.env.worker_devices` must then
/// cover the whole materialized population. Under sampling, device
/// profiles act as a *pool*: registered worker `g` computes on profile
/// `g mod pool size`, so a small profile set describes any population.
///
/// Per round and edge, only the sampled cohort exists: the event queue
/// holds `O(cohort + edges)` events, registered-but-idle workers cost
/// nothing, and the actor tallies in the result are `O(edges)` (workers
/// report as one aggregate entry; `adversaries` carries one entry per
/// plan entry instead of one per registered worker).
///
/// Sampled runs compose with every [`SyncPolicy`] (stragglers are waived
/// per round and rejoin at the next materialization — see the module
/// docs), with N-tier trees (`sim.tiers`: middle tiers fire at the cloud
/// actor through `Strategy::tier_aggregate_stale` with per-subtree
/// staleness), with crash/spike fault plans (absence decided at
/// materialization from per-`(worker, round)` streams), with link faults
/// (the retry/duplicate protocol runs per transfer, drawing from the
/// occupying worker's round stream on the leaf hops and from per-edge
/// streams on the cloud hops — see the module docs), and with dropout
/// ([`cohort_dropout_mask`]).
///
/// Remaining sampled-path restrictions (validated):
/// [`Architecture::ThreeTier`] only, a non-empty device pool, and N-tier
/// trees need a uniform cohort size that matches the population's
/// registered shape.
///
/// # Errors
///
/// [`SimError`] on any inconsistency above, plus everything the
/// population/sampling validation in
/// [`hieradmo_core::population::run_virtual`] rejects.
pub fn simulate_virtual<M, S>(
    strategy: &S,
    model: &M,
    population: &WorkerPopulation,
    shards: &[Dataset],
    test_data: &Dataset,
    cfg: &RunConfig,
    sim: &SimConfig,
) -> Result<SimResult, SimError>
where
    M: Model + Clone + Send,
    S: Strategy + ?Sized,
{
    cfg.validate()
        .map_err(|m| SimError::Run(RunError::BadConfig(m)))?;
    if !cfg.churn.is_empty() {
        return Err(SimError::Run(RunError::BadConfig(
            "virtual-population runs keep a registered (frozen) tree; a \
             non-empty ChurnPlan only composes with the materialized engines"
                .into(),
        )));
    }
    population
        .validate_shards(shards)
        .map_err(|m| SimError::Run(RunError::Data(m)))?;
    if let Some(b) = cfg
        .adversary
        .byzantine
        .iter()
        .find(|b| b.worker as u64 >= population.total_workers())
    {
        return Err(SimError::Adversary(format!(
            "attack targets worker {} but the population registers only {} workers",
            b.worker,
            population.total_workers()
        )));
    }
    if cfg.sampling.is_full() {
        let hierarchy = population
            .materialize_hierarchy()
            .map_err(|m| SimError::Run(RunError::Data(m)))?;
        let worker_data = population.materialize_shards(shards);
        return crate::simulate(
            strategy,
            model,
            &hierarchy,
            &worker_data,
            test_data,
            cfg,
            sim,
        );
    }
    if sim.architecture != Architecture::ThreeTier {
        return Err(SimError::Net(
            "client sampling requires Architecture::ThreeTier".into(),
        ));
    }
    if sim.env.worker_devices.is_empty() {
        return Err(SimError::Net(
            "the device-profile pool must not be empty".into(),
        ));
    }
    sim.faults
        .validate_for_population(population.total_workers())
        .map_err(SimError::Fault)?;
    if let Some(tree) = &sim.tiers {
        population
            .check_tree(tree, cfg.tau, cfg.pi)
            .map_err(|m| SimError::Run(RunError::BadConfig(m)))?;
    }

    let cohort = population
        .cohort_sizes(&cfg.sampling)
        .map_err(|m| SimError::Run(RunError::BadConfig(m)))?;
    if sim.tiers.is_some() && cohort.windows(2).any(|w| w[0] != w[1]) {
        return Err(SimError::Run(RunError::BadConfig(
            "sampled tier trees need one uniform cohort size (the sampled \
             sub-tree must stay balanced); use ClientSampling::PerEdge"
                .into(),
        )));
    }
    sim.validate(cohort.iter().copied().min())
        .map_err(SimError::Policy)?;
    let hierarchy = Hierarchy::new(cohort.clone());
    strategy
        .check_topology(&hierarchy)
        .map_err(|m| SimError::Run(RunError::Topology(m)))?;

    let shard_sizes: Vec<u64> = shards.iter().map(|d| d.len() as u64).collect();
    let edge_totals = population.edge_data_samples(&shard_sizes);
    let total_slots = hierarchy.num_workers();
    let l_count = hierarchy.num_edges();
    let weights = Weights::from_cohort(&hierarchy, &vec![1u64; total_slots], edge_totals);
    let x0 = model.params();
    let mut fl = FlState::new(hierarchy.clone(), weights, &x0);
    fl.aggregator = cfg.aggregator;
    // The engine runs the *sampled* sub-tree.
    let cohort_tree = sim
        .tiers
        .as_ref()
        .map(|tree| tree.with_leaf_fanout(cohort[0]));
    if let Some(tree) = &cohort_tree {
        fl.attach_tree(tree.clone());
    }
    strategy.init(&mut fl);

    // Edges submit cloud-wards at every boundary where some tier above
    // them mutates state; identity middles are free, so a pure
    // pass-through tree keeps the three-tier submission cadence (and
    // every delay stream) untouched.
    let submit_period = sim.tiers.as_ref().map_or(cfg.pi, TierTree::submit_rounds);
    let sampler = match &sim.tiers {
        Some(tree) => CohortSampler::for_tree(cfg.seed, tree),
        None => CohortSampler::new(cfg.seed),
    };

    // Placeholder slot contexts; every field is rebuilt at each round's
    // materialization. Edge/cloud delay streams are drawn from dedicated
    // salted stream ids so they never depend on the population size.
    let slots: Vec<SlotCtx> = (0..total_slots)
        .map(|slot| SlotCtx {
            gid: 0,
            edge: (0..l_count)
                .find(|&e| hierarchy.edge_workers(e).contains(&slot))
                .expect("every slot belongs to an edge"),
            shard: 0,
            steps: 0,
            batcher: Batcher::new(1, 1, 0),
            delays: DelaySampler::from_stream(sim.net_seed, 0),
            fsampler: None,
            dropped: vec![false; cfg.tau],
            attack: None,
        })
        .collect();
    let edges: Vec<EdgeSim> = (0..l_count)
        .map(|e| {
            let c = hierarchy.workers_in_edge(e);
            EdgeSim {
                round: 0,
                fired: false,
                barrier: Barrier::new(c, 0),
                absent: vec![false; c],
                done: false,
                busy_ms: 0.0,
                sampler: DelaySampler::from_stream(sim.net_seed ^ SALT_EDGE_STREAM, e as u64),
                fsampler: sim.faults.link.is_some().then(|| {
                    FaultSampler::from_stream(sim.net_seed ^ SALT_EDGE_FAULT_STREAM, e as u64)
                }),
                faults: FaultCounters::default(),
            }
        })
        .collect();

    let threads = cfg.resolved_threads();
    let tier_gamma = vec![Vec::new(); fl.middle.len()];
    let mut engine = VEngine {
        strategy,
        cfg,
        sim,
        population,
        shards,
        shard_sizes,
        sampler,
        fl,
        slots,
        edges,
        cohort_tree,
        submit_period,
        faults_on: !sim.faults.is_empty(),
        cloud_firings: 0,
        cloud_barrier: Barrier::new(l_count, 0),
        cloud_busy_ms: 0.0,
        cloud_sampler: DelaySampler::from_stream(sim.net_seed ^ SALT_CLOUD_STREAM, 0),
        workers_busy_ms: 0.0,
        worker_faults: FaultCounters::default(),
        cloud_faults: FaultCounters::default(),
        permanent_counted: vec![false; sim.faults.permanent.len()],
        queue: EventQueue::new(),
        eval_stage: BTreeMap::new(),
        gamma_stage: BTreeMap::new(),
        gamma_trace: Vec::new(),
        cos_trace: Vec::new(),
        tier_gamma,
        evals: Vec::new(),
        step_model: model.clone(),
        eval_models: (0..threads).map(|_| model.clone()).collect(),
        test_data,
        train_probe: build_train_probe(shards, cfg.train_eval_cap),
        batch: Vec::new(),
        adversaries: vec![AdversaryCounters::default(); cfg.adversary.byzantine.len()],
        rounds: cfg.total_iters / cfg.tau,
        edges_done: 0,
        events: 0,
        now: 0.0,
    };
    engine.run();
    Ok(engine.finish())
}

/// Stream salts keeping the edge/cloud aggregator delay streams disjoint
/// from every per-(worker, round) stream whatever the population size.
const SALT_EDGE_STREAM: u64 = 0x6564_6765_5f76_706f;
const SALT_CLOUD_STREAM: u64 = 0x636c_6f75_645f_7670;
/// Fault-stream salt keeping the edges' retry/duplicate draws disjoint
/// from their delay streams and from every per-(worker, round) fault
/// stream.
const SALT_EDGE_FAULT_STREAM: u64 = 0x6661_756c_745f_7670;
