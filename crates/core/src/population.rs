//! Virtual worker populations: per-round client sampling over millions of
//! *registered* workers while only the sampled cohort ever materializes.
//!
//! The cross-device regime (Client-Edge-Cloud HFL, arxiv 1905.06641)
//! assumes each edge samples a small cohort of its registered clients per
//! round. This module makes that regime first-class without per-worker
//! allocation:
//!
//! - [`WorkerPopulation`] describes workers *intensionally* — per-edge
//!   counts plus a data-shard assignment rule — in `O(edges + shards)`
//!   memory, whatever the registered population size.
//! - [`CohortSampler`] draws each edge's per-round cohort without
//!   replacement from a seed that depends only on `(seed, edge, round)`.
//! - [`StatePool`] recycles [`WorkerState`] buffers; a materialized slot
//!   is *fully* overwritten from its edge's current state, so results are
//!   independent of pool-recycling order.
//! - Every per-worker RNG stream (mini-batch order, adversary draws,
//!   network delays) re-derives from `(seed, worker_id, round)` via
//!   [`worker_round_seed`], so trajectories are independent of population
//!   size, thread count, and scheduling.
//! - [`run_virtual`] threads a sampled cohort through the tick-driven
//!   engine; the event-driven counterpart lives in
//!   `hieradmo_simrt::simulate_virtual`. Under [`ClientSampling::Full`]
//!   (or a fraction ≥ 1) both *delegate* to the classic full-participation
//!   drivers, reproducing existing trajectories bitwise (gated by
//!   `tests/sampling_equivalence.rs`).
//!
//! Aggregation weights follow the partition-of-unity split of
//! [`Weights::from_cohort`]: within an edge, data shares renormalize over
//! the sampled cohort; across edges, shares keep the full registered
//! population's proportions.

use std::time::Instant;

use hieradmo_data::{Batcher, Dataset};
use hieradmo_metrics::{AdversaryCounters, ConvergenceCurve, EvalPoint};
use hieradmo_models::Model;
use hieradmo_netsim::adversary::AdversarySampler;
use hieradmo_netsim::stream_seed;
use hieradmo_tensor::Vector;
use hieradmo_topology::{Hierarchy, TierTree, Weights};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::byzantine::corrupt_upload;
use crate::checkpoint::TrainingSnapshot;
use crate::config::RunConfig;
use crate::driver::{
    build_train_probe, clipped_local_step, evaluate_on_replicas, run_span, RunError, RunResult,
};
use crate::state::{FlState, WorkerState};
use crate::strategy::{fire_middle_tiers, Strategy, TierScope};

/// Largest population the full-participation delegation path will
/// materialize (per-worker state and shard clones). Beyond this, ask for
/// sampling — that is the point of a virtual population.
pub const MATERIALIZE_CAP: u64 = 1 << 16;

/// Stream salts decorrelating the per-`(worker, round)` derivations from
/// each other and from every legacy stream.
const SALT_BATCH: u64 = 0x6261_7463_6865_7221;
const SALT_ADVERSARY: u64 = 0x6164_7665_7273_6172;
const SALT_NET: u64 = 0x6e65_745f_7374_7265;
const SALT_COHORT: u64 = 0x636f_686f_7274_2121;
const SALT_DROPOUT: u64 = 0x6472_6f70_6f75_7421;
const SALT_FAULT: u64 = 0x6661_756c_745f_7374;

/// Seed for a worker's per-round RNG stream: a function of `(master,
/// worker_id, round)` *only* — never of population size, cohort
/// composition, thread count, or pool-recycling order. Composes the
/// pinned [`stream_seed`] mixer twice.
pub fn worker_round_seed(master: u64, worker_id: u64, round: u64) -> u64 {
    stream_seed(stream_seed(master, worker_id), round)
}

/// Mini-batch stream seed of worker `worker_id` in round `round` (feeds
/// [`hieradmo_data::Batcher`]).
pub fn batcher_seed(master: u64, worker_id: u64, round: u64) -> u64 {
    worker_round_seed(master ^ SALT_BATCH, worker_id, round)
}

/// Adversary stream id of worker `worker_id` in round `round` (feeds
/// [`AdversarySampler::from_stream`] together with the training seed).
pub fn adversary_stream(worker_id: u64, round: u64) -> u64 {
    worker_round_seed(SALT_ADVERSARY, worker_id, round)
}

/// Network-delay stream id of worker `worker_id` in round `round` (feeds
/// `DelaySampler::from_stream` together with the network seed in the
/// event-driven engine).
pub fn delay_stream(worker_id: u64, round: u64) -> u64 {
    worker_round_seed(SALT_NET, worker_id, round)
}

/// Fault stream id of worker `worker_id` in round `round` (feeds
/// `FaultSampler::from_stream` together with the network seed in the
/// event-driven engine): sampled cohorts re-derive crash and spike draws
/// per `(worker, round)`, so fault trajectories are independent of cohort
/// composition, thread count, and scheduling.
pub fn fault_stream(worker_id: u64, round: u64) -> u64 {
    worker_round_seed(SALT_FAULT, worker_id, round)
}

/// Per-step dropout mask of worker `worker_id` in round `round`: `tau`
/// draws from a dedicated `(master, worker, round)` stream, `true` where
/// the step is dropped (skipped entirely: no mini-batch draw, no local
/// step, no compute time). Both virtual engines share this helper, so
/// sampled dropout runs stay bitwise identical across engines and thread
/// counts. A zero (or negative) `dropout` returns an all-false mask
/// without drawing.
pub fn cohort_dropout_mask(
    master: u64,
    worker_id: u64,
    round: u64,
    tau: usize,
    dropout: f64,
) -> Vec<bool> {
    if dropout <= 0.0 {
        return vec![false; tau];
    }
    let mut rng = StdRng::seed_from_u64(worker_round_seed(master ^ SALT_DROPOUT, worker_id, round));
    (0..tau)
        .map(|_| rng.gen_range(0.0..1.0) < dropout)
        .collect()
}

/// Per-round client sampling policy.
///
/// The default ([`ClientSampling::Full`]) is today's full participation:
/// every registered worker runs every round, and the virtual drivers
/// delegate to the classic engines bitwise.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum ClientSampling {
    /// Every registered worker participates every round.
    #[default]
    Full,
    /// Each edge samples `ceil(fraction · population)` of its registered
    /// workers per round (at least 1). `fraction` must be finite and in
    /// `(0, 1]`; a fraction of exactly 1 *is* full participation and
    /// delegates like [`ClientSampling::Full`].
    Fraction {
        /// Per-edge participating fraction in `(0, 1]`.
        fraction: f64,
    },
    /// Each edge samples exactly `count` of its registered workers per
    /// round. Must be ≥ 1 and at most the smallest per-edge population.
    PerEdge {
        /// Per-edge cohort size.
        count: usize,
    },
}

impl ClientSampling {
    /// Checks internal consistency: rejects a zero sample size and
    /// non-finite or out-of-`(0, 1]` fractions. (The per-edge population
    /// cross-check lives in [`WorkerPopulation::cohort_sizes`], which
    /// knows the counts.)
    ///
    /// # Errors
    ///
    /// Returns a human-readable message on the conditions above.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            ClientSampling::Full => Ok(()),
            ClientSampling::Fraction { fraction } => {
                if !fraction.is_finite() || fraction <= 0.0 || fraction > 1.0 {
                    return Err(format!(
                        "sampling fraction must be finite and in (0, 1], got {fraction}"
                    ));
                }
                Ok(())
            }
            ClientSampling::PerEdge { count } => {
                if count == 0 {
                    return Err("per-edge sample size must be at least 1".into());
                }
                Ok(())
            }
        }
    }

    /// `true` when this policy is full participation (and the virtual
    /// drivers delegate to the classic engines).
    pub fn is_full(&self) -> bool {
        match *self {
            ClientSampling::Full => true,
            ClientSampling::Fraction { fraction } => fraction >= 1.0,
            ClientSampling::PerEdge { .. } => false,
        }
    }
}

/// How registered workers map to data shards.
///
/// A million-worker run does not hold a million datasets; it holds a few
/// distinct shards and a *rule* assigning each registered worker one.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ShardAssignment {
    /// Global worker `g` holds shard `g mod num_shards`.
    RoundRobin {
        /// Number of distinct data shards.
        num_shards: usize,
    },
}

impl ShardAssignment {
    /// Number of distinct shards this rule addresses.
    pub fn num_shards(&self) -> usize {
        match *self {
            ShardAssignment::RoundRobin { num_shards } => num_shards,
        }
    }

    /// The shard index of global worker `g`.
    pub fn shard_of(&self, g: u64) -> usize {
        match *self {
            ShardAssignment::RoundRobin { num_shards } => (g % num_shards as u64) as usize,
        }
    }
}

/// An intensional description of the registered worker population: how
/// many workers each edge serves and which data shard each holds.
/// `O(edges)` memory regardless of the registered count — no per-worker
/// allocation happens until a worker is *sampled*.
///
/// Global worker ids are edge-major, exactly like [`Hierarchy`]'s flat
/// indexing: edge `e`'s workers are the contiguous id range
/// `[offsets[e], offsets[e+1])`. A tier-path or flat-index adversary/fault
/// plan built against the equivalent materialized hierarchy therefore
/// addresses the *same* workers by the same ids.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkerPopulation {
    per_edge: Vec<u64>,
    /// Prefix sums of `per_edge`; `offsets[e]` is edge `e`'s first global
    /// id, `offsets.last()` the total population.
    offsets: Vec<u64>,
    shards: ShardAssignment,
}

impl WorkerPopulation {
    /// Builds a population from per-edge registered counts and a shard
    /// assignment rule.
    ///
    /// # Errors
    ///
    /// Rejects an empty edge list, a zero-worker edge, a zero-shard rule,
    /// or a total that overflows `u64`.
    pub fn new(per_edge: Vec<u64>, shards: ShardAssignment) -> Result<Self, String> {
        if per_edge.is_empty() {
            return Err("population needs at least one edge".into());
        }
        if let Some(e) = per_edge.iter().position(|&n| n == 0) {
            return Err(format!("edge {e} has zero registered workers"));
        }
        if shards.num_shards() == 0 {
            return Err("shard assignment needs at least one shard".into());
        }
        let mut offsets = Vec::with_capacity(per_edge.len() + 1);
        let mut total: u64 = 0;
        offsets.push(0);
        for &n in &per_edge {
            total = total
                .checked_add(n)
                .ok_or_else(|| "population size overflows u64".to_string())?;
            offsets.push(total);
        }
        Ok(WorkerPopulation {
            per_edge,
            offsets,
            shards,
        })
    }

    /// A balanced population: `edges` edges of `per_edge` workers each,
    /// shards assigned round-robin over `num_shards` shards.
    ///
    /// # Errors
    ///
    /// The [`WorkerPopulation::new`] conditions.
    pub fn uniform(edges: usize, per_edge: u64, num_shards: usize) -> Result<Self, String> {
        Self::new(
            vec![per_edge; edges],
            ShardAssignment::RoundRobin { num_shards },
        )
    }

    /// The population whose edges are a [`Hierarchy`]'s edges — same
    /// worker counts, same edge-major flat ids — so flat-index adversary
    /// and fault plans address identical workers in both worlds.
    ///
    /// # Errors
    ///
    /// The [`WorkerPopulation::new`] conditions.
    pub fn from_hierarchy(hierarchy: &Hierarchy, num_shards: usize) -> Result<Self, String> {
        Self::new(
            (0..hierarchy.num_edges())
                .map(|e| hierarchy.edge_workers(e).len() as u64)
                .collect(),
            ShardAssignment::RoundRobin { num_shards },
        )
    }

    /// The population spanned by a depth-3 [`TierTree`]'s leaf tier (the
    /// tree shape tier-path plans — `AdversaryPlan::uniform_at_paths`,
    /// `PermanentCrash::at_path` — are written against).
    ///
    /// # Errors
    ///
    /// The [`WorkerPopulation::new`] conditions.
    pub fn from_tier_tree(tree: &TierTree, num_shards: usize) -> Result<Self, String> {
        Self::from_hierarchy(&tree.edge_hierarchy(), num_shards)
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.per_edge.len()
    }

    /// Total registered workers across all edges.
    pub fn total_workers(&self) -> u64 {
        *self.offsets.last().expect("offsets is never empty")
    }

    /// Registered workers under edge `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    pub fn workers_in_edge(&self, e: usize) -> u64 {
        self.per_edge[e]
    }

    /// Global id of edge `e`'s `local`-th worker.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range or `local` exceeds the edge's count.
    pub fn global_id(&self, e: usize, local: u64) -> u64 {
        assert!(local < self.per_edge[e], "local id out of range");
        self.offsets[e] + local
    }

    /// The edge serving global worker `g`.
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range.
    pub fn edge_of(&self, g: u64) -> usize {
        assert!(g < self.total_workers(), "global id out of range");
        self.offsets.partition_point(|&o| o <= g) - 1
    }

    /// The data shard held by global worker `g`.
    pub fn shard_of(&self, g: u64) -> usize {
        self.shards.shard_of(g)
    }

    /// The shard assignment rule.
    pub fn shard_assignment(&self) -> ShardAssignment {
        self.shards
    }

    /// Per-edge cohort sizes under `sampling`.
    ///
    /// # Errors
    ///
    /// Rejects a [`ClientSampling`] that fails its own validation, and a
    /// per-edge sample size exceeding that edge's registered population.
    pub fn cohort_sizes(&self, sampling: &ClientSampling) -> Result<Vec<usize>, String> {
        sampling.validate()?;
        self.per_edge
            .iter()
            .enumerate()
            .map(|(e, &n)| {
                let k = match *sampling {
                    ClientSampling::Full => n,
                    ClientSampling::Fraction { fraction } => {
                        ((fraction * n as f64).ceil() as u64).clamp(1, n)
                    }
                    ClientSampling::PerEdge { count } => {
                        if count as u64 > n {
                            return Err(format!(
                                "sample size {count} exceeds edge {e}'s registered \
                                 population of {n}"
                            ));
                        }
                        count as u64
                    }
                };
                usize::try_from(k).map_err(|_| format!("cohort size {k} does not fit usize"))
            })
            .collect()
    }

    /// Total data samples registered under each edge, in closed form from
    /// the shard sizes: round-robin assignment sums complete shard cycles
    /// plus a remainder per residue class, `O(edges · shards)` total.
    ///
    /// # Panics
    ///
    /// Panics if `shard_sizes` disagrees with the assignment rule.
    pub fn edge_data_samples(&self, shard_sizes: &[u64]) -> Vec<u64> {
        assert_eq!(
            shard_sizes.len(),
            self.shards.num_shards(),
            "need one size per shard"
        );
        let m = shard_sizes.len() as u64;
        // Workers `g` in `[0, x)` with `g ≡ s (mod m)`.
        let count_upto = |x: u64, s: u64| if x > s { (x - s - 1) / m + 1 } else { 0 };
        (0..self.per_edge.len())
            .map(|e| {
                let (a, b) = (self.offsets[e], self.offsets[e + 1]);
                shard_sizes
                    .iter()
                    .enumerate()
                    .map(|(s, &len)| (count_upto(b, s as u64) - count_upto(a, s as u64)) * len)
                    .sum()
            })
            .collect()
    }

    /// Checks a tier tree laid over this population: it must span the
    /// population's edges, its leaf fanout must equal every edge's
    /// *registered* count, and its `(τ, π)` must match the run's.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the first disagreement.
    pub fn check_tree(&self, tree: &TierTree, tau: usize, pi: usize) -> Result<(), String> {
        if tree.num_edges() != self.num_edges() {
            return Err(format!(
                "tier tree spans {} edges, the population registers {}",
                tree.num_edges(),
                self.num_edges()
            ));
        }
        let leaf = tree.levels().last().expect("trees have levels").fanout as u64;
        if let Some(e) = (0..self.num_edges()).find(|&e| self.workers_in_edge(e) != leaf) {
            return Err(format!(
                "tier tree registers {leaf} workers per edge, edge {e} registers {}",
                self.workers_in_edge(e)
            ));
        }
        tree.check_periods(tau, pi)
    }

    /// The materialized [`Hierarchy`] equivalent to this population — the
    /// full-participation delegation path.
    ///
    /// # Errors
    ///
    /// Rejects populations past [`MATERIALIZE_CAP`]: materializing them is
    /// exactly what a virtual population avoids; sample instead.
    pub fn materialize_hierarchy(&self) -> Result<Hierarchy, String> {
        if self.total_workers() > MATERIALIZE_CAP {
            return Err(format!(
                "refusing to materialize {} workers (cap {MATERIALIZE_CAP}); \
                 use client sampling for populations this large",
                self.total_workers()
            ));
        }
        Ok(Hierarchy::new(
            self.per_edge.iter().map(|&n| n as usize).collect(),
        ))
    }

    /// One dataset per registered worker (each a clone of its assigned
    /// shard), for the full-participation delegation path. Call only after
    /// [`WorkerPopulation::materialize_hierarchy`] has accepted the size.
    pub fn materialize_shards(&self, shards: &[Dataset]) -> Vec<Dataset> {
        (0..self.total_workers())
            .map(|g| shards[self.shard_of(g)].clone())
            .collect()
    }

    /// Checks `shards` against the assignment rule: one non-empty dataset
    /// per shard.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message on count mismatch or empty shards.
    pub fn validate_shards(&self, shards: &[Dataset]) -> Result<(), String> {
        if shards.len() != self.shards.num_shards() {
            return Err(format!(
                "{} shard datasets for a {}-shard assignment",
                shards.len(),
                self.shards.num_shards()
            ));
        }
        if let Some(s) = shards.iter().position(Dataset::is_empty) {
            return Err(format!("shard {s} has no data"));
        }
        Ok(())
    }
}

/// Seeded deterministic per-round cohort sampling: edge `e`'s round-`k`
/// cohort is a uniform without-replacement draw whose RNG seed depends
/// only on `(seed, e's tier path, k)` — never on other edges, earlier
/// rounds, thread count, or population bookkeeping.
///
/// The per-edge stream base folds [`stream_seed`] over the edge's
/// root-to-edge path in the *collapsed* tree
/// ([`TierTree::collapse`] · [`TierTree::edge_path`]), so extending a
/// tree by a pass-through tier cannot move any cohort: the collapsed
/// path — and with it every sampled trajectory — is unchanged (pinned by
/// `tests/sampling_equivalence.rs`). On a depth-3 tree the collapsed
/// path is the single component `[e]`, which makes [`CohortSampler::new`]
/// (the flat, tree-less constructor) and `for_tree` on any depth-3 or
/// pass-through-extended tree draw identical cohorts.
#[derive(Debug, Clone)]
pub struct CohortSampler {
    seed: u64,
    /// Per-edge stream bases (path-folded); `None` means flat edge
    /// indexing, which is defined as the depth-3 path `[edge]`.
    bases: Option<Vec<u64>>,
}

impl CohortSampler {
    /// A sampler over the master training seed, addressing edges by flat
    /// index (the depth-3 shape).
    pub fn new(seed: u64) -> Self {
        CohortSampler { seed, bases: None }
    }

    /// A sampler whose streams derive from each edge's full tier path in
    /// `tree` (after collapsing pass-through tiers), so cohorts are
    /// stable under pass-through extension and distinct across sibling
    /// subtrees at every depth.
    pub fn for_tree(seed: u64, tree: &TierTree) -> Self {
        let collapsed = tree.collapse();
        let bases = (0..collapsed.num_edges())
            .map(|e| {
                collapsed
                    .edge_path(e)
                    .iter()
                    .fold(seed ^ SALT_COHORT, |acc, &c| stream_seed(acc, c as u64))
            })
            .collect();
        CohortSampler {
            seed,
            bases: Some(bases),
        }
    }

    /// Draws edge `edge`'s round-`round` cohort: `k` distinct local ids in
    /// `[0, population)`, ascending. Floyd's algorithm — `O(k log k)` time
    /// and `O(k)` memory however large the population.
    ///
    /// # Panics
    ///
    /// Panics if `k` is 0, exceeds `population`, or `edge` is outside a
    /// tree-derived sampler's edge tier.
    pub fn cohort(&self, edge: usize, round: usize, population: u64, k: usize) -> Vec<u64> {
        assert!(k > 0, "cohort must be non-empty");
        assert!(k as u64 <= population, "cohort exceeds population");
        if k as u64 == population {
            return (0..population).collect();
        }
        let base = match &self.bases {
            Some(bases) => bases[edge],
            None => stream_seed(self.seed ^ SALT_COHORT, edge as u64),
        };
        let mut rng = StdRng::seed_from_u64(stream_seed(base, round as u64));
        let mut chosen = std::collections::BTreeSet::new();
        for j in (population - k as u64)..population {
            let t = rng.gen_range(0..=j);
            if !chosen.insert(t) {
                chosen.insert(j);
            }
        }
        chosen.into_iter().collect()
    }
}

/// A recycling pool of [`WorkerState`] buffers for engines whose active
/// set changes across rounds. Materialization *fully overwrites* every
/// field of a slot, so which recycled buffer a worker lands in — and what
/// it previously held — cannot affect results (pinned by unit test).
#[derive(Debug, Default)]
pub struct StatePool {
    free: Vec<WorkerState>,
}

impl StatePool {
    /// An empty pool.
    pub fn new() -> Self {
        StatePool::default()
    }

    /// Number of idle recycled buffers.
    pub fn idle(&self) -> usize {
        self.free.len()
    }

    /// Materializes a sampled worker into `slot`: the fresh-download state
    /// of a worker joining its edge — model `x` from the edge's `x_plus`,
    /// lookahead `y` from the edge's `y_minus`, zero velocity and
    /// accumulators. Every field is overwritten; nothing of the slot's
    /// previous occupant survives.
    pub fn materialize(slot: &mut WorkerState, x: &Vector, y: &Vector) {
        slot.x.copy_from(x);
        slot.y.copy_from(y);
        slot.v.fill(0.0);
        slot.grad_accum.fill(0.0);
        slot.y_accum.fill(0.0);
        slot.v_accum.fill(0.0);
        slot.steps = 0;
        slot.scratch.fill(0.0);
    }

    /// Acquires a materialized state (recycling an idle buffer of the
    /// right dimension if one exists, else allocating).
    pub fn acquire(&mut self, x: &Vector, y: &Vector) -> WorkerState {
        let mut slot = match self.free.pop() {
            Some(s) if s.x.len() == x.len() => s,
            _ => WorkerState::new(x),
        };
        Self::materialize(&mut slot, x, y);
        slot
    }

    /// Returns a state's buffers to the pool for recycling.
    pub fn release(&mut self, slot: WorkerState) {
        self.free.push(slot);
    }
}

/// Data-weighted average of per-edge vectors under the cross-edge
/// population shares — the virtual engines' global model (equal to the
/// post-redistribution worker average, since every cohort worker holds its
/// edge's model after aggregation). One implementation shared by both
/// engines so evaluations stay bitwise comparable.
pub fn weighted_edge_average<'a, I>(weights: &Weights, xs: I) -> Vector
where
    I: IntoIterator<Item = &'a Vector>,
{
    Vector::weighted_average(
        xs.into_iter()
            .enumerate()
            .map(|(e, x)| (weights.edge_in_total(e), x)),
    )
}

/// The virtual engines' global model: the population-weighted average of
/// the edges' current models.
pub fn virtual_global_params(fl: &FlState) -> Vector {
    weighted_edge_average(&fl.weights, fl.edges.iter().map(|e| &e.x_plus))
}

/// Materializes edge `edge`'s round-`round` cohort in place: samples the
/// cohort, swaps the edge's in-cohort data weights, and downloads the
/// edge's current state into each cohort slot (model from `x_plus`,
/// lookahead from `y_minus`, zero velocity/accumulators — exactly the
/// state a full-participation worker holds right after any aggregation).
/// Returns the sampled global ids, ascending.
///
/// Touches only edge-local state, so both engines call it at their own
/// per-edge round boundaries and stay bitwise identical.
pub fn materialize_edge_cohort(
    fl: &mut FlState,
    population: &WorkerPopulation,
    shard_sizes: &[u64],
    sampler: &CohortSampler,
    edge: usize,
    round: usize,
) -> Vec<u64> {
    let slots = fl.hierarchy.edge_workers(edge);
    let ids: Vec<u64> = sampler
        .cohort(edge, round, population.workers_in_edge(edge), slots.len())
        .into_iter()
        .map(|local| population.global_id(edge, local))
        .collect();
    let counts: Vec<u64> = ids
        .iter()
        .map(|&g| shard_sizes[population.shard_of(g)])
        .collect();
    fl.weights.set_edge_cohort(edge, &counts);
    let edge_state = &fl.edges[edge];
    for slot in slots {
        StatePool::materialize(
            &mut fl.workers[slot],
            &edge_state.x_plus,
            &edge_state.y_minus,
        );
    }
    ids
}

/// Runs `strategy` over a virtual population with per-round client
/// sampling — the tick-driven engine's cross-device mode.
///
/// Under full participation ([`ClientSampling::is_full`]) this
/// materializes the population and delegates to [`crate::run`],
/// reproducing the classic trajectory bitwise. Otherwise each round `k` (of
/// `T / τ`): every edge samples a cohort ([`CohortSampler`]), the cohort
/// materializes from its edge's state, runs `τ` local steps on per-round
/// RNG streams, Byzantine members poison their uploads, and the edge
/// aggregates the cohort with in-cohort renormalized weights; the cloud
/// fires every `π` rounds over population-weighted edge shares.
///
/// Evaluation happens at round boundaries where `k·τ` is a multiple of
/// `eval_every` (and always at the final round), on the
/// population-weighted edge average ([`virtual_global_params`]).
///
/// Results are bitwise identical across thread counts, and bitwise equal
/// to the event-driven `hieradmo_simrt::simulate_virtual` under full sync
/// (both gated by `tests/sampling_equivalence.rs`).
///
/// Restriction of the sampled path (documented, validated): `adversary`
/// plans must address workers by *global* (population) ids. Dropout
/// composes with sampling:
/// each cohort worker draws a per-step mask from its own
/// `(seed, worker, round)` stream ([`cohort_dropout_mask`]) and skips
/// dropped steps entirely.
///
/// # Errors
///
/// Everything [`crate::run`] rejects, plus the population/sampling/shard
/// consistency checks above.
pub fn run_virtual<M, S>(
    strategy: &S,
    model: &M,
    population: &WorkerPopulation,
    shards: &[Dataset],
    test_data: &Dataset,
    cfg: &RunConfig,
) -> Result<RunResult, RunError>
where
    M: Model + Clone + Send,
    S: Strategy + ?Sized,
{
    run_virtual_span(
        strategy, model, population, shards, test_data, cfg, None, None, None,
    )
    .map(|(result, _)| result)
}

/// [`run_virtual`] with an optional N-tier tree, resume point and stop
/// point: the one entry point behind every span of a tick-driven
/// virtual-population run.
///
/// - `tree` lays the population over an arbitrary-depth [`TierTree`]:
///   each edge samples its per-round cohort by tier path
///   ([`CohortSampler::for_tree`]) and middle tiers fire bottom-up at
///   their interval boundaries through [`Strategy::tier_aggregate`],
///   between the edge and root aggregations. The tree's leaf fanout must
///   equal every edge's *registered* count (the tree describes the
///   registered population; the engine runs its sampled sub-tree, whose
///   leaf fanout is the cohort size).
/// - `stop_at` stops after that tick (a positive multiple of `τ` no larger
///   than `T`) and returns the federation state there alongside the
///   partial result; `resume` continues from such a snapshot, bitwise
///   identically to the uninterrupted run at any thread count. Cohort
///   workers re-materialize from their edge at every round start, so a
///   sampled snapshot needs no RNG replay: every per-worker stream
///   re-derives from `(seed, worker, round)`.
///
/// Under full participation this materializes the population and runs
/// [`crate::run_span`] with the same tree, resume and stop point,
/// reproducing the classic trajectory bitwise at every depth.
///
/// # Errors
///
/// Everything [`run_virtual`] rejects, plus a tree whose shape or
/// `(τ, π)` disagree with the population/config, non-uniform cohort sizes
/// under a tree (middle tiers need a balanced sampled sub-tree), an
/// invalid `stop_at`, and a snapshot whose algorithm, tick or shapes do
/// not match this run.
#[allow(clippy::too_many_arguments)]
pub fn run_virtual_span<M, S>(
    strategy: &S,
    model: &M,
    population: &WorkerPopulation,
    shards: &[Dataset],
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
    cfg.validate().map_err(RunError::BadConfig)?;
    if !cfg.churn.is_empty() {
        return Err(RunError::BadConfig(
            "virtual-population runs keep a registered (frozen) tree; a \
             non-empty ChurnPlan only composes with the materialized engines"
                .into(),
        ));
    }
    population.validate_shards(shards).map_err(RunError::Data)?;
    if let Some(b) = cfg
        .adversary
        .byzantine
        .iter()
        .find(|b| b.worker as u64 >= population.total_workers())
    {
        return Err(RunError::BadConfig(format!(
            "adversary plan marks worker {} Byzantine, but the population \
             registers only {} workers",
            b.worker,
            population.total_workers()
        )));
    }
    if let Some(tree) = tiers {
        population
            .check_tree(tree, cfg.tau, cfg.pi)
            .map_err(RunError::BadConfig)?;
    }
    if cfg.sampling.is_full() {
        let hierarchy = population.materialize_hierarchy().map_err(RunError::Data)?;
        let worker_data = population.materialize_shards(shards);
        return run_span(
            strategy,
            model,
            &hierarchy,
            &worker_data,
            test_data,
            cfg,
            tiers,
            resume,
            stop_at,
        );
    }

    let cohort = population
        .cohort_sizes(&cfg.sampling)
        .map_err(RunError::BadConfig)?;
    if tiers.is_some() && cohort.windows(2).any(|w| w[0] != w[1]) {
        return Err(RunError::BadConfig(
            "sampled tier trees need one uniform cohort size (the sampled \
             sub-tree must stay balanced); use ClientSampling::PerEdge"
                .into(),
        ));
    }
    let hierarchy = Hierarchy::new(cohort.clone());
    strategy
        .check_topology(&hierarchy)
        .map_err(RunError::Topology)?;
    // The engine runs the *sampled* sub-tree.
    let cohort_tree = tiers.map(|tree| tree.with_leaf_fanout(cohort[0]));

    let started = Instant::now();
    let shard_sizes: Vec<u64> = shards.iter().map(|d| d.len() as u64).collect();
    let edge_totals = population.edge_data_samples(&shard_sizes);
    let total_slots = hierarchy.num_workers();
    let weights = Weights::from_cohort(&hierarchy, &vec![1u64; total_slots], edge_totals);
    let mut fl = FlState::new(hierarchy.clone(), weights, &model.params());
    fl.aggregator = cfg.aggregator;
    if let Some(tree) = &cohort_tree {
        fl.attach_tree(tree.clone());
    }
    strategy.init(&mut fl);
    // All trajectory state lives in the edge/cloud/middle tiers: cohort
    // workers re-materialize from their edge at every round start, so
    // restoring those tiers restores everything.
    let start =
        TrainingSnapshot::open_span(resume, stop_at, strategy.name(), cfg, &mut fl)? / cfg.tau;

    let sampler = match tiers {
        Some(tree) => CohortSampler::for_tree(cfg.seed, tree),
        None => CohortSampler::new(cfg.seed),
    };
    let train_probe = build_train_probe(shards, cfg.train_eval_cap);
    let threads = cfg.resolved_threads();
    let mut eval_models: Vec<M> = (0..threads).map(|_| model.clone()).collect();
    let mut step_models: Vec<M> = (0..threads).map(|_| model.clone()).collect();

    let mut curve = ConvergenceCurve::new();
    let mut gamma_trace = Vec::new();
    let mut cos_trace = Vec::new();
    let mut tier_gamma: Vec<Vec<(usize, f32)>> = vec![Vec::new(); fl.middle.len()];
    let mut timings = crate::driver::PhaseTimings::default();
    let mut adversary_counters = vec![AdversaryCounters::default(); cfg.adversary.byzantine.len()];

    // Per-slot round-scoped context, rebuilt from `(seed, worker, round)`
    // every round.
    let mut slot_gids: Vec<u64> = vec![0; total_slots];
    let mut slot_shards: Vec<usize> = vec![0; total_slots];
    let mut batchers: Vec<Batcher> = Vec::with_capacity(total_slots);

    let rounds = cfg.total_iters / cfg.tau;
    for k in (start + 1)..=rounds {
        // 1. Sample and materialize every edge's cohort.
        let t0 = Instant::now();
        batchers.clear();
        for e in 0..fl.hierarchy.num_edges() {
            let ids = materialize_edge_cohort(&mut fl, population, &shard_sizes, &sampler, e, k);
            let offset = fl.hierarchy.edge_workers(e).start;
            for (j, &g) in ids.iter().enumerate() {
                slot_gids[offset + j] = g;
                slot_shards[offset + j] = population.shard_of(g);
            }
        }
        for slot in 0..total_slots {
            batchers.push(Batcher::new(
                shard_sizes[slot_shards[slot]] as usize,
                cfg.batch_size,
                batcher_seed(cfg.seed, slot_gids[slot], k as u64),
            ));
        }

        // 2. τ local steps per cohort worker. Slots are independent — no
        //    cross-worker interaction inside an interval — so contiguous
        //    slot chunks run on scoped threads with identical results for
        //    every thread count.
        let t_base = (k - 1) * cfg.tau;
        let per = total_slots.div_ceil(threads);
        let clip = cfg.clip_norm;
        let tau = cfg.tau;
        let dropout = cfg.dropout;
        let seed = cfg.seed;
        std::thread::scope(|scope| {
            let worker_chunks = fl.workers.chunks_mut(per);
            let batcher_chunks = batchers.chunks_mut(per);
            let shard_chunks = slot_shards.chunks(per);
            let gid_chunks = slot_gids.chunks(per);
            let handles: Vec<_> = worker_chunks
                .zip(batcher_chunks)
                .zip(shard_chunks)
                .zip(gid_chunks)
                .zip(step_models.iter_mut())
                .map(|((((ws, bs), ss), gs), model)| {
                    scope.spawn(move || {
                        let mut batch: Vec<usize> = Vec::new();
                        for (((w, b), &s), &g) in ws
                            .iter_mut()
                            .zip(bs.iter_mut())
                            .zip(ss.iter())
                            .zip(gs.iter())
                        {
                            let data = &shards[s];
                            // A dropped step is skipped entirely — no
                            // mini-batch draw, no local step — from the
                            // worker's own (seed, worker, round) stream.
                            let dropped = cohort_dropout_mask(seed, g, k as u64, tau, dropout);
                            for step in 1..=tau {
                                if dropped[step - 1] {
                                    continue;
                                }
                                b.next_batch_into(&mut batch);
                                clipped_local_step(
                                    strategy,
                                    t_base + step,
                                    w,
                                    model,
                                    data,
                                    &batch,
                                    clip,
                                );
                            }
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().expect("step thread panicked");
            }
        });
        timings.local_steps += t0.elapsed();

        // 3. Byzantine cohort members poison their uploads, in flat slot
        //    order, each from its own (seed, worker, round) stream.
        let t0 = Instant::now();
        for (slot, &g) in slot_gids.iter().enumerate() {
            if let Some(attack) = cfg.adversary.attack_for(g as usize) {
                let entry = cfg
                    .adversary
                    .byzantine
                    .iter()
                    .position(|b| b.worker as u64 == g)
                    .expect("attack_for hit implies a plan entry");
                let mut adv_sampler =
                    AdversarySampler::from_stream(cfg.seed, adversary_stream(g, k as u64));
                corrupt_upload(
                    &mut fl.workers[slot],
                    &attack,
                    &mut adv_sampler,
                    &mut adversary_counters[entry],
                );
            }
        }

        // 4. Edge aggregation over the cohort (serial, edge order — the
        //    hooks are cheap relative to τ local steps).
        for e in 0..fl.hierarchy.num_edges() {
            strategy.edge_aggregate(k, &mut fl.edge_view(e));
        }
        let n_edges = fl.edges.len() as f32;
        gamma_trace.push((
            k,
            fl.edges.iter().map(|e| e.gamma_edge).sum::<f32>() / n_edges,
        ));
        cos_trace.push((
            k,
            fl.edges.iter().map(|e| e.cos_theta).sum::<f32>() / n_edges,
        ));
        timings.edge_agg += t0.elapsed();

        // 5. Middle tiers fire bottom-up whenever the edge round count
        //    divides their synchronization period — serially and without
        //    RNG, mirroring the full-participation tick engine, so
        //    pass-through tiers cannot perturb any stream.
        if let Some(tree) = &cohort_tree {
            let t0 = Instant::now();
            fire_middle_tiers(strategy, &mut fl, tree, k, None, &mut tier_gamma);
            timings.cloud_agg += t0.elapsed();
        }

        // 6. Cloud aggregation every π rounds.
        if k % cfg.pi == 0 {
            let t0 = Instant::now();
            if cohort_tree.is_some() {
                strategy.tier_aggregate(TierScope::Root(&mut fl), k / cfg.pi);
            } else {
                strategy.cloud_aggregate(k / cfg.pi, &mut fl);
            }
            timings.cloud_agg += t0.elapsed();
        }

        // 7. Evaluation at matching round boundaries and at the end.
        if (k * cfg.tau).is_multiple_of(cfg.eval_every) || k == rounds {
            let t0 = Instant::now();
            let params = virtual_global_params(&fl);
            let (test_eval, train_eval) =
                evaluate_on_replicas(&mut eval_models, test_data, &train_probe, &params);
            curve.push(EvalPoint {
                iteration: k * cfg.tau,
                train_loss: train_eval.loss,
                test_loss: test_eval.loss,
                test_accuracy: test_eval.accuracy,
            });
            timings.eval += t0.elapsed();
        }

        if stop_at == Some(k * cfg.tau) {
            break;
        }
    }

    let final_params = virtual_global_params(&fl);
    let snapshot = stop_at.map(|stop| TrainingSnapshot {
        algorithm: strategy.name().to_string(),
        tick: stop,
        workers: fl.workers.clone(),
        edges: fl.edges.clone(),
        cloud: fl.cloud.clone(),
        middle: fl.middle.clone(),
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
            topology: hieradmo_metrics::TopologyCounters::default(),
        },
        snapshot,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_validation_rejects_bad_policies() {
        assert!(ClientSampling::Full.validate().is_ok());
        assert!(ClientSampling::Fraction { fraction: 0.5 }
            .validate()
            .is_ok());
        assert!(ClientSampling::Fraction { fraction: 1.0 }
            .validate()
            .is_ok());
        assert!(ClientSampling::Fraction { fraction: 0.0 }
            .validate()
            .is_err());
        assert!(ClientSampling::Fraction { fraction: -0.1 }
            .validate()
            .is_err());
        assert!(ClientSampling::Fraction { fraction: 1.5 }
            .validate()
            .is_err());
        assert!(ClientSampling::Fraction { fraction: f64::NAN }
            .validate()
            .is_err());
        assert!(ClientSampling::Fraction {
            fraction: f64::INFINITY
        }
        .validate()
        .is_err());
        assert!(ClientSampling::PerEdge { count: 0 }.validate().is_err());
        assert!(ClientSampling::PerEdge { count: 3 }.validate().is_ok());
    }

    #[test]
    fn full_and_fraction_one_are_full_participation() {
        assert!(ClientSampling::Full.is_full());
        assert!(ClientSampling::Fraction { fraction: 1.0 }.is_full());
        assert!(!ClientSampling::Fraction { fraction: 0.99 }.is_full());
        assert!(!ClientSampling::PerEdge { count: 1 }.is_full());
    }

    #[test]
    fn population_indexing_round_trips() {
        let p = WorkerPopulation::new(vec![3, 5, 2], ShardAssignment::RoundRobin { num_shards: 4 })
            .unwrap();
        assert_eq!(p.num_edges(), 3);
        assert_eq!(p.total_workers(), 10);
        assert_eq!(p.workers_in_edge(1), 5);
        for e in 0..3 {
            for local in 0..p.workers_in_edge(e) {
                let g = p.global_id(e, local);
                assert_eq!(p.edge_of(g), e);
            }
        }
        assert_eq!(p.shard_of(0), 0);
        assert_eq!(p.shard_of(7), 3);
        assert_eq!(p.shard_of(9), 1);
    }

    #[test]
    fn population_rejects_degenerate_shapes() {
        assert!(
            WorkerPopulation::new(vec![], ShardAssignment::RoundRobin { num_shards: 1 }).is_err()
        );
        assert!(
            WorkerPopulation::new(vec![3, 0], ShardAssignment::RoundRobin { num_shards: 1 })
                .is_err()
        );
        assert!(
            WorkerPopulation::new(vec![3], ShardAssignment::RoundRobin { num_shards: 0 }).is_err()
        );
        assert!(WorkerPopulation::new(
            vec![u64::MAX, 2],
            ShardAssignment::RoundRobin { num_shards: 1 }
        )
        .is_err());
    }

    #[test]
    fn cohort_sizes_cover_every_policy() {
        let p = WorkerPopulation::uniform(2, 10, 2).unwrap();
        assert_eq!(p.cohort_sizes(&ClientSampling::Full).unwrap(), vec![10, 10]);
        assert_eq!(
            p.cohort_sizes(&ClientSampling::Fraction { fraction: 0.25 })
                .unwrap(),
            vec![3, 3]
        );
        assert_eq!(
            p.cohort_sizes(&ClientSampling::Fraction { fraction: 1e-9 })
                .unwrap(),
            vec![1, 1],
            "tiny fractions sample at least one worker"
        );
        assert_eq!(
            p.cohort_sizes(&ClientSampling::PerEdge { count: 4 })
                .unwrap(),
            vec![4, 4]
        );
        let err = p
            .cohort_sizes(&ClientSampling::PerEdge { count: 11 })
            .unwrap_err();
        assert!(err.contains("exceeds"), "{err}");
        assert!(p
            .cohort_sizes(&ClientSampling::PerEdge { count: 0 })
            .is_err());
        assert!(p
            .cohort_sizes(&ClientSampling::Fraction { fraction: f64::NAN })
            .is_err());
    }

    #[test]
    fn edge_data_samples_match_brute_force() {
        let shard_sizes = [7u64, 3, 11, 5];
        let p = WorkerPopulation::new(
            vec![5, 13, 1, 6],
            ShardAssignment::RoundRobin { num_shards: 4 },
        )
        .unwrap();
        let closed = p.edge_data_samples(&shard_sizes);
        let brute: Vec<u64> = (0..4)
            .map(|e| {
                (0..p.workers_in_edge(e))
                    .map(|l| shard_sizes[p.shard_of(p.global_id(e, l))])
                    .sum()
            })
            .collect();
        assert_eq!(closed, brute);
    }

    #[test]
    fn cohorts_are_sorted_unique_deterministic_and_in_range() {
        let s = CohortSampler::new(42);
        for round in 1..5 {
            let c = s.cohort(3, round, 1_000_000, 64);
            assert_eq!(c.len(), 64);
            assert!(c.windows(2).all(|w| w[0] < w[1]), "sorted and unique");
            assert!(c.iter().all(|&g| g < 1_000_000));
            assert_eq!(c, s.cohort(3, round, 1_000_000, 64), "deterministic");
        }
        // Distinct rounds and edges draw different cohorts.
        assert_ne!(s.cohort(3, 1, 1_000_000, 64), s.cohort(3, 2, 1_000_000, 64));
        assert_ne!(s.cohort(3, 1, 1_000_000, 64), s.cohort(4, 1, 1_000_000, 64));
        // Distinct seeds too.
        assert_ne!(
            s.cohort(3, 1, 1_000_000, 64),
            CohortSampler::new(43).cohort(3, 1, 1_000_000, 64)
        );
        // k == population is the identity cohort.
        assert_eq!(s.cohort(0, 1, 5, 5), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn worker_round_seed_depends_only_on_its_arguments() {
        // The whole determinism story rests on this: a worker's streams
        // re-derive from (master, id, round) alone, so population size,
        // cohort composition and pool recycling cannot move them.
        assert_eq!(worker_round_seed(7, 123, 4), worker_round_seed(7, 123, 4));
        assert_ne!(worker_round_seed(7, 123, 4), worker_round_seed(7, 123, 5));
        assert_ne!(worker_round_seed(7, 123, 4), worker_round_seed(7, 124, 4));
        assert_ne!(worker_round_seed(8, 123, 4), worker_round_seed(7, 123, 4));
        // The salted derivations decorrelate from each other.
        let (g, k) = (55, 9);
        assert_ne!(batcher_seed(7, g, k), adversary_stream(g, k));
        assert_ne!(adversary_stream(g, k), delay_stream(g, k));
    }

    #[test]
    fn state_pool_materialization_is_recycling_order_independent() {
        let x = Vector::from(vec![1.0, 2.0, 3.0]);
        let y = Vector::from(vec![4.0, 5.0, 6.0]);
        let mut pool = StatePool::new();
        let fresh = pool.acquire(&x, &y);

        // Dirty a state thoroughly, recycle it, re-acquire: bitwise equal
        // to the fresh allocation.
        let mut dirty = pool.acquire(&x, &y);
        dirty.x.fill(9.0);
        dirty.y.fill(-1.0);
        dirty.v.fill(7.0);
        dirty.grad_accum.fill(3.0);
        dirty.y_accum.fill(2.0);
        dirty.v_accum.fill(1.0);
        dirty.steps = 17;
        dirty.scratch.fill(5.0);
        pool.release(dirty);
        assert_eq!(pool.idle(), 1);
        let recycled = pool.acquire(&x, &y);
        assert_eq!(recycled, fresh);
        assert_eq!(pool.idle(), 0);

        // A wrong-dimension buffer is not recycled into the slot.
        pool.release(WorkerState::new(&Vector::zeros(5)));
        let refit = pool.acquire(&x, &y);
        assert_eq!(refit, fresh);
    }

    #[test]
    fn materialized_cohort_holds_the_edge_download() {
        let p = WorkerPopulation::uniform(2, 100, 3).unwrap();
        let hierarchy = Hierarchy::balanced(2, 2);
        let shard_sizes = [10u64, 20, 30];
        let weights =
            Weights::from_cohort(&hierarchy, &[1, 1, 1, 1], p.edge_data_samples(&shard_sizes));
        let mut fl = FlState::new(hierarchy, weights, &Vector::from(vec![0.0, 0.0]));
        fl.edges[1].x_plus = Vector::from(vec![3.0, 4.0]);
        fl.edges[1].y_minus = Vector::from(vec![5.0, 6.0]);
        fl.workers[2].v = Vector::from(vec![9.0, 9.0]);

        let sampler = CohortSampler::new(1);
        let ids = materialize_edge_cohort(&mut fl, &p, &shard_sizes, &sampler, 1, 7);
        assert_eq!(ids.len(), 2);
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
        assert!(ids.iter().all(|&g| (100..200).contains(&g)), "edge 1's ids");
        for slot in 2..4 {
            assert_eq!(fl.workers[slot].x.as_slice(), &[3.0, 4.0]);
            assert_eq!(fl.workers[slot].y.as_slice(), &[5.0, 6.0]);
            assert_eq!(fl.workers[slot].v.as_slice(), &[0.0, 0.0]);
            assert_eq!(fl.workers[slot].steps, 0);
        }
        // Edge 0's slots are untouched.
        assert_eq!(fl.workers[0].x.as_slice(), &[0.0, 0.0]);
        // In-edge weights renormalize over the sampled cohort's shards.
        let w0 = fl.weights.worker_in_edge(2);
        let w1 = fl.weights.worker_in_edge(3);
        assert!((w0 + w1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn materialize_cap_guards_the_delegation_path() {
        let big = WorkerPopulation::uniform(4, 1_000_000, 2).unwrap();
        let err = big.materialize_hierarchy().unwrap_err();
        assert!(err.contains("sampling"), "{err}");
        let small = WorkerPopulation::uniform(2, 3, 2).unwrap();
        let h = small.materialize_hierarchy().unwrap();
        assert_eq!(h.num_workers(), 6);
        assert_eq!(h.num_edges(), 2);
    }

    #[test]
    fn population_serde_round_trips() {
        let p = WorkerPopulation::new(vec![10, 20], ShardAssignment::RoundRobin { num_shards: 3 })
            .unwrap();
        let json = serde_json::to_string(&p).unwrap();
        let back: WorkerPopulation = serde_json::from_str(&json).unwrap();
        assert_eq!(back, p);
        let s = ClientSampling::Fraction { fraction: 0.125 };
        let back: ClientSampling =
            serde_json::from_str(&serde_json::to_string(&s).unwrap()).unwrap();
        assert_eq!(back, s);
    }
}
