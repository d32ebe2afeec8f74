//! The [`Strategy`] trait: the hook interface every federated algorithm
//! implements against the shared [`FlState`].

use hieradmo_tensor::Vector;
use hieradmo_topology::{Hierarchy, TierAggregation, TierTree};

use crate::state::{EdgeView, FlState, WorkerState};

/// Which architecture an algorithm is defined for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Two-tier (workers ↔ cloud): runs on a degenerate single-edge
    /// hierarchy with `π = 1`.
    Two,
    /// Three-tier (workers ↔ edges ↔ cloud).
    Three,
}

/// The tier a depth-indexed aggregation targets — the argument of
/// [`Strategy::tier_aggregate`].
///
/// On the seed three-tier path only `Edge` and `Root` occur; `Middle`
/// appears on depth ≥ 4 [`hieradmo_topology::TierTree`] runs, once per
/// middle node at that tier's boundary. Edge scopes may be dispatched
/// concurrently (one view per edge, disjoint by construction); middle
/// and root scopes always run serially on the driver thread with the
/// whole federation in reach.
#[derive(Debug)]
pub enum TierScope<'a, 'b> {
    /// The leaf-parent ("edge") tier: one edge's workers and state.
    Edge(&'b mut EdgeView<'a>),
    /// One middle-tier node of a depth ≥ 4 tree.
    Middle {
        /// The node's tree depth (an element of
        /// [`hieradmo_topology::TierTree::middle_depths`]).
        depth: usize,
        /// The node's index within its tier.
        node: usize,
        /// The full federation state (middle hooks run serially).
        state: &'b mut FlState,
    },
    /// The root ("cloud") tier.
    Root(&'b mut FlState),
}

/// A federated-learning algorithm as a set of hooks called by
/// [`crate::driver::run`]:
///
/// 1. [`Strategy::local_step`] once per worker per local iteration
///    (possibly on parallel threads, hence `&self` + `Sync`);
/// 2. [`Strategy::edge_aggregate`] for every edge at `t = kτ`;
/// 3. [`Strategy::cloud_aggregate`] at `t = pτπ`.
///
/// Algorithms keep *all* mutable run state inside [`FlState`]; the strategy
/// object itself only holds hyper-parameters, which keeps every algorithm
/// trivially `Send + Sync`.
///
/// Under the fault-injecting co-simulation (`hieradmo-simrt`, DESIGN.md
/// §11) the same hooks also serve crash/rejoin: a worker that crashed and
/// rejoined re-enters `local_step` from the last model its server
/// delivered, so aggregation hooks may observe contributions whose local
/// trajectory restarted mid-interval. Hooks must therefore not assume
/// every worker's `steps` counter advanced uniformly — only that each
/// upload is internally consistent (state, accumulators, and step count
/// all describe the same locally-executed interval).
pub trait Strategy: Send + Sync {
    /// Display name (matches the paper's Table II row labels).
    fn name(&self) -> &'static str;

    /// The architecture this algorithm is defined for.
    fn tier(&self) -> Tier;

    /// Hook called once before training begins (after [`FlState::new`]'s
    /// common initialization). Most algorithms need nothing extra.
    fn init(&self, _state: &mut FlState) {}

    /// One local iteration on one worker. `grad(params, out)` evaluates the
    /// worker's mini-batch gradient at arbitrary parameters (the batch is
    /// fixed for this call), writing it into `out` — typically the worker's
    /// [`WorkerState::scratch`] buffer, so the steady state allocates
    /// nothing.
    fn local_step(
        &self,
        t: usize,
        worker: &mut WorkerState,
        grad: &mut dyn FnMut(&Vector, &mut Vector),
    );

    /// Edge aggregation `k` (at `t = kτ`) for the edge behind `view`.
    ///
    /// The view scopes the hook to exactly one edge's workers and state, so
    /// the driver may run all edges concurrently; implementations needing
    /// the edge index use [`EdgeView::edge`].
    fn edge_aggregate(&self, k: usize, view: &mut EdgeView<'_>);

    /// Cloud aggregation `p` (at `t = pτπ`).
    fn cloud_aggregate(&self, p: usize, state: &mut FlState);

    /// Staleness-aware edge aggregation, called by relaxed-synchrony
    /// drivers (the event-driven runtime in `hieradmo-simrt` under its
    /// `Deadline`/`AsyncAge` policies) instead of
    /// [`Strategy::edge_aggregate`].
    ///
    /// `staleness[j]` is the number of edge rounds since local worker `j`'s
    /// server-side state was refreshed by an upload: `0` means the worker
    /// participated in this round, larger values mean the edge is merging a
    /// carried-over (stale) model/momentum. The all-zero case **must** be
    /// exactly equivalent to [`Strategy::edge_aggregate`] — the default
    /// implementation guarantees this by delegating unconditionally, which
    /// keeps every synchronous algorithm compiling and semantically
    /// unchanged (stale entries are then merged at full weight).
    fn edge_aggregate_stale(&self, k: usize, view: &mut EdgeView<'_>, staleness: &[usize]) {
        let _ = staleness;
        self.edge_aggregate(k, view);
    }

    /// Staleness-aware cloud aggregation; the edge-level analogue of
    /// [`Strategy::edge_aggregate_stale`]. `staleness[l]` counts cloud
    /// rounds since edge `l` last submitted. Defaults to
    /// [`Strategy::cloud_aggregate`] (stale edges merged at full weight),
    /// so the all-zero case is always equivalent to the synchronous hook.
    fn cloud_aggregate_stale(&self, p: usize, state: &mut FlState, staleness: &[usize]) {
        let _ = staleness;
        self.cloud_aggregate(p, state);
    }

    /// Depth-indexed aggregation dispatch: one hook for every tier of an
    /// N-tier tree. `round` is the firing tier's own aggregation index
    /// (`k` at the edges, `p` at the root, the node tier's round for
    /// middles).
    ///
    /// The default is exactly today's three-tier behavior — edge scopes
    /// delegate to [`Strategy::edge_aggregate`], the root to
    /// [`Strategy::cloud_aggregate`] — so every existing algorithm runs
    /// the N-tier path bitwise identically to the seed code (pinned by
    /// `tests/tier_equivalence.rs`). Middle scopes run
    /// [`default_middle_aggregate`]: subtree-weighted averaging through
    /// the federation's robust aggregator, or a no-op for
    /// [`TierAggregation::Identity`] levels. Override to give an
    /// algorithm genuine per-depth semantics.
    fn tier_aggregate(&self, scope: TierScope<'_, '_>, round: usize) {
        match scope {
            TierScope::Edge(view) => self.edge_aggregate(round, view),
            TierScope::Middle { depth, node, state } => {
                default_middle_aggregate(depth, node, state);
            }
            TierScope::Root(state) => self.cloud_aggregate(round, state),
        }
    }

    /// Staleness-aware variant of [`Strategy::tier_aggregate`], with the
    /// same contract as the edge/cloud stale hooks: all-zero staleness
    /// must be equivalent to the synchronous hook, which the default
    /// guarantees by delegating per scope. For middle scopes `staleness`
    /// is indexed by the node's *local* edge span (its `edges_per_node`
    /// subtree leaves, in order), counting cloud boundaries since that
    /// edge last submitted; the default runs
    /// [`default_middle_aggregate_stale`], which down-weights stale
    /// subtree edges by bounded age (carry-over past
    /// [`MIDDLE_AGE_CAP`] rounds stops decaying further).
    fn tier_aggregate_stale(&self, scope: TierScope<'_, '_>, round: usize, staleness: &[usize]) {
        match scope {
            TierScope::Edge(view) => self.edge_aggregate_stale(round, view, staleness),
            TierScope::Middle { depth, node, state } => {
                default_middle_aggregate_stale(depth, node, state, staleness);
            }
            TierScope::Root(state) => self.cloud_aggregate_stale(round, state, staleness),
        }
    }

    /// The parameters evaluated as "the global model" between aggregations.
    /// Defaults to the data-weighted average of worker models.
    fn global_params(&self, state: &FlState) -> Vector {
        state.average_worker_models()
    }

    /// Validates that the topology matches [`Strategy::tier`].
    ///
    /// # Errors
    ///
    /// Returns a message when a two-tier algorithm is given a multi-edge
    /// hierarchy.
    fn check_topology(&self, hierarchy: &Hierarchy) -> Result<(), String> {
        if self.tier() == Tier::Two && !hierarchy.is_two_tier() {
            return Err(format!(
                "{} is a two-tier algorithm; run it on Hierarchy::two_tier(n) \
                 with pi = 1 (got {} edges)",
                self.name(),
                hierarchy.num_edges()
            ));
        }
        Ok(())
    }
}

/// The stock middle-tier aggregation behind the default
/// [`Strategy::tier_aggregate`]: the paper's cloud rule (Algorithm 1
/// lines 18–19 without server momentum) restricted to one node's
/// subtree.
///
/// For an [`TierAggregation::Average`] level, the node reduces its
/// subtree's edge states — `y_{ℓ−}` and `x_{ℓ+}`, weighted by the
/// subtree-renormalized data shares `D_ℓ / D_subtree` and routed through
/// the federation's [`crate::RobustAggregator`] — stores the result as
/// its own momentum/model, and redistributes both down the subtree
/// (edges' `y_minus`/`x_plus`, workers' `y`/`x`), exactly as the cloud
/// does globally. For [`TierAggregation::Identity`] levels it does
/// nothing at all, which is what makes pass-through tiers collapsible
/// (see [`hieradmo_topology::TierTree::collapse`]).
///
/// # Panics
///
/// Panics if `state` has no attached tier tree or `depth`/`node` are out
/// of range.
pub fn default_middle_aggregate(depth: usize, node: usize, state: &mut FlState) {
    let tree = state
        .tree
        .as_ref()
        .expect("middle aggregation needs a tier tree");
    // The node at `depth` aggregates its children per the spec of the
    // depth → depth+1 relation.
    if tree.levels()[depth].aggregation == TierAggregation::Identity {
        return;
    }
    let span = tree.edges_per_node(depth);
    let edges = node * span..(node + 1) * span;
    let subtree_total: f64 = edges.clone().map(|e| state.weights.edge_in_total(e)).sum();
    let weighted = |l: usize| state.weights.edge_in_total(l) / subtree_total;
    let y = state.aggregate(
        edges
            .clone()
            .map(|l| (weighted(l), &state.edges[l].y_minus)),
    );
    let x = state.aggregate(edges.clone().map(|l| (weighted(l), &state.edges[l].x_plus)));

    let idx = depth - 1;
    state.middle[idx][node].y_minus = y.clone();
    state.middle[idx][node].y_plus = y.clone();
    state.middle[idx][node].x_plus = x.clone();
    for l in edges {
        state.edges[l].y_minus = y.clone();
        state.edges[l].x_plus = x.clone();
    }
    let workers = state.hierarchy.edge_workers(node * span).start
        ..state.hierarchy.edge_workers((node + 1) * span - 1).end;
    for i in workers {
        state.workers[i].y = y.clone();
        state.workers[i].x = x.clone();
    }
}

/// Fires every middle tier of `tree` whose boundary edge round `k` hits,
/// bottom-up, node by node in index order, and appends each firing tier's
/// `(round, mean-over-nodes γ)` to `tier_gamma[depth - 1]`.
///
/// `staleness` selects the hook: `None` calls
/// [`Strategy::tier_aggregate`] (the synchronous engines); `Some(ages)`
/// calls [`Strategy::tier_aggregate_stale`] with each node's contiguous
/// span of the per-edge ages (the event-driven engines, where middle
/// tiers are co-hosted at the cloud actor). Identity tiers fire nothing
/// and record nothing, and no tier draws RNG, so a pass-through tree is
/// bit-identical to its collapse, traces included.
pub fn fire_middle_tiers<S: Strategy + ?Sized>(
    strategy: &S,
    state: &mut FlState,
    tree: &TierTree,
    k: usize,
    staleness: Option<&[usize]>,
    tier_gamma: &mut [Vec<(usize, f32)>],
) {
    for depth in tree.middle_depths().rev() {
        let period = tree.sync_rounds(depth);
        if tree.levels()[depth].aggregation == TierAggregation::Identity
            || !k.is_multiple_of(period)
        {
            continue;
        }
        let round = k / period;
        let span = tree.edges_per_node(depth);
        for node in 0..tree.nodes_at(depth) {
            let scope = TierScope::Middle {
                depth,
                node,
                state: &mut *state,
            };
            match staleness {
                None => strategy.tier_aggregate(scope, round),
                Some(ages) => {
                    strategy.tier_aggregate_stale(
                        scope,
                        round,
                        &ages[node * span..(node + 1) * span],
                    );
                }
            }
        }
        let tier = &state.middle[depth - 1];
        let mean = tier.iter().map(|s| s.gamma_edge).sum::<f32>() / tier.len() as f32;
        tier_gamma[depth - 1].push((round, mean));
    }
}

/// Age bound for middle-tier carry-over: a stale subtree edge is
/// down-weighted by `1 / (1 + min(age, MIDDLE_AGE_CAP))`, so an edge that
/// has been absent longer than this many cloud boundaries keeps a small
/// constant share instead of decaying without bound. This keeps
/// long-partitioned subtrees represented (the HierFAVG carry-over rule)
/// while bounding their drag on fresh contributions.
pub const MIDDLE_AGE_CAP: usize = 16;

/// Staleness-aware variant of [`default_middle_aggregate`], the stock
/// behavior behind [`Strategy::tier_aggregate_stale`]'s middle arm.
///
/// `staleness[j]` is the age (in cloud boundaries) of the node's `j`-th
/// subtree edge, in subtree order. All-zero staleness delegates to
/// [`default_middle_aggregate`] bitwise — the exactness contract the
/// depth×policy matrix pins under `FullSync`. Otherwise each edge's
/// subtree weight `D_ℓ / D_subtree` is scaled by
/// `1 / (1 + min(age_ℓ, MIDDLE_AGE_CAP))` and the weights renormalized
/// over the node's span, so carried-over (stale) edge states still enter
/// the subtree average with bounded influence.
///
/// # Panics
///
/// Panics if `state` has no attached tier tree, `depth`/`node` are out of
/// range, or `staleness` is shorter than the node's subtree span.
pub fn default_middle_aggregate_stale(
    depth: usize,
    node: usize,
    state: &mut FlState,
    staleness: &[usize],
) {
    if staleness.iter().all(|&a| a == 0) {
        return default_middle_aggregate(depth, node, state);
    }
    let tree = state
        .tree
        .as_ref()
        .expect("middle aggregation needs a tier tree");
    if tree.levels()[depth].aggregation == TierAggregation::Identity {
        return;
    }
    let span = tree.edges_per_node(depth);
    assert!(
        staleness.len() >= span,
        "staleness slice covers {} edges, node subtree spans {span}",
        staleness.len()
    );
    let edges = node * span..(node + 1) * span;
    let decay = |j: usize| 1.0 / (1 + staleness[j].min(MIDDLE_AGE_CAP)) as f64;
    let scaled_total: f64 = edges
        .clone()
        .enumerate()
        .map(|(j, e)| state.weights.edge_in_total(e) * decay(j))
        .sum();
    let weighted = |j: usize, l: usize| state.weights.edge_in_total(l) * decay(j) / scaled_total;
    let y = state.aggregate(
        edges
            .clone()
            .enumerate()
            .map(|(j, l)| (weighted(j, l), &state.edges[l].y_minus)),
    );
    let x = state.aggregate(
        edges
            .clone()
            .enumerate()
            .map(|(j, l)| (weighted(j, l), &state.edges[l].x_plus)),
    );

    let idx = depth - 1;
    state.middle[idx][node].y_minus = y.clone();
    state.middle[idx][node].y_plus = y.clone();
    state.middle[idx][node].x_plus = x.clone();
    for l in edges {
        state.edges[l].y_minus = y.clone();
        state.edges[l].x_plus = x.clone();
    }
    let workers = state.hierarchy.edge_workers(node * span).start
        ..state.hierarchy.edge_workers((node + 1) * span - 1).end;
    for i in workers {
        state.workers[i].y = y.clone();
        state.workers[i].x = x.clone();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug)]
    struct Dummy(Tier);

    impl Strategy for Dummy {
        fn name(&self) -> &'static str {
            "Dummy"
        }
        fn tier(&self) -> Tier {
            self.0
        }
        fn local_step(
            &self,
            _t: usize,
            _w: &mut WorkerState,
            _g: &mut dyn FnMut(&Vector, &mut Vector),
        ) {
        }
        fn edge_aggregate(&self, _k: usize, _v: &mut EdgeView<'_>) {}
        fn cloud_aggregate(&self, _p: usize, _s: &mut FlState) {}
    }

    #[test]
    fn two_tier_strategy_rejects_multi_edge_topology() {
        let d = Dummy(Tier::Two);
        assert!(d.check_topology(&Hierarchy::two_tier(4)).is_ok());
        assert!(d.check_topology(&Hierarchy::balanced(2, 2)).is_err());
    }

    #[test]
    fn three_tier_strategy_accepts_both() {
        let d = Dummy(Tier::Three);
        assert!(d.check_topology(&Hierarchy::two_tier(4)).is_ok());
        assert!(d.check_topology(&Hierarchy::balanced(2, 2)).is_ok());
    }

    #[test]
    fn strategies_are_object_safe() {
        let boxed: Box<dyn Strategy> = Box::new(Dummy(Tier::Three));
        assert_eq!(boxed.name(), "Dummy");
    }

    #[test]
    fn default_stale_hooks_delegate_to_synchronous_hooks() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        #[derive(Default)]
        struct Counting {
            edge_calls: AtomicUsize,
            cloud_calls: AtomicUsize,
        }
        impl Strategy for Counting {
            fn name(&self) -> &'static str {
                "Counting"
            }
            fn tier(&self) -> Tier {
                Tier::Three
            }
            fn local_step(
                &self,
                _t: usize,
                _w: &mut WorkerState,
                _g: &mut dyn FnMut(&Vector, &mut Vector),
            ) {
            }
            fn edge_aggregate(&self, _k: usize, _v: &mut EdgeView<'_>) {
                self.edge_calls.fetch_add(1, Ordering::SeqCst);
            }
            fn cloud_aggregate(&self, _p: usize, _s: &mut FlState) {
                self.cloud_calls.fetch_add(1, Ordering::SeqCst);
            }
        }

        use hieradmo_topology::{Hierarchy, Weights};
        let h = Hierarchy::balanced(1, 2);
        let w = Weights::from_samples(&h, &[1, 1]);
        let mut state = FlState::new(h, w, &Vector::from(vec![0.0]));
        let s = Counting::default();
        // Even a non-trivial staleness vector reaches the synchronous hook
        // under the default impls (stale entries merged at full weight).
        s.edge_aggregate_stale(1, &mut state.edge_view(0), &[0, 3]);
        s.cloud_aggregate_stale(1, &mut state, &[2]);
        assert_eq!(s.edge_calls.load(Ordering::SeqCst), 1);
        assert_eq!(s.cloud_calls.load(Ordering::SeqCst), 1);
    }
}
