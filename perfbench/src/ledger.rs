//! The per-layer ledger, measured from outside the program.
//!
//! [`TimedStrategy`] and [`TimedModel`] wrap the algorithm and the model,
//! delegate every trait method to the inner value, and time the calls
//! that belong to a layer. Spans nest per thread: a layer's self time is
//! its span minus the spans of the timed calls it made (`local_step`
//! calls the gradient closure, which calls `set_params` and
//! `loss_and_grad_into`). The sum of all self times equals the summed
//! duration of the outermost spans, so on a 1-thread run the engine's own
//! time is the run's wall time minus that sum and nothing is unattributed.

use std::cell::RefCell;
use std::ops::Range;
use std::sync::Mutex;
use std::time::Instant;

use hieradmo::core::{EdgeView, FlState, Strategy, Tier, TierScope, WorkerState};
use hieradmo::data::Dataset;
use hieradmo::models::{EvalSums, Evaluation, Model};
use hieradmo::tensor::Vector;
use hieradmo::topology::Hierarchy;

/// A timed layer boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `Model::loss_and_grad{,_into}`: forward and backward.
    Grad,
    /// `Model::set_params`.
    SetParams,
    /// `Model::evaluate{,_range}`.
    Eval,
    /// `Strategy::local_step`: the NAG optimizer around the gradient.
    LocalStep,
    /// Edge-scope aggregation hooks.
    AggEdge,
    /// Middle-tier aggregation hooks.
    AggMiddle,
    /// Root (cloud) aggregation hooks.
    AggRoot,
    /// `Strategy::global_params`.
    GlobalParams,
}

impl Layer {
    pub const ALL: [Layer; 8] = [
        Layer::Grad,
        Layer::SetParams,
        Layer::Eval,
        Layer::LocalStep,
        Layer::AggEdge,
        Layer::AggMiddle,
        Layer::AggRoot,
        Layer::GlobalParams,
    ];

    fn index(self) -> usize {
        self as usize
    }
}

/// Open spans of one thread: each entry accumulates the duration of the
/// spans nested directly inside it.
#[derive(Debug, Default)]
pub struct SpanStack {
    child_ns: Vec<u64>,
}

impl SpanStack {
    pub fn enter(&mut self) {
        self.child_ns.push(0);
    }

    /// Closes the innermost span, which lasted `dur_ns`, and returns its
    /// self time and whether it was an outermost span.
    pub fn exit(&mut self, dur_ns: u64) -> (u64, bool) {
        let children = self
            .child_ns
            .pop()
            .expect("exit pairs with an earlier enter");
        if let Some(parent) = self.child_ns.last_mut() {
            *parent += dur_ns;
        }
        (dur_ns.saturating_sub(children), self.child_ns.is_empty())
    }
}

thread_local! {
    static SPANS: RefCell<SpanStack> = RefCell::new(SpanStack::default());
}

/// Totals of one layer.
#[derive(Debug, Clone, Default)]
pub struct LayerStats {
    pub calls: u64,
    pub self_ns: u64,
    /// Inclusive duration of every call, for percentiles.
    pub durations_ns: Vec<u64>,
}

#[derive(Debug, Default)]
struct Totals {
    layers: [LayerStats; Layer::ALL.len()],
    outermost_ns: u64,
}

/// Collects spans from every wrapped call.
#[derive(Debug, Default)]
pub struct Ledger {
    totals: Mutex<Totals>,
}

impl Ledger {
    /// Runs `f` as a span of `layer`.
    pub fn time<R>(&self, layer: Layer, f: impl FnOnce() -> R) -> R {
        SPANS.with(|s| s.borrow_mut().enter());
        let start = Instant::now();
        let out = f();
        let dur_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let (self_ns, outermost) = SPANS.with(|s| s.borrow_mut().exit(dur_ns));
        let mut totals = self.totals.lock().expect("ledger mutex poisoned");
        let stats = &mut totals.layers[layer.index()];
        stats.calls += 1;
        stats.self_ns += self_ns;
        stats.durations_ns.push(dur_ns);
        if outermost {
            totals.outermost_ns += dur_ns;
        }
        out
    }

    pub fn stats(&self, layer: Layer) -> LayerStats {
        self.totals.lock().expect("ledger mutex poisoned").layers[layer.index()].clone()
    }

    /// Summed self time of every layer, which equals the summed duration
    /// of the outermost spans.
    pub fn attributed_ns(&self) -> u64 {
        self.totals
            .lock()
            .expect("ledger mutex poisoned")
            .outermost_ns
    }
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) of ascending `sorted` by nearest rank;
/// 0 for an empty slice.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn scope_layer(scope: &TierScope<'_, '_>) -> Layer {
    match scope {
        TierScope::Edge(_) => Layer::AggEdge,
        TierScope::Middle { .. } => Layer::AggMiddle,
        TierScope::Root(_) => Layer::AggRoot,
    }
}

/// A [`Strategy`] that times the inner strategy's calls into `ledger`.
pub struct TimedStrategy<'a, S: ?Sized> {
    pub inner: &'a S,
    pub ledger: &'a Ledger,
}

impl<S: Strategy + ?Sized> Strategy for TimedStrategy<'_, S> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn tier(&self) -> Tier {
        self.inner.tier()
    }

    fn init(&self, state: &mut FlState) {
        self.inner.init(state);
    }

    fn local_step(
        &self,
        t: usize,
        worker: &mut WorkerState,
        grad: &mut dyn FnMut(&Vector, &mut Vector),
    ) {
        self.ledger
            .time(Layer::LocalStep, || self.inner.local_step(t, worker, grad));
    }

    fn edge_aggregate(&self, k: usize, view: &mut EdgeView<'_>) {
        self.ledger
            .time(Layer::AggEdge, || self.inner.edge_aggregate(k, view));
    }

    fn cloud_aggregate(&self, p: usize, state: &mut FlState) {
        self.ledger
            .time(Layer::AggRoot, || self.inner.cloud_aggregate(p, state));
    }

    fn edge_aggregate_stale(&self, k: usize, view: &mut EdgeView<'_>, staleness: &[usize]) {
        self.ledger.time(Layer::AggEdge, || {
            self.inner.edge_aggregate_stale(k, view, staleness)
        });
    }

    fn cloud_aggregate_stale(&self, p: usize, state: &mut FlState, staleness: &[usize]) {
        self.ledger.time(Layer::AggRoot, || {
            self.inner.cloud_aggregate_stale(p, state, staleness)
        });
    }

    fn tier_aggregate(&self, scope: TierScope<'_, '_>, round: usize) {
        self.ledger.time(scope_layer(&scope), || {
            self.inner.tier_aggregate(scope, round)
        });
    }

    fn tier_aggregate_stale(&self, scope: TierScope<'_, '_>, round: usize, staleness: &[usize]) {
        self.ledger.time(scope_layer(&scope), || {
            self.inner.tier_aggregate_stale(scope, round, staleness)
        });
    }

    fn global_params(&self, state: &FlState) -> Vector {
        self.ledger
            .time(Layer::GlobalParams, || self.inner.global_params(state))
    }

    fn check_topology(&self, hierarchy: &Hierarchy) -> Result<(), String> {
        self.inner.check_topology(hierarchy)
    }
}

/// A [`Model`] that times the inner model's calls into `ledger`.
#[derive(Clone)]
pub struct TimedModel<'a, M> {
    pub inner: M,
    pub ledger: &'a Ledger,
}

impl<M: Model> Model for TimedModel<'_, M> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn params(&self) -> Vector {
        self.inner.params()
    }

    fn set_params(&mut self, params: &Vector) {
        let inner = &mut self.inner;
        self.ledger
            .time(Layer::SetParams, || inner.set_params(params));
    }

    fn loss_and_grad(&self, data: &Dataset, indices: &[usize]) -> (f32, Vector) {
        self.ledger
            .time(Layer::Grad, || self.inner.loss_and_grad(data, indices))
    }

    fn loss_and_grad_into(&self, data: &Dataset, indices: &[usize], grad: &mut Vector) -> f32 {
        self.ledger.time(Layer::Grad, || {
            self.inner.loss_and_grad_into(data, indices, grad)
        })
    }

    fn output(&self, features: &Vector) -> Vector {
        self.inner.output(features)
    }

    fn loss(&self, data: &Dataset, indices: &[usize]) -> f32 {
        self.inner.loss(data, indices)
    }

    fn evaluate(&self, data: &Dataset) -> Evaluation {
        self.ledger.time(Layer::Eval, || self.inner.evaluate(data))
    }

    fn evaluate_range(&self, data: &Dataset, range: Range<usize>) -> EvalSums {
        self.ledger
            .time(Layer::Eval, || self.inner.evaluate_range(data, range))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // local_step [0, 100) ⊃ set_params [10, 20) and grad [20, 80).
        let mut s = SpanStack::default();
        s.enter();
        s.enter();
        assert_eq!(s.exit(10), (10, false));
        s.enter();
        assert_eq!(s.exit(60), (60, false));
        assert_eq!(s.exit(100), (30, true));
        // Three levels: a grandchild counts against its parent only.
        s.enter();
        s.enter();
        s.enter();
        assert_eq!(s.exit(5), (5, false));
        assert_eq!(s.exit(8), (3, false));
        assert_eq!(s.exit(20), (12, true));
    }

    #[test]
    fn ledger_self_times_sum_to_outermost_spans() {
        let ledger = Ledger::default();
        ledger.time(Layer::LocalStep, || {
            ledger.time(Layer::SetParams, || std::hint::black_box(0));
            ledger.time(Layer::Grad, || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        ledger.time(Layer::Eval, || ());
        let self_sum: u64 = Layer::ALL.iter().map(|&l| ledger.stats(l).self_ns).sum();
        assert_eq!(self_sum, ledger.attributed_ns());
        assert_eq!(ledger.stats(Layer::Grad).calls, 1);
        let step = ledger.stats(Layer::LocalStep);
        assert!(step.durations_ns[0] >= ledger.stats(Layer::Grad).self_ns + step.self_ns);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[7], 0.99), 7);
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(percentile(&[1, 2, 3], 0.5), 2);
    }
}

#[cfg(test)]
mod delegation_tests {
    use std::sync::atomic::{AtomicUsize, Ordering};

    use hieradmo::core::algorithms::HierAdMo;
    use hieradmo::data::synthetic::SyntheticDataset;
    use hieradmo::models::zoo;
    use hieradmo::topology::Weights;

    use super::*;
    use crate::workloads::{params_hash, run_engine, Setup, Size, Workload};

    /// Counts every call to each trait method by name.
    #[derive(Default)]
    struct Calls(Mutex<Vec<&'static str>>);

    impl Calls {
        fn hit(&self, name: &'static str) {
            self.0.lock().unwrap().push(name);
        }

        fn take(&self) -> Vec<&'static str> {
            std::mem::take(&mut self.0.lock().unwrap())
        }
    }

    /// A strategy that overrides every method, defaulted or not.
    #[derive(Default)]
    struct ProbeStrategy(Calls);

    impl Strategy for ProbeStrategy {
        fn name(&self) -> &'static str {
            self.0.hit("name");
            "Probe"
        }
        fn tier(&self) -> Tier {
            self.0.hit("tier");
            Tier::Three
        }
        fn init(&self, _: &mut FlState) {
            self.0.hit("init");
        }
        fn local_step(
            &self,
            _: usize,
            _: &mut WorkerState,
            _: &mut dyn FnMut(&Vector, &mut Vector),
        ) {
            self.0.hit("local_step");
        }
        fn edge_aggregate(&self, _: usize, _: &mut EdgeView<'_>) {
            self.0.hit("edge_aggregate");
        }
        fn cloud_aggregate(&self, _: usize, _: &mut FlState) {
            self.0.hit("cloud_aggregate");
        }
        fn edge_aggregate_stale(&self, _: usize, _: &mut EdgeView<'_>, _: &[usize]) {
            self.0.hit("edge_aggregate_stale");
        }
        fn cloud_aggregate_stale(&self, _: usize, _: &mut FlState, _: &[usize]) {
            self.0.hit("cloud_aggregate_stale");
        }
        fn tier_aggregate(&self, _: TierScope<'_, '_>, _: usize) {
            self.0.hit("tier_aggregate");
        }
        fn tier_aggregate_stale(&self, _: TierScope<'_, '_>, _: usize, _: &[usize]) {
            self.0.hit("tier_aggregate_stale");
        }
        fn global_params(&self, _: &FlState) -> Vector {
            self.0.hit("global_params");
            Vector::from(vec![0.0])
        }
        fn check_topology(&self, _: &Hierarchy) -> Result<(), String> {
            self.0.hit("check_topology");
            Ok(())
        }
    }

    fn tiny_state() -> FlState {
        let h = Hierarchy::balanced(1, 2);
        let w = Weights::from_samples(&h, &[1, 1]);
        FlState::new(h, w, &Vector::from(vec![0.0]))
    }

    #[test]
    fn timed_strategy_reaches_every_inner_method() {
        let ledger = Ledger::default();
        let probe = ProbeStrategy::default();
        let timed = TimedStrategy {
            inner: &probe,
            ledger: &ledger,
        };
        let mut state = tiny_state();
        let mut worker = state.workers[0].clone();
        timed.name();
        timed.tier();
        timed.init(&mut state);
        timed.local_step(0, &mut worker, &mut |_, _| {});
        timed.edge_aggregate(1, &mut state.edge_view(0));
        timed.cloud_aggregate(1, &mut state);
        timed.edge_aggregate_stale(1, &mut state.edge_view(0), &[0, 1]);
        timed.cloud_aggregate_stale(1, &mut state, &[0]);
        timed.tier_aggregate(TierScope::Edge(&mut state.edge_view(0)), 1);
        timed.tier_aggregate_stale(TierScope::Root(&mut state), 1, &[0]);
        timed.global_params(&state);
        timed.check_topology(&state.hierarchy).unwrap();
        assert_eq!(
            probe.0.take(),
            [
                "name",
                "tier",
                "init",
                "local_step",
                "edge_aggregate",
                "cloud_aggregate",
                "edge_aggregate_stale",
                "cloud_aggregate_stale",
                "tier_aggregate",
                "tier_aggregate_stale",
                "global_params",
                "check_topology",
            ]
        );
        let calls = |l: Layer| ledger.stats(l).calls;
        assert_eq!(calls(Layer::LocalStep), 1);
        assert_eq!(calls(Layer::AggEdge), 3);
        assert_eq!(calls(Layer::AggRoot), 3);
        assert_eq!(calls(Layer::GlobalParams), 1);
    }

    /// A model that overrides every method and records each call.
    #[derive(Clone)]
    struct ProbeModel<'a> {
        calls: &'a Calls,
        dim: usize,
    }

    impl Model for ProbeModel<'_> {
        fn dim(&self) -> usize {
            self.calls.hit("dim");
            self.dim
        }
        fn params(&self) -> Vector {
            self.calls.hit("params");
            Vector::zeros(self.dim)
        }
        fn set_params(&mut self, _: &Vector) {
            self.calls.hit("set_params");
        }
        fn loss_and_grad(&self, _: &Dataset, _: &[usize]) -> (f32, Vector) {
            self.calls.hit("loss_and_grad");
            (0.0, Vector::zeros(self.dim))
        }
        fn loss_and_grad_into(&self, _: &Dataset, _: &[usize], _: &mut Vector) -> f32 {
            self.calls.hit("loss_and_grad_into");
            0.0
        }
        fn output(&self, _: &Vector) -> Vector {
            self.calls.hit("output");
            Vector::zeros(1)
        }
        fn loss(&self, _: &Dataset, _: &[usize]) -> f32 {
            self.calls.hit("loss");
            0.0
        }
        fn evaluate(&self, _: &Dataset) -> Evaluation {
            self.calls.hit("evaluate");
            EvalSums::default().finish()
        }
        fn evaluate_range(&self, _: &Dataset, _: Range<usize>) -> EvalSums {
            self.calls.hit("evaluate_range");
            EvalSums::default()
        }
    }

    #[test]
    fn timed_model_reaches_every_inner_method() {
        let ledger = Ledger::default();
        let calls = Calls::default();
        let data = SyntheticDataset::mnist_like(1, 1, 0).train;
        let mut timed = TimedModel {
            inner: ProbeModel {
                calls: &calls,
                dim: 3,
            },
            ledger: &ledger,
        };
        let mut grad = Vector::zeros(3);
        timed.dim();
        timed.params();
        timed.set_params(&Vector::zeros(3));
        timed.loss_and_grad(&data, &[0]);
        timed.loss_and_grad_into(&data, &[0], &mut grad);
        timed.output(&Vector::zeros(3));
        timed.loss(&data, &[0]);
        timed.evaluate(&data);
        timed.evaluate_range(&data, 0..1);
        assert_eq!(
            calls.take(),
            [
                "dim",
                "params",
                "set_params",
                "loss_and_grad",
                "loss_and_grad_into",
                "output",
                "loss",
                "evaluate",
                "evaluate_range",
            ]
        );
        assert_eq!(ledger.stats(Layer::Grad).calls, 2);
        assert_eq!(ledger.stats(Layer::SetParams).calls, 1);
        assert_eq!(ledger.stats(Layer::Eval).calls, 2);
    }

    /// HierAdMo with its tier hooks overridden, counting the calls that
    /// reach the overrides.
    struct OverridesTierHooks {
        inner: HierAdMo,
        tier_calls: AtomicUsize,
    }

    impl Strategy for OverridesTierHooks {
        fn name(&self) -> &'static str {
            self.inner.name()
        }
        fn tier(&self) -> Tier {
            self.inner.tier()
        }
        fn local_step(
            &self,
            t: usize,
            w: &mut WorkerState,
            g: &mut dyn FnMut(&Vector, &mut Vector),
        ) {
            self.inner.local_step(t, w, g);
        }
        fn edge_aggregate(&self, k: usize, v: &mut EdgeView<'_>) {
            self.inner.edge_aggregate(k, v);
        }
        fn cloud_aggregate(&self, p: usize, s: &mut FlState) {
            self.inner.cloud_aggregate(p, s);
        }
        fn tier_aggregate(&self, scope: TierScope<'_, '_>, round: usize) {
            self.tier_calls.fetch_add(1, Ordering::SeqCst);
            self.inner.tier_aggregate(scope, round);
        }
        fn tier_aggregate_stale(
            &self,
            scope: TierScope<'_, '_>,
            round: usize,
            staleness: &[usize],
        ) {
            self.tier_calls.fetch_add(1, Ordering::SeqCst);
            self.inner.tier_aggregate_stale(scope, round, staleness);
        }
    }

    #[test]
    fn tier_hook_overrides_are_called_through_the_wrapper() {
        let model = zoo::logistic_regression(&SyntheticDataset::mnist_like(1, 1, 0).train, 0);
        let strategy = OverridesTierHooks {
            inner: HierAdMo::adaptive(0.01, 0.5),
            tier_calls: AtomicUsize::new(0),
        };
        let ledger = Ledger::default();
        let timed = TimedStrategy {
            inner: &strategy,
            ledger: &ledger,
        };
        let h = tiny_state().hierarchy;
        let mut state = FlState::new(
            h.clone(),
            Weights::from_samples(&h, &[1, 1]),
            &model.params(),
        );
        timed.tier_aggregate(TierScope::Root(&mut state), 1);
        assert_eq!(strategy.tier_calls.swap(0, Ordering::SeqCst), 1);
        assert_eq!(ledger.stats(Layer::AggRoot).calls, 1);

        // Through an engine: the depth-4 sampled run fires its middle tier
        // through the stale tier hook.
        let setup = Setup::new(Workload::DeviceSampled, tiny(Workload::DeviceSampled), 3);
        let plain = run_engine(&setup, &strategy, &setup.model, 1).unwrap();
        let engine_calls = strategy.tier_calls.swap(0, Ordering::SeqCst);
        assert!(engine_calls > 0, "the engine never called a tier hook");
        let wrapped = run_engine(&setup, &timed, &setup.model, 1).unwrap();
        assert_eq!(strategy.tier_calls.load(Ordering::SeqCst), engine_calls);
        assert!(ledger.stats(Layer::AggMiddle).calls > 0);
        assert_eq!(
            params_hash(&plain.final_params),
            params_hash(&wrapped.final_params)
        );
    }

    fn tiny(w: Workload) -> Size {
        let full = w.size();
        Size {
            train_per_class: 40,
            test_per_class: 5,
            edges: 4,
            workers_per_edge: if w == Workload::DeviceSampled { 100 } else { 2 },
            sampled_per_edge: if w == Workload::DeviceSampled { 3 } else { 2 },
            total_iters: 8 * full.tau,
            batch_size: 4,
            ..full
        }
    }

    #[test]
    fn wrapped_runs_are_bitwise_equal_on_every_engine() {
        for w in Workload::ALL {
            let setup = Setup::new(w, tiny(w), 5);
            let strategy = setup.strategy();
            let plain = run_engine(&setup, &strategy, &setup.model, 1).unwrap();
            let reference = params_hash(&plain.final_params);
            for threads in [1, 2] {
                let ledger = Ledger::default();
                let timed_strategy = TimedStrategy {
                    inner: &strategy,
                    ledger: &ledger,
                };
                let timed_model = TimedModel {
                    inner: setup.model.clone(),
                    ledger: &ledger,
                };
                let plain = run_engine(&setup, &strategy, &setup.model, threads).unwrap();
                let wrapped = run_engine(&setup, &timed_strategy, &timed_model, threads).unwrap();
                assert_eq!(
                    params_hash(&plain.final_params),
                    reference,
                    "{w:?} at {threads} threads"
                );
                assert_eq!(
                    params_hash(&wrapped.final_params),
                    reference,
                    "{w:?} at {threads} threads wrapped"
                );
                assert_eq!(plain.events, wrapped.events);
                assert!(ledger.stats(Layer::Grad).calls > 0);
                assert_eq!(
                    ledger.stats(Layer::Grad).calls,
                    ledger.stats(Layer::LocalStep).calls
                );
                assert!(ledger.stats(Layer::AggEdge).calls > 0);
                assert!(ledger.stats(Layer::Eval).calls > 0);
            }
        }
    }
}
