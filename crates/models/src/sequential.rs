//! [`Sequential`]: a validated stack of layers plus a loss head, exposing
//! the flat-parameter [`Model`] interface.

use std::cell::RefCell;
use std::ops::Range;

use hieradmo_data::{Dataset, FeatureShape, Target};
use hieradmo_tensor::{ops, Matrix, Tensor4, Vector};

use crate::layer::{Cache, FlatBatch, Layer, Signal, SignalShape};
use crate::model::{evaluate_range_serial, score_sample, EvalSums, Model};

/// Row-tile size for batched evaluation: two 4-row register tiles of
/// `matmul_bt`. Larger tiles buy no speed, since every 4-row tile streams
/// the weights once either way, but would grow the per-thread scratch
/// past a small training mini-batch.
const EVAL_GEMM_TILE: usize = 8;

/// The loss applied on top of the final layer's output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LossHead {
    /// Softmax + cross-entropy against a class label (logistic regression,
    /// CNN, VGG, ResNet heads).
    SoftmaxCrossEntropy,
    /// Mean-squared error against the one-hot encoding of a class label —
    /// the paper's "linear regression on MNIST" setting.
    MseOneHot,
    /// Mean-squared error against a regression target vector.
    Mse,
}

/// A feed-forward stack of [`Layer`]s with a [`LossHead`].
///
/// Construction validates the full shape pipeline once, so any conv/dense
/// size mismatch fails fast rather than mid-training.
///
/// # Example
///
/// ```
/// use hieradmo_models::{Sequential, LossHead, Model};
/// use hieradmo_models::layer::{Dense, Relu, Layer};
/// use hieradmo_data::FeatureShape;
/// use hieradmo_tensor::{init, Vector};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let layers: Vec<Box<dyn Layer>> = vec![
///     Box::new(Dense::new(init::xavier_matrix(&mut rng, 8, 4), Vector::zeros(8))),
///     Box::new(Relu::new()),
///     Box::new(Dense::new(init::xavier_matrix(&mut rng, 3, 8), Vector::zeros(3))),
/// ];
/// let model = Sequential::new(layers, FeatureShape::Flat(4), LossHead::SoftmaxCrossEntropy);
/// assert_eq!(model.dim(), 8*4 + 8 + 3*8 + 3);
/// assert_eq!(model.output_dim(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
    input_shape: FeatureShape,
    head: LossHead,
    output_dim: usize,
    param_offsets: Vec<usize>,
    dim: usize,
    /// The batched flat path through this stack, or `None` when a layer
    /// is [`FlatBatch::Unsupported`] and every sample runs the per-sample
    /// loop.
    flat: Option<FlatPlan>,
}

/// The layers the batched flat path runs, fixed at construction.
#[derive(Debug, Clone)]
struct FlatPlan {
    /// Indices of the [`FlatBatch::Batched`] layers in forward order;
    /// [`FlatBatch::Identity`] layers are left out.
    layers: Vec<usize>,
    /// `widths[0]` is the input row width and `widths[j + 1]` the output
    /// row width of `layers[j]`.
    widths: Vec<usize>,
    /// Position in `layers` of the lowest layer with parameters. The
    /// backward pass stops there: nothing below it needs an input
    /// gradient. `None` when the stack has no parameters.
    lowest_param: Option<usize>,
}

impl FlatPlan {
    fn new(layers: &[Box<dyn Layer>], input: SignalShape) -> Option<FlatPlan> {
        let mut plan = FlatPlan {
            layers: Vec::new(),
            widths: vec![input.len()],
            lowest_param: None,
        };
        let mut shape = input;
        for (li, layer) in layers.iter().enumerate() {
            let next = layer.output_shape(shape);
            match layer.flat_batch() {
                FlatBatch::Unsupported => return None,
                FlatBatch::Identity => {
                    assert_eq!(next.len(), shape.len(), "identity layer changed the width");
                }
                FlatBatch::Batched => {
                    if plan.lowest_param.is_none() && layer.param_len() > 0 {
                        plan.lowest_param = Some(plan.layers.len());
                    }
                    plan.layers.push(li);
                    plan.widths.push(next.len());
                }
            }
            shape = next;
        }
        Some(plan)
    }
}

/// Reusable buffers of the batched flat path.
struct FlatScratch {
    /// `acts[0]` holds the stacked input rows and `acts[j + 1]` the output
    /// rows of the plan's `j`-th layer.
    acts: Vec<Matrix>,
    /// Upstream gradient rows of the layer being differentiated.
    grad: Matrix,
    /// Input-gradient rows that layer writes (then swapped into `grad`).
    grad_in: Matrix,
}

thread_local! {
    /// One scratch per thread rather than per model replica: engines keep
    /// a replica per worker (64 in an 8×8 federation), while only one
    /// replica per thread computes at a time. Every buffer is resized and
    /// fully overwritten before it is read, so results never depend on
    /// what an earlier call left behind.
    static FLAT_SCRATCH: RefCell<FlatScratch> = RefCell::new(FlatScratch {
        acts: Vec::new(),
        grad: Matrix::zeros(0, 0),
        grad_in: Matrix::zeros(0, 0),
    });
}

/// Runs `f` on this thread's scratch. No layer calls back into a
/// `Sequential`, so the scratch is never borrowed twice.
fn with_flat_scratch<R>(f: impl FnOnce(&mut FlatScratch) -> R) -> R {
    FLAT_SCRATCH.with(|cell| f(&mut cell.borrow_mut()))
}

impl Sequential {
    /// Builds and validates a sequential model.
    ///
    /// # Panics
    ///
    /// Panics if the layer stack is empty, if consecutive layer shapes are
    /// incompatible, or if the final output is not flat.
    pub fn new(layers: Vec<Box<dyn Layer>>, input_shape: FeatureShape, head: LossHead) -> Self {
        assert!(
            !layers.is_empty(),
            "sequential model needs at least one layer"
        );
        let input = match input_shape {
            FeatureShape::Flat(d) => SignalShape::Flat(d),
            FeatureShape::Image {
                channels,
                height,
                width,
            } => SignalShape::Image {
                channels,
                height,
                width,
            },
        };
        let mut shape = input;
        for layer in &layers {
            shape = layer.output_shape(shape);
        }
        let output_dim = match shape {
            SignalShape::Flat(d) => d,
            other => panic!("final layer must produce a flat output, got {other:?}"),
        };
        let mut param_offsets = Vec::with_capacity(layers.len());
        let mut dim = 0;
        for layer in &layers {
            param_offsets.push(dim);
            dim += layer.param_len();
        }
        let flat = FlatPlan::new(&layers, input);
        Sequential {
            layers,
            input_shape,
            head,
            output_dim,
            param_offsets,
            dim,
            flat,
        }
    }

    /// Dimension of the model output (e.g. number of classes).
    pub fn output_dim(&self) -> usize {
        self.output_dim
    }

    /// The configured loss head.
    pub fn head(&self) -> LossHead {
        self.head
    }

    /// Number of layers in the stack.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    fn to_signal(&self, features: &Vector) -> Signal {
        match self.input_shape {
            FeatureShape::Flat(d) => {
                assert_eq!(features.len(), d, "feature length mismatch");
                Signal::Flat(features.clone())
            }
            FeatureShape::Image {
                channels,
                height,
                width,
            } => Signal::Image(Tensor4::from_flat_sample(features, channels, height, width)),
        }
    }

    fn forward_with_caches(&self, features: &Vector) -> (Vector, Vec<Cache>) {
        let mut sig = self.to_signal(features);
        let mut caches = Vec::with_capacity(self.layers.len());
        for layer in &self.layers {
            let (next, cache) = layer.forward(&sig);
            sig = next;
            caches.push(cache);
        }
        (sig.expect_flat().clone(), caches)
    }

    /// Head loss of one output row; writes the gradient w.r.t. the output
    /// into `grad`.
    fn head_loss_grad(&self, output: &[f32], target: &Target, grad: &mut [f32]) -> f32 {
        match (self.head, target) {
            (LossHead::SoftmaxCrossEntropy, Target::Class(c)) => {
                ops::softmax_cross_entropy(output, *c, grad)
            }
            (LossHead::MseOneHot, Target::Class(c)) => {
                assert!(*c < output.len(), "one-hot class out of range");
                let mut one_hot = vec![0.0; output.len()];
                one_hot[*c] = 1.0;
                mse_row(output, &one_hot, grad)
            }
            (LossHead::Mse, Target::Regression(y)) => mse_row(output, y.as_slice(), grad),
            (head, target) => {
                panic!("loss head {head:?} is incompatible with target {target:?}")
            }
        }
    }

    /// Batched forward of the `n` samples `rows`: stacks their features
    /// into `acts[0]`, one sample per row in iteration order, then each
    /// plan layer writes its output rows into the next matrix. Features
    /// are stored flat (images in CHW order), so the rows are the samples'
    /// feature vectors as they are. Each output row is bitwise identical to
    /// the per-sample flat forward (the [`FlatBatch`] contract).
    fn forward_flat_batch<I>(
        &self,
        plan: &FlatPlan,
        data: &Dataset,
        rows: I,
        n: usize,
        acts: &mut Vec<Matrix>,
    ) where
        I: Iterator<Item = usize>,
    {
        acts.resize_with(plan.layers.len() + 1, || Matrix::zeros(0, 0));
        let d = plan.widths[0];
        acts[0].reshape(n, d);
        for (row, i) in acts[0].as_mut_slice().chunks_exact_mut(d).zip(rows) {
            let f = data.sample(i).features.as_slice();
            assert_eq!(f.len(), d, "feature length mismatch");
            row.copy_from_slice(f);
        }
        for (j, &li) in plan.layers.iter().enumerate() {
            let (done, rest) = acts.split_at_mut(j + 1);
            rest[0].reshape(n, plan.widths[j + 1]);
            self.layers[li].forward_flat_batch(&done[j], &mut rest[0]);
        }
    }

    /// Batched backward from the output-gradient rows in `scratch.grad`,
    /// layer by layer from the top down to the lowest layer with
    /// parameters. Layers own disjoint gradient segments and each layer
    /// folds its samples in ascending order, so the result is bitwise the
    /// per-sample loop's, which ran sample by sample instead.
    fn backward_flat_batch(&self, plan: &FlatPlan, scratch: &mut FlatScratch, grad: &mut [f32]) {
        let Some(lowest) = plan.lowest_param else {
            return;
        };
        let FlatScratch {
            acts,
            grad: g,
            grad_in,
        } = scratch;
        let n = g.rows();
        for j in (lowest..plan.layers.len()).rev() {
            let li = plan.layers[j];
            let layer = &self.layers[li];
            let start = self.param_offsets[li];
            let seg = &mut grad[start..start + layer.param_len()];
            if j == lowest {
                layer.backward_flat_batch(&acts[j], g, seg, None);
            } else {
                grad_in.reshape(n, plan.widths[j]);
                layer.backward_flat_batch(&acts[j], g, seg, Some(grad_in));
                std::mem::swap(g, grad_in);
            }
        }
    }
}

/// Mean-squared-error head on one row: `ops::mse_loss`, with the gradient
/// `pred − target` (`ops::mse_grad`'s expression) written into `grad`.
fn mse_row(output: &[f32], target: &[f32], grad: &mut [f32]) -> f32 {
    let loss = ops::mse_loss(output, target);
    for ((g, &p), &t) in grad.iter_mut().zip(output).zip(target) {
        *g = p - t;
    }
    loss
}

impl Model for Sequential {
    fn dim(&self) -> usize {
        self.dim
    }

    fn params(&self) -> Vector {
        let mut out = Vec::with_capacity(self.dim);
        for layer in &self.layers {
            layer.write_params(&mut out);
        }
        Vector::from(out)
    }

    fn set_params(&mut self, params: &Vector) {
        assert_eq!(params.len(), self.dim, "set_params length mismatch");
        let mut off = 0;
        for layer in &mut self.layers {
            off += layer.read_params(&params.as_slice()[off..]);
        }
        debug_assert_eq!(off, self.dim);
    }

    fn loss_and_grad(&self, data: &Dataset, indices: &[usize]) -> (f32, Vector) {
        let mut grad = Vector::zeros(self.dim);
        let loss = self.loss_and_grad_into(data, indices, &mut grad);
        (loss, grad)
    }

    fn loss_and_grad_into(&self, data: &Dataset, indices: &[usize], grad: &mut Vector) -> f32 {
        assert!(!indices.is_empty(), "loss_and_grad needs a non-empty batch");
        if grad.len() != self.dim {
            *grad = Vector::zeros(self.dim);
        } else {
            grad.fill(0.0);
        }
        let gslice = grad.as_mut_slice();
        let mut loss_sum = 0.0f32;
        if let Some(plan) = &self.flat {
            // Batched fast path: one GEMM per dense layer forward over the
            // stacked mini-batch, the head row by row in ascending sample
            // order, then one batched backward per layer — bitwise the
            // per-sample loop below.
            let n = indices.len();
            let od = self.output_dim;
            with_flat_scratch(|scratch| {
                self.forward_flat_batch(plan, data, indices.iter().copied(), n, &mut scratch.acts);
                let out = &scratch.acts[plan.layers.len()];
                scratch.grad.reshape(n, od);
                for ((&i, row), g_row) in indices
                    .iter()
                    .zip(out.as_slice().chunks_exact(od))
                    .zip(scratch.grad.as_mut_slice().chunks_exact_mut(od))
                {
                    loss_sum += self.head_loss_grad(row, &data.sample(i).target, g_row);
                }
                self.backward_flat_batch(plan, scratch, gslice);
            });
        } else {
            for &i in indices {
                let sample = data.sample(i);
                let (output, caches) = self.forward_with_caches(&sample.features);
                let mut g_out = Vector::zeros(output.len());
                loss_sum +=
                    self.head_loss_grad(output.as_slice(), &sample.target, g_out.as_mut_slice());
                let mut g = Signal::Flat(g_out);
                for (li, layer) in self.layers.iter().enumerate().rev() {
                    let start = self.param_offsets[li];
                    let end = start + layer.param_len();
                    g = layer.backward(&caches[li], &g, &mut gslice[start..end]);
                }
            }
        }
        let inv = 1.0 / indices.len() as f32;
        grad.scale_in_place(inv);
        loss_sum * inv
    }

    fn output(&self, features: &Vector) -> Vector {
        let mut sig = self.to_signal(features);
        for layer in &self.layers {
            let (next, _) = layer.forward(&sig);
            sig = next;
        }
        sig.expect_flat().clone()
    }

    fn evaluate_range(&self, data: &Dataset, range: Range<usize>) -> EvalSums {
        let Some(plan) = &self.flat else {
            return evaluate_range_serial(self, data, range);
        };
        // Batched eval: forward row-tiles through one GEMM per dense
        // layer, then score rows in ascending sample order — the exact
        // accumulation sequence of the serial path, so chunked parallel
        // eval stays bitwise reproducible.
        let mut sums = EvalSums::default();
        let od = self.output_dim;
        with_flat_scratch(|scratch| {
            let mut start = range.start;
            while start < range.end {
                let end = (start + EVAL_GEMM_TILE).min(range.end);
                self.forward_flat_batch(plan, data, start..end, end - start, &mut scratch.acts);
                let out = &scratch.acts[plan.layers.len()];
                for (i, row) in (start..end).zip(out.as_slice().chunks_exact(od)) {
                    score_sample(&mut sums, row, &data.sample(i).target);
                }
                start = end;
            }
        });
        sums
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{Dense, Relu};
    use hieradmo_data::Sample;
    use rand::SeedableRng;

    fn mlp(seed: u64) -> Sequential {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let layers: Vec<Box<dyn Layer>> = vec![
            Box::new(Dense::new(
                hieradmo_tensor::init::xavier_matrix(&mut rng, 6, 3),
                Vector::zeros(6),
            )),
            Box::new(Relu::new()),
            Box::new(Dense::new(
                hieradmo_tensor::init::xavier_matrix(&mut rng, 2, 6),
                Vector::zeros(2),
            )),
        ];
        Sequential::new(layers, FeatureShape::Flat(3), LossHead::SoftmaxCrossEntropy)
    }

    fn xor_ish_data() -> Dataset {
        Dataset::new(
            vec![
                Sample {
                    features: Vector::from(vec![1.0, 0.0, 0.5]),
                    target: Target::Class(0),
                },
                Sample {
                    features: Vector::from(vec![0.0, 1.0, -0.5]),
                    target: Target::Class(1),
                },
                Sample {
                    features: Vector::from(vec![0.9, 0.1, 0.4]),
                    target: Target::Class(0),
                },
                Sample {
                    features: Vector::from(vec![0.1, 0.9, -0.4]),
                    target: Target::Class(1),
                },
            ],
            FeatureShape::Flat(3),
            2,
        )
    }

    #[test]
    fn params_roundtrip() {
        let mut m = mlp(1);
        let p = m.params();
        assert_eq!(p.len(), m.dim());
        let shifted = &p + &Vector::filled(p.len(), 0.5);
        m.set_params(&shifted);
        assert_eq!(m.params(), shifted);
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let m = mlp(2);
        let data = xor_ish_data();
        let idx = [0usize, 1, 2, 3];
        let (_, g) = m.loss_and_grad(&data, &idx);
        let p = m.params();
        let eps = 1e-2f32;
        // Spot-check a handful of coordinates.
        for &k in &[0usize, 5, 11, g.len() - 1] {
            let mut mp = m.clone();
            let mut pp = p.clone();
            pp[k] += eps;
            mp.set_params(&pp);
            let lp = mp.loss(&data, &idx);
            let mut pm = p.clone();
            pm[k] -= eps;
            mp.set_params(&pm);
            let lm = mp.loss(&data, &idx);
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (g[k] - fd).abs() < 2e-2,
                "coordinate {k}: analytic {} vs fd {fd}",
                g[k]
            );
        }
    }

    #[test]
    fn loss_and_grad_into_reuses_buffer_bitwise() {
        let m = mlp(7);
        let data = xor_ish_data();
        let (loss, grad) = m.loss_and_grad(&data, &[0, 1, 2]);
        // Seed the buffer with garbage of the right length: the override
        // must zero it, not accumulate on top.
        let mut buf = Vector::filled(m.dim(), 123.0);
        let loss_into = m.loss_and_grad_into(&data, &[0, 1, 2], &mut buf);
        assert_eq!(loss, loss_into);
        assert_eq!(grad.as_slice(), buf.as_slice());
        // Wrong-length buffers are resized rather than trusted.
        let mut short = Vector::zeros(1);
        let loss_short = m.loss_and_grad_into(&data, &[0, 1, 2], &mut short);
        assert_eq!(loss, loss_short);
        assert_eq!(grad.as_slice(), short.as_slice());
    }

    #[test]
    fn sgd_learns_separable_problem() {
        let mut m = mlp(3);
        let data = xor_ish_data();
        let idx: Vec<usize> = (0..data.len()).collect();
        let initial = m.loss(&data, &idx);
        for _ in 0..200 {
            let (_, g) = m.loss_and_grad(&data, &idx);
            let mut p = m.params();
            p.axpy(-0.5, &g);
            m.set_params(&p);
        }
        let final_loss = m.loss(&data, &idx);
        assert!(
            final_loss < initial * 0.2,
            "loss should drop: {initial} -> {final_loss}"
        );
        assert_eq!(m.evaluate(&data).accuracy, 1.0);
    }

    #[test]
    fn mse_one_hot_head_works() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let layers: Vec<Box<dyn Layer>> = vec![Box::new(Dense::new(
            hieradmo_tensor::init::xavier_matrix(&mut rng, 2, 3),
            Vector::zeros(2),
        ))];
        let m = Sequential::new(layers, FeatureShape::Flat(3), LossHead::MseOneHot);
        let data = xor_ish_data();
        let (loss, g) = m.loss_and_grad(&data, &[0]);
        assert!(loss >= 0.0);
        assert_eq!(g.len(), m.dim());
    }

    #[test]
    #[should_panic(expected = "incompatible with target")]
    fn head_target_mismatch_panics() {
        let m = mlp(5);
        let data = Dataset::new(
            vec![Sample {
                features: Vector::from(vec![0.0, 0.0, 0.0]),
                target: Target::Regression(Vector::from(vec![1.0])),
            }],
            FeatureShape::Flat(3),
            0,
        );
        let _ = m.loss_and_grad(&data, &[0]);
    }

    #[test]
    #[should_panic(expected = "needs a non-empty batch")]
    fn empty_batch_panics() {
        let m = mlp(6);
        let _ = m.loss_and_grad(&xor_ish_data(), &[]);
    }

    /// Replays the per-sample loop exactly as the serial branch runs it,
    /// with the loss head spelled out through `ops::cross_entropy_loss`
    /// and `ops::cross_entropy_grad`.
    fn per_sample_loss_and_grad(m: &Sequential, data: &Dataset, idx: &[usize]) -> (f32, Vector) {
        assert_eq!(m.head, LossHead::SoftmaxCrossEntropy);
        let mut ref_grad = Vector::zeros(m.dim());
        let gs = ref_grad.as_mut_slice();
        let mut loss_sum = 0.0f32;
        for &i in idx {
            let sample = data.sample(i);
            let (output, caches) = m.forward_with_caches(&sample.features);
            let Target::Class(c) = sample.target else {
                panic!("classification fixture")
            };
            loss_sum += ops::cross_entropy_loss(output.as_slice(), c);
            let mut g = Signal::Flat(ops::cross_entropy_grad(&output, c));
            for (li, layer) in m.layers.iter().enumerate().rev() {
                let start = m.param_offsets[li];
                let end = start + layer.param_len();
                g = layer.backward(&caches[li], &g, &mut gs[start..end]);
            }
        }
        let inv = 1.0 / idx.len() as f32;
        ref_grad.scale_in_place(inv);
        (loss_sum * inv, ref_grad)
    }

    fn assert_batched_equals_per_sample(m: &Sequential, data: &Dataset, idx: &[usize]) {
        assert!(m.flat.is_some());
        let (ref_loss, ref_grad) = per_sample_loss_and_grad(m, data, idx);
        let (loss, grad) = m.loss_and_grad(data, idx);
        assert_eq!(
            loss.to_bits(),
            ref_loss.to_bits(),
            "loss, batch {}",
            idx.len()
        );
        assert_eq!(grad.len(), ref_grad.len());
        for (k, (a, b)) in grad.iter().zip(ref_grad.iter()).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "coordinate {k}, batch {}",
                idx.len()
            );
        }
    }

    fn assert_eval_equals_serial(m: &Sequential, data: &Dataset, range: Range<usize>) {
        let batched = m.evaluate_range(data, range.clone());
        let serial = evaluate_range_serial(m, data, range);
        assert_eq!(batched.loss_sum.to_bits(), serial.loss_sum.to_bits());
        assert_eq!(batched.correct, serial.correct);
        assert_eq!(batched.count, serial.count);
    }

    /// The batched flat path (stacked GEMM forward, batched backward) must
    /// reproduce the per-sample loop bit for bit — losses, gradients, and
    /// evaluation sums — on flat input and on the image-shaped benchmark
    /// models, whose leading `Flatten` the batched path skips.
    #[test]
    fn batched_flat_path_is_bitwise_equal_to_the_per_sample_loop() {
        let m = mlp(9);
        let data = xor_ish_data();
        assert_batched_equals_per_sample(&m, &data, &[0, 1, 2, 3, 1]);
        assert_eval_equals_serial(&m, &data, 0..data.len());

        let tt = hieradmo_data::synthetic::SyntheticDataset::mnist_like(8, 8, 3);
        assert!(
            crate::zoo::cnn(&tt.train, 1).flat.is_none(),
            "conv stacks stay per sample"
        );
        let models = [
            crate::zoo::logistic_regression(&tt.train, 11),
            crate::zoo::mlp(&tt.train, 24, 12),
        ];
        for m in &models {
            for batch in [1usize, 3, 8, 32] {
                let idx: Vec<usize> = (0..batch).map(|s| (s * 13 + 5) % tt.train.len()).collect();
                assert_batched_equals_per_sample(m, &tt.train, &idx);
            }
            assert_eval_equals_serial(m, &tt.test, 0..tt.test.len());
            assert_eval_equals_serial(m, &tt.test, 3..tt.test.len() - 2);
        }
    }
}
