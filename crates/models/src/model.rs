//! The [`Model`] trait: the flat-parameter interface every federated
//! algorithm is written against.

use std::ops::Range;

use hieradmo_data::{Dataset, Target};
use hieradmo_tensor::{ops, Vector};

/// Loss and accuracy of a model over a dataset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Evaluation {
    /// Mean loss over the dataset.
    pub loss: f64,
    /// Classification accuracy in `[0, 1]`; for pure-regression datasets
    /// this is the fraction of samples with prediction error below 0.5 per
    /// output (a serviceable "accuracy" analogue used only for reporting).
    pub accuracy: f64,
}

/// Unreduced evaluation sums over a slice of a dataset.
///
/// Partial sums from disjoint ranges can be [merged](EvalSums::merge) and
/// [finished](EvalSums::finish) into an [`Evaluation`]; the execution
/// engine evaluates fixed-size chunks in parallel and reduces them in a
/// fixed order so results are independent of thread count.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EvalSums {
    /// Sum of per-sample losses.
    pub loss_sum: f64,
    /// Number of correctly classified (or within-tolerance) samples.
    pub correct: usize,
    /// Number of samples covered.
    pub count: usize,
}

impl EvalSums {
    /// Folds another partial sum into this one. Reduction order matters for
    /// the `f64` loss sum; callers wanting determinism must merge in a
    /// fixed (e.g. chunk-index) order.
    pub fn merge(&mut self, other: &EvalSums) {
        self.loss_sum += other.loss_sum;
        self.correct += other.correct;
        self.count += other.count;
    }

    /// Reduces the sums to mean loss and accuracy (empty sums give zeros).
    pub fn finish(&self) -> Evaluation {
        let n = self.count.max(1) as f64;
        Evaluation {
            loss: self.loss_sum / n,
            accuracy: self.correct as f64 / n,
        }
    }
}

/// A trainable model seen through a flat parameter vector.
///
/// The federated algorithms in `hieradmo-core` call nothing but these
/// methods, so adding a model family automatically makes it available to
/// all eleven algorithms.
pub trait Model: Send {
    /// Number of scalar parameters.
    fn dim(&self) -> usize;

    /// Snapshots the parameters as a flat vector of length [`Model::dim`].
    fn params(&self) -> Vector;

    /// Overwrites the parameters from a flat vector.
    ///
    /// # Panics
    ///
    /// Panics if `params.len() != self.dim()`.
    fn set_params(&mut self, params: &Vector);

    /// Mean loss and mean gradient over the given mini-batch of `data`.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range or `indices` is empty.
    fn loss_and_grad(&self, data: &Dataset, indices: &[usize]) -> (f32, Vector);

    /// Like [`Model::loss_and_grad`], but writes the gradient into `grad`
    /// instead of allocating a fresh vector.
    ///
    /// The default implementation delegates to [`Model::loss_and_grad`] and
    /// copies, so existing models keep working unchanged; allocation-aware
    /// models (e.g. `Sequential`) override it to accumulate directly into
    /// the buffer, making the training loop's gradient path allocation-free
    /// in steady state. The numeric result must be identical to
    /// [`Model::loss_and_grad`].
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range or `indices` is empty.
    fn loss_and_grad_into(&self, data: &Dataset, indices: &[usize], grad: &mut Vector) -> f32 {
        let (loss, g) = self.loss_and_grad(data, indices);
        grad.copy_from(&g);
        loss
    }

    /// Raw model output for one feature vector (logits for classification
    /// heads, predictions for regression heads).
    fn output(&self, features: &Vector) -> Vector;

    /// Mean loss over a mini-batch (no gradient).
    fn loss(&self, data: &Dataset, indices: &[usize]) -> f32 {
        self.loss_and_grad(data, indices).0
    }

    /// Evaluates mean loss and accuracy over an entire dataset.
    fn evaluate(&self, data: &Dataset) -> Evaluation {
        self.evaluate_range(data, 0..data.len()).finish()
    }

    /// Unreduced loss/accuracy sums over `range` of `data` — the partial
    /// evaluation primitive behind deterministic parallel eval.
    ///
    /// Summing [`EvalSums`] from a fixed chunking of `0..data.len()` in
    /// chunk order reproduces [`Model::evaluate`]'s `f64` accumulation
    /// exactly for that chunking, regardless of which thread computed which
    /// chunk.
    ///
    /// # Panics
    ///
    /// Panics if `range` reaches past the end of `data`.
    fn evaluate_range(&self, data: &Dataset, range: Range<usize>) -> EvalSums {
        evaluate_range_serial(self, data, range)
    }
}

/// The per-sample loop backing the [`Model::evaluate_range`] default —
/// exposed so implementations with a batched fast path (see
/// [`crate::Sequential`]) can fall back to the identical serial scoring
/// for architectures the fast path does not cover.
pub fn evaluate_range_serial<M: Model + ?Sized>(
    model: &M,
    data: &Dataset,
    range: Range<usize>,
) -> EvalSums {
    let mut sums = EvalSums::default();
    for i in range {
        let sample = data.sample(i);
        let out = model.output(&sample.features);
        score_sample(&mut sums, out.as_slice(), &sample.target);
    }
    sums
}

/// Scores one model output against its target into `sums` — the shared
/// per-sample accumulation step of serial and batched evaluation (the
/// accumulation order over samples is what makes chunked parallel eval
/// bitwise reproducible, so every eval path must run exactly this).
/// Takes the output as a slice so batched evaluation can score the rows of
/// its stacked output in place.
pub fn score_sample(sums: &mut EvalSums, out: &[f32], target: &Target) {
    match target {
        Target::Class(c) => {
            sums.loss_sum += f64::from(ops::cross_entropy_loss(out, *c));
            if ops::argmax(out) == *c {
                sums.correct += 1;
            }
        }
        Target::Regression(y) => {
            sums.loss_sum += f64::from(ops::mse_loss(out, y.as_slice()));
            let close = out.iter().zip(y.iter()).all(|(p, t)| (p - t).abs() < 0.5);
            if close {
                sums.correct += 1;
            }
        }
    }
    sums.count += 1;
}

#[cfg(test)]
mod tests {
    use super::*;
    use hieradmo_data::{FeatureShape, Sample};

    /// A minimal hand-rolled model for exercising trait defaults: a single
    /// scalar weight, output = [w * x0, -w * x0].
    #[derive(Debug, Clone)]
    struct Toy {
        w: f32,
    }

    impl Model for Toy {
        fn dim(&self) -> usize {
            1
        }
        fn params(&self) -> Vector {
            Vector::from(vec![self.w])
        }
        fn set_params(&mut self, p: &Vector) {
            assert_eq!(p.len(), 1);
            self.w = p[0];
        }
        fn loss_and_grad(&self, data: &Dataset, indices: &[usize]) -> (f32, Vector) {
            assert!(!indices.is_empty());
            let mut loss = 0.0;
            let mut g = 0.0;
            for &i in indices {
                let s = data.sample(i);
                let out = self.output(&s.features);
                let c = s.target.class().expect("toy is classification-only");
                loss += ops::cross_entropy_loss(out.as_slice(), c);
                let gl = ops::cross_entropy_grad(&out, c);
                // d out0/dw = x0, d out1/dw = -x0
                g += (gl[0] - gl[1]) * s.features[0];
            }
            let n = indices.len() as f32;
            (loss / n, Vector::from(vec![g / n]))
        }
        fn output(&self, features: &Vector) -> Vector {
            Vector::from(vec![self.w * features[0], -self.w * features[0]])
        }
    }

    fn toy_data() -> Dataset {
        Dataset::new(
            vec![
                Sample {
                    features: Vector::from(vec![1.0]),
                    target: Target::Class(0),
                },
                Sample {
                    features: Vector::from(vec![-1.0]),
                    target: Target::Class(1),
                },
            ],
            FeatureShape::Flat(1),
            2,
        )
    }

    #[test]
    fn evaluate_reports_perfect_accuracy_for_separating_weight() {
        let m = Toy { w: 5.0 };
        let eval = m.evaluate(&toy_data());
        assert_eq!(eval.accuracy, 1.0);
        assert!(eval.loss < 0.01);
    }

    #[test]
    fn evaluate_range_chunks_reassemble_full_evaluation() {
        let m = Toy { w: 0.7 };
        let data = toy_data();
        let full = m.evaluate(&data);
        let mut sums = m.evaluate_range(&data, 0..1);
        sums.merge(&m.evaluate_range(&data, 1..2));
        let merged = sums.finish();
        assert_eq!(merged.accuracy, full.accuracy);
        assert!((merged.loss - full.loss).abs() < 1e-12);
    }

    #[test]
    fn empty_eval_sums_finish_to_zeros() {
        let e = EvalSums::default().finish();
        assert_eq!(e.loss, 0.0);
        assert_eq!(e.accuracy, 0.0);
    }

    #[test]
    fn default_loss_and_grad_into_matches_allocating_form() {
        let m = Toy { w: 0.3 };
        let data = toy_data();
        let (loss, grad) = m.loss_and_grad(&data, &[0, 1]);
        let mut buf = Vector::zeros(1);
        let loss_into = m.loss_and_grad_into(&data, &[0, 1], &mut buf);
        assert_eq!(loss, loss_into);
        assert_eq!(grad.as_slice(), buf.as_slice());
    }

    #[test]
    fn default_loss_matches_loss_and_grad() {
        let m = Toy { w: 0.3 };
        let data = toy_data();
        assert_eq!(m.loss(&data, &[0, 1]), m.loss_and_grad(&data, &[0, 1]).0);
    }

    #[test]
    fn gradient_descends_loss() {
        let mut m = Toy { w: 0.0 };
        let data = toy_data();
        for _ in 0..50 {
            let (_, g) = m.loss_and_grad(&data, &[0, 1]);
            let mut p = m.params();
            p.axpy(-0.5, &g);
            m.set_params(&p);
        }
        assert!(m.evaluate(&data).accuracy == 1.0);
        assert!(m.w > 1.0, "weight should have grown positive: {}", m.w);
    }
}
