//! Isolated calls into `hieradmo::tensor::kernels` at the workloads'
//! shapes: the dense layer's forward product and the edge aggregation
//! kernels at logistic regression's width on MNIST (784·10 + 10).

use std::hint::black_box;
use std::time::Instant;

use hieradmo::tensor::kernels;

const FEATURES: usize = 784;
const CLASSES: usize = 10;
const DIM: usize = FEATURES * CLASSES + CLASSES;
/// Timed batches per kernel; the result is their median.
const BATCHES: usize = 21;
/// Calls per timed batch.
const CALLS: usize = 50;

/// Deterministic values in `[-1, 1)`.
fn values(n: usize, salt: u64) -> Vec<f32> {
    let mut s = salt.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    (0..n)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 40) as f32 / (1u64 << 23) as f32 - 1.0
        })
        .collect()
}

/// Median microseconds per call of `f`.
fn per_call_us(mut f: impl FnMut()) -> f64 {
    f();
    let mut us: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..CALLS {
                f();
            }
            start.elapsed().as_secs_f64() * 1e6 / CALLS as f64
        })
        .collect();
    us.sort_by(f64::total_cmp);
    us[BATCHES / 2]
}

/// `batch × 784 · 784 × 10`, the dense layer's forward product.
pub fn matmul_bt_us(batch: usize) -> f64 {
    let a = values(batch * FEATURES, 1);
    let bt = values(CLASSES * FEATURES, 2);
    let mut out = vec![0.0; batch * CLASSES];
    per_call_us(|| {
        kernels::matmul_bt(
            black_box(&a),
            black_box(&bt),
            &mut out,
            batch,
            CLASSES,
            FEATURES,
        );
        black_box(&out);
    })
}

/// An edge's data-weighted fold of `fan_in` worker vectors.
pub fn weighted_sum_batch_us(fan_in: usize) -> f64 {
    let vs: Vec<Vec<f32>> = (0..fan_in).map(|k| values(DIM, 10 + k as u64)).collect();
    let inputs: Vec<&[f32]> = vs.iter().map(Vec::as_slice).collect();
    let weights = vec![1.0 / fan_in as f64; fan_in];
    let mut acc = vec![0.0f64; DIM];
    per_call_us(|| {
        acc.fill(0.0);
        kernels::weighted_sum_batch(&mut acc, black_box(&weights), black_box(&inputs));
        black_box(&acc);
    })
}

/// The Eq. 6–7 mean-and-lookahead pass of one edge aggregation.
pub fn fused_aggregate_momentum_us() -> f64 {
    let acc: Vec<f64> = values(DIM, 3).into_iter().map(f64::from).collect();
    let y_old = values(DIM, 4);
    let mut mean = vec![0.0; DIM];
    let mut looked = vec![0.0; DIM];
    per_call_us(|| {
        kernels::fused_aggregate_momentum(
            black_box(&acc),
            1.0,
            0.5,
            black_box(&y_old),
            &mut mean,
            &mut looked,
        );
        black_box((&mean, &looked));
    })
}
