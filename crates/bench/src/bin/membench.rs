//! Memory-plane A/B harness (PR 5).
//!
//! Measures the kernels and end-to-end steps named by the PR 5 acceptance
//! criteria and prints one JSON object of per-metric **median microseconds**
//! over a fixed number of in-process repetitions. The interleaved
//! same-window protocol from `BENCH_pr2.json` runs this binary alternately
//! from the saved previous-PR build and the current build for several
//! rounds and compares medians across rounds, so host contention hits both
//! sides equally in expectation.
//!
//! Run with `cargo run -p tsdx-bench --release --bin membench`.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use tsdx_bench::standard_clips;
use tsdx_core::{multitask_loss, ClipModel, LossWeights, ModelConfig, VideoScenarioTransformer};
use tsdx_data::collate;
use tsdx_tensor::ops::{self, Conv2dSpec};
use tsdx_tensor::{pool, Graph, Tensor};

/// Median of `reps` timed runs of `f`, in microseconds.
fn median_us<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    // One untimed warm-up rep per metric: first-touch page faults and lazy
    // pool/env initialization are not steady state.
    f();
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    times[times.len() / 2]
}

fn main() {
    let model = VideoScenarioTransformer::new(ModelConfig::default(), 0);
    let clips = standard_clips(8);
    let refs: Vec<&tsdx_data::Clip> = clips.iter().collect();
    let batch = collate(&refs);
    let clip8 = Tensor::from_fn(&[8, 8, 32, 32], |i| (i % 97) as f32 / 97.0);

    let a64 = Tensor::from_fn(&[64, 64], |i| ((i * 17) % 31) as f32 * 0.03 - 0.45);
    let b64 = Tensor::from_fn(&[64, 64], |i| ((i * 13) % 29) as f32 * 0.03 - 0.4);
    let a256 = Tensor::from_fn(&[256, 256], |i| ((i * 17) % 31) as f32 * 0.03 - 0.45);
    let b256 = Tensor::from_fn(&[256, 256], |i| ((i * 13) % 29) as f32 * 0.03 - 0.4);

    let q = Tensor::from_fn(&[32, 17, 16], |i| (i % 19) as f32 * 0.05 - 0.45);
    let k = Tensor::from_fn(&[32, 17, 16], |i| (i % 23) as f32 * 0.04 - 0.4);
    let v = Tensor::from_fn(&[32, 17, 16], |i| (i % 29) as f32 * 0.03 - 0.4);
    let scale = 1.0 / 4.0;
    let gout = Tensor::from_fn(&[32, 17, 16], |i| (i % 13) as f32 * 0.02 - 0.1);

    let sm_in = Tensor::from_fn(&[8, 17, 17], |i| (i % 11) as f32 * 0.2 - 1.0);
    let ln_in = Tensor::from_fn(&[8, 17, 64], |i| (i % 23) as f32 * 0.04 - 0.4);
    let gamma = Tensor::ones(&[64]);
    let beta = Tensor::zeros(&[64]);
    let img = Tensor::from_fn(&[8, 1, 32, 32], |i| (i % 7) as f32 * 0.1);
    let wconv = Tensor::from_fn(&[8, 1, 3, 3], |i| (i % 5) as f32 * 0.05 - 0.1);
    let xsplit = Tensor::from_fn(&[8, 17, 4, 16], |i| (i % 19) as f32 * 0.05 - 0.45);

    let w1 = Tensor::from_fn(&[64, 128], |i| ((i * 7) % 13) as f32 * 0.01 - 0.06);
    let w2 = Tensor::from_fn(&[128, 10], |i| ((i * 5) % 11) as f32 * 0.01 - 0.05);
    let xmlp = Tensor::from_fn(&[32, 64], |i| (i % 17) as f32 * 0.05 - 0.4);
    let labels: Vec<usize> = (0..32).map(|i| i % 10).collect();

    let fwd = |videos: &Tensor| {
        let mut g = Graph::new();
        let p = model.params().bind_frozen(&mut g);
        let mut rng = StdRng::seed_from_u64(0);
        let logits = model.forward(&mut g, &p, videos, &mut rng, false);
        std::hint::black_box(g.value(logits.ego).sum());
    };
    let step = || {
        let mut g = Graph::new();
        let binding = model.params().bind(&mut g);
        let mut rng = StdRng::seed_from_u64(1);
        let logits = model.forward(&mut g, &binding, &batch.videos, &mut rng, true);
        let loss = multitask_loss(&mut g, &logits, &batch, &LossWeights::default());
        let grads = g.backward(loss);
        std::hint::black_box(model.params().collect_grads(&binding, &grads));
    };

    let mut out: Vec<(&str, f64)> = Vec::new();

    out.push((
        "matmul_64x64x64_us",
        median_us(40, || {
            std::hint::black_box(ops::matmul(&a64, &b64));
        }),
    ));
    out.push((
        "matmul_256x256x256_us",
        median_us(15, || {
            std::hint::black_box(ops::matmul(&a256, &b256));
        }),
    ));
    out.push((
        "matmul_256x256x256_t2_us",
        median_us(15, || {
            std::hint::black_box(ops::matmul_with_threads(&a256, &b256, 2));
        }),
    ));
    // Transposed-B 256^3: exercises the strided-operand path (dot kernel
    // before PR 5, packed panels after).
    let b256t = ops::transpose_last2(&b256);
    out.push((
        "matmul_256x256x256_bt_us",
        median_us(15, || {
            std::hint::black_box(ops::matmul(&a256, &b256t));
        }),
    ));
    out.push((
        "head_split_view_us",
        median_us(40, || {
            let heads = ops::permute(&xsplit, &[0, 2, 1, 3]);
            let kt = ops::transpose_last2(&heads);
            std::hint::black_box(ops::matmul(&heads, &kt));
        }),
    ));
    out.push((
        "attention_fused_32x17x16_us",
        median_us(60, || {
            std::hint::black_box(ops::attention(&q, &k, &v, 1, scale));
        }),
    ));
    out.push((
        "attention_composed_32x17x16_us",
        median_us(60, || {
            let kt = ops::transpose_last2(&k);
            let s = ops::scale(&ops::matmul(&q, &kt), scale);
            let p = ops::softmax_last(&s);
            std::hint::black_box(ops::matmul(&p, &v));
        }),
    ));
    let probs = ops::attention_with_probs(&q, &k, &v, 1, scale).1;
    out.push((
        "attention_fused_backward_32x17x16_us",
        median_us(40, || {
            std::hint::black_box(ops::attention_backward(&probs, &q, &k, &v, 1, scale, &gout));
        }),
    ));
    out.push((
        "softmax_8x17x17_us",
        median_us(60, || {
            std::hint::black_box(ops::softmax_last(&sm_in));
        }),
    ));
    out.push((
        "layernorm_8x17x64_us",
        median_us(60, || {
            let mut g = Graph::new();
            let x = g.constant(ln_in.clone());
            let ga = g.constant(gamma.clone());
            let be = g.constant(beta.clone());
            std::hint::black_box(g.layer_norm(x, ga, be, 1e-5));
        }),
    ));
    out.push((
        "conv2d_8x1x32x32_k3_us",
        median_us(30, || {
            std::hint::black_box(ops::conv2d(&img, &wconv, &Conv2dSpec::new(3, 1, 1)));
        }),
    ));
    out.push((
        "autograd_mlp_step_64x128_us",
        median_us(30, || {
            let mut g = Graph::new();
            let w1v = g.leaf(w1.clone());
            let w2v = g.leaf(w2.clone());
            let xv = g.constant(xmlp.clone());
            let h = g.matmul(xv, w1v);
            let h = g.gelu(h);
            let logits = g.matmul(h, w2v);
            let loss = g.cross_entropy(logits, &labels);
            std::hint::black_box(g.backward(loss));
        }),
    ));
    out.push(("table4_batch8_fwd_us", median_us(9, || fwd(&clip8))));
    for threads in [1usize, 2, 4] {
        let key: &'static str = match threads {
            1 => "encoder_threads_batch8_t1_us",
            2 => "encoder_threads_batch8_t2_us",
            _ => "encoder_threads_batch8_t4_us",
        };
        out.push((
            key,
            median_us(9, || {
                pool::with_forced_threads(threads, || fwd(&clip8));
            }),
        ));
    }
    out.push(("table4_batch8_step_us", median_us(9, step)));

    println!("{{");
    for (i, (k, us)) in out.iter().enumerate() {
        let comma = if i + 1 == out.len() { "" } else { "," };
        println!("  \"{k}\": {us:.1}{comma}");
    }
    println!("}}");
}
