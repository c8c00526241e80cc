//! Micro-benchmarks of the tensor substrate: the kernels that dominate
//! training time (matmul, softmax, layer norm, im2col convolution) and one
//! full autograd step.
//!
//! Run with `cargo bench -p tsdx-bench --bench tensor_ops`.

use criterion::{criterion_group, criterion_main, Criterion};
use tsdx_tensor::ops::{self, Conv2dSpec};
use tsdx_tensor::{Graph, Tensor};

fn bench_kernels(c: &mut Criterion) {
    let a64 = Tensor::from_fn(&[64, 64], |i| ((i * 17) % 31) as f32 * 0.03 - 0.45);
    let b64 = Tensor::from_fn(&[64, 64], |i| ((i * 13) % 29) as f32 * 0.03 - 0.4);
    let a256 = Tensor::from_fn(&[256, 256], |i| ((i * 17) % 31) as f32 * 0.03 - 0.45);
    let b256 = Tensor::from_fn(&[256, 256], |i| ((i * 13) % 29) as f32 * 0.03 - 0.4);
    let batched = Tensor::from_fn(&[8, 17, 64], |i| (i % 23) as f32 * 0.04 - 0.4);

    let mut group = c.benchmark_group("matmul");
    group.bench_function("64x64x64", |b| b.iter(|| std::hint::black_box(ops::matmul(&a64, &b64))));
    group.sample_size(20);
    group.bench_function("256x256x256", |b| {
        b.iter(|| std::hint::black_box(ops::matmul(&a256, &b256)))
    });
    for threads in [1usize, 2, ops::configured_threads()] {
        group.bench_function(format!("256x256x256_t{threads}"), |b| {
            b.iter(|| std::hint::black_box(ops::matmul_with_threads(&a256, &b256, threads)))
        });
    }
    group.finish();

    // Strided views vs forced materialization: the same permute+narrow+matmul
    // chain, once consuming views directly and once copying after every
    // layout op (the pre-view behaviour).
    let mut group = c.benchmark_group("views");
    let x = Tensor::from_fn(&[8, 17, 4, 16], |i| (i % 19) as f32 * 0.05 - 0.45);
    group.bench_function("head_split_view", |b| {
        b.iter(|| {
            let heads = ops::permute(&x, &[0, 2, 1, 3]); // [8, 4, 17, 16]
            let kt = ops::transpose_last2(&heads);
            std::hint::black_box(ops::matmul(&heads, &kt))
        })
    });
    group.bench_function("head_split_copy", |b| {
        b.iter(|| {
            let heads = ops::permute(&x, &[0, 2, 1, 3]).contiguous();
            let kt = ops::transpose_last2(&heads).contiguous();
            std::hint::black_box(ops::matmul(&heads, &kt))
        })
    });
    group.bench_function("narrow_chain_view", |b| {
        b.iter(|| {
            let mut acc = 0.0f32;
            for t in 0..17 {
                acc += ops::narrow(&x, 1, t, 1).sum();
            }
            std::hint::black_box(acc)
        })
    });
    group.bench_function("narrow_chain_copy", |b| {
        b.iter(|| {
            let mut acc = 0.0f32;
            for t in 0..17 {
                acc += ops::narrow(&x, 1, t, 1).contiguous().sum();
            }
            std::hint::black_box(acc)
        })
    });
    group.finish();

    let mut group = c.benchmark_group("rowwise");
    group.bench_function("softmax_8x17x17", |b| {
        let t = Tensor::from_fn(&[8, 17, 17], |i| (i % 11) as f32 * 0.2 - 1.0);
        b.iter(|| std::hint::black_box(ops::softmax_last(&t)))
    });
    group.bench_function("layernorm_8x17x64", |b| {
        let gamma = Tensor::ones(&[64]);
        let beta = Tensor::zeros(&[64]);
        b.iter(|| {
            let mut g = Graph::new();
            let x = g.constant(batched.clone());
            let ga = g.constant(gamma.clone());
            let be = g.constant(beta.clone());
            std::hint::black_box(g.layer_norm(x, ga, be, 1e-5));
        })
    });
    group.finish();

    // The attention op vs the composed matmul/scale/softmax/matmul chain it
    // replaced on the table-4 head geometry ([B*H, T, Dh] = 8 clips x 4 heads,
    // 17 tokens, width 16).
    let mut group = c.benchmark_group("attention");
    let q = Tensor::from_fn(&[32, 17, 16], |i| (i % 19) as f32 * 0.05 - 0.45);
    let k = Tensor::from_fn(&[32, 17, 16], |i| (i % 23) as f32 * 0.04 - 0.4);
    let v = Tensor::from_fn(&[32, 17, 16], |i| (i % 29) as f32 * 0.03 - 0.4);
    let scale = 1.0 / 4.0;
    group.bench_function("fused_32x17x16", |b| {
        b.iter(|| std::hint::black_box(ops::attention(&q, &k, &v, 1, scale)))
    });
    group.bench_function("composed_32x17x16", |b| {
        b.iter(|| {
            let kt = ops::transpose_last2(&k);
            let s = ops::scale(&ops::matmul(&q, &kt), scale);
            let p = ops::softmax_last(&s);
            std::hint::black_box(ops::matmul(&p, &v))
        })
    });
    group.bench_function("fused_backward_32x17x16", |b| {
        let g = Tensor::from_fn(&[32, 17, 16], |i| (i % 13) as f32 * 0.02 - 0.1);
        let probs = ops::attention_with_probs(&q, &k, &v, 1, scale).1;
        b.iter(|| std::hint::black_box(ops::attention_backward(&probs, &q, &k, &v, 1, scale, &g)))
    });
    group.finish();

    let mut group = c.benchmark_group("conv");
    group.bench_function("conv2d_8x1x32x32_k3", |b| {
        let img = Tensor::from_fn(&[8, 1, 32, 32], |i| (i % 7) as f32 * 0.1);
        let w = Tensor::from_fn(&[8, 1, 3, 3], |i| (i % 5) as f32 * 0.05 - 0.1);
        b.iter(|| std::hint::black_box(ops::conv2d(&img, &w, &Conv2dSpec::new(3, 1, 1))))
    });
    group.finish();

    let mut group = c.benchmark_group("autograd");
    group.bench_function("mlp_step_64x128", |b| {
        let w1 = Tensor::from_fn(&[64, 128], |i| ((i * 7) % 13) as f32 * 0.01 - 0.06);
        let w2 = Tensor::from_fn(&[128, 10], |i| ((i * 5) % 11) as f32 * 0.01 - 0.05);
        let x = Tensor::from_fn(&[32, 64], |i| (i % 17) as f32 * 0.05 - 0.4);
        let labels: Vec<usize> = (0..32).map(|i| i % 10).collect();
        b.iter(|| {
            let mut g = Graph::new();
            let w1v = g.leaf(w1.clone());
            let w2v = g.leaf(w2.clone());
            let xv = g.constant(x.clone());
            let h = g.matmul(xv, w1v);
            let h = g.gelu(h);
            let logits = g.matmul(h, w2v);
            let loss = g.cross_entropy(logits, &labels);
            std::hint::black_box(g.backward(loss));
        })
    });
    group.finish();
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
