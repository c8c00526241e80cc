//! **Table 4** — inference latency / throughput per model.
//!
//! Criterion benchmarks of the forward pass (weights untrained — latency is
//! weight-independent): single clip and batch-8, for the video transformer
//! (both attention variants) and the learned baselines. Parameter counts
//! are printed alongside.
//!
//! Run with `cargo bench -p tsdx-bench --bench inference`.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use tsdx_baselines::{CnnGru, CnnGruConfig, FrameMlp, FrameMlpConfig, HeuristicExtractor};
use tsdx_core::{
    AttentionKind, ClipModel, ModelConfig, ScenarioExtractor, VideoScenarioTransformer,
};
use tsdx_data::{generate_clip, DatasetConfig};
use tsdx_nn::{ParamStore, TransformerEncoder};
use tsdx_tensor::{pool, Graph, Tensor};

fn forward_once(model: &dyn ClipModel, videos: &Tensor) {
    let mut g = Graph::new();
    let p = model.params().bind_frozen(&mut g);
    let mut rng = StdRng::seed_from_u64(0);
    let logits = model.forward(&mut g, &p, videos, &mut rng, false);
    std::hint::black_box(g.value(logits.ego).sum());
}

fn bench_inference(c: &mut Criterion) {
    let clip1 = Tensor::from_fn(&[1, 8, 32, 32], |i| (i % 97) as f32 / 97.0);
    let clip8 = Tensor::from_fn(&[8, 8, 32, 32], |i| (i % 97) as f32 / 97.0);

    let vt = VideoScenarioTransformer::new(ModelConfig::default(), 0);
    let vt_joint = VideoScenarioTransformer::new(
        ModelConfig { attention: AttentionKind::Joint, ..ModelConfig::default() },
        0,
    );
    let gru = CnnGru::new(CnnGruConfig::default(), 0);
    let mlp = FrameMlp::new(FrameMlpConfig::default(), 0);
    let heuristic = HeuristicExtractor::default();
    let single = clip1.reshape(&[8, 32, 32]);

    eprintln!(
        "params: transformer={} joint={} cnn-gru={} frame-mlp={}",
        vt.num_params(),
        vt_joint.num_params(),
        gru.num_params(),
        mlp.num_params()
    );

    let mut group = c.benchmark_group("table4_single_clip");
    group.sample_size(20);
    group.bench_function("video-transformer", |b| b.iter(|| forward_once(&vt, &clip1)));
    group.bench_function("video-transformer-joint", |b| b.iter(|| forward_once(&vt_joint, &clip1)));
    group.bench_function("cnn-gru", |b| b.iter(|| forward_once(&gru, &clip1)));
    group.bench_function("frame-mlp", |b| b.iter(|| forward_once(&mlp, &clip1)));
    group.bench_function("heuristic", |b| {
        b.iter(|| std::hint::black_box(heuristic.predict(&single)))
    });
    group.finish();

    let mut group = c.benchmark_group("table4_batch8");
    group.sample_size(10);
    group.bench_function("video-transformer", |b| b.iter(|| forward_once(&vt, &clip8)));
    group.bench_function("cnn-gru", |b| b.iter(|| forward_once(&gru, &clip8)));
    group.bench_function("frame-mlp", |b| b.iter(|| forward_once(&mlp, &clip8)));
    group.finish();

    // Encoder forward under explicit pool chunk counts. TSDX_NUM_THREADS is
    // parsed once at pool initialization, so the old set_var-between-runs
    // trick no longer works; `with_forced_threads` overrides the apparent
    // pool size (and serial thresholds) for the duration of a closure.
    let mut group = c.benchmark_group("encoder_threads");
    group.sample_size(10);
    for threads in [1usize, 2, 4] {
        group.bench_function(format!("batch8_t{threads}"), |b| {
            b.iter(|| pool::with_forced_threads(threads, || forward_once(&vt, &clip8)))
        });
    }
    group.finish();

    // A transformer encoder stack sized like the table-4 spatial stage
    // (batch 8 clips -> 32 sequences of 16+1 tokens at width 64), without
    // and with the attention probabilities kept (`forward_with_attn`): the
    // same attention op either way, so the gap is what keeping them costs.
    let mut group = c.benchmark_group("encoder_attention");
    group.sample_size(20);
    let mut store = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(3);
    let enc = TransformerEncoder::new(&mut store, &mut rng, "enc", 64, 2, 4, 2, 0.0);
    let tokens = Tensor::from_fn(&[32, 17, 64], |i| (i % 89) as f32 * 0.01 - 0.4);
    group.bench_function("batch8", |b| {
        b.iter(|| {
            let mut g = Graph::new();
            let p = store.bind_frozen(&mut g);
            let x = g.constant(tokens.clone());
            let mut r = StdRng::seed_from_u64(0);
            let y = enc.forward(&mut g, &p, x, &mut r, false);
            std::hint::black_box(g.value(y).sum());
        })
    });
    group.bench_function("batch8_with_attn", |b| {
        b.iter(|| {
            let mut g = Graph::new();
            let p = store.bind_frozen(&mut g);
            let x = g.constant(tokens.clone());
            let mut r = StdRng::seed_from_u64(0);
            let (y, _) = enc.forward_with_attn(&mut g, &p, x, &mut r, false);
            std::hint::black_box(g.value(y).sum());
        })
    });
    group.finish();

    // End-to-end scenario extraction over a batch of simulator clips.
    let mut group = c.benchmark_group("extract");
    group.sample_size(10);
    let extractor = ScenarioExtractor::untrained(ModelConfig::default(), 0);
    let clips: Vec<_> = (0..8).map(|i| generate_clip(&DatasetConfig::default(), i)).collect();
    group.bench_function("extract_batch_8", |b| {
        b.iter(|| std::hint::black_box(extractor.extract_batch(&clips)))
    });
    group.finish();
}

criterion_group!(benches, bench_inference);
criterion_main!(benches);
