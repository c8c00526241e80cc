//! Int8-vs-f32 inference A/B harness (PR 7).
//!
//! Measures the quantized inference plane against the f32 plane, in one
//! process so both sides see identical host conditions:
//!
//! - **Per-shape GEMM A/B** on every linear-layer shape of the table-4
//!   batch-8 encoder forward (default model, 8 clips): f32 `matmul + bias`
//!   against [`tsdx_tensor::quant::linear_q8`] on prepacked weights. The
//!   ratio per shape is printed and recorded, not asserted: PR 7's "≥ 1.5×
//!   on every shape" was a statement about the pre-FMA f32 kernels. With
//!   fused multiply-adds on the f32 side the margin is 1.4–1.5× at the
//!   544-row shapes and 1.1–1.4× at the small ones on the reference host
//!   (DESIGN.md §6.7) — whether the int8 plane still earns its keep is
//!   ROADMAP item 3's census question, to be read from these numbers.
//! - **End-to-end A/B** via [`tsdx_core::precision::with_forced`]:
//!   batch-8 `predict`, single-clip `extract_checked`, and a steady-state
//!   streaming slide. These are reported honestly: the encoder also spends
//!   time in attention products, layer norms, and GELU/residual work that
//!   stays f32 by design, so end-to-end gains are smaller than per-GEMM
//!   gains (the observed split is recorded in `BENCH_pr7.json`).
//! - **Accuracy probe**: max absolute logit delta between the planes on a
//!   synthetic clip (the epsilon gate proper lives in
//!   `crates/core/tests/quant_accuracy.rs`).
//!
//! Run with `cargo run -p tsdx-bench --release --bin quantbench` (add
//! `--quick` for fewer repetitions).

use std::time::Instant;

use tsdx_bench::{is_quick, print_table, standard_clips};
use tsdx_core::precision::{self, Precision};
use tsdx_core::{ModelConfig, ScenarioExtractor};
use tsdx_data::collate;
use tsdx_tensor::quant::QuantMatrix;
use tsdx_tensor::{ops, quant, Tensor};

/// Median of `reps` timed runs of `f`, in microseconds.
fn median_us<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    f(); // untimed warm-up: page faults and lazy init are not steady state
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
    let quick = is_quick();
    let reps = if quick { 9 } else { 25 };

    // ---- Per-shape GEMM A/B: the table-4 batch-8 linear shapes. ----
    // Default model, batch 8: the spatial encoder flattens 8 clips x 4
    // temporal groups x (16 patches + CLS) = 544 token rows of width 64;
    // the temporal encoder sees 8 x (4 groups + CLS) = 40 rows; the heads
    // read 8 CLS rows.
    let shapes: [(&str, usize, usize, usize); 5] = [
        ("spatial_qkvo_544x64x64", 544, 64, 64),
        ("spatial_fc1_544x64x128", 544, 64, 128),
        ("spatial_fc2_544x128x64", 544, 128, 64),
        ("temporal_qkvo_40x64x64", 40, 64, 64),
        ("heads_8x64x64", 8, 64, 64),
    ];
    let mut gemm_rows = Vec::new();
    let mut gemm_json = Vec::new();
    let mut min_speedup = f64::MAX;
    for (name, m, k, n) in shapes {
        let a = Tensor::from_fn(&[m, k], |i| ((i % 97) as f32 - 48.0) / 31.0);
        let w = Tensor::from_fn(&[k, n], |i| ((i % 89) as f32 - 44.0) / 47.0);
        let bias = Tensor::from_fn(&[n], |i| i as f32 * 0.01 - 0.2);
        let q = QuantMatrix::quantize(&w);
        let f32_us = median_us(reps, || {
            std::hint::black_box(ops::add(&ops::matmul(&a, &w), &bias));
        });
        let i8_us = median_us(reps, || {
            std::hint::black_box(quant::linear_q8(&a, &q, Some(&bias)));
        });
        let speedup = f32_us / i8_us;
        min_speedup = min_speedup.min(speedup);
        gemm_rows.push(vec![
            name.to_string(),
            format!("{f32_us:.1}"),
            format!("{i8_us:.1}"),
            format!("{speedup:.2}x"),
        ]);
        gemm_json.push(format!(
            "  \"{name}\": {{\"f32_us\": {f32_us:.1}, \"int8_us\": {i8_us:.1}, \"speedup\": {speedup:.2}}}"
        ));
    }
    print_table(
        &format!("f32 linear vs int8 linear ({reps} reps, medians)"),
        &["shape (m x k x n)", "f32 us", "int8 us", "speedup"],
        &gemm_rows,
    );

    // ---- End-to-end A/B under the forced precision dial. ----
    let ex = ScenarioExtractor::untrained(ModelConfig::default(), 0);
    let report = ex.quantize(); // prepack once; steady state never re-packs
    let model = ex.model();
    let clips = standard_clips(8);
    let refs: Vec<&tsdx_data::Clip> = clips.iter().collect();
    let batch = collate(&refs);
    let cfg = *model.config();
    let video =
        Tensor::from_fn(&[cfg.frames, cfg.height, cfg.width], |i| (i as f32 * 0.0041).sin() * 0.5);

    let e2e_reps = if quick { 5 } else { 15 };
    let timed = |p: Precision, f: &mut dyn FnMut()| {
        precision::with_forced(p, || median_us(e2e_reps, &mut *f))
    };
    let predict_f32 = timed(Precision::F32, &mut || {
        std::hint::black_box(model.predict(&batch.videos));
    });
    let predict_i8 = timed(Precision::Int8, &mut || {
        std::hint::black_box(model.predict(&batch.videos));
    });
    let extract_f32 = timed(Precision::F32, &mut || {
        std::hint::black_box(ex.extract_checked(&video).expect("well-formed"));
    });
    let extract_i8 = timed(Precision::Int8, &mut || {
        std::hint::black_box(ex.extract_checked(&video).expect("well-formed"));
    });

    // Steady-state streaming slide: one new tubelet group per describe.
    let slide = |p: Precision| {
        precision::with_forced(p, || {
            let mut session = ex.open_stream();
            let frame = |start: usize, n: usize| {
                Tensor::from_fn(&[n, cfg.height, cfg.width], |i| {
                    ((start * cfg.height * cfg.width + i) as f32 * 0.003).sin() * 0.5
                })
            };
            session.push_frames(&frame(0, cfg.frames)).expect("well-formed");
            session.describe().expect("full window");
            let mut fed = cfg.frames;
            median_us(e2e_reps, || {
                session.push_frames(&frame(fed, cfg.tubelet_t)).expect("well-formed");
                fed += cfg.tubelet_t;
                std::hint::black_box(session.describe().expect("full window"));
            })
        })
    };
    let slide_f32 = slide(Precision::F32);
    let slide_i8 = slide(Precision::Int8);

    let e2e_rows = vec![
        vec![
            "batch-8 predict".into(),
            format!("{predict_f32:.0}"),
            format!("{predict_i8:.0}"),
            format!("{:.2}x", predict_f32 / predict_i8),
        ],
        vec![
            "extract_checked (1 clip)".into(),
            format!("{extract_f32:.0}"),
            format!("{extract_i8:.0}"),
            format!("{:.2}x", extract_f32 / extract_i8),
        ],
        vec![
            "stream slide (1 group)".into(),
            format!("{slide_f32:.0}"),
            format!("{slide_i8:.0}"),
            format!("{:.2}x", slide_f32 / slide_i8),
        ],
    ];
    print_table(
        &format!("end-to-end f32 vs int8 ({e2e_reps} reps, medians, us)"),
        &["path", "f32 us", "int8 us", "speedup"],
        &e2e_rows,
    );

    // ---- Accuracy probe: worst logit movement on one clip. ----
    let logits = |p: Precision| {
        precision::with_forced(p, || {
            let mut s = ex.open_stream();
            s.push_frames(&video).expect("well-formed");
            let l = s.logits().expect("full window");
            [l.ego, l.road, l.event, l.position, l.presence]
                .iter()
                .flat_map(|t| t.to_vec())
                .collect::<Vec<f32>>()
        })
    };
    let (lf, li) = (logits(Precision::F32), logits(Precision::Int8));
    let max_delta = lf.iter().zip(&li).map(|(a, b)| (a - b).abs()).fold(0f32, f32::max);

    println!();
    println!("{{");
    println!("  \"quick\": {quick},");
    println!("  \"quantized_matrices\": {},", report.matrices);
    println!("  \"packed_kib\": {},", report.packed_bytes / 1024);
    println!("{},", gemm_json.join(",\n"));
    println!("  \"min_gemm_speedup\": {min_speedup:.2},");
    println!("  \"batch8_predict_f32_us\": {predict_f32:.0},");
    println!("  \"batch8_predict_int8_us\": {predict_i8:.0},");
    println!("  \"extract_f32_us\": {extract_f32:.0},");
    println!("  \"extract_int8_us\": {extract_i8:.0},");
    println!("  \"stream_slide_f32_us\": {slide_f32:.0},");
    println!("  \"stream_slide_int8_us\": {slide_i8:.0},");
    println!("  \"max_logit_delta\": {max_delta:.4}");
    println!("}}");

    assert!(max_delta.is_finite(), "int8 logits must stay finite");
}
