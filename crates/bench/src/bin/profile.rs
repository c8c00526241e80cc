//! Self-time profiler for the video scenario transformer (PR 4).
//!
//! Runs instrumented forward/backward training steps at the Table-2 scale
//! (default model, batch 16) with a metrics scope open and prints:
//!
//! - a **self-time table** per kernel/layer span, sorted by self time, with
//!   the share of the end-to-end step wall time each accounts for (the
//!   span nest subtracts child time, so the self column sums to the
//!   instrumented total instead of double-counting);
//! - a **workspace table**: arena hit/miss traffic and megabytes of buffer
//!   recycling per training step;
//! - a **stage table** for the inference path latency histograms
//!   (`stage/tubelet_embed` → `stage/encoder` → `stage/heads` →
//!   `stage/decode`);
//! - a **multiplexed-streaming table** comparing one-at-a-time session
//!   service against the cross-stream batched `encode_staged` scheduler
//!   (forwards per tick, groups per forward, amortized µs/group);
//! - an **overhead report** as JSON on stdout: the enabled cost from
//!   interleaved A/B rounds, and the disabled cost computed as
//!   measured-calls-per-step × measured ns-per-disabled-call, which must
//!   stay under 1% of a step.
//!
//! - an **eval-forward profile** ([`eval_profile`]): what the served calls
//!   cost with no metrics scope, under the serve worker's stage scope and
//!   under a full scope — `extract_window_batch` per batch size and a
//!   coalesced stream round, with the records each makes under each tier —
//!   then the self-time table of `extract_window_batch` at B = 1 and B = 8 —
//!   ops against everything that is not an op — and a standalone
//!   per-shape table of that forward's products, GELU passes, row kernels,
//!   tubelet gather and broadcast adds, with the attention op timed against
//!   the composition it replaced and, outside `--quick` on an AVX-512 host,
//!   its floors asserted.
//!
//! - an **index-scan profile** ([`index_profile`]): the index's distinct
//!   rows, resident MB and build rate, then µs per query, rows per µs and
//!   columns read for an SDL query and a 10-non-zero one over 200 000
//!   random taxonomy-valid scenarios.
//!
//! - a **clip-generation profile** ([`data_profile`]): `generate_dataset`
//!   clips/s on the first call in the process and in steady state, and per
//!   weather the µs per clip of sample + simulate, noise-free frames and
//!   sensor noise.
//!
//! Run with `cargo run -p tsdx-bench --release --bin profile` (add
//! `--quick` for a reduced-size smoke run, as in `scripts/check.sh`).
//! `--eval [--batch N]` prints the eval-forward profile alone, `--index`
//! the index-scan profile alone and `--data` the clip-generation profile
//! alone; pin them (`taskset -c 1 …`) when the numbers matter.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tsdx_bench::{has_flag, is_quick, print_table, standard_clips};
use tsdx_core::{
    multitask_loss, ClipModel, ModelConfig, ScenarioExtractor, StreamState,
    VideoScenarioTransformer,
};
use tsdx_data::{collate, generate_dataset, Batch, DatasetConfig, SIM_DT};
use tsdx_index::VectorIndex;
use tsdx_render::{render_video, RenderConfig, Weather};
use tsdx_sdl::{vocab, ActorClause, EgoManeuver, Position, RoadKind, Scenario, MAX_ACTORS};
use tsdx_sim::ScenarioSampler;
use tsdx_tensor::dial::{Kernel, KERNEL};
use tsdx_tensor::ops::{self, Activation};
use tsdx_tensor::{metrics, Graph, Tensor};

/// One forward/backward training step (no optimizer update — the profile
/// targets the compute path the self-time table must explain).
fn train_step(model: &VideoScenarioTransformer, batch: &Batch, rng: &mut StdRng) {
    let mut g = Graph::new();
    let binding = model.params().bind(&mut g);
    let logits = model.forward(&mut g, &binding, &batch.videos, rng, true);
    let loss = multitask_loss(&mut g, &logits, batch);
    let grads = g.backward(loss);
    std::hint::black_box(model.params().collect_grads(&binding, &grads));
}

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    xs[xs.len() / 2]
}

fn ms(ns: u64) -> String {
    format!("{:.2}", ns as f64 / 1e6)
}

/// Median µs per call of each closure, the closures taking turns round by
/// round so drift and neighbours hit them alike.
fn alternated_us(rounds: usize, calls: usize, fs: &mut [&mut dyn FnMut()]) -> Vec<f64> {
    let mut samples = vec![Vec::with_capacity(rounds); fs.len()];
    for f in fs.iter_mut() {
        f(); // warm the arena and caches at this shape
    }
    for _ in 0..rounds {
        for (f, s) in fs.iter_mut().zip(&mut samples) {
            let t = Instant::now();
            for _ in 0..calls {
                f();
            }
            s.push(t.elapsed().as_secs_f64() * 1e6 / calls as f64);
        }
    }
    samples.iter_mut().map(|s| median(s)).collect()
}

/// What each metrics tier costs `f`, per call: median µs with no scope open;
/// the median over rounds of (open − closed) under a stage scope, the way a
/// serving worker runs it, and under a full scope; and the records one call
/// makes under each. The three sides take turns in short rounds and each
/// difference is taken within its round, so a slow phase of the host lands
/// on every side of it.
fn scope_cost_us(rounds: usize, calls: usize, f: &mut dyn FnMut()) -> [f64; 5] {
    let (rounds, calls) = (rounds * 10, (calls / 10).max(1));
    let timed = |f: &mut dyn FnMut()| {
        let t = Instant::now();
        for _ in 0..calls {
            f();
        }
        t.elapsed().as_secs_f64() * 1e6 / calls as f64
    };
    // Per-call µs and records under the scope `open` returns.
    let under = |open: fn() -> metrics::ScopeGuard, f: &mut dyn FnMut()| {
        let scope = open();
        let us = timed(f);
        (us, scope.snapshot().total_records() as f64 / calls as f64)
    };
    f(); // warm the arena and caches at this shape
    let (mut closed, mut stage_extra, mut full_extra) = (Vec::new(), Vec::new(), Vec::new());
    let mut records = [0.0; 2];
    for _ in 0..rounds {
        let off = timed(f);
        let (stage_us, stage_records) = under(metrics::stage_scope, f);
        let (full_us, full_records) = under(metrics::scope, f);
        closed.push(off);
        stage_extra.push(stage_us - off);
        full_extra.push(full_us - off);
        records = [stage_records, full_records];
    }
    [median(&mut closed), median(&mut stage_extra), median(&mut full_extra), records[0], records[1]]
}

/// The composition `ops::attention` replaced, on the same unsplit operands.
fn composed_attention(q: &Tensor, k: &Tensor, v: &Tensor, heads: usize, scale: f32) -> Tensor {
    let split = |t: &Tensor| {
        let (b, rows, w) = (t.shape()[0], t.shape()[1], t.shape()[2]);
        ops::permute(&t.reshape(&[b, rows, heads, w / heads]), &[0, 2, 1, 3])
    };
    let (qh, kh, vh) = (split(q), split(k), split(v));
    let scores = ops::scale(&ops::matmul(&qh, &ops::transpose_last2(&kh)), scale);
    let ctx = ops::matmul(&ops::softmax_last(&scores), &vh);
    ops::permute(&ctx, &[0, 2, 1, 3]).reshape(&[q.shape()[0], q.shape()[1], v.shape()[2]])
}

/// Where an eval forward's time goes: one table of whole calls, then two
/// tables per batch size.
///
/// **Calls**: `extract_window_batch` at each batch size and a coalesced
/// stream round — two streams each pushing one group, one `encode_staged`,
/// one `readout_staged`, the shape the `stream_pair` workload serves — timed
/// with no metrics scope, under a stage scope (what a served request pays)
/// and under a full one, with the records a call makes under each.
/// **Self time**: `extract_window_batch` on `batch` clips under a metrics
/// scope — every `op/*` span by self time per call, and the remainder that is
/// no op (window validation, tubelet gather, bind, tape, allocator, decode,
/// the spans themselves). **Per shape**: each product, GELU pass, row kernel,
/// tubelet gather and broadcast add of the default model's forward at that
/// batch size, timed standalone, the attention op alternated with the
/// composed sequence it replaced. Outside `--quick`, on a host whose f32
/// kernel is the AVX-512 one, the attention-core floors are asserted: at
/// `[32, 17, 64]`, 4 heads, the op at least 1.4× faster than the composition
/// for `Tq = 17` and 2× for the CLS row (`Tq = 1`), and at `[8, 5, 64]` not
/// slower.
fn eval_profile(quick: bool, batches: &[usize]) {
    let cfg = ModelConfig::default();
    let ex = ScenarioExtractor::untrained(cfg, 17);
    let (calls, rounds) = if quick { (20, 3) } else { (300, 15) };
    let val = |shape: &[usize], f: f32| Tensor::from_fn(shape, |i| (i as f32 * f).sin() * 0.5);
    let clips = |batch: usize| -> Vec<Tensor> {
        (0..batch)
            .map(|c| val(&[cfg.frames, cfg.height, cfg.width], 0.0137 + c as f32 * 1e-4))
            .collect()
    };

    // ---- Whole calls: no scope, stage scope, full scope. ----
    let mut call_rows: Vec<Vec<String>> = Vec::new();
    let mut call_row = |name: String, f: &mut dyn FnMut()| {
        let [closed, stage, full, stage_records, full_records] = scope_cost_us(rounds, calls, f);
        let records = format!("{stage_records:.0} / {full_records:.0}");
        call_rows.push(vec![name, us(closed), us(stage), us(full), records]);
    };
    for &batch in batches {
        let clips = clips(batch);
        let refs: Vec<&Tensor> = clips.iter().collect();
        call_row(format!("extract_window_batch, B = {batch}"), &mut || {
            std::hint::black_box(ex.extract_window_batch(&refs));
        });
    }
    let group = |s: usize, t: usize| {
        val(&[cfg.tubelet_t, cfg.height, cfg.width], 0.0137 + (s + 2 * t) as f32 * 1e-4)
    };
    let mut streams = [StreamState::new(cfg), StreamState::new(cfg)];
    let mut tick = 0;
    let mut round = |streams: &mut [StreamState; 2]| {
        for (s, state) in streams.iter_mut().enumerate() {
            state.stage_frames(&group(s, tick)).expect("well-formed group");
        }
        tick += 1;
        let mut refs: Vec<&mut StreamState> = streams.iter_mut().collect();
        tsdx_core::encode_staged(ex.model(), &mut refs);
        std::hint::black_box(tsdx_core::readout_staged(ex.model(), &mut refs));
    };
    (0..cfg.n_time()).for_each(|_| round(&mut streams)); // fill the first window
    call_row(
        "stream round (2 x stage_frames + encode_staged + readout_staged)".into(),
        &mut || round(&mut streams),
    );
    print_table(
        &format!(
            "eval calls, metrics scope closed, stage and full ({rounds} rounds x {calls} calls, \
             median)"
        ),
        &["call", "µs", "stage scope: + µs", "scope open: + µs", "records (stage / full)"],
        &call_rows,
    );

    for &batch in batches {
        let clips = clips(batch);
        let refs: Vec<&Tensor> = clips.iter().collect();
        for _ in 0..calls.min(50) {
            std::hint::black_box(ex.extract_window_batch(&refs));
        }
        let scope = metrics::scope();
        let total_calls = calls * rounds.min(7);
        for _ in 0..total_calls {
            let _root = metrics::span("extract");
            std::hint::black_box(ex.extract_window_batch(&refs));
        }
        let snap = scope.snapshot();
        drop(scope);
        let root = snap.span("extract");
        let per_call = |ns: u64| ns as f64 / 1e3 / total_calls as f64;
        let mut rows: Vec<(String, metrics::SpanStat)> = snap
            .spans
            .iter()
            .filter(|(k, _)| k.starts_with("op/"))
            .map(|(k, s)| (k.clone(), *s))
            .collect();
        rows.sort_by_key(|(_, s)| std::cmp::Reverse(s.self_ns));
        let ops_ns: u64 = rows.iter().map(|(_, s)| s.self_ns).sum();
        let mut table: Vec<Vec<String>> = rows
            .iter()
            .map(|(k, s)| {
                vec![
                    k.clone(),
                    format!("{:.1}", s.count as f64 / total_calls as f64),
                    us(per_call(s.self_ns)),
                    format!("{:.1}", s.self_ns as f64 / root.total_ns as f64 * 100.0),
                ]
            })
            .collect();
        for (name, ns) in [("all op/*", ops_ns), ("not an op", root.total_ns - ops_ns)] {
            table.push(vec![
                name.to_string(),
                "-".to_string(),
                us(per_call(ns)),
                format!("{:.1}", ns as f64 / root.total_ns as f64 * 100.0),
            ]);
        }
        print_table(
            &format!(
                "eval forward self time, B = {batch} ({total_calls} extract_window_batch calls, \
                 {:.1} µs each, f32 kernel: {})",
                per_call(root.total_ns),
                KERNEL.get()
            ),
            &["span", "per call", "self µs", "% of call"],
            &table,
        );

        // ---- Per shape, standalone. ----
        let (d, heads, hidden, vol) =
            (cfg.dim, cfg.heads, cfg.dim * cfg.mlp_ratio, cfg.tubelet_volume());
        let (nt, ns) = (cfg.n_time(), cfg.n_space());
        let scale = 1.0 / ((d / heads) as f32).sqrt();
        let mut shape_rows: Vec<Vec<String>> = Vec::new();
        let mut time = |name: String, f: &mut dyn FnMut()| {
            let t = alternated_us(rounds, calls, &mut [f])[0];
            shape_rows.push(vec![name, us(t), "-".to_string(), "-".to_string()]);
        };
        // Each product with the layers that run it; only `wo` and `fc2` add
        // a residual in their epilogue.
        let (qkv_wo, fc1, fc2) =
            (&[("q/k/v", false), ("wo", true)][..], &[("fc1", false)][..], &[("fc2", true)][..]);
        for (rows, k, n, act, layers) in [
            (batch * nt * ns, vol, d, Activation::None, &[("tubelet proj", false)][..]),
            (batch * nt * (ns + 1), d, d, Activation::None, qkv_wo),
            (batch * nt * (ns + 1), d, hidden, Activation::Gelu, fc1),
            (batch * nt * (ns + 1), hidden, d, Activation::None, fc2),
            (batch * nt, d, d, Activation::None, qkv_wo),
            (batch * nt, d, hidden, Activation::Gelu, fc1),
            (batch * nt, hidden, d, Activation::None, fc2),
            (batch * (nt + 1), d, d, Activation::None, qkv_wo),
            (batch * (nt + 1), d, hidden, Activation::Gelu, fc1),
            (batch * (nt + 1), hidden, d, Activation::None, fc2),
            (batch, d, d, Activation::None, qkv_wo),
            // Not this model's: Frame-MLP's `fc1` on 8 clips × 8 frames, the
            // largest product the repo runs (its `B` is 512 KB).
            (64, 1024, 128, Activation::None, &[("frame-mlp fc1", false)][..]),
        ] {
            let (x, w, b) = (val(&[rows, k], 0.013), val(&[k, n], 0.007), val(&[n], 0.3));
            let r = val(&[rows, n], 0.011);
            for &(layer, residual) in layers {
                let (r, plus_r) = if residual { (Some(&r), ", +residual") } else { (None, "") };
                time(
                    format!("linear [{rows},{k}]·[{k},{n}] {layer} (+bias, {act:?}{plus_r})"),
                    &mut || {
                        std::hint::black_box(ops::linear(&x, &w, Some(&b), act, r));
                    },
                );
            }
        }
        // The GELU pass of each `fc1` alone: what the activation adds to
        // the `Gelu` rows above.
        for rows in [batch * nt * (ns + 1), batch * nt, batch * (nt + 1)] {
            let x = val(&[rows, hidden], 0.013);
            time(format!("gelu [{rows},{hidden}]"), &mut || {
                std::hint::black_box(ops::gelu(&x));
            });
        }
        let (gamma, beta) = (val(&[d], 0.3), val(&[d], 0.2));
        for rows in [batch * nt * (ns + 1), batch * (nt + 1), batch * nt] {
            let x = val(&[rows, d], 0.013);
            time(format!("layer_norm [{rows},{d}]"), &mut || {
                std::hint::black_box(ops::layer_norm(&x, &gamma, &beta, 1e-5));
            });
        }
        for (rows, w) in
            [(batch * nt * heads * (ns + 1), ns + 1), (batch * heads * (nt + 1), nt + 1)]
        {
            let x = val(&[rows, w], 0.013);
            time(format!("softmax_last [{rows},{w}]"), &mut || {
                std::hint::black_box(ops::softmax_last(&x));
            });
        }
        let videos = val(&[batch, cfg.frames, cfg.height, cfg.width], 0.0137);
        time(
            format!("extract_tubelets [{batch},{},{},{}]", cfg.frames, cfg.height, cfg.width),
            &mut || {
                std::hint::black_box(tsdx_core::extract_tubelets(&cfg, &videos));
            },
        );
        let tokens = val(&[batch, nt, ns, d], 0.013);
        let pos_space = val(&[1, ns, d], 0.017);
        time(format!("add [{batch},{nt},{ns},{d}] + [1,{ns},{d}] (pos_space)"), &mut || {
            std::hint::black_box(ops::add(&tokens, &pos_space));
        });
        let frames = val(&[batch, nt, d], 0.013);
        let pos_time = val(&[nt, d], 0.017);
        time(format!("add [{batch},{nt},{d}] + [{nt},{d}] (pos_time)"), &mut || {
            std::hint::black_box(ops::add(&frames, &pos_time));
        });
        // The attention core, op against composition, at the four shapes
        // the forward has: both stages, full blocks and CLS-row blocks.
        let mut ratios = Vec::new();
        for (nb, t) in [(batch * nt, ns + 1), (batch, nt + 1)] {
            let kv = val(&[nb, t, d], 0.013);
            for tq in [t, 1] {
                let q = val(&[nb, tq, d], 0.019);
                let got = alternated_us(
                    rounds,
                    calls,
                    &mut [
                        &mut || {
                            std::hint::black_box(ops::attention(&q, &kv, &kv, heads, scale));
                        },
                        &mut || {
                            std::hint::black_box(composed_attention(&q, &kv, &kv, heads, scale));
                        },
                    ],
                );
                shape_rows.push(vec![
                    format!("attention q [{nb},{tq},{d}] k,v [{nb},{t},{d}], {heads} heads"),
                    us(got[0]),
                    us(got[1]),
                    format!("{:.2}", got[1] / got[0]),
                ]);
                ratios.push(((nb, t, tq), got[1] / got[0]));
            }
        }
        print_table(
            &format!("eval forward per shape, standalone, B = {batch} ({rounds} rounds x {calls} calls, median)"),
            &["kernel", "µs", "composed µs", "composed / op"],
            &shape_rows,
        );

        // ---- Attention-core floors (B = 8 is where the model's 32-sequence
        // spatial stage and 8-sequence temporal stage are). ----
        if batch == 8 && !quick {
            if KERNEL.get() == Kernel::Avx512 {
                for ((nb, t, tq), ratio) in ratios {
                    let floor = match (t == ns + 1, tq == 1) {
                        (true, false) => 1.4,
                        (true, true) => 2.0,
                        (false, _) => 1.0,
                    };
                    assert!(
                        ratio >= floor,
                        "attention op at [{nb},{tq}x{t},{d}] is {ratio:.2}x the composition, floor {floor}"
                    );
                }
            } else {
                println!("(no AVX-512F: attention-core floors reported, not asserted)");
            }
        }
    }
}

/// One random taxonomy-valid scenario with `actors` actor clauses, every
/// other one positioned — what the `search_sdl` corpus is made of.
fn random_scenario(rng: &mut StdRng, actors: usize) -> Scenario {
    let ego = EgoManeuver::from_index(rng.random_range(0..EgoManeuver::COUNT));
    let road = RoadKind::from_index(rng.random_range(0..RoadKind::COUNT));
    let actors = (0..actors)
        .map(|_| {
            let (kind, action) =
                vocab::EVENT_CLASSES[rng.random_range(0..vocab::EVENT_CLASSES.len())];
            let position = rng
                .random_bool(0.5)
                .then(|| Position::from_index(rng.random_range(0..Position::COUNT)));
            ActorClause { kind, action, position }
        })
        .collect();
    Scenario { ego, actors, road }
}

/// How many of `s`'s embedding components are not zero.
fn nonzero(s: &Scenario) -> usize {
    tsdx_sdl::embed(s).iter().filter(|&&x| x != 0.0).count()
}

/// What an index scan costs by how much of the query is zero: 200 000 random
/// taxonomy-valid scenarios (the `search_sdl` corpus), `k = 10`, and two
/// pools of 64 scenario queries taking turns — as `/search` draws them (3 to
/// 10 non-zero components of 28) and with all 10. Per pool, what the scans did is
/// counted, not derived: `index/columns_visited` (a column is one dimension
/// of one block of distinct rows), `index/rows_scored`,
/// `index/groups_visited` and `index/groups_skipped` (groups whose score
/// bound could not reach the k-th), per query. A header line first: rows,
/// distinct rows, resident MB and the build's rows/s.
fn index_profile(quick: bool) {
    const K: usize = 10;
    let rows = if quick { 20_000 } else { 200_000 };
    let (calls, rounds) = if quick { (64, 3) } else { (256, 15) };
    let mut rng = StdRng::seed_from_u64(tsdx_bench::STD_SEED);
    let sdl = |rng: &mut StdRng| {
        let actors = rng.random_range(0..=MAX_ACTORS);
        random_scenario(rng, actors)
    };
    let corpus: Vec<Scenario> = (0..rows).map(|_| sdl(&mut rng)).collect();
    let mut index = VectorIndex::default();
    let start = Instant::now();
    for s in &corpus {
        index.push_scenario(s).expect("taxonomy-valid scenario");
    }
    let build_s = start.elapsed().as_secs_f64();
    drop(corpus);
    let distinct = index.distinct_len();
    println!(
        "index: {rows} rows, {distinct} distinct ({:.1} %), {:.1} MB resident \
         (blocks + id maps + lookup), built at {:.0} rows/s",
        100.0 * distinct as f64 / rows as f64,
        index.resident_bytes() as f64 / 1e6,
        rows as f64 / build_s,
    );
    let sdl_queries: Vec<Scenario> = (0..64).map(|_| sdl(&mut rng)).collect();
    // Four distinct events at the four positions: ego + road + 4 + 4.
    let full_queries: Vec<Scenario> = (0..64)
        .map(|_| loop {
            let mut s = random_scenario(&mut rng, MAX_ACTORS);
            for (i, a) in s.actors.iter_mut().enumerate() {
                a.position = Some(Position::from_index(i));
            }
            if nonzero(&s) == 10 {
                break s;
            }
        })
        .collect();

    let pools = [
        ("SDL query (as /search embeds it)", &sdl_queries),
        ("10 non-zero components", &full_queries),
    ];
    // Each pool cycles through its 64 queries, so no scan repeats its
    // predecessor's columns.
    let scan = |pool: &[Scenario], turn: &mut usize| {
        *turn += 1;
        let Ok(hits) = index.query_scenario(&pool[*turn % pool.len()], K);
        std::hint::black_box(hits);
    };
    let mut turn = [0usize; 2];
    let [a, b] = &mut turn;
    let us = alternated_us(
        rounds,
        calls,
        &mut [&mut || scan(&sdl_queries, a), &mut || scan(&full_queries, b)],
    );

    let table: Vec<Vec<String>> = pools
        .iter()
        .zip(&us)
        .map(|(&(name, pool), &us)| {
            let scope = metrics::scope();
            pool.iter().for_each(|q| {
                let Ok(hits) = index.query_scenario(q, K);
                std::hint::black_box(hits);
            });
            let counts = scope.snapshot();
            let per_query =
                |key: &str| format!("{:.1}", counts.counter(key) as f64 / pool.len() as f64);
            let nonzero: usize = pool.iter().map(nonzero).sum();
            vec![
                name.to_string(),
                format!("{:.1}", nonzero as f64 / pool.len() as f64),
                per_query("index/columns_visited"),
                per_query("index/rows_scored"),
                per_query("index/groups_visited"),
                per_query("index/groups_skipped"),
                format!("{us:.1}"),
                format!("{:.0}", rows as f64 / us),
            ]
        })
        .collect();
    print_table(
        &format!(
            "index scan, {rows} rows x {} dims, {distinct} distinct, {:.1} MB resident, k = {K} \
             ({rounds} rounds x {calls} queries per pool, median)",
            tsdx_sdl::EMBED_DIM,
            index.resident_bytes() as f64 / 1e6,
        ),
        &[
            "query",
            "non-zero",
            "columns read",
            "rows scored",
            "groups visited",
            "groups skipped",
            "µs",
            "rows/µs",
        ],
        &table,
    );
}

/// Where a generated clip's time goes. First `generate_dataset` of 64
/// default clips in clips/s: the process's first call, which also builds the
/// shared road maps (`WorldMap::of`), and the median of later calls. Then per
/// weather, µs per clip for sampling and simulating its scenario, for
/// rendering its frames with `noise_std = 0`, and for the sensor noise — the
/// default render less the noise-free one.
fn data_profile(quick: bool) {
    const CLIPS: usize = 64;
    let cfg = DatasetConfig { n_clips: CLIPS, ..DatasetConfig::default() };
    let rounds = if quick { 3 } else { 15 };
    let clips_per_s = || {
        let t = Instant::now();
        std::hint::black_box(generate_dataset(&cfg));
        CLIPS as f64 / t.elapsed().as_secs_f64()
    };
    let first = clips_per_s(); // must be the first render in the process
    let steady = median(&mut (0..rounds).map(|_| clips_per_s()).collect::<Vec<_>>());
    let rate_row = |call: String, rate: f64| vec![call, format!("{rate:.0}"), us(1e6 / rate)];
    print_table(
        &format!("generate_dataset, {CLIPS} default clips"),
        &["call", "clips/s", "µs/clip"],
        &[
            rate_row("first in the process (builds the road maps)".into(), first),
            rate_row(format!("steady state (median of {rounds})"), steady),
        ],
    );

    let sampler = ScenarioSampler::new(cfg.sampler);
    let scene = |i: usize| {
        let g = sampler.sample(&mut StdRng::seed_from_u64(cfg.base_seed + i as u64));
        let traj = g.world.simulate(SIM_DT);
        (g.world, traj)
    };
    let scenes = &(0..CLIPS).map(scene).collect::<Vec<_>>();
    let mut rows = Vec::new();
    for weather in [Weather::Clear, Weather::Fog(0.06), Weather::Night] {
        let noisy = RenderConfig { weather, ..cfg.render };
        let clean = RenderConfig { noise_std: 0.0, ..noisy };
        let render = |config: RenderConfig| {
            let (mut turn, mut rng) = (0, StdRng::seed_from_u64(tsdx_bench::STD_SEED));
            move || {
                turn += 1;
                let (world, traj) = &scenes[turn % CLIPS];
                std::hint::black_box(render_video(world, traj, &config, &mut rng));
            }
        };
        let mut turn = 0;
        let got = alternated_us(
            rounds,
            CLIPS,
            &mut [
                &mut || {
                    turn += 1;
                    std::hint::black_box(scene(turn % CLIPS));
                },
                &mut render(clean),
                &mut render(noisy),
            ],
        );
        let (simulate, frames, noise) = (got[0], got[1], got[2] - got[1]);
        rows.push(vec![
            format!("{weather:?}"),
            us(simulate),
            us(frames),
            us(noise),
            us(simulate + got[2]),
        ]);
    }
    print_table(
        &format!(
            "clip generation per clip, {}x{}x{} frames ({rounds} rounds x {CLIPS} clips, median)",
            cfg.render.frames, cfg.render.height, cfg.render.width
        ),
        &["weather", "sample + simulate µs", "frames µs", "noise µs", "clip µs"],
        &rows,
    );
}

fn us(x: f64) -> String {
    format!("{x:.1}")
}

fn main() {
    let quick = is_quick();
    println!("run-time switches: {}", tsdx_core::run_time_switches());
    if has_flag("--data") {
        return data_profile(quick);
    }
    if has_flag("--index") {
        return index_profile(quick);
    }
    if has_flag("--eval") {
        let args: Vec<String> = std::env::args().collect();
        let batch = args.iter().position(|a| a == "--batch").map(|i| {
            args.get(i + 1).and_then(|n| n.parse().ok()).expect("--batch takes a clip count")
        });
        return eval_profile(quick, &batch.map_or(vec![1, 8], |b| vec![b]));
    }
    let (batch_size, steps, ab_rounds) = if quick { (4, 2, 3) } else { (16, 4, 5) };

    let clips = standard_clips(batch_size);
    let refs: Vec<&tsdx_data::Clip> = clips.iter().collect();
    let batch = collate(&refs);
    let model = VideoScenarioTransformer::new(ModelConfig::default(), 0);
    let mut rng = StdRng::seed_from_u64(1);

    // Warm-up: arena, page cache, lazy env reads.
    train_step(&model, &batch, &mut rng);

    // ---- Profiled phase: `steps` instrumented steps under one scope. ----
    let scope = metrics::scope();
    for _ in 0..steps {
        let _root = metrics::span("step");
        train_step(&model, &batch, &mut rng);
    }
    let snap = scope.snapshot();
    drop(scope);

    // A few inference passes under their own scope populate the stage
    // histograms and the GEMM dispatch table without mixing into the
    // per-step table above.
    let scope = metrics::scope();
    for _ in 0..2 {
        std::hint::black_box(model.predict(&batch.videos));
    }
    let infer = scope.snapshot();
    drop(scope);

    let root = snap.span("step");
    assert!(root.count == steps as u64, "every step must be spanned");

    // Self-time table: every span except the synthetic root, by self time.
    let mut rows: Vec<(String, metrics::SpanStat)> = snap
        .spans
        .iter()
        .filter(|(k, _)| k.as_str() != "step")
        .map(|(k, s)| (k.clone(), *s))
        .collect();
    rows.sort_by_key(|(_, s)| std::cmp::Reverse(s.self_ns));
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|(k, s)| {
            vec![
                k.clone(),
                s.count.to_string(),
                ms(s.total_ns),
                ms(s.self_ns),
                format!("{:.1}", s.self_ns as f64 / root.total_ns as f64 * 100.0),
            ]
        })
        .collect();
    print_table(
        &format!("self time per kernel/layer ({steps} steps, batch {batch_size})"),
        &["span", "count", "total ms", "self ms", "% of step"],
        &table,
    );

    // Self times of the root's descendants sum to root.total - root.self,
    // so instrumented coverage of the step wall time is:
    let coverage = (root.total_ns - root.self_ns) as f64 / root.total_ns as f64;
    println!(
        "\nself-time table explains {:.1}% of the end-to-end fwd/bwd wall time",
        coverage * 100.0
    );

    // ---- Workspace arena table: per-step traffic from the profiled scope. ----
    let per_step = |c: u64| format!("{:.0}", c as f64 / steps as f64);
    let (ws_hits, ws_misses) = (snap.counter("workspace/hit"), snap.counter("workspace/miss"));
    let hit_rate = match ws_hits + ws_misses {
        0 => "-".to_string(),
        takes => format!("{:.1}", ws_hits as f64 / takes as f64 * 100.0),
    };
    let ws_row = vec![
        per_step(ws_hits),
        per_step(ws_misses),
        hit_rate,
        format!("{:.2}", snap.counter("workspace/bytes_recycled") as f64 / steps as f64 / 1e6),
    ];
    print_table(
        "workspace arena (per profiled step)",
        &["hits", "misses", "hit %", "MB recycled"],
        &[ws_row],
    );

    // ---- Inference stage table. ----
    let stage_rows: Vec<Vec<String>> = ["tubelet_embed", "encoder", "heads", "decode"]
        .iter()
        .map(|s| {
            let h = infer.hists.get(&format!("stage/{s}")).cloned().unwrap_or_default();
            vec![
                s.to_string(),
                h.count.to_string(),
                format!("{:.2}", h.mean_ns() as f64 / 1e6),
                format!("{:.2}", h.quantile_ns(0.99) as f64 / 1e6),
            ]
        })
        .collect();
    print_table("inference stages", &["stage", "n", "mean ms", "p99 ms"], &stage_rows);

    // ---- Which GEMM kernel served the inference products. ----
    // `avx512` counts the products that ran on the AVX-512 micro-kernel: all
    // of them where the CPU has it, none elsewhere — a host that fell back to
    // the portable kernel shows in this table.
    let gemm = infer.span("op/matmul");
    print_table(
        &format!("inference GEMM dispatch (f32 kernel: {})", KERNEL.get()),
        &["kernel", "products", "avx512", "self ms"],
        &[vec![
            "f32 (op/matmul)".to_string(),
            gemm.count.to_string(),
            infer.counter("dispatch/matmul_avx512").to_string(),
            ms(gemm.self_ns),
        ]],
    );
    assert_eq!(infer.counter("dispatch/matmul_i8"), 0, "the model must not reach the i8 GEMM");

    // ---- Streaming cache effectiveness. ----
    // A short sliding-window run under its own scope (so its counters stay
    // out of the training-step tables and the coverage assert above): one
    // full window, then a few one-group slides with a repeated describe.
    let scope = metrics::scope();
    let ex = tsdx_core::ScenarioExtractor::new(model.clone());
    let cfg = *ex.model().config();
    let stream_frame = |start: usize, n: usize| {
        tsdx_tensor::Tensor::from_fn(&[n, cfg.height, cfg.width], |i| {
            ((start * cfg.height * cfg.width + i) as f32 * 0.0041).sin() * 0.5
        })
    };
    let mut session = ex.open_stream();
    session.push_frames(&stream_frame(0, cfg.frames)).expect("well-formed feed");
    session.describe().expect("full window");
    let mut fed = cfg.frames;
    let stream_slides = 4usize;
    for _ in 0..stream_slides {
        session.push_frames(&stream_frame(fed, cfg.tubelet_t)).unwrap();
        fed += cfg.tubelet_t;
        session.describe().unwrap();
    }
    session.describe().unwrap(); // unchanged window: served from the memo
    let stream = scope.snapshot();
    drop(scope);

    let (hits, misses, window_hits) = (
        stream.counter("stage/cache_hit"),
        stream.counter("stage/cache_miss"),
        stream.counter("stage/window_hit"),
    );
    let push = stream.hists.get("stage/stream_push").cloned().unwrap_or_default();
    let infer = stream.hists.get("stage/stream_infer").cloned().unwrap_or_default();
    let stream_rows = vec![
        vec![
            "group cache".to_string(),
            hits.to_string(),
            misses.to_string(),
            format!("{:.1}", hits as f64 / (hits + misses).max(1) as f64 * 100.0),
        ],
        vec!["window memo".to_string(), window_hits.to_string(), "-".to_string(), "-".to_string()],
    ];
    print_table(
        &format!(
            "streaming session cache ({} frames/window, {stream_slides} slides + 1 repeat)",
            cfg.frames
        ),
        &["cache", "hits", "misses", "hit %"],
        &stream_rows,
    );
    println!(
        "streamed stages: push {:.2} ms mean x{}, infer {:.2} ms mean x{}",
        push.mean_ns() as f64 / 1e6,
        push.count,
        infer.mean_ns() as f64 / 1e6,
        infer.count,
    );
    let nt = cfg.n_time() as u64;
    // Steady state must reuse all but one group per slide, plus serve the
    // repeated describe entirely from the window memo.
    assert_eq!(misses, nt + stream_slides as u64, "one encode per group, one per slide");
    assert_eq!(
        hits,
        stream_slides as u64 * (nt - 1) + nt,
        "cache must serve every non-fresh group plus the repeated window"
    );
    assert_eq!(window_hits, 1, "repeated describe must hit the window memo");

    // ---- Multiplexed streaming (PR 10). ----
    // N concurrent streams each complete one group per tick. The sequential
    // arm services them one at a time (N batch-1 spatial forwards per
    // tick); the muxed arm stages all N and consumes them through one
    // cross-stream `encode_staged` batched forward per tick. Both arms hit
    // the same `stage/mux_encode` span, so separate scopes keep them apart.
    let mux_streams = 4usize;
    let mux_ticks = if quick { 2 } else { 3 };
    let mux_frame = |s: usize, t: usize| {
        tsdx_tensor::Tensor::from_fn(&[cfg.tubelet_t, cfg.height, cfg.width], |i| {
            ((t * cfg.height * cfg.width + i) as f32 * 0.0041 + s as f32 * 1.618).sin() * 0.5
        })
    };
    // One unmeasured tick per arm first: the muxed batch-N forward has its
    // own workspace shapes, and a cold first allocation would otherwise
    // dominate a short profile run.
    let run_arm = |muxed: bool, ticks: usize| {
        let mut states: Vec<tsdx_core::StreamState> =
            (0..mux_streams).map(|_| tsdx_core::StreamState::new(cfg)).collect();
        for t in 0..ticks {
            for (s, state) in states.iter_mut().enumerate() {
                state.stage_frames(&mux_frame(s, t)).expect("well-formed group");
                if !muxed {
                    tsdx_core::encode_staged(ex.model(), &mut [state]);
                }
            }
            if muxed {
                let mut refs: Vec<&mut tsdx_core::StreamState> = states.iter_mut().collect();
                let report = tsdx_core::encode_staged(ex.model(), &mut refs);
                assert_eq!(report.streams, mux_streams, "every stream staged one group");
            }
        }
    };
    run_arm(false, 1);
    run_arm(true, 1);
    let scope = metrics::scope();
    run_arm(false, mux_ticks);
    let seq = scope.snapshot();
    drop(scope);
    let scope = metrics::scope();
    run_arm(true, mux_ticks);
    let mux = scope.snapshot();
    drop(scope);

    let groups = (mux_streams * mux_ticks) as u64;
    let mux_row = |arm: &str, h: &metrics::Histogram| {
        vec![
            arm.to_string(),
            h.count.to_string(),
            format!("{:.1}", groups as f64 / h.count as f64),
            format!("{:.2}", h.mean_ns() as f64 / 1e6),
            format!("{:.1}", h.count as f64 * h.mean_ns() as f64 / groups as f64 / 1e3),
        ]
    };
    let seq_h = seq.hists.get("stage/mux_encode").cloned().unwrap_or_default();
    let mux_h = mux.hists.get("stage/mux_encode").cloned().unwrap_or_default();
    print_table(
        &format!("multiplexed streaming ({mux_streams} streams x {mux_ticks} ticks)"),
        &["scheduler", "forwards", "groups/fwd", "ms/fwd", "µs/group"],
        &[mux_row("sequential", &seq_h), mux_row("muxed", &mux_h)],
    );
    println!(
        "(forwards collapse {mux_streams}x; whether µs/group falls with them is \
         model- and host-dependent — per-forward overhead amortizes, raw compute \
         does not.)"
    );
    // The muxed scheduler's whole point: one forward per tick, not one per
    // stream per tick.
    assert_eq!(seq_h.count, groups, "sequential arm pays one forward per group");
    assert_eq!(mux_h.count, mux_ticks as u64, "muxed arm pays one forward per tick");

    // ---- Overhead: enabled, from interleaved A/B rounds. ----
    let mut off = Vec::new();
    let mut on = Vec::new();
    for _ in 0..ab_rounds {
        let t = Instant::now();
        train_step(&model, &batch, &mut rng);
        off.push(t.elapsed().as_secs_f64() * 1e3);

        let s = metrics::scope();
        let t = Instant::now();
        train_step(&model, &batch, &mut rng);
        on.push(t.elapsed().as_secs_f64() * 1e3);
        drop(s);
    }
    let step_off_ms = median(&mut off);
    let step_on_ms = median(&mut on);

    // ---- Overhead: disabled, calls-per-step × ns-per-disabled-call. ----
    // Direct A/B cannot resolve a <1% effect over host noise, so both
    // factors are measured instead: the call count from the profiled
    // snapshot, the per-call cost from a tight loop with metrics off.
    let calls_per_step = snap.total_records() as f64 / steps as f64;
    const CALLS: u64 = 1_000_000;
    let t = Instant::now();
    for i in 0..CALLS {
        metrics::counter_add("profile/disabled", std::hint::black_box(i));
    }
    let ns_per_call = t.elapsed().as_nanos() as f64 / CALLS as f64;
    let disabled_pct = calls_per_step * ns_per_call / (step_off_ms * 1e6) * 100.0;

    println!();
    println!("{{");
    println!("  \"quick\": {quick},");
    println!("  \"batch_size\": {batch_size},");
    println!("  \"model_params\": {},", model.num_params());
    println!("  \"step_ms_metrics_off\": {step_off_ms:.1},");
    println!("  \"step_ms_metrics_on\": {step_on_ms:.1},");
    println!("  \"enabled_overhead_pct\": {:.2},", (step_on_ms / step_off_ms - 1.0) * 100.0);
    println!("  \"instrumentation_calls_per_step\": {calls_per_step:.0},");
    println!("  \"disabled_ns_per_call\": {ns_per_call:.2},");
    println!("  \"disabled_overhead_pct\": {disabled_pct:.4},");
    println!("  \"self_time_coverage_pct\": {:.1}", coverage * 100.0);
    println!("}}");

    // The 90% coverage contract is a table-2-scale claim (measured 96.5%
    // at batch 16). The quick smoke run at batch 4 has materially less
    // instrumented compute per fixed tape-bookkeeping overhead and sits
    // near 90% even on an idle host, so it gets a floor that still catches
    // broken instrumentation (which collapses coverage outright) without
    // flaking on host phase noise.
    let coverage_floor = if quick { 0.85 } else { 0.90 };
    assert!(
        coverage >= coverage_floor,
        "self-time table must explain >= {:.0}% of the step ({:.1}%)",
        coverage_floor * 100.0,
        coverage * 100.0
    );
    assert!(disabled_pct < 1.0, "disabled instrumentation must cost < 1% ({disabled_pct:.3}%)");

    eval_profile(quick, &[1, 8]);
}
