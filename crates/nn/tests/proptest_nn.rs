//! Property-based tests of optimizers, schedules, and layer invariants.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tsdx_nn::{
    clip_global_norm, AdamW, Eval, Linear, LrSchedule, Optimizer, ParamStore, Sgd, Tape,
    TransformerBlock,
};
use tsdx_tensor::{ops, Graph, Tensor};

fn bits(t: &Tensor) -> Vec<u32> {
    t.to_vec().into_iter().map(f32::to_bits).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn optimizers_descend_random_convex_quadratics(
        start in prop::collection::vec(-5.0f32..5.0, 4),
        curvature in prop::collection::vec(0.2f32..3.0, 4),
        adam in any::<bool>(),
    ) {
        // f(x) = 0.5 * sum(c_i x_i^2); grad = c_i x_i.
        let mut store = ParamStore::new();
        let x = store.add("x", Tensor::from_vec(start.clone(), &[4]));
        let mut sgd = Sgd::new(0.9);
        let mut adamw = AdamW::new(0.0);
        let f = |store: &ParamStore| -> f32 {
            store.value(x).data().iter().zip(&curvature).map(|(&v, &c)| 0.5 * c * v * v).sum()
        };
        let initial = f(&store);
        for _ in 0..120 {
            let grads = vec![Tensor::from_vec(
                store.value(x).data().iter().zip(&curvature).map(|(&v, &c)| c * v).collect(),
                &[4],
            )];
            if adam {
                adamw.step(&mut store, &grads, 0.05);
            } else {
                sgd.step(&mut store, &grads, 0.02);
            }
        }
        let final_val = f(&store);
        prop_assert!(
            final_val < initial * 0.2 + 1e-3,
            "no descent: {initial} -> {final_val} (adam={adam})"
        );
    }

    #[test]
    fn clip_never_increases_norm_and_preserves_direction(
        values in prop::collection::vec(-10.0f32..10.0, 6),
        max_norm in 0.5f32..5.0,
    ) {
        let mut grads = vec![Tensor::from_vec(values.clone(), &[6])];
        let before = clip_global_norm(&mut grads, max_norm);
        let after: f32 = grads[0].data().iter().map(|v| v * v).sum::<f32>().sqrt();
        prop_assert!(after <= max_norm + 1e-4);
        prop_assert!(after <= before + 1e-4);
        // Direction preserved: clipped vector is a non-negative multiple.
        if before > 1e-6 {
            for (a, b) in values.iter().zip(grads[0].data()) {
                prop_assert!((a * b >= -1e-6), "sign flip during clipping");
            }
        }
    }

    #[test]
    fn warmup_cosine_is_bounded_and_warms_up(
        base in 1e-4f32..1e-1,
        warmup in 1u32..50,
        span in 50u32..500,
    ) {
        let total = warmup + span;
        let min = base * 0.01;
        let s = LrSchedule::WarmupCosine { base, warmup, total, min };
        let mut prev = 0.0;
        for step in 0..warmup {
            let lr = s.lr(step);
            prop_assert!(lr >= prev - 1e-9, "warmup must be non-decreasing");
            prop_assert!(lr <= base * (1.0 + 1e-5));
            prev = lr;
        }
        for step in warmup..total + 20 {
            let lr = s.lr(step);
            prop_assert!(lr <= base * (1.0 + 1e-5) && lr >= min * (1.0 - 1e-5));
        }
        prop_assert!((s.lr(total + 1000) - min).abs() < min * 1e-4 + 1e-9);
    }

    #[test]
    fn linear_layers_are_affine(seed in 0u64..1_000) {
        // f(a*x) - f(0) == a * (f(x) - f(0)) for linear layers.
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let layer = Linear::new(&mut store, &mut rng, "l", 3, 2);
        let eval = |input: Tensor| -> Vec<f32> {
            let mut g = Graph::new();
            let p = store.bind_frozen(&mut g);
            let x = g.constant(input);
            let y = layer.forward(&mut g, &p, x);
            g.value(y).data().to_vec()
        };
        let x = Tensor::from_fn(&[1, 3], |i| (i as f32 + 1.0) * 0.3);
        let zero = eval(Tensor::zeros(&[1, 3]));
        let fx = eval(x.clone());
        let f2x = eval(tsdx_tensor::ops::scale(&x, 2.0));
        for i in 0..2 {
            let lhs = f2x[i] - zero[i];
            let rhs = 2.0 * (fx[i] - zero[i]);
            prop_assert!((lhs - rhs).abs() < 1e-4, "not affine: {lhs} vs {rhs}");
        }
    }

    #[test]
    fn the_two_executors_agree_bit_for_bit_on_a_block(
        seed in 0u64..1_000,
        (b, t) in (1usize..5, 1usize..9),
        (heads, head_dim) in (1usize..5, 1usize..5),
        first_only in any::<bool>(),
        want_attn in any::<bool>(),
        // The input is rows `offset..offset + t` of a longer sequence: a
        // strided view with a nonzero offset, like a window cut from a cache.
        offset in 0usize..3,
    ) {
        let dim = heads * head_dim * 2;
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let block = TransformerBlock::new(&mut store, &mut rng, "b", dim, heads, 2, 0.1);
        // Biases and norms start at 0 and 1: move them off the identity.
        for (k, id) in store.ids().collect::<Vec<_>>().into_iter().enumerate() {
            let v = store.value(id).clone();
            if v.rank() == 1 {
                let moved =
                    Tensor::from_fn(v.shape(), |i| v.data()[i] + ((i + 3 * k) as f32 * 0.37).sin() * 0.2);
                store.set_value(id, moved);
            }
        }
        let long = Tensor::from_fn(&[b, t + 3, dim], |i| (i as f32 * 0.0173 + seed as f32).sin());
        let x = ops::narrow(&long, 1, offset, t);

        let mut g = Graph::new();
        let p = store.bind_frozen(&mut g);
        let xv = g.constant(x.clone());
        let (want, want_probs) = block.run(&mut Tape::eval(&mut g, &p), &xv, first_only, want_attn);
        let (got, got_probs) = block.run(&mut Eval::new(&store), &x, first_only, want_attn);

        prop_assert_eq!(got.shape(), &[b, if first_only { 1 } else { t }, dim][..]);
        prop_assert_eq!(bits(&got), bits(g.value(want)));
        prop_assert_eq!(got_probs.is_some(), want_attn);
        if let (Some(got), Some(want)) = (got_probs, want_probs) {
            prop_assert_eq!(got.shape(), &[b, heads, t, t][..]);
            prop_assert_eq!(bits(&got), bits(g.value(want)));
        }
        // The public tape entry points are the same wiring.
        let eval = block.forward_eval(&mut g, &p, xv);
        if !first_only {
            prop_assert_eq!(bits(&got), bits(g.value(eval)));
        }
    }
}
