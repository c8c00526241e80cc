//! Multi-task SDL decoding heads and the combined training loss.

use rand::Rng;
use tsdx_data::{Batch, POSITION_COUNT};
use tsdx_nn::{Exec, Linear, ParamStore};
use tsdx_sdl::{vocab, ActorKind, EgoManeuver, RoadKind};
use tsdx_tensor::ops::Activation;
use tsdx_tensor::{Graph, Tensor, Var};

/// Logits of all five heads for one batch, as handles of the executor that
/// computed them: tape variables by default, the tensors themselves from the
/// non-recording executor ([`WindowLogits`](crate::WindowLogits)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeadLogits<V = Var> {
    /// Ego maneuver logits `[B, 7]`.
    pub ego: V,
    /// Road kind logits `[B, 4]`.
    pub road: V,
    /// Primary event logits `[B, 13]`.
    pub event: V,
    /// Position logits `[B, 5]`.
    pub position: V,
    /// Actor presence logits `[B, 3]` (sigmoid semantics).
    pub presence: V,
}

impl HeadLogits<Tensor> {
    /// Whether every logit of batch row `i` is finite — what a row must be
    /// to be decoded into an answer.
    pub(crate) fn row_is_finite(&self, i: usize) -> bool {
        [&self.ego, &self.road, &self.event, &self.position, &self.presence].iter().all(|head| {
            let width = head.shape()[1];
            head.flat()[i * width..(i + 1) * width].iter().all(|x| x.is_finite())
        })
    }
}

/// Weight of the position cross-entropy and of the presence BCE in
/// [`multitask_loss`]; the ego, road and event terms weigh 1. Presence is
/// the easiest head and would otherwise dominate early training.
const HALF_WEIGHT: f32 = 0.5;

/// The five linear decoding heads on top of a clip embedding.
#[derive(Debug, Clone)]
pub struct SdlHeads {
    ego: Linear,
    road: Linear,
    event: Linear,
    position: Linear,
    presence: Linear,
}

impl SdlHeads {
    /// Registers all heads for a `dim`-wide clip embedding.
    pub fn new(store: &mut ParamStore, rng: &mut impl Rng, name: &str, dim: usize) -> Self {
        SdlHeads {
            ego: Linear::new(store, rng, &format!("{name}.ego"), dim, EgoManeuver::COUNT),
            road: Linear::new(store, rng, &format!("{name}.road"), dim, RoadKind::COUNT),
            event: Linear::new(store, rng, &format!("{name}.event"), dim, vocab::EVENT_COUNT),
            position: Linear::new(store, rng, &format!("{name}.position"), dim, POSITION_COUNT),
            presence: Linear::new(store, rng, &format!("{name}.presence"), dim, ActorKind::COUNT),
        }
    }

    /// Applies all heads to a clip embedding `[B, D]`.
    pub fn forward<E: Exec>(&self, ex: &mut E, embedding: &E::V) -> HeadLogits<E::V> {
        let mut head = |l: &Linear| l.run(ex, embedding, Activation::None, None);
        HeadLogits {
            ego: head(&self.ego),
            road: head(&self.road),
            event: head(&self.event),
            position: head(&self.position),
            presence: head(&self.presence),
        }
    }
}

/// Combined multi-task loss for one batch (scalar variable): the ego, road
/// and event cross-entropies plus half the position cross-entropy and half
/// the presence BCE.
pub fn multitask_loss(g: &mut Graph, logits: &HeadLogits, batch: &Batch) -> Var {
    let ego = g.cross_entropy(logits.ego, &batch.ego);
    let road = g.cross_entropy(logits.road, &batch.road);
    let event = g.cross_entropy(logits.event, &batch.event);
    let position = g.cross_entropy(logits.position, &batch.position);
    let presence = g.bce_logits(logits.presence, &batch.presence);

    let position = g.scale(position, HALF_WEIGHT);
    let presence = g.scale(presence, HALF_WEIGHT);
    let a = g.add(ego, road);
    let b = g.add(event, position);
    let ab = g.add(a, b);
    g.add(ab, presence)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tsdx_nn::Tape;
    use tsdx_tensor::Tensor;

    fn dummy_batch(b: usize) -> Batch {
        Batch {
            videos: Tensor::zeros(&[b, 1, 1, 1]),
            ego: vec![0; b],
            road: vec![1; b],
            event: vec![vocab::EVENT_NONE; b],
            position: vec![tsdx_data::POSITION_NONE; b],
            presence: Tensor::zeros(&[b, 3]),
        }
    }

    #[test]
    fn heads_produce_correct_widths() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let heads = SdlHeads::new(&mut store, &mut rng, "h", 16);
        let mut g = Graph::new();
        let p = store.bind(&mut g);
        let emb = g.constant(Tensor::zeros(&[3, 16]));
        let out = heads.forward(&mut Tape::eval(&mut g, &p), &emb);
        assert_eq!(g.shape(out.ego), &[3, EgoManeuver::COUNT]);
        assert_eq!(g.shape(out.road), &[3, RoadKind::COUNT]);
        assert_eq!(g.shape(out.event), &[3, vocab::EVENT_COUNT]);
        assert_eq!(g.shape(out.position), &[3, POSITION_COUNT]);
        assert_eq!(g.shape(out.presence), &[3, ActorKind::COUNT]);
    }

    #[test]
    fn loss_is_finite_scalar_and_differentiable() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(1);
        let heads = SdlHeads::new(&mut store, &mut rng, "h", 8);
        let mut g = Graph::new();
        let p = store.bind(&mut g);
        let emb = g.constant(Tensor::from_fn(&[2, 8], |i| (i as f32 * 0.1).sin()));
        let logits = heads.forward(&mut Tape::eval(&mut g, &p), &emb);
        let batch = dummy_batch(2);
        let loss = multitask_loss(&mut g, &logits, &batch);
        let v = g.value(loss).item();
        assert!(v.is_finite() && v > 0.0);
        let grads = g.backward(loss);
        let collected = store.collect_grads(&p, &grads);
        assert!(collected.iter().any(|t| t.data().iter().any(|&x| x != 0.0)));
    }

    #[test]
    fn position_and_presence_weigh_half() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(2);
        let heads = SdlHeads::new(&mut store, &mut rng, "h", 8);
        let mut g = Graph::new();
        let p = store.bind(&mut g);
        let emb = g.constant(Tensor::from_fn(&[2, 8], |i| (i as f32 * 0.3).cos()));
        let logits = heads.forward(&mut Tape::eval(&mut g, &p), &emb);
        let batch = dummy_batch(2);
        let loss = multitask_loss(&mut g, &logits, &batch);
        let terms = [
            g.cross_entropy(logits.ego, &batch.ego),
            g.cross_entropy(logits.road, &batch.road),
            g.cross_entropy(logits.event, &batch.event),
            g.cross_entropy(logits.position, &batch.position),
            g.bce_logits(logits.presence, &batch.presence),
        ]
        .map(|t| g.value(t).item());
        let want = terms[0] + terms[1] + terms[2] + 0.5 * terms[3] + 0.5 * terms[4];
        let got = g.value(loss).item();
        assert!((got - want).abs() <= 1e-6 * want, "{got} vs {want}");
    }
}
