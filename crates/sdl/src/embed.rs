//! Scenario2Vector-style fixed-length scenario embeddings.
//!
//! Scenarios are embedded into a sparse-ish vector whose blocks are:
//! one-hot ego maneuver, one-hot road kind, multi-hot event classes, and a
//! position histogram. The vectors are unit-norm, so their cosine is the
//! plain [`dot`] product, which drives retrieval (Table 3, `/search`).

use crate::ast::{EgoManeuver, Position, RoadKind, Scenario};
use crate::vocab::{event_index, EVENT_COUNT, EVENT_NONE};

/// Dimensionality of [`embed`] vectors.
pub const EMBED_DIM: usize = EgoManeuver::COUNT + RoadKind::COUNT + EVENT_COUNT + Position::COUNT;

/// Embeds a scenario as an L2-normalized vector of length [`EMBED_DIM`].
///
/// Unknown/invalid actor combinations are skipped (the embedding is total).
pub fn embed(s: &Scenario) -> [f32; EMBED_DIM] {
    let mut v = [0.0f32; EMBED_DIM];
    v[s.ego.index()] = 1.0;
    let road_base = EgoManeuver::COUNT;
    v[road_base + s.road.index()] = 1.0;
    let event_base = road_base + RoadKind::COUNT;
    let pos_base = event_base + EVENT_COUNT;
    if s.actors.is_empty() {
        v[event_base + EVENT_NONE] = 1.0;
    }
    for a in &s.actors {
        if let Some(e) = event_index(a.kind, a.action) {
            v[event_base + e] += 1.0;
        }
        if let Some(p) = a.position {
            v[pos_base + p.index()] += 1.0;
        }
    }
    l2_normalize(&mut v);
    v
}

/// Dot product of two equally-sized vectors — the similarity of
/// embeddings.
///
/// For vectors produced by [`embed`] (L2-normalized, see
/// [`is_unit_norm`]) the dot product equals the cosine similarity, without
/// recomputing two norms per corpus entry. Four independent accumulator
/// lanes keep the loop free of a serial dependency chain so it
/// autovectorizes; the lane split is a pure function of the slice length,
/// so the result is bit-identical no matter how the surrounding scan is
/// split or threaded.
///
/// The association is a contract, not an implementation detail: element
/// `i < len & !3` adds the unfused product `a[i] * b[i]` into lane
/// `i % 4`, the rest go into a tail accumulator in order, and the result
/// is `((l0 + l1) + (l2 + l3)) + tail`. The index's blocked scan
/// (`tsdx-index`) repeats exactly this sequence for 32 rows at a time
/// and is tested bit for bit against this function, so a change here
/// (reordering, `mul_add`, more lanes) changes every stored ranking's
/// score bits and must change that kernel with it.
///
/// A zero component may be dropped only against finite rows, which every
/// embedding is. Every accumulator starts at `+0.0` and never becomes
/// `-0.0` (a sum is `-0.0` only when both operands are), so adding the `±0`
/// that `0 × finite` gives changes no accumulator's bits and the scan
/// leaves such terms out — an SDL query has at most ten non-zero components
/// of [`EMBED_DIM`]. (`0 × inf` and `0 × NaN` are NaN, so the argument does
/// not hold for arbitrary rows.) Starting an accumulator anywhere but
/// `+0.0`, or seeding it with the first product, breaks it as surely as a
/// reordering does.
///
/// # Panics
///
/// Panics on length mismatch.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    let mut lanes = [0.0f32; 4];
    let (a4, a_tail) = a.split_at(a.len() & !3);
    let (b4, b_tail) = b.split_at(b.len() & !3);
    for (x, y) in a4.chunks_exact(4).zip(b4.chunks_exact(4)) {
        for l in 0..4 {
            lanes[l] += x[l] * y[l];
        }
    }
    let mut tail = 0.0f32;
    for (&x, &y) in a_tail.iter().zip(b_tail) {
        tail += x * y;
    }
    ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) + tail
}

/// True when `v` is L2-normalized to within `1e-4` — the invariant every
/// stored [`embed`] vector satisfies. Scan fast paths assert it in debug
/// builds before trusting [`dot`] as a cosine.
pub fn is_unit_norm(v: &[f32]) -> bool {
    let n2: f32 = v.iter().map(|&x| x * x).sum();
    (n2 - 1.0).abs() <= 1e-4
}

/// Cosine similarity of two scenarios' embeddings: their [`dot`] product,
/// the score `tsdx-index` ranks by.
pub fn embedding_similarity(a: &Scenario, b: &Scenario) -> f32 {
    dot(&embed(a), &embed(b))
}

fn l2_normalize(v: &mut [f32]) {
    let n: f32 = v.iter().map(|&x| x * x).sum::<f32>().sqrt();
    if n > 0.0 {
        for x in v.iter_mut() {
            *x /= n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{ActorAction, ActorClause, ActorKind};

    fn s1() -> Scenario {
        Scenario::new(EgoManeuver::Cruise, RoadKind::Straight).with_actor(ActorClause::at(
            ActorKind::Vehicle,
            ActorAction::Leading,
            Position::Ahead,
        ))
    }

    /// The embedding formula as a heap vector, normalised over every slot:
    /// the reference [`embed`]'s bits are held to.
    fn embed_dense(s: &Scenario) -> Vec<f32> {
        let mut v = vec![0.0f32; EMBED_DIM];
        v[s.ego.index()] = 1.0;
        let road_base = EgoManeuver::COUNT;
        v[road_base + s.road.index()] = 1.0;
        let event_base = road_base + RoadKind::COUNT;
        let pos_base = event_base + EVENT_COUNT;
        if s.actors.is_empty() {
            v[event_base + EVENT_NONE] = 1.0;
        }
        for a in &s.actors {
            if let Some(e) = event_index(a.kind, a.action) {
                v[event_base + e] += 1.0;
            }
            if let Some(p) = a.position {
                v[pos_base + p.index()] += 1.0;
            }
        }
        let n: f32 = v.iter().map(|&x| x * x).sum::<f32>().sqrt();
        if n > 0.0 {
            for x in v.iter_mut() {
                *x /= n;
            }
        }
        v
    }

    #[test]
    fn embed_has_the_bits_of_the_dense_formula_on_a_seeded_sweep() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut draw = |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 32) as usize % n
        };
        let mut with_actors = [0usize; 5];
        for _ in 0..10_000 {
            let ego = EgoManeuver::from_index(draw(EgoManeuver::COUNT));
            let mut s = Scenario::new(ego, RoadKind::from_index(draw(RoadKind::COUNT)));
            let actors = draw(5);
            with_actors[actors] += 1;
            for _ in 0..actors {
                // Any kind and action: taxonomy-valid or not, repeats allowed.
                let kind = ActorKind::from_index(draw(ActorKind::COUNT));
                let action = ActorAction::from_index(draw(ActorAction::COUNT));
                let p = draw(Position::COUNT + 1);
                let position = (p < Position::COUNT).then(|| Position::from_index(p));
                s.actors.push(ActorClause { kind, action, position });
            }
            let got: Vec<u32> = embed(&s).iter().map(|x| x.to_bits()).collect();
            let want: Vec<u32> = embed_dense(&s).iter().map(|x| x.to_bits()).collect();
            assert_eq!(got, want, "{s:?}");
        }
        assert!(with_actors.iter().all(|&n| n > 1000), "every actor count 0..=4: {with_actors:?}");
    }

    #[test]
    fn embedding_has_unit_norm() {
        let v = embed(&s1());
        assert_eq!(v.len(), EMBED_DIM);
        let n: f32 = v.iter().map(|&x| x * x).sum::<f32>().sqrt();
        assert!((n - 1.0).abs() < 1e-5);
    }

    #[test]
    fn self_similarity_is_one() {
        assert!((embedding_similarity(&s1(), &s1()) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn empty_actor_scenario_sets_none_flag() {
        let s = Scenario::new(EgoManeuver::Cruise, RoadKind::Straight);
        let v = embed(&s);
        let event_base = EgoManeuver::COUNT + RoadKind::COUNT;
        assert!(v[event_base + EVENT_NONE] > 0.0);
    }

    #[test]
    fn closer_scenarios_have_higher_similarity() {
        let a = s1();
        // Same everything but road differs.
        let mut near = s1();
        near.road = RoadKind::CurveLeft;
        // Different ego, road, and actor.
        let far = Scenario::new(EgoManeuver::TurnRight, RoadKind::Intersection)
            .with_actor(ActorClause::new(ActorKind::Pedestrian, ActorAction::Crossing));
        assert!(embedding_similarity(&a, &near) > embedding_similarity(&a, &far));
    }

    #[test]
    fn dot_equals_cosine_on_unit_vectors() {
        let a = embed(&s1());
        let b = embed(&Scenario::new(EgoManeuver::Accelerate, RoadKind::Intersection));
        assert!(is_unit_norm(&a) && is_unit_norm(&b));
        // The cosine with both norms recomputed, in f64.
        let norm = |v: &[f32]| v.iter().map(|&x| f64::from(x) * f64::from(x)).sum::<f64>().sqrt();
        let ab: f64 = a.iter().zip(&b).map(|(&x, &y)| f64::from(x) * f64::from(y)).sum();
        assert!((f64::from(dot(&a, &b)) - ab / (norm(&a) * norm(&b))).abs() < 1e-6);
        assert!((dot(&a, &a) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn dot_handles_every_tail_length() {
        for n in 0..9 {
            let a: Vec<f32> = (0..n).map(|i| i as f32 + 0.5).collect();
            let b: Vec<f32> = (0..n).map(|i| 1.0 - i as f32 * 0.25).collect();
            let reference: f32 = a.iter().zip(&b).map(|(&x, &y)| x * y).sum();
            assert!((dot(&a, &b) - reference).abs() < 1e-4, "n={n}");
        }
    }

    #[test]
    fn unit_norm_check_rejects_unnormalized_and_poisoned_vectors() {
        assert!(is_unit_norm(&[1.0, 0.0, 0.0]));
        assert!(!is_unit_norm(&[1.0, 1.0]));
        assert!(!is_unit_norm(&[0.0; 4]));
        assert!(!is_unit_norm(&[f32::NAN, 0.0]));
    }

    #[test]
    fn embedding_similarity_is_bounded() {
        let b = Scenario::new(EgoManeuver::Accelerate, RoadKind::Intersection);
        let c = embedding_similarity(&s1(), &b);
        assert!((0.0..=1.0).contains(&c));
    }
}
