//! The search answers, pinned bit for bit.
//!
//! Each digest is a 64-bit FNV-1a over the exact bytes of what 64 SDL
//! queries × k ∈ {10, 1 000} answer — per answer its length, then per hit
//! the id and the score's bits — against a corpus of random taxonomy-valid
//! scenarios, corpus and queries drawn from one xorshift stream seeded with
//! 17 or 45. The parity suites compare the index with a `dot` reference, so
//! a change that moves both (a `mul_add` in `dot`, a reordered `embed`
//! normalization) passes them; it cannot pass this file. A digest that
//! moves on purpose is updated in the same change that moves it.
//!
//! 20 000 rows run in every build; the 200 000 rows `/search` is measured
//! on run at `--release` only.

use tsdx_index::VectorIndex;
use tsdx_sdl::{vocab, ActorClause, EgoManeuver, Position, RoadKind, Scenario, MAX_ACTORS};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into the FNV-1a state `h`.
fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// A xorshift draw in `0..n`.
fn draw(state: &mut u64, n: usize) -> usize {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    (*state >> 32) as usize % n
}

/// A random taxonomy-valid scenario: what the `/search` corpus is made of.
fn random_scenario(state: &mut u64) -> Scenario {
    let ego = EgoManeuver::from_index(draw(state, EgoManeuver::COUNT));
    let road = RoadKind::from_index(draw(state, RoadKind::COUNT));
    let actors = (0..draw(state, MAX_ACTORS + 1))
        .map(|_| {
            let (kind, action) = vocab::EVENT_CLASSES[draw(state, vocab::EVENT_CLASSES.len())];
            let p = draw(state, 2 * Position::COUNT);
            let position = (p < Position::COUNT).then(|| Position::from_index(p));
            ActorClause { kind, action, position }
        })
        .collect();
    Scenario { ego, actors, road }
}

/// The digest of 64 queries × k ∈ {10, 1 000} over `rows` scenarios, all
/// drawn from the stream `seed` starts.
fn search_digest(rows: usize, seed: u64) -> u64 {
    let mut state = 0x9E37_79B9_7F4A_7C15 ^ seed;
    let mut index = VectorIndex::default();
    for _ in 0..rows {
        index.push_scenario(&random_scenario(&mut state)).expect("taxonomy-valid scenario");
    }
    let mut h = FNV_OFFSET;
    for _ in 0..64 {
        let query = random_scenario(&mut state);
        for k in [10, 1000] {
            let hits = index.query_scenario(&query, k).expect("SDL query");
            h = fnv1a(h, &(hits.len() as u64).to_le_bytes());
            for (id, score) in hits {
                h = fnv1a(h, &id.to_le_bytes());
                h = fnv1a(h, &score.to_bits().to_le_bytes());
            }
        }
    }
    h
}

#[test]
fn search_answers_over_20k_rows_keep_their_digest() {
    let got = [17, 45].map(|seed| format!("{:#018x}", search_digest(20_000, seed)));
    assert_eq!(got, ["0xa8d744796c51ab4b", "0xc9318cb8ee96e0a6"]);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "200 000 rows: run with --release")]
fn search_answers_over_200k_rows_keep_their_digest() {
    let got = [17, 45].map(|seed| format!("{:#018x}", search_digest(200_000, seed)));
    assert_eq!(got, ["0x14b085003c59c418", "0xa1098553c9cccce8"]);
}
