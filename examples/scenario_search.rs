//! Scenario search: query a corpus of driving clips with an SDL
//! description and retrieve the most similar scenarios.
//!
//! This is the downstream use case motivating automated extraction: an AV
//! validation engineer asks "find me clips like *ego decelerate-to-stop;
//! pedestrian crossing right; road intersection*" and the corpus answers —
//! without anyone hand-labeling the clips.
//!
//! Run with `cargo run --release --example scenario_search`.

use tsdx::data::{generate_dataset, DatasetConfig};
use tsdx::metrics::{precision_at_k, rank_by_score};
use tsdx::sdl::{cosine, embed, parse_scenario, similarity};

fn main() {
    // Build a small corpus with ground-truth SDL (in production these
    // descriptions come from the trained extractor; see `quickstart.rs`).
    println!("generating a 300-clip corpus...");
    let corpus = generate_dataset(&DatasetConfig { n_clips: 300, ..DatasetConfig::default() });
    let embeddings: Vec<_> = corpus.iter().map(|c| embed(&c.truth)).collect();

    let queries = [
        "ego decelerate-to-stop; pedestrian crossing right; road intersection",
        "ego cruise; vehicle oncoming ahead; road curve-left",
        "ego turn-left; road intersection",
        "ego lane-change-left; vehicle overtaking left; road straight",
    ];

    for query_text in queries {
        let query = parse_scenario(query_text).expect("valid query SDL");
        let qe = embed(&query);

        // Rank the corpus by embedding cosine similarity.
        let scores: Vec<f32> = embeddings.iter().map(|e| cosine(&qe, e)).collect();
        let mut order: Vec<usize> = (0..corpus.len()).collect();
        order.sort_by(|&a, &b| scores[b].partial_cmp(&scores[a]).expect("finite"));

        println!("\nquery: {query}");
        for &i in order.iter().take(3) {
            println!(
                "  [cos {:.2} | slot-sim {:.2}] {}",
                scores[i],
                similarity(&query, &corpus[i].truth),
                corpus[i].truth
            );
        }

        // Precision@5 against a strict relevance notion (same ego & road).
        let relevant: Vec<bool> =
            corpus.iter().map(|c| c.truth.ego == query.ego && c.truth.road == query.road).collect();
        let p5 = precision_at_k(&rank_by_score(&scores, &relevant), 5);
        println!("  P@5 (same ego maneuver + road): {:.0}%", p5 * 100.0);
    }
}
