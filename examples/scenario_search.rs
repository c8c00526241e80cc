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
use tsdx::index::VectorIndex;
use tsdx::metrics::precision_at_k;
use tsdx::sdl::{parse_scenario, similarity};

fn main() {
    // Build a small corpus with ground-truth SDL (in production these
    // descriptions come from the trained extractor; see `quickstart.rs`).
    println!("generating a 300-clip corpus...");
    let corpus = generate_dataset(&DatasetConfig { n_clips: 300, ..DatasetConfig::default() });
    // The index `/search` serves from: clip i is id i.
    let mut index = VectorIndex::default();
    for clip in &corpus {
        index.push_scenario(&clip.truth).expect("generated truths are taxonomy-valid");
    }

    let queries = [
        "ego decelerate-to-stop; pedestrian crossing right; road intersection",
        "ego cruise; vehicle oncoming ahead; road curve-left",
        "ego turn-left; road intersection",
        "ego lane-change-left; vehicle overtaking left; road straight",
    ];

    for query_text in queries {
        let query = parse_scenario(query_text).expect("valid query SDL");

        // The five most similar clips by embedding cosine, best first.
        let Ok(hits) = index.query_scenario(&query, 5);

        println!("\nquery: {query}");
        for &(id, score) in hits.iter().take(3) {
            let truth = &corpus[id as usize].truth;
            println!("  [cos {score:.2} | slot-sim {:.2}] {truth}", similarity(&query, truth));
        }

        // Precision@5 against a strict relevance notion (same ego & road).
        let relevant: Vec<bool> = hits
            .iter()
            .map(|&(id, _)| &corpus[id as usize].truth)
            .map(|t| t.ego == query.ego && t.road == query.road)
            .collect();
        println!("  P@5 (same ego maneuver + road): {:.0}%", precision_at_k(&relevant, 5) * 100.0);
    }
}
