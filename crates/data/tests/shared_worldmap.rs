//! Datasets do not depend on who built the shared road maps.
//!
//! `render_video` takes its ground map from `WorldMap::of`, which builds the
//! map of each road kind once per process. This file holds ONE test on
//! purpose: its process starts with no map built, so the first clips below —
//! four threads, each calling `generate_clip` on its share of the indices —
//! fill the shared maps concurrently, and the sequential `generate_dataset`
//! after them must reproduce those clips bit for bit under every weather.

use tsdx_data::{generate_clip, generate_dataset, Clip, DatasetConfig};
use tsdx_render::{RenderConfig, Weather};
use tsdx_sdl::RoadKind;

const THREADS: usize = 4;

/// Clips `0..cfg.n_clips`, generated by `THREADS` threads that each take one
/// contiguous share of the indices.
fn generate_on_threads(cfg: &DatasetConfig) -> Vec<Clip> {
    let indices: Vec<usize> = (0..cfg.n_clips).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = indices
            .chunks(cfg.n_clips.div_ceil(THREADS))
            .map(|share| {
                scope
                    .spawn(move || share.iter().map(|&i| generate_clip(cfg, i)).collect::<Vec<_>>())
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("clip generation thread")).collect()
    })
}

#[test]
fn concurrently_filled_maps_render_the_sequential_dataset() {
    for weather in [Weather::Clear, Weather::Fog(0.06), Weather::Night] {
        let cfg = DatasetConfig {
            n_clips: 24,
            base_seed: 5,
            render: RenderConfig { weather, ..RenderConfig::default() },
            ..DatasetConfig::default()
        };
        let parallel = generate_on_threads(&cfg);
        let sequential = generate_dataset(&cfg);
        assert_eq!(parallel.len(), sequential.len());
        for kind in RoadKind::ALL {
            assert!(parallel.iter().any(|c| c.truth.road == *kind), "no {kind:?} clip");
        }
        for (i, (a, b)) in parallel.iter().zip(&sequential).enumerate() {
            assert_eq!(a.truth, b.truth, "{weather:?}: clip {i}");
            let bits = |c: &Clip| c.video.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert!(bits(a) == bits(b), "{weather:?}: clip {i} renders differently");
        }
    }
}
