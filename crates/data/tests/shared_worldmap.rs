//! Datasets do not depend on who built the shared road maps.
//!
//! `render_video` takes its ground map from `WorldMap::of`, which builds the
//! map of each road kind once per process. This file holds ONE test on
//! purpose: its process starts with no map built, so the first dataset below
//! — four workers — fills the shared maps concurrently, and the sequential
//! run after it must reproduce that dataset bit for bit under every weather.

use tsdx_data::{generate_dataset, DatasetConfig};
use tsdx_render::{RenderConfig, Weather};
use tsdx_sdl::RoadKind;

#[test]
fn concurrently_filled_maps_render_the_sequential_dataset() {
    for weather in [Weather::Clear, Weather::Fog(0.06), Weather::Night] {
        let cfg = DatasetConfig {
            n_clips: 24,
            base_seed: 5,
            render: RenderConfig { weather, ..RenderConfig::default() },
            workers: 4,
            ..DatasetConfig::default()
        };
        let parallel = generate_dataset(&cfg);
        let sequential = generate_dataset(&DatasetConfig { workers: 1, ..cfg });
        assert_eq!(parallel.len(), sequential.len());
        for kind in RoadKind::ALL {
            assert!(parallel.iter().any(|c| c.truth.road == *kind), "no {kind:?} clip");
        }
        for (i, (a, b)) in parallel.iter().zip(&sequential).enumerate() {
            assert_eq!(a.truth, b.truth, "{weather:?}: clip {i}");
            let bits = |c: &tsdx_data::Clip| {
                c.video.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>()
            };
            assert!(bits(a) == bits(b), "{weather:?}: clip {i} renders differently");
        }
    }
}
