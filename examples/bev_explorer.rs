//! BEV explorer: sample a scenario, simulate it, and print ASCII
//! renderings of both the bird's-eye view and the ego camera, side by side
//! with the ground-truth SDL and the kinematic labeler's reading.
//!
//! Run with `cargo run --release --example bev_explorer [seed]`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use tsdx::render::{render_bev, render_frame, BevConfig, Camera, WorldMap};
use tsdx::sim::{infer_actor_action, infer_ego_maneuver, SamplerConfig, ScenarioSampler};
use tsdx::tensor::Tensor;

/// Maps an intensity in [0, 1] to an ASCII shade.
fn shade(v: f32) -> char {
    const RAMP: &[u8] = b" .:-=+*#%@";
    let i = ((v * (RAMP.len() - 1) as f32).round() as usize).min(RAMP.len() - 1);
    RAMP[i] as char
}

fn print_image(title: &str, img: &Tensor) {
    let (h, w) = (img.shape()[0], img.shape()[1]);
    println!("-- {title} ({w}x{h}) --");
    for r in 0..h {
        let row: String = (0..w).map(|c| shade(img.at(&[r, c]))).collect();
        println!("  {row}");
    }
}

fn main() {
    let seed: u64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(21);
    let sampler = ScenarioSampler::new(SamplerConfig::default());
    let mut rng = StdRng::seed_from_u64(seed);
    let generated = sampler.sample(&mut rng);
    println!("seed {seed}");
    println!("ground truth: {}\n", generated.truth);

    let trajectory = generated.world.simulate(0.05);
    let map = WorldMap::of(&generated.world.road);
    let cam = Camera::standard(48, 24);

    // Mid-clip snapshot.
    let mid = trajectory.len() / 2;
    let ego = &trajectory.ego[mid];
    let actors: Vec<_> = generated
        .world
        .actors
        .iter()
        .zip(&trajectory.actors)
        .map(|(a, states)| (a.kind, states[mid]))
        .collect();

    let bev = render_bev(&BevConfig { size: 40, span: 70.0 }, map, ego, &actors);
    print_image("bird's-eye view (mid clip, ego at center)", &bev);
    println!();
    let frame = render_frame(&cam, map, ego, &actors);
    print_image("ego camera (mid clip)", &frame);

    // What the kinematic labeler reads back from the trajectory.
    let ego_read = infer_ego_maneuver(&trajectory, generated.truth.road);
    println!("\nkinematic labeler: ego {ego_read}");
    for (i, clause) in generated.truth.actors.iter().enumerate() {
        match infer_actor_action(&generated.world, &trajectory, i) {
            Some(action) => println!(
                "  actor {i} ({}): inferred `{action}`, truth `{}`",
                clause.kind, clause.action
            ),
            None => println!("  actor {i} ({}): mostly off-stage", clause.kind),
        }
    }
}
