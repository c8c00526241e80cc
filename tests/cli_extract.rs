//! `tsdx extract` treats its `--data` file as outside input: a malformed
//! clip anywhere in it is reported as a typed error on stderr and a failing
//! exit status — never a panic — and the well-formed clips around it are
//! still described. A flag a subcommand does not take, or one given twice,
//! fails the same way.

use std::process::Command;

use tsdx::core::{ClipModel, ModelConfig, ScenarioExtractor};
use tsdx::data::{generate_dataset, save_clips, DatasetConfig};
use tsdx::nn::save_checkpoint;
use tsdx::tensor::Tensor;

#[test]
fn malformed_clips_are_typed_errors_not_panics() {
    let dir = std::env::temp_dir().join(format!("tsdx-cli-extract-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (data, ckpt) = (dir.join("clips.bin"), dir.join("model.ckpt"));

    // Four clips at the CLI model's shape; then the second loses half its
    // rows and the third gains a NaN. The first is what `tsdx` sizes its
    // model from, so only a per-clip check can catch the other two.
    let cfg = ModelConfig::default();
    let mut clips = generate_dataset(&DatasetConfig { n_clips: 4, ..DatasetConfig::default() });
    assert_eq!(clips[0].video.shape(), [cfg.frames, cfg.height, cfg.width]);
    clips[1].video = Tensor::zeros(&[cfg.frames, cfg.height / 2, cfg.width]);
    let mut pixels = clips[2].video.to_vec();
    pixels[7] = f32::NAN;
    clips[2].video = Tensor::from_vec(pixels, &[cfg.frames, cfg.height, cfg.width]);
    save_clips(&clips, &data).unwrap();
    save_checkpoint(ScenarioExtractor::untrained(cfg, 0).model().params(), &ckpt).unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_tsdx"))
        .args(["extract", "--model"])
        .arg(&ckpt)
        .arg("--data")
        .arg(&data)
        .output()
        .unwrap();
    let (stdout, stderr) =
        (String::from_utf8_lossy(&out.stdout), String::from_utf8_lossy(&out.stderr));
    std::fs::remove_dir_all(&dir).unwrap();

    assert_eq!(out.status.code(), Some(1), "a failing exit, not a panic's 101:\n{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(stderr.contains("clip 1: ") && stderr.contains("shape"), "{stderr}");
    assert!(stderr.contains("clip 2: ") && stderr.contains("non-finite"), "{stderr}");
    assert!(stderr.contains("2 of 4 clips"), "{stderr}");
    assert_eq!(stdout.matches("truth: ").count(), 4, "{stdout}");
    assert_eq!(stdout.matches(" pred: ego ").count(), 2, "clips 0 and 3 are described:\n{stdout}");
}

/// A typo'd or repeated flag is an error with the usage, never a run that
/// quietly drops the filter or keeps one of two values.
#[test]
fn unknown_and_repeated_flags_are_errors() {
    for (args, named) in [
        (&["search", "--data", "clips.bin", "--filtr", "road=intersection"][..], "--filtr"),
        (&["search", "--data", "clips.bin", "--top", "3", "--top", "9"][..], "--top"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_tsdx")).args(args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}:\n{stderr}");
        assert!(stderr.starts_with("error: ") && stderr.contains(named), "{stderr}");
        assert!(stderr.contains("USAGE:"), "{stderr}");
    }
}
