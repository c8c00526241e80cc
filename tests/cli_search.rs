//! `tsdx search` output, pinned byte for byte: the filtered similarity
//! search, the filter-only listing and the unfiltered similarity search over
//! a small generated dataset. A truth the index cannot hold — more actor
//! clauses than the taxonomy allows — is outside input: a typed error naming
//! the clip and a failing exit, never a panic.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use tsdx::data::{generate_dataset, save_clips, Clip, DatasetConfig};
use tsdx::sdl::{ActorAction, ActorClause, ActorKind};

const LIKE: &str = "ego cruise; vehicle leading ahead; road intersection";

/// A temporary directory of this process and test.
fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tsdx-cli-search-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The default dataset's first 64 clips, `edit`ed, written to `dir`.
fn dataset(dir: &Path, edit: impl FnOnce(&mut [Clip])) -> PathBuf {
    let mut clips = generate_dataset(&DatasetConfig { n_clips: 64, ..DatasetConfig::default() });
    edit(&mut clips);
    let data = dir.join("clips.bin");
    save_clips(&clips, &data).unwrap();
    data
}

fn search(data: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tsdx"))
        .arg("search")
        .arg("--data")
        .arg(data)
        .args(args)
        .output()
        .unwrap()
}

const FILTERED_LIKE: &str = concat!(
    "filter: road=intersection\n",
    "query:  ego cruise; vehicle leading ahead; road intersection\n",
    "  [clip    6 | cos 0.577] ego cruise; road intersection\n",
    "  [clip    8 | cos 0.500] ego accelerate; vehicle oncoming ahead; road intersection\n",
    "  [clip   38 | cos 0.500] ego turn-left; cyclist oncoming ahead; road intersection\n",
    "  [clip   44 | cos 0.500] ego cruise; cyclist crossing right; road intersection\n",
    "  [clip   47 | cos 0.500] ego decelerate-to-stop; vehicle stopped ahead; road intersection\n",
);

const FILTER_ONLY: &str = concat!(
    "filter: road=intersection — 15 matches\n",
    "  [clip    6] ego cruise; road intersection\n",
    "  [clip    8] ego accelerate; vehicle oncoming ahead; road intersection\n",
    "  [clip   17] ego decelerate-to-stop; pedestrian crossing left; road intersection\n",
    "  [clip   22] ego accelerate; road intersection\n",
    "  [clip   35] ego decelerate-to-stop; pedestrian crossing left; road intersection\n",
);

const LIKE_ONLY: &str = concat!(
    "filter: (any)\n",
    "query:  ego cruise; vehicle leading ahead; road intersection\n",
    "  [clip    1 | cos 0.750] ego cruise; vehicle leading ahead; road curve-left\n",
    "  [clip    3 | cos 0.750] ego cruise; vehicle leading ahead; road straight\n",
    "  [clip   27 | cos 0.750] ego cruise; vehicle leading ahead; road curve-right\n",
    "  [clip   52 | cos 0.750] ego cruise; vehicle leading ahead; road straight\n",
    "  [clip   59 | cos 0.750] ego cruise; vehicle leading ahead; road curve-left\n",
);

#[test]
fn search_output_is_byte_stable() {
    let dir = temp_dir("pinned");
    let data = dataset(&dir, |_| {});
    for (args, want) in [
        (&["--filter", "road=intersection", "--like", LIKE, "--top", "5"][..], FILTERED_LIKE),
        (&["--filter", "road=intersection", "--top", "5"][..], FILTER_ONLY),
        (&["--like", LIKE, "--top", "5"][..], LIKE_ONLY),
    ] {
        let out = search(&data, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}:\n{stderr}");
        assert_eq!(String::from_utf8_lossy(&out.stdout), want, "{args:?}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_truth_with_too_many_actors_is_a_typed_error() {
    let dir = temp_dir("actors");
    let data = dataset(&dir, |clips| {
        let truth = &mut clips[3].truth;
        truth.actors = vec![ActorClause::new(ActorKind::Vehicle, ActorAction::Leading); 5];
    });
    let out = search(&data, &["--like", LIKE]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(out.status.code(), Some(1), "a failing exit, not a panic's 101:\n{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(stderr.contains("clip 3: too many actor clauses (5 > 4)"), "{stderr}");
}
