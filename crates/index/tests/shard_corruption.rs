//! Corrupted shards must load as typed [`IndexError`]s — never a panic,
//! never silently wrong data.
//!
//! The always-on tests corrupt shard files by hand (truncation at every
//! length, single-bit flips); the `fault-inject` module drives the same
//! failure modes through the deterministic fault registry, exercising the
//! production polling points inside the shard writer.

use std::path::PathBuf;

use tsdx_index::{IndexConfig, IndexError, VectorIndex};

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tsdx-index-corrupt-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Faults are process-global one-shots; serialize every save that could
/// consume one — the tests that arm them, and the always-on tests' own
/// saves, which would otherwise fire a fault armed for a test running
/// beside them.
#[cfg(feature = "fault-inject")]
static FAULT_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(feature = "fault-inject")]
fn fault_lock() -> std::sync::MutexGuard<'static, ()> {
    FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn saved_index(tag: &str) -> (PathBuf, PathBuf) {
    let mut ix = VectorIndex::new(IndexConfig { dim: 4, shard_capacity: 3 });
    for i in 0..7 {
        let mut v = [0.0f32; 4];
        v[i % 4] = 1.0;
        ix.push(&v).expect("dim matches");
    }
    let dir = fresh_dir(tag);
    #[cfg(feature = "fault-inject")]
    let _guard = fault_lock();
    ix.save_to(&dir).expect("save");
    (dir.join("shard-00001.idx"), dir)
}

#[test]
fn truncation_at_every_length_is_a_typed_error() {
    let (shard, dir) = saved_index("trunc");
    let bytes = std::fs::read(&shard).expect("read shard");
    for n in 0..bytes.len() {
        std::fs::write(&shard, &bytes[..n]).expect("write truncated");
        match VectorIndex::load(&dir) {
            Err(IndexError::Truncated { .. }) | Err(IndexError::Format(_)) => {}
            other => panic!("truncation to {n} bytes gave {other:?}"),
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn every_single_bit_flip_is_detected() {
    let (shard, dir) = saved_index("flip");
    let bytes = std::fs::read(&shard).expect("read shard");
    for bit in 0..bytes.len() * 8 {
        let mut corrupt = bytes.clone();
        corrupt[bit / 8] ^= 1 << (bit % 8);
        std::fs::write(&shard, &corrupt).expect("write corrupted");
        assert!(VectorIndex::load(&dir).is_err(), "bit flip at {bit} went undetected");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_shard_breaks_id_contiguity() {
    let (shard, dir) = saved_index("gap");
    std::fs::remove_file(&shard).expect("remove middle shard");
    assert!(matches!(VectorIndex::load(&dir), Err(IndexError::Format(_))));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn foreign_file_with_shard_name_is_rejected() {
    let (shard, dir) = saved_index("foreign");
    std::fs::write(&shard, b"definitely not a shard").expect("write garbage");
    match VectorIndex::load(&dir) {
        Err(IndexError::Format(_)) | Err(IndexError::Truncated { .. }) => {}
        other => panic!("foreign file gave {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[cfg(feature = "fault-inject")]
mod fault_registry {
    use super::fault_lock as lock;
    use super::*;
    use tsdx_tensor::faults;

    fn build_small() -> VectorIndex {
        let mut ix = VectorIndex::new(IndexConfig { dim: 4, shard_capacity: 8 });
        for i in 0..5 {
            let mut v = [0.0f32; 4];
            v[i % 4] = 1.0;
            ix.push(&v).expect("dim matches");
        }
        ix
    }

    #[test]
    fn armed_tear_loads_as_truncated() {
        let _guard = lock();
        faults::clear_all();
        let dir = fresh_dir("armed-tear");
        let ix = build_small();
        faults::SHARD_TEAR.arm(20);
        ix.save_to(&dir).expect("torn save still returns Ok");
        match VectorIndex::load(&dir) {
            Err(IndexError::Truncated { actual: 20, .. }) => {}
            other => panic!("torn shard gave {other:?}"),
        }
        faults::clear_all();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn armed_bit_flip_loads_as_checksum_or_format() {
        let _guard = lock();
        faults::clear_all();
        let dir = fresh_dir("armed-flip");
        let ix = build_small();
        // Bit 300 lands in the row data: both CRCs must catch it.
        faults::SHARD_BIT_FLIP.arm(300);
        ix.save_to(&dir).expect("flipped save still returns Ok");
        match VectorIndex::load(&dir) {
            Err(IndexError::Checksum { .. }) | Err(IndexError::Format(_)) => {}
            other => panic!("bit-flipped shard gave {other:?}"),
        }
        faults::clear_all();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn faults_fire_once_then_saves_are_clean() {
        let _guard = lock();
        faults::clear_all();
        let dir = fresh_dir("armed-once");
        let ix = build_small();
        faults::SHARD_TEAR.arm(4);
        ix.save_to(&dir).expect("torn save");
        assert!(VectorIndex::load(&dir).is_err());
        // The fault disarmed on firing: the next save is intact.
        ix.save_to(&dir).expect("clean save");
        let back = VectorIndex::load(&dir).expect("clean load");
        assert_eq!(back.len(), ix.len());
        faults::clear_all();
        std::fs::remove_dir_all(&dir).ok();
    }
}
