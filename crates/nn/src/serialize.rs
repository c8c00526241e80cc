//! Crash-safe checkpoint (de)serialization for [`ParamStore`]s and full
//! training state.
//!
//! # Format (version 2)
//!
//! A little-endian binary container with end-to-end integrity checks:
//!
//! ```text
//! magic    b"TSDXCKP2"
//! u64      file length (total, including the trailing CRC)
//! u32      epoch          — epochs completed when this was written
//! u32      step           — optimizer steps taken
//! f32      lr_scale       — bad-step backoff scale (1.0 = none)
//! u32      consecutive_bad
//! u32      skipped_steps
//! u8       has_rng        — 1 ⇒ 4×u64 xoshiro256** state follows
//! u8       has_opt        — 1 ⇒ AdamW moments follow the tensors
//! u32      number of tensors
//! repeat:  u32 name length, UTF-8 name bytes,
//!          u32 rank, u32 dims...,
//!          f32 data (row-major), u32 CRC32 of the data bytes
//! if opt:  u32 t, then per tensor: f32 m-data + u32 CRC,
//!          f32 v-data + u32 CRC (shapes mirror the tensors above)
//! u32      CRC32 of every preceding byte
//! ```
//!
//! # Crash safety
//!
//! [`save_train_checkpoint`] never leaves a half-written file at the
//! destination: the encoded bytes go to a same-directory temp file, the
//! temp file is fsynced, then atomically renamed over the destination (and
//! the directory entry is synced, best effort). A crash at any point leaves
//! either the complete old checkpoint or the complete new one.
//!
//! # Corruption detection
//!
//! Readers verify the declared length (truncation ⇒
//! [`CheckpointError::Truncated`]) and the whole-file CRC *before* parsing
//! (any bit flip ⇒ [`CheckpointError::Checksum`]), then re-verify each
//! tensor's own CRC while decoding so a rare multi-bit corruption is pinned
//! to the tensor it hit. A corrupt checkpoint is always a typed error,
//! never a panic and never a silently-wrong load — fuzzed over truncation
//! points and bit flips by `tests/checkpoint_corruption.rs`.

use std::error::Error;
use std::fmt;
use std::fs::File;
use std::io::{self, Write};
use std::path::Path;

use tsdx_tensor::Tensor;

use crate::optim::AdamWState;
use crate::params::ParamStore;

const MAGIC_V2: &[u8; 8] = b"TSDXCKP2";
const MAGIC_V1: &[u8; 8] = b"TSDXCKP1";

/// Error returned by checkpoint saving and loading.
#[derive(Debug)]
#[non_exhaustive]
pub enum CheckpointError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file is not a tsdx checkpoint or violates the format.
    Format(String),
    /// The file is shorter than its header declares (torn write).
    Truncated {
        /// Length the header declares.
        expected: u64,
        /// Length actually on disk.
        actual: u64,
    },
    /// A CRC32 mismatch: the bytes were silently corrupted at rest.
    Checksum {
        /// What the checksum covered (`"file"` or a tensor name).
        section: String,
        /// CRC stored in the file.
        stored: u32,
        /// CRC computed over the bytes read.
        computed: u32,
    },
    /// A checkpoint tensor's shape conflicts with the model's parameter.
    ShapeMismatch {
        /// Parameter name.
        name: String,
        /// Shape registered in the store.
        expected: Vec<usize>,
        /// Shape found in the checkpoint.
        found: Vec<usize>,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint i/o error: {e}"),
            CheckpointError::Format(m) => write!(f, "invalid checkpoint: {m}"),
            CheckpointError::Truncated { expected, actual } => {
                write!(f, "truncated checkpoint: header declares {expected} bytes, file has {actual}")
            }
            CheckpointError::Checksum { section, stored, computed } => write!(
                f,
                "checkpoint corrupted: CRC32 mismatch in {section} (stored {stored:#010x}, computed {computed:#010x})"
            ),
            CheckpointError::ShapeMismatch { name, expected, found } => write!(
                f,
                "checkpoint shape mismatch for {name}: store has {expected:?}, checkpoint has {found:?}"
            ),
        }
    }
}

impl Error for CheckpointError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// Scalar training-loop state carried inside a checkpoint so a resumed run
/// continues bit-identically (see `tsdx_core::train_resilient`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainState {
    /// Epochs fully completed when the checkpoint was written.
    pub epoch: u32,
    /// Optimizer steps taken (including skipped bad batches).
    pub step: u32,
    /// Current bad-step learning-rate backoff scale (1.0 = no backoff).
    pub lr_scale: f32,
    /// Consecutive non-finite batches immediately before the checkpoint.
    pub consecutive_bad: u32,
    /// Total batches skipped by the non-finite guard so far.
    pub skipped_steps: u32,
    /// Shuffle/dropout RNG state at the checkpoint boundary.
    pub rng: Option<[u64; 4]>,
}

impl Default for TrainState {
    fn default() -> Self {
        TrainState {
            epoch: 0,
            step: 0,
            lr_scale: 1.0,
            consecutive_bad: 0,
            skipped_steps: 0,
            rng: None,
        }
    }
}

/// Everything a resumable training run needs: parameters plus optional
/// optimizer moments and loop state.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainCheckpoint {
    /// Scalar loop state (epoch, step, RNG, guard counters).
    pub state: TrainState,
    /// `(name, value)` for every parameter, in registration order.
    pub params: Vec<(String, Tensor)>,
    /// AdamW moments aligned with `params`, when saved mid-training.
    pub opt: Option<AdamWState>,
}

impl TrainCheckpoint {
    /// A parameters-only checkpoint (no optimizer or loop state).
    pub fn from_params(store: &ParamStore) -> Self {
        TrainCheckpoint {
            state: TrainState::default(),
            params: store.iter().map(|(n, t)| (n.to_string(), t.clone())).collect(),
            opt: None,
        }
    }
}

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3, the zlib polynomial).

const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC32 (IEEE 802.3 / zlib polynomial) of `bytes`.
///
/// The same checksum guards every on-disk artifact in the workspace —
/// checkpoint-v2 sections here and vector-index shards in `tsdx-index` —
/// so corruption tooling and fault-injection tests share one definition.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Encoding.

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_tensor_data(out: &mut Vec<u8>, t: &Tensor) {
    let start = out.len();
    for v in t.to_vec() {
        out.extend_from_slice(&v.to_le_bytes());
    }
    let crc = crc32(&out[start..]);
    put_u32(out, crc);
}

fn encode(ckpt: &TrainCheckpoint) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC_V2);
    out.extend_from_slice(&0u64.to_le_bytes()); // file length, patched below
    put_u32(&mut out, ckpt.state.epoch);
    put_u32(&mut out, ckpt.state.step);
    out.extend_from_slice(&ckpt.state.lr_scale.to_le_bytes());
    put_u32(&mut out, ckpt.state.consecutive_bad);
    put_u32(&mut out, ckpt.state.skipped_steps);
    match ckpt.state.rng {
        Some(s) => {
            out.push(1);
            for w in s {
                out.extend_from_slice(&w.to_le_bytes());
            }
        }
        None => out.push(0),
    }
    out.push(ckpt.opt.is_some() as u8);
    put_u32(&mut out, ckpt.params.len() as u32);
    for (name, tensor) in &ckpt.params {
        put_u32(&mut out, name.len() as u32);
        out.extend_from_slice(name.as_bytes());
        put_u32(&mut out, tensor.rank() as u32);
        for &d in tensor.shape() {
            put_u32(&mut out, d as u32);
        }
        put_tensor_data(&mut out, tensor);
    }
    if let Some(opt) = &ckpt.opt {
        assert_eq!(opt.m.len(), ckpt.params.len(), "optimizer moments must align with params");
        put_u32(&mut out, opt.t);
        for i in 0..opt.m.len() {
            put_tensor_data(&mut out, &opt.m[i]);
            put_tensor_data(&mut out, &opt.v[i]);
        }
    }
    let total = (out.len() + 4) as u64;
    out[8..16].copy_from_slice(&total.to_le_bytes());
    let crc = crc32(&out);
    put_u32(&mut out, crc);
    out
}

// ---------------------------------------------------------------------------
// Decoding.

struct Dec<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        // Unreachable for any file that passed the whole-file CRC, but kept
        // as a hard bound so decoding is safe in isolation too.
        let end =
            self.pos.checked_add(n).filter(|&e| e <= self.bytes.len()).ok_or_else(|| {
                CheckpointError::Format("section extends past end of file".into())
            })?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn f32(&mut self) -> Result<f32, CheckpointError> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    /// Reads `numel` f32s plus their CRC, verifying it.
    fn tensor_data(&mut self, numel: usize, section: &str) -> Result<Vec<f32>, CheckpointError> {
        let raw = self.take(numel * 4)?;
        let computed = crc32(raw);
        let stored = self.u32()?;
        if stored != computed {
            return Err(CheckpointError::Checksum {
                section: section.to_string(),
                stored,
                computed,
            });
        }
        Ok(raw
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect())
    }
}

fn decode(bytes: &[u8]) -> Result<TrainCheckpoint, CheckpointError> {
    if bytes.len() >= 8 && &bytes[..8] == MAGIC_V1 {
        return Err(CheckpointError::Format(
            "legacy v1 checkpoint (no checksums); re-save with this version".into(),
        ));
    }
    if bytes.len() < 16 || &bytes[..8] != MAGIC_V2 {
        return Err(CheckpointError::Format("bad magic number".into()));
    }
    let declared = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
    let actual = bytes.len() as u64;
    if actual < declared {
        return Err(CheckpointError::Truncated { expected: declared, actual });
    }
    if actual > declared {
        return Err(CheckpointError::Format(format!(
            "{} trailing bytes after declared end",
            actual - declared
        )));
    }
    let body = &bytes[..bytes.len() - 4];
    let stored = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().expect("4 bytes"));
    let computed = crc32(body);
    if stored != computed {
        return Err(CheckpointError::Checksum { section: "file".into(), stored, computed });
    }

    let mut d = Dec { bytes: body, pos: 16 };
    let epoch = d.u32()?;
    let step = d.u32()?;
    let lr_scale = d.f32()?;
    let consecutive_bad = d.u32()?;
    let skipped_steps = d.u32()?;
    let rng = match d.u8()? {
        0 => None,
        1 => {
            let mut s = [0u64; 4];
            for w in &mut s {
                *w = d.u64()?;
            }
            Some(s)
        }
        other => return Err(CheckpointError::Format(format!("bad rng flag {other}"))),
    };
    let has_opt = match d.u8()? {
        0 => false,
        1 => true,
        other => return Err(CheckpointError::Format(format!("bad optimizer flag {other}"))),
    };
    let count = d.u32()? as usize;
    if count > 1_000_000 {
        return Err(CheckpointError::Format(format!("implausible tensor count {count}")));
    }
    let mut params = Vec::with_capacity(count);
    for _ in 0..count {
        let name_len = d.u32()? as usize;
        if name_len > 4096 {
            return Err(CheckpointError::Format(format!("implausible name length {name_len}")));
        }
        let name = String::from_utf8(d.take(name_len)?.to_vec())
            .map_err(|_| CheckpointError::Format("non-UTF-8 parameter name".into()))?;
        let rank = d.u32()? as usize;
        if rank > 16 {
            return Err(CheckpointError::Format(format!("implausible rank {rank}")));
        }
        let mut shape = Vec::with_capacity(rank);
        for _ in 0..rank {
            shape.push(d.u32()? as usize);
        }
        let n: usize = shape.iter().product();
        if n > 256 << 20 {
            return Err(CheckpointError::Format("implausible tensor size".into()));
        }
        let data = d.tensor_data(n, &name)?;
        params.push((name, Tensor::from_vec(data, &shape)));
    }
    let opt = if has_opt {
        let t = d.u32()?;
        let mut m = Vec::with_capacity(count);
        let mut v = Vec::with_capacity(count);
        for (name, tensor) in &params {
            let shape = tensor.shape().to_vec();
            let n = tensor.numel();
            m.push(Tensor::from_vec(d.tensor_data(n, &format!("{name}.adamw.m"))?, &shape));
            v.push(Tensor::from_vec(d.tensor_data(n, &format!("{name}.adamw.v"))?, &shape));
        }
        Some(AdamWState { t, m, v })
    } else {
        None
    };
    if d.pos != body.len() {
        return Err(CheckpointError::Format(format!(
            "{} undeclared bytes before file CRC",
            body.len() - d.pos
        )));
    }
    Ok(TrainCheckpoint {
        state: TrainState { epoch, step, lr_scale, consecutive_bad, skipped_steps, rng },
        params,
        opt,
    })
}

// ---------------------------------------------------------------------------
// Atomic file plumbing.

/// Best-effort directory-entry sync after a rename (no-op off unix; errors
/// ignored — some filesystems refuse fsync on directories).
fn sync_dir(path: &Path) {
    #[cfg(unix)]
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Ok(f) = File::open(dir) {
            let _ = f.sync_all();
        }
    }
    #[cfg(not(unix))]
    let _ = path;
}

/// Writes `bytes` to `path` via temp file + fsync + atomic rename.
///
/// The destination only ever holds either its previous contents or the
/// complete new bytes — never a torn prefix. Used by checkpoint saves here
/// and by `tsdx-index` shard writes; callers with typed error enums map the
/// `io::Error` into their own `Io` variant.
///
/// # Errors
///
/// `InvalidInput` when `path` has no file name, plus any I/O error from
/// staging, syncing, or renaming (the temp file is removed on failure).
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let file_name = path.file_name().ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidInput, "destination path has no file name")
    })?;
    let tmp =
        path.with_file_name(format!("{}.tmp.{}", file_name.to_string_lossy(), std::process::id()));
    let result: io::Result<()> = (|| {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        std::fs::rename(&tmp, path)?;
        Ok(())
    })();
    if result.is_err() {
        std::fs::remove_file(&tmp).ok();
    } else {
        sync_dir(path);
    }
    result
}

// ---------------------------------------------------------------------------
// Public API.

/// Writes a full training checkpoint to `path`, crash-safely.
///
/// The destination only ever holds a complete checkpoint: bytes are staged
/// in a same-directory temp file, fsynced, and renamed into place.
///
/// # Errors
///
/// Returns any I/O error from staging, syncing, or renaming.
pub fn save_train_checkpoint(
    ckpt: &TrainCheckpoint,
    path: impl AsRef<Path>,
) -> Result<(), CheckpointError> {
    let path = path.as_ref();
    #[allow(unused_mut)]
    let mut bytes = encode(ckpt);
    #[cfg(feature = "fault-inject")]
    {
        if let Some(n) = tsdx_tensor::faults::CHECKPOINT_TEAR.take() {
            // Simulates a crash mid-write of a non-atomic writer: the
            // destination ends up holding a bare prefix of the encoding.
            let n = (n as usize).min(bytes.len());
            std::fs::write(path, &bytes[..n])?;
            return Ok(());
        }
        if let Some(bit) = tsdx_tensor::faults::CHECKPOINT_BIT_FLIP.take() {
            // Simulates silent at-rest corruption of one bit.
            let byte = (bit / 8) as usize % bytes.len();
            bytes[byte] ^= 1 << (bit % 8) as u8;
        }
    }
    write_atomic(path, &bytes)?;
    Ok(())
}

/// Writes every parameter of `store` to `path` (no optimizer/loop state).
///
/// # Errors
///
/// Returns any I/O error from creating or writing the file.
pub fn save_checkpoint(store: &ParamStore, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
    save_train_checkpoint(&TrainCheckpoint::from_params(store), path)
}

/// Reads a full training checkpoint from `path`, verifying every checksum.
///
/// # Errors
///
/// [`CheckpointError::Truncated`] on a torn file,
/// [`CheckpointError::Checksum`] on bit corruption,
/// [`CheckpointError::Format`] on structural violations, and
/// [`CheckpointError::Io`] on read failures.
pub fn read_train_checkpoint(path: impl AsRef<Path>) -> Result<TrainCheckpoint, CheckpointError> {
    decode(&std::fs::read(path)?)
}

/// Reads all `(name, tensor)` entries from a checkpoint file.
///
/// # Errors
///
/// See [`read_train_checkpoint`].
pub fn read_checkpoint(path: impl AsRef<Path>) -> Result<Vec<(String, Tensor)>, CheckpointError> {
    Ok(read_train_checkpoint(path)?.params)
}

/// Restores parameters of `store` by name from the checkpoint at `path`.
///
/// Returns the number of parameters restored.
///
/// # Errors
///
/// See [`read_train_checkpoint`]; additionally returns
/// [`CheckpointError::ShapeMismatch`] when a matching name carries a
/// different shape (a model-configuration mismatch must not be silently
/// ignored — no parameter is modified in that case).
pub fn load_checkpoint(
    store: &mut ParamStore,
    path: impl AsRef<Path>,
) -> Result<usize, CheckpointError> {
    let entries = read_checkpoint(path)?;
    store.try_load_named(&entries).map_err(|m| CheckpointError::ShapeMismatch {
        name: m.name,
        expected: m.expected,
        found: m.found,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("tsdx-ckpt-test-{name}-{}", std::process::id()));
        p
    }

    #[test]
    fn roundtrip_preserves_values() {
        let mut store = ParamStore::new();
        store.add("a.weight", Tensor::from_fn(&[3, 4], |i| i as f32 * 0.5));
        store.add("a.bias", Tensor::from_vec(vec![-1.0, 2.0, 0.25, 9.0], &[4]));
        let path = tmp("roundtrip");
        save_checkpoint(&store, &path).unwrap();

        let mut fresh = ParamStore::new();
        let w = fresh.add("a.weight", Tensor::zeros(&[3, 4]));
        let b = fresh.add("a.bias", Tensor::zeros(&[4]));
        let n = load_checkpoint(&mut fresh, &path).unwrap();
        assert_eq!(n, 2);
        assert_eq!(fresh.value(w), store.value(store.ids().next().unwrap()));
        assert_eq!(fresh.value(b).data(), &[-1.0, 2.0, 0.25, 9.0]);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn full_train_checkpoint_roundtrips() {
        let mut store = ParamStore::new();
        store.add("w", Tensor::from_fn(&[2, 3], |i| i as f32 - 2.5));
        let mut opt = crate::AdamW::new(0.01);
        let grads: Vec<Tensor> = store.iter().map(|(_, t)| t.clone()).collect();
        use crate::Optimizer;
        opt.step(&mut store, &grads, 0.1);

        let ckpt = TrainCheckpoint {
            state: TrainState {
                epoch: 7,
                step: 123,
                lr_scale: 0.25,
                consecutive_bad: 1,
                skipped_steps: 4,
                rng: Some([1, 2, 3, 0xDEAD_BEEF]),
            },
            params: store.iter().map(|(n, t)| (n.to_string(), t.clone())).collect(),
            opt: Some(opt.export_state(&store)),
        };
        let path = tmp("fullstate");
        save_train_checkpoint(&ckpt, &path).unwrap();
        let back = read_train_checkpoint(&path).unwrap();
        assert_eq!(back, ckpt);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn unknown_names_are_ignored() {
        let mut store = ParamStore::new();
        store.add("old", Tensor::ones(&[2]));
        let path = tmp("unknown");
        save_checkpoint(&store, &path).unwrap();
        let mut fresh = ParamStore::new();
        fresh.add("new", Tensor::zeros(&[2]));
        let n = load_checkpoint(&mut fresh, &path).unwrap();
        assert_eq!(n, 0);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn bad_magic_is_rejected() {
        let path = tmp("badmagic");
        std::fs::write(&path, b"NOTATSDXFILE____").unwrap();
        let err = read_checkpoint(&path).unwrap_err();
        assert!(matches!(err, CheckpointError::Format(_)), "{err}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn legacy_v1_is_rejected_with_a_clear_message() {
        let path = tmp("v1");
        std::fs::write(&path, b"TSDXCKP1\x00\x00\x00\x00").unwrap();
        let err = read_checkpoint(&path).unwrap_err();
        assert!(err.to_string().contains("v1"), "{err}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn truncated_file_is_typed_truncation_error() {
        let mut store = ParamStore::new();
        store.add("w", Tensor::ones(&[64]));
        let path = tmp("trunc");
        save_checkpoint(&store, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        let err = read_checkpoint(&path).unwrap_err();
        assert!(matches!(err, CheckpointError::Truncated { .. }), "{err}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn flipped_bit_is_checksum_error() {
        let mut store = ParamStore::new();
        store.add("w", Tensor::from_fn(&[16], |i| i as f32));
        let path = tmp("flip");
        save_checkpoint(&store, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let err = read_checkpoint(&path).unwrap_err();
        assert!(matches!(err, CheckpointError::Checksum { .. }), "{err}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn shape_mismatch_is_typed_and_leaves_store_untouched() {
        let mut store = ParamStore::new();
        store.add("w", Tensor::ones(&[4]));
        let path = tmp("shape");
        save_checkpoint(&store, &path).unwrap();

        let mut other = ParamStore::new();
        let id = other.add("w", Tensor::full(&[2, 2], 7.0));
        let err = load_checkpoint(&mut other, &path).unwrap_err();
        assert!(matches!(err, CheckpointError::ShapeMismatch { .. }), "{err}");
        assert_eq!(other.value(id).data(), &[7.0; 4], "failed load must not modify values");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn save_leaves_no_temp_files_behind() {
        let dir = std::env::temp_dir().join(format!("tsdx-ckpt-dir-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut store = ParamStore::new();
        store.add("w", Tensor::ones(&[8]));
        save_checkpoint(&store, dir.join("model.ckpt")).unwrap();
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec!["model.ckpt".to_string()], "only the final file remains");
        std::fs::remove_dir_all(&dir).ok();
    }
}
