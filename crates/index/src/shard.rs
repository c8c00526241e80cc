//! The on-disk shard format and its typed failure modes.
//!
//! A shard is a fixed-stride block of `count` embedding rows of `dim` f32s,
//! wrapped in the same integrity envelope as checkpoint-v2
//! (`tsdx_nn::serialize`): a magic tag, a declared file length, a CRC32
//! over the row data, and a CRC32 over the whole file. Writes go through
//! [`tsdx_nn::write_atomic`] (temp file + fsync + rename), so the
//! destination only ever holds its previous contents or a complete shard.
//! Loads re-verify everything and return a typed [`IndexError`] — a torn or
//! bit-flipped shard is *diagnosed*, never a panic and never silently
//! wrong data.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! offset  size        field
//! 0       8           magic "TSDXIDX1"
//! 8       8           file length in bytes (u64)
//! 16      4           dim   (u32)
//! 20      4           count (u32)
//! 24      8           base id of row 0 (u64)
//! 32      count*dim*4 row data, f32 LE, row-major
//! ..      4           CRC32 over the row data
//! ..      4           CRC32 over every preceding byte of the file
//! ```

use std::error::Error;
use std::fmt;
use std::io;
use std::path::Path;

use tsdx_nn::{crc32, write_atomic};

pub(crate) const MAGIC: &[u8; 8] = b"TSDXIDX1";
const HEADER_LEN: usize = 32;
const FOOTER_LEN: usize = 8;

/// Implausibility guards: reject absurd headers before allocating.
const MAX_DIM: u32 = 1 << 16;
const MAX_COUNT: u32 = 1 << 28;

/// Error returned by shard and index saving and loading.
#[derive(Debug)]
#[non_exhaustive]
pub enum IndexError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file is not a tsdx index shard or violates the format.
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
        /// What the checksum covered (`"file"` or `"rows"`).
        section: String,
        /// CRC stored in the file.
        stored: u32,
        /// CRC computed over the bytes read.
        computed: u32,
    },
    /// A vector's dimensionality conflicts with the index stride.
    DimMismatch {
        /// Stride the index was built with.
        expected: usize,
        /// Dimensionality found.
        found: usize,
    },
}

impl fmt::Display for IndexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexError::Io(e) => write!(f, "index i/o error: {e}"),
            IndexError::Format(m) => write!(f, "invalid index shard: {m}"),
            IndexError::Truncated { expected, actual } => {
                write!(f, "truncated index shard: header declares {expected} bytes, file has {actual}")
            }
            IndexError::Checksum { section, stored, computed } => write!(
                f,
                "index shard corrupted: CRC32 mismatch in {section} (stored {stored:#010x}, computed {computed:#010x})"
            ),
            IndexError::DimMismatch { expected, found } => {
                write!(f, "index dim mismatch: index stride is {expected}, vector has {found}")
            }
        }
    }
}

impl Error for IndexError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            IndexError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for IndexError {
    fn from(e: io::Error) -> Self {
        IndexError::Io(e)
    }
}

/// One decoded shard: `count = rows.len() / dim` embedding rows whose
/// global ids start at `base_id`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ShardRecord {
    pub dim: usize,
    pub base_id: u64,
    pub rows: Vec<f32>,
}

fn encode(dim: usize, base_id: u64, rows: &[f32]) -> Vec<u8> {
    debug_assert!(dim > 0 && rows.len().is_multiple_of(dim));
    let count = rows.len() / dim;
    let total = HEADER_LEN + rows.len() * 4 + FOOTER_LEN;
    let mut out = Vec::with_capacity(total);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&(total as u64).to_le_bytes());
    out.extend_from_slice(&(dim as u32).to_le_bytes());
    out.extend_from_slice(&(count as u32).to_le_bytes());
    out.extend_from_slice(&base_id.to_le_bytes());
    for v in rows {
        out.extend_from_slice(&v.to_le_bytes());
    }
    let data_crc = crc32(&out[HEADER_LEN..]);
    out.extend_from_slice(&data_crc.to_le_bytes());
    let file_crc = crc32(&out);
    out.extend_from_slice(&file_crc.to_le_bytes());
    out
}

fn get_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("bounds checked"))
}

fn get_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("bounds checked"))
}

fn decode(bytes: &[u8]) -> Result<ShardRecord, IndexError> {
    if bytes.len() < HEADER_LEN + FOOTER_LEN {
        return Err(IndexError::Truncated {
            expected: (HEADER_LEN + FOOTER_LEN) as u64,
            actual: bytes.len() as u64,
        });
    }
    if &bytes[..8] != MAGIC {
        return Err(IndexError::Format("bad magic (not a tsdx index shard)".into()));
    }
    let declared = get_u64(bytes, 8);
    if declared > bytes.len() as u64 {
        return Err(IndexError::Truncated { expected: declared, actual: bytes.len() as u64 });
    }
    if declared < bytes.len() as u64 {
        return Err(IndexError::Format(format!(
            "trailing garbage: header declares {declared} bytes, file has {}",
            bytes.len()
        )));
    }
    let stored_file_crc = get_u32(bytes, bytes.len() - 4);
    let computed_file_crc = crc32(&bytes[..bytes.len() - 4]);
    if stored_file_crc != computed_file_crc {
        return Err(IndexError::Checksum {
            section: "file".into(),
            stored: stored_file_crc,
            computed: computed_file_crc,
        });
    }
    let dim = get_u32(bytes, 16);
    let count = get_u32(bytes, 20);
    let base_id = get_u64(bytes, 24);
    if dim == 0 || dim > MAX_DIM {
        return Err(IndexError::Format(format!("implausible dim {dim}")));
    }
    if count > MAX_COUNT {
        return Err(IndexError::Format(format!("implausible row count {count}")));
    }
    let numel = dim as u64 * count as u64;
    let expected = HEADER_LEN as u64 + numel * 4 + FOOTER_LEN as u64;
    if expected != declared {
        return Err(IndexError::Format(format!(
            "geometry mismatch: dim {dim} x count {count} needs {expected} bytes, header declares {declared}"
        )));
    }
    let data = &bytes[HEADER_LEN..bytes.len() - FOOTER_LEN];
    let stored_data_crc = get_u32(bytes, bytes.len() - 8);
    let computed_data_crc = crc32(data);
    if stored_data_crc != computed_data_crc {
        return Err(IndexError::Checksum {
            section: "rows".into(),
            stored: stored_data_crc,
            computed: computed_data_crc,
        });
    }
    let mut rows = Vec::with_capacity(numel as usize);
    for c in data.chunks_exact(4) {
        rows.push(f32::from_le_bytes(c.try_into().expect("chunks_exact(4)")));
    }
    Ok(ShardRecord { dim: dim as usize, base_id, rows })
}

/// Encodes and writes one shard crash-safely; the fault-injection registry
/// can substitute a torn or bit-flipped write (see `tsdx_tensor::faults`).
pub(crate) fn save_shard(
    path: &Path,
    dim: usize,
    base_id: u64,
    rows: &[f32],
) -> Result<(), IndexError> {
    #[allow(unused_mut)]
    let mut bytes = encode(dim, base_id, rows);
    #[cfg(feature = "fault-inject")]
    {
        if let Some(n) = tsdx_tensor::faults::SHARD_TEAR.take() {
            // Simulates a crash mid-write of a non-atomic writer: the
            // destination ends up holding a bare prefix of the encoding.
            let n = (n as usize).min(bytes.len());
            std::fs::write(path, &bytes[..n])?;
            return Ok(());
        }
        if let Some(bit) = tsdx_tensor::faults::SHARD_BIT_FLIP.take() {
            // Simulates silent at-rest corruption of one bit.
            let byte = (bit / 8) as usize % bytes.len();
            bytes[byte] ^= 1 << (bit % 8) as u8;
        }
    }
    write_atomic(path, &bytes)?;
    Ok(())
}

/// Reads and fully verifies one shard.
pub(crate) fn load_shard(path: &Path) -> Result<ShardRecord, IndexError> {
    let bytes = std::fs::read(path)?;
    decode(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        encode(3, 7, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    }

    #[test]
    fn roundtrip_preserves_rows_and_ids() {
        let rec = decode(&sample()).expect("valid shard");
        assert_eq!(rec.dim, 3);
        assert_eq!(rec.base_id, 7);
        assert_eq!(rec.rows, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn empty_shard_roundtrips() {
        let rec = decode(&encode(4, 0, &[])).expect("valid empty shard");
        assert_eq!(rec.rows.len(), 0);
    }

    #[test]
    fn every_truncation_length_is_a_typed_error() {
        let bytes = sample();
        for n in 0..bytes.len() {
            match decode(&bytes[..n]) {
                Err(IndexError::Truncated { .. }) | Err(IndexError::Format(_)) => {}
                other => panic!("truncation to {n} bytes gave {other:?}"),
            }
        }
    }

    #[test]
    fn every_single_bit_flip_is_a_typed_error() {
        let bytes = sample();
        for bit in 0..bytes.len() * 8 {
            let mut corrupt = bytes.clone();
            corrupt[bit / 8] ^= 1 << (bit % 8);
            assert!(decode(&corrupt).is_err(), "bit flip at {bit} went undetected");
        }
    }

    #[test]
    fn bad_magic_is_format_not_checksum() {
        let mut bytes = sample();
        bytes[0] = b'X';
        assert!(matches!(decode(&bytes), Err(IndexError::Format(_))));
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = sample();
        bytes.push(0);
        assert!(matches!(decode(&bytes), Err(IndexError::Format(_))));
    }
}
