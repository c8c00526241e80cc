//! The in-memory sharded index and its blocked brute-force scan.
//!
//! A shard holds its rows in blocks of [`BLOCK_ROWS`], each block laid out
//! `[dim][BLOCK_ROWS]` (dimension-major, the block's rows side by side), so
//! scoring a block is `dim` broadcast-multiply-adds over `BLOCK_ROWS`-wide
//! vectors with no horizontal reduction — the scan runs at the rate the
//! rows can be read. The layout is private to memory: shard files stay
//! row-major (`TSDXIDX1`), transposed on [`VectorIndex::save_to`] and
//! [`VectorIndex::load`].

use std::path::Path;
use std::sync::Arc;

use tsdx_sdl::{dot, embed, is_unit_norm, Scenario, TopK, EMBED_DIM};
use tsdx_tensor::pool;

use crate::shard::{load_shard, save_shard, IndexError};

/// Default rows per shard: large enough that scan setup amortizes, small
/// enough that a shard re-write after an append stays cheap.
pub const DEFAULT_SHARD_CAPACITY: usize = 65_536;

/// Construction parameters for a [`VectorIndex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexConfig {
    /// Embedding dimensionality (stride of every stored row).
    pub dim: usize,
    /// Rows per shard; the last shard may be partially filled.
    pub shard_capacity: usize,
}

impl Default for IndexConfig {
    /// SDL defaults: [`EMBED_DIM`]-wide rows, [`DEFAULT_SHARD_CAPACITY`]
    /// rows per shard.
    fn default() -> Self {
        IndexConfig { dim: EMBED_DIM, shard_capacity: DEFAULT_SHARD_CAPACITY }
    }
}

/// Rows per block: one 8-lane `f32` vector of the x86-64-v3 build per
/// dimension. A layout constant, not a dial — every score is computed
/// lane-independently, so the width never shows in an answer.
const BLOCK_ROWS: usize = 8;

/// A sharded vector index over L2-normalized embeddings.
///
/// Rows live in shards of `[dim][8]` blocks (behind [`Arc`]s so the scan
/// can fan out on the worker pool without copying). Ids are dense `u64`s in
/// insertion order. Queries are exact brute-force scans: every row is
/// scored with the bits of [`tsdx_sdl::dot`] and streamed into the total
/// [`TopK`] order, one accumulator per shard merged afterwards, so the
/// answer is bit-identical across pool sizes and across shard capacities (a
/// row's score never depends on its block, lane, or shard, and the order
/// is total).
#[derive(Debug, Clone)]
pub struct VectorIndex {
    dim: usize,
    shard_capacity: usize,
    /// Every shard except the last is full.
    shards: Vec<Arc<Shard>>,
}

/// One shard: `rows` embeddings with ids `base..base + rows`, stored as
/// `rows.div_ceil(8)` blocks of `[dim][8]` (`dim` is the index's, passed in).
/// Lanes of the last block past `rows` are zero and are never ranked.
#[derive(Debug, Clone)]
struct Shard {
    base: u64,
    rows: usize,
    blocks: Vec<f32>,
}

impl Shard {
    fn new(base: u64) -> Shard {
        Shard { base, rows: 0, blocks: Vec::new() }
    }

    /// Blocks `rows` (row-major, `dim`-strided) — the load-time transpose.
    fn from_rows(base: u64, dim: usize, rows: &[f32]) -> Shard {
        let mut shard = Shard::new(base);
        shard.blocks.reserve_exact((rows.len() / dim).div_ceil(BLOCK_ROWS) * dim * BLOCK_ROWS);
        rows.chunks_exact(dim).for_each(|row| shard.push(row));
        shard
    }

    /// Appends one row. Storage grows a whole zeroed block at a time and
    /// `Vec`'s doubling amortizes it — no size is guessed up front.
    fn push(&mut self, row: &[f32]) {
        let block_len = row.len() * BLOCK_ROWS;
        let lane = self.rows % BLOCK_ROWS;
        if lane == 0 {
            self.blocks.resize(self.blocks.len() + block_len, 0.0);
        }
        let block = self.blocks.len() - block_len;
        for (col, &x) in self.blocks[block..].chunks_exact_mut(BLOCK_ROWS).zip(row) {
            col[lane] = x;
        }
        self.rows += 1;
    }

    /// Row `i` of the shard, gathered out of its block.
    fn row(&self, dim: usize, i: usize) -> impl Iterator<Item = f32> + '_ {
        let block_len = dim * BLOCK_ROWS;
        let block = &self.blocks[i / BLOCK_ROWS * block_len..][..block_len];
        block.chunks_exact(BLOCK_ROWS).map(move |col| col[i % BLOCK_ROWS])
    }

    /// The shard's rows in row-major order — the save-time transpose.
    fn to_rows(&self, dim: usize) -> Vec<f32> {
        let mut rows = Vec::with_capacity(self.rows * dim);
        (0..self.rows).for_each(|i| rows.extend(self.row(dim, i)));
        rows
    }

    /// Scores every row against the `dim`-long `q` and offers it to `best`.
    fn scan_into(&self, q: &[f32], best: &mut TopK<u64>) {
        let dim = q.len();
        // Filled only for NaN scores: at most one allocation per scan.
        let mut row = Vec::new();
        for (b, block) in self.blocks.chunks_exact(dim * BLOCK_ROWS).enumerate() {
            let scores = score_block(q, block);
            if best.rejects_all(&scores) {
                continue;
            }
            // Only here does the zero padding of the last block matter.
            for (i, &score) in (b * BLOCK_ROWS..self.rows).zip(&scores) {
                // Which NaN an add of two NaNs returns depends on the
                // operand order the compiler chose, so a NaN score (never
                // rejected above) takes its bits from `dot` itself.
                let score = if score.is_nan() {
                    row.clear();
                    row.extend(self.row(dim, i));
                    dot(q, &row)
                } else {
                    score
                };
                best.push(self.base + i as u64, score);
            }
        }
    }
}

/// `dot(q, row)` for the eight rows of one `[dim][8]` block, with exactly
/// the association of [`tsdx_sdl::dot`]: dimension `d < dim & !3` adds the
/// unfused product `q[d] * row[d]` into accumulator `d % 4`, the remaining
/// dimensions into a tail accumulator in order, and the result is
/// `((l0 + l1) + (l2 + l3)) + tail`. Each lane repeats `dot`'s scalar
/// operations one for one, and every IEEE operation that does not return a
/// NaN has exactly one result, so a score that is not NaN has `dot`'s bits
/// and a score is NaN exactly when `dot`'s is. The eight lanes are
/// independent, which is what lets the loops vectorize.
fn score_block(q: &[f32], block: &[f32]) -> [f32; BLOCK_ROWS] {
    let quads = q.len() & !3;
    let (q4, q_tail) = q.split_at(quads);
    let (b4, b_tail) = block.split_at(quads * BLOCK_ROWS);
    let mut lanes = [[0.0f32; BLOCK_ROWS]; 4];
    for (x, cols) in q4.chunks_exact(4).zip(b4.chunks_exact(4 * BLOCK_ROWS)) {
        for (l, col) in cols.chunks_exact(BLOCK_ROWS).enumerate() {
            for r in 0..BLOCK_ROWS {
                lanes[l][r] += x[l] * col[r];
            }
        }
    }
    let mut tail = [0.0f32; BLOCK_ROWS];
    for (&x, col) in q_tail.iter().zip(b_tail.chunks_exact(BLOCK_ROWS)) {
        for r in 0..BLOCK_ROWS {
            tail[r] += x * col[r];
        }
    }
    let mut scores = [0.0f32; BLOCK_ROWS];
    for r in 0..BLOCK_ROWS {
        scores[r] = ((lanes[0][r] + lanes[1][r]) + (lanes[2][r] + lanes[3][r])) + tail[r];
    }
    scores
}

impl Default for VectorIndex {
    fn default() -> Self {
        VectorIndex::new(IndexConfig::default())
    }
}

impl VectorIndex {
    /// An empty index with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics when `dim` or `shard_capacity` is zero — both are
    /// construction-time constants, not runtime inputs.
    pub fn new(cfg: IndexConfig) -> Self {
        assert!(cfg.dim > 0, "index dim must be positive");
        assert!(cfg.shard_capacity > 0, "shard capacity must be positive");
        VectorIndex { dim: cfg.dim, shard_capacity: cfg.shard_capacity, shards: Vec::new() }
    }

    /// Embedding dimensionality (stride of every stored row).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of indexed vectors.
    pub fn len(&self) -> u64 {
        self.shards.last().map_or(0, |s| s.base + s.rows as u64)
    }

    /// True when nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// Number of shards currently held.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Appends one raw row, returning its id.
    ///
    /// The caller owns the unit-norm invariant for raw rows; vectors that
    /// arrive through [`Self::push_scenario`] carry it by construction.
    ///
    /// # Errors
    ///
    /// [`IndexError::DimMismatch`] when `v` is not `dim` wide.
    pub fn push(&mut self, v: &[f32]) -> Result<u64, IndexError> {
        if v.len() != self.dim {
            return Err(IndexError::DimMismatch { expected: self.dim, found: v.len() });
        }
        let id = self.len();
        if self.shards.last().is_none_or(|s| s.rows >= self.shard_capacity) {
            self.shards.push(Arc::new(Shard::new(id)));
        }
        Arc::make_mut(self.shards.last_mut().expect("shard just ensured")).push(v);
        Ok(id)
    }

    /// Embeds and appends one scenario, returning its id.
    ///
    /// # Errors
    ///
    /// [`IndexError::DimMismatch`] when the index was not built with
    /// `dim == EMBED_DIM`.
    pub fn push_scenario(&mut self, s: &Scenario) -> Result<u64, IndexError> {
        let e = embed(s);
        debug_assert!(is_unit_norm(&e), "sdl::embed must produce unit-norm vectors");
        self.push(&e)
    }

    /// The stored row with id `id`, if any — gathered out of its block
    /// into an owned vector, bit for bit what was pushed.
    pub fn row(&self, id: u64) -> Option<Vec<f32>> {
        let shard = self.shards.partition_point(|s| s.base <= id).checked_sub(1)?;
        let shard = &self.shards[shard];
        let i = (id - shard.base) as usize;
        (i < shard.rows).then(|| shard.row(self.dim, i).collect())
    }

    /// The `k` most similar rows to `q`, best first, as `(id, similarity)`.
    ///
    /// Similarity is the plain dot product — exact cosine for the
    /// unit-norm rows [`Self::push_scenario`] stores. One pool chunk scans
    /// each shard into its own accumulator and the per-shard survivors
    /// merge under the same total order, so the result is deterministic for
    /// any input and identical across pool sizes and shard capacities, and
    /// a query allocates O(shards · k), never O(n).
    ///
    /// # Errors
    ///
    /// [`IndexError::DimMismatch`] when `q` is not `dim` wide.
    pub fn query(&self, q: &[f32], k: usize) -> Result<Vec<(u64, f32)>, IndexError> {
        if q.len() != self.dim {
            return Err(IndexError::DimMismatch { expected: self.dim, found: q.len() });
        }
        if k == 0 || self.shards.is_empty() {
            return Ok(Vec::new());
        }
        // Pool jobs are `'static`: they share the shards through their
        // `Arc`s and get their own copy of the `dim`-long query.
        let shards = self.shards.clone();
        let q: Arc<[f32]> = q.into();
        let per_shard = pool::map_chunks_named("index/scan", shards.len(), move |c| {
            let mut best = TopK::new(k);
            shards[c].scan_into(&q, &mut best);
            best
        });
        let mut best = TopK::new(k);
        per_shard.into_iter().for_each(|part| best.merge(part));
        Ok(best.into_sorted())
    }

    /// Embeds `s` and runs [`Self::query`].
    ///
    /// # Errors
    ///
    /// [`IndexError::DimMismatch`] when the index was not built with
    /// `dim == EMBED_DIM`.
    pub fn query_scenario(&self, s: &Scenario, k: usize) -> Result<Vec<(u64, f32)>, IndexError> {
        self.query(&embed(s), k)
    }

    /// Writes every shard to `dir` as `shard-NNNNN.idx`, crash-safely.
    ///
    /// Stale shard files from a previous, larger save are removed first so
    /// `dir` always round-trips to exactly this index.
    ///
    /// # Errors
    ///
    /// Any I/O error from creating the directory, removing stale shards,
    /// or staging and renaming shard files.
    pub fn save_to(&self, dir: &Path) -> Result<(), IndexError> {
        std::fs::create_dir_all(dir)?;
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            if is_shard_file_name(&entry.file_name().to_string_lossy()) {
                std::fs::remove_file(entry.path())?;
            }
        }
        for (i, shard) in self.shards.iter().enumerate() {
            let path = dir.join(format!("shard-{i:05}.idx"));
            save_shard(&path, self.dim, shard.base, &shard.to_rows(self.dim))?;
        }
        Ok(())
    }

    /// Loads an index previously written by [`Self::save_to`].
    ///
    /// Every shard is fully verified (magic, declared length, both CRCs,
    /// geometry) and the set as a whole must be consistent: one dim
    /// everywhere and dense, contiguous ids starting at 0. The shard
    /// capacity is inferred from the largest shard on disk.
    ///
    /// # Errors
    ///
    /// [`IndexError::Io`] on read failures, and the full typed taxonomy
    /// ([`IndexError::Truncated`], [`IndexError::Checksum`],
    /// [`IndexError::Format`]) for torn, bit-flipped, or inconsistent
    /// shards — corruption is never a panic.
    pub fn load(dir: &Path) -> Result<Self, IndexError> {
        let mut names: Vec<String> = std::fs::read_dir(dir)?
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| is_shard_file_name(n))
            .collect();
        names.sort();
        let mut shards: Vec<Arc<Shard>> = Vec::with_capacity(names.len());
        let mut dim = 0usize;
        let mut next_id = 0u64;
        let mut capacity = 0usize;
        for name in &names {
            let rec = load_shard(&dir.join(name))?;
            if shards.is_empty() {
                dim = rec.dim;
            } else if rec.dim != dim {
                return Err(IndexError::Format(format!(
                    "inconsistent shard dims: {name} has {}, earlier shards have {dim}",
                    rec.dim
                )));
            }
            if rec.base_id != next_id {
                return Err(IndexError::Format(format!(
                    "non-contiguous shard ids: {name} starts at {}, expected {next_id}",
                    rec.base_id
                )));
            }
            let count = rec.rows.len() / rec.dim;
            next_id += count as u64;
            capacity = capacity.max(count);
            shards.push(Arc::new(Shard::from_rows(rec.base_id, rec.dim, &rec.rows)));
        }
        Ok(VectorIndex {
            dim: if dim == 0 { IndexConfig::default().dim } else { dim },
            shard_capacity: if capacity == 0 { DEFAULT_SHARD_CAPACITY } else { capacity },
            shards,
        })
    }
}

fn is_shard_file_name(name: &str) -> bool {
    name.starts_with("shard-") && name.ends_with(".idx")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(dim: usize, hot: usize) -> Vec<f32> {
        let mut v = vec![0.0; dim];
        v[hot] = 1.0;
        v
    }

    fn tiny() -> VectorIndex {
        let mut ix = VectorIndex::new(IndexConfig { dim: 4, shard_capacity: 3 });
        for i in 0..10 {
            ix.push(&unit(4, i % 4)).expect("dim matches");
        }
        ix
    }

    #[test]
    fn block_kernel_has_the_bits_of_dot_at_every_dim() {
        let special =
            [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.0, -0.0, f32::MIN_POSITIVE, 1e-42];
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut value = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            match state % 16 {
                0 => special[(state >> 8) as usize % special.len()],
                _ => (state >> 40) as f32 / (1u64 << 23) as f32 - 1.0,
            }
        };
        let mut nan_scores = 0;
        for dim in 1..=40 {
            for _ in 0..40 {
                let q: Vec<f32> = (0..dim).map(|_| value()).collect();
                let rows: Vec<Vec<f32>> =
                    (0..BLOCK_ROWS).map(|_| (0..dim).map(|_| value()).collect()).collect();
                let mut shard = Shard::new(0);
                rows.iter().for_each(|r| shard.push(r));
                for (row, got) in rows.iter().zip(score_block(&q, &shard.blocks)) {
                    let want = dot(&q, row);
                    nan_scores += usize::from(want.is_nan());
                    assert_eq!(want.is_nan(), got.is_nan(), "dim={dim} q={q:?} row={row:?}");
                    if !want.is_nan() {
                        assert_eq!(want.to_bits(), got.to_bits(), "dim={dim} q={q:?} row={row:?}");
                    }
                }
            }
        }
        assert!(nan_scores > 100, "the sweep must reach NaN scores, saw {nan_scores}");
    }

    #[test]
    fn ids_are_dense_and_rows_recoverable() {
        let ix = tiny();
        assert_eq!(ix.len(), 10);
        assert_eq!(ix.shard_count(), 4); // 3+3+3+1
        for i in 0..10u64 {
            assert_eq!(ix.row(i).expect("present"), unit(4, i as usize % 4));
        }
        assert!(ix.row(10).is_none());
    }

    #[test]
    fn query_finds_exact_match_first_with_id_tie_break() {
        let ix = tiny();
        let hits = ix.query(&unit(4, 2), 3).expect("dim matches");
        // Rows 2, 6 score 1.0; tie-break keeps ascending ids.
        assert_eq!(hits[0], (2, 1.0));
        assert_eq!(hits[1], (6, 1.0));
    }

    #[test]
    fn dim_mismatch_is_typed_on_push_and_query() {
        let mut ix = tiny();
        assert!(matches!(
            ix.push(&[1.0; 3]),
            Err(IndexError::DimMismatch { expected: 4, found: 3 })
        ));
        assert!(matches!(ix.query(&[1.0; 5], 1), Err(IndexError::DimMismatch { .. })));
    }

    #[test]
    fn empty_index_and_k_zero_answer_empty() {
        let ix = VectorIndex::new(IndexConfig { dim: 4, shard_capacity: 3 });
        assert!(ix.query(&unit(4, 0), 5).expect("dim matches").is_empty());
        assert!(tiny().query(&unit(4, 0), 0).expect("dim matches").is_empty());
    }

    #[test]
    fn save_load_roundtrip_is_exact() {
        let dir = std::env::temp_dir().join(format!("tsdx-index-rt-{}", std::process::id()));
        let ix = tiny();
        ix.save_to(&dir).expect("save");
        let back = VectorIndex::load(&dir).expect("load");
        assert_eq!(back.len(), ix.len());
        assert_eq!(back.dim(), ix.dim());
        for i in 0..ix.len() {
            assert_eq!(back.row(i), ix.row(i));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_removes_stale_shards() {
        let dir = std::env::temp_dir().join(format!("tsdx-index-stale-{}", std::process::id()));
        tiny().save_to(&dir).expect("save big");
        let mut small = VectorIndex::new(IndexConfig { dim: 4, shard_capacity: 3 });
        small.push(&unit(4, 0)).expect("dim matches");
        small.save_to(&dir).expect("save small");
        let back = VectorIndex::load(&dir).expect("load");
        assert_eq!(back.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
