//! The in-memory sharded index and its blocked brute-force scan.
//!
//! A shard holds its rows in blocks of [`BLOCK_ROWS`], each block laid out
//! `[dim][BLOCK_ROWS]` (dimension-major, the block's rows side by side), so
//! one dimension of one block is a contiguous run of cache lines and a scan
//! reads only the runs it needs. The layout is private to memory: shard
//! files stay row-major (`TSDXIDX1`), transposed on
//! [`VectorIndex::save_to`] and [`VectorIndex::load`].
//!
//! # Which dimensions a scan reads
//!
//! Every query that reaches `/search` is an [`embed`]ding: at most ten of
//! its [`EMBED_DIM`] components are non-zero. A scan therefore lists, once
//! per shard, the dimensions `d` with `q[d] != 0.0` — grouped by the
//! accumulator [`tsdx_sdl::dot`] adds them into, ascending within each — and
//! multiplies only those columns. That is exact, not approximate, as long as
//! every stored value of the shard is finite:
//!
//! * a skipped term is `±0 × finite = ±0`;
//! * an accumulator starts at `+0.0`, and `x + y` is `−0.0` only when both
//!   operands are, so no accumulator ever holds `−0.0`;
//! * `a + ±0 == a` bit for bit for every `a` other than `−0.0` (NaNs stay
//!   NaN, and a NaN score takes its bits from `dot` itself either way).
//!
//! So dropping the term leaves every accumulator, and with it every score,
//! with `dot`'s bits. Against a row holding `±inf` or NaN the skipped
//! product would be NaN, not zero: each shard carries one `finite` flag,
//! maintained by `push`, and a shard that holds any non-finite value reads
//! every dimension.
//!
//! # How a scan fans out
//!
//! [`VectorIndex::query`] splits the shards into at most
//! `available_parallelism()` contiguous runs — one per worker, never more
//! than there are shards — and scans each run into its own [`TopK`] on a
//! `std::thread::scope` thread, the first run on the calling thread. With one
//! worker (one core, or a process pinned to one) the scan runs inline and no
//! thread is started. The runs' survivors merge under the same total order,
//! so the answer does not depend on the split.

use std::path::Path;
use std::sync::OnceLock;

use tsdx_sdl::{dot, embed, is_unit_norm, Scenario, TopK, EMBED_DIM};
use tsdx_tensor::metrics;

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

/// Rows per block: one dimension of a block is 2 KiB, 32 cache lines in a
/// row. A layout constant, not a dial — every score is computed
/// lane-independently, so the width never shows in an answer; wider blocks
/// measured up to a tenth faster on a sparse query and as much slower on a
/// dense one, which is fastest here (DESIGN §6.9).
const BLOCK_ROWS: usize = 512;

/// Rows scored at a time: the accumulators of this many rows stay in vector
/// registers while the visited columns stream past, and one
/// [`TopK::rejects_all`] answers for all of them.
const CHUNK_ROWS: usize = 32;

/// Granule of a block's width, and the chunk size for what is left of a
/// block narrower than a multiple of [`CHUNK_ROWS`].
const LANE_ROWS: usize = 8;

/// Counter: columns (one dimension of one block) the scans of a query read —
/// a query's non-zero components × blocks over finite shards, `dim` × blocks
/// over the others.
const COLUMNS_VISITED: &str = "index/columns_visited";

/// A sharded vector index over L2-normalized embeddings.
///
/// Rows live in shards of `[dim][512]` blocks. Ids are dense `u64`s in
/// insertion order. Queries are exact brute-force scans: every row is
/// scored with the bits of [`tsdx_sdl::dot`] and streamed into the total
/// [`TopK`] order, one accumulator per scan worker merged afterwards, so the
/// answer is bit-identical across worker counts and across shard capacities
/// (a row's score never depends on its block, lane, or shard, and the order
/// is total).
#[derive(Debug, Clone)]
pub struct VectorIndex {
    dim: usize,
    shard_capacity: usize,
    /// Every shard except the last is full.
    shards: Vec<Shard>,
}

/// One shard: `rows` embeddings with ids `base..base + rows`, stored as
/// `rows.div_ceil(width)` blocks of `[dim][width]` (`dim` is the index's,
/// passed in). Lanes of the last block past `rows` are zero and are never
/// ranked.
#[derive(Debug, Clone)]
struct Shard {
    base: u64,
    rows: usize,
    /// Rows per block: [`BLOCK_ROWS`], or the shard's capacity rounded up to
    /// [`LANE_ROWS`] when that is less — a small shard pads no whole block.
    width: usize,
    /// No stored value is NaN or infinite: a zero query component may be
    /// skipped (module docs).
    finite: bool,
    blocks: Vec<f32>,
}

impl Shard {
    /// An empty shard laid out for up to `capacity` rows (it holds more, in
    /// further blocks of the same width, if asked to).
    fn new(base: u64, capacity: usize) -> Shard {
        let width = capacity.min(BLOCK_ROWS).next_multiple_of(LANE_ROWS);
        Shard { base, rows: 0, width, finite: true, blocks: Vec::new() }
    }

    /// Blocks `rows` (row-major, `dim`-strided) — the load-time transpose.
    fn from_rows(base: u64, dim: usize, capacity: usize, rows: &[f32]) -> Shard {
        let mut shard = Shard::new(base, capacity);
        shard.blocks.reserve_exact((rows.len() / dim).div_ceil(shard.width) * dim * shard.width);
        rows.chunks_exact(dim).for_each(|row| shard.push(row));
        shard
    }

    /// Appends one row. Storage grows a whole zeroed block at a time and
    /// `Vec`'s doubling amortizes it — no size is guessed up front.
    fn push(&mut self, row: &[f32]) {
        let block_len = row.len() * self.width;
        let lane = self.rows % self.width;
        if lane == 0 {
            self.blocks.resize(self.blocks.len() + block_len, 0.0);
        }
        let block = self.blocks.len() - block_len;
        for (col, &x) in self.blocks[block..].chunks_exact_mut(self.width).zip(row) {
            col[lane] = x;
        }
        self.finite &= row.iter().all(|x| x.is_finite());
        self.rows += 1;
    }

    /// Row `i` of the shard, gathered out of its block.
    fn row(&self, dim: usize, i: usize) -> impl Iterator<Item = f32> + '_ {
        let block_len = dim * self.width;
        let block = &self.blocks[i / self.width * block_len..][..block_len];
        block.chunks_exact(self.width).map(move |col| col[i % self.width])
    }

    /// The shard's rows in row-major order — the save-time transpose.
    fn to_rows(&self, dim: usize) -> Vec<f32> {
        let mut rows = Vec::with_capacity(self.rows * dim);
        (0..self.rows).for_each(|i| rows.extend(self.row(dim, i)));
        rows
    }

    /// Scores every row against the `dim`-long `q` and offers it to `best`;
    /// returns the number of columns read.
    fn scan_into(&self, q: &[f32], best: &mut TopK<u64>) -> u64 {
        let visit = Visit::new(q, !self.finite);
        // Filled only for NaN scores: at most one allocation per scan.
        let mut row = Vec::new();
        let mut offer = |first: usize, scores: &[f32]| {
            // Ids ascend within a shard, and `best` holds only the shards
            // before this one in the caller's run.
            if best.rejects_all(scores) {
                return;
            }
            // Only here does the zero padding of the last block matter.
            for (i, &score) in (first..self.rows).zip(scores) {
                // Which NaN an add of two NaNs returns depends on the
                // operand order the compiler chose, so a NaN score (never
                // rejected above) takes its bits from `dot` itself.
                let score = if score.is_nan() {
                    row.clear();
                    row.extend(self.row(q.len(), i));
                    dot(q, &row)
                } else {
                    score
                };
                best.push(self.base + i as u64, score);
            }
        };
        let mut columns = 0;
        for (b, block) in self.blocks.chunks_exact(q.len() * self.width).enumerate() {
            columns += visit.terms.len() as u64;
            let first = b * self.width;
            let end = (self.rows - first).min(self.width).next_multiple_of(LANE_ROWS);
            let whole = end - end % CHUNK_ROWS;
            for at in (0..whole).step_by(CHUNK_ROWS) {
                offer(first + at, &score_chunk::<CHUNK_ROWS>(&visit, block, self.width, at));
            }
            for at in (whole..end).step_by(LANE_ROWS) {
                offer(first + at, &score_chunk::<LANE_ROWS>(&visit, block, self.width, at));
            }
        }
        columns
    }
}

/// The terms of `dot(q, ·)` a scan computes, in the order `dot` adds them.
struct Visit {
    /// `(d, q[d])`, grouped by `dot`'s accumulator — `d % 4` for
    /// `d < dim & !3`, then the tail — and ascending within each.
    terms: Vec<(usize, f32)>,
    /// Where each of the five accumulators' terms end in `terms`.
    ends: [usize; 5],
}

impl Visit {
    /// Every dimension of `q` when `dense`, else those with `q[d] != 0.0` —
    /// exact only against finite rows (module docs).
    fn new(q: &[f32], dense: bool) -> Visit {
        let quads = q.len() & !3;
        let mut terms = Vec::with_capacity(q.len());
        let mut ends = [0; 5];
        for (acc, end) in ends.iter_mut().enumerate() {
            let dims = if acc < 4 { (acc..quads).step_by(4) } else { (quads..q.len()).step_by(1) };
            terms.extend(dims.filter(|&d| dense || q[d] != 0.0).map(|d| (d, q[d])));
            *end = terms.len();
        }
        Visit { terms, ends }
    }
}

/// `dot(q, row)` for the `N` rows at lane `at` of one `[dim][width]` block,
/// with exactly the association of [`tsdx_sdl::dot`]: dimension
/// `d < dim & !3` adds the unfused product `q[d] * row[d]` into accumulator
/// `d % 4`, the remaining dimensions into a tail accumulator in order, and
/// the result is `((l0 + l1) + (l2 + l3)) + tail`. Each lane repeats `dot`'s
/// scalar operations one for one — less the terms `visit` leaves out, which
/// change no accumulator's bits (module docs) — and every IEEE operation
/// that does not return a NaN has exactly one result, so a score that is not
/// NaN has `dot`'s bits and a score is NaN exactly when `dot`'s is. The
/// lanes are independent, which is what lets the loops vectorize.
fn score_chunk<const N: usize>(visit: &Visit, block: &[f32], width: usize, at: usize) -> [f32; N] {
    let mut acc = [[0.0f32; N]; 5];
    let mut start = 0;
    for (lanes, &end) in acc.iter_mut().zip(&visit.ends) {
        for &(d, x) in &visit.terms[start..end] {
            let col: &[f32; N] = block[d * width + at..][..N].try_into().expect("N lanes sliced");
            for r in 0..N {
                lanes[r] += x * col[r];
            }
        }
        start = end;
    }
    let mut scores = [0.0f32; N];
    for r in 0..N {
        scores[r] = ((acc[0][r] + acc[1][r]) + (acc[2][r] + acc[3][r])) + acc[4][r];
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
            self.shards.push(Shard::new(id, self.shard_capacity));
        }
        self.shards.last_mut().expect("shard just ensured").push(v);
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
    /// unit-norm rows [`Self::push_scenario`] stores. Each scan worker
    /// scans a contiguous run of shards into its own accumulator and the
    /// survivors merge under the same total order (module docs), so the
    /// result is deterministic for any input and identical across worker
    /// counts and shard capacities, and a query allocates O(workers · k),
    /// never O(n).
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
        Ok(self.scan(q, k, scan_workers()))
    }

    /// The top `k` for `q` over every shard, scanned by `workers` threads
    /// (module docs), the calling thread among them.
    fn scan(&self, q: &[f32], k: usize, workers: usize) -> Vec<(u64, f32)> {
        let scan_run = |run: &[Shard]| {
            let mut best = TopK::new(k);
            let columns: u64 = run.iter().map(|shard| shard.scan_into(q, &mut best)).sum();
            (best, columns)
        };
        let shards = self.shards.len();
        let (best, columns) = if workers <= 1 || shards <= 1 {
            scan_run(&self.shards)
        } else {
            let mut runs = self.shards.chunks(shards.div_ceil(workers.min(shards)));
            let first = runs.next().expect("at least one shard");
            std::thread::scope(|s| {
                let others: Vec<_> = runs.map(|run| s.spawn(move || scan_run(run))).collect();
                let (mut best, mut columns) = scan_run(first);
                for handle in others {
                    // A panic in a scan thread resurfaces here with its payload.
                    let (part, cols) =
                        handle.join().unwrap_or_else(|payload| std::panic::resume_unwind(payload));
                    best.merge(part);
                    columns += cols;
                }
                (best, columns)
            })
        };
        // Counted here, not in the scan: another thread's records reach no
        // scope of the querying thread.
        metrics::counter_add(COLUMNS_VISITED, columns);
        best.into_sorted()
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
        let mut shards: Vec<Shard> = Vec::with_capacity(names.len());
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
            // Only the last shard is ever appended to, and for it `capacity`
            // is already the index's.
            shards.push(Shard::from_rows(rec.base_id, rec.dim, capacity, &rec.rows));
        }
        Ok(VectorIndex {
            dim: if dim == 0 { IndexConfig::default().dim } else { dim },
            shard_capacity: if capacity == 0 { DEFAULT_SHARD_CAPACITY } else { capacity },
            shards,
        })
    }
}

/// Threads a scan fans out over: the cores this process may run on, read
/// once (`available_parallelism` re-reads cgroup files on every call).
fn scan_workers() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
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

    /// A xorshift stream of values in `[-1, 1)`, one in sixteen drawn from
    /// `special` instead.
    fn value_stream(special: &'static [f32]) -> impl FnMut() -> f32 {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            match state % 16 {
                0 => special[(state >> 8) as usize % special.len()],
                _ => (state >> 40) as f32 / (1u64 << 23) as f32 - 1.0,
            }
        }
    }

    /// One shard of `n` rows from `value`, next to the rows themselves.
    fn shard_of(dim: usize, n: usize, value: &mut impl FnMut() -> f32) -> (Shard, Vec<Vec<f32>>) {
        let rows: Vec<Vec<f32>> = (0..n).map(|_| (0..dim).map(|_| value()).collect()).collect();
        let mut shard = Shard::new(0, n);
        rows.iter().for_each(|r| shard.push(r));
        (shard, rows)
    }

    #[test]
    fn block_kernel_has_the_bits_of_dot_at_every_dim() {
        let mut value = value_stream(&[
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
            f32::MIN_POSITIVE,
            1e-42,
        ]);
        let mut nan_scores = 0;
        for dim in 1..=40 {
            for _ in 0..10 {
                let q: Vec<f32> = (0..dim).map(|_| value()).collect();
                let (shard, rows) = shard_of(dim, CHUNK_ROWS, &mut value);
                let visit = Visit::new(&q, !shard.finite);
                let got = score_chunk::<CHUNK_ROWS>(&visit, &shard.blocks, shard.width, 0);
                for (row, got) in rows.iter().zip(got) {
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

    /// Over finite rows, leaving the zero components of a query out changes
    /// no bit of any score — whatever else the query holds.
    #[test]
    fn skipping_zero_components_keeps_every_bit_on_finite_rows() {
        // Rows: finite only, with both zeros and values whose products
        // underflow to `±0`. Queries: mostly `±0`, the rest anything.
        let mut stored = value_stream(&[0.0, -0.0, f32::MIN_POSITIVE, -1e-42, 1e-42]);
        let mut asked =
            value_stream(&[0.0, -0.0, 0.0, -0.0, f32::NAN, f32::INFINITY, -1e-42, f32::MAX]);
        let (mut skipped, mut nan_scores) = (0, 0);
        for dim in 1..=40 {
            for round in 0..10 {
                // Two in three components zero; round 0 is the all-zero query.
                let q: Vec<f32> = (0..dim)
                    .map(|d| match (round, (d + round) % 3) {
                        (0, _) | (_, 0) => 0.0,
                        (_, 1) => -0.0,
                        _ => asked(),
                    })
                    .collect();
                let (shard, rows) = shard_of(dim, CHUNK_ROWS + LANE_ROWS, &mut stored);
                assert!(shard.finite);
                let (sparse, dense) = (Visit::new(&q, false), Visit::new(&q, true));
                assert_eq!(dense.terms.len(), dim);
                skipped += dim - sparse.terms.len();
                let score = |visit| {
                    let mut got =
                        score_chunk::<CHUNK_ROWS>(visit, &shard.blocks, shard.width, 0).to_vec();
                    got.extend(score_chunk::<LANE_ROWS>(
                        visit,
                        &shard.blocks,
                        shard.width,
                        CHUNK_ROWS,
                    ));
                    got
                };
                for ((row, on), off) in rows.iter().zip(score(&sparse)).zip(score(&dense)) {
                    let want = dot(&q, row);
                    nan_scores += usize::from(want.is_nan());
                    assert_eq!(on.is_nan(), want.is_nan(), "dim={dim} q={q:?} row={row:?}");
                    assert_eq!(off.is_nan(), want.is_nan(), "dim={dim} q={q:?} row={row:?}");
                    if !want.is_nan() {
                        assert_eq!(on.to_bits(), want.to_bits(), "dim={dim} q={q:?} row={row:?}");
                        assert_eq!(off.to_bits(), want.to_bits(), "dim={dim} q={q:?} row={row:?}");
                    }
                }
            }
        }
        assert!(skipped > 4000, "the sweep must skip components, skipped {skipped}");
        assert!(nan_scores > 100, "the sweep must reach NaN scores, saw {nan_scores}");
    }

    /// Exact reference: every row scored with `dot`, fully sorted under
    /// `rank_order`, truncated to `k`.
    fn reference_scan(q: &[f32], rows: &[Vec<f32>], k: usize) -> Vec<(u64, f32)> {
        let mut scored: Vec<(u64, f32)> =
            rows.iter().enumerate().map(|(i, r)| (i as u64, dot(q, r))).collect();
        scored.sort_by(tsdx_sdl::rank_order::<u64>);
        scored.truncate(k);
        scored
    }

    fn bits(hits: &[(u64, f32)]) -> Vec<(u64, u32)> {
        hits.iter().map(|&(id, score)| (id, score.to_bits())).collect()
    }

    /// However the shards are split between scan workers — one, two, three,
    /// one per shard, more workers than shards — the answer has the ids and
    /// score bits of the full-sort reference, on rows and queries holding
    /// NaNs of either sign, infinities, signed zeros and denormals.
    #[test]
    fn every_worker_count_answers_with_the_reference_bits() {
        let mut value = value_stream(&[
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
            f32::MIN_POSITIVE,
            1e-42,
        ]);
        for (dim, n, capacity) in [(6, 40, 3), (11, 37, 8), (5, 9, 9), (28, 1300, 512)] {
            let rows: Vec<Vec<f32>> = (0..n).map(|_| (0..dim).map(|_| value()).collect()).collect();
            let mut ix = VectorIndex::new(IndexConfig { dim, shard_capacity: capacity });
            for row in &rows {
                ix.push(row).expect("dim matches");
            }
            let shards = ix.shard_count();
            for round in 0..6 {
                // Even rounds: a query as `/search` embeds it, mostly zeros.
                let q: Vec<f32> = (0..dim)
                    .map(|d| if round % 2 == 0 && (d + round) % 3 != 0 { 0.0 } else { value() })
                    .collect();
                for k in [1, 5, n, n + 3] {
                    let want = bits(&reference_scan(&q, &rows, k));
                    for workers in [1, 2, 3, shards, shards + 1] {
                        assert_eq!(
                            bits(&ix.scan(&q, k, workers)),
                            want,
                            "dim {dim}, {shards} shards, k {k}, {workers} workers, q {q:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn a_small_shard_pads_to_eight_rows_and_a_large_one_to_one_block() {
        for (capacity, width) in [(1, 8), (8, 8), (9, 16), (511, 512), (512, 512), (65_536, 512)] {
            let mut shard = Shard::new(0, capacity);
            shard.push(&[1.0, 2.0, 3.0]);
            assert_eq!(shard.width, width, "capacity {capacity}");
            assert_eq!(shard.blocks.len(), 3 * width, "capacity {capacity}");
        }
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
