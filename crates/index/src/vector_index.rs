//! The in-memory index — each distinct row stored once — and its blocked
//! brute-force scan.
//!
//! # Each distinct row once
//!
//! SDL descriptions come from a closed taxonomy, so a scenario corpus repeats
//! rows: 200 000 random taxonomy-valid scenarios hold about 94 000 distinct
//! embeddings. The index keeps one table of *distinct* rows, in
//! first-occurrence order, in blocks of [`BLOCK_ROWS`], each laid out
//! `[dim][BLOCK_ROWS]` (dimension-major, the block's rows side by side), so
//! one dimension of one block is a contiguous run of cache lines and a scan
//! reads only the runs it needs. Beside the table: per id, the distinct row
//! it carries and the next id carrying the same row; per distinct row, its
//! lowest and highest id and which of its dimensions are not `+0.0`; and a
//! map from a 32-bit hash of a row's bit pattern to its distinct row. Rows
//! are the same when their bits are — `+0.0` and `-0.0`, or two NaN
//! payloads, make different rows. A hash hit reads the stored row's columns
//! only where it is not `+0.0` (a sparse row is a few cache lines, not
//! `dim`), and on a hit whose stored bits differ, the row is stored as a new
//! distinct row and left out of the map.
//!
//! A scan scores each distinct row once, offers it to a [`TopK`] under its
//! lowest id, and then expands the at most `k` winning rows to at most `k`
//! ids each through a second [`TopK`]. That is exact. Rank the groups of
//! bit-equal rows by (score, lowest id). Every group ranked above the group
//! of an id in the true top `k` puts its own lowest id above that id, so the
//! id's group is among the top `k` groups; and inside a group only the first
//! `k` ids can place. The argument holds for *any* grouping of bit-equal
//! rows, so a duplicate the map misses (a hash collision) costs time, never
//! an answer.
//!
//! Shards are the file format only: [`VectorIndex::save_to`] gathers each
//! id's row into row-major `TSDXIDX1` files of `shard_capacity` rows, and
//! [`VectorIndex::load`] pushes the rows back through [`VectorIndex::push`].
//!
//! # Which dimensions a scan reads
//!
//! Every query that reaches `/search` is an [`embed`]ding: at most ten of
//! its [`EMBED_DIM`] components are non-zero. A scan therefore lists, once,
//! the dimensions `d` with `q[d] != 0.0` — grouped by the accumulator
//! [`tsdx_sdl::dot`] adds them into, ascending within each — and multiplies
//! only those columns. That is exact, not approximate, as long as every
//! stored value of the block is finite:
//!
//! * a skipped term is `±0 × finite = ±0`;
//! * an accumulator starts at `+0.0`, and `x + y` is `−0.0` only when both
//!   operands are, so no accumulator ever holds `−0.0`;
//! * `a + ±0 == a` bit for bit for every `a` other than `−0.0` (NaNs stay
//!   NaN, and a NaN score takes its bits from `dot` itself either way).
//!
//! So dropping the term leaves every accumulator, and with it every score,
//! with `dot`'s bits. Against a row holding `±inf` or NaN the skipped
//! product would be NaN, not zero: each block carries one `finite` flag,
//! maintained as rows are stored, and a block that holds any non-finite value
//! reads every dimension.
//!
//! # How a scan fans out
//!
//! [`VectorIndex::query`] splits the blocks into contiguous runs of at least
//! [`RUN_BLOCKS`], at most one per core the process may run on, and scans
//! each run into its own [`TopK`] on a `std::thread::scope` thread, the first
//! run on the calling thread. With one run (one core, a process pinned to
//! one, or fewer than `2 × RUN_BLOCKS` blocks) the scan runs inline and no
//! thread is started. The runs' survivors merge under the same total order,
//! so the answer does not depend on the split.

use std::collections::hash_map::{Entry, HashMap};
use std::mem::size_of;
use std::path::Path;
use std::sync::OnceLock;

use tsdx_sdl::{dot, embed, is_unit_norm, Scenario, TopK, EMBED_DIM};
use tsdx_tensor::metrics;

use crate::shard::{load_shard, save_shard, IndexError};

/// Default rows per shard file: large enough that a file's header and
/// checksums amortize, small enough that re-writing the last one after an
/// append stays cheap.
pub const DEFAULT_SHARD_CAPACITY: usize = 65_536;

/// Construction parameters for a [`VectorIndex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexConfig {
    /// Embedding dimensionality (stride of every stored row).
    pub dim: usize,
    /// Rows per shard file [`VectorIndex::save_to`] writes; the last file
    /// may hold fewer.
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

/// Granule of the rows a block scores: what is left of the last block past
/// a multiple of [`CHUNK_ROWS`] is scored this many at a time.
const LANE_ROWS: usize = 8;

/// Fewest blocks a scan worker takes: 65 536 rows, what a default shard held
/// when workers took whole shards. A shorter run scans in less time than
/// starting a thread takes.
const RUN_BLOCKS: usize = 128;

/// Counter: columns (one dimension of one block) the scans of a query read —
/// a query's non-zero components × finite blocks, `dim` × the others.
const COLUMNS_VISITED: &str = "index/columns_visited";

/// Rows an index holds at most: ids and distinct rows are kept in 32 bits.
const MAX_ROWS: usize = u32::MAX as usize;

/// A vector index over L2-normalized embeddings that stores each distinct
/// row once.
///
/// Ids are dense `u64`s in insertion order, at most [`u32::MAX`] of them.
/// Queries are exact brute-force scans: every distinct row is scored with the
/// bits of [`tsdx_sdl::dot`] and the answer is what scoring every id and
/// sorting by the total [`TopK`] order would give (module docs), so it is
/// bit-identical across scan worker counts and shard capacities.
#[derive(Debug, Clone)]
pub struct VectorIndex {
    dim: usize,
    shard_capacity: usize,
    /// The distinct rows, in first-occurrence order; the last block's lanes
    /// past the last distinct row are zero and are never ranked.
    blocks: Vec<Block>,
    /// Per distinct row, the lowest id carrying it — ascending, since a
    /// distinct row is stored when its first id arrives.
    first: Vec<u32>,
    /// Per distinct row, the highest id carrying it: where the next id
    /// carrying it links on.
    last: Vec<u32>,
    /// Per id, the distinct row it carries.
    row_of: Vec<u32>,
    /// Per id, the next id carrying the same distinct row, or 0 when there
    /// is none (a next id is greater than its predecessor, so never 0).
    next: Vec<u32>,
    /// [`row_hash`] of a row's bits → the distinct row stored under it.
    lookup: HashMap<u32, u32>,
    /// Per distinct row, its [`nonzero_mask`]: a hash hit reads the block
    /// only for the columns it names.
    masks: Vec<u64>,
}

/// [`BLOCK_ROWS`] distinct rows laid out `[dim][BLOCK_ROWS]`.
#[derive(Debug, Clone)]
struct Block {
    /// No stored value is NaN or infinite: a zero query component may be
    /// skipped (module docs).
    finite: bool,
    cols: Box<[f32]>,
}

impl Block {
    /// An all-zero block of `dim` columns.
    fn new(dim: usize) -> Block {
        Block { finite: true, cols: vec![0.0; dim * BLOCK_ROWS].into_boxed_slice() }
    }

    /// Stores `row` in lane `lane`.
    fn put(&mut self, lane: usize, row: &[f32]) {
        for (col, &x) in self.cols.chunks_exact_mut(BLOCK_ROWS).zip(row) {
            col[lane] = x;
        }
        self.finite &= row.iter().all(|x| x.is_finite());
    }

    /// The row in lane `lane`.
    fn lane(&self, lane: usize) -> impl Iterator<Item = f32> + '_ {
        self.cols.chunks_exact(BLOCK_ROWS).map(move |col| col[lane])
    }

    /// True when lane `lane` holds `row`'s bits, given that the two rows'
    /// [`nonzero_mask`]s agree: a dimension that is `+0.0` in both is not
    /// read, and of a sparse row only a few columns are.
    fn holds(&self, lane: usize, row: &[f32], mask: u64) -> bool {
        row.iter().enumerate().all(|(d, x)| {
            (d < 64 && mask >> d & 1 == 0)
                || self.cols[d * BLOCK_ROWS + lane].to_bits() == x.to_bits()
        })
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

/// `dot(q, row)` for the `N` rows at lane `at` of one block, with exactly the
/// association of [`tsdx_sdl::dot`]: dimension `d < dim & !3` adds the
/// unfused product `q[d] * row[d]` into accumulator `d % 4`, the remaining
/// dimensions into a tail accumulator in order, and the result is
/// `((l0 + l1) + (l2 + l3)) + tail`. Each lane repeats `dot`'s scalar
/// operations one for one — less the terms `visit` leaves out, which change
/// no accumulator's bits (module docs) — and every IEEE operation that does
/// not return a NaN has exactly one result, so a score that is not NaN has
/// `dot`'s bits and a score is NaN exactly when `dot`'s is. The lanes are
/// independent, which is what lets the loops vectorize.
fn score_chunk<const N: usize>(visit: &Visit, block: &[f32], at: usize) -> [f32; N] {
    let mut acc = [[0.0f32; N]; 5];
    let mut start = 0;
    for (lanes, &end) in acc.iter_mut().zip(&visit.ends) {
        for &(d, x) in &visit.terms[start..end] {
            let col: &[f32; N] =
                block[d * BLOCK_ROWS + at..][..N].try_into().expect("N lanes sliced");
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

/// Bit `d` set when dimension `d < 64` of `row` holds any bits but `+0.0`'s.
fn nonzero_mask(row: &[f32]) -> u64 {
    row.iter().take(64).enumerate().fold(0, |m, (d, x)| m | u64::from(x.to_bits() != 0) << d)
}

/// A hash of `row`'s bit pattern, the lookup's key. 32 bits are enough: a
/// collision only stores a row twice, and half-size entries keep the lookup
/// in cache while an index is built. Not keyed either, for the same reason;
/// the map hashes this key again with its own keyed hasher.
fn row_hash(row: &[f32]) -> u32 {
    let h = row.chunks(2).fold(0u64, |h, pair| {
        let word = pair.iter().fold(0u64, |w, x| w << 32 | u64::from(x.to_bits()));
        (h.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95)
    });
    (h ^ h >> 32) as u32
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
        VectorIndex {
            dim: cfg.dim,
            shard_capacity: cfg.shard_capacity,
            blocks: Vec::new(),
            first: Vec::new(),
            last: Vec::new(),
            row_of: Vec::new(),
            next: Vec::new(),
            lookup: HashMap::new(),
            masks: Vec::new(),
        }
    }

    /// Embedding dimensionality (stride of every stored row).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of indexed vectors.
    pub fn len(&self) -> u64 {
        self.row_of.len() as u64
    }

    /// True when nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.row_of.is_empty()
    }

    /// Number of distinct rows stored, each scored once per query: rows with
    /// bit-equal values share one (a hash collision may store a row twice).
    pub fn distinct_len(&self) -> u64 {
        self.first.len() as u64
    }

    /// Number of shard files [`Self::save_to`] writes.
    pub fn shard_count(&self) -> usize {
        self.row_of.len().div_ceil(self.shard_capacity)
    }

    /// Bytes the index holds in memory: the blocks, the id maps at their
    /// capacity, and the lookup at one entry and one control byte per slot
    /// it has room for.
    pub fn resident_bytes(&self) -> usize {
        let blocks = self.blocks.len() * self.dim * BLOCK_ROWS * size_of::<f32>();
        let ids = self.first.capacity()
            + self.last.capacity()
            + self.row_of.capacity()
            + self.next.capacity();
        let lookup = self.lookup.capacity() * (size_of::<(u32, u32)>() + 1);
        blocks + ids * size_of::<u32>() + self.masks.capacity() * size_of::<u64>() + lookup
    }

    /// Threads a query scans on: one per run of at least 65 536 distinct
    /// rows, at most one per core this process may run on — 1 when the
    /// process is pinned to one core.
    pub fn scan_workers(&self) -> usize {
        static CORES: OnceLock<usize> = OnceLock::new();
        // `available_parallelism` re-reads cgroup files on every call.
        let cores =
            *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
        cores.min(self.blocks.len().div_ceil(RUN_BLOCKS)).max(1)
    }

    /// Appends one raw row, returning its id.
    ///
    /// The caller owns the unit-norm invariant for raw rows; vectors that
    /// arrive through [`Self::push_scenario`] carry it by construction.
    ///
    /// # Errors
    ///
    /// [`IndexError::DimMismatch`] when `v` is not `dim` wide.
    ///
    /// # Panics
    ///
    /// Panics when the index already holds [`u32::MAX`] rows, as
    /// `Vec::push` does past its capacity.
    pub fn push(&mut self, v: &[f32]) -> Result<u64, IndexError> {
        if v.len() != self.dim {
            return Err(IndexError::DimMismatch { expected: self.dim, found: v.len() });
        }
        Ok(self.insert(v, row_hash(v)))
    }

    /// Appends `row`, whose bits hash to `hash`, returning its id: linked to
    /// the distinct row stored under `hash` when that row has `row`'s bits,
    /// else stored as a new distinct row — entered in the lookup only when
    /// `hash` is free.
    fn insert(&mut self, row: &[f32], hash: u32) -> u64 {
        let (id, fresh) = (self.row_of.len(), self.first.len());
        assert!(id < MAX_ROWS, "an index holds at most {MAX_ROWS} rows");
        // Below `MAX_ROWS`, every id and distinct row fits the `u32` maps.
        let mask = nonzero_mask(row);
        let known = match self.lookup.entry(hash) {
            Entry::Occupied(e) => {
                let j = *e.get() as usize;
                let same = self.masks[j] == mask
                    && self.blocks[j / BLOCK_ROWS].holds(j % BLOCK_ROWS, row, mask);
                same.then_some(j)
            }
            Entry::Vacant(e) => {
                e.insert(fresh as u32);
                None
            }
        };
        let j = match known {
            Some(j) => {
                self.next[self.last[j] as usize] = id as u32;
                self.last[j] = id as u32;
                j
            }
            None => {
                if fresh.is_multiple_of(BLOCK_ROWS) {
                    self.blocks.push(Block::new(self.dim));
                }
                self.blocks.last_mut().expect("block just ensured").put(fresh % BLOCK_ROWS, row);
                self.first.push(id as u32);
                self.last.push(id as u32);
                self.masks.push(mask);
                fresh
            }
        };
        self.row_of.push(j as u32);
        self.next.push(0);
        id as u64
    }

    /// Embeds and appends one scenario, returning its id.
    ///
    /// # Errors
    ///
    /// [`IndexError::DimMismatch`] when the index was not built with
    /// `dim == EMBED_DIM`.
    ///
    /// # Panics
    ///
    /// As [`Self::push`].
    pub fn push_scenario(&mut self, s: &Scenario) -> Result<u64, IndexError> {
        let e = embed(s);
        debug_assert!(is_unit_norm(&e), "sdl::embed must produce unit-norm vectors");
        self.push(&e)
    }

    /// The row id `id` carries, gathered out of its block.
    fn row_iter(&self, id: usize) -> impl Iterator<Item = f32> + '_ {
        let j = self.row_of[id] as usize;
        self.blocks[j / BLOCK_ROWS].lane(j % BLOCK_ROWS)
    }

    /// The stored row with id `id`, if any — gathered out of its block
    /// into an owned vector, bit for bit what was pushed.
    pub fn row(&self, id: u64) -> Option<Vec<f32>> {
        let id = usize::try_from(id).ok().filter(|&id| id < self.row_of.len())?;
        Some(self.row_iter(id).collect())
    }

    /// The `k` most similar rows to `q`, best first, as `(id, similarity)`.
    ///
    /// Similarity is the plain dot product — exact cosine for the
    /// unit-norm rows [`Self::push_scenario`] stores. Each distinct row is
    /// scored once and the winners expand to their ids (module docs), so the
    /// result is deterministic for any input, identical across worker counts
    /// and shard capacities, and a query allocates O(workers · k), never
    /// O(n).
    ///
    /// # Errors
    ///
    /// [`IndexError::DimMismatch`] when `q` is not `dim` wide.
    pub fn query(&self, q: &[f32], k: usize) -> Result<Vec<(u64, f32)>, IndexError> {
        if q.len() != self.dim {
            return Err(IndexError::DimMismatch { expected: self.dim, found: q.len() });
        }
        if k == 0 || self.is_empty() {
            return Ok(Vec::new());
        }
        Ok(self.scan(q, k, self.scan_workers()))
    }

    /// The top `k` for `q`, the blocks scanned by `workers` threads (module
    /// docs), the calling thread among them.
    fn scan(&self, q: &[f32], k: usize, workers: usize) -> Vec<(u64, f32)> {
        // Indexed by a block's `finite` flag.
        let visits = [Visit::new(q, true), Visit::new(q, false)];
        let run_len = self.blocks.len().div_ceil(workers.clamp(1, self.blocks.len()));
        let scan_run = |run: usize| {
            let mut best = TopK::new(k);
            // Filled only for NaN scores: at most one allocation per run.
            let mut row = Vec::new();
            let blocks = run * run_len..((run + 1) * run_len).min(self.blocks.len());
            let columns: u64 =
                blocks.map(|b| self.scan_block(b, &visits, q, &mut best, &mut row)).sum();
            (best, columns)
        };
        let runs = self.blocks.len().div_ceil(run_len);
        let (best, columns) = if runs == 1 {
            scan_run(0)
        } else {
            std::thread::scope(|s| {
                let others: Vec<_> = (1..runs).map(|run| s.spawn(move || scan_run(run))).collect();
                let (mut best, mut columns) = scan_run(0);
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
        // Each winner stands for every id carrying its row; at most `k` of
        // them can place.
        let mut ids = TopK::new(k);
        for (mut id, score) in best.into_sorted() {
            for _ in 0..k {
                ids.push(u64::from(id), score);
                id = self.next[id as usize];
                if id == 0 {
                    break;
                }
            }
        }
        ids.into_sorted()
    }

    /// Scores the distinct rows of block `b` against `q` and offers each to
    /// `best` under its lowest id; returns the number of columns read.
    fn scan_block(
        &self,
        b: usize,
        visits: &[Visit; 2],
        q: &[f32],
        best: &mut TopK<u32>,
        row: &mut Vec<f32>,
    ) -> u64 {
        let block = &self.blocks[b];
        let visit = &visits[usize::from(block.finite)];
        let base = b * BLOCK_ROWS;
        let rows = (self.first.len() - base).min(BLOCK_ROWS);
        let mut offer = |at: usize, scores: &[f32]| {
            // Lowest ids ascend with the distinct row, and `best` holds only
            // the blocks before this one in the caller's run.
            if best.rejects_all(scores) {
                return;
            }
            // Only here does the zero padding of the last block matter.
            for (lane, &score) in (at..rows).zip(scores) {
                // Which NaN an add of two NaNs returns depends on the
                // operand order the compiler chose, so a NaN score (never
                // rejected above) takes its bits from `dot` itself.
                let score = if score.is_nan() {
                    row.clear();
                    row.extend(block.lane(lane));
                    dot(q, row)
                } else {
                    score
                };
                best.push(self.first[base + lane], score);
            }
        };
        let end = rows.next_multiple_of(LANE_ROWS);
        let whole = end - end % CHUNK_ROWS;
        for at in (0..whole).step_by(CHUNK_ROWS) {
            offer(at, &score_chunk::<CHUNK_ROWS>(visit, &block.cols, at));
        }
        for at in (whole..end).step_by(LANE_ROWS) {
            offer(at, &score_chunk::<LANE_ROWS>(visit, &block.cols, at));
        }
        visit.terms.len() as u64
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

    /// Writes the index to `dir` as `shard-NNNNN.idx` files of
    /// `shard_capacity` rows each, every id's row in id order, crash-safely.
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
        let mut rows = Vec::new();
        for (i, base) in (0..self.row_of.len()).step_by(self.shard_capacity).enumerate() {
            let ids = base..(base + self.shard_capacity).min(self.row_of.len());
            rows.clear();
            ids.for_each(|id| rows.extend(self.row_iter(id)));
            let path = dir.join(format!("shard-{i:05}.idx"));
            save_shard(&path, self.dim, base as u64, &rows)?;
        }
        Ok(())
    }

    /// Loads an index previously written by [`Self::save_to`], pushing its
    /// rows back in id order.
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
        let mut index: Option<VectorIndex> = None;
        let mut capacity = 0usize;
        for name in &names {
            let rec = load_shard(&dir.join(name))?;
            let index = index.get_or_insert_with(|| {
                VectorIndex::new(IndexConfig { dim: rec.dim, ..IndexConfig::default() })
            });
            if rec.dim != index.dim {
                return Err(IndexError::Format(format!(
                    "inconsistent shard dims: {name} has {}, earlier shards have {}",
                    rec.dim, index.dim
                )));
            }
            if rec.base_id != index.len() {
                return Err(IndexError::Format(format!(
                    "non-contiguous shard ids: {name} starts at {}, expected {}",
                    rec.base_id,
                    index.len()
                )));
            }
            let count = rec.rows.len() / rec.dim;
            if count > MAX_ROWS - index.row_of.len() {
                return Err(IndexError::Format(format!(
                    "{name} takes the index past {MAX_ROWS} rows"
                )));
            }
            capacity = capacity.max(count);
            for row in rec.rows.chunks_exact(rec.dim) {
                index.push(row)?;
            }
        }
        let mut index = index.unwrap_or_default();
        if capacity > 0 {
            index.shard_capacity = capacity;
        }
        Ok(index)
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

    /// One block of `n` rows from `value`, next to the rows themselves.
    fn block_of(dim: usize, n: usize, value: &mut impl FnMut() -> f32) -> (Block, Vec<Vec<f32>>) {
        let rows: Vec<Vec<f32>> = (0..n).map(|_| (0..dim).map(|_| value()).collect()).collect();
        let mut block = Block::new(dim);
        rows.iter().enumerate().for_each(|(lane, r)| block.put(lane, r));
        (block, rows)
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
                let (block, rows) = block_of(dim, CHUNK_ROWS, &mut value);
                let visit = Visit::new(&q, !block.finite);
                let got = score_chunk::<CHUNK_ROWS>(&visit, &block.cols, 0);
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
                let (block, rows) = block_of(dim, CHUNK_ROWS + LANE_ROWS, &mut stored);
                assert!(block.finite);
                let (sparse, dense) = (Visit::new(&q, false), Visit::new(&q, true));
                assert_eq!(dense.terms.len(), dim);
                skipped += dim - sparse.terms.len();
                let score = |visit| {
                    let mut got = score_chunk::<CHUNK_ROWS>(visit, &block.cols, 0).to_vec();
                    got.extend(score_chunk::<LANE_ROWS>(visit, &block.cols, CHUNK_ROWS));
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

    /// However the blocks are split between scan workers — one, two, three,
    /// one per block, more workers than blocks — the answer has the ids and
    /// score bits of the full-sort reference, on rows and queries holding
    /// NaNs of either sign, infinities, signed zeros and denormals, and on a
    /// corpus whose rows mostly repeat.
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
        let mut hostile = |dim: usize, n: usize| -> Vec<Vec<f32>> {
            (0..n).map(|_| (0..dim).map(|_| value()).collect()).collect()
        };
        let mut corpora = vec![hostile(6, 40), hostile(11, 37), hostile(5, 9), hostile(28, 1300)];
        // Six values, two of them NaN payloads and two signed zeros: 1 296
        // possible rows at dim 4, so 3 000 rows repeat most of them.
        let alphabet = [0.0, -0.0, f32::NAN, f32::from_bits(0x7fc0_1234), 1.0, -0.5];
        let mut pick = value_stream(&[0.0]);
        let mut letter = || alphabet[((pick() + 1.0) * 3.0) as usize % alphabet.len()];
        corpora.push((0..3000).map(|_| (0..4).map(|_| letter()).collect()).collect());
        for rows in &corpora {
            let (n, dim) = (rows.len(), rows[0].len());
            let mut ix = VectorIndex::new(IndexConfig { dim, shard_capacity: 8 });
            for row in rows {
                ix.push(row).expect("dim matches");
            }
            let blocks = ix.blocks.len();
            if n == 3000 {
                let distinct = ix.distinct_len();
                assert!((513..1500).contains(&distinct), "{distinct} distinct rows of {n}");
            }
            for round in 0..6 {
                // Even rounds: a query as `/search` embeds it, mostly zeros.
                let q: Vec<f32> = (0..dim)
                    .map(|d| if round % 2 == 0 && (d + round) % 3 != 0 { 0.0 } else { value() })
                    .collect();
                for k in [1, 5, n, n + 3] {
                    let want = bits(&reference_scan(&q, rows, k));
                    for workers in [1, 2, 3, blocks, blocks + 1] {
                        assert_eq!(
                            bits(&ix.scan(&q, k, workers)),
                            want,
                            "dim {dim}, {blocks} blocks, k {k}, {workers} workers, q {q:?}"
                        );
                    }
                }
            }
        }
    }

    /// Different rows forced onto one hash are all stored — whether their
    /// zero masks differ, or agree and a value differs, below dimension 64
    /// or past it — a row bit-equal to one of them is stored again (a missed
    /// duplicate), and every answer still has the reference's ids and bits.
    #[test]
    fn a_hash_collision_stores_both_rows_and_answers_exactly() {
        let pairs = [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0], [0.5, -0.0], [2.0, 0.0]];
        let pairs = pairs.into_iter().chain([[1.0, -0.0]]);
        for (dim, second) in [(2, 1), (70, 66)] {
            // `[a, b]` at dimensions 0 and `second`, `+0.0` elsewhere.
            let spread = |[a, b]: [f32; 2]| -> Vec<f32> {
                let mut v = vec![0.0; dim];
                (v[0], v[second]) = (a, b);
                v
            };
            let rows: Vec<Vec<f32>> = pairs.clone().map(spread).collect();
            let mut ix = VectorIndex::new(IndexConfig { dim, shard_capacity: 2 });
            for row in &rows {
                ix.insert(row, 7);
            }
            // Row 0 owns the hash and row 2 joins it; every other row misses.
            assert_eq!(ix.first, [0, 1, 3, 4, 5, 6], "dim {dim}");
            let dir =
                std::env::temp_dir().join(format!("tsdx-index-collide-{}", std::process::id()));
            ix.save_to(&dir).expect("save");
            let back = VectorIndex::load(&dir).expect("load");
            std::fs::remove_dir_all(&dir).ok();
            assert_eq!(back.first, [0, 1, 4, 5, 6], "dim {dim}: loaded through the real hash");
            for q in [[1.0, 0.0], [0.0, 1.0], [0.25, 0.75], [0.0, 0.0], [f32::NAN, 1.0]].map(spread)
            {
                for k in 1..=9 {
                    let want = bits(&reference_scan(&q, &rows, k));
                    let at = format!("dim {dim}, q {q:?}, k {k}");
                    assert_eq!(bits(&ix.query(&q, k).expect("dim matches")), want, "{at}");
                    assert_eq!(bits(&back.query(&q, k).expect("dim matches")), want, "{at}");
                }
            }
            for (id, row) in rows.iter().enumerate() {
                assert_eq!(row_bits(&ix.row(id as u64).expect("dense ids")), row_bits(row));
            }
        }
    }

    fn row_bits(row: &[f32]) -> Vec<u32> {
        row.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn an_index_pads_at_most_one_block() {
        for capacity in [1, 9, 512, 65_536] {
            for distinct in [1usize, 511, 512, 513, 1100] {
                let mut ix = VectorIndex::new(IndexConfig { dim: 3, shard_capacity: capacity });
                for i in 0..2 * distinct {
                    ix.push(&[(i % distinct) as f32, 1.0, 2.0]).expect("dim matches");
                }
                assert_eq!(ix.distinct_len(), distinct as u64);
                assert_eq!(ix.blocks.len(), distinct.div_ceil(BLOCK_ROWS), "{distinct} rows");
                assert!(ix.blocks.iter().all(|b| b.cols.len() == 3 * BLOCK_ROWS));
            }
        }
    }

    #[test]
    fn ids_are_dense_and_rows_recoverable() {
        let ix = tiny();
        assert_eq!(ix.len(), 10);
        assert_eq!(ix.distinct_len(), 4);
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
