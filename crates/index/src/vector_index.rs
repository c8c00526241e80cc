//! The in-memory index — each distinct row stored once, in the group its
//! first two non-zero slots name — and its exact, group-skipping scan.
//!
//! # Each distinct row once
//!
//! SDL descriptions come from a closed taxonomy, so a scenario corpus repeats
//! rows: 200 000 random taxonomy-valid scenarios hold about 94 000 distinct
//! embeddings. The index keeps one table of *distinct* rows in blocks, each
//! laid out `[dim][stride]` (dimension-major, the block's rows side by side),
//! so one dimension of one block is a contiguous run of cache lines and a
//! scan reads only the runs it needs. Beside the table: per id, the place
//! (block and lane) of the distinct row it carries and the next id carrying
//! the same row; per distinct row, its lowest and highest id and which of its
//! dimensions are not `+0.0`; and a map from a 32-bit hash of a row's bit
//! pattern to its place. Rows are the same when their bits are — `+0.0` and
//! `-0.0`, or two NaN payloads, make different rows. A hash hit reads the
//! stored row's columns only where it is not `+0.0` (a sparse row is a few
//! cache lines, not `dim`), and on a hit whose stored bits differ, the row is
//! stored as a new distinct row and left out of the map.
//!
//! A scan scores each distinct row it visits once and offers it to one
//! [`TopK`] of ids under every id carrying it, lowest first, walking the
//! `next` links until the accumulator drops one: the ids after it carry the
//! same score and larger ids, so they rank lower still, and the bar only
//! rises. That is exact — every id is offered or provably ranks below `k`
//! others — and it holds for *any* partition of bit-equal rows, so a
//! duplicate the map misses (a hash collision) costs time, never an answer.
//! It also makes the accumulator's bar the k-th best *id*, which a popular
//! row reaches alone, not the k-th best distinct row.
//!
//! # Groups
//!
//! A distinct row belongs to the *group* keyed by its first two dimensions
//! that hold anything but `+0.0` (`dim` stands in for a missing one). For
//! every SDL embedding that pair is its ego slot and its road slot, so an SDL
//! corpus has at most 7 × 4 = 28 groups. A group's rows fill blocks of its
//! own in first-occurrence order, so lowest ids ascend through a group. Its
//! first block starts one lane wide and doubles its stride up to
//! [`BLOCK_ROWS`]; later blocks are [`BLOCK_ROWS`] wide from the start. A
//! group of `n` rows therefore holds fewer than `2n` lanes, and however many
//! groups rows spread over, the blocks stay O(rows). Each group keeps the min
//! and max of its two key columns, the largest f64 norm of its rows past the
//! second key, the largest row norm (both squared), and whether every row is
//! finite.
//!
//! # Which groups a scan skips
//!
//! For a finite query `q` and a finite group, every row's exact dot product
//! is at most
//!
//! ```text
//! Σ_key max(q·min, q·max) + ‖q_tail‖ · max ‖r_tail‖
//! ```
//!
//! — the row is `+0.0` below the second key except at the first, a key
//! term is linear in the row's value, and the tail (past the second key) is
//! bounded by Cauchy–Schwarz. [`tsdx_sdl::dot`]'s f32 result differs from
//! the exact one by at most `γ · ‖q‖ · ‖r‖` plus one smallest subnormal per
//! dimension for underflowing products, where `γ = m·u / (1 − m·u)`,
//! `u = 2⁻²⁴`, and `m = dim + 5` covers the ≤ `dim + 4` roundings on any
//! term's path through `dot` with one unit to spare for evaluating the bound
//! itself in f64. The bound plus that margin, rounded up to an f32 (and
//! `-0.0` up to `+0.0`), is therefore at or above every score of the group.
//! A scan visits the groups by descending bound and, before each, compacts
//! its accumulator and asks [`TopK::rejects_all`] about the bound under the
//! group's lowest id: a bound below the k-th, or bit-equal to it with a
//! lowest id past the k-th's, means no row of the group can place, and the
//! group is skipped. A non-finite group, a non-finite query, or one whose
//! `‖q‖ · max ‖r‖` could overflow f32 (where a score could be NaN) is never
//! skipped.
//!
//! # Which dimensions a scan reads
//!
//! Every query that reaches `/search` is an [`embed`]ding: at most ten of
//! its [`EMBED_DIM`] components are non-zero. Per group, a scan lists once
//! the dimensions it multiplies — grouped by the accumulator
//! [`tsdx_sdl::dot`] adds them into, ascending within each — leaving out
//! those with `q[d] == 0.0`, and those below the group's second key other
//! than its first where `q[d]` is finite (every row of the group is `+0.0`
//! there). That is exact, not approximate, as long as every stored value of
//! the block is finite:
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
//! A scan runs on its caller's thread.

use std::collections::hash_map::{Entry, HashMap};
use std::mem::size_of;

use tsdx_sdl::{dot, embed, is_unit_norm, Scenario, TopK, EMBED_DIM};
use tsdx_tensor::metrics;

use crate::IndexError;

/// Rows per full block: one dimension of a block is 2 KiB, 32 cache lines
/// in a row. A layout constant, not a dial — every score is computed
/// lane-independently, so the width never shows in an answer; wider blocks
/// measured up to a tenth faster on a sparse query and as much slower on a
/// dense one, which is fastest here (DESIGN §6.9).
const BLOCK_ROWS: usize = 512;

/// `log2(BLOCK_ROWS)`: a row's place is `block << LANE_BITS | lane`.
const LANE_BITS: u32 = BLOCK_ROWS.trailing_zeros();

/// Blocks an index holds at most: a place is kept in 32 bits.
const MAX_BLOCKS: usize = 1 << (u32::BITS - LANE_BITS);

/// Rows scored at a time: the accumulators of this many rows stay in vector
/// registers while the visited columns stream past, and one
/// [`TopK::rejects_all`] answers for all of them.
const CHUNK_ROWS: usize = 32;

/// Granule of the rows a block scores: what is left of a block past a
/// multiple of [`CHUNK_ROWS`] is scored this many at a time, and a block
/// narrower than this one row at a time.
const LANE_ROWS: usize = 8;

/// Counter: columns (one dimension of one block) the scan of a query reads.
const COLUMNS_VISITED: &str = "index/columns_visited";

/// Counter: distinct rows the scan of a query scores.
const ROWS_SCORED: &str = "index/rows_scored";

/// Counter: groups the scan of a query scores.
const GROUPS_VISITED: &str = "index/groups_visited";

/// Counter: groups the scan of a query skips on their bound.
const GROUPS_SKIPPED: &str = "index/groups_skipped";

/// Rows an index holds at most: ids are kept in 32 bits.
const MAX_ROWS: usize = u32::MAX as usize;

/// The unit roundoff of f32, `2⁻²⁴`.
const F32_UNIT: f64 = f32::EPSILON as f64 / 2.0;

/// The smallest positive f32, `2⁻¹⁴⁹`: what one underflowing product can
/// lose, with room for the roundings after it.
const F32_TINY: f64 = f32::from_bits(1) as f64;

/// A vector index over L2-normalized embeddings that stores each distinct
/// row once.
///
/// Ids are dense `u64`s in insertion order, at most [`u32::MAX`] of them.
/// Queries are exact brute-force scans: every distinct row that could place
/// is scored with the bits of [`tsdx_sdl::dot`], and the answer is what
/// scoring every id and sorting by the total [`TopK`] order would give
/// (module docs).
#[derive(Debug, Clone)]
pub struct VectorIndex {
    /// The distinct rows.
    table: Table,
    /// Per id, the place of the distinct row it carries.
    place: Vec<u32>,
    /// Per id, the next id carrying the same distinct row, or 0 when there
    /// is none (a next id is greater than its predecessor, so never 0).
    next: Vec<u32>,
    /// [`row_hash`] of a row's bits → the place of the distinct row stored
    /// under it.
    lookup: HashMap<u32, u32>,
}

/// The distinct rows: blocks, and the groups they belong to.
#[derive(Debug, Clone)]
struct Table {
    dim: usize,
    blocks: Vec<Block>,
    groups: Vec<Group>,
    /// A group's key → the group.
    group_of: HashMap<[usize; 2], usize>,
}

/// Up to [`BLOCK_ROWS`] distinct rows of one group, laid out
/// `[dim][stride]`; the lanes past the last row are zero and never ranked.
#[derive(Debug, Clone)]
struct Block {
    /// No stored value is NaN or infinite: a zero term may be skipped
    /// (module docs).
    finite: bool,
    /// Lanes allocated per dimension: a power of two up to [`BLOCK_ROWS`].
    stride: usize,
    cols: Box<[f32]>,
    /// Per stored row, in lane order.
    rows: Vec<Lane>,
}

/// What the index keeps per distinct row besides its values.
#[derive(Debug, Clone, Copy)]
struct Lane {
    /// The lowest id carrying the row: what the scan offers it under.
    first: u32,
    /// The highest id carrying it: where the next id carrying it links on.
    last: u32,
    /// Its [`nonzero_mask`]: a hash hit reads the block only for the
    /// columns it names.
    mask: u64,
}

/// The rows whose first two dimensions not `+0.0` are `key`, and what
/// bounds their scores (module docs).
#[derive(Debug, Clone)]
struct Group {
    /// The first two dimensions holding anything but `+0.0`; `dim` where a
    /// row has fewer.
    key: [usize; 2],
    /// The lowest id of any row of the group: its first row's.
    first: u32,
    /// The group's blocks, in fill order.
    blocks: Vec<usize>,
    /// Per key, the smallest and largest value its column holds.
    lo: [f32; 2],
    hi: [f32; 2],
    /// The largest squared norm of a row's dimensions past the second key.
    tail2: f64,
    /// The largest squared row norm.
    norm2: f64,
    /// Every stored value is finite.
    finite: bool,
}

impl Block {
    /// An all-zero block of `dim` columns and `stride` lanes.
    fn new(dim: usize, stride: usize) -> Block {
        Block {
            finite: true,
            stride,
            cols: vec![0.0; dim * stride].into_boxed_slice(),
            rows: Vec::new(),
        }
    }

    /// Stores `row`, finite or not, in the next lane, doubling the stride
    /// when the block is full, and returns the lane.
    fn push(&mut self, row: &[f32], finite: bool, lane: Lane) -> usize {
        let at = self.rows.len();
        if at == self.stride {
            let stride = 2 * self.stride;
            let mut cols = vec![0.0; row.len() * stride];
            for (new, old) in cols.chunks_exact_mut(stride).zip(self.cols.chunks_exact(self.stride))
            {
                new[..self.stride].copy_from_slice(old);
            }
            (self.cols, self.stride) = (cols.into_boxed_slice(), stride);
        }
        for (col, &x) in self.cols.chunks_exact_mut(self.stride).zip(row) {
            col[at] = x;
        }
        self.finite &= finite;
        self.rows.push(lane);
        at
    }

    /// The row in lane `lane`.
    fn lane(&self, lane: usize) -> impl Iterator<Item = f32> + '_ {
        self.cols.chunks_exact(self.stride).map(move |col| col[lane])
    }

    /// True when lane `lane` holds `row`'s bits, given that the two rows'
    /// [`nonzero_mask`]s agree: a dimension that is `+0.0` in both is not
    /// read, and of a sparse row only a few columns are.
    fn holds(&self, lane: usize, row: &[f32], mask: u64) -> bool {
        row.iter().enumerate().all(|(d, x)| {
            (d < 64 && mask >> d & 1 == 0)
                || self.cols[d * self.stride + lane].to_bits() == x.to_bits()
        })
    }
}

impl Group {
    /// An empty group under `key` whose first row has id `first`.
    fn new(key: [usize; 2], first: u32) -> Group {
        Group {
            key,
            first,
            blocks: Vec::new(),
            lo: [f32::INFINITY; 2],
            hi: [f32::NEG_INFINITY; 2],
            tail2: 0.0,
            norm2: 0.0,
            finite: true,
        }
    }

    /// Takes `row`, finite or not, into the group's bounds.
    fn add(&mut self, row: &[f32], finite: bool) {
        for (i, &d) in self.key.iter().enumerate() {
            if let Some(&x) = row.get(d) {
                self.lo[i] = self.lo[i].min(x);
                self.hi[i] = self.hi[i].max(x);
            }
        }
        let (head, tail) = row.split_at(tail_start(self.key, row.len()));
        let tail2 = sum_sq(tail);
        self.tail2 = self.tail2.max(tail2);
        self.norm2 = self.norm2.max(sum_sq(head) + tail2);
        self.finite &= finite;
    }
}

impl Table {
    /// Stores `row`, not yet in the table, as the distinct row of id `id`
    /// and returns its place.
    fn store(&mut self, row: &[f32], id: u32, mask: u64) -> u32 {
        let key = group_key(row);
        let g = *self.group_of.entry(key).or_insert_with(|| {
            self.groups.push(Group::new(key, id));
            self.groups.len() - 1
        });
        let group = &mut self.groups[g];
        let b = match group.blocks.last() {
            Some(&b) if self.blocks[b].rows.len() < BLOCK_ROWS => b,
            _ => {
                assert!(
                    self.blocks.len() < MAX_BLOCKS,
                    "an index holds at most {MAX_BLOCKS} blocks"
                );
                // A group's first block grows from one lane; once a group
                // has filled one, its rows pay for a whole block.
                let stride = if group.blocks.is_empty() { 1 } else { BLOCK_ROWS };
                self.blocks.push(Block::new(self.dim, stride));
                group.blocks.push(self.blocks.len() - 1);
                self.blocks.len() - 1
            }
        };
        let finite = row.iter().all(|x| x.is_finite());
        group.add(row, finite);
        let lane = self.blocks[b].push(row, finite, Lane { first: id, last: id, mask });
        // Below `MAX_BLOCKS`, every place fits in 32 bits.
        (b << LANE_BITS | lane) as u32
    }

    /// The block and lane of `place`.
    fn at(&self, place: u32) -> (&Block, usize) {
        let (b, lane) = unplace(place);
        (&self.blocks[b], lane)
    }

    /// What the table keeps about the row at `place`.
    fn lane_mut(&mut self, place: u32) -> &mut Lane {
        let (b, lane) = unplace(place);
        &mut self.blocks[b].rows[lane]
    }

    /// True when the row at `place` has `row`'s bits, `mask` being `row`'s
    /// [`nonzero_mask`].
    fn holds(&self, place: u32, row: &[f32], mask: u64) -> bool {
        let (block, lane) = self.at(place);
        block.rows[lane].mask == mask && block.holds(lane, row, mask)
    }
}

/// The block index and lane of a place.
fn unplace(place: u32) -> (usize, usize) {
    let place = place as usize;
    (place >> LANE_BITS, place & (BLOCK_ROWS - 1))
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
    /// The dimensions of `q` that `keep` names — exact only when every
    /// other term is `±0` (module docs).
    fn new(q: &[f32], keep: impl Fn(usize) -> bool) -> Visit {
        let mut visit = Visit { terms: Vec::with_capacity(q.len()), ends: [0; 5] };
        visit.fill(q, keep);
        visit
    }

    /// Makes this the visit [`Self::new`] would build.
    fn fill(&mut self, q: &[f32], keep: impl Fn(usize) -> bool) {
        let quads = q.len() & !3;
        self.terms.clear();
        for (acc, end) in self.ends.iter_mut().enumerate() {
            let dims = if acc < 4 { (acc..quads).step_by(4) } else { (quads..q.len()).step_by(1) };
            self.terms.extend(dims.filter(|&d| keep(d)).map(|d| (d, q[d])));
            *end = self.terms.len();
        }
    }
}

/// What bounds a query's score against any row of a group (module docs).
struct Reach<'q> {
    q: &'q [f32],
    /// `‖q‖` in f64: NaN or infinite when `q` is not finite.
    norm: f64,
    /// `γ` of `dot`'s rounding at this dimension.
    gamma: f64,
}

impl<'q> Reach<'q> {
    fn new(q: &'q [f32]) -> Reach<'q> {
        let m = (q.len() + 5) as f64 * F32_UNIT;
        Reach { q, norm: sum_sq(q).sqrt(), gamma: m / (1.0 - m) }
    }

    /// An f32 at or above the score of every row of `group`, or `None` when
    /// the group may not be skipped: it holds a non-finite value, or the
    /// query does, or a score might overflow to NaN.
    fn bound(&self, group: &Group) -> Option<f32> {
        let reach = self.norm * group.norm2.sqrt();
        // False for a NaN or infinite `reach`, which a non-finite query gives.
        let provable = reach <= f64::from(f32::MAX) / 2.0 && (0.0..1.0).contains(&self.gamma);
        if !group.finite || !provable {
            return None;
        }
        let q = self.q;
        let key: f64 = (0..2)
            .filter(|&i| group.key[i] < q.len())
            .map(|i| {
                let x = f64::from(q[group.key[i]]);
                (x * f64::from(group.lo[i])).max(x * f64::from(group.hi[i]))
            })
            .sum();
        let tail = (sum_sq(&q[tail_start(group.key, q.len())..]) * group.tail2).sqrt();
        let margin = self.gamma * reach + q.len() as f64 * F32_TINY;
        Some(round_up(key + tail + margin))
    }
}

/// The f32 nearest `x` from above, `+0.0` for a zero: an f32 at or above
/// `x` in the reals and, for a bound, in the total order.
fn round_up(x: f64) -> f32 {
    let y = x as f32;
    let y = if f64::from(y) < x { y.next_up() } else { y };
    if y == 0.0 {
        0.0
    } else {
        y
    }
}

/// `Σ v[d]²` in f64, summed four ways at once so the loop vectorizes: a
/// bound needs no particular rounding, and the build sums every new row.
fn sum_sq(v: &[f32]) -> f64 {
    let quads = v.chunks_exact(4);
    let rest: f64 = quads.remainder().iter().map(|&x| f64::from(x) * f64::from(x)).sum();
    let mut acc = [0.0f64; 4];
    for quad in quads {
        for (a, &x) in acc.iter_mut().zip(quad) {
            *a += f64::from(x) * f64::from(x);
        }
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + rest
}

/// The first dimension past the second key of a `dim`-wide row under `key`.
fn tail_start(key: [usize; 2], dim: usize) -> usize {
    (key[1] + 1).min(dim)
}

/// The first two dimensions of `row` holding anything but `+0.0`, `dim`
/// for each one missing.
fn group_key(row: &[f32]) -> [usize; 2] {
    let mut held = row.iter().enumerate().filter(|(_, x)| x.to_bits() != 0).map(|(d, _)| d);
    [(); 2].map(|()| held.next().unwrap_or(row.len()))
}

/// `dot(q, row)` for the `N` rows at lane `at` of `block`, with exactly the
/// association of [`tsdx_sdl::dot`]: dimension `d < dim & !3` adds the
/// unfused product `q[d] * row[d]` into accumulator `d % 4`, the remaining
/// dimensions into a tail accumulator in order, and the result is
/// `((l0 + l1) + (l2 + l3)) + tail`. Each lane repeats `dot`'s scalar
/// operations one for one — less the terms `visit` leaves out, which change
/// no accumulator's bits (module docs) — and every IEEE operation that does
/// not return a NaN has exactly one result, so a score that is not NaN has
/// `dot`'s bits and a score is NaN exactly when `dot`'s is. The lanes are
/// independent, which is what lets the loops vectorize.
#[inline(always)]
fn score_chunk<const N: usize>(visit: &Visit, block: &Block, at: usize) -> [f32; N] {
    let ([e0, e1, e2, e3, e4], t) = (visit.ends, &visit.terms);
    let (cols, stride) = (&block.cols[..], block.stride);
    // Each sum is formed as soon as both its operands are, so at most three
    // sets of `N` lanes are live at once and they stay in registers.
    let l0 = accumulate::<N>(&t[..e0], cols, stride, at);
    let l01 = add(l0, accumulate::<N>(&t[e0..e1], cols, stride, at));
    let l2 = accumulate::<N>(&t[e1..e2], cols, stride, at);
    let l23 = add(l2, accumulate::<N>(&t[e2..e3], cols, stride, at));
    let head = add(l01, l23);
    add(head, accumulate::<N>(&t[e3..e4], cols, stride, at))
}

/// `a + b`, lane by lane.
#[inline(always)]
fn add<const N: usize>(a: [f32; N], b: [f32; N]) -> [f32; N] {
    let mut sum = a;
    for r in 0..N {
        sum[r] += b[r];
    }
    sum
}

/// One accumulator of [`score_chunk`]: `terms` added in order into `N`
/// lanes starting at `+0.0`, from the lanes at `at` of `[dim][stride]`
/// columns. A function of its own, so each accumulator's lanes are a local
/// the compiler keeps in vector registers; indexing one array of five
/// accumulators measured two to three times slower (DESIGN §6.9).
#[inline(always)]
fn accumulate<const N: usize>(
    terms: &[(usize, f32)],
    cols: &[f32],
    stride: usize,
    at: usize,
) -> [f32; N] {
    let mut lanes = [0.0f32; N];
    for &(d, x) in terms {
        let col: &[f32; N] = cols[d * stride + at..][..N].try_into().expect("N lanes sliced");
        for r in 0..N {
            lanes[r] += x * col[r];
        }
    }
    lanes
}

/// Scores the rows of `block` against `q` with the terms of `visit` and
/// offers each to `best` under the ids carrying it, linked by `next`.
fn scan_block(
    next: &[u32],
    block: &Block,
    visit: &Visit,
    q: &[f32],
    best: &mut TopK<u32>,
    row: &mut Vec<f32>,
) {
    let rows = block.rows.len();
    let mut offer = |at: usize, scores: &[f32]| {
        // Lowest ids ascend through a block: the chunk's first is its least.
        if best.rejects_all(block.rows[at].first, scores) {
            return;
        }
        // Only here does the zero padding of a block matter.
        for (lane, &score) in (at..rows).zip(scores) {
            // Which NaN an add of two NaNs returns depends on the operand
            // order the compiler chose, so a NaN score (never rejected
            // above) takes its bits from `dot` itself.
            let score = if score.is_nan() {
                row.clear();
                row.extend(block.lane(lane));
                dot(q, row)
            } else {
                score
            };
            // Every id carrying the row, lowest first, until one is
            // dropped: the ids after it have its score and larger ids.
            let mut id = block.rows[lane].first;
            while best.push(id, score) {
                id = next[id as usize];
                if id == 0 {
                    break;
                }
            }
        }
    };
    if block.stride < LANE_ROWS {
        for at in 0..rows {
            offer(at, &score_chunk::<1>(visit, block, at));
        }
        return;
    }
    let end = rows.next_multiple_of(LANE_ROWS);
    let whole = end - end % CHUNK_ROWS;
    for at in (0..whole).step_by(CHUNK_ROWS) {
        offer(at, &score_chunk::<CHUNK_ROWS>(visit, block, at));
    }
    for at in (whole..end).step_by(LANE_ROWS) {
        offer(at, &score_chunk::<LANE_ROWS>(visit, block, at));
    }
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
    /// An empty index of [`EMBED_DIM`]-wide rows, what SDL embeddings are.
    fn default() -> Self {
        VectorIndex::new(EMBED_DIM)
    }
}

impl VectorIndex {
    /// An empty index of `dim`-wide rows.
    ///
    /// # Panics
    ///
    /// Panics when `dim` is zero — a construction-time constant, not a
    /// runtime input.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "index dim must be positive");
        VectorIndex {
            table: Table { dim, blocks: Vec::new(), groups: Vec::new(), group_of: HashMap::new() },
            place: Vec::new(),
            next: Vec::new(),
            lookup: HashMap::new(),
        }
    }

    /// Embedding dimensionality (stride of every stored row).
    pub fn dim(&self) -> usize {
        self.table.dim
    }

    /// Number of indexed vectors.
    pub fn len(&self) -> u64 {
        self.place.len() as u64
    }

    /// True when nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.place.is_empty()
    }

    /// Number of distinct rows stored: rows with bit-equal values share one
    /// (a hash collision may store a row twice).
    pub fn distinct_len(&self) -> u64 {
        self.table.blocks.iter().map(|b| b.rows.len() as u64).sum()
    }

    /// Bytes the index holds in memory: the blocks with their rows' ids and
    /// masks, the groups, the id maps at their capacity, and each map at
    /// one entry and one control byte per slot it has room for.
    pub fn resident_bytes(&self) -> usize {
        let t = &self.table;
        let blocks: usize = t
            .blocks
            .iter()
            .map(|b| b.cols.len() * size_of::<f32>() + b.rows.capacity() * size_of::<Lane>())
            .sum();
        let groups: usize = t.groups.iter().map(|g| g.blocks.capacity() * size_of::<usize>()).sum();
        let groups = groups
            + t.groups.capacity() * size_of::<Group>()
            + t.group_of.capacity() * (size_of::<([usize; 2], usize)>() + 1);
        let ids = (self.place.capacity() + self.next.capacity()) * size_of::<u32>();
        let lookup = self.lookup.capacity() * (size_of::<(u32, u32)>() + 1);
        blocks + t.blocks.capacity() * size_of::<Block>() + groups + ids + lookup
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
        if v.len() != self.dim() {
            return Err(IndexError::DimMismatch { expected: self.dim(), found: v.len() });
        }
        Ok(self.insert(v, row_hash(v)))
    }

    /// Appends `row`, whose bits hash to `hash`, returning its id: linked to
    /// the distinct row stored under `hash` when that row has `row`'s bits,
    /// else stored as a new distinct row — entered in the lookup only when
    /// `hash` is free.
    fn insert(&mut self, row: &[f32], hash: u32) -> u64 {
        let id = self.place.len();
        assert!(id < MAX_ROWS, "an index holds at most {MAX_ROWS} rows");
        // Below `MAX_ROWS`, every id fits the `u32` maps.
        let id32 = id as u32;
        let mask = nonzero_mask(row);
        let place = match self.lookup.entry(hash) {
            Entry::Occupied(e) if self.table.holds(*e.get(), row, mask) => {
                let stored = self.table.lane_mut(*e.get());
                self.next[stored.last as usize] = id32;
                stored.last = id32;
                *e.get()
            }
            Entry::Occupied(_) => self.table.store(row, id32, mask),
            Entry::Vacant(e) => *e.insert(self.table.store(row, id32, mask)),
        };
        self.place.push(place);
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

    /// The stored row with id `id`, if any — gathered out of its block
    /// into an owned vector, bit for bit what was pushed.
    pub fn row(&self, id: u64) -> Option<Vec<f32>> {
        let place = *self.place.get(usize::try_from(id).ok()?)?;
        let (block, lane) = self.table.at(place);
        Some(block.lane(lane).collect())
    }

    /// The `k` most similar rows to `q`, best first, as `(id, similarity)`.
    ///
    /// Similarity is the plain dot product — exact cosine for the
    /// unit-norm rows [`Self::push_scenario`] stores. Groups whose bound
    /// cannot reach the k-th are skipped, and each distinct row of the others
    /// is scored once and offered under its ids (module docs), so the result
    /// is what scoring every id would give, deterministic for any input, and
    /// a query allocates O(k + groups + dim), never O(n).
    ///
    /// # Errors
    ///
    /// [`IndexError::DimMismatch`] when `q` is not `dim` wide.
    pub fn query(&self, q: &[f32], k: usize) -> Result<Vec<(u64, f32)>, IndexError> {
        if q.len() != self.dim() {
            return Err(IndexError::DimMismatch { expected: self.dim(), found: q.len() });
        }
        if k == 0 || self.is_empty() {
            return Ok(Vec::new());
        }
        Ok(self.scan(q, k))
    }

    /// The top `k` for `q` (module docs).
    fn scan(&self, q: &[f32], k: usize) -> Vec<(u64, f32)> {
        let table = &self.table;
        let reach = Reach::new(q);
        // Highest bound first; a group that may not be skipped goes ahead of
        // every bound.
        let mut order: Vec<(Option<f32>, &Group)> =
            table.groups.iter().map(|g| (reach.bound(g), g)).collect();
        order.sort_by(|a, b| {
            let bound = |e: &(Option<f32>, &Group)| e.0.unwrap_or(f32::INFINITY);
            bound(b).total_cmp(&bound(a))
        });
        // Indexed by a block's `finite` flag.
        let mut visits = [Visit::new(q, |_| true), Visit::new(q, |_| false)];
        let mut best = TopK::new(k);
        // Filled only for NaN scores: at most one allocation per query.
        let mut row = Vec::new();
        let (mut columns, mut rows, mut skipped) = (0, 0, 0);
        for (bound, group) in order {
            if let Some(bound) = bound {
                best.compact();
                if best.rejects_all(group.first, &[bound]) {
                    skipped += 1;
                    continue;
                }
            }
            let [first, second] = group.key;
            visits[1].fill(q, |d| q[d] != 0.0 && (d == first || d >= second || !q[d].is_finite()));
            for &b in &group.blocks {
                let block = &table.blocks[b];
                let visit = &visits[usize::from(block.finite)];
                columns += visit.terms.len() as u64;
                rows += block.rows.len() as u64;
                scan_block(&self.next, block, visit, q, &mut best, &mut row);
            }
        }
        metrics::counter_add(COLUMNS_VISITED, columns);
        metrics::counter_add(ROWS_SCORED, rows);
        metrics::counter_add(GROUPS_VISITED, table.groups.len() as u64 - skipped);
        metrics::counter_add(GROUPS_SKIPPED, skipped);
        best.into_sorted().into_iter().map(|(id, score)| (u64::from(id), score)).collect()
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
        let mut ix = VectorIndex::new(4);
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
        let mut block = Block::new(dim, 1);
        for (id, r) in rows.iter().enumerate() {
            let finite = r.iter().all(|x| x.is_finite());
            block.push(
                r,
                finite,
                Lane { first: id as u32, last: id as u32, mask: nonzero_mask(r) },
            );
        }
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
                let visit = Visit::new(&q, |d| !block.finite || q[d] != 0.0);
                let got = score_chunk::<CHUNK_ROWS>(&visit, &block, 0);
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
                let (sparse, dense) = (Visit::new(&q, |d| q[d] != 0.0), Visit::new(&q, |_| true));
                assert_eq!(dense.terms.len(), dim);
                skipped += dim - sparse.terms.len();
                let score = |visit| {
                    let mut got = score_chunk::<CHUNK_ROWS>(visit, &block, 0).to_vec();
                    got.extend(score_chunk::<LANE_ROWS>(visit, &block, CHUNK_ROWS));
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

    fn build(rows: &[Vec<f32>]) -> VectorIndex {
        let mut ix = VectorIndex::new(rows[0].len());
        for row in rows {
            ix.push(row).expect("dim matches");
        }
        ix
    }

    /// On rows and queries holding NaNs of either sign, infinities, signed
    /// zeros and denormals, and on a corpus whose rows mostly repeat, the
    /// answer has the ids and score bits of the full-sort reference.
    #[test]
    fn hostile_and_repetitive_corpora_answer_with_the_reference_bits() {
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
            let ix = build(rows);
            if n == 3000 {
                let distinct = ix.distinct_len();
                assert!((513..1500).contains(&distinct), "{distinct} distinct rows of {n}");
                assert!(ix.table.groups.len() > 8, "{} groups", ix.table.groups.len());
            }
            for round in 0..6 {
                // Even rounds: a query as `/search` embeds it, mostly zeros.
                let q: Vec<f32> = (0..dim)
                    .map(|d| if round % 2 == 0 && (d + round) % 3 != 0 { 0.0 } else { value() })
                    .collect();
                for k in [1, 5, n, n + 3] {
                    assert_eq!(
                        bits(&ix.query(&q, k).expect("dim matches")),
                        bits(&reference_scan(&q, rows, k)),
                        "dim {dim}, k {k}, q {q:?}"
                    );
                }
            }
        }
    }

    /// A group's bound is at or above, in the total order, the `dot` bits of
    /// every row it holds — for queries with negative, zero, tiny and huge
    /// components, for rows spread over many groups, and for a row alone in
    /// its group queried with itself, where the bound is tight and `dot`'s
    /// rounding can land above the exact value.
    #[test]
    fn a_group_bound_is_at_or_above_every_score_it_stands_for() {
        let mut value = value_stream(&[0.0, -0.0, 0.0, 1e-42, -1e-42, f32::MIN_POSITIVE, 3e18]);
        let mut bounded = 0;
        let mut check = |ix: &VectorIndex, q: &[f32]| {
            let reach = Reach::new(q);
            for group in &ix.table.groups {
                let Some(bound) = reach.bound(group) else { continue };
                bounded += 1;
                for &b in &group.blocks {
                    let block = &ix.table.blocks[b];
                    for lane in 0..block.rows.len() {
                        let row: Vec<f32> = block.lane(lane).collect();
                        let score = dot(q, &row);
                        assert!(
                            score.total_cmp(&bound).is_le(),
                            "score {score:e} above bound {bound:e}, q {q:?}, row {row:?}"
                        );
                    }
                }
            }
        };
        for dim in [1, 2, 3, 5, 8, 13, 28] {
            for round in 0..20 {
                // Every other component zero in even rounds: many groups.
                let mut draw = |d: usize| if round % 2 == 0 && d % 2 == 1 { 0.0 } else { value() };
                let rows: Vec<Vec<f32>> =
                    (0..200).map(|_| (0..dim).map(&mut draw).collect()).collect();
                let ix = build(&rows);
                for _ in 0..6 {
                    check(&ix, &(0..dim).map(&mut draw).collect::<Vec<f32>>());
                }
                for q in rows.iter().take(6) {
                    check(&ix, q);
                }
            }
        }
        let mut lifted = 0;
        for dim in [3, 7, 28] {
            for _ in 0..500 {
                let row: Vec<f32> = (0..dim).map(|_| value()).collect();
                check(&build(std::slice::from_ref(&row)), &row);
                let exact: f64 = row.iter().map(|&x| f64::from(x) * f64::from(x)).sum();
                lifted += usize::from(f64::from(dot(&row, &row)) > f64::from(round_up(exact)));
            }
        }
        assert!(bounded > 4000, "the sweep must bound groups, bounded {bounded}");
        assert!(lifted > 10, "rounding must lift some self-scores above the exact bound: {lifted}");
    }

    /// A tie with the k-th found in a group visited later places when its
    /// lowest id is below the k-th's: group `{2, 3}` has the higher bound and
    /// is scanned first, so id 5 is the k-th when id 0's group comes.
    #[test]
    fn a_later_group_places_a_tie_on_its_lower_id() {
        let rows = vec![
            vec![1.0, 1.0, 0.0, 0.0], // id 0: group {0, 1}, score 1.0
            vec![0.0, 0.0, 2.0, -1.0],
            vec![0.0, 0.0, 1.5, -0.5],
            vec![0.0, 0.0, 0.5, 0.25],
            vec![0.0, 0.0, 0.75, -0.25],
            vec![0.0, 0.0, 1.0, 1.0], // id 5: group {2, 3}, score 1.0
        ];
        let ix = build(&rows);
        let q = [0.5f32; 4];
        let reach = Reach::new(&q);
        let [low, high] = [&ix.table.groups[0], &ix.table.groups[1]].map(|g| reach.bound(g));
        assert!(high > low, "group {{2, 3}} must be visited first: {high:?} vs {low:?}");
        for k in 1..=rows.len() {
            let got = ix.query(&q, k).expect("dim matches");
            assert_eq!(got[0], (0, 1.0), "k {k}: the tie goes to the lower id");
            assert_eq!(bits(&got), bits(&reference_scan(&q, &rows, k)), "k {k}");
        }
    }

    /// Different rows forced onto one hash are all stored — whether their
    /// zero masks differ, or agree and a value differs, below dimension 64
    /// or past it — a row bit-equal to one of them is stored again (a missed
    /// duplicate), and every answer still has the reference's ids and bits.
    #[test]
    fn a_hash_collision_stores_both_rows_and_answers_exactly() {
        // The lowest id of every distinct row, ascending.
        let firsts = |ix: &VectorIndex| -> Vec<u32> {
            let mut ids: Vec<u32> =
                ix.table.blocks.iter().flat_map(|b| b.rows.iter().map(|r| r.first)).collect();
            ids.sort_unstable();
            ids
        };
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
            let mut ix = VectorIndex::new(dim);
            for row in &rows {
                ix.insert(row, 7);
            }
            // Row 0 owns the hash and row 2 joins it; every other row misses.
            assert_eq!(firsts(&ix), [0, 1, 3, 4, 5, 6], "dim {dim}");
            let pushed = build(&rows);
            assert_eq!(firsts(&pushed), [0, 1, 4, 5, 6], "dim {dim}: pushed through the real hash");
            for q in [[1.0, 0.0], [0.0, 1.0], [0.25, 0.75], [0.0, 0.0], [f32::NAN, 1.0]].map(spread)
            {
                for k in 1..=9 {
                    let want = bits(&reference_scan(&q, &rows, k));
                    let at = format!("dim {dim}, q {q:?}, k {k}");
                    assert_eq!(bits(&ix.query(&q, k).expect("dim matches")), want, "{at}");
                    assert_eq!(bits(&pushed.query(&q, k).expect("dim matches")), want, "{at}");
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

    /// A group of `n` distinct rows holds fewer than `2n` lanes: its first
    /// block doubles up to a full one, every later block is full but the
    /// last.
    #[test]
    fn a_group_pads_fewer_lanes_than_it_holds_rows() {
        for distinct in [1usize, 2, 3, 9, 511, 512, 513, 1100] {
            let mut ix = VectorIndex::new(3);
            for i in 0..2 * distinct {
                ix.push(&[(i % distinct) as f32 + 1.0, 1.0, 2.0]).expect("dim matches");
            }
            assert_eq!(ix.distinct_len(), distinct as u64);
            let [group] = &ix.table.groups[..] else { panic!("one group") };
            let blocks: Vec<&Block> = group.blocks.iter().map(|&b| &ix.table.blocks[b]).collect();
            let lanes: usize = blocks.iter().map(|b| b.stride).sum();
            assert!(lanes < 2 * distinct, "{distinct} rows in {lanes} lanes");
            assert_eq!(blocks.len(), distinct.div_ceil(BLOCK_ROWS), "{distinct} rows");
            let (last, full) = blocks.split_last().expect("a block");
            assert!(full.iter().all(|b| b.rows.len() == BLOCK_ROWS && b.stride == BLOCK_ROWS));
            assert!(last.stride >= last.rows.len() && last.cols.len() == 3 * last.stride);
        }
    }

    /// About a thousand raw rows spread over hundreds of groups keep their
    /// blocks within twice the rows' own bytes plus one full block.
    #[test]
    fn rows_over_many_groups_keep_block_bytes_linear() {
        let dim = 28;
        let mut value = value_stream(&[0.5]);
        let mut draw = |n: usize| ((value() + 1.0) * 0.5 * n as f32) as usize % n;
        let rows: Vec<Vec<f32>> = (0..1000)
            .map(|_| {
                let first = draw(dim - 1);
                let second = first + 1 + draw(dim - 1 - first);
                let mut row = vec![0.0; dim];
                (row[first], row[second]) = (0.6, 0.8);
                for x in &mut row[second + 1..] {
                    *x = if draw(3) == 0 { 0.125 * draw(8) as f32 } else { 0.0 };
                }
                row
            })
            .collect();
        let ix = build(&rows);
        let groups = ix.table.groups.len();
        assert!(groups >= 300, "{groups} groups");
        let block_bytes: usize =
            ix.table.blocks.iter().map(|b| b.cols.len() * size_of::<f32>()).sum();
        let row_bytes = ix.distinct_len() as usize * dim * size_of::<f32>();
        let one_block = BLOCK_ROWS * dim * size_of::<f32>();
        assert!(
            block_bytes <= 2 * row_bytes + one_block,
            "{groups} groups: {block_bytes} B of blocks for {row_bytes} B of rows"
        );
        for q in rows.iter().step_by(97) {
            for k in [1, 10, 1000] {
                let got = ix.query(q, k).expect("dim matches");
                assert_eq!(bits(&got), bits(&reference_scan(q, &rows, k)), "k {k}");
            }
        }
    }

    #[test]
    fn ids_are_dense_and_rows_recoverable() {
        let ix = tiny();
        assert_eq!(ix.len(), 10);
        assert_eq!(ix.distinct_len(), 4);
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
        let ix = VectorIndex::new(4);
        assert!(ix.query(&unit(4, 0), 5).expect("dim matches").is_empty());
        assert!(tiny().query(&unit(4, 0), 0).expect("dim matches").is_empty());
    }
}
