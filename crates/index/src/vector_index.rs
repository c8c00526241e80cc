//! The in-memory index and its exact, group-skipping scan.
//!
//! # Each distinct row once
//!
//! [`embed`] is a function of a scenario's slot counts: ego, road, and how
//! many actor clauses name each event class (or *none*) and stand at each
//! position. [`Scenario::validate`] allows at most [`MAX_ACTORS`] clauses, so
//! the counts pack into a `u64` [`Key`] exactly, and equal keys are equal
//! embedding bits. A push whose key is known links its id to the stored row
//! without embedding. Rows sit in blocks laid out `[dim][stride]`, so a scan
//! reads only the dimension runs it needs. A scan scores each distinct row
//! once and offers it to one [`TopK`] under every id carrying it (the `next`
//! links), lowest first, until one is dropped: the ids after it have the same
//! score and larger ids. That is exact, and it makes the bar the k-th best
//! *id*, which a popular row reaches alone.
//!
//! # Groups, and which a scan skips
//!
//! A row lives in the *group* of its ego and road (its first two non-zero
//! dimensions), in first-occurrence order, so lowest ids ascend through a
//! group. A group's first block doubles from one lane to [`BLOCK_ROWS`],
//! later ones are full width: `n` rows take fewer than `2n` lanes. Rows and
//! queries are finite and non-negative, so a row's exact dot product with `q`
//! is at most `Σ_key q·max + ‖q_tail‖ · max ‖r_tail‖` (the row is `+0.0`
//! below the second key but at the first; Cauchy–Schwarz past it).
//! [`tsdx_sdl::dot`] is within `γ · ‖q‖ · ‖r‖` of exact, plus a smallest
//! subnormal per dimension, with `γ = m·u / (1 − m·u)`, `u = 2⁻²⁴` and
//! `m = dim + 5` (its ≤ `dim + 4` roundings, one to spare for the bound's own
//! f64). That sum, rounded up to an f32, bounds every score of the group. A
//! scan visits groups by descending bound and skips one whose bound, under
//! its lowest id, [`TopK::rejects_all`] rules out.
//!
//! In a group, a scan reads only the dimensions with `q[d] != 0.0` that are
//! not below the group's second key but at its first, in `dot`'s order. A
//! skipped term is `0 × finite = +0`, no accumulator ever holds `−0.0` (it
//! starts at `+0.0`; a sum is `−0.0` only when both operands are), and
//! `a + 0 == a` bit for bit for any other `a`: every score keeps `dot`'s bits.

use std::collections::hash_map::{Entry, HashMap};
use std::convert::Infallible;

use tsdx_sdl::{
    embed, is_unit_norm, vocab, EgoManeuver, Position, RoadKind, Scenario, TopK,
    ValidateScenarioError, EMBED_DIM, MAX_ACTORS,
};
use tsdx_tensor::metrics;

/// Rows per full block: one dimension of a block is 2 KiB, 32 cache lines.
/// A layout constant, not a dial: every score is computed lane-independently,
/// so the width never shows in an answer (DESIGN §6.9).
const BLOCK_ROWS: usize = 512;

/// `log2(BLOCK_ROWS)`: a row's place is `block << LANE_BITS | lane`. The
/// taxonomy has fewer than 2²⁵ distinct rows (at most 28 groups of at most
/// C(64, 4) actor multisets), so fewer than 2²³ blocks and every place fits
/// 32 bits.
const LANE_BITS: u32 = BLOCK_ROWS.trailing_zeros();

/// Rows scored at a time, their accumulators in vector registers and one
/// [`TopK::rejects_all`] for all of them.
const CHUNK_ROWS: usize = 32;

/// Rows scored at a time past the last whole chunk; a narrower block is
/// scored one row at a time.
const LANE_ROWS: usize = 8;

/// `γ` of [`tsdx_sdl::dot`]'s rounding at [`EMBED_DIM`], and its one
/// smallest subnormal per dimension (module docs).
const GAMMA: f64 = {
    let m = (EMBED_DIM + 5) as f64 * (f32::EPSILON as f64 / 2.0);
    m / (1.0 - m)
};
const TINY: f64 = EMBED_DIM as f64 * f32::from_bits(1) as f64;

/// Groups an index can hold, one per ego maneuver and road: the low
/// [`GROUP_BITS`] of a [`Key`].
const GROUPS: usize = EgoManeuver::COUNT * RoadKind::COUNT;
const GROUP_BITS: u32 = usize::BITS - (GROUPS - 1).leading_zeros();

/// Bits per slot count of a [`Key`]: a validated scenario counts at most
/// [`MAX_ACTORS`] of any one slot.
const COUNT_BITS: u32 = usize::BITS - MAX_ACTORS.leading_zeros();

// Above the group, a key counts the event classes with *none*, then the
// positions.
const _: () = assert!(
    GROUP_BITS + (vocab::EVENT_COUNT + Position::COUNT) as u32 * COUNT_BITS <= Key::BITS,
    "the taxonomy outgrew a key"
);

/// A validated scenario's group and slot counts, packed (module docs).
type Key = u64;

/// The [`Key`] of `s`, which [`Scenario::validate`] accepts: the counts
/// [`embed`] sums, so equal keys are equal embeddings.
fn key(s: &Scenario) -> Key {
    let one = |slot: usize| -> Key { 1 << (GROUP_BITS + slot as u32 * COUNT_BITS) };
    let mut key = (s.ego.index() * RoadKind::COUNT + s.road.index()) as Key;
    if s.actors.is_empty() {
        key += one(vocab::EVENT_NONE);
    }
    for a in &s.actors {
        if let Some(e) = vocab::event_index(a.kind, a.action) {
            key += one(e);
        }
        if let Some(p) = a.position {
            key += one(vocab::EVENT_COUNT + p.index());
        }
    }
    key
}

/// A vector index over scenario embeddings that stores each distinct row
/// once. Ids are dense `u64`s in insertion order, at most [`u32::MAX`] of
/// them. A query's answer is what scoring every id with [`tsdx_sdl::dot`]
/// and sorting by the total [`TopK`] order would give (module docs).
#[derive(Debug, Clone, Default)]
pub struct VectorIndex {
    /// The distinct rows.
    table: Table,
    /// Per id, the next id carrying the same distinct row, or 0 when there
    /// is none (a next id is greater than its predecessor, so never 0).
    next: Vec<u32>,
    /// A scenario's [`Key`] → the place of its distinct row.
    lookup: HashMap<Key, u32>,
}

/// The distinct rows: blocks, and the groups they belong to.
#[derive(Debug, Clone, Default)]
struct Table {
    blocks: Vec<Block>,
    groups: Vec<Group>,
    /// A key's group bits → the group, once it holds a row.
    group_of: [Option<usize>; GROUPS],
}

/// Up to [`BLOCK_ROWS`] distinct rows of one group, laid out
/// `[dim][stride]`; the lanes past the last row are zero and never ranked.
#[derive(Debug, Clone)]
struct Block {
    /// Lanes allocated per dimension: a power of two up to [`BLOCK_ROWS`].
    stride: usize,
    cols: Box<[f32]>,
    /// Per stored row, in lane order.
    rows: Vec<Lane>,
}

/// The lowest id carrying one distinct row, which the scan offers it under,
/// and the highest, where the next id carrying it links on.
#[derive(Debug, Clone, Copy)]
struct Lane {
    first: u32,
    last: u32,
}

/// The rows of one ego maneuver and road, and what bounds their scores
/// (module docs).
#[derive(Debug, Clone, Default)]
struct Group {
    /// The dimensions of its ego and road slots.
    key: [usize; 2],
    /// The lowest id of any row of the group: its first row's.
    first: u32,
    /// The group's blocks, in fill order.
    blocks: Vec<usize>,
    /// The largest value of each key column, the largest squared norm of a
    /// row past the second key, and the largest squared row norm.
    hi: [f32; 2],
    tail2: f64,
    norm2: f64,
}

impl Block {
    /// An all-zero block of `dim` columns and `stride` lanes.
    fn new(dim: usize, stride: usize) -> Block {
        Block { stride, cols: vec![0.0; dim * stride].into_boxed_slice(), rows: Vec::new() }
    }

    /// Stores `row` in the next lane, doubling the stride when the block is
    /// full, and returns the lane.
    fn push(&mut self, row: &[f32], lane: Lane) -> usize {
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
        self.rows.push(lane);
        at
    }
}

impl Group {
    /// An f32 at or above the score of every row of the group against `q`,
    /// whose norm is `q_norm` (module docs).
    fn bound(&self, q: &[f32; EMBED_DIM], q_norm: f64) -> f32 {
        let key: f64 = (0..2).map(|i| f64::from(q[self.key[i]]) * f64::from(self.hi[i])).sum();
        let tail = (sum_sq(&q[self.key[1] + 1..]) * self.tail2).sqrt();
        let margin = GAMMA * (q_norm * self.norm2.sqrt()) + TINY;
        round_up(key + tail + margin)
    }
}

impl Table {
    /// Stores `row`, the embedding of `s` whose key `key` is not yet in the
    /// table, as the distinct row of id `id`, and returns its place.
    fn store(&mut self, row: &[f32; EMBED_DIM], key: Key, s: &Scenario, id: u32) -> u32 {
        let slot = &mut self.group_of[(key & ((1 << GROUP_BITS) - 1)) as usize];
        let g = *slot.get_or_insert_with(|| {
            let key = [s.ego.index(), EgoManeuver::COUNT + s.road.index()];
            self.groups.push(Group { key, first: id, ..Group::default() });
            self.groups.len() - 1
        });
        let group = &mut self.groups[g];
        let b = match group.blocks.last() {
            Some(&b) if self.blocks[b].rows.len() < BLOCK_ROWS => b,
            _ => {
                // A group's first block grows from one lane; once a group
                // has filled one, its rows pay for a whole block.
                let stride = if group.blocks.is_empty() { 1 } else { BLOCK_ROWS };
                self.blocks.push(Block::new(EMBED_DIM, stride));
                group.blocks.push(self.blocks.len() - 1);
                self.blocks.len() - 1
            }
        };
        for (hi, &d) in group.hi.iter_mut().zip(&group.key) {
            *hi = hi.max(row[d]);
        }
        let (head, tail) = row.split_at(group.key[1] + 1);
        let tail2 = sum_sq(tail);
        group.tail2 = group.tail2.max(tail2);
        group.norm2 = group.norm2.max(sum_sq(head) + tail2);
        let lane = self.blocks[b].push(row, Lane { first: id, last: id });
        (b << LANE_BITS | lane) as u32
    }
}

/// The terms of `dot(q, ·)` a scan computes, in the order `dot` adds them.
#[derive(Default)]
struct Visit {
    /// `(d, q[d])`, grouped by `dot`'s accumulator — `d % 4` for
    /// `d < dim & !3`, then the tail — and ascending within each.
    terms: Vec<(usize, f32)>,
    /// Where each of the five accumulators' terms end.
    ends: [usize; 5],
}

impl Visit {
    /// Makes this the dimensions of `q` that `keep` names — exact only when
    /// every other term is `+0` (module docs).
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

/// The f32 nearest `x` from above: an f32 at or above `x`.
fn round_up(x: f64) -> f32 {
    let y = x as f32;
    if f64::from(y) < x {
        y.next_up()
    } else {
        y
    }
}

/// `Σ v[d]²` in f64, summed four ways at once so the loop vectorizes.
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

/// `dot(q, row)` for the `N` rows at lane `at` of `block`, with exactly the
/// association of [`tsdx_sdl::dot`]: dimension `d < dim & !3` adds the
/// unfused product `q[d] * row[d]` into accumulator `d % 4`, the rest go into
/// a tail accumulator in order, and the result is
/// `((l0 + l1) + (l2 + l3)) + tail`. Each lane repeats `dot`'s operations one
/// for one, less the terms `visit` leaves out (module docs), so a score that
/// is not NaN has `dot`'s bits; the lanes are independent, so the loops
/// vectorize.
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
/// columns. A function of its own, so its lanes are a local kept in vector
/// registers; one array of five accumulators measured two to three times
/// slower (DESIGN §6.9).
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

/// Scores the rows of `block` with `visit`'s terms, on the caller's thread,
/// and offers each to `best` under the ids carrying it, linked by `next`.
fn scan_block(next: &[u32], block: &Block, visit: &Visit, best: &mut TopK<u32>) {
    let rows = block.rows.len();
    let mut offer = |at: usize, scores: &[f32]| {
        // Lowest ids ascend through a block: the chunk's first is its least.
        if best.rejects_all(block.rows[at].first, scores) {
            return;
        }
        // Zipping with the rows leaves the block's zero padding out.
        for (lane, &score) in block.rows[at..].iter().zip(scores) {
            // Every id carrying the row, lowest first, until one is
            // dropped: the ids after it have its score and larger ids.
            let mut id = lane.first;
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

impl VectorIndex {
    /// Number of indexed scenarios.
    pub fn len(&self) -> u64 {
        self.next.len() as u64
    }

    /// True when nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.next.is_empty()
    }

    /// Number of distinct rows stored: scenarios with the same slot counts
    /// share one.
    pub fn distinct_len(&self) -> u64 {
        self.table.blocks.iter().map(|b| b.rows.len() as u64).sum()
    }

    /// Appends one scenario, returning its id. A scenario with the slot
    /// counts of an earlier one is linked to its row without being embedded.
    ///
    /// # Errors
    ///
    /// What [`Scenario::validate`] rejects — more than [`MAX_ACTORS`] actor
    /// clauses, or an actor outside the taxonomy — is not indexed.
    ///
    /// # Panics
    ///
    /// Panics when the index already holds [`u32::MAX`] rows, as
    /// `Vec::push` does past its capacity.
    pub fn push_scenario(&mut self, s: &Scenario) -> Result<u64, ValidateScenarioError> {
        s.validate()?;
        let id = self.next.len();
        assert!(id < u32::MAX as usize, "an index holds at most {} rows", u32::MAX);
        let id32 = id as u32;
        let key = key(s);
        match self.lookup.entry(key) {
            Entry::Occupied(e) => {
                let place = *e.get() as usize;
                let stored = &mut self.table.blocks[place >> LANE_BITS].rows[place % BLOCK_ROWS];
                self.next[stored.last as usize] = id32;
                stored.last = id32;
            }
            Entry::Vacant(e) => {
                let row = embed(s);
                debug_assert!(is_unit_norm(&row), "sdl::embed must produce unit-norm vectors");
                e.insert(self.table.store(&row, key, s, id32));
            }
        }
        self.next.push(0);
        Ok(id as u64)
    }

    /// The `k` stored scenarios most similar to `s`, best first, as
    /// `(id, similarity)`.
    ///
    /// Similarity is the dot product of the unit-norm embeddings — their
    /// cosine. `s` need not validate: any scenario embeds. The result is
    /// what scoring every id would give (module docs), and a query
    /// allocates O(k + groups + dim), never O(n).
    ///
    /// # Errors
    ///
    /// None: every scenario is a query.
    pub fn query_scenario(&self, s: &Scenario, k: usize) -> Result<Vec<(u64, f32)>, Infallible> {
        if k == 0 || self.is_empty() {
            return Ok(Vec::new());
        }
        Ok(self.scan(&embed(s), k))
    }

    /// The top `k` for `q` (module docs).
    fn scan(&self, q: &[f32; EMBED_DIM], k: usize) -> Vec<(u64, f32)> {
        let table = &self.table;
        let norm = sum_sq(q).sqrt();
        let mut order: Vec<(f32, &Group)> =
            table.groups.iter().map(|g| (g.bound(q, norm), g)).collect();
        order.sort_by(|a, b| b.0.total_cmp(&a.0));
        let mut visit = Visit::default();
        let mut best = TopK::new(k);
        let (mut columns, mut rows, mut skipped) = (0, 0, 0);
        for (bound, group) in order {
            best.compact();
            if best.rejects_all(group.first, &[bound]) {
                skipped += 1;
                continue;
            }
            let [first, second] = group.key;
            visit.fill(q, |d| q[d] != 0.0 && (d == first || d >= second));
            for &b in &group.blocks {
                let block = &table.blocks[b];
                columns += visit.terms.len() as u64;
                rows += block.rows.len() as u64;
                scan_block(&self.next, block, &visit, &mut best);
            }
        }
        metrics::counter_add("index/columns_visited", columns);
        metrics::counter_add("index/rows_scored", rows);
        metrics::counter_add("index/groups_visited", table.groups.len() as u64 - skipped);
        metrics::counter_add("index/groups_skipped", skipped);
        best.into_sorted().into_iter().map(|(id, score)| (u64::from(id), score)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsdx_sdl::{dot, parse_scenario, rank_order, ActorClause};

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

    /// The visit of the dimensions of `q` that `keep` names.
    fn visit(q: &[f32], keep: impl Fn(usize) -> bool) -> Visit {
        let mut visit = Visit::default();
        visit.fill(q, keep);
        visit
    }

    /// One block of `n` rows from `value`, next to the rows themselves.
    fn block_of(dim: usize, n: usize, value: &mut impl FnMut() -> f32) -> (Block, Vec<Vec<f32>>) {
        let rows: Vec<Vec<f32>> = (0..n).map(|_| (0..dim).map(|_| value()).collect()).collect();
        let mut block = Block::new(dim, 1);
        for (id, r) in rows.iter().enumerate() {
            block.push(r, Lane { first: id as u32, last: id as u32 });
        }
        (block, rows)
    }

    /// The kernel is `dot`'s association whatever it is given: at every
    /// width, and on values whose products and sums are NaN, infinite,
    /// signed zeros or subnormal.
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
                let visit = visit(&q, |_| true);
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
                let (sparse, dense) = (visit(&q, |d| q[d] != 0.0), visit(&q, |_| true));
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

    /// A xorshift draw in `0..n`.
    fn draw(state: &mut u64, n: usize) -> usize {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        (*state >> 32) as usize % n
    }

    /// A random scenario of up to `actors` taxonomy-valid clauses, a
    /// taxonomy-valid one for `actors <= MAX_ACTORS`.
    fn random_scenario(state: &mut u64, actors: usize) -> Scenario {
        let ego = EgoManeuver::from_index(draw(state, EgoManeuver::COUNT));
        let road = RoadKind::from_index(draw(state, RoadKind::COUNT));
        let actors = (0..draw(state, actors + 1))
            .map(|_| {
                let (kind, action) = vocab::EVENT_CLASSES[draw(state, vocab::EVENT_CLASSES.len())];
                let p = draw(state, 2 * Position::COUNT);
                let position = (p < Position::COUNT).then(|| Position::from_index(p));
                ActorClause { kind, action, position }
            })
            .collect();
        Scenario { ego, actors, road }
    }

    fn sdl(text: &str) -> Scenario {
        parse_scenario(text).expect("valid SDL")
    }

    /// Exact reference: every scenario's embedding scored with `dot`, fully
    /// sorted under `rank_order`, truncated to `k`.
    fn reference_scan(q: &Scenario, rows: &[Scenario], k: usize) -> Vec<(u64, f32)> {
        let q = embed(q);
        let mut scored: Vec<(u64, f32)> =
            rows.iter().enumerate().map(|(i, r)| (i as u64, dot(&q, &embed(r)))).collect();
        scored.sort_by(rank_order::<u64>);
        scored.truncate(k);
        scored
    }

    fn bits(hits: &[(u64, f32)]) -> Vec<(u64, u32)> {
        hits.iter().map(|&(id, score)| (id, score.to_bits())).collect()
    }

    fn build(rows: &[Scenario]) -> VectorIndex {
        let mut ix = VectorIndex::default();
        for row in rows {
            ix.push_scenario(row).expect("taxonomy-valid scenario");
        }
        ix
    }

    fn query(ix: &VectorIndex, q: &Scenario, k: usize) -> Vec<(u64, f32)> {
        ix.query_scenario(q, k).expect("SDL query")
    }

    /// Equal keys are equal embedding bits and different keys different
    /// ones, over every ego, road and clause count a validated scenario
    /// has.
    #[test]
    fn a_key_names_exactly_one_embedding() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut by_key = HashMap::new();
        let mut by_row = HashMap::new();
        for _ in 0..20_000 {
            let s = random_scenario(&mut state, MAX_ACTORS);
            let row = embed(&s).map(f32::to_bits);
            assert_eq!(*by_key.entry(key(&s)).or_insert(row), row, "{s}");
            assert_eq!(*by_row.entry(row).or_insert(key(&s)), key(&s), "{s}");
            let group = (key(&s) & ((1 << GROUP_BITS) - 1)) as usize;
            assert_eq!(group, s.ego.index() * RoadKind::COUNT + s.road.index(), "{s}");
        }
        assert!(by_key.len() > 5_000, "{} keys", by_key.len());
    }

    /// What [`Scenario::validate`] rejects is not indexed and leaves the
    /// index as it was; clauses in another order are the same row.
    #[test]
    fn an_invalid_scenario_is_rejected_and_clause_order_shares_a_row() {
        let mut ix = VectorIndex::default();
        let a = sdl("ego cruise; vehicle leading ahead; pedestrian crossing left; road straight");
        let b = sdl("ego cruise; pedestrian crossing left; vehicle leading ahead; road straight");
        assert_eq!(ix.push_scenario(&a), Ok(0));
        let mut crowded = a.clone();
        crowded.actors.extend([crowded.actors[0]; 3]);
        assert_eq!(crowded.actors.len(), MAX_ACTORS + 1);
        assert_eq!(ix.push_scenario(&crowded), Err(ValidateScenarioError::TooManyActors(5)));
        let odd = sdl("ego cruise; pedestrian overtaking; road straight");
        assert!(matches!(
            ix.push_scenario(&odd),
            Err(ValidateScenarioError::InvalidCombination(..))
        ));
        assert_eq!((ix.len(), ix.distinct_len()), (1, 1));
        assert_eq!(ix.push_scenario(&b), Ok(1));
        assert_eq!((ix.len(), ix.distinct_len()), (2, 1));
        // An unvalidated query is still answered, by the same bits as `dot`.
        for q in [&a, &crowded, &odd] {
            assert_eq!(
                bits(&query(&ix, q, 5)),
                bits(&reference_scan(q, &[a.clone(), b.clone()], 5))
            );
        }
    }

    /// A group's bound is at or above, in the total order, the `dot` bits of
    /// every row it holds — for taxonomy-valid queries and crowded ones,
    /// for corpora spread over every group, and for a row alone in its group
    /// queried with itself, where the bound is tight and `dot`'s rounding
    /// can land above the exact value.
    #[test]
    fn a_group_bound_is_at_or_above_every_score_it_stands_for() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut bounded = 0;
        let mut check = |ix: &VectorIndex, q: &Scenario| {
            let q = embed(q);
            let norm = sum_sq(&q).sqrt();
            for group in &ix.table.groups {
                let bound = group.bound(&q, norm);
                bounded += 1;
                for &b in &group.blocks {
                    let block = &ix.table.blocks[b];
                    for lane in 0..block.rows.len() {
                        let row: Vec<f32> =
                            block.cols.chunks_exact(block.stride).map(|c| c[lane]).collect();
                        let score = dot(&q, &row);
                        assert!(
                            score.total_cmp(&bound).is_le(),
                            "score {score:e} above bound {bound:e}, q {q:?}, row {row:?}"
                        );
                    }
                }
            }
        };
        for round in 0..40 {
            let rows: Vec<Scenario> =
                (0..200).map(|_| random_scenario(&mut state, MAX_ACTORS)).collect();
            let ix = build(&rows);
            for _ in 0..6 {
                check(&ix, &random_scenario(&mut state, if round % 2 == 0 { 4 } else { 9 }));
            }
            for q in rows.iter().take(6) {
                check(&ix, q);
            }
        }
        let mut lifted = 0;
        for _ in 0..3000 {
            let s = random_scenario(&mut state, MAX_ACTORS);
            check(&build(std::slice::from_ref(&s)), &s);
            let row = embed(&s);
            let exact: f64 = row.iter().map(|&x| f64::from(x) * f64::from(x)).sum();
            lifted += usize::from(f64::from(dot(&row, &row)) > f64::from(round_up(exact)));
        }
        assert!(bounded > 4000, "the sweep must bound groups, bounded {bounded}");
        assert!(lifted > 10, "rounding must lift some self-scores above the exact bound: {lifted}");
    }

    /// A tie with the k-th found in a group visited later places when its
    /// lowest id is below the k-th's: the cruise-on-curve-left group holds
    /// id 0 alone, and the accelerate-on-straight group, with heavier and
    /// lighter rows beside id 5, has the higher bound and is scanned first,
    /// so id 5 is the k-th when id 0's group comes.
    #[test]
    fn a_later_group_places_a_tie_on_its_lower_id() {
        let rows = [
            "ego cruise; vehicle leading ahead; road curve-left", // id 0: score 0.75
            "ego accelerate; road straight",
            "ego accelerate; cyclist crossing left; cyclist crossing left; \
             cyclist crossing left; cyclist crossing left; road straight",
            "ego accelerate; pedestrian stopped; road straight",
            "ego accelerate; vehicle stopped right; vehicle cut-in right; road straight",
            "ego accelerate; vehicle leading ahead; road straight", // id 5: score 0.75
        ]
        .map(sdl);
        let ix = build(&rows);
        let q = sdl("ego cruise; vehicle leading ahead; road straight");
        let e = embed(&q);
        let [low, high] = [0, 1].map(|g| ix.table.groups[g].bound(&e, sum_sq(&e).sqrt()));
        assert!(high > low, "id 5's group must be visited first: {high:?} vs {low:?}");
        for k in 1..=rows.len() {
            let got = query(&ix, &q, k);
            assert_eq!(got[0], (0, 0.75), "k {k}: the tie goes to the lower id");
            if k > 1 {
                assert_eq!(got[1], (5, 0.75), "k {k}");
            }
            assert_eq!(bits(&got), bits(&reference_scan(&q, &rows, k)), "k {k}");
        }
    }

    /// A group of `n` distinct rows holds fewer than `2n` lanes: its first
    /// block doubles up to a full one, every later block is full but the
    /// last.
    #[test]
    fn a_group_pads_fewer_lanes_than_it_holds_rows() {
        // Distinct slot counts of one ego and road, in draw order.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut seen = HashMap::new();
        let mut group = Vec::new();
        while group.len() < 1100 {
            let mut s = random_scenario(&mut state, MAX_ACTORS);
            (s.ego, s.road) = (EgoManeuver::TurnLeft, RoadKind::Intersection);
            if seen.insert(key(&s), ()).is_none() {
                group.push(s);
            }
        }
        for distinct in [1usize, 2, 3, 9, 511, 512, 513, 1100] {
            let mut ix = VectorIndex::default();
            for i in 0..2 * distinct {
                ix.push_scenario(&group[i % distinct]).expect("taxonomy-valid scenario");
            }
            assert_eq!(ix.distinct_len(), distinct as u64);
            let [group] = &ix.table.groups[..] else { panic!("one group") };
            let blocks: Vec<&Block> = group.blocks.iter().map(|&b| &ix.table.blocks[b]).collect();
            let lanes: usize = blocks.iter().map(|b| b.stride).sum();
            assert!(lanes < 2 * distinct, "{distinct} rows in {lanes} lanes");
            assert_eq!(blocks.len(), distinct.div_ceil(BLOCK_ROWS), "{distinct} rows");
            let (last, full) = blocks.split_last().expect("a block");
            assert!(full.iter().all(|b| b.rows.len() == BLOCK_ROWS && b.stride == BLOCK_ROWS));
            assert!(last.stride >= last.rows.len() && last.cols.len() == EMBED_DIM * last.stride);
        }
    }

    /// A thousand random scenarios spread over all 28 groups keep their
    /// blocks within twice the rows' own bytes.
    #[test]
    fn rows_over_every_group_keep_block_bytes_linear() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let rows: Vec<Scenario> =
            (0..1000).map(|_| random_scenario(&mut state, MAX_ACTORS)).collect();
        let ix = build(&rows);
        assert_eq!(ix.table.groups.len(), GROUPS);
        let block_bytes: usize =
            ix.table.blocks.iter().map(|b| b.cols.len() * size_of::<f32>()).sum();
        let row_bytes = ix.distinct_len() as usize * EMBED_DIM * size_of::<f32>();
        assert!(
            block_bytes <= 2 * row_bytes,
            "{block_bytes} B of blocks for {row_bytes} B of rows"
        );
        for q in rows.iter().step_by(97) {
            for k in [1, 10, 1000] {
                assert_eq!(bits(&query(&ix, q, k)), bits(&reference_scan(q, &rows, k)), "k {k}");
            }
        }
    }

    /// Ten pushes of four scenarios: dense ids, four distinct rows.
    fn tiny() -> (VectorIndex, Vec<Scenario>) {
        let egos = ["cruise", "accelerate", "turn-left", "turn-right"];
        let rows: Vec<Scenario> = (0..10)
            .map(|i| sdl(&format!("ego {}; vehicle leading ahead; road straight", egos[i % 4])))
            .collect();
        let mut ix = VectorIndex::default();
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(ix.push_scenario(row), Ok(i as u64));
        }
        (ix, rows)
    }

    #[test]
    fn ids_are_dense_and_repeats_share_a_row() {
        let (ix, _) = tiny();
        assert_eq!(ix.len(), 10);
        assert_eq!(ix.distinct_len(), 4);
    }

    #[test]
    fn query_finds_exact_match_first_with_id_tie_break() {
        let (ix, rows) = tiny();
        let hits = query(&ix, &rows[2], 3);
        // Rows 2, 6 score 1.0; tie-break keeps ascending ids.
        assert_eq!(hits[0], (2, 1.0));
        assert_eq!(hits[1], (6, 1.0));
    }

    #[test]
    fn empty_index_and_k_zero_answer_empty() {
        let (ix, rows) = tiny();
        assert!(query(&VectorIndex::default(), &rows[0], 5).is_empty());
        assert!(query(&ix, &rows[0], 0).is_empty());
    }
}
