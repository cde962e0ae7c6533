//! Parallel iterators over the index-splittable sources famg uses.
//!
//! Every source (slice, mutable slice, `Range<usize>`, chunked slices) knows
//! its item count and can hand out a *sequential* iterator over any
//! contiguous sub-range of items; adapters (`map`, `filter`, `enumerate`,
//! `zip`, `with_min_len`) compose on top of that. A terminal operation
//! splits the index domain into contiguous blocks, executes the blocks on
//! the pool ([`crate::pool::run_blocks`]), and combines per-block results
//! **in block order**, so:
//!
//! * `collect` preserves sequential order exactly;
//! * `sum` adds items in sequential order (it gathers the ordered item
//!   values first, then folds them on one thread), so floating-point
//!   reductions are bitwise identical for every pool size — the shim's
//!   determinism contract;
//! * `for_each` imposes no order; famg kernels using it write disjoint
//!   locations, which is schedule-independent by construction.
//!
//! The number of blocks adapts to the pool size and the
//! [`IndexedParallelIterator::with_min_len`] hint, but because combination
//! is ordered, block geometry never affects results.

use crate::pool::{run_blocks, Pool};
use std::marker::PhantomData;
use std::ops::Range;

/// Oversubscription factor: blocks per pool thread, so uneven per-item cost
/// (e.g. nnz-skewed rows) load-balances via dynamic block claiming.
const BLOCKS_PER_THREAD: usize = 4;

/// Computes the number of parallel blocks for a domain of `len` items with
/// a minimum block length hint.
fn block_count(len: usize, min_len: usize) -> usize {
    let pool_blocks = Pool::global().n_threads() * BLOCKS_PER_THREAD;
    (len / min_len.max(1)).clamp(1, pool_blocks).min(len).max(1)
}

/// Bounds of block `b` out of `nblocks` over `0..len` (contiguous,
/// near-equal, exhaustive).
fn block_bounds(len: usize, nblocks: usize, b: usize) -> (usize, usize) {
    (len * b / nblocks, len * (b + 1) / nblocks)
}

/// A parallel iterator: a splittable index domain producing `Item`s.
///
/// The `splits`/`seq_range` pair is plumbing — kernel code only uses the
/// provided adapters and terminals, which mirror the rayon API.
pub trait ParallelIterator: Sized + Send + Sync {
    /// Item type produced.
    type Item: Send;
    /// Sequential iterator over one contiguous block of the domain.
    type SeqIter<'a>: Iterator<Item = Self::Item>
    where
        Self: 'a;

    /// Number of splittable units in the domain. For indexed iterators this
    /// equals the item count; `filter` keeps its base's domain and yields
    /// fewer items.
    #[doc(hidden)]
    fn splits(&self) -> usize;

    /// Minimum block length hint (see
    /// [`IndexedParallelIterator::with_min_len`]).
    #[doc(hidden)]
    fn min_len_hint(&self) -> usize {
        1
    }

    /// Returns a sequential iterator over domain units `start..end`.
    ///
    /// # Safety
    ///
    /// Concurrent calls on the same iterator must use disjoint in-bounds
    /// ranges (`0 <= start <= end <= splits()`), and each unit must be
    /// consumed by at most one returned iterator: sources yielding exclusive
    /// references ([`IterMut`], [`ChunksMut`]) hand out `&mut` items that
    /// would alias otherwise. The terminal operations below uphold this by
    /// construction (disjoint block decomposition, each block visited once).
    #[doc(hidden)]
    unsafe fn seq_range(&self, start: usize, end: usize) -> Self::SeqIter<'_>;

    /// Maps each item through `f`.
    fn map<F, R>(self, f: F) -> Map<Self, F>
    where
        F: Fn(Self::Item) -> R + Sync + Send,
        R: Send,
    {
        Map { base: self, f }
    }

    /// Keeps only items for which `p` returns `true`. The result is no
    /// longer indexed (it cannot be zipped or enumerated), matching rayon.
    fn filter<P>(self, p: P) -> Filter<Self, P>
    where
        P: Fn(&Self::Item) -> bool + Sync + Send,
    {
        Filter { base: self, p }
    }

    /// Runs `op` on every item, in parallel. No ordering is guaranteed.
    fn for_each<OP>(self, op: OP)
    where
        OP: Fn(Self::Item) + Sync + Send,
    {
        let len = self.splits();
        if len == 0 {
            return;
        }
        let nblocks = block_count(len, self.min_len_hint());
        run_blocks(nblocks, &|b| {
            let (s, e) = block_bounds(len, nblocks, b);
            // SAFETY: blocks partition 0..len disjointly; each is claimed
            // and consumed exactly once by `run_blocks`.
            for item in unsafe { self.seq_range(s, e) } {
                op(item);
            }
        });
    }

    /// Collects into `C` preserving sequential order: block results are
    /// concatenated by block index, so the output is identical to the
    /// sequential collect for every pool size.
    fn collect<C>(self) -> C
    where
        C: FromIterator<Self::Item>,
    {
        let parts: Vec<Vec<Self::Item>> = self
            .collect_blocks()
            .into_iter()
            .map(|m| m.into_inner().unwrap())
            .collect();
        let left = parts.iter().map(Vec::len).sum();
        Concat {
            parts: parts.into_iter(),
            part: Vec::new().into_iter(),
            left,
        }
        .collect()
    }

    /// Sums the items **in sequential order**: the ordered item values are
    /// gathered first, then folded on the calling thread. This makes
    /// floating-point sums bitwise independent of the pool size, at the cost
    /// of buffering one value per item — famg only sums per-chunk partials,
    /// so the buffer stays tiny.
    fn sum<S>(self) -> S
    where
        S: std::iter::Sum<Self::Item>,
    {
        let parts = self.collect_blocks();
        parts
            .into_iter()
            .flat_map(|m| m.into_inner().unwrap())
            .sum()
    }

    /// Counts the items (after any `filter`).
    fn count(self) -> usize {
        let len = self.splits();
        if len == 0 {
            return 0;
        }
        let nblocks = block_count(len, self.min_len_hint());
        let totals: Vec<crate::sync::Mutex<usize>> =
            (0..nblocks).map(|_| crate::sync::Mutex::new(0)).collect();
        let totals_ref = &totals;
        run_blocks(nblocks, &|b| {
            let (s, e) = block_bounds(len, nblocks, b);
            // SAFETY: blocks partition 0..len disjointly; each is claimed
            // and consumed exactly once by `run_blocks`.
            let c = unsafe { self.seq_range(s, e) }.count();
            *totals_ref[b].lock().unwrap() = c;
        });
        totals.into_iter().map(|m| m.into_inner().unwrap()).sum()
    }

    /// Gathers every block's items into per-block vectors (block index →
    /// items in sequential order). Each slot's mutex is locked exactly once,
    /// by whichever pool thread claims that block.
    #[doc(hidden)]
    fn collect_blocks(&self) -> Vec<crate::sync::Mutex<Vec<Self::Item>>> {
        let len = self.splits();
        let nblocks = if len == 0 {
            0
        } else {
            block_count(len, self.min_len_hint())
        };
        let parts: Vec<crate::sync::Mutex<Vec<Self::Item>>> = (0..nblocks)
            .map(|_| crate::sync::Mutex::new(Vec::new()))
            .collect();
        let parts_ref = &parts;
        run_blocks(nblocks, &|b| {
            let (s, e) = block_bounds(len, nblocks, b);
            // SAFETY: blocks partition 0..len disjointly; each is claimed
            // and consumed exactly once by `run_blocks`.
            let items: Vec<Self::Item> = unsafe { self.seq_range(s, e) }.collect();
            *parts_ref[b].lock().unwrap() = items;
        });
        parts
    }
}

/// The blocks' items in block order, with their exact count as the size
/// hint, so a collecting container allocates once.
struct Concat<T> {
    parts: std::vec::IntoIter<Vec<T>>,
    part: std::vec::IntoIter<T>,
    left: usize,
}

impl<T> Iterator for Concat<T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        loop {
            if let Some(item) = self.part.next() {
                self.left -= 1;
                return Some(item);
            }
            self.part = self.parts.next()?.into_iter();
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

/// Marker + adapters for iterators whose domain units correspond 1:1 to
/// items at stable indices (everything except `filter`): only these can be
/// zipped, enumerated, or given split hints — mirroring rayon's
/// `IndexedParallelIterator`.
pub trait IndexedParallelIterator: ParallelIterator {
    /// Pairs items at equal indices; the result is as long as the shorter
    /// input.
    fn zip<B>(self, other: B) -> Zip<Self, B>
    where
        B: IndexedParallelIterator,
    {
        Zip { a: self, b: other }
    }

    /// Attaches each item's sequential index.
    fn enumerate(self) -> Enumerate<Self> {
        Enumerate { base: self }
    }

    /// Hints that parallel blocks should hold at least `min` items — use
    /// where per-item work is tiny and the default split would be
    /// pathological (block bookkeeping rivaling the work itself).
    fn with_min_len(self, min: usize) -> MinLen<Self> {
        MinLen { base: self, min }
    }
}

// ---------------------------------------------------------------------------
// Sources
// ---------------------------------------------------------------------------

/// Shared-slice parallel iterator (`par_iter` on `[T]` / `Vec<T>`).
pub struct Iter<'data, T> {
    pub(crate) slice: &'data [T],
}

impl<'data, T: Sync> ParallelIterator for Iter<'data, T> {
    type Item = &'data T;
    type SeqIter<'a>
        = std::slice::Iter<'data, T>
    where
        Self: 'a;

    fn splits(&self) -> usize {
        self.slice.len()
    }

    unsafe fn seq_range(&self, start: usize, end: usize) -> Self::SeqIter<'_> {
        self.slice[start..end].iter()
    }
}
impl<T: Sync> IndexedParallelIterator for Iter<'_, T> {}

/// Exclusive-slice parallel iterator (`par_iter_mut` on `[T]` / `Vec<T>`).
///
/// Holds the slice as a raw pointer so disjoint blocks can be handed to
/// different pool threads through a shared reference.
pub struct IterMut<'data, T> {
    ptr: *mut T,
    len: usize,
    _marker: PhantomData<&'data mut [T]>,
}

impl<'data, T: Send> IterMut<'data, T> {
    pub(crate) fn new(slice: &'data mut [T]) -> Self {
        IterMut {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            _marker: PhantomData,
        }
    }
}

// SAFETY: the pointer originates from an exclusive borrow held for 'data,
// and `seq_range`'s contract guarantees no two threads receive overlapping
// element ranges, so sending/sharing the handle cannot create aliased `&mut`.
unsafe impl<T: Send> Send for IterMut<'_, T> {}
// SAFETY: as above — concurrent `seq_range` calls are disjoint by contract.
unsafe impl<T: Send> Sync for IterMut<'_, T> {}

impl<'data, T: Send> ParallelIterator for IterMut<'data, T> {
    type Item = &'data mut T;
    type SeqIter<'a>
        = std::slice::IterMut<'data, T>
    where
        Self: 'a;

    fn splits(&self) -> usize {
        self.len
    }

    unsafe fn seq_range(&self, start: usize, end: usize) -> Self::SeqIter<'_> {
        debug_assert!(start <= end && end <= self.len);
        // SAFETY: `start..end` is in bounds of the original slice, and the
        // caller guarantees concurrent ranges are disjoint, so this `&mut`
        // sub-slice aliases nothing.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(start), end - start) }.iter_mut()
    }
}
impl<T: Send> IndexedParallelIterator for IterMut<'_, T> {}

/// Parallel iterator over `Range<usize>` (`(0..n).into_par_iter()`).
pub struct RangeIter {
    start: usize,
    end: usize,
}

impl ParallelIterator for RangeIter {
    type Item = usize;
    type SeqIter<'a>
        = Range<usize>
    where
        Self: 'a;

    fn splits(&self) -> usize {
        self.end - self.start
    }

    unsafe fn seq_range(&self, start: usize, end: usize) -> Self::SeqIter<'_> {
        self.start + start..self.start + end
    }
}
impl IndexedParallelIterator for RangeIter {}

/// Chunked shared-slice iterator (`par_chunks`).
pub struct Chunks<'data, T> {
    pub(crate) slice: &'data [T],
    pub(crate) size: usize,
}

impl<'data, T: Sync> ParallelIterator for Chunks<'data, T> {
    type Item = &'data [T];
    type SeqIter<'a>
        = std::slice::Chunks<'data, T>
    where
        Self: 'a;

    fn splits(&self) -> usize {
        self.slice.len().div_ceil(self.size)
    }

    unsafe fn seq_range(&self, start: usize, end: usize) -> Self::SeqIter<'_> {
        let lo = start * self.size;
        let hi = (end * self.size).min(self.slice.len());
        self.slice[lo..hi].chunks(self.size)
    }
}
impl<T: Sync> IndexedParallelIterator for Chunks<'_, T> {}

/// Chunked exclusive-slice iterator (`par_chunks_mut`).
pub struct ChunksMut<'data, T> {
    ptr: *mut T,
    len: usize,
    size: usize,
    _marker: PhantomData<&'data mut [T]>,
}

impl<'data, T: Send> ChunksMut<'data, T> {
    pub(crate) fn new(slice: &'data mut [T], size: usize) -> Self {
        ChunksMut {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            size,
            _marker: PhantomData,
        }
    }
}

// SAFETY: same argument as [`IterMut`] — chunk ranges handed to concurrent
// `seq_range` calls are disjoint by the trait contract.
unsafe impl<T: Send> Send for ChunksMut<'_, T> {}
// SAFETY: as above.
unsafe impl<T: Send> Sync for ChunksMut<'_, T> {}

impl<'data, T: Send> ParallelIterator for ChunksMut<'data, T> {
    type Item = &'data mut [T];
    type SeqIter<'a>
        = std::slice::ChunksMut<'data, T>
    where
        Self: 'a;

    fn splits(&self) -> usize {
        self.len.div_ceil(self.size)
    }

    unsafe fn seq_range(&self, start: usize, end: usize) -> Self::SeqIter<'_> {
        let lo = start * self.size;
        let hi = (end * self.size).min(self.len);
        debug_assert!(lo <= hi);
        // SAFETY: chunk index ranges map to disjoint in-bounds element
        // ranges (chunks are aligned multiples of `size`), and the caller
        // guarantees concurrent chunk ranges are disjoint.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(lo), hi - lo) }.chunks_mut(self.size)
    }
}
impl<T: Send> IndexedParallelIterator for ChunksMut<'_, T> {}

// ---------------------------------------------------------------------------
// Adapters
// ---------------------------------------------------------------------------

/// Mapping adapter; see [`ParallelIterator::map`].
pub struct Map<I, F> {
    base: I,
    f: F,
}

impl<I, F, R> ParallelIterator for Map<I, F>
where
    I: ParallelIterator,
    F: Fn(I::Item) -> R + Sync + Send,
    R: Send,
{
    type Item = R;
    type SeqIter<'a>
        = std::iter::Map<I::SeqIter<'a>, &'a F>
    where
        Self: 'a;

    fn splits(&self) -> usize {
        self.base.splits()
    }

    fn min_len_hint(&self) -> usize {
        self.base.min_len_hint()
    }

    unsafe fn seq_range(&self, start: usize, end: usize) -> Self::SeqIter<'_> {
        // SAFETY: same domain and range as the caller's request, forwarded.
        unsafe { self.base.seq_range(start, end) }.map(&self.f)
    }
}
impl<I, F, R> IndexedParallelIterator for Map<I, F>
where
    I: IndexedParallelIterator,
    F: Fn(I::Item) -> R + Sync + Send,
    R: Send,
{
}

/// Filtering adapter; see [`ParallelIterator::filter`]. Not indexed: items
/// no longer sit at stable domain indices.
pub struct Filter<I, P> {
    base: I,
    p: P,
}

impl<I, P> ParallelIterator for Filter<I, P>
where
    I: ParallelIterator,
    P: Fn(&I::Item) -> bool + Sync + Send,
{
    type Item = I::Item;
    type SeqIter<'a>
        = std::iter::Filter<I::SeqIter<'a>, &'a P>
    where
        Self: 'a;

    fn splits(&self) -> usize {
        self.base.splits()
    }

    fn min_len_hint(&self) -> usize {
        self.base.min_len_hint()
    }

    unsafe fn seq_range(&self, start: usize, end: usize) -> Self::SeqIter<'_> {
        // SAFETY: same domain and range as the caller's request, forwarded.
        unsafe { self.base.seq_range(start, end) }.filter(&self.p)
    }
}

/// Enumerating adapter; see [`IndexedParallelIterator::enumerate`].
pub struct Enumerate<I> {
    base: I,
}

impl<I> ParallelIterator for Enumerate<I>
where
    I: IndexedParallelIterator,
{
    type Item = (usize, I::Item);
    type SeqIter<'a>
        = std::iter::Zip<Range<usize>, I::SeqIter<'a>>
    where
        Self: 'a;

    fn splits(&self) -> usize {
        self.base.splits()
    }

    fn min_len_hint(&self) -> usize {
        self.base.min_len_hint()
    }

    unsafe fn seq_range(&self, start: usize, end: usize) -> Self::SeqIter<'_> {
        // SAFETY: same domain and range as the caller's request, forwarded.
        (start..end).zip(unsafe { self.base.seq_range(start, end) })
    }
}
impl<I: IndexedParallelIterator> IndexedParallelIterator for Enumerate<I> {}

/// Index-aligned pairing adapter; see [`IndexedParallelIterator::zip`].
pub struct Zip<A, B> {
    a: A,
    b: B,
}

impl<A, B> ParallelIterator for Zip<A, B>
where
    A: IndexedParallelIterator,
    B: IndexedParallelIterator,
{
    type Item = (A::Item, B::Item);
    type SeqIter<'a>
        = std::iter::Zip<A::SeqIter<'a>, B::SeqIter<'a>>
    where
        Self: 'a;

    fn splits(&self) -> usize {
        self.a.splits().min(self.b.splits())
    }

    fn min_len_hint(&self) -> usize {
        self.a.min_len_hint().max(self.b.min_len_hint())
    }

    unsafe fn seq_range(&self, start: usize, end: usize) -> Self::SeqIter<'_> {
        // SAFETY: `end <= min(a, b) splits`, so the range is in bounds for
        // both sides; disjointness is forwarded to both.
        unsafe {
            self.a
                .seq_range(start, end)
                .zip(self.b.seq_range(start, end))
        }
    }
}
impl<A, B> IndexedParallelIterator for Zip<A, B>
where
    A: IndexedParallelIterator,
    B: IndexedParallelIterator,
{
}

/// Split-hint adapter; see [`IndexedParallelIterator::with_min_len`].
pub struct MinLen<I> {
    base: I,
    min: usize,
}

impl<I> ParallelIterator for MinLen<I>
where
    I: IndexedParallelIterator,
{
    type Item = I::Item;
    type SeqIter<'a>
        = I::SeqIter<'a>
    where
        Self: 'a;

    fn splits(&self) -> usize {
        self.base.splits()
    }

    fn min_len_hint(&self) -> usize {
        self.base.min_len_hint().max(self.min)
    }

    unsafe fn seq_range(&self, start: usize, end: usize) -> Self::SeqIter<'_> {
        // SAFETY: same domain and range as the caller's request, forwarded.
        unsafe { self.base.seq_range(start, end) }
    }
}
impl<I: IndexedParallelIterator> IndexedParallelIterator for MinLen<I> {}

// ---------------------------------------------------------------------------
// Entry traits (the `prelude` surface)
// ---------------------------------------------------------------------------

/// `into_par_iter()` on owned/index domains. Restricted to the ranges famg
/// actually iterates so that non-rayon-compatible code cannot accidentally
/// compile against the shim (swap-compat with the registry crate).
pub trait IntoParallelIterator {
    /// Parallel iterator type produced.
    type Iter: ParallelIterator<Item = Self::Item>;
    /// Item type produced.
    type Item: Send;
    /// Converts `self` into a parallel iterator.
    fn into_par_iter(self) -> Self::Iter;
}

impl IntoParallelIterator for Range<usize> {
    type Iter = RangeIter;
    type Item = usize;
    fn into_par_iter(self) -> RangeIter {
        RangeIter {
            start: self.start,
            end: self.end,
        }
    }
}

/// `par_iter()` — shared-reference parallel iteration over slices and
/// vectors (the rayon surface famg uses; deliberately not a blanket impl).
pub trait IntoParallelRefIterator<'data> {
    /// Parallel iterator type produced.
    type Iter: ParallelIterator<Item = Self::Item>;
    /// Item type produced (a shared reference).
    type Item: Send + 'data;
    /// Borrows `self` as a parallel iterator.
    fn par_iter(&'data self) -> Self::Iter;
}

impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for [T] {
    type Iter = Iter<'data, T>;
    type Item = &'data T;
    fn par_iter(&'data self) -> Iter<'data, T> {
        Iter { slice: self }
    }
}

impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for Vec<T> {
    type Iter = Iter<'data, T>;
    type Item = &'data T;
    fn par_iter(&'data self) -> Iter<'data, T> {
        Iter { slice: self }
    }
}

/// `par_iter_mut()` — exclusive-reference parallel iteration over slices
/// and vectors.
pub trait IntoParallelRefMutIterator<'data> {
    /// Parallel iterator type produced.
    type Iter: ParallelIterator<Item = Self::Item>;
    /// Item type produced (an exclusive reference).
    type Item: Send + 'data;
    /// Exclusively borrows `self` as a parallel iterator.
    fn par_iter_mut(&'data mut self) -> Self::Iter;
}

impl<'data, T: Send + 'data> IntoParallelRefMutIterator<'data> for [T] {
    type Iter = IterMut<'data, T>;
    type Item = &'data mut T;
    fn par_iter_mut(&'data mut self) -> IterMut<'data, T> {
        IterMut::new(self)
    }
}

impl<'data, T: Send + 'data> IntoParallelRefMutIterator<'data> for Vec<T> {
    type Iter = IterMut<'data, T>;
    type Item = &'data mut T;
    fn par_iter_mut(&'data mut self) -> IterMut<'data, T> {
        IterMut::new(self)
    }
}
