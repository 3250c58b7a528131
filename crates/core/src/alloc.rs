//! Work-RRAM allocation (§4.2.3 of the paper, extended).
//!
//! The allocator exposes the paper's two-operation interface — *request* an
//! RRAM ready for use and *release* one that is no longer needed — backed by
//! a pluggable free-cell pool (the private `FreePool` enum, one variant per
//! [`AllocatorStrategy`]). The paper populates the pool
//! FIFO so that the oldest released cell is reused first, resting recently
//! used cells as long as possible; the extended strategies reuse the same
//! pool interface to level wear explicitly (least-written cell first) or to
//! segregate cells by the expected lifetime of the value they receive.
//!
//! The allocator also keeps **per-cell write counters**: the emission
//! replay reports each op's destination writes through
//! [`RramAllocator::note_writes`] as the target makes them, so the counters
//! are the emitted program's endurance profile and the wear-budget strategy
//! levels the target's own writes while the program is still being built.
//!
//! The `-O2` trial scorer (`ir::emit`) forks the committed replay at each
//! trial edit, and every pool rule it needs lives here too. An
//! `AllocDelta` is an allocator forked from a base [`RramAllocator`] that
//! stores only what it changed there. Every pool serves the base's entries
//! as a prefix of some order — its queue, its stack from the top, each
//! lifetime bin, or the write counts, which cannot change while a cell is
//! pooled — so the delta keeps how far it served and the cells it released
//! since, in a pool of its own. Two deltas over one base tell when they
//! serve every later request alike under a renaming of addresses, and
//! which addresses that renaming pairs.

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, VecDeque};
use std::ops::Bound::{Excluded, Unbounded};

use plim::RamAddr;

use crate::lifetime::LifetimeClass;
use crate::options::AllocatorStrategy;

/// The reuse-policy layer: one free-cell pool per [`AllocatorStrategy`].
///
/// Every variant stores released cells and serves them back under its own
/// discipline; a strategy that needs more context receives it at push or
/// pop time (the lifetime class of the cell, its write count, the lifetime
/// hint of the requesting value). Adding a strategy means adding a variant
/// here — the exhaustive matches below make the compiler point at every
/// site that must learn about it.
#[derive(Debug, Clone)]
enum FreePool {
    /// Oldest-released-first (the paper's endurance-aware rotation).
    Fifo(VecDeque<RamAddr>),
    /// Most-recently-released-first: pushed and served at the back.
    Lifo(VecDeque<RamAddr>),
    /// Released cells are parked and never served again; only their
    /// number is kept.
    Fresh(usize),
    /// Served least-written-first by the write counts at request time,
    /// blind to the writes the new value will take: keyed by (write count,
    /// address), which cannot change while the cell is pooled, since only
    /// live cells take writes.
    WearLeveled(BTreeSet<(u64, u32)>),
    /// The cells an [`AllocDelta`] of a wear-leveled pool released, served
    /// as [`FreePool::WearLeveled`] serves them, from a heap, since nothing
    /// reads them in order.
    WearReleased(BinaryHeap<Reverse<(u64, u32)>>),
    /// Two FIFO bins, indexed by [`bin`], of the lifetime class a cell
    /// last held.
    Binned([VecDeque<RamAddr>; 2]),
}

/// The bin of a [`FreePool::Binned`] pool that holds cells of `class`.
fn bin(class: LifetimeClass) -> usize {
    match class {
        LifetimeClass::Short => 0,
        LifetimeClass::Long => 1,
    }
}

impl FreePool {
    fn new(strategy: AllocatorStrategy) -> Self {
        match strategy {
            AllocatorStrategy::Fifo => FreePool::Fifo(VecDeque::new()),
            AllocatorStrategy::Lifo => FreePool::Lifo(VecDeque::new()),
            AllocatorStrategy::Fresh => FreePool::Fresh(0),
            AllocatorStrategy::WearLeveled => FreePool::WearLeveled(BTreeSet::new()),
            AllocatorStrategy::LifetimeBinned => {
                FreePool::Binned([VecDeque::new(), VecDeque::new()])
            }
        }
    }

    /// An empty pool for the cells an [`AllocDelta`] releases.
    fn released(strategy: AllocatorStrategy) -> Self {
        match strategy {
            AllocatorStrategy::WearLeveled => FreePool::WearReleased(BinaryHeap::new()),
            strategy => FreePool::new(strategy),
        }
    }

    /// Returns a reusable cell for a value of class `hint`, or `None` when
    /// the caller must allocate a fresh one.
    fn pop(&mut self, hint: LifetimeClass) -> Option<RamAddr> {
        match self {
            FreePool::Fifo(pool) => pool.pop_front(),
            FreePool::Lifo(pool) => pool.pop_back(),
            FreePool::Fresh(_) => None,
            FreePool::WearLeveled(pool) => pool.pop_first().map(|(_, a)| RamAddr(a)),
            FreePool::WearReleased(pool) => pool.pop().map(|Reverse((_, a))| RamAddr(a)),
            FreePool::Binned(bins) => {
                let preferred = bin(hint);
                bins[preferred]
                    .pop_front()
                    .or_else(|| bins[1 - preferred].pop_front())
            }
        }
    }

    /// Pools `addr`, which last held a value of class `class` and has taken
    /// `writes` writes.
    fn push(&mut self, addr: RamAddr, class: LifetimeClass, writes: u64) {
        match self {
            FreePool::Fifo(pool) | FreePool::Lifo(pool) => pool.push_back(addr),
            FreePool::Fresh(parked) => *parked += 1,
            FreePool::WearLeveled(pool) => {
                pool.insert((writes, addr.0));
            }
            FreePool::WearReleased(pool) => pool.push(Reverse((writes, addr.0))),
            FreePool::Binned(bins) => bins[bin(class)].push_back(addr),
        }
    }

    fn clear(&mut self) {
        match self {
            FreePool::Fifo(pool) | FreePool::Lifo(pool) => pool.clear(),
            FreePool::Fresh(parked) => *parked = 0,
            FreePool::WearLeveled(pool) => pool.clear(),
            FreePool::WearReleased(pool) => pool.clear(),
            FreePool::Binned(bins) => bins.iter_mut().for_each(VecDeque::clear),
        }
    }

    fn len(&self) -> usize {
        match self {
            FreePool::Fifo(pool) | FreePool::Lifo(pool) => pool.len(),
            FreePool::Fresh(parked) => *parked,
            FreePool::WearLeveled(pool) => pool.len(),
            FreePool::WearReleased(pool) => pool.len(),
            FreePool::Binned(bins) => bins.iter().map(VecDeque::len).sum(),
        }
    }

    /// The bins of a pool that serves cells by their position in it, each
    /// in the order the pool stores it; none for `fresh`, which never
    /// serves a cell, and `wear`, which serves by write count.
    fn bins(&self) -> &[VecDeque<RamAddr>] {
        match self {
            FreePool::Fifo(pool) | FreePool::Lifo(pool) => std::slice::from_ref(pool),
            FreePool::Binned(bins) => bins,
            FreePool::Fresh(_) | FreePool::WearLeveled(_) | FreePool::WearReleased(_) => &[],
        }
    }
}

/// Free-pool allocator for work RRAM cells.
///
/// The number of *fresh* cells ever handed out is the program's RRAM count
/// (`#R` in Table 1 of the paper).
///
/// # Examples
///
/// ```
/// use plim_compiler::{alloc::RramAllocator, AllocatorStrategy};
///
/// let mut alloc = RramAllocator::new(AllocatorStrategy::Fifo);
/// let a = alloc.request();
/// let b = alloc.request();
/// alloc.release(a);
/// alloc.release(b);
/// assert_eq!(alloc.request(), a); // oldest released first
/// assert_eq!(alloc.num_allocated(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct RramAllocator {
    pool: FreePool,
    next_fresh: u32,
    live: Vec<bool>,
    live_count: usize,
    /// Lifetime class each cell was last requested under (drives the
    /// binned pool's release bookkeeping).
    class: Vec<LifetimeClass>,
    /// Writes recorded per cell via [`RramAllocator::note_write`].
    writes: Vec<u64>,
}

impl RramAllocator {
    /// Creates an allocator with the given reuse strategy.
    pub fn new(strategy: AllocatorStrategy) -> Self {
        RramAllocator {
            pool: FreePool::new(strategy),
            next_fresh: 0,
            live: Vec::new(),
            live_count: 0,
            class: Vec::new(),
            writes: Vec::new(),
        }
    }

    /// Returns an RRAM cell that is ready for use, reusing a released cell
    /// if the strategy allows, otherwise allocating a fresh one. Equivalent
    /// to [`RramAllocator::request_with_hint`] with a
    /// [`LifetimeClass::Short`] hint.
    pub fn request(&mut self) -> RamAddr {
        self.request_with_hint(LifetimeClass::Short)
    }

    /// Like [`RramAllocator::request`], with a hint describing how long the
    /// value placed in the cell is expected to live. Only lifetime-aware
    /// strategies consult the hint; for the others the call is identical to
    /// `request`.
    pub fn request_with_hint(&mut self, hint: LifetimeClass) -> RamAddr {
        let addr = self.pool.pop(hint).unwrap_or_else(|| {
            let addr = RamAddr(self.next_fresh);
            self.next_fresh += 1;
            self.live.push(false);
            self.class.push(LifetimeClass::Short);
            self.writes.push(0);
            addr
        });
        debug_assert!(!self.live[addr.index()], "allocator handed out a live cell");
        self.live[addr.index()] = true;
        self.live_count += 1;
        self.class[addr.index()] = hint;
        addr
    }

    /// Returns a cell to the free pool.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the cell was not live (double release).
    pub fn release(&mut self, addr: RamAddr) {
        debug_assert!(self.live[addr.index()], "double release of {addr}");
        self.live[addr.index()] = false;
        self.live_count -= 1;
        let a = addr.index();
        self.pool.push(addr, self.class[a], self.writes[a]);
    }

    /// Records one write to a cell. The counters feed the wear-budget
    /// strategy and the endurance report.
    pub fn note_write(&mut self, addr: RamAddr) {
        self.note_writes(addr, 1);
    }

    /// Records `count` writes to a cell: what one op of the target writes
    /// to its destination (one for RM3 and Ambit, up to two for MAGIC).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the cell is not live: the wear-leveled
    /// pool keys its cells by the write counts they were released with.
    pub fn note_writes(&mut self, addr: RamAddr, count: u64) {
        debug_assert!(self.live[addr.index()], "write to free cell {addr}");
        self.writes[addr.index()] += count;
    }

    /// Per-cell write counts recorded so far, indexed by cell.
    pub fn write_counts(&self) -> &[u64] {
        &self.writes
    }

    /// The highest per-cell write count recorded so far (0 for an empty
    /// program) — the endurance-limiting cell's wear.
    pub fn max_writes(&self) -> u64 {
        self.writes.iter().copied().max().unwrap_or(0)
    }

    /// Total number of distinct cells ever allocated (the `#R` metric).
    pub fn num_allocated(&self) -> u32 {
        self.next_fresh
    }

    /// Number of cells currently live (requested and not released).
    pub fn num_live(&self) -> usize {
        self.live_count
    }

    /// Number of cells currently on the free pool (for the fresh-only
    /// strategy this counts parked, never-reused cells).
    pub fn num_free(&self) -> usize {
        self.pool.len()
    }

    /// Whether a request, with `allocated` cells handed out and `live` of
    /// them live, takes a fresh cell under this allocator's strategy: when
    /// the pool is empty, and always where it parks released cells.
    pub(crate) fn takes_fresh(&self, allocated: u32, live: usize) -> bool {
        matches!(self.pool, FreePool::Fresh(_)) || allocated as usize == live
    }

    /// Whether two replays of this allocator's strategy, with `mine` and
    /// `theirs` cells handed out, may serve every later request alike under
    /// a renaming of addresses: never under wear leveling, whose choices
    /// read every write count, which no renaming keeps; under `fresh`
    /// whatever the counters, since the cells either hands out later shift
    /// by their difference; under every other strategy only with equal
    /// counters.
    pub(crate) fn may_rename(&self, mine: u32, theirs: u32) -> bool {
        match self.pool {
            FreePool::WearLeveled(_) => false,
            FreePool::Fresh(_) => true,
            _ => mine == theirs,
        }
    }
}

/// An allocator forked from a base [`RramAllocator`] that stores only what
/// it changed there: per address its lifetime class and write count,
/// copied from the base when it first changes either and stamped with the
/// fork's generation; how many entries of each base pool bin it served,
/// which are a prefix of the bin in serving order (under wear leveling,
/// the next entry it would serve); and the cells it released since, in a
/// pool of the base's strategy (under wear leveling, a heap). It serves
/// requests exactly as the base would if replayed on. A fork forgets every
/// change in O(1) plus the cells it released.
#[derive(Debug)]
pub(crate) struct AllocDelta {
    generation: u32,
    cells: Vec<(u32, LifetimeClass, u64)>,
    /// The addresses it requested, released or wrote, each once.
    touched: Vec<u32>,
    served: [usize; 2],
    next: Option<(u64, u32)>,
    released: FreePool,
    next_fresh: u32,
    live_count: usize,
}

impl AllocDelta {
    /// A delta of an allocator with the given strategy; fork it before use.
    pub(crate) fn new(strategy: AllocatorStrategy) -> Self {
        AllocDelta {
            generation: 0,
            cells: Vec::new(),
            touched: Vec::new(),
            served: [0; 2],
            next: None,
            released: FreePool::released(strategy),
            next_fresh: 0,
            live_count: 0,
        }
    }

    /// Forks `base`, forgetting every change.
    pub(crate) fn fork(&mut self, base: &RramAllocator) {
        if self.generation == u32::MAX {
            self.cells.fill((0, LifetimeClass::Short, 0));
            self.generation = 0;
        }
        self.generation += 1;
        self.touched.clear();
        self.served = [0; 2];
        self.next = match &base.pool {
            FreePool::WearLeveled(pool) => pool.first().copied(),
            _ => None,
        };
        self.released.clear();
        self.next_fresh = base.next_fresh;
        self.live_count = base.live_count;
    }

    /// See [`RramAllocator::num_allocated`].
    pub(crate) fn num_allocated(&self) -> u32 {
        self.next_fresh
    }

    /// See [`RramAllocator::num_live`].
    pub(crate) fn num_live(&self) -> usize {
        self.live_count
    }

    /// The addresses it requested, released or wrote since the fork, each
    /// once.
    pub(crate) fn touched(&self) -> &[u32] {
        &self.touched
    }

    /// The write count of address `a`.
    pub(crate) fn writes(&self, base: &RramAllocator, a: usize) -> u64 {
        match self.cells.get(a) {
            Some(&(stamp, _, count)) if stamp == self.generation => count,
            _ => base.writes.get(a).copied().unwrap_or(0),
        }
    }

    /// The lifetime class address `a` was last requested under.
    fn class(&self, base: &RramAllocator, a: usize) -> LifetimeClass {
        match self.cells.get(a) {
            Some(&(stamp, class, _)) if stamp == self.generation => class,
            _ => base.class.get(a).copied().unwrap_or_default(),
        }
    }

    /// The class and write count of `a`, to change.
    fn entry(&mut self, base: &RramAllocator, a: RamAddr) -> &mut (u32, LifetimeClass, u64) {
        if self.cells.len() <= a.index() {
            self.cells
                .resize(a.index() + 1, (0, LifetimeClass::Short, 0));
        }
        let entry = &mut self.cells[a.index()];
        if entry.0 != self.generation {
            let class = base.class.get(a.index()).copied().unwrap_or_default();
            let count = base.writes.get(a.index()).copied().unwrap_or(0);
            *entry = (self.generation, class, count);
            self.touched.push(a.0);
        }
        entry
    }

    /// See [`RramAllocator::request_with_hint`].
    pub(crate) fn request_with_hint(
        &mut self,
        base: &RramAllocator,
        hint: LifetimeClass,
    ) -> RamAddr {
        let addr = self.pop(base, hint).unwrap_or_else(|| {
            self.next_fresh += 1;
            RamAddr(self.next_fresh - 1)
        });
        self.entry(base, addr).1 = hint;
        self.live_count += 1;
        addr
    }

    /// See [`RramAllocator::release`].
    pub(crate) fn release(&mut self, base: &RramAllocator, addr: RamAddr) {
        let &mut (_, class, writes) = self.entry(base, addr);
        self.released.push(addr, class, writes);
        self.live_count -= 1;
    }

    /// Records `count` writes to a cell, as [`RramAllocator::note_writes`]
    /// does; returns the cell's write count now.
    pub(crate) fn note_writes(&mut self, base: &RramAllocator, addr: RamAddr, count: u64) -> u64 {
        let entry = self.entry(base, addr);
        entry.2 += count;
        entry.2
    }

    /// The cell the pool serves a value of class `hint`, as the base pool
    /// holding its unserved entries and then the released ones would.
    fn pop(&mut self, base: &RramAllocator, hint: LifetimeClass) -> Option<RamAddr> {
        fn front(bin: &VecDeque<RamAddr>, served: &mut usize) -> Option<RamAddr> {
            let a = *bin.get(*served)?;
            *served += 1;
            Some(a)
        }
        let served = &mut self.served;
        match (&base.pool, &mut self.released) {
            (FreePool::Fifo(pool), FreePool::Fifo(released)) => {
                front(pool, &mut served[0]).or_else(|| released.pop_front())
            }
            (FreePool::Lifo(pool), FreePool::Lifo(released)) => released.pop_back().or_else(|| {
                let a = *pool.get(pool.len().checked_sub(served[0] + 1)?)?;
                served[0] += 1;
                Some(a)
            }),
            (FreePool::Fresh(_), FreePool::Fresh(_)) => None,
            (FreePool::WearLeveled(pool), FreePool::WearReleased(released)) => {
                match (self.next, released.peek()) {
                    (Some(next), mine) if mine.is_none_or(|&Reverse(mine)| next < mine) => {
                        self.next = pool.range((Excluded(next), Unbounded)).next().copied();
                        Some(RamAddr(next.1))
                    }
                    _ => released.pop().map(|Reverse((_, a))| RamAddr(a)),
                }
            }
            (FreePool::Binned(bins), FreePool::Binned(released)) => {
                let preferred = bin(hint);
                [preferred, 1 - preferred].into_iter().find_map(|i| {
                    front(&bins[i], &mut served[i]).or_else(|| released[i].pop_front())
                })
            }
            _ => unreachable!("a delta forks a pool of its own strategy"),
        }
    }

    /// Bin `i` of the pool in the order the pool stores it: the base bin's
    /// entries not yet served, then the cells released since.
    fn bin<'a>(&'a self, base: &'a RramAllocator, i: usize) -> impl Iterator<Item = RamAddr> + 'a {
        let pool = &base.pool.bins()[i];
        let unserved = match base.pool {
            FreePool::Lifo(_) => pool.range(..pool.len() - self.served[i]),
            _ => pool.range(self.served[i]..),
        };
        unserved.chain(&self.released.bins()[i]).copied()
    }

    fn bin_len(&self, base: &RramAllocator, i: usize) -> usize {
        base.pool.bins()[i].len() - self.served[i] + self.released.bins()[i].len()
    }

    /// Whether this replay, from here on, serves every request and release
    /// as `other`, forked from the same base, does under a renaming of
    /// addresses, given that their live cells pair up one to one and hold
    /// values of the same lifetime classes (see
    /// [`AllocDelta::classes_agree`]): the renaming pairs the bins of the
    /// two pools position by position, and shifts the addresses past this
    /// replay's fresh counter by the difference of the two counters (which
    /// only `fresh` lets differ). The cells a `fresh` pool parks are never
    /// served again and stay unmapped.
    pub(crate) fn renames(&self, other: &AllocDelta, base: &RramAllocator) -> bool {
        let bins = base.pool.bins().len();
        self.live_count == other.live_count
            && base.may_rename(self.next_fresh, other.next_fresh)
            && (0..bins).all(|i| self.bin_len(base, i) == other.bin_len(base, i))
    }

    /// Whether the cells at `mine` here and at `theirs` in `other` were
    /// requested under the same lifetime class, where the pool reads
    /// classes (`binned`): the bin each goes to on release.
    pub(crate) fn classes_agree(
        &self,
        other: &AllocDelta,
        base: &RramAllocator,
        (mine, theirs): (RamAddr, RamAddr),
    ) -> bool {
        !matches!(base.pool, FreePool::Binned(_))
            || self.class(base, mine.index()) == other.class(base, theirs.index())
    }

    /// Calls `pair(mine, theirs)` on the entries of this pool and of
    /// `other`'s, forked from the same base, position by position in each
    /// bin: the pairs [`AllocDelta::renames`]'s renaming may move. Unless
    /// `whole`, it leaves out the base entries both still hold, which pair
    /// with themselves.
    pub(crate) fn pair(
        &self,
        other: &AllocDelta,
        base: &RramAllocator,
        whole: bool,
        mut pair: impl FnMut(RamAddr, RamAddr),
    ) {
        for (i, pool) in base.pool.bins().iter().enumerate() {
            let shared = if !whole && self.served[i] == other.served[i] {
                pool.len() - self.served[i]
            } else {
                0
            };
            for (mine, theirs) in self.bin(base, i).zip(other.bin(base, i)).skip(shared) {
                pair(mine, theirs);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_returns_oldest_release() {
        let mut alloc = RramAllocator::new(AllocatorStrategy::Fifo);
        let a = alloc.request();
        let b = alloc.request();
        let c = alloc.request();
        alloc.release(b);
        alloc.release(a);
        alloc.release(c);
        assert_eq!(alloc.request(), b);
        assert_eq!(alloc.request(), a);
        assert_eq!(alloc.request(), c);
        assert_eq!(alloc.num_allocated(), 3);
    }

    #[test]
    fn lifo_returns_newest_release() {
        let mut alloc = RramAllocator::new(AllocatorStrategy::Lifo);
        let a = alloc.request();
        let b = alloc.request();
        alloc.release(a);
        alloc.release(b);
        assert_eq!(alloc.request(), b);
        assert_eq!(alloc.request(), a);
        assert_eq!(alloc.num_allocated(), 2);
    }

    #[test]
    fn fresh_never_reuses() {
        let mut alloc = RramAllocator::new(AllocatorStrategy::Fresh);
        let a = alloc.request();
        alloc.release(a);
        let b = alloc.request();
        assert_ne!(a, b);
        assert_eq!(alloc.num_allocated(), 2);
        assert_eq!(alloc.num_free(), 1);
    }

    #[test]
    fn wear_leveled_serves_the_least_written_cell() {
        let mut alloc = RramAllocator::new(AllocatorStrategy::WearLeveled);
        let a = alloc.request();
        let b = alloc.request();
        let c = alloc.request();
        alloc.note_write(a);
        alloc.note_write(a);
        alloc.note_write(b);
        alloc.note_write(b);
        alloc.note_write(b);
        alloc.note_write(c);
        alloc.release(a);
        alloc.release(b);
        alloc.release(c);
        // c has 1 write, a has 2, b has 3.
        assert_eq!(alloc.request(), c);
        assert_eq!(alloc.request(), a);
        assert_eq!(alloc.request(), b);
        assert_eq!(alloc.num_allocated(), 3);
        assert_eq!(alloc.write_counts(), &[2, 3, 1]);
        assert_eq!(alloc.max_writes(), 3);
    }

    #[test]
    fn wear_leveled_breaks_write_ties_by_address() {
        let mut alloc = RramAllocator::new(AllocatorStrategy::WearLeveled);
        let a = alloc.request();
        let b = alloc.request();
        alloc.release(b);
        alloc.release(a);
        assert_eq!(alloc.request(), a, "equal wear serves the lowest address");
    }

    #[test]
    fn binned_pool_prefers_the_matching_lifetime_bin() {
        let mut alloc = RramAllocator::new(AllocatorStrategy::LifetimeBinned);
        let s = alloc.request_with_hint(LifetimeClass::Short);
        let l = alloc.request_with_hint(LifetimeClass::Long);
        alloc.release(s);
        alloc.release(l);
        // A long-lived request takes the cell that last held a long value.
        assert_eq!(alloc.request_with_hint(LifetimeClass::Long), l);
        // The short bin still serves short requests.
        assert_eq!(alloc.request_with_hint(LifetimeClass::Short), s);
        alloc.release(s);
        // Cross-bin fallback instead of a fresh allocation.
        assert_eq!(alloc.request_with_hint(LifetimeClass::Long), s);
        assert_eq!(alloc.num_allocated(), 2);
    }

    #[test]
    fn live_accounting() {
        let mut alloc = RramAllocator::new(AllocatorStrategy::Fifo);
        let a = alloc.request();
        let _b = alloc.request();
        assert_eq!(alloc.num_live(), 2);
        alloc.release(a);
        assert_eq!(alloc.num_live(), 1);
        assert_eq!(alloc.num_free(), 1);
        let _ = alloc.request();
        assert_eq!(alloc.num_live(), 2);
        assert_eq!(alloc.num_free(), 0);
    }

    #[test]
    #[should_panic(expected = "double release")]
    #[cfg(debug_assertions)]
    fn double_release_is_detected() {
        let mut alloc = RramAllocator::new(AllocatorStrategy::Fifo);
        let a = alloc.request();
        alloc.release(a);
        alloc.release(a);
    }
}
