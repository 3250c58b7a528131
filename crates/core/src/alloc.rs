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
//! The allocator also keeps **per-cell write counters**: the translator
//! and the emission replay report each op's destination writes through
//! [`RramAllocator::note_writes`] as the target makes them, so the counters
//! are the emitted program's endurance profile and the wear-budget strategy
//! levels the target's own writes while the program is still being built.

use std::collections::VecDeque;

use plim::RamAddr;

use crate::lifetime::LifetimeClass;
use crate::options::AllocatorStrategy;

/// The reuse-policy layer: one free-cell pool per [`AllocatorStrategy`].
///
/// Every variant stores released cells and serves them back under its own
/// discipline; a strategy that needs more context receives it at pop time
/// (the lifetime hint of the requesting value, the per-cell write counters).
/// Adding a strategy means adding a variant here — the exhaustive matches
/// below make the compiler point at every site that must learn about it.
#[derive(Debug, Clone)]
enum FreePool {
    /// Oldest-released-first (the paper's endurance-aware rotation).
    Fifo(VecDeque<RamAddr>),
    /// Most-recently-released-first.
    Lifo(Vec<RamAddr>),
    /// Released cells are parked and never served again.
    Fresh(Vec<RamAddr>),
    /// Served least-written-first by the write counters at request time,
    /// blind to the writes the new value will take.
    WearLeveled(Vec<RamAddr>),
    /// Two FIFO bins keyed by the lifetime class a cell last held.
    Binned {
        short: VecDeque<RamAddr>,
        long: VecDeque<RamAddr>,
    },
}

impl FreePool {
    fn new(strategy: AllocatorStrategy) -> Self {
        match strategy {
            AllocatorStrategy::Fifo => FreePool::Fifo(VecDeque::new()),
            AllocatorStrategy::Lifo => FreePool::Lifo(Vec::new()),
            AllocatorStrategy::Fresh => FreePool::Fresh(Vec::new()),
            AllocatorStrategy::WearLeveled => FreePool::WearLeveled(Vec::new()),
            AllocatorStrategy::LifetimeBinned => FreePool::Binned {
                short: VecDeque::new(),
                long: VecDeque::new(),
            },
        }
    }

    /// Returns a reusable cell for a value of class `hint`, or `None` when
    /// the caller must allocate a fresh one.
    fn pop(&mut self, hint: LifetimeClass, writes: &[u64]) -> Option<RamAddr> {
        match self {
            FreePool::Fifo(pool) => pool.pop_front(),
            FreePool::Lifo(pool) => pool.pop(),
            FreePool::Fresh(_) => None,
            FreePool::WearLeveled(pool) => {
                let best = pool
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, addr)| (writes[addr.index()], addr.index()))?
                    .0;
                // Order within the pool is irrelevant — only the counters
                // decide — so a swap_remove keeps the scan linear.
                Some(pool.swap_remove(best))
            }
            FreePool::Binned { short, long } => {
                let (preferred, fallback) = match hint {
                    LifetimeClass::Short => (short, long),
                    LifetimeClass::Long => (long, short),
                };
                preferred.pop_front().or_else(|| fallback.pop_front())
            }
        }
    }

    fn push(&mut self, addr: RamAddr, class: LifetimeClass) {
        match self {
            FreePool::Fifo(pool) => pool.push_back(addr),
            FreePool::Lifo(pool) | FreePool::Fresh(pool) | FreePool::WearLeveled(pool) => {
                pool.push(addr);
            }
            FreePool::Binned { short, long } => match class {
                LifetimeClass::Short => short.push_back(addr),
                LifetimeClass::Long => long.push_back(addr),
            },
        }
    }

    /// Calls `pair` on the addresses of `self` and `other` position by
    /// position, while it returns `true`; `false` when the pools differ in
    /// shape or do not serve cells by position (`fresh` never serves one,
    /// `wear` serves by write count).
    fn pair(&self, other: &FreePool, mut pair: impl FnMut(RamAddr, RamAddr) -> bool) -> bool {
        fn zip<'a>(
            mine: impl ExactSizeIterator<Item = &'a RamAddr>,
            theirs: impl ExactSizeIterator<Item = &'a RamAddr>,
            pair: &mut impl FnMut(RamAddr, RamAddr) -> bool,
        ) -> bool {
            mine.len() == theirs.len() && mine.zip(theirs).all(|(&a, &b)| pair(a, b))
        }
        match (self, other) {
            (FreePool::Fifo(mine), FreePool::Fifo(theirs)) => {
                zip(mine.iter(), theirs.iter(), &mut pair)
            }
            (FreePool::Lifo(mine), FreePool::Lifo(theirs)) => {
                zip(mine.iter(), theirs.iter(), &mut pair)
            }
            (
                FreePool::Binned { short, long },
                FreePool::Binned {
                    short: their_short,
                    long: their_long,
                },
            ) => {
                zip(short.iter(), their_short.iter(), &mut pair)
                    && zip(long.iter(), their_long.iter(), &mut pair)
            }
            _ => false,
        }
    }

    /// This pool with every address `a` renamed to `image(a)`.
    fn renamed(&self, image: impl Fn(RamAddr) -> RamAddr) -> FreePool {
        let vec = |pool: &Vec<RamAddr>| pool.iter().map(|&a| image(a)).collect();
        let deque = |pool: &VecDeque<RamAddr>| pool.iter().map(|&a| image(a)).collect();
        match self {
            FreePool::Fifo(pool) => FreePool::Fifo(deque(pool)),
            FreePool::Lifo(pool) => FreePool::Lifo(vec(pool)),
            FreePool::Fresh(pool) => FreePool::Fresh(vec(pool)),
            FreePool::WearLeveled(pool) => FreePool::WearLeveled(vec(pool)),
            FreePool::Binned { short, long } => FreePool::Binned {
                short: deque(short),
                long: deque(long),
            },
        }
    }

    fn len(&self) -> usize {
        match self {
            FreePool::Fifo(pool) => pool.len(),
            FreePool::Lifo(pool) | FreePool::Fresh(pool) | FreePool::WearLeveled(pool) => {
                pool.len()
            }
            FreePool::Binned { short, long } => short.len() + long.len(),
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
        let addr = self.pool.pop(hint, &self.writes).unwrap_or_else(|| {
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
        self.pool.push(addr, self.class[addr.index()]);
    }

    /// Records one write to a cell. The counters feed the wear-budget
    /// strategy and the endurance report.
    pub fn note_write(&mut self, addr: RamAddr) {
        self.note_writes(addr, 1);
    }

    /// Records `count` writes to a cell: what one op of the target writes
    /// to its destination (one for RM3 and Ambit, up to two for MAGIC).
    pub fn note_writes(&mut self, addr: RamAddr, count: u64) {
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

    /// Whether the pool serves cells by their position in it — every
    /// strategy but wear leveling, which serves by write count — so that a
    /// [`Renaming`] can be read off two pools.
    pub(crate) fn serves_by_position(&self) -> bool {
        !matches!(self.pool, FreePool::WearLeveled(_))
    }

    /// The renaming of `other`'s addresses under which this allocator, from
    /// now on, serves the same requests and releases as `other` does, or
    /// `None` when there is none.
    ///
    /// `live` fills in, for each of `other`'s live cells, the address this
    /// allocator holds the same value in (it returns `false` when some
    /// value is not live here). The free pools are then read off position
    /// by position. They must agree in shape and order, the renaming must
    /// be one-to-one, and where the pool reads lifetime classes, the live
    /// cells' classes must agree. A pool that never serves a cell again
    /// (`fresh`) is not compared, and its cells stay unmapped. Both
    /// allocators then hand out the same number of fresh cells, so
    /// addresses past `other`'s fresh counter shift by the difference of
    /// the two counters.
    pub(crate) fn renaming(
        &self,
        other: &RramAllocator,
        live: impl FnOnce(&mut [u32]) -> bool,
    ) -> Option<Renaming> {
        let parks = matches!(self.pool, FreePool::Fresh(_));
        if self.live_count != other.live_count
            || !parks
                && (self.next_fresh != other.next_fresh || self.pool.len() != other.pool.len())
        {
            return None;
        }
        let mut below = vec![UNSET; other.live.len()];
        if !live(&mut below) {
            return None;
        }
        let paired = parks
            || self.pool.pair(&other.pool, |mine, theirs| {
                let slot = &mut below[theirs.index()];
                *slot == UNSET && {
                    *slot = mine.0;
                    true
                }
            });
        let binned = matches!(self.pool, FreePool::Binned { .. });
        let mut seen = vec![false; self.live.len()];
        let valid = paired
            && below.iter().enumerate().all(|(b, &a)| {
                if a == UNSET {
                    return parks && !other.live[b];
                }
                !std::mem::replace(&mut seen[a as usize], true)
                    && (!binned || !other.live[b] || self.class[a as usize] == other.class[b])
            });
        valid.then_some(Renaming {
            below,
            fresh: self.next_fresh,
        })
    }

    /// This allocator — at or past `base`, where the allocator `cut` was
    /// `base` under `renaming` — as `cut` reaches the same point: addresses
    /// renamed, the cells `cut` had parked unchanged, and the writes this
    /// allocator recorded since `base` added to `cut`'s counts.
    pub(crate) fn adopted(
        &self,
        base: &RramAllocator,
        cut: &RramAllocator,
        renaming: &Renaming,
    ) -> Self {
        let n = renaming
            .image(self.live.len())
            .expect("addresses past the fresh counter are renamed");
        let mut live = cut.live.clone();
        let mut class = cut.class.clone();
        let mut writes = cut.writes.clone();
        live.resize(n, false);
        class.resize(n, LifetimeClass::Short);
        writes.resize(n, 0);
        for b in 0..self.live.len() {
            if let Some(a) = renaming.image(b) {
                live[a] = self.live[b];
                class[a] = self.class[b];
                writes[a] = self.writes[b] - base.writes.get(b).copied().unwrap_or(0)
                    + cut.writes.get(a).copied().unwrap_or(0);
            }
        }
        let image = |a: RamAddr| {
            RamAddr(renaming.image(a.index()).expect("a pooled cell is renamed") as u32)
        };
        let pool = match (&self.pool, &base.pool, &cut.pool) {
            // Parked cells stay parked: keep the cut's, then park what
            // this allocator parked since `base`.
            (FreePool::Fresh(pool), FreePool::Fresh(parked), FreePool::Fresh(cut_parked)) => {
                let later = pool[parked.len()..].iter().map(|&a| image(a));
                FreePool::Fresh(cut_parked.iter().copied().chain(later).collect())
            }
            _ => self.pool.renamed(image),
        };
        RramAllocator {
            pool,
            next_fresh: n as u32,
            live,
            live_count: self.live_count,
            class,
            writes,
        }
    }
}

/// An address no [`Renaming`] maps.
const UNSET: u32 = u32::MAX;

/// A renaming of one allocator's cell addresses onto another's, under which
/// both serve the same requests and releases alike (see
/// [`RramAllocator::renaming`]).
#[derive(Debug, Clone)]
pub(crate) struct Renaming {
    /// The image of each address below the renamed allocator's fresh
    /// counter; [`UNSET`] for a parked cell no request is served again.
    below: Vec<u32>,
    /// The image's fresh counter, the image of the renamed one's.
    fresh: u32,
}

impl Renaming {
    /// The image of address `b`, `None` for a parked cell.
    pub(crate) fn image(&self, b: usize) -> Option<usize> {
        match self.below.get(b) {
            Some(&a) => (a != UNSET).then_some(a as usize),
            None => Some(b - self.below.len() + self.fresh as usize),
        }
    }

    /// This renaming after `first`, as one renaming of the addresses of an
    /// allocator with `len` cells that `first` renames.
    pub(crate) fn after(&self, first: &Renaming, len: usize) -> Renaming {
        let image = |b: usize| first.image(b).and_then(|a| self.image(a));
        let fresh = image(len).expect("addresses past the fresh counter are renamed");
        Renaming {
            below: (0..len)
                .map(|b| image(b).map_or(UNSET, |a| a as u32))
                .collect(),
            fresh: fresh as u32,
        }
    }

    /// The image's fresh counter minus the renamed allocator's.
    pub(crate) fn shift(&self) -> i64 {
        i64::from(self.fresh) - self.below.len() as i64
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
