//! Page-mapping flash translation layer with greedy garbage collection.
//!
//! Physical layout: every chip owns a pool of blocks of
//! [`SsdConfig::pages_per_block`](crate::SsdConfig::pages_per_block) pages. Host writes allocate pages from
//! the chip's open block (chips are chosen round-robin per write for
//! striping); overwrites invalidate the previous physical page. When a
//! chip's free-block count drops to the GC threshold, the block with the
//! fewest valid pages is elected victim, its valid pages are migrated
//! (each one a real read+program on the chip), and the block is erased.
//!
//! The FTL is pure bookkeeping: it answers "which chip serves this read",
//! "where does this write land" and "what GC work is now owed"; the SSD
//! model turns the owed work into timed chip jobs.

use sim_engine::FxHashMap;

/// A physical page address.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Ppn {
    /// Flat chip index.
    pub chip: usize,
    /// Block index within the chip.
    pub block: usize,
    /// Page index within the block.
    pub page: usize,
}

/// GC work owed after an allocation: migrate `moved_pages` valid pages
/// and erase one block on `chip`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GcWork {
    /// Chip the work happens on.
    pub chip: usize,
    /// Valid pages migrated (each costs a read + a program).
    pub moved_pages: usize,
}

#[derive(Clone, Debug, Default)]
struct Block {
    /// Next unwritten page index (== pages_per_block when full).
    cursor: usize,
    /// Which LPN each written page holds; `None` = invalidated. Empty
    /// until the block is first programmed, so building a device costs
    /// nothing per block ([`Ftl::place`] allocates it).
    holder: Vec<Option<u64>>,
    valid: usize,
}

impl Block {
    fn erased(&mut self) {
        self.cursor = 0;
        self.holder.iter_mut().for_each(|h| *h = None);
        self.valid = 0;
    }
}

#[derive(Clone, Debug)]
struct ChipState {
    blocks: Vec<Block>,
    open: usize,
    free: Vec<usize>,
}

/// The translation layer.
#[derive(Debug)]
pub struct Ftl {
    pages_per_block: usize,
    chips: Vec<ChipState>,
    map: FxHashMap<u64, Ppn>,
    /// Round-robin write-striping cursor.
    write_cursor: usize,
    /// Free-block low-watermark per chip that triggers GC.
    gc_free_blocks: usize,
    // statistics
    host_programs: u64,
    gc_moves: u64,
    erases: u64,
}

impl Ftl {
    /// Build an FTL: `total_pages` spread evenly over `n_chips` chips in
    /// blocks of `pages_per_block` pages.
    ///
    /// # Panics
    /// Panics unless every chip gets at least `gc_free_blocks + 2`
    /// blocks (otherwise GC could never keep up).
    pub fn new(
        total_pages: u64,
        n_chips: usize,
        pages_per_block: usize,
        gc_free_blocks: usize,
    ) -> Self {
        assert!(n_chips > 0 && pages_per_block > 0);
        let blocks_per_chip = (total_pages as usize / n_chips / pages_per_block).max(1);
        assert!(
            blocks_per_chip >= gc_free_blocks + 2,
            "chip needs at least {} blocks, got {blocks_per_chip}",
            gc_free_blocks + 2
        );
        let chips = (0..n_chips)
            .map(|_| ChipState {
                blocks: vec![Block::default(); blocks_per_chip],
                open: 0,
                free: (1..blocks_per_chip).rev().collect(),
            })
            .collect();
        Ftl {
            pages_per_block,
            chips,
            map: FxHashMap::default(),
            write_cursor: 0,
            gc_free_blocks,
            host_programs: 0,
            gc_moves: 0,
            erases: 0,
        }
    }

    /// Chip that serves a read of `lpn`: where the page lives, or a
    /// deterministic hash for never-written addresses.
    pub fn read_chip(&self, lpn: u64) -> usize {
        match self.map.get(&lpn) {
            Some(p) => p.chip,
            None => (lpn as usize) % self.chips.len(),
        }
    }

    /// Allocate a physical page for a (re)write of `lpn`. Invalidates
    /// the previous copy. Returns the new page and any GC work now owed
    /// on that chip.
    pub fn allocate(&mut self, lpn: u64) -> (Ppn, Option<GcWork>) {
        // Invalidate the old copy.
        if let Some(old) = self.map.remove(&lpn) {
            let b = &mut self.chips[old.chip].blocks[old.block];
            if b.holder[old.page] == Some(lpn) {
                b.holder[old.page] = None;
                b.valid -= 1;
            }
        }
        let chip_idx = self.write_cursor % self.chips.len();
        self.write_cursor += 1;
        let ppn = self.place(chip_idx, lpn);
        self.map.insert(lpn, ppn);
        self.host_programs += 1;
        let gc = self.maybe_gc(chip_idx);
        (ppn, gc)
    }

    /// Write a page onto a specific chip's open block.
    fn place(&mut self, chip_idx: usize, lpn: u64) -> Ppn {
        let ppb = self.pages_per_block;
        let chip = &mut self.chips[chip_idx];
        if chip.blocks[chip.open].cursor >= ppb {
            let next = chip
                .free
                .pop()
                .expect("GC watermark must keep a free block available");
            chip.open = next;
        }
        let block = &mut chip.blocks[chip.open];
        if block.holder.is_empty() {
            block.holder = vec![None; ppb];
        }
        let page = block.cursor;
        block.cursor += 1;
        block.holder[page] = Some(lpn);
        block.valid += 1;
        Ppn {
            chip: chip_idx,
            block: chip.open,
            page,
        }
    }

    /// Run greedy GC on `chip` if its free pool is at the watermark.
    fn maybe_gc(&mut self, chip_idx: usize) -> Option<GcWork> {
        if self.chips[chip_idx].free.len() > self.gc_free_blocks {
            return None;
        }
        // Victim: fewest valid pages among full, non-open blocks.
        let victim = {
            let chip = &self.chips[chip_idx];
            let ppb = self.pages_per_block;
            (0..chip.blocks.len())
                .filter(|&b| b != chip.open && chip.blocks[b].cursor >= ppb)
                .min_by_key(|&b| chip.blocks[b].valid)?
        };
        // Migrate the victim's valid pages into the open block chain.
        let survivors: Vec<u64> = self.chips[chip_idx].blocks[victim]
            .holder
            .iter()
            .flatten()
            .copied()
            .collect();
        let moved = survivors.len();
        // Invalidate in place, erase, then re-place survivors.
        self.chips[chip_idx].blocks[victim].erased();
        self.chips[chip_idx].free.push(victim);
        self.erases += 1;
        for lpn in survivors {
            let ppn = self.place(chip_idx, lpn);
            self.map.insert(lpn, ppn);
        }
        self.gc_moves += moved as u64;
        Some(GcWork {
            chip: chip_idx,
            moved_pages: moved,
        })
    }

    /// `(host programs, GC page moves, block erases)`.
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.host_programs, self.gc_moves, self.erases)
    }

    /// Write amplification factor so far (1.0 when GC never ran).
    pub fn write_amplification(&self) -> f64 {
        if self.host_programs == 0 {
            1.0
        } else {
            (self.host_programs + self.gc_moves) as f64 / self.host_programs as f64
        }
    }

    /// Number of mapped logical pages.
    pub fn mapped(&self) -> usize {
        self.map.len()
    }

    /// Internal invariant check: every mapped LPN points at a page that
    /// holds it, per-block valid counts agree with holders, and a block
    /// is either never programmed (no holder, nothing written) or has a
    /// full-size holder covering its written pages.
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        for (lpn, p) in &self.map {
            assert_eq!(
                self.chips[p.chip].blocks[p.block].holder[p.page],
                Some(*lpn),
                "map entry {lpn} points at a page not holding it"
            );
        }
        for chip in &self.chips {
            for b in &chip.blocks {
                if b.holder.is_empty() {
                    assert_eq!((b.cursor, b.valid), (0, 0), "unprogrammed block in use");
                } else {
                    assert_eq!(b.holder.len(), self.pages_per_block);
                    assert!(b.cursor <= self.pages_per_block);
                    assert!(b.holder[b.cursor..].iter().all(Option::is_none));
                }
                assert_eq!(b.valid, b.holder.iter().flatten().count());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Ftl {
        // 4 chips x 8 blocks x 16 pages = 512 pages.
        Ftl::new(512, 4, 16, 2)
    }

    #[test]
    fn reads_of_unwritten_pages_hash_deterministically() {
        let f = small();
        assert_eq!(f.read_chip(0), 0);
        assert_eq!(f.read_chip(5), 1);
        assert_eq!(f.read_chip(5), f.read_chip(5));
    }

    #[test]
    fn write_then_read_goes_to_the_same_chip() {
        let mut f = small();
        let (ppn, _) = f.allocate(42);
        assert_eq!(f.read_chip(42), ppn.chip);
        f.check_invariants();
    }

    #[test]
    fn overwrite_invalidates_previous_copy() {
        let mut f = small();
        let (a, _) = f.allocate(7);
        let (b, _) = f.allocate(7);
        assert_ne!(a, b, "new physical page on overwrite");
        assert_eq!(f.mapped(), 1);
        f.check_invariants();
    }

    #[test]
    fn blocks_are_built_lazily_and_reused_after_erase() {
        let mut f = small();
        let programmed = |f: &Ftl| {
            f.chips
                .iter()
                .flat_map(|c| &c.blocks)
                .filter(|b| !b.holder.is_empty())
                .count()
        };
        f.check_invariants();
        assert_eq!(programmed(&f), 0, "a fresh device allocates no holders");
        // Chip 0's blocks in the order they were opened.
        let mut opened = vec![f.chips[0].open];
        let mut saw_unprogrammed = false;
        let mut saw_reopened = false;
        for i in 0..2000u64 {
            f.allocate(i % 40);
            f.check_invariants();
            let chip = &f.chips[0];
            saw_unprogrammed |= chip.blocks.iter().any(|b| b.holder.is_empty());
            if *opened.last().unwrap() != chip.open {
                saw_reopened |= opened.contains(&chip.open);
                opened.push(chip.open);
            }
        }
        assert!(
            saw_unprogrammed,
            "invariants checked beside never-programmed blocks"
        );
        assert!(
            saw_reopened,
            "an erased block was reopened and programmed again"
        );
    }

    #[test]
    fn striping_spreads_writes() {
        let mut f = small();
        let chips: Vec<usize> = (0..8).map(|i| f.allocate(i).0.chip).collect();
        // Round-robin: 0,1,2,3,0,1,2,3.
        assert_eq!(chips, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn gc_reclaims_overwritten_blocks() {
        let mut f = small();
        // Hammer a small hot set so most pages invalidate quickly.
        for i in 0..2000u64 {
            let (_, _gc) = f.allocate(i % 8);
            f.check_invariants();
        }
        let (host, moves, erases) = f.counters();
        assert_eq!(host, 2000);
        assert!(erases > 0, "GC must have erased blocks");
        // A hot set of 8 LPNs means victims are almost empty: write
        // amplification stays low.
        assert!(
            f.write_amplification() < 1.3,
            "WA {} too high for a hot-set overwrite pattern",
            f.write_amplification()
        );
        let _ = moves;
        assert_eq!(f.mapped(), 8);
    }

    #[test]
    fn gc_moves_valid_pages_of_mixed_blocks() {
        let mut f = small();
        // Fill with unique pages (all stay valid), then overwrite every
        // other page so each block ends up half-valid — GC victims must
        // migrate their surviving pages.
        for i in 0..256u64 {
            f.allocate(i);
        }
        for i in 0..128u64 {
            f.allocate(i * 2);
        }
        for i in 0..64u64 {
            f.allocate(i * 2); // keep pressure on until GC fires
        }
        f.check_invariants();
        let (_, moves, erases) = f.counters();
        assert!(erases > 0);
        assert!(moves > 0, "mixed blocks force real migrations");
        assert_eq!(f.mapped(), 256);
        // Every mapped page still readable on its recorded chip.
        for i in 0..256u64 {
            let _ = f.read_chip(i);
        }
    }

    #[test]
    fn sustained_random_writes_never_exhaust_free_blocks() {
        let mut f = Ftl::new(1024, 2, 16, 2);
        for i in 0..20_000u64 {
            f.allocate(i % 300);
        }
        f.check_invariants();
        assert!(f.write_amplification() >= 1.0);
    }

    #[test]
    #[should_panic(expected = "blocks")]
    fn too_small_device_rejected() {
        let _ = Ftl::new(32, 4, 16, 2); // 0-1 blocks per chip
    }
}
