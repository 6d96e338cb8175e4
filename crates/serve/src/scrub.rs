//! Idle-time integrity: bounded scrub passes over tracked blocks.
//!
//! Whenever a worker finds no ready batch, it verifies **one** bounded run
//! of [`SLICE_BLOCKS`] integrity blocks per idle tick — so scrubbing never
//! delays a burst by more than one slice's digest walk — cycling over every
//! tracked block so each is revisited. A block whose recomputed digest
//! diverges from the incrementally maintained one holds resident bit-rot
//! (something wrote behind the store path); the machine restores it from
//! its committed image, which rot never reaches.
//!
//! The idle scrub does not close the window between rot and the next
//! batch: under load a batch can run before the scrub reaches the block.
//! What keeps that batch correct is the transaction bracket — a commit is
//! certified by the footprint scrub over every block the attempt stored to
//! or read, so rot in a block the batch touches fails the attempt (and is
//! repaired from the image before the retry), while rot in a block it does
//! not touch cannot reach its result and waits here for repair.

use crate::queue::StatCells;
use fol_vm::Machine;
use std::sync::atomic::Ordering;

/// Blocks verified per idle slice (`SLICE_BLOCKS × BLOCK_WORDS` words): a
/// few microseconds, well under one batch.
pub(crate) const SLICE_BLOCKS: usize = 128;

/// Cursor over a worker's tracked blocks.
#[derive(Default)]
pub(crate) struct ScrubCursor {
    next: usize,
}

impl ScrubCursor {
    /// Verifies the next [`SLICE_BLOCKS`] tracked blocks, repairing any
    /// mismatch from the committed image. Returns whether rot was found
    /// (and repaired).
    pub(crate) fn slice(&mut self, m: &mut Machine, stats: &StatCells) -> bool {
        let pass = m.scrub_blocks(self.next, SLICE_BLOCKS);
        self.next = pass.next;
        if pass.checked == 0 {
            return false;
        }
        stats.scrub_slices.fetch_add(1, Ordering::Relaxed);
        if pass.repaired == 0 {
            return false;
        }
        stats.rot_detected.fetch_add(1, Ordering::Relaxed);
        stats.rot_repaired.fetch_add(1, Ordering::Relaxed);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fol_vm::{CostModel, BLOCK_WORDS};

    #[test]
    fn clean_regions_pass_and_cursor_advances() {
        let mut m = Machine::new(CostModel::unit());
        let a = m.alloc(8, "a");
        let b = m.alloc(8, "b");
        m.track_region(a);
        m.track_region(b);
        let stats = StatCells::default();
        let mut cur = ScrubCursor::default();
        for _ in 0..4 {
            assert!(!cur.slice(&mut m, &stats));
        }
        assert_eq!(stats.scrub_slices.load(Ordering::Relaxed), 4);
        assert_eq!(stats.rot_detected.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn rot_is_detected_and_repaired_from_the_committed_image() {
        let mut m = Machine::new(CostModel::unit());
        let a = m.alloc(8, "a");
        m.vfill(a, 7);
        m.track_region(a);
        // Flip a bit behind the store path.
        let addr = a.at(3);
        let w = m.mem().read(addr);
        m.mem_mut().write(addr, w ^ 1);
        let stats = StatCells::default();
        let mut cur = ScrubCursor::default();
        assert!(cur.slice(&mut m, &stats));
        assert_eq!(m.mem().read(addr), 7, "contents repaired");
        assert!(m.scrub().is_ok(), "digests recomputed");
        assert_eq!(stats.rot_repaired.load(Ordering::Relaxed), 1);
        // The next slice over the same region is clean.
        assert!(!cur.slice(&mut m, &stats));
    }

    #[test]
    fn a_slice_is_bounded_and_the_sweep_reaches_every_block() {
        let mut m = Machine::new(CostModel::unit());
        let big = m.alloc(3 * SLICE_BLOCKS * BLOCK_WORDS, "big");
        m.track_region(big);
        let last = big.at(big.len() - 1);
        m.mem_mut().write(last, 1);
        let stats = StatCells::default();
        let mut cur = ScrubCursor::default();
        assert!(!cur.slice(&mut m, &stats), "the first slice stops short");
        assert!(!cur.slice(&mut m, &stats));
        assert!(cur.slice(&mut m, &stats), "the third slice reaches the end");
        assert_eq!(m.mem().read(last), 0);
    }
}
