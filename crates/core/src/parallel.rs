//! Executors that apply a unit process over a FOL decomposition.
//!
//! FOL's contract is exactly what a parallel executor needs: within a round
//! every element targets a *distinct* cell, so the round's unit processes may
//! run in any order or concurrently; rounds must run one after another
//! (§3.2, "processing conditions"). [`apply_rounds`] runs each round
//! sequentially (the order-agnostic baseline); [`par_apply_rounds`] runs each
//! round with real data parallelism on scoped OS threads — the
//! data-parallel-machine half of the paper's claim, on modern hardware.
//!
//! Both executors stay in safe Rust: for each round the targeted cells are
//! collected as disjoint `&mut` borrows by a single pass over the data slice,
//! which the within-round distinctness guarantee makes possible.

use crate::error::{validate_decomposition, validate_round, FolError, Validation};
use crate::Decomposition;

/// Minimum units of work per spawned thread: below this, the spawn overhead
/// dwarfs the work and the round runs on the calling thread instead.
const PAR_CHUNK_MIN: usize = 256;

/// Runs `f` over `batch` with real data parallelism: the batch is split into
/// contiguous chunks, one scoped thread per chunk (bounded by available
/// parallelism). Small batches run inline — same semantics, no spawn cost.
fn for_each_parallel<T, F>(batch: Vec<(&mut T, usize)>, f: &F)
where
    T: Send,
    F: Fn(&mut T, usize) + Sync,
{
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    if threads <= 1 || batch.len() < 2 * PAR_CHUNK_MIN {
        for (cell, pos) in batch {
            f(cell, pos);
        }
        return;
    }
    let chunk = batch.len().div_ceil(threads).max(PAR_CHUNK_MIN);
    let mut batch = batch;
    std::thread::scope(|s| {
        for piece in batch.chunks_mut(chunk) {
            s.spawn(move || {
                for (cell, pos) in piece.iter_mut() {
                    f(cell, *pos);
                }
            });
        }
    });
}

/// Applies `f(cell, position)` for every position of every round, rounds in
/// order, sequentially within a round: [`try_apply_rounds`] at
/// [`Validation::Off`].
///
/// `targets[pos]` is the cell index the unit process at `pos` rewrites.
///
/// # Panics
/// Panics when a target is out of bounds of `data`.
pub fn apply_rounds<T, F>(data: &mut [T], targets: &[usize], d: &Decomposition, f: F)
where
    F: FnMut(&mut T, usize),
{
    try_apply_rounds(data, targets, d, Validation::Off, f).unwrap_or_else(|e| panic!("{e}"))
}

/// Applies `f(cell, position)` with real parallelism inside each round:
/// [`try_par_apply_rounds`] at [`Validation::Off`].
///
/// Rounds are executed in order (the sequential-between-rounds condition);
/// within a round the targeted cells are mutated concurrently. Correctness
/// rests on Lemma 2 (within-round targets are pairwise distinct); the
/// borrow-gathering sweep enforces it in every build profile and panics
/// with a diagnostic naming the violation. For a typed error instead of a
/// panic, use [`try_par_apply_rounds`].
///
/// ```
/// use fol_core::host::fol1_host;
/// use fol_core::parallel::par_apply_rounds;
///
/// let targets = [0usize, 3, 0, 3, 3, 1];
/// let rounds = fol1_host(&targets, 4);
/// let mut counts = [0u32; 4];
/// par_apply_rounds(&mut counts, &targets, &rounds, |c, _| *c += 1);
/// assert_eq!(counts, [2, 1, 0, 3]); // no lost updates
/// ```
///
/// # Panics
/// Panics when a target is out of bounds of `data`.
pub fn par_apply_rounds<T, F>(data: &mut [T], targets: &[usize], d: &Decomposition, f: F)
where
    T: Send,
    F: Fn(&mut T, usize) + Sync,
{
    try_par_apply_rounds(data, targets, d, Validation::Off, f).unwrap_or_else(|e| panic!("{e}"))
}

/// Runs one round with data parallelism: gathers disjoint `&mut` borrows of
/// exactly the targeted cells with one ordered sweep over `data` (sort the
/// round by target index, then zip the sweep against the sorted order), then
/// fans the batch out over scoped threads.
fn par_round<T, F>(data: &mut [T], targets: &[usize], round: &[usize], f: &F)
where
    T: Send,
    F: Fn(&mut T, usize) + Sync,
{
    let mut order: Vec<usize> = round.to_vec();
    order.sort_unstable_by_key(|&pos| targets[pos]);
    let mut wanted = order.iter().map(|&pos| (targets[pos], pos)).peekable();
    let mut batch: Vec<(&mut T, usize)> = Vec::with_capacity(round.len());
    for (cell_idx, cell) in data.iter_mut().enumerate() {
        match wanted.peek() {
            Some(&(t, pos)) if t == cell_idx => {
                batch.push((cell, pos));
                wanted.next();
            }
            Some(_) => {}
            None => break,
        }
    }
    // A leftover entry means the sweep could not claim its cell. Tell
    // the two failure modes apart: an in-bounds leftover is a *duplicate
    // target* (the sweep already gave that cell away — Lemma 2 is
    // violated, the decomposition is invalid); only an out-of-range
    // target is actually out of bounds.
    if let Some(&(t, pos)) = wanted.peek() {
        if t < data.len() {
            panic!(
                "duplicate target {t} within a round (position {pos}): \
                 within-round distinctness (Lemma 2) violated"
            );
        } else {
            panic!(
                "target {t} (position {pos}) out of bounds of data (len {})",
                data.len()
            );
        }
    }
    for_each_parallel(batch, f);
}

/// Wraps a round-local failure in [`FolError::Partial`] when earlier rounds
/// already committed, so the caller learns how far execution got.
fn with_progress(completed_rounds: usize, cause: FolError) -> FolError {
    if completed_rounds == 0 {
        cause
    } else {
        FolError::Partial {
            completed_rounds,
            cause: Box::new(cause),
        }
    }
}

/// Fallible [`apply_rounds`]: the decomposition is verified against
/// `targets` and `data` at the given [`Validation`] level, and failures come
/// back as typed errors that say *how far execution got*.
///
/// * [`Validation::Off`] — trust the input (equivalent to [`apply_rounds`];
///   invalid input may still panic on an out-of-bounds index).
/// * [`Validation::Cheap`] — bounds and within-round distinctness
///   (Lemma 2), checked **round by round** just before each round runs:
///   everything needed to execute safely, with no up-front pass over the
///   whole decomposition. If round `k > 0` fails its check, the first `k`
///   rounds have already committed and the error is wrapped in
///   [`FolError::Partial`] carrying `completed_rounds = k` (the failing
///   round itself never starts, so no round is ever half-applied). A
///   failure at round 0 leaves `data` untouched and returns the plain
///   cause.
/// * [`Validation::Full`] — the whole FOL contract, including disjoint
///   cover (Lemma 1) and minimality (Theorem 5), verified *before* any cell
///   is mutated — an `Err` guarantees `data` is untouched. This is the
///   level that catches a decomposition corrupted by ELS-violating hardware
///   (see [`fol_vm::fault`]): such decompositions typically remain *safe*
///   to execute but carry extra rounds, surfacing as
///   [`FolError::NotMinimal`].
pub fn try_apply_rounds<T, F>(
    data: &mut [T],
    targets: &[usize],
    d: &Decomposition,
    validation: Validation,
    mut f: F,
) -> Result<(), FolError>
where
    F: FnMut(&mut T, usize),
{
    if validation >= Validation::Full {
        validate_decomposition(d, targets, data.len(), validation)?;
    }
    for (k, round) in d.iter().enumerate() {
        if validation == Validation::Cheap {
            validate_round(k, round, targets, data.len()).map_err(|e| with_progress(k, e))?;
        }
        for &pos in round {
            f(&mut data[targets[pos]], pos);
        }
    }
    Ok(())
}

/// Fallible [`par_apply_rounds`]: like [`try_apply_rounds`] but with real
/// parallelism inside each round. The validation levels behave identically:
/// `Full` is all-or-nothing, `Cheap` is lazy per-round and reports progress
/// through [`FolError::Partial`].
pub fn try_par_apply_rounds<T, F>(
    data: &mut [T],
    targets: &[usize],
    d: &Decomposition,
    validation: Validation,
    f: F,
) -> Result<(), FolError>
where
    T: Send,
    F: Fn(&mut T, usize) + Sync,
{
    if validation >= Validation::Full {
        validate_decomposition(d, targets, data.len(), validation)?;
    }
    for (k, round) in d.iter().enumerate() {
        if validation == Validation::Cheap {
            validate_round(k, round, targets, data.len()).map_err(|e| with_progress(k, e))?;
        }
        par_round(data, targets, round, &f);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::fol1_host;

    /// A histogram update: every occurrence of a target increments its cell.
    /// Forced naive parallelism would lose increments; FOL rounds must not.
    #[test]
    fn histogram_via_rounds_sequential() {
        let targets = [0usize, 3, 0, 3, 3, 1];
        let d = fol1_host(&targets, 4);
        let mut counts = [0u32; 4];
        apply_rounds(&mut counts, &targets, &d, |c, _| *c += 1);
        assert_eq!(counts, [2, 1, 0, 3]);
    }

    #[test]
    fn histogram_via_rounds_parallel() {
        let targets: Vec<usize> = (0..1000).map(|i| (i * i + i / 3) % 97).collect();
        let d = fol1_host(&targets, 97);
        let mut expect = vec![0u32; 97];
        for &t in &targets {
            expect[t] += 1;
        }
        let mut counts = vec![0u32; 97];
        par_apply_rounds(&mut counts, &targets, &d, |c, _| *c += 1);
        assert_eq!(counts, expect);
    }

    #[test]
    fn positions_are_passed_through() {
        let targets = [2usize, 2];
        let d = fol1_host(&targets, 3);
        let mut log = vec![Vec::new(); 3];
        apply_rounds(&mut log, &targets, &d, |cell, pos| cell.push(pos));
        assert_eq!(log[2].len(), 2);
        let mut seen = log[2].clone();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1]);
    }

    #[test]
    fn parallel_matches_sequential_on_last_write() {
        // Unit process writes its position; per round the target cell is
        // touched by exactly one position, so parallel == sequential per
        // round; across rounds the last round wins in both executors.
        let targets = [1usize, 1, 1];
        let d = fol1_host(&targets, 2);
        let mut a = [0usize; 2];
        let mut b = [0usize; 2];
        apply_rounds(&mut a, &targets, &d, |c, pos| *c = pos + 10);
        par_apply_rounds(&mut b, &targets, &d, |c, pos| *c = pos + 10);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_decomposition_is_noop() {
        let d = fol1_host(&[], 0);
        let mut data: [u8; 2] = [9, 9];
        apply_rounds(&mut data, &[], &d, |_, _| unreachable!());
        par_apply_rounds(&mut data, &[], &d, |_, _| unreachable!());
        assert_eq!(data, [9, 9]);
    }

    #[test]
    #[should_panic(expected = "out of bounds of data")]
    fn out_of_bounds_target_panics_parallel() {
        let targets = [5usize];
        let d = Decomposition::new(vec![vec![0]]);
        let mut data = [0u8; 2];
        par_apply_rounds(&mut data, &targets, &d, |_, _| {});
    }

    #[test]
    #[should_panic(expected = "duplicate target 1 within a round")]
    fn duplicate_target_panics_with_accurate_diagnostic() {
        // Regression: an in-bounds duplicate target used to be misreported
        // as "target out of bounds". It must name the real violation.
        let targets = [1usize, 1];
        let d = Decomposition::new(vec![vec![0, 1]]);
        let mut data = [0u8; 4];
        par_apply_rounds(&mut data, &targets, &d, |_, _| {});
    }

    #[test]
    fn try_variants_validate_before_mutating() {
        use crate::error::{FolError, Validation};
        let targets = [1usize, 1];
        let bad = Decomposition::new(vec![vec![0, 1]]); // duplicate in round
        let mut data = [0u32; 4];
        let err = try_apply_rounds(&mut data, &targets, &bad, Validation::Cheap, |c, _| *c += 1)
            .unwrap_err();
        assert_eq!(
            err,
            FolError::DuplicateTargetInRound {
                round: 0,
                target: 1
            }
        );
        assert_eq!(data, [0; 4], "data untouched on error");
        let err =
            try_par_apply_rounds(&mut data, &targets, &bad, Validation::Cheap, |c, _| *c += 1)
                .unwrap_err();
        assert_eq!(
            err,
            FolError::DuplicateTargetInRound {
                round: 0,
                target: 1
            }
        );
        assert_eq!(data, [0; 4], "data untouched on error");
    }

    #[test]
    fn cheap_validation_reports_progress_on_late_round_failure() {
        use crate::error::{FolError, Validation};
        // Round 0 is valid and commits; round 1 carries a within-round
        // duplicate. Lazy Cheap validation must apply round 0, refuse to
        // start round 1, and say so via `Partial { completed_rounds: 1 }`.
        let targets = [0usize, 1, 1];
        let bad = Decomposition::new(vec![vec![0, 1], vec![2, 2]]);
        let mut data = [0u32; 2];
        let err = try_apply_rounds(&mut data, &targets, &bad, Validation::Cheap, |c, _| *c += 1)
            .unwrap_err();
        assert_eq!(err.completed_rounds(), 1);
        assert!(matches!(
            err,
            FolError::Partial {
                completed_rounds: 1,
                ..
            }
        ));
        assert_eq!(data, [1, 1], "round 0 committed, round 1 never started");

        let mut data = [0u32; 2];
        let err =
            try_par_apply_rounds(&mut data, &targets, &bad, Validation::Cheap, |c, _| *c += 1)
                .unwrap_err();
        assert_eq!(err.completed_rounds(), 1);
        assert_eq!(data, [1, 1], "round 0 committed, round 1 never started");
    }

    #[test]
    fn try_variants_run_valid_decompositions() {
        use crate::error::Validation;
        let targets = [0usize, 3, 0, 3, 3, 1];
        let d = fol1_host(&targets, 4);
        let mut a = [0u32; 4];
        let mut b = [0u32; 4];
        try_apply_rounds(&mut a, &targets, &d, Validation::Full, |c, _| *c += 1).unwrap();
        try_par_apply_rounds(&mut b, &targets, &d, Validation::Full, |c, _| *c += 1).unwrap();
        assert_eq!(a, [2, 1, 0, 3]);
        assert_eq!(a, b);
    }

    #[test]
    fn full_validation_rejects_non_minimal_decomposition() {
        use crate::error::{FolError, Validation};
        // Safe to execute (Cheap passes) but one round too many (Full
        // fails) — the signature a torn-write adversary leaves behind.
        let targets = [0usize, 1];
        let padded = Decomposition::new(vec![vec![0], vec![1]]);
        let mut data = [0u32; 2];
        try_apply_rounds(&mut data, &targets, &padded, Validation::Cheap, |c, _| {
            *c += 1
        })
        .unwrap();
        let err = try_apply_rounds(&mut data, &targets, &padded, Validation::Full, |c, _| {
            *c += 1
        })
        .unwrap_err();
        assert_eq!(
            err,
            FolError::NotMinimal {
                rounds: 2,
                max_multiplicity: 1
            }
        );
    }
}
