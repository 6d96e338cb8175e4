//! Execution backends: the data-plane compute seam behind the [`Machine`]
//! kernels.
//!
//! The simulator proves the paper's *relative* claims in modelled cycles;
//! making the ratios absolute requires running the same kernels on real
//! hardware lanes. The [`LaneEngine`] trait carries the pure element-wise
//! compute of the kernels that a hardware engine replaces — gather,
//! last-wins scatter, elementwise ALU, compares, compress and sum — so the
//! machine can swap *how* those elements are computed without touching
//! *what is observable*:
//!
//! * the **control plane never moves**: cost charging, fault injection,
//!   journaling, incremental checksums, lane health, ELS auditing and the
//!   stale-read shadow all stay in [`Machine`], which only delegates to the
//!   engine on paths where none of those features can observe a difference
//!   (and falls back to its canonical slow path everywhere else);
//! * every engine must be **bit-for-bit equivalent** on the delegated
//!   kernels — the differential suite in `fol-simd` holds all backends to
//!   `content_digest` equality across the full workload × chaos matrix.
//!
//! [`ScalarEngine`], a portable unrolled engine in safe Rust, is
//! `Machine::new`'s engine and the oracle the hardware engine is tested
//! against. The hardware-lane engine (`std::arch` AVX2 with runtime feature
//! detection) lives in the `fol-simd` crate, because this crate forbids
//! `unsafe`. The kernels no engine replaces — masked scatter and ALU, mask
//! algebra, select, mask compress, prefix sum, min/max, iota and splat —
//! are plain functions here that the machine calls directly.
//!
//! [`Machine`]: crate::Machine

use crate::machine::{AluOp, CmpOp};
use crate::memory::Region;
use crate::vreg::Word;

/// Which execution backend a machine (or a config) selects.
///
/// `Scalar` is constructible from this crate ([`ScalarEngine`]); `Avx2`
/// needs the `fol-simd` crate, whose selector performs runtime feature
/// detection and falls back to `Scalar` when the hardware (or the build)
/// lacks the lanes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// Portable scalar-unrolled engine.
    Scalar,
    /// Hardware lanes via `std::arch` AVX2 (requires `fol-simd`; falls back
    /// to [`BackendKind::Scalar`] when AVX2 is not detected at runtime).
    Avx2,
}

impl BackendKind {
    /// Canonical lowercase name, stable across releases (used in bench
    /// artifacts and config files).
    pub fn as_str(&self) -> &'static str {
        match self {
            BackendKind::Scalar => "scalar",
            BackendKind::Avx2 => "avx2",
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The data-plane compute contract behind the [`Machine`](crate::Machine)
/// kernels that a hardware engine replaces.
///
/// Implementations MUST be pure element-wise compute, bit-identical to
/// [`ScalarEngine`] on every method: the machine delegates only where the
/// control plane (faults, journal, checksums, policies other than
/// last-wins) cannot observe the difference, and the differential suite
/// enforces digest equality across backends. In particular:
///
/// * `gather`/`scatter_last_wins` receive the target region's words as a
///   local slice (`words[i]` is region element `i`) plus the [`Region`]
///   handle for error attribution; indices must be validated exactly like
///   [`Machine::gather`](crate::Machine::gather) — negative or
///   out-of-range indices panic with the canonical message (use
///   [`bad_index`]), in lane order;
/// * `scatter_last_wins` resolves duplicate indices by element order (the
///   highest-numbered lane wins) — the semantics of
///   [`ConflictPolicy::LastWins`](crate::ConflictPolicy::LastWins) and of
///   `scatter_ordered`;
/// * `alu*` returns `Err(lane)` for the **lowest** lane that trapped
///   (division/remainder/modulus by zero), computing nothing observable
///   beyond the trap; arithmetic wraps exactly like
///   [`AluOp::checked_apply`];
/// * shift counts take the low six bits of the right operand, matching
///   `i64::wrapping_shl(b as u32)`.
pub trait LaneEngine: Send + Sync {
    /// The [`BackendKind`] this engine implements.
    fn kind(&self) -> BackendKind;

    /// `out[i] = words[idx[i]]` with full bounds validation (see trait docs).
    fn gather(&self, words: &[Word], region: Region, idx: &[Word]) -> Vec<Word>;

    /// `words[idx[i]] = val[i]`, duplicate indices resolved last-wins in
    /// element order.
    fn scatter_last_wins(&self, words: &mut [Word], region: Region, idx: &[Word], val: &[Word]);

    /// Elementwise `op`; `Err(lane)` is the lowest trapping lane.
    fn alu(&self, op: AluOp, a: &[Word], b: &[Word]) -> Result<Vec<Word>, usize>;

    /// Elementwise `op` against a broadcast scalar.
    fn alu_s(&self, op: AluOp, a: &[Word], s: Word) -> Result<Vec<Word>, usize>;

    /// Elementwise compare producing mask bits.
    fn cmp(&self, op: CmpOp, a: &[Word], b: &[Word]) -> Vec<bool>;

    /// Elementwise compare against a broadcast scalar.
    fn cmp_s(&self, op: CmpOp, a: &[Word], s: Word) -> Vec<bool>;

    /// Left-pack the elements of `a` whose mask bit is true.
    fn compress(&self, a: &[Word], mask: &[bool]) -> Vec<Word>;

    /// Wrapping sum of all elements.
    fn sum(&self, a: &[Word]) -> Word;
}

/// Panics with the canonical index-validation message of the machine's
/// addressing path — every engine routes its bounds failures through here so
/// a workload overrun reports identically on all backends.
#[cold]
#[track_caller]
pub fn bad_index(region: Region, idx: Word) -> ! {
    match usize::try_from(idx) {
        Err(_) => panic!("negative index {idx} into {region:?}"),
        Ok(i) => panic!("index {i} out of bounds of {region:?}"),
    }
}

/// Validates one region-local index, returning it as a `usize`.
#[inline]
#[track_caller]
pub fn checked_index(words_len: usize, region: Region, idx: Word) -> usize {
    match usize::try_from(idx) {
        Ok(i) if i < words_len => i,
        _ => bad_index(region, idx),
    }
}

/// Portable scalar-unrolled engine: explicit four-wide unrolled loops over
/// pre-sized buffers — the shape an optimizer autovectorizes where it can,
/// and the engine the AVX2 selector in `fol-simd` falls back to when
/// hardware support is absent.
#[derive(Clone, Copy, Debug, Default)]
pub struct ScalarEngine;

/// Unroll width of the scalar engine.
const UNROLL: usize = 4;

impl LaneEngine for ScalarEngine {
    fn kind(&self) -> BackendKind {
        BackendKind::Scalar
    }

    #[track_caller]
    fn gather(&self, words: &[Word], region: Region, idx: &[Word]) -> Vec<Word> {
        let n = idx.len();
        let len = words.len();
        let mut out = vec![0; n];
        let mut p = 0;
        while p + UNROLL <= n {
            // In-bounds test for the whole block first; any failure re-runs
            // the block element-by-element so the panic names the *first*
            // offending lane.
            let (i0, i1, i2, i3) = (idx[p], idx[p + 1], idx[p + 2], idx[p + 3]);
            let ok = in_bounds(i0, len)
                && in_bounds(i1, len)
                && in_bounds(i2, len)
                && in_bounds(i3, len);
            if !ok {
                for &i in &idx[p..p + UNROLL] {
                    let _ = checked_index(len, region, i);
                }
            }
            out[p] = words[i0 as usize];
            out[p + 1] = words[i1 as usize];
            out[p + 2] = words[i2 as usize];
            out[p + 3] = words[i3 as usize];
            p += UNROLL;
        }
        for q in p..n {
            out[q] = words[checked_index(len, region, idx[q])];
        }
        out
    }

    #[track_caller]
    fn scatter_last_wins(&self, words: &mut [Word], region: Region, idx: &[Word], val: &[Word]) {
        let n = idx.len();
        let len = words.len();
        let mut p = 0;
        while p + UNROLL <= n {
            let (i0, i1, i2, i3) = (idx[p], idx[p + 1], idx[p + 2], idx[p + 3]);
            let ok = in_bounds(i0, len)
                && in_bounds(i1, len)
                && in_bounds(i2, len)
                && in_bounds(i3, len);
            if !ok {
                for &i in &idx[p..p + UNROLL] {
                    let _ = checked_index(len, region, i);
                }
            }
            // Sequential stores preserve last-wins on duplicates.
            words[i0 as usize] = val[p];
            words[i1 as usize] = val[p + 1];
            words[i2 as usize] = val[p + 2];
            words[i3 as usize] = val[p + 3];
            p += UNROLL;
        }
        for q in p..n {
            words[checked_index(len, region, idx[q])] = val[q];
        }
    }

    fn alu(&self, op: AluOp, a: &[Word], b: &[Word]) -> Result<Vec<Word>, usize> {
        let mut out = vec![0; a.len()];
        for (lane, slot) in out.iter_mut().enumerate() {
            *slot = op.checked_apply(a[lane], b[lane]).ok_or(lane)?;
        }
        Ok(out)
    }

    fn alu_s(&self, op: AluOp, a: &[Word], s: Word) -> Result<Vec<Word>, usize> {
        let mut out = vec![0; a.len()];
        for (lane, slot) in out.iter_mut().enumerate() {
            *slot = op.checked_apply(a[lane], s).ok_or(lane)?;
        }
        Ok(out)
    }

    fn cmp(&self, op: CmpOp, a: &[Word], b: &[Word]) -> Vec<bool> {
        let mut out = vec![false; a.len()];
        for (lane, slot) in out.iter_mut().enumerate() {
            *slot = op.apply(a[lane], b[lane]);
        }
        out
    }

    fn cmp_s(&self, op: CmpOp, a: &[Word], s: Word) -> Vec<bool> {
        let mut out = vec![false; a.len()];
        for (lane, slot) in out.iter_mut().enumerate() {
            *slot = op.apply(a[lane], s);
        }
        out
    }

    fn compress(&self, a: &[Word], mask: &[bool]) -> Vec<Word> {
        let mut out = Vec::with_capacity(a.len());
        for (lane, &x) in a.iter().enumerate() {
            if mask[lane] {
                out.push(x);
            }
        }
        out
    }

    fn sum(&self, a: &[Word]) -> Word {
        let mut acc: [Word; UNROLL] = [0; UNROLL];
        let mut chunks = a.chunks_exact(UNROLL);
        for c in &mut chunks {
            for (s, &x) in acc.iter_mut().zip(c) {
                *s = s.wrapping_add(x);
            }
        }
        let mut total = acc.iter().copied().fold(0, Word::wrapping_add);
        for &x in chunks.remainder() {
            total = total.wrapping_add(x);
        }
        total
    }
}

#[inline]
fn in_bounds(idx: Word, len: usize) -> bool {
    (idx as u64) < len as u64 && idx >= 0
}

// ----------------------------------------------------------------------
// Kernels no engine replaces: the machine calls these on every backend.
// ----------------------------------------------------------------------

/// `words[idx[i]] = val[i]` for the lanes whose mask bit is true, last-wins
/// in element order. Suppressed lanes are never validated, exactly like
/// the machine's slow path, which filters before addressing.
#[track_caller]
pub(crate) fn scatter_last_wins_masked(
    words: &mut [Word],
    region: Region,
    idx: &[Word],
    val: &[Word],
    mask: &[bool],
) {
    let len = words.len();
    for q in 0..idx.len() {
        if mask[q] {
            words[checked_index(len, region, idx[q])] = val[q];
        }
    }
}

/// Masked elementwise `op`: false lanes keep `a` and cannot trap;
/// `Err(lane)` is the lowest trapping active lane.
pub(crate) fn alu_masked(
    op: AluOp,
    a: &[Word],
    b: &[Word],
    mask: &[bool],
) -> Result<Vec<Word>, usize> {
    let mut out = vec![0; a.len()];
    for (lane, slot) in out.iter_mut().enumerate() {
        *slot = if mask[lane] {
            op.checked_apply(a[lane], b[lane]).ok_or(lane)?
        } else {
            a[lane]
        };
    }
    Ok(out)
}

/// Mask conjunction.
pub(crate) fn mask_and(a: &[bool], b: &[bool]) -> Vec<bool> {
    let mut out = vec![false; a.len()];
    for (lane, slot) in out.iter_mut().enumerate() {
        *slot = a[lane] && b[lane];
    }
    out
}

/// Mask disjunction.
pub(crate) fn mask_or(a: &[bool], b: &[bool]) -> Vec<bool> {
    let mut out = vec![false; a.len()];
    for (lane, slot) in out.iter_mut().enumerate() {
        *slot = a[lane] || b[lane];
    }
    out
}

/// Mask negation.
pub(crate) fn mask_not(a: &[bool]) -> Vec<bool> {
    let mut out = vec![false; a.len()];
    for (lane, slot) in out.iter_mut().enumerate() {
        *slot = !a[lane];
    }
    out
}

/// Merge: `mask[i] ? a[i] : b[i]`.
pub(crate) fn select(mask: &[bool], a: &[Word], b: &[Word]) -> Vec<Word> {
    let mut out = vec![0; a.len()];
    for (lane, slot) in out.iter_mut().enumerate() {
        *slot = if mask[lane] { a[lane] } else { b[lane] };
    }
    out
}

/// Left-pack mask bits by another mask.
pub(crate) fn compress_mask(a: &[bool], mask: &[bool]) -> Vec<bool> {
    let mut out = Vec::with_capacity(a.len());
    for (lane, &x) in a.iter().enumerate() {
        if mask[lane] {
            out.push(x);
        }
    }
    out
}

/// Inclusive (wrapping) prefix sum.
pub(crate) fn prefix_sum(a: &[Word]) -> Vec<Word> {
    let mut out = vec![0; a.len()];
    let mut acc: Word = 0;
    for (lane, slot) in out.iter_mut().enumerate() {
        acc = acc.wrapping_add(a[lane]);
        *slot = acc;
    }
    out
}

/// Minimum element, `None` when empty.
pub(crate) fn min(a: &[Word]) -> Option<Word> {
    a.iter().copied().min()
}

/// Maximum element, `None` when empty.
pub(crate) fn max(a: &[Word]) -> Option<Word> {
    a.iter().copied().max()
}

/// `[start, start+1, …, start+n-1]`.
pub(crate) fn iota(start: Word, n: usize) -> Vec<Word> {
    let mut out = vec![0; n];
    for (i, slot) in out.iter_mut().enumerate() {
        *slot = start + i as Word;
    }
    out
}

/// `n` copies of `s`.
pub(crate) fn splat(s: Word, n: usize) -> Vec<Word> {
    vec![s; n]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::Memory;

    /// `words` after storing `(idx[i], val[i])` for each live lane in
    /// element order: the definition of a last-wins scatter.
    fn stored(mut words: Vec<Word>, idx: &[Word], val: &[Word], live: &[bool]) -> Vec<Word> {
        for ((&i, &v), &m) in idx.iter().zip(val).zip(live) {
            if m {
                words[i as usize] = v;
            }
        }
        words
    }

    /// The lanes of `a` whose mask bit is true, in order.
    fn kept<T: Copy>(a: &[T], mask: &[bool]) -> Vec<T> {
        a.iter()
            .zip(mask)
            .filter(|(_, &m)| m)
            .map(|(&x, _)| x)
            .collect()
    }

    /// `f` over lanes `0..n`, failing with the lowest lane where it traps.
    fn per_lane(n: usize, f: impl Fn(usize) -> Option<Word>) -> Result<Vec<Word>, usize> {
        (0..n).map(|lane| f(lane).ok_or(lane)).collect()
    }

    const ALU_OPS: [AluOp; 13] = [
        AluOp::Add,
        AluOp::Sub,
        AluOp::Mul,
        AluOp::Div,
        AluOp::Rem,
        AluOp::Mod,
        AluOp::And,
        AluOp::Or,
        AluOp::Xor,
        AluOp::Shl,
        AluOp::Shr,
        AluOp::Min,
        AluOp::Max,
    ];

    const CMP_OPS: [CmpOp; 6] = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ];

    #[test]
    fn kind_names() {
        for (kind, name) in [(BackendKind::Scalar, "scalar"), (BackendKind::Avx2, "avx2")] {
            assert_eq!(kind.as_str(), name);
            assert_eq!(kind.to_string(), name);
        }
        assert_eq!(ScalarEngine.kind(), BackendKind::Scalar);
    }

    /// Every engine kernel of [`ScalarEngine`] and every machine-side
    /// kernel against its definition: `AluOp::checked_apply`,
    /// `CmpOp::apply` and plain iterator forms, at lengths straddling the
    /// unroll width.
    #[test]
    fn kernels_match_their_definitions() {
        let e = ScalarEngine;
        let mut mem = Memory::new();
        let region = mem.alloc(16, "r");
        for n in [0usize, 1, 3, 4, 5, 7, 8, 9, 31] {
            let a: Vec<Word> = (0..n as Word).map(|i| i * 3 - 7).collect();
            let b: Vec<Word> = (0..n as Word).map(|i| (i % 5) - 2).collect();
            let idx: Vec<Word> = (0..n as Word).map(|i| (i * 7) % 16).collect();
            let mask: Vec<bool> = (0..n).map(|i| i % 3 != 1).collect();
            let m2: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
            let all = vec![true; n];

            let mut w = vec![0; 16];
            e.scatter_last_wins(&mut w, region, &idx, &a);
            let want = stored(vec![0; 16], &idx, &a, &all);
            assert_eq!(w, want, "scatter n={n}");
            scatter_last_wins_masked(&mut w, region, &idx, &b, &mask);
            let want = stored(want, &idx, &b, &mask);
            assert_eq!(w, want, "masked scatter n={n}");
            let gathered: Vec<Word> = idx.iter().map(|&i| w[i as usize]).collect();
            assert_eq!(e.gather(&w, region, &idx), gathered, "gather n={n}");

            for op in ALU_OPS {
                let want = per_lane(n, |l| op.checked_apply(a[l], b[l]));
                assert_eq!(e.alu(op, &a, &b), want, "{op:?} n={n}");
                let want = per_lane(n, |l| op.checked_apply(a[l], 3));
                assert_eq!(e.alu_s(op, &a, 3), want, "{op:?}_s n={n}");
                let want = per_lane(n, |l| match mask[l] {
                    true => op.checked_apply(a[l], b[l]),
                    false => Some(a[l]),
                });
                assert_eq!(alu_masked(op, &a, &b, &mask), want, "{op:?}_masked n={n}");
            }
            for op in CMP_OPS {
                let want: Vec<bool> = a.iter().zip(&b).map(|(&x, &y)| op.apply(x, y)).collect();
                assert_eq!(e.cmp(op, &a, &b), want, "{op:?} n={n}");
                let want: Vec<bool> = a.iter().map(|&x| op.apply(x, 0)).collect();
                assert_eq!(e.cmp_s(op, &a, 0), want, "{op:?}_s n={n}");
            }

            let want: Vec<bool> = mask.iter().zip(&m2).map(|(&x, &y)| x && y).collect();
            assert_eq!(mask_and(&mask, &m2), want, "and n={n}");
            let want: Vec<bool> = mask.iter().zip(&m2).map(|(&x, &y)| x || y).collect();
            assert_eq!(mask_or(&mask, &m2), want, "or n={n}");
            let want: Vec<bool> = mask.iter().map(|&x| !x).collect();
            assert_eq!(mask_not(&mask), want, "not n={n}");
            let want: Vec<Word> = (0..n).map(|l| if mask[l] { a[l] } else { b[l] }).collect();
            assert_eq!(select(&mask, &a, &b), want, "select n={n}");
            assert_eq!(e.compress(&a, &mask), kept(&a, &mask), "compress n={n}");
            assert_eq!(
                compress_mask(&m2, &mask),
                kept(&m2, &mask),
                "compress_mask n={n}"
            );
            let want: Vec<Word> = a
                .iter()
                .scan(0 as Word, |acc, &x| {
                    *acc = acc.wrapping_add(x);
                    Some(*acc)
                })
                .collect();
            assert_eq!(prefix_sum(&a), want, "prefix_sum n={n}");
            assert_eq!(
                e.sum(&a),
                a.iter().copied().fold(0, Word::wrapping_add),
                "sum n={n}"
            );
            assert_eq!(min(&a), a.iter().copied().min(), "min n={n}");
            assert_eq!(max(&a), a.iter().copied().max(), "max n={n}");
            assert_eq!(
                iota(-3, n),
                (-3..n as Word - 3).collect::<Vec<_>>(),
                "iota n={n}"
            );
            assert_eq!(splat(9, n), vec![9; n], "splat n={n}");
        }
    }

    #[test]
    fn shift_counts_take_low_six_bits() {
        // wrapping_shl(b as u32) keeps the low 6 bits of b; engines must too.
        let a = vec![1, 1, -8, 5];
        let b = vec![65, -1, 2, 70];
        let got = ScalarEngine.alu(AluOp::Shl, &a, &b).unwrap();
        assert_eq!(got, vec![2, i64::MIN, -32, 320]);
        let sh = ScalarEngine.alu(AluOp::Shr, &a, &b).unwrap();
        assert_eq!(sh, vec![0, 1 >> 63, -2, 0]);
    }

    #[test]
    fn trap_reports_lowest_lane() {
        let a = vec![1, 2, 3, 4, 5];
        let b = vec![1, 0, 1, 0, 1];
        assert_eq!(ScalarEngine.alu(AluOp::Div, &a, &b), Err(1));
        assert_eq!(ScalarEngine.alu_s(AluOp::Rem, &a, 0), Err(0));
        let mask = vec![false, false, true, true, false];
        assert_eq!(alu_masked(AluOp::Mod, &a, &b, &mask), Err(3));
    }

    #[test]
    #[should_panic(expected = "negative index")]
    fn scalar_gather_panics_on_negative_index() {
        let mut mem = Memory::new();
        let r = mem.alloc(4, "r");
        let _ = ScalarEngine.gather(&[0; 4], r, &[0, 1, -2, 3]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn scalar_scatter_panics_out_of_bounds() {
        let mut mem = Memory::new();
        let r = mem.alloc(4, "r");
        ScalarEngine.scatter_last_wins(&mut [0; 4], r, &[0, 4], &[1, 2]);
    }
}
