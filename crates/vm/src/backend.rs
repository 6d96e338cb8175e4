//! Execution backends: the data-plane compute seam behind the [`Machine`]
//! kernels.
//!
//! The simulator proves the paper's *relative* claims in modelled cycles;
//! making the ratios absolute requires running the same kernels on real
//! hardware lanes. This module extracts the pure data-plane compute of the
//! hot [`Machine`] instructions — gather, last-wins scatter, elementwise
//! ALU, compares, mask algebra, select, compress, prefix/reduction, iota and
//! splat — behind the [`LaneEngine`] trait, so the machine can swap *how*
//! elements are computed without touching *what is observable*:
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
//! Two engines live here (both safe Rust): [`SimEngine`], the reference
//! semantics the simulator has always had, and [`ScalarEngine`], a portable
//! unrolled fallback. The real hardware-lane engine (`std::arch` AVX2 with
//! runtime feature detection) lives in the `fol-simd` crate, because this
//! crate forbids `unsafe`.
//!
//! [`Machine`]: crate::Machine

use crate::machine::{AluOp, CmpOp};
use crate::memory::Region;
use crate::vreg::Word;

/// Which execution backend a machine (or a config) selects.
///
/// `Sim` and `Scalar` are constructible from this crate
/// ([`engine_of`]); `Avx2` needs the `fol-simd` crate, whose selector
/// performs runtime feature detection and falls back to `Scalar` when the
/// hardware (or the build) lacks the lanes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// The cost-model simulator's reference implementation (the default).
    #[default]
    Sim,
    /// Portable scalar-unrolled fallback.
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
            BackendKind::Sim => "sim",
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
/// hot kernels.
///
/// Implementations MUST be pure element-wise compute, bit-identical to
/// [`SimEngine`] on every method: the machine delegates only where the
/// control plane (faults, journal, checksums, policies other than
/// last-wins) cannot observe the difference, and the differential suite
/// enforces digest equality across backends. In particular:
///
/// * `gather`/`scatter_*` receive the target region's words as a local
///   slice (`words[i]` is region element `i`) plus the [`Region`] handle
///   for error attribution; indices must be validated exactly like
///   [`Machine::gather`](crate::Machine::gather) — negative or
///   out-of-range indices panic with the canonical message (use
///   [`bad_index`]), in lane order;
/// * `scatter_last_wins*` resolves duplicate indices by element order
///   (the highest-numbered lane wins) — the semantics of
///   [`ConflictPolicy::LastWins`](crate::ConflictPolicy::LastWins) and of
///   `scatter_ordered`;
/// * `alu*` returns `Err(lane)` for the **lowest** lane that trapped
///   (division/remainder/modulus by zero), computing nothing observable
///   beyond the trap; arithmetic wraps exactly like
///   [`AluOp::checked_apply`];
/// * shift counts take the low six bits of the right operand, matching
///   `i64::wrapping_shl(b as u32)`.
pub trait LaneEngine: Send + Sync {
    /// Stable engine name for reports and bench artifacts (e.g. `"avx2"`).
    fn name(&self) -> &'static str;

    /// The [`BackendKind`] this engine implements.
    fn kind(&self) -> BackendKind;

    /// `out[i] = words[idx[i]]` with full bounds validation (see trait docs).
    fn gather(&self, words: &[Word], region: Region, idx: &[Word]) -> Vec<Word>;

    /// `words[idx[i]] = val[i]`, duplicate indices resolved last-wins in
    /// element order.
    fn scatter_last_wins(&self, words: &mut [Word], region: Region, idx: &[Word], val: &[Word]);

    /// Masked form of [`LaneEngine::scatter_last_wins`]: lanes with a false
    /// mask bit are suppressed (their indices are never validated, exactly
    /// like the machine's slow path, which filters before addressing).
    fn scatter_last_wins_masked(
        &self,
        words: &mut [Word],
        region: Region,
        idx: &[Word],
        val: &[Word],
        mask: &[bool],
    );

    /// Elementwise `op`; `Err(lane)` is the lowest trapping lane.
    fn alu(&self, op: AluOp, a: &[Word], b: &[Word]) -> Result<Vec<Word>, usize>;

    /// Elementwise `op` against a broadcast scalar.
    fn alu_s(&self, op: AluOp, a: &[Word], s: Word) -> Result<Vec<Word>, usize>;

    /// Masked elementwise `op`: false lanes keep `a` and cannot trap.
    fn alu_masked(
        &self,
        op: AluOp,
        a: &[Word],
        b: &[Word],
        mask: &[bool],
    ) -> Result<Vec<Word>, usize>;

    /// Elementwise compare producing mask bits.
    fn cmp(&self, op: CmpOp, a: &[Word], b: &[Word]) -> Vec<bool>;

    /// Elementwise compare against a broadcast scalar.
    fn cmp_s(&self, op: CmpOp, a: &[Word], s: Word) -> Vec<bool>;

    /// Mask conjunction.
    fn mask_and(&self, a: &[bool], b: &[bool]) -> Vec<bool>;

    /// Mask disjunction.
    fn mask_or(&self, a: &[bool], b: &[bool]) -> Vec<bool>;

    /// Mask negation.
    fn mask_not(&self, a: &[bool]) -> Vec<bool>;

    /// Merge: `mask[i] ? a[i] : b[i]`.
    fn select(&self, mask: &[bool], a: &[Word], b: &[Word]) -> Vec<Word>;

    /// Left-pack the elements of `a` whose mask bit is true.
    fn compress(&self, a: &[Word], mask: &[bool]) -> Vec<Word>;

    /// Left-pack mask bits by another mask.
    fn compress_mask(&self, a: &[bool], mask: &[bool]) -> Vec<bool>;

    /// Inclusive (wrapping) prefix sum.
    fn prefix_sum(&self, a: &[Word]) -> Vec<Word>;

    /// Wrapping sum of all elements.
    fn sum(&self, a: &[Word]) -> Word;

    /// Minimum element, `None` when empty.
    fn min(&self, a: &[Word]) -> Option<Word>;

    /// Maximum element, `None` when empty.
    fn max(&self, a: &[Word]) -> Option<Word>;

    /// `[start, start+1, …, start+n-1]`.
    fn iota(&self, start: Word, n: usize) -> Vec<Word>;

    /// `n` copies of `s`.
    fn splat(&self, s: Word, n: usize) -> Vec<Word>;
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

/// Constructs the portable engines this crate can build. Returns `None`
/// for [`BackendKind::Avx2`], which needs the `fol-simd` crate's selector
/// (runtime feature detection lives there).
pub fn engine_of(kind: BackendKind) -> Option<Box<dyn LaneEngine>> {
    match kind {
        BackendKind::Sim => Some(Box::new(SimEngine)),
        BackendKind::Scalar => Some(Box::new(ScalarEngine)),
        BackendKind::Avx2 => None,
    }
}

/// The reference engine: the iterator-style semantics the simulator has
/// always had, now expressed behind the backend seam. This is the oracle
/// every other engine is differentially tested against.
#[derive(Clone, Copy, Debug, Default)]
pub struct SimEngine;

impl LaneEngine for SimEngine {
    fn name(&self) -> &'static str {
        "sim"
    }

    fn kind(&self) -> BackendKind {
        BackendKind::Sim
    }

    #[track_caller]
    fn gather(&self, words: &[Word], region: Region, idx: &[Word]) -> Vec<Word> {
        idx.iter()
            .map(|&i| words[checked_index(words.len(), region, i)])
            .collect()
    }

    #[track_caller]
    fn scatter_last_wins(&self, words: &mut [Word], region: Region, idx: &[Word], val: &[Word]) {
        for (&i, &v) in idx.iter().zip(val) {
            words[checked_index(words.len(), region, i)] = v;
        }
    }

    #[track_caller]
    fn scatter_last_wins_masked(
        &self,
        words: &mut [Word],
        region: Region,
        idx: &[Word],
        val: &[Word],
        mask: &[bool],
    ) {
        for ((&i, &v), &m) in idx.iter().zip(val).zip(mask) {
            if m {
                words[checked_index(words.len(), region, i)] = v;
            }
        }
    }

    fn alu(&self, op: AluOp, a: &[Word], b: &[Word]) -> Result<Vec<Word>, usize> {
        a.iter()
            .zip(b)
            .enumerate()
            .map(|(lane, (&x, &y))| op.checked_apply(x, y).ok_or(lane))
            .collect()
    }

    fn alu_s(&self, op: AluOp, a: &[Word], s: Word) -> Result<Vec<Word>, usize> {
        a.iter()
            .enumerate()
            .map(|(lane, &x)| op.checked_apply(x, s).ok_or(lane))
            .collect()
    }

    fn alu_masked(
        &self,
        op: AluOp,
        a: &[Word],
        b: &[Word],
        mask: &[bool],
    ) -> Result<Vec<Word>, usize> {
        (0..a.len())
            .map(|lane| {
                if mask[lane] {
                    op.checked_apply(a[lane], b[lane]).ok_or(lane)
                } else {
                    Ok(a[lane])
                }
            })
            .collect()
    }

    fn cmp(&self, op: CmpOp, a: &[Word], b: &[Word]) -> Vec<bool> {
        a.iter().zip(b).map(|(&x, &y)| op.apply(x, y)).collect()
    }

    fn cmp_s(&self, op: CmpOp, a: &[Word], s: Word) -> Vec<bool> {
        a.iter().map(|&x| op.apply(x, s)).collect()
    }

    fn mask_and(&self, a: &[bool], b: &[bool]) -> Vec<bool> {
        a.iter().zip(b).map(|(&x, &y)| x && y).collect()
    }

    fn mask_or(&self, a: &[bool], b: &[bool]) -> Vec<bool> {
        a.iter().zip(b).map(|(&x, &y)| x || y).collect()
    }

    fn mask_not(&self, a: &[bool]) -> Vec<bool> {
        a.iter().map(|&x| !x).collect()
    }

    fn select(&self, mask: &[bool], a: &[Word], b: &[Word]) -> Vec<Word> {
        (0..a.len())
            .map(|i| if mask[i] { a[i] } else { b[i] })
            .collect()
    }

    fn compress(&self, a: &[Word], mask: &[bool]) -> Vec<Word> {
        a.iter()
            .zip(mask)
            .filter(|&(_, &m)| m)
            .map(|(&x, _)| x)
            .collect()
    }

    fn compress_mask(&self, a: &[bool], mask: &[bool]) -> Vec<bool> {
        a.iter()
            .zip(mask)
            .filter(|&(_, &m)| m)
            .map(|(&x, _)| x)
            .collect()
    }

    fn prefix_sum(&self, a: &[Word]) -> Vec<Word> {
        let mut acc: Word = 0;
        a.iter()
            .map(|&x| {
                acc = acc.wrapping_add(x);
                acc
            })
            .collect()
    }

    fn sum(&self, a: &[Word]) -> Word {
        a.iter().copied().fold(0, Word::wrapping_add)
    }

    fn min(&self, a: &[Word]) -> Option<Word> {
        a.iter().copied().min()
    }

    fn max(&self, a: &[Word]) -> Option<Word> {
        a.iter().copied().max()
    }

    fn iota(&self, start: Word, n: usize) -> Vec<Word> {
        (start..start + n as Word).collect()
    }

    fn splat(&self, s: Word, n: usize) -> Vec<Word> {
        vec![s; n]
    }
}

/// Portable scalar-unrolled fallback: the same semantics as [`SimEngine`],
/// written as explicit four-wide unrolled loops over pre-sized buffers — the
/// shape an optimizer autovectorizes where it can, and the shape the AVX2
/// engine in `fol-simd` falls back to lane-for-lane when hardware support
/// is absent.
#[derive(Clone, Copy, Debug, Default)]
pub struct ScalarEngine;

/// Unroll width of the scalar fallback (and lane width of the AVX2 engine).
pub const UNROLL: usize = 4;

impl LaneEngine for ScalarEngine {
    fn name(&self) -> &'static str {
        "scalar"
    }

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
            // offending lane, exactly like the reference engine.
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

    #[track_caller]
    fn scatter_last_wins_masked(
        &self,
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

    fn alu_masked(
        &self,
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

    fn mask_and(&self, a: &[bool], b: &[bool]) -> Vec<bool> {
        let mut out = vec![false; a.len()];
        for (lane, slot) in out.iter_mut().enumerate() {
            *slot = a[lane] && b[lane];
        }
        out
    }

    fn mask_or(&self, a: &[bool], b: &[bool]) -> Vec<bool> {
        let mut out = vec![false; a.len()];
        for (lane, slot) in out.iter_mut().enumerate() {
            *slot = a[lane] || b[lane];
        }
        out
    }

    fn mask_not(&self, a: &[bool]) -> Vec<bool> {
        let mut out = vec![false; a.len()];
        for (lane, slot) in out.iter_mut().enumerate() {
            *slot = !a[lane];
        }
        out
    }

    fn select(&self, mask: &[bool], a: &[Word], b: &[Word]) -> Vec<Word> {
        let mut out = vec![0; a.len()];
        for (lane, slot) in out.iter_mut().enumerate() {
            *slot = if mask[lane] { a[lane] } else { b[lane] };
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

    fn compress_mask(&self, a: &[bool], mask: &[bool]) -> Vec<bool> {
        let mut out = Vec::with_capacity(a.len());
        for (lane, &x) in a.iter().enumerate() {
            if mask[lane] {
                out.push(x);
            }
        }
        out
    }

    fn prefix_sum(&self, a: &[Word]) -> Vec<Word> {
        let mut out = vec![0; a.len()];
        let mut acc: Word = 0;
        for (lane, slot) in out.iter_mut().enumerate() {
            acc = acc.wrapping_add(a[lane]);
            *slot = acc;
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

    fn min(&self, a: &[Word]) -> Option<Word> {
        a.iter().copied().min()
    }

    fn max(&self, a: &[Word]) -> Option<Word> {
        a.iter().copied().max()
    }

    fn iota(&self, start: Word, n: usize) -> Vec<Word> {
        let mut out = vec![0; n];
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = start + i as Word;
        }
        out
    }

    fn splat(&self, s: Word, n: usize) -> Vec<Word> {
        vec![s; n]
    }
}

#[inline]
fn in_bounds(idx: Word, len: usize) -> bool {
    (idx as u64) < len as u64 && idx >= 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::Memory;

    fn engines() -> Vec<Box<dyn LaneEngine>> {
        vec![Box::new(SimEngine), Box::new(ScalarEngine)]
    }

    #[test]
    fn kind_names_and_default() {
        for (kind, name) in [
            (BackendKind::Sim, "sim"),
            (BackendKind::Scalar, "scalar"),
            (BackendKind::Avx2, "avx2"),
        ] {
            assert_eq!(kind.as_str(), name);
            assert_eq!(kind.to_string(), name);
        }
        assert_eq!(BackendKind::default(), BackendKind::Sim);
    }

    #[test]
    fn engine_of_builds_portable_kinds() {
        assert_eq!(engine_of(BackendKind::Sim).unwrap().name(), "sim");
        assert_eq!(
            engine_of(BackendKind::Scalar).unwrap().kind(),
            BackendKind::Scalar
        );
        assert!(
            engine_of(BackendKind::Avx2).is_none(),
            "avx2 lives in fol-simd"
        );
    }

    #[test]
    fn scalar_matches_sim_on_every_kernel() {
        let sim = SimEngine;
        let sc = ScalarEngine;
        let mut mem = Memory::new();
        let region = mem.alloc(16, "r");
        for n in [0usize, 1, 3, 4, 5, 7, 8, 9, 31] {
            let a: Vec<Word> = (0..n as Word).map(|i| i * 3 - 7).collect();
            let b: Vec<Word> = (0..n as Word).map(|i| (i % 5) - 2).collect();
            let idx: Vec<Word> = (0..n as Word).map(|i| (i * 7) % 16).collect();
            let mask: Vec<bool> = (0..n).map(|i| i % 3 != 1).collect();
            let mut w1 = vec![0; 16];
            let mut w2 = vec![0; 16];
            sim.scatter_last_wins(&mut w1, region, &idx, &a);
            sc.scatter_last_wins(&mut w2, region, &idx, &a);
            assert_eq!(w1, w2, "scatter n={n}");
            sim.scatter_last_wins_masked(&mut w1, region, &idx, &b, &mask);
            sc.scatter_last_wins_masked(&mut w2, region, &idx, &b, &mask);
            assert_eq!(w1, w2, "masked scatter n={n}");
            assert_eq!(sim.gather(&w1, region, &idx), sc.gather(&w2, region, &idx));
            for op in [
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
            ] {
                assert_eq!(sim.alu(op, &a, &b), sc.alu(op, &a, &b), "{op:?} n={n}");
                assert_eq!(sim.alu_s(op, &a, 3), sc.alu_s(op, &a, 3));
                assert_eq!(
                    sim.alu_masked(op, &a, &b, &mask),
                    sc.alu_masked(op, &a, &b, &mask)
                );
            }
            for op in [
                CmpOp::Eq,
                CmpOp::Ne,
                CmpOp::Lt,
                CmpOp::Le,
                CmpOp::Gt,
                CmpOp::Ge,
            ] {
                assert_eq!(sim.cmp(op, &a, &b), sc.cmp(op, &a, &b));
                assert_eq!(sim.cmp_s(op, &a, 0), sc.cmp_s(op, &a, 0));
            }
            let m2: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
            assert_eq!(sim.mask_and(&mask, &m2), sc.mask_and(&mask, &m2));
            assert_eq!(sim.mask_or(&mask, &m2), sc.mask_or(&mask, &m2));
            assert_eq!(sim.mask_not(&mask), sc.mask_not(&mask));
            assert_eq!(sim.select(&mask, &a, &b), sc.select(&mask, &a, &b));
            assert_eq!(sim.compress(&a, &mask), sc.compress(&a, &mask));
            assert_eq!(sim.compress_mask(&m2, &mask), sc.compress_mask(&m2, &mask));
            assert_eq!(sim.prefix_sum(&a), sc.prefix_sum(&a));
            assert_eq!(sim.sum(&a), sc.sum(&a));
            assert_eq!(sim.min(&a), sc.min(&a));
            assert_eq!(sim.max(&a), sc.max(&a));
            assert_eq!(sim.iota(-3, n), sc.iota(-3, n));
            assert_eq!(sim.splat(9, n), sc.splat(9, n));
        }
    }

    #[test]
    fn shift_counts_take_low_six_bits() {
        // wrapping_shl(b as u32) keeps the low 6 bits of b; engines must too.
        for e in engines() {
            let a = vec![1, 1, -8, 5];
            let b = vec![65, -1, 2, 70];
            let got = e.alu(AluOp::Shl, &a, &b).unwrap();
            assert_eq!(got, vec![2, i64::MIN, -32, 320], "{}", e.name());
            let sh = e.alu(AluOp::Shr, &a, &b).unwrap();
            assert_eq!(sh, vec![0, 1 >> 63, -2, 0], "{}", e.name());
        }
    }

    #[test]
    fn trap_reports_lowest_lane() {
        for e in engines() {
            let a = vec![1, 2, 3, 4, 5];
            let b = vec![1, 0, 1, 0, 1];
            assert_eq!(e.alu(AluOp::Div, &a, &b), Err(1), "{}", e.name());
            assert_eq!(e.alu_s(AluOp::Rem, &a, 0), Err(0));
            let mask = vec![false, false, true, true, false];
            assert_eq!(e.alu_masked(AluOp::Mod, &a, &b, &mask), Err(3));
        }
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
