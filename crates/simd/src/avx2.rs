//! The AVX2 hardware-lane engine: 4×64-bit lanes behind the
//! [`LaneEngine`] contract.
//!
//! Kernel strategy, per instruction class:
//!
//! * **gather** — branch-free `_mm256_i64gather_epi64`, four blocks in
//!   flight: each lane's range check is one sign-biased unsigned compare,
//!   out-of-range lanes are clamped to index 0 so the hardware gather stays
//!   in bounds, and the check results fold into an accumulator inspected
//!   once at the end. A failed run re-scans the indices in order so the
//!   panic names the first offending lane with the canonical message; the
//!   uninitialized output buffer is only materialized on normal return.
//! * **scatter** — SIMD range pre-check, scalar stores (AVX2 has no
//!   scatter instruction); sequential store order preserves last-wins.
//! * **ALU** — `add`/`sub`/`and`/`or`/`xor` native; `shl` via
//!   count-masking (&63, matching `wrapping_shl(b as u32)`) and
//!   `_mm256_sllv_epi64`; `min`/`max` via signed compare + blend. `mul`,
//!   the division family (which must trap on the lowest lane) and
//!   arithmetic `shr` (no 64-bit variable arithmetic shift in AVX2) take
//!   the scalar engine's path.
//! * **compare** — `cmpeq`/`cmpgt` plus operand swap and negation derive
//!   all six predicates; lane sign bits exit through `movemask_pd`.
//! * **compress** — the classic nibble-LUT left-pack, two blocks per
//!   iteration: eight mask bytes load as one `u64` and a multiply folds
//!   them into two 4-bit nibbles, each selecting a
//!   `_mm256_permutevar8x32_epi32` shuffle that packs the kept lanes to
//!   the left; stores land in spare (never-zeroed) capacity with slack and
//!   the final length is the popcount.
//! * **sum** — four parallel wrapping accumulators, folded horizontally.
//!
//! The kernels outside the [`LaneEngine`] seam (masked scatter/ALU, mask
//! algebra, select, mask compress, prefix sum, min/max, iota, splat) are
//! either inherently serial, bool-typed, or too cold to matter; the machine
//! runs their portable bodies from `fol_vm::backend` on every engine.
//!
//! # Safety
//! Every `target_feature(enable = "avx2")` function in this module is only
//! reachable through an [`Avx2Engine`], whose constructor asserts runtime
//! AVX2 detection — the single proof obligation all the `unsafe` blocks
//! lean on. Pointer arithmetic stays inside slice bounds checked at the
//! call sites.

use std::arch::x86_64::*;

use fol_vm::backend::{bad_index, checked_index, BackendKind, LaneEngine, ScalarEngine};
use fol_vm::machine::{AluOp, CmpOp};
use fol_vm::memory::Region;
use fol_vm::vreg::Word;

/// Hardware lanes per AVX2 vector (4 × 64-bit words).
const LANES: usize = 4;

/// Permutation LUT for the compress left-pack: entry `m` (a 4-bit lane
/// mask) is the 8×i32 shuffle that moves the selected 64-bit lanes to the
/// front, in lane order.
const COMPRESS_LUT: [[i32; 8]; 16] = build_compress_lut();

const fn build_compress_lut() -> [[i32; 8]; 16] {
    let mut lut = [[0i32; 8]; 16];
    let mut m = 0;
    while m < 16 {
        let mut slot = 0;
        let mut lane = 0;
        while lane < 4 {
            if m & (1 << lane) != 0 {
                lut[m][slot] = 2 * lane;
                lut[m][slot + 1] = 2 * lane + 1;
                slot += 2;
            }
            lane += 1;
        }
        m += 1;
    }
    lut
}

/// The AVX2 execution engine. Construction asserts runtime feature
/// detection; use [`crate::engine_for`] for the selector that falls back
/// typed instead of panicking.
#[derive(Clone, Copy, Debug)]
pub struct Avx2Engine {
    scalar: ScalarEngine,
}

impl Default for Avx2Engine {
    /// Same as [`Avx2Engine::new`] — panics without runtime AVX2, keeping
    /// the detection invariant the kernels' safety rests on.
    fn default() -> Self {
        Self::new()
    }
}

impl Avx2Engine {
    /// Builds the engine.
    ///
    /// # Panics
    /// Panics when the CPU does not report AVX2 — the detection invariant
    /// every `unsafe` kernel in this module relies on.
    pub fn new() -> Self {
        assert!(
            std::arch::is_x86_feature_detected!("avx2"),
            "Avx2Engine requires runtime AVX2 support; use fol_simd::engine_for for typed fallback"
        );
        Self {
            scalar: ScalarEngine,
        }
    }
}

/// Loads four words starting at `src[p]` (caller guarantees `p+4 <= len`).
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn load4(src: &[Word], p: usize) -> __m256i {
    debug_assert!(p + LANES <= src.len());
    unsafe { _mm256_loadu_si256(src.as_ptr().add(p) as *const __m256i) }
}

/// Stores four words starting at `dst[p]` (caller guarantees `p+4 <= len`).
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn store4(dst: &mut [Word], p: usize, v: __m256i) {
    debug_assert!(p + LANES <= dst.len());
    unsafe { _mm256_storeu_si256(dst.as_mut_ptr().add(p) as *mut __m256i, v) }
}

/// Sign bits of the four 64-bit lanes as a 4-bit mask.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn lane_signs(v: __m256i) -> i32 {
    _mm256_movemask_pd(_mm256_castsi256_pd(v))
}

/// All-ones where the lane index is *outside* `[0, len)`.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn out_of_range(vi: __m256i, len: usize) -> i32 {
    unsafe {
        let zero = _mm256_setzero_si256();
        let limit = _mm256_set1_epi64x(len as i64 - 1);
        let neg = _mm256_cmpgt_epi64(zero, vi);
        let hi = _mm256_cmpgt_epi64(vi, limit);
        lane_signs(_mm256_or_si256(neg, hi))
    }
}

/// Writes `idx.len()` gathered words through `dst` and returns normally, or
/// panics with the canonical message naming the first out-of-range index.
///
/// The hot loop never branches on validity: every lane is range-checked with
/// one biased (unsigned) compare, *clamped to zero* so the hardware gather
/// stays in bounds, and the check results are OR-folded into an accumulator
/// inspected once at the end. A failed run re-scans the indices in order so
/// the panic names the first offender, exactly like the reference engine —
/// the clamped garbage written to `dst` is discarded by the caller (which
/// only materializes the buffer on normal return).
///
/// # Safety
/// Requires AVX2, `dst` valid for `idx.len()` writes, and `!words.is_empty()`
/// (the clamp targets index 0; the caller handles the empty table).
#[target_feature(enable = "avx2")]
unsafe fn gather_kernel(words: &[Word], region: Region, idx: &[Word], dst: *mut Word) {
    let n = idx.len();
    let len = words.len();
    debug_assert!(len > 0);
    let sign = _mm256_set1_epi64x(i64::MIN);
    let biased_limit = _mm256_set1_epi64x((len as i64 - 1) ^ i64::MIN);
    let mut any_bad = _mm256_setzero_si256();
    let mut p = 0;
    // 4 blocks in flight: the gather instruction carries four addresses per
    // uop, so deep unrolling keeps more cache misses outstanding than the
    // scalar fallback's one-load-per-uop stream can.
    while p + 4 * LANES <= n {
        unsafe {
            let vi0 = load4(idx, p);
            let vi1 = load4(idx, p + LANES);
            let vi2 = load4(idx, p + 2 * LANES);
            let vi3 = load4(idx, p + 3 * LANES);
            // (idx as u64) >= len as one signed compare on sign-biased values.
            let bad0 = _mm256_cmpgt_epi64(_mm256_xor_si256(vi0, sign), biased_limit);
            let bad1 = _mm256_cmpgt_epi64(_mm256_xor_si256(vi1, sign), biased_limit);
            let bad2 = _mm256_cmpgt_epi64(_mm256_xor_si256(vi2, sign), biased_limit);
            let bad3 = _mm256_cmpgt_epi64(_mm256_xor_si256(vi3, sign), biased_limit);
            any_bad = _mm256_or_si256(
                any_bad,
                _mm256_or_si256(_mm256_or_si256(bad0, bad1), _mm256_or_si256(bad2, bad3)),
            );
            let g0 = _mm256_i64gather_epi64::<8>(words.as_ptr(), _mm256_andnot_si256(bad0, vi0));
            let g1 = _mm256_i64gather_epi64::<8>(words.as_ptr(), _mm256_andnot_si256(bad1, vi1));
            let g2 = _mm256_i64gather_epi64::<8>(words.as_ptr(), _mm256_andnot_si256(bad2, vi2));
            let g3 = _mm256_i64gather_epi64::<8>(words.as_ptr(), _mm256_andnot_si256(bad3, vi3));
            _mm256_storeu_si256(dst.add(p) as *mut __m256i, g0);
            _mm256_storeu_si256(dst.add(p + LANES) as *mut __m256i, g1);
            _mm256_storeu_si256(dst.add(p + 2 * LANES) as *mut __m256i, g2);
            _mm256_storeu_si256(dst.add(p + 3 * LANES) as *mut __m256i, g3);
        }
        p += 4 * LANES;
    }
    let mut tail_ok = true;
    for (q, &i) in idx.iter().enumerate().skip(p) {
        let inb = (i as u64) < len as u64;
        tail_ok &= inb;
        // SAFETY: clamped to 0 when out of range; len > 0.
        unsafe { *dst.add(q) = *words.get_unchecked(if inb { i as usize } else { 0 }) };
    }
    if unsafe { lane_signs(any_bad) } != 0 || !tail_ok {
        // Re-scan in order: panics on the first bad lane with the canonical
        // message.
        for &i in idx {
            let _ = checked_index(len, region, i);
        }
        // Unreachable: some lane failed the vector check.
        bad_index(region, idx[0]);
    }
}

#[target_feature(enable = "avx2")]
unsafe fn scatter_kernel(words: &mut [Word], region: Region, idx: &[Word], val: &[Word]) {
    let n = idx.len();
    let len = words.len();
    let mut p = 0;
    while p + LANES <= n {
        unsafe {
            let vi = load4(idx, p);
            if out_of_range(vi, len) != 0 {
                for &i in &idx[p..p + LANES] {
                    let _ = checked_index(len, region, i);
                }
                bad_index(region, idx[p]);
            }
        }
        // No scatter instruction in AVX2: scalar stores, in element order,
        // which is exactly last-wins.
        words[idx[p] as usize] = val[p];
        words[idx[p + 1] as usize] = val[p + 1];
        words[idx[p + 2] as usize] = val[p + 2];
        words[idx[p + 3] as usize] = val[p + 3];
        p += LANES;
    }
    for q in p..n {
        words[checked_index(len, region, idx[q])] = val[q];
    }
}

#[target_feature(enable = "avx2")]
unsafe fn alu_kernel(op: AluOp, a: &[Word], b: &[Word], out: &mut [Word]) {
    let n = a.len();
    let mut p = 0;
    while p + LANES <= n {
        unsafe {
            let va = load4(a, p);
            let vb = load4(b, p);
            let r = match op {
                AluOp::Add => _mm256_add_epi64(va, vb),
                AluOp::Sub => _mm256_sub_epi64(va, vb),
                AluOp::And => _mm256_and_si256(va, vb),
                AluOp::Or => _mm256_or_si256(va, vb),
                AluOp::Xor => _mm256_xor_si256(va, vb),
                AluOp::Shl => {
                    // wrapping_shl(b as u32) keeps the low six bits of b.
                    let cnt = _mm256_and_si256(vb, _mm256_set1_epi64x(63));
                    _mm256_sllv_epi64(va, cnt)
                }
                AluOp::Min => {
                    let gt = _mm256_cmpgt_epi64(va, vb);
                    _mm256_blendv_epi8(va, vb, gt)
                }
                AluOp::Max => {
                    let gt = _mm256_cmpgt_epi64(va, vb);
                    _mm256_blendv_epi8(vb, va, gt)
                }
                _ => unreachable!("scalar-path op {op:?} reached the AVX2 ALU kernel"),
            };
            store4(out, p, r);
        }
        p += LANES;
    }
    for q in p..n {
        out[q] = op
            .checked_apply(a[q], b[q])
            .expect("non-trapping op in AVX2 ALU kernel");
    }
}

#[target_feature(enable = "avx2")]
unsafe fn cmp_kernel(op: CmpOp, a: &[Word], b: &[Word], out: &mut [bool]) {
    let n = a.len();
    let mut p = 0;
    while p + LANES <= n {
        let (bits, invert) = unsafe {
            let va = load4(a, p);
            let vb = load4(b, p);
            match op {
                CmpOp::Eq => (lane_signs(_mm256_cmpeq_epi64(va, vb)), false),
                CmpOp::Ne => (lane_signs(_mm256_cmpeq_epi64(va, vb)), true),
                CmpOp::Gt => (lane_signs(_mm256_cmpgt_epi64(va, vb)), false),
                CmpOp::Le => (lane_signs(_mm256_cmpgt_epi64(va, vb)), true),
                CmpOp::Lt => (lane_signs(_mm256_cmpgt_epi64(vb, va)), false),
                CmpOp::Ge => (lane_signs(_mm256_cmpgt_epi64(vb, va)), true),
            }
        };
        for k in 0..LANES {
            out[p + k] = (((bits >> k) & 1) != 0) != invert;
        }
        p += LANES;
    }
    for q in p..n {
        out[q] = op.apply(a[q], b[q]);
    }
}

#[target_feature(enable = "avx2")]
unsafe fn compress_kernel(a: &[Word], mask: &[bool], out: &mut Vec<Word>) {
    let n = a.len();
    assert!(mask.len() >= n, "compress mask shorter than its vector");
    // Spare capacity (never zeroed) with slack so every 4-wide store stays
    // in bounds even mid-pack; the length is set to the true popcount once
    // every element is written.
    out.clear();
    out.reserve(n + 2 * LANES);
    let dst = out.as_mut_ptr();
    let mask_bytes = mask.as_ptr() as *const u8;
    let mut packed = 0usize;
    let mut p = 0;
    while p + 2 * LANES <= n {
        unsafe {
            // Eight mask bytes (guaranteed 0x00/0x01) in one load; the
            // multiply folds them into an 8-bit mask, low lane first.
            let m8 = (mask_bytes.add(p) as *const u64).read_unaligned();
            let bits = (m8.wrapping_mul(0x0102_0408_1020_4080) >> 56) as usize;
            let m0 = bits & 0xF;
            let m1 = bits >> 4;
            let va0 = load4(a, p);
            let va1 = load4(a, p + LANES);
            let perm0 = _mm256_loadu_si256(COMPRESS_LUT[m0].as_ptr() as *const __m256i);
            let perm1 = _mm256_loadu_si256(COMPRESS_LUT[m1].as_ptr() as *const __m256i);
            _mm256_storeu_si256(
                dst.add(packed) as *mut __m256i,
                _mm256_permutevar8x32_epi32(va0, perm0),
            );
            let mid = packed + m0.count_ones() as usize;
            _mm256_storeu_si256(
                dst.add(mid) as *mut __m256i,
                _mm256_permutevar8x32_epi32(va1, perm1),
            );
            packed = mid + m1.count_ones() as usize;
        }
        p += 2 * LANES;
    }
    for q in p..n {
        if mask[q] {
            unsafe { *dst.add(packed) = a[q] };
            packed += 1;
        }
    }
    // SAFETY: out[0..packed] fully written above; packed <= n < capacity.
    unsafe { out.set_len(packed) };
}

#[target_feature(enable = "avx2")]
unsafe fn sum_kernel(a: &[Word]) -> Word {
    let n = a.len();
    let mut acc = _mm256_setzero_si256();
    let mut p = 0;
    while p + LANES <= n {
        unsafe {
            acc = _mm256_add_epi64(acc, load4(a, p));
        }
        p += LANES;
    }
    let mut lanes = [0i64; LANES];
    unsafe {
        _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, acc);
    }
    let mut total = lanes.iter().copied().fold(0i64, i64::wrapping_add);
    for &x in &a[p..] {
        total = total.wrapping_add(x);
    }
    total
}

impl LaneEngine for Avx2Engine {
    fn kind(&self) -> BackendKind {
        BackendKind::Avx2
    }

    #[track_caller]
    fn gather(&self, words: &[Word], region: Region, idx: &[Word]) -> Vec<Word> {
        if words.is_empty() {
            // The kernel's clamp targets index 0; with an empty table every
            // index is invalid, so take the canonical scalar panic path.
            return self.scalar.gather(words, region, idx);
        }
        let n = idx.len();
        let mut out: Vec<Word> = Vec::with_capacity(n);
        // SAFETY: constructor asserted AVX2; the kernel writes all n slots
        // through the raw pointer (or panics, leaving the length at 0).
        unsafe {
            gather_kernel(words, region, idx, out.as_mut_ptr());
            out.set_len(n);
        }
        out
    }

    #[track_caller]
    fn scatter_last_wins(&self, words: &mut [Word], region: Region, idx: &[Word], val: &[Word]) {
        // SAFETY: constructor asserted AVX2.
        unsafe { scatter_kernel(words, region, idx, val) };
    }

    fn alu(&self, op: AluOp, a: &[Word], b: &[Word]) -> Result<Vec<Word>, usize> {
        match op {
            AluOp::Add
            | AluOp::Sub
            | AluOp::And
            | AluOp::Or
            | AluOp::Xor
            | AluOp::Shl
            | AluOp::Min
            | AluOp::Max => {
                let mut out = vec![0; a.len()];
                // SAFETY: constructor asserted AVX2.
                unsafe { alu_kernel(op, a, b, &mut out) };
                Ok(out)
            }
            _ => self.scalar.alu(op, a, b),
        }
    }

    fn alu_s(&self, op: AluOp, a: &[Word], s: Word) -> Result<Vec<Word>, usize> {
        match op {
            AluOp::Add
            | AluOp::Sub
            | AluOp::And
            | AluOp::Or
            | AluOp::Xor
            | AluOp::Shl
            | AluOp::Min
            | AluOp::Max => {
                let b = vec![s; a.len()];
                let mut out = vec![0; a.len()];
                // SAFETY: constructor asserted AVX2.
                unsafe { alu_kernel(op, a, &b, &mut out) };
                Ok(out)
            }
            _ => self.scalar.alu_s(op, a, s),
        }
    }

    fn cmp(&self, op: CmpOp, a: &[Word], b: &[Word]) -> Vec<bool> {
        let mut out = vec![false; a.len()];
        // SAFETY: constructor asserted AVX2.
        unsafe { cmp_kernel(op, a, b, &mut out) };
        out
    }

    fn cmp_s(&self, op: CmpOp, a: &[Word], s: Word) -> Vec<bool> {
        let b = vec![s; a.len()];
        let mut out = vec![false; a.len()];
        // SAFETY: constructor asserted AVX2.
        unsafe { cmp_kernel(op, a, &b, &mut out) };
        out
    }

    fn compress(&self, a: &[Word], mask: &[bool]) -> Vec<Word> {
        let mut out = Vec::new();
        // SAFETY: constructor asserted AVX2.
        unsafe { compress_kernel(a, mask, &mut out) };
        out
    }

    fn sum(&self, a: &[Word]) -> Word {
        // SAFETY: constructor asserted AVX2.
        unsafe { sum_kernel(a) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fol_vm::memory::Memory;

    fn hw() -> Option<Avx2Engine> {
        std::arch::is_x86_feature_detected!("avx2").then(Avx2Engine::new)
    }

    #[test]
    fn compress_lut_left_packs() {
        // Lane mask 0b0101 keeps 64-bit lanes 0 and 2 → i32 slots 0,1,4,5.
        assert_eq!(COMPRESS_LUT[0b0101][..4], [0, 1, 4, 5]);
        assert_eq!(COMPRESS_LUT[0b1111][..8], [0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(COMPRESS_LUT[0b1000][..2], [6, 7]);
    }

    #[test]
    fn avx2_matches_scalar_on_specialized_kernels() {
        let Some(e) = hw() else {
            eprintln!("skipping: AVX2 not detected");
            return;
        };
        let scalar = ScalarEngine;
        let mut mem = Memory::new();
        let region = mem.alloc(32, "r");
        for n in [0usize, 1, 3, 4, 5, 7, 8, 9, 33, 100] {
            let a: Vec<Word> = (0..n as Word)
                .map(|i| i.wrapping_mul(0x9E37) - 50)
                .collect();
            let b: Vec<Word> = (0..n as Word).map(|i| (i % 11) - 5).collect();
            let idx: Vec<Word> = (0..n as Word).map(|i| (i * 13) % 32).collect();
            let mask: Vec<bool> = (0..n).map(|i| i % 3 != 1).collect();
            let mut w1 = vec![0; 32];
            let mut w2 = vec![0; 32];
            scalar.scatter_last_wins(&mut w1, region, &idx, &a);
            e.scatter_last_wins(&mut w2, region, &idx, &a);
            assert_eq!(w1, w2, "scatter n={n}");
            assert_eq!(
                scalar.gather(&w1, region, &idx),
                e.gather(&w2, region, &idx),
                "gather n={n}"
            );
            for op in [
                AluOp::Add,
                AluOp::Sub,
                AluOp::And,
                AluOp::Or,
                AluOp::Xor,
                AluOp::Shl,
                AluOp::Min,
                AluOp::Max,
                AluOp::Mul,
                AluOp::Div,
                AluOp::Shr,
            ] {
                assert_eq!(e.alu(op, &a, &b), scalar.alu(op, &a, &b), "{op:?} n={n}");
                assert_eq!(
                    e.alu_s(op, &a, 3),
                    scalar.alu_s(op, &a, 3),
                    "{op:?}_s n={n}"
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
                assert_eq!(e.cmp(op, &a, &b), scalar.cmp(op, &a, &b), "{op:?} n={n}");
                assert_eq!(e.cmp_s(op, &a, 0), scalar.cmp_s(op, &a, 0));
            }
            assert_eq!(
                e.compress(&a, &mask),
                scalar.compress(&a, &mask),
                "compress n={n}"
            );
            assert_eq!(e.sum(&a), scalar.sum(&a), "sum n={n}");
        }
    }

    #[test]
    fn shift_count_masking_matches_wrapping_shl() {
        let Some(e) = hw() else {
            eprintln!("skipping: AVX2 not detected");
            return;
        };
        let a = vec![1, 1, -8, 5];
        let b = vec![65, -1, 2, 70];
        assert_eq!(
            e.alu(AluOp::Shl, &a, &b).unwrap(),
            vec![2, i64::MIN, -32, 320]
        );
    }

    #[test]
    fn gather_panic_message_is_canonical() {
        let Some(e) = hw() else {
            eprintln!("skipping: AVX2 not detected");
            return;
        };
        let mut mem = Memory::new();
        let r = mem.alloc(8, "r");
        let words = vec![0; 8];
        let err = std::panic::catch_unwind(|| e.gather(&words, r, &[0, 1, -3, 2])).unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("negative index -3 into Region[0..8]"), "{msg}");
        let err = std::panic::catch_unwind(|| e.gather(&words, r, &[0, 1, 2, 99])).unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(
            msg.contains("index 99 out of bounds of Region[0..8]"),
            "{msg}"
        );

        // Bad lane inside the unrolled main loop (n >= 16), with a second
        // offender later: the panic must name the *first* one.
        let mut idx: Vec<Word> = (0..20).map(|i| i % 8).collect();
        idx[5] = -2;
        idx[17] = 64;
        let err = std::panic::catch_unwind(|| e.gather(&words, r, &idx)).unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("negative index -2 into Region[0..8]"), "{msg}");

        // Bad lane only in the scalar tail.
        let mut idx: Vec<Word> = (0..19).map(|i| i % 8).collect();
        idx[18] = 8;
        let err = std::panic::catch_unwind(|| e.gather(&words, r, &idx)).unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(
            msg.contains("index 8 out of bounds of Region[0..8]"),
            "{msg}"
        );

        // Empty table: every index is out of range, canonical message.
        let empty = mem.alloc(0, "empty");
        let err = std::panic::catch_unwind(|| e.gather(&[], empty, &[0])).unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("index 0 out of bounds of Region"), "{msg}");
    }
}
