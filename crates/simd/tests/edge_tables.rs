//! Edge-case tables for the hardware kernels, pinned at the widths where
//! the AVX2 implementations change shape: the 4-lane vector width, the
//! gather kernel's ×4-unrolled 16-element blocks, and the compress
//! kernel's ×2-unrolled 16-element blocks. Every engine cell runs the
//! scalar and AVX2 engines on identical inputs and checks each against a
//! definition written in the test, so the tables double as a
//! boundary-condition differential suite. The mask-compress and
//! masked-scatter cells check the machine's one implementation of those
//! kernels, which no engine replaces, against the same definitions.
//!
//! Without AVX2 (or with `--no-default-features`) the avx2 slot resolves
//! to the scalar engine, and every cell still checks it against the
//! test's definitions.

use fol_simd::{engine_for, BackendKind, LaneEngine};
use fol_vm::{CostModel, Machine, Mask, Region, VReg, Word};

/// Lengths straddling every internal block boundary of the kernels:
/// the empty and singleton cases, the 4-lane width (3/4/5), the 8-element
/// compress block (7/8/9), and the 16-element unrolled blocks (15/16/17),
/// plus one comfortably-large ragged length.
const BOUNDARY_LENGTHS: [usize; 12] = [0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17];

fn engines() -> Vec<Box<dyn LaneEngine>> {
    vec![
        engine_for(BackendKind::Scalar),
        engine_for(BackendKind::Avx2),
    ]
}

/// A region handle for error attribution plus a machine keeping it alive.
fn region(len: usize) -> (Machine, Region) {
    let mut m = Machine::new(CostModel::unit());
    let r = m.alloc(len.max(1), "edge.table");
    (m, r)
}

/// The machine's masked scatter into a fresh `table`-word region holding
/// [`words`], returning the region afterwards. A fresh machine has no
/// fault plan, journal or tracked region, so the store takes the data-plane
/// path that every engine shares.
fn machine_masked_scatter(table: usize, idx: &[Word], val: &[Word], mask: &[bool]) -> Vec<Word> {
    let (mut m, r) = region(table);
    m.mem_mut().write_region(r, &words(table));
    m.scatter_masked(
        r,
        &VReg::from_vec(idx.to_vec()),
        &VReg::from_vec(val.to_vec()),
        &Mask::from_vec(mask.to_vec()),
    );
    m.mem().read_region(r)
}

fn words(n: usize) -> Vec<Word> {
    (0..n).map(|i| (i as Word) * 31 - 7).collect()
}

/// Deterministic mask patterns exercising the interesting shapes at length
/// `n`: empty/full, alternating phase A/B, a lone true at each boundary
/// position, and a pseudo-random fill.
fn mask_patterns(n: usize) -> Vec<(String, Vec<bool>)> {
    let mut patterns = vec![
        ("all-false".into(), vec![false; n]),
        ("all-true".into(), vec![true; n]),
        ("even".into(), (0..n).map(|i| i % 2 == 0).collect()),
        ("odd".into(), (0..n).map(|i| i % 2 == 1).collect()),
        (
            "lcg".into(),
            (0..n).map(|i| (i * 2654435761) % 7 < 3).collect(),
        ),
    ];
    // A lone survivor at the first, last, and each block-boundary lane.
    for pos in [0, 3, 4, 7, 8, 15, n.saturating_sub(1)] {
        if pos < n {
            let mut m = vec![false; n];
            m[pos] = true;
            patterns.push((format!("lone-{pos}"), m));
        }
    }
    patterns
}

#[test]
fn compress_agrees_at_every_boundary_and_mask_shape() {
    let engines = engines();
    for n in BOUNDARY_LENGTHS {
        let a = words(n);
        for (pattern, mask) in mask_patterns(n) {
            let reference: Vec<Word> = a
                .iter()
                .zip(&mask)
                .filter(|(_, &keep)| keep)
                .map(|(&w, _)| w)
                .collect();
            for e in &engines {
                assert_eq!(
                    e.compress(&a, &mask),
                    reference,
                    "compress n={n} mask={pattern} on {}",
                    e.kind()
                );
            }
        }
    }
}

#[test]
fn compress_mask_agrees_at_every_boundary_and_mask_shape() {
    let mut m = Machine::new(CostModel::unit());
    for n in BOUNDARY_LENGTHS {
        let bits: Vec<bool> = (0..n).map(|i| (i * 7) % 5 < 2).collect();
        for (pattern, mask) in mask_patterns(n) {
            let reference: Vec<bool> = bits
                .iter()
                .zip(&mask)
                .filter(|(_, &keep)| keep)
                .map(|(&b, _)| b)
                .collect();
            let got = m.compress_mask(&Mask::from_vec(bits.clone()), &Mask::from_vec(mask));
            assert_eq!(
                got.as_slice(),
                reference,
                "compress_mask n={n} mask={pattern}"
            );
        }
    }
}

/// Compress with a mask longer than the vector: the extra mask bits are
/// ignored (the machine's slow path zips and stops at the vector).
#[test]
fn compress_ignores_mask_overhang() {
    let engines = engines();
    let a = words(9);
    let mut mask = vec![true; 16];
    mask[1] = false;
    for e in &engines {
        let got = e.compress(&a, &mask);
        let want: Vec<Word> = a
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != 1)
            .map(|(_, &w)| w)
            .collect();
        assert_eq!(got, want, "mask overhang on {}", e.kind());
    }
}

#[test]
fn masked_scatter_agrees_at_every_boundary_and_mask_shape() {
    const TABLE: usize = 8;
    for n in BOUNDARY_LENGTHS {
        // Indices deliberately collide (duplicates resolved last-wins in
        // element order) and cover both ends of the table.
        let idx: Vec<Word> = (0..n).map(|i| ((i * 5 + 3) % TABLE) as Word).collect();
        let val: Vec<Word> = (0..n).map(|i| 1000 + i as Word).collect();
        for (pattern, mask) in mask_patterns(n) {
            // Host-side reference: filter then last-wins in element order.
            let mut reference = words(TABLE);
            for i in 0..n {
                if mask[i] {
                    reference[idx[i] as usize] = val[i];
                }
            }
            assert_eq!(
                machine_masked_scatter(TABLE, &idx, &val, &mask),
                reference,
                "masked scatter n={n} mask={pattern}"
            );
        }
    }
}

/// Suppressed lanes are never validated: a wild index under a false mask
/// bit must not panic on the data-plane path — exactly the machine's
/// filter-first slow path.
#[test]
fn masked_scatter_never_validates_suppressed_lanes() {
    const TABLE: usize = 8;
    for n in [1, 3, 4, 5, 8, 9, 16, 17] {
        // Every odd lane is wild (negative or far out of range) but masked
        // off; every even lane is a normal in-bounds write.
        let idx: Vec<Word> = (0..n)
            .map(|i| {
                if i % 2 == 1 {
                    if i % 4 == 1 {
                        -7
                    } else {
                        Word::MAX
                    }
                } else {
                    (i % TABLE) as Word
                }
            })
            .collect();
        let val: Vec<Word> = (0..n).map(|i| 2000 + i as Word).collect();
        let mask: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
        let mut reference = words(TABLE);
        for i in (0..n).step_by(2) {
            reference[idx[i] as usize] = val[i];
        }
        assert_eq!(
            machine_masked_scatter(TABLE, &idx, &val, &mask),
            reference,
            "wild suppressed lanes n={n}"
        );
    }
}

#[test]
fn gather_agrees_at_every_boundary_length() {
    let engines = engines();
    const TABLE: usize = 32;
    let table = words(TABLE);
    let (_m, r) = region(TABLE);
    for n in BOUNDARY_LENGTHS {
        // Walk covering both ends of the table, with duplicates.
        let idx: Vec<Word> = (0..n)
            .map(|i| ((i * 11 + (TABLE - 1)) % TABLE) as Word)
            .collect();
        let reference: Vec<Word> = idx.iter().map(|&i| table[i as usize]).collect();
        for e in &engines {
            assert_eq!(
                e.gather(&table, r, &idx),
                reference,
                "gather n={n} on {}",
                e.kind()
            );
        }
    }
}

/// Both engines report the same canonical panic for the same first
/// offending index, even when the bad lane hides in an unrolled block's
/// middle or in the scalar tail.
#[test]
fn gather_panic_messages_are_identical_across_engines() {
    const TABLE: usize = 16;
    let table = words(TABLE);
    let (_m, r) = region(TABLE);
    // (length, offending lane, offending index): one in the first vector
    // block, one mid-way through an unrolled block, one in the tail.
    let cases: [(usize, usize, Word); 4] = [
        (4, 2, TABLE as Word),
        (16, 9, -3),
        (17, 16, 999),
        (19, 5, -1),
    ];
    for (n, lane, bad) in cases {
        let mut idx: Vec<Word> = (0..n).map(|i| (i % TABLE) as Word).collect();
        idx[lane] = bad;
        let mut messages: Vec<String> = Vec::new();
        for e in engines() {
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                e.gather(&table, r, &idx)
            }))
            .expect_err("out-of-range gather must panic");
            let msg = err
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
                .expect("panic payload is a message");
            messages.push(msg);
        }
        assert_eq!(
            messages[0], messages[1],
            "scalar vs avx2 message (n={n} lane={lane})"
        );
        let expect = if bad < 0 {
            format!("negative index {bad} into")
        } else {
            format!("index {bad} out of bounds of")
        };
        assert!(
            messages[0].starts_with(&expect),
            "canonical form: got {:?}, want prefix {:?}",
            messages[0],
            expect
        );
    }
}

/// The first offender in element order wins even when a later lane is also
/// bad — on every engine, including the deferred-validation AVX2 path.
#[test]
fn gather_names_the_first_offender_in_element_order() {
    const TABLE: usize = 8;
    let table = words(TABLE);
    let (_m, r) = region(TABLE);
    let mut idx: Vec<Word> = (0..20).map(|i| (i % TABLE) as Word).collect();
    idx[6] = -4; // first offender, mid first unrolled block
    idx[18] = 100; // second offender, in the tail
    for e in engines() {
        let name = e.kind();
        let err =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| e.gather(&table, r, &idx)))
                .expect_err("must panic");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .expect("panic payload is a formatted message");
        assert!(
            msg.starts_with("negative index -4 into"),
            "{name}: first offender must win, got {msg:?}"
        );
    }
}
