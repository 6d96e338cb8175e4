//! Paper-style table/series printers for the `repro_*` binaries.

use crate::experiments::{BstPoint, HashPoint, ProbeAblationPoint, SortRow};
use std::fmt::Write as _;

/// Assumed clock period for cycles → microseconds conversion: the S-810 ran
/// at a 14 ns machine cycle (~71 MHz). Purely presentational — all
/// comparisons in EXPERIMENTS.md are ratios.
pub const S810_NS_PER_CYCLE: f64 = 14.0;

/// Converts modelled cycles to S-810-equivalent microseconds.
pub fn cycles_to_us(cycles: u64) -> f64 {
    cycles as f64 * S810_NS_PER_CYCLE / 1000.0
}

/// The fragment [`engine_fields`] returns, for an engine named `backend`.
fn backend_fields(backend: &str) -> String {
    let features = fol_simd::detected_features()
        .iter()
        .map(|f| format!("\"{f}\""))
        .collect::<Vec<_>>()
        .join(",");
    format!("\"backend\":\"{backend}\",\"cpu_features\":[{features}]")
}

/// JSON fragment (no braces) stamping a bench artifact with the execution
/// backend it ran on and the CPU features detected at run time, e.g.
/// `"backend":"avx2","cpu_features":["avx","avx2"]`. Every artifact writer
/// splices this in so perf trajectories recorded on different machines —
/// or different backends — stay attributable. `kind` is the backend the
/// artifact's machines were built on; the fragment names the engine that
/// actually ran, since an AVX2 request on a host without it runs the
/// scalar engine.
pub fn engine_fields(kind: fol_vm::BackendKind) -> String {
    backend_fields(fol_simd::engine_for(kind).kind().as_str())
}

/// Renders Fig 9's series (CPU time vs load factor) for one table size.
pub fn fig9_table(table_size: usize, points: &[HashPoint]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Fig 9 — multiple hashing CPU time (modelled cycles; µs at a 14 ns clock), N = {table_size}"
    );
    let _ = writeln!(
        s,
        "{:>6} {:>7} {:>14} {:>14} {:>10} {:>10} {:>6}",
        "LF", "keys", "scalar", "vector", "scalar µs", "vector µs", "iters"
    );
    for p in points {
        let _ = writeln!(
            s,
            "{:>6.2} {:>7} {:>14} {:>14} {:>10.1} {:>10.1} {:>6}",
            p.load_factor,
            p.keys,
            p.scalar_cycles,
            p.vector_cycles,
            cycles_to_us(p.scalar_cycles),
            cycles_to_us(p.vector_cycles),
            p.iterations
        );
    }
    s
}

/// Renders Fig 10's series (acceleration ratio vs load factor).
pub fn fig10_table(table_size: usize, points: &[HashPoint]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Fig 10 — multiple hashing acceleration ratio, N = {table_size}"
    );
    let _ = writeln!(s, "{:>6} {:>8}", "LF", "accel");
    for p in points {
        let _ = writeln!(s, "{:>6.2} {:>8.2}", p.load_factor, p.accel());
    }
    let peak = points.iter().max_by(|a, b| a.accel().total_cmp(&b.accel()));
    if let Some(p) = peak {
        let _ = writeln!(
            s,
            "peak: {:.2}x at load factor {:.2}",
            p.accel(),
            p.load_factor
        );
    }
    s
}

/// Renders one half of Table 1.
pub fn table1(title: &str, rows: &[SortRow], paper_ratios: &[(usize, f64)]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "Table 1 — {title} (modelled cycles)");
    let _ = writeln!(
        s,
        "{:>8} {:>14} {:>14} {:>8} {:>12}",
        "N", "scalar", "vector", "accel", "paper accel"
    );
    for row in rows {
        let paper = paper_ratios
            .iter()
            .find(|(n, _)| *n == row.n)
            .map(|(_, r)| format!("{r:.2}"))
            .unwrap_or_else(|| "-".to_string());
        let _ = writeln!(
            s,
            "{:>8} {:>14} {:>14} {:>8.2} {:>12}",
            row.n,
            row.scalar_cycles,
            row.vector_cycles,
            row.accel(),
            paper
        );
    }
    s
}

/// Renders Fig 14's family of curves.
pub fn fig14_table(points: &[BstPoint]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "Fig 14 — BST multi-insert acceleration ratio");
    let _ = writeln!(
        s,
        "{:>6} {:>8} {:>14} {:>14} {:>8}",
        "Ni", "entered", "scalar", "vector", "accel"
    );
    for p in points {
        let _ = writeln!(
            s,
            "{:>6} {:>8} {:>14} {:>14} {:>8.2}",
            p.initial,
            p.entered,
            p.scalar_cycles,
            p.vector_cycles,
            p.accel()
        );
    }
    s
}

/// Renders the A-1 probe ablation.
pub fn probe_ablation_table(table_size: usize, points: &[ProbeAblationPoint]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Ablation A-1 — probe recalculation, vectorized runs, N = {table_size}"
    );
    let _ = writeln!(
        s,
        "{:>6} {:>14} {:>6} {:>14} {:>6} {:>9}",
        "LF", "+1 cycles", "iters", "keydep cyc", "iters", "keydep/+1"
    );
    for p in points {
        let _ = writeln!(
            s,
            "{:>6.2} {:>14} {:>6} {:>14} {:>6} {:>9.2}",
            p.load_factor,
            p.linear_cycles,
            p.linear_iterations,
            p.keydep_cycles,
            p.keydep_iterations,
            p.keydep_cycles as f64 / p.linear_cycles as f64
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hash_point() -> HashPoint {
        HashPoint {
            load_factor: 0.5,
            keys: 260,
            scalar_cycles: 1000,
            vector_cycles: 200,
            iterations: 5,
        }
    }

    #[test]
    fn fig9_contains_data() {
        let s = fig9_table(521, &[hash_point()]);
        assert!(s.contains("521"));
        assert!(s.contains("260"));
        assert!(s.contains("1000"));
        assert!(s.contains("14.0"), "1000 cycles at 14ns = 14 µs");
    }

    #[test]
    fn backend_fields_are_valid_json_fragments() {
        let s = backend_fields("scalar");
        assert!(s.starts_with("\"backend\":\"scalar\",\"cpu_features\":["));
        assert!(s.ends_with(']'));
        // Splicing into an object must parse shape-wise: balanced quotes,
        // no trailing comma.
        assert!(!s.contains(",]"));
        if fol_simd::avx2_available() {
            assert!(s.contains("\"avx2\""));
        }
    }

    #[test]
    fn cycle_conversion() {
        assert!((cycles_to_us(1000) - 14.0).abs() < 1e-9);
        assert_eq!(cycles_to_us(0), 0.0);
    }

    #[test]
    fn fig10_reports_peak() {
        let s = fig10_table(521, &[hash_point()]);
        assert!(s.contains("peak: 5.00x at load factor 0.50"));
    }

    #[test]
    fn table1_shows_paper_column() {
        let rows = vec![SortRow {
            n: 64,
            scalar_cycles: 500,
            vector_cycles: 100,
        }];
        let s = table1("address calculation sorting", &rows, &[(64, 2.62)]);
        assert!(s.contains("2.62"));
        assert!(s.contains("5.00"));
    }

    #[test]
    fn fig14_renders_rows() {
        let pts = vec![BstPoint {
            initial: 8,
            entered: 100,
            scalar_cycles: 300,
            vector_cycles: 150,
        }];
        let s = fig14_table(&pts);
        assert!(s.contains("2.00"));
    }

    #[test]
    fn ablation_renders() {
        let pts = vec![ProbeAblationPoint {
            load_factor: 0.7,
            linear_cycles: 100,
            linear_iterations: 9,
            keydep_cycles: 50,
            keydep_iterations: 4,
        }];
        let s = probe_ablation_table(521, &pts);
        assert!(s.contains("0.50"));
    }
}
