//! `compare`: two sets of result files, per workload × metric, judged
//! against the bounds in `BENCHMARK.json`.

use crate::catalog::Better;
use crate::json::Json;
use crate::result::RunResult;
use crate::stats::quartiles;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// What a metric did from the baseline set to the candidate set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Improved by more than the baseline's own spread.
    Better,
    /// Within the bound, and no gain beyond the spread.
    Unchanged,
    /// Worse by more than the bound.
    Worse,
    /// The runs spread wider than the bound: no verdict either way.
    Unresolved,
}

impl Verdict {
    /// Lowercase label.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Unchanged => "unchanged",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// An end-to-end metric's bound as `BENCHMARK.json` states it.
#[derive(Clone, Debug)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Direction of improvement.
    pub better: Better,
    /// Allowed worsening as a share of the baseline median.
    pub bound: f64,
}

/// Reads the `end_to_end` table of a `BENCHMARK.json`.
pub fn load_bounds(path: &Path) -> Result<Vec<Bound>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    doc.get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without name")?;
            let better = match m.get("better").and_then(Json::as_str) {
                Some("higher") => Better::Higher,
                Some("lower") => Better::Lower,
                other => return Err(format!("{name}: bad \"better\" {other:?}")),
            };
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or(format!("{name}: no bound"))?;
            Ok(Bound {
                name: name.to_string(),
                better,
                bound,
            })
        })
        .collect()
}

/// Reads every `*.json` result file in `dir`.
pub fn load_set(dir: &Path) -> Result<Vec<RunResult>, String> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("read {}: {e}", dir.display()))?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|p| {
            let text =
                std::fs::read_to_string(p).map_err(|e| format!("read {}: {e}", p.display()))?;
            let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))?;
            RunResult::from_json(&doc).map_err(|e| format!("{}: {e}", p.display()))
        })
        .collect()
}

/// The verdict on one metric: `base` and `cand` are the per-run values of
/// the two sets.
pub fn verdict(base: &[f64], cand: &[f64], better: Better, bound: f64) -> Verdict {
    let [a1, am, a3] = quartiles(base);
    let [b1, bm, b3] = quartiles(cand);
    let worse_by = match better {
        Better::Lower => (bm - am) / am,
        Better::Higher => (am - bm) / am,
    };
    let base_spread = (a3 - a1) / am.abs();
    let spread = base_spread.max((b3 - b1) / bm.abs());
    let beats = |x: f64, y: f64| match better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    let separated = base.len() >= 3 && cand.len() >= 3;
    let all_better = separated && cand.iter().all(|&c| base.iter().all(|&b| beats(c, b)));
    let all_worse = separated && cand.iter().all(|&c| base.iter().all(|&b| beats(b, c)));
    if spread > bound {
        return if all_better {
            Verdict::Better
        } else if all_worse && worse_by > bound {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > bound {
        Verdict::Worse
    } else if -worse_by > base_spread && worse_by < 0.0 {
        Verdict::Better
    } else {
        Verdict::Unchanged
    }
}

fn values_by_metric(set: &[RunResult]) -> BTreeMap<(String, String), Vec<f64>> {
    let mut out: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for r in set {
        for m in &r.metrics {
            out.entry((r.workload.clone(), m.name.clone()))
                .or_default()
                .push(m.value);
        }
    }
    out
}

/// The comparison table, and whether any metric got worse.
pub fn compare(base: &[RunResult], cand: &[RunResult], bounds: &[Bound]) -> (String, bool) {
    let a = values_by_metric(base);
    let b = values_by_metric(cand);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<15} {:<40} {:>12} {:>12} {:>8} {:>7} {:>7} {:>6}  verdict",
        "workload", "metric", "base med", "cand med", "change", "sprd A", "sprd B", "bound"
    );
    let mut any_worse = false;
    for ((workload, name), base_vals) in &a {
        let Some(cand_vals) = b.get(&(workload.clone(), name.clone())) else {
            continue;
        };
        let [a1, am, a3] = quartiles(base_vals);
        let [b1, bm, b3] = quartiles(cand_vals);
        let bound = bounds.iter().find(|x| &x.name == name);
        let label = match bound {
            Some(x) => {
                let v = verdict(base_vals, cand_vals, x.better, x.bound);
                any_worse |= v == Verdict::Worse;
                v.as_str()
            }
            None => "-",
        };
        let _ = writeln!(
            out,
            "{:<15} {:<40} {:>12.5} {:>12.5} {:>7.1}% {:>6.1}% {:>6.1}% {:>6}  {} (n={}/{}, base q1..q3 {:.5}..{:.5}, cand {:.5}..{:.5})",
            workload,
            name,
            am,
            bm,
            100.0 * (bm - am) / am.abs(),
            100.0 * (a3 - a1) / am.abs(),
            100.0 * (b3 - b1) / bm.abs(),
            bound.map_or("-".to_string(), |x| format!("{:.2}", x.bound)),
            label,
            base_vals.len(),
            cand_vals.len(),
            a1,
            a3,
            b1,
            b3,
        );
    }
    (out, any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let base = [10.0, 10.1, 9.9, 10.0, 10.05];
        let slower = [12.0, 12.1, 11.9, 12.0, 12.05];
        let faster = [9.0, 9.1, 8.9, 9.0, 9.05];
        assert_eq!(verdict(&base, &slower, Better::Lower, 0.1), Verdict::Worse);
        assert_eq!(verdict(&base, &faster, Better::Lower, 0.1), Verdict::Better);
        assert_eq!(
            verdict(&base, &base, Better::Lower, 0.1),
            Verdict::Unchanged
        );
        let noisy = [5.0, 15.0, 10.0, 7.0, 13.0];
        assert_eq!(
            verdict(&base, &noisy, Better::Lower, 0.1),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&base, &slower, Better::Higher, 0.1),
            Verdict::Better
        );
    }
}
