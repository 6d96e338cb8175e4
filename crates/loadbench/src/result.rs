//! Run results: the per-run JSON file that `compare` reads, and the
//! one-line summary printed last on standard output.

use crate::json::Json;

/// One reported metric value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Catalogue name.
    pub name: String,
    /// The measured value, unrounded.
    pub value: f64,
    /// Unit string.
    pub unit: String,
    /// How many samples the value summarises (requests for latency
    /// quantiles, repetitions or windows for medians of rates).
    pub samples: u64,
}

/// Where and on what a result was measured.
#[derive(Clone, Debug, PartialEq)]
pub struct Stamp {
    /// Source revision, as passed with `--rev` (`unknown` when not given).
    pub rev: String,
    /// Hardware threads available to the process.
    pub nproc: usize,
    /// CPU features detected at run time (`fol_simd::detected_features`).
    pub cpu_features: Vec<String>,
    /// The execution backend every worker machine ran on.
    pub backend: String,
}

impl Stamp {
    /// The stamp of this process, with the given revision.
    pub fn here(rev: &str, backend: fol_vm::BackendKind) -> Self {
        Stamp {
            rev: rev.to_string(),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_features: fol_simd::detected_features()
                .iter()
                .map(|f| f.to_string())
                .collect(),
            backend: format!("{backend:?}"),
        }
    }
}

/// Everything one benchmark invocation measured for one workload.
#[derive(Clone, Debug, PartialEq)]
pub struct RunResult {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds asked for.
    pub seconds: f64,
    /// Whether this was the traced run (per-layer metrics) or not
    /// (end-to-end metrics).
    pub trace: bool,
    /// Whether every correctness check passed.
    pub correct: bool,
    /// Requests attempted in the measured part of the run.
    pub attempted: u64,
    /// Of those, requests refused or failed.
    pub failed: u64,
    /// The metrics, in catalogue order.
    pub metrics: Vec<Metric>,
    /// Measurement provenance.
    pub stamp: Stamp,
}

impl RunResult {
    /// The metric called `name`.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The full result as JSON (the file format `compare` reads).
    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(m.value)),
                        ("unit".into(), Json::Str(m.unit.clone())),
                        ("samples".into(), Json::Num(m.samples as f64)),
                    ]),
                )
            })
            .collect();
        let s = &self.stamp;
        Json::Obj(vec![
            ("workload".into(), Json::Str(self.workload.clone())),
            ("seed".into(), Json::Num(self.seed as f64)),
            ("seconds".into(), Json::Num(self.seconds)),
            ("trace".into(), Json::Bool(self.trace)),
            ("correct".into(), Json::Bool(self.correct)),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), Json::Obj(metrics)),
            (
                "stamp".into(),
                Json::Obj(vec![
                    ("rev".into(), Json::Str(s.rev.clone())),
                    ("nproc".into(), Json::Num(s.nproc as f64)),
                    (
                        "cpu_features".into(),
                        Json::Arr(
                            s.cpu_features
                                .iter()
                                .map(|f| Json::Str(f.clone()))
                                .collect(),
                        ),
                    ),
                    ("backend".into(), Json::Str(s.backend.clone())),
                ]),
            ),
        ])
    }

    /// Reads a result back from [`RunResult::to_json`]'s format.
    pub fn from_json(v: &Json) -> Result<RunResult, String> {
        let str_of = |v: &Json, k: &str| -> Result<String, String> {
            v.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or(format!("missing string {k:?}"))
        };
        let num_of = |v: &Json, k: &str| -> Result<f64, String> {
            v.get(k)
                .and_then(Json::as_f64)
                .ok_or(format!("missing number {k:?}"))
        };
        let bool_of = |v: &Json, k: &str| -> Result<bool, String> {
            match v.get(k) {
                Some(Json::Bool(b)) => Ok(*b),
                _ => Err(format!("missing bool {k:?}")),
            }
        };
        let Some(Json::Obj(members)) = v.get("metrics") else {
            return Err("missing object \"metrics\"".into());
        };
        let metrics = members
            .iter()
            .map(|(name, m)| {
                Ok(Metric {
                    name: name.clone(),
                    value: num_of(m, "value")?,
                    unit: str_of(m, "unit")?,
                    samples: num_of(m, "samples")? as u64,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let s = v.get("stamp").ok_or("missing object \"stamp\"")?;
        let cpu_features = s
            .get("cpu_features")
            .and_then(Json::as_arr)
            .ok_or("missing array \"cpu_features\"")?
            .iter()
            .map(|f| f.as_str().map(str::to_string).ok_or("non-string feature"))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(RunResult {
            workload: str_of(v, "workload")?,
            seed: num_of(v, "seed")? as u64,
            seconds: num_of(v, "seconds")?,
            trace: bool_of(v, "trace")?,
            correct: bool_of(v, "correct")?,
            attempted: num_of(v, "attempted")? as u64,
            failed: num_of(v, "failed")? as u64,
            metrics,
            stamp: Stamp {
                rev: str_of(s, "rev")?,
                nproc: num_of(s, "nproc")? as usize,
                cpu_features,
                backend: str_of(s, "backend")?,
            },
        })
    }

    /// The summary line: `correct`, `attempted`, `failed` and each
    /// metric's value and unit — nothing else.
    pub fn summary_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(m.value)),
                        ("unit".into(), Json::Str(m.unit.clone())),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct)),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
        .render()
    }

    /// Human-readable lines: one per metric with unit and sample count.
    pub fn report_lines(&self) -> Vec<String> {
        self.metrics
            .iter()
            .map(|m| {
                format!(
                    "{:<15} {:<42} {:>16} {:<9} n={}",
                    self.workload,
                    m.name,
                    format_value(m.value),
                    m.unit,
                    m.samples
                )
            })
            .collect()
    }
}

fn format_value(v: f64) -> String {
    if v != 0.0 && (v.abs() >= 1e6 || v.abs() < 1e-3) {
        format!("{v:.4e}")
    } else {
        format!("{v:.4}")
    }
}
