//! Command line of the repository benchmark.
//!
//! ```text
//! fol-loadbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! fol-loadbench run     [--seed n] [--seconds s] [--workload name] [--out dir] [--rev rev]
//! fol-loadbench trace   [--seed n] [--seconds s] [--workload name] [--out dir] [--rev rev]
//! fol-loadbench compare <base-dir> <candidate-dir> [--bench BENCHMARK.json]
//! ```
//!
//! The first form runs one workload and prints, as the last line of
//! standard output, one JSON object with `correct`, `attempted`, `failed`
//! and the metrics (end-to-end untraced, per-layer traced). `run` and
//! `trace` run every workload (or one), print each metric with its unit
//! and sample count, and write one result file per workload into `--out`
//! (default `target/loadbench/` of the working directory), where traced
//! runs also leave their span files.

use fol_loadbench::compare;
use fol_loadbench::{run, Options, Plan, Workload};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  fol-loadbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n  \
         fol-loadbench run|trace [--seed n] [--seconds s] [--workload name] [--out dir] [--rev rev]\n  \
         fol-loadbench compare <base-dir> <candidate-dir> [--bench BENCHMARK.json]\n\
         workloads: {}",
        Workload::ALL.map(|w| w.name()).join(", ")
    );
    ExitCode::from(2)
}

struct Args {
    positional: Vec<String>,
    flags: Vec<(String, String)>,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut args = Args {
            positional: Vec::new(),
            flags: Vec::new(),
        };
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                let value = it.next().ok_or(format!("--{name} needs a value"))?;
                args.flags.push((name.to_string(), value.clone()));
            } else {
                args.positional.push(a.clone());
            }
        }
        Ok(args)
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn check_known(&self, known: &[&str]) -> Result<(), String> {
        match self
            .flags
            .iter()
            .find(|(k, _)| !known.contains(&k.as_str()))
        {
            Some((k, _)) => Err(format!("unknown flag --{k}")),
            None => Ok(()),
        }
    }

    fn seed(&self) -> Result<u64, String> {
        self.get("seed")
            .map_or(Ok(1), |s| s.parse().map_err(|_| format!("bad seed {s:?}")))
    }

    fn seconds(&self) -> Result<f64, String> {
        self.get("seconds")
            .map_or(Ok(fol_loadbench::RUN_SECONDS), |s| {
                s.parse::<f64>()
                    .ok()
                    .filter(|x| x.is_finite() && *x > 0.0 && *x <= 600.0)
                    .ok_or(format!("bad seconds {s:?}"))
            })
    }

    fn workloads(&self) -> Result<Vec<Workload>, String> {
        match self.get("workload") {
            None => Ok(Workload::ALL.to_vec()),
            Some(name) => Workload::parse(name)
                .map(|w| vec![w])
                .ok_or(format!("unknown workload {name:?}")),
        }
    }
}

fn default_out() -> PathBuf {
    Path::new("target").join("loadbench")
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return usage();
        }
    };
    let outcome = match args.positional.first().map(String::as_str) {
        None => single(&args),
        Some("run") => suite(&args, false),
        Some("trace") => suite(&args, true),
        Some("compare") => compare_sets(&args),
        Some(other) => Err(format!("unknown command {other:?}")),
    };
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("fol-loadbench: {e}");
            usage()
        }
    }
}

/// The one-workload form: report lines on standard error, the JSON
/// summary as the last line of standard output.
fn single(args: &Args) -> Result<ExitCode, String> {
    args.check_known(&["workload", "seed", "seconds", "trace", "out", "rev"])?;
    let name = args.get("workload").ok_or("--workload is required")?;
    let workload = Workload::parse(name).ok_or(format!("unknown workload {name:?}"))?;
    let trace = match args.get("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("bad --trace {other:?} (0 or 1)")),
    };
    let opts = Options {
        seed: args.seed()?,
        trace,
        out: args.get("out").map_or_else(default_out, PathBuf::from),
        rev: args.get("rev").unwrap_or("unknown").to_string(),
    };
    std::fs::create_dir_all(&opts.out).map_err(|e| format!("create output directory: {e}"))?;
    let plan = Plan::full(workload, args.seconds()?);
    let result = match run(&plan, &opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("fol-loadbench: {e}");
            return Ok(ExitCode::FAILURE);
        }
    };
    for line in result.report_lines() {
        eprintln!("{line}");
    }
    if result.correct {
        println!("{}", result.summary_line());
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!("fol-loadbench: the correctness oracle failed; no metrics reported");
        let refused = fol_loadbench::result::RunResult {
            metrics: Vec::new(),
            ..result
        };
        println!("{}", refused.summary_line());
        Ok(ExitCode::FAILURE)
    }
}

/// `run` / `trace`: every workload, one result file each.
fn suite(args: &Args, trace: bool) -> Result<ExitCode, String> {
    args.check_known(&["workload", "seed", "seconds", "out", "rev"])?;
    let out = args.get("out").map_or_else(default_out, PathBuf::from);
    std::fs::create_dir_all(&out).map_err(|e| format!("create {}: {e}", out.display()))?;
    let opts = Options {
        seed: args.seed()?,
        trace,
        out,
        rev: args.get("rev").unwrap_or("unknown").to_string(),
    };
    let seconds = args.seconds()?;
    let mut code = ExitCode::SUCCESS;
    for workload in args.workloads()? {
        let plan = Plan::full(workload, seconds);
        let result = match run(&plan, &opts) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("{}: {e}", workload.name());
                code = ExitCode::FAILURE;
                continue;
            }
        };
        if !result.correct {
            eprintln!(
                "{}: the correctness oracle failed; no metrics reported",
                workload.name()
            );
            code = ExitCode::FAILURE;
            continue;
        }
        for line in result.report_lines() {
            println!("{line}");
        }
        println!(
            "{:<15} attempted {} failed {}",
            workload.name(),
            result.attempted,
            result.failed
        );
        let kind = if trace { ".traced" } else { "" };
        let file = format!("{}-seed{}{kind}.json", workload.name(), opts.seed);
        let path = opts.out.join(file);
        std::fs::write(&path, result.to_json().render() + "\n")
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("{:<15} wrote {}", workload.name(), path.display());
    }
    Ok(code)
}

fn compare_sets(args: &Args) -> Result<ExitCode, String> {
    args.check_known(&["bench"])?;
    let [_, base, cand] = args.positional.as_slice() else {
        return Err("compare needs a base and a candidate directory".into());
    };
    let bounds = compare::load_bounds(Path::new(args.get("bench").unwrap_or("BENCHMARK.json")))?;
    let base = compare::load_set(Path::new(base))?;
    let cand = compare::load_set(Path::new(cand))?;
    let (table, any_worse) = compare::compare(&base, &cand, &bounds);
    print!("{table}");
    Ok(if any_worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}
