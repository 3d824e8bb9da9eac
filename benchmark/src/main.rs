//! The repo's benchmark: five serving workloads driven through the
//! crates' public API, two clocks side by side. See `README.md` beside
//! this package for what is measured and why.
//!
//! ```text
//! reap-benchmark --workload NAME --seed N --seconds S --trace 0|1
//!     one workload, in this process; the last line of stdout is
//!     {"correct", "attempted", "failed", "metrics"} (the line before it
//!     carries the detail: sim_digest, sample counts, tail percentile)
//! reap-benchmark [--seed N] [--seconds S] [--trace 0|1] [--repeats N] [--out FILE]
//!     the suite: every workload, each run in a fresh child process
//! reap-benchmark compare A.json B.json
//!     two suite results, row by row against the bounds
//! common: --scale F (shorter or longer runs), --smoke (= --scale 0.05)
//! ```

mod compare;
mod json;
mod layers;
mod measure;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use json::Json;
use measure::{RunConfig, RunResult};
use spec::{END_TO_END, PER_LAYER};
use stats::{median, spread};
use workloads::{Workload, SHARDS, WORKLOADS};

const DEFAULT_SEED: u64 = 1;
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 10.0;
/// Set-ups timed per measured run at scale 1.
const SETUPS: f64 = 3.0;

struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: f64,
    repeats: u64,
    out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        scale: 1.0,
        repeats: 1,
        out: None,
    };
    let mut trace_given = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            a.scale = 0.05;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => {
                let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                a.workload = Some(
                    workloads::workload(value)
                        .ok_or_else(|| bad(&format!("one of {}", names.join(", "))))?,
                );
            }
            "--seed" => a.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                a.seconds = value
                    .parse()
                    .ok()
                    .filter(|s| *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| bad("seconds in (0, 600]"))?
            }
            "--scale" => {
                a.scale = value
                    .parse()
                    .ok()
                    .filter(|s| *s > 0.0 && *s <= 10.0)
                    .ok_or_else(|| bad("a factor in (0, 10]"))?
            }
            "--repeats" => {
                a.repeats = value
                    .parse()
                    .ok()
                    .filter(|n| (1..=100).contains(n))
                    .ok_or_else(|| bad("1..=100"))?
            }
            "--trace" => {
                trace_given = true;
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--out" => a.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    // The full-size suite traces unless told not to; a single workload
    // does what its caller says.
    if a.workload.is_none() && !trace_given {
        a.trace = a.scale >= 1.0;
    }
    Ok(a)
}

/// The contract's result object: exactly these four keys.
fn result_line(r: &RunResult, traced: bool) -> Json {
    let unit = |name: &str| {
        if traced {
            PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit)
        } else {
            END_TO_END.iter().find(|m| m.name == name).map(|m| m.unit)
        }
        .expect("every reported metric is in the spec tables")
    };
    let metrics = r.metrics.iter().map(|&(name, value)| {
        (
            name,
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit(name)))]),
        )
    });
    Json::obj([
        ("correct", Json::Bool(r.correct)),
        ("attempted", Json::Num(r.attempted as f64)),
        ("failed", Json::Num(r.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
}

fn run_one(w: &Workload, a: &Args) -> ExitCode {
    let scaled = |n: f64| (n * a.scale).round().max(1.0) as usize;
    let w = &w.scaled(a.scale);
    let cfg = RunConfig {
        seed: a.seed,
        seconds: a.seconds * a.scale,
        setups: scaled(SETUPS),
        probe_functions: scaled(workloads::F4.len() as f64).min(workloads::F4.len()),
    };
    let r = if a.trace {
        layers::traced_run(w, &cfg)
    } else {
        measure::measured_run(w, &cfg)
    };
    let expected = if a.trace {
        PER_LAYER.len()
    } else {
        END_TO_END.len()
    };
    assert_eq!(
        r.metrics.len(),
        expected,
        "every metric of the table is reported"
    );
    println!("{}", Json::obj([("detail", r.detail.clone())]));
    println!("{}", result_line(&r, a.trace));
    if r.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "{}: checks failed: {}",
            w.name,
            r.detail.get("problems").unwrap_or(&Json::Null)
        );
        ExitCode::FAILURE
    }
}

/// Runs one workload in a fresh child process, so its set-up time and
/// peak RSS are its own. Returns the run as the results file stores it.
fn child_run(w: &Workload, a: &Args, seed: u64, traced: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--workload",
            w.name,
            "--seed",
            &seed.to_string(),
            "--seconds",
            &a.seconds.to_string(),
        ])
        .args([
            "--scale",
            &a.scale.to_string(),
            "--trace",
            if traced { "1" } else { "0" },
        ])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {}: {e}", w.name))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines().rev();
    let result =
        Json::parse(lines.next().unwrap_or_default()).map_err(|e| format!("{}: {e}", w.name))?;
    let detail =
        Json::parse(lines.next().unwrap_or_default()).map_err(|e| format!("{}: {e}", w.name))?;
    let flat = result
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or("result without metrics")?
        .iter()
        .map(|(k, v)| (k.clone(), v.get("value").cloned().unwrap_or(Json::Null)));
    Ok(Json::obj([
        (
            "correct",
            Json::Bool(
                result.get("correct").and_then(Json::as_bool) == Some(true) && out.status.success(),
            ),
        ),
        (
            "attempted",
            result.get("attempted").cloned().unwrap_or(Json::Null),
        ),
        (
            "failed",
            result.get("failed").cloned().unwrap_or(Json::Null),
        ),
        ("metrics", Json::obj(flat)),
        (
            "detail",
            detail.get("detail").cloned().unwrap_or(Json::Null),
        ),
    ]))
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".to_string(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        })
}

fn run_suite(a: &Args) -> ExitCode {
    let host = Json::obj([
        (
            "nproc",
            Json::Num(sim_core::lanes::host_parallelism() as f64),
        ),
        ("rustc", Json::str(command_line("rustc", &["--version"]))),
        (
            "commit",
            Json::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("shards", Json::Num(SHARDS as f64)),
        ("clients", Json::Num(1.0)),
        ("seed", Json::Num(a.seed as f64)),
        ("seconds", Json::Num(a.seconds)),
        ("scale", Json::Num(a.scale)),
        ("repeats", Json::Num(a.repeats as f64)),
        (
            "batch",
            Json::obj(
                WORKLOADS
                    .iter()
                    .map(|w| (w.name, Json::Num(w.batch as f64))),
            ),
        ),
        (
            "ramp_ops",
            Json::obj(
                WORKLOADS
                    .iter()
                    .map(|w| (w.name, Json::Num(w.scaled(a.scale).ramp_ops as f64))),
            ),
        ),
        (
            "sim_ops",
            Json::obj(
                WORKLOADS
                    .iter()
                    .map(|w| (w.name, Json::Num(w.scaled(a.scale).sim_ops as f64))),
            ),
        ),
    ]);
    println!("host: {host}");
    let mut ok = true;
    let mut docs = Vec::new();
    for w in &WORKLOADS {
        // Measured runs at seeds seed, seed+1, ...; one traced run at `seed`.
        let children = (0..a.repeats)
            .map(|i| child_run(w, a, a.seed + i, false))
            .collect::<Result<Vec<Json>, String>>()
            .and_then(|runs| {
                Ok((
                    runs,
                    a.trace.then(|| child_run(w, a, a.seed, true)).transpose()?,
                ))
            });
        let (runs, traced) = match children {
            Ok(children) => children,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        };
        ok &= report_workload(w, &runs, traced.as_ref());
        docs.push(Json::obj([
            ("name", Json::str(w.name)),
            ("why", Json::str(w.why)),
            ("runs", Json::Arr(runs)),
            ("traced", traced.unwrap_or(Json::Null)),
        ]));
    }
    let doc = Json::obj([("host", host), ("workloads", Json::Arr(docs))]);
    let path = a
        .out
        .clone()
        .unwrap_or_else(|| layers::out_dir().join("results.json"));
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, format!("{doc}\n")));
    match written {
        Ok(()) => println!("results: {}", path.display()),
        Err(e) => {
            eprintln!("cannot write {}: {e}", path.display());
            ok = false;
        }
    }
    println!("{}", if ok { "PASS" } else { "FAIL" });
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Prints one workload's metrics by name, with unit, direction and bound;
/// returns whether every run and cross-run check passed.
fn report_workload(w: &Workload, runs: &[Json], traced: Option<&Json>) -> bool {
    let field = |run: &Json, k: &str| {
        run.get("detail")
            .and_then(|d| d.get(k))
            .cloned()
            .unwrap_or(Json::Null)
    };
    let mut ok = true;
    println!("\n== {} — {}", w.name, w.why);
    for m in &END_TO_END {
        let v: Vec<f64> = runs
            .iter()
            .filter_map(|r| r.get("metrics")?.get(m.name)?.as_f64())
            .collect();
        if v.len() != runs.len() {
            println!("  {:<26} missing", m.name);
            ok = false;
            continue;
        }
        println!(
            "  {:<26} {:>14.4} {:<6} {} is better, bound {:>2.0}%, spread {:.2}% over {} run(s)",
            m.name,
            median(&v),
            m.unit,
            m.better.label(),
            100.0 * m.bound,
            100.0 * spread(&v),
            v.len()
        );
    }
    for run in runs {
        let passed = run.get("correct").and_then(Json::as_bool) == Some(true);
        ok &= passed;
        let tail = match field(run, "batch_wall_tail_percentile") {
            Json::Null => "too few for a tail percentile".to_string(),
            p => format!("p{p} = {} ms", field(run, "batch_wall_ms_tail")),
        };
        println!(
            "  seed {}: attempted {}, failed {}, sim_digest {}, {} batch-wall samples, {tail}{}",
            field(run, "seed"),
            run.get("attempted").unwrap_or(&Json::Null),
            run.get("failed").unwrap_or(&Json::Null),
            field(run, "sim_digest"),
            field(run, "batch_wall_samples"),
            if passed {
                String::new()
            } else {
                format!("  CHECKS FAILED: {}", field(run, "problems"))
            },
        );
    }
    if let Some(t) = traced {
        println!(
            "  traced run ({} ops, {} spans -> {}):",
            field(t, "ops"),
            field(t, "spans"),
            field(t, "trace_file")
        );
        for m in &PER_LAYER {
            match t
                .get("metrics")
                .and_then(|x| x.get(m.name))
                .and_then(Json::as_f64)
            {
                Some(v) => println!(
                    "    {:<38} {:>14.4} {:<6} {} is better",
                    m.name,
                    v,
                    m.unit,
                    m.better.label()
                ),
                None => {
                    println!("    {:<38} missing", m.name);
                    ok = false;
                }
            }
        }
        let same_digest = field(t, "sim_digest") == field(&runs[0], "sim_digest");
        let passed = t.get("correct").and_then(Json::as_bool) == Some(true);
        if !passed {
            println!("  TRACED CHECKS FAILED: {}", field(t, "problems"));
        }
        if !same_digest {
            println!("  sim_digest of the traced run differs from the measured run's");
        }
        ok &= passed && same_digest;
    }
    ok
}

fn run_compare(paths: &[String]) -> ExitCode {
    let [a, b] = paths else {
        eprintln!("usage: reap-benchmark compare A.json B.json");
        return ExitCode::from(2);
    };
    let load = |p: &String| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{p}: {e}"))
            .and_then(|t| Json::parse(&t).map_err(|e| format!("{p}: {e}")))
    };
    match load(a)
        .and_then(|a| Ok((a, load(b)?)))
        .and_then(|(a, b)| compare::compare(&a, &b))
    {
        Ok((report, pass)) => {
            print!("{report}");
            if pass {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "compare") {
        return run_compare(&args[1..]);
    }
    match parse_args(&args) {
        Ok(a) => match a.workload {
            Some(w) => run_one(w, &a),
            None => run_suite(&a),
        },
        Err(e) => {
            eprintln!(
                "{e}\n(see the usage at the top of benchmark/src/main.rs or benchmark/README.md)"
            );
            ExitCode::from(2)
        }
    }
}
