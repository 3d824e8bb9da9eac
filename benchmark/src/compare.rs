//! `compare A.json B.json`: does result set B (the change) hold every
//! end-to-end metric of result set A (the baseline) within its bound?
//!
//! One row per workload × end-to-end metric. Host metrics compare
//! medians over the sets' runs; a row whose run-to-run spread is wider
//! than its bound is `unresolved`, not `ok`, unless every run of B reads
//! better than every run of A. Simulated metrics and `sim_digest` must be
//! equal run by run — same seed, same virtual outcome, whatever happened
//! to host time.

use crate::json::Json;
use crate::spec::{Better, EndToEnd, END_TO_END};
use crate::stats::{median, spread};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges one host metric from the two sets' per-run values.
pub fn judge(m: &EndToEnd, a: &[f64], b: &[f64]) -> (f64, Verdict) {
    let (med_a, med_b) = (median(a), median(b));
    // Positive = B is worse, as a share of A.
    let worse = match m.better {
        Better::Lower => (med_b - med_a) / med_a.abs(),
        Better::Higher => (med_a - med_b) / med_a.abs(),
    };
    let better_than = |x: f64, y: f64| match m.better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    let b_always_better = b.iter().all(|&x| a.iter().all(|&y| better_than(x, y)));
    let verdict = if worse > m.bound {
        Verdict::Regressed
    } else if (spread(a) > m.bound || spread(b) > m.bound) && !b_always_better {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    (worse, verdict)
}

struct Run<'a> {
    seed: f64,
    digest: &'a str,
    failed: f64,
    correct: bool,
    metrics: &'a Json,
}

fn runs<'a>(workload: &'a Json) -> Result<Vec<Run<'a>>, String> {
    let list = workload
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or("workload without runs")?;
    list.iter()
        .map(|r| {
            let detail = r.get("detail").ok_or("run without detail")?;
            Ok(Run {
                seed: detail
                    .get("seed")
                    .and_then(Json::as_f64)
                    .ok_or("run without seed")?,
                digest: detail
                    .get("sim_digest")
                    .and_then(Json::as_str)
                    .ok_or("run without sim_digest")?,
                failed: r
                    .get("failed")
                    .and_then(Json::as_f64)
                    .ok_or("run without failed")?,
                correct: r
                    .get("correct")
                    .and_then(Json::as_bool)
                    .ok_or("run without correct")?,
                metrics: r.get("metrics").ok_or("run without metrics")?,
            })
        })
        .collect()
}

fn values(runs: &[Run<'_>], metric: &str) -> Result<Vec<f64>, String> {
    runs.iter()
        .map(|r| {
            r.metrics
                .get(metric)
                .and_then(Json::as_f64)
                .ok_or(format!("run without {metric}"))
        })
        .collect()
}

/// Compares two result documents; returns the report and whether B
/// passed (nothing regressed, nothing simulated moved, nothing failed).
///
/// # Errors
///
/// Returns what is missing when a document is not a results file.
pub fn compare<'a>(a: &'a Json, b: &'a Json) -> Result<(String, bool), String> {
    let workloads = |doc: &'a Json| {
        doc.get("workloads")
            .and_then(Json::as_arr)
            .ok_or("no workloads")
    };
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    let mut out = String::new();
    let mut pass = true;
    out.push_str(&format!(
        "{:<14} {:<20} {:>14} {:>14} {:>9} {:>6}  {}\n",
        "workload", "metric", "A (median)", "B (median)", "worse by", "bound", "verdict"
    ));
    for wl_a in wa {
        let name = wl_a
            .get("name")
            .and_then(Json::as_str)
            .ok_or("workload without name")?;
        let Some(wl_b) = wb
            .iter()
            .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
        else {
            out.push_str(&format!("{name:<14} missing from B\n"));
            pass = false;
            continue;
        };
        let (ra, rb) = (runs(wl_a)?, runs(wl_b)?);
        for m in &END_TO_END {
            let (va, vb) = (values(&ra, m.name)?, values(&rb, m.name)?);
            let (worse, mut verdict) = judge(m, &va, &vb);
            let mut note = String::new();
            if m.exact {
                // Same seed, same simulated outcome.
                let moved = ra
                    .iter()
                    .zip(&va)
                    .any(|(r, x)| rb.iter().zip(&vb).any(|(s, y)| s.seed == r.seed && x != y));
                if moved {
                    verdict = Verdict::Regressed;
                    note = " (simulated value moved at equal seed)".to_string();
                }
            }
            pass &= verdict != Verdict::Regressed;
            out.push_str(&format!(
                "{name:<14} {:<20} {:>14.4} {:>14.4} {:>8.2}% {:>5.0}%  {}{note}\n",
                m.name,
                median(&va),
                median(&vb),
                100.0 * worse,
                100.0 * m.bound,
                verdict.label(),
            ));
        }
        let digests_differ = ra
            .iter()
            .any(|r| rb.iter().any(|s| s.seed == r.seed && s.digest != r.digest));
        let shared_seeds = ra
            .iter()
            .filter(|r| rb.iter().any(|s| s.seed == r.seed))
            .count();
        let failures = ra.iter().chain(&rb).any(|r| r.failed > 0.0 || !r.correct);
        out.push_str(&format!(
            "{name:<14} {:<20} {}\n",
            "sim_digest",
            if digests_differ {
                "DIFFERS at equal seed"
            } else if shared_seeds == 0 {
                "no seed in common"
            } else {
                "equal"
            }
        ));
        if failures {
            out.push_str(&format!(
                "{name:<14} failed operations or checks in at least one run\n"
            ));
        }
        pass &= !digests_differ && !failures;
    }
    out.push_str(if pass { "PASS\n" } else { "FAIL\n" });
    Ok((out, pass))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let rps = &EndToEnd {
            name: "rps",
            unit: "1/s",
            better: Better::Higher,
            bound: 0.10,
            exact: false,
        };
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(
            judge(rps, &steady, &[98.0, 97.0, 99.0, 98.5, 97.5]).1,
            Verdict::Ok
        );
        assert_eq!(
            judge(rps, &steady, &[85.0, 86.0, 84.0, 85.5, 84.5]).1,
            Verdict::Regressed
        );
        // Wide spread: within the bound is not the same as unchanged ...
        let noisy = [100.0, 130.0, 80.0, 120.0, 90.0];
        assert_eq!(judge(rps, &noisy, &steady).1, Verdict::Unresolved);
        // ... unless every run of B beats every run of A.
        assert_eq!(judge(rps, &noisy, &[140.0, 150.0, 145.0]).1, Verdict::Ok);
        let p50 = &EndToEnd {
            name: "p50",
            unit: "ms",
            better: Better::Lower,
            bound: 0.10,
            exact: false,
        };
        let (worse, verdict) = judge(p50, &steady, &[120.0, 121.0, 119.0]);
        assert!(worse > 0.19 && verdict == Verdict::Regressed);
        assert_eq!(judge(p50, &steady, &[80.0, 81.0, 79.0]).1, Verdict::Ok);
    }

    fn doc(rps: f64, sim: f64, digest: &str) -> Json {
        let metrics = END_TO_END.iter().map(|m| {
            let v = match m.name {
                "requests_per_s" => rps,
                "sim_latency_ms_mean" => sim,
                _ => 1.0,
            };
            (m.name, Json::Num(v))
        });
        let run = Json::obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::Num(10.0)),
            ("failed", Json::Num(0.0)),
            ("metrics", Json::obj(metrics)),
            (
                "detail",
                Json::obj([("seed", Json::Num(7.0)), ("sim_digest", Json::str(digest))]),
            ),
        ]);
        let wl = Json::obj([
            ("name", Json::str("reap_hot")),
            ("runs", Json::Arr(vec![run])),
        ]);
        Json::obj([("workloads", Json::Arr(vec![wl]))])
    }

    #[test]
    fn simulated_values_and_digest_must_not_move() {
        let base = doc(100.0, 50.0, "aa");
        assert!(compare(&base, &doc(99.0, 50.0, "aa")).unwrap().1);
        assert!(
            !compare(&base, &doc(50.0, 50.0, "aa")).unwrap().1,
            "host regression"
        );
        assert!(
            !compare(&base, &doc(100.0, 50.000001, "aa")).unwrap().1,
            "simulated drift"
        );
        assert!(
            !compare(&base, &doc(100.0, 50.0, "ab")).unwrap().1,
            "digest drift"
        );
        assert!(compare(&base, &Json::Null).is_err());
    }
}
