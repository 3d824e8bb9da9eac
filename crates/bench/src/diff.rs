//! Trend-regression diffing between two saved report files.
//!
//! `vhive-bench metrics --diff baseline.txt current.txt` compares the CSV
//! block two report runs printed (the `--- csv ---` fence every harness
//! subcommand emits) group by group and flags tail-latency regressions:
//! a group whose current P99 exceeds the baseline P99 by more than the
//! allowed factor. Groups present on only one side are reported too —
//! a vanished group usually means the workload changed, not the code.

use std::collections::BTreeMap;

/// One parsed report: `(function, policy, shard)` → `(count, p99_ms)`.
pub type ReportGroups = BTreeMap<(String, String, u32), (u64, f64)>;

/// Default regression gate: current P99 > baseline P99 × 1.25.
pub const DEFAULT_FACTOR: f64 = 1.25;

/// Differences below this floor are noise, never regressions (ms).
pub const NOISE_FLOOR_MS: f64 = 0.05;

/// Extracts the group rows from a report file's CSV block. Expects the
/// windowed/latency table header (`function,policy,shard,...,p99_ms,...`);
/// rows outside a `--- csv ---` fence are ignored, as are tables without
/// those columns.
pub fn parse_report_groups(text: &str) -> ReportGroups {
    let mut groups = ReportGroups::new();
    let mut in_csv = false;
    let mut cols: Option<(usize, usize, usize, usize, usize)> = None;
    for line in text.lines() {
        match line.trim() {
            "--- csv ---" => {
                in_csv = true;
                cols = None;
                continue;
            }
            "--- end csv ---" => {
                in_csv = false;
                continue;
            }
            _ => {}
        }
        if !in_csv {
            continue;
        }
        let fields: Vec<&str> = line.split(',').collect();
        if cols.is_none() {
            let find = |name: &str| fields.iter().position(|f| *f == name);
            cols = (|| {
                Some((
                    find("function")?,
                    find("policy")?,
                    find("shard")?,
                    find("count")?,
                    find("p99_ms")?,
                ))
            })();
            continue;
        }
        let Some((fi, pi, si, ci, qi)) = cols else {
            continue;
        };
        let get = |i: usize| fields.get(i).copied();
        let parsed = (|| {
            let function = get(fi)?.to_string();
            let policy = get(pi)?.to_string();
            let shard: u32 = get(si)?.parse().ok()?;
            let count: u64 = get(ci)?.parse().ok()?;
            let p99: f64 = get(qi)?.parse().ok()?;
            Some(((function, policy, shard), (count, p99)))
        })();
        if let Some((key, val)) = parsed {
            groups.insert(key, val);
        }
    }
    groups
}

/// Outcome of one diff run.
#[derive(Debug, Clone, Default)]
pub struct DiffOutcome {
    /// Human-readable findings, one per line, worst first within kind.
    pub lines: Vec<String>,
    /// Number of P99 regressions beyond the factor.
    pub regressions: usize,
}

/// Compares two parsed reports: flags groups whose current P99 exceeds
/// `factor ×` the baseline P99 (beyond [`NOISE_FLOOR_MS`]), and lists
/// groups present on only one side.
pub fn diff_reports(baseline: &ReportGroups, current: &ReportGroups, factor: f64) -> DiffOutcome {
    let mut out = DiffOutcome::default();
    for (key, (b_count, b_p99)) in baseline {
        let Some((c_count, c_p99)) = current.get(key) else {
            out.lines.push(format!(
                "MISSING  {}/{}/shard{}: in baseline ({b_count} spans), absent from current",
                key.0, key.1, key.2
            ));
            continue;
        };
        let delta = c_p99 - b_p99;
        if delta > NOISE_FLOOR_MS && *c_p99 > b_p99 * factor {
            out.regressions += 1;
            out.lines.push(format!(
                "REGRESSION  {}/{}/shard{}: p99 {b_p99:.3} ms -> {c_p99:.3} ms \
                 (x{:.2}, counts {b_count} -> {c_count})",
                key.0,
                key.1,
                key.2,
                c_p99 / b_p99.max(f64::MIN_POSITIVE)
            ));
        }
    }
    for (key, (c_count, _)) in current {
        if !baseline.contains_key(key) {
            out.lines.push(format!(
                "NEW      {}/{}/shard{}: absent from baseline ({c_count} spans)",
                key.0, key.1, key.2
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(rows: &[(&str, &str, u32, u64, f64)]) -> String {
        let mut s = String::from(
            "== Report ==\n\nnoise table ignored\n--- csv ---\n\
             function,policy,shard,count,min_ms,p50_ms,p95_ms,p99_ms,max_ms\n",
        );
        for (f, p, sh, n, p99) in rows {
            s.push_str(&format!("{f},{p},{sh},{n},1.000,2.000,3.000,{p99:.3},9.000\n"));
        }
        s.push_str("--- end csv ---\n");
        s
    }

    #[test]
    fn parses_only_the_csv_fence() {
        let text = report(&[("helloworld", "Reap", 0, 100, 56.0)]);
        let groups = parse_report_groups(&text);
        assert_eq!(groups.len(), 1);
        assert_eq!(
            groups[&("helloworld".into(), "Reap".into(), 0)],
            (100, 56.0)
        );
    }

    #[test]
    fn flags_regressions_and_membership_changes_only() {
        let base = parse_report_groups(&report(&[
            ("helloworld", "Reap", 0, 100, 56.0),
            ("pyaes", "Vanilla", 1, 50, 240.0),
            ("gone", "Warm", 2, 10, 1.2),
        ]));
        let cur = parse_report_groups(&report(&[
            ("helloworld", "Reap", 0, 100, 80.0),  // x1.43: regression
            ("pyaes", "Vanilla", 1, 50, 241.0),    // x1.004: fine
            ("fresh", "Record", 0, 5, 290.0),      // new group
        ]));
        let out = diff_reports(&base, &cur, DEFAULT_FACTOR);
        assert_eq!(out.regressions, 1);
        let text = out.lines.join("\n");
        assert!(text.contains("REGRESSION  helloworld/Reap/shard0"), "{text}");
        assert!(text.contains("MISSING  gone/Warm/shard2"), "{text}");
        assert!(text.contains("NEW      fresh/Record/shard0"), "{text}");
        assert!(!text.contains("pyaes"), "{text}");
    }

    #[test]
    fn tiny_absolute_deltas_are_noise() {
        let base = parse_report_groups(&report(&[("f", "Warm", 0, 10, 0.010)]));
        let cur = parse_report_groups(&report(&[("f", "Warm", 0, 10, 0.030)]));
        // ×3 but only 0.02 ms — below the noise floor.
        let out = diff_reports(&base, &cur, DEFAULT_FACTOR);
        assert_eq!(out.regressions, 0);
    }
}
