//! Percentile reports over flushed spans — the programmatic query API the
//! fleet router consumes, and the table `vhive-bench metrics` prints (exact
//! here, windowed estimates in [`crate::rollup`]; one row type, one table).

use std::collections::BTreeMap;

use sim_core::Table;
use sim_storage::FileStore;

use crate::reader::{for_each_span, ScanStats};

/// One report group: a `(function, policy, shard)` cell.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct GroupKey {
    /// Function name.
    pub function: String,
    /// Policy label.
    pub policy: String,
    /// Serving shard.
    pub shard: u32,
}

/// Latency distribution of one group in virtual nanoseconds. From
/// [`latency_report`] every field is exact (nearest-rank percentiles);
/// from [`window_report`](crate::rollup::window_report) `count`/`min`/`max`
/// are exact and the percentiles carry the log-bucket error bound
/// (`exact ≤ est ≤ exact · (1 + 1/32)`, see
/// [`sim_core::metrics::LogHistogram::value_at_percentile`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupStats {
    /// Invocations in the group.
    pub count: u64,
    /// Minimum latency, ns.
    pub min_ns: u64,
    /// Median latency, ns.
    pub p50_ns: u64,
    /// 95th-percentile latency, ns.
    pub p95_ns: u64,
    /// 99th-percentile latency, ns.
    pub p99_ns: u64,
    /// Maximum latency, ns.
    pub max_ns: u64,
}

/// A full latency report: per-group percentile stats (sorted by group
/// key) plus what the scan saw.
#[derive(Debug, Clone)]
pub struct LatencyReport {
    /// Per-group stats, ordered by `(function, policy, shard)`.
    pub groups: Vec<(GroupKey, GroupStats)>,
    /// Batch/drop/span counters of the underlying scan.
    pub scan: ScanStats,
}

/// Exact nearest-rank percentile over a **sorted** slice: the same
/// `rank = ceil(p/100 · n)` convention as [`sim_core::Percentiles`].
fn nearest_rank(sorted: &[u64], p: f64) -> u64 {
    debug_assert!(!sorted.is_empty());
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// Scans the store's telemetry batches and aggregates end-to-end latency
/// percentiles per `(function, policy, shard)`. Bad batches are dropped
/// (counted in [`LatencyReport::scan`]), never fatal.
pub fn latency_report(store: &FileStore) -> LatencyReport {
    let mut groups: BTreeMap<GroupKey, Vec<u64>> = BTreeMap::new();
    let scan = for_each_span(store, |s| {
        let key = GroupKey {
            function: s.function.clone(),
            policy: s.policy.clone(),
            shard: s.shard,
        };
        groups.entry(key).or_default().push(s.latency_ns);
    });
    let groups = groups
        .into_iter()
        .map(|(key, mut lat)| {
            lat.sort_unstable();
            let stats = GroupStats {
                count: lat.len() as u64,
                min_ns: lat[0],
                p50_ns: nearest_rank(&lat, 50.0),
                p95_ns: nearest_rank(&lat, 95.0),
                p99_ns: nearest_rank(&lat, 99.0),
                max_ns: *lat.last().expect("non-empty group"),
            };
            (key, stats)
        })
        .collect();
    LatencyReport { groups, scan }
}

/// The queries both reports answer over their `(GroupKey, GroupStats)`
/// rows, written once.
macro_rules! group_queries {
    ($report:ty) => {
        impl $report {
            /// Renders the report as a Min/P50/P95/P99/Max table,
            /// milliseconds with 3 decimals, one row per
            /// `(function, policy, shard)` group.
            pub fn table(&self) -> Table {
                let mut t = Table::new(&[
                    "function", "policy", "shard", "count", "min_ms", "p50_ms", "p95_ms",
                    "p99_ms", "max_ms",
                ]);
                t.numeric();
                let ms = |ns: u64| format!("{:.3}", ns as f64 / 1e6);
                for (key, st) in &self.groups {
                    t.row_owned(vec![
                        key.function.clone(),
                        key.policy.clone(),
                        key.shard.to_string(),
                        st.count.to_string(),
                        ms(st.min_ns),
                        ms(st.p50_ns),
                        ms(st.p95_ns),
                        ms(st.p99_ns),
                        ms(st.max_ns),
                    ]);
                }
                t
            }

            /// Stats for one group, if present.
            pub fn group(&self, function: &str, policy: &str, shard: u32) -> Option<&GroupStats> {
                self.groups
                    .iter()
                    .find(|(k, _)| k.function == function && k.policy == policy && k.shard == shard)
                    .map(|(_, s)| s)
            }

            /// Total spans the report covers.
            pub fn total_count(&self) -> u64 {
                self.groups.iter().map(|(_, s)| s.count).sum()
            }
        }
    };
}

group_queries!(LatencyReport);
group_queries!(crate::rollup::WindowReport);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::TelemetrySink;
    use crate::span::SpanRecord;

    #[test]
    fn percentiles_match_sim_core_convention() {
        let sorted: Vec<u64> = (1..=100).collect();
        let mut p = sim_core::Percentiles::new();
        for &v in &sorted {
            p.add(v as f64);
        }
        for q in [50.0, 95.0, 99.0] {
            assert_eq!(
                nearest_rank(&sorted, q) as f64,
                p.percentile(q).unwrap(),
                "p{q}"
            );
        }
    }

    #[test]
    fn report_groups_and_ranks() {
        let store = FileStore::new();
        let sink = TelemetrySink::with_batch_rows(store.clone(), 16);
        for i in 0..100u64 {
            sink.record(SpanRecord {
                function: "helloworld".into(),
                policy: "Reap".into(),
                shard: 0,
                latency_ns: (i + 1) * 1_000_000,
                ..SpanRecord::default()
            });
        }
        sink.record(SpanRecord {
            function: "pyaes".into(),
            policy: "Vanilla".into(),
            shard: 2,
            latency_ns: 7_000_000,
            ..SpanRecord::default()
        });
        sink.flush();
        let report = latency_report(&store);
        assert_eq!(report.groups.len(), 2);
        assert_eq!(report.total_count(), 101);
        let hw = report.group("helloworld", "Reap", 0).unwrap();
        assert_eq!(hw.count, 100);
        assert_eq!(hw.min_ns, 1_000_000);
        assert_eq!(hw.p50_ns, 50_000_000);
        assert_eq!(hw.p95_ns, 95_000_000);
        assert_eq!(hw.p99_ns, 99_000_000);
        assert_eq!(hw.max_ns, 100_000_000);
        let single = report.group("pyaes", "Vanilla", 2).unwrap();
        assert_eq!(single.count, 1);
        assert_eq!(single.p99_ns, 7_000_000);
        let rendered = report.table().render();
        assert!(rendered.contains("helloworld"));
        assert!(rendered.contains("95.000"));
    }
}
