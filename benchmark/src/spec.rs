//! What the benchmark reports: the end-to-end and per-layer metric
//! tables. `BENCHMARK.json` at the repo root carries the same tables for
//! the acceptance driver; a unit test keeps the two in step.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen
    /// before `compare` calls it a regression.
    pub bound: f64,
    /// Simulated (virtual-time) outcome: a pure function of the seed, so
    /// `compare` additionally demands equality run by run.
    pub exact: bool,
}

/// The seven end-to-end metrics, reported for every workload.
///
/// Bounds are three times the quartile spread seen over ten seeds on the
/// shared 2-core box this was written on, rounded up and capped at 25 %:
/// host throughput and op wall spread 2-7 % there in a quiet spell and
/// 10 % across a minutes-long noisy one, whatever the seed; peak RSS 1.3 %.
///
/// The three `sim_*` metrics are deterministic per seed and compared
/// exactly by `compare`; their bounds exist because the acceptance driver
/// varies the seed between runs (arrival jitter moves the mean simulated
/// latency by up to 0.2 %) and a bound of zero would leave no room for
/// that.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "requests_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "batch_wall_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.08,
        exact: false,
    },
    EndToEnd {
        name: "sim_latency_ms_mean",
        unit: "sim_ms",
        better: Better::Lower,
        bound: 0.02,
        exact: true,
    },
    EndToEnd {
        name: "sim_goodput_share",
        unit: "share",
        better: Better::Higher,
        bound: 0.02,
        exact: true,
    },
    EndToEnd {
        name: "sim_paper_error_pct",
        unit: "%",
        better: Better::Lower,
        bound: 0.02,
        exact: true,
    },
];

#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

/// The per-layer metrics of the traced run, layer = crate/module name.
/// A metric that has no meaning on a workload (sheds without a storm)
/// reads 0 there.
pub const PER_LAYER: [PerLayer; 48] = [
    layer("cluster.batch_wall_ms_p95", "ms", Lower),
    layer("cluster.serve_wall_share", "share", Higher),
    layer("cluster.lane_speedup", "x", Higher),
    layer("cluster.shed_us_per_req", "us", Lower),
    layer("orchestrator.prepare_ms", "ms", Lower),
    layer("orchestrator.self_ms", "ms", Lower),
    layer("orchestrator.outcome_us", "us", Lower),
    layer("orchestrator.record_ms", "ms", Lower),
    layer("vm.restore_shell_ms", "ms", Lower),
    layer("vm.replay_ms", "ms", Lower),
    layer("vm.verify_ms", "ms", Lower),
    layer("vm.teardown_ms", "ms", Lower),
    layer("vm.boot_capture_ms", "ms", Lower),
    layer("monitor.prefetch_ms", "ms", Lower),
    layer("monitor.fault_serve_us", "us", Lower),
    layer("monitor.residual_faults_per_req", "count", Lower),
    layer("monitor.prefetched_pages_per_req", "count", Higher),
    layer("ws_file.build_ms", "ms", Lower),
    layer("ws_file.parse_us", "us", Lower),
    layer("invocation.compile_us", "us", Lower),
    layer("invocation.steps_per_req", "count", Lower),
    layer("timeline.run_ms_per_batch", "ms", Lower),
    layer("timeline.host_ns_per_step", "ns", Lower),
    layer("timeline.disk_reads_per_req", "count", Lower),
    layer("guest_mem.new_ms", "ms", Lower),
    layer("guest_mem.install_gbps", "GB/s", Higher),
    layer("guest_mem.uffd_faults_per_req", "count", Lower),
    layer("guest_mem.copied_pages_per_req", "count", Lower),
    layer("guest_mem.zero_pages_per_req", "count", Lower),
    layer("storage.read_mb_per_req", "MB", Lower),
    layer("storage.read_calls_per_req", "count", Lower),
    layer("storage.write_mb_per_op", "MB", Lower),
    layer("storage.range_read_gbps", "GB/s", Higher),
    layer("storage.frame_cache_hit_ratio", "share", Higher),
    layer("storage.frame_cache_lookup_ns", "ns", Lower),
    layer("storage.frame_cache_mb", "MB", Lower),
    layer("storage.frame_cache_evictions_per_req", "count", Lower),
    layer("telemetry.emit_us_per_span", "us", Lower),
    layer("telemetry.flush_us_per_batch", "us", Lower),
    layer("telemetry.bytes_per_span", "B", Lower),
    layer("telemetry.report_scan_ms", "ms", Lower),
    layer("telemetry.rollup_build_ms", "ms", Lower),
    layer("telemetry.window_query_ms", "ms", Lower),
    layer("metrics.expose_ms", "ms", Lower),
    layer("metrics.series", "count", Lower),
    layer("observability.overhead_pct", "%", Lower),
    layer("router.replay_ns_per_event", "ns", Lower),
    layer("trace.overhead_pct", "%", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads::WORKLOADS;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.as_bytes()[0].is_ascii_alphanumeric()
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn names_units_and_counts_fit_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = std::collections::BTreeSet::new();
        for w in &WORKLOADS {
            assert!(valid_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "duplicate name {}", w.name);
        }
        for m in &END_TO_END {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(seen.insert(m.name), "duplicate name {}", m.name);
        }
        for m in &PER_LAYER {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(seen.insert(m.name), "duplicate name {}", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    /// `BENCHMARK.json` is what the acceptance driver reads; these
    /// tables are what the program prints. They must say the same thing.
    #[test]
    fn benchmark_json_matches_these_tables() {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let field = |v: &Json, k: &str| {
            v.get(k)
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string()
        };

        let workloads = doc.get("workloads").and_then(Json::as_arr).unwrap();
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (j, w) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(
                (field(j, "name"), field(j, "why")),
                (w.name.to_string(), w.why.to_string())
            );
        }
        let e2e = doc.get("end_to_end").and_then(Json::as_arr).unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(field(j, "name"), m.name);
            assert_eq!(field(j, "unit"), m.unit);
            assert_eq!(field(j, "better"), m.better.label());
            assert_eq!(
                j.get("bound").and_then(Json::as_f64),
                Some(m.bound),
                "{}",
                m.name
            );
        }
        let layers = doc.get("per_layer").and_then(Json::as_arr).unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, m) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(field(j, "name"), m.name);
            assert_eq!(field(j, "unit"), m.unit);
            assert_eq!(field(j, "better"), m.better.label());
            assert_eq!(
                j.as_obj().unwrap().len(),
                3,
                "{}: per-layer metrics carry no bound",
                m.name
            );
        }
        assert_eq!(
            doc.get("paths").and_then(Json::as_arr).unwrap(),
            [Json::str("benchmark")]
        );
    }
}
