//! The measured (untraced) run of one workload: set-up, the paper
//! fidelity probe, the timed closed loop, and the end-to-end metrics.

use std::time::{Duration, Instant};

use functionbench::FunctionId;
use vhive_core::{ColdPolicy, Orchestrator};

use crate::json::Json;
use crate::stats::{median, percentile, tail_percentile, SimDigest};
use crate::trace::Tracer;
use crate::workloads::{Layers, Rig, Tally, Workload, CLUSTER_SEED, F4};

/// How one run is sized.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    pub seed: u64,
    /// Length of the timed loop.
    pub seconds: f64,
    /// Set-ups timed per run; `setup_s` is their median.
    pub setups: usize,
    /// Functions of `F4` the paper probe covers (all four at scale 1).
    pub probe_functions: usize,
}

/// The result of one run of one workload, traced or not.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Metric name → value, the names of `spec::END_TO_END` (untraced)
    /// or `spec::PER_LAYER` (traced).
    pub metrics: Vec<(&'static str, f64)>,
    /// Everything else worth recording: digest, sample counts, tail.
    pub detail: Json,
}

/// Peak resident set of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Fig 7's design points on helloworld, as the paper reports them (ms).
const FIG7_PAPER_MS: [f64; 4] = [232.0, 118.0, 71.0, 60.0];

/// Mean |sim − paper| / paper, in percent, from an isolated single
/// `Orchestrator` — never the cluster under test — at the seed the
/// figure binaries use.
///
/// REAP workloads compare helloworld's Fig 7 ladder (the same call
/// sequence as the `fig7` binary, so its 236/116/75/56 ms reproduce)
/// plus the other three functions' `PaperTargets::reap_ms`; the vanilla
/// workload compares `PaperTargets::cold_ms` over `F4`.
pub fn paper_probe(policy: ColdPolicy, functions: usize) -> (f64, Vec<f64>) {
    let mut orch = Orchestrator::new(CLUSTER_SEED);
    let mut errors = Vec::new();
    let mut ladder = Vec::new();
    let mut compare =
        |sim_ms: f64, paper_ms: f64| errors.push((sim_ms - paper_ms).abs() / paper_ms);
    for f in F4.into_iter().take(functions) {
        orch.register(f);
        if policy == ColdPolicy::Vanilla {
            let sim = orch.invoke_cold(f, ColdPolicy::Vanilla);
            compare(sim.latency.as_millis_f64(), f.spec().paper.cold_ms);
            continue;
        }
        orch.invoke_record(f);
        if f == FunctionId::helloworld {
            for (p, paper_ms) in ColdPolicy::ALL.into_iter().zip(FIG7_PAPER_MS) {
                let ms = orch.invoke_cold(f, p).latency.as_millis_f64();
                ladder.push(ms);
                compare(ms, paper_ms);
            }
        } else {
            let sim = orch.invoke_cold(f, ColdPolicy::Reap);
            compare(sim.latency.as_millis_f64(), f.spec().paper.reap_ms);
        }
        orch.unregister(f);
    }
    (
        100.0 * errors.iter().sum::<f64>() / errors.len() as f64,
        ladder,
    )
}

/// Builds the rig `cfg.setups` times; returns the last one and every
/// set-up's duration in seconds.
fn timed_setups(w: &Workload, cfg: &RunConfig) -> (Rig, Vec<f64>) {
    let mut times = Vec::with_capacity(cfg.setups);
    let mut rig = None;
    for _ in 0..cfg.setups.max(1) {
        drop(rig.take());
        let started = Instant::now();
        rig = Some(Rig::build(w, cfg.seed, Layers::On));
        times.push(started.elapsed().as_secs_f64());
    }
    (rig.expect("at least one set-up"), times)
}

/// Runs `w` untraced and reports the end-to-end metrics.
pub fn measured_run(w: &Workload, cfg: &RunConfig) -> RunResult {
    let (mut rig, setup_times) = timed_setups(w, cfg);
    let (paper_error_pct, ladder) = paper_probe(w.policy, cfg.probe_functions);
    let started = Instant::now();
    rig.ramp();
    let ramp_s = started.elapsed().as_secs_f64();

    let mut tracer = Tracer::off();
    let mut tally = Tally::new();
    let mut digest = SimDigest::new();
    let mut walls_ms: Vec<f64> = Vec::new();
    let mut busy = Duration::ZERO;
    let budget = Duration::from_secs_f64(cfg.seconds);
    let cache_before = rig.cluster.frame_cache_stats();
    let mut op = 0u64;
    // Timed against the ops' own wall-clock, so checking and digesting
    // an op's output never eats into the measured time.
    while w.goes_on(busy, budget, op) {
        let r = rig.next_op(&mut tracer);
        busy += r.wall;
        walls_ms.push(r.wall.as_secs_f64() * 1e3);
        tally.absorb(w, op, &r, &mut digest);
        op += 1;
    }
    rig.sink.flush();
    let cache = rig.cluster.frame_cache_stats();
    let (hits, misses) = (
        cache.hits - cache_before.hits,
        cache.misses - cache_before.misses,
    );
    let hit_ratio = hits as f64 / (hits + misses).max(1) as f64;
    let evicted = cache.evicted - cache_before.evicted;

    // The workload is what it says it is.
    let mut problems: Vec<String> = Vec::new();
    if tally.failed > 0 {
        problems.push(format!(
            "{} of {} operations failed",
            tally.failed, tally.attempted
        ));
    }
    if rig.sink.flushed_spans() < tally.attempted {
        problems.push("fewer telemetry spans than requests".to_string());
    }
    if w.cache_budget.is_none() && !w.redeploy && hit_ratio <= 0.9 {
        problems.push(format!(
            "frame-cache hit ratio {hit_ratio:.3} <= 0.9 with the cache unbounded"
        ));
    }
    if w.cache_budget.is_some() && evicted == 0 {
        problems.push("no frame-cache evictions under the budget".to_string());
    }
    if w.deadline.is_some()
        && (tally.completed == 0 || tally.shed == 0 || tally.deadline_exceeded == 0)
    {
        problems.push("a disposition class is empty".to_string());
    }

    let resolved = tally.attempted - tally.failed;
    let metrics = vec![
        ("setup_s", median(&setup_times)),
        ("requests_per_s", resolved as f64 / busy.as_secs_f64()),
        ("batch_wall_ms_p50", median(&walls_ms)),
        ("peak_rss_mb", peak_rss_mb()),
        ("sim_latency_ms_mean", tally.sim_latency_ms_mean()),
        ("sim_goodput_share", tally.sim_goodput_share()),
        ("sim_paper_error_pct", paper_error_pct),
    ];
    let tail = tail_percentile(walls_ms.len());
    let detail = Json::obj([
        ("workload", Json::str(w.name)),
        ("seed", Json::Num(cfg.seed as f64)),
        ("traced", Json::Bool(false)),
        ("sim_digest", Json::str(format!("{:016x}", digest.finish()))),
        ("sim_ops", Json::Num(tally.sim_ops() as f64)),
        ("ops", Json::Num(op as f64)),
        ("batch_wall_samples", Json::Num(walls_ms.len() as f64)),
        (
            "batch_wall_tail_percentile",
            tail.map_or(Json::Null, Json::Num),
        ),
        (
            "batch_wall_ms_tail",
            tail.map_or(Json::Null, |p| Json::Num(percentile(&walls_ms, p))),
        ),
        ("measured_s", Json::Num(busy.as_secs_f64())),
        (
            "setup_s_samples",
            Json::Arr(setup_times.iter().map(|&t| Json::Num(t)).collect()),
        ),
        ("ramp_ops", Json::Num(w.ramp_ops as f64)),
        ("ramp_s", Json::Num(ramp_s)),
        ("completed", Json::Num(tally.completed as f64)),
        ("shed", Json::Num(tally.shed as f64)),
        (
            "deadline_exceeded",
            Json::Num(tally.deadline_exceeded as f64),
        ),
        ("frame_cache_hit_ratio", Json::Num(hit_ratio)),
        ("frame_cache_evictions", Json::Num(evicted as f64)),
        (
            "fig7_ladder_ms",
            Json::Arr(ladder.into_iter().map(Json::Num).collect()),
        ),
        (
            "problems",
            Json::Arr(problems.iter().map(Json::str).collect()),
        ),
    ]);
    RunResult {
        correct: problems.is_empty(),
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        detail,
    }
}
