//! Shape assertions for the paper's figures: lighter-weight versions of
//! the `vhive-bench` figure subcommands (Fig 2-5, 7, 8) that run in the
//! test suite, pinning the qualitative results the paper reports. The
//! exact bytes of every paper-facing subcommand's `--quick` output are
//! pinned separately, by `vhive-bench paper --quick` against
//! `PAPER_golden.txt`.

use functionbench::FunctionId;
use vhive_core::detect::contiguity;
use vhive_core::report::speedup;
use vhive_core::{ColdPolicy, Orchestrator};

/// Fig 2: cold invocations are 1-2 orders of magnitude slower than warm.
#[test]
fn fig2_cold_vs_warm_orders_of_magnitude() {
    let mut orch = Orchestrator::new(21);
    for f in [FunctionId::helloworld, FunctionId::lr_serving] {
        orch.register(f);
        let warm = orch.invoke_warm(f);
        orch.release_warm(f);
        let cold = orch.invoke_cold(f, ColdPolicy::Vanilla);
        let ratio = cold.latency.as_secs_f64() / warm.latency.as_secs_f64();
        assert!(
            ratio > 10.0,
            "{f}: cold/warm ratio {ratio:.0} should exceed 10x"
        );
        orch.unregister(f);
    }
}

/// Fig 2 (breakdown): Load VMM + connection restoration land in the
/// paper's 156-317 ms window for the SSD platform.
#[test]
fn fig2_universal_components_range() {
    let mut orch = Orchestrator::new(22);
    let f = FunctionId::helloworld;
    orch.register(f);
    let out = orch.invoke_cold(f, ColdPolicy::Vanilla);
    let universal = out.breakdown.load_vmm + out.breakdown.conn_restore;
    let ms = universal.as_millis_f64();
    assert!(
        (80.0..340.0).contains(&ms),
        "load VMM + conn restore = {ms:.0} ms (paper: 156-317 ms)"
    );
}

/// Fig 3: mean contiguous-region length is 2-3 pages; lr_training is the
/// outlier at ~5.
#[test]
fn fig3_contiguity_shape() {
    let mut orch = Orchestrator::new(23);
    let mut hello_mean = 0.0;
    let mut lr_mean = 0.0;
    for f in [FunctionId::helloworld, FunctionId::lr_training] {
        orch.register(f);
        let out = orch.invoke_cold(f, ColdPolicy::Vanilla);
        let stats = contiguity(&out.touched);
        if f == FunctionId::helloworld {
            hello_mean = stats.mean_run;
        } else {
            lr_mean = stats.mean_run;
        }
        orch.unregister(f);
    }
    assert!(
        (1.7..3.8).contains(&hello_mean),
        "helloworld contiguity {hello_mean:.1} (paper: 2-3)"
    );
    assert!(
        lr_mean > hello_mean,
        "lr_training ({lr_mean:.1}) shows longer runs than helloworld ({hello_mean:.1})"
    );
    assert!(
        (3.5..8.0).contains(&lr_mean),
        "lr_training contiguity {lr_mean:.1} (paper: ~5)"
    );
}

/// Fig 4: booted footprints 148-256 MB; restored working sets 8-99 MB and
/// a 61-96% reduction.
#[test]
fn fig4_footprint_reduction() {
    let mut orch = Orchestrator::new(24);
    for f in [FunctionId::helloworld, FunctionId::cnn_serving] {
        let info = orch.register(f);
        let boot_mb = info.boot_footprint_bytes as f64 / 1e6;
        let out = orch.invoke_cold(f, ColdPolicy::Vanilla);
        let ws_mb = out.footprint_bytes as f64 / 1e6;
        let reduction = 1.0 - ws_mb / boot_mb;
        assert!(
            (0.55..0.97).contains(&reduction),
            "{f}: footprint reduction {:.0}% (paper: 61-96%)",
            reduction * 100.0
        );
        orch.unregister(f);
    }
}

/// Fig 5: small-input functions reuse ≳95% of pages across invocations
/// with different inputs; large-input ones reuse less but >70%.
#[test]
fn fig5_reuse_structure() {
    let mut orch = Orchestrator::new(25);
    let reuse_of = |orch: &mut Orchestrator, f: FunctionId| {
        orch.register(f);
        let a = orch.invoke_cold(f, ColdPolicy::Vanilla);
        let b = orch.invoke_cold(f, ColdPolicy::Vanilla);
        let overlap = vhive_core::working_set_overlap(&a.touched, &b.touched);
        orch.unregister(f);
        overlap.reuse_fraction()
    };
    let hello = reuse_of(&mut orch, FunctionId::helloworld);
    let image = reuse_of(&mut orch, FunctionId::image_rotate);
    assert!(hello > 0.95, "helloworld reuse {hello:.3} (paper: >97%)");
    assert!(
        (0.70..0.97).contains(&image),
        "image_rotate reuse {image:.3} (paper: lower, but >76%)"
    );
    assert!(hello > image, "large inputs must lower reuse");
}

/// Fig 7: the four design points land in order, with REAP within the
/// paper's ~60 ms ballpark for helloworld.
#[test]
fn fig7_design_point_ladder() {
    let f = FunctionId::helloworld;
    let mut orch = Orchestrator::new(26);
    orch.register(f);
    orch.invoke_record(f);
    let vanilla = orch.invoke_cold(f, ColdPolicy::Vanilla);
    let parallel = orch.invoke_cold(f, ColdPolicy::ParallelPF);
    let ws_file = orch.invoke_cold(f, ColdPolicy::WsFileCached);
    let reap = orch.invoke_cold(f, ColdPolicy::Reap);
    // Paper: 232 -> 118 -> 71 -> 60 ms.
    let v = vanilla.latency.as_millis_f64();
    let p = parallel.latency.as_millis_f64();
    let w = ws_file.latency.as_millis_f64();
    let r = reap.latency.as_millis_f64();
    assert!((170.0..300.0).contains(&v), "vanilla {v:.0} ms (paper 232)");
    assert!((80.0..170.0).contains(&p), "parallel {p:.0} ms (paper 118)");
    assert!((55.0..110.0).contains(&w), "ws-file {w:.0} ms (paper 71)");
    assert!((40.0..80.0).contains(&r), "reap {r:.0} ms (paper 60)");
}

/// Fig 8: REAP speeds up cold starts by >2.5x on small-input functions and
/// still wins on large-input ones.
#[test]
fn fig8_speedups() {
    let mut orch = Orchestrator::new(27);
    for (f, min_speedup) in [
        (FunctionId::helloworld, 2.5),
        (FunctionId::lr_serving, 3.0),
        (FunctionId::image_rotate, 1.7),
    ] {
        orch.register(f);
        let vanilla = orch.invoke_cold(f, ColdPolicy::Vanilla);
        orch.invoke_record(f);
        let reap = orch.invoke_cold(f, ColdPolicy::Reap);
        let s = speedup(vanilla.latency, reap.latency);
        assert!(
            s > min_speedup,
            "{f}: speedup {s:.2}x below expected {min_speedup}x"
        );
        orch.unregister(f);
    }
}

/// §6.3: connection restoration shrinks dramatically under REAP (45x in
/// the paper).
#[test]
fn conn_restore_collapses_under_reap() {
    let f = FunctionId::helloworld;
    let mut orch = Orchestrator::new(28);
    orch.register(f);
    let vanilla = orch.invoke_cold(f, ColdPolicy::Vanilla);
    orch.invoke_record(f);
    let reap = orch.invoke_cold(f, ColdPolicy::Reap);
    let shrink = vanilla.breakdown.conn_restore.as_secs_f64()
        / reap.breakdown.conn_restore.as_secs_f64().max(1e-9);
    assert!(
        shrink > 10.0,
        "conn restore should shrink >10x, got {shrink:.1}x"
    );
    // Paper: 4-7 ms after prefetch.
    let ms = reap.breakdown.conn_restore.as_millis_f64();
    assert!(ms < 12.0, "REAP conn restore {ms:.1} ms (paper 4-7 ms)");
}
