//! `wsdump`, a developer tool: inspect a function's REAP artifacts.
//!
//! Records a working set for the named function (default `helloworld`)
//! and dumps the trace/WS file structure: sizes, fault-order prefix,
//! per-region composition, and contiguity — handy when debugging why a
//! prefetch over- or under-covers.

use functionbench::FunctionId;
use guest_mem::PageBitmap;
use guest_os::RegionKind;
use sim_core::Table;
use vhive_core::detect::contiguity;
use vhive_core::{read_trace_runs, Orchestrator};

use crate::cli::Args;

/// `wsdump [FUNCTION]`.
pub fn run(a: &Args) -> Result<(), String> {
    let f = a.functions.first().copied().unwrap_or(FunctionId::helloworld);
    let mut orch = Orchestrator::new(0xD0_D0);
    orch.register(f);
    let record = orch.invoke_record(f);

    let fs = orch.fs();
    let trace_file = fs.open(&format!("snapshots/{f}/ws_trace")).expect("trace");
    let ws_file = fs.open(&format!("snapshots/{f}/ws_pages")).expect("ws");
    let runs = read_trace_runs(fs, trace_file).expect("parse trace");
    let trace: Vec<_> = runs.iter().flat_map(|r| r.iter()).collect();

    println!("== REAP artifacts for {f} ==");
    println!("trace file: {} bytes", fs.len(trace_file));
    println!(
        "ws file:    {} bytes ({:.1} MB of pages)",
        fs.len(ws_file),
        trace.len() as f64 * 4096.0 / 1e6
    );
    println!("recorded pages: {} (record latency {})", trace.len(), record.latency);
    let first: Vec<String> = trace.iter().take(12).map(|p| p.to_string()).collect();
    println!("fault order head: {}", first.join(", "));

    // Region composition of the working set.
    let space = guest_os::AddressSpace::new(65536, guest_os::LayoutSpec::default());
    let mut t = Table::new(&["region", "pages", "share"]);
    t.numeric();
    for kind in RegionKind::ALL {
        let count = trace
            .iter()
            .filter(|p| space.region_of(**p) == Some(kind))
            .count();
        if count > 0 {
            t.row(&[
                kind.name(),
                &count.to_string(),
                &format!("{:.1}%", 100.0 * count as f64 / trace.len() as f64),
            ]);
        }
    }
    println!("\n{t}");

    let mut recorded = PageBitmap::new(record.touched.len());
    for run in &runs {
        recorded.set_run(*run);
    }
    let stats = contiguity(&recorded);
    println!(
        "contiguity: mean region {:.2} pages over {} regions",
        stats.mean_run, stats.regions
    );
    Ok(())
}
