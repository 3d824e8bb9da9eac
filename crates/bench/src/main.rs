//! `vhive-bench <subcommand> [flags]`: the paper's tables and figures,
//! the golden-file reports and `wsdump` behind one parser
//! ([`vhive_bench::cli`]). Bad input prints the usage text and exits 2.

use std::process::ExitCode;

use vhive_bench::cli;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match cli::parse(&argv).and_then(|a| cli::run(&a)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("vhive-bench: {e}\n{}", cli::usage());
            ExitCode::from(2)
        }
    }
}
