//! The `vhive-bench` command line: one strict parser and one dispatch
//! table for every subcommand.
//!
//! Every argument is a flag the subcommand takes, the value of one, or a
//! function name where the subcommand takes names. Anything else — an
//! unknown subcommand or flag, a flag another subcommand owns, a missing
//! or malformed value, a stray positional, an unknown function — is an
//! `Err` that `main` prints above [`usage`] before exiting 2.

use functionbench::FunctionId;

/// A subcommand body. `Err` is bad input (usage text, exit 2).
pub type Run = fn(&Args) -> Result<(), String>;

/// One row of the dispatch table.
pub struct Command {
    /// Subcommand name, the first argument.
    pub name: &'static str,
    /// The flags it takes (each flag's value placeholder is in `FLAGS`).
    pub flags: &'static [&'static str],
    /// Most function names it takes as positional arguments.
    pub names: usize,
    /// One-line summary for [`usage`].
    pub about: &'static str,
    /// The body.
    pub run: Run,
}

/// Every flag, with the placeholder of its value (`""` for a switch).
const FLAGS: &[(&str, &str)] = &[
    ("--quick", ""),
    ("--seed", "N"),
    ("--shards", "K"),
    ("--faults", "on|off"),
    ("--exact", ""),
    ("--invoke", "N"),
    ("--expose", ""),
    ("--synth", "N"),
];

const SUITE: &[&str] = &["--quick"];
const ALL: usize = usize::MAX;

/// The dispatch table.
pub const COMMANDS: &[Command] = &[
    Command { name: "paper", flags: SUITE, names: 0, about: "every PAPER subcommand in paper order (PAPER_golden.txt)", run: paper },
    Command { name: "boot_vs_snapshot", flags: SUITE, names: ALL, about: "§2.2 full boot vs snapshot restore vs REAP", run: crate::sections::boot_vs_snapshot },
    Command { name: "fig2", flags: SUITE, names: ALL, about: "Fig 2 cold vs warm latency breakdown", run: crate::figures::fig2 },
    Command { name: "fig3", flags: SUITE, names: ALL, about: "Fig 3 guest-memory contiguity", run: crate::figures::fig3 },
    Command { name: "fig4", flags: SUITE, names: ALL, about: "Fig 4 booted vs restored footprints", run: crate::figures::fig4 },
    Command { name: "fig5", flags: SUITE, names: ALL, about: "Fig 5 pages same/unique across invocations", run: crate::figures::fig5 },
    Command { name: "fio", flags: &[], names: 0, about: "§5.2.3 disk microbenchmark", run: crate::sections::fio },
    Command { name: "table1", flags: &[], names: 0, about: "Table 1 the function suite", run: crate::figures::table1 },
    Command { name: "fig7", flags: &[], names: 0, about: "Fig 7 REAP optimization steps", run: crate::figures::fig7 },
    Command { name: "fig8", flags: SUITE, names: ALL, about: "Fig 8 baseline vs REAP, all functions", run: crate::figures::fig8 },
    Command { name: "hdd", flags: SUITE, names: ALL, about: "§6.3 REAP speedup on an HDD", run: crate::sections::hdd },
    Command { name: "warm_background", flags: &[], names: 0, about: "§6.3 cold starts amid 20 warm functions", run: crate::sections::warm_background },
    Command { name: "record_overhead", flags: SUITE, names: ALL, about: "§6.4 record-phase overhead", run: crate::sections::record_overhead },
    Command { name: "fig9", flags: &["--quick", "--shards"], names: 0, about: "Fig 9 concurrency sweep, baseline vs REAP and per shard count", run: crate::figures::fig9 },
    Command { name: "mispredict", flags: SUITE, names: ALL, about: "§7.1 prefetch accuracy per function", run: crate::sections::mispredict },
    Command { name: "ablation_remote", flags: &[], names: 0, about: "§7.1 snapshots on remote storage", run: crate::sections::ablation_remote },
    Command { name: "ablation_fallback", flags: &[], names: 0, about: "§7.2 re-record fallback on/off", run: crate::sections::ablation_fallback },
    Command { name: "ablation_record_window", flags: &[], names: 0, about: "§8.2 invocation-window recording vs profiling", run: crate::sections::ablation_record_window },
    Command { name: "chaos", flags: &["--quick", "--seed", "--faults"], names: 0, about: "fault-invariance witness (CSV byte-identical faults on/off)", run: crate::chaos::run },
    Command { name: "overload", flags: &["--quick", "--seed"], names: 0, about: "goodput vs offered load, admission on/off (OVERLOAD_golden.txt)", run: crate::overload::run },
    Command {
        name: "metrics",
        flags: &["--exact", "--invoke", "--expose", "--synth", "--seed", "--shards"],
        names: 0,
        about: "windowed rollups, --exact percentiles, --expose (TELEMETRY/METRICS goldens)",
        run: crate::metrics::run,
    },
    Command { name: "wsdump", flags: &[], names: 1, about: "dump one function's REAP trace / WS file structure", run: crate::wsdump::run },
];

/// What `paper` walks, in paper-section order: each paper-facing
/// subcommand exactly once.
pub const PAPER: &[&str] = &[
    "boot_vs_snapshot",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fio",
    "table1",
    "fig7",
    "fig8",
    "hdd",
    "warm_background",
    "record_overhead",
    "fig9",
    "mispredict",
    "ablation_remote",
    "ablation_fallback",
    "ablation_record_window",
];

/// `metrics`' report mode.
#[derive(Debug, Clone, PartialEq)]
pub enum Mode {
    /// Windowed rollup query (the default).
    Window,
    /// `--exact`: percentiles scanned from the span batches.
    Exact,
    /// `--expose`: the registry's text exposition.
    Expose,
}

/// A parsed command line. Flags a subcommand does not take keep their
/// defaults; `None` means the subcommand's own default.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// The subcommand.
    pub command: &'static str,
    /// `--quick`: the CI-sized run.
    pub quick: bool,
    /// Function names given as positional arguments.
    pub functions: Vec<FunctionId>,
    /// `--seed N`.
    pub seed: Option<u64>,
    /// `--shards K`.
    pub shards: Option<u32>,
    /// `chaos --faults on|off` (default on).
    pub faults: bool,
    /// `metrics`' mode.
    pub mode: Mode,
    /// `metrics --synth N`: synthetic spans (10000 when neither this nor
    /// `invoke` is given).
    pub synth: Option<u64>,
    /// `metrics --exact --invoke N`: real cold invocations.
    pub invoke: Option<u64>,
}

impl Args {
    /// `command` with every flag at its default.
    pub fn new(command: &'static str) -> Self {
        Args {
            command,
            quick: false,
            functions: Vec::new(),
            seed: None,
            shards: None,
            faults: true,
            mode: Mode::Window,
            synth: None,
            invoke: None,
        }
    }

    /// The functions a suite-wide subcommand runs: `--quick`'s four, the
    /// names given, or all ten.
    pub fn suite(&self) -> Vec<FunctionId> {
        if self.quick {
            crate::quick_suite()
        } else if self.functions.is_empty() {
            crate::suite()
        } else {
            self.functions.clone()
        }
    }
}

fn command(name: &str) -> Option<&'static Command> {
    COMMANDS.iter().find(|c| c.name == name)
}

fn num<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value.parse().map_err(|_| format!("{flag}: cannot parse {value:?}"))
}

fn set_mode(a: &mut Args, mode: Mode) -> Result<(), String> {
    if a.mode != Mode::Window {
        return Err("--exact and --expose are mutually exclusive".into());
    }
    a.mode = mode;
    Ok(())
}

/// Strict: `argv[0]` names a subcommand, and every later argument is a
/// flag it takes, the value of one, or a function name it takes.
pub fn parse(argv: &[String]) -> Result<Args, String> {
    let (name, rest) = argv.split_first().ok_or("missing subcommand")?;
    let cmd = command(name).ok_or_else(|| format!("unknown subcommand {name}"))?;
    let mut a = Args::new(cmd.name);
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        if !arg.starts_with("--") {
            if a.functions.len() == cmd.names {
                return Err(format!("{name}: unexpected argument {arg}"));
            }
            a.functions.push(arg.parse().map_err(|e| format!("{name}: {e}"))?);
            continue;
        }
        if !cmd.flags.contains(&arg.as_str()) {
            return Err(if FLAGS.iter().any(|(f, _)| f == arg) {
                format!("{name} does not take {arg}")
            } else {
                format!("unknown argument {arg}")
            });
        }
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--quick" => a.quick = true,
            "--seed" => a.seed = Some(num(arg, value()?)?),
            "--shards" => a.shards = Some(num(arg, value()?)?),
            "--faults" => {
                a.faults = match value()?.as_str() {
                    "on" => true,
                    "off" => false,
                    _ => return Err("--faults needs on|off".into()),
                }
            }
            "--exact" => set_mode(&mut a, Mode::Exact)?,
            "--expose" => set_mode(&mut a, Mode::Expose)?,
            "--synth" => a.synth = Some(num(arg, value()?)?),
            "--invoke" => a.invoke = Some(num(arg, value()?)?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if a.invoke.is_some() && (a.synth.is_some() || a.mode != Mode::Exact) {
        return Err("--invoke needs --exact and excludes --synth".into());
    }
    if a.shards == Some(0) {
        return Err("--shards must be at least 1".into());
    }
    Ok(a)
}

/// Runs the parsed subcommand.
pub fn run(a: &Args) -> Result<(), String> {
    let cmd = command(a.command).ok_or_else(|| format!("unknown subcommand {}", a.command))?;
    (cmd.run)(a)
}

/// The usage text: one line per subcommand with the flags it takes.
pub fn usage() -> String {
    let mut s = String::from("usage: vhive-bench <subcommand> [flags]\n");
    for cmd in COMMANDS {
        let mut line = format!("  {}", cmd.name);
        for flag in cmd.flags {
            match FLAGS.iter().find(|(f, _)| f == flag) {
                Some((_, "")) | None => line += &format!(" [{flag}]"),
                Some((_, value)) => line += &format!(" [{flag} {value}]"),
            }
        }
        match cmd.names {
            0 => {}
            1 => line += " [FUNCTION]",
            _ => line += " [FUNCTION...]",
        }
        s += &format!("{line}\n      {}\n", cmd.about);
    }
    s
}

/// `paper`: every [`PAPER`] subcommand in order, each under a
/// `## vhive-bench <name> [--quick]` line that reruns just that section.
fn paper(a: &Args) -> Result<(), String> {
    for &name in PAPER {
        let cmd = command(name).ok_or_else(|| format!("unknown subcommand {name}"))?;
        let quick = a.quick && cmd.flags.contains(&"--quick");
        println!("## vhive-bench {name}{}", if quick { " --quick" } else { "" });
        (cmd.run)(&Args { quick, ..Args::new(cmd.name) })?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_str(line: &str) -> Result<Args, String> {
        parse(&line.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    /// A value `flag` parses, for every flag that takes one (plus the
    /// flag `--invoke` needs beside it).
    fn sample(flag: &str) -> &'static str {
        match flag {
            "--faults" => "on",
            "--invoke" => "3 --exact",
            _ => "3",
        }
    }

    /// Asserts every line is rejected with an error naming its problem.
    fn rejects(cases: &[(&str, &str)]) {
        for (line, problem) in cases {
            let e = parse_str(line).unwrap_err();
            assert!(e.contains(problem), "{line:?}: {e}");
        }
    }

    #[test]
    fn paper_entries_dispatch_once_and_usage_names_every_subcommand() {
        for name in PAPER {
            assert!(command(name).is_some(), "{name} is not dispatchable");
            assert_eq!(PAPER.iter().filter(|n| *n == name).count(), 1, "{name}");
        }
        let text = usage();
        for cmd in COMMANDS {
            assert_eq!(COMMANDS.iter().filter(|c| c.name == cmd.name).count(), 1);
            let named = text.lines().any(|l| l.split_whitespace().next() == Some(cmd.name));
            assert!(named, "{} missing from the usage text", cmd.name);
        }
    }

    #[test]
    fn every_flag_a_subcommand_takes_parses() {
        for cmd in COMMANDS {
            for flag in cmd.flags {
                let has_value = FLAGS.iter().any(|(f, v)| f == flag && !v.is_empty());
                let line = if has_value {
                    format!("{} {flag} {}", cmd.name, sample(flag))
                } else {
                    format!("{} {flag}", cmd.name)
                };
                assert!(parse_str(&line).is_ok(), "{line}: {:?}", parse_str(&line));
            }
        }
    }

    #[test]
    fn unknown_subcommand_is_an_error() {
        rejects(&[
            ("fig6", "unknown subcommand fig6"),
            ("", "missing subcommand"),
            ("--quick", "unknown subcommand --quick"),
        ]);
    }

    /// Every subcommand, and every `metrics` mode, rejects an unknown
    /// flag, a flag another subcommand owns, and a value flag with no or
    /// a malformed value.
    #[test]
    fn unknown_flags_and_missing_values_are_errors_in_every_mode() {
        for cmd in COMMANDS {
            let e = parse_str(&format!("{} --bogus", cmd.name)).unwrap_err();
            assert!(e.contains("unknown argument --bogus"), "{}: {e}", cmd.name);
            for (flag, value) in FLAGS {
                let line = format!("{} {flag}", cmd.name);
                let e = parse_str(&line).err().unwrap_or_default();
                if !cmd.flags.contains(flag) {
                    assert!(e.contains(&format!("does not take {flag}")), "{line}: {e}");
                } else if !value.is_empty() {
                    assert!(e.contains(&format!("{flag} needs a value")), "{line}: {e}");
                }
            }
        }
        for mode in ["", "--exact", "--expose"] {
            let unknown = parse_str(&format!("metrics {mode} --sead 7")).unwrap_err();
            assert!(unknown.contains("--sead"), "{mode}: {unknown}");
            let missing = parse_str(&format!("metrics {mode} --seed")).unwrap_err();
            assert!(missing.contains("--seed needs a value"), "{mode}: {missing}");
        }
        rejects(&[
            ("table1 --seed 3", "table1 does not take --seed"),
            ("wsdump --quick", "wsdump does not take --quick"),
            ("metrics --seed seven", "--seed: cannot parse"),
            ("chaos --faults maybe", "--faults needs on|off"),
            ("fig9 --shards 0", "must be at least 1"),
        ]);
    }

    #[test]
    fn stray_positionals_are_errors() {
        rejects(&[
            ("fig9 --quick 3", "fig9: unexpected argument 3"),
            ("table1 helloworld", "table1: unexpected argument helloworld"),
            ("metrics stray", "metrics: unexpected argument stray"),
            ("wsdump pyaes helloworld", "wsdump: unexpected argument helloworld"),
        ]);
        assert_eq!(parse_str("wsdump pyaes").unwrap().functions, [FunctionId::pyaes]);
    }

    #[test]
    fn bad_function_names_are_errors() {
        rejects(&[
            ("fig8 not_a_function", "fig8: unknown function name: not_a_function"),
            ("wsdump nope", "wsdump: unknown function name: nope"),
        ]);
        let named = parse_str("fig8 pyaes helloworld").unwrap();
        assert_eq!(named.suite(), [FunctionId::pyaes, FunctionId::helloworld]);
        assert_eq!(parse_str("fig8 --quick").unwrap().suite(), crate::quick_suite());
        assert_eq!(parse_str("fig8").unwrap().suite(), crate::suite());
    }

    #[test]
    fn defaults_of_both_report_modes() {
        assert_eq!(parse_str("metrics").unwrap(), Args::new("metrics"));
        let exact = Args { mode: Mode::Exact, ..Args::new("metrics") };
        assert_eq!(parse_str("metrics --exact").unwrap(), exact);
        let golden = parse_str("metrics --exact --synth 1000000 --seed 7 --shards 4").unwrap();
        assert_eq!((golden.synth, golden.seed, golden.shards), (Some(1_000_000), Some(7), Some(4)));
    }

    #[test]
    fn invoke_lives_under_exact_and_excludes_synth() {
        assert_eq!(parse_str("metrics --exact --invoke 40").unwrap().invoke, Some(40));
        assert!(parse_str("metrics --invoke 40").is_err());
        assert!(parse_str("metrics --exact --synth 10 --invoke 40").is_err());
        assert!(parse_str("metrics --exact --expose").is_err());
    }
}
