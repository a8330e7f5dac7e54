//! The one bench front end: `bench <experiment>… [--smoke|--quick]` runs
//! the named experiments in order, printing each one's text tables and
//! writing its `BENCH_<experiment>.json`. `bench all` regenerates every
//! table and figure of the paper into one `BENCH_all.json` — at `--smoke`
//! the report CI compares byte for byte with `BENCH_BASELINE.json`.
//! `bench --list` prints the names. A name or flag it does not know is an
//! error, never a silent full-scale run.
use std::process::ExitCode;

use xftl_bench::experiments::ablation;
use xftl_bench::experiments::android_exp::{fig7, table2, trace_scale};
use xftl_bench::experiments::channel_exp::channel_scaling;
use xftl_bench::experiments::concurrent_exp::{concurrent_scaling, ConcScale};
use xftl_bench::experiments::endurance_exp::{endurance_sweep, EnduranceScale};
use xftl_bench::experiments::fault_exp::{fault_sweep, FaultScale};
use xftl_bench::experiments::fio_exp::{fig8, fig9, FioScale};
use xftl_bench::experiments::recovery_exp::{table5, RecoveryScale};
use xftl_bench::experiments::steady_exp::{steady, SteadyScale};
use xftl_bench::experiments::synthetic_exp::{calibrate, fig5, fig6, table1, SynScale};
use xftl_bench::experiments::tpcc_exp::{tables_3_4, TpccExpScale};
use xftl_bench::{metrics, write_report, RunScale};

/// One experiment: its name (and its report's), whether `bench all`
/// includes it, and the run at a scale, returning the text tables.
type Experiment = (&'static str, bool, fn(RunScale) -> String);

/// Every experiment; `all` runs its members in this order.
const REGISTRY: &[Experiment] = &[
    ("fig5", true, |s| fig5(SynScale::at(s))),
    ("table1", true, |s| table1(SynScale::at(s))),
    ("fig6", true, |s| fig6(SynScale::at(s))),
    ("table2", true, |s| table2(trace_scale(s))),
    ("fig7", true, |s| fig7(trace_scale(s))),
    ("tpcc", true, |s| tables_3_4(TpccExpScale::at(s))),
    ("fig8", true, |s| fig8(FioScale::at(s))),
    ("fig9", true, |s| fig9(FioScale::at(s))),
    ("channels", true, |s| channel_scaling(FioScale::at(s))),
    ("concurrent", true, |s| concurrent_scaling(ConcScale::at(s))),
    ("table5", true, |s| table5(RecoveryScale::at(s))),
    ("faults", true, |s| fault_sweep(FaultScale::at(s))),
    ("ablation", true, |s| ablation::all(s != RunScale::Full)),
    ("steady", false, |s| steady(&SteadyScale::at(s))),
    ("endurance", false, |s| {
        endurance_sweep(EnduranceScale::at(s))
    }),
    ("calibrate", false, |s| calibrate(SynScale::at(s))),
];

/// Every name `bench` accepts, as `--list` prints them.
fn names() -> impl Iterator<Item = &'static str> {
    std::iter::once("all").chain(REGISTRY.iter().map(|row| row.0))
}

/// What a command line asks for.
#[derive(Debug, PartialEq)]
enum Cmd {
    List,
    Run(Vec<&'static str>, RunScale),
}

fn parse(args: &[&str]) -> Result<Cmd, String> {
    if args == ["--list"] {
        return Ok(Cmd::List);
    }
    let mut scale = None;
    let mut run = Vec::new();
    for &arg in args {
        let flag = match arg {
            "--smoke" => RunScale::Smoke,
            "--quick" => RunScale::Quick,
            "--list" => return Err("`--list` takes no other argument".into()),
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            name => {
                let known = names().find(|n| *n == name);
                run.push(known.ok_or_else(|| format!("unknown experiment `{name}`"))?);
                continue;
            }
        };
        if scale.replace(flag).is_some() {
            return Err("give one scale flag, not two".into());
        }
    }
    if run.is_empty() {
        return Err("name at least one experiment".into());
    }
    Ok(Cmd::Run(run, scale.unwrap_or(RunScale::Full)))
}

/// Runs `name` — or, for `all`, its members — into one report.
fn run(name: &str, scale: RunScale) {
    metrics::reset();
    for (row, in_all, experiment) in REGISTRY {
        if *row == name || (name == "all" && *in_all) {
            print!("{}", experiment(scale));
        }
    }
    write_report(name, scale);
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args.iter().map(String::as_str).collect::<Vec<_>>()) {
        Ok(Cmd::List) => names().for_each(|name| println!("{name}")),
        Ok(Cmd::Run(experiments, scale)) => experiments.iter().for_each(|name| run(name, scale)),
        Err(why) => {
            eprintln!("bench: {why}");
            eprintln!("usage: bench <experiment>... [--smoke|--quick]  |  bench --list");
            eprintln!("experiments: {}", names().collect::<Vec<_>>().join(" "));
            return ExitCode::from(2);
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_all_keeps_its_order() {
        let mut seen: Vec<&str> = names().collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), REGISTRY.len() + 1, "duplicate or `all` row");
        assert!(names().all(|n| !n.starts_with('-')));
        // The key order of BENCH_all.json — and so of BENCH_BASELINE.json —
        // is the order the experiments run in.
        let in_all: Vec<&str> = REGISTRY.iter().filter(|r| r.1).map(|r| r.0).collect();
        assert_eq!(
            in_all,
            [
                "fig5",
                "table1",
                "fig6",
                "table2",
                "fig7",
                "tpcc",
                "fig8",
                "fig9",
                "channels",
                "concurrent",
                "table5",
                "faults",
                "ablation"
            ]
        );
    }

    #[test]
    fn command_line_is_parsed_or_rejected() {
        assert_eq!(parse(&["fig5"]), Ok(Cmd::Run(vec!["fig5"], RunScale::Full)));
        assert_eq!(
            parse(&["all", "--smoke", "steady"]),
            Ok(Cmd::Run(vec!["all", "steady"], RunScale::Smoke))
        );
        assert_eq!(
            parse(&["--quick", "steady"]),
            Ok(Cmd::Run(vec!["steady"], RunScale::Quick))
        );
        assert_eq!(parse(&["--list"]), Ok(Cmd::List));
        for bad in [
            &["fig55"][..],
            &["fig5", "--smok"],
            &["fig5", "--smoke", "--quick"],
            &["fig5", "--smoke", "--smoke"],
            &["fig5", "--list"],
            &["--smoke"],
            &[],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    /// README's per-experiment table cannot drift from the registry: its
    /// rows name exactly what `bench --list` prints, in that order.
    #[test]
    fn readme_table_lists_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md");
        let readme = std::fs::read_to_string(path).expect("read README.md");
        let listed: Vec<&str> = readme
            .lines()
            .filter(|line| line.starts_with('|'))
            .filter_map(|line| line.split_once("--bin bench -- "))
            .filter_map(|(_, rest)| rest.split(['`', ' ']).next())
            .collect();
        assert_eq!(listed, names().collect::<Vec<_>>());
    }
}
