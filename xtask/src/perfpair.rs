//! `xtask perf-pair` — the paired-run protocol for a host-clock claim.
//!
//! A number on the host clock means something only next to the same
//! number from the parent commit, taken on the same machine minutes
//! apart. This builds `perf` (the repository's benchmark, see
//! `BENCHMARK.json`) in two checkouts, runs one workload alternately on
//! both — which side goes first alternates too, and `--seeds 1,7,13`
//! cycles the seeds across the pairs — and prints, per end-to-end metric,
//! both medians and quartiles, how many pairs the change won, the
//! difference of the medians beside the bound `BENCHMARK.json` allows,
//! and whether the rule for a gain holds: at least nine tenths of the
//! pairs won (ties count for neither side) and the medians further apart
//! than the parent's own quartiles. The simulated and count metrics are
//! exact per seed: ten pairs at one seed are ten copies of one number, so
//! a claim on them is shown on several seeds (one of them unseen while
//! the change was written), and the report says when both sides printed
//! the same value in every pair, or when one side did not repeat itself.
//!
//! `perf` itself is untouched: this only builds it, runs it, and reads
//! the JSON object on the last line of its standard output.

use std::path::{Path, PathBuf};
use std::process::Command;

use xftl_trace::{parse_json, JsonValue};

/// The `perf` package inside a checkout.
const PERF_DIR: &str = "crates/bench/src/bin/perf";

/// What `perf-pair` was asked to do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// Checkout of the parent commit.
    pub parent: PathBuf,
    /// Workload name, passed through to `perf`.
    pub workload: String,
    /// Seeds, passed through to `perf`: pair `i` runs both sides at
    /// `seeds[i % seeds.len()]`.
    pub seeds: Vec<u64>,
    /// Number of (parent, change) pairs.
    pub pairs: usize,
}

impl Args {
    /// Parses `--parent P --workload W [--pairs N] [--seeds A,B,…]`
    /// (`--seed N` is `--seeds N`).
    pub fn parse(args: &[String]) -> Result<Args, String> {
        let (mut parent, mut workload, mut seeds, mut pairs) = (None, None, vec![1], 10);
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
            let number = |text: &str| {
                text.parse::<u64>()
                    .map_err(|_| format!("`{flag} {value}`: not a number"))
            };
            match flag.as_str() {
                "--parent" => parent = Some(PathBuf::from(value)),
                "--workload" => workload = Some(value.clone()),
                "--seed" | "--seeds" => {
                    seeds = value.split(',').map(number).collect::<Result<_, _>>()?;
                }
                "--pairs" => pairs = number(value)? as usize,
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        if pairs == 0 {
            return Err("`--pairs` must be at least 1".into());
        }
        Ok(Args {
            parent: parent.ok_or("`--parent <checkout>` is required")?,
            workload: workload.ok_or("`--workload <name>` is required")?,
            seeds,
            pairs,
        })
    }
}

/// An end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    /// Metric name.
    pub name: String,
    /// True if a larger value is the better one.
    pub higher_is_better: bool,
    /// Share of the parent's value by which it may worsen.
    pub bound: f64,
}

impl MetricDef {
    /// Simulated-clock and count metrics repeat exactly per seed.
    pub fn is_exact(&self) -> bool {
        ["sim_", "flash_", "recovery_"]
            .iter()
            .any(|p| self.name.starts_with(p))
    }
}

/// The `end_to_end` list of a `BENCHMARK.json`.
pub fn metric_defs(benchmark_json: &str) -> Result<Vec<MetricDef>, String> {
    let doc = parse_json(benchmark_json).map_err(|e| format!("BENCHMARK.json: {}", e.msg))?;
    let JsonValue::Arr(list) = doc
        .get("end_to_end")
        .ok_or("BENCHMARK.json: no `end_to_end`")?
    else {
        return Err("BENCHMARK.json: `end_to_end` is not a list".into());
    };
    list.iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(JsonValue::as_str)
                    .ok_or_else(|| format!("BENCHMARK.json: metric without `{k}`"))
            };
            Ok(MetricDef {
                name: field("name")?.to_string(),
                higher_is_better: field("better")? == "higher",
                bound: m
                    .get("bound")
                    .and_then(JsonValue::as_f64)
                    .ok_or("BENCHMARK.json: metric without `bound`")?,
            })
        })
        .collect()
}

/// One run of `perf`: the metric values by name, and the failed-op count.
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    /// `failed` of the output object.
    pub failed: f64,
    /// `metrics.<name>.value` for every metric printed.
    pub metrics: Vec<(String, f64)>,
}

impl Run {
    /// Parses the last line of `perf`'s standard output.
    pub fn parse(stdout: &str) -> Result<Run, String> {
        let line = stdout.lines().last().ok_or("perf printed nothing")?;
        let doc = parse_json(line).map_err(|e| format!("perf output: {}", e.msg))?;
        if doc.get("correct") != Some(&JsonValue::Bool(true)) {
            return Err("perf output: `correct` is not true".into());
        }
        let failed = doc
            .get("failed")
            .and_then(JsonValue::as_f64)
            .ok_or("perf output: no `failed`")?;
        let metrics = doc
            .get("metrics")
            .and_then(JsonValue::members)
            .ok_or("perf output: no `metrics`")?
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
            .collect();
        Ok(Run { failed, metrics })
    }

    fn value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| n == name).map(|m| m.1)
    }
}

/// Linear-interpolated quantile of an ascending, non-empty list.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Quartiles of one side's runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// Lower quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Upper quartile.
    pub q3: f64,
}

impl Spread {
    /// Quartiles of `values` (non-empty).
    pub fn of(values: &[f64]) -> Spread {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        Spread {
            q1: quantile(&sorted, 0.25),
            median: quantile(&sorted, 0.5),
            q3: quantile(&sorted, 0.75),
        }
    }
}

/// One metric over all pairs.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// The metric.
    pub def: MetricDef,
    /// The parent's runs.
    pub parent: Spread,
    /// The change's runs.
    pub change: Spread,
    /// Pairs in which the change read better.
    pub wins: usize,
    /// Pairs in which the parent read better.
    pub losses: usize,
    /// Both sides printed the same value in every pair.
    pub identical: bool,
    /// Each side printed one value per seed, whatever the pair.
    pub repeats: bool,
}

impl Row {
    /// Compares `pairs` of (seed, parent, change) values of one metric.
    pub fn of(def: MetricDef, pairs: &[(u64, f64, f64)]) -> Row {
        let better = |a: f64, b: f64| if def.higher_is_better { a > b } else { a < b };
        let side = |pick: fn(&(u64, f64, f64)) -> f64| pairs.iter().map(pick).collect::<Vec<_>>();
        let same = |a: f64, b: f64| a.to_bits() == b.to_bits();
        Row {
            parent: Spread::of(&side(|p| p.1)),
            change: Spread::of(&side(|p| p.2)),
            wins: pairs.iter().filter(|(_, p, c)| better(*c, *p)).count(),
            losses: pairs.iter().filter(|(_, p, c)| better(*p, *c)).count(),
            identical: pairs.iter().all(|(_, p, c)| same(*p, *c)),
            repeats: pairs.iter().all(|(seed, p, c)| {
                let first = pairs.iter().find(|q| q.0 == *seed).unwrap_or(&pairs[0]);
                same(*p, first.1) && same(*c, first.2)
            }),
            def,
        }
    }

    /// The change's median less the parent's, as a share of the parent's
    /// and signed so that positive is better.
    pub fn gain(&self) -> f64 {
        let delta = (self.change.median - self.parent.median) / self.parent.median;
        if self.def.higher_is_better {
            delta
        } else {
            -delta
        }
    }

    /// The rule for a gain: nine tenths of the pairs won, and the medians
    /// further apart (in the better direction) than the parent's
    /// interquartile distance.
    pub fn is_gain(&self, pairs: usize) -> bool {
        let delta = self.change.median - self.parent.median;
        let toward_better = if self.def.higher_is_better {
            delta
        } else {
            -delta
        };
        self.wins * 10 >= pairs * 9 && toward_better > self.parent.q3 - self.parent.q1
    }

    fn verdict(&self, pairs: usize) -> String {
        if self.def.is_exact() && !self.repeats {
            return "NOT EXACT: a side printed two values at one seed".into();
        }
        if self.def.is_exact() && self.identical {
            return "identical in every pair".into();
        }
        let tag = if self.is_gain(pairs) {
            "gain"
        } else if self.gain() < -self.def.bound {
            "WORSE THAN ITS BOUND"
        } else if self.losses * 10 >= pairs * 9 {
            "worse"
        } else {
            "unresolved"
        };
        format!(
            "{:.2} % {} (may worsen by {:.0} %), {tag}",
            100.0 * self.gain().abs(),
            if self.gain() < 0.0 { "worse" } else { "better" },
            100.0 * self.def.bound
        )
    }
}

/// The report: one line per metric.
pub fn render(args: &Args, rows: &[Row], failed: (f64, f64)) -> String {
    let seeds: Vec<String> = args.seeds.iter().map(u64::to_string).collect();
    let mut out = format!(
        "perf-pair: workload {} seeds {} cycled over {} pairs, parent {}\n\
         failed ops over all runs: parent {} change {}\n\
         {:<24} {:>38} {:>38} {:>9}  verdict\n",
        args.workload,
        seeds.join(","),
        args.pairs,
        args.parent.display(),
        failed.0,
        failed.1,
        "metric",
        "parent median [q1, q3]",
        "change median [q1, q3]",
        "wins",
    );
    let spread = |s: &Spread| format!("{:.6} [{:.6}, {:.6}]", s.median, s.q1, s.q3);
    for row in rows {
        out += &format!(
            "{:<24} {:>38} {:>38} {:>6}/{:<2}  {}\n",
            row.def.name,
            spread(&row.parent),
            spread(&row.change),
            row.wins,
            args.pairs,
            row.verdict(args.pairs),
        );
    }
    out
}

fn build(root: &Path) -> Result<PathBuf, String> {
    let package = root.join(PERF_DIR);
    // An explicit target directory per checkout: an inherited
    // CARGO_TARGET_DIR would make the second build replace the first.
    let target = package.join("target");
    let status = Command::new("cargo")
        .args(["build", "--release", "--quiet", "--manifest-path"])
        .arg(package.join("Cargo.toml"))
        .arg("--target-dir")
        .arg(&target)
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building perf in {} failed", root.display()));
    }
    Ok(target.join("release/perf"))
}

fn run_once(bin: &Path, root: &Path, workload: &str, seed: u64) -> Result<Run, String> {
    let out = Command::new(bin)
        .current_dir(root)
        .args(["--workload", workload, "--trace", "0", "--seed"])
        .arg(seed.to_string())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", bin.display()))?;
    if !out.status.success() {
        return Err(format!(
            "{} failed: {}",
            bin.display(),
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Run::parse(&String::from_utf8_lossy(&out.stdout))
}

/// Builds both sides, runs the pairs, returns the rendered report.
pub fn perf_pair(change_root: &Path, args: &Args) -> Result<String, String> {
    let defs = metric_defs(
        &std::fs::read_to_string(change_root.join("BENCHMARK.json"))
            .map_err(|e| format!("BENCHMARK.json: {e}"))?,
    )?;
    let parent_bin = build(&args.parent)?;
    let change_bin = build(change_root)?;
    let mut runs = Vec::with_capacity(args.pairs);
    for pair in 0..args.pairs {
        let seed = args.seeds[pair % args.seeds.len()];
        let parent = |()| run_once(&parent_bin, &args.parent, &args.workload, seed);
        let change = |()| run_once(&change_bin, change_root, &args.workload, seed);
        let (p, c) = if pair % 2 == 0 {
            let p = parent(())?;
            (p, change(())?)
        } else {
            let c = change(())?;
            (parent(())?, c)
        };
        eprintln!(
            "perf-pair: pair {}/{} (seed {seed}) done",
            pair + 1,
            args.pairs
        );
        runs.push((seed, p, c));
    }
    let rows = defs
        .into_iter()
        .map(|def| {
            let pairs = runs
                .iter()
                .map(|(seed, p, c)| Some((*seed, p.value(&def.name)?, c.value(&def.name)?)))
                .collect::<Option<Vec<_>>>()
                .ok_or_else(|| format!("a run did not print `{}`", def.name))?;
            Ok(Row::of(def, &pairs))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let failed = runs.iter().fold((0.0, 0.0), |acc, (_, p, c)| {
        (acc.0 + p.failed, acc.1 + c.failed)
    });
    Ok(render(args, &rows, failed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(name: &str, higher: bool) -> MetricDef {
        MetricDef {
            name: name.into(),
            higher_is_better: higher,
            bound: 0.25,
        }
    }

    #[test]
    fn args_need_parent_and_workload_and_default_the_rest() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = Args::parse(&argv("--parent /p --workload oltp-xftl")).unwrap();
        assert_eq!((a.pairs, a.seeds), (10, vec![1]));
        let a = Args::parse(&argv("--workload w --seed 7 --pairs 3 --parent p")).unwrap();
        assert_eq!((a.pairs, a.seeds, a.workload.as_str()), (3, vec![7], "w"));
        let a = Args::parse(&argv("--workload w --seeds 1,7,13 --parent p")).unwrap();
        assert_eq!(a.seeds, [1, 7, 13]);
        assert!(Args::parse(&argv("--parent p --workload w --seeds 1,x")).is_err());
        assert!(Args::parse(&argv("--parent p --workload w --seeds")).is_err());
        assert!(Args::parse(&argv("--workload w")).is_err());
        assert!(Args::parse(&argv("--parent p")).is_err());
        assert!(Args::parse(&argv("--parent p --workload w --pairs 0")).is_err());
        assert!(Args::parse(&argv("--parent p --workload w --laps 2")).is_err());
        assert!(Args::parse(&argv("--parent p --workload")).is_err());
    }

    #[test]
    fn reads_metric_directions_and_perf_output() {
        let defs = metric_defs(
            r#"{"end_to_end": [{"name": "sim_ops_per_s", "better": "higher", "bound": 0.25},
                               {"name": "setup_s", "better": "lower", "bound": 0.25}]}"#,
        )
        .unwrap();
        assert_eq!(defs, [def("sim_ops_per_s", true), def("setup_s", false)]);
        assert!(metric_defs(r#"{"end_to_end": [{"name": "x", "better": "lower"}]}"#).is_err());
        assert!(defs[0].is_exact() && !defs[1].is_exact());
        let run = Run::parse(
            "progress line\n{\"correct\": true, \"attempted\": 5, \"failed\": 1, \
             \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}\n",
        )
        .unwrap();
        assert_eq!((run.failed, run.value("setup_s")), (1.0, Some(0.5)));
        assert!(Run::parse("{\"correct\": false, \"failed\": 0, \"metrics\": {}}").is_err());
        assert!(Run::parse("").is_err());
    }

    #[test]
    fn quartiles_interpolate() {
        let s = Spread::of(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!((s.q1, s.median, s.q3), (2.0, 3.0, 4.0));
        let s = Spread::of(&[1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.25, 1.5, 1.75));
        let s = Spread::of(&[7.0]);
        assert_eq!((s.q1, s.median, s.q3), (7.0, 7.0, 7.0));
    }

    #[test]
    fn a_gain_needs_nine_wins_in_ten_and_a_gap_wider_than_the_parents_spread() {
        let pairs: Vec<(u64, f64, f64)> =
            (0..10).map(|i| (1, 100.0 + f64::from(i), 210.0)).collect();
        let row = Row::of(def("host_ops_per_s", true), &pairs);
        assert_eq!((row.wins, row.losses), (10, 0));
        assert!(row.is_gain(10));
        assert!(row.verdict(10).ends_with("gain"));
        // Lower is better: the same numbers are ten losses, and past the
        // 25 % the metric may worsen by.
        let row = Row::of(def("setup_s", false), &pairs);
        assert_eq!((row.wins, row.losses), (0, 10));
        assert!(!row.is_gain(10) && row.verdict(10).ends_with("WORSE THAN ITS BOUND"));
        // Eight wins are not enough, however large.
        let mut mixed = pairs.clone();
        mixed[0].2 = 1.0;
        mixed[1].2 = 1.0;
        assert!(!Row::of(def("host_ops_per_s", true), &mixed).is_gain(10));
        // Ten wins inside the parent's own spread are not a gain either,
        // nor ten losses inside the bound a breach of it.
        let close: Vec<(u64, f64, f64)> = (0..10)
            .map(|i| (1, 100.0 + 10.0 * f64::from(i), 101.0 + 10.0 * f64::from(i)))
            .collect();
        let row = Row::of(def("host_ops_per_s", true), &close);
        assert_eq!(row.wins, 10);
        assert!(!row.is_gain(10) && row.verdict(10).ends_with("unresolved"));
        let row = Row::of(def("setup_s", false), &close);
        assert!(row.verdict(10).ends_with(", worse"), "{}", row.verdict(10));
        assert!(row
            .verdict(10)
            .starts_with("0.69 % worse (may worsen by 25 %)"));
    }

    #[test]
    fn exact_metrics_report_identity_to_the_bit_and_per_seed_repetition() {
        let same = [(1, 0.1 + 0.2, 0.1 + 0.2); 3];
        let row = Row::of(def("sim_ops_per_s", true), &same);
        assert!(row.identical && row.repeats);
        assert_eq!(row.verdict(3), "identical in every pair");
        // Seeds cycle: each side may differ between seeds, not within one.
        let cycled = [
            (1, 50.0, 30.0),
            (7, 52.0, 31.0),
            (1, 50.0, 30.0),
            (7, 52.0, 31.0),
        ];
        let row = Row::of(def("sim_lat_p99_ms", false), &cycled);
        assert!(!row.identical && row.repeats && row.is_gain(4));
        assert!(row
            .verdict(4)
            .starts_with("40.20 % better (may worsen by 25 %), gain"));
        let drifted = [(1, 50.0, 30.0), (7, 52.0, 31.0), (1, 50.0, 30.5)];
        let row = Row::of(def("flash_reads_per_op", false), &drifted);
        assert!(!row.repeats && row.verdict(3).starts_with("NOT EXACT"));
    }
}
