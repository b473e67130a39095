//! `provbench`: the end-to-end ProvMark benchmark.
//!
//! ```text
//! provbench --workload <table2_quick|drive_quick|all> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload runs in its own process. With `--trace 0` it sets up
//! at least [`MIN_SETUPS`] times and for at least a quarter of `--seconds`
//! (input generation plus one warm-up sample, reported as the median
//! `setup_s`), then repeats checked samples for `--seconds` and prints the
//! end-to-end metrics. A sample is the workload's fixed number of
//! back-to-back passes (`Bench::sample_passes`), so it lasts a second or
//! more. With `--trace 1` it
//! alternates untraced passes with traced ones, which rebuild the same
//! work from the program's public stage calls with a span around each,
//! and prints the per-layer metrics; the spans are written to
//! `provbench/work/spans-<workload>.jsonl` at exit. `--workload all` runs
//! every workload in a child process and prints all their metrics, each
//! prefixed with the workload name. The last line of standard output is
//! always one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! The exit code is 0 only when every output checked was correct.

mod spans;
mod stats;
mod sys;
mod workloads;

use std::process::ExitCode;
use std::time::Duration;

use workloads::{Bench, Check, Layers, Pass, END_TO_END, PER_LAYER, WORKLOADS};

const USAGE: &str = "usage: provbench --workload <table2_quick|drive_quick|all> \
--seed <n> --seconds <s> --trace <0|1>";

/// Fewest set-ups per untraced run; `setup_s` is their median.
const MIN_SETUPS: usize = 3;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: `{value}` is not {what}");
        match flag.as_str() {
            "--workload" => {
                if value != "all" && !WORKLOADS.contains(&value.as_str()) {
                    return Err(bad("a workload"));
                }
                workload = Some(value.clone());
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("a whole number"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad("a positive number of seconds"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("provbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.workload == "all" {
        run_all(&argv)
    } else {
        run_one(&args)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("provbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A metric as printed: name, value, unit.
type Metric = (String, f64, String);

/// Run one workload in this process; `Ok(false)` when an output was wrong.
fn run_one(args: &Args) -> Result<bool, String> {
    // Before any thread starts: the scratch dir becomes TMPDIR.
    let scratch = sys::Scratch::create().map_err(|e| format!("scratch directory: {e}"))?;
    let threads = sys::nproc();
    println!(
        "# provbench workload={} seed={} nproc={threads} target={}-{} profile={} trace={}",
        args.workload,
        args.seed,
        std::env::consts::ARCH,
        std::env::consts::OS,
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        u8::from(args.trace),
    );
    let mut bench = Bench::new(&args.workload, args.seed, threads, &scratch)?;
    // The correctness oracle just built is not the workload's memory.
    sys::reset_peak_rss().map_err(|e| format!("resetting the peak RSS: {e}"))?;
    let mut check = Check::default();
    let metrics = if args.trace {
        traced_run(&mut bench, args, &mut check)?
    } else {
        untraced_run(&mut bench, args, &mut check)
    };
    // Hygiene: every simulated Neo4j store the run created is gone.
    let leftovers = scratch.leftover_stores();
    check.add(Check {
        attempted: 1,
        failed: u64::from(!leftovers.is_empty()),
    });
    if !leftovers.is_empty() {
        eprintln!(
            "provbench: {} store dir(s) left behind: {leftovers:?}",
            leftovers.len()
        );
    }
    println!("{}", result_line(check, &metrics));
    Ok(check.failed == 0)
}

/// Set up repeatedly, then time untraced samples for `--seconds`.
/// `wall_s` is the median over samples of a sample's wall per pass.
fn untraced_run(bench: &mut Bench, args: &Args, check: &mut Check) -> Vec<Metric> {
    let batch = bench.sample_passes();
    // A set-up is repeated for a quarter of the measuring time, so its
    // median does not rest on three noisy samples.
    let setup_floor = Duration::from_secs_f64(args.seconds / 4.0);
    let all_setups = spans::now();
    let mut setups = Vec::new();
    while setups.len() < MIN_SETUPS || all_setups.elapsed() < setup_floor {
        let t = spans::now();
        bench.generate_inputs();
        for _ in 0..batch {
            check.add(bench.pass().check);
        }
        setups.push(t.elapsed().as_secs_f64());
    }
    let start = spans::now();
    let mut walls = Vec::new();
    while walls.is_empty() || start.elapsed() < Duration::from_secs_f64(args.seconds) {
        let mut wall = 0.0;
        for _ in 0..batch {
            let pass = bench.pass();
            wall += pass.wall_s;
            check.add(pass.check);
        }
        walls.push(wall / batch as f64);
    }
    let spread = stats::relative_iqr(&walls).unwrap_or_default();
    let tail = stats::highest_reportable_percentile(walls.len())
        .and_then(|p| Some(format!(" p{p}={:.6}s", stats::percentile(&walls, p)?)))
        .unwrap_or_default();
    println!(
        "# samples={} of {batch} pass(es) wall_s iqr/median={spread:.4}{tail} setups={setups:?}",
        walls.len()
    );
    let checked = check.attempted.max(1) as f64;
    let values = [
        stats::median(&walls).unwrap_or(0.0),
        stats::median(&setups).unwrap_or(0.0),
        sys::peak_rss_mb(),
        1.0 - check.failed as f64 / checked,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name.to_owned(), v, unit.to_owned()))
        .collect()
}

/// Set up once, then alternate untraced and traced passes for
/// `--seconds`; per-layer values are medians over the passes.
fn traced_run(bench: &mut Bench, args: &Args, check: &mut Check) -> Result<Vec<Metric>, String> {
    bench.generate_inputs();
    check.add(bench.pass().check);
    let rec = spans::Recorder::default();
    let (mut untraced, mut traced): (Vec<Pass>, Vec<Pass>) = (Vec::new(), Vec::new());
    let mut all_spans = Vec::new();
    let start = spans::now();
    while traced.is_empty() || start.elapsed() < Duration::from_secs_f64(args.seconds) {
        // CPU is a per-layer reading: on the drive it is mostly kernel
        // time in fsync-heavy file operations and moves with the host's
        // disk and CPU contention far more than any bound allows.
        let cpu0 = sys::cpu_seconds();
        let mut pass = bench.pass();
        pass.layers
            .insert("process.cpu_s", sys::cpu_seconds() - cpu0);
        check.add(pass.check);
        untraced.push(pass);
        let mut pass = bench.traced_pass(&rec);
        check.add(pass.check);
        all_spans.append(&mut pass.spans);
        traced.push(pass);
    }
    let wall_ms = |passes: &[Pass]| {
        let walls: Vec<f64> = passes.iter().map(|p| p.wall_s * 1e3).collect();
        stats::median(&walls).unwrap_or(0.0)
    };
    let mut layers = median_layers(untraced.iter().chain(&traced));
    bench.derive(wall_ms(&untraced), wall_ms(&traced), &mut layers);
    let sign = workloads::non_negative(&layers);
    if let Err(e) = &sign {
        eprintln!("provbench: {e}");
    }
    check.add(Check {
        attempted: 1,
        failed: u64::from(sign.is_err()),
    });
    println!(
        "# passes={} untraced_wall_ms={:.3} traced_wall_ms={:.3}",
        traced.len(),
        wall_ms(&untraced),
        wall_ms(&traced)
    );
    let path = sys::work_root().join(format!("spans-{}.jsonl", args.workload));
    spans::write_jsonl(&all_spans, &path).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("# spans={} written to {}", all_spans.len(), path.display());
    Ok(PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let v = layers.get(name).copied().unwrap_or(0.0);
            (name.to_owned(), v, unit.to_owned())
        })
        .collect())
}

/// For every layer any pass reported, the median over the passes that
/// reported it.
fn median_layers<'a>(passes: impl Iterator<Item = &'a Pass>) -> Layers {
    let mut values: std::collections::BTreeMap<&'static str, Vec<f64>> = Default::default();
    for pass in passes {
        for (&name, &v) in &pass.layers {
            values.entry(name).or_default().push(v);
        }
    }
    values
        .into_iter()
        .filter_map(|(name, v)| Some((name, stats::median(&v)?)))
        .collect()
}

/// The result object printed as the last line of standard output.
fn result_line(check: Check, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        check.failed == 0,
        check.attempted.max(1),
        check.failed,
        body.join(", ")
    )
}

/// Run every workload in a child process of its own and print their
/// metrics together, each prefixed with its workload's name.
fn run_all(argv: &[String]) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut check = Check::default();
    let mut metrics = Vec::new();
    let mut all_ok = true;
    for workload in WORKLOADS {
        let mut child_args = argv.to_vec();
        if let Some(i) = child_args.iter().position(|a| a == "--workload") {
            child_args[i + 1] = workload.to_owned();
        }
        let out = std::process::Command::new(&exe)
            .args(&child_args)
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("{workload}: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        for line in stdout.lines() {
            println!("{line}");
        }
        all_ok &= out.status.success();
        let last = stdout.lines().last().unwrap_or_default();
        let doc: minijson::Value =
            minijson::from_str(last).map_err(|e| format!("{workload}: unreadable result: {e}"))?;
        let count = |key: &str| doc[key].as_f64().unwrap_or(0.0) as u64;
        check.add(Check {
            attempted: count("attempted"),
            failed: count("failed"),
        });
        all_ok &= doc["correct"].as_bool() == Some(true);
        for (name, m) in doc["metrics"].as_object().into_iter().flatten() {
            let value = m["value"].as_f64().unwrap_or(f64::NAN);
            let unit = m["unit"].as_str().unwrap_or_default().to_owned();
            metrics.push((format!("{workload}.{name}"), value, unit));
        }
    }
    println!("{}", result_line(check, &metrics));
    Ok(all_ok && check.failed == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse_args(&argv(
            "--workload table2_quick --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: "table2_quick".into(),
                seed: 7,
                seconds: 10.0,
                trace: true,
            }
        );
        let a = parse_args(&argv("--trace 0 --seconds 0.01 --seed 0 --workload all")).unwrap();
        assert_eq!((a.seconds, a.trace), (0.01, false));
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "",
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload all --seed -1 --seconds 1 --trace 0",
            "--workload all --seed 1 --seconds 0 --trace 0",
            "--workload all --seed 1 --seconds 1 --trace 2",
            "--workload all --seed 1 --seconds 1",
            "--workload all --seed 1 --seconds 1 --trace 0 --bogus 3",
            "--workload all --seed 1 --seconds 1 --trace",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let line = result_line(
            Check {
                attempted: 3,
                failed: 0,
            },
            &[
                ("wall_s".into(), 0.125, "s".into()),
                ("x".into(), f64::NAN, "ms".into()),
            ],
        );
        let doc: minijson::Value = minijson::from_str(&line).unwrap();
        let obj = doc.as_object().unwrap();
        let keys: Vec<&str> = obj.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys.len(), 4);
        for key in ["correct", "attempted", "failed", "metrics"] {
            assert!(obj.contains_key(key), "{key}");
        }
        assert_eq!(doc["metrics"]["wall_s"]["value"].as_f64(), Some(0.125));
        assert_eq!(doc["metrics"]["x"]["value"].as_f64(), Some(0.0));
    }
}
