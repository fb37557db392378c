//! End-to-end and per-layer benchmark of the sidefp detection pipeline.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper-fit|lot-scoring|drift-stream> --seed <n> --seconds <s> --trace <0|1>
//!     [--repeat <k>]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (every end-to-end metric with
//! `--trace 0`, every per-layer metric with `--trace 1`). `--repeat k`
//! instead runs the workload `k` times in fresh processes (seeds `seed`,
//! `seed + 1`, …) and prints each end-to-end metric's median and
//! IQR/median next to its bound. `--print-benchmark-json` prints the
//! `BENCHMARK.json` this schema defines. See `README.md` in this directory.

mod checks;
mod drift_stream;
mod host;
mod layers;
mod lot_scoring;
mod paper_fit;
mod report;
mod schema;

use std::error::Error;
use std::process::ExitCode;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub repeat: Option<usize>,
}

impl Opts {
    fn parse(args: &[String]) -> Result<Self, String> {
        let value = |flag: &str| -> Result<&str, String> {
            let i = args
                .iter()
                .position(|a| a == flag)
                .ok_or_else(|| format!("missing {flag}"))?;
            args.get(i + 1)
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let number = |flag: &str| -> Result<u64, String> {
            value(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
        };
        let workload = value("--workload")?.to_string();
        if !schema::WORKLOADS.iter().any(|(name, _)| *name == workload) {
            return Err(format!("unknown workload {workload}"));
        }
        let trace = match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not {other}")),
        };
        let seconds = number("--seconds")?;
        if seconds == 0 {
            return Err("--seconds must be positive".into());
        }
        let repeat = match args.iter().any(|a| a == "--repeat") {
            true => Some(number("--repeat")? as usize),
            false => None,
        };
        Ok(Opts {
            workload,
            seed: number("--seed")?,
            seconds,
            trace,
            repeat,
        })
    }

    /// The fixed op count: `per_30s` ops per 30 s of `--seconds`, at least
    /// 100 (so p90 has ten samples beyond it), rounded up to a multiple of
    /// the workload's input pool. A function of the arguments only — no
    /// loop is bounded by wall-clock time.
    pub fn ops(&self, per_30s: usize, pool: usize) -> usize {
        let scaled = (per_30s as u64 * self.seconds).div_ceil(30) as usize;
        scaled.max(100).div_ceil(pool) * pool
    }
}

fn run(opts: &Opts) -> Result<report::Outcome, Box<dyn Error>> {
    match opts.workload.as_str() {
        "paper-fit" => paper_fit::run(opts),
        "lot-scoring" => lot_scoring::run(opts),
        _ => drift_stream::run(opts),
    }
}

/// Runs the workload `k` times in fresh processes and prints each
/// end-to-end metric's median and IQR/median against its bound.
fn repeat(opts: &Opts, k: usize) -> Result<bool, Box<dyn Error>> {
    let exe = std::env::current_exe()?;
    let mut values: Vec<Vec<f64>> = vec![Vec::new(); schema::END_TO_END.len()];
    let mut all_correct = true;
    for i in 0..k as u64 {
        let seed = opts.seed + i;
        let output = std::process::Command::new(&exe)
            .args(["--workload", &opts.workload])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &opts.seconds.to_string()])
            .args(["--trace", "0"])
            .stderr(std::process::Stdio::inherit())
            .output()?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let line = stdout.lines().last().unwrap_or("");
        if !output.status.success() {
            return Err(format!("run {i} (seed {seed}) exited with {}", output.status).into());
        }
        all_correct &= line.starts_with("{\"correct\": true,");
        for (slot, m) in values.iter_mut().zip(schema::END_TO_END) {
            let v = report::metric_value(line, m.name)
                .ok_or_else(|| format!("run {i} lacks {}", m.name))?;
            slot.push(v);
        }
        eprintln!("[repeat] run {}/{k} (seed {seed}) done", i + 1);
    }
    println!(
        "{:<20} {:>14} {:>12} {:>7}  spread",
        "metric", "median", "iqr/median", "bound"
    );
    let mut steady = true;
    for (samples, m) in values.iter().zip(schema::END_TO_END) {
        let share = report::iqr_share(samples);
        let verdict = if share <= m.bound / 3.0 {
            "ok"
        } else if share <= m.bound {
            "within bound"
        } else {
            steady = false;
            "TOO WIDE"
        };
        println!(
            "{:<20} {:>14.6} {:>12.4} {:>7.3}  {verdict}",
            m.name,
            report::median(samples),
            share,
            m.bound
        );
    }
    Ok(steady && all_correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--print-benchmark-json") {
        print!("{}", schema::benchmark_json());
        return ExitCode::SUCCESS;
    }
    let opts = match Opts::parse(&args) {
        Ok(opts) => opts,
        Err(err) => {
            eprintln!("usage error: {err}");
            return ExitCode::from(2);
        }
    };
    if let Some(k) = opts.repeat {
        return match repeat(&opts, k) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(err) => {
                eprintln!("error: {err}");
                ExitCode::FAILURE
            }
        };
    }
    let probe = host::probe_median_ms(3);
    let outcome = match run(&opts) {
        Ok(outcome) => outcome,
        Err(err) => {
            eprintln!("error: {err}");
            return ExitCode::FAILURE;
        }
    };
    for why in &outcome.failures {
        eprintln!("check failed: {why}");
    }
    eprintln!(
        "[{}] host probe {probe:.2} ms before, {:.2} ms after",
        opts.workload,
        host::probe_median_ms(3)
    );
    match outcome.result_line(opts.trace) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("error: {err}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let o = Opts::parse(&args(
            "--workload paper-fit --seed 7 --seconds 30 --trace 1",
        ))
        .unwrap();
        assert_eq!((o.seed, o.seconds, o.trace, o.repeat), (7, 30, true, None));
        assert!(Opts::parse(&args("--workload nope --seed 7 --seconds 30 --trace 1")).is_err());
        assert!(Opts::parse(&args(
            "--workload paper-fit --seed 7 --seconds 30 --trace 2"
        ))
        .is_err());
        assert!(Opts::parse(&args("--workload paper-fit --seconds 30 --trace 0")).is_err());
        let r = Opts::parse(&args(
            "--workload drift-stream --seed 1 --seconds 30 --trace 0 --repeat 5",
        ));
        assert_eq!(r.unwrap().repeat, Some(5));
    }

    #[test]
    fn op_counts_are_fixed_by_the_arguments() {
        let o = Opts::parse(&args(
            "--workload paper-fit --seed 7 --seconds 30 --trace 0",
        ))
        .unwrap();
        assert_eq!(o.ops(100, 1), 100);
        assert_eq!(o.ops(300, 20), 300);
        assert_eq!(o.ops(100, 4), 100);
        // Never fewer than 100 ops, whatever --seconds says.
        let short = Opts { seconds: 1, ..o };
        assert_eq!(short.ops(100, 1), 100);
        assert_eq!(short.ops(300, 20), 100);
    }
}
