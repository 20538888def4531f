//! The FMEA flow benchmark: local `inject` campaigns and served jobs, end to
//! end (untraced runs) and layer by layer (traced runs).
//!
//! ```text
//! fmeabench --workload <inject-mixed|inject-stuck|serve-mixed>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the lines before it
//! (prefixed `# `) record the run facts and map each per-layer metric to the
//! end-to-end metric it should move. Every timed result is checked against
//! the lockstep engine; a mismatch makes the run exit 1. See `README.md`.

mod inject;
mod layers;
mod pipeline;
mod serve;
mod spans;
mod stats;

use std::process::ExitCode;
use std::time::Duration;

/// End-to-end metrics: (name, unit). Every workload reports all of them.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("faults_per_s", "1/s"),
    ("jobs_per_s", "1/s"),
    ("campaign_ms.p50", "ms"),
    ("campaign_ms.tail", "ms"),
    ("job_ms.p50", "ms"),
    ("job_ms.tail", "ms"),
    ("first_record_ms.p50", "ms"),
    ("peak_rss_mb", "MB"),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    InjectMixed,
    InjectStuck,
    ServeMixed,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        Some(match name {
            "inject-mixed" => Workload::InjectMixed,
            "inject-stuck" => Workload::InjectStuck,
            "serve-mixed" => Workload::ServeMixed,
            _ => return None,
        })
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::InjectMixed => "inject-mixed",
            Workload::InjectStuck => "inject-stuck",
            Workload::ServeMixed => "serve-mixed",
        }
    }
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(value).ok_or(format!("unknown workload `{value}`"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if s == 0 {
                    return Err("--seconds must be at least 1".into());
                }
                seconds = Some(Duration::from_secs(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
    })
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Verdict mismatches against the lockstep reference, and other
    /// correctness failures.
    pub mismatches: Vec<String>,
    pub metrics: Vec<(String, f64, &'static str)>,
    pub facts: Vec<(String, String)>,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    pub fn fact(&mut self, name: impl Into<String>, value: impl ToString) {
        self.facts.push((name.into(), value.to_string()));
    }

    pub fn mismatch(&mut self, what: String) {
        self.mismatches.push(what);
    }

    /// Asserts the report carries exactly the metrics of its mode, each once.
    fn check_complete(&self, expected: &[(&str, &str)]) {
        let mut got: Vec<(&str, &str)> = self
            .metrics
            .iter()
            .map(|(n, _, u)| (n.as_str(), *u))
            .collect();
        got.sort_unstable();
        let mut want = expected.to_vec();
        want.sort_unstable();
        assert_eq!(got, want, "the run must report exactly its metric set");
    }
}

/// Peak resident memory of this process, from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The host's parallelism, recorded beside every result.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The `i`-th seed derived from the workload seed (SplitMix64), kept below
/// 2^32 so it travels exactly through the JSON job protocol.
pub fn derive_seed(seed: u64, i: usize) -> u64 {
    let mut z = seed.wrapping_add((i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) & 0xffff_ffff
}

/// The first `n` derived seeds.
pub fn seed_pool(seed: u64, n: usize) -> Vec<u64> {
    (0..n).map(|i| derive_seed(seed, i)).collect()
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("fmeabench: {msg}");
            eprintln!(
                "usage: fmeabench --workload <inject-mixed|inject-stuck|serve-mixed> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    report.fact("workload", args.workload.name());
    report.fact("workload_seed", args.seed);
    report.fact("nproc", nproc());
    report.fact("traced", args.trace);
    match args.workload {
        Workload::InjectMixed | Workload::InjectStuck => inject::run(&args, &mut report),
        Workload::ServeMixed => serve::run(&args, &mut report),
    }
    let per_layer = layers::per_layer();
    if args.trace {
        let names: Vec<(&str, &str)> = per_layer.iter().map(|&(n, u, _)| (n, u)).collect();
        report.check_complete(&names);
    } else {
        report.check_complete(&END_TO_END);
    }

    for (k, v) in &report.facts {
        println!("# fact {k} = {v}");
    }
    for (name, value, unit) in &report.metrics {
        match per_layer.iter().find(|&&(n, _, _)| n == name) {
            Some((_, _, tag)) => println!("# metric {name} = {value:.4} {unit}  (moves {tag})"),
            None => println!("# metric {name} = {value:.4} {unit}"),
        }
    }
    for m in &report.mismatches {
        println!("# MISMATCH {m}");
    }
    let correct = report.mismatches.is_empty();
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
