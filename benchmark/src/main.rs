//! The repo's benchmark: five named workloads, two clocks, pinned runs,
//! and a traced per-layer pass. See `README.md` beside this package.
//!
//! ```text
//! snapify-benchmark all   [--seed N] [--seconds S]   end-to-end metrics, tracing off
//! snapify-benchmark trace [--seed N] [--seconds S]   per-layer metrics, recorders on
//! snapify-benchmark check [--seed N] [--seconds S]   two sets of runs must agree
//! snapify-benchmark --workload W --seed N --seconds S --trace 0|1
//!                                                    one run; last line is the result JSON
//! snapify-benchmark manifest                         print BENCHMARK.json from the tables
//! ```
//!
//! The program under test is not edited: every number is taken from
//! outside, through public functions, public report structs, the
//! existing `simkernel::obs` API and `/proc`.

mod child;
mod harness;
mod inputs;
mod interpose;
mod json;
mod layers;
mod metrics;
mod probe;
mod record;
mod spans;
mod stats;
mod sys;
mod workloads;

use std::process::ExitCode;

use harness::Args;
use json::Json;
use record::Mode;

const USAGE: &str = "usage: snapify-benchmark <all|trace|check> [--seed N] [--seconds S]
       snapify-benchmark --workload <name> --seed N --seconds S --trace <0|1>
       snapify-benchmark manifest";

/// `--key value` pairs after the subcommand.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(key) = it.next() {
            let name = key
                .strip_prefix("--")
                .ok_or(format!("unexpected argument {key:?}"))?;
            let value = it.next().ok_or(format!("{key} needs a value"))?;
            pairs.push((name.to_string(), value.clone()));
        }
        Ok(Flags(pairs))
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn number(&self, name: &str, default: u64) -> Result<u64, String> {
        self.get(name).map_or(Ok(default), |v| {
            v.parse()
                .map_err(|_| format!("--{name} {v:?} is not a whole number"))
        })
    }

    fn args(&self) -> Result<Args, String> {
        let seconds = self.number("seconds", workloads::REF_SECONDS)?;
        if !(1..=60).contains(&seconds) {
            return Err("--seconds must be 1 to 60".into());
        }
        Ok(Args {
            seed: self.number("seed", 1)?,
            seconds,
        })
    }

    fn workload(&self) -> Result<&'static workloads::Workload, String> {
        let name = self.get("workload").ok_or("--workload is required")?;
        workloads::by_name(name).ok_or_else(|| {
            let names: Vec<&str> = workloads::ALL.iter().map(|w| w.name).collect();
            format!("unknown workload {name:?}; one of {}", names.join(", "))
        })
    }
}

/// `BENCHMARK.json`, rendered from the tables the program itself uses.
fn manifest() -> Json {
    let text = |s: &str| Json::Str(s.to_string());
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    Json::obj([
        (
            "command",
            Json::Arr(command.iter().map(|s| text(s)).collect()),
        ),
        ("paths", Json::Arr(vec![text("benchmark")])),
        ("run_seconds", Json::Num(workloads::REF_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                workloads::ALL
                    .iter()
                    .map(|w| Json::obj([("name", text(w.name)), ("why", text(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                metrics::END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text("lower")),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                metrics::PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn run(argv: &[String]) -> Result<i32, String> {
    let (command, rest) = match argv.first().map(String::as_str) {
        None => return Err(USAGE.into()),
        // The builder's contract passes flags only.
        Some(first) if first.starts_with("--") => ("run", argv),
        Some(first) => (first, &argv[1..]),
    };
    let flags = Flags::parse(rest)?;
    match command {
        "all" => harness::all(flags.args()?),
        "trace" => harness::trace_all(flags.args()?),
        "check" => harness::check(flags.args()?),
        "run" => {
            let traced = match flags.get("trace") {
                Some("0") | None => false,
                Some("1") => true,
                Some(other) => return Err(format!("--trace {other:?} is not 0 or 1")),
            };
            harness::contract_run(flags.workload()?, flags.args()?, traced)
        }
        "child" => {
            let mode = flags
                .get("mode")
                .and_then(Mode::parse)
                .ok_or("--mode plain|traced|d2")?;
            let args = flags.args()?;
            let record = child::run(flags.workload()?, mode, args.seed, args.seconds)?;
            println!("{}", record.to_json().render());
            Ok(0)
        }
        "manifest" => {
            print!("{}", manifest().pretty());
            Ok(0)
        }
        _ => Err(USAGE.into()),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(code) => ExitCode::from(code as u8),
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
