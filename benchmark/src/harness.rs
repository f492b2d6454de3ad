//! The parent side: spawn one pinned child per (workload, mode), check
//! what must repeat exactly, derive the metrics that compare runs, and
//! print.

use std::process::{Command, Stdio};

use crate::child::{out_dir, write_out};
use crate::json::Json;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::record::{Mode, Record};
use crate::stats::{median, quartile_spread};
use crate::workloads::{self, Workload};

/// `--seed` and `--seconds` of one invocation.
#[derive(Clone, Copy, Debug)]
pub struct Args {
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`.
    pub seconds: u64,
}

/// Run `workload` in `mode` in a child spawned from this executable.
fn spawn(workload: &Workload, mode: Mode, args: Args) -> Result<Record, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args([
            "child",
            "--workload",
            workload.name,
            "--mode",
            mode.as_str(),
        ])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn child: {e}"))?;
    let what = format!("{} ({})", workload.name, mode.as_str());
    if !output.status.success() {
        return Err(format!("{what}: child exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or(format!("{what}: child printed nothing"))?;
    Record::from_json(&Json::parse(line).map_err(|e| format!("{what}: {e}"))?)
        .map_err(|e| format!("{what}: {e}"))
}

/// Whether a plain record is a valid result: outputs verified and every
/// end-to-end metric present, finite and non-zero.
fn correct(record: &Record) -> bool {
    record.failed == 0
        && record.attempted >= 1
        && END_TO_END
            .iter()
            .all(|m| Record::find(&record.e2e, m.name).is_some_and(|v| v.is_finite() && v > 0.0))
}

/// The exact values both records carry that differ between them.
fn drift(a: &Record, b: &Record) -> Vec<String> {
    a.exact
        .iter()
        .filter_map(|(key, va)| {
            let (_, vb) = b.exact.iter().find(|(k, _)| k == key)?;
            (va != vb).then(|| {
                format!(
                    "{} {key}: {va} ({}) vs {vb} ({})",
                    a.workload, a.mode, b.mode
                )
            })
        })
        .collect()
}

/// The runs behind one workload's per-layer metrics.
pub struct TracedRuns {
    /// Tracing off.
    pub plain: Record,
    /// Recorders on.
    pub traced: Record,
    /// Every per-layer metric, in table order.
    pub layer: Vec<(String, f64)>,
    /// Exact values that differed between the runs (must be empty).
    pub drift: Vec<String>,
}

impl TracedRuns {
    /// Outputs verified in both runs and nothing virtual moved.
    fn ok(&self) -> bool {
        correct(&self.plain) && self.traced.failed == 0 && self.drift.is_empty()
    }
}

/// Run `workload` untraced and traced (and, for the fleet, untraced at
/// `domains: 2`), and assemble every per-layer metric.
fn trace(workload: &Workload, args: Args) -> Result<TracedRuns, String> {
    let plain = spawn(workload, Mode::Plain, args)?;
    let traced = spawn(workload, Mode::Traced, args)?;
    let mut drift = drift(&plain, &traced);
    let d2 = if workload.rerun_at_two_domains {
        let d2 = spawn(workload, Mode::D2, args)?;
        drift.extend(self::drift(&plain, &d2));
        Some(d2)
    } else {
        None
    };

    let wall = |r: &Record| Record::find(&r.host, "wall_ref_s").unwrap_or(0.0);
    let (plain_wall, traced_wall) = (wall(&plain), wall(&traced));
    let events = Record::find(&traced.layer, "simkernel.events").unwrap_or(0.0);
    let host = |name: &str| Record::find(&plain.host, name).unwrap_or(0.0);
    let per = |total: f64, count: f64| if count > 0.0 { total / count } else { 0.0 };
    // Host-clock numbers come from the untraced run, so the recorders'
    // own cost is not in them; times are in reference seconds.
    let across_runs = [
        ("simkernel.host_us_per_event", per(plain_wall * 1e6, events)),
        (
            "simkernel.ctx_switches_per_event",
            per(
                Record::find(&plain.e2e, "host_ctx_switches").unwrap_or(0.0),
                events,
            ),
        ),
        (
            "simkernel.sys_cpu_frac",
            per(host("cpu_sys_s"), host("cpu_s")),
        ),
        ("simkernel.wall_ref_s", plain_wall),
        ("simkernel.wall_raw_s", host("wall_raw_s")),
        ("simkernel.cpu_s", host("cpu_s")),
        ("simkernel.handoff_probe_ns", host("handoff_probe_ns")),
        (
            "simkernel.domain.d2_wall_ratio",
            d2.as_ref().map_or(0.0, |d2| per(wall(d2), plain_wall)),
        ),
        (
            "obs.trace_overhead_frac",
            per(traced_wall - plain_wall, plain_wall),
        ),
        (
            "serving.host_ms_per_request",
            // Only the serving scenarios report serving metrics.
            Record::find(&plain.layer, "serving.swaps")
                .map_or(0.0, |_| per(plain_wall * 1e3, plain.n as f64)),
        ),
    ];
    let layer = PER_LAYER
        .iter()
        .map(|m| {
            let value = across_runs
                .iter()
                .find(|(n, _)| *n == m.name)
                .map(|(_, v)| *v)
                .or_else(|| Record::find(&traced.layer, m.name))
                .unwrap_or(0.0);
            (m.name.to_string(), value)
        })
        .collect();
    Ok(TracedRuns {
        plain,
        traced,
        layer,
        drift,
    })
}

fn metric_json(value: f64, unit: &str) -> Json {
    Json::obj([
        ("value", Json::Num(value)),
        ("unit", Json::Str(unit.into())),
    ])
}

/// The builder's contract: one run of one workload; the last line of
/// standard output is the result object. Returns the exit code.
pub fn contract_run(workload: &Workload, args: Args, traced: bool) -> Result<i32, String> {
    let (record, ok, metrics) = if traced {
        let runs = trace(workload, args)?;
        for line in &runs.drift {
            eprintln!("not identical with tracing on: {line}");
        }
        let ok = runs.ok();
        let metrics = PER_LAYER
            .iter()
            .zip(&runs.layer)
            .map(|(m, (name, value))| (name.clone(), metric_json(*value, m.unit)))
            .collect();
        (runs.plain, ok, metrics)
    } else {
        let record = spawn(workload, Mode::Plain, args)?;
        let metrics = END_TO_END
            .iter()
            .map(|m| {
                let value = Record::find(&record.e2e, m.name).unwrap_or(0.0);
                (m.name.to_string(), metric_json(value, m.unit))
            })
            .collect();
        let ok = correct(&record);
        (record, ok, metrics)
    };
    let result = Json::obj([
        ("correct", Json::Bool(ok)),
        ("attempted", Json::Num(record.attempted as f64)),
        ("failed", Json::Num(record.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", result.render());
    Ok(if ok { 0 } else { 1 })
}

fn host_json(record: &Record) -> Json {
    Json::obj([
        ("host_cores", Json::Num(record.host_cores as f64)),
        ("cpu_model", Json::Str(record.cpu_model.clone())),
        ("pinned_cpu", Json::Num(record.pinned_cpu as f64)),
    ])
}

fn write_result(name: &str, doc: &Json) -> Result<(), String> {
    let path = write_out(name, &doc.pretty())?;
    println!("wrote {}", path.display());
    Ok(())
}

/// `all`: every workload with tracing off; prints every end-to-end
/// metric by name with its unit, checks outputs, writes the result.
pub fn all(args: Args) -> Result<i32, String> {
    let mut ok = true;
    let mut results = Vec::new();
    let mut host = Json::Null;
    for workload in &workloads::ALL {
        let record = spawn(workload, Mode::Plain, args)?;
        let valid = correct(&record);
        ok &= valid;
        println!(
            "\n{}  seed {}  ops attempted {}  failed {}  outputs {}",
            record.workload,
            record.seed,
            record.attempted,
            record.failed,
            if valid { "verified" } else { "NOT VERIFIED" }
        );
        let measured = |name: &str| Record::find(&record.host, name).unwrap_or(0.0);
        for m in &END_TO_END {
            let value = Record::find(&record.e2e, m.name).unwrap_or(0.0);
            let note = match m.name {
                "op_v_mean_ms" => format!("  (n = {})", record.n),
                "setup_s" => format!("  (measured {:.4} s)", measured("setup_raw_s")),
                _ => String::new(),
            };
            println!("  {:<18} {:>16.4} {}{}", m.name, value, m.unit, note);
        }
        println!(
            "  {:<18} {:>16.4} s  (not bounded; measured {:.4} s at {:.0} ns per hand-off)",
            "wall_ref_s",
            measured("wall_ref_s"),
            measured("wall_raw_s"),
            measured("handoff_probe_ns")
        );
        host = host_json(&record);
        results.push(record.to_json());
    }
    let doc = Json::obj([
        ("seed", Json::Str(args.seed.to_string())),
        ("seconds", Json::Num(args.seconds as f64)),
        ("host", host),
        ("runs", Json::Arr(results)),
    ]);
    write_result(&format!("all-seed{}.json", args.seed), &doc)?;
    Ok(if ok { 0 } else { 1 })
}

/// `trace`: every workload again with the recorders on; prints the
/// per-layer table and asserts the traced run changed nothing virtual.
pub fn trace_all(args: Args) -> Result<i32, String> {
    let mut columns = Vec::new();
    for workload in &workloads::ALL {
        let runs = trace(workload, args)?;
        println!(
            "{}: traced (digest {})",
            workload.name,
            runs.traced
                .exact
                .iter()
                .find(|(k, _)| k == "digest")
                .map_or("none".into(), |(_, d)| format!("{d:016x}"))
        );
        columns.push(runs);
    }

    print!("\n{:<38} {:>6}", "per-layer metric", "unit");
    for workload in &workloads::ALL {
        print!(" {:>16}", workload.name);
    }
    println!();
    for (row, m) in PER_LAYER.iter().enumerate() {
        print!("{:<38} {:>6}", m.name, m.unit);
        for runs in &columns {
            print!(" {:>16.4}", runs.layer[row].1);
        }
        println!();
    }

    let mut ok = true;
    for runs in &columns {
        ok &= runs.ok();
        for line in &runs.drift {
            println!("NOT IDENTICAL with tracing on: {line}");
        }
    }
    if ok {
        println!("\nvirtual metrics, byte counts and digests: identical traced and untraced");
    }
    let doc = Json::obj([
        ("seed", Json::Str(args.seed.to_string())),
        ("seconds", Json::Num(args.seconds as f64)),
        (
            "host",
            columns.first().map_or(Json::Null, |r| host_json(&r.plain)),
        ),
        (
            "runs",
            Json::Arr(
                columns
                    .iter()
                    .map(|r| {
                        Json::obj([
                            ("plain", r.plain.to_json()),
                            ("traced", r.traced.to_json()),
                            (
                                "per_layer",
                                Json::Obj(
                                    r.layer
                                        .iter()
                                        .map(|(k, v)| (k.clone(), Json::Num(*v)))
                                        .collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    write_result(&format!("trace-seed{}.json", args.seed), &doc)?;
    println!(
        "Chrome traces: {}/trace-<workload>-seed{}.json",
        out_dir().display(),
        args.seed
    );
    Ok(if ok { 0 } else { 1 })
}

/// Passes per set; a set is summarised by its median because neighbour
/// noise on a shared host is bursty and one-sided.
const PASSES_PER_SET: usize = 3;

/// `check`: two sets of three `all` passes (alternating workload order)
/// plus one traced pass per set. Fails unless everything exact is
/// identical in all passes, the traced digests are identical across
/// sets, and each host metric's two set medians agree within its bound.
pub fn check(args: Args) -> Result<i32, String> {
    // sets[set][workload] = that workload's plain records, then traced.
    let mut sets: Vec<Vec<(Vec<Record>, Record)>> = Vec::new();
    for set in 0..2 {
        let mut plain: Vec<Vec<Record>> = workloads::ALL.iter().map(|_| Vec::new()).collect();
        for pass in 0..PASSES_PER_SET {
            let mut order: Vec<usize> = (0..workloads::ALL.len()).collect();
            if (set * PASSES_PER_SET + pass) % 2 == 1 {
                order.reverse();
            }
            for w in order {
                eprintln!("set {set} pass {pass}: {}", workloads::ALL[w].name);
                plain[w].push(spawn(&workloads::ALL[w], Mode::Plain, args)?);
            }
        }
        let mut rows = Vec::new();
        for (workload, records) in workloads::ALL.iter().zip(plain) {
            eprintln!("set {set} traced: {}", workload.name);
            rows.push((records, spawn(workload, Mode::Traced, args)?));
        }
        sets.push(rows);
    }

    let mut failures = Vec::new();
    for w in 0..workloads::ALL.len() {
        let first = &sets[0][w].0[0];
        for set in &sets {
            let (records, traced) = &set[w];
            for record in records.iter().chain([traced]) {
                if record.failed != 0 {
                    failures.push(format!(
                        "{} ({}): {} ops failed",
                        record.workload, record.mode, record.failed
                    ));
                }
                failures.extend(drift(first, record));
            }
        }
        failures.extend(drift(&sets[0][w].1, &sets[1][w].1));
    }

    println!(
        "\n{:<17} {:<13} {:>34} {:>34} {:>8} {:>6}",
        "workload",
        "metric",
        "set 0 min / median / max",
        "set 1 min / median / max",
        "differ",
        "bound"
    );
    for (w, workload) in workloads::ALL.iter().enumerate() {
        for m in &END_TO_END {
            let values = |set: usize| -> Vec<f64> {
                sets[set][w]
                    .0
                    .iter()
                    .filter_map(|r| Record::find(&r.e2e, m.name))
                    .collect()
            };
            let (a, b) = (values(0), values(1));
            if a.len() != PASSES_PER_SET || b.len() != PASSES_PER_SET {
                failures.push(format!(
                    "{} {}: a pass did not report it",
                    workload.name, m.name
                ));
                continue;
            }
            let show = |v: &[f64]| {
                let min = v.iter().copied().fold(f64::INFINITY, f64::min);
                let max = v.iter().copied().fold(0.0, f64::max);
                format!("{min:>10.4} / {:>10.4} / {max:>10.4}", median(v))
            };
            let (ma, mb) = (median(&a), median(&b));
            let differ = (ma.max(mb) / ma.min(mb) - 1.0).abs();
            println!(
                "{:<17} {:<13} {} {} {:>7.2}% {:>5.0}%",
                workload.name,
                m.name,
                show(&a),
                show(&b),
                differ * 100.0,
                m.bound * 100.0
            );
            if m.exact && differ != 0.0 {
                failures.push(format!(
                    "{} {}: not identical across sets",
                    workload.name, m.name
                ));
            } else if differ.is_nan() || differ > m.bound {
                failures.push(format!(
                    "{} {}: set medians {ma} and {mb} differ by {:.1}%, bound {:.0}%",
                    workload.name,
                    m.name,
                    differ * 100.0,
                    m.bound * 100.0
                ));
            }
        }
    }

    println!("\nspread over the six passes (quartile distance / median); the wall clock is shown, not bounded:");
    for (w, workload) in workloads::ALL.iter().enumerate() {
        let passes = || sets.iter().flat_map(|set| set[w].0.iter());
        let spread = |name: &str, values: Vec<f64>| {
            format!("{name} {:.1}%", quartile_spread(&values) * 100.0)
        };
        let mut spreads: Vec<String> = END_TO_END
            .iter()
            .filter(|m| !m.exact)
            .map(|m| {
                let values = passes().filter_map(|r| Record::find(&r.e2e, m.name));
                spread(m.name, values.collect())
            })
            .collect();
        for name in ["wall_ref_s", "wall_raw_s"] {
            let values = passes().filter_map(|r| Record::find(&r.host, name));
            spreads.push(spread(name, values.collect()));
        }
        println!("  {:<17} {}", workload.name, spreads.join("  "));
    }

    if failures.is_empty() {
        println!("\ncheck passed: exact values identical in all passes, traced digests identical across sets, host medians within bounds");
        Ok(0)
    } else {
        println!("\ncheck FAILED:");
        for f in &failures {
            println!("  {f}");
        }
        Ok(1)
    }
}
