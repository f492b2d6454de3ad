//! **perf_gate** — fail CI when the swap plane's key paper metrics
//! regress more than 10% from the committed baselines.
//!
//! The bench harnesses report *virtual* time and byte counts from the
//! deterministic simulation, so run-to-run values are exact and a
//! relative gate is sound (no noise margin needed beyond real
//! regressions). Guarded metrics:
//!
//! * `BENCH_dedup.json` — `warm_shipped_bytes` per tenant row must not
//!   grow above baseline × 1.10 (the dedup store's warm swap-out must
//!   keep shipping only dirty chunks).
//! * `BENCH_swapin.json` — `speedup` per tenant row must not drop below
//!   baseline × 0.90 (the warm restore fast path must keep its edge
//!   over cold fetches).
//! * `BENCH_incremental.json` — `speedup` per tenant row must not drop
//!   below baseline × 0.90 (the O(dirty) warm capture must keep its
//!   edge over the always-full baseline).
//! * `BENCH_serving.json` — `warm_speedup_p99` per scenario row must
//!   not drop below baseline × 0.90 (warm time-to-first-compute must
//!   keep its edge over cold demand swap-ins). The committed baseline
//!   carries both the full rows and the `zipf1k-quick-*` rows, so the
//!   gate is non-vacuous in either bench mode.
//! * `BENCH_cluster.json` — `saved_fraction` per fleet row must not
//!   drop below baseline × 0.95 (cross-node warm migration must keep
//!   shipping only the chunks the destination does not already hold).
//!   Quick rows live under their own `fleet-quick-*` names, so the
//!   gate is non-vacuous in either bench mode.
//! * `BENCH_simkernel.json` — `events_per_sec` per scenario must not
//!   drop below baseline × 0.35. Unlike the virtual-time metrics above
//!   this one is *wall clock*, so the margin is deliberately generous:
//!   it only catches order-of-magnitude collapses of the dispatch hot
//!   path (an accidental O(n) scan, a lost fast path), not machine or
//!   scheduler noise. Because wall-clock rates also depend on workload
//!   size, the comparison is skipped (with a note) when the run's
//!   top-level `"quick"` flag differs from the baseline's.
//!
//! Rows are matched by `name`; quick-mode runs produce a subset of the
//! baseline rows (same deterministic values), which is fine — but a run
//! that matches *no* baseline row fails, so the gate can never pass
//! vacuously. (A wall-clock file skipped for quick-flag mismatch counts
//! as intentionally skipped, not vacuous.)
//!
//! Usage (paths relative to the invoking directory):
//!
//! ```text
//! perf_gate [--baselines <dir>] [--dedup <json>] [--swapin <json>]
//!           [--incremental <json>] [--serving <json>] [--cluster <json>]
//!           [--simkernel <json>]
//! ```
//!
//! With no selection flags all six files are checked from the
//! baselines' sibling directory layout (`crates/bench/BENCH_*.json`).

use std::process::ExitCode;

/// Split the `"benches": [...]` array of a `BENCH_*.json` into one
/// string per row object. The dumps are flat (one `{...}` per row, no
/// nested objects), so brace counting is enough.
fn rows(json: &str) -> Vec<String> {
    let Some(start) = json
        .find("\"benches\"")
        .and_then(|i| json[i..].find('[').map(|j| i + j))
    else {
        return Vec::new();
    };
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut row_start = 0usize;
    for (i, c) in json[start..].char_indices() {
        match c {
            '{' => {
                if depth == 0 {
                    row_start = start + i;
                }
                depth += 1;
            }
            '}' => {
                depth -= 1;
                if depth == 0 {
                    out.push(json[row_start..=start + i].to_string());
                }
            }
            ']' if depth == 0 => break,
            _ => {}
        }
    }
    out
}

/// Extract a string field (`"key": "value"`) from a flat row object.
fn str_field(row: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":");
    let rest = &row[row.find(&pat)? + pat.len()..];
    let rest = &rest[rest.find('"')? + 1..];
    Some(rest[..rest.find('"')?].to_string())
}

/// Extract a numeric field (`"key": 123.4`) from a flat row object.
fn num_field(row: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let rest = row[row.find(&pat)? + pat.len()..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Look up `metric` for the row named `name`.
fn metric_for(rows: &[String], name: &str, metric: &str) -> Option<f64> {
    rows.iter()
        .find(|r| str_field(r, "name").as_deref() == Some(name))
        .and_then(|r| num_field(r, metric))
}

/// The direction a guarded metric is allowed to move, with the factor
/// of the baseline it must stay within. Deterministic virtual-time
/// metrics use tight 10% factors; wall-clock metrics use wide ones.
#[derive(Clone, Copy)]
enum Bound {
    /// Regression = the value grew; fail when `current > baseline * f`.
    NoGrowthPast(f64),
    /// Regression = the value shrank; fail when `current < baseline * f`.
    NoDropPast(f64),
}

/// Compare every current row against the baseline; returns the number
/// of comparisons made (0 = nothing matched) and records failures.
fn check(
    label: &str,
    metric: &str,
    bound: Bound,
    baseline_json: &str,
    current_json: &str,
    failures: &mut Vec<String>,
) -> usize {
    let base_rows = rows(baseline_json);
    let cur_rows = rows(current_json);
    let mut compared = 0;
    for row in &cur_rows {
        let Some(name) = str_field(row, "name") else {
            continue;
        };
        let Some(current) = num_field(row, metric) else {
            continue;
        };
        let Some(baseline) = metric_for(&base_rows, &name, metric) else {
            println!("{label}/{name}: no baseline row, skipping");
            continue;
        };
        compared += 1;
        let (ok, limit) = match bound {
            Bound::NoGrowthPast(f) => (current <= baseline * f, baseline * f),
            Bound::NoDropPast(f) => (current >= baseline * f, baseline * f),
        };
        let verdict = if ok { "ok" } else { "REGRESSION" };
        println!(
            "{label}/{name}: {metric} {current} vs baseline {baseline} (limit {limit:.1}) {verdict}"
        );
        if !ok {
            failures.push(format!(
                "{label}/{name}: {metric} regressed past limit {limit:.1}: \
                 {current} vs baseline {baseline}"
            ));
        }
    }
    compared
}

/// The top-level `"quick"` flag of a `BENCH_*.json` dump (outside the
/// `"benches"` array, so a plain search on the tail is safe).
fn quick_flag(json: &str) -> Option<bool> {
    let tail = &json[json.rfind(']')?..];
    let rest = tail[tail.find("\"quick\"")?..].trim_start_matches("\"quick\"");
    let rest = rest.trim_start_matches(':').trim_start();
    if rest.starts_with("true") {
        Some(true)
    } else if rest.starts_with("false") {
        Some(false)
    } else {
        None
    }
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

/// Every gated file, in check order: `(label, metric, bound, wall_clock)`.
/// `label` names the baseline (`BENCH_<label>.json`), the default current
/// file beside it, and the `--<label> <json>` flag that overrides it.
const GATES: [(&str, &str, Bound, bool); 6] = [
    (
        "dedup",
        "warm_shipped_bytes",
        Bound::NoGrowthPast(1.10),
        false,
    ),
    ("swapin", "speedup", Bound::NoDropPast(0.90), false),
    ("incremental", "speedup", Bound::NoDropPast(0.90), false),
    (
        "serving",
        "warm_speedup_p99",
        Bound::NoDropPast(0.90),
        false,
    ),
    ("cluster", "saved_fraction", Bound::NoDropPast(0.95), false),
    ("simkernel", "events_per_sec", Bound::NoDropPast(0.35), true),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let baselines = flag("--baselines").unwrap_or_else(|| "crates/bench/baselines".to_string());
    let selected = GATES.map(|(label, ..)| flag(&format!("--{label}")));
    let explicit = selected.iter().any(Option::is_some);

    let mut failures = Vec::new();
    let mut compared = 0;
    let mut quick_skips = 0;
    let run = || -> Result<(), String> {
        for ((label, metric, bound, wall_clock), selected) in GATES.into_iter().zip(selected) {
            let current = match selected {
                Some(path) => path,
                None if explicit => continue,
                None => format!("crates/bench/BENCH_{label}.json"),
            };
            let baseline = read(&format!("{baselines}/BENCH_{label}.json"))?;
            let current = read(&current)?;
            if wall_clock && quick_flag(&baseline) != quick_flag(&current) {
                println!(
                    "{label}: quick flag differs from baseline ({:?} vs {:?}) — wall-clock rates \
                     are not comparable across workload sizes, skipping",
                    quick_flag(&current),
                    quick_flag(&baseline)
                );
                quick_skips += 1;
                continue;
            }
            compared += check(label, metric, bound, &baseline, &current, &mut failures);
        }
        Ok(())
    };
    if let Err(e) = run() {
        eprintln!("perf gate error: {e}");
        return ExitCode::FAILURE;
    }
    if compared == 0 && quick_skips == 0 {
        eprintln!("perf gate error: no rows matched any baseline — gate would be vacuous");
        return ExitCode::FAILURE;
    }
    if compared == 0 {
        println!("perf gate passed (all files skipped for quick-flag mismatch)");
        return ExitCode::SUCCESS;
    }
    if failures.is_empty() {
        println!("perf gate passed ({compared} comparisons)");
        ExitCode::SUCCESS
    } else {
        eprintln!("perf gate FAILED:\n  {}", failures.join("\n  "));
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
  "benches": [
    {"name": "tenant-512M", "warm_shipped_bytes": 27088, "speedup": 3.0394},
    {"name": "tenant-1G", "warm_shipped_bytes": 29136, "speedup": 4.1002}
  ],
  "quick": false
}"#;

    #[test]
    fn parses_rows_and_fields() {
        let r = rows(SAMPLE);
        assert_eq!(r.len(), 2);
        assert_eq!(str_field(&r[0], "name").as_deref(), Some("tenant-512M"));
        assert_eq!(num_field(&r[0], "warm_shipped_bytes"), Some(27088.0));
        assert_eq!(metric_for(&r, "tenant-1G", "speedup"), Some(4.1002));
        assert_eq!(metric_for(&r, "tenant-2G", "speedup"), None);
    }

    #[test]
    fn growth_and_drop_bounds() {
        let mut failures = Vec::new();
        // 10% growth allowed: 29000 vs 27088 passes, 31000 fails.
        let current = SAMPLE.replace("27088", "31000");
        let n = check(
            "dedup",
            "warm_shipped_bytes",
            Bound::NoGrowthPast(1.10),
            SAMPLE,
            &current,
            &mut failures,
        );
        assert_eq!(n, 2);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("tenant-512M"));

        failures.clear();
        // 10% drop allowed: 2.8 passes, 2.6 fails against 3.0394.
        let current = SAMPLE.replace("3.0394", "2.6");
        check(
            "swapin",
            "speedup",
            Bound::NoDropPast(0.90),
            SAMPLE,
            &current,
            &mut failures,
        );
        assert_eq!(failures.len(), 1);
    }

    #[test]
    fn wall_clock_factor_is_generous() {
        const WALL: &str = r#"{
  "benches": [
    {"name": "ping_pong_64", "events": 128000, "wall_secs": 0.1, "events_per_sec": 1280000.0}
  ],
  "quick": true
}"#;
        // A 50% drop passes the 0.35 factor; a 75% drop fails it.
        let mut failures = Vec::new();
        let halved = WALL.replace("1280000.0", "640000.0");
        let n = check(
            "simkernel",
            "events_per_sec",
            Bound::NoDropPast(0.35),
            WALL,
            &halved,
            &mut failures,
        );
        assert_eq!(n, 1);
        assert!(failures.is_empty(), "50% wall-clock drop must be tolerated");
        let collapsed = WALL.replace("1280000.0", "320000.0");
        check(
            "simkernel",
            "events_per_sec",
            Bound::NoDropPast(0.35),
            WALL,
            &collapsed,
            &mut failures,
        );
        assert_eq!(failures.len(), 1, "4x collapse must be caught");
    }

    #[test]
    fn quick_flag_parses_outside_rows() {
        assert_eq!(quick_flag(SAMPLE), Some(false));
        assert_eq!(quick_flag(&SAMPLE.replace("false", "true")), Some(true));
        assert_eq!(quick_flag("{\"benches\": []}"), None);
    }

    #[test]
    fn quick_subset_matches_baseline_superset() {
        let quick = r#"{"benches": [
            {"name": "tenant-512M", "warm_shipped_bytes": 27088}
        ], "quick": true}"#;
        let mut failures = Vec::new();
        let n = check(
            "dedup",
            "warm_shipped_bytes",
            Bound::NoGrowthPast(1.10),
            SAMPLE,
            quick,
            &mut failures,
        );
        assert_eq!(n, 1);
        assert!(failures.is_empty());
    }
}
