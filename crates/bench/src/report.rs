//! The one record every bench ends in, and the one rule that holds a
//! fresh run against the committed copy.
//!
//! A [`Report`] is `benches` rows of ordered `(key, value)` fields led
//! by a `name`, plus top-level scalars, written and read as one
//! `simkernel::obs::Json`. A key is *deterministic* — a virtual-time or
//! byte-count answer of the model, which a re-run at the same commit
//! must reproduce token for token — unless the file's
//! `"wall_clock": {key: floor-or-null}` marks it as a host measurement.
//! Every bench ends `main` in [`Report::finish`], which also prints its
//! rows as one markdown table — the rendering EXPERIMENTS.md's tables are
//! held to (`render_tables`).

use simkernel::obs::Json;

/// `(key, value)` pairs in file order.
type Members = Vec<(String, Json)>;

/// `x` as a number token with exactly `decimals` fractional digits.
pub fn fixed(x: f64, decimals: usize) -> Json {
    assert!(x.is_finite(), "{x} has no JSON number token");
    Json::Number(format!("{x:.decimals$}"))
}

fn get<'a>(members: &'a Members, key: &str) -> Option<&'a Json> {
    let found = members.iter().find(|(k, _)| k == key);
    found.map(|(_, v)| v)
}

const NAME: &str = "name";
/// `true` when the rows were sized by `--quick`; only benches whose
/// same-named rows differ by mode set it.
const QUICK: &str = "quick";

/// A row's leading `name`, which rows are matched and merged by.
fn name(row: &Members) -> &str {
    match &row[0].1 {
        Json::Str(name) => name,
        _ => unreachable!("a row is led by its name"),
    }
}

/// A number's value; `None` for anything else.
fn number(value: &Json) -> Option<f64> {
    match value {
        Json::Number(token) => token.parse().ok(),
        _ => None,
    }
}

/// `rows` as one markdown table: `name`, then the union of the rows'
/// other keys in the order they first appear. Strings lose their
/// quotes, numbers print as written, and a key a row lacks reads `—`.
fn markdown(rows: &[&Members]) -> String {
    let mut keys: Vec<&str> = Vec::new();
    for (key, _) in rows.iter().flat_map(|row| row.iter()) {
        if !keys.contains(&key.as_str()) {
            keys.push(key);
        }
    }
    let line = |cells: Vec<String>| format!("| {} |\n", cells.join(" | "));
    let mut out = line(keys.iter().map(|k| k.to_string()).collect());
    out += &format!("|{}\n", "---|".repeat(keys.len()));
    for row in rows {
        let cell = |key: &&str| match get(row, key) {
            None => "—".to_string(),
            Some(Json::Str(s)) => s.clone(),
            Some(value) => value.to_string(),
        };
        out += &line(keys.iter().map(cell).collect());
    }
    out
}

/// A bench record: see the module docs.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Report {
    benches: Vec<Members>,
    wall_clock: Members,
    scalars: Members,
}

impl Report {
    /// Start the row `name`; its [`field`](Report::field)s follow.
    pub fn row(&mut self, name: &str) -> &mut Report {
        self.benches.push(vec![(NAME.to_string(), name.into())]);
        self
    }

    /// Append a field to the row started last: an integer, a `bool`, a
    /// string, or [`fixed`].
    pub fn field(&mut self, key: &str, value: impl Into<Json>) -> &mut Report {
        let row = self.benches.last_mut().expect("a field follows a row");
        row.push((key.to_string(), value.into()));
        self
    }

    /// Set a top-level scalar; `value` as for [`field`](Report::field),
    /// or a whole nested value.
    pub fn scalar(&mut self, key: &str, value: impl Into<Json>) -> &mut Report {
        self.scalars.push((key.to_string(), value.into()));
        self
    }

    /// Mark `key` (of rows and scalars alike) as host wall clock. With
    /// a `floor`, a fresh value must reach `floor ×` the committed one;
    /// without, it is recorded and never compared.
    pub fn wall_clock(&mut self, key: &str, floor: Option<f64>) -> &mut Report {
        let floor = floor.map_or(Json::Null, Json::from);
        self.wall_clock.push((key.to_string(), floor));
        self
    }

    /// Read a report; the inverse of [`to_json`](Report::to_json).
    fn parse(text: &str) -> Result<Report, String> {
        let refuse = |why: &str| Err(format!("not a report: {why}"));
        let Json::Object(members) = Json::parse(text).map_err(|e| e.to_string())? else {
            return refuse("not an object");
        };
        let mut report = Report::default();
        for (key, value) in members {
            match (key.as_str(), value) {
                ("wall_clock", Json::Object(marks)) => report.wall_clock = marks,
                ("benches", Json::Array(rows)) => {
                    for row in rows {
                        let Json::Object(row) = row else {
                            return refuse("a row is not an object");
                        };
                        if !matches!(&row[..], [(k, Json::Str(_)), ..] if k == NAME) {
                            return refuse("a row is not led by a name");
                        }
                        report.benches.push(row);
                    }
                }
                ("wall_clock" | "benches", _) => return refuse(&format!("{key} is misshapen")),
                (_, value) => report.scalars.push((key, value)),
            }
        }
        Ok(report)
    }

    /// The record as one value: `benches`, the marks if any, then the
    /// scalars.
    fn to_json(&self) -> Json {
        let rows = self.benches.iter().map(|row| Json::Object(row.clone()));
        let mut top = vec![(String::from("benches"), Json::Array(rows.collect()))];
        if !self.wall_clock.is_empty() {
            let marks = Json::Object(self.wall_clock.clone());
            top.push(("wall_clock".to_string(), marks));
        }
        top.extend(self.scalars.iter().cloned());
        Json::Object(top)
    }

    /// Every way this fresh report fails to reproduce `committed`, each
    /// naming row, field, old and new; empty means it does. Each fresh
    /// row needs a same-named committed row (an empty or renamed run
    /// never passes vacuously), every deterministic field and scalar
    /// must be equal token for token, and a floored wall-clock field must
    /// not collapse. Wall-clock rates depend on workload size, so when
    /// the two `quick` scalars differ only the row names are held.
    fn check(&self, committed: &Report) -> Vec<String> {
        let mut out = Vec::new();
        let mut hold = |row: &str, key: &str, old: Option<&Json>, new: &Json| {
            let rule = match get(&self.wall_clock, key).map(number) {
                None if old == Some(new) => return,
                None => String::new(),
                Some(None) => return,
                Some(Some(floor)) => match (old.and_then(number), number(new)) {
                    (Some(old), Some(new)) if new >= old * floor => return,
                    _ => format!(" (floor {floor}x committed)"),
                },
            };
            let old = old.map_or("(absent)".to_string(), Json::to_string);
            out.push(format!(
                "row {row} field {key}: committed {old} -> fresh {new}{rule}"
            ));
        };
        let modes = get(&self.scalars, QUICK).zip(get(&committed.scalars, QUICK));
        let same_mode = modes.is_none_or(|(fresh, old)| fresh == old);
        if self.benches.is_empty() {
            hold("(top level)", "benches", None, &Json::Array(Vec::new()));
        }
        if same_mode {
            for (key, new) in &self.scalars {
                hold("(top level)", key, get(&committed.scalars, key), new);
            }
        }
        for row in &self.benches {
            match committed.benches.iter().find(|r| name(r) == name(row)) {
                None => hold(name(row), NAME, None, &row[0].1),
                Some(old) if same_mode => {
                    for (key, new) in row {
                        hold(name(row), key, get(old, key), new);
                    }
                }
                Some(_) => {}
            }
        }
        out
    }

    /// This report's rows laid over `committed`'s: same-named rows are
    /// replaced in place, new ones appended; marks and scalars are the
    /// fresh run's.
    fn merged_over(self, committed: Report) -> Report {
        let mut benches = committed.benches;
        for row in self.benches {
            match benches.iter_mut().find(|r| name(r) == name(&row)) {
                Some(slot) => *slot = row,
                None => benches.push(row),
            }
        }
        Report { benches, ..self }
    }

    /// End a bench: print the fresh rows as one markdown table and the
    /// flat scalars beneath it, [`check`](Report::check) them against the
    /// committed `path` (a missing file holds no rows), write the
    /// [merged](Report::merged_over) rows back so a `--quick` subset
    /// never drops the full rows and `git diff` is the review surface,
    /// then fail the process if anything mismatched.
    pub fn finish(self, path: &str) {
        print!("{}", markdown(&self.benches.iter().collect::<Vec<_>>()));
        for (key, value) in &self.scalars {
            if !matches!(value, Json::Object(_)) {
                println!("{key}: {value}");
            }
        }
        let committed = match std::fs::read_to_string(path) {
            Ok(text) => Report::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}")),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Report::default(),
            Err(e) => panic!("cannot read {path}: {e}"),
        };
        let mismatches = self.check(&committed);
        let text = self.merged_over(committed).to_json().render();
        std::fs::write(path, text).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        assert!(
            mismatches.is_empty(),
            "{path} is rewritten and no longer matches the committed file:\n  {}",
            mismatches.join("\n  ")
        );
        println!("\nwrote {path}: every row reproduces the committed file");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const OPEN: &str = "<!-- table ";
    const CLOSE: &str = "<!-- /table -->";

    /// `doc` with every region between `<!-- table FILE [PREFIX] -->` and
    /// `<!-- /table -->` rendered afresh from the rows of `read(FILE)` whose
    /// name starts with `PREFIX`, and the `FILE PREFIX` of each region that
    /// was not already that rendering.
    fn render_tables(doc: &str, read: impl Fn(&str) -> Report) -> (String, Vec<String>) {
        let (mut out, mut stale) = (String::new(), Vec::new());
        let mut rest = doc;
        while let Some(at) = rest.find(OPEN) {
            let (head, tail) = rest.split_at(at);
            let (marker, body) = tail.split_at(tail.find("-->\n").expect("an unclosed marker") + 4);
            let what = marker[OPEN.len()..marker.len() - 4].trim();
            let end = body
                .find(CLOSE)
                .unwrap_or_else(|| panic!("{what}: no {CLOSE}"));
            let (file, prefix) = what.split_once(' ').unwrap_or((what, ""));
            let report = read(file);
            let rows: Vec<&Members> = report
                .benches
                .iter()
                .filter(|row| name(row).starts_with(prefix))
                .collect();
            assert!(!rows.is_empty(), "{what}: no row is named {prefix}…");
            let table = markdown(&rows);
            if body[..end] != table {
                stale.push(what.to_string());
            }
            out += head;
            out += marker;
            out += &table;
            rest = &body[end..];
        }
        (out + rest, stale)
    }

    /// Rows as the benches write them: a `u64` above 2^53, a decimal
    /// with a trailing zero, one floored and one recorded wall-clock key.
    const COMMITTED: &str = r#"{
  "benches": [
    {"name": "fleet-d1", "saved_fraction": 0.9330, "digest": 10346015804843313725, "wall_secs": 0.1, "events_per_sec": 1280000.0},
    {"name": "fleet-d4", "saved_fraction": 0.9399, "digest": 11973540178162036795, "wall_secs": 0.2, "events_per_sec": 640000.0}
  ],
  "wall_clock": {"wall_secs": null, "events_per_sec": 0.35},
  "quick": true
}
"#;

    fn committed() -> Report {
        Report::parse(COMMITTED).unwrap()
    }

    /// `COMMITTED` after `edits`, as a fresh run.
    fn rerun(edits: &[(&str, &str)]) -> Report {
        let text = edits
            .iter()
            .fold(COMMITTED.to_string(), |text, (from, to)| {
                assert!(text.contains(from), "{from}");
                text.replace(from, to)
            });
        Report::parse(&text).unwrap()
    }

    fn check(edits: &[(&str, &str)]) -> Vec<String> {
        rerun(edits).check(&committed())
    }

    fn miss(row: &str, field: &str, old: &str, new: &str) -> String {
        format!("row {row} field {field}: committed {old} -> fresh {new}")
    }

    /// Nobody hand-merged a committed artifact: each is the one writer's
    /// own output, number tokens and all.
    #[test]
    fn committed_artifacts_read_and_write_back_verbatim() {
        assert_eq!(committed().to_json().render(), COMMITTED);
        let here = std::fs::read_dir(env!("CARGO_MANIFEST_DIR")).unwrap();
        let paths = here.map(|entry| entry.unwrap().path());
        let jsons: Vec<_> = paths
            .filter(|p| p.extension().is_some_and(|e| e == "json"))
            .collect();
        assert_eq!(jsons.len(), 9);
        for path in jsons {
            let text = std::fs::read_to_string(&path).unwrap();
            let json = Json::parse(&text).unwrap_or_else(|e| panic!("{path:?}: {e}"));
            assert_eq!(json.render(), text, "{path:?}");
            let report = Report::parse(&text).unwrap_or_else(|e| panic!("{path:?}: {e}"));
            assert_eq!(report.to_json(), json, "{path:?}");
        }
    }

    #[test]
    fn a_value_that_is_not_a_report_is_named() {
        let unnamed = "not a report: a row is not led by a name";
        for (text, why) in [
            ("{\"benches\": [", "truncated at byte 13"),
            ("[]", "not a report: not an object"),
            (r#"{"benches": [{"x": 1}]}"#, unnamed),
            (r#"{"benches": [{"name": 1}]}"#, unnamed),
            (
                r#"{"benches": [[]]}"#,
                "not a report: a row is not an object",
            ),
            (r#"{"benches": {}}"#, "not a report: benches is misshapen"),
            (
                r#"{"wall_clock": []}"#,
                "not a report: wall_clock is misshapen",
            ),
        ] {
            assert_eq!(Report::parse(text), Err(why.to_string()), "{text}");
        }
    }

    /// `perf_gate`'s cases, and the ones it could not express.
    #[test]
    fn the_comparison_rule() {
        let none: [&str; 0] = [];
        let (old, new) = ("10346015804843313725", "10346015804843313726");
        // An exact re-run reproduces. Numerically equal is not enough,
        // and a mismatch names its row and field.
        assert_eq!(check(&[]), none);
        assert_eq!(
            check(&[("0.9330", "0.933"), (old, new)]),
            [
                miss("fleet-d1", "saved_fraction", "0.9330", "0.933"),
                miss("fleet-d1", "digest", old, new)
            ]
        );
        assert_eq!(
            check(&[("\"wall_secs\": 0.1", "\"virtual_ns\": 7")]),
            [miss("fleet-d1", "virtual_ns", "(absent)", "7")]
        );
        // A recorded wall-clock field takes any value; one floored at
        // 0.35x tolerates a 50% drop and catches a 4x collapse.
        assert_eq!(check(&[("0.1,", "9.9,")]), none);
        assert_eq!(check(&[("1280000.0", "640000.0")]), none);
        let collapsed = "320000.0 (floor 0.35x committed)";
        assert_eq!(
            check(&[("1280000.0", "320000.0")]),
            [miss("fleet-d1", "events_per_sec", "1280000.0", collapsed)]
        );
        // Rows sized by the other mode are matched by name, not compared.
        let other_mode = [(old, new), ("1280000.0", "1.0"), ("true", "false")];
        assert_eq!(check(&other_mode[..2]).len(), 2);
        assert_eq!(check(&other_mode), none);
        // A fresh row the committed file lacks never passes vacuously,
        // in either mode; nor does a run without rows.
        let renamed = [("fleet-d4", "fleet-d8"), ("true", "false")];
        let absent = [miss("fleet-d8", "name", "(absent)", "\"fleet-d8\"")];
        assert_eq!(check(&renamed[..1]), absent);
        assert_eq!(check(&renamed), absent);
        let mut empty = committed();
        empty.benches.clear();
        assert_eq!(empty.check(&committed()).len(), 1);
        assert_eq!(committed().check(&Report::default()).len(), 3);
    }

    #[test]
    fn a_quick_subset_passes_and_merging_keeps_the_full_rows() {
        let mut quick = committed();
        quick.benches.remove(0);
        assert_eq!(quick.check(&committed()), [""; 0]);
        assert_eq!(quick.merged_over(committed()), committed());
        // A replaced row keeps its place; a new one goes last.
        let mut run = rerun(&[("0.2", "0.3")]);
        run.benches.remove(0);
        run.row("fleet-d8");
        let merged = run.merged_over(committed()).to_json().render();
        let added = ("}\n  ]", "},\n    {\"name\": \"fleet-d8\"}\n  ]");
        assert_eq!(merged, rerun(&[("0.2", "0.3"), added]).to_json().render());
    }

    /// Three rows: two share a prefix and half their keys, one string.
    fn fleet() -> Report {
        let mut report = Report::default();
        report
            .row("fleet-d1")
            .field("saved", fixed(0.933, 4))
            .field("digest", 10346015804843313725u64)
            .field("policy", "lru")
            .row("fleet-d4")
            .field("saved", fixed(0.9399, 4))
            .field("barrier_rounds", 7499)
            .row("other")
            .field("x", 1);
        report
    }

    const FLEET: &str = "\
| name | saved | digest | policy | barrier_rounds |
|---|---|---|---|---|
| fleet-d1 | 0.9330 | 10346015804843313725 | lru | — |
| fleet-d4 | 0.9399 | — | — | 7499 |
";

    #[test]
    fn a_table_is_the_union_of_its_rows_keys_with_tokens_as_written() {
        let report = fleet();
        assert_eq!(
            markdown(&report.benches.iter().take(2).collect::<Vec<_>>()),
            FLEET
        );
    }

    #[test]
    fn a_marked_region_is_rewritten_from_its_prefix_rows_and_named() {
        let doc = "# t\n<!-- table BENCH_x.json fleet -->\n| stale |\n<!-- /table -->\n\
                   text\n<!-- table BENCH_x.json o -->\n| name | x |\n|---|---|\n| other | 1 |\n\
                   <!-- /table -->\n";
        let read = |file: &str| {
            assert_eq!(file, "BENCH_x.json");
            fleet()
        };
        let (fresh, stale) = render_tables(doc, read);
        assert_eq!(stale, ["BENCH_x.json fleet"]);
        assert_eq!(fresh, doc.replace("| stale |\n", FLEET));
        assert_eq!(render_tables(&fresh, read), (fresh.clone(), vec![]));
        // Without a prefix a region holds every row.
        let every = "<!-- table BENCH_x.json -->\n<!-- /table -->\n";
        let table = "\
| name | saved | digest | policy | barrier_rounds | x |
|---|---|---|---|---|---|
| fleet-d1 | 0.9330 | 10346015804843313725 | lru | — | — |
| fleet-d4 | 0.9399 | — | — | 7499 | — |
| other | — | — | — | — | 1 |
";
        let rendered = every.replace("-->\n<", &format!("-->\n{table}<"));
        assert_eq!(
            render_tables(every, read),
            (rendered, vec!["BENCH_x.json".into()])
        );
    }

    /// EXPERIMENTS.md's tables are the committed records, rendered. A
    /// region that differs is rewritten from its record and fails this
    /// test by name — `Report::finish`'s hold-and-rewrite rule, for the
    /// docs.
    #[test]
    fn experiments_md_tables_are_the_committed_records() {
        let dir = env!("CARGO_MANIFEST_DIR");
        let path = format!("{dir}/../../EXPERIMENTS.md");
        let doc = std::fs::read_to_string(&path).unwrap();
        let (fresh, stale) = render_tables(&doc, |file| {
            let text = std::fs::read_to_string(format!("{dir}/{file}"));
            let text = text.unwrap_or_else(|e| panic!("{file}: {e}"));
            Report::parse(&text).unwrap_or_else(|e| panic!("{file}: {e}"))
        });
        if !stale.is_empty() {
            std::fs::write(&path, fresh).unwrap();
        }
        assert!(
            stale.is_empty(),
            "EXPERIMENTS.md is rewritten: these tables differed from their records: {}",
            stale.join("; ")
        );
    }
}
