//! The one writer and one reader of `BENCH_*.json`, and the one rule
//! that holds a fresh run against the committed copy.
//!
//! A [`Report`] is `benches` rows of ordered `(key, value)` fields led
//! by a `name`, plus top-level scalars. A key is *deterministic* — a
//! virtual-time or byte-count answer of the model, which a re-run at the
//! same commit must reproduce token for token — unless the file's
//! `"wall_clock": {key: floor-or-null}` marks it as a host measurement.
//! Every bench ends `main` in [`Report::finish`], which also prints its
//! rows as one markdown table — the rendering EXPERIMENTS.md's tables are
//! held to (`render_tables`).

use std::fmt::{self, Display};

/// `(key, value)` pairs in file order, each side its JSON text as
/// written — keys and strings with their quotes and escapes, numbers
/// with their digits, nested values whole — so `0.9330` and a `u64`
/// above 2^53 survive read → write unchanged and "equal" means
/// textually equal.
type Members = Vec<(String, String)>;

/// `x` as a number token with exactly `decimals` fractional digits.
pub fn fixed(x: f64, decimals: usize) -> String {
    assert!(x.is_finite(), "{x} has no JSON number token");
    format!("{x:.decimals$}")
}

/// `s` as a JSON string token.
pub fn quote(s: &str) -> String {
    let mut out = String::from('"');
    for c in s.chars() {
        match c {
            '"' | '\\' => out.extend(['\\', c]),
            c if c < ' ' => out += &format!("\\u{:04x}", c as u32),
            c => out.push(c),
        }
    }
    out + "\""
}

/// Why a text is not a bench report: what is wrong, at which byte.
#[derive(Clone, Debug, PartialEq, Eq)]
struct ParseError {
    /// `truncated`, `unexpected byte`, `bad escape`, `bad token`, `nested
    /// too deep`, `trailing garbage`, or why JSON is `not a report: …`.
    what: &'static str,
    /// Byte offset into the text.
    at: usize,
}

impl Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.what, self.at)
    }
}

impl std::error::Error for ParseError {}

/// A recursive-descent pass that checks JSON syntax and hands back each
/// value's extent instead of building a tree.
struct Scanner<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Scanner<'a> {
    /// An error `back` bytes behind the cursor.
    fn err(&self, what: &'static str, back: usize) -> ParseError {
        let at = self.pos - back;
        ParseError { what, at }
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn next(&mut self) -> Result<u8, ParseError> {
        let b = self.peek().ok_or(self.err("truncated", 0))?;
        self.pos += 1;
        Ok(b)
    }

    /// The next byte after any white space.
    fn token(&mut self) -> Result<u8, ParseError> {
        while matches!(self.peek(), Some(b' ' | b'\n' | b'\r' | b'\t')) {
            self.pos += 1;
        }
        self.next()
    }

    fn expect(&mut self, want: u8) -> Result<(), ParseError> {
        match self.token()? {
            b if b == want => Ok(()),
            _ => Err(self.err("unexpected byte", 1)),
        }
    }

    /// One value, as written. `BENCH_paper.json`'s obs summary nests five
    /// deep; the cap only keeps hostile input off the end of the stack.
    fn value(&mut self, depth: usize) -> Result<&'a str, ParseError> {
        let first = self.token()?;
        let at = self.pos - 1;
        match first {
            _ if depth > 32 => return Err(self.err("nested too deep", 1)),
            b'"' => self.string()?,
            b'[' => self.items(b']', |p| p.value(depth + 1).map(drop))?,
            b'{' => self.items(b'}', |p| p.key().and_then(|_| p.value(depth + 1)).map(drop))?,
            _ => {
                self.pos = at;
                while self
                    .peek()
                    .is_some_and(|b| b.is_ascii_alphanumeric() || b"+-.".contains(&b))
                {
                    self.pos += 1;
                }
                match &self.src[at..self.pos] {
                    "" => return Err(self.err("unexpected byte", 0)),
                    "null" | "true" | "false" => {}
                    // `str::parse` alone would also take `inf` and `+1`.
                    t if t.starts_with(|c: char| c == '-' || c.is_ascii_digit())
                        && t.parse::<f64>().is_ok_and(f64::is_finite) => {}
                    t => return Err(self.err("bad token", t.len())),
                }
            }
        }
        Ok(&self.src[at..self.pos])
    }

    /// The `"key":` of a member, as written.
    fn key(&mut self) -> Result<&'a str, ParseError> {
        self.expect(b'"')?;
        let at = self.pos - 1;
        self.string()?;
        self.expect(b':')?;
        Ok(&self.src[at..self.pos - 1])
    }

    /// `{"key": value, …}` with each side as written.
    fn object(&mut self) -> Result<Members, ParseError> {
        let mut out = Vec::new();
        self.expect(b'{')?;
        self.items(b'}', |p| {
            out.push((p.key()?.to_string(), p.value(1)?.to_string()));
            Ok(())
        })?;
        Ok(out)
    }

    /// The comma-separated items after an opener, up to `close`.
    fn items(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), ParseError>,
    ) -> Result<(), ParseError> {
        if self.token()? == close {
            return Ok(());
        }
        self.pos -= 1;
        loop {
            item(self)?;
            match self.token()? {
                b',' => {}
                b if b == close => return Ok(()),
                _ => return Err(self.err("unexpected byte", 1)),
            }
        }
    }

    /// The rest of a string whose opening quote is consumed.
    fn string(&mut self) -> Result<(), ParseError> {
        let hex4 = |p: &Self| {
            let digits = p.src.as_bytes().get(p.pos..p.pos + 4);
            digits.is_some_and(|d| d.iter().all(u8::is_ascii_hexdigit))
        };
        loop {
            match self.next()? {
                b'"' => return Ok(()),
                b'\\' => match self.next()? {
                    b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't' => {}
                    b'u' if hex4(self) => self.pos += 4,
                    _ => return Err(self.err("bad escape", 2)),
                },
                b if b < b' ' => return Err(self.err("unexpected byte", 1)),
                _ => {}
            }
        }
    }
}

fn get<'a>(members: &'a Members, key: &str) -> Option<&'a str> {
    let found = members.iter().find(|(k, _)| k == key);
    found.map(|(_, v)| v.as_str())
}

const NAME: &str = "\"name\"";
/// `true` when the rows were sized by `--quick`; only benches whose
/// same-named rows differ by mode set it.
const QUICK: &str = "\"quick\"";

/// A row's leading `name`, which rows are matched and merged by.
fn name(row: &Members) -> &str {
    &row[0].1
}

/// A string token without its quotes; any other token as written.
fn unquote(token: &str) -> &str {
    let inner = token.strip_prefix('"').and_then(|t| t.strip_suffix('"'));
    inner.unwrap_or(token)
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
    let line = |cells: Vec<&str>| format!("| {} |\n", cells.join(" | "));
    let mut out = line(keys.iter().map(|k| unquote(k)).collect());
    out += &format!("|{}\n", "---|".repeat(keys.len()));
    for row in rows {
        out += &line(
            keys.iter()
                .map(|k| get(row, k).map_or("—", unquote))
                .collect(),
        );
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
        self.benches.push(vec![(NAME.to_string(), quote(name))]);
        self
    }

    /// Append a field to the row started last. `value` prints as a JSON
    /// value: an integer, a `bool`, [`fixed`] or [`quote`].
    pub fn field(&mut self, key: &str, value: impl Display) -> &mut Report {
        let row = self.benches.last_mut().expect("a field follows a row");
        row.push((quote(key), value.to_string()));
        self
    }

    /// Set a top-level scalar; `value` as for [`field`](Report::field),
    /// or a whole nested JSON value.
    pub fn scalar(&mut self, key: &str, value: impl Display) -> &mut Report {
        self.scalars.push((quote(key), value.to_string()));
        self
    }

    /// Mark `key` (of rows and scalars alike) as host wall clock. With
    /// a `floor`, a fresh value must reach `floor ×` the committed one;
    /// without, it is recorded and never compared.
    pub fn wall_clock(&mut self, key: &str, floor: Option<f64>) -> &mut Report {
        let floor = floor.map_or("null".to_string(), |x| x.to_string());
        self.wall_clock.push((quote(key), floor));
        self
    }

    /// Read a report; the inverse of `to_string`.
    fn parse(text: &str) -> Result<Report, ParseError> {
        let mut p = Scanner { src: text, pos: 0 };
        let mut report = Report::default();
        p.expect(b'{')?;
        p.items(b'}', |p| {
            match p.key()? {
                "\"wall_clock\"" => report.wall_clock = p.object()?,
                "\"benches\"" => {
                    p.expect(b'[')?;
                    p.items(b']', |p| {
                        let row = p.object()?;
                        if !matches!(&row[..], [(k, v), ..] if k == NAME && v.starts_with('"')) {
                            return Err(p.err("not a report: this row is not led by a name", 1));
                        }
                        report.benches.push(row);
                        Ok(())
                    })?
                }
                key => report
                    .scalars
                    .push((key.to_string(), p.value(1)?.to_string())),
            }
            Ok(())
        })?;
        match p.token() {
            Err(_) => Ok(report),
            Ok(_) => Err(p.err("trailing garbage", 1)),
        }
    }

    /// Every way this fresh report fails to reproduce `committed`, each
    /// naming row, field, old and new; empty means it does. Each fresh
    /// row needs a same-named committed row (an empty or renamed run
    /// never passes vacuously), every deterministic field and scalar
    /// must be textually equal, and a floored wall-clock field must not
    /// collapse. Wall-clock rates depend on workload size, so when the
    /// two `quick` scalars differ only the row names are held.
    fn check(&self, committed: &Report) -> Vec<String> {
        let mut out = Vec::new();
        let mut hold = |row: &str, key: &str, old: Option<&str>, new: &str| {
            let floor = get(&self.wall_clock, key).map(str::parse::<f64>);
            let rule = match floor {
                None if old == Some(new) => return,
                None => String::new(),
                Some(Err(_)) => return,
                Some(Ok(floor)) => match (old.map(str::parse::<f64>), new.parse::<f64>()) {
                    (Some(Ok(old)), Ok(new)) if new >= old * floor => return,
                    _ => format!(" (floor {floor}x committed)"),
                },
            };
            let old = old.unwrap_or("(absent)");
            out.push(format!(
                "row {row} field {key}: committed {old} -> fresh {new}{rule}"
            ));
        };
        let same_mode = match (get(&self.scalars, QUICK), get(&committed.scalars, QUICK)) {
            (Some(fresh), Some(old)) => fresh == old,
            _ => true,
        };
        if self.benches.is_empty() {
            hold("(top level)", "\"benches\"", None, "[]");
        }
        if same_mode {
            for (key, new) in &self.scalars {
                hold("(top level)", key, get(&committed.scalars, key), new);
            }
        }
        for row in &self.benches {
            match committed.benches.iter().find(|r| name(r) == name(row)) {
                None => hold(name(row), NAME, None, name(row)),
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
        for (key, value) in self.scalars.iter().filter(|(_, v)| !v.starts_with('{')) {
            println!("{}: {value}", unquote(key));
        }
        let committed = match std::fs::read_to_string(path) {
            Ok(text) => Report::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}")),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Report::default(),
            Err(e) => panic!("cannot read {path}: {e}"),
        };
        let mismatches = self.check(&committed);
        let merged = self.merged_over(committed);
        let text = merged.to_string();
        // A bench that passed `field` something other than a JSON value
        // stops here, not at the next run's read.
        assert_eq!(Report::parse(&text).as_ref(), Ok(&merged), "{path}");
        std::fs::write(path, text).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        assert!(
            mismatches.is_empty(),
            "{path} is rewritten and no longer matches the committed file:\n  {}",
            mismatches.join("\n  ")
        );
        println!("\nwrote {path}: every row reproduces the committed file");
    }
}

impl Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let object = |members: &Members| {
            let members = members.iter().map(|(k, v)| format!("{k}: {v}"));
            format!("{{{}}}", members.collect::<Vec<_>>().join(", "))
        };
        let rows: Vec<String> = self.benches.iter().map(object).collect();
        write!(f, "{{\n  \"benches\": [\n    {}\n  ]", rows.join(",\n    "))?;
        if !self.wall_clock.is_empty() {
            write!(f, ",\n  \"wall_clock\": {}", object(&self.wall_clock))?;
        }
        for (key, value) in &self.scalars {
            write!(f, ",\n  {key}: {value}")?;
        }
        f.write_str("\n}\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
                .filter(|row| unquote(name(row)).starts_with(prefix))
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
        format!("row \"{row}\" field \"{field}\": committed {old} -> fresh {new}")
    }

    /// Nobody hand-merged a committed artifact: each is the writer's
    /// own output, number tokens and all.
    #[test]
    fn committed_artifacts_read_and_write_back_verbatim() {
        assert_eq!(committed().to_string(), COMMITTED);
        let here = std::fs::read_dir(env!("CARGO_MANIFEST_DIR")).unwrap();
        let paths = here.map(|entry| entry.unwrap().path());
        let jsons: Vec<_> = paths
            .filter(|p| p.extension().is_some_and(|e| e == "json"))
            .collect();
        assert_eq!(jsons.len(), 9);
        for path in jsons {
            let text = std::fs::read_to_string(&path).unwrap();
            let report = Report::parse(&text).unwrap_or_else(|e| panic!("{path:?}: {e}"));
            assert_eq!(report.to_string(), text, "{path:?}");
        }
    }

    fn text() -> impl Strategy<Value = String> {
        prop::collection::vec(any::<u8>(), 0..12)
            .prop_map(|bytes| bytes.iter().map(|&b| (b % 0x90) as char).collect())
    }

    proptest! {
        /// Strings with quotes, backslashes, control and non-ASCII
        /// characters; any `u64`; a nested object; both kinds of mark.
        #[test]
        fn write_then_read_is_identity_and_any_cut_is_an_error(
            names in prop::collection::vec(text(), 1..4),
            key in text(),
            n in any::<u64>(),
            flag in any::<bool>(),
        ) {
            let mut report = Report::default();
            for name in &names {
                let nested = format!("{{{}: [{n}, null, {{}}],\n \"\": {flag}}}", quote(name));
                report
                    .row(name)
                    .field(&key, n)
                    .field("ratio", fixed(n as f64 / 1e19, 4))
                    .field("label", quote(&key))
                    .field("nested", nested);
            }
            report
                .wall_clock(&key, flag.then_some(n as f64 / 8.0))
                .scalar("quick", flag)
                .scalar(&key, u64::MAX);
            let written = report.to_string();
            prop_assert_eq!(Report::parse(&written), Ok(report));
            let cut = (n % (written.len() as u64 - 2)) as usize;
            if written.is_char_boundary(cut) {
                prop_assert!(Report::parse(&written[..cut]).is_err());
            }
        }

        #[test]
        fn arbitrary_text_never_panics_the_reader(picks in prop::collection::vec(0usize..32, 0..48)) {
            let alphabet: Vec<char> = "{}[]\",:\\u0123456789aeEdD.-+ tfné".chars().collect();
            let text: String = picks.iter().map(|&i| alphabet[i]).collect();
            let _ = Report::parse(&text);
        }
    }

    #[test]
    fn malformed_input_is_a_typed_error() {
        let trailing = format!("{COMMITTED}x");
        let deep = format!("{{\"a\": {}", "[".repeat(99));
        let unnamed = "not a report: this row is not led by a name";
        for (text, what, at) in [
            ("{\"benches\": [", "truncated", 13),
            ("{\"a\": \"abc", "truncated", 10),
            (trailing.as_str(), "trailing garbage", COMMITTED.len()),
            (r#"{"a\qb": 1}"#, "bad escape", 3),
            (r#"{"a": "\u12g4"}"#, "bad escape", 7),
            ("{\"a\": [01x]}", "bad token", 7),
            ("{\"a\": [-]}", "bad token", 7),
            ("{\"a\": [1e]}", "bad token", 7),
            ("{\"a\": [-inf]}", "bad token", 7),
            ("{\"a\": [+1]}", "bad token", 7),
            ("{\"a\": [nul]}", "bad token", 7),
            ("{\"a\": [1 2]}", "unexpected byte", 9),
            ("[]", "unexpected byte", 0),
            (deep.as_str(), "nested too deep", 38),
            (r#"{"benches": [{"x": 1}]}"#, unnamed, 20),
            (r#"{"benches": [{"name": 1}]}"#, unnamed, 23),
            (r#"{"benches": {}}"#, "unexpected byte", 12),
            (r#"{"wall_clock": []}"#, "unexpected byte", 15),
        ] {
            assert_eq!(Report::parse(text), Err(ParseError { what, at }), "{text}");
        }
        assert!(Report::parse(r#"{"é\né😀": "\"\\\/\b\f\r\té"}"#).is_ok());
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
        let merged = run.merged_over(committed()).to_string();
        let added = ("}\n  ]", "},\n    {\"name\": \"fleet-d8\"}\n  ]");
        assert_eq!(merged, rerun(&[("0.2", "0.3"), added]).to_string());
    }

    /// Three rows: two share a prefix and half their keys, one string.
    fn fleet() -> Report {
        let mut report = Report::default();
        report
            .row("fleet-d1")
            .field("saved", "0.9330")
            .field("digest", 10346015804843313725u64)
            .field("policy", quote("lru"))
            .row("fleet-d4")
            .field("saved", "0.9399")
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
