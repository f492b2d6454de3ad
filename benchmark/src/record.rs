//! The record one child run hands its parent, as the last line of its
//! standard output.

use crate::json::Json;

/// How the child ran its workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Tracing off: the run the end-to-end metrics come from.
    Plain,
    /// `simkernel::obs`, the kernel event trace and the benchmark's
    /// spans on: the run the per-layer metrics come from.
    Traced,
    /// `fleet-migrate` only: tracing off, `domains: 2`, still pinned to
    /// one CPU — coordination overhead, not parallel speed-up.
    D2,
}

impl Mode {
    /// As spelled on the command line.
    pub fn as_str(self) -> &'static str {
        match self {
            Mode::Plain => "plain",
            Mode::Traced => "traced",
            Mode::D2 => "d2",
        }
    }

    /// Parse the command-line spelling.
    pub fn parse(s: &str) -> Option<Mode> {
        [Mode::Plain, Mode::Traced, Mode::D2]
            .into_iter()
            .find(|m| m.as_str() == s)
    }
}

/// One child run.
#[derive(Clone, Debug, PartialEq)]
pub struct Record {
    /// Workload name.
    pub workload: String,
    /// Mode, as [`Mode::as_str`].
    pub mode: String,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`.
    pub seconds: u64,
    /// Logical CPUs of the host.
    pub host_cores: u64,
    /// CPU model of the host.
    pub cpu_model: String,
    /// The CPU the child pinned itself to.
    pub pinned_cpu: u64,
    /// Ops and output checks attempted.
    pub attempted: u64,
    /// Of those, failed, refused or unverified.
    pub failed: u64,
    /// Ops behind `op_v_mean_ms`.
    pub n: u64,
    /// End-to-end metrics.
    pub e2e: Vec<(String, f64)>,
    /// Host-side numbers the parent derives cross-run metrics from.
    pub host: Vec<(String, f64)>,
    /// Values that must repeat bit for bit for a seed.
    pub exact: Vec<(String, u64)>,
    /// Per-layer metrics this run could compute.
    pub layer: Vec<(String, f64)>,
}

fn nums(pairs: &[(String, f64)]) -> Json {
    Json::Obj(
        pairs
            .iter()
            .map(|(k, v)| (k.clone(), Json::Num(*v)))
            .collect(),
    )
}

fn read_nums(doc: &Json, key: &str) -> Result<Vec<(String, f64)>, String> {
    doc.get(key)
        .ok_or(format!("record lacks {key}"))?
        .members()
        .iter()
        .map(|(k, v)| {
            Ok((
                k.clone(),
                v.as_f64().ok_or(format!("{key}.{k} is not a number"))?,
            ))
        })
        .collect()
}

impl Record {
    /// Value of `name` in one of the float sections.
    pub fn find(section: &[(String, f64)], name: &str) -> Option<f64> {
        section.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
    }

    /// Render; 64-bit exact values travel as decimal strings.
    pub fn to_json(&self) -> Json {
        let int = |v: u64| Json::Num(v as f64);
        Json::obj([
            ("workload", Json::Str(self.workload.clone())),
            ("mode", Json::Str(self.mode.clone())),
            ("seed", Json::Str(self.seed.to_string())),
            ("seconds", int(self.seconds)),
            ("host_cores", int(self.host_cores)),
            ("cpu_model", Json::Str(self.cpu_model.clone())),
            ("pinned_cpu", int(self.pinned_cpu)),
            ("attempted", int(self.attempted)),
            ("failed", int(self.failed)),
            ("n", int(self.n)),
            ("e2e", nums(&self.e2e)),
            ("host", nums(&self.host)),
            (
                "exact",
                Json::Obj(
                    self.exact
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Str(v.to_string())))
                        .collect(),
                ),
            ),
            ("layer", nums(&self.layer)),
        ])
    }

    /// Read back what [`Record::to_json`] wrote.
    pub fn from_json(doc: &Json) -> Result<Record, String> {
        let text = |key: &str| {
            doc.get(key)
                .and_then(Json::as_str)
                .map(String::from)
                .ok_or(format!("record lacks {key}"))
        };
        let int = |key: &str| {
            doc.get(key)
                .and_then(Json::as_f64)
                .filter(|v| *v >= 0.0 && v.fract() == 0.0)
                .map(|v| v as u64)
                .ok_or(format!("record lacks count {key}"))
        };
        let exact = doc
            .get("exact")
            .ok_or("record lacks exact")?
            .members()
            .iter()
            .map(|(k, v)| {
                v.as_str()
                    .and_then(|s| s.parse::<u64>().ok())
                    .map(|v| (k.clone(), v))
                    .ok_or(format!("exact.{k} is not a u64 string"))
            })
            .collect::<Result<_, _>>()?;
        Ok(Record {
            workload: text("workload")?,
            mode: text("mode")?,
            seed: text("seed")?.parse().map_err(|_| "seed is not a u64")?,
            seconds: int("seconds")?,
            host_cores: int("host_cores")?,
            cpu_model: text("cpu_model")?,
            pinned_cpu: int("pinned_cpu")?,
            attempted: int("attempted")?,
            failed: int("failed")?,
            n: int("n")?,
            e2e: read_nums(doc, "e2e")?,
            host: read_nums(doc, "host")?,
            exact,
            layer: read_nums(doc, "layer")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_round_trips_through_json_text() {
        let record = Record {
            workload: "swap-churn".into(),
            mode: Mode::Traced.as_str().into(),
            seed: u64::MAX,
            seconds: 10,
            host_cores: 2,
            cpu_model: "Intel(R) Xeon(R) Processor @ 2.10GHz".into(),
            pinned_cpu: 0,
            attempted: 808,
            failed: 0,
            n: 800,
            e2e: vec![
                ("wall_ref_s".into(), 9.123_456_789_012),
                ("op_v_mean_ms".into(), 419.43),
            ],
            host: vec![("cpu_sys_s".into(), 3.5)],
            exact: vec![
                ("digest".into(), 0xdead_beef_dead_beef),
                ("v_makespan_ns".into(), 7),
            ],
            layer: vec![("snapstore.chunks_hit".into(), 1917.0)],
        };
        let line = record.to_json().render();
        assert!(!line.contains('\n'));
        let back = Record::from_json(&Json::parse(&line).unwrap()).unwrap();
        assert_eq!(back, record);
        assert!(Record::from_json(&Json::parse("{\"workload\": \"x\"}").unwrap()).is_err());
    }

    #[test]
    fn modes_parse_their_own_spelling() {
        for m in [Mode::Plain, Mode::Traced, Mode::D2] {
            assert_eq!(Mode::parse(m.as_str()), Some(m));
        }
        assert_eq!(Mode::parse("fast"), None);
    }
}
