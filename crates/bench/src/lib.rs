//! # snapify-bench — shared reporting helpers for the paper harnesses
//!
//! Each table and figure of the paper's evaluation has its own bench
//! target under `benches/` (custom harnesses — run with `cargo bench`).
//! This crate holds the formatting and measurement plumbing they share,
//! and [`report`] — the only code that writes or reads a `BENCH_*.json`.

#![warn(missing_docs)]

pub mod report;

use phi_platform::PlatformParams;
use simkernel::SimDuration;

/// Whether this run was asked for the fast smoke sizes CI uses:
/// `--quick` on the command line or `BENCH_QUICK=1` in the environment.
pub fn quick() -> bool {
    std::env::args().any(|a| a == "--quick") || std::env::var("BENCH_QUICK").is_ok_and(|v| v == "1")
}

/// Format a virtual duration as seconds with 3 decimals.
pub fn secs(d: SimDuration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// Format a byte count in human units.
pub fn bytes(n: u64) -> String {
    if n >= 1 << 30 {
        format!("{:.2} GiB", n as f64 / (1u64 << 30) as f64)
    } else if n >= 1 << 20 {
        format!("{:.1} MiB", n as f64 / (1u64 << 20) as f64)
    } else if n >= 1 << 10 {
        format!("{:.1} KiB", n as f64 / 1024.0)
    } else {
        format!("{n} B")
    }
}

/// A simple fixed-width text table.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Table {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Render to stdout.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let line = |cells: &[String]| {
            let mut s = String::new();
            for (i, c) in cells.iter().enumerate() {
                s.push_str(&format!("{:>w$}  ", c, w = widths[i]));
            }
            println!("{}", s.trim_end());
        };
        line(&self.headers);
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
        println!("{}", "-".repeat(total));
        for row in &self.rows {
            line(row);
        }
    }
}

/// Print the standard experiment header (benchmark name + the Table 2
/// configuration the run used).
pub fn header(title: &str, params: &PlatformParams) {
    println!();
    println!("==================================================================");
    println!("{title}");
    println!("==================================================================");
    println!("{}", params.table2());
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkernel::time::ms;

    #[test]
    fn formatting() {
        assert_eq!(secs(ms(1500)), "1.500");
        assert_eq!(bytes(512), "512 B");
        assert_eq!(bytes(4 << 10), "4.0 KiB");
        assert_eq!(bytes(3 << 20), "3.0 MiB");
        assert_eq!(bytes(2 << 30), "2.00 GiB");
    }

    #[test]
    fn table_renders_without_panic() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["1", "two"]);
        t.print();
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["1"]);
    }
}
