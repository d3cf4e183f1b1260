//! Formatting helpers and machine-readable results for experiment output.
//!
//! Every experiment binary prints a small table in the same layout the paper
//! uses, so the output can be checked against the paper directly. On
//! top of the human tables, experiments push their headline numbers (Gbps,
//! RPS, latency statistics) into a [`BenchResults`] collector which is
//! written to `BENCH_results.json` — the file CI archives per commit so the
//! perf trajectory accumulates instead of evaporating with the build log.

use serde::{Deserialize, Serialize};

/// Deserialize a field that may be absent in a file written by an older
/// schema: a missing object key reads as `Null`, which maps to the field
/// type's default instead of failing the whole file. (Dropping the file
/// would silently discard every previously recorded experiment — the
/// accumulate-don't-clobber contract of [`BenchResults::write`] depends on
/// old files staying readable.)
fn or_default<T: Deserialize + Default>(v: &serde::Value) -> Result<T, serde::Error> {
    match v {
        serde::Value::Null => Ok(T::default()),
        other => T::from_value(other),
    }
}

/// Print a table with a title, a header row and data rows, with columns
/// aligned on width.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(c.len())))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    );
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Format a float with the given number of decimals.
pub fn f(v: f64, decimals: usize) -> String {
    format!("{v:.decimals$}")
}

/// One named number of one experiment (e.g. `send_gbps_8k` in `Gbps`).
#[derive(Clone, Debug, Default, PartialEq, Serialize)]
pub struct Metric {
    /// Machine-friendly metric name.
    pub label: String,
    /// Unit the value is expressed in (`Gbps`, `rps`, `ms`, `us`, …).
    pub unit: String,
    /// The value.
    pub value: f64,
}

impl Deserialize for Metric {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        if !matches!(v, serde::Value::Object(_)) {
            return Err(serde::Error::expected("object", "Metric"));
        }
        Ok(Metric {
            label: or_default(v.get("label"))?,
            unit: or_default(v.get("unit"))?,
            value: or_default(v.get("value"))?,
        })
    }
}

/// The machine-readable record of one experiment.
#[derive(Clone, Debug, Default, PartialEq, Serialize)]
pub struct ExperimentResult {
    /// Experiment name as used on the CLI (`fig13`, `tab05`, …).
    pub name: String,
    /// Headline metrics.
    pub metrics: Vec<Metric>,
}

impl Deserialize for ExperimentResult {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        if !matches!(v, serde::Value::Object(_)) {
            return Err(serde::Error::expected("object", "ExperimentResult"));
        }
        Ok(ExperimentResult {
            name: or_default(v.get("name"))?,
            metrics: or_default(v.get("metrics"))?,
        })
    }
}

impl ExperimentResult {
    /// Append one metric (builder style, chainable).
    pub fn metric(&mut self, label: &str, unit: &str, value: f64) -> &mut Self {
        self.metrics.push(Metric {
            label: label.to_string(),
            unit: unit.to_string(),
            value,
        });
        self
    }
}

/// Collector for a whole experiments run, serialized to
/// `BENCH_results.json`.
#[derive(Clone, Debug, Default, PartialEq, Serialize)]
pub struct BenchResults {
    /// One entry per experiment that ran, in execution order.
    pub experiments: Vec<ExperimentResult>,
}

impl Deserialize for BenchResults {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        if !matches!(v, serde::Value::Object(_)) {
            return Err(serde::Error::expected("object", "BenchResults"));
        }
        Ok(BenchResults {
            experiments: or_default(v.get("experiments"))?,
        })
    }
}

impl BenchResults {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Open (append) the record of one experiment.
    pub fn experiment(&mut self, name: &str) -> &mut ExperimentResult {
        self.experiments.push(ExperimentResult {
            name: name.to_string(),
            metrics: Vec::new(),
        });
        self.experiments.last_mut().expect("just pushed")
    }

    /// Pretty JSON rendering of the collected results.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("results serialize")
    }

    /// Merge these results over a previous run's parsed file: experiments
    /// re-run now replace their old entry *in place* (so the file order
    /// stays stable across partial re-runs), new ones append, everything
    /// else is kept.
    pub fn merged_over(&self, mut previous: BenchResults) -> BenchResults {
        for experiment in &self.experiments {
            match previous
                .experiments
                .iter_mut()
                .find(|e| e.name == experiment.name)
            {
                Some(slot) => *slot = experiment.clone(),
                None => previous.experiments.push(experiment.clone()),
            }
        }
        previous
    }

    /// Write the results to `path`, merging with whatever is already there:
    /// a partial run (`experiments par01`) updates its own entries and
    /// keeps every other experiment's previous numbers, so
    /// `BENCH_results.json` accumulates the perf trajectory instead of
    /// clobbering it. A missing or unparseable previous file is replaced
    /// outright.
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        let merged = std::fs::read_to_string(path)
            .ok()
            .and_then(|text| serde_json::from_str::<BenchResults>(&text).ok())
            .map(|previous| self.merged_over(previous))
            .unwrap_or_else(|| self.clone());
        std::fs::write(path, merged.to_json() + "\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn float_formatting() {
        assert_eq!(f(1.23456, 2), "1.23");
        assert_eq!(f(100.0, 1), "100.0");
    }

    #[test]
    fn print_table_does_not_panic() {
        print_table(
            "demo",
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["30".into(), "4".into()]],
        );
    }

    #[test]
    fn results_collect_and_serialize() {
        let mut results = BenchResults::new();
        results
            .experiment("fig13")
            .metric("send_gbps_8k", "Gbps", 31.5)
            .metric("send_gbps_64", "Gbps", 2.1);
        results.experiment("tab05").metric("mean_ms", "ms", 14.0);
        assert_eq!(results.experiments.len(), 2);
        assert_eq!(results.experiments[0].metrics.len(), 2);

        let json = results.to_json();
        assert!(json.contains("\"fig13\""));
        assert!(json.contains("\"send_gbps_8k\""));
        assert!(json.contains("\"Gbps\""));
        assert!(json.contains("\"tab05\""));
    }

    #[test]
    fn results_round_trip_to_disk() {
        let mut results = BenchResults::new();
        results
            .experiment("fig11")
            .metric("mnqes_b256", "M/s", 198.0);
        let path = std::env::temp_dir().join("nk_bench_results_test.json");
        let path = path.to_str().unwrap();
        results.write(path).unwrap();
        let text = std::fs::read_to_string(path).unwrap();
        assert!(text.contains("mnqes_b256"));
        let parsed: BenchResults = serde_json::from_str(&text).unwrap();
        assert_eq!(parsed, results, "written file parses back losslessly");
        let _ = std::fs::remove_file(path);
    }

    /// A partial re-run updates its own experiments in place and keeps the
    /// rest of the file — the accumulate-don't-clobber contract.
    #[test]
    fn writing_merges_with_the_previous_file() {
        let path = std::env::temp_dir().join("nk_bench_results_merge_test.json");
        let path = path.to_str().unwrap();
        let mut first = BenchResults::new();
        first.experiment("fig13").metric("gbps", "Gbps", 30.0);
        first.experiment("tab05").metric("mean_ms", "ms", 14.0);
        first.write(path).unwrap();

        let mut rerun = BenchResults::new();
        rerun.experiment("tab05").metric("mean_ms", "ms", 12.5);
        rerun.experiment("par01").metric("speedup", "x", 2.5);
        rerun.write(path).unwrap();

        let merged: BenchResults =
            serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names: Vec<&str> = merged.experiments.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(
            names,
            ["fig13", "tab05", "par01"],
            "prior entries keep their position, new ones append"
        );
        assert_eq!(merged.experiments[1].metrics[0].value, 12.5, "re-run wins");
        assert_eq!(merged.experiments[0].metrics[0].value, 30.0, "kept as-is");

        // An unparseable previous file is replaced, not appended to.
        std::fs::write(path, "not json").unwrap();
        rerun.write(path).unwrap();
        let replaced: BenchResults =
            serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(replaced, rerun);
        let _ = std::fs::remove_file(path);
    }

    /// A results file written by an older schema — fields missing, unknown
    /// keys present — must still merge: its experiments are kept (missing
    /// fields read as defaults), not silently dropped by a failed parse.
    #[test]
    fn writing_over_an_old_schema_file_keeps_its_experiments() {
        let path = std::env::temp_dir().join("nk_bench_results_stale_test.json");
        let path = path.to_str().unwrap();
        // Hand-written stale file: `unit` is missing from the metric,
        // `schema` and `host` are keys this version has never heard of.
        std::fs::write(
            path,
            r#"{
  "experiments": [
    {
      "name": "old01",
      "metrics": [
        { "label": "gbps", "value": 12.5, "host": "ci-runner-3" }
      ]
    }
  ],
  "schema": 0
}"#,
        )
        .unwrap();

        let mut rerun = BenchResults::new();
        rerun.experiment("new01").metric("speedup", "x", 2.5);
        rerun.write(path).unwrap();

        let merged: BenchResults =
            serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names: Vec<&str> = merged.experiments.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(
            names,
            ["old01", "new01"],
            "the old-schema experiment survives the merge"
        );
        assert_eq!(merged.experiments[0].metrics[0].label, "gbps");
        assert_eq!(merged.experiments[0].metrics[0].value, 12.5);
        assert_eq!(
            merged.experiments[0].metrics[0].unit, "",
            "a missing field reads as its default"
        );
        let _ = std::fs::remove_file(path);
    }
}
