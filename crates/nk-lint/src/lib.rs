//! nk-lint: the workspace determinism & layering linter.
//!
//! Every guarantee this reproduction makes — byte-identical digests, stats,
//! control logs and `ObsDump`s at any thread count — rests
//! on coding invariants that no compiler checks: no hash-ordered iteration
//! in the datapath, no ambient wall-clock or randomness, cross-shard
//! traffic only over the wait-free SPSC uplinks, locks kept out of
//! shard-executed code, `unsafe` always audited, and a strict crate
//! layering. This crate mechanizes that audit as six rule passes over a
//! pure-Rust token stream (no `syn`, no dependencies at all) plus a CLI:
//!
//! ```text
//! cargo run -p nk-lint -- check [--json] [--root PATH] [--baseline PATH]
//! ```
//!
//! Exit codes: `0` clean, `1` violations found, `2` internal error
//! (unreadable file, malformed baseline, not a workspace).
//!
//! See [`rules`] for the rule table, [`layering`] for the declared crate
//! DAG, and [`baseline`] for the accepted-findings workflow.

pub mod baseline;
pub mod json;
pub mod layering;
pub mod lex;
pub mod rules;
pub mod workspace;

use baseline::Baseline;
use json::esc;
use rules::{Finding, UnsafeSite};
use std::path::{Path, PathBuf};
use workspace::LintError;

/// Linter invocation options.
#[derive(Debug, Default)]
pub struct Options {
    /// Workspace root. Defaults (in the CLI) to the nearest enclosing
    /// directory whose `Cargo.toml` declares `[workspace]`.
    pub root: PathBuf,
    /// Baseline path override; defaults to `<root>/lint-baseline.json`.
    /// The default is optional (missing → empty baseline); an explicit
    /// override must exist.
    pub baseline: Option<PathBuf>,
}

/// The result of a lint run.
#[derive(Debug, Default)]
pub struct Report {
    /// New findings (not covered by the baseline), sorted by (file, line,
    /// rule).
    pub findings: Vec<Finding>,
    /// Findings suppressed by the baseline.
    pub baselined: Vec<Finding>,
    /// Every `unsafe` occurrence in the workspace.
    pub unsafe_inventory: Vec<UnsafeSite>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Number of crates scanned.
    pub crates_scanned: usize,
}

/// Run every rule over the workspace at `opts.root`.
pub fn run_check(opts: &Options) -> Result<Report, LintError> {
    let root = &opts.root;
    let crates = workspace::discover(root)?;

    let mut findings = Vec::new();
    let mut inventory = Vec::new();
    let mut files_scanned = 0usize;

    for krate in &crates {
        layering::check_layering(
            &krate.name,
            &krate.manifest_rel,
            &krate.manifest_text,
            &mut findings,
        );
        for rel in &krate.rs_files {
            let path = root.join(rel);
            let src = std::fs::read_to_string(&path)
                .map_err(|e| LintError(format!("cannot read {}: {e}", path.display())))?;
            let file = lex::tokenize(rel, &src);
            rules::run_all(&krate.name, &file, &mut findings, &mut inventory);
            files_scanned += 1;
        }
    }

    findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    inventory.sort_by(|a, b| (a.file.as_str(), a.line).cmp(&(b.file.as_str(), b.line)));

    let baseline = load_baseline(opts)?;
    let (baselined, fresh): (Vec<Finding>, Vec<Finding>) =
        findings.into_iter().partition(|f| baseline.covers(f));

    Ok(Report {
        findings: fresh,
        baselined,
        unsafe_inventory: inventory,
        files_scanned,
        crates_scanned: crates.len(),
    })
}

fn load_baseline(opts: &Options) -> Result<Baseline, LintError> {
    let (path, required) = match &opts.baseline {
        Some(p) => (p.clone(), true),
        None => (opts.root.join("lint-baseline.json"), false),
    };
    if !path.exists() {
        if required {
            return Err(LintError(format!(
                "baseline {} does not exist",
                path.display()
            )));
        }
        return Ok(Baseline::default());
    }
    let text = std::fs::read_to_string(&path)
        .map_err(|e| LintError(format!("cannot read baseline {}: {e}", path.display())))?;
    baseline::parse_baseline(&text).map_err(|e| LintError(format!("{}: {e}", path.display())))
}

/// Write `findings` (typically `report.findings` + `report.baselined`) as a
/// baseline document at `path`.
pub fn write_baseline(path: &Path, findings: &[Finding]) -> Result<(), LintError> {
    std::fs::write(path, baseline::render_baseline(findings))
        .map_err(|e| LintError(format!("cannot write baseline {}: {e}", path.display())))
}

/// Render the machine-readable report (findings + unsafe inventory).
pub fn render_json(report: &Report) -> String {
    let mut out = String::from("{\n  \"schema\": 1,\n");
    out.push_str(&format!(
        "  \"summary\": {{\"crates\": {}, \"files\": {}, \"findings\": {}, \"baselined\": {}, \"unsafe_sites\": {}}},\n",
        report.crates_scanned,
        report.files_scanned,
        report.findings.len(),
        report.baselined.len(),
        report.unsafe_inventory.len()
    ));
    for (name, list) in [
        ("findings", &report.findings),
        ("baselined", &report.baselined),
    ] {
        out.push_str(&format!("  \"{name}\": ["));
        for (i, f) in list.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"key\": \"{}\", \"message\": \"{}\", \"hint\": \"{}\"}}",
                esc(f.rule),
                esc(&f.file),
                f.line,
                esc(&f.key),
                esc(&f.message),
                esc(&f.hint)
            ));
        }
        out.push_str(if list.is_empty() { "],\n" } else { "\n  ],\n" });
    }
    out.push_str("  \"unsafe_inventory\": [");
    for (i, s) in report.unsafe_inventory.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"file\": \"{}\", \"line\": {}, \"kind\": \"{}\", \"has_safety\": {}}}",
            esc(&s.file),
            s.line,
            esc(&s.kind),
            s.has_safety
        ));
    }
    out.push_str(if report.unsafe_inventory.is_empty() {
        "]\n}\n"
    } else {
        "\n  ]\n}\n"
    });
    out
}

/// Render the human-readable report.
pub fn render_text(report: &Report) -> String {
    let mut out = String::new();
    for f in &report.findings {
        out.push_str(&format!(
            "{}:{}: [{}] {}\n    fix: {}\n",
            f.file, f.line, f.rule, f.message, f.hint
        ));
    }
    let audited = report
        .unsafe_inventory
        .iter()
        .filter(|s| s.has_safety)
        .count();
    out.push_str(&format!(
        "nk-lint: {} crates, {} files scanned; {} finding(s), {} baselined; \
         {}/{} unsafe sites audited\n",
        report.crates_scanned,
        report.files_scanned,
        report.findings.len(),
        report.baselined.len(),
        audited,
        report.unsafe_inventory.len()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_report_parses_back() {
        let report = Report {
            findings: vec![Finding {
                rule: "hash-order",
                file: "a.rs".to_string(),
                line: 3,
                message: "`HashMap` is banned here".to_string(),
                hint: "use \"BTreeMap\"".to_string(),
                key: "HashMap#0".to_string(),
            }],
            baselined: Vec::new(),
            unsafe_inventory: vec![UnsafeSite {
                file: "b.rs".to_string(),
                line: 9,
                kind: "block".to_string(),
                has_safety: true,
            }],
            files_scanned: 2,
            crates_scanned: 1,
        };
        let doc = json::parse(&render_json(&report)).unwrap();
        let findings = doc.get("findings").unwrap().as_arr().unwrap();
        assert_eq!(findings.len(), 1);
        assert_eq!(
            findings[0].get("rule").unwrap().as_str(),
            Some("hash-order")
        );
        let inv = doc.get("unsafe_inventory").unwrap().as_arr().unwrap();
        assert_eq!(inv[0].get("has_safety"), Some(&json::Value::Bool(true)));
    }
}
