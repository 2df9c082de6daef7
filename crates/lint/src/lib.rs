//! Project-specific static analysis (`mm-lint`) for the Mind Mappings
//! workspace.
//!
//! The workspace carries three load-bearing contracts that `rustc` and
//! clippy cannot see:
//!
//! 1. **Determinism** — `canonical_string()` output is byte-exact across
//!    worker counts and runs, so identity-bearing code must never touch
//!    wall-clocks, process entropy, or unordered containers.
//! 2. **Telemetry gating** — telemetry is zero-cost when off: every call
//!    site pays exactly one relaxed atomic load before doing anything else.
//! 3. **Atomics / panic hygiene** — orderings are chosen (and commented)
//!    per handoff, never defaulted to `SeqCst`; library crates return
//!    errors instead of panicking.
//!
//! mm-lint walks every workspace source file with a small hand-rolled
//! lexer (no crates.io dependencies — the build is offline) and enforces
//! those contracts as named, allowlistable rules. It runs as a dev binary
//! (`cargo run -p mm-lint`) and inside the tier-1 test suite
//! (`crates/lint/tests/lint.rs`), so a violation fails `cargo test` the
//! same way a type error fails the build.

pub mod config;
pub mod lexer;
pub mod rules;

pub use config::Config;
pub use rules::{analyze_source, classify, finalize, FileAnalysis, FileKind, Rule, Violation};

use std::path::{Path, PathBuf};

/// Directory names the walker never descends into.
const SKIP_DIRS: [&str; 6] = ["target", "vendor", ".git", ".github", "fixtures", "corpus"];

/// Whether `dir` holds a `Cargo.toml` declaring its own `[workspace]`: a
/// nested workspace (such as the benchmark package) is a separate project,
/// outside this workspace's contracts, and the walker stops there as it
/// does at `vendor/`.
fn is_nested_workspace(dir: &Path) -> bool {
    std::fs::read_to_string(dir.join("Cargo.toml"))
        .is_ok_and(|manifest| manifest.lines().any(|line| line.trim() == "[workspace]"))
}

/// Collect every workspace `.rs` file under `root`, sorted by relative
/// path so output (and rule evaluation order) is deterministic. Nested
/// workspaces below `root` are skipped.
///
/// # Errors
///
/// Returns a message naming the directory that could not be read.
pub fn collect_sources(root: &Path) -> Result<Vec<PathBuf>, String> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let entries =
            std::fs::read_dir(&dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref())
                    && !name.starts_with('.')
                    && !is_nested_workspace(&path)
                {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Turn an absolute source path into the workspace-relative form rules and
/// `lint.toml` use (`/`-separated).
fn relative(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Lint every source file under `root` with `config`. Returns all
/// violations sorted by `(file, line, rule)`; empty means the tree is
/// clean.
///
/// # Errors
///
/// Returns a message when the tree cannot be walked or read, or when
/// `lint.toml` names an identity file that does not exist (a deleted or
/// renamed identity file must not silently drop out of the contract).
pub fn lint_workspace(root: &Path, config: &Config) -> Result<Vec<Violation>, String> {
    for listed in &config.identity_files {
        if !root.join(listed).is_file() {
            return Err(format!(
                "lint.toml [identity] lists `{listed}` but no such file exists — \
                 update the list when identity files move"
            ));
        }
    }
    let mut analyses = Vec::new();
    for path in collect_sources(root)? {
        let rel = relative(root, &path);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        analyses.push(analyze_source(&rel, &text, config));
    }
    Ok(finalize(analyses))
}

/// Load `lint.toml` from `root` (defaults when absent).
///
/// # Errors
///
/// Returns a message when the file exists but cannot be read or parsed.
pub fn load_config(root: &Path) -> Result<Config, String> {
    let path = root.join("lint.toml");
    if !path.is_file() {
        return Ok(Config::default());
    }
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Config::parse(&text)
}

/// Render violations as the human/CI report format.
pub fn render_report(violations: &[Violation]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for v in violations {
        let _ = writeln!(out, "{v}");
    }
    if violations.is_empty() {
        out.push_str("mm-lint: clean\n");
    } else {
        let mut by_rule: std::collections::BTreeMap<&str, usize> =
            std::collections::BTreeMap::new();
        for v in violations {
            *by_rule.entry(v.rule.name()).or_insert(0) += 1;
        }
        let breakdown: Vec<String> = by_rule
            .iter()
            .map(|(rule, n)| format!("{rule}: {n}"))
            .collect();
        let _ = writeln!(
            out,
            "mm-lint: {} violation(s) ({})",
            violations.len(),
            breakdown.join(", ")
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_paths_are_slash_separated() {
        let root = Path::new("/w");
        assert_eq!(
            relative(root, Path::new("/w/crates/core/src/lib.rs")),
            "crates/core/src/lib.rs"
        );
    }

    #[test]
    fn walker_skips_nested_workspaces_but_not_member_crates() {
        let root = std::env::temp_dir().join(format!("mm-lint-walk-{}", std::process::id()));
        let write = |rel: &str, text: &str| {
            let path = root.join(rel);
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(path, text).unwrap();
        };
        write("Cargo.toml", "[workspace]\nmembers = [\"member\"]\n");
        write("src/lib.rs", "");
        write("member/Cargo.toml", "[package]\nname = \"member\"\n");
        write("member/src/lib.rs", "");
        write(
            "bench/Cargo.toml",
            "[package]\nname = \"bench\"\n\n[workspace]\n",
        );
        write("bench/src/main.rs", "");
        let found: Vec<String> = collect_sources(&root)
            .unwrap()
            .iter()
            .map(|p| relative(&root, p))
            .collect();
        std::fs::remove_dir_all(&root).unwrap();
        assert_eq!(found, ["member/src/lib.rs", "src/lib.rs"]);
    }

    #[test]
    fn render_report_summarizes_by_rule() {
        let violations = vec![
            Violation {
                file: "a.rs".into(),
                line: 3,
                rule: Rule::Atomics,
                message: "`SeqCst` ordering in non-test code".into(),
                hint: "weaken it".into(),
            },
            Violation {
                file: "a.rs".into(),
                line: 9,
                rule: Rule::Atomics,
                message: "`static mut` item".into(),
                hint: "use an atomic".into(),
            },
        ];
        let report = render_report(&violations);
        assert!(report.contains("a.rs:3: [atomics]"));
        assert!(report.contains("2 violation(s) (atomics: 2)"));
        assert!(render_report(&[]).contains("clean"));
    }
}
