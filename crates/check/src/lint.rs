//! The project lint pass: project-invariant checks that `rustc` and
//! clippy cannot express, run as `srt-check lint` (and as a library
//! from the self-tests).
//!
//! # Rules
//!
//! * **`lock-unwrap`** — raw `.unwrap()` on a lock-acquisition result
//!   (`.lock()`, `.read()`, `.write()` and their `try_` forms) anywhere
//!   in the workspace. The project convention is poison tolerance:
//!   `unwrap_or_else(PoisonError::into_inner)` behind a blessed
//!   accessor, so one panicked holder can't cascade (PR 7's panic
//!   containment depends on it).
//! * **`kernels-libm`** — `.floor()` / `.ceil()` calls in
//!   `crates/dist/src/kernels.rs`. PR 6 proved the per-slot libm calls
//!   replaceable by integer casts; this keeps them from creeping back
//!   into the hot kernels. (Legitimate once-per-call-site uses go in
//!   the allowlist.)
//! * **`dist-clock`** — `Instant::now` / `SystemTime` in
//!   `crates/dist/src/`. The distribution algebra is pure compute; wall
//!   clocks in it would poison determinism and benches.
//! * **`path-deps`** — dependency hygiene in every `Cargo.toml`:
//!   registry version deps and `git` deps are forbidden (the vendoring
//!   policy — everything external lives under `vendor/`), and `path`
//!   deps must stay inside the repository.
//! * **`orphan-pub`** — a `pub fn NAME` in `crates/*/src` whose `NAME`
//!   appears as a whole word on no code line of any other `.rs` file of
//!   the tree (`srt_bench/`, `tests/` and `examples/` count as callers;
//!   a mention in a comment does not). Such a function is public API
//!   nobody calls: delete it, or make it private when its own file uses
//!   it.
//!
//! Comment lines (`//` in Rust, `#` in TOML) are never flagged, as is
//! anything under a `tests/fixtures` directory (that's where the lint
//! self-test plants deliberate violations) and build output under
//! `target/`.
//!
//! # Allowlist
//!
//! One suppression per line: `<rule> <path-substring> [line-fragment]`.
//! A violation is suppressed when the rule matches, the file path
//! contains the substring, and (when given) the offending line contains
//! the fragment — the fragment may contain spaces; it is the rest of
//! the line. `#` comments and blank lines are ignored.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::fs;
use std::io;
use std::path::{Component, Path, PathBuf};

/// One lint finding.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Rule identifier (`lock-unwrap`, `kernels-libm`, `dist-clock`,
    /// `path-deps`, `orphan-pub`).
    pub rule: &'static str,
    /// File path relative to the lint root, `/`-separated.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The offending line, trimmed.
    pub text: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.text
        )
    }
}

/// One allowlist suppression.
#[derive(Clone, Debug)]
pub struct AllowEntry {
    /// Rule the suppression applies to.
    pub rule: String,
    /// Substring the violation's file path must contain.
    pub path_substr: String,
    /// Optional substring the offending line must contain.
    pub fragment: Option<String>,
}

impl AllowEntry {
    fn suppresses(&self, v: &Violation) -> bool {
        self.rule == v.rule
            && v.file.contains(&self.path_substr)
            && self
                .fragment
                .as_ref()
                .is_none_or(|frag| v.text.contains(frag))
    }
}

/// Parses allowlist text (see the module docs for the format).
pub fn parse_allowlist(text: &str) -> Vec<AllowEntry> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let mut fields = l.split_whitespace();
            let rule = fields.next()?.to_string();
            let path_substr = fields.next()?.to_string();
            let rest: Vec<&str> = fields.collect();
            let fragment = if rest.is_empty() {
                None
            } else {
                Some(rest.join(" "))
            };
            Some(AllowEntry {
                rule,
                path_substr,
                fragment,
            })
        })
        .collect()
}

/// Loads and parses an allowlist file.
pub fn load_allowlist(path: &Path) -> io::Result<Vec<AllowEntry>> {
    Ok(parse_allowlist(&fs::read_to_string(path)?))
}

/// Runs every rule over the tree rooted at `root`, returning the
/// violations not suppressed by `allow`, sorted by path and line.
pub fn run_lint(root: &Path, allow: &[AllowEntry]) -> io::Result<Vec<Violation>> {
    let mut files = Vec::new();
    collect_files(root, &mut files)?;
    files.sort();

    let mut violations = Vec::new();
    let mut sources = Vec::new();
    for path in &files {
        let rel = rel_str(root, path);
        let Ok(content) = fs::read_to_string(path) else {
            continue; // non-UTF-8 (binary) files carry no lintable source
        };
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if name == "Cargo.toml" {
            lint_manifest(root, path, &rel, &content, &mut violations);
        } else if name.ends_with(".rs") {
            lint_rust(&rel, &content, &mut violations);
            sources.push((rel, content));
        }
    }
    lint_orphan_pub(&sources, &mut violations);
    violations.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    violations.retain(|v| !allow.iter().any(|a| a.suppresses(v)));
    Ok(violations)
}

/// Directories never descended into: build output, VCS metadata, and
/// the lint self-test's planted-violation fixtures.
fn skip_dir(name: &str) -> bool {
    name == "target" || name == ".git" || name == "fixtures" || name == "node_modules"
}

fn collect_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_str().unwrap_or("");
        if entry.file_type()?.is_dir() {
            if !skip_dir(name) {
                collect_files(&path, out)?;
            }
        } else if name == "Cargo.toml" || name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn rel_str(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// The lock-acquisition + raw-unwrap patterns. Assembled at runtime so
/// this file's own source never contains a contiguous match.
fn lock_unwrap_patterns() -> Vec<String> {
    let unwrap = String::from(".unw") + "rap()";
    ["lock", "read", "write", "try_lock", "try_read", "try_write"]
        .iter()
        .map(|m| format!(".{m}(){unwrap}"))
        .collect()
}

fn lint_rust(rel: &str, content: &str, out: &mut Vec<Violation>) {
    let lock_pats = lock_unwrap_patterns();
    let in_kernels = rel.ends_with("crates/dist/src/kernels.rs") || rel == "kernels.rs";
    let in_dist = rel.contains("crates/dist/src/") || rel.starts_with("dist/");
    for (i, raw) in content.lines().enumerate() {
        let line = raw.trim();
        if line.starts_with("//") {
            continue;
        }
        let push = |out: &mut Vec<Violation>, rule| {
            out.push(Violation {
                rule,
                file: rel.to_string(),
                line: i + 1,
                text: line.to_string(),
            })
        };
        if lock_pats.iter().any(|p| line.contains(p.as_str())) {
            push(out, "lock-unwrap");
        }
        if in_kernels && (line.contains(".floor()") || line.contains(".ceil()")) {
            push(out, "kernels-libm");
        }
        if in_dist && (line.contains("Instant::now") || line.contains("SystemTime")) {
            push(out, "dist-clock");
        }
    }
}

/// Flags every `pub fn` in `crates/*/src` whose name no code line of
/// another file in `sources` mentions as a whole word.
fn lint_orphan_pub(sources: &[(String, String)], out: &mut Vec<Violation>) {
    // For each identifier, the number of files whose code names it.
    let mut files_naming: HashMap<&str, usize> = HashMap::new();
    for (_, content) in sources {
        let code_words: HashSet<&str> = content
            .lines()
            .filter(|l| !l.trim_start().starts_with("//"))
            .flat_map(words)
            .collect();
        for word in code_words {
            *files_naming.entry(word).or_default() += 1;
        }
    }
    for (rel, content) in sources.iter().filter(|(rel, _)| is_crate_src(rel)) {
        for (i, raw) in content.lines().enumerate() {
            let line = raw.trim();
            let Some(name) = pub_fn_name(line) else {
                continue;
            };
            // The defining file is always one of the files naming it.
            if files_naming.get(name).copied().unwrap_or(0) <= 1 {
                out.push(Violation {
                    rule: "orphan-pub",
                    file: rel.clone(),
                    line: i + 1,
                    text: line.to_string(),
                });
            }
        }
    }
}

/// The identifier-shaped words of `text`.
fn words(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .filter(|w| !w.is_empty())
}

/// `NAME` of a `pub fn NAME` / `pub const fn NAME` line.
fn pub_fn_name(line: &str) -> Option<&str> {
    let rest = line.strip_prefix("pub ")?;
    let rest = rest.strip_prefix("const ").unwrap_or(rest);
    let rest = rest.strip_prefix("fn ")?;
    words(rest).next().filter(|name| rest.starts_with(name))
}

/// `crates/<name>/src/...`.
fn is_crate_src(rel: &str) -> bool {
    let mut parts = rel.split('/');
    parts.next() == Some("crates") && parts.next().is_some() && parts.next() == Some("src")
}

/// True when the header line opens a dependency table of any flavor
/// (`[dependencies]`, `[dev-dependencies]`, `[workspace.dependencies]`,
/// `[target.'cfg(..)'.dependencies]`, dotted single-dep forms).
fn is_dep_section(header: &str) -> bool {
    header.contains("dependencies")
}

fn lint_manifest(root: &Path, manifest: &Path, rel: &str, content: &str, out: &mut Vec<Violation>) {
    let manifest_dir = manifest.parent().unwrap_or(root);
    let mut in_deps = false;
    for (i, raw) in content.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line.starts_with('[') {
            in_deps = is_dep_section(line);
            continue;
        }
        if !in_deps {
            continue;
        }
        let push = |out: &mut Vec<Violation>| {
            out.push(Violation {
                rule: "path-deps",
                file: rel.to_string(),
                line: i + 1,
                text: line.to_string(),
            })
        };
        if line.contains("git =") || line.contains("git=") {
            push(out);
            continue;
        }
        if let Some(path_val) = quoted_value_after(line, "path") {
            if !path_stays_inside(root, manifest_dir, &path_val) {
                push(out);
            }
            continue;
        }
        if is_registry_dep(line) {
            push(out);
        }
    }
}

/// Extracts the first quoted string following `key =` on the line.
fn quoted_value_after(line: &str, key: &str) -> Option<String> {
    let at = line.find(&format!("{key} ")).or_else(|| {
        line.find(&format!("{key}="))
            .filter(|&p| p == 0 || !line.as_bytes()[p - 1].is_ascii_alphanumeric())
    })?;
    let rest = &line[at + key.len()..];
    let rest = rest.trim_start().strip_prefix('=')?.trim_start();
    let rest = rest.strip_prefix('"')?;
    let end = rest.find('"')?;
    Some(rest[..end].to_string())
}

/// Lexically resolves `path_val` against the manifest's directory and
/// checks it never escapes the lint root.
fn path_stays_inside(root: &Path, manifest_dir: &Path, path_val: &str) -> bool {
    let candidate = Path::new(path_val);
    if candidate.is_absolute() {
        return false;
    }
    // Depth of the manifest dir below root, then walk the dep path
    // lexically: `..` pops, anything else pushes.
    let mut depth: isize = manifest_dir
        .strip_prefix(root)
        .map(|p| p.components().count() as isize)
        .unwrap_or(0);
    for comp in candidate.components() {
        match comp {
            Component::ParentDir => {
                depth -= 1;
                if depth < 0 {
                    return false;
                }
            }
            Component::CurDir => {}
            _ => depth += 1,
        }
    }
    true
}

/// `name = "1.0"`-shaped registry dependency (quoted value that looks
/// like a semver requirement). `workspace = true`, `features = [..]`
/// and friends don't match; `version = ".."` inside a dotted dep table
/// does — which is the point.
fn is_registry_dep(line: &str) -> bool {
    let Some((key, value)) = line.split_once('=') else {
        return false;
    };
    let key = key.trim();
    if key.is_empty()
        || !key
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == '.')
    {
        return false;
    }
    let value = value.trim();
    // Inline tables are judged by their own `path`/`git`/`version`
    // contents (handled by the caller's earlier branches); a table with
    // none of those (e.g. `{ workspace = true }`) is clean.
    let Some(quoted) = value.strip_prefix('"') else {
        if value.starts_with('{') && value.contains("version") {
            return true;
        }
        return false;
    };
    matches!(
        quoted.chars().next(),
        Some(c) if c.is_ascii_digit() || "^~=<>*".contains(c)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allowlist_parses_rule_path_and_spaced_fragment() {
        let entries = parse_allowlist(
            "# comment\n\nkernels-libm kernels.rs (ratio - tol).ceil()\nlock-unwrap src/x.rs\n",
        );
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].rule, "kernels-libm");
        assert_eq!(entries[0].fragment.as_deref(), Some("(ratio - tol).ceil()"));
        assert!(entries[1].fragment.is_none());
    }

    #[test]
    fn registry_dep_shapes() {
        assert!(is_registry_dep("serde = \"1.0\""));
        assert!(is_registry_dep("rand = \"^0.8\""));
        assert!(is_registry_dep(
            "foo = { version = \"1\", default-features = false }"
        ));
        assert!(!is_registry_dep("srt-core.workspace = true"));
        assert!(!is_registry_dep("foo = { workspace = true }"));
        assert!(!is_registry_dep("features = [\"std\"]"));
        assert!(!is_registry_dep("optional = true"));
    }

    #[test]
    fn path_escape_detection() {
        let root = Path::new("/repo");
        let member = Path::new("/repo/crates/x");
        assert!(path_stays_inside(root, member, "../../vendor/dep"));
        assert!(path_stays_inside(root, member, "../other"));
        assert!(!path_stays_inside(root, member, "../../../elsewhere"));
        assert!(!path_stays_inside(root, member, "/abs/path"));
    }

    #[test]
    fn pub_fn_names_and_crate_sources() {
        assert_eq!(pub_fn_name("pub fn route(&self) -> u32 {"), Some("route"));
        assert_eq!(pub_fn_name("pub const fn len() -> usize {"), Some("len"));
        assert_eq!(pub_fn_name("pub fn into<T>(x: T) {"), Some("into"));
        assert_eq!(pub_fn_name("pub(crate) fn hidden() {"), None);
        assert_eq!(pub_fn_name("fn private() {"), None);
        assert_eq!(pub_fn_name("// pub fn commented() {"), None);
        assert!(is_crate_src("crates/core/src/routing/engine.rs"));
        assert!(!is_crate_src("crates/core/tests/proptest_routing.rs"));
        assert!(!is_crate_src("src/lib.rs"));
        assert!(!is_crate_src("srt_bench/src/layers.rs"));
    }

    #[test]
    fn quoted_value_extraction() {
        assert_eq!(
            quoted_value_after("srt-core = { path = \"crates/core\" }", "path").as_deref(),
            Some("crates/core")
        );
        assert_eq!(quoted_value_after("foo = \"1.0\"", "path"), None);
    }
}
