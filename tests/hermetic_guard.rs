//! Guards the workspace's zero-registry-dependency invariant.
//!
//! The build environment has no network access and an empty cargo
//! registry, so any `crates.io` dependency — however innocuous — breaks
//! `cargo build --offline` for everyone. This test fails the moment a
//! non-path dependency is introduced in any manifest, naming the
//! offending file and line so the fix is obvious. `ci/check.sh` runs the
//! same check from the shell before the build.

use std::path::{Path, PathBuf};

/// All manifests in the workspace: the root plus every `crates/*` member.
fn workspace_manifests() -> Vec<PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut manifests = vec![root.join("Cargo.toml")];
    let crates = root.join("crates");
    for entry in std::fs::read_dir(&crates).expect("crates/ exists") {
        let manifest = entry.expect("readable dir entry").path().join("Cargo.toml");
        if manifest.is_file() {
            manifests.push(manifest);
        }
    }
    assert!(manifests.len() > 5, "workspace member discovery is broken");
    manifests
}

/// True for `[dependencies]`, `[dev-dependencies]`, `[build-dependencies]`,
/// `[workspace.dependencies]` and target-specific variants.
fn is_dependency_section(header: &str) -> bool {
    let h = header.trim_matches(['[', ']']);
    h == "workspace.dependencies"
        || h.ends_with("dependencies") && !h.contains('.')
        || h.starts_with("target.") && h.ends_with("dependencies")
}

/// A dependency declaration is hermetic iff it resolves in-tree: either
/// `{ path = "..." }` or `{ workspace = true }` (the workspace table itself
/// only contains path entries, checked the same way).
fn is_hermetic(line: &str) -> bool {
    line.contains("path =")
        || line.contains("path=")
        || line.contains("workspace = true")
        || line.contains("workspace=true")
}

#[test]
fn no_registry_dependencies_anywhere() {
    let mut violations = Vec::new();
    for manifest in workspace_manifests() {
        let text = std::fs::read_to_string(&manifest)
            .unwrap_or_else(|e| panic!("read {}: {e}", manifest.display()));
        let mut in_dep_section = false;
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            if line.starts_with('[') {
                in_dep_section = is_dependency_section(line);
                continue;
            }
            if in_dep_section && line.contains('=') && !is_hermetic(line) {
                violations.push(format!("{}:{}: {}", manifest.display(), idx + 1, line));
            }
        }
    }
    assert!(
        violations.is_empty(),
        "registry (non-path) dependencies are banned in this workspace; \
         every dependency must be an in-tree path dependency.\n\
         Offending lines:\n  {}",
        violations.join("\n  ")
    );
}

#[test]
fn workspace_dependency_table_is_all_paths() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("Cargo.toml");
    let text = std::fs::read_to_string(root).expect("root manifest");
    let mut in_table = false;
    let mut entries = 0usize;
    for raw in text.lines() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.starts_with('[') {
            in_table = line == "[workspace.dependencies]";
            continue;
        }
        if in_table && line.contains('=') {
            entries += 1;
            assert!(
                line.contains("path ="),
                "workspace dependency must be a path dependency: {line}"
            );
        }
    }
    assert!(
        entries >= 14,
        "expected the in-tree crates in [workspace.dependencies]"
    );
}

#[test]
fn storage_crate_dependencies_are_frozen() {
    // The columnar storage refactor (typed buffers, bitmaps, dictionary
    // encoding) is std-only by design. The segment layer (PR 8) added the
    // in-tree observability crate (seal/spill/reload counters) and the
    // fault-injection substrate (crashed-spill and corrupted-reload
    // sites) — both std-only. Any entry beyond these three means the
    // storage layer grew a real dependency — revert it.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    assert_eq!(
        runtime_deps(&root.join("crates/microdata/Cargo.toml")),
        ["tdf-rngkit", "tdf-obs", "tdf-faultkit"],
        "the storage crate must depend only on in-tree std-only crates"
    );
}

/// Names of the `[dependencies]` entries of one manifest.
fn runtime_deps(manifest: &Path) -> Vec<String> {
    let text = std::fs::read_to_string(manifest)
        .unwrap_or_else(|e| panic!("read {}: {e}", manifest.display()));
    let mut in_deps = false;
    let mut deps = Vec::new();
    for raw in text.lines() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.starts_with('[') {
            in_deps = line == "[dependencies]";
            continue;
        }
        if in_deps && line.contains('=') {
            deps.push(
                line.split(['=', '.'])
                    .next()
                    .unwrap_or("")
                    .trim()
                    .to_string(),
            );
        }
    }
    deps
}

#[test]
fn par_crate_is_registered_and_its_dependencies_are_frozen() {
    // The fork/join substrate must stay in the workspace table, and its
    // runtime dependency set is frozen at exactly the in-tree
    // observability crate (steal counters and dispatch accounting): a new
    // entry here means std-only parallelism grew a dependency — revert it.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let table = std::fs::read_to_string(root.join("Cargo.toml")).expect("root manifest");
    assert!(
        table.contains("tdf-par = { path = \"crates/par\" }"),
        "tdf-par must be a [workspace.dependencies] path entry"
    );
    assert_eq!(
        runtime_deps(&root.join("crates/par/Cargo.toml")),
        ["tdf-obs", "tdf-faultkit"],
        "crates/par must depend only on the in-tree observability and \
         fault-injection crates"
    );
}

#[test]
fn faultkit_crate_is_registered_and_its_dependencies_are_frozen() {
    // The fault-injection substrate sits below every kernel crate, so a
    // dependency added here spreads workspace-wide. Its runtime set is
    // frozen at the observability crate (injected faults are counted)
    // and the dependency-free RNG kit (the one FNV-1a and splitmix64
    // definition the decision streams are keyed by); parsing and the
    // plan registry are std-only.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let table = std::fs::read_to_string(root.join("Cargo.toml")).expect("root manifest");
    assert!(
        table.contains("tdf-faultkit = { path = \"crates/faultkit\" }"),
        "tdf-faultkit must be a [workspace.dependencies] path entry"
    );
    assert_eq!(
        runtime_deps(&root.join("crates/faultkit/Cargo.toml")),
        ["tdf-obs", "tdf-rngkit"],
        "crates/faultkit must depend only on the in-tree observability and RNG crates"
    );
}

#[test]
fn serve_crate_is_registered_and_its_dependencies_are_frozen() {
    // The service front-end is the outward-facing surface of the
    // workspace; it must stay hermetic over std::net. Its runtime set is
    // frozen at the query engine, the dataset synthesisers, the in-tree
    // RNG, the executor (core sizing), observability and fault
    // injection — no protocol or async frameworks, ever.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let table = std::fs::read_to_string(root.join("Cargo.toml")).expect("root manifest");
    assert!(
        table.contains("tdf-serve = { path = \"crates/serve\" }"),
        "tdf-serve must be a [workspace.dependencies] path entry"
    );
    assert_eq!(
        runtime_deps(&root.join("crates/serve/Cargo.toml")),
        [
            "tdf-querydb",
            "tdf-microdata",
            "tdf-pir",
            "tdf-disguise",
            "tdf-rngkit",
            "tdf-par",
            "tdf-obs",
            "tdf-faultkit"
        ],
        "crates/serve must depend only on the in-tree privacy, PIR, RNG, \
         disguise, parallelism, observability and fault-injection crates"
    );
}

#[test]
fn disguise_crate_is_registered_and_its_dependencies_are_frozen() {
    // The disguise engine sits on the storage layer (datasets + the
    // shared FNV-framed codec idioms), the in-tree RNG (ghost identity
    // derivation), observability and fault injection — nothing else. In
    // particular it must NOT depend on the serve crate (the dependency
    // points the other way) or grow I/O frameworks: the WAL is std::fs.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let table = std::fs::read_to_string(root.join("Cargo.toml")).expect("root manifest");
    assert!(
        table.contains("tdf-disguise = { path = \"crates/disguise\" }"),
        "tdf-disguise must be a [workspace.dependencies] path entry"
    );
    assert_eq!(
        runtime_deps(&root.join("crates/disguise/Cargo.toml")),
        ["tdf-microdata", "tdf-rngkit", "tdf-obs", "tdf-faultkit"],
        "crates/disguise must depend only on the in-tree storage, RNG, \
         observability and fault-injection crates"
    );
}

#[test]
fn obs_crate_is_registered_and_dependency_free() {
    // Every kernel crate links the observability layer, so a dependency
    // added here would spread to the whole workspace. It must stay
    // std-only — and in the workspace table so the path-only check above
    // covers it.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let table = std::fs::read_to_string(root.join("Cargo.toml")).expect("root manifest");
    assert!(
        table.contains("tdf-obs = { path = \"crates/obs\" }"),
        "tdf-obs must be a [workspace.dependencies] path entry"
    );
    assert_eq!(
        runtime_deps(&root.join("crates/obs/Cargo.toml")),
        Vec::<String>::new(),
        "crates/obs must have no runtime dependencies"
    );
}
