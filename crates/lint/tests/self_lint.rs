//! The linter lints its own tree: the real workspace must be at zero
//! unwaivered violations, with every rule actually exercised by the
//! loaded file set (so a green run means the rules ran, not that their
//! scopes were empty).

use std::path::Path;

use mq_lint::{lint, load_workspace};

fn repo_root() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn workspace_has_zero_unwaivered_violations() {
    let ws = load_workspace(&repo_root()).expect("workspace readable");
    let diags = lint(&ws);
    assert!(
        diags.is_empty(),
        "mq-lint violations in the real tree:\n{}",
        diags
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn workspace_walk_sees_the_interesting_files() {
    let ws = load_workspace(&repo_root()).expect("workspace readable");
    for expected in [
        "crates/service/src/net.rs",
        "crates/service/src/protocol.rs",
        "crates/service/src/session.rs",
        "crates/store/src/lock.rs",
        "crates/core/src/engine/parallel.rs",
        "src/bin/mq.rs",
    ] {
        assert!(
            ws.files.iter().any(|f| f.path == expected),
            "walk missed {expected}"
        );
    }
    // Fixtures must never leak into a real run.
    assert!(
        ws.files.iter().all(|f| !f.path.contains("/fixtures/")),
        "fixtures leaked into the workspace walk"
    );
    assert!(ws.check_completeness);
    assert!(ws.architecture_md.as_deref().is_some_and(|a| !a.is_empty()));
    assert!(ws.performance_md.as_deref().is_some_and(|p| !p.is_empty()));
}

#[test]
fn seeding_a_violation_into_the_real_tree_is_caught() {
    let mut ws = load_workspace(&repo_root()).expect("workspace readable");
    let file = ws
        .files
        .iter_mut()
        .find(|f| f.path == "crates/service/src/session.rs")
        .expect("session.rs present");
    file.text
        .push_str("\npub fn seeded(x: Option<u32>) -> u32 { x.unwrap() }\n");
    let line = file.text.lines().count();
    let diags = lint(&ws);
    assert!(
        diags.iter().any(|d| d.rule == "no-panic-in-serving"
            && d.path == "crates/service/src/session.rs"
            && d.line == line),
        "seeded violation not caught: {diags:?}"
    );
}

#[test]
fn seeding_an_unregistered_knob_into_the_docs_is_caught() {
    let mut ws = load_workspace(&repo_root()).expect("workspace readable");
    for doc in [&mut ws.architecture_md, &mut ws.performance_md] {
        doc.as_mut()
            .expect("doc loaded")
            .push_str("\nSet `MQ_NOT_A_KNOB=0` to turn it off.\n");
    }
    let arch_line = ws.architecture_md.as_deref().unwrap().lines().count();
    let perf_line = ws.performance_md.as_deref().unwrap().lines().count();
    let diags = lint(&ws);
    for (path, line) in [
        ("ARCHITECTURE.md", arch_line),
        ("PERFORMANCE.md", perf_line),
    ] {
        assert!(
            diags.iter().any(|d| d.rule == "knob-registry"
                && d.path == path
                && d.line == line
                && d.message.contains("`MQ_NOT_A_KNOB`")),
            "stale knob name in {path} not caught: {diags:?}"
        );
    }
}
