//! Helpers shared by the integration tests that drive the process-per-shard
//! campaign backend.

use std::path::PathBuf;
use std::sync::OnceLock;

/// Locate the `perfjson` worker binary next to this test binary
/// (`target/<profile>/deps/<test>-<hash>` → `target/<profile>/perfjson`).
///
/// The binary is (re)built once per test binary, always: a worker left over
/// from an older checkout computes plan fingerprints from an older
/// `Scenario`, and the supervisor would reject every artifact it writes as
/// stale. When the worker is already fresh the build is a no-op.
pub fn perfjson_bin() -> PathBuf {
    static BIN: OnceLock<PathBuf> = OnceLock::new();
    BIN.get_or_init(|| {
        let mut path = std::env::current_exe().expect("test binary path");
        path.pop(); // test binary file name
        if path.ends_with("deps") {
            path.pop();
        }
        path.push(format!("perfjson{}", std::env::consts::EXE_SUFFIX));
        let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
        let mut build = std::process::Command::new(cargo);
        build.args(["build", "-p", "greener-bench", "--bin", "perfjson"]);
        if path
            .parent()
            .is_some_and(|p| p.file_name().is_some_and(|n| n == "release"))
        {
            build.arg("--release");
        }
        let status = build.status().expect("spawn cargo build for perfjson");
        assert!(status.success(), "building perfjson worker binary failed");
        assert!(
            path.exists(),
            "perfjson worker binary not found at `{}`",
            path.display()
        );
        path
    })
    .clone()
}
