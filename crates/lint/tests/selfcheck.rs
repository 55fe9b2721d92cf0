//! The workspace self-check must pass. Running the `selfcheck` binary from
//! the test suite makes a designer-reachable `unwrap`/`expect`/`panic!`
//! (or any other SC finding) fail `cargo test`, not only the CI jobs that
//! invoke the binary directly.

use std::process::Command;

#[test]
fn workspace_selfcheck_is_clean() {
    let out = Command::new(env!("CARGO_BIN_EXE_selfcheck"))
        .output()
        .expect("run the selfcheck binary");
    assert!(
        out.status.success(),
        "selfcheck failed ({}):\n{}{}",
        out.status,
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}
