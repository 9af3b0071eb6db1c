//! Records the compiler version and, when built from a git checkout, the
//! commit, so every result names the build it came from.

use std::path::Path;
use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=CMBENCH_RUSTC={version}");

    // Ask git only when the repository root itself is a checkout, so a
    // source tree unpacked inside some unrelated repository reports
    // "unknown" instead of that repository's commit.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let commit = if root.join(".git").exists() {
        Command::new("git")
            .arg("-C")
            .arg(&root)
            .args(["rev-parse", "HEAD"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map(|s| s.trim().to_owned())
    } else {
        None
    };
    println!(
        "cargo:rustc-env=CMBENCH_COMMIT={}",
        commit.unwrap_or_else(|| "unknown".into())
    );
    println!("cargo:rerun-if-changed=build.rs");
    // A missing path would make cargo rerun this script on every build.
    if root.join(".git/HEAD").exists() {
        println!("cargo:rerun-if-changed=../.git/HEAD");
    }
}
