//! The `tables` and `figures` bins take `--small` and nothing else: any other
//! argument (such as the `--trace` they no longer have) is a usage error,
//! reported before any work and before any file is written.

use std::path::PathBuf;
use std::process::Command;

/// Runs `exe` with `args` in a fresh empty directory; returns the exit code,
/// standard error and whether the directory is still empty.
fn run_in_empty_dir(exe: &str, name: &str, args: &[&str]) -> (Option<i32>, String, bool) {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("wavepipe-bin-args-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let out = Command::new(exe).args(args).current_dir(&dir).output().expect("bin starts");
    let empty = std::fs::read_dir(&dir).expect("temp dir readable").next().is_none();
    std::fs::remove_dir_all(&dir).expect("temp dir removable");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned(), empty)
}

#[test]
fn tables_and_figures_refuse_an_unknown_argument_with_the_usage_code() {
    for (name, exe) in
        [("tables", env!("CARGO_BIN_EXE_tables")), ("figures", env!("CARGO_BIN_EXE_figures"))]
    {
        for args in [&["--small", "--trace", "x.trace"][..], &["--smal"], &["small"]] {
            let (code, stderr, empty) = run_in_empty_dir(exe, name, args);
            assert_eq!(code, Some(64), "{name} {args:?}: {stderr}");
            assert!(stderr.contains(&format!("usage: {name} [--small]")), "{name}: {stderr}");
            assert!(empty, "{name} {args:?} wrote a file before refusing");
        }
    }
}
