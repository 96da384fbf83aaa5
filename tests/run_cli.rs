//! `wavepipe run` end to end: the lines it prints and the CSV it writes.

use std::path::PathBuf;
use std::process::{Command, Output};

/// Runs `wavepipe run` with `flags` on the demo deck, its `.tran 5n 2u`
/// replaced by `tran`, in a fresh directory; returns the output and the
/// directory (which holds the deck as `demo.sp`).
fn run_demo(case: &str, tran: &str, flags: &[&str]) -> (Output, PathBuf) {
    let dir = std::env::temp_dir().join(format!("wavepipe_run_{case}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let demo = std::fs::read_to_string("examples/diode_clipper.sp").expect("demo deck");
    std::fs::write(dir.join("demo.sp"), demo.replace(".tran 5n 2u", tran)).expect("deck written");
    let out = Command::new(env!("CARGO_BIN_EXE_wavepipe"))
        .arg("run")
        .arg(dir.join("demo.sp"))
        .args(flags)
        .output()
        .expect("wavepipe starts");
    (out, dir)
}

#[test]
fn a_run_prints_the_width_that_ran_and_counts_and_writes_its_csv_from_tstart() {
    for (scheme, width, accept) in
        [("serial", "(serial x1)", false), ("backward", "(backward x2)", true)]
    {
        let flags = ["--scheme", scheme, "--threads", "2"];
        let (out, dir) = run_demo(scheme, ".tran 5n 2u 1u", &flags);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "{scheme}: {}", String::from_utf8_lossy(&out.stderr));
        assert!(
            stdout.contains(&format!("analysis: .tran 5.000e-9 2.000e-6 1.000e-6 {width}")),
            "{stdout}"
        );
        assert!(!stdout.contains("units"), "{stdout}");
        assert_eq!(stdout.contains("accept"), accept, "{stdout}");
        let csv = std::fs::read_to_string(dir.join("demo.sp.csv")).expect("csv written");
        let times: Vec<f64> =
            csv.lines().skip(1).map(|l| l.split(',').next().unwrap().parse().unwrap()).collect();
        assert!(times.len() > 10 && times[0] >= 1e-6 && times[0] < 1.05e-6, "{scheme}: {times:?}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn a_tstart_outside_zero_to_tstop_is_an_error_at_its_line() {
    for tstart in ["2u", "3u", "-1n"] {
        let (out, dir) = run_demo(tstart, &format!(".tran 5n 2u {tstart}"), &[]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{tstart}: {stderr}");
        assert!(stderr.contains("netlist line 8") && stderr.contains("tstart"), "{stderr}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn a_value_that_overflows_and_a_tran_that_is_not_positive_are_errors_at_their_line() {
    // (what replaces the demo's `.tran`, the line the error names, a word it
    // holds): a source at `1e400` used to reach Newton as an infinity, and
    // the `.tran` cases the engine named without a line.
    for (case, tran, line, word) in [
        ("tstep0", ".tran 0 1u", 8, "tstep"),
        ("tstop_inf", ".tran 1n 1e400", 8, "1e400"),
        ("source_inf", ".tran 5n 2u\nV2 big 0 DC 1e400", 9, "1e400"),
        ("scaled_inf", ".tran 5n 2u\nR2 big 0 1e300t", 9, "1e300t"),
    ] {
        let (out, dir) = run_demo(case, tran, &[]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{case}: {stderr}");
        assert!(stderr.contains(&format!("netlist line {line}")), "{case}: {stderr}");
        assert!(stderr.contains(word), "{case}: {stderr}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
