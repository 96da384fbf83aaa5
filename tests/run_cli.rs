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
