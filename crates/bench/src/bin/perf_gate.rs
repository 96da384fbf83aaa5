//! `perf-gate` — CI performance-regression gate. Compares the freshly
//! emitted `BENCH_*.json` documents of [`MANIFEST`] against the committed
//! baselines on their ratio-type metrics (speedups), prints a delta table,
//! and exits non-zero when any metric regressed beyond the tolerance.
//!
//! Usage, with one flag pair per manifest row (`newton`, `sweep`, `solver`):
//!
//! ```text
//! perf-gate --<stem>-baseline <file> --<stem>-fresh <file> ... [--tolerance 0.15]
//! ```

use wavepipe_bench::perfgate::{gate, MANIFEST};

fn fail(msg: String) -> ! {
    eprintln!("perf-gate: {msg}");
    std::process::exit(2);
}

fn main() {
    let mut args = std::env::args().skip(1);
    // Per manifest row: the (baseline, fresh) paths named on the command line.
    let mut paths: Vec<[Option<String>; 2]> = vec![[None, None]; MANIFEST.len()];
    let mut tolerance = None;
    while let Some(a) = args.next() {
        if a == "--tolerance" {
            match args.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(t) => tolerance = Some(t),
                None => fail("--tolerance needs a number like 0.15".to_string()),
            }
            continue;
        }
        let slot = MANIFEST.iter().zip(&mut paths).find_map(|(s, p)| {
            let side = a.strip_prefix("--")?.strip_prefix(s.stem)?;
            match side {
                "-baseline" => Some(&mut p[0]),
                "-fresh" => Some(&mut p[1]),
                _ => None,
            }
        });
        match slot {
            Some(slot) => *slot = args.next(),
            None => fail(format!("unknown argument `{a}`")),
        }
    }
    let docs: Vec<(String, String)> = MANIFEST
        .iter()
        .zip(paths)
        .map(|(s, [baseline, fresh])| {
            let read = |side: &str, path: Option<String>| {
                let path = path.unwrap_or_else(|| {
                    fail(format!("missing required flag --{}-{side} <file>", s.stem))
                });
                std::fs::read_to_string(&path)
                    .unwrap_or_else(|e| fail(format!("cannot read {} {side} {path}: {e}", s.stem)))
            };
            (read("baseline", baseline), read("fresh", fresh))
        })
        .collect();

    match gate(MANIFEST, &docs, tolerance) {
        Ok(report) => {
            print!("{}", report.table());
            if report.passed() {
                println!("perf gate: PASS");
            } else {
                println!("perf gate: FAIL ({} regressed metrics)", report.failures().len());
                std::process::exit(1);
            }
        }
        Err(msg) => {
            eprintln!("perf-gate: {msg}");
            std::process::exit(1);
        }
    }
}
