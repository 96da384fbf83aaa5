//! The WavePipe benchmark as a library, so that its own tests can read the
//! files the binary writes. `README.md` beside `Cargo.toml` is the manual.

pub mod compare;
pub mod json;
pub mod layers;
pub mod measure;
pub mod metrics;
pub mod stats;
pub mod trace;
pub mod workload;

use json::{obj, str, Json};

/// The part of `BENCHMARK.json` this program defines: workloads and metric
/// tables, in the contract's shape.
pub fn describe() -> Json {
    let workloads =
        workload::WORKLOADS.iter().map(|w| obj([("name", str(w.name)), ("why", str(w.why))]));
    let end_to_end = metrics::END_TO_END.iter().filter(|m| m.gated).map(|m| {
        obj([
            ("name", str(m.name)),
            ("unit", str(m.unit)),
            ("better", str(m.better.as_str())),
            ("bound", Json::Num(m.bound)),
        ])
    });
    let per_layer = metrics::PER_LAYER.iter().map(|m| {
        obj([("name", str(m.name)), ("unit", str(m.unit)), ("better", str(m.better.as_str()))])
    });
    obj([
        ("workloads", Json::Arr(workloads.collect())),
        ("end_to_end", Json::Arr(end_to_end.collect())),
        ("per_layer", Json::Arr(per_layer.collect())),
    ])
}
