//! Bench-side spans around the calls into each layer. Spans are held in
//! memory and written as Chrome-trace JSON only when the run ends, so
//! recording costs two clock reads and a push.

use crate::json::{obj, str, Json};
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// A span recorder. A disabled tracer records nothing, so the same code
/// runs the timed passes and the traced ones.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer { enabled, epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &str) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.open.push(self.spans.len());
        let parent = self.open.iter().rev().nth(1).copied();
        self.spans.push(Span { name: name.to_string(), parent, start_ns, end_ns: start_ns });
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        let id = self.open.pop().expect("exit without a matching enter");
        self.spans[id].end_ns = now;
    }

    /// Runs `f` inside a span and returns its value with the elapsed
    /// seconds; the clock is read whether or not the tracer records.
    pub fn timed<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        self.enter(name);
        let t0 = Instant::now();
        let out = f();
        let dt = t0.elapsed().as_secs_f64();
        self.exit();
        (out, dt)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Duration of span `id` minus the part its children cover.
    pub fn self_seconds(&self, id: usize) -> f64 {
        let children: f64 =
            self.spans.iter().filter(|s| s.parent == Some(id)).map(Span::seconds).sum();
        self.spans[id].seconds() - children
    }

    /// Chrome-trace document: one complete (`X`) event per span, with the
    /// span's id, parent id and self time in `args`.
    pub fn to_chrome(&self) -> Json {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let mut args = vec![
                    ("id", Json::Num(id as f64)),
                    ("self_us", Json::Num(self.self_seconds(id) * 1e6)),
                ];
                if let Some(p) = s.parent {
                    args.push(("parent", Json::Num(p as f64)));
                }
                obj([
                    ("name", str(&s.name)),
                    ("ph", str("X")),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(1.0)),
                    ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Json::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                    ("args", obj(args)),
                ])
            })
            .collect();
        obj([("traceEvents", Json::Arr(events)), ("displayTimeUnit", str("ms"))])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_sets_parents_and_self_time() {
        let mut t = Tracer::new(true);
        t.enter("pass");
        t.enter("job");
        t.timed("run", || std::thread::sleep(std::time::Duration::from_millis(2)));
        t.exit();
        t.enter("job");
        t.exit();
        t.exit();
        let names: Vec<_> = t.spans().iter().map(|s| (s.name.as_str(), s.parent)).collect();
        assert_eq!(names, [("pass", None), ("job", Some(0)), ("run", Some(1)), ("job", Some(0))]);
        assert!(t.spans()[2].seconds() >= 0.002);
        assert!(t.self_seconds(1) < t.spans()[1].seconds());
        assert!(t.self_seconds(0) >= 0.0);
    }

    #[test]
    fn disabled_tracer_still_times() {
        let mut t = Tracer::new(false);
        let (v, dt) = t.timed("x", || 7);
        assert_eq!(v, 7);
        assert!(dt >= 0.0);
        assert!(t.spans().is_empty());
    }
}
