//! In-memory spans around the calls the traced run makes into each
//! layer. Spans live in the benchmark's own files (the program itself is
//! not instrumented); they are written to `benchmark/out/trace.json`
//! when the run ends.

use std::time::Instant;

use crate::json::Json;

/// One recorded call: which layer entry point, for which workload, when,
/// and under which enclosing span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub workload: String,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    workload: String,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(workload: &str) -> Self {
        Tracer {
            origin: Instant::now(),
            workload: workload.to_string(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Run `f` inside a span named `name`; returns its result and the
    /// span's duration in milliseconds.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        let id = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            workload: self.workload.clone(),
            start_us,
            end_us: start_us,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let value = f(self);
        let end_us = self.now_us();
        self.open.pop();
        self.spans[id].end_us = end_us;
        (value, (end_us - start_us) / 1e3)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// All spans as a JSON array, each with its self time.
    pub fn to_json(&self) -> Json {
        let selfs = self_times_us(&self.spans);
        Json::Arr(
            self.spans
                .iter()
                .zip(selfs)
                .enumerate()
                .map(|(id, (s, self_us))| {
                    Json::obj(vec![
                        ("id", Json::Int(id as i64)),
                        ("name", Json::str(s.name)),
                        ("workload", Json::str(s.workload.clone())),
                        ("start_us", Json::Num(s.start_us)),
                        ("end_us", Json::Num(s.end_us)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Int(p as i64)),
                        ),
                        ("self_us", Json::Num(self_us)),
                    ])
                })
                .collect(),
        )
    }
}

/// Self time per span: its duration minus the part of that interval its
/// direct children cover (children of one parent never overlap here:
/// spans are recorded on one thread).
pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let mut out: Vec<f64> = spans.iter().map(Span::duration_us).collect();
    for s in spans {
        if let Some(p) = s.parent {
            out[p] -= s.duration_us();
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_us: f64, end_us: f64, parent: Option<usize>) -> Span {
        Span {
            name: "t",
            workload: "w".into(),
            start_us,
            end_us,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // 0: [0,100]  1: [10,40] child of 0  2: [20,30] child of 1
        // 3: [50,90] child of 0
        let spans = vec![
            span(0.0, 100.0, None),
            span(10.0, 40.0, Some(0)),
            span(20.0, 30.0, Some(1)),
            span(50.0, 90.0, Some(0)),
        ];
        assert_eq!(self_times_us(&spans), vec![30.0, 20.0, 10.0, 40.0]);
    }

    #[test]
    fn tracer_nests_and_reports_parents() {
        let mut t = Tracer::new("w");
        let (v, outer_ms) = t.span("outer", |t| {
            let (_, inner_ms) = t.span("inner", |_| std::hint::black_box(3));
            assert!(inner_ms >= 0.0);
            7
        });
        assert_eq!(v, 7);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", None));
        assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
        assert!(spans[0].start_us <= spans[1].start_us && spans[1].end_us <= spans[0].end_us);
        assert!((spans[0].duration_us() / 1e3 - outer_ms).abs() < 1e-9);
        let selfs = self_times_us(spans);
        assert!(selfs[0] >= 0.0 && selfs[0] <= spans[0].duration_us());
    }
}
