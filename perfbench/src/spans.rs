//! In-memory spans recorded by the benchmark around its calls into the
//! workspace crates, written out once at the end of a traced run.

use std::time::Instant;

use serde::Value;

/// One timed call. Times are nanoseconds since the recorder's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// Request id shared by every span of one request (`0` for spans
    /// that belong to no request).
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A single-threaded span recorder with a fixed time origin; recorders
/// sharing an origin can be merged.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(origin: Instant) -> Self {
        Self { origin, spans: Vec::new() }
    }

    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span and returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        let span = Span { name, start_ns: self.ns(start), end_ns: self.ns(end), parent, request };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Opens a span whose end is set by [`Recorder::close`]; children
    /// recorded in between name it as their parent.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.record(name, now, now, parent, 0)
    }

    pub fn close(&mut self, idx: usize) {
        self.spans[idx].end_ns = self.ns(Instant::now());
    }

    /// Times `f` as a child span of `parent`.
    pub fn time<R>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.record(name, start, Instant::now(), Some(parent), 0);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Moves `other`'s spans in, re-basing its parent indices.
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Summed duration of every span called `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.duration_ns() as f64 * 1e-9).sum()
    }

    /// The spans as a JSON array, with each span's self time.
    pub fn to_json(&self) -> String {
        let spans = self
            .spans
            .iter()
            .zip(self_times(&self.spans))
            .enumerate()
            .map(|(i, (s, own))| {
                let parent = s.parent.map_or(Value::Null, |p| Value::U64(p as u64));
                Value::Map(vec![
                    ("id".to_string(), Value::U64(i as u64)),
                    ("name".to_string(), Value::Str(s.name.to_string())),
                    ("start_ns".to_string(), Value::U64(s.start_ns)),
                    ("end_ns".to_string(), Value::U64(s.end_ns)),
                    ("parent".to_string(), parent),
                    ("request".to_string(), Value::U64(s.request)),
                    ("self_ns".to_string(), Value::U64(own)),
                ])
            })
            .collect();
        serde_json::to_string(&Value::Seq(spans)).expect("JSON of a value tree")
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that the union of its children's intervals covers.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name: "s", start_ns, end_ns, parent, request: 0 }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0, 100, None),     // root
            span(10, 30, Some(0)),  // child
            span(20, 50, Some(0)),  // child overlapping the first
            span(90, 120, Some(0)), // child running past the root's end
            span(12, 18, Some(1)),  // grandchild: not the root's child
            span(60, 70, None),     // unrelated root
        ];
        // Root: children cover [10, 50) and [90, 100) = 50 of 100.
        assert_eq!(self_times(&spans), vec![50, 14, 30, 30, 6, 10]);
    }

    #[test]
    fn absorb_rebases_parents() {
        let origin = Instant::now();
        let mut a = Recorder::new(origin);
        let root = a.open("root", None);
        a.close(root);
        let mut b = Recorder::new(origin);
        let r = b.open("other", None);
        b.time("child", r, || ());
        b.close(r);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert!(a.to_json().contains("\"name\":\"child\""));
    }
}
