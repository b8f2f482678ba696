//! Outside-in span recording for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into the
//! simulator's public functions; nothing inside the engine is
//! instrumented. They stay in memory and are written out once, when
//! the run ends. A disabled tracer records nothing and never reads the
//! clock, so the untraced run pays nothing for it.

use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

/// One timed call: nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Position in the tracer's span list.
    pub id: usize,
    /// The span that caused this one.
    pub parent: Option<usize>,
    /// Layer-qualified name, e.g. `server.run_job`.
    pub name: &'static str,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name aggregate of the recorded spans.
#[derive(Debug, Clone, PartialEq)]
pub struct SelfTime {
    /// Span name.
    pub name: &'static str,
    /// Spans recorded under the name.
    pub count: usize,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed duration minus the time child spans cover, ns.
    pub self_ns: u64,
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records when `on`, and is inert otherwise.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the tracer started (0 when off).
    pub fn now(&self) -> u64 {
        if self.on {
            self.t0.elapsed().as_nanos() as u64
        } else {
            0
        }
    }

    /// Opens a span; close it with [`Tracer::close`]. Returns `None`
    /// when tracing is off.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> Option<usize> {
        let start = self.now();
        self.record(name, parent, start, start)
    }

    /// Ends a span opened with [`Tracer::open`].
    pub fn close(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.now();
        }
    }

    /// Records a span whose bounds were taken elsewhere (e.g. from a
    /// commit observer's timestamps).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
        });
        Some(id)
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64)
            .collect()
    }

    /// Self time per span name, in first-seen order: each span's
    /// duration minus the union of the intervals its children cover.
    pub fn self_times(&self) -> Vec<SelfTime> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut out: Vec<SelfTime> = Vec::new();
        for (s, kids) in self.spans.iter().zip(children.iter_mut()) {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            let i = match out.iter().position(|t| t.name == s.name) {
                Some(i) => i,
                None => {
                    out.push(SelfTime {
                        name: s.name,
                        count: 0,
                        total_ns: 0,
                        self_ns: 0,
                    });
                    out.len() - 1
                }
            };
            out[i].count += 1;
            out[i].total_ns += s.ns();
            out[i].self_ns += s.ns() - covered;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Propagates the file write failure.
    pub fn dump(&self, path: &Path) -> io::Result<()> {
        let mut doc = String::with_capacity(96 * self.spans.len());
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                doc,
                "{{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.name, s.start_ns, s.end_ns
            );
        }
        std::fs::write(path, doc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_child_intervals() {
        let mut t = Tracer::new(true);
        let root = t.record("root", None, 0, 100);
        t.record("kid", root, 10, 40);
        t.record("kid", root, 30, 50); // overlaps the first child
        t.record("kid", root, 90, 120); // runs past the parent's end
        let times = t.self_times();
        let root = times.iter().find(|s| s.name == "root").unwrap();
        assert_eq!(root.total_ns, 100);
        assert_eq!(root.self_ns, 100 - 40 - 10);
        let kid = times.iter().find(|s| s.name == "kid").unwrap();
        assert_eq!((kid.count, kid.total_ns, kid.self_ns), (3, 80, 80));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.open("x", None);
        t.close(id);
        assert!(id.is_none());
        assert!(t.spans().is_empty());
        assert_eq!(t.now(), 0);
    }
}
