//! In-memory span and counter recording for the traced run.
//!
//! Spans are taken from outside the program, around calls into each layer's
//! public functions. A disabled [`Tracer`] takes no clock readings and
//! keeps nothing, so the same replay code runs traced and untraced and the
//! difference between the two is the tracing overhead.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are seconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    /// Index of the enclosing span in [`Tracer::spans`].
    pub parent: Option<usize>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

/// Handle returned by [`Tracer::begin`]; pass it back to [`Tracer::end`].
#[must_use]
pub struct Open(Option<usize>);

/// Span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Option<Instant>,
    spans: Vec<Span>,
    stack: Vec<usize>,
    counts: BTreeMap<&'static str, u64>,
}

impl Tracer {
    /// A recording tracer.
    pub fn on() -> Self {
        Self {
            origin: Some(Instant::now()),
            spans: Vec::new(),
            stack: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self {
            origin: None,
            ..Self::on()
        }
    }

    pub fn enabled(&self) -> bool {
        self.origin.is_some()
    }

    fn now(&self) -> f64 {
        self.origin.map_or(0.0, |o| o.elapsed().as_secs_f64())
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled() {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.now(),
            end: f64::NAN,
            parent: self.stack.last().copied(),
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let now = self.now();
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end = now;
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name);
        let out = f();
        self.end(open);
        out
    }

    /// Adds `n` to counter `name` (a no-op when disabled).
    pub fn count(&mut self, name: &'static str, n: u64) {
        if self.enabled() {
            *self.counts.entry(name).or_default() += n;
        }
    }

    /// Moves `other`'s spans (as top-level trees) and counters into `self`.
    pub fn append(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            parent: s.parent.map(|p| p + offset),
            ..s
        }));
        for (name, n) in other.counts {
            *self.counts.entry(name).or_default() += n;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Summed duration of every span named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold(0.0, |acc, s| acc + s.secs())
    }

    /// Self time of every span: its duration minus the time its direct
    /// children cover.
    pub fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::secs).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.secs();
            }
        }
        own
    }

    /// Whether span `id` lies inside a span named `ancestor`.
    pub fn is_under(&self, mut id: usize, ancestor: &str) -> bool {
        while let Some(p) = self.spans[id].parent {
            if self.spans[p].name == ancestor {
                return true;
            }
            id = p;
        }
        false
    }

    /// Writes one JSON object per span (`id`, `name`, `start_s`, `end_s`,
    /// `parent`) followed by one per counter.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_s\":{},\"end_s\":{},\"parent\":{parent}}}",
                s.name, s.start, s.end
            )?;
        }
        for (name, n) in &self.counts {
            writeln!(out, "{{\"counter\":\"{name}\",\"value\":{n}}}")?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_and_self_time() {
        let mut t = Tracer::on();
        let outer = t.begin("outer");
        t.time("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end(outer);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.is_under(1, "outer"));
        let own = t.self_times();
        assert!(own[0] >= 0.0 && own[0] < t.spans()[0].secs());
        assert_eq!(own[1], t.spans()[1].secs());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        let open = t.begin("x");
        t.count("c", 3);
        t.end(open);
        assert!(t.spans().is_empty());
        assert_eq!(t.counter("c"), 0);
    }
}
