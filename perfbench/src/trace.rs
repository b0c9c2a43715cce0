//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only around calls the benchmark makes into the
//! layers' public functions. Each span has a name, start and end (ns
//! since the recorder was created), its parent span and the request id
//! it belongs to. Nothing is written until [`Tracer::write`] at exit.
//! A disabled recorder keeps nothing, so the untraced run pays one
//! branch per boundary.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

struct Span {
    name: String,
    req: u64,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// Handle of an open span, returned by [`Tracer::begin`].
#[must_use]
pub struct Open(Option<usize>);

/// Aggregated self time of every span with one name.
#[derive(Default, Clone, Copy)]
pub struct SelfTime {
    pub calls: u64,
    pub total_ns: u64,
}

impl SelfTime {
    pub fn mean_ms(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.calls as f64 / 1e6
        }
    }

    pub fn mean_us(&self) -> f64 {
        self.mean_ms() * 1e3
    }
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A recorder that starts disabled.
    pub fn new() -> Self {
        Self {
            enabled: false,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_enabled(&mut self, on: bool) {
        assert!(self.stack.is_empty(), "toggle tracing only between spans");
        self.enabled = on;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn begin(&mut self, name: &str, req: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            req,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    pub fn end(&mut self, open: Open) {
        self.end_as(open, None);
    }

    /// Close a span, renaming it when its name is only known after the
    /// call (e.g. the serving mode a response reports).
    pub fn end_as(&mut self, open: Open, rename: Option<&str>) {
        let Some(idx) = open.0 else { return };
        assert_eq!(self.stack.pop(), Some(idx), "spans must nest");
        let end = self.now_ns();
        let span = &mut self.spans[idx];
        span.end_ns = end;
        if let Some(name) = rename {
            span.name = name.to_string();
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &str, req: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        let open = self.begin(name, req);
        let out = f(self);
        self.end(open);
        out
    }

    /// Duration of the most recently closed span named `name`.
    pub fn last_ns(&self, name: &str) -> Option<u64> {
        self.spans
            .iter()
            .rev()
            .find(|s| s.name == name && s.end_ns > 0)
            .map(|s| s.end_ns - s.start_ns)
    }

    /// Per-name self time: each span's duration minus the time its
    /// direct children cover (children run inside their parent on the
    /// same thread, so they never overlap one another).
    pub fn self_times(&self) -> BTreeMap<String, SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<String, SelfTime> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let e = out.entry(s.name.clone()).or_default();
            e.calls += 1;
            e.total_ns += (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                w,
                "{{\"id\": {i}, \"name\": \"{}\", \"req\": {}, \"start_ns\": {}, \
                 \"end_ns\": {}, \"parent\": {}}}",
                s.name,
                s.req,
                s.start_ns,
                s.end_ns,
                s.parent
                    .map_or_else(|| "null".to_string(), |p| p.to_string())
            )?;
        }
        w.flush()
    }
}
