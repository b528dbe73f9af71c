//! In-memory span recorder, written out as Chrome `trace_event` JSON.
//!
//! Spans are recorded by the benchmark around its calls into each layer:
//! name, start, end, parent span and the job they belong to, plus counts
//! taken at the same boundary. Nothing touches disk until
//! [`Tracer::write_chrome_trace`].

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id within the trace.
    pub id: u64,
    /// Enclosing span, if any.
    pub parent: Option<u64>,
    /// Job id shared by one job's spans.
    pub job: Option<u64>,
    /// `<module>.<call>` name.
    pub name: String,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Recording thread (small integer for the trace viewer).
    pub tid: u64,
    /// Counts recorded at this boundary.
    pub args: Vec<(String, f64)>,
}

/// Collects spans from any thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// An open span: call [`Tracer::end`] to record it.
#[derive(Debug)]
pub struct Open {
    /// The id children name as their parent.
    pub id: u64,
    parent: Option<u64>,
    job: Option<u64>,
    name: String,
    start: Instant,
    tid: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Open a span starting now.
    pub fn begin(&self, name: &str, parent: Option<u64>, job: Option<u64>, tid: u64) -> Open {
        self.begin_at(name, parent, job, tid, Instant::now())
    }

    /// Open a span that started at `start`.
    pub fn begin_at(
        &self,
        name: &str,
        parent: Option<u64>,
        job: Option<u64>,
        tid: u64,
        start: Instant,
    ) -> Open {
        Open {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            job,
            name: name.to_string(),
            start,
            tid,
        }
    }

    /// Close `open` now with the given counts.
    pub fn end(&self, open: Open, args: &[(&str, f64)]) {
        self.end_at(open, Instant::now(), args);
    }

    /// Close `open` at `end` with the given counts.
    pub fn end_at(&self, open: Open, end: Instant, args: &[(&str, f64)]) {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let span = Span {
            id: open.id,
            parent: open.parent,
            job: open.job,
            name: open.name,
            start_ns: ns(open.start),
            end_ns: ns(end),
            tid: open.tid,
            args: args.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        };
        self.spans.lock().expect("span store poisoned").push(span);
    }

    /// Every recorded span, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }

    /// Self time of each span: its duration minus the part its direct
    /// children cover, keyed by span id.
    pub fn self_times(&self) -> Vec<(u64, u64)> {
        let spans = self.spans();
        let mut covered: HashMap<u64, u64> = HashMap::new();
        for c in &spans {
            if let Some(p) = c.parent {
                *covered.entry(p).or_default() += c.end_ns.saturating_sub(c.start_ns);
            }
        }
        spans
            .iter()
            .map(|s| {
                let kids = covered.get(&s.id).copied().unwrap_or(0);
                (s.id, (s.end_ns - s.start_ns).saturating_sub(kids))
            })
            .collect()
    }

    /// Render every span as Chrome `trace_event` JSON (complete `X`
    /// events, microsecond timestamps).
    pub fn chrome_trace_json(&self) -> String {
        let spans = self.spans();
        let self_times = self.self_times();
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let _ = write!(
                out,
                "{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"span\":{}",
                json_str(&s.name),
                json_str(s.name.split('.').next().unwrap_or("")),
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.tid,
                s.id
            );
            if let Some(p) = s.parent {
                let _ = write!(out, ",\"parent\":{p}");
            }
            if let Some(j) = s.job {
                let _ = write!(out, ",\"job\":{j}");
            }
            let self_ns = self_times[i].1;
            let _ = write!(out, ",\"self_us\":{:.3}", self_ns as f64 / 1e3);
            for (k, v) in &s.args {
                let _ = write!(out, ",{}:{}", json_str(k), json_num(*v));
            }
            out.push_str("}}");
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }

    /// Write [`Tracer::chrome_trace_json`] to `path`.
    pub fn write_chrome_trace(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.chrome_trace_json())
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit of the value (non-finite values, which
/// JSON cannot carry, become 0).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_subtract_from_self_time() {
        let t = Tracer::new();
        let root = t.begin("a.root", None, Some(7), 0);
        let child = t.begin("b.child", Some(root.id), Some(7), 0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(child, &[("n", 3.0)]);
        let root_id = root.id;
        t.end(root, &[]);
        let spans = t.spans();
        let child_dur = spans[0].end_ns - spans[0].start_ns;
        let root_dur = spans[1].end_ns - spans[1].start_ns;
        let self_root = t
            .self_times()
            .into_iter()
            .find(|(id, _)| *id == root_id)
            .unwrap()
            .1;
        assert_eq!(self_root, root_dur - child_dur);
        let json = t.chrome_trace_json();
        assert!(json.contains("\"name\":\"b.child\""));
        assert!(json.contains("\"job\":7"));
        assert!(json.contains("\"n\":3"));
    }
}
