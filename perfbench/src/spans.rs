//! Wall-clock spans the traced run records around its calls into each
//! layer. They stay in memory and are written out once, when the run
//! ends, as a Chrome trace-event file (loadable in Perfetto).

use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: Option<u64>,
    parent: Option<usize>,
    ops: u64,
}

/// An in-memory span log. Disabled logs record nothing.
pub struct Spans {
    t0: Instant,
    on: bool,
    spans: Vec<Span>,
}

/// Handle of an open span (`None` when the log is off).
pub type SpanId = Option<usize>;

impl Spans {
    #[must_use]
    pub fn new(on: bool) -> Spans {
        Spans {
            t0: Instant::now(),
            on,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens `name` under `parent`.
    pub fn open(&mut self, name: &'static str, parent: SpanId) -> SpanId {
        if !self.on {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: None,
            parent,
            ops: 0,
        });
        Some(self.spans.len() - 1)
    }

    /// Closes a span, recording how many operations it covered.
    pub fn close(&mut self, id: SpanId, ops: u64) {
        if let Some(i) = id {
            let end = self.now_ns();
            let s = &mut self.spans[i];
            s.end_ns = Some(end);
            s.ops = ops;
        }
    }

    /// Renders the closed spans as Chrome trace events (µs timestamps).
    #[must_use]
    pub fn render(&self, label: &str) -> String {
        let mut s = String::from("{\"traceEvents\":[");
        let _ = write!(
            s,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{{\"name\":\"{label}\"}}}}"
        );
        for (i, sp) in self.spans.iter().enumerate() {
            let Some(end) = sp.end_ns else { continue };
            let parent = sp.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                s,
                ",{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\"ops\":{}}}}}",
                sp.name,
                sp.start_ns as f64 / 1e3,
                (end - sp.start_ns) as f64 / 1e3,
                sp.ops
            );
        }
        s.push_str("]}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing_and_on_nests() {
        let mut off = Spans::new(false);
        let id = off.open("x", None);
        off.close(id, 1);
        assert!(id.is_none());
        assert!(!off.render("t").contains("\"X\""));

        let mut on = Spans::new(true);
        let outer = on.open("trial", None);
        let inner = on.open("exec", outer);
        on.close(inner, 5);
        on.close(outer, 5);
        let json = on.render("t");
        assert!(json.contains("\"name\":\"exec\""));
        assert!(json.contains("\"parent\":0"));
        assert!(json.contains("\"ops\":5"));
    }
}
