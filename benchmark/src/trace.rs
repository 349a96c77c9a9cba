//! The benchmark's own spans, recorded around each call into a layer.
//!
//! Spans live in a pre-allocated `Vec` and are written out as JSON lines
//! when the run ends; nothing is formatted or allocated between `enter` and
//! `exit`. A disabled tracer does not read the clock, so the untraced phase
//! pays one branch per call site.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. `round` and `pos` (the delta's position in the
/// interactive cycle, where there is one) identify the request it belongs
/// to; `parent` indexes the span that caused it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub round: u32,
    pub pos: Option<u8>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans on one thread.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    enabled: bool,
    round: u32,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn disabled() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            enabled: false,
            round: 0,
        }
    }

    /// A recording tracer with room for `capacity` spans; recording more
    /// than that reallocates inside a span, which the capacity is chosen to
    /// avoid.
    pub fn recording(capacity: usize) -> Self {
        Tracer {
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(8),
            enabled: true,
            ..Tracer::disabled()
        }
    }

    /// Sets the round stamped on spans opened from now on.
    pub fn set_round(&mut self, round: u32) {
        self.round = round;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, pos: Option<u8>) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            round: self.round,
            pos,
        });
        self.open.push(id);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let id = self.open.pop().expect("exit without a matching enter");
        self.spans[id as usize].end_ns = end_ns;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as JSON lines: `{name, start_ns, end_ns, parent,
    /// trace}` with `trace` = `r<round>` or `r<round>.p<position>`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for span in &self.spans {
            let parent = match span.parent {
                Some(p) => p.to_string(),
                None => "null".to_string(),
            };
            let trace = match span.pos {
                Some(pos) => format!("r{}.p{pos}", span.round),
                None => format!("r{}", span.round),
            };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"trace\":\"{trace}\"}}",
                span.name, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time per span: its duration minus the part its direct children
/// cover. Children of one parent never overlap (one thread), so that part is
/// the sum of their durations.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent as usize] -= span.duration_ns();
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            round: 0,
            pos: None,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = vec![
            span("round", 0, 100, None),
            span("apply_visible", 10, 90, Some(0)),
            span("serve.submit", 10, 20, Some(1)),
            span("serve.step", 20, 80, Some(1)),
            span("serve.read", 80, 85, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 5, 10, 60, 5]);
    }

    #[test]
    fn tracer_nests_stamps_and_writes_jsonl() {
        let mut tracer = Tracer::recording(8);
        tracer.set_round(3);
        tracer.enter("apply_visible", Some(2));
        tracer.enter("serve.step", Some(2));
        tracer.exit();
        tracer.exit();
        tracer.enter("bulk_batch", None);
        tracer.exit();
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, None);
        assert!(spans[0].start_ns <= spans[1].start_ns);
        assert!(spans[1].end_ns <= spans[0].end_ns);
        assert_eq!((spans[0].round, spans[0].pos), (3, Some(2)));

        let dir = crate::workload::out_dir().join(format!("trace-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.jsonl");
        tracer.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("{\"name\":\"apply_visible\",\"start_ns\":"));
        assert!(lines[0].ends_with("\"parent\":null,\"trace\":\"r3.p2\"}"));
        assert!(lines[1].ends_with("\"parent\":0,\"trace\":\"r3.p2\"}"));
        assert!(lines[2].ends_with("\"parent\":null,\"trace\":\"r3\"}"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::disabled();
        tracer.enter("x", None);
        tracer.exit();
        assert!(tracer.spans().is_empty());
    }
}
