//! In-memory span recorder for the traced run: name, start, end, parent span
//! and decision id per span. Spans are recorded from the benchmark's own
//! files, around the calls into each layer; nothing inside the crates is
//! instrumented.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub decision: u64,
}

/// Spans are entered from `&self` contexts too (the objective `Pald::step`
/// calls back into), so the recorder sits behind a mutex; the traced mirror
/// is single-threaded and the lock is never contended.
pub struct Recorder {
    epoch: Instant,
    inner: Mutex<Inner>,
}

struct Inner {
    enabled: bool,
    decision: u64,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

/// Handle of an open span; closing a disabled recorder's span does nothing.
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<u32>);

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            inner: Mutex::new(Inner {
                enabled: false,
                decision: 0,
                spans: Vec::new(),
                stack: Vec::new(),
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("span recorder lock: a traced call panicked")
    }

    pub fn set_enabled(&self, on: bool) {
        self.lock().enabled = on;
    }

    pub fn enabled(&self) -> bool {
        self.lock().enabled
    }

    /// Spans entered from now on belong to decision `id`.
    pub fn set_decision(&self, id: u64) {
        self.lock().decision = id;
    }

    pub fn enter(&self, name: &'static str) -> Open {
        let mut inner = self.lock();
        if !inner.enabled {
            return Open(None);
        }
        let id = inner.spans.len() as u32;
        let parent = inner.stack.last().copied();
        let decision = inner.decision;
        inner.stack.push(id);
        // The clock is read last on entry and first on exit, so the
        // recorder's own work falls outside the span.
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        inner.spans.push(Span { name, start_ns, end_ns: start_ns, parent, decision });
        Open(Some(id))
    }

    pub fn exit(&self, open: Open) {
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        let Some(id) = open.0 else { return };
        let mut inner = self.lock();
        inner.spans[id as usize].end_ns = end_ns;
        let top = inner.stack.pop();
        debug_assert_eq!(top, Some(id), "spans close in the order they opened");
    }

    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

/// Per span name: total self time (duration minus the children's durations)
/// in nanoseconds, and how many spans there were.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut children = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent as usize] += span.end_ns - span.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (span, child_ns) in spans.iter().zip(children) {
        let entry = out.entry(span.name).or_insert((0, 0));
        entry.0 += (span.end_ns - span.start_ns).saturating_sub(child_ns);
        entry.1 += 1;
    }
    out
}

/// The spans as a JSON array (written out when the traced run ends).
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96);
    out.push('[');
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"decision\":{}}}",
            s.name,
            s.start_ns,
            s.end_ns,
            s.parent.map_or_else(|| "null".to_string(), |p| p.to_string()),
            s.decision
        ));
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            Span { name: "root", start_ns: 0, end_ns: 100, parent: None, decision: 1 },
            Span { name: "child", start_ns: 10, end_ns: 40, parent: Some(0), decision: 1 },
            Span { name: "leaf", start_ns: 15, end_ns: 25, parent: Some(1), decision: 1 },
            Span { name: "child", start_ns: 50, end_ns: 70, parent: Some(0), decision: 1 },
        ];
        let t = self_times(&spans);
        assert_eq!(t["root"], (50, 1));
        assert_eq!(t["child"], (40, 2));
        assert_eq!(t["leaf"], (10, 1));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let rec = Recorder::new();
        let open = rec.enter("x");
        rec.exit(open);
        assert!(rec.spans().is_empty());
        rec.set_enabled(true);
        let outer = rec.enter("outer");
        let inner = rec.enter("inner");
        rec.exit(inner);
        rec.exit(outer);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
    }
}
