//! Wall-clock spans recorded around the benchmark's calls into each layer.
//!
//! Spans stay in memory while the benchmark runs and are written out once
//! at exit. A disabled recorder records nothing, so the untraced
//! measurements pay one branch per call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    layer: &'static str,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    op: u64,
}

/// In-memory span recorder with an explicit parent stack.
pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Spans {
    /// A recorder; `enabled == false` makes every call a no-op.
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    /// Turns recording on or off for the calls that follow.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Sets the operation id stamped on spans opened from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, layer: &'static str, name: &'static str) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let end = self.now_ns();
        if let Some(i) = self.stack.pop() {
            self.spans[i].end_ns = end;
        }
    }

    /// Runs `f` inside a span.
    pub fn scope<R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> R {
        self.enter(layer, name);
        let r = f();
        self.exit();
        r
    }

    /// Self seconds per layer: each span's duration minus the part of it
    /// its child spans cover.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(c);
            *out.entry(s.layer).or_insert(0.0) += own as f64 * 1e-9;
        }
        out
    }

    /// Per-layer self-time table: layer, span count, self seconds, share.
    pub fn table(&self) -> String {
        let selfs = self.self_seconds();
        let total: f64 = selfs.values().sum();
        let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
        for s in &self.spans {
            *counts.entry(s.layer).or_insert(0) += 1;
        }
        let mut out = format!(
            "{:<8} {:>7} {:>11} {:>7}\n",
            "layer", "spans", "self_s", "share"
        );
        for (layer, secs) in &selfs {
            let share = if total > 0.0 { secs / total } else { 0.0 };
            let _ = writeln!(
                out,
                "{layer:<8} {:>7} {secs:>11.6} {:>6.1}%",
                counts[layer],
                share * 100.0
            );
        }
        out
    }

    /// Every span as one JSON document (`perfbench-spans/v1`).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"schema\":\"perfbench-spans/v1\",\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"id\":{i},\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
                 \"parent\":{parent},\"op\":{}}}",
                s.layer, s.name, s.start_ns, s.end_ns, s.op
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut s = Spans::new(true);
        s.enter("op", "outer");
        s.scope("graph", "inner", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        s.exit();
        let selfs = s.self_seconds();
        assert!(selfs["graph"] >= 0.005);
        assert!(selfs["op"] < selfs["graph"]);
        assert_eq!(s.spans[1].parent, Some(0));
    }

    #[test]
    fn disabled_records_nothing() {
        let mut s = Spans::new(false);
        s.scope("graph", "x", || ());
        assert!(s.spans.is_empty());
    }
}
