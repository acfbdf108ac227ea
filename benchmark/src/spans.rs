//! Harness-side spans: `{name, start_ns, end_ns, parent, op_id}` recorded
//! around every call the harness makes into the program, kept in memory and
//! written out when the run ends. Tracing inside the program is a later
//! issue; these spans see each layer from outside only.

use std::collections::BTreeMap;
use std::time::Instant;

use serde_json::{json, Value};

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub op_id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name totals: how often, how long, and how long excluding children.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

#[derive(Debug)]
pub struct Spans {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Spans {
    /// A recorder that drops everything (end-to-end runs).
    pub fn off() -> Self {
        Self::new(false)
    }

    pub fn on() -> Self {
        Self::new(true)
    }

    fn new(on: bool) -> Self {
        Spans {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one. Pair with [`Spans::exit`].
    pub fn enter(&mut self, name: &'static str, op_id: u64) {
        if !self.on {
            return;
        }
        let idx = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op_id,
        });
        self.open.push(idx);
    }

    /// Closes the innermost open span and returns its duration.
    pub fn exit(&mut self) -> u64 {
        if !self.on {
            return 0;
        }
        let end_ns = self.now_ns();
        let idx = self.open.pop().expect("exit without a matching enter") as usize;
        self.spans[idx].end_ns = end_ns;
        self.spans[idx].duration_ns()
    }

    pub fn durations_ns(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .collect()
    }

    /// A layer's self time is its span's duration minus the part its child
    /// spans cover.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.duration_ns();
            }
        }
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.duration_ns();
            t.self_ns += s.duration_ns().saturating_sub(children);
        }
        out
    }

    /// Totals for every name plus the first `cap` raw spans.
    pub fn to_json(&self, cap: usize) -> Value {
        let totals: Vec<Value> = self
            .totals()
            .into_iter()
            .map(|(name, t)| {
                json!({"name": name, "count": t.count, "total_ns": t.total_ns, "self_ns": t.self_ns})
            })
            .collect();
        let raw: Vec<Value> = self
            .spans
            .iter()
            .take(cap)
            .map(|s| {
                json!({
                    "name": s.name,
                    "start_ns": s.start_ns,
                    "end_ns": s.end_ns,
                    "parent": s.parent,
                    "op_id": s.op_id,
                })
            })
            .collect();
        json!({"recorded": self.spans.len(), "totals": totals, "spans": raw})
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut s = Spans::on();
        s.enter("op", 7);
        s.enter("child", 7);
        std::thread::sleep(std::time::Duration::from_millis(2));
        s.exit();
        s.enter("child", 7);
        s.exit();
        let op_ns = s.exit();
        let t = s.totals();
        assert_eq!(t["op"].count, 1);
        assert_eq!(t["child"].count, 2);
        assert_eq!(t["op"].total_ns, op_ns);
        assert_eq!(t["op"].self_ns, op_ns - t["child"].total_ns);
        assert!(t["child"].total_ns >= 2_000_000);
        assert_eq!(t["child"].self_ns, t["child"].total_ns);
        assert_eq!(s.spans[1].parent, Some(0));
        assert_eq!(s.spans[1].op_id, 7);
    }

    #[test]
    fn off_records_nothing() {
        let mut s = Spans::off();
        s.enter("op", 0);
        assert_eq!(s.exit(), 0);
        assert!(s.totals().is_empty());
    }
}
