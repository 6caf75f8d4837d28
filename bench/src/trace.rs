//! Spans kept in memory during a traced run and written out when it
//! ends: one per client request (tagged with its cache class and the
//! node that answered), one per registry entry, one per layer of the
//! layer pass, all under a root span per phase.

use std::fmt::Write as _;
use std::path::Path;

use crate::json::quote;

/// Request spans kept per load lane; later requests are counted, not kept.
pub const MAX_LANE_SPANS: usize = 200_000;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    pub name: String,
    /// Nanoseconds since the run began.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Cache class of a request span (`hit`, `disk`, `miss`, `healthz`,
    /// `metrics`, `error`), empty otherwise.
    pub class: &'static str,
    /// The node that answered a request, when it said.
    pub node: String,
}

#[derive(Debug, Default)]
pub struct Trace {
    spans: Vec<Span>,
    /// Spans not kept because a lane hit [`MAX_LANE_SPANS`].
    pub dropped: u64,
}

impl Trace {
    /// Record a span and return its id.
    pub fn add(
        &mut self,
        parent: u64,
        name: impl Into<String>,
        start_ns: u64,
        end_ns: u64,
        class: &'static str,
        node: impl Into<String>,
    ) -> u64 {
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            id,
            parent,
            name: name.into(),
            start_ns,
            end_ns,
            class,
            node: node.into(),
        });
        id
    }

    /// Set the end of span `id`, for a span opened before its children
    /// were known.
    pub fn close(&mut self, id: u64, end_ns: u64) {
        if let Some(span) = usize::try_from(id)
            .ok()
            .and_then(|i| self.spans.get_mut(i.wrapping_sub(1)))
        {
            span.end_ns = end_ns;
        }
    }

    /// Write the spans as `trace-<workload>.json` under `dir`.
    pub fn write(&self, dir: &Path, workload: &str, seed: u64) -> Result<(), String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let path = dir.join(format!("trace-{workload}.json"));
        std::fs::write(&path, self.to_json(workload, seed))
            .map_err(|e| format!("write {}: {e}", path.display()))
    }

    fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 120);
        let _ = write!(
            out,
            "{{\"workload\": {}, \"seed\": {seed}, \"dropped\": {}, \"spans\": [",
            quote(workload),
            self.dropped
        );
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let _ = write!(
                out,
                "{sep}{{\"id\": {}, \"parent\": {}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"class\": {}, \"node\": {}}}",
                s.id,
                s.parent,
                quote(&s.name),
                s.start_ns,
                s.end_ns,
                quote(s.class),
                quote(&s.node)
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};

    #[test]
    fn spans_nest_and_serialize() {
        let mut t = Trace::default();
        let root = t.add(0, "phase", 0, 100, "", "");
        let child = t.add(root, "request", 10, 20, "hit", "n1");
        assert_eq!((root, child), (1, 2));
        t.close(root, 150);
        let doc = parse(&t.to_json("serve_hot", 3)).unwrap();
        assert_eq!(doc.get("seed"), Some(&Json::Num(3.0)));
        let spans = doc.get("spans").and_then(Json::as_array).unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].get("parent"), Some(&Json::Num(1.0)));
        assert_eq!(spans[0].get("end_ns"), Some(&Json::Num(150.0)));
        assert_eq!(spans[1].get("node").and_then(Json::as_str), Some("n1"));
    }
}
