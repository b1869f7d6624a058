//! Host-clock spans the benchmark records around each call into a
//! layer: `System` build, `Ext4::populate`, `Simulation::run`, every
//! `UserThread` call, the fleet runs and the conductor probe. Each span
//! carries a name, a start, an end, its parent span and an operation
//! id. Spans stay in memory and are written out when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed call, in host nanoseconds since the log's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same log.
    pub parent: Option<usize>,
    /// `actor << 32 | call index` for calls made by simulated actors;
    /// 0 for set-up and run spans.
    pub op: u64,
}

/// Host nanoseconds elapsed since `epoch`.
pub fn ns_since(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// An in-memory span log; without an epoch it records nothing.
#[derive(Debug, Default)]
pub struct SpanLog {
    epoch: Option<Instant>,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(epoch: Option<Instant>) -> SpanLog {
        SpanLog {
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Opens a span now; [`SpanLog::close`] stamps its end.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> Option<usize> {
        let now = ns_since(self.epoch?);
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            op: 0,
        });
        Some(self.spans.len() - 1)
    }

    pub fn close(&mut self, id: Option<usize>) {
        if let (Some(id), Some(epoch)) = (id, self.epoch) {
            self.spans[id].end_ns = ns_since(epoch);
        }
    }

    /// Runs `f` inside a top-level span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, None);
        let out = f();
        self.close(id);
        out
    }

    /// Adds spans recorded elsewhere against the same epoch (an actor's
    /// calls, whose parent ids already index this log).
    pub fn adopt(&mut self, spans: Vec<Span>) {
        if self.epoch.is_some() {
            self.spans.extend(spans);
        }
    }

    /// Moves `other`'s spans after this log's, re-basing parent ids.
    pub fn append(&mut self, other: SpanLog) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            parent: s.parent.map(|p| p + base),
            ..s
        }));
    }

    /// One JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"op\": {}}}",
                s.name, s.start_ns, s.end_ns, s.op
            );
        }
        out
    }
}

/// Writes `log` to `layerbench/runs/<workload>-seed<seed>.spans.jsonl`
/// under the working directory and returns a report line. A failed
/// write is reported, not fatal: the spans are a by-product.
pub fn write_out(log: &SpanLog, workload: &str, seed: u64) -> String {
    let dir = Path::new("layerbench/runs");
    let path = dir.join(format!("{workload}-seed{seed}.spans.jsonl"));
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, log.to_jsonl())) {
        Ok(()) => format!(
            "spans: {} written to {}\n",
            log.spans().len(),
            path.display()
        ),
        Err(e) => format!("spans: not written to {} ({e})\n", path.display()),
    }
}

/// Span durations grouped by name, pooled across repetitions.
#[derive(Debug, Default)]
pub struct Pool(BTreeMap<&'static str, Vec<u64>>);

impl Pool {
    pub fn add(&mut self, log: &SpanLog) {
        for s in log.spans() {
            self.0
                .entry(s.name)
                .or_default()
                .push(s.end_ns - s.start_ns);
        }
    }

    pub fn get(&self, name: &str) -> &[u64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_rebase_and_serialise() {
        let mut a = SpanLog::new(Some(Instant::now()));
        let run = a.open("sim.run", None);
        a.adopt(vec![Span {
            name: "core.pread",
            start_ns: 1,
            end_ns: 3,
            parent: run,
            op: 7,
        }]);
        a.close(run);
        let mut b = SpanLog::new(a.epoch);
        b.time("system.build", || ());
        b.append(a);
        assert_eq!(b.spans().len(), 3);
        assert_eq!(
            b.spans()[2].parent,
            Some(1),
            "parent re-based past b's own span"
        );
        let text = b.to_jsonl();
        assert_eq!(text.lines().count(), 3);
        assert!(text.contains(
            "\"name\": \"core.pread\", \"start_ns\": 1, \"end_ns\": 3, \"parent\": 1, \"op\": 7"
        ));
        let mut pool = Pool::default();
        pool.add(&b);
        assert_eq!(pool.get("core.pread"), &[2]);
        assert!(pool.get("absent").is_empty());
    }

    #[test]
    fn a_log_without_epoch_records_nothing() {
        let mut log = SpanLog::new(None);
        assert_eq!(log.time("x", || 5), 5);
        assert_eq!(log.open("y", None), None);
        log.adopt(vec![Span {
            name: "z",
            start_ns: 0,
            end_ns: 1,
            parent: None,
            op: 0,
        }]);
        assert!(log.spans().is_empty());
    }
}
