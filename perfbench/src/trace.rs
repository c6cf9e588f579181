//! Spans and counters recorded by the benchmark around its calls into the
//! workspace layers.
//!
//! A span is `(name, start, end, parent, op)`. Its name is
//! `<layer>.<call>` (`netlist.simplify`, `attacks.run_attack`, …) or
//! `op.<kind>` for the operation span that encloses one measured
//! operation; spans of one operation share its op id. Spans stay in
//! memory and are written once, when the run ends. Counters are summed at
//! the same boundaries, so every per-layer ratio is taken where the work
//! happened. With tracing off nothing is recorded.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Index of a recorded span.
pub type SpanId = usize;

/// One recorded span; times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: Option<u64>,
    pub parent: Option<SpanId>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Default)]
struct Store {
    spans: Vec<Span>,
    /// `(sum, samples)` per counter name.
    counters: BTreeMap<&'static str, (f64, u64)>,
}

/// The span and counter recorder. Shared by reference across the client
/// threads of the `serve` workload.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    store: Mutex<Store>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            store: Mutex::new(Store::default()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Store> {
        self.store
            .lock()
            .expect("tracer poisoned by a panicking thread")
    }

    /// Runs `f` inside a span; `f` receives the span's id so it can open
    /// children. With tracing off `f` gets `None` and nothing is kept.
    pub fn time<T>(
        &self,
        name: &'static str,
        op: Option<u64>,
        parent: Option<SpanId>,
        f: impl FnOnce(Option<SpanId>) -> T,
    ) -> T {
        if !self.on {
            return f(None);
        }
        let id = {
            let mut st = self.lock();
            st.spans.push(Span {
                name,
                op,
                parent,
                start_ns: self.ns(Instant::now()),
                end_ns: 0,
            });
            st.spans.len() - 1
        };
        let out = f(Some(id));
        let end = self.ns(Instant::now());
        self.lock().spans[id].end_ns = end;
        out
    }

    /// Records a span measured by the caller (an operation whose start and
    /// end happen in different places, like a daemon job).
    pub fn record(
        &self,
        name: &'static str,
        op: Option<u64>,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> Option<SpanId> {
        if !self.on {
            return None;
        }
        let mut st = self.lock();
        st.spans.push(Span {
            name,
            op,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        Some(st.spans.len() - 1)
    }

    /// Adds one sample to a counter.
    pub fn count(&self, name: &'static str, value: f64) {
        if self.on {
            let mut st = self.lock();
            let e = st.counters.entry(name).or_insert((0.0, 0));
            e.0 += value;
            e.1 += 1;
        }
    }

    /// `(sum, samples)` of a counter.
    pub fn counter(&self, name: &str) -> (f64, u64) {
        self.lock().counters.get(name).copied().unwrap_or((0.0, 0))
    }

    /// Durations (ns) of every span with this name, in record order.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.lock()
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .collect()
    }

    /// Per span name: `(calls, busy, self)` where self time is the span
    /// minus the part of it its children cover.
    pub fn table(&self) -> BTreeMap<&'static str, (u64, Duration, Duration)> {
        let st = self.lock();
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); st.spans.len()];
        for s in &st.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, (u64, Duration, Duration)> = BTreeMap::new();
        for (i, s) in st.spans.iter().enumerate() {
            let covered = covered_ns(&mut children[i], s.start_ns, s.end_ns);
            let e = out
                .entry(s.name)
                .or_insert((0, Duration::ZERO, Duration::ZERO));
            e.0 += 1;
            e.1 += Duration::from_nanos(s.dur_ns());
            e.2 += Duration::from_nanos(s.dur_ns().saturating_sub(covered));
        }
        out
    }

    /// The spans as tab-separated text, one per line, with a header.
    pub fn spans_tsv(&self) -> String {
        let st = self.lock();
        let mut out = String::from("id\tparent\top\tname\tstart_ns\tend_ns\n");
        let opt = |v: Option<u64>| v.map_or_else(|| "-".to_string(), |v| v.to_string());
        for (i, s) in st.spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{}\t{}",
                opt(s.parent.map(|p| p as u64)),
                opt(s.op),
                s.name,
                s.start_ns,
                s.end_ns
            );
        }
        out
    }

    pub fn span_count(&self) -> usize {
        self.lock().spans.len()
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_once() {
        let mut iv = [(10, 20), (15, 30), (40, 50)];
        assert_eq!(covered_ns(&mut iv, 0, 45), 25);
    }

    #[test]
    fn off_records_nothing() {
        let t = Tracer::new(false);
        let v = t.time("core.lock", None, None, |id| {
            assert!(id.is_none());
            7
        });
        assert_eq!(v, 7);
        t.count("core.locked_gates", 3.0);
        assert_eq!(t.span_count(), 0);
        assert_eq!(t.counter("core.locked_gates"), (0.0, 0));
    }

    #[test]
    fn nested_spans_split_busy_and_self() {
        let t = Tracer::new(true);
        t.time("op.cell", Some(1), None, |id| {
            t.time("attacks.run_attack", Some(1), id, |_| {
                std::thread::sleep(Duration::from_millis(2))
            })
        });
        let table = t.table();
        let (calls, busy, own) = table["op.cell"];
        assert_eq!(calls, 1);
        let (_, child, _) = table["attacks.run_attack"];
        assert!(own < busy && busy - own == child);
        assert!(t.spans_tsv().lines().count() == 3);
    }
}
