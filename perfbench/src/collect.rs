//! The benchmark's trace collector: a [`Sink`] that keeps the spans and
//! termination events the program already emits, plus the
//! spans the benchmark records around its own calls into each layer
//! (category `bench`). Spans stay in memory and are analysed when the
//! run ends. Every span carries the id of the operation that was running
//! when it ended; parents are recovered by interval nesting, and a
//! span's self time is its duration minus the time its children cover.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use calm_obs::{ArgValue, Obs, Sink};

/// One completed span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// Category (`bench` for the benchmark's own spans).
    pub cat: String,
    /// Span name.
    pub name: String,
    /// Start, in microseconds since the shared observability epoch.
    pub start: u64,
    /// End, same clock.
    pub end: u64,
    /// Operation id shared by every span of one operation.
    pub op: u64,
}

impl SpanRec {
    /// Duration in microseconds.
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// Collects what a traced run emits.
#[derive(Default)]
pub struct Collector {
    op: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
    last_deliver: AtomicU64,
    detect_us: Mutex<Vec<u64>>,
}

impl Collector {
    /// A fresh collector and an [`Obs`] handle feeding it.
    pub fn new() -> (Arc<Collector>, Obs) {
        let c = Arc::new(Collector::default());
        let obs = Obs::new(c.clone());
        (c, obs)
    }

    /// Mark the start of operation `op`: later spans belong to it.
    pub fn begin_op(&self, op: u64) {
        self.op.store(op, Ordering::Relaxed);
        self.last_deliver.store(0, Ordering::Relaxed);
    }

    /// The spans recorded so far, in completion order.
    pub fn spans(&self) -> Vec<SpanRec> {
        self.spans.lock().expect("collector lock").clone()
    }

    /// Per network run: microseconds from the last `trace/deliver` event
    /// to the `net/termination` event.
    pub fn detect_us(&self) -> Vec<u64> {
        self.detect_us.lock().expect("collector lock").clone()
    }
}

impl Sink for Collector {
    fn span(&self, cat: &str, name: &str, _track: u32, start_us: u64, dur_us: u64) {
        let rec = SpanRec {
            cat: cat.to_string(),
            name: name.to_string(),
            start: start_us,
            end: start_us + dur_us,
            op: self.op.load(Ordering::Relaxed),
        };
        self.spans.lock().expect("collector lock").push(rec);
    }

    fn event(&self, cat: &str, name: &str, _track: u32, ts_us: u64, _args: &[(&str, ArgValue)]) {
        match (cat, name) {
            ("trace", "deliver") => {
                self.last_deliver.fetch_max(ts_us, Ordering::Relaxed);
            }
            ("net", "termination") => {
                let last = self.last_deliver.swap(0, Ordering::Relaxed);
                if last > 0 {
                    self.detect_us
                        .lock()
                        .expect("collector lock")
                        .push(ts_us.saturating_sub(last));
                }
            }
            _ => {}
        }
    }

    fn counter(&self, _cat: &str, _name: &str, _ts_us: u64, _delta: u64) {}

    fn gauge(&self, _cat: &str, _name: &str, _track: u32, _ts_us: u64, _value: u64) {}

    fn histogram(&self, _cat: &str, _name: &str, _value: u64) {}
}

/// Parent of each span (index into `spans`), by interval nesting within
/// one operation: the innermost earlier-starting span that contains it.
pub fn parents(spans: &[SpanRec]) -> Vec<Option<usize>> {
    let mut order: Vec<usize> = (0..spans.len()).collect();
    // Outer spans first on equal starts.
    order.sort_by_key(|&i| (spans[i].op, spans[i].start, std::cmp::Reverse(spans[i].end)));
    let mut parent = vec![None; spans.len()];
    let mut stack: Vec<usize> = Vec::new();
    for i in order {
        let s = &spans[i];
        while let Some(&top) = stack.last() {
            let t = &spans[top];
            if t.op == s.op && t.start <= s.start && s.end <= t.end {
                break;
            }
            stack.pop();
        }
        parent[i] = stack.last().copied();
        stack.push(i);
    }
    parent
}

/// Total length of the union of `intervals`.
pub fn covered(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in intervals {
        match cur {
            Some((s, e)) if a <= e => cur = Some((s, e.max(b))),
            Some((s, e)) => {
                total += e - s;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    if let Some((s, e)) = cur {
        total += e - s;
    }
    total
}

/// Self time of each span: its duration minus the union of its
/// children's intervals.
pub fn self_times(spans: &[SpanRec], parent: &[Option<usize>]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for (i, p) in parent.iter().enumerate() {
        if let Some(p) = p {
            children[*p].push((spans[i].start, spans[i].end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, c)| s.dur().saturating_sub(covered(c)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, end: u64) -> SpanRec {
        SpanRec {
            cat: "t".into(),
            name: name.into(),
            start,
            end,
            op: 1,
        }
    }

    #[test]
    fn nesting_and_self_time() {
        let spans = vec![
            span("child-a", 10, 20),
            span("grandchild", 12, 15),
            span("child-b", 18, 30),
            span("root", 0, 100),
        ];
        let p = parents(&spans);
        assert_eq!(p, vec![Some(3), Some(0), Some(3), None]);
        let st = self_times(&spans, &p);
        assert_eq!(st[3], 100 - 20);
        assert_eq!(st[0], 10 - 3);
        assert_eq!(covered(vec![(0, 5), (3, 8), (10, 12)]), 10);
    }
}
