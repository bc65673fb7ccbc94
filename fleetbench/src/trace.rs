//! The traced run's span recorder.
//!
//! Spans are recorded by the benchmark around each call it makes into a
//! layer (the crate that does the work), kept in memory, and written
//! out when the run ends. A span's self time is its duration minus the
//! part of its interval covered by its children (overlapping children
//! are merged first, so concurrent requests under one phase span are
//! not double-subtracted).
//!
//! A disabled recorder records nothing, so the untraced runs that
//! produce the gated numbers pay one branch per call.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use serde_json::Value;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique span id (1-based; 0 means "no parent").
    pub id: u64,
    /// The enclosing span, or 0 for a root.
    pub parent: u64,
    /// Shared by every span of one request or round.
    pub trace: u64,
    /// The layer (crate) doing the work, or `bench` for the benchmark's
    /// own phases.
    pub layer: &'static str,
    /// The call.
    pub name: &'static str,
    /// Start, ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, ns since the recorder's epoch.
    pub end_ns: u64,
}

/// In-memory span store.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    /// A recorder; `enabled == false` makes every call a pass-through.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a span from explicit instants (for requests whose start
    /// and end are observed on different threads). Returns its id, or 0
    /// when disabled.
    pub fn record(
        &self,
        parent: u64,
        trace: u64,
        layer: &'static str,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> u64 {
        if !self.enabled {
            return 0;
        }
        let mut spans = self
            .spans
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let id = spans.len() as u64 + 1;
        spans.push(Span {
            id,
            parent,
            trace,
            layer,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        id
    }

    /// Opens a span now; close it with [`Recorder::close`]. Returns its
    /// id, or 0 when disabled.
    pub fn open(&self, parent: u64, trace: u64, layer: &'static str, name: &'static str) -> u64 {
        let now = Instant::now();
        self.record(parent, trace, layer, name, now, now)
    }

    /// Closes a span opened with [`Recorder::open`].
    pub fn close(&self, id: u64) {
        if !self.enabled || id == 0 {
            return;
        }
        let end = self.ns(Instant::now());
        let mut spans = self
            .spans
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(span) = spans.get_mut(id as usize - 1) {
            span.end_ns = end;
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &self,
        parent: u64,
        trace: u64,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.record(parent, trace, layer, name, start, Instant::now());
        out
    }

    /// A copy of every recorded span.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }
}

/// Total self time per layer, in ms.
#[must_use]
pub fn self_ms_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let kids = children.get(&s.id).map_or(&[][..], Vec::as_slice);
        let covered = covered_ns(s.start_ns, s.end_ns, kids);
        let own = s.end_ns.saturating_sub(s.start_ns).saturating_sub(covered);
        *out.entry(s.layer).or_insert(0.0) += own as f64 / 1e6;
    }
    out
}

/// Length of the union of `intervals`, clipped to `[start, end]`.
fn covered_ns(start: u64, end: u64, intervals: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(start), b.min(end)))
        .filter(|(a, b)| a < b)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (a, b) in clipped {
        current = match current {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + current.map_or(0, |(a, b)| b - a)
}

/// The spans as a JSON document (one object per span).
#[must_use]
pub fn spans_json(spans: &[Span]) -> Value {
    Value::Array(
        spans
            .iter()
            .map(|s| {
                ncl_serve::protocol::object(vec![
                    ("id", s.id.into()),
                    ("parent", s.parent.into()),
                    ("trace", s.trace.into()),
                    ("layer", s.layer.into()),
                    ("name", s.name.into()),
                    ("start_ns", s.start_ns.into()),
                    ("end_ns", s.end_ns.into()),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;

    #[test]
    fn self_time_subtracts_merged_children() {
        let r = Recorder::new(true);
        let t0 = r.epoch;
        let at = |us: u64| t0 + Duration::from_micros(us);
        let root = r.record(0, 1, "bench", "phase", at(0), at(1000));
        // Two overlapping children covering 100..600, one at 800..900.
        r.record(root, 1, "ncl_router", "predict", at(100), at(400));
        r.record(root, 1, "ncl_router", "predict", at(300), at(600));
        let third = r.record(root, 1, "ncl_online", "ingest", at(800), at(900));
        r.record(third, 1, "ncl_snn", "train", at(820), at(860));
        let by_layer = self_ms_by_layer(&r.spans());
        // Root: 1000 µs minus the merged 100..600 and 800..900.
        assert!((by_layer["bench"] - 0.4).abs() < 1e-9, "{by_layer:?}");
        assert!((by_layer["ncl_router"] - 0.6).abs() < 1e-9);
        assert!((by_layer["ncl_online"] - 0.06).abs() < 1e-9);
        assert!((by_layer["ncl_snn"] - 0.04).abs() < 1e-9);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let r = Recorder::new(false);
        assert_eq!(r.span(0, 1, "bench", "x", || 5), 5);
        assert_eq!(r.open(0, 1, "bench", "y"), 0);
        assert!(r.spans().is_empty());
    }
}
