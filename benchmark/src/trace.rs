//! In-memory spans around the benchmark's own calls into each layer.
//!
//! The program under test is not instrumented (that is a later change): a
//! span here brackets one call the benchmark makes into a public function,
//! so a layer's time is what a caller of that layer sees. Spans stay in a
//! `Vec` until the run ends and are then written out together with the
//! per-name self-time table.

use crate::metrics::Reading;
use serde::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// One timed interval. `parent` indexes the span that caused this one;
/// spans of one request share `request`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

/// Handle to an open span; `None` inside when tracing is off.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

/// A span recorder owned by one thread. With tracing off every call is a
/// branch on a bool and nothing is stored, so the untraced runs carry no
/// span cost.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// `origin` is shared by every tracer of a run so that spans recorded
    /// on different threads land on one time axis.
    pub fn new(enabled: bool, origin: Instant) -> Tracer {
        Tracer {
            enabled,
            origin,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, parent: SpanId, request: u64) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: parent.0,
            request,
        });
        SpanId(Some(self.spans.len() - 1))
    }

    pub fn end(&mut self, id: SpanId) {
        if let Some(i) = id.0 {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Time `f` as a child of `parent`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, parent, request);
        let out = f();
        self.end(id);
        out
    }

    pub const ROOT: SpanId = SpanId(None);

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Concatenate per-thread span lists, re-basing parent indexes.
pub fn merge(lists: Vec<Vec<Span>>) -> Vec<Span> {
    let mut all = Vec::new();
    for list in lists {
        let base = all.len();
        all.extend(list.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    all
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Children may overlap each other (two
/// connections' work under one window span) or stick out of the parent;
/// the covered part is the union of the child intervals clipped to the
/// parent, so nothing is subtracted twice.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let (a, b) = (s.start_ns.max(lo), s.end_ns.min(hi));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// One row of the layer table: how often a span name occurred, and its
/// summed duration and self time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerRow {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Per-name totals, in name order so that the table repeats exactly.
pub fn layer_table(spans: &[Span]) -> BTreeMap<&'static str, LayerRow> {
    let mut table: BTreeMap<&'static str, LayerRow> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let row = table.entry(s.name).or_default();
        row.count += 1;
        row.total_ns += s.end_ns - s.start_ns;
        row.self_ns += self_ns;
    }
    table
}

/// Upper limit on spans written to `trace-<workload>.json`; the layer
/// table above it always covers every span recorded.
const MAX_SPANS_WRITTEN: usize = 20_000;

/// The `trace-<workload>.json` document: the layer table, then the spans.
pub fn to_value(workload: &str, spans: &[Span], layers: &[&Reading]) -> Value {
    let table = layer_table(spans)
        .into_iter()
        .map(|(name, row)| {
            Value::Map(vec![
                ("name".into(), Value::Str(name.into())),
                ("count".into(), Value::U64(row.count)),
                ("total_us".into(), Value::F64(row.total_ns as f64 / 1e3)),
                ("self_us".into(), Value::F64(row.self_ns as f64 / 1e3)),
                (
                    "self_us_per_call".into(),
                    Value::F64(row.self_ns as f64 / 1e3 / row.count.max(1) as f64),
                ),
            ])
        })
        .collect();
    let written = spans
        .iter()
        .take(MAX_SPANS_WRITTEN)
        .map(|s| {
            Value::Map(vec![
                ("name".into(), Value::Str(s.name.into())),
                ("start_ns".into(), Value::U64(s.start_ns)),
                ("end_ns".into(), Value::U64(s.end_ns)),
                (
                    "parent".into(),
                    s.parent.map_or(Value::Null, |p| Value::U64(p as u64)),
                ),
                ("request".into(), Value::U64(s.request)),
            ])
        })
        .collect();
    let layer_metrics = layers
        .iter()
        .map(|r| {
            Value::Map(vec![
                ("name".into(), Value::Str(r.name.clone())),
                ("value".into(), Value::F64(r.value)),
                ("unit".into(), Value::Str(r.unit.clone())),
            ])
        })
        .collect();
    Value::Map(vec![
        ("workload".into(), Value::Str(workload.into())),
        ("spans_recorded".into(), Value::U64(spans.len() as u64)),
        ("span_self_times".into(), Value::Seq(table)),
        ("layer_metrics".into(), Value::Seq(layer_metrics)),
        ("spans".into(), Value::Seq(written)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request: 1,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root 0..100, child 10..60, grandchild 20..30.
        let spans = vec![
            span("root", 0, 100, None),
            span("child", 10, 60, Some(0)),
            span("grandchild", 20, 30, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn overlapping_children_are_not_subtracted_twice() {
        // Children 10..50 and 30..70 overlap by 20: union covers 60.
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 50, Some(0)),
            span("b", 30, 70, Some(0)),
            span("inside_a", 35, 45, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        // A child that outlives its parent only counts up to the parent's end.
        let spans = vec![
            span("root", 0, 100, None),
            span("late", 80, 150, Some(0)),
            span("outside", 200, 300, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 80);
    }

    #[test]
    fn layer_table_sums_per_name_and_merge_rebases_parents() {
        let a = vec![span("req", 0, 10, None), span("io", 2, 6, Some(0))];
        let b = vec![span("req", 0, 20, None), span("io", 5, 10, Some(0))];
        let all = merge(vec![a, b]);
        assert_eq!(all[3].parent, Some(2));
        let table = layer_table(&all);
        assert_eq!(
            table["req"],
            LayerRow {
                count: 2,
                total_ns: 30,
                self_ns: 21
            }
        );
        assert_eq!(table["io"].self_ns, 9);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let id = t.begin("x", Tracer::ROOT, 0);
        t.end(id);
        assert_eq!(t.span("y", id, 0, || 7), 7);
        assert!(t.into_spans().is_empty());
    }
}
