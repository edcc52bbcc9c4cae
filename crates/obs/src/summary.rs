//! Span summaries: what a capture's closed spans add up to.

use std::collections::BTreeMap;

use crate::histogram::{HistogramSummary, LatencyHistogram};
use crate::json::Json;
use crate::span::{FieldValue, SpanRecord};

/// Per-span-name aggregate built by [`summarize_spans`].
#[derive(Clone, Debug)]
pub struct SpanSummary {
    /// The span name.
    pub name: &'static str,
    /// Number of closed spans with this name.
    pub calls: u64,
    /// Total wall time across those spans, in nanoseconds.
    pub total_ns: u64,
    /// Smallest nesting depth the name was seen at (for tree rendering).
    pub depth: u32,
    /// Latency distribution of the individual spans.
    pub latency: HistogramSummary,
    /// Sums of every `u64` field recorded on those spans, by key.
    pub field_sums: Vec<(&'static str, u64)>,
}

impl SpanSummary {
    /// The summary as a JSON object (the harness report row).
    pub fn to_json(&self) -> Json {
        let mut fields = Json::obj();
        for (k, v) in &self.field_sums {
            fields = fields.set(*k, *v);
        }
        Json::obj()
            .set("name", self.name)
            .set("calls", self.calls)
            .set("total_ns", self.total_ns)
            .set("p50_ns", self.latency.p50_ns)
            .set("p95_ns", self.latency.p95_ns)
            .set("p99_ns", self.latency.p99_ns)
            .set("max_ns", self.latency.max_ns)
            .set("fields", fields)
    }
}

#[derive(Debug)]
struct Agg {
    calls: u64,
    total_ns: u64,
    depth: u32,
    first_start_ns: u64,
    first_seen: usize,
    hist: LatencyHistogram,
    field_sums: BTreeMap<&'static str, u64>,
}

/// Aggregates closed spans into per-name summaries: call counts, total
/// wall time, latency histograms and `u64`-field sums. Rows are ordered
/// by each name's earliest span *start* (close order won't do: spans
/// close after the children they enclose, so children would sort before
/// their parents — start order keeps `AnalyzedPlan::render`'s indented
/// tree well-formed), ties broken by first close.
///
/// Every span consumer folds a capture this way: `EXPLAIN ANALYZE`, the
/// harness report, the bench suite, and the slow-query log rebuilding a
/// [`QueryRecord`]'s rendering after the fact.
///
/// [`QueryRecord`]: crate::flight::QueryRecord
pub fn summarize_spans(spans: &[SpanRecord]) -> Vec<SpanSummary> {
    let mut aggregates: BTreeMap<&'static str, Agg> = BTreeMap::new();
    for (seen, span) in spans.iter().enumerate() {
        let agg = aggregates.entry(span.name).or_insert_with(|| Agg {
            calls: 0,
            total_ns: 0,
            depth: span.depth,
            first_start_ns: span.start_ns,
            first_seen: seen,
            hist: LatencyHistogram::new(),
            field_sums: BTreeMap::new(),
        });
        agg.calls += 1;
        agg.first_start_ns = agg.first_start_ns.min(span.start_ns);
        agg.total_ns = agg.total_ns.saturating_add(span.duration_ns);
        agg.depth = agg.depth.min(span.depth);
        agg.hist.record(span.duration_ns);
        for field in &span.fields {
            if let FieldValue::U64(v) = field.value {
                let slot = agg.field_sums.entry(field.key).or_insert(0);
                *slot = slot.saturating_add(v);
            }
        }
    }
    let mut rows: Vec<(u64, usize, SpanSummary)> = aggregates
        .into_iter()
        .map(|(name, a)| {
            (
                a.first_start_ns,
                a.first_seen,
                SpanSummary {
                    name,
                    calls: a.calls,
                    total_ns: a.total_ns,
                    depth: a.depth,
                    latency: a.hist.summary(),
                    field_sums: a.field_sums.into_iter().collect(),
                },
            )
        })
        .collect();
    rows.sort_by_key(|(start, seen, _)| (*start, *seen));
    rows.into_iter().map(|(_, _, s)| s).collect()
}

/// The JSON object written for one span.
pub(crate) fn span_to_json(span: &SpanRecord) -> Json {
    let mut fields = Json::obj();
    for f in &span.fields {
        fields = match &f.value {
            FieldValue::U64(v) => fields.set(f.key, *v),
            FieldValue::F64(v) => fields.set(f.key, *v),
            FieldValue::Bool(v) => fields.set(f.key, *v),
            FieldValue::Str(v) => fields.set(f.key, v.as_str()),
        };
    }
    Json::obj()
        .set("span", span.name)
        .set("start_ns", span.start_ns)
        .set("duration_ns", span.duration_ns)
        .set("depth", span.depth)
        .set("thread", span.thread)
        .set("fields", fields)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Field;

    fn record(
        name: &'static str,
        start_ns: u64,
        duration_ns: u64,
        fields: Vec<Field>,
    ) -> SpanRecord {
        SpanRecord {
            name,
            start_ns,
            duration_ns,
            depth: 0,
            thread: 0,
            fields,
        }
    }

    fn n(v: u64) -> Vec<Field> {
        vec![Field {
            key: "n",
            value: FieldValue::U64(v),
        }]
    }

    #[test]
    fn summaries_aggregate_per_name() {
        let summary = summarize_spans(&[
            record("a", 0, 100, n(5)),
            record("a", 1, 300, n(7)),
            record("b", 2, 50, Vec::new()),
        ]);
        assert_eq!(summary.len(), 2);
        assert_eq!(summary[0].name, "a");
        assert_eq!(summary[0].calls, 2);
        assert_eq!(summary[0].total_ns, 400);
        assert_eq!(summary[0].field_sums, vec![("n", 12)]);
        assert_eq!(summary[1].name, "b");
        assert!(summarize_spans(&[]).is_empty());
    }

    #[test]
    fn summaries_order_by_start_not_close() {
        // The child closes first but starts after its parent.
        let summary = summarize_spans(&[
            record("child", 5, 1, Vec::new()),
            record("parent", 1, 9, Vec::new()),
        ]);
        let names: Vec<_> = summary.iter().map(|s| s.name).collect();
        assert_eq!(names, ["parent", "child"]);
    }

    #[test]
    fn span_json_carries_name_timing_and_fields() {
        let v = crate::parse_json(&span_to_json(&record("exec.sweep", 0, 1234, n(9))).render())
            .unwrap();
        assert_eq!(v.get("span").unwrap().as_str(), Some("exec.sweep"));
        assert_eq!(v.get("duration_ns").unwrap().as_u64(), Some(1234));
        assert_eq!(v.get("fields").unwrap().get("n").unwrap().as_u64(), Some(9));
    }
}
