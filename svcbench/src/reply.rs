//! Reply bodies exactly as `serve::session` renders them, for the
//! oracle's expected answers and the traced replay's render step.
//!
//! The session's renderers are private to the server crate, so they are
//! restated here; the reply-render parity check of the traced run holds
//! the two byte-identical (ignoring `id`, `wall_us` and `trace_id`).

use treequery_core::plan::ExplainedPlan;
use treequery_core::{CostClass, Document, QueryOutput};
use treequery_obs::Json;
use treequery_serve::AdmissionVerdict;
use treequery_tree::Tree;

/// The answer fields of a query reply (`kind`, `rows`, and for tuple
/// answers `satisfiable`), rows as pre-order ranks.
pub fn rows_json(tree: &Tree, out: &QueryOutput) -> Json {
    match out {
        QueryOutput::Nodes(nodes) => {
            let rows: Vec<Json> = nodes.iter().map(|&v| Json::from(tree.pre(v))).collect();
            Json::obj().set("kind", "nodes").set("rows", rows)
        }
        QueryOutput::Answer(a) => {
            let rows: Vec<Json> = a
                .tuples
                .iter()
                .map(|t| Json::Arr(t.iter().map(|&v| Json::from(tree.pre(v))).collect()))
                .collect();
            Json::obj()
                .set("kind", "tuples")
                .set("rows", rows)
                .set("satisfiable", !a.tuples.is_empty())
        }
    }
}

/// The rendered answer part of a reply: [`rows_json`] without its
/// opening brace, which is how it ends the full reply line.
pub fn answer_text(tree: &Tree, out: &QueryOutput) -> String {
    let mut s = rows_json(tree, out).render();
    s.remove(0);
    s
}

/// Rows in an answer.
pub fn row_count(out: &QueryOutput) -> usize {
    match out {
        QueryOutput::Nodes(v) => v.len(),
        QueryOutput::Answer(a) => a.tuples.len(),
    }
}

/// The wire name of an admission verdict.
pub fn admission_str(v: AdmissionVerdict) -> &'static str {
    match v {
        AdmissionVerdict::FastLane => "fast_lane",
        AdmissionVerdict::Immediate => "immediate",
        AdmissionVerdict::Queued => "queued",
    }
}

/// Whether a plan competes for a heavy admission slot.
pub fn is_heavy(plan: &ExplainedPlan) -> bool {
    !matches!(plan.cost, CostClass::Linear)
}

/// A successful query reply, field for field as the session builds it.
pub fn query_body(
    id: u64,
    doc: &str,
    plan: &ExplainedPlan,
    admission: &str,
    wall_us: u64,
    trace_id: &str,
    answer: Json,
) -> Json {
    let mut body = Json::obj()
        .set("ok", true)
        .set("id", id)
        .set("doc", doc)
        .set("strategy", format!("{:?}", plan.strategy))
        .set("cost", plan.cost.to_string())
        .set("admission", admission)
        .set("wall_us", wall_us)
        .set("trace_id", trace_id);
    if let Json::Obj(fields) = answer {
        for (k, v) in fields {
            body = body.set(k, v);
        }
    }
    body
}

/// A successful edit reply.
pub fn edit_body(
    doc_name: &str,
    applied: usize,
    ops: usize,
    doc: &Document,
    trace_id: &str,
) -> Json {
    Json::obj()
        .set("ok", true)
        .set("doc", doc_name)
        .set("applied", applied)
        .set("skipped", ops - applied)
        .set("nodes", doc.tree().len())
        .set("fingerprint", format!("{:016x}", doc.fingerprint()))
        .set("edits", doc.edit_count())
        .set("trace_id", trace_id)
}

/// A reply line with the per-request fields (`id`, `wall_us`,
/// `trace_id`) blanked, for byte comparison across runs.
pub fn mask(reply: &str) -> String {
    let mut out = reply.to_owned();
    for key in [r#""id":"#, r#""wall_us":"#, r#""trace_id":"#] {
        let Some(start) = out.find(key).map(|i| i + key.len()) else {
            continue;
        };
        let end = if out[start..].starts_with('"') {
            out[start + 1..]
                .find('"')
                .map_or(out.len(), |e| start + e + 2)
        } else {
            out[start..]
                .find([',', '}'])
                .map_or(out.len(), |e| start + e)
        };
        out.replace_range(start..end, "_");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_blanks_exactly_the_per_request_fields() {
        let a = r#"{"ok":true,"id":17,"doc":"d0","wall_us":123,"trace_id":"srv-9","kind":"nodes","rows":[4]}"#;
        let b =
            r#"{"ok":true,"id":2,"doc":"d0","wall_us":7,"trace_id":"x","kind":"nodes","rows":[4]}"#;
        assert_eq!(mask(a), mask(b));
        assert_eq!(
            mask(a),
            r#"{"ok":true,"id":_,"doc":"d0","wall_us":_,"trace_id":_,"kind":"nodes","rows":[4]}"#
        );
        let c =
            r#"{"ok":true,"id":2,"doc":"d0","wall_us":7,"trace_id":"x","kind":"nodes","rows":[5]}"#;
        assert_ne!(mask(a), mask(c));
    }
}
