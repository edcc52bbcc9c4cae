//! The traced run: an in-process replay of the closed-loop run's request
//! streams, with a span around every call into the service's layers.
//!
//! Each connection's requests are replayed on a thread of their own
//! against a fresh `Catalog` and `Admission` built as
//! `ServerConfig::default()` builds them, calling the public functions in
//! the order `serve::session` does:
//!
//! 1. `proto::read_frame` on the request bytes;
//! 2. `Catalog::get`, then the document `RwLock` (read for queries, write
//!    for edits);
//! 3. `Document::engine`;
//! 4. `Engine::lower`;
//! 5. `Engine::explain`;
//! 6. `Admission::admit`;
//! 7. `Engine::eval_ir_with_cancel`;
//! 8. `Json::render` of the reply — twice for queries, as the session
//!    renders once to size the reply for usage accounting and once onto
//!    the wire;
//! 9. for edits, `Document::edit`.
//!
//! Spans (name, start, end, parent, request id) are recorded by this
//! module only — nothing inside the program is instrumented — kept in
//! memory, and written out when the run ends. Session bookkeeping that
//! has no public entry point (the in-flight registry, usage and SLO
//! accounting, error counters) is not replayed; its cost stays in the
//! round-trip residual `session.wire_us` together with the socket.

use std::collections::HashMap;
use std::io::{self, Cursor, Write};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use treequery_core::plan::{MetricsSnapshot, Strategy};
use treequery_core::Query;
use treequery_obs::metrics::Registry;
use treequery_obs::Json;
use treequery_serve::proto::{self, Frame};
use treequery_serve::{Admission, Catalog, ServerConfig};
use treequery_tree::{parse_script, CancelToken, EditOp};

use crate::client::{deterministic, RunLog};
use crate::reply::{admission_str, edit_body, is_heavy, mask, query_body, row_count, rows_json};
use crate::stats::Summary;
use crate::workload::{Op, Workload};
use crate::{metric, Metric};

/// Span names, one per layer call (plus the enclosing request).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Stage {
    Request,
    ReadFrame,
    CatalogGet,
    ReadLock,
    WriteLock,
    Engine,
    Lower,
    Explain,
    Admit,
    Exec,
    Render,
    Edit,
}

impl Stage {
    pub fn name(self) -> &'static str {
        match self {
            Stage::Request => "request",
            Stage::ReadFrame => "proto.read_frame",
            Stage::CatalogGet => "catalog.get",
            Stage::ReadLock => "catalog.read_lock",
            Stage::WriteLock => "catalog.write_lock",
            Stage::Engine => "document.engine",
            Stage::Lower => "ir.lower",
            Stage::Explain => "planner.explain",
            Stage::Admit => "admission.admit",
            Stage::Exec => "exec.eval_ir_with_cancel",
            Stage::Render => "json.render",
            Stage::Edit => "document.edit",
        }
    }
}

/// One recorded span. `parent` indexes the same thread's span list.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub req: u32,
    pub stage: Stage,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Self time per span: its duration minus the part covered by its
/// children (children never overlap here: every layer call is
/// synchronous on the request's thread).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p as usize] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}

/// Per-thread span recorder; a disabled tracer only runs the calls.
struct Tracer {
    on: bool,
    epoch: Instant,
    req: u32,
    spans: Vec<Span>,
}

impl Tracer {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&mut self, stage: Stage, parent: Option<u32>) -> Option<u32> {
        if !self.on {
            return None;
        }
        let start_ns = self.now();
        self.spans.push(Span {
            req: self.req,
            stage,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        Some(self.spans.len() as u32 - 1)
    }

    fn close(&mut self, id: Option<u32>) {
        if let Some(i) = id {
            let end = self.now();
            self.spans[i as usize].end_ns = end;
        }
    }

    fn call<T>(&mut self, stage: Stage, parent: Option<u32>, f: impl FnOnce() -> T) -> T {
        let id = self.open(stage, parent);
        let out = f();
        self.close(id);
        out
    }
}

/// What the replay learned about one request besides its spans.
#[derive(Clone, Debug, Default)]
pub struct ReqInfo {
    pub timed: bool,
    /// `Some(kind)` for edits: "relabel", "insert" or "delete".
    pub edit: Option<&'static str>,
    pub strategy: Option<Strategy>,
    pub heavy: bool,
    pub parallel: bool,
    pub rows: usize,
    pub reply_bytes: usize,
}

struct Shared {
    catalog: Catalog,
    admission: Admission,
    admit_timeout: Duration,
}

fn fresh_service(w: Workload, seed: u64) -> Shared {
    let config = ServerConfig::default();
    let catalog = Catalog::new(config.engine.clone());
    for d in w.docs(seed) {
        catalog
            .load(&d.name, d.build())
            .expect("replay catalog starts empty");
    }
    Shared {
        catalog,
        admission: Admission::new(config.heavy_cap, &Registry::new()),
        admit_timeout: config.admit_timeout,
    }
}

fn edit_kind(op: &EditOp) -> &'static str {
    match op {
        EditOp::Relabel { .. } => "relabel",
        EditOp::InsertLeaf { .. } => "insert",
        EditOp::DeleteSubtree { .. } => "delete",
    }
}

/// Serves one request line as the session would; returns the reply line.
fn serve_one(sh: &Shared, tr: &mut Tracer, line: &str, id: u64, info: &mut ReqInfo) -> String {
    let root = tr.open(Stage::Request, None);
    let frame = tr.call(Stage::ReadFrame, root, || {
        proto::read_frame(&mut Cursor::new(line.as_bytes()))
    });
    let Ok(Frame::Value(req)) = frame else {
        panic!("generated request does not parse: {line}");
    };
    let field = |k: &str| req.get(k).and_then(Json::as_str).unwrap_or("");
    let doc_name = field("doc");
    let trace_id = "replay";
    let handle = tr.call(Stage::CatalogGet, root, || sh.catalog.get(doc_name));
    let handle = handle.expect("replayed document is loaded");
    let reply = if field("verb") == "edit" {
        let ops = parse_script(field("script")).expect("generated script parses");
        let mut doc = tr.call(Stage::WriteLock, root, || {
            handle.write().expect("document poisoned")
        });
        let mut applied = 0;
        for op in &ops {
            info.edit = Some(edit_kind(op));
            applied += usize::from(tr.call(Stage::Edit, root, || doc.edit(op)).is_some());
        }
        tr.call(Stage::Render, root, || {
            edit_body(doc_name, applied, ops.len(), &doc, trace_id).render()
        })
    } else {
        let text = field("text");
        let query = match field("lang") {
            "xpath" => Query::xpath(text),
            "cq" => Query::cq(text),
            _ => Query::datalog(text),
        };
        let deadline = req.get("deadline_ms").and_then(Json::as_u64);
        let doc = tr.call(Stage::ReadLock, root, || {
            handle.read().expect("document poisoned")
        });
        let engine = tr.call(Stage::Engine, root, || doc.engine());
        let ir = tr
            .call(Stage::Lower, root, || engine.lower(&query))
            .expect("generated query lowers");
        let plan = tr
            .call(Stage::Explain, root, || engine.explain(&query))
            .expect("generated query plans");
        let token = match deadline {
            Some(ms) => CancelToken::with_deadline(Duration::from_millis(ms)),
            None => CancelToken::new(),
        };
        let (permit, verdict) = tr
            .call(Stage::Admit, root, || {
                sh.admission.admit(plan.cost, sh.admit_timeout)
            })
            .expect("replay admission never saturates");
        let started = Instant::now();
        let out = tr
            .call(Stage::Exec, root, || {
                engine.eval_ir_with_cancel(&ir, &token)
            })
            .expect("replayed query evaluates");
        let wall_us = started.elapsed().as_micros() as u64;
        info.strategy = Some(plan.strategy);
        info.heavy = is_heavy(&plan);
        info.parallel = plan.workers > 1;
        info.rows = row_count(&out);
        let reply = tr.call(Stage::Render, root, || {
            let body = query_body(
                id,
                doc_name,
                &plan,
                admission_str(verdict),
                wall_us,
                trace_id,
                rows_json(doc.tree(), &out),
            );
            // Rendered twice, as the session does: once to size the reply
            // for usage accounting, once onto the wire.
            let sized = std::hint::black_box(body.render()).len() + 1;
            let wire = body.render();
            debug_assert_eq!(sized, wire.len() + 1);
            wire
        });
        drop(permit);
        reply
    };
    info.reply_bytes = reply.len() + 1;
    tr.close(root);
    reply
}

/// One replay of every connection's stream.
pub struct Replay {
    /// Per connection: spans and per-request info (index = record index).
    pub spans: Vec<Vec<Span>>,
    pub info: Vec<Vec<ReqInfo>>,
    /// Rendered replies kept for the parity check, by `(conn, index)`.
    pub rendered: HashMap<(usize, usize), String>,
    /// Per-connection wall time of the first half of the timed requests,
    /// summed over connections.
    pub half_wall_s: f64,
    pub before: MetricsSnapshot,
    pub after: MetricsSnapshot,
    pub plan_entries: usize,
    pub refreezes: u64,
}

/// Replays every connection's stream; with spans off, only the warm-up
/// and the first half of the timed requests.
fn replay(w: Workload, seed: u64, log: &RunLog, ops: &[Vec<Op>], spans_on: bool) -> Replay {
    let sh = fresh_service(w, seed);
    let docs = w.docs(seed);
    let barrier = Barrier::new(ops.len() + 1);
    let epoch = Instant::now();
    let (results, before) = std::thread::scope(|s| {
        let handles: Vec<_> = ops
            .iter()
            .enumerate()
            .map(|(c, conn_ops)| {
                let (sh, docs, barrier) = (&sh, &docs, &barrier);
                let records = &log.conns[c].records;
                let warmup = log.conns[c].warmup;
                s.spawn(move || {
                    let mut tr = Tracer {
                        on: false,
                        epoch,
                        req: 0,
                        spans: Vec::new(),
                    };
                    let mut info = vec![ReqInfo::default(); conn_ops.len()];
                    let mut rendered = HashMap::new();
                    // The first half of the timed requests is timed on its
                    // own; a spans-off replay stops there.
                    let half = warmup + (conn_ops.len() - warmup) / 2;
                    let mut started = Instant::now();
                    let mut half_s = 0.0;
                    for (i, op) in conn_ops.iter().enumerate() {
                        if i == warmup {
                            barrier.wait();
                            barrier.wait();
                            tr.on = spans_on;
                            started = Instant::now();
                        }
                        if i == half {
                            half_s = started.elapsed().as_secs_f64();
                            if !spans_on {
                                break;
                            }
                        }
                        tr.req = i as u32;
                        info[i].timed = i >= warmup;
                        let line = op.request_line(docs);
                        let reply = serve_one(sh, &mut tr, &line, i as u64 + 1, &mut info[i]);
                        if spans_on && records[i].reply.is_some() && deterministic(w, c, op) {
                            rendered.insert((c, i), reply);
                        }
                    }
                    if warmup == conn_ops.len() {
                        barrier.wait();
                        barrier.wait();
                    }
                    (tr.spans, info, rendered, half_s)
                })
            })
            .collect();
        // Counters are read between the warm-up and the timed part.
        barrier.wait();
        let before = sh.catalog.metrics().snapshot_quiesced();
        barrier.wait();
        let out: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("replay thread panicked"))
            .collect();
        (out, before)
    });
    let mut replay = Replay {
        spans: Vec::new(),
        info: Vec::new(),
        rendered: HashMap::new(),
        half_wall_s: 0.0,
        before,
        after: sh.catalog.metrics().snapshot_quiesced(),
        plan_entries: sh.catalog.plan_cache().len(),
        refreezes: docs
            .iter()
            .map(|d| {
                let doc = sh
                    .catalog
                    .get(&d.name)
                    .expect("replayed document is loaded");
                let refreezes = doc.read().expect("document poisoned").refreeze_count();
                refreezes
            })
            .sum(),
    };
    for (spans, info, rendered, half_s) in results {
        replay.half_wall_s += half_s;
        replay.spans.push(spans);
        replay.info.push(info);
        replay.rendered.extend(rendered);
    }
    replay
}

/// The executor stage a strategy's kernel runs under (the stage names
/// `bench::suite` attributes allocations to).
pub fn kernel_stage(s: Strategy) -> &'static str {
    match s {
        Strategy::XPathSetAtATime => "exec.sweep",
        Strategy::XPathViaDatalog | Strategy::DatalogGround => "exec.ground_minoux",
        Strategy::XPathViaAcyclicCq | Strategy::CqAcyclic => "exec.semijoin",
        Strategy::CqRewriteUnion(_) => "exec.union",
        Strategy::CqXProperty(_) => "exec.arc_consistency",
        Strategy::CqBacktrack => "exec.backtrack",
        Strategy::XPathReference => "exec.reference",
    }
}

/// Result of the traced run.
pub struct Traced {
    pub figures: Vec<Metric>,
    pub parity_checked: usize,
    /// Replies that differ from the server's.
    pub parity_failed: usize,
    /// The first few of them, for the log.
    pub parity_notes: Vec<String>,
    /// Replies that differed only in the plan fields (a plan cached at an
    /// earlier document version, which depends on interleaving).
    pub parity_plan_only: usize,
    pub spans_file: Option<String>,
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1_000.0
}

pub fn run(w: Workload, seed: u64, log: &RunLog, ops: &[Vec<Op>], out_dir: &str) -> Traced {
    // Spans-off half replays on both sides of the spans-on replay, so
    // whatever the first replay of a process pays does not read as
    // overhead or as its absence.
    let off_before = replay(w, seed, log, ops, false).half_wall_s;
    let on = replay(w, seed, log, ops, true);
    let off = (off_before + replay(w, seed, log, ops, false).half_wall_s) / 2.0;
    let mut figs: Vec<Metric> = Vec::new();
    let mut push = |name: &str, value: f64, unit: &'static str, samples: usize| {
        figs.push(metric(name, value, unit, samples))
    };

    // Durations per stage over timed requests.
    let mut by_stage: HashMap<Stage, Vec<f64>> = HashMap::new();
    let mut by_edit: HashMap<&'static str, Vec<f64>> = HashMap::new();
    let mut by_kernel: HashMap<&'static str, Vec<f64>> = HashMap::new();
    let mut reply_kb = Vec::new();
    let (mut queries, mut heavy, mut parallel, mut rows) = (0usize, 0usize, 0usize, 0usize);
    let mut root_ns: HashMap<(usize, usize), u64> = HashMap::new();
    let mut request_self_us = Vec::new();
    for (c, spans) in on.spans.iter().enumerate() {
        let selfs = self_times(spans);
        for (k, s) in spans.iter().enumerate() {
            let d = us(s.dur_ns());
            by_stage.entry(s.stage).or_default().push(d);
            match s.stage {
                Stage::Request => {
                    root_ns.insert((c, s.req as usize), s.dur_ns());
                    request_self_us.push(us(selfs[k]));
                }
                Stage::Edit => {
                    let kind = on.info[c][s.req as usize].edit.unwrap_or("edit");
                    by_edit.entry(kind).or_default().push(d);
                }
                Stage::Exec => {
                    if let Some(st) = on.info[c][s.req as usize].strategy {
                        by_kernel.entry(kernel_stage(st)).or_default().push(d);
                    }
                }
                _ => {}
            }
        }
        for i in on.info[c].iter().filter(|i| i.timed) {
            reply_kb.push(i.reply_bytes as f64 / 1024.0);
            if i.edit.is_none() {
                queries += 1;
                heavy += usize::from(i.heavy);
                parallel += usize::from(i.parallel);
                rows += i.rows;
            }
        }
    }
    let stage = |s: Stage| by_stage.get(&s).map_or_else(Vec::new, Clone::clone);
    let q = queries.max(1) as f64;
    let d = |f: fn(&MetricsSnapshot) -> u64| (f(&on.after) - f(&on.before)) as f64;

    let read_frame = Summary::smoothed(&stage(Stage::ReadFrame));
    push("proto.parse_us_p50", read_frame.p50, "us", read_frame.n);
    let get = Summary::smoothed(&stage(Stage::CatalogGet));
    push("catalog.get_us_p50", get.p50, "us", get.n);
    let rl = Summary::smoothed(&stage(Stage::ReadLock));
    push("catalog.read_wait_us_p50", rl.p50, "us", rl.n);
    push("catalog.read_wait_us_p99", rl.p99, "us", rl.n);
    let wl = Summary::smoothed(&stage(Stage::WriteLock));
    push("catalog.write_wait_us_p99", wl.p99, "us", wl.n);
    let eng = Summary::smoothed(&stage(Stage::Engine));
    push("document.engine_us_p50", eng.p50, "us", eng.n);
    for kind in ["relabel", "insert", "delete"] {
        let s = Summary::smoothed(by_edit.get(kind).map_or(&[][..], Vec::as_slice));
        push(&format!("document.{kind}_us_p50"), s.p50, "us", s.n);
    }
    let all_edits = Summary::smoothed(&stage(Stage::Edit));
    push("document.edit_us_p99", all_edits.p99, "us", all_edits.n);
    push(
        "document.refreezes",
        on.refreezes as f64,
        "count",
        all_edits.n,
    );
    let lower = Summary::smoothed(&stage(Stage::Lower));
    push("ir.lower_us_p50", lower.p50, "us", lower.n);
    push(
        "ir.lowers_per_query",
        d(|m| m.queries_lowered) / q,
        "count",
        queries,
    );
    // The session gets its plan from `Engine::explain`, which lowers the
    // query a second time and then plans or hits the plan cache.
    let explain = Summary::smoothed(&stage(Stage::Explain));
    push("planner.plan_us_p50", explain.p50, "us", explain.n);
    let (hits, misses) = (d(|m| m.plan_cache_hits), d(|m| m.plan_cache_misses));
    push(
        "plan_cache.hit_ratio",
        hits / (hits + misses).max(1.0),
        "ratio",
        (hits + misses) as usize,
    );
    push(
        "plan_cache.lookups_per_query",
        (hits + misses) / q,
        "count",
        queries,
    );
    push("plan_cache.entries", on.plan_entries as f64, "count", 1);
    let adm = Summary::smoothed(&stage(Stage::Admit));
    push("admission.wait_us_p99", adm.p99, "us", adm.n);
    push("admission.heavy_share", heavy as f64 / q, "ratio", queries);
    let exec = Summary::smoothed(&stage(Stage::Exec));
    push("exec.us_p50", exec.p50, "us", exec.n);
    push("exec.us_p99", exec.p99, "us", exec.n);
    for k in [
        "exec.sweep",
        "exec.semijoin",
        "exec.ground_minoux",
        "exec.arc_consistency",
        "exec.union",
    ] {
        let s = Summary::smoothed(by_kernel.get(k).map_or(&[][..], Vec::as_slice));
        push(&format!("{k}.us_p50"), s.p50, "us", s.n);
    }
    push(
        "exec.nodes_swept_per_query",
        d(|m| m.nodes_swept) / q,
        "count",
        queries,
    );
    push(
        "exec.candidate_nodes_per_query",
        d(|m| m.candidate_nodes) / q,
        "count",
        queries,
    );
    push(
        "exec.union_parts_per_query",
        d(|m| m.union_parts) / q,
        "count",
        queries,
    );
    push("exec.rows_per_query", rows as f64 / q, "count", queries);
    push("pool.parallel_share", parallel as f64 / q, "ratio", queries);
    push(
        "pool.chunks_per_query",
        d(|m| m.parallel_chunks) / q,
        "count",
        queries,
    );
    push(
        "pool.kernels_per_query",
        d(|m| m.parallel_kernels) / q,
        "count",
        queries,
    );
    let render = Summary::smoothed(&stage(Stage::Render));
    push("json.render_us_p50", render.p50, "us", render.n);
    push("json.render_us_p99", render.p99, "us", render.n);
    let kb = Summary::smoothed(&reply_kb);
    push("json.reply_kb_p50", kb.p50, "KiB", kb.n);
    let req_self = Summary::smoothed(&request_self_us);
    push(
        "session.dispatch_self_us_p50",
        req_self.p50,
        "us",
        req_self.n,
    );

    // Wire: end-to-end round trip minus the in-process total of the same
    // request, overall and per reply-size band.
    let mut wire = Vec::new();
    let mut bands: [Vec<f64>; 3] = Default::default();
    for (c, cl) in log.conns.iter().enumerate() {
        for (i, r) in cl.records.iter().enumerate().filter(|(_, r)| r.timed) {
            if let Some(&inproc) = root_ns.get(&(c, i)) {
                let residual = us(r.rtt_ns()) - us(inproc);
                wire.push(residual);
                let band = match r.reply_bytes {
                    b if b < 8 << 10 => 0,
                    b if b < 64 << 10 => 1,
                    _ => 2,
                };
                bands[band].push(residual);
            }
        }
    }
    let ws = Summary::smoothed(&wire);
    push("session.wire_us_p50", ws.p50, "us", ws.n);
    push("session.wire_us_p99", ws.p99, "us", ws.n);
    for (band, samples) in ["lt8k", "8k_64k", "ge64k"].iter().zip(&bands) {
        let s = Summary::smoothed(samples);
        push(&format!("session.wire_us_p50.{band}"), s.p50, "us", s.n);
    }

    // Overhead of the spans: the first half of every stream with spans
    // on against the same half with spans off.
    let overhead = if off > 0.0 {
        (on.half_wall_s - off) / off * 100.0
    } else {
        0.0
    };
    push("trace.overhead_pct", overhead, "pct", queries);

    // Reply-render parity against what the server sent.
    let mut parity_checked = 0;
    let mut parity_failed = 0;
    let mut parity_notes = Vec::new();
    let mut parity_plan_only = 0;
    let plan_mask = |s: &str| {
        let mut m = mask(s);
        for key in [r#""strategy":"#, r#""cost":"#, r#""admission":"#] {
            if let Some(start) = m.find(key).map(|i| i + key.len() + 1) {
                if let Some(e) = m[start..].find('"') {
                    m.replace_range(start..start + e, "_");
                }
            }
        }
        m
    };
    let mut keys: Vec<_> = on.rendered.keys().copied().collect();
    keys.sort_unstable();
    for (c, i) in keys {
        let ours = &on.rendered[&(c, i)];
        let Some(theirs) = log.conns[c].records[i].reply.as_deref() else {
            continue;
        };
        if !log.conns[c].records[i].ok {
            continue;
        }
        parity_checked += 1;
        if mask(ours) != mask(theirs) {
            if plan_mask(ours) == plan_mask(theirs) {
                parity_plan_only += 1;
            } else {
                parity_failed += 1;
                if parity_notes.len() < 4 {
                    parity_notes.push(format!(
                        "conn {c} op {i}: server {:.160} / replay {:.160}",
                        mask(theirs),
                        mask(ours)
                    ));
                }
            }
        }
    }

    let spans_file = write_spans(w, seed, &on, out_dir).ok();
    Traced {
        figures: figs,
        parity_checked,
        parity_failed,
        parity_notes,
        parity_plan_only,
        spans_file,
    }
}

fn write_spans(w: Workload, seed: u64, r: &Replay, out_dir: &str) -> io::Result<String> {
    std::fs::create_dir_all(out_dir)?;
    let path = format!("{out_dir}/spans-{}-{seed}.csv", w.name());
    let mut f = io::BufWriter::new(std::fs::File::create(&path)?);
    writeln!(f, "conn,req,span,parent,name,start_ns,end_ns,self_ns")?;
    for (c, spans) in r.spans.iter().enumerate() {
        let selfs = self_times(spans);
        for (k, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or(String::new(), |p| p.to_string());
            writeln!(
                f,
                "{c},{},{k},{parent},{},{},{},{}",
                s.req,
                s.stage.name(),
                s.start_ns,
                s.end_ns,
                selfs[k]
            )?;
        }
    }
    f.flush()?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let sp = |stage, parent, start_ns, end_ns| Span {
            req: 0,
            stage,
            parent,
            start_ns,
            end_ns,
        };
        let spans = [
            sp(Stage::Request, None, 0, 100),
            sp(Stage::Lower, Some(0), 10, 30),
            sp(Stage::Exec, Some(0), 40, 90),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 50]);
    }
}
