//! The answer oracle, run after the timed window.
//!
//! Every query reply is checked against in-process evaluation on the same
//! seeded document. A document's state is the prefix of its owner's
//! edits applied so far, so each document is replayed once, edit by edit,
//! in an in-process [`Document`]:
//!
//! * a connection's reads of its own document see an exact version (the
//!   number of its own earlier edits);
//! * a read of another connection's document can see any version between
//!   the owner's edits acknowledged before the read was sent and those
//!   sent before its reply arrived — the reply must equal one of them.
//!
//! Edit replies (node count, fingerprint, edit count) and each document's
//! final `stats` fingerprint are checked against the same replay.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use treequery_core::{Document, Query};
use treequery_obs::{parse_json, Json};

use crate::client::{fnv1a, RunLog};
use crate::reply::answer_text;
use crate::workload::{Lang, Op, Stream, Template, TemplateSet, Workload};

#[derive(Default, Debug)]
pub struct Verdict {
    /// Replies checked (queries and edits).
    pub checked: usize,
    /// Replies that were `ok:false`.
    pub errors: usize,
    /// Disagreements with the replay (replies, loads, final stats).
    pub mismatches: usize,
    /// Timed operations whose reply disagreed with the replay.
    pub failed_ops: usize,
    /// The first few disagreements, for the log.
    pub notes: Vec<String>,
    /// Timed queries per planner strategy (from the in-process plan).
    pub strategies: BTreeMap<String, usize>,
}

impl Verdict {
    fn mismatch(&mut self, note: String, timed_op: bool) {
        self.mismatches += 1;
        self.failed_ops += usize::from(timed_op);
        if self.notes.len() < 8 {
            self.notes.push(note);
        }
    }

    fn merge(&mut self, other: Verdict) {
        self.checked += other.checked;
        self.errors += other.errors;
        self.mismatches += other.mismatches;
        self.failed_ops += other.failed_ops;
        for n in other.notes {
            if self.notes.len() < 8 {
                self.notes.push(n);
            }
        }
        for (k, v) in other.strategies {
            *self.strategies.entry(k).or_default() += v;
        }
    }
}

pub fn to_query(t: &Template) -> Query {
    match t.lang {
        Lang::XPath => Query::xpath(&t.text),
        Lang::Cq => Query::cq(&t.text),
        Lang::Datalog => Query::datalog(&t.text),
    }
}

/// Regenerates each connection's operations, aligned with its records.
pub fn regenerate(w: Workload, seed: u64, log: &RunLog) -> Vec<Vec<Op>> {
    let templates = Arc::new(TemplateSet::new(w));
    log.conns
        .iter()
        .enumerate()
        .map(|(c, cl)| {
            let mut warm = Stream::warmup(w, seed, c, Arc::clone(&templates));
            let own = log.loaded.get(c).map_or(0, |l| l.1);
            let mut timed = Stream::timed(w, seed, c, Arc::clone(&templates), own);
            (0..cl.records.len())
                .map(|i| {
                    if i < cl.warmup {
                        warm.next_op()
                    } else {
                        timed.next_op()
                    }
                })
                .collect()
        })
        .collect()
}

struct Read<'a> {
    lo: usize,
    hi: usize,
    template: &'a Arc<Template>,
    hash: u64,
    timed: bool,
    at: (usize, usize),
}

pub fn check(w: Workload, seed: u64, log: &RunLog, ops: &[Vec<Op>]) -> Verdict {
    let docs = w.docs(seed);
    let per_doc: Vec<Verdict> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..docs.len())
            .map(|d| {
                let spec = &docs[d];
                s.spawn(move || check_doc(d, spec, log, ops))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("oracle thread panicked"))
            .collect()
    });
    let mut v = Verdict::default();
    for dv in per_doc {
        v.merge(dv);
    }
    v
}

fn check_doc(d: usize, spec: &crate::workload::DocSpec, log: &RunLog, ops: &[Vec<Op>]) -> Verdict {
    let mut v = Verdict::default();
    let mut mirror = Document::new(spec.build());
    let (loaded_fp, loaded_nodes) = &log.loaded[d];
    if *loaded_fp != format!("{:016x}", mirror.fingerprint())
        || *loaded_nodes != mirror.tree().len()
    {
        v.mismatch(
            format!(
                "{}: loaded {loaded_fp}/{loaded_nodes} nodes, expected {:016x}/{}",
                spec.name,
                mirror.fingerprint(),
                mirror.tree().len()
            ),
            false,
        );
    }

    // The owner's edits in order (only `lookup_rw` edits; the owner of
    // document d is connection d).
    let mut edits = Vec::new();
    for (c, cl) in log.conns.iter().enumerate() {
        for (i, r) in cl.records.iter().enumerate() {
            if let Op::Edit { doc, op } = &ops[c][i] {
                if *doc == d {
                    edits.push((op, r));
                }
            }
        }
    }
    let mut reads = Vec::new();
    for (c, cl) in log.conns.iter().enumerate() {
        let mut own_edits = 0;
        for (i, r) in cl.records.iter().enumerate() {
            match &ops[c][i] {
                Op::Edit { .. } => own_edits += 1,
                Op::Query { doc, template, .. } if *doc == d => {
                    if !r.ok {
                        v.errors += 1;
                        continue;
                    }
                    let (lo, hi) = if c == d {
                        (own_edits, own_edits)
                    } else {
                        // The owner's edits are sequential, so both
                        // instants are sorted along the edit list.
                        (
                            edits.partition_point(|(_, e)| e.recv_ns <= r.send_ns),
                            edits.partition_point(|(_, e)| e.send_ns < r.recv_ns),
                        )
                    };
                    reads.push(Read {
                        lo,
                        hi,
                        template,
                        hash: r.answer_hash,
                        timed: r.timed,
                        at: (c, i),
                    });
                }
                Op::Query { .. } => {}
            }
        }
    }
    reads.sort_by_key(|r| r.lo);

    // Strategy per template, planned on the loaded document.
    let mut strategy: HashMap<*const Template, String> = HashMap::new();
    {
        let engine = mirror.engine();
        for r in &reads {
            strategy.entry(Arc::as_ptr(r.template)).or_insert_with(|| {
                match engine.explain(&to_query(r.template)) {
                    Ok(p) => p.strategy.to_string(),
                    Err(_) => "error".to_owned(),
                }
            });
            if r.timed {
                let s = strategy[&Arc::as_ptr(r.template)].clone();
                *v.strategies.entry(s).or_default() += 1;
            }
        }
    }

    let mut next = 0;
    let mut pending: Vec<&Read> = Vec::new();
    for k in 0..=edits.len() {
        while next < reads.len() && reads[next].lo <= k {
            pending.push(&reads[next]);
            next += 1;
        }
        let mut memo: HashMap<*const Template, u64> = HashMap::new();
        let engine = mirror.engine();
        pending.retain(|r| {
            let expected = *memo.entry(Arc::as_ptr(r.template)).or_insert_with(|| {
                match engine.eval(&to_query(r.template)) {
                    Ok(out) => fnv1a(answer_text(engine.tree(), &out).as_bytes()),
                    Err(_) => 0,
                }
            });
            if expected == r.hash {
                v.checked += 1;
                return false;
            }
            if r.hi <= k {
                v.checked += 1;
                v.mismatch(
                    format!(
                        "{} conn {} op {}: answer of {:?} matches no version in {}..={}",
                        spec.name, r.at.0, r.at.1, r.template.text, r.lo, r.hi
                    ),
                    r.timed,
                );
                return false;
            }
            true
        });
        drop(engine);
        if let Some((op, r)) = edits.get(k) {
            let applied = mirror.edit(op).is_some();
            v.checked += 1;
            if !r.ok {
                v.errors += 1;
                continue;
            }
            let reply = r.reply.as_deref().and_then(|s| parse_json(s).ok());
            let field = |key: &str| reply.as_ref().and_then(|j| j.get(key).cloned());
            let want = [
                ("applied", Json::from(usize::from(applied))),
                ("nodes", Json::from(mirror.tree().len())),
                (
                    "fingerprint",
                    Json::from(format!("{:016x}", mirror.fingerprint())),
                ),
                ("edits", Json::from(mirror.edit_count())),
            ];
            let wrong: Vec<String> = want
                .into_iter()
                .filter(|(key, expected)| field(key).as_ref() != Some(expected))
                .map(|(key, expected)| {
                    format!(
                        "{key} is {:?}, replay has {}",
                        field(key).map(|j| j.render()),
                        expected.render()
                    )
                })
                .collect();
            if !wrong.is_empty() {
                v.mismatch(
                    format!("{} edit {k} ({op}): {}", spec.name, wrong.join("; ")),
                    r.timed,
                );
            }
        }
    }
    for r in pending {
        v.mismatch(
            format!("{}: read {:?} never checked", spec.name, r.at),
            r.timed,
        );
    }

    // The server's final view of the document must equal the replay's.
    let fin = log.final_docs[d].get("doc");
    let got = |key: &str| fin.and_then(|j| j.get(key)).map(Json::render);
    let want = [
        ("nodes", Json::from(mirror.tree().len())),
        (
            "fingerprint",
            Json::from(format!("{:016x}", mirror.fingerprint())),
        ),
        ("edits", Json::from(mirror.edit_count())),
    ];
    for (key, expected) in want {
        v.checked += 1;
        if got(key) != Some(expected.render()) {
            v.mismatch(
                format!(
                    "{} final stats: {key} is {:?}, replay has {}",
                    spec.name,
                    got(key),
                    expected.render()
                ),
                false,
            );
        }
    }
    v
}
