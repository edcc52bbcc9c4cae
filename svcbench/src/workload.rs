//! The three workloads: their documents, query templates, and the
//! per-connection request streams generated from the workload seed.
//!
//! A stream is a pure function of `(workload, seed, connection)`: the
//! closed-loop run, the answer oracle and the traced replay each build
//! their own copy and walk it in step, so nothing about the requests has
//! to be stored. Documents travel as `load` requests naming an XMark
//! size and seed (the 1 MiB frame cap rules out shipping large trees as
//! terms); [`DocSpec::build`] rebuilds the identical tree in-process.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use treequery_obs::Json;
use treequery_tree::{xmark_document, EditOp, Tree, XmarkConfig};

/// Connections of the closed loop (one per core of the machine the
/// benchmark was sized on; the protocol is synchronous per connection).
pub const CONNECTIONS: usize = 2;

/// Labels the `lookup_rw` edits write (relabels and inserted leaves).
/// Queries name them too, so edits change answers the oracle checks.
pub const EDIT_LABELS: [&str; 8] = [
    "tag0", "tag1", "tag2", "tag3", "tag4", "tag5", "tag6", "tag7",
];

/// Outstanding inserted leaves per connection before the edit mix
/// forces a delete; bounds how far the document can drift from its
/// loaded size.
pub const MAX_OUTSTANDING_INSERTS: usize = 24;

/// Share of `lookup_rw` operations that are edits.
const LOOKUP_EDIT_SHARE: f64 = 0.1;

/// Deadline every `analytic_heavy` query carries, generous enough that
/// a healthy server never hits it.
const ANALYTIC_DEADLINE_MS: u64 = 5_000;

/// `scan_large` classes per cycle of 20 requests: 5 replies under 8 KiB,
/// 12 of 8-64 KiB, 2 of a few hundred KiB, 1 of the whole document
/// (`//*`, about 2 MiB). The median falls inside the 8-64 KiB cluster,
/// not on a boundary between classes, where it would jump from seed to
/// seed.
const SCAN_CYCLE: [usize; 20] = [0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 3];

/// `analytic_heavy` classes per cycle: one ground+Minoux program, three
/// X-property CQs and one rewrite union. The median falls inside the
/// X-property cluster; the p99 in the ground+Minoux tail.
const ANALYTIC_CYCLE: [usize; 5] = [0, 1, 1, 1, 2];

/// Zipf exponent of the template popularity.
const ZIPF_EXPONENT: f64 = 1.0;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    LookupRw,
    ScanLarge,
    AnalyticHeavy,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::LookupRw,
        Workload::ScanLarge,
        Workload::AnalyticHeavy,
    ];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::LookupRw => "lookup_rw",
            Workload::ScanLarge => "scan_large",
            Workload::AnalyticHeavy => "analytic_heavy",
        }
    }

    /// The documents the workload loads. `xmark: n` yields about `2n`
    /// nodes.
    pub fn docs(self, seed: u64) -> Vec<DocSpec> {
        let spec = |name: &str, xmark: u64, i: u64| DocSpec {
            name: name.to_owned(),
            xmark,
            seed: mix(seed, 0xD0C0 + i),
        };
        match self {
            Workload::LookupRw => (0..CONNECTIONS as u64)
                .map(|c| spec(&format!("d{c}"), 20_000, c))
                .collect(),
            Workload::ScanLarge => vec![spec("big", 150_000, 0)],
            Workload::AnalyticHeavy => vec![spec("a", 20_000, 0)],
        }
    }

    /// Read-only warm-up requests per connection before timing starts.
    pub fn warmup_ops(self) -> usize {
        match self {
            Workload::LookupRw => 400,
            Workload::ScanLarge => 40,
            Workload::AnalyticHeavy => 40,
        }
    }
}

/// A seeded XMark document as the `load` verb describes it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DocSpec {
    pub name: String,
    pub xmark: u64,
    pub seed: u64,
}

impl DocSpec {
    /// The tree the server builds for this document's `load` request.
    pub fn build(&self) -> Tree {
        let mut rng = StdRng::seed_from_u64(self.seed);
        xmark_document(&mut rng, &XmarkConfig::scaled_to(self.xmark as usize))
    }

    pub fn load_line(&self) -> String {
        Json::obj()
            .set("verb", "load")
            .set("name", self.name.as_str())
            .set("xmark", self.xmark)
            .set("seed", self.seed)
            .render()
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Lang {
    XPath,
    Cq,
    Datalog,
}

impl Lang {
    pub fn wire(self) -> &'static str {
        match self {
            Lang::XPath => "xpath",
            Lang::Cq => "cq",
            Lang::Datalog => "datalog",
        }
    }
}

/// One query template: language plus text.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Template {
    pub lang: Lang,
    pub text: String,
}

/// One generated operation.
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    Query {
        doc: usize,
        template: Arc<Template>,
        deadline_ms: Option<u64>,
    },
    Edit {
        doc: usize,
        op: EditOp,
    },
}

impl Op {
    /// The document the operation targets.
    pub fn doc(&self) -> usize {
        match self {
            Op::Query { doc, .. } | Op::Edit { doc, .. } => *doc,
        }
    }

    /// The request frame (without the trailing newline).
    pub fn request_line(&self, docs: &[DocSpec]) -> String {
        match self {
            Op::Query {
                doc,
                template,
                deadline_ms,
            } => {
                let mut req = Json::obj()
                    .set("verb", "query")
                    .set("doc", docs[*doc].name.as_str())
                    .set("lang", template.lang.wire())
                    .set("text", template.text.as_str());
                if let Some(ms) = deadline_ms {
                    req = req.set("deadline_ms", *ms);
                }
                req.render()
            }
            Op::Edit { doc, op } => Json::obj()
                .set("verb", "edit")
                .set("doc", docs[*doc].name.as_str())
                .set("script", op.to_string())
                .render(),
        }
    }
}

/// SplitMix64 finalizer: derives independent sub-seeds.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A workload's template space: templates in classes, the class mix of
/// one request cycle, and (for a single class) a Zipf popularity order.
pub struct TemplateSet {
    /// Templates per class. With one class, in popularity order (index
    /// 0 is the hottest).
    classes: Vec<Vec<Arc<Template>>>,
    /// The classes of one request cycle; each stream shuffles a copy per
    /// cycle, so class shares are exact, not sampled.
    cycle: Vec<usize>,
    /// Cumulative Zipf weights over ranks (single-class sets only),
    /// normalized to end at 1.
    zipf_cdf: Option<Vec<f64>>,
}

impl TemplateSet {
    pub fn new(w: Workload) -> TemplateSet {
        let arc = |v: Vec<Template>| v.into_iter().map(Arc::new).collect::<Vec<_>>();
        match w {
            Workload::LookupRw => {
                // A fixed popularity order: which templates are hot is
                // part of the workload, not of the seed.
                let mut by_rank = arc(lookup_templates());
                by_rank.shuffle(&mut StdRng::seed_from_u64(0x7E3B));
                let mut acc = 0.0;
                let mut cdf: Vec<f64> = (0..by_rank.len())
                    .map(|k| {
                        acc += 1.0 / ((k + 1) as f64).powf(ZIPF_EXPONENT);
                        acc
                    })
                    .collect();
                for c in &mut cdf {
                    *c /= acc;
                }
                TemplateSet {
                    classes: vec![by_rank],
                    cycle: vec![0],
                    zipf_cdf: Some(cdf),
                }
            }
            Workload::ScanLarge => TemplateSet {
                classes: scan_bands().into_iter().map(arc).collect(),
                cycle: SCAN_CYCLE.to_vec(),
                zipf_cdf: None,
            },
            Workload::AnalyticHeavy => TemplateSet {
                classes: analytic_templates().into_iter().map(arc).collect(),
                cycle: ANALYTIC_CYCLE.to_vec(),
                zipf_cdf: None,
            },
        }
    }

    /// Draws a template of class `class`: Zipf-ranked for a single-class
    /// set, uniform within the class otherwise.
    fn draw(&self, rng: &mut StdRng, class: usize) -> Arc<Template> {
        let c = &self.classes[class];
        let k = match &self.zipf_cdf {
            Some(cdf) => {
                let u = unit(rng);
                cdf.partition_point(|&x| x < u)
            }
            None => rng.gen_range(0..c.len()),
        };
        Arc::clone(&c[k.min(c.len() - 1)])
    }
}

fn unit(rng: &mut StdRng) -> f64 {
    (rng.gen::<u64>() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// The `lookup_rw` edit model: tracks the connection's own document
/// size and the pre ranks of the leaves it inserted, so deletes always
/// remove one of its own leaves and the size stays stationary.
#[derive(Clone, Debug)]
pub struct EditModel {
    nodes: u32,
    /// Pre ranks of inserted leaves not yet deleted.
    outstanding: Vec<u32>,
}

impl EditModel {
    pub fn new(nodes: usize) -> EditModel {
        EditModel {
            nodes: nodes as u32,
            outstanding: Vec::new(),
        }
    }

    /// Current node count of the modelled document.
    #[cfg(test)]
    pub fn nodes(&self) -> usize {
        self.nodes as usize
    }

    /// 70% relabels, 15% inserts, 15% deletes of an inserted leaf; with
    /// no leaf outstanding, relabel or insert evenly; with the cap
    /// outstanding, delete.
    fn next(&mut self, rng: &mut StdRng) -> EditOp {
        let label = EDIT_LABELS[rng.gen_range(0..EDIT_LABELS.len())].to_owned();
        let r = unit(rng);
        let kind = if self.outstanding.len() >= MAX_OUTSTANDING_INSERTS {
            2
        } else if self.outstanding.is_empty() {
            usize::from(r >= 0.5)
        } else if r < 0.7 {
            0
        } else if r < 0.85 {
            1
        } else {
            2
        };
        match kind {
            0 => EditOp::Relabel {
                pre: rng.gen_range(1..self.nodes),
                label,
            },
            1 => {
                // Never insert under one of our own leaves: a later
                // delete of that leaf would take the child with it.
                let parent = loop {
                    let p = rng.gen_range(0..self.nodes);
                    if !self.outstanding.contains(&p) {
                        break p;
                    }
                };
                // As first child, the new leaf lands right after its
                // parent in document order.
                let at = parent + 1;
                for q in &mut self.outstanding {
                    if *q >= at {
                        *q += 1;
                    }
                }
                self.outstanding.push(at);
                self.nodes += 1;
                EditOp::InsertLeaf {
                    parent_pre: parent,
                    child_idx: 0,
                    label,
                }
            }
            _ => {
                let gone = self
                    .outstanding
                    .swap_remove(rng.gen_range(0..self.outstanding.len()));
                for q in &mut self.outstanding {
                    if *q > gone {
                        *q -= 1;
                    }
                }
                self.nodes -= 1;
                EditOp::DeleteSubtree { pre: gone }
            }
        }
    }
}

/// One connection's request stream.
pub struct Stream {
    workload: Workload,
    conn: usize,
    docs: usize,
    rng: StdRng,
    templates: Arc<TemplateSet>,
    edits: Option<EditModel>,
    /// Template classes left in the current cycle.
    cycle: Vec<usize>,
}

impl Stream {
    /// The timed stream of connection `conn`. `own_nodes` is the loaded
    /// size of the connection's own document (used by `lookup_rw`).
    pub fn timed(
        w: Workload,
        seed: u64,
        conn: usize,
        templates: Arc<TemplateSet>,
        own_nodes: usize,
    ) -> Stream {
        Stream {
            workload: w,
            conn,
            docs: w.docs(seed).len(),
            rng: StdRng::seed_from_u64(mix(seed, 0x5EED_0000 + conn as u64)),
            templates,
            edits: (w == Workload::LookupRw).then(|| EditModel::new(own_nodes)),
            cycle: Vec::new(),
        }
    }

    /// The read-only warm-up stream of connection `conn`.
    pub fn warmup(w: Workload, seed: u64, conn: usize, templates: Arc<TemplateSet>) -> Stream {
        Stream {
            workload: w,
            conn,
            docs: w.docs(seed).len(),
            rng: StdRng::seed_from_u64(mix(seed, 0x3A53_0000 + conn as u64)),
            templates,
            edits: None,
            cycle: Vec::new(),
        }
    }

    /// The connection's edit model (`lookup_rw` timed streams only).
    #[cfg(test)]
    pub fn edit_model(&self) -> Option<&EditModel> {
        self.edits.as_ref()
    }

    pub fn next_op(&mut self) -> Op {
        if let Some(model) = &mut self.edits {
            if unit(&mut self.rng) < LOOKUP_EDIT_SHARE {
                return Op::Edit {
                    doc: self.conn,
                    op: model.next(&mut self.rng),
                };
            }
        }
        let doc = match self.workload {
            // Reads spread over both documents: own and the peer's.
            Workload::LookupRw => {
                if self.rng.gen_bool(0.5) {
                    self.conn
                } else {
                    (self.conn + 1) % self.docs
                }
            }
            _ => 0,
        };
        if self.cycle.is_empty() {
            self.cycle = self.templates.cycle.clone();
            self.cycle.shuffle(&mut self.rng);
        }
        let class = self.cycle.pop().expect("cycles are non-empty");
        let template = self.templates.draw(&mut self.rng, class);
        let deadline_ms =
            (self.workload == Workload::AnalyticHeavy).then_some(ANALYTIC_DEADLINE_MS);
        Op::Query {
            doc,
            template,
            deadline_ms,
        }
    }
}

fn xpath(text: String) -> Template {
    Template {
        lang: Lang::XPath,
        text,
    }
}

fn cq(text: String) -> Template {
    Template {
        lang: Lang::Cq,
        text,
    }
}

const REGIONS: [&str; 6] = [
    "africa",
    "asia",
    "australia",
    "europe",
    "namerica",
    "samerica",
];

/// Parent label -> child labels of the XMark generator's schema.
const SCHEMA: [(&str, &[&str]); 20] = [
    (
        "site",
        &[
            "regions",
            "people",
            "open_auctions",
            "closed_auctions",
            "categories",
            "catgraph",
        ],
    ),
    (
        "item",
        &[
            "location",
            "quantity",
            "name",
            "payment",
            "description",
            "shipping",
            "incategory",
        ],
    ),
    ("description", &["text", "parlist"]),
    ("parlist", &["listitem"]),
    ("listitem", &["parlist", "text"]),
    ("shipping", &["text"]),
    ("incategory", &["category_ref"]),
    (
        "person",
        &[
            "name",
            "emailaddress",
            "address",
            "homepage",
            "profile",
            "watches",
        ],
    ),
    ("address", &["street", "city", "country", "zipcode"]),
    ("profile", &["interest", "education", "business"]),
    ("watches", &["watch"]),
    (
        "open_auction",
        &[
            "initial",
            "reserve",
            "bidder",
            "current",
            "itemref",
            "seller",
            "annotation",
            "quantity",
            "type",
            "interval",
        ],
    ),
    ("bidder", &["date", "time", "personref", "increase"]),
    ("annotation", &["author", "description"]),
    ("interval", &["start", "end"]),
    (
        "closed_auction",
        &[
            "seller",
            "buyer",
            "itemref",
            "price",
            "date",
            "quantity",
            "type",
            "annotation",
        ],
    ),
    ("category", &["name", "description"]),
    ("edge", &["from", "to"]),
    (
        "regions",
        &[
            "africa",
            "asia",
            "australia",
            "europe",
            "namerica",
            "samerica",
        ],
    ),
    ("people", &["person"]),
];

/// Parents whose child steps answer with a thousand rows or more on the
/// ~40k-node documents (replies over 8 KiB); `lookup_rw` names them only
/// together with an edit label.
const BULKY_PARENTS: [&str; 5] = ["item", "description", "parlist", "listitem", "shipping"];

/// `lookup_rw`: linear-plan XPath and acyclic CQs with small answers
/// (every one under 8 KiB of reply on the ~40k-node documents). Most
/// name the labels the edits write, so answers are tiny, kernels run on
/// short posting lists, and edits change what the oracle must see; the
/// rest are schema paths.
pub fn lookup_templates() -> Vec<Template> {
    let mut t = Vec::new();
    for (parent, children) in SCHEMA {
        if BULKY_PARENTS.contains(&parent) {
            continue;
        }
        for c in children {
            t.push(xpath(format!("//{parent}/{c}")));
            t.push(cq(format!(
                "q(y) :- label(x, {parent}), child(x, y), label(y, {c})."
            )));
        }
    }
    for (i, tag) in EDIT_LABELS.iter().enumerate() {
        t.push(xpath(format!("//{tag}")));
        for (host, children) in SCHEMA {
            t.push(xpath(format!("//{host}[{tag}]")));
            t.push(xpath(format!("//{host}/{tag}")));
            t.push(xpath(format!("//{host}//{tag}")));
            t.push(cq(format!(
                "q(x) :- label(x, {host}), child(x, y), label(y, {tag})."
            )));
            t.push(cq(format!(
                "q(y) :- label(x, {host}), child+(x, y), label(y, {tag})."
            )));
            for other in &EDIT_LABELS[i + 1..] {
                t.push(xpath(format!("//{host}[{tag} and {other}]")));
            }
            for c in children.iter() {
                t.push(xpath(format!("//{host}[{tag}]/{c}")));
                t.push(cq(format!(
                    "q(x) :- label(x, {host}), child(x, y), label(y, {tag}), child(x, z), label(z, {c})."
                )));
            }
        }
    }
    t
}

/// `scan_large` templates by reply size on the ~300k-node document:
/// under 8 KiB, 8-64 KiB, a few hundred KiB, and the whole document.
pub fn scan_bands() -> [Vec<Template>; 4] {
    let mut small = Vec::new();
    for r in REGIONS {
        for p in ["[incategory]", "[incategory and description/parlist]"] {
            for o in ["name", "quantity"] {
                small.push(xpath(format!("/site/regions/{r}/item{p}/{o}")));
            }
        }
    }
    for p in [
        "[profile and watches and homepage]",
        "[address and homepage and not(profile)]",
        "[watches and not(address)]",
    ] {
        small.push(xpath(format!("/site/people/person{p}/name")));
    }
    small.push(cq(
        "q(x) :- label(x, person), child(x, y), label(y, homepage), child(x, z), label(z, watches), child(x, w), label(w, profile).".to_owned(),
    ));

    let medium = vec![
        xpath("//person/name".to_owned()),
        xpath("//item/name".to_owned()),
        xpath("//open_auction[bidder]/seller".to_owned()),
        xpath("/site/people/person[address and not(homepage)]/emailaddress".to_owned()),
        xpath("//person[profile]/name".to_owned()),
        xpath("//closed_auction/price".to_owned()),
        xpath("//category/name".to_owned()),
        xpath("//open_auction/seller".to_owned()),
        cq("q(y) :- label(x, person), child(x, y), label(y, emailaddress).".to_owned()),
        cq("q(x) :- label(x, open_auction), child(x, y), label(y, bidder).".to_owned()),
    ];

    let large = vec![
        xpath("//text".to_owned()),
        xpath("//listitem".to_owned()),
        xpath("//description//*".to_owned()),
        cq("q(x, y) :- label(x, person), child(x, y).".to_owned()),
    ];
    [small, medium, large, vec![xpath("//*".to_owned())]]
}

/// `analytic_heavy`: queries the planner itself sends to ground+Minoux,
/// the X-property arc-consistency kernel, and rewrite unions, one class
/// each.
pub fn analytic_templates() -> [Vec<Template>; 3] {
    let (mut ground, mut xprop, mut union) = (Vec::new(), Vec::new(), Vec::new());
    for (seedlab, host) in [
        ("city", "person"),
        ("watch", "person"),
        ("interest", "person"),
        ("increase", "open_auction"),
        ("parlist", "open_auction"),
        ("author", "closed_auction"),
        ("parlist", "closed_auction"),
        ("parlist", "category"),
        ("text", "category"),
        ("listitem", "annotation"),
        ("zipcode", "address"),
        ("business", "profile"),
    ] {
        ground.push(Template {
            lang: Lang::Datalog,
            text: format!(
                "P(x) :- label(x, {seedlab}). P(x0) :- firstchild(x0, x), P(x). \
                 P(x0) :- nextsibling(x0, x), P(x). Q(x) :- P(x), label(x, {host}). ?- Q."
            ),
        });
    }
    for (a, b, c) in [
        ("person", "address", "city"),
        ("person", "profile", "interest"),
        ("person", "watches", "watch"),
        ("open_auction", "bidder", "increase"),
        ("open_auction", "annotation", "text"),
        ("closed_auction", "annotation", "listitem"),
        ("site", "people", "zipcode"),
        ("site", "regions", "location"),
        ("regions", "item", "text"),
        ("category", "description", "parlist"),
        ("item", "description", "listitem"),
        ("people", "person", "business"),
    ] {
        xprop.push(cq(format!(
            "child+(x, y), child+(y, z), child+(x, z), label(x, {a}), label(y, {b}), label(z, {c})"
        )));
    }
    for (a, w) in [
        ("person", "city"),
        ("person", "interest"),
        ("person", "watch"),
        ("open_auction", "date"),
        ("open_auction", "text"),
        ("closed_auction", "text"),
        ("closed_auction", "listitem"),
        ("category", "text"),
        ("address", "zipcode"),
        ("profile", "business"),
        ("annotation", "parlist"),
        ("watches", "watch"),
    ] {
        union.push(cq(format!(
            "q(x) :- child+(x, y), child+(x, z), child+(y, w), child+(z, w), label(x, {a}), label(w, {w})."
        )));
    }
    [ground, xprop, union]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ops(w: Workload, seed: u64, conn: usize, n: usize) -> Vec<String> {
        let docs = w.docs(seed);
        let set = Arc::new(TemplateSet::new(w));
        let mut s = Stream::timed(w, seed, conn, set, 40_000);
        (0..n).map(|_| s.next_op().request_line(&docs)).collect()
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        for w in Workload::ALL {
            let a = ops(w, 7, 0, 500);
            assert_eq!(a, ops(w, 7, 0, 500), "{}", w.name());
            assert_ne!(a, ops(w, 8, 0, 500), "{}", w.name());
            assert_ne!(a, ops(w, 7, 1, 500), "{}", w.name());
            assert_eq!(w.docs(7), w.docs(7));
            assert_ne!(w.docs(7), w.docs(8));
        }
    }

    #[test]
    fn lookup_template_space_has_thousands_of_distinct_texts() {
        let t = lookup_templates();
        let distinct: std::collections::HashSet<_> = t.iter().collect();
        assert_eq!(distinct.len(), t.len());
        assert!(t.len() >= 2000, "{}", t.len());
    }

    #[test]
    fn lookup_replies_stay_under_8_kib() {
        use treequery_core::Document;
        let doc = Document::new(Workload::LookupRw.docs(1)[0].build());
        let engine = doc.engine();
        for t in lookup_templates() {
            let out = engine.eval(&crate::oracle::to_query(&t)).unwrap();
            let answer = crate::reply::answer_text(doc.tree(), &out);
            // The fields before the answer take under 200 bytes.
            assert!(
                answer.len() + 200 < 8 << 10,
                "{} answers {} bytes",
                t.text,
                answer.len()
            );
        }
    }

    #[test]
    fn lookup_edit_mix_keeps_the_document_size_stationary() {
        use treequery_core::Document;
        let w = Workload::LookupRw;
        let spec = &w.docs(3)[0];
        let mut doc = Document::new(spec.build());
        let start = doc.tree().len();
        let set = Arc::new(TemplateSet::new(w));
        let mut s = Stream::timed(w, 3, 0, set, start);
        let (mut edits, mut deletes) = (0, 0);
        for _ in 0..30_000 {
            if let Op::Edit { op, .. } = s.next_op() {
                let before = doc.tree().len();
                let delta = doc.edit(&op).expect("every generated edit applies");
                edits += 1;
                if let EditOp::DeleteSubtree { .. } = op {
                    // Deletes hit a leaf this stream inserted.
                    assert_eq!(before - doc.tree().len(), 1, "{delta:?}");
                    deletes += 1;
                }
                let model = s.edit_model().unwrap().nodes();
                assert_eq!(model, doc.tree().len());
                assert!(model >= start && model <= start + MAX_OUTSTANDING_INSERTS);
            }
        }
        assert!(edits > 2_000, "{edits}");
        assert!(deletes > 200, "{deletes}");
    }
}
