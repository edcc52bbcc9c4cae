//! Per-tenant usage accounting: a lock-sharded table of counter handles
//! over the server's tenant-labeled metric families.
//!
//! The counters themselves live in the server's [`Registry`] as
//! `tenant`-labeled [`CounterFamily`]s — one source of truth, so the
//! `usage` verb, the `/tenants` exposition, and `/metrics` can never
//! disagree. What this table adds is the hot-path shape: looking a
//! tenant up in a family takes that family's mutex, and a query records
//! six quantities, so the request path would cross six mutexes per
//! query. Instead the table caches one [`TenantCounters`] block (nine
//! pre-resolved [`Counter`] handles) per tenant, sharded by tenant-name
//! hash across [`SHARDS`] locks so concurrent sessions for different
//! tenants don't serialize on one map.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use treequery_obs::metrics::{Counter, CounterFamily, Registry};
use treequery_obs::Json;

/// Shard count for the tenant → handle map (power of two).
pub const SHARDS: usize = 8;

/// The pre-resolved counter handles for one tenant.
pub struct TenantCounters {
    /// Successfully answered queries.
    pub queries: Counter,
    /// Cumulative evaluation wall time, nanoseconds.
    pub wall_ns: Counter,
    /// Result rows returned.
    pub rows: Counter,
    /// Reply bytes for successful queries: each reply's single wire
    /// write, body plus newline.
    pub resp_bytes: Counter,
    /// Queries that waited in the admission queue before running.
    pub admission_waits: Counter,
    /// Queries rejected because the admission wait timed out.
    pub admission_rejected: Counter,
    /// Queries that ended cancelled (explicit cancel or deadline).
    pub cancelled: Counter,
    /// Error responses other than cancellations and admission
    /// rejections.
    pub errors: Counter,
    /// Edit scripts applied.
    pub edits: Counter,
}

struct Families {
    queries: CounterFamily,
    wall_ns: CounterFamily,
    rows: CounterFamily,
    resp_bytes: CounterFamily,
    admission_waits: CounterFamily,
    admission_rejected: CounterFamily,
    cancelled: CounterFamily,
    errors: CounterFamily,
    edits: CounterFamily,
}

/// The sharded tenant table. Construction registers the nine
/// `treequery_tenant_*` families into the server's registry.
pub struct UsageTable {
    families: Families,
    shards: [Mutex<HashMap<String, Arc<TenantCounters>>>; SHARDS],
}

fn shard_of(tenant: &str) -> usize {
    // FNV-1a; only the shard index matters, not distribution quality.
    let mut h: u64 = 0xcbf29ce484222325;
    for b in tenant.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    (h as usize) & (SHARDS - 1)
}

impl UsageTable {
    /// A table whose counter families are registered in `registry`.
    pub fn new(registry: &Registry) -> UsageTable {
        let fam = |name, help| registry.counter_family(name, help, "tenant");
        UsageTable {
            families: Families {
                queries: fam(
                    "treequery_tenant_queries",
                    "Successfully answered queries per tenant.",
                ),
                wall_ns: fam(
                    "treequery_tenant_wall_ns",
                    "Cumulative evaluation wall time per tenant, nanoseconds.",
                ),
                rows: fam("treequery_tenant_rows", "Result rows returned per tenant."),
                resp_bytes: fam(
                    "treequery_tenant_resp_bytes",
                    "Serialized response bytes per tenant (successful queries).",
                ),
                admission_waits: fam(
                    "treequery_tenant_admission_waits",
                    "Queries that queued for a heavy-lane slot per tenant.",
                ),
                admission_rejected: fam(
                    "treequery_tenant_admission_rejected",
                    "Queries rejected by admission timeout per tenant.",
                ),
                cancelled: fam(
                    "treequery_tenant_cancelled",
                    "Queries cancelled (explicitly or by deadline) per tenant.",
                ),
                errors: fam(
                    "treequery_tenant_errors",
                    "Other error responses per tenant.",
                ),
                edits: fam("treequery_tenant_edits", "Edit scripts applied per tenant."),
            },
            shards: std::array::from_fn(|_| Mutex::new(HashMap::new())),
        }
    }

    /// The counter block for `tenant`, resolved through the shard cache.
    pub fn handle(&self, tenant: &str) -> Arc<TenantCounters> {
        let mut shard = self.shards[shard_of(tenant)]
            .lock()
            .expect("usage shard poisoned");
        Arc::clone(shard.entry(tenant.to_owned()).or_insert_with(|| {
            let f = &self.families;
            Arc::new(TenantCounters {
                queries: f.queries.with_label(tenant),
                wall_ns: f.wall_ns.with_label(tenant),
                rows: f.rows.with_label(tenant),
                resp_bytes: f.resp_bytes.with_label(tenant),
                admission_waits: f.admission_waits.with_label(tenant),
                admission_rejected: f.admission_rejected.with_label(tenant),
                cancelled: f.cancelled.with_label(tenant),
                errors: f.errors.with_label(tenant),
                edits: f.edits.with_label(tenant),
            })
        }))
    }

    /// Ensures `tenant` exists in the table (and the expositions) even
    /// before it records anything — called at `hello`, so a freshly
    /// declared tenant is immediately visible in `/tenants`.
    pub fn touch(&self, tenant: &str) {
        self.handle(tenant);
    }

    /// Records one successful query.
    pub fn record_query(
        &self,
        tenant: &str,
        wall_ns: u64,
        rows: u64,
        resp_bytes: u64,
        queued: bool,
    ) {
        let h = self.handle(tenant);
        h.queries.inc();
        h.wall_ns.add(wall_ns);
        h.rows.add(rows);
        h.resp_bytes.add(resp_bytes);
        if queued {
            h.admission_waits.inc();
        }
    }

    /// Records one applied edit script.
    pub fn record_edit(&self, tenant: &str) {
        self.handle(tenant).edits.inc();
    }

    /// Records one error response by its structured code, bucketing
    /// cancellations and admission rejections separately.
    pub fn record_error_code(&self, tenant: &str, code: &str) {
        let h = self.handle(tenant);
        match code {
            "cancelled" | "deadline_exceeded" => h.cancelled.inc(),
            "admission_rejected" => h.admission_rejected.inc(),
            _ => h.errors.inc(),
        }
    }

    /// Tenants currently known, sorted.
    pub fn tenants(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .shards
            .iter()
            .flat_map(|s| {
                s.lock()
                    .expect("usage shard poisoned")
                    .keys()
                    .cloned()
                    .collect::<Vec<_>>()
            })
            .collect();
        names.sort();
        names
    }

    /// The `usage` verb's `tenants` array: one object per tenant,
    /// name-sorted (deterministic for transcript goldens).
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.tenants()
                .into_iter()
                .map(|name| {
                    let h = self.handle(&name);
                    Json::obj()
                        .set("tenant", name.as_str())
                        .set("queries", h.queries.get())
                        .set("wall_ns", h.wall_ns.get())
                        .set("rows", h.rows.get())
                        .set("resp_bytes", h.resp_bytes.get())
                        .set("admission_waits", h.admission_waits.get())
                        .set("admission_rejected", h.admission_rejected.get())
                        .set("cancelled", h.cancelled.get())
                        .set("errors", h.errors.get())
                        .set("edits", h.edits.get())
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use treequery_obs::prom;

    #[test]
    fn recording_flows_into_the_registry_families() {
        let r = Registry::new();
        let t = UsageTable::new(&r);
        t.record_query("alpha", 1_000, 3, 120, false);
        t.record_query("alpha", 2_000, 1, 80, true);
        t.record_query("beta", 500, 0, 40, false);
        t.record_edit("alpha");
        t.record_error_code("beta", "cancelled");
        t.record_error_code("beta", "deadline_exceeded");
        t.record_error_code("beta", "admission_rejected");
        t.record_error_code("alpha", "no_such_document");
        let text = prom::render_prefixed(&r, "treequery_tenant_");
        assert!(text.contains("treequery_tenant_queries{tenant=\"alpha\"} 2\n"));
        assert!(text.contains("treequery_tenant_wall_ns{tenant=\"alpha\"} 3000\n"));
        assert!(text.contains("treequery_tenant_rows{tenant=\"alpha\"} 4\n"));
        assert!(text.contains("treequery_tenant_resp_bytes{tenant=\"alpha\"} 200\n"));
        assert!(text.contains("treequery_tenant_admission_waits{tenant=\"alpha\"} 1\n"));
        assert!(text.contains("treequery_tenant_cancelled{tenant=\"beta\"} 2\n"));
        assert!(text.contains("treequery_tenant_admission_rejected{tenant=\"beta\"} 1\n"));
        assert!(text.contains("treequery_tenant_errors{tenant=\"alpha\"} 1\n"));
        assert!(text.contains("treequery_tenant_edits{tenant=\"alpha\"} 1\n"));
        prom::validate_exposition(&text).expect("tenant exposition validates");
    }

    #[test]
    fn to_json_is_name_sorted_and_complete() {
        let r = Registry::new();
        let t = UsageTable::new(&r);
        t.touch("zeta");
        t.record_query("alpha", 10, 2, 30, false);
        let v = t.to_json();
        let rows = v.as_arr().unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].get("tenant").unwrap().as_str(), Some("alpha"));
        assert_eq!(rows[0].get("queries").unwrap().as_u64(), Some(1));
        assert_eq!(rows[1].get("tenant").unwrap().as_str(), Some("zeta"));
        assert_eq!(rows[1].get("queries").unwrap().as_u64(), Some(0));
    }

    #[test]
    fn handles_are_cached_per_shard() {
        let r = Registry::new();
        let t = UsageTable::new(&r);
        let a = t.handle("alpha");
        let b = t.handle("alpha");
        assert!(Arc::ptr_eq(&a, &b));
        // Hostile tenant names shard and render without issue.
        t.record_query("evil\"tenant\\with\nnewline", 1, 1, 1, false);
        let text = prom::render_prefixed(&r, "treequery_tenant_");
        prom::validate_exposition(&text).expect("hostile tenant name validates");
    }
}
