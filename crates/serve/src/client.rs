//! Transcript replay client: the CI gate's and the conformance suite's
//! way of driving a live server deterministically.
//!
//! A transcript is JSON lines; `#`-prefixed lines are comments. Each
//! line is a request, except that keys starting with `_` are replay
//! directives, stripped before the request goes on the wire:
//!
//! * `_conn` — which connection to use (default `"main"`); connections
//!   open lazily, so multi-connection scripts (the cancel dance) need no
//!   setup stanza. Each connection must speak its own `hello` first —
//!   transcripts spell that out.
//! * `_async` — send the request but defer reading the response. The
//!   slow query in a cancellation script is sent this way so the script
//!   can go cancel it from another connection.
//! * `_await` — no request: read one deferred response from the named
//!   connection (FIFO) and check it.
//! * `_expect` — subset-match the response: every key in the pattern
//!   must be present and equal in the response; `"*"` matches any
//!   present value; extra response fields (timings, ids) are ignored,
//!   which is what keeps committed transcripts stable.
//! * `_retry_until` — re-send the request (sleeping briefly) until the
//!   response matches the pattern or ~10 s elapse. This is how a script
//!   waits for a racing state change deterministically — e.g. `cancel`
//!   by tag retried until the victim query has registered itself.
//! * `_contains` — array of substrings that must all appear in the
//!   rendered response. Used to assert specific metric samples appear
//!   in a `metrics` scrape without pinning the whole exposition.
//! * `_validate_exposition` — run the Prometheus exposition-format
//!   validator over the response's `exposition` field; fails the replay
//!   on any format error.

use std::collections::HashMap;
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use treequery_obs::{parse_json, Json};

use crate::proto::{self, Frame};

/// What a replay did: sizes for the CI gate to sanity-check.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReplayReport {
    /// Requests sent.
    pub requests: usize,
    /// `_expect` / `_retry_until` patterns that matched.
    pub checks: usize,
}

struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// Responses sent by the server but not yet read (`_async` sends).
    pending: usize,
}

impl Conn {
    fn open(port: u16) -> Result<Conn, String> {
        // Retry briefly: the CI gate starts the server concurrently.
        let deadline = Instant::now() + Duration::from_secs(5);
        let stream = loop {
            match TcpStream::connect(("127.0.0.1", port)) {
                Ok(s) => break s,
                Err(e) if Instant::now() < deadline => {
                    let _ = e;
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(e) => return Err(format!("connect to port {port}: {e}")),
            }
        };
        // One request, then wait for its reply: Nagle could only delay it.
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let read_half = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn {
            reader: BufReader::new(read_half),
            writer: stream,
            pending: 0,
        })
    }

    /// Sends one request line: body and newline in a single write.
    fn send(&mut self, req: &Json) -> Result<(), String> {
        let mut line = Vec::new();
        req.write_to(&mut line);
        line.push(b'\n');
        self.writer
            .write_all(&line)
            .and_then(|()| self.writer.flush())
            .map_err(|e| format!("send: {e}"))
    }

    fn recv(&mut self) -> Result<Json, String> {
        match proto::read_frame(&mut self.reader).map_err(|e| format!("recv: {e}"))? {
            Frame::Value(v) => Ok(v),
            Frame::Eof => Err("server closed the connection".to_owned()),
            Frame::Oversized => Err("oversized response frame".to_owned()),
            Frame::Malformed(m) => Err(format!("malformed response: {m}")),
        }
    }
}

/// Subset match: every key in `pattern` must be present and matching in
/// `actual`; the string `"*"` matches any present value; numbers compare
/// numerically (so `1` matches `1.0`); arrays match element-wise at
/// equal length.
pub fn subset_matches(pattern: &Json, actual: &Json) -> bool {
    match (pattern, actual) {
        (Json::Str(s), _) if s == "*" => true,
        (Json::Obj(fields), _) => fields
            .iter()
            .all(|(k, v)| actual.get(k).is_some_and(|a| subset_matches(v, a))),
        (Json::Arr(ps), Json::Arr(vs)) => {
            ps.len() == vs.len() && ps.iter().zip(vs).all(|(p, v)| subset_matches(p, v))
        }
        (p, a) => match (p.as_f64(), a.as_f64()) {
            (Some(x), Some(y)) => x == y,
            _ => p == a,
        },
    }
}

/// Whether `needle` appears anywhere in the response: in its rendered
/// form or inside any *raw* string value (so a `_contains` needle can
/// quote a metric sample from an `exposition` field without worrying
/// about JSON escaping).
fn json_contains(resp: &Json, needle: &str) -> bool {
    match resp {
        Json::Str(s) => s.contains(needle),
        Json::Obj(fields) => {
            fields.iter().any(|(_, v)| json_contains(v, needle)) || resp.render().contains(needle)
        }
        Json::Arr(items) => items.iter().any(|v| json_contains(v, needle)),
        other => other.render().contains(needle),
    }
}

/// Runs a transcript line's response checks (`_expect`, `_contains`,
/// `_validate_exposition`) against a received response.
fn run_checks(n: usize, line: &Json, resp: &Json, report: &mut ReplayReport) -> Result<(), String> {
    if let Some(pattern) = line.get("_expect") {
        if !subset_matches(pattern, resp) {
            return Err(format!(
                "line {n}: expected subset {} but got {}",
                pattern.render(),
                resp.render()
            ));
        }
        report.checks += 1;
    }
    if let Some(Json::Arr(needles)) = line.get("_contains") {
        for needle in needles {
            let needle = needle
                .as_str()
                .ok_or_else(|| format!("line {n}: _contains entries must be strings"))?;
            if !json_contains(resp, needle) {
                return Err(format!(
                    "line {n}: response does not contain {needle:?}: {}",
                    resp.render()
                ));
            }
            report.checks += 1;
        }
    }
    if line.get("_validate_exposition") == Some(&Json::Bool(true)) {
        let text = resp
            .get("exposition")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("line {n}: no `exposition` string field to validate"))?;
        treequery_obs::prom::validate_exposition(text)
            .map_err(|e| format!("line {n}: invalid exposition: {e}"))?;
        report.checks += 1;
    }
    Ok(())
}

/// Strips the `_`-prefixed replay directives off a transcript line,
/// returning the wire request.
fn wire_request(line: &Json) -> Json {
    match line {
        Json::Obj(fields) => Json::Obj(
            fields
                .iter()
                .filter(|(k, _)| !k.starts_with('_'))
                .cloned()
                .collect(),
        ),
        other => other.clone(),
    }
}

/// Replays a transcript (see the module docs for the format) against a
/// server on `127.0.0.1:port`.
pub fn replay_lines(port: u16, transcript: &str) -> Result<ReplayReport, String> {
    let mut conns: HashMap<String, Conn> = HashMap::new();
    let mut report = ReplayReport::default();

    for (idx, raw) in transcript.lines().enumerate() {
        let n = idx + 1;
        let raw = raw.trim();
        if raw.is_empty() || raw.starts_with('#') {
            continue;
        }
        let line = parse_json(raw).map_err(|e| format!("transcript line {n}: {e}"))?;
        let conn_name = line
            .get("_conn")
            .and_then(Json::as_str)
            .unwrap_or("main")
            .to_owned();
        let retry_until = line.get("_retry_until").cloned();
        let is_async =
            line.get("_await").is_none() && matches!(line.get("_async"), Some(Json::Bool(true)));

        if let Some(await_conn) = line.get("_await").and_then(Json::as_str) {
            let conn = conns
                .get_mut(await_conn)
                .ok_or_else(|| format!("line {n}: _await on unopened connection {await_conn:?}"))?;
            if conn.pending == 0 {
                return Err(format!(
                    "line {n}: _await on {await_conn:?} with no pending response"
                ));
            }
            let resp = conn.recv().map_err(|e| format!("line {n}: {e}"))?;
            conn.pending -= 1;
            run_checks(n, &line, &resp, &mut report)?;
            continue;
        }

        let req = wire_request(&line);
        if !conns.contains_key(&conn_name) {
            conns.insert(conn_name.clone(), Conn::open(port)?);
        }
        let conn = conns.get_mut(&conn_name).expect("just inserted");

        if is_async {
            conn.send(&req).map_err(|e| format!("line {n}: {e}"))?;
            conn.pending += 1;
            report.requests += 1;
            continue;
        }

        if let Some(pattern) = retry_until {
            let deadline = Instant::now() + Duration::from_secs(10);
            loop {
                conn.send(&req).map_err(|e| format!("line {n}: {e}"))?;
                report.requests += 1;
                let resp = conn.recv().map_err(|e| format!("line {n}: {e}"))?;
                if subset_matches(&pattern, &resp) {
                    report.checks += 1;
                    run_checks(n, &line, &resp, &mut report)?;
                    break;
                }
                if Instant::now() >= deadline {
                    return Err(format!(
                        "line {n}: gave up retrying; last response {}",
                        resp.render()
                    ));
                }
                std::thread::sleep(Duration::from_millis(20));
            }
            continue;
        }

        conn.send(&req).map_err(|e| format!("line {n}: {e}"))?;
        report.requests += 1;
        let resp = conn.recv().map_err(|e| format!("line {n}: {e}"))?;
        run_checks(n, &line, &resp, &mut report)?;
    }
    Ok(report)
}

/// Replays a transcript file against `127.0.0.1:port`.
pub fn replay(port: u16, path: &str) -> Result<ReplayReport, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read transcript {path:?}: {e}"))?;
    replay_lines(port, &text)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn j(s: &str) -> Json {
        parse_json(s).unwrap()
    }

    #[test]
    fn subset_matching_ignores_extra_fields_and_wildcards() {
        let actual = j(r#"{"ok":true,"id":7,"rows":[1,2],"wall_us":993}"#);
        assert!(subset_matches(&j(r#"{"ok":true,"rows":[1,2]}"#), &actual));
        assert!(subset_matches(&j(r#"{"id":"*"}"#), &actual));
        assert!(!subset_matches(&j(r#"{"rows":[1]}"#), &actual));
        assert!(!subset_matches(&j(r#"{"missing":1}"#), &actual));
        // Numeric comparison crosses integer/float representations.
        assert!(subset_matches(&j(r#"{"id":7.0}"#), &actual));
    }

    #[test]
    fn wire_requests_shed_directives() {
        let line = j(r#"{"verb":"query","_conn":"a","_expect":{"ok":true},"doc":"t"}"#);
        assert_eq!(
            wire_request(&line).render(),
            r#"{"verb":"query","doc":"t"}"#
        );
    }
}
