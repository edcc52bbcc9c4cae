//! The server process and the closed-loop load generator.
//!
//! The server runs in a child process (this binary re-executed with
//! `__serve`), bound to an ephemeral loopback port with
//! `ServerConfig::default()` and no flight recorder — the same server
//! `harness serve PORT` starts without flags. Each connection is one
//! generator thread that sends a request, waits for its reply, and only
//! then sends the next (the protocol is synchronous per connection).

use std::collections::HashSet;
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use treequery_obs::{parse_json, Json};
use treequery_serve::{Server, ServerConfig};

use crate::workload::{DocSpec, Op, Stream, TemplateSet, Workload, CONNECTIONS};

/// Entry point of the `__serve` child: bind, announce the port on
/// stdout, serve until a `shutdown` request.
pub fn serve_child() -> ! {
    let server = match Server::bind("127.0.0.1:0", ServerConfig::default()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("svcbench server: cannot bind: {e}");
            std::process::exit(1);
        }
    };
    println!("listening {}", server.port());
    let _ = io::stdout().flush();
    // The parent holds our stdin open; end-of-file means it is gone (even
    // if it was killed), so a forgotten server never outlives its run.
    std::thread::spawn(|| {
        let _ = io::copy(&mut io::stdin(), &mut io::sink());
        std::process::exit(0);
    });
    match server.run() {
        Ok(()) => std::process::exit(0),
        Err(e) => {
            eprintln!("svcbench server: {e}");
            std::process::exit(1);
        }
    }
}

/// A running server child. Dropping it kills and reaps the process.
pub struct ServerProc {
    child: Option<Child>,
    pub port: u16,
}

impl ServerProc {
    pub fn spawn() -> io::Result<ServerProc> {
        let mut child = Command::new(std::env::current_exe()?)
            .arg("__serve")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let mut line = String::new();
        let stdout = child.stdout.take().expect("child stdout is piped");
        BufReader::new(stdout).read_line(&mut line)?;
        let port = line
            .strip_prefix("listening ")
            .and_then(|p| p.trim().parse::<u16>().ok());
        let mut proc = ServerProc {
            child: Some(child),
            port: 0,
        };
        match port {
            Some(p) => {
                proc.port = p;
                Ok(proc)
            }
            None => Err(io::Error::other(format!(
                "server child did not announce a port: {line:?}"
            ))),
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    /// Graceful stop: a `shutdown` request, then reap the child (killed
    /// if it has not exited within a few seconds).
    pub fn shutdown(mut self) -> io::Result<()> {
        let acked = Conn::open(self.port).and_then(|mut c| c.call(r#"{"verb":"shutdown"}"#));
        let mut child = self.child.take().expect("child present until shutdown");
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            if child.try_wait()?.is_some() {
                break;
            }
            if Instant::now() >= deadline {
                child.kill()?;
                child.wait()?;
                return Err(io::Error::other("server did not exit after shutdown"));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        acked.map(|_| ())
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// One protocol connection (past its hello).
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    pub fn open(port: u16) -> io::Result<Conn> {
        let stream = TcpStream::connect(("127.0.0.1", port))?;
        stream.set_nodelay(true)?;
        let mut conn = Conn {
            reader: BufReader::with_capacity(1 << 16, stream.try_clone()?),
            writer: stream,
            buf: Vec::new(),
        };
        let hello = conn.call(r#"{"verb":"hello","version":1}"#)?;
        if !hello.starts_with(r#"{"ok":true"#) {
            return Err(io::Error::other(format!("hello refused: {hello}")));
        }
        Ok(conn)
    }

    /// Sends one frame (a single write) and reads its reply line.
    pub fn call(&mut self, line: &str) -> io::Result<String> {
        self.buf.clear();
        self.buf.extend_from_slice(line.as_bytes());
        self.buf.push(b'\n');
        self.writer.write_all(&self.buf)?;
        let mut reply = String::new();
        if self.reader.read_line(&mut reply)? == 0 {
            return Err(io::Error::other("server closed the connection"));
        }
        if reply.ends_with('\n') {
            reply.pop();
        }
        Ok(reply)
    }

    /// Sends a request that must succeed and returns its parsed reply.
    pub fn call_ok(&mut self, line: &str) -> io::Result<Json> {
        let reply = self.call(line)?;
        let v = parse_json(&reply).map_err(|e| io::Error::other(e.to_string()))?;
        if v.get("ok") != Some(&Json::Bool(true)) {
            return Err(io::Error::other(format!("request {line} failed: {reply}")));
        }
        Ok(v)
    }
}

/// What one completed request left behind (the request itself is
/// regenerated from the stream when needed).
#[derive(Clone, Debug)]
pub struct Record {
    /// Sent inside the timed window (warm-up requests are not).
    pub timed: bool,
    pub is_edit: bool,
    /// Send and receive instants, ns since the run's epoch.
    pub send_ns: u64,
    pub recv_ns: u64,
    pub reply_bytes: usize,
    pub ok: bool,
    /// Hash of the answer part of a query reply (from `"kind":` on).
    pub answer_hash: u64,
    /// The full reply, kept for edits (small) and, when requested, for
    /// the first occurrence of each distinct deterministic request.
    pub reply: Option<String>,
}

impl Record {
    pub fn rtt_ns(&self) -> u64 {
        self.recv_ns - self.send_ns
    }
}

/// FNV-1a over bytes.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// The answer part of a query reply: everything from its `"kind":` key
/// on (the fields before it — id, wall time, trace id — vary per run).
pub fn answer_part(reply: &str) -> Option<&str> {
    reply.find(r#","kind":"#).map(|i| &reply[i + 1..])
}

/// Which requests are deterministic — their reply is a function of the
/// stream alone, not of how connections interleaved: every read of a
/// read-only workload, and in `lookup_rw` edits and reads of the
/// connection's own document.
pub fn deterministic(w: Workload, conn: usize, op: &Op) -> bool {
    w != Workload::LookupRw || op.doc() == conn
}

/// One connection's share of a run.
pub struct ConnLog {
    pub records: Vec<Record>,
    /// Records before this index are warm-up.
    pub warmup: usize,
}

/// Everything the set-up and timed phases produced.
pub struct RunLog {
    pub conns: Vec<ConnLog>,
    /// Loaded fingerprints and node counts, per document.
    pub loaded: Vec<(String, usize)>,
    pub setup_s: Vec<f64>,
    pub window_s: f64,
    pub server_cpu_s: f64,
    pub server_rss_mb: f64,
    pub gen_cpu_s: f64,
    /// Share of the host's CPU time stolen by the hypervisor during the
    /// window (0 on bare metal).
    pub steal_pct: f64,
    /// `stats` engine counters before and after the timed window.
    pub stats_before: Json,
    pub stats_after: Json,
    /// Final per-document `stats` (fingerprint, nodes, edits).
    pub final_docs: Vec<Json>,
}

/// User+system CPU seconds of a process, from `/proc/<pid>/stat`
/// (clock ticks at the kernel's fixed 100 Hz `USER_HZ`).
pub fn cpu_seconds(pid: &str) -> f64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
    // Fields after the parenthesized command name; utime and stime are
    // fields 14 and 15 overall.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / 100.0
}

/// `(steal, total)` jiffies of the aggregate `cpu` line of `/proc/stat`.
fn cpu_steal() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let f: Vec<f64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    (f.get(7).copied().unwrap_or(0.0), f.iter().take(8).sum())
}

/// Peak resident set (`VmHWM`) of a process in MiB.
pub fn peak_rss_mb(pid: u32) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Set-ups measured per run; the median is reported.
pub const SETUPS: usize = 5;

struct Setup {
    server: ServerProc,
    conns: Vec<Conn>,
    warm: Vec<Vec<Record>>,
    loaded: Vec<(String, usize)>,
}

/// Starts a server, loads the workload's documents and runs the warm-up.
fn set_up(
    w: Workload,
    seed: u64,
    docs: &[DocSpec],
    templates: &Arc<TemplateSet>,
    epoch: Instant,
    keep_replies: bool,
) -> io::Result<Setup> {
    let server = ServerProc::spawn()?;
    let mut conns = (0..CONNECTIONS)
        .map(|_| Conn::open(server.port))
        .collect::<io::Result<Vec<_>>>()?;
    let mut loaded = Vec::new();
    for d in docs {
        let v = conns[0].call_ok(&d.load_line())?;
        let fp = v.get("fingerprint").and_then(Json::as_str).unwrap_or("");
        let nodes = v.get("nodes").and_then(Json::as_u64).unwrap_or(0) as usize;
        loaded.push((fp.to_owned(), nodes));
    }
    let warm = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                let templates = Arc::clone(templates);
                s.spawn(move || {
                    let mut stream = Stream::warmup(w, seed, c, templates);
                    let mut seen = HashSet::new();
                    let mut out = Vec::with_capacity(w.warmup_ops());
                    for _ in 0..w.warmup_ops() {
                        let op = stream.next_op();
                        out.push(issue(
                            conn,
                            w,
                            c,
                            &op,
                            docs,
                            epoch,
                            false,
                            keep_replies,
                            &mut seen,
                        )?);
                    }
                    Ok::<_, io::Error>(out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("warm-up thread panicked"))
            .collect::<io::Result<Vec<_>>>()
    })?;
    Ok(Setup {
        server,
        conns,
        warm,
        loaded,
    })
}

/// Sends one operation and records its outcome.
#[allow(clippy::too_many_arguments)]
fn issue(
    conn: &mut Conn,
    w: Workload,
    c: usize,
    op: &Op,
    docs: &[DocSpec],
    epoch: Instant,
    timed: bool,
    keep_replies: bool,
    seen: &mut HashSet<String>,
) -> io::Result<Record> {
    let line = op.request_line(docs);
    let send = epoch.elapsed();
    let reply = conn.call(&line)?;
    let recv = epoch.elapsed();
    let ok = reply.starts_with(r#"{"ok":true"#);
    let is_edit = matches!(op, Op::Edit { .. });
    let answer_hash = if is_edit {
        0
    } else {
        answer_part(&reply).map_or(0, |a| fnv1a(a.as_bytes()))
    };
    let keep = is_edit || (keep_replies && deterministic(w, c, op) && seen.insert(line));
    Ok(Record {
        timed,
        is_edit,
        send_ns: send.as_nanos() as u64,
        recv_ns: recv.as_nanos() as u64,
        reply_bytes: reply.len() + 1,
        ok,
        answer_hash,
        reply: keep.then_some(reply),
    })
}

/// The closed-loop run: [`SETUPS`] timed set-ups (the last one is kept),
/// then `seconds` of load on every connection.
pub fn run(
    w: Workload,
    seed: u64,
    seconds: f64,
    keep_replies: bool,
    epoch: Instant,
) -> io::Result<RunLog> {
    let docs = w.docs(seed);
    let templates = Arc::new(TemplateSet::new(w));
    let mut setup_s = Vec::new();
    let mut setup = None;
    for i in 0..SETUPS {
        let started = Instant::now();
        let s = set_up(w, seed, &docs, &templates, epoch, keep_replies)?;
        setup_s.push(started.elapsed().as_secs_f64());
        if i + 1 < SETUPS {
            s.server.shutdown()?;
        } else {
            setup = Some(s);
        }
    }
    let Setup {
        server,
        mut conns,
        warm,
        loaded,
    } = setup.expect("at least one set-up");
    let pid = server.pid().to_string();
    let stats_before = conns[0].call_ok(r#"{"verb":"stats"}"#)?;

    let barrier = Barrier::new(CONNECTIONS + 1);
    let steal0 = cpu_steal();
    let (timed, window_s, server_cpu_s, gen_cpu_s) = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                let (templates, docs, barrier, loaded) =
                    (Arc::clone(&templates), &docs, &barrier, &loaded);
                s.spawn(move || {
                    let own_nodes = loaded.get(c).map_or(0, |l| l.1);
                    let mut stream = Stream::timed(w, seed, c, templates, own_nodes);
                    let mut seen = HashSet::new();
                    let mut out = Vec::new();
                    barrier.wait();
                    let stop = Instant::now() + Duration::from_secs_f64(seconds);
                    while Instant::now() < stop {
                        let op = stream.next_op();
                        out.push(issue(
                            conn,
                            w,
                            c,
                            &op,
                            docs,
                            epoch,
                            true,
                            keep_replies,
                            &mut seen,
                        )?);
                    }
                    Ok::<_, io::Error>(out)
                })
            })
            .collect();
        let cpu0 = (cpu_seconds(&pid), cpu_seconds("self"));
        let t0 = epoch.elapsed();
        barrier.wait();
        let timed = handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect::<io::Result<Vec<_>>>();
        let last = timed
            .as_ref()
            .ok()
            .and_then(|t| t.iter().flatten().map(|r| r.recv_ns).max())
            .unwrap_or(0);
        let window = Duration::from_nanos(last).saturating_sub(t0).as_secs_f64();
        let cpu1 = (cpu_seconds(&pid), cpu_seconds("self"));
        (timed, window, cpu1.0 - cpu0.0, cpu1.1 - cpu0.1)
    });
    let steal1 = cpu_steal();
    let steal_pct = 100.0 * (steal1.0 - steal0.0) / (steal1.1 - steal0.1).max(1.0);
    let timed = timed?;
    let server_rss_mb = peak_rss_mb(server.pid());
    let stats_after = conns[0].call_ok(r#"{"verb":"stats"}"#)?;
    let mut final_docs = Vec::new();
    for d in &docs {
        let line = Json::obj()
            .set("verb", "stats")
            .set("doc", d.name.as_str())
            .render();
        final_docs.push(conns[0].call_ok(&line)?);
    }
    drop(conns);
    server.shutdown()?;

    let conns = warm
        .into_iter()
        .zip(timed)
        .map(|(mut records, timed)| {
            let warmup = records.len();
            records.extend(timed);
            ConnLog { records, warmup }
        })
        .collect();
    Ok(RunLog {
        conns,
        loaded,
        setup_s,
        window_s,
        server_cpu_s,
        server_rss_mb,
        gen_cpu_s,
        steal_pct,
        stats_before,
        stats_after,
        final_docs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn answer_part_skips_the_per_run_fields() {
        let a = r#"{"ok":true,"id":3,"wall_us":12,"trace_id":"t-1","kind":"nodes","rows":[1,2]}"#;
        let b = r#"{"ok":true,"id":9,"wall_us":40,"trace_id":"t-7","kind":"nodes","rows":[1,2]}"#;
        assert_eq!(answer_part(a), Some(r#""kind":"nodes","rows":[1,2]}"#));
        assert_eq!(answer_part(a), answer_part(b));
        assert_eq!(answer_part(r#"{"ok":false}"#), None);
    }
}
