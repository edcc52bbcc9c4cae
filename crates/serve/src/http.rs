//! The observatory: a minimal HTTP/1.1 listener exposing the server's
//! tenant and SLO state to scrapers, next to the line-JSON protocol
//! port.
//!
//! Five read-only endpoints: `/metrics` (the full per-server
//! exposition), `/tenants` (the `treequery_tenant_*` families only),
//! `/slo` (the `treequery_slo_*` gauges, published at scrape time),
//! and `/flight` + `/slow` (the process-global flight recorder, when
//! installed). One thread, one connection at a time — scrapers poll on
//! the order of seconds, and keeping it boring means the observatory
//! can never contend with the query path.
//!
//! Shutdown rides the same cooperative poke as the main accept loop:
//! [`crate::server::Shared::request_shutdown`] connects to this port
//! too, so the blocked `accept` wakes and observes the flag.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

use treequery_obs::{flight, prom};

use crate::server::Shared;

/// Routes one request target to `(status, reason, content-type, body)`.
/// Pure — the unit tests drive it without sockets.
pub(crate) fn respond(shared: &Shared, method: &str, target: &str) -> (u16, &'static str, String) {
    if method != "GET" {
        return (
            405,
            "text/plain; charset=utf-8",
            "only GET is supported\n".to_owned(),
        );
    }
    match target {
        "/" => (
            200,
            "text/plain; charset=utf-8",
            "treequery observatory: /metrics /tenants /slo /flight /slow\n".to_owned(),
        ),
        "/metrics" => (200, prom::CONTENT_TYPE, shared.render_metrics()),
        "/tenants" => (200, prom::CONTENT_TYPE, shared.render_tenant_exposition()),
        "/slo" => (200, prom::CONTENT_TYPE, shared.render_slo_exposition()),
        "/flight" => (
            200,
            "application/json",
            flight::recent_json().render() + "\n",
        ),
        "/slow" => (200, "application/json", flight::slow_json().render() + "\n"),
        _ => (
            404,
            "text/plain; charset=utf-8",
            format!("no such endpoint {target}\n"),
        ),
    }
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        _ => "Internal Server Error",
    }
}

fn answer(stream: TcpStream, shared: &Shared) {
    let Ok(peer) = stream.try_clone() else { return };
    let mut reader = BufReader::new(peer);
    let mut line = String::new();
    if reader.read_line(&mut line).is_err() {
        return;
    }
    let mut parts = line.split_whitespace();
    let (method, target) = match (parts.next(), parts.next()) {
        (Some(m), Some(t)) => (m.to_owned(), t.to_owned()),
        _ => ("".to_owned(), "/".to_owned()),
    };
    // Drain the headers; responses close the connection, so the body
    // (none is expected on GET) can be ignored.
    loop {
        let mut header = String::new();
        match reader.read_line(&mut header) {
            Ok(0) => break,
            Ok(_) if header == "\r\n" || header == "\n" => break,
            Ok(_) => {}
            Err(_) => return,
        }
    }
    let (status, content_type, body) = if method.is_empty() {
        (
            400,
            "text/plain; charset=utf-8",
            "malformed request line\n".to_owned(),
        )
    } else {
        respond(shared, &method, &target)
    };
    // Head and body in one buffer, one write: the stream is unbuffered,
    // and formatting straight onto it costs a syscall per fragment.
    let response = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        reason(status),
        body.len()
    );
    let mut out = stream;
    let _ = out.write_all(response.as_bytes());
}

/// Binds the observatory on `addr` (port 0 for ephemeral) and serves it
/// on a background thread until the server shuts down. Returns the
/// bound port, which is also recorded on `shared` so the shutdown poke
/// reaches this listener.
pub fn spawn_observatory(shared: Arc<Shared>, addr: &str) -> std::io::Result<u16> {
    let listener = TcpListener::bind(addr)?;
    let port = listener.local_addr()?.port();
    shared.set_observatory_port(port);
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            if shared.shutting_down() {
                break;
            }
            if let Ok(stream) = stream {
                answer(stream, &shared);
            }
        }
    });
    Ok(port)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServerConfig;

    fn shared() -> Arc<Shared> {
        crate::server::Server::bind("127.0.0.1:0", ServerConfig::default())
            .expect("bind")
            .shared()
    }

    #[test]
    fn routes_cover_the_observatory_surface() {
        let s = shared();
        let (status, ct, body) = respond(&s, "GET", "/metrics");
        assert_eq!(status, 200);
        assert_eq!(ct, prom::CONTENT_TYPE);
        treequery_obs::prom::validate_exposition(&body).expect("metrics validate");
        let (status, _, body) = respond(&s, "GET", "/tenants");
        assert_eq!(status, 200);
        treequery_obs::prom::validate_exposition(&body).expect("tenants validate");
        let (status, _, body) = respond(&s, "GET", "/slo");
        assert_eq!(status, 200);
        assert!(body.contains("treequery_slo_fast_burn_ppm"), "{body}");
        let (status, _, _) = respond(&s, "GET", "/flight");
        assert_eq!(status, 200);
        let (status, _, _) = respond(&s, "GET", "/nope");
        assert_eq!(status, 404);
        let (status, _, _) = respond(&s, "POST", "/metrics");
        assert_eq!(status, 405);
    }
}
