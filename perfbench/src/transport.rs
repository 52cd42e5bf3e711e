//! The two [`Transport`]s: a keep-alive loopback HTTP connection (the
//! measured path) and an in-process `Router::handle` call (the replay
//! that isolates the router's share of each latency). Both count
//! failures, time every call and keep the per-route traffic record.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use mine_server::http::Request;
use mine_server::{HttpClient, Router};

use crate::plan::Transport;
use crate::stats::Samples;
use crate::trace::Tracer;

/// The route a request belongs to, with the session or exam id folded.
pub fn route_of(method: &str, path: &str) -> &'static str {
    let path = path.split('?').next().unwrap_or(path);
    let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    match (method, segments.as_slice()) {
        ("POST", ["sessions"]) => "POST /sessions",
        ("POST", ["sessions", _, "answers"]) => "POST /sessions/{id}/answers",
        ("POST", ["sessions", _, "pause"]) => "POST /sessions/{id}/pause",
        ("POST", ["sessions", _, "resume"]) => "POST /sessions/{id}/resume",
        ("POST", ["sessions", _, "finish"]) => "POST /sessions/{id}/finish",
        ("GET", ["exams", _, "analysis"]) => "GET /exams/{id}/analysis",
        _ => "other",
    }
}

/// The bytes `HttpClient` puts on the wire for one request.
pub fn request_bytes(method: &str, path: &str, body: &str) -> Vec<u8> {
    format!(
        "{method} {path} HTTP/1.1\r\nhost: mine\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Requests and bytes per route.
#[derive(Debug, Clone, Default)]
pub struct Traffic {
    /// route → (requests, request bytes, response body bytes)
    pub routes: BTreeMap<&'static str, (u64, u64, u64)>,
}

impl Traffic {
    pub fn add(&mut self, route: &'static str, request: usize, response: usize) {
        let entry = self.routes.entry(route).or_default();
        entry.0 += 1;
        entry.1 += request as u64;
        entry.2 += response as u64;
    }

    pub fn merge(&mut self, other: &Traffic) {
        for (route, (n, req, resp)) in &other.routes {
            let entry = self.routes.entry(route).or_default();
            entry.0 += n;
            entry.1 += req;
            entry.2 += resp;
        }
    }
}

/// Alternating traced/untraced slices of the timed phase, so one run
/// measures throughput with and without span recording.
pub const TRACE_SLICE: Duration = Duration::from_millis(250);

/// Span recording state of one HTTP connection in a traced run.
#[derive(Debug)]
pub struct ConnTrace {
    pub tracer: Tracer,
    pub phase_start: Instant,
    /// The current sitting's span id (0 when the sitting is untraced).
    pub sitting: u64,
    pub next_request: u64,
    /// Requests started in traced / untraced slices.
    pub traced_requests: u64,
    pub untraced_requests: u64,
}

impl ConnTrace {
    pub fn in_traced_slice(&self, at: Instant) -> bool {
        let slice = at.duration_since(self.phase_start).as_nanos() / TRACE_SLICE.as_nanos();
        slice % 2 == 1
    }
}

/// One keep-alive HTTP connection, reconnecting after transport errors.
#[derive(Debug)]
pub struct HttpConn {
    addr: String,
    client: Option<HttpClient>,
    /// Client-side latencies of successful writes / reads, in ms.
    pub writes: Samples,
    pub reads: Samples,
    pub ok: u64,
    pub failed: u64,
    pub traffic: Traffic,
    /// When the last call completed.
    pub last_end: Option<Instant>,
    pub trace: Option<ConnTrace>,
    /// The body of the most recent failure, for the run log.
    pub last_error: Option<String>,
}

/// Per-call I/O timeout: far above any healthy latency, so only a hung
/// server trips it (and the call counts as failed).
const CALL_TIMEOUT: Duration = Duration::from_secs(10);

impl HttpConn {
    pub fn new(addr: &str) -> Self {
        Self {
            addr: addr.to_string(),
            client: None,
            writes: Samples::default(),
            reads: Samples::default(),
            ok: 0,
            failed: 0,
            traffic: Traffic::default(),
            last_end: None,
            trace: None,
            last_error: None,
        }
    }
}

impl Transport for HttpConn {
    fn call(&mut self, method: &str, path: &str, body: &str, expect: u16) -> Option<String> {
        let route = route_of(method, path);
        if self.client.is_none() {
            match HttpClient::with_timeout(&self.addr, CALL_TIMEOUT) {
                Ok(client) => self.client = Some(client),
                Err(err) => {
                    self.failed += 1;
                    self.last_error = Some(format!("{route}: connect: {err}"));
                    return None;
                }
            }
        }
        let client = self.client.as_mut().expect("connected above");
        let start = Instant::now();
        let result = if method == "GET" {
            client.get(path)
        } else {
            client.post(path, body)
        };
        let end = Instant::now();
        self.last_end = Some(end);
        if let Some(trace) = &mut self.trace {
            trace.next_request += 1;
            if trace.in_traced_slice(start) {
                trace.traced_requests += 1;
                let (parent, request) = (trace.sitting, trace.next_request);
                trace.tracer.record(route, parent, request, start, end);
            } else {
                trace.untraced_requests += 1;
            }
        }
        match result {
            Ok(response) if response.status == expect => {
                let ms = end.duration_since(start).as_secs_f64() * 1e3;
                if method == "GET" {
                    self.reads.push(ms);
                } else {
                    self.writes.push(ms);
                }
                self.ok += 1;
                self.traffic.add(
                    route,
                    request_bytes(method, path, body).len(),
                    response.body.len(),
                );
                Some(response.body)
            }
            Ok(response) => {
                self.failed += 1;
                self.last_error = Some(format!(
                    "{route}: status {} (expected {expect}): {}",
                    response.status, response.body
                ));
                None
            }
            Err(err) => {
                // The connection may be half-read: drop it, reconnect on
                // the next call.
                self.failed += 1;
                self.client = None;
                self.last_error = Some(format!("{route}: {err}"));
                None
            }
        }
    }
}

/// `Router::handle` in-process: the same requests with no socket.
#[derive(Debug)]
pub struct InProc {
    pub router: Router,
    /// Handle times of successful writes / reads, in µs.
    pub writes: Samples,
    pub reads: Samples,
    pub failed: u64,
    /// The wire bytes of the first `log_cap` requests (parser input).
    pub log: Vec<Vec<u8>>,
    pub log_cap: usize,
    pub tracer: Option<(Tracer, u64)>,
    pub requests: u64,
}

impl InProc {
    pub fn new(router: Router) -> Self {
        Self {
            router,
            writes: Samples::default(),
            reads: Samples::default(),
            failed: 0,
            log: Vec::new(),
            log_cap: 0,
            tracer: None,
            requests: 0,
        }
    }
}

impl Transport for InProc {
    fn call(&mut self, method: &str, path: &str, body: &str, expect: u16) -> Option<String> {
        if self.log.len() < self.log_cap {
            self.log.push(request_bytes(method, path, body));
        }
        self.requests += 1;
        let request = Request::new(method, path, body);
        let start = Instant::now();
        let response = self.router.handle(&request);
        let end = Instant::now();
        if let Some((tracer, parent)) = &mut self.tracer {
            tracer.record("router.handle", *parent, self.requests, start, end);
        }
        if response.status != expect {
            self.failed += 1;
            return None;
        }
        let us = end.duration_since(start).as_secs_f64() * 1e6;
        if method == "GET" {
            self.reads.push(us);
        } else {
            self.writes.push(us);
        }
        Some(response.body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Read, Write};
    use std::net::TcpListener;

    /// A one-connection server that answers each request with `reply`
    /// (raw bytes; empty means close the connection instead).
    fn fake_server(replies: Vec<&'static str>) -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            for reply in replies {
                // Read the head and the (content-length) body.
                let mut length = 0;
                loop {
                    let mut line = String::new();
                    reader.read_line(&mut line).unwrap();
                    if line == "\r\n" || line.is_empty() {
                        break;
                    }
                    if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
                        length = v.trim().parse().unwrap();
                    }
                }
                let mut body = vec![0; length];
                reader.read_exact(&mut body).unwrap();
                if reply.is_empty() {
                    return; // drop the connection mid-exchange
                }
                writer.write_all(reply.as_bytes()).unwrap();
            }
        });
        (addr, handle)
    }

    const OK: &str = "HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\n{}";
    const FAIL: &str = "HTTP/1.1 500 Internal Server Error\r\ncontent-length: 2\r\n\r\n{}";

    #[test]
    fn a_5xx_counts_as_failed_not_as_a_fast_request() {
        let (addr, server) = fake_server(vec![OK, FAIL]);
        let mut conn = HttpConn::new(&addr);
        assert!(conn
            .call("POST", "/sessions/x/answers", "{}", 200)
            .is_some());
        assert!(conn
            .call("POST", "/sessions/x/answers", "{}", 200)
            .is_none());
        assert_eq!((conn.ok, conn.failed), (1, 1));
        assert_eq!(
            conn.writes.len(),
            1,
            "the 500 must not add a latency sample"
        );
        server.join().unwrap();
    }

    #[test]
    fn a_dropped_connection_counts_as_failed_and_reconnects() {
        let (addr, server) = fake_server(vec![""]);
        let mut conn = HttpConn::new(&addr);
        assert!(conn.call("GET", "/exams/quiz/analysis", "", 200).is_none());
        assert_eq!((conn.ok, conn.failed), (0, 1));
        assert_eq!(conn.reads.len(), 0);
        server.join().unwrap();
        // Nobody listens any more: the reconnect fails and counts too.
        assert!(conn.call("GET", "/exams/quiz/analysis", "", 200).is_none());
        assert_eq!(conn.failed, 2);
    }

    #[test]
    fn routes_fold_ids() {
        assert_eq!(
            route_of("POST", "/sessions/quiz#s1@7/answers"),
            "POST /sessions/{id}/answers"
        );
        assert_eq!(
            route_of("GET", "/exams/quiz/analysis?mode=batch"),
            "GET /exams/{id}/analysis"
        );
        assert_eq!(route_of("POST", "/sessions"), "POST /sessions");
    }
}
