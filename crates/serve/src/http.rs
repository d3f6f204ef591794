//! A minimal HTTP/1.1 layer over `std::net`.
//!
//! The workspace builds offline from vendored dependencies, so the
//! service speaks just enough HTTP/1.1 itself: one request per
//! connection (`Connection: close`), `Content-Length` bodies, JSON
//! payloads. The same module supplies the client used by `ds
//! submit|stress`, the service tests and the CI smoke gate, so the wire
//! format is exercised from both ends by every test run.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Upper bound on accepted header block + body, defending the service
/// against accidental (or hostile) oversized requests.
pub const MAX_HEADER_BYTES: usize = 64 * 1024;
/// Upper bound on an accepted request body.
pub const MAX_BODY_BYTES: usize = 16 * 1024 * 1024;

/// A parsed request: method, path (with query split off), query
/// string, `Accept` header, body.
#[derive(Debug, Clone)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`, ...).
    pub method: String,
    /// Request path, percent-decoding *not* applied (the API uses
    /// only unreserved characters).
    pub path: String,
    /// Raw query string after the `?`, without the `?` itself (empty
    /// when absent). Handlers split on `&` themselves.
    pub query: String,
    /// The `Accept` header value, empty when the header was absent.
    /// `GET /metrics` negotiates Prometheus text exposition on it.
    pub accept: String,
    /// The `Idempotency-Key` header value, empty when absent. A
    /// retried `POST /jobs` carrying the same key attaches to the job
    /// the first attempt created.
    pub idempotency: String,
    /// Raw request body (empty for bodiless requests).
    pub body: Vec<u8>,
}

/// A response about to be written.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Response body.
    pub body: String,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Extra response headers (name, value), written verbatim after
    /// the standard ones. The service uses this for `X-Dsscope-Span`.
    pub headers: Vec<(String, String)>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Self {
        Response {
            status,
            body,
            content_type: "application/json",
            headers: Vec::new(),
        }
    }

    /// Adds one extra response header.
    pub fn with_header(mut self, name: &str, value: String) -> Self {
        self.headers.push((name.to_string(), value));
        self
    }
}

/// Canonical reason phrase for the status codes the API emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        _ => "Unknown",
    }
}

/// Reads and parses one request from `stream`.
///
/// # Errors
///
/// Any malformed request line, oversized header/body, or transport
/// failure is an `io::Error`; the connection handler answers 400.
pub fn read_request(stream: &mut TcpStream) -> std::io::Result<Request> {
    let bad = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string());
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line)?;
    if line.len() > MAX_HEADER_BYTES {
        return Err(bad("request line too long"));
    }
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| bad("missing method"))?
        .to_string();
    let target = parts.next().ok_or_else(|| bad("missing path"))?;
    let (path, query) = match target.split_once('?') {
        Some((path, query)) => (path.to_string(), query.to_string()),
        None => (target.to_string(), String::new()),
    };

    let mut accept = String::new();
    let mut idempotency = String::new();
    let mut content_length = 0usize;
    let mut header_bytes = line.len();
    loop {
        let mut header = String::new();
        if reader.read_line(&mut header)? == 0 {
            return Err(bad("truncated headers"));
        }
        header_bytes += header.len();
        if header_bytes > MAX_HEADER_BYTES {
            return Err(bad("headers too large"));
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| bad("bad content-length"))?;
            } else if name.eq_ignore_ascii_case("accept") {
                accept = value.trim().to_string();
            } else if name.eq_ignore_ascii_case("idempotency-key") {
                idempotency = value.trim().to_string();
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(bad("body too large"));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok(Request {
        method,
        path,
        query,
        accept,
        idempotency,
        body,
    })
}

/// Writes `response` to `stream` and flushes. The service speaks one
/// request per connection, so every response closes it.
pub fn write_response(stream: &mut TcpStream, response: &Response) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
        response.status,
        reason(response.status),
        response.content_type,
        response.body.len()
    );
    for (name, value) in &response.headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(response.body.as_bytes())?;
    stream.flush()
}

/// Writes the head of a close-delimited streaming response (no
/// `Content-Length`: the body runs until the server closes the
/// connection, which the blocking client reads with `read_to_end`).
/// The caller then writes body bytes directly and closes the stream.
///
/// # Errors
///
/// Propagates the transport failure.
pub fn write_stream_head(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    headers: &[(String, String)],
) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nConnection: close\r\n",
        status,
        reason(status),
        content_type
    );
    for (name, value) in headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.flush()
}

/// Splits a `http://host:port` base URL into its socket address.
///
/// # Errors
///
/// Returns a message for anything but a plain `http` authority.
pub fn host_of(url: &str) -> Result<String, String> {
    let rest = url
        .strip_prefix("http://")
        .ok_or_else(|| format!("unsupported URL {url:?} (only http:// is spoken)"))?;
    let host = rest.split('/').next().unwrap_or(rest);
    if host.is_empty() {
        return Err(format!("no host in URL {url:?}"));
    }
    Ok(host.to_string())
}

/// One client request: connects, sends, reads the full response.
///
/// # Errors
///
/// Transport and parse failures come back as strings — callers are
/// CLIs and harnesses that render them directly.
pub fn client_request(
    url: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
    timeout: Duration,
) -> Result<(u16, String), String> {
    client_request_ext(url, method, path, body, &[], timeout)
        .map(|(status, body, _)| (status, body))
}

/// What [`client_request_ext`] returns: status, body, and the
/// response headers (lowercased names).
pub type FullResponse = (u16, String, Vec<(String, String)>);

/// [`client_request`] with extra request headers and the response
/// headers returned (lowercased names) — the retrying client needs to
/// send `Idempotency-Key` and read `Retry-After`.
///
/// # Errors
///
/// As [`client_request`].
pub fn client_request_ext(
    url: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
    extra_headers: &[(String, String)],
    timeout: Duration,
) -> Result<FullResponse, String> {
    let host = host_of(url)?;
    let mut stream = TcpStream::connect(&host).map_err(|e| format!("connect {host}: {e}"))?;
    stream.set_read_timeout(Some(timeout)).ok();
    stream.set_write_timeout(Some(timeout)).ok();
    let body = body.unwrap_or("");
    let mut request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {host}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n",
        body.len()
    );
    for (name, value) in extra_headers {
        request.push_str(&format!("{name}: {value}\r\n"));
    }
    request.push_str("\r\n");
    request.push_str(body);
    stream
        .write_all(request.as_bytes())
        .map_err(|e| format!("send {path}: {e}"))?;

    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader
        .read_line(&mut status_line)
        .map_err(|e| format!("read {path}: {e}"))?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line {status_line:?}"))?;
    let mut content_length: Option<usize> = None;
    let mut headers = Vec::new();
    loop {
        let mut header = String::new();
        let n = reader
            .read_line(&mut header)
            .map_err(|e| format!("read {path}: {e}"))?;
        if n == 0 || header.trim_end().is_empty() {
            break;
        }
        if let Some((name, value)) = header.trim_end().split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().ok();
            }
            headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
        }
    }
    let mut body = Vec::new();
    match content_length {
        Some(n) => {
            body.resize(n, 0);
            reader
                .read_exact(&mut body)
                .map_err(|e| format!("read {path}: {e}"))?;
        }
        None => {
            reader
                .read_to_end(&mut body)
                .map_err(|e| format!("read {path}: {e}"))?;
        }
    }
    String::from_utf8(body)
        .map(|text| (status, text, headers))
        .map_err(|_| format!("non-UTF-8 response from {path}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn request_round_trips_over_loopback() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let request = read_request(&mut stream).unwrap();
            assert_eq!(request.method, "POST");
            assert_eq!(request.path, "/jobs");
            assert_eq!(request.body, b"{\"x\":1}");
            write_response(&mut stream, &Response::json(200, "{\"ok\":true}".into())).unwrap();
        });
        let (status, body) = client_request(
            &format!("http://{addr}"),
            "POST",
            "/jobs",
            Some("{\"x\":1}"),
            Duration::from_secs(5),
        )
        .unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, "{\"ok\":true}");
        server.join().unwrap();
    }

    #[test]
    fn idempotency_key_and_response_headers_round_trip() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let request = read_request(&mut stream).unwrap();
            assert_eq!(request.idempotency, "abc-123");
            let response =
                Response::json(429, "{}".into()).with_header("Retry-After", "1".to_string());
            write_response(&mut stream, &response).unwrap();
        });
        let (status, _, headers) = client_request_ext(
            &format!("http://{addr}"),
            "POST",
            "/jobs",
            Some("{}"),
            &[("Idempotency-Key".to_string(), "abc-123".to_string())],
            Duration::from_secs(5),
        )
        .unwrap();
        assert_eq!(status, 429);
        assert!(
            headers.iter().any(|(n, v)| n == "retry-after" && v == "1"),
            "{headers:?}"
        );
        server.join().unwrap();
    }

    #[test]
    fn query_strings_are_stripped_and_bad_urls_rejected() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let request = read_request(&mut stream).unwrap();
            assert_eq!(request.path, "/metrics");
            assert_eq!(request.query, "verbose=1");
            write_response(&mut stream, &Response::json(200, "{}".into())).unwrap();
        });
        client_request(
            &format!("http://{addr}"),
            "GET",
            "/metrics?verbose=1",
            None,
            Duration::from_secs(5),
        )
        .unwrap();
        server.join().unwrap();
        assert!(host_of("https://x").is_err());
        assert!(host_of("http://").is_err());
    }
}
