//! A deliberately small HTTP/1.1 server+client substrate over
//! `std::net` — just enough for `nocalertd`'s JSON routes and its
//! Server-Sent-Events incident feed, with no external dependencies.
//!
//! The subset implemented: one request per connection
//! (`Connection: close`), `Content-Length`-framed bodies, and
//! `text/event-stream` responses written incrementally. That subset is
//! exactly what `curl` speaks by default, which keeps the CI smoke and
//! the README quick-start honest.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Largest request body the server will read, in bytes. A `JobSpec` is
/// a few hundred bytes; this bound exists so a misbehaving client
/// cannot balloon the server.
pub const MAX_BODY: usize = 1 << 20;

fn proto_err(detail: impl std::fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, detail.to_string())
}

/// A parsed request: method, path, and UTF-8 body.
#[derive(Debug, Clone)]
pub struct Request {
    /// `GET` / `POST` / …
    pub method: String,
    /// Request target, e.g. `/jobs/job-0001/events`.
    pub path: String,
    /// The body (empty when the request carried none).
    pub body: String,
}

/// Longest request line or header line the server reads, in bytes
/// (line terminator included). Longer lines are refused, never buffered.
pub const MAX_HEADER_LINE: usize = 8 << 10;

/// Most header lines one request may carry.
pub const MAX_HEADERS: usize = 64;

/// Reads one HTTP/1.1 request from `stream`.
///
/// # Errors
///
/// I/O failures, a malformed request line, a request or header line
/// longer than [`MAX_HEADER_LINE`], more than [`MAX_HEADERS`] headers, an
/// oversized or non-UTF-8 body.
pub fn read_request(stream: &TcpStream) -> io::Result<Request> {
    parse_request(BufReader::new(stream.try_clone()?))
}

/// [`read_request`] over any buffered reader.
fn parse_request(mut reader: impl BufRead) -> io::Result<Request> {
    let line = read_header_line(&mut reader)?;
    let mut parts = line.split_whitespace();
    let method = parts.next().unwrap_or("").to_string();
    let path = parts.next().unwrap_or("").to_string();
    if method.is_empty() || path.is_empty() {
        return Err(proto_err("malformed request line"));
    }
    let mut content_length = 0usize;
    let mut headers = 0usize;
    loop {
        let header = read_header_line(&mut reader)?;
        let trimmed = header.trim();
        if trimmed.is_empty() {
            break;
        }
        headers += 1;
        if headers > MAX_HEADERS {
            return Err(proto_err(format!("more than {MAX_HEADERS} headers")));
        }
        let lower = trimmed.to_ascii_lowercase();
        if let Some(v) = lower.strip_prefix("content-length:") {
            content_length = v.trim().parse().map_err(proto_err)?;
        }
    }
    if content_length > MAX_BODY {
        return Err(proto_err("request body too large"));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    let body = String::from_utf8(body).map_err(proto_err)?;
    Ok(Request { method, path, body })
}

/// Reads one request or header line of at most [`MAX_HEADER_LINE`]
/// bytes; empty at end of stream.
fn read_header_line(reader: &mut impl BufRead) -> io::Result<String> {
    let mut line = String::new();
    let n = reader.take(MAX_HEADER_LINE as u64).read_line(&mut line)?;
    if n == MAX_HEADER_LINE && !line.ends_with('\n') {
        return Err(proto_err(format!(
            "header line longer than {MAX_HEADER_LINE} bytes"
        )));
    }
    Ok(line)
}

/// Writes a complete `Content-Length`-framed response and flushes.
///
/// # Errors
///
/// Propagates stream write failures.
pub fn respond(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &str,
) -> io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// `200 OK` with a JSON body.
///
/// # Errors
///
/// Propagates stream write failures.
pub fn respond_json(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    json: &str,
) -> io::Result<()> {
    respond(stream, status, reason, "application/json", json)
}

/// An error response with a plain-text body.
///
/// # Errors
///
/// Propagates stream write failures.
pub fn respond_error(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    detail: &str,
) -> io::Result<()> {
    respond(stream, status, reason, "text/plain", detail)
}

/// Starts a Server-Sent-Events response: headers only, the connection
/// stays open for incremental [`sse_event`] frames.
///
/// # Errors
///
/// Propagates stream write failures.
pub fn sse_preamble(stream: &mut TcpStream) -> io::Result<()> {
    stream.write_all(
        b"HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\n\
          Cache-Control: no-cache\r\nConnection: close\r\n\r\n",
    )?;
    stream.flush()
}

/// Writes one SSE frame. `event` of `None` is a plain `data:` frame.
///
/// # Errors
///
/// Propagates stream write failures (a disconnected consumer).
pub fn sse_event(stream: &mut TcpStream, event: Option<&str>, data: &str) -> io::Result<()> {
    if let Some(name) = event {
        stream.write_all(format!("event: {name}\n").as_bytes())?;
    }
    stream.write_all(format!("data: {data}\n\n").as_bytes())?;
    stream.flush()
}

/// One-shot client request; returns `(status, body)`.
///
/// The body is read to connection close, so it works for both framed
/// and close-delimited responses.
///
/// # Errors
///
/// Connection, write, or malformed-response failures.
pub fn request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(120)))?;
    let payload = body.unwrap_or("");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        payload.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(payload.as_bytes())?;
    stream.flush()?;

    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line)?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| proto_err(format!("malformed status line: {status_line:?}")))?;
    let mut content_length: Option<usize> = None;
    loop {
        let mut header = String::new();
        if reader.read_line(&mut header)? == 0 {
            break;
        }
        let trimmed = header.trim();
        if trimmed.is_empty() {
            break;
        }
        let lower = trimmed.to_ascii_lowercase();
        if let Some(v) = lower.strip_prefix("content-length:") {
            content_length = v.trim().parse().ok();
        }
    }
    let mut body = String::new();
    match content_length {
        Some(n) => {
            let mut buf = vec![0u8; n];
            reader.read_exact(&mut buf)?;
            body = String::from_utf8(buf).map_err(proto_err)?;
        }
        None => {
            reader.read_to_string(&mut body)?;
        }
    }
    Ok((status, body))
}

/// Streams an SSE endpoint: calls `on_data` with each `data:` payload
/// until the server sends an `event: done` frame, the callback returns
/// `false`, or the connection closes.
///
/// # Errors
///
/// Connection or read failures before the stream ends cleanly.
pub fn stream_events(
    addr: &str,
    path: &str,
    on_data: &mut dyn FnMut(&str) -> bool,
) -> io::Result<()> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(600)))?;
    let head = format!(
        "GET {path} HTTP/1.1\r\nHost: {addr}\r\nAccept: text/event-stream\r\n\
         Connection: close\r\n\r\n"
    );
    stream.write_all(head.as_bytes())?;
    stream.flush()?;

    let mut reader = BufReader::new(stream);
    // Status line + headers.
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Ok(());
        }
        if line.trim().is_empty() {
            break;
        }
    }
    let mut done = false;
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Ok(());
        }
        let trimmed = line.trim_end();
        if trimmed == "event: done" {
            done = true;
        } else if let Some(data) = trimmed.strip_prefix("data: ") {
            if done || !on_data(data) {
                return Ok(());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(raw: &str) -> io::Result<Request> {
        parse_request(raw.as_bytes())
    }

    #[test]
    fn well_formed_request_parses() {
        let req = parse("POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n\r\n{}")
            .expect("valid request");
        assert_eq!((req.method.as_str(), req.path.as_str()), ("POST", "/jobs"));
        assert_eq!(req.body, "{}");
    }

    #[test]
    fn header_lines_and_counts_are_bounded() {
        let long = "x".repeat(MAX_HEADER_LINE);
        let err = parse(&format!("GET /healthz HTTP/1.1\r\nX-Long: {long}\r\n\r\n"))
            .expect_err("overlong header line");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("header line longer"), "{err}");
        // An endless request line without a newline is refused too.
        let err = parse(&format!("GET /{long}")).expect_err("overlong request line");
        assert!(err.to_string().contains("header line longer"), "{err}");

        let at_cap = "X-H: 1\r\n".repeat(MAX_HEADERS);
        assert!(parse(&format!("GET /healthz HTTP/1.1\r\n{at_cap}\r\n")).is_ok());
        let err = parse(&format!("GET /healthz HTTP/1.1\r\n{at_cap}X-H: 1\r\n\r\n"))
            .expect_err("too many headers");
        assert!(err.to_string().contains("headers"), "{err}");
    }
}
