//! HTTP/1.1 wire protocol: reading and writing messages on byte streams.

use std::io::{self, BufRead, Read, Write};

use crate::message::{Headers, Method, Request, Response, StatusCode, Version};

/// Upper bound on header-section size, guarding against hostile peers.
const MAX_HEADER_BYTES: usize = 64 * 1024;

/// Upper bound on body size (1 GiB) — the paper reports intermediate matrix
/// payloads of hundreds of megabytes, so the limit is generous.
const MAX_BODY_BYTES: usize = 1 << 30;

/// Per-message size caps enforced while parsing a request.
///
/// The server passes its configured caps; violations surface as typed
/// errors that [`violation_status`] maps to `431` (header section) or `413`
/// (body) instead of a generic `400`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Limits {
    /// Cap on the total header section (request line + header lines).
    pub max_header_bytes: usize,
    /// Cap on the declared or accumulated body size.
    pub max_body_bytes: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_header_bytes: MAX_HEADER_BYTES,
            max_body_bytes: MAX_BODY_BYTES,
        }
    }
}

/// A size-cap violation, carried inside the `io::Error` so the server can
/// answer with the right status instead of a blanket `400`.
#[derive(Debug)]
struct Violation {
    status: u16,
    msg: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "http protocol error: {}", self.msg)
    }
}

impl std::error::Error for Violation {}

fn violation(status: u16, msg: impl Into<String>) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        Violation {
            status,
            msg: msg.into(),
        },
    )
}

/// The response status a parse error deserves: `431` for header-cap
/// violations, `413` for body-cap violations, `400` for everything else.
pub fn violation_status(e: &io::Error) -> u16 {
    e.get_ref()
        .and_then(|inner| inner.downcast_ref::<Violation>())
        .map_or(400, |v| v.status)
}

/// Reads one request from a buffered stream with default [`Limits`].
///
/// Returns `Ok(None)` on a clean EOF before any bytes (client closed a
/// keep-alive connection).
///
/// # Errors
///
/// I/O errors and protocol violations are both reported as `io::Error`; the
/// caller turns violations into `400`/`413`/`431` responses where possible.
pub fn read_request<R: BufRead>(reader: &mut R) -> io::Result<Option<Request>> {
    read_request_limited(reader, &Limits::default())
}

/// [`read_request`] under explicit size caps.
///
/// # Errors
///
/// See [`read_request`]; cap violations answer to [`violation_status`].
pub fn read_request_limited<R: BufRead>(
    reader: &mut R,
    limits: &Limits,
) -> io::Result<Option<Request>> {
    let cap = limits.max_header_bytes;
    let Some((method, target, version)) = with_line(reader, true, cap, |line| {
        let mut parts = line.split(' ');
        let method = parts
            .next()
            .filter(|m| !m.is_empty())
            .map(Method::from_token)
            .ok_or_else(|| protocol_error("missing method"))?;
        let target = parts
            .next()
            .ok_or_else(|| protocol_error("missing request target"))?;
        let version = version_of(parts.next().unwrap_or(""))?;
        Ok((method, target.to_string(), version))
    })?
    else {
        return Ok(None);
    };
    let headers = read_headers(reader, limits)?;
    let body = read_body(reader, framing(&headers, version)?, limits)?;
    Ok(Some(Request {
        method,
        target,
        version,
        headers,
        body,
    }))
}

/// Reads one response from a buffered stream.
///
/// # Errors
///
/// I/O errors and protocol violations are both reported as `io::Error`.
pub fn read_response<R: BufRead>(reader: &mut R) -> io::Result<Response> {
    let (code, version) = with_line(reader, true, MAX_HEADER_BYTES, |line| {
        let mut parts = line.splitn(3, ' ');
        let version = version_of(parts.next().unwrap_or(""))?;
        let code = parts
            .next()
            .and_then(|c| c.parse::<u16>().ok())
            .ok_or_else(|| protocol_error("bad status code"))?;
        Ok((code, version))
    })?
    .ok_or_else(|| protocol_error("empty response"))?;
    let limits = Limits::default();
    let headers = read_headers(reader, &limits)?;
    let body = read_body(reader, framing(&headers, version)?, &limits)?;
    Ok(Response {
        status: StatusCode::from(code),
        headers,
        body,
        stream: None,
    })
}

/// Writes a request, setting `Content-Length` from the body.
pub fn write_request<W: Write>(writer: &mut W, req: &Request, host: &str) -> io::Result<()> {
    write!(writer, "{} {} HTTP/1.1\r\n", req.method, req.target)?;
    write!(writer, "Host: {host}\r\n")?;
    for (name, value) in req.headers.iter() {
        if name.eq_ignore_ascii_case("host") || name.eq_ignore_ascii_case("content-length") {
            continue;
        }
        write!(writer, "{name}: {value}\r\n")?;
    }
    write!(writer, "Content-Length: {}\r\n\r\n", req.body.len())?;
    writer.write_all(&req.body)?;
    writer.flush()
}

/// Writes the status line and headers of a streaming response — no
/// `Content-Length`, no body; the stream callback takes over the writer.
pub fn write_stream_head<W: Write>(writer: &mut W, resp: &Response) -> io::Result<()> {
    let reason = {
        let r = resp.status.reason();
        if r.is_empty() {
            "Unknown"
        } else {
            r
        }
    };
    write!(writer, "HTTP/1.1 {} {}\r\n", resp.status.as_u16(), reason)?;
    for (name, value) in resp.headers.iter() {
        if name.eq_ignore_ascii_case("content-length") {
            continue;
        }
        write!(writer, "{name}: {value}\r\n")?;
    }
    write!(writer, "\r\n")?;
    writer.flush()
}

/// Writes a response, setting `Content-Length` from the body.
pub fn write_response<W: Write>(writer: &mut W, resp: &Response) -> io::Result<()> {
    let reason = {
        let r = resp.status.reason();
        if r.is_empty() {
            "Unknown"
        } else {
            r
        }
    };
    write!(writer, "HTTP/1.1 {} {}\r\n", resp.status.as_u16(), reason)?;
    for (name, value) in resp.headers.iter() {
        if name.eq_ignore_ascii_case("content-length") {
            continue;
        }
        write!(writer, "{name}: {value}\r\n")?;
    }
    write!(writer, "Content-Length: {}\r\n\r\n", resp.body.len())?;
    writer.write_all(&resp.body)?;
    writer.flush()
}

fn protocol_error(msg: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("http protocol error: {msg}"),
    )
}

/// Reads a CRLF- (or LF-) terminated line. `allow_eof` turns clean EOF at a
/// line start into `None`.
pub(crate) fn read_line<R: BufRead>(reader: &mut R, allow_eof: bool) -> io::Result<Option<String>> {
    read_line_capped(reader, allow_eof, MAX_HEADER_BYTES)
}

fn read_line_capped<R: BufRead>(
    reader: &mut R,
    allow_eof: bool,
    cap: usize,
) -> io::Result<Option<String>> {
    let mut line = Vec::new();
    let mut limited = reader.take(cap.saturating_add(1) as u64);
    let n = limited.read_until(b'\n', &mut line)?;
    if n == 0 {
        return if allow_eof {
            Ok(None)
        } else {
            Err(protocol_error("unexpected end of stream"))
        };
    }
    if line.last() == Some(&b'\n') {
        line.pop();
        if line.last() == Some(&b'\r') {
            line.pop();
        }
        if line.len() > cap {
            return Err(violation(431, "header line too long"));
        }
    } else if line.len() > cap {
        return Err(violation(431, "header line too long"));
    }
    String::from_utf8(line)
        .map(Some)
        .map_err(|_| protocol_error("non-utf8 header data"))
}

/// Hands `parse` the next line, without its line ending, under the same
/// rules as [`read_line_capped`]. A line that is whole in the reader's
/// buffer is parsed where it lies; only a line that spans a refill (or the
/// end of the stream) is copied out first.
fn with_line<R: BufRead, T>(
    reader: &mut R,
    allow_eof: bool,
    cap: usize,
    mut parse: impl FnMut(&str) -> io::Result<T>,
) -> io::Result<Option<T>> {
    match reader.fill_buf() {
        Ok(buf) => {
            // `read_line_capped` reads at most `cap + 1` bytes looking for
            // the newline: look no further here.
            let window = &buf[..buf.len().min(cap.saturating_add(1))];
            if let Some(nl) = window.iter().position(|&b| b == b'\n') {
                let line = window[..nl].strip_suffix(b"\r").unwrap_or(&window[..nl]);
                let line = std::str::from_utf8(line)
                    .map_err(|_| protocol_error("non-utf8 header data"))?;
                let parsed = parse(line)?;
                reader.consume(nl + 1);
                return Ok(Some(parsed));
            }
        }
        Err(e) if e.kind() != io::ErrorKind::Interrupted => return Err(e),
        Err(_) => {}
    }
    match read_line_capped(reader, allow_eof, cap)? {
        Some(line) => parse(&line).map(Some),
        None => Ok(None),
    }
}

fn read_headers<R: BufRead>(reader: &mut R, limits: &Limits) -> io::Result<Headers> {
    let mut headers = Headers::new();
    let mut total = 0usize;
    loop {
        let end = with_line(reader, false, limits.max_header_bytes, |line| {
            if line.is_empty() {
                return Ok(true);
            }
            total += line.len();
            if total > limits.max_header_bytes {
                return Err(violation(431, "header section too large"));
            }
            let (name, value) = line
                .split_once(':')
                .ok_or_else(|| protocol_error("malformed header line"))?;
            headers.append(name.trim(), value.trim());
            Ok(false)
        })?
        .expect("with_line(false) never yields None");
        if end {
            return Ok(headers);
        }
    }
}

/// `HTTP/1.0` or `HTTP/1.1`; a later `HTTP/1.x` reads as 1.1.
fn version_of(token: &str) -> io::Result<Version> {
    match token.strip_prefix("HTTP/1.").map(str::as_bytes) {
        Some(b"0") => Ok(Version::Http10),
        Some([minor]) if minor.is_ascii_digit() => Ok(Version::Http11),
        _ => Err(protocol_error("unsupported http version")),
    }
}

/// How a message body is delimited (RFC 9112 §6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Framing {
    /// `Content-Length` bytes; 0 when neither framing field is present.
    Length(usize),
    /// The chunked transfer coding.
    Chunked,
}

/// The framing of a parsed message, request or response (RFC 9112 §6):
/// `chunked` must be the final transfer coding, and no other is
/// implemented; `Transfer-Encoding` beside `Content-Length` or in HTTP/1.0
/// is refused, since two hops could frame it apart; every `Content-Length`
/// must be the same `1*DIGIT`. A coding before `chunked` is a `501`.
fn framing(headers: &Headers, version: Version) -> io::Result<Framing> {
    if headers.get("transfer-encoding").is_some() {
        if version == Version::Http10 || headers.get("content-length").is_some() {
            return Err(protocol_error("ambiguous transfer-encoding"));
        }
        let (count, last) = headers
            .get_all("transfer-encoding")
            .flat_map(|v| v.split(','))
            .map(str::trim)
            .filter(|c| !c.is_empty())
            .fold((0, ""), |(count, _), c| (count + 1, c));
        if !last.eq_ignore_ascii_case("chunked") {
            return Err(protocol_error("chunked is not the final transfer coding"));
        }
        if count > 1 {
            return Err(violation(501, "transfer coding not implemented"));
        }
        return Ok(Framing::Chunked);
    }
    // Every `Content-Length` must agree: framing the body by the first of
    // two differing values would read the rest as the next message.
    let mut lengths = headers.get_all("content-length");
    let Some(v) = lengths.next() else {
        return Ok(Framing::Length(0));
    };
    if lengths.any(|other| other != v) {
        return Err(protocol_error("conflicting content-length values"));
    }
    digits(v, 10)
        .map(Framing::Length)
        .ok_or_else(|| protocol_error("invalid content-length"))
}

/// `1*DIGIT` (radix 10) or `1*HEXDIG` (radix 16) as a `usize`: no sign, no
/// space, `None` past `usize::MAX`.
fn digits(s: &str, radix: u32) -> Option<usize> {
    let grammar = !s.is_empty() && s.chars().all(|c| c.is_digit(radix));
    usize::from_str_radix(s, radix).ok().filter(|_| grammar)
}

fn read_body<R: BufRead>(reader: &mut R, framing: Framing, limits: &Limits) -> io::Result<Vec<u8>> {
    let len = match framing {
        Framing::Chunked => return read_chunked_body(reader, limits),
        Framing::Length(len) => len,
    };
    if len > limits.max_body_bytes {
        return Err(violation(413, "body exceeds size limit"));
    }
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body)?;
    Ok(body)
}

fn read_chunked_body<R: BufRead>(reader: &mut R, limits: &Limits) -> io::Result<Vec<u8>> {
    let mut body = Vec::new();
    loop {
        let size_line = read_line(reader, false)?.expect("read_line(false) never yields None");
        // chunk-size [BWS ";" chunk-ext]
        let size_token = size_line.split(';').next().unwrap_or("");
        let size = digits(size_token.trim_end_matches([' ', '\t']), 16)
            .ok_or_else(|| protocol_error("invalid chunk size"))?;
        match body.len().checked_add(size) {
            Some(end) if end <= limits.max_body_bytes => {}
            _ => return Err(violation(413, "chunked body exceeds size limit")),
        }
        if size == 0 {
            // Trailer section: read until the blank line.
            loop {
                let line = read_line(reader, false)?.expect("read_line(false) never yields None");
                if line.is_empty() {
                    return Ok(body);
                }
            }
        }
        // Grown as the bytes arrive: a size line alone commits no memory.
        if reader.by_ref().take(size as u64).read_to_end(&mut body)? < size {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        let mut crlf = [0u8; 2];
        reader.read_exact(&mut crlf)?;
        if &crlf != b"\r\n" {
            return Err(protocol_error("missing chunk terminator"));
        }
    }
}

/// Whether the connection stays open after this exchange (RFC 9112 §9.3):
/// HTTP/1.1 unless `Connection` lists `close`, HTTP/1.0 if it lists `keep-alive`.
pub fn keep_alive(req: &Request) -> bool {
    let listed = |token: &str| {
        req.headers
            .get("connection")
            .is_some_and(|v| v.split(',').any(|t| t.trim().eq_ignore_ascii_case(token)))
    };
    match req.version {
        Version::Http10 => listed("keep-alive"),
        Version::Http11 => !listed("close"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn reader(bytes: &[u8]) -> BufReader<&[u8]> {
        BufReader::new(bytes)
    }

    #[test]
    fn parses_simple_request() {
        let raw = b"POST /services/sum HTTP/1.1\r\nHost: h\r\nContent-Type: application/json\r\nContent-Length: 7\r\n\r\n{\"a\":1}";
        let req = read_request(&mut reader(raw)).unwrap().unwrap();
        assert_eq!(req.method, Method::Post);
        assert_eq!(req.target, "/services/sum");
        assert_eq!(req.headers.get("content-type"), Some("application/json"));
        assert_eq!(req.body, b"{\"a\":1}");
    }

    #[test]
    fn eof_before_request_is_none() {
        assert!(read_request(&mut reader(b"")).unwrap().is_none());
    }

    #[test]
    fn truncated_body_is_an_error() {
        let raw = b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort";
        assert!(read_request(&mut reader(raw)).is_err());
    }

    #[test]
    fn malformed_request_lines_are_rejected() {
        for raw in [
            &b"GET\r\n\r\n"[..],
            &b"GET /\r\n\r\n"[..],
            &b"GET / SPDY/3\r\n\r\n"[..],
            &b"GET / HTTP/1.1\r\nbadheader\r\n\r\n"[..],
            &b"GET / HTTP/1.1\r\nContent-Length: -1\r\n\r\n"[..],
            &b"GET / HTTP/1.1\r\nContent-Length: 99999999999999999999\r\n\r\n"[..],
        ] {
            assert!(
                read_request(&mut reader(raw)).is_err(),
                "{:?}",
                String::from_utf8_lossy(raw)
            );
        }
    }

    #[test]
    fn request_round_trip() {
        let req =
            Request::new(Method::Post, "/x?y=1").with_json(&mathcloud_json::json!({"k": [1, 2]}));
        let mut buf = Vec::new();
        write_request(&mut buf, &req, "example:80").unwrap();
        let parsed = read_request(&mut reader(&buf)).unwrap().unwrap();
        assert_eq!(parsed.method, req.method);
        assert_eq!(parsed.target, req.target);
        assert_eq!(parsed.body, req.body);
        assert_eq!(parsed.headers.get("host"), Some("example:80"));
    }

    #[test]
    fn response_round_trip() {
        let resp = Response::json(201, &mathcloud_json::json!({"id": "job-1"}));
        let mut buf = Vec::new();
        write_response(&mut buf, &resp).unwrap();
        let parsed = read_response(&mut reader(&buf)).unwrap();
        assert_eq!(parsed.status, StatusCode::CREATED);
        assert_eq!(parsed.body_json().unwrap()["id"].as_str(), Some("job-1"));
    }

    #[test]
    fn unknown_status_gets_reason_placeholder() {
        let resp = Response::empty(599u16);
        let mut buf = Vec::new();
        write_response(&mut buf, &resp).unwrap();
        assert!(String::from_utf8_lossy(&buf).starts_with("HTTP/1.1 599 Unknown"));
    }

    #[test]
    fn chunked_response_bodies_decode() {
        let raw = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n4\r\nWiki\r\n5\r\npedia\r\n0\r\n\r\n";
        let resp = read_response(&mut reader(raw)).unwrap();
        assert_eq!(resp.body, b"Wikipedia");
    }

    #[test]
    fn chunked_with_extensions_and_trailers() {
        let raw = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3;ext=1\r\nabc\r\n0\r\nTrailer: x\r\n\r\n";
        let resp = read_response(&mut reader(raw)).unwrap();
        assert_eq!(resp.body, b"abc");
    }

    #[test]
    fn bad_chunk_framing_is_rejected() {
        let raw = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n";
        assert!(read_response(&mut reader(raw)).is_err());
        let raw = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabcXX";
        assert!(read_response(&mut reader(raw)).is_err());
    }

    #[test]
    fn keep_alive_default_and_close() {
        let req = Request::new(Method::Get, "/");
        assert!(keep_alive(&req));
        let req = req.with_header("Connection", "close");
        assert!(!keep_alive(&req));
        let req = Request::new(Method::Get, "/").with_header("Connection", "Keep-Alive");
        assert!(keep_alive(&req));
    }

    #[test]
    fn lf_only_line_endings_are_tolerated() {
        let raw = b"GET / HTTP/1.1\nHost: h\n\n";
        let req = read_request(&mut reader(raw)).unwrap().unwrap();
        assert_eq!(req.headers.get("host"), Some("h"));
    }

    fn status_of(e: &io::Error) -> u16 {
        assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{e}");
        violation_status(e)
    }

    /// Builds a request whose counted header bytes (`Host: h` plus the pad
    /// line) total exactly `cap + excess`.
    fn padded_headers(cap: usize, excess: isize) -> Vec<u8> {
        let fixed = "Host: h".len() + "X-Pad: ".len();
        let pad = (cap as isize + excess - fixed as isize) as usize;
        format!(
            "GET / HTTP/1.1\r\nHost: h\r\nX-Pad: {}\r\n\r\n",
            "p".repeat(pad)
        )
        .into_bytes()
    }

    #[test]
    fn header_section_at_the_cap_passes() {
        let limits = Limits {
            max_header_bytes: 256,
            max_body_bytes: 1024,
        };
        let raw = padded_headers(limits.max_header_bytes, 0);
        let req = read_request_limited(&mut reader(&raw), &limits)
            .unwrap()
            .unwrap();
        assert!(req.headers.get("x-pad").is_some());
    }

    #[test]
    fn one_byte_past_the_header_cap_is_431() {
        let limits = Limits {
            max_header_bytes: 256,
            max_body_bytes: 1024,
        };
        let raw = padded_headers(limits.max_header_bytes, 1);
        let err = read_request_limited(&mut reader(&raw), &limits).unwrap_err();
        assert_eq!(status_of(&err), 431);
    }

    #[test]
    fn single_oversized_header_line_is_431() {
        let limits = Limits {
            max_header_bytes: 128,
            max_body_bytes: 1024,
        };
        let raw = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(512));
        let err = read_request_limited(&mut reader(raw.as_bytes()), &limits).unwrap_err();
        assert_eq!(status_of(&err), 431);
    }

    #[test]
    fn body_at_the_cap_passes_and_one_past_is_413() {
        let limits = Limits {
            max_header_bytes: 1024,
            max_body_bytes: 64,
        };
        let body = "b".repeat(limits.max_body_bytes);
        let raw = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n{}",
            body.len(),
            body
        );
        let req = read_request_limited(&mut reader(raw.as_bytes()), &limits)
            .unwrap()
            .unwrap();
        assert_eq!(req.body.len(), limits.max_body_bytes);

        let body = "b".repeat(limits.max_body_bytes + 1);
        let raw = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n{}",
            body.len(),
            body
        );
        let err = read_request_limited(&mut reader(raw.as_bytes()), &limits).unwrap_err();
        assert_eq!(status_of(&err), 413);
    }

    #[test]
    fn huge_content_length_is_rejected_before_reading_the_body() {
        let limits = Limits {
            max_header_bytes: 1024,
            max_body_bytes: 64,
        };
        // The declared length alone trips the cap: no body bytes follow.
        let raw = b"POST / HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n";
        let err = read_request_limited(&mut reader(raw), &limits).unwrap_err();
        assert_eq!(status_of(&err), 413);
    }

    #[test]
    fn differing_content_lengths_are_400_and_identical_ones_pass() {
        // Framed by the first value, the bytes after "hello" would be read
        // as a request that a peer framing by the second never sent: a
        // desync, so the message is refused whole.
        let raw = b"POST / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 100\r\n\r\nhelloGET / HTTP/1.1\r\n\r\n";
        let err = read_request(&mut reader(raw)).unwrap_err();
        assert_eq!(status_of(&err), 400);
        assert!(
            err.to_string().contains("conflicting content-length"),
            "{err}"
        );
        let raw = b"POST / HTTP/1.1\r\nContent-Length: 5\r\ncontent-length:  5\r\n\r\nhello";
        let req = read_request(&mut reader(raw)).unwrap().unwrap();
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn oversized_chunked_body_is_413() {
        let limits = Limits {
            max_header_bytes: 1024,
            max_body_bytes: 8,
        };
        let raw = b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n6\r\nabcdef\r\n6\r\nghijkl\r\n0\r\n\r\n";
        let err = read_request_limited(&mut reader(raw), &limits).unwrap_err();
        assert_eq!(status_of(&err), 413);
    }

    /// A message whose head is `head` (after the start line) and body `body`,
    /// parsed as a request and as a response; their errors' statuses.
    fn both_directions(head: &str, body: &[u8]) -> [Result<Vec<u8>, u16>; 2] {
        let req = [format!("POST / HTTP/1.1\r\n{head}\r\n").as_bytes(), body].concat();
        let resp = [format!("HTTP/1.1 200 OK\r\n{head}\r\n").as_bytes(), body].concat();
        [
            read_request(&mut reader(&req)).map(|r| r.unwrap().body),
            read_response(&mut reader(&resp)).map(|r| r.body),
        ]
        .map(|parsed| parsed.map_err(|e| status_of(&e)))
    }

    #[test]
    fn a_chunk_size_past_usize_is_413_not_a_panic() {
        // 1 + usize::MAX wraps: the sum must not slip past the cap.
        let chunks = b"1\r\na\r\nffffffffffffffff\r\nb\r\n0\r\n\r\n";
        for parsed in both_directions("Transfer-Encoding: chunked\r\n", chunks) {
            assert_eq!(parsed, Err(413));
        }
    }

    #[test]
    fn signed_lengths_and_chunk_sizes_are_400() {
        for parsed in both_directions("Content-Length: +5\r\n", b"hello") {
            assert_eq!(parsed, Err(400));
        }
        let chunks = b"+5\r\nhello\r\n0\r\n\r\n";
        for parsed in both_directions("Transfer-Encoding: chunked\r\n", chunks) {
            assert_eq!(parsed, Err(400));
        }
    }

    #[test]
    fn only_a_final_chunked_coding_frames_a_body() {
        let chunks = b"5\r\nhello\r\n0\r\n\r\n";
        for parsed in both_directions("Transfer-Encoding: notchunked\r\n", chunks) {
            assert_eq!(parsed, Err(400));
        }
        for parsed in both_directions("Transfer-Encoding: gzip, chunked\r\n", chunks) {
            assert_eq!(parsed, Err(501));
        }
        for parsed in both_directions("Transfer-Encoding: Chunked\r\n", chunks) {
            assert_eq!(parsed, Ok(b"hello".to_vec()));
        }
    }

    #[test]
    fn transfer_encoding_beside_content_length_or_in_http10_is_400() {
        let head = "Transfer-Encoding: chunked\r\nContent-Length: 5\r\n";
        for parsed in both_directions(head, b"5\r\nhello\r\n0\r\n\r\n") {
            assert_eq!(parsed, Err(400));
        }
        let raw = b"POST / HTTP/1.0\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n";
        assert_eq!(status_of(&read_request(&mut reader(raw)).unwrap_err()), 400);
    }

    #[test]
    fn http10_closes_unless_it_asks_for_keep_alive() {
        let parse = |raw: &str| read_request(&mut reader(raw.as_bytes())).unwrap().unwrap();
        assert!(!keep_alive(&parse("GET / HTTP/1.0\r\n\r\n")));
        assert!(keep_alive(&parse(
            "GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n"
        )));
        assert!(keep_alive(&parse("GET / HTTP/1.1\r\n\r\n")));
        assert!(!keep_alive(&parse(
            "GET / HTTP/1.1\r\nConnection: close\r\n\r\n"
        )));
    }

    #[test]
    fn malformed_requests_still_map_to_400() {
        let err = read_request(&mut reader(b"NOT A REQUEST\r\n\r\n")).unwrap_err();
        assert_eq!(status_of(&err), 400);
    }
}
