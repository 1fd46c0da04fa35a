//! Randomized property tests for the HTTP substrate: wire round-trips, URL
//! and query codecs, and router dispatch totality. Driven by the
//! workspace's deterministic PRNG (offline, reproducible).
//!
//! Every message the wire tests parse is parsed twice: from one buffer,
//! where each header line is whole and parsed in place, and through a
//! reader that hands out 1–7 bytes per read, so lines span refills at
//! every possible boundary and take the copying path. Both must agree,
//! down to the status a rejected message would be answered with.

use std::io::{self, BufReader, Read};

use mathcloud_http::wire;
use mathcloud_http::{
    decode_query, encode_query, percent_decode, percent_encode, Method, Request, Response, Router,
    Url,
};
use mathcloud_telemetry::XorShift64;

const CASES: usize = 200;

/// Header values: printable ASCII without CR/LF, with no surrounding
/// whitespace (the wire codec trims optional whitespace around values).
fn arb_header_value(rng: &mut XorShift64) -> String {
    let len = rng.index(25);
    let s: String = (0..len)
        .map(|_| (b' ' + rng.index(95) as u8) as char)
        .collect();
    s.trim().to_string()
}

fn arb_header_name(rng: &mut XorShift64) -> String {
    const FIRST: &[char] = &['A', 'B', 'X', 'a', 'm', 'z'];
    const REST: &[char] = &['a', 'b', 'z', 'A', 'Z', '0', '9', '-'];
    let len = rng.index(11);
    let mut name = rng.pick(FIRST).to_string();
    for _ in 0..len {
        name.push(*rng.pick(REST));
    }
    name
}

fn arb_bytes(rng: &mut XorShift64, max_len: usize) -> Vec<u8> {
    let len = rng.index(max_len + 1);
    (0..len).map(|_| rng.next_u32() as u8).collect()
}

fn arb_target(rng: &mut XorShift64) -> String {
    const POOL: &[char] = &['a', 'z', '0', '9', '/'];
    let len = rng.index(21);
    format!("/{}", rng.string_from(POOL, len))
}

/// Hands out its bytes 1–7 at a time, in an order fixed by its seed.
struct Trickle<'a> {
    bytes: &'a [u8],
    rng: XorShift64,
}

impl Read for Trickle<'_> {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let n = (1 + self.rng.index(7)).min(out.len()).min(self.bytes.len());
        out[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

/// `bytes` behind a trickling reader.
fn trickle(bytes: &[u8], seed: u64) -> BufReader<Trickle<'_>> {
    BufReader::new(Trickle {
        bytes,
        rng: XorShift64::new(seed),
    })
}

/// What a parse came to, in a form two parses can be compared by.
#[derive(Debug, Clone, PartialEq)]
enum Parsed {
    Message {
        head: String,
        headers: mathcloud_http::Headers,
        body: Vec<u8>,
    },
    /// Clean end of stream before a request.
    Nothing,
    /// Rejected: the status `violation_status` maps it to, for protocol
    /// errors; `None` for a plain I/O error such as a truncated body.
    Rejected(Option<u16>),
}

fn rejected(e: &io::Error) -> Parsed {
    Parsed::Rejected((e.kind() == io::ErrorKind::InvalidData).then(|| wire::violation_status(e)))
}

fn parse_request<R: io::BufRead>(reader: &mut R, limits: &wire::Limits) -> Parsed {
    match wire::read_request_limited(reader, limits) {
        Ok(Some(req)) => Parsed::Message {
            head: format!("{} {}", req.method, req.target),
            headers: req.headers,
            body: req.body,
        },
        Ok(None) => Parsed::Nothing,
        Err(e) => rejected(&e),
    }
}

fn parse_response<R: io::BufRead>(reader: &mut R) -> Parsed {
    match wire::read_response(reader) {
        Ok(resp) => Parsed::Message {
            head: resp.status.as_u16().to_string(),
            headers: resp.headers,
            body: resp.body,
        },
        Err(e) => rejected(&e),
    }
}

/// Parses a request from one buffer and again in 1–7 byte reads; both
/// must agree. Returns the one-buffer result.
fn request_both_ways(bytes: &[u8], limits: &wire::Limits, seed: u64) -> Parsed {
    let whole = parse_request(&mut &bytes[..], limits);
    let split = parse_request(&mut trickle(bytes, seed), limits);
    assert_eq!(
        whole,
        split,
        "split reads parse differently: {:?}",
        String::from_utf8_lossy(bytes)
    );
    whole
}

fn response_both_ways(bytes: &[u8], seed: u64) -> Parsed {
    let whole = parse_response(&mut &bytes[..]);
    let split = parse_response(&mut trickle(bytes, seed));
    assert_eq!(
        whole,
        split,
        "split reads parse differently: {:?}",
        String::from_utf8_lossy(bytes)
    );
    whole
}

/// Requests round-trip through the wire encoding byte-for-byte.
#[test]
fn request_wire_round_trip() {
    let mut rng = XorShift64::new(0x717E);
    for case in 0..CASES {
        let target = arb_target(&mut rng);
        let body = arb_bytes(&mut rng, 512);
        let n_headers = rng.index(4);
        // Dedupe names case-insensitively: set() overwrites on collision.
        let mut seen = std::collections::HashSet::new();
        let headers: Vec<(String, String)> = (0..n_headers)
            .filter_map(|_| {
                let name = arb_header_name(&mut rng);
                let value = arb_header_value(&mut rng);
                seen.insert(name.to_ascii_lowercase())
                    .then_some((name, value))
            })
            .collect();
        let mut req = Request::new(Method::Post, &target);
        req.body = body.clone();
        for (n, v) in &headers {
            if n.eq_ignore_ascii_case("content-length") || n.eq_ignore_ascii_case("host") {
                continue;
            }
            req.headers.set(n, v);
        }
        let mut bytes = Vec::new();
        wire::write_request(&mut bytes, &req, "h:1").unwrap();
        request_both_ways(&bytes, &wire::Limits::default(), case as u64);
        let parsed = wire::read_request(&mut BufReader::new(&bytes[..]))
            .unwrap()
            .unwrap();
        assert_eq!(parsed.method, Method::Post, "case {case}");
        assert_eq!(parsed.target, target, "case {case}");
        assert_eq!(parsed.body, body, "case {case}");
        for (n, v) in &headers {
            if n.eq_ignore_ascii_case("content-length") || n.eq_ignore_ascii_case("host") {
                continue;
            }
            assert_eq!(parsed.headers.get(n), Some(v.as_str()), "case {case}");
        }
    }
}

/// Responses round-trip likewise, for every status code.
#[test]
fn response_wire_round_trip() {
    let mut rng = XorShift64::new(0x7357);
    for case in 0..CASES {
        let status = rng.range_i64(100, 599) as u16;
        let body = arb_bytes(&mut rng, 512);
        let mut resp = Response::empty(status);
        resp.body = body.clone();
        let mut bytes = Vec::new();
        wire::write_response(&mut bytes, &resp).unwrap();
        response_both_ways(&bytes, case as u64);
        let parsed = wire::read_response(&mut BufReader::new(&bytes[..])).unwrap();
        assert_eq!(parsed.status.as_u16(), status, "case {case}");
        assert_eq!(parsed.body, body, "case {case}");
    }
}

/// The request parser never panics on arbitrary bytes.
#[test]
fn request_parser_is_panic_free() {
    let mut rng = XorShift64::new(0xFA11);
    for case in 0..CASES {
        let bytes = arb_bytes(&mut rng, 256);
        request_both_ways(&bytes, &wire::Limits::default(), case as u64);
        response_both_ways(&bytes, case as u64);
    }
}

/// The body of [`jobpath_post`].
const JOBPATH_BODY: &str = r#"{"n": 1234567}"#;

/// A `POST` shaped like the `jobpath` benchmark's submissions.
fn jobpath_post(extra_header: &str) -> Vec<u8> {
    format!(
        "POST /services/double HTTP/1.1\r\nHost: 127.0.0.1:40123\r\n\
         Content-Type: application/json\r\n{extra_header}Content-Length: {}\r\n\r\n{JOBPATH_BODY}",
        JOBPATH_BODY.len()
    )
    .into_bytes()
}

/// [`jobpath_post`] with its header lines (`Name: value`, request line and
/// blank line excluded) rewritten by `edit`.
fn edited_post(edit: impl FnOnce(&mut Vec<String>)) -> Vec<u8> {
    let post = String::from_utf8(jobpath_post("")).unwrap();
    let (head, body) = post.split_once("\r\n\r\n").unwrap();
    let (request_line, fields) = head.split_once("\r\n").unwrap();
    let mut fields: Vec<String> = fields.split("\r\n").map(str::to_string).collect();
    edit(&mut fields);
    format!("{request_line}\r\n{}\r\n\r\n{body}", fields.join("\r\n")).into_bytes()
}

const SMALL: wire::Limits = wire::Limits {
    max_header_bytes: 256,
    max_body_bytes: 1024,
};

/// A truncated submission is never a request: a clean end before its
/// first byte, an error after it, and no panic at any offset.
#[test]
fn truncated_posts_are_never_requests() {
    let post = jobpath_post("");
    assert!(matches!(
        request_both_ways(&post, &SMALL, 0),
        Parsed::Message { .. }
    ));
    for cut in 0..post.len() {
        let parsed = request_both_ways(&post[..cut], &SMALL, cut as u64);
        assert!(
            matches!(parsed, Parsed::Nothing | Parsed::Rejected(_)),
            "cut at {cut}: {parsed:?}"
        );
        assert_eq!(parsed == Parsed::Nothing, cut == 0, "cut at {cut}");
    }
}

/// One header line a byte over the cap is `431`, and so is a header section
/// over it, whichever reads the lines arrive in.
#[test]
fn oversized_headers_are_431() {
    let cap = SMALL.max_header_bytes;
    let line = |len: usize| format!("X-Pad: {}\r\n", "p".repeat(len - "X-Pad: ".len()));
    for seed in 0..16 {
        let over = jobpath_post(&line(cap + 1));
        assert_eq!(
            request_both_ways(&over, &SMALL, seed),
            Parsed::Rejected(Some(431))
        );
        let many = jobpath_post(&line(cap / 2).repeat(3));
        assert_eq!(
            request_both_ways(&many, &SMALL, seed),
            Parsed::Rejected(Some(431))
        );
    }
}

/// Header lines a few bytes either side of the cap, with either line
/// ending, are taken or refused alike from one buffer and in split reads.
#[test]
fn lines_around_the_cap_parse_alike() {
    let cap = SMALL.max_header_bytes;
    for len in cap - 2..=cap + 2 {
        for eol in ["\r\n", "\n"] {
            let pad = "p".repeat(len - "X-Pad: ".len());
            let raw = format!("GET / HTTP/1.1{eol}X-Pad: {pad}{eol}{eol}").into_bytes();
            for seed in 0..8 {
                request_both_ways(&raw, &SMALL, seed);
            }
        }
    }
}

/// A byte that is not UTF-8 in any header line is `400`.
#[test]
fn non_utf8_header_bytes_are_400() {
    let post = jobpath_post("X-Note: ok\r\n");
    let head_len = post.windows(4).position(|w| w == b"\r\n\r\n").unwrap();
    for at in 0..head_len {
        if post[at] == b'\r' || post[at] == b'\n' {
            continue;
        }
        let mut bad = post.clone();
        bad[at] = 0xFF;
        assert_eq!(
            request_both_ways(&bad, &SMALL, at as u64),
            Parsed::Rejected(Some(400)),
            "0xFF at {at}"
        );
    }
}

/// Bare-LF line endings parse as CRLF ones do.
#[test]
fn bare_lf_parses_as_crlf() {
    let post = jobpath_post("X-Note: ok\r\n");
    let head_len = post.windows(4).position(|w| w == b"\r\n\r\n").unwrap() + 4;
    let mut lf: Vec<u8> = post[..head_len]
        .iter()
        .copied()
        .filter(|&b| b != b'\r')
        .collect();
    lf.extend_from_slice(&post[head_len..]);
    for seed in 0..16 {
        let crlf = request_both_ways(&post, &SMALL, seed);
        assert!(matches!(crlf, Parsed::Message { .. }));
        assert_eq!(request_both_ways(&lf, &SMALL, seed), crlf);
    }
}

/// One header line of the submission repeated anywhere in the head, its
/// name in either case. A repeated `Host` or `Content-Type` is one more
/// field; a repeated `Content-Length` frames the body alike when the values
/// agree and is `400` when they differ: framed by the first value, the rest
/// of the body would be read as the next request.
#[test]
fn duplicated_header_lines() {
    let mut rng = XorShift64::new(0xD0B1E);
    for case in 0..CASES {
        let mut conflicting = false;
        let post = edited_post(|fields| {
            let line = fields[rng.index(fields.len())].clone();
            let (name, value) = line.split_once(": ").unwrap();
            let name = if rng.bool() {
                name.to_ascii_lowercase()
            } else {
                name.to_string()
            };
            let mut value = value.to_string();
            if name.eq_ignore_ascii_case("content-length") && rng.bool() {
                let len = JOBPATH_BODY.len();
                value = rng.pick(&[0, len - 1, len + 1, 10 * len]).to_string();
                conflicting = true;
            }
            fields.insert(rng.index(fields.len() + 1), format!("{name}: {value}"));
        });
        let parsed = request_both_ways(&post, &SMALL, case as u64);
        if conflicting {
            assert_eq!(parsed, Parsed::Rejected(Some(400)), "case {case}");
            continue;
        }
        let Parsed::Message { headers, body, .. } = parsed else {
            panic!("case {case}: {parsed:?}");
        };
        assert_eq!(headers.len(), 4, "case {case}");
        assert_eq!(body, JOBPATH_BODY.as_bytes(), "case {case}");
    }
}

/// A `Content-Length` no body fits under: past the body cap (`usize::MAX`
/// included) is `413` before a body byte is read, past `usize` is `400`.
#[test]
fn oversize_content_lengths() {
    let over_cap = (SMALL.max_body_bytes + 1).to_string();
    let max = usize::MAX.to_string();
    for (value, status) in [
        (over_cap.as_str(), 413),
        (max.as_str(), 413),
        ("99999999999999999999", 400),
        ("18446744073709551616", 400),
    ] {
        let post = edited_post(|fields| {
            for field in fields.iter_mut() {
                if field.starts_with("Content-Length:") {
                    *field = format!("Content-Length: {value}");
                }
            }
        });
        for seed in 0..16 {
            assert_eq!(
                request_both_ways(&post, &SMALL, seed),
                Parsed::Rejected(Some(status)),
                "Content-Length: {value}"
            );
        }
    }
}

/// HTTP version, framing fields, body bytes, and the body read or the
/// status refused with.
type FramingCase = (
    &'static str,
    &'static str,
    &'static [u8],
    Result<&'static [u8], u16>,
);

/// RFC 9112 §6 framing cases, each read as a request and as a response
/// (of the same version, with the same framing fields and body): the body
/// both take, or the status both are refused with.
#[test]
fn rfc9112_framing_table() {
    const CHUNKED: &str = "Transfer-Encoding: chunked\r\n";
    let cases: &[FramingCase] = &[
        // §6.3 (7): neither field, no body.
        ("1.1", "", b"", Ok(b"")),
        ("1.1", "Content-Length: 5\r\n", b"hello", Ok(b"hello")),
        ("1.1", "Content-Length: 005\r\n", b"hello", Ok(b"hello")),
        (
            "1.1",
            "Content-Length: 5\r\ncontent-length: 5\r\n",
            b"hello",
            Ok(b"hello"),
        ),
        ("1.0", "Content-Length: 5\r\n", b"hello", Ok(b"hello")),
        // §8.6: Content-Length = 1*DIGIT; §6.3 (5): differing values.
        ("1.1", "Content-Length: +5\r\n", b"hello", Err(400)),
        ("1.1", "Content-Length: -5\r\n", b"hello", Err(400)),
        ("1.1", "Content-Length: 0x5\r\n", b"hello", Err(400)),
        ("1.1", "Content-Length: 5 5\r\n", b"hello", Err(400)),
        ("1.1", "Content-Length: 5, 5\r\n", b"hello", Err(400)),
        ("1.1", "Content-Length:\r\n", b"hello", Err(400)),
        (
            "1.1",
            "Content-Length: 5\r\nContent-Length: 6\r\n",
            b"hello",
            Err(400),
        ),
        // §7.1: chunked bodies, extensions, BWS before `;`, trailers.
        ("1.1", CHUNKED, b"5\r\nhello\r\n0\r\n\r\n", Ok(b"hello")),
        (
            "1.1",
            "Transfer-Encoding: CHUNKED\r\n",
            b"5\r\nhello\r\n0\r\n\r\n",
            Ok(b"hello"),
        ),
        (
            "1.1",
            "Transfer-Encoding: , chunked\r\n",
            b"5\r\nhello\r\n0\r\n\r\n",
            Ok(b"hello"),
        ),
        (
            "1.1",
            CHUNKED,
            b"5 ;a=1\r\nhello\r\n0\r\nX: y\r\n\r\n",
            Ok(b"hello"),
        ),
        (
            "1.1",
            CHUNKED,
            b"0005\r\nhello\r\n000\r\n\r\n",
            Ok(b"hello"),
        ),
        // chunk-size = 1*HEXDIG.
        ("1.1", CHUNKED, b"+5\r\nhello\r\n0\r\n\r\n", Err(400)),
        ("1.1", CHUNKED, b"-5\r\nhello\r\n0\r\n\r\n", Err(400)),
        ("1.1", CHUNKED, b" 5\r\nhello\r\n0\r\n\r\n", Err(400)),
        ("1.1", CHUNKED, b"0x5\r\nhello\r\n0\r\n\r\n", Err(400)),
        ("1.1", CHUNKED, b";a=1\r\nhello\r\n0\r\n\r\n", Err(400)),
        (
            "1.1",
            CHUNKED,
            b"10000000000000000\r\nhello\r\n0\r\n\r\n",
            Err(400),
        ),
        (
            "1.1",
            CHUNKED,
            b"1\r\nh\r\nffffffffffffffff\r\nello\r\n0\r\n\r\n",
            Err(413),
        ),
        // §6.3 (4): chunked must be the final coding; §6.1: none other is
        // implemented.
        (
            "1.1",
            "Transfer-Encoding: notchunked\r\n",
            b"5\r\nhello\r\n0\r\n\r\n",
            Err(400),
        ),
        (
            "1.1",
            "Transfer-Encoding: chunked, gzip\r\n",
            b"5\r\nhello\r\n0\r\n\r\n",
            Err(400),
        ),
        (
            "1.1",
            "Transfer-Encoding:\r\n",
            b"5\r\nhello\r\n0\r\n\r\n",
            Err(400),
        ),
        (
            "1.1",
            "Transfer-Encoding: gzip, chunked\r\n",
            b"5\r\nhello\r\n0\r\n\r\n",
            Err(501),
        ),
        (
            "1.1",
            "Transfer-Encoding: gzip\r\nTransfer-Encoding: chunked\r\n",
            b"5\r\nhello\r\n0\r\n\r\n",
            Err(501),
        ),
        // §6.1: both fields, or a coding in HTTP/1.0, is faulty framing.
        (
            "1.1",
            "Transfer-Encoding: chunked\r\nContent-Length: 5\r\n",
            b"hello",
            Err(400),
        ),
        (
            "1.1",
            "Content-Length: 5\r\nTransfer-Encoding: chunked\r\n",
            b"hello",
            Err(400),
        ),
        ("1.0", CHUNKED, b"5\r\nhello\r\n0\r\n\r\n", Err(400)),
    ];
    for (case, &(version, fields, body, expected)) in cases.iter().enumerate() {
        let expected = expected
            .map(<[u8]>::to_vec)
            .map_err(|status| Parsed::Rejected(Some(status)));
        let request = [
            format!("POST / HTTP/{version}\r\n{fields}\r\n").as_bytes(),
            body,
        ]
        .concat();
        let response = [
            format!("HTTP/{version} 200 OK\r\n{fields}\r\n").as_bytes(),
            body,
        ]
        .concat();
        for parsed in [
            request_both_ways(&request, &SMALL, case as u64),
            response_both_ways(&response, case as u64),
        ] {
            assert_eq!(
                body_of(parsed),
                expected,
                "HTTP/{version} {fields:?} {:?}",
                String::from_utf8_lossy(body)
            );
        }
    }
}

/// A parsed message's body, or what else the parse came to.
fn body_of(parsed: Parsed) -> Result<Vec<u8>, Parsed> {
    match parsed {
        Parsed::Message { body, .. } => Ok(body),
        other => Err(other),
    }
}

/// Chunk-size lines of 1–20 hex digits, with or without a sign, spaces
/// and an extension, never panic either parser, in one buffer or in
/// 1–7-byte reads. A request takes the size only as `1*HEXDIG`, then
/// optional whitespace and an optional `;` extension, and only up to the
/// body cap; past it, `413`; anything else, `400`.
#[test]
fn chunk_size_lines() {
    const HEX: &[char] = &[
        '0', '0', '0', '0', '0', '0', '1', '7', '9', 'a', 'F', 'f', 'c', 'D',
    ];
    const PREFIXES: &[&str] = &["", "", "", "+", "-", " ", "\t", "0x"];
    const SUFFIXES: &[&str] = &["", "", " ", "\t", ";ext", " ;e=1", "\t; e", "x", " 1", ","];
    let mut rng = XorShift64::new(0xC4_0E);
    for case in 0..4 * CASES {
        let len = 1 + rng.index(20);
        let digits = rng.string_from(HEX, len);
        let (prefix, suffix) = (*rng.pick(PREFIXES), *rng.pick(SUFFIXES));
        let size = usize::from_str_radix(&digits, 16).ok();
        let data = "d".repeat(size.unwrap_or(0).min(SMALL.max_body_bytes + 1));
        let chunks = format!("{prefix}{digits}{suffix}\r\n{data}\r\n0\r\n\r\n");
        let framed = "Transfer-Encoding: chunked\r\n\r\n";
        let response = format!("HTTP/1.1 200 OK\r\n{framed}{chunks}");
        response_both_ways(response.as_bytes(), case as u64);
        let request = format!("POST / HTTP/1.1\r\n{framed}{chunks}");
        let parsed = request_both_ways(request.as_bytes(), &SMALL, case as u64);
        let rest = suffix.trim_start_matches([' ', '\t']);
        let grammatical = prefix.is_empty() && (rest.is_empty() || rest.starts_with(';'));
        let expected = match size {
            Some(n) if grammatical && n <= SMALL.max_body_bytes => Ok(data.into_bytes()),
            Some(_) if grammatical => Err(Parsed::Rejected(Some(413))),
            _ => Err(Parsed::Rejected(Some(400))),
        };
        let line = &chunks[..chunks.find('\r').unwrap()];
        assert_eq!(body_of(parsed), expected, "case {case}: {line:?}");
    }
}

/// Every message one connection's bytes parse as, up to its clean end or
/// its first error, after which a server closes it.
fn connection<R: io::BufRead>(reader: &mut R) -> Vec<Parsed> {
    let mut parsed = Vec::new();
    loop {
        let next = parse_request(reader, &SMALL);
        let last = !matches!(next, Parsed::Message { .. });
        parsed.push(next);
        if last {
            return parsed;
        }
    }
}

/// [`jobpath_post`]'s request with a chunked body.
fn chunked_jobpath_post() -> Vec<u8> {
    let post = String::from_utf8(jobpath_post("")).unwrap();
    let (head, body) = post.split_once("\r\n\r\n").unwrap();
    let head = head.replace("Content-Length: 14", "Transfer-Encoding: chunked");
    format!("{head}\r\n\r\n{:x}\r\n{body}\r\n0\r\n\r\n", body.len()).into_bytes()
}

/// Two submissions on one keep-alive connection, one framed by length and
/// one chunked, the second spliced into the first at every offset. At
/// either end of the first they are the two requests. Anywhere else the
/// connection holds at most two requests and then one error or its end,
/// never a third. Two requests come only from a splice inside the first's
/// method or the last bytes of its length-framed body, which merges or
/// clips a method (any token is one); no other byte of either submission
/// is read as a request line.
#[test]
fn spliced_posts_on_one_connection() {
    let pair = [jobpath_post(""), chunked_jobpath_post()];
    for [first, second] in [[&pair[0], &pair[1]], [&pair[1], &pair[0]]] {
        let alone = |post: &[u8]| connection(&mut &post[..]).remove(0);
        let (first_req, second_req) = (alone(first), alone(second));
        assert!(matches!(first_req, Parsed::Message { .. }), "{first_req:?}");
        for at in 0..=first.len() {
            let stream = [&first[..at], second, &first[at..]].concat();
            let whole = connection(&mut &stream[..]);
            assert_eq!(
                whole,
                connection(&mut trickle(&stream, at as u64)),
                "at {at}"
            );
            let requests = whole.len() - 1;
            if at == 0 {
                assert_eq!(
                    whole,
                    [second_req.clone(), first_req.clone(), Parsed::Nothing]
                );
            } else if at == first.len() {
                assert_eq!(
                    whole,
                    [first_req.clone(), second_req.clone(), Parsed::Nothing]
                );
            } else {
                let near_an_end = at < "POST".len() || first.len() - at < "POST".len();
                assert!(
                    requests < 2 || requests == 2 && near_an_end,
                    "at {at}: {whole:?}"
                );
            }
        }
    }
}

/// Percent-encoding round-trips arbitrary unicode.
#[test]
fn percent_round_trip() {
    let mut rng = XorShift64::new(0xE5C);
    for case in 0..CASES {
        let s = rng.unicode_string(40);
        assert_eq!(percent_decode(&percent_encode(&s)), s, "case {case}");
    }
}

/// Query strings round-trip arbitrary key/value pairs.
#[test]
fn query_round_trip() {
    let mut rng = XorShift64::new(0x9E4);
    for case in 0..CASES {
        let n = rng.index(5);
        let pairs: Vec<(String, String)> = (0..n)
            .map(|_| {
                let key = loop {
                    let k = rng.unicode_string(10);
                    if !k.is_empty() {
                        break k;
                    }
                };
                let value = rng.unicode_string(10);
                (key, value)
            })
            .collect();
        let encoded = encode_query(&pairs);
        assert_eq!(decode_query(&encoded), pairs, "case {case}: {encoded}");
    }
}

/// URLs printed from parsed form re-parse identically.
#[test]
fn url_round_trip() {
    const HOST_FIRST: &[char] = &['a', 'h', 'z'];
    const HOST_REST: &[char] = &['a', 'z', '0', '9', '.', '-'];
    const SEG: &[char] = &['a', 'z', '0', '9'];
    let mut rng = XorShift64::new(0x5EA);
    for case in 0..CASES {
        let mut host = rng.pick(HOST_FIRST).to_string();
        let host_len = rng.index(16);
        for _ in 0..host_len {
            host.push(*rng.pick(HOST_REST));
        }
        let port = 1 + rng.index(65534) as u16;
        let mut path = String::new();
        for _ in 0..rng.index(5) {
            let len = 1 + rng.index(6);
            path.push('/');
            path.push_str(&rng.string_from(SEG, len));
        }
        if path.is_empty() {
            path.push('/');
        }
        let text = format!("http://{host}:{port}{path}");
        let url: Url = text.parse().unwrap();
        assert_eq!(
            url.to_string().parse::<Url>().unwrap(),
            url,
            "case {case}: {text}"
        );
    }
}

/// Router dispatch is total: every request gets a response (never a panic),
/// and unmatched paths are 404.
#[test]
fn router_dispatch_is_total() {
    let mut rng = XorShift64::new(0x404);
    let mut router = Router::new();
    router.get("/known/{x}", |_r, _p| Response::empty(200));
    for case in 0..CASES {
        let target = {
            let t = rng.unicode_string(40);
            if t.starts_with('/') {
                t
            } else {
                format!("/{t}")
            }
        };
        let resp = router.dispatch(&Request::new(Method::Get, &target));
        let status = resp.status.as_u16();
        assert!(
            status == 200 || status == 404,
            "case {case}: {status} for {target:?}"
        );
    }
}
