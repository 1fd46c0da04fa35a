//! HTTP message model: methods, status codes, headers, requests, responses.

use std::fmt;
use std::io;
use std::sync::Arc;

use mathcloud_json::Value;

/// The header a client sets to make a `POST` submission idempotent: the
/// server creates at most one job per `(service, key)` and answers retries
/// with the original job. A request carrying this header is safe for the
/// client to retry even though `POST` is not idempotent in general
/// ([`crate::RetryPolicy`] honours this).
pub const IDEMPOTENCY_KEY_HEADER: &str = "Idempotency-Key";

/// The response header a container sets (value `"true"`) when a submission
/// was answered from its result memo cache: the body carries an existing —
/// usually already `DONE` — job with the same canonical inputs instead of a
/// freshly created one.
pub const MEMO_HIT_HEADER: &str = "X-MC-Memo-Hit";

/// An HTTP request method.
///
/// The MathCloud unified REST API (Table 1 of the paper) only needs `GET`,
/// `POST` and `DELETE`, but the full standard set is modeled so the router
/// can return correct `405` responses.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Method {
    /// `GET`
    Get,
    /// `POST`
    Post,
    /// `PUT`
    Put,
    /// `DELETE`
    Delete,
    /// `HEAD`
    Head,
    /// `OPTIONS`
    Options,
    /// `PATCH`
    Patch,
    /// Any extension method.
    Other(String),
}

impl Method {
    /// Parses a method token (case-sensitive, per RFC 9110).
    pub fn from_token(token: &str) -> Method {
        match token {
            "GET" => Method::Get,
            "POST" => Method::Post,
            "PUT" => Method::Put,
            "DELETE" => Method::Delete,
            "HEAD" => Method::Head,
            "OPTIONS" => Method::Options,
            "PATCH" => Method::Patch,
            other => Method::Other(other.to_string()),
        }
    }

    /// The wire token for this method.
    pub fn as_str(&self) -> &str {
        match self {
            Method::Get => "GET",
            Method::Post => "POST",
            Method::Put => "PUT",
            Method::Delete => "DELETE",
            Method::Head => "HEAD",
            Method::Options => "OPTIONS",
            Method::Patch => "PATCH",
            Method::Other(s) => s,
        }
    }
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// An HTTP status code.
///
/// # Examples
///
/// ```
/// use mathcloud_http::StatusCode;
///
/// assert_eq!(StatusCode::OK.as_u16(), 200);
/// assert_eq!(StatusCode::NOT_FOUND.reason(), "Not Found");
/// assert!(StatusCode::from(503).is_server_error());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StatusCode(u16);

impl StatusCode {
    /// `200 OK`
    pub const OK: StatusCode = StatusCode(200);
    /// `201 Created`
    pub const CREATED: StatusCode = StatusCode(201);
    /// `202 Accepted`
    pub const ACCEPTED: StatusCode = StatusCode(202);
    /// `204 No Content`
    pub const NO_CONTENT: StatusCode = StatusCode(204);
    /// `400 Bad Request`
    pub const BAD_REQUEST: StatusCode = StatusCode(400);
    /// `401 Unauthorized`
    pub const UNAUTHORIZED: StatusCode = StatusCode(401);
    /// `403 Forbidden`
    pub const FORBIDDEN: StatusCode = StatusCode(403);
    /// `404 Not Found`
    pub const NOT_FOUND: StatusCode = StatusCode(404);
    /// `405 Method Not Allowed`
    pub const METHOD_NOT_ALLOWED: StatusCode = StatusCode(405);
    /// `409 Conflict`
    pub const CONFLICT: StatusCode = StatusCode(409);
    /// `408 Request Timeout`
    pub const REQUEST_TIMEOUT: StatusCode = StatusCode(408);
    /// `413 Payload Too Large`
    pub const PAYLOAD_TOO_LARGE: StatusCode = StatusCode(413);
    /// `431 Request Header Fields Too Large`
    pub const HEADER_FIELDS_TOO_LARGE: StatusCode = StatusCode(431);
    /// `500 Internal Server Error`
    pub const INTERNAL_SERVER_ERROR: StatusCode = StatusCode(500);
    /// `503 Service Unavailable`
    pub const SERVICE_UNAVAILABLE: StatusCode = StatusCode(503);

    /// The numeric code.
    pub fn as_u16(self) -> u16 {
        self.0
    }

    /// Returns `true` for 2xx codes.
    pub fn is_success(self) -> bool {
        (200..300).contains(&self.0)
    }

    /// Returns `true` for 4xx codes.
    pub fn is_client_error(self) -> bool {
        (400..500).contains(&self.0)
    }

    /// Returns `true` for 5xx codes.
    pub fn is_server_error(self) -> bool {
        (500..600).contains(&self.0)
    }

    /// The canonical reason phrase (empty for unknown codes).
    pub fn reason(self) -> &'static str {
        match self.0 {
            200 => "OK",
            201 => "Created",
            202 => "Accepted",
            204 => "No Content",
            207 => "Multi-Status",
            301 => "Moved Permanently",
            302 => "Found",
            304 => "Not Modified",
            400 => "Bad Request",
            401 => "Unauthorized",
            403 => "Forbidden",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            409 => "Conflict",
            411 => "Length Required",
            413 => "Payload Too Large",
            415 => "Unsupported Media Type",
            429 => "Too Many Requests",
            431 => "Request Header Fields Too Large",
            500 => "Internal Server Error",
            501 => "Not Implemented",
            503 => "Service Unavailable",
            _ => "",
        }
    }
}

impl From<u16> for StatusCode {
    fn from(code: u16) -> Self {
        StatusCode(code)
    }
}

impl fmt::Display for StatusCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.0, self.reason())
    }
}

/// An ordered, case-insensitive multimap of HTTP header fields.
///
/// # Examples
///
/// ```
/// use mathcloud_http::Headers;
///
/// let mut h = Headers::new();
/// h.set("Content-Type", "application/json");
/// assert_eq!(h.get("content-type"), Some("application/json"));
/// ```
#[derive(Clone, Default)]
pub struct Headers {
    /// Every name and value, back to back in insertion order.
    text: String,
    /// Per field: where its name starts, where its value starts (= where
    /// the name ends) and where the value ends, in `text`.
    entries: Vec<(usize, usize, usize)>,
}

/// Bytes and fields a header map reserves on its first append, so a
/// typical message fills one buffer and one index without regrowing.
const HEADER_TEXT_HINT: usize = 256;
const HEADER_FIELDS_HINT: usize = 8;

impl Headers {
    /// Creates an empty header map.
    pub fn new() -> Self {
        Headers::default()
    }

    fn field(&self, &(start, mid, end): &(usize, usize, usize)) -> (&str, &str) {
        (&self.text[start..mid], &self.text[mid..end])
    }

    /// Returns the first value for `name` (case-insensitive).
    pub fn get(&self, name: &str) -> Option<&str> {
        self.iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v)
    }

    /// Every value for `name` (case-insensitive), in order.
    pub fn get_all<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a str> {
        self.iter()
            .filter(move |(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v)
    }

    /// Replaces all values of `name` with a single value.
    pub fn set(&mut self, name: &str, value: &str) {
        self.remove(name);
        self.append(name, value);
    }

    /// Appends a value without removing existing ones.
    pub fn append(&mut self, name: &str, value: &str) {
        if self.entries.is_empty() && self.text.capacity() == 0 {
            self.text
                .reserve(HEADER_TEXT_HINT.max(name.len() + value.len()));
            self.entries.reserve(HEADER_FIELDS_HINT);
        }
        let start = self.text.len();
        self.text.push_str(name);
        let mid = self.text.len();
        self.text.push_str(value);
        self.entries.push((start, mid, self.text.len()));
    }

    /// Removes all values of `name`.
    pub fn remove(&mut self, name: &str) {
        let mut i = 0;
        while i < self.entries.len() {
            let (start, mid, end) = self.entries[i];
            if !self.text[start..mid].eq_ignore_ascii_case(name) {
                i += 1;
                continue;
            }
            // Fields sit in `text` in index order: close the gap in place
            // and shift the later fields down.
            self.text.drain(start..end);
            self.entries.remove(i);
            let gap = end - start;
            for field in &mut self.entries[i..] {
                field.0 -= gap;
                field.1 -= gap;
                field.2 -= gap;
            }
        }
    }

    /// Returns `true` if `name` is present.
    pub fn contains(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// Iterates `(name, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.entries.iter().map(|field| self.field(field))
    }

    /// Number of header fields.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` when no fields are present.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl PartialEq for Headers {
    fn eq(&self, other: &Headers) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Eq for Headers {}

impl fmt::Debug for Headers {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The HTTP version of a message: 1.0, or 1.1 for any later 1.x.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Version {
    /// `HTTP/1.0`: no transfer codings, connections close by default.
    Http10,
    /// `HTTP/1.1`.
    #[default]
    Http11,
}

/// An HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// The request method.
    pub method: Method,
    /// The request target as received (path plus optional `?query`).
    pub target: String,
    /// The version of the request line.
    pub version: Version,
    /// Header fields.
    pub headers: Headers,
    /// The request body (possibly empty).
    pub body: Vec<u8>,
}

impl Request {
    /// Creates a request with an empty body.
    pub fn new(method: Method, target: &str) -> Self {
        Request {
            method,
            target: target.to_string(),
            version: Version::default(),
            headers: Headers::new(),
            body: Vec::new(),
        }
    }

    /// The path portion of the target (before `?`), as received: not
    /// percent-decoded (the router decodes the segments it captures).
    pub fn path(&self) -> &str {
        match self.target.split_once('?') {
            Some((path, _)) => path,
            None => &self.target,
        }
    }

    /// The raw query string (after `?`), if any.
    pub fn query_raw(&self) -> Option<&str> {
        self.target.split_once('?').map(|(_, q)| q)
    }

    /// Decoded query parameters in order of appearance.
    pub fn query_pairs(&self) -> Vec<(String, String)> {
        self.query_raw()
            .map(crate::url::decode_query)
            .unwrap_or_default()
    }

    /// First query parameter named `key`.
    pub fn query(&self, key: &str) -> Option<String> {
        self.query_pairs()
            .into_iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// Sets a JSON body with the matching content type (builder style).
    pub fn with_json(mut self, value: &Value) -> Self {
        self.body = value.to_string().into_bytes();
        self.headers.set("Content-Type", "application/json");
        self
    }

    /// Sets a plain-text body (builder style).
    pub fn with_text(mut self, text: &str) -> Self {
        self.body = text.as_bytes().to_vec();
        self.headers
            .set("Content-Type", "text/plain; charset=utf-8");
        self
    }

    /// Sets a header (builder style).
    pub fn with_header(mut self, name: &str, value: &str) -> Self {
        self.headers.set(name, value);
        self
    }

    /// The body as UTF-8 text (lossy).
    pub fn body_string(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }

    /// Parses the body as JSON, in place.
    ///
    /// # Errors
    ///
    /// Returns the JSON parse error for malformed bodies; a body that is not
    /// UTF-8 is one, at the offset of its first bad byte.
    pub fn body_json(&self) -> Result<Value, mathcloud_json::ParseError> {
        mathcloud_json::parse_bytes(&self.body)
    }
}

/// Cooperative stop signal handed to streaming response bodies.
///
/// The server sets it when it begins shutting down; long-lived streams
/// (Server-Sent Events) poll it between writes and return promptly instead
/// of holding their streamer thread until the next heartbeat.
#[derive(Clone, Debug, Default)]
pub struct StreamControl {
    stop: Arc<std::sync::atomic::AtomicBool>,
}

impl StreamControl {
    /// A fresh, un-signalled control (what tests and standalone
    /// [`BodyStream::run`] callers pass).
    pub fn new() -> Self {
        StreamControl::default()
    }

    /// Signals every stream holding a clone of this control to finish.
    pub fn stop(&self) {
        self.stop.store(true, std::sync::atomic::Ordering::SeqCst);
    }

    /// Whether the server asked the stream to finish.
    pub fn is_stopped(&self) -> bool {
        self.stop.load(std::sync::atomic::Ordering::SeqCst)
    }
}

/// A streaming response body: a callback that takes over the connection's
/// writer after the header section is sent (Server-Sent Events).
///
/// The connection closes when the callback returns, so `Content-Length` is
/// never needed; a write error means the client went away and the callback
/// should simply return. The [`StreamControl`] is the server's shutdown
/// signal — well-behaved streams poll it between blocking waits.
#[derive(Clone)]
pub struct BodyStream(
    Arc<dyn Fn(&mut dyn io::Write, &StreamControl) -> io::Result<()> + Send + Sync>,
);

impl BodyStream {
    /// Runs the stream over `writer` until it finishes, the peer goes away,
    /// or `control` is stopped.
    ///
    /// # Errors
    ///
    /// Propagates the first write error (usually a vanished client).
    pub fn run(&self, writer: &mut dyn io::Write, control: &StreamControl) -> io::Result<()> {
        (self.0)(writer, control)
    }
}

impl fmt::Debug for BodyStream {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("BodyStream")
    }
}

/// Bytes a JSON response body starts with: a job document or an error
/// fits without regrowing the buffer.
const JSON_BODY_HINT: usize = 512;

/// An HTTP response.
#[derive(Debug, Clone)]
pub struct Response {
    /// The status code.
    pub status: StatusCode,
    /// Header fields.
    pub headers: Headers,
    /// The response body (possibly empty).
    pub body: Vec<u8>,
    /// When set, the server ignores `body`, writes the headers, and hands
    /// the connection to this callback (see [`Response::streaming`]).
    pub stream: Option<BodyStream>,
}

impl Response {
    /// An empty response with the given status.
    pub fn empty(status: impl Into<StatusCode>) -> Self {
        Response {
            status: status.into(),
            headers: Headers::new(),
            body: Vec::new(),
            stream: None,
        }
    }

    /// A streaming response: after the status line and headers, the server
    /// calls `f` with the connection writer and a [`StreamControl`] shutdown
    /// signal, closing the connection when it returns. Used for
    /// `text/event-stream` endpoints.
    pub fn streaming(
        status: impl Into<StatusCode>,
        content_type: &str,
        f: impl Fn(&mut dyn io::Write, &StreamControl) -> io::Result<()> + Send + Sync + 'static,
    ) -> Self {
        let mut r = Response::empty(status);
        r.headers.set("Content-Type", content_type);
        r.stream = Some(BodyStream(Arc::new(f)));
        r
    }

    /// A JSON response.
    ///
    /// # Examples
    ///
    /// ```
    /// use mathcloud_http::Response;
    /// use mathcloud_json::json;
    ///
    /// let r = Response::json(200, &json!({"state": "DONE"}));
    /// assert_eq!(r.headers.get("content-type"), Some("application/json"));
    /// ```
    pub fn json(status: impl Into<StatusCode>, value: &Value) -> Self {
        let mut r = Response::empty(status);
        let mut body = String::with_capacity(JSON_BODY_HINT);
        mathcloud_json::ser::write_value(&mut body, value)
            .expect("writing to a String cannot fail");
        r.body = body.into_bytes();
        r.headers.set("Content-Type", "application/json");
        r
    }

    /// A plain-text response.
    pub fn text(status: impl Into<StatusCode>, text: &str) -> Self {
        let mut r = Response::empty(status);
        r.body = text.as_bytes().to_vec();
        r.headers.set("Content-Type", "text/plain; charset=utf-8");
        r
    }

    /// An HTML response (the container's auto-generated web UI).
    pub fn html(status: impl Into<StatusCode>, html: &str) -> Self {
        let mut r = Response::empty(status);
        r.body = html.as_bytes().to_vec();
        r.headers.set("Content-Type", "text/html; charset=utf-8");
        r
    }

    /// A binary response with an explicit content type (file downloads).
    pub fn bytes(status: impl Into<StatusCode>, content_type: &str, body: Vec<u8>) -> Self {
        let mut r = Response::empty(status);
        r.body = body;
        r.headers.set("Content-Type", content_type);
        r
    }

    /// The standard MathCloud error payload: `{"error": reason}`.
    pub fn error(status: impl Into<StatusCode>, reason: &str) -> Self {
        Response::json(status, &mathcloud_json::json!({ "error": reason }))
    }

    /// Sets a header (builder style).
    pub fn with_header(mut self, name: &str, value: &str) -> Self {
        self.headers.set(name, value);
        self
    }

    /// The body as UTF-8 text (lossy).
    pub fn body_string(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }

    /// Parses the body as JSON, in place.
    ///
    /// # Errors
    ///
    /// Returns the JSON parse error for malformed bodies; a body that is not
    /// UTF-8 is one, at the offset of its first bad byte.
    pub fn body_json(&self) -> Result<Value, mathcloud_json::ParseError> {
        mathcloud_json::parse_bytes(&self.body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mathcloud_json::json;

    #[test]
    fn method_round_trip() {
        for m in ["GET", "POST", "DELETE", "BREW"] {
            assert_eq!(Method::from_token(m).as_str(), m);
        }
        assert_eq!(
            Method::from_token("get"),
            Method::Other("get".into()),
            "methods are case-sensitive"
        );
    }

    #[test]
    fn status_classification() {
        assert!(StatusCode::OK.is_success());
        assert!(!StatusCode::OK.is_client_error());
        assert!(StatusCode::NOT_FOUND.is_client_error());
        assert!(StatusCode::INTERNAL_SERVER_ERROR.is_server_error());
        assert!(StatusCode::from(299).is_success());
        assert_eq!(StatusCode::from(777).reason(), "");
    }

    #[test]
    fn headers_are_case_insensitive_and_ordered() {
        let mut h = Headers::new();
        h.append("Accept", "application/json");
        h.append("accept", "text/html");
        assert_eq!(h.get("ACCEPT"), Some("application/json"));
        assert_eq!(h.get_all("Accept").count(), 2);
        h.set("accept", "*/*");
        assert_eq!(h.get_all("Accept").collect::<Vec<_>>(), vec!["*/*"]);
        h.remove("AcCePt");
        assert!(h.is_empty());
    }

    #[test]
    fn request_query_parsing() {
        let r = Request::new(Method::Get, "/search?q=matrix%20inversion&tag=cas&tag=grid");
        assert_eq!(r.path(), "/search");
        assert_eq!(r.query("q").as_deref(), Some("matrix inversion"));
        assert_eq!(r.query_pairs().len(), 3);
        let r = Request::new(Method::Get, "/plain");
        assert_eq!(r.path(), "/plain");
        assert!(r.query_raw().is_none());
    }

    #[test]
    fn json_bodies_round_trip() {
        let v = json!({"inputs": {"n": 250}});
        let req = Request::new(Method::Post, "/services/inverse").with_json(&v);
        assert_eq!(req.body_json().unwrap(), v);
        let resp = Response::json(201, &v);
        assert_eq!(resp.body_json().unwrap(), v);
        assert!(Response::text(200, "{not json").body_json().is_err());
    }

    #[test]
    fn a_body_that_is_not_utf8_is_a_parse_error_not_a_replacement_char() {
        let mut req = Request::new(Method::Post, "/services/s");
        req.body = b"{\"s\":\"a\xFFb\"}".to_vec();
        let e = req.body_json().unwrap_err();
        assert_eq!((e.message(), e.offset), ("invalid utf-8", 7));
        assert_eq!(
            req.body_string(),
            "{\"s\":\"a\u{FFFD}b\"}",
            "display stays lossy"
        );
    }

    #[test]
    fn error_payload_shape() {
        let r = Response::error(404, "no such job");
        assert_eq!(
            r.body_json().unwrap()["error"].as_str(),
            Some("no such job")
        );
        assert_eq!(r.status, StatusCode::NOT_FOUND);
    }
}
