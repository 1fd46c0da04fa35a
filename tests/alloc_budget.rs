//! Allocation budget of a keep-alive request at both ends of the HTTP edge.
//!
//! A counting global allocator tallies heap allocations (fresh blocks and
//! regrown ones) and the bytes they ask for (a regrown block at its new
//! size) per thread, so tests running in parallel never count each other's
//! work. Seven operations are counted, each after two warm-up rounds
//! (instrument registration, memo priming) and as the least of five rounds:
//!
//! * the dispatch of a `GET` of a DONE job through `rest::router`;
//! * the dispatch of a `POST` answered from the result memo;
//! * the same for a `POST` carrying a 64 KiB string, in allocations and in
//!   bytes: a pass that copies the body shows in the bytes; and again with a
//!   `\"` every 64 bytes of that string, where a parser that grows its
//!   string by doubling shows in the bytes;
//! * a 64 KiB `POST` the memo has not seen, which creates and runs its job,
//!   in allocations and in bytes;
//! * `wire::read_request_limited` of the small `POST`, from an in-memory
//!   buffer;
//! * `wire::read_response` of a job document, likewise.
//!
//! The ceilings sit between the counts of the edge that parsed headers
//! into one `String` per field, cloned job documents, decoded bodies into a
//! `String` before parsing them and copied every memo hit into a trace
//! ring, and the counts of this one: a change that brings those allocations
//! back fails here.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mathcloud_core::{Parameter, ServiceDescription};
use mathcloud_everest::adapter::NativeAdapter;
use mathcloud_everest::{rest, Everest};
use mathcloud_http::{wire, Method, Request, Response, Router};
use mathcloud_json::{json, Schema, Value};
use mathcloud_telemetry::REQUEST_ID_HEADER;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count_one(size: usize) {
    // `try_with`: the allocator also runs while a thread's locals are torn
    // down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + size as u64));
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counters are `const`-initialised thread-locals that never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `op` makes on this thread, least of five rounds after two
/// warm-up rounds. `setup` builds each round's input outside the count.
fn allocations<T>(setup: impl FnMut() -> T, op: impl FnMut(T)) -> u64 {
    allocations_and_bytes(setup, op).0
}

/// [`allocations`], and the bytes they ask for, each the least of its five
/// rounds.
fn allocations_and_bytes<T>(mut setup: impl FnMut() -> T, mut op: impl FnMut(T)) -> (u64, u64) {
    let mut least = (u64::MAX, u64::MAX);
    for round in 0..7 {
        let input = setup();
        let before = (ALLOCATIONS.with(Cell::get), BYTES.with(Cell::get));
        op(input);
        let made = (
            ALLOCATIONS.with(Cell::get) - before.0,
            BYTES.with(Cell::get) - before.1,
        );
        if round >= 2 {
            least = (least.0.min(made.0), least.1.min(made.1));
        }
    }
    least
}

const SERVICE: &str = "double";
/// `{data}` → `{bytes}`: a payload service whose answer is small, so what
/// a 64 KiB `POST` costs is the request's own.
const PAYLOAD_SERVICE: &str = "length";

fn container() -> Everest {
    let e = Everest::with_handlers("alloc-budget", 1);
    e.deploy(
        ServiceDescription::new(SERVICE, "doubles an integer")
            .input(Parameter::new("n", Schema::integer()))
            .output(Parameter::new("d", Schema::integer())),
        NativeAdapter::from_fn(|inputs, _| {
            let n = inputs.get("n").and_then(Value::as_i64).unwrap_or(0);
            Ok([("d".to_string(), json!(n * 2))].into_iter().collect())
        }),
    );
    e.deploy(
        ServiceDescription::new(PAYLOAD_SERVICE, "counts the bytes of a string")
            .input(Parameter::new("data", Schema::string()))
            .output(Parameter::new("bytes", Schema::integer())),
        NativeAdapter::from_fn(|inputs, _| {
            let data = inputs.get("data").and_then(Value::as_str).unwrap_or("");
            Ok([("bytes".to_string(), json!(data.len()))]
                .into_iter()
                .collect())
        }),
    );
    e.set_result_memoization(true);
    e
}

/// A request as the edge hands it to the router: a `Host` and a request id.
fn request(method: Method, target: &str) -> Request {
    Request::new(method, target)
        .with_header("Host", "127.0.0.1:8080")
        .with_header(REQUEST_ID_HEADER, "alloc-budget-0001")
}

fn submit() -> Request {
    request(Method::Post, &format!("/services/{SERVICE}")).with_json(&json!({"n": 21}))
}

/// A DONE job's document as `GET` answers it, with its router.
fn done_job() -> (Router, Response, String) {
    let router = rest::router(container(), None);
    let (resp, _) = router.dispatch_labeled(&mut submit());
    assert_eq!(resp.status.as_u16(), 201, "{}", resp.body_string());
    let doc = resp.body_json().unwrap();
    assert_eq!(doc["state"].as_str(), Some("DONE"), "{doc}");
    let uri = doc["uri"].as_str().unwrap().to_string();
    let (resp, _) = router.dispatch_labeled(&mut request(Method::Get, &uri));
    assert_eq!(resp.status.as_u16(), 200, "{}", resp.body_string());
    (router, resp, uri)
}

fn assert_within(what: &str, made: u64, ceiling: u64) {
    eprintln!("alloc_budget: {what}: {made} allocations (ceiling {ceiling})");
    assert!(
        made <= ceiling,
        "{what}: {made} allocations, ceiling {ceiling}"
    );
}

#[test]
fn get_of_a_done_job() {
    let (router, _, uri) = done_job();
    let made = allocations(
        || request(Method::Get, &uri),
        |mut req| {
            let (resp, _) = router.dispatch_labeled(&mut req);
            assert_eq!(resp.status.as_u16(), 200);
        },
    );
    assert_within("GET dispatch", made, GET_CEILING);
}

#[test]
fn memo_hit_post() {
    let router = rest::router(container(), None);
    let made = allocations(submit, |mut req| {
        let (resp, _) = router.dispatch_labeled(&mut req);
        assert!(resp.status.is_success(), "{}", resp.body_string());
    });
    assert_within("memo-hit POST dispatch", made, MEMO_POST_CEILING);
}

/// 64 KiB of letters as a payload service's input, the shape of the
/// `payload_64k` benchmark's.
fn payload_submit() -> Request {
    payload_request(|_| false)
}

/// The same 64 KiB with a `"` every 64 characters, which the body carries
/// as `\"`: the string parser meets an escape in every run.
fn escaped_payload_submit() -> Request {
    payload_request(|i| i % 64 == 63)
}

fn payload_request(quote: impl Fn(u32) -> bool) -> Request {
    payload_request_from(0, quote)
}

/// [`payload_request`] with its letters shifted by `shift`: a distinct
/// 64 KiB input per `shift` below 26.
fn payload_request_from(shift: u32, quote: impl Fn(u32) -> bool) -> Request {
    let data: String = (0..64 * 1024u32)
        .map(|i| {
            if quote(i) {
                '"'
            } else {
                char::from(b'a' + ((i * 7 + shift) % 26) as u8)
            }
        })
        .collect();
    request(Method::Post, &format!("/services/{PAYLOAD_SERVICE}"))
        .with_json(&json!({ "data": data }))
}

/// Primes the memo with `submit`'s input, then holds its memo-hit dispatch
/// to the 64 KiB POST's allocation and byte ceilings.
fn assert_payload_post_within(what: &str, submit: fn() -> Request) {
    let router = rest::router(container(), None);
    let (resp, _) = router.dispatch_labeled(&mut submit());
    assert_eq!(resp.status.as_u16(), 201, "{}", resp.body_string());
    let body_len = submit().body.len() as u64;
    let (made, bytes) = allocations_and_bytes(submit, |mut req| {
        let (resp, _) = router.dispatch_labeled(&mut req);
        assert!(resp.status.is_success(), "{}", resp.body_string());
        assert_eq!(
            resp.headers.get(mathcloud_http::MEMO_HIT_HEADER),
            Some("true")
        );
    });
    assert_within(what, made, PAYLOAD_POST_CEILING);
    eprintln!(
        "alloc_budget: {what}: {bytes} bytes for a {body_len}-byte body \
         (ceiling {PAYLOAD_POST_BYTES_CEILING})"
    );
    assert!(
        bytes <= PAYLOAD_POST_BYTES_CEILING,
        "{what}: {bytes} bytes, ceiling {PAYLOAD_POST_BYTES_CEILING}"
    );
}

#[test]
fn memo_hit_payload_post() {
    assert_payload_post_within("64 KiB memo-hit POST dispatch", payload_submit);
}

#[test]
fn memo_hit_escaped_payload_post() {
    assert_payload_post_within(
        "escaped 64 KiB memo-hit POST dispatch",
        escaped_payload_submit,
    );
}

/// A distinct 64 KiB `POST` per round, so each is a memo miss: validated,
/// keyed, recorded, queued and answered with its result. The handler thread
/// runs the job, so what is counted is the edge's work.
#[test]
fn memo_miss_payload_post() {
    let router = rest::router(container(), None);
    let mut shift = 0;
    let next = || {
        shift += 1;
        payload_request_from(shift, |_| false)
    };
    let body_len = payload_submit().body.len() as u64;
    let (made, bytes) = allocations_and_bytes(next, |mut req| {
        let (resp, _) = router.dispatch_labeled(&mut req);
        assert_eq!(resp.status.as_u16(), 201, "{}", resp.body_string());
        assert_eq!(resp.headers.get(mathcloud_http::MEMO_HIT_HEADER), None);
    });
    assert_within(
        "64 KiB memo-miss POST dispatch",
        made,
        PAYLOAD_MISS_POST_CEILING,
    );
    eprintln!(
        "alloc_budget: 64 KiB memo-miss POST dispatch: {bytes} bytes for a \
         {body_len}-byte body (ceiling {PAYLOAD_MISS_POST_BYTES_CEILING})"
    );
    assert!(
        bytes <= PAYLOAD_MISS_POST_BYTES_CEILING,
        "64 KiB memo-miss POST dispatch: {bytes} bytes, ceiling \
         {PAYLOAD_MISS_POST_BYTES_CEILING}"
    );
}

#[test]
fn request_parse() {
    let mut bytes = Vec::new();
    wire::write_request(&mut bytes, &submit(), "127.0.0.1:8080").unwrap();
    let made = allocations(
        || &bytes[..],
        |mut reader| {
            let req = wire::read_request_limited(&mut reader, &wire::Limits::default());
            assert_eq!(req.unwrap().unwrap().method, Method::Post);
        },
    );
    assert_within("read_request_limited", made, REQUEST_PARSE_CEILING);
}

#[test]
fn response_parse() {
    let (_, resp, _) = done_job();
    let mut bytes = Vec::new();
    wire::write_response(&mut bytes, &resp).unwrap();
    let made = allocations(
        || &bytes[..],
        |mut reader| {
            let resp = wire::read_response(&mut reader).unwrap();
            assert_eq!(resp.status.as_u16(), 200);
        },
    );
    assert_within("read_response", made, RESPONSE_PARSE_CEILING);
}

// Counts on x86-64 Linux, debug and release alike. The edge that parsed
// each header into `String`s, matched routes on a copied path and cloned
// job documents made: GET 54, memo-hit POST 69, request parse 17, response
// parse 10. The one after it made 24, 41, 4 and 3, and 43 allocations and
// 199 165 bytes for the 64 KiB memo-hit POST, whose body it decoded into a
// `String` before parsing. The next made 24, 40, 4, 3, and 42 allocations
// and 133 618 bytes for the 64 KiB POST (65 547 bytes of body): the parsed
// 64 KiB string and the copy input validation made of it. With a `\"`
// every 64 bytes of that string (66 571 bytes of body) the parser that grew
// its `String` by doubling made 53 allocations and 326 067 bytes; sized
// once from the encoded span, it made 42 and 134 642. Validation that moves
// each accepted input out of the body instead makes 41 allocations and
// 67 914 bytes for the plain 64 KiB memo hit, 41 and 68 938 for the escaped
// one, and 69 and 68 615 for a 64 KiB memo miss (the copying validation
// made 70 and 134 319 there). A process-wide trace ring that copied each
// memo hit's name, request id and four key/value pairs into owned strings
// (11 allocations), and each new job's `job.submitted` and `job.run`, made
// 40 allocations for the memo-hit POST, 41 for the 64 KiB one (67 914
// bytes), 41 for the escaped one (68 938) and 69 for the memo miss
// (68 615); without it they make 29, 30 (67 593), 30 (68 617) and 61
// (68 453). Each ceiling leaves a little room above the new count; the
// bytes ceilings stay under the new count plus one copy of the body.
const GET_CEILING: u64 = 30;
const MEMO_POST_CEILING: u64 = 32;
const PAYLOAD_POST_CEILING: u64 = 33;
const PAYLOAD_POST_BYTES_CEILING: u64 = 75_000;
const PAYLOAD_MISS_POST_CEILING: u64 = 64;
const PAYLOAD_MISS_POST_BYTES_CEILING: u64 = 75_000;
const REQUEST_PARSE_CEILING: u64 = 8;
const RESPONSE_PARSE_CEILING: u64 = 6;
