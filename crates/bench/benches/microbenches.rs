//! Microbenchmarks of the substrates: exact arithmetic, JSON, routing,
//! mcscript, SHA-256 and the memo key. These track the constant factors
//! everything else is built on.

use mathcloud_bench::harness::Harness;
use mathcloud_everest::memo;
use mathcloud_exact::{hilbert, BigInt, Rational};
use mathcloud_http::{Method, Request, Response, Router};
use mathcloud_json::parse;
use mathcloud_security::sha256;
use mathcloud_workflow::run_script;

fn main() {
    let mut h = Harness::from_args();
    let mut group = h.group("micro");

    let a = BigInt::from(7).pow(400);
    let b = BigInt::from(11).pow(350);
    group.bench_function("bigint_mul_400x350_digits", |bch| {
        bch.iter(|| &a * &b);
    });
    group.bench_function("bigint_divrem", |bch| {
        bch.iter(|| &a / &b);
    });

    let r1 = Rational::new(BigInt::from(3).pow(50), BigInt::from(7).pow(40));
    let r2 = Rational::new(BigInt::from(5).pow(45), BigInt::from(11).pow(35));
    group.bench_function("rational_add_normalized", |bch| {
        bch.iter(|| &r1 + &r2);
    });

    let hm = hilbert(12);
    group.bench_function("hilbert12_inverse", |bch| {
        bch.iter(|| hm.inverse().expect("invertible"));
    });

    let json_text = {
        let mut s = String::from("{\"jobs\":[");
        for i in 0..200 {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"id\":\"j-{i}\",\"state\":\"DONE\",\"outputs\":{{\"v\":{i}}}}}"
            ));
        }
        s.push_str("]}");
        s
    };
    group.bench_function("json_parse_200_jobs", |bch| {
        bch.iter(|| parse(&json_text).expect("valid"));
    });

    let mut router = Router::new();
    router.get("/services/{name}/jobs/{id}/files/{file}", |_r, _p| {
        Response::empty(200)
    });
    router.get("/services/{name}/jobs/{id}", |_r, _p| Response::empty(200));
    router.get("/services/{name}", |_r, _p| Response::empty(200));
    let req = Request::new(Method::Get, "/services/inverse/jobs/j-42");
    group.bench_function("router_dispatch", |bch| {
        bch.iter(|| router.dispatch(&req));
    });

    let inputs: mathcloud_json::value::Object = [(
        "rows".to_string(),
        mathcloud_json::json!(["1 2", "3 4", "5 6"]),
    )]
    .into_iter()
    .collect();
    group.bench_function("mcscript_join_program", |bch| {
        bch.iter(|| {
            run_script(
                "let s = join(rows, \"; \"); out = s + \"!\"; n = len(rows);",
                inputs.clone(),
            )
            .expect("script runs")
        });
    });

    let block = vec![0xabu8; 64 * 1024];
    group.bench_function("sha256_64kb", |bch| {
        bch.iter(|| sha256::digest(&block));
    });
    // The same block on the portable rounds: on a CPU with SHA extensions
    // the ratio of the two is the kernel's gain, elsewhere they are equal.
    group.bench_function("sha256_64kb_portable", |bch| {
        bch.iter(|| sha256::digest_portable(&block));
    });

    // One 64 KiB string input, the shape of jobpath's `payload_64k`: the
    // memo key hashes it while canonicalizing, the journal serializes it.
    let payload: String = (0..64 * 1024u32)
        .map(|i| char::from(b'a' + (i * 7 % 26) as u8))
        .collect();
    let payload_inputs = mathcloud_json::json!({"data": payload, "n": 3});
    let payload_object = payload_inputs.as_object().expect("an object");
    group.bench_function("memo_key_64kb", |bch| {
        bch.iter(|| memo::memo_key("reverse", payload_object, &|_| None));
    });
    group.bench_function("to_string_64kb_string", |bch| {
        bch.iter(|| payload_inputs.to_string());
    });
    // Parsed as a request body is: from bytes, UTF-8 checked in the runs.
    let payload_text = payload_inputs.to_string();
    group.bench_function("parse_64kb_string", |bch| {
        bch.iter(|| {
            mathcloud_json::parse_bytes(payload_text.as_bytes()).expect("serializer output parses")
        });
    });

    group.finish();
}
