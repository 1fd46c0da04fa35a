//! The REST resource layer: Table 1 of the paper over HTTP.

use std::time::Duration;

use mathcloud_core::{uri, FileRef, JobRepresentation};
use mathcloud_http::{PathParams, Request, Response, Router, Server};
use mathcloud_json::{json, Value};
use mathcloud_security::AuthConfig;
use mathcloud_telemetry::{metrics, trace};

use crate::container::{Caller, Everest};
use crate::webui;

/// How long `POST` waits for synchronous completion before returning an
/// in-progress job representation (§2's dual sync/async behaviour).
const SYNC_WAIT: Duration = Duration::from_millis(100);

/// Builds the container's HTTP router.
///
/// When `auth` is provided every request passes the security middleware
/// first; per-service policies are enforced on job submission either way.
pub fn router(everest: Everest, auth: Option<AuthConfig>) -> Router {
    let mut r = Router::new();

    if let Some(auth) = auth {
        r.middleware(move |req: &mut Request| auth.authenticate(req));
    }

    // Container root: introspection entry point.
    let e = everest.clone();
    r.get("/", move |_req, _p| {
        let services: Vec<Value> = e
            .list_services()
            .iter()
            .map(|d| Value::from(uri::service(d.name())))
            .collect();
        Response::json(
            200,
            &json!({
                "container": (e.name()),
                "protocol": (mathcloud_core::PROTOCOL_VERSION),
                "services": services,
            }),
        )
    });

    // Service list.
    let e = everest.clone();
    r.get(uri::SERVICES_ROOT, move |_req, _p| {
        let list: Vec<Value> = e
            .list_services()
            .iter()
            .map(|d| {
                let mut v = d.to_value();
                if let Some(o) = v.as_object_mut() {
                    o.insert("uri".into(), Value::from(uri::service(d.name())));
                }
                v
            })
            .collect();
        Response::json(200, &Value::Array(list))
    });

    // Service resource: GET description.
    let e = everest.clone();
    r.get("/services/{name}", move |_req, p: &PathParams| {
        let name = p.get("name").expect("route has {name}");
        match e.description(name) {
            Some(d) => {
                let mut v = d.to_value();
                if let Some(o) = v.as_object_mut() {
                    o.insert("uri".into(), Value::from(uri::service(name)));
                }
                Response::json(200, &v)
            }
            None => Response::error(404, &format!("no such service: {name}")),
        }
    });

    // Service resource: POST submit.
    let e = everest.clone();
    r.post("/services/{name}", move |req: &Request, p: &PathParams| {
        let name = p.get("name").expect("route has {name}");
        let body = match req.body_json() {
            Ok(v) => v,
            Err(err) => {
                let message = format!(
                    "request body is not json: {err} (byte offset {})",
                    err.offset
                );
                return Response::error(400, &message);
            }
        };
        let caller = caller_from(req);
        // The server edge stamped X-MC-Request-Id on the request; carry it
        // into the job record, so `/trace` and the adapter see this call's id.
        let request_id = req.headers.get(trace::REQUEST_ID_HEADER);
        let idem_key = req.headers.get(mathcloud_http::IDEMPOTENCY_KEY_HEADER);
        let wait = Some(SYNC_WAIT);
        match e.submit_and_wait(name, body, Some(&caller), request_id, idem_key, wait) {
            Ok(outcome) => {
                let rep = outcome.rep;
                let location = rep.uri.clone();
                // Neither a deduplicated retry nor a memo hit created a
                // resource: 200 with the existing job, marked so clients
                // can tell which path answered them.
                let status = if outcome.deduplicated || outcome.memo_hit {
                    200
                } else {
                    201
                };
                let mut resp = Response::json(status, &rep_to_wire(&e, req, name, rep))
                    .with_header("Location", &location);
                if outcome.deduplicated {
                    resp = resp.with_header("X-MC-Deduplicated", "true");
                }
                if outcome.memo_hit {
                    resp = resp.with_header(mathcloud_http::MEMO_HIT_HEADER, "true");
                }
                resp
            }
            Err(rej) => Response::error(rej.status(), &rej.to_string()),
        }
    });

    // Job resource: GET status/results.
    let e = everest.clone();
    r.get(
        "/services/{name}/jobs/{id}",
        move |req: &Request, p: &PathParams| {
            let name = p.get("name").expect("route has {name}");
            let id = p.get("id").expect("route has {id}");
            match e.representation(name, id) {
                Some(rep) => Response::json(200, &rep_to_wire(&e, req, name, rep)),
                None => Response::error(404, "no such job"),
            }
        },
    );

    // Job resource: DELETE cancel / delete data.
    let e = everest.clone();
    r.delete("/services/{name}/jobs/{id}", move |_req, p: &PathParams| {
        let name = p.get("name").expect("route has {name}");
        let id = p.get("id").expect("route has {id}");
        if e.delete_job(name, id) {
            Response::empty(204)
        } else {
            Response::error(404, "no such job")
        }
    });

    // File resource: GET data.
    let e = everest.clone();
    r.get(
        "/services/{name}/jobs/{id}/files/{file}",
        move |_req, p: &PathParams| {
            let name = p.get("name").expect("route has {name}");
            let id = p.get("id").expect("route has {id}");
            let file = p.get("file").expect("route has {file}");
            match e.file(name, id, file) {
                Some(data) => Response::bytes(200, "application/octet-stream", data),
                None => Response::error(404, "no such file"),
            }
        },
    );

    // Observability resources, mounted on every container.
    //
    // GET /metrics: the process-wide registry in Prometheus text format —
    // per-route HTTP counts and latency histograms, job lifecycle counters
    // and durations, handler-pool gauges, catalogue availability.
    r.get("/metrics", move |_req, _p| {
        Response::bytes(
            200,
            "text/plain; version=0.0.4",
            metrics::global().render_prometheus().into_bytes(),
        )
    });

    // GET /health: this container's liveness summary as JSON.
    let e = everest.clone();
    r.get("/health", move |_req, _p| {
        let h = e.health();
        Response::json(
            200,
            &json!({
                "status": "ok",
                "container": (e.name()),
                "uptime_seconds": (h.uptime_seconds),
                "jobs": {
                    "waiting": (h.waiting as i64),
                    "running": (h.running as i64),
                    "done": (h.done as i64),
                    "failed": (h.failed as i64),
                    "cancelled": (h.cancelled as i64),
                },
                "totals": {
                    "submitted": (h.stats.submitted as i64),
                    "completed": (h.stats.completed as i64),
                    "failed": (h.stats.failed as i64),
                    "cancelled": (h.stats.cancelled as i64),
                },
                "pool": {
                    "workers": (h.pool_workers as i64),
                    "busy": (h.busy_workers as i64),
                    "queue_depth": (h.queue_depth as i64),
                    "saturation": (h.saturation()),
                },
            }),
        )
    });

    // GET /events: the container's lifecycle event stream as Server-Sent
    // Events — `?kinds=job.,pool.` prefix filtering, `Last-Event-ID` resume
    // served from the bus's replay ring (and journal, when one is attached).
    // This is what push-mode clients use instead of polling job status.
    mathcloud_http::sse::mount_events(&mut r, mathcloud_events::global());

    // GET /trace?request_id=…: what became of one request, read off the
    // job table: each retained job it created, in submission order, as
    // `job.submitted`, `job.run` (with its duration) once it has run, and
    // its current state's event. A trace lasts as long as its job record.
    let e = everest.clone();
    r.get("/trace", move |req: &Request, _p| {
        let Some(rid) = req.query("request_id") else {
            return Response::error(400, "missing request_id query parameter");
        };
        if !trace::is_valid_request_id(&rid) {
            return Response::error(400, "invalid request_id");
        }
        let events = e.shared.jobs.trace(&rid).into_iter().map(Value::Object);
        Response::json(
            200,
            &json!({
                "request_id": (rid.as_str()),
                "events": (Value::Array(events.collect())),
            }),
        )
    });

    webui::mount(&mut r, everest);
    r
}

/// Binds the container's REST interface on `addr`.
///
/// # Errors
///
/// Propagates socket errors from the HTTP server.
pub fn serve(everest: Everest, addr: &str, auth: Option<AuthConfig>) -> std::io::Result<Server> {
    Server::bind(addr, router(everest, auth))
}

/// [`serve`] under an explicit server-edge configuration (worker count,
/// idle/read timeouts, connection cap, header/body limits). This is the
/// only way to size the edge: a configuration document holds services only
/// ([`crate::config::load_config`]).
///
/// # Errors
///
/// Propagates socket errors from the HTTP server.
pub fn serve_with_config(
    everest: Everest,
    addr: &str,
    auth: Option<AuthConfig>,
    config: mathcloud_http::ServerConfig,
) -> std::io::Result<Server> {
    Server::bind_with_config(addr, router(everest, auth), config)
}

fn caller_from(req: &Request) -> Caller {
    let identity = AuthConfig::identity_of(req);
    match AuthConfig::proxy_of(req) {
        Some(proxy) => Caller::proxied(identity, &proxy),
        None => Caller::direct(identity),
    }
}

/// Converts a job representation to its wire form, rewriting local
/// `mc-file:` output references into absolute URLs on this container so
/// remote clients (and other services) can fetch them.
fn rep_to_wire(_e: &Everest, req: &Request, service: &str, mut rep: JobRepresentation) -> Value {
    if let Some(outputs) = &mut rep.outputs {
        let host = req.headers.get("host").unwrap_or("localhost");
        for (_, v) in outputs.iter_mut() {
            if let Some(FileRef::Local(fid)) = FileRef::detect(v) {
                *v = Value::from(format!(
                    "http://{host}{}",
                    uri::file(service, rep.id.as_str(), &fid)
                ));
            }
        }
    }
    rep.into_value()
}

/// Re-export used by tests and the workflow system.
pub use mathcloud_security::IDENTITY_HEADER;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::NativeAdapter;
    use mathcloud_core::{Parameter, ServiceDescription};
    use mathcloud_http::Client;
    use mathcloud_json::value::Object;
    use mathcloud_json::Schema;
    use mathcloud_security::{AccessPolicy, CertificateAuthority, Identity};

    fn demo() -> Everest {
        let e = Everest::new("demo");
        e.deploy(
            ServiceDescription::new("sum", "adds two integers")
                .input(Parameter::new("a", Schema::integer()))
                .input(Parameter::new("b", Schema::integer()))
                .output(Parameter::new("total", Schema::integer())),
            NativeAdapter::from_fn(|inputs, _| {
                let a = inputs.get("a").and_then(Value::as_i64).unwrap_or(0);
                let b = inputs.get("b").and_then(Value::as_i64).unwrap_or(0);
                Ok([("total".to_string(), json!(a + b))].into_iter().collect())
            }),
        );
        e.deploy(
            ServiceDescription::new("store", "stores a payload as a file")
                .input(Parameter::new("payload", Schema::string()))
                .output(Parameter::new("file", Schema::string().format("mc-file"))),
            NativeAdapter::from_fn(|inputs, ctx| {
                let payload = inputs.get("payload").and_then(Value::as_str).unwrap_or("");
                let reference = ctx.store_file(payload.as_bytes().to_vec());
                Ok([("file".to_string(), reference)].into_iter().collect())
            }),
        );
        e
    }

    #[test]
    fn full_rest_lifecycle_over_http() {
        let server = serve(demo(), "127.0.0.1:0", None).unwrap();
        let base = server.base_url();
        let client = Client::new();

        // Introspection.
        let root = client.get(&base).unwrap().body_json().unwrap();
        assert_eq!(root["container"].as_str(), Some("demo"));
        let desc = client
            .get(&format!("{base}/services/sum"))
            .unwrap()
            .body_json()
            .unwrap();
        assert_eq!(desc["name"].as_str(), Some("sum"));

        // Submit; fast job completes synchronously.
        let resp = client
            .post_json(&format!("{base}/services/sum"), &json!({"a": 2, "b": 40}))
            .unwrap();
        assert_eq!(resp.status.as_u16(), 201);
        let rep = resp.body_json().unwrap();
        assert_eq!(rep["state"].as_str(), Some("DONE"));
        assert_eq!(rep["outputs"]["total"].as_i64(), Some(42));

        // Poll the job resource.
        let job_uri = rep["uri"].as_str().unwrap();
        let polled = client
            .get(&format!("{base}{job_uri}"))
            .unwrap()
            .body_json()
            .unwrap();
        assert_eq!(polled["state"].as_str(), Some("DONE"));

        // Delete the job, then it is gone.
        assert_eq!(
            client
                .delete(&format!("{base}{job_uri}"))
                .unwrap()
                .status
                .as_u16(),
            204
        );
        assert_eq!(
            client
                .get(&format!("{base}{job_uri}"))
                .unwrap()
                .status
                .as_u16(),
            404
        );
    }

    #[test]
    fn output_file_refs_become_absolute_urls() {
        let server = serve(demo(), "127.0.0.1:0", None).unwrap();
        let base = server.base_url();
        let client = Client::new();
        let rep = client
            .post_json(
                &format!("{base}/services/store"),
                &json!({"payload": "big data"}),
            )
            .unwrap()
            .body_json()
            .unwrap();
        let file_url = rep["outputs"]["file"].as_str().unwrap().to_string();
        assert!(file_url.starts_with("http://"), "{file_url}");
        let data = client.get(&file_url).unwrap();
        assert_eq!(data.body, b"big data");
        assert_eq!(
            data.headers.get("content-type"),
            Some("application/octet-stream")
        );
    }

    #[test]
    fn validation_and_missing_resources_map_to_http_statuses() {
        let server = serve(demo(), "127.0.0.1:0", None).unwrap();
        let base = server.base_url();
        let client = Client::new();
        assert_eq!(
            client
                .post_json(&format!("{base}/services/sum"), &json!({"a": "x"}))
                .unwrap()
                .status
                .as_u16(),
            400
        );
        assert_eq!(
            client
                .post_bytes(
                    &format!("{base}/services/sum"),
                    "application/json",
                    b"{bad".to_vec()
                )
                .unwrap()
                .status
                .as_u16(),
            400
        );
        assert_eq!(
            client
                .get(&format!("{base}/services/none"))
                .unwrap()
                .status
                .as_u16(),
            404
        );
        assert_eq!(
            client
                .get(&format!("{base}/services/sum/jobs/j-999"))
                .unwrap()
                .status
                .as_u16(),
            404
        );
        assert_eq!(
            client
                .delete(&format!("{base}/services/sum/jobs/j-999"))
                .unwrap()
                .status
                .as_u16(),
            404
        );
    }

    #[test]
    fn auth_and_policy_are_enforced_end_to_end() {
        let ca = CertificateAuthority::new("test-ca");
        let e = Everest::new("secure");
        let mut policy = AccessPolicy::new();
        policy.allow(Identity::certificate("CN=alice"));
        e.deploy_with_policy(
            ServiceDescription::new("private", "restricted"),
            NativeAdapter::from_fn(|_, _| Ok(Object::new())),
            policy,
        );
        let server = serve(e, "127.0.0.1:0", Some(AuthConfig::new(ca.clone()))).unwrap();
        let base = server.base_url();

        // Anonymous: policy rejects with 403.
        let anon = Client::new();
        assert_eq!(
            anon.post_json(&format!("{base}/services/private"), &json!({}))
                .unwrap()
                .status
                .as_u16(),
            403
        );
        // Alice with a valid certificate: accepted.
        let cert = ca.issue("CN=alice", 600);
        let alice = Client::new().with_default_header(
            mathcloud_security::middleware::CLIENT_CERT_HEADER,
            &cert.encode(),
        );
        let resp = alice
            .post_json(&format!("{base}/services/private"), &json!({}))
            .unwrap();
        assert_eq!(resp.status.as_u16(), 201, "{}", resp.body_string());
        // Mallory with a forged certificate: 401 from the middleware.
        let mut forged = ca.issue("CN=alice", 600);
        forged.subject = "CN=mallory".into();
        let mallory = Client::new().with_default_header(
            mathcloud_security::middleware::CLIENT_CERT_HEADER,
            &forged.encode(),
        );
        assert_eq!(
            mallory
                .post_json(&format!("{base}/services/private"), &json!({}))
                .unwrap()
                .status
                .as_u16(),
            401
        );
    }
}
