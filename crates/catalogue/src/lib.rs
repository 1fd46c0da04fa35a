//! The MathCloud service catalogue (§3.2 of the paper).
//!
//! "The main purpose of service catalogue is to support discovery, monitoring
//! and annotation of computational web services. It is implemented as a web
//! application with interface and functionality similar to modern search
//! engines."
//!
//! * publication by URI: the catalogue fetches the service description via
//!   the unified REST API and indexes it,
//! * full-text search over descriptions and tags, with highlighted snippets,
//! * collaborative (Web 2.0-style) user tagging,
//! * periodic availability pings, surfaced in search results,
//! * federation of container observability ([`federate`]): the catalogue
//!   scrapes every registered container's `/metrics` and `/health`
//!   concurrently under per-target deadlines and serves the merged view on
//!   `GET /metrics/federated` and `GET /health/all`,
//! * its own REST interface ([`router`]) so the catalogue is itself a web
//!   service.

pub mod federate;
pub mod index;

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mathcloud_core::ServiceDescription;
use mathcloud_http::{Client, PathParams, Request, Response, Router, Url};
use mathcloud_json::value::Object;
use mathcloud_json::{json, Value};
use mathcloud_telemetry::metrics;
use mathcloud_telemetry::sync::{Condvar, Mutex, RwLock};

pub use federate::{ScrapeConfig, ScrapeTarget, TargetScrape};

use index::InvertedIndex;

/// A published catalogue entry.
#[derive(Debug, Clone)]
pub struct Entry {
    /// The catalogue-assigned id.
    pub id: u64,
    /// The service URL as published.
    pub url: String,
    /// The fetched service description.
    pub description: ServiceDescription,
    /// Tags from the publisher and later annotators.
    pub tags: Vec<String>,
    /// Result of the most recent availability ping (`true` until a ping
    /// fails).
    pub available: bool,
}

/// One search result.
#[derive(Debug, Clone)]
pub struct SearchResult {
    /// The matching entry (cloned snapshot).
    pub entry: Entry,
    /// Relevance score.
    pub score: f64,
    /// Snippet with `<b>`-highlighted query terms.
    pub snippet: String,
}

/// Errors from catalogue operations.
#[derive(Debug)]
pub enum CatalogueError {
    /// The service URL could not be fetched.
    Unreachable(String),
    /// The fetched document is not a valid service description.
    BadDescription(String),
}

impl fmt::Display for CatalogueError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CatalogueError::Unreachable(m) => write!(f, "service unreachable: {m}"),
            CatalogueError::BadDescription(m) => write!(f, "bad service description: {m}"),
        }
    }
}

impl std::error::Error for CatalogueError {}

struct State {
    entries: Vec<Entry>,
    index: InvertedIndex,
}

/// The service catalogue. Cheap to clone (shared state).
#[derive(Clone)]
pub struct Catalogue {
    state: Arc<RwLock<State>>,
    next_id: Arc<AtomicU64>,
    /// Publication-time description fetches (generous timeouts, retries on).
    client: Client,
    /// Availability probes and federation scrapes: deadline-bounded, no
    /// retries, breaker state shared across sweeps.
    probe: Client,
    probe_cfg: ScrapeConfig,
}

impl Default for Catalogue {
    fn default() -> Self {
        Catalogue::new()
    }
}

impl fmt::Debug for Catalogue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Catalogue")
            .field("entries", &self.state.read().entries.len())
            .finish()
    }
}

impl Catalogue {
    /// Creates an empty catalogue.
    pub fn new() -> Self {
        Catalogue::with_scrape_config(ScrapeConfig::default())
    }

    /// Creates an empty catalogue whose availability probes and federation
    /// sweeps are bounded by `cfg`.
    pub fn with_scrape_config(cfg: ScrapeConfig) -> Self {
        Catalogue {
            state: Arc::new(RwLock::new(State {
                entries: Vec::new(),
                index: InvertedIndex::new(),
            })),
            next_id: Arc::new(AtomicU64::new(1)),
            client: Client::new(),
            probe: cfg.scrape_client(),
            probe_cfg: cfg,
        }
    }

    /// The scrape/probe bounds this catalogue was configured with.
    pub fn scrape_config(&self) -> &ScrapeConfig {
        &self.probe_cfg
    }

    /// Publishes a service: fetches its description over the unified REST
    /// API, indexes it and stores the given tags.
    ///
    /// # Errors
    ///
    /// [`CatalogueError`] when the URL cannot be fetched or does not serve a
    /// valid description document.
    pub fn publish(&self, url: &str, tags: &[&str]) -> Result<u64, CatalogueError> {
        let resp = self
            .client
            .get(url)
            .map_err(|e| CatalogueError::Unreachable(e.to_string()))?;
        if !resp.status.is_success() {
            return Err(CatalogueError::Unreachable(format!(
                "{} from {url}",
                resp.status
            )));
        }
        let doc = resp
            .body_json()
            .map_err(|e| CatalogueError::BadDescription(e.to_string()))?;
        let description = ServiceDescription::from_value(&doc)
            .map_err(|e| CatalogueError::BadDescription(e.to_string()))?;
        Ok(self.register(url, description, tags))
    }

    /// Registers an already-fetched description (used by tests and by
    /// containers that self-publish).
    pub fn register(&self, url: &str, description: ServiceDescription, tags: &[&str]) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let tags: Vec<String> = tags.iter().map(|t| t.to_string()).collect();
        let mut state = self.state.write();
        // Republishing the same URL replaces the entry.
        if let Some(old) = state.entries.iter().position(|e| e.url == url) {
            let old_id = state.entries[old].id;
            state.index.remove(old_id);
            state.entries.remove(old);
        }
        state.index.insert(id, &index_text(&description, &tags));
        state.entries.push(Entry {
            id,
            url: url.to_string(),
            description,
            tags,
            available: true,
        });
        id
    }

    /// Removes an entry.
    pub fn unpublish(&self, id: u64) -> bool {
        let mut state = self.state.write();
        let before = state.entries.len();
        state.entries.retain(|e| e.id != id);
        state.index.remove(id);
        state.entries.len() != before
    }

    /// All entries, in publication order.
    pub fn entries(&self) -> Vec<Entry> {
        self.state.read().entries.clone()
    }

    /// Adds user tags to an entry (the paper's "experimental features
    /// similar to collaborative Web 2.0 sites").
    pub fn add_tags(&self, id: u64, tags: &[&str]) -> bool {
        let mut state = self.state.write();
        let Some(pos) = state.entries.iter().position(|e| e.id == id) else {
            return false;
        };
        for t in tags {
            if !state.entries[pos].tags.iter().any(|x| x == t) {
                state.entries[pos].tags.push(t.to_string());
            }
        }
        let text = index_text(&state.entries[pos].description, &state.entries[pos].tags);
        state.index.insert(id, &text);
        true
    }

    /// Full-text search with an optional tag filter.
    pub fn search(&self, query: &str, tag_filter: Option<&str>) -> Vec<SearchResult> {
        let state = self.state.read();
        let hits = if query.trim().is_empty() {
            // Empty query lists everything (the catalogue's browse mode).
            state
                .entries
                .iter()
                .map(|e| index::Hit {
                    doc: e.id,
                    score: 0.0,
                })
                .collect()
        } else {
            state.index.search(query)
        };
        hits.into_iter()
            .filter_map(|hit| {
                let entry = state.entries.iter().find(|e| e.id == hit.doc)?;
                if let Some(tag) = tag_filter {
                    if !entry.tags.iter().any(|t| t == tag) {
                        return None;
                    }
                }
                let snippet = state
                    .index
                    .snippet(hit.doc, query, 16)
                    .unwrap_or_else(|| entry.description.description().to_string());
                Some(SearchResult {
                    entry: entry.clone(),
                    score: hit.score,
                    snippet,
                })
            })
            .collect()
    }

    /// Pings every published service (`GET` on its URL) and records
    /// availability; returns `(available, unavailable)` counts.
    ///
    /// Probes run concurrently on a bounded worker pool (the probe client is
    /// deadline-bounded with retries disabled, so one black-holed service
    /// cannot stall the sweep), and the results are applied to the shared
    /// state in a single write pass — a long sweep never repeatedly contends
    /// with publish/search.
    ///
    /// Each probe also feeds the process-wide telemetry registry: a per-
    /// service `mc_catalogue_service_up` gauge (1 = reachable) and a
    /// `mc_catalogue_probe_seconds` latency histogram — the §3.2 availability
    /// monitor made scrapable via `GET /metrics`.
    pub fn ping_all(&self) -> (usize, usize) {
        let targets: Vec<(u64, String, String)> = self
            .state
            .read()
            .entries
            .iter()
            .map(|e| (e.id, e.url.clone(), e.description.name().to_string()))
            .collect();
        let reg = metrics::global();
        reg.describe(
            "mc_catalogue_service_up",
            "1 when the last availability probe succeeded",
        );
        reg.describe(
            "mc_catalogue_probe_seconds",
            "availability-probe round-trip time",
        );
        let results = federate::fan_out(targets, self.probe_cfg.max_workers, |(id, url, name)| {
            let started = Instant::now();
            let ok = matches!(self.probe.get(&url), Ok(resp) if resp.status.is_success());
            (id, url, name, ok, started.elapsed())
        });
        // Telemetry outside the lock…
        let mut up = 0;
        let mut down = 0;
        for (_, _, name, ok, elapsed) in &results {
            reg.gauge("mc_catalogue_service_up", &[("service", name)])
                .set(i64::from(*ok));
            reg.histogram("mc_catalogue_probe_seconds", &[("service", name)])
                .observe_duration(*elapsed);
            if *ok {
                up += 1;
            } else {
                down += 1;
            }
        }
        // …then one write pass for the whole sweep, collecting availability
        // flips for the event bus.
        let mut flips: Vec<(String, String, bool)> = Vec::new();
        {
            let mut state = self.state.write();
            for (id, url, name, ok, _) in &results {
                if let Some(e) = state.entries.iter_mut().find(|e| e.id == *id) {
                    if e.available != *ok {
                        flips.push((name.clone(), url.clone(), *ok));
                    }
                    e.available = *ok;
                }
            }
        }
        // Publish outside the lock: journal fsyncs must not serialize reads.
        for (name, url, available) in flips {
            let mut payload = Object::new();
            payload.insert("service".into(), Value::from(name.as_str()));
            payload.insert("url".into(), Value::from(url.as_str()));
            payload.insert("available".into(), Value::Bool(available));
            mathcloud_events::global().publish(
                "catalogue.availability",
                None,
                Value::Object(payload),
            );
        }
        (up, down)
    }

    /// The unique authorities behind the registered entries (first-seen
    /// order), each with the names of the services it hosts — the target set
    /// of a federation sweep.
    pub fn scrape_targets(&self) -> Vec<ScrapeTarget> {
        let state = self.state.read();
        let mut targets: Vec<ScrapeTarget> = Vec::new();
        for e in &state.entries {
            let Ok(url) = e.url.parse::<Url>() else {
                continue;
            };
            let instance = url.authority();
            let name = e.description.name().to_string();
            match targets.iter_mut().find(|t| t.instance == instance) {
                Some(t) => t.services.push(name),
                None => targets.push(ScrapeTarget {
                    instance,
                    services: vec![name],
                }),
            }
        }
        targets
    }

    /// Scrapes `/metrics` on every registered container concurrently under
    /// `cfg` and returns the merged Prometheus exposition (each sample
    /// relabelled with `mc_instance`, plus `mc_scrape_up`/`mc_scrape_seconds`
    /// per target) and the total sweep time.
    pub fn federate_metrics(&self, cfg: &ScrapeConfig) -> (String, Duration) {
        let (reports, elapsed) = federate::sweep(self.scrape_targets(), cfg, "/metrics");
        (federate::merge_prometheus(&reports), elapsed)
    }

    /// Scrapes `/health` on every registered container concurrently under
    /// `cfg`; returns the JSON summary, whether every target was up, and the
    /// total sweep time.
    pub fn health_all(&self, cfg: &ScrapeConfig) -> (Value, bool, Duration) {
        let (reports, elapsed) = federate::sweep(self.scrape_targets(), cfg, "/health");
        let (value, all_up) = federate::health_summary(&reports, elapsed);
        (value, all_up, elapsed)
    }

    /// Merged per-authority circuit-breaker states of the catalogue's two
    /// long-lived clients (description fetches and availability probes),
    /// sorted by authority. The probe client's view wins on conflict: it is
    /// the one exercised every monitor tick.
    pub fn breaker_states(&self) -> Vec<(String, mathcloud_http::BreakerState)> {
        let mut merged: Vec<(String, mathcloud_http::BreakerState)> =
            self.client.breakers().states();
        for (authority, state) in self.probe.breakers().states() {
            match merged.iter_mut().find(|(a, _)| *a == authority) {
                Some(entry) => entry.1 = state,
                None => merged.push((authority, state)),
            }
        }
        merged.sort_by(|a, b| a.0.cmp(&b.0));
        merged
    }

    /// Spawns a background thread pinging all services every `interval`.
    ///
    /// The thread holds only a [`Weak`](std::sync::Weak) reference to the
    /// catalogue state, so it exits on its own once every [`Catalogue`]
    /// handle is dropped; the returned [`MonitorHandle`] additionally offers
    /// an explicit, immediate [`MonitorHandle::stop`] (also invoked on drop).
    #[must_use = "dropping the handle stops the monitor"]
    pub fn start_monitor(&self, interval: Duration) -> MonitorHandle {
        let weak = Arc::downgrade(&self.state);
        let next_id = Arc::clone(&self.next_id);
        let client = self.client.clone();
        let probe = self.probe.clone();
        let probe_cfg = self.probe_cfg.clone();
        let shared = Arc::new(MonitorShared {
            stop: Mutex::new(false),
            wake: Condvar::new(),
            sweeps: AtomicU64::new(0),
        });
        let thread_shared = Arc::clone(&shared);
        let thread = std::thread::spawn(move || loop {
            {
                let mut stopped = thread_shared.stop.lock();
                if !*stopped {
                    let _ = thread_shared.wake.wait_for(&mut stopped, interval);
                }
                if *stopped {
                    return;
                }
            }
            // Upgrade into a temporary handle for this tick only — holding a
            // strong reference across sleeps would keep the state alive
            // forever and leak this thread.
            let Some(state) = weak.upgrade() else { return };
            let catalogue = Catalogue {
                state,
                next_id: Arc::clone(&next_id),
                client: client.clone(),
                probe: probe.clone(),
                probe_cfg: probe_cfg.clone(),
            };
            catalogue.ping_all();
            thread_shared.sweeps.fetch_add(1, Ordering::Relaxed);
        });
        MonitorHandle {
            shared,
            thread: Some(thread),
        }
    }
}

struct MonitorShared {
    stop: Mutex<bool>,
    wake: Condvar,
    sweeps: AtomicU64,
}

/// Handle to a background availability monitor started by
/// [`Catalogue::start_monitor`]. Stopping (or dropping) the handle wakes the
/// thread and joins it.
pub struct MonitorHandle {
    shared: Arc<MonitorShared>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl MonitorHandle {
    /// Stops the monitor and waits for the thread to exit.
    pub fn stop(mut self) {
        self.shutdown();
    }

    /// Completed availability sweeps so far.
    pub fn sweeps(&self) -> u64 {
        self.shared.sweeps.load(Ordering::Relaxed)
    }

    /// Whether the monitor thread has exited (e.g. after the catalogue was
    /// dropped).
    pub fn is_finished(&self) -> bool {
        self.thread.as_ref().is_none_or(|t| t.is_finished())
    }

    fn shutdown(&mut self) {
        *self.shared.stop.lock() = true;
        self.shared.wake.notify_all();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for MonitorHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl fmt::Debug for MonitorHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MonitorHandle")
            .field("sweeps", &self.sweeps())
            .field("finished", &self.is_finished())
            .finish()
    }
}

fn index_text(description: &ServiceDescription, tags: &[String]) -> String {
    let mut text = format!("{} {}", description.name(), description.description());
    for p in description.inputs().iter().chain(description.outputs()) {
        text.push(' ');
        text.push_str(p.name());
        if let Some(d) = &p.schema().description {
            text.push(' ');
            text.push_str(d);
        }
    }
    for t in tags {
        text.push(' ');
        text.push_str(t);
    }
    text
}

fn entry_to_value(e: &Entry, snippet: Option<&str>, score: Option<f64>) -> Value {
    let mut o = Object::new();
    o.insert("id".into(), Value::from(e.id as i64));
    o.insert("url".into(), Value::from(e.url.as_str()));
    o.insert("name".into(), Value::from(e.description.name()));
    o.insert(
        "description".into(),
        Value::from(e.description.description()),
    );
    o.insert(
        "tags".into(),
        Value::Array(e.tags.iter().map(|t| Value::from(t.as_str())).collect()),
    );
    o.insert("available".into(), Value::Bool(e.available));
    if let Some(s) = snippet {
        o.insert("snippet".into(), Value::from(s));
    }
    if let Some(s) = score {
        o.insert("score".into(), Value::from(s));
    }
    Value::Object(o)
}

/// Builds the catalogue's own REST interface:
///
/// * `GET /` — the human-facing search page (HTML),
/// * `GET /search?q=…&tag=…` — ranked results with snippets (JSON),
/// * `POST /publish` with `{"url": …, "tags": […]}`,
/// * `POST /entries/{id}/tags` with `{"tags": […]}`,
/// * `GET /entries` — everything,
/// * `POST /ping` — run an availability sweep now,
/// * `GET /metrics` — this process's own registry (Prometheus text),
/// * `GET /health` — the catalogue's own liveness summary,
/// * `GET /metrics/federated` — merged Prometheus text scraped from every
///   registered container (`?deadline_ms=…&workers=…` override the sweep
///   bounds),
/// * `GET /health/all` — per-container health summary; HTTP 200 when every
///   target is up, 207 (Multi-Status) when the view is partial.
pub fn router(catalogue: Catalogue) -> Router {
    let mut r = Router::new();

    fn sweep_config(req: &Request, base: &ScrapeConfig) -> ScrapeConfig {
        let mut cfg = base.clone();
        if let Some(ms) = req.query("deadline_ms").and_then(|s| s.parse::<u64>().ok()) {
            cfg.per_target_deadline = Duration::from_millis(ms.clamp(10, 60_000));
        }
        if let Some(w) = req.query("workers").and_then(|s| s.parse::<usize>().ok()) {
            cfg.max_workers = w.clamp(1, 64);
        }
        cfg
    }

    r.get("/metrics", move |_req, _p| {
        Response::bytes(
            200,
            "text/plain; version=0.0.4",
            metrics::global().render_prometheus().into_bytes(),
        )
    });

    let c = catalogue.clone();
    r.get("/health", move |_req, _p| {
        let entries = c.entries();
        let available = entries.iter().filter(|e| e.available).count();
        Response::json(
            200,
            &json!({
                "status": "ok",
                "entries": (entries.len() as i64),
                "available": (available as i64),
            }),
        )
    });

    let c = catalogue.clone();
    r.get("/metrics/federated", move |req: &Request, _p| {
        let cfg = sweep_config(req, c.scrape_config());
        let (text, _elapsed) = c.federate_metrics(&cfg);
        Response::bytes(200, "text/plain; version=0.0.4", text.into_bytes())
    });

    let c = catalogue.clone();
    r.get("/health/all", move |req: &Request, _p| {
        let cfg = sweep_config(req, c.scrape_config());
        let (mut value, all_up, _elapsed) = c.health_all(&cfg);
        // Per-authority circuit-breaker state, as seen by this catalogue's
        // own clients: a target can answer the sweep (fresh scrape client)
        // while the long-lived probe client's breaker is still open.
        if let Value::Object(root) = &mut value {
            let mut breakers = Object::new();
            for (authority, state) in c.breaker_states() {
                breakers.insert(authority, Value::from(state.as_str()));
            }
            root.insert("breakers".into(), Value::Object(breakers));
        }
        Response::json(if all_up { 200 } else { 207 }, &value)
    });

    // GET /events: the catalogue's lifecycle stream (availability flips,
    // breaker transitions) as Server-Sent Events; same contract as the
    // container-side endpoint.
    mathcloud_http::sse::mount_events(&mut r, mathcloud_events::global());

    let c = catalogue.clone();
    r.get("/search", move |req: &Request, _p| {
        let query = req.query("q").unwrap_or_default();
        let tag = req.query("tag");
        let results = c.search(&query, tag.as_deref());
        let items: Vec<Value> = results
            .iter()
            .map(|res| entry_to_value(&res.entry, Some(&res.snippet), Some(res.score)))
            .collect();
        Response::json(200, &Value::Array(items))
    });

    let c = catalogue.clone();
    r.post("/publish", move |req: &Request, _p| {
        let body = match req.body_json() {
            Ok(v) => v,
            Err(e) => return Response::error(400, &format!("bad json: {e}")),
        };
        let Some(url) = body.str_field("url") else {
            return Response::error(400, "missing url");
        };
        let tags: Vec<String> = body
            .get("tags")
            .and_then(Value::as_array)
            .map(|a| {
                a.iter()
                    .filter_map(Value::as_str)
                    .map(String::from)
                    .collect()
            })
            .unwrap_or_default();
        let tag_refs: Vec<&str> = tags.iter().map(String::as_str).collect();
        match c.publish(url, &tag_refs) {
            Ok(id) => Response::json(201, &json!({ "id": (id as i64) })),
            Err(e) => Response::error(502, &e.to_string()),
        }
    });

    let c = catalogue.clone();
    r.post(
        "/entries/{id}/tags",
        move |req: &Request, p: &PathParams| {
            let Some(id) = p.get("id").and_then(|s| s.parse::<u64>().ok()) else {
                return Response::error(400, "bad entry id");
            };
            let body = match req.body_json() {
                Ok(v) => v,
                Err(e) => return Response::error(400, &format!("bad json: {e}")),
            };
            let tags: Vec<String> = body
                .get("tags")
                .and_then(Value::as_array)
                .map(|a| {
                    a.iter()
                        .filter_map(Value::as_str)
                        .map(String::from)
                        .collect()
                })
                .unwrap_or_default();
            let tag_refs: Vec<&str> = tags.iter().map(String::as_str).collect();
            if c.add_tags(id, &tag_refs) {
                Response::empty(204)
            } else {
                Response::error(404, "no such entry")
            }
        },
    );

    let c = catalogue.clone();
    r.get("/entries", move |_req, _p| {
        let items: Vec<Value> = c
            .entries()
            .iter()
            .map(|e| entry_to_value(e, None, None))
            .collect();
        Response::json(200, &Value::Array(items))
    });

    let c = catalogue.clone();
    r.post("/ping", move |_req, _p| {
        let (up, down) = c.ping_all();
        Response::json(
            200,
            &json!({ "available": (up as i64), "unavailable": (down as i64) }),
        )
    });

    // The human-facing search page: "a web application with interface and
    // functionality similar to modern search engines" (§3.2).
    let c = catalogue.clone();
    r.get("/", move |req: &Request, _p| {
        let query = req.query("q").unwrap_or_default();
        Response::html(200, &search_page(&c, &query))
    });

    r
}

fn html_escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
        .replace('"', "&quot;")
}

fn search_page(catalogue: &Catalogue, query: &str) -> String {
    let mut body = format!(
        "<h1>MathCloud service catalogue</h1>\
         <form method=\"get\" action=\"/\">\
         <input name=\"q\" value=\"{}\" placeholder=\"search services…\" autofocus>\
         <button type=\"submit\">Search</button></form>",
        html_escape(query)
    );
    let results = catalogue.search(query, None);
    body.push_str(&format!("<p>{} result(s)</p><ol>", results.len()));
    for r in &results {
        // Snippets carry <b> highlighting from the index; escape everything
        // else around it by splitting on the markers.
        let snippet = html_escape(&r.snippet)
            .replace("&lt;b&gt;", "<b>")
            .replace("&lt;/b&gt;", "</b>");
        let marker = if r.entry.available {
            ""
        } else {
            " <em>(unavailable)</em>"
        };
        body.push_str(&format!(
            "<li><a href=\"{0}\">{1}</a>{2}<br><small>{3}</small><br>{4}</li>",
            html_escape(&r.entry.url),
            html_escape(r.entry.description.name()),
            marker,
            html_escape(&r.entry.tags.join(", ")),
            snippet
        ));
    }
    body.push_str("</ol>");
    format!(
        "<!DOCTYPE html><html><head><meta charset=\"utf-8\"><title>MathCloud catalogue</title>\
         <style>body{{font-family:sans-serif;max-width:44rem;margin:2rem auto}}\
         input{{width:70%;padding:0.4rem}}li{{margin:0.8rem 0}}</style></head>\
         <body>{body}</body></html>"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mathcloud_core::Parameter;
    use mathcloud_json::Schema;

    fn desc(name: &str, text: &str) -> ServiceDescription {
        ServiceDescription::new(name, text)
            .input(Parameter::new("input", Schema::string()))
            .output(Parameter::new("output", Schema::string()))
    }

    #[test]
    fn register_search_and_rank() {
        let c = Catalogue::new();
        c.register(
            "http://a:1/services/inv",
            desc("inverse", "exact matrix inversion via Schur complement"),
            &["linear-algebra"],
        );
        c.register(
            "http://a:1/services/xray",
            desc("xray-fit", "x-ray scattering analysis of nanostructures"),
            &["physics"],
        );
        let results = c.search("matrix inversion", None);
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].entry.description.name(), "inverse");
        assert!(results[0].snippet.contains("<b>"), "{}", results[0].snippet);
    }

    #[test]
    fn tag_filter_and_browse_mode() {
        let c = Catalogue::new();
        c.register("http://a:1/s/1", desc("s1", "solver alpha"), &["opt"]);
        c.register("http://a:1/s/2", desc("s2", "solver beta"), &["phys"]);
        assert_eq!(c.search("solver", Some("opt")).len(), 1);
        assert_eq!(c.search("solver", None).len(), 2);
        assert_eq!(c.search("", None).len(), 2, "empty query lists all");
        assert_eq!(c.search("", Some("phys")).len(), 1);
    }

    #[test]
    fn user_tags_become_searchable() {
        let c = Catalogue::new();
        let id = c.register("http://a:1/s/1", desc("s1", "plain text"), &[]);
        assert!(c.search("favourite", None).is_empty());
        assert!(c.add_tags(id, &["favourite", "favourite"]));
        let results = c.search("favourite", None);
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].entry.tags, ["favourite"]);
        assert!(!c.add_tags(999, &["x"]));
    }

    #[test]
    fn republishing_replaces_the_entry() {
        let c = Catalogue::new();
        c.register("http://a:1/s/1", desc("s1", "old words"), &[]);
        c.register("http://a:1/s/1", desc("s1", "new words"), &[]);
        assert_eq!(c.entries().len(), 1);
        assert!(c.search("old", None).is_empty());
        assert_eq!(c.search("new", None).len(), 1);
    }

    #[test]
    fn unpublish_removes_entry_and_index() {
        let c = Catalogue::new();
        let id = c.register("http://a:1/s/1", desc("s1", "findme"), &[]);
        assert!(c.unpublish(id));
        assert!(!c.unpublish(id));
        assert!(c.search("findme", None).is_empty());
        assert!(c.entries().is_empty());
    }

    #[test]
    fn ping_marks_dead_services() {
        let c = Catalogue::new();
        // Nothing listens on port 1.
        c.register(
            "http://127.0.0.1:1/services/dead",
            desc("dead", "gone"),
            &[],
        );
        let (up, down) = c.ping_all();
        assert_eq!((up, down), (0, 1));
        assert!(!c.entries()[0].available);
        let results = c.search("gone", None);
        assert!(
            !results[0].entry.available,
            "search results carry availability"
        );
    }

    #[test]
    fn publish_fails_for_unreachable_or_invalid() {
        let c = Catalogue::new();
        assert!(matches!(
            c.publish("http://127.0.0.1:1/x", &[]).unwrap_err(),
            CatalogueError::Unreachable(_)
        ));
        assert!(c.publish("not a url", &[]).is_err());
    }

    #[test]
    fn scrape_targets_dedupe_authorities_in_first_seen_order() {
        let c = Catalogue::new();
        c.register("http://a:1/services/s1", desc("s1", "x"), &[]);
        c.register("http://b:2/services/s2", desc("s2", "x"), &[]);
        c.register("http://a:1/services/s3", desc("s3", "x"), &[]);
        let targets = c.scrape_targets();
        assert_eq!(targets.len(), 2);
        assert_eq!(targets[0].instance, "a:1");
        assert_eq!(targets[0].services, ["s1", "s3"]);
        assert_eq!(targets[1].instance, "b:2");
        assert_eq!(targets[1].services, ["s2"]);
    }

    /// The monitor must tick while running and its thread must actually exit
    /// on `stop()` — `stop()` joins, so a reintroduced leak hangs this test
    /// instead of passing silently.
    #[test]
    fn monitor_ticks_and_stop_joins_the_thread() {
        use std::sync::atomic::AtomicUsize;
        let hits = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hits);
        let mut router = Router::new();
        router.get("/services/s", move |_req: &Request, _p: &PathParams| {
            h.fetch_add(1, Ordering::Relaxed);
            Response::json(200, &json!({ "name": "s" }))
        });
        let server = mathcloud_http::Server::bind("127.0.0.1:0", router).unwrap();
        let c = Catalogue::new();
        c.register(
            &format!("{}/services/s", server.base_url()),
            desc("s", "monitored"),
            &[],
        );
        let monitor = c.start_monitor(Duration::from_millis(10));
        let deadline = Instant::now() + Duration::from_secs(10);
        while monitor.sweeps() == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(monitor.sweeps() >= 1, "monitor never swept");
        assert!(
            hits.load(Ordering::Relaxed) >= 1,
            "probe never reached the service"
        );
        assert!(!monitor.is_finished());
        monitor.stop();
        server.shutdown();
    }

    /// Dropping every catalogue handle must let the monitor thread exit on
    /// its own — the original implementation cloned a full `Catalogue` into
    /// the thread and therefore leaked it forever.
    #[test]
    fn monitor_exits_when_catalogue_is_dropped() {
        let c = Catalogue::new();
        let monitor = c.start_monitor(Duration::from_millis(5));
        drop(c);
        let deadline = Instant::now() + Duration::from_secs(10);
        while !monitor.is_finished() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(
            monitor.is_finished(),
            "monitor thread leaked after the catalogue was dropped"
        );
    }

    #[test]
    fn federation_endpoints_respond_even_with_no_targets() {
        let c = Catalogue::new();
        let server = mathcloud_http::Server::bind("127.0.0.1:0", router(c)).unwrap();
        let client = mathcloud_http::Client::new();
        let resp = client
            .get(&format!("{}/metrics/federated", server.base_url()))
            .unwrap();
        assert_eq!(resp.status.as_u16(), 200);
        assert_eq!(
            resp.headers.get("content-type"),
            Some("text/plain; version=0.0.4")
        );
        let resp = client
            .get(&format!("{}/health/all", server.base_url()))
            .unwrap();
        assert_eq!(resp.status.as_u16(), 200, "vacuously all-up");
        let body = resp.body_json().unwrap();
        assert_eq!(body.str_field("status"), Some("ok"));
        assert_eq!(body.int_field("targets_total"), Some(0));
        let resp = client
            .get(&format!("{}/health", server.base_url()))
            .unwrap();
        assert_eq!(resp.status.as_u16(), 200);
        server.shutdown();
    }
}

#[cfg(test)]
mod webui_tests {
    use super::*;
    use mathcloud_core::{Parameter, ServiceDescription};
    use mathcloud_json::Schema;

    #[test]
    fn search_page_renders_results_with_highlighting() {
        let c = Catalogue::new();
        c.register(
            "http://h:1/services/inv",
            ServiceDescription::new("inverse", "exact matrix inversion")
                .input(Parameter::new("m", Schema::string()))
                .output(Parameter::new("r", Schema::string())),
            &["algebra"],
        );
        let server = mathcloud_http::Server::bind("127.0.0.1:0", router(c)).unwrap();
        let page = mathcloud_http::Client::new()
            .get(&format!("{}/?q=matrix", server.base_url()))
            .unwrap();
        assert_eq!(
            page.headers.get("content-type"),
            Some("text/html; charset=utf-8")
        );
        let html = page.body_string();
        assert!(html.contains("<b>matrix</b>"), "{html}");
        assert!(html.contains("inverse"));
        assert!(html.contains("1 result(s)"));
    }

    #[test]
    fn search_page_escapes_malicious_queries_and_entries() {
        let c = Catalogue::new();
        c.register(
            "http://h:1/services/<script>",
            ServiceDescription::new("xss<svc>", "desc <script>alert(1)</script>"),
            &["<tag>"],
        );
        let server = mathcloud_http::Server::bind("127.0.0.1:0", router(c)).unwrap();
        let page = mathcloud_http::Client::new()
            .get(&format!("{}/?q=%3Cscript%3E", server.base_url()))
            .unwrap()
            .body_string();
        assert!(!page.contains("<script>"), "{page}");
    }
}
