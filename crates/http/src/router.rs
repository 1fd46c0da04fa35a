//! Method + path-template request routing.

use std::sync::Arc;

use crate::message::{Method, Request, Response, StatusCode};
use crate::url::percent_decode;

/// Path parameters captured from a route template.
///
/// # Examples
///
/// ```
/// use mathcloud_http::{PathParams, Response, Router, Request, Method};
///
/// let mut router = Router::new();
/// router.get("/services/{name}/jobs/{id}", |_req, p: &PathParams| {
///     Response::text(200, &format!("{}:{}", p.get("name").unwrap(), p.get("id").unwrap()))
/// });
/// let req = Request::new(Method::Get, "/services/inverse/jobs/7");
/// assert_eq!(router.dispatch(&req).body_string(), "inverse:7");
/// ```
#[derive(Debug, Clone, Default)]
pub struct PathParams {
    /// `(template name, percent-decoded capture)`, in template order; a
    /// route has a handful at most, so a scan beats hashing.
    params: Vec<(Arc<str>, String)>,
}

impl PathParams {
    /// Looks up a captured parameter by template name.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.params
            .iter()
            .find(|(n, _)| **n == *name)
            .map(|(_, v)| v.as_str())
    }

    /// Number of captured parameters.
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// Returns `true` when nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Records a capture; a name repeated in the template keeps its last
    /// capture.
    fn insert(&mut self, name: &Arc<str>, value: String) {
        match self.params.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.params.push((Arc::clone(name), value)),
        }
    }
}

/// A request handler.
pub type Handler = Arc<dyn Fn(&Request, &PathParams) -> Response + Send + Sync>;

/// A middleware: runs before routing; returning `Some` short-circuits with
/// that response (used by the security layer for authentication failures).
/// Middlewares may rewrite the request, e.g. to attach an authenticated
/// identity header.
pub type Middleware = Arc<dyn Fn(&mut Request) -> Option<Response> + Send + Sync>;

#[derive(Debug, Clone, PartialEq, Eq)]
enum Segment {
    Literal(String),
    Param(Arc<str>),
    /// `{*name}` — captures the remainder of the path, across `/`.
    Rest(Arc<str>),
}

struct Route {
    method: Method,
    template: String,
    segments: Vec<Segment>,
    handler: Handler,
}

/// Routes requests to handlers by method and path template.
///
/// Templates are `/`-separated; a `{name}` segment captures one path segment
/// and `{*name}` captures the rest of the path. Captures are percent-decoded.
#[derive(Default)]
pub struct Router {
    routes: Vec<Route>,
    middlewares: Vec<Middleware>,
}

impl Router {
    /// Creates an empty router.
    pub fn new() -> Self {
        Router::default()
    }

    /// Registers a handler for `method` + `template`.
    pub fn route<F>(&mut self, method: Method, template: &str, handler: F) -> &mut Self
    where
        F: Fn(&Request, &PathParams) -> Response + Send + Sync + 'static,
    {
        self.routes.push(Route {
            method,
            template: template.to_string(),
            segments: parse_template(template),
            handler: Arc::new(handler),
        });
        self
    }

    /// Registers a `GET` handler.
    pub fn get<F>(&mut self, template: &str, handler: F) -> &mut Self
    where
        F: Fn(&Request, &PathParams) -> Response + Send + Sync + 'static,
    {
        self.route(Method::Get, template, handler)
    }

    /// Registers a `POST` handler.
    pub fn post<F>(&mut self, template: &str, handler: F) -> &mut Self
    where
        F: Fn(&Request, &PathParams) -> Response + Send + Sync + 'static,
    {
        self.route(Method::Post, template, handler)
    }

    /// Registers a `DELETE` handler.
    pub fn delete<F>(&mut self, template: &str, handler: F) -> &mut Self
    where
        F: Fn(&Request, &PathParams) -> Response + Send + Sync + 'static,
    {
        self.route(Method::Delete, template, handler)
    }

    /// Registers a `PUT` handler.
    pub fn put<F>(&mut self, template: &str, handler: F) -> &mut Self
    where
        F: Fn(&Request, &PathParams) -> Response + Send + Sync + 'static,
    {
        self.route(Method::Put, template, handler)
    }

    /// Adds a middleware that runs before routing, in registration order.
    pub fn middleware<F>(&mut self, mw: F) -> &mut Self
    where
        F: Fn(&mut Request) -> Option<Response> + Send + Sync + 'static,
    {
        self.middlewares.push(Arc::new(mw));
        self
    }

    /// Dispatches a request: middlewares, then route matching.
    ///
    /// Produces `404` when no template matches and `405` when a template
    /// matches under a different method.
    pub fn dispatch(&self, req: &Request) -> Response {
        let mut req = req.clone();
        self.dispatch_mut(&mut req)
    }

    /// Dispatch variant that lets middlewares rewrite the request in place.
    pub fn dispatch_mut(&self, req: &mut Request) -> Response {
        self.dispatch_labeled(req).0
    }

    /// Like [`Router::dispatch_mut`], but also reports which route template
    /// handled the request — the low-cardinality label the server's per-route
    /// metrics are keyed by. Requests answered by a middleware report
    /// `"middleware"`; unmatched paths report `"unmatched"`; method
    /// mismatches report the template that matched the path.
    pub fn dispatch_labeled(&self, req: &mut Request) -> (Response, &str) {
        for mw in &self.middlewares {
            if let Some(resp) = mw(req) {
                return (resp, "middleware");
            }
        }
        let req: &Request = req;
        let path = req.path();
        let mut path_match: Option<&Route> = None;
        for route in &self.routes {
            if !matches_template(&route.segments, path) {
                continue;
            }
            if route.method == req.method {
                let params = capture(&route.segments, path);
                return ((route.handler)(req, &params), route.template.as_str());
            }
            if path_match.is_none() {
                path_match = Some(route);
            }
        }
        match path_match {
            Some(route) => (
                Response::error(StatusCode::METHOD_NOT_ALLOWED, "method not allowed"),
                route.template.as_str(),
            ),
            None => (
                Response::error(StatusCode::NOT_FOUND, "no such resource"),
                "unmatched",
            ),
        }
    }
}

impl std::fmt::Debug for Router {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Router")
            .field("routes", &self.routes.len())
            .field("middlewares", &self.middlewares.len())
            .finish()
    }
}

fn parse_template(template: &str) -> Vec<Segment> {
    template
        .trim_matches('/')
        .split('/')
        .filter(|s| !s.is_empty())
        .map(|seg| {
            if let Some(inner) = seg.strip_prefix('{').and_then(|s| s.strip_suffix('}')) {
                if let Some(rest) = inner.strip_prefix('*') {
                    Segment::Rest(rest.into())
                } else {
                    Segment::Param(inner.into())
                }
            } else {
                Segment::Literal(seg.to_string())
            }
        })
        .collect()
}

/// A path's non-empty `/`-separated segments.
fn path_parts(path: &str) -> impl Iterator<Item = &str> {
    path.split('/').filter(|s| !s.is_empty())
}

/// Whether `path` has the template's shape; allocates nothing, so every
/// route can be tried on every request.
fn matches_template(segments: &[Segment], path: &str) -> bool {
    let mut parts = path_parts(path);
    for seg in segments {
        match seg {
            Segment::Rest(_) => return true,
            Segment::Literal(lit) => {
                if parts.next() != Some(lit.as_str()) {
                    return false;
                }
            }
            Segment::Param(_) => {
                if parts.next().is_none() {
                    return false;
                }
            }
        }
    }
    parts.next().is_none()
}

/// The percent-decoded captures of a path that [`matches_template`].
fn capture(segments: &[Segment], path: &str) -> PathParams {
    let mut params = PathParams::default();
    let mut parts = path_parts(path);
    for seg in segments {
        match seg {
            Segment::Rest(name) => {
                let rest: Vec<String> = parts.map(percent_decode).collect();
                params.insert(name, rest.join("/"));
                break;
            }
            Segment::Literal(_) => {
                parts.next();
            }
            Segment::Param(name) => {
                let part = parts.next().expect("path matches the template");
                params.insert(name, percent_decode(part));
            }
        }
    }
    params
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok(name: &str) -> impl Fn(&Request, &PathParams) -> Response {
        let name = name.to_string();
        move |_req, _p| Response::text(200, &name)
    }

    #[test]
    fn literal_routes_match_exactly() {
        let mut r = Router::new();
        r.get("/services", ok("list"));
        r.get("/services/all", ok("all"));
        assert_eq!(
            r.dispatch(&Request::new(Method::Get, "/services"))
                .body_string(),
            "list"
        );
        assert_eq!(
            r.dispatch(&Request::new(Method::Get, "/services/"))
                .body_string(),
            "list"
        );
        assert_eq!(
            r.dispatch(&Request::new(Method::Get, "/services/all"))
                .body_string(),
            "all"
        );
        assert_eq!(
            r.dispatch(&Request::new(Method::Get, "/nope"))
                .status
                .as_u16(),
            404
        );
        assert_eq!(
            r.dispatch(&Request::new(Method::Get, "/services/all/x"))
                .status
                .as_u16(),
            404
        );
    }

    #[test]
    fn params_capture_and_decode() {
        let mut r = Router::new();
        r.get("/s/{name}/jobs/{id}", |_rq, p: &PathParams| {
            Response::text(
                200,
                &format!("{}|{}", p.get("name").unwrap(), p.get("id").unwrap()),
            )
        });
        let resp = r.dispatch(&Request::new(Method::Get, "/s/matrix%20inv/jobs/42"));
        assert_eq!(resp.body_string(), "matrix inv|42");
    }

    #[test]
    fn rest_segments_capture_slashes() {
        let mut r = Router::new();
        r.get("/files/{*path}", |_rq, p: &PathParams| {
            Response::text(200, p.get("path").unwrap())
        });
        let resp = r.dispatch(&Request::new(Method::Get, "/files/a/b/c.txt"));
        assert_eq!(resp.body_string(), "a/b/c.txt");
    }

    #[test]
    fn wrong_method_is_405_missing_is_404() {
        let mut r = Router::new();
        r.post("/jobs", ok("submit"));
        assert_eq!(
            r.dispatch(&Request::new(Method::Get, "/jobs"))
                .status
                .as_u16(),
            405
        );
        assert_eq!(
            r.dispatch(&Request::new(Method::Get, "/other"))
                .status
                .as_u16(),
            404
        );
    }

    #[test]
    fn first_matching_route_wins() {
        let mut r = Router::new();
        r.get("/a/{x}", ok("param"));
        r.get("/a/literal", ok("literal"));
        assert_eq!(
            r.dispatch(&Request::new(Method::Get, "/a/literal"))
                .body_string(),
            "param"
        );
    }

    #[test]
    fn middleware_short_circuits_and_rewrites() {
        let mut r = Router::new();
        r.middleware(|req: &mut Request| {
            if req.headers.get("authorization").is_none() {
                return Some(Response::error(401, "credentials required"));
            }
            req.headers.set("x-user", "alice");
            None
        });
        r.get("/private", |req: &Request, _p: &PathParams| {
            Response::text(200, req.headers.get("x-user").unwrap())
        });
        assert_eq!(
            r.dispatch(&Request::new(Method::Get, "/private"))
                .status
                .as_u16(),
            401
        );
        let authed = Request::new(Method::Get, "/private").with_header("Authorization", "tok");
        assert_eq!(r.dispatch(&authed).body_string(), "alice");
    }

    #[test]
    fn query_strings_do_not_affect_matching() {
        let mut r = Router::new();
        r.get("/search", ok("search"));
        assert_eq!(
            r.dispatch(&Request::new(Method::Get, "/search?q=x"))
                .body_string(),
            "search"
        );
    }
}
