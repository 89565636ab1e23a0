//! Path-pattern routing.
//!
//! Patterns are `/`-separated segments; a segment starting with `:` binds a
//! parameter, and a trailing `*rest` binds the remainder of the path. The
//! Metrics Builder API uses named params (`/v1/metrics/:node`); the
//! benchmark harness's front router uses the wildcard form (`/*rest`) to
//! hand every path to the router it wraps.

use crate::message::{Method, Request, Response, Status};
use std::collections::HashMap;

/// Parameters bound by a route match.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PathParams {
    map: HashMap<String, String>,
}

impl PathParams {
    /// Look up a bound parameter.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.map.get(name).map(String::as_str)
    }
}

type Handler = Box<dyn Fn(&Request, &PathParams) -> Response + Send + Sync>;

struct Route {
    method: Method,
    segments: Vec<Seg>,
    handler: Handler,
}

enum Seg {
    Literal(String),
    Param(String),
    Wildcard(String),
}

/// A method+path router.
#[derive(Default)]
pub struct Router {
    routes: Vec<Route>,
}

impl Router {
    /// An empty router.
    pub fn new() -> Self {
        Router { routes: Vec::new() }
    }

    /// Register a route. Panics on malformed patterns (a wildcard not in
    /// final position).
    pub fn route(
        mut self,
        method: Method,
        pattern: &str,
        handler: impl Fn(&Request, &PathParams) -> Response + Send + Sync + 'static,
    ) -> Self {
        let segments: Vec<Seg> = pattern
            .split('/')
            .filter(|s| !s.is_empty())
            .map(|s| {
                if let Some(name) = s.strip_prefix(':') {
                    Seg::Param(name.to_string())
                } else if let Some(name) = s.strip_prefix('*') {
                    Seg::Wildcard(name.to_string())
                } else {
                    Seg::Literal(s.to_string())
                }
            })
            .collect();
        let wild_pos = segments.iter().position(|s| matches!(s, Seg::Wildcard(_)));
        if let Some(p) = wild_pos {
            assert!(p == segments.len() - 1, "wildcard must be final segment");
        }
        self.routes.push(Route { method, segments, handler: Box::new(handler) });
        self
    }

    /// Dispatch a request. Distinguishes 404 (no path match) from 405
    /// (path matched under a different method).
    pub fn dispatch(&self, req: &Request) -> Response {
        let parts: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
        let mut path_matched = false;
        for route in &self.routes {
            if let Some(params) = match_route(&route.segments, &parts) {
                if route.method == req.method {
                    return (route.handler)(req, &params);
                }
                path_matched = true;
            }
        }
        if path_matched {
            Response::error(Status::METHOD_NOT_ALLOWED, "method not allowed")
        } else {
            Response::error(Status::NOT_FOUND, &format!("no route for {}", req.path))
        }
    }
}

fn match_route(segments: &[Seg], parts: &[&str]) -> Option<PathParams> {
    let mut params = PathParams::default();
    let mut i = 0;
    for seg in segments {
        match seg {
            Seg::Literal(lit) => {
                if parts.get(i) != Some(&lit.as_str()) {
                    return None;
                }
                i += 1;
            }
            Seg::Param(name) => {
                let v = parts.get(i)?;
                params.map.insert(name.clone(), (*v).to_string());
                i += 1;
            }
            Seg::Wildcard(name) => {
                // Bind the rest (possibly empty) and consume everything.
                params.map.insert(name.clone(), parts[i..].join("/"));
                i = parts.len();
            }
        }
    }
    (i == parts.len()).then_some(params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use monster_json::jobj;

    fn router() -> Router {
        Router::new()
            .route(Method::Get, "/v1/health", |_, _| Response::json(&jobj! { "ok" => true }))
            .route(Method::Get, "/v1/metrics/:node", |_, p| {
                Response::json(&jobj! { "node" => p.get("node").unwrap() })
            })
            .route(Method::Get, "/redfish/v1/*rest", |_, p| {
                Response::json(&jobj! { "rest" => p.get("rest").unwrap() })
            })
            .route(Method::Post, "/v1/write", |req, _| {
                Response::json(&jobj! { "received" => req.body.len() })
            })
    }

    #[test]
    fn literal_route() {
        let r = router().dispatch(&Request::get("/v1/health"));
        assert_eq!(r.status, Status::OK);
    }

    #[test]
    fn param_binding() {
        let r = router().dispatch(&Request::get("/v1/metrics/10.101.1.1"));
        assert_eq!(r.json_body().unwrap().get("node").unwrap().as_str(), Some("10.101.1.1"));
    }

    #[test]
    fn wildcard_binds_remainder() {
        let r = router().dispatch(&Request::get("/redfish/v1/Chassis/System.Embedded.1/Thermal"));
        assert_eq!(
            r.json_body().unwrap().get("rest").unwrap().as_str(),
            Some("Chassis/System.Embedded.1/Thermal")
        );
    }

    #[test]
    fn not_found_vs_method_not_allowed() {
        assert_eq!(router().dispatch(&Request::get("/nope")).status, Status::NOT_FOUND);
        let mut post = Request::get("/v1/health");
        post.method = Method::Post;
        assert_eq!(router().dispatch(&post).status, Status::METHOD_NOT_ALLOWED);
    }

    #[test]
    fn trailing_slash_is_tolerated() {
        // Redfish URLs in the paper end with '/'.
        let r = router().dispatch(&Request::get("/v1/health/"));
        assert_eq!(r.status, Status::OK);
    }

    #[test]
    fn param_routes_do_not_eat_longer_paths() {
        assert_eq!(router().dispatch(&Request::get("/v1/metrics/a/b")).status, Status::NOT_FOUND);
    }

    #[test]
    #[should_panic(expected = "wildcard")]
    fn wildcard_must_be_last() {
        let _ = Router::new().route(Method::Get, "/a/*x/b", |_, _| Response::error(Status::OK, ""));
    }
}
