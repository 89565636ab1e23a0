//! HTTP facade over the simulated fleet.
//!
//! Serves the Redfish tree over real sockets so end-to-end tests exercise
//! the same wire path a production deployment would: one server multiplexes
//! the fleet under `/nodes/<bmc-addr>/redfish/v1/...` (a management-network
//! reverse proxy, in effect). Simulated latency is *reported*, not slept:
//! responses carry an `X-Simulated-Latency-Ms` header so callers can
//! account virtual time without wall-clock delays.

use crate::bmc::{Answer, SimulatedBmc};
use crate::cluster::SimulatedCluster;
use crate::model::redfish_error;
use monster_http::{Method, Response, Router, Status};
use monster_json::jobj;
use monster_util::NodeId;
use std::sync::Arc;

/// Build a router exposing `cluster` Redfish endpoints behind Redfish
/// session authentication: clients log in via
/// `POST /nodes/:addr/redfish/v1/SessionService/Sessions` and present the
/// returned `X-Auth-Token` on every resource request.
// kept: the gateway behind the session check a real iDRAC enforces
pub fn router_with_auth(
    cluster: Arc<SimulatedCluster>,
    sessions: Arc<crate::auth::SessionManager>,
) -> Router {
    let login_sessions = Arc::clone(&sessions);
    let inner = router(cluster);
    let now = || {
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0)
    };
    Router::new()
        .route(
            monster_http::Method::Post,
            "/nodes/:addr/redfish/v1/SessionService/Sessions",
            move |req, _| {
                let Ok(body) = String::from_utf8(req.body.clone()) else {
                    return Response::error(Status::BAD_REQUEST, "non-UTF8 body");
                };
                let parsed = monster_json::parse(&body).unwrap_or(monster_json::Value::Null);
                let user = parsed.get("UserName").and_then(|v| v.as_str()).unwrap_or("");
                let pass = parsed.get("Password").and_then(|v| v.as_str()).unwrap_or("");
                match login_sessions.login(user, pass, now()) {
                    Ok(token) => {
                        let mut resp = Response::json(&jobj! {
                            "@odata.id" => "/redfish/v1/SessionService/Sessions/1",
                            "UserName" => user,
                        });
                        resp.headers.set("X-Auth-Token", token);
                        resp
                    }
                    Err(_) => Response::error(Status(401), "invalid credentials"),
                }
            },
        )
        .route(monster_http::Method::Get, "/nodes/:addr/redfish/v1/*rest", move |req, _| {
            let token = req.headers.get("X-Auth-Token").unwrap_or("");
            if sessions.validate(token, now()).is_err() {
                return Response::error(Status(401), "authentication required");
            }
            // Delegate to the resource router; normalize the service root
            // (empty rest) to the root route's exact path.
            let mut req = req.clone();
            if req.path.ends_with("/redfish/v1/") {
                req.path.pop();
            }
            inner.dispatch(&req)
        })
}

/// Build a router exposing `cluster` Redfish endpoints.
pub fn router(cluster: Arc<SimulatedCluster>) -> Router {
    let c1 = Arc::clone(&cluster);
    let c2 = Arc::clone(&cluster);
    Router::new()
        // Service root: lists the four resource categories.
        .route(Method::Get, "/nodes/:addr/redfish/v1", move |_, p| {
            let addr = p.get("addr").unwrap_or("");
            match NodeId::parse(addr) {
                Some(node) if c1.sensors(node).is_ok() => Response::json(&jobj! {
                    "@odata.id" => "/redfish/v1",
                    "Id" => "RootService",
                    "Chassis" => jobj! { "@odata.id" => "/redfish/v1/Chassis" },
                    "Managers" => jobj! { "@odata.id" => "/redfish/v1/Managers" },
                    "Systems" => jobj! { "@odata.id" => "/redfish/v1/Systems" },
                }),
                _ => Response::error(Status::NOT_FOUND, &format!("no BMC at {addr}")),
            }
        })
        .route(Method::Get, "/nodes/:addr/redfish/v1/*rest", move |_, p| {
            let addr = p.get("addr").unwrap_or("");
            let rest = p.get("rest").unwrap_or("");
            let Some(node) = NodeId::parse(addr) else {
                return Response::error(Status::NOT_FOUND, &format!("bad BMC address {addr}"));
            };
            let category = match SimulatedBmc::category_for_path(rest) {
                Ok(c) => c,
                Err(e) => return Response::error(Status::NOT_FOUND, &e.to_string()),
            };
            match c2.request(node, category, |a| a.map(Response::json)) {
                Ok(Answer::Ok(mut resp, latency)) => {
                    resp.headers
                        .set("X-Simulated-Latency-Ms", format!("{:.1}", latency.as_millis_f64()));
                    resp
                }
                Ok(Answer::Refused(latency)) => {
                    let mut resp = Response::error(
                        Status::SERVICE_UNAVAILABLE,
                        &redfish_error("iDRAC busy").to_string_compact(),
                    );
                    resp.headers
                        .set("X-Simulated-Latency-Ms", format!("{:.1}", latency.as_millis_f64()));
                    resp
                }
                Ok(Answer::Stalled) => {
                    let mut resp = Response::error(Status(504), "BMC did not answer");
                    resp.headers.set("X-Simulated-Timeout", "true");
                    resp
                }
                Err(e) => Response::error(Status::NOT_FOUND, &e.to_string()),
            }
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bmc::BmcConfig;
    use crate::cluster::ClusterConfig;
    use monster_http::{Client, Request, Server};

    fn reliable_cluster(nodes: usize) -> Arc<SimulatedCluster> {
        Arc::new(SimulatedCluster::new(ClusterConfig {
            nodes,
            bmc: BmcConfig { failure_rate: 0.0, stall_rate: 0.0, ..BmcConfig::default() },
            ..ClusterConfig::small(nodes, 77)
        }))
    }

    #[test]
    fn serves_thermal_over_real_sockets() {
        let cluster = reliable_cluster(3);
        let server = Server::spawn(0, router(cluster)).unwrap();
        let client = Client::new();
        let resp = client
            .send_ok(
                server.addr(),
                &Request::get("/nodes/10.101.1.2/redfish/v1/Chassis/System.Embedded.1/Thermal/"),
            )
            .unwrap();
        let v = resp.json_body().unwrap();
        assert_eq!(v.get("Id").unwrap().as_str(), Some("Thermal"));
        assert!(resp.headers.get("X-Simulated-Latency-Ms").is_some());
    }

    #[test]
    fn service_root_lists_categories() {
        let cluster = reliable_cluster(2);
        let server = Server::spawn(0, router(cluster)).unwrap();
        let resp = Client::new()
            .send_ok(server.addr(), &Request::get("/nodes/10.101.1.1/redfish/v1"))
            .unwrap();
        let v = resp.json_body().unwrap();
        assert!(v.get("Chassis").is_some());
        assert!(v.get("Systems").is_some());
    }

    #[test]
    fn unknown_node_and_resource_are_404() {
        let cluster = reliable_cluster(2);
        let server = Server::spawn(0, router(cluster)).unwrap();
        let client = Client::new();
        let r = client.send(server.addr(), &Request::get("/nodes/10.101.9.9/redfish/v1")).unwrap();
        assert_eq!(r.status, Status::NOT_FOUND);
        let r = client
            .send(server.addr(), &Request::get("/nodes/10.101.1.1/redfish/v1/Nothing/Here"))
            .unwrap();
        assert_eq!(r.status, Status::NOT_FOUND);
    }

    #[test]
    fn authenticated_gateway_requires_token() {
        let cluster = reliable_cluster(2);
        let sessions = Arc::new(crate::auth::SessionManager::new("monster", "secret", 7));
        let server = Server::spawn(0, router_with_auth(cluster, Arc::clone(&sessions))).unwrap();
        let client = Client::new();
        let url = "/nodes/10.101.1.1/redfish/v1/Chassis/System.Embedded.1/Power/";

        // No token: 401.
        let resp = client.send(server.addr(), &Request::get(url)).unwrap();
        assert_eq!(resp.status.0, 401);

        // Bad credentials: 401.
        let bad_login = Request::post_json(
            "/nodes/10.101.1.1/redfish/v1/SessionService/Sessions",
            &jobj! { "UserName" => "monster", "Password" => "wrong" },
        );
        let resp = client.send(server.addr(), &bad_login).unwrap();
        assert_eq!(resp.status.0, 401);

        // Good credentials: token issued, resource accessible.
        let login = Request::post_json(
            "/nodes/10.101.1.1/redfish/v1/SessionService/Sessions",
            &jobj! { "UserName" => "monster", "Password" => "secret" },
        );
        let resp = client.send_ok(server.addr(), &login).unwrap();
        let token = resp.headers.get("X-Auth-Token").expect("token").to_string();
        let mut authed = Request::get(url);
        authed.headers.set("X-Auth-Token", &token);
        let resp = client.send_ok(server.addr(), &authed).unwrap();
        assert!(resp.json_body().unwrap().get("PowerControl").is_some());
        assert_eq!(sessions.active_sessions(), 1);

        // Service root is reachable once authenticated.
        let mut root = Request::get("/nodes/10.101.1.1/redfish/v1/");
        root.headers.set("X-Auth-Token", &token);
        let resp = client.send_ok(server.addr(), &root).unwrap();
        assert!(resp.json_body().unwrap().get("Chassis").is_some());

        // Garbage token: 401.
        let mut forged = Request::get(url);
        forged.headers.set("X-Auth-Token", "deadbeef");
        let resp = client.send(server.addr(), &forged).unwrap();
        assert_eq!(resp.status.0, 401);
    }

    #[test]
    fn dead_bmc_maps_to_gateway_timeout() {
        let cluster = reliable_cluster(2);
        let node = cluster.node_ids()[0];
        cluster.set_bmc_alive(node, false).unwrap();
        let server = Server::spawn(0, router(Arc::clone(&cluster))).unwrap();
        let r = Client::new()
            .send(
                server.addr(),
                &Request::get("/nodes/10.101.1.1/redfish/v1/Systems/System.Embedded.1"),
            )
            .unwrap();
        assert_eq!(r.status.0, 504);
        assert_eq!(r.headers.get("X-Simulated-Timeout"), Some("true"));
    }
}
