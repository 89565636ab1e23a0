//! The database's HTTP surface — the wire between the paper's hosts.
//!
//! Table III puts the Metrics Collector, the storage service, and the
//! Metrics Builder on three separate machines: the collector *writes* to
//! InfluxDB over HTTP and the builder *queries* it over HTTP. This module
//! provides that surface, shaped like InfluxDB 1.x's API:
//!
//! ```text
//! POST /write            — line-protocol batch in the body
//! GET  /query?q=<influxql>          — data or SHOW meta-queries
//! POST /query?q=DROP MEASUREMENT m  — destructive statements
//! GET  /ping             — liveness (204)
//! ```
//!
//! plus [`RemoteDb`], the client used by services on other hosts. Query
//! responses carry the physical [`QueryCost`] counters in
//! `X-Cost-*` headers so remote callers can keep driving the simulated
//! timing model.

use crate::db::Db;
use crate::lineproto;
use crate::query::MetaQuery;
use crate::QueryCost;
use monster_http::{Client, Method, PersistentClient, Request, Response, Router, Status};
use monster_json::{jobj, Value};
use monster_util::{Error, Result};
use std::net::SocketAddr;
use std::sync::Arc;

fn no_content() -> Response {
    Response::new(Status::NO_CONTENT, Default::default(), monster_http::Body::empty())
}

/// Build the database's router.
pub fn router(db: Arc<Db>) -> Router {
    let write_db = Arc::clone(&db);
    let query_db = Arc::clone(&db);
    let drop_db = Arc::clone(&db);
    Router::new()
        .route(Method::Get, "/ping", |_, _| no_content())
        .route(Method::Post, "/write", move |req, _| {
            let Ok(text) = std::str::from_utf8(&req.body) else {
                return Response::error(Status::BAD_REQUEST, "body is not UTF-8");
            };
            match lineproto::parse_batch(text) {
                Ok(points) => match write_db.write_batch(&points) {
                    Ok(()) => no_content(),
                    Err(e) => Response::error(Status::BAD_REQUEST, &e.to_string()),
                },
                Err(e) => Response::error(Status::BAD_REQUEST, &e.to_string()),
            }
        })
        .route(Method::Get, "/query", move |req, _| {
            let Some(q) = req.query_param("q") else {
                return Response::error(Status::BAD_REQUEST, "missing q parameter");
            };
            // URL-ish decoding: '+' and %20 as spaces, %27 as quote (the
            // characters our queries use).
            let q = decode_query(q);
            if q.trim().to_ascii_uppercase().starts_with("SHOW") {
                return match MetaQuery::parse(&q) {
                    Ok(mq) => {
                        let rows: Vec<Value> =
                            mq.run(&query_db).into_iter().map(Value::from).collect();
                        Response::json(&jobj! { "results" => Value::Array(rows) })
                    }
                    Err(e) => Response::error(Status::BAD_REQUEST, &e.to_string()),
                };
            }
            match query_db.query_str(&q) {
                Ok((rs, cost)) => {
                    let mut resp = Response::json(&result_set_to_json(&rs));
                    attach_cost(&mut resp, &cost);
                    resp
                }
                Err(Error::Parse(m)) | Err(Error::Invalid(m)) => {
                    Response::error(Status::BAD_REQUEST, &m)
                }
                Err(e) => Response::error(Status::INTERNAL_ERROR, &e.to_string()),
            }
        })
        .route(Method::Post, "/query", move |req, _| {
            let Some(q) = req.query_param("q") else {
                return Response::error(Status::BAD_REQUEST, "missing q parameter");
            };
            let q = decode_query(q);
            let upper = q.trim().to_ascii_uppercase();
            if let Some(rest) = upper.strip_prefix("DROP MEASUREMENT") {
                // Use the original casing for the measurement name.
                let name = q.trim()[q.trim().len() - rest.trim().len()..].trim();
                let dropped = drop_db.drop_measurement(name);
                return Response::json(&jobj! { "dropped_series" => dropped as i64 });
            }
            Response::error(Status::BAD_REQUEST, "only DROP MEASUREMENT is POSTable")
        })
}

fn decode_query(q: &str) -> String {
    q.replace('+', " ")
        .replace("%20", " ")
        .replace("%27", "'")
        .replace("%3D", "=")
        .replace("%3E", ">")
        .replace("%3C", "<")
}

fn encode_query(q: &str) -> String {
    q.replace('=', "%3D")
        .replace('>', "%3E")
        .replace('<', "%3C")
        .replace('\'', "%27")
        .replace(' ', "+")
}

/// Serialize a result set the way InfluxDB 1.x does (series → columns +
/// values).
fn result_set_to_json(rs: &crate::ResultSet) -> Value {
    let series: Vec<Value> = rs
        .series
        .iter()
        .map(|s| {
            let tags: Vec<Value> = s
                .key
                .tags
                .iter()
                .map(|(k, v)| jobj! { "key" => k.as_str(), "value" => v.as_str() })
                .collect();
            let values: Vec<Value> = s
                .points
                .iter()
                .map(|(t, v)| {
                    let val = match v.as_f64() {
                        Some(x) => Value::Float(x),
                        None => Value::Str(v.as_str().unwrap_or_default().to_string()),
                    };
                    Value::Array(vec![Value::Int(t.as_secs()), val])
                })
                .collect();
            jobj! {
                "name" => s.key.measurement.as_str(),
                "tags" => Value::Array(tags),
                "columns" => vec!["time", "value"],
                "values" => Value::Array(values),
            }
        })
        .collect();
    jobj! { "results" => Value::Array(series) }
}

fn attach_cost(resp: &mut Response, cost: &QueryCost) {
    resp.headers.set("X-Cost-Points", cost.points.to_string());
    resp.headers.set("X-Cost-Bytes", cost.bytes.to_string());
    resp.headers.set("X-Cost-Blocks", cost.blocks.to_string());
    resp.headers.set("X-Cost-Bytes-Cold", cost.bytes_cold.to_string());
    resp.headers.set("X-Cost-Blocks-Cold", cost.blocks_cold.to_string());
    resp.headers.set("X-Cost-Summarized", cost.blocks_summarized.to_string());
    resp.headers.set("X-Cost-Series", cost.series.to_string());
    resp.headers.set("X-Cost-Index", cost.index_entries.to_string());
    resp.headers.set("X-Cost-Shards", cost.shards_scanned.to_string());
}

fn extract_cost(resp: &Response) -> QueryCost {
    let get = |name: &str| resp.headers.get(name).and_then(|v| v.parse().ok()).unwrap_or(0);
    QueryCost {
        points: get("X-Cost-Points"),
        bytes: get("X-Cost-Bytes"),
        blocks: get("X-Cost-Blocks"),
        bytes_cold: get("X-Cost-Bytes-Cold"),
        blocks_cold: get("X-Cost-Blocks-Cold"),
        blocks_summarized: get("X-Cost-Summarized"),
        series: get("X-Cost-Series"),
        index_entries: get("X-Cost-Index"),
        shards_scanned: get("X-Cost-Shards"),
        queries: 1,
    }
}

/// A client for a database served on another host, mirroring the local
/// [`Db`] surface the collector and builder use.
pub struct RemoteDb {
    client: PersistentClient,
}

impl RemoteDb {
    /// Connect to a database service.
    pub fn connect(addr: SocketAddr) -> RemoteDb {
        RemoteDb { client: PersistentClient::new(addr, Client::new()) }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<()> {
        let resp = self.client.send(&Request::get("/ping"))?;
        if resp.status == Status::NO_CONTENT {
            Ok(())
        } else {
            Err(Error::Http { status: resp.status.0, message: "ping failed".into() })
        }
    }

    /// Write a batch of points (line protocol over the wire).
    pub fn write_batch(&mut self, points: &[crate::DataPoint]) -> Result<()> {
        let body = lineproto::encode_batch(points).into_bytes();
        let mut req = Request::get("/write");
        req.method = Method::Post;
        req.body = body;
        let resp = self.client.send(&req)?;
        if resp.status == Status::NO_CONTENT {
            Ok(())
        } else {
            Err(Error::Http {
                status: resp.status.0,
                message: String::from_utf8_lossy(&resp.body).into_owned(),
            })
        }
    }

    /// Run a query remotely; returns per-series `(tags, points)` rows plus
    /// the server-reported physical cost.
    pub fn query_str(&mut self, q: &str) -> Result<(Value, QueryCost)> {
        let req = Request::get(&format!("/query?q={}", encode_query(q)));
        let resp = self.client.send(&req)?;
        if !resp.status.is_success() {
            return Err(Error::Http {
                status: resp.status.0,
                message: String::from_utf8_lossy(&resp.body).into_owned(),
            });
        }
        let cost = extract_cost(&resp);
        Ok((resp.json_body()?, cost))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DataPoint, DbConfig};
    use monster_http::Server;
    use monster_util::EpochSecs;

    fn served() -> (Server, Arc<Db>) {
        let db = Arc::new(Db::new(DbConfig::default()));
        let server = Server::spawn(0, router(Arc::clone(&db))).unwrap();
        (server, db)
    }

    fn points(n: i64) -> Vec<DataPoint> {
        (0..n)
            .map(|i| {
                DataPoint::new("Power", EpochSecs::new(i * 60))
                    .tag("NodeId", "10.101.1.1")
                    .tag("Label", "NodePower")
                    .field_f64("Reading", 250.0 + i as f64)
            })
            .collect()
    }

    #[test]
    fn ping_write_query_round_trip() {
        let (server, db) = served();
        let mut remote = RemoteDb::connect(server.addr());
        remote.ping().unwrap();
        remote.write_batch(&points(120)).unwrap();
        assert_eq!(db.stats().points, 120);

        let (doc, cost) = remote
            .query_str(
                "SELECT max(Reading) FROM Power WHERE NodeId='10.101.1.1' AND \
                 time >= 0 AND time < 7200 GROUP BY time(10m)",
            )
            .unwrap();
        let series = doc.get("results").unwrap().as_array().unwrap();
        assert_eq!(series.len(), 1);
        let values = series[0].get("values").unwrap().as_array().unwrap();
        assert_eq!(values.len(), 12);
        // First window max: samples 0..9 → 259.
        assert_eq!(values[0].at(1).unwrap().as_f64(), Some(259.0));
        assert!(cost.points >= 120);
        assert!(cost.bytes > 0);
    }

    #[test]
    fn show_queries_over_http() {
        let (server, _db) = served();
        let mut remote = RemoteDb::connect(server.addr());
        remote.write_batch(&points(3)).unwrap();
        let (doc, _) = remote.query_str("SHOW MEASUREMENTS").unwrap();
        let rows = doc.get("results").unwrap().as_array().unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].as_str(), Some("Power"));
    }

    #[test]
    fn drop_measurement_over_http() {
        let (server, db) = served();
        let mut remote = RemoteDb::connect(server.addr());
        remote.write_batch(&points(5)).unwrap();
        let client = Client::new();
        let mut req = Request::get("/query?q=DROP+MEASUREMENT+Power");
        req.method = Method::Post;
        let resp = client.send_ok(server.addr(), &req).unwrap();
        assert_eq!(resp.json_body().unwrap().get("dropped_series").unwrap().as_i64(), Some(1));
        assert_eq!(db.stats().points, 0);
    }

    #[test]
    fn bad_inputs_are_400() {
        let (server, _db) = served();
        let client = Client::new();
        // Bad line protocol.
        let mut req = Request::get("/write");
        req.method = Method::Post;
        req.body = b"not line protocol".to_vec();
        assert_eq!(client.send(server.addr(), &req).unwrap().status, Status::BAD_REQUEST);
        // Bad query.
        let resp = client.send(server.addr(), &Request::get("/query?q=SELEKT+nope")).unwrap();
        assert_eq!(resp.status, Status::BAD_REQUEST);
        // Missing q.
        let resp = client.send(server.addr(), &Request::get("/query")).unwrap();
        assert_eq!(resp.status, Status::BAD_REQUEST);
    }

    #[test]
    fn type_conflicts_surface_as_400() {
        let (server, _db) = served();
        let mut remote = RemoteDb::connect(server.addr());
        remote.write_batch(&points(1)).unwrap();
        let conflict = vec![DataPoint::new("Power", EpochSecs::new(999))
            .tag("NodeId", "10.101.1.1")
            .tag("Label", "NodePower")
            .field_str("Reading", "oops")];
        let err = remote.write_batch(&conflict).unwrap_err();
        assert!(matches!(err, Error::Http { status: 400, .. }), "{err}");
    }
}
