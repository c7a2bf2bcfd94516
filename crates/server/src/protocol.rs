//! The line-delimited JSON wire protocol.
//!
//! Every request is one JSON object on one line; every response is one
//! JSON object on one line. Requests may carry an `id`, which the
//! server echoes verbatim on the matching response so clients can
//! pipeline. Errors are typed: `{"error":"<code>","message":"..."}`
//! with a small closed set of codes (below) a client can branch on.
//!
//! **Replies are matched by `id`, not by order.** Requests on one
//! connection execute concurrently (on the worker pool, in a coalesced
//! batch, or inline), so their replies may arrive in any order. A line
//! delivered twice (a duplicating network path, a client resending) is
//! two requests with the same `id`, and their replies are
//! indistinguishable by `id`: either may arrive first. For a commit
//! stamped with a `txn`, exactly one of the two applies and the other
//! answers `"deduped":true`; both carry the same `seq`.
//!
//! ```text
//! {"op":"query","s":3,"t":77,"id":1}
//!   -> {"id":1,"dist":2}
//! {"op":"commit","edits":[["insert",3,99],["remove",4,5]],"txn":[81,4],"id":2}
//!   -> {"id":2,"committed":true,"applied":2,"seq":7}
//! {"op":"tail","from_seq":0}
//!   -> {"kind":"batch","seq":0,"edits":[...]}   (stream; see [`TailMsg`])
//! ```
//!
//! Any request may carry `"deadline_ms":N` — the client's remaining
//! latency budget. The server checks it when the request is dequeued
//! and again before executing, answering `deadline_exceeded` instead
//! of burning a worker on an answer the client has stopped waiting
//! for. Commits may carry `"txn":[session,counter]`, a client
//! idempotency key: a retried commit with the same key returns the
//! original result (`"deduped":true`) instead of double-applying.
//!
//! Error codes: `bad_request` (malformed line), `shed` (admission
//! control refused — retry later), `deadline_exceeded` (the request's
//! `deadline_ms` budget ran out before execution), `read_only` (writes
//! sent to a replica), `unhealthy` (oracle health gate refused the
//! write), `commit_failed` (batch rejected by validation or the commit
//! path), `not_primary` (tail requested from a node without a WAL),
//! and `internal`.

use crate::json::{parse, Json};
use batchhl::{Edit, TxnId, Vertex, WalRecord};

/// Hard cap on one request line (bytes) — hostile clients cannot make
/// the server buffer unbounded input.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// A decoded request plus its optional client-chosen correlation id
/// and latency budget.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    pub id: Option<u64>,
    /// Milliseconds (from arrival) the client will keep waiting for
    /// the answer; past it the server sheds the request with a typed
    /// `deadline_exceeded` instead of executing it.
    pub deadline_ms: Option<u64>,
    pub request: Request,
}

/// Every operation the serving tier understands.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Point distance query — the coalescible fast path.
    Query { s: Vertex, t: Vertex },
    /// Batched point queries, answered positionally.
    QueryMany { pairs: Vec<(Vertex, Vertex)> },
    /// One-source fan-out to an explicit target list.
    DistancesFrom { s: Vertex, targets: Vec<Vertex> },
    /// The `k` nearest vertices to `s`.
    TopKClosest { s: Vertex, k: usize },
    /// Apply an edit batch through an [`batchhl::UpdateSession`],
    /// optionally stamped with a client idempotency key.
    Commit {
        edits: Vec<Edit>,
        txn: Option<TxnId>,
    },
    /// Answer `pairs` as if `edits` had been committed, without
    /// committing them — a speculative what-if overlay on the current
    /// generation. Read-only: works on replicas, never touches the WAL.
    WhatIf {
        edits: Vec<Edit>,
        pairs: Vec<(Vertex, Vertex)>,
    },
    /// Re-open from the checkpoint + WAL (crash-recovery drill).
    Recover,
    /// Run the oracle's integrity verification.
    Verify,
    /// Liveness + health summary.
    Health,
    /// Server counters (queue depth, WAL position, ...).
    Stats,
    /// Switch this connection into WAL-shipping mode, streaming
    /// committed batches with `seq >= from_seq`.
    Tail { from_seq: u64 },
}

/// Parse one request line. The error string is a human-readable reason
/// suitable for a `bad_request` response.
pub fn parse_request(line: &str) -> Result<Envelope, String> {
    let v = parse(line).map_err(|e| e.to_string())?;
    let id = v.get("id").and_then(Json::as_u64);
    let deadline_ms = v.get("deadline_ms").and_then(Json::as_u64);
    let op = v
        .get("op")
        .and_then(Json::as_str)
        .ok_or("missing string field \"op\"")?;
    let field = |name: &str| -> Result<u64, String> {
        v.get(name)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("missing integer field {name:?}"))
    };
    let vertex = |name: &str| -> Result<Vertex, String> {
        let x = field(name)?;
        Vertex::try_from(x).map_err(|_| format!("field {name:?} out of vertex range"))
    };
    let request = match op {
        "query" => Request::Query {
            s: vertex("s")?,
            t: vertex("t")?,
        },
        "query_many" => {
            let pairs = v
                .get("pairs")
                .and_then(Json::as_arr)
                .ok_or("missing array field \"pairs\"")?
                .iter()
                .map(|pair| {
                    let pair = pair.as_arr().filter(|p| p.len() == 2);
                    match pair {
                        Some([s, t]) => match (vertex_of(s), vertex_of(t)) {
                            (Some(s), Some(t)) => Ok((s, t)),
                            _ => Err("pair members must be vertex ids".to_string()),
                        },
                        _ => Err("each pair must be [s, t]".to_string()),
                    }
                })
                .collect::<Result<Vec<_>, _>>()?;
            Request::QueryMany { pairs }
        }
        "distances_from" => {
            let targets = v
                .get("targets")
                .and_then(Json::as_arr)
                .ok_or("missing array field \"targets\"")?
                .iter()
                .map(|t| vertex_of(t).ok_or("targets must be vertex ids".to_string()))
                .collect::<Result<Vec<_>, _>>()?;
            Request::DistancesFrom {
                s: vertex("s")?,
                targets,
            }
        }
        "top_k_closest" => Request::TopKClosest {
            s: vertex("s")?,
            k: field("k")? as usize,
        },
        "commit" => {
            let edits = v
                .get("edits")
                .and_then(Json::as_arr)
                .ok_or("missing array field \"edits\"")?
                .iter()
                .map(decode_edit)
                .collect::<Result<Vec<_>, _>>()?;
            let txn = match v.get("txn") {
                None | Some(Json::Null) => None,
                Some(t) => {
                    let parts = t.as_arr().filter(|p| p.len() == 2);
                    match parts {
                        Some([s, c]) => match (s.as_u64(), c.as_u64()) {
                            (Some(session), Some(counter)) => Some(TxnId { session, counter }),
                            _ => return Err("txn members must be integers".to_string()),
                        },
                        _ => return Err("txn must be [session, counter]".to_string()),
                    }
                }
            };
            Request::Commit { edits, txn }
        }
        "what_if" => {
            let edits = v
                .get("edits")
                .and_then(Json::as_arr)
                .ok_or("missing array field \"edits\"")?
                .iter()
                .map(decode_edit)
                .collect::<Result<Vec<_>, _>>()?;
            let pairs = v
                .get("pairs")
                .and_then(Json::as_arr)
                .ok_or("missing array field \"pairs\"")?
                .iter()
                .map(|pair| {
                    let pair = pair.as_arr().filter(|p| p.len() == 2);
                    match pair {
                        Some([s, t]) => match (vertex_of(s), vertex_of(t)) {
                            (Some(s), Some(t)) => Ok((s, t)),
                            _ => Err("pair members must be vertex ids".to_string()),
                        },
                        _ => Err("each pair must be [s, t]".to_string()),
                    }
                })
                .collect::<Result<Vec<_>, _>>()?;
            Request::WhatIf { edits, pairs }
        }
        "recover" => Request::Recover,
        "verify" => Request::Verify,
        "health" => Request::Health,
        "stats" => Request::Stats,
        "tail" => Request::Tail {
            from_seq: field("from_seq")?,
        },
        other => return Err(format!("unknown op {other:?}")),
    };
    Ok(Envelope {
        id,
        deadline_ms,
        request,
    })
}

fn vertex_of(v: &Json) -> Option<Vertex> {
    v.as_u64().and_then(|x| Vertex::try_from(x).ok())
}

/// Decode one wire edit: `["insert",a,b]`, `["insertw",a,b,w]`,
/// `["remove",a,b]` or `["setw",a,b,w]`.
pub fn decode_edit(v: &Json) -> Result<Edit, String> {
    let items = v.as_arr().ok_or("each edit must be an array")?;
    let tag = items
        .first()
        .and_then(Json::as_str)
        .ok_or("edit tag must be a string")?;
    let arg = |i: usize| -> Result<Vertex, String> {
        items
            .get(i)
            .and_then(vertex_of)
            .ok_or_else(|| format!("edit {tag:?} needs a vertex id at position {i}"))
    };
    match (tag, items.len()) {
        ("insert", 3) => Ok(Edit::Insert(arg(1)?, arg(2)?)),
        ("insertw", 4) => Ok(Edit::InsertWeighted(arg(1)?, arg(2)?, arg(3)?)),
        ("remove", 3) => Ok(Edit::Remove(arg(1)?, arg(2)?)),
        ("setw", 4) => Ok(Edit::SetWeight(arg(1)?, arg(2)?, arg(3)?)),
        _ => Err(format!("unknown or malformed edit {tag:?}")),
    }
}

/// Encode one edit in the wire shape accepted by [`decode_edit`].
pub fn encode_edit(edit: &Edit) -> Json {
    match *edit {
        Edit::Insert(a, b) => Json::Arr(vec![
            Json::str("insert"),
            Json::u64(a as u64),
            Json::u64(b as u64),
        ]),
        Edit::InsertWeighted(a, b, w) => Json::Arr(vec![
            Json::str("insertw"),
            Json::u64(a as u64),
            Json::u64(b as u64),
            Json::u64(w as u64),
        ]),
        Edit::Remove(a, b) => Json::Arr(vec![
            Json::str("remove"),
            Json::u64(a as u64),
            Json::u64(b as u64),
        ]),
        Edit::SetWeight(a, b, w) => Json::Arr(vec![
            Json::str("setw"),
            Json::u64(a as u64),
            Json::u64(b as u64),
            Json::u64(w as u64),
        ]),
    }
}

/// A distance as wire JSON: unreachable (`None`) is `null`.
pub fn dist_json(d: Option<batchhl::Dist>) -> Json {
    match d {
        Some(d) => Json::u64(d as u64),
        None => Json::Null,
    }
}

fn with_id(id: Option<u64>, mut fields: Vec<(String, Json)>) -> String {
    if let Some(id) = id {
        fields.insert(0, ("id".to_string(), Json::u64(id)));
    }
    Json::Obj(fields).render()
}

/// `{"id":..,"dist":..}` for a point query.
pub fn resp_dist(id: Option<u64>, d: Option<batchhl::Dist>) -> String {
    with_id(id, vec![("dist".to_string(), dist_json(d))])
}

/// `{"id":..,"dists":[..]}` — positional answers for `query_many` /
/// `distances_from`.
pub fn resp_dists(id: Option<u64>, ds: &[Option<batchhl::Dist>]) -> String {
    let arr = Json::Arr(ds.iter().map(|d| dist_json(*d)).collect());
    with_id(id, vec![("dists".to_string(), arr)])
}

/// `{"id":..,"closest":[[v,d],..]}` for `top_k_closest`.
pub fn resp_top_k(id: Option<u64>, closest: &[(Vertex, batchhl::Dist)]) -> String {
    let arr = Json::Arr(
        closest
            .iter()
            .map(|&(v, d)| Json::Arr(vec![Json::u64(v as u64), Json::u64(d as u64)]))
            .collect(),
    );
    with_id(id, vec![("closest".to_string(), arr)])
}

/// `{"id":..,"version":V,"dists":[..]}` for a `what_if` — positional
/// answers under the hypothetical edits, plus the version of the
/// pinned generation they were computed over (which the request,
/// being speculative, did not change).
pub fn resp_what_if(id: Option<u64>, version: u64, ds: &[Option<batchhl::Dist>]) -> String {
    let arr = Json::Arr(ds.iter().map(|d| dist_json(*d)).collect());
    with_id(
        id,
        vec![
            ("version".to_string(), Json::u64(version)),
            ("dists".to_string(), arr),
        ],
    )
}

/// `{"id":..,"committed":true,"applied":N,"seq":S}` after a commit;
/// `"deduped":true` is appended when the commit's txn id matched an
/// already-applied batch and the original result was returned.
pub fn resp_committed(id: Option<u64>, applied: usize, seq: u64, deduped: bool) -> String {
    let mut fields = vec![
        ("committed".to_string(), Json::Bool(true)),
        ("applied".to_string(), Json::u64(applied as u64)),
        ("seq".to_string(), Json::u64(seq)),
    ];
    if deduped {
        fields.push(("deduped".to_string(), Json::Bool(true)));
    }
    with_id(id, fields)
}

/// `{"id":..,"ok":true}` plus extra fields, for recover/verify/health.
pub fn resp_ok(id: Option<u64>, extra: Vec<(String, Json)>) -> String {
    let mut fields = vec![("ok".to_string(), Json::Bool(true))];
    fields.extend(extra);
    with_id(id, fields)
}

/// `{"id":..,"error":code,"message":..}`.
pub fn resp_error(id: Option<u64>, code: &str, message: &str) -> String {
    with_id(
        id,
        vec![
            ("error".to_string(), Json::str(code)),
            ("message".to_string(), Json::str(message)),
        ],
    )
}

/// One line of a `tail` stream.
#[derive(Debug, Clone, PartialEq)]
pub enum TailMsg {
    /// A committed, non-aborted batch.
    Batch { seq: u64, edits: Vec<Edit> },
    /// Caught up; `next` is the sequence the next batch will carry.
    Heartbeat { next: u64 },
    /// The requested position predates the primary's retained WAL
    /// (rotation/checkpoint pruned it): the replica must re-sync from a
    /// fresh checkpoint. The primary closes the stream after this.
    Resync { floor: u64, next: u64 },
}

impl TailMsg {
    /// Serialize to one stream line.
    pub fn render(&self) -> String {
        match self {
            TailMsg::Batch { seq, edits } => Json::Obj(vec![
                ("kind".to_string(), Json::str("batch")),
                ("seq".to_string(), Json::u64(*seq)),
                (
                    "edits".to_string(),
                    Json::Arr(edits.iter().map(encode_edit).collect()),
                ),
            ])
            .render(),
            TailMsg::Heartbeat { next } => Json::Obj(vec![
                ("kind".to_string(), Json::str("hb")),
                ("next".to_string(), Json::u64(*next)),
            ])
            .render(),
            TailMsg::Resync { floor, next } => Json::Obj(vec![
                ("kind".to_string(), Json::str("resync")),
                ("floor".to_string(), Json::u64(*floor)),
                ("next".to_string(), Json::u64(*next)),
            ])
            .render(),
        }
    }

    /// Parse one stream line (the replica side).
    pub fn parse(line: &str) -> Result<TailMsg, String> {
        let v = parse(line).map_err(|e| e.to_string())?;
        let kind = v
            .get("kind")
            .and_then(Json::as_str)
            .ok_or("missing stream field \"kind\"")?;
        let field = |name: &str| -> Result<u64, String> {
            v.get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing integer field {name:?}"))
        };
        match kind {
            "batch" => {
                let edits = v
                    .get("edits")
                    .and_then(Json::as_arr)
                    .ok_or("missing array field \"edits\"")?
                    .iter()
                    .map(decode_edit)
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(TailMsg::Batch {
                    seq: field("seq")?,
                    edits,
                })
            }
            "hb" => Ok(TailMsg::Heartbeat {
                next: field("next")?,
            }),
            "resync" => Ok(TailMsg::Resync {
                floor: field("floor")?,
                next: field("next")?,
            }),
            other => Err(format!("unknown stream kind {other:?}")),
        }
    }

    /// Build the batch message for a recovered WAL record.
    pub fn from_record(record: &WalRecord) -> TailMsg {
        TailMsg::Batch {
            seq: record.seq,
            edits: record.edits.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_roundtrip() {
        let env = parse_request(r#"{"op":"query","s":3,"t":77,"id":9}"#).unwrap();
        assert_eq!(env.id, Some(9));
        assert_eq!(env.request, Request::Query { s: 3, t: 77 });

        let env = parse_request(r#"{"op":"query_many","pairs":[[1,2],[3,4]]}"#).unwrap();
        assert_eq!(
            env.request,
            Request::QueryMany {
                pairs: vec![(1, 2), (3, 4)]
            }
        );

        let env = parse_request(
            r#"{"op":"commit","edits":[["insert",1,2],["insertw",3,4,9],["remove",5,6],["setw",7,8,2]]}"#,
        )
        .unwrap();
        assert_eq!(
            env.request,
            Request::Commit {
                edits: vec![
                    Edit::Insert(1, 2),
                    Edit::InsertWeighted(3, 4, 9),
                    Edit::Remove(5, 6),
                    Edit::SetWeight(7, 8, 2),
                ],
                txn: None,
            }
        );
        assert_eq!(env.deadline_ms, None);

        let env = parse_request(
            r#"{"op":"commit","edits":[["insert",1,2]],"txn":[81,4],"deadline_ms":250}"#,
        )
        .unwrap();
        assert_eq!(env.deadline_ms, Some(250));
        assert_eq!(
            env.request,
            Request::Commit {
                edits: vec![Edit::Insert(1, 2)],
                txn: Some(TxnId {
                    session: 81,
                    counter: 4
                }),
            }
        );

        let env = parse_request(r#"{"op":"tail","from_seq":12}"#).unwrap();
        assert_eq!(env.request, Request::Tail { from_seq: 12 });

        let env = parse_request(
            r#"{"op":"what_if","edits":[["remove",1,2]],"pairs":[[0,3],[1,2]],"id":7}"#,
        )
        .unwrap();
        assert_eq!(env.id, Some(7));
        assert_eq!(
            env.request,
            Request::WhatIf {
                edits: vec![Edit::Remove(1, 2)],
                pairs: vec![(0, 3), (1, 2)],
            }
        );
    }

    #[test]
    fn malformed_requests_are_typed() {
        for bad in [
            "not json",
            r#"{"s":1,"t":2}"#,
            r#"{"op":"query","s":1}"#,
            r#"{"op":"warp"}"#,
            r#"{"op":"query","s":-1,"t":2}"#,
            r#"{"op":"commit","edits":[["teleport",1,2]]}"#,
            r#"{"op":"commit","edits":[["insert",1]]}"#,
            r#"{"op":"query_many","pairs":[[1]]}"#,
            r#"{"op":"what_if","edits":[["remove",1,2]]}"#,
            r#"{"op":"what_if","pairs":[[1,2]]}"#,
            r#"{"op":"commit","edits":[],"txn":[1]}"#,
            r#"{"op":"commit","edits":[],"txn":["a",2]}"#,
        ] {
            assert!(parse_request(bad).is_err(), "{bad:?} must fail");
        }
    }

    #[test]
    fn responses_render_stably() {
        assert_eq!(resp_dist(Some(4), Some(7)), r#"{"id":4,"dist":7}"#);
        assert_eq!(resp_dist(None, None), r#"{"dist":null}"#);
        assert_eq!(resp_dists(None, &[Some(1), None]), r#"{"dists":[1,null]}"#);
        assert_eq!(
            resp_error(Some(1), "shed", "queue full"),
            r#"{"id":1,"error":"shed","message":"queue full"}"#
        );
        assert_eq!(
            resp_committed(Some(2), 3, 7, false),
            r#"{"id":2,"committed":true,"applied":3,"seq":7}"#
        );
        assert_eq!(
            resp_committed(Some(2), 3, 7, true),
            r#"{"id":2,"committed":true,"applied":3,"seq":7,"deduped":true}"#
        );
    }

    #[test]
    fn tail_messages_roundtrip() {
        for msg in [
            TailMsg::Batch {
                seq: 5,
                edits: vec![Edit::Insert(1, 2), Edit::SetWeight(3, 4, 9)],
            },
            TailMsg::Heartbeat { next: 6 },
            TailMsg::Resync { floor: 4, next: 9 },
        ] {
            assert_eq!(TailMsg::parse(&msg.render()).unwrap(), msg);
        }
        assert!(TailMsg::parse(r#"{"kind":"??"}"#).is_err());
    }
}
