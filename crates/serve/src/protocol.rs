//! The daemon's JSON line replies: builders (server side) and the parsed
//! form (client side). One JSON object per reply, `ok` first.

use crate::analyze::TraceOutcome;
use crate::server::Fleet;
use home_trace::json::{self, Json};

/// `{"ok":false,"error":...}`.
pub(crate) fn error_reply(message: &str) -> String {
    Json::object([("ok", false.into()), ("error", message.into())]).to_string()
}

/// The verdict reply for one submitted trace.
pub(crate) fn submit_reply(outcome: &TraceOutcome) -> String {
    let violations = outcome
        .violations
        .iter()
        .map(|v| Json::Str(v.to_string()))
        .collect();
    Json::object([
        ("ok", true.into()),
        ("runs", outcome.sections.len().into()),
        ("events", outcome.events.into()),
        ("races", outcome.races.into()),
        ("unclassified", outcome.unclassified.into()),
        ("violations", violations),
    ])
    .to_string()
}

/// The `STATUS` fleet report.
pub(crate) fn status_reply(fleet: &Fleet, active: usize) -> String {
    let violations = fleet
        .violations()
        .iter()
        .map(|agg| {
            Json::object([
                ("runs", agg.runs.into()),
                ("predicate", agg.violation.kind.predicate().into()),
                ("violation", Json::Str(agg.violation.to_string())),
            ])
        })
        .collect();
    Json::object([
        ("ok", true.into()),
        ("active", active.into()),
        ("submissions", fleet.submissions.into()),
        ("rejected", fleet.rejected.into()),
        ("runs", fleet.runs.into()),
        ("skipped_known_runs", fleet.skipped_known_runs.into()),
        ("events", fleet.events.into()),
        ("races", fleet.races.into()),
        ("unclassified", fleet.unclassified.into()),
        ("violations", violations),
    ])
    .to_string()
}

/// A parsed reply line, as the client sees it.
#[derive(Debug, Clone, Default)]
pub struct Reply {
    /// Whether the daemon accepted the request.
    pub ok: bool,
    /// The daemon's error message, when `ok` is false.
    pub error: Option<String>,
    /// Violation lines (`submit` replies; empty otherwise).
    pub violations: Vec<String>,
    /// Runs covered by the reply (`submit`) or ingested so far (`STATUS`).
    pub runs: u64,
    /// The raw JSON line, for `--json` passthrough.
    pub raw: String,
}

fn field<'a>(fields: &'a [(String, Json)], name: &str) -> Option<&'a Json> {
    fields.iter().find(|(k, _)| k == name).map(|(_, v)| v)
}

/// Parse one reply line. A malformed line is an error string (a daemon
/// that answers garbage is indistinguishable from no daemon).
pub fn parse_reply(line: &str) -> Result<Reply, String> {
    let value =
        json::parse(line.trim()).map_err(|e| format!("malformed reply from daemon: {e}"))?;
    let fields = match &value {
        Json::Object(fields) => fields.as_slice(),
        _ => &[],
    };
    let Some(&Json::Bool(ok)) = field(fields, "ok") else {
        return Err("malformed reply from daemon: missing `ok`".to_string());
    };
    let error = match field(fields, "error") {
        Some(Json::Str(s)) => Some(s.clone()),
        _ => None,
    };
    let violations = match field(fields, "violations") {
        Some(Json::Array(items)) => items
            .iter()
            .filter_map(|item| match item {
                Json::Str(s) => Some(s.clone()),
                _ => None,
            })
            .collect(),
        _ => Vec::new(),
    };
    let runs = match field(fields, "runs") {
        Some(&Json::Unsigned(n)) => n,
        _ => 0,
    };
    Ok(Reply {
        ok,
        error,
        violations,
        runs,
        raw: line.trim().to_string(),
    })
}
