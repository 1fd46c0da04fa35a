//! The asynchronous job lifecycle of the unified REST API.

use std::error::Error;
use std::fmt;
use std::str::FromStr;

use mathcloud_json::value::Object;
use mathcloud_json::Value;

/// A job identifier, unique within one service.
///
/// # Examples
///
/// ```
/// use mathcloud_core::JobId;
///
/// let id = JobId::new("j-0042");
/// assert_eq!(id.as_str(), "j-0042");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(String);

impl JobId {
    /// Wraps an identifier string.
    pub fn new(id: &str) -> Self {
        JobId(id.to_string())
    }

    /// The identifier text.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<String> for JobId {
    fn from(s: String) -> Self {
        JobId(s)
    }
}

/// The state of a job, as defined in §2 of the paper.
///
/// Synchronous completion is modeled by returning a job already in
/// [`JobState::Done`] from the submit call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobState {
    /// Queued, not yet started.
    Waiting,
    /// Being processed by an adapter.
    Running,
    /// Finished successfully; outputs are available.
    Done,
    /// Finished unsuccessfully; an error message is available.
    Failed,
    /// Cancelled by a client `DELETE`.
    Cancelled,
}

impl JobState {
    /// Returns `true` for states that will never change again.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed | JobState::Cancelled
        )
    }

    /// The wire token (upper-case, as in the paper's text).
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Waiting => "WAITING",
            JobState::Running => "RUNNING",
            JobState::Done => "DONE",
            JobState::Failed => "FAILED",
            JobState::Cancelled => "CANCELLED",
        }
    }
}

impl fmt::Display for JobState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Error parsing a [`JobState`] token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseJobStateError(String);

impl fmt::Display for ParseJobStateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown job state: {:?}", self.0)
    }
}

impl Error for ParseJobStateError {}

impl FromStr for JobState {
    type Err = ParseJobStateError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Ok(match s {
            "WAITING" => JobState::Waiting,
            "RUNNING" => JobState::Running,
            "DONE" => JobState::Done,
            "FAILED" => JobState::Failed,
            "CANCELLED" => JobState::Cancelled,
            other => return Err(ParseJobStateError(other.to_string())),
        })
    }
}

/// The job resource representation exchanged over the REST API.
///
/// Returned by `POST` on the service resource (submit) and `GET` on the job
/// resource (poll). When `state` is [`JobState::Done`] the `outputs` object
/// carries the results; when [`JobState::Failed`], `error` explains why.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRepresentation {
    /// The job identifier.
    pub id: JobId,
    /// The job resource URI (relative to the container root).
    pub uri: String,
    /// Current state.
    pub state: JobState,
    /// Output parameter values (present only when `Done`).
    pub outputs: Option<Object>,
    /// Failure reason (present only when `Failed`).
    pub error: Option<String>,
    /// Milliseconds the job spent executing, when known. The Table 2 harness
    /// reads this to separate compute time from platform overhead.
    pub runtime_ms: Option<u64>,
}

impl JobRepresentation {
    /// Creates a representation in the given state with no results.
    pub fn new(id: JobId, uri: &str, state: JobState) -> Self {
        JobRepresentation {
            id,
            uri: uri.to_string(),
            state,
            outputs: None,
            error: None,
            runtime_ms: None,
        }
    }

    /// Serializes to the wire document.
    pub fn to_value(&self) -> Value {
        self.clone().into_value()
    }

    /// Serializes to the wire document, moving the outputs into it instead
    /// of copying them.
    pub fn into_value(self) -> Value {
        let mut o = Object::with_capacity(6);
        o.insert("id".into(), Value::String(self.id.0));
        o.insert("uri".into(), Value::String(self.uri));
        o.insert("state".into(), Value::from(self.state.as_str()));
        if let Some(outputs) = self.outputs {
            o.insert("outputs".into(), Value::Object(outputs));
        }
        if let Some(error) = self.error {
            o.insert("error".into(), Value::String(error));
        }
        if let Some(ms) = self.runtime_ms {
            o.insert("runtime_ms".into(), Value::from(ms as i64));
        }
        Value::Object(o)
    }

    /// Parses the wire document.
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing/invalid field.
    pub fn from_value(v: &Value) -> Result<Self, String> {
        let id = v.str_field("id").ok_or("job representation missing id")?;
        let uri = v.str_field("uri").ok_or("job representation missing uri")?;
        let state: JobState = v
            .str_field("state")
            .ok_or("job representation missing state")?
            .parse()
            .map_err(|e: ParseJobStateError| e.to_string())?;
        let outputs = match v.get("outputs") {
            None => None,
            Some(Value::Object(o)) => Some(o.clone()),
            Some(other) => {
                return Err(format!(
                    "outputs must be an object, got {}",
                    other.type_name()
                ))
            }
        };
        Ok(JobRepresentation {
            id: JobId::new(id),
            uri: uri.to_string(),
            state,
            outputs,
            error: v.str_field("error").map(String::from),
            runtime_ms: v
                .int_field("runtime_ms")
                .and_then(|n| u64::try_from(n).ok()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mathcloud_json::json;

    #[test]
    fn state_tokens_round_trip() {
        for s in [
            JobState::Waiting,
            JobState::Running,
            JobState::Done,
            JobState::Failed,
            JobState::Cancelled,
        ] {
            assert_eq!(s.as_str().parse::<JobState>().unwrap(), s);
        }
        assert!("done".parse::<JobState>().is_err(), "tokens are upper-case");
    }

    #[test]
    fn terminal_states() {
        assert!(!JobState::Waiting.is_terminal());
        assert!(!JobState::Running.is_terminal());
        assert!(JobState::Done.is_terminal());
        assert!(JobState::Failed.is_terminal());
        assert!(JobState::Cancelled.is_terminal());
    }

    #[test]
    fn representation_round_trips() {
        let mut rep =
            JobRepresentation::new(JobId::new("j-1"), "/services/sum/jobs/j-1", JobState::Done);
        let mut outputs = Object::new();
        outputs.insert("total".into(), json!(5));
        rep.outputs = Some(outputs);
        rep.runtime_ms = Some(12);
        let back = JobRepresentation::from_value(&rep.to_value()).unwrap();
        assert_eq!(back, rep);
    }

    #[test]
    fn failed_representation_carries_error() {
        let mut rep = JobRepresentation::new(JobId::new("j-2"), "/s/x/jobs/j-2", JobState::Failed);
        rep.error = Some("command exited with status 3".into());
        let v = rep.to_value();
        assert_eq!(v["error"].as_str(), Some("command exited with status 3"));
        assert!(v.get("outputs").is_none());
        assert_eq!(JobRepresentation::from_value(&v).unwrap(), rep);
    }

    #[test]
    fn from_value_rejects_malformed() {
        assert!(JobRepresentation::from_value(&json!({})).is_err());
        assert!(
            JobRepresentation::from_value(&json!({"id": "a", "uri": "/u", "state": "NOPE"}))
                .is_err()
        );
        assert!(JobRepresentation::from_value(
            &json!({"id": "a", "uri": "/u", "state": "DONE", "outputs": [1]})
        )
        .is_err());
    }
}
