//! Submission: from a request body to the job that answers it — a new one,
//! or, through the two [`crate::singleflight::SingleFlight`]s, an existing
//! one (`Idempotency-Key` deduplication, result memoization).

use std::sync::atomic::Ordering;
use std::time::Duration;

use mathcloud_core::{uri, JobId, JobRepresentation, JobState};
use mathcloud_json::value::Object;
use mathcloud_json::Value;

use crate::container::{Caller, Everest, ServiceEntry, SubmitRejection};
use crate::jobstore::{TransitionDetail, TransitionState};
use crate::memo;
use crate::singleflight::Claim;

const WAITING: TransitionState = TransitionState::Job(JobState::Waiting);

/// The full outcome of one submission, as the REST layer needs it.
#[derive(Debug, Clone)]
pub struct SubmitOutcome {
    /// The job answering the submission.
    pub rep: JobRepresentation,
    /// The submission repeated an `Idempotency-Key` and was answered with
    /// the original job (`X-MC-Deduplicated`).
    pub deduplicated: bool,
    /// The submission was answered from the result memo cache — either a
    /// completed job with the same canonical inputs, or an in-flight one it
    /// coalesced onto (`X-MC-Memo-Hit`).
    pub memo_hit: bool,
}

impl Everest {
    /// Submits a request: authorization, validation (moving each accepted
    /// input out of `body` into the job), then the job that answers it.
    ///
    /// `request_id` (`X-MC-Request-Id`) is recorded on the job and its
    /// events, correlating them with the request that created it. A
    /// submission keyed by `idem_key` (`Idempotency-Key`) is created at most
    /// once per `(service, key)`: retries — including replays of the same
    /// POST after a network failure or a container restart, because the key
    /// is journaled with the job — are answered with the original job.
    ///
    /// `wait` holds the answer up to that long for the job to settle (§2's
    /// synchronous mode); `None` answers at once with the job as it stands.
    /// A job created to be waited for is queued before its `WAITING` record
    /// is durable; the answer leaves only once a sync covers it.
    ///
    /// # Errors
    ///
    /// [`SubmitRejection`] describing the failure; maps to an HTTP status
    /// via [`SubmitRejection::status`]. Authorization and input validation
    /// run before the key lookup, so a rejected request is rejected
    /// consistently whether or not its key is already mapped.
    pub fn submit_and_wait(
        &self,
        service: &str,
        body: Value,
        caller: Option<&Caller>,
        request_id: Option<&str>,
        idem_key: Option<&str>,
        wait: Option<Duration>,
    ) -> Result<SubmitOutcome, SubmitRejection> {
        let anonymous = Caller::anonymous();
        let entry = self.admit(service, caller.unwrap_or(&anonymous))?;
        let inputs = entry.description.accept_inputs(body).map_err(|e| match e {
            mathcloud_core::DescriptionError::InvalidInputs(errs) => {
                SubmitRejection::InvalidInputs(errs)
            }
            other => SubmitRejection::InvalidInputs(vec![other.to_string()]),
        })?;

        let jobs = &self.shared.jobs;
        // A live job waited for answers with its result, or on timeout with
        // its state as it stands, once its `WAITING` record is durable: a
        // live job's snapshot syncs to that record, and `barrier` (see
        // `create_job`) is the same position for a job whose record is gone.
        let answer = |rep: JobRepresentation, barrier| match wait {
            Some(wait) if !rep.state.is_terminal() => jobs
                .wait(service, rep.id.as_str(), wait)
                .unwrap_or_else(|| match jobs.snapshot(service, rep.id.as_str()) {
                    Some(now) => now.durable(jobs),
                    None => {
                        jobs.sync_to(barrier);
                        rep
                    }
                }),
            _ => rep,
        };
        // A mapped job whose record was deleted or evicted frees the key.
        let claim = idem_key.map(|key| {
            let key = (service.to_string(), key.to_string());
            self.shared
                .idem
                .claim(&key, |job| jobs.snapshot(service, job))
        });
        let reservation = match claim {
            Some(Claim::Hit(original)) => {
                let rep = original.durable(jobs);
                entry.deduplicated.inc();
                return Ok(SubmitOutcome {
                    rep: answer(rep, 0),
                    deduplicated: true,
                    memo_hit: false,
                });
            }
            Some(Claim::Won(reservation)) => Some(reservation),
            None => None,
        };
        // The memo layer may answer with an existing job instead of
        // creating one; the key then maps to that job, so retries of this
        // keyed POST keep deduplicating onto the memoized result.
        let (rep, memo_hit, barrier) =
            self.create_or_memoize(&entry, inputs, request_id, idem_key, wait.is_some());
        if let Some(reservation) = reservation {
            reservation.fill(rep.id.as_str());
        }
        Ok(SubmitOutcome {
            rep: answer(rep, barrier),
            deduplicated: false,
            memo_hit,
        })
    }

    /// [`Everest::submit_and_wait`] of a copy of `body`, answering at once:
    /// kept for `bench/jobpath`, which replays bodies it holds by reference,
    /// until the next change to that benchmark.
    ///
    /// # Errors
    ///
    /// See [`Everest::submit_and_wait`].
    pub fn submit_full(
        &self,
        service: &str,
        body: &Value,
        caller: Option<&Caller>,
        request_id: Option<&str>,
        idem_key: Option<&str>,
    ) -> Result<SubmitOutcome, SubmitRejection> {
        self.submit_and_wait(service, body.clone(), caller, request_id, idem_key, None)
    }

    /// Creates a job — unless result memoization is on and the canonical
    /// memo key of `(service, inputs)` maps to a usable job: a `DONE` one
    /// answers as it is, a live one coalesces, anything else is stale and
    /// frees the key (see [`Everest::set_result_memoization`]). Returns the
    /// representation, whether it was a memo hit, and its barrier.
    fn create_or_memoize(
        &self,
        entry: &ServiceEntry,
        inputs: Object,
        request_id: Option<&str>,
        idem_key: Option<&str>,
        answered: bool,
    ) -> (JobRepresentation, bool, u64) {
        if !self.memoization_enabled() {
            let (rep, barrier) =
                self.create_job(entry, inputs, request_id, idem_key, None, answered);
            return (rep, false, barrier);
        }
        let service = entry.description.name();
        let files = &self.shared.files;
        let key = memo::memo_key(service, &inputs, &|id: &str| files.hash_of(id));
        let jobs = &self.shared.jobs;
        let claim = self.shared.memo.claim(&key, |job| {
            jobs.snapshot(service, job)
                .filter(|s| s.state() == JobState::Done || !s.state().is_terminal())
        });
        let reservation = match claim {
            Claim::Hit(memoized) => {
                entry.cache_hits.inc();
                return (memoized.durable(jobs), true, 0);
            }
            Claim::Won(reservation) => reservation,
        };
        entry.cache_misses.inc();
        let (rep, barrier) =
            self.create_job(entry, inputs, request_id, idem_key, Some(&key), answered);
        reservation.fill(rep.id.as_str());
        (rep, false, barrier)
    }

    /// Creates and enqueues a job whose inputs already validated. Settling
    /// the `WAITING` edge before the job is queued or returned means no
    /// acknowledged job can be missing from the journal; one `answered` with
    /// its result defers the edge, and returns the position to sync to first.
    fn create_job(
        &self,
        entry: &ServiceEntry,
        inputs: Object,
        request_id: Option<&str>,
        idem_key: Option<&str>,
        memo_key: Option<&str>,
        answered: bool,
    ) -> (JobRepresentation, u64) {
        let service = entry.description.name();
        let job_id = format!("j-{}", self.shared.next_job.fetch_add(1, Ordering::Relaxed));
        let detail = TransitionDetail {
            idem_key,
            memo_key,
            request_id,
            ..Default::default()
        };
        let mut pending = self
            .shared
            .jobs
            .transition(service, &job_id, WAITING, detail, Some(inputs))
            .expect("a fresh job id has no record");
        let barrier = if answered { pending.defer() } else { 0 };
        pending.settle(&self.shared);
        entry.submitted.inc();
        // Built here, not read back: once queued the job can run, finish and
        // even be evicted under a tight retention cap before we look again.
        let rep = JobRepresentation::new(
            JobId::new(&job_id),
            &uri::job(service, &job_id),
            JobState::Waiting,
        );
        self.pool.push((service.to_string(), job_id));
        (rep, barrier)
    }

    /// Switches result memoization on or off (default: off).
    ///
    /// With memoization on, a submission whose canonical `(service,
    /// inputs)` memo key (see [`crate::memo`]) matches an already-completed
    /// job is answered with that job — `DONE`, instantly, without running
    /// the adapter — and concurrent identical submissions coalesce onto one
    /// execution. Only successful results are memoized; failures,
    /// cancellations, deletions and retention evictions all free their
    /// keys. Memo keys ride the job journal, so hits survive a restart
    /// when a journal is attached.
    ///
    /// Memoization assumes service adapters are *pure* — same inputs, same
    /// outputs — which is why it is opt-in per container.
    pub fn set_result_memoization(&self, enabled: bool) {
        self.shared.memo_enabled.store(enabled, Ordering::Relaxed);
    }

    /// Whether result memoization is on.
    pub fn memoization_enabled(&self) -> bool {
        self.shared.memo_enabled.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::NativeAdapter;
    use crate::container::tests::sum_container;
    use mathcloud_core::ServiceDescription;
    use mathcloud_json::json;

    #[test]
    fn submit_runs_job_to_done() {
        let e = sum_container();
        let rep = e
            .submit_and_wait("sum", json!({"a": 20, "b": 22}), None, None, None, None)
            .unwrap()
            .rep;
        assert_eq!(rep.state, JobState::Waiting);
        let done = e
            .wait("sum", rep.id.as_str(), Duration::from_secs(5))
            .unwrap();
        assert_eq!(done.state, JobState::Done);
        assert_eq!(
            done.outputs.unwrap().get("total").unwrap().as_i64(),
            Some(42)
        );
        assert!(done.runtime_ms.is_some());
        assert_eq!(done.uri, format!("/services/sum/jobs/{}", done.id));
    }

    #[test]
    fn submit_sync_returns_terminal_state_for_fast_jobs() {
        let e = sum_container();
        let rep = e
            .submit_and_wait(
                "sum",
                json!({"a": 1, "b": 2}),
                None,
                None,
                None,
                Some(Duration::from_secs(5)),
            )
            .unwrap()
            .rep;
        assert_eq!(rep.state, JobState::Done);
    }

    #[test]
    fn a_job_still_running_when_the_wait_ends_is_answered_running() {
        let e = Everest::new("t");
        let (open, gate) = std::sync::mpsc::channel::<()>();
        let gate = std::sync::Mutex::new(gate);
        e.deploy(
            ServiceDescription::new("held", "runs until the gate opens"),
            NativeAdapter::from_fn(move |_, _| {
                let _ = gate.lock().unwrap().recv();
                Ok(Object::new())
            }),
        );
        let wait = Some(Duration::from_millis(300));
        let rep = e
            .submit_and_wait("held", json!({}), None, None, None, wait)
            .unwrap()
            .rep;
        assert_eq!(rep.state, JobState::Running);
        open.send(()).unwrap();
        let done = e.wait("held", rep.id.as_str(), Duration::from_secs(5));
        assert_eq!(done.unwrap().state, JobState::Done);
    }

    #[test]
    fn invalid_inputs_are_rejected_with_400() {
        let e = sum_container();
        let err = e
            .submit_and_wait("sum", json!({"a": "x"}), None, None, None, None)
            .unwrap_err();
        assert!(matches!(err, SubmitRejection::InvalidInputs(_)));
        assert_eq!(err.status(), 400);
        let err = e
            .submit_and_wait("nope", json!({}), None, None, None, None)
            .unwrap_err();
        assert_eq!(err.status(), 404);
    }

    #[test]
    fn failing_adapter_yields_failed_job() {
        let e = Everest::new("t");
        e.deploy(
            ServiceDescription::new("bad", "always fails"),
            NativeAdapter::from_fn(|_, _| Err("no luck".into())),
        );
        let rep = e
            .submit_and_wait("bad", json!({}), None, None, None, None)
            .unwrap()
            .rep;
        let done = e
            .wait("bad", rep.id.as_str(), Duration::from_secs(5))
            .unwrap();
        assert_eq!(done.state, JobState::Failed);
        assert_eq!(done.error.as_deref(), Some("no luck"));
        assert_eq!(e.stats().failed, 1);
    }
}
