//! Restart: arming the durable job journal and replaying what it holds.

use std::io;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Weak};

use mathcloud_core::JobState;
use mathcloud_events::{Envelope, History};
use mathcloud_telemetry::metrics;

use crate::container::{Everest, Shared};
use crate::jobs::{event_kind, job_event_payload};
use crate::jobstore::{JobStore, DEFAULT_COMPACT_EVERY};
use crate::retention;
use crate::run::spawn_confirmer;

/// What [`Everest::attach_job_journal`] recovered from the journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// Interrupted (WAITING/RUNNING) jobs re-queued for execution.
    pub requeued: usize,
    /// Terminal jobs whose results were replayed into memory.
    pub replayed: usize,
    /// `Idempotency-Key` mappings restored.
    pub idem_keys: usize,
    /// Result-memoization keys restored: completed jobs whose repeats will
    /// hit the cache again, plus re-queued live jobs repeats will coalesce
    /// onto.
    pub memo_keys: usize,
}

impl Everest {
    /// [`Everest::attach_job_journal_with`] at the default compaction
    /// threshold.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors opening or reading the journal.
    pub fn attach_job_journal(&self, path: &Path) -> io::Result<RecoveryReport> {
        self.attach_job_journal_with(path, DEFAULT_COMPACT_EVERY)
    }

    /// Arms the durable job journal at `path`: every subsequent job
    /// transition is appended, and fsync'd before it is acknowledged, and
    /// the journal's existing contents are recovered first —
    ///
    /// * the `j-<n>` id counter re-seeds past every id the journal has ever
    ///   referenced, so restarts never reuse an id;
    /// * journaled `Idempotency-Key` mappings are restored, so a keyed POST
    ///   retried across the restart still deduplicates;
    /// * terminal jobs are replayed into memory — `GET /jobs/{id}` answers
    ///   immediately, without re-execution;
    /// * interrupted (WAITING/RUNNING) jobs are re-queued through the
    ///   handler pool and run again from their journaled inputs;
    /// * the event bus resumes its ids above every `job.*` event the journal
    ///   names, and asks this container for those the ring no longer has;
    /// * every recovered job republishes its latest `job.*` event with a
    ///   `"replayed": true` payload flag, so push-mode waiters resume (one
    ///   batch and one `meta` line in this journal, however many jobs; they
    ///   go out once that line is on disk, which this call does not wait
    ///   for).
    ///
    /// Call this after deploying services but before serving traffic:
    /// re-queued jobs whose service is not yet deployed fail with
    /// "undeployed" rather than re-running, and a keyed or memoized
    /// submission racing the recovery may not find its recovered job yet.
    /// A job that already has a record in memory keeps it.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors opening or reading the journal, and refuses a
    /// second journal on the same container. Recovery itself never fails:
    /// torn or corrupt journal lines are skipped.
    pub fn attach_job_journal_with(
        &self,
        path: &Path,
        compact_every: usize,
    ) -> io::Result<RecoveryReport> {
        let shared = &self.shared;
        if shared.jobs.store().is_some() {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                "job journal armed",
            ));
        }
        let store = Arc::new(JobStore::open(path, compact_every)?);
        shared
            .next_job
            .fetch_max(store.max_job_number() + 1, Ordering::Relaxed);
        let recovered = store.recovered();
        let bus = mathcloud_events::global();
        bus.resume_after(store.last_ev());
        let admitted = shared.jobs.recover(store, recovered)?;
        spawn_confirmer(Arc::clone(shared));
        let history: Weak<Shared> = Arc::downgrade(shared);
        bus.attach_history(history);
        let mut report = RecoveryReport::default();
        for r in &admitted {
            if let Some(k) = &r.idem_key {
                let key = (r.service.clone(), k.clone());
                shared.idem.restore(key, r.job.clone(), true);
                report.idem_keys += 1;
            }
            if let Some(mk) = &r.memo_key {
                // A completed result takes its key whoever holds it; an
                // interrupted job reclaims its key only if nobody does, so
                // its re-execution coalesces identical submissions again.
                // Failed and cancelled jobs never map: errors are not
                // memoized.
                let done = r.state == JobState::Done;
                if (done || !r.state.is_terminal())
                    && shared.memo.restore(mk.clone(), r.job.clone(), done)
                {
                    report.memo_keys += 1;
                }
            }
        }
        report.replayed = admitted.iter().filter(|r| r.state.is_terminal()).count();
        report.requeued = admitted.len() - report.replayed;
        if !admitted.is_empty() {
            shared.jobs.republish(admitted.iter().map(|r| {
                (
                    event_kind(r.state),
                    r.request_id.as_deref(),
                    job_event_payload(&shared.label, &r.service, &r.job, r.error.as_deref(), true),
                )
            }));
        }
        for r in admitted.into_iter().filter(|r| !r.state.is_terminal()) {
            self.pool.push((r.service, r.job));
        }
        for (outcome, jobs) in [("replayed", report.replayed), ("requeued", report.requeued)] {
            let labels = [("container", shared.label.as_str()), ("outcome", outcome)];
            metrics::global()
                .counter("mc_jobs_recovered_total", &labels)
                .add(jobs as u64);
        }
        // A replayed history can itself exceed the retention cap.
        retention::enforce(shared);
        Ok(report)
    }

    /// The durable job store, when one is armed.
    pub fn job_store(&self) -> Option<Arc<JobStore>> {
        self.shared.jobs.store().cloned()
    }
}

/// What the job journal still knows of `job.*` events the bus's ring has let
/// go of: for each surviving job, the event that announced its latest
/// transition, under its original id. Earlier events of the same job are
/// gone with the records compaction folded away — the latest state is what a
/// resuming waiter needs.
impl History for Shared {
    fn events_between(&self, after: u64, before: u64) -> Vec<Envelope> {
        let mut events = Vec::new();
        if let Some(store) = self.jobs.store() {
            store.announced_between(after, before, |id, time_ms, r| {
                let error = r.error.as_deref();
                events.push(Envelope {
                    id,
                    kind: event_kind(r.state).to_string(),
                    time_ms,
                    request_id: r.request_id.clone(),
                    payload: job_event_payload(&self.label, &r.service, &r.job, error, false),
                });
            });
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::container::tests::sum_container;
    use mathcloud_json::json;
    use std::time::Duration;

    #[test]
    fn a_second_job_journal_is_refused() {
        let dir = std::env::temp_dir().join(format!(
            "mc-container-journal-{}-{}",
            std::process::id(),
            mathcloud_telemetry::next_request_id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let e = sum_container();
        e.attach_job_journal(&dir.join("jobs.jsonl")).unwrap();
        let err = e.attach_job_journal(&dir.join("other.jsonl")).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::AlreadyExists);
        assert!(!dir.join("other.jsonl").exists(), "refused before opening");
        // The first journal is still the one in use.
        let rep = e
            .submit_and_wait("sum", json!({"a": 1, "b": 2}), None, None, None, None)
            .unwrap()
            .rep;
        e.wait("sum", rep.id.as_str(), Duration::from_secs(5))
            .unwrap();
        assert_eq!(e.job_store().unwrap().journal_stats().records, 3);
        std::fs::remove_dir_all(&dir).ok();
    }
}
