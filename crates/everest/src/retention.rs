//! The terminal-retention cap, and what leaves with a job's record.

use std::sync::atomic::Ordering;

use crate::container::{Everest, Shared};
use crate::jobs::JobKey;

impl Everest {
    /// Bounds how many terminal (DONE/FAILED/CANCELLED) job records the
    /// container retains; the default is unlimited.
    ///
    /// Without a bound, a long-running container accumulates terminal
    /// records, their `Idempotency-Key` mappings, and — with a journal
    /// armed — journal records carrying full inputs and outputs, all of
    /// which replay into memory on every restart. With a cap of `n`
    /// (clamped to at least 1), settling a job past the cap evicts the
    /// oldest-settled terminal jobs: `GET /jobs/{id}` stops answering for
    /// them, their keys become reusable, and their journal records get
    /// `DELETED` tombstones so compaction reclaims the space. Live jobs
    /// are never evicted. The cap is enforced immediately and on every
    /// subsequent terminal transition.
    pub fn set_terminal_retention(&self, cap: usize) {
        let retention = &self.shared.jobs.retention;
        retention.store(cap.max(1), Ordering::Relaxed);
        enforce(&self.shared);
    }
}

/// Evicts the oldest-settled terminal jobs down to the retention cap. A
/// no-op at the default unlimited cap.
pub(crate) fn enforce(shared: &Shared) {
    // The first sync covers every tombstone of the batch.
    for tombstone in shared.jobs.evict_excess() {
        tombstone.settle(shared);
    }
}

impl Shared {
    /// Frees what a deleted or evicted job leaves behind: its
    /// `Idempotency-Key`s and memo key — a later identical submission must
    /// re-execute, not resurrect the record — and its files, each of which
    /// drops one blob reference (the bytes go when the last one does).
    pub(crate) fn forget(&self, (service, job): &JobKey) {
        self.idem.forget(job);
        self.memo.forget(job);
        self.files.remove_job(service, job);
    }
}

#[cfg(test)]
mod tests {
    use crate::container::tests::sum_container;
    use crate::Everest;
    use mathcloud_core::{JobRepresentation, JobState};
    use mathcloud_json::json;
    use std::time::Duration;

    fn keyed(e: &Everest, a: i64, key: &str) -> (JobRepresentation, bool) {
        let o = e
            .submit_and_wait("sum", json!({"a": a, "b": 1}), None, None, Some(key), None)
            .unwrap();
        (o.rep, o.deduplicated)
    }

    #[test]
    fn terminal_retention_evicts_oldest_and_tombstones_the_journal() {
        let dir = std::env::temp_dir().join(format!(
            "mc-retention-{}-{}",
            std::process::id(),
            mathcloud_telemetry::next_request_id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let journal = dir.join("jobs.jsonl");

        let e = sum_container();
        e.attach_job_journal(&journal).unwrap();
        e.set_terminal_retention(3);
        let mut ids = Vec::new();
        for i in 0..8i64 {
            let key = format!("key-{i}");
            let (rep, deduped) = keyed(&e, i, &key);
            let done = e
                .wait("sum", rep.id.as_str(), Duration::from_secs(5))
                .unwrap();
            assert!(done.state.is_terminal());
            assert!(!deduped);
            ids.push(rep.id.as_str().to_string());
        }
        // Workers enforce the cap after each terminal transition; this call
        // enforces synchronously so the assertions below are race-free.
        e.set_terminal_retention(3);

        for id in &ids[..5] {
            assert!(
                e.representation("sum", id).is_none(),
                "evicted job {id} still answers"
            );
        }
        for (i, id) in ids[5..].iter().enumerate() {
            let rep = e.representation("sum", id).expect("retained job answers");
            assert_eq!(rep.state, JobState::Done);
            assert_eq!(
                rep.outputs.unwrap().get("total").unwrap().as_i64(),
                Some(i as i64 + 5 + 1)
            );
        }
        // A retained key still deduplicates; an evicted key is free again.
        let (rep, deduped) = keyed(&e, 7, "key-7");
        assert!(deduped);
        assert_eq!(rep.id.as_str(), ids[7]);
        let (rep, deduped) = keyed(&e, 0, "key-0");
        assert!(!deduped, "the evicted key maps to no record");
        assert_ne!(rep.id.as_str(), ids[0]);
        e.wait("sum", rep.id.as_str(), Duration::from_secs(5))
            .unwrap();
        // Enforce synchronously again: the worker settling key-0's job may
        // not have journaled its eviction tombstone yet.
        e.set_terminal_retention(3);
        drop(e);

        // The tombstones hold across a restart: recovery replays only what
        // retention kept (the 3 survivors may have rolled forward by the
        // key-0 resubmission settling above).
        let e2 = sum_container();
        e2.set_terminal_retention(3);
        let report = e2.attach_job_journal(&journal).unwrap();
        assert_eq!(report.replayed, 3, "evicted jobs are not resurrected");
        assert_eq!(report.requeued, 0);
        assert!(e2.representation("sum", &ids[0]).is_none());
        std::fs::remove_dir_all(&dir).ok();
    }
}
