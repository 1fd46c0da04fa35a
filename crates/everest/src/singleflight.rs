//! Single flight: at most one submission per key creates a job; the rest are
//! answered with it. `Idempotency-Key` deduplication and result memoization
//! are this protocol over different keys.
//!
//! A key maps to the job that answers it. The first claimant of a free key
//! *wins* a [`Reservation`] and creates (journals, syncs) its job with the map
//! lock released, so a disk sync under one key never delays another key;
//! claimants of the same key wait for the reservation to be filled or dropped.

use std::collections::HashMap;
use std::hash::Hash;

use mathcloud_telemetry::sync::{Condvar, Mutex};

enum Slot {
    /// A winner is creating the job.
    Reserved,
    /// The id of the job that answers the key.
    Filled(String),
}

/// Key → reserved | job id.
pub(crate) struct SingleFlight<K> {
    slots: Mutex<HashMap<K, Slot>>,
    /// Signalled when a reservation is filled or abandoned.
    settled: Condvar,
}

/// What [`SingleFlight::claim`] found.
pub(crate) enum Claim<'a, K: Hash + Eq, T> {
    /// The key maps to a job the probe accepted.
    Hit(T),
    /// The key was free (or its job stale): the caller creates the job.
    Won(Reservation<'a, K>),
}

/// The right — and duty — to create the job for one key. Dropping it
/// unfilled abandons the key and wakes the waiters, one of which wins next.
pub(crate) struct Reservation<'a, K: Hash + Eq> {
    flight: &'a SingleFlight<K>,
    key: Option<K>,
}

impl<K: Hash + Eq + Clone> SingleFlight<K> {
    pub(crate) fn new() -> Self {
        SingleFlight {
            slots: Mutex::new(HashMap::new()),
            settled: Condvar::new(),
        }
    }

    /// Claims `key`. When it maps to a job, `probe(job id)` decides, under
    /// the map lock, whether that job still answers the key: `Some` is a
    /// [`Claim::Hit`], `None` frees the stale slot. A reserved key is waited
    /// out first. The probe must not block on anything slower than a lock.
    pub(crate) fn claim<T>(
        &self,
        key: &K,
        mut probe: impl FnMut(&str) -> Option<T>,
    ) -> Claim<'_, K, T> {
        let mut slots = self.slots.lock();
        loop {
            match slots.get(key) {
                Some(Slot::Reserved) => self.settled.wait(&mut slots),
                Some(Slot::Filled(job)) => match probe(job) {
                    Some(hit) => return Claim::Hit(hit),
                    None => break,
                },
                None => break,
            }
        }
        slots.insert(key.clone(), Slot::Reserved);
        Claim::Won(Reservation {
            flight: self,
            key: Some(key.clone()),
        })
    }

    /// Maps `key` to `job` without a claim (journal recovery). An occupied
    /// key is replaced only when `overwrite` is set. Returns whether the
    /// mapping was made.
    pub(crate) fn restore(&self, key: K, job: String, overwrite: bool) -> bool {
        let mut slots = self.slots.lock();
        if !overwrite && slots.contains_key(&key) {
            return false;
        }
        slots.insert(key, Slot::Filled(job));
        true
    }

    /// Frees every key that maps to `job`. Reservations belong to
    /// submissions in flight and are kept.
    pub(crate) fn forget(&self, job: &str) {
        self.slots
            .lock()
            .retain(|_, slot| !matches!(slot, Slot::Filled(filled) if filled == job));
    }
}

impl<K: Hash + Eq> Reservation<'_, K> {
    /// Publishes the created job under the key and wakes the waiters.
    pub(crate) fn fill(mut self, job: &str) {
        let key = self.key.take().expect("a reservation is filled once");
        self.flight
            .slots
            .lock()
            .insert(key, Slot::Filled(job.to_string()));
        self.flight.settled.notify_all();
    }
}

impl<K: Hash + Eq> Drop for Reservation<'_, K> {
    fn drop(&mut self) {
        if let Some(key) = self.key.take() {
            self.flight.slots.lock().remove(&key);
            self.flight.settled.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{mpsc, Barrier};

    fn accept(job: &str) -> Option<String> {
        Some(job.to_string())
    }

    #[test]
    fn sixteen_claims_of_one_key_have_one_winner() {
        const RACERS: usize = 16;
        let flight = SingleFlight::<String>::new();
        let key = "k".to_string();
        let start = Barrier::new(RACERS);
        let winners = AtomicUsize::new(0);
        let answers: Vec<String> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..RACERS)
                .map(|i| {
                    let (flight, key, start, winners) = (&flight, &key, &start, &winners);
                    s.spawn(move || {
                        start.wait();
                        match flight.claim(key, accept) {
                            Claim::Hit(job) => job,
                            Claim::Won(reservation) => {
                                winners.fetch_add(1, Ordering::SeqCst);
                                let job = format!("j-{i}");
                                reservation.fill(&job);
                                job
                            }
                        }
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(winners.load(Ordering::SeqCst), 1, "exactly one Won");
        assert!(
            answers.iter().all(|job| job == &answers[0]),
            "fifteen hits carry the winner's id: {answers:?}"
        );
    }

    #[test]
    fn a_held_reservation_does_not_delay_another_key() {
        let flight = SingleFlight::<String>::new();
        let held = match flight.claim(&"a".to_string(), accept) {
            Claim::Won(r) => r,
            Claim::Hit(_) => panic!("a fresh key cannot hit"),
        };
        // Were key B to wait for A, this would never return.
        match flight.claim(&"b".to_string(), accept) {
            Claim::Won(r) => r.fill("j-b"),
            Claim::Hit(_) => panic!("a fresh key cannot hit"),
        }
        held.fill("j-a");
        assert!(matches!(
            flight.claim(&"a".to_string(), accept),
            Claim::Hit(job) if job == "j-a"
        ));
    }

    #[test]
    fn an_abandoned_reservation_wakes_waiters_and_one_of_them_wins() {
        const WAITERS: usize = 4;
        let flight = SingleFlight::<String>::new();
        let key = "k".to_string();
        let abandoned = match flight.claim(&key, accept) {
            Claim::Won(r) => r,
            Claim::Hit(_) => panic!("a fresh key cannot hit"),
        };
        let (about_to_claim, claiming) = mpsc::channel();
        let winners = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for i in 0..WAITERS {
                let (flight, key, winners) = (&flight, &key, &winners);
                let about_to_claim = about_to_claim.clone();
                s.spawn(move || {
                    about_to_claim.send(()).unwrap();
                    match flight.claim(key, accept) {
                        Claim::Hit(job) => assert!(job.starts_with("j-")),
                        Claim::Won(reservation) => {
                            winners.fetch_add(1, Ordering::SeqCst);
                            reservation.fill(&format!("j-{i}"));
                        }
                    }
                });
            }
            for _ in 0..WAITERS {
                claiming.recv().unwrap();
            }
            // Whether a waiter is already parked or arrives after the drop,
            // it finds the key free or filled, never reserved for good.
            drop(abandoned);
        });
        assert_eq!(winners.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn a_probe_returning_none_frees_the_slot() {
        let flight = SingleFlight::<String>::new();
        let key = "k".to_string();
        assert!(flight.restore(key.clone(), "j-stale".into(), true));
        let reservation = match flight.claim(&key, |job| {
            assert_eq!(job, "j-stale");
            None::<()>
        }) {
            Claim::Won(r) => r,
            Claim::Hit(()) => panic!("the probe refused the job"),
        };
        reservation.fill("j-fresh");
        assert!(matches!(
            flight.claim(&key, accept),
            Claim::Hit(job) if job == "j-fresh"
        ));
    }

    #[test]
    fn restore_respects_overwrite_and_forget_keeps_reservations() {
        let flight = SingleFlight::<String>::new();
        assert!(flight.restore("a".into(), "j-1".into(), false));
        assert!(!flight.restore("a".into(), "j-2".into(), false));
        assert!(flight.restore("a".into(), "j-3".into(), true));
        let held = match flight.claim(&"b".to_string(), accept) {
            Claim::Won(r) => r,
            Claim::Hit(_) => panic!("a fresh key cannot hit"),
        };
        flight.forget("j-3");
        assert!(matches!(
            flight.claim(&"a".to_string(), accept),
            Claim::Won(_)
        ));
        held.fill("j-b");
        assert!(matches!(
            flight.claim(&"b".to_string(), accept),
            Claim::Hit(job) if job == "j-b"
        ));
    }
}
