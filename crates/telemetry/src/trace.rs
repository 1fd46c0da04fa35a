//! Request ids: minting, validation, and the header that carries them.
//!
//! Request ids are generated at the HTTP server edge (or supplied by the
//! client in the `X-MC-Request-Id` header) and threaded through
//! container → job manager → adapter → response, and recorded on the job a
//! request creates, so `GET /trace?request_id=` can find that job.

use crate::rng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// The header carrying the request id end to end.
pub const REQUEST_ID_HEADER: &str = "X-MC-Request-Id";

/// Generate a fresh request id: 16 lowercase hex chars, unique per process
/// (counter-based) and distinct across processes (seeded from wall clock and
/// pid).
pub fn next_request_id() -> String {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    static SEED: OnceLock<u64> = OnceLock::new();
    let seed = *SEED.get_or_init(|| {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0x9e37_79b9_7f4a_7c15);
        rng::splitmix64(nanos ^ ((std::process::id() as u64) << 32))
    });
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    format!("{:016x}", rng::splitmix64(seed.wrapping_add(n)))
}

/// Whether a client-supplied request id is safe to echo and record: 1–128
/// visible ASCII characters, no spaces, quotes or control bytes.
pub fn is_valid_request_id(id: &str) -> bool {
    !id.is_empty()
        && id.len() <= 128
        && id
            .bytes()
            .all(|b| (0x21..=0x7e).contains(&b) && b != b'"' && b != b'\\')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_ids_are_unique_and_valid() {
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            let id = next_request_id();
            assert_eq!(id.len(), 16);
            assert!(id.bytes().all(|b| b.is_ascii_hexdigit()));
            assert!(is_valid_request_id(&id));
            assert!(seen.insert(id));
        }
    }

    #[test]
    fn request_id_validation_rejects_junk() {
        assert!(!is_valid_request_id(""));
        assert!(!is_valid_request_id("has space"));
        assert!(!is_valid_request_id("tab\there"));
        assert!(!is_valid_request_id("quo\"te"));
        assert!(!is_valid_request_id(&"x".repeat(129)));
        assert!(is_valid_request_id("client-supplied-id-42"));
    }
}
