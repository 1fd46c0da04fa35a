//! SHA-256 and HMAC-SHA-256, implemented from scratch (FIPS 180-4 / RFC 2104).
//!
//! The simulated PKI needs a real hash so that signatures actually bind the
//! signed bytes; SHA-256 is small enough to carry in-repo, keeping the
//! platform dependency-free.
//!
//! Memo keys and the content-addressed file store hash every job's payload,
//! so the block function exists twice: the portable rounds, and an x86-64
//! SHA-NI kernel used when the CPU reports the `sha`, `ssse3` and `sse4.1`
//! features. The CPU alone selects; the portable rounds are the only path
//! elsewhere and the reference the tests compare the kernel with.
//!
//! The kernel runs at the latency bound of its `sha256rnds2` chain: each of
//! the 32 per block needs the state the one before it wrote, and everything
//! else (loads, message schedule, `K` additions) runs beside that chain. On
//! an x86-64 box with SHA-NI, 32 768 dependent `sha256rnds2` (the count for
//! 64 KiB) took 48.6 µs at best, 1.48 ns each, timed in a loop that does
//! nothing else; `digest` of 64 KiB took 52–54 µs there
//! (`cargo bench -p mathcloud-bench --bench microbenches -- sha256`).

use std::fmt;
use std::sync::OnceLock;

static K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

const BLOCK: usize = 64;

/// Folds a whole number of 64-byte blocks into the hash state.
type BlockFn = fn(&mut [u32; 8], &[u8]);

/// The block function this CPU gets, detected once per process.
fn selected_block_fn() -> BlockFn {
    static SELECTED: OnceLock<BlockFn> = OnceLock::new();
    *SELECTED.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        if sha_ni_detected() {
            return sha_ni_blocks;
        }
        portable_blocks
    })
}

fn portable_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    let mut w = [0u32; 64];
    for block in blocks.chunks_exact(BLOCK) {
        for (i, word) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([word[0], word[1], word[2], word[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let temp1 = hh
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let temp2 = s0.wrapping_add(maj);
            hh = g;
            g = f;
            f = e;
            e = d.wrapping_add(temp1);
            d = c;
            c = b;
            b = a;
            a = temp1.wrapping_add(temp2);
        }
        for (h, v) in state.iter_mut().zip([a, b, c, d, e, f, g, hh]) {
            *h = h.wrapping_add(v);
        }
    }
}

#[cfg(target_arch = "x86_64")]
fn sha_ni_detected() -> bool {
    is_x86_feature_detected!("sha")
        && is_x86_feature_detected!("ssse3")
        && is_x86_feature_detected!("sse4.1")
}

/// The same compression on the SHA extensions: `sha256rnds2` runs two rounds
/// on the state held as the lane groups ABEF / CDGH, `sha256msg1` and
/// `sha256msg2` extend the message schedule four words at a time.
///
/// # Panics
///
/// If the CPU lacks the extensions (see [`selected_block_fn`]).
#[cfg(target_arch = "x86_64")]
fn sha_ni_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    use std::arch::x86_64::*;

    #[target_feature(enable = "sha,ssse3,sse4.1")]
    fn rounds(state: &mut [u32; 8], blocks: &[u8]) {
        // Message words are big-endian, lanes little-endian.
        let byte_swap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        // SAFETY: `state` is 32 readable bytes; the loads are unaligned.
        let (dcba, hgfe) = unsafe {
            (
                _mm_loadu_si128(state.as_ptr().cast()),
                _mm_loadu_si128(state.as_ptr().add(4).cast()),
            )
        };
        let cdab = _mm_shuffle_epi32(dcba, 0xb1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1b);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

        for block in blocks.chunks_exact(BLOCK) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            // Four rounds on schedule words `4g..4g + 4`: two `sha256rnds2`,
            // each taking two words of `w + K` from the low half of its
            // operand.
            macro_rules! four_rounds {
                ($w:expr, $g:expr) => {
                    // SAFETY: `K` has 64 words, so the four at `4 * g`
                    // (`g < 16`) are in bounds; unaligned load.
                    let k = unsafe { _mm_loadu_si128(K.as_ptr().add(4 * $g).cast()) };
                    let wk = _mm_add_epi32($w, k);
                    cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                    abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
                };
            }
            // SAFETY: `block` is 64 bytes, so the 16 at offset `16 * g`
            // (`g < 4`) are in bounds; unaligned load.
            let load = |g: usize| unsafe {
                _mm_shuffle_epi8(
                    _mm_loadu_si128(block.as_ptr().add(16 * g).cast()),
                    byte_swap,
                )
            };
            // The schedule lives in four named registers, the last four
            // groups, oldest first: indexing an array by `g % 4` kept it in
            // memory and put a store and reload between every two rounds.
            let (mut w0, mut w1, mut w2, mut w3) = (load(0), load(1), load(2), load(3));
            four_rounds!(w0, 0);
            four_rounds!(w1, 1);
            four_rounds!(w2, 2);
            four_rounds!(w3, 3);
            for g in 4..16 {
                // W[t] = W[t-16] + s0(W[t-15]) + W[t-7] + s1(W[t-2]), computed
                // just before its rounds; it does not wait on the state, so it
                // runs in the shadow of the `sha256rnds2` chain.
                let w4 = _mm_sha256msg2_epu32(
                    _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8(w3, w2, 4)),
                    w3,
                );
                four_rounds!(w4, g);
                (w0, w1, w2, w3) = (w1, w2, w3, w4);
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }

        let feba = _mm_shuffle_epi32(abef, 0x1b);
        let dchg = _mm_shuffle_epi32(cdgh, 0xb1);
        // SAFETY: `state` is 32 writable bytes; the stores are unaligned.
        unsafe {
            _mm_storeu_si128(state.as_mut_ptr().cast(), _mm_blend_epi16(feba, dchg, 0xf0));
            _mm_storeu_si128(
                state.as_mut_ptr().add(4).cast(),
                _mm_alignr_epi8(dchg, feba, 8),
            );
        }
    }

    assert!(
        sha_ni_detected(),
        "SHA-NI kernel called on a CPU without it"
    );
    // SAFETY: the CPU has every feature `rounds` is compiled for (asserted
    // on the line above).
    unsafe { rounds(state, blocks) }
}

/// An incremental SHA-256: feed bytes with [`update`](Sha256::update) in any
/// split, take the digest with [`finalize`](Sha256::finalize). It is also a
/// [`fmt::Write`] sink, so a serializer can hash what it would have written
/// without building the text.
///
/// # Examples
///
/// ```
/// use mathcloud_security::sha256::{digest, Sha256};
///
/// let mut h = Sha256::new();
/// h.update(b"ab");
/// h.update(b"c");
/// assert_eq!(h.finalize(), digest(b"abc"));
/// ```
pub struct Sha256 {
    state: [u32; 8],
    /// Bytes fed so far; the last `len % 64` of them wait in `pending`.
    len: u64,
    pending: [u8; BLOCK],
    block_fn: BlockFn,
}

impl Default for Sha256 {
    fn default() -> Self {
        Sha256::new()
    }
}

impl Sha256 {
    /// An empty hash on the block function this CPU selects.
    pub fn new() -> Sha256 {
        Sha256::with_block_fn(selected_block_fn())
    }

    fn with_block_fn(block_fn: BlockFn) -> Sha256 {
        Sha256 {
            state: H0,
            len: 0,
            pending: [0; BLOCK],
            block_fn,
        }
    }

    /// Appends `data` to the message.
    pub fn update(&mut self, mut data: &[u8]) {
        let held = (self.len % BLOCK as u64) as usize;
        self.len = self.len.wrapping_add(data.len() as u64);
        if held > 0 {
            let take = data.len().min(BLOCK - held);
            self.pending[held..held + take].copy_from_slice(&data[..take]);
            if held + take < BLOCK {
                return;
            }
            (self.block_fn)(&mut self.state, &self.pending);
            data = &data[take..];
        }
        let (whole, rest) = data.split_at(data.len() - data.len() % BLOCK);
        if !whole.is_empty() {
            (self.block_fn)(&mut self.state, whole);
        }
        self.pending[..rest.len()].copy_from_slice(rest);
    }

    /// Pads the message and returns its digest.
    pub fn finalize(mut self) -> [u8; 32] {
        // Padding: 0x80, zeros to 56 mod 64, the length in bits — one block
        // when the pending bytes leave room for it, two when they do not.
        let held = (self.len % BLOCK as u64) as usize;
        let mut tail = [0u8; 2 * BLOCK];
        tail[..held].copy_from_slice(&self.pending[..held]);
        tail[held] = 0x80;
        let end = if held < 56 { BLOCK } else { 2 * BLOCK };
        tail[end - 8..end].copy_from_slice(&self.len.wrapping_mul(8).to_be_bytes());
        (self.block_fn)(&mut self.state, &tail[..end]);

        let mut out = [0u8; 32];
        for (bytes, word) in out.chunks_exact_mut(4).zip(self.state) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

impl fmt::Write for Sha256 {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.update(s.as_bytes());
        Ok(())
    }
}

impl fmt::Debug for Sha256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sha256").field("len", &self.len).finish()
    }
}

/// Computes the SHA-256 digest of `data`.
///
/// # Examples
///
/// ```
/// use mathcloud_security::sha256::{digest, to_hex};
///
/// assert_eq!(
///     to_hex(&digest(b"abc")),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// ```
pub fn digest(data: &[u8]) -> [u8; 32] {
    digest_on(selected_block_fn(), data)
}

/// The digest on the portable rounds whatever the CPU offers: the reference
/// the hardware kernel is checked and measured against.
pub fn digest_portable(data: &[u8]) -> [u8; 32] {
    digest_on(portable_blocks, data)
}

fn digest_on(block_fn: BlockFn, data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::with_block_fn(block_fn);
    h.update(data);
    h.finalize()
}

/// Computes HMAC-SHA-256 (RFC 2104).
pub fn hmac(key: &[u8], message: &[u8]) -> [u8; 32] {
    hmac_with(selected_block_fn(), key, message)
}

fn hmac_with(block_fn: BlockFn, key: &[u8], message: &[u8]) -> [u8; 32] {
    let mut key_block = [0u8; BLOCK];
    if key.len() > BLOCK {
        key_block[..32].copy_from_slice(&digest_on(block_fn, key));
    } else {
        key_block[..key.len()].copy_from_slice(key);
    }
    let keyed = |pad: u8, rest: &[u8]| {
        let mut h = Sha256::with_block_fn(block_fn);
        h.update(&key_block.map(|b| b ^ pad));
        h.update(rest);
        h.finalize()
    };
    keyed(0x5c, &keyed(0x36, message))
}

const HEX: &[u8; 16] = b"0123456789abcdef";

/// Hex-encodes a digest.
pub fn to_hex(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        out.push(HEX[usize::from(b >> 4)] as char);
        out.push(HEX[usize::from(b & 0x0f)] as char);
    }
    out
}

/// Constant-time comparison of two MACs (prevents timing probes even in the
/// simulated setting).
pub fn verify_mac(expected: &[u8; 32], provided_hex: &str) -> bool {
    let provided = match from_hex(provided_hex) {
        Some(p) => p,
        None => return false,
    };
    let mut diff = 0u8;
    for (a, b) in expected.iter().zip(provided.iter()) {
        diff |= a ^ b;
    }
    diff == 0
}

/// Decodes exactly 64 hex digits (either case); anything else is `None`.
fn from_hex(s: &str) -> Option<[u8; 32]> {
    let nibble = |c: u8| (c as char).to_digit(16).map(|d| d as u8);
    let digits = s.as_bytes();
    if digits.len() != 64 {
        return None;
    }
    let mut out = [0u8; 32];
    for (byte, pair) in out.iter_mut().zip(digits.chunks_exact(2)) {
        *byte = nibble(pair[0])? << 4 | nibble(pair[1])?;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every block function this box can run, the portable reference first.
    fn block_fns() -> Vec<(&'static str, BlockFn)> {
        let mut fns: Vec<(&'static str, BlockFn)> = vec![("portable", portable_blocks)];
        #[cfg(target_arch = "x86_64")]
        if sha_ni_detected() {
            fns.push(("sha-ni", sha_ni_blocks));
        }
        fns
    }

    /// `data` hashed on `block_fn`, fed in the given chunk sizes (cycled).
    fn digest_in_chunks(block_fn: BlockFn, data: &[u8], chunks: &[usize]) -> [u8; 32] {
        let mut h = Sha256::with_block_fn(block_fn);
        let (mut rest, mut turn) = (data, 0);
        while !rest.is_empty() {
            let take = chunks[turn % chunks.len()].clamp(1, rest.len());
            h.update(&rest[..take]);
            rest = &rest[take..];
            turn += 1;
        }
        h.finalize()
    }

    fn xorshift_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect()
    }

    #[test]
    fn fips_180_4_vectors_on_both_block_functions() {
        let vectors: [(&[u8], &str); 3] = [
            (
                b"",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
        ];
        for (name, block_fn) in block_fns() {
            for (message, expected) in vectors {
                let got = to_hex(&digest_on(block_fn, message));
                assert_eq!(got, expected, "{name}, {} bytes", message.len());
            }
        }
        assert_eq!(to_hex(&digest(b"abc")), vectors[1].1);
    }

    #[test]
    fn million_a_vector() {
        let data = vec![b'a'; 1_000_000];
        for (name, block_fn) in block_fns() {
            assert_eq!(
                to_hex(&digest_on(block_fn, &data)),
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
                "{name}"
            );
        }
    }

    #[test]
    fn rfc4231_hmac_vectors_on_both_block_functions() {
        let vectors: [(&[u8], &[u8], &str); 4] = [
            // Test case 1.
            (
                &[0x0b; 20],
                b"Hi There",
                "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
            ),
            // Test case 2 ("Jefe").
            (
                b"Jefe",
                b"what do ya want for nothing?",
                "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
            ),
            // Test case 3: 50 bytes of 0xdd.
            (
                &[0xaa; 20],
                &[0xdd; 50],
                "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
            ),
            // Test case 6: key longer than the block size.
            (
                &[0xaa; 131],
                b"Test Using Larger Than Block-Size Key - Hash Key First",
                "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
            ),
        ];
        for (name, block_fn) in block_fns() {
            for (key, message, expected) in vectors {
                let got = to_hex(&hmac_with(block_fn, key, message));
                assert_eq!(got, expected, "{name}, key of {} bytes", key.len());
            }
        }
        assert_eq!(to_hex(&hmac(b"Jefe", vectors[1].1)), vectors[1].2);
    }

    /// Portable rounds == the selected kernel == any split of the input, on
    /// every length across the one-block / two-block padding boundaries and
    /// on multi-block sizes. `--nocapture` shows which kernel the box
    /// selected, so a log tells when the hardware path went unexercised.
    #[test]
    fn kernel_differential_battery() {
        let fns = block_fns();
        let selected = selected_block_fn();
        let name = fns
            .iter()
            .find(|(_, f)| *f as usize == selected as usize)
            .map(|(name, _)| *name)
            .expect("the selected block function is one of the two");
        println!(
            "sha256: selected kernel = {name}; kernels compared = {}",
            fns.len()
        );

        let mut compared = 0usize;
        for len in 0..=300usize {
            let data = xorshift_bytes(0x5348_4132 + len as u64, len);
            let reference = digest_on(portable_blocks, &data);
            assert_eq!(digest(&data), reference, "len {len}: selected kernel");
            for (name, block_fn) in &fns {
                assert_eq!(
                    digest_in_chunks(*block_fn, &data, &[1]),
                    reference,
                    "len {len}: {name} fed byte by byte"
                );
                for split in 0..=len {
                    let mut h = Sha256::with_block_fn(*block_fn);
                    h.update(&data[..split]);
                    h.update(&data[split..]);
                    assert_eq!(
                        h.finalize(),
                        reference,
                        "len {len}: {name} split at {split}"
                    );
                    compared += 1;
                }
            }
            // Sensitivity: the digest is not a constant.
            if len > 0 {
                let mut other = data.clone();
                other[len / 2] ^= 0x01;
                assert_ne!(digest(&other), reference, "len {len}");
            }
        }
        for len in [1_000, 4_096 + 17, 65_536, 65_536 + 63, 1 << 20] {
            let data = xorshift_bytes(len as u64, len);
            let reference = digest_on(portable_blocks, &data);
            assert_eq!(digest(&data), reference, "len {len}: selected kernel");
            for (name, block_fn) in &fns {
                for chunks in [
                    &[1, 63, 64, 65, 127, 128, 129][..],
                    &[4_096],
                    &[len / 2 + 1],
                    &[len - 1],
                    &[1, usize::MAX],
                ] {
                    assert_eq!(
                        digest_in_chunks(*block_fn, &data, chunks),
                        reference,
                        "len {len}: {name} in chunks of {chunks:?}"
                    );
                    compared += 1;
                }
            }
        }
        // Up to 64 blocks, fed in random splits: every kernel carries its
        // state across many `update` calls that end mid-block and on block
        // edges.
        let mut x = 0x6b65_726e_656c_3634u64;
        let mut next = move |bound: usize| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % bound as u64) as usize
        };
        for case in 0..200 {
            let len = next(64 * BLOCK + 1);
            let data = xorshift_bytes(0x6b65_7973 + case, len);
            let reference = digest_portable(&data);
            for (name, block_fn) in &fns {
                let mut h = Sha256::with_block_fn(*block_fn);
                let (mut at, mut splits) = (0, Vec::new());
                while at < len {
                    // Small pieces, block-sized ones and large ones.
                    let take = match next(3) {
                        0 => next(BLOCK) + 1,
                        1 => BLOCK,
                        _ => next(8 * BLOCK) + 1,
                    }
                    .min(len - at);
                    h.update(&data[at..at + take]);
                    splits.push(take);
                    at += take;
                }
                assert_eq!(h.finalize(), reference, "len {len}: {name} in {splits:?}");
                compared += 1;
            }
        }
        assert!(compared > 45_000 * fns.len());
    }

    #[test]
    fn hasher_is_a_fmt_sink() {
        use std::fmt::Write as _;
        let mut h = Sha256::new();
        let (word, n) = ("ab", 12);
        write!(h, "{word}-{n}").unwrap();
        h.write_char('é').unwrap();
        assert_eq!(h.finalize(), digest("ab-12é".as_bytes()));
    }

    #[test]
    fn hex_round_trips_and_rejects_everything_else() {
        let bytes: Vec<u8> = (0..=255u8).collect();
        let hex = to_hex(&bytes);
        assert_eq!(hex.len(), 512);
        assert!(hex.starts_with("000102") && hex.ends_with("fdfeff"));
        let mac = digest(b"x");
        assert_eq!(from_hex(&to_hex(&mac)), Some(mac));
        assert_eq!(from_hex(&to_hex(&mac).to_uppercase()), Some(mac));
        // A sign is not a hex digit, and 64 bytes of multi-byte text are
        // refused rather than sliced mid-character.
        assert_eq!(from_hex(&format!("+f{}", "0".repeat(62))), None);
        assert_eq!(from_hex(&"é".repeat(32)), None);
        assert_eq!(from_hex(&"0".repeat(63)), None);
        assert_eq!(from_hex(&"0".repeat(66)), None);
    }

    #[test]
    fn verify_mac_accepts_only_exact_match() {
        let mac = hmac(b"key", b"msg");
        let hex = to_hex(&mac);
        assert!(verify_mac(&mac, &hex));
        let mut tampered = hex.clone();
        tampered.replace_range(0..1, if &hex[0..1] == "0" { "1" } else { "0" });
        assert!(!verify_mac(&mac, &tampered));
        assert!(!verify_mac(&mac, "short"));
        assert!(!verify_mac(&mac, &"zz".repeat(32)));
    }
}
