//! Deterministic hashing primitives shared across the workspace.
//!
//! Before this module existed, three call sites carried their own copy of
//! FNV-1a (guest-mem page checksums, the storage fault digests, the REAP
//! artifact digests) and two carried SplitMix64 (the RNG seeder and the
//! cluster shard hash). One drifting constant would have silently broken
//! cross-layer checksum comparisons, so the implementations live here once
//! and every crate re-exports or delegates.
//!
//! Everything in this module is pure arithmetic: no allocation (beyond
//! [`fill_pages`] growing the caller's `Vec`), no state beyond what the
//! caller holds, identical output on every platform.

use std::mem::MaybeUninit;

/// 64-bit FNV-1a hash of a byte slice.
///
/// # Example
///
/// ```
/// use sim_core::hash::fnv1a64;
///
/// assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
/// assert_ne!(fnv1a64(b"page A"), fnv1a64(b"page B"));
/// ```
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a64::new();
    h.write(bytes);
    h.finish()
}

/// In-process content fingerprint: FNV-1a absorbing eight bytes per
/// multiply ([`Fnv1a64::write_u64_word`] per little-endian 8-byte chunk),
/// the `len % 8` tail byte by byte. An eighth of canonical FNV-1a's
/// multiplies, and a *different* value: use it only where the result never
/// leaves the process and is compared with a recomputation by this same
/// function (the frame cache's dedup key, the orchestrator's record-time
/// artifact digests, the snapshot's in-memory VMM-state fingerprint).
/// Persisted checksums — WS/trace artifact headers, telemetry — stay on
/// [`fnv1a64`].
pub fn fnv1a64_words(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a64::new();
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        h.write_u64_word(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
    }
    h.write(words.remainder());
    h.finish()
}

/// FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Streaming FNV-1a 64-bit hasher.
///
/// Feeds either bytes ([`write`](Self::write), the canonical byte-at-a-time
/// FNV-1a) or whole 64-bit words ([`write_u64_word`](Self::write_u64_word),
/// one XOR + one multiply per word — the cheap variant used for structural
/// fingerprints such as the buddy-allocator free lists). The two feeds
/// produce different streams by construction; pick one per fingerprint and
/// stay with it.
#[derive(Debug, Clone)]
pub struct Fnv1a64 {
    state: u64,
}

impl Default for Fnv1a64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv1a64 {
    /// Creates a hasher seeded with the FNV offset basis.
    pub fn new() -> Self {
        Fnv1a64 { state: FNV_OFFSET }
    }

    /// Absorbs bytes one at a time (canonical FNV-1a).
    pub fn write(&mut self, bytes: &[u8]) {
        let mut h = self.state;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.state = h;
    }

    /// Absorbs one 64-bit word: XOR the whole word, then one multiply.
    pub fn write_u64_word(&mut self, word: u64) {
        self.state ^= word;
        self.state = self.state.wrapping_mul(FNV_PRIME);
    }

    /// Returns the current hash value.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// Lets an in-process hash map key on FNV-1a
/// (`HashMap<K, V, BuildHasherDefault<Fnv1a64>>`): each `u64` of the key
/// is one [`write_u64_word`](Fnv1a64::write_u64_word) step, anything
/// else goes byte by byte. Not for keys an outsider chooses: FNV has no
/// seed, so colliding keys are easy to construct.
impl std::hash::Hasher for Fnv1a64 {
    fn finish(&self) -> u64 {
        self.state
    }

    fn write(&mut self, bytes: &[u8]) {
        Fnv1a64::write(self, bytes);
    }

    fn write_u64(&mut self, word: u64) {
        self.write_u64_word(word);
    }
}

/// Pure SplitMix64 mix of `x`: add the golden-ratio increment, then run the
/// three xor-multiply finalization rounds.
///
/// This is the shard-hash function of `vhive_cluster::shard_for` and the
/// per-step output of the [`DetRng`](crate::DetRng) seeder: one call here
/// equals one [`splitmix64_next`] step whose state *before* the call was
/// `x`.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Stateful SplitMix64 step: advances `state` by the golden-ratio increment
/// and returns the mixed output. Equivalent to `splitmix64(*state)` followed
/// by the state advance.
pub fn splitmix64_next(state: &mut u64) -> u64 {
    let out = splitmix64(*state);
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    out
}

/// Golden-ratio increment: spreads a page index across the seed word.
const SEED_SPREAD: u64 = 0x9E37_79B9_7F4A_7C15;
/// xorshift64* output multiplier.
const XORSHIFT_STAR: u64 = 0x2545_F491_4F6C_DD1D;

/// The chain seed of page `index` under `label`: `fnv1a64(label)` — which
/// a multi-page fill computes once as `label_hash` — mixed with the index.
fn fill_seed(label_hash: u64, index: u64) -> u64 {
    label_hash ^ index.wrapping_mul(SEED_SPREAD)
}

/// One xorshift64* step: advances `state` and returns the next output word.
#[inline(always)]
fn fill_step(state: &mut u64) -> u64 {
    let mut s = *state;
    s ^= s >> 12;
    s ^= s << 25;
    s ^= s >> 27;
    *state = s;
    s.wrapping_mul(XORSHIFT_STAR)
}

/// Deterministically fills `buf` with content derived from a label and an
/// index — used to give every synthetic guest page distinctive, verifiable
/// contents (an xorshift64* stream keyed by `fnv1a64(label) ^ f(index)`,
/// written eight little-endian bytes per step; a tail shorter than eight
/// takes the head of one more step).
pub fn fill_deterministic(buf: &mut [u8], label: u64, index: u64) {
    let mut state = fill_seed(fnv1a64(&label.to_le_bytes()), index);
    let mut words = buf.chunks_exact_mut(8);
    for word in &mut words {
        word.copy_from_slice(&fill_step(&mut state).to_le_bytes());
    }
    let tail = words.into_remainder();
    let len = tail.len();
    tail.copy_from_slice(&fill_step(&mut state).to_le_bytes()[..len]);
}

/// Appends `pages` consecutive pages of `page_bytes` each to `vec`, page
/// `i` byte for byte what [`fill_deterministic`] writes for
/// `(label, first + i)`. The bytes go straight into `vec`'s spare capacity
/// — no zero-fill first — and the page loop shares one label hash; the
/// xorshift64* chains of different pages are independent, so groups of
/// four pages advance theirs in lockstep (four multiplies in flight rather
/// than one serial chain), and a tail of fewer than four is filled page by
/// page.
///
/// # Panics
///
/// Panics if `page_bytes` is zero or not a multiple of eight.
pub fn fill_pages(vec: &mut Vec<u8>, page_bytes: usize, label: u64, first: u64, pages: usize) {
    assert!(
        page_bytes > 0 && page_bytes.is_multiple_of(8),
        "fill_pages needs pages of whole 8-byte words"
    );
    let total = page_bytes
        .checked_mul(pages)
        .expect("fill size overflows usize");
    vec.reserve(total);
    let start = vec.len();
    let label_hash = fnv1a64(&label.to_le_bytes());
    let spare = &mut vec.spare_capacity_mut()[..total];
    let mut index = first;
    // Four pages per group: the four split-offs below, the four states,
    // and the remainder's `pages % 4` all follow from this one width.
    let mut groups = spare.chunks_exact_mut(4 * page_bytes);
    for group in &mut groups {
        let mut states: [u64; 4] =
            std::array::from_fn(|lane| fill_seed(label_hash, index.wrapping_add(lane as u64)));
        let (p0, rest) = group.split_at_mut(page_bytes);
        let (p1, rest) = rest.split_at_mut(page_bytes);
        let (p2, p3) = rest.split_at_mut(page_bytes);
        let words = p0
            .chunks_exact_mut(8)
            .zip(p1.chunks_exact_mut(8))
            .zip(p2.chunks_exact_mut(8))
            .zip(p3.chunks_exact_mut(8));
        for (((w0, w1), w2), w3) in words {
            for (lane, word) in [w0, w1, w2, w3].into_iter().enumerate() {
                write_word(word, fill_step(&mut states[lane]));
            }
        }
        index = index.wrapping_add(4);
    }
    for page in groups.into_remainder().chunks_exact_mut(page_bytes) {
        let mut state = fill_seed(label_hash, index);
        for word in page.chunks_exact_mut(8) {
            write_word(word, fill_step(&mut state));
        }
        index = index.wrapping_add(1);
    }
    // SAFETY: `reserve` made room for `total` bytes past `start`. Those
    // bytes, `spare`, are `pages` pages of `page_bytes`, a non-zero multiple
    // of eight (asserted above): the groups hold four pages each, the
    // remainder the last `pages % 4`, and each page splits into whole words
    // (the four of a group equally long, so the zip visits every word of
    // each). `write_word` initializes all eight bytes of every word it is
    // given, so all of `start..start + total` is initialized.
    unsafe { vec.set_len(start + total) };
}

/// Writes `value`'s little-endian bytes over one 8-byte word of spare
/// capacity.
#[inline(always)]
fn write_word(word: &mut [MaybeUninit<u8>], value: u64) {
    let word: &mut [MaybeUninit<u8>; 8] = word.try_into().expect("8-byte word");
    *word = value.to_le_bytes().map(MaybeUninit::new);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_known_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn streaming_matches_oneshot() {
        let data: Vec<u8> = (0u16..1000).map(|i| (i % 251) as u8).collect();
        for split in [0, 1, 7, 500, 999, 1000] {
            let mut h = Fnv1a64::new();
            h.write(&data[..split]);
            h.write(&data[split..]);
            assert_eq!(h.finish(), fnv1a64(&data), "split at {split}");
        }
    }

    #[test]
    fn word_feed_matches_legacy_inline_fingerprint() {
        // The buddy allocator's state_fingerprint used to carry this loop
        // inline; pin the streaming hasher against a re-derivation of it.
        let words: Vec<u64> = (0..64u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (i << 56)).collect();
        let mut legacy: u64 = 0xcbf2_9ce4_8422_2325;
        for &w in &words {
            legacy ^= w;
            legacy = legacy.wrapping_mul(0x0000_0100_0000_01B3);
        }
        let mut h = Fnv1a64::new();
        for &w in &words {
            h.write_u64_word(w);
        }
        assert_eq!(h.finish(), legacy);
    }

    #[test]
    fn word_hash_matches_frame_cache_derivation_and_not_canonical_fnv() {
        // The frame cache's private `content_hash` carried this loop; its
        // dedup keys (and the artifact digests) must not move.
        let data: Vec<u8> = (0..4097u32).map(|i| (i.wrapping_mul(31) >> 3) as u8).collect();
        for len in (0..=17).chain([4095, 4096, 4097]) {
            let bytes = &data[..len];
            let mut legacy = FNV_OFFSET;
            for w in bytes[..len - len % 8].chunks(8) {
                legacy ^= u64::from_le_bytes(w.try_into().unwrap());
                legacy = legacy.wrapping_mul(FNV_PRIME);
            }
            for &b in &bytes[len - len % 8..] {
                legacy ^= b as u64;
                legacy = legacy.wrapping_mul(FNV_PRIME);
            }
            assert_eq!(fnv1a64_words(bytes), legacy, "len {len}");
        }
        // Below one word the two feeds coincide; from 8 bytes on they do
        // not, so the word feed can never stand in for a persisted checksum.
        assert_eq!(fnv1a64_words(&data[..7]), fnv1a64(&data[..7]));
        assert_ne!(fnv1a64_words(&data[..8]), fnv1a64(&data[..8]));
    }

    #[test]
    fn hasher_feeds_each_u64_as_one_word() {
        use std::hash::{BuildHasher, BuildHasherDefault};
        let key = (7u64, 0x1234_5678_9abc_def0u64);
        let mut words = Fnv1a64::new();
        words.write_u64_word(key.0);
        words.write_u64_word(key.1);
        let built = BuildHasherDefault::<Fnv1a64>::default().hash_one(key);
        assert_eq!(built, words.finish());
    }

    #[test]
    fn splitmix_stateful_equals_pure() {
        let mut state = 0xDEAD_BEEF_u64;
        for _ in 0..32 {
            let before = state;
            let via_next = splitmix64_next(&mut state);
            assert_eq!(via_next, splitmix64(before));
            assert_eq!(state, before.wrapping_add(0x9E37_79B9_7F4A_7C15));
        }
    }

    #[test]
    fn splitmix_known_stream() {
        // Reference outputs of the classic splitmix64 seeded with 0: the
        // published test vector from Vigna's implementation.
        let mut state = 0u64;
        let first = splitmix64_next(&mut state);
        let second = splitmix64_next(&mut state);
        assert_eq!(first, 0xE220_A839_7B1D_CDAF);
        assert_eq!(second, 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn fill_is_deterministic_and_distinct() {
        let mut a = [0u8; 256];
        let mut b = [0u8; 256];
        fill_deterministic(&mut a, 7, 42);
        fill_deterministic(&mut b, 7, 42);
        assert_eq!(a, b);
        fill_deterministic(&mut b, 7, 43);
        assert_ne!(a.to_vec(), b.to_vec());
    }
}
