//! The LRU command cache (Section V-A).
//!
//! "The sequences of graphics commands to generate consecutive frames tend
//! to contain huge similarities. … We eliminate the redundancy by applying
//! the LRU caching algorithm; the system caches the latest and frequent
//! commands on the user device and the service device. Thereby, the user
//! device can skip transmitting the commands which are cached."
//!
//! [`Lru`] is a constant-time LRU keyed by a 64-bit hash of the encoded
//! command. The sender checks the cache before transmitting: a hit
//! becomes a tiny [`CacheToken::Ref`]; a miss inserts and sends the full
//! bytes. Because both ends apply the *same* deterministic update rule,
//! the receiver's cache stays synchronized and can expand references —
//! verified by the mirror tests below.
//!
//! The update rule reads only keys, so each end chooses what an entry
//! holds. [`CommandCache`] holds the encoded bytes; an end that never
//! reads them back keeps less, such as a sender that keeps only their
//! length or a receiver that keeps the command it decoded from them.

use std::collections::HashMap;

use gbooster_sim::hash::{fnv1a, FNV1A_OFFSET};
use gbooster_telemetry::{names, Counter, Registry};

/// What the sender should transmit for one command.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CacheToken {
    /// Receiver already holds these bytes: send only the 8-byte key.
    Ref(u64),
    /// New content: send the full payload (receiver will cache it too).
    Full(Vec<u8>),
}

impl CacheToken {
    /// Bytes this token costs on the wire (1 tag byte + body).
    pub fn wire_bytes(&self) -> usize {
        match self {
            CacheToken::Ref(_) => 1 + 8,
            CacheToken::Full(data) => 1 + 4 + data.len(),
        }
    }
}

/// Doubly-linked-list node indices for O(1) LRU maintenance.
const NIL: usize = usize::MAX;

#[derive(Clone)]
struct Node<V> {
    key: u64,
    value: V,
    prev: usize,
    next: usize,
}

/// A fixed-capacity LRU cache of commands, keyed by the content hash of
/// their encoding, whose entries hold a `V` each.
///
/// The cache is `Clone`: a rejoining service device is brought current
/// by copying a synchronized peer's cache state in one resync transfer
/// instead of replaying the whole token history.
#[derive(Clone)]
pub struct Lru<V> {
    capacity: usize,
    map: HashMap<u64, usize>,
    /// Every entry, each in the slot it was inserted into; a full
    /// cache's insert reuses the least recently used entry's slot.
    nodes: Vec<Node<V>>,
    head: usize, // most recent
    tail: usize, // least recent
    hits: u64,
    misses: u64,
    counters: Option<(Counter, Counter)>,
}

/// The LRU cache of encoded commands: each entry holds the bytes.
///
/// # Examples
///
/// ```
/// use gbooster_codec::lru::{CacheToken, CommandCache};
///
/// let mut sender = CommandCache::new(128);
/// let cmd = b"glUseProgram(3)".to_vec();
/// assert!(matches!(sender.offer(&cmd), CacheToken::Full(_)));
/// assert!(matches!(sender.offer(&cmd), CacheToken::Ref(_)));
/// ```
pub type CommandCache = Lru<Vec<u8>>;

impl<V> std::fmt::Debug for Lru<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Lru")
            .field("capacity", &self.capacity)
            .field("len", &self.map.len())
            .field("hits", &self.hits)
            .field("misses", &self.misses)
            .finish()
    }
}

/// Stable 64-bit content hash (FNV-1a) used as the cache key.
pub fn content_key(bytes: &[u8]) -> u64 {
    fnv1a(FNV1A_OFFSET, bytes)
}

impl<V> Lru<V> {
    /// Creates a cache holding at most `capacity` distinct commands.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be nonzero");
        Lru {
            capacity,
            map: HashMap::with_capacity(capacity),
            nodes: Vec::with_capacity(capacity),
            head: NIL,
            tail: NIL,
            hits: 0,
            misses: 0,
            counters: None,
        }
    }

    /// Mirrors hit/miss events into `registry` (under
    /// [`names::forward::CACHE_HITS`] / `CACHE_MISSES`) from now on;
    /// prior events are backfilled so the counters always equal
    /// [`Lru::hits`] / [`Lru::misses`]. Attach only on the sender side —
    /// the receiver replays the same token stream and would double-count.
    pub fn attach_registry(&mut self, registry: &Registry) {
        let hits = registry.counter(names::forward::CACHE_HITS);
        let misses = registry.counter(names::forward::CACHE_MISSES);
        hits.add(self.hits);
        misses.add(self.misses);
        self.counters = Some((hits, misses));
    }

    /// Sender side: offers the command encoded as `encoded`. Returns the
    /// key to send as a [`CacheToken::Ref`] on a hit. On a miss, caches
    /// `value()` and returns `None`: the caller sends `encoded` itself as
    /// the full body.
    pub fn offer_with(&mut self, encoded: &[u8], value: impl FnOnce() -> V) -> Option<u64> {
        gbooster_telemetry::prof_alloc_scope!(names::host::CACHE);
        let key = content_key(encoded);
        if let Some(&idx) = self.map.get(&key) {
            self.hits += 1;
            if let Some((hits, _)) = &self.counters {
                hits.inc();
            }
            self.touch(idx);
            Some(key)
        } else {
            self.misses += 1;
            if let Some((_, misses)) = &self.counters {
                misses.inc();
            }
            self.insert(key, value());
            None
        }
    }

    /// Receiver side of a [`CacheToken::Ref`]: the entry cached under
    /// `key`, now the most recently used, or `None` when this cache does
    /// not hold `key` — a protocol desynchronization (impossible when
    /// both sides start empty and see the same token stream).
    pub fn get(&mut self, key: u64) -> Option<&V> {
        gbooster_telemetry::prof_alloc_scope!(names::host::CACHE);
        let idx = *self.map.get(&key)?;
        self.touch(idx);
        Some(&self.nodes[idx].value)
    }

    /// Receiver side of a [`CacheToken::Full`] body: caches `value()`
    /// under `data`'s key unless that key is already held, in which case
    /// the held entry becomes the most recently used.
    pub fn accept_full_with(&mut self, data: &[u8], value: impl FnOnce() -> V) {
        gbooster_telemetry::prof_alloc_scope!(names::host::CACHE);
        let key = content_key(data);
        if let Some(&idx) = self.map.get(&key) {
            self.touch(idx);
        } else {
            self.insert(key, value());
        }
    }

    /// Current number of cached commands.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Lifetime hit count.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lifetime miss count.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit rate in `[0, 1]` (0 when nothing was offered).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Every cached entry, in no particular order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.nodes.iter().map(|node| &node.value)
    }

    fn insert(&mut self, key: u64, value: V) {
        let node = Node {
            key,
            value,
            prev: NIL,
            next: NIL,
        };
        let idx = if self.map.len() == self.capacity {
            // Full: the least recently used entry gives up its slot.
            let lru = self.tail;
            self.unlink(lru);
            self.map.remove(&self.nodes[lru].key);
            self.nodes[lru] = node;
            lru
        } else {
            self.nodes.push(node);
            self.nodes.len() - 1
        };
        self.push_front(idx);
        self.map.insert(key, idx);
    }

    fn touch(&mut self, idx: usize) {
        if self.head == idx {
            return;
        }
        self.unlink(idx);
        self.push_front(idx);
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.nodes[idx].prev, self.nodes[idx].next);
        if prev != NIL {
            self.nodes[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next].prev = prev;
        } else {
            self.tail = prev;
        }
        self.nodes[idx].prev = NIL;
        self.nodes[idx].next = NIL;
    }

    fn push_front(&mut self, idx: usize) {
        self.nodes[idx].prev = NIL;
        self.nodes[idx].next = self.head;
        if self.head != NIL {
            self.nodes[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }
}

impl CommandCache {
    /// Sender side: offers a command for transmission. Returns the token
    /// to put on the wire and updates the cache deterministically.
    pub fn offer(&mut self, encoded: &[u8]) -> CacheToken {
        match self.offer_ref(encoded) {
            Some(key) => CacheToken::Ref(key),
            None => CacheToken::Full(encoded.to_vec()),
        }
    }

    /// [`Self::offer`] without building the token: returns the key to
    /// send as a [`CacheToken::Ref`] on a hit, and `None` on a miss, when
    /// the caller sends `encoded` itself as the full body.
    pub fn offer_ref(&mut self, encoded: &[u8]) -> Option<u64> {
        self.offer_with(encoded, || encoded.to_vec())
    }

    /// Receiver side of a [`CacheToken::Ref`]: the cached bytes, borrowed,
    /// or `None` when this cache does not hold `key` (see [`Lru::get`]).
    pub fn accept_ref(&mut self, key: u64) -> Option<&[u8]> {
        self.get(key).map(Vec::as_slice)
    }

    /// Receiver side of a [`CacheToken::Full`] body: caches a copy of
    /// `data` unless it is already held.
    pub fn accept_full(&mut self, data: &[u8]) {
        self.accept_full_with(data, || data.to_vec());
    }

    /// Bytes resident in cached values (memory-overhead accounting).
    pub fn resident_bytes(&self) -> usize {
        self.values().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn second_offer_is_a_ref() {
        let mut c = CommandCache::new(4);
        let cmd = b"cmd".to_vec();
        assert!(matches!(c.offer(&cmd), CacheToken::Full(_)));
        let tok = c.offer(&cmd);
        assert_eq!(tok, CacheToken::Ref(content_key(&cmd)));
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
        assert!((c.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = CommandCache::new(2);
        c.offer(b"a");
        c.offer(b"b");
        c.offer(b"a"); // refresh a; b is now LRU
        c.offer(b"c"); // evicts b
        assert!(matches!(c.offer(b"a"), CacheToken::Ref(_)));
        assert!(matches!(c.offer(b"c"), CacheToken::Ref(_)));
        assert!(matches!(c.offer(b"b"), CacheToken::Full(_)), "b evicted");
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn sender_and_receiver_stay_synchronized() {
        let mut sender = CommandCache::new(8);
        let mut receiver = CommandCache::new(8);
        // A realistic command mix: 20 distinct commands, heavy reuse,
        // enough distinct values to force evictions on both sides.
        let commands: Vec<Vec<u8>> = (0..20u8).map(|i| vec![i; 10]).collect();
        let mut order = Vec::new();
        for round in 0..10usize {
            for (i, cmd) in commands.iter().enumerate() {
                if (i + round) % 3 != 0 {
                    order.push(cmd.clone());
                }
            }
        }
        for cmd in &order {
            match sender.offer_ref(cmd) {
                Some(key) => assert_eq!(
                    receiver.accept_ref(key),
                    Some(cmd.as_slice()),
                    "receiver must expand every ref"
                ),
                None => receiver.accept_full(cmd),
            }
        }
        assert_eq!(sender.len(), receiver.len());
    }

    #[test]
    fn ref_for_unknown_key_is_detected() {
        let mut receiver = CommandCache::new(4);
        assert_eq!(receiver.accept_ref(0xdead), None);
    }

    #[test]
    fn wire_bytes_reflect_savings() {
        let full = CacheToken::Full(vec![0u8; 1000]);
        let r = CacheToken::Ref(42);
        assert_eq!(full.wire_bytes(), 1005);
        assert_eq!(r.wire_bytes(), 9);
    }

    #[test]
    fn resident_bytes_bounded_by_capacity() {
        let mut c = CommandCache::new(3);
        for i in 0..100u32 {
            c.offer(&i.to_le_bytes());
        }
        assert_eq!(c.len(), 3);
        assert_eq!(c.resident_bytes(), 12);
    }

    #[test]
    fn hit_rate_on_frame_like_reuse_is_high() {
        // 50 commands per frame, 95% identical across frames: the paper's
        // "huge similarities" scenario.
        let mut c = CommandCache::new(256);
        let stable: Vec<Vec<u8>> = (0..48u8).map(|i| vec![i; 16]).collect();
        for frame in 0..100u32 {
            for cmd in &stable {
                c.offer(cmd);
            }
            // Two volatile commands per frame.
            c.offer(&frame.to_le_bytes());
            c.offer(&(frame * 7 + 1).to_le_bytes());
        }
        assert!(c.hit_rate() > 0.9, "hit rate {}", c.hit_rate());
    }

    #[test]
    #[should_panic(expected = "capacity must be nonzero")]
    fn zero_capacity_panics() {
        let _ = CommandCache::new(0);
    }

    #[test]
    fn cloned_receiver_cache_tracks_the_sender_from_the_clone_point() {
        let mut sender = CommandCache::new(32);
        let mut receiver = CommandCache::new(32);
        for i in 0..20u8 {
            assert_eq!(sender.offer_ref(&[i; 6]), None);
            receiver.accept_full(&[i; 6]);
        }
        // A late joiner cloned from the live receiver must expand every
        // subsequent token, including refs to pre-clone content.
        let mut joiner = receiver.clone();
        for i in 0..20u8 {
            let key = sender.offer_ref(&[i; 6]).expect("a ref");
            assert_eq!(joiner.accept_ref(key), Some(&[i; 6][..]));
        }
        assert_eq!(joiner.len(), sender.len());
    }
}
