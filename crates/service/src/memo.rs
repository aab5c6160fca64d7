//! A bounded memo of decoded instances, keyed by their exact bytes.
//!
//! The PMF cache (see `cache.rs`) spares a repeated `(Instance, ε)` its
//! schedule build, but not its decode: a cached `run_auction` line of a
//! Setting I, N = 560 instance still pays 1–1.7 ms to parse and validate
//! 365 KB of JSON and ≈ 0.07 ms to digest the result, for an instance
//! the service decoded before. [`DecodeMemo`] keeps, for recently decoded
//! `run_auction` and `query_pmf` lines, the exact bytes of the `instance`
//! value, the validated [`Instance`] and its digest.
//!
//! A line that begins with its request kind's compact prefix,
//! `{"type":"run_auction","instance":` or `{"type":"query_pmf","instance":`,
//! followed by an entry's bytes carries that entry's instance: a JSON
//! object ends at its own closing brace, and the one-pass reader reads the
//! same bytes the same way, so those bytes are the whole `instance` value
//! and not the start of a longer one. Bytes are compared, not hashes, so
//! nothing can collide. Such a line skips the parse, `Instance::validate`
//! and the digest; only the members after the instance
//! (`,"epsilon":…,"seed":…}`) are read, by a derived one-pass reader under
//! the rules the request's own reader applies to them. Anything else —
//! another member order, whitespace, a line the reader refuses — goes
//! through [`crate::decode_request`] itself, so every answer, error text
//! included, is the same.
//!
//! An instance is memoised on its second sighting among the last
//! `capacity` instances decoded in full, so traffic that does not repeat
//! within that window pays no copy. The memo holds at most `capacity`
//! entries (the service passes its `cache_capacity`; zero disables it)
//! and at most [`MAX_LINE_BYTES`] of instance bytes, evicting the least
//! recently used entry first. Candidates are compared outside the lock.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use serde::Deserialize;

use mcs_types::Instance;

use crate::cache::CacheKey;
use crate::tcp::MAX_LINE_BYTES;
use crate::wire::{decode_request_spanned, Request, WireError};

/// The request kinds whose instance is memoised, by their compact prefix.
#[derive(Debug, Clone, Copy)]
enum Kind {
    RunAuction,
    QueryPmf,
}

impl Kind {
    const ALL: [Kind; 2] = [Kind::RunAuction, Kind::QueryPmf];

    /// The bytes that open a line of this kind written compactly, up to the
    /// `instance` value.
    fn prefix(self) -> &'static str {
        match self {
            Kind::RunAuction => r#"{"type":"run_auction","instance":"#,
            Kind::QueryPmf => r#"{"type":"query_pmf","instance":"#,
        }
    }

    /// The kind whose prefix opens `line`, with the rest of the line.
    fn split(line: &str) -> Option<(Kind, &str)> {
        Kind::ALL
            .into_iter()
            .find_map(|kind| Some((kind, line.strip_prefix(kind.prefix())?)))
    }

    /// Reads the members that follow the instance, `,"epsilon":…}`, as
    /// the object `{"epsilon":…}`. Inside the line the request's reader
    /// takes each member once, in any order, and no other key; the derived
    /// readers below apply those rules to the same bytes, at the same
    /// depth. The one difference, a trailing comma (`,}` would become
    /// `{}`), is refused here.
    fn read_tail(self, tail: &str, instance: &Instance) -> Option<Request> {
        let members = tail.strip_prefix(',')?;
        if members.trim_start().starts_with('}') {
            return None;
        }
        let object = format!("{{{members}");
        Some(match self {
            Kind::RunAuction => {
                let AuctionTail { epsilon, seed } = serde::read_document(&object)?;
                Request::RunAuction {
                    instance: instance.clone(),
                    epsilon,
                    seed,
                }
            }
            Kind::QueryPmf => {
                let PmfTail { epsilon } = serde::read_document(&object)?;
                Request::QueryPmf {
                    instance: instance.clone(),
                    epsilon,
                }
            }
        })
    }
}

/// The members of a `run_auction` line after its instance.
#[derive(Deserialize)]
struct AuctionTail {
    epsilon: f64,
    seed: u64,
}

/// The members of a `query_pmf` line after its instance.
#[derive(Deserialize)]
struct PmfTail {
    epsilon: f64,
}

struct Entry {
    /// The `instance` value exactly as a line carried it.
    bytes: Box<[u8]>,
    instance: Instance,
    digest: u64,
    last_used: AtomicU64,
}

struct Entries {
    entries: Vec<Arc<Entry>>,
    /// Sum of the entries' `bytes` lengths.
    bytes: usize,
    /// Digests of the last `capacity` instances decoded in full and not
    /// memoised, oldest first.
    seen: VecDeque<u64>,
}

/// A bounded LRU memo from the exact bytes of a decoded `instance` value
/// to the validated [`Instance`] and its digest. See the module docs for
/// why a byte match is exact.
pub struct DecodeMemo {
    capacity: usize,
    /// The bound on the entries' total bytes: [`DecodeMemo::MAX_BYTES`]
    /// outside tests.
    max_bytes: usize,
    inner: Mutex<Entries>,
    tick: AtomicU64,
    hits: AtomicU64,
}

impl DecodeMemo {
    /// The most instance bytes the memo holds: one maximal request line.
    pub const MAX_BYTES: usize = MAX_LINE_BYTES;

    /// Creates a memo holding at most `capacity` instances; zero disables
    /// it, so every line is decoded in full.
    pub fn new(capacity: usize) -> Self {
        Self::bounded(capacity, Self::MAX_BYTES)
    }

    fn bounded(capacity: usize, max_bytes: usize) -> Self {
        DecodeMemo {
            capacity,
            max_bytes,
            inner: Mutex::new(Entries {
                entries: Vec::new(),
                bytes: 0,
                seen: VecDeque::new(),
            }),
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
        }
    }

    /// Decodes one request line exactly as [`crate::decode_request`]
    /// does, with the request's cache key: `Some` for `run_auction` and
    /// `query_pmf`, `None` for every other request.
    ///
    /// A line carrying a memoised instance costs a byte comparison and a
    /// clone instead of a parse, a validation and a digest. An instance
    /// decoded in full after its compact prefix is memoised on its second
    /// sighting among the last `capacity` instances decoded in full.
    ///
    /// # Errors
    ///
    /// [`crate::decode_request`]'s error for the line.
    pub fn decode(&self, line: &str) -> Result<(Request, Option<CacheKey>), WireError> {
        let kind = if self.capacity == 0 {
            None
        } else {
            Kind::split(line)
        };
        if let Some((kind, rest)) = kind {
            if let Some((request, key)) = self.lookup(kind, rest) {
                return Ok((request, Some(key)));
            }
        }
        let (request, span) = decode_request_spanned(line)?;
        let Some((instance, epsilon)) = request.pmf_input() else {
            return Ok((request, None));
        };
        let digest = instance.digest();
        if let (Some((kind, _)), Some(span)) = (kind, span) {
            if span.start == kind.prefix().len() && self.seen_before(digest) {
                self.insert(&line.as_bytes()[span], instance, digest);
            }
        }
        let key = CacheKey::from_digest(digest, epsilon);
        Ok((request, Some(key)))
    }

    /// The request `rest` (a line after `kind`'s prefix) holds, if it
    /// starts with a memoised instance and its remaining members read.
    fn lookup(&self, kind: Kind, rest: &str) -> Option<(Request, CacheKey)> {
        let rest_bytes = rest.as_bytes();
        // Only an entry followed by a comma can be the whole value; the
        // bytes are compared after the lock is released.
        let candidates: Vec<Arc<Entry>> = self
            .entries()
            .entries
            .iter()
            .filter(|e| rest_bytes.get(e.bytes.len()) == Some(&b','))
            .cloned()
            .collect();
        let entry = candidates
            .into_iter()
            .find(|e| rest_bytes.starts_with(&e.bytes))?;
        let request = kind.read_tail(rest.get(entry.bytes.len()..)?, &entry.instance)?;
        entry.last_used.store(self.next_tick(), Ordering::Relaxed);
        self.hits.fetch_add(1, Ordering::Relaxed);
        let (_, epsilon) = request.pmf_input()?;
        Some((request, CacheKey::from_digest(entry.digest, epsilon)))
    }

    /// Whether an instance with `digest` was decoded in full among the
    /// last `capacity` such instances; if not, it now has been.
    ///
    /// Memoising on the first sighting would copy every instance, and one
    /// that does not recur before `capacity` others are decoded is evicted
    /// before it can be served. On traffic that never repeats within the
    /// window (the benchmark's `miss` cycles 64 instances through 32
    /// slots) those copies, clones and evictions of cold entries slowed
    /// every request. Waiting for the second sighting costs one more full
    /// decode per instance that does recur. The digest only selects what
    /// to copy; a hit still compares the bytes.
    fn seen_before(&self, digest: u64) -> bool {
        let mut inner = self.entries();
        if let Some(at) = inner.seen.iter().position(|&d| d == digest) {
            inner.seen.remove(at);
            return true;
        }
        inner.seen.push_back(digest);
        if inner.seen.len() > self.capacity {
            inner.seen.pop_front();
        }
        false
    }

    /// Memoises `instance`, decoded from `bytes`, then evicts least
    /// recently used entries until both bounds hold.
    fn insert(&self, bytes: &[u8], instance: &Instance, digest: u64) {
        if bytes.len() > self.max_bytes {
            return;
        }
        let entry = Arc::new(Entry {
            bytes: bytes.into(),
            instance: instance.clone(),
            digest,
            last_used: AtomicU64::new(self.next_tick()),
        });
        // Declared before the guard, so that evicted instances are freed
        // after the lock is released.
        let mut evicted = Vec::new();
        let mut inner = self.entries();
        // The same bytes may already be in: a line whose tail the hit path
        // refused, or two connections decoding one new instance at once.
        if inner
            .entries
            .iter()
            .any(|e| e.digest == digest && e.bytes == entry.bytes)
        {
            return;
        }
        inner.bytes += entry.bytes.len();
        inner.entries.push(entry);
        while inner.entries.len() > self.capacity || inner.bytes > self.max_bytes {
            let oldest = inner
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_used.load(Ordering::Relaxed))
                .map(|(i, _)| i);
            let Some(oldest) = oldest else { break };
            let entry = inner.entries.swap_remove(oldest);
            inner.bytes -= entry.bytes.len();
            evicted.push(entry);
        }
    }

    /// Every update leaves the entries valid, so a poisoned lock is taken
    /// over.
    fn entries(&self) -> MutexGuard<'_, Entries> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Instances currently memoised.
    pub fn len(&self) -> usize {
        self.entries().entries.len()
    }

    /// Returns `true` when nothing is memoised.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Instance bytes currently held.
    pub fn bytes(&self) -> usize {
        self.entries().bytes
    }

    /// Lines served from the memo since construction.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::decode_request;
    use mcs_sim::Setting;

    fn instance(seed: u64) -> Instance {
        Setting::one(80).scaled_down(8).generate(seed).instance
    }

    fn auction(instance: &Instance, epsilon: f64, seed: u64) -> String {
        let request = Request::RunAuction {
            instance: instance.clone(),
            epsilon,
            seed,
        };
        serde_json::to_string(&request).expect("serialize")
    }

    fn pmf(instance: &Instance, epsilon: f64) -> String {
        let request = Request::QueryPmf {
            instance: instance.clone(),
            epsilon,
        };
        serde_json::to_string(&request).expect("serialize")
    }

    fn instance_bytes(instance: &Instance) -> usize {
        serde_json::to_string(instance).expect("serialize").len()
    }

    /// Decodes `line` through `memo`, requires [`decode_request`]'s answer
    /// and `Client::call`'s cache key, and returns the answer.
    fn decode(memo: &DecodeMemo, line: &str) -> Result<Request, WireError> {
        let reference = decode_request(line);
        match memo.decode(line) {
            Ok((request, key)) => {
                assert_eq!(Ok(&request), reference.as_ref(), "{line}");
                let expected = request.pmf_input().map(|(i, e)| CacheKey::new(i, e));
                assert_eq!(key, expected, "{line}");
            }
            Err(err) => assert_eq!(Err(&err), reference.as_ref(), "{line}"),
        }
        reference
    }

    #[test]
    fn a_repeated_instance_is_served_from_the_memo() {
        let memo = DecodeMemo::new(4);
        let inst = instance(1);
        // Memoised on its second sighting.
        decode(&memo, &auction(&inst, 0.1, 7)).expect("decodes");
        assert!(memo.is_empty());
        decode(&memo, &auction(&inst, 0.2, 5)).expect("decodes");
        assert_eq!((memo.hits(), memo.len()), (0, 1));
        assert_eq!(memo.bytes(), instance_bytes(&inst));
        // The same line, another seed and ε, and a `query_pmf` all hit.
        for line in [
            auction(&inst, 0.1, 7),
            auction(&inst, 0.3, 8),
            pmf(&inst, 0.1),
        ] {
            decode(&memo, &line).expect("decodes");
        }
        assert_eq!((memo.hits(), memo.len()), (3, 1));
        // Lines without an instance pass through.
        decode(&memo, r#"{"type":"health"}"#).expect("decodes");
        assert_eq!((memo.hits(), memo.len()), (3, 1));
    }

    #[test]
    fn edited_lines_decode_as_decode_request_does() {
        let memo = DecodeMemo::new(4);
        let inst = instance(2);
        let line = auction(&inst, 0.1, 7);
        for _ in 0..2 {
            decode(&memo, &line).expect("decodes");
        }
        let head = &line[..Kind::RunAuction.prefix().len() + instance_bytes(&inst)];
        let body = &head[Kind::RunAuction.prefix().len()..];
        assert_eq!(&line[head.len()..], r#","epsilon":0.1,"seed":7}"#);
        // The last θ digit sits before the `]` that closes `theta`.
        let theta = head.find(r#""theta":["#).expect("a dense θ");
        let last = theta + head[theta..].find(']').expect("θ closes") - 1;
        let digit = head.as_bytes()[last];
        let other = if digit == b'0' {
            '1'
        } else {
            (digit - 1) as char
        };
        let retouched = format!("{}{other}{}", &line[..last], &line[last + 1..]);
        // (line, served from the memo, decodes)
        let cases = [
            (format!(r#"{head},"seed":7,"epsilon":0.1}}"#), true, true),
            (
                format!(r#"{head}, "epsilon" : 0.1 ,"seed":7 }}"#),
                true,
                true,
            ),
            (
                format!(r#"{head},"epsilon":0.1,"seed":7,"note":1}}"#),
                false,
                true,
            ),
            (
                format!(r#"{head},"instance":{body},"epsilon":0.1,"seed":7}}"#),
                false,
                false,
            ),
            (
                format!(r#"{head},"epsilon":0.1,"epsilon":0.2,"seed":7}}"#),
                false,
                false,
            ),
            (
                format!(r#"{head},"type":"query_pmf","epsilon":0.1,"seed":7}}"#),
                false,
                false,
            ),
            (format!(r#"{head} ,"epsilon":0.1,"seed":7}}"#), false, true),
            (format!(r#"{head},"epsilon":0.1,"seed":7,}}"#), false, false),
            (format!(r#"{head},}}"#), false, false),
            (format!(r#"{head},"epsilon":0.1}}"#), false, false),
            (
                format!(r#"{head},"epsilon":1e999,"seed":7}}"#),
                false,
                false,
            ),
            (line[..head.len() / 2].to_string(), false, false),
            (line[..head.len()].to_string(), false, false),
            (retouched.clone(), false, true),
            // The whitespace edit's second sighting finds its bytes held.
            (format!(r#"{head} ,"epsilon":0.1,"seed":7}}"#), false, true),
            // The retouched θ is an instance of its own.
            (retouched.clone(), false, true),
            (retouched, true, true),
            (line, true, true),
        ];
        for (edited, served, decodes) in &cases {
            let hits = memo.hits();
            assert_eq!(decode(&memo, edited).is_ok(), *decodes, "{edited}");
            assert_eq!(memo.hits() - hits, u64::from(*served), "{edited}");
        }
        assert_eq!(memo.len(), 2);
        assert_eq!(memo.bytes(), 2 * instance_bytes(&inst));
    }

    #[test]
    fn the_least_recently_used_instance_goes_first() {
        let memo = DecodeMemo::new(2);
        let [a, b, c] = [3, 4, 5].map(instance);
        for inst in [&a, &a, &b, &b, &a, &c, &c] {
            decode(&memo, &auction(inst, 0.1, 1)).expect("decodes");
        }
        assert_eq!((memo.hits(), memo.len()), (1, 2));
        decode(&memo, &auction(&a, 0.1, 2)).expect("decodes");
        assert_eq!(memo.hits(), 2, "a was used after b");
        decode(&memo, &auction(&b, 0.1, 2)).expect("decodes");
        assert_eq!(memo.hits(), 2, "b was evicted");
        assert_eq!(memo.len(), 2);
    }

    #[test]
    fn an_instance_recurring_past_the_window_is_not_copied() {
        // Three instances cycled through a memo of two, as `miss` cycles
        // 64 through 32: each comes back after two others.
        let memo = DecodeMemo::new(2);
        let insts = [10, 11, 12].map(instance);
        for round in 0..3 {
            for inst in &insts {
                decode(&memo, &auction(inst, 0.1, round)).expect("decodes");
            }
        }
        assert_eq!((memo.hits(), memo.len()), (0, 0));
    }

    #[test]
    fn the_byte_bound_evicts_and_refuses() {
        let [a, b, c] = [6, 7, 8].map(instance);
        let total: usize = [&a, &b, &c].map(instance_bytes).iter().sum();
        let memo = DecodeMemo::bounded(8, total - 1);
        for inst in [&a, &a, &b, &b, &c, &c] {
            decode(&memo, &auction(inst, 0.1, 1)).expect("decodes");
        }
        assert_eq!(memo.len(), 2);
        assert_eq!(memo.bytes(), instance_bytes(&b) + instance_bytes(&c));
        decode(&memo, &auction(&a, 0.1, 1)).expect("decodes");
        assert_eq!(memo.hits(), 0, "a was evicted");
        // An instance over the bound is never held.
        let tight = DecodeMemo::bounded(8, instance_bytes(&a) - 1);
        for _ in 0..2 {
            decode(&tight, &auction(&a, 0.1, 1)).expect("decodes");
        }
        assert!(tight.is_empty());
    }

    #[test]
    fn zero_capacity_disables_the_memo() {
        let memo = DecodeMemo::new(0);
        let line = auction(&instance(9), 0.1, 1);
        for _ in 0..3 {
            decode(&memo, &line).expect("decodes");
        }
        assert_eq!((memo.hits(), memo.len(), memo.bytes()), (0, 0, 0));
    }
}
