//! The candidate memo: each search candidate generated and certified
//! once per engine.
//!
//! In Phase 2 every search point is generated, statically certified and
//! then measured. The engine's point memo makes repeated *measurements*
//! free; this memo does the same for the two pure steps before them, so
//! a warm engine (the `eco serve` daemon re-tuning a request it has seen)
//! skips generation and certification entirely.
//!
//! * **Key.** A 128-bit [`CandidateKey`] over the candidate's recipe
//!   (kernel, variant, parameter values, prefetch plan), built with
//!   [`CandidateHasher`]. The machine is implied: a memo belongs to one
//!   engine, and an engine simulates one machine.
//! * **Value.** The generated program as a [`SharedProgram`] (behind an
//!   [`Arc`], with its fingerprint computed once at generation), or
//!   `None` when generation was infeasible; certification verdicts sit
//!   in a second table keyed by candidate *and* tuning-size list. The
//!   search submits the held program itself for measurement
//!   ([`Evaluator::eval_shared`](crate::Evaluator::eval_shared)), so a
//!   warm re-tune neither copies nor re-fingerprints a candidate.
//! * **Locking.** A lock is held only to look up or insert an `Arc`.
//!   Two concurrent first sights may both generate; generation is pure,
//!   so that costs time but never changes an answer, and the first
//!   insert wins for both callers.

use crate::engine::SharedProgram;
use eco_events::Fnv64;
use eco_ir::Program;
use eco_metrics::{Counter, Registry};
use eco_sched::sync::{labeled_mutex, Arc, Mutex};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// Content identity of one search candidate: two FNV-1a lanes with
/// distinct offset bases over the same recipe bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CandidateKey(u64, u64);

impl CandidateKey {
    /// This key extended with more recipe parts (e.g. a tuning-size
    /// list).
    #[must_use]
    pub fn extended(self, part: impl Hash) -> CandidateKey {
        let mut h = CandidateHasher::new();
        self.hash(&mut h);
        part.hash(&mut h);
        h.key()
    }
}

/// Builds a [`CandidateKey`]: feed the recipe through [`Hasher`], then
/// take [`key`](Self::key). Cloning a hasher forks its state, so a
/// caller can hash a shared prefix (kernel, variant) once and extend it
/// per candidate.
#[derive(Debug, Clone)]
pub struct CandidateHasher(Fnv64, Fnv64);

impl CandidateHasher {
    /// A hasher with nothing fed yet.
    pub fn new() -> Self {
        let mut salted = Fnv64::new();
        salted.write(b"eco.candidate");
        CandidateHasher(Fnv64::new(), salted)
    }

    /// The key of everything fed so far.
    pub fn key(&self) -> CandidateKey {
        CandidateKey(self.0.finish(), self.1.finish())
    }
}

impl Default for CandidateHasher {
    fn default() -> Self {
        CandidateHasher::new()
    }
}

impl Hasher for CandidateHasher {
    fn finish(&self) -> u64 {
        self.0.finish()
    }

    fn write(&mut self, bytes: &[u8]) {
        self.0.write(bytes);
        self.1.write(bytes);
    }
}

/// Why the certifier rejected a candidate: the first error's code and
/// message, and the tuning size it was found at — the fields of the
/// search's `certify` event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rejection {
    /// Stable diagnostic code (`ECO-E001` ...).
    pub code: &'static str,
    /// The diagnostic's message.
    pub msg: String,
    /// The tuning size the error was found at.
    pub n: i64,
}

/// A certification verdict: `None` when the candidate certified clean
/// at every tuning size.
pub type Verdict = Option<Arc<Rejection>>;

/// One engine's memo of generated and certified search candidates.
/// Entries are never replaced or removed, so a key, once seen, answers
/// the same forever.
#[derive(Debug)]
pub struct CandidateMemo {
    programs: Mutex<HashMap<CandidateKey, Option<SharedProgram>>>,
    verdicts: Mutex<HashMap<CandidateKey, Verdict>>,
    lookups: Arc<Counter>,
    hits: Arc<Counter>,
}

impl Default for CandidateMemo {
    fn default() -> Self {
        CandidateMemo::new()
    }
}

/// The value under `key`, computed by `make` and inserted on a miss
/// (first insert wins). The bool is true on a hit.
fn get_or_insert<V: Clone>(
    map: &Mutex<HashMap<CandidateKey, V>>,
    key: CandidateKey,
    make: impl FnOnce() -> V,
) -> (V, bool) {
    if let Some(v) = map.lock().expect("candidate memo lock").get(&key) {
        return (v.clone(), true);
    }
    let v = make();
    let mut map = map.lock().expect("candidate memo lock");
    (map.entry(key).or_insert(v).clone(), false)
}

impl CandidateMemo {
    /// An empty memo, counting into the process-wide metrics registry.
    pub fn new() -> Self {
        let r = Registry::global();
        CandidateMemo {
            programs: labeled_mutex("engine.candidates", HashMap::new()),
            verdicts: labeled_mutex("engine.verdicts", HashMap::new()),
            lookups: r.counter(
                "eco_engine_candidate_lookups_total",
                "Search candidates looked up on a search's first sight.",
                &[],
            ),
            hits: r.counter(
                "eco_engine_candidate_hits_total",
                "Candidate lookups served without generating.",
                &[],
            ),
        }
    }

    /// The candidate under `key`, running `generate` on a miss (`None`
    /// = infeasible). Counted as one lookup, and one hit when the
    /// candidate was already memoized: a search calls this on its
    /// first sight of a candidate, so hits measure reuse *across*
    /// searches.
    pub fn program(
        &self,
        key: CandidateKey,
        generate: impl FnOnce() -> Option<Program>,
    ) -> Option<SharedProgram> {
        let (program, hit) =
            get_or_insert(&self.programs, key, || generate().map(SharedProgram::new));
        self.lookups.inc();
        if hit {
            self.hits.inc();
        }
        program
    }

    /// A candidate this memo already holds, uncounted: a search
    /// revisiting a point it looked up before. `None` when the key was
    /// never looked up.
    pub fn get(&self, key: CandidateKey) -> Option<Option<SharedProgram>> {
        self.programs
            .lock()
            .expect("candidate memo lock")
            .get(&key)
            .cloned()
    }

    /// The verdict under `key` (a candidate key extended with the
    /// tuning-size list), running `certify` on a miss.
    pub fn verdict(&self, key: CandidateKey, certify: impl FnOnce() -> Verdict) -> Verdict {
        get_or_insert(&self.verdicts, key, certify).0
    }

    /// Every feasible candidate held, in no particular order: a
    /// snapshot of handles to the memo's own programs.
    pub fn programs(&self) -> Vec<SharedProgram> {
        let programs = self.programs.lock().expect("candidate memo lock");
        programs.values().flatten().cloned().collect()
    }

    /// Number of distinct candidates held.
    pub fn len(&self) -> usize {
        self.programs.lock().expect("candidate memo lock").len()
    }

    /// True when no candidate has been looked up yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key_of(part: impl Hash) -> CandidateKey {
        let mut h = CandidateHasher::new();
        part.hash(&mut h);
        h.key()
    }

    #[test]
    fn first_insert_wins_and_hits_are_reported() {
        let memo = CandidateMemo::new();
        let k = key_of("a");
        let first = memo.program(k, || Some(Program::new("first")));
        let second = memo.program(k, || panic!("a hit never regenerates"));
        let first = first.expect("feasible");
        assert_eq!(first.name, "first");
        assert_eq!(
            crate::JobProgram::fingerprint(&first),
            crate::program_fingerprint(&first),
            "fingerprinted once, at generation"
        );
        let held = memo.get(k).flatten().expect("held");
        assert!(Arc::ptr_eq(second.expect("feasible").arc(), held.arc()));
        assert!(memo.program(key_of("b"), || None).is_none(), "infeasible");
        assert!(matches!(memo.get(key_of("b")), Some(None)), "memoized");
        assert!(memo.get(key_of("c")).is_none(), "never looked up");
        assert_eq!(memo.len(), 2);
        let programs = memo.programs();
        assert_eq!(programs.len(), 1, "infeasible entries hold no program");
        assert!(Arc::ptr_eq(programs[0].arc(), held.arc()));
    }

    #[test]
    fn verdicts_are_keyed_per_size_list() {
        let memo = CandidateMemo::new();
        let k = key_of("cand");
        let reject = Rejection {
            code: "ECO-E001",
            msg: "out of bounds".into(),
            n: 31,
        };
        let a = memo.verdict(k.extended([16i64, 31]), || Some(Arc::new(reject.clone())));
        let b = memo.verdict(k.extended([16i64]), || None);
        assert_eq!(a.as_deref(), Some(&reject));
        assert_eq!(b, None, "a different size list never shares a verdict");
        let again = memo.verdict(k.extended([16i64, 31]), || panic!("memoized"));
        assert_eq!(again.as_deref(), Some(&reject));
    }

    #[test]
    fn hasher_lanes_differ_and_prefixes_fork() {
        let k = key_of(42u64);
        assert_ne!(k.0, k.1);
        let mut prefix = CandidateHasher::new();
        "variant".hash(&mut prefix);
        let mut a = prefix.clone();
        1u64.hash(&mut a);
        let mut b = prefix;
        2u64.hash(&mut b);
        assert_ne!(a.key(), b.key());
    }
}
