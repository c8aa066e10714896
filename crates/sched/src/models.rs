//! Built-in checker models of the four hottest shared-state protocols in
//! the service layer. Each model is a faithful, self-contained port of the
//! real protocol's lock/condvar structure (the in-crate `eco_sched` tests
//! additionally drive the *real* code under `--cfg eco_sched`); running them
//! feeds the lock-order analysis and proves the clean protocols clean.
//!
//! `eco lint --sched` runs all four and renders the combined report.

use crate::diag::DiagCode;
use crate::model::{self, atomic::AtomicU64, atomic::Ordering, check, yield_point, Condvar, Mutex};
use crate::{explore, Config, Report};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// Outcome of one built-in model run.
#[derive(Debug, Clone)]
pub struct ModelReport {
    /// Stable model name (used in CI artifacts and docs).
    pub name: &'static str,
    /// What the model covers, one line.
    pub covers: &'static str,
    pub report: Report,
}

/// Run every built-in model under `cfg` (the seed is shared; each model is
/// explored independently). Deterministic: same config, same reports.
pub fn run_builtin(cfg: &Config) -> Vec<ModelReport> {
    vec![
        ModelReport {
            name: "store-write-gc",
            covers: "store write_atomic + LRU index vs concurrent reader and gc",
            report: explore(cfg.clone(), store_write_gc),
        },
        ModelReport {
            name: "serve-inflight-dedupe",
            covers: "serve whole-request dedupe: owner/waiter response-byte identity",
            report: explore(cfg.clone(), serve_inflight_dedupe),
        },
        ModelReport {
            name: "engine-memo-ring",
            covers: "engine memo dedup_waits + bounded completed ring",
            report: explore(cfg.clone(), engine_memo_ring),
        },
        ModelReport {
            name: "engine-candidate-memo",
            covers: "candidate memo first sights: first insert wins, readers see none or it",
            report: explore(cfg.clone(), engine_candidate_memo),
        },
    ]
}

// ---------------------------------------------------------------------------
// Model (a): store `write_atomic` + LRU index + `gc` vs readers/writers.
//
// Mirrors `eco_store::ResultStore`: writers build the payload file under a
// unique temp name *outside* the index lock, atomically rename it into
// place, then take the lock to publish the index entry; `get` and `gc` do
// their filesystem work while holding the index lock. The "filesystem" is a
// map behind its own lock (each op is one atomic syscall), with explicit
// yield points at the effect boundaries the real code has.
// ---------------------------------------------------------------------------

struct StoreModel {
    /// The index half of `ResultStore::inner` (key -> logical clock).
    index: Mutex<BTreeMap<&'static str, u64>>,
    /// The directory: file name -> payload bytes.
    fs: Mutex<BTreeMap<String, Vec<u8>>>,
    /// Port of the real `TMP_SEQ` uniqueness counter.
    tmp_seq: AtomicU64,
    clock: AtomicU64,
}

impl StoreModel {
    fn put(&self, key: &'static str, payload: Vec<u8>) {
        // write_atomic: unique temp name, write, yield, rename.
        let seq = self.tmp_seq.fetch_add(1, Ordering::Relaxed);
        let tmp = format!(".{key}.{seq}.tmp");
        self.fs.lock().unwrap().insert(tmp.clone(), payload.clone());
        yield_point("store.write_atomic.pre_rename");
        {
            let mut fs = self.fs.lock().unwrap();
            let bytes = fs.remove(&tmp);
            check(DiagCode::StoreTempCollision, bytes.is_some(), || {
                format!("temp file {tmp} vanished before rename (stolen by a colliding writer)")
            });
            fs.insert(key.to_string(), bytes.unwrap());
        }
        // Publish the index entry only after the data is durable.
        let now = self.clock.fetch_add(1, Ordering::Relaxed);
        self.index.lock().unwrap().insert(key, now);
    }

    fn get(&self, key: &'static str) -> Option<Vec<u8>> {
        let index = self.index.lock().unwrap();
        index.get(key)?;
        // The real `get` reads the data file while holding `inner`.
        let bytes = self.fs.lock().unwrap().get(key).cloned();
        check(DiagCode::StoreIndexOrder, bytes.is_some(), || {
            format!("index hit for {key} but the data file is missing")
        });
        bytes
    }

    fn gc(&self, max_entries: usize) {
        // The real `gc` evicts oldest-first while holding `inner`.
        let mut index = self.index.lock().unwrap();
        while index.len() > max_entries {
            let victim = *index.iter().min_by_key(|(_, &clock)| clock).unwrap().0;
            index.remove(victim);
            self.fs.lock().unwrap().remove(victim);
        }
    }
}

fn store_write_gc() {
    let store = Arc::new(StoreModel {
        index: Mutex::labeled("store.inner", BTreeMap::new()),
        fs: Mutex::labeled("store.fs", BTreeMap::new()),
        tmp_seq: AtomicU64::new(0),
        clock: AtomicU64::new(0),
    });

    let s1 = store.clone();
    let w1 = model::thread::spawn("writer-a", move || {
        s1.put("alpha", vec![1; 4]);
        s1.put("beta", vec![2; 4]);
    });
    let s2 = store.clone();
    let w2 = model::thread::spawn("writer-b", move || {
        s2.put("alpha", vec![3; 4]);
        s2.gc(1);
    });
    let s3 = store.clone();
    let reader = model::thread::spawn("reader", move || {
        let _ = s3.get("alpha");
        let _ = s3.get("beta");
    });

    w1.join();
    w2.join();
    reader.join();

    // Quiescent check: every surviving index entry has bytes on disk, and
    // any "alpha" bytes are one writer's payload, never interleaved.
    let index = store.index.lock().unwrap();
    let fs = store.fs.lock().unwrap();
    for key in index.keys() {
        let bytes = fs.get(*key);
        check(DiagCode::StoreIndexOrder, bytes.is_some(), || {
            format!("index entry {key} survived with no data file")
        });
        if *key == "alpha" {
            let b = bytes.unwrap();
            check(
                DiagCode::StoreTempCollision,
                *b == vec![1; 4] || *b == vec![3; 4],
                || format!("alpha bytes are neither writer's payload: {b:?}"),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Model (b): serve whole-request in-flight dedupe.
//
// Mirrors `InflightRequest`/`with_inflight` in `eco_bench::serve`: the first
// thread to register a key becomes the owner, computes the response, fills
// a Mutex+Condvar cell, and removes the key; waiters block on the cell and
// must observe the owner's exact response bytes.
// ---------------------------------------------------------------------------

struct InflightCellModel {
    done: Mutex<Option<String>>,
    cv: Condvar,
}

struct InflightModel {
    inflight: Mutex<BTreeMap<u64, Arc<InflightCellModel>>>,
    generation: AtomicU64,
}

impl InflightModel {
    /// Port of `with_inflight`: returns `(generation, response)`.
    fn run(&self, key: u64, who: &str) -> (u64, String) {
        let (cell, owner_gen) = {
            let mut map = self.inflight.lock().unwrap();
            match map.get(&key).cloned() {
                Some(cell) => (cell, None),
                None => {
                    let cell = Arc::new(InflightCellModel {
                        done: Mutex::labeled("serve.inflight.cell", None),
                        cv: Condvar::labeled("serve.inflight.cv"),
                    });
                    map.insert(key, cell.clone());
                    let generation = self.generation.fetch_add(1, Ordering::Relaxed);
                    (cell, Some(generation))
                }
            }
        };
        match owner_gen {
            Some(generation) => {
                let response = format!("resp:{generation}:{who}");
                {
                    let mut done = cell.done.lock().unwrap();
                    *done = Some(response.clone());
                }
                cell.cv.notify_all();
                self.inflight.lock().unwrap().remove(&key);
                (generation, response)
            }
            None => {
                let mut done = cell.done.lock().unwrap();
                loop {
                    if let Some(response) = done.clone() {
                        let generation: u64 = response.split(':').nth(1).unwrap().parse().unwrap();
                        return (generation, response);
                    }
                    done = cell.cv.wait(done).unwrap();
                }
            }
        }
    }
}

fn serve_inflight_dedupe() {
    let inflight = Arc::new(InflightModel {
        inflight: Mutex::labeled("serve.inflight", BTreeMap::new()),
        generation: AtomicU64::new(0),
    });

    let handles: Vec<_> = ["client-a", "client-b", "client-c"]
        .iter()
        .map(|who| {
            let m = inflight.clone();
            let who = *who;
            model::thread::spawn(who, move || m.run(42, who))
        })
        .collect();
    let results: Vec<(u64, String)> = handles.into_iter().map(|h| h.join()).collect();

    // Byte identity: everyone who joined the same in-flight generation got
    // the owner's exact bytes.
    let mut by_gen: BTreeMap<u64, Vec<&String>> = BTreeMap::new();
    for (generation, response) in &results {
        by_gen.entry(*generation).or_default().push(response);
    }
    for (generation, responses) in &by_gen {
        check(
            DiagCode::DedupeByteMismatch,
            responses.iter().all(|r| *r == responses[0]),
            || format!("generation {generation} produced differing responses: {responses:?}"),
        );
    }
}

// ---------------------------------------------------------------------------
// Model (c): engine memo `dedup_waits` + the 8-deep completed ring.
//
// Mirrors `Engine::eval_batch` classification (lock order: memo before
// inflight), the per-key `InflightCell` owner/waiter handoff, and the serve
// `watch`/`trace` completed ring (`COMPLETED_RING = 8`).
// ---------------------------------------------------------------------------

const RING_CAP: usize = 8;

struct EngineModel {
    memo: Mutex<BTreeMap<u64, u64>>,
    inflight: Mutex<BTreeMap<u64, Arc<InflightCellModel>>>,
    stats: Mutex<EngineStatsModel>,
    ring: Mutex<VecDeque<u64>>,
}

#[derive(Default)]
struct EngineStatsModel {
    computed: u64,
    memo_hits: u64,
    dedup_waits: u64,
}

impl EngineModel {
    fn eval(&self, key: u64) -> u64 {
        // Classification holds `memo` then `inflight` (documented order).
        let cell = {
            let memo = self.memo.lock().unwrap();
            if let Some(&v) = memo.get(&key) {
                self.stats.lock().unwrap().memo_hits += 1;
                self.push_completed(v);
                return v;
            }
            let mut inflight = self.inflight.lock().unwrap();
            let existing = inflight.get(&key).cloned();
            match existing {
                Some(cell) => Some(cell),
                None => {
                    inflight.insert(
                        key,
                        Arc::new(InflightCellModel {
                            done: Mutex::labeled("engine.cell", None),
                            cv: Condvar::labeled("engine.cell.cv"),
                        }),
                    );
                    None
                }
            }
        };
        match cell {
            None => {
                // Owner: compute, publish to memo, retire the cell, fill it.
                let value = key * 10;
                self.stats.lock().unwrap().computed += 1;
                {
                    let mut memo = self.memo.lock().unwrap();
                    let prev = memo.insert(key, value);
                    check(DiagCode::RingOverflow, prev.is_none(), || {
                        format!("memo key {key} published twice")
                    });
                }
                let cell = self.inflight.lock().unwrap().remove(&key).unwrap();
                {
                    let mut done = cell.done.lock().unwrap();
                    *done = Some(value.to_string());
                }
                cell.cv.notify_all();
                self.push_completed(value);
                value
            }
            Some(cell) => {
                // Waiter: block on the cell, then account the dedupe.
                let mut done = cell.done.lock().unwrap();
                let value = loop {
                    if let Some(v) = done.as_ref() {
                        break v.parse::<u64>().unwrap();
                    }
                    done = cell.cv.wait(done).unwrap();
                };
                drop(done);
                self.stats.lock().unwrap().dedup_waits += 1;
                self.push_completed(value);
                value
            }
        }
    }

    fn push_completed(&self, value: u64) {
        let mut ring = self.ring.lock().unwrap();
        ring.push_back(value);
        while ring.len() > RING_CAP {
            ring.pop_front();
        }
        let len = ring.len();
        check(DiagCode::RingOverflow, len <= RING_CAP, || {
            format!("completed ring grew to {len} (cap {RING_CAP})")
        });
    }
}

fn engine_memo_ring() {
    let engine = Arc::new(EngineModel {
        memo: Mutex::labeled("engine.memo", BTreeMap::new()),
        inflight: Mutex::labeled("engine.inflight", BTreeMap::new()),
        stats: Mutex::labeled("engine.stats", EngineStatsModel::default()),
        ring: Mutex::labeled("serve.completed_ring", VecDeque::new()),
    });

    let handles: Vec<_> = [("eval-a", 7u64), ("eval-b", 7), ("eval-c", 9)]
        .iter()
        .map(|(name, key)| {
            let e = engine.clone();
            let key = *key;
            model::thread::spawn(name, move || e.eval(key))
        })
        .collect();
    let results: Vec<u64> = handles.into_iter().map(|h| h.join()).collect();

    check(
        DiagCode::DedupeByteMismatch,
        results[0] == 70 && results[1] == 70 && results[2] == 90,
        || format!("eval results wrong: {results:?}"),
    );
    let stats = engine.stats.lock().unwrap();
    let total = stats.computed + stats.memo_hits + stats.dedup_waits;
    check(DiagCode::RingOverflow, total == 3, || {
        format!(
            "dedupe accounting lost a request: computed {} + memo_hits {} + dedup_waits {} != 3",
            stats.computed, stats.memo_hits, stats.dedup_waits
        )
    });
}

// ---------------------------------------------------------------------------
// Model (d): the engine's candidate memo under concurrent first sights.
//
// Mirrors `eco_exec::CandidateMemo`: a lookup takes the lock, clones the
// entry, and releases it; on a miss the caller generates *outside* the
// lock and re-takes it to insert, where the first insert wins and every
// later inserter adopts the winner. Two generators race one key with
// different values (stricter than the real, pure generation), while a
// reader polls it. Once inserted, the key's value must never change,
// and every observer sees either nothing or that value.
// ---------------------------------------------------------------------------

struct CandidateMemoModel {
    programs: Mutex<BTreeMap<u64, u64>>,
    /// Every value ever stored under the key, in insertion order.
    published: Mutex<Vec<u64>>,
}

impl CandidateMemoModel {
    /// Port of `CandidateMemo::program`'s get-or-insert.
    fn program(&self, key: u64, generated: u64) -> u64 {
        if let Some(&v) = self.programs.lock().unwrap().get(&key) {
            return v;
        }
        yield_point("candidates.generate");
        let mut programs = self.programs.lock().unwrap();
        let v = *programs.entry(key).or_insert_with(|| {
            self.published.lock().unwrap().push(generated);
            generated
        });
        v
    }

    /// Port of `CandidateMemo::get`.
    fn get(&self, key: u64) -> Option<u64> {
        self.programs.lock().unwrap().get(&key).copied()
    }
}

fn engine_candidate_memo() {
    const KEY: u64 = 7;
    let memo = Arc::new(CandidateMemoModel {
        programs: Mutex::labeled("engine.candidates", BTreeMap::new()),
        published: Mutex::labeled("engine.candidates.published", Vec::new()),
    });
    let generators: Vec<_> = [("first-sight-a", 70u64), ("first-sight-b", 71)]
        .iter()
        .map(|&(name, value)| {
            let m = memo.clone();
            model::thread::spawn(name, move || m.program(KEY, value))
        })
        .collect();
    let m = memo.clone();
    let reader = model::thread::spawn("reader", move || [m.get(KEY), m.get(KEY)]);
    let won: Vec<u64> = generators.into_iter().map(|h| h.join()).collect();
    let seen = reader.join();

    let published = memo.published.lock().unwrap().clone();
    check(DiagCode::RingOverflow, published.len() == 1, || {
        format!(
            "candidate key stored {} values: {published:?}",
            published.len()
        )
    });
    let value = published[0];
    check(
        DiagCode::RingOverflow,
        won.iter().all(|&v| v == value) && memo.get(KEY) == Some(value),
        || {
            format!(
                "first sights returned {won:?}, memo holds {:?}, first insert {value}",
                memo.get(KEY)
            )
        },
    );
    check(
        DiagCode::RingOverflow,
        seen.iter().all(|s| s.is_none_or(|v| v == value))
            && !(seen[0].is_some() && seen[1].is_none()),
        || format!("reader saw {seen:?}; only none-then-{value} is allowed"),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_models_are_clean_and_deterministic() {
        let cfg = Config {
            seed: 1,
            ..Config::default()
        };
        let first = run_builtin(&cfg);
        for m in &first {
            assert!(
                m.report.is_clean(),
                "model {} reported: {:?}",
                m.name,
                m.report.diags
            );
            assert!(m.report.schedules >= 2, "model {} barely explored", m.name);
        }
        let second = run_builtin(&cfg);
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.report.schedules, b.report.schedules, "model {}", a.name);
            assert_eq!(a.report.edges, b.report.edges, "model {}", a.name);
        }
    }
}
