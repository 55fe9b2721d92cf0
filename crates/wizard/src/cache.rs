//! Process-wide memoization of probe questions.
//!
//! Building one probe question is the wizard's unit of expensive work: a
//! `QIe` example search (a binding-table lookup once the table is built)
//! plus one or two chases. The inputs are purely
//! deterministic — (schemas, constraints, instance, mapping text, probe
//! parameters) — so a served deployment answering many similar sessions
//! recomputes identical questions over and over, and every `Session::step`
//! re-asks the already-answered questions it replays: those of the current
//! design unit when a [`crate::step::StepMemo`] resumes it, the whole
//! answer log otherwise (a restart, a log that left the memo's prefix).
//! [`ProbeCache`] memoizes finished questions behind a bounded FIFO map
//! shared across sessions (and threads), so a repeated probe degenerates
//! to a lookup plus an `Arc` clone — the replay hot path never deep-copies
//! a cached example.
//!
//! Keys are the *full* rendered inputs (no hashing), prefixed with a
//! caller-supplied context string covering everything outside the mapping
//! and probe parameters that determines the result: scenario identity and
//! the instance the examples are drawn from. The mapping is keyed by its
//! printed text, which also captures grouping state mutated between
//! design rounds.
//!
//! Correctness gate (`replay_safe`, checked at the call sites in
//! Muse-D/Muse-G): the cache is consulted only when the execution budget
//! is unlimited, the real-example search is uncapped and no fault plan is
//! armed. A cached hit bypasses budget accounting, which would otherwise
//! make truncation depend on cache state; a time-capped example search is
//! nondeterministic to begin with; and a hit skips the fault points that
//! recomputing the question passes (`query.eval`, `chase.binding`), so an
//! armed plan would fire elsewhere depending on how warm the cache is.
//! Under the gate a hit is byte-identical to recomputation.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use muse_mapping::{printer, Mapping};
use muse_nr::constraints::fdset::AttrSet;
use muse_nr::SetPath;
use muse_obs::Budget;

use crate::example::ExampleRequest;
use crate::mused::DisambiguationQuestion;
use crate::museg::GroupingQuestion;

/// The replay gate: a probe question, or a resumed [`crate::Session::step`],
/// is a pure function of its inputs only when the budget is unlimited, the
/// real-example search is uncapped and no fault plan is armed (see the
/// module docs). The [`ProbeCache`], the [`crate::step::StepMemo`] and
/// binding tables kept across calls ([`crate::table::BindingTables`]) are
/// used only when it holds.
pub(crate) fn replay_safe(budget: &Budget, real_example_budget: Option<Duration>) -> bool {
    budget.is_unlimited() && real_example_budget.is_none() && !muse_fault::armed()
}

/// A memoized probe question. `Arc` so a hit is a pointer clone: the
/// embedded example instances make a deep clone non-trivial, and the
/// session-replay hot path takes one hit per already-answered question.
enum CachedQuestion {
    Grouping(Arc<GroupingQuestion>),
    Disambiguation(Arc<DisambiguationQuestion>),
}

struct Inner {
    map: HashMap<String, CachedQuestion>,
    /// Insertion order, for FIFO eviction once `cap` is reached.
    order: VecDeque<String>,
}

/// A bounded, thread-safe memo of probe questions, shared across wizard
/// sessions. See the module docs for the keying and correctness rules.
pub struct ProbeCache {
    cap: usize,
    hits_key: &'static str,
    misses_key: &'static str,
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for ProbeCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProbeCache")
            .field("cap", &self.cap)
            .field("len", &self.len())
            .finish()
    }
}

impl ProbeCache {
    /// A cache holding at most `cap` questions (FIFO eviction). A zero cap
    /// disables storage — every lookup misses.
    pub fn new(cap: usize) -> Self {
        ProbeCache {
            cap,
            hits_key: "wizard.cache_hits",
            misses_key: "wizard.cache_misses",
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                order: VecDeque::new(),
            }),
        }
    }

    /// Count hits/misses under these metric keys instead of the
    /// `wizard.cache_*` defaults (`Metrics` requires `'static` keys).
    pub fn with_metric_keys(mut self, hits: &'static str, misses: &'static str) -> Self {
        self.hits_key = hits;
        self.misses_key = misses;
        self
    }

    /// Metric key recorded on a hit.
    pub fn hits_key(&self) -> &'static str {
        self.hits_key
    }

    /// Metric key recorded on a miss.
    pub fn misses_key(&self) -> &'static str {
        self.misses_key
    }

    /// Number of cached questions.
    pub fn len(&self) -> usize {
        lock(&self.inner).map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub(crate) fn get_grouping(&self, key: &str) -> Option<Arc<GroupingQuestion>> {
        match lock(&self.inner).map.get(key) {
            Some(CachedQuestion::Grouping(q)) => Some(Arc::clone(q)),
            _ => None,
        }
    }

    pub(crate) fn put_grouping(&self, key: String, q: &Arc<GroupingQuestion>) {
        self.put(key, CachedQuestion::Grouping(Arc::clone(q)));
    }

    pub(crate) fn get_disambiguation(&self, key: &str) -> Option<Arc<DisambiguationQuestion>> {
        match lock(&self.inner).map.get(key) {
            Some(CachedQuestion::Disambiguation(q)) => Some(Arc::clone(q)),
            _ => None,
        }
    }

    pub(crate) fn put_disambiguation(&self, key: String, q: &Arc<DisambiguationQuestion>) {
        self.put(key, CachedQuestion::Disambiguation(Arc::clone(q)));
    }

    fn put(&self, key: String, q: CachedQuestion) {
        if self.cap == 0 {
            return;
        }
        let mut inner = lock(&self.inner);
        if inner.map.contains_key(&key) {
            return;
        }
        while inner.map.len() >= self.cap {
            let Some(evicted) = inner.order.pop_front() else {
                break;
            };
            inner.map.remove(&evicted);
        }
        inner.order.push_back(key.clone());
        inner.map.insert(key, q);
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Key of a Muse-G probe: context, mapping text (covers grouping state),
/// probed set, example request (minus the excluded-by-gate time cap), and
/// the candidate grouping sets. `\x1f` (ASCII unit separator) cannot occur
/// in any component, so components cannot run into each other.
pub(crate) fn grouping_key(
    ctx: &str,
    m: &Mapping,
    sk: &SetPath,
    req: &ExampleRequest,
    with_set: AttrSet,
    without_set: AttrSet,
    probed: usize,
) -> String {
    format!(
        "{ctx}\u{1f}G\u{1f}{}\u{1f}{sk}\u{1f}{}|{}|{:?}|{:?}\u{1f}{with_set}\u{1f}{without_set}\u{1f}{probed}",
        printer::print(m),
        req.copies,
        req.agree,
        req.differ,
        req.distinct,
    )
}

/// Key of a Muse-D question: context plus mapping text (the or-groups and
/// correspondences that drive the example are all in the printed form).
pub(crate) fn disambiguation_key(ctx: &str, m: &Mapping) -> String {
    format!("{ctx}\u{1f}D\u{1f}{}", printer::print(m))
}

#[cfg(test)]
mod tests {
    use super::*;
    use muse_nr::{Field, Schema, Ty};

    fn dummy_mapping() -> Mapping {
        muse_mapping::parse(
            "m: for a in S.As
                exists b in T.Bs
                where a.x = b.x",
        )
        .unwrap()
        .remove(0)
    }

    fn dummy_question() -> DisambiguationQuestion {
        let schema = Schema::new(
            "S",
            vec![Field::new("As", Ty::set_of(vec![Field::new("x", Ty::Str)]))],
        )
        .unwrap();
        DisambiguationQuestion {
            mapping: "m".into(),
            example: crate::example::Example {
                instance: muse_nr::Instance::new(&schema),
                rows: Vec::new(),
                real: false,
                timed_out: false,
                elapsed: std::time::Duration::ZERO,
                request: ExampleRequest::default(),
                ranks: Vec::new(),
            },
            partial_target: muse_nr::Instance::new(&schema),
            choices: Vec::new(),
        }
    }

    #[test]
    fn eviction_is_fifo_and_bounded() {
        let cache = ProbeCache::new(2);
        let m = dummy_mapping();
        let q = Arc::new(dummy_question());
        for key in ["a", "b", "c"] {
            cache.put_disambiguation(disambiguation_key(key, &m), &q);
        }
        assert_eq!(cache.len(), 2);
        assert!(cache
            .get_disambiguation(&disambiguation_key("a", &m))
            .is_none());
        assert!(cache
            .get_disambiguation(&disambiguation_key("c", &m))
            .is_some());
    }

    #[test]
    fn zero_cap_disables_storage() {
        let cache = ProbeCache::new(0);
        let m = dummy_mapping();
        cache.put_disambiguation(disambiguation_key("a", &m), &Arc::new(dummy_question()));
        assert!(cache.is_empty());
    }
}
