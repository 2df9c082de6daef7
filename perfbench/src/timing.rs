//! Timing decorators over the public `CostEvaluator` and `ProposalSearch`
//! traits, plus the evaluator slowdown used by the injected-regression
//! self-check. Each decorator forwards every trait method to the wrapped
//! object and changes nothing it returns, so a decorated search takes the
//! same path as an undecorated one.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use mm_mapper::{CostEvaluator, Evaluation, OptMetric};
use mm_mapspace::{MapSpaceView, Mapping};
use mm_search::{ProposalBuf, ProposalSearch, SyncAction};
use rand::rngs::StdRng;

/// A work counter and the nanoseconds spent on that work. The counters
/// publish no other data, so relaxed ordering suffices.
#[derive(Debug, Default)]
pub struct Busy {
    calls: AtomicU64,
    items: AtomicU64,
    ns: AtomicU64,
}

impl Busy {
    fn add(&self, items: u64, start: Instant) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.items.fetch_add(items, Ordering::Relaxed);
        self.ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    pub fn items(&self) -> u64 {
        self.items.load(Ordering::Relaxed)
    }

    pub fn ns(&self) -> u64 {
        self.ns.load(Ordering::Relaxed)
    }

    /// Nanoseconds per item (NaN when nothing was counted).
    pub fn ns_per_item(&self) -> f64 {
        self.ns() as f64 / self.items() as f64
    }

    pub fn reset(&self) {
        self.calls.store(0, Ordering::Relaxed);
        self.items.store(0, Ordering::Relaxed);
        self.ns.store(0, Ordering::Relaxed);
    }
}

/// Times every evaluation of the wrapped evaluator.
pub struct TimedEvaluator {
    inner: Arc<dyn CostEvaluator>,
    busy: Arc<Busy>,
}

impl TimedEvaluator {
    pub fn wrap(inner: Arc<dyn CostEvaluator>, busy: Arc<Busy>) -> Arc<dyn CostEvaluator> {
        Arc::new(TimedEvaluator { inner, busy })
    }
}

impl CostEvaluator for TimedEvaluator {
    fn evaluate(&self, mapping: &Mapping) -> Evaluation {
        let start = Instant::now();
        let out = self.inner.evaluate(mapping);
        self.busy.add(1, start);
        out
    }

    fn evaluate_batch(&self, mappings: &[Mapping]) -> Vec<Evaluation> {
        let start = Instant::now();
        let out = self.inner.evaluate_batch(mappings);
        self.busy.add(mappings.len() as u64, start);
        out
    }

    fn metrics(&self) -> &[OptMetric] {
        self.inner.metrics()
    }
}

/// Busy-waits `extra` times as long as each evaluation of the wrapped
/// evaluator took: a uniform slowdown of the analytic kernel by
/// `1 + extra`, for checking that the benchmark catches it.
pub struct SlowedEvaluator {
    inner: Arc<dyn CostEvaluator>,
    extra: f64,
}

impl SlowedEvaluator {
    pub fn wrap(inner: Arc<dyn CostEvaluator>, extra: f64) -> Arc<dyn CostEvaluator> {
        if extra > 0.0 {
            Arc::new(SlowedEvaluator { inner, extra })
        } else {
            inner
        }
    }
}

/// Spin until `extra` × the time since `start` has passed again.
pub fn spin_for(start: Instant, extra: f64) {
    let target = start.elapsed().mul_f64(1.0 + extra);
    while start.elapsed() < target {
        std::hint::spin_loop();
    }
}

impl CostEvaluator for SlowedEvaluator {
    fn evaluate(&self, mapping: &Mapping) -> Evaluation {
        let start = Instant::now();
        let out = self.inner.evaluate(mapping);
        spin_for(start, self.extra);
        out
    }

    fn evaluate_batch(&self, mappings: &[Mapping]) -> Vec<Evaluation> {
        let start = Instant::now();
        let out = self.inner.evaluate_batch(mappings);
        spin_for(start, self.extra);
        out
    }

    fn metrics(&self) -> &[OptMetric] {
        self.inner.metrics()
    }
}

/// Proposal and report timings of one searcher kind.
#[derive(Debug, Default)]
pub struct SearchBusy {
    pub propose: Busy,
    pub report: Busy,
}

/// Times `propose` (per mapping proposed) and `report` of the wrapped
/// searcher.
pub struct TimedSearch {
    inner: Box<dyn ProposalSearch>,
    busy: Arc<SearchBusy>,
}

impl TimedSearch {
    pub fn new(inner: Box<dyn ProposalSearch>, busy: Arc<SearchBusy>) -> Self {
        TimedSearch { inner, busy }
    }

    pub fn wrap(inner: Box<dyn ProposalSearch>, busy: Arc<SearchBusy>) -> Box<dyn ProposalSearch> {
        Box::new(TimedSearch { inner, busy })
    }
}

impl ProposalSearch for TimedSearch {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn begin(&mut self, space: &dyn MapSpaceView, horizon: Option<u64>, rng: &mut StdRng) {
        self.inner.begin(space, horizon, rng);
    }

    fn lookahead(&self) -> usize {
        self.inner.lookahead()
    }

    fn propose(
        &mut self,
        space: &dyn MapSpaceView,
        rng: &mut StdRng,
        max: usize,
        out: &mut ProposalBuf,
    ) {
        let before = out.len();
        let start = Instant::now();
        self.inner.propose(space, rng, max, out);
        self.busy
            .propose
            .add(out.len().saturating_sub(before) as u64, start);
    }

    fn report(&mut self, mapping: &Mapping, cost: f64, rng: &mut StdRng) {
        let start = Instant::now();
        self.inner.report(mapping, cost, rng);
        self.busy.report.add(1, start);
    }

    fn observe_global_best(
        &mut self,
        space: &dyn MapSpaceView,
        mapping: &Mapping,
        cost: f64,
        action: SyncAction,
        rng: &mut StdRng,
    ) {
        self.inner
            .observe_global_best(space, mapping, cost, action, rng);
    }
}
