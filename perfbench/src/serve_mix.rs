//! `serve_mix`: a closed loop keeping two requests in flight on one
//! `MappingService` (default `ServiceConfig`: two pool workers and random
//! search, with the result cache bounded below the pool of distinct
//! layers), driven from one thread.
//!
//! Each request is a network of `LAYERS` layers drawn from a skewed
//! (Zipf) distribution over a fixed pool of layer shapes: the eight Table 1
//! problems plus shapes sampled from the CNN and MTTKRP families. The
//! workload seed draws the request stream. Some layers hit the cache, some
//! attach to a sibling's in-flight search, the rest search fresh; because
//! the cache is bounded, the hit share is set by the mix and not by how
//! long the run lasts.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

use mm_accel::{Architecture, CostModel};
use mm_mapper::{CostEvaluator, ModelEvaluator, OptMetric};
use mm_mapspace::{MapSpace, ProblemFamily, ProblemSpec};
use mm_search::RandomSearch;
use mm_serve::{
    EvaluatorFactory, MappingService, NetworkReport, RequestConfig, RequestHandle, ServiceConfig,
};
use mm_workloads::cnn::CnnFamily;
use mm_workloads::mttkrp::MttkrpFamily;
use mm_workloads::{table1, Network};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::common::{catch, check_best, geomean, median, quantile, Ledger, Metrics};
use crate::timing::{Busy, SearchBusy, SlowedEvaluator, TimedEvaluator, TimedSearch};
use crate::{Args, Outcome};

/// Shapes sampled from each of the two families into the pool.
const SAMPLED_PER_FAMILY: usize = 12;
/// Seed of the pool's sampled shapes and of its popularity order.
const POOL_SEED: u64 = 0x5E7E;
/// Zipf exponent of layer popularity.
const ZIPF_S: f64 = 1.1;
/// Layers per request.
const LAYERS: usize = 2;
/// Result-cache capacity (below the pool size).
const CACHE_CAPACITY: usize = 8;
/// Requests kept in flight (the benchmark host's `nproc`).
const IN_FLIGHT: usize = 2;
/// Mix requests served during set-up, after the pool pass, so the cache
/// holds its steady-state contents before timing.
const WARM_REQUESTS: usize = 60;
/// Set-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Seed of the set-up's mix requests: fixed, so set-up does the same work
/// whatever the workload seed.
const WARM_SEED: u64 = 0x3A3A;
/// The evaluator tag `MappingService::new` uses.
const EVALUATOR_TAG: &str = "reference-model[edp,energy,delay]";

/// One pool shape with what the checks need.
struct Shape {
    problem: ProblemSpec,
    space: MapSpace,
    model: CostModel,
}

fn build_pool(arch: &Architecture) -> Vec<Shape> {
    let mut rng = StdRng::seed_from_u64(POOL_SEED);
    let mut problems: Vec<ProblemSpec> = table1::all_problems()
        .into_iter()
        .map(|t| t.problem)
        .collect();
    for _ in 0..SAMPLED_PER_FAMILY {
        problems.push(CnnFamily::default().sample_problem(&mut rng));
        problems.push(MttkrpFamily::default().sample_problem(&mut rng));
    }
    // Fixed popularity order: a seeded shuffle of the pool.
    for i in (1..problems.len()).rev() {
        problems.swap(i, rng.gen_range(0..=i));
    }
    problems
        .into_iter()
        .map(|problem| Shape {
            space: MapSpace::new(problem.clone(), arch.mapping_constraints()),
            model: CostModel::new(arch.clone(), problem.clone()),
            problem,
        })
        .collect()
}

/// Per-layer timers (traced runs only).
#[derive(Default)]
struct Tracers {
    eval: Arc<Busy>,
    search: Arc<SearchBusy>,
}

fn build_service(args: &Args, tracers: &Tracers) -> MappingService {
    let arch = mm_workloads::evaluated_accelerator();
    let config = ServiceConfig {
        cache_capacity: Some(CACHE_CAPACITY),
        ..ServiceConfig::default()
    };
    if !args.trace && args.inject <= 0.0 {
        return MappingService::new(arch, config);
    }
    // The same evaluator `MappingService::new` builds, decorated; the tag
    // and the searcher name are unchanged, so are fingerprints and results.
    let (eval_busy, inject, trace) = (tracers.eval.clone(), args.inject, args.trace);
    let factory: EvaluatorFactory = Box::new(move |arch, problem| {
        let mut e: Arc<dyn CostEvaluator> = Arc::new(ModelEvaluator::with_metrics(
            CostModel::new(arch.clone(), problem.clone()),
            vec![OptMetric::Edp, OptMetric::Energy, OptMetric::Delay],
        ));
        e = SlowedEvaluator::wrap(e, inject);
        if trace {
            e = TimedEvaluator::wrap(e, eval_busy.clone());
        }
        e
    });
    let service =
        MappingService::with_evaluator_factory(arch, config, factory, EVALUATOR_TAG.into());
    if !trace {
        return service;
    }
    let search_busy = tracers.search.clone();
    service.with_searcher(Box::new(move || {
        TimedSearch::wrap(Box::new(RandomSearch::new()), search_busy.clone())
    }))
}

/// Draws request layers from the Zipf popularity distribution, stratified:
/// each deck of `DECK` layers holds every shape in its exact Zipf share
/// (largest remainder), shuffled by the workload seed. Runs on different
/// seeds then see the same mix in a different order, so the mix adds
/// little run-to-run spread.
struct Mix {
    deck: Vec<usize>,
    next: usize,
    rng: StdRng,
}

/// Layers per deck.
const DECK: usize = 128;

impl Mix {
    fn new(pool: usize, seed: u64) -> Self {
        let weights: Vec<f64> = (0..pool)
            .map(|k| 1.0 / ((k + 1) as f64).powf(ZIPF_S))
            .collect();
        let total: f64 = weights.iter().sum();
        let exact: Vec<f64> = weights.iter().map(|w| w / total * DECK as f64).collect();
        let mut counts: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
        let mut by_remainder: Vec<usize> = (0..pool).collect();
        by_remainder.sort_by(|&a, &b| {
            (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor()))
        });
        let short = DECK - counts.iter().sum::<usize>();
        for &k in by_remainder.iter().take(short) {
            counts[k] += 1;
        }
        let deck = counts
            .iter()
            .enumerate()
            .flat_map(|(k, &n)| std::iter::repeat_n(k, n))
            .collect();
        Mix {
            deck,
            next: DECK,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    fn draw(&mut self) -> Vec<usize> {
        (0..LAYERS)
            .map(|_| {
                if self.next == DECK {
                    self.deck.shuffle(&mut self.rng);
                    self.next = 0;
                }
                self.next += 1;
                self.deck[self.next - 1]
            })
            .collect()
    }
}

fn network(pool: &[Shape], layers: &[usize]) -> Network {
    let mut net = Network::new("mix");
    for (i, &s) in layers.iter().enumerate() {
        net.push_layer(format!("l{i}"), pool[s].problem.clone(), 1);
    }
    net
}

/// Correctness state: each shape's first result, each (composition, hit
/// pattern)'s first canonical report.
#[derive(Default)]
struct Checker {
    per_shape: HashMap<usize, (String, Vec<u64>)>,
    per_request: HashMap<String, String>,
}

impl Checker {
    fn check(
        &mut self,
        pool: &[Shape],
        layers: &[usize],
        report: &NetworkReport,
    ) -> Result<(), String> {
        if report.layers.len() != layers.len() {
            return Err(format!("request {}: wrong layer count", report.request_id));
        }
        for (l, &s) in report.layers.iter().zip(layers) {
            let shape = &pool[s];
            let metrics: Vec<u64> = l
                .best_metrics
                .as_ref()
                .map(|e| e.metrics.iter().map(|m| m.to_bits()).collect())
                .unwrap_or_default();
            let mapping = format!("{:?}", l.best_mapping);
            match self.per_shape.get(&s) {
                Some((m, bits)) if *m == mapping && *bits == metrics => {}
                Some(_) => {
                    return Err(format!(
                        "{}: result differs from its first occurrence",
                        shape.problem.name
                    ))
                }
                None => {
                    let what = format!("serve {}", shape.problem.name);
                    check_best(
                        &what,
                        &shape.space,
                        &shape.model,
                        l.best_mapping.as_ref(),
                        l.edp(),
                    )?;
                    self.per_shape.insert(s, (mapping, metrics));
                }
            }
        }
        let key = format!(
            "{layers:?}/{:?}",
            report
                .layers
                .iter()
                .map(|l| l.cache_hit)
                .collect::<Vec<_>>()
        );
        let canonical = report.canonical_string();
        match self.per_request.get(&key) {
            Some(first) if *first != canonical => {
                Err(format!("request {key}: canonical string differs"))
            }
            Some(_) => Ok(()),
            None => {
                self.per_request.insert(key, canonical);
                Ok(())
            }
        }
    }
}

/// One completed request, as the loop saw it.
#[derive(Clone, Copy)]
struct Served {
    service_ms: f64,
    all_hit: bool,
    hits: usize,
}

/// Closed-loop client state over one service.
struct ClosedLoop {
    pool: Vec<Shape>,
    service: MappingService,
    mix: Mix,
    checker: Checker,
    inflight: VecDeque<(RequestHandle, Vec<usize>, Instant)>,
    submit_us: Vec<f64>,
}

impl ClosedLoop {
    fn new(pool: Vec<Shape>, service: MappingService, seed: u64) -> Self {
        ClosedLoop {
            mix: Mix::new(pool.len(), seed),
            pool,
            service,
            checker: Checker::default(),
            inflight: VecDeque::new(),
            submit_us: Vec::new(),
        }
    }

    fn submit(&mut self, ledger: &mut Ledger, layers: Vec<usize>) {
        let net = network(&self.pool, &layers);
        let start = Instant::now();
        let admitted = self.service.submit(&net, RequestConfig::default());
        self.submit_us.push(start.elapsed().as_secs_f64() * 1e6);
        match admitted {
            Ok(h) => self.inflight.push_back((h, layers, start)),
            Err(e) => ledger.record(Err(format!("admission rejected: {e:?}"))),
        }
    }

    /// Wait for the oldest in-flight request and check it.
    fn complete(&mut self, ledger: &mut Ledger) -> Option<Served> {
        let (handle, layers, start) = self.inflight.pop_front()?;
        let waited = catch("serve wait", || self.service.wait(handle));
        let stopwatch = start.elapsed().as_secs_f64();
        let outcome = waited
            .and_then(|r| r.map_err(|e| format!("request failed: {e:?}")))
            .and_then(|report| {
                if report.wall_time_s > stopwatch {
                    return Err(format!(
                        "request {}: service time {} s exceeds the stopwatch {} s",
                        report.request_id, report.wall_time_s, stopwatch
                    ));
                }
                self.checker.check(&self.pool, &layers, &report)?;
                let hits = report.layers.iter().filter(|l| l.cache_hit).count();
                Ok(Served {
                    service_ms: report.wall_time_s * 1e3,
                    all_hit: hits == report.layers.len(),
                    hits,
                })
            });
        let served = outcome.as_ref().ok().copied();
        ledger.record(outcome.map(|_| ()));
        served
    }

    /// Keep `IN_FLIGHT` requests admitted; complete the oldest.
    fn step(&mut self, ledger: &mut Ledger) -> Option<Served> {
        while self.inflight.len() < IN_FLIGHT {
            let layers = self.mix.draw();
            self.submit(ledger, layers);
        }
        self.complete(ledger)
    }
}

pub fn run(args: &Args) -> Outcome {
    let arch = mm_workloads::evaluated_accelerator();
    let mut ledger = Ledger::default();
    let tracers = Tracers::default();
    let mut setups = Vec::new();
    let mut over_lb = Vec::new();
    let mut client = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        let mut d = ClosedLoop::new(build_pool(&arch), build_service(args, &tracers), WARM_SEED);
        // Every pool shape once (the per-shape quality), then the mix until
        // the bounded cache holds its steady-state contents.
        let all: Vec<usize> = (0..d.pool.len()).collect();
        d.submit(&mut ledger, all.clone());
        d.complete(&mut ledger);
        over_lb = all
            .iter()
            .filter_map(|s| {
                let (_, bits) = d.checker.per_shape.get(s)?;
                Some(f64::from_bits(bits[0]) / d.pool[*s].model.lower_bound().edp)
            })
            .collect();
        for _ in 0..WARM_REQUESTS {
            d.step(&mut ledger);
        }
        while d.complete(&mut ledger).is_some() {}
        setups.push(start.elapsed().as_secs_f64());
        client = Some(d);
    }
    let mut d = client.expect("at least one set-up");
    d.mix = Mix::new(d.pool.len(), args.seed);
    if over_lb.len() != d.pool.len() {
        ledger.fail("pool pass: not every shape has a checked result".into());
    }
    tracers.eval.reset();
    tracers.search.propose.reset();
    tracers.search.report.reset();
    d.submit_us.clear();

    let before = d.service.stats();
    let start = Instant::now();
    let mut served = Vec::new();
    while served.len() < 100 || start.elapsed().as_secs_f64() < args.seconds {
        served.extend(d.step(&mut ledger));
    }
    while let Some(s) = d.complete(&mut ledger) {
        served.push(s);
    }
    let wall = start.elapsed().as_secs_f64();
    let after = d.service.stats();
    let evals = after.total_evaluations - before.total_evaluations;
    let workers = d.service.pool_workers() as f64;

    let latencies: Vec<f64> = served.iter().map(|s| s.service_ms).collect();
    let mut e2e = Metrics::default();
    e2e.set("setup_s", median(&setups), "s");
    e2e.set("evals_per_s", evals as f64 / wall, "1/s");
    e2e.set("edp_over_lb", geomean(&over_lb), "x");
    for ratio in [
        "mm_vs_sa_iso_iter",
        "mm_vs_ga_iso_iter",
        "mm_vs_rl_iso_iter",
    ] {
        // No Mind Mappings search runs here: neutral by definition.
        e2e.set(ratio, 1.0, "x");
    }
    e2e.set(
        "mm_step_us",
        workers * wall / evals.max(1) as f64 * 1e6,
        "us",
    );
    e2e.set("requests_per_s", served.len() as f64 / wall, "1/s");
    e2e.set("request_p50_ms", quantile(&latencies, 0.5), "ms");
    e2e.set("request_p90_ms", quantile(&latencies, 0.9), "ms");

    let all_hit = served.iter().filter(|s| s.all_hit).count();
    let layers_served = (served.len() * LAYERS) as f64;
    let hits: usize = served.iter().map(|s| s.hits).sum();
    let split = |hit: bool| -> Vec<f64> {
        served
            .iter()
            .filter(|s| s.all_hit == hit)
            .map(|s| s.service_ms)
            .collect()
    };
    println!(
        "serve_mix: {} requests, all-hit share {:.3}, layer hit share {:.3}",
        served.len(),
        all_hit as f64 / served.len() as f64,
        hits as f64 / layers_served
    );

    let mut layers = Metrics::default();
    if args.trace {
        let eval = &tracers.eval;
        let search = &tracers.search;
        let worker_ns = wall * 1e9 * workers;
        let search_ns = (search.propose.ns() + search.report.ns()) as f64;
        layers.set("accel.ns_per_eval", eval.ns_per_item(), "ns");
        layers.set(
            "accel.batch_len",
            eval.items() as f64 / eval.calls() as f64,
            "count",
        );
        layers.set(
            "search.propose_ns.random",
            search.propose.ns_per_item(),
            "ns",
        );
        layers.set("search.report_ns", search.report.ns_per_item(), "ns");
        layers.set(
            "mapper.overhead_ns_per_eval",
            (worker_ns - eval.ns() as f64 - search_ns) / evals as f64,
            "ns",
        );
        layers.set(
            "mapper.pool_busy_share",
            eval.ns() as f64 / worker_ns,
            "share",
        );
        layers.set("serve.submit_us", median(&d.submit_us), "us");
        layers.set("serve.hit_request_ms", median(&split(true)), "ms");
        layers.set("serve.fresh_request_ms", median(&split(false)), "ms");
        layers.set(
            "serve.cache_hit_share",
            hits as f64 / layers_served,
            "share",
        );
        layers.set(
            "serve.shared_share",
            (after.shared_searches - before.shared_searches) as f64 / layers_served,
            "share",
        );
        layers.set(
            "serve.rejected",
            (after.requests_rejected - before.requests_rejected) as f64,
            "count",
        );
    }
    let mut quality: Vec<String> = d
        .checker
        .per_shape
        .iter()
        .map(|(s, (_, bits))| format!("{s}:{:016x}", bits[0]))
        .collect();
    quality.sort();
    Outcome {
        e2e,
        layers,
        ledger,
        quality,
        trained: None,
    }
}
