//! Isolated per-layer timings for the traced run.
//!
//! A workload's own decorated run gives the layer metrics of the layers it
//! exercises. Every other per-layer metric comes from isolated calls into
//! that layer's public functions on the Table 1 problems and on mappings
//! drawn from their map spaces, so every traced run reports every layer.
//! `mm_phase2` passes its trained surrogates; the other workloads train a
//! small probe surrogate with the same network widths, so per-call network
//! costs match.

use std::sync::Arc;
use std::time::Instant;

use mm_core::Phase1Config;
use mm_mapper::{Mapper, MapperConfig, TerminationPolicy};
use mm_mapspace::Mapping;
use mm_search::{Budget, FnObjective, Searcher};
use mm_serve::{MappingService, RequestConfig, ServiceConfig};
use mm_workloads::table1::{self, Algorithm};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::blackbox::{build_targets, make_searcher, SEARCHERS};
use crate::common::{median, Ledger, Metrics};
use crate::phase2::{self, improving_steps, Trained};
use crate::timing::{Busy, SearchBusy, TimedEvaluator, TimedSearch};

/// Mappings sampled per problem for the isolated timings.
const SAMPLES: usize = 64;
/// Minimum time spent timing one operation on one problem.
const MIN_NS_PER_OP: u128 = 20_000_000;
/// Mind Mappings steps per problem in the probe searches.
const PROBE_MM_STEPS: u64 = 300;

/// The probe surrogate's Phase 1: the `default` preset's network on a
/// small dataset and two epochs.
fn probe_preset() -> Phase1Config {
    Phase1Config {
        num_samples: 1_000,
        mappings_per_problem: 50,
        epochs: 2,
        ..phase2::default_preset()
    }
}

/// Repeat `op` over `0..n` until at least `MIN_NS_PER_OP` have passed;
/// returns (nanoseconds, calls).
fn time_op(n: usize, mut op: impl FnMut(usize)) -> (u128, u64) {
    let start = Instant::now();
    let mut calls = 0u64;
    while start.elapsed().as_nanos() < MIN_NS_PER_OP {
        for i in 0..n {
            op(i);
        }
        calls += n as u64;
    }
    (start.elapsed().as_nanos(), calls)
}

/// Accumulates (ns, calls) over problems.
#[derive(Default, Clone, Copy)]
struct Acc(u128, u64);

impl Acc {
    fn add(&mut self, (ns, calls): (u128, u64)) {
        self.0 += ns;
        self.1 += calls;
    }

    fn us(&self) -> f64 {
        self.0 as f64 / self.1 as f64 / 1e3
    }
}

fn missing(layers: &Metrics, names: &[&str]) -> bool {
    names.iter().any(|n| layers.get(n).is_none())
}

fn set_missing(layers: &mut Metrics, name: &str, value: f64, unit: &'static str) {
    if layers.get(name).is_none() {
        layers.set(name, value, unit);
    }
}

/// Fill every per-layer metric the workload's own run did not give.
pub fn fill(layers: &mut Metrics, ledger: &mut Ledger, trained: Option<&Trained>) {
    let targets = build_targets();
    let algorithms: Vec<Algorithm> = table1::all_problems().iter().map(|t| t.algorithm).collect();
    let probe;
    let trained = match trained {
        Some(t) => t,
        None => match phase2::phase1(&probe_preset()) {
            Ok(t) => {
                probe = t;
                &probe
            }
            Err(e) => {
                ledger.record(Err(format!("probe phase 1: {e}")));
                return;
            }
        },
    };
    set_missing(layers, "core.datagen_s", trained.datagen_s, "s");
    set_missing(layers, "nn.train_s", trained.train_s, "s");

    // Kernel, map space, encoding and network, one call at a time.
    let [mut eval, mut project, mut encode, mut decode, mut forward, mut grad, mut batch64] =
        [Acc::default(); 7];
    for (p, target) in targets.iter().enumerate() {
        let mm = trained.for_algorithm(algorithms[p]);
        let surrogate = mm.surrogate();
        let problem = target.space.problem();
        let mut rng = StdRng::seed_from_u64(p as u64);
        let mappings: Vec<Mapping> = (0..SAMPLES)
            .map(|_| target.space.random_mapping(&mut rng))
            .collect();
        let xs: Vec<Vec<f32>> = mappings
            .iter()
            .map(|m| surrogate.encode_normalized(problem, m))
            .collect();
        let raws: Vec<Vec<f32>> = xs.iter().map(|x| surrogate.decode_normalized(x)).collect();
        let weights = vec![1.0f32; surrogate.mlp().output_dim()];
        let e = &target.evaluator;
        eval.add(time_op(SAMPLES, |i| {
            std::hint::black_box(e.evaluate(&mappings[i]));
        }));
        project.add(time_op(SAMPLES, |i| {
            std::hint::black_box(target.space.project(&raws[i]).ok());
        }));
        encode.add(time_op(SAMPLES, |i| {
            std::hint::black_box(surrogate.encode_normalized(problem, &mappings[i]));
        }));
        decode.add(time_op(SAMPLES, |i| {
            std::hint::black_box(surrogate.decode_normalized(&xs[i]));
        }));
        forward.add(time_op(SAMPLES, |i| {
            std::hint::black_box(surrogate.mlp().predict(&xs[i]));
        }));
        grad.add(time_op(SAMPLES, |i| {
            std::hint::black_box(surrogate.mlp().input_gradient(&xs[i], &weights));
        }));
        let (ns, calls) = time_op(1, |_| {
            std::hint::black_box(surrogate.mlp().predict_batch(&xs));
        });
        batch64.add((ns, calls * SAMPLES as u64));
    }
    let eval_us = eval.us();
    set_missing(layers, "accel.ns_per_eval", eval_us * 1e3, "ns");
    set_missing(layers, "accel.batch_len", 1.0, "count");
    set_missing(layers, "mapspace.project_us", project.us(), "us");
    set_missing(layers, "core.encode_us", encode.us(), "us");
    set_missing(layers, "core.decode_us", decode.us(), "us");
    set_missing(layers, "nn.forward_us", forward.us(), "us");
    set_missing(layers, "nn.input_grad_us", grad.us(), "us");
    set_missing(layers, "nn.forward_batch64_us_per_row", batch64.us(), "us");

    // Proposal and report costs through the classic search loop.
    let propose_names: Vec<String> = SEARCHERS
        .iter()
        .map(|s| format!("search.propose_ns.{}", s.to_lowercase()))
        .collect();
    let mut names: Vec<&str> = propose_names.iter().map(String::as_str).collect();
    names.push("search.report_ns");
    if missing(layers, &names) {
        let (mut report_ns, mut reports) = (0u64, 0u64);
        for (s, name) in SEARCHERS.iter().enumerate() {
            let busy = Arc::new(SearchBusy::default());
            for (p, target) in targets.iter().enumerate() {
                let mut searcher = TimedSearch::new(make_searcher(name), busy.clone());
                let e = &target.evaluator;
                let mut objective = FnObjective::new(|m: &Mapping| e.evaluate(m).metrics[0]);
                let mut rng = StdRng::seed_from_u64(phase2::search_seed(p, 10 + s as u64));
                searcher.search(
                    &target.space,
                    &mut objective,
                    Budget::iterations(2_000),
                    &mut rng,
                );
            }
            set_missing(layers, &propose_names[s], busy.propose.ns_per_item(), "ns");
            report_ns += busy.report.ns();
            reports += busy.report.items();
        }
        set_missing(
            layers,
            "search.report_ns",
            report_ns as f64 / reports as f64,
            "ns",
        );
    }

    // Per-step cost of the black-box baselines (RL on fewer steps).
    for (b, (name, steps)) in [("SA", 1_000), ("GA", 1_000), ("RL", 200)]
        .iter()
        .enumerate()
    {
        let key = format!("search.step_us.{}", name.to_lowercase());
        if layers.get(&key).is_some() {
            continue;
        }
        let per_problem: Vec<f64> = targets
            .iter()
            .enumerate()
            .map(|(p, target)| {
                let start = Instant::now();
                let (_, q) = phase2::run_baseline(
                    name,
                    target,
                    &target.evaluator,
                    *steps,
                    phase2::search_seed(p, 20 + b as u64),
                );
                start.elapsed().as_secs_f64() / q.max(1) as f64 * 1e6
            })
            .collect();
        layers.set(&key, median(&per_problem), "us");
    }

    // Mapper orchestration around the kernel.
    if missing(
        layers,
        &["mapper.overhead_ns_per_eval", "mapper.pool_busy_share"],
    ) {
        let (evals_busy, search_busy) =
            (Arc::new(Busy::default()), Arc::new(SearchBusy::default()));
        let (mut wall, mut evals) = (0.0, 0u64);
        let threads = 2;
        for (p, target) in targets.iter().enumerate() {
            let evaluator = TimedEvaluator::wrap(target.evaluator.clone(), evals_busy.clone());
            let mapper = Mapper::new(MapperConfig {
                threads,
                seed: phase2::search_seed(p, 30),
                termination: TerminationPolicy::search_size(20_000),
                ..MapperConfig::default()
            });
            let start = Instant::now();
            let report = mapper.run(&target.space, evaluator, |_| {
                TimedSearch::wrap(make_searcher("Random"), search_busy.clone())
            });
            wall += start.elapsed().as_secs_f64();
            evals += report.total_evaluations;
        }
        let thread_ns = wall * 1e9 * threads as f64;
        let search_ns = (search_busy.propose.ns() + search_busy.report.ns()) as f64;
        set_missing(
            layers,
            "mapper.overhead_ns_per_eval",
            (thread_ns - evals_busy.ns() as f64 - search_ns) / evals as f64,
            "ns",
        );
        set_missing(
            layers,
            "mapper.pool_busy_share",
            evals_busy.ns() as f64 / thread_ns,
            "share",
        );
    }

    // Mind Mappings steps, and what one step costs in evaluations.
    if layers.get("core.mm_step_us").is_none() {
        let (mut improving, mut compared, mut steps_us) = (0, 0, Vec::new());
        for (p, target) in targets.iter().enumerate() {
            let mm = trained.for_algorithm(algorithms[p]);
            let mut rng = StdRng::seed_from_u64(phase2::search_seed(p, 40));
            let start = Instant::now();
            let trace = mm.search(target.space.problem(), PROBE_MM_STEPS, &mut rng);
            steps_us.push(start.elapsed().as_secs_f64() / PROBE_MM_STEPS as f64 * 1e6);
            let (i, c) = improving_steps(&trace);
            improving += i;
            compared += c;
        }
        layers.set("core.mm_step_us", median(&steps_us), "us");
        set_missing(
            layers,
            "core.improving_step_share",
            improving as f64 / compared.max(1) as f64,
            "share",
        );
    }
    let step = layers.get("core.mm_step_us").unwrap_or(f64::NAN);
    let part = |n: &str| layers.get(n).unwrap_or(f64::NAN);
    let residual = step
        - part("nn.input_grad_us")
        - part("core.decode_us")
        - part("mapspace.project_us")
        - part("accel.ns_per_eval") / 1e3;
    let in_evals = step / (part("accel.ns_per_eval") / 1e3);
    set_missing(layers, "core.step_residual_us", residual, "us");
    set_missing(layers, "core.mm_step_in_evals", in_evals, "count");

    // The serving front-end on the Table 1 network: one fresh request,
    // then repeats that the cache answers.
    if missing(
        layers,
        &[
            "serve.submit_us",
            "serve.hit_request_ms",
            "serve.fresh_request_ms",
        ],
    ) {
        serve_probe(layers, ledger);
    }
}

fn serve_probe(layers: &mut Metrics, ledger: &mut Ledger) {
    const HITS: usize = 21;
    let mut service = MappingService::new(
        mm_workloads::evaluated_accelerator(),
        ServiceConfig::default(),
    );
    let net = mm_workloads::table1_network();
    let (mut submit_us, mut hit_ms, mut fresh_ms) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..=HITS {
        let start = Instant::now();
        let handle = service.submit(&net, RequestConfig::default());
        submit_us.push(start.elapsed().as_secs_f64() * 1e6);
        let report = handle
            .map_err(|e| format!("serve probe admission: {e:?}"))
            .and_then(|h| service.wait(h).map_err(|e| format!("serve probe: {e:?}")));
        match report {
            Ok(r) if i == 0 => fresh_ms.push(r.wall_time_s * 1e3),
            Ok(r) => hit_ms.push(r.wall_time_s * 1e3),
            Err(e) => ledger.record(Err(e)),
        }
    }
    let stats = service.stats();
    let layers_served = (net.len() * (HITS + 1)) as f64;
    set_missing(layers, "serve.submit_us", median(&submit_us), "us");
    set_missing(layers, "serve.hit_request_ms", median(&hit_ms), "ms");
    set_missing(layers, "serve.fresh_request_ms", median(&fresh_ms), "ms");
    set_missing(
        layers,
        "serve.cache_hit_share",
        stats.cache_hits as f64 / layers_served,
        "share",
    );
    set_missing(
        layers,
        "serve.shared_share",
        stats.shared_searches as f64 / layers_served,
        "share",
    );
    set_missing(
        layers,
        "serve.rejected",
        stats.requests_rejected as f64,
        "count",
    );
}
