//! `mm_phase2`: Phase 1 trains the CNN and MTTKRP surrogates at the
//! `default` experiment preset (this is the set-up), then Phase 2 runs
//! `MindMappings::search` and SA/GA/RL on all eight Table 1 problems at the
//! same iteration count, each search on one thread.
//!
//! The iso-iteration pass runs once per run, on one thread, with fixed
//! seeds, so its quality numbers repeat to the bit. The timed part repeats
//! cycles over a seed-shuffled problem order until the time is up and at
//! least `MIN_CYCLES` have completed. A cycle runs, per problem, one Mind
//! Mappings search (one "request") and the SA and GA searches of the
//! iso-iteration pass, with `IN_FLIGHT` problems searched at once. Each
//! timing is a median over cycles, so a stretch of host interference
//! shifts a few cycles and not the result.

use std::cell::Cell;
use std::sync::Arc;
use std::time::Instant;

use mm_core::{generate_training_set, MindMappings, Phase1Config, Phase2Config, Surrogate};
use mm_mapper::CostEvaluator;
use mm_mapspace::{Mapping, ProblemFamily};
use mm_search::{
    AnnealingConfig, Budget, DdpgAgent, DdpgConfig, FnObjective, GeneticAlgorithm, GeneticConfig,
    SearchTrace, Searcher, SimulatedAnnealing,
};
use mm_workloads::cnn::CnnFamily;
use mm_workloads::mttkrp::MttkrpFamily;
use mm_workloads::table1::{self, Algorithm};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::blackbox::{build_targets, Target};
use crate::common::{catch, check_best, geomean, median, quantile, Ledger, Metrics};
use crate::timing::SlowedEvaluator;
use crate::{Args, Outcome, SEARCH_SEED};

/// Search iterations per method and problem (the `default` preset).
pub const ITERATIONS: u64 = 1_000;
/// Cycles the timed part completes at least: 192 requests, so p90 has 19
/// samples beyond it, and enough cycles (about 25 s) that their median
/// outlasts a few seconds of host interference.
const MIN_CYCLES: usize = 24;
/// Searches running at once in the timed part (`nproc`), each on its own
/// thread. With one, the measured work sat on one of the two vCPUs and
/// took that vCPU's share of host interference: over interleaved sets of
/// runs its timings spread about twice as wide.
const IN_FLIGHT: usize = 2;
/// The black-box baselines of the iso-iteration pass; the timed cycles
/// repeat the first `TIMED_BASELINES` (RL's step is ~1 ms, SA's and GA's a
/// few µs).
const BASELINES: [&str; 3] = ["SA", "GA", "RL"];
const TIMED_BASELINES: usize = 2;
/// Seed of the Phase-1 datasets and initial weights.
const PHASE1_SEED: u64 = 0x0EAD;

/// The `default` experiment preset's Phase-1 configuration.
pub fn default_preset() -> Phase1Config {
    Phase1Config {
        num_samples: 12_000,
        mappings_per_problem: 100,
        hidden_layers: vec![64, 256, 128, 64],
        epochs: 30,
        ..Phase1Config::default_experiment()
    }
}

/// Trained Mind Mappings instances for both Table 1 families.
pub struct Trained {
    pub cnn: MindMappings,
    pub mttkrp: MindMappings,
    pub datagen_s: f64,
    pub train_s: f64,
}

impl Trained {
    pub fn for_algorithm(&self, algorithm: Algorithm) -> &MindMappings {
        match algorithm {
            Algorithm::CnnLayer => &self.cnn,
            Algorithm::Mttkrp => &self.mttkrp,
        }
    }
}

/// Phase 1 for one family, with the data generation and the training
/// timed apart (the same calls `MindMappings::train` makes). Returns the
/// framework and the two times in seconds.
fn train_family(
    family: &dyn ProblemFamily,
    config: &Phase1Config,
    seed: u64,
) -> Result<(MindMappings, f64, f64), String> {
    let arch = mm_workloads::evaluated_accelerator();
    let mut rng = StdRng::seed_from_u64(seed);
    let start = Instant::now();
    let dataset = generate_training_set(
        &arch,
        family,
        config.num_samples,
        config.mappings_per_problem,
        &mut rng,
    )
    .map_err(|e| e.to_string())?;
    let datagen_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let (surrogate, _) =
        Surrogate::train(arch, &dataset, config, &mut rng).map_err(|e| e.to_string())?;
    let train_s = start.elapsed().as_secs_f64();
    let mm = MindMappings::from_surrogate(surrogate, Phase2Config::default());
    Ok((mm, datagen_s, train_s))
}

/// Phase 1 for both families. The two are independent, so they train
/// side by side on the host's two cores; `datagen_s` and `train_s` sum the
/// per-family times.
pub fn phase1(config: &Phase1Config) -> Result<Trained, String> {
    let (cnn, mttkrp) = std::thread::scope(|scope| {
        let cnn = scope.spawn(|| train_family(&CnnFamily::default(), config, PHASE1_SEED));
        let mttkrp = train_family(&MttkrpFamily::default(), config, PHASE1_SEED + 1);
        (cnn.join(), mttkrp)
    });
    let (cnn, cnn_datagen, cnn_train) = cnn.map_err(|_| "CNN Phase 1 panicked".to_string())??;
    let (mttkrp, mttkrp_datagen, mttkrp_train) = mttkrp?;
    Ok(Trained {
        cnn,
        mttkrp,
        datagen_s: cnn_datagen + mttkrp_datagen,
        train_s: cnn_train + mttkrp_train,
    })
}

/// What one thread's share of a timed cycle measured.
#[derive(Default)]
struct TimedShare {
    latencies_ms: Vec<f64>,
    step_us: Vec<f64>,
    mm_wall: f64,
    queries: u64,
    baseline_wall: f64,
    checks: Vec<Result<(), String>>,
}

impl TimedShare {
    fn panicked() -> Self {
        TimedShare {
            checks: vec![Err("timed search thread panicked".to_string())],
            ..TimedShare::default()
        }
    }

    fn merge(&mut self, other: TimedShare) {
        self.latencies_ms.extend(other.latencies_ms);
        self.step_us.extend(other.step_us);
        self.mm_wall += other.mm_wall;
        self.queries += other.queries;
        self.baseline_wall += other.baseline_wall;
        self.checks.extend(other.checks);
    }
}

/// The seed of method `method` on Table 1 problem `problem`.
pub fn search_seed(problem: usize, method: u64) -> u64 {
    SEARCH_SEED ^ ((problem as u64) << 8) ^ method
}

/// Run one black-box baseline through the classic `Searcher` loop, with
/// the analytic evaluator as its objective. Returns the trace and the
/// number of cost-model queries.
pub fn run_baseline(
    name: &str,
    target: &Target,
    evaluator: &Arc<dyn CostEvaluator>,
    iterations: u64,
    seed: u64,
) -> (SearchTrace, u64) {
    let mut searcher: Box<dyn Searcher> = match name {
        "SA" => Box::new(SimulatedAnnealing::new(AnnealingConfig::default())),
        "GA" => Box::new(GeneticAlgorithm::new(GeneticConfig::default())),
        _ => Box::new(DdpgAgent::new(DdpgConfig::default())),
    };
    let queries = Cell::new(0u64);
    let mut objective = FnObjective::new(|m: &Mapping| {
        queries.set(queries.get() + 1);
        evaluator.evaluate(m).metrics[0]
    });
    let mut rng = StdRng::seed_from_u64(seed);
    let trace = searcher.search(
        &target.space,
        &mut objective,
        Budget::iterations(iterations),
        &mut rng,
    );
    (trace, queries.get())
}

/// Share of consecutive steps whose true EDP beat the previous step's,
/// as (improving, compared) counts.
pub fn improving_steps(trace: &SearchTrace) -> (u64, u64) {
    let improving = trace
        .points
        .windows(2)
        .filter(|w| w[1].cost < w[0].cost)
        .count() as u64;
    (improving, trace.points.len().saturating_sub(1) as u64)
}

pub fn run(args: &Args) -> Outcome {
    let mut ledger = Ledger::default();
    let start = Instant::now();
    let trained = match phase1(&default_preset()) {
        Ok(t) => t,
        Err(e) => {
            ledger.record(Err(format!("phase 1: {e}")));
            return Outcome::failed(ledger);
        }
    };
    let setup_s = start.elapsed().as_secs_f64();
    ledger.record(Ok(()));

    let algorithms: Vec<Algorithm> = table1::all_problems().iter().map(|t| t.algorithm).collect();
    let targets = build_targets();
    let evaluators: Vec<Arc<dyn CostEvaluator>> = targets
        .iter()
        .map(|t| SlowedEvaluator::wrap(t.evaluator.clone(), args.inject))
        .collect();
    let mut order: Vec<usize> = (0..targets.len()).collect();
    let mut order_rng = StdRng::seed_from_u64(args.seed);
    order.shuffle(&mut order_rng);

    // Iso-iteration pass.
    let mut mm_bits: Vec<Option<u64>> = vec![None; targets.len()];
    let mut baseline_bits: Vec<[Option<u64>; 3]> = vec![[None; 3]; targets.len()];
    let mut mm_over_lb = Vec::new();
    let mut ratios: [Vec<f64>; 3] = Default::default();
    let mut step_us: [Vec<f64>; 3] = Default::default();
    let mut quality = Vec::new();
    let (mut improving, mut compared) = (0u64, 0u64);
    for &p in &order {
        let target = &targets[p];
        let mm = trained.for_algorithm(algorithms[p]);
        let what = format!("{} MM", target.name);
        let mut rng = StdRng::seed_from_u64(search_seed(p, 0));
        let mm_trace = catch(&what, || {
            mm.search(target.space.problem(), ITERATIONS, &mut rng)
        });
        let mm_edp = match mm_trace {
            Ok(trace) => {
                let (i, c) = improving_steps(&trace);
                improving += i;
                compared += c;
                let checked = check_best(
                    &what,
                    &target.space,
                    &target.model,
                    trace.best_mapping.as_ref(),
                    trace.best_cost,
                );
                ledger.record(checked.clone());
                checked.ok().map(|_| {
                    mm_bits[p] = Some(trace.best_cost.to_bits());
                    mm_over_lb.push(trace.best_cost / target.model.lower_bound().edp);
                    trace.best_cost
                })
            }
            Err(e) => {
                ledger.record(Err(e));
                None
            }
        };
        quality.push(format!("{}:MM:{:016x}", p, mm_bits[p].unwrap_or(0)));
        for (b, name) in BASELINES.iter().enumerate() {
            let what = format!("{} {name}", target.name);
            let t = Instant::now();
            let run = catch(&what, || {
                run_baseline(
                    name,
                    target,
                    &evaluators[p],
                    ITERATIONS,
                    search_seed(p, 1 + b as u64),
                )
            });
            let wall = t.elapsed().as_secs_f64();
            let checked = run.and_then(|(trace, q)| {
                step_us[b].push(wall / q.max(1) as f64 * 1e6);
                check_best(
                    &what,
                    &target.space,
                    &target.model,
                    trace.best_mapping.as_ref(),
                    trace.best_cost,
                )?;
                baseline_bits[p][b] = Some(trace.best_cost.to_bits());
                quality.push(format!("{p}:{name}:{:016x}", trace.best_cost.to_bits()));
                if let Some(mm_edp) = mm_edp {
                    ratios[b].push(trace.best_cost / mm_edp);
                }
                Ok(())
            });
            ledger.record(checked);
        }
    }

    // Timed cycles: every problem contributes the same number of requests.
    let mut latencies_ms = Vec::new();
    let (mut cycle_step_us, mut cycle_request_rates, mut cycle_eval_rates) =
        (Vec::new(), Vec::new(), Vec::new());
    let timed_start = Instant::now();
    let deadline = 4.0 * args.seconds.max(10.0);
    while cycle_step_us.len() < MIN_CYCLES || timed_start.elapsed().as_secs_f64() < args.seconds {
        if timed_start.elapsed().as_secs_f64() > deadline {
            break;
        }
        order.shuffle(&mut order_rng);
        let search_share = |problems: &[usize]| {
            let mut share = TimedShare::default();
            for &p in problems {
                let target = &targets[p];
                let mm = trained.for_algorithm(algorithms[p]);
                let what = format!("{} MM request", target.name);
                let mut rng = StdRng::seed_from_u64(search_seed(p, 0));
                let t = Instant::now();
                let trace = catch(&what, || {
                    mm.search(target.space.problem(), ITERATIONS, &mut rng)
                });
                let wall = t.elapsed().as_secs_f64();
                share.mm_wall += wall;
                share.latencies_ms.push(wall * 1e3);
                share.step_us.push(wall / ITERATIONS as f64 * 1e6);
                share.checks.push(trace.and_then(|trace| match mm_bits[p] {
                    Some(bits) if bits == trace.best_cost.to_bits() => Ok(()),
                    _ => Err(format!(
                        "{what}: best EDP differs from the iso-iteration pass"
                    )),
                }));
                for (b, name) in BASELINES.iter().enumerate().take(TIMED_BASELINES) {
                    let what = format!("{} {name} request", target.name);
                    let t = Instant::now();
                    let run = catch(&what, || {
                        run_baseline(
                            name,
                            target,
                            &evaluators[p],
                            ITERATIONS,
                            search_seed(p, 1 + b as u64),
                        )
                    });
                    share.baseline_wall += t.elapsed().as_secs_f64();
                    share.checks.push(run.and_then(|(trace, q)| {
                        share.queries += q;
                        match baseline_bits[p][b] {
                            Some(bits) if bits == trace.best_cost.to_bits() => Ok(()),
                            _ => Err(format!(
                                "{what}: best EDP differs from the iso-iteration pass"
                            )),
                        }
                    }));
                }
            }
            share
        };
        let shares: Vec<TimedShare> = std::thread::scope(|scope| {
            let handles: Vec<_> = order
                .chunks(order.len().div_ceil(IN_FLIGHT))
                .map(|problems| scope.spawn(|| search_share(problems)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|_| TimedShare::panicked()))
                .collect()
        });
        let mut cycle = TimedShare::default();
        for share in shares {
            cycle.merge(share);
        }
        for check in cycle.checks {
            ledger.record(check);
        }
        cycle_step_us.push(geomean(&cycle.step_us));
        // Searches completed per second with `IN_FLIGHT` running at once.
        cycle_request_rates.push(IN_FLIGHT as f64 * order.len() as f64 / cycle.mm_wall);
        cycle_eval_rates.push(cycle.queries as f64 / cycle.baseline_wall);
        latencies_ms.extend(cycle.latencies_ms);
    }

    let mut e2e = Metrics::default();
    e2e.set("setup_s", setup_s, "s");
    e2e.set("evals_per_s", median(&cycle_eval_rates), "1/s");
    e2e.set("edp_over_lb", geomean(&mm_over_lb), "x");
    e2e.set("mm_vs_sa_iso_iter", geomean(&ratios[0]), "x");
    e2e.set("mm_vs_ga_iso_iter", geomean(&ratios[1]), "x");
    e2e.set("mm_vs_rl_iso_iter", geomean(&ratios[2]), "x");
    let mm_step_us = median(&cycle_step_us);
    e2e.set("mm_step_us", mm_step_us, "us");
    e2e.set("requests_per_s", median(&cycle_request_rates), "1/s");
    e2e.set("request_p50_ms", quantile(&latencies_ms, 0.5), "ms");
    e2e.set("request_p90_ms", quantile(&latencies_ms, 0.9), "ms");

    let mut layers = Metrics::default();
    if args.trace {
        layers.set("core.datagen_s", trained.datagen_s, "s");
        layers.set("nn.train_s", trained.train_s, "s");
        layers.set(
            "core.improving_step_share",
            improving as f64 / compared.max(1) as f64,
            "share",
        );
        layers.set("core.mm_step_us", mm_step_us, "us");
        for (b, name) in BASELINES.iter().enumerate() {
            layers.set(
                &format!("search.step_us.{}", name.to_lowercase()),
                median(&step_us[b]),
                "us",
            );
        }
    }
    Outcome {
        e2e,
        layers,
        ledger,
        quality,
        trained: Some(trained),
    }
}
