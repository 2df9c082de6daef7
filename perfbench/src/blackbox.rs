//! `blackbox_sweep`: `Mapper::run` with SA, GA and Random on all eight
//! Table 1 problems, scored by the analytic EDP evaluator on two threads.
//!
//! Every (problem, searcher) cell has a fixed evaluation budget and a fixed
//! seed, so its best EDP repeats to the bit. The workload seed only shuffles
//! the order in which a round visits the cells. A round visits all 24 cells;
//! rounds repeat until the time is up, and each timing is a median over
//! rounds.

use std::sync::Arc;
use std::time::Instant;

use mm_accel::CostModel;
use mm_mapper::{CostEvaluator, Mapper, MapperConfig, ModelEvaluator, TerminationPolicy};
use mm_mapspace::MapSpace;
use mm_search::{
    AnnealingConfig, GeneticAlgorithm, GeneticConfig, ProposalSearch, RandomSearch,
    SimulatedAnnealing,
};
use mm_workloads::table1;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::common::{catch, check_best, geomean, median, quantile, Ledger, Metrics};
use crate::timing::{Busy, SearchBusy, SlowedEvaluator, TimedEvaluator, TimedSearch};
use crate::{Args, Outcome, SEARCH_SEED};

/// Evaluations per (problem, searcher) cell.
const CELL_BUDGET: u64 = 20_000;
/// Mapper worker threads (the benchmark host's `nproc`).
const THREADS: usize = 2;
/// Evaluations per cell in the set-up's warm-up round.
const WARM_BUDGET: u64 = 3_000;
/// Set-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Cells the timed part completes at least, so p90 has ten samples beyond
/// it (whole rounds only).
const MIN_REQUESTS: usize = 100;
pub const SEARCHERS: [&str; 3] = ["SA", "GA", "Random"];

pub fn make_searcher(name: &str) -> Box<dyn ProposalSearch> {
    match name {
        "SA" => Box::new(SimulatedAnnealing::new(AnnealingConfig::default())),
        "GA" => Box::new(GeneticAlgorithm::new(GeneticConfig::default())),
        _ => Box::new(RandomSearch::new()),
    }
}

/// One Table 1 problem, ready to search.
pub struct Target {
    pub name: String,
    pub space: MapSpace,
    pub model: CostModel,
    pub evaluator: Arc<dyn CostEvaluator>,
}

/// What a user builds before searching: map spaces, cost models (with
/// their lower bounds) and evaluators for the eight problems.
pub fn build_targets() -> Vec<Target> {
    let arch = mm_workloads::evaluated_accelerator();
    table1::all_problems()
        .into_iter()
        .map(|t| {
            let space = MapSpace::new(t.problem.clone(), arch.mapping_constraints());
            let model = CostModel::new(arch.clone(), t.problem.clone());
            std::hint::black_box(model.lower_bound());
            Target {
                name: t.problem.name.clone(),
                evaluator: Arc::new(ModelEvaluator::edp(model.clone())),
                space,
                model,
            }
        })
        .collect()
}

/// Per-layer timers threaded through the decorated sweep.
#[derive(Default)]
struct Tracers {
    eval: Arc<Busy>,
    search: [Arc<SearchBusy>; 3],
}

fn mapper(seed: u64, budget: u64) -> Mapper {
    Mapper::new(MapperConfig {
        threads: THREADS,
        seed,
        termination: TerminationPolicy::search_size(budget),
        ..MapperConfig::default()
    })
}

pub fn run(args: &Args) -> Outcome {
    // Set-up: build the targets, then one short round over every cell so
    // worker threads, allocator and caches are warm before timing.
    let mut setups = Vec::new();
    let mut targets = Vec::new();
    for _ in 0..SETUPS {
        let start = Instant::now();
        targets = build_targets();
        for (c, target) in targets.iter().enumerate() {
            for name in SEARCHERS {
                let evaluator = SlowedEvaluator::wrap(target.evaluator.clone(), args.inject);
                mapper(SEARCH_SEED ^ c as u64, WARM_BUDGET)
                    .run(&target.space, evaluator, |_| make_searcher(name));
            }
        }
        setups.push(start.elapsed().as_secs_f64());
    }
    let tracers = Tracers::default();
    let mut ledger = Ledger::default();

    let cells: Vec<(usize, usize)> = (0..targets.len())
        .flat_map(|p| (0..SEARCHERS.len()).map(move |s| (p, s)))
        .collect();
    let mut order_rng = StdRng::seed_from_u64(args.seed);
    let mut first: Vec<Option<u64>> = vec![None; cells.len()];
    let mut best_over_lb = vec![f64::NAN; cells.len()];
    let (mut round_rates, mut round_cell_rates, mut round_step_us) = (vec![], vec![], vec![]);
    let mut latencies_ms = Vec::new();
    let (mut total_evals, mut total_wall) = (0u64, 0.0f64);

    let measure_start = Instant::now();
    while latencies_ms.len() < MIN_REQUESTS || measure_start.elapsed().as_secs_f64() < args.seconds
    {
        let mut order: Vec<usize> = (0..cells.len()).collect();
        order.shuffle(&mut order_rng);
        let round_start = Instant::now();
        let mut round_evals = 0u64;
        for &c in &order {
            let (p, s) = cells[c];
            let target = &targets[p];
            let what = format!("{} {}", target.name, SEARCHERS[s]);
            let mut evaluator = SlowedEvaluator::wrap(target.evaluator.clone(), args.inject);
            if args.trace {
                evaluator = TimedEvaluator::wrap(evaluator, tracers.eval.clone());
            }
            let mapper = mapper(SEARCH_SEED ^ c as u64, CELL_BUDGET);
            let busy = tracers.search[s].clone();
            let trace = args.trace;
            let cell_start = Instant::now();
            let report = catch(&what, || {
                mapper.run(&target.space, evaluator, |_| {
                    let searcher = make_searcher(SEARCHERS[s]);
                    if trace {
                        TimedSearch::wrap(searcher, busy.clone())
                    } else {
                        searcher
                    }
                })
            });
            latencies_ms.push(cell_start.elapsed().as_secs_f64() * 1e3);
            let outcome = report.and_then(|r| {
                round_evals += r.total_evaluations;
                let edp = r.best_metrics.as_ref().map_or(f64::NAN, |e| e.metrics[0]);
                match first[c] {
                    None => {
                        check_best(
                            &what,
                            &target.space,
                            &target.model,
                            r.best_mapping.as_ref(),
                            edp,
                        )?;
                        first[c] = Some(edp.to_bits());
                        best_over_lb[c] = edp / target.model.lower_bound().edp;
                        Ok(())
                    }
                    Some(bits) if bits == edp.to_bits() => Ok(()),
                    Some(_) => Err(format!("{what}: best EDP {edp:e} differs from round 1")),
                }
            });
            ledger.record(outcome);
        }
        let wall = round_start.elapsed().as_secs_f64();
        round_rates.push(round_evals as f64 / wall);
        round_cell_rates.push(order.len() as f64 / wall);
        round_step_us.push(THREADS as f64 * wall / round_evals.max(1) as f64 * 1e6);
        total_evals += round_evals;
        total_wall += wall;
    }

    let mut e2e = Metrics::default();
    e2e.set("setup_s", median(&setups), "s");
    e2e.set("evals_per_s", median(&round_rates), "1/s");
    e2e.set("edp_over_lb", geomean(&best_over_lb), "x");
    for ratio in [
        "mm_vs_sa_iso_iter",
        "mm_vs_ga_iso_iter",
        "mm_vs_rl_iso_iter",
    ] {
        // No Mind Mappings cell runs here: the ratio is neutral by
        // definition (see perfbench/README.md).
        e2e.set(ratio, 1.0, "x");
    }
    e2e.set("mm_step_us", median(&round_step_us), "us");
    e2e.set("requests_per_s", median(&round_cell_rates), "1/s");
    e2e.set("request_p50_ms", quantile(&latencies_ms, 0.5), "ms");
    e2e.set("request_p90_ms", quantile(&latencies_ms, 0.9), "ms");

    let mut layers = Metrics::default();
    if args.trace {
        let eval = &tracers.eval;
        layers.set("accel.ns_per_eval", eval.ns_per_item(), "ns");
        layers.set(
            "accel.batch_len",
            eval.items() as f64 / eval.calls() as f64,
            "count",
        );
        let (mut search_ns, mut report_ns, mut reports) = (0u64, 0u64, 0u64);
        for (s, name) in SEARCHERS.iter().enumerate() {
            let busy = &tracers.search[s];
            layers.set(
                &format!("search.propose_ns.{}", name.to_lowercase()),
                busy.propose.ns_per_item(),
                "ns",
            );
            search_ns += busy.propose.ns() + busy.report.ns();
            report_ns += busy.report.ns();
            reports += busy.report.items();
        }
        layers.set("search.report_ns", report_ns as f64 / reports as f64, "ns");
        let thread_ns = total_wall * 1e9 * THREADS as f64;
        layers.set(
            "mapper.overhead_ns_per_eval",
            (thread_ns - eval.ns() as f64 - search_ns as f64) / total_evals as f64,
            "ns",
        );
        layers.set(
            "mapper.pool_busy_share",
            eval.ns() as f64 / thread_ns,
            "share",
        );
    }
    let quality = first
        .iter()
        .map(|b| b.map_or_else(|| "none".to_string(), |b| format!("{b:016x}")))
        .collect();
    Outcome {
        e2e,
        layers,
        ledger,
        quality,
        trained: None,
    }
}
