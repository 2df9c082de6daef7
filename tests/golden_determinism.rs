//! Golden determinism snapshots: byte-identical replay as a *checked-in
//! contract*.
//!
//! The mapper and the serving layer both promise that their canonical
//! report strings (`MapperReport::canonical_string`,
//! `NetworkReport::canonical_string`) depend only on the search
//! configuration and seed — never on worker counts, scheduling, or machine
//! speed. The pairwise runtime comparisons in the crate tests prove
//! worker-count independence *within* one build; these fixtures pin the
//! exact bytes across builds, so any change to the deterministic search
//! stream (RNG derivation, shard slicing, schedule sizing, merge order)
//! shows up as a reviewable fixture diff instead of silently reshuffling
//! results. The Phase-2 fixture does the same for the surrogate-guided
//! search: every true-cost bit of its traces and its best mappings.
//!
//! Regenerate deliberately with `MM_BLESS=1 cargo test --test
//! golden_determinism` after an intentional behaviour change, and commit
//! the new fixtures with the code that changed them.
//!
//! The multi-axis shard test also pins this release's acceptance criterion:
//! the mixed-radix axis product must beat the PR 3 single-axis capacity
//! (`d! · largest_dim`) by at least the parallelism-axis factor on Table 1
//! layers.

use std::path::PathBuf;
use std::sync::Arc;

use mind_mappings::prelude::*;
use mind_mappings::workloads::conv1d::Conv1dFamily;
use mm_mapspace::{ShardAxis, ShardAxisKind};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Compare `actual` against the checked-in fixture, or rewrite the fixture
/// when `MM_BLESS` is set.
fn check_fixture(name: &str, actual: &str) {
    let path = fixture_path(name);
    if std::env::var_os("MM_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("create fixtures/");
        std::fs::write(&path, actual).expect("write fixture");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {name} ({e}); generate it with \
             MM_BLESS=1 cargo test --test golden_determinism"
        )
    });
    if expected != actual {
        let diff_at = expected
            .lines()
            .zip(actual.lines())
            .position(|(a, b)| a != b);
        panic!(
            "canonical output diverged from fixture {name} (first differing line: {:?}); \
             if the change is intentional, re-bless with MM_BLESS=1 and commit the diff",
            diff_at
        );
    }
}

/// The pinned mapper scenario: multi-axis sharded SA over conv1d on the
/// example accelerator, deterministic schedule, shard-aware horizon hints
/// on (so the hint path is part of the pinned contract).
#[test]
fn mapper_canonical_report_matches_fixture() {
    let arch = Architecture::example();
    let problem = ProblemSpec::conv1d(512, 7);
    let space = MapSpace::new(problem.clone(), arch.mapping_constraints());
    let evaluator: Arc<dyn CostEvaluator> =
        Arc::new(ModelEvaluator::edp(CostModel::new(arch, problem)));
    let report = Mapper::new(MapperConfig {
        threads: 2,
        shards: Some(4),
        shard_space: true,
        shard_horizon: true,
        seed: 7,
        termination: TerminationPolicy::search_size(240),
        ..MapperConfig::default()
    })
    .run(&space, evaluator, |_| {
        Box::new(SimulatedAnnealing::default())
    });
    assert_eq!(report.total_evaluations, 240);
    check_fixture("mapper_canonical.txt", &report.canonical_string());
}

/// The pinned serving scenario: the whole Table 1 network over a shared
/// pool, two disjoint shards per layer.
#[test]
fn network_canonical_report_matches_fixture() {
    // The PR 9 API split must not move these bytes: the request tag renders
    // the legacy config_tag format, so the fixture pins that too.
    let mut service = MappingService::new(
        evaluated_accelerator(),
        (
            ServiceConfig::default()
                .with_workers(2)
                .with_max_active_jobs(2)
                .with_queue_depth(4),
            RequestConfig::default()
                .with_seed(42)
                .with_search_size(96)
                .with_shards(2),
        ),
    );
    let report = service.map_network(&table1_network());
    assert_eq!(report.layers.len(), 8);
    check_fixture("network_canonical.txt", &report.canonical_string());
}

/// One line per Phase-2 result: every trace point's true-cost bits, then
/// the best mapping.
fn phase2_line(label: &str, trace: &SearchTrace) -> String {
    let costs: Vec<String> = trace
        .points
        .iter()
        .map(|p| format!("{:016x}", p.cost.to_bits()))
        .collect();
    format!(
        "{label} points={} costs={} best={:016x} mapping={:?}\n",
        trace.points.len(),
        costs.join(","),
        trace.best_cost.to_bits(),
        trace.best_mapping,
    )
}

/// The pinned Phase-2 scenario: a quick Conv1d surrogate, then
/// `MindMappings::search` unsharded and over 4 shards with Anchor sync, and
/// the deployment-mode `best_mapping` both ways. Any change to the surrogate
/// passes or the gradient step that moves a single bit of a trajectory
/// shows up here.
#[test]
fn phase2_canonical_output_matches_fixture() {
    let mut rng = StdRng::seed_from_u64(21);
    let config = Phase1Config {
        num_samples: 800,
        mappings_per_problem: 40,
        hidden_layers: vec![40, 24],
        epochs: 12,
        ..Phase1Config::quick()
    };
    let (mut mm, _) = MindMappings::train(
        Architecture::example(),
        &Conv1dFamily::default(),
        &config,
        &mut rng,
    )
    .expect("train quick surrogate");
    let problem = ProblemSpec::conv1d(900, 7);
    let mut out = String::new();

    let trace = mm.search(&problem, 240, &mut StdRng::seed_from_u64(1));
    out.push_str(&phase2_line("search shards=1", &trace));
    let best = mm
        .best_mapping(
            &problem,
            Budget::iterations(150),
            &mut StdRng::seed_from_u64(2),
        )
        .expect("best_mapping");
    out.push_str(&format!("best_mapping shards=1 mapping={best:?}\n"));

    mm.set_phase2_config(Phase2Config {
        shards: 4,
        sync: SyncPolicy::Anchor,
        ..Phase2Config::default()
    });
    let trace = mm.search(&problem, 240, &mut StdRng::seed_from_u64(3));
    out.push_str(&phase2_line("search shards=4 sync=anchor", &trace));
    let best = mm
        .best_mapping(
            &problem,
            Budget::iterations(160),
            &mut StdRng::seed_from_u64(4),
        )
        .expect("sharded best_mapping");
    out.push_str(&format!(
        "best_mapping shards=4 sync=anchor mapping={best:?}\n"
    ));

    // Gradient proposers under the mapper with barrier-round Anchor sync:
    // the incumbent re-anchors running trajectories at every sync point.
    let space = mm.map_space(&problem);
    let evaluator: Arc<dyn CostEvaluator> = Arc::new(ModelEvaluator::edp(CostModel::new(
        mm.arch().clone(),
        problem.clone(),
    )));
    let report = Mapper::new(MapperConfig {
        threads: 2,
        shards: Some(4),
        shard_space: true,
        schedule: MapperSchedule::Deterministic,
        seed: 5,
        sync_interval: 30,
        sync: SyncPolicy::Anchor,
        termination: TerminationPolicy::search_size(360),
        ..MapperConfig::default()
    })
    .run(&space, evaluator, |_| {
        Box::new(
            GradientProposer::new(mm.surrogate(), problem.clone(), Phase2Config::default())
                .expect("family match"),
        )
    });
    out.push_str(&report.canonical_string());

    check_fixture("phase2_canonical.txt", &out);
}

/// Acceptance criterion of the multi-axis refactor: on Table 1 layers the
/// axis-product capacity strictly exceeds PR 3's single-axis
/// `d! · largest_dim` by (at least) the parallelism-axis factor.
#[test]
fn table1_shard_capacity_beats_the_single_axis_formula() {
    let arch = evaluated_accelerator();
    let mut checked = 0;
    for target in table1::all_problems() {
        let problem = target.problem;
        let space = MapSpace::new(problem.clone(), arch.mapping_constraints());
        let d = problem.num_dims();
        let factorial: u128 = (1..=d as u128).product();
        let largest = problem.dims().map(|dd| problem.dim_size(dd)).max().unwrap();
        let pr3_capacity = factorial * u128::from(largest);

        let axes = space.axis_product();
        let par_factor = axes
            .iter()
            .find(|a| a.kind() == ShardAxisKind::Parallel)
            .map(ShardAxis::cardinality)
            .unwrap_or(1);
        if par_factor < 2 {
            continue; // no parallelism axis on this layer
        }
        assert!(
            space.shard_capacity() > pr3_capacity * par_factor,
            "{}: multi-axis capacity {} must exceed PR3 {} x par factor {}",
            problem.name,
            space.shard_capacity(),
            pr3_capacity,
            par_factor
        );
        checked += 1;
    }
    assert!(
        checked >= 2,
        "at least two Table 1 layers must exercise the parallelism axis, got {checked}"
    );
}
