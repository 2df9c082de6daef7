//! Phase 2: gradient search on the surrogate (Section 4.2).
//!
//! Starting from a random valid mapping, each iteration
//!
//! 1. evaluates the surrogate's predicted cost `c* = f*(m@t, p_target)`;
//! 2. back-propagates through the surrogate to obtain `∇ = ∂f*/∂m@t`;
//! 3. steps `m@t+1 = m@t − α∇` in the whitened input space;
//! 4. projects the result back onto the valid map space (rounding every
//!    attribute to its domain and repairing capacity violations);
//! 5. every `N` iterations proposes a random valid mapping and accepts it
//!    with a simulated-annealing-style probability whose temperature decays
//!    over time (Appendix A: interval 10, T₀ = 50, ×0.75 every 50
//!    injections).
//!
//! Steps 1 and 2 share one forward pass: [`GradientStep`] caches it when
//! the projected point of step 4 is set, so an iteration runs the network
//! forward once and back once (input gradient only), plus one forward
//! pass per injection.
//!
//! Crucially the loop only ever queries the **surrogate**; the expensive
//! reference cost model is not needed during the search, which is what gives
//! Mind Mappings its iso-time advantage (Section 5.4.2). The true cost of the
//! visited candidates is filled in *after* the timed loop so that the
//! returned [`SearchTrace`] can be compared against the baselines.

use std::time::Instant;

use mm_accel::CostModel;
use mm_mapspace::{MapSpace, Mapping, ProblemSpec};
use mm_search::{Budget, SearchTrace};
use rand::rngs::StdRng;

use crate::config::Phase2Config;
use crate::step::GradientStep;
use crate::surrogate::Surrogate;
use crate::MindMappingsError;

/// One iteration of the Phase-2 loop, recorded for post-hoc evaluation.
#[derive(Debug, Clone)]
struct IterationRecord {
    /// The candidate mapping the search sits at after this iteration.
    /// `None` means "unchanged from the previous iteration" (e.g. the
    /// gradient step rounded back to the same point).
    candidate: Option<Mapping>,
    /// Wall-clock seconds elapsed since the search started.
    elapsed_s: f64,
}

/// The Phase-2 gradient searcher, bound to a surrogate and a target problem.
#[derive(Debug, Clone)]
pub struct GradientSearch<'a> {
    surrogate: &'a Surrogate,
    space: MapSpace,
    problem: ProblemSpec,
    config: Phase2Config,
}

impl<'a> GradientSearch<'a> {
    /// Create a gradient search for `problem` using a trained `surrogate`.
    ///
    /// # Errors
    ///
    /// Returns [`MindMappingsError::FamilyMismatch`] if the problem's shape
    /// does not match the family the surrogate was trained on.
    pub fn new(
        surrogate: &'a Surrogate,
        problem: ProblemSpec,
        config: Phase2Config,
    ) -> Result<Self, MindMappingsError> {
        surrogate.check_problem(&problem)?;
        let space = MapSpace::new(problem.clone(), surrogate.arch().mapping_constraints());
        Ok(GradientSearch {
            surrogate,
            space,
            problem,
            config,
        })
    }

    /// The map space being searched.
    pub fn space(&self) -> &MapSpace {
        &self.space
    }

    /// Run the search for at most `budget` surrogate iterations (and/or
    /// wall-clock time), returning the per-iteration trace. Trace costs are
    /// true EDPs (joule-seconds) obtained from `evaluator` **after** the
    /// timed loop — the reference cost model never influences the search
    /// itself, matching the paper's evaluation methodology where the visited
    /// mappings are scored offline for plotting (Section 5.2).
    pub fn run(&self, budget: Budget, evaluator: &CostModel, rng: &mut StdRng) -> SearchTrace {
        let (records, _) = self.run_surrogate_only(budget, rng);
        self.fill_trace(records, evaluator)
    }

    /// Run the timed surrogate-only loop. Returns the iteration records and
    /// the best mapping by surrogate prediction.
    fn run_surrogate_only(
        &self,
        budget: Budget,
        rng: &mut StdRng,
    ) -> (Vec<IterationRecord>, Option<Mapping>) {
        let cfg = &self.config;
        let start = Instant::now();
        let mut records: Vec<IterationRecord> = Vec::new();

        let mut step = GradientStep::new(self.surrogate);
        let mut current = self.space.random_mapping(rng);
        step.set_point(self.surrogate, &self.problem, &current);

        let mut best_pred = f64::INFINITY;
        let mut best_mapping: Option<Mapping> = None;
        let mut temperature = cfg.initial_temperature;
        let mut injections: u64 = 0;
        let mut iteration: u64 = 0;

        while !budget.exhausted(iteration, start.elapsed()) {
            iteration += 1;

            // Steps 2-4: gradient step in whitened space, projected back to
            // the valid map space.
            let raw_mapping = step.descend(self.surrogate, cfg);
            let projected = self
                .space
                .project(raw_mapping)
                .unwrap_or_else(|_| self.space.random_mapping(rng));
            let previous = std::mem::replace(&mut current, projected);
            let projected_pred = step.set_point(self.surrogate, &self.problem, &current);

            // Track the best-so-far candidate by surrogate prediction (the
            // mapping the deployment-mode API would return).
            if projected_pred < best_pred {
                best_pred = projected_pred;
                best_mapping = Some(current.clone());
            }

            // Step 5: periodic random injection with annealed acceptance.
            if cfg.injection_interval > 0 && iteration.is_multiple_of(cfg.injection_interval) {
                let candidate = self.space.random_mapping(rng);
                if let Some(cand_pred) = step.offer_candidate(
                    self.surrogate,
                    &self.problem,
                    &candidate,
                    projected_pred,
                    temperature,
                    rng,
                ) {
                    current = candidate;
                    if cand_pred < best_pred {
                        best_pred = cand_pred;
                        best_mapping = Some(current.clone());
                    }
                }
                injections += 1;
                if cfg.decay_every_injections > 0
                    && injections.is_multiple_of(cfg.decay_every_injections)
                {
                    temperature *= cfg.temperature_decay;
                }
            }

            records.push(IterationRecord {
                candidate: (current != previous).then(|| current.clone()),
                elapsed_s: start.elapsed().as_secs_f64(),
            });
        }
        (records, best_mapping)
    }

    /// Convert iteration records into a [`SearchTrace`] by evaluating the
    /// true cost of every mapping the search visited (this is the offline
    /// scoring step used to produce Figures 5/6; it does not influence the
    /// search).
    fn fill_trace(&self, records: Vec<IterationRecord>, evaluator: &CostModel) -> SearchTrace {
        let mut trace = SearchTrace::new("MM");
        let mut last: Option<(f64, Mapping)> = None;
        for rec in records {
            if let Some(mapping) = rec.candidate {
                let cost = evaluator.edp(&mapping);
                last = Some((cost, mapping));
            }
            if let Some((cost, mapping)) = &last {
                trace.record(
                    *cost,
                    mapping,
                    std::time::Duration::from_secs_f64(rec.elapsed_s),
                );
            }
        }
        trace
    }

    /// Surrogate-only search returning just the best mapping found (no true
    /// cost evaluation at all); this is the deployment-mode entry point used
    /// by the `MindMappings` API.
    pub fn best_mapping(&self, budget: Budget, rng: &mut StdRng) -> Mapping {
        let (_, best) = self.run_surrogate_only(budget, rng);
        best.unwrap_or_else(|| Mapping::minimal(&self.problem))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Phase1Config;
    use crate::dataset::generate_training_set;
    use mm_accel::Architecture;
    use mm_workloads::conv1d::Conv1dFamily;
    use rand::SeedableRng;

    fn surrogate(seed: u64) -> Surrogate {
        let arch = Architecture::example();
        let fam = Conv1dFamily::default();
        let mut rng = StdRng::seed_from_u64(seed);
        let ds = generate_training_set(&arch, &fam, 1500, 50, &mut rng).unwrap();
        let cfg = Phase1Config {
            hidden_layers: vec![48, 48],
            epochs: 25,
            batch_size: 64,
            ..Phase1Config::quick()
        };
        Surrogate::train(arch, &ds, &cfg, &mut rng).unwrap().0
    }

    #[test]
    fn rejects_problems_from_another_family() {
        let s = surrogate(0);
        let cnn = mm_workloads::cnn::CnnLayer::alexnet_conv4().into_problem();
        assert!(GradientSearch::new(&s, cnn, Phase2Config::default()).is_err());
    }

    #[test]
    fn search_produces_monotone_trace_of_valid_mappings() {
        let s = surrogate(1);
        let problem = ProblemSpec::conv1d(900, 7);
        let gs = GradientSearch::new(&s, problem.clone(), Phase2Config::default()).unwrap();
        let model = CostModel::new(s.arch().clone(), problem);
        let mut rng = StdRng::seed_from_u64(2);
        let trace = gs.run(Budget::iterations(300), &model, &mut rng);
        assert!(!trace.is_empty());
        assert!(trace.best_cost.is_finite());
        for w in trace.points.windows(2) {
            assert!(w[1].best_cost <= w[0].best_cost);
        }
        let best = trace.best_mapping.as_ref().unwrap();
        assert!(gs.space().is_member(best));
    }

    #[test]
    fn search_beats_average_random_mapping() {
        let s = surrogate(3);
        let problem = ProblemSpec::conv1d(1200, 5);
        let gs = GradientSearch::new(&s, problem.clone(), Phase2Config::default()).unwrap();
        let model = CostModel::new(s.arch().clone(), problem.clone());
        let space = gs.space().clone();
        let mut rng = StdRng::seed_from_u64(4);
        let mut mean = 0.0;
        let n = 30;
        for _ in 0..n {
            mean += model.edp(&space.random_mapping(&mut rng));
        }
        mean /= n as f64;
        let trace = gs.run(Budget::iterations(400), &model, &mut rng);
        assert!(
            trace.best_cost < mean,
            "MM ({}) did not beat the random-mapping mean ({mean})",
            trace.best_cost
        );
    }

    #[test]
    fn best_mapping_is_valid_without_evaluator() {
        let s = surrogate(5);
        let problem = ProblemSpec::conv1d(600, 9);
        let gs = GradientSearch::new(&s, problem, Phase2Config::default()).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let best = gs.best_mapping(Budget::iterations(150), &mut rng);
        assert!(gs.space().is_member(&best));
    }

    #[test]
    fn time_budget_is_respected() {
        let s = surrogate(7);
        let problem = ProblemSpec::conv1d(800, 5);
        let gs = GradientSearch::new(&s, problem, Phase2Config::default()).unwrap();
        let mut rng = StdRng::seed_from_u64(8);
        let start = std::time::Instant::now();
        let _ = gs.best_mapping(
            Budget::time(std::time::Duration::from_millis(100)),
            &mut rng,
        );
        assert!(start.elapsed() < std::time::Duration::from_secs(10));
    }
}
