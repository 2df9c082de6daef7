//! The zero-allocation contract of a Phase-2 step, enforced by the
//! allocator itself.
//!
//! A counting `#[global_allocator]` wraps `System`. After a warm-up pass
//! (first-use growth of the encode, gradient and decode buffers) the
//! steady-state surrogate side of a step must perform **zero** heap
//! allocations: the row kernel's forward and input-only backward passes,
//! and [`GradientStep`]'s `set_point` (encode + forward), `descend`
//! (gradient + step + decode) and `offer_candidate` (encode + forward +
//! swap on accept). This is the machine-checked version of their
//! `// mm-lint: hot-path` tags.
//!
//! Outside the guard, by design: `MapSpace::project`, which returns a fresh
//! `Mapping` for every stepped point, the random injection candidates, and
//! the trace records `GradientSearch` keeps per iteration. The rounds below
//! therefore set points to mappings drawn before the measured window.
//!
//! This file deliberately holds a single `#[test]`: the counter is global,
//! so a sibling test running on another harness thread would alias it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use mind_mappings::core::GradientStep;
use mind_mappings::nn::RowKernel;
use mind_mappings::prelude::*;
use mind_mappings::workloads::conv1d::Conv1dFamily;
use rand::rngs::StdRng;
use rand::SeedableRng;

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates every operation to `System`; the counter is a relaxed
// side effect with no influence on the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[test]
fn steady_state_phase2_step_allocates_nothing() {
    let mut rng = StdRng::seed_from_u64(5);
    let config = Phase1Config {
        num_samples: 400,
        mappings_per_problem: 40,
        hidden_layers: vec![37, 20],
        epochs: 3,
        ..Phase1Config::quick()
    };
    let (mm, _) = MindMappings::train(
        Architecture::example(),
        &Conv1dFamily::default(),
        &config,
        &mut rng,
    )
    .expect("train quick surrogate");
    let surrogate = mm.surrogate();
    let problem = ProblemSpec::conv1d(700, 5);
    let space = mm.map_space(&problem);
    let mappings: Vec<Mapping> = (0..8).map(|_| space.random_mapping(&mut rng)).collect();
    let phase2 = Phase2Config::default();

    let kernel = RowKernel::new(surrogate.mlp());
    let mut acts = kernel.activations();
    let x = surrogate.encode_normalized(&problem, &mappings[0]);
    let weights = vec![1.0f32; surrogate.mlp().output_dim()];
    let mut step = GradientStep::new(surrogate);
    let mut checksum = 0.0f64;

    let mut round = |i: usize, rng: &mut StdRng| {
        checksum += f64::from(kernel.forward(&x, &mut acts)[0]);
        checksum += f64::from(kernel.input_gradient(&mut acts, &weights)[0]);
        let pred = step.set_point(surrogate, &problem, &mappings[i % mappings.len()]);
        checksum += f64::from(step.descend(surrogate, &phase2)[0]);
        let candidate = &mappings[(i + 3) % mappings.len()];
        checksum += step
            .offer_candidate(surrogate, &problem, candidate, pred, 50.0, rng)
            .unwrap_or(pred);
    };

    // Warm-up: first-use growth of the encode, gradient and decode buffers.
    for i in 0..16 {
        round(i, &mut rng);
    }
    let before = allocations();
    for i in 0..256 {
        round(i, &mut rng);
    }
    let allocs = allocations() - before;
    assert_eq!(
        allocs, 0,
        "Phase-2 step allocated {allocs} times over 256 rounds after warm-up"
    );
    assert!(checksum.is_finite());
}
