//! [`GradientStep`]: the surrogate side of one Phase-2 trajectory, shared
//! by [`GradientSearch`](crate::GradientSearch) and
//! [`GradientProposer`](crate::GradientProposer).
//!
//! A step pushes one point through the surrogate once. The forward pass at
//! the current point is cached when the point is set, so the next step
//! reads its prediction and derives its input gradient from that cache;
//! the injection candidate runs in a second set of buffers over the same
//! weight snapshot and, when accepted, is swapped in with its forward pass
//! still valid. Every buffer is reused, so the passes allocate nothing
//! after the first step.

use mm_mapspace::{Mapping, ProblemSpec};
use mm_nn::{RowActivations, RowKernel};
use rand::Rng;

use crate::config::Phase2Config;
use crate::surrogate::Surrogate;

/// One trajectory's weight snapshot, cached forward passes and step
/// buffers.
///
/// Built once per search from the surrogate it is then always called
/// with.
#[derive(Debug, Clone)]
pub struct GradientStep {
    kernel: RowKernel,
    /// Whitened input at the current point, and the forward pass there.
    x: Vec<f32>,
    point: RowActivations,
    /// Whitened input of the injection candidate, and its forward pass.
    candidate_x: Vec<f32>,
    candidate: RowActivations,
    /// Output weights of the EDP gradient, the gradient step, and the
    /// decoded raw mapping values.
    output_weights: Vec<f32>,
    grad: Vec<f32>,
    raw: Vec<f32>,
}

impl GradientStep {
    /// Snapshot `surrogate`'s network and size the buffers.
    pub fn new(surrogate: &Surrogate) -> Self {
        let kernel = RowKernel::new(surrogate.mlp());
        let (point, candidate) = (kernel.activations(), kernel.activations());
        GradientStep {
            kernel,
            x: Vec::new(),
            point,
            candidate_x: Vec::new(),
            candidate,
            output_weights: vec![0.0; surrogate.mlp().output_dim()],
            grad: Vec::new(),
            raw: Vec::new(),
        }
    }

    /// Move to `mapping`: encode it and run the forward pass the next
    /// [`descend`](Self::descend) reads. Returns the predicted normalized
    /// EDP there.
    // mm-lint: hot-path — once per step, at the projected point.
    pub fn set_point(
        &mut self,
        surrogate: &Surrogate,
        problem: &ProblemSpec,
        mapping: &Mapping,
    ) -> f64 {
        surrogate.encode_normalized_into(problem, mapping, &mut self.x);
        surrogate.edp_from_output(self.kernel.forward(&self.x, &mut self.point))
    }

    /// One gradient step from the current point (Section 4.2): the EDP
    /// gradient from the cached forward pass, the problem-id part zeroed,
    /// optionally normalized, `x −= α∇`; returns the stepped point's raw
    /// mapping values for [`MapSpace::project`](mm_mapspace::MapSpace::project).
    /// Follow with [`set_point`](Self::set_point) on the projected mapping
    /// before the next step.
    // mm-lint: hot-path — once per step.
    pub fn descend(&mut self, surrogate: &Surrogate, config: &Phase2Config) -> &[f32] {
        surrogate.edp_gradient_weights(self.point.output(), &mut self.output_weights);
        self.grad.clear();
        self.grad.extend_from_slice(
            self.kernel
                .input_gradient(&mut self.point, &self.output_weights),
        );
        // The problem id is held constant (Section 4.2): zero its gradient.
        for g in self
            .grad
            .iter_mut()
            .take(surrogate.encoding().mapping_offset())
        {
            *g = 0.0;
        }
        if config.normalize_gradient {
            let norm: f32 = self.grad.iter().map(|g| g * g).sum::<f32>().sqrt();
            if norm > 1e-12 {
                for g in &mut self.grad {
                    *g /= norm;
                }
            }
        }
        for (xi, gi) in self.x.iter_mut().zip(&self.grad) {
            *xi -= config.learning_rate * gi;
        }
        surrogate.decode_normalized_into(&self.x, &mut self.raw);
        &self.raw
    }

    /// Random injection with annealed acceptance (Appendix A): predict
    /// `candidate` in the second buffers and accept it when it is no worse
    /// than `current_pred`, or else with probability
    /// `exp(−Δ / temperature)`. An accepted candidate becomes the current
    /// point, its forward pass kept. Returns the candidate's prediction
    /// when accepted.
    // mm-lint: hot-path — once per injection interval.
    pub fn offer_candidate<R: Rng + ?Sized>(
        &mut self,
        surrogate: &Surrogate,
        problem: &ProblemSpec,
        candidate: &Mapping,
        current_pred: f64,
        temperature: f64,
        rng: &mut R,
    ) -> Option<f64> {
        surrogate.encode_normalized_into(problem, candidate, &mut self.candidate_x);
        let pred =
            surrogate.edp_from_output(self.kernel.forward(&self.candidate_x, &mut self.candidate));
        let accept = pred <= current_pred || {
            let delta = pred - current_pred;
            rng.gen_range(0.0..1.0) < (-delta / temperature.max(1e-12)).exp()
        };
        if !accept {
            return None;
        }
        std::mem::swap(&mut self.x, &mut self.candidate_x);
        std::mem::swap(&mut self.point, &mut self.candidate);
        Some(pred)
    }
}
