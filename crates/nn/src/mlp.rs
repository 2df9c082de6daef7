//! The multi-layer perceptron used as the differentiable surrogate
//! (Section 4.1) and as the actor/critic networks of the RL baseline.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::layer::{Activation, Linear, LinearGrad};
use crate::matrix::Matrix;

/// A sequential MLP: `Linear → act → Linear → act → … → Linear`.
///
/// The hidden activation is configurable (ReLU by default); the output layer
/// is linear (identity) unless an output activation is set, which the RL
/// actor uses to bound its actions with `tanh`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mlp {
    layers: Vec<Linear>,
    hidden_activation: Activation,
    output_activation: Activation,
}

/// Per-layer parameter gradients produced by [`Mlp::backward`].
#[derive(Debug, Clone)]
pub struct MlpGrad {
    /// Gradients for each [`Linear`] layer, in layer order.
    pub layers: Vec<LinearGrad>,
}

/// Cached activations from a forward pass, needed for backpropagation.
#[derive(Debug, Clone)]
pub struct ForwardCache {
    /// Input to each linear layer (post-activation of the previous layer).
    inputs: Vec<Matrix>,
    /// Pre-activation output of each linear layer.
    pre_activations: Vec<Matrix>,
    /// Final network output (post output-activation).
    output: Matrix,
}

impl ForwardCache {
    /// The network output for the cached forward pass.
    pub fn output(&self) -> &Matrix {
        &self.output
    }
}

impl Mlp {
    /// Create an MLP with the given layer widths, e.g. `&[62, 256, 256, 12]`,
    /// ReLU hidden activations and a linear output.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two widths are given.
    pub fn new<R: Rng + ?Sized>(widths: &[usize], rng: &mut R) -> Self {
        Self::with_activations(widths, Activation::Relu, Activation::Identity, rng)
    }

    /// Create an MLP with explicit hidden/output activations.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two widths are given or any width is zero.
    pub fn with_activations<R: Rng + ?Sized>(
        widths: &[usize],
        hidden: Activation,
        output: Activation,
        rng: &mut R,
    ) -> Self {
        assert!(
            widths.len() >= 2,
            "MLP needs at least input and output widths"
        );
        assert!(
            widths.iter().all(|&w| w > 0),
            "layer widths must be nonzero"
        );
        let layers = widths
            .windows(2)
            .map(|w| Linear::new(w[0], w[1], rng))
            .collect();
        Mlp {
            layers,
            hidden_activation: hidden,
            output_activation: output,
        }
    }

    /// Number of inputs.
    pub fn input_dim(&self) -> usize {
        self.layers.first().map_or(0, Linear::in_features)
    }

    /// Number of outputs.
    pub fn output_dim(&self) -> usize {
        self.layers.last().map_or(0, Linear::out_features)
    }

    /// Total number of trainable parameters.
    pub fn num_parameters(&self) -> usize {
        self.layers.iter().map(Linear::num_parameters).sum()
    }

    /// The linear layers (read-only).
    pub fn layers(&self) -> &[Linear] {
        &self.layers
    }

    /// The linear layers (mutable; used by optimizers).
    pub fn layers_mut(&mut self) -> &mut [Linear] {
        &mut self.layers
    }

    /// The activation applied after layer `i`: the output activation after
    /// the last layer, the hidden one elsewhere.
    pub(crate) fn activation(&self, i: usize) -> Activation {
        if i + 1 == self.layers.len() {
            self.output_activation
        } else {
            self.hidden_activation
        }
    }

    /// Forward pass on a batch, returning outputs and the cache needed for
    /// backpropagation.
    pub fn forward_cached(&self, x: &Matrix) -> ForwardCache {
        let n = self.layers.len();
        let mut inputs = Vec::with_capacity(n);
        let mut pre_activations = Vec::with_capacity(n);
        let mut cur = x.clone();
        for (i, layer) in self.layers.iter().enumerate() {
            inputs.push(cur.clone());
            let pre = layer.forward(&cur);
            pre_activations.push(pre.clone());
            cur = self.activation(i).forward(&pre);
        }
        ForwardCache {
            inputs,
            pre_activations,
            output: cur,
        }
    }

    /// Forward pass returning just the outputs.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        self.forward_cached(x).output
    }

    /// Convenience: forward pass on a single example.
    pub fn predict(&self, x: &[f32]) -> Vec<f32> {
        self.forward(&Matrix::row_vector(x)).as_slice().to_vec()
    }

    /// Forward pass on a batch of examples in **one** matrix pass: the whole
    /// batch goes through each layer as a single matmul instead of one
    /// network traversal per example. This is the primitive behind batched
    /// surrogate evaluation (`CostEvaluator::evaluate_batch`).
    pub fn predict_batch(&self, xs: &[Vec<f32>]) -> Vec<Vec<f32>> {
        if xs.is_empty() {
            return Vec::new();
        }
        let y = self.forward(&Matrix::from_rows(xs));
        (0..y.rows()).map(|r| y.row(r).to_vec()).collect()
    }

    /// Backpropagate `grad_output` (dL/d output, shape `[batch, out]`)
    /// through the network, returning parameter gradients and the gradient
    /// with respect to the **input** batch.
    pub fn backward(&self, cache: &ForwardCache, grad_output: &Matrix) -> (MlpGrad, Matrix) {
        let n = self.layers.len();
        let mut layer_grads: Vec<Option<LinearGrad>> = (0..n).map(|_| None).collect();
        let mut grad = grad_output.clone();
        for i in (0..n).rev() {
            grad = self
                .activation(i)
                .backward(&cache.pre_activations[i], &grad);
            let (grad_in, pgrad) = self.layers[i].backward(&cache.inputs[i], &grad);
            layer_grads[i] = Some(pgrad);
            grad = grad_in;
        }
        (
            MlpGrad {
                layers: layer_grads
                    .into_iter()
                    // mm-lint: allow(panic): the backward pass above fills
                    // every slot; a hole is a backprop bug.
                    .map(|g| g.expect("gradient computed for every layer"))
                    .collect(),
            },
            grad,
        )
    }

    /// Gradient of a scalar objective `sum(weights ⊙ output)` with respect to
    /// a single input vector. This is the primitive used by Phase 2 of Mind
    /// Mappings: the gradient of the surrogate-predicted cost w.r.t. the
    /// candidate mapping.
    pub fn input_gradient(&self, x: &[f32], output_weights: &[f32]) -> Vec<f32> {
        let cache = self.forward_cached(&Matrix::row_vector(x));
        self.input_gradient_cached(&cache, output_weights)
    }

    /// [`input_gradient`](Self::input_gradient) from the cache of an
    /// already-run **single-row** forward pass, so a caller that needs the
    /// output too (to derive `output_weights` from it) runs the network
    /// once. Bit-identical to the input gradient [`backward`](Self::backward)
    /// returns, without computing any weight gradient.
    ///
    /// # Panics
    ///
    /// Panics if the cached forward pass was not over exactly one row.
    pub fn input_gradient_cached(&self, cache: &ForwardCache, output_weights: &[f32]) -> Vec<f32> {
        assert_eq!(cache.output.rows(), 1, "input gradient of a single row");
        let mut grad = output_weights.to_vec();
        let mut scratch = Vec::new();
        self.row_input_backward(
            |i| cache.pre_activations[i].as_slice(),
            &mut grad,
            &mut scratch,
        );
        grad
    }

    /// The input-only backward pass for one row, shared by
    /// [`input_gradient_cached`](Self::input_gradient_cached) and
    /// [`RowKernel`](crate::RowKernel). On entry `grad` holds dL/d output;
    /// on return it holds dL/d input. Per layer, from the last: activation
    /// backward at `pre_activation(i)`, then `dX = dY · W` as
    /// [`Matrix::matmul`] computes it (ascending over outputs, rows whose
    /// upstream gradient is zero skipped), so the result equals
    /// [`backward`](Self::backward)'s to the bit. `scratch` is swapped with
    /// `grad` per layer; neither allocates once both have held the widest
    /// layer.
    // mm-lint: hot-path — one Phase-2 step runs this once.
    pub(crate) fn row_input_backward<'a>(
        &self,
        pre_activation: impl Fn(usize) -> &'a [f32],
        grad: &mut Vec<f32>,
        scratch: &mut Vec<f32>,
    ) {
        for (i, layer) in self.layers.iter().enumerate().rev() {
            self.activation(i)
                .backward_in_place(pre_activation(i), grad);
            let inputs = layer.in_features();
            scratch.clear();
            scratch.resize(inputs, 0.0);
            for (&g, w_row) in grad
                .iter()
                .zip(layer.weight.as_slice().chunks_exact(inputs))
            {
                if g == 0.0 {
                    continue;
                }
                for (s, &w) in scratch.iter_mut().zip(w_row) {
                    *s += g * w;
                }
            }
            std::mem::swap(grad, scratch);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mlp(seed: u64) -> Mlp {
        let mut rng = StdRng::seed_from_u64(seed);
        Mlp::new(&[5, 16, 8, 3], &mut rng)
    }

    #[test]
    fn shapes_and_parameter_count() {
        let net = mlp(0);
        assert_eq!(net.input_dim(), 5);
        assert_eq!(net.output_dim(), 3);
        assert_eq!(net.layers().len(), 3);
        let expected = (5 * 16 + 16) + (16 * 8 + 8) + (8 * 3 + 3);
        assert_eq!(net.num_parameters(), expected);
    }

    #[test]
    fn forward_is_deterministic_and_correct_shape() {
        let net = mlp(1);
        let x = Matrix::from_vec(4, 5, (0..20).map(|i| i as f32 * 0.05).collect());
        let y1 = net.forward(&x);
        let y2 = net.forward(&x);
        assert_eq!(y1, y2);
        assert_eq!((y1.rows(), y1.cols()), (4, 3));
        assert_eq!(net.predict(&[0.1; 5]).len(), 3);
    }

    #[test]
    fn parameter_gradients_match_finite_differences() {
        let net = mlp(2);
        let x = Matrix::from_vec(3, 5, (0..15).map(|i| (i as f32 * 0.13).sin()).collect());
        let cache = net.forward_cached(&x);
        // Objective: sum of all outputs.
        let ones = Matrix::from_vec(3, 3, vec![1.0; 9]);
        let (grads, _) = net.backward(&cache, &ones);

        let objective = |n: &Mlp| -> f32 { n.forward(&x).as_slice().iter().sum() };
        let base = objective(&net);
        let eps = 1e-2f32;

        // Spot-check a few weights in different layers.
        for (li, r, c) in [(0usize, 0usize, 1usize), (1, 3, 2), (2, 2, 5)] {
            let mut p = net.clone();
            let w = p.layers_mut()[li].weight.get(r, c);
            p.layers_mut()[li].weight.set(r, c, w + eps);
            let fd = (objective(&p) - base) / eps;
            let analytic = grads.layers[li].weight.get(r, c);
            assert!(
                (fd - analytic).abs() < 0.05 * (1.0 + analytic.abs()),
                "layer {li} weight ({r},{c}): fd {fd} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn input_gradient_matches_finite_differences() {
        let net = mlp(3);
        let x: Vec<f32> = (0..5).map(|i| 0.3 * i as f32 - 0.5).collect();
        let w = [1.0f32, -2.0, 0.5];
        let grad = net.input_gradient(&x, &w);
        assert_eq!(grad.len(), 5);

        let objective = |xx: &[f32]| -> f32 {
            net.predict(xx)
                .iter()
                .zip(&w)
                .map(|(o, wi)| o * wi)
                .sum::<f32>()
        };
        let base = objective(&x);
        let eps = 1e-2f32;
        for i in 0..5 {
            let mut xp = x.clone();
            xp[i] += eps;
            let fd = (objective(&xp) - base) / eps;
            assert!(
                (fd - grad[i]).abs() < 0.05 * (1.0 + grad[i].abs()),
                "input {i}: fd {fd} vs analytic {}",
                grad[i]
            );
        }
    }

    #[test]
    fn predict_batch_matches_per_example_predict() {
        let net = mlp(6);
        let xs: Vec<Vec<f32>> = (0..9)
            .map(|i| (0..5).map(|j| ((i * 5 + j) as f32 * 0.07).cos()).collect())
            .collect();
        let batched = net.predict_batch(&xs);
        assert_eq!(batched.len(), xs.len());
        for (x, y) in xs.iter().zip(&batched) {
            assert_eq!(&net.predict(x), y);
        }
        assert!(net.predict_batch(&[]).is_empty());
    }

    #[test]
    fn tanh_output_bounds_values() {
        let mut rng = StdRng::seed_from_u64(4);
        let net = Mlp::with_activations(&[3, 8, 2], Activation::Relu, Activation::Tanh, &mut rng);
        let y = net.predict(&[100.0, -50.0, 30.0]);
        assert!(y.iter().all(|v| v.abs() <= 1.0));
    }

    #[test]
    #[should_panic(expected = "at least input and output")]
    fn rejects_single_width() {
        let mut rng = StdRng::seed_from_u64(5);
        let _ = Mlp::new(&[4], &mut rng);
    }
}
