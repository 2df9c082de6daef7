//! A single-row kernel for the per-step surrogate passes of Phase 2.
//!
//! [`Mlp::predict`] pushes a row through [`Matrix::matmul_transpose_b`]:
//! one dot product per output, a serial chain of dependent adds. The
//! [`RowKernel`] keeps a snapshot of the weights transposed to
//! `[in][out]`, so each input scales one contiguous weight row into all the
//! outputs at once (an axpy the compiler vectorises), and runs into
//! caller-owned [`RowActivations`] that are reused step after step. Both
//! passes are bit-identical to the [`Mlp`] passes
//! (`tests/proptest_gradients.rs` checks `to_bits`).

use crate::matrix::Matrix;
use crate::mlp::Mlp;

/// A snapshot of an [`Mlp`]'s weights laid out for one row at a time.
///
/// Built once per search: later changes to the source network are not
/// seen.
#[derive(Debug, Clone)]
pub struct RowKernel {
    /// The network as snapshotted (biases, activations, and the
    /// `[out][in]` weights the input-only backward pass reads).
    mlp: Mlp,
    /// Each layer's weights transposed to `[in][out]`.
    weight_t: Vec<Matrix>,
}

/// Reusable per-row buffers of one forward pass and its input gradient.
///
/// A kernel can serve several of them, e.g. the current point of a search
/// and a candidate it is weighing.
#[derive(Debug, Clone)]
pub struct RowActivations {
    /// Pre-activation output of each layer.
    pre: Vec<Vec<f32>>,
    /// Post-activation output of each layer; the last is the network
    /// output.
    post: Vec<Vec<f32>>,
    /// The input gradient and its per-layer intermediates; they grow to
    /// the widest layer on first use and are reused after.
    grad: Vec<f32>,
    scratch: Vec<f32>,
}

impl RowKernel {
    /// Snapshot `mlp`.
    pub fn new(mlp: &Mlp) -> Self {
        RowKernel {
            mlp: mlp.clone(),
            weight_t: mlp.layers().iter().map(|l| l.weight.transpose()).collect(),
        }
    }

    /// Buffers sized for this network.
    pub fn activations(&self) -> RowActivations {
        let widths = || {
            self.mlp
                .layers()
                .iter()
                .map(|l| vec![0.0; l.out_features()])
        };
        RowActivations {
            pre: widths().collect(),
            post: widths().collect(),
            grad: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// Forward `x` into `acts` and return the network output.
    ///
    /// Each output starts from `0.0` and accumulates `x[k] · W[j][k]` in
    /// ascending `k`, skipping inputs equal to zero (with finite weights
    /// adding `±0.0` to a sum that started at `+0.0` never changes it), then
    /// adds the bias and applies the activation: the operations
    /// [`Mlp::predict`] performs, in its order, so the output is equal to
    /// the bit.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not the network's input width or `acts` was not
    /// made by this kernel.
    // mm-lint: hot-path — one Phase-2 step runs this once.
    pub fn forward<'a>(&self, x: &[f32], acts: &'a mut RowActivations) -> &'a [f32] {
        assert_eq!(x.len(), self.mlp.input_dim(), "row kernel input width");
        assert_eq!(acts.pre.len(), self.weight_t.len(), "foreign activations");
        for (i, (layer, w_t)) in self.mlp.layers().iter().zip(&self.weight_t).enumerate() {
            let (done, rest) = acts.post.split_at_mut(i);
            let input = done.last().map_or(x, Vec::as_slice);
            let pre = &mut acts.pre[i];
            pre.fill(0.0);
            for (&a, w_row) in input.iter().zip(w_t.as_slice().chunks_exact(pre.len())) {
                if a == 0.0 {
                    continue;
                }
                for (o, &w) in pre.iter_mut().zip(w_row) {
                    *o += a * w;
                }
            }
            for (o, b) in pre.iter_mut().zip(&layer.bias) {
                *o += b;
            }
            let post = &mut rest[0];
            post.copy_from_slice(pre);
            self.mlp.activation(i).forward_in_place(post);
        }
        acts.output()
    }

    /// Gradient of `sum(output_weights ⊙ output)` with respect to the input
    /// of the forward pass last run into `acts`: an input-only backward
    /// pass with no weight gradients, equal to the bit to
    /// [`Mlp::input_gradient`] at that input.
    // mm-lint: hot-path — one Phase-2 step runs this once.
    pub fn input_gradient<'a>(
        &self,
        acts: &'a mut RowActivations,
        output_weights: &[f32],
    ) -> &'a [f32] {
        let RowActivations {
            pre, grad, scratch, ..
        } = acts;
        grad.clear();
        grad.extend_from_slice(output_weights);
        self.mlp
            .row_input_backward(|i| pre[i].as_slice(), grad, scratch);
        grad
    }
}

impl RowActivations {
    /// The network output of the last forward pass.
    pub fn output(&self) -> &[f32] {
        self.post.last().map_or(&[], Vec::as_slice)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn the_snapshot_ignores_later_weight_changes() {
        let mut rng = StdRng::seed_from_u64(10);
        let mut net = Mlp::new(&[3, 4, 2], &mut rng);
        let kernel = RowKernel::new(&net);
        let before = net.predict(&[1.0, 2.0, 3.0]);
        net.layers_mut()[0].bias[0] += 1.0;
        let mut acts = kernel.activations();
        assert_eq!(kernel.forward(&[1.0, 2.0, 3.0], &mut acts), &before[..]);
    }
}
