//! The multilayer perceptron `S_θ` of Eq. (4) with layer freezing.

use crate::activation::Activation;
use crate::init::Init;
use crate::layer::{Dense, LayerCache};
use crate::loss;
use linalg::Matrix;
use rand::Rng;

/// A scalar-output MLP: `S_θ : R^d → R`.
///
/// Layers can be individually **frozen**; frozen layers still participate
/// in forward/backward passes but are excluded from the flat parameter and
/// gradient vectors, so every training step and every bandit covariance
/// update automatically operates on the trainable subset only. This is
/// the mechanism behind the paper's personalised estimator (Sec. V-D):
/// copy the base network, freeze the first `L−1` layers, fine-tune the
/// last.
#[derive(Clone, Debug)]
pub struct Mlp {
    layers: Vec<Dense>,
    frozen: Vec<bool>,
}

/// Reusable buffers for one fused forward+backward pass through an
/// [`Mlp`]: per-layer forward caches, per-layer parameter-gradient
/// accumulators, and the backprop ping-pong vectors. Build one with
/// [`Mlp::scratch`], keep it alongside the network, and every
/// [`Mlp::forward_with_gradient_into`] call is allocation-free.
///
/// A scratch is tied to the *architecture*, not the weights: it can be
/// shared across networks of identical shape (e.g. the per-broker
/// personalised copies) but not across different layer layouts.
#[derive(Clone, Debug)]
pub struct MlpScratch {
    caches: Vec<LayerCache>,
    grads_w: Vec<Matrix>,
    grads_b: Vec<Vec<f64>>,
    d_post: Vec<f64>,
    d_next: Vec<f64>,
    delta: Vec<f64>,
}

/// Samples per block of a batch-major training pass: bounds the
/// per-layer activation buffers of a [`TrainScratch`] whatever the
/// batch size. Blocks run in sample order, so results do not depend on
/// it.
const TRAIN_BLOCK: usize = 64;

/// Reusable buffers for batch-major training
/// ([`Mlp::loss_gradient_into`], [`Mlp::train_step_into`]): per-layer
/// pre-/post-activations of one block of samples, the backprop
/// ping-pong matrices, and the flat gradient, parameter and prediction
/// vectors. Like [`MlpScratch`] it is tied to the architecture, not the
/// weights; an empty `TrainScratch::default()` sizes itself on first use.
#[derive(Clone, Debug, Default)]
pub struct TrainScratch {
    pre: Vec<Vec<f64>>,
    post: Vec<Vec<f64>>,
    d_post: Vec<f64>,
    d_input: Vec<f64>,
    grad: Vec<f64>,
    params: Vec<f64>,
    preds: Vec<f64>,
}

impl TrainScratch {
    /// The flat trainable gradient left by the last
    /// [`Mlp::loss_gradient_into`] (layout of [`Mlp::param_gradient`]);
    /// after [`Mlp::train_step_into`] it holds the clipped step.
    pub fn gradient(&self) -> &[f64] {
        &self.grad
    }
}

/// Builder for [`Mlp`], defaulting to the paper's 3-layer ReLU network.
#[derive(Clone, Debug)]
pub struct MlpBuilder {
    input_dim: usize,
    hidden: Vec<usize>,
    activation: Activation,
    init: Init,
    use_bias: bool,
}

impl MlpBuilder {
    /// Start a builder for a network with the given input dimensionality.
    pub fn new(input_dim: usize) -> Self {
        Self {
            input_dim,
            hidden: vec![64, 16],
            activation: Activation::Relu,
            init: Init::He,
            use_bias: true,
        }
    }

    /// Hidden layer widths (the output layer of width 1 is implicit).
    pub fn hidden(mut self, widths: &[usize]) -> Self {
        self.hidden = widths.to_vec();
        self
    }

    /// Hidden activation (default ReLU, matching Eq. 4).
    pub fn activation(mut self, act: Activation) -> Self {
        self.activation = act;
        self
    }

    /// Weight initialisation scheme.
    pub fn init(mut self, init: Init) -> Self {
        self.init = init;
        self
    }

    /// Enable or disable bias terms (Eq. 4 literally has none).
    pub fn bias(mut self, use_bias: bool) -> Self {
        self.use_bias = use_bias;
        self
    }

    /// Build the network, sampling weights from `rng`.
    pub fn build<R: Rng + ?Sized>(self, rng: &mut R) -> Mlp {
        assert!(self.input_dim > 0, "input dim must be positive");
        let mut layers = Vec::with_capacity(self.hidden.len() + 1);
        let mut fan_in = self.input_dim;
        for &w in &self.hidden {
            layers.push(Dense::new(rng, fan_in, w, self.activation, self.init, self.use_bias));
            fan_in = w;
        }
        layers.push(Dense::new(rng, fan_in, 1, Activation::Identity, self.init, self.use_bias));
        let frozen = vec![false; layers.len()];
        Mlp { layers, frozen }
    }
}

impl Mlp {
    /// Assemble a network from explicit layers and frozen flags,
    /// validating the architecture (consecutive dims chain; scalar
    /// output).
    pub fn from_layers(layers: Vec<Dense>, frozen: Vec<bool>) -> Result<Mlp, String> {
        if layers.is_empty() {
            return Err("network must have at least one layer".into());
        }
        if layers.len() != frozen.len() {
            return Err("frozen mask length mismatch".into());
        }
        for w in layers.windows(2) {
            if w[0].fan_out() != w[1].fan_in() {
                return Err(format!(
                    "layer dims do not chain: {} -> {}",
                    w[0].fan_out(),
                    w[1].fan_in()
                ));
            }
        }
        if layers.last().expect("non-empty").fan_out() != 1 {
            return Err("output layer must be scalar".into());
        }
        Ok(Mlp { layers, frozen })
    }

    /// Number of layers `L` (hidden layers plus the linear output layer).
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Borrow layer `idx` (0-based from the input side).
    pub fn layer(&self, idx: usize) -> &Dense {
        &self.layers[idx]
    }

    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.layers[0].fan_in()
    }

    /// Freeze or unfreeze one layer (0-based from the input side).
    pub fn freeze_layer(&mut self, idx: usize, frozen: bool) {
        self.frozen[idx] = frozen;
    }

    /// Freeze the first `L−1` layers, leaving only the output layer
    /// trainable — the paper's layer-transfer personalisation.
    pub fn freeze_all_but_last(&mut self) {
        let n = self.layers.len();
        for (i, f) in self.frozen.iter_mut().enumerate() {
            *f = i + 1 < n;
        }
    }

    /// Unfreeze every layer.
    pub fn unfreeze_all(&mut self) {
        self.frozen.iter_mut().for_each(|f| *f = false);
    }

    /// Whether layer `idx` is frozen.
    pub fn is_frozen(&self, idx: usize) -> bool {
        self.frozen[idx]
    }

    /// Total parameter count, frozen or not.
    pub fn total_param_count(&self) -> usize {
        self.layers.iter().map(Dense::param_count).sum()
    }

    /// Parameter count of the trainable subset — this is the dimension
    /// `d` of the bandit covariance `D`.
    pub fn trainable_param_count(&self) -> usize {
        self.layers
            .iter()
            .zip(&self.frozen)
            .filter(|(_, &f)| !f)
            .map(|(l, _)| l.param_count())
            .sum()
    }

    /// Scalar forward pass `S_θ(x)`.
    pub fn forward(&self, x: &[f64]) -> f64 {
        let mut cur = x.to_vec();
        for layer in &self.layers {
            cur = layer.forward(&cur).post;
        }
        debug_assert_eq!(cur.len(), 1);
        cur[0]
    }

    /// Build a scratch buffer sized for this network; see [`MlpScratch`].
    pub fn scratch(&self) -> MlpScratch {
        MlpScratch {
            caches: self
                .layers
                .iter()
                .map(|l| LayerCache {
                    input: Vec::with_capacity(l.fan_in()),
                    pre: Vec::with_capacity(l.fan_out()),
                    post: Vec::with_capacity(l.fan_out()),
                })
                .collect(),
            grads_w: self.layers.iter().map(|l| Matrix::zeros(l.fan_out(), l.fan_in())).collect(),
            grads_b: self.layers.iter().map(|l| vec![0.0; l.fan_out()]).collect(),
            d_post: Vec::new(),
            d_next: Vec::new(),
            delta: Vec::new(),
        }
    }

    /// Allocation-free forward pass through `scratch`'s layer caches.
    /// Bit-identical to [`Self::forward`].
    pub fn forward_into(&self, x: &[f64], scratch: &mut MlpScratch) -> f64 {
        self.forward_cached_into(x, scratch)
    }

    fn forward_cached_into(&self, x: &[f64], s: &mut MlpScratch) -> f64 {
        debug_assert_eq!(s.caches.len(), self.layers.len(), "scratch/architecture mismatch");
        for i in 0..self.layers.len() {
            if i == 0 {
                self.layers[0].forward_into(x, &mut s.caches[0]);
            } else {
                let (prev, rest) = s.caches.split_at_mut(i);
                self.layers[i].forward_into(&prev[i - 1].post, &mut rest[0]);
            }
        }
        let out = &s.caches[self.layers.len() - 1].post;
        debug_assert_eq!(out.len(), 1);
        out[0]
    }

    /// `g_θ(x) = ∇_θ S_θ(x)` over the **trainable** parameters, flattened
    /// layer by layer (input side first; weights row-major, then biases).
    ///
    /// This is the gradient vector that feeds the UCB exploration bonus of
    /// Eq. (5) and the covariance update of Alg. 1 line 12.
    pub fn param_gradient(&self, x: &[f64]) -> Vec<f64> {
        self.forward_with_gradient(x).1
    }

    /// Scalar prediction together with the trainable-parameter gradient —
    /// a single fused pass, saving the duplicate forward that separate
    /// `forward` + `param_gradient` calls would cost inside the bandit's
    /// per-arm loop.
    ///
    /// Allocates a fresh [`MlpScratch`] per call; hot paths should hold a
    /// scratch and call [`Self::forward_with_gradient_into`] instead.
    pub fn forward_with_gradient(&self, x: &[f64]) -> (f64, Vec<f64>) {
        let mut scratch = self.scratch();
        let mut grad = Vec::new();
        let out = self.forward_with_gradient_into(x, &mut scratch, &mut grad);
        (out, grad)
    }

    /// Zero-alloc fused pass: prediction plus the flat trainable gradient
    /// written into `grad_out` (cleared first, capacity reused).
    /// Bit-identical to [`Self::forward_with_gradient`].
    pub fn forward_with_gradient_into(
        &self,
        x: &[f64],
        scratch: &mut MlpScratch,
        grad_out: &mut Vec<f64>,
    ) -> f64 {
        let out = self.forward_cached_into(x, scratch);
        self.backward_into_flat(scratch, 1.0, grad_out);
        out
    }

    /// Backprop from `d_out = ∂L/∂S_θ` through the cached forward pass in
    /// `scratch`, writing the flat trainable gradient into `flat`.
    fn backward_into_flat(&self, s: &mut MlpScratch, d_out: f64, flat: &mut Vec<f64>) {
        let n = self.layers.len();
        for gw in &mut s.grads_w {
            gw.data_mut().fill(0.0);
        }
        for gb in &mut s.grads_b {
            gb.fill(0.0);
        }
        s.d_post.clear();
        s.d_post.push(d_out);
        for i in (0..n).rev() {
            self.layers[i].backward_into(
                &s.caches[i],
                &s.d_post,
                &mut s.grads_w[i],
                &mut s.grads_b[i],
                &mut s.delta,
                &mut s.d_next,
            );
            std::mem::swap(&mut s.d_post, &mut s.d_next);
        }
        flat.clear();
        flat.reserve(self.trainable_param_count());
        for i in 0..n {
            if self.frozen[i] {
                continue;
            }
            flat.extend_from_slice(s.grads_w[i].data());
            if self.layers[i].param_count() > self.layers[i].fan_in() * self.layers[i].fan_out() {
                flat.extend_from_slice(&s.grads_b[i]);
            }
        }
    }

    /// Copy the trainable parameters into a flat vector (layout mirrors
    /// [`Self::param_gradient`]).
    pub fn trainable_params(&self) -> Vec<f64> {
        let mut out = Vec::new();
        self.trainable_params_into(&mut out);
        out
    }

    /// [`Self::trainable_params`] into a reused buffer.
    fn trainable_params_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.resize(self.trainable_param_count(), 0.0);
        let mut off = 0;
        for (layer, &frozen) in self.layers.iter().zip(&self.frozen) {
            if frozen {
                continue;
            }
            off += layer.write_params(&mut out[off..]);
        }
        debug_assert_eq!(off, out.len());
    }

    /// Overwrite the trainable parameters from a flat vector.
    pub fn set_trainable_params(&mut self, params: &[f64]) {
        assert_eq!(params.len(), self.trainable_param_count(), "param length mismatch");
        let mut off = 0;
        for (layer, &frozen) in self.layers.iter_mut().zip(&self.frozen) {
            if frozen {
                continue;
            }
            off += layer.read_params(&params[off..]);
        }
    }

    /// `θ += scale · delta` over trainable parameters.
    pub fn apply_trainable_delta(&mut self, scale: f64, delta: &[f64]) {
        assert_eq!(delta.len(), self.trainable_param_count(), "delta length mismatch");
        let mut off = 0;
        for (layer, &frozen) in self.layers.iter_mut().zip(&self.frozen) {
            if frozen {
                continue;
            }
            off += layer.apply_delta(scale, &delta[off..]);
        }
    }

    /// Gradient of the regularised batch loss of Eq. (6)
    /// `Σ_o (S_θ(x_o) − s_o)² + λ‖θ‖²` over the trainable parameters,
    /// together with the loss value itself.
    ///
    /// Allocates; training loops should keep a [`TrainScratch`] and a
    /// flat input matrix and call [`Self::loss_gradient_into`].
    pub fn loss_gradient(
        &self,
        inputs: &[Vec<f64>],
        targets: &[f64],
        lambda: f64,
    ) -> (f64, Vec<f64>) {
        assert_eq!(inputs.len(), targets.len(), "batch size mismatch");
        let mut s = TrainScratch::default();
        let l = self.loss_gradient_into(&self.flatten_batch(inputs), targets, lambda, &mut s);
        (l, s.grad)
    }

    /// Batch-major [`Self::loss_gradient`] over a row-major input matrix
    /// (`targets.len() × input_dim`): returns the loss and leaves the
    /// flat trainable gradient in [`TrainScratch::gradient`].
    ///
    /// The batch is forwarded one layer at a time, a block of 64 samples
    /// at once, and `Σ_s δ_s x_sᵀ` is accumulated
    /// straight into the one gradient vector in ascending sample order.
    /// Every float operation that reaches the loss or the gradient has
    /// the operands and order of the per-sample formulation (forward,
    /// backprop into zeroed per-layer buffers, flatten, add into the
    /// batch sum), so the results are bit-identical to it; DESIGN.md §9
    /// gives the argument. Allocation-free once `scratch` is warm.
    pub fn loss_gradient_into(
        &self,
        inputs: &[f64],
        targets: &[f64],
        lambda: f64,
        scratch: &mut TrainScratch,
    ) -> f64 {
        let dim = self.input_dim();
        assert_eq!(inputs.len(), targets.len() * dim, "batch size mismatch");
        let n_layers = self.layers.len();
        let TrainScratch { pre, post, d_post, d_input, grad, params, preds } = scratch;
        pre.resize_with(n_layers, Vec::new);
        post.resize_with(n_layers, Vec::new);
        grad.clear();
        grad.resize(self.trainable_param_count(), 0.0);
        preds.clear();
        // Layers below the lowest trainable one need no backprop at all.
        let lowest_trainable = self.frozen.iter().position(|&f| !f);
        for (x, t) in inputs.chunks(TRAIN_BLOCK * dim).zip(targets.chunks(TRAIN_BLOCK)) {
            for (i, layer) in self.layers.iter().enumerate() {
                let (below, rest) = post.split_at_mut(i);
                let input = if i == 0 { x } else { &below[i - 1] };
                layer.forward_rows_into(input, &mut pre[i], &mut rest[0]);
            }
            let out = &post[n_layers - 1];
            preds.extend_from_slice(out);
            d_post.clear();
            d_post.extend(out.iter().zip(t).map(|(&p, &y)| loss::dsq(p, y)));
            let Some(lowest) = lowest_trainable else { continue };
            let mut end = grad.len();
            for i in (lowest..n_layers).rev() {
                let layer = &self.layers[i];
                let layer_grad = if self.frozen[i] {
                    None
                } else {
                    end -= layer.param_count();
                    Some(&mut grad[end..end + layer.param_count()])
                };
                let input = if i == 0 { x } else { &post[i - 1][..] };
                let next = (i > lowest).then_some(&mut *d_input);
                layer.backward_rows(input, &pre[i], d_post, layer_grad, next);
                std::mem::swap(d_post, d_input);
            }
        }
        self.trainable_params_into(params);
        linalg::vector::axpy(2.0 * lambda, params, grad);
        loss::sse_with_l2(preds, targets, lambda, params)
    }

    /// Row-major copy of a batch of input vectors.
    fn flatten_batch(&self, inputs: &[Vec<f64>]) -> Vec<f64> {
        let dim = self.input_dim();
        let mut flat = Vec::with_capacity(inputs.len() * dim);
        for x in inputs {
            assert_eq!(x.len(), dim, "forward: input dim mismatch");
            flat.extend_from_slice(x);
        }
        flat
    }

    /// One plain gradient-descent step on Eq. (6) (Alg. 1 line 17:
    /// `θ ← θ − ∇L`, scaled by `lr`). Returns the pre-step loss.
    pub fn train_step(
        &mut self,
        inputs: &[Vec<f64>],
        targets: &[f64],
        lr: f64,
        lambda: f64,
    ) -> f64 {
        self.train_step_clipped(inputs, targets, lr, lambda, f64::INFINITY)
    }

    /// [`Self::train_step`] with global gradient-norm clipping: when the
    /// gradient's L2 norm exceeds `max_grad_norm` it is rescaled onto the
    /// clip sphere. Clipping keeps a ReLU network from being driven into
    /// the all-dead regime by one oversized step — without it, a large
    /// summed-loss gradient can permanently collapse `S_θ` to a constant
    /// (its output-layer bias), which silently disables the bandit.
    pub fn train_step_clipped(
        &mut self,
        inputs: &[Vec<f64>],
        targets: &[f64],
        lr: f64,
        lambda: f64,
        max_grad_norm: f64,
    ) -> f64 {
        assert_eq!(inputs.len(), targets.len(), "batch size mismatch");
        let flat = self.flatten_batch(inputs);
        self.train_step_into(
            &flat,
            targets,
            lr,
            lambda,
            max_grad_norm,
            &mut TrainScratch::default(),
        )
    }

    /// [`Self::train_step_clipped`] over a row-major input matrix through
    /// reusable buffers (see [`Self::loss_gradient_into`]). Returns the
    /// pre-step loss.
    pub fn train_step_into(
        &mut self,
        inputs: &[f64],
        targets: &[f64],
        lr: f64,
        lambda: f64,
        max_grad_norm: f64,
        scratch: &mut TrainScratch,
    ) -> f64 {
        let l = self.loss_gradient_into(inputs, targets, lambda, scratch);
        let grad = &mut scratch.grad;
        if max_grad_norm.is_finite() {
            let norm = linalg::vector::norm2(grad);
            if norm > max_grad_norm && norm > 0.0 {
                linalg::vector::scale(max_grad_norm / norm, grad);
            }
        }
        self.apply_trainable_delta(-lr, grad);
        l
    }

    /// The `ξ` of Theorem 1: the largest per-layer operator-norm bound.
    pub fn xi(&self) -> f64 {
        self.layers.iter().map(Dense::operator_norm_bound).fold(0.0, f64::max)
    }

    /// Copy all parameters (frozen and trainable alike) from another
    /// network of identical architecture — the "copy the first L−1 layers
    /// of θ_base" step of Sec. V-D copies everything and then freezing
    /// determines what fine-tuning may touch.
    pub fn copy_params_from(&mut self, other: &Mlp) {
        assert_eq!(self.total_param_count(), other.total_param_count(), "architecture mismatch");
        let frozen_backup = self.frozen.clone();
        self.unfreeze_all();
        let mut donor = other.clone();
        donor.unfreeze_all();
        self.set_trainable_params(&donor.trainable_params());
        self.frozen = frozen_backup;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn net(seed: u64) -> Mlp {
        let mut rng = StdRng::seed_from_u64(seed);
        MlpBuilder::new(4).hidden(&[8, 6]).build(&mut rng)
    }

    /// The per-sample training formulation the batch-major kernel
    /// replaced, kept as its oracle: forward one sample, backprop into
    /// zeroed per-layer buffers, flatten, and `axpy` into the batch sum.
    fn loss_gradient_reference(
        m: &Mlp,
        inputs: &[Vec<f64>],
        targets: &[f64],
        lambda: f64,
    ) -> (f64, Vec<f64>, Vec<f64>) {
        let mut grad = vec![0.0; m.trainable_param_count()];
        let mut preds = Vec::with_capacity(inputs.len());
        let mut scratch = m.scratch();
        let mut g = Vec::new();
        for (x, &t) in inputs.iter().zip(targets) {
            let pred = m.forward_cached_into(x, &mut scratch);
            preds.push(pred);
            m.backward_into_flat(&mut scratch, loss::dsq(pred, t), &mut g);
            linalg::vector::axpy(1.0, &g, &mut grad);
        }
        let params = m.trainable_params();
        linalg::vector::axpy(2.0 * lambda, &params, &mut grad);
        (loss::sse_with_l2(&preds, targets, lambda, &params), grad, preds)
    }

    /// The clipped gradient step on top of [`loss_gradient_reference`].
    fn train_step_reference(
        m: &mut Mlp,
        inputs: &[Vec<f64>],
        targets: &[f64],
        lr: f64,
        lambda: f64,
        max_grad_norm: f64,
    ) -> f64 {
        let (l, mut grad, _) = loss_gradient_reference(m, inputs, targets, lambda);
        if max_grad_norm.is_finite() {
            let norm = linalg::vector::norm2(&grad);
            if norm > max_grad_norm && norm > 0.0 {
                linalg::vector::scale(max_grad_norm / norm, &mut grad);
            }
        }
        m.apply_trainable_delta(-lr, &grad);
        l
    }

    /// The first pitfall above, pinned: with no biases, an all-zero
    /// input and all-negative first-layer weights, every dot product of
    /// the forward pass sums only `-0.0` terms, so the prediction is
    /// `-0.0` exactly when each accumulator starts where
    /// `linalg::vector::dot` does.
    #[test]
    fn batched_forward_keeps_the_sign_of_zero() {
        let layers = vec![
            Dense::from_params(2, 2, Activation::Identity, false, &[-1.0, -2.0, -0.5, -3.0]),
            Dense::from_params(2, 1, Activation::Identity, false, &[1.5, 2.5]),
        ];
        let m = Mlp::from_layers(layers, vec![false, false]).unwrap();
        let inputs = vec![vec![0.0, 0.0], vec![1.0, -1.0]];
        let targets = [0.5, 0.25];
        let (_, _, p_ref) = loss_gradient_reference(&m, &inputs, &targets, 0.0);
        // The zero input's prediction carries the sign of an empty sum.
        assert_eq!(p_ref[0].to_bits(), linalg::vector::dot(&[], &[]).to_bits());
        let mut scratch = TrainScratch::default();
        m.loss_gradient_into(&m.flatten_batch(&inputs), &targets, 0.0, &mut scratch);
        assert_eq!(bits(&scratch.preds), bits(&p_ref));
        assert_eq!(m.forward(&inputs[0]).to_bits(), p_ref[0].to_bits());
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// All parameters, frozen or not, as bit patterns.
    fn all_param_bits(m: &Mlp) -> Vec<u64> {
        let mut all = m.clone();
        all.unfreeze_all();
        bits(&all.trainable_params())
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(160))]

        /// Bit-for-bit oracle of the batch-major training kernel against
        /// the per-sample formulation: prediction, loss, gradient and
        /// post-step parameter bits, over 1–3 hidden layers, bias on and off,
        /// random frozen masks (including the layer-transfer
        /// estimator's "all but the last"), all four activations,
        /// λ = 0 and λ > 0, clipping on and off, batches that span
        /// several blocks, and batches holding zero inputs, duplicate
        /// inputs and dead ReLU units. One scratch serves two different
        /// batches, so stale buffer contents would show.
        ///
        /// Two pitfalls the kernel must respect:
        /// - `Iterator::sum::<f64>` starts from `-0.0` on rustc 1.95, so
        ///   a hand-written dot product starting from `+0.0` turns a
        ///   `-0.0` pre-activation into `+0.0`. The batched forward pass
        ///   must start each accumulator from the same value that
        ///   `linalg::vector::dot` uses (it calls `Matrix::matvec_into`).
        /// - Dropping the per-sample zeroing is exact only because the
        ///   batch accumulator starts at `+0.0` and so can never become
        ///   `-0.0`: adding `+0.0` (zeroed buffer plus a `-0.0` term) or
        ///   the raw `-0.0` term then gives the same bits.
        #[test]
        fn batch_major_training_is_bit_identical_to_per_sample(
            seed in 0u64..1_000_000,
            depth in 1usize..4,
            act in 0usize..4,
            bias in 0u8..2,
            frozen_mask in 0u8..16,
            lambda_on in 0u8..2,
            clip_on in 0u8..2,
            dead in 0u8..2,
            n in 0usize..150,
        ) {
            use rand::Rng;
            let mut rng = StdRng::seed_from_u64(seed);
            let activation =
                [Activation::Relu, Activation::Sigmoid, Activation::Tanh, Activation::Identity][act];
            let input_dim = rng.gen_range(1..6);
            let hidden: Vec<usize> = (0..depth).map(|_| rng.gen_range(1..7)).collect();
            let mut m = MlpBuilder::new(input_dim)
                .hidden(&hidden)
                .activation(activation)
                .bias(bias == 1)
                .build(&mut rng);
            if dead == 1 {
                // Unit 0 of layer 0 never fires on non-negative inputs.
                let mut p = m.trainable_params();
                p[..input_dim].iter_mut().for_each(|w| *w = -w.abs() - 0.1);
                m.set_trainable_params(&p);
            }
            for i in 0..m.num_layers() {
                m.freeze_layer(i, frozen_mask & (1 << i) != 0);
            }
            let batch = |rng: &mut StdRng, n: usize| {
                let mut inputs: Vec<Vec<f64>> = Vec::with_capacity(n);
                for s in 0..n {
                    let x: Vec<f64> = match rng.gen_range(0..6) {
                        0 => vec![0.0; input_dim],
                        1 if s > 0 => inputs[rng.gen_range(0..s)].clone(),
                        _ => (0..input_dim).map(|_| rng.gen_range(-2.0..2.0)).collect(),
                    };
                    inputs.push(if dead == 1 { x.iter().map(|v| v.abs()).collect() } else { x });
                }
                let targets: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
                (inputs, targets)
            };
            let lambda = if lambda_on == 1 { 0.01 } else { 0.0 };
            let clip = if clip_on == 1 { 0.5 } else { f64::INFINITY };
            let mut scratch = TrainScratch::default();
            for pass in 0..2 {
                let (inputs, targets) = batch(&mut rng, if pass == 0 { n } else { n / 3 + 1 });
                let flat = m.flatten_batch(&inputs);
                let (l_ref, g_ref, p_ref) = loss_gradient_reference(&m, &inputs, &targets, lambda);
                let l = m.loss_gradient_into(&flat, &targets, lambda, &mut scratch);
                proptest::prop_assert_eq!(bits(&scratch.preds), bits(&p_ref), "preds, pass {}", pass);
                proptest::prop_assert_eq!(l.to_bits(), l_ref.to_bits(), "loss, pass {}", pass);
                proptest::prop_assert_eq!(bits(scratch.gradient()), bits(&g_ref), "grad, pass {}", pass);

                let mut m_ref = m.clone();
                let l_ref = train_step_reference(&mut m_ref, &inputs, &targets, 0.05, lambda, clip);
                let l = m.train_step_into(&flat, &targets, 0.05, lambda, clip, &mut scratch);
                proptest::prop_assert_eq!(l.to_bits(), l_ref.to_bits(), "step loss, pass {}", pass);
                proptest::prop_assert_eq!(all_param_bits(&m), all_param_bits(&m_ref), "params, pass {}", pass);
            }
        }
    }

    #[test]
    fn builder_shapes() {
        let m = net(0);
        assert_eq!(m.num_layers(), 3);
        assert_eq!(m.input_dim(), 4);
        // (4*8+8) + (8*6+6) + (6*1+1) = 40 + 54 + 7
        assert_eq!(m.total_param_count(), 101);
        assert_eq!(m.trainable_param_count(), 101);
    }

    #[test]
    fn freezing_shrinks_trainable_set() {
        let mut m = net(0);
        m.freeze_all_but_last();
        assert_eq!(m.trainable_param_count(), 7);
        assert!(m.is_frozen(0) && m.is_frozen(1) && !m.is_frozen(2));
        m.unfreeze_all();
        assert_eq!(m.trainable_param_count(), 101);
    }

    #[test]
    fn param_gradient_matches_finite_difference() {
        let m = net(3);
        let x = [0.3, -0.8, 1.2, 0.5];
        let grad = m.param_gradient(&x);
        assert_eq!(grad.len(), m.trainable_param_count());
        let params = m.trainable_params();
        let eps = 1e-6;
        // Spot-check a spread of parameter indices.
        for k in (0..params.len()).step_by(13) {
            let mut mp = m.clone();
            let mut p = params.clone();
            p[k] += eps;
            mp.set_trainable_params(&p);
            let fp = mp.forward(&x);
            p[k] -= 2.0 * eps;
            mp.set_trainable_params(&p);
            let fm = mp.forward(&x);
            let num = (fp - fm) / (2.0 * eps);
            assert!(
                (num - grad[k]).abs() < 1e-5,
                "param {k}: numeric {num} vs analytic {}",
                grad[k]
            );
        }
    }

    #[test]
    fn frozen_gradient_matches_finite_difference() {
        let mut m = net(5);
        m.freeze_all_but_last();
        let x = [1.0, 0.2, -0.4, 0.9];
        let grad = m.param_gradient(&x);
        assert_eq!(grad.len(), 7);
        let params = m.trainable_params();
        let eps = 1e-6;
        for k in 0..params.len() {
            let mut mp = m.clone();
            let mut p = params.clone();
            p[k] += eps;
            mp.set_trainable_params(&p);
            let fp = mp.forward(&x);
            p[k] -= 2.0 * eps;
            mp.set_trainable_params(&p);
            let fm = mp.forward(&x);
            let num = (fp - fm) / (2.0 * eps);
            assert!((num - grad[k]).abs() < 1e-5, "param {k}");
        }
    }

    #[test]
    fn loss_gradient_matches_finite_difference() {
        let m = net(7);
        let inputs =
            vec![vec![0.1, 0.2, 0.3, 0.4], vec![-0.5, 0.5, 1.0, -1.0], vec![0.0, 0.0, 1.0, 0.0]];
        let targets = vec![0.2, 0.8, 0.5];
        let lambda = 0.01;
        let (_, grad) = m.loss_gradient(&inputs, &targets, lambda);
        let params = m.trainable_params();
        let eps = 1e-6;
        for k in (0..params.len()).step_by(17) {
            let mut mp = m.clone();
            let mut p = params.clone();
            p[k] += eps;
            mp.set_trainable_params(&p);
            let preds: Vec<f64> = inputs.iter().map(|x| mp.forward(x)).collect();
            let fp = crate::loss::sse_with_l2(&preds, &targets, lambda, &mp.trainable_params());
            p[k] -= 2.0 * eps;
            mp.set_trainable_params(&p);
            let preds: Vec<f64> = inputs.iter().map(|x| mp.forward(x)).collect();
            let fm = crate::loss::sse_with_l2(&preds, &targets, lambda, &mp.trainable_params());
            let num = (fp - fm) / (2.0 * eps);
            assert!(
                (num - grad[k]).abs() < 1e-4,
                "param {k}: numeric {num} vs analytic {}",
                grad[k]
            );
        }
    }

    #[test]
    fn training_reduces_loss_on_fixed_batch() {
        let mut m = net(11);
        let inputs: Vec<Vec<f64>> = (0..16)
            .map(|i| {
                let t = i as f64 / 16.0;
                vec![t, 1.0 - t, t * t, 0.5]
            })
            .collect();
        let targets: Vec<f64> = inputs.iter().map(|x| 0.3 * x[0] + 0.1).collect();
        let first = m.train_step(&inputs, &targets, 0.01, 0.0);
        let mut last = first;
        for _ in 0..200 {
            last = m.train_step(&inputs, &targets, 0.01, 0.0);
        }
        assert!(last < first * 0.2, "loss {first} -> {last}");
    }

    #[test]
    fn fine_tuning_only_moves_last_layer() {
        let mut m = net(13);
        let before_all = {
            let mut c = m.clone();
            c.unfreeze_all();
            c.trainable_params()
        };
        m.freeze_all_but_last();
        m.train_step(&[vec![1.0, 0.0, 0.0, 0.0]], &[0.7], 0.1, 0.0);
        let mut after = m.clone();
        after.unfreeze_all();
        let after_all = after.trainable_params();
        // All but the last 7 params unchanged.
        let n = before_all.len();
        for k in 0..n - 7 {
            assert_eq!(before_all[k], after_all[k], "frozen param {k} moved");
        }
        // And the last layer did move.
        assert!(before_all[n - 7..].iter().zip(&after_all[n - 7..]).any(|(a, b)| a != b));
    }

    #[test]
    fn copy_params_from_transfers_function() {
        let a = net(17);
        let mut b = net(18);
        assert_ne!(a.forward(&[1.0, 2.0, 3.0, 4.0]), b.forward(&[1.0, 2.0, 3.0, 4.0]));
        b.copy_params_from(&a);
        assert_eq!(a.forward(&[1.0, 2.0, 3.0, 4.0]), b.forward(&[1.0, 2.0, 3.0, 4.0]));
    }

    #[test]
    fn forward_with_gradient_consistent() {
        let m = net(19);
        let x = [0.5, -0.5, 0.25, 1.0];
        let (out, grad) = m.forward_with_gradient(&x);
        assert_eq!(out, m.forward(&x));
        assert_eq!(grad, m.param_gradient(&x));
    }

    #[test]
    fn xi_positive() {
        assert!(net(1).xi() > 0.0);
    }

    #[test]
    fn scratch_path_is_bit_identical_to_allocating_path() {
        let m = net(23);
        let mut scratch = m.scratch();
        let mut grad = Vec::new();
        // Reuse one scratch across many inputs: every result must match
        // the allocating API bit for bit (stale buffer contents from the
        // previous input must never leak through).
        for trial in 0..10 {
            let t = trial as f64 * 0.37;
            let x = [t.sin(), -t, t * t - 1.0, 0.5 - t];
            let out = m.forward_with_gradient_into(&x, &mut scratch, &mut grad);
            let (out_ref, grad_ref) = m.forward_with_gradient(&x);
            assert_eq!(out.to_bits(), out_ref.to_bits(), "trial {trial}");
            assert_eq!(grad, grad_ref, "trial {trial}");
            assert_eq!(m.forward_into(&x, &mut scratch).to_bits(), m.forward(&x).to_bits());
        }
    }

    #[test]
    fn scratch_respects_freezing() {
        let mut m = net(29);
        m.freeze_all_but_last();
        let mut scratch = m.scratch();
        let mut grad = Vec::new();
        m.forward_with_gradient_into(&[0.1, 0.2, 0.3, 0.4], &mut scratch, &mut grad);
        assert_eq!(grad.len(), 7);
        assert_eq!(grad, m.param_gradient(&[0.1, 0.2, 0.3, 0.4]));
    }
}
