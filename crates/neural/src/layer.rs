//! A fully connected (dense) layer.

use crate::activation::Activation;
use crate::init::{gaussian, Init};
use linalg::Matrix;
use rand::Rng;

/// Dense layer `a = σ(W x + b)` with weights `W ∈ R^{out×in}`.
///
/// Biases can be disabled to match Eq. (4) of the paper literally
/// (`S_θ = W_L σ(… W_1 [x;c])` has no bias terms); they are enabled by
/// default because they never hurt and help the tiny networks the
/// experiments use.
#[derive(Clone, Debug)]
pub struct Dense {
    weights: Matrix,
    bias: Vec<f64>,
    use_bias: bool,
    activation: Activation,
}

/// Cache of one forward pass through a layer, needed by backprop.
#[derive(Clone, Debug)]
pub struct LayerCache {
    /// The input the layer saw.
    pub input: Vec<f64>,
    /// Pre-activation values `z = W x + b`.
    pub pre: Vec<f64>,
    /// Post-activation values `a = σ(z)`.
    pub post: Vec<f64>,
}

impl Dense {
    /// Create a layer with randomly initialised weights.
    pub fn new<R: Rng + ?Sized>(
        rng: &mut R,
        fan_in: usize,
        fan_out: usize,
        activation: Activation,
        init: Init,
        use_bias: bool,
    ) -> Self {
        assert!(fan_in > 0 && fan_out > 0, "layer dims must be positive");
        let std = init.std_for(fan_in, fan_out);
        let mut weights = Matrix::zeros(fan_out, fan_in);
        for w in weights.data_mut() {
            *w = gaussian(rng, 0.0, std);
        }
        Self { weights, bias: vec![0.0; fan_out], use_bias, activation }
    }

    /// Input dimensionality.
    pub fn fan_in(&self) -> usize {
        self.weights.cols()
    }

    /// Output dimensionality.
    pub fn fan_out(&self) -> usize {
        self.weights.rows()
    }

    /// The layer's activation function.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// Whether bias terms are enabled.
    pub fn uses_bias(&self) -> bool {
        self.use_bias
    }

    /// Build a layer from explicit parameters (layout as in
    /// [`Self::write_params`]: weights row-major, then biases when
    /// enabled).
    ///
    /// # Panics
    /// Panics if `params` has the wrong length.
    pub fn from_params(
        fan_in: usize,
        fan_out: usize,
        activation: Activation,
        use_bias: bool,
        params: &[f64],
    ) -> Self {
        assert!(fan_in > 0 && fan_out > 0, "layer dims must be positive");
        let expected = fan_in * fan_out + if use_bias { fan_out } else { 0 };
        assert_eq!(params.len(), expected, "parameter count mismatch");
        let mut layer = Self {
            weights: Matrix::zeros(fan_out, fan_in),
            bias: vec![0.0; fan_out],
            use_bias,
            activation,
        };
        layer.read_params(params);
        layer
    }

    /// Number of parameters (weights plus biases when enabled).
    pub fn param_count(&self) -> usize {
        self.weights.rows() * self.weights.cols() + if self.use_bias { self.bias.len() } else { 0 }
    }

    /// Borrow the weight matrix.
    pub fn weights(&self) -> &Matrix {
        &self.weights
    }

    /// Largest singular value upper bound: we report the Frobenius norm,
    /// which dominates the operator norm — this is the `ξ` that appears in
    /// the Theorem 1 regret bound `n|C|ξ^L / π^{L-1}`.
    pub fn operator_norm_bound(&self) -> f64 {
        self.weights.frobenius_norm()
    }

    /// Forward pass returning the cache backprop needs.
    pub fn forward(&self, input: &[f64]) -> LayerCache {
        assert_eq!(input.len(), self.fan_in(), "forward: input dim mismatch");
        let mut pre = self.weights.matvec(input);
        if self.use_bias {
            for (p, b) in pre.iter_mut().zip(&self.bias) {
                *p += b;
            }
        }
        let mut post = pre.clone();
        self.activation.apply_slice(&mut post);
        LayerCache { input: input.to_vec(), pre, post }
    }

    /// In-place forward pass: like [`Self::forward`] but reusing the
    /// buffers of an existing [`LayerCache`]. Bit-identical arithmetic,
    /// zero allocation once the cache has warmed up.
    pub fn forward_into(&self, input: &[f64], cache: &mut LayerCache) {
        assert_eq!(input.len(), self.fan_in(), "forward: input dim mismatch");
        cache.input.clear();
        cache.input.extend_from_slice(input);
        cache.pre.resize(self.fan_out(), 0.0);
        self.weights.matvec_into(input, &mut cache.pre);
        if self.use_bias {
            for (p, b) in cache.pre.iter_mut().zip(&self.bias) {
                *p += b;
            }
        }
        cache.post.clear();
        cache.post.extend_from_slice(&cache.pre);
        self.activation.apply_slice(&mut cache.post);
    }

    /// Backward pass.
    ///
    /// Given `d_post = ∂out/∂a` (gradient w.r.t. this layer's
    /// post-activation output), writes the parameter gradient into
    /// `grad_w`/`grad_b` (accumulating) and returns `∂out/∂input`.
    #[allow(clippy::needless_range_loop)] // index loops are the clear idiom in this kernel
    pub fn backward(
        &self,
        cache: &LayerCache,
        d_post: &[f64],
        grad_w: &mut Matrix,
        grad_b: &mut [f64],
    ) -> Vec<f64> {
        assert_eq!(d_post.len(), self.fan_out(), "backward: grad dim mismatch");
        // δ = d_post ⊙ σ'(z)
        let delta: Vec<f64> = d_post
            .iter()
            .zip(&cache.pre)
            .map(|(d, &z)| d * self.activation.derivative(z))
            .collect();
        // ∂out/∂W_ij = δ_i * x_j ; ∂out/∂b_i = δ_i
        for i in 0..self.fan_out() {
            let di = delta[i];
            if di != 0.0 {
                let row = grad_w.row_mut(i);
                for (g, &xj) in row.iter_mut().zip(&cache.input) {
                    *g += di * xj;
                }
            }
        }
        if self.use_bias {
            for (g, d) in grad_b.iter_mut().zip(&delta) {
                *g += d;
            }
        }
        // ∂out/∂x = Wᵀ δ
        self.weights.matvec_t(&delta)
    }

    /// In-place backward pass: like [`Self::backward`] but writing
    /// `δ` into `delta` and `∂out/∂input` into `d_input` (both reused
    /// buffers) instead of allocating. Bit-identical arithmetic.
    #[allow(clippy::needless_range_loop)] // index loops are the clear idiom in this kernel
    pub fn backward_into(
        &self,
        cache: &LayerCache,
        d_post: &[f64],
        grad_w: &mut Matrix,
        grad_b: &mut [f64],
        delta: &mut Vec<f64>,
        d_input: &mut Vec<f64>,
    ) {
        assert_eq!(d_post.len(), self.fan_out(), "backward: grad dim mismatch");
        // δ = d_post ⊙ σ'(z)
        delta.clear();
        delta
            .extend(d_post.iter().zip(&cache.pre).map(|(d, &z)| d * self.activation.derivative(z)));
        // ∂out/∂W_ij = δ_i * x_j ; ∂out/∂b_i = δ_i
        for i in 0..self.fan_out() {
            let di = delta[i];
            if di != 0.0 {
                let row = grad_w.row_mut(i);
                for (g, &xj) in row.iter_mut().zip(&cache.input) {
                    *g += di * xj;
                }
            }
        }
        if self.use_bias {
            for (g, d) in grad_b.iter_mut().zip(delta.iter()) {
                *g += d;
            }
        }
        // ∂out/∂x = Wᵀ δ
        d_input.resize(self.fan_in(), 0.0);
        self.weights.matvec_t_into(delta, d_input);
    }

    /// Forward pass over `n` row-major inputs (`n × fan_in`), writing
    /// `n × fan_out` row-major pre- and post-activations. Each row gets
    /// exactly the arithmetic of [`Self::forward_into`]: one
    /// [`Matrix::matvec_into`], then the bias, then the activation.
    pub(crate) fn forward_rows_into(
        &self,
        inputs: &[f64],
        pre: &mut Vec<f64>,
        post: &mut Vec<f64>,
    ) {
        let (fan_in, fan_out) = (self.fan_in(), self.fan_out());
        assert_eq!(inputs.len() % fan_in, 0, "forward: input dim mismatch");
        pre.resize(inputs.len() / fan_in * fan_out, 0.0);
        for (x, z) in inputs.chunks_exact(fan_in).zip(pre.chunks_exact_mut(fan_out)) {
            self.weights.matvec_into(x, z);
            if self.use_bias {
                for (p, b) in z.iter_mut().zip(&self.bias) {
                    *p += b;
                }
            }
        }
        post.clear();
        post.extend_from_slice(pre);
        self.activation.apply_slice(post);
    }

    /// Backward pass over the `n` rows of a [`Self::forward_rows_into`]
    /// pass. `d_post` (`n × fan_out`, `∂L/∂a` per row) is turned into
    /// `δ = d_post ⊙ σ'(z)` in place. With `grad` (this layer's slice of
    /// a flat gradient: weights row-major, then biases), `Σ_s δ_s x_sᵀ`
    /// and `Σ_s δ_s` are added into it one row at a time in ascending
    /// row order, skipping a weight row whose `δ` is zero exactly as
    /// [`Self::backward_into`] does. With `d_input`, it receives the
    /// `n × fan_in` input gradient `Wᵀ δ_s` per row
    /// ([`Matrix::matvec_t_into`]).
    pub(crate) fn backward_rows(
        &self,
        inputs: &[f64],
        pre: &[f64],
        d_post: &mut [f64],
        grad: Option<&mut [f64]>,
        d_input: Option<&mut Vec<f64>>,
    ) {
        let (fan_in, fan_out) = (self.fan_in(), self.fan_out());
        assert_eq!(d_post.len(), pre.len(), "backward: grad dim mismatch");
        for (d, &z) in d_post.iter_mut().zip(pre) {
            *d *= self.activation.derivative(z);
        }
        if let Some(grad) = grad {
            let (grad_w, grad_b) = grad.split_at_mut(fan_in * fan_out);
            for (x, delta) in inputs.chunks_exact(fan_in).zip(d_post.chunks_exact(fan_out)) {
                for (row, &di) in grad_w.chunks_exact_mut(fan_in).zip(delta) {
                    if di != 0.0 {
                        for (g, &xj) in row.iter_mut().zip(x) {
                            *g += di * xj;
                        }
                    }
                }
                if self.use_bias {
                    for (g, d) in grad_b.iter_mut().zip(delta) {
                        *g += d;
                    }
                }
            }
        }
        if let Some(d_input) = d_input {
            d_input.resize(inputs.len(), 0.0);
            for (delta, out) in d_post.chunks_exact(fan_out).zip(d_input.chunks_exact_mut(fan_in)) {
                self.weights.matvec_t_into(delta, out);
            }
        }
    }

    /// Copy parameters out into `dst` (weights row-major, then biases when
    /// enabled); returns the number of values written.
    pub fn write_params(&self, dst: &mut [f64]) -> usize {
        let nw = self.weights.data().len();
        dst[..nw].copy_from_slice(self.weights.data());
        if self.use_bias {
            dst[nw..nw + self.bias.len()].copy_from_slice(&self.bias);
            nw + self.bias.len()
        } else {
            nw
        }
    }

    /// Load parameters from `src` (layout mirroring [`Self::write_params`]);
    /// returns the number of values read.
    pub fn read_params(&mut self, src: &[f64]) -> usize {
        let nw = self.weights.data().len();
        self.weights.data_mut().copy_from_slice(&src[..nw]);
        if self.use_bias {
            let nb = self.bias.len();
            self.bias.copy_from_slice(&src[nw..nw + nb]);
            nw + nb
        } else {
            nw
        }
    }

    /// Apply a parameter delta: `θ += scale * d`; layout as in
    /// [`Self::write_params`]. Returns values consumed.
    pub fn apply_delta(&mut self, scale: f64, d: &[f64]) -> usize {
        let nw = self.weights.data().len();
        for (w, &g) in self.weights.data_mut().iter_mut().zip(&d[..nw]) {
            *w += scale * g;
        }
        if self.use_bias {
            let nb = self.bias.len();
            for (b, &g) in self.bias.iter_mut().zip(&d[nw..nw + nb]) {
                *b += scale * g;
            }
            nw + nb
        } else {
            nw
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn layer(act: Activation) -> Dense {
        let mut rng = StdRng::seed_from_u64(1);
        Dense::new(&mut rng, 3, 2, act, Init::Xavier, true)
    }

    #[test]
    fn forward_shapes() {
        let l = layer(Activation::Relu);
        let c = l.forward(&[1.0, -1.0, 0.5]);
        assert_eq!(c.pre.len(), 2);
        assert_eq!(c.post.len(), 2);
        assert_eq!(c.input, vec![1.0, -1.0, 0.5]);
    }

    #[test]
    fn relu_forward_clamps() {
        let l = layer(Activation::Relu);
        let c = l.forward(&[2.0, 0.3, -0.7]);
        for (&z, &a) in c.pre.iter().zip(&c.post) {
            assert_eq!(a, z.max(0.0));
        }
    }

    #[test]
    fn param_roundtrip() {
        let mut l = layer(Activation::Identity);
        let mut buf = vec![0.0; l.param_count()];
        let n = l.write_params(&mut buf);
        assert_eq!(n, l.param_count());
        let mut l2 = l.clone();
        // Perturb then restore.
        l2.apply_delta(1.0, &vec![0.5; l.param_count()]);
        assert_ne!(l2.forward(&[1.0, 1.0, 1.0]).post, l.forward(&[1.0, 1.0, 1.0]).post);
        l2.read_params(&buf);
        assert_eq!(l2.forward(&[1.0, 1.0, 1.0]).post, l.forward(&[1.0, 1.0, 1.0]).post);
        // And the original is untouched by any of this.
        l.read_params(&buf);
    }

    #[test]
    fn backward_gradient_matches_finite_difference() {
        let l = layer(Activation::Tanh);
        let x = [0.7, -0.2, 1.1];
        let cache = l.forward(&x);
        // Treat out = sum(post) so d_post = 1s.
        let mut gw = Matrix::zeros(2, 3);
        let mut gb = vec![0.0; 2];
        let dx = l.backward(&cache, &[1.0, 1.0], &mut gw, &mut gb);

        let eps = 1e-6;
        // Check input gradient numerically.
        for j in 0..3 {
            let mut xp = x;
            xp[j] += eps;
            let mut xm = x;
            xm[j] -= eps;
            let fp: f64 = l.forward(&xp).post.iter().sum();
            let fm: f64 = l.forward(&xm).post.iter().sum();
            let num = (fp - fm) / (2.0 * eps);
            assert!((num - dx[j]).abs() < 1e-6, "input grad {j}");
        }
        // Check a few parameter gradients numerically.
        let mut params = vec![0.0; l.param_count()];
        l.write_params(&mut params);
        for k in [0, 3, 5, 6, 7] {
            let mut lp = l.clone();
            let mut pp = params.clone();
            pp[k] += eps;
            lp.read_params(&pp);
            let fp: f64 = lp.forward(&x).post.iter().sum();
            let mut pm = params.clone();
            pm[k] -= eps;
            lp.read_params(&pm);
            let fm: f64 = lp.forward(&x).post.iter().sum();
            let num = (fp - fm) / (2.0 * eps);
            let analytic = if k < 6 { gw.data()[k] } else { gb[k - 6] };
            assert!((num - analytic).abs() < 1e-6, "param grad {k}: {num} vs {analytic}");
        }
    }

    #[test]
    fn operator_norm_bound_positive() {
        assert!(layer(Activation::Relu).operator_norm_bound() > 0.0);
    }

    #[test]
    #[should_panic(expected = "dims must be positive")]
    fn zero_dim_layer_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        Dense::new(&mut rng, 0, 2, Activation::Relu, Init::He, true);
    }
}
