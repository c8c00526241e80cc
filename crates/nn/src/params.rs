//! Parameter registry shared by all layers of a model.

use std::fmt;

use tsdx_tensor::{Gradients, Graph, Tensor, Var};

/// Identifier of a parameter inside a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParamId(usize);

impl ParamId {
    /// Index of the parameter within its store.
    pub fn index(&self) -> usize {
        self.0
    }
}

#[derive(Debug, Clone)]
struct Param {
    name: String,
    value: Tensor,
}

/// Owns every trainable tensor of a model.
///
/// Layers register their parameters at construction time and receive
/// [`ParamId`] handles. At each training step the store is *bound* to a
/// fresh autograd [`Graph`], producing a [`Binding`] that maps each
/// parameter to a leaf [`Var`]; after `backward`, an optimizer reads
/// gradients through the same binding and updates the stored tensors.
///
/// # Examples
///
/// ```
/// use tsdx_nn::ParamStore;
/// use tsdx_tensor::{Graph, Tensor};
///
/// let mut store = ParamStore::new();
/// let w = store.add("w", Tensor::ones(&[2, 2]));
/// let mut g = Graph::new();
/// let bound = store.bind(&mut g);
/// let wv = bound.var(w);
/// assert_eq!(g.value(wv).shape(), &[2, 2]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ParamStore {
    params: Vec<Param>,
}

/// Maps every parameter of a store to its leaf [`Var`] in one graph.
#[derive(Debug)]
pub struct Binding {
    vars: Vec<Var>,
}

/// A named-parameter shape conflict reported by
/// [`ParamStore::try_load_named`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapeMismatch {
    /// Name of the conflicting parameter.
    pub name: String,
    /// Shape registered in the store.
    pub expected: Vec<usize>,
    /// Shape found in the loaded entries.
    pub found: Vec<usize>,
}

impl Binding {
    /// The graph variable bound to parameter `id`.
    pub fn var(&self, id: ParamId) -> Var {
        self.vars[id.0]
    }
}

impl ParamStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        ParamStore::default()
    }

    /// Registers a parameter and returns its handle.
    ///
    /// Names are purely diagnostic (checkpoints are matched by name, so keep
    /// them unique; [`ParamStore::add`] panics on duplicates to enforce it).
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered.
    pub fn add(&mut self, name: impl Into<String>, value: Tensor) -> ParamId {
        let name = name.into();
        assert!(self.params.iter().all(|p| p.name != name), "duplicate parameter name: {name}");
        self.params.push(Param { name, value });
        ParamId(self.params.len() - 1)
    }

    /// Number of registered parameters (tensors, not scalars).
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// True when no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Total number of scalar parameters across all tensors.
    pub fn num_scalars(&self) -> usize {
        self.params.iter().map(|p| p.value.numel()).sum()
    }

    /// Current value of parameter `id`.
    pub fn value(&self, id: ParamId) -> &Tensor {
        &self.params[id.0].value
    }

    /// Name of parameter `id`.
    pub fn name(&self, id: ParamId) -> &str {
        &self.params[id.0].name
    }

    /// Replaces the value of parameter `id`.
    ///
    /// # Panics
    ///
    /// Panics if the new shape differs from the registered shape.
    pub fn set_value(&mut self, id: ParamId, value: Tensor) {
        assert_eq!(
            self.params[id.0].value.shape(),
            value.shape(),
            "shape mismatch updating parameter {}",
            self.params[id.0].name
        );
        self.params[id.0].value = value;
    }

    /// Iterates over `(name, tensor)` pairs in registration order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Tensor)> {
        self.params.iter().map(|p| (p.name.as_str(), &p.value))
    }

    /// All parameter ids in registration order.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> {
        (0..self.params.len()).map(ParamId)
    }

    /// Binds every parameter as a differentiable leaf of `g`.
    pub fn bind(&self, g: &mut Graph) -> Binding {
        Binding { vars: self.params.iter().map(|p| g.leaf(p.value.clone())).collect() }
    }

    /// Binds every parameter as a *constant* of `g` (inference mode — no
    /// gradient bookkeeping).
    pub fn bind_frozen(&self, g: &mut Graph) -> Binding {
        Binding { vars: self.params.iter().map(|p| g.constant(p.value.clone())).collect() }
    }

    /// Collects the gradient tensor for every parameter (zeros when a
    /// parameter did not participate in the loss).
    pub fn collect_grads(&self, binding: &Binding, grads: &Gradients) -> Vec<Tensor> {
        self.params
            .iter()
            .enumerate()
            .map(|(i, p)| {
                grads
                    .get(binding.vars[i])
                    .cloned()
                    .unwrap_or_else(|| Tensor::zeros(p.value.shape()))
            })
            .collect()
    }

    /// Loads values by name from `(name, tensor)` pairs, returning the
    /// number of parameters restored; names the store lacks are skipped.
    ///
    /// No parameter is modified when an error is returned (validation runs
    /// before any assignment).
    ///
    /// # Errors
    ///
    /// Returns the offending name with both shapes on a mismatch.
    pub fn try_load_named(&mut self, entries: &[(String, Tensor)]) -> Result<usize, ShapeMismatch> {
        for p in &self.params {
            if let Some((_, t)) = entries.iter().find(|(name, _)| *name == p.name) {
                if p.value.shape() != t.shape() {
                    return Err(ShapeMismatch {
                        name: p.name.clone(),
                        expected: p.value.shape().to_vec(),
                        found: t.shape().to_vec(),
                    });
                }
            }
        }
        let mut n = 0;
        for p in &mut self.params {
            if let Some((_, t)) = entries.iter().find(|(name, _)| *name == p.name) {
                p.value = t.clone();
                n += 1;
            }
        }
        Ok(n)
    }
}

impl fmt::Display for ParamStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "ParamStore ({} tensors, {} scalars)", self.len(), self.num_scalars())?;
        for p in &self.params {
            writeln!(f, "  {:<40} {:?}", p.name, p.value.shape())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_count() {
        let mut s = ParamStore::new();
        let a = s.add("a", Tensor::zeros(&[2, 3]));
        let b = s.add("b", Tensor::zeros(&[4]));
        assert_eq!(s.len(), 2);
        assert_eq!(s.num_scalars(), 10);
        assert_eq!(s.name(a), "a");
        assert_eq!(s.value(b).shape(), &[4]);
    }

    #[test]
    #[should_panic]
    fn duplicate_names_rejected() {
        let mut s = ParamStore::new();
        s.add("w", Tensor::zeros(&[1]));
        s.add("w", Tensor::zeros(&[1]));
    }

    #[test]
    fn bind_and_grad_roundtrip() {
        let mut s = ParamStore::new();
        let w = s.add("w", Tensor::from_vec(vec![2.0], &[1]));
        let mut g = Graph::new();
        let bound = s.bind(&mut g);
        let wv = bound.var(w);
        let y = g.mul(wv, wv);
        let loss = g.sum_all(y);
        let grads = g.backward(loss);
        let collected = s.collect_grads(&bound, &grads);
        assert_eq!(collected[0].data(), &[4.0]);
    }

    #[test]
    fn frozen_binding_produces_no_grads() {
        let mut s = ParamStore::new();
        let w = s.add("w", Tensor::from_vec(vec![2.0], &[1]));
        let mut g = Graph::new();
        let bound = s.bind_frozen(&mut g);
        let y = g.mul(bound.var(w), bound.var(w));
        let loss = g.sum_all(y);
        let grads = g.backward(loss);
        assert!(grads.get(bound.var(w)).is_none());
        // collect_grads falls back to zeros.
        let collected = s.collect_grads(&bound, &grads);
        assert_eq!(collected[0].data(), &[0.0]);
    }

    #[test]
    fn load_named_restores_matching() {
        let mut s = ParamStore::new();
        let w = s.add("w", Tensor::zeros(&[2]));
        s.add("v", Tensor::zeros(&[2]));
        let n = s.try_load_named(&[("w".to_string(), Tensor::ones(&[2]))]).expect("same shape");
        assert_eq!(n, 1);
        assert_eq!(s.value(w).data(), &[1.0, 1.0]);
    }
}
