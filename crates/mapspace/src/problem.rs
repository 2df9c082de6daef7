//! Problem specifications: named dimensions plus the tensors that project
//! onto them.
//!
//! This is the domain-agnostic analogue of Timeloop's "problem" description:
//! any algorithm expressible as an affine loop nest over a set of dimensions
//! (a generalized einsum, possibly with sliding-window/compound indices such
//! as `I[x + r]` in convolutions) can be described as a [`ProblemSpec`]. The
//! Mind Mappings surrogate is trained over a *family* of problems
//! ([`ProblemFamily`]) so that it generalizes to unseen problem shapes
//! (Section 4.1.1).

use serde::{Deserialize, Serialize};

/// Index of a problem dimension within a [`ProblemSpec`].
///
/// Newtype so that dimension indices cannot be confused with tensor indices
/// or loop positions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct DimId(pub usize);

impl DimId {
    /// The raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for DimId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "d{}", self.0)
    }
}

/// Whether a tensor is an input operand or the produced output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TensorKind {
    /// Read-only operand (e.g. the input activations or filter weights).
    Input,
    /// The produced (and possibly accumulated) result tensor.
    Output,
}

/// One coordinate of a tensor, expressed in terms of problem dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TensorDim {
    /// The coordinate ranges directly over one problem dimension.
    Single(DimId),
    /// A sliding-window coordinate `a + b` (e.g. `x + r` in convolution).
    /// Its extent for tile sizes `ta`, `tb` is `ta + tb - 1`.
    Compound(DimId, DimId),
}

impl TensorDim {
    /// Problem dimensions referenced by this coordinate.
    pub fn referenced(&self) -> Vec<DimId> {
        match *self {
            TensorDim::Single(d) => vec![d],
            TensorDim::Compound(a, b) => vec![a, b],
        }
    }

    /// Whether this coordinate references problem dimension `d`
    /// (allocation-free form of `referenced().contains(&d)`).
    pub fn references(&self, d: DimId) -> bool {
        match *self {
            TensorDim::Single(a) => a == d,
            TensorDim::Compound(a, b) => a == d || b == d,
        }
    }

    /// Extent of this coordinate when each problem dimension `d` has tile size
    /// `tile(d)`.
    pub fn extent(&self, tile: impl Fn(DimId) -> u64) -> u64 {
        match *self {
            TensorDim::Single(d) => tile(d).max(1),
            TensorDim::Compound(a, b) => (tile(a).max(1) + tile(b).max(1)).saturating_sub(1),
        }
    }
}

/// A tensor (operand or result) of the problem and its projection onto the
/// problem dimensions.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TensorSpec {
    /// Short name used in reports (e.g. `"I"`, `"F"`, `"O"`).
    pub name: String,
    /// Operand vs. result.
    pub kind: TensorKind,
    /// Coordinates of the tensor in terms of problem dimensions.
    pub dims: Vec<TensorDim>,
}

impl TensorSpec {
    /// Create a tensor spec.
    pub fn new(name: impl Into<String>, kind: TensorKind, dims: Vec<TensorDim>) -> Self {
        Self {
            name: name.into(),
            kind,
            dims,
        }
    }

    /// All problem dimensions this tensor depends on (deduplicated, ordered).
    pub fn relevant_dims(&self) -> Vec<DimId> {
        let mut out = Vec::new();
        for td in &self.dims {
            for d in td.referenced() {
                if !out.contains(&d) {
                    out.push(d);
                }
            }
        }
        out
    }

    /// Allocation-free form of [`relevant_dims`](Self::relevant_dims): write
    /// the deduplicated dimensions (same order) into `buf` and return how many
    /// were written. `buf` must have room for every distinct dimension the
    /// tensor references.
    ///
    /// # Panics
    ///
    /// Panics if `buf` is too small to hold the distinct referenced dims.
    pub fn relevant_dims_into(&self, buf: &mut [DimId]) -> usize {
        let mut n = 0;
        for td in &self.dims {
            let (a, b) = match *td {
                TensorDim::Single(a) => (a, None),
                TensorDim::Compound(a, b) => (a, Some(b)),
            };
            for d in std::iter::once(a).chain(b) {
                if !buf[..n].contains(&d) {
                    buf[n] = d;
                    n += 1;
                }
            }
        }
        n
    }

    /// Whether the tensor's contents depend on problem dimension `d`.
    ///
    /// Allocation-free: this sits on the innermost loops of the reuse
    /// analysis (called per temporal loop per tensor per evaluation).
    pub fn is_relevant(&self, d: DimId) -> bool {
        self.dims.iter().any(|td| td.references(d))
    }

    /// Number of elements of this tensor covered by a tile with per-dimension
    /// extents given by `tile`.
    pub fn footprint(&self, tile: impl Fn(DimId) -> u64 + Copy) -> u64 {
        self.dims
            .iter()
            .map(|td| td.extent(tile))
            .fold(1u64, |acc, e| acc.saturating_mul(e.max(1)))
    }
}

/// A fully parameterized problem: one member of an algorithm family.
///
/// For example *the* CNN layer with `N=16, K=256, C=256, X=14, Y=14, R=3,
/// S=3`, as opposed to "CNN layers" in general.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProblemSpec {
    /// Human-readable problem name (e.g. `"ResNet Conv_4"`).
    pub name: String,
    /// Names of the problem dimensions, in canonical order.
    pub dim_names: Vec<String>,
    /// Sizes (loop bounds) of the problem dimensions, same order.
    pub dim_sizes: Vec<u64>,
    /// The tensors read and written by the problem.
    pub tensors: Vec<TensorSpec>,
}

impl ProblemSpec {
    /// Create a problem spec. Panics if `dim_names` and `dim_sizes` lengths
    /// differ or any size is zero.
    ///
    /// # Panics
    ///
    /// Panics when the dimension name/size lists have different lengths, when
    /// a dimension size is zero, or when no output tensor is present.
    pub fn new(name: impl Into<String>, dims: Vec<(&str, u64)>, tensors: Vec<TensorSpec>) -> Self {
        assert!(
            dims.iter().all(|(_, s)| *s > 0),
            "problem dimensions must be non-zero"
        );
        assert!(
            tensors.iter().any(|t| t.kind == TensorKind::Output),
            "problem must have an output tensor"
        );
        Self {
            name: name.into(),
            dim_names: dims.iter().map(|(n, _)| n.to_string()).collect(),
            dim_sizes: dims.iter().map(|(_, s)| *s).collect(),
            tensors,
        }
    }

    /// Number of problem dimensions.
    #[inline]
    pub fn num_dims(&self) -> usize {
        self.dim_sizes.len()
    }

    /// Number of tensors (operands + results).
    #[inline]
    pub fn num_tensors(&self) -> usize {
        self.tensors.len()
    }

    /// Size (loop bound) of dimension `d`.
    #[inline]
    pub fn dim_size(&self, d: DimId) -> u64 {
        self.dim_sizes[d.0]
    }

    /// Iterator over all dimension ids.
    pub fn dims(&self) -> impl Iterator<Item = DimId> {
        (0..self.dim_sizes.len()).map(DimId)
    }

    /// Look up a dimension id by name.
    pub fn dim_by_name(&self, name: &str) -> Option<DimId> {
        self.dim_names.iter().position(|n| n == name).map(DimId)
    }

    /// Total number of multiply-accumulate operations: the product of all
    /// dimension sizes (every point of the iteration space is one MAC).
    pub fn total_macs(&self) -> u128 {
        self.dim_sizes.iter().map(|&s| s as u128).product()
    }

    /// Total number of elements of tensor `t` for the full problem.
    pub fn tensor_size(&self, t: usize) -> u64 {
        self.tensors[t].footprint(|d| self.dim_size(d))
    }

    /// The problem-id vector used to condition the surrogate (Section 4.1.1):
    /// simply the dimension sizes as floats.
    pub fn problem_id(&self) -> impl Iterator<Item = f32> + '_ {
        self.dim_sizes.iter().map(|&s| s as f32)
    }

    /// The output tensor index. Problems are guaranteed to have one.
    pub fn output_tensor(&self) -> usize {
        self.tensors
            .iter()
            .position(|t| t.kind == TensorKind::Output)
            // mm-lint: allow(panic): every constructor inserts an output
            // tensor; its absence is a corrupted ProblemSpec.
            .expect("ProblemSpec invariant: output tensor exists")
    }

    /// Dimensions that do not appear in the output tensor (reduction
    /// dimensions); iterating them accumulates partial sums.
    pub fn reduction_dims(&self) -> Vec<DimId> {
        let out = &self.tensors[self.output_tensor()];
        self.dims().filter(|&d| !out.is_relevant(d)).collect()
    }

    // ----- Canonical example problems (used across the workspace) -----

    /// The 1D convolution of Section 3: `O[x] += I[x + r] * F[r]` with input
    /// width `w` and filter size `r`. The two dimensions are the output width
    /// `X = w - r + 1` and the filter extent `R = r`.
    ///
    /// # Panics
    ///
    /// Panics if `r > w` or either is zero.
    pub fn conv1d(w: u64, r: u64) -> Self {
        assert!(w >= r && r > 0, "conv1d requires 0 < r <= w");
        let x = w - r + 1;
        let dx = DimId(0);
        let dr = DimId(1);
        ProblemSpec::new(
            format!("conv1d_w{w}_r{r}"),
            vec![("X", x), ("R", r)],
            vec![
                TensorSpec::new("I", TensorKind::Input, vec![TensorDim::Compound(dx, dr)]),
                TensorSpec::new("F", TensorKind::Input, vec![TensorDim::Single(dr)]),
                TensorSpec::new("O", TensorKind::Output, vec![TensorDim::Single(dx)]),
            ],
        )
    }
}

impl std::fmt::Display for ProblemSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} [", self.name)?;
        for (i, (n, s)) in self.dim_names.iter().zip(&self.dim_sizes).enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{n}={s}")?;
        }
        write!(f, "]")
    }
}

/// A family of problems sharing an algorithm (all CNN layers, all MTTKRP
/// shapes, …). Used to generate the Phase-1 training set: the surrogate is
/// trained on mappings drawn from *representative* problems of the family so
/// it can interpolate to unseen shapes (Section 4.1.1, question 1).
pub trait ProblemFamily {
    /// Name of the algorithm (e.g. `"cnn-layer"`).
    fn algorithm(&self) -> &str;

    /// Number of problem dimensions every member of the family has.
    fn num_dims(&self) -> usize;

    /// Number of tensors every member of the family has.
    fn num_tensors(&self) -> usize;

    /// Sample a representative problem of the family (used for training-set
    /// generation; typical dimension ranges, uniform at random).
    fn sample_problem(&self, rng: &mut dyn rand::RngCore) -> ProblemSpec;

    /// A fixed canonical member of the family, used to derive the encoding
    /// shape (vector lengths) which is constant across the family.
    fn canonical_problem(&self) -> ProblemSpec;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conv() -> ProblemSpec {
        ProblemSpec::conv1d(64, 5)
    }

    #[test]
    fn conv1d_shape() {
        let p = conv();
        assert_eq!(p.num_dims(), 2);
        assert_eq!(p.num_tensors(), 3);
        assert_eq!(p.dim_size(DimId(0)), 60); // X = 64 - 5 + 1
        assert_eq!(p.dim_size(DimId(1)), 5);
        assert_eq!(p.total_macs(), 60 * 5);
    }

    #[test]
    fn conv1d_tensor_sizes() {
        let p = conv();
        // I is compound: X + R - 1 = 64
        assert_eq!(p.tensor_size(0), 64);
        // F = R = 5
        assert_eq!(p.tensor_size(1), 5);
        // O = X = 60
        assert_eq!(p.tensor_size(2), 60);
    }

    #[test]
    fn relevant_dims_and_reductions() {
        let p = conv();
        let filt = &p.tensors[1];
        assert!(filt.is_relevant(DimId(1)));
        assert!(!filt.is_relevant(DimId(0)));
        assert_eq!(p.output_tensor(), 2);
        assert_eq!(p.reduction_dims(), vec![DimId(1)]);
    }

    #[test]
    fn relevant_dims_into_matches_allocating_form() {
        let p = conv();
        for t in &p.tensors {
            let mut buf = [DimId(0); 8];
            let n = t.relevant_dims_into(&mut buf);
            assert_eq!(&buf[..n], t.relevant_dims().as_slice());
        }
    }

    #[test]
    fn footprint_respects_compound_dims() {
        let p = conv();
        let inp = &p.tensors[0];
        // tile X=4, R=3 -> input footprint = 4 + 3 - 1 = 6
        let fp = inp.footprint(|d| if d == DimId(0) { 4 } else { 3 });
        assert_eq!(fp, 6);
    }

    #[test]
    fn problem_id_matches_dim_sizes() {
        let p = conv();
        assert_eq!(p.problem_id().collect::<Vec<_>>(), vec![60.0, 5.0]);
    }

    #[test]
    fn dim_by_name_roundtrip() {
        let p = conv();
        assert_eq!(p.dim_by_name("X"), Some(DimId(0)));
        assert_eq!(p.dim_by_name("R"), Some(DimId(1)));
        assert_eq!(p.dim_by_name("Z"), None);
    }

    #[test]
    fn display_contains_sizes() {
        let p = conv();
        let s = p.to_string();
        assert!(s.contains("X=60"));
        assert!(s.contains("R=5"));
    }

    #[test]
    #[should_panic(expected = "conv1d requires")]
    fn conv1d_rejects_bad_sizes() {
        let _ = ProblemSpec::conv1d(3, 5);
    }

    #[test]
    fn tensor_dim_extent_handles_zero_gracefully() {
        let td = TensorDim::Compound(DimId(0), DimId(1));
        assert_eq!(td.extent(|_| 0), 1);
        let td = TensorDim::Single(DimId(0));
        assert_eq!(td.extent(|_| 0), 1);
    }
}
