//! Flattened-forest inference: a fitted [`RandomForest`] compiled into
//! one contiguous, compact node table for cache-friendly,
//! allocation-free traversal.
//!
//! The fitted representation ([`crate::tree::DecisionTree`]) stores a
//! 40-byte enum per node (the leaf variant carries a heap `Vec<f64>`)
//! and every `predict_one` call allocates its output. The flat
//! representation re-emits each tree into 16-byte packed `FlatNode`s
//! — threshold, one child index, and a `u16` feature id with
//! `u16::MAX` marking a leaf — plus one shared leaf-value slab.
//! Emission reserves each split's two children as an *adjacent pair*
//! before descending (see `DecisionTree::emit_flat`), so one stored
//! index addresses both: the descend step is the branchless
//! `idx + (goes_right as usize)`, siblings share a cache line, and
//! shallow levels — the nodes every traversal touches — cluster near
//! the root. A traversal walks a single dense array and the prediction
//! loop never allocates.
//!
//! **Exactness**: [`FlatForest::predict_into`] replicates the fitted
//! forest's arithmetic exactly — leaves are added tree-by-tree in the
//! same order and divided by the tree count at the end — so its output
//! is bitwise identical to [`crate::Regressor::predict_one`] on the
//! source forest. `tests/flat_equivalence.rs` proptests this on random
//! fitted forests.

use crate::forest::RandomForest;

/// Sentinel in [`FlatNode::feature`] marking a leaf node.
pub(crate) const LEAF: u16 = u16::MAX;

/// One packed node of a flattened tree: 16 bytes, vs 40 for the fitted
/// enum node.
#[derive(Clone, Copy, Debug)]
pub(crate) struct FlatNode {
    /// Split threshold (0.0 for leaves).
    pub(crate) threshold: f64,
    /// For a split: index of the left child; the right child is always
    /// adjacent at `idx + 1` (children are reserved as a pair). For a
    /// leaf: offset of its value run in the leaf slab.
    pub(crate) idx: u32,
    /// Split feature; [`LEAF`] marks a leaf.
    pub(crate) feature: u16,
}

impl FlatNode {
    /// Reserved-but-unwritten slot during emission; every placeholder
    /// is overwritten before `from_forest` returns.
    pub(crate) const PLACEHOLDER: FlatNode = FlatNode {
        threshold: 0.0,
        idx: u32::MAX,
        feature: LEAF,
    };
}

/// Flat nodes must stay at 16 bytes — the whole point of the packed
/// layout is four nodes per cache line.
const _: () = assert!(std::mem::size_of::<FlatNode>() == 16);

/// A [`RandomForest`] compiled into flat form (see module docs).
#[derive(Clone, Debug)]
pub struct FlatForest {
    /// All trees' nodes, each tree a contiguous run in sibling-pair
    /// order.
    nodes: Vec<FlatNode>,
    /// All leaf value vectors, concatenated (`n_outputs` each).
    leaf_values: Vec<f64>,
    /// Root node index of each tree.
    roots: Vec<u32>,
    n_outputs: usize,
}

impl FlatForest {
    /// Compile a fitted forest. The forest must have at least one tree
    /// (guaranteed by [`RandomForest::fit`]).
    pub fn from_forest(forest: &RandomForest) -> Self {
        let mut nodes = Vec::new();
        let mut leaf_values = Vec::new();
        let roots: Vec<u32> = forest
            .trees()
            .iter()
            .map(|t| t.flatten_into(&mut nodes, &mut leaf_values))
            .collect();
        FlatForest {
            nodes,
            leaf_values,
            roots,
            n_outputs: forest.n_outputs(),
        }
    }

    /// Number of outputs per prediction.
    pub fn n_outputs(&self) -> usize {
        self.n_outputs
    }

    /// Number of trees.
    pub fn n_trees(&self) -> usize {
        self.roots.len()
    }

    /// Total nodes in the flat table.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Allocation-free forest prediction into `out` (length
    /// [`FlatForest::n_outputs`]); bitwise identical to the fitted
    /// forest's `predict_one` (see module docs).
    pub fn predict_into(&self, x: &[f64], out: &mut [f64]) {
        debug_assert_eq!(out.len(), self.n_outputs);
        out.fill(0.0);
        let nodes = &self.nodes[..];
        for &root in &self.roots {
            let mut i = root as usize;
            loop {
                let n = nodes[i];
                if n.feature == LEAF {
                    let off = n.idx as usize;
                    for (o, &v) in out
                        .iter_mut()
                        .zip(&self.leaf_values[off..off + self.n_outputs])
                    {
                        *o += v;
                    }
                    break;
                }
                // Branchless descend: left child at idx, right at
                // idx + 1. `!(x <= t)` (not `x > t`) keeps NaN routing
                // identical to the fitted tree's `predict_one`.
                #[allow(clippy::neg_cmp_op_on_partial_ord)]
                {
                    i = n.idx as usize + !(x[n.feature as usize] <= n.threshold) as usize;
                }
            }
        }
        let n = self.roots.len() as f64;
        for o in out.iter_mut() {
            *o /= n;
        }
    }

    /// Convenience allocating wrapper around
    /// [`FlatForest::predict_into`].
    pub fn predict_one(&self, x: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.n_outputs];
        self.predict_into(x, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use crate::forest::RandomForestParams;
    use crate::Regressor;

    fn fitted() -> (RandomForest, Vec<Vec<f64>>) {
        let x: Vec<Vec<f64>> = (0..120)
            .map(|i| vec![i as f64 * 0.3, ((i * 13) % 9) as f64])
            .collect();
        let y: Vec<Vec<f64>> = x
            .iter()
            .map(|r| vec![3.0 * r[0].sin() + r[1], r[0] - 0.5 * r[1]])
            .collect();
        let f = RandomForest::fit(
            &Dataset::new(x.clone(), y),
            &RandomForestParams {
                n_trees: 12,
                ..Default::default()
            },
            11,
        );
        (f, x)
    }

    #[test]
    fn matches_boxed_forest_bitwise() {
        let (forest, xs) = fitted();
        let flat = FlatForest::from_forest(&forest);
        assert_eq!(flat.n_trees(), forest.n_trees());
        assert_eq!(flat.n_outputs(), 2);
        let mut out = [0.0f64; 2];
        for x in xs.iter().chain([vec![-5.0, 100.0], vec![1e6, -3.0]].iter()) {
            let boxed = forest.predict_one(x);
            flat.predict_into(x, &mut out);
            assert_eq!(boxed[0].to_bits(), out[0].to_bits());
            assert_eq!(boxed[1].to_bits(), out[1].to_bits());
            let one = flat.predict_one(x);
            assert_eq!(one, boxed);
        }
    }

    #[test]
    fn node_count_matches_source_trees() {
        let (forest, _) = fitted();
        let flat = FlatForest::from_forest(&forest);
        let boxed_nodes: usize = (0..forest.n_trees())
            .map(|i| forest.trees()[i].n_nodes())
            .sum();
        assert_eq!(flat.n_nodes(), boxed_nodes);
    }

    #[test]
    fn flat_nodes_are_packed() {
        assert_eq!(std::mem::size_of::<FlatNode>(), 16);
    }
}
