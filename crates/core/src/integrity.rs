//! A sparse Merkle tree congruent with the ORAM tree: a node's digest
//! covers its bucket's digest and its children's, untouched subtrees use
//! per-depth defaults, the root is held on chip.
//!
//! No controller maintains one (DESIGN.md §10; priced in commit 35528be):
//! this is what the frozen `integrity.verify_update_path_ns` benchmark
//! kernel calls, and it goes when that kernel does.

use std::collections::HashMap;

use psoram_crypto::{Digest, Hash128};

use crate::tree::BucketIndex;
use crate::types::Leaf;

/// Error raised when a fetched path fails verification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntegrityViolation {
    /// The path whose verification failed.
    pub leaf: Leaf,
}

impl std::fmt::Display for IntegrityViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "integrity violation on path {}", self.leaf)
    }
}

impl std::error::Error for IntegrityViolation {}

/// Sparse Merkle tree mirroring an ORAM tree of height `levels`.
///
/// # Examples
///
/// ```
/// use psoram_core::integrity::IntegrityTree;
/// use psoram_core::Leaf;
/// use psoram_crypto::Hash128;
///
/// let h = Hash128::new();
/// let empty = h.digest(b"empty bucket");
/// let mut tree = IntegrityTree::new(4, empty);
/// let d = h.digest(b"bucket with data");
/// tree.update_buckets(&[(0, d)]);
/// // The honest path verifies; a tampered digest does not.
/// let path = tree.path_digests_template(Leaf(3));
/// assert!(tree.verify_path(Leaf(3), &[(0, d), path[1], path[2], path[3], path[4]]).is_ok());
/// ```
#[derive(Debug, Clone)]
pub struct IntegrityTree {
    levels: u32,
    hasher: Hash128,
    /// Bucket digests for materialized buckets.
    buckets: HashMap<BucketIndex, Digest>,
    /// Subtree digests for materialized nodes.
    subtrees: HashMap<BucketIndex, Digest>,
    /// Default bucket digest (the all-dummy bucket encoding).
    default_bucket: Digest,
    /// Default subtree digest per depth (`defaults[levels]` is a leaf).
    defaults: Vec<Digest>,
    /// The root digest, held in the persistence domain.
    root: Digest,
}

impl IntegrityTree {
    /// Builds the tree for an all-dummy ORAM of height `levels`, given the
    /// digest of an empty bucket.
    pub fn new(levels: u32, default_bucket: Digest) -> Self {
        let hasher = Hash128::new();
        let mut defaults = vec![[0u8; 16]; levels as usize + 1];
        defaults[levels as usize] = hasher.digest(&default_bucket);
        for d in (0..levels as usize).rev() {
            defaults[d] =
                hasher.digest_parts(&[&default_bucket, &defaults[d + 1], &defaults[d + 1]]);
        }
        let root = defaults[0];
        IntegrityTree {
            levels,
            hasher,
            buckets: HashMap::new(),
            subtrees: HashMap::new(),
            default_bucket,
            defaults,
            root,
        }
    }

    fn depth_of(idx: BucketIndex) -> u32 {
        (64 - (idx + 1).leading_zeros()) - 1
    }

    fn bucket_digest(&self, idx: BucketIndex) -> Digest {
        *self.buckets.get(&idx).unwrap_or(&self.default_bucket)
    }

    fn subtree_digest(&self, idx: BucketIndex) -> Digest {
        self.subtrees
            .get(&idx)
            .copied()
            .unwrap_or_else(|| self.defaults[Self::depth_of(idx) as usize])
    }

    fn compute_subtree(&self, idx: BucketIndex, bucket: &Digest) -> Digest {
        let depth = Self::depth_of(idx);
        if depth == self.levels {
            self.hasher.digest(bucket)
        } else {
            let l = self.subtree_digest(2 * idx + 1);
            let r = self.subtree_digest(2 * idx + 2);
            self.hasher.digest_parts(&[bucket, &l, &r])
        }
    }

    /// Installs new bucket digests and refreshes every affected ancestor,
    /// committing a new root. This is the write-path operation; callers
    /// invoke it when (and only when) the corresponding data writes commit,
    /// which keeps the root consistent with the persisted data.
    pub fn update_buckets(&mut self, updates: &[(BucketIndex, Digest)]) {
        let mut dirty: Vec<BucketIndex> = Vec::new();
        for &(idx, d) in updates {
            self.buckets.insert(idx, d);
            dirty.push(idx);
            let mut cur = idx;
            while cur != 0 {
                cur = (cur - 1) / 2;
                dirty.push(cur);
            }
        }
        dirty.sort_unstable_by_key(|&i| std::cmp::Reverse(Self::depth_of(i)));
        dirty.dedup();
        for idx in dirty {
            let bucket = self.bucket_digest(idx);
            let sub = self.compute_subtree(idx, &bucket);
            self.subtrees.insert(idx, sub);
        }
        self.root = self.subtree_digest(0);
    }

    /// Verifies a fetched path: `observed` pairs each path bucket index
    /// (root first) with the digest of the bytes actually read from NVM.
    ///
    /// # Errors
    ///
    /// Returns [`IntegrityViolation`] when the recomputed root differs from
    /// the persisted root — some fetched bucket (or a recorded sibling) was
    /// tampered with.
    pub fn verify_path(
        &self,
        leaf: Leaf,
        observed: &[(BucketIndex, Digest)],
    ) -> Result<(), IntegrityViolation> {
        // Recompute subtree digests bottom-up along the path, substituting
        // the observed bucket digests; siblings come from the stored state.
        let mut child_digest: Option<(BucketIndex, Digest)> = None;
        for &(idx, bucket) in observed.iter().rev() {
            let depth = Self::depth_of(idx);
            let sub = if depth == self.levels {
                self.hasher.digest(&bucket)
            } else {
                let (lc, rc) = (2 * idx + 1, 2 * idx + 2);
                let l = match child_digest {
                    Some((ci, d)) if ci == lc => d,
                    _ => self.subtree_digest(lc),
                };
                let r = match child_digest {
                    Some((ci, d)) if ci == rc => d,
                    _ => self.subtree_digest(rc),
                };
                self.hasher.digest_parts(&[&bucket, &l, &r])
            };
            child_digest = Some((idx, sub));
        }
        match child_digest {
            Some((0, computed)) if computed == self.root => Ok(()),
            _ => Err(IntegrityViolation { leaf }),
        }
    }

    /// The current stored `(index, digest)` pairs along a path — handy for
    /// constructing honest `verify_path` inputs in tests and tools.
    pub fn path_digests_template(&self, leaf: Leaf) -> Vec<(BucketIndex, Digest)> {
        (0..=self.levels)
            .map(|d| {
                let idx = (1u64 << d) - 1 + (leaf.0 >> (self.levels - d));
                (idx, self.bucket_digest(idx))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hasher() -> Hash128 {
        Hash128::new()
    }

    fn empty() -> Digest {
        hasher().digest(b"empty")
    }

    fn tree() -> IntegrityTree {
        IntegrityTree::new(4, empty())
    }

    fn honest_path(t: &IntegrityTree, leaf: Leaf) -> Vec<(BucketIndex, Digest)> {
        t.path_digests_template(leaf)
    }

    #[test]
    fn fresh_tree_verifies_everywhere() {
        let t = tree();
        for l in 0..16 {
            let path = honest_path(&t, Leaf(l));
            t.verify_path(Leaf(l), &path).unwrap();
        }
    }

    #[test]
    fn update_then_verify() {
        let mut t = tree();
        let d = hasher().digest(b"data!");
        let leaf = Leaf(5);
        let path_idx: Vec<BucketIndex> = honest_path(&t, leaf).iter().map(|&(i, _)| i).collect();
        t.update_buckets(&[(path_idx[2], d)]);
        let path = honest_path(&t, leaf);
        t.verify_path(leaf, &path).unwrap();
    }

    #[test]
    fn tampering_any_path_bucket_detected() {
        let mut t = tree();
        let leaf = Leaf(9);
        let updates: Vec<(BucketIndex, Digest)> = honest_path(&t, leaf)
            .iter()
            .enumerate()
            .map(|(i, &(idx, _))| (idx, hasher().digest(&[i as u8; 8])))
            .collect();
        t.update_buckets(&updates);
        for pos in 0..updates.len() {
            let mut observed = honest_path(&t, leaf);
            observed[pos].1 = hasher().digest(b"tampered");
            let err = t.verify_path(leaf, &observed).unwrap_err();
            assert_eq!(err.leaf, leaf);
        }
        // Honest read still passes.
        t.verify_path(leaf, &honest_path(&t, leaf)).unwrap();
    }

    #[test]
    fn sibling_paths_affected_by_shared_prefix_only() {
        let mut t = tree();
        let d = hasher().digest(b"x");
        // Update leaf 0's leaf bucket; path to leaf 15 shares only the root.
        let leaf0_path: Vec<BucketIndex> =
            honest_path(&t, Leaf(0)).iter().map(|&(i, _)| i).collect();
        t.update_buckets(&[(leaf0_path[4], d)]);
        t.verify_path(Leaf(15), &honest_path(&t, Leaf(15))).unwrap();
        t.verify_path(Leaf(0), &honest_path(&t, Leaf(0))).unwrap();
    }

    #[test]
    fn root_changes_with_every_update() {
        let mut t = tree();
        let r0 = t.root;
        t.update_buckets(&[(7, hasher().digest(b"a"))]);
        let r1 = t.root;
        t.update_buckets(&[(7, hasher().digest(b"b"))]);
        let r2 = t.root;
        assert_ne!(r0, r1);
        assert_ne!(r1, r2);
    }

    #[test]
    fn stale_root_rejects_committed_data() {
        // Simulates the crash hazard the WPQ-coupled root update prevents:
        // data updated but root not → verification fails.
        let mut t = tree();
        let leaf = Leaf(3);
        let idxs: Vec<BucketIndex> = honest_path(&t, leaf).iter().map(|&(i, _)| i).collect();
        t.update_buckets(&[(idxs[4], hasher().digest(b"v1"))]);
        let mut observed = honest_path(&t, leaf);
        // The NVM now holds v2 but the root still covers v1.
        observed[4].1 = hasher().digest(b"v2");
        assert!(t.verify_path(leaf, &observed).is_err());
    }

    #[test]
    fn sparse_memory_footprint() {
        let mut t = IntegrityTree::new(20, empty());
        t.update_buckets(&[(12345, hasher().digest(b"y"))]);
        // Only the path to that bucket materializes.
        assert!(t.subtrees.len() <= 21, "materialized {}", t.subtrees.len());
    }

    #[test]
    fn depth_of_heap_indices() {
        assert_eq!(IntegrityTree::depth_of(0), 0);
        assert_eq!(IntegrityTree::depth_of(1), 1);
        assert_eq!(IntegrityTree::depth_of(2), 1);
        assert_eq!(IntegrityTree::depth_of(3), 2);
        assert_eq!(IntegrityTree::depth_of(62), 5);
    }
}
