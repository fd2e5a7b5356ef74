//! Arena-based AVL tree — the cracker index structure named by the paper.
//!
//! "The partitioning information for each cracker column is maintained in an
//! AVL-tree, called cracker index" (§3.2). We implement the tree from
//! scratch: nodes live in a `Vec` arena addressed by `u32` handles (half the
//! pointer width, cache-friendlier, no per-node allocation), with a free list
//! for reuse after removals.
//!
//! Besides exact lookup the cracker index needs *floor*/*ceiling*-style
//! searches to find the piece a pivot falls into; these are provided as
//! [`Avl::floor`], [`Avl::ceil`], [`Avl::pred_strict`] and
//! [`Avl::succ_strict`]. The Ripple batch merge walks a key range of the
//! tree with mutable access to the values and an early stop —
//! [`Avl::walk_above_mut`] forwards from a key, [`Avl::walk_rev_mut`]
//! backwards from the largest key.

const NIL: u32 = u32::MAX;

/// Upper bound on the height of any tree the `u32` arena can hold
/// (an AVL tree of height `h` has more than `1.618^h` nodes, so 2³² nodes
/// stay below height 47): the fixed path stack of the range walks.
const MAX_HEIGHT: usize = 48;

#[derive(Debug, Clone)]
struct Node<K, V> {
    key: K,
    /// `None` only for slots parked on the free list; live nodes always hold
    /// a value. The `Option` exists so `remove` can move the value out
    /// without `unsafe` and without risking a double drop when the arena
    /// slot is reused or the tree is dropped.
    val: Option<V>,
    left: u32,
    right: u32,
    height: u8,
}

/// An ordered map implemented as an arena AVL tree.
#[derive(Debug, Clone)]
pub struct Avl<K, V> {
    nodes: Vec<Node<K, V>>,
    root: u32,
    free: Vec<u32>,
    len: usize,
}

impl<K: Ord + Copy, V> Default for Avl<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Ord + Copy, V> Avl<K, V> {
    /// Creates an empty tree.
    pub fn new() -> Self {
        Avl {
            nodes: Vec::new(),
            root: NIL,
            free: Vec::new(),
            len: 0,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn node(&self, h: u32) -> &Node<K, V> {
        &self.nodes[h as usize]
    }

    fn node_mut(&mut self, h: u32) -> &mut Node<K, V> {
        &mut self.nodes[h as usize]
    }

    fn height(&self, h: u32) -> u8 {
        if h == NIL {
            0
        } else {
            self.node(h).height
        }
    }

    fn alloc(&mut self, key: K, val: V) -> u32 {
        let node = Node {
            key,
            val: Some(val),
            left: NIL,
            right: NIL,
            height: 1,
        };
        if let Some(h) = self.free.pop() {
            self.nodes[h as usize] = node;
            h
        } else {
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        }
    }

    fn update_height(&mut self, h: u32) {
        let hl = self.height(self.node(h).left);
        let hr = self.height(self.node(h).right);
        self.node_mut(h).height = 1 + hl.max(hr);
    }

    fn balance_factor(&self, h: u32) -> i8 {
        let n = self.node(h);
        self.height(n.left) as i8 - self.height(n.right) as i8
    }

    fn rotate_right(&mut self, h: u32) -> u32 {
        let l = self.node(h).left;
        let lr = self.node(l).right;
        self.node_mut(h).left = lr;
        self.node_mut(l).right = h;
        self.update_height(h);
        self.update_height(l);
        l
    }

    fn rotate_left(&mut self, h: u32) -> u32 {
        let r = self.node(h).right;
        let rl = self.node(r).left;
        self.node_mut(h).right = rl;
        self.node_mut(r).left = h;
        self.update_height(h);
        self.update_height(r);
        r
    }

    fn rebalance(&mut self, h: u32) -> u32 {
        self.update_height(h);
        let bf = self.balance_factor(h);
        if bf > 1 {
            if self.balance_factor(self.node(h).left) < 0 {
                let new_left = self.rotate_left(self.node(h).left);
                self.node_mut(h).left = new_left;
            }
            self.rotate_right(h)
        } else if bf < -1 {
            if self.balance_factor(self.node(h).right) > 0 {
                let new_right = self.rotate_right(self.node(h).right);
                self.node_mut(h).right = new_right;
            }
            self.rotate_left(h)
        } else {
            h
        }
    }

    /// Inserts `key → val`; returns the previous value when the key existed.
    pub fn insert(&mut self, key: K, val: V) -> Option<V> {
        let root = self.root;
        let (new_root, old) = self.insert_at(root, key, val);
        self.root = new_root;
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    fn insert_at(&mut self, h: u32, key: K, val: V) -> (u32, Option<V>) {
        if h == NIL {
            return (self.alloc(key, val), None);
        }
        let old;
        match key.cmp(&self.node(h).key) {
            std::cmp::Ordering::Less => {
                let (nl, o) = self.insert_at(self.node(h).left, key, val);
                self.node_mut(h).left = nl;
                old = o;
            }
            std::cmp::Ordering::Greater => {
                let (nr, o) = self.insert_at(self.node(h).right, key, val);
                self.node_mut(h).right = nr;
                old = o;
            }
            std::cmp::Ordering::Equal => {
                let prev = self.node_mut(h).val.replace(val);
                return (h, prev);
            }
        }
        (self.rebalance(h), old)
    }

    /// Exact lookup.
    pub fn get(&self, key: &K) -> Option<&V> {
        let mut h = self.root;
        while h != NIL {
            let n = self.node(h);
            match key.cmp(&n.key) {
                std::cmp::Ordering::Less => h = n.left,
                std::cmp::Ordering::Greater => h = n.right,
                std::cmp::Ordering::Equal => return n.val.as_ref(),
            }
        }
        None
    }

    /// Exact lookup, mutable.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        let mut h = self.root;
        while h != NIL {
            let n = self.node(h);
            match key.cmp(&n.key) {
                std::cmp::Ordering::Less => h = n.left,
                std::cmp::Ordering::Greater => h = n.right,
                std::cmp::Ordering::Equal => return self.node_mut(h).val.as_mut(),
            }
        }
        None
    }

    /// Largest entry with key `<= bound`.
    pub fn floor(&self, bound: &K) -> Option<(K, &V)> {
        let mut h = self.root;
        let mut best = NIL;
        while h != NIL {
            let n = self.node(h);
            if n.key <= *bound {
                best = h;
                h = n.right;
            } else {
                h = n.left;
            }
        }
        (best != NIL).then(|| {
            let n = self.node(best);
            (n.key, n.val.as_ref().expect("live node"))
        })
    }

    /// Largest entry with key `< bound`.
    pub fn pred_strict(&self, bound: &K) -> Option<(K, &V)> {
        let mut h = self.root;
        let mut best = NIL;
        while h != NIL {
            let n = self.node(h);
            if n.key < *bound {
                best = h;
                h = n.right;
            } else {
                h = n.left;
            }
        }
        (best != NIL).then(|| {
            let n = self.node(best);
            (n.key, n.val.as_ref().expect("live node"))
        })
    }

    /// Smallest entry with key `>= bound`.
    pub fn ceil(&self, bound: &K) -> Option<(K, &V)> {
        let mut h = self.root;
        let mut best = NIL;
        while h != NIL {
            let n = self.node(h);
            if n.key >= *bound {
                best = h;
                h = n.left;
            } else {
                h = n.right;
            }
        }
        (best != NIL).then(|| {
            let n = self.node(best);
            (n.key, n.val.as_ref().expect("live node"))
        })
    }

    /// Smallest entry with key `> bound`.
    pub fn succ_strict(&self, bound: &K) -> Option<(K, &V)> {
        let mut h = self.root;
        let mut best = NIL;
        while h != NIL {
            let n = self.node(h);
            if n.key > *bound {
                best = h;
                h = n.left;
            } else {
                h = n.right;
            }
        }
        (best != NIL).then(|| {
            let n = self.node(best);
            (n.key, n.val.as_ref().expect("live node"))
        })
    }

    /// Removes a key; returns its value if present.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let root = self.root;
        let (new_root, removed) = self.remove_at(root, key);
        self.root = new_root;
        if removed.is_some() {
            self.len -= 1;
        }
        removed
    }

    fn remove_at(&mut self, h: u32, key: &K) -> (u32, Option<V>) {
        if h == NIL {
            return (NIL, None);
        }
        let removed;
        match key.cmp(&self.node(h).key) {
            std::cmp::Ordering::Less => {
                let (nl, r) = self.remove_at(self.node(h).left, key);
                self.node_mut(h).left = nl;
                removed = r;
            }
            std::cmp::Ordering::Greater => {
                let (nr, r) = self.remove_at(self.node(h).right, key);
                self.node_mut(h).right = nr;
                removed = r;
            }
            std::cmp::Ordering::Equal => {
                let (left, right) = {
                    let n = self.node(h);
                    (n.left, n.right)
                };
                if left == NIL || right == NIL {
                    // Replace by the single child (or NIL), move the value
                    // out, and park the slot on the free list.
                    let child = if left == NIL { right } else { left };
                    let val = self.node_mut(h).val.take();
                    self.free.push(h);
                    return (child, val);
                }
                // Two children: replace key/val with in-order successor, then
                // remove the successor from the right subtree.
                let mut s = right;
                while self.node(s).left != NIL {
                    s = self.node(s).left;
                }
                let succ_key = self.node(s).key;
                // Swap values so the successor slot carries the removed value.
                let h_idx = h as usize;
                let s_idx = s as usize;
                if h_idx != s_idx {
                    let (a, b) = if h_idx < s_idx {
                        let (lo, hi) = self.nodes.split_at_mut(s_idx);
                        (&mut lo[h_idx], &mut hi[0])
                    } else {
                        let (lo, hi) = self.nodes.split_at_mut(h_idx);
                        (&mut hi[0], &mut lo[s_idx])
                    };
                    std::mem::swap(&mut a.val, &mut b.val);
                    a.key = succ_key;
                }
                let (nr, r) = self.remove_at(right, &succ_key);
                self.node_mut(h).right = nr;
                removed = r;
            }
        }
        (self.rebalance(h), removed)
    }

    /// In-order visit of `(key, &mut value)` pairs.
    pub fn for_each_mut(&mut self, mut f: impl FnMut(K, &mut V)) {
        // Iterative in-order traversal with an explicit stack.
        let mut stack = Vec::with_capacity(self.height(self.root) as usize + 1);
        let mut h = self.root;
        loop {
            while h != NIL {
                stack.push(h);
                h = self.node(h).left;
            }
            let Some(top) = stack.pop() else { break };
            let key = self.node(top).key;
            f(key, self.node_mut(top).val.as_mut().expect("live node"));
            h = self.node(top).right;
        }
    }

    /// In-order visit of the entries with key `> bound`, smallest first,
    /// until `f` returns `false`. Allocation-free: the path stack is a
    /// fixed array ([`MAX_HEIGHT`]).
    pub fn walk_above_mut(&mut self, bound: &K, mut f: impl FnMut(K, &mut V) -> bool) {
        let mut stack = [NIL; MAX_HEIGHT];
        let mut top = 0usize;
        // Seed with the search path's left turns: exactly the ancestors
        // still to be visited, the successor of `bound` on top.
        let mut h = self.root;
        while h != NIL {
            let n = self.node(h);
            if n.key > *bound {
                stack[top] = h;
                top += 1;
                h = n.left;
            } else {
                h = n.right;
            }
        }
        while top > 0 {
            top -= 1;
            let n = self.node_mut(stack[top]);
            let (key, right) = (n.key, n.right);
            if !f(key, n.val.as_mut().expect("live node")) {
                return;
            }
            let mut h = right;
            while h != NIL {
                stack[top] = h;
                top += 1;
                h = self.node(h).left;
            }
        }
    }

    /// Reverse in-order visit (largest key first) until `f` returns
    /// `false`. Allocation-free like [`Avl::walk_above_mut`].
    pub fn walk_rev_mut(&mut self, mut f: impl FnMut(K, &mut V) -> bool) {
        let mut stack = [NIL; MAX_HEIGHT];
        let mut top = 0usize;
        let mut h = self.root;
        loop {
            while h != NIL {
                stack[top] = h;
                top += 1;
                h = self.node(h).right;
            }
            if top == 0 {
                return;
            }
            top -= 1;
            let n = self.node_mut(stack[top]);
            let (key, left) = (n.key, n.left);
            if !f(key, n.val.as_mut().expect("live node")) {
                return;
            }
            h = left;
        }
    }

    /// In-order iterator over `(key, &value)`.
    pub fn iter(&self) -> AvlIter<'_, K, V> {
        let mut stack = Vec::with_capacity(self.height(self.root) as usize + 1);
        let mut h = self.root;
        while h != NIL {
            stack.push(h);
            h = self.node(h).left;
        }
        AvlIter { tree: self, stack }
    }

    /// Smallest key, if any.
    pub fn min_key(&self) -> Option<K> {
        let mut h = self.root;
        if h == NIL {
            return None;
        }
        while self.node(h).left != NIL {
            h = self.node(h).left;
        }
        Some(self.node(h).key)
    }

    /// Largest key, if any.
    pub fn max_key(&self) -> Option<K> {
        let mut h = self.root;
        if h == NIL {
            return None;
        }
        while self.node(h).right != NIL {
            h = self.node(h).right;
        }
        Some(self.node(h).key)
    }

    /// Tree height (test/debug aid for balance checks).
    pub fn tree_height(&self) -> usize {
        self.height(self.root) as usize
    }

    #[cfg(test)]
    fn assert_avl_invariants(&self) {
        fn walk<K: Ord + Copy, V>(t: &Avl<K, V>, h: u32, lo: Option<K>, hi: Option<K>) -> u8 {
            if h == NIL {
                return 0;
            }
            let n = t.node(h);
            if let Some(lo) = lo {
                assert!(n.key > lo, "BST order violated");
            }
            if let Some(hi) = hi {
                assert!(n.key < hi, "BST order violated");
            }
            let hl = walk(t, n.left, lo, Some(n.key));
            let hr = walk(t, n.right, Some(n.key), hi);
            assert!(
                (hl as i8 - hr as i8).abs() <= 1,
                "AVL balance violated at key"
            );
            assert_eq!(n.height, 1 + hl.max(hr), "cached height stale");
            1 + hl.max(hr)
        }
        walk(self, self.root, None, None);
    }
}

/// In-order iterator.
pub struct AvlIter<'a, K, V> {
    tree: &'a Avl<K, V>,
    stack: Vec<u32>,
}

impl<'a, K: Ord + Copy, V> Iterator for AvlIter<'a, K, V> {
    type Item = (K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        let top = self.stack.pop()?;
        let n = &self.tree.nodes[top as usize];
        let mut h = n.right;
        while h != NIL {
            self.stack.push(h);
            h = self.tree.nodes[h as usize].left;
        }
        Some((n.key, n.val.as_ref().expect("live node")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// The AVL as an actual cracker index: apply a random crack sequence to
    /// a column and verify the cracker-index invariants after every crack —
    /// bound positions are monotone in key order, every bound partitions the
    /// column (`< key` strictly left of the bound, `>= key` at/right of it),
    /// and cracking never loses or invents values.
    #[test]
    fn cracker_index_invariants_after_random_cracks() {
        use crate::crack::crack_in_two;
        use rand::prelude::*;

        let mut rng = StdRng::seed_from_u64(0xC4AC);
        let base: Vec<i64> = (0..4096).map(|_| rng.random_range(0..10_000)).collect();
        let mut vals = base.clone();
        let mut rows: Vec<u32> = (0..base.len() as u32).collect();
        let mut index: Avl<i64, usize> = Avl::new();

        for _ in 0..200 {
            let pivot = rng.random_range(0..10_000);
            if index.get(&pivot).is_some() {
                continue;
            }
            // The piece holding `pivot` is delimited by the neighbouring
            // bounds (floor gives its start, strict successor its end).
            let start = index.floor(&pivot).map_or(0, |(_, &p)| p);
            let end = index.succ_strict(&pivot).map_or(vals.len(), |(_, &p)| p);
            let split = crack_in_two(&mut vals[start..end], &mut rows[start..end], pivot);
            index.insert(pivot, start + split);

            // Invariant 1: positions are non-decreasing in key order.
            let bounds: Vec<(i64, usize)> = index.iter().map(|(k, &p)| (k, p)).collect();
            for w in bounds.windows(2) {
                assert!(w[0].0 < w[1].0, "iter must be key-ordered");
                assert!(
                    w[0].1 <= w[1].1,
                    "positions regressed: {:?} then {:?}",
                    w[0],
                    w[1]
                );
            }
            // Invariant 2: every bound partitions the whole column.
            for &(k, p) in &bounds {
                assert!(
                    vals[..p].iter().all(|&v| v < k),
                    "values >= {k} left of {p}"
                );
                assert!(
                    vals[p..].iter().all(|&v| v >= k),
                    "values < {k} right of {p}"
                );
            }
            // Invariant 3: rows stay aligned with their original values.
            for (i, &r) in rows.iter().enumerate() {
                assert_eq!(vals[i], base[r as usize], "row id misaligned at {i}");
            }
        }
        assert!(
            index.len() >= 100,
            "crack sequence barely exercised the index"
        );

        // Multiset preserved end-to-end.
        let mut sorted_in = base;
        let mut sorted_out = vals;
        sorted_in.sort_unstable();
        sorted_out.sort_unstable();
        assert_eq!(sorted_in, sorted_out);
    }

    #[test]
    fn insert_get_basics() {
        let mut t = Avl::new();
        assert!(t.is_empty());
        assert_eq!(t.insert(5, "a"), None);
        assert_eq!(t.insert(3, "b"), None);
        assert_eq!(t.insert(8, "c"), None);
        assert_eq!(t.insert(5, "a2"), Some("a"));
        assert_eq!(t.len(), 3);
        assert_eq!(t.get(&5), Some(&"a2"));
        assert_eq!(t.get(&4), None);
        t.assert_avl_invariants();
    }

    #[test]
    fn floor_ceil_pred_succ() {
        let mut t = Avl::new();
        for k in [10, 20, 30] {
            t.insert(k, k * 10);
        }
        assert_eq!(t.floor(&20).map(|(k, _)| k), Some(20));
        assert_eq!(t.floor(&19).map(|(k, _)| k), Some(10));
        assert_eq!(t.floor(&9), None);
        assert_eq!(t.pred_strict(&20).map(|(k, _)| k), Some(10));
        assert_eq!(t.pred_strict(&10), None);
        assert_eq!(t.ceil(&20).map(|(k, _)| k), Some(20));
        assert_eq!(t.ceil(&21).map(|(k, _)| k), Some(30));
        assert_eq!(t.ceil(&31), None);
        assert_eq!(t.succ_strict(&20).map(|(k, _)| k), Some(30));
        assert_eq!(t.succ_strict(&30), None);
        assert_eq!(t.min_key(), Some(10));
        assert_eq!(t.max_key(), Some(30));
    }

    #[test]
    fn sequential_inserts_stay_balanced() {
        let mut t = Avl::new();
        for k in 0..1024 {
            t.insert(k, k);
        }
        t.assert_avl_invariants();
        // height of AVL with n nodes <= 1.44 log2(n) + ~1
        assert!(t.tree_height() <= 15, "height {}", t.tree_height());
        for k in 0..1024 {
            assert_eq!(t.get(&k), Some(&k));
        }
    }

    #[test]
    fn removal_all_shapes() {
        let mut t = Avl::new();
        for k in [50, 30, 70, 20, 40, 60, 80, 45] {
            t.insert(k, k);
        }
        assert_eq!(t.remove(&20), Some(20)); // leaf
        assert_eq!(t.remove(&40), Some(40)); // one child (45)
        assert_eq!(t.remove(&50), Some(50)); // two children (root)
        assert_eq!(t.remove(&99), None); // missing
        t.assert_avl_invariants();
        let keys: Vec<i32> = t.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![30, 45, 60, 70, 80]);
        assert_eq!(t.len(), 5);
    }

    #[test]
    fn slot_reuse_after_remove() {
        let mut t = Avl::new();
        for k in 0..100 {
            t.insert(k, k);
        }
        let arena_size = t.nodes.len();
        for k in 0..50 {
            t.remove(&k);
        }
        for k in 100..150 {
            t.insert(k, k);
        }
        assert_eq!(t.nodes.len(), arena_size, "free list not reused");
        t.assert_avl_invariants();
    }

    #[test]
    fn iteration_is_sorted() {
        let mut t = Avl::new();
        for k in [9, 1, 8, 2, 7, 3] {
            t.insert(k, ());
        }
        let keys: Vec<i32> = t.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![1, 2, 3, 7, 8, 9]);
    }

    #[test]
    fn range_walks_visit_the_right_keys_in_order_and_stop_early() {
        let mut t = Avl::new();
        for k in (0..200).map(|k| k * 3 % 200) {
            t.insert(k, k);
        }
        for bound in [-1, 0, 57, 198, 199, 500] {
            let mut seen = Vec::new();
            t.walk_above_mut(&bound, |k, v| {
                *v += 1000;
                seen.push(k);
                true
            });
            let want: Vec<i32> = (0..200).filter(|&k| k > bound).collect();
            assert_eq!(seen, want, "forward from {bound}");
            t.walk_above_mut(&bound, |_, v| {
                *v -= 1000;
                true
            });
        }
        let mut seen = Vec::new();
        t.walk_above_mut(&10, |k, _| {
            seen.push(k);
            k < 14
        });
        assert_eq!(seen, vec![11, 12, 13, 14], "forward stops when told");
        let mut seen = Vec::new();
        t.walk_rev_mut(|k, v| {
            *v = -*v;
            seen.push(k);
            k > 150
        });
        let want: Vec<i32> = (150..200).rev().collect();
        assert_eq!(seen, want, "reverse from the top with an early stop");
        for k in 0..200 {
            let want = if k >= 150 { -k } else { k };
            assert_eq!(t.get(&k), Some(&want));
        }
        let mut empty: Avl<i32, i32> = Avl::new();
        empty.walk_above_mut(&0, |_, _| panic!("empty tree"));
        empty.walk_rev_mut(|_, _| panic!("empty tree"));
    }

    #[test]
    fn for_each_mut_updates_all() {
        let mut t = Avl::new();
        for k in 0..20 {
            t.insert(k, k);
        }
        t.for_each_mut(|_, v| *v += 100);
        for k in 0..20 {
            assert_eq!(t.get(&k), Some(&(k + 100)));
        }
    }

    proptest! {
        #[test]
        fn prop_behaves_like_btreemap(ops in proptest::collection::vec(
            (0u8..4, -100i64..100, 0i64..1000), 0..400))
        {
            let mut avl: Avl<i64, i64> = Avl::new();
            let mut oracle: BTreeMap<i64, i64> = BTreeMap::new();
            for (op, k, v) in ops {
                match op {
                    0 => prop_assert_eq!(avl.insert(k, v), oracle.insert(k, v)),
                    1 => prop_assert_eq!(avl.remove(&k), oracle.remove(&k)),
                    2 => prop_assert_eq!(avl.get(&k), oracle.get(&k)),
                    _ => {
                        let f = avl.floor(&k).map(|(fk, fv)| (fk, *fv));
                        let of = oracle.range(..=k).next_back().map(|(a, b)| (*a, *b));
                        prop_assert_eq!(f, of);
                        let c = avl.ceil(&k).map(|(ck, cv)| (ck, *cv));
                        let oc = oracle.range(k..).next().map(|(a, b)| (*a, *b));
                        prop_assert_eq!(c, oc);
                        let p = avl.pred_strict(&k).map(|(pk, pv)| (pk, *pv));
                        let op_ = oracle.range(..k).next_back().map(|(a, b)| (*a, *b));
                        prop_assert_eq!(p, op_);
                        let s = avl.succ_strict(&k).map(|(sk, sv)| (sk, *sv));
                        let os = oracle.range((std::ops::Bound::Excluded(k), std::ops::Bound::Unbounded)).next().map(|(a, b)| (*a, *b));
                        prop_assert_eq!(s, os);
                    }
                }
                prop_assert_eq!(avl.len(), oracle.len());
            }
            let items: Vec<(i64, i64)> = avl.iter().map(|(k, v)| (k, *v)).collect();
            let oracle_items: Vec<(i64, i64)> = oracle.iter().map(|(k, v)| (*k, *v)).collect();
            prop_assert_eq!(items, oracle_items);
        }
    }
}
