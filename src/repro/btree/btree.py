"""An in-memory B+ tree: the paper's tree, held constant across the indexes.

The paper builds the FITing-Tree on top of an off-the-shelf STX B+ tree and
stresses that the *same* tree implementation must back the approximate index
and both baselines (full/dense and fixed-page/sparse) for a fair comparison.
This module is that tree: a textbook B+ tree with

* point ``get``/``insert``/``delete`` (delete with borrow/merge rebalancing),
* predecessor queries (``floor_item``),
* ordered range iteration over a doubly linked leaf chain,
* one-pass bulk loading with a configurable fill factor,
* modeled size accounting (8-byte keys/pointers, as in the paper's Section 6),
* optional access counting for the latency simulator (:mod:`repro.memsim`).

The dense baseline stores its entries in one; the paged indexes route
through a sorted page list and are sized and charged as the tree
:meth:`BPlusTree.bulk_load` would build over their pages, which
:func:`bulk_load_shape` measures without building it.

Keys may be any mutually comparable values; the library mostly uses Python
floats/ints (numpy scalars are converted by callers).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Iterable, Iterator, List, Optional, Tuple

from repro.core.errors import (
    InvalidParameterError,
    InvariantViolationError,
    KeyNotFoundError,
    NotSortedError,
)
from repro.btree.node import (
    _BYTES_PER_KEY,
    _BYTES_PER_POINTER,
    InnerNode,
    LeafNode,
)

__all__ = ["BPlusTree", "DEFAULT_BRANCHING", "bulk_load_shape"]

#: Default inner-node fanout ``b``. 16 children * 16 bytes/entry keeps an
#: inner node within a few cache lines, matching the flavor of the paper's
#: in-memory setting without pretending to model a specific CPU.
DEFAULT_BRANCHING = 16


def _check_shape(branching: int, leaf_capacity: int) -> None:
    if branching < 3:
        raise InvalidParameterError(f"branching must be >= 3, got {branching}")
    if leaf_capacity < 2:
        raise InvalidParameterError(
            f"leaf_capacity must be >= 2, got {leaf_capacity}"
        )


def _plans(
    branching: int, leaf_capacity: int, fill: float
) -> Tuple[Tuple[int, int, int], Tuple[int, int, int]]:
    """Bulk-load ``(target, capacity, minimum)`` of the leaf level and of
    the inner levels at ``fill``. Targets are clamped to [minimum
    occupancy, capacity]: a fill factor below the B+ tree minimum is packed
    at the minimum, keeping the invariants."""
    if not (0.0 < fill <= 1.0):
        raise InvalidParameterError(f"fill must be in (0, 1], got {fill}")
    leaf_min, inner_min = leaf_capacity // 2, (branching + 1) // 2
    leaf_target = max(2, leaf_min, round(leaf_capacity * fill))
    inner_target = max(2, inner_min, round(branching * fill))
    return (
        (min(leaf_capacity, leaf_target), leaf_capacity, leaf_min),
        (min(branching, inner_target), branching, inner_min),
    )


def _plan_level(
    n: int, target: int, capacity: int, minimum: int, even: bool
) -> Tuple[int, Tuple[int, ...]]:
    """How bulk loading groups ``n`` items into the nodes of one level:
    ``(full, tail)``, ``full`` nodes of ``target`` items followed by nodes
    of the (at most two) sizes in ``tail``. A trailing node below
    ``minimum`` that is not the only node is absorbed into its predecessor
    when the pair fits in ``capacity``; otherwise the pair is halved when
    ``even`` (leaves), or leaves ``minimum`` to the last node (inner)."""
    full, rest = divmod(n, target)
    if rest == 0:
        return full, ()
    if rest >= minimum or full == 0:
        return full, (rest,)
    pair = target + rest
    if pair <= capacity:
        return full - 1, (pair,)
    first = pair // 2 if even else pair - minimum
    return full - 1, (first, pair - first)


def bulk_load_shape(
    n: int,
    branching: int = DEFAULT_BRANCHING,
    leaf_capacity: Optional[int] = None,
    fill: float = 1.0,
) -> Tuple[int, int]:
    """``(height, model_bytes)`` of a tree bulk-loaded with ``n`` entries.

    Exactly what ``BPlusTree(branching, leaf_capacity)`` measures after
    ``bulk_load`` of ``n`` pairs at ``fill``, computed from the same level
    plan in O(height) arithmetic, without building a node. Raises
    :class:`InvalidParameterError` for a shape the tree would reject.
    """
    if leaf_capacity is None:
        leaf_capacity = branching
    _check_shape(branching, leaf_capacity)
    leaf, inner = _plans(branching, leaf_capacity, fill)
    if n == 0:
        return 0, 0
    full, tail = _plan_level(n, *leaf, True)
    nodes = full + len(tail)
    height = 1
    size = n * (_BYTES_PER_KEY + _BYTES_PER_POINTER)
    while nodes > 1:
        full, tail = _plan_level(nodes, *inner, False)
        parents = full + len(tail)
        # One pointer per child and one separator per child but the first.
        size += nodes * _BYTES_PER_POINTER + (nodes - parents) * _BYTES_PER_KEY
        nodes = parents
        height += 1
    return height, size


class BPlusTree:
    """A B+ tree mapping unique, mutually comparable keys to arbitrary values.

    Parameters
    ----------
    branching:
        Maximum number of children of an inner node (the fanout ``b`` in the
        paper's cost model). Must be at least 3.
    leaf_capacity:
        Maximum number of entries in a leaf. Defaults to ``branching``.
    counter:
        Optional access counter (see :class:`repro.memsim.AccessCounter`).
        When set, every node touched during a descent is recorded via
        ``counter.tree_node()`` — one random memory access in the paper's
        cost model.
    """

    def __init__(
        self,
        branching: int = DEFAULT_BRANCHING,
        leaf_capacity: Optional[int] = None,
        counter: Any = None,
    ) -> None:
        if leaf_capacity is None:
            leaf_capacity = branching
        _check_shape(branching, leaf_capacity)
        self.branching = branching
        self.leaf_capacity = leaf_capacity
        self.counter = counter
        self._root: Any = None
        self._size = 0
        self._first_leaf: Optional[LeafNode] = None

    # ------------------------------------------------------------------
    # Small helpers
    # ------------------------------------------------------------------

    @property
    def _min_leaf_keys(self) -> int:
        return self.leaf_capacity // 2

    @property
    def _min_inner_children(self) -> int:
        return (self.branching + 1) // 2

    def _visit(self, node: Any) -> None:
        if self.counter is not None:
            self.counter.tree_node()

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def clear(self) -> None:
        """Remove every entry, resetting to an empty tree."""
        self._root = None
        self._size = 0
        self._first_leaf = None

    # ------------------------------------------------------------------
    # Descent
    # ------------------------------------------------------------------

    def _descend(self, key: Any) -> Tuple[LeafNode, List[Tuple[InnerNode, int]]]:
        """Walk from the root to the leaf owning ``key``.

        Returns the leaf plus the path of ``(inner_node, child_index)`` pairs
        taken, which insert/delete use to propagate splits and merges.
        """
        path: List[Tuple[InnerNode, int]] = []
        node = self._root
        while not node.is_leaf:
            self._visit(node)
            idx = bisect_right(node.keys, key)
            path.append((node, idx))
            node = node.children[idx]
        self._visit(node)
        return node, path

    # ------------------------------------------------------------------
    # Point queries
    # ------------------------------------------------------------------

    def get(self, key: Any, default: Any = None) -> Any:
        """Return the value stored for ``key``, or ``default`` if absent."""
        if self._root is None:
            return default
        leaf, _ = self._descend(key)
        i = bisect_left(leaf.keys, key)
        if i < len(leaf.keys) and leaf.keys[i] == key:
            return leaf.values[i]
        return default

    def __contains__(self, key: Any) -> bool:
        sentinel = object()
        return self.get(key, sentinel) is not sentinel

    def __getitem__(self, key: Any) -> Any:
        sentinel = object()
        value = self.get(key, sentinel)
        if value is sentinel:
            raise KeyNotFoundError(key)
        return value

    def floor_item(self, key: Any) -> Optional[Tuple[Any, Any]]:
        """Return the ``(k, v)`` pair with the greatest ``k <= key``.

        This is the query the paper's FITing-Tree issues to find the
        segment that owns a lookup key. Returns ``None`` when every key is
        greater than ``key`` (or the tree is empty).
        """
        if self._root is None:
            return None
        leaf, _ = self._descend(key)
        i = bisect_right(leaf.keys, key) - 1
        if i >= 0:
            return leaf.keys[i], leaf.values[i]
        prev = leaf.prev_leaf
        if prev is None:
            return None
        self._visit(prev)
        return prev.keys[-1], prev.values[-1]

    # ------------------------------------------------------------------
    # Iteration
    # ------------------------------------------------------------------

    def items(self) -> Iterator[Tuple[Any, Any]]:
        """Yield every ``(k, v)`` pair in ascending key order."""
        leaf = self._first_leaf
        while leaf is not None:
            yield from zip(leaf.keys, leaf.values)
            leaf = leaf.next_leaf

    def keys(self) -> Iterator[Any]:
        for k, _ in self.items():
            yield k

    def values(self) -> Iterator[Any]:
        for _, v in self.items():
            yield v

    def __iter__(self) -> Iterator[Any]:
        return self.keys()

    def range_items(
        self,
        lo: Any = None,
        hi: Any = None,
        include_lo: bool = True,
        include_hi: bool = True,
    ) -> Iterator[Tuple[Any, Any]]:
        """Yield ``(k, v)`` pairs with ``lo <= k <= hi`` in ascending order.

        ``None`` bounds are open-ended; inclusivity of each bound is
        controlled independently.
        """
        if self._root is None:
            return
        if lo is None:
            leaf: Optional[LeafNode] = self._first_leaf
            i = 0
        else:
            leaf, _ = self._descend(lo)
            i = (bisect_left if include_lo else bisect_right)(leaf.keys, lo)
        while leaf is not None:
            keys = leaf.keys
            n = len(keys)
            while i < n:
                k = keys[i]
                if hi is not None:
                    if k > hi or (not include_hi and k == hi):
                        return
                yield k, leaf.values[i]
                i += 1
            leaf = leaf.next_leaf
            i = 0

    # ------------------------------------------------------------------
    # Insert
    # ------------------------------------------------------------------

    def insert(self, key: Any, value: Any) -> bool:
        """Upsert ``key -> value``. Returns True if the key was new."""
        if self._root is None:
            leaf = LeafNode()
            leaf.keys.append(key)
            leaf.values.append(value)
            self._root = leaf
            self._first_leaf = leaf
            self._size = 1
            self._visit(leaf)
            return True

        leaf, path = self._descend(key)
        i = bisect_left(leaf.keys, key)
        if i < len(leaf.keys) and leaf.keys[i] == key:
            leaf.values[i] = value
            return False
        leaf.keys.insert(i, key)
        leaf.values.insert(i, value)
        self._size += 1
        if len(leaf.keys) > self.leaf_capacity:
            self._split_leaf(leaf, path)
        return True

    def __setitem__(self, key: Any, value: Any) -> None:
        self.insert(key, value)

    def _split_leaf(self, leaf: LeafNode, path: List[Tuple[InnerNode, int]]) -> None:
        mid = len(leaf.keys) // 2
        right = LeafNode()
        right.keys = leaf.keys[mid:]
        right.values = leaf.values[mid:]
        del leaf.keys[mid:]
        del leaf.values[mid:]
        right.next_leaf = leaf.next_leaf
        if right.next_leaf is not None:
            right.next_leaf.prev_leaf = right
        right.prev_leaf = leaf
        leaf.next_leaf = right
        self._insert_in_parent(leaf, right.keys[0], right, path)

    def _insert_in_parent(
        self,
        left: Any,
        sep: Any,
        right: Any,
        path: List[Tuple[InnerNode, int]],
    ) -> None:
        while True:
            if not path:
                root = InnerNode()
                root.keys = [sep]
                root.children = [left, right]
                self._root = root
                return
            parent, idx = path.pop()
            parent.keys.insert(idx, sep)
            parent.children.insert(idx + 1, right)
            if len(parent.children) <= self.branching:
                return
            mid = len(parent.keys) // 2
            sep = parent.keys[mid]
            new_right = InnerNode()
            new_right.keys = parent.keys[mid + 1 :]
            new_right.children = parent.children[mid + 1 :]
            del parent.keys[mid:]
            del parent.children[mid + 1 :]
            left, right = parent, new_right

    # ------------------------------------------------------------------
    # Delete
    # ------------------------------------------------------------------

    def delete(self, key: Any) -> Any:
        """Remove ``key`` and return its value. Raises if the key is absent."""
        if self._root is None:
            raise KeyNotFoundError(key)
        leaf, path = self._descend(key)
        i = bisect_left(leaf.keys, key)
        if i >= len(leaf.keys) or leaf.keys[i] != key:
            raise KeyNotFoundError(key)
        value = leaf.values[i]
        del leaf.keys[i]
        del leaf.values[i]
        self._size -= 1
        self._rebalance_after_delete(leaf, path)
        return value

    def __delitem__(self, key: Any) -> None:
        self.delete(key)

    def pop(self, key: Any, default: Any = ...) -> Any:
        """Remove ``key`` returning its value, or ``default`` if absent."""
        try:
            return self.delete(key)
        except KeyNotFoundError:
            if default is ...:
                raise
            return default

    def _rebalance_after_delete(
        self, node: Any, path: List[Tuple[InnerNode, int]]
    ) -> None:
        while True:
            if not path:
                # node is the root.
                if node.is_leaf:
                    if not node.keys:
                        self._root = None
                        self._first_leaf = None
                elif len(node.children) == 1:
                    self._root = node.children[0]
                return

            underflow = (
                len(node.keys) < self._min_leaf_keys
                if node.is_leaf
                else len(node.children) < self._min_inner_children
            )
            if not underflow:
                return

            parent, idx = path.pop()
            if node.is_leaf:
                done = self._fix_leaf_underflow(parent, idx)
            else:
                done = self._fix_inner_underflow(parent, idx)
            if done:
                return
            node = parent

    def _fix_leaf_underflow(self, parent: InnerNode, idx: int) -> bool:
        """Borrow from or merge with a sibling leaf. True if parent is fine."""
        node: LeafNode = parent.children[idx]
        left: Optional[LeafNode] = parent.children[idx - 1] if idx > 0 else None
        right: Optional[LeafNode] = (
            parent.children[idx + 1] if idx + 1 < len(parent.children) else None
        )

        if left is not None and len(left.keys) > self._min_leaf_keys:
            node.keys.insert(0, left.keys.pop())
            node.values.insert(0, left.values.pop())
            parent.keys[idx - 1] = node.keys[0]
            return True
        if right is not None and len(right.keys) > self._min_leaf_keys:
            node.keys.append(right.keys.pop(0))
            node.values.append(right.values.pop(0))
            parent.keys[idx] = right.keys[0]
            return True

        # Merge with a sibling (prefer the left one).
        if left is not None:
            dst, src, sep_idx = left, node, idx - 1
        else:
            assert right is not None  # every non-root node has a sibling
            dst, src, sep_idx = node, right, idx
        dst.keys.extend(src.keys)
        dst.values.extend(src.values)
        dst.next_leaf = src.next_leaf
        if src.next_leaf is not None:
            src.next_leaf.prev_leaf = dst
        del parent.keys[sep_idx]
        del parent.children[sep_idx + 1]
        return False

    def _fix_inner_underflow(self, parent: InnerNode, idx: int) -> bool:
        """Borrow/merge for an inner child. True if parent needs no more work."""
        node: InnerNode = parent.children[idx]
        left: Optional[InnerNode] = parent.children[idx - 1] if idx > 0 else None
        right: Optional[InnerNode] = (
            parent.children[idx + 1] if idx + 1 < len(parent.children) else None
        )

        if left is not None and len(left.children) > self._min_inner_children:
            node.keys.insert(0, parent.keys[idx - 1])
            parent.keys[idx - 1] = left.keys.pop()
            node.children.insert(0, left.children.pop())
            return True
        if right is not None and len(right.children) > self._min_inner_children:
            node.keys.append(parent.keys[idx])
            parent.keys[idx] = right.keys.pop(0)
            node.children.append(right.children.pop(0))
            return True

        if left is not None:
            dst, src, sep_idx = left, node, idx - 1
        else:
            assert right is not None
            dst, src, sep_idx = node, right, idx
        dst.keys.append(parent.keys[sep_idx])
        dst.keys.extend(src.keys)
        dst.children.extend(src.children)
        del parent.keys[sep_idx]
        del parent.children[sep_idx + 1]
        return False

    # ------------------------------------------------------------------
    # Bulk loading
    # ------------------------------------------------------------------

    def bulk_load(self, pairs: Iterable[Tuple[Any, Any]], fill: float = 1.0) -> None:
        """Build the tree in one bottom-up pass from sorted ``(key, value)`` pairs.

        Parameters
        ----------
        pairs:
            ``(key, value)`` pairs in strictly ascending key order.
        fill:
            Target node occupancy in ``(0, 1]`` — e.g. the paper's cost model
            assumes ``f = 0.5``. Leaves are packed to ``fill * leaf_capacity``
            entries and inner nodes to ``fill * branching`` children; a
            too-small trailing node is rebalanced with its left sibling so the
            result satisfies ``validate()``.

        Raises
        ------
        InvalidParameterError
            If the tree is non-empty or ``fill`` is out of range.
        NotSortedError
            If keys are not strictly ascending.
        """
        if self._root is not None:
            raise InvalidParameterError("bulk_load requires an empty tree")
        leaf, inner = _plans(self.branching, self.leaf_capacity, fill)
        pairs = list(pairs)
        keys = [key for key, _ in pairs]
        for prev_key, key in zip(keys, keys[1:]):
            if not prev_key < key:
                raise NotSortedError(
                    f"bulk_load keys must be strictly ascending; "
                    f"saw {prev_key!r} then {key!r}"
                )
        if not pairs:
            return
        values = [value for _, value in pairs]

        # Level 0: the leaf chain (see _plan_level for the trailing leaf).
        full, tail = _plan_level(len(pairs), *leaf, True)
        leaves: List[LeafNode] = []
        i = 0
        for size in [leaf[0]] * full + list(tail):
            leaf = LeafNode()
            leaf.keys = keys[i : i + size]
            leaf.values = values[i : i + size]
            if leaves:
                leaves[-1].next_leaf = leaf
                leaf.prev_leaf = leaves[-1]
            leaves.append(leaf)
            i += size
        self._first_leaf = leaves[0]
        self._size = len(pairs)

        # Upper levels: group children until a single root remains.
        level: List[Any] = leaves
        min_keys = [leaf.keys[0] for leaf in leaves]
        while len(level) > 1:
            full, tail = _plan_level(len(level), *inner, False)
            parents: List[InnerNode] = []
            parent_min_keys: List[Any] = []
            i = 0
            for size in [inner[0]] * full + list(tail):
                node = InnerNode()
                node.children = level[i : i + size]
                node.keys = min_keys[i + 1 : i + size]
                parents.append(node)
                parent_min_keys.append(min_keys[i])
                i += size
            level = parents
            min_keys = parent_min_keys
        self._root = level[0]

    # ------------------------------------------------------------------
    # Structure statistics
    # ------------------------------------------------------------------

    @property
    def height(self) -> int:
        """Number of levels (0 for an empty tree, 1 for a lone leaf)."""
        h = 0
        node = self._root
        while node is not None:
            h += 1
            node = None if node.is_leaf else node.children[0]
        return h

    def _walk_nodes(self) -> Iterator[Any]:
        if self._root is None:
            return
        stack = [self._root]
        while stack:
            node = stack.pop()
            yield node
            if not node.is_leaf:
                stack.extend(node.children)

    def node_counts(self) -> Tuple[int, int]:
        """Return ``(n_inner_nodes, n_leaf_nodes)``."""
        inner = leaves = 0
        for node in self._walk_nodes():
            if node.is_leaf:
                leaves += 1
            else:
                inner += 1
        return inner, leaves

    def model_bytes(self) -> int:
        """Modeled index size: 8-byte keys and pointers, no Python overhead."""
        return sum(node.model_bytes() for node in self._walk_nodes())

    # ------------------------------------------------------------------
    # Validation (tests call this after every mutation pattern)
    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Check every structural invariant; raise InvariantViolationError.

        Checked invariants: uniform leaf depth, sorted keys inside nodes,
        child/separator counts, occupancy bounds (root exempt), separator
        consistency with subtree key ranges, leaf-chain integrity and global
        ordering, and the cached size.
        """
        if self._root is None:
            if self._size != 0 or self._first_leaf is not None:
                raise InvariantViolationError("empty tree with leftover state")
            return

        leaf_depths = set()
        chain_leaves: List[LeafNode] = []

        def check(node: Any, depth: int, lo: Any, hi: Any) -> None:
            keys = node.keys
            for a, b in zip(keys, keys[1:]):
                if not a < b:
                    raise InvariantViolationError(f"unsorted keys in {node!r}")
            if keys:
                if lo is not None and keys[0] < lo:
                    raise InvariantViolationError("key below separator bound")
                if hi is not None and not keys[-1] < hi:
                    raise InvariantViolationError("key above separator bound")
            if node.is_leaf:
                leaf_depths.add(depth)
                if node is not self._root and len(keys) < self._min_leaf_keys:
                    raise InvariantViolationError("leaf underflow")
                if len(keys) > self.leaf_capacity:
                    raise InvariantViolationError("leaf overflow")
                return
            if len(node.children) != len(keys) + 1:
                raise InvariantViolationError("child/separator count mismatch")
            if node is not self._root and len(node.children) < self._min_inner_children:
                raise InvariantViolationError("inner underflow")
            if len(node.children) > self.branching:
                raise InvariantViolationError("inner overflow")
            bounds = [lo] + list(keys) + [hi]
            for i, child in enumerate(node.children):
                check(child, depth + 1, bounds[i], bounds[i + 1])

        check(self._root, 0, None, None)
        if len(leaf_depths) != 1:
            raise InvariantViolationError(f"leaves at multiple depths: {leaf_depths}")

        # Leaf chain: starts at _first_leaf, covers all leaves, sorted overall.
        leaf = self._first_leaf
        prev: Optional[LeafNode] = None
        total = 0
        last_key: Any = None
        while leaf is not None:
            if leaf.prev_leaf is not prev:
                raise InvariantViolationError("broken prev_leaf link")
            if not leaf.keys:
                raise InvariantViolationError("empty leaf in chain")
            if last_key is not None and not last_key < leaf.keys[0]:
                raise InvariantViolationError("leaf chain out of order")
            last_key = leaf.keys[-1]
            total += len(leaf.keys)
            chain_leaves.append(leaf)
            prev, leaf = leaf, leaf.next_leaf
        if total != self._size:
            raise InvariantViolationError(
                f"size mismatch: chain={total} cached={self._size}"
            )
        _, n_leaves = self.node_counts()
        if len(chain_leaves) != n_leaves:
            raise InvariantViolationError("leaf chain does not cover all leaves")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BPlusTree(n={self._size}, height={self.height}, "
            f"branching={self.branching})"
        )
