"""CART decision tree, from scratch (paper §IV-C, Table IV).

The paper trains scikit-learn's ``DecisionTreeClassifier`` (CART [30]) with
``criterion`` gini or entropy, ``class_weight="balanced"``, and
``max_leaf_nodes`` / ``max_depth`` chosen by Algorithm 1.  scikit-learn is
not installable in this offline environment, so this module implements the
same algorithm:

* impurity: Gini or entropy over *weighted* class frequencies;
* ``class_weight="balanced"``: sample weight
  ``n_samples / (n_classes * count(class))``;
* growth: best-first — repeatedly split the leaf with the greatest
  weighted impurity decrease — which is exactly how scikit-learn grows
  trees when ``max_leaf_nodes`` is set;
* splits: binary tests ``x[f] <= 0.5`` over the pipeline's 0/1 features
  (left = feature 0, right = 1); ``fit`` rejects any other value.

Split search is column arithmetic over the node's rows.  Sample weights
are constant within a class, so a side's weighted class sum is the
sequential sum of ``k`` copies of the class weight — one lookup in a
per-fit cumulative-sum table, bit-identical to accumulating the samples
one by one — and per-class counts for every feature at once are integer
sums over the node's rows.  Growth is recorded in the node ids (split
``k`` creates nodes ``2k - 1`` and ``2k``), which is what lets
:meth:`DecisionTree.prefix` cut the tree any smaller growth would have
produced out of one uncapped fit.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import TrainingError

#: Threshold of every split over 0/1 features.
THRESHOLD = 0.5

#: ``split(indices, parent_impurity, weighted_total)`` -> best
#: ``(gain, feature, threshold)`` for a leaf's samples, or ``None``.
Splitter = Callable[[np.ndarray, float, float], Optional[Tuple[float, int, float]]]


@dataclass(frozen=True)
class TreeConfig:
    """Training hyperparameters (paper Table IV)."""

    criterion: str = "gini"  # "gini" | "entropy"
    max_leaf_nodes: Optional[int] = None
    max_depth: Optional[int] = None
    class_weight: Optional[str] = "balanced"  # "balanced" | None
    min_impurity_decrease: float = 0.0

    def __post_init__(self) -> None:
        if self.criterion not in ("gini", "entropy"):
            raise TrainingError(f"unknown criterion {self.criterion!r}")
        if self.max_leaf_nodes is not None and self.max_leaf_nodes < 2:
            raise TrainingError("max_leaf_nodes must be >= 2")
        if self.class_weight not in (None, "balanced"):
            raise TrainingError(f"unknown class_weight {self.class_weight!r}")


def _impurity(weighted_counts: np.ndarray, criterion: str) -> float:
    total = weighted_counts.sum()
    if total <= 0:
        return 0.0
    p = weighted_counts / total
    if criterion == "gini":
        return float(1.0 - np.sum(p * p))
    nz = p[p > 0]
    return float(-np.sum(nz * np.log2(nz)))


def _row_impurities(
    wc: np.ndarray, totals: np.ndarray, criterion: str
) -> np.ndarray:
    """:func:`_impurity` of every row of ``wc`` (rows, classes), bit for bit.

    ``wc`` must be C-contiguous with positive ``totals`` (its row sums):
    a row-wise ``sum`` then adds in the same order as ``np.sum`` over one
    row.  Entropy sums only the nonzero proportions, so rows are summed
    in groups sharing one nonzero pattern, each compacted to exactly the
    terms :func:`_impurity` adds.
    """
    p = wc / totals[:, None]
    if criterion == "gini":
        return 1.0 - (p * p).sum(axis=1)
    nonzero = p > 0
    terms = p * np.log2(np.where(nonzero, p, 1.0))
    out = np.empty(len(p))
    patterns, inverse = np.unique(nonzero, axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    for k, pattern in enumerate(patterns):
        rows = inverse == k
        out[rows] = -terms[rows][:, pattern].sum(axis=1)
    return out


def _class_labels(y: np.ndarray) -> np.ndarray:
    """``y`` as integer class labels; negative or fractional labels raise."""
    if y.ndim != 1:
        raise TrainingError("y must be 1-D (n_samples,)")
    if y.dtype.kind not in "biuf":
        raise TrainingError(f"class labels must be integers, not {y.dtype}")
    if y.dtype.kind == "f" and not np.all(np.isfinite(y) & (y == np.round(y))):
        raise TrainingError("class labels must be integers")
    labels = y.astype(int)
    if np.any(labels < 0):
        raise TrainingError("class labels must be non-negative")
    return labels


class TreeNode:
    """One node of the fitted tree."""

    __slots__ = (
        "node_id",
        "depth",
        "feature",
        "threshold",
        "left",
        "right",
        "n_samples",
        "weighted_counts",
    )

    def __init__(
        self,
        node_id: int,
        depth: int,
        n_samples: int,
        weighted_counts: np.ndarray,
    ) -> None:
        self.node_id = node_id
        self.depth = depth
        self.feature: Optional[int] = None
        self.threshold: float = 0.0
        self.left: Optional["TreeNode"] = None
        self.right: Optional["TreeNode"] = None
        self.n_samples = n_samples
        self.weighted_counts = weighted_counts

    @property
    def is_leaf(self) -> bool:
        return self.feature is None

    @property
    def predicted_class(self) -> int:
        return int(np.argmax(self.weighted_counts))

    def class_proportions(self) -> np.ndarray:
        total = self.weighted_counts.sum()
        if total <= 0:
            return np.zeros_like(self.weighted_counts)
        return self.weighted_counts / total


@dataclass(order=True)
class _Candidate:
    """Heap entry: a leaf and its best available split."""

    neg_gain: float
    tiebreak: int
    node: TreeNode = field(compare=False)
    indices: np.ndarray = field(compare=False)
    feature: int = field(compare=False, default=-1)
    threshold: float = field(compare=False, default=0.0)


class DecisionTree:
    """Best-first CART classifier."""

    def __init__(self, config: TreeConfig = TreeConfig()) -> None:
        self.config = config
        self.root: Optional[TreeNode] = None
        self.n_classes = 0
        self.n_features = 0
        self.n_leaves = 0
        self.depth = 0
        self._next_id = 0
        self._tiebreak = 0

    # ------------------------------------------------------------------
    def fit(self, x: np.ndarray, y: np.ndarray) -> "DecisionTree":
        x = np.asarray(x)
        y = np.asarray(y)
        if x.ndim != 2:
            raise TrainingError("x must be 2-D (n_samples, n_features)")
        if len(x) != len(y):
            raise TrainingError("x and y length mismatch")
        if len(x) == 0:
            raise TrainingError("cannot fit on zero samples")
        y = _class_labels(y)
        self._check_features(x)
        self.n_classes = int(y.max()) + 1
        self.n_features = x.shape[1]
        self.depth = self._next_id = self._tiebreak = 0
        weights = self._sample_weights(y)
        split = self._splitter(x, y, weights)

        def candidate(node: TreeNode, indices: np.ndarray) -> Optional[_Candidate]:
            max_depth = self.config.max_depth
            if max_depth is not None and node.depth >= max_depth:
                return None
            if len(indices) < 2:
                return None
            parent_imp = _impurity(node.weighted_counts, self.config.criterion)
            w_total = node.weighted_counts.sum()
            if parent_imp <= 0 or w_total <= 0:
                return None
            best = split(indices, parent_imp, w_total)
            if best is None:
                return None
            self._tiebreak += 1
            return _Candidate(
                neg_gain=-best[0],
                tiebreak=self._tiebreak,
                node=node,
                indices=indices,
                feature=best[1],
                threshold=best[2],
            )

        everything = np.arange(len(y))
        self.root = self._make_node(everything, y, weights, depth=0)
        self.n_leaves = 1
        heap: List[_Candidate] = []
        first = candidate(self.root, everything)
        if first is not None:
            heapq.heappush(heap, first)

        max_leaves = self.config.max_leaf_nodes or np.inf
        while heap and self.n_leaves < max_leaves:
            cand = heapq.heappop(heap)
            # Zero-gain splits are allowed when min_impurity_decrease is 0
            # (matches scikit-learn; required for XOR-style interactions
            # where the first split alone does not reduce impurity).
            if -cand.neg_gain < self.config.min_impurity_decrease:
                break
            node, idx = cand.node, cand.indices
            go_left = x[idx, cand.feature] <= cand.threshold
            li, ri = idx[go_left], idx[~go_left]
            node.feature = cand.feature
            node.threshold = cand.threshold
            node.left = self._make_node(li, y, weights, node.depth + 1)
            node.right = self._make_node(ri, y, weights, node.depth + 1)
            self.n_leaves += 1
            self.depth = max(self.depth, node.depth + 1)
            for child, cidx in ((node.left, li), (node.right, ri)):
                nxt = candidate(child, cidx)
                if nxt is not None:
                    heapq.heappush(heap, nxt)
        return self

    # ------------------------------------------------------------------
    def _check_features(self, x: np.ndarray) -> None:
        if not np.all((x == 0) | (x == 1)):
            raise TrainingError("features must be binary (0/1)")

    def _sample_weights(self, y: np.ndarray) -> np.ndarray:
        if self.config.class_weight is None:
            return np.ones(len(y))
        counts = np.bincount(y, minlength=self.n_classes).astype(float)
        nonzero = counts > 0
        class_w = np.zeros(self.n_classes)
        class_w[nonzero] = len(y) / (nonzero.sum() * counts[nonzero])
        return class_w[y]

    def _make_node(
        self,
        indices: np.ndarray,
        y: np.ndarray,
        weights: np.ndarray,
        depth: int,
    ) -> TreeNode:
        wc = np.bincount(
            y[indices], weights=weights[indices], minlength=self.n_classes
        )
        node = TreeNode(
            node_id=self._next_id,
            depth=depth,
            n_samples=len(indices),
            weighted_counts=wc,
        )
        self._next_id += 1
        return node

    def _splitter(
        self, x: np.ndarray, y: np.ndarray, weights: np.ndarray
    ) -> Splitter:
        """Best binary split of a leaf, searched over all features at once.

        Every sample of class ``c`` weighs ``class_w[c]``, so a side
        holding ``k`` of them weighs ``sums[c, k]``: ``k`` copies added
        one at a time, as accumulating the samples would.  Ties between
        features go to the lowest index unless a later gain beats the
        best by more than ``1e-15``.
        """
        crit = self.config.criterion
        xb = x.astype(np.uint8, copy=False)
        classes = np.arange(self.n_classes)
        class_w = np.zeros(self.n_classes)
        class_w[y] = weights
        sums = np.zeros((self.n_classes, len(y) + 1))
        np.cumsum(
            np.broadcast_to(class_w[:, None], (self.n_classes, len(y))),
            axis=1,
            out=sums[:, 1:],
        )

        def split(
            indices: np.ndarray, parent_imp: float, w_total: float
        ) -> Optional[Tuple[float, int, float]]:
            xv = xb[indices]
            yv = y[indices]
            # (features, classes): samples with the feature at 1 / at 0.
            n_right = np.stack(
                [xv[yv == c].sum(axis=0, dtype=np.intp) for c in classes],
                axis=1,
            )
            n_left = np.bincount(yv, minlength=self.n_classes) - n_right
            wl = sums[classes, n_left]
            wr = sums[classes, n_right]
            sl = wl.sum(axis=1)
            sr = wr.sum(axis=1)
            valid = np.flatnonzero((sl > 0) & (sr > 0))
            if not len(valid):
                return None
            sl, sr = sl[valid], sr[valid]
            child_imp = (
                sl * _row_impurities(wl[valid], sl, crit)
                + sr * _row_impurities(wr[valid], sr, crit)
            ) / w_total
            best_gain = -1.0
            best = -1
            for f, gain in zip(valid.tolist(), (parent_imp - child_imp).tolist()):
                if gain > best_gain + 1e-15:
                    best_gain, best = gain, f
            return best_gain, best, THRESHOLD

        return split

    # ------------------------------------------------------------------
    def prefix(self, max_leaf_nodes: int) -> "DecisionTree":
        """The tree a fit capped at ``max_leaf_nodes`` would grow.

        That tree is this growth's root plus its first
        ``max_leaf_nodes - 1`` splits — node ids, sizes, depth and all —
        with ``max_leaf_nodes`` and ``max_depth = max_leaf_nodes - 1`` in
        its config.  A tree with ``m`` leaves has depth at most ``m - 1``,
        so that depth cap never stops a split the leaf cap allows.  Needs
        a growth without a depth cap that reached at least that many
        leaves (or stopped on its own).
        """
        if self.root is None:
            raise TrainingError("tree is not fitted")
        cap = self.config.max_leaf_nodes
        if self.config.max_depth is not None or (
            cap is not None and cap < max_leaf_nodes
        ):
            raise TrainingError(
                f"cannot cut {max_leaf_nodes} leaves from a growth capped at "
                f"max_leaf_nodes={cap}, max_depth={self.config.max_depth}"
            )
        tree = DecisionTree(
            replace(
                self.config,
                max_leaf_nodes=max_leaf_nodes,
                max_depth=max_leaf_nodes - 1,
            )
        )
        last_id = 2 * (max_leaf_nodes - 1)

        def cut(node: TreeNode) -> TreeNode:
            out = TreeNode(
                node.node_id, node.depth, node.n_samples, node.weighted_counts
            )
            if not node.is_leaf and node.right.node_id <= last_id:
                out.feature = node.feature
                out.threshold = node.threshold
                out.left = cut(node.left)
                out.right = cut(node.right)
                tree.n_leaves += 1
                tree.depth = max(tree.depth, node.depth + 1)
            return out

        tree.n_leaves = 1
        tree.root = cut(self.root)
        tree.n_classes = self.n_classes
        tree.n_features = self.n_features
        tree._next_id = 2 * tree.n_leaves - 1
        return tree

    # ------------------------------------------------------------------
    def route(self, x: np.ndarray) -> List[Tuple[TreeNode, np.ndarray]]:
        """Each leaf some row of ``x`` reaches, with those rows' indices.

        Index arrays go down the tree one node at a time, split by the
        node's test.
        """
        if self.root is None:
            raise TrainingError("tree is not fitted")
        x = np.asarray(x)
        out: List[Tuple[TreeNode, np.ndarray]] = []
        stack = [(self.root, np.arange(len(x)))]
        while stack:
            node, idx = stack.pop()
            if node.is_leaf:
                out.append((node, idx))
                continue
            go_left = x[idx, node.feature] <= node.threshold
            for child, cidx in ((node.right, idx[~go_left]), (node.left, idx[go_left])):
                if len(cidx):
                    stack.append((child, cidx))
        return out

    def predict(self, x: np.ndarray) -> np.ndarray:
        out = np.empty(len(x), dtype=int)
        for leaf, idx in self.route(x):
            out[idx] = leaf.predicted_class
        return out

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Leaf node id for each sample."""
        out = np.empty(len(x), dtype=int)
        for leaf, idx in self.route(x):
            out[idx] = leaf.node_id
        return out

    # ------------------------------------------------------------------
    def leaves(self) -> List[TreeNode]:
        return [n for n in self.nodes() if n.is_leaf]

    def nodes(self) -> Iterator[TreeNode]:
        if self.root is None:
            return iter(())

        def walk(node: TreeNode) -> Iterator[TreeNode]:
            yield node
            if not node.is_leaf:
                yield from walk(node.left)
                yield from walk(node.right)

        return walk(self.root)

    def paths(self) -> List[Tuple[List[Tuple[int, bool]], TreeNode]]:
        """Root-to-leaf paths as (conditions, leaf).

        Each condition is ``(feature index, value)`` where value is the
        boolean outcome of the binary feature on that branch (False =
        "<= threshold" branch, True = ">" branch).
        """
        if self.root is None:
            raise TrainingError("tree is not fitted")
        out: List[Tuple[List[Tuple[int, bool]], TreeNode]] = []

        def walk(node: TreeNode, conds: List[Tuple[int, bool]]) -> None:
            if node.is_leaf:
                out.append((list(conds), node))
                return
            walk(node.left, conds + [(node.feature, False)])
            walk(node.right, conds + [(node.feature, True)])

        walk(self.root, [])
        return out

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready form of the fitted tree (config + node structure).

        The node encoding is recursive and canonical — two equal trees
        produce identical dicts, so persisted artifacts
        (:mod:`repro.advisor.store`) are bit-stable.  ``weighted_counts``
        are stored as plain floats; :meth:`from_dict` restores them as
        ``np.ndarray`` exactly (they are finite IEEE doubles end to end).
        """

        def node_dict(node: TreeNode) -> dict:
            out = {
                "node_id": node.node_id,
                "depth": node.depth,
                "n_samples": node.n_samples,
                "weighted_counts": [float(w) for w in node.weighted_counts],
            }
            if not node.is_leaf:
                out["feature"] = node.feature
                out["threshold"] = node.threshold
                out["left"] = node_dict(node.left)
                out["right"] = node_dict(node.right)
            return out

        return {
            "config": {
                "criterion": self.config.criterion,
                "max_leaf_nodes": self.config.max_leaf_nodes,
                "max_depth": self.config.max_depth,
                "class_weight": self.config.class_weight,
                "min_impurity_decrease": self.config.min_impurity_decrease,
            },
            "n_classes": self.n_classes,
            "n_features": self.n_features,
            "n_leaves": self.n_leaves,
            "depth": self.depth,
            "root": node_dict(self.root) if self.root is not None else None,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DecisionTree":
        """Rebuild a fitted tree from :meth:`to_dict` output."""
        tree = cls(TreeConfig(**data["config"]))
        tree.n_classes = int(data["n_classes"])
        tree.n_features = int(data["n_features"])
        tree.n_leaves = int(data["n_leaves"])
        tree.depth = int(data["depth"])

        def build(nd: Optional[dict]) -> Optional[TreeNode]:
            if nd is None:
                return None
            node = TreeNode(
                node_id=int(nd["node_id"]),
                depth=int(nd["depth"]),
                n_samples=int(nd["n_samples"]),
                weighted_counts=np.asarray(nd["weighted_counts"], dtype=float),
            )
            if "feature" in nd:
                node.feature = int(nd["feature"])
                node.threshold = float(nd["threshold"])
                node.left = build(nd["left"])
                node.right = build(nd["right"])
            return node

        tree.root = build(data.get("root"))
        if tree.root is not None:
            tree._next_id = 1 + max(n.node_id for n in tree.nodes())
        return tree

    # ------------------------------------------------------------------
    def render(self, feature_names: Optional[Sequence[str]] = None) -> str:
        """Text rendering in the style of the paper's Figure 6."""
        if self.root is None:
            return "(unfitted tree)"
        lines: List[str] = []

        def name(f: int) -> str:
            if feature_names is not None:
                return str(feature_names[f])
            return f"x[{f}]"

        def walk(node: TreeNode, prefix: str, branch: str) -> None:
            props = ", ".join(
                f"{100*p:.1f}%" for p in node.class_proportions()
            )
            if node.is_leaf:
                lines.append(
                    f"{prefix}{branch}leaf#{node.node_id} "
                    f"samples={node.n_samples} classes=[{props}] "
                    f"-> class {node.predicted_class}"
                )
                return
            lines.append(
                f"{prefix}{branch}[{name(node.feature)}] "
                f"samples={node.n_samples} classes=[{props}]"
            )
            walk(node.left, prefix + "  ", "False: ")
            walk(node.right, prefix + "  ", "True:  ")

        walk(self.root, "", "")
        return "\n".join(lines)
