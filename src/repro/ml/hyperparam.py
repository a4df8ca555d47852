"""Decision-tree size search — the paper's Algorithm 1 and Figure 5.

"The number of leaf nodes of the tree is initially set to [2], and
iteratively increased until classification error no longer shrinks" —
``train()`` takes ``max_leaf_nodes`` and uses
``max_depth = max_leaf_nodes - 1``.  The search keeps trying up to five
larger sizes after each accepted size; the first improvement is accepted
(greedy), and if none of the five improves, the search stops.

Every size is read off **one** best-first growth instead of a fit per
size.  Growth is best-first, so a fit capped at ``m`` leaves stops after
the first ``m - 1`` splits of the uncapped growth — unless the depth cap
stops a split first, and it cannot: a tree with ``m`` leaves is at most
``m - 1`` deep, so until the ``m``-th leaf exists no node sits at depth
``m - 1``.  The capped tree is therefore exactly
:meth:`~repro.ml.tree.DecisionTree.prefix` ``(m)`` of the uncapped one —
node ids, sizes, depth and config included — and so is its training
error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.ml.metrics import training_error
from repro.ml.tree import DecisionTree, TreeConfig


@dataclass
class HyperparamTrace:
    """Every (max_leaf_nodes, error, depth) evaluated — Figure 5's series."""

    leaf_nodes: List[int] = field(default_factory=list)
    errors: List[float] = field(default_factory=list)
    depths: List[int] = field(default_factory=list)

    def record(self, mln: int, err: float, depth: int) -> None:
        self.leaf_nodes.append(mln)
        self.errors.append(err)
        self.depths.append(depth)

    def rows(self) -> List[Tuple[int, float, int]]:
        return list(zip(self.leaf_nodes, self.errors, self.depths))


def search_tree_size(
    x: np.ndarray,
    y: np.ndarray,
    *,
    criterion: str = "gini",
    class_weight: Optional[str] = "balanced",
    patience: int = 5,
) -> Tuple[DecisionTree, HyperparamTrace]:
    """Algorithm 1: grow ``max_leaf_nodes`` until error stops shrinking.

    Returns the selected classifier and the evaluation trace (Figure 5).
    """
    trace = HyperparamTrace()
    grown = DecisionTree(
        TreeConfig(criterion=criterion, class_weight=class_weight)
    ).fit(x, y)

    def train(mln: int) -> Tuple[float, DecisionTree]:
        clf = grown.prefix(mln)
        err = training_error(clf, x, y)
        trace.record(mln, err, clf.depth)
        return err, clf

    mln = 2
    err = np.inf
    cur, clf = train(mln)
    while cur < err:
        err = cur
        for i in range(1, patience + 1):
            cur, nclf = train(mln + i)
            if cur < err:
                clf = nclf
                mln = mln + i
                break
    return clf, trace
