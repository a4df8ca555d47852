"""Loop-form reference implementations of the learning layer.

The vectorized code in :mod:`repro.ml` replaced these straightforward
loops: a per-feature, per-threshold split search, a per-row tree walk,
one capped fit per Algorithm 1 size, and per-schedule, per-feature
featurizers.  They are slow and live here only so tests and benchmarks
can assert the fast paths equal them byte for byte.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.dag.vertex import OpKind
from repro.errors import TrainingError
from repro.ml.features import KeyMapping, OrderFeature, StreamFeature
from repro.ml.hyperparam import HyperparamTrace
from repro.ml.tree import DecisionTree, TreeConfig, TreeNode, _impurity
from repro.schedule.schedule import Schedule
from repro.transfer.union import FAST


def leaf_of(tree: DecisionTree, row: np.ndarray) -> TreeNode:
    """The leaf one sample reaches, walked node by node."""
    if tree.root is None:
        raise TrainingError("tree is not fitted")
    node = tree.root
    while not node.is_leaf:
        node = node.left if row[node.feature] <= node.threshold else node.right
    return node


class OracleTree(DecisionTree):
    """CART with the threshold-loop split search and per-row routing.

    Accepts any numeric features: each feature's thresholds are the
    midpoints between its sorted distinct values at the node.
    """

    def _check_features(self, x: np.ndarray) -> None:
        pass

    def _make_node(self, indices, y, weights, depth):
        wc = np.zeros(self.n_classes)
        np.add.at(wc, y[indices], weights[indices])
        node = TreeNode(self._next_id, depth, len(indices), wc)
        self._next_id += 1
        return node

    def _splitter(self, x, y, weights):
        crit = self.config.criterion
        n_classes = self.n_classes

        def split(indices, parent_imp, w_total):
            best_gain = -1.0
            best: Optional[Tuple[int, float]] = None
            xv = x[indices]
            yv = y[indices]
            wv = weights[indices]
            for f in range(self.n_features):
                col = xv[:, f]
                values = np.unique(col)
                if len(values) < 2:
                    continue
                thresholds = (values[:-1] + values[1:]) / 2.0
                for thr in thresholds:
                    mask = col <= thr
                    wl = np.zeros(n_classes)
                    wr = np.zeros(n_classes)
                    np.add.at(wl, yv[mask], wv[mask])
                    np.add.at(wr, yv[~mask], wv[~mask])
                    sl, sr = wl.sum(), wr.sum()
                    if sl <= 0 or sr <= 0:
                        continue
                    child_imp = (
                        sl * _impurity(wl, crit) + sr * _impurity(wr, crit)
                    ) / w_total
                    gain = (w_total / w_total) * (parent_imp - child_imp)
                    if gain > best_gain + 1e-15:
                        best_gain = gain
                        best = (f, float(thr))
            if best is None:
                return None
            return best_gain, best[0], best[1]

        return split

    def predict(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        out = np.empty(len(x), dtype=int)
        for i, row in enumerate(x):
            out[i] = leaf_of(self, row).predicted_class
        return out

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        out = np.empty(len(x), dtype=int)
        for i, row in enumerate(x):
            out[i] = leaf_of(self, row).node_id
        return out


def p_fast(tree: DecisionTree, x: np.ndarray) -> np.ndarray:
    """Leaf proportion of the fast class per row, walked row by row."""
    out = np.empty(len(x))
    for i, row in enumerate(np.asarray(x)):
        props = leaf_of(tree, row).class_proportions()
        out[i] = float(props[FAST]) if len(props) > FAST else 0.0
    return out


def search_tree_size(
    x: np.ndarray,
    y: np.ndarray,
    *,
    criterion: str = "gini",
    class_weight: Optional[str] = "balanced",
    patience: int = 5,
) -> Tuple[DecisionTree, HyperparamTrace]:
    """Algorithm 1 with one capped :class:`OracleTree` fit per size."""
    trace = HyperparamTrace()

    def train(mln: int) -> Tuple[float, DecisionTree]:
        clf = OracleTree(
            TreeConfig(
                criterion=criterion,
                class_weight=class_weight,
                max_leaf_nodes=mln,
                max_depth=mln - 1,
            )
        ).fit(x, y)
        err = float(np.mean(clf.predict(x) != np.asarray(y)))
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


def feature_matrix(
    schedules: Sequence[Schedule], features: Sequence[object]
) -> np.ndarray:
    """``FeatureExtractor`` values over op names, schedule by schedule."""
    mat = np.zeros((len(schedules), len(features)), dtype=np.uint8)
    for i, s in enumerate(schedules):
        pos = {op.name: k for k, op in enumerate(s.ops)}
        streams = {op.name: op.stream for op in s.ops if op.kind is OpKind.GPU}
        for j, f in enumerate(features):
            if isinstance(f, OrderFeature):
                pu, pv = pos.get(f.u), pos.get(f.v)
                if pu is None or pv is None:
                    raise TrainingError(f"schedule missing op for feature {f}")
                mat[i, j] = 1 if pu < pv else 0
            else:
                mat[i, j] = 1 if streams[f.u] == streams[f.v] else 0
    return mat


def _schedule_groups(
    schedule: Schedule, mapping: KeyMapping
) -> Tuple[Dict[str, List[int]], Dict[str, List[int]]]:
    """(key -> launch positions, key -> GPU stream bindings)."""
    order: Dict[str, List[int]] = {}
    streams: Dict[str, List[int]] = {}
    for i, op in enumerate(schedule.ops):
        key = mapping.get(op.name)
        if key is None:
            continue
        order.setdefault(key, []).append(i)
        if op.kind is OpKind.GPU:
            streams.setdefault(key, []).append(op.stream)
    return order, streams


def mapped_feature_matrix(
    schedules: Sequence[Schedule],
    mapping: KeyMapping,
    features: Sequence[object],
) -> np.ndarray:
    """``MappedFeatureExtractor`` values over keys, schedule by schedule."""
    mat = np.zeros((len(schedules), len(features)), dtype=np.uint8)
    for i, s in enumerate(schedules):
        order, streams = _schedule_groups(s, mapping)
        for j, f in enumerate(features):
            if isinstance(f, OrderFeature):
                us, vs = order.get(f.u), order.get(f.v)
                if us and vs:
                    mat[i, j] = 1 if max(us) < min(vs) else 0
            else:
                su, sv = streams.get(f.u), streams.get(f.v)
                if su and sv:
                    mat[i, j] = 1 if all(a == b for a in su for b in sv) else 0
    return mat


def mapped_fit(
    tagged: Sequence[Tuple[Sequence[Schedule], KeyMapping]],
    min_sets: Optional[int] = None,
) -> Tuple[Tuple[str, ...], Tuple[str, ...], List[object]]:
    """``MappedFeatureExtractor.fit``'s (keys, gpu_keys, features), with
    the key census and the constant-column scan done in loops."""
    if min_sets is None:
        min_sets = min(2, len(tagged))
    seen_in: Dict[str, int] = {}
    gpu_seen_in: Dict[str, int] = {}
    for schedules, mapping in tagged:
        present: set = set()
        gpu_present: set = set()
        for s in schedules:
            order, streams = _schedule_groups(s, mapping)
            present |= set(order)
            gpu_present |= set(streams)
        for key in present:
            seen_in[key] = seen_in.get(key, 0) + 1
        for key in gpu_present:
            gpu_seen_in[key] = gpu_seen_in.get(key, 0) + 1
    keys = tuple(sorted(k for k, n in seen_in.items() if n >= min_sets))
    gpu_keys = tuple(sorted(k for k, n in gpu_seen_in.items() if n >= min_sets))
    candidates: List[object] = [
        OrderFeature(u, v) for i, u in enumerate(keys) for v in keys[i + 1 :]
    ]
    candidates += [
        StreamFeature(u, v) for i, u in enumerate(gpu_keys) for v in gpu_keys[i + 1 :]
    ]
    full = np.concatenate(
        [
            mapped_feature_matrix(schedules, mapping, candidates)
            for schedules, mapping in tagged
            if schedules
        ],
        axis=0,
    )
    keep = [
        j for j in range(full.shape[1]) if not np.all(full[:, j] == full[0, j])
    ]
    return keys, gpu_keys, [candidates[j] for j in keep]
