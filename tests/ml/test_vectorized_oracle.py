"""The vectorized learning layer equals its loop-form oracle byte for byte.

``tests/ml/oracle.py`` keeps the per-threshold split search, the per-row
tree walk, one capped fit per Algorithm 1 size and the per-schedule
featurizers; every fast path is checked against them here.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.advisor.recommend import _p_fast
from repro.advisor.store import UnionArtifact
from repro.dag.vertex import cpu_op, gpu_op
from repro.errors import TrainingError
from repro.ml import hyperparam
from repro.ml.features import (
    FeatureExtractor,
    KeyPositions,
    MappedFeatureExtractor,
    OrderFeature,
    StreamFeature,
)
from repro.ml.hyperparam import search_tree_size
from repro.ml.tree import DecisionTree, TreeConfig
from repro.schedule.schedule import BoundOp, Schedule
from tests.ml import oracle

CONFIGS = [
    (criterion, class_weight)
    for criterion in ("gini", "entropy")
    for class_weight in ("balanced", None)
]


@st.composite
def binary_datasets(draw):
    """Binary features; labels random or tied to a few features, with up
    to 9 classes so class sums take numpy's pairwise path too."""
    n = draw(st.integers(min_value=2, max_value=90))
    f = draw(st.integers(min_value=1, max_value=8))
    k = draw(st.sampled_from([2, 2, 3, 4, 9]))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    x = (rng.random((n, f)) < rng.random(f)).astype(np.uint8)
    if draw(st.booleans()):
        y = rng.integers(0, k, size=n)
    else:
        y = (2 * x[:, 0] + x[:, -1] + (rng.random(n) < 0.15)) % k
    return x, y


def _json(tree: DecisionTree) -> str:
    return json.dumps(tree.to_dict())


@given(
    binary_datasets(),
    st.sampled_from(CONFIGS),
    st.sampled_from([None, 2, 3, 5, 8]),
)
@settings(max_examples=120, deadline=None)
def test_fit_predict_apply_equal_oracle(data, config, max_leaf_nodes):
    x, y = data
    criterion, class_weight = config
    cfg = TreeConfig(
        criterion=criterion,
        class_weight=class_weight,
        max_leaf_nodes=max_leaf_nodes,
    )
    fast = DecisionTree(cfg).fit(x, y)
    slow = oracle.OracleTree(cfg).fit(x, y)
    assert _json(fast) == _json(slow)
    probe = np.concatenate([x, 1 - x[::-1]])
    assert fast.predict(probe).tobytes() == slow.predict(probe).tobytes()
    assert fast.apply(probe).tobytes() == slow.apply(probe).tobytes()


@given(binary_datasets(), st.sampled_from(CONFIGS))
@settings(max_examples=60, deadline=None)
def test_search_tree_size_equals_capped_fit_oracle(data, config):
    x, y = data
    criterion, class_weight = config
    tree, trace = search_tree_size(
        x, y, criterion=criterion, class_weight=class_weight
    )
    ref_tree, ref_trace = oracle.search_tree_size(
        x, y, criterion=criterion, class_weight=class_weight
    )
    assert trace.rows() == ref_trace.rows()
    assert json.dumps(trace.rows()) == json.dumps(ref_trace.rows())
    assert _json(tree) == _json(ref_tree)


@given(binary_datasets(), st.sampled_from(CONFIGS))
@settings(max_examples=60, deadline=None)
def test_capped_fit_is_prefix_of_one_growth(data, config):
    """A fit capped at m leaves (depth m - 1) is the root plus the first
    m - 1 splits of the uncapped growth, for every m <= 14."""
    x, y = data
    criterion, class_weight = config
    grown = DecisionTree(
        TreeConfig(criterion=criterion, class_weight=class_weight)
    ).fit(x, y)
    for m in range(2, 15):
        capped = DecisionTree(
            TreeConfig(
                criterion=criterion,
                class_weight=class_weight,
                max_leaf_nodes=m,
                max_depth=m - 1,
            )
        ).fit(x, y)
        cut = grown.prefix(m)
        assert _json(cut) == _json(capped)
        assert cut.predict(x).tobytes() == capped.predict(x).tobytes()


def test_search_tree_size_fits_once(monkeypatch):
    calls = []
    real_fit = DecisionTree.fit

    def counting_fit(self, x, y):
        calls.append(self.config)
        return real_fit(self, x, y)

    monkeypatch.setattr(DecisionTree, "fit", counting_fit)
    rng = np.random.default_rng(3)
    x = rng.integers(0, 2, size=(200, 6)).astype(np.uint8)
    y = (x[:, 0] * 2 + (x[:, 1] & x[:, 2])) % 3
    _, trace = hyperparam.search_tree_size(x, y)
    assert len(trace.leaf_nodes) > 1
    assert len(calls) == 1
    assert calls[0].max_leaf_nodes is None and calls[0].max_depth is None


def test_prefix_needs_uncapped_growth():
    x = np.array([[0, 0], [0, 1], [1, 0], [1, 1]] * 3, dtype=np.uint8)
    y = x[:, 0] ^ x[:, 1]
    with pytest.raises(TrainingError, match="not fitted"):
        DecisionTree().prefix(2)
    with pytest.raises(TrainingError, match="cannot cut"):
        DecisionTree(TreeConfig(max_depth=3)).fit(x, y).prefix(2)
    capped = DecisionTree(TreeConfig(max_leaf_nodes=3)).fit(x, y)
    assert capped.prefix(3).n_leaves == capped.n_leaves
    with pytest.raises(TrainingError, match="cannot cut"):
        capped.prefix(4)


def test_oracle_splits_numeric_features_at_midpoints():
    x = np.array([[1.0], [2.0], [10.0], [11.0]])
    y = np.array([0, 0, 1, 1])
    t = oracle.OracleTree().fit(x, y)
    assert t.root.threshold == 6.0
    assert t.predict(np.array([[5.0], [9.0]])).tolist() == [0, 1]


@given(binary_datasets())
@settings(max_examples=40, deadline=None)
def test_p_fast_equals_row_walk(data):
    x, y = data
    tree = DecisionTree(TreeConfig(max_leaf_nodes=6)).fit(x, y)
    union = UnionArtifact(
        machine="m", n_streams=2, workloads=[], fingerprints=[], tree=tree,
        features=[], keys=(), gpu_keys=(),
    )
    assert _p_fast(union, x).tobytes() == oracle.p_fast(tree, x).tobytes()


# ----------------------------------------------------------------------
def _gpu(name, stream):
    return BoundOp(vertex=gpu_op(name), stream=stream)


def _cpu(name):
    return BoundOp(vertex=cpu_op(name))


#: k1/k2 share key K; w (GPU) is W; c (CPU) is C; "skip" maps to None.
MAPPING = {"k1": "K", "k2": "K", "w": "W", "c": "C", "skip": None}
FEATURES = [
    OrderFeature("K", "W"),
    OrderFeature("W", "K"),
    OrderFeature("K", "C"),
    OrderFeature("C", "W"),
    OrderFeature("K", "ABSENT"),
    OrderFeature("ABSENT", "W"),
    StreamFeature("K", "W"),
    StreamFeature("W", "K"),
    StreamFeature("K", "C"),
    StreamFeature("K", "ABSENT"),
]
SCHEDULES = [
    # Both K ops before W, all on stream 0.
    Schedule([_gpu("k1", 0), _gpu("k2", 0), _cpu("c"), _gpu("w", 0)]),
    # W between the K ops: neither order holds; K spans two streams.
    Schedule([_gpu("k1", 0), _gpu("w", 1), _gpu("k2", 1), _cpu("skip")]),
    # K on one stream, W on another, W first.
    Schedule([_gpu("w", 0), _cpu("c"), _gpu("k1", 1), _gpu("k2", 1)]),
    # Only one K op present; W absent.
    Schedule([_cpu("c"), _gpu("k2", 1)]),
    # Nothing mapped at all.
    Schedule([_cpu("skip")]),
]


def test_mapped_cases_equal_oracle():
    got = KeyPositions.of(SCHEDULES, MAPPING).matrix(FEATURES)
    ref = oracle.mapped_feature_matrix(SCHEDULES, MAPPING, FEATURES)
    assert got.dtype == ref.dtype == np.uint8
    assert got.tobytes() == ref.tobytes()


def test_mapped_cases_values():
    m = KeyPositions.of(SCHEDULES, MAPPING).matrix(FEATURES)
    col = {f: m[:, j].tolist() for j, f in enumerate(FEATURES)}
    # A key shared by several ops: every K op must precede every W op.
    assert col[OrderFeature("K", "W")] == [1, 0, 0, 0, 0]
    assert col[OrderFeature("W", "K")] == [0, 0, 1, 0, 0]
    # Absent keys (in one schedule, or in the whole set) read 0.
    assert col[OrderFeature("K", "ABSENT")] == [0] * 5
    assert col[OrderFeature("ABSENT", "W")] == [0] * 5
    assert col[StreamFeature("K", "ABSENT")] == [0] * 5
    # A key bound to two streams shares no stream with anything; a CPU
    # key has no stream at all.
    assert col[StreamFeature("K", "W")] == [1, 0, 0, 0, 0]
    assert col[StreamFeature("W", "K")] == [1, 0, 0, 0, 0]
    assert col[StreamFeature("K", "C")] == [0] * 5


@given(
    st.lists(st.integers(0, 2**31), min_size=1, max_size=6),
    st.integers(0, 2**31),
)
@settings(max_examples=60, deadline=None)
def test_mapped_random_schedules_equal_oracle(seeds, map_seed):
    """Random op sets, orders, streams and many-to-one mappings."""
    rng = np.random.default_rng(map_seed)
    names = [f"op{i}" for i in range(7)]
    keys = ["A", "B", "C", None]
    mapping = {n: keys[int(rng.integers(len(keys)))] for n in names}
    gpu = {n: bool(rng.integers(2)) for n in names}
    schedules = []
    for seed in seeds:
        r = np.random.default_rng(seed)
        picked = [n for n in names if r.random() < 0.8]
        r.shuffle(picked)
        schedules.append(
            Schedule(
                [
                    _gpu(n, int(r.integers(3))) if gpu[n] else _cpu(n)
                    for n in picked
                ]
            )
        )
    features = [OrderFeature(u, v) for u in "ABCD" for v in "ABCD" if u != v]
    features += [StreamFeature(u, v) for u in "ABCD" for v in "ABCD" if u != v]
    got = KeyPositions.of(schedules, mapping).matrix(features)
    ref = oracle.mapped_feature_matrix(schedules, mapping, features)
    assert got.tobytes() == ref.tobytes()
    half = len(schedules) // 2
    tagged = [(schedules[:half], mapping), (schedules[half:], mapping)]
    ex = MappedFeatureExtractor().fit(tagged)
    assert (ex.keys, ex.gpu_keys, ex.features) == oracle.mapped_fit(tagged)
    assert (
        ex.transform(schedules, mapping).matrix.tobytes()
        == oracle.mapped_feature_matrix(schedules, mapping, ex.features).tobytes()
    )


def test_extractor_equals_oracle(spmv_schedules):
    fx = FeatureExtractor()
    fm = fx.fit_transform(spmv_schedules)
    ref = oracle.feature_matrix(spmv_schedules, fm.features)
    assert fm.matrix.tobytes() == ref.tobytes()
    candidates = fx._set_vocabulary(
        spmv_schedules[0], frozenset(spmv_schedules[0].op_names())
    )
    assert (
        fx._raw_matrix(spmv_schedules[:200], candidates).tobytes()
        == oracle.feature_matrix(spmv_schedules[:200], candidates).tobytes()
    )


def test_extractor_missing_op_raises():
    schedules = [Schedule([_gpu("a", 0), _gpu("b", 1)]), Schedule([_gpu("a", 0)])]
    for feature in (OrderFeature("a", "b"), StreamFeature("a", "b")):
        with pytest.raises(TrainingError, match="missing op"):
            FeatureExtractor()._raw_matrix(schedules, [feature])
