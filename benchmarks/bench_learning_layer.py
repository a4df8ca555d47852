"""The learning layer: Algorithm 1 and union training on smoke-suite data.

Times :func:`~repro.ml.hyperparam.search_tree_size` (one best-first
growth per search, every size read off it) over each smoke-suite
workload's pipeline features, and :func:`~repro.transfer.union.train_union`
(column-gather featurization, then Algorithm 1) over the whole suite.
Both must equal the loop-form oracle in ``tests/ml/oracle.py`` byte for
byte: Figure-5 trace rows, tree JSON, the union's key vocabulary,
feature list and matrix.  The oracle's own wall is reported next to the
fast path's (smoke mode leaves out halo3d, the largest space).
"""

import json
import time

import numpy as np
import pytest

from benchmarks.conftest import SMOKE, emit
from repro.ml.hyperparam import search_tree_size
from repro.sim.measure import MeasurementConfig
from repro.transfer.signature import program_signatures
from repro.transfer.union import UnionWorkload, binary_labels, train_union
from repro.workloads import get_suite, rules_for_specs
from tests.ml import oracle

SPECS = [
    s for s in get_suite("smoke").specs if not (SMOKE and s.family == "halo3d")
]


@pytest.fixture(scope="module")
def per_workload():
    return rules_for_specs(SPECS, measurement=MeasurementConfig(max_samples=1))


def _union_workloads(per_workload):
    return [
        UnionWorkload(
            label=wl.spec.label,
            schedules=list(wl.result.search.schedules()),
            labels=binary_labels(wl.result.labeling.labels),
            signatures=program_signatures(wl.program),
        )
        for wl in per_workload
    ]


def _search_all(search, data):
    return [search(x, y) for x, y in data]


def test_bench_search_tree_size(benchmark, per_workload, capfd):
    data = [
        (wl.result.features.matrix, wl.result.labeling.labels)
        for wl in per_workload
    ]
    got = benchmark.pedantic(
        lambda: _search_all(search_tree_size, data), rounds=3, iterations=1
    )
    t0 = time.perf_counter()
    ref = _search_all(oracle.search_tree_size, data)
    oracle_s = time.perf_counter() - t0
    for (tree, trace), (ref_tree, ref_trace) in zip(got, ref):
        assert json.dumps(trace.rows()) == json.dumps(ref_trace.rows())
        assert json.dumps(tree.to_dict()) == json.dumps(ref_tree.to_dict())
    fast_s = benchmark.stats.stats.min
    emit(
        capfd,
        "Algorithm 1 over the smoke suite",
        f"{len(data)} searches, {sum(len(t.leaf_nodes) for _, t in got)} "
        f"sizes: {fast_s:.3f} s (one growth each) vs {oracle_s:.3f} s "
        f"(capped loop fits), {oracle_s / fast_s:.1f}x",
    )


def test_bench_train_union(benchmark, per_workload, capfd):
    result = benchmark.pedantic(
        lambda: train_union(_union_workloads(per_workload)),
        rounds=3,
        iterations=1,
    )
    workloads = _union_workloads(per_workload)
    tagged = [(w.schedules, w.key_mapping) for w in workloads]
    t0 = time.perf_counter()
    keys, gpu_keys, features = oracle.mapped_fit(tagged)
    x = np.concatenate(
        [oracle.mapped_feature_matrix(s, m, features) for s, m in tagged]
    )
    y = np.concatenate([w.labels for w in workloads])
    ref_tree, _ = oracle.search_tree_size(x, y)
    oracle_s = time.perf_counter() - t0
    ex = result.extractor
    assert (ex.keys, ex.gpu_keys, ex.features) == (keys, gpu_keys, features)
    for w in workloads:
        assert (
            ex.transform(w.schedules, w.key_mapping).matrix.tobytes()
            == oracle.mapped_feature_matrix(w.schedules, w.key_mapping, features).tobytes()
        )
    assert json.dumps(result.tree.to_dict()) == json.dumps(ref_tree.to_dict())
    assert result.train_accuracy == float(np.mean(ref_tree.predict(x) == y))
    fast_s = benchmark.stats.stats.min
    emit(
        capfd,
        "Union training over the smoke suite",
        f"{len(y)} schedules x {len(features)} features: {fast_s:.3f} s vs "
        f"{oracle_s:.3f} s (loop featurizers + capped loop fits), "
        f"{oracle_s / fast_s:.1f}x",
    )
