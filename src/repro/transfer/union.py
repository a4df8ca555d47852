"""Union-feature training: one tree over several workloads' schedules.

The paper's §VI "generalize across inputs" extension trains one decision
tree on several inputs of the *same* program.  Here the training set is
the union of several *programs'* labeled schedules, projected into the
signature-canonical feature space of
:class:`repro.ml.features.MappedFeatureExtractor`: every schedule becomes
a vector over (signature, signature) ordering/stream features shared by
all participating workloads, labeled **fast** (the workload's fastest
performance class) or **slow** (everything else).  Class counts and time
scales differ across programs, so the binary fast/slow target is the
common denominator every workload can supply.

The interesting number is *held-out-workload* accuracy: train on all
workloads but one, classify the held-out workload's schedules, and score
against its own labeling.  High accuracy means the union tree has learned
design guidance that moves across programs — the cross-program analogue
of the paper's Table V.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.errors import TrainingError
from repro.ml.features import KeyPositions, MappedFeatureExtractor
from repro.ml.hyperparam import search_tree_size
from repro.ml.tree import DecisionTree
from repro.schedule.schedule import Schedule
from repro.transfer.signature import OpSignature

#: Binary union labels.
FAST, SLOW = 0, 1


@dataclass
class UnionWorkload:
    """One workload's contribution to the union training set."""

    label: str
    schedules: Sequence[Schedule]
    #: Binary label per schedule: 0 = fastest class, 1 = slower.
    labels: np.ndarray
    #: Op name -> structural signature (from program_signatures).
    signatures: Dict[str, OpSignature]

    @cached_property
    def key_mapping(self) -> Dict[str, str]:
        return {name: sig.key for name, sig in self.signatures.items()}

    @cached_property
    def positions(self) -> KeyPositions:
        """Key positions of ``schedules``, built once and shared by every
        fold that featurizes this workload; they live as long as it does."""
        return KeyPositions.of(self.schedules, self.key_mapping)


def binary_labels(class_labels: Sequence[int]) -> np.ndarray:
    """Collapse per-workload performance classes to fast (0) / slow (1)."""
    arr = np.asarray(list(class_labels), dtype=int)
    return np.where(arr == 0, FAST, SLOW)


@dataclass
class UnionTrainingResult:
    """A union-trained tree and its evaluation."""

    extractor: MappedFeatureExtractor
    tree: DecisionTree
    #: Workload labels the tree was trained on.
    trained_on: Tuple[str, ...]
    #: Training-set accuracy over the union.
    train_accuracy: float
    #: Per-workload accuracy on the training workloads.
    per_workload_accuracy: Dict[str, float]
    #: Held-out workload label and accuracy (None when not held out).
    holdout: Optional[str] = None
    holdout_accuracy: Optional[float] = None

    @property
    def n_features(self) -> int:
        return len(self.extractor.features)


def _accuracy(
    tree: DecisionTree,
    extractor: MappedFeatureExtractor,
    wl: UnionWorkload,
) -> float:
    x = extractor.transform_positions(wl.positions).matrix
    pred = tree.predict(x)
    return float(np.mean(pred == wl.labels))


def train_union(
    workloads: Sequence[UnionWorkload],
    *,
    holdout: Optional[str] = None,
    criterion: str = "gini",
) -> UnionTrainingResult:
    """Train one tree on the union of ``workloads`` (minus ``holdout``).

    The feature vocabulary is fitted on the *training* workloads only —
    the held-out workload plays no part in choosing features — and the
    held-out evaluation uses only the features both sides share; if the
    held-out workload lacks one of them, the feature simply evaluates on
    its own signature groups (its programs carry the same structural
    signatures, which is what makes the projection possible at all).
    """
    train = [w for w in workloads if w.label != holdout]
    if holdout is not None and len(train) == len(workloads):
        raise TrainingError(f"holdout workload {holdout!r} not in the union")
    if len(train) < 2:
        raise TrainingError("union training needs at least two workloads")

    extractor = MappedFeatureExtractor().fit_positions(
        [w.positions for w in train]
    )
    if not extractor.features:
        raise TrainingError(
            "no shared, non-constant signature features across the union"
        )
    x = np.concatenate(
        [extractor.transform_positions(w.positions).matrix for w in train]
    )
    y = np.concatenate([np.asarray(w.labels, dtype=int) for w in train])
    tree, _ = search_tree_size(x, y, criterion=criterion)

    per_wl = {w.label: _accuracy(tree, extractor, w) for w in train}
    result = UnionTrainingResult(
        extractor=extractor,
        tree=tree,
        trained_on=tuple(w.label for w in train),
        train_accuracy=float(np.mean(tree.predict(x) == y)),
        per_workload_accuracy=per_wl,
        holdout=holdout,
    )
    if holdout is not None:
        held = next(w for w in workloads if w.label == holdout)
        result.holdout_accuracy = _holdout_accuracy(tree, extractor, held)
    return result


def _holdout_accuracy(
    tree: DecisionTree,
    extractor: MappedFeatureExtractor,
    held: UnionWorkload,
) -> float:
    """Accuracy on the held-out workload.

    The mapped extractor's projection is total: features whose signature
    keys the held-out program lacks evaluate to 0 (structurally absent
    constraints are unsatisfied), so the tree always yields a
    prediction for foreign schedules.
    """
    return _accuracy(tree, extractor, held)
