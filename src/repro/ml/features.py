"""Sequence-to-vector feature transformation (paper §IV-B).

"An ordering feature is defined for each pairwise combination of traversal
operations u and v.  This feature is 1 if u appears in the traversal before
v, and 0 otherwise.  Similarly, a stream assignment feature is defined for
each pairwise combination of BoundGPU operations.  This feature is 1 if u
and v occur in the same stream, and 0 otherwise.  Many of these feature
entries will have the same value for all traversals ... Such features are
removed."

Feature naming matches the paper's rule text:

* ordering feature value 1 → "u before v";     value 0 → "v before u"
* stream feature value 1   → "u same stream as v"; value 0 →
  "u different stream than v"
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.dag.vertex import OpKind
from repro.errors import TrainingError
from repro.schedule.schedule import Schedule


@dataclass(frozen=True)
class OrderFeature:
    """Binary feature: 1 iff ``u`` precedes ``v`` in the launch sequence."""

    u: str
    v: str

    def describe(self, value: bool) -> str:
        return f"{self.u} before {self.v}" if value else f"{self.v} before {self.u}"

    @property
    def name(self) -> str:
        return f"order({self.u},{self.v})"


@dataclass(frozen=True)
class StreamFeature:
    """Binary feature: 1 iff GPU ops ``u`` and ``v`` share a stream."""

    u: str
    v: str

    def describe(self, value: bool) -> str:
        if value:
            return f"{self.u} same stream as {self.v}"
        return f"{self.u} different stream than {self.v}"

    @property
    def name(self) -> str:
        return f"stream({self.u},{self.v})"


Feature = object  # OrderFeature | StreamFeature


@dataclass
class FeatureMatrix:
    """Extracted features for a set of schedules."""

    matrix: np.ndarray  # shape (n_schedules, n_features), dtype uint8
    features: List[Feature]

    @property
    def n_features(self) -> int:
        return len(self.features)

    def column(self, feature: Feature) -> np.ndarray:
        return self.matrix[:, self.features.index(feature)]


class FeatureExtractor:
    """Builds feature vectors over a fixed operation vocabulary.

    The vocabulary (which ops exist, which are GPU) is fixed at ``fit``
    time from the schedules' *common* operations, so an extractor fitted
    on a search subset can featurize the full space consistently (needed
    for the Table V generalization experiment).  Constant columns are
    dropped at fit time; ``transform`` reuses the fitted set.
    """

    def __init__(self) -> None:
        self.ops: Tuple[str, ...] = ()
        self.gpu_ops: Tuple[str, ...] = ()
        self.features: List[Feature] = []
        self._fitted = False

    # ------------------------------------------------------------------
    def _set_vocabulary(
        self, template: Schedule, common: frozenset
    ) -> List[Feature]:
        """Fix op order (the template schedule's launch sequence restricted
        to ``common``) and return the pairwise candidate features."""
        self.ops = tuple(n for n in template.op_names() if n in common)
        self.gpu_ops = tuple(
            op.name
            for op in template.ops
            if op.kind is OpKind.GPU and op.name in common
        )
        candidates: List[Feature] = [
            OrderFeature(u, v) for u, v in combinations(self.ops, 2)
        ]
        candidates += [
            StreamFeature(u, v) for u, v in combinations(self.gpu_ops, 2)
        ]
        return candidates

    @staticmethod
    def _varying_columns(full: np.ndarray) -> List[int]:
        """Indices of non-constant columns (the paper drops the rest)."""
        return np.flatnonzero(np.any(full != full[0], axis=0)).tolist()

    def fit(self, schedules: Sequence[Schedule]) -> "FeatureExtractor":
        if not schedules:
            raise TrainingError("cannot fit features on zero schedules")
        common = set(schedules[0].op_names())
        for s in schedules[1:]:
            common &= set(s.op_names())
        candidates = self._set_vocabulary(schedules[0], frozenset(common))
        full = self._raw_matrix(schedules, candidates)
        keep = self._varying_columns(full)
        self.features = [candidates[j] for j in keep]
        self._fitted = True
        return self

    def transform(self, schedules: Sequence[Schedule]) -> FeatureMatrix:
        if not self._fitted:
            raise TrainingError("extractor is not fitted")
        return FeatureMatrix(
            matrix=self._raw_matrix(schedules, self.features),
            features=self.features,
        )

    def fit_transform(self, schedules: Sequence[Schedule]) -> FeatureMatrix:
        return self.fit(schedules).transform(schedules)

    # ------------------------------------------------------------------
    def _raw_matrix(
        self, schedules: Sequence[Schedule], features: Sequence[Feature]
    ) -> np.ndarray:
        """Feature values over op names; every schedule must carry every
        op a feature names."""
        return KeyPositions.of(schedules).matrix(features, strict=True)


class StreamingFeatureFit:
    """Incremental :class:`FeatureExtractor` fit over schedule blocks.

    ``fit_transform`` needs every schedule at once — twice over (once to
    intersect the op vocabulary, once for the matrix) — which defeats
    streaming enumeration.  This accumulator takes the common-op
    vocabulary up front (for an exhaustive walk it is exactly
    :meth:`repro.schedule.space.DesignSpace.all_op_names`: program ops
    plus the always-inserted CER/CES sync ops), consumes blocks one at a
    time, and keeps only the *varying* candidate columns — never the
    schedules, and never the constant columns that dominate the candidate
    matrix (most pairwise candidates are dependency-forced).

    Column compaction is incremental: a candidate column is stored only
    from the first block where it deviates from the reference (first)
    row; earlier blocks' values for it are, by definition of "constant so
    far", exactly the reference value, so ``finish`` backfills them and
    the result stays bit-identical to
    ``FeatureExtractor().fit_transform(all_schedules)`` whenever
    ``common_ops`` matches the schedules' true common-op set.  Peak
    memory is one full-width *block* (not space) plus the varying
    columns of everything seen — the difference between labeling a
    10^7-schedule space and not.
    """

    def __init__(self, common_ops: Sequence[str]) -> None:
        self._common = frozenset(common_ops)
        if not self._common:
            raise TrainingError("cannot fit features on an empty vocabulary")
        self._extractor = FeatureExtractor()
        self._candidates: Optional[List[Feature]] = None
        self._first_row: Optional[np.ndarray] = None
        self._varying: List[int] = []  # ascending candidate indices
        self._varying_set: set = set()
        #: Per-block chunks: (candidate indices stored, their values).
        self._chunks: List[Tuple[Tuple[int, ...], np.ndarray]] = []
        self.n_schedules = 0

    @property
    def n_candidates(self) -> int:
        """Pairwise candidate features before constant-column pruning."""
        return len(self._candidates) if self._candidates is not None else 0

    @property
    def n_varying(self) -> int:
        """Candidate columns seen to vary so far (= final feature count
        once the stream is done)."""
        return len(self._varying)

    def add_block(self, schedules: Sequence[Schedule]) -> None:
        """Featurize one block of schedules against the candidate set.

        The first block's first schedule fixes the op order (its launch
        sequence, restricted to the common vocabulary) exactly as
        :meth:`FeatureExtractor.fit` does with the first schedule of a
        fully materialized set.
        """
        if not schedules:
            return
        if self._candidates is None:
            self._candidates = self._fix_vocabulary(schedules[0])
        block = self._extractor._raw_matrix(schedules, self._candidates)
        if self._first_row is None:
            self._first_row = block[0].copy()
        if len(self._varying) < len(self._candidates):
            deviates = np.nonzero(np.any(block != self._first_row, axis=0))[0]
            new = [int(j) for j in deviates if j not in self._varying_set]
            if new:
                self._varying_set.update(new)
                self._varying = sorted(self._varying_set)
        cols = tuple(self._varying)
        self._chunks.append((cols, block[:, list(cols)]))
        self.n_schedules += len(schedules)

    def finish(self) -> Tuple[FeatureExtractor, FeatureMatrix]:
        """Drop constant columns and seal the extractor."""
        if self._candidates is None or not self.n_schedules:
            raise TrainingError("cannot fit features on zero schedules")
        keep = self._varying
        self._extractor.features = [self._candidates[j] for j in keep]
        self._extractor._fitted = True
        full = np.empty((self.n_schedules, len(keep)), dtype=np.uint8)
        col_pos = {j: p for p, j in enumerate(keep)}
        row = 0
        for cols, mat in self._chunks:
            n = mat.shape[0]
            # Columns this chunk predates were still constant then: their
            # values are the reference row's, backfilled by broadcast.
            full[row : row + n] = self._first_row[keep]
            for local, j in enumerate(cols):
                full[row : row + n, col_pos[j]] = mat[:, local]
            row += n
        return self._extractor, FeatureMatrix(
            matrix=full, features=list(self._extractor.features)
        )

    # ------------------------------------------------------------------
    def _fix_vocabulary(self, template: Schedule) -> List[Feature]:
        missing = self._common - set(template.op_names())
        if missing:
            raise TrainingError(
                f"template schedule lacks common ops: {sorted(missing)}"
            )
        return self._extractor._set_vocabulary(template, self._common)


#: Schedule op name -> canonical key; ``None``/absent ops do not
#: participate in mapped features.
KeyMapping = Mapping[str, Optional[str]]


#: Bound an absent key's positions take: beyond any launch position.
_FAR = np.iinfo(np.int32).max
#: Stream of a key that has no GPU op in a schedule, or GPU ops on
#: several streams: equal to no real stream.
_NO_STREAM = -_FAR


def _extremes(
    shape: Tuple[int, int], rows: np.ndarray, cols: np.ndarray, values: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-cell min and max of ``values``; empty cells read (_FAR, -_FAR)."""
    lo = np.full(shape, _FAR, dtype=np.int32)
    hi = np.full(shape, -_FAR, dtype=np.int32)
    np.minimum.at(lo, (rows, cols), values)
    np.maximum.at(hi, (rows, cols), values)
    return lo, hi


@dataclass(frozen=True)
class KeyPositions:
    """Where each op key sits in each schedule of one set.

    Every feature of the set is a gather over these arrays:

    * ``u`` before ``v`` iff ``last[u] < first[v]`` (every ``u``-key op
      launches before every ``v``-key op);
    * ``u`` same stream as ``v`` iff ``stream[u] == stream[v]``, where a
      key's ``stream`` is the one stream all its GPU ops sit on.

    Columns follow ``keys`` (``gpu_keys`` for ``stream``), plus one
    trailing column no schedule fills, which stands for every key the set
    never has.  A key a schedule lacks reads ``first=-_FAR, last=_FAR``
    and ``stream=_NO_STREAM``, so no feature over it holds there.
    """

    keys: Dict[str, int]
    gpu_keys: Dict[str, int]
    first: np.ndarray
    last: np.ndarray
    stream: np.ndarray

    @classmethod
    def of(
        cls, schedules: Sequence[Schedule], mapping: Optional[KeyMapping] = None
    ) -> "KeyPositions":
        """Arrays of ``schedules`` under ``mapping`` (op name -> key; ops
        it maps to ``None`` or lacks are left out).  Without a mapping
        every op is keyed by its own name.  An op name stands for one
        operation throughout the set, so whether it runs on the GPU is
        read once per name."""
        spans = [s.key for s in schedules]
        lengths = np.array([len(span) for span in spans], dtype=np.intp)
        names = [op[0] for span in spans for op in span]
        rows = np.repeat(np.arange(len(spans), dtype=np.int32), lengths)
        positions = np.arange(len(names), dtype=np.int32) - np.repeat(
            (np.cumsum(lengths) - lengths).astype(np.int32), lengths
        )
        # Each distinct name, at its first occurrence (reversed, so the
        # earliest index is written last).
        first_seen = dict(zip(reversed(names), range(len(names) - 1, -1, -1)))
        name_ids = {name: j for j, name in enumerate(first_seen)}
        key_col = np.full(len(name_ids), -1, dtype=np.int32)
        gpu_col = np.full(len(name_ids), -1, dtype=np.int32)
        keys: Dict[str, int] = {}
        gpu_keys: Dict[str, int] = {}
        for name, i in first_seen.items():
            key = name if mapping is None else mapping.get(name)
            if key is None:
                continue
            key_col[name_ids[name]] = keys.setdefault(key, len(keys))
            if schedules[rows[i]].ops[positions[i]].kind is OpKind.GPU:
                gpu_col[name_ids[name]] = gpu_keys.setdefault(key, len(gpu_keys))
        ids = np.fromiter(
            (name_ids[name] for name in names), dtype=np.int32, count=len(names)
        )
        del names
        cols = key_col[ids]
        on = cols >= 0
        first, last = _extremes(
            (len(spans), len(keys) + 1), rows[on], cols[on], positions[on]
        )
        absent = last < first
        first[absent], last[absent] = -_FAR, _FAR
        streams = np.fromiter(
            (-1 if op[1] is None else op[1] for span in spans for op in span),
            dtype=np.int32,
            count=len(ids),
        )
        cols = gpu_col[ids]
        on = cols >= 0
        lo, hi = _extremes(
            (len(spans), len(gpu_keys) + 1), rows[on], cols[on], streams[on]
        )
        stream = np.where(lo == hi, lo, _NO_STREAM).astype(np.int32)
        return cls(keys, gpu_keys, first, last, stream)

    @property
    def n_schedules(self) -> int:
        return len(self.first)

    def matrix(
        self, features: Sequence[Feature], *, strict: bool = False
    ) -> np.ndarray:
        """(n_schedules, n_features) uint8 values of ``features``.

        With ``strict``, a feature over a key some schedule lacks (for a
        stream feature: has on no single stream) raises instead of
        reading 0.
        """
        order = [j for j, f in enumerate(features) if isinstance(f, OrderFeature)]
        stream = [j for j, f in enumerate(features) if isinstance(f, StreamFeature)]
        out = np.zeros((self.n_schedules, len(features)), dtype=np.uint8)
        complete = np.ones(len(features), dtype=bool)

        def columns(index: Dict[str, int], picked: List[int], side: str) -> List[int]:
            return [index.get(getattr(features[j], side), len(index)) for j in picked]

        if order:
            u = columns(self.keys, order, "u")
            v = columns(self.keys, order, "v")
            out[:, order] = self.last[:, u] < self.first[:, v]
            if strict:
                everywhere = np.all(self.first >= 0, axis=0)
                complete[order] = everywhere[u] & everywhere[v]
        if stream:
            u = columns(self.gpu_keys, stream, "u")
            v = columns(self.gpu_keys, stream, "v")
            su = self.stream[:, u]
            out[:, stream] = (su == self.stream[:, v]) & (su != _NO_STREAM)
            if strict:
                everywhere = np.all(self.stream != _NO_STREAM, axis=0)
                complete[stream] = everywhere[u] & everywhere[v]
        if not complete.all():
            lacking = features[int(np.flatnonzero(~complete)[0])]
            raise TrainingError(f"schedule missing op for feature {lacking}")
        return out


class MappedFeatureExtractor:
    """Feature extraction over canonical op *keys* instead of raw names.

    The base :class:`FeatureExtractor` identifies operations by name,
    which confines a feature space to a single program.  This extractor
    takes, alongside each schedule set, a name→key mapping (typically
    structural signature keys from
    :func:`repro.transfer.signature.program_signatures`) and builds the
    pairwise features over keys shared by at least ``min_sets`` tagged
    sets — one canonical feature space several programs project into.
    Requiring two sets (the default) grounds every feature in transfer:
    some *other* program can express it too; strict intersection across
    all sets would leave nothing when even one comm-free workload joins
    a union of communication patterns.

    Several ops of one schedule may share a key; features quantify
    universally, matching rule evaluation in :mod:`repro.rules.score`:
    an ordering feature is 1 iff every ``u``-key op launches before every
    ``v``-key op, and a stream feature is 1 iff all cross pairs share a
    stream.  A feature whose keys a schedule lacks evaluates to 0 there —
    a constraint about structure a program does not have is unsatisfied,
    not an error — which also makes held-out-workload projection total.
    """

    def __init__(self) -> None:
        self.keys: Tuple[str, ...] = ()
        self.gpu_keys: Tuple[str, ...] = ()
        self.features: List[Feature] = []
        self._fitted = False

    # ------------------------------------------------------------------
    def fit(
        self,
        tagged: Sequence[Tuple[Sequence[Schedule], KeyMapping]],
        *,
        min_sets: Optional[int] = None,
    ) -> "MappedFeatureExtractor":
        """Fix the key vocabulary and feature set from several schedule
        sets, each with its own name→key mapping.

        A key enters the vocabulary when it appears (in some schedule)
        in at least ``min_sets`` sets — default ``min(2, len(tagged))``.
        Constant columns over the concatenated sets are dropped.
        """
        return self.fit_positions(
            [KeyPositions.of(schedules, mapping) for schedules, mapping in tagged],
            min_sets=min_sets,
        )

    def fit_positions(
        self, sets: Sequence[KeyPositions], *, min_sets: Optional[int] = None
    ) -> "MappedFeatureExtractor":
        """:meth:`fit` over sets whose :class:`KeyPositions` are built."""
        if not any(kp.n_schedules for kp in sets):
            raise TrainingError("cannot fit mapped features on zero schedules")
        if min_sets is None:
            min_sets = min(2, len(sets))
        seen_in = Counter(key for kp in sets for key in kp.keys)
        gpu_seen_in = Counter(key for kp in sets for key in kp.gpu_keys)
        self.keys = tuple(
            sorted(k for k, n in seen_in.items() if n >= min_sets)
        )
        self.gpu_keys = tuple(
            sorted(k for k, n in gpu_seen_in.items() if n >= min_sets)
        )
        candidates: List[Feature] = [
            OrderFeature(u, v) for u, v in combinations(self.keys, 2)
        ]
        candidates += [
            StreamFeature(u, v) for u, v in combinations(self.gpu_keys, 2)
        ]
        full = np.concatenate(
            [kp.matrix(candidates) for kp in sets if kp.n_schedules], axis=0
        )
        keep = FeatureExtractor._varying_columns(full)
        self.features = [candidates[j] for j in keep]
        self._fitted = True
        return self

    def transform(
        self, schedules: Sequence[Schedule], mapping: KeyMapping
    ) -> FeatureMatrix:
        return self.transform_positions(KeyPositions.of(schedules, mapping))

    def transform_positions(self, positions: KeyPositions) -> FeatureMatrix:
        """:meth:`transform` of a set whose :class:`KeyPositions` are built."""
        if not self._fitted:
            raise TrainingError("extractor is not fitted")
        return FeatureMatrix(
            matrix=positions.matrix(self.features), features=self.features
        )
