"""Output digests and the golden table they are checked against.

The digests condense each workload's user-visible output:

* a search result: sha256 over ``fingerprint:time!r;`` per sample, in
  order -- the ``samples_digest`` that ``repro search --json`` prints;
* an artifact store: sha256 over every file, sorted by name, name and
  bytes both;
* a recommendation: its status and the schedule fingerprint.

``goldens.json`` holds the digests recorded for the seeds listed there.
A seed with a golden entry is checked digest by digest; every seed is
also checked against the invariants each workload asserts itself.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, List, Optional

GOLDENS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "goldens.json")


def samples_digest(result) -> str:
    digest = hashlib.sha256()
    for sample in result.samples:
        digest.update(f"{sample.schedule.fingerprint()}:{sample.time!r};".encode())
    return digest.hexdigest()


def store_digest(root: str) -> str:
    digest = hashlib.sha256()
    for name in sorted(os.listdir(root)):
        with open(os.path.join(root, name), "rb") as fh:
            data = fh.read()
        digest.update(name.encode() + b"\0" + data + b"\0")
    return digest.hexdigest()


def recommendation_digest(rec) -> str:
    fingerprint = rec.schedule.fingerprint() if rec.schedule is not None else "-"
    return f"{rec.status}:{fingerprint[:16]}"


def load_goldens() -> Dict[str, Dict[str, Dict[str, object]]]:
    with open(GOLDENS_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def golden_for(workload: str, seed: int) -> Optional[Dict[str, object]]:
    return load_goldens().get(workload, {}).get(str(seed))


def mismatches(outputs: Dict[str, object], golden: Optional[Dict[str, object]]) -> List[str]:
    """Names of the checked outputs whose digest differs from the golden.

    ``outputs`` maps an output name to its digest, or to a list of
    digests (one checked output each).  Without a golden nothing is
    flagged here; the workload's invariant checks still apply.
    """
    if golden is None:
        return []
    bad: List[str] = []
    for name, value in outputs.items():
        want = golden.get(name)
        if isinstance(value, list):
            want = want if isinstance(want, list) else []
            bad.extend(
                f"{name}[{i}]"
                for i, got in enumerate(value)
                if i >= len(want) or want[i] != got
            )
        elif want != value:
            bad.append(name)
    return bad


def n_checked(outputs: Dict[str, object]) -> int:
    return sum(len(v) if isinstance(v, list) else 1 for v in outputs.values())
