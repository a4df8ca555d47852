"""Compiled batch simulation backend.

The reference engine (:mod:`repro.sim.engine` + :class:`ScheduleExecutor`)
re-instantiates a discrete-event loop — one Python generator per op and
per stream — for every single schedule it simulates, even though the
program DAG, machine preset, and measurement protocol are fixed for an
entire sweep.  This module compiles that fixed ``(program, machine,
MeasurementConfig)`` context **once** into flat structure-of-arrays form
and then replays whole schedule blocks through an array sweep: one numpy
operation per schedule position, vectorized over the batch dimension and
the rank dimension.  Ranks are an array axis because MPI ranks advance
column by column together: a rank's wait at position ``i`` depends only
on what every rank did before position ``i``.

Bit-identity contract
---------------------

Replayed measurements are bit-identical to the reference engine, not
merely close.  Within one rank the engine's timing arithmetic reduces to
IEEE-exact ``(+, max)`` recurrences over a small state vector — the CPU
clock ``t``, per-stream clocks, and per-event fire times:

* CPU op           ``t += dur``
* GPU op           ``t += launch; clock[s] = max(clock[s], t) + kdur``
* event record     ``t += dur; p = max(clock[s], t); ev[e] = p;``
                   ``clock[s] = p``
* event sync       ``t += dur; t = max(t, ev[e])``
* stream wait      ``t += dur; clock[s] = max(clock[s], t, ev[e]) +``
                   ``cross_gpu_extra`` (other-device events only)
* program end      ``finish = max(t, max_s clock[s], done[m] for the``
                   ``rank's messages m)``  (device sync + pending requests)

MPI actions add per-message post times and transfer end times:

* post             ``t += post_cost[m]; p[m] = t`` one message at a time,
                   in ``sends_from`` / ``recvs_to`` order
* transfer         ``begin = max(ready, send_free[src], recv_free[dst])``,
                   ``end[m] = begin + wire[m]``, both channels' free time
                   becomes ``end[m]``; ``ready`` is the send's post time
                   (eager) or the later of both posts (rendezvous)
* wait             ``t += dur + wait_overhead; t = max(t, end[m])`` over
                   the group's messages the rank sent (or received)

These are insensitive to event-loop tie ordering with one exception: a
NIC channel serializes transfers in the order the engine reaches their
ready times.  Replay runs each column's transfers in ascending ready time
per row and flags a row whenever a channel sees a ready time ``<=`` the
one before it; only then could the engine's order differ from replay's,
so unflagged rows are exact and flagged rows are re-run on the reference
engine.  With ``serialize_nic=False`` there are no channels and nothing
is flagged.  Noise is a pure function of ``(seed, sample, key)`` —
schedule independent — so jittered duration, post-cost and wire tables
are precomputed per sample and shared by every schedule in the block.

What falls back
---------------

Replay covers every program the design spaces produce, MPI programs
included.  Three things go to the reference engine, transparently and
counted in ``sim.fallbacks``:

* rows whose NIC-channel order replay cannot prove (the flag above) —
  decided per sample at replay time, so typically only noiseless runs
  of SPMD-symmetric programs, where ranks reach a channel at the same
  instant;
* malformed schedules — an event used before (or without) being
  recorded or recorded twice, unknown ops, out-of-range streams,
  START/END vertices, an MPI wait before either post of its group, a
  group posted twice or not posted at all, or two groups sharing a
  message key posted in contradicting orders.  The per-schedule
  :meth:`CompiledContext.supports` check rejects them, so the reference
  engine keeps its error behaviour;
* contexts that do not compile (``ok=False``): a rank-count mismatch,
  a comm group without exactly one ``post_sends`` and one
  ``post_recvs`` vertex or with a message outside the rank range, or a
  network whose wire time comes out negative.

Trace collection and payload execution are reference-engine features;
:func:`resolve_backend` sends such evaluators to it and counts the
decision in ``sim.resolved_reference``.  ``ActionKind.NOOP`` actions
have zero timing effect and stay on the batch path.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import obs
from repro.dag.program import Program
from repro.dag.vertex import ActionKind, OpKind
from repro.platform.costs import CostModel
from repro.platform.machine import MachineConfig, Protocol
from repro.schedule.schedule import Schedule
from repro.sim.measure import Benchmarker, Measurement, MeasurementConfig

#: Backend names accepted by the exec layer's ``sim_backend`` knob.
SIM_BACKENDS = ("reference", "batch", "auto")

_CPU = 0
_GPU = 1
_RECORD = 2
_SYNC = 3
_WAIT = 4
#: CPU op carrying an MPI action; packed apart from plain CPU ops so the
#: replay plan can group its rows by vertex.  In plan steps ``_MPI`` is a
#: post and ``_MWAIT`` a wait.
_MPI = 5
_MWAIT = 6

_KIND_CODE = {
    OpKind.CPU: _CPU,
    OpKind.GPU: _GPU,
    OpKind.EVENT_RECORD: _RECORD,
    OpKind.EVENT_SYNC: _SYNC,
    OpKind.STREAM_WAIT: _WAIT,
}

_POSTS = (ActionKind.POST_SENDS, ActionKind.POST_RECVS)

_N_COMPILES = 0


def compile_count() -> int:
    """Process-global number of :func:`compile_context` calls (test hook)."""
    return _N_COMPILES


def _padded(lists: Sequence[Sequence[int]], fill: int) -> np.ndarray:
    """Ragged index lists as one ``[len(lists), K]`` array padded by ``fill``."""
    width = max(1, max(len(x) for x in lists))
    out = np.full((len(lists), width), fill, dtype=np.int64)
    for r, xs in enumerate(lists):
        out[r, : len(xs)] = xs
    return out


class _Comm:
    """The MPI side of a program, flattened to per-message arrays.

    Messages are numbered group by group in plan order.  ``slots`` lists,
    per post vertex, the messages each rank posts as ``(ranks, msgs)``
    pairs — slot ``j`` holds every rank's ``j``-th message — so posting
    is one vectorized step per slot while each rank still adds its post
    costs one message at a time.  ``occ`` holds the transfers a post
    starts: eager sends at the send post, rendezvous pairs at whichever
    post of the group comes second.  Index arrays over messages use
    ``n_msgs`` as a sentinel column whose end time is ``-inf``.
    """

    def __init__(self, program: Program, machine: MachineConfig, vertices) -> None:
        self.reason = ""
        #: vertex index -> (action kind, group index); non-NOOP actions only.
        self.action: Dict[int, Tuple[ActionKind, int]] = {}
        #: vertex name -> (action kind, group name), for schedule checks.
        self.by_name: Dict[str, Tuple[ActionKind, str]] = {}
        self.groups: List[str] = []
        posts: Dict[Tuple[str, ActionKind], List[int]] = {}
        for j, v in enumerate(vertices):
            a = v.action
            if a is None or a.kind is ActionKind.NOOP:
                continue
            if a.group not in self.groups:
                self.groups.append(a.group)
            self.action[j] = (a.kind, self.groups.index(a.group))
            self.by_name[v.name] = (a.kind, a.group)
            if a.kind in _POSTS:
                posts.setdefault((a.group, a.kind), []).append(j)
        post_name: Dict[Tuple[int, ActionKind], str] = {}
        for gi, g in enumerate(self.groups):
            for kind in _POSTS:
                found = posts.get((g, kind), [])
                if len(found) != 1:
                    self.reason = f"comm-posts:{g}"
                    return
                post_name[(gi, kind)] = vertices[found[0]].name

        n_ranks = machine.n_ranks
        net = machine.net
        self.serialize = net.serialize_nic
        msgs = []
        group_of: List[int] = []
        for gi, g in enumerate(self.groups):
            for m in program.comm_plan(g).messages:
                if not (0 <= m.src < n_ranks and 0 <= m.dst < n_ranks):
                    self.reason = f"comm-rank:{g}"
                    return
                msgs.append(m)
                group_of.append(gi)
        n_msgs = len(msgs)
        self.n_msgs = n_msgs
        self.src = np.array([m.src for m in msgs], dtype=np.int64)
        self.dst = np.array([m.dst for m in msgs], dtype=np.int64)
        # Jitter keys exactly as the engine forms them: the wire per
        # (src, dst, tag), each post per (rank, post vertex, peer).
        self.wire_base = [net.transfer_time(m.nbytes) for m in msgs]
        self.wire_keys = [("xfer", m.src, m.dst, m.tag) for m in msgs]
        self.post_keys = [
            [
                (m.src, post_name[(gi, _POSTS[0])], m.dst)
                for m, gi in zip(msgs, group_of)
            ],
            [
                (m.dst, post_name[(gi, _POSTS[1])], m.src)
                for m, gi in zip(msgs, group_of)
            ],
        ]
        if min(self.wire_base, default=0.0) < 0:
            # Replay takes a transfer to end no earlier than it started.
            self.reason = "negative-wire"
            return
        # mine[side][g][r]: the messages of group g that rank r posts as
        # sender (side 0) or receiver (side 1), in sends_from / recvs_to
        # order.
        mine = [
            [[[] for _ in range(n_ranks)] for _ in self.groups] for _ in _POSTS
        ]
        eager: List[List[int]] = [[] for _ in self.groups]
        rdv: List[List[int]] = [[] for _ in self.groups]
        for k, (m, gi) in enumerate(zip(msgs, group_of)):
            mine[0][gi][m.src].append(k)
            mine[1][gi][m.dst].append(k)
            if net.is_eager(m.nbytes) or net.protocol is Protocol.EAGER:
                eager[gi].append(k)
            else:
                rdv[gi].append(k)
        self.slots: Dict[int, list] = {}
        self.wait_idx: Dict[int, np.ndarray] = {}
        for j, (kind, gi) in self.action.items():
            sends = kind in (ActionKind.POST_SENDS, ActionKind.WAIT_SENDS)
            per_rank = mine[0 if sends else 1][gi]
            if kind not in _POSTS:
                self.wait_idx[j] = _padded(per_rank, n_msgs)
                continue
            self.slots[j] = [
                (
                    np.array([r for r, xs in enumerate(per_rank) if len(xs) > d]),
                    np.array([xs[d] for xs in per_rank if len(xs) > d]),
                )
                for d in range(max(len(xs) for xs in per_rank))
            ]
        # (group, post kind, other post already done) -> (messages,
        # how many of them lead as eager sends), or None for no transfer.
        self.occ: Dict[tuple, Optional[Tuple[np.ndarray, int]]] = {}
        for gi in range(len(self.groups)):
            for kind, second, occ, n_eager in (
                (ActionKind.POST_SENDS, False, eager[gi], len(eager[gi])),
                (ActionKind.POST_SENDS, True, eager[gi] + rdv[gi], len(eager[gi])),
                (ActionKind.POST_RECVS, False, [], 0),
                (ActionKind.POST_RECVS, True, rdv[gi], 0),
            ):
                self.occ[(gi, kind, second)] = (
                    (np.array(occ, dtype=np.int64), n_eager) if occ else None
                )
        self.fin_idx = _padded(
            [
                [k for side in mine for per_rank in side for k in per_rank[r]]
                for r in range(n_ranks)
            ],
            n_msgs,
        )
        # MPI matches sends to receives per (src, dst, tag) in posting
        # order.  Two groups sharing a key match within their own group
        # only when both ranks post them in the same group order.
        owners: Dict[Tuple[int, int, int], set] = {}
        for m, gi in zip(msgs, group_of):
            owners.setdefault((m.src, m.dst, m.tag), set()).add(gi)
        self.shared = sorted(
            {
                (a, b)
                for gs in owners.values()
                for a in gs
                for b in gs
                if a < b
            }
        )


class _Pack:
    """One schedule block packed to ``[B, L]`` arrays in position order.

    ``vid`` indexes the compiled per-sample duration tables and is only
    meaningful for program (CPU/GPU) ops; sync ops — typically inserted
    by the design space's sync plan, so not program vertices at all —
    carry their rank- and sample-independent call overhead directly in
    ``dur``.  ``xs`` is, for a stream wait, the stream that recorded its
    event, and ``post_col[b, g, side]`` the position of group ``g``'s
    ``post_sends`` (side 0) / ``post_recvs`` (side 1) in row ``b``.  Rows
    shorter than ``L`` are padded with kind ``-1`` (never the case for
    schedules of one design space, but packing stays defensive).
    """

    __slots__ = ("kind", "vid", "sid", "eid", "dur", "xs", "post_col", "n_events")

    def __init__(self, kind, vid, sid, eid, dur, xs, post_col, n_events) -> None:
        self.kind = kind
        self.vid = vid
        self.sid = sid
        self.eid = eid
        self.dur = dur
        self.xs = xs
        self.post_col = post_col
        self.n_events = n_events


class _Plan:
    """A pack's per-column row selections for one set of active rows.

    Steps are ``(code, rows, ...)`` tuples in column order; within a
    column every row appears in exactly one step, so step order inside
    a column is free.  The selections depend only on the pack and the
    active rows, so one plan serves every sample those rows replay.
    """

    __slots__ = ("steps", "n_rows", "n_events")

    def __init__(self, steps: list, n_rows: int, n_events: int) -> None:
        self.steps = steps
        self.n_rows = n_rows
        self.n_events = n_events


class CompiledContext:
    """A ``(program, machine, MeasurementConfig)`` context compiled for replay.

    Construction is cheap relative to one simulation sweep but not free;
    build it once per process (see ``SerialEvaluator`` /
    ``ParallelEvaluator``) and reuse it across blocks.  ``ok`` is the
    compile-time capability verdict; when ``False``, ``reason`` names the
    unsupported feature and :meth:`supports` rejects every schedule.
    """

    def __init__(
        self,
        program: Program,
        machine: MachineConfig,
        config: MeasurementConfig = MeasurementConfig(),
        *,
        sample_offset: int = 0,
    ) -> None:
        self.program = program
        self.machine = machine
        self.config = config
        self.sample_offset = sample_offset
        self.n_ranks = machine.n_ranks
        self.n_streams = machine.n_streams
        self.n_gpus = machine.n_gpus
        self._noise = machine.noise
        cross = machine.gpu.cross_gpu_sync_extra_s
        # The engine only pays the penalty when it is strictly positive.
        self._cross_extra = cross if cross > 0 else 0.0
        self._sync_dur = {
            _RECORD: machine.gpu.event_record_s,
            _SYNC: machine.gpu.event_sync_overhead_s,
            _WAIT: machine.gpu.stream_wait_overhead_s,
        }
        wait = machine.cpu.wait_overhead_s
        self._wait_overhead = wait if wait > 0 else 0.0

        self._vertices = tuple(program.schedulable_vertices())
        self._by_name = {v.name: v for v in self._vertices}
        self._vid = {v.name: j for j, v in enumerate(self._vertices)}

        self.ok = True
        self.reason = ""
        self._comm: Optional[_Comm] = None
        if program.n_ranks != machine.n_ranks:
            self.ok = False
            self.reason = "rank-mismatch"
        else:
            comm = _Comm(program, machine, self._vertices)
            if comm.reason:
                self.ok = False
                self.reason = comm.reason
            elif comm.groups:
                self._comm = comm

        cost = CostModel(machine)
        self._launch = cost.launch_overhead()
        self._post_cost = cost.post_message_cost()
        n_v = len(self._vertices)
        self._base = np.zeros((n_v, self.n_ranks))
        if self.ok:
            for r in range(self.n_ranks):
                for j, v in enumerate(self._vertices):
                    self._base[j, r] = cost.base_duration(program, v, r)
        # Per-sample jittered tables, built on first use: adv = CPU-side
        # advance of each op (CPU duration / GPU launch / sync-call
        # overhead), kdur = GPU kernel duration, both [vertex, rank];
        # wire and post cost per message.  Noise keys are schedule-
        # independent, so one table per absolute sample index serves
        # every schedule.
        self._tables: Dict[Optional[int], tuple] = {}

    # ------------------------------------------------------------------
    def unsupported_reason(self, schedule: Schedule) -> Optional[str]:
        """Why ``schedule`` cannot be replayed, or ``None`` if it can.

        Beyond the compile-time verdict this enforces the single-forward-
        sweep requirement (every event recorded, and every MPI group
        posted on both sides, at an earlier schedule position than its
        uses) and rejects exactly the degenerate schedules the reference
        engine errors or deadlocks on, so the fallback path preserves
        reference behaviour.
        """
        if not self.ok:
            return self.reason
        comm = self._comm
        recorded = set()
        posted: Dict[Tuple[str, ActionKind], int] = {}
        for i, op in enumerate(schedule.ops):
            code = _KIND_CODE.get(op.vertex.kind)
            if code is None:
                return f"op-kind:{op.vertex.kind.value}"
            known = self._by_name.get(op.name)
            if known is not None:
                if known != op.vertex:
                    return f"op-mismatch:{op.name}"
            elif code in (_CPU, _GPU):
                # Program ops must come from the compiled program; sync
                # ops are inserted by the design space and priced from
                # machine scalars alone.
                return f"unknown-op:{op.name}"
            if op.stream is not None and not 0 <= op.stream < self.n_streams:
                return f"stream-out-of-range:{op.stream}"
            if code == _RECORD:
                if op.event in recorded:
                    return f"event-rerecord:{op.event}"
                recorded.add(op.event)
            elif code in (_SYNC, _WAIT) and op.event not in recorded:
                return f"event-before-record:{op.event}"
            elif comm is not None and op.name in comm.by_name:
                kind, group = comm.by_name[op.name]
                if kind in _POSTS:
                    if (group, kind) in posted:
                        return f"repost:{group}"
                    posted[(group, kind)] = i
                elif any((group, k) not in posted for k in _POSTS):
                    return f"wait-before-post:{group}"
        if comm is not None:
            for group in comm.groups:
                if any((group, k) not in posted for k in _POSTS):
                    return f"missing-post:{group}"
            for a, b in comm.shared:
                ga, gb = comm.groups[a], comm.groups[b]
                sends_first = posted[(ga, _POSTS[0])] < posted[(gb, _POSTS[0])]
                recvs_first = posted[(ga, _POSTS[1])] < posted[(gb, _POSTS[1])]
                if sends_first != recvs_first:
                    return f"match-order:{ga}/{gb}"
        return None

    def supports(self, schedule: Schedule) -> bool:
        return self.unsupported_reason(schedule) is None

    # ------------------------------------------------------------------
    def _pack(self, schedules: Sequence[Schedule]) -> _Pack:
        n_rows = len(schedules)
        n_cols = max(len(s) for s in schedules)
        kind = np.full((n_rows, n_cols), -1, dtype=np.int64)
        vid = np.zeros((n_rows, n_cols), dtype=np.int64)
        sid = np.zeros((n_rows, n_cols), dtype=np.int64)
        eid = np.zeros((n_rows, n_cols), dtype=np.int64)
        xs = np.zeros((n_rows, n_cols), dtype=np.int64)
        dur = np.zeros((n_rows, n_cols))
        comm = self._comm
        post_col = None
        if comm is not None:
            post_col = np.zeros((n_rows, len(comm.groups), 2), dtype=np.int64)
        events: Dict[str, int] = {}
        for b, s in enumerate(schedules):
            rec_stream: Dict[str, int] = {}
            for i, op in enumerate(s.ops):
                code = _KIND_CODE[op.vertex.kind]
                if code in (_CPU, _GPU):
                    j = self._vid[op.name]
                    vid[b, i] = j
                    if comm is not None and j in comm.action:
                        code = _MPI
                        a_kind, gi = comm.action[j]
                        if a_kind in _POSTS:
                            post_col[b, gi, _POSTS.index(a_kind)] = i
                else:
                    d = op.vertex.duration
                    if d is None:
                        d = self._sync_dur[code]
                    # Engine advances on strictly positive durations only.
                    dur[b, i] = d if d > 0 else 0.0
                    if code == _RECORD:
                        rec_stream[op.event] = op.stream
                    elif code == _WAIT:
                        xs[b, i] = rec_stream[op.event]
                kind[b, i] = code
                if op.stream is not None:
                    sid[b, i] = op.stream
                if op.event is not None:
                    eid[b, i] = events.setdefault(op.event, len(events))
        return _Pack(kind, vid, sid, eid, dur, xs, post_col, max(len(events), 1))

    def _plan(self, pack: _Pack, rows: np.ndarray) -> _Plan:
        kind = pack.kind[rows]
        vid = pack.vid[rows]
        sid = pack.sid[rows]
        eid = pack.eid[rows]
        dur = pack.dur[rows]
        comm = self._comm
        post_col = pack.post_col[rows] if comm is not None else None
        cross = self.n_gpus > 1 and self._cross_extra > 0
        steps: list = []
        n_rows, n_cols = kind.shape
        for i in range(n_cols):
            k = kind[:, i]
            present = np.bincount(k + 1, minlength=_MPI + 2)
            for code in np.nonzero(present[1:])[0]:
                sel = np.nonzero(k == code)[0]
                if code == _CPU:
                    steps.append((_CPU, sel, vid[sel, i]))
                elif code == _GPU:
                    steps.append((_GPU, sel, vid[sel, i], sid[sel, i]))
                elif code == _MPI:
                    self._plan_mpi(steps, sel, vid[sel, i], post_col, i)
                else:
                    d = dur[sel, i][:, None]
                    s = sid[sel, i]
                    e = eid[sel, i]
                    if code == _RECORD:
                        steps.append((_RECORD, sel, d, s, e))
                    elif code == _SYNC:
                        steps.append((_SYNC, sel, d, e))
                    else:
                        extra = None
                        if cross:
                            src = pack.xs[rows[sel], i]
                            extra = np.where(
                                src % self.n_gpus != s % self.n_gpus,
                                self._cross_extra,
                                0.0,
                            )[:, None]
                        steps.append((_WAIT, sel, d, s, e, extra))
        return _Plan(steps, n_rows, pack.n_events)

    def _plan_mpi(
        self,
        steps: list,
        sel: np.ndarray,
        vids: np.ndarray,
        post_col: np.ndarray,
        col: int,
    ) -> None:
        comm = self._comm
        for j in np.unique(vids):
            rows = sel[vids == j]
            a_kind, gi = comm.action[int(j)]
            if a_kind not in _POSTS:
                steps.append((_MWAIT, rows, int(j), comm.wait_idx[int(j)]))
                continue
            side = _POSTS.index(a_kind)
            second = post_col[rows, gi, 1 - side] < col
            for flag in (False, True):
                part = rows[second == flag]
                if part.size:
                    occ = comm.occ[(gi, a_kind, flag)]
                    steps.append((_MPI, part, int(j), side, comm.slots[int(j)], occ))

    def _sample_tables(self, sample: int) -> tuple:
        key: Optional[int] = sample if self._noise.enabled else None
        tables = self._tables.get(key)
        if tables is None:
            noise = self._noise
            adv = np.zeros_like(self._base)
            kdur = np.zeros_like(self._base)
            for r in range(self.n_ranks):
                for j, v in enumerate(self._vertices):
                    base = self._base[j, r]
                    if v.kind is OpKind.CPU:
                        adv[j, r] = noise.jitter(base, sample, r, v.name)
                    elif v.kind is OpKind.GPU:
                        adv[j, r] = noise.jitter(
                            self._launch, sample, r, v.name, "launch"
                        )
                        kdur[j, r] = noise.jitter(base, sample, r, v.name)
                    else:
                        adv[j, r] = base  # sync-call overheads: no jitter
            # The engine advances only on strictly positive durations;
            # clamping keeps a (pathological) negative explicit duration
            # from advancing time backwards.
            tables = (np.maximum(adv, 0.0), np.maximum(kdur, 0.0), None, None)
            comm = self._comm
            if comm is not None:
                wire = [
                    noise.jitter(base, sample, *key)
                    for base, key in zip(comm.wire_base, comm.wire_keys)
                ]
                post = [
                    [noise.jitter(self._post_cost, sample, *k) for k in keys]
                    for keys in comm.post_keys
                ]
                tables = tables[:2] + (np.array(wire), np.maximum(post, 0.0))
            self._tables[key] = tables
        return tables

    def _replay(self, plan: _Plan, sample: int) -> Tuple[np.ndarray, np.ndarray]:
        """Per-rank finish times ``[rows, n_ranks]`` and the rows whose
        NIC-channel order replay could not prove (see module docstring)."""
        adv, kdur, wire, post = self._sample_tables(sample)
        n = plan.n_rows
        t = np.zeros((n, self.n_ranks))
        clock = np.zeros((n, self.n_streams, self.n_ranks))
        ev = np.zeros((n, plan.n_events, self.n_ranks))
        flagged = np.zeros(n, dtype=bool)
        comm = self._comm
        if comm is not None:
            posted = np.zeros((2, n, comm.n_msgs))
            # end[:, n_msgs] is the sentinel the padded index arrays hit.
            end = np.full((n, comm.n_msgs + 1), -np.inf)
            free = np.zeros((2, n, self.n_ranks))
            last = np.full((2, n, self.n_ranks), -np.inf)
        for step in plan.steps:
            code = step[0]
            sel = step[1]
            if code == _CPU:
                t[sel] += adv[step[2]]
            elif code == _GPU:
                _, _, v, s = step
                tt = t[sel] + adv[v]
                t[sel] = tt
                clock[sel, s] = np.maximum(clock[sel, s], tt) + kdur[v]
            elif code == _RECORD:
                _, _, d, s, e = step
                tt = t[sel] + d
                t[sel] = tt
                proc = np.maximum(clock[sel, s], tt)
                ev[sel, e] = proc
                clock[sel, s] = proc
            elif code == _SYNC:
                _, _, d, e = step
                t[sel] = np.maximum(t[sel] + d, ev[sel, e])
            elif code == _WAIT:
                _, _, d, s, e, extra = step
                tt = t[sel] + d
                t[sel] = tt
                resume = np.maximum(np.maximum(clock[sel, s], tt), ev[sel, e])
                if extra is not None:
                    resume = resume + extra
                clock[sel, s] = resume
            elif code == _MPI:
                _, _, v, side, slots, occ = step
                tt = t[sel] + adv[v]
                cost = post[side]
                rows = sel[:, None]
                for ranks, msgs in slots:
                    p = tt[:, ranks] + cost[msgs]
                    tt[:, ranks] = p
                    posted[side][rows, msgs] = p
                t[sel] = tt
                if occ is not None:
                    self._transfer(
                        sel, occ, posted, end, free, last, flagged, wire
                    )
            else:  # _MWAIT
                _, _, v, idx = step
                tt = t[sel] + adv[v]
                if self._wait_overhead:
                    tt = tt + self._wait_overhead
                t[sel] = np.maximum(tt, end[sel[:, None, None], idx].max(axis=2))
        finish = np.maximum(t, clock.max(axis=1))
        if comm is not None:
            finish = np.maximum(finish, end[:, comm.fin_idx].max(axis=2))
        return finish, flagged

    def _transfer(self, sel, occ, posted, end, free, last, flagged, wire) -> None:
        """Start the transfers ``occ`` for rows ``sel`` (one post step)."""
        msgs, n_eager = occ
        rows = sel[:, None]
        ready = posted[0][rows, msgs]
        if n_eager < len(msgs):
            rdv = msgs[n_eager:]
            ready[:, n_eager:] = np.maximum(ready[:, n_eager:], posted[1][rows, rdv])
        comm = self._comm
        if not comm.serialize:
            end[rows, msgs] = ready + wire[msgs]
            return
        order = np.argsort(ready, axis=1, kind="stable")
        at = np.arange(len(sel))
        send_free, recv_free = free
        send_last, recv_last = last
        for o in order.T:
            m = msgs[o]
            rdy = ready[at, o]
            src = comm.src[m]
            dst = comm.dst[m]
            flagged[sel] |= (rdy <= send_last[sel, src]) | (rdy <= recv_last[sel, dst])
            send_last[sel, src] = rdy
            recv_last[sel, dst] = rdy
            done = (
                np.maximum(np.maximum(rdy, send_free[sel, src]), recv_free[sel, dst])
                + wire[m]
            )
            send_free[sel, src] = done
            recv_free[sel, dst] = done
            end[sel, m] = done

    # ------------------------------------------------------------------
    def measure_block(
        self, schedules: Sequence[Schedule]
    ) -> List[Optional[Measurement]]:
        """Measure a block of supported schedules (paper §III-C3 protocol).

        Mirrors ``Benchmarker.measure`` exactly — same sample order, same
        break conditions, same accumulation order — with an active-row
        mask over the block instead of a per-schedule loop.  Callers must
        have verified :meth:`supports` for every schedule.  A row whose
        NIC-channel order replay cannot prove in some sample yields
        ``None``; :meth:`measure_into` sends it to the reference engine.
        """
        if not schedules:
            return []
        pack = self._pack(schedules)
        n_rows = len(schedules)
        cfg = self.config
        noise_on = self._noise.enabled
        acc = np.zeros((n_rows, self.n_ranks))
        n = np.zeros(n_rows, dtype=np.int64)
        active = np.ones(n_rows, dtype=bool)
        flagged = np.zeros(n_rows, dtype=bool)
        plan: Optional[_Plan] = None
        sample = 0
        while True:
            rows = np.nonzero(active)[0]
            if plan is None or plan.n_rows != rows.size:
                # Rows only ever leave the active set, so an unchanged
                # count means an unchanged set and the plan still holds.
                plan = self._plan(pack, rows)
            per_rank, bad = self._replay(plan, self.sample_offset + sample)
            acc[rows] += per_rank
            n[rows] += 1
            sample += 1
            n_rows_active = n[rows]
            stop = n_rows_active >= cfg.max_samples
            if not noise_on:
                stop |= n_rows_active >= cfg.min_samples
            stop |= (n_rows_active >= cfg.min_samples) & (
                acc[rows].max(axis=1) >= cfg.target_time_s
            )
            flagged[rows[bad]] = True
            active[rows[stop | bad]] = False
            if not active.any():
                break
        results: List[Optional[Measurement]] = []
        for b in range(n_rows):
            if flagged[b]:
                results.append(None)
                continue
            n_b = int(n[b])
            per = tuple(float(acc[b, r] / n_b) for r in range(self.n_ranks))
            results.append(
                Measurement(time=max(per), n_samples=n_b, per_rank_time=per)
            )
        return results

    def measure_into(
        self,
        benchmarker: Benchmarker,
        schedules: Sequence[Schedule],
        backend: str = "batch",
    ) -> Tuple[List[Measurement], int, int]:
        """Measure ``schedules`` through ``benchmarker``'s memo via replay.

        Un-memoized supported schedules are replayed in one block and
        seeded into the memo (with reference-equivalent ``n_simulations``
        accounting); unsupported ones, and rows replay flags, fall back
        to ``benchmarker.measure``.  Returns ``(results, n_replayed,
        n_fallbacks)`` so callers can do their own metrics accounting —
        this function does not touch ``obs`` counters (it also runs
        inside pool workers whose registries are never shipped home).
        """
        todo: List[Schedule] = []
        n_fallbacks = 0
        seen = set()
        for s in schedules:
            fp = s.fingerprint()
            if fp in seen:
                continue
            seen.add(fp)
            if benchmarker.cached(s, backend=backend) is not None:
                continue
            if self.supports(s):
                todo.append(s)
            else:
                n_fallbacks += 1
        n_replayed = 0
        for s, m in zip(todo, self.measure_block(todo)):
            if m is None:
                n_fallbacks += 1
                continue
            benchmarker.seed_cache(s, m, backend=backend)
            benchmarker.n_simulations += m.n_samples
            n_replayed += 1
        results = [benchmarker.measure(s, backend=backend) for s in schedules]
        return results, n_replayed, n_fallbacks


def resolve_backend(
    sim_backend: str,
    program: Program,
    machine: MachineConfig,
    config: MeasurementConfig = MeasurementConfig(),
    *,
    sample_offset: int = 0,
    needs_reference: Union[bool, str] = False,
) -> Tuple[str, Optional["CompiledContext"]]:
    """Resolve a ``sim_backend`` knob to ``(backend, compiled context)``.

    ``"auto"`` compiles the context and picks ``"batch"`` when it is
    usable, ``"reference"`` otherwise.  An explicit ``"batch"`` keeps the
    (possibly unusable) context so every schedule takes the counted
    per-schedule fallback path.  ``needs_reference`` is for callers whose
    executor uses features replay cannot produce — a string names the
    feature (``"trace"``, ``"payload"``) — and always resolves to the
    reference engine.  Every resolution to the reference engine adds 1
    to ``sim.resolved_reference`` and logs its cause.
    """
    if sim_backend not in SIM_BACKENDS:
        raise ValueError(
            f"unknown sim backend {sim_backend!r}; expected one of {SIM_BACKENDS}"
        )
    if needs_reference:
        cause = (
            needs_reference
            if isinstance(needs_reference, str)
            else "needs-reference"
        )
    elif sim_backend == "reference":
        cause = "reference"
    else:
        ctx = compile_context(program, machine, config, sample_offset=sample_offset)
        if ctx.ok or sim_backend == "batch":
            return "batch", ctx
        cause = ctx.reason
    obs.add("sim.resolved_reference")
    obs.log.info("sim.resolved_reference", cause=cause, program=program.name)
    return "reference", None


def compile_context(
    program: Program,
    machine: MachineConfig,
    config: MeasurementConfig = MeasurementConfig(),
    *,
    sample_offset: int = 0,
) -> CompiledContext:
    """Compile a replay context; timed and counted in ``obs``.

    ``sim.compile_s`` observes the compile wall; ``sim.compiled_contexts``
    counts *usable* contexts (``ctx.ok``) so the metric reads as "how many
    batch-capable contexts this run built".
    """
    global _N_COMPILES
    _N_COMPILES += 1
    with obs.stage("sim.compile") as st:
        ctx = CompiledContext(
            program, machine, config, sample_offset=sample_offset
        )
    obs.observe("sim.compile_s", st.duration)
    if ctx.ok:
        obs.add("sim.compiled_contexts")
    return ctx
