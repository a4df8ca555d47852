"""Property-based differential tests: replay = reference on generated MPI
programs.

Programs are drawn from a small grammar of comm plans — 2–4 ranks, 1–3
groups of random point-to-point messages with eager and rendezvous
sizes and tags shared across groups — and measured on machines with NIC
serialization and noise each on or off, over random schedules of each
design space.  Every row replay does not flag must equal the reference
engine bit for bit; schedules and programs replay cannot handle must
reach the reference engine and fail there exactly as they would alone.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dag.graph import Graph
from repro.dag.program import CommPlan, Message, Program
from repro.dag.vertex import Action, ActionKind, Work, cpu_op, gpu_op
from repro.errors import ReproError
from repro.exec import SerialEvaluator
from repro.platform import perlmutter_like
from repro.platform.machine import Protocol
from repro.schedule.schedule import Schedule
from repro.schedule.space import DesignSpace
from repro.sim.batch import CompiledContext
from repro.sim.executor import ScheduleExecutor
from repro.sim.measure import Benchmarker, MeasurementConfig

CFG = MeasurementConfig(max_samples=2)
#: Around the 8 KiB eager threshold: three eager sizes, two rendezvous.
SIZES = (0.0, 512.0, 8192.0, 65536.0, 1.0e6)


@st.composite
def comm_programs(draw, with_recv_posts=True):
    n_ranks = draw(st.integers(min_value=2, max_value=4))
    n_groups = draw(st.integers(min_value=1, max_value=3))
    chained = draw(st.booleans())
    vertices, edges, comm = [], [], {}
    overrides = {}
    prev = None
    for g in range(n_groups):
        group = f"g{g}"
        pack = gpu_op(f"Pack{g}", work=Work(bytes_read=1.0e6 * (g + 1)))
        unpack = gpu_op(f"Unpack{g}", work=Work(bytes_read=2.0e5))
        ps = cpu_op(f"PostSends{g}", action=Action(ActionKind.POST_SENDS, group))
        pr = cpu_op(f"PostRecvs{g}", action=Action(ActionKind.POST_RECVS, group))
        ws = cpu_op(f"WaitSend{g}", action=Action(ActionKind.WAIT_SENDS, group))
        wr = cpu_op(f"WaitRecv{g}", action=Action(ActionKind.WAIT_RECVS, group))
        posts = [ps, pr] if with_recv_posts or g else [ps]
        vertices += [pack, unpack, ws, wr] + posts
        edges += [
            (pack.name, ps.name),
            (ps.name, ws.name),
            (ps.name, wr.name),
            (wr.name, unpack.name),
        ]
        if pr in posts:
            edges += [(pr.name, wr.name), (pr.name, ws.name)]
        if chained and prev is not None:
            edges.append((prev.name, pack.name))
        prev = unpack
        # Per-rank pack work.  SPMD-symmetric ranks post at equal times,
        # which is where NIC-channel ties (and so flagged rows) come from.
        if not draw(st.booleans()):
            for r in range(n_ranks):
                scale = draw(st.sampled_from((0.5, 1.0, 2.0)))
                overrides[(pack.name, r)] = Work(
                    bytes_read=1.0e6 * scale * (g + 1)
                )
        pairs = [(s, d) for s in range(n_ranks) for d in range(n_ranks) if s != d]
        chosen = draw(
            st.lists(st.sampled_from(pairs), min_size=1, max_size=5)
        )
        comm[group] = CommPlan(
            group=group,
            messages=tuple(
                Message(
                    src=s,
                    dst=d,
                    nbytes=draw(st.sampled_from(SIZES)),
                    tag=draw(st.integers(min_value=0, max_value=1)),
                )
                for s, d in chosen
            ),
        )
    graph = Graph.from_edges(vertices, edges).with_start_end()
    return Program(
        graph=graph, n_ranks=n_ranks, comm=comm, work_overrides=overrides
    )


@st.composite
def machines(draw, n_ranks):
    machine = perlmutter_like(
        n_ranks=n_ranks,
        noise_sigma=draw(st.sampled_from((0.0, 0.01))),
        noise_seed=draw(st.integers(min_value=0, max_value=3)),
    )
    net = replace(
        machine.net,
        serialize_nic=draw(st.booleans()),
        protocol=draw(st.sampled_from((Protocol.RENDEZVOUS, Protocol.EAGER))),
    )
    return replace(machine, net=net)


def _schedules(program, seed, n=6):
    space = DesignSpace(program, n_streams=2)
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        s = space.random_schedule(rng)
        if s is not None:
            out.append(s)
    return out


@given(comm_programs(), st.data(), st.integers(min_value=0, max_value=1000))
@settings(max_examples=60, deadline=None)
def test_replay_equals_reference_on_unflagged_rows(program, data, seed):
    machine = data.draw(machines(program.n_ranks))
    ctx = CompiledContext(program, machine, CFG)
    assert ctx.ok, ctx.reason
    schedules = _schedules(program, seed)
    supported = []
    for s in schedules:
        reason = ctx.unsupported_reason(s)
        # Groups sharing a (src, dst, tag) key posted in contradicting
        # orders match across groups; only that may be refused here.
        assert reason is None or reason.startswith("match-order:"), reason
        if reason is None:
            supported.append(s)
    got = ctx.measure_block(supported)
    if not machine.net.serialize_nic:
        assert None not in got
    bench = Benchmarker(ScheduleExecutor(program, machine), CFG)
    for s, m in zip(supported, got):
        if m is not None:
            assert m == bench.measure(s)


def _outcome(fn):
    try:
        return fn()
    except ReproError as exc:
        return type(exc), str(exc)


@given(comm_programs(), st.integers(min_value=0, max_value=1000))
@settings(max_examples=15, deadline=None)
def test_wait_before_post_fails_as_reference(program, seed):
    machine = perlmutter_like(n_ranks=program.n_ranks)
    schedule = _schedules(program, seed, n=1)[0]
    ops = list(schedule.ops)
    i = next(i for i, op in enumerate(ops) if op.name.startswith("Wait"))
    bad = Schedule([ops[i]] + ops[:i] + ops[i + 1 :])
    ev = SerialEvaluator(
        Benchmarker(ScheduleExecutor(program, machine), CFG),
        sim_backend="batch",
    )
    assert ev._compiled.unsupported_reason(bad).startswith("wait-before-post:")
    ref = Benchmarker(ScheduleExecutor(program, machine), CFG)
    expected = _outcome(lambda: ref.measure(bad))
    assert isinstance(expected, tuple), "reference engine accepted the schedule"
    assert _outcome(lambda: ev.evaluate(bad)) == expected


@given(comm_programs(with_recv_posts=False), st.integers(min_value=0, max_value=1000))
@settings(max_examples=15, deadline=None)
def test_program_missing_a_post_fails_as_reference(program, seed):
    machine = perlmutter_like(n_ranks=program.n_ranks)
    ctx = CompiledContext(program, machine, CFG)
    assert not ctx.ok and ctx.reason == "comm-posts:g0"
    schedule = _schedules(program, seed, n=1)[0]
    ref = Benchmarker(ScheduleExecutor(program, machine), CFG)
    auto = SerialEvaluator(
        Benchmarker(ScheduleExecutor(program, machine), CFG), sim_backend="auto"
    )
    assert auto.sim_backend == "reference"
    expected = _outcome(lambda: ref.measure(schedule))
    assert isinstance(expected, tuple), "reference engine accepted the program"
    assert _outcome(lambda: auto.evaluate(schedule)) == expected


@pytest.mark.parametrize("serialize_nic", [True, False])
def test_shared_keys_in_contradicting_order_fall_back(serialize_nic):
    """Two groups with the same (src, dst, tag) key: MPI matches by
    posting order, so crossing the groups' post orders refuses replay."""
    program = Program(
        graph=Graph.from_edges(
            [
                cpu_op(f"{kind}{g}", action=Action(action, f"g{g}"))
                for g in (0, 1)
                for kind, action in (
                    ("PostSends", ActionKind.POST_SENDS),
                    ("PostRecvs", ActionKind.POST_RECVS),
                )
            ],
            [],
        ).with_start_end(),
        n_ranks=2,
        comm={
            f"g{g}": CommPlan(f"g{g}", (Message(0, 1, 100.0 * (g + 1)),))
            for g in (0, 1)
        },
    )
    base = perlmutter_like(n_ranks=2)
    machine = replace(base, net=replace(base.net, serialize_nic=serialize_nic))
    ctx = CompiledContext(program, machine, CFG)
    assert ctx.ok
    seen = set()
    for s in DesignSpace(program, n_streams=1).enumerate_schedules():
        names = [op.name for op in s.ops]
        crossed = (names.index("PostSends0") < names.index("PostSends1")) != (
            names.index("PostRecvs0") < names.index("PostRecvs1")
        )
        reason = ctx.unsupported_reason(s)
        assert (reason == "match-order:g0/g1") == crossed
        seen.add(crossed)
        if not crossed:
            ref = Benchmarker(ScheduleExecutor(program, machine), CFG)
            (got,) = ctx.measure_block([s])
            assert got is None or got == ref.measure(s)
    assert seen == {True, False}
