"""The executor's LRU victim stream against the eager list it replaced.

Before each victim selection, ``_make_space`` used to list every GPU
resident no kernel had used yet (in allocation order), then every used
tensor still resident (in last-use order), from a GPU pool and an LRU
recency map holding every tensor ever used. That list stays here as the
reference: :class:`ResidencyIndex` must stream exactly it, and every in-tree
policy must decide the same from the one-pass stream as from the list.
"""

from __future__ import annotations

import sys
from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.factory import POLICY_NAMES, make_policy
from repro.sim.policy import PolicyContext
from repro.sim.residency import ResidencyIndex
from repro.uvm.memory import MemoryPool

PAGE = 4096


def reference_victims(
    gpu: MemoryPool, last_used: OrderedDict[int, float], unavailable: set[int]
) -> list[int]:
    """The eager LRU list: never-used residents first, then by last use."""
    resident = [
        tid
        for tid in gpu.resident_tensors()
        if tid not in unavailable and tid not in last_used
    ]
    resident += [
        tid for tid in last_used if gpu.contains(tid) and tid not in unavailable
    ]
    return resident


TENSORS = st.integers(0, 15)
OPS = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["alloc", "free", "die"]), TENSORS),
        st.tuples(st.just("use"), st.lists(TENSORS, unique=True, max_size=4)),
    ),
    max_size=120,
)


@given(ops=OPS, unavailable=st.sets(TENSORS, max_size=8))
@settings(max_examples=300, deadline=None)
def test_index_streams_the_reference_list(ops, unavailable):
    # The executor's bookkeeping before the index, driven alongside it: a GPU
    # pool (allocation order) and an LRU recency map that keeps used tensors
    # after they are evicted and forgets them when they die. Few tensor ids
    # and many operations make re-allocation after use and death common.
    gpu = MemoryPool("gpu", 1 << 30)
    last_used: OrderedDict[int, float] = OrderedDict()
    index = ResidencyIndex()
    for clock, (op, arg) in enumerate(ops):
        if op == "alloc":
            if not gpu.contains(arg):
                gpu.allocate(arg, PAGE)
                index.allocated(arg)
        elif op == "free":
            assert index.freed(arg) == (gpu.free(arg) > 0)
        elif op == "die":
            gpu.free(arg)
            last_used.pop(arg, None)
            index.died(arg)
        else:
            for tid in arg:
                last_used[tid] = float(clock)
                last_used.move_to_end(tid)
            index.used(arg)
        for subset in (set(), unavailable):
            assert list(index.victims(subset)) == reference_victims(gpu, last_used, subset)


def test_reallocated_tensor_keeps_its_old_last_use_position():
    # 1 is used, evicted and fetched back after 2 and 3 were used: it still
    # ranks by its old use. 4, fetched back but never used, ranks first.
    index = ResidencyIndex()
    for tid in (1, 2, 3):
        index.allocated(tid)
    index.used([1])
    index.used([2])
    index.freed(1)
    index.used([3])
    index.allocated(4)
    index.allocated(1)
    assert list(index.victims(set())) == [4, 1, 2, 3]
    assert list(index.victims({1, 4})) == [2, 3]


def test_dead_tensor_comes_back_as_never_used():
    # 2 was used after 1 and then died. Allocated again, no kernel has used
    # it since, so it ranks first instead of after 1.
    index = ResidencyIndex()
    index.allocated(1)
    index.allocated(2)
    index.used([1])
    index.used([2])
    index.died(2)
    index.allocated(2)
    assert list(index.victims(set())) == [2, 1]


def _first_victim_and_lines(index: ResidencyIndex) -> tuple[int, int]:
    """The first victim, and the Python lines run to produce it.

    Lines executed is a measure of work that does not depend on host speed.
    """
    stream = index.victims(set())
    lines = 0

    def tracer(frame, event, arg):
        nonlocal lines
        if event == "line":
            lines += 1
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        first = next(stream)
    finally:
        sys.settrace(previous)
    return first, lines


def _evicted_then_one_used(evicted: int) -> tuple[ResidencyIndex, int]:
    """``evicted`` tensors used and evicted, then one resident used after them."""
    index = ResidencyIndex()
    for tid in range(evicted):
        index.allocated(tid)
        index.used([tid])
        index.freed(tid)
    index.allocated(evicted)
    index.used([evicted])
    return index, evicted


def _residents(count: int, used: bool) -> tuple[ResidencyIndex, int]:
    index = ResidencyIndex()
    for tid in range(count):
        index.allocated(tid)
    if used:
        index.used(range(count))
    return index, 0


@pytest.mark.parametrize(
    "build",
    [
        # Used-then-evicted tensors stay in the recency order but are never
        # walked: the old stream checked every one of them for residency.
        _evicted_then_one_used,
        # The stream is lazy over residents, never-used and used alike.
        lambda count: _residents(count, used=False),
        lambda count: _residents(count, used=True),
    ],
    ids=["evicted", "unused-residents", "used-residents"],
)
def test_first_victim_costs_the_same_at_any_size(build):
    lines = []
    for size in (10, 5000):
        index, expected = build(size)
        first, cost = _first_victim_and_lines(index)
        assert first == expected
        lines.append(cost)
    assert lines[0] == lines[1]


@pytest.fixture(scope="module")
def set_up_policies(bert_ci_workload):
    context = PolicyContext(
        config=bert_ci_workload.config,
        graph=bert_ci_workload.graph,
        report=bert_ci_workload.report,
    )
    policies = {}
    for name in POLICY_NAMES:
        policy = make_policy(name)
        policy.setup(context)
        policies[name] = policy
    return policies


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_policies_decide_the_same_from_a_one_shot_stream(
    set_up_policies, bert_ci_workload, data
):
    tensor_ids = [t.tensor_id for t in bert_ci_workload.graph.tensors]
    order = data.draw(st.lists(st.sampled_from(tensor_ids), unique=True, max_size=120))
    total = sum(bert_ci_workload.graph.tensor(tid).size_bytes for tid in order)
    needed = data.draw(st.integers(0, total + PAGE))
    for name, policy in set_up_policies.items():
        from_list = policy.select_victims(needed, set(), list(order), 0.0)
        from_stream = policy.select_victims(needed, set(), iter(order), 0.0)
        assert from_stream == from_list, name
