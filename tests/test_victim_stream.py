"""The executor's lazy LRU victim stream against the eager lists it replaced.

``_make_space`` used to build two list comprehensions over every GPU resident
and every used tensor before asking the policy for victims. They stay here as
the reference: the stream must yield exactly that list, and every in-tree
policy must decide the same from the one-pass stream as from the list.
"""

from __future__ import annotations

from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.factory import POLICY_NAMES, make_policy
from repro.sim.executor import lru_victims
from repro.sim.policy import PolicyContext
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


@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["alloc", "free", "use"]), st.integers(0, 30)),
        max_size=80,
    ),
    unavailable=st.sets(st.integers(0, 30), max_size=12),
)
@settings(max_examples=200, deadline=None)
def test_stream_yields_the_reference_list(ops, unavailable):
    # Random residency (allocation order included), LRU recency over resident
    # and non-resident tensors alike, and unavailable sets.
    gpu = MemoryPool("gpu", 1 << 30)
    last_used: OrderedDict[int, float] = OrderedDict()
    for clock, (op, tid) in enumerate(ops):
        if op == "alloc":
            gpu.allocate(tid, PAGE)
        elif op == "free":
            gpu.free(tid)
        else:
            last_used[tid] = float(clock)
            last_used.move_to_end(tid)
    expected = reference_victims(gpu, last_used, unavailable)
    assert list(lru_victims(gpu, last_used, unavailable)) == expected


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


class _CountingRecency(OrderedDict):
    """An LRU recency map that counts full walks over its keys."""

    walks = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()


def test_stream_is_lazy():
    gpu = MemoryPool("gpu", 1 << 30)
    for tid in (1, 2, 3):
        gpu.allocate(tid, PAGE)
    last_used = _CountingRecency([(3, 0.0), (2, 1.0)])
    stream = lru_victims(gpu, last_used, set())
    # The never-used resident comes first, before the recency walk starts.
    assert next(stream) == 1
    assert last_used.walks == 0
    assert list(stream) == [3, 2]
    assert last_used.walks == 1
