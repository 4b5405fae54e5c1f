"""Tests for the dataflow-graph substrate: tensors, operators, kernels, expansion."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import PAGE_SIZE
from repro.errors import GraphError
from repro.graph import (
    DataflowGraph,
    Kernel,
    KernelPhase,
    OpType,
    TensorKind,
    expand_training,
)
from repro.graph.kernel import KernelTrace
from repro.graph.tensor import TensorInfo, TensorSet, make_tensor

from helpers import build_tiny_mlp


class TestTensorInfo:
    def test_size_bytes(self):
        t = make_tensor(0, "x", (2, 3, 4), TensorKind.ACTIVATION)
        assert t.size_bytes == 2 * 3 * 4 * 4

    def test_num_pages_rounds_up(self):
        t = make_tensor(0, "x", (1, PAGE_SIZE // 4 + 1), TensorKind.ACTIVATION)
        assert t.num_pages == 2

    def test_small_tensor_occupies_one_page(self):
        t = make_tensor(0, "x", (1, 1), TensorKind.ACTIVATION)
        assert t.num_pages == 1

    @pytest.mark.parametrize(
        "kind,expected",
        [
            (TensorKind.WEIGHT, True),
            (TensorKind.OPTIMIZER_STATE, True),
            (TensorKind.ACTIVATION, False),
            (TensorKind.GRADIENT, False),
            (TensorKind.WORKSPACE, False),
            (TensorKind.INPUT, False),
        ],
    )
    def test_globalness(self, kind, expected):
        assert kind.is_global is expected
        assert make_tensor(0, "x", (4,), kind).is_global is expected

    def test_rejects_empty_shape(self):
        with pytest.raises(GraphError):
            TensorInfo(0, "x", (), TensorKind.ACTIVATION)

    def test_rejects_nonpositive_dims(self):
        with pytest.raises(GraphError):
            make_tensor(0, "x", (0, 3), TensorKind.ACTIVATION)

    def test_rejects_negative_id(self):
        with pytest.raises(GraphError):
            make_tensor(-1, "x", (1,), TensorKind.ACTIVATION)

    @given(
        dims=st.lists(st.integers(min_value=1, max_value=64), min_size=1, max_size=4)
    )
    @settings(max_examples=50, deadline=None)
    def test_size_is_product_of_dims(self, dims):
        tensor = make_tensor(0, "t", tuple(dims), TensorKind.ACTIVATION)
        expected = 4
        for d in dims:
            expected *= d
        assert tensor.size_bytes == expected
        assert tensor.num_pages >= 1

    def test_size_is_computed_once_and_ignored_by_equality(self):
        read = make_tensor(0, "t", (2, 3), TensorKind.ACTIVATION)
        unread = make_tensor(0, "t", (2, 3), TensorKind.ACTIVATION)
        assert read.size_bytes == 24
        assert "size_bytes" in vars(read) and "size_bytes" not in vars(unread)
        assert read == unread and hash(read) == hash(unread) and repr(read) == repr(unread)
        # Copies with another shape or dtype must not inherit the cached size.
        assert replace(read, shape=(5,)).size_bytes == 20
        assert replace(read, dtype_bytes=2).size_bytes == 12
        assert read.with_id(9).size_bytes == 24


class TestTensorSet:
    def test_auto_ids_are_sequential(self):
        ts = TensorSet()
        a = ts.add("a", (1,), TensorKind.ACTIVATION)
        b = ts.add("b", (1,), TensorKind.ACTIVATION)
        assert (a.tensor_id, b.tensor_id) == (0, 1)

    def test_register_rejects_duplicates(self):
        ts = TensorSet()
        t = ts.add("a", (1,), TensorKind.ACTIVATION)
        with pytest.raises(GraphError):
            ts.register(t)

    def test_total_bytes(self):
        ts = TensorSet()
        ts.add("a", (10,), TensorKind.ACTIVATION)
        ts.add("b", (6,), TensorKind.WEIGHT)
        assert ts.total_bytes == 64

    def test_contains_and_lookup(self):
        ts = TensorSet()
        t = ts.add("a", (1,), TensorKind.ACTIVATION)
        assert t.tensor_id in ts
        assert ts[t.tensor_id] is t
        assert len(ts) == 1


class TestOperatorAndGraph:
    def test_weights_are_added_to_inputs(self, tiny_graph):
        for op in tiny_graph.operators:
            for wid in op.weight_ids:
                assert wid in op.input_ids

    def test_data_inputs_exclude_weights(self, tiny_graph):
        for op in tiny_graph.operators:
            assert not set(op.data_input_ids) & set(op.weight_ids)

    def test_validation_passes_for_builder_graphs(self, tiny_graph, branchy_graph):
        tiny_graph.validate()
        branchy_graph.validate()

    def test_empty_graph_rejected(self):
        with pytest.raises(GraphError):
            DataflowGraph(name="empty").validate()

    def test_unknown_tensor_rejected(self):
        graph = DataflowGraph(name="bad")
        out = graph.add_tensor("out", (1,), TensorKind.ACTIVATION)
        with pytest.raises(GraphError):
            graph.add_operator("op", OpType.RELU, inputs=[999], outputs=[out])

    def test_consuming_unproduced_activation_rejected(self):
        graph = DataflowGraph(name="bad")
        phantom = graph.add_tensor("phantom", (4,), TensorKind.ACTIVATION)
        out = graph.add_tensor("out", (4,), TensorKind.ACTIVATION)
        graph.add_operator("op", OpType.RELU, inputs=[phantom], outputs=[out])
        with pytest.raises(GraphError):
            graph.validate()

    def test_double_production_rejected(self):
        graph = DataflowGraph(name="bad")
        src = graph.add_tensor("in", (4,), TensorKind.INPUT)
        out = graph.add_tensor("out", (4,), TensorKind.ACTIVATION)
        graph.add_operator("a", OpType.RELU, inputs=[src], outputs=[out])
        graph.add_operator("b", OpType.RELU, inputs=[src], outputs=[out])
        with pytest.raises(GraphError):
            graph.validate()

    def test_inplace_operator_is_allowed(self):
        graph = DataflowGraph(name="inplace")
        src = graph.add_tensor("in", (4,), TensorKind.INPUT)
        out = graph.add_tensor("out", (4,), TensorKind.ACTIVATION)
        graph.add_operator("produce", OpType.RELU, inputs=[src], outputs=[out])
        graph.add_operator("inplace", OpType.RELU, inputs=[out], outputs=[out])
        graph.validate()

    def test_producers_and_consumers_are_consistent(self, tiny_graph):
        producers = tiny_graph.producers()
        consumers = tiny_graph.consumers()
        for tid, producer in producers.items():
            for consumer in consumers.get(tid, []):
                assert consumer >= producer

    def test_final_outputs_are_not_consumed(self, tiny_graph):
        consumed = {tid for op in tiny_graph.operators for tid in op.input_ids}
        for out in tiny_graph.final_outputs():
            assert out.tensor_id not in consumed

    def test_summary_fields(self, tiny_graph):
        summary = tiny_graph.summary()
        assert summary["operators"] == tiny_graph.num_operators
        assert summary["weight_bytes"] == tiny_graph.total_weight_bytes()


class TestKernel:
    def test_tensor_ids_are_deduplicated(self):
        k = Kernel(
            index=0, name="k", phase=KernelPhase.FORWARD, op_id=0,
            input_ids=(1, 2, 1), output_ids=(2, 3), workspace_id=3,
        )
        assert k.tensor_ids == (1, 2, 3)

    @given(
        inputs=st.lists(st.integers(0, 8), max_size=6),
        outputs=st.lists(st.integers(0, 8), max_size=4),
        workspace=st.none() | st.integers(0, 8),
    )
    @settings(max_examples=100, deadline=None)
    def test_tensor_ids_keep_first_occurrences_in_order(self, inputs, outputs, workspace):
        k = Kernel(
            index=0, name="k", phase=KernelPhase.FORWARD, op_id=0,
            input_ids=tuple(inputs), output_ids=tuple(outputs), workspace_id=workspace,
        )
        expected: list[int] = []
        for tid in [*inputs, *outputs, *([] if workspace is None else [workspace])]:
            if tid not in expected:
                expected.append(tid)
        assert k.tensor_ids == tuple(expected)

    def test_tensor_ids_are_computed_once_and_ignored_by_equality(self):
        fields = dict(index=0, name="k", phase=KernelPhase.FORWARD, op_id=0, input_ids=(1, 2))
        read, unread = Kernel(**fields), Kernel(**fields)
        assert read.tensor_ids is read.tensor_ids
        assert read == unread and hash(read) == hash(unread)
        # A copy with other inputs must not inherit the cached tuple.
        assert replace(read, input_ids=(5,)).tensor_ids == (5,)
        assert read.with_duration(1.0).tensor_ids == (1, 2)

    def test_with_duration(self):
        k = Kernel(index=0, name="k", phase=KernelPhase.FORWARD, op_id=0, output_ids=(1,))
        assert k.with_duration(2.5).duration == 2.5

    def test_negative_duration_rejected(self):
        k = Kernel(index=0, name="k", phase=KernelPhase.FORWARD, op_id=0, output_ids=(1,))
        with pytest.raises(GraphError):
            k.with_duration(-1.0)

    def test_trace_requires_consecutive_indices(self):
        k0 = Kernel(index=0, name="a", phase=KernelPhase.FORWARD, op_id=0, output_ids=(1,))
        k2 = Kernel(index=2, name="b", phase=KernelPhase.FORWARD, op_id=1, output_ids=(2,))
        with pytest.raises(GraphError):
            KernelTrace([k0, k2])

    def test_trace_timing_helpers(self):
        kernels = [
            Kernel(index=i, name=f"k{i}", phase=KernelPhase.FORWARD, op_id=i,
                   output_ids=(i + 1,), duration=0.5)
            for i in range(4)
        ]
        trace = KernelTrace(kernels)
        assert trace.total_compute_time == pytest.approx(2.0)
        assert trace.start_times() == pytest.approx([0.0, 0.5, 1.0, 1.5])
        assert trace.end_times() == pytest.approx([0.5, 1.0, 1.5, 2.0])


class TestTrainingExpansion:
    def test_every_forward_op_has_a_forward_kernel(self, tiny_graph):
        training = expand_training(tiny_graph)
        forward = [k for k in training.kernels if k.phase is KernelPhase.FORWARD]
        assert len(forward) == tiny_graph.num_operators

    def test_backward_kernels_follow_forward(self, tiny_graph):
        training = expand_training(tiny_graph)
        phases = [k.phase for k in training.kernels]
        last_forward = max(i for i, p in enumerate(phases) if p is KernelPhase.FORWARD)
        first_backward = min(i for i, p in enumerate(phases) if p is KernelPhase.BACKWARD)
        assert first_backward > last_forward - 1  # loss kernel sits at the boundary

    def test_optimizer_kernels_come_last(self, tiny_graph):
        training = expand_training(tiny_graph)
        phases = [k.phase for k in training.kernels]
        first_opt = min(i for i, p in enumerate(phases) if p is KernelPhase.OPTIMIZER)
        assert all(p is KernelPhase.OPTIMIZER for p in phases[first_opt:])

    def test_each_trained_weight_gets_one_optimizer_kernel(self, tiny_graph):
        training = expand_training(tiny_graph)
        optimizer = [k for k in training.kernels if k.phase is KernelPhase.OPTIMIZER]
        assert len(optimizer) == len(training.weight_ids)

    def test_optimizer_can_be_disabled(self, tiny_graph):
        graph = build_tiny_mlp()
        training = expand_training(graph, include_optimizer=False)
        assert all(k.phase is not KernelPhase.OPTIMIZER for k in training.kernels)

    def test_momentum_state_adds_global_tensors(self):
        with_state = expand_training(build_tiny_mlp(), momentum_state=True)
        without_state = expand_training(build_tiny_mlp(), momentum_state=False)
        assert len(with_state.global_tensor_ids()) > len(without_state.global_tensor_ids())

    def test_weight_gradients_exist_for_every_weight(self, tiny_graph):
        training = expand_training(build_tiny_mlp())
        for wid in training.weight_ids:
            assert wid in training.gradient_of

    def test_kernel_indices_are_consecutive(self, tiny_graph):
        training = expand_training(build_tiny_mlp())
        assert [k.index for k in training.kernels] == list(range(training.num_kernels))

    def test_backward_reads_forward_activations(self):
        graph = build_tiny_mlp()
        training = expand_training(graph)
        forward_outputs = {tid for op in graph.operators for tid in op.output_ids}
        backward_inputs = {
            tid
            for k in training.kernels
            if k.phase is KernelPhase.BACKWARD
            for tid in k.input_ids
        }
        assert forward_outputs & backward_inputs

    def test_branchy_graph_expands_and_validates(self, branchy_graph):
        training = expand_training(build_tiny_mlp())
        assert training.num_kernels > 0

    def test_expansion_leaves_source_graph_unchanged(self):
        graph = build_tiny_mlp()
        forward_tensors = len(graph.tensors)
        first = expand_training(graph)
        second = expand_training(graph)
        assert len(graph.tensors) == forward_tensors
        assert len(first.tensors) == len(second.tensors) > forward_tensors
        assert first.tensors is not second.tensors

    def test_compute_class_propagates_to_kernels(self):
        graph = build_tiny_mlp()
        training = expand_training(graph)
        classes = {k.compute_class for k in training.kernels}
        assert "gemm" in classes
