"""Expansion of a forward dataflow graph into a full training iteration.

The expansion mirrors what a deep-learning framework does when compiling one
training step:

* every forward operator becomes one forward kernel;
* the backward pass visits operators in reverse order, producing gradient
  kernels that read the forward activations (this is what creates the long
  forward->backward inactive periods the paper exploits);
* every weight tensor receives an optimizer-update kernel at the end of the
  iteration (SGD with momentum by default, which adds one optimizer-state
  tensor per weight).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import GraphError
from .dataflow import DataflowGraph
from .kernel import Kernel, KernelPhase, KernelTrace
from .operator import Operator
from .tensor import TensorInfo, TensorKind, TensorSet

#: Backward FLOPs relative to forward FLOPs for weighted operators
#: (one pass for the data gradient, one for the weight gradient).
BACKWARD_FLOP_FACTOR = 2.0


@dataclass
class TrainingGraph:
    """A complete training iteration: kernels plus the extended tensor set."""

    name: str
    batch_size: int
    tensors: TensorSet
    kernels: list[Kernel] = field(default_factory=list)
    #: Map forward-tensor id -> gradient-tensor id created by the expansion.
    gradient_of: dict[int, int] = field(default_factory=dict)
    #: Ids of the trainable weight tensors.
    weight_ids: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        for position, kernel in enumerate(self.kernels):
            if kernel.index != position:
                raise GraphError("training kernels must be indexed consecutively from zero")

    @property
    def num_kernels(self) -> int:
        return len(self.kernels)

    def tensor(self, tensor_id: int) -> TensorInfo:
        return self.tensors[tensor_id]

    def trace(self) -> KernelTrace:
        """The kernel trace view consumed by the simulator."""
        return KernelTrace(list(self.kernels))

    def global_tensor_ids(self) -> set[int]:
        """Ids of tensors that persist across iterations (weights, optimizer state)."""
        return {t.tensor_id for t in self.tensors if t.is_global}

    def with_kernels(self, kernels: list[Kernel]) -> "TrainingGraph":
        """Return a copy sharing tensors but with a different kernel list."""
        return TrainingGraph(
            name=self.name,
            batch_size=self.batch_size,
            tensors=self.tensors,
            kernels=kernels,
            gradient_of=dict(self.gradient_of),
            weight_ids=list(self.weight_ids),
        )


def _tensor_bytes(tensors: TensorSet, ids: tuple[int, ...] | list[int]) -> float:
    return float(sum(tensors[tid].size_bytes for tid in ids))


def expand_training(
    graph: DataflowGraph,
    include_optimizer: bool = True,
    momentum_state: bool = True,
) -> TrainingGraph:
    """Expand a validated forward graph into one training iteration.

    Args:
        graph: The forward dataflow graph (validated by the caller or here).
        include_optimizer: Whether to append weight-update kernels.
        momentum_state: Whether the optimizer keeps one state tensor per weight
            (SGD-momentum / Adam first moment). Global tensors grow accordingly.

    Returns:
        A :class:`TrainingGraph` whose kernels cover forward, backward and
        optimizer phases in execution order.
    """
    graph.validate()

    # Gradients, workspaces and optimizer state are added to a copy: the
    # forward graph stays reusable and every expansion is independent.
    tensors = graph.tensors.copy()
    kernels: list[Kernel] = []
    gradient_of: dict[int, int] = {}
    weight_ids = [t.tensor_id for t in graph.weight_tensors()]

    def next_index() -> int:
        return len(kernels)

    # ------------------------------------------------------------------ forward
    workspace_of: dict[int, int] = {}
    for op in graph.operators:
        workspace_id = None
        if op.workspace_bytes > 0:
            workspace = tensors.add(
                f"{op.name}.workspace",
                (op.workspace_bytes // 4 or 1,),
                TensorKind.WORKSPACE,
            )
            workspace_id = workspace.tensor_id
            workspace_of[op.op_id] = workspace_id
        inputs = tuple(op.input_ids)
        outputs = tuple(op.output_ids)
        kernels.append(
            Kernel(
                index=next_index(),
                name=f"{op.name}.fwd",
                phase=KernelPhase.FORWARD,
                op_id=op.op_id,
                input_ids=inputs,
                output_ids=outputs,
                flops=op.flops,
                bytes_accessed=_tensor_bytes(tensors, inputs) + _tensor_bytes(tensors, outputs),
                workspace_id=workspace_id,
                compute_class=op.compute_class,
            )
        )

    # ------------------------------------------------------------- loss seeding
    # The gradient of every final output is seeded by a loss kernel so the
    # backward pass has a starting point even if the model builder did not add
    # an explicit loss operator.
    final_outputs = graph.final_outputs()
    loss_inputs: list[int] = []
    for out in final_outputs:
        grad = tensors.add(f"{out.name}.grad", out.shape, TensorKind.GRADIENT)
        gradient_of[out.tensor_id] = grad.tensor_id
        loss_inputs.append(out.tensor_id)
    if final_outputs:
        loss_outputs = tuple(gradient_of[t.tensor_id] for t in final_outputs)
        kernels.append(
            Kernel(
                index=next_index(),
                name="loss.fwd_bwd",
                phase=KernelPhase.BACKWARD,
                op_id=graph.operators[-1].op_id,
                input_ids=tuple(loss_inputs),
                output_ids=loss_outputs,
                flops=sum(t.num_elements for t in final_outputs) * 4.0,
                bytes_accessed=_tensor_bytes(tensors, tuple(loss_inputs)) * 2,
            )
        )

    # ------------------------------------------------------------------ backward
    for op in reversed(graph.operators):
        kernels.extend(
            _backward_kernels(op, graph, tensors, gradient_of, workspace_of, next_index)
        )

    # ------------------------------------------------------------------ optimizer
    if include_optimizer:
        for wid in weight_ids:
            weight = tensors[wid]
            grad_id = gradient_of.get(wid)
            if grad_id is None:
                # Weight never received a gradient (e.g. frozen embedding): skip.
                continue
            op_inputs = [wid, grad_id]
            op_outputs = [wid]
            if momentum_state:
                state = tensors.add(
                    f"{weight.name}.momentum", weight.shape, TensorKind.OPTIMIZER_STATE
                )
                op_inputs.append(state.tensor_id)
                op_outputs.append(state.tensor_id)
            kernels.append(
                Kernel(
                    index=next_index(),
                    name=f"{weight.name}.sgd_update",
                    phase=KernelPhase.OPTIMIZER,
                    op_id=_owner_op(graph, wid),
                    input_ids=tuple(op_inputs),
                    output_ids=tuple(op_outputs),
                    flops=weight.num_elements * 4.0,
                    bytes_accessed=_tensor_bytes(tensors, tuple(op_inputs)) * 2,
                )
            )

    return TrainingGraph(
        name=graph.name,
        batch_size=graph.batch_size,
        tensors=tensors,
        kernels=kernels,
        gradient_of=gradient_of,
        weight_ids=weight_ids,
    )


def _owner_op(graph: DataflowGraph, weight_id: int) -> int:
    """Find the operator owning a weight (first consumer)."""
    for op in graph.operators:
        if weight_id in op.weight_ids:
            return op.op_id
    return graph.operators[-1].op_id


def _grad_for(
    tensors: TensorSet,
    gradient_of: dict[int, int],
    tensor_id: int,
    kind: TensorKind,
) -> int:
    """Get or create the gradient tensor for ``tensor_id``."""
    existing = gradient_of.get(tensor_id)
    if existing is not None:
        return existing
    source = tensors[tensor_id]
    grad = tensors.add(f"{source.name}.grad", source.shape, kind)
    gradient_of[tensor_id] = grad.tensor_id
    return grad.tensor_id


def _backward_kernels(
    op: Operator,
    graph: DataflowGraph,
    tensors: TensorSet,
    gradient_of: dict[int, int],
    workspace_of: dict[int, int],
    next_index,
) -> list[Kernel]:
    """Produce the backward kernel(s) for one forward operator."""
    output_grads = [gradient_of.get(tid) for tid in op.output_ids]
    output_grads = [g for g in output_grads if g is not None]
    if not output_grads:
        # Outputs were never used downstream and are not final outputs
        # (can happen for auxiliary statistics); nothing to back-propagate.
        return []

    kernels: list[Kernel] = []

    # Gradients w.r.t. data inputs.
    data_grad_ids = [
        _grad_for(tensors, gradient_of, tid, TensorKind.GRADIENT)
        for tid in op.data_input_ids
        if tensors[tid].kind is TensorKind.ACTIVATION
    ]
    # Gradients w.r.t. weights.
    weight_grad_ids = [
        _grad_for(tensors, gradient_of, wid, TensorKind.WEIGHT_GRADIENT)
        for wid in op.weight_ids
    ]

    inputs = list(dict.fromkeys([*op.input_ids, *output_grads]))
    # Backward of compute-bound ops also re-reads forward activations; that is
    # already covered because op.input_ids includes them.
    outputs = list(dict.fromkeys([*data_grad_ids, *weight_grad_ids]))
    if not outputs:
        return []

    workspace_id = workspace_of.get(op.op_id)
    flops_factor = BACKWARD_FLOP_FACTOR if op.op_type.is_compute_bound else 1.0
    kernels.append(
        Kernel(
            index=next_index(),
            name=f"{op.name}.bwd",
            phase=KernelPhase.BACKWARD,
            op_id=op.op_id,
            input_ids=tuple(inputs),
            output_ids=tuple(outputs),
            flops=op.flops * flops_factor,
            bytes_accessed=_tensor_bytes(tensors, tuple(inputs))
            + _tensor_bytes(tensors, tuple(outputs)),
            workspace_id=workspace_id,
            compute_class=op.compute_class,
        )
    )
    return kernels
