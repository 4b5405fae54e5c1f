"""Operator (layer/kernel) nodes of the forward dataflow graph."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from ..errors import GraphError


class OpType(Enum):
    """Operator categories recognised by the cost model and the backward expander."""

    CONV2D = "conv2d"
    LINEAR = "linear"
    MATMUL = "matmul"
    BATCHNORM = "batchnorm"
    LAYERNORM = "layernorm"
    RELU = "relu"
    GELU = "gelu"
    SIGMOID = "sigmoid"
    SOFTMAX = "softmax"
    POOL = "pool"
    GLOBAL_POOL = "global_pool"
    ADD = "add"
    CONCAT = "concat"
    RESHAPE = "reshape"
    MUL = "mul"
    DROPOUT = "dropout"
    EMBEDDING = "embedding"
    ATTENTION_SCORE = "attention_score"
    ATTENTION_CONTEXT = "attention_context"
    LOSS = "loss"
    OPTIMIZER = "optimizer"

    @property
    def is_compute_bound(self) -> bool:
        """True for operators dominated by FLOPs rather than memory traffic."""
        return self in (
            OpType.CONV2D,
            OpType.LINEAR,
            OpType.MATMUL,
            OpType.ATTENTION_SCORE,
            OpType.ATTENTION_CONTEXT,
        )


@dataclass
class Operator:
    """One forward operator in the dataflow graph.

    Attributes:
        op_id: Unique id within the graph; also the forward execution order.
        name: Human-readable name, e.g. ``"layer4.2.conv3"``.
        op_type: Category used by the cost model and backward expansion.
        input_ids: Tensor ids read by the operator (activations and weights).
        output_ids: Tensor ids produced by the operator.
        weight_ids: Subset of ``input_ids`` that are trainable parameters.
        flops: Forward floating-point operations.
        workspace_bytes: Scratch memory (e.g. cuDNN workspace) required while
            the operator runs; allocated just before and freed just after.
    """

    op_id: int
    name: str
    op_type: OpType
    input_ids: list[int] = field(default_factory=list)
    output_ids: list[int] = field(default_factory=list)
    weight_ids: list[int] = field(default_factory=list)
    flops: float = 0.0
    workspace_bytes: int = 0
    #: Efficiency class used by the cost model: "conv", "grouped_conv", "gemm" or "generic".
    compute_class: str = "generic"

    def __post_init__(self) -> None:
        if self.op_id < 0:
            raise GraphError("operator id must be non-negative")
        if not self.output_ids:
            raise GraphError(f"operator {self.name!r} produces no outputs")
        if self.flops < 0 or self.workspace_bytes < 0:
            raise GraphError(f"operator {self.name!r} has negative cost attributes")
        unknown_weights = set(self.weight_ids) - set(self.input_ids)
        if unknown_weights:
            raise GraphError(
                f"operator {self.name!r} lists weight ids {sorted(unknown_weights)} "
                "that are not inputs"
            )

    @property
    def data_input_ids(self) -> list[int]:
        """Input tensors that are not weights (activations from upstream ops)."""
        weights = set(self.weight_ids)
        return [t for t in self.input_ids if t not in weights]
