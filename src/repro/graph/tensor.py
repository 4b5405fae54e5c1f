"""Tensor metadata used by the dataflow graph and the vitality analyzer."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Sequence

from ..config import FP32_BYTES, PAGE_SIZE
from ..errors import GraphError


class TensorKind(Enum):
    """Semantic class of a tensor in a DNN training iteration.

    The paper (§4.2) distinguishes *global* tensors (weights, optimizer state)
    which live across iterations, from *intermediate* tensors (activations,
    gradients, workspaces) which are born and die within one iteration.
    """

    WEIGHT = "weight"
    ACTIVATION = "activation"
    GRADIENT = "gradient"
    WEIGHT_GRADIENT = "weight_gradient"
    WORKSPACE = "workspace"
    OPTIMIZER_STATE = "optimizer_state"
    INPUT = "input"

    @property
    def is_global(self) -> bool:
        """Whether tensors of this kind persist across training iterations."""
        return self in (TensorKind.WEIGHT, TensorKind.OPTIMIZER_STATE)


@dataclass(frozen=True)
class TensorInfo:
    """Static description of one tensor in the dataflow graph.

    Attributes:
        tensor_id: Unique integer id within the graph.
        name: Human-readable name (e.g. ``"layer3.conv2.weight"``).
        shape: Logical shape; the first dimension is usually the batch size.
        kind: Semantic class, see :class:`TensorKind`.
        dtype_bytes: Bytes per element (FP32 by default, as in the paper).
    """

    tensor_id: int
    name: str
    shape: tuple[int, ...]
    kind: TensorKind
    dtype_bytes: int = FP32_BYTES

    def __post_init__(self) -> None:
        if self.tensor_id < 0:
            raise GraphError(f"tensor id must be non-negative, got {self.tensor_id}")
        if not self.shape:
            raise GraphError(f"tensor {self.name!r} has an empty shape")
        if any(d <= 0 for d in self.shape):
            raise GraphError(f"tensor {self.name!r} has non-positive dimension: {self.shape}")
        if self.dtype_bytes <= 0:
            raise GraphError("dtype_bytes must be positive")

    @property
    def num_elements(self) -> int:
        """Total number of elements."""
        return math.prod(self.shape)

    # Read per residency check and migration: computed once per tensor and
    # stored in the instance ``__dict__``, which a frozen dataclass allows and
    # equality ignores (as ``Kernel.tensor_ids``).
    @cached_property
    def size_bytes(self) -> int:
        """Size of the tensor in bytes."""
        return self.num_elements * self.dtype_bytes

    @property
    def num_pages(self) -> int:
        """Number of 4 KB UVM pages the tensor occupies."""
        return max(1, math.ceil(self.size_bytes / PAGE_SIZE))

    @property
    def is_global(self) -> bool:
        """Whether the tensor persists across training iterations (§4.2)."""
        return self.kind.is_global

    def with_id(self, tensor_id: int) -> "TensorInfo":
        """Return a copy with a different id (used when merging graphs)."""
        return TensorInfo(
            tensor_id=tensor_id,
            name=self.name,
            shape=self.shape,
            kind=self.kind,
            dtype_bytes=self.dtype_bytes,
        )


def make_tensor(
    tensor_id: int,
    name: str,
    shape: Sequence[int],
    kind: TensorKind,
    dtype_bytes: int = FP32_BYTES,
) -> TensorInfo:
    """Convenience constructor accepting any integer sequence as shape."""
    return TensorInfo(
        tensor_id=tensor_id,
        name=name,
        shape=tuple(int(d) for d in shape),
        kind=kind,
        dtype_bytes=dtype_bytes,
    )


@dataclass
class TensorSet:
    """A mutable registry of tensors with auto-assigned ids."""

    _tensors: dict[int, TensorInfo] = field(default_factory=dict)
    _next_id: int = 0

    def add(
        self,
        name: str,
        shape: Sequence[int],
        kind: TensorKind,
        dtype_bytes: int = FP32_BYTES,
    ) -> TensorInfo:
        """Create, register and return a new tensor."""
        tensor = make_tensor(self._next_id, name, shape, kind, dtype_bytes)
        self._tensors[tensor.tensor_id] = tensor
        self._next_id += 1
        return tensor

    def register(self, tensor: TensorInfo) -> TensorInfo:
        """Register an externally-constructed tensor, enforcing id uniqueness."""
        if tensor.tensor_id in self._tensors:
            raise GraphError(f"duplicate tensor id {tensor.tensor_id}")
        self._tensors[tensor.tensor_id] = tensor
        self._next_id = max(self._next_id, tensor.tensor_id + 1)
        return tensor

    def copy(self) -> "TensorSet":
        """An independent registry holding the same (immutable) tensors."""
        return TensorSet(dict(self._tensors), self._next_id)

    def __getitem__(self, tensor_id: int) -> TensorInfo:
        return self._tensors[tensor_id]

    def __contains__(self, tensor_id: int) -> bool:
        return tensor_id in self._tensors

    def __len__(self) -> int:
        return len(self._tensors)

    def __iter__(self):
        return iter(self._tensors.values())

    @property
    def total_bytes(self) -> int:
        """Sum of all registered tensor sizes."""
        return sum(t.size_bytes for t in self._tensors.values())
