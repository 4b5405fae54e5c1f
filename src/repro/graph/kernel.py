"""Kernel launch records: the unit replayed by the execution simulator."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property

from ..errors import GraphError


class KernelPhase(Enum):
    """Which phase of the training iteration a kernel belongs to."""

    FORWARD = "forward"
    BACKWARD = "backward"
    OPTIMIZER = "optimizer"


@dataclass(frozen=True)
class Kernel:
    """One CUDA-kernel-equivalent launch in the training trace.

    The migration scheduler and the execution simulator only need to know
    which tensors a kernel touches, in which order kernels run, and how long
    each kernel takes; this record carries exactly that.

    Attributes:
        index: Position in execution order within one training iteration.
        name: Human-readable kernel name.
        phase: Forward / backward / optimizer phase.
        op_id: Id of the originating forward operator (optimizer kernels use
            the id of the operator owning the updated weight).
        input_ids: Tensor ids that must be resident when the kernel starts.
        output_ids: Tensor ids produced (must also be resident / allocated).
        flops: Floating point work, consumed by the cost model.
        bytes_accessed: DRAM traffic estimate, consumed by the cost model.
        workspace_id: Optional id of a temporary workspace tensor that is
            alive only while the kernel runs.
        duration: Profiled/estimated execution time in seconds. ``0.0`` until
            the profiling substrate fills it in.
    """

    index: int
    name: str
    phase: KernelPhase
    op_id: int
    input_ids: tuple[int, ...] = ()
    output_ids: tuple[int, ...] = ()
    flops: float = 0.0
    bytes_accessed: float = 0.0
    workspace_id: int | None = None
    duration: float = 0.0
    #: Efficiency class used by the cost model (inherited from the operator).
    compute_class: str = "generic"

    def __post_init__(self) -> None:
        if self.index < 0:
            raise GraphError("kernel index must be non-negative")
        if self.flops < 0 or self.bytes_accessed < 0 or self.duration < 0:
            raise GraphError(f"kernel {self.name!r} has negative cost attributes")

    # Computed once per kernel: the executor and the policies read it several
    # times per kernel. ``cached_property`` stores the value in the instance
    # ``__dict__``, which a frozen dataclass allows and equality ignores.
    @cached_property
    def tensor_ids(self) -> tuple[int, ...]:
        """All tensors that must be resident in GPU memory while the kernel runs."""
        extra = (self.workspace_id,) if self.workspace_id is not None else ()
        return tuple(dict.fromkeys((*self.input_ids, *self.output_ids, *extra)))

    def with_duration(self, duration: float) -> "Kernel":
        """Return a copy with the profiled duration filled in."""
        if duration < 0:
            raise GraphError("kernel duration cannot be negative")
        return replace(self, duration=duration)


@dataclass
class KernelTrace:
    """An ordered sequence of kernels with cumulative timing helpers."""

    kernels: list[Kernel] = field(default_factory=list)

    def __post_init__(self) -> None:
        for position, kernel in enumerate(self.kernels):
            if kernel.index != position:
                raise GraphError(
                    f"kernel at position {position} has index {kernel.index}; "
                    "trace indices must be consecutive from zero"
                )

    def __len__(self) -> int:
        return len(self.kernels)

    def __iter__(self):
        return iter(self.kernels)

    def __getitem__(self, index: int) -> Kernel:
        return self.kernels[index]

    @property
    def total_compute_time(self) -> float:
        """Sum of all kernel durations (the ideal iteration time)."""
        return sum(k.duration for k in self.kernels)

    def start_times(self) -> list[float]:
        """Ideal (no-stall) start time of each kernel."""
        times: list[float] = []
        now = 0.0
        for kernel in self.kernels:
            times.append(now)
            now += kernel.duration
        return times

    def end_times(self) -> list[float]:
        """Ideal (no-stall) end time of each kernel."""
        times: list[float] = []
        now = 0.0
        for kernel in self.kernels:
            now += kernel.duration
            times.append(now)
        return times
