"""Exception hierarchy for the G10 reproduction library."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class ConfigurationError(ReproError):
    """A configuration value is missing, inconsistent, or out of range."""


class GraphError(ReproError):
    """A dataflow graph is malformed (dangling tensors, cycles, bad shapes)."""


class ModelError(ReproError):
    """A model definition could not be constructed."""


class SchedulingError(ReproError):
    """The migration scheduler was given inconsistent inputs."""


class MemoryError_(ReproError):
    """A simulated memory device ran out of capacity or was misused."""


class AllocationError(MemoryError_):
    """A simulated allocation could not be satisfied."""


class TranslationError(ReproError):
    """A virtual address could not be translated by the unified page table."""


class SimulationError(ReproError):
    """The discrete-event simulation reached an inconsistent state."""


class SSDError(ReproError):
    """The SSD substrate was misused (bad page state, out of space, ...)."""


class LintError(ReproError):
    """The static analyzer was given a path it cannot check: missing, a
    directory without Python files, unreadable or unparseable."""
