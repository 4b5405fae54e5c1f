"""``repro lint`` — project-specific static analysis for determinism.

The public surface:

* :func:`lint_paths` / :func:`lint_source` run the analyzer;
* :data:`RULES` is the tuple of rule classes it runs, documented in
  CONTRIBUTING.md;
* :class:`LintFinding`, :class:`LintRule` and :class:`ModuleSource` are the
  framework types.
"""

from .framework import (
    DETERMINISTIC_LAYERS,
    LintFinding,
    LintRule,
    ModuleSource,
    lint_paths,
    lint_source,
    package_path_of,
)
from .rules import RULES

__all__ = [
    "DETERMINISTIC_LAYERS",
    "RULES",
    "LintFinding",
    "LintRule",
    "ModuleSource",
    "lint_paths",
    "lint_source",
    "package_path_of",
]
