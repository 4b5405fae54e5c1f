"""``repro lint`` — project-specific static analysis for determinism.

The public surface:

* :func:`lint_paths` / :func:`lint_source` run the analyzer;
* :data:`LINT_REGISTRY` / :func:`register_rule` are the open rule registry
  (same machinery as policies/models, including ``REPRO_PLUGINS``);
* :class:`LintFinding`, :class:`LintRule`, :class:`ModuleSource` and
  :class:`Baseline` are the framework types;
* the built-in rules live in :mod:`repro.analysis.lint.rules` and are
  documented in CONTRIBUTING.md.
"""

from .framework import (
    DETERMINISTIC_LAYERS,
    ERROR_CODES,
    LINT_REGISTRY,
    PARSE_ERROR_CODE,
    UNREADABLE_CODE,
    Baseline,
    LintFinding,
    LintRule,
    ModuleSource,
    active_rules,
    dotted_name,
    import_aliases,
    lint_paths,
    lint_source,
    package_path_of,
    register_rule,
)

__all__ = [
    "DETERMINISTIC_LAYERS",
    "ERROR_CODES",
    "LINT_REGISTRY",
    "PARSE_ERROR_CODE",
    "UNREADABLE_CODE",
    "Baseline",
    "LintFinding",
    "LintRule",
    "ModuleSource",
    "active_rules",
    "dotted_name",
    "import_aliases",
    "lint_paths",
    "lint_source",
    "package_path_of",
    "register_rule",
]
