"""repro.lint: the determinism-invariant static analyzer.

Every determinism guarantee this repository ships — persistent result keys
that name their full input domain, one registry for every ``REPRO_*``
environment knob, a single source for the TSE packed-slot layout — is a
*convention* until something machine-checks it.  This package is that
check: a stdlib-:mod:`ast` analyzer (no third-party dependencies) that
cross-references the code against the declared contracts and fails CI when
they drift.

Rules
-----

========  ==============================================================
RL001     Key completeness: ``KEY_FIELDS`` / ``JOB_KEY_FIELDS`` must
          match their key constructors field-for-field, and no env knob
          may be registered ``result_affecting`` (no key carries one).
RL003     Nondeterminism sources: bare ``random``, wall-clock reads,
          ``id()``-keyed state and set-order iteration are banned from
          the result plane (seeded :mod:`repro.common.rng` is the one
          legitimate randomness source).
RL004     Packed layout: the TSE plane derives every slot width, shift,
          mask, byte order and struct format from
          :mod:`repro.tse.layout` — no magic widths.
RL005     Env registry: every ``REPRO_*`` environment read lives in
          ``repro.common.config``, is declared in ``ENV_REGISTRY`` and
          is documented in README's knob table (both directions).
========  ==============================================================

Findings are suppressed per line with ``# repro-lint: disable=RL00X``
(comma-separate several ids; a comment-only line also covers the next
line).  See ``python -m repro.lint --help`` for the CLI.
"""

from repro.lint.core import Finding, LintResult, SourceFile, run_lint
from repro.lint.project import ProjectModel
from repro.lint.rules import ALL_RULES, rules_by_id

__all__ = [
    "ALL_RULES",
    "Finding",
    "LintResult",
    "ProjectModel",
    "SourceFile",
    "run_lint",
    "rules_by_id",
]
