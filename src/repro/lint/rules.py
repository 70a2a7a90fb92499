"""The four determinism-invariant rules (RL001, RL003-RL005).

Each rule is a small object with two hooks: ``check_file`` (one parsed
:class:`~repro.lint.core.SourceFile` at a time, scoped by path parts so
fixture corpora exercise the same logic as the live tree) and
``check_project`` (cross-file contract checks anchored at the declaration
sites parsed by :class:`~repro.lint.project.ProjectModel`).
"""

from __future__ import annotations

import ast
import re
from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence, Type

from repro.lint.project import (
    CACHE_PATH,
    CONFIG_PATH,
    README_PATH,
    SPEC_PATH,
    ProjectModel,
    environ_reads,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.lint.core import SourceFile


def _finding(path: str, line: int, col: int, rule: str, message: str) -> "Finding":
    # core imports rules only inside run_lint(), so the runtime import
    # here is cycle-free.
    from repro.lint.core import Finding

    return Finding(path=path, line=line, col=col, rule=rule, message=message)


class Rule:
    """Base rule: subclasses set ``id``/``title`` and override the hooks."""

    id = "RL000"
    title = ""

    def check_file(self, source: "SourceFile", project: ProjectModel) -> List:
        return []

    def check_project(self, project: ProjectModel) -> List:
        return []


class KeyCompleteness(Rule):
    """RL001: declared key-field lists match the key constructors, and no
    env knob changes results (such a value belongs in a keyed field)."""

    id = "RL001"
    title = "determinism-key completeness"

    def check_project(self, project: ProjectModel) -> List:
        findings = []
        for path, line, message in project.problems:
            if path in (CACHE_PATH, SPEC_PATH):
                findings.append(_finding(path, line, 0, self.id, message))

        if project.key_fields is not None and project.determinism_key_params is not None:
            declared = set(project.key_fields)
            actual = set(project.determinism_key_params)
            for name in sorted(actual - declared):
                findings.append(_finding(
                    CACHE_PATH, project.key_fields_line, 0, self.id,
                    f"determinism_key() parameter '{name}' is missing from "
                    f"KEY_FIELDS — the key's domain must be declared in full",
                ))
            for name in sorted(declared - actual):
                findings.append(_finding(
                    CACHE_PATH, project.key_fields_line, 0, self.id,
                    f"KEY_FIELDS declares '{name}' but determinism_key() has "
                    f"no such parameter — stale contract entry",
                ))

        if project.job_key_fields is not None and project.job_fields:
            key = set(project.job_key_fields)
            non_key = set(project.job_non_key_fields)
            fields = set(project.job_fields)
            for name in sorted(fields - key - non_key):
                findings.append(_finding(
                    SPEC_PATH, project.job_fields_line, 0, self.id,
                    f"Job field '{name}' is in neither JOB_KEY_FIELDS nor "
                    f"JOB_NON_KEY_FIELDS — every field must pick a side",
                ))
            for name in sorted((key | non_key) - fields):
                findings.append(_finding(
                    SPEC_PATH, project.job_key_fields_line, 0, self.id,
                    f"'{name}' is declared in the Job key contract but is "
                    f"not a Job field",
                ))
            for name in sorted(key & non_key):
                findings.append(_finding(
                    SPEC_PATH, project.job_key_fields_line, 0, self.id,
                    f"'{name}' appears in both JOB_KEY_FIELDS and "
                    f"JOB_NON_KEY_FIELDS",
                ))
            for name in sorted(key & fields):
                if name not in project.job_key_reads:
                    findings.append(_finding(
                        SPEC_PATH, project.job_key_line, 0, self.id,
                        f"JOB_KEY_FIELDS declares '{name}' but Job.key never "
                        f"reads self.{name} — the field would not reach the "
                        f"persistent key",
                    ))

        for name, entry in sorted(project.env_registry.items()):
            if isinstance(entry, dict) and entry.get("result_affecting"):
                findings.append(_finding(
                    CONFIG_PATH, project.env_registry_line, 0, self.id,
                    f"{name} is registered result_affecting — no key carries "
                    f"an env knob, so a value that changes results belongs "
                    f"in a keyed field such as TSEConfig",
                ))
        return findings


class NondeterminismSources(Rule):
    """RL003: unseeded randomness, wall clock, id()-keyed state and
    set-order iteration are banned from the result plane."""

    id = "RL003"
    title = "nondeterminism sources"

    _RESULT_PLANE = (
        "tse", "workloads", "experiments", "coherence", "system",
        "prefetch", "interconnect", "node",
    )
    _CLOCK_ATTRS = ("time", "monotonic", "perf_counter", "process_time", "now")

    def check_file(self, source: "SourceFile", project: ProjectModel) -> List:
        if source.tree is None or source.is_module("common", "rng.py"):
            return []
        findings = []
        in_result_plane = source.in_package(*self._RESULT_PLANE)

        for node in ast.walk(source.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random":
                        findings.append(_finding(
                            source.path, node.lineno, node.col_offset, self.id,
                            "bare 'import random' — use the seeded "
                            "repro.common.rng.DeterministicRNG",
                        ))
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random":
                    findings.append(_finding(
                        source.path, node.lineno, node.col_offset, self.id,
                        "'from random import ...' — use the seeded "
                        "repro.common.rng.DeterministicRNG",
                    ))
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "random"
                ):
                    findings.append(_finding(
                        source.path, node.lineno, node.col_offset, self.id,
                        f"random.{func.attr}() draws from the process-global "
                        f"unseeded generator — use DeterministicRNG",
                    ))
                elif (
                    in_result_plane
                    and isinstance(func, ast.Attribute)
                    and func.attr in self._CLOCK_ATTRS
                    and isinstance(func.value, ast.Name)
                    and func.value.id in ("time", "datetime")
                ):
                    findings.append(_finding(
                        source.path, node.lineno, node.col_offset, self.id,
                        f"wall-clock read {func.value.id}.{func.attr}() in "
                        f"the result plane — results must be a pure function "
                        f"of the determinism key",
                    ))
            if not in_result_plane:
                continue
            if isinstance(node, ast.Subscript) and self._is_id_call(node.slice):
                findings.append(_finding(
                    source.path, node.lineno, node.col_offset, self.id,
                    "id()-keyed container — object addresses vary per run; "
                    "key on stable identity instead",
                ))
            elif isinstance(node, ast.Dict) and any(
                key is not None and self._is_id_call(key) for key in node.keys
            ):
                findings.append(_finding(
                    source.path, node.lineno, node.col_offset, self.id,
                    "id()-keyed dict literal — object addresses vary per run",
                ))
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                if self._is_set_expr(node.iter):
                    findings.append(_finding(
                        source.path, node.lineno, node.col_offset, self.id,
                        "iteration over a set feeds result-affecting state "
                        "in hash order — sort it first",
                    ))
            elif isinstance(node, ast.comprehension):
                if self._is_set_expr(node.iter):
                    findings.append(_finding(
                        source.path, node.iter.lineno, node.iter.col_offset,
                        self.id,
                        "comprehension over a set runs in hash order — "
                        "sort it first",
                    ))
        return findings

    @staticmethod
    def _is_id_call(node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "id"
        )

    @staticmethod
    def _is_set_expr(node: ast.AST) -> bool:
        if isinstance(node, ast.Set):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset")
        )


class PackedLayoutConsistency(Rule):
    """RL004: the TSE packed plane spells its slot geometry only through
    repro.tse.layout — no magic widths, shifts, masks or formats."""

    id = "RL004"
    title = "packed-layout consistency"

    _STRUCT_FMT_RE = re.compile(r"^[@=<>!]?(\d+|%d)?[QqLl]$")

    def check_file(self, source: "SourceFile", project: ProjectModel) -> List:
        if (
            source.tree is None
            or not source.in_package("tse")
            or source.name == "layout.py"
        ):
            return []
        findings = []

        def flag(node: ast.AST, message: str) -> None:
            findings.append(_finding(
                source.path, node.lineno, node.col_offset, self.id, message
            ))

        for node in ast.walk(source.tree):
            if isinstance(node, ast.Subscript):
                for const in ast.walk(node.slice):
                    if isinstance(const, ast.Constant) and const.value == 8:
                        flag(const, "magic slot width 8 in slice arithmetic "
                                    "— use repro.tse.layout.SLOT_BYTES")
            elif isinstance(node, ast.AugAssign):
                if isinstance(node.op, (ast.Add, ast.Sub)):
                    for const in ast.walk(node.value):
                        if isinstance(const, ast.Constant) and const.value == 8:
                            flag(const, "magic slot width 8 in cursor "
                                        "arithmetic — use SLOT_BYTES")
                elif isinstance(node.op, (ast.LShift, ast.RShift)):
                    if (
                        isinstance(node.value, ast.Constant)
                        and node.value.value == 3
                    ):
                        flag(node.value, "magic shift 3 — use "
                                         "repro.tse.layout.SLOT_SHIFT")
            elif isinstance(node, ast.BinOp):
                if isinstance(node.op, (ast.LShift, ast.RShift)):
                    if isinstance(node.right, ast.Constant) and node.right.value == 3:
                        flag(node.right, "magic shift 3 — use "
                                         "repro.tse.layout.SLOT_SHIFT")
                elif isinstance(node.op, ast.BitAnd):
                    for side in (node.left, node.right):
                        if isinstance(side, ast.Constant) and side.value == 7:
                            flag(side, "magic alignment mask 7 — use "
                                       "SLOT_BYTES - 1")
            elif isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Attribute) and func.attr in (
                    "to_bytes", "from_bytes"
                ):
                    if (
                        node.args
                        and isinstance(node.args[0], ast.Constant)
                        and node.args[0].value == 8
                    ):
                        flag(node.args[0], "magic width 8 in byte conversion "
                                           "— use SLOT_BYTES")
                    for arg in node.args[:2]:
                        if isinstance(arg, ast.Constant) and arg.value in (
                            "little", "big"
                        ):
                            flag(arg, "inline byte order — use "
                                      "repro.tse.layout.SLOT_BYTEORDER")
                for arg in node.args:
                    if (
                        isinstance(arg, ast.Constant)
                        and isinstance(arg.value, str)
                        and self._STRUCT_FMT_RE.match(arg.value)
                    ):
                        flag(arg, f"inline struct format {arg.value!r} — use "
                                  f"SLOT_FORMAT / window_format()")
                    elif (
                        isinstance(arg, ast.BinOp)
                        and isinstance(arg.op, ast.Mod)
                        and isinstance(arg.left, ast.Constant)
                        and isinstance(arg.left.value, str)
                        and self._STRUCT_FMT_RE.match(arg.left.value)
                    ):
                        flag(arg, "inline struct format template — use "
                                  "window_format()")
            elif isinstance(node, ast.Compare):
                for side in [node.left] + list(node.comparators):
                    if isinstance(side, ast.Constant) and side.value in (
                        "little", "big"
                    ):
                        flag(side, "inline byte order comparison — use "
                                   "repro.tse.layout.SLOT_BYTEORDER")
        return findings


class EnvRegistry(Rule):
    """RL005: every REPRO_* environment read lives in config, is declared
    in ENV_REGISTRY, and is documented in README's knob table."""

    id = "RL005"
    title = "environment-knob registry"

    def check_file(self, source: "SourceFile", project: ProjectModel) -> List:
        if source.tree is None:
            return []
        findings = []
        if source.is_module("common", "config.py"):
            registered = project.registered_env_vars()
            for read in environ_reads(source.tree):
                if read.name is not None and read.name not in registered:
                    findings.append(_finding(
                        source.path, read.line, read.col, self.id,
                        f"environment variable {read.name!r} read but not "
                        f"declared in ENV_REGISTRY",
                    ))
            return findings

        for read in environ_reads(source.tree):
            if read.name is not None and read.name.startswith("REPRO_"):
                message = (
                    f"os.environ read of {read.name!r} outside "
                    f"repro.common.config — add a registered accessor there"
                )
            else:
                shown = read.name or "<dynamic>"
                message = (
                    f"os.environ read ({shown}) outside repro.common.config "
                    f"— ambient environment must flow through registered "
                    f"accessors"
                )
            findings.append(_finding(
                source.path, read.line, read.col, self.id, message
            ))
        return findings

    def check_project(self, project: ProjectModel) -> List:
        findings = []
        for path, line, message in project.problems:
            if path in (CONFIG_PATH, README_PATH):
                findings.append(_finding(path, line, 0, self.id, message))

        registered = project.registered_env_vars()
        for name in sorted(registered):
            entry = project.env_registry.get(name)
            accessor = entry.get("accessor") if isinstance(entry, dict) else None
            if not isinstance(accessor, str) or (
                project.config_functions
                and accessor not in project.config_functions
            ):
                findings.append(_finding(
                    CONFIG_PATH, project.env_registry_line, 0, self.id,
                    f"{name}: registered accessor {accessor!r} is not a "
                    f"function in repro.common.config",
                ))
            if project.readme_knobs and name not in project.readme_knobs:
                findings.append(_finding(
                    CONFIG_PATH, project.env_registry_line, 0, self.id,
                    f"{name} is registered but missing from README.md's "
                    f"environment-knob table",
                ))
        for name, line in sorted(project.readme_knobs.items()):
            if registered and name not in registered:
                findings.append(_finding(
                    README_PATH, line, 0, self.id,
                    f"README documents {name} but it is not declared in "
                    f"ENV_REGISTRY",
                ))

        # Constant env names read inside config (directly or via a proxy
        # helper) must each be registered.
        for read in project.config_env_reads:
            if (
                read.name
                and read.name.startswith("REPRO_")
                and read.name not in registered
            ):
                findings.append(_finding(
                    CONFIG_PATH, read.line, read.col, self.id,
                    f"{read.name} read in config but not declared in "
                    f"ENV_REGISTRY",
                ))
        return findings


ALL_RULES: Sequence[Type[Rule]] = (
    KeyCompleteness,
    NondeterminismSources,
    PackedLayoutConsistency,
    EnvRegistry,
)


def rules_by_id(ids: Optional[Iterable[str]] = None) -> List[Rule]:
    """Instantiate rules, optionally restricted to the given rule ids."""
    instances = [cls() for cls in ALL_RULES]
    if ids is None:
        return instances
    wanted = {token.strip().upper() for token in ids if token.strip()}
    unknown = wanted - {rule.id for rule in instances}
    if unknown:
        raise ValueError(f"unknown rule ids: {', '.join(sorted(unknown))}")
    return [rule for rule in instances if rule.id in wanted]
