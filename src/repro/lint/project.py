"""Cross-file contract model: the declarations the rules check against.

The analyzer's whole point is cross-referencing *declared* contracts
against *actual* code, so this module parses the declaration sites once
per run:

* ``src/repro/common/config.py`` — ``ENV_REGISTRY`` (every ``REPRO_*``
  knob with its accessor and ``result_affecting`` bit), every module-level
  function, and which of them read ``os.environ`` (directly or through a
  name-taking helper).
* ``src/repro/experiments/cache.py`` — ``KEY_FIELDS`` and the parameter
  list of ``determinism_key``.
* ``src/repro/service/spec.py`` — ``JOB_KEY_FIELDS`` /
  ``JOB_NON_KEY_FIELDS``, the ``Job`` dataclass fields, and which fields
  the ``key`` property actually reads.
* ``README.md`` — the ``REPRO_*`` rows of the environment-knob table.

Everything is parsed from text (stdlib :mod:`ast`; no imports of the
analyzed code), and ``overrides`` lets tests substitute file contents to
verify that contract *mutations* actually trip the rules.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Any, Dict, FrozenSet, List, Optional, Set, Tuple

CONFIG_PATH = "src/repro/common/config.py"
CACHE_PATH = "src/repro/experiments/cache.py"
SPEC_PATH = "src/repro/service/spec.py"
README_PATH = "README.md"

#: README knob-table rows look like ``| `REPRO_X` | default | effect |``.
_README_KNOB_RE = re.compile(r"^\|\s*`(REPRO_[A-Z0-9_]+)`")


class EnvRead:
    """One ``os.environ`` access: variable name (None if dynamic) + site."""

    __slots__ = ("name", "line", "col")

    def __init__(self, name: Optional[str], line: int, col: int) -> None:
        self.name = name
        self.line = line
        self.col = col


def environ_reads(tree: ast.AST) -> List[EnvRead]:
    """Every ``os.environ`` subscript / method call / membership test."""
    reads: List[EnvRead] = []

    def is_environ(node: ast.AST) -> bool:
        if isinstance(node, ast.Attribute) and node.attr == "environ":
            return True
        return isinstance(node, ast.Name) and node.id == "environ"

    def name_of(node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        return None

    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and is_environ(node.value):
            reads.append(EnvRead(name_of(node.slice), node.lineno, node.col_offset))
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in ("get", "setdefault", "pop")
                and is_environ(func.value)
                and node.args
            ):
                reads.append(EnvRead(name_of(node.args[0]), node.lineno, node.col_offset))
        elif isinstance(node, ast.Compare) and any(
            is_environ(cmp) for cmp in node.comparators
        ):
            if any(isinstance(op, (ast.In, ast.NotIn)) for op in node.ops):
                reads.append(EnvRead(name_of(node.left), node.lineno, node.col_offset))
    return reads


def _module_functions(tree: ast.Module) -> Dict[str, ast.FunctionDef]:
    return {
        node.name: node
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
    }


def _tuple_assignment(
    tree: ast.Module, target_name: str
) -> Tuple[Optional[Tuple[str, ...]], Optional[int]]:
    """A module-level ``NAME = ("a", "b", ...)`` as (values, lineno)."""
    for node in tree.body:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        for target in targets:
            if isinstance(target, ast.Name) and target.id == target_name:
                try:
                    literal = ast.literal_eval(value)
                except (ValueError, TypeError):
                    return None, node.lineno
                if isinstance(literal, (tuple, list)) and all(
                    isinstance(item, str) for item in literal
                ):
                    return tuple(literal), node.lineno
                return None, node.lineno
    return None, None


def _dict_assignment(
    tree: ast.Module, target_name: str
) -> Tuple[Optional[Dict[str, Any]], Optional[int]]:
    for node in tree.body:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        for target in targets:
            if isinstance(target, ast.Name) and target.id == target_name:
                try:
                    literal = ast.literal_eval(value)
                except (ValueError, TypeError):
                    return None, node.lineno
                return (literal if isinstance(literal, dict) else None), node.lineno
    return None, None


class ProjectModel:
    """Parsed contract declarations for one analyzer run."""

    def __init__(self, root: Path, overrides: Optional[Dict[str, str]] = None) -> None:
        self.root = Path(root)
        self.overrides = dict(overrides or {})
        #: (path, line, message) parse/shape problems; rules surface these.
        self.problems: List[Tuple[str, int, str]] = []

        self._parse_config()
        self._parse_cache()
        self._parse_spec()
        self._parse_readme()

    # -- raw text access -------------------------------------------------

    def text(self, relpath: str) -> Optional[str]:
        if relpath in self.overrides:
            return self.overrides[relpath]
        path = self.root / relpath
        try:
            return path.read_text()
        except OSError:
            return None

    def _tree(self, relpath: str) -> Optional[ast.Module]:
        text = self.text(relpath)
        if text is None:
            self.problems.append((relpath, 1, "contract file missing"))
            return None
        try:
            return ast.parse(text)
        except SyntaxError as exc:
            self.problems.append((relpath, exc.lineno or 1, f"unparseable: {exc.msg}"))
            return None

    # -- config.py -------------------------------------------------------

    def _parse_config(self) -> None:
        self.env_registry: Dict[str, Dict[str, Any]] = {}
        self.env_registry_line: int = 1
        self.config_functions: Dict[str, ast.FunctionDef] = {}
        self.config_env_reads: List[EnvRead] = []

        tree = self._tree(CONFIG_PATH)
        if tree is None:
            return

        registry, line = _dict_assignment(tree, "ENV_REGISTRY")
        if registry is None:
            self.problems.append(
                (CONFIG_PATH, line or 1, "ENV_REGISTRY must be a literal dict")
            )
        else:
            self.env_registry = registry
            self.env_registry_line = line or 1

        self.config_functions = _module_functions(tree)

        # Direct environ reads, plus which functions proxy a caller-supplied
        # variable name (``_env_positive_int(name)`` style).
        proxies: Set[str] = set()
        for name, func in self.config_functions.items():
            for read in environ_reads(func):
                if read.name is None:
                    proxies.add(name)
                else:
                    self.config_env_reads.append(read)

        # Calls into a proxy with a literal name count as reads of that name.
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in proxies
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                self.config_env_reads.append(
                    EnvRead(node.args[0].value, node.lineno, node.col_offset)
                )

    # -- cache.py --------------------------------------------------------

    def _parse_cache(self) -> None:
        self.key_fields: Optional[Tuple[str, ...]] = None
        self.key_fields_line: int = 1
        self.determinism_key_params: Optional[Tuple[str, ...]] = None
        self.determinism_key_line: int = 1

        tree = self._tree(CACHE_PATH)
        if tree is None:
            return

        fields, line = _tuple_assignment(tree, "KEY_FIELDS")
        if fields is None:
            self.problems.append(
                (CACHE_PATH, line or 1, "KEY_FIELDS must be a literal tuple of names")
            )
        else:
            self.key_fields = fields
            self.key_fields_line = line or 1

        func = _module_functions(tree).get("determinism_key")
        if func is None:
            self.problems.append((CACHE_PATH, 1, "determinism_key() not found"))
        else:
            args = func.args
            self.determinism_key_params = tuple(
                arg.arg for arg in list(args.posonlyargs) + list(args.args)
                + list(args.kwonlyargs)
            )
            self.determinism_key_line = func.lineno

    # -- spec.py ---------------------------------------------------------

    def _parse_spec(self) -> None:
        self.job_key_fields: Optional[Tuple[str, ...]] = None
        self.job_key_fields_line: int = 1
        self.job_non_key_fields: Tuple[str, ...] = ()
        self.job_fields: Tuple[str, ...] = ()
        self.job_fields_line: int = 1
        self.job_key_reads: FrozenSet[str] = frozenset()
        self.job_key_line: int = 1

        tree = self._tree(SPEC_PATH)
        if tree is None:
            return

        fields, line = _tuple_assignment(tree, "JOB_KEY_FIELDS")
        if fields is None:
            self.problems.append(
                (SPEC_PATH, line or 1, "JOB_KEY_FIELDS must be a literal tuple")
            )
        else:
            self.job_key_fields = fields
            self.job_key_fields_line = line or 1

        non_key, _ = _tuple_assignment(tree, "JOB_NON_KEY_FIELDS")
        self.job_non_key_fields = non_key or ()

        for node in tree.body:
            if isinstance(node, ast.ClassDef) and node.name == "Job":
                self.job_fields = tuple(
                    stmt.target.id
                    for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                )
                self.job_fields_line = node.lineno
                for stmt in node.body:
                    if isinstance(stmt, ast.FunctionDef) and stmt.name == "key":
                        self.job_key_line = stmt.lineno
                        self.job_key_reads = frozenset(
                            sub.attr
                            for sub in ast.walk(stmt)
                            if isinstance(sub, ast.Attribute)
                            and isinstance(sub.value, ast.Name)
                            and sub.value.id == "self"
                        )
                break

    # -- README ----------------------------------------------------------

    def _parse_readme(self) -> None:
        self.readme_knobs: Dict[str, int] = {}
        text = self.text(README_PATH)
        if text is None:
            self.problems.append((README_PATH, 1, "README.md missing"))
            return
        for lineno, line in enumerate(text.splitlines(), start=1):
            match = _README_KNOB_RE.match(line.strip())
            if match:
                self.readme_knobs.setdefault(match.group(1), lineno)

    # -- derived views ---------------------------------------------------

    def registered_env_vars(self) -> FrozenSet[str]:
        return frozenset(self.env_registry)
