"""repro.lint: rule-by-rule fixtures, mutation locks, and the live-tree gate.

Three layers:

* **Fixture corpus** (``tests/fixtures/lint/``): each rule has a file of
  deliberate violations with a pinned expected-findings table, plus a
  suppression fixture and a clean fixture.
* **Mutation locks**: the analyzer is re-run over *hypothetical* trees
  (via ``ProjectModel`` overrides) in which one determinism contract has
  been broken — a key field deleted, an env knob unregistered, a bare
  ``random`` call added — and must flag each one.  These are the tests
  that make the contracts load-bearing.
* **Live-tree gate** (tier 1): ``run_lint`` over ``src/`` must be clean,
  which is the same check CI's lint job enforces via
  ``python -m repro.lint src/``.
"""

import json
from pathlib import Path

import pytest

from repro.common.config import (
    ENV_REGISTRY,
    bench_accesses,
    service_batch_size,
    service_store_override,
)
from repro.lint import ProjectModel, run_lint
from repro.lint.cli import main as lint_main
from repro.lint.reporters import render_json
from repro.lint.rules import rules_by_id

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = REPO_ROOT / "tests" / "fixtures" / "lint"

CONFIG = "src/repro/common/config.py"
CACHE = "src/repro/experiments/cache.py"
SPEC = "src/repro/service/spec.py"


def findings_for(path, overrides=None, rules=None):
    result = run_lint(REPO_ROOT, [path], overrides=overrides, rules=rules)
    assert not result.parse_errors, result.parse_errors
    return result.findings


def lines_and_rules(findings):
    return sorted((f.line, f.rule) for f in findings)


class TestFixtureCorpus:
    def test_rl005_env_reads(self):
        found = findings_for(FIXTURES / "bad_env.py")
        assert lines_and_rules(found) == [
            (11, "RL005"),  # unregistered REPRO_* read
            (15, "RL005"),  # non-REPRO ambient read
            (19, "RL005"),  # a registered knob sniffed outside config
        ]

    def test_rl003_nondeterminism_sources(self):
        found = findings_for(FIXTURES / "tse" / "bad_nondeterminism.py")
        assert lines_and_rules(found) == [
            (7, "RL003"),   # import random
            (12, "RL003"),  # random.random()
            (16, "RL003"),  # time.time() in the result plane
            (20, "RL003"),  # id()-keyed container
            (21, "RL003"),  # id()-keyed dict literal
            (26, "RL003"),  # for ... in set(...)
            (28, "RL003"),  # comprehension over a set literal
        ]

    def test_rl004_magic_widths(self):
        found = findings_for(FIXTURES / "tse" / "bad_widths.py")
        assert lines_and_rules(found) == [
            (11, "RL004"),  # slice arithmetic + 8
            (15, "RL004"),  # cursor += 8
            (20, "RL004"),  # << 3
            (21, "RL004"),  # >> 3
            (26, "RL004"),  # & 7
            (30, "RL004"),  # to_bytes(8, ...)
            (30, "RL004"),  # ... , "little")
            (34, "RL004"),  # struct.Struct("<Q")
            (35, "RL004"),  # struct.Struct("<%dQ" % n)
        ]

    def test_suppressions_silence_findings(self):
        assert findings_for(FIXTURES / "suppressed.py") == []

    def test_clean_fixture_is_clean(self):
        assert findings_for(FIXTURES / "clean.py") == []

    def test_rule_subset_restricts_output(self):
        found = findings_for(FIXTURES, rules=rules_by_id(["RL004"]))
        assert {f.rule for f in found} == {"RL004"}

    def test_unknown_rule_id_rejected(self):
        with pytest.raises(ValueError):
            rules_by_id(["RL999"])


class TestLiveTreeGate:
    def test_src_tree_is_clean(self):
        """Tier-1 lock: the shipped tree has zero findings — identical to
        CI's ``python -m repro.lint src/`` gate."""
        result = run_lint(REPO_ROOT, [REPO_ROOT / "src"])
        assert result.parse_errors == []
        assert result.findings == [], "\n".join(
            f.render() for f in result.findings
        )
        assert result.files_checked > 50

    def test_contract_files_parse(self):
        project = ProjectModel(REPO_ROOT)
        assert project.problems == []
        assert project.key_fields is not None
        assert project.job_key_fields is not None
        assert project.env_registry
        assert project.readme_knobs


class TestMutationLocks:
    """Break one contract per test; the analyzer must notice."""

    def _text(self, rel):
        return (REPO_ROOT / rel).read_text()

    def test_deleting_key_field_trips_rl001(self):
        original = self._text(CACHE)
        broken = '    "tse_config",\n'
        assert original.count(broken) == 1
        mutated = original.replace(broken, "")
        found = findings_for(
            REPO_ROOT / CACHE, overrides={CACHE: mutated}
        )
        assert any(
            f.rule == "RL001" and "tse_config" in f.message for f in found
        )

    def test_unseeded_random_in_tse_trips_rl003(self):
        target = "src/repro/tse/stream_queue.py"
        mutated = self._text(target) + (
            "\nimport random\n\n\ndef _jitter():\n    return random.random()\n"
        )
        found = findings_for(
            REPO_ROOT / target, overrides={target: mutated}
        )
        assert sum(1 for f in found if f.rule == "RL003") == 2

    def test_magic_width_in_tse_trips_rl004(self):
        target = "src/repro/tse/cmob.py"
        mutated = self._text(target) + (
            "\n\ndef _raw(buffer, cursor):\n    return buffer[cursor:cursor + 8]\n"
        )
        found = findings_for(
            REPO_ROOT / target, overrides={target: mutated}
        )
        assert any(f.rule == "RL004" for f in found)

    def test_unregistered_env_read_trips_rl005(self):
        target = "src/repro/tse/simulator.py"
        mutated = self._text(target) + (
            '\nimport os\n\n_TURBO = os.environ.get("REPRO_TURBO")\n'
        )
        found = findings_for(
            REPO_ROOT / target, overrides={target: mutated}
        )
        assert any(
            f.rule == "RL005" and "REPRO_TURBO" in f.message for f in found
        )

    def test_unregistered_read_through_a_config_helper_trips_rl005(self):
        """A helper that takes the variable name hides it from the direct
        read check; its literal-name call sites still count as reads."""
        mutated = self._text(CONFIG) + (
            "\n\ndef _env(name: str) -> Optional[str]:\n"
            "    return os.environ.get(name)\n"
            "\n\ndef turbo() -> Optional[str]:\n"
            '    return _env("REPRO_TURBO")\n'
        )
        found = findings_for(REPO_ROOT / CONFIG, overrides={CONFIG: mutated})
        assert any(
            f.rule == "RL005" and "REPRO_TURBO" in f.message for f in found
        )

    def test_unwired_result_affecting_accessor_trips_rl001(self):
        """No key carries an env knob, so a knob registered as changing
        results is a finding in itself."""
        original = self._text(CONFIG)
        entry = (
            '"accessor": "service_batch_size",\n'
            '        "result_affecting": False,'
        )
        assert entry in original
        mutated = original.replace(entry, entry.replace("False", "True"))
        found = findings_for(
            REPO_ROOT / CONFIG, overrides={CONFIG: mutated}
        )
        assert [f.message for f in found if f.rule == "RL001"] == [
            "REPRO_SERVICE_BATCH is registered result_affecting — no key "
            "carries an env knob, so a value that changes results belongs "
            "in a keyed field such as TSEConfig"
        ]

    def test_undocumented_registry_entry_trips_rl005(self):
        readme = (REPO_ROOT / "README.md").read_text()
        row = "| `REPRO_SERVICE_BATCH`"
        assert row in readme
        start = readme.index(row)
        end = readme.index("\n", start) + 1
        mutated = readme[:start] + readme[end:]
        found = findings_for(
            REPO_ROOT / CONFIG, overrides={"README.md": mutated}
        )
        assert any(
            f.rule == "RL005"
            and "REPRO_SERVICE_BATCH" in f.message
            and "README" in f.message
            for f in found
        )

    def test_job_field_outside_contract_trips_rl001(self):
        original = self._text(SPEC)
        anchor = "    seed: int\n"
        assert original.count(anchor) == 1
        mutated = original.replace(
            anchor, anchor + "    flavor: str = \"plain\"\n"
        )
        found = findings_for(
            REPO_ROOT / SPEC, overrides={SPEC: mutated}
        )
        assert any(
            f.rule == "RL001" and "flavor" in f.message for f in found
        )


class TestEnvAccessors:
    """Behavior locks for the config accessors the RL005 sweep introduced
    (they replaced direct os.environ reads; semantics must be identical)."""

    def test_registry_and_readme_hold_the_kept_knobs(self):
        kept = {"REPRO_SERVICE_BATCH", "REPRO_SERVICE_STORE", "REPRO_BENCH_ACCESSES"}
        assert set(ENV_REGISTRY) == kept
        assert set(ProjectModel(REPO_ROOT).readme_knobs) == kept

    def test_service_batch_knob(self, tmp_path, monkeypatch):
        """``Service`` and a directly built ``Scheduler`` resolve the batch
        size through one chain: the knob, else ``scheduler.BATCH_SIZE``."""
        from repro.service import ResultStore, Scheduler, Service
        from repro.service.scheduler import BATCH_SIZE

        monkeypatch.delenv("REPRO_SERVICE_BATCH", raising=False)
        assert service_batch_size(default=64) == 64
        assert Scheduler(ResultStore(tmp_path / "a.sqlite")).batch_size == BATCH_SIZE
        monkeypatch.setenv("REPRO_SERVICE_BATCH", "17")
        assert service_batch_size(default=64) == 17
        assert Scheduler(ResultStore(tmp_path / "b.sqlite")).batch_size == 17
        with Service(store_path=tmp_path / "c.sqlite", max_workers=1) as service:
            assert service.scheduler.batch_size == 17

    def test_service_store_override(self, monkeypatch):
        monkeypatch.delenv("REPRO_SERVICE_STORE", raising=False)
        assert service_store_override() is None
        monkeypatch.setenv("REPRO_SERVICE_STORE", "")
        assert service_store_override() is None
        monkeypatch.setenv("REPRO_SERVICE_STORE", "/tmp/alt.sqlite")
        assert service_store_override() == "/tmp/alt.sqlite"

    def test_bench_accesses(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_ACCESSES", raising=False)
        assert bench_accesses(default=1234) == 1234
        monkeypatch.setenv("REPRO_BENCH_ACCESSES", "5000")
        assert bench_accesses(default=1234) == 5000

    @pytest.mark.parametrize("knob, read", [
        ("REPRO_SERVICE_BATCH", service_batch_size),
        ("REPRO_BENCH_ACCESSES", bench_accesses),
    ])
    @pytest.mark.parametrize("raw", ["sixteen", "0", "-5", "1.5"])
    def test_bad_integer_knob_is_refused_by_name(self, monkeypatch, knob, read, raw):
        """A value that is not a positive integer raises, naming the knob;
        an empty one reads as unset."""
        monkeypatch.setenv(knob, raw)
        with pytest.raises(ValueError, match=knob):
            read(default=64)
        monkeypatch.setenv(knob, "")
        assert read(default=64) == 64


class TestCLI:
    def test_clean_path_exits_zero(self, capsys):
        status = lint_main([str(FIXTURES / "clean.py"), "--root", str(REPO_ROOT)])
        captured = capsys.readouterr()
        assert status == 0
        assert "0 findings" in captured.out

    def test_findings_exit_one_and_json_shape(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        status = lint_main([
            str(FIXTURES / "bad_env.py"), "--root", str(REPO_ROOT),
            "--format", "json", "--out", str(out),
        ])
        assert status == 1
        payload = json.loads(out.read_text())
        assert payload["clean"] is False
        assert payload["counts"]["RL005"] == 3
        assert {f["rule"] for f in payload["findings"]} == {"RL005"}

    def test_usage_errors_exit_two(self, capsys):
        assert lint_main(["--rules", "RL999", "src"]) == 2
        assert lint_main([str(REPO_ROOT / "no-such-dir")]) == 2

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        listed = [line.split()[0] for line in out.splitlines() if line.strip()]
        assert listed == ["RL001", "RL003", "RL004", "RL005"]

    def test_json_report_is_deterministic(self):
        first = run_lint(REPO_ROOT, [FIXTURES])
        second = run_lint(REPO_ROOT, [FIXTURES])
        assert render_json(first) == render_json(second)
