"""Self-tests for the static lock-discipline checker.

The real tree must be clean; each detection test copies the analyzed
modules into a scratch package root, injects one specific violation, and
asserts the checker (pointed at the scratch root with ``--root``) reports
exactly that violation class.
"""

import shutil

import pytest

from repro.analysis.cli import main
from repro.analysis.guards import (CONFINED, DURABILITY_MODULES, REGISTRY,
                                   SOURCE_ROOT)
from repro.analysis.lockcheck import check_lock_discipline

# Injection anchors in db/executor.py (the scratch copy is text-edited, so
# the anchors must match the real source — the asserts in _edit catch drift).
_LOCKED_REGION = ("with self._lock:\n"
                  "            return sorted({category for category, _ in "
                  "self._materialized})")
_UNLOCKED_REGION = ("if True:\n"
                    "            return sorted({category for category, _ in "
                    "self._materialized})")


@pytest.fixture()
def scratch(tmp_path):
    """A scratch package root holding copies of every analyzed module."""
    root = tmp_path / "repro"
    needed = {spec.path for spec in REGISTRY}
    needed.update(confined.path for confined in CONFINED)
    needed.update(DURABILITY_MODULES)
    for rel in sorted(needed):
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        shutil.copy(SOURCE_ROOT / rel, root / rel)
    return root


def _edit(root, rel, old, new):
    path = root / rel
    source = path.read_text(encoding="utf-8")
    assert old in source, f"injection anchor not found in {rel}: {old!r}"
    path.write_text(source.replace(old, new, 1), encoding="utf-8")


def _rules(findings):
    return {finding.rule for finding in findings}


class TestCleanTree:
    def test_installed_tree_is_clean(self):
        assert check_lock_discipline() == []

    def test_scratch_copy_is_clean(self, scratch):
        assert check_lock_discipline(scratch) == []


class TestDetections:
    def test_unguarded_read_detected(self, scratch):
        _edit(scratch, "db/executor.py", _LOCKED_REGION, _UNLOCKED_REGION)
        findings = check_lock_discipline(scratch)
        assert _rules(findings) == {"unguarded-read"}
        (finding,) = findings
        assert finding.path == "db/executor.py"
        assert "_materialized" in finding.message
        assert "materialized_categories" in finding.message

    def test_unguarded_write_detected(self, scratch):
        _edit(scratch, "db/executor.py",
              "    def materialized_categories",
              "    def _poke(self):\n"
              "        self._epoch += 1\n\n"
              "    def materialized_categories")
        findings = check_lock_discipline(scratch)
        assert _rules(findings) == {"unguarded-write"}
        assert "_epoch" in findings[0].message

    def test_mutator_call_counts_as_write(self, scratch):
        _edit(scratch, "db/executor.py",
              "    def materialized_categories",
              "    def _wipe(self):\n"
              "        self._materialized.clear()\n\n"
              "    def materialized_categories")
        findings = check_lock_discipline(scratch)
        assert _rules(findings) == {"unguarded-write"}

    def test_escape_of_guarded_mutable_detected(self, scratch):
        _edit(scratch, "db/executor.py",
              "    def materialized_categories",
              "    def _leak(self):\n"
              "        with self._lock:\n"
              "            return self._materialized\n\n"
              "    def materialized_categories")
        findings = check_lock_discipline(scratch)
        assert _rules(findings) == {"escape"}
        assert "_leak" in findings[0].message

    def test_closure_does_not_inherit_lock_region(self, scratch):
        _edit(scratch, "db/executor.py",
              "    def materialized_categories",
              "    def _deferred(self):\n"
              "        with self._lock:\n"
              "            def later():\n"
              "                return self._epoch\n"
              "            return later\n\n"
              "    def materialized_categories")
        findings = check_lock_discipline(scratch)
        assert _rules(findings) == {"unguarded-read"}

    def test_suppression_comment_honored(self, scratch):
        _edit(scratch, "db/executor.py", _LOCKED_REGION,
              _UNLOCKED_REGION + "  # unguarded ok: self-test fixture")
        assert check_lock_discipline(scratch) == []


class TestAnnotationCrossCheck:
    def test_wrong_lock_in_annotation_is_drift(self, scratch):
        _edit(scratch, "db/executor.py",
              "self._epoch = 0  # guarded by: self._lock",
              "self._epoch = 0  # guarded by: self._other_lock")
        findings = check_lock_discipline(scratch)
        assert _rules(findings) == {"annotation-drift"}
        assert "_epoch" in findings[0].message

    def test_annotation_without_manifest_entry_is_drift(self, scratch):
        _edit(scratch, "db/executor.py",
              "self.corpus = corpus",
              "self.corpus = corpus  # guarded by: self._lock")
        findings = check_lock_discipline(scratch)
        assert _rules(findings) == {"annotation-drift"}
        assert "missing from the guards.py manifest" in findings[0].message

    def test_manifest_entry_without_annotation_is_missing(self, scratch):
        _edit(scratch, "db/executor.py",
              "self._epoch = 0  # guarded by: self._lock",
              "self._epoch = 0")
        findings = check_lock_discipline(scratch)
        assert _rules(findings) == {"missing-annotation"}
        assert "QueryExecutor._epoch" in findings[0].message


class TestCli:
    def test_clean_tree_exits_zero(self, capsys):
        assert main([]) == 0
        assert "analysis: clean" in capsys.readouterr().out

    def test_findings_exit_nonzero_with_locations(self, scratch, capsys):
        _edit(scratch, "db/executor.py", _LOCKED_REGION, _UNLOCKED_REGION)
        assert main(["--root", str(scratch)]) == 1
        out = capsys.readouterr().out
        assert "[unguarded-read]" in out
        assert "db/executor.py:" in out
        assert "1 finding(s)" in out

    def test_list_shows_coverage(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "QueryExecutor" in out
        assert "db/wal.py" in out
