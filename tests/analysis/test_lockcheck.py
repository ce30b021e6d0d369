"""Self-tests for the static lock-discipline checker.

The real tree must be clean; each detection test copies the package tree
into a scratch root (the ``scratch`` fixture), injects one specific
violation, and asserts the checker (pointed at the scratch root with
``--root``) reports exactly that violation class.
"""

import os
import sys

import pytest

from repro.analysis import guards, lockcheck
from repro.analysis.cli import main
from repro.analysis.guards import discover, iter_sources
from repro.analysis.lockcheck import check_lock_discipline, lock_discipline

# Injection anchors in db/executor.py (the scratch copy is text-edited, so
# the anchors must match the real source — the asserts in _edit catch drift).
_LOCKED_REGION = ("with self._lock:\n"
                  "            return sorted({category for category, _ in "
                  "self._materialized})")
_UNLOCKED_REGION = ("if True:\n"
                    "            return sorted({category for category, _ in "
                    "self._materialized})")


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

    def test_one_walk_yields_the_discovered_declarations(self):
        assert lock_discipline() == ([], discover())


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


class TestDeclaration:
    """The ``# guarded by:`` comment is the whole contract."""

    def test_comment_on_a_binding_guards_it(self, scratch):
        _edit(scratch, "db/executor.py",
              "self.corpus = corpus",
              "self.corpus = corpus  # guarded by: self._lock")
        findings = check_lock_discipline(scratch)
        assert _rules(findings) == {"unguarded-read"}
        assert all(finding.message.startswith("QueryExecutor.corpus read")
                   for finding in findings)

    def test_lock_the_class_never_assigns_is_bad_guard(self, scratch):
        _edit(scratch, "db/executor.py",
              "self._epoch = 0  # guarded by: self._lock",
              "self._epoch = 0  # guarded by: self._other_lock")
        findings = check_lock_discipline(scratch)
        assert _rules(findings) == {"bad-guard"}
        (finding,) = findings
        assert "'self._other_lock'" in finding.message
        assert "'_epoch'" in finding.message

    @pytest.mark.parametrize("old, new, reason", [
        ("    def materialized_categories",
         "    # guarded by: self._lock\n    def materialized_categories",
         "binds nothing"),
        ("self._epoch = 0  # guarded by: self._lock",
         "self._epoch = 0  # guarded by: self._lock + 1",
         "not a lock expression"),
        ("class QueryExecutor:",
         "_SCRATCH = {}  # guarded by: self._lock\n\n\nclass QueryExecutor:",
         "outside any class"),
    ], ids=["binds-nothing", "not-a-lock", "outside-any-class"])
    def test_declaration_that_cannot_bind_is_bad_guard(self, scratch, old,
                                                       new, reason):
        _edit(scratch, "db/executor.py", old, new)
        findings = check_lock_discipline(scratch)
        assert _rules(findings) == {"bad-guard"}
        assert reason in findings[0].message

    def test_removing_the_comment_removes_the_check(self, scratch):
        before = len(discover(scratch))
        _edit(scratch, "db/executor.py",
              "self._epoch = 0  # guarded by: self._lock",
              "self._epoch = 0")
        _edit(scratch, "db/executor.py",
              "    def materialized_categories",
              "    def _poke(self):\n"
              "        self._epoch += 1\n\n"
              "    def materialized_categories")
        assert len(discover(scratch)) == before - 1
        assert check_lock_discipline(scratch) == []

    def test_docstring_quoting_the_grammar_is_not_a_declaration(self,
                                                                scratch):
        _edit(scratch, "db/executor.py",
              "    def materialized_categories",
              "    def _documented(self):\n"
              '        """Declarations look like\n\n'
              "        self._scratch = {}  # guarded by: self._lock\n"
              '        """\n\n'
              "    def materialized_categories")
        assert check_lock_discipline(scratch) == []
        assert "_scratch" not in {guard.name for guard in discover(scratch)}


class TestCli:
    def test_clean_tree_exits_zero(self, capsys):
        assert main([]) == 0
        declared = discover()
        helpers = sum(guard.helper for guard in declared)
        assert capsys.readouterr().out == (
            f"analysis: clean ({len(declared) - helpers} guarded attributes, "
            f"{helpers} called-with-lock helpers, 3 durability modules "
            f"discovered from source)\n")

    def test_clean_summary_comes_from_the_checking_walk(self, monkeypatch,
                                                        capsys):
        walks = []

        def counted(root=None):
            walks.append(root)
            return iter_sources(root)

        def rescan(root=None):
            raise AssertionError("the clean summary rescanned the tree")

        monkeypatch.setattr(lockcheck, "iter_sources", counted)
        monkeypatch.setattr(guards, "discover", rescan)
        assert main([]) == 0
        assert walks == [None]
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
        assert "_Metric [_series] guarded by self._lock" in out
        assert "RepresentationStore._own_keys holds self._state.lock" in out

    def test_list_into_a_closed_pipe_ends_quietly(self, monkeypatch):
        # ``--list | head -1``: the reader is gone before the listing ends.
        read_end, write_end = os.pipe()
        os.close(read_end)
        with open(write_end, "w", encoding="utf-8") as stream:
            monkeypatch.setattr(sys, "stdout", stream)
            assert main(["--list"]) == 0
