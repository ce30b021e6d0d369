"""Self-tests for the durability lint.

Same scratch-copy strategy as the lock-discipline self-tests: the real WAL
and checkpoint modules must lint clean, and surgically removing the append's
fsync, the manifest's fsync, its directory fsync, or adding one write after a
prune must each produce exactly the matching finding.
"""

from repro.analysis.durability import check_durability, durability_modules


def _edit(root, rel, old, new):
    path = root / rel
    source = path.read_text(encoding="utf-8")
    assert old in source, f"injection anchor not found in {rel}: {old!r}"
    path.write_text(source.replace(old, new, 1), encoding="utf-8")


def _rules(findings):
    return {finding.rule for finding in findings}


class TestCoverage:
    def test_modules_are_the_ones_calling_os_fsync(self):
        # core/persistence.py joined when a checkpoint's predicate
        # repositories began to be fsynced before the manifest names them;
        # db/persistence.py syncs only through helpers (fsync_path from
        # core/persistence.py, fsync_dir from db/wal.py).
        assert durability_modules() == ["core/persistence.py",
                                        "db/persistence.py", "db/wal.py"]

    def test_a_new_fsync_caller_is_covered(self, scratch):
        _edit(scratch, "db/catalog.py", "from __future__ import annotations\n",
              "from __future__ import annotations\n\nimport os\n\n\n"
              "def _sync(fd):\n    os.fsync(fd)\n")
        assert "db/catalog.py" in durability_modules(scratch)


class TestCleanTree:
    def test_installed_tree_is_clean(self):
        assert check_durability() == []

    def test_scratch_copy_is_clean(self, scratch):
        assert check_durability(scratch) == []


_MANIFEST_FSYNC = ("    fsync_path(tmp_manifest)\n"
                   "    os.replace(tmp_manifest, root / _MANIFEST_FILE)")
_MANIFEST_NO_FSYNC = "    os.replace(tmp_manifest, root / _MANIFEST_FILE)"


class TestDetections:
    def test_removed_manifest_fsync_detected(self, scratch):
        # The checkpoint's manifest swap: dropping the temp file's fsync
        # leaves the os.replace publishing potentially-unwritten bytes.
        _edit(scratch, "db/persistence.py", _MANIFEST_FSYNC,
              _MANIFEST_NO_FSYNC)
        findings = check_durability(scratch)
        assert _rules(findings) == {"fsync-before-rename"}
        (finding,) = findings
        assert finding.path == "db/persistence.py"
        assert "save_database" in finding.message

    def test_removed_dirsync_detected(self, scratch):
        _edit(scratch, "db/persistence.py",
              "\n    fsync_dir(root)\n",
              "\n    pass\n")
        findings = check_durability(scratch)
        assert _rules(findings) == {"dirsync-after-rename"}
        assert "directory fsync" in findings[0].message

    def test_removed_append_fsync_detected(self, scratch):
        # The WAL's whole append protocol is one writev, one fsync: without
        # the fsync a record is acknowledged while still in the page cache,
        # and no test notices.
        _edit(scratch, "db/wal.py",
              "                        pending[0] = memoryview(pending[0])"
              "[written:]\n"
              "                os.fsync(fd)\n",
              "                        pending[0] = memoryview(pending[0])"
              "[written:]\n")
        findings = check_durability(scratch)
        assert _rules(findings) == {"fsync-after-append"}
        (finding,) = findings
        assert finding.path == "db/wal.py"
        assert "_append" in finding.message

    def test_write_after_prune_detected(self, scratch):
        prune = ("    _prune_stale_images(root / _PREDICATES_DIR, "
                 "repositories)\n")
        _edit(scratch, "db/persistence.py", prune,
              prune + "    (root / \"late.json\").write_text(\"{}\")\n")
        findings = check_durability(scratch)
        assert _rules(findings) == {"write-after-prune"}
        assert finding_path(findings) == "db/persistence.py"

    def test_suppression_comment_honored(self, scratch):
        _edit(scratch, "db/persistence.py", _MANIFEST_FSYNC,
              _MANIFEST_NO_FSYNC + "  # durability ok: self-test fixture")
        assert check_durability(scratch) == []


def finding_path(findings):
    (finding,) = findings
    return finding.path
