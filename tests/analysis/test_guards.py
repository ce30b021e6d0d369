"""Self-tests for the source walk the static passes share.

:mod:`repro.analysis.guards` is the one discovery module: the lock checker
and the durability lint both read the tree through :func:`iter_sources` and
honour ``# <tag> ok: <reason>`` exemptions through :func:`suppressed_lines`.
These tests pin that shared behaviour directly, on small synthetic trees
where a scratch copy of the package is not needed.
"""

from repro.analysis.guards import (SOURCE_ROOT, discover, iter_sources,
                                   suppressed_lines)


class TestIterSources:
    def test_paths_are_relative_posix_and_sorted(self, tmp_path):
        (tmp_path / "pkg" / "sub").mkdir(parents=True)
        (tmp_path / "pkg" / "sub" / "b.py").write_text("B = 2\n")
        (tmp_path / "pkg" / "a.py").write_text("A = 1\n")
        (tmp_path / "z.py").write_text("Z = 26\n")
        (tmp_path / "notes.txt").write_text("not a module\n")
        assert list(iter_sources(tmp_path)) == [
            ("pkg/a.py", "A = 1\n"),
            ("pkg/sub/b.py", "B = 2\n"),
            ("z.py", "Z = 26\n"),
        ]

    def test_default_root_is_the_installed_package(self):
        paths = [path for path, _ in iter_sources()]
        assert "analysis/guards.py" in paths
        assert paths == sorted(paths)
        assert len(paths) == len(list(SOURCE_ROOT.rglob("*.py")))


class TestDiscovery:
    def test_listing_order_is_stable(self):
        declared = discover()
        assert declared == discover()
        locations = [(guard.path, guard.line) for guard in declared]
        assert locations == sorted(locations)


class TestSuppressedLines:
    def test_lines_are_numbered_from_one(self):
        source = ("x = 1\n"
                  "y = x  # unguarded ok: snapshot of a replaced reference\n"
                  "z = y\n")
        assert suppressed_lines(source, "unguarded") == {2}

    def test_reason_is_mandatory(self):
        source = ("a = 1  # unguarded ok:\n"
                  "b = 2  # unguarded ok:   \n"
                  "c = 3  # unguarded ok: documented\n")
        assert suppressed_lines(source, "unguarded") == {3}

    def test_tag_selects_the_pass(self):
        source = ("a = 1  # durability ok: scratch file, never read back\n"
                  "b = 2  # unguarded ok: single-threaded setup\n")
        assert suppressed_lines(source, "durability") == {1}
        assert suppressed_lines(source, "unguarded") == {2}
