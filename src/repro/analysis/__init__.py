"""Correctness tooling for the concurrent engine: static checks + sanitizer.

This package is the repository's race detector and invariant linter.  The
engine built up in PRs 4–7 relies on conventions — per-shard locks with
snapshot reads, an fsync/rename durability protocol, a fixed lock order —
that the test suite can pass while still being wrong.  Everything here
exists to turn those conventions into enforced contracts, each declared
once, in the source:

``guards.py``
    Discovery of the ``# guarded by:`` comments: guarded attributes and
    called-with-lock helpers.  The comment is the whole declaration.  Also
    the one source walk and ``# <tag> ok:`` suppression reader the static
    passes share.

``lockcheck.py``
    AST pass flagging reads/writes of guarded attributes outside a
    ``with <lock>:`` region (plus escape analysis for guarded mutable
    containers returned by reference, and declarations that cannot bind).

``durability.py``
    AST pass over the modules that call ``os.fsync`` (``db/wal.py`` and
    ``db/persistence.py``) enforcing the fsync-before-rename /
    dirsync-after-rename / write-before-prune ordering that crash-safety
    rests on.

``sanitizer.py``
    Runtime side: instrumented locks (installed through
    :mod:`repro.locking`) that record per-thread acquisition order and
    detect lock-order inversions, plus assertions that every guarded
    attribute is rebound, and every called-with-lock helper entered, with
    its lock held.  Activated over the whole test suite with ``pytest
    --sanitize``.

Run the static passes (``cli.py``) from the repo root::

    PYTHONPATH=src python -m repro.analysis          # exits 1 on findings
    PYTHONPATH=src python -m repro.analysis --list   # show what is checked

Suppress a deliberate exception with ``# unguarded ok: <reason>`` (lock
discipline) or ``# durability ok: <reason>`` (fsync ordering) on the
offending line; a reason is mandatory.  Both the CLI and a ``--sanitize``
test pass run as the ``analysis`` job in CI.
"""
