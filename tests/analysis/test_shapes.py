"""Self-tests for contract discovery and the static shape lints.

Same scheme as ``test_lockcheck.py``: the real tree must check clean, and
each detection test copies the package tree into a scratch root (the
``scratch`` fixture), injects one specific violation class — editing the
``# shape:`` / ``# dtype:`` comments themselves where the contract is what
changes — and asserts the checker reports exactly that class at a
``path:line`` location.
"""

import pytest

from repro.analysis.cli import main
from repro.analysis.shapes import check_shapes
from repro.analysis.shapes_spec import (Contract, discover, parse_contract,
                                        parse_dtypes)


def _edit(root, rel, old, new):
    path = root / rel
    source = path.read_text(encoding="utf-8")
    assert old in source, f"injection anchor not found in {rel}: {old!r}"
    path.write_text(source.replace(old, new, 1), encoding="utf-8")


def _rules(findings):
    return {finding.rule for finding in findings}


class TestContractGrammar:
    def test_round_trip(self):
        contract = parse_contract("(N, H, W, C) -> (N, H', W', K)")
        assert isinstance(contract, Contract)
        assert len(contract.inputs) == 1
        assert contract.inputs[0] == ("N", "H", "W", "C")
        assert contract.output == ("N", "H'", "W'", "K")

    def test_scalar_and_ellipsis(self):
        contract = parse_contract("(N, ...), (...) -> ()")
        assert contract.inputs[0] == ("N", Ellipsis)
        assert contract.inputs[1] == (Ellipsis,)
        assert contract.output == ()

    def test_no_inputs(self):
        contract = parse_contract("-> (S,)")
        assert contract.inputs == ()
        assert contract.output == ("S",)

    def test_dtype_alternatives(self):
        assert parse_dtypes("float32|float64") == {"float32", "float64"}

    def test_unknown_dtype_rejected(self):
        with pytest.raises(ValueError):
            parse_dtypes("float63")

    def test_malformed_contract_rejected(self):
        with pytest.raises(ValueError):
            parse_contract("(N, H W) -> (N,)")


class TestCleanTree:
    def test_installed_tree_is_clean(self):
        assert check_shapes() == []

    def test_scratch_copy_is_clean(self, scratch):
        assert check_shapes(scratch) == []


class TestBatchDimLoss:
    def test_bare_squeeze_detected(self, scratch):
        _edit(scratch, "nn/network.py", "        return flat\n",
              "        return flat.squeeze()\n")
        findings = check_shapes(scratch)
        assert _rules(findings) == {"batch-dim-loss"}
        (finding,) = findings
        assert finding.path == "nn/network.py"
        assert "Sequential.predict_proba" in finding.message
        assert "0-d" in finding.message

    def test_suppression_comment_honored(self, scratch):
        _edit(scratch, "nn/network.py", "        return flat\n",
              "        return flat.squeeze()  # shape ok: self-test fixture\n")
        assert check_shapes(scratch) == []


class TestDtypeWidening:
    def test_float64_creation_crosses_float32_boundary(self, scratch):
        _edit(scratch, "nn/layers.py", "        return np.maximum(x, 0.0)",
              "        x = x.astype(np.float64)\n"
              "        return np.maximum(x, 0.0)")
        _edit(scratch, "nn/layers.py",
              "        # shape: (N, ...) -> (N, ...)\n        # np.maximum, not",
              "        # shape: (N, ...) -> (N, ...)\n"
              "        # dtype: float32\n        # np.maximum, not")
        findings = check_shapes(scratch)
        assert _rules(findings) == {"dtype-widening"}
        (finding,) = findings
        assert "ReLU.forward" in finding.message
        assert "float32 boundary" in finding.message


class TestDiscovery:
    def test_contract_read_from_the_comment(self, scratch):
        _edit(scratch, "nn/layers.py", "# shape: (N, ...) -> (N, D)",
              "# shape: (N, ...) -> (N, E)")
        (flatten,) = [spec for spec in discover(scratch)
                      if spec.qualname == "Flatten.forward"]
        assert flatten.path == "nn/layers.py"
        assert flatten.shape == "(N, ...) -> (N, E)"
        assert flatten.dtype == "any"
        assert check_shapes(scratch) == []

    def test_removing_the_comment_removes_the_contract(self, scratch):
        before = len(discover(scratch))
        _edit(scratch, "nn/layers.py",
              "        # shape: (N, ...) -> (N, D)\n", "")
        assert len(discover(scratch)) == before - 1

    def test_listing_order_is_stable(self, scratch):
        specs = discover(scratch)
        assert specs == discover(scratch)
        paths = [spec.path for spec in specs]
        assert paths == sorted(paths)

    def test_docstring_quoting_the_grammar_is_not_a_contract(self, scratch):
        _edit(scratch, "nn/im2col.py",
              "def conv_output_size(size: int, kernel: int, stride: int, "
              "pad: int) -> int:\n",
              "def conv_output_size(size: int, kernel: int, stride: int, "
              "pad: int) -> int:\n"
              '    """Contracts look like\n'
              "    # shape: (N, D) -> (N, K)\n"
              '    """\n')
        assert "conv_output_size" not in {spec.qualname
                                          for spec in discover(scratch)}
        assert check_shapes(scratch) == []


class TestBadContract:
    def _only_finding(self, scratch):
        findings = check_shapes(scratch)
        assert _rules(findings) == {"bad-contract"}
        (finding,) = findings
        return finding

    @pytest.mark.parametrize("rel, old, new, owner", [
        ("nn/layers.py", "# shape: (N, ...) -> (N, D)",
         "# shape: (N, ... -> (N, D)", "Flatten.forward"),
        ("nn/dtypes.py", "    # dtype: float32|float64\n",
         "    # dtype: float32 or float64\n", "as_float"),
    ])
    def test_unparsable_text(self, scratch, rel, old, new, owner):
        _edit(scratch, rel, old, new)
        finding = self._only_finding(scratch)
        assert finding.path == rel
        assert owner in finding.message
        assert owner not in {spec.qualname for spec in discover(scratch)}

    def test_outside_any_function(self, scratch):
        _edit(scratch, "nn/im2col.py", "def conv_output_size(",
              "# shape: (N,) -> (N,)\ndef conv_output_size(")
        assert "outside any function" in self._only_finding(scratch).message

    def test_second_shape_in_one_function(self, scratch):
        _edit(scratch, "nn/layers.py", "        # shape: (N, ...) -> (N, D)\n",
              "        # shape: (N, ...) -> (N, D)\n"
              "        # shape: (N, ...) -> (N, E)\n")
        finding = self._only_finding(scratch)
        assert "Flatten.forward" in finding.message
        assert "second" in finding.message

    def test_dtype_without_shape(self, scratch):
        _edit(scratch, "nn/im2col.py",
              "def conv_output_size(size: int, kernel: int, stride: int, "
              "pad: int) -> int:\n",
              "def conv_output_size(size: int, kernel: int, stride: int, "
              "pad: int) -> int:\n    # dtype: int64\n")
        finding = self._only_finding(scratch)
        assert "conv_output_size" in finding.message
        assert "without '# shape:'" in finding.message


class TestSilentCopyInLoop:
    def test_concatenate_in_hot_loop_detected(self, scratch):
        _edit(scratch, "nn/network.py",
              """        outputs = []
        for start in range(0, max(x.shape[0], 1), batch_size):
            outputs.append(self.forward(x[start:start + batch_size], training=False))
        if len(outputs) == 1:
            return outputs[0]
        return np.concatenate(outputs, axis=0)""",
              """        out = None
        for start in range(0, max(x.shape[0], 1), batch_size):
            chunk = self.forward(x[start:start + batch_size], training=False)
            out = chunk if out is None else np.concatenate([out, chunk], axis=0)
        return out""")
        findings = check_shapes(scratch)
        assert _rules(findings) == {"silent-copy-in-loop"}
        assert "Sequential.predict" in findings[0].message
        assert "np.concatenate" in findings[0].message


class TestCli:
    def test_clean_tree_exits_zero(self, capsys):
        assert main([]) == 0
        out = capsys.readouterr().out
        assert "analysis: clean" in out
        assert (f"{len(discover())} shape contracts discovered from source"
                in out)

    def test_shape_findings_exit_nonzero_with_locations(self, scratch, capsys):
        _edit(scratch, "nn/network.py", "        return flat\n",
              "        return flat.squeeze()\n")
        assert main(["--root", str(scratch)]) == 1
        out = capsys.readouterr().out
        assert "[batch-dim-loss]" in out
        assert "nn/network.py:" in out
        assert "1 finding(s)" in out

    def test_list_shows_shape_coverage(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert f"shapes: ({len(discover())} contracts)" in out
        assert "Conv2D.forward" in out
        assert "'(N, H, W, C) -> (N, H', W', K)'" in out
