"""Command-line interface: outputs, schemas, exit codes, determinism."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import qbruhat.cli as climod
from qbruhat.cli import cli, main
from qbruhat.coordring import CoordinateModel, SaturationResult
from qbruhat.uqmodules import GradedPiece
from qbruhat.verify import check_stratum_indexing


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, args):
    return runner.invoke(cli, args, catch_exceptions=False)


class TestWeyl:
    def test_info_longest(self, runner):
        res = invoke(runner, ["weyl", "info", "--type", "A2",
                              "--w", "s1 s2 s1"])
        assert res.exit_code == 0
        doc = json.loads(res.output)
        assert doc["schema"] == "qbruhat/weyl-v1"
        assert doc["length"] == 3
        assert doc["reflection_length"] == 1
        assert doc["fixed_space_rank"] == 1
        assert doc["inverse"] == "s1 s2 s1"
        assert doc["left_descents"] == [1, 2]
        assert doc["is_longest"] is True

    def test_info_default_element(self, runner):
        res = invoke(runner, ["weyl", "info", "--type", "B2"])
        doc = json.loads(res.output)
        assert doc["word"] == "e"
        assert doc["fixed_space_rank"] == 2

    def test_elements_listing(self, runner):
        res = invoke(runner, ["weyl", "elements", "--type", "A1"])
        assert res.output == "e\t0\ns1\t1\n"


class TestStrata:
    def test_rank_one_has_three_pairs(self, runner):
        res = invoke(runner, ["strata", "build", "--type", "A1"])
        doc = json.loads(res.output)
        assert doc["schema"] == "qbruhat/strata-v1"
        assert len(doc["pairs"]) == 3

    def test_a2_has_nineteen_pairs(self, runner):
        res = invoke(runner, ["strata", "build", "--type", "A2"])
        doc = json.loads(res.output)
        assert len(doc["pairs"]) == 19

    def test_anchor_restricts(self, runner):
        res = invoke(runner, ["strata", "build", "--type", "A2",
                              "--anchor", "s1 s2"])
        doc = json.loads(res.output)
        assert len(doc["pairs"]) == 8

    def test_csv_shape(self, runner):
        res = invoke(runner, ["strata", "build", "--type", "A1",
                              "--format", "csv"])
        assert res.output == "y,z,rank\ne,e,1\ne,s1,0\ns1,s1,1\n"

    def test_dot_output(self, runner):
        res = invoke(runner, ["strata", "build", "--type", "A1",
                              "--format", "dot"])
        assert res.output.startswith("digraph")

    def test_deterministic(self, runner):
        a = invoke(runner, ["strata", "build", "--type", "A2"]).output
        b = invoke(runner, ["strata", "build", "--type", "A2"]).output
        assert a == b


class TestChar:
    def test_csv_frozen_prefix(self, runner):
        res = invoke(runner, ["char", "sw", "--type", "A2", "--w", "e",
                              "--depth", "2", "--format", "csv"])
        assert res.output == ("weight,coeff\n0 0,1\n-2 1,1\n1 -2,1\n"
                              "-4 2,1\n-1 -1,2\n2 -4,1\n")

    def test_json_schema_and_terms(self, runner):
        res = invoke(runner, ["char", "sw", "--type", "A1", "--w", "s1",
                              "--depth", "3"])
        doc = json.loads(res.output)
        assert doc["schema"] == "qbruhat/char-v1"
        assert doc["w"] == "s1"
        terms = [(tuple(t["weight"]), t["coeff"]) for t in doc["terms"]]
        assert terms == [((0,), 1), ((2,), 1), ((4,), 1), ((6,), 1)]


class TestIdeal:
    def test_demazure_piece_dims(self, runner):
        res = invoke(runner, ["ideal", "demazure", "--type", "A2",
                              "--lambda", "1,1", "--y", "s1",
                              "--sign", "+"])
        doc = json.loads(res.output)
        assert doc["schema"] == "qbruhat/ideal-v1"
        assert doc["module_dim"] == 8
        assert doc["dim"] == 6
        assert sum(1 for _ in doc["basis"]) == 6

    def test_demazure_text_format(self, runner):
        res = invoke(runner, ["ideal", "demazure", "--type", "A1",
                              "--lambda", "1", "--y", "e",
                              "--sign", "-", "--format", "text"])
        assert res.output.startswith("piece dim 0 inside a module of dim 2")

    def test_stratum_frozen_document(self, runner):
        res = invoke(runner, ["ideal", "stratum", "--type", "A2",
                              "--y", "s1", "--z", "s1 s2",
                              "--nu", "1,1", "--bound", "2"])
        doc = json.loads(res.output)
        assert doc["schema"] == "qbruhat/stratum-v1"
        assert doc["piece_dim"] == 6
        assert doc["chain_dims"] == [6, 6, 6]
        assert doc["stabilized"] is True
        assert doc["D_minus"] == [[-1, 2]]
        assert doc["D_plus"] == [[-2, 1]]

    def test_stratum_deterministic(self, runner):
        args = ["ideal", "stratum", "--type", "A2", "--y", "e",
                "--z", "s2", "--nu", "1,0"]
        assert invoke(runner, args).output == invoke(runner, args).output


class TestCentre:
    def test_a2_csv_frozen(self, runner):
        res = invoke(runner, ["centre", "dim", "--type", "A2"])
        assert res.output == ("w,dim,generators\ne,1,z[w1+w2]\ns1,0,\n"
                              "s2,0,\ns1 s2,0,\ns2 s1,0,\n"
                              "s1 s2 s1,1,z[w1+w2]^-1\n")

    def test_b2_json_rows(self, runner):
        res = invoke(runner, ["centre", "dim", "--type", "B2",
                              "--format", "json"])
        doc = json.loads(res.output)
        assert doc["schema"] == "qbruhat/centre-v1"
        dims = {row["w"]: row["dim"] for row in doc["rows"]}
        assert dims["e"] == 2 and dims["s1 s2 s1 s2"] == 2
        assert all(d < 2 for w, d in dims.items()
                   if w not in ("e", "s1 s2 s1 s2"))


SRC = Path(__file__).resolve().parent.parent / "src"

# sha256 of the stdout of ``python -m qbruhat.cli ARGS``, taken when the
# pair posets were built by testing every pair of W x W, the covers by
# scanning length levels and the centre tables by acting on weights
PINNED_STDOUT = {
    "strata build --type F4 --anchor s1":
        "2acdd4b1c993125b90026cb31fa611f9d5be5ee979e7b88b875ec2c159425c4b",
    "strata build --type A4":
        "a5b411158cef07d523a44e02be9f65807c572cf07df1e8a3c64981bcc5b14f4f",
    "centre dim --type F4":
        "b2bdc31756855d411edf5fe6974a09d6a89d06c50ac1745847882f1f8d86535f",
    "weyl elements --type F4":
        "1117ed9bac90ad9453c384ab03e1fdda0391af9d645c65823349b13618440d6b",
    "weyl elements --type E6":
        "d44066a5c2d8aa3f411b7c056e22e0fd583a1c4d5f08bab2a4026a6bfc95c2be",
    "centre dim --type E6":
        "fcaf7501384cb4e17acd56aa2e796abb718b17775797a58f8329960d2dfb8c0a",
    "strata build --type B3 --format csv":
        "0124a83d2a19afaa1e3fdfeb995927abeb2d91bd0995bc04e00bb62e24efa40d",
    "strata build --type B3 --format dot":
        "82aee053d2b60191f03cbefd74d38628c999d00b13a32c17d93252ac4a816e01",
    "strata build --type D4":
        "3db8f6cd605a63601b907b9c21a80b365b543c55e183032736e7e55680e2215f",
    "strata build --type D4 --anchor s2 --format csv":
        "1dbad873c26c1ddfb96a291ed019c72f4426022b895b74ddc41d7b06be3c3956",
    "strata build --type D4 --anchor s2 --format dot":
        "141be91e102d4dd0cb91122186c1f488001b612d4b34ca28e0093a15647a0b17",
}


@pytest.mark.parametrize("args", sorted(PINNED_STDOUT))
def test_pinned_stdout_digest(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "qbruhat.cli"]
                          + args.split(), capture_output=True, env=env,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == PINNED_STDOUT[args]


class TestVerify:
    def test_listing_without_suites(self, runner):
        res = invoke(runner, ["verify"])
        assert res.exit_code == 0
        names = res.output.split()
        assert names == sorted(names)
        assert "example-sl3" in names
        assert "commutation-A2" in names
        assert "eigen-qpowers" in names

    def test_single_suite_passes(self, runner):
        res = invoke(runner, ["verify", "--suite", "scalars"])
        assert res.exit_code == 0
        assert "all" in res.output.splitlines()[-1]
        assert all(line.startswith("ok") for line
                   in res.output.splitlines()[:-1])

    def test_unknown_suite_is_usage_error(self, runner):
        res = runner.invoke(cli, ["verify", "--suite", "nope"])
        assert res.exit_code == 2

    def test_spoiled_saturation_fails_the_suite_and_criterion_05(
            self, runner, monkeypatch):
        """A fresh A2 model whose saturations of (e, e) at omega_1 lose
        the row of the lowest weight fails ``verify --suite strata`` and
        the stratum-indexing check of criterion 05 with one message."""
        model = CoordinateModel("A2")
        real = model.saturation
        e = model.group.identity
        low = model.module((1, 0)).block_order[-1]

        def spoiled(y, z, nu, bound, by="z"):
            sat = real(y, z, nu, bound, by=by)
            if (y, z, tuple(nu)) != (e, e, (1, 0)):
                return sat
            pieces = [GradedPiece(p.module, {wt: sub for wt, sub
                                             in p.blocks.items()
                                             if wt != low})
                      for p in sat.pieces]
            return SaturationResult(y, z, nu, bound, by, pieces)

        monkeypatch.setattr(model, "saturation", spoiled)
        monkeypatch.setattr(CoordinateModel, "get",
                            classmethod(lambda cls, label: model))
        message = ("AssertionError: support extremes of pair (e, e) at "
                   "degree (1, 0) are max [(1, 0)], min [%s]" % (low,))
        res = invoke(runner, ["verify", "--suite", "strata"])
        assert res.exit_code == 1
        lines = res.output.splitlines()
        assert lines[0] == "FAIL strata-pair-recovery -- " + message
        assert lines[1].startswith("ok   strata-rank-extremes")
        assert lines[2:] == ["1 of 2 checks failed"]
        with pytest.raises(AssertionError) as err:
            check_stratum_indexing(model, [(1, 0), (0, 1), (1, 1)], 3)
        assert "AssertionError: %s" % err.value == message


UNUSABLE_ARGS = [
    ["strata", "build", "--type", "Z9"],
    ["weyl", "info", "--type", "A2", "--w", "s9"],
    ["char", "sw", "--type", "A2", "--depth", "-1"],
    ["ideal", "demazure", "--type", "A2", "--lambda", "1,-1",
     "--y", "e", "--sign", "+"],
    ["ideal", "stratum", "--type", "A2", "--y", "s1", "--z", "s2",
     "--nu", "1,1"],
    ["ideal", "stratum", "--type", "A2", "--y", "e", "--z", "e",
     "--nu", "1,1", "--bound", "0"],
    ["ideal", "demazure", "--type", "X9", "--lambda", "1,0",
     "--y", "e", "--sign", "+"],
    ["ideal", "stratum", "--type", "E7", "--y", "e", "--z", "e",
     "--nu", "1,1"],
    ["ideal", "stratum", "--type", "A9", "--y", "e", "--z", "e",
     "--nu", "1,1"],
    ["centre", "dim", "--type", "A0"],
    ["weyl", "info"],
    ["weyl", "info", "--type", "A2", "--bogus"],
    ["nosuch"],
]


class TestExitCodes:
    @pytest.mark.parametrize("args", UNUSABLE_ARGS)
    def test_unusable_arguments_exit_two(self, runner, args):
        res = runner.invoke(cli, args)
        assert res.exit_code == 2

    @pytest.mark.parametrize("args", UNUSABLE_ARGS)
    def test_unusable_arguments_print_one_line(self, monkeypatch, capsys,
                                               args):
        monkeypatch.setattr(sys, "argv", ["qbruhat"] + args)
        with pytest.raises(SystemExit) as exc:
            main()
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("Error: ")

    @pytest.mark.parametrize("token", ["s+1", "s01", "s1_0", "s-1"])
    def test_bad_generator_token_exits_two(self, monkeypatch, capsys,
                                           token):
        monkeypatch.setattr(sys, "argv", ["qbruhat", "weyl", "info",
                                          "--type", "A2", "--w", token])
        with pytest.raises(SystemExit) as exc:
            main()
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("Error: Invalid value for --w: bad "
                                "generator token %r\n" % (token,))

    def test_bare_group_still_prints_its_help(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["qbruhat", "ideal"])
        with pytest.raises(SystemExit) as exc:
            main()
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("Usage: ")
        assert "ideal [OPTIONS] COMMAND" in err and "Commands:" in err

    @pytest.mark.parametrize("args", [["--help"], ["ideal", "--help"]])
    def test_help_exits_zero(self, monkeypatch, capsys, args):
        monkeypatch.setattr(sys, "argv", ["qbruhat"] + args)
        with pytest.raises(SystemExit) as exc:
            main()
        assert exc.value.code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("Usage: ")
        assert captured.err == ""

    def test_invariant_violation_exits_one(self, monkeypatch, capsys):
        def boom(standalone_mode=True):
            raise RuntimeError("boom")

        monkeypatch.setattr(climod, "cli", boom)
        with pytest.raises(SystemExit) as exc:
            main()
        assert exc.value.code == 1
        assert "invariant violation: boom" in capsys.readouterr().err

    def test_module_scope_exits_two(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", [
            "qbruhat", "ideal", "demazure", "--type", "G2",
            "--lambda", "1,0", "--y", "e", "--sign", "+"])
        with pytest.raises(SystemExit) as exc:
            main()
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("out of scope: module arithmetic is "
                                "limited to types A1, A2 and B2\n")

    @pytest.mark.parametrize("label", ["E7", "E8"])
    def test_group_over_cap_exits_two(self, monkeypatch, capsys, label):
        monkeypatch.setattr(sys, "argv", ["qbruhat", "weyl", "info",
                                          "--type", label])
        with pytest.raises(SystemExit) as exc:
            main()
        assert exc.value.code == 2
        assert "over the cap 500000" in capsys.readouterr().err
