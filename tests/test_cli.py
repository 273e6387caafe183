"""Tests for matrix file I/O and the command-line interface."""

import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import gtcert

from gtcert import (
    CampaignConfig,
    EnsembleSpec,
    HermiticityViolation,
    HermitianMatrix,
    MatrixParseError,
    NonFiniteInput,
    dumps_matrix,
    load_matrix,
    loads_matrix,
    random_hermitian,
    run_campaign,
    save_matrix,
)
from gtcert import cli
from gtcert.cli import main


def write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


ZERO_2 = {"n": 2, "re": [[0.0, 0.0], [0.0, 0.0]]}
# the README's example pair: a real file (no "im") and a complex one
REAL_2 = {"n": 2, "re": [[1.0, 0.0], [0.0, -1.0]]}
COMPLEX_2 = {"n": 2, "re": [[0.0, 0.0], [0.0, 0.0]], "im": [[0.0, 1.0], [-1.0, 0.0]]}


class TestMatrixIO:
    def test_real_document_loads(self, tmp_path):
        # no "im" block: the entries stay float64 for the real symmetric solver
        path = write(tmp_path / "a.json", {"n": 2, "re": [[1.0, 0.0], [0.0, 2.0]]})
        a = load_matrix(path)
        assert a.entries.dtype == np.float64
        np.testing.assert_array_equal(a.entries, np.diag([1.0, 2.0]))

    def test_imaginary_block(self):
        a = loads_matrix(json.dumps({
            "n": 2, "re": [[1.0, 0.0], [0.0, 1.0]], "im": [[0.0, 1.0], [-1.0, 0.0]]
        }))
        assert a.entries.dtype == np.complex128
        assert a.entries[0, 1] == 1j and a.entries[1, 0] == -1j

    def test_round_trip_is_bit_exact(self, tmp_path):
        for seed, kind in ((1, "gue"), (2, "goe"), (3, "diag")):
            a = random_hermitian(EnsembleSpec(kind, 5, 1.0, seed))
            path = tmp_path / f"{kind}.json"
            save_matrix(a, str(path))
            b = load_matrix(str(path))
            assert b.entries.dtype == a.entries.dtype
            assert np.array_equal(a.entries.view(np.uint64), b.entries.view(np.uint64))

    # exactly Hermitian entries at the edges of float64: the smallest
    # subnormal (which M/2 + M*/2 rounded to 0), a larger subnormal, +-1e308
    # and signed zeros, on and off the diagonal
    EDGE_RE = [[5e-324, -0.0, 1e308], [-0.0, -1e308, 2.0**-1070], [1e308, 2.0**-1070, -0.0]]
    EDGE_IM = [[-0.0, 5e-324, -1e308], [-5e-324, 0.0, -0.0], [1e308, 0.0, -0.0]]

    @pytest.mark.parametrize("complex_entries", [False, True])
    def test_edge_values_round_trip_bit_exact(self, complex_entries, tmp_path):
        doc = {"n": 3, "re": self.EDGE_RE}
        values = np.array(self.EDGE_RE)
        if complex_entries:
            doc["im"] = self.EDGE_IM
            values = values.astype(complex)
            values.imag = self.EDGE_IM
        loaded = loads_matrix(json.dumps(doc))
        assert loaded.entries.dtype == values.dtype
        assert loaded.entries.tobytes() == values.tobytes()
        path = tmp_path / "a.json"
        save_matrix(HermitianMatrix(values), str(path))
        assert json.loads(path.read_text()) == doc
        assert load_matrix(str(path)).entries.tobytes() == values.tobytes()

    def test_zero_imaginary_part_reloads_real(self, tmp_path):
        values = np.array([[-0.0, 1.5], [1.5, 2.0**-1022]])
        a = HermitianMatrix(values.astype(complex))
        path = tmp_path / "a.json"
        save_matrix(a, str(path))
        assert "im" not in json.loads(path.read_text())
        b = load_matrix(str(path))
        assert b.entries.dtype == np.float64
        assert np.array_equal(b.entries.view(np.uint64), values.view(np.uint64))

    def test_im_omitted_for_real_matrices(self):
        a = HermitianMatrix(np.diag([1.0, 2.0]).astype(complex))
        assert "im" not in json.loads(dumps_matrix(a))
        b = HermitianMatrix(np.array([[0.0, 1j], [-1j, 0.0]]))
        assert "im" in json.loads(dumps_matrix(b))

    def test_hermiticity_enforced_on_load(self):
        with pytest.raises(HermiticityViolation):
            loads_matrix(json.dumps({"n": 2, "re": [[0.0, 1.0], [0.0, 0.0]]}))

    @pytest.mark.parametrize("doc", [
        {"re": [[0.0]]},                                      # missing n
        {"n": 1},                                             # missing re
        {"n": 2, "re": [[0.0]]},                              # shape mismatch
        {"n": 1, "re": [[0.0]], "im": [[0.0, 0.0]]},          # im shape mismatch
        {"n": 0, "re": []},                                   # n < 1
        {"n": 1, "re": [["x"]]},                              # non-numeric
        {"n": True, "re": [[0.0]]},                           # bool is not an int here
        {"n": 1, "re": [[True]]},                             # bool is not a number
        {"n": 1, "re": [[0.0]], "im": [[False]]},
        {"n": 1, "re": [["1.5"]]},                            # nor is a numeric string
        [1, 2, 3],                                            # not an object
    ])
    def test_malformed_documents(self, doc):
        with pytest.raises(MatrixParseError):
            loads_matrix(json.dumps(doc))

    @pytest.mark.parametrize("text", [
        '{"n": 2, "re": [[NaN, 0.0], [0.0, 0.0]]}',
        '{"n": 1, "re": [[1e999]]}',
        '{"n": 1, "re": [[0.0]], "im": [[-Infinity]]}',
    ])
    def test_non_finite_entries(self, text, tmp_path, capsys):
        # reported as such, not as a NaN or infinite Hermiticity residual
        with pytest.raises(NonFiniteInput):
            loads_matrix(text)
        path = tmp_path / "m.json"
        path.write_text(text)
        assert main(["eval", "--fn", "lse", "--matrix", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err

    def test_entries_near_the_double_limit_load(self):
        # (M + M*)/2 overflowed to inf and failed the exact-symmetry check
        re = [[1e308, -1e308], [-1e308, 1.7e308]]
        im = [[0.0, 1e308], [-1e308, 0.0]]
        a = loads_matrix(json.dumps({"n": 2, "re": re, "im": im}))
        np.testing.assert_array_equal(a.entries, np.array(re) + 1j * np.array(im))

    def test_invalid_json_text(self):
        with pytest.raises(MatrixParseError):
            loads_matrix("{not json")


class TestEvalCommand:
    def test_lse_of_zero_matrix(self, tmp_path, capsys):
        path = write(tmp_path / "a.json", ZERO_2)
        assert main(["eval", "--fn", "lse", "--matrix", path]) == 0
        out = capsys.readouterr().out.strip()
        assert float(out) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_lse_of_a_complex_file(self, tmp_path, capsys):
        # the spectrum of [[0, i], [-i, 0]] is {-1, 1}
        path = write(tmp_path / "b.json", COMPLEX_2)
        assert main(["eval", "--fn", "lse", "--matrix", path]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(math.log(2 * math.cosh(1.0)), abs=1e-15)

    def test_out_document(self, tmp_path):
        path = write(tmp_path / "a.json", {"n": 2, "re": [[3.0, 0.0], [0.0, 4.0]]})
        out = tmp_path / "r.json"
        assert main(["eval", "--fn", "pnorm:2", "--matrix", path, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["fn"] == "pnorm:2"
        assert doc["value"] == pytest.approx(5.0, abs=1e-12)

    def test_out_document_names_the_exponent_in_full(self, tmp_path):
        # the name kept 6 significant digits: pnorm:2.12346, another function
        path = write(tmp_path / "a.json", {"n": 2, "re": [[3.0, 0.0], [0.0, 4.0]]})
        out = tmp_path / "r.json"
        assert main(["eval", "--fn", "pnorm:2.123456789", "--matrix", path, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["fn"] == "pnorm:2.123456789"

    def test_unknown_function_is_usage_error(self, tmp_path, capsys):
        path = write(tmp_path / "a.json", ZERO_2)
        assert main(["eval", "--fn", "median", "--matrix", path]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["eval", "--fn", "lse", "--matrix", "/nonexistent.json"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_non_hermitian_file(self, tmp_path, capsys):
        path = write(tmp_path / "bad.json", {"n": 2, "re": [[0.0, 1.0], [0.0, 0.0]]})
        assert main(["eval", "--fn", "lse", "--matrix", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err

    def test_overflowing_value_is_an_error(self, tmp_path, capsys):
        # the sum 2e308 overflows to inf; eval used to print inf and exit 0
        path = write(tmp_path / "a.json", {"n": 2, "re": [[1e308, 0.0], [0.0, 1e308]]})
        out = tmp_path / "r.json"
        for extra in ([], ["--out", str(out)]):
            assert main(["eval", "--fn", "sum", "--matrix", path] + extra) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error:") and captured.err.count("\n") == 1
            assert "not finite" in captured.err
        assert not out.exists()

    def test_large_p_norm_is_finite(self, tmp_path, capsys):
        # 800^1e6 overflowed inside (sum |x|^p)^(1/p), so eval exited 2, where the norm is 800
        path = write(tmp_path / "a.json", {"n": 2, "re": [[800.0, 0.0], [0.0, 0.0]]})
        assert main(["eval", "--fn", "pnorm:1e6", "--matrix", path]) == 0
        assert capsys.readouterr().out == "800\n"


class TestCampaignCommands:
    def test_verify_gt_writes_report(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = main(["verify-gt", "--dim", "4", "--trials", "50", "--seed", "42",
                     "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["check_kind"] == "GT_WEAK"
        assert doc["violations"] == 0
        assert doc["trials"] == 50
        assert doc["ensemble"] == {"kind": "gue", "n": 4, "scale": 1.0, "seed": 42}
        assert "GT_WEAK" in capsys.readouterr().out

    def test_seed_is_required(self, capsys):
        # by every campaign row, as one error line
        for command in cli.CAMPAIGNS:
            assert main([command, "--dim", "4"]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and err.count("\n") == 1 and "--seed" in err, err

    def test_determinism_modulo_wall_time(self, tmp_path):
        args = ["verify-convexity", "--dim", "3", "--trials", "40", "--seed", "7"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--parallel", "--out", str(b)]) == 0
        da, db = json.loads(a.read_text()), json.loads(b.read_text())
        da["wall_time_s"] = db["wall_time_s"] = 0.0
        assert json.dumps(da) == json.dumps(db)

    def test_ensemble_and_scale_flags(self, tmp_path):
        out = tmp_path / "r.json"
        code = main(["verify-gt", "--dim", "3", "--trials", "20", "--ensemble", "diag",
                     "--scale", "2.5", "--seed", "1", "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["ensemble"]["kind"] == "diag"

    def test_hessian_check_emits_two_reports(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = main(["hessian-check", "--dim", "5", "--trials", "30", "--seed", "3",
                     "--out", str(out)])
        assert code == 0
        docs = json.loads(out.read_text())
        assert [d["check_kind"] for d in docs] == ["HESSIAN_PSD", "HESSIAN_FD_MATCH"]
        assert all(d["violations"] == 0 for d in docs)
        assert docs[1]["tol"] == 1e-10  # --tol's default, as for HESSIAN_PSD
        printed = capsys.readouterr().out
        assert "HESSIAN_PSD" in printed and "HESSIAN_FD_MATCH" in printed

    def test_davis_check_with_named_function(self, tmp_path):
        out = tmp_path / "r.json"
        code = main(["davis-check", "--dim", "4", "--trials", "30", "--seed", "5",
                     "--fn", "pnorm:2.0", "--out", str(out)])
        assert code == 0
        docs = json.loads(out.read_text())
        assert [d["check_kind"] for d in docs] == ["UNITARY_INVARIANCE", "DAVIS_RESTRICTION"]
        assert [d["fn"] for d in docs] == ["pnorm:2", "pnorm:2"]  # the canonical name

    @pytest.mark.parametrize("argv, shown", [
        (["davis-check", "--fn", "max"], {"fn": "max", "scale": "1.0"}),
        (["verify-gt", "--scale", "2.123456789"], {"scale": "2.123456789", "tol": "1e-10"}),
        (["verify-convexity", "--tol", "0"], {"fn": "lse", "tol": "0.0"}),
    ])
    def test_summary_line_names_the_whole_config(self, tmp_path, capsys, argv, shown):
        # the line omitted fn and printed the scale as 2.12346; each line's
        # fields now rebuild its report's config, which replays its worst trial
        out = tmp_path / "r.json"
        main(argv + ["--dim", "3", "--trials", "20", "--seed", "5", "--out", str(out)])
        lines = capsys.readouterr().out.splitlines()
        docs = json.loads(out.read_text())
        docs = docs if isinstance(docs, list) else [docs]
        assert len(lines) == len(docs)
        for line, doc in zip(lines, docs):
            kind, rest = line.split(": ", 1)
            fields = dict(field.split("=", 1) for field in rest.split()[:-1])  # drop [PASS]
            assert fields.items() >= shown.items(), line
            assert ("fn" in fields) == ("fn" in doc), line
            cfg = CampaignConfig(
                kind, EnsembleSpec(fields["ensemble"], int(fields["n"]), float(fields["scale"]), int(fields["seed"])),
                int(fields["trials"]), float(fields["tol"]), fn=fields.get("fn"))
            assert cfg.check_kind == doc["check_kind"] and cfg.tol == doc["tol"] and cfg.fn == doc.get("fn")
            assert gtcert.replay(cfg, int(fields["worst_trial_seed"])).slack == doc["worst_slack"], line

    @pytest.mark.parametrize("command, fns", [
        ("davis-check", ["lse", "lse"]),
        ("verify-convexity", ["lse"]),
        ("verify-gt", [None]),
        ("hessian-check", [None, None]),
    ])
    def test_reports_name_the_lifted_function(self, tmp_path, command, fns):
        # a report without --fn names lse where its kind lifts a function,
        # and has no "fn" where it checks lse itself
        out = tmp_path / "r.json"
        assert main([command, "--dim", "3", "--trials", "10", "--seed", "5", "--out", str(out)]) == 0
        docs = json.loads(out.read_text())
        docs = docs if isinstance(docs, list) else [docs]
        assert [d.get("fn") for d in docs] == fns

    @pytest.mark.parametrize("command, configs", [
        ("verify-gt", [("GT_WEAK", 1e-9, None)]),
        ("verify-convexity", [("MIDPOINT_CONVEXITY", 1e-9, None)]),
        ("hessian-check", [("HESSIAN_PSD", 1e-9, None), ("HESSIAN_FD_MATCH", 1e-9, None)]),
        ("davis-check", [("UNITARY_INVARIANCE", 1e-9, "max"), ("DAVIS_RESTRICTION", 1e-9, "max")]),
    ])
    def test_reports_match_the_library(self, tmp_path, capsys, command, configs):
        # the --out document is the library's report of each config the
        # subcommand names: --tol reaches every kind, and --fn reaches both
        # davis-check kinds
        out = tmp_path / "r.json"
        argv = [command, "--dim", "3", "--trials", "40", "--seed", "21", "--ensemble", "goe",
                "--scale", "1.5", "--tol", "1e-9", "--out", str(out)]
        assert main(argv + (["--fn", "max"] if command == "davis-check" else [])) == 0
        ens = EnsembleSpec("goe", 3, 1.5, 21)
        expected = [run_campaign(CampaignConfig(kind, ens, 40, tol, fn=fn)).to_json_dict()
                    for kind, tol, fn in configs]
        written = json.loads(out.read_text())
        written = written if isinstance(written, list) else [written]
        for doc in written + expected:
            doc["wall_time_s"] = 0.0
        assert written == expected

    def test_non_finite_campaign_exits_2_without_nan(self, tmp_path, capsys):
        # the sum of 8 entries up to 8e307 overflows; the NaN deviation used to
        # count as a violation and was written as a bare NaN into the report
        out = tmp_path / "r.json"
        code = main(["davis-check", "--dim", "8", "--trials", "20", "--seed", "1", "--ensemble", "diag",
                     "--scale", "8e307", "--fn", "sum", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "trial_seed=" in err
        assert not out.exists()

    def test_report_written_even_on_violation(self, tmp_path):
        # force a violation with an unattainable tolerance on the FD side is not
        # reachable through flags, so use trials with tol too tight for PSD noise
        out = tmp_path / "r.json"
        code = main(["hessian-check", "--dim", "8", "--trials", "20", "--seed", "11",
                     "--tol", "0", "--out", str(out)])
        docs = json.loads(out.read_text())
        if any(d["violations"] for d in docs):
            assert code == 1
        else:  # exact zero tolerance can still pass if the solver rounds up
            assert code == 0


class TestSingleCheckMode:
    def test_worked_pair(self, tmp_path, capsys):
        a = write(tmp_path / "a.json", {"n": 2, "re": [[1.0, 0.0], [0.0, -1.0]]})
        b = write(tmp_path / "b.json", {"n": 2, "re": [[0.0, 1.0], [1.0, 0.0]]})
        out = tmp_path / "r.json"
        code = main(["verify-gt", "--matrix", a, "--matrix-b", b, "--seed", "0",
                     "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["mode"] == "single"
        assert doc["lhs"] == pytest.approx(math.log(2 * math.cosh(math.sqrt(2))), abs=1e-9)
        assert doc["rhs"] == pytest.approx(2 * math.log(2 * math.cosh(1)), abs=1e-9)
        assert doc["pass"] is True

    def test_convexity_single(self, tmp_path):
        a = write(tmp_path / "a.json", {"n": 2, "re": [[2.0, 0.0], [0.0, 0.0]]})
        b = write(tmp_path / "b.json", {"n": 2, "re": [[0.0, 0.0], [0.0, 2.0]]})
        out = tmp_path / "r.json"
        assert main(["verify-convexity", "--matrix", a, "--matrix-b", b, "--seed", "0",
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["slack"] == pytest.approx(0.4337808304830272, abs=1e-12)

    def test_overflowing_sum_of_finite_files_is_not_an_input_error(self, tmp_path, capsys):
        # both files are finite, and A + B holds 3.4e308: the error said
        # "matrix contains NaN or infinity", blaming the files
        w = write(tmp_path / "w.json", {"n": 2, "re": [[1.7e308, 0.0], [0.0, -1.7e308]]})
        assert main(["verify-gt", "--seed", "0", "--matrix", w, "--matrix-b", w]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and "computed matrix is not finite" in err, err
        assert "NaN or infinity" not in err

    @pytest.mark.parametrize("command, check", [
        ("verify-gt", gtcert.gt_weak_check), ("verify-convexity", gtcert.convexity_check),
    ])
    def test_mixed_real_complex_pair_is_the_library_check(self, tmp_path, command, check):
        # a real file beside a complex one is checked as the library checks the loaded pair
        a, b = write(tmp_path / "a.json", REAL_2), write(tmp_path / "b.json", COMPLEX_2)
        out = tmp_path / "r.json"
        assert main([command, "--matrix", a, "--matrix-b", b, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        result = check(load_matrix(a), load_matrix(b), 1e-10)
        expected = (result.lhs, result.rhs, result.slack)
        assert [doc[k].hex() for k in ("lhs", "rhs", "slack")] == [v.hex() for v in expected]

    @pytest.mark.parametrize("command", ["verify-gt", "verify-convexity"])
    def test_seed_is_not_needed(self, tmp_path, capsys, command):
        # the single check draws nothing, and exited 2 without --seed
        a, b = write(tmp_path / "a.json", REAL_2), write(tmp_path / "b.json", COMPLEX_2)
        seen = []
        for seed in ([], ["--seed", "0"]):
            out = tmp_path / "r.json"
            assert main([command, "--matrix", a, "--matrix-b", b, "--out", str(out)] + seed) == 0
            seen.append((capsys.readouterr(), out.read_text()))
        assert seen[0] == seen[1]

    def test_lonely_matrix_flag(self, tmp_path, capsys):
        a = write(tmp_path / "a.json", ZERO_2)
        assert main(["verify-gt", "--matrix", a, "--seed", "0"]) == 2
        assert "matrix-b" in capsys.readouterr().err


class TestErratumCommand:
    def test_two_point_instance(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = main(["erratum-dkd", "--x", "0,1.0986123", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["max_offdiag_diff"] <= 1e-14
        np.testing.assert_allclose(doc["diag_diff"], [0.125, 0.375], atol=1e-6)
        assert doc["max_diag_diff"] == pytest.approx(0.375, abs=1e-6)
        assert doc["pass"] is True
        printed = capsys.readouterr().out
        assert "hessian:" in printed and "dkd:" in printed

    def test_uniform_point_has_no_gap(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(["erratum-dkd", "--x", "1,1,1", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["max_diag_diff"] <= 1e-15

    def test_malformed_vector(self, capsys):
        assert main(["erratum-dkd", "--x", "1,abc"]) == 2

    def test_overflowing_spread_is_one_error_line(self):
        # x - max x overflows to -inf, and numpy's warning is not printed next to the error
        done = run_module("erratum-dkd", "--x=1.7e308,-1.7e308")
        assert done.returncode == 2
        assert done.stderr.startswith("error:") and done.stderr.count("\n") == 1


def run_python(*args, **env):
    """`python args...` in a fresh interpreter, with this checkout's gtcert and `env` added."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(gtcert.__file__)))
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=120)


def run_module(*args):
    """`python -m gtcert args...` in a fresh interpreter, with this checkout's gtcert."""
    return run_python("-m", "gtcert", *args)


class TestModuleEntryPoint:
    def test_python_dash_m_runs_the_cli(self):
        proc = run_module("verify-gt", "--dim", "2", "--trials", "5", "--seed", "1")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("GT_WEAK: ")
        assert run_module().returncode == 2

    def test_overflowing_davis_check_prints_only_the_error_line(self):
        # inf - inf in the deviation printed numpy's two-line RuntimeWarning
        # first; pytest's own warning capture hides it in-process
        proc = run_module("davis-check", "--fn", "sum", "--seed", "1", "--trials", "5",
                          "--dim", "8", "--ensemble", "diag", "--scale", "8e307")
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1, proc.stderr

    @pytest.mark.parametrize("command, trials", [("verify-gt", "3"), ("hessian-check", "1")])
    def test_overflowing_samples_print_only_the_error_line(self, command, trials):
        # the samplers' overflow at scale 1.7e308 printed numpy RuntimeWarnings
        # before the error line (five for verify-gt, one for hessian-check)
        proc = run_module(command, "--seed", "0", "--trials", trials, "--dim", "4",
                          "--scale", "1.7e308")
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1, proc.stderr
        assert "sampled draw contains NaN or infinity" in proc.stderr

    def test_raising_campaign_names_its_lowest_failing_trial(self):
        # trial 3's A + B overflows, and trial 989, later in the same chunk, draws an infinity
        proc = run_module("verify-gt", "--seed", "12", "--dim", "1", "--trials", "1100", "--scale", "5e307")
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: trial 3 (") and proc.stderr.count("\n") == 1, proc.stderr

    def test_documents_do_not_depend_on_the_string_hash_seed(self, tmp_path):
        # three campaign commands, and eval of a lifted function, write the same
        # documents under two string-hash seeds, wall_time_s aside (an eval document has none)
        b = write(tmp_path / "b.json", COMPLEX_2)
        calls = {
            "davis": ["davis-check", "--ensemble", "goe", "--seed", "3", "--dim", "4", "--trials", "30"],
            "hessian": ["hessian-check", "--seed", "3", "--dim", "4", "--trials", "10"],
            "gt": ["verify-gt", "--seed", "3", "--dim", "4", "--trials", "30"],
            "eval": ["eval", "--fn", "pnorm:2.5", "--matrix", b],
        }
        script = ("import json, sys\nfrom gtcert.cli import main\n"
                  "for argv in json.loads(sys.argv[1]):\n    assert main(argv) == 0, argv\n")
        for hash_seed in ("0", "1"):
            argvs = [argv + ["--out", str(tmp_path / f"{name}{hash_seed}.json")] for name, argv in calls.items()]
            proc = run_python("-c", script, json.dumps(argvs), PYTHONHASHSEED=hash_seed)
            assert proc.returncode == 0, proc.stderr

        def text(path):
            docs = json.loads(path.read_text())
            for doc in docs if isinstance(docs, list) else [docs]:
                doc.pop("wall_time_s", None)
            return json.dumps(docs)

        for name in calls:
            assert text(tmp_path / f"{name}0.json") == text(tmp_path / f"{name}1.json"), name

    def test_overflowing_single_check_prints_only_the_error_line(self, tmp_path):
        # A + B overflows for A = B = [[1e308]]; numpy's RuntimeWarning came first
        path = write(tmp_path / "m.json", {"n": 1, "re": [[1e308]]})
        proc = run_module("verify-gt", "--seed", "0", "--matrix", path, "--matrix-b", path)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1, proc.stderr

    @pytest.mark.parametrize("command", ["verify-gt", "verify-convexity"])
    def test_infinite_tol_single_check_is_a_usage_error(self, tmp_path, command):
        # --tol inf printed PASS and exited 0, while campaign mode exited 2
        path = write(tmp_path / "m.json", {"n": 2, "re": [[1.0, 0.5], [0.5, -1.0]]})
        proc = run_module(command, "--seed", "0", "--matrix", path, "--matrix-b", path, "--tol", "inf")
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1, proc.stderr

    def test_overflowing_spectrum_prints_only_the_error_line(self, tmp_path):
        # eigvalsh gives [0, inf] for this finite matrix, and lse's inf - inf
        # printed numpy's RuntimeWarning first
        path = write(tmp_path / "m.json", {"n": 2, "re": [[1e308, 1e308], [1e308, 1e308]]})
        proc = run_module("eval", "--fn", "lse", "--matrix", path)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1, proc.stderr

    def test_infinite_imaginary_part_prints_only_the_error_line(self, tmp_path):
        # re + 1j * im with an infinite im entry printed numpy's RuntimeWarning first
        path = write(tmp_path / "m.json", {"n": 1, "re": [[0.0]], "im": [[-math.inf]]})
        proc = run_module("eval", "--fn", "lse", "--matrix", path)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1, proc.stderr


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_unknown_flag(self, capsys):
        assert main(["verify-gt", "--seed", "1", "--bogus"]) == 2
        # of the campaign subcommands, only davis-check lifts a named function
        for command in ("verify-gt", "verify-convexity", "hessian-check"):
            assert main([command, "--seed", "1", "--fn", "max"]) == 2

    def test_no_arguments(self, capsys):
        assert main([]) == 2

    def test_seed_out_of_range(self, capsys):
        # the range is checks.require_seed's; a seed out of range or not an integer is one usage error
        for seed, message in ((str(2**64), "seed must be an unsigned 64-bit integer, got '18446744073709551616'"),
                              ("-1", "seed must be an unsigned 64-bit integer, got '-1'"),
                              ("1.5", "seed must be an unsigned 64-bit integer, got '1.5'")):
            assert main(["verify-gt", "--seed", seed]) == 2
            errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
            assert len(errors) == 1 and f"argument --seed: {message}" in errors[0], errors

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "subcommand" in capsys.readouterr().out

    def test_help_names_each_default(self, capsys):
        # the help text spells each default from its add_argument
        assert main(["verify-gt", "--help"]) == 0
        text = " ".join(capsys.readouterr().out.split())  # argparse wraps to the terminal width
        for fragment in ("--dim N matrix dimension (default 8)", "--trials T number of trials (default 1000)",
                         "--ensemble {gue,goe,diag} random ensemble (default gue)",
                         "--scale S ensemble scale (default 1.0)",
                         "--tol R check tolerance (default 1e-10)"):
            assert fragment in text, fragment


class TestParserReuse:
    def calls(self, tmp_path):
        a = write(tmp_path / "a.json", {"n": 2, "re": [[1.0, 0.0], [0.0, -1.0]]})
        b = write(tmp_path / "b.json", {"n": 2, "re": [[0.0, 1.0], [1.0, 0.0]]})
        return [
            ["verify-gt", "--matrix", a, "--matrix-b", b, "--seed", "0"],
            ["verify-gt", "--seed", "1", "--bogus"],
            ["eval", "--fn", "lse", "--matrix", a],
            ["--help"],
            ["hessian-check", "--dim", "4", "--trials", "20", "--seed", "3"],
            ["eval", "--fn", "pnorm:2"],
            ["davis-check", "--dim", "3", "--trials", "20", "--seed", "5", "--fn", "max"],
            ["verify-gt", "--help"],
            ["verify-gt", "--matrix", b, "--matrix-b", a, "--seed", "0"],
        ]

    def outcomes(self, tmp_path, capsys):
        out = tmp_path / "out.json"
        seen = []
        for argv in self.calls(tmp_path):
            if out.exists():
                out.unlink()
            code = main(argv + ["--out", str(out)] if "--help" not in argv else argv)
            printed = capsys.readouterr()
            written = out.read_text() if out.exists() else None
            if written is not None:  # the one field a report may vary in
                written = re.sub(r'"wall_time_s": [^,\n]+', '"wall_time_s": 0', written)
            seen.append((argv, code, printed.out, printed.err, written))
        return seen

    def test_repeated_calls_match_a_fresh_parser_per_call(self, tmp_path, capsys, monkeypatch):
        cli._parser.cache_clear()
        reused = self.outcomes(tmp_path, capsys)
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        fresh = self.outcomes(tmp_path, capsys)
        assert reused == fresh
        assert [code for _, code, *_ in reused] == [0, 2, 0, 0, 0, 2, 0, 0, 0]
        assert all(written for argv, code, _, _, written in reused
                   if code == 0 and "--help" not in argv)

    @pytest.mark.parametrize("command, name", [
        ("verify-gt", "gt_weak_check"), ("verify-convexity", "convexity_check"),
    ])
    def test_single_checks_go_through_the_module_binding(self, tmp_path, capsys, monkeypatch,
                                                         command, name):
        # the span tracer patches cli's module attributes after the parser is
        # built; a check captured by the parser bypassed it
        a = write(tmp_path / "a.json", {"n": 2, "re": [[1.0, 0.0], [0.0, -1.0]]})
        argv = [command, "--matrix", a, "--matrix-b", a, "--seed", "0"]
        assert main(argv) == 0
        called = []
        check = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *args: called.append(1) or check(*args))
        assert main(argv) == 0 and called == [1]

    def test_build_parser_returns_a_new_parser(self):
        assert cli.build_parser() is not cli.build_parser()

    def test_main_builds_its_parser_once(self, tmp_path, capsys, monkeypatch):
        built = []
        build = cli.build_parser

        def counting():
            built.append(1)
            return build()

        monkeypatch.setattr(cli, "build_parser", counting)
        cli._parser.cache_clear()
        for argv in self.calls(tmp_path):
            main(argv)
        assert len(built) == 1
