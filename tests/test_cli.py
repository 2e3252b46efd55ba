import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import epsrs
from epsrs import save_matrix, toy_h0
from epsrs.cli import main
from epsrs.experiments import toy_params

from helpers import dense_jordan


@pytest.fixture()
def toy_matrix_file(tmp_path):
    path = tmp_path / "toy.json"
    save_matrix(toy_h0(toy_params(2e-3)), path)
    return str(path)


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    return header, rows


class TestSrs:
    def test_toy_report(self, toy_matrix_file, capsys):
        assert main(["srs", "--matrix", toy_matrix_file]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["order"] == 2
        assert abs(report["xi"] - 500.001) <= 1e-3
        assert report["converged"] is True

    def test_orthogonal_projector_strength(self, tmp_path, capsys):
        path = tmp_path / "diag.json"
        save_matrix(np.diag([1.0, 2.0]), path)
        assert main(["srs", "--matrix", str(path), "--cluster", "0"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["order"] == 1
        assert abs(report["xi"] - 1.0) <= 1e-12

    def test_missing_file_is_input_error(self):
        assert main(["srs", "--matrix", "does-not-exist.json"]) == 1

    def test_malformed_json_is_input_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"rows": 2}')
        assert main(["srs", "--matrix", str(path)]) == 1

    def test_missing_matrix_flag(self):
        assert main(["srs"]) == 1

    def test_non_convergence_exit_code(self, toy_matrix_file, capsys):
        # contour almost touching the foreign pole never stabilizes
        code = main(["srs", "--matrix", toy_matrix_file,
                     "--rc", str(2e-3 * (1 - 1e-4))])
        assert code == 2
        report = json.loads(capsys.readouterr().out)
        assert report["converged"] is False

    def test_nodes_apply_without_rc(self, toy_matrix_file, capsys):
        # the default contour starts from --nodes; the toy EP2 converges at
        # the first doubling from 1024, at 128 from the default 64
        assert main(["srs", "--matrix", toy_matrix_file, "--nodes", "1024"]) == 0
        assert json.loads(capsys.readouterr().out)["nodes"] == 2048
        assert main(["srs", "--matrix", toy_matrix_file, "--nodes", "100"]) == 1

    def test_unknown_flag_is_input_error(self, toy_matrix_file):
        assert main(["srs", "--matrix", toy_matrix_file, "--bogus"]) == 1

    def test_ambiguous_order_exit_code_and_declaration(self, tmp_path, capsys):
        # separable pair inside the clustering tolerance: ambiguity is a
        # numerical failure (2) unless the order is declared
        path = tmp_path / "ambig.json"
        save_matrix(np.diag([0.0, 1e-10]), path)
        assert main(["srs", "--matrix", str(path)]) == 2
        capsys.readouterr()
        assert main(["srs", "--matrix", str(path), "--order", "1"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["order"] == 1

    def test_order_without_cluster_on_unambiguous_clustering(
            self, toy_matrix_file, capsys):
        # the toy EP2 has an unambiguous order, so --order alone declares
        # nothing and is rejected rather than ignored
        assert main(["srs", "--matrix", toy_matrix_file, "--order", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--order needs --cluster" in captured.err
        assert main(["srs", "--matrix", toy_matrix_file, "--cluster", "0",
                     "--order", "2"]) == 0


class TestFig2:
    def test_bounds_and_columns(self, tmp_path):
        out = tmp_path / "fig2.csv"
        assert main(["fig2", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["detuning", "splitting", "ep2_bound", "ep3_bound"]
        ep3 = {row[3] for row in rows}
        assert len(ep3) == 1  # constant column
        assert abs(ep3.pop() - (1e-8) ** (1 / 3)) <= 1e-12
        for detuning, splitting, ep2, ep3b in rows:
            assert splitting <= max(ep2, ep3b) * (1 + 1e-9)
            if abs(detuning - 0.1) < 5e-3:
                assert splitting <= ep2 < 1e-3


class TestFig3:
    def test_crossover_and_slopes(self, tmp_path):
        out = tmp_path / "fig3.csv"
        assert main(["fig3", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["epsilon", "splitting", "ep2_bound", "ep3_bound"]
        # bounds cross near eps = xi3^2 / xi2^3 ~ 8e-9; in each asymptotic
        # regime the splitting sits below the there-valid bound
        for eps, splitting, ep2, ep3 in rows:
            if eps < 1e-9:
                assert ep2 < ep3
                assert splitting <= ep2 * (1 + 1e-9)
            if eps > 1e-7:
                assert ep2 > ep3
                assert splitting <= ep3 * (1 + 1e-9)
            assert splitting <= max(ep2, ep3) * (1 + 1e-9)

    def test_zero_eps_rejected(self, tmp_path):
        assert main(["fig3", "--eps-min", "0", "--out",
                     str(tmp_path / "x.csv")]) == 1


class TestFig4:
    def test_grid_and_sidecar(self, tmp_path):
        out = tmp_path / "fig4.csv"
        assert main(["fig4", "--out", str(out), "--resolution", "201"]) == 0
        sidecar = tmp_path / "fig4.json"
        assert out.exists() and sidecar.exists()
        c_star = json.loads(sidecar.read_text())["separatrix_c"]
        assert -9.2 < c_star < -8.6
        first = out.read_text().split("\n", 1)[0]
        assert first == "re,im,log10_norm"

    def test_sidecar_beside_extensionless_out(self, tmp_path):
        # the sidecar replaces the file extension, not text after a dot in a
        # directory name
        (tmp_path / "out.d").mkdir()
        out = tmp_path / "out.d" / "fig4"
        assert main(["fig4", "--out", str(out), "--resolution", "41"]) == 0
        assert sorted(p.name for p in (tmp_path / "out.d").iterdir()) == \
            ["fig4", "fig4.json"]
        assert not (tmp_path / "out.json").exists()

    def test_json_out_is_input_error(self, tmp_path, capsys):
        # the sidecar would overwrite the CSV
        out = tmp_path / "f.json"
        assert main(["fig4", "--out", str(out), "--resolution", "41"]) == 1
        assert "sidecar" in capsys.readouterr().err
        assert not out.exists()


class TestFig5:
    def test_deterministic_and_residue_wins(self, tmp_path):
        args = ["fig5", "--d-min", "1e-2", "--d-max", "1e-1", "--seed", "20"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        header, rows = read_csv(out1)
        assert header == ["detuning", "residue_rel_err", "petermann_rel_err"]
        for _, res_err, pet_err in rows:
            assert res_err <= pet_err


class TestScanSurface:
    def test_toy_scan(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "base": {"e_a": 0, "e_b": 1e-3, "a": -1, "b": -1},
            "vary": "e_b",
            "values": {"geomspace": [1e-3, 1e-1, 5]},
            "order": 2,
            "compensate": 1,
        }))
        out = tmp_path / "scan.csv"
        assert main(["scan-surface", "toy", "--spec", str(spec),
                     "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header[:2] == ["parameter", "xi"]
        for row in rows:
            assert row[-1] == 1.0  # valid
            assert abs(row[-2] - 1.0) <= 1e-2  # compensated -> |A||B|

    def test_chirality_scan_toward_ep4(self, tmp_path):
        # b = 0, omega gap imaginary: the EP4 sits at real v = 0.5
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "base": {"omega_is": [1.0, 0.5], "omega_ch": [1.0, -0.5],
                     "v": 1.0, "a": [0.0, 2.0], "b": 0},
            "vary": "v",
            "values": [0.6, 0.55, 0.52],
            "order": 2,
            "compensate": 2,
        }))
        out = tmp_path / "scan.csv"
        assert main(["scan-surface", "chirality", "--spec", str(spec),
                     "--out", str(out)]) == 0
        header, rows = read_csv(out)  # rows sorted by v ascending
        xi = [r[1] for r in rows]
        assert xi[0] > xi[1] > xi[2]  # diverges toward the EP4 at v = 0.5

    def test_bad_spec_is_input_error(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"base": {}, "vary": "e_b", "order": 2}))
        assert main(["scan-surface", "toy", "--spec", str(spec)]) == 1


class TestPetermannCommand:
    def test_records_csv(self, tmp_path, capsys):
        path = tmp_path / "diag.json"
        save_matrix(np.diag([1.0, 3.0]), path)
        assert main(["petermann", "--matrix", str(path)]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "eigen_re,eigen_im,K,proj_norm"
        assert len(lines) == 3

    def test_defective_matrix_is_numerical_failure(self, toy_matrix_file):
        assert main(["petermann", "--matrix", toy_matrix_file]) == 2


class TestDecompose:
    def test_projectors_sum_to_identity(self, toy_matrix_file, capsys):
        assert main(["decompose", "--matrix", toy_matrix_file]) == 0
        payload = json.loads(capsys.readouterr().out)
        from epsrs import matrix_from_json

        total = sum(matrix_from_json(c["projector"])
                    for c in payload["clusters"])
        assert np.linalg.norm(total - np.eye(3)) <= 1e-10
        orders = sorted(c["order"] for c in payload["clusters"])
        assert orders == [1, 2]
        ep = [c for c in payload["clusters"] if c["order"] == 2][0]
        assert len(ep["nilpotent_powers"]) == 1

    def test_order_on_unambiguous_clustering_is_input_error(
            self, toy_matrix_file, tmp_path, capsys):
        assert main(["decompose", "--matrix", toy_matrix_file, "--order", "1"]) == 1
        assert "--order needs --cluster" in capsys.readouterr().err
        path = tmp_path / "ambig.json"
        save_matrix(np.diag([0.0, 1e-10]), path)
        assert main(["decompose", "--matrix", str(path), "--order", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [c["order"] for c in payload["clusters"]] == [1]

    def test_schur_failure_exit_code(self, toy_matrix_file, monkeypatch, capsys):
        import scipy.linalg

        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Schur form not found")

        monkeypatch.setattr(scipy.linalg, "schur", fail)
        assert main(["decompose", "--matrix", toy_matrix_file]) == 2
        assert "Schur factorization" in capsys.readouterr().err

    def test_byte_identical_across_runs_and_threads(self, tmp_path):
        a, _ = dense_jordan(16, 2, np.random.default_rng(16))
        matrix = tmp_path / "ep2.json"
        save_matrix(a, matrix)
        src = str(Path(epsrs.__file__).resolve().parents[1])
        procs = []
        for run, threads in enumerate(("1", "1", "2")):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, [src, env.get("PYTHONPATH")]))
            out = tmp_path / f"run{run}.json"
            procs.append((out, subprocess.Popen(
                [sys.executable, "-m", "epsrs.cli", "decompose", "--matrix",
                 str(matrix), "--tol-cluster", "1e-6", "--out", str(out)],
                env=env)))
        outputs = []
        for out, proc in procs:
            assert proc.wait(timeout=60) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]
        orders = [c["order"] for c in json.loads(outputs[0])["clusters"]]
        assert sorted(orders) == [1] * 14 + [2]


#: The flags shared between subcommands, and the ones each subcommand reads.
SHARED_FLAGS = ["--matrix", "--out", "--seed", "--rc", "--nodes",
                "--tol-cluster", "--order"]
READS = {
    "srs": ["--matrix", "--out", "--rc", "--nodes", "--tol-cluster", "--order"],
    "decompose": ["--matrix", "--out", "--tol-cluster", "--order"],
    "petermann": ["--matrix", "--out"],
    "scan-surface": ["--out", "--rc", "--nodes", "--tol-cluster"],
    "fig5": ["--out", "--rc", "--seed"],
    "fig2": ["--out"],
    "fig3": ["--out"],
    "fig4": ["--out"],
}
UNREAD = [(command, flag) for command, flags in READS.items()
          for flag in SHARED_FLAGS if flag not in flags]
FLAG_VALUES = {"--matrix": "m.json", "--out": "o.csv", "--seed": "3",
               "--rc": "1e-3", "--nodes": "64", "--tol-cluster": "1e-6",
               "--order": "1"}
REQUIRED = {"srs": ["--matrix", "m.json"], "decompose": ["--matrix", "m.json"],
            "petermann": ["--matrix", "m.json"],
            "scan-surface": ["toy", "--spec", "s.json"]}


@pytest.mark.parametrize("command, flag", UNREAD)
def test_unread_flag_is_input_error(command, flag, capsys):
    argv = [command, *REQUIRED.get(command, []), flag, FLAG_VALUES[flag]]
    assert main(argv) == 1
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_each_subcommand_accepts_the_flags_it_reads(toy_matrix_file, tmp_path):
    ambiguous = tmp_path / "ambig.json"
    save_matrix(np.diag([0.0, 1e-10]), ambiguous)
    diagonal = tmp_path / "diag.json"
    save_matrix(np.diag([1.0, 3.0]), diagonal)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "base": {"e_a": 0, "e_b": 1e-3, "a": -1, "b": -1}, "vary": "e_b",
        "values": [1e-3, 1e-2], "order": 2}))
    out = str(tmp_path / "out.csv")
    runs = {
        "srs": ["--matrix", toy_matrix_file, "--out", out, "--rc", "9e-4",
                "--nodes", "128", "--tol-cluster", "1e-6", "--cluster", "0",
                "--order", "2"],
        "decompose": ["--matrix", str(ambiguous), "--out", out,
                      "--tol-cluster", "1e-6", "--order", "1"],
        "petermann": ["--matrix", str(diagonal), "--out", out],
        "scan-surface": ["toy", "--spec", str(spec), "--out", out,
                         "--rc", "1e-4", "--nodes", "32", "--tol-cluster", "1e-6"],
        "fig5": ["--out", out, "--rc", "1e-10", "--seed", "3",
                 "--d-min", "1e-2", "--d-max", "2e-2"],
        "fig2": ["--out", out],
        "fig3": ["--out", out],
        "fig4": ["--out", out, "--resolution", "41"],
    }
    assert set(runs) == set(READS)
    for command, argv in runs.items():
        assert sorted(set(argv) & set(SHARED_FLAGS)) == sorted(READS[command])
        assert main([command, *argv]) == 0, command


def test_console_entry_point(toy_matrix_file):
    proc = subprocess.run(
        [sys.executable, "-m", "epsrs.cli", "srs", "--matrix", toy_matrix_file],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["converged"] is True


def test_help_exits_zero():
    assert main(["--help"]) == 0
