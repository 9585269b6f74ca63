"""Command-line interface: subcommands, file formats, and exit codes.

Exit code contract: 0 ok, 1 self-test failure, 2 a ValueError from the
library (wrong dimension for a method, an out-of-range count, a piece that
is not a proper cell) or ``optimize --restarts`` below 1, 3 infeasible
simplex, 4 a DegeneracyError from the library, 5 an unwritable output or a
simplex file that cannot be read or is not a valid simplex.
"""

import json

import numpy as np
import pytest

from mwkit import cells
from mwkit.cells import random_simplex
from mwkit.cli import main, load_simplex, simplex_to_document
from mwkit.width import optimize_width, regular_simplex, regular_tetrahedron_width
from test_cells import EQUIDISTANT_FACE_POINT
from test_edge_formula import reference_width_d4
from test_width import count_calls


def reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def write_simplex(path, S, metadata=None):
    with open(path, "w") as fh:
        json.dump(simplex_to_document(S, metadata), fh)
    return str(path)


@pytest.fixture
def regular3(tmp_path):
    return write_simplex(tmp_path / "reg3.json", regular_simplex(3))


@pytest.fixture
def regular4(tmp_path):
    return write_simplex(tmp_path / "reg4.json", regular_simplex(4))


class TestLoadSimplex:
    def test_roundtrip(self, regular3):
        S = load_simplex(regular3)
        assert S.d == 3
        assert np.max(np.abs(S.vertices - regular_simplex(3).vertices)) < 1e-15

    def test_missing_file(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            load_simplex(str(tmp_path / "nope.json"))
        assert exc.value.code == 5

    def test_bad_shape(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"d": 3, "vertices": [[1, 0, 0]], "metadata": {}}))
        with pytest.raises(SystemExit) as exc:
            load_simplex(str(p))
        assert exc.value.code == 5

    def test_auto_normalize(self, tmp_path):
        V = regular_simplex(3).vertices * (1 + 1e-6)
        p = tmp_path / "off.json"
        p.write_text(json.dumps({"d": 3, "vertices": V.tolist(), "metadata": {}}))
        S = load_simplex(str(p), auto_normalize=True)
        assert np.max(np.abs(np.linalg.norm(S.vertices, axis=1) - 1.0)) < 1e-12


class TestWidthCommand:
    def test_exact3d(self, regular3, capsys):
        assert main(["width", regular3]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["method"] == "exact3d"
        assert abs(out["value"] - regular_tetrahedron_width()) < 1e-12

    def test_exact3d_wrong_dimension(self, regular4):
        assert main(["width", regular4, "--method", "exact3d"]) == 2

    def test_mc_method(self, regular4, capsys):
        assert main(["width", regular4, "--method", "mc",
                     "--samples", "50000"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["std_error"] > 0.0

    def test_mc_without_samples(self, regular3, capsys):
        assert main(["width", regular3, "--method", "mc", "--samples", "0"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    def test_infeasible(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        V = rng.standard_normal((4, 3))
        V[:, 2] = np.abs(V[:, 2]) + 0.2  # one open hemisphere
        V /= np.linalg.norm(V, axis=1, keepdims=True)
        p = tmp_path / "inf.json"
        p.write_text(json.dumps({"d": 3, "vertices": V.tolist(), "metadata": {}}))
        assert main(["width", str(p)]) == 3
        out = json.loads(capsys.readouterr().out)
        assert out["error"] == "infeasible simplex"
        assert not out["hemisphere_cover"]

    def test_mat_on_a_piece_too_thin_to_sample(self, tmp_path, capsys):
        # a feasible 4-simplex with an orthoscheme piece that 2000 directions
        # miss: the cell's shared draw counts it as 0
        S = random_simplex(4, np.random.default_rng(3), feasible=True)
        path = write_simplex(tmp_path / "thin.json", S)
        assert main(["width", path, "--method", "mat", "--samples", "2000"]) == 0
        out = json.loads(capsys.readouterr().out)
        exact = reference_width_d4(S.vertices)
        assert abs(out["value"] - exact) < 4 * out["std_error"]

    def test_mat_with_one_sample(self, regular3, capsys):
        assert main(["width", regular3, "--method", "mat", "--samples", "1"]) == 0
        out = json.loads(capsys.readouterr().out, parse_constant=reject_constant)
        assert out["std_error"] == 0.0 and 0.0 <= out["value"] <= 2.0

    def test_out_file(self, regular3, tmp_path):
        dest = tmp_path / "w.json"
        assert main(["width", regular3, "--out", str(dest)]) == 0
        assert abs(json.loads(dest.read_text())["value"]
                   - regular_tetrahedron_width()) < 1e-12


class TestDecomposeCommand:
    def test_d3_payload(self, regular3, capsys):
        assert main(["decompose", regular3]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["n_path_simplices"] == 24
        assert out["audit"]["all_ok"]
        signs = [e["sign"] for e in out["entries"]]
        assert set(signs) <= {-1, 1}
        for e in out["entries"]:
            G = np.array(e["gram"])
            off = G - np.tril(np.triu(G, -1), 1)
            assert np.max(np.abs(off)) < 1e-9

    def test_d4_level_sums(self, regular4, capsys):
        assert main(["decompose", regular4]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["n_path_simplices"] == 120
        sums = np.array(out["level_angle_sums"])
        assert np.max(np.abs(sums - 40 * np.pi)) < 1e-7

    def test_degenerate_without_jiggle(self, tmp_path):
        # two antipodal pairs: complex vertices are not unique
        V = np.array([[1.0, 0, 0], [-1.0, 0, 0], [0, 1.0, 0], [0, -1.0, 0]])
        p = tmp_path / "deg.json"
        p.write_text(json.dumps({"d": 3, "vertices": V.tolist(), "metadata": {}}))
        assert main(["decompose", str(p)]) == 4

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_one_stacked_chain_and_gram_call(self, d, tmp_path, monkeypatch, capsys):
        S = random_simplex(d, np.random.default_rng(40 + d), feasible=True)
        path = write_simplex(tmp_path / "s.json", S)
        calls = count_calls(monkeypatch, (cells, "_chain_path"),
                            (cells, "gram_matrix"))
        assert main(["decompose", path]) == 0
        # in d = 3 the entries and the audit share the 24-triangle complex
        assert calls["_chain_path"] == 1
        assert calls["gram_matrix"] == 1

    @pytest.mark.parametrize("d, feasible", [(3, True), (3, False), (4, True),
                                             (4, False), (5, True)])
    def test_entries_are_the_per_chain_api(self, d, feasible, tmp_path, capsys):
        # the stacked payload equals, bit for bit, one public call per chain
        S = random_simplex(d, np.random.default_rng(60 + d), feasible=feasible)
        assert main(["decompose", write_simplex(tmp_path / "s.json", S)]) == 0
        entries = json.loads(capsys.readouterr().out)["entries"]
        chains = cells.maximal_chains(d)
        assert len(entries) == len(chains)
        for e, chain in zip(entries, chains):
            P = cells.path_simplex_from_chain(S, chain)
            assert e["chain"] == [sorted(Q) for Q in chain]
            assert e["sign"] == P.sign
            assert np.array_equal(e["path_vertices"], P.vertices)
            assert np.array_equal(e["gram"], cells.gram_matrix(P))
            assert np.array_equal(e["dihedral_angles"],
                                  cells.adjacent_dihedral_angles(P))

class TestHessianCommand:
    def test_scan(self, capsys):
        assert main(["hessian", "--grid", "40"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["violations_f_AA"] == 0
        assert out["violations_det"] == 0

    def test_csv_out(self, tmp_path, capsys):
        dest = tmp_path / "scan.csv"
        assert main(["hessian", "--grid", "10", "--out", str(dest)]) == 0
        header = dest.read_text().splitlines()[0]
        assert header == "A,B,f,f_AA,det_hess,reduced_det,fd_gap"

    def test_bad_grid(self):
        assert main(["hessian", "--grid", "1"]) == 2


class TestOptimizeCommand:
    def test_d3_run(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        final = tmp_path / "final.json"
        assert main(["optimize", "-d", "3", "--seed", "3", "--restarts", "1",
                     "--out", str(trace), "--simplex-out", str(final)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert abs(out["width"] - regular_tetrahedron_width()) < 1e-4
        assert out["regularity_metric"] < 1e-2
        rows = trace.read_text().splitlines()
        assert rows[0] == "iteration,width,step,regularity_metric"
        assert len(rows) == out["iterations"] + 2  # header + initial state
        doc = json.loads(final.read_text())
        assert np.array(doc["vertices"]).shape == (4, 3)
        assert "width" in doc["metadata"]

    def test_warm_start(self, regular3, capsys):
        assert main(["optimize", "-d", "3", "--init", regular3,
                     "--max-iter", "3"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert abs(out["width"] - regular_tetrahedron_width()) < 1e-9

    def test_summary_reports_grad_norm(self, regular3, capsys):
        assert main(["optimize", "-d", "3", "--init", regular3,
                     "--max-iter", "3"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert 0.0 <= out["grad_norm"] < 1e-9

    def test_d4_summary_is_json(self, capsys):
        assert main(["optimize", "-d", "4", "--max-iter", "2"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["width"] > 0.0 and out["converged"] in (True, False)

    def test_no_restarts(self, capsys):
        assert main(["optimize", "-d", "3", "--restarts", "0"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    def test_without_samples(self, capsys):
        assert main(["optimize", "-d", "4", "--samples", "0", "--max-iter", "2"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    def test_d4_uses_the_sample_count(self, capsys):
        assert main(["optimize", "-d", "4", "--samples", "2000", "--max-iter", "2"]) == 0
        out = json.loads(capsys.readouterr().out)
        trace = optimize_width(4, "random", max_iter=2, seed=0, mc_samples=2000)
        assert out["width"] == trace[-1].width.value


class TestSelftestCommand:
    def test_passes(self, capsys):
        assert main(["selftest", "--samples", "100000"]) == 0
        assert "all checks passed" in capsys.readouterr().out

    def test_without_samples(self, capsys):
        assert main(["selftest", "--samples", "0"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    def test_wrong_prefactor_fails(self, capsys):
        assert main(["selftest", "--samples", "100000",
                     "--force-mat-prefactor", "d-2"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "prefactor" in out


class TestOptions:
    # each subcommand takes only the options it reads
    @pytest.mark.parametrize("argv", [
        ["width", "--tol", "1e-9"],
        ["decompose", "--samples", "10"],
        ["decompose", "--tol", "1e-9"],
        ["decompose", "--jiggle"],
        ["decompose", "--seed", "1"],
        ["hessian", "--seed", "1"],
        ["hessian", "--samples", "10"],
        ["hessian", "--tol", "1e-9"],
        ["selftest", "--tol", "1e-9"],
        ["selftest", "--out", "selftest.json"],
    ], ids=lambda argv: argv[0] + argv[1])
    def test_unread_option_is_a_usage_error(self, argv, regular3, capsys):
        if argv[0] in ("width", "decompose"):
            argv = [argv[0], regular3, *argv[1:]]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def write_vertices(path, V):
    path.write_text(json.dumps({"d": len(V[0]), "vertices": np.asarray(V).tolist(),
                                "metadata": {}}))
    return str(path)


# (exit code, argv, a fragment of the one error line); {name} is a file below
ERROR_PATHS = {
    "width-mc-samples-0": (2, "width {reg3} --method mc --samples 0", "n must be >= 1"),
    "width-mat-samples-0": (2, "width {reg3} --method mat --samples 0", "n_samples must be >= 1"),
    "selftest-samples-0": (2, "selftest --samples 0", "n_samples must be >= 1"),
    "optimize-d3-samples-0": (2, "optimize -d 3 --samples 0", "mc_samples must be >= 1"),
    "optimize-d4-samples-0": (2, "optimize -d 4 --samples 0 --max-iter 2",
                              "mc_samples must be >= 1"),
    "hessian-grid-1": (2, "hessian --grid 1", "grid_n must be >= 2"),
    "optimize-restarts-0": (2, "optimize -d 3 --restarts 0", "--restarts must be >= 1"),
    "width-exact3d-d2": (2, "width {reg2} --method exact3d", "exact3d needs ambient dimension 3"),
    "width-exact3d-d4": (2, "width {reg4} --method exact3d", "exact3d needs ambient dimension 3"),
    "width-mat-d2": (2, "width {reg2} --method mat", "needs d >= 3"),
    "width-out": (5, "width {reg3} --out {missing}/w.json", "cannot write {missing}/w.json"),
    "decompose-out": (5, "decompose {reg3} --out {missing}/c.json", "cannot write {missing}/c.json"),
    "hessian-out": (5, "hessian --grid 3 --out {missing}/scan.csv",
                    "cannot write {missing}/scan.csv"),
    "optimize-out": (5, "optimize -d 3 --max-iter 3 --out {missing}/trace.csv",
                     "cannot write {missing}/trace.csv"),
    "optimize-simplex-out": (5, "optimize -d 3 --max-iter 3 --simplex-out {missing}/best.json",
                             "cannot write {missing}/best.json"),
    "width-nan": (5, "width {nan}", "invalid simplex"),
    "decompose-nan": (5, "decompose {nan}", "invalid simplex"),
    "optimize-init-nan": (5, "optimize --init {nan}", "invalid simplex"),
    "width-normalize-zero-row": (5, "width {zero} --auto-normalize", "invalid simplex"),
    "width-normalize-inf-row": (5, "width {inf} --auto-normalize", "invalid simplex"),
    "width-equidistant-face-point": (4, "width {equidistant}", "face point equidistant"),
    "decompose-equidistant-face-point": (4, "decompose {equidistant}", "face point equidistant"),
    "optimize-d1": (2, "optimize -d 1", "d must be >= 2"),
    "optimize-d0": (2, "optimize -d 0", "d must be >= 2"),
}


@pytest.mark.filterwarnings("error")  # an error path must not pass through a numpy warning
@pytest.mark.parametrize("case", ERROR_PATHS)
def test_error_path(case, tmp_path, capsys):
    code, argv, fragment = ERROR_PATHS[case]
    files = {"reg2": write_simplex(tmp_path / "reg2.json", regular_simplex(2)),
             "reg3": write_simplex(tmp_path / "reg3.json", regular_simplex(3)),
             "reg4": write_simplex(tmp_path / "reg4.json", regular_simplex(4)),
             "missing": str(tmp_path / "missing")}
    V = regular_simplex(3).vertices
    for name, W in (("nan", np.full((4, 3), np.nan)),
                    ("zero", np.vstack([np.zeros(3), V[1:]])),
                    ("inf", np.vstack([[np.inf, 0.0, 0.0], V[1:]])),
                    ("equidistant", EQUIDISTANT_FACE_POINT)):
        files[name] = write_vertices(tmp_path / f"{name}.json", W)
    assert main([arg.format(**files) for arg in argv.split()]) == code
    out, err = capsys.readouterr()
    err = err.splitlines()
    assert out == "" and len(err) == 1 and err[0].startswith("error:")
    assert fragment.format(**files) in err[0]


@pytest.mark.parametrize("command", ["width", "decompose"])
def test_builds_one_face_table_per_simplex(command, tmp_path, monkeypatch, capsys):
    S = random_simplex(3, np.random.default_rng(4), feasible=True)
    path = write_simplex(tmp_path / "s.json", S)
    calls = count_calls(monkeypatch, (cells, "_face_table"))
    assert main([command, path]) == 0
    assert calls["_face_table"] == 1


def test_mc_width_reads_no_face_table(tmp_path, monkeypatch, capsys):
    # feasibility reads the facet normals, and Monte Carlo never needs the
    # face point that the table rejects
    path = write_vertices(tmp_path / "equidistant.json", EQUIDISTANT_FACE_POINT)
    calls = count_calls(monkeypatch, (cells, "_face_table"))
    assert main(["width", path, "--method", "mc", "--samples", "20000"]) == 0
    assert calls["_face_table"] == 0
    out = json.loads(capsys.readouterr().out)
    assert out["method"] == "monte_carlo" and 0.0 < out["value"] <= 2.0
