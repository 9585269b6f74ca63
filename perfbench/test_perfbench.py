"""Tests of the benchmark itself (not of mwkit).

    python3 -m pytest perfbench -q

Tiny-size runs keep each workload's op short; the checks, metrics and
reporting are the ones the full-size runs use.
"""

import dataclasses
import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import ops  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

sys.path.insert(0, str(run.SRC))

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
E2E = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]
ONLY_ON = {"time_to_se_s": "highdim", "final_regularity": "ascent4"}


def workload(name, trace=False):
    run.WORKDIR.mkdir(exist_ok=True)
    return ops.make(name, run.WORKDIR, run.child_env(), trace=trace, tiny=True)


@pytest.fixture(scope="module", params=ops.WORKLOADS)
def tiny_doc(request):
    return run.measure(request.param, seed=3, seconds=1e-3, trace=False, tiny=True)


def test_tiny_run_prints_every_metric_with_unit(tiny_doc):
    name = tiny_doc["workload"]
    failed = sum(not op["ok"] for op in tiny_doc["ops"])
    assert tiny_doc["failed"] == failed == len(tiny_doc["failures"])
    assert tiny_doc["metrics"]["fail_frac"]["value"] == failed / tiny_doc["attempted"]
    expected = set(E2E) | {"fail_frac"}
    expected |= {m for m, w in ONLY_ON.items() if w == name}
    if tiny_doc["attempted"] >= 11:
        expected.add("op_tail_ms")
    assert expected <= set(tiny_doc["metrics"])
    assert not {m for m, w in ONLY_ON.items() if w != name} & set(tiny_doc["metrics"])
    buf = io.StringIO()
    with redirect_stdout(buf):
        run.report(tiny_doc, E2E)
    lines = buf.getvalue().splitlines()
    for metric in expected:
        unit = tiny_doc["metrics"][metric]["unit"]
        assert any(ln.startswith(f"{metric} = ") and f" {unit}" in ln for ln in lines), metric
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is (failed == 0) and last["attempted"] >= 1
    assert list(last["metrics"]) == E2E
    for m in SPEC["end_to_end"]:
        assert last["metrics"][m["name"]]["unit"] == m["unit"]
        assert last["metrics"][m["name"]]["value"] > 0


@pytest.mark.parametrize("name", ops.WORKLOADS)
def test_tiny_traced_run_reports_every_layer_metric(name):
    doc = run.measure(name, seed=4, seconds=1e-3, trace=True, tiny=True)
    assert set(PER_LAYER) <= set(doc["metrics"])
    assert sum(r["traced"] for r in doc["ops"]) == sum(not r["traced"] for r in doc["ops"])
    assert 0.9 < doc["metrics"]["trace.coverage"]["value"] <= 1.0


def _perturb_width(trace, delta):
    last = trace[-1]
    width = dataclasses.replace(last.width, value=last.width.value + delta)
    return trace[:-1] + [dataclasses.replace(last, width=width)]


class WrongAscent3(ops.Ascent3):
    def run(self, inp):
        return _perturb_width(super().run(inp), 1e-4)


def test_wrong_output_counts_in_fail_frac():
    records = run.run_loop(WrongAscent3(), seed=5, seconds=1e-3)
    m = run.end_to_end("ascent3", records, launches=[(0.0, 1.0)], rss_mb=1.0,
                       refs=[(0.0, 1.0), (1.0, 1.0)])
    assert m["fail_frac"]["value"] == 1.0
    assert "criterion 10" in records[0].detail


def test_wrong_outputs_fail_their_checks():
    # exact3d through the CLI, off by 1e-6
    cli = workload("cli", trace=True)
    inp = cli.prepare(6, 0)
    code, out, err = cli.run(inp)
    assert cli.check(inp, (code, out, err))[0]
    doc = json.loads(out)
    doc["value"] += 1e-6
    assert not cli.check(inp, (code, json.dumps(doc), err))[0]
    # MAT moved by ten of its std errors, on the regular simplex
    from mwkit.width import regular_simplex
    hd = workload("highdim")
    inp = dict(hd.prepare(6, 0), simplex=regular_simplex(4))
    pieces, mat, mat_s = hd.run(inp)
    assert hd.check(inp, (pieces, mat, mat_s))[0]
    far = dataclasses.replace(mat, value=mat.value + 10 * mat.std_error + 1e-2)
    assert not hd.check(inp, (pieces, far, mat_s))[0]
    # a path simplex whose Gram matrix is not tridiagonal
    sign, G, theta = pieces[0]
    G = G.copy()
    G[0, 2] = G[2, 0] = 1e-6
    assert not hd.check(inp, ([(sign, G, theta)] + pieces[1:], mat, mat_s))[0]
    # an ascent that ends below its start
    a4 = workload("ascent4")
    inp = a4.prepare(6, 0)
    trace = a4.run(inp)
    assert a4.check(inp, trace)[0]
    assert not a4.check(inp, [trace[-1], trace[0]])[0]


def _inputs(name, seed, n=4):
    wl = workload(name)
    out = []
    for i in range(n):
        inp = wl.prepare(seed, i)
        out.append(json.dumps({k: (v.vertices.tolist() if k == "simplex" else v)
                               for k, v in inp.items()}, sort_keys=True))
    return out


@pytest.mark.parametrize("name", ops.WORKLOADS)
def test_seed_fixes_the_inputs(name):
    assert _inputs(name, 7) == _inputs(name, 7)
    if name == "cli":  # hessian and selftest take no input; the others must move
        a, b = _inputs(name, 7), _inputs(name, 8)
        assert a[0] != b[0] and a[1] != b[1] and a[2] != b[2]
    else:
        assert _inputs(name, 7) != _inputs(name, 8)


def test_edge_formula_matches_closed_form():
    from mwkit.width import regular_simplex
    V = regular_simplex(3).vertices
    assert abs(oracle.edge_width_d3(V) - oracle.REGULAR_WIDTH_D3) < 1e-12


def test_piece_share_of_the_regular_simplex():
    from mwkit.width import regular_simplex
    # the 24 pieces of a regular cell split the sphere around its vertex evenly
    assert abs(ops.HighDim.thinnest_piece(regular_simplex(4)) - 1 / 24) < 1e-12


def test_highdim_draws_mat_inputs_it_can_sample():
    # op 21 of seed 712673594 first drew a simplex with a piece holding 2e-5
    # of the sphere, on which mean_width_mat raised at 3e4 samples per piece
    hd = ops.HighDim()
    inp = hd.prepare(712673594, 21)
    assert inp["redraws"] >= 1
    assert hd.thinnest_piece(inp["simplex"]) * hd.mat_samples >= ops.MAT_MIN_HITS
    assert hd.prepare(712673594, 2)["redraws"] == 0  # d = 5: no MAT, no redraw


def test_self_time_subtracts_children():
    tr = spans.Tracer()
    outer = tr.open("width.f")
    inner = tr.open("cells.g")
    tr.close(inner)
    tr.close(outer)
    tr.start[:] = [0.0, 1.0]
    tr.end[:] = [5.0, 3.0]
    assert tr.self_times() == [3.0, 2.0]
    assert tr.parent == [-1, 0]


def test_install_restores_every_attribute():
    from mwkit import cells, width
    before = (width.cell_vertex, cells.cell_vertex, width.optimize_width)
    patches = spans.install(spans.Tracer())
    assert width.cell_vertex is not before[0]
    spans.uninstall(patches)
    assert (width.cell_vertex, cells.cell_vertex, width.optimize_width) == before


def test_tail_percentile_keeps_ten_beyond():
    assert run.tail(list(range(10))) is None
    value, pct, beyond = run.tail([float(x) for x in range(100)])
    assert (pct, beyond) == (90, 10) and value == 89.0
    assert run.tail([float(x) for x in range(11)])[2] == 10


def test_command_prints_the_contract_line():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "ascent3",
                           "--seed", "1", "--seconds", "0.001", "--trace", "0"],
                          cwd=run.ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True and list(last["metrics"]) == E2E


def test_fails_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "ascent3",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
