"""mwkit benchmark: one closed-loop workload per run.

    python3 perfbench/run.py --workload ascent3 --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports mwkit from its ``src``.
With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
runs each op twice, untraced and traced on the same input, and reports the
per-layer metrics and the tracing overhead.  The last line of standard output
is the result as one JSON object; the full record, with every op, the
environment and the value and std error beside each estimator timing, goes to
``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import os

# BLAS/OpenMP pools are fixed before numpy is first imported, here and in every
# child: one caller, one thread, so a run measures mwkit and not spare cores.
THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = THREADS

import argparse  # noqa: E402
import functools  # noqa: E402
import importlib  # noqa: E402
import importlib.metadata  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import ops  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"

SETUP_RUNS = 9
SETUP_TIMEOUT_S = 60
# fresh interpreter to first op ready: import plus the lazy first-call work
# (the regular-tetrahedron width cache and the MAT prefactor self-check)
LIBRARY_SETUP = ("import numpy, mwkit; mwkit.regular_tetrahedron_width(); "
                 "mwkit.cell_marginal_mean_MAT(mwkit.HalfspaceCell(numpy.eye(3)), 64, 0)")
CLI_SETUP = "import mwkit.cli"
CLI_IMPORT_TIMER = ("import time; t = time.perf_counter(); import mwkit.cli; "
                    "print(time.perf_counter() - t)")

# Machine-speed reference: a fixed task that runs no mwkit code, sampled
# between ops every REF_EVERY_S.  The shared machine drifts by tens of percent
# over tens of seconds, for every process alike; dividing each op's latency by
# the reference interpolated at that op removes most of the drift.
# REF_NOMINAL_S is the reference's typical time on the baseline machine, so
# that normalized times read close to wall times there.
REF_EVERY_S = 1.0
REF_REPEATS = 3
REF_NOMINAL_S = 0.010
_REF_V = np.array([[0.0, 0.0, 1.0], [0.9, 0.1, -0.3],
                   [-0.5, 0.8, -0.2], [-0.3, -0.9, -0.4]])
_REF_V /= np.linalg.norm(_REF_V, axis=1, keepdims=True)
_REF_M = np.array([[2.0, 0.3, 0.1, 0.0], [0.3, 1.5, 0.2, 0.1],
                   [0.1, 0.2, 1.8, 0.3], [0.0, 0.1, 0.3, 1.2]])

NOT_MEASURED = {
    "measures.mat_acceptance": "MAT rejection acceptance rate: computed inside "
                               "cell_marginal_mean_MAT and not returned; waits for "
                               "the library's diagnostics record",
    "cells.degeneracy_margin": "smallest side-test |value| against DEGENERACY_EPS: "
                               "internal to the side tests; waits for the "
                               "library's diagnostics record",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def launch_seconds(code: str, env: dict) -> float:
    """Wall time of one fresh interpreter running ``code``."""
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=SETUP_TIMEOUT_S)
    dt = perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up launch failed: {proc.stderr.strip()[-500:]}")
    return dt


def _reference_task() -> None:
    # the kinds of work mwkit's ops mix: small numpy calls, small LAPACK
    # calls, plain Python, and one vectorized sampling kernel
    for _ in range(10):
        oracle.edge_width_d3(_REF_V)
    for _ in range(20):
        np.linalg.svd(_REF_V[1:] - _REF_V[0])
        np.linalg.qr(_REF_M)
        np.linalg.solve(_REF_M, _REF_M[0])
        np.linalg.inv(_REF_M)
    counts = {}
    for i in range(10_000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    oracle.mc_width(_REF_V, 20_000, 0)


def reference_seconds() -> float:
    """Median wall time of REF_REPEATS runs of the machine-speed reference."""
    times = []
    for _ in range(REF_REPEATS):
        t0 = perf_counter()
        _reference_task()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def cli_import_ms(env: dict) -> float:
    """``import mwkit.cli`` as timed inside one fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", CLI_IMPORT_TIMER], env=env,
                          capture_output=True, text=True, check=True,
                          timeout=SETUP_TIMEOUT_S)
    return float(proc.stdout.strip()) * 1e3


def run_loop(workload, seed: int, seconds: float, tracer=None, between=None) -> list:
    """Closed loop until ``seconds`` of op time is spent, ending on a whole cycle.

    With a tracer each input runs untraced and traced, alternating which goes
    first, so the overhead is measured on the same ops.  ``between(spent)`` is
    called after each op, outside the timed region.
    """
    records = []
    spent = 0.0
    i = 0
    while spent < seconds or i % workload.cycle:
        inp = workload.prepare(seed, i)
        order = (False,) if tracer is None else ((False, True) if i % 2 == 0 else (True, False))
        for traced in order:
            if traced:
                tracer.op_id = i
                patches = spans.install(tracer)
                try:
                    rec = ops.attempt(workload, inp, i)
                finally:
                    spans.uninstall(patches)
                rec.traced = True
            else:
                rec = ops.attempt(workload, inp, i)
            records.append(rec)
            spent += rec.seconds
            if between is not None:
                between(spent)
        i += 1
    return records


def _metric(value, unit, **extra) -> dict:
    return {"value": value, "unit": unit, **extra}


def tail(latencies: list[float]):
    """Highest whole percentile with at least 10 samples beyond it (nearest
    rank), or None below 11 samples."""
    n = len(latencies)
    if n < 11:
        return None
    pct = math.floor(100 * (n - 10) / n)
    rank = max(1, math.ceil(pct / 100 * n))
    return sorted(latencies)[rank - 1], pct, n - rank


def end_to_end(name: str, records, launches, rss_mb: float, refs) -> dict:
    """End-to-end metrics.  ``launches`` are (time, seconds) set-up launches,
    ``refs`` (time, seconds) reference samples; ``setup_s`` and the ``_ref``
    pair are read at the nominal reference speed."""
    lat = [r.seconds for r in records]
    failed = sum(not r.ok for r in records)
    ref_t, ref_s = zip(*refs)

    def nominal(times, values):
        return [v * REF_NOMINAL_S / k for v, k in zip(values, np.interp(times, ref_t, ref_s))]

    norm = nominal([r.start + r.seconds / 2 for r in records], lat)
    setup_t, setup_wall = zip(*launches)
    m = {"setup_s": _metric(statistics.median(nominal(setup_t, setup_wall)), "s",
                            launches=len(launches)),
         "setup_wall_s": _metric(statistics.median(setup_wall), "s", launches=len(launches)),
         "ops_per_s": _metric(len(lat) / sum(lat), "1/s", ops=len(lat)),
         "op_p50_ms": _metric(statistics.median(lat) * 1e3, "ms", samples=len(lat)),
         "ops_per_s_ref": _metric(len(norm) / sum(norm), "1/s", ops=len(norm)),
         "op_p50_ms_ref": _metric(statistics.median(norm) * 1e3, "ms", samples=len(norm)),
         "ref_ms": _metric(statistics.median(ref_s) * 1e3, "ms", samples=len(ref_s))}
    t = tail(lat)
    if t is not None:
        m["op_tail_ms"] = _metric(t[0] * 1e3, "ms", percentile=t[1],
                                  beyond=t[2], samples=len(lat))
    m["fail_frac"] = _metric(failed / len(lat), "ratio", failed=failed, attempted=len(lat))
    if name == "highdim":
        tts = [r.values["time_to_se_s"] for r in records if "time_to_se_s" in r.values]
        if tts:
            m["time_to_se_s"] = _metric(statistics.median(tts), "s", samples=len(tts))
        # d = 4 draws outside MAT's sampling domain, drawn again (not gated)
        m["thin_redraws"] = _metric(sum(r.values.get("redraws", 0) for r in records),
                                    "count", d4_ops=len(tts))
    if name == "ascent4":
        regs = [r.values["regularity"] for r in records if "regularity" in r.values]
        if regs:
            m["final_regularity"] = _metric(max(regs), "1", samples=len(regs))
    m["peak_rss_mb"] = _metric(rss_mb, "MiB")
    return m


def _mean(xs) -> float:
    xs = list(xs)
    return sum(xs) / len(xs) if xs else 0.0


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(tracer, records, import_ms: float) -> dict:
    """Per-layer metrics from the spans of the traced ops.

    A layer the workload never enters reads 0 (no calls, no time).
    """
    traced = [r for r in records if r.traced]
    plain = [r for r in records if not r.traced]
    n_ops = len(traced)
    wall = sum(r.seconds for r in traced)
    kind_of = {r.index: r.kind for r in traced}
    names = tracer.name
    dur = [e - s for s, e in zip(tracer.start, tracer.end)]
    own = tracer.self_times()
    sids = defaultdict(list)
    for sid, n in enumerate(names):
        sids[n].append(sid)

    def durs(name, parent=None):
        return [dur[s] for s in sids[name]
                if parent is None or (tracer.parent[s] >= 0 and names[tracer.parent[s]] == parent)]

    def notes(name):
        return [tracer.note[s] for s in sids[name] if s in tracer.note]

    m = {}
    iters = sum(notes("width.optimize_width"))
    opt = durs("width.optimize_width")
    objective = (durs("width._exact3d_value", "width.optimize_width")
                 + durs("width.mean_width_mc", "width.optimize_width"))
    m["width.opt_iter_ms"] = _metric(_ratio(sum(opt), iters) * 1e3, "ms")
    m["width.obj_evals_per_iter"] = _metric(_ratio(len(objective), iters), "count")
    m["width.iters_per_op"] = _metric(_ratio(iters, len(opt)), "count")
    m["width.exact3d_us"] = _metric(_mean(durs("width._exact3d_value")) * 1e6, "us")
    m["cells.complex24_us"] = _metric(_mean(durs("cells._complex24_core")) * 1e6, "us")
    mc = durs("width.mean_width_mc")
    m["width.mc_msamples_per_s"] = _metric(_ratio(sum(notes("width.mean_width_mc")), sum(mc)) / 1e6, "Msample/s")
    m["width.mc_share"] = _metric(_ratio(sum(mc), wall), "ratio")

    chain_by_op = defaultdict(float)
    for s in sids["cells.path_simplex_from_chain"]:
        chain_by_op[tracer.op[s]] += dur[s]
    for d in (4, 5):
        per_simplex = [t for op, t in chain_by_op.items() if kind_of[op] == f"d{d}"]
        m[f"cells.chain_ms.d{d}"] = _metric(_mean(per_simplex) * 1e3, "ms")
    faces = defaultdict(list)
    for s in sids["cells.cell_vertex"]:
        faces[tracer.op[s]].append(tracer.note.get(s))
    calls = sum(len(v) for v in faces.values())
    m["cells.cell_vertex_calls_per_op"] = _metric(_ratio(calls, n_ops), "count")
    m["cells.face_reuse"] = _metric(_ratio(sum(len(set(v)) for v in faces.values()), calls), "ratio")
    m["cells.gram_us"] = _metric(_mean(durs("cells.gram_matrix")) * 1e6, "us")
    m["cells.decompose_ms"] = _metric(_mean(durs("cells.decompose_simplex")) * 1e3, "ms")

    mat = durs("width.mean_width_mat")
    pieces = durs("measures.cell_marginal_mean_MAT")
    m["width.mat_ms"] = _metric(_mean(mat) * 1e3, "ms")
    m["measures.mat_piece_ms"] = _metric(_mean(pieces) * 1e3, "ms")
    m["measures.mat_msamples_per_s"] = _metric(
        _ratio(sum(notes("measures.cell_marginal_mean_MAT")), sum(pieces)) / 1e6, "Msample/s")
    m["measures.mat_share"] = _metric(
        _ratio(sum(durs("measures.cell_marginal_mean_MAT", "width.mean_width_mat")), sum(mat)), "ratio")

    m["cells.feasibility_ms"] = _metric(_mean(durs("cells.feasibility_checks")) * 1e3, "ms")
    m["cli.import_ms"] = _metric(import_ms, "ms")
    cmd = defaultdict(list)
    for s in sids["cli.main"]:
        cmd[kind_of[tracer.op[s]]].append(dur[s])
    for kind in ops.Cli.kinds:
        m[f"cli.cmd_ms.{kind}"] = _metric(_mean(cmd[kind]) * 1e3, "ms")
    m["hessian.scan_kpoints_per_s"] = _metric(
        _ratio(sum(notes("hessian.region_scan")), sum(durs("hessian.region_scan"))) / 1e3, "kpoint/s")

    layer_self = defaultdict(float)
    layer_calls = defaultdict(int)
    for sid, n in enumerate(names):
        layer = n.partition(".")[0]
        layer_self[layer] += own[sid]
        layer_calls[layer] += 1
    for layer in spans.LAYERS:
        m[f"{layer}.self_ms"] = _metric(_ratio(layer_self[layer], n_ops) * 1e3, "ms")
    m["sphere.calls_per_op"] = _metric(_ratio(layer_calls["sphere"], n_ops), "count")

    plain_wall = sum(r.seconds for r in plain)
    m["trace.ops_per_s"] = _metric(_ratio(n_ops, wall), "1/s")
    m["trace.untraced_ops_per_s"] = _metric(_ratio(len(plain), plain_wall), "1/s")
    m["trace.overhead"] = _metric(_ratio(wall, plain_wall) - 1.0, "ratio")
    m["trace.coverage"] = _metric(_ratio(sum(own), wall), "ratio")
    return m


def static_counts() -> dict:
    """Code size per layer: non-blank, non-comment lines and exported names.

    A module without ``__all__`` (the CLI) counts the public functions and
    classes it defines.
    """
    m = {}
    for layer in spans.LAYERS:
        lines = (SRC / "mwkit" / f"{layer}.py").read_text().splitlines()
        loc = sum(1 for ln in lines if ln.strip() and not ln.strip().startswith("#"))
        mod = importlib.import_module(f"mwkit.{layer}")
        if hasattr(mod, "__all__"):
            exports = len(mod.__all__)
        else:
            exports = sum(1 for k, v in vars(mod).items()
                          if not k.startswith("_")
                          and (inspect.isfunction(v) or inspect.isclass(v))
                          and v.__module__ == mod.__name__)
        m[f"{layer}.loc"] = _metric(loc, "lines")
        m[f"{layer}.exports"] = _metric(exports, "count")
    return m


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": cpu,
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "scipy": importlib.metadata.version("scipy"),
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


def measure(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """One run of one workload; returns the full result document."""
    import mwkit
    env = child_env()
    WORKDIR.mkdir(exist_ok=True)
    workload = ops.make(name, WORKDIR, env, trace=trace, tiny=tiny)
    exec(LIBRARY_SETUP, {})  # lazy first-call work before timing, as set-up pays it

    # set-up launches are spread over the run, between ops, so that their
    # median sees the same machine as the ops do
    runs = 1 if tiny else SETUP_RUNS
    if not trace:
        code = CLI_SETUP if name == "cli" else LIBRARY_SETUP
        launch = functools.partial(launch_seconds, code, env)
    elif name == "cli":
        launch = functools.partial(cli_import_ms, env)
    else:
        runs, launch = 0, None
    launches = []
    refs = []

    def sample_reference():
        t0 = perf_counter()
        ref = reference_seconds()
        refs.append(((t0 + perf_counter()) / 2, ref))

    def timed_launch():
        t0 = perf_counter()
        value = launch()
        launches.append(((t0 + perf_counter()) / 2, value))

    def between(spent):
        if not trace and perf_counter() - refs[-1][0] >= REF_EVERY_S:
            sample_reference()
        if len(launches) < runs and spent >= len(launches) * seconds / runs:
            timed_launch()

    tracer = spans.Tracer() if trace else None
    sample_reference()
    records = run_loop(workload, seed, seconds, tracer, between)
    while len(launches) < runs:
        timed_launch()
    sample_reference()
    import_ms = statistics.median(v for _, v in launches) if trace and launches else 0.0
    usage = resource.RUSAGE_CHILDREN if name == "cli" and not trace else resource.RUSAGE_SELF
    rss_mb = resource.getrusage(usage).ru_maxrss / 1024.0

    if trace:
        metrics = per_layer(tracer, records, import_ms)
        metrics.update(static_counts())
        spans_path = WORKDIR / f"{name}-seed{seed}.spans.json.gz"
        tracer.dump(spans_path)
    else:
        metrics = end_to_end(name, records, launches, rss_mb, refs)
        metrics.update(static_counts())
        spans_path = None
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "mwkit": mwkit.__file__,
        "environment": environment(),
        "metrics": metrics,
        "attempted": len(records),
        "failed": sum(not r.ok for r in records),
        "failures": [{"index": r.index, "kind": r.kind, "traced": r.traced,
                      "detail": r.detail} for r in records if not r.ok],
        "ops": [{"index": r.index, "kind": r.kind, "traced": r.traced,
                 "ms": r.seconds * 1e3, "ok": r.ok, "values": r.values}
                for r in records],
        "not_measured": NOT_MEASURED,
        "spans": str(spans_path) if spans_path else None,
    }


def report(doc: dict, names: list[str]) -> None:
    """Every metric by name with its unit, then the result line."""
    print(f"# mwkit benchmark: workload={doc['workload']} seed={doc['seed']} "
          f"trace={doc['trace']} ops={doc['attempted']} failed={doc['failed']}")
    print(f"# environment: {json.dumps(doc['environment'])}")
    for f in doc["failures"]:
        print(f"# FAILED op {f['index']} ({f['kind']}): {f['detail']}")
    for name, m in doc["metrics"].items():
        extra = {k: v for k, v in m.items() if k not in ("value", "unit")}
        print(f"{name} = {m['value']:.6g} {m['unit']}" + (f"  {extra}" if extra else ""))
    print(json.dumps(contract_line(doc, names)))


def contract_line(doc: dict, names: list[str]) -> dict:
    """The result object: exactly the metrics ``BENCHMARK.json`` names."""
    return {"correct": doc["failed"] == 0, "attempted": doc["attempted"],
            "failed": doc["failed"],
            "metrics": {n: {"value": doc["metrics"][n]["value"],
                            "unit": doc["metrics"][n]["unit"]} for n in names}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=ops.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "mwkit" / "__init__.py").is_file():
        print(f"error: no mwkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import mwkit
    if Path(mwkit.__file__).resolve().parent != (SRC / "mwkit").resolve():
        print(f"error: imported mwkit from {mwkit.__file__}, not {SRC}", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    doc = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    out = WORKDIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(doc, indent=1))
    print(f"# full record: {out}")
    report(doc, names)
    return 0

if __name__ == "__main__":
    sys.exit(main())
