"""The benchmark's workloads: inputs made from the seed, the timed op, and the
check of each op's output against an independent reference.

Every workload is a closed loop with one caller.  Op i's input depends only
on (seed, i), so a run's inputs do not depend on how many ops fit in it.
mwkit functions are looked up on their modules at call time, so the tracing
wrappers of ``spans.install`` see the benchmark's own calls too.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import oracle

Z_MAX = 4.0          # MAT/MC against the independent MC estimate, in std errors
GRAM_OFFBAND = 1e-9  # a path simplex's Gram matrix is tridiagonal
# MAT's rejection sampler raises when a piece gets no hit at all; a d = 4
# input is drawn again unless every piece expects at least this many hits
# (a miss then has probability below e^-20 per piece)
MAT_MIN_HITS = 20
ORACLE_SAMPLES = 200_000
CLI_TIMEOUT_S = 120


@dataclass
class Record:
    """One attempted op: its latency and the verdict of its check."""

    index: int
    kind: str
    seconds: float
    ok: bool
    detail: str = ""
    values: dict = field(default_factory=dict)
    traced: bool = False
    start: float = 0.0  # perf_counter() when the op began


def _rng(seed: int, i: int) -> np.random.Generator:
    return np.random.default_rng([seed, i, 0])  # (seed, op index, stream 0)


def _int_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2 ** 31))


def _simplex(rng: np.random.Generator, d: int):
    from mwkit import cells
    while True:
        V = oracle.random_feasible_simplex(rng, d)
        try:
            return cells.InscribedSimplex(V)
        except ValueError:  # DegeneracyError too: draw again, as random_simplex does
            continue


class Workload:
    name = ""
    kinds = ("op",)  # op kinds in cycle order; a run ends on a whole cycle

    def prepare(self, seed: int, i: int):
        raise NotImplementedError

    def run(self, inp):
        raise NotImplementedError

    def check(self, inp, out) -> tuple[bool, str, dict]:
        raise NotImplementedError

    @property
    def cycle(self) -> int:
        return len(self.kinds)

    def kind(self, i: int) -> str:
        return self.kinds[i % self.cycle]


class Ascent3(Workload):
    """Random-start restarts of the exact d = 3 ascent (criterion 10)."""

    name = "ascent3"

    def prepare(self, seed, i):
        return {"seed": _int_seed(_rng(seed, i))}

    def run(self, inp):
        from mwkit import width
        return width.optimize_width(3, "random", seed=inp["seed"], max_iter=500)

    def check(self, inp, trace):
        final = trace[-1]
        V = final.simplex.vertices
        w = final.width.value
        gap = abs(w - oracle.REGULAR_WIDTH_D3)
        reg = oracle.regularity(V)
        edge_gap = abs(w - oracle.edge_width_d3(V))
        values = {"width": w, "gap": gap, "regularity": reg,
                  "edge_gap": edge_gap, "iterations": final.iteration}
        if gap >= 1e-5 or reg >= 1e-3:
            return False, f"criterion 10 missed: gap {gap:.2e}, regularity {reg:.2e}", values
        if edge_gap >= 1e-9:
            return False, f"reported width off the edge formula by {edge_gap:.2e}", values
        return True, "", values


class Ascent4(Workload):
    """Random-start d = 4 Monte Carlo ascent at criterion 11's cap and samples."""

    name = "ascent4"

    def __init__(self, max_iter: int = 25, mc_samples: int = 30_000,
                 oracle_samples: int = ORACLE_SAMPLES):
        self.max_iter = max_iter
        self.mc_samples = mc_samples
        self.oracle_samples = oracle_samples

    def prepare(self, seed, i):
        rng = _rng(seed, i)
        return {"seed": _int_seed(rng), "oracle_seed": _int_seed(rng)}

    def run(self, inp):
        from mwkit import width
        return width.optimize_width(4, "random", seed=inp["seed"],
                                    max_iter=self.max_iter,
                                    mc_samples=self.mc_samples)

    def check(self, inp, trace):
        V0 = trace[0].simplex.vertices
        V1 = trace[-1].simplex.vertices
        (w0, se0), (w1, se1), (gain, se_gain) = oracle.mc_width_pair(
            V0, V1, self.oracle_samples, inp["oracle_seed"])
        values = {"objective_width": trace[-1].width.value,
                  "start_width": w0, "start_se": se0,
                  "final_width": w1, "final_se": se1,
                  "gain": gain, "gain_se": se_gain,
                  "regularity": oracle.regularity(V1),
                  "iterations": trace[-1].iteration}
        if gain < 0.0:
            return False, f"ended below its start by {-gain:.2e} (se {se_gain:.1e})", values
        return True, "", values


class HighDim(Workload):
    """Random feasible 4- and 5-simplices: every chain's path simplex with its
    Gram matrix and dihedral angles, plus MAT in d = 4."""

    name = "highdim"
    kinds = ("d4", "d4", "d5")

    def __init__(self, mat_samples: int = 30_000,
                 oracle_samples: int = ORACLE_SAMPLES):
        self.mat_samples = mat_samples
        self.oracle_samples = oracle_samples

    def prepare(self, seed, i):
        d = int(self.kind(i)[1:])
        rng = _rng(seed, i)
        S, redraws = _simplex(rng, d), 0
        while d == 4 and self.thinnest_piece(S) * self.mat_samples < MAT_MIN_HITS:
            S, redraws = _simplex(rng, d), redraws + 1
        return {"d": d, "simplex": S, "redraws": redraws,
                "mat_seed": _int_seed(rng), "oracle_seed": _int_seed(rng)}

    @staticmethod
    def thinnest_piece(S) -> float:
        """Smallest acceptance rate MAT's sampler meets on S: the share of S^2
        in a piece's tangent cone at the cell's own vertex, over the pieces
        ``mean_width_mat`` cuts each Voronoi cell into."""
        from mwkit import cells
        d = S.d
        shares = []
        for i in range(d + 1):
            others = [j for j in range(d + 1) if j != i]
            corners = np.array([cells.cell_vertex(S, (i, *rest))
                                for rest in itertools.combinations(others, d - 1)])
            shares += [oracle.vertex_solid_angle_fraction(piece.vertices)
                       for piece in cells.decompose_simplex(corners, S.vertices[i])]
        return min(shares)

    def run(self, inp):
        from mwkit import cells, width
        S = inp["simplex"]
        pieces = []
        for chain in cells.maximal_chains(inp["d"]):
            P = cells.path_simplex_from_chain(S, chain)
            pieces.append((P.sign, cells.gram_matrix(P),
                           cells.adjacent_dihedral_angles(P)))
        mat, mat_s = None, 0.0
        if inp["d"] == 4:
            t0 = perf_counter()
            mat = width.mean_width_mat(S, self.mat_samples, inp["mat_seed"])
            mat_s = perf_counter() - t0
        return pieces, mat, mat_s

    def check(self, inp, out):
        pieces, mat, mat_s = out
        d = inp["d"]
        offband = max(float(np.max(np.abs(np.triu(G, 2)))) for _, G, _ in pieces)
        angles = np.concatenate([theta for _, _, theta in pieces])
        values = {"pieces": len(pieces), "max_offband": offband,
                  "negative_pieces": sum(s < 0 for s, _, _ in pieces),
                  "redraws": inp["redraws"]}
        if len(pieces) != math.factorial(d + 1):
            return False, f"{len(pieces)} pieces, expected {math.factorial(d + 1)}", values
        if offband > GRAM_OFFBAND:
            return False, f"Gram off-band entry {offband:.2e}", values
        if not np.all((angles > 0.0) & (angles < np.pi)):
            return False, "dihedral angle outside (0, pi)", values
        if mat is None:
            return True, "", values
        ref, ref_se = oracle.mc_width(inp["simplex"].vertices, self.oracle_samples,
                                      inp["oracle_seed"])
        z = (mat.value - ref) / math.hypot(mat.std_error, ref_se)
        values.update(mat_value=mat.value, mat_se=mat.std_error, mat_s=mat_s,
                      mc_value=ref, mc_se=ref_se, z=z,
                      time_to_se_s=mat_s * (mat.std_error / 1e-3) ** 2)
        if abs(z) > Z_MAX:
            return False, f"MAT {mat.value:.6f} is {z:+.1f} se from MC {ref:.6f}", values
        return True, "", values


class Cli(Workload):
    """Fresh ``python -m mwkit.cli`` launches cycling through five commands.

    With ``in_process`` the same argv goes through ``cli.main`` instead; the
    traced run uses that, since a child process cannot be wrapped from outside.
    """

    name = "cli"
    kinds = ("width", "width_mc", "decompose", "hessian", "selftest")

    def __init__(self, workdir, env: dict, in_process: bool = False,
                 grid: int = 200, mc_samples: int | None = None,
                 selftest_samples: int | None = None,
                 oracle_samples: int = ORACLE_SAMPLES):
        self.workdir = str(workdir)
        self.env = env
        self.in_process = in_process
        self.grid = grid
        self.mc_samples = mc_samples
        self.selftest_samples = selftest_samples
        self.oracle_samples = oracle_samples

    def _write(self, kind, S):
        from mwkit.cli import simplex_to_document
        path = os.path.join(self.workdir, f"{kind}.json")
        with open(path, "w") as fh:
            json.dump(simplex_to_document(S), fh)
        return path

    def prepare(self, seed, i):
        kind = self.kind(i)
        rng = _rng(seed, i)
        inp = {"kind": kind}
        if kind == "width":
            inp["simplex"] = _simplex(rng, 3)
            inp["argv"] = ["width", self._write(kind, inp["simplex"])]
        elif kind == "width_mc":
            inp["simplex"] = _simplex(rng, 4)
            inp["oracle_seed"] = _int_seed(rng)
            inp["argv"] = ["width", self._write(kind, inp["simplex"]),
                           "--method", "mc", "--seed", str(_int_seed(rng))]
            if self.mc_samples:
                inp["argv"] += ["--samples", str(self.mc_samples)]
        elif kind == "decompose":
            inp["simplex"] = _simplex(rng, 3)
            inp["argv"] = ["decompose", self._write(kind, inp["simplex"])]
        elif kind == "hessian":
            inp["argv"] = ["hessian", "--grid", str(self.grid)]
        else:
            inp["argv"] = ["selftest"]
            if self.selftest_samples:
                inp["argv"] += ["--samples", str(self.selftest_samples)]
        return inp

    def run(self, inp):
        if self.in_process:
            from mwkit import cli
            buf, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
                code = cli.main(inp["argv"])
            return code, buf.getvalue(), err.getvalue()
        proc = subprocess.run([sys.executable, "-m", "mwkit.cli", *inp["argv"]],
                              env=self.env, capture_output=True, text=True,
                              timeout=CLI_TIMEOUT_S)
        return proc.returncode, proc.stdout, proc.stderr

    def check(self, inp, out):
        code, stdout, stderr = out
        if code != 0:
            return False, f"exit {code}: {stderr.strip()[-300:]}", {"exit": code}
        kind = inp["kind"]
        if kind == "selftest":
            ok = "selftest: all checks passed" in stdout
            return ok, "" if ok else "selftest pass line missing", {}
        doc = json.loads(stdout)
        if kind == "width":
            ref = oracle.edge_width_d3(inp["simplex"].vertices)
            gap = abs(doc["value"] - ref)
            values = {"value": doc["value"], "std_error": doc["std_error"],
                      "edge_gap": gap}
            ok = doc["method"] == "exact3d" and gap < 1e-9
            return ok, "" if ok else f"exact3d off the edge formula by {gap:.2e}", values
        if kind == "width_mc":
            ref, ref_se = oracle.mc_width(inp["simplex"].vertices,
                                          self.oracle_samples, inp["oracle_seed"])
            z = (doc["value"] - ref) / math.hypot(doc["std_error"], ref_se)
            values = {"value": doc["value"], "std_error": doc["std_error"],
                      "mc_value": ref, "mc_se": ref_se, "z": z}
            ok = abs(z) <= Z_MAX
            return ok, "" if ok else f"mc width {z:+.1f} se from the reference", values
        if kind == "decompose":
            offband = max(abs(e["gram"][0][2]) for e in doc["entries"])
            values = {"pieces": doc["n_path_simplices"], "max_offband": offband,
                      "audit_ok": doc["audit"]["all_ok"]}
            ok = (doc["n_path_simplices"] == 24 == len(doc["entries"])
                  and doc["audit"]["all_ok"] and offband <= GRAM_OFFBAND)
            return ok, "" if ok else f"bad decomposition {values}", values
        values = {"n_points": doc["n_points"],
                  "violations": doc["violations_f_AA"] + doc["violations_det"]}
        ok = doc["n_points"] > 0 and values["violations"] == 0
        return ok, "" if ok else f"hessian scan {values}", values


def make(name: str, workdir, env: dict, *, trace: bool = False, tiny: bool = False):
    """The named workload; ``tiny`` shrinks every op for the benchmark's tests."""
    if name == "ascent3":
        return Ascent3()
    if name == "ascent4":
        return Ascent4(max_iter=2, mc_samples=2_000, oracle_samples=20_000) if tiny else Ascent4()
    if name == "highdim":
        return HighDim(mat_samples=3_000, oracle_samples=20_000) if tiny else HighDim()
    if name == "cli":
        if tiny:
            return Cli(workdir, env, in_process=trace, grid=20, mc_samples=20_000,
                       selftest_samples=20_000, oracle_samples=20_000)
        return Cli(workdir, env, in_process=trace)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("ascent3", "ascent4", "highdim", "cli")


def attempt(workload: Workload, inp, i: int) -> Record:
    """Run op i once, timing only the call into mwkit, then check it."""
    t0 = perf_counter()
    try:
        out = workload.run(inp)
    except Exception as exc:  # an op that raises is a failed op, not a crash
        dt = perf_counter() - t0
        return Record(i, workload.kind(i), dt, False, f"{type(exc).__name__}: {exc}",
                      start=t0)
    dt = perf_counter() - t0
    try:
        ok, detail, values = workload.check(inp, out)
    except (KeyError, ValueError, TypeError, IndexError) as exc:  # unparsable output
        ok, detail, values = False, f"output check failed: {type(exc).__name__}: {exc}", {}
    return Record(i, workload.kind(i), dt, bool(ok), detail, values, start=t0)
