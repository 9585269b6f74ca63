"""Command-line interface: width evaluation, decompositions, Hessian scans,
optimization, and a cross-module self-test.

Each subcommand takes only the options it reads (``build_parser``); any
other option is an argparse usage error, exit 2.

The library decides what input is valid; the commands repeat none of its
checks, and ``main`` alone turns its errors into exit codes: 0 ok,
1 self-test failure, 2 a ``ValueError`` from the library (a method that
does not fit the dimension, an out-of-range count such as ``--grid`` or
``--samples``, an orthoscheme piece that is not a proper cell) or
``optimize --restarts`` below 1, 3 infeasible simplex, 4 a degeneracy
(``DegeneracyError``), 5 an unwritable output, or a simplex file that
cannot be read or is not a valid simplex (``load_simplex``).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys

import numpy as np

from .cells import (DegeneracyError, InscribedSimplex, _chain_orders,
                    _chain_path, _complex24_audit, _complex24_core,
                    _dihedral_angles, feasibility_checks, gram_matrix,
                    maximal_chains)
from .hessian import region_scan
from .measures import HalfspaceCell, cell_marginal_mean_MAT, wallis_complete
from .width import (mean_width_exact3d, mean_width_mat, mean_width_mc,
                    optimize_width, regular_simplex, regular_tetrahedron_width)

_EXIT_OK = 0
_EXIT_SELFTEST = 1
_EXIT_BAD_INPUT = 2
_EXIT_INFEASIBLE = 3
_EXIT_DEGENERATE = 4
_EXIT_IO = 5


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not serializable: {type(obj)}")


def _dump_json(payload, path=None):
    text = json.dumps(payload, indent=2, default=_json_default)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def simplex_to_document(S: InscribedSimplex, metadata=None) -> dict:
    return {"d": S.d, "vertices": S.vertices.tolist(),
            "metadata": dict(metadata or {})}


def load_simplex(path: str, auto_normalize: bool = False) -> InscribedSimplex:
    """Read a simplex JSON document {"d":…, "vertices":…, "metadata":…}."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read simplex file {path}: {exc}", file=sys.stderr)
        raise SystemExit(_EXIT_IO)
    try:
        d = int(doc["d"])
        V = np.asarray(doc["vertices"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        print(f"error: malformed simplex document: {exc}", file=sys.stderr)
        raise SystemExit(_EXIT_IO)
    if V.shape != (d + 1, d):
        print(f"error: vertices must be (d+1) x d, got {V.shape} for d={d}",
              file=sys.stderr)
        raise SystemExit(_EXIT_IO)
    try:
        if auto_normalize:
            norms = np.linalg.norm(V, axis=1, keepdims=True)
            if not np.all((norms > 0.0) & np.isfinite(norms)):
                raise ValueError("a vertex has zero or non-finite norm")
            V = V / norms
        return InscribedSimplex(V)
    except DegeneracyError as exc:
        print(f"error: degenerate simplex: {exc}", file=sys.stderr)
        raise SystemExit(_EXIT_DEGENERATE)
    except ValueError as exc:
        print(f"error: invalid simplex: {exc}", file=sys.stderr)
        raise SystemExit(_EXIT_IO)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_width(args) -> int:
    S = load_simplex(args.simplex, args.auto_normalize)
    report = feasibility_checks(S)
    if not report.all_ok:
        print(json.dumps({
            "error": "infeasible simplex",
            "origin_in_hull": report.origin_in_hull,
            "vertices_on_sphere": report.vertices_on_sphere,
            "hemisphere_cover": report.hemisphere_cover,
        }))
        return _EXIT_INFEASIBLE
    if args.method == "exact3d":
        est = mean_width_exact3d(S)
    elif args.method == "mc":
        est = mean_width_mc(S, args.samples, args.seed)
    else:
        est = mean_width_mat(S, args.samples, args.seed)
    _dump_json({"value": est.value, "std_error": est.std_error,
                "method": est.method}, args.out)
    return _EXIT_OK


def cmd_decompose(args) -> int:
    S = load_simplex(args.simplex, args.auto_normalize)
    # every chain's path simplex, Gram matrix and dihedral angles in one
    # stack; in d = 3 the chains are the 24-triangle complex, read once for
    # the entries and the audit
    if S.d == 3:
        signs, _, _, paths = _complex24_core(S._faces)
    else:
        paths, signs = _chain_path(S._faces, _chain_orders(S.d + 1))
    grams = gram_matrix(paths)
    thetas = _dihedral_angles(grams)
    entries = [{"chain": [sorted(Q) for Q in chain], "sign": int(sign),
                "path_vertices": P.tolist(), "gram": G.tolist(),
                "dihedral_angles": theta.tolist()}
               for chain, sign, P, G, theta
               in zip(maximal_chains(S.d), signs, paths, grams, thetas)]
    payload = {"d": S.d, "n_path_simplices": len(entries), "entries": entries}
    if S.d == 3:
        audit = _complex24_audit(S, signs, paths)
        payload["audit"] = {**dataclasses.asdict(audit), "all_ok": audit.all_ok}
    if S.d == 4:
        payload["level_angle_sums"] = thetas.sum(axis=0).tolist()
    _dump_json(payload, args.out)
    return _EXIT_OK


def cmd_hessian(args) -> int:
    rep = region_scan(args.grid)
    if args.out:
        rep.to_csv(args.out)
    print(json.dumps({
        "n_points": rep.n_points,
        "min_det_hess": rep.min_det_hess,
        "min_neg_f_AA": rep.min_neg_f_AA,
        "max_fd_gap": rep.max_fd_gap,
        "violations_f_AA": rep.violations_f_AA,
        "violations_det": rep.violations_det,
    }))
    return _EXIT_OK if rep.ok else _EXIT_SELFTEST


def cmd_optimize(args) -> int:
    if args.restarts < 1:
        print("error: --restarts must be >= 1", file=sys.stderr)
        return _EXIT_BAD_INPUT
    if args.init:
        starts = [(load_simplex(args.init, args.auto_normalize), args.seed)]
    else:
        starts = [("random", args.seed + r) for r in range(args.restarts)]
    traces = [optimize_width(args.d, init, max_iter=args.max_iter, tol=args.tol,
                             seed=seed, mc_samples=args.samples)
              for init, seed in starts]
    best = max(traces, key=lambda trace: trace[-1].width.value)
    final = best[-1]
    if args.out:
        with open(args.out, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["iteration", "width", "step", "regularity_metric"])
            for st in best:
                w.writerow([st.iteration, _fmt(st.width.value),
                            _fmt(st.step_size), _fmt(st.regularity)])
    doc = simplex_to_document(final.simplex, {
        "width": _fmt(final.width.value),
        "method": final.width.method,
        "iterations": str(final.iteration),
        "converged": str(final.converged),
    })
    if args.simplex_out:
        _dump_json(doc, args.simplex_out)
    print(json.dumps({
        "width": final.width.value,
        "regularity_metric": final.regularity,
        "regular_width": regular_tetrahedron_width() if args.d == 3 else None,
        "iterations": final.iteration,
        "converged": final.converged,
        "grad_norm": final.grad_norm,
        "restarts": len(traces),
    }))
    return _EXIT_OK


def _octant_cell() -> HalfspaceCell:
    return HalfspaceCell(np.eye(3))


def cmd_selftest(args) -> int:
    failures = []

    # Wallis product and bounds
    for d in range(1, 51):
        prod = d * wallis_complete(d) * wallis_complete(d - 1)
        if abs(prod - 2 * math.pi) > 1e-12:
            failures.append(f"wallis product d={d}: {prod}")
        W = wallis_complete(d)
        if not (math.sqrt(2 * math.pi / (d + 1)) < W < math.sqrt(2 * math.pi / d)):
            failures.append(f"wallis bound d={d}")

    # MAT prefactor versus the d=3 closed form on the octant
    pref = args.force_mat_prefactor or "d-1"
    mm = cell_marginal_mean_MAT(_octant_cell(), args.samples, args.seed,
                                prefactor_denominator=pref)
    if abs(mm.value - 1.0 / 16.0) > 4 * max(mm.std_error, 1e-9):
        failures.append(
            f"MAT prefactor check: octant marginal {mm.value:.6g} != 1/16 "
            f"(prefactor denominator {pref})")

    # method agreement on the regular tetrahedron
    S = regular_simplex(3)
    exact = mean_width_exact3d(S)
    mc = mean_width_mc(S, args.samples, args.seed)
    if abs(exact.value - mc.value) > 4 * mc.std_error:
        failures.append(f"method agreement: exact {exact.value} vs mc {mc.value}")

    closed = (6.0 / math.pi) * math.acos(1.0 / math.sqrt(3.0)) * math.sqrt(2.0 / 3.0)
    if abs(regular_tetrahedron_width() - closed) > 1e-12:
        failures.append("regular tetrahedron width vs closed form")

    if failures:
        for f in failures:
            print(f"FAIL {f}")
        return _EXIT_SELFTEST
    print("selftest: all checks passed")
    return _EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_COMMON_OPTIONS = {"seed": dict(type=int, default=0),
                   "samples": dict(type=int, default=1_000_000),
                   "tol": dict(type=float, default=1e-10),
                   "out": dict(default=None, help="output file path")}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="mwkit",
        description="Mean width of inscribed simplices: evaluation, "
                    "decomposition, Hessian scans, optimization.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, *names, simplex=False):
        # only the shared options this subcommand reads
        for name in names:
            sp.add_argument(f"--{name}", **_COMMON_OPTIONS[name])
        if simplex:
            sp.add_argument("simplex", help="simplex JSON file")
            sp.add_argument("--auto-normalize", action="store_true",
                            help="renormalize near-unit vertices on ingest")

    sp = sub.add_parser("width", help="mean width of a simplex")
    common(sp, "seed", "samples", "out", simplex=True)
    sp.add_argument("--method", choices=["exact3d", "mc", "mat"],
                    default="exact3d")
    sp.set_defaults(func=cmd_width)

    sp = sub.add_parser("decompose", help="signed path-simplex decomposition")
    common(sp, "out", simplex=True)
    sp.set_defaults(func=cmd_decompose)

    sp = sub.add_parser("hessian", help="negative-definiteness region scan")
    common(sp, "out")
    sp.add_argument("--grid", type=int, default=200)
    sp.set_defaults(func=cmd_hessian)

    sp = sub.add_parser("optimize", help="ascent of the width (BFGS in d = 3)")
    common(sp, "seed", "samples", "tol", "out")
    sp.add_argument("-d", type=int, default=3)
    sp.add_argument("--restarts", type=int, default=1)
    sp.add_argument("--max-iter", type=int, default=1000)
    sp.add_argument("--init", default=None, help="initial simplex JSON file")
    sp.add_argument("--simplex-out", default=None,
                    help="write the final simplex JSON here")
    sp.add_argument("--auto-normalize", action="store_true")
    sp.set_defaults(samples=100_000, func=cmd_optimize)

    sp = sub.add_parser("selftest", help="cross-module oracle checks")
    common(sp, "seed", "samples")
    sp.add_argument("--force-mat-prefactor", choices=["d-1", "d-2"],
                    default=None, help=argparse.SUPPRESS)
    sp.set_defaults(samples=200_000, func=cmd_selftest)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else _EXIT_IO
    except DegeneracyError as exc:  # a ValueError, so this branch comes first
        print(f"error: degenerate configuration: {exc}", file=sys.stderr)
        return _EXIT_DEGENERATE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_BAD_INPUT
    except OSError as exc:
        print(f"error: cannot write {exc.filename}: {exc}", file=sys.stderr)
        return _EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
