"""Command-line surface: build Lax data, verify invariants, map across the
duality, and integrate flows.

Output conventions
------------------
* JSON for structured reports; CSV/TSV for trajectories and matrix-entry
  tables.  All floats carry 17 significant digits so files round-trip to
  the exact double.
* Complex matrices serialize as {rows, cols, re: [...], im: [...]} with
  entries flattened row-major.
* Exit codes: 0 success, 1 verification failure (or runtime error),
  2 usage error, 3 non-generic point.
* Output is byte-identical for fixed seed and flags.  The default seed
  comes from the TODADUAL_SEED environment variable when set; explicit
  --seed wins.
* `integrate` builds the whole table before writing it.  Its batched
  eigensolve (the lam columns) runs on one worker thread beside the trace
  columns and the text of the other columns; the worker makes that one
  numpy call only, since LAPACK releases the GIL and any other numpy work
  there would wait for the GIL that the formatting holds.  The thread is
  joined before the command returns or raises, and every cell is the same
  %.17g text of the same double, so the bytes do not depend on it.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import threading

import numpy as np

from . import __version__
from .duality import toda_to_goldfish, goldfish_to_toda, verify_duality_identities
from .errors import NonGenericPointError, TodaDualError, ValidationError
from .rootsys import FAMILIES, AlgebraType, RootDatum, build_root_datum
from .sampling import sample_flow_toda, sample_toda, spawn_rng
from .toda import (
    TodaPoint,
    _lax,
    _trace_hamiltonians,
    build_lax,
    integrate_flow,
    quadratic_index,
    toda_group_element,
)
from .verify import RANK_CAP, RANK_CAP_WARNING, TOLERANCES, run_suite

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_NONGENERIC = 3

SEED_ENV = "TODADUAL_SEED"


def _fmt(x: float) -> str:
    """17-significant-digit decimal, round-trip exact for doubles."""
    return "%.17g" % float(x)


def _scalar_text(obj) -> str:
    """One JSON scalar: 17-digit floats, NaN/Infinity/-Infinity, true/false, null, else a string."""
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isfinite(x):
            return _fmt(x)
        if x != x:
            return "NaN"
        return "Infinity" if x > 0 else "-Infinity"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if obj is None:
        return "null"
    return json.dumps(str(obj))


def _json_text(obj, indent: int = 0) -> str:
    """Recursive JSON emitter with fixed float formatting.

    json.dumps uses shortest-repr floats, which breaks the fixed-width
    contract, so structured output goes through this instead.  A list of
    scalars is one line.
    """
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{pad}  {json.dumps(str(k))}: {_json_text(v, indent + 1)}' for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if not any(isinstance(v, (dict, list, tuple)) for v in obj):
            return "[" + ", ".join(map(_scalar_text, obj)) + "]"
        items = [f"{pad}  {_json_text(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    return _scalar_text(obj)


def _matrix_payload(M: np.ndarray) -> dict:
    M = np.asarray(M, dtype=complex)
    return {
        "rows": int(M.shape[0]),
        "cols": int(M.shape[1]),
        "re": [float(v) for v in M.real.ravel(order="C")],
        "im": [float(v) for v in M.imag.ravel(order="C")],
    }


def _vector(values) -> list:
    return [float(v) for v in np.asarray(values, dtype=float)]


def _parse_vector(text: str, rank: int, flag: str) -> np.ndarray:
    try:
        values = np.array([float(tok) for tok in text.split(",")], dtype=float)
    except ValueError as exc:
        raise ValidationError(f"{flag} expects comma-separated floats: {exc}") from None
    if values.shape != (rank,):
        raise ValidationError(f"{flag} must have {rank} entries, got {values.size}")
    if not np.isfinite(values).all():
        raise ValidationError(f"{flag} has non-finite entries")
    return values


def _resolve_seed(args) -> int:
    source, text = "--seed", args.seed
    if text is None:
        source, text = SEED_ENV, os.environ.get(SEED_ENV, "0")
    try:
        seed = int(text)
    except ValueError:
        raise ValidationError(f"{source} must be an integer, got {text!r}") from None
    if seed < 0:
        raise ValidationError(f"{source} must be a non-negative integer, got {seed}")
    return seed


def _datum_for(args, runs_duality_maps: bool = False) -> RootDatum:
    """Root datum of --type/--rank; warns above RANK_CAP for commands that run the duality maps."""
    datum = build_root_datum(AlgebraType(args.type, args.rank))
    if runs_duality_maps and args.rank > RANK_CAP:
        print(f"warning: rank {args.rank} {RANK_CAP_WARNING}", file=sys.stderr)
    return datum


def _toda_point(args, datum: RootDatum, sampler=sample_toda):
    """Explicit --p/--q point, or a seeded sample when neither is given.

    Returns (point, seed_used); seed_used is None for explicit points.
    """
    n = datum.algebra.rank
    if (args.p is None) != (args.q is None):
        raise ValidationError("provide both --p and --q, or neither")
    if args.p is not None:
        return (
            TodaPoint(q=_parse_vector(args.q, n, "--q"), p=_parse_vector(args.p, n, "--p")),
            None,
        )
    seed = _resolve_seed(args)
    return sampler(datum, spawn_rng(seed, 0)), seed


def _header(args, command: str, seed) -> dict:
    return {
        "tool": "todadual",
        "version": __version__,
        "command": command,
        "family": args.type,
        "rank": int(args.rank),
        "seed": None if seed is None else int(seed),
    }


def cmd_lax(args) -> tuple[int, str]:
    datum = _datum_for(args)
    point, seed = _toda_point(args, datum)
    X = build_lax(datum, point)
    g = toda_group_element(datum, point)
    if args.format == "json":
        payload = {
            "header": _header(args, "lax", seed),
            "point": {"q": _vector(point.q), "p": _vector(point.p)},
            "g": _matrix_payload(g),
            "X": _matrix_payload(X),
        }
        return EXIT_OK, _json_text(payload) + "\n"
    sep = "," if args.format == "csv" else "\t"
    lines = [sep.join(["matrix", "row", "col", "re", "im"])]
    for name, M in (("g", g), ("X", X)):
        M = np.asarray(M, dtype=complex)
        for i in range(M.shape[0]):
            for j in range(M.shape[1]):
                lines.append(
                    sep.join([name, str(i), str(j), _fmt(M[i, j].real), _fmt(M[i, j].imag)])
                )
    return EXIT_OK, "\n".join(lines) + "\n"


def cmd_verify(args) -> tuple[int, str]:
    datum = _datum_for(args, runs_duality_maps=True)
    seed = _resolve_seed(args)
    report = run_suite(datum, seed, npoints=args.points, flow_steps=args.flow_steps)
    report["header"] = {**_header(args, "verify", seed), **report["header"]}
    code = EXIT_OK if report["all_passed"] else EXIT_FAILURE
    return code, _json_text(report) + "\n"


def cmd_dual_map(args) -> tuple[int, str]:
    datum = _datum_for(args, runs_duality_maps=True)
    point, seed = _toda_point(args, datum)
    gp = toda_to_goldfish(datum, point)
    report = verify_duality_identities(datum, point)
    back = goldfish_to_toda(datum, gp)
    roundtrip_err = float(
        max(np.max(np.abs(back.q - point.q)), np.max(np.abs(back.p - point.p)))
    )
    payload = {
        "header": _header(args, "dual-map", seed),
        "toda_point": {"q": _vector(point.q), "p": _vector(point.p)},
        "goldfish_point": {"qhat": _vector(gp.qhat), "phat": _vector(gp.phat)},
        "identities": {
            "kmax": datum.algebra.rank,
            "toda_values": _vector(report.toda_values),
            "goldfish_values": _vector(report.goldfish_values),
            "jk_toda_gauge": _vector(report.jk_toda_gauge),
            "ik_moser_gauge": _vector(report.ik_moser_gauge),
            "max_relative_mismatch": float(report.max_relative_mismatch),
        },
        "roundtrip": {
            "q": _vector(back.q),
            "p": _vector(back.p),
            "max_abs_error": roundtrip_err,
        },
    }
    # the report is written either way; its own verdict sets the exit code
    code = EXIT_OK
    for name, value in (("duality-identities", report.max_relative_mismatch), ("round-trip", roundtrip_err)):
        if not value <= TOLERANCES[name]:
            print(f"todadual: {name} fails: {value:.3e} exceeds its budget {TOLERANCES[name]:.0e}", file=sys.stderr)
            code = EXIT_FAILURE
    return code, _json_text(payload) + "\n"


def cmd_integrate(args) -> tuple[int, str]:
    datum = _datum_for(args)
    point, _ = _toda_point(args, datum, sampler=sample_flow_toda)
    n = datum.algebra.rank
    k = args.hamiltonian if args.hamiltonian is not None else quadratic_index(datum)
    traj = integrate_flow(datum, point, k, args.dt, args.steps)
    X, _ = _lax(datum, traj[:, :n], traj[:, n:])
    # The batched eigensolve runs on one worker thread while this thread
    # computes the traces and the text of the t, q, p and H cells.  The
    # worker makes exactly one numpy call: LAPACK runs without the GIL, but
    # any further numpy work there would wait for the GIL held by the
    # formatting here.  It is joined before this function returns or
    # raises, and its exception, if any, is raised here.
    box = []

    def solve():
        try:
            box.append(np.linalg.eigvalsh(X))
        except BaseException as exc:
            box.append(exc)

    worker = threading.Thread(target=solve)
    worker.start()
    sep = "," if args.format == "csv" else "\t"
    try:
        left = np.column_stack([np.arange(args.steps + 1) * args.dt, traj, _trace_hamiltonians(datum, X)])
        row = sep.join(["%.17g"] * left.shape[1])  # _fmt's format for every cell
        heads = [row % tuple(cells) for cells in left.tolist()]
    finally:
        worker.join()
    (lam,) = box
    if isinstance(lam, BaseException):
        raise lam
    names = (
        ["t"]
        + [f"q{i}" for i in range(1, n + 1)]
        + [f"p{i}" for i in range(1, n + 1)]
        + [f"H{i}" for i in range(1, n + 1)]
        + [f"lam{i}" for i in range(1, datum.size + 1)]
    )
    lam_row = sep + sep.join(["%.17g"] * datum.size)
    lam = lam[:, ::-1].tolist()  # descending, chamber order
    lines = [sep.join(names)] + [head + lam_row % tuple(cells) for head, cells in zip(heads, lam)]
    return EXIT_OK, "\n".join(lines) + "\n"


def _add_common(sub: argparse.ArgumentParser, formats: list) -> None:
    """Flags every command takes; --format offers the command's own formats, the first by default."""
    sub.add_argument("--type", required=True, choices=list(FAMILIES), help="algebra family")
    sub.add_argument("--rank", required=True, type=int, help="rank n")
    sub.add_argument("--seed", type=int, default=None, help=f"non-negative sampler seed (default: ${SEED_ENV} or 0)")
    sub.add_argument("--format", default=formats[0], choices=formats, help="output format")
    sub.add_argument("--out", default=None, metavar="PATH", help="output file (default: stdout)")


def _add_point_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--p", default=None, help="comma-separated momenta (with --q)")
    sub.add_argument("--q", default=None, help="comma-separated positions (with --p)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built on first use and shared by every later call."""
    parser = argparse.ArgumentParser(
        prog="todadual",
        description="Open Toda chains of types A-D, their rational goldfish duals, "
        "and numerical verification of the duality.",
    )
    parser.add_argument("--version", action="version", version=f"todadual {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    lax = commands.add_parser("lax", help="emit the group element g and Lax matrix X at a point")
    _add_common(lax, ["json", "csv", "tsv"])
    _add_point_flags(lax)
    lax.set_defaults(fn=cmd_lax)

    ver = commands.add_parser("verify", help="run the seeded invariant suite, JSON report")
    _add_common(ver, ["json"])
    ver.add_argument("--points", type=int, default=8, help="sample points per property")
    ver.add_argument("--flow-steps", type=int, default=200, help="integrator steps in the flow property")
    ver.set_defaults(fn=cmd_verify)

    dual = commands.add_parser("dual-map", help="map a Toda point to its dual coordinates and back")
    _add_common(dual, ["json"])
    _add_point_flags(dual)
    dual.set_defaults(fn=cmd_dual_map)

    integ = commands.add_parser("integrate", help="implicit-midpoint trajectory with invariant columns")
    _add_common(integ, ["csv", "tsv"])
    _add_point_flags(integ)
    integ.add_argument("--dt", type=float, default=1.0e-3, help="time step")
    integ.add_argument("--steps", type=int, default=1000, help="number of steps")
    integ.add_argument(
        "--hamiltonian",
        type=int,
        default=None,
        metavar="K",
        help="flow index (default: the quadratic one)",
    )
    integ.set_defaults(fn=cmd_integrate)
    return parser


def _write(text: str, out_path) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return 0 if exc.code is None else int(exc.code)
    try:
        code, text = args.fn(args)
        _write(text, args.out)
        return code
    except ValidationError as exc:
        print(f"todadual: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NonGenericPointError as exc:
        print(f"todadual: non-generic point: {exc}", file=sys.stderr)
        return EXIT_NONGENERIC
    except TodaDualError as exc:
        print(f"todadual: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except OSError as exc:
        print(f"todadual: i/o error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
