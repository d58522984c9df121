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
* `integrate` builds the whole table before writing it.  A vectorised
  writer (_write_g17) rounds each cell's 17 digits in float64 with an
  error-free product and puts its text into a fixed-width slot of one
  buffer, byte for byte the text of "%.17g" % x; zeros, nan, inf and a
  cell within its error bound of a rounding tie take Python's own
  "%.17g".  The batched eigensolve (the lam columns) runs on one worker
  thread while this thread computes the trace columns and writes the t,
  q, p and H cells; the lam cells are written after the join.  The
  worker makes that one numpy call only, since LAPACK releases the GIL
  and any other numpy work there would wait for the GIL that this
  thread holds.  The thread is joined before the command returns or
  raises, so the bytes do not depend on it.  A table too large to
  allocate exits 1, naming its rows and bytes.
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
from .verify import RANK_CAP, RANK_CAP_WARNING, TOLERANCES, passes, round_trip_error, run_suite

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_NONGENERIC = 3

SEED_ENV = "TODADUAL_SEED"


def _fmt(x: float) -> str:
    """17-significant-digit decimal, round-trip exact for doubles."""
    return "%.17g" % float(x)


# The whole-table twin of _fmt, for integrate.  A cell is a slot of
# _CELL_BYTES bytes read as _CELL_WORDS little-endian words: byte 0 the
# sign, 1-5 a "0.000" prefix, 6-39 the 17 digits each followed by a point
# slot, 40-44 the exponent and 47 the separator, which the caller writes.
# Unused bytes stay NUL, and one bytes.translate drops them.
_CELL_WORDS = 6
_CELL_BYTES = 8 * _CELL_WORDS
_E_MIN, _E_MAX = -282, 299  # the decimal exponents e whose digits _write_g17 rounds itself
_TIE = 1e-14  # a cell this near a rounding tie falls back; above the 5e-15 error of its scaled value


def _words(text: bytes, count: int) -> np.ndarray:
    return np.frombuffer(text.ljust(8 * count, b"\0"), "<u8")


def _split(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split of doubles into halves of 26 significant bits each."""
    c = (2.0**27 + 1) * v
    high = c - (c - v)
    return high, v - high


@functools.cache
def _g17_tables():
    """10**(16 - e), e in [_E_MIN, _E_MAX], as rows hi, hi's halves and lo; the digit and layout words."""
    pairs = []
    for s in range(16 - _E_MIN, 15 - _E_MAX, -1):  # 10**s from exact integers, hi and lo correctly rounded
        num, den = 10 ** max(s, 0), 10 ** max(-s, 0)
        m, k = (num / den).as_integer_ratio()
        pairs.append((m / k, (num * k - m * den) / den / k))
    hi, lo = np.array(pairs).T
    powers = np.stack([hi, *_split(hi), lo])
    group = np.arange(10000)
    digits = np.zeros((10000, 8), np.uint8)
    digits[:, ::2] = group[:, None] // [1000, 100, 10, 1] % 10 + ord("0")
    trailing = np.count_nonzero(group[:, None] % [10, 100, 1000, 10000] == 0, axis=1)  # 4 for 0000

    def frame(x):  # bytes 0-39: the prefix, or the point after digit x (fixed) or 0 (scientific)
        if -4 <= x < 0:
            return b"\0" + b"0." + b"0" * (-x - 1)
        slot = x if 0 <= x < 17 else 0
        return b"\0" * (7 + 2 * slot) + (b"." if slot < 16 else b"")

    xs = range(_E_MIN, _E_MAX + 2)  # a carry takes e to _E_MAX + 1
    frames = np.array([_words(frame(x), 5) for x in xs]).T.copy()
    exponents = np.array([0 if -4 <= x < 17 else _words(b"e%+03d" % x, 1)[0] for x in xs], "<u8")
    fewest = np.array([x + 1 if 0 <= x < 17 else 1 for x in xs])  # fixed notation keeps its integer digits
    # a cell of k digits keeps its bytes up to digit k - 1, dropping the point slot after it
    keep = np.array([_words(b"\xff" * (5 + 2 * k), 5) for k in range(18)])
    return powers, digits.view("<u8")[:, 0], trailing, frames, exponents, fewest, keep


def _write_g17(x: np.ndarray, out: np.ndarray) -> None:
    """Write the text of "%.17g" % v for every double v of x into its cell of out.

    out has shape x.shape + (_CELL_WORDS,) and dtype "<u8"; each cell
    holds the text NUL-padded, its last byte left for the caller.  The
    bytes equal Python's for every double, on every platform.

    For a finite nonzero v with decimal exponent e, the 17 digits are
    rint(T), T = |v| * 10**(16 - e) in [1e16, 1e17), carried to 1e16 at
    e + 1 when they round to 1e17.  T comes from float64 alone: 10**(16 - e)
    is a double-double hi + lo (within 2**-105), h = fl(|v| * hi) is an even
    integer in [2**53, 2**57), and r, Dekker's exact |v| * hi - h plus
    fl(|v| * lo), is T - h within 5e-15 (hi + lo's error, fl(|v| * lo)'s
    and the last sum's, each below 2e-15).  An r farther than _TIE from a
    half-integer rounds as T - h does, so the digits are h + rint(r); a T
    across 1e16 or 1e17 from h + r rounds to that bound as h + r does.  The
    decades [_E_MIN, _E_MAX] keep the Veltkamp products of |v| and hi
    finite and their halves normal, so Dekker's partial products are exact.

    Fallback: zero, nan and inf, a v outside those decades, an r within
    _TIE of a half-integer (exact ties included) and an h + r outside
    [1e16, 1e17), where log10 misjudged e, take Python's own "%.17g".  On
    integrate's tables that is in practice the zero cells alone.
    """
    powers, digits, trailing, frames, exponents, fewest, keep = _g17_tables()
    a = np.abs(x)
    fast = (a >= 10.0**_E_MIN) & (a < 10.0 ** (_E_MAX + 1))  # zero, inf and nan are outside
    a = np.where(fast, a, 1.0)
    e = np.clip(np.floor(np.log10(a)), _E_MIN, _E_MAX).astype(np.intp)
    hi, hi1, hi2, lo = np.take(powers, e - _E_MIN, axis=1)
    a_hi, a_lo = _split(a)
    h = a * hi
    r = (((a_hi * hi1 - h) + a_hi * hi2) + a_lo * hi1) + a_lo * hi2 + a * lo  # exact a * hi - h, then a * lo
    rounded = np.rint(r)
    fast &= (np.abs(r - rounded) <= 0.5 - _TIE) & ((h - 1e16) + r >= 0) & ((h - 1e17) + r < 0)
    d = h.astype(np.int64) + rounded.astype(np.int64)
    carry = d == 10**17
    d[carry] = 10**16
    e += carry
    # the digits as d0 and four groups of four
    hi = d // 10**8
    lo = d - hi * 10**8
    g3 = lo // 10**4
    g4 = lo - g3 * 10**4
    d0 = hi // 10**8
    hi -= d0 * 10**8
    g1 = hi // 10**4
    g2 = hi - g1 * 10**4
    xi = e - _E_MIN
    sign = np.signbit(x).astype(np.uint64) * ord("-")
    out[..., 0] = frames[0][xi] | (d0 + ord("0")).astype(np.uint64) << 48 | sign
    for word, group in enumerate((g1, g2, g3, g4), 1):
        out[..., word] = digits[group] | frames[word][xi]
    out[..., 5] = exponents[xi]
    # strip trailing zeros from the fraction, and the point when nothing follows it
    z = np.nonzero(trailing[g4])
    zeros = np.zeros(z[0].shape, np.intp)
    run = np.ones(z[0].shape, bool)
    for group in (g4, g3, g2, g1):
        group = group[z]
        zeros += run * trailing[group]
        run &= group == 0
    out[z + (slice(0, 5),)] &= keep[np.maximum(17 - zeros, fewest[xi[z]])]
    slow = np.nonzero(~fast)
    texts = np.array([_fmt(v) for v in x[slow].tolist()], f"S{_CELL_BYTES}")
    out[slow] = texts.view("<u8").reshape(-1, _CELL_WORDS)


def _cells_text(cells: np.ndarray, sep: str) -> str:
    """The text of a (rows, cols, _CELL_WORDS) table of cells: sep between cells, a newline after each row."""
    text = cells.view(np.uint8).reshape(cells.shape[:2] + (_CELL_BYTES,))
    text[..., -1] = ord(sep)
    text[:, -1, -1] = ord("\n")
    return text.tobytes().translate(None, b"\0").decode("ascii")


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
    return np.asarray(values, dtype=float).tolist()


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
    roundtrip_err = round_trip_error(point, back)
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
    # the report is written either way; verify's verdict sets the exit code
    code = EXIT_OK
    for name, value in (("duality-identities", report.max_relative_mismatch), ("round-trip", roundtrip_err)):
        if not passes(name, value):
            print(f"todadual: {name} fails: {value:.3e} is not below its budget {TOLERANCES[name]:.0e}", file=sys.stderr)
            code = EXIT_FAILURE
    return code, _json_text(payload) + "\n"


def cmd_integrate(args) -> tuple[int, str]:
    datum = _datum_for(args)
    point, _ = _toda_point(args, datum, sampler=sample_flow_toda)
    n = datum.algebra.rank
    k = args.hamiltonian if args.hamiltonian is not None else quadratic_index(datum)
    names = (
        ["t"]
        + [f"q{i}" for i in range(1, n + 1)]
        + [f"p{i}" for i in range(1, n + 1)]
        + [f"H{i}" for i in range(1, n + 1)]
        + [f"lam{i}" for i in range(1, datum.size + 1)]
    )
    sep = "," if args.format == "csv" else "\t"
    try:
        body = _integrate_body(datum, point, k, args.dt, args.steps, len(names), sep)
    except MemoryError:
        rows = args.steps + 1
        raise TodaDualError(
            f"a table of {rows} rows and {len(names)} columns needs at least "
            f"{rows * len(names) * _CELL_BYTES} bytes of text, more than could be allocated"
        ) from None
    return EXIT_OK, sep.join(names) + "\n" + body


def _integrate_body(
    datum: RootDatum, point: TodaPoint, k: int, dt: float, steps: int, cols: int, sep: str
) -> str:
    """integrate's table rows: t, q, p, the traces H and the descending spectrum lam."""
    n = datum.algebra.rank
    traj = integrate_flow(datum, point, k, dt, steps)
    X, _ = _lax(datum, traj[:, :n], traj[:, n:])
    # The batched eigensolve runs on one worker thread while this thread
    # computes the traces and writes the t, q, p and H cells; the lam cells
    # follow the join.  The worker makes exactly one numpy call: LAPACK
    # runs without the GIL, but any further numpy work there would wait for
    # the GIL held here.  It is joined before this function returns or
    # raises, and its exception, if any, is raised here.
    box = []

    def solve():
        try:
            box.append(np.linalg.eigvalsh(X))
        except BaseException as exc:
            box.append(exc)

    worker = threading.Thread(target=solve)
    worker.start()
    try:
        left = np.column_stack([np.arange(steps + 1) * dt, traj, _trace_hamiltonians(datum, X)])
        cells = np.zeros((steps + 1, cols, _CELL_WORDS), "<u8")
        _write_g17(left, cells[:, : left.shape[1]])
    finally:
        worker.join()
    (lam,) = box
    if isinstance(lam, BaseException):
        raise lam
    _write_g17(lam[:, ::-1], cells[:, left.shape[1] :])  # descending, chamber order
    return _cells_text(cells, sep)


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
