"""Command-line front end: exhaustive checks, hull queries, closed-form
evaluation and the symbolic verification transcript.

Exit codes: 0 when every requested check passes, 1 when a counterexample
or verification mismatch is found, 2 for unusable configuration or input
or an interrupt (Ctrl-C), 3 for an implementation fault (any
RuntimeError, such as disagreeing hull routes).  Exits 2 and 3 report on
one `error:` line and write no report.  Reports are written atomically
(write to a temp file, then rename).  `check` sweeps in one pass.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

from .convexity import HullVerdict, halfspace_hull, sweep_triples
from .coxeter import TypeTag
from .formulas import (A2Coord, C2CaseParams, CoordinateError,
                       a2_chamber_pair, c2_case2_chambers, c2_case2_counts,
                       a2_pair_count, dihedral_pair_count, i2_cell,
                       orientation_for_parity)
from .propcheck import (MismatchReport, a2_box_violations, c2_box_violations,
                        verify_a2_identities, verify_c2_corrected_expansion,
                        verify_c2_expansion)
from .svg import hull_scene
from .tessellation import GroupContext, build_group


class ConfigError(ValueError):
    pass


class ParseError(ValueError):
    pass


def _context(code: str) -> GroupContext:
    return build_group(TypeTag.from_code(code))


def _word_chamber(ctx: GroupContext, word: str):
    indices = []
    digits = "123456789"[:ctx.rank]
    for ch in word:
        if ch not in digits:
            raise ParseError(
                f"word {word!r}: expected digits 1..{ctx.rank} only")
        indices.append(digits.index(ch))
    return ctx.chamber_from_word(indices)


def _write_atomic(path: str, content: str) -> None:
    """Write, flush and fsync a temp file, then rename it over `path`; on
    any failure remove the temp file and leave `path` as it was."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(content)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


# -- subcommands -------------------------------------------------------------

def cmd_check(args) -> int:
    if args.radius < 0:
        raise ConfigError("radius must be non-negative")
    if args.radius > args.radius_cap:
        raise ConfigError(
            f"radius {args.radius} exceeds the cap {args.radius_cap}; "
            f"raise it explicitly with --radius-cap")
    report = sweep_triples(TypeTag.from_code(args.type), args.radius,
                           seed=args.seed)
    print(f"type {report.type} radius {report.radius}: "
          f"{report.triples_checked} triples checked, "
          f"{len(report.counterexamples)} counterexamples, "
          f"max ratio {report.max_ratio.numerator}/{report.max_ratio.denominator}, "
          f"{report.wall_clock_ms} ms")
    for ce in report.counterexamples:
        print(f"  counterexample: v={ce['v']!r} w={ce['w']!r} "
              f"{ce['size_uv']}*{ce['size_vw']} < {ce['size_uvw']}")
    if args.report:
        _write_atomic(args.report, report.to_json())
        print(f"report written to {args.report}")
    return 0 if report.ok else 1


def cmd_hull(args) -> int:
    ctx = _context(args.type)
    u = _word_chamber(ctx, args.u)
    v = _word_chamber(ctx, args.v)
    w = _word_chamber(ctx, args.w)
    hull_uv = halfspace_hull([u, v])
    hull_vw = halfspace_hull([v, w])
    hull_uw = halfspace_hull([u, w])
    hull_uvw = halfspace_hull([u, v, w])
    print(f"d(u,v)={ctx.wall_distance(u, v)} d(v,w)={ctx.wall_distance(v, w)} "
          f"d(u,w)={ctx.wall_distance(u, w)}")
    print(f"|Conv(u,v)|={hull_uv.size} |Conv(v,w)|={hull_vw.size} "
          f"|Conv(u,w)|={hull_uw.size} |Conv(u,v,w)|={hull_uvw.size}")
    verdict = HullVerdict(hull_uv.size, hull_vw.size, hull_uvw.size)
    rel = ">=" if verdict.holds else "<"
    print(f"strong hull: {verdict.size_uv}*{verdict.size_vw} = "
          f"{verdict.product} {rel} {verdict.size_uvw} "
          f"({'holds' if verdict.holds else 'FAILS'})")
    if args.svg:
        scene = hull_scene(ctx, u, v, w, hull_uv, hull_vw, hull_uvw)
        _write_atomic(args.svg, scene.to_svg())
        print(f"svg written to {args.svg} ({scene.filled_count()} filled polygons)")
    return 0 if verdict.holds else 1


def _ints(text: str, n: int, what: str):
    parts = text.split(",")
    if len(parts) != n:
        raise ParseError(f"{what} wants {n} comma-separated integers, got {text!r}")
    try:
        return [int(p) for p in parts]
    except ValueError:
        raise ParseError(f"{what} wants integers, got {text!r}") from None


def _enumerated(checks) -> int:
    """Print one "enumerated:" line of (label, closed form, enumerated size)
    checks, marking each equal or not; return the number not equal."""
    print("enumerated: " + " ".join(
        f"{label}{have} (equal: {'yes' if want == have else 'NO'})"
        for label, want, have in checks))
    return sum(want != have for _, want, have in checks)


def cmd_formula(args) -> int:
    tag = TypeTag.from_code(args.type)
    mismatches = 0
    if tag is TypeTag.I2Infinity:
        if args.d is None:
            raise ConfigError("--d N is required for i2inf")
        count = dihedral_pair_count(args.d)
        print(f"interval size at distance {args.d}: {count}")
        if args.verify:
            ctx = _context("i2inf")
            got = halfspace_hull([i2_cell(ctx, 0), i2_cell(ctx, args.d)]).size
            mismatches = _enumerated([("", count, got)])
    elif tag is TypeTag.A2Tilde:
        if not args.xy:
            raise ConfigError("--xy X,Y is required for a2t")
        x, y = _ints(args.xy, 2, "--xy")
        coord = A2Coord(x, y, orientation_for_parity(x, y))
        count = a2_pair_count(coord)
        print(f"pair count at ({x},{y}) "
              f"[{coord.base_orientation.value} base, x+y {'even' if (x+y) % 2 == 0 else 'odd'}]: {count}")
        if args.verify:
            ctx = _context("a2t")
            u, v = a2_chamber_pair(ctx, coord)
            mismatches = _enumerated([("", count, halfspace_hull([u, v]).size)])
    elif tag is TypeTag.C2Tilde:
        if not args.abxy:
            raise ConfigError("--abxy A,B,X,Y is required for c2t")
        a, b, x, y = _ints(args.abxy, 4, "--abxy")
        params = C2CaseParams(a, b, x, y)
        counts = c2_case2_counts(params)
        print(f"counts at (a,b,x,y)=({a},{b},{x},{y}): "
              f"size_uv={counts[0]} size_vw={counts[1]} size_uvw={counts[2]}")
        product = counts[0] * counts[1]
        rel = ">=" if product >= counts[2] else "<"
        print(f"strong hull product: {counts[0]}*{counts[1]} = {product} {rel} {counts[2]}")
        if args.verify:
            ctx = _context("c2t")
            u, v, w = c2_case2_chambers(ctx, params)
            got = (halfspace_hull([u, v]).size, halfspace_hull([v, w]).size,
                   halfspace_hull([u, v, w]).size)
            mismatches = _enumerated(
                list(zip(("size_uv=", "size_vw=", "size_uvw="), counts, got)))
    else:
        raise ConfigError(f"no closed forms for type {args.type}")
    return 1 if mismatches else 0


def cmd_prove(args) -> int:
    # The least boxes that admit a tuple: (x,y,a,b) = (1,0,1,1) for a2,
    # and a = 2, x = a+3 for c2.
    default, least = (25, 1) if args.which == "a2" else (40, 5)
    box = default if args.box is None else args.box
    if box < least:
        raise ConfigError(f"box {box} admits no {args.which} tuple; "
                          f"it must be at least {least}")
    ok = True
    if args.which == "a2":
        lhs_match, rhs_match = verify_a2_identities()
        print(f"left-side decomposition identity: {'ok' if lhs_match else 'MISMATCH'}")
        print(f"right-side factorization identity: {'ok' if rhs_match else 'MISMATCH'}")
        violations = a2_box_violations(box)
        print(f"brute-force box <= {box}: {len(violations)} violations")
        for v in violations[:10]:
            print(f"  violation at (x,y,a,b)=({v[0]},{v[1]},{v[2]},{v[3]}): {v[4]} < {v[5]}")
        ok = lhs_match and rhs_match and not violations
    else:
        # The paper's expansion, then the one of the corrected middle count.
        for label, verify in (("", verify_c2_expansion),
                              ("corrected ", verify_c2_corrected_expansion)):
            try:
                diff = verify()
            except MismatchReport as exc:
                print(exc)
                ok = False
                continue
            print(f"{label}difference expansion ({len(diff.terms)} terms):")
            print(f"  {diff}")
            print(f"term-for-term match with pinned {label}expansion: ok")
            positive = all(c > 0 for c in diff.terms.values())
            print(f"all {label}coefficients strictly positive: {'ok' if positive else 'NO'}")
            ok = ok and positive
        violations = c2_box_violations(box)
        print(f"brute-force box <= {box}: {len(violations)} violations")
        for v in violations[:10]:
            print(f"  violation at (a,b,x,y)=({v[0]},{v[1]},{v[2]},{v[3]}): {v[4]} < {v[5]}")
        ok = ok and not violations
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


# -- argument parsing ---------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coxhull",
        description="Exact hull checks on planar Coxeter tessellations",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    types = ["a2t", "c2t", "g2t", "i2inf"]

    p = sub.add_parser("check", help="exhaustive strong-hull sweep")
    p.add_argument("--type", required=True, choices=types)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--report", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--radius-cap", type=int, default=8)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("hull", help="hull sizes for explicit elements")
    p.add_argument("--type", required=True, choices=types)
    p.add_argument("--u", default="")
    p.add_argument("--v", default="")
    p.add_argument("--w", default="")
    p.add_argument("--svg", default=None)
    p.set_defaults(func=cmd_hull)

    p = sub.add_parser("formula", help="closed-form hull counts")
    p.add_argument("--type", required=True, choices=types)
    p.add_argument("--xy", default=None, help="A2 chamber coordinate X,Y")
    p.add_argument("--abxy", default=None, help="square-grid case parameters A,B,X,Y")
    p.add_argument("--d", type=int, default=None, help="line-model distance")
    p.add_argument("--verify", action="store_true",
                   help="cross-check against hull enumeration")
    p.set_defaults(func=cmd_formula)

    p = sub.add_parser("prove", help="symbolic verification transcript")
    p.add_argument("which", choices=["a2", "c2"])
    p.add_argument("--box", type=int, default=None,
                   help="brute-force box bound (default 25 for a2, 40 for c2)")
    p.set_defaults(func=cmd_prove)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ParseError, CoordinateError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
