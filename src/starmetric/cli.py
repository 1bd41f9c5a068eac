"""Command-line front end.

Exit codes follow one contract everywhere: 0 when the queried property holds
(space is a star space, witness produced, campaign holds), 1 for a negative
mathematical result (forbidden quad, not weakly similar, counterexample
found), 2 for usage or input errors.  Reports go to stdout, diagnostics to
stderr, and identical invocations produce byte-identical stdout.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .decision import diagnose, dplus_space, find_center, forbidden_scan, shift, unshift
from .errors import CenterViolationError, InternalCheckError, StarmetricError
from .fileio import parse_space_file, space_to_json_text, star_to_json_text
from .models import CONJECTURE_IDS
from .similarity import weakly_similar
from .spaces import validate
from .stars import star_from_center, star_to_dot
from .rationals import parse_rational


def _write(text: str) -> None:
    """Write a command's whole stdout at once, as UTF-8 bytes whatever the
    locale, so no encoding error can cut it short; a stream without a byte
    layer (an ``io.StringIO``) takes the text."""
    buffer = getattr(sys.stdout, "buffer", None)
    if buffer is None:
        sys.stdout.write(text)
        return
    sys.stdout.flush()
    buffer.write(text.encode("utf-8"))


def _emit(data: dict) -> None:
    print(json.dumps(data, indent=2))


def _cmd_validate(args) -> int:
    space = parse_space_file(args.space)
    report = validate(space)
    _emit(report.to_dict())
    return 0 if report.is_ultrametric else 1


def _cmd_diagnose(args) -> int:
    space = parse_space_file(args.space)
    report = diagnose(space)
    if report.center is not None:
        star = star_from_center(space, report.center.center)
        text = json.dumps({"verdict": report.verdict.value, "center": report.center.center,
                           "star": star.to_dict()}, indent=2) + "\n"
        _write(text + star_to_dot(star) if args.dot else text)
        return 0
    payload = {"verdict": report.verdict.value}
    payload.update(report.forbidden.to_dict())
    _emit(payload)
    return 1


def _cmd_star(args) -> int:
    space = parse_space_file(args.space)
    if args.center is not None:
        center = args.center
    else:
        witness = find_center(space)
        if witness is None:
            print("no star center exists: the space is not star-generated", file=sys.stderr)
            return 1
        center = witness.center
    try:
        star = star_from_center(space, center)
    except CenterViolationError as exc:
        print(f"not a star center: {exc}", file=sys.stderr)
        return 1
    text = star_to_json_text(star)
    _write(text + star_to_dot(star) if args.dot else text)
    return 0


def _cmd_scan(args) -> int:
    space = parse_space_file(args.space)
    witness = forbidden_scan(space)
    if witness is None:
        return 0
    _emit(witness.to_dict())
    return 1


def _cmd_shift(args) -> int:
    space = parse_space_file(args.space)
    delta = parse_rational(args.delta)
    result = unshift(space, delta) if args.unshift else shift(space, delta)
    print(space_to_json_text(result), end="")
    return 0


def _cmd_weaksim(args) -> int:
    a = parse_space_file(args.space_a)
    b = parse_space_file(args.space_b)
    witness = weakly_similar(a, b, max_points=args.max_points)
    if witness is None:
        print("not weakly similar", file=sys.stderr)
        return 1
    _emit(witness.to_dict())
    return 0


def _cmd_dplus(args) -> int:
    values = [v for v in args.values.split(",") if v.strip()]
    space = dplus_space(values)
    print(space_to_json_text(space), end="")
    return 0


# gen and conjecture import the lab themselves, so no other command loads it
def _generator_spec(args) -> lab.GeneratorSpec:
    from . import lab

    alphabet = tuple(v for v in args.alphabet.split(",") if v.strip())
    return lab.GeneratorSpec(
        n=args.n,
        alphabet=alphabet,
        mode=args.mode,
        seed=args.seed,
        count=args.count,
        override_caps=args.override_caps,
    )


def _cmd_gen(args) -> int:
    from . import lab

    spec = _generator_spec(args)
    for space in lab.generate(spec):
        print(json.dumps(space.to_dict()))
    return 0


def _cmd_conjecture(args) -> int:
    from . import lab

    spec = _generator_spec(args)
    report = lab.run_campaign(spec, args.which, jobs=args.jobs)
    _emit(report.to_dict())
    print(f"wall time: {report.wall_time_s:.3f}s", file=sys.stderr)
    return 0 if report.status != lab.STATUS_COUNTEREXAMPLE else 1


# built once per process: parsing reads the parser and leaves it unchanged
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starmetric",
        description="Decide star-generated ultrametricity, produce witnesses, "
        "and search conjectures over finite ultrametric spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the (ultra)metric axioms of a space file")
    p.add_argument("space")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("diagnose", help="full verdict: star-generated or forbidden quad")
    p.add_argument("space")
    p.add_argument("--dot", action="store_true", help="also print the star as DOT when the verdict is US")
    p.set_defaults(func=_cmd_diagnose)

    p = sub.add_parser("star", help="reconstruct the generating star from a center")
    p.add_argument("space")
    p.add_argument("--center", help="center label (default: auto-select)")
    p.add_argument("--dot", action="store_true", help="also print the star as DOT")
    p.set_defaults(func=_cmd_star)

    p = sub.add_parser("scan", help="search for a four-point subspace with a 4-cycle diametrical graph")
    p.add_argument("space")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("shift", help="subtract (or add back) a constant on all positive distances")
    p.add_argument("space")
    p.add_argument("--delta", required=True, help="exact rational, e.g. 1/2")
    p.add_argument("--unshift", action="store_true", help="add delta instead of subtracting")
    p.set_defaults(func=_cmd_shift)

    p = sub.add_parser("weaksim", help="decide weak similarity of two spaces")
    p.add_argument("space_a")
    p.add_argument("space_b")
    p.add_argument("--max-points", type=int, default=8)
    p.set_defaults(func=_cmd_weaksim)

    p = sub.add_parser("dplus", help="build a max-metric space from positive rationals")
    p.add_argument("values", help="comma-separated, e.g. 1/2,1,2,3")
    p.set_defaults(func=_cmd_dplus)

    for name, help_text in (
        ("gen", "generate ultrametric spaces (one JSON object per line)"),
        ("conjecture", "run a conjecture campaign and report the outcome"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--alphabet", required=True, help="comma-separated positive rationals, ascending")
        p.add_argument("--mode", choices=("exhaustive", "sample"), default="exhaustive")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--count", type=int, default=0, help="sample budget (sample mode)")
        p.add_argument("--override-caps", action="store_true", help="lift the exhaustive-mode size caps")
        if name == "conjecture":
            p.add_argument("--which", choices=CONJECTURE_IDS, required=True)
            p.add_argument("--jobs", type=int, default=1, help="parallel workers for sampled campaigns")
            p.set_defaults(func=_cmd_conjecture)
        else:
            p.set_defaults(func=_cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InternalCheckError:
        raise  # a failed self-check is a bug and must crash, not exit politely
    except StarmetricError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyError as exc:
        # str() of a KeyError is the repr of its message, quotes included
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
