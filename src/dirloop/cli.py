"""Command line front end.

Every command reads JSON files, writes one JSON document to stdout and
exits 0 on success, 1 when a domain precondition fails, 2 on malformed
input.  ``selftest`` is the exception: it prints the acceptance table as
plain text.  A complex file is validated as it is loaded, so a
presentation that ``validate`` rejects exits 2 before any computation;
``validate`` itself only parses, lists every defect and exits 1.

:class:`RunConfig` holds the field, the truncation degree, the shear and
the sample grid, and checks the degree and the shear, which argparse
cannot; ``--samples`` is checked as its grid is built.  The default grid
of five samples is built here by :func:`_sample_grid` and equals
``straighten.DEFAULT_SAMPLES``, so filling it loads no path module.
Options that one handler reads and argparse fully checks,
``--x-structure`` (default ``total``) and ``--seed`` (default 0), stay on
the parsed arguments.

Each handler returns its output as pieces of text, formatted inside the
same guarded block as the computation, so a payload that cannot be
formatted (an integer past the interpreter's digit limit) exits 1 with an
``error:`` line and no output, like any other domain failure;
``loop-homology`` formats each coefficient as it computes it, so such a
coefficient ends it whatever the degree, and running out of memory is one
``error:`` line with exit 1 too.  Path
outputs join the texts of :func:`~dirloop.serialize.segment_texts`, each
distinct segment encoded once; a contraction trail is encoded whole and
then written one frame at a time, since joining cannot fail.

Imports follow the command.  Importing this module loads the complex
modules (``cubical``, ``homology``, ``loop_algebra``, ``serialize``) and
no path code, so ``validate``, ``homology``, ``suspension`` and
``loop-homology`` never load ``paths``, ``james`` or ``straighten``.  When
the first argument is ``sec``, ``straighten``, ``contract`` or ``path``,
:func:`main` loads those three at once, through :func:`_load_path_stack`,
before it builds the parser or reads a file; no handler runs an import
statement of its own, which would cost each job a few microseconds.
``argparse`` loads when the parser is first built, and the
acceptance suite only for ``selftest``.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from fractions import Fraction

from .cubical import RealizationPoint, _Frozen, suspension_model, validate
from .homology import RATIONALS, FieldSpec, betti
from .loop_algebra import loop_space_generators, tensor_algebra_coefficients
from .serialize import (
    FormatError,
    dump_complex,
    dump_word,
    load_complex,
    load_path,
    parse_complex,
    parse_rational,
    path_text,
    rational_str,
    segment_texts,
)

# the commands that read a path, named by the first argument
_PATH_COMMANDS = frozenset({"sec", "straighten", "contract", "path"})


def _sample_grid(count: int) -> tuple:
    if count < 2:
        raise ValueError("samples must be at least 2")
    return tuple(Fraction(k, count - 1) for k in range(count))


class RunConfig(_Frozen):
    """Settings shared by the computing commands; one place to validate them."""

    __slots__ = ("field", "degree", "epsilon", "samples")

    # the default samples equal ``straighten.DEFAULT_SAMPLES``
    def __init__(self, field=RATIONALS, degree=6, epsilon=Fraction(1, 2), samples=_sample_grid(5)):
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        if not 0 < epsilon < 1:
            raise ValueError("epsilon must lie strictly between 0 and 1")
        _Frozen.__init__(self, field, degree, epsilon, samples)


def _config(args: argparse.Namespace) -> RunConfig:
    kwargs = {}
    if getattr(args, "field", None) is not None:
        kwargs["field"] = args.field
    if getattr(args, "degree", None) is not None:
        kwargs["degree"] = args.degree
    if getattr(args, "eps", None) is not None:
        kwargs["epsilon"] = args.eps
    if getattr(args, "samples", None) is not None:
        kwargs["samples"] = _sample_grid(args.samples)
    return RunConfig(**kwargs)


def _read_json(filename: str):
    try:
        with open(filename, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (ValueError, RecursionError) as err:
        # bad JSON, bad UTF-8, an integer past the digit limit, or nesting
        # deeper than the decoder's recursion
        raise FormatError(f"{filename}: {err}") from None


def _load_complex_file(filename: str):
    return load_complex(_read_json(filename))


@functools.cache
def _load_path_stack() -> None:
    """Import ``paths``, ``james`` and ``straighten`` once a process, and
    bind the names the path handlers use.

    :func:`main` calls this for the path commands before it builds the
    parser; :func:`_load_pair`, which every path handler calls first, calls
    it too, so a handler reached any other way still finds its names.
    """
    global STAR, Suspension, crossing_word, contract_straightened, contract_to_constant
    global full_straighten, word_climbs
    from .james import crossing_word
    from .paths import STAR, Suspension
    from .straighten import contract_straightened, contract_to_constant, full_straighten, word_climbs


def _load_pair(args: argparse.Namespace):
    _load_path_stack()
    sus = Suspension(_load_complex_file(args.complex))
    return sus, load_path(sus, _read_json(args.path))


def _point_json(pt) -> dict:
    if pt is STAR:
        return {"kind": "star"}
    return {
        "kind": "interior",
        "height": rational_str(pt.height),
        "cube": pt.point.cube,
        "coords": [rational_str(c) for c in pt.point.coords],
    }


def _json(payload) -> tuple:
    return (json.dumps(payload),)


def _trail_pieces(head: str, trail, texts):
    # every segment is encoded already, so this only joins
    yield head + '"trail": ['
    for k, frame in enumerate(trail):
        yield (", " if k else "") + path_text(frame, texts)
    yield "]}"


def cmd_validate(args):
    report = validate(parse_complex(_read_json(args.complex)))
    payload = {
        "violations": [
            {"kind": v.kind, "cube": v.cube, "detail": v.detail, "indices": list(v.indices)}
            for v in report
        ]
    }
    return _json(payload), (1 if report else 0)


def cmd_homology(args):
    config = _config(args)
    dims = betti(_load_complex_file(args.complex), config.field)
    if args.reduced:
        dims = dims.reduced()
    return _json({"dims": {str(k): n for k, n in enumerate(dims.as_tuple())}}), 0


def cmd_suspension(args):
    model = suspension_model(_load_complex_file(args.complex))
    payload = {
        "complex": dump_complex(model.complex),
        "star": model.star,
        "lower": sorted(model.lower),
        "upper": sorted(model.upper),
    }
    return _json(payload), 0


def cmd_loop_homology(args):
    config = _config(args)
    gens = loop_space_generators(_load_complex_file(args.complex), config.field)
    # each coefficient is formatted as it is computed, so the first one past
    # the digit limit ends the series, however large the degree asked for
    texts = [str(c) for _, c in zip(range(config.degree + 1), tensor_algebra_coefficients(gens))]
    return ('{"series": [' + ", ".join(texts) + "]}",), 0


def cmd_sec(args):
    sus, loop = _load_pair(args)
    return _json(dump_word(crossing_word(sus, loop).letters)), 0


def cmd_straighten(args):
    config = _config(args)
    sus, loop = _load_pair(args)
    result, frames = full_straighten(sus, loop, config.samples)
    trail = contract_straightened(sus, result, frames) if args.contract else []
    # every segment encoded once; the trail drops a frame equal to the one
    # before it, whose segments may be other objects, so the frames are
    # encoded too
    texts = segment_texts([result, *frames, *trail])
    # the result is one full climb per letter, so its word is read off the climbs
    sec = dump_word([RealizationPoint(tr.cube, tr.c0) for tr in word_climbs(sus, result)])
    head = (
        f'{{"result": {path_text(result, texts)}, '
        f'"frames": [{", ".join([path_text(f, texts) for f in frames])}], '
        f'"sec": {json.dumps(sec)}'
    )
    if args.contract:
        return _trail_pieces(head + ", ", trail, texts), 0
    return (head + "}",), 0


def cmd_contract(args):
    config = _config(args)
    sus, loop = _load_pair(args)
    trail = contract_to_constant(sus, loop, config.samples)
    return _trail_pieces("{", trail, segment_texts(trail)), 0


def cmd_path_eval(args):
    sus, loop = _load_pair(args)
    return _json(_point_json(sus.evaluate(loop, args.t))), 0


def cmd_path_verify(args):
    sus, loop = _load_pair(args)
    problems = sus.verify_directed(loop, args.x_structure)
    return _json({"ok": not problems, "problems": problems}), (1 if problems else 0)


def cmd_path_phi(args):
    sus, loop = _load_pair(args)
    return (path_text(sus.shrink_cone(loop, args.side, args.t)),), 0


def cmd_path_increase(args):
    config = _config(args)
    sus, loop = _load_pair(args)
    return (path_text(sus.make_increasing(loop, config.epsilon)),), 0


def cmd_path_truncate(args):
    sus, loop = _load_pair(args)
    return (path_text(sus.truncate_near_basepoint(loop, args.delta)),), 0


def cmd_selftest(args):
    # the acceptance suite and its corpus load only for this command
    from .acceptance import run_acceptance

    results = run_acceptance(args.seed)
    width = max(len(r.name) for r in results)
    for r in results:
        print(f"{'PASS' if r.ok else 'FAIL'}  {r.name:<{width}}  {r.detail}")
    passed = sum(r.ok for r in results)
    print(f"{passed}/{len(results)} criteria passed")
    return None, (0 if passed == len(results) else 1)


def _add_complex_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("complex", help="complex JSON file")


def _add_path_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("path", help="path JSON file")
    parser.add_argument("--complex", required=True, help="complex JSON file the path lives over")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: parsing leaves the parser unchanged
    import argparse

    parser = argparse.ArgumentParser(
        prog="dirloop",
        description="Exact computations with directed loops on suspended cubical complexes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a complex presentation; exit 1 if defects found")
    _add_complex_arg(p)
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("homology", help="homology dimensions of a complex")
    _add_complex_arg(p)
    p.add_argument("--field", type=FieldSpec.parse, default=None, help="q or zp:<p> (default q)")
    p.add_argument("--reduced", action="store_true", help="drop one dimension in degree 0")
    p.set_defaults(handler=cmd_homology)

    p = sub.add_parser("suspension", help="build the suspension model of a complex")
    _add_complex_arg(p)
    p.set_defaults(handler=cmd_suspension)

    p = sub.add_parser("loop-homology", help="homology series of the loop space of the suspension")
    _add_complex_arg(p)
    p.add_argument("--field", type=FieldSpec.parse, default=None, help="q or zp:<p> (default q)")
    p.add_argument("--degree", type=int, default=None, help="truncation degree (default 6)")
    p.set_defaults(handler=cmd_loop_homology)

    p = sub.add_parser("sec", help="crossing word of a directed loop")
    _add_path_args(p)
    p.set_defaults(handler=cmd_sec)

    p = sub.add_parser("straighten", help="straighten a directed loop onto its word loop")
    _add_path_args(p)
    p.add_argument("--samples", type=int, default=None, help="number of frames (default 5)")
    p.add_argument("--contract", action="store_true", help="also contract to the constant loop")
    p.set_defaults(handler=cmd_straighten)

    p = sub.add_parser("contract", help="contract a directed loop to the constant loop")
    _add_path_args(p)
    p.add_argument("--samples", type=int, default=None, help="number of frames (default 5)")
    p.set_defaults(handler=cmd_contract)

    p = sub.add_parser("path", help="operations on path files")
    psub = p.add_subparsers(dest="path_command", required=True)

    q = psub.add_parser("eval", help="evaluate a path at a time")
    _add_path_args(q)
    q.add_argument("--t", type=parse_rational, required=True, help="time, a rational")
    q.set_defaults(handler=cmd_path_eval)

    q = psub.add_parser("verify", help="directedness report; exit 1 if violations found")
    _add_path_args(q)
    q.add_argument(
        "--x-structure",
        dest="x_structure",
        choices=("total", "directed"),
        default="total",
        help="whether base coordinates must also be nondecreasing",
    )
    q.set_defaults(handler=cmd_path_verify)

    q = psub.add_parser("phi", help="shrink one half cone toward the middle slice")
    _add_path_args(q)
    q.add_argument("--side", choices=("lower", "upper"), required=True)
    q.add_argument("--t", type=parse_rational, required=True, help="stage in [0, 1]")
    q.set_defaults(handler=cmd_path_phi)

    q = psub.add_parser("increase", help="shear heights to make the loop strictly increasing")
    _add_path_args(q)
    q.add_argument("--eps", type=parse_rational, required=True, help="shear in (0, 1)")
    q.set_defaults(handler=cmd_path_increase)

    q = psub.add_parser("truncate", help="replace near basepoint stretches by pauses")
    _add_path_args(q)
    q.add_argument(
        "--delta",
        type=parse_rational,
        default=None,
        help="height threshold; omitted means the collar retraction",
    )
    q.set_defaults(handler=cmd_path_truncate)

    p = sub.add_parser("selftest", help="run the acceptance suite and print a pass/fail table")
    p.add_argument("--seed", type=int, default=0, help="corpus seed (default 0)")
    p.set_defaults(handler=cmd_selftest)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in _PATH_COMMANDS:
        # compiled before argparse and the parser, the path stack leaves peak
        # memory where it was
        _load_path_stack()
    args = _build_parser().parse_args(argv)
    try:
        # formatting can fail too, on an integer past the digit limit, so
        # every handler formats here; only joins are left for the writes
        pieces, code = args.handler(args)
        if pieces is not None:
            write = sys.stdout.write
            for piece in pieces:
                write(piece)
            write("\n")
        sys.stdout.flush()
    except BrokenPipeError as err:
        # the reader closed stdout; what is still buffered goes to devnull,
        # so the interpreter's flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (FormatError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
