"""Command line front end.

Every command reads JSON files, writes one JSON document to stdout and
exits 0 on success, 1 when a domain precondition fails, 2 on malformed
input.  ``selftest`` is the exception: it prints the acceptance table as
plain text.  A complex file is validated as it is loaded, so a
presentation that ``validate`` rejects exits 2 before any computation;
``validate`` itself only parses, lists every defect and exits 1.

:class:`RunConfig` holds the field, the truncation degree, the shear and
the sample grid, and checks the degree, which argparse cannot;
``--samples`` is checked as its grid is built.  The default grid
of five samples is built here by :func:`_sample_grid` and equals
``straighten.DEFAULT_SAMPLES``, so filling it loads no path module; the
field is ``None`` for the commands without ``--field``, and the rationals
for a homology command that omits it, so filling it loads no algebra.
Options that one handler reads stay on the parsed arguments:
``--x-structure`` (default ``total``) and ``--seed`` (default 0), which
argparse fully checks, and ``--t``, ``--delta`` and ``--eps``, whose range
the path transform checks after the files load, so a malformed file exits
2 before an out-of-range value exits 1.  ``RunConfig.epsilon`` is filled
from ``--eps`` but not checked.  A value that ``FieldSpec.parse`` or
``parse_rational`` refuses exits 2 with the reason they give.

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

Start-up follows the command.  Importing this module loads ``cubical``
and ``serialize``.  :func:`main` names the command by the first argument,
and by the second for ``path``, and loads what it runs before it builds a
parser or reads a file: ``homology`` and ``loop-homology`` load
``homology`` and ``loop_algebra`` (:func:`_load_algebra`); ``sec``,
``straighten``, ``contract`` and ``path`` load ``paths``, ``james`` and
``straighten`` (:func:`_load_path_stack`); ``validate`` and ``suspension``
load neither, and ``selftest`` imports the acceptance suite itself.  No
other handler runs an import statement of its own, which would cost each
job a few microseconds.

Each command's arguments are written once, in ``_COMMANDS``.  :func:`main`
builds only the named command's parser, with ``argparse``, once a
process, and parses the rest of the arguments with it in one level.  The
full tree of :func:`_build_parser` is built from the same table and parses
instead when no command is named (no arguments, an unknown command, the
top-level help, ``path`` without a known subcommand) or when the command's
parser leaves arguments over; it then parses them all again, so every
usage and error text is the tree's own.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from fractions import Fraction

from .cubical import RealizationPoint, _Frozen, suspension_model, validate
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

# the commands that compute homology, and those that read a path, named by
# the first argument
_ALGEBRA_COMMANDS = frozenset({"homology", "loop-homology"})
_PATH_COMMANDS = frozenset({"sec", "straighten", "contract", "path"})


def _sample_grid(count: int) -> tuple:
    if count < 2:
        raise ValueError("samples must be at least 2")
    return tuple(Fraction(k, count - 1) for k in range(count))


class RunConfig(_Frozen):
    """Settings shared by the computing commands; one place to validate them."""

    __slots__ = ("field", "degree", "epsilon", "samples")

    # the default samples equal ``straighten.DEFAULT_SAMPLES``
    def __init__(self, field=None, degree=6, epsilon=None, samples=_sample_grid(5)):
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        _Frozen.__init__(self, field, degree, epsilon, samples)


def _config(args: argparse.Namespace) -> RunConfig:
    kwargs = {}
    if hasattr(args, "field"):  # a homology command: the rationals unless --field names a prime
        kwargs["field"] = args.field or RATIONALS
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
def _load_algebra() -> None:
    """Import ``homology`` and ``loop_algebra`` once a process, and bind the
    names ``--field`` and the homology handlers use."""
    global RATIONALS, FieldSpec, betti, loop_space_generators, tensor_algebra_coefficients
    from .homology import RATIONALS, FieldSpec, betti
    from .loop_algebra import loop_space_generators, tensor_algebra_coefficients


@functools.cache
def _load_path_stack() -> None:
    """Import ``paths``, ``james`` and ``straighten`` once a process, and
    bind the names the path handlers use.

    :func:`main` calls this for the path commands before it builds a
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
    sus, loop = _load_pair(args)
    return (path_text(sus.make_increasing(loop, args.eps)),), 0


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


def _argument_type(parse):
    # argparse reports a ``ValueError`` of a type by the type's name alone;
    # an ``ArgumentTypeError`` keeps its reason
    def convert(text: str):
        try:
            return parse(text)
        except ValueError as err:
            import argparse  # loaded already: argparse is the caller

            raise argparse.ArgumentTypeError(str(err)) from None

    return convert


def _arg(*flags, **options) -> tuple:
    return flags, options


_COMPLEX = _arg("complex", help="complex JSON file")
_PATH = (
    _arg("path", help="path JSON file"),
    _arg("--complex", required=True, help="complex JSON file the path lives over"),
)
# ``FieldSpec`` is looked up as a value is parsed, once ``_load_algebra`` bound it
_FIELD = _arg("--field", type=_argument_type(lambda text: FieldSpec.parse(text)),
              help="q or zp:<p> (default q)")
_RATIONAL = _argument_type(parse_rational)
_SAMPLES = _arg("--samples", type=int, help="number of frames (default 5)")

# each command's handler, help line and arguments, in the order of the help;
# the subcommands of ``path`` are named by two words
_COMMANDS = {
    ("validate",): (cmd_validate, "check a complex presentation; exit 1 if defects found", _COMPLEX),
    ("homology",): (
        cmd_homology, "homology dimensions of a complex", _COMPLEX, _FIELD,
        _arg("--reduced", action="store_true", help="drop one dimension in degree 0"),
    ),
    ("suspension",): (cmd_suspension, "build the suspension model of a complex", _COMPLEX),
    ("loop-homology",): (
        cmd_loop_homology, "homology series of the loop space of the suspension", _COMPLEX, _FIELD,
        _arg("--degree", type=int, help="truncation degree (default 6)"),
    ),
    ("sec",): (cmd_sec, "crossing word of a directed loop", *_PATH),
    ("straighten",): (
        cmd_straighten, "straighten a directed loop onto its word loop", *_PATH, _SAMPLES,
        _arg("--contract", action="store_true", help="also contract to the constant loop"),
    ),
    ("contract",): (cmd_contract, "contract a directed loop to the constant loop", *_PATH, _SAMPLES),
    ("path", "eval"): (
        cmd_path_eval, "evaluate a path at a time", *_PATH,
        _arg("--t", type=_RATIONAL, required=True, help="time, a rational"),
    ),
    ("path", "verify"): (
        cmd_path_verify, "directedness report; exit 1 if violations found", *_PATH,
        _arg("--x-structure", choices=("total", "directed"), default="total",
             help="whether base coordinates must also be nondecreasing"),
    ),
    ("path", "phi"): (
        cmd_path_phi, "shrink one half cone toward the middle slice", *_PATH,
        _arg("--side", choices=("lower", "upper"), required=True),
        _arg("--t", type=_RATIONAL, required=True, help="stage in [0, 1]"),
    ),
    ("path", "increase"): (
        cmd_path_increase, "shear heights to make the loop strictly increasing", *_PATH,
        _arg("--eps", type=_RATIONAL, required=True, help="shear in (0, 1)"),
    ),
    ("path", "truncate"): (
        cmd_path_truncate, "replace near basepoint stretches by pauses", *_PATH,
        _arg("--delta", type=_RATIONAL, help="height threshold; omitted means the collar retraction"),
    ),
    ("selftest",): (
        cmd_selftest, "run the acceptance suite and print a pass/fail table",
        _arg("--seed", type=int, default=0, help="corpus seed (default 0)"),
    ),
}


def _add_arguments(parser: argparse.ArgumentParser, command: tuple) -> None:
    handler, _, *arguments = _COMMANDS[command]
    for flags, options in arguments:
        parser.add_argument(*flags, **options)
    parser.set_defaults(handler=handler)


@functools.cache
def _command_parser(command: tuple) -> argparse.ArgumentParser:
    # built once per process: parsing leaves the parser unchanged
    import argparse

    parser = argparse.ArgumentParser(prog=" ".join(("dirloop", *command)))
    _add_arguments(parser, command)
    return parser


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The whole tree of commands, from the same table as each command's
    parser.  It loads the algebra first, for ``--field`` and the homology
    handlers; a path handler loads the path stack itself."""
    _load_algebra()
    import argparse

    parser = argparse.ArgumentParser(
        prog="dirloop",
        description="Exact computations with directed loops on suspended cubical complexes.",
    )
    groups = {(): parser.add_subparsers(dest="command", required=True)}
    for command, (_, summary, *_) in _COMMANDS.items():
        if command[:-1] not in groups:  # ``path``, opened by its first subcommand
            path = groups[()].add_parser("path", help="operations on path files")
            groups[command[:-1]] = path.add_subparsers(dest="path_command", required=True)
        _add_arguments(groups[command[:-1]].add_parser(command[-1], help=summary), command)
    return parser


def _parse(argv: list) -> argparse.Namespace:
    head = argv[0] if argv else None
    # compiled before argparse and the parser, the modules leave peak memory
    # where it was
    if head in _ALGEBRA_COMMANDS:
        _load_algebra()
    elif head in _PATH_COMMANDS:
        _load_path_stack()
    command = tuple(argv[: 2 if head == "path" else 1])
    if command in _COMMANDS:
        args, rest = _command_parser(command).parse_known_args(argv[len(command) :])
        if not rest:
            return args
    # no command, the top-level help, or arguments left over: the tree parses
    # it all again, so every usage and error text is its own
    return _build_parser().parse_args(argv)


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
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
