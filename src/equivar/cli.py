"""Command-line entry points.

    equivar verify <model.json | builtin-name> [--seed N] [--json PATH]
    equivar index  <example> [--twist n] [--max-degree N] [--json PATH]
    equivar render <model.json | builtin-name> [--format text|latex] [--frame ID]

Exit codes: 0 all checks pass, 1 some check failed, 2 error (bad input,
violated model invariant, non-integer coefficients, work past one of its
caps, a --max-degree that is not a nonnegative integer, an index
flag the example does not read, a flag or argument that argparse refuses);
exit 2 prints one "error:" line on stderr and nothing else.
characters.run_pipeline checks its own arguments; main passes it only the
flags given.  The expansion window defaults to 20.  verify runs FRAME_TRIALS frame changes per frame, up to the
first that changes J, whose index and matrix are the entry's witness.  A
failing closedness entry carries D J, a failing frame-annihilation entry the
first slot a whose alpha_a J is not zero and that product, and a failing
Fourier identity the Fourier integral minus J, each element as its term
count and first three terms.  The printed line of a failing entry names a
long value of its witness by errors.shown; the --json report keeps it whole.
Reports are deterministic for identical inputs and seed.
"""

import argparse
import functools
import os
import random
import sys

from .characters import EXAMPLES, run_pipeline
from .errors import SHOWN_CHARS, EquivarError, NotTransverse, OutOfRange, UsageError, shown
from .genco import fourier_fibre_integrate
from .jform import check_closed, frame_change_compare, j_form
from .linalg import random_gl_plus
from .modelfile import builtin_names, load_builtin, load_model
from .report import (LATEX, TEXT, annihilation_witness, display_value, entry, make_report,
                     nonzero_witness, render_element, render_frame_value, report_status,
                     report_to_json)
from .superalg import add, equivariant_differential

# random frame changes per frame in verify; the entry name carries the count
FRAME_TRIALS = 25
# the most Koszul pairs that verify walks, counted before any frame's work
# as (FRAME_TRIALS + 1) * k * 2^k per frame of rank k: the trials' wedges
# and the Fourier pieces.  Worst time at the cap (Python 3.11, 2-core Intel
# Xeon): the rank-14 torus acting on itself, 5,963,776 pairs, 1.4-1.8 s in
# a fresh process.  The golden and benchmark models reach rank 6, 9,984 pairs.
MAX_VERIFY_PAIRS = 6_000_000


def _load(source):
    if os.path.exists(source):
        return load_model(source)
    name = source[:-5] if source.endswith(".json") else source
    if name in builtin_names():
        return load_builtin(name)
    return load_model(source)  # raise the file error


def run_verify(model, seed=0):
    if not model.frames:  # a report with no entry would pass having compared nothing
        raise UsageError(f"model {shown(model.name)} declares no frame; "
                         "verify has nothing to check")
    pairs = sum((FRAME_TRIALS + 1) * fr.rank * 2 ** fr.rank for fr in model.frames.values())
    if pairs > MAX_VERIFY_PAIRS:
        raise OutOfRange(f"verify of model {shown(model.name)} would walk {shown(pairs)} "
                         f"Koszul pairs, more than {MAX_VERIFY_PAIRS}")
    rng = random.Random(seed)
    results = []
    rendered = {}
    for fid in sorted(model.frames):
        fr = model.frames[fid]
        try:
            j = j_form(model, fid)
        except NotTransverse as e:
            results.append(entry(f"{fid}:transversality", False, e.witness))
            continue
        results.append(entry(f"{fid}:transversality", True))
        closed = check_closed(model, j)
        results.append(entry(f"{fid}:closedness", closed,
                             None if closed else
                             nonzero_witness(equivariant_differential(j, model), model)))
        witness = annihilation_witness(model, fid, j)
        results.append(entry(f"{fid}:frame-annihilation", witness is None, witness))
        witness = None
        for trial in range(FRAME_TRIALS):
            a = random_gl_plus(rng, fr.rank)
            if not frame_change_compare(model, fid, j, a):
                witness = {"trial": trial, "matrix": a}
                break
        results.append(entry(f"{fid}:frame-independence-{FRAME_TRIALS}", witness is None,
                             witness))
        four = fourier_fibre_integrate(model, fid)
        results.append(entry(f"{fid}:fourier-integral-identity", four == j,
                             None if four == j else
                             nonzero_witness(add(four, j.scaled(-1), model), model)))
        display = display_value(model, fid, j)
        rendered[fid] = {TEXT: render_element(display, model)}
    return make_report("verify", model.name, results,
                       extra={"rendered": rendered, "seed": seed,
                              "frameTrials": FRAME_TRIALS})


def run_index(example, **arguments):
    return run_pipeline(example, **arguments)


def _shown_leaves(v):
    """v with each str leaf longer than SHOWN_CHARS and each int of more than
    SHOWN_CHARS digits named by errors.shown, for a witness's printed line."""
    if isinstance(v, dict):
        return {k: _shown_leaves(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return type(v)(map(_shown_leaves, v))
    if (isinstance(v, str) and len(v) > SHOWN_CHARS
            or isinstance(v, int) and abs(v) >= 10 ** SHOWN_CHARS):
        return shown(v)
    return v


def _emit(rep, json_path):
    for r in rep["results"]:
        line = f"[{r['status']}] {r['check']}"
        if r["status"] == "fail" and "witness" in r:
            line += f"  witness: {_shown_leaves(r['witness'])}"
        print(line)
    status = report_status(rep)
    print(f"{rep['command']} {rep['model']}: {status}")
    if json_path:
        # encoded before the file is opened, so an encoding error leaves a
        # report already at json_path whole
        text = report_to_json(rep)
        with open(json_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0 if status == "pass" else 1


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors raise UsageError, which main prints
    as its one error: line, in place of argparse's usage and exit."""

    def error(self, message):
        raise UsageError(message)


@functools.cache
def _build_parser():
    """The argument parser, built on the first main call and reused: it
    holds no per-call state.  Its subparsers are of its own class."""
    p = _Parser(
        prog="equivar",
        description="Equivariant forms with delta coefficients: verification "
                    "and index pipelines over exact rational arithmetic.")
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run the property suite on a model")
    v.add_argument("model", help="model file path or built-in name")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--json", metavar="PATH", help="write the report as JSON")

    ix = sub.add_parser("index", help="run an index pipeline vs its oracle")
    ix.add_argument("example", help="one of: " + ", ".join(EXAMPLES))
    ix.add_argument("--twist", type=int,
                    help="line-bundle twist or weight of the example (default 0)")
    ix.add_argument("--max-degree", type=int,
                    help="expansion window (default 20)")
    ix.add_argument("--json", metavar="PATH")

    rd = sub.add_parser("render", help="print the canonical form of each frame")
    rd.add_argument("model")
    rd.add_argument("--format", choices=(TEXT, LATEX), default=TEXT)
    rd.add_argument("--frame", help="render only this frame")
    return p


def _parse(argv):
    """The parsed argv.  argparse's own error echoes an argument whole, so
    each argument, or value after "=", longer than SHOWN_CHARS is named in
    it by errors.shown."""
    argv = sys.argv[1:] if argv is None else argv
    try:
        return _build_parser().parse_args(argv)
    except UsageError as e:
        text = str(e)
        for a in sorted({*argv, *(a.partition("=")[2] for a in argv)}, key=len, reverse=True):
            if len(a) > SHOWN_CHARS:
                text = text.replace(repr(a), shown(a)).replace(a, shown(a))
        raise UsageError(text) from None


def main(argv=None):
    try:
        args = _parse(argv)
        if args.command == "verify":
            rep = run_verify(_load(args.model), args.seed)
            return _emit(rep, args.json)
        if args.command == "index":
            given = {name: value for name in ("twist", "max_degree")
                     if (value := getattr(args, name)) is not None}
            return _emit(run_index(args.example, **given), args.json)
        model = _load(args.model)
        if args.frame is not None and args.frame not in model.frames:
            frames = ", ".join(shown(fid, bare=True) for fid in sorted(model.frames))
            raise UsageError(f"--frame {shown(args.frame)} names no frame of model "
                             f"{shown(model.name)} (frames: {frames})")
        frames = [args.frame] if args.frame is not None else sorted(model.frames)
        for fid in frames:
            print(f"{fid}: {render_frame_value(model, fid, args.format)}")
        return 0
    except (EquivarError, OSError) as e:
        text = str(e)
        if isinstance(e, OSError) and e.filename is not None:
            # str(e) with the file name named by errors.shown
            text = f"[Errno {e.errno}] {e.strerror}: {shown(e.filename)}"
        print(f"error: {text}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
