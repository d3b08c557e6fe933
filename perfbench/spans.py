"""In-memory call spans for the traced benchmark run.

A Recorder wraps functions so that each call appends one span
[function id, start, end, parent span index, job id].  A Rebinding installs
the wrappers in every module of a package that holds the original function
object (modules import names directly, as in `from .superalg import add`) and
puts every original back when its block ends.  Self time is computed afterwards from the
span list, never while the program runs.
"""

import functools
import sys
import time
from contextlib import contextmanager

START, END, PARENT = 1, 2, 3


class Recorder:
    """Spans and size counters of one traced run."""

    def __init__(self):
        self.names = []      # function id -> qualified name
        self.spans = []      # [fid, start, end, parent index or -1, job id]
        self.sizes = {}      # counter name -> int
        self.current = -1    # index of the innermost open span
        self.job = -1

    def wrap(self, name, fn, size_hook=None):
        """Traced stand-in for fn; size_hook(sizes, args, result) runs after
        the span closes, so its cost stays out of every self time."""
        fid = len(self.names)
        self.names.append(name)
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.current
            span = [fid, clock(), 0.0, parent, self.job]
            self.current = len(spans)
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                self.current = parent
            if size_hook is not None:
                size_hook(self.sizes, args, result)
            return result

        return traced


def package_modules(package):
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == package or name.startswith(package + "."))]


class Rebinding:
    """Traced wrappers for "module.func" targets (a dict name -> size hook
    or None), to be installed in every loaded module of the package that
    binds the original function object."""

    def __init__(self, recorder, targets, package):
        self.sites = []      # (module, attribute, original, wrapper)
        for name, hook in targets.items():
            modname, func = name.rsplit(".", 1)
            original = getattr(sys.modules[f"{package}.{modname}"], func)
            wrapper = recorder.wrap(name, original, hook)
            for mod in package_modules(package):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self.sites.append((mod, attr, original, wrapper))

    @contextmanager
    def installed(self):
        """Wrappers in place inside the block; originals back on exit, also
        on error."""
        try:
            for mod, attr, _, wrapper in self.sites:
                setattr(mod, attr, wrapper)
            yield
        finally:
            for mod, attr, original, _ in reversed(self.sites):
                setattr(mod, attr, original)


def self_times(spans):
    """Per span: its duration minus the part of it covered by its children.

    Child intervals are clipped to the parent and merged before they are
    subtracted, so overlapping or out-of-range children never count twice.
    """
    children = {}
    for i, span in enumerate(spans):
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    out = []
    for i, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0.0
        run_start = run_end = None
        for cs, ce in sorted(children.get(i, ())):
            cs, ce = max(cs, start), min(ce, end)
            if ce <= cs:
                continue
            if run_end is not None and cs <= run_end:
                run_end = max(run_end, ce)
                continue
            if run_end is not None:
                covered += run_end - run_start
            run_start, run_end = cs, ce
        if run_end is not None:
            covered += run_end - run_start
        out.append(end - start - covered)
    return out
