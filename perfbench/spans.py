"""Run-time spans around the public functions of every ``chainwishart`` module.

:func:`instrumented` wraps each function named in a module's ``__all__`` (and
the CLI subcommand handlers) and rebinds *every* module attribute that points
to the same function object, so that a call made through an import alias,
such as ``peeling.assert_in_P`` inside ``phi_inv``, is recorded under its
defining module with a link to the span that caused it.  Nothing in ``src``
is edited; leaving the context restores the original functions.

Spans are kept in memory as ``[name, parent, start, end, failed, tag]``
lists; a span's self time is its duration minus the durations of its direct
children (which, in one thread, cover disjoint parts of its interval).
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from typing import Callable, Iterator

#: The layers: the modules of ``src/chainwishart/``.
MODULES = (
    "chain_graph",
    "matrix_spaces",
    "power_functions",
    "peeling",
    "lum_triangular",
    "wishart_q",
    "wishart_p",
    "letac_massam",
    "verification",
    "cli",
)

# Private functions traced under a public name: the CLI subcommand handlers,
# which hold the CSV/JSON writing that no ``__all__`` function covers.
EXTRA = {"cli": {"_cmd_sample": "sample", "_cmd_eval": "eval", "_cmd_verify": "verify"}}

NAME, PARENT, START, END, FAILED, TAG = range(6)


class Tracer:
    """In-memory span recorder for one thread."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []

    def begin(self, name: str, tag=None) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, self.clock(), None, False, tag])
        self._stack.append(idx)
        return idx

    def end(self, idx: int, failed: bool = False) -> None:
        now = self.clock()
        # Close anything left open above ``idx``: a RecursionError can strike
        # between a child's begin and the wrapper's try block.
        while self._stack and self._stack[-1] != idx:
            orphan = self.spans[self._stack.pop()]
            orphan[END] = now
            orphan[FAILED] = True
        if self._stack:
            self._stack.pop()
        span = self.spans[idx]
        span[END] = now
        span[FAILED] = failed

    def self_times(self) -> list[float]:
        """Duration minus the summed durations of direct children, per span."""
        own = [s[END] - s[START] for s in self.spans]
        out = list(own)
        for i, s in enumerate(self.spans):
            if s[PARENT] >= 0:
                out[s[PARENT]] -= own[i]
        return out

    def roots(self, is_root: Callable[[list], bool]) -> list[int]:
        """Index of the nearest ancestor-or-self span satisfying ``is_root`` (-1 if none)."""
        out: list[int] = []
        for i, s in enumerate(self.spans):
            if is_root(s):
                out.append(i)
            else:
                out.append(out[s[PARENT]] if s[PARENT] >= 0 else -1)
        return out


def _wrap(tracer: Tracer, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.end(idx, failed=True)
            raise
        tracer.end(idx)
        return result

    return wrapper


@contextmanager
def instrumented(tracer: Tracer) -> Iterator[None]:
    """Wrap the public functions of every layer for the duration of the context."""
    mods = [importlib.import_module(f"chainwishart.{m}") for m in MODULES]
    namespaces = [importlib.import_module("chainwishart"), *mods]
    wrappers: dict[int, Callable] = {}
    for short, mod in zip(MODULES, mods):
        targets = [(attr, attr) for attr in getattr(mod, "__all__", ())]
        targets += list(EXTRA.get(short, {}).items())
        for attr, public in targets:
            fn = getattr(mod, attr, None)
            if not callable(fn) or isinstance(fn, type) or id(fn) in wrappers:
                continue
            if getattr(fn, "__module__", None) != mod.__name__:
                continue  # re-exported: wrapped under its defining module
            wrappers[id(fn)] = _wrap(tracer, f"{short}.{public}", fn)
    patched: list[tuple[object, str, Callable]] = []
    try:
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                w = wrappers.get(id(value))
                if w is not None:
                    patched.append((ns, attr, value))
                    setattr(ns, attr, w)
        yield
    finally:
        for ns, attr, value in reversed(patched):
            setattr(ns, attr, value)
