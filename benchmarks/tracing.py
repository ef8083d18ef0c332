"""In-memory span recorder that wraps library functions from outside.

casmkit's modules import each other's names (``from .symexec import
satisfiable``), so a function is wrapped at the attribute its caller
looks up at call time: ``casmkit.protect.symbolic_step`` for the call
inside ``derive_safe_condition``, ``casmkit.symexec.satisfiable`` for the
feasibility checks inside ``symbolic_step``, and the class attribute for
methods (``SafeCondition.cond_for``).  No library file is changed.

A span is (name, start, end, parent).  Spans live in flat arrays while
the run lasts and are written out once, at the end.  Only plain
functions are wrapped, never generators, so spans nest strictly and one
stack gives every span its parent.
"""
from __future__ import annotations

import gzip
from array import array
from time import perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        # (span index, key, value): counts read off a wrapped call's result
        self.notes: list[tuple[int, str, float]] = []
        # names of the spans the benchmark opened itself with span()
        self.own: set[str] = set()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    # -- recording ----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name_of.append(self._name_id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def span(self, name: str) -> "_Span":
        """Context manager for a span opened by the benchmark itself."""
        self.own.add(name)
        return _Span(self, name)

    def note(self, idx: int, key: str, value: float) -> None:
        self.notes.append((idx, key, value))

    # -- wrapping -----------------------------------------------------------

    def wrap(self, owner, attr: str, name, on_result=None) -> None:
        """Replace ``owner.attr`` by a recording wrapper until
        :meth:`unwrap_all`.

        ``name`` is a span name, or a function of the call's positional
        arguments that returns one.  ``on_result(tracer, idx, result)``
        runs after span ``idx`` closes, to note counts from the result.
        """
        original = getattr(owner, attr)
        tracer = self
        fixed = name if isinstance(name, str) else None

        def wrapper(*args, **kwargs):
            idx = tracer.open(fixed if fixed is not None else name(args))
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(idx)
            if on_result is not None:
                on_result(tracer, idx, result)
            return result

        wrapper.__wrapped__ = original
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def unwrap_all(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- analysis -----------------------------------------------------------

    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.start, self.end)]

    def self_times(self) -> list[float]:
        """Duration of each span minus the time its children cover."""
        total = self.durations()
        out = list(total)
        for i, p in enumerate(self.parent):
            if p >= 0:
                out[p] -= total[i]
        return out

    def write(self, path: str) -> None:
        """Write every span as tab-separated index, name, start, end and
        parent index (-1 for a root), times in seconds from the first."""
        t0 = self.start[0] if len(self.start) else 0.0
        names = self.names
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\n")
            for i, (nid, s, e, p) in enumerate(zip(
                    self.name_of, self.start, self.end, self.parent)):
                fh.write(f"{i}\t{names[nid]}\t{s - t0:.9f}\t{e - t0:.9f}"
                         f"\t{p}\n")


class _Span:
    __slots__ = ("tracer", "name", "idx")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> None:
        self.idx = self.tracer.open(self.name)

    def __exit__(self, *exc) -> bool:
        self.tracer.close(self.idx)
        return False
