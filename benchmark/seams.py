"""Timing seams into protoseg, applied from outside the package.

A seam swaps every module-level binding of one protoseg function (the
defining module and each ``from .x import f`` copy) for a wrapper, the same
way ``gradcheck.corrupted_op`` swaps an op, and puts the original back on
exit. Restoration is checked by identity, so a traced run can never leave a
wrapper behind for a later untraced one.

Two kinds of wrapper exist:

* ``Clock`` records per-call durations for the end-to-end metrics. It is the
  only instrumentation an untraced run carries, one wrapper on a handful of
  coarse calls.
* ``Tracer`` records a span (name, start, end, parent, thread) for every call
  into every layer, including each tape op's forward and, by wrapping the
  ``backward`` closure of the ``TapeRecord`` the op just appended, its
  backward. Per-layer numbers are derived from those spans afterwards.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time

PACKAGE = "protoseg"


class SeamError(RuntimeError):
    """A seam could not be applied or was not restored."""


def _package_modules():
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


class Patcher:
    """Applies seams and undoes them; use as a context manager."""

    def __init__(self):
        self._undo: list[tuple[object, str, object, bool]] = []

    def function(self, fn, wrap):
        """Replace every binding of ``fn`` in the package (and its entry in the
        tensor op registry) with ``wrap(fn)``; returns the wrapper."""
        wrapper = wrap(fn)
        hits = 0
        for mod in _package_modules():
            for name, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, name, wrapper)
                    self._undo.append((mod, name, fn, False))
                    hits += 1
        ops = getattr(sys.modules.get(PACKAGE + ".tensor"), "_OPS", {})
        for kind, value in list(ops.items()):
            if value is fn:
                ops[kind] = wrapper
                self._undo.append((ops, kind, fn, True))
        if not hits:
            raise SeamError(f"{fn.__module__}.{fn.__qualname__} is bound nowhere in {PACKAGE}")
        return wrapper

    def method(self, cls, name: str, wrap):
        original = cls.__dict__[name]
        setattr(cls, name, wrap(original))
        self._undo.append((cls, name, original, False))

    def restore(self) -> None:
        """Put every original back and check each binding by identity."""
        first: dict[tuple[int, str], tuple] = {}
        for owner, name, original, is_item in self._undo:
            first.setdefault((id(owner), name), (owner, name, original, is_item))
        while self._undo:
            owner, name, original, is_item = self._undo.pop()
            if is_item:
                owner[name] = original
            else:
                setattr(owner, name, original)
        for owner, name, original, is_item in first.values():
            now = owner[name] if is_item else vars(owner)[name]
            if now is not original:
                raise SeamError(f"{name} was not restored")

    @staticmethod
    def check_clean() -> None:
        """Raise if any package binding still holds a benchmark wrapper."""
        leftovers = []
        for mod in _package_modules():
            for name, value in vars(mod).items():
                if getattr(value, "__bench_seam__", False):
                    leftovers.append(f"{mod.__name__}.{name}")
                if isinstance(value, type):
                    for attr, member in vars(value).items():
                        if getattr(member, "__bench_seam__", False):
                            leftovers.append(f"{mod.__name__}.{name}.{attr}")
        ops = getattr(sys.modules.get(PACKAGE + ".tensor"), "_OPS", {})
        leftovers += [f"_OPS[{k}]" for k, v in ops.items() if getattr(v, "__bench_seam__", False)]
        if leftovers:
            raise SeamError("seams left in place: " + ", ".join(sorted(leftovers)))

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def _mark(wrapper, fn):
    functools.update_wrapper(wrapper, fn)
    wrapper.__bench_seam__ = True
    return wrapper


# ---------------------------------------------------------------------------
# end-to-end clocks
# ---------------------------------------------------------------------------


class Clock:
    """Per-call wall times (seconds) and start stamps for a few coarse calls."""

    def __init__(self):
        self.durations: dict[str, list[float]] = {}
        self.starts: dict[str, list[float]] = {}
        self.results: dict[str, list] = {}
        self.keeping: set[str] = set()  # names whose return values are kept

    def wrap(self, name: str):
        durations = self.durations.setdefault(name, [])
        starts = self.starts.setdefault(name, [])
        results = self.results.setdefault(name, [])

        def make(fn):
            def timed(*args, **kwargs):
                t0 = time.perf_counter()
                out = fn(*args, **kwargs)
                t1 = time.perf_counter()
                starts.append(t0)
                durations.append(t1 - t0)
                if name in self.keeping:
                    results.append(out)
                return out

            return _mark(timed, fn)

        return make

    def take(self, name: str) -> tuple[list[float], list[float], list]:
        """Return and clear (durations, starts, results) recorded under ``name``."""
        out = (list(self.durations[name]), list(self.starts[name]), list(self.results[name]))
        self.durations[name].clear()
        self.starts[name].clear()
        self.results[name].clear()
        return out


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------

# span record slots
NAME, T0, T1, PARENT, THREAD, LAYER, INFO = range(7)


class Tracer:
    """In-memory span recorder. Each span is a list
    ``[name, t0_ns, t1_ns, parent_span, thread_id, layer, info]``.

    Spans opened on a worker thread with nothing open on that thread take
    the main thread's innermost open span as parent: the main thread is
    blocked waiting for that work, so it is the cause.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()
        self._main = threading.main_thread().ident
        self._main_stack: list[list] = []
        self.pending_shots: dict[int, object] = {}
        self.active_tape = None

    def stack(self) -> list[list]:
        if threading.get_ident() == self._main:
            return self._main_stack
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def open(self, name: str, layer: int = -1, info=None) -> list:
        st = self.stack()
        if st:
            parent = st[-1]
        elif threading.get_ident() != self._main and self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = None
        span = [name, 0, 0, parent, threading.get_ident(), layer, info]
        st.append(span)
        span[T0] = time.perf_counter_ns()
        return span

    def close(self, span: list) -> None:
        span[T1] = time.perf_counter_ns()
        self.stack().pop()
        self.spans.append(span)

    def wrap(self, name: str, info=None):
        """Span around every call; ``info(args, kwargs, result)`` may attach a value."""

        def make(fn):
            def traced(*args, **kwargs):
                span = self.open(name)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    self.close(span)
                if info is not None:
                    span[INFO] = info(args, kwargs, out)
                return out

            return _mark(traced, fn)

        return make

    def take(self) -> list[list]:
        """Return and forget the closed spans; call with no worker running."""
        out, self.spans = self.spans, []
        self.pending_shots.clear()
        return out


def dump_spans(path: str, spans: list[list]) -> None:
    """Write spans as JSON lines: [name, start_ns, end_ns, parent line, thread, layer]."""
    index = {id(s): i for i, s in enumerate(spans)}
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        for s in spans:
            parent = index.get(id(s[PARENT])) if s[PARENT] is not None else None
            row = [s[NAME], s[T0], s[T1], parent, s[THREAD], s[LAYER]]
            fh.write(json.dumps(row, separators=(",", ":")) + "\n")


def conv2d_flop(x, kernel) -> int:
    """Multiply-adds of one stride-1 conv2d forward, counted as 2 flop each."""
    h, w, cin = x.shape
    k, _, _, cout = kernel.shape
    return 2 * h * w * k * k * cin * cout


def trace_package(tracer: Tracer, patcher: Patcher) -> None:
    """Apply every tracing seam: each tape op kind, the tape's backward pass,
    and the public entry points of every other layer."""
    from protoseg import (
        backbone,
        checkpoint,
        metrics,
        netpbm,
        protocols,
        prototypes,
        scenes,
        training,
    )
    from protoseg import tensor as T

    def enter(original):
        def traced_enter(tape):
            out = original(tape)
            tracer.active_tape = tape
            return out

        return _mark(traced_enter, original)

    def leave(original):
        def traced_exit(tape, *exc):
            tracer.active_tape = None
            return original(tape, *exc)

        return _mark(traced_exit, original)

    patcher.method(T.Tape, "__enter__", enter)
    patcher.method(T.Tape, "__exit__", leave)

    for kind in T.op_kinds():
        patcher.function(T._OPS[kind], _op_wrapper(tracer, kind))

    patcher.function(T.backward, tracer.wrap("tensor.backward"))
    patcher.function(backbone.extract_features, _extract_wrapper(tracer))

    def split_sizes(args, kwargs, split):
        return (len(split.fake_novel), len(split.fake_context))

    patcher.function(training.train_step, tracer.wrap("training.train_step"))
    patcher.function(training.partition_batch, tracer.wrap("training.partition_batch"))
    patcher.function(
        training.select_fake_classes, tracer.wrap("training.select_fake_classes", split_sizes)
    )
    patcher.function(
        training.build_updated_classifier, tracer.wrap("training.build_updated_classifier")
    )
    patcher.function(training.dual_loss, tracer.wrap("training.dual_loss"))

    patcher.function(
        prototypes.register_novel_classes, tracer.wrap("prototypes.register_novel_classes")
    )
    patcher.function(prototypes.classify, tracer.wrap("prototypes.classify"))
    patcher.function(prototypes.gamma_forward, tracer.wrap("prototypes.gamma_forward"))
    patcher.function(prototypes.fuse_prototype, tracer.wrap("prototypes.fuse_prototype"))

    patcher.function(protocols.run_gfs_protocol, tracer.wrap("protocols.run_gfs_protocol"))
    patcher.function(protocols.run_fs_protocol, tracer.wrap("protocols.run_fs_protocol"))
    patcher.function(protocols.register_for_variant, tracer.wrap("protocols.register_for_variant"))
    patcher.method(metrics.ConfusionMatrix, "accumulate", tracer.wrap("metrics.accumulate"))

    patcher.function(scenes.build_dataset, tracer.wrap("scenes.build_dataset"))
    patcher.function(scenes.generate_scene, tracer.wrap("scenes.generate_scene"))
    patcher.function(scenes.load_pair, _load_pair_wrapper(tracer))
    patcher.function(scenes.sample_support_set, tracer.wrap("scenes.sample_support_set"))

    def file_size(args, kwargs, out):
        return os.path.getsize(args[0])

    for fn in (netpbm.write_ppm, netpbm.write_pgm):
        patcher.function(fn, tracer.wrap("netpbm.write", file_size))
    for fn in (netpbm.read_ppm, netpbm.read_pgm):
        patcher.function(fn, tracer.wrap("netpbm.read", file_size))

    patcher.function(checkpoint.save_checkpoint, tracer.wrap("checkpoint.save", file_size))
    patcher.function(checkpoint.load_checkpoint, tracer.wrap("checkpoint.load"))
    patcher.function(checkpoint.save_train_state, tracer.wrap("checkpoint.train_state_save", file_size))
    patcher.function(checkpoint.load_train_state, tracer.wrap("checkpoint.train_state_load"))


def _op_wrapper(tracer: Tracer, kind: str):
    """Span around one op kind's forward; a recorded op also gets its
    pullback timed, attributed to the same backbone layer."""
    name = f"tensor.{kind}"
    bwd_name = f"tensor.{kind}.bwd"

    def make(fn):
        def traced(*args, **kwargs):
            layer = -1
            stack = tracer.stack()
            if stack and stack[-1][NAME] == "backbone.extract" and kind in ("conv2d", "relu"):
                seen = stack[-1][INFO]
                if kind == "conv2d":
                    stack[-1][INFO] = seen + 1
                    layer = seen
                else:
                    layer = seen - 1
            span = tracer.open(name, layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            flop = conv2d_flop(args[0], args[1]) if kind == "conv2d" else 0
            tape = tracer.active_tape
            if tape is not None and tape.records and tape.records[-1].output is out:
                record = tape.records[-1]
                record.backward = _timed_backward(tracer, record.backward, bwd_name, layer, 2 * flop)
                span[INFO] = (flop, True)
            else:
                span[INFO] = (flop, False)
            return out

        return _mark(traced, fn)

    return make


def _timed_backward(tracer: Tracer, pullback, name: str, layer: int, flop: int):
    def timed(g):
        span = tracer.open(name, layer, flop)
        try:
            return pullback(g)
        finally:
            tracer.close(span)

    return timed


def _extract_wrapper(tracer: Tracer):
    def make(fn):
        def traced(params, image):
            shot = tracer.pending_shots.pop(id(image), None) is image
            span = tracer.open("backbone.extract", info=0)
            try:
                return fn(params, image)
            finally:
                tracer.close(span)
                span[INFO] = "shot" if shot else None

        return _mark(traced, fn)

    return make


def _load_pair_wrapper(tracer: Tracer):
    """Spans each pair load; support-pool pairs are remembered so the feature
    extraction that consumes them can be counted as a shot."""

    def make(fn):
        def traced(manifest, entry):
            span = tracer.open("scenes.load_pair")
            try:
                out = fn(manifest, entry)
            finally:
                tracer.close(span)
            if entry.novel_id is not None:
                span[INFO] = entry.image
                tracer.pending_shots[id(out[0])] = out[0]
            return out

        return _mark(traced, fn)

    return make
