"""Outside-in per-layer host-time tracing.

Nothing in ``src/`` is changed.  The tracer

* replaces ``sim.step`` on one simulator instance, so every event's host
  time and count goes to the layer that owns its callback: the module of
  the bound method's function, or, for a ``Process`` resume, the module
  of the process's generator;
* wraps public entry points by name (codec ``encode_block`` /
  ``decode_block``, ``parse_packet`` / ``peek_header``, the FEC encoder
  and reassembler) as nested spans.

A layer's self time is its inclusive time minus the time of the spans
nested inside it, so self times never double count.  Host time spent
between events (the run loop itself) belongs to no layer and is
measured separately as ``unclaimed_s``.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

from repro.codec.mp3like import Mp3LikeCodec
from repro.codec.vorbislike import VorbisLikeCodec
from repro.core import protocol
from repro.net.fec import FecEncoder, FecReassembler
from repro.sim.process import Process

#: layer -> module prefixes (relative to ``repro.``) that it owns
LAYER_MODULES = {
    "codec": ("codec.",),
    "origin": ("core.rebroadcaster", "kernel.vad"),
    "sim": ("sim.",),
    "speaker": ("core.speaker", "core.cohort"),
    "kernel": ("kernel.audio",),
    "lan": ("net.segment", "net.switch", "net.nic", "net.faults"),
    "wan": ("net.wan", "net.fec"),
    "protocol": ("core.protocol",),
    "mgmt": ("mgmt.",),
}
#: callbacks in any other module (system glue, machine, socket stack)
OTHER = "other"
LAYERS = tuple(LAYER_MODULES) + (OTHER,)

#: (span, layer, owner, attribute) wrapped for the traced run
CLASS_SPANS = (
    ("codec.encode", "codec", VorbisLikeCodec, "encode_block"),
    ("codec.encode", "codec", Mp3LikeCodec, "encode_block"),
    ("codec.decode", "codec", VorbisLikeCodec, "decode_block"),
    ("codec.decode", "codec", Mp3LikeCodec, "decode_block"),
    ("wan.fec", "wan", FecEncoder, "on_data"),
    ("wan.fec", "wan", FecEncoder, "flush"),
    ("wan.fec", "wan", FecReassembler, "on_data"),
    ("wan.fec", "wan", FecReassembler, "on_parity"),
)
FUNCTION_SPANS = (
    ("protocol.parse", "protocol", protocol.parse_packet),
    ("protocol.parse", "protocol", protocol.peek_header),
)


def layer_of_module(module: str) -> str:
    name = module[len("repro."):] if module.startswith("repro.") else ""
    for layer, prefixes in LAYER_MODULES.items():
        if any(name.startswith(p) for p in prefixes):
            return layer
    return OTHER


class LayerTracer:
    """Attach to one system for one run; ``detach`` restores everything."""

    def __init__(self, system):
        self.sim = system.sim
        self.self_s = defaultdict(float)
        self.events = defaultdict(int)
        self.span_calls = defaultdict(int)
        self.span_s = defaultdict(float)
        #: host time outside every event: the run loop between steps
        self.unclaimed_s = 0.0
        self._stack: list = []
        self._mark = 0.0
        self._last_end = 0.0
        self._owner_cache: dict = {}
        self._restore: list = []

    # -- ownership -------------------------------------------------------------

    def _owner(self, fn) -> str:
        target = getattr(fn, "__self__", None)
        if isinstance(target, Process):
            code = target._gen.gi_code
            layer = self._owner_cache.get(code)
            if layer is None:
                frame = target._gen.gi_frame
                module = (frame.f_globals.get("__name__", "")
                          if frame is not None else "")
                layer = layer_of_module(module)
                self._owner_cache[code] = layer
            return layer
        func = getattr(fn, "__func__", fn)
        func = getattr(func, "func", func)  # functools.partial
        layer = self._owner_cache.get(func)
        if layer is None:
            module = getattr(func, "__module__", None)
            if module is None and target is not None:
                module = type(target).__module__
            layer = layer_of_module(module or "")
            self._owner_cache[func] = layer
        return layer

    # -- spans -----------------------------------------------------------------

    def _enter(self, layer: str) -> float:
        self._stack.append([layer, 0.0])
        return perf_counter()

    def _exit(self, start: float) -> float:
        self._last_end = perf_counter()
        elapsed = self._last_end - start
        layer, child = self._stack.pop()
        self.self_s[layer] += elapsed - child
        if self._stack:
            self._stack[-1][1] += elapsed
        return elapsed

    def _span(self, fn, span: str, layer: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = tracer._enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.span_s[span] += tracer._exit(start)
                tracer.span_calls[span] += 1

        return wrapper

    # -- attach / detach ------------------------------------------------------

    def attach(self) -> "LayerTracer":
        sim = self.sim
        original_step = sim.step
        heap = sim._heap

        def step():
            start = perf_counter()
            self.unclaimed_s += start - self._mark
            layer = self._owner(heap[0].fn) if heap else OTHER
            self._stack.append([layer, 0.0])
            try:
                return original_step()
            finally:
                self._exit(start)
                self.events[layer] += 1
                # bookkeeping after the event is loop time, not layer time
                self._mark = self._last_end

        sim.step = step
        self._restore.append(lambda: delattr(sim, "step"))
        for span, layer, cls, attr in CLASS_SPANS:
            original = cls.__dict__[attr]
            setattr(cls, attr, self._span(original, span, layer))
            self._restore.append(
                lambda cls=cls, attr=attr, original=original:
                setattr(cls, attr, original)
            )
        for span, layer, fn in FUNCTION_SPANS:
            wrapped = self._span(fn, span, layer)
            # imported by name all over the package: rebind every copy
            for module in list(sys.modules.values()):
                if not getattr(module, "__name__", "").startswith("repro"):
                    continue
                if getattr(module, fn.__name__, None) is fn:
                    setattr(module, fn.__name__, wrapped)
                    self._restore.append(
                        lambda module=module, fn=fn:
                        setattr(module, fn.__name__, fn)
                    )
        return self

    def detach(self) -> None:
        while self._restore:
            self._restore.pop()()

    def run(self, system, until: float) -> float:
        """``system.run(until)``; returns its wall time, of which the
        part outside every event is added to ``unclaimed_s``."""
        self._mark = start = perf_counter()
        system.run(until=until)
        end = perf_counter()
        self.unclaimed_s += end - self._mark
        return end - start
