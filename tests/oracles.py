"""Test-only oracles: the slow routes production no longer selects.

Production runs one path per job.  The differential suites and the
speed races in ``benchmarks/`` compare it against these reference
routes, each built to execute exactly what the per-receiver, scalar or
per-object implementation does (same results, same simulator events):

* :func:`per_receiver_delivery` splits every fan-out batch into one
  delivery event per receiver;
* :func:`scalar_codec_kernels` and :class:`ScalarCodec` force the codecs'
  batch kernels onto their ``_reference_*`` fallback loops;
* :func:`per_object_cohort` builds N ordinary speakers behind the
  cohort member API;
* :func:`report_counts` is the integer view of a
  :class:`~repro.metrics.telemetry.PipelineReport` that the telemetry
  on/off differentials compare;
* :class:`AlwaysDeferCPU` schedules the deferred dispatch after every
  completed CPU job, as the CPU did before it learned to leave out the
  ones that cannot run anything, and :func:`machine_cpus` builds every
  machine's CPU from a given class.

A cache-off arm needs no oracle: pass ``decode_cache=None`` to
``add_speaker`` or ``encode_cache=None`` to ``add_rebroadcaster``.
"""

from __future__ import annotations

import dataclasses
from contextlib import ExitStack, contextmanager
from typing import Dict, List
from unittest import mock

from repro.codec import mp3like, vorbislike
from repro.codec.batch import BatchFallback
from repro.kernel import machine
from repro.net.segment import deliver_batch
from repro.sim.cpu import CPU


def per_receiver_delivery(sim):
    """Make ``sim`` schedule each ``deliver_batch(nics, dgram)`` event as
    one ``nic.deliver`` event per NIC, in NIC order: the same delivery
    times, order and event count as a link with no batching."""
    schedule = sim.schedule_transient

    def split(delay, fn, *args):
        if fn is not deliver_batch:
            return schedule(delay, fn, *args)
        nics, dgram = args
        for nic in nics:
            schedule(delay, nic.deliver, dgram)

    sim.schedule_transient = split


def _refuse(*args, **kwargs):
    raise BatchFallback("scalar oracle")


@contextmanager
def scalar_codec_kernels(encode: bool = True, decode: bool = True):
    """Inside the block, every VorbisLike/Mp3Like encode (and/or decode)
    takes the ``BatchFallback`` route onto the scalar reference loops."""
    names = [name for name, on in (("encode_bands_batched", encode),
                                   ("decode_bands_batched", decode)) if on]
    with ExitStack() as stack:
        for module in (vorbislike, mp3like):
            for name in names:
                stack.enter_context(mock.patch.object(module, name, _refuse))
        yield


class ScalarCodec:
    """``codec`` with every encode and decode on the reference loops."""

    def __init__(self, codec):
        self.codec = codec

    def encode_block(self, samples):
        with scalar_codec_kernels():
            return self.codec.encode_block(samples)

    def decode_block(self, data):
        with scalar_codec_kernels():
            return self.codec.decode_block(data)


class PerObjectCohort:
    """N ordinary speakers behind the cohort member API.  ``tokens`` are
    the :class:`~repro.core.system.SpeakerNode`\\ s themselves, which
    ``schedule_fault`` takes as it takes a cohort member."""

    def __init__(self, nodes: List):
        self.nodes = nodes
        self.tokens = nodes

    def member_stats(self, i: int):
        return self.nodes[i].speaker.stats

    def member_play_log(self, i: int):
        return self.nodes[i].speaker.stats.play_log

    def member_write_offsets(self, i: int):
        return self.nodes[i].speaker.stats.write_offsets


def per_object_cohort(system, channel, members: int) -> PerObjectCohort:
    """``system.add_speaker_cohort(channel, members)`` expanded into
    ``members`` ordinary :meth:`add_speaker` nodes with default
    arguments, named like the cohort's members."""
    name = f"cohort{len(system.cohorts)}"
    return PerObjectCohort([
        system.add_speaker(channel=channel, name=f"{name}-m{i}")
        for i in range(members)
    ])


def report_counts(report) -> Dict[str, object]:
    """Every int field of ``report`` and of each of its channels, plus
    the conservation residual and verdict.  ``trace_events`` is left out:
    it counts the trace itself, which a run without telemetry does not
    keep."""
    counts: Dict[str, object] = {
        f.name: getattr(report, f.name)
        for f in dataclasses.fields(report)
        if isinstance(getattr(report, f.name), int)
        and f.name != "trace_events"
    }
    for ch in report.channels:
        for f in dataclasses.fields(ch):
            if isinstance(getattr(ch, f.name), int):
                counts[f"{ch.name}.{f.name}"] = getattr(ch, f.name)
    counts["conservation_residual"] = report.conservation_residual
    counts["conservation_ok"] = report.conservation_ok
    return counts


class AlwaysDeferCPU(CPU):
    """A CPU that defers a dispatch after every completed job.

    Production schedules ``_post_completion`` only while the run queue
    holds a job.  This oracle keeps ``_slice_done`` as it was before that
    rule and also defers onto an empty queue, at the same point of the
    same event, so its timeline carries exactly those extra events.
    ``noop_completions`` counts the ones deferred onto an empty queue
    that dispatched nothing when they fired; if the rule is sound, that
    is every one of them.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.noop_completions = 0

    def _slice_done(self, job, slice_cycles: float) -> None:
        self.stats.domain_seconds[job.domain] += slice_cycles / self.freq_hz
        self._continuous += slice_cycles / self.freq_hz
        self._last_busy_end = self.sim.now
        job.remaining -= slice_cycles
        job.running = False
        self._current = None
        if job.remaining > 1e-9:
            self._run_queue.append(job)
            self._dispatch()
        else:
            self.stats.jobs_completed += 1
            if job.proc is not None:
                job.proc._resume(None)
            deferred = (self._post_completion if self._run_queue
                        else self._deferred_onto_empty_queue)
            self.sim.schedule_transient(0.0, deferred)

    def _deferred_onto_empty_queue(self) -> None:
        current = self._current
        self._post_completion()
        if self._current is current:
            self.noop_completions += 1


@contextmanager
def machine_cpus(cls):
    """Inside the block, every :class:`~repro.kernel.machine.Machine`
    gets a ``cls`` CPU; yields the list of CPUs built, in build order."""
    built: List[CPU] = []

    def build(*args, **kwargs):
        cpu = cls(*args, **kwargs)
        built.append(cpu)
        return cpu

    with mock.patch.object(machine, "CPU", build):
        yield built
