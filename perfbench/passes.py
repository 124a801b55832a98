"""Service passes: the feed that times chunks, and the runner.

A pass builds a fresh ``DetectionService`` over its own store, alert file
and checkpoint directory, feeds it one input set through a :class:`Feed`,
times ``DetectionService.run`` and checks the resulting event table
against the input set's reference digest.
"""

from __future__ import annotations

import gc
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List

from workloads import Inputs, Workload, build_service


class Feed:
    """Hands a source's chunks to the service and times each one.

    A closed loop: a chunk is released when the service asks for it and
    done when the service asks for the next one, so its latency covers
    detection, stored events, written alerts and any checkpoint.
    """

    def __init__(self, source) -> None:
        self._source = source
        self.released: List[float] = []
        self.done: List[float] = []

    def __iter__(self):
        for chunk in self._source:
            self.released.append(time.perf_counter())
            yield chunk
            self.done.append(time.perf_counter())

    @property
    def latencies(self) -> List[float]:
        """Per-chunk seconds from release to done."""
        return [done - released
                for released, done in zip(self.released, self.done)]


@dataclass
class Pass:
    """Measurements of one ``DetectionService.run`` pass."""

    wall_s: float
    bins: int
    records: int
    feed: Feed
    lock_retries: int
    alert_retries: int
    dead_lettered: int
    #: Chunk index -> slow work it triggered (traced passes only).
    flags: Dict[int, set]


class Runner:
    """Runs service passes over one input set and checks each one."""

    def __init__(self, workload: Workload, inputs: Inputs,
                 workdir: Path) -> None:
        self.workload = workload
        self.inputs = inputs
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    @property
    def correct(self) -> bool:
        return not self.errors

    def run(self, tracer=None) -> Pass:
        """One pass: a fresh service over the whole input."""
        inputs = self.inputs
        # The services of earlier passes sit in reference cycles; freeing
        # them now keeps the peak memory that of one pass, however many
        # passes fit in the run.
        gc.collect()
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        service = build_service(self.workload, self.workdir)
        source = inputs.make_source()
        feed = Feed(source)
        flags: Dict[int, set] = {}
        if tracer is not None:
            flags = tracer.new_pass(lambda: len(feed.released) - 1)
        try:
            start = time.perf_counter()
            result = service.run(feed)
            wall = time.perf_counter() - start
            digest = service.store.table_digest()
            lock_retries = service.store.lock_retry_count
            registry = service.dispatcher.registry
        finally:
            service.close()

        def total(name: str) -> int:
            return int(sum(m.value for m in registry.labeled(name).values()))

        report = result.report
        sent, dead = total("alerts_sent"), total("alerts_dead_lettered")
        stats = getattr(source, "stats", None)
        records = stats.parse.records if stats is not None else 0
        self.attempted += report.n_chunks_processed + report.n_bad_chunks
        self.attempted += sent + dead
        self.failed += report.n_bad_chunks + dead
        self.check(digest == inputs.reference_digest,
                   f"event table {digest[:16]} != reference "
                   f"{inputs.reference_digest[:16]}")
        self.check(report.n_bins_processed == inputs.n_bins
                   and not result.interrupted,
                   f"{report.n_bins_processed} of {inputs.n_bins} "
                   f"bins processed")
        self.check(records == inputs.n_records,
                   f"{records} of {inputs.n_records} records parsed")
        return Pass(wall, report.n_bins_processed, records, feed,
                    lock_retries, total("alert_retries"), dead, flags)

    def check(self, ok: bool, message: str) -> None:
        """Record *message* as an error unless *ok*."""
        if not ok and message not in self.errors:
            self.errors.append(message)

    def repeat(self, budget_s: float, tracer=None) -> List[Pass]:
        """Closed-loop passes for about *budget_s* seconds; at least one.

        Another pass starts only if, at the last pass's length, it would
        end within the budget.
        """
        started = time.perf_counter()
        passes = [self.run(tracer=tracer)]
        while (time.perf_counter() - started + passes[-1].wall_s
               <= budget_s):
            passes.append(self.run(tracer=tracer))
        return passes
