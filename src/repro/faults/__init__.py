"""Seeded, deterministic fault injection for the detection runtime.

The fault-tolerance claims of this repo are *parity* claims — a run that
loses a checkpoint generation, a whole ingestion leaf, or its own process
must end with the same event table as an undisturbed run.  Claims like
that are only testable if the faults themselves are reproducible, so
every primitive here is deterministic under a fixed seed:

* :func:`~repro.faults.corrupt.corrupt_checkpoint` — torn-write and
  bit-rot simulation against a checkpoint directory: truncate or
  seeded-bit-flip the newest generation, so the fallback chain in
  :mod:`repro.streaming.checkpoint` has something real to recover from.
* :class:`~repro.faults.sinks.FailingSink` — an alert sink that always
  raises, exercising the dispatcher's retry/dead-letter path.

A killed process needs no primitive: ``tests/test_chaos.py`` SIGKILLs the
service CLI and restarts it from its checkpoint chain, and the fault cells
of ``tests/test_driver_oracle.py`` (``service_corrupt``, ``leaf_outage``,
...) prove the parity claims in process.  The CI ``chaos`` job runs every
case with fixed seeds on every push.
"""

from repro.faults.corrupt import corrupt_checkpoint
from repro.faults.sinks import FailingSink

__all__ = ["corrupt_checkpoint", "FailingSink"]
