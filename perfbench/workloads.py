"""The benchmark's workloads: seeded inputs, references, and service wiring.

Every workload drives the public service API the same way: a chunk source
(``FlowCsvSource`` over a flow-record CSV export, or ``ChunkedSeriesSource``
over an in-memory series) feeds a ``DetectionService`` that writes a
file-backed ``EventStore`` and a ``JsonLinesAlertSink``.  What differs is
the input and the service settings, chosen so that each workload is
dominated by a different layer:

* ``csv_week`` -- the Abilene week (p=121, 2016 bins) exported as ~488k
  flow records; parse and binning do most of the work.
* ``replay_4w`` -- the paper's four weeks (8064 bins) in memory; T²
  identification dominates.
* ``wide_p1024`` -- two days over a random 32-PoP backbone (p=1024); the
  O(p³) eigendecomposition dominates.

Each pass's event table is compared with a reference computed without the
service layer: ``stream_detect`` over the same chunks for the in-memory
workloads, and for ``csv_week`` ``stream_detect`` over the records
aggregated in memory (``aggregate_records``), which bypasses the CSV
parser and binner entirely.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional

import numpy as np

from repro.anomalies import AnomalyScheduler, InjectionContext
from repro.anomalies.types import GroundTruthLog
from repro.datasets import DatasetConfig
from repro.flows.aggregation import aggregate_records
from repro.flows.composition import FlowCompositionModel
from repro.flows.timeseries import TrafficMatrixSeries, TrafficType
from repro.ingest import FlowCsvSource, IngestConfig, export_series_records
from repro.routing.resolver import PoPResolver
from repro.service import (AlertDispatcher, DetectionService, EventStore,
                           JsonLinesAlertSink)
from repro.streaming import ChunkedSeriesSource, StreamingConfig, stream_detect
from repro.topology import abilene_topology, random_backbone
from repro.traffic.generator import ODTrafficGenerator
from repro.utils.rng import spawn_rng
from repro.utils.timebins import TimeBinning

#: 5-minute bins in one day; csv_week checkpoints once a day.
DAY_BINS = 288
#: Seed of the fixed part of every workload's scenario: the random
#: backbone, the background traffic and the anomaly schedule.  ``--seed``
#: draws the anomalies' contents (and the csv_week flow records), so every
#: seed gives new inputs and new events but asks the detector for about
#: the same work.  Drawn from ``--seed``, the traffic noise sets how many
#: T² alarms fire and how deep their greedy search goes, which moved the
#: T² identification work by a third between seeds, even over 16 weeks.
SCENARIO_SEED = 2004
#: Flow records synthesized per (bin, OD pair) cell of the CSV export.
FLOWS_PER_CELL = 2
#: The CSV export is synthesized in this many time slices, in parallel.
CSV_PARTS = 4
SRC_DIR = Path(__file__).resolve().parent.parent / "src"
#: Longest a child process that makes cached inputs may run, in seconds.
CHILD_TIMEOUT_S = 600
#: Bump when the cached CSV inputs or their references change meaning.
CACHE_FORMAT = 3
#: Cached CSV inputs kept per checkout (~56 MB each), newest first.
CACHE_ENTRIES = 12


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: its input shape and its service settings."""

    name: str
    chunk_bins: int
    streaming: StreamingConfig
    #: Periodic checkpoint cadence; ``None`` runs without durability.
    checkpoint_every_chunks: Optional[int]


WORKLOADS = {
    workload.name: workload for workload in (
        Workload("csv_week", 32,
                 StreamingConfig(min_train_bins=128,
                                 recalibrate_every_bins=96),
                 checkpoint_every_chunks=DAY_BINS // 32),
        # Offline re-analysis recovers by re-running, so it pays for no
        # checkpoints.
        Workload("replay_4w", 32,
                 StreamingConfig(min_train_bins=128,
                                 recalibrate_every_bins=96),
                 checkpoint_every_chunks=None),
        Workload("wide_p1024", 64,
                 StreamingConfig(min_train_bins=128,
                                 recalibrate_every_bins=64),
                 checkpoint_every_chunks=None),
    )
}


@dataclass
class Inputs:
    """What the passes of one workload consume."""

    n_bins: int
    n_od_pairs: int
    #: A fresh chunk source per pass (sources are consumed by iteration).
    make_source: Callable[[], object]
    #: Records in the CSV export (0 for the in-memory workloads).
    n_records: int = 0
    #: ``EventStore.table_digest()`` of the reference run.
    reference_digest: str = ""


# --------------------------------------------------------------------- #
# input generation
# --------------------------------------------------------------------- #
def memory_series(workload: Workload, seed: int) -> TrafficMatrixSeries:
    """The in-memory series of *workload*, generated from *seed*."""
    if workload.name == "replay_4w":
        return scenario_series(abilene_topology(), 4.0, seed)
    return scenario_series(random_backbone(32, seed=SCENARIO_SEED),
                           2.0 / 7.0, seed)


def week_series(seed: int) -> TrafficMatrixSeries:
    """The synthetic Abilene week (p=121, 2016 bins)."""
    return scenario_series(abilene_topology(), 1.0, seed)


def scenario_series(network, weeks: float, seed: int) -> TrafficMatrixSeries:
    """*weeks* of the fixed scenario with anomaly contents drawn from *seed*.

    The background traffic and the anomaly schedule (types, times, sizes,
    OD pairs) come from :data:`SCENARIO_SEED`; *seed* draws what each
    anomaly injects (flow composition, packet and flow counts, ports), as
    :func:`~repro.datasets.generate_abilene_dataset` does from one seed.
    """
    config = DatasetConfig(weeks=weeks)
    binning = TimeBinning(n_bins=config.n_bins,
                          bin_seconds=config.bin_seconds)
    series = ODTrafficGenerator(
        network, config=config.generator,
        seed=spawn_rng(SCENARIO_SEED, stream="background")).generate(binning)
    context = InjectionContext(
        network=network, series=series,
        composition=FlowCompositionModel(
            network, seed=spawn_rng(seed, stream="composition")),
        ground_truth=GroundTruthLog(),
        rng=spawn_rng(seed, stream="injection"))
    AnomalyScheduler(network, config.schedule,
                     seed=SCENARIO_SEED).apply(context)
    return series


def memory_inputs(workload: Workload, seed: int) -> Inputs:
    """Inputs of an in-memory workload, without the reference digest."""
    series = memory_series(workload, seed)
    return Inputs(
        n_bins=series.n_bins,
        n_od_pairs=series.n_od_pairs,
        make_source=lambda: ChunkedSeriesSource(series, workload.chunk_bins),
    )


def csv_source(path: Path, workload: Workload, n_bins: int) -> FlowCsvSource:
    """The ``FlowCsvSource`` over the csv_week export at *path*.

    One bin of watermark slack: with ``lateness_bins=0`` the binner seals
    the newest bin while its records may still be in the next parse batch,
    and drops those records as late whenever a chunk ends on such a bin
    (hundreds of records a week), so the event table no longer matches the
    in-memory aggregation of the same records.
    """
    return FlowCsvSource(str(path), network=abilene_topology(),
                         config=IngestConfig(chunk_size=workload.chunk_bins,
                                             n_bins=n_bins, lateness_bins=1))


def csv_cache_dir(workload: Workload, seed: int, cache_root: Path) -> Path:
    """Cache directory of the csv_week inputs for *seed*.

    The key covers every parameter the export or its reference depends
    on, so a changed setting never reads a stale entry.
    """
    key = json.dumps({
        "format": CACHE_FORMAT, "seed": seed, "scenario": SCENARIO_SEED,
        "weeks": 1.0, "flows_per_cell": FLOWS_PER_CELL, "parts": CSV_PARTS,
        "chunk_bins": workload.chunk_bins,
        "streaming": repr(workload.streaming),
    }, sort_keys=True)
    digest = hashlib.sha256(key.encode()).hexdigest()[:16]
    return cache_root / f"{workload.name}-seed{seed}-{digest}"


def csv_inputs(workload: Workload, seed: int, cache_root: Path,
               workers: int) -> Inputs:
    """Inputs of csv_week: the CSV export and its reference, cached.

    Synthesizing ~488k records takes tens of seconds, so the export and
    its reference digest are made once per seed and parameter set and
    reused by every later run in the same checkout.
    """
    directory = csv_cache_dir(workload, seed, cache_root)
    if not (directory / "reference.json").exists():
        # A child process builds them, so that the peak memory of the
        # measuring process is the same with and without a cache hit.
        run_children([["build", workload.name, str(seed), str(directory),
                       str(workers)]], workers=1, own_group=True)
    os.utime(directory)
    _evict(cache_root)
    meta = json.loads((directory / "reference.json").read_text())
    path = directory / "flows.csv"
    return Inputs(
        n_bins=meta["n_bins"],
        n_od_pairs=meta["n_od_pairs"],
        make_source=lambda: csv_source(path, workload, meta["n_bins"]),
        n_records=meta["n_records"],
        reference_digest=meta["digest"],
    )


def run_children(commands: List[List[str]], workers: int,
                 own_group: bool = False) -> None:
    """Run ``workloads.py <command>`` for each command, *workers* at a time.

    Returns once every child has ended.  On any way out but success (a
    failed child, :data:`CHILD_TIMEOUT_S`, an interrupt) every child still
    running is killed and waited for.  With *own_group* each child leads
    a process group of its own and the whole group is killed, so that the
    children it started in its own group die with it.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(SRC_DIR), env.get("PYTHONPATH"))))
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    pending = list(commands)
    running: List[subprocess.Popen] = []
    try:
        while pending or running:
            while pending and len(running) < workers:
                running.append(subprocess.Popen(
                    [sys.executable, str(Path(__file__).resolve()),
                     *pending.pop(0)],
                    env=env, start_new_session=own_group))
            child = running[0]
            code = child.wait(timeout=max(0.0, deadline - time.monotonic()))
            running.pop(0)
            if code != 0:
                raise RuntimeError(f"perfbench child {child.args[2:]} "
                                   f"failed (exit {code})")
    finally:
        for child in running:
            try:
                if own_group:
                    os.killpg(child.pid, signal.SIGKILL)
                else:
                    child.kill()
            except ProcessLookupError:
                pass
            child.wait()


def _export_part(seed: int, part: int, csv_path: str, npz_path: str) -> None:
    """Export one time slice of the week and save its in-memory aggregate.

    Runs in a child process.  A slice holds whole bins, so every cell's
    records land in one slice, in the order the binner adds them.
    """
    network = abilene_topology()
    series = week_series(seed)
    step = series.n_bins // CSV_PARTS
    window = series.window(part * step, (part + 1) * step)
    records = export_series_records(
        window, network, csv_path, seed=CSV_PARTS * seed + part,
        max_flows_per_cell=FLOWS_PER_CELL, header=part == 0)
    resolved, _ = PoPResolver(network).resolve_records(records)
    direct = aggregate_records(resolved, network.od_pairs(), window.binning)
    np.savez(npz_path, n_records=len(records),
             **{f"type_{t.value}": direct.matrix(t)
                for t in direct.traffic_types})


def _build_csv_cache(workload: Workload, seed: int, directory: Path,
                     workers: int) -> None:
    staging = directory.with_name(directory.name + f".tmp{os.getpid()}")
    shutil.rmtree(staging, ignore_errors=True)
    staging.mkdir(parents=True)
    parts = [(str(staging / f"part{part}.csv"),
              str(staging / f"part{part}.npz")) for part in range(CSV_PARTS)]
    run_children([["export-part", str(seed), str(part), *parts[part]]
                  for part in range(CSV_PARTS)],
                 workers=workers)
    results = []
    with open(staging / "flows.csv", "wb") as out:
        for csv_path, npz_path in parts:
            with open(csv_path, "rb") as handle:
                shutil.copyfileobj(handle, out)
            os.remove(csv_path)
            with np.load(npz_path) as saved:
                results.append((int(saved["n_records"]),
                                {key[len("type_"):]: saved[key]
                                 for key in saved.files
                                 if key.startswith("type_")}))
            os.remove(npz_path)
        # Write the export back now rather than while the timed passes
        # wait on their own fsyncs.
        out.flush()
        os.fsync(out.fileno())

    network = abilene_topology()
    series = week_series(seed)
    direct = TrafficMatrixSeries(
        network.od_pairs(), series.binning,
        {TrafficType(t): np.vstack([matrices[t] for _, matrices in results])
         for t in results[0][1]})
    digest = reference_digest(
        ChunkedSeriesSource(direct, workload.chunk_bins), workload.streaming)
    meta = {"digest": digest, "n_bins": series.n_bins,
            "n_od_pairs": series.n_od_pairs,
            "n_records": sum(n for n, _ in results), "seed": seed}
    (staging / "reference.json").write_text(json.dumps(meta, indent=1))
    shutil.rmtree(directory, ignore_errors=True)
    os.replace(staging, directory)


def _evict(cache_root: Path) -> None:
    entries = sorted((p for p in cache_root.iterdir() if p.is_dir()),
                     key=lambda p: p.stat().st_mtime, reverse=True)
    for stale in entries[CACHE_ENTRIES:]:
        shutil.rmtree(stale, ignore_errors=True)


def prepare_inputs(workload: Workload, seed: int, cache_root: Path,
                   workers: int) -> Inputs:
    """The inputs of a run, with their reference digest."""
    if workload.name == "csv_week":
        return csv_inputs(workload, seed, cache_root, workers)
    inputs = memory_inputs(workload, seed)
    inputs.reference_digest = reference_digest(inputs.make_source(),
                                               workload.streaming)
    return inputs


# --------------------------------------------------------------------- #
# reference and service
# --------------------------------------------------------------------- #
def reference_digest(source, config: StreamingConfig) -> str:
    """Event-table digest of ``stream_detect`` over *source*."""
    report = stream_detect(source, config=config)
    store = EventStore()
    try:
        for event in report.events:
            store.add_event(event)
        return store.table_digest()
    finally:
        store.close()


def build_service(workload: Workload, workdir: Path) -> DetectionService:
    """A fresh service with its store, alerts and checkpoints in *workdir*."""
    store = EventStore(str(workdir / "events.sqlite"))
    dispatcher = AlertDispatcher(
        [JsonLinesAlertSink(str(workdir / "alerts.jsonl"))],
        dead_letter_path=str(workdir / "dead_letter.jsonl"))
    checkpoint_dir = (str(workdir / "checkpoint")
                      if workload.checkpoint_every_chunks else None)
    return DetectionService(
        workload.streaming, store=store, dispatcher=dispatcher,
        checkpoint_dir=checkpoint_dir,
        checkpoint_every_chunks=workload.checkpoint_every_chunks)


def main(argv: List[str]) -> int:
    """Entry point of the child processes that make the csv_week inputs."""
    command, *rest = argv
    if command == "export-part":
        seed, part, csv_path, npz_path = rest
        _export_part(int(seed), int(part), csv_path, npz_path)
    elif command == "build":
        name, seed, directory, workers = rest
        _build_csv_cache(WORKLOADS[name], int(seed), Path(directory),
                         int(workers))
    else:
        print(f"workloads.py: unknown command {command!r}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
