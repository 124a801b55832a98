"""The unified ChunkSource protocol and its adapters.

One feed shape for every driver: protocol conformance across all source
implementations, the ``as_chunk_source`` adapter, suffix-replay resume
semantics and the rejection of the retired pre-protocol feed shapes.  The
``DetectionService`` auto-resume the protocol makes possible is the
``service_sigterm`` driver of ``tests/test_driver_oracle.py``.
"""

import numpy as np
import pytest

from repro.datasets.streaming import SyntheticChunkSource, synthetic_chunk_stream
from repro.datasets.synthetic import DatasetConfig
from repro.streaming import (
    ChunkSource,
    ChunkedSeriesSource,
    StreamingConfig,
    stream_detect,
)
from repro.streaming.sources import (
    AsyncChunkSource,
    IterableChunkSource,
    as_chunk_source,
)

CHUNK = 32
CONFIG = StreamingConfig(min_train_bins=96, recalibrate_every_bins=48)


def _chunks_equal(a, b):
    if a.start_bin != b.start_bin or a.traffic_types != b.traffic_types:
        return False
    return all(np.array_equal(a.matrix(t), b.matrix(t))
               for t in a.traffic_types)


class TestProtocol:
    def test_every_source_implementation_conforms(self, clean_series,
                                                  abilene, tmp_path):
        from repro.ingest import FlowCsvSource, IngestConfig, export_flow_csv

        path = tmp_path / "empty.csv"
        export_flow_csv([], path)
        sources = [
            ChunkedSeriesSource(clean_series, CHUNK),
            IterableChunkSource([]),
            AsyncChunkSource(maxsize=2),
            SyntheticChunkSource(chunk_size=CHUNK, max_blocks=1),
            FlowCsvSource(str(path), network=abilene,
                          config=IngestConfig(chunk_size=CHUNK)),
        ]
        for source in sources:
            assert isinstance(source, ChunkSource), type(source).__name__

    def test_non_sources_do_not_conform(self):
        assert not isinstance(42, ChunkSource)
        assert not isinstance([], ChunkSource)  # no resume()

    def test_as_chunk_source_passes_protocol_objects_through(
            self, clean_series):
        source = ChunkedSeriesSource(clean_series, CHUNK)
        assert as_chunk_source(source) is source

    def test_as_chunk_source_wraps_plain_iterables_silently(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            wrapped = as_chunk_source([])
        assert isinstance(wrapped, IterableChunkSource)

    def test_as_chunk_source_rejects_legacy_factory(self):
        # A factory callable is not a feed shape.
        with pytest.raises(TypeError, match="must be a ChunkSource"):
            as_chunk_source(lambda start_bin: iter([]))

    def test_as_chunk_source_rejects_everything_else(self):
        with pytest.raises(TypeError, match="must be a ChunkSource"):
            as_chunk_source(42)
        with pytest.raises(ValueError, match="must not be None"):
            as_chunk_source(None)


class TestResume:
    def test_series_source_resume_reproduces_the_suffix(self, clean_series):
        full = list(ChunkedSeriesSource(clean_series, CHUNK))
        source = ChunkedSeriesSource(clean_series, CHUNK).resume(64)
        assert source.start_bin == 64
        for resumed in (list(source), list(source)):  # re-iterable
            assert len(resumed) == len(full) - 2
            assert all(_chunks_equal(a, b)
                       for a, b in zip(resumed, full[2:]))
        with pytest.raises(ValueError):
            ChunkedSeriesSource(clean_series, CHUNK).resume(-1)

    def test_synthetic_source_resume_reproduces_the_suffix(self):
        source = SyntheticChunkSource(
            chunk_size=CHUNK, block_config=DatasetConfig(weeks=1.0 / 7.0),
            seed=3, max_blocks=1)
        full = list(source)
        resumed = list(source.resume(96))
        assert [c.start_bin for c in resumed] \
            == [c.start_bin for c in full if c.start_bin >= 96]
        for a, b in zip(resumed, full[3:]):
            assert _chunks_equal(a, b)

    def test_iterable_source_resume_skips_forward_only(self, clean_series):
        chunks = list(ChunkedSeriesSource(clean_series, CHUNK))
        resumed = list(IterableChunkSource(chunks).resume(64))
        assert resumed == chunks[2:]
        # A resume bin off the chunk grid cannot be honoured by skipping.
        with pytest.raises(ValueError, match="cannot resume a plain"):
            list(IterableChunkSource(chunks).resume(40))


class TestDeprecatedShapes:
    """The pre-protocol feed shapes are gone, not silently reinterpreted."""

    def test_stream_detect_chunks_keyword_is_rejected(self, clean_series):
        source = ChunkedSeriesSource(clean_series, CHUNK)
        with pytest.raises(TypeError):
            stream_detect(chunks=source, config=CONFIG)

    def test_source_and_chunks_together_is_an_error(self, clean_series):
        source = ChunkedSeriesSource(clean_series, CHUNK)
        with pytest.raises(TypeError):
            stream_detect(source, config=CONFIG, chunks=source)

    def test_series_source_start_bin_keyword_is_rejected(self, clean_series):
        with pytest.raises(TypeError):
            ChunkedSeriesSource(clean_series.window(64, 288), CHUNK,
                                start_bin=64)

    def test_synthetic_stream_start_block_is_rejected(self):
        with pytest.raises(TypeError):
            synthetic_chunk_stream(chunk_size=CHUNK, max_blocks=2,
                                   start_block=1)
