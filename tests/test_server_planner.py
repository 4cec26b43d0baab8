"""Tests for the multi-location query planner."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.rsu.record import TrafficRecord
from repro.server.central import CentralServer
from repro.server.planner import persistent_flow_matrix, rank_persistent_sources
from repro.sketch.bitmap import Bitmap
from repro.sketch.sizing import bitmap_size_for_volume
from repro.vehicle.population import VehiclePopulation
from repro.vehicle.encoder import VehicleEncoder
from repro.crypto.keys import KeyGenerator

TARGET = 10
SOURCES = (1, 2, 3)
#: Persistent volume from each source to the target.
TRUE_FLOWS = {1: 2000, 2: 800, 3: 200}
PERIODS = (0, 1, 2)
VOLUME = 20000


@pytest.fixture(scope="module")
def loaded_server():
    """A server with three sources feeding one target.

    Each source's persistent population passes its own location and
    the target every period; fresh transients fill every location.
    """
    keygen = KeyGenerator(master_seed=41, s=3)
    encoder = VehicleEncoder()
    rng = np.random.default_rng(12)
    server = CentralServer(s=3, load_factor=2.0)
    size = bitmap_size_for_volume(VOLUME, 2.0)

    persistent = {
        source: VehiclePopulation.random(flow, keygen, rng)
        for source, flow in TRUE_FLOWS.items()
    }
    for period in PERIODS:
        bitmaps = {loc: Bitmap(size) for loc in SOURCES + (TARGET,)}
        for source in SOURCES:
            persistent[source].encode_into(bitmaps[source], source, encoder)
            persistent[source].encode_into(bitmaps[TARGET], TARGET, encoder)
        for location, bitmap in bitmaps.items():
            filled = sum(
                flow for src, flow in TRUE_FLOWS.items()
                if src == location or location == TARGET
            )
            transients = VehiclePopulation.random(
                VOLUME - filled, keygen, rng
            )
            transients.encode_into(bitmap, location, encoder)
            server.receive_record(
                TrafficRecord(location=location, period=period, bitmap=bitmap)
            )
    return server


class TestRanking:
    def test_sources_ranked_by_true_flow(self, loaded_server):
        ranked = rank_persistent_sources(
            loaded_server, TARGET, SOURCES, PERIODS
        )
        assert [source.location for source in ranked] == [1, 2, 3]

    def test_estimates_near_truth(self, loaded_server):
        ranked = rank_persistent_sources(
            loaded_server, TARGET, SOURCES, PERIODS
        )
        for source in ranked:
            truth = TRUE_FLOWS[source.location]
            assert source.volume == pytest.approx(truth, rel=0.5, abs=250)

    def test_empty_candidates_rejected(self, loaded_server):
        with pytest.raises(ConfigurationError):
            rank_persistent_sources(loaded_server, TARGET, [], PERIODS)

    def test_target_as_candidate_rejected(self, loaded_server):
        with pytest.raises(ConfigurationError):
            rank_persistent_sources(
                loaded_server, TARGET, [TARGET, 1], PERIODS
            )


class TestFlowMatrix:
    def test_all_pairs_present(self, loaded_server):
        matrix = persistent_flow_matrix(
            loaded_server, SOURCES + (TARGET,), PERIODS
        )
        expected_pairs = {(1, 2), (1, 3), (1, 10), (2, 3), (2, 10), (3, 10)}
        assert set(matrix) == expected_pairs

    def test_target_pairs_dominate(self, loaded_server):
        """Source-target pairs carry real persistent flow; the
        source-source pairs share no persistent vehicles."""
        matrix = persistent_flow_matrix(
            loaded_server, SOURCES + (TARGET,), PERIODS
        )
        assert matrix[(1, 10)] > matrix[(1, 2)]
        assert matrix[(1, 10)] > matrix[(2, 3)]

    def test_too_few_locations_rejected(self, loaded_server):
        with pytest.raises(ConfigurationError):
            persistent_flow_matrix(loaded_server, [1], PERIODS)

    def test_duplicate_locations_deduped(self, loaded_server):
        matrix = persistent_flow_matrix(loaded_server, [1, 1, 2], PERIODS)
        assert set(matrix) == {(1, 2)}


def _saturated_server():
    """Two locations whose cross-location OR-join is saturated.

    Each record keeps a single zero bit (so per-record volume
    estimates work at ingestion), but the two locations' zeros sit at
    different positions — the second-level OR has no zeros left and
    every pair estimate degenerates.
    """
    server = CentralServer(s=3, load_factor=2.0)
    bits = {1: [0] + [1] * 7, 2: [1] * 7 + [0]}
    for location in (1, 2):
        for period in (0, 1):
            server.receive_record(
                TrafficRecord(
                    location=location,
                    period=period,
                    bitmap=Bitmap(8, bits[location]),
                )
            )
    return server


class TestObservability:
    def test_pair_counters_cover_every_pair(self, loaded_server):
        from repro.obs import runtime
        from repro.obs.metrics import MetricsRegistry

        registry = runtime.enable(registry=MetricsRegistry())
        try:
            persistent_flow_matrix(loaded_server, SOURCES + (TARGET,), PERIODS)
            assert (
                registry.get("repro_flow_pairs_total").labels().value == 6.0
            )
            # Pre-registered even when nothing degenerated.
            assert (
                registry.get("repro_flow_pairs_skipped_total").labels().value
                == 0.0
            )
        finally:
            runtime.disable()

    def test_degenerate_pairs_counted_not_swallowed(self):
        from repro.obs import runtime
        from repro.obs.metrics import MetricsRegistry

        registry = runtime.enable(registry=MetricsRegistry())
        try:
            matrix = persistent_flow_matrix(_saturated_server(), (1, 2), (0, 1))
            assert matrix == {}
            assert (
                registry.get("repro_flow_pairs_skipped_total").labels().value
                == 1.0
            )
            ranked = rank_persistent_sources(_saturated_server(), 2, [1], (0, 1))
            assert ranked == []
            assert (
                registry.get("repro_flow_pairs_skipped_total").labels().value
                == 2.0
            )
        finally:
            runtime.disable()
