"""Seeded inputs for the sharded-tier benchmark.

The deployment is fixed: 128 RSUs whose daily volumes follow a Zipf
law from 2x10^5 vehicles (the busiest) down to 10^3, so Eq. 2 with the
tier's default load factor sizes their bitmaps from 2^19 down to 2^11
bits.  Location IDs and volumes do not depend on the seed, so every
seed routes the same RSUs to the same shards; the seed draws the
vehicles, the transient traffic and the analysts' query streams.

A day's record at an RSU is its commuters (a fixed
:class:`~repro.vehicle.population.VehiclePopulation` encoded with
``encode_into``, the same vehicles every day) plus transients drawn as
uniform bits, which is statistically the same as encoding fresh
random IDs.  One month of distinct days is generated; day ``d`` reuses
the bitmaps of day ``d % MONTH_DAYS``, so a window of up to 28 days
never holds the same bitmap twice while the upload stream can run for
as many days as a run needs.
"""

from __future__ import annotations

import hashlib
import math
from typing import List, Sequence, Tuple

import numpy as np

from repro.crypto.keys import KeyGenerator
from repro.faults.transport import frame_payload
from repro.rsu.record import TrafficRecord
from repro.sketch.bitmap import Bitmap
from repro.sketch.sizing import bitmap_size_for_volume
from repro.vehicle.encoder import VehicleEncoder
from repro.vehicle.population import VehiclePopulation

N_RSU = 128
MAX_VOLUME = 200_000
MIN_VOLUME = 1_000
#: Share of an RSU's daily volume that is the same commuters every day.
COMMUTER_SHARE = 0.3
#: The tier's defaults (``serve --s 3 --load-factor 2.0``).
S = 3
LOAD_FACTOR = 2.0
MONTH_DAYS = 30
#: Locations per ``multi_point_persistent`` query on ``query``.
QUERY_LOCATIONS = (8, 24)
QUERY_WINDOWS = (7, 14, 28)
LIVE_WINDOWS = (7, 14)
#: Pre-generated stream lengths; a stream cycles if a run outlasts it.
QUERY_STREAM = 8192
LIVE_STREAM = 65536

QueryOp = Tuple[Tuple[int, ...], Tuple[int, ...]]


def locations() -> Tuple[int, ...]:
    """RSU location IDs, busiest first."""
    return tuple(range(1, N_RSU + 1))


def volumes() -> Tuple[int, ...]:
    """Zipf daily volumes, busiest first: 2x10^5 down to 10^3."""
    alpha = math.log(MAX_VOLUME / MIN_VOLUME) / math.log(N_RSU)
    return tuple(
        int(round(MAX_VOLUME * rank ** -alpha)) for rank in range(1, N_RSU + 1)
    )


def sizes() -> Tuple[int, ...]:
    """Eq. 2 bitmap size of every RSU."""
    return tuple(bitmap_size_for_volume(v, LOAD_FACTOR) for v in volumes())


def popularity() -> np.ndarray:
    """Zipf query popularity over RSUs (rank 1 = busiest = most asked)."""
    weights = 1.0 / np.arange(1, N_RSU + 1)
    return weights / weights.sum()


class Inputs:
    """Everything a run sends, generated from one seed before any clock."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        self.locations = locations()
        self.sizes = sizes()
        rng = np.random.default_rng([self.seed, 0])
        keygen = KeyGenerator(self.seed, s=S)
        encoder = VehicleEncoder()
        #: ``month[day][rsu]`` — the bitmap RSU ``rsu`` uploads on ``day``.
        self.month: List[List[Bitmap]] = [[] for _ in range(MONTH_DAYS)]
        for location, volume, size in zip(self.locations, volumes(), self.sizes):
            commuters = VehiclePopulation.random(
                int(volume * COMMUTER_SHARE), keygen, rng
            )
            transients = volume - commuters.size
            for day in range(MONTH_DAYS):
                bitmap = Bitmap(size)
                commuters.encode_into(bitmap, location, encoder)
                bitmap.set_many(
                    rng.integers(0, size, transients), assume_in_range=True
                )
                self.month[day].append(bitmap)
        #: RSU upload order within a day (a fixed permutation of indices).
        self.upload_order = tuple(int(i) for i in rng.permutation(N_RSU))
        self.queries = self._query_stream(np.random.default_rng([self.seed, 1]))
        live_rng = np.random.default_rng([self.seed, 2])
        #: Dashboard RSU visiting order and per-query window lengths.
        self.live_order = tuple(
            self.locations[i] for i in live_rng.permutation(N_RSU)
        )
        self.live_windows = live_rng.choice(LIVE_WINDOWS, LIVE_STREAM).astype(
            np.int64
        )

    def record(self, day: int, index: int) -> TrafficRecord:
        """The record RSU number ``index`` uploads at the end of ``day``."""
        return TrafficRecord(
            location=self.locations[index],
            period=int(day),
            bitmap=self.month[day % MONTH_DAYS][index],
        )

    def day_records(self, day: int) -> List[TrafficRecord]:
        """One day's records in upload order."""
        return [self.record(day, index) for index in self.upload_order]

    def day_frames(self, day: int) -> List[bytes]:
        """One day's RFR1 upload frames, as the RSUs would send them."""
        return [frame_payload(r.to_payload()) for r in self.day_records(day)]

    def _query_stream(self, rng: np.random.Generator) -> List[QueryOp]:
        """``multi_point_persistent`` queries over the preloaded month."""
        today = MONTH_DAYS - 1
        weights = popularity()
        low, high = QUERY_LOCATIONS
        stream: List[QueryOp] = []
        for _ in range(QUERY_STREAM):
            count = int(rng.integers(low, high + 1))
            picked = rng.choice(N_RSU, size=count, replace=False, p=weights)
            window = int(rng.choice(QUERY_WINDOWS))
            end = today - int(rng.integers(0, 2))
            stream.append(
                (
                    tuple(self.locations[i] for i in picked),
                    tuple(range(end - window + 1, end + 1)),
                )
            )
        return stream

    def live_query(self, index: int, last_complete_day: int) -> QueryOp:
        """Dashboard query ``index``: one RSU over trailing complete days."""
        location = self.live_order[index % N_RSU]
        window = int(self.live_windows[index % LIVE_STREAM])
        periods = tuple(
            range(last_complete_day - window + 1, last_complete_day + 1)
        )
        return (location,), periods


def digest(inputs: Inputs, days: Sequence[int]) -> str:
    """SHA-256 over the given days' frames and every query stream."""
    h = hashlib.sha256()
    for day in days:
        for frame in inputs.day_frames(day):
            h.update(frame)
    h.update(repr(inputs.queries).encode())
    h.update(repr(inputs.live_order).encode())
    h.update(inputs.live_windows.tobytes())
    return h.hexdigest()
