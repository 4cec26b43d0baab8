"""repro — persistent traffic measurement through V2I communications.

A full reproduction of *"Persistent Traffic Measurement Through
Vehicle-to-Infrastructure Communications"* (Huang, Sun, Chen, Xu,
Zhou — IEEE ICDCS 2017): privacy-preserving bitmap traffic records,
the point and point-to-point persistent-traffic estimators, the
privacy analysis, the evaluation workloads (Sioux Falls + synthetic),
and an end-to-end discrete-event simulation of the V2I protocol.

Quickstart
----------
>>> import numpy as np
>>> from repro import (
...     Bitmap, KeyGenerator, PointPersistentEstimator,
...     VehicleEncoder, VehiclePopulation, bitmap_size_for_volume)
>>> keygen = KeyGenerator(master_seed=7, s=3)
>>> encoder = VehicleEncoder()
>>> rng = np.random.default_rng(0)
>>> commuters = VehiclePopulation.random(400, keygen, rng)
>>> records = []
>>> for day in range(5):
...     bitmap = Bitmap(bitmap_size_for_volume(5000, 2))
...     commuters.encode_into(bitmap, location=12, encoder=encoder)
...     transients = VehiclePopulation.random(4600, keygen, rng)
...     transients.encode_into(bitmap, location=12, encoder=encoder)
...     records.append(bitmap)
>>> estimate = PointPersistentEstimator().estimate(records)
>>> 250 < estimate.estimate < 550
True

See ``examples/`` for runnable scenarios and ``python -m repro`` to
regenerate every table and figure of the paper.
"""

from repro.core.baselines import DirectAndBenchmark, ExactIdCounter
from repro.core.multisplit import MultiSplitPointEstimator
from repro.core.path import PathPersistentEstimator
from repro.core.point import PointPersistentEstimator, estimate_point_persistent
from repro.core.point_to_point import (
    PointToPointPersistentEstimator,
    estimate_point_to_point_persistent,
)
from repro.core.results import PointEstimate, PointToPointEstimate
from repro.crypto.keys import KeyGenerator
from repro.exceptions import (
    AuthenticationError,
    ConfigurationError,
    CoverageError,
    DataError,
    EstimationError,
    ProtocolError,
    ReproError,
    SaturatedBitmapError,
    SketchError,
    TransportError,
)
# The repro.faults package root re-exports neither the chaos harness
# nor the drill (they pull in the simulation and experiment stack), so
# importing these submodules keeps `import repro` light.
from repro.faults.plan import FaultInjector, FaultPlan, OutageWindow
from repro.faults.transport import UploadTransport
from repro.rsu.record import TrafficRecord
from repro.rsu.unit import RoadSideUnit
from repro.server.central import CentralServer
from repro.server.degradation import (
    CoveragePolicy,
    CoverageReport,
    DegradedResult,
)
from repro.server.monitor import PersistenceMonitor
from repro.server.persistence import RecordArchive, RepairReport
from repro.server.queries import (
    PointPersistentQuery,
    PointToPointPersistentQuery,
    PointVolumeQuery,
)
from repro.sketch.bitmap import Bitmap
from repro.sketch.sizing import bitmap_size_for_volume
from repro.vehicle.encoder import VehicleEncoder
from repro.vehicle.identity import VehicleIdentity
from repro.vehicle.population import VehiclePopulation

__version__ = "1.0.0"

__all__ = [
    "AuthenticationError",
    "Bitmap",
    "CentralServer",
    "ConfigurationError",
    "CoverageError",
    "CoveragePolicy",
    "CoverageReport",
    "DataError",
    "DegradedResult",
    "DirectAndBenchmark",
    "EstimationError",
    "ExactIdCounter",
    "FaultInjector",
    "FaultPlan",
    "KeyGenerator",
    "MultiSplitPointEstimator",
    "PathPersistentEstimator",
    "PersistenceMonitor",
    "PointEstimate",
    "PointPersistentEstimator",
    "PointPersistentQuery",
    "PointToPointEstimate",
    "PointToPointPersistentEstimator",
    "PointToPointPersistentQuery",
    "OutageWindow",
    "PointVolumeQuery",
    "ProtocolError",
    "RecordArchive",
    "RepairReport",
    "ReproError",
    "RoadSideUnit",
    "SaturatedBitmapError",
    "SketchError",
    "TrafficRecord",
    "TransportError",
    "UploadTransport",
    "VehicleEncoder",
    "VehicleIdentity",
    "VehiclePopulation",
    "bitmap_size_for_volume",
    "estimate_point_persistent",
    "estimate_point_to_point_persistent",
    "__version__",
]
