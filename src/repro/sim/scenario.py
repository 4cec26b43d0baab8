"""City-scale end-to-end scenario.

Builds a full deployment — trusted third party, RSUs over a road
network, a central server, a fleet of vehicles with on-board units —
and runs measurement periods through the discrete-event engine.  The
fleet has two parts, matching the paper's workload model:

* *persistent* vehicles: commuters with a fixed origin-destination
  trip they repeat every period (these form the persistent traffic);
* *transient* vehicles: fresh vehicles each period with one-off trips.

Alongside the privacy-preserving pipeline, the scenario runs the
non-private :class:`~repro.core.baselines.ExactIdCounter` as ground
truth, so callers can compare estimates against exact persistent
volumes — something a real deployment could never do, and precisely
what a simulation is for.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.baselines import ExactIdCounter
from repro.crypto.hashing import default_hasher
from repro.crypto.keys import KeyGenerator
from repro.crypto.pki import CertificateAuthority
from repro.exceptions import ConfigurationError
from repro.network.deployment import RsuDeployment
from repro.network.road import RoadNetwork
from repro.obs import runtime as obs
from repro.obs.spans import span

#: Bound handle for the per-pass loss accounting hot path.
_LOSS_EVENTS = obs.bind_counter(
    "repro_loss_events_total",
    "Physical passes lost to V2I channel faults.",
)
from repro.network.trajectory import TripPlanner
from repro.server.central import CentralServer
from repro.sim.events import SimulationEngine
from repro.sim.protocol import EncounterOutcome, ProtocolDriver
from repro.traffic.trip_table import TripTable
from repro.vehicle.encoder import VehicleEncoder
from repro.vehicle.identity import VehicleIdentity
from repro.vehicle.onboard import OnBoardUnit


@dataclass(frozen=True)
class PeriodSummary:
    """What happened during one simulated measurement period.

    ``missed`` counts passes lost to the legacy ``detection_rate``
    knob; ``lost`` counts injected channel-loss faults and ``outaged``
    counts passes blanked by RSU outage windows (both zero without a
    fault plan).
    """

    period: int
    encounters: int
    rejected: int
    missed: int
    reports_by_location: Dict[int, int]
    lost: int = 0
    outaged: int = 0


class _FleetVehicle:
    """A vehicle: identity material, OBU, and its travel behaviour."""

    __slots__ = ("obu", "origin", "destination")

    def __init__(self, obu: OnBoardUnit, origin: int, destination: int):
        self.obu = obu
        self.origin = origin
        self.destination = destination


class CityScenario:
    """A complete simulated deployment over a road network.

    Parameters
    ----------
    network:
        The road network to instrument.
    trip_table:
        OD volumes used to sample vehicle trips.
    persistent_vehicles:
        Commuters repeating the same trip every period.
    transient_vehicles_per_period:
        Fresh one-off vehicles per period.
    s:
        Representative-bit parameter for the whole deployment.
    load_factor:
        Eq. 2 load factor ``f``.
    rsu_locations:
        Locations to instrument (default: all network locations).
    period_seconds:
        Measurement-period length (default one day).
    seed:
        Master seed for all randomness in the scenario.
    hasher_flavour:
        ``"splitmix64"`` (fast, default) or ``"sha256"``
        (byte-faithful protocol hashing).
    fault_plan:
        Optional :class:`~repro.faults.plan.FaultPlan`.  When given,
        encounters may lose their encoding reports, outage windows
        blank whole (location, period) cells, and every upload runs
        through a resilient
        :class:`~repro.faults.transport.UploadTransport` (retries,
        checksummed frames, duplicate absorption, dead-lettering)
        instead of being handed straight to the server.
    dead_letter_path:
        Optional JSONL file mirroring the transport's quarantine
        (only meaningful with a fault plan).
    cache:
        Whether the central server memoizes per-location joins in its
        query-plan cache (default True; estimates are bit-identical
        either way).
    """

    def __init__(
        self,
        network: RoadNetwork,
        trip_table: TripTable,
        persistent_vehicles: int = 200,
        transient_vehicles_per_period: int = 1000,
        s: int = 3,
        load_factor: float = 2.0,
        rsu_locations: Optional[Sequence[int]] = None,
        period_seconds: float = 86400.0,
        seed: int = 0,
        hasher_flavour: str = "splitmix64",
        detection_rate: float = 1.0,
        fault_plan=None,
        dead_letter_path=None,
        cache: bool = True,
    ):
        if persistent_vehicles < 0 or transient_vehicles_per_period < 0:
            raise ConfigurationError("fleet sizes must be non-negative")
        if not 0.0 < detection_rate <= 1.0:
            raise ConfigurationError(
                f"detection rate must lie in (0, 1], got {detection_rate}"
            )
        self._rng = np.random.default_rng(seed)
        self._network = network
        self._trip_table = trip_table
        self._authority = CertificateAuthority(seed=seed ^ 0xCA)
        self._deployment = RsuDeployment(
            network,
            self._authority,
            locations=rsu_locations,
        )
        self._server = CentralServer(s=s, load_factor=load_factor, cache=cache)
        self._keygen = KeyGenerator(master_seed=seed ^ 0x5EED, s=s)
        self._encoder = VehicleEncoder(default_hasher(seed ^ 0xA5A5, hasher_flavour))
        self._planner = TripPlanner(network, period_seconds=period_seconds)
        self._fault_plan = fault_plan
        self._injector = fault_plan.injector() if fault_plan is not None else None
        if fault_plan is not None:
            from repro.faults.transport import UploadTransport

            self._transport = UploadTransport(
                self._server,
                injector=self._injector,
                dead_letter_path=dead_letter_path,
            )
        else:
            self._transport = None
        self._driver = ProtocolDriver(authenticate=True, injector=self._injector)
        self._truth = ExactIdCounter()
        self._period_seconds = float(period_seconds)
        self._detection_rate = float(detection_rate)
        self._transients_per_period = int(transient_vehicles_per_period)
        self._next_vehicle_id = 1
        self._periods_run = 0
        self._persistent_fleet = [
            self._new_vehicle() for _ in range(int(persistent_vehicles))
        ]

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def server(self) -> CentralServer:
        """The central server receiving every traffic record."""
        return self._server

    @property
    def deployment(self) -> RsuDeployment:
        """The RSU deployment."""
        return self._deployment

    @property
    def truth(self) -> ExactIdCounter:
        """Exact (non-private) ground truth, for evaluation only."""
        return self._truth

    @property
    def fault_plan(self):
        """The attached fault plan, or None."""
        return self._fault_plan

    @property
    def injector(self):
        """The run's fault injector (fault counts live here), or None."""
        return self._injector

    @property
    def transport(self):
        """The resilient upload transport, or None without faults."""
        return self._transport

    @property
    def periods_run(self) -> int:
        """Number of completed measurement periods."""
        return self._periods_run

    @property
    def persistent_fleet_size(self) -> int:
        """Number of commuter vehicles."""
        return len(self._persistent_fleet)

    def commuter_obus(self) -> List[OnBoardUnit]:
        """The on-board units of the persistent (commuter) fleet.

        Exposed for evaluation scenarios that probe vehicles directly,
        e.g. confronting them with a rogue RSU.
        """
        return [vehicle.obu for vehicle in self._persistent_fleet]

    # ------------------------------------------------------------------
    # Fleet construction
    # ------------------------------------------------------------------

    def _new_vehicle(self) -> _FleetVehicle:
        return self._new_vehicles(1)[0]

    def _new_vehicles(self, count: int) -> List[_FleetVehicle]:
        """Mint ``count`` fresh vehicles with one batched OD draw.

        ``rng.choice(size=k)`` consumes the underlying uniform stream
        exactly as ``k`` single draws do, so batching leaves the RNG
        stream — and therefore every simulation output — unchanged
        while paying the trip-table normalization once instead of per
        vehicle.
        """
        od_pairs = (
            self._planner.sample_od_pairs(self._trip_table, count, self._rng)
            if count > 0
            else []
        )
        vehicles: List[_FleetVehicle] = []
        for origin, destination in od_pairs:
            vehicle_id = self._next_vehicle_id
            self._next_vehicle_id += 1
            identity = VehicleIdentity.from_generator(vehicle_id, self._keygen)
            obu = OnBoardUnit(
                identity=identity,
                trust_anchor=self._authority.trust_anchor,
                encoder=self._encoder,
                mac_seed=vehicle_id,
            )
            vehicles.append(
                _FleetVehicle(obu=obu, origin=origin, destination=destination)
            )
        return vehicles

    # ------------------------------------------------------------------
    # Period execution
    # ------------------------------------------------------------------

    def run_period(self) -> PeriodSummary:
        """Simulate one full measurement period."""
        with span("sim.period", period=self._periods_run) as period_span:
            summary = self._run_period()
            if obs.TRACING:
                # The period's counts ride on its span into /traces
                # and --trace-out.
                period_span.attrs.update(
                    encounters=summary.encounters,
                    missed=summary.missed,
                    rejected=summary.rejected,
                    lost=summary.lost,
                    outaged=summary.outaged,
                )
        return summary

    def _run_period(self) -> PeriodSummary:
        period = self._periods_run
        engine = SimulationEngine()
        if self._transport is not None:
            # Delayed uploads from earlier periods arrive now, out of
            # order relative to the live stream.
            self._transport.flush()
        counters = {
            "encounters": 0,
            "rejected": 0,
            "missed": 0,
            "lost": 0,
            "outaged": 0,
        }
        reports_by_location: Dict[int, int] = {
            location: 0 for location in self._deployment.locations
        }

        for location in self._deployment.locations:
            size = self._server.recommend_bitmap_size(location)
            self._deployment.rsu_at(location).start_period(period, bitmap_size=size)

        transients = self._new_vehicles(self._transients_per_period)
        for vehicle in chain(self._persistent_fleet, transients):
            trajectory = self._planner.plan_trip(
                vehicle.obu.identity.vehicle_id,
                vehicle.origin,
                vehicle.destination,
                self._rng,
            )
            for location, pass_time in zip(trajectory.path, trajectory.pass_times):
                if not self._deployment.has_rsu(location):
                    continue
                engine.schedule(
                    pass_time,
                    self._make_encounter_action(
                        vehicle, location, pass_time, period,
                        counters, reports_by_location,
                    ),
                )

        engine.run(until=self._period_seconds)

        for location in self._deployment.locations:
            record = self._deployment.rsu_at(location).end_period()
            if self._injector is not None and self._injector.in_outage(
                location, period
            ):
                # The RSU was dark this whole period: its record never
                # leaves the site.  Queries over this period degrade.
                continue
            if self._transport is not None:
                self._transport.send(record)
            else:
                self._server.receive_payload(record.to_payload())

        self._periods_run += 1
        return PeriodSummary(
            period=period,
            encounters=counters["encounters"],
            rejected=counters["rejected"],
            missed=counters["missed"],
            reports_by_location=reports_by_location,
            lost=counters["lost"],
            outaged=counters["outaged"],
        )

    def _make_encounter_action(
        self,
        vehicle: _FleetVehicle,
        location: int,
        pass_time: float,
        period: int,
        counters: Dict[str, int],
        reports_by_location: Dict[int, int],
    ):
        def action() -> None:
            counters["encounters"] += 1
            # Ground truth records the *physical* pass (evaluation
            # only); the measurement system below may still miss it.
            self._truth.observe(
                location, period, vehicle.obu.identity.vehicle_id
            )
            # An RSU in an injected outage window broadcasts nothing;
            # the pass happens but can never be recorded.
            if self._injector is not None and self._injector.in_outage(
                location, period
            ):
                counters["outaged"] += 1
                return
            # Channel fault injection: the vehicle misses the beacon
            # window (occlusion, collision, packet loss) and passes
            # unrecorded.
            if (
                self._detection_rate < 1.0
                and self._rng.random() >= self._detection_rate
            ):
                counters["missed"] += 1
                if obs.ACTIVE:
                    _LOSS_EVENTS.inc()
                return
            rsu = self._deployment.rsu_at(location)
            result = self._driver.run_encounter(
                vehicle.obu, rsu, arrival_offset=pass_time
            )
            if result.outcome is EncounterOutcome.REJECTED_ROGUE:
                counters["rejected"] += 1
                return
            if result.outcome is EncounterOutcome.LOST_CHANNEL:
                counters["lost"] += 1
                return
            reports_by_location[location] += 1

        return action

    def flush_uploads(self) -> None:
        """Deliver any fault-delayed uploads still held by the transport."""
        if self._transport is not None:
            self._transport.flush()

    def run(self, periods: int) -> List[PeriodSummary]:
        """Run several consecutive measurement periods."""
        if periods < 1:
            raise ConfigurationError(f"periods must be >= 1, got {periods}")
        summaries = [self.run_period() for _ in range(periods)]
        self.flush_uploads()
        return summaries
