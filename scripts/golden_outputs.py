"""Regenerate the golden file of full-precision estimator outputs.

``tests/golden_outputs.json`` pins, at fixed seeds and small sizes,
the numbers the paper's estimators produce end to end:

* Eq. 12 and the direct-AND baseline at a few Fig. 4 points (per-run
  estimates through the scalar encoder, plus the batch-engine cell the
  experiment itself reports);
* Eq. 21 and the same-size baseline on one Table I column;
* the V statistics behind ``python -m repro simulate --periods 3``;
* one seeded upload answered by a 2-shard in-process
  :class:`~repro.server.sharded.coordinator.ShardedCoordinator`.

Floats are written by ``repr``, so any change in any digit shows, and
every record payload is pinned by its SHA-256 so the serialized bytes
(WAL, archive and wire alike) are pinned too.
``tests/test_golden_outputs.py`` recomputes everything and compares
the rendered text exactly.  A change that moves these numbers on
purpose regenerates the file and says why::

    PYTHONPATH=src python scripts/golden_outputs.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Dict, List

import numpy as np

GOLDEN_PATH = Path(__file__).resolve().parent.parent / "tests" / "golden_outputs.json"

#: Seed of every draw below that is not an experiment's own seed.
SEED = 20170619


def _plain(value):
    """JSON-ready form: dataclasses as dicts, floats as their repr."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: _plain(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {str(key): _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return value


def _sha256(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def fig4_points() -> List[dict]:
    """Eq. 12 vs the direct AND-join at three Fig. 4 targets per panel."""
    from repro.core.baselines import DirectAndBenchmark
    from repro.core.point import PointPersistentEstimator
    from repro.experiments.common import ExperimentConfig
    from repro.experiments.fig4 import LOCATION, T_VALUES, _panel_cell
    from repro.traffic.synthetic import SyntheticPointScenario, expected_volume
    from repro.traffic.workloads import PointWorkload

    config = ExperimentConfig(runs=2)
    workload = PointWorkload(
        s=config.s, load_factor=config.load_factor, key_seed=config.seed
    )
    points = []
    for t in T_VALUES:
        scenario = SyntheticPointScenario.draw(
            np.random.default_rng([config.seed, t, 0xF160]), periods=t
        )
        targets = scenario.persistent_targets()
        for target_index in (0, len(targets) // 2, len(targets) - 1):
            n_star = targets[target_index]
            runs = []
            for run_index in range(config.runs):
                result = workload.generate(
                    n_star=n_star,
                    volumes=scenario.volumes,
                    location=LOCATION,
                    rng=np.random.default_rng(
                        [config.seed, t, target_index, run_index]
                    ),
                    expected_volume=expected_volume(),
                )
                runs.append(
                    {
                        "eq12": PointPersistentEstimator().estimate(
                            result.records
                        ),
                        "direct_and": DirectAndBenchmark().estimate(
                            result.records
                        ),
                    }
                )
            cell = _panel_cell(
                (target_index, n_star),
                t=t,
                volumes=scenario.volumes,
                config=config,
            )
            points.append(
                {
                    "t": t,
                    "n_star": n_star,
                    "volumes": scenario.volumes,
                    "runs": runs,
                    "cell": cell,
                }
            )
    return points


def table1_column() -> dict:
    """Eq. 21 at every reported t and the same-size baseline, column 8."""
    from repro.core.point_to_point import PointToPointPersistentEstimator
    from repro.experiments.common import ExperimentConfig
    from repro.experiments.table1 import (
        SAME_SIZE_T,
        T_VALUES,
        TOTAL_PERIODS,
        _measure_location,
    )
    from repro.traffic.sioux_falls import (
        L_PRIME_ZONE,
        M_PRIME,
        N_PRIME,
        table1_parameters,
    )
    from repro.traffic.workloads import PointToPointWorkload

    config = ExperimentConfig(runs=1)
    row = table1_parameters()[-1]
    workload = PointToPointWorkload(
        s=config.s, load_factor=config.load_factor, key_seed=config.seed
    )
    estimator = PointToPointPersistentEstimator(config.s)
    # The same draws as the experiment's run 0 of this column.
    result = workload.generate(
        n_double_prime=row.n_double_prime,
        volumes_a=[row.n] * TOTAL_PERIODS,
        volumes_b=[N_PRIME] * TOTAL_PERIODS,
        location_a=row.zone,
        location_b=L_PRIME_ZONE,
        rng=np.random.default_rng([config.seed, row.index, 0]),
        fixed_sizes=([row.m] * TOTAL_PERIODS, [M_PRIME] * TOTAL_PERIODS),
    )
    baseline = workload.generate(
        n_double_prime=row.n_double_prime,
        volumes_a=[row.n] * SAME_SIZE_T,
        volumes_b=[N_PRIME] * SAME_SIZE_T,
        location_a=row.zone,
        location_b=L_PRIME_ZONE,
        rng=np.random.default_rng([config.seed, row.index, 0, 9]),
        fixed_sizes=([row.m] * SAME_SIZE_T, [row.m] * SAME_SIZE_T),
    )
    column = _measure_location(row, config, location_seed=row.index)
    return {
        "zone": row.zone,
        "n_double_prime": row.n_double_prime,
        "eq21": {
            t: estimator.estimate(result.records_a[:t], result.records_b[:t])
            for t in T_VALUES
        },
        "same_size": estimator.estimate(
            baseline.records_a, baseline.records_b
        ),
        "experiment": {
            "errors_by_t": column.errors_by_t,
            "same_size_error": column.same_size_error,
        },
    }


def simulate_run() -> dict:
    """What ``simulate --periods 3`` (all defaults, seed 0) computes."""
    from repro.network.road import sioux_falls_network
    from repro.server.queries import PointPersistentQuery
    from repro.sim.scenario import CityScenario
    from repro.traffic.sioux_falls import sioux_falls_trip_table

    locations = (10, 16, 17)
    scenario = CityScenario(
        network=sioux_falls_network(),
        trip_table=sioux_falls_trip_table(),
        persistent_vehicles=150,
        transient_vehicles_per_period=800,
        rsu_locations=locations,
        seed=0,
    )
    summaries = scenario.run(3)
    periods = (0, 1, 2)
    records = sorted(
        scenario.server.store.all_records(),
        key=lambda record: (record.location, record.period),
    )
    return {
        "encounters": [summary.encounters for summary in summaries],
        "records": [
            {
                "location": record.location,
                "period": record.period,
                "size": record.size,
                "ones": record.bitmap.ones(),
                "payload_sha256": _sha256(record.to_payload()),
            }
            for record in records
        ],
        "queries": {
            location: {
                "actual": scenario.truth.point_persistent(location, periods),
                "estimate": scenario.server.point_persistent(
                    PointPersistentQuery(location=location, periods=periods)
                ),
            }
            for location in locations
        },
    }


def sharded_upload() -> dict:
    """Seeded uploads through a 2-shard in-process coordinator."""
    from repro.faults.transport import frame_payload
    from repro.rsu.record import TrafficRecord
    from repro.server.sharded.coordinator import (
        LocalShardBackend,
        ShardedCoordinator,
    )
    from repro.server.sharded.engine import ShardEngine
    from repro.sketch.bitmap import Bitmap

    rng = np.random.default_rng(SEED)
    locations = (1, 2, 3, 4)
    periods = (0, 1, 2, 3)
    size = 4096
    records = []
    for location in locations:
        common = rng.integers(0, size, size=200)
        for period in periods:
            bitmap = Bitmap(size)
            bitmap.set_many(common)
            bitmap.set_many(rng.integers(0, size, size=1200))
            records.append(TrafficRecord(location, period, bitmap))
    coordinator = ShardedCoordinator(
        {shard: LocalShardBackend(ShardEngine(shard_id=shard)) for shard in (0, 1)}
    )
    try:
        acks = [
            coordinator.ingest_frame(frame_payload(record.to_payload()))[
                "outcome"
            ]
            for record in records
        ]
        retry = coordinator.ingest_frame(frame_payload(records[0].to_payload()))
        merged = coordinator.multi_point_persistent(locations, periods)
    finally:
        coordinator.close()
    return {
        "payload_sha256": [_sha256(record.to_payload()) for record in records],
        "acks": acks,
        "retry": retry["outcome"],
        "outcomes": [
            {
                "location": outcome.location,
                "shard": outcome.shard,
                "estimate": outcome.result.value,
                "covered": outcome.result.coverage.covered,
            }
            for outcome in merged.outcomes
        ],
    }


def compute() -> Dict[str, object]:
    """Every pinned output, in a JSON-ready form."""
    return _plain(
        {
            "fig4": fig4_points(),
            "table1": table1_column(),
            "simulate": simulate_run(),
            "sharded": sharded_upload(),
        }
    )


def render(outputs: Dict[str, object]) -> str:
    """The golden file's exact text."""
    return json.dumps(outputs, indent=1, sort_keys=True) + "\n"


def main() -> int:
    GOLDEN_PATH.write_text(render(compute()))
    print(f"wrote {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
