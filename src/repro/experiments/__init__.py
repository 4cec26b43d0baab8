"""Experiment harness: one module per table/figure in the paper.

Each experiment module exposes ``run_*`` (compute) and ``format_*``
(render a paper-style text artifact).  The registry below is what the
CLI dispatches on::

    python -m repro table1 --runs 10
    python -m repro fig4
    python -m repro all

Every experiment returns plain dataclasses, so notebooks and tests can
consume the numbers directly.
"""

__all__ = ["EXPERIMENTS", "run_experiment"]


def __getattr__(name):
    # The registry imports every figure and table module, and through
    # them the traffic, analysis and privacy packages; loading it only
    # when asked keeps ``repro.experiments.common`` light to import.
    if name in __all__:
        from repro.experiments import registry

        return getattr(registry, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
