"""``python perfbench/traced_serve.py serve ...``: the tier with layer spans.

Importing this module wraps the tier's layer functions (see
:mod:`spans`).  The ``spawn`` start method re-imports the launching
``__main__`` module in every shard worker, so the wrappers reach the
workers too; only the launching process runs ``repro.cli.main``.
"""

import sys

import spans

spans.install_tier()

if __name__ == "__main__":
    from repro.cli import main

    sys.exit(main(sys.argv[1:]))
