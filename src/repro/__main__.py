"""``python -m repro`` — dispatch to the CLI.

The ``spawn`` start method re-runs this module as ``__mp_main__`` in
every shard worker, so the CLI (and the experiment modules it loads)
is imported only when this module runs as the main program.
"""

import sys

if __name__ == "__main__":
    from repro.cli import main

    sys.exit(main())
