"""Run one spintops CLI command in this fresh interpreter with every layer
traced, then dump the spans and the import time of `spintops.cli`.

    python3 perfbench/cli_child.py SPANS.npz run --model ... (CLI arguments)

The exit code and output are those of `spintops.cli.main`; an uncaught
exception leaves with a traceback and exit code 1, as the real CLI does.
"""

import importlib
import sys
import time


def main() -> int:
    t0 = time.perf_counter()
    cli = importlib.import_module("spintops.cli")
    import_s = time.perf_counter() - t0

    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(sys.argv[2:])
    finally:
        tracer.uninstall()
        tracer.dump(sys.argv[1], import_s=import_s)


if __name__ == "__main__":
    sys.exit(main())
