"""Traced stand-in for ``python -m fcopt.cli``, used by the cli-cold trace.

usage: python -X importtime perfbench/cli_child.py STATS_JSON [fcopt args]

Imports ``fcopt.cli`` (timed by ``-X importtime`` on stderr), runs its
``main`` under the tracer, writes the tracer's stats to STATS_JSON and
exits with main's exit code.
"""

import json
import sys

from tracer import Tracer


def main():
    stats_path, argv = sys.argv[1], sys.argv[2:]
    import fcopt.cli
    tracer = Tracer()
    tracer.install()
    try:
        return fcopt.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(stats_path, "w") as fh:
            json.dump(tracer.to_dict(), fh)


if __name__ == "__main__":
    sys.exit(main())
