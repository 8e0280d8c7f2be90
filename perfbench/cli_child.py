"""Run one gsdenoise command line under the benchmark's tracer.

    python3 cli_child.py SPANS_JSON GSDENOISE_ARGS...

The traced counterpart of ``python3 -m gsdenoise GSDENOISE_ARGS...``: it
wraps the same functions as a traced benchmark run, runs the command, and
writes the spans to SPANS_JSON for the parent to merge into its own trace.
"""

import sys

import gsdenoise.cli

from spans import Tracer


def main():
    tracer = Tracer()
    tracer.install(traced=True)
    code = gsdenoise.cli.main(sys.argv[2:])
    tracer.dump(sys.argv[1])
    return code


if __name__ == "__main__":
    sys.exit(main())
