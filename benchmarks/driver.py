"""Thin driver that runs one decentsim CLI invocation for the benchmark.

Usage: python3 benchmarks/driver.py MARK MODE SUBCOMMAND [CLI ARGS...]

The driver wraps ``decentsim.cli.parse_config`` and writes the
``time.perf_counter()`` reading taken when it returns to the file MARK, so
the benchmark can split the invocation into set-up (process start,
imports, config resolution) and the rest.  MODE is one of

- ``run``: run the invocation through ``decentsim.cli.main``;
- ``setup``: stop right after the configuration is resolved;
- ``trace=PATH``: like ``run``, with the tracer installed, writing the
  spans and counts to PATH at exit.
"""

from __future__ import annotations

import sys
import time


class _SetupDone(Exception):
    pass


def main() -> int:
    mark_path, mode, *argv = sys.argv[1:]
    from decentsim import cli

    tracer = None
    if mode.startswith("trace="):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    resolve = cli.parse_config
    marks: list[float] = []

    def parse_config(*args, **kwargs):
        config = resolve(*args, **kwargs)
        marks.append(time.perf_counter())
        if mode == "setup":
            raise _SetupDone
        return config

    cli.parse_config = parse_config
    try:
        code = cli.main(argv)
    except _SetupDone:
        code = 0
    with open(mark_path, "w", encoding="utf-8") as handle:
        handle.write(repr(marks[0]) if marks else "")
    if tracer is not None:
        tracer.dump(mode[len("trace="):])
    return code


if __name__ == "__main__":
    sys.exit(main())
