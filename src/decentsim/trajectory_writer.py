"""Trajectory CSV writer: formats the blocks ``decentsim simulate`` streams
to it and appends them to its CSV files, beside the stepping loop.

Usage: python -I trajectory_writer.py N_NODES PATH [PATH ...]

The script first writes a ``step,ratio,beta_1,...`` header line to each
PATH.  Standard input then holds blocks.  Each is a ``HEAD`` count of
steps, a native 64-bit int, then that many rows of native float64
values, each row holding one record per PATH in order: the power ratio,
then the N_NODES fractions.  A record becomes the line
``step,repr(ratio),repr(beta_1),...`` ended by CRLF, its steps numbered
from 0 across blocks.  A record whose bytes equal its file's previous
record reuses that record's text, so each distinct record is formatted
once.  Each block is read whole before it is formatted, so the sender
goes on while this script formats; each PATH is opened once per block,
appended to and closed, so no more than one is open at a time.  The
script exits 0 at the end of its input; on an OSError, or input that
ends inside a block, it prints one line to stderr and exits 1.
It imports only the standard library, so that it starts in milliseconds.
"""

import sys
from struct import Struct

HEAD = Struct("q")
TRUNCATED = "input ends inside a block"
# floats of one file formatted at a time, rounded down to whole steps but
# at least one: it bounds the strings held
CHUNK_FLOATS = 2**14


def write_blocks(n_nodes: int, paths: list[str]) -> None:
    width = n_nodes + 1
    stride = len(paths) * width
    chunk = max(1, CHUNK_FLOATS // width)
    header = ",".join(["step", "ratio"] + [f"beta_{i + 1}" for i in range(n_nodes)]) + "\r\n"
    for path in paths:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(header)
    stdin = sys.stdin.buffer
    step = 0
    # each file's previous record as raw bytes (not floats: -0.0 == 0.0
    # prints differently) and text; powers never fall, so a state the run
    # has left never comes back and no older record is worth keeping
    last = [(b"", "")] * len(paths)
    while head := stdin.read(HEAD.size):
        if len(head) < HEAD.size:
            raise EOFError(TRUNCATED)
        (steps,) = HEAD.unpack(head)
        data = stdin.read(steps * stride * 8)
        if len(data) < steps * stride * 8:
            raise EOFError(TRUNCATED)
        values = memoryview(data).cast("d")
        for file, path in enumerate(paths):
            record, text = last[file]
            with open(path, "a", encoding="utf-8", newline="") as handle:
                for first in range(0, steps, chunk):
                    starts = range(first * stride + file * width,
                                   min(first + chunk, steps) * stride, stride)
                    lines = []
                    for n, start in enumerate(starts, step + first):
                        raw = data[8 * start:8 * (start + width)]
                        if raw != record:
                            record, text = raw, ",".join(map(repr, values[start:start + width]))
                        lines.append(f"{n},{text}\r\n")
                    handle.write("".join(lines))
            last[file] = record, text
        step += steps


if __name__ == "__main__":
    try:
        write_blocks(int(sys.argv[1]), sys.argv[2:])
    except (OSError, EOFError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        sys.exit(1)
