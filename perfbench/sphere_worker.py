"""Sphere objective served over the adadgs line protocol.

Reads "H <d>" (answers "OK") and "E <x1> ... <xd>" (answers the value of
sum x_i^2 with round-trip formatting) on stdin, one request per line.
When stdin closes it writes the number of evaluations it answered to
COUNT_FILE, so the caller can check its own accounting. Pure Python on
purpose: the time is spent on the pipe, not on arithmetic.

    python3 sphere_worker.py COUNT_FILE
"""

import sys


def main(count_file: str) -> int:
    dim = None
    count = 0
    for line in sys.stdin:
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "H" and len(parts) == 2:
            dim = int(parts[1])
            print("OK", flush=True)
        elif parts[0] == "E":
            xs = [float(v) for v in parts[1:]]
            if len(xs) != dim:
                print(f"ERR expected {dim} coordinates, got {len(xs)}", flush=True)
                continue
            count += 1
            print(repr(sum(v * v for v in xs)), flush=True)
        else:
            print(f"ERR unknown request {parts[0]!r}", flush=True)
    with open(count_file, "w") as fh:
        fh.write(f"{count}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
