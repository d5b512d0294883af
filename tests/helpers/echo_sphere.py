"""Reference external objective: sphere function over the line protocol.

Modes (argv[1], default "ok"):
  ok            - answer correctly
  garbled       - reply "abc" to evaluation requests
  bad-handshake - reply "NOPE" to the handshake
  exit-at-handshake - exit without replying to the handshake
  hang-at-handshake - never reply to the handshake
  err           - reply "ERR simulated failure" to evaluation requests
  hang          - never reply to evaluation requests

When argv[2] names a file, the number of evaluations answered is written
to it once stdin closes.
"""

import sys
import time


def main() -> int:
    mode = sys.argv[1] if len(sys.argv) > 1 else "ok"
    dim = None
    count = 0
    for line in sys.stdin:
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "H":
            if mode == "exit-at-handshake":
                return 1
            if mode == "hang-at-handshake":
                time.sleep(3600)
            dim = int(parts[1])
            print("NOPE" if mode == "bad-handshake" else "OK", flush=True)
        elif parts[0] == "E":
            if mode == "hang":
                time.sleep(3600)
            if mode == "garbled":
                print("abc", flush=True)
                continue
            if mode == "err":
                print("ERR simulated failure", flush=True)
                continue
            xs = [float(v) for v in parts[1:]]
            if dim is not None and len(xs) != dim:
                print(f"ERR expected {dim} coordinates, got {len(xs)}", flush=True)
                continue
            count += 1
            print(repr(sum(v * v for v in xs)), flush=True)
    if len(sys.argv) > 2:
        with open(sys.argv[2], "w") as fh:
            fh.write(f"{count}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
