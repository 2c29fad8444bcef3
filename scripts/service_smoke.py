#!/usr/bin/env python3
"""The analysis service's smoke stream, and a client for sestd --socket.

    scripts/service_smoke.py requests > service_reqs.jsonl
    scripts/service_smoke.py socket PATH service_reqs.jsonl > responses.jsonl

`requests` writes the scripted request stream: eight requests, then the
same eight again, so the second half is answered warm. The first seven
are over tools/testdata/smoke.mc; the seventh feeds read_int an
out-of-range integer, so a sanitized sestd parses it as a client would
send it. The eighth estimates a program whose branch condition negates
INT64_MIN, which branch prediction constant-folds, so a sanitized sestd
folds that wrapping negation too. `socket` replays a stream over a
`sestd --socket PATH` (waiting up to 10 s for it to listen), writes one
response line per request to stdout, then sends a shutdown request so
the server exits. The answers must be byte-identical to the stdio front
end's.
"""

import json
import socket
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def requests():
    src = (ROOT / "tools" / "testdata" / "smoke.mc").read_text()
    reqs = [
        {"id": 1, "op": "parse", "source": src},
        {"id": 2, "op": "estimate", "source": src},
        {"id": 3, "op": "estimate", "source": src,
         "options": {"intra": "markov", "inter": "markov"}},
        {"id": 4, "op": "estimate", "source": src, "blocks": True},
        {"id": 5, "op": "optimize", "source": src, "passes": "all"},
        {"id": 6, "op": "report", "source": src, "input": "12"},
        {"id": 7, "op": "report", "source": src,
         "input": "-9223372036854775808"},
        {"id": 8, "op": "estimate", "source":
         "int main() {\n  int i;\n  i = read_int();\n"
         "  if (i < -(-9223372036854775807 - 1))\n    return 1;\n"
         "  return 0;\n}\n"},
    ]
    for r in reqs + reqs:  # the second half replays warm
        sys.stdout.write(json.dumps(r) + "\n")


def connect(path):
    deadline = time.monotonic() + 10
    while True:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            sock.connect(path)
            return sock
        except OSError:
            sock.close()
            if time.monotonic() > deadline:
                sys.exit(f"service_smoke: nothing listens on {path}")
            time.sleep(0.05)


def replay(path, stream):
    lines = [l for l in Path(stream).read_bytes().split(b"\n") if l.strip()]
    sock = connect(path)
    # Send from a second thread so neither side can block the other on
    # a full socket buffer.
    sender = threading.Thread(
        target=sock.sendall, args=(b"".join(l + b"\n" for l in lines),))
    sender.start()
    answers = sock.makefile("rb")
    for _ in lines:
        line = answers.readline()
        if not line:
            sys.exit("service_smoke: sestd closed the connection early")
        sys.stdout.buffer.write(line)
    sender.join()
    sock.sendall(b'{"op":"shutdown"}\n')
    answers.readline()
    sock.close()


def main():
    if sys.argv[1:2] == ["requests"] and len(sys.argv) == 2:
        requests()
    elif sys.argv[1:2] == ["socket"] and len(sys.argv) == 4:
        replay(sys.argv[2], sys.argv[3])
    else:
        sys.exit(__doc__)


if __name__ == "__main__":
    main()
