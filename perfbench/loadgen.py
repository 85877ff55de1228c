"""Closed-loop HTTP load generator: stdlib sockets, one process.

Usage: ``python3 perfbench/loadgen.py SPEC.json``.  The spec names the
server port, the inputs file the launcher wrote (question pool, gold facts,
QALD questions), the output log and the traffic.  Each of ``connections``
keep-alive connections is a caller that sends its next request only after
the previous answer arrived (a closed loop).

``window`` mode sends a seeded Zipf-skewed stream over the question pool to
every connection for ``warmup_s + seconds``.  With ``write_every > 0``,
connection 0 also runs delete/restore cycles on gold facts, one step after
every ``write_every`` of its own reads:

    probe q_f ("pre"), POST /facts delete f, probe q_f ("deleted")
    ... reads ...
    POST /facts add f, probe q_f ("restored")

where ``q_f`` is the corpus question behind fact ``f``.  A cycle open at the
deadline is finished, so the KB ends as it started.  ``probe`` mode runs
``probe_cycles`` such cycles back to back on one connection, then (with
``qald``) asks every QALD question once.

The log (``out``) keeps every answer body with the write counters it was
sent and received under, for the launcher's oracle; ``out + ".summary"``
holds the counts, latencies and this process's CPU time.
"""

from __future__ import annotations

import bisect
import json
import random
import selectors
import socket
import sys
import time

HOST = "127.0.0.1"
# The timed reads' completions are cut into this many runs of equal count;
# throughput is reported per run, so one stall moves one value.
RATE_CHUNKS = 20
TAIL_RUNS = 5


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100])."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def zipf_stream(n: int, exponent: float, rng: random.Random):
    """Endless pool indices: rank r (over a seeded permutation) has weight
    1 / (r + 1) ** exponent."""
    order = list(range(n))
    rng.shuffle(order)
    cumulative = []
    total = 0.0
    for rank in range(n):
        total += 1.0 / (rank + 1) ** exponent
        cumulative.append(total)
    while True:
        yield order[min(bisect.bisect(cumulative, rng.random() * total), n - 1)]


def request_bytes(path: str, payload: dict) -> bytes:
    body = json.dumps(payload).encode()
    head = (
        f"POST {path} HTTP/1.1\r\nHost: {HOST}\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    )
    return head.encode() + body


def parse_response(buffer: bytearray) -> tuple[int, bytes, int] | None:
    """``(status, body, consumed)`` for one complete response, else None."""
    end = buffer.find(b"\r\n\r\n")
    if end < 0:
        return None
    head = bytes(buffer[:end]).decode("latin-1").split("\r\n")
    status = int(head[0].split(" ", 2)[1])
    length = 0
    for line in head[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    if len(buffer) < end + 4 + length:
        return None
    return status, bytes(buffer[end + 4 : end + 4 + length]), end + 4 + length


class Connection:
    def __init__(self, index: int, port: int) -> None:
        self.index = index
        self.port = port
        self.sock = socket.create_connection((HOST, port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buffer = bytearray()
        self.op: tuple | None = None
        self.sent_at = 0.0
        self.writes_done_at_send = 0
        self.queue: list[tuple] = []  # scheduled writer steps
        self.reads = 0

    def reconnect(self) -> None:
        self.sock.close()
        self.sock = socket.create_connection((HOST, self.port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buffer.clear()


class LoadGenerator:
    def __init__(self, spec: dict) -> None:
        self.spec = spec
        with open(spec["inputs"], encoding="utf-8") as handle:
            inputs = json.load(handle)
        self.pool = inputs["pool"]
        self.targets = inputs["targets"]
        self.qald = inputs["qald"]
        rng = random.Random(spec["seed"])
        self.stream = zipf_stream(len(self.pool), spec.get("zipf_s", 1.0), rng)
        if spec["mode"] == "probe" and spec.get("probe_cycles"):
            # the same evenly spaced facts on every seed (in seeded order):
            # a write's cost depends on the fact, and the probe takes few
            step = len(self.targets) / spec["probe_cycles"]
            self.target_order = [int(i * step) for i in range(spec["probe_cycles"])]
        else:
            self.target_order = list(range(len(self.targets)))
        random.Random(f"{spec['seed']}:{spec['mode']}").shuffle(self.target_order)
        self.next_target = 0
        self.cycle = spec.get("cycle_offset", 0)
        self.open_target: int | None = None
        self.writes_sent = 0
        self.writes_done = 0
        self.answers: list[list] = []
        self.writes: list[list] = []
        self.read_samples: list[tuple[float, float]] = []  # (done, latency)
        self.write_latencies: list[float] = []
        self.answer_latencies: list[float] = []
        self.errors: dict[str, int] = {}
        self.attempted = 0
        self.failed = 0

    # -- Scheduling -----------------------------------------------------------

    def _cycle_steps(self) -> list[tuple]:
        """The next half cycle of the writer: delete or restore."""
        if self.open_target is None:
            target = self.target_order[self.next_target % len(self.target_order)]
            self.next_target += 1
            self.open_target = target
            self.cycle += 1
            return [
                ("probe", target, f"pre:{self.cycle}"),
                ("write", target, "delete"),
                ("probe", target, f"deleted:{self.cycle}"),
            ]
        target, self.open_target = self.open_target, None
        return [("write", target, "add"), ("probe", target, f"restored:{self.cycle}")]

    def _next_op(self, conn: Connection, now: float) -> tuple | None:
        spec = self.spec
        if conn.queue:
            return conn.queue.pop(0)
        if spec["mode"] == "probe":
            return None
        past_deadline = now >= self.deadline
        if conn.index == 0 and spec.get("write_every", 0) > 0:
            if past_deadline:
                if self.open_target is not None:
                    conn.queue = self._cycle_steps()
                    return conn.queue.pop(0)
                return None
            if now >= self.warm_until and conn.reads >= spec["write_every"]:
                conn.reads = 0
                conn.queue = self._cycle_steps()
                return conn.queue.pop(0)
        if past_deadline:
            return None
        conn.reads += 1
        return ("read", next(self.stream), "read")

    def _send(self, conn: Connection, op: tuple) -> None:
        kind, ref, tag = op
        if kind == "write":
            subject, predicate, obj = self.targets[ref]["triple"]
            data = request_bytes(
                "/facts",
                {"op": tag, "subject": subject, "predicate": predicate, "object": obj},
            )
            self.writes_sent += 1
            self.writes.append([tag, ref])
        elif kind == "probe":
            data = request_bytes("/answer", {"question": self.targets[ref]["question"]})
        elif kind == "qald":
            data = request_bytes("/answer", {"question": self.qald[ref]["question"]})
        else:
            data = request_bytes("/answer", {"question": self.pool[ref]})
        conn.op = op
        conn.writes_done_at_send = self.writes_done
        self.attempted += 1
        conn.sent_at = time.perf_counter()
        conn.sock.sendall(data)

    def _complete(self, conn: Connection, status: int, body: bytes) -> None:
        now = time.perf_counter()
        kind, ref, tag = conn.op
        latency = now - conn.sent_at
        if kind == "write":
            self.writes_done += 1
            self.write_latencies.append(latency)
        if status != 200:
            self._fail(f"http_{status}")
        elif kind != "write":
            label = tag if kind == "probe" else kind
            self.answers.append(
                [label, ref, conn.writes_done_at_send, self.writes_sent, body.decode()]
            )
            self.answer_latencies.append(latency)
            if kind == "read" and conn.sent_at >= self.warm_until:
                self.read_samples.append((now, latency))
        conn.op = None

    def _fail(self, error: str) -> None:
        self.failed += 1
        self.errors[error] = self.errors.get(error, 0) + 1

    # -- Main loop ------------------------------------------------------------

    def run(self) -> dict:
        spec = self.spec
        cpu0 = time.process_time()
        n_conn = 1 if spec["mode"] == "probe" else spec["connections"]
        connections = [Connection(i, spec["port"]) for i in range(n_conn)]
        start = time.perf_counter()
        self.warm_until = start + spec.get("warmup_s", 0.0)
        self.deadline = self.warm_until + spec.get("seconds", 0.0)
        if spec["mode"] == "probe":
            for _ in range(spec.get("probe_cycles", 0)):
                connections[0].queue += self._cycle_steps() + self._cycle_steps()
            if spec.get("qald"):
                connections[0].queue += [("qald", i, "qald") for i in range(len(self.qald))]
        selector = selectors.DefaultSelector()
        active = 0
        for conn in connections:
            op = self._next_op(conn, start)
            if op is not None:
                selector.register(conn.sock, selectors.EVENT_READ, conn)
                self._send(conn, op)
                active += 1
        while active:
            for key, _ in selector.select(timeout=30.0) or [(None, None)]:
                if key is None:
                    raise TimeoutError("no response within 30 s")
                conn = key.data
                try:
                    chunk = conn.sock.recv(262144)
                except OSError as error:
                    chunk, failure = b"", type(error).__name__
                else:
                    failure = "connection_closed"
                if not chunk:
                    # the request in flight is lost; reconnect and go on
                    self._fail(failure)
                    if conn.op is not None and conn.op[0] == "write":
                        self.writes_done += 1
                    conn.op = None
                    selector.unregister(conn.sock)
                    conn.reconnect()
                    selector.register(conn.sock, selectors.EVENT_READ, conn)
                else:
                    conn.buffer += chunk
                    parsed = parse_response(conn.buffer)
                    if parsed is None:
                        continue
                    status, body, consumed = parsed
                    del conn.buffer[:consumed]
                    self._complete(conn, status, body)
                op = self._next_op(conn, time.perf_counter())
                if op is None:
                    selector.unregister(conn.sock)
                    conn.sock.close()
                    active -= 1
                else:
                    self._send(conn, op)
        selector.close()
        return self._summary(start, time.process_time() - cpu0, n_conn)

    def _summary(self, start: float, cpu_s: float, n_conn: int) -> dict:
        samples = self.read_samples
        latencies = sorted(latency for _, latency in samples)
        done = [t for t, _ in samples if t <= self.deadline]
        step = max(len(done) // RATE_CHUNKS, 1)
        rates = [
            step / (done[i + step] - done[i])
            for i in range(0, len(done) - step, step)
            if done[i + step] > done[i]
        ]
        with open(self.spec["out"], "w", encoding="utf-8") as handle:
            json.dump({"answers": self.answers, "writes": self.writes}, handle)
        # tail latency per run of consecutive timed reads, so one stall
        # moves one value of the median
        by_time = [latency for _, latency in samples]
        size = max(len(by_time) // TAIL_RUNS, 1)
        tails = [
            percentile(by_time[i : i + size], 99)
            for i in range(0, len(by_time) - size + 1, size)
        ]
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "errors": self.errors,
            "reads_timed": len(latencies),
            "latency_ms": [1000.0 * x for x in latencies],
            "p99_runs_ms": [1000.0 * x for x in tails],
            "qps_chunks": rates,
            "write_ms": [1000.0 * x for x in self.write_latencies],
            "answer_ms": [1000.0 * x for x in self.answer_latencies],
            "writes": len(self.writes),
            "cycles": self.cycle - self.spec.get("cycle_offset", 0),
            "cpu_s": cpu_s,
            "connections": n_conn,
            "wall_s": time.perf_counter() - start,
        }


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as handle:
        spec = json.load(handle)
    summary = LoadGenerator(spec).run()
    with open(spec["out"] + ".summary", "w", encoding="utf-8") as handle:
        json.dump(summary, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
