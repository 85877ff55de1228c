"""Self-tests of the benchmark's own checking code.

    python3 perfbench/selftest.py

* the oracle walks a hand-built toy KB to the known answer, under removal
  overlays too;
* the launcher's verification counts a stale answer after a delete and a
  lost answer after a restore as failures;
* the load generator counts non-200 responses as failed operations
  (against a stub HTTP server on localhost).

Needs no ``src``: the system under test is replaced by stubs.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import threading
import unittest
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from types import SimpleNamespace

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from launcher import Launcher  # noqa: E402
from loadgen import LoadGenerator  # noqa: E402
from oracle import TripleWalker, judge  # noqa: E402

# a person married through a CVT mediator, plus one literal fact
TOY = [
    ("m.ann", "name", '"ann'),
    ("m.bob", "name", '"bob'),
    ("m.ann", "marriage", "cvt.1"),
    ("cvt.1", "person", "m.bob"),
    ("cvt.1", "date", '"1990'),
    ("m.ann", "population", '"42'),
]
SPOUSE = "marriage->person->name"


class ToyStore:
    def __init__(self, triples) -> None:
        self.rows = list(triples)

    def triples(self):
        return [SimpleNamespace(subject=s, predicate=p, object=o) for s, p, o in self.rows]

    def __len__(self) -> int:
        return len(self.rows)


def answer(values, entity="m.ann", predicate=SPOUSE) -> str:
    return json.dumps({
        "answered": bool(values), "values": values,
        "entity": entity if values else None,
        "predicate": predicate if values else None,
    })


class OracleTest(unittest.TestCase):
    def test_walk_follows_the_raw_triples(self):
        walker = TripleWalker(TOY)
        self.assertEqual(walker.walk("m.ann", SPOUSE), {"bob"})
        self.assertEqual(walker.walk("m.ann", "population"), {"42"})
        self.assertEqual(walker.walk("m.bob", SPOUSE), frozenset())

    def test_removal_overlay(self):
        walker = TripleWalker(TOY)
        removed = frozenset({("m.ann", "marriage", "cvt.1")})
        self.assertEqual(walker.walk("m.ann", SPOUSE, removed), frozenset())
        self.assertTrue(walker.consistent(True, "m.ann", SPOUSE, ["bob"]))
        self.assertFalse(walker.consistent(True, "m.ann", SPOUSE, ["bob"], [removed]))
        self.assertTrue(
            walker.consistent(True, "m.ann", SPOUSE, ["bob"], [removed, frozenset()])
        )
        self.assertTrue(walker.consistent(False, None, None, [], [removed]))
        self.assertFalse(walker.consistent(True, None, SPOUSE, ["bob"]))

    def test_judge_is_case_blind_and_needs_gold(self):
        self.assertTrue(judge(["Bob"], ["bob"]))
        self.assertFalse(judge(["bob", "ann"], ["bob"]))
        self.assertFalse(judge([], []))


class VerifyTest(unittest.TestCase):
    """The launcher's verification over a hand-written load-generator log."""

    def verify(self, answers) -> dict:
        launcher = Launcher("small", trace=False, out_dir=tempfile.gettempdir())
        launcher.suite = SimpleNamespace(freebase=SimpleNamespace(store=ToyStore(TOY)))
        launcher.base_triples = len(TOY)
        launcher.pool = ["who is ann married to?"]
        launcher.pool_gold = {"who is ann married to?": [frozenset({"bob"})]}
        launcher.qald = []
        launcher.targets = [{
            "triple": ["m.ann", "marriage", "cvt.1"],
            "question": "who is ann married to?", "gold": ["bob"],
        }]
        log = {"writes": [["delete", 0], ["add", 0]], "answers": answers}
        with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as handle:
            json.dump(log, handle)
        try:
            return launcher.cmd_verify([handle.name])
        finally:
            os.unlink(handle.name)

    def test_fresh_cycle_passes(self):
        report = self.verify([
            ["pre:1", 0, 0, 0, answer(["bob"])],
            ["deleted:1", 0, 1, 1, answer([])],
            ["read", 0, 1, 2, answer(["bob"])],  # in flight across the restore
            ["restored:1", 0, 2, 2, answer(["bob"])],
        ])
        self.assertEqual(
            (report["violations"], report["restore_violations"]), (0, 0), report
        )
        self.assertTrue(report["restored"])

    def test_stale_answer_after_delete_fails(self):
        report = self.verify([
            ["pre:1", 0, 0, 0, answer(["bob"])],
            ["deleted:1", 0, 1, 1, answer(["bob"])],  # the deleted fact, served
            ["restored:1", 0, 2, 2, answer(["bob"])],
        ])
        self.assertEqual(report["violations"], 1, report)

    def test_read_that_saw_no_write_in_flight_is_held_to_its_state(self):
        report = self.verify([["read", 0, 1, 1, answer(["bob"])]])
        self.assertEqual(report["violations"], 1, report)

    def test_answer_lost_after_restore_fails(self):
        report = self.verify([
            ["pre:1", 0, 0, 0, answer(["bob"])],
            ["deleted:1", 0, 1, 1, answer([])],
            ["restored:1", 0, 2, 2, answer([])],
        ])
        self.assertEqual(report["restore_violations"], 1, report)


class StubHandler(BaseHTTPRequestHandler):
    """Answers /answer with the toy spouse answer, except every third
    request, which gets a 503."""

    protocol_version = "HTTP/1.1"
    count = 0
    lock = threading.Lock()

    def do_POST(self) -> None:
        self.rfile.read(int(self.headers["Content-Length"]))
        with StubHandler.lock:
            StubHandler.count += 1
            status = 503 if StubHandler.count % 3 == 0 else 200
        body = answer(["bob"]).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args) -> None:
        pass


class LoadGeneratorTest(unittest.TestCase):
    def test_non_200_counts_as_failed(self):
        server = ThreadingHTTPServer(("127.0.0.1", 0), StubHandler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        with tempfile.TemporaryDirectory() as tmp:
            inputs = os.path.join(tmp, "inputs.json")
            with open(inputs, "w", encoding="utf-8") as handle:
                json.dump({"pool": ["q0"], "targets": [], "qald": [
                    {"question": f"q{i}", "gold": ["bob"], "bfq": True} for i in range(9)
                ]}, handle)
            spec = {
                "port": server.server_address[1], "mode": "probe", "seed": 1,
                "inputs": inputs, "out": os.path.join(tmp, "log.json"),
                "connections": 1, "qald": True, "probe_cycles": 0,
            }
            try:
                summary = LoadGenerator(spec).run()
            finally:
                server.shutdown()
                server.server_close()
                thread.join(timeout=10)
            with open(spec["out"], encoding="utf-8") as handle:
                log = json.load(handle)
        self.assertFalse(thread.is_alive())
        self.assertEqual(summary["attempted"], 9)
        self.assertEqual(summary["failed"], 3)
        self.assertEqual(summary["errors"], {"http_503": 3})
        self.assertEqual(len(log["answers"]), 6)


if __name__ == "__main__":
    unittest.main()
