"""KBQA end-to-end benchmark.

    python3 perfbench/run.py --workload offline|serve_rw \\
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --quick      # every workload, small scale

Run from the root of a checkout.  One run starts the system process
(``launcher.py``: build_suite, KBQA.train, the HTTP server), measures the
workload for ``--seconds``, checks every answer against the independent
oracle (``oracle.py``) and prints, as its last stdout line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  Load comes
from ``loadgen.py`` in a separate process.  See README.md for what each
workload and metric is for.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import http.client  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import selectors  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from layers import layer_metrics  # noqa: E402
from loadgen import percentile  # noqa: E402

WORKLOADS = ("offline", "serve_rw")
OFFLINE_CHUNK = 64  # questions per answer_many call in the offline stream
ZIPF_S = 1.0
WARMUP_S = 1.0
TRACE_WARMUP_S = 3.0
WRITE_EVERY = 100  # connection-0 reads between writer steps on serve_rw
PROBE_CYCLES = 40  # delete/restore cycles after the offline window
MAX_CONNECTIONS = 4
SETUP_TIMEOUT_S = 150.0
COMMAND_TIMEOUT_S = 120.0


class BenchError(RuntimeError):
    """The run could not finish; no result is printed."""


def median(values):
    return statistics.median(values) if values else 0.0


class SystemProcess:
    """The launcher subprocess and its JSON-lines command channel."""

    def __init__(self, scale: str, trace: int, out_dir: str) -> None:
        env = dict(os.environ)
        src = os.path.join(ROOT, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "launcher.py"),
             "--scale", scale, "--trace", str(trace), "--out", out_dir],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT, env=env, text=True,
        )
        self.selector = selectors.DefaultSelector()
        self.selector.register(self.proc.stdout, selectors.EVENT_READ)

    def receive(self, timeout: float) -> dict:
        if not self.selector.select(timeout):
            raise BenchError(f"system process silent for {timeout:.0f} s")
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"system process exited with code {self.proc.wait()}")
        return json.loads(line)

    def call(self, cmd: str, timeout: float = COMMAND_TIMEOUT_S, **params) -> dict:
        self.proc.stdin.write(json.dumps({"cmd": cmd, **params}) + "\n")
        self.proc.stdin.flush()
        return self.receive(timeout)

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self.call("stop", timeout=60.0)
            except (BenchError, OSError, ValueError):
                pass
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.selector.close()


def fetch(port: int, path: str) -> str:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.read().decode()
    finally:
        conn.close()


def server_state(port: int) -> dict:
    """Serving counters (/stats) and stage histograms (/metrics)."""
    stats = json.loads(fetch(port, "/stats"))["serve"]
    buckets: dict[str, list[tuple[float, int]]] = {}
    for line in fetch(port, "/metrics").splitlines():
        if line.startswith("kbqa_stage_latency_ms_bucket{"):
            labels, value = line[len("kbqa_stage_latency_ms_bucket{"):].split("} ")
            parts = dict(item.split("=") for item in labels.split(","))
            bound = parts["le"].strip('"')
            buckets.setdefault(parts["stage"].strip('"'), []).append(
                (float("inf") if bound == "+Inf" else float(bound), int(float(value)))
            )
    return {"stats": stats, "buckets": buckets}


class Run:
    def __init__(self, args) -> None:
        self.args = args
        self.workload = args.workload
        self.trace = args.trace
        self.out_dir = os.path.join(
            ROOT, ".perfbench_out",
            f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}",
        )
        os.makedirs(self.out_dir, exist_ok=True)
        self.loadgen_runs: list[dict] = []
        self.logs: list[str] = []

    def loadgen(self, port: int, mode: str, **spec) -> dict:
        name = f"loadgen-{len(self.loadgen_runs)}-{mode}"
        spec.update(
            port=port, mode=mode, seed=self.args.seed,
            inputs=os.path.join(self.out_dir, "inputs.json"),
            out=os.path.join(self.out_dir, name + ".json"),
            connections=min(len(os.sched_getaffinity(0)), MAX_CONNECTIONS),
            zipf_s=ZIPF_S,
        )
        spec_path = os.path.join(self.out_dir, name + ".spec.json")
        with open(spec_path, "w", encoding="utf-8") as handle:
            json.dump(spec, handle)
        timeout = spec.get("warmup_s", 0) + spec.get("seconds", 0) + 120
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "loadgen.py"), spec_path],
            cwd=ROOT, timeout=timeout,
        )
        if done.returncode != 0:
            raise BenchError(f"load generator exited with code {done.returncode}")
        with open(spec["out"] + ".summary", encoding="utf-8") as handle:
            summary = json.load(handle)
        summary["mode"] = mode
        self.loadgen_runs.append(summary)
        self.logs.append(spec["out"])
        return summary

    def execute(self) -> dict:
        args = self.args
        system = SystemProcess(args.scale, self.trace, self.out_dir)
        try:
            ready = system.receive(SETUP_TIMEOUT_S)
            setup_s = time.perf_counter() - PROCESS_START
            port = ready["port"]
            system.call("inputs", path=os.path.join(self.out_dir, "inputs.json"))
            system.call("mark", name="window_start")
            state_start = server_state(port)
            offline = None
            windows: list[dict] = []
            if self.workload == "offline":
                offline = system.call(
                    "offline", seconds=args.seconds, seed=args.seed,
                    chunk=OFFLINE_CHUNK, alternate=bool(self.trace),
                )
            else:
                if self.trace:
                    # half the window with the layer wrappers off, half on,
                    # each from cold answer caches, after an untraced pass
                    # that builds what the system keeps across cache clears
                    # (the ranked θ arrays): the difference is the overhead
                    system.call("trace", on=False)
                    self.loadgen(port, "warmup", warmup_s=TRACE_WARMUP_S)
                    for on in (False, True):
                        system.call("trace", on=on)
                        system.call("clear")
                        windows.append(self.loadgen(
                            port, "window", warmup_s=WARMUP_S,
                            seconds=args.seconds / 2.0, write_every=WRITE_EVERY,
                        ))
                else:
                    windows.append(self.loadgen(
                        port, "window", warmup_s=WARMUP_S,
                        seconds=float(args.seconds), write_every=WRITE_EVERY,
                    ))
            system.call("mark", name="window_end")
            cycles = sum(w["cycles"] for w in windows)
            self.loadgen(
                port, "probe", cycle_offset=cycles,
                probe_cycles=PROBE_CYCLES if offline is not None else 0,
                qald=offline is None,
            )
            state_end = server_state(port)
            peak_rss_mb = system.call("mark", name="end")["rss_mb"]
            verify = system.call("verify", log_paths=self.logs)
            report = system.call("report")
            stopped = system.call("stop", timeout=60.0)
        finally:
            system.close()
            # keep only the span file: inputs and logs are megabytes a run
            for name in os.listdir(self.out_dir):
                if name != "spans.bin":
                    os.unlink(os.path.join(self.out_dir, name))
            if not os.listdir(self.out_dir):
                os.rmdir(self.out_dir)
        return self.result(
            setup_s, ready["train_s"], peak_rss_mb, offline,
            windows, verify, report, stopped, state_start, state_end,
        )

    def result(self, setup_s, train_s, peak_rss_mb, offline, windows, verify, report,
               stopped, state_start, state_end) -> dict:
        runs = self.loadgen_runs
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        failed += verify["violations"] + verify["restore_violations"]
        failed += verify["freshness_violations"]
        write_ms = [x for r in runs for x in r["write_ms"]]
        if offline is not None:
            attempted += offline["answered_ops"] + offline["qald"]["total"]
            failed += offline["violations"]
            qald = offline["qald"]
            passes = offline["passes"]["untraced"] or offline["passes"]["traced"]
            answer_qps = offline["pool"] / median(passes)
            p50_ms = 1000.0 * offline["latency_p50_s"]
            p99_ms = 1000.0 * offline["latency_p99_s"]
            quality = offline["quality"]
        else:
            qald = verify["qald"]
            timed = windows[0]
            answer_qps = median(timed["qps_chunks"])
            p50_ms = percentile(timed["latency_ms"], 50)
            p99_ms = median(timed["p99_runs_ms"])
            quality = verify["quality"]
        summary = {
            "workload": self.workload, "seed": self.args.seed,
            "quality": quality, "qald": qald,
            "oracle_checked": verify["checked"] + (offline["answered_ops"] if offline else 0),
            "errors": {k: v for r in runs for k, v in r["errors"].items()},
            "violation_examples": verify["examples"] + (
                offline["violation_examples"] if offline else []),
            "spans_written": stopped.get("spans", 0),
        }
        if self.trace:
            # calls, total seconds and self seconds of every span name
            summary["spans"] = {
                name: [calls, round(total, 6), round(own, 6)]
                for name, (calls, total, own) in report["marks"]["end"]["totals"].items()
            }
        print(json.dumps(summary))
        correct = bool(verify["restored"]) and qald["pro"] > 0
        values = {
            "setup_s": setup_s,
            "train_s": train_s,
            "answer_qps": answer_qps,
            "answer_p50_ms": p50_ms,
            "answer.p99_ms": p99_ms,
            "write_p50_ms": median(write_ms),
            "qald_precision": qald["ri"] / qald["pro"] if qald["pro"] else 0.0,
            "qald_recall_bfq": qald["ri"] / qald["bfq"] if qald["bfq"] else 0.0,
            "peak_rss_mb": peak_rss_mb,
        }
        if self.trace:
            values.update(layer_metrics(
                offline=offline, windows=windows,
                probes=[r for r in runs if r["mode"] == "probe"],
                report=report, state_start=state_start, state_end=state_end,
                quality=quality,
            ))
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            declared = json.load(handle)["per_layer" if self.trace else "end_to_end"]
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
        return {"correct": correct, "attempted": attempted, "failed": failed,
                "metrics": metrics}


def quick() -> int:
    """Every workload at small scale with short windows (a smoke run)."""
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            started = time.perf_counter()
            done = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", workload,
                 "--seed", "1", "--seconds", "2", "--trace", str(trace),
                 "--scale", "small"],
                cwd=ROOT, capture_output=True, text=True, timeout=300,
            )
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if done.returncode == 0 and lines else None
            ok = bool(result and result["correct"] and result["failed"] == 0)
            status |= not ok
            print(f"{workload:<11} trace={trace} {'ok ' if ok else 'BAD'} "
                  f"{time.perf_counter() - started:5.1f}s "
                  + (json.dumps(result["metrics"]) if result else done.stderr[-2000:]))
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description="KBQA end-to-end benchmark")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("small", "default"), default="default")
    parser.add_argument("--quick", action="store_true",
                        help="run every workload at small scale and report pass/fail")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("run.py: no src/repro in this checkout; nothing to measure", file=sys.stderr)
        return 2
    if args.quick:
        return quick()
    if args.workload is None:
        parser.error("--workload is required")
    try:
        result = Run(args).execute()
    except (BenchError, subprocess.TimeoutExpired, OSError) as error:
        print(f"run.py: {error}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
