"""The benchmark's system process: builds, trains and serves KBQA.

``run.py`` starts it as ``python3 perfbench/launcher.py --scale default
--trace 0|1 --out DIR`` with ``src`` on ``PYTHONPATH``.  It does what
``kbqa serve`` does by default (one process, thread executor, in-memory
backend, fallback lane off): ``build_suite``, ``KBQA.train``, then a
``BackgroundServer`` on an ephemeral port.  It then takes commands, one JSON
object per line on stdin, and answers each with one JSON line on the
protocol channel (the original stdout; anything the program itself prints
goes to stderr).

With ``--trace 1`` the layer wrappers of :mod:`spans` are installed here,
inside the process that holds the system, before the suite is built.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import sys
import time
from collections import defaultdict
from contextlib import nullcontext

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from loadgen import percentile  # noqa: E402
from oracle import NO_REMOVALS, TripleWalker, judge  # noqa: E402
from spans import Tracer  # noqa: E402

# The knowledge base, corpus and QALD sets are one fixed world (the seed
# every document of the repository quotes); the run's --seed drives the
# request streams instead, so set-up and training time the same inputs on
# every run.
WORLD_SEED = 7
QALD_SETS = ("qald1", "qald3", "qald5")
HUB_PREDICATES = frozenset({"name", "alias", "category"})
MIN_TIMED_PASSES = 3


def protocol_channel():
    """The original stdout as the reply channel; fd 1 then points at
    stderr, so nothing the program prints can corrupt a reply."""
    channel = os.fdopen(os.dup(1), "w", buffering=1)
    os.dup2(2, 1)
    return channel


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fields(result) -> tuple:
    """``(answered, entity, predicate, values)`` of an ``AnswerResult``, as
    an HTTP payload carries them."""
    predicate = str(result.predicate) if result.predicate is not None else None
    return result.answered, result.entity, predicate, result.values


class CacheCounters:
    """Accumulates the answerer's LRU counters across ``clear_caches()``,
    which resets them."""

    def __init__(self) -> None:
        self.acc: dict[str, int] = defaultdict(int)
        self.clears = 0

    def before_clear(self, args) -> None:
        self.clears += 1
        for key, value in args[0].cache_info().items():
            if key.endswith(("_hits", "_misses")):
                self.acc[key] += value

    def current(self, answerer) -> dict[str, int]:
        now = dict(self.acc)
        for key, value in answerer.cache_info().items():
            if key.endswith(("_hits", "_misses")):
                now[key] = now.get(key, 0) + value
        now["clears"] = self.clears
        return now


class Launcher:
    def __init__(self, scale: str, trace: bool, out_dir: str) -> None:
        self.scale = scale
        self.out_dir = out_dir
        self.tracer = Tracer() if trace else None
        self.cache = CacheCounters()
        self.marks: dict[str, dict] = {}
        self.train_stats: dict[str, float] = {}
        self.walker: TripleWalker | None = None

    # -- Wrappers -------------------------------------------------------------

    def install(self, group: str) -> None:
        tracer = self.tracer
        if tracer is None or tracer.installed(group):
            return
        import importlib

        import repro.core.learner as learner
        import repro.suite as suite_module
        from repro.core.decompose import PatternStatistics
        from repro.core.kbview import KBView
        from repro.core.online import OnlineAnswerer
        from repro.core.system import KBQA
        from repro.kb.live import LiveExpansionMaintainer
        from repro.kb.store import TripleStore
        from repro.nlp.ner import EntityRecognizer
        from repro.taxonomy.conceptualizer import Conceptualizer

        patch = tracer.patch
        if group == "setup":
            patch(group, suite_module, "build_world", "setup.world")
            patch(group, suite_module, "compile_freebase_like", "setup.kb_compile")
            patch(group, suite_module, "compile_dbpedia_like", "setup.kb_compile")
            patch(group, suite_module, "generate_corpus", "setup.corpus")
        elif group == "train":
            stats = self.train_stats
            patch(group, learner, "EntityRecognizer", "train.ner_build")
            patch(group, learner, "collect_seed_entities", "train.seeds")
            patch(group, learner, "expand_predicates", "train.expansion")
            patch(group, learner, "ValueIndex", "train.value_index")
            patch(group, learner, "extract_observations", "train.extraction")
            patch(group, learner.OfflineLearner, "_encode_candidates", "train.encode")
            patch(
                group, learner, "run_em", "train.em",
                before=lambda args: stats.__setitem__("candidates", args[0].n_candidates),
            )
            patch(group, learner.OfflineLearner, "_build_model", "train.model_build")
            patch(group, PatternStatistics, "from_corpus", "train.pattern_stats")
            patch(group, KBQA, "__init__", "train.system_init")
        elif group == "cache":
            # stays on while "layers" is toggled: clear_caches() resets
            # the LRU counters, so every clear must be seen
            patch(
                group, OnlineAnswerer, "clear_caches", "online.clear_caches",
                before=self.cache.before_clear,
            )
        elif group == "layers":
            # tokenize is imported by name into each module that calls it
            for module_name in (
                "repro.nlp.tokenizer", "repro.nlp", "repro.nlp.ner",
                "repro.nlp.question_class", "repro.core.learner",
                "repro.core.extraction", "repro.core.online", "repro.core.decompose",
                "repro.core.template", "repro.serve.async_answerer",
            ):
                module = importlib.import_module(module_name)
                if hasattr(module, "tokenize"):
                    patch(group, module, "tokenize", "nlp.tokenize")
            patch(group, EntityRecognizer, "find_mentions", "nlp.ner")
            patch(group, Conceptualizer, "conceptualize", "taxonomy.conceptualize")
            patch(group, KBView, "values", "kb.values")
            patch(group, OnlineAnswerer, "_answer_tokens", "online.evaluate")
            patch(group, LiveExpansionMaintainer, "refresh_seed", "kb.live_refresh")
            patch(group, TripleStore, "add", "kb.write")
            patch(group, TripleStore, "delete", "kb.write")
            patch(group, KBQA, "add_fact", "kb.mutation", keep_durations=True)
            patch(group, KBQA, "delete_fact", "kb.mutation", keep_durations=True)

    def span(self, name: str):
        return nullcontext() if self.tracer is None else self.tracer.span(name)

    # -- Set-up -----------------------------------------------------------------

    def setup(self) -> dict:
        self.install("setup")
        from repro.core.system import KBQA
        from repro.serve import BackgroundServer, ServeConfig
        from repro.suite import build_suite

        with self.span("setup.build_suite"):
            self.suite = build_suite(self.scale, seed=WORLD_SEED)
        self.install("train")
        self.install("cache")
        # the layer wrappers go on after build_suite: compiling the KB adds
        # every triple through the store method they time
        self.install("layers")
        if self.tracer is not None:
            self.cmd_mark("train_start")
        started = time.perf_counter()
        with self.span("train"):
            self.system = KBQA.train(
                self.suite.freebase, self.suite.corpus, self.suite.conceptualizer
            )
        train_s = time.perf_counter() - started
        if self.tracer is not None:
            self.cmd_mark("train_end")
        # `kbqa serve` defaults: thread executor, 2 workers, coalescing on
        self.server = BackgroundServer(self.system, ServeConfig(executor="thread"))
        self.server.__enter__()
        self.base_triples = len(self.suite.freebase.store)
        learn = self.system.learn_result
        self.train_stats.update(
            em_iterations=learn.em.iterations,
            observations=learn.n_observations,
            expanded_triples=len(learn.expanded) if learn.expanded is not None else 0,
        )
        return {
            "event": "ready",
            "port": self.server.server.port,
            "train_s": train_s,
        }

    # -- Commands -----------------------------------------------------------------

    def cmd_inputs(self, path: str) -> dict:
        """Write the generated-input material the load generator draws from:
        the distinct corpus question pool, gold facts to delete and restore,
        and the QALD questions."""
        suite = self.suite
        kb = suite.freebase
        store = kb.store
        self.pool = sorted(set(suite.corpus.questions()))
        self.pool_gold: dict[str, list[frozenset[str]]] = defaultdict(list)
        targets = []
        seen = set()
        for pair in suite.corpus:
            meta = pair.meta
            if meta.get("kind") != "factoid":
                continue
            self.pool_gold[pair.question].append(frozenset(meta["values"]))
            predicate = kb.expected_path(meta["intent"]).predicates[0]
            if predicate in HUB_PREDICATES:
                continue
            objects = sorted(store.objects(meta["entity"], predicate))
            if not objects:
                continue
            triple = (meta["entity"], predicate, objects[0])
            if triple in seen:
                continue
            seen.add(triple)
            targets.append(
                {"triple": triple, "question": pair.question, "gold": meta["values"]}
            )
        self.targets = targets
        self.qald = [
            {"question": q.question, "gold": sorted(q.gold_values), "bfq": q.is_bfq}
            for name in QALD_SETS
            for q in suite.benchmark(name).questions
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"pool": self.pool, "targets": targets, "qald": self.qald}, handle)
        return {"pool": len(self.pool), "targets": len(targets), "qald": len(self.qald)}

    def _walker(self) -> TripleWalker:
        if self.walker is None:
            self.walker = TripleWalker.from_store(self.suite.freebase.store)
        return self.walker

    def cmd_offline(self, seconds: float, seed: int, chunk: int, alternate: bool) -> dict:
        """In-process answering: one warm-up pass, then timed passes over
        the whole pool, each starting with ``clear_caches()``; with
        ``alternate`` every other pass runs with the layer wrappers off."""
        system = self.system
        walker = self._walker()
        order = list(self.pool)
        random.Random(seed).shuffle(order)
        chunks = [order[i : i + chunk] for i in range(0, len(order), chunk)]
        violations: list[str] = []

        def one_pass(traced: bool) -> tuple[float, list[float]]:
            if self.tracer is not None:
                (self.install if traced else self.tracer.unpatch)("layers")
            latencies = []
            results = []
            started = time.perf_counter()
            system.answerer.clear_caches()
            for batch in chunks:
                t0 = time.perf_counter()
                results.extend(system.answer_many(batch))
                latencies.append(time.perf_counter() - t0)
            duration = time.perf_counter() - started
            for result in results:
                if not walker.consistent(*fields(result)):
                    violations.append(result.question)
            self.last_results = results
            return duration, latencies

        tracing = self.tracer is not None
        one_pass(traced=tracing)  # warm-up, untimed
        traced_questions = len(order) if tracing else 0
        quality = {"right": 0, "wrong": 0, "abstained": 0}
        for result in self.last_results:
            self._tally(quality, result.question, result.answered, result.values)
        deadline = time.perf_counter() + seconds
        passes = {"untraced": [], "traced": []}
        latencies: list[float] = []
        n = 0
        while n < MIN_TIMED_PASSES or time.perf_counter() < deadline:
            traced = tracing and (not alternate or n % 2 == 1)
            duration, lat = one_pass(traced)
            passes["traced" if traced else "untraced"].append(duration)
            if not traced:
                latencies.extend(lat)
            traced_questions += len(order) if traced else 0
            n += 1
        if tracing:
            self.install("layers")
            traced_questions += len(self.qald)
        qald = self._judge_qald(
            [fields(r) for r in system.answer_many([q["question"] for q in self.qald])],
            violations,
        )
        return {
            "pool": len(order),
            "chunk": chunk,
            "passes": passes,
            "latency_p50_s": percentile(latencies, 50),
            "latency_p99_s": percentile(latencies, 99),
            "latency_samples": len(latencies),
            "answered_ops": len(order) * (n + 1),
            "traced_questions": traced_questions,
            "violations": len(violations),
            "violation_examples": violations[:5],
            "quality": quality,
            "qald": qald,
        }

    def _tally(self, quality: dict, question: str, answered: bool, values) -> None:
        """Count one distinct pool question as right, wrong or abstained
        against the gold of every corpus pair that asks it."""
        if not answered:
            quality["abstained"] += 1
        elif any(judge(values, gold) for gold in self.pool_gold[question]):
            quality["right"] += 1
        else:
            quality["wrong"] += 1

    def _judge_qald(self, answers: list[tuple], violations: list[str]) -> dict:
        """#ri/#pro/#BFQ of the pooled QALD sets against world gold."""
        walker = self._walker()
        counts = {"ri": 0, "pro": 0, "bfq": 0, "total": len(answers)}
        for (answered, entity, predicate, values), q in zip(answers, self.qald):
            if not walker.consistent(answered, entity, predicate, values):
                violations.append(q["question"])
            counts["bfq"] += q["bfq"]
            if answered:
                counts["pro"] += 1
                counts["ri"] += judge(values, q["gold"])
        return counts

    def cmd_trace(self, on: bool) -> dict:
        if self.tracer is not None:
            (self.install if on else self.tracer.unpatch)("layers")
        return {"trace": on}

    def cmd_clear(self) -> dict:
        self.system.answerer.clear_caches()
        return {"cleared": True}

    def cmd_mark(self, name: str) -> dict:
        """Snapshot the span sums and cache counters; phases are the
        differences between marks."""
        system = getattr(self, "system", None)
        entry = {"cache": self.cache.current(system.answerer) if system else {}}
        if self.tracer is not None:
            entry["totals"] = self.tracer.totals()
        self.marks[name] = entry
        return {"mark": name, "rss_mb": rss_mb()}

    def cmd_verify(self, log_paths: list[str]) -> dict:
        """Check every logged HTTP answer against the raw-triple walk of
        the KB states it may have seen, and the freshness rules of the
        delete/restore cycles."""
        walker = TripleWalker.from_store(self.suite.freebase.store)
        report = {
            "checked": 0, "violations": 0, "freshness_violations": 0,
            "restore_violations": 0, "examples": [],
            "restored": walker.n_triples == self.base_triples,
        }
        quality = {"right": 0, "wrong": 0, "abstained": 0}
        judged: set[str] = set()
        qald_answers: list[tuple] = []
        for path in log_paths:
            with open(path, encoding="utf-8") as handle:
                log = json.load(handle)
            states = [NO_REMOVALS]
            for op, target in log["writes"]:
                triple = tuple(self.targets[target]["triple"])
                if op == "delete":
                    states.append(states[-1] | {triple})
                else:
                    states.append(states[-1] - {triple})
            if states[-1]:
                report["restored"] = False
            cycles: dict[int, dict[str, bool]] = defaultdict(dict)
            for kind, ref, c_send, s_recv, body in log["answers"]:
                answer = json.loads(body)
                entity, predicate = answer["entity"], answer["predicate"]
                values, answered = answer["values"], answer["answered"]
                seen = states[c_send : s_recv + 1]
                report["checked"] += 1
                if not walker.consistent(answered, entity, predicate, values, seen):
                    report["violations"] += 1
                    if len(report["examples"]) < 5:
                        report["examples"].append(answer)
                if kind == "read":
                    question = self.pool[ref]
                    if question not in judged:
                        judged.add(question)
                        self._tally(quality, question, answered, values)
                elif kind == "qald":
                    qald_answers.append((answered, entity, predicate, values))
                else:
                    # probes: kind is "pre:<cycle>", "deleted:<cycle>" or
                    # "restored:<cycle>"; the write before a probe has
                    # returned and the next is not yet sent, so the probe
                    # saw exactly one state
                    phase, cycle = kind.split(":")
                    right = answered and judge(values, self.targets[ref]["gold"])
                    cycles[int(cycle)][phase] = right
                    if c_send != s_recv:
                        report["freshness_violations"] += 1
            for phases in cycles.values():
                if phases.get("pre") and not phases.get("restored"):
                    report["restore_violations"] += 1
        report["quality"] = quality
        if qald_answers:
            qald_violations: list[str] = []
            report["qald"] = self._judge_qald(qald_answers, qald_violations)
            report["violations"] += len(qald_violations)
        return report

    def cmd_report(self) -> dict:
        out = {"train": dict(self.train_stats)}
        if self.tracer is not None:
            out["marks"] = self.marks
            out["mutation_s"] = self.tracer.durations.get("kb.mutation", [])
        return out

    def cmd_stop(self) -> dict:
        self.server.__exit__(None, None, None)
        spans = 0
        if self.tracer is not None:
            self.tracer.unpatch_all()
            spans = self.tracer.dump(os.path.join(self.out_dir, "spans.bin"))
        return {"stopped": True, "spans": spans}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", default="default", choices=("small", "default"))
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    channel = protocol_channel()

    def reply(payload: dict) -> None:
        channel.write(json.dumps(payload) + "\n")

    launcher = Launcher(args.scale, bool(args.trace), args.out)
    reply(launcher.setup())
    for line in sys.stdin:
        command = json.loads(line)
        name = command.pop("cmd")
        result = getattr(launcher, f"cmd_{name}")(**command)
        reply(result)
        if name == "stop":
            break
    return 0


if __name__ == "__main__":
    sys.exit(main())
