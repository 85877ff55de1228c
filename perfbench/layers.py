"""Per-layer metrics of a traced run, derived from span sums and counters.

Phases are differences between the launcher's marks: ``train_start`` and
``train_end`` bracket ``KBQA.train``; ``window_start``/``window_end``
bracket the measured window; ``end`` follows the post-window probes.  The
layer wrappers are off during the untraced half of a traced window, so span
sums over a phase cover its traced part only, and per-request ratios divide
by the requests of that part.
"""

from __future__ import annotations

import statistics

TRAIN_STAGES = (
    "train.ner_build", "train.seeds", "train.expansion", "train.value_index",
    "train.extraction", "train.encode", "train.em", "train.model_build",
    "train.pattern_stats", "train.system_init",
)


def histogram_p50(before: dict, after: dict, stage: str) -> float:
    """Median of the samples a stage histogram gained between two states
    (upper bound of the bucket holding it)."""
    old = dict(before["buckets"].get(stage, []))
    new = after["buckets"].get(stage, [])
    delta = [(bound, count - old.get(bound, 0)) for bound, count in new]
    if not delta or delta[-1][1] <= 0:
        return 0.0
    half = delta[-1][1] / 2.0
    return next(bound for bound, cumulative in delta if cumulative >= half)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(*, offline, windows, probes, report, state_start, state_end,
                  quality) -> dict[str, float]:
    """Every per-layer metric of BENCHMARK.json, by name."""
    marks = report["marks"]

    def delta(start: str, end: str, name: str) -> tuple[int, float]:
        zero = (0, 0.0, 0.0)
        a = marks[start]["totals"].get(name, zero)
        b = marks[end]["totals"].get(name, zero)
        return b[0] - a[0], b[1] - a[1]

    def total(mark: str, name: str) -> float:
        return marks[mark]["totals"].get(name, (0, 0.0, 0.0))[1]

    values: dict[str, float] = {}
    setup_parts = {
        "setup.world_s": total("train_start", "setup.world"),
        "setup.kb_compile_s": total("train_start", "setup.kb_compile"),
        "setup.corpus_s": total("train_start", "setup.corpus"),
    }
    values.update(setup_parts)
    values["setup.rest_s"] = total("train_start", "setup.build_suite") - sum(setup_parts.values())

    train_wall = delta("train_start", "train_end", "train")[1]
    stage_sum = 0.0
    for stage in TRAIN_STAGES:
        seconds = delta("train_start", "train_end", stage)[1]
        values[stage + "_s"] = seconds
        stage_sum += seconds
    values["train.coverage"] = _ratio(stage_sum, train_wall)
    train = report["train"]
    values["train.em_iterations"] = train["em_iterations"]
    values["train.observations"] = train["observations"]
    values["train.candidates"] = train.get("candidates", 0)
    values["kb.expanded_triples"] = train["expanded_triples"]
    values["nlp.tokenize_calls_train"] = delta("train_start", "train_end", "nlp.tokenize")[0]

    # requests answered while the wrappers were on, in the window
    if offline is not None:
        requests = offline["traced_questions"]
    else:
        traced = windows[-1]
        requests = traced["attempted"] - traced["writes"]
    values["nlp.tokenize_calls_per_request"] = _ratio(
        delta("window_start", "window_end", "nlp.tokenize")[0], requests
    )
    for metric, span in (
        ("nlp.tokenize", "nlp.tokenize"), ("nlp.ner", "nlp.ner"),
        ("taxonomy.conceptualize", "taxonomy.conceptualize"), ("kb.values", "kb.values"),
    ):
        calls, seconds = delta("train_start", "end", span)
        values[metric + "_s"] = seconds
        if metric != "nlp.tokenize":
            values[metric + "_calls"] = calls

    cache_a, cache_b = marks["window_start"]["cache"], marks["window_end"]["cache"]

    def hit_ratio(prefix: str) -> float:
        hits = cache_b.get(prefix + "_hits", 0) - cache_a.get(prefix + "_hits", 0)
        misses = cache_b.get(prefix + "_misses", 0) - cache_a.get(prefix + "_misses", 0)
        return _ratio(hits, hits + misses)

    values["online.ner_cache_hit_ratio"] = hit_ratio("ner")
    values["online.concept_cache_hit_ratio"] = hit_ratio("concepts")
    values["online.evaluated_per_request"] = _ratio(
        delta("window_start", "window_end", "online.evaluate")[0], requests
    )
    values["online.cache_clears"] = cache_b["clears"] - cache_a["clears"]

    # serving stages over the window and the probes, from /stats and /metrics
    values["serve.queue_wait_p50_ms"] = histogram_p50(state_start, state_end, "queue_wait")
    values["serve.eval_p50_ms"] = histogram_p50(state_start, state_end, "evaluate")
    values["serve.total_p50_ms"] = histogram_p50(state_start, state_end, "total")
    client_ms = [x for run in list(windows) + list(probes) for x in run["answer_ms"]]
    values["serve.transport_p50_ms"] = (
        statistics.median(client_ms) - values["serve.total_p50_ms"] if client_ms else 0.0
    )
    s0, s1 = state_start["stats"], state_end["stats"]
    values["serve.batch_mean"] = _ratio(
        s1["evaluated"] - s0["evaluated"], s1["batches"] - s0["batches"]
    )
    values["serve.coalesced"] = s1["coalesced"] - s0["coalesced"]
    values["serve.stale_retries"] = s1["stale_retries"] - s0["stale_retries"]

    # writes made while the wrappers were on: the traced window half and
    # the probes
    values["kb.write_s"] = delta("window_start", "end", "kb.write")[1]
    values["kb.live_refresh_s"] = delta("window_start", "end", "kb.live_refresh")[1]
    mutations = delta("window_start", "end", "kb.mutation")[0]
    values["kb.seeds_refreshed_per_write"] = _ratio(
        delta("window_start", "end", "kb.live_refresh")[0], mutations
    )
    client_writes = [x for run in ([windows[-1]] if windows else []) + list(probes)
                     for x in run["write_ms"]]
    mutation_ms = [1000.0 * x for x in report["mutation_s"][-len(client_writes):]] \
        if client_writes else []
    waits = [c - m for c, m in zip(client_writes, mutation_ms)]
    values["serve.apply_wait_ms"] = statistics.median(waits) if waits else 0.0

    runs = list(windows) + list(probes)
    values["loadgen.cpu_s"] = sum(run["cpu_s"] for run in runs)
    values["loadgen.connections"] = max(run["connections"] for run in runs)

    if offline is not None:
        passes = offline["passes"]
        values["trace.overhead"] = _ratio(
            statistics.median(passes["traced"]), statistics.median(passes["untraced"])
        ) - 1.0
    else:
        untraced, traced = windows[0], windows[-1]
        values["trace.overhead"] = _ratio(
            statistics.median(untraced["qps_chunks"]), statistics.median(traced["qps_chunks"])
        ) - 1.0
    values["quality.right"] = quality["right"]
    values["quality.wrong"] = quality["wrong"]
    values["quality.abstained"] = quality["abstained"]
    return values
