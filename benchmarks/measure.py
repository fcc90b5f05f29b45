"""Closed-loop measurement, the traced run and the counter self-test."""

from __future__ import annotations

import gc
import math
import resource
import statistics
import time

import geograms.engine as engine
from geograms.engine import RunTrace
from geograms.errors import GeogramsError

from tracer import Tracer
from workloads import results_agree, returned_paths

# The machine's speed drifts by up to a third within seconds, so every
# timing is the fastest of several: a run sends each request of its batch
# PASSES times, a pass apart, and takes set-up and write samples all
# through the run; each figure is built from the fastest times.
PASSES = 3
SLICE_S = 1.0  # wall time between two set-up samples
SETUP_SAMPLE_S = 0.12  # a set-up sample repeats set-up until it takes about this long
WRITE_SHARE = 0.2  # share of the measured time spent in write samples
SAMPLE_EVERY = 40  # every n-th engine.run of the traced pass is replayed by the self-test
TAIL_BEYOND = 10


def tail(latencies: list) -> tuple:
    """The highest percentile with at least ``TAIL_BEYOND`` samples beyond it.

    That is the ``TAIL_BEYOND + 1``-th largest sample, at percentile
    ``100 * (1 - TAIL_BEYOND / n)``; it moves smoothly with the sample count
    ``n``, unlike a fixed ladder of percentiles.
    """
    ordered = sorted(latencies)
    beyond = min(TAIL_BEYOND, len(ordered) - 1)
    return 100.0 * (1 - beyond / len(ordered)), ordered[-beyond - 1], beyond


class Outcome:
    """What a batch of requests did: answers, fastest latencies and failures.

    The first send of a request checks its answer against the oracle; each
    later send checks it against the first answer, and keeps the fastest
    latency seen.
    """

    def __init__(self):
        self.requests = []  # requests answered correctly on their first send
        self.answers = []
        self.best = []  # fastest latency of each of them
        self.attempted = 0
        self.failed = 0
        self.failures = []  # (label, reason) of the first few failures

    def send(self, request, tracer=None) -> float:
        """Send a request for the first time, check its answer untimed, and return its latency."""
        answer, latency = self._call(request)
        if answer is None:
            return latency
        if tracer is not None:
            tracer.paused = True
        try:
            agrees = request.check(answer)
        finally:
            if tracer is not None:
                tracer.paused = False
        if not agrees:
            self._fail(request.label, "answer disagrees with the oracle")
            return latency
        self.requests.append(request)
        self.answers.append(answer)
        self.best.append(latency)
        return latency

    def resend(self, index: int) -> float:
        """Send the ``index``-th answered request again and return its latency."""
        request = self.requests[index]
        answer, latency = self._call(request)
        if answer is None:
            return latency
        if not same_answer(answer, self.answers[index]):
            self._fail(request.label, "answer differs from the first answer")
        elif latency < self.best[index]:
            self.best[index] = latency
        return latency

    def _call(self, request) -> tuple:
        self.attempted += 1
        start = time.perf_counter()
        try:
            answer = request.call()
        except GeogramsError as exc:
            self._fail(request.label, f"{type(exc).__name__}: {exc}")
            answer = None
        return answer, time.perf_counter() - start

    def _fail(self, label: str, reason: str):
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append((label, reason))


def same_answer(a, b) -> bool:
    return a == b if isinstance(a, frozenset) else results_agree(a, b)


def round_trip_failures(pairs) -> int:
    return sum(1 for encoded, direct in pairs if not results_agree(encoded, direct))


def timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def sample(repeats: int, fn, *args) -> float:
    """Mean duration of ``repeats`` calls of ``fn``, as if in a process of its own.

    Garbage left by earlier requests is collected first, and every object
    alive at the start, the benchmark's own included, is frozen out of the
    collector's view for the sample: the collections ``fn`` triggers then
    scan only what ``fn`` allocates, as they would in a fresh process.
    """
    gc.collect()
    gc.freeze()
    try:
        start = time.perf_counter()
        for _ in range(repeats):
            fn(*args)
        return (time.perf_counter() - start) / repeats
    finally:
        gc.unfreeze()


def untraced(workload, seconds: float) -> tuple:
    """Untraced run: end-to-end metrics.

    One set-up and one write run first, untimed, as warm-up.  Then a batch
    of ``workload.batch_size(seconds)`` requests is sent ``PASSES`` times,
    and each request's fastest latency counts.  Every ``SLICE_S`` of wall
    time between two requests a set-up sample is taken, and a write sample
    whenever writes have taken less than ``WRITE_SHARE`` of the time so far.
    """
    state, warm = timed(workload.setup)
    reloaded = workload.write(state)
    round_trip_failed = round_trip_failures(workload.round_trip(state, reloaded))
    setup_repeats = max(1, math.ceil(SETUP_SAMPLE_S / warm))
    stream = workload.requests(state, reloaded)
    batch = [next(stream) for _ in range(workload.batch_size(seconds))]

    outcome = Outcome()
    setup_times, write_times = [], []
    busy = 0.0
    started = next_sample = time.perf_counter()

    def between_requests():
        nonlocal next_sample
        now = time.perf_counter()
        if now < next_sample:
            return
        setup_times.append(sample(setup_repeats, workload.setup))
        if sum(write_times) <= WRITE_SHARE * (now - started):
            write_times.append(sample(1, workload.write, state))
        gc.collect()
        next_sample = time.perf_counter() + SLICE_S

    for request in batch:
        between_requests()
        busy += outcome.send(request)
    for _ in range(PASSES - 1):
        for index in range(len(outcome.requests)):
            between_requests()
            busy += outcome.resend(index)
    wall = time.perf_counter() - started

    latencies = outcome.best
    pairs = sum(r.pairs for r in outcome.requests)
    path_answers = [(a, t) for r, a, t in zip(outcome.requests, outcome.answers, latencies) if r.returns_paths]
    paths = sum(returned_paths(a) for a, _ in path_answers)
    p, tail_value, beyond = tail(latencies)
    metrics = {
        "setup_s": (min(setup_times), "s"),
        "write_s": (min(write_times), "s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_tail_ms": (tail_value * 1e3, "ms"),
        "pairs_per_s": (pairs / sum(latencies), "1/s"),
        "paths_per_s": (paths / sum(t for _, t in path_answers), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    details = {
        "error_rate": outcome.failed / outcome.attempted,
        "latency_tail_percentile": p,
        "latency_tail_samples_beyond": beyond,
        "requests": len(batch),
        "passes": PASSES,
        "request_s": busy,
        "loop_wall_s": wall,
        "pairs": pairs,
        "paths": paths,
        "setup_samples": len(setup_times),
        "setup_repeats_per_sample": setup_repeats,
        "write_samples": len(write_times),
        "round_trip_failed": round_trip_failed,
        "failures": outcome.failures,
    }
    return metrics, outcome, round_trip_failed == 0, details


def fixed_pass(workload, tracer=None) -> tuple:
    """Set-up, write, round trip and a fixed number of requests, timed call by call."""
    busy = 0.0
    state, elapsed = timed(workload.setup)
    busy += elapsed
    reloaded, elapsed = timed(workload.write, state)
    busy += elapsed
    pairs, elapsed = timed(workload.round_trip, state, reloaded)
    busy += elapsed
    if tracer is not None:
        tracer.paused = True
    round_trip_failed = round_trip_failures(pairs)
    if tracer is not None:
        tracer.paused = False
    outcome = Outcome()
    stream = workload.requests(state, reloaded)
    for _ in range(workload.TRACED_REQUESTS):
        busy += outcome.send(next(stream), tracer)
    return busy, outcome, round_trip_failed == 0, state


def self_test(tracer) -> list:
    """Replay sampled runs with the engine's own RunTrace and compare counters."""
    tracer.sample_every = 0  # the replays themselves are not sampled
    problems = []
    for args, kwargs, recorded in tracer.samples:
        trace = RunTrace()
        before = tracer.engine_counts()
        try:
            engine.run(*args, **{**kwargs, "trace": trace})
        except GeogramsError:
            pass
        now = tracer.engine_counts()
        measured = tuple(b - a for a, b in zip(before, now))
        own = (trace.raw_candidates, len(trace.generations))
        if measured != own or measured != recorded:
            problems.append({"outside": measured, "engine": own, "first_pass": recorded})
    return problems


def traced(workload, spans_file) -> tuple:
    """Traced run: per-layer metrics, tracing overhead and the counter self-test.

    The fixed pass runs untraced before and after the traced pass; the
    overhead is taken against their mean, so that warm-up in the first
    pass does not count as negative overhead.
    """
    before, _, _, state = fixed_pass(workload)
    tracer = Tracer(sample_every=SAMPLE_EVERY)
    tracer.install()
    try:
        busy, outcome, round_trip_ok, _ = fixed_pass(workload, tracer)
        layer = tracer.layer_metrics()
        uncovered = 1.0 - tracer.root_time / busy
        tracer.write_spans(spans_file)
        problems = self_test(tracer)
    finally:
        tracer.uninstall()
    after = fixed_pass(workload)[0]
    untraced_busy = (before + after) / 2
    metrics = dict(layer)
    metrics["trace.overhead_s"] = (busy - untraced_busy, "s")
    metrics["trace.uncovered_share"] = (uncovered, "ratio")
    metrics["trace.selftest_runs"] = (len(tracer.samples), "count")
    details = {
        "traced_busy_s": busy,
        "untraced_busy_s": [before, after],
        "spans": len(tracer.spans),
        "selftest_problems": problems,
        "failures": outcome.failures,
        "properties": workload.properties(state),
    }
    return metrics, outcome, round_trip_ok and not problems and tracer.samples != [], details
