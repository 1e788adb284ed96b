"""The repository benchmark: served rewrites and repository updates.

Usage (from the checkout root)::

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 10 --trace 0

Workloads (all closed loops: a caller sends its next operation only
after the previous one returns):

``serve-hot``
    4 client threads post ``/rewrite`` over keep-alive HTTP to a server
    in its own process, repeating the three warmed requests of
    ``benchmarks/bench_serve.py`` (the paper's Q3, Q5 and Q7 over V1
    under its DTD), so every request is a session-memo hit.  Stresses
    the front end: HTTP framing, the flight recorder, the event loop,
    the worker pool, session acquire, memo lookup and serialization.
``serve-search``
    One client thread, posting Q3, Q5, Q7 and year filters over the
    cached per-conference statements of
    ``benchmarks/bench_cached_queries.py``, but no query repeats: each
    carries a fresh constant, so its canonical key is new and the memo
    is bypassed.  Stresses the Section 3.4 search: Step 1A mappings,
    1B enumeration, 1C chase and Step 2 compose/equivalence.
``repo-update``
    One caller drives the in-process ``Repository`` facade: queries
    answered from materialized views, from the query cache by
    rewriting, or by direct evaluation, interleaved with inserts that
    incremental maintenance must patch or invalidate.  The repository
    is rebuilt every ``EPISODE_OPS`` operations (``inputs.py``), so the
    run repeats one identical episode of operations; the first episode
    is not measured.

End-to-end metrics (``--trace 0``): median and 95th-percentile operation
latency and operations per second, and set-up time (for the served
workloads the median of five set-ups, three before and two after the
measured window; for ``repo-update`` one set-up per episode).  The host
runs in fast and slow phases, so each figure is taken from the run's
fastest eighth.  For ``serve-hot`` they are those of the requests
started in the fastest eighth of the window's time slices
(``_fast_slices``).  For ``repo-update`` an operation's latency, and the
set-up time, is the median of the fastest eighth of its episodes
(``_fast_phase``), and throughput is the episode's operations per
second of those latencies: checking answers and rebuilding between
operations is not timed.  ``serve-search`` is measured the same way
over the ``SEARCH_PERIOD`` requests after which its plan's families
repeat.

Per-layer metrics (``--trace 1``, a separate run): the mean self time
per operation of each layer, from the program's own trace spans plus
the few the benchmark adds for layers the program does not trace
(``layers.py``).  The span trees are validated, and a run whose spans
are open, outside their parent, overlapping, or out of order with the
caller's clock fails.

Every response is checked: rewritings against the expected rewriting
set of their family, repository answers against direct evaluation over
the same store, computed the first time their episode position answers.
"""

from __future__ import annotations

import argparse
import gc
import http.client
import itertools
import json
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import layers

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Client threads of serve-hot (``OVERHEAD_CLIENTS`` of
#: ``benchmarks/bench_serve.py``) and of serve-search (its one-client
#: level: a request's latency is then its own search, not its share of
#: the server's interpreter lock with other searches).
CLIENTS = 4
SEARCH_CLIENTS = 1
#: Set-ups before and after the measured window of an untraced served run
#: (the last one before it is measured).  ``setup_s`` is their median;
#: spreading them over the run samples the machine's slow and fast
#: phases alike.  Each set-up and the window start from a collected
#: heap, so garbage left by earlier phases is not charged to them.
SETUPS_BEFORE = 3
SETUPS_AFTER = 2
#: The figures of a run come from its fastest ``1 / FAST_SHARE`` of
#: repeats or time (``_fast_phase``, ``_fast_slices``).
FAST_SHARE = 8
#: Seconds per time slice of serve-hot's window (``_fast_slices``).
SLICE_S = 0.5

END_TO_END = {"p50_ms": "ms", "p95_ms": "ms", "throughput": "1/s",
              "setup_s": "s"}

#: Waterfall layers, outermost first (``layers.py`` says which spans
#: feed each).  ``client`` is the caller's latency outside the traced
#: work: its own code and, when served, loopback transport and the
#: server loop's delay in reading the request.
LAYERS = ("client", "http", "recorder", "loop", "queue", "handoff",
          "worker", "decode", "session", "memo", "canon", "serialize",
          "rewrite", "prepare", "mappings", "candidate", "chase", "minimize",
          "compose", "equivalence", "repository", "views", "cache",
          "evaluate", "maintenance", "store")
#: Work counts per operation: metric name -> span name.
COUNTED = {"mappings": "enumerate_mappings", "chase": "chase",
           "equivalence": "equivalence", "evaluate": "evaluate",
           "maintenance": "maintenance"}
#: Slack for comparing instants of one clock read in two processes.
CLOCK_SLACK_S = 1e-6


def _ms(ns: float) -> float:
    return ns / 1e6


# -- the served workloads ------------------------------------------------------

class ServerProcess:
    """``perfbench/server.py`` in a child process."""

    def __init__(self, trace: int) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "server.py"),
             "--trace", str(trace)],
            cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True)
        line = self.proc.stdout.readline()
        if not line.startswith("port "):
            self.kill()
            raise RuntimeError(f"server failed to start: {line!r}")
        self.port = int(line.split()[1])

    def stop(self, ids=None) -> dict:
        """Send the request ids to account for (traced runs), close
        stdin (the stop signal) and return the server's report."""
        out, _ = self.proc.communicate(
            input="" if ids is None else json.dumps(ids), timeout=60)
        return json.loads(out.strip().splitlines()[-1])

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=60)


def _post(conn: http.client.HTTPConnection, body: bytes, rid: str):
    conn.request("POST", "/rewrite", body=body, headers={
        "Content-Type": "application/json", "X-Repro-Request-Id": rid})
    response = conn.getresponse()
    return response.status, response.read()


def _start_server(trace: int, warmup) -> ServerProcess:
    """Start a server and send it the *warmup* requests."""
    server = ServerProcess(trace)
    try:
        conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                          timeout=60)
        for index, (family, constant) in enumerate(warmup):
            status, raw = _post(conn, family.payload(constant),
                                f"warm{index}")
            if status != 200:
                raise RuntimeError(f"warm-up request failed: {status} "
                                   f"{raw[:200]!r}")
        conn.close()
    except BaseException:
        server.kill()
        raise
    return server


def _client(port: int, plan, counter, deadline: int, records: list,
            distinct: bool) -> None:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        while time.perf_counter_ns() < deadline:
            index = next(counter)
            if distinct and index >= len(plan):
                break   # never repeat a key (the plan outlasts any run)
            family, constant = plan[index % len(plan)]
            body = family.payload(constant)
            start = time.perf_counter_ns()
            try:
                status, raw = _post(conn, body, f"r{index}")
            except (OSError, http.client.HTTPException) as exc:
                conn.close()
                status, raw = None, repr(exc).encode()
            records.append((index, start, time.perf_counter_ns(),
                            status, raw))
    finally:
        conn.close()


def _check_served(plan, records) -> tuple[bool, int, int]:
    """(all outputs correct, failed requests, memo hits)."""
    from repro.rewriting.canon import program_key
    from repro.tsl import parse_query
    failed = hits = 0
    wrong = []
    checked: dict = {}
    for index, _start, _end, status, raw in records:
        if status != 200:
            failed += 1
            continue
        family, constant = plan[index % len(plan)]
        cache_key = (family.name, constant, raw)
        if cache_key not in checked:
            body = json.loads(raw)
            key = program_key([parse_query(r["query"])
                               for r in body["rewritings"]])
            checked[cache_key] = (key == family.expected_key(constant),
                                  body["memo"] == "hit")
        ok, hit = checked[cache_key]
        hits += hit
        if not ok:
            wrong.append((family.name, constant))
    if wrong:
        print(f"wrong rewritings for {len(wrong)} request(s), first "
              f"{wrong[0]}", file=sys.stderr)
    return not wrong, failed, hits


def run_served(seed: int, seconds: int, trace: int, distinct: bool) -> dict:
    from inputs import HOT, SEARCH_PERIOD, families, hot_plan, search_plan
    family_list = families()
    if distinct:
        # One request per family prepares each view configuration.
        plan = search_plan(seed, 50000)
        warmup = [(family, family.warm) for family in family_list]
    else:
        plan = hot_plan(seed, 50000)
        warmup = [(family, constant) for family in family_list
                  for name, constant in HOT if family.name == name]
    setups: list[float] = []

    def set_up() -> ServerProcess:
        gc.collect()
        started = time.perf_counter()
        server = _start_server(trace, warmup)
        setups.append(time.perf_counter() - started)
        return server

    before, after = (1, 0) if trace else (SETUPS_BEFORE, SETUPS_AFTER)
    server = None
    try:
        for _ in range(before):
            if server is not None:
                server.kill()
            server = set_up()
        records: list = []
        counter = itertools.count()
        gc.collect()
        start = time.perf_counter_ns()
        deadline = start + seconds * 1_000_000_000
        threads = [threading.Thread(
            target=_client, args=(server.port, plan, counter, deadline,
                                  records, distinct))
            for _ in range(SEARCH_CLIENTS if distinct else CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        served = [f"r{index}" for index, _, _, status, _ in records
                  if status == 200]
        report = server.stop(served if trace else None)
        for _ in range(after):
            set_up().kill()
    finally:
        if server is not None:
            server.kill()

    correct, failed, hits = _check_served(plan, records)
    ok = len(records) - failed
    if not distinct and hits != ok:
        print(f"{ok - hits} warmed request(s) missed the memo",
              file=sys.stderr)
        correct = False
    result = {"correct": correct, "attempted": len(records),
              "failed": failed}
    if trace:
        waterfall = layers.Waterfall()
        vars(waterfall).update(report["waterfall"])
        total = 0.0
        for index, begin, end, status, _ in records:
            if status != 200:
                continue
            begin, end = begin / 1e9, end / 1e9
            if f"r{index}" not in report["timeline"]:
                continue   # the server has counted it as a problem
            read, written = report["timeline"][f"r{index}"]
            if read < begin - CLOCK_SLACK_S \
                    or written > end + CLOCK_SLACK_S:
                waterfall.problem(f"r{index}: served outside the call")
            waterfall.charge("client", end - begin - (written - read))
            total += end - begin
        result["metrics"] = _layer_metrics(waterfall, total, ok,
                                           reuse=hits / max(1, ok))
    elif distinct:
        # One client runs the plan in order, so a position of its
        # period is one identical search, as an episode position of
        # repo-update is one identical operation.
        by_position: list[list[int]] = [[] for _ in range(SEARCH_PERIOD)]
        for index, begin, end, status, _ in records:
            if status == 200:
                by_position[index % SEARCH_PERIOD].append(end - begin)
        typical = [_fast_phase(samples) for samples in by_position
                   if samples]
        result["metrics"] = _end_to_end(
            typical, len(typical) / (sum(typical) / 1e9),
            statistics.median(setups))
    else:
        latencies, throughput = _fast_slices(records, seconds)
        result["metrics"] = _end_to_end(latencies, throughput,
                                        statistics.median(setups))
    return result


def _fast_slices(records, seconds: int) -> tuple[list, float]:
    """Latencies of the served requests in the fastest part of the
    measured window, and their requests per second.

    The served requests, in the order they started, are cut into
    slices of equal count, one per ``SLICE_S`` seconds of the window; a
    slice lasts from its first start to the next slice's first start,
    and the fastest slices are the shortest.  This is
    :func:`_fast_phase` for a window of concurrent requests.
    """
    started = sorted((begin, end - begin)
                     for _, begin, end, status, _ in records
                     if status == 200)
    if len(started) < 2:
        raise RuntimeError(f"{len(started)} request(s) served")
    count = max(1, min(int(seconds / SLICE_S), len(started) - 1))
    size = (len(started) - 1) // count
    slices = [(started[(i + 1) * size][0] - started[i * size][0],
               started[i * size:(i + 1) * size]) for i in range(count)]
    fastest = sorted(slices, key=lambda s: s[0])
    fastest = fastest[:max(1, count // FAST_SHARE)]
    latencies = [latency for _, part in fastest for _, latency in part]
    return latencies, len(latencies) / (sum(s[0] for s in fastest) / 1e9)


# -- the repository workload ---------------------------------------------------

def run_repository(seed: int, seconds: int, trace: int) -> dict:
    from inputs import EPISODE_OPS, RepositoryPlan, build_repository
    from repro.obs import Tracer
    from repro.oem import identical
    from repro.tsl import evaluate
    if trace:
        layers.install_library()
    setups: list[float] = []

    def set_up():
        gc.collect()
        started = time.perf_counter()
        repo = build_repository(seed)
        setups.append(time.perf_counter() - started)
        return repo

    plan = RepositoryPlan(seed)
    #: Latencies of each position in the episode, one per episode.
    by_position: list[list[int]] = [[] for _ in range(EPISODE_OPS)]
    #: Each query position's answer by direct evaluation, computed the
    #: first time the position answers; every episode must reproduce it.
    expected: dict = {}
    traced: list = []
    wrong = failed = reused = queries = 0
    budget = seconds * 1_000_000_000
    busy = 0
    index = 0
    repo = None
    # Whole episodes only, so every position has as many samples.
    while busy < budget or index % EPISODE_OPS:
        episode, position = divmod(index, EPISODE_OPS)
        if position == 0:
            # Every episode runs the same operations from the same
            # store; each set-up is one sample of setup_s.
            repo = None
            repo = set_up()
        # The first episode fills the process's caches (interned terms,
        # canonical forms) and is not measured.
        measured = episode > 0
        kind, argument = plan.op(position)
        tracer = Tracer() if trace else None
        token = layers.CURRENT.set(tracer)
        start = time.perf_counter_ns()
        try:
            if kind.startswith("add_"):
                argument(repo)
                report = None
            else:
                report = repo.query_with_report(argument)
        except Exception as exc:  # counted, reported, and the run goes on
            failed += 1
            print(f"operation {index} ({kind}) failed: {exc!r}",
                  file=sys.stderr)
            report = None
        end = time.perf_counter_ns()
        layers.CURRENT.reset(token)
        if measured:
            busy += end - start
            by_position[position].append(end - start)
            if trace:
                traced.append((index, start / 1e9, end / 1e9, tracer))
        if report is not None:
            queries += measured
            reused += measured and report.method != "direct"
            truth = expected.get(position)
            if truth is None:
                truth = expected[position] = evaluate(argument,
                                                      repo.store.db)
            if not identical(report.answer, truth):
                wrong += 1
        index += 1
    if wrong:
        print(f"{wrong} answer(s) differ from direct evaluation",
              file=sys.stderr)
    result = {"correct": wrong == 0, "attempted": index, "failed": failed}
    if trace:
        waterfall = layers.Waterfall()
        total = 0.0
        for op, start, end, tracer in traced:
            roots = waterfall.add_tree(f"r{op}", tracer)
            if any(begin < start - CLOCK_SLACK_S
                   or finish > end + CLOCK_SLACK_S
                   for begin, finish in roots):
                waterfall.problem(f"r{op}: spans outside the call")
            waterfall.charge("client", end - start - sum(
                finish - begin for begin, finish in roots))
            total += end - start
        result["metrics"] = _layer_metrics(waterfall, total, len(traced),
                                           reuse=reused / max(1, queries))
    else:
        typical = [_fast_phase(samples) for samples in by_position]
        result["metrics"] = _end_to_end(
            typical, len(typical) / (sum(typical) / 1e9),
            _fast_phase(setups))
    return result


def _fast_phase(samples: list) -> float:
    """The median of the fastest ``1 / FAST_SHARE`` of *samples*,
    repeats of one identical piece of work.

    Shared hosts run in fast and slow phases, from under a second to
    half a minute long, that slow every operation alike by up to 60%,
    so the median over a run moves with the share of the run each
    phase happened to get.  The fastest repeats fall in the run's
    fastest phases, and their median still discounts a single lucky or
    unlucky repeat.
    """
    return statistics.median(
        sorted(samples)[:max(1, len(samples) // FAST_SHARE)])


# -- metrics -------------------------------------------------------------------

def _end_to_end(latencies_ns: list[int], throughput: float,
                setup_s: float) -> dict:
    cuts = statistics.quantiles(latencies_ns, n=100)
    values = {"p50_ms": _ms(cuts[49]), "p95_ms": _ms(cuts[94]),
              "throughput": throughput,
              "setup_s": setup_s}
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END.items()}


def _layer_metrics(waterfall, total_s: float, ops: int,
                   reuse: float) -> dict:
    """Mean self time per operation of each layer, and work counts."""
    if waterfall.problems:
        raise RuntimeError(f"{waterfall.problems} problem(s) in the traced "
                           f"spans, first: {waterfall.first_problem}")
    unknown = set(waterfall.self_s) - set(LAYERS)
    if unknown:
        raise RuntimeError(f"time charged to unlisted layers: "
                           f"{sorted(unknown)}")
    metrics = {f"{layer}_ms": {"value": 1e3 * waterfall.self_s.get(layer, 0)
                               / ops, "unit": "ms"} for layer in LAYERS}
    metrics["traced_latency_ms"] = {"value": 1e3 * total_s / ops,
                                    "unit": "ms"}
    for metric, span_name in COUNTED.items():
        metrics[f"{metric}_calls"] = {
            "value": waterfall.calls.get(span_name, 0) / ops,
            "unit": "count"}
    memo = waterfall.memo
    metrics["memo_hit_pct"] = {
        "value": 100.0 * memo["hit"] / memo["lookups"]
        if memo["lookups"] else 0.0, "unit": "%"}
    metrics["reuse_pct"] = {"value": 100.0 * reuse, "unit": "%"}
    metrics["ops"] = {"value": ops, "unit": "count"}
    return metrics


WORKLOADS = {
    "serve-hot": lambda seed, seconds, trace: run_served(
        seed, seconds, trace, distinct=False),
    "serve-search": lambda seed, seconds, trace: run_served(
        seed, seconds, trace, distinct=True),
    "repo-update": run_repository,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = WORKLOADS[args.workload](args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
