"""The fuzzing loop: generate, check, shrink, record, report.

One iteration = one generated case run through the selected oracles.
Profiles rotate per iteration so every batch mixes tree/DAG/DTD shapes
and conjunctive/copy queries.  On failure the case is re-minimized by
:mod:`repro.oracle.shrink` under a "same (oracle, invariant) fails"
predicate, optionally saved to a corpus directory, and reported with the
seed needed to regenerate the original.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

from ..obs import NULL_TRACER
from .corpus import case_to_json, load_case, save_case
from .gen import DEFAULT_PROFILE_ROTATION, PROFILES, Case, generate_case
from .oracles import ORACLES, Failure, Oracle, run_oracle
from .shrink import shrink_case

DEFAULT_ORACLES = tuple(sorted(ORACLES))


@dataclass(frozen=True)
class FuzzConfig:
    """One fuzzing campaign."""

    seed: int = 0
    iterations: int = 100
    budget_seconds: float | None = None
    oracles: tuple[str, ...] = DEFAULT_ORACLES
    profiles: tuple[str, ...] = DEFAULT_PROFILE_ROTATION
    shrink: bool = True
    corpus_dir: str | None = None
    max_shrink_attempts: int = 400


@dataclass
class FailureRecord:
    """One minimized counterexample."""

    oracle: str
    invariant: str
    message: str
    seed: int
    profile: str
    conditions: int
    case_json: dict[str, Any]
    corpus_path: str | None = None

    def to_json(self) -> dict[str, Any]:
        return {
            "oracle": self.oracle,
            "invariant": self.invariant,
            "message": self.message,
            "seed": self.seed,
            "profile": self.profile,
            "conditions": self.conditions,
            "corpus_path": self.corpus_path,
            "case": self.case_json,
        }


@dataclass
class FuzzReport:
    """Campaign outcome."""

    iterations_run: int = 0
    elapsed_seconds: float = 0.0
    checks: dict[str, int] = field(default_factory=dict)
    failures: list[FailureRecord] = field(default_factory=list)
    #: ``<oracle>.<name>`` -> total of each oracle-reported tally.
    counters: dict[str, int] = field(default_factory=dict)

    def count(self, oracle: str, result) -> None:
        """Add one oracle result's checks and tallies."""
        self.checks[oracle] += result.checks
        for name, value in result.counters.items():
            key = f"{oracle}.{name}"
            self.counters[key] = self.counters.get(key, 0) + value

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict[str, Any]:
        return {
            "ok": self.ok,
            "iterations": self.iterations_run,
            "elapsed_seconds": round(self.elapsed_seconds, 3),
            "checks": dict(sorted(self.checks.items())),
            "counters": dict(sorted(self.counters.items())),
            "failures": [f.to_json() for f in self.failures],
        }

    def summary(self) -> str:
        checks = ", ".join(f"{name}={count}"
                           for name, count in sorted(self.checks.items()))
        status = "OK" if self.ok else f"{len(self.failures)} FAILURE(S)"
        return (f"{status}: {self.iterations_run} iterations in "
                f"{self.elapsed_seconds:.1f}s ({checks})")


def _make_oracles(names: tuple[str, ...]) -> list[Oracle]:
    unknown = set(names) - set(ORACLES)
    if unknown:
        raise ValueError(f"unknown oracle(s): {sorted(unknown)}; "
                         f"available: {sorted(ORACLES)}")
    return [ORACLES[name]() for name in names]


def _reproduces(oracle: Oracle, failure: Failure):
    """Predicate: the same (oracle, invariant) still fails on a case."""

    def predicate(case: Case) -> bool:
        result = run_oracle(oracle, case)
        return any(f.invariant == failure.invariant
                   for f in result.failures)

    return predicate


def _record_failures(case: Case, oracle: Oracle, failures: list[Failure],
                     config: FuzzConfig, report: FuzzReport) -> None:
    for failure in failures:
        shrunk = case
        if config.shrink:
            shrunk = shrink_case(case, _reproduces(oracle, failure),
                                 max_attempts=config.max_shrink_attempts)
            # Re-run on the shrunk case for the minimized message.
            for fresh in run_oracle(oracle, shrunk).failures:
                if fresh.invariant == failure.invariant:
                    failure = fresh
                    break
        record = FailureRecord(
            oracle=failure.oracle,
            invariant=failure.invariant,
            message=failure.message,
            seed=case.seed,
            profile=case.profile,
            conditions=len(shrunk.query.body),
            case_json=case_to_json(shrunk),
        )
        if config.corpus_dir is not None:
            stem = f"{failure.oracle}-{failure.invariant}-{case.profile}" \
                   f"-{case.seed}"
            record.corpus_path = save_case(shrunk, config.corpus_dir, stem)
        report.failures.append(record)


def run_fuzz(config: FuzzConfig = FuzzConfig(), *,
             tracer=None, metrics=None) -> FuzzReport:
    """Run one fuzzing campaign and return the report.

    *tracer* records one ``fuzz.iteration`` span per generated case with
    a nested ``oracle.<name>`` span per oracle; *metrics* (a
    :class:`repro.obs.MetricsRegistry`) accumulates per-oracle check
    counters and an iteration-duration histogram under ``fuzz.*`` --
    the same instruments the benchmarks use, so numbers line up.
    """
    tracer = tracer or NULL_TRACER
    oracles = _make_oracles(config.oracles)
    report = FuzzReport(checks={o.name: 0 for o in oracles})
    started = time.monotonic()
    for iteration in range(config.iterations):
        if (config.budget_seconds is not None
                and time.monotonic() - started >= config.budget_seconds):
            break
        profile = config.profiles[iteration % len(config.profiles)]
        iteration_started = time.monotonic()
        with tracer.span("fuzz.iteration", seed=config.seed + iteration,
                         profile=profile) as span:
            case = generate_case(config.seed + iteration, PROFILES[profile])
            for oracle in oracles:
                with tracer.span(f"oracle.{oracle.name}") as oracle_span:
                    result = run_oracle(oracle, case)
                    oracle_span.add("checks", result.checks)
                report.count(oracle.name, result)
                if metrics is not None:
                    metrics.increment(f"fuzz.checks.{oracle.name}",
                                      result.checks)
                if result.failures:
                    span.set("failed", True)
                    if metrics is not None:
                        metrics.increment(
                            f"fuzz.failures.{oracle.name}",
                            len(result.failures))
                    _record_failures(case, oracle, result.failures,
                                     config, report)
        if metrics is not None:
            metrics.observe("fuzz.iteration_seconds",
                            time.monotonic() - iteration_started)
        report.iterations_run = iteration + 1
    report.elapsed_seconds = time.monotonic() - started
    return report


def replay(path: str,
           oracle_names: tuple[str, ...] = DEFAULT_ORACLES) -> FuzzReport:
    """Re-run the oracles on one saved corpus case."""
    case = load_case(path)
    oracles = _make_oracles(oracle_names)
    report = FuzzReport(checks={o.name: 0 for o in oracles})
    started = time.monotonic()
    for oracle in oracles:
        result = run_oracle(oracle, case)
        report.count(oracle.name, result)
        for failure in result.failures:
            report.failures.append(FailureRecord(
                oracle=failure.oracle,
                invariant=failure.invariant,
                message=failure.message,
                seed=case.seed,
                profile=case.profile,
                conditions=len(case.query.body),
                case_json=case_to_json(case),
                corpus_path=path,
            ))
    report.iterations_run = 1
    report.elapsed_seconds = time.monotonic() - started
    return report
