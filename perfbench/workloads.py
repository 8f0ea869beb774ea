"""The three benchmark workloads and the measurement loop that drives them.

* ``graph-session`` — one user with a large sparse graph: greedy-parallel
  build, edge verification, one batch of distance queries on the spanner.
* ``metric-session`` — the paper's own comparison on a doubling metric:
  exact greedy (sorted pair stream + cached oracle) against
  Approximate-Greedy (Section 5), both verified.
* ``service-mix`` — a closed loop of one client and one in-process
  :class:`~repro.service.workers.ServiceWorker`: every spec is submitted
  several times, so cold builds (cache writes) sit beside warm hits (cache
  reads) while the queue grows.

The library is driven only through its public entry points, always looked
up on their module at call time so the tracer in :mod:`spans` can wrap
them.  A *round* is the unit of repetition: one session, or one pass of the
service job sequence over a fresh job root.  A *request* is what a user
waits for: a session, or one job from submit to done.  Every output is
checked outside the timed region; a failed check is counted, never raised.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro.core import query_engine
from repro.graph import generators as graph_generators
from repro.graph import shortest_paths
from repro.metric import generators as metric_generators
from repro.service import cache as service_cache
from repro.service import queue as service_queue
from repro.service import workers as service_workers
from repro.spanners import registry, verification

import spans
from calibration import CALIBRATION_REFERENCE_S, LapClock

perf = time.perf_counter

#: Relative slack when comparing two float distances computed by different
#: searches over the same graph.
DISTANCE_TOLERANCE = 1e-9

#: Workload sizes.  ``full`` is what the benchmark measures: a session round
#: takes one to two seconds and a service round about six, so a 30 s run
#: takes its medians over 14-20 (sessions) or 4-5 (service) rounds.
#: ``tiny`` exists for the benchmark's own tests.
SIZES: dict[str, dict[str, dict]] = {
    "full": {
        "graph-session": {"n": 5000, "degree": 16.0, "stretch": 2.0,
                          "queries": 1024, "sources": 32, "checked_sources": 4},
        "metric-session": {"n": 250, "stretch": 1.5, "checked_sources": 3},
        "service-mix": {"n": 1000, "degree": 12.0, "stretch": 2.0,
                        "specs": 24, "repeats": 8, "direct_checks": 2},
    },
    "tiny": {
        "graph-session": {"n": 300, "degree": 8.0, "stretch": 2.0,
                          "queries": 64, "sources": 4, "checked_sources": 2},
        "metric-session": {"n": 40, "stretch": 1.5, "checked_sources": 2},
        "service-mix": {"n": 80, "degree": 8.0, "stretch": 2.0,
                        "specs": 3, "repeats": 3, "direct_checks": 1},
    },
}

#: Service jobs timed between two calibrations.
JOBS_PER_LAP = 8


class Ledger:
    """Attempted and failed checks, with the first failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)
        return ok


@dataclass
class Round:
    """One timed round: request latencies and stage samples in reference
    seconds, the raw wall seconds of its requests, and outputs to check."""

    latencies: list[float]
    walls: list[float]
    stages: dict[str, list[float]] = field(default_factory=dict)
    outputs: object = None

    @property
    def wall(self) -> float:
        return sum(self.walls)

    @property
    def reference(self) -> float:
        return sum(self.latencies)


def edge_digest(canonical_edges: list) -> str:
    """sha256 of a spanner's canonical edge list."""
    data = json.dumps(canonical_edges, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def mst_weight(vertices, edges) -> float:
    """Kruskal over ``(u, v, w)`` edges: the lightness denominator."""
    parent = {vertex: vertex for vertex in vertices}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    total = 0.0
    for weight, u, v in sorted((w, u, v) for u, v, w in edges):
        root_u, root_v = find(u), find(v)
        if root_u != root_v:
            parent[root_u] = root_v
            total += weight
    return total


def lightness(spanner) -> float:
    return spanner.subgraph.total_weight() / mst_weight(
        spanner.base.vertices(), spanner.base.edges()
    )


def check_stretch_from(ledger: Ledger, spanner, source, t: float, label: str) -> dict:
    """Independent stretch check of every base edge at ``source``."""
    distances = shortest_paths.single_source_distances(spanner.subgraph, source)
    limit = t * (1.0 + DISTANCE_TOLERANCE)
    ok = all(
        distances.get(target, math.inf) <= limit * weight
        for target, weight in spanner.base.incident(source)
    )
    ledger.record(ok, f"{label}: stretch above {t} at base edges of vertex {source!r}")
    return distances


def tail_percentile(samples: list[float]) -> Optional[tuple[int, float]]:
    """The highest of p99/p95/p90/p75 with at least ten samples beyond it."""
    count = len(samples)
    for percentile in (99, 95, 90, 75):
        if count * (100 - percentile) / 100.0 >= 10:
            return percentile, statistics.quantiles(samples, n=100)[percentile - 1]
    return None


def typical(rounds: list[Round], stage: str) -> float:
    """Median over rounds of each round's median ``stage`` sample."""
    return statistics.median(
        statistics.median(r.stages[stage]) for r in rounds if r.stages[stage]
    )


# ---------------------------------------------------------------------------
# graph-session
# ---------------------------------------------------------------------------
class GraphSession:
    """Build, certify and query the greedy spanner of one geometric graph."""

    def __init__(self, seed: int, params: dict, workdir: Path) -> None:
        self.t = float(params["stretch"])
        n = int(params["n"])
        radius = math.sqrt(float(params["degree"]) / (math.pi * n))
        self.graph = graph_generators.bucketed_geometric_graph(n, radius, seed=seed)
        rng = random.Random(seed)
        vertices = sorted(self.graph.vertices())
        sources = rng.sample(vertices, int(params["sources"]))
        queries = int(params["queries"])
        self.query_sources = [sources[i % len(sources)] for i in range(queries)]
        self.query_targets = [rng.choice(vertices) for _ in range(queries)]
        self.checked_sources = sources[: int(params["checked_sources"])]
        self.reference: Optional[tuple[str, list[float]]] = None
        self.quality: dict[str, float] = {}

    def fingerprint(self) -> str:
        return edge_digest(sorted([repr(u), repr(v), w] for u, v, w in self.graph.edges()))

    def spanner_digest(self) -> str:
        return self.reference[0] if self.reference else ""

    def round(self, clock: LapClock) -> Round:
        clock.begin()
        spanner = registry.build_spanner("greedy-parallel", self.graph, self.t, workers=1)
        build = clock.lap()
        verdict = verification.verify_spanner_edges_detailed(
            spanner.subgraph, spanner.base, self.t
        )
        verify = clock.lap()
        engine = query_engine.QueryEngine(spanner.subgraph)
        answers = engine.run_queries(self.query_sources, self.query_targets)
        query = clock.lap()
        laps = {"build_s": build, "verify_s": verify, "query_s": query}
        stages = {key: [wall * scale] for key, (wall, scale) in laps.items()}
        return Round(
            latencies=[sum(sample[0] for sample in stages.values())],
            walls=[sum(wall for wall, _ in laps.values())],
            stages=stages,
            outputs=(spanner, verdict, answers),
        )

    def check(self, outputs, ledger: Ledger) -> None:
        spanner, verdict, answers = outputs
        ledger.record(verdict.ok, "greedy-parallel spanner failed verification")
        digest = edge_digest(service_workers.canonical_spanner_edges(spanner))
        if self.reference is None:
            self.reference = (digest, answers)
            self._cross_check(spanner, answers, ledger)
            self.quality = {
                "lightness": lightness(spanner),
                "edges_per_vertex": spanner.number_of_edges / spanner.base.number_of_vertices,
            }
        ledger.record(digest == self.reference[0], "greedy-parallel edge digest changed")
        ledger.record(answers == self.reference[1], "query answers changed between rounds")

    def _cross_check(self, spanner, answers: list[float], ledger: Ledger) -> None:
        for source in self.checked_sources:
            distances = check_stretch_from(ledger, spanner, source, self.t, "greedy-parallel")
            for slot, (query_source, target) in enumerate(
                zip(self.query_sources, self.query_targets)
            ):
                if query_source != source:
                    continue
                expected = distances.get(target, math.inf)
                ledger.record(
                    math.isclose(answers[slot], expected, rel_tol=DISTANCE_TOLERANCE),
                    f"query {source!r}->{target!r} answered {answers[slot]}, "
                    f"single_source_distances gives {expected}",
                )

    def named(self, rounds: list[Round]) -> list[tuple]:
        queries = len(self.query_sources)
        note = f"median of {len(rounds)} rounds"
        return [
            ("build_s", typical(rounds, "build_s"), "s", f"greedy-parallel, {note}"),
            ("verify_s", typical(rounds, "verify_s"), "s", note),
            ("query_qps", queries / typical(rounds, "query_s"), "1/s",
             f"{queries} queries over {len(set(self.query_sources))} sources, {note}"),
        ]

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# metric-session
# ---------------------------------------------------------------------------
class MetricSession:
    """Exact greedy against Approximate-Greedy on uniform planar points."""

    def __init__(self, seed: int, params: dict, workdir: Path) -> None:
        self.t = float(params["stretch"])
        self.metric = metric_generators.uniform_points(int(params["n"]), seed=seed)
        self.checked_sources = list(range(int(params["checked_sources"])))
        self.reference: Optional[tuple[str, str]] = None
        self.quality: dict[str, float] = {}

    def fingerprint(self) -> str:
        points = self.metric.points()
        return edge_digest([repr(self.metric.distance(points[0], p)) for p in points])

    def spanner_digest(self) -> str:
        return "+".join(self.reference) if self.reference else ""

    def round(self, clock: LapClock) -> Round:
        clock.begin()
        greedy = registry.build_spanner("greedy", self.metric, self.t)
        build = clock.lap()
        approx = registry.build_spanner("approx-greedy", self.metric, self.t)
        approx_build = clock.lap()
        greedy_verdict = verification.verify_spanner_edges_detailed(
            greedy.subgraph, greedy.base, self.t
        )
        approx_verdict = verification.verify_spanner_edges_detailed(
            approx.subgraph, approx.base, self.t
        )
        verify = clock.lap()
        laps = (build, approx_build, verify)
        return Round(
            latencies=[sum(wall * scale for wall, scale in laps)],
            walls=[sum(wall for wall, _ in laps)],
            stages={"build_s": [build[0] * build[1]],
                    "approx_build_s": [approx_build[0] * approx_build[1]],
                    "verify_s": [verify[0] * verify[1] / 2.0]},
            outputs=(greedy, approx, greedy_verdict, approx_verdict),
        )

    def check(self, outputs, ledger: Ledger) -> None:
        greedy, approx, greedy_verdict, approx_verdict = outputs
        ledger.record(greedy_verdict.ok, "greedy spanner failed verification")
        ledger.record(approx_verdict.ok, "approx-greedy spanner failed verification")
        digests = (
            edge_digest(service_workers.canonical_spanner_edges(greedy)),
            edge_digest(service_workers.canonical_spanner_edges(approx)),
        )
        if self.reference is None:
            self.reference = digests
            for source in self.checked_sources:
                check_stretch_from(ledger, greedy, source, self.t, "greedy")
                check_stretch_from(ledger, approx, source, self.t, "approx-greedy")
            n = greedy.base.number_of_vertices
            self.quality = {
                "lightness": lightness(greedy),
                "edges_per_vertex": greedy.number_of_edges / n,
                "approx_lightness": lightness(approx),
                "approx_edges_per_vertex": approx.number_of_edges / n,
            }
        ledger.record(digests[0] == self.reference[0], "greedy edge digest changed")
        ledger.record(digests[1] == self.reference[1], "approx-greedy edge digest changed")

    def named(self, rounds: list[Round]) -> list[tuple]:
        note = f"median of {len(rounds)} rounds"
        return [
            ("build_s", typical(rounds, "build_s"), "s", f"exact greedy, {note}"),
            ("approx_build_s", typical(rounds, "approx_build_s"), "s", note),
            ("verify_s", typical(rounds, "verify_s"), "s", f"mean of the two spanners, {note}"),
            ("approx_lightness", self.quality.get("approx_lightness", math.nan), "ratio",
             "Approximate-Greedy spanner"),
        ]

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# service-mix
# ---------------------------------------------------------------------------
class ServiceMix:
    """Closed loop: submit one job, run the worker until it ends, repeat."""

    def __init__(self, seed: int, params: dict, workdir: Path) -> None:
        self.t = float(params["stretch"])
        self.n = int(params["n"])
        self.direct_checks = int(params["direct_checks"])
        self.specs = [
            {
                "workload": {"kind": "bucketed-geometric", "n": self.n,
                             "degree": float(params["degree"]),
                             "seed": seed * 1000 + index, "stretch": self.t},
                "stretch": self.t,
            }
            for index in range(int(params["specs"]))
        ]
        self.order = [i for i in range(len(self.specs)) for _ in range(int(params["repeats"]))]
        random.Random(seed).shuffle(self.order)
        self.workdir = workdir
        self.rounds_run = 0
        self.reference: dict[int, tuple[str, int]] = {}
        self.artifact_digest = ""
        self.quality: dict[str, float] = {}
        self._open_root()

    def _open_root(self) -> None:
        # A fresh root per round: every round replays the same cold/warm
        # sequence with the queue growing from empty to len(order) records.
        self.root = self.workdir / f"service-round-{self.rounds_run}"
        shutil.rmtree(self.root, ignore_errors=True)
        self.queue = service_queue.JobQueue(self.root)
        self.cache = service_cache.ArtifactCache(self.root / "cache")
        self.worker = service_workers.ServiceWorker(self.queue, self.cache)

    def fingerprint(self) -> str:
        return edge_digest([spec["workload"]["seed"] for spec in self.specs] + self.order)

    def spanner_digest(self) -> str:
        return self.artifact_digest

    def _drive(self, job_id: str):
        """Run the worker until the submitted job is terminal (or gives up)."""
        for _ in range(service_queue.DEFAULT_MAX_ATTEMPTS + 1):
            job = self.worker.run_once()
            if job is None:
                return None
            if job.job_id == job_id and job.state in ("done", "failed", "quarantined"):
                return job
        return None

    def round(self, clock: LapClock) -> Round:
        walls, finished = [], []
        clock.begin()
        scales: list[float] = []
        for position, index in enumerate(self.order, start=1):
            started = perf()
            job = self.queue.submit(self.specs[index])
            ended = self._drive(job.job_id)
            walls.append(perf() - started)
            finished.append((index, ended))
            if position % JOBS_PER_LAP == 0 or position == len(self.order):
                _, scale = clock.lap()
                scales += [scale] * (len(walls) - len(scales))
        latencies = [wall * scale for wall, scale in zip(walls, scales)]
        stages: dict[str, list[float]] = {"cold_s": [], "warm_s": []}
        for latency, (_, ended) in zip(latencies, finished):
            hit = ended is not None and bool((ended.result or {}).get("cache_hit"))
            stages["warm_s" if hit else "cold_s"].append(latency)
        return Round(latencies=latencies, walls=walls, stages=stages, outputs=finished)

    def check(self, outputs, ledger: Ledger) -> None:
        seen: dict[int, tuple[str, int]] = {}
        for index, job in outputs:
            result = (job.result or {}) if job is not None else {}
            if not ledger.record(
                job is not None and job.state == "done" and result.get("verified") is True,
                f"job for spec {index} ended {getattr(job, 'state', 'unfinished')}, "
                f"verified={result.get('verified')}",
            ):
                continue
            served = (result["artifact_key"], int(result["spanner_edges"]))
            expected = seen.setdefault(index, self.reference.get(index, served))
            ledger.record(
                served == expected,
                f"spec {index} served {served}, its cold build gave {expected}",
            )
        if not self.reference:
            self.reference = seen
            self._check_artifacts(ledger)
        shutil.rmtree(self.root, ignore_errors=True)
        self.rounds_run += 1
        self._open_root()

    def _check_artifacts(self, ledger: Ledger) -> None:
        """Artifacts against direct builds; lightness from the served edges."""
        ratios, densities, served = [], [], []
        for index, spec in enumerate(self.specs):
            if index not in self.reference:
                continue
            payload = self.cache.get(self.reference[index][0])
            served.append(payload["edges"])
            graph = service_workers.build_workload_instance(spec["workload"])
            weight = sum(edge[2] for edge in payload["edges"])
            ratios.append(weight / mst_weight(graph.vertices(), graph.edges()))
            densities.append(len(payload["edges"]) / graph.number_of_vertices)
            if index < self.direct_checks:
                direct = registry.build_spanner("greedy-parallel", graph, self.t, workers=1)
                ledger.record(
                    service_workers.canonical_spanner_edges(direct) == payload["edges"],
                    f"served artifact of spec {index} differs from a direct build",
                )
        self.artifact_digest = edge_digest(served)
        if ratios:
            self.quality = {
                "lightness": statistics.fmean(ratios),
                "edges_per_vertex": statistics.fmean(densities),
            }

    def named(self, rounds: list[Round]) -> list[tuple]:
        rows = []
        for label in ("cold", "warm"):
            key = f"{label}_s"
            pooled = [sample for r in rounds for sample in r.stages[key]]
            if not pooled:
                continue
            rows.append((f"job_{label}_p50_s", typical(rounds, key), "s",
                         f"{len(pooled) // len(rounds)} jobs a round, "
                         f"median of {len(rounds)} rounds"))
            tail = tail_percentile(pooled)
            if tail is not None:
                rows.append((f"job_{label}_p{tail[0]}_s", tail[1], "s",
                             f"{len(pooled)} jobs pooled over {len(rounds)} rounds"))
        return rows

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


WORKLOADS = {
    "graph-session": GraphSession,
    "metric-session": MetricSession,
    "service-mix": ServiceMix,
}


def set_up(name: str, seed: int, size: str, workdir: Path):
    """Generate one workload's inputs and construct its serving objects."""
    return WORKLOADS[name](seed, SIZES[size][name], workdir)


# ---------------------------------------------------------------------------
# The measurement loop
# ---------------------------------------------------------------------------
def measure(name: str, seed: int, seconds: float, trace: bool, size: str,
            workdir: Path, spans_path: Optional[Path] = None) -> dict:
    """Run rounds for ``seconds`` of measured time; return metrics and checks.

    Traced runs alternate traced and untraced rounds, traced first, so the
    tracing overhead is measured in one process on the same inputs.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = spans.Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    started = perf()
    workload = set_up(name, seed, size, workdir)
    setup_wall = perf() - started
    if tracer is not None:
        tracer.uninstall()

    ledger = Ledger()
    clock = LapClock()
    rounds: list[tuple[bool, Round]] = []
    measured = 0.0
    minimum_rounds = 2 if tracer is not None else 1
    try:
        while len(rounds) < minimum_rounds or measured < seconds:
            traced = tracer is not None and len(rounds) % 2 == 0
            if traced:
                tracer.install()
                with tracer.span("round"):
                    result = workload.round(clock)
                tracer.uninstall()
            else:
                result = workload.round(clock)
            measured += result.wall
            workload.check(result.outputs, ledger)
            result.outputs = None
            rounds.append((traced, result))
    finally:
        if tracer is not None:
            tracer.uninstall()
        workload.close()

    untraced = [result for traced, result in rounds if not traced]
    out = {
        "workload": name,
        "seed": seed,
        "size": size,
        "rounds": len(rounds),
        "inputs": workload.fingerprint(),
        "spanner_digest": workload.spanner_digest(),
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "failures": ledger.messages,
        "requests": sum(len(r.latencies) for r in untraced),
        "round_walls": [r.wall for r in untraced],
        "calibrations": clock.calibrations,
        "host_slowdown": statistics.median(clock.calibrations) / CALIBRATION_REFERENCE_S,
        "request_p50_s": statistics.median(statistics.median(r.latencies) for r in untraced),
        "request_p50_wall_s": statistics.median(statistics.median(r.walls) for r in untraced),
        "requests_per_s": statistics.median(len(r.latencies) / r.reference for r in untraced),
        "quality": dict(workload.quality),
        "named": [list(row) for row in workload.named(untraced)],
    }
    if tracer is not None:
        out["per_layer"] = layer_metrics(tracer, setup_wall, rounds)
        out["layer_self_s"] = tracer.self_seconds()
        if spans_path is not None:
            tracer.write(spans_path)
    return out


#: Per-round counts: metric name -> (tracer count key, unit).
PER_ROUND_COUNTS = {
    "stream.pairs": ("stream.pairs", "pairs"),
    "greedy.oracle_settles": ("greedy.oracle_settles", "settles"),
    "parallel_greedy.filter_settles": ("parallel_greedy.filter_settles", "settles"),
    "parallel_greedy.replay_settles": ("parallel_greedy.replay_settles", "settles"),
    "parallel_greedy.candidate_edges": ("parallel_greedy.candidate_edges", "edges"),
    "approximate_greedy.cluster_transition_settles":
        ("approximate_greedy.cluster_transition_settles", "settles"),
    "approximate_greedy.cluster_query_settles":
        ("approximate_greedy.cluster_query_settles", "settles"),
    "approximate_greedy.approximate_queries":
        ("approximate_greedy.approximate_queries", "queries"),
    "verification.edges_checked": ("verification.edges_checked", "edges"),
    "verification.sources": ("verification.sources", "sources"),
    "verification.settles": ("verification.settles", "settles"),
    "query_engine.sources": ("query_engine.sources", "sources"),
    "cache.bytes_written": ("cache.bytes_written", "bytes"),
}

#: Ratios of counts: metric name -> (numerator, denominators, unit).
COUNT_RATIOS = {
    "greedy.oracle_hit_ratio": ("greedy.oracle_hits", ("greedy.oracle_queries",), "ratio"),
    "parallel_greedy.useful_ratio":
        ("parallel_greedy.edges_added", ("parallel_greedy.candidate_edges",), "ratio"),
    "query_engine.settles_per_query":
        ("query_engine.settles", ("query_engine.queries",), "settles/query"),
    "queue.jobs_scanned_per_claim": ("queue.jobs_scanned", ("queue.claims",), "jobs/claim"),
    "cache.hit_ratio": ("cache.hits", ("cache.hits", "cache.misses"), "ratio"),
}


def share_name(layer: str) -> str:
    """``queue.claim`` -> ``queue.claim_pct``; ``greedy`` -> ``greedy.self_pct``."""
    return f"{layer}_pct" if "." in layer else f"{layer}.self_pct"


def layer_metrics(tracer: spans.Tracer, setup_wall: float,
                  rounds: list[tuple[bool, Round]]) -> dict[str, list]:
    """``{name: [value, unit]}``: self-time shares, per-round counts, overhead.

    A share is the layer's self time as a percentage of the traced wall
    time (the traced set-up plus the traced rounds).  Counts are per traced
    round, so they repeat exactly for one seed.
    """
    traced_walls = [result.wall for traced, result in rounds if traced]
    traced_wall = setup_wall + sum(traced_walls)
    self_seconds = tracer.self_seconds()
    metrics: dict[str, list] = {
        share_name(layer): [100.0 * self_seconds.get(layer, 0.0) / traced_wall, "%"]
        for layer in spans.LAYERS
    }
    counts = tracer.counts
    for name, (key, unit) in PER_ROUND_COUNTS.items():
        metrics[name] = [counts.get(key, 0.0) / len(traced_walls), unit]
    for name, (numerator, denominators, unit) in COUNT_RATIOS.items():
        bottom = sum(counts.get(key, 0.0) for key in denominators)
        metrics[name] = [counts.get(numerator, 0.0) / bottom if bottom else 0.0, unit]
    traced, untraced = (
        statistics.median(result.reference for flag, result in rounds if flag == side)
        for side in (True, False)
    )
    metrics["tracing.overhead_pct"] = [100.0 * (traced - untraced) / untraced, "%"]
    return metrics
