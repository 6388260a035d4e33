"""The four workloads of the wall-clock benchmark (see ``METRICS.md``).

Every workload sets the system up ``repeats`` times (the median is
``setup_s``), builds its inputs from the seed and the datagen ground truth
outside the timed region, runs its operations for ``seconds`` of wall time,
then checks the program's outputs.  No request repeats inside a timed run.

Gated times are wall-clock seconds adjusted to reference host speed by
the :class:`~probes.HostSpeed` probes taken between operations; the raw
wall-clock figures are reported beside them (``*_wall``).

With ``trace`` on, each operation (request, micro-batch, replay pass or
lambda round) is traced with probability one half: traced operations run
with the :class:`~probes.Probe` timers installed and give the per-layer
numbers, untraced ones give the overhead baseline.
"""

from __future__ import annotations

import gc
import hashlib
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import repro.system.lambda_layer as lambda_layer_module
import repro.system.turbo as turbo_module
from repro.datagen import GeneratorConfig, make_d1
from repro.datagen.drift import generate_drift_scenario
from repro.datagen.entities import DAY, HOUR, BehaviorLog, Dataset, Transaction
from repro.eval.runner import prepare_experiment
from repro.network import FAST_WINDOWS, BehaviorNetwork, BNBuilder
from repro.system import (
    BNServer,
    FeatureServer,
    LambdaLayer,
    LatencyModel,
    PredictionServer,
    PredictRequest,
    Turbo,
    TurboConfig,
    deploy_turbo,
)

from probes import REFERENCE_SECONDS, HostSpeed, Probe, reference_probe

#: D1 at this scale has 800 users.  Every workload uses the fixed D1
#: instance (dataset seed 7, as every table in the repo); the workload seed
#: draws the inputs: requests, bursts, rounds, the replay's first day.
SCALE = 0.2
DATASET_SEED = 7
#: the drift period lambda-refresh replays, as in benchmarks/bench_lambda.py.
DRIFT_SEED = 3
TRAIN_EPOCHS = 10
HIDDEN = (32, 16)
SETUP_REPEATS = 3
#: requests served before the timed region (never reused inside it).
WARMUP_REQUESTS = 8
BATCH_SIZE = 32
#: serve-burst offered load, fixed so every commit sees the same load: a
#: fifth of the quiet-host batched capacity, low enough that queueing does
#: not amplify host-speed swings (METRICS.md).
BURST_RATE = 30.0
MAX_BURST = 8
#: the burst times and sizes are the same in every run.
SCHEDULE_SEED = 2021
#: burst ``k`` re-audits its ring ``(k + 1) * REAUDIT`` after the audit time, so
#: every request of a run is distinct and lands in its own row-cache bucket.
REAUDIT = 6 * HOUR
CHUNK = 6 * HOUR
TTL = 60 * DAY
ROUND_USERS = 16
ROUND_LOGS = 100
ROUND_ADVANCE = 6 * HOUR
CHECK_SAMPLE = 16
#: serve-burst probes host speed only in idle gaps at least this long.
PROBE_GAP = 0.005
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 50.0)

Table = dict[str, tuple[float, str]]


@dataclass
class Outcome:
    """What one workload run measured (times adjusted to reference speed)."""

    setup: list[float]  # seconds per set-up
    ops_per_s: float  # requests, or logs on ingest-stream, per second
    latencies: list[float]  # per request (per chunk on ingest-stream)
    attempted: int
    failed: int
    checks: dict[str, bool]
    named: Table = field(default_factory=dict)  # named per-workload metrics
    sim: Table = field(default_factory=dict)  # modeled clocks, never gating
    layers: Table = field(default_factory=dict)  # per-layer, traced runs


class OpTimer:
    """Wall time of traced vs untraced operations (the trace overhead)."""

    def __init__(self, trace: bool, seed: int) -> None:
        self.trace = trace
        self._rng = np.random.default_rng(seed + 1)
        self.wall = {True: 0.0, False: 0.0}
        self.ops = {True: 0, False: 0}

    def pick(self) -> bool:
        """Whether the next operation is traced (half of them in trace mode)."""
        return self.trace and bool(self._rng.random() < 0.5)

    def record(self, traced: bool, seconds: float, ops: int = 1) -> None:
        self.wall[traced] += seconds
        self.ops[traced] += ops

    def overhead(self) -> float:
        if not (self.ops[True] and self.ops[False]):
            return 0.0
        per_traced = self.wall[True] / self.ops[True]
        return per_traced / (self.wall[False] / self.ops[False]) - 1.0


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def median(values: list[float]) -> float:
    return float(np.median(values)) if values else 0.0


def tail(latencies: list[float]) -> tuple[float, float]:
    """``(percentile, value)``: the highest ladder percentile with >= 10 beyond."""
    for pct in TAIL_LADDER:
        if len(latencies) * (100.0 - pct) / 100.0 >= 10.0:
            return pct, float(np.percentile(latencies, pct))
    return 50.0, median(latencies)


def speed_table(
    host: HostSpeed,
    rate_name: str,
    prefix: str,
    ops: int,
    busy: list[tuple[float, float]],
    samples: list[tuple[float, float]],
    open_loop_wall: float | None = None,
) -> tuple[float, list[float], Table]:
    """Throughput and latencies, adjusted and raw.

    ``busy`` and ``samples`` are ``(start, wall seconds)`` pairs: the timed
    spans the operations took, and the latency samples.  An open loop's
    throughput is its completed operations over elapsed wall time (the
    offered rate while the server keeps up), so it is not adjusted.
    """
    adjusted = [host.adjust(at, seconds) for at, seconds in samples]
    wall = [seconds for _at, seconds in samples]
    if open_loop_wall is None:
        rate = ratio(ops, sum(host.adjust(at, seconds) for at, seconds in busy))
        rate_wall = ratio(ops, sum(seconds for _at, seconds in busy))
    else:
        rate = rate_wall = ratio(ops, open_loop_wall)
    pct, tail_value = tail(adjusted)
    _pct, tail_wall = tail(wall)
    table = {
        rate_name: (rate, "1/s"),
        f"{prefix}_p50_ms": (1e3 * median(adjusted), "ms"),
        f"{prefix}_tail_ms": (1e3 * tail_value, "ms"),
        f"{prefix}_tail_pct": (pct, "percentile"),
        f"{prefix}_samples": (float(len(adjusted)), "count"),
        f"{rate_name}_wall": (rate_wall, "1/s"),
        f"{prefix}_p50_ms_wall": (1e3 * median(wall), "ms"),
        f"{prefix}_tail_ms_wall": (1e3 * tail_wall, "ms"),
        "host.speed_factor": (host.median_factor(), "ratio"),
    }
    return rate, adjusted, table


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def latest_transactions(dataset: Dataset) -> dict[int, Transaction]:
    """Each user's latest application (the unit D1 labels and serves)."""
    latest: dict[int, Transaction] = {}
    for txn in dataset.transactions:
        current = latest.get(txn.uid)
        if current is None or txn.created_at > current.created_at:
            latest[txn.uid] = txn
    return latest


def audit_request(txn: Transaction, offset: float = 0.0) -> PredictRequest:
    return PredictRequest(txn=txn, now=txn.audit_at + offset)


def same_answer(a: Any, b: Any) -> bool:
    return (
        a.probability == b.probability
        and a.blocked == b.blocked
        and a.degradation == b.degradation
        and a.degradation_reason == b.degradation_reason
    )


def not_full(response: Any) -> bool:
    return response.degradation != "full"


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
def deploy(scale: float, lambda_tier: bool, marks: dict[str, float]):
    """D1 -> experiment bundle -> trained, wired deployment (one set-up)."""
    start = time.perf_counter()
    dataset = make_d1(scale=scale, seed=DATASET_SEED)
    generated = time.perf_counter()
    config = TurboConfig(
        windows=FAST_WINDOWS,
        train_epochs=TRAIN_EPOCHS,
        hidden=HIDDEN,
        seed=0,
        lambda_tier=lambda_tier,
    )
    data = prepare_experiment(
        dataset, windows=config.windows, seed=config.seed, include_stats=True
    )
    prepared = time.perf_counter()
    if lambda_tier:
        # The lambda deployment runs BN maintenance, so it serves the
        # TTL-swept network: sweep the bootstrap BN before the first pass,
        # then catch the window-job schedule up to the end of the data.
        data.bn.expire_edges(dataset.end_time)
    turbo, _data = deploy_turbo(dataset, config, data=data)
    if lambda_tier:
        turbo.bn_server.run_due_jobs(dataset.end_time)
    marks["datagen"] += generated - start
    marks["prepare"] += prepared - generated
    return turbo, dataset, time.perf_counter() - start


def set_up(
    make: Callable[[dict[str, float]], Any], repeats: int, trace: bool
) -> tuple[Any, list[float], list[float], Table]:
    """Run ``make`` ``repeats`` times; keep the last system, time each one.

    Each set-up is adjusted by reference probes taken right before and
    after it; the raw wall times are returned beside the adjusted ones.
    """
    probe = Probe()
    probe.wrap(
        turbo_module,
        "train_node_classifier",
        "core.train",
        lambda result, _args: {"epochs": len(result.train_losses)},
    )
    probe.wrap(LambdaLayer, "run_batch_pass", "core.lambda.full_pass")
    marks = {"datagen": 0.0, "prepare": 0.0}
    times: list[float] = []
    adjusted: list[float] = []
    for _ in range(repeats):
        built = None
        gc.collect()
        before = reference_probe()
        with probe.active(trace):
            built = make(marks)
        speed = REFERENCE_SECONDS / ((before + reference_probe()) / 2)
        times.append(built[-1])
        adjusted.append(built[-1] * speed)
    probe.unwrap_all()

    mean = sum(times) / repeats
    datagen, prepare = marks["datagen"] / repeats, marks["prepare"] / repeats
    train = probe.busy["core.train"] / repeats
    epochs = probe.counts["core.train.epochs"] / repeats
    full_pass = probe.busy["core.lambda.full_pass"] / repeats
    layers = {
        "datagen.generate_s": (datagen, "s"),
        "eval.prepare_s": (prepare, "s"),
        "core.train_s": (train, "s"),
        "core.train.epochs": (epochs, "count"),
        "core.train.epoch_s": (ratio(train, epochs), "s"),
        "core.lambda.full_pass_s": (full_pass, "s"),
        "eval.prepare_frac": (prepare / mean, "frac"),
        "core.train_frac": (train / mean, "frac"),
        "core.lambda.full_pass_frac": (full_pass / mean, "frac"),
    }
    return built, adjusted, times, layers


# ----------------------------------------------------------------------
# Probes around the program's public entry points
# ----------------------------------------------------------------------
def serving_probe(turbo: Turbo) -> Probe:
    """The orchestrator, its three stages and the served model's layers."""
    probe = Probe()
    probe.wrap(Turbo, "predict", "system.turbo")
    probe.wrap(Turbo, "predict_batch", "system.turbo")
    probe.wrap(
        BNServer,
        "sample_batch",
        "network.sample",
        lambda result, _args: {
            "requests": result[3].requests,
            "nodes": result[3].sampled_nodes,
            "unique": result[3].unique_nodes,
        },
    )
    probe.wrap(
        BNServer,
        "handle",
        "network.sample",
        lambda result, _args: {
            "requests": 1,
            "nodes": result[0].num_nodes,
            "unique": result[0].num_nodes,
        },
    )
    probe.wrap(
        FeatureServer,
        "features_for_batch",
        "features.assemble",
        lambda result, _args: {
            "requests": result[3].requests,
            "rows": result[3].node_touches,
            "unique": result[3].unique_rows,
            "hits": result[3].row_cache_hits,
            "computed": result[3].computed_rows,
        },
    )
    probe.wrap(
        FeatureServer,
        "handle",
        "features.assemble",
        lambda result, _args: {
            "requests": 1,
            "rows": result[0].shape[0],
            "unique": result[0].shape[0],
            "computed": result[0].shape[0],
        },
    )
    probe.wrap(
        PredictionServer,
        "predict_batch",
        "core.infer",
        lambda _result, args: {
            "requests": len(args[1]),
            "rows": sum(sg.num_nodes for sg in args[1]),
        },
    )
    probe.wrap(
        PredictionServer,
        "handle",
        "core.infer",
        lambda _result, args: {"requests": 1, "rows": args[1].subgraph.num_nodes},
    )
    probe.wrap(LambdaLayer, "lookup", "system.lambda.lookup")
    model = turbo.prediction_server.model
    for tower in model.towers:
        for layer in tower:
            probe.wrap(layer, "forward", "core.sao")
    if model.cfo is not None:
        probe.wrap(model.cfo, "forward", "core.cfo")
    probe.wrap(model.head, "forward", "core.head")
    return probe


def add_ingest_probes(probe: Probe) -> Probe:
    probe.wrap(BNServer, "ingest", "network.ingest")
    probe.wrap(
        BNBuilder,
        "run_window_job",
        "network.window_job",
        lambda result, _args: {"contributions": result},
    )
    probe.wrap(
        BehaviorNetwork,
        "expire_edges",
        "network.expire",
        lambda result, _args: {"removed": result},
    )
    return probe


BUSY_LAYERS = (
    "network.sample",
    "features.assemble",
    "core.infer",
    "core.sao",
    "core.cfo",
    "core.head",
    "network.ingest",
    "network.window_job",
    "network.expire",
    "network.sampled_graph.build",
    "core.lambda.incremental",
)


def measured_layers(
    probe: Probe, timer: OpTimer, chunks: int = 0, passes: int = 0
) -> Table:
    """Per-layer numbers over the traced operations of the measured phase.

    Shares are of the traced operations' wall time; counts are per
    request, per ingested chunk or per incremental pass.
    """
    wall = timer.wall[True]
    busy, own, calls, counts = probe.busy, probe.own, probe.calls, probe.counts
    layers: Table = {}
    for name in BUSY_LAYERS:
        layers[f"{name}.busy_s"] = (busy[name], "s")
        layers[f"{name}.busy_frac"] = (ratio(busy[name], wall), "frac")

    def per(layer: str, key: str, base: str, unit: str) -> tuple[float, str]:
        return ratio(counts[f"{layer}.{key}"], counts[f"{layer}.{base}"]), unit

    turbo = busy["system.turbo"]
    layers.update(
        {
            "network.sample.calls": (float(calls["network.sample"]), "count"),
            "network.sample.nodes_per_req": per("network.sample", "nodes", "requests", "1/req"),
            "network.sample.coalescing": per("network.sample", "nodes", "unique", "ratio"),
            "features.assemble.rows_per_req": per(
                "features.assemble", "rows", "requests", "1/req"
            ),
            "features.assemble.coalescing": per("features.assemble", "rows", "unique", "ratio"),
            "features.row_cache_hit_frac": (
                ratio(
                    counts["features.assemble.hits"],
                    counts["features.assemble.hits"] + counts["features.assemble.computed"],
                ),
                "frac",
            ),
            "core.infer.rows_per_req": per("core.infer", "rows", "requests", "1/req"),
            "system.turbo.busy_s": (turbo, "s"),
            "system.turbo.self_s": (own["system.turbo"], "s"),
            "system.turbo.self_frac": (ratio(own["system.turbo"], wall), "frac"),
            "system.turbo.coverage": (ratio(turbo - own["system.turbo"], turbo), "frac"),
            "network.window_job.calls": (ratio(calls["network.window_job"], chunks), "1/chunk"),
            "network.window_job.contributions": (
                ratio(counts["network.window_job.contributions"], chunks),
                "1/chunk",
            ),
            "network.expire.removed": (ratio(counts["network.expire.removed"], chunks), "1/chunk"),
            "network.sampled_graph.build_frac": (
                ratio(busy["network.sampled_graph.build"], wall),
                "frac",
            ),
            "core.lambda.incremental_s": (busy["core.lambda.incremental"], "s"),
            "core.lambda.incremental_frac": (ratio(busy["core.lambda.incremental"], wall), "frac"),
            "core.lambda.rows_rescored": (
                ratio(counts["core.lambda.incremental.rows"], passes),
                "1/pass",
            ),
            "bench.trace_overhead_frac": (timer.overhead(), "frac"),
            "bench.traced_wall_s": (wall, "s"),
        }
    )
    return layers


# ----------------------------------------------------------------------
# Serving workloads
# ----------------------------------------------------------------------
@dataclass
class Served:
    """Requests answered in the measured phase, in serving order."""

    requests: list[PredictRequest] = field(default_factory=list)
    responses: list = field(default_factory=list)
    latencies: list[tuple[float, float]] = field(default_factory=list)  # (start, s)
    waits: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def add(self, request: PredictRequest, response: Any, at: float, latency: float) -> None:
        self.requests.append(request)
        self.responses.append(response)
        self.latencies.append((at, latency))
        self.failed += not_full(response)


def serving_outcome(
    served: Served,
    host: HostSpeed,
    setup: tuple[list[float], list[float], Table],
    busy: list[tuple[float, float]],
    cpu: float,
    clock_seconds: float,
    probe: Probe,
    timer: OpTimer,
    checks: dict[str, bool],
    open_loop_wall: float | None = None,
    **measured: int,
) -> Outcome:
    adjusted_setup, wall_setup, setup_layers = setup
    rate, latencies, named = speed_table(
        host, "serve_rps", "serve", len(served.responses), busy, served.latencies, open_loop_wall
    )
    named["setup_s_wall"] = (median(wall_setup), "s")
    breakdowns = [r.breakdown for r in served.responses]
    sim = {
        "sim.request_p50_s": (median([b.total for b in breakdowns]), "s"),
        "sim.rps": (ratio(len(breakdowns), clock_seconds), "1/s"),
    }
    for slot in ("sampling", "features", "prediction"):
        sim[f"sim.{slot}_p50_s"] = (median([getattr(b, slot) for b in breakdowns]), "s")
    busy_wall = open_loop_wall or sum(seconds for _at, seconds in busy)
    layers = {
        **setup_layers,
        **measured_layers(probe, timer, **measured),
        "serve.queue_wait_p50_ms": (1e3 * median(served.waits), "ms"),
        "serve.queue_wait_frac": (
            ratio(sum(served.waits), sum(s for _at, s in served.latencies)),
            "frac",
        ),
        "host.cpu_per_wall": (ratio(cpu, busy_wall), "ratio"),
    }
    return Outcome(
        setup=adjusted_setup,
        ops_per_s=rate,
        latencies=latencies,
        attempted=served.attempted,
        failed=served.failed,
        checks=checks,
        named=named,
        sim=sim,
        layers=layers,
    )


def serve_single(seed: int, seconds: float, trace: bool, scale: float, repeats: int) -> Outcome:
    """Closed loop, one client: uniform users, each served once by ``predict``."""
    (turbo, dataset, _), *setup = set_up(
        lambda marks: deploy(scale, False, marks), repeats, trace
    )
    rng = np.random.default_rng(seed)
    latest = latest_transactions(dataset)
    requests = [audit_request(latest[int(u)]) for u in rng.permutation(sorted(latest))]
    for request in requests[:WARMUP_REQUESTS]:
        turbo.predict(request)
    pool = requests[WARMUP_REQUESTS:]

    probe = serving_probe(turbo)
    timer = OpTimer(trace, seed)
    host = HostSpeed()
    served = Served()
    clock0 = turbo.clock.now()
    cpu0 = time.process_time()
    start = time.perf_counter()
    for request in pool:
        if time.perf_counter() - start >= seconds:
            break
        host.tick()
        served.attempted += 1
        traced = timer.pick()
        t0 = time.perf_counter()
        try:
            with probe.active(traced):
                response = turbo.predict(request)
        except Exception:  # a raised request is a failed operation
            served.failed += 1
            continue
        elapsed = time.perf_counter() - t0
        timer.record(traced, elapsed)
        served.add(request, response, t0, elapsed)
    host.tick(force=True)
    cpu = time.process_time() - cpu0
    clock_seconds = turbo.clock.now() - clock0
    probe.unwrap_all()

    # Re-serve a seeded sample through the other entry point.
    picked = sorted(
        rng.choice(len(served.requests), min(CHECK_SAMPLE, len(served.requests)), replace=False)
    )
    again = turbo.predict_batch([served.requests[i] for i in picked])
    checks = {
        "batch_matches_scalar": all(
            same_answer(served.responses[i], response) for i, response in zip(picked, again)
        ),
    }
    outcome = serving_outcome(
        served, host, setup, served.latencies, cpu, clock_seconds, probe, timer, checks
    )
    outcome.named["pool_exhausted"] = (float(served.attempted == len(pool)), "flag")
    return outcome


def ring_schedule(
    dataset: Dataset, latest: dict[int, Transaction], rng: np.random.Generator, seconds: float
) -> list[tuple[float, PredictRequest]]:
    """Open-loop arrivals: fraud-ring bursts on a fixed Poisson schedule.

    Burst times and sizes come from :data:`SCHEDULE_SEED`, so every run
    offers the same load shape: sizes uniform in 3..:data:`MAX_BURST`,
    times uniform over the run (a Poisson process conditioned on its
    count).  Each burst goes to the least-used fraud ring (datagen ground
    truth) with enough members, ties broken in a seeded order, and the
    seed picks which members apply; burst ``k`` audits their latest
    applications ``(k + 1) * REAUDIT`` after the audit time, so no two
    requests of a run are the same.
    """
    rings: dict[int, list[int]] = {}
    for user in dataset.users:
        if user.ring_id is not None and user.uid in latest:
            rings.setdefault(user.ring_id, []).append(user.uid)
    largest = max(len(members) for members in rings.values())
    shape = np.random.default_rng(SCHEDULE_SEED)
    target = max(1, round(BURST_RATE * seconds))
    sizes: list[int] = []
    while sum(sizes) < target:
        sizes.append(min(int(shape.integers(3, MAX_BURST + 1)), target - sum(sizes), largest))
    arrivals = np.sort(shape.uniform(0.0, seconds, size=len(sizes)))
    rank = {int(ring): k for k, ring in enumerate(rng.permutation(sorted(rings)))}
    used: Counter = Counter()
    schedule = []
    for k, (due, size) in enumerate(zip(arrivals, sizes)):
        eligible = [ring for ring in rings if len(rings[ring]) >= size]
        ring = min(eligible, key=lambda ring: (used[ring], rank[ring]))
        used[ring] += 1
        for uid in rng.permutation(rings[ring])[:size]:
            schedule.append((float(due), audit_request(latest[int(uid)], (k + 1) * REAUDIT)))
    return schedule


def serve_burst(seed: int, seconds: float, trace: bool, scale: float, repeats: int) -> Outcome:
    """Open loop: ring bursts on a fixed schedule, up to 32 due per batch.

    Host-speed probes run only in idle gaps of at least :data:`PROBE_GAP`.
    """
    (turbo, dataset, _), *setup = set_up(
        lambda marks: deploy(scale, False, marks), repeats, trace
    )
    rng = np.random.default_rng(seed)
    latest = latest_transactions(dataset)
    schedule = ring_schedule(dataset, latest, rng, seconds)
    ring_users = {request.uid for _due, request in schedule}
    others = [u for u in sorted(latest) if u not in ring_users]
    turbo.predict_batch(
        [audit_request(latest[int(u)]) for u in rng.choice(others, WARMUP_REQUESTS, replace=False)]
    )

    probe = serving_probe(turbo)
    timer = OpTimer(trace, seed)
    host = HostSpeed()
    host.tick(force=True)
    served = Served()
    clock0 = turbo.clock.now()
    cpu0 = time.process_time()
    start = time.perf_counter()
    i = 0
    while i < len(schedule):
        now = time.perf_counter() - start
        if schedule[i][0] > now:
            if schedule[i][0] - now > PROBE_GAP:
                host.tick()
            time.sleep(max(0.0, schedule[i][0] - (time.perf_counter() - start)))
            continue
        j = i
        while j < len(schedule) and j - i < BATCH_SIZE and schedule[j][0] <= now:
            j += 1
        batch, i = schedule[i:j], j
        served.attempted += len(batch)
        traced = timer.pick()
        began = time.perf_counter()
        try:
            with probe.active(traced):
                answered = turbo.predict_batch([request for _due, request in batch])
        except Exception:  # a raised batch fails every request in it
            served.failed += len(batch)
            continue
        done = time.perf_counter()
        timer.record(traced, done - began, len(batch))
        for (due, request), response in zip(batch, answered):
            served.add(request, response, start + due, done - start - due)
            served.waits.append(max(0.0, began - start - due))
    wall = time.perf_counter() - start
    host.tick(force=True)
    cpu = time.process_time() - cpu0
    clock_seconds = turbo.clock.now() - clock0
    probe.unwrap_all()

    picked = rng.choice(len(served.requests), min(CHECK_SAMPLE, len(served.requests)), replace=False)
    checks = {
        "served_all": served.attempted == len(schedule),
        "scalar_matches_batch": all(
            same_answer(served.responses[i], turbo.predict(served.requests[i]))
            for i in sorted(picked)
        ),
    }
    return serving_outcome(
        served, host, setup, [], cpu, clock_seconds, probe, timer, checks,
        open_loop_wall=wall,
    )


# ----------------------------------------------------------------------
# ingest-stream
# ----------------------------------------------------------------------
def edge_digest(bn: BehaviorNetwork) -> str:
    """Digest of every typed edge's weight and recency, in sorted order."""
    rows = sorted(
        (u, v, btype.value, record.weight.hex(), record.last_update.hex())
        for u, v, btype, record in bn.iter_edges()
    )
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def log_chunks(seed: int, scale: float, marks: dict[str, float]):
    """D1's logs from a seeded first day (0-29) on, cut into 6-hour chunks."""
    start = time.perf_counter()
    dataset = make_d1(scale=scale, seed=DATASET_SEED)
    marks["datagen"] += time.perf_counter() - start
    origin = dataset.start_time + DAY * int(np.random.default_rng(seed).integers(30))
    logs = sorted(
        (log for log in dataset.logs if log.timestamp > origin), key=lambda log: log.timestamp
    )
    times = np.array([log.timestamp for log in logs])
    chunks = []
    lo = 0
    for k in range(int(np.ceil((dataset.end_time - origin) / CHUNK))):
        now = origin + (k + 1) * CHUNK
        hi = int(np.searchsorted(times, now, side="right"))
        chunks.append((logs[lo:hi], now))
        lo = hi
    return origin, chunks, time.perf_counter() - start


def ingest_stream(seed: int, seconds: float, trace: bool, scale: float, repeats: int) -> Outcome:
    """Replay D1's logs in 6-hour chunks from an empty BN with a 60-day TTL.

    Passes repeat until the run time is used (at least two, so the edge
    digest is compared across runs of one seed); traced runs trace every
    other pass.
    """
    (origin, chunks, _), adjusted_setup, wall_setup, layers = set_up(
        lambda marks: log_chunks(seed, scale, marks), repeats, trace
    )
    expected_jobs = sum(int((chunks[-1][1] - origin) // w) for w in FAST_WINDOWS)

    probe = add_ingest_probes(Probe())
    timer = OpTimer(trace, seed)
    host = HostSpeed()
    samples: list[tuple[float, float]] = []
    sim_chunks: list[float] = []
    digests: list[str] = []
    checks: dict[str, bool] = {}
    failed = attempted = logs_done = passes = 0
    cpu = busy = 0.0
    while passes < 2 or busy < seconds:
        traced = trace and passes % 2 == 1
        server = BNServer(
            BNBuilder(windows=FAST_WINDOWS, ttl=TTL, origin=origin), LatencyModel(seed=0)
        )
        cpu0 = time.process_time()
        pass_busy = 0.0
        with probe.active(traced):
            for logs, now in chunks:
                host.tick()
                attempted += 1
                t0 = time.perf_counter()
                try:
                    charged = server.ingest(logs)
                except ValueError:  # an out-of-order batch is rejected
                    failed += 1
                    continue
                _jobs, maintenance = server.run_due_jobs(now)
                elapsed = time.perf_counter() - t0
                pass_busy += elapsed
                samples.append((t0, elapsed))
                sim_chunks.append(charged + maintenance)
                logs_done += len(logs)
        cpu += time.process_time() - cpu0
        busy += pass_busy
        timer.record(traced, pass_busy)
        passes += 1
        bn = server.bn
        checks[f"pass{passes}_edge_counter"] = bn.num_edges() == bn.num_edges_scan()
        checks[f"pass{passes}_one_job_per_epoch"] = server.jobs_run == expected_jobs
        digests.append(edge_digest(bn))
    host.tick(force=True)
    checks["same_digest_every_pass"] = len(set(digests)) == 1
    probe.unwrap_all()

    rate, latencies, named = speed_table(
        host, "ingest_logs_per_s", "ingest_chunk", logs_done, samples, samples
    )
    named["setup_s_wall"] = (median(wall_setup), "s")
    named["ingest_passes"] = (float(passes), "count")
    return Outcome(
        setup=adjusted_setup,
        ops_per_s=rate,
        latencies=latencies,
        attempted=attempted,
        failed=failed,
        checks=checks,
        named=named,
        sim={
            "sim.chunk_p50_s": (median(sim_chunks), "s"),
            "sim.ingest_logs_per_s": (ratio(logs_done, sum(sim_chunks)), "1/s"),
        },
        layers={
            **layers,
            **measured_layers(probe, timer, chunks=len(chunks) * timer.ops[True]),
            "host.cpu_per_wall": (cpu / busy, "ratio"),
        },
    )


# ----------------------------------------------------------------------
# lambda-refresh
# ----------------------------------------------------------------------
@dataclass
class Round:
    """One lambda-refresh round's inputs, built before the timed region."""

    logs: list[BehaviorLog]
    now: float
    before: list[PredictRequest]  # served between ingest and refresh
    after: list[PredictRequest]  # served once the refresh returned


def lambda_rounds(
    dataset: Dataset, latest: dict[int, Transaction], rng: np.random.Generator
) -> list[Round]:
    """Drift chunks remapped onto each round's fresh covered users.

    Users are ranked by their log count (datagen ground truth) and cut into
    one stratum per round slot; each round takes one random user from every
    stratum, so rounds carry alike mixes of light and heavy users.
    """
    scenario = generate_drift_scenario(
        base=GeneratorConfig(n_users=60, span_days=30.0), n_periods=1, seed=DRIFT_SEED
    )
    drift = sorted(scenario.periods[0].dataset.logs, key=lambda log: log.timestamp)
    activity = Counter(log.uid for log in dataset.logs)
    ranked = sorted(latest, key=lambda uid: (activity[uid], uid))
    n_rounds = len(ranked) // (2 * ROUND_USERS)
    strata = [
        rng.permutation(ranked[k * n_rounds : (k + 1) * n_rounds])
        for k in range(2 * ROUND_USERS)
    ]
    rounds = []
    for r in range(n_rounds):
        group = [int(u) for u in rng.permutation([stratum[r] for stratum in strata])]
        start = dataset.end_time + r * ROUND_ADVANCE
        source = [drift[(r * ROUND_LOGS + i) % len(drift)] for i in range(ROUND_LOGS)]
        remap = {
            uid: group[int(rng.integers(len(group)))]
            for uid in sorted({log.uid for log in source})
        }
        logs = [
            BehaviorLog(
                uid=remap[log.uid],
                btype=log.btype,
                value=f"drift:{log.value}",
                timestamp=start + i * HOUR / ROUND_LOGS,
            )
            for i, log in enumerate(source)
        ]
        rounds.append(
            Round(
                logs=logs,
                now=start + ROUND_ADVANCE,
                before=[audit_request(latest[u]) for u in group[:ROUND_USERS]],
                after=[audit_request(latest[u]) for u in group[ROUND_USERS:]],
            )
        )
    return rounds


def lambda_refresh(seed: int, seconds: float, trace: bool, scale: float, repeats: int) -> Outcome:
    """Round after round: ingest + due jobs, serve, incremental refresh, serve."""
    (turbo, dataset, _), *setup = set_up(
        lambda marks: deploy(scale, True, marks), repeats, trace
    )
    lam = turbo.lambda_layer
    rng = np.random.default_rng(seed)
    rounds = lambda_rounds(dataset, latest_transactions(dataset), rng)

    probe = add_ingest_probes(serving_probe(turbo))
    probe.wrap(lambda_layer_module, "build_sampled_graph", "network.sampled_graph.build")
    probe.wrap(
        LambdaLayer,
        "run_incremental_pass",
        "core.lambda.incremental",
        lambda _result, args: {"rows": args[0].last_materialize.rows_computed},
    )
    timer = OpTimer(trace, seed)
    host = HostSpeed()
    served = Served()
    busy: list[tuple[float, float]] = []  # every timed step of every round
    freshness: list[list[tuple[float, float]]] = []  # ingest -> refresh steps
    last_after: list[tuple[PredictRequest, Any]] = []
    logs_done = 0
    hits0, misses0 = lam.hits, sum(lam.misses.values())
    fallthrough0 = lam.fallthrough_nodes
    clock0 = turbo.clock.now()
    cpu = 0.0

    def step(fn: Callable[[], Any]) -> Any:
        host.tick()
        t0 = time.perf_counter()
        result = fn()
        busy.append((t0, time.perf_counter() - t0))
        return result

    def ingest(logs: list[BehaviorLog], now: float) -> None:
        nonlocal logs_done
        served.attempted += 1
        try:
            turbo.bn_server.ingest(logs)
        except ValueError:  # an out-of-order batch is rejected
            served.failed += 1
        else:
            logs_done += len(logs)
        turbo.bn_server.run_due_jobs(now)

    def serve(requests: list[PredictRequest]) -> list[tuple[PredictRequest, Any]]:
        answered = []
        for request in requests:
            host.tick()
            served.attempted += 1
            t0 = time.perf_counter()
            try:
                response = turbo.predict(request)
            except Exception:  # a raised request is a failed operation
                served.failed += 1
                continue
            elapsed = time.perf_counter() - t0
            busy.append((t0, elapsed))
            served.add(request, response, t0, elapsed)
            answered.append((request, response))
        return answered

    for r, work in enumerate(rounds):
        if sum(seconds for _at, seconds in busy) >= seconds:
            break
        traced = timer.pick()
        cpu0 = time.process_time()
        first = len(busy)
        with probe.active(traced):
            step(lambda: ingest(work.logs, work.now))
            serve(work.before)
            step(lambda: lam.run_incremental_pass(work.now))
            freshness.append(busy[first:])
            last_after = serve(work.after)
        cpu += time.process_time() - cpu0
        timer.record(traced, sum(seconds for _at, seconds in busy[first:]))
    done_rounds = len(freshness)
    host.tick(force=True)
    clock_seconds = turbo.clock.now() - clock0
    hits = lam.hits - hits0
    lookups = hits + sum(lam.misses.values()) - misses0
    fallthrough = lam.fallthrough_nodes - fallthrough0
    probe.unwrap_all()

    # Staleness-0 hits of the last round must equal the fresh sampled path.
    exact = [(q, r) for q, r in last_after if r.tier == "lambda" and r.staleness == 0]
    picked = rng.choice(len(exact), min(CHECK_SAMPLE, len(exact)), replace=False)
    turbo.lambda_layer = None
    try:
        fresh = [(exact[i][1], turbo.predict(exact[i][0])) for i in sorted(picked)]
    finally:
        turbo.lambda_layer = lam
    checks = {
        "hits_checked": bool(fresh),
        "hits_match_fresh_path": all(
            same_answer(hit, again) and again.tier == "sampled" for hit, again in fresh
        ),
    }
    outcome = serving_outcome(
        served, host, setup, busy, cpu, clock_seconds, probe, timer, checks,
        chunks=timer.ops[True], passes=timer.ops[True],
    )
    fresh_adjusted = [sum(host.adjust(at, s) for at, s in steps) for steps in freshness]
    busy_adjusted = sum(host.adjust(at, s) for at, s in busy)
    outcome.named.update(
        {
            "ingest_logs_per_s": (ratio(logs_done, busy_adjusted), "1/s"),
            "freshness_p50_s": (median(fresh_adjusted), "s"),
            "freshness_p50_s_wall": (median([sum(s for _at, s in f) for f in freshness]), "s"),
            "lambda_rounds": (float(done_rounds), "count"),
            "pool_exhausted": (float(done_rounds == len(rounds)), "flag"),
        }
    )
    outcome.layers.update(
        {
            "system.lambda.hit_frac": (ratio(hits, lookups), "frac"),
            "system.lambda.fallthrough_nodes": (ratio(fallthrough, len(served.responses)), "1/req"),
            "lambda.freshness_p50_s": (median(fresh_adjusted), "s"),
        }
    )
    return outcome


RUNNERS = {
    "serve-single": serve_single,
    "serve-burst": serve_burst,
    "ingest-stream": ingest_stream,
    "lambda-refresh": lambda_refresh,
}
