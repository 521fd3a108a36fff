"""The ``serve-open-loop`` workload: the ingest server under open-loop load.

Why: this is the only workload that exercises the HTTP/WebSocket front
door -- parsing, admission, per-source sequencing, adaptive batching and
the engine pump -- and the only one where latency under load is the
number a user sees.

The server (:class:`~repro.serve.IngestServer` over an
:class:`~repro.serve.IngestService` and an inline drop-bad engine) runs
on this process's event loop.  Load comes from :mod:`perfbench.loadgen`
in a separate process, over at most ``nproc`` WebSocket connections,
from many sources with per-source ``seq``.  Records carry no timestamp
(the server stamps them) and a short lifespan, so the live pool settles
at about rate x lifespan within the warm-up.

A run is a *nominal* rung at a fixed rate, then a short *ladder* of
higher fixed rates; the ladder stops at the first rate that misses the
decide-p99 limit, sheds, or lets the backlog grow.  Latencies are timed
from each record's scheduled send:

* decide -- to the record's first verdict event on the service's bus;
* ack -- to the server's reply arriving at the generator.

Correctness: after the server drains, a fresh inline engine ``run()``
over the admitted contexts -- in server order, with server timestamps --
must produce the same verdict trail.
"""

from __future__ import annotations

import asyncio
import gc
import json
import math
import os
import shutil
import statistics
import sys
import tempfile
import time
import zlib
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import repro.serve.http as http_module
import repro.serve.service as service_module
from repro.engine import EngineConfig, ShardedEngine
from repro.engine.stream import EngineStream
from repro.middleware.bus import Event
from repro.serve import IngestServer, IngestService, ServeConfig
from repro.serve.admission import AdmissionController

from .catalogue import SERVE_DECIDE_P99_LIMIT_MS
from .gate import VERDICT_EVENTS, check_verdicts, verdict_trail
from .layers import install_core, layer_metrics
from .machine import PeakRss, nproc
from .stats import quantile
from .tenants import TenantPlan, build_deployment
from .tracer import Tracer

__all__ = ["SERVE_SPEC", "ServeSpec", "run_serve"]

LOADGEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "loadgen.py")

#: The nominal rung's latencies come from the least disturbed of this
#: many slices of its window: other tenants of a shared host slow
#: stretches of seconds down and never speed them up, and each slice
#: still leaves more than ten samples beyond its p99.
WINDOW_PARTS = 3


@dataclass(frozen=True)
class ServeSpec:
    plan: TenantPlan
    #: Offered rate of the nominal rung (contexts/s).
    nominal_rate: float
    #: Ladder rates above the nominal one, tried in order.
    ladder: Tuple[float, ...]
    #: Availability period stamped on every record (server seconds).
    lifespan: float
    use_delay: float
    #: Share of ``--seconds`` given to the nominal rung; the ladder
    #: splits the rest.
    nominal_share: float = 0.5
    warmup_s: float = 1.0
    ladder_warmup_s: float = 0.5
    #: Backlog growth: last-quarter mean depth above first-quarter mean
    #: by more than this many contexts.
    backlog_slack: int = 64
    setup_repeats: int = 10
    serve: ServeConfig = field(default_factory=lambda: ServeConfig(port=0))

    def connections(self) -> int:
        return max(1, min(2, nproc()))

    def nominal_s(self, seconds: float, trace: bool) -> float:
        """A traced run measures two nominal rungs: untraced, traced."""
        return seconds * (0.4 if trace else self.nominal_share)

    def ladder_rung_s(self, seconds: float) -> float:
        return seconds * (1 - self.nominal_share) / len(self.ladder)

    def records_needed(self, seconds: float, trace: bool) -> int:
        nominal = self.nominal_rate * self.nominal_s(seconds, trace)
        if trace:
            return int(2 * nominal) + 2
        rung = self.ladder_rung_s(seconds)
        return int(nominal) + sum(int(rate * rung) for rate in self.ladder) + 2

    def as_record(self) -> dict:
        return {
            "plan": self.plan.as_record(),
            "nominal_rate": self.nominal_rate,
            "ladder": list(self.ladder),
            "lifespan": self.lifespan,
            "use_delay": self.use_delay,
            "nominal_share": self.nominal_share,
            "warmup_s": self.warmup_s,
            "ladder_warmup_s": self.ladder_warmup_s,
            "backlog_slack": self.backlog_slack,
            "decide_p99_limit_ms": SERVE_DECIDE_P99_LIMIT_MS,
            "connections": self.connections(),
            "batch_max_size": self.serve.batch_max_size,
            "batch_max_delay": self.serve.batch_max_delay,
            "max_queue_depth": self.serve.max_queue_depth,
        }


SERVE_SPEC = ServeSpec(
    plan=TenantPlan(tenants_per_pack=1, shared_types=True, jitter=5.0),
    nominal_rate=300.0,
    ladder=(500.0, 600.0, 800.0),
    lifespan=2.0,
    use_delay=0.5,
)


def _records(spec: ServeSpec, seed: int, connections: int, needed: int):
    """Wire records in send order, with per-source ``seq`` and the
    connection each source is pinned to; enough tenants are replicated
    to supply ``needed`` records."""
    tenants = spec.plan.tenants_per_pack
    while True:
        plan = replace(spec.plan, tenants_per_pack=tenants)
        deployment = build_deployment(plan, seed)
        if len(deployment.contexts) >= needed:
            break
        per_tenant = len(deployment.contexts) / tenants
        tenants = max(tenants + 1, math.ceil(1.05 * needed / per_tenant))
    seqs: Dict[str, int] = {}
    records = []
    for ctx in deployment.contexts:
        seq = seqs.get(ctx.source, 0)
        seqs[ctx.source] = seq + 1
        records.append(
            {
                "ctx_id": ctx.ctx_id,
                "ctx_type": ctx.ctx_type,
                "subject": ctx.subject,
                "value": list(ctx.value) if isinstance(ctx.value, tuple) else ctx.value,
                "lifespan": spec.lifespan,
                "source": ctx.source,
                "seq": seq,
                "corrupted": ctx.corrupted,
                "attributes": [list(a) for a in ctx.attributes],
                "conn": zlib.crc32(ctx.source.encode()) % connections,
            }
        )
    return records, deployment


class _Host:
    """Engine + service + server, with the benchmark's observation hooks."""

    def __init__(self, spec: ServeSpec, deployment) -> None:
        self.spec = spec
        self.deployment = deployment
        self.engine = self.build_engine()
        self.service = IngestService(self.engine, config=spec.serve)
        self.server = IngestServer(self.service)
        self.trail: List[Tuple[str, str]] = []
        self.verdict_at: Dict[str, float] = {}
        self.admitted = []
        stream = self.service.stream
        stream.bus.subscribe(Event, self._on_event)

        def submit(contexts):
            # Server order, server timestamps: the reference run's input.
            # The class attribute is looked up per call, so a traced
            # run's wrapper on EngineStream.submit still sees the call.
            self.admitted.extend(contexts)
            return EngineStream.submit(stream, contexts)

        stream.submit = submit

    def build_engine(self) -> ShardedEngine:
        return ShardedEngine(
            self.deployment.constraints,
            strategy="drop-bad",
            registry_factory=self.deployment.registry_factory,
            config=EngineConfig(
                shards=1, mode="inline", use_delay=self.spec.use_delay
            ),
        )

    def _on_event(self, event: Event) -> None:
        if isinstance(event, VERDICT_EVENTS):
            ctx_id = event.context.ctx_id
            self.trail.append((type(event).__name__, ctx_id))
            if ctx_id not in self.verdict_at:
                self.verdict_at[ctx_id] = time.perf_counter()


class _LoopClock:
    """Time the event loop spends outside ``select`` (busy time)."""

    def __init__(self, loop) -> None:
        self.selector = loop._selector
        self.original = self.selector.select
        self.idle = 0.0

        def select(timeout=None):
            started = time.perf_counter()
            try:
                return self.original(timeout)
            finally:
                self.idle += time.perf_counter() - started

        self.selector.select = select

    def close(self) -> None:
        self.selector.select = self.original


async def _sample_backlog(service, samples: List[Tuple[float, int]]) -> None:
    while True:
        samples.append((time.perf_counter(), service.queue_depth()))
        await asyncio.sleep(0.02)


@dataclass
class Rung:
    rate: float
    #: When the rung's first record was due (generator clock).
    t0: float
    window_start: float
    window_end: float
    decide_ms: List[float]
    ack_ms: List[float]
    late_ms: List[float]
    shed: int
    backlog_growth: float
    decided_per_s: float
    #: From the rung command to the generator's report.
    wall_s: float
    #: Event-loop time outside ``select`` during ``wall_s``.
    busy_s: float
    backlog_max: int

    @property
    def decide_p99(self) -> float:
        return quantile(self.decide_ms, 0.99)

    def settled(self, values: List[float], q: float) -> float:
        """``q``-quantile of the least disturbed of ``WINDOW_PARTS``
        consecutive slices of the measured window (see ``WINDOW_PARTS``)."""
        size = len(values) // WINDOW_PARTS
        if not size:
            return quantile(values, q)
        return min(
            quantile(values[part * size : (part + 1) * size], q)
            for part in range(WINDOW_PARTS)
        )

    def passes(self, slack: int) -> bool:
        return (
            self.decide_p99 <= SERVE_DECIDE_P99_LIMIT_MS
            and self.shed == 0
            and self.backlog_growth <= slack
        )


class _Session:
    """One generator process plus the rungs run through it."""

    def __init__(self, spec, host: _Host, records, workdir) -> None:
        self.spec = spec
        self.host = host
        self.records = records
        self.workdir = workdir
        self.cursor = 0
        self.backlog: List[Tuple[float, int]] = []
        self.proc = None
        self.rungs: List[Rung] = []

    async def start(self, port: int) -> None:
        self.proc = await asyncio.create_subprocess_exec(
            sys.executable,
            LOADGEN,
            "--port",
            str(port),
            "--connections",
            str(self.spec.connections()),
            stdin=asyncio.subprocess.PIPE,
            stdout=asyncio.subprocess.PIPE,
            limit=1 << 26,
        )
        line = await asyncio.wait_for(self.proc.stdout.readline(), 30.0)
        if not json.loads(line or b"{}").get("ready"):
            raise RuntimeError("load generator did not start")

    async def stop(self) -> None:
        proc = self.proc
        if proc is None:
            return
        if proc.returncode is None:
            try:
                proc.stdin.write(b'{"quit": true}\n')
                await proc.stdin.drain()
                await asyncio.wait_for(proc.wait(), 10.0)
            except (asyncio.TimeoutError, ConnectionError, OSError):
                proc.kill()
                await proc.wait()

    async def rung(
        self, rate: float, duration: float, warmup: float, busy: "_LoopClock"
    ) -> Rung:
        count = int(rate * duration)
        if self.cursor + count > len(self.records):
            raise RuntimeError("not enough generated records for the rung")
        first = self.cursor
        chunk = self.records[first : first + count]
        self.cursor += count
        path = os.path.join(self.workdir, f"rung-{first}.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            for record in chunk:
                handle.write(json.dumps(record) + "\n")
        idle_before = busy.idle
        started = time.perf_counter()
        self.proc.stdin.write(
            (json.dumps({"rate": rate, "records": path}) + "\n").encode()
        )
        await self.proc.stdin.drain()
        line = await asyncio.wait_for(self.proc.stdout.readline(), duration + 90)
        ended = time.perf_counter()
        result = json.loads(line)
        os.remove(path)
        busy_s = (ended - started) - (busy.idle - idle_before)
        await self._settle()
        t0 = result["t0"]
        window_start = t0 + warmup
        window_end = t0 + count / rate
        decide, ack, late = [], [], []
        verdict_at = self.host.verdict_at
        give_up = time.perf_counter()
        for i, record in enumerate(chunk):
            due = t0 + i / rate
            if due < window_start:
                continue
            decided = verdict_at.get(record["ctx_id"], give_up)
            decide.append((decided - due) * 1e3)
            acked = result["ack_ms"][i]
            ack.append(acked if acked is not None else (give_up - due) * 1e3)
            late.append(result["late_ms"][i])
        shed = sum(1 for s in result["status"] if s != "admitted")
        depths = [d for t, d in self.backlog if window_start <= t <= window_end]
        backlog_max = max(
            (d for t, d in self.backlog if started <= t <= ended), default=0
        )
        quarter = max(1, len(depths) // 4)
        growth = (
            statistics.fmean(depths[-quarter:]) - statistics.fmean(depths[:quarter])
            if depths
            else 0.0
        )
        decided_at = sorted(
            verdict_at[r["ctx_id"]]
            for r in chunk
            if window_start <= verdict_at.get(r["ctx_id"], -1.0) <= window_end
        )
        decided_per_s = (
            (len(decided_at) - 1) / (decided_at[-1] - decided_at[0])
            if len(decided_at) > 1
            else 0.0
        )
        rung = Rung(
            rate=rate,
            t0=t0,
            window_start=window_start,
            window_end=window_end,
            decide_ms=decide,
            ack_ms=ack,
            late_ms=late,
            shed=shed,
            backlog_growth=growth,
            decided_per_s=decided_per_s,
            wall_s=ended - started,
            busy_s=busy_s,
            backlog_max=backlog_max,
        )
        self.rungs.append(rung)
        return rung

    async def _settle(self, timeout: float = 20.0) -> None:
        """Wait until everything admitted went through check+resolve
        (each admitted record then has its first verdict)."""
        deadline = time.perf_counter() + timeout
        while (
            self.host.service.queue_depth()
            and time.perf_counter() < deadline
        ):
            await asyncio.sleep(0.01)


def _install_serve(tracer: Tracer, host: _Host, waits: List[float], sizes: List[int]):
    service = host.service

    def before_submit(args, _kwargs):
        now = time.perf_counter()
        pending = service._pending
        sizes.append(len(args[1]))
        for ctx in args[1]:
            admitted_at = pending.get(ctx.ctx_id)
            if admitted_at is not None:
                waits.append((now - admitted_at) * 1e3)

    install_core(tracer, "drop-bad")
    tracer.wrap(service_module, "context_from_record", "serve.parse")
    tracer.wrap(http_module.IngestServer, "_submit_ws_message", "serve.ws_message")
    tracer.wrap(http_module, "_ws_write_frame", "serve.ws_write")
    tracer.wrap(IngestService, "submit_record", "serve.submit_record")
    tracer.wrap(AdmissionController, "admit", "serve.admit")
    tracer.wrap(EngineStream, "submit", "serve.submit", before=before_submit)


def run_serve(spec: ServeSpec, seed: int, seconds: float, trace: bool, workdir: str, log) -> dict:
    """One benchmark run of ``serve-open-loop``; returns the result parts."""
    return asyncio.run(_run(spec, seed, seconds, trace, workdir, log))


async def _run(spec, seed, seconds, trace, workdir, log) -> dict:
    records, deployment = _records(
        spec, seed, spec.connections(), spec.records_needed(seconds, trace)
    )
    log(f"serve-open-loop: {len(records)} records generated")
    run_dir = tempfile.mkdtemp(prefix="serve-", dir=workdir)
    loop = asyncio.get_running_loop()
    setups: List[float] = []
    host: Optional[_Host] = None
    for attempt in range(spec.setup_repeats):
        if host is not None:
            await host.server.shutdown()
        started = time.perf_counter()
        host = _Host(spec, deployment)
        _, port = await host.server.start()
        setups.append(time.perf_counter() - started)
    session = _Session(spec, host, records, run_dir)
    # The generated records and the set-up objects live for the whole
    # run; freezing them keeps the collector from rescanning benchmark
    # data while the program is measured.
    gc.collect()
    gc.freeze()
    sampler = loop.create_task(_sample_backlog(host.service, session.backlog))
    busy = _LoopClock(loop)
    rss = PeakRss()
    tracer: Optional[Tracer] = None
    traced: Optional[Rung] = None
    waits: List[float] = []
    sizes: List[int] = []
    try:
        await session.start(port)
        rss.start()
        if trace:
            duration = spec.nominal_s(seconds, trace)
            nominal = await session.rung(
                spec.nominal_rate, duration, spec.warmup_s, busy
            )
            tracer = Tracer()
            _install_serve(tracer, host, waits, sizes)
            try:
                traced = await session.rung(
                    spec.nominal_rate, duration, spec.warmup_s, busy
                )
            finally:
                tracer.restore()
            sustained = 0.0
        else:
            nominal = await session.rung(
                spec.nominal_rate,
                spec.nominal_s(seconds, trace),
                spec.warmup_s,
                busy,
            )
            passing = [nominal] if nominal.passes(spec.backlog_slack) else []
            rung_s = spec.ladder_rung_s(seconds)
            if passing:
                for rate in spec.ladder:
                    rung = await session.rung(rate, rung_s, spec.ladder_warmup_s, busy)
                    if not rung.passes(spec.backlog_slack):
                        break
                    passing.append(rung)
            sustained = passing[-1].decided_per_s if passing else 0.0
        rss_mb = rss.stop()
    finally:
        busy.close()
        await session.stop()
        sampler.cancel()
        await asyncio.gather(sampler, return_exceptions=True)
        drain = await host.server.shutdown()
        shutil.rmtree(run_dir, ignore_errors=True)
        gc.unfreeze()
    sent = [r["ctx_id"] for r in records[: session.cursor]]
    reference = verdict_trail(host.build_engine().run(host.admitted).events)
    gate = check_verdicts(sent, host.trail, reference)
    if drain.get("lost"):
        log(f"drain lost {drain['lost']} admitted contexts")
    ladder = [
        {
            "rate": r.rate,
            "decided_per_s": r.decided_per_s,
            "decide_p50_ms": quantile(r.decide_ms, 0.5),
            "decide_p99_ms": r.decide_p99,
            "ack_p99_ms": quantile(r.ack_ms, 0.99),
            "late_p99_ms": quantile(r.late_ms, 0.99),
            "shed": r.shed,
            "backlog_growth": r.backlog_growth,
            "samples": len(r.decide_ms),
            "loop_busy_share": r.busy_s / r.wall_s,
            "passes": r.passes(spec.backlog_slack),
        }
        for r in session.rungs
    ]
    for row in ladder:
        log(
            "rung {rate:.0f}/s: decided {decided_per_s:.1f}/s decide p50 "
            "{decide_p50_ms:.2f} ms p99 {decide_p99_ms:.2f} ms ack p99 "
            "{ack_p99_ms:.2f} ms late p99 {late_p99_ms:.2f} ms shed {shed} "
            "backlog +{backlog_growth:.1f} busy {loop_busy_share:.0%} "
            "n={samples} {verdict}".format(
                verdict="pass" if row["passes"] else "FAIL", **row
            )
        )
    e2e = {
        "ctx_per_s": nominal.decided_per_s,
        "setup_s": statistics.median(setups),
        "decide_p50_ms": nominal.settled(nominal.decide_ms, 0.5),
        "decide_p95_ms": nominal.settled(nominal.decide_ms, 0.95),
        "ack_p50_ms": nominal.settled(nominal.ack_ms, 0.5),
        "sustained_rate": sustained,
        "peak_rss_mb": rss_mb,
    }
    detail = {
        "records_sent": len(sent),
        "tenants": deployment.tenants,
        "decide_samples": len(nominal.decide_ms),
        "decide_samples_per_slice": len(nominal.decide_ms) // WINDOW_PARTS,
        "decide_p99_ms": nominal.settled(nominal.decide_ms, 0.99),
        "ack_p99_ms": nominal.settled(nominal.ack_ms, 0.99),
        "rungs": ladder,
        "drain": drain,
        "setup_s": setups,
        "failed_share": gate.failed / max(1, gate.attempted),
    }
    if gate.first_mismatch:
        detail["first_mismatch"] = gate.first_mismatch
    outcome = {"gate": gate, "e2e": e2e, "detail": detail}
    if trace:
        outcome.update(
            _trace_outcome(tracer, traced, nominal, waits, sizes, len(sent), log)
        )
        # The traced rung's verdicts are part of the gated trail.
        outcome["trace_gate"] = gate
    return outcome


def _trace_outcome(tracer, traced: Rung, untraced: Rung, waits, sizes, sent, log):
    wall = traced.wall_s
    table = tracer.table(wall)
    log("per-layer table (traced nominal rung, event-loop thread):\n" + table.format())
    if not table.ok:
        log("WARNING: span self times plus gaps miss the wall by more than 5%")
    parse = table.row("serve.parse").total_s + table.row("serve.ws_message").self_s
    extra = {
        "serve.parse.s": parse,
        "serve.admit.s": table.row("serve.admit").total_s,
        "serve.shed": float(traced.shed),
        "serve.batch.size_mean": statistics.fmean(sizes) if sizes else 0.0,
        "serve.queue_wait_p99_ms": quantile(waits, 0.99),
        "serve.submit.s": table.row("serve.submit").total_s,
        "serve.loop_busy_share": traced.busy_s / wall,
        "serve.backlog_max": float(traced.backlog_max),
        "loadgen.late_p99_ms": quantile(traced.late_ms, 0.99),
        "serve.decide_p99_ms": untraced.settled(untraced.decide_ms, 0.99),
        "serve.ack_p99_ms": untraced.settled(untraced.ack_ms, 0.99),
        "loadgen.sent": float(sent),
        # Open loop: the wall is fixed by the schedule, so the overhead
        # is the event loop's busy time, traced over untraced.
        "trace.overhead_ratio": traced.busy_s / untraced.busy_s
        if untraced.busy_s
        else 0.0,
        "trace.sum_to_wall_error": table.sum_to_wall_error,
        "trace.wall_s": wall,
    }
    contexts = int(traced.rate * wall)
    layers = layer_metrics([table], [tracer], len(traced.decide_ms) or 1, extra)
    layers["middleware.bus.events_per_ctx"] = (
        table.row("middleware.bus.publish").count / contexts if contexts else 0.0
    )
    return {"layers": layers, "spans": {"serve": tracer}, "tables": [table]}
