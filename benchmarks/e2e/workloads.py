"""The benchmark's four workloads and the closed-loop driver that runs them.

Every workload goes through the public ``EncryptedXMLDatabase`` facade on
XMark documents from ``generate_document(scale, seed=4242)`` (scale 0.05
gives 598 nodes, 1.0 gives 10,918), encoded the paper's way (``p=83, e=1``,
the XMark DTD alphabet, ``DEFAULT_ENCODING_SEED``) onto a (2,3) Shamir
fleet with verification on and the read quorum at all three servers.  The
kernel backend is the library's own auto-selection.

One client thread issues one operation at a time with no think time.  The
seed only permutes a fixed multiset of operations, so every seed, and both
sides of a comparison, do the same work.  Each operation is measured in
instructions, scaled CPU time and wall time (see ``measure.py``).
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import random
import resource
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.core.config import (
    ClusterConfig,
    DatabaseConfig,
    FieldConfig,
    TransportConfig,
    WriteConfig,
)
from repro.core.database import EncryptedXMLDatabase
from repro.experiments.workloads import (
    DEFAULT_ENCODING_SEED,
    PAPER_E,
    PAPER_P,
    TABLE1_QUERIES,
    TABLE2_QUERIES,
)
from repro.xmark.generator import generate_document
from repro.xmldoc.dtd import XMARK_DTD
from repro.xmldoc.nodes import XMLElement

from measure import DeploymentClock, InstructionCounter, Speed, pinned_to_one_cpu, tail
from spans import LAYER_NAMES, Span, Tracer, layer_totals

#: the paper's query mix: Table 1 prefix paths and Table 2 ``//``/``*``
#: paths, on both engines, under containment and equality (56 variants)
VARIANTS: Tuple[Tuple[str, str, bool], ...] = tuple(
    (query, engine, strict)
    for query in TABLE1_QUERIES + TABLE2_QUERIES
    for engine in ("simple", "advanced")
    for strict in (False, True)
)

#: untimed, before every measured phase
WARMUP = tuple((query, "advanced", False) for query in TABLE1_QUERIES)

DOCUMENT_SEED = 4242

#: the write mix renames a leaf carrying one of these tags to the next one,
#: inserts <emailaddress/> and deletes leaves; renames keep the tree's shape
#: and inserts balance deletes, so the reads cost about the same throughout
UPDATE_TAGS = ("city", "name", "date", "price")
#: the share of inserts among the writes, and of deletes; the rest rename
INSERT_SHARE = 0.15
INSERTED_TAG = "emailaddress"

#: writes in a ``--quick`` run of the write mix
QUICK_WRITES = 10

#: calibrations on each side of a timed build (their median scales it)
SETUP_CALIBRATIONS = 5


@dataclass(frozen=True)
class Workload:
    name: str
    scale: float
    transport: str = "simulated"
    writes: bool = False
    #: ``from_document`` builds timed for ``setup_s`` (the median is reported)
    builds: int = 5
    #: seconds one unit of work takes on the reference machine while its
    #: neighbours slow it (calibration speed about 0.55): a pass of the 56
    #: variants, or for the write mix 56 writes each followed by a read.
    #: ``--seconds`` divided by it fixes the number of units, so a faster
    #: program does the same work in less time.
    unit_seconds: float = 1.0
    #: units a measured run never goes below, whatever ``--seconds`` says
    min_units: int = 1


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        # small candidate sets: per-call fixed costs; the share LRU holds
        # most of the working set
        Workload("paper_mix_598", 0.05, unit_seconds=1.05),
        # big batches: field arithmetic and 0.5 MB per query; the working
        # set dwarfs the 256-entry share LRU.  Two passes at least, so that
        # every variant runs twice and the tail (p90) has 11 samples beyond it
        Workload("paper_mix_10918", 1.0, builds=3, unit_seconds=17.5, min_units=2),
        # the write path, and reads right after a commit evicted caches
        Workload("write_mix_598", 0.05, writes=True, unit_seconds=3.6),
        # the only real wire: three subprocess servers on the asyncio mux
        Workload("fleet_mix_598", 0.05, transport="asyncio", builds=3, unit_seconds=1.8),
    )
}


def config_for(workload: Workload) -> DatabaseConfig:
    return DatabaseConfig(
        field=FieldConfig(
            tag_names=XMARK_DTD.element_names(),
            seed=DEFAULT_ENCODING_SEED,
            p=PAPER_P,
            e=PAPER_E,
        ),
        cluster=ClusterConfig(servers=3, threshold=2, sharing="shamir"),
        transport=TransportConfig(transport=workload.transport),
        write=WriteConfig(enabled=workload.writes),
    )


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------


def shuffled_pass(rng: random.Random) -> List[Tuple[str, str, bool]]:
    order = list(VARIANTS)
    rng.shuffle(order)
    return order


def write_block(rng: random.Random, count: int) -> List[Tuple[str, float]]:
    """``count`` writes as (kind, position quantile), permuted.

    The kinds come in fixed proportions and each kind's positions are
    stratified over the document, so every block costs about the same.
    Inserts and deletes alternate at seed-chosen slots among the renames,
    so the tree is back to its size after every block and never more than
    one node off it: the bytes a write or a read moves then hardly depend
    on the seed.
    """
    pairs = round(INSERT_SHARE * count)

    def positions(kind: str, number: int) -> List[Tuple[str, float]]:
        writes = [(kind, (index + 0.5) / number) for index in range(number)]
        rng.shuffle(writes)
        return writes

    renames = iter(positions("update_tag", count - 2 * pairs))
    inserts, deletes = positions("insert_subtree", pairs), positions("delete_subtree", pairs)
    structural = iter([write for pair in zip(inserts, deletes) for write in pair])
    slots = set(rng.sample(range(count), 2 * pairs))
    return [next(structural) if slot in slots else next(renames) for slot in range(count)]


def plan(workload: Workload, seed: int, seconds: float, quick: bool, trace: bool):
    """The operations of one run, in segments of equal composition.

    A segment is a pass of the query mix, or for the write mix a block of
    writes each followed by a read from a pass.  A traced run alternates
    untraced and traced segments, so it needs two at least.
    """
    rng = random.Random(seed)
    units = 1 if quick else max(workload.min_units, round(seconds / workload.unit_seconds))
    if trace:
        units = max(2, units)
    segments = []
    for _ in range(units):
        reads = [("query", variant) for variant in shuffled_pass(rng)]
        if workload.writes:
            writes = write_block(rng, QUICK_WRITES // units if quick else len(VARIANTS))
            reads = [op for write, read in zip(writes, reads) for op in (("write", write), read)]
        segments.append(reads)
    return segments


# ----------------------------------------------------------------------
# Setup
# ----------------------------------------------------------------------


class Builds(NamedTuple):
    """The timed builds of one run, one entry per build."""

    #: scaled CPU seconds: this process's over the build plus the whole life
    #: so far of the servers it spawned, scaled by calibrations just before
    #: and after it
    cpu: List[float]
    wall: List[float]
    #: instructions, the servers' included
    instructions: List[int]
    #: spans of the last build, when traced
    spans: List[Span]


def build(workload: Workload, builds: int, tracer: Optional[Tracer], speed: Speed,
          counter: InstructionCounter):
    """Time ``builds`` from-scratch deployments; returns the last database
    and the :class:`Builds`.

    Each build encodes a freshly generated document (the write path edits
    the tree in place), after a full collection, so every build starts from
    the same heap.
    """
    timed = Builds([], [], [], [])
    db = None
    for index in range(builds):
        if db is not None:
            db.close()
            db = None
        document = generate_document(workload.scale, seed=DOCUMENT_SEED)
        gc.collect()
        before = statistics.median(speed.sample() for _ in range(SETUP_CALIBRATIONS))
        traced = tracer is not None and index == builds - 1
        if traced:
            tracer.op = "setup"
            tracer.start()
        instructions_started = counter()
        cpu_started, started = time.process_time_ns(), time.perf_counter()
        try:
            db = EncryptedXMLDatabase.from_document(document, config=config_for(workload))
        finally:
            timed.wall.append(time.perf_counter() - started)
            if traced:
                tracer.stop()
                tracer.op = None
                timed.spans[:] = tracer.drain()
        cpu = (DeploymentClock(db)() - cpu_started) / 1e9
        timed.instructions.append(counter() - instructions_started)
        after = statistics.median(speed.sample() for _ in range(SETUP_CALIBRATIONS))
        timed.cpu.append(Speed.scale(cpu, before, after))
    return db, timed


# ----------------------------------------------------------------------
# The measured phase
# ----------------------------------------------------------------------


class Segment(NamedTuple):
    """One measured segment; times in seconds, checks and calibrations excluded."""

    traced: bool
    ops: int
    wall: float
    #: summed wall time of the operations themselves
    op_wall: float
    #: process CPU, every thread
    cpu: float


def _matches_ok(matches, truth, strict: bool) -> bool:
    found = set(matches)
    return found == set(truth) if strict else found >= set(truth)


class Phase:
    """Runs segments of operations against one database and checks them."""

    def __init__(self, db: EncryptedXMLDatabase, workload: Workload, tracer: Optional[Tracer],
                 speed: Speed, counter: InstructionCounter):
        self.db = db
        self.workload = workload
        self.tracer = tracer
        self.speed = speed
        self.counter = counter
        self.clock = DeploymentClock(db)
        #: per operation kind: wall seconds, scaled deployment CPU seconds,
        #: and deployment instructions
        self.latencies: Dict[str, List[float]] = {"query": [], "write": []}
        self.cpu: Dict[str, List[float]] = {"query": [], "write": []}
        self.instructions: Dict[str, List[int]] = {"query": [], "write": []}
        self.failures: List[str] = []
        self.failed_ops = 0
        self.rows_touched = 0
        #: (query, engine, strict) -> matches of its first execution
        self.results: Dict[Tuple[str, str, bool], Tuple[int, ...]] = {}
        self._truth: Dict[str, List[int]] = {}
        self.segments: List[Segment] = []
        #: layer totals summed over traced segments, and the first one's spans
        self.totals: Dict[str, List[int]] = {layer: [0, 0, 0, 0] for layer in LAYER_NAMES}
        self.first_traced_spans: Optional[List[Span]] = None

    def run_segment(self, ops, traced: bool) -> None:
        tracer = self.tracer if traced else None
        if tracer is not None:
            tracer.start()
        try:
            wall, op_wall, cpu = self._run_ops(ops, tracer)
        finally:
            if tracer is not None:
                tracer.stop()
        if tracer is not None:
            spans = tracer.drain()
            for layer, totals in layer_totals(spans, tracer.client_thread).items():
                entry = self.totals[layer]
                for position, value in enumerate(totals):
                    entry[position] += value
            if self.first_traced_spans is None:
                self.first_traced_spans = spans
        self.segments.append(Segment(traced, len(ops), wall, op_wall, cpu))

    @property
    def ops(self) -> int:
        return sum(segment.ops for segment in self.segments)

    def _run_ops(self, ops, tracer: Optional[Tracer]) -> Tuple[float, float, float]:
        """(wall, summed op wall, process CPU) of ``ops``; checks and
        calibrations excluded."""
        check_wall = check_cpu = op_wall = 0.0
        clock, counter = self.clock, self.counter
        calibrated = self.speed.sample()
        started, cpu_started = time.perf_counter(), time.process_time()
        for index, (kind, spec) in enumerate(ops):
            if tracer is not None:
                tracer.op = index
            op_started, op_cpu_started, op_instructions_started = time.perf_counter(), clock(), counter()
            try:
                outcome = self._write(spec) if kind == "write" else self._query(spec)
                error = None
            except Exception as exc:  # the op failed; counted, the run goes on
                outcome, error = None, exc
            self.instructions[kind].append(counter() - op_instructions_started)
            op_cpu = (clock() - op_cpu_started) / 1e9
            elapsed = time.perf_counter() - op_started
            op_wall += elapsed
            self.latencies[kind].append(elapsed)
            check_started, check_cpu_started = time.perf_counter(), time.process_time()
            if tracer is not None:
                tracer.op = None
                tracer.enabled = False
            previous, calibrated = calibrated, self.speed.sample()
            self.cpu[kind].append(Speed.scale(op_cpu, previous, calibrated))
            problem = "%s raised %r" % (kind, error) if error is not None else self._check(kind, spec, outcome)
            if problem is not None:
                self.failed_ops += 1
                self.failures.append("%s %r: %s" % (kind, spec, problem))
            if tracer is not None:
                tracer.enabled = True
            check_wall += time.perf_counter() - check_started
            check_cpu += time.process_time() - check_cpu_started
        wall = time.perf_counter() - started - check_wall
        cpu = time.process_time() - cpu_started - check_cpu
        return wall, op_wall, cpu

    def _query(self, variant):
        query, engine, strict = variant
        return self.db.query(query, engine=engine, strict=strict).matches

    def _write(self, spec):
        kind, quantile = spec
        count = self.db.document_state.node_count
        pre = 2 + min(count - 2, int(quantile * (count - 1)))  # never the root
        if kind == "insert_subtree":
            return self.db.insert_subtree(pre, XMLElement(INSERTED_TAG))
        if kind == "update_tag":
            target = self._first_at_or_after(pre, lambda node: node.tag in UPDATE_TAGS)
            tag = self.db.document_state.node_at(target).tag
            return self.db.update_tag(target, UPDATE_TAGS[(UPDATE_TAGS.index(tag) + 1) % len(UPDATE_TAGS)])
        return self.db.delete_subtree(self._first_at_or_after(pre, lambda node: not node.children))

    def _first_at_or_after(self, pre: int, wanted) -> int:
        """The first pre from ``pre`` on (wrapping past the end) whose node is ``wanted``."""
        state = self.db.document_state
        count = state.node_count
        for candidate in list(range(pre, count + 1)) + list(range(2, pre)):
            if wanted(state.node_at(candidate)):
                return candidate
        raise LookupError("no node from pre %d on qualifies" % pre)

    def _check(self, kind: str, spec, outcome) -> Optional[str]:
        if kind == "write":
            self.rows_touched += outcome["rows"]
            if outcome["failed"] or len(outcome["committed"]) != self.db.num_servers:
                return "commit reached %s of %d servers" % (outcome["committed"], self.db.num_servers)
            return None
        query, _, strict = spec
        if self.workload.writes:
            truth = self.db.plaintext_query(query)
        else:
            truth = self._truth.get(query)
            if truth is None:
                truth = self._truth[query] = self.db.plaintext_query(query)
            first = self.results.setdefault(spec, tuple(outcome))
            if first != tuple(outcome):
                return "result differs from the same query's first run"
        if not _matches_ok(outcome, truth, strict):
            return "%d matches against %d in the plaintext" % (len(outcome), len(truth))
        return None

    def digest(self) -> Optional[str]:
        """sha256 over sorted (query, engine, rule) -> matches, read-only mixes."""
        if self.workload.writes:
            return None
        rows = sorted(
            [query, engine, "strict" if strict else "containment", list(matches)]
            for (query, engine, strict), matches in self.results.items()
        )
        return hashlib.sha256(json.dumps(rows).encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# End-of-run checks
# ----------------------------------------------------------------------


def server_rows_problems(db: EncryptedXMLDatabase) -> List[str]:
    """Every server's rows against the re-encode oracle (write mix)."""
    state = db.document_state
    problems = []
    for index, server in enumerate(db.server_filters):
        pres = list(range(1, server.node_count() + 1))
        rows = []
        for pre, info, share, version in zip(
            pres, server.node_infos(pres), server.fetch_shares_batch(pres), server.row_versions(pres)
        ):
            row = {"pre": pre, "post": info["post"], "parent": info["parent"], "share": tuple(share)}
            if version:
                row["version"] = version
            rows.append(row)
        if rows != state.expected_rows(index):
            problems.append("server %d rows differ from the re-encode oracle" % index)
    return problems


def leftover_children() -> Optional[str]:
    """A child process (a fleet server) still running, if any.

    Reaps children that have exited on the way.
    """
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return None
        if pid == 0:
            return "a child process is still running"


def _cache_hits(db: EncryptedXMLDatabase) -> Tuple[int, int, int, int]:
    """(share LRU hits, misses, PRG memo hits, misses) so far."""
    hits = misses = 0
    for server in db.server_filters:  # empty for a subprocess fleet
        info = server.share_cache_info()
        hits += info["hits"]
        misses += info["misses"]
    memo = db.encoded.prg.cache_info()
    return hits, misses, memo["hits"], memo["misses"]


def _rate(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def phase_counts(db: EncryptedXMLDatabase, phase: Phase, caches_before) -> Dict[str, Tuple[float, str]]:
    """The per-layer counts, from the program's own counters, over the phase."""
    ops = phase.ops
    stats = db.transport_stats
    counters = db.counters.snapshot()
    share_hits, share_misses, memo_hits, memo_misses = (
        after - before for after, before in zip(_cache_hits(db), caches_before)
    )
    writes = len(phase.latencies["write"])
    return {
        "rmi.calls_per_op": (stats.calls / ops, "count"),
        "filters.client.evaluations_per_op": (counters["evaluations"] / ops, "count"),
        "filters.client.reconstructions_per_op": (counters["reconstructions"] / ops, "count"),
        "filters.client.regenerations_per_op": (counters["client_regenerations"] / ops, "count"),
        "filters.server.share_cache_hit_rate": (_rate(share_hits, share_misses), "fraction"),
        "prg.memo_hit_rate": (_rate(memo_hits, memo_misses), "fraction"),
        "encode.rows_touched_per_write": (phase.rows_touched / writes if writes else 0.0, "count"),
        "filters.cluster.read_repairs": (len(db.cluster_client.read_repairs), "count"),
    }


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------


def run(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    quick: bool = False,
    out_dir: Optional[Path] = None,
    golden: Optional[Dict[str, str]] = None,
):
    """Run one workload; returns (informational dict, result dict)."""
    workload = WORKLOADS[name]
    segments = plan(workload, seed, seconds, quick, trace)
    tracer = Tracer() if trace else None
    speed = Speed()
    problems: List[str] = []
    with pinned_to_one_cpu() as cpu:
        counter = InstructionCounter()
        try:
            db, builds = build(workload, 1 if quick else workload.builds, tracer, speed, counter)
            try:
                for query, engine, strict in WARMUP:
                    db.query(query, engine=engine, strict=strict)
                db.reset_transport_stats()
                db.counters.reset()
                caches_before = _cache_hits(db)
                phase = Phase(db, workload, tracer, speed, counter)
                for index, segment in enumerate(segments):
                    phase.run_segment(segment, traced=trace and index % 2 == 1)
                stats = db.transport_stats
                counts = phase_counts(db, phase, caches_before)
                backend = db.encoded.ring.kernel.name
                nodes = db.node_count
                if workload.writes:
                    problems += server_rows_problems(db)
            finally:
                db.close()
            if counter.multiplexed():
                problems.append("the instruction counter shared the hardware and missed instructions")
        finally:
            counter.close()
    leftover = leftover_children()
    if leftover is not None:
        problems.append(leftover)
    digest = phase.digest()
    expected = (golden or {}).get(name)
    if expected is not None and digest != expected:
        problems.append("result digest %s differs from golden %s" % (digest, expected))

    ops = phase.ops
    failed = min(ops, phase.failed_ops + len(problems))
    queries = phase.latencies["query"]
    query_tail = tail(phase.instructions["query"])
    info = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "backend": backend,
        "nodes": nodes,
        "ops": ops,
        "segments": len(segments),
        "queries": len(queries),
        "writes": len(phase.latencies["write"]),
        "query_tail_percentile": query_tail.percentile,
        "query_tail_beyond": query_tail.beyond,
        "cpu": cpu,
        "speed": speed.factor(),
        "ops_per_s": ops / sum(segment.wall for segment in phase.segments),
        "query_p50_ms": statistics.median(queries) * 1e3,
        "query_tail_ms": tail(queries).value * 1e3,
        "query_cpu_p50_ms": statistics.median(phase.cpu["query"]) * 1e3,
        "query_cpu_tail_ms": tail(phase.cpu["query"]).value * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_op_share": failed / ops,
        "digest": digest,
        "setup_samples_s": builds.cpu,
        "setup_wall_samples_s": builds.wall,
        "setup_instruction_samples": builds.instructions,
        "problems": (problems + phase.failures)[:10],
    }
    if phase.latencies["write"]:
        writes = phase.latencies["write"]
        write_tail = tail(writes)
        info.update(
            write_p50_ms=statistics.median(writes) * 1e3,
            write_tail_ms=write_tail.value * 1e3,
            write_tail_percentile=write_tail.percentile,
            write_tail_beyond=write_tail.beyond,
            write_p50_instructions=statistics.median(phase.instructions["write"]),
            write_tail_instructions=tail(phase.instructions["write"]).value,
        )
    if trace:
        metrics = layer_metrics(phase, builds.spans, tracer.client_thread)
        metrics.update(counts)
        if out_dir is not None and phase.first_traced_spans:
            write_spans(out_dir / ("%s.spans.jsonl" % name), phase.first_traced_spans)
    else:
        every_op = phase.instructions["query"] + phase.instructions["write"]
        metrics = {
            "setup_s": (statistics.median(builds.cpu), "s"),
            "setup_instructions": (statistics.median(builds.instructions), "instr"),
            "cpu_ms_per_op": (sum(phase.cpu["query"] + phase.cpu["write"]) / ops * 1e3, "ms"),
            "instructions_per_op": (sum(every_op) / ops, "instr"),
            "query_p50_instructions": (statistics.median(phase.instructions["query"]), "instr"),
            "query_tail_instructions": (query_tail.value, "instr"),
            "bytes_per_op": ((stats.bytes_sent + stats.bytes_received) / ops, "B"),
        }
    result = {
        "correct": failed == 0,
        "attempted": ops,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    return info, result


def layer_metrics(phase: Phase, setup_spans: List[Span], client_thread: int) -> Dict[str, Tuple[float, str]]:
    """Time per layer over the traced segments, and the trace's own cost."""
    traced = [segment for segment in phase.segments if segment.traced]
    untraced = [segment for segment in phase.segments if not segment.traced]
    traced_ops = sum(segment.ops for segment in traced)
    traced_wall = sum(segment.wall for segment in traced)
    traced_op_wall = sum(segment.op_wall for segment in traced)
    process_cpu_ns = sum(segment.cpu for segment in traced) * 1e9
    untraced_wall_per_op = sum(s.wall for s in untraced) / sum(s.ops for s in untraced)
    setup = layer_totals(setup_spans, client_thread)
    metrics = {}
    cpu_total = 0
    for layer in LAYER_NAMES:
        calls, cpu_ns, client_wall_ns, client_cpu_ns = phase.totals[layer]
        cpu_total += cpu_ns
        metrics[layer + ".cpu_ms_per_op"] = (cpu_ns / 1e6 / traced_ops, "ms")
        metrics[layer + ".wait_ms_per_op"] = ((client_wall_ns - client_cpu_ns) / 1e6 / traced_ops, "ms")
        metrics[layer + ".calls_per_op"] = (calls / traced_ops, "count")
        metrics[layer + ".cpu_share"] = (cpu_ns / process_cpu_ns, "fraction")
        metrics[layer + ".setup_ms"] = (setup[layer].client_wall_ns / 1e6, "ms")
    metrics.update({
        "trace.overhead": ((traced_wall / traced_ops) / untraced_wall_per_op - 1, "fraction"),
        "trace.cpu_coverage": (cpu_total / process_cpu_ns, "fraction"),
        "trace.unattributed_share": (
            (phase.totals["core"][2] / 1e9 + traced_wall - traced_op_wall) / traced_wall,
            "fraction",
        ),
    })
    return metrics


def write_spans(path: Path, spans: List[Span]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span._asdict()) + "\n")
