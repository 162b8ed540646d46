"""Runs one workload against the program and prints its measurements as JSON.

run.py starts it as::

    python3 perfbench/worker.py WORKDIR WORKLOAD SECONDS TRACE

with ``PYTHONPATH`` set to the checkout's ``src``.  WORKDIR holds the inputs
and manifest that gen.py wrote and the index that ``emorag build-index``
built.  The last line of stdout is one JSON object; run.py turns it into the
benchmark's result.

Each workload is a closed loop: one client in this process sends the next op
when the previous one has returned.  An op's latency is the wall time of the
calls into the program; the checks of its output run after the clock stops.
With TRACE=0 the loop runs for SECONDS untraced.  With TRACE=1 every op runs
twice, untraced and traced: the traced run records a span around each call
into the program and then replays the op layer by layer through the public
functions, outside the op's own timing.  The difference between the traced
and untraced median latency is the tracing overhead.  A per-layer metric
whose layer a workload never calls is reported as 0.
"""

from __future__ import annotations

import time

_T_IMPORT = time.perf_counter()
import numpy as np  # noqa: E402  (timed: part of the program's import cost)
import emorag  # noqa: E402
from emorag import (  # noqa: E402
    IntensityLevel,
    RetrievalMethod,
    StageError,
    StaleIndexError,
    SynthesisRequest,
    assemble_prompt,
    build_index_bundle,
    default_k,
    filter_by_intensity,
    generate_mel,
    kmeans_fit,
    load_checkpoint,
    load_db,
    load_embedding_file,
    load_frames,
    load_index_bundle,
    load_token_map,
    mock_generate_tokens,
    ode_integrate_batch,
    retrieve,
    retrieve_clustering_based,
    retrieve_embedding_based,
    run_cell,
    run_inference,
    save_db,
    save_frames,
    save_index_bundle,
    upsample_tokens,
)

IMPORT_S = time.perf_counter() - _T_IMPORT

import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from gen import frames_header  # noqa: E402
from stats import nearest_rank, tail  # noqa: E402
from tracer import OFF, Tracer  # noqa: E402

SETUP_REPS = 5
MEL_RATE_HZ = 80.0
EMB = RetrievalMethod.EMBEDDING
CLU = RetrievalMethod.CLUSTERING


class Tally:
    """Counts the checks of one run; every failure also goes to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.retrievals = 0
        self.oracle_hits = 0
        self.embedding = 0
        self.embedding_hits = 0
        self.label_hits = 0
        self.checks = {}

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(what)
            print(f"perfbench: FAILED {what}", file=sys.stderr)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        """A correctness check outside the timed ops; counts as one attempt."""
        self.attempted += 1
        self.checks[name] = self.checks.get(name, True) and bool(ok)
        if not ok:
            self.fail(f"check {name}: {detail}")

    def retrieval(self, record_id: str, method, acceptable: list, record_label: str, truth: str) -> bool:
        """Score one retrieval; False when an embedding result misses the oracle."""
        hit = record_id in acceptable
        self.retrievals += 1
        self.oracle_hits += hit
        self.label_hits += record_label == truth
        if method is EMB:
            self.embedding += 1
            self.embedding_hits += hit
        return hit or method is not EMB


def blas_info() -> dict:
    """BLAS library, version and its thread count read at run time (read-only)."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": blas.get("name"), "version": blas.get("version"), "threads": None, "core": None}
    path = None
    with open("/proc/self/maps") as maps:
        for line in maps:
            if "blas" in line.lower() and ".so" in line:
                path = line.split()[-1]
                break
    if path is None:
        return info
    lib = ctypes.CDLL(path)
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            if get is None:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            info["threads"] = int(get())
            core = getattr(lib, f"{prefix}_get_corename{suffix}", None)
            if core is not None:
                core.argtypes, core.restype = [], ctypes.c_char_p
                info["core"] = core().decode()
            return info
    return info


def calibrate() -> float:
    """Median ms of a fixed numpy and Python kernel that does not touch the program.

    Measured at the start and the end of each run, it shows how fast the
    machine was at the time, so that a drift in the machine's speed can be
    told apart from a change in the program.  No metric is scaled by it.
    """
    rng = np.random.default_rng(0)
    a, x = rng.standard_normal((4096, 128)), rng.standard_normal(128)
    times = []
    for _ in range(50):
        t0 = time.perf_counter_ns()
        a @ x
        sum(range(5000))
        times.append(time.perf_counter_ns() - t0)
    return statistics.median(times) / 1e6


def environment() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas_info(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "emorag": emorag.__version__,
        "machine": platform.machine(),
    }


class Workload:
    """Shared state and the setup/op/check/replay protocol of one workload."""

    def __init__(self, workdir: Path, manifest: dict, tally: Tally):
        self.workdir = workdir
        self.inputs = workdir / "inputs"
        self.m = manifest
        self.tally = tally
        self.seed = manifest["seed"]
        self.row = {f"utt{i:06d}": i for i in range(manifest["records"])}
        self.labels = manifest["record_labels"]
        self.expected = {k: [set(ids) for ids in v] for k, v in manifest["expected"].items()}
        self.layers = {}

    def load_queries(self, dim: int) -> list:
        self.layers["store.bytes_read"] = (self.inputs / self.m["db"]).stat().st_size
        return [load_embedding_file(self.inputs / q, dim=dim) for q in self.m["queries"]]

    def score(self, record_id: str, method, level, q: int) -> bool:
        key = "all" if level is None else level.value
        label = self.labels[self.row[record_id]] if record_id in self.row else None
        return self.tally.retrieval(record_id, method, self.expected[key][q], label, self.m["query_labels"][q])

    def replay(self, i: int, out, latency_ns: int, tr) -> None:
        """Traced runs only: the op again, layer by layer, outside its timing."""

    def probes(self, tr) -> None:
        """Per-layer measurements made once per traced run, after the loop."""

    def final_checks(self) -> None:
        """Correctness checks made once per run, after the loop."""


class Retrieval(Workload):
    """retrieve-scan and retrieve-gated: one retrieve() per op."""

    GATE_CYCLE = (IntensityLevel.WEAK, IntensityLevel.NORMAL, IntensityLevel.STRONG, IntensityLevel.NORMAL)

    def __init__(self, *args, gated: bool):
        super().__init__(*args)
        self.gated = gated
        self.scanned = []
        self.elapsed = []
        # the write and cold-read side of store and retrieval, on the same 8,000 records
        self.ingest = Ingest(*args) if gated else None

    def final_checks(self) -> None:
        if self.ingest is None:
            return
        self.ingest.paths()
        problems = self.ingest.round_trip_problems(0, self.ingest.op(0, OFF))
        self.tally.check("ingest_round_trip", not problems, "; ".join(problems))
        self.ingest.final_checks()

    def schedule(self, i: int):
        method = (EMB, CLU)[i % 2]
        level = self.GATE_CYCLE[(i // 2) % 4] if self.gated else None
        return method, level, i % len(self.m["queries"])

    def setup(self, tr) -> None:
        self.db = self.bundle = None
        with tr.span("store.load_db"):
            self.db = load_db(self.inputs / self.m["db"])
        with tr.span("retrieval.load_index_bundle"):
            self.bundle = load_index_bundle(self.workdir / "index" / "db.emix")
        self.queries = self.load_queries(self.db.dim)
        with tr.span("store.unit_matrix"):
            self.db.unit_matrix
        with tr.span("store.fingerprint"):
            self.db.fingerprint
        for i in range(8):
            method, level, q = self.schedule(i)
            retrieve(self.db, self.queries[q], method, index=self.bundle, intensity=level)

    def op(self, i: int, tr):
        method, level, q = self.schedule(i)
        with tr.span("retrieval.retrieve"):
            return retrieve(self.db, self.queries[q], method, index=self.bundle, intensity=level)

    def check(self, i: int, result, latency_ns: int, traced: bool) -> list:
        method, level, q = self.schedule(i)
        return [] if self.score(result.record_id, method, level, q) else [f"{result.record_id} is not the oracle's"]

    def replay(self, i: int, result, latency_ns: int, tr) -> None:
        method, level, q = self.schedule(i)
        self.scanned.append(result.candidates_scanned)
        self.elapsed.append((result.elapsed_ns, latency_ns))
        target = self.db
        if level is not None:
            with tr.span("store.filter_by_intensity"):
                target = filter_by_intensity(self.db, level)
            with tr.span("store.unit_matrix"):
                target.unit_matrix
        if method is EMB:
            with tr.span("retrieval.scan"):
                again = retrieve_embedding_based(target, self.queries[q])
        else:
            if level is not None:
                with tr.span("store.fingerprint"):
                    target.fingerprint
            with tr.span("retrieval.probe"):
                again = retrieve_clustering_based(target, self.bundle.for_level(level), self.queries[q])
        self.tally.check("replay_matches_op", again.record_id == result.record_id, f"op {i}")

    def probes(self, tr) -> None:
        self.layers["retrieval.rows_scanned_per_query"] = statistics.fmean(self.scanned)
        self.layers["retrieval.reported_elapsed_ratio"] = sum(e for e, _ in self.elapsed) / sum(
            t for _, t in self.elapsed
        )
        if self.gated:
            for i in range(3):
                self.ingest.round_trip_problems(i, self.ingest.op(i, tr))
            self.ingest.probes(tr)
            self.layers.update(self.ingest.layers)
        cells = [(q, self.m["query_labels"][j]) for j, q in enumerate(self.queries)]
        warmup, calls, spent = 10, 0, 0
        for method in (EMB, CLU):
            with tr.span("synthbench.run_cell") as span:
                bench, _ = run_cell(self.db, method, cells, index=self.bundle.full, warmup=warmup)
            spent += span.ns
            calls += len(cells) + warmup
            if method is EMB:
                # an exact scan returns the oracle's answer, so its label decides accuracy
                answers = [self.labels[self.row[ids[0]]] for ids in self.m["expected"]["all"]]
                want = sum(a == lab for a, (_, lab) in zip(answers, cells)) / len(cells)
                self.tally.check("run_cell_accuracy", bench.accuracy == want, f"{bench.accuracy} != {want}")
        self.layers["synthbench.run_cell_us_per_query"] = spent / calls / 1e3


class Synth(Workload):
    """synth: one run_inference() per op, writing a mel-frames file."""

    STAGES = ("retrieval", "prompt_assembly", "token_generation", "flow_matching", "write_output")

    def __init__(self, *args):
        super().__init__(*args)
        self.digests = {}  # request number -> sha256 of its first output
        self.stage_failures = dict.fromkeys(self.STAGES, 0)
        self.rtf = []
        self.ode = []  # (field evaluations, ns per evaluated row)
        self.self_ms = []

    def setup(self, tr) -> None:
        self.db = self.bundle = self.model = None
        with tr.span("store.load_db"):
            self.db = load_db(self.inputs / self.m["db"])
        with tr.span("retrieval.load_index_bundle"):
            self.bundle = load_index_bundle(self.workdir / "index" / "db.emix")
        with tr.span("flow.load_checkpoint"):
            self.model = load_checkpoint(self.inputs / self.m["checkpoint"])
        self.token_map = load_token_map(self.inputs / self.m["token_map"])
        self.queries = self.load_queries(self.db.dim)
        self.requests = [
            SynthesisRequest(
                reference=self.queries[r["query"]],
                target_text=r["text"],
                method=r["method"],
                intensity=r["intensity"],
                seed=r["seed"],
            )
            for r in self.m["requests"]
        ]
        self.out = self.workdir / "out" / "mel.frames"
        self.out.parent.mkdir(exist_ok=True)
        self.steps = self.m["ode_steps"]
        with tr.span("store.unit_matrix"):
            self.db.unit_matrix
        with tr.span("store.fingerprint"):
            self.db.fingerprint
        # one short request per (method, gate) pair fills the lazy per-index caches
        for r in self.requests[:8]:
            warm = SynthesisRequest(r.reference, "warm up", r.method, r.intensity, r.seed)
            self.infer(warm, self.out)

    def infer(self, request, path):
        return run_inference(
            self.db, self.model, request, path, index=self.bundle, token_map=self.token_map, ode_steps=self.steps
        )

    def op(self, i: int, tr):
        request = self.requests[i % len(self.requests)]
        with tr.span("pipeline.run_inference"):
            try:
                return self.infer(request, self.out)
            except StageError as exc:
                self.stage_failures[exc.stage] = self.stage_failures.get(exc.stage, 0) + 1
                raise

    def expected_frames(self, k: int, record_id: str) -> int:
        tokens = self.m["token_frames"][record_id] + 4 * len(self.m["requests"][k]["text"])
        return int(math.floor(tokens * 1.6 + 0.5))

    def check(self, i: int, report, latency_ns: int, traced: bool) -> list:
        k = i % len(self.requests)
        request = self.requests[k]
        rid = report["retrieved_id"]
        problems = []
        if not self.score(rid, request.method, request.intensity, self.m["requests"][k]["query"]):
            problems.append(f"{rid} is not the oracle's")
        data = self.out.read_bytes()
        header = frames_header(data)
        if header["num_frames"] != self.expected_frames(k, rid):
            problems.append(f"{header['num_frames']} mel frames, expected {self.expected_frames(k, rid)}")
        if header["dim"] != 80 or header["frame_rate_hz"] != MEL_RATE_HZ:
            problems.append(f"frames header {header}")
        digest = hashlib.sha256(data).hexdigest()
        if self.digests.setdefault(k, digest) != digest:
            problems.append(f"request {k} repeated with different output bytes")
        if not traced:
            self.rtf.append(latency_ns / 1e9 / (header["num_frames"] / MEL_RATE_HZ))
        return problems

    def replay(self, i: int, report, latency_ns: int, tr) -> None:
        request = self.requests[i % len(self.requests)]
        path = self.workdir / "out" / "replay.frames"
        with tr.span("pipeline.replay"):
            with tr.span("pipeline.retrieval") as s1, tr.span("retrieval.retrieve"):
                result = retrieve(
                    self.db, request.reference, request.method, index=self.bundle, intensity=request.intensity
                )
            with tr.span("pipeline.prompt_assembly") as s2:
                assembly = assemble_prompt(self.db, result, request, self.token_map)
            with tr.span("pipeline.token_generation") as s3:
                tokens = mock_generate_tokens(assembly, request.seed)
            with tr.span("pipeline.flow_matching") as s4:
                mel = generate_mel(self.model, tokens, assembly.speaker, n_steps=self.steps, seed=request.seed)
            with tr.span("pipeline.write_output") as s5, tr.span("flow.save_frames"):
                save_frames(mel, path)
        # the op's own run_inference time not covered by the replayed stages
        self.self_ms.append((latency_ns - sum(s.ns for s in (s1, s2, s3, s4, s5))) / 1e6)
        self.tally.check("replay_bytes_equal_run_inference", path.read_bytes() == self.out.read_bytes(), f"op {i}")

        with tr.span("flow.load_frames"):
            load_frames(self.token_map[result.record_id])
        with tr.span("flow.upsample"):
            up = upsample_tokens(tokens)
        x0 = np.random.default_rng(request.seed).standard_normal((up.num_frames, self.model.state_dim))
        with tr.span("flow.ode") as span:
            ode_integrate_batch(self.model, x0, up.frames, assembly.speaker.values, self.steps)
        evals = self.steps * up.num_frames
        self.ode.append((evals, span.ns / evals))

    def cli_synth(self, k: int, tr, n: int) -> None:
        """Run ``python -m emorag synth`` on request k and compare its bytes with the in-process output."""
        r = self.m["requests"][k]
        out = self.workdir / "out" / f"cli{n}.frames"
        argv = [sys.executable, "-m", "emorag", "synth", "--db", str(self.inputs / self.m["db"])]
        argv += ["--checkpoint", str(self.inputs / self.m["checkpoint"])]
        argv += ["--query", str(self.inputs / self.m["queries"][r["query"]])]
        argv += ["--tokens", str(self.inputs / self.m["token_map"]), "--text", r["text"]]
        argv += ["--method", r["method"], "--index", str(self.workdir / "index" / "db.emix")]
        argv += ["--seed", str(r["seed"]), "--ode-steps", str(self.steps), "--out", str(out)]
        if r["intensity"]:
            argv += ["--intensity", r["intensity"]]
        if k not in self.digests:
            self.infer(self.requests[k], self.out)
            self.digests[k] = hashlib.sha256(self.out.read_bytes()).hexdigest()
        with tr.span("cli.synth_process"):
            proc = subprocess.run(argv, capture_output=True, timeout=60)
        ok = proc.returncode == 0 and hashlib.sha256(out.read_bytes()).hexdigest() == self.digests[k]
        self.tally.check("cli_bytes_equal_in_process", ok, f"request {k}: exit {proc.returncode} {proc.stderr[-300:]!r}")

    def final_checks(self) -> None:
        self.cli_synth(3, OFF, 0)
        # the loop repeats each request only when it runs past one cycle of requests
        self.infer(self.requests[3], self.out)
        again = hashlib.sha256(self.out.read_bytes()).hexdigest()
        self.tally.check("repeat_bytes_identical", again == self.digests[3], "request 3")

    def probes(self, tr) -> None:
        for n, k in enumerate((0, 1, 2)):
            self.cli_synth(k, tr, n + 1)
        self.layers["flow.field_evals_per_request"] = statistics.median(e for e, _ in self.ode)
        self.layers["flow.ns_per_field_eval_row"] = statistics.median(r for _, r in self.ode)
        self.layers["pipeline.self_ms"] = statistics.median(self.self_ms)
        self.layers["pipeline.stage_failures"] = sum(self.stage_failures.values())
        self.layers["pipeline.stage_failures_by_stage"] = dict(self.stage_failures)
        stages = sum(sum(tr.durations(f"pipeline.{s}")) for s in self.STAGES)
        whole = sum(tr.durations("pipeline.run_inference"))
        self.layers["pipeline.stage_share_of_run_inference"] = stages / whole
        self.layers["pipeline.stages_plus_self_ms"] = self.layers["pipeline.self_ms"] + sum(
            statistics.median(tr.durations(f"pipeline.{s}")) / 1e6 for s in self.STAGES
        )


class Ingest(Workload):
    """ingest: one cold load, index build, save and reload of a database per op."""

    LEVEL_CYCLE = (None, IntensityLevel.WEAK, IntensityLevel.NORMAL, IntensityLevel.STRONG)

    def paths(self) -> None:
        self.src = self.inputs / self.m["db"]
        self.out_db = self.workdir / "out" / "ingest.emdb"
        self.out_ix = self.workdir / "out" / "ingest.emix"
        self.out_db.parent.mkdir(exist_ok=True)
        self.queries = self.load_queries(self.m["dim"])

    def setup(self, tr) -> None:
        self.paths()
        self.round_trip_problems(0, self.op(0, tr))  # warm-up: one whole op, untimed

    def op(self, i: int, tr):
        level = self.LEVEL_CYCLE[i % 4]
        query = self.queries[i % len(self.queries)]
        with tr.span("ingest.op"):
            with tr.span("store.load_db"):
                db = load_db(self.src)
            with tr.span("store.fingerprint"):
                fingerprint = db.fingerprint
            with tr.span("retrieval.build_index_bundle"):
                bundle = build_index_bundle(db, seed=self.seed)
            with tr.span("store.save_db"):
                save_db(db, self.out_db)
            with tr.span("retrieval.save_index_bundle"):
                save_index_bundle(bundle, self.out_ix)
            with tr.span("store.load_db"):
                db2 = load_db(self.out_db)
            with tr.span("retrieval.load_index_bundle"):
                bundle2 = load_index_bundle(self.out_ix)
            with tr.span("retrieval.retrieve"):
                result = retrieve(db2, query, CLU, index=bundle2, intensity=level)
        return db, fingerprint, bundle, db2, result

    def round_trip_problems(self, i: int, out) -> list:
        """What differs between the saved and the reloaded database and bundle."""
        db, fingerprint, bundle, db2, result = out
        problems = []
        if db2.fingerprint != fingerprint:
            problems.append("reloaded fingerprint differs from the saved one")
        original = retrieve(db, self.queries[i % len(self.queries)], CLU, index=bundle, intensity=self.LEVEL_CYCLE[i % 4])
        if (original.record_id, original.similarity) != (result.record_id, result.similarity):
            problems.append(f"reloaded bundle answered {result.record_id}, original {original.record_id}")
        self.last = (fingerprint, bundle)
        return problems

    def check(self, i: int, out, latency_ns: int, traced: bool) -> list:
        problems = self.round_trip_problems(i, out)
        if not self.score(out[4].record_id, CLU, self.LEVEL_CYCLE[i % 4], i % len(self.queries)):
            problems.append(f"{out[4].record_id} is not the oracle's")
        return problems

    def final_checks(self) -> None:
        fingerprint, bundle = self.last
        tampered = load_db(self.inputs / self.m["tampered_db"])
        try:
            retrieve(tampered, self.queries[0], CLU, index=bundle)
            raised = False
        except StaleIndexError:
            raised = True
        self.tally.check("stale_bundle_raises", raised and tampered.fingerprint != fingerprint, "no StaleIndexError")

    def probes(self, tr) -> None:
        db = load_db(self.src)
        with tr.span("retrieval.kmeans_fit"):
            _, history = kmeans_fit(db, default_k(db), seed=self.seed, return_history=True)
        self.layers["retrieval.kmeans_iters"] = len(history)
        self.layers["store.bytes_written"] = self.out_db.stat().st_size


WORKLOADS = {
    "retrieve-scan": lambda *a: Retrieval(*a, gated=False),
    "retrieve-gated": lambda *a: Retrieval(*a, gated=True),
    "synth": Synth,
    "ingest": Ingest,
}

# per-layer metric -> the span whose median duration (ms) it reports
SPAN_METRICS = {
    "store.load_db_ms": "store.load_db",
    "store.fingerprint_ms": "store.fingerprint",
    "store.unit_matrix_ms": "store.unit_matrix",
    "store.save_db_ms": "store.save_db",
    "store.filter_by_intensity_ms": "store.filter_by_intensity",
    "retrieval.retrieve_ms": "retrieval.retrieve",
    "retrieval.scan_ms": "retrieval.scan",
    "retrieval.probe_ms": "retrieval.probe",
    "retrieval.build_index_bundle_ms": "retrieval.build_index_bundle",
    "retrieval.save_index_bundle_ms": "retrieval.save_index_bundle",
    "retrieval.load_index_bundle_ms": "retrieval.load_index_bundle",
    "flow.ode_ms": "flow.ode",
    "flow.upsample_ms": "flow.upsample",
    "flow.load_frames_ms": "flow.load_frames",
    "flow.save_frames_ms": "flow.save_frames",
    "flow.load_checkpoint_ms": "flow.load_checkpoint",
    "pipeline.run_inference_ms": "pipeline.run_inference",
    "pipeline.retrieval_ms": "pipeline.retrieval",
    "pipeline.prompt_assembly_ms": "pipeline.prompt_assembly",
    "pipeline.token_generation_ms": "pipeline.token_generation",
    "pipeline.flow_matching_ms": "pipeline.flow_matching",
    "pipeline.write_output_ms": "pipeline.write_output",
    "cli.synth_process_ms": "cli.synth_process",
}


def one_op(wl: Workload, tally: Tally, i: int, tr):
    """Op i, timed, then checked (and replayed when traced); its latency in ns, or None if it raised."""
    tr.op = i
    tally.attempted += 1
    t0 = time.perf_counter_ns()
    try:
        out = wl.op(i, tr)
    except Exception:
        tally.fail(f"op {i} raised:\n{traceback.format_exc(limit=4)}")
        return None
    latency = time.perf_counter_ns() - t0
    problems = wl.check(i, out, latency, tr is not OFF)
    if problems:
        tally.fail(f"op {i}: {'; '.join(problems)}")
    if tr is not OFF:
        wl.replay(i, out, latency, tr)
    return latency


def run_loop(wl: Workload, tally: Tally, seconds: float, tracer=None) -> tuple:
    """Closed loop for ``seconds``: (untraced latencies, traced latencies) in ns.

    Without a tracer every op runs once, untraced.  With one, every op runs
    twice, once untraced and once traced, in alternating order, so that both
    samples see the same op mix and the same drift in machine speed.
    """
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        modes = (OFF,) if tracer is None else ((OFF, tracer) if i % 2 == 0 else (tracer, OFF))
        for tr in modes:
            latency = one_op(wl, tally, i, tr)
            if latency is not None:
                (plain if tr is OFF else traced).append(latency)
        i += 1
        if time.perf_counter() >= deadline:
            return plain, traced


def import_seconds() -> list:
    """Seconds to import the program: this process's own import and two in fresh interpreters."""
    code = "import time; t = time.perf_counter(); import numpy, emorag; print(time.perf_counter() - t)"
    fresh = [
        subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, check=True).stdout
        for _ in range(2)
    ]
    return [IMPORT_S] + [float(out) for out in fresh]


def end_to_end(wl: Workload, tally: Tally, latencies: list, setup_s: float, peak_rss_kb: int) -> dict:
    """The nine end-to-end metrics; None where a metric has no sample to stand on."""
    ms = [v / 1e6 for v in latencies]
    rtf = getattr(wl, "rtf", None)
    return {
        "setup_s": setup_s,
        "latency_p50_ms": nearest_rank(ms, 0.5) if ms else None,
        "latency_p95_ms": tail(ms, 0.95),
        "throughput_ops_per_s": len(ms) / (sum(ms) / 1e3) if ms else None,
        "error_rate": tally.failed / tally.attempted,
        "recall_at_1": tally.oracle_hits / tally.retrievals if tally.retrievals else None,
        "label_accuracy": tally.label_hits / tally.retrievals if tally.retrievals else None,
        "rtf_p50": nearest_rank(rtf, 0.5) if rtf else None,
        "peak_rss_mb": peak_rss_kb / 1024,
    }


def main(argv) -> int:
    workdir, workload, seconds, trace = Path(argv[1]), argv[2], float(argv[3]), argv[4] == "1"
    manifest = json.loads((workdir / "manifest.json").read_text())
    tally = Tally()
    wl = WORKLOADS[workload](workdir, manifest, tally)
    tracer = Tracer() if trace else OFF
    calibration = [calibrate()]
    imports = import_seconds()

    setup = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        wl.setup(tracer)
        setup.append(time.perf_counter() - t0)

    result = {}
    latencies, traced = run_loop(wl, tally, seconds, tracer if trace else None)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # before the checks and probes
    wl.final_checks()
    calibration.append(calibrate())
    if trace:
        wl.probes(tracer)
        layers = {}
        for metric, span in SPAN_METRICS.items():
            durations = tracer.durations(span)
            layers[metric] = statistics.median(durations) / 1e6 if durations else 0.0
        layers.update(wl.layers)
        untraced_p50 = nearest_rank(latencies, 0.5) / 1e6 if latencies else None
        traced_p50 = nearest_rank(traced, 0.5) / 1e6 if traced else None
        if latencies and traced:
            layers["trace.overhead_ms"] = traced_p50 - untraced_p50
        result["layers"] = layers
        result["tracing"] = {
            "untraced_p50_ms": untraced_p50,
            "traced_p50_ms": traced_p50,
            "untraced_ops": len(latencies),
            "traced_ops": len(traced),
        }
        result["spans"] = tracer.summary()
    result.update(
        e2e=end_to_end(wl, tally, latencies, statistics.median(imports) + statistics.median(setup), peak_rss_kb),
        attempted=tally.attempted,
        failed=tally.failed,
        failures=tally.failures,
        checks=tally.checks,
        samples={
            "ops": len(latencies),
            "setup_reps": len(setup),
            "import_s": imports,
            "setup_rep_s": setup,
            "retrievals": tally.retrievals,
            "embedding_retrievals": tally.embedding,
            "embedding_oracle_hits": tally.embedding_hits,
        },
        env=dict(environment(), calibration_ms=calibration),
        program=emorag.__file__,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
