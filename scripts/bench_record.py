"""Record what the program computes on the benchmark's inputs and how fast, or check it against a record.

The outputs block is computed in process, with this checkout's ``src``, from the
inputs that ``perfbench/gen.py`` writes:

- every ``retrieve`` answer (id, similarity bits, candidates scanned) for every
  query x {no gate, weak, normal, strong} x {embedding without the index,
  embedding with it, clustering}, on ``retrieve-gated`` seeds 1 and 1009, with
  the sha256 of the database and index files the program writes and the
  fingerprints of the database loaded and built in memory;
- the ``synth`` mel digest of seeds 1 and 1009: the sha256 over the 64 raw
  sha256 digests of the mel files, in request order;
- the sha256 of the checkpoint ``emorag train-fm --steps 30 --seed 3`` writes.

Mel and checkpoint bytes, the answers' similarity bits (``np.vecdot`` runs ddot)
and the EMIX sha256 (k-means runs float64 products) depend on the BLAS kernel, so
``--check`` compares them only when the BLAS core and the numpy version equal the
record's; ids, candidates scanned, the EMDB sha256 and the fingerprints are always
compared.  ``--check`` compares the outputs block only: timings are measurements,
not a contract.

Without ``--outputs-only`` the record also holds a timings block.  It runs
``perfbench/run.py`` for ``retrieve-gated`` and ``synth`` untraced at seeds 1 and
1009 and traced at seed 1, each for BENCHMARK.json's ``run_seconds`` and into a
fresh ``--out`` directory, about six minutes in all.  Per workload it keeps the
quartiles (q1, median, q3) of every end-to-end metric over the untraced runs,
with ``setup_s`` also split into its import part and its set-up part, each
untraced run's ``[ops, peak_rss_mb]``, and the median of every per-layer metric
over the traced runs.  ``rss_by_ops`` stays flat, then grows with the op count:
the worker keeps one latency sample per op, but its ``peak_rss_mb`` (``ru_maxrss``)
starts at ``run.py``'s high-water mark, which ``subprocess``'s vfork and exec carry
over, so the samples show only once the worker's own RSS passes that mark.

    python3 scripts/bench_record.py                                 # writes BENCH_<short-sha>.json
    python3 scripts/bench_record.py --outputs-only                  # the same without timings
    python3 scripts/bench_record.py --outputs-only --check BENCH_x.json
"""

import argparse
import contextlib
import hashlib
import io
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import gen  # noqa: E402
import worker  # noqa: E402  (its environment block: CPUs, BLAS, numpy, python)
from stats import quartiles  # noqa: E402
from emorag import (  # noqa: E402
    EmbeddingDatabase,
    SynthesisRequest,
    default_k,
    kmeans_fit,
    load_checkpoint,
    load_db,
    load_embedding_file,
    load_token_map,
    retrieve,
    run_inference,
    save_db,
    save_index,
)
from emorag.cli import main as emorag_main  # noqa: E402

SEEDS = (1, 1009)
GATES = (None, "weak", "normal", "strong")
MODES = (("embedding", "embedding", False), ("embedding+index", "embedding", True), ("clustering", "clustering", True))
TIMED = ("retrieve-gated", "synth")  # the workloads BENCHMARK.json lists


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def retrieval_outputs(inputs: Path, manifest: dict) -> dict:
    """Files, fingerprints and every answer of one ``retrieve-gated`` input set."""
    db = load_db(inputs / manifest["db"])
    index = kmeans_fit(db, default_k(db), seed=manifest["seed"])
    built = EmbeddingDatabase(db.dim, db.matrix, db.intensity_codes, db.ids, db.labels, db.transcripts, db.audio_refs)
    save_db(db, inputs / "saved.emdb")
    save_index(index, inputs / "saved.emix")
    queries = [load_embedding_file(inputs / q, dim=db.dim) for q in manifest["queries"]]
    answers = {}
    for name, method, indexed in MODES:
        for gate in GATES:
            results = (retrieve(db, q, method, index=index if indexed else None, intensity=gate) for q in queries)
            answers[f"{name} {gate or 'none'}"] = [
                f"{r.record_id} {r.similarity.hex()} {r.candidates_scanned}" for r in results
            ]
    return {
        "emdb_sha256": _sha256(inputs / "saved.emdb"),
        "emix_sha256": _sha256(inputs / "saved.emix"),
        "fingerprint_loaded": db.fingerprint.hex(),
        "fingerprint_built": built.fingerprint.hex(),
        "answers": answers,
    }


def synth_digest(inputs: Path, manifest: dict) -> str:
    """sha256 over the raw sha256 of each request's mel file, in request order."""
    db = load_db(inputs / manifest["db"])
    index = kmeans_fit(db, default_k(db), seed=manifest["seed"])
    model = load_checkpoint(inputs / manifest["checkpoint"])
    token_map = load_token_map(inputs / manifest["token_map"])
    out = inputs / "mel.frames"
    combined = hashlib.sha256()
    for r in manifest["requests"]:
        query = load_embedding_file(inputs / manifest["queries"][r["query"]], dim=db.dim)
        request = SynthesisRequest(query, r["text"], r["method"], r["intensity"], r["seed"])
        run_inference(db, model, request, out, index=index, token_map=token_map, ode_steps=manifest["ode_steps"])
        combined.update(hashlib.sha256(out.read_bytes()).digest())
    return combined.hexdigest()


def checkpoint_digest(work: Path, steps: int, seed: int) -> str:
    out = work / "model.ckpt"
    with contextlib.redirect_stdout(io.StringIO()):
        code = emorag_main(["train-fm", "--steps", str(steps), "--seed", str(seed), "--out", str(out)])
    if code != 0:
        raise SystemExit(f"train-fm exited with {code}")
    return _sha256(out)


def outputs(seeds=SEEDS, train_steps: int = 30) -> dict:
    """The outputs block: ``retrieve-gated`` and ``synth`` per seed, then ``train-fm``."""
    block = {"retrieve-gated": {}, "synth": {}}
    with tempfile.TemporaryDirectory() as tmp:
        for workload in block:
            for seed in seeds:
                inputs = Path(tmp) / f"{workload}-{seed}"
                manifest = gen.prepare(workload, seed, inputs)
                run = retrieval_outputs if workload == "retrieve-gated" else synth_digest
                block[workload][f"seed {seed}"] = run(inputs, manifest)
        block["train-fm"] = {f"--steps {train_steps} --seed 3": checkpoint_digest(Path(tmp), train_steps, 3)}
    return block


def perfbench_records(work: Path) -> list:
    """The full records of the perfbench runs the timings block summarizes, each run in a fresh ``--out``."""
    records = []
    runs = [(w, seed, 0) for w in TIMED for seed in SEEDS] + [(w, SEEDS[0], 1) for w in TIMED]
    for i, (workload, seed, trace) in enumerate(runs):
        out = work / f"run{i}"
        argv = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload, "--seed", str(seed)]
        argv += ["--trace", str(trace), "--out", str(out)]
        print(f"perfbench: {workload} seed {seed} trace {trace}", file=sys.stderr, flush=True)
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench/run.py {workload} seed {seed} exited with {proc.returncode}: {proc.stderr}")
        records += [json.loads(path.read_text()) for path in sorted(out.glob("*.json"))]
    return records


def timings(records: list) -> dict:
    """Per workload: the quartiles of each end-to-end metric over its untraced records, ``setup_s``
    split into its import part (the median of ``import_s``) and its set-up part (the median of
    ``setup_rep_s``), each untraced record's ``[samples.ops, peak_rss_mb]``, and the median of each
    per-layer metric over its traced records."""
    block = {}
    for workload in sorted({r["workload"] for r in records}):
        plain = [r for r in records if r["workload"] == workload and not r["trace"]]
        traced = [r for r in records if r["workload"] == workload and r["trace"]]
        values = {}
        for r in plain:
            e2e = dict(r["e2e"], setup_import_s=statistics.median(r["samples"]["import_s"]))
            e2e["setup_set_up_s"] = statistics.median(r["samples"]["setup_rep_s"])
            for name, value in e2e.items():
                if value is not None:
                    values.setdefault(name, []).append(value)
        layers = traced[0]["layers"] if traced else {}
        block[workload] = {
            "seeds": [r["seed"] for r in plain],
            "seconds": sorted({r["seconds"] for r in plain + traced}),
            "correct": all(r["correct"] for r in plain + traced),
            "end_to_end": {name: dict(zip(("q1", "median", "q3"), quartiles(v))) for name, v in values.items()},
            "rss_by_ops": [[r["samples"]["ops"], r["e2e"]["peak_rss_mb"]] for r in plain],
            "per_layer": {name: statistics.median(r["layers"][name] for r in traced) for name in layers},
        }
    return block


def differences(want, got, where: str = "") -> list:
    """One line per leaf that differs between two JSON values."""
    if isinstance(want, dict) and isinstance(got, dict):
        return [line for key in {**want, **got} for line in differences(want.get(key), got.get(key), f"{where}/{key}")]
    if isinstance(want, list) and isinstance(got, list) and len(want) == len(got):
        return [line for i, (w, g) in enumerate(zip(want, got)) for line in differences(w, g, f"{where}[{i}]")]
    return [] if want == got else [f"{where}: {want!r} != {got!r}"]


def blas_free(block: dict) -> dict:
    """The outputs ``block`` without what the BLAS kernel computes: the ``synth`` and ``train-fm``
    digests, each ``emix_sha256`` and each answer's similarity bits."""
    kept = {}
    for seed, out in block["retrieve-gated"].items():
        answers = {mode: [" ".join(a.rsplit(" ", 2)[::2]) for a in lines] for mode, lines in out["answers"].items()}
        kept[seed] = {**{key: v for key, v in out.items() if key != "emix_sha256"}, "answers": answers}
    return {"retrieve-gated": kept}


def check(record: dict, got: dict, env: dict) -> list:
    """The lines ``--check`` prints for a recomputed outputs block ``got`` in environment ``env``."""
    want, theirs, lines = record["outputs"], record["environment"], []
    if (env["blas"]["core"], env["numpy"]) != (theirs["blas"]["core"], theirs["numpy"]):
        want, got = blas_free(want), blas_free(got)
        lines.append("not compared (synth, train-fm, emix_sha256, similarity bits): BLAS core or numpy differs")
    return lines + (differences(want, got) or ["outputs: identical"])


def _git(*args):
    """The stripped output of a git command in this checkout; None outside a git checkout."""
    try:
        proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--outputs-only", action="store_true", help="record the outputs block without timings")
    parser.add_argument("--check", type=Path, default=None, help="compare with this BENCH_*.json file")
    args = parser.parse_args()
    env = worker.environment()
    got = outputs()
    if args.check is None:
        sha, status = _git("rev-parse", "--short", "HEAD"), _git("status", "--porcelain", "--", "src", "scripts", "perfbench")
        record = {
            "sha": sha,
            "program_dirty": None if status is None else bool(status),
            "environment": env,
            "outputs": got,
        }
        if not args.outputs_only:
            with tempfile.TemporaryDirectory() as tmp:
                record["timings"] = timings(perfbench_records(Path(tmp)))
        path = ROOT / f"BENCH_{sha or 'unknown'}.json"
        path.write_text(json.dumps(record, indent=1) + "\n")
        print(f"wrote {path}")
        return 0
    lines = check(json.loads(args.check.read_text()), got, env)
    print("\n".join(lines))
    return 0 if lines[-1] == "outputs: identical" else 1


if __name__ == "__main__":
    raise SystemExit(main())
