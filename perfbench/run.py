"""The emorag benchmark: four workloads, end-to-end metrics and a traced run.

Run from the root of a checkout (numpy and the standard library only)::

    python3 perfbench/run.py --workload retrieve-scan --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all             # all four, one after another
    python3 perfbench/run.py --workload synth --out runs/change
                                                        # also keep the full record
    python3 perfbench/run.py --compare runs/parent runs/change
    python3 perfbench/run.py --summary runs/change      # medians, quartiles, spreads
    python3 -m pytest perfbench/selftest.py             # tests of the harness

A run writes its inputs from ``--seed`` (gen.py), has ``emorag build-index``
build the cluster indexes, then starts worker.py, which loads the program
from this checkout's ``src``, sets up several times, runs the workload as a
closed loop for ``--seconds`` and checks every output.  The report prints all
nine end-to-end metrics by name, unit and sample count, the run's
environment and a digest of its inputs; the last line of stdout is the JSON
result: the end-to-end metrics named in BENCHMARK.json with ``--trace 0``,
its per-layer metrics with ``--trace 1``.

BENCHMARK.json lists two of the four workloads; ``retrieve-scan`` and
``ingest`` (see EXTRA_WORKLOADS) run here on request and with
``--workload all``.

Seeds: the default seed is 1.  Seed 1009 is held out: a change that claims a
gain should show it on seeds it was not developed against, 1009 among them.

Everything the benchmark writes goes under ``.perfbench_work`` in the
checkout and is removed when the run ends, except the ``--out`` records.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen
from stats import beyond, quartiles, spread, verdict

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 1
HELD_OUT_SEED = 1009
RUN_LIMIT_S = 170  # a run must end within 180 s

# end-to-end metrics that are printed and compared but not in BENCHMARK.json,
# because not every workload has them or they are 0 in a correct run
EXTRA_METRICS = {
    "latency_p95_ms": {"unit": "ms", "better": "lower", "bound": 0.15},
    "error_rate": {"unit": "1", "better": "lower", "bound": 0.0},
    "rtf_p50": {"unit": "1", "better": "lower", "bound": 0.1},
}
# Workloads that run.py runs (also with --workload all) but BENCHMARK.json does
# not list: why each exists, and why it is left out.  On a shared 2-core host
# their run-to-run spread, or the length of run they would need, does not fit
# the bounds and the time budget of the listed two.  The traced retrieve-gated
# run still measures their layers: the scan and probe, run_cell, and a cold
# load, build, save and reload of the same 8,000 records.
EXTRA_WORKLOADS = {
    "retrieve-scan": "Ungated retrieve() on 32,000 x 128 records, methods alternating: the cosine scan "
    "and centroid routing do the work; the gate and flow never run. Its 32 MB scans swing by up to 2x "
    "with the host's memory traffic, so ten runs spread beyond any usable bound.",
    "ingest": "Cold load, fingerprint, index build, save and reload of an 8,000-record database, then one "
    "query: the write and cold-read side of store and retrieval. Its ops take about 0.6 s, too few per "
    "run for a steady median within the time budget.",
}
REPORT_ORDER = (
    "setup_s",
    "latency_p50_ms",
    "latency_p95_ms",
    "throughput_ops_per_s",
    "error_rate",
    "recall_at_1",
    "label_accuracy",
    "rtf_p50",
    "peak_rss_mb",
)


class BenchError(Exception):
    """The benchmark cannot produce a result (missing program, failed step)."""


def spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} not found")
    return json.loads(path.read_text())


def end_to_end_specs(bench: dict) -> dict:
    specs = {m["name"]: m for m in bench["end_to_end"]}
    specs.update({k: dict(v, name=k) for k, v in EXTRA_METRICS.items()})
    return specs


def program_env() -> dict:
    """Environment for child processes: the program comes from this checkout only."""
    src = ROOT / "src"
    if not (src / "emorag" / "__init__.py").is_file():
        raise BenchError(f"the program is missing: no package at {src / 'emorag'}")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    return env


def git_state() -> dict:
    """Commit and dirtiness of the checkout, when it is a git repository (read-only)."""
    if not (ROOT / ".git").exists():
        return {"sha": None, "dirty": None}
    git = ["git", "--no-optional-locks", f"--git-dir={ROOT / '.git'}", f"--work-tree={ROOT}"]
    try:
        sha = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
        status = subprocess.run(git + ["status", "--porcelain"], capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return {"sha": None, "dirty": None}
    if sha.returncode != 0:
        return {"sha": None, "dirty": None}
    return {"sha": sha.stdout.strip(), "dirty": bool(status.stdout.strip())}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run of one workload; returns its full record."""
    started = time.monotonic()
    env = program_env()
    work = ROOT / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        manifest = gen.prepare(workload, seed, work / "inputs")
        digest, files, size = gen.digest(work / "inputs")
        (work / "manifest.json").write_text(json.dumps(manifest))
        if workload != "ingest":
            (work / "index").mkdir()
            argv = [sys.executable, "-m", "emorag", "build-index", "--db", str(work / "inputs" / manifest["db"])]
            argv += ["--seed", str(seed), "--out", str(work / "index" / "db.emix")]
            built = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
            if built.returncode != 0:
                raise BenchError(f"emorag build-index failed ({built.returncode}): {built.stderr.strip()}")
        limit = RUN_LIMIT_S - (time.monotonic() - started)
        argv = [sys.executable, str(HERE / "worker.py"), str(work), workload, repr(seconds), "1" if trace else "0"]
        try:
            proc = subprocess.run(argv, env=env, stdout=subprocess.PIPE, text=True, timeout=max(limit, 1))
        except subprocess.TimeoutExpired:
            raise BenchError(f"{workload} did not finish within {RUN_LIMIT_S} s") from None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"worker for {workload} exited with {proc.returncode}")
        result = json.loads(lines[-1])
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass
    if not Path(result["program"]).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"measured a program outside this checkout: {result['program']}")
    result["env"]["git"] = git_state()
    result.update(
        workload=workload,
        seed=seed,
        seconds=seconds,
        trace=int(trace),
        inputs={"sha256": digest, "files": files, "bytes": size},
        correct=result["failed"] == 0,
    )
    return result


def fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def report(record: dict, bench: dict) -> None:
    """Human-readable report of one run, on stdout."""
    e2e, samples, env = record["e2e"], record["samples"], record["env"]
    blas = env["blas"]
    print(f"== {record['workload']}  seed={record['seed']}  seconds={record['seconds']}  trace={record['trace']}")
    print(f"inputs sha256 {record['inputs']['sha256']} ({record['inputs']['files']} files, {record['inputs']['bytes']} bytes)")
    print(
        f"env: cpus={env['cpu_count']} usable={env['cpus_usable']} blas={blas['name']} {blas['version']} "
        f"core={blas['core']} blas_threads={blas['threads']} numpy={env['numpy']} python={env['python']} "
        f"git={env['git']['sha']} dirty={env['git']['dirty']}"
    )
    print(f"machine speed: reference kernel {' -> '.join(f'{c:.4f}' for c in env['calibration_ms'])} ms (start -> end)")
    ops = samples["ops"]
    n_beyond = beyond(ops, 0.95)
    notes = {
        "setup_s": f"median of {samples['setup_reps']} set-ups, plus imports",
        "latency_p50_ms": f"{ops} ops",
        "latency_p95_ms": f"{ops} ops, {n_beyond} beyond" + ("" if e2e["latency_p95_ms"] is not None else " (< 10)"),
        "throughput_ops_per_s": "closed loop, 1 client",
        "error_rate": f"{record['failed']}/{record['attempted']} ops and checks",
        "recall_at_1": f"{samples['retrievals']} retrievals; embedding "
        f"{samples['embedding_oracle_hits']}/{samples['embedding_retrievals']}",
        "label_accuracy": f"{samples['retrievals']} retrievals",
        "rtf_p50": f"{ops} requests" if e2e["rtf_p50"] is not None else "synth only",
        "peak_rss_mb": "worker process",
    }
    specs = end_to_end_specs(bench)
    for name in REPORT_ORDER:
        print(f"  {name:<22} {fmt(e2e[name]):>12} {specs[name]['unit']:<6} {notes[name]}")
    if record["trace"]:
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        t = record["tracing"]
        print(
            f"  traced p50 {fmt(t['traced_p50_ms'])} ms over {t['traced_ops']} ops, "
            f"untraced p50 {fmt(t['untraced_p50_ms'])} ms over {t['untraced_ops']} ops"
        )
        for name, value in record["layers"].items():
            print(f"  {name:<38} {fmt(value):>14} {units.get(name, '')}")
        print(f"  {'span':<30} {'count':>6} {'median ms':>10} {'self ms':>10} {'total ms':>10}")
        for name, s in record["spans"].items():
            print(
                f"  {name:<30} {s['count']:>6} {s['median_ms']:>10.4f} {s['self_median_ms']:>10.4f} {s['total_ms']:>10.1f}"
            )
    for name, ok in record["checks"].items():
        print(f"  check {name}: {'ok' if ok else 'FAILED'}")


def result_line(record: dict, bench: dict) -> dict:
    """The last line of a run's output: the BENCHMARK.json metrics of its mode.

    A missing end-to-end metric makes the run incorrect; a missing per-layer
    metric is a layer this workload never calls, reported as 0.
    """
    kind, source = ("per_layer", record.get("layers", {})) if record["trace"] else ("end_to_end", record["e2e"])
    metrics, correct = {}, record["correct"]
    for m in bench[kind]:
        value = source.get(m["name"])
        if value is None:
            correct = correct and kind == "per_layer"
            value = 0.0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return {"correct": correct, "attempted": record["attempted"], "failed": record["failed"], "metrics": metrics}


def load_records(directory: Path) -> list:
    return [json.loads(p.read_text()) for p in sorted(Path(directory).glob("*.json"))]


def grouped(records: list, trace: int) -> dict:
    out = {}
    for r in records:
        if r["trace"] == trace:
            out.setdefault(r["workload"], []).append(r)
    for runs in out.values():
        runs.sort(key=lambda r: r["seed"])
    return out


def summary(directory: Path, bench: dict) -> None:
    """Median, quartiles and spread of every end-to-end metric over one set of runs."""
    specs = end_to_end_specs(bench)
    for workload, runs in grouped(load_records(directory), 0).items():
        print(f"== {workload}: {len(runs)} runs, seeds {[r['seed'] for r in runs]}")
        for name in REPORT_ORDER:
            values = [r["e2e"][name] for r in runs if r["e2e"][name] is not None]
            if not values:
                continue
            q1, med, q3 = quartiles(values)
            bound = specs[name].get("bound")
            share = spread(values)
            flag = "" if bound is None or name == "setup_s" or share <= bound / 3 else "  <-- spread above bound/3"
            print(f"  {name:<22} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} spread {share:.4f} bound {bound}{flag}")


def compare(parent_dir: Path, change_dir: Path, bench: dict) -> None:
    """Parent versus change: per workload x end-to-end metric, and per-layer self time."""
    specs = end_to_end_specs(bench)
    parent, change = load_records(parent_dir), load_records(change_dir)
    p0, c0 = grouped(parent, 0), grouped(change, 0)
    for workload in [w["name"] for w in bench["workloads"]] + list(EXTRA_WORKLOADS):
        if workload not in p0 or workload not in c0:
            continue
        pr, cr = p0[workload], c0[workload]
        if [r["seed"] for r in pr] != [r["seed"] for r in cr]:
            print(f"== {workload}: seeds differ between the sets; pairing runs in seed order")
        print(
            f"== {workload}: {min(len(pr), len(cr))} pairs; failed ops and checks: parent "
            f"{sum(r['failed'] for r in pr)}/{sum(r['attempted'] for r in pr)}, change "
            f"{sum(r['failed'] for r in cr)}/{sum(r['attempted'] for r in cr)}"
        )
        speed = [statistics.median(statistics.fmean(r["env"]["calibration_ms"]) for r in runs) for runs in (pr, cr)]
        print(f"  machine speed, reference kernel median: parent {speed[0]:.4f} ms, change {speed[1]:.4f} ms")
        print(f"  {'metric':<22} {'parent median [q1, q3]':<36} {'change median [q1, q3]':<36} {'won':>5}  verdict")
        for name in REPORT_ORDER:
            pairs = [(p["e2e"][name], c["e2e"][name]) for p, c in zip(pr, cr)]
            pairs = [(p, c) for p, c in pairs if p is not None and c is not None]
            if not pairs:
                continue
            pv, cv = [p for p, _ in pairs], [c for _, c in pairs]
            s = specs[name]
            result, share = verdict(pv, cv, s["better"], s["bound"])
            pq, cq = quartiles(pv), quartiles(cv)
            print(
                f"  {name:<22} {pq[1]:<10.5g} [{pq[0]:.5g}, {pq[2]:.5g}]".ljust(61)
                + f"{cq[1]:<10.5g} [{cq[0]:.5g}, {cq[2]:.5g}]".ljust(37)
                + f"{share:>5.0%}  {result}"
            )
    p1, c1 = grouped(parent, 1), grouped(change, 1)
    for workload in [w["name"] for w in bench["workloads"]] + list(EXTRA_WORKLOADS):
        if workload not in p1 or workload not in c1:
            continue
        print(f"== {workload}: per-layer self time, median over traced runs (ms)")
        names = sorted({n for r in p1[workload] + c1[workload] for n in r["spans"]})
        for name in names:
            pv = [r["spans"][name]["self_median_ms"] for r in p1[workload] if name in r["spans"]]
            cv = [r["spans"][name]["self_median_ms"] for r in c1[workload] if name in r["spans"]]
            pm = statistics.median(pv) if pv else 0.0
            cm = statistics.median(cv) if cv else 0.0
            rel = f"{(cm - pm) / pm:+.1%}" if pm else "new"
            print(f"  {name:<32} parent {pm:>10.4f}  change {cm:>10.4f}  diff {cm - pm:>+10.4f} ({rel})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="emorag benchmark")
    parser.add_argument("--workload", help="a workload named in BENCHMARK.json, or 'all'")
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED, help=f"inputs seed (default {DEFAULT_SEED}; {HELD_OUT_SEED} is held out)"
    )
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="directory to keep each run's full record in")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("PARENT_DIR", "CHANGE_DIR"))
    parser.add_argument("--summary", type=Path, metavar="DIR")
    args = parser.parse_args(argv)
    try:
        bench = spec()
        if args.compare:
            compare(*args.compare, bench)
            return 0
        if args.summary:
            summary(args.summary, bench)
            return 0
        names = [w["name"] for w in bench["workloads"]] + list(EXTRA_WORKLOADS)
        if args.workload not in names + ["all"]:
            parser.error(f"--workload must be one of {', '.join(names)} or all")
        seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
        if seconds <= 0:
            parser.error("--seconds must be positive")
        records = []
        for workload in names if args.workload == "all" else [args.workload]:
            record = run_workload(workload, args.seed, seconds, bool(args.trace))
            report(record, bench)
            if args.out:
                args.out.mkdir(parents=True, exist_ok=True)
                path = args.out / f"{workload}-seed{args.seed}-trace{args.trace}.json"
                path.write_text(json.dumps(record, indent=1) + "\n")
            records.append(record)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if len(records) == 1:
        print(json.dumps(result_line(records[0], bench)))
    else:
        lines = {r["workload"]: result_line(r, bench) for r in records}
        print(json.dumps({
            "correct": all(line["correct"] for line in lines.values()),
            "attempted": sum(line["attempted"] for line in lines.values()),
            "failed": sum(line["failed"] for line in lines.values()),
            "metrics": {w: line["metrics"] for w, line in lines.items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
