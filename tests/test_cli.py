"""Command-line interface: every subcommand plus the exit-code contract."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from emorag import (
    IntensityLevel,
    init_vector_field,
    load_checkpoint,
    load_db,
    load_frames,
    load_index,
    save_checkpoint,
    save_db,
    save_frames,
)
from emorag import flow
from emorag.cli import build_parser, main
from emorag.flow import FrameSequence
from emorag.pipeline import SPEAKER_DIM
from emorag.synthbench import (
    DEFAULT_DIM,
    DEFAULT_MIX,
    DEFAULT_NUM_EMOTIONS,
    DEFAULT_SIGMA,
    DEFAULT_SIZES,
    DEFAULT_SPREAD,
)

from helpers import build_db, zero_first_centroid


def write_query(path, values):
    path.write_text(json.dumps({"values": [float(v) for v in values]}))
    return path


@pytest.fixture(scope="module")
def synth_space(tmp_path_factory):
    """Database, token files, checkpoint, and query for the synth command."""
    root = tmp_path_factory.mktemp("synth")
    db_path = root / "db.emdb"
    assert main(
        [
            "gen-data",
            "--emotions", "2",
            "--per-emotion", "3",
            "--dim", "6",
            "--seed", "0",
            "--out", str(db_path),
        ]
    ) == 0
    db = load_db(db_path)

    token_dir = root / "tokens"
    token_dir.mkdir()
    rng = np.random.default_rng(1)
    mapping = {}
    for rid in db.ids:
        frames = FrameSequence(rng.standard_normal((2, 4)), 50.0)
        save_frames(frames, token_dir / f"{rid}.frames")
        mapping[rid] = f"{rid}.frames"
    map_path = token_dir / "map.json"
    map_path.write_text(json.dumps(mapping))

    ckpt_path = root / "model.ckpt"
    save_checkpoint(init_vector_field(5, 4, 8, (8,), seed=0), ckpt_path)

    query_path = write_query(root / "query.json", db.matrix[4])
    return {
        "root": root,
        "db_path": db_path,
        "db": db,
        "map_path": map_path,
        "ckpt_path": ckpt_path,
        "query_path": query_path,
        "query_id": db.ids[4],
    }


def synth_argv(space, out, **extra):
    argv = [
        "synth",
        "--db", str(space["db_path"]),
        "--checkpoint", str(space["ckpt_path"]),
        "--query", str(space["query_path"]),
        "--tokens", str(space["map_path"]),
        "--text", "hi there",
        "--out", str(out),
    ]
    for flag, value in extra.items():
        argv += [f"--{flag.replace('_', '-')}", str(value)]
    return argv


# ---------------------------------------------------------------------------
# top level


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert "emorag 0.1.0" in capsys.readouterr().out


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == 2


def test_unknown_flag_is_usage_error(capsys):
    assert main(["gen-data", "--frobnicate", "1"]) == 2


def test_module_entry_point_runs_as_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "emorag", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "emorag 0.1.0" in proc.stdout


# ---------------------------------------------------------------------------
# gen-data / import-db


def test_gen_data_writes_database(tmp_path, capsys):
    out = tmp_path / "db.emdb"
    code = main(
        ["gen-data", "--emotions", "3", "--per-emotion", "5", "--dim", "6", "--out", str(out)]
    )
    assert code == 0
    assert "wrote 15 records" in capsys.readouterr().out
    db = load_db(out)
    assert len(db) == 15 and db.dim == 6


def test_gen_data_is_byte_deterministic(tmp_path, capsys):
    args = ["gen-data", "--emotions", "2", "--per-emotion", "4", "--dim", "5", "--seed", "9"]
    a, b = tmp_path / "a.emdb", tmp_path / "b.emdb"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_data_requires_out(capsys):
    assert main(["gen-data"]) == 2


def test_gen_data_bad_mix_sum_is_invalid(tmp_path, capsys):
    code = main(
        ["gen-data", "--mix", "0.3,0.3,0.3", "--out", str(tmp_path / "db.emdb")]
    )
    assert code == 5
    assert "error:" in capsys.readouterr().err


def test_gen_data_wrong_mix_arity_is_usage_error(tmp_path, capsys):
    assert main(["gen-data", "--mix", "0.5,0.5", "--out", str(tmp_path / "db.emdb")]) == 2


def test_gen_data_non_finite_mix_is_invalid(tmp_path, capsys):
    assert main(["gen-data", "--mix", "nan,0.5,0.5", "--out", str(tmp_path / "db.emdb")]) == 5
    assert "intensity_mix must be three finite non-negative fractions" in capsys.readouterr().err
    assert not (tmp_path / "db.emdb").exists()


@pytest.mark.parametrize("command", ["gen-data", "build-index", "bench", "train-fm", "synth"])
def test_negative_seed_is_usage_error(synth_space, tmp_path, capsys, command):
    out = tmp_path / "out"
    argv = {
        "gen-data": ["gen-data", "--out", str(out)],
        "build-index": ["build-index", "--db", str(synth_space["db_path"]), "--out", str(out)],
        "bench": ["bench", "--sizes", "8", "--queries", "1", "--emotions", "2", "--out", str(out)],
        "train-fm": ["train-fm", "--steps", "1", "--out", str(out)],
        "synth": synth_argv(synth_space, out),
    }[command]
    assert main([*argv, "--seed", "-1"]) == 2
    assert "--seed: expected a non-negative integer, got '-1'" in capsys.readouterr().err
    assert not out.exists()


def test_import_db_round_trip(tmp_path, capsys):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(
        json.dumps(
            [
                {
                    "id": "a",
                    "emotion_label": "joy",
                    "intensity": "weak",
                    "embedding": [1.0, 0.0],
                    "transcript": "hi",
                },
                {"id": "b", "emotion_label": "sad", "intensity": "strong", "embedding": [0.0, 1.0]},
            ]
        )
    )
    out = tmp_path / "db.emdb"
    assert main(["import-db", "--manifest", str(manifest), "--out", str(out)]) == 0
    assert "imported 2 records" in capsys.readouterr().out
    db = load_db(out)
    assert db.ids == ("a", "b")
    assert db.transcripts[0] == "hi"


def test_import_db_missing_manifest(tmp_path, capsys):
    code = main(
        ["import-db", "--manifest", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o.emdb")]
    )
    assert code == 4
    assert "manifest not found" in capsys.readouterr().err


def test_import_db_non_numeric_embedding_is_invalid_input(tmp_path, capsys):
    manifest = tmp_path / "manifest.json"
    entry = {"id": "a", "emotion_label": "joy", "intensity": "weak", "embedding": ["1.5", True, 2]}
    manifest.write_text(json.dumps([entry]))
    assert main(["import-db", "--manifest", str(manifest), "--out", str(tmp_path / "o.emdb")]) == 5
    assert "holds non-numeric value '1.5'" in capsys.readouterr().err
    assert not (tmp_path / "o.emdb").exists()


def test_import_db_manifest_that_is_not_utf8_is_invalid_input(tmp_path, capsys):
    manifest = tmp_path / "manifest.json"
    manifest.write_bytes(b"\xff[")
    assert main(["import-db", "--manifest", str(manifest), "--out", str(tmp_path / "o.emdb")]) == 5
    assert "error: manifest is not valid JSON" in capsys.readouterr().err


def test_import_db_bad_manifest_dim_is_invalid_input(tmp_path, capsys):
    manifest = tmp_path / "manifest.json"
    manifest.write_text('{"dim": "x", "records": []}')
    assert main(["import-db", "--manifest", str(manifest), "--out", str(tmp_path / "o.emdb")]) == 5
    assert "error: manifest dim must be a positive integer" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# build-index


def make_db_file(tmp_path, n=12, dim=5, intensities=None):
    rng = np.random.default_rng(0)
    vectors = rng.standard_normal((n, dim)).astype(np.float32)
    db = build_db(vectors, intensities=intensities)
    path = tmp_path / "db.emdb"
    save_db(db, path)
    return db, path


def test_build_index_writes_one_index_file(tmp_path, capsys):
    db, db_path = make_db_file(tmp_path)
    out = tmp_path / "db.emix"
    assert main(["build-index", "--db", str(db_path), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert f"wrote cluster index (k=3) to {out}" in captured.out  # three distinct labels
    assert captured.err == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["db.emdb", "db.emix"]
    assert load_index(out).k == 3


def test_build_index_with_an_empty_level_writes_the_same_one_file(tmp_path, capsys):
    _, db_path = make_db_file(tmp_path, n=8, intensities=["weak", "normal"] * 4)
    out = tmp_path / "db.emix"
    assert main(["build-index", "--db", str(db_path), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""  # no level has an index of its own to skip
    assert sorted(p.name for p in tmp_path.iterdir()) == ["db.emdb", "db.emix"]


def test_build_index_rejects_oversized_k(tmp_path, capsys):
    _, db_path = make_db_file(tmp_path)
    code = main(["build-index", "--db", str(db_path), "--k", "99", "--out", str(tmp_path / "o.emix")])
    assert code == 5


def test_build_index_missing_db(tmp_path, capsys):
    code = main(
        ["build-index", "--db", str(tmp_path / "none.emdb"), "--out", str(tmp_path / "o.emix")]
    )
    assert code == 4
    assert "database not found" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# retrieve


def test_retrieve_exact_match_prints_result(tmp_path, capsys):
    db, db_path = make_db_file(tmp_path)
    query = write_query(tmp_path / "q.json", db.matrix[7])
    assert main(["retrieve", "--db", str(db_path), "--query", str(query)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["record_id"] == "rec7"
    assert payload["similarity"] == pytest.approx(1.0, abs=1e-6)
    assert payload["method"] == "embedding"
    assert payload["candidates_scanned"] == 12
    assert payload["elapsed_ns"] > 0


def test_retrieve_empty_intensity_gate_is_exit_3(tmp_path, capsys):
    db, db_path = make_db_file(tmp_path, n=6, intensities=["weak"] * 6)
    query = write_query(tmp_path / "q.json", db.matrix[0])
    code = main(
        ["retrieve", "--db", str(db_path), "--query", str(query), "--intensity", "strong"]
    )
    assert code == 3


def test_emorag_log_debug_prints_the_gate_line(tmp_path):
    db, db_path = make_db_file(tmp_path, n=6, intensities=["weak", "strong"] * 3)
    query = write_query(tmp_path / "q.json", db.matrix[0])
    argv = [sys.executable, "-m", "emorag", "retrieve", "--db", str(db_path), "--query", str(query)]
    gated = [*argv, "--intensity", "strong"]
    quiet = subprocess.run(gated, capture_output=True, text=True)
    assert quiet.returncode == 0 and quiet.stderr == ""
    env = {**os.environ, "EMORAG_LOG": "DEBUG"}
    loud = subprocess.run(gated, capture_output=True, text=True, env=env)
    assert loud.returncode == 0
    line = "DEBUG emorag: level rows: 3 weak, 0 normal, 3 strong of 6 records\n"
    assert loud.stderr == line
    # an ungated exhaustive scan reads the same level rows, all three levels of them
    ungated = subprocess.run(argv, capture_output=True, text=True, env=env)
    assert ungated.returncode == 0 and ungated.stderr == line


def test_emorag_log_takes_a_whole_number_and_warns_of_an_unknown_name(tmp_path):
    db, db_path = make_db_file(tmp_path, n=6, intensities=["weak", "strong"] * 3)
    query = write_query(tmp_path / "q.json", db.matrix[0])
    argv = [sys.executable, "-m", "emorag", "retrieve", "--db", str(db_path), "--query", str(query)]
    runs = {
        level: subprocess.run(
            [*argv, "--intensity", "weak"], capture_output=True, text=True, env={**os.environ, "EMORAG_LOG": level}
        )
        for level in ("10", "verbose")
    }
    assert [run.returncode for run in runs.values()] == [0, 0]
    assert runs["10"].stderr == "DEBUG emorag: level rows: 3 weak, 0 normal, 3 strong of 6 records\n"
    warning = "warning: EMORAG_LOG='verbose' is not a logging level; logging stays off\n"
    assert runs["verbose"].stderr == warning
    answers = [json.loads(run.stdout) for run in runs.values()]
    assert [{**answer, "elapsed_ns": 0} for answer in answers] == [{**answers[0], "elapsed_ns": 0}] * 2


def test_retrieve_clustering_without_index_is_usage_error(tmp_path, capsys):
    db, db_path = make_db_file(tmp_path)
    query = write_query(tmp_path / "q.json", db.matrix[0])
    code = main(
        ["retrieve", "--db", str(db_path), "--query", str(query), "--method", "clustering"]
    )
    assert code == 2
    assert "--index is required" in capsys.readouterr().err


def test_retrieve_clustering_agrees_with_embedding_on_exact_match(tmp_path, capsys):
    db, db_path = make_db_file(tmp_path)
    index_path = tmp_path / "db.emix"
    assert main(["build-index", "--db", str(db_path), "--out", str(index_path)]) == 0
    capsys.readouterr()
    query = write_query(tmp_path / "q.json", db.matrix[3])
    assert main(
        [
            "retrieve",
            "--db", str(db_path),
            "--query", str(query),
            "--method", "clustering",
            "--index", str(index_path),
        ]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["record_id"] == "rec3"
    assert payload["method"] == "clustering"


def test_retrieve_checks_a_given_index_whatever_the_method(tmp_path, capsys):
    db, db_path = make_db_file(tmp_path)
    stale = tmp_path / "stale.emix"
    assert main(["build-index", "--db", str(db_path), "--out", str(stale)]) == 0
    _, db_path = make_db_file(tmp_path, n=10)  # another database in the same file
    capsys.readouterr()
    query = write_query(tmp_path / "q.json", db.matrix[3])
    for method in ("embedding", "clustering"):
        argv = ["retrieve", "--db", str(db_path), "--query", str(query), "--method", method]
        assert main([*argv, "--index", str(stale)]) == 5
        assert "index fingerprint does not match this database" in capsys.readouterr().err


def test_retrieve_corrupt_db_is_invalid(tmp_path, capsys):
    db_path = tmp_path / "bad.emdb"
    db_path.write_bytes(b"this is not a database")
    query = write_query(tmp_path / "q.json", [1.0, 0.0])
    assert main(["retrieve", "--db", str(db_path), "--query", str(query)]) == 5


def test_retrieve_non_numeric_query_is_invalid(tmp_path, capsys):
    _, db_path = make_db_file(tmp_path, dim=3)
    query = tmp_path / "q.json"
    query.write_text('{"values": ["1.5", true, 2]}')
    assert main(["retrieve", "--db", str(db_path), "--query", str(query)]) == 5
    assert "holds non-numeric value '1.5'" in capsys.readouterr().err


def test_retrieve_clustering_with_zero_norm_centroid_is_invalid(tmp_path, capsys):
    db, db_path = make_db_file(tmp_path)
    index_path = tmp_path / "db.emix"
    assert main(["build-index", "--db", str(db_path), "--out", str(index_path)]) == 0
    index_path.write_bytes(zero_first_centroid(index_path.read_bytes()))
    capsys.readouterr()
    query = write_query(tmp_path / "q.json", db.matrix[3])
    argv = ["retrieve", "--db", str(db_path), "--query", str(query), "--method", "clustering"]
    assert main([*argv, "--index", str(index_path)]) == 5
    assert "zero-norm centroid" in capsys.readouterr().err


def test_retrieve_dim_mismatch_is_invalid(tmp_path, capsys):
    _, db_path = make_db_file(tmp_path, dim=5)
    query = write_query(tmp_path / "q.json", [1.0, 0.0])
    assert main(["retrieve", "--db", str(db_path), "--query", str(query)]) == 5


# ---------------------------------------------------------------------------
# bench


def bench_argv(out, fmt="csv"):
    return [
        "bench",
        "--sizes", "40,80",
        "--methods", "embedding,clustering",
        "--queries", "8",
        "--emotions", "4",
        "--dim", "8",
        "--format", fmt,
        "--out", str(out),
    ]


def test_bench_writes_csv_grid(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    assert main(bench_argv(out)) == 0
    captured = capsys.readouterr()
    assert f"report written to {out}" in captured.out
    lines = out.read_text().splitlines()
    assert len(lines) == 5
    assert lines[0] == "method,db_size,accuracy,mean_latency_ns,p95_latency_ns,queries"
    assert lines[1].startswith("embedding,40,")
    assert lines[4].startswith("clustering,80,")


def test_bench_accuracy_repeats_exactly(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(bench_argv(a)) == 0
    assert main(bench_argv(b)) == 0
    acc = lambda p: [line.split(",")[2] for line in p.read_text().splitlines()[1:]]
    assert acc(a) == acc(b)


def test_bench_json_format(tmp_path, capsys):
    out = tmp_path / "bench.json"
    assert main(bench_argv(out, fmt="json")) == 0
    results = json.loads(out.read_text())
    assert len(results) == 4
    assert {r["db_size"] for r in results} == {40, 80}


def test_bench_prints_speedup_and_scaling_lines(tmp_path, capsys):
    out = tmp_path / "bench.json"
    assert main(bench_argv(out, fmt="json")) == 0
    lines = capsys.readouterr().out.splitlines()
    mean = {(r["method"], r["db_size"]): r["mean_latency_ns"] for r in json.loads(out.read_text())}
    speedups = [
        f"clustering speedup at n={n}: {mean[('embedding', n)] / mean[('clustering', n)]:.2f}x"
        for n in (40, 80)
    ]
    scaling = (
        f"exhaustive-scan latency scaling 80/40: "
        f"{mean[('embedding', 80)] / mean[('embedding', 40)]:.2f} (size ratio 2.00)"
    )
    assert lines[4:] == [*speedups, scaling, f"report written to {out}"]


def test_bench_single_method_prints_no_comparison(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    argv = bench_argv(out)
    argv[argv.index("embedding,clustering")] = "clustering"
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert lines[-1] == f"report written to {out}"


def test_bench_zero_queries_is_usage_error(tmp_path, capsys):
    assert main(["bench", "--queries", "0", "--out", str(tmp_path / "x.csv")]) == 2


# ---------------------------------------------------------------------------
# train-fm


def test_parser_defaults_are_the_library_constants():
    parse = build_parser().parse_args
    bench = parse(["bench", "--out", "grid.csv"])
    assert (bench.sizes, bench.emotions, bench.dim, bench.sigma, bench.spread) == (
        list(DEFAULT_SIZES),
        DEFAULT_NUM_EMOTIONS,
        DEFAULT_DIM,
        DEFAULT_SIGMA,
        DEFAULT_SPREAD,
    )
    gen = parse(["gen-data", "--out", "db.emdb"])
    assert (gen.sigma, gen.spread, gen.mix) == (DEFAULT_SIGMA, DEFAULT_SPREAD, DEFAULT_MIX)
    # a checkpoint with any other speaker dim cannot serve synth, so there is no flag for it
    assert not hasattr(parse(["train-fm", "--out", "model.ckpt"]), "spk_dim")


def test_train_fm_takes_no_speaker_dim(tmp_path, capsys):
    assert main(["train-fm", "--spk-dim", "4", "--out", str(tmp_path / "m.ckpt")]) == 2
    assert "--spk-dim" in capsys.readouterr().err
    assert not (tmp_path / "m.ckpt").exists()


def test_train_fm_zero_steps_writes_fresh_init(tmp_path, capsys):
    out = tmp_path / "model.ckpt"
    assert main(["train-fm", "--steps", "0", "--seed", "4", "--out", str(out)]) == 0
    assert "trained 0 steps" in capsys.readouterr().out
    loaded = load_checkpoint(out)
    fresh = init_vector_field(80, 8, 8, (64, 64), seed=4)
    for W, F in zip(loaded.weights, fresh.weights):
        assert W.tobytes() == F.tobytes()
    assert (tmp_path / "model.loss.csv").read_text() == "step,loss\n"


def test_train_fm_short_run_logs_losses(tmp_path, capsys):
    out = tmp_path / "model.ckpt"
    code = main(
        [
            "train-fm",
            "--steps", "5",
            "--state-dim", "6",
            "--token-dim", "3",
            "--hidden", "8",
            "--out", str(out),
        ]
    )
    assert code == 0
    assert "trained 5 steps" in capsys.readouterr().out
    model = load_checkpoint(out)
    assert (model.state_dim, model.cond_dim, model.spk_dim, model.hidden) == (6, 3, SPEAKER_DIM, (8,))
    lines = (tmp_path / "model.loss.csv").read_text().splitlines()
    assert lines[0] == "step,loss"
    assert len(lines) == 6
    assert all(float(line.split(",")[1]) > 0 for line in lines[1:])


def test_train_fm_custom_loss_log_path(tmp_path, capsys):
    out = tmp_path / "model.ckpt"
    log = tmp_path / "elsewhere.csv"
    code = main(
        [
            "train-fm",
            "--steps", "2",
            "--state-dim", "4",
            "--token-dim", "2",
            "--hidden", "4",
            "--loss-log", str(log),
            "--out", str(out),
        ]
    )
    assert code == 0
    assert log.exists()


def test_train_fm_bad_lr_is_invalid(tmp_path, capsys):
    assert main(["train-fm", "--lr", "-1", "--out", str(tmp_path / "m.ckpt")]) == 5


# ---------------------------------------------------------------------------
# synth


def test_synth_end_to_end(synth_space, tmp_path, capsys):
    out = tmp_path / "mel.frames"
    report_path = tmp_path / "report.json"
    assert main(synth_argv(synth_space, out, seed=3, report=report_path)) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["retrieved_id"] == synth_space["query_id"]
    assert report["seed"] == 3
    mel = load_frames(out)
    n_tokens = 2 + 4 * len("hi there")
    assert mel.num_frames == int(np.floor(n_tokens * 1.6 + 0.5))
    assert mel.dim == 5
    assert json.loads(report_path.read_text()) == report


def test_synth_reports_each_load(synth_space, tmp_path, capsys):
    index_path = tmp_path / "db.emix"
    assert main(["build-index", "--db", str(synth_space["db_path"]), "--out", str(index_path)]) == 0
    capsys.readouterr()
    loads = ["database", "query", "checkpoint", "token_map"]
    indexed = [*loads[:2], "index", *loads[2:]]
    for method, given, want in (("embedding", False, loads), ("embedding", True, indexed), ("clustering", True, indexed)):
        report_path = tmp_path / f"{method}-{given}.json"
        argv = synth_argv(
            synth_space, tmp_path / f"{method}-{given}.frames", method=method, report=report_path
        )
        if given:  # --index is loaded whenever it is given
            argv += ["--index", str(index_path)]
        assert main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        timings = report["load_timings_ns"]
        assert list(timings) == want
        assert all(type(v) is int and v > 0 for v in timings.values())
        assert json.loads(report_path.read_text()) == report


def test_synth_is_byte_deterministic(synth_space, tmp_path, capsys):
    a, b = tmp_path / "a.frames", tmp_path / "b.frames"
    assert main(synth_argv(synth_space, a, seed=11)) == 0
    assert main(synth_argv(synth_space, b, seed=11)) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_synth_intensity_gate_retrieves_gated_record(synth_space, tmp_path, capsys):
    out = tmp_path / "mel.frames"
    assert main(synth_argv(synth_space, out, intensity="weak")) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["intensity"] == "weak"
    db = synth_space["db"]
    assert db.intensity_codes[db.position(report["retrieved_id"])] == IntensityLevel.WEAK.wire_code


def test_synth_missing_checkpoint_is_exit_4(synth_space, tmp_path, capsys):
    argv = synth_argv(synth_space, tmp_path / "mel.frames")
    argv[argv.index("--checkpoint") + 1] = str(tmp_path / "missing.ckpt")
    assert main(argv) == 4
    assert "checkpoint not found" in capsys.readouterr().err


def test_synth_malformed_checkpoint_table_is_invalid(synth_space, tmp_path, capsys):
    # the header's table drops b0's shape; the dims fix every entry, so it is a format error
    raw = synth_space["ckpt_path"].read_bytes()
    header, payload = flow._unpack_artifact(raw, flow.CHECKPOINT_FORMAT)
    del header["arrays"][1]["shape"]
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"".join(flow._pack_artifact(header, payload)))
    argv = synth_argv(synth_space, tmp_path / "mel.frames")
    argv[argv.index("--checkpoint") + 1] = str(bad)
    assert main(argv) == 5
    assert "checkpoint array table" in capsys.readouterr().err


def test_synth_malformed_token_frames_is_invalid(synth_space, tmp_path, capsys):
    header = {"format": flow.FRAMES_FORMAT, "version": flow.ARTIFACT_VERSION, "num_frames": -2, "dim": -4, "frame_rate_hz": 50.0}
    (tmp_path / "bad.frames").write_bytes(b"".join(flow._pack_artifact(header, bytes(64))))
    token_map = tmp_path / "map.json"
    token_map.write_text(json.dumps(dict.fromkeys(synth_space["db"].ids, "bad.frames")))
    argv = synth_argv(synth_space, tmp_path / "mel.frames")
    argv[argv.index("--tokens") + 1] = str(token_map)
    assert main(argv) == 5
    assert "frames header declares -2 frames of dim -4" in capsys.readouterr().err


def test_synth_clustering_requires_index(synth_space, tmp_path, capsys):
    assert main(synth_argv(synth_space, tmp_path / "m.frames", method="clustering")) == 2
