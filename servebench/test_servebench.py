"""Self-tests of the serving benchmark.

Run from the repository root::

    python3 -m pytest servebench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import env

env.prepare()

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import runner  # noqa: E402
import workloads  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402
from workloads import WORKLOADS, PromptBook, make_round  # noqa: E402

HERE = Path(__file__).resolve().parent


def small(name: str, n: int = 6):
    """The named workload with ``n`` requests per round."""
    return replace(WORKLOADS[name], requests_per_round=n)


def same_round(a, b) -> bool:
    return (
        a.requests == b.requests
        and a.answers == b.answers
        and a.prompts.keys() == b.prompts.keys()
        and all(np.array_equal(a.prompts[k], b.prompts[k]) for k in a.prompts)
    )


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_pure_and_seeded(name):
    assert same_round(make_round(name, 3, 1), make_round(name, 3, 1))
    a, b = make_round(name, 3, 1), make_round(name, 4, 1)
    assert [r.arrival for r in a.requests] != [r.arrival for r in b.requests]
    assert not same_round(a, b)
    assert not same_round(make_round(name, 3, 0), a)


@pytest.mark.parametrize("name", ["longctx_needle", "chat_decode"])
def test_needle_geometry_is_fixed_and_its_order_seeded(name):
    def sizes(rnd):
        return [rnd.prompts[r.request_id].size for r in rnd.requests]

    a, b = make_round(name, 3, 0), make_round(name, 4, 0)
    assert sorted(sizes(a)) == sorted(sizes(b))
    assert sizes(a) != sizes(b)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_prompts_match_engine_lengths(name):
    w = WORKLOADS[name]
    rnd = make_round(w, 0, 0)
    assert len(rnd.requests) == w.requests_per_round
    for r in rnd.requests:
        assert r.prompt_len == rnd.prompts[r.request_id].size * workloads.LENGTH_SCALE
        assert r.decode_tokens == w.decode_tokens
    # Conditioned arrivals: all inside the round's window.
    window = w.requests_per_round / w.rate_per_s
    arrivals = [r.arrival for r in rnd.requests]
    if name == "shared_doc":
        arrivals = [a - workloads.FOLLOWER_OFFSET_S for a in arrivals[2:]]
        window = (w.requests_per_round - workloads.SHARED_DOCS) / w.rate_per_s
    assert arrivals == sorted(arrivals) and 0 < arrivals[0] and arrivals[-1] < window


def test_shared_doc_primers_precede_followers():
    rnd = make_round("shared_doc", 5, 0)
    primers = rnd.requests[: workloads.SHARED_DOCS]
    assert all(r.arrival == 0.0 for r in primers)
    assert all(
        r.arrival > workloads.FOLLOWER_OFFSET_S
        for r in rnd.requests[workloads.SHARED_DOCS :]
    )
    for r in rnd.requests:
        doc = rnd.prompts[r.request_id][:-2]
        assert doc.size % workloads.BLOCK_TOKENS == 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_dense_reference_answers_every_planted_question(name):
    right, n = runner.reference_check(WORKLOADS[name], 7, n=4)
    assert right == n == 4


def _serve(name: str, seed: int, n: int = 6):
    w = small(name, n)
    book = PromptBook()
    engine = runner.build_engine(book)
    rounds = runner.serve_rounds(engine, book, w, seed, 1)
    return w, engine, rounds


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_repeats_deterministic_outputs(name):
    def outputs():
        w, _engine, rounds = _serve(name, 11)
        reg = rounds[0].result.telemetry
        e2e = runner.end_to_end(rounds, w)
        return (
            e2e["needle_accuracy"][0],
            reg.counter("kernel_packed_tiles_visited"),
            reg.counter("plan_cache_misses"),
            reg.counter("prefix_cache_hits"),
            [tm.generated for tm in rounds[0].result.requests],
        )

    first, second = outputs(), outputs()
    assert first == second
    assert runner.unterminated(_serve(name, 11)[2]) == 0


def test_tracer_restores_every_wrapped_function():
    before = [(owner, attr, vars(owner).get(attr)) for _, owner, attr, _ in TARGETS]
    with pytest.raises(RuntimeError):
        with Tracer():
            for _, owner, attr, _ in TARGETS:
                assert hasattr(getattr(owner, attr), "__wrapped__")
            raise RuntimeError("boom")
    for owner, attr, original in before:
        assert vars(owner).get(attr) is original


@pytest.mark.parametrize("name", ["chat_decode", "shared_doc"])
def test_traced_self_times_sum_to_traced_wall(name):
    w = small(name)
    book = PromptBook()
    engine = runner.build_engine(book)
    with Tracer() as tracer:
        t0 = time.perf_counter()
        rounds = runner.serve_rounds(engine, book, w, 2, 1)
        outer = time.perf_counter() - t0
    totals = tracer.totals()
    self_sum = sum(row["self_s"] for row in totals.values())
    assert self_sum == pytest.approx(tracer.wall_s(), rel=1e-9)
    assert tracer.wall_s() == pytest.approx(rounds[0].wall_s, rel=0.02)
    assert tracer.wall_s() <= outer
    assert totals["engine.run"]["calls"] == 1
    for layer in ("model.prefill", "model.decode", "kernel.prefill",
                  "kernel.decode", "memory.append", "planner.plan"):
        assert totals[layer]["calls"] > 0, layer


def test_layer_predictions_on_small_rounds():
    """Which layer dominates depends on the workload."""
    layers = {}
    for name in ("longctx_needle", "chat_decode", "shared_doc"):
        w = small(name, 8)
        book = PromptBook()
        engine = runner.build_engine(book)
        with Tracer() as tracer:
            rounds = runner.serve_rounds(engine, book, w, 4, 1)
        layers[name] = runner.per_layer(rounds, tracer, tracer.wall_s(), engine)
    long_, chat, shared = (layers[n] for n in ("longctx_needle", "chat_decode", "shared_doc"))
    assert long_["kernel.prefill.s"][0] > long_["kernel.decode.s"][0]
    assert chat["kernel.decode.s"][0] > chat["kernel.prefill.s"][0]
    assert long_["memory.prefix_hits"][0] == 0
    assert shared["memory.prefix_hits"][0] > 0
    assert 0 < long_["kernel.prefill.tile_density"][0] <= 1


def test_run_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, the command exits
    non-zero without printing a result."""
    shutil.copytree(HERE, tmp_path / "servebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "servebench/run.py", "--workload", "chat_decode",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_run_rejects_unknown_workload():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "nope",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert not proc.stdout.strip() or not proc.stdout.strip().splitlines()[-1].startswith("{")


def test_result_line_is_json_with_contract_keys(capsys, monkeypatch):
    """One short traced run through ``main``: the last stdout line is the
    result object and every per-layer metric is reported."""
    import run

    monkeypatch.setattr(runner, "SETUP_REPS", 1)
    monkeypatch.setattr(run, "SPANS_DIR", Path(env.ROOT / ".bench_out"))
    monkeypatch.setitem(WORKLOADS, "chat_decode", small("chat_decode", 4))
    code = run.main(["--workload", "chat_decode", "--seed", "3",
                     "--seconds", "0.1", "--trace", "1"])
    last = capsys.readouterr().out.strip().splitlines()[-1]
    result = json.loads(last)
    assert code == 0 and result["correct"] is True
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    bench = json.loads((env.ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in bench["per_layer"]}
