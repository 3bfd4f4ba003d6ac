"""Tests of the benchmark itself (about two minutes):

    python3 -m pytest bench/test_bench.py -q
"""
from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from homprop import corpus, linalg  # noqa: E402
from homprop.algebra import check_algebra, is_morphism, structure_map  # noqa: E402
from homprop.builtins import associativity  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, check=False, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced_runs():
    """Two traced runs of every workload with the same seed."""
    return {w: (_run(w, 7, 1), _run(w, 7, 1)) for w in run.WORKLOADS}


@pytest.mark.parametrize("entry", corpus.corpus(), ids=lambda e: e.name)
def test_transport_keeps_verdicts(entry):
    lam, beta = entry.algebra(), entry.betas[0]()
    g = inputs.dense_basis_change(lam.space, random.Random(entry.name))
    g_inv = linalg.inverse_map(g)
    lam_t = inputs.transport(lam, g, g_inv)
    beta_t = inputs.conjugate(g, beta, g_inv)
    p = entry.presentation
    assert check_algebra(lam_t, p).all_passed() == check_algebra(lam, p).all_passed() is True
    assert is_morphism(beta_t, lam_t, lam_t, p).holds == is_morphism(beta, lam, lam, p).holds
    assert is_morphism(g, lam, lam_t, p).holds
    # A failing verdict survives transport too: sl2 is not associative.
    if entry.name == "sl2":
        q = associativity()
        mu = q.signature["mu"]
        bare = structure_map(lam.space, {mu: lam.assignments[0][1]})
        bare_t = structure_map(lam.space, {mu: lam_t.assignments[0][1]})
        assert not check_algebra(bare, q).all_passed()
        assert not check_algebra(bare_t, q).all_passed()


def test_metric_names_match_spec(traced_runs):
    untraced = _run("twist-suite", 3, 0)
    assert set(untraced["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for first, _ in traced_runs.values():
        assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    for result in (untraced, traced_runs["twist-suite"][0]):
        for name, metric in result["metrics"].items():
            assert metric["unit"] == units[name]


def test_exact_counts_repeat(traced_runs):
    for workload, (first, second) in traced_runs.items():
        for name in spans.EXACT_COUNTS:
            assert first["metrics"][name] == second["metrics"][name], (workload, name)


def test_predicted_zeros(traced_runs):
    tower = traced_runs["tower-check"][0]["metrics"]
    assert tower["graphprop.term_to_graph.calls"]["value"] == 0
    assert tower["graphprop.isomorphic.calls"]["value"] == 0
    assert tower["graphprop.self_s"]["value"] == 0
    roundtrip = traced_runs["presentation-roundtrip"][0]["metrics"]
    for name in ("linalg.compose.calls", "linalg.tensor.calls", "linalg.perm_action.calls"):
        assert roundtrip[name]["value"] == 0
    assert roundtrip["linalg.self_s"]["value"] == 0
    assert roundtrip["presentation.relations_match.calls"]["value"] > 0


def test_spans_nest_and_self_times_are_not_negative(tmp_path):
    built = inputs.Inputs("twist-suite", 5, tmp_path)
    tracer = spans.Tracer()
    tracer.install()
    try:
        for n, case in enumerate(built.warmup):
            tracer.command = n
            assert case.run() == case.expected
    finally:
        tracer.uninstall()
    assert len(tracer) > 100
    for i, p in enumerate(tracer.parent):
        assert tracer.start[i] <= tracer.end[i]
        if p >= 0:
            assert p < i
            assert tracer.start[p] <= tracer.start[i] <= tracer.end[i] <= tracer.end[p]
            assert tracer.cmd[p] == tracer.cmd[i]
    # Children of one parent do not overlap, so self time is never negative
    # beyond the rounding of one float subtraction per child.
    assert min(spans.self_times(tracer)) >= -1e-9
    # Uninstalling restores every original function.
    import homprop.algebra

    assert not hasattr(homprop.algebra.compose, "__wrapped__")


def test_wrong_or_raised_verdicts_are_mismatches():
    def boom():
        raise ValueError("internal")

    assert run.run_case(inputs.Case("ok", lambda: (0, "pass"), inputs.PASS))[1] == []
    assert run.run_case(inputs.Case("wrong", lambda: (1, "fail"), inputs.PASS))[1]
    assert run.run_case(inputs.Case("raised", boom, inputs.PASS))[1]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "twist-suite", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, check=False, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
