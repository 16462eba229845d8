"""The benchmark's own tests.

    PYTHONPATH=src python -m pytest perfbench -q

Each workload is run three times on one seed (untraced, untraced,
traced).  The simulated domain must not notice the repetition or the
tracer, and the tracer's layer self times plus its unclaimed residual
must account for the traced wall-clock.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import run  # noqa: E402
from layers import UNITS  # noqa: E402
from layertrace import (  # noqa: E402
    CLASS_SPANS, FUNCTION_SPANS, LAYERS, LayerTracer,
)
from workloads import WORKLOADS, relay_build, relay_inputs  # noqa: E402

SEED = 7


@pytest.fixture(scope="module")
def reps():
    out = {}
    for workload, (make_inputs, _) in WORKLOADS.items():
        inputs = make_inputs(SEED)
        out[workload] = [
            run.run_once(workload, inputs, traced=False),
            run.run_once(workload, inputs, traced=False),
            run.run_once(workload, inputs, traced=True),
        ]
    return out


def simulated(rep):
    return {key: rep[key] for key in run.SIM_KEYS}, rep["layers"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_simulated_metrics(reps, workload):
    first, second, _ = reps[workload]
    assert first["problems"] == []
    assert simulated(first) == simulated(second)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tracing_does_not_change_the_simulation(reps, workload):
    plain, _, traced = reps[workload]
    assert traced["problems"] == []
    assert simulated(traced) == simulated(plain)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_self_times_and_residual_add_up_to_traced_wall(reps, workload):
    trace = reps[workload][2]["trace"]
    self_s = trace["self_s"]
    assert set(self_s) == set(LAYERS)
    assert all(t >= 0.0 for t in self_s.values())
    assert trace["unclaimed_s"] >= 0.0
    accounted = sum(self_s.values()) + trace["unclaimed_s"]
    # only the tracer's own timer reads fall between the two clocks
    assert accounted == pytest.approx(trace["wall_s"], rel=0.01)
    # every event went to some layer, and the work layers did show up
    assert sum(trace["events"].values()) == reps[workload][2]["events"]
    assert self_s["codec"] > 0 and self_s["speaker"] > 0


def test_host_times_scale_with_the_reference_speed(reps):
    plain, _, traced = reps["relay_tree"]
    assert plain["speed"] > 0 and plain["setup_speed"] > 0
    assert traced["speed"] is None and traced["setup_speed"] is None
    base = run.end_to_end([plain])
    doubled = run.end_to_end([dict(plain, speed=2 * plain["speed"],
                                   setup_speed=2 * plain["setup_speed"])])
    for name in ("host_us_per_listener_s", "host_ms_per_sim_s.p50",
                 "host_ms_per_sim_s.p90", "setup_s"):
        assert doubled[name][0] == pytest.approx(2 * base[name][0])
    assert doubled["played_ratio"] == base["played_ratio"]


def test_tracer_detach_restores_the_program():
    job = relay_build(relay_inputs(SEED))
    before = [cls.__dict__[attr] for _, _, cls, attr in CLASS_SPANS]
    tracer = LayerTracer(job.system).attach()
    tracer.detach()
    assert [cls.__dict__[attr] for _, _, cls, attr in CLASS_SPANS] == before
    assert "step" not in vars(job.system.sim)
    for module in list(sys.modules.values()):
        for _, _, fn in FUNCTION_SPANS:
            if getattr(module, "__name__", "").startswith("repro"):
                bound = getattr(module, fn.__name__, fn)
                assert getattr(bound, "__wrapped__", None) is None


def test_fails_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "station",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    for key, units in (("end_to_end", run.E2E_UNITS), ("per_layer", UNITS)):
        assert {m["name"]: m["unit"] for m in spec[key]} == units
