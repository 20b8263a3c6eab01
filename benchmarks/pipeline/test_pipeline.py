"""Smoke and unit tests of the pipeline benchmark harness.

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/pipeline/test_pipeline.py -q

The runners are driven on tiny inputs passed directly to the same
functions the benchmark uses; no workload runs at its benchmark size.
"""

import json
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent.parent / "src"))

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from spans import PIPELINE_LAYERS, ROOT, SpanRecorder  # noqa: E402

BENCH = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())

TINY_OPS = {
    "flow": {"key": "flow", "cycle": 0, "slot": 0, "traced": False,
             "circuit": "spla", "scale": 0.01, "rows": 12, "tolerance": 6},
    "sweep": {"key": "sweep", "cycle": 0, "slot": 0, "traced": False,
              "circuit": "spla", "scale": 0.01, "rows": 12},
    "serve": {"key": "serve", "cycle": 0, "slot": 0, "traced": False,
              "line": json.dumps({"id": "a", "cmd": "ksweep",
                                  "source": "spla@0.01", "rows": 12,
                                  "k": [0.0, 0.005]})},
}


# -- the span recorder ----------------------------------------------------


class FakeClock:
    """A clock the synthetic layers advance by hand."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture
def fakepkg():
    """A synthetic package: core defines the layers, user aliases them."""
    clock = FakeClock()
    core = types.ModuleType("fakepkg.core")
    user = types.ModuleType("fakepkg.user")
    pkg = types.ModuleType("fakepkg")

    def leaf():
        clock.now += 1.0

    def middle():
        clock.now += 2.0
        core.leaf()
        clock.now += 3.0

    class Engine:
        def run(self):
            clock.now += 4.0
            core.middle()
            user.unlisted()

    def unlisted():
        clock.now += 10.0

    core.leaf, core.middle, core.Engine = leaf, middle, Engine
    user.step, user.unlisted = middle, unlisted     # an alias of middle
    pkg.leaf = leaf                                  # a re-export
    mods = {"fakepkg": pkg, "fakepkg.core": core, "fakepkg.user": user}
    sys.modules.update(mods)
    yield types.SimpleNamespace(clock=clock, core=core, user=user, pkg=pkg)
    for name in mods:
        del sys.modules[name]


LAYERS = {"leaf": ["fakepkg.core:leaf"], "middle": ["fakepkg.core:middle"],
          "engine": ["fakepkg.core:Engine.run"]}


def _recorder(fakepkg, layers=LAYERS):
    return SpanRecorder(layers, package="fakepkg", clock=fakepkg.clock)


def test_self_time_of_nested_calls(fakepkg):
    with _recorder(fakepkg) as rec:
        with rec.root():
            fakepkg.core.Engine().run()
            fakepkg.clock.now += 0.5        # the benchmark's own work
    summary = rec.summary()
    layers = summary["layers"]
    assert layers["leaf"] == {"self_s": 1.0, "calls": 1}
    assert layers["middle"] == {"self_s": 5.0, "calls": 1}
    assert layers["engine"] == {"self_s": 14.0, "calls": 1}  # + unlisted
    assert summary["root_s"] == 20.5
    assert summary["root_self_s"] == 0.5
    # Parents are recorded: leaf -> middle -> engine -> root.
    by_layer = {span[2]: span for span in rec.spans}
    assert by_layer["leaf"][1] == by_layer["middle"][0]
    assert by_layer["middle"][1] == by_layer["engine"][0]
    assert by_layer["engine"][1] == by_layer[ROOT][0]


def test_aliases_and_reexports_are_wrapped(fakepkg):
    with _recorder(fakepkg) as rec:
        with rec.root():
            fakepkg.user.step()      # alias of core.middle
            fakepkg.pkg.leaf()       # re-export of core.leaf
    layers = rec.summary()["layers"]
    assert layers["middle"]["calls"] == 1
    assert layers["leaf"]["calls"] == 2


def test_originals_restored_on_exit(fakepkg):
    before = (fakepkg.core.leaf, fakepkg.user.step, fakepkg.pkg.leaf,
              fakepkg.core.Engine.__dict__["run"])
    with _recorder(fakepkg):
        assert fakepkg.user.step is not before[1]
    after = (fakepkg.core.leaf, fakepkg.user.step, fakepkg.pkg.leaf,
             fakepkg.core.Engine.__dict__["run"])
    assert all(a is b for a, b in zip(before, after))


def test_missing_target_fails_loudly(fakepkg):
    layers = dict(LAYERS, gone=["fakepkg.core:renamed"])
    with pytest.raises(LookupError, match="renamed"):
        with _recorder(fakepkg, layers):
            pass
    assert not hasattr(fakepkg.core.leaf, "__wrapped__")


def _traced_result(rec):
    ops = [{"cycle": 0, "traced": False, "t_s": 1.0},
           {"cycle": 1, "traced": True, "t_s": 1.0}]
    return {"trace": rec.summary(), "cache_hit_rates": {}, "ops": ops,
            "import_s": 0.0}


def test_untimed_share_trips_when_a_layer_is_unwrapped(fakepkg):
    complete = dict(LAYERS, unlisted=["fakepkg.user:unlisted"])
    for layers, tripped in ((LAYERS, True), (complete, False)):
        with _recorder(fakepkg, layers) as rec:
            with rec.root():
                fakepkg.core.middle()
                fakepkg.user.unlisted()
        result = _traced_result(rec)
        metrics = run.per_layer(result)
        flags = run.trace_flags(metrics)
        assert any("untimed.share" in f for f in flags) == tripped


# -- workloads and metric names -------------------------------------------


def test_benchmark_json_lists_every_metric():
    workloads_named = [w["name"] for w in BENCH["workloads"]]
    assert workloads_named == list(workloads.WORKLOADS)
    layer_metrics = [f"{layer}.{suffix}" for layer in PIPELINE_LAYERS
                     for suffix in ("self_s", "calls", "share")]
    assert [m["name"] for m in BENCH["per_layer"]] == \
        layer_metrics + list(run.RATIO_METRICS)
    result = {"ops": [{"cycle": 0, "slot": 0, "kpoints": 2, "t_s": 1.0}],
              "peak_rss_mb": 100.0}
    assert [m["name"] for m in BENCH["end_to_end"]] == \
        list(run.end_to_end(result, [1.0]))


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_inputs_are_seeded_and_cycles_carry_equal_work(name):
    inputs = workloads.make_inputs(name, 7, 60)
    assert inputs == workloads.make_inputs(name, 7, 60)
    cycles = {}
    for op in inputs["ops"]:
        cycles.setdefault(op["cycle"], []).append(op)
    assert len(cycles) >= 2
    sizes = {len(ops) for ops in cycles.values()}
    assert len(sizes) == 1
    keys = [op["key"] for op in inputs["ops"]]
    if name == "serve_cold":
        assert len(set(keys)) == len(keys)          # always a new netlist
    else:
        first = sorted(op["key"] for op in cycles[0])
        assert all(sorted(op["key"] for op in ops) == first
                   for ops in cycles.values())
    assert not any(op["traced"] for op in inputs["ops"])
    traced = workloads.make_inputs(name, 7, 60, trace=True)["ops"]
    assert len(traced) == 2 * len(inputs["ops"])
    pattern = {op["cycle"]: op["traced"] for op in traced}
    assert [pattern[c] for c in range(4)] == [False, True, True, False]


# -- the runners on tiny inputs -------------------------------------------


@pytest.fixture(scope="module")
def program():
    return worker.import_program()


@pytest.mark.parametrize("kind", ["flow", "sweep", "serve"])
def test_runner_on_tiny_input_traced(program, kind, tmp_path):
    ctx = worker.setup(kind, program)
    op = TINY_OPS[kind]
    plain = worker.run_op(ctx, op)
    rec = SpanRecorder(PIPELINE_LAYERS, hooks=worker.HOOKS)
    with rec:
        traced = worker.run_op(ctx, op, rec)
    rec.dump(str(tmp_path / "trace.jsonl"))
    assert plain["error"] == traced["error"] == ""
    assert plain["kpoints"] >= 1
    result = {"warmup": [plain], "ops": [traced]}
    check = run.check_rows(kind, result, {})
    assert check["failed"] == 0 and len(check["unknown"]) == 1
    summary = rec.summary()
    assert summary["layers"]["core.flow"]["calls"] > 0
    assert summary["root_self_s"] / summary["root_s"] < 0.05
    lines = (tmp_path / "trace.jsonl").read_text().splitlines()
    assert len(lines) == len(rec.spans)


# -- the correctness gate, end to end -------------------------------------


def test_perturbed_golden_fails_the_run(monkeypatch, tmp_path, capsys):
    tiny = {"kind": "serve", "warmup": [], "ops": [TINY_OPS["serve"]]}
    monkeypatch.setattr(run, "make_inputs", lambda *args: tiny)
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "GOLDEN_PATH", tmp_path / "golden.json")
    argv = ["--workload", "serve_cold", "--seed", "0"]
    assert run.main(argv) == 0
    report = json.loads((tmp_path / "BENCH_pipeline.json").read_text())
    digests = report["workloads"]["serve_cold"]["sets"][0]["check"][
        "digests"]
    (inputs, rows), = digests.items()
    (tmp_path / "golden.json").write_text(json.dumps(
        {"serve_cold": {inputs: "0" * len(rows)}}))
    capsys.readouterr()
    assert run.main(argv) == 1
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["failed"] > 0 and not last["correct"]
    report = json.loads((tmp_path / "BENCH_pipeline.json").read_text())
    assert report["workloads"]["serve_cold"]["sets"][0]["fail_frac"] > 0
