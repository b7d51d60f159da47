"""Tests of the benchmark itself: checks, inputs and trace wrappers.

    python3 -m pytest -q perfbench

Run from the repository root.  The workloads run once at seed 1, a seed the
reference was not recorded at, so only the seed-independent invariant and
oracle checks apply; corrupting those outputs must make the checks fail.
"""

import dataclasses
import json
import os
import shutil
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import complimits.cli  # noqa: E402
from checks import CheckError, Checker  # noqa: E402
from hostspeed import REFERENCE_S, SpeedProbe  # noqa: E402
from spans import Tracer, tail  # noqa: E402
from worker import run_once  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, build  # noqa: E402

SECOND_SEED = 1


def _reference():
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Every workload's outputs at the second seed: {command name: (cmd, path, checker)}."""
    out = tmp_path_factory.mktemp("outputs")
    made = {}
    for name in WORKLOADS:
        workload = build(name, SECOND_SEED)
        checker = Checker(workload, ROOT, _reference())
        for cmd in workload.commands:
            path = str(out / (cmd.name + ".csv"))
            assert complimits.cli.main([*cmd.argv, "--output", path]) == 0
            made[cmd.name] = (cmd, path, checker)
    return made


def test_second_seed_passes_invariant_and_oracle_checks(outputs):
    for cmd, path, checker in outputs.values():
        assert checker.reference is None  # recorded at the default seed only
        rows, failures = checker.check(cmd, path)
        assert failures == []
        if cmd.rows is not None:
            assert rows == cmd.rows


def _corrupt(outputs, name, tmp_path, edit_row=None, edit_meta=None):
    cmd, path, _ = outputs[name]
    copy = str(tmp_path / os.path.basename(path))
    shutil.copy(path, copy)
    shutil.copy(path + ".meta.json", copy + ".meta.json")
    if edit_row is not None:
        with open(copy, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        index, column, value = edit_row
        cells = lines[index].split(",")
        cells[column] = value(cells[column])
        lines[index] = ",".join(cells)
        with open(copy, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    if edit_meta is not None:
        with open(copy + ".meta.json", encoding="utf-8") as fh:
            meta = json.load(fh)
        edit_meta(meta)
        with open(copy + ".meta.json", "w", encoding="utf-8") as fh:
            json.dump(meta, fh)
    workload = build(cmd_workload(name), SECOND_SEED)
    return Checker(workload, ROOT, None).check(cmd, copy)[1]


def cmd_workload(cmd_name):
    return next(w for w in WORKLOADS if any(c.name == cmd_name for c in build(w, SECOND_SEED).commands))


def _nudge(factor):
    return lambda cell: repr(float(cell) * factor)


@pytest.mark.parametrize(
    "name, edit_row, edit_meta",
    [
        ("limits", (3, 2, _nudge(1 + 1e-6)), None),  # epsilon_star at n = 10 (oracle)
        ("limits", (5000, 2, _nudge(1 + 1e-6)), None),  # epsilon_star at larger n (Rbar identity)
        ("limits", (5000, 6, lambda c: repr(float(c) + 1 / 60)), None),  # one bit more on R*
        ("limits", None, lambda m: m.update(truncated_at_n=400)),  # budget hit
        ("figure2", (2, 1, lambda c: repr(float(c) + 1 / 11)), None),  # R* at n = 11 (oracle)
        ("figure2", (1500, 2, _nudge(1 + 1e-6)), None),  # Gaussian approximation
        ("bounds", (50, 0, lambda c: str(int(c) + 1)), None),  # blocklength grid
        ("dispersion", (7, 2, _nudge(1 + 1e-9)), None),  # Var(iota)/n vs varentropy
        ("spectrum_2state", (1, 1, _nudge(2.0)), None),  # multiplicities no longer sum to samples
        ("spectrum_8state", None, lambda m: m.update(sample_size=1)),
        ("binning", (3, 2, lambda c: repr(float(c) + 0.01)), None),  # estimate 4+ standard errors away
    ],
)
def test_checks_catch_corrupted_outputs(outputs, tmp_path, name, edit_row, edit_meta):
    assert _corrupt(outputs, name, tmp_path, edit_row, edit_meta) != []


def test_reference_applies_at_default_seed_only():
    reference = _reference()
    assert reference["seed"] == DEFAULT_SEED
    assert Checker(build("monte_carlo", DEFAULT_SEED), ROOT, reference).reference is reference
    names = {cmd.name for w in WORKLOADS for cmd in build(w, DEFAULT_SEED).commands}
    assert set(reference["commands"]) == names


def test_reference_comparison_catches_a_drifted_value():
    import numpy as np

    reference = _reference()
    workload = build("monte_carlo", DEFAULT_SEED)
    binning = workload.commands[2]
    checker = Checker(workload, ROOT, reference)
    data = np.array([raw for _, raw in reference["commands"]["binning"]["sample"]], dtype=np.float64)
    checker._against_reference(binning, data)
    data[2, 1] *= 1 + 1e-6
    with pytest.raises(CheckError):
        checker._against_reference(binning, data)


def test_default_seed_gives_paper_parameters_and_sizes():
    rate = build("rate_sweep", DEFAULT_SEED).commands
    assert "0.11" in rate[0].argv and rate[0].masses == 2_002_946 and rate[1].masses == 302_401
    assert json.loads(rate[1].argv[2])["probs"] == [0.6, 0.3, 0.1]
    limits, dispersion = build("exact_tables", DEFAULT_SEED).commands
    assert limits.rows == 126_187 and dispersion.rows == 40
    chain, big, binning = build("monte_carlo", DEFAULT_SEED).commands
    assert json.loads(chain.argv[2])["kernel"] == [[0.9, 0.1], [0.2, 0.8]]
    assert chain.transitions + big.transitions == 59_930_000 and binning.trials == 1_000_000


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_inputs_come_from_the_seed_and_keep_sizes(name):
    a, b, c = build(name, 5), build(name, 5), build(name, 6)
    assert a == b and a != c
    size = ("rows", "spectra", "masses", "transitions", "trials")
    for x, y in zip(a.commands, c.commands):
        assert [getattr(x, k) for k in size] == [getattr(y, k) for k in size]


def test_trace_self_check_on_a_small_workload(tmp_path):
    """Traced counts match the workload definition, so no binding was missed,
    and uninstalling restores the original functions."""
    small = build("monte_carlo", SECOND_SEED)
    chain, big, binning = small.commands
    figure2 = dataclasses.replace(
        build("rate_sweep", SECOND_SEED).commands[0],
        argv=("figure2", "--n-min", "10", "--n-max", "40", "--n-step", "1"),
        rows=31, spectra=31, masses=sum(n + 1 for n in range(10, 41)),
        params={"probs": [0.89, 0.11], "eps": 0.1, "n": [10, 40]},
    )
    small = dataclasses.replace(small, commands=(
        figure2,
        dataclasses.replace(chain, argv=(*chain.argv[:3], "--n", "50", "--mc-samples", "2000", "--seed", "1"),
                            transitions=2000 * 49, params={**chain.params, "n": 50, "samples": 2000}),
        dataclasses.replace(binning, argv=(*binning.argv[:-4], "--trials", "5000", "--seed", "1"),
                            trials=25_000, params={**binning.params, "trials": 5000}),
    ))
    original = complimits.cli.iid_spectrum
    result = {"attempted": 0, "failed": 0, "failures": []}
    run = run_once(small, Checker(small, ROOT, None), str(tmp_path), True, result, SpeedProbe())
    assert result["failures"] == [] and result["attempted"] == 4
    layers = run["layers"]
    assert layers["spectrum.calls"] == 32 and layers["kernels.transitions"] == 98_000
    assert layers["optcode.rank_cuts"] > 0 and layers["cli.bytes"] > 0
    assert all(layers[f"{k}.self_s"] > 0 for k in ("cli", "spectrum", "optcode", "kernels", "binning", "bounds"))
    assert complimits.cli.iid_spectrum is original
    assert run["slowdown"] > 0 and run["wall_s"] == pytest.approx(run["wall_raw_s"] / run["slowdown"], rel=0.01)


def test_tracer_wraps_cross_module_bindings_only():
    tracer = Tracer()
    tracer.install()
    try:
        import complimits.optcode
        import complimits.spectrum

        assert complimits.cli.iid_spectrum.__wrapped__ is complimits.spectrum.iid_spectrum
        assert complimits.optcode.count_times_pstring.__wrapped__ is complimits.spectrum.count_times_pstring
        assert not hasattr(complimits.spectrum.count_times_pstring, "__wrapped__")
    finally:
        tracer.uninstall()
    assert not hasattr(complimits.cli.iid_spectrum, "__wrapped__")


def test_reference_seconds_take_out_probes_and_divide_by_the_slowdown():
    probe = SpeedProbe()
    probe.samples = [(0.5, REFERENCE_S), (1.0, 3 * REFERENCE_S), (2.0, 2 * REFERENCE_S), (9.0, 4 * REFERENCE_S)]
    assert probe.slowdown_in(1.0, 3.0) == pytest.approx(2.5)  # samples at 0.5, 1.0, 2.0 and 9.0
    assert probe.reference_s(1.0, 3.0) == pytest.approx((2.0 - 5 * REFERENCE_S) / 2.5)
    assert probe.slowdown_in(0.0, 0.1) == pytest.approx(1.0)  # no sample before, one after


def test_probe_timer_samples_and_restores_the_handler():
    import signal
    import time

    previous = signal.getsignal(signal.SIGALRM)
    probe = SpeedProbe(period_s=0.01)
    probe.start()
    try:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    finally:
        probe.stop()
    assert len(probe.samples) >= 5
    assert signal.getsignal(signal.SIGALRM) is previous


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert tail(list(range(1, 8))) == ("max of 7", 7)
    label, value = tail(list(range(1, 101)))
    assert value == 90 and label == "p90 of 100"


def test_benchmark_json_lists_what_run_py_prints():
    import run

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    layer_keys = [*Tracer().metrics(), "trace.overhead_frac"]
    assert [m["name"] for m in spec["per_layer"]] == layer_keys
    assert all(m["unit"] == run.UNITS[m["name"].split(".", 1)[1]] for m in spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "setup_s", "peak_rss_mb"}
