"""Tests of the benchmark's own machinery: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import shutil
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import calibrate  # noqa: E402
import gate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

GOLDEN = gate.GOLDEN_DIR / "master" / "evolve_master_n9.csv"


def _span(name, start, end, parent=-1, note=None):
    return [name, start, end, parent, note]


def test_self_time_subtracts_covered_child_time():
    tree = [
        _span("a", 0.0, 10.0),
        _span("b", 1.0, 3.0, 0),
        _span("c", 2.5, 4.0, 0),   # overlaps b: the union 1..4 is covered
        _span("d", 6.0, 7.0, 0),
        _span("e", 6.2, 6.7, 3),   # grandchild: only d loses it
        _span("f", 9.5, 12.0, 0),  # runs past its parent: clipped to 9.5..10
    ]
    assert spans.self_times(tree) == pytest.approx([5.5, 2.0, 1.5, 0.5, 0.5, 2.5])


def test_layer_metrics_counts_terms_and_rk4_steps():
    tree = [_span("master.evolve_master", 0.0, 5.0)]
    tree += [_span("master.apply_QN", k, k + 0.5, 0, [2, 1000]) for k in range(3)]
    tree.append(_span("boltzmann.qkbe_integrate", 5.0, 9.0))
    tree += [_span("boltzmann.wild", 5 + k / 10, 5.05 + k / 10, 4) for k in range(8)]
    m = spans.layer_metrics(tree)
    assert m["master.apply_QN.calls"] == 3
    assert m["master.apply_QN.operands"] == 6
    assert m["master.evolve_master.terms"] == 4
    assert m["master.evolve_master.self_s"] == pytest.approx(3.5)
    assert m["master.apply_QN.GBps_computed"] == pytest.approx(3000 / 1.5 / 1e9)
    assert m["boltzmann.qkbe_integrate.rk4_steps"] == 2
    assert m["boltzmann.qkbe_integrate.self_s"] == pytest.approx(3.6)
    assert m["boltzmann.wild.calls"] == 8


def test_normalise_uses_own_and_neighbouring_kernel_times():
    timeline = [{"kernel_s": [k], "kernel_cpu_s": [k / 2]} for k in (0.010, 0.020, 0.030)]
    timeline.append({"kernel_s": [0.040, 0.060, 0.050], "kernel_cpu_s": [0.020, 0.030, 0.025]})
    ref = calibrate.REF_S
    run.normalise(timeline, min_kernels=1)
    medians = [0.015, 0.020, 0.040, 0.045]
    assert [c["scale"] for c in timeline] == pytest.approx([ref / m for m in medians])
    assert [c["cpu_scale"] for c in timeline] == pytest.approx([2 * ref / m for m in medians])
    run.normalise(timeline, min_kernels=5)  # windows widen to hold 5 kernel times
    medians = [0.035, 0.035, 0.040, 0.040]
    assert [c["scale"] for c in timeline] == pytest.approx([ref / m for m in medians])


def test_kernel_s_is_the_geometric_mean_of_the_parts():
    assert calibrate.kernel_s([0.002, 0.008]) == pytest.approx(0.004)
    parts = calibrate.kernel_parts()
    assert len(parts["wall"]) == len(parts["cpu"]) == len(calibrate.PARTS)


def _perturbed(tmp_path, row, col, fn):
    header, rows = gate.read_csv(GOLDEN)
    k = header.index(col)
    rows[row][k] = fn(rows[row][k])
    path = tmp_path / "out.csv"
    path.write_text("\r\n".join(",".join(r) for r in [header] + rows) + "\r\n")
    return path


def test_gate_accepts_golden_and_rounding_noise(tmp_path):
    copy = tmp_path / "copy.csv"
    shutil.copyfile(GOLDEN, copy)
    assert gate.compare_golden("evolve-master", copy, GOLDEN) == []
    noisy = _perturbed(tmp_path, 1, "entropy", lambda v: repr(float(v) * (1 + 1e-13)))
    assert gate.compare_golden("evolve-master", noisy, GOLDEN) == []


def test_gate_rejects_value_beyond_tolerance(tmp_path):
    bad = _perturbed(tmp_path, 1, "entropy", lambda v: repr(float(v) * (1 + 1e-7)))
    problems = gate.compare_golden("evolve-master", bad, GOLDEN)
    assert len(problems) == 1 and "entropy" in problems[0]


def test_gate_matches_integer_columns_exactly(tmp_path):
    golden = gate.GOLDEN_DIR / "shells" / "ergodicity_d4_n6.csv"
    header, rows = gate.read_csv(golden)
    rows[0][header.index("class_count")] = str(int(rows[0][header.index("class_count")]) + 1)
    path = tmp_path / "out.csv"
    path.write_text("\r\n".join(",".join(r) for r in [header] + rows) + "\r\n")
    assert gate.compare_golden("ergodicity", path, golden)


def test_invariant_checks_reject_broken_outputs(tmp_path):
    rising = _perturbed(tmp_path, 1, "relative_entropy_to_limit", lambda v: "1.0")
    assert gate.check_invariant({"kind": "relative_entropy_nonincreasing"}, rising, {})
    assert not gate.check_invariant({"kind": "relative_entropy_nonincreasing"}, GOLDEN, {})


@pytest.fixture
def traced():
    """Install a tracer on qkac and restore every original binding after."""
    import qkac.cli  # noqa: F401  imports every traced module

    tracer = spans.Tracer()
    originals = spans.install(tracer)
    modules = spans.package_modules()
    back = {}
    for name, fn in originals.items():
        modname, fname = name.split(".")
        back[id(getattr(sys.modules[f"qkac.{modname}"], fname))] = fn
    yield tracer, originals
    for m in modules:
        for attr, val in list(vars(m).items()):
            if id(val) in back:
                setattr(m, attr, back[id(val)])


def test_install_rebinds_every_namespace(traced):
    tracer, originals = traced
    import qkac.chaos
    import qkac.cli
    import qkac.linearized
    import qkac.master

    assert spans.stale_bindings(originals, spans.package_modules()) == []
    assert qkac.cli.evolve_master is qkac.master.evolve_master is qkac.chaos.evolve_master
    assert qkac.linearized.wild is qkac.boltzmann.wild
    assert qkac.master.evolve_master is not originals["master.evolve_master"]


def test_calls_through_imported_names_are_traced(traced):
    tracer, _ = traced
    import numpy as np
    import qkac.chaos
    from qkac import qubit_tilted_spec

    gen = qkac.chaos.KacGenerator(qubit_tilted_spec(), 3)
    qkac.chaos.evolve_master(gen, np.eye(8, dtype=complex) / 8, 0.1)
    names = [s[0] for s in tracer.spans]
    assert names[0] == "master.evolve_master"
    assert names.count("master.apply_QN") > 0
    assert names.count("master.apply_QN") == names.count("master.apply_pair_channel") / 3
    assert all(s[3] >= 0 for s in tracer.spans[1:])


def test_stale_binding_is_reported(traced):
    _, originals = traced
    holder = types.ModuleType("qkac_fake")
    holder.run_later = originals["master.apply_QN"]
    assert spans.stale_bindings(originals, [holder]) == ["qkac_fake.run_later"]
