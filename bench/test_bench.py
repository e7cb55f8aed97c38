"""The benchmark's own tests.  Run from the repository root:

    python3 -m pytest bench -q
"""

import importlib.util
import json
import os
import random
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

from augq import AugmentedRing, build_report  # noqa: E402
from augq import cli  # noqa: E402
from run import run_child  # noqa: E402
from tracer import (  # noqa: E402
    SELF_TIME_METRICS,
    Tracer,
    TracerError,
    attribute_rings,
    layer_metrics,
    self_times,
)
from workloads import (  # noqa: E402
    ACCEPTANCE_CORPUS,
    BASE_RINGS_PATH,
    REFS_PATH,
    change_of_basis,
    check_change_of_basis,
    check_rows,
    dense_specs,
    load_json,
    rebase,
)


def test_self_times_subtract_only_direct_children():
    spans = [
        ["root", 0.0, 10.0, -1, None, None],
        ["a", 1.0, 4.0, 0, None, None],
        ["a.child", 2.0, 3.0, 1, None, None],
        ["b", 5.0, 9.0, 0, None, None],
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    assert sum(self_times(spans)) == 10.0


def test_traced_sweep_self_times_add_up_and_name_rings(tmp_path):
    spec = load_json(BASE_RINGS_PATH)["rep:D5"]
    (tmp_path / "d5.json").write_text(json.dumps(spec))
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("group-ring C2xC2\nburnside S3\nring d5.json\n")
    out = tmp_path / "out.csv"
    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(["corpus", str(corpus), "--max-n", "6", "--out", str(out)])
    finally:
        tracer.uninstall()
    assert code == 0
    spans = tracer.spans
    attribute_rings(spans)
    metrics = layer_metrics(spans)
    root = spans[0]
    assert root[0] == "cli.main"
    total = sum(metrics[name] for name in SELF_TIME_METRICS)
    assert total == pytest.approx(root[2] - root[1], abs=1e-9)
    for name in ("constructors.ring_s", "augring.from_dict_s", "intlinalg.echelon_s"):
        assert metrics[name] > 0
    assert metrics["augring.chain_steps"] > 0
    assert 0 < metrics["intlinalg.useful_generator_ratio"] <= 1
    assert {s[4] for s in spans[1:]} == {
        "group-ring:C2xC2", "burnside:S3", "ring:d5"
    }


def test_tracer_restores_targets():
    original = cli.build_report
    tracer = Tracer()
    tracer.install()
    assert cli.build_report is not original
    tracer.uninstall()
    assert cli.build_report is original


def test_missing_trace_target_fails_loudly():
    tracer = Tracer(targets=[("gone", "augq.cli", "no_such_function")])
    with pytest.raises(TracerError, match="no longer exists"):
        tracer.install()
    bypassed = [
        ["cli.main", 0.0, 2.0, -1, None, None],
        ["augring.validate", 0.5, 1.0, 0, None, None],
    ]
    with pytest.raises(TracerError, match="never entered"):
        layer_metrics(bypassed)


def test_corrupted_reference_row_raises_failures():
    rows = load_json(REFS_PATH)["coeff-blowup"]["rows"]
    expected = list(rows.values())
    csv_text = "ring_id,status\n" + "".join(",".join(r) + "\n" for r in expected)
    assert check_rows(csv_text, expected) == 0
    corrupted = [list(r) for r in expected]
    corrupted[0][-2] = "2|2"
    assert check_rows(csv_text, corrupted) == 1
    assert check_rows("ring_id,status\n", expected) == len(expected)


def test_change_of_basis_is_unimodular_and_fixes_identity():
    rng = random.Random(7)
    for spec in load_json(BASE_RINGS_PATH).values():
        m, e = len(spec["basis"]), spec["identity"]
        u, u_inv = change_of_basis(m, e, rng)
        check_change_of_basis(u, u_inv, e)
        assert u != u_inv
    with pytest.raises(ValueError, match="unimodular"):
        check_change_of_basis([[1, 0], [0, 2]], [[1, 0], [0, 1]], 0)
    with pytest.raises(ValueError, match="identity"):
        check_change_of_basis([[1, 1], [0, 1]], [[1, -1], [0, 1]], 0)


def test_generated_specs_validate_and_keep_invariants():
    refs = load_json(REFS_PATH)["acceptance-corpus"]["rows"]
    specs = dense_specs(3, load_json(BASE_RINGS_PATH))
    assert len({stem for stem, _, _ in specs}) == len(specs)
    for stem, base_id, spec in specs:
        ring = AugmentedRing.from_dict(spec)
        assert ring.validate().passed, stem
    coefficients = {abs(q[3]) for _, _, spec in specs for q in spec["structure"]}
    assert max(coefficients) > 1
    for stem, base_id, spec in specs[:6]:
        rep = build_report(AugmentedRing.from_dict(spec), stem, max_n=20)
        want = refs[base_id]
        assert [str(rep.d), str(rep.r), str(rep.n0_candidate), str(rep.window)] == want[2:6]
        tail = "|".join(str(f) for f in rep.quotients[-1].group.invariant_factors)
        assert tail == want[7]


def test_rebase_round_trips():
    spec = load_json(BASE_RINGS_PATH)["group-ring:C2xC4"]
    u, u_inv = change_of_basis(8, spec["identity"], random.Random(1))
    back = rebase(rebase(spec, u, u_inv), u_inv, u)
    original = AugmentedRing.from_dict(spec)
    assert AugmentedRing.from_dict(back).to_dict()["structure"] == original.to_dict()["structure"]


def test_acceptance_corpus_matches_the_test_suite():
    path = os.path.join(ROOT, "tests", "conftest.py")
    spec = importlib.util.spec_from_file_location("augq_tests_conftest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert ACCEPTANCE_CORPUS == module.corpus_ring_specs()


def test_time_cap_kills_the_sweep():
    start = time.perf_counter()
    wall, _, code = run_child(
        [sys.executable, "-c", "import time; time.sleep(30)"], os.devnull, 0.5
    )
    assert code is None
    assert 0.5 <= wall < 5
    assert time.perf_counter() - start < 5
