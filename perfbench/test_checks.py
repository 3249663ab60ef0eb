"""Self-tests of the benchmark's checkers and bookkeeping.

Each analytic check must accept the value it predicts and reject a wrong
one. Run with `python3 perfbench/test_checks.py` or `python3 -m pytest
perfbench`.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from statistics import NormalDist

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import speed  # noqa: E402
from tracing import Span, Tracer, self_times, subtree  # noqa: E402

N, K, PFA, CAL = 8, 16, 0.01, 10000


def _eta_for(pfa: float, n: int = N, k: int = K) -> float:
    return 1.0 - pfa ** (1.0 / (k - n + 1))


def test_bonferroni_z_grows_with_checks_and_stays_below_five():
    assert math.isclose(checks.bonferroni_z(1, 0.0027), 3.0, abs_tol=0.01)
    zs = [checks.bonferroni_z(m) for m in (1, 6, 9, 19)]
    assert zs == sorted(zs)
    assert zs[-1] < 5.0  # so a 5-sigma fault is still caught


def test_kelly_pfa_matches_monte_carlo():
    """The closed form the null checks rest on, against a direct simulation."""
    n, k, trials, eta = 4, 8, 40000, 0.3
    rng = np.random.default_rng(1)

    def cn(*shape):
        return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2)

    zs = cn(trials, n, k)
    s = zs @ zs.conj().swapaxes(1, 2)
    z = cn(trials, n)
    v = np.exp(2j * np.pi * 0.1 * np.arange(n))
    sinv_v = np.linalg.solve(s, np.broadcast_to(v, (trials, n))[..., None])[..., 0]
    sinv_z = np.linalg.solve(s, z[..., None])[..., 0]
    a = np.einsum("i,bi->b", v.conj(), sinv_v).real
    b = np.einsum("i,bi->b", v.conj(), sinv_z)
    c = np.einsum("bi,bi->b", z.conj(), sinv_z).real
    glrt = np.abs(b) ** 2 / (a * (1 + c))
    expected = checks.kelly_glrt_pfa(eta, n, k)
    assert abs(np.mean(glrt > eta) - expected) < 5 * math.sqrt(expected * (1 - expected) / trials)


def test_glrt_check_rejects_threshold_with_doubled_pfa():
    z = checks.bonferroni_z(19)
    assert checks.check_glrt_threshold(_eta_for(PFA), N, K, PFA, CAL, z) is None
    assert checks.check_glrt_threshold(_eta_for(2 * PFA), N, K, PFA, CAL, z) is not None
    assert checks.check_glrt_threshold(_eta_for(PFA / 2), N, K, PFA, CAL, z) is not None


def test_null_rate_check_rejects_doubled_rate():
    z = checks.bonferroni_z(19)
    assert checks.check_null_rate(PFA, PFA, CAL, CAL, z, "x") is None
    assert checks.check_null_rate(2 * PFA, PFA, CAL, CAL, z, "x") is not None
    assert checks.check_null_rate(0.0, PFA, CAL, CAL, z, "x") is not None


def test_clairvoyant_pd_matches_gaussian_shift():
    """Q(Q^-1(Pfa) - sqrt(2 SCNR) cos phi), rebuilt from the statistic's two
    Gaussian laws: N(-S, 2S) under H0 and N(2 S cos phi - S, 2S) under H1."""
    for pfa, scnr_db, cos_sq in ((0.02, 0.0, 1.0), (0.05, 12.0, 0.25), (1e-3, 9.0, 0.5)):
        s = 10 ** (scnr_db / 10)
        h0 = NormalDist(-s, math.sqrt(2 * s))
        thr = h0.inv_cdf(1 - pfa)
        h1 = NormalDist(2 * s * math.sqrt(cos_sq) - s, math.sqrt(2 * s))
        assert math.isclose(checks.clairvoyant_pd(pfa, scnr_db, cos_sq), 1 - h1.cdf(thr), rel_tol=1e-9)
    assert math.isclose(checks.clairvoyant_pd(0.02, -80.0), 0.02, rel_tol=1e-3)


def test_pd_check_rejects_five_sigma_error():
    z = checks.bonferroni_z(9)
    for scnr_db in (0.0, 3.0, 6.0, 9.0):
        pd = checks.clairvoyant_pd(0.02, scnr_db)
        sigma = checks.pd_sigma(0.02, scnr_db, 1.0, 4608, 5000)
        args = (0.02, scnr_db, 1.0, 4608, 5000, z)
        assert checks.check_clairvoyant_pd(pd, *args) is None
        assert checks.check_clairvoyant_pd(pd + 3 * sigma, *args) is None
        assert checks.check_clairvoyant_pd(pd + 5 * sigma, *args) is not None
        assert checks.check_clairvoyant_pd(pd - 5 * sigma, *args) is not None


def test_em_cap_and_convergence_checks():
    assert checks.check_em_caps(0.50, 0.525, "x") is None
    assert checks.check_em_caps(0.50, 0.54, "x") is not None
    good = {1: 0.4, 2: 8e-5, 3: 6e-6, 4: 9e-7, 5: 2e-7, 6: 7e-8}
    assert checks.check_h0_convergence(good) is None
    assert checks.check_h0_convergence({**good, 4: 2e-4}) is not None
    assert checks.check_h0_convergence({**good, 6: 2e-5}) is not None
    assert checks.check_h0_convergence({1: 0.4}) is not None


def test_self_times_subtract_children():
    spans = [
        Span(0, None, "round", "bench", 0.0, 10.0),
        Span(1, 0, "cli.main", "cli", 1.0, 9.0),
        Span(2, 1, "harness.pd_curve", "harness", 2.0, 8.0),
        Span(3, 2, "engine.simulate_statistics", "engine", 3.0, 5.0),
        Span(4, 2, "engine.simulate_statistics", "engine", 5.0, 7.5),
        Span(5, None, "other", "bench", 11.0, 12.0),
    ]
    own = self_times(subtree(spans, spans[0]))
    assert own == {"bench": 2.0, "cli": 2.0, "harness": 1.5, "engine": 4.5}


def test_scale_is_reference_time_over_mean_pass():
    assert math.isclose(speed.scale([0.02, 0.03]), speed.REFERENCE_SECONDS / 0.025)
    assert speed.Reference().pass_seconds() > 0


def test_tracer_records_nested_calls_and_restores_functions():
    import embml.cli
    import embml.harness

    original = embml.harness.estimate_rate
    original_calibrate = embml.harness.calibrate
    tracer = Tracer()
    with tracer:
        # cli imported calibrate by name; its copy is wrapped as well
        assert embml.cli.calibrate is embml.harness.calibrate is not original_calibrate
        assert embml.harness.estimate_rate is not original
        embml.harness.estimate_rate(np.arange(10.0), 4.5)
    assert embml.harness.estimate_rate is original
    assert embml.cli.calibrate is original_calibrate
    assert [sp.name for sp in tracer.spans] == ["harness.estimate_rate"]


def test_benchmark_json_matches_the_metrics_printed():
    import run
    import workloads

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert tuple(w["name"] for w in spec["workloads"]) == run.WORKLOAD_NAMES
    assert tuple(workloads.WORKLOADS) == run.WORKLOAD_NAMES
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok {name}")
    print(f"{len(tests)} passed")
