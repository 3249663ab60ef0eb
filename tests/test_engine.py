"""Tests for the trial-vectorized engine against the per-trial references.

The per-trial functions in detectors.py and em.py are the ground truth;
the batched engine must reproduce them to near machine precision, and its
output must not depend on chunking or worker count.
"""

import hashlib
import math
import threading
import time
import tracemalloc
from contextlib import closing
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats as sps

from embml import engine, scenario
from embml.detectors import (
    ace_statistic,
    amf_statistic,
    benchmark_statistic,
    glrt_statistic,
    rao_statistic,
    sample_covariance,
)
from embml.em import POSTERIOR_FLOOR, em_bml_statistic, run_em
from embml.engine import statistics_from_stacks
from embml.harness import pd_curve
from embml.scenario import (
    DataBatch,
    ScenarioConfig,
    build_covariance,
    inject_target,
    injection_amplitude,
    sample_batch,
    steering_vector,
)

ALL_LABELS = ("glrt", "amf", "rao", "ace", "benchmark", "em-bml-d5",
              "em-bml-d7")


def joined(cfg, labels, n_trials, **kwargs):
    """engine._simulate_chunks' chunks joined into one array per key, drawn
    from the scenario's master seed unless a stream_seed is given."""
    kwargs.setdefault("stream_seed", cfg.master_seed)
    parts = list(engine._simulate_chunks(cfg, labels, n_trials, **kwargs))
    return {key: np.concatenate([p[key] for p in parts]) for key in parts[0]}


@pytest.fixture
def chunked(monkeypatch):
    """joined with the engine's chunk size set for the call."""
    def run(chunk, *args, **kwargs):
        monkeypatch.setattr(engine, "_CHUNK", chunk)
        return joined(*args, **kwargs)
    return run


def stacks_from_batches(batches):
    z = np.stack([b.cut for b in batches])
    zs = np.stack([b.secondary for b in batches])
    return z, zs


# (n, k, cnr_db, rho, target injected at scnr_db); the first case is
# pure H0 data
CROSS_CHECK_CASES = (
    (8, 16, 30.0, 0.9, False),
    (8, 16, 30.0, 0.9, True),
    (8, 8, 30.0, 0.9, True),
    (16, 32, 30.0, 0.9, True),
    (8, 16, 110.0, 0.99, True),
)


def check_against_reference(n, k, cnr_db, rho, inject):
    cfg = ScenarioConfig(n=n, k=k, cnr_db=cnr_db, rho=rho, scnr_db=15.0,
                         master_seed=201)
    m = build_covariance(cfg)
    v = steering_vector(cfg.n, cfg.doppler)
    alpha = injection_amplitude(v, m, cfg.scnr_db)
    batches = [sample_batch(cfg, m, t) for t in range(32)]
    if inject:
        batches = [inject_target(b, v, m, cfg.scnr_db) for b in batches]
    z, zs = stacks_from_batches(batches)

    stats = statistics_from_stacks(
        z, zs, v, ALL_LABELS, true_m=m, alpha_hyp=alpha,
        record_em_trace=True, trace_l_max=7,
    )
    delta = stats[engine.TRACE]

    for i, batch in enumerate(batches):
        sc = sample_covariance(batch)
        ref = {
            "glrt": glrt_statistic(batch, v, sc),
            "amf": amf_statistic(batch, v, sc),
            "rao": rao_statistic(batch, v, sc),
            "ace": ace_statistic(batch, v, sc),
            "benchmark": benchmark_statistic(batch, v, m, alpha),
        }
        for lab, expected in ref.items():
            assert stats[lab][i] == pytest.approx(expected, rel=1e-9,
                                                  abs=1e-9)
        trace = run_em(batch, v, 7, sc)
        assert stats["em-bml-d5"][i] == pytest.approx(
            trace.states[5].log_post_ratio, rel=1e-9, abs=1e-9)
        assert stats["em-bml-d7"][i] == pytest.approx(
            em_bml_statistic(trace), rel=1e-9, abs=1e-9)
        np.testing.assert_allclose(delta[i], trace.delta_l,
                                   rtol=1e-8, atol=1e-12)


class TestCrossCheck:
    def test_batched_matches_per_trial_reference(self):
        for case in CROSS_CHECK_CASES:
            check_against_reference(*case)

    def test_requires_covariance_for_benchmark(self):
        cfg = ScenarioConfig(master_seed=203)
        m = build_covariance(cfg)
        v = steering_vector(cfg.n, cfg.doppler)
        z, zs = stacks_from_batches([sample_batch(cfg, m, 0)])
        with pytest.raises(ValueError):
            statistics_from_stacks(z, zs, v, ("benchmark",))


def short_stacks():
    """One n = 8 trial with k = 7 < n secondary vectors."""
    cfg = ScenarioConfig(master_seed=203)
    m = build_covariance(cfg)
    z, zs = stacks_from_batches([sample_batch(cfg, m, 0)])
    return z, zs[:, :, :7], steering_vector(cfg.n, cfg.doppler)


# (id, call, error, message): argument checks that must fail loudly
ARGUMENT_CHECKS = (
    ("no-trials", lambda: joined(ScenarioConfig(), ("amf",), 0),
     "n_trials must be positive"),
    ("k-below-n", lambda: statistics_from_stacks(*short_stacks(), ("amf",)),
     "k >= n"),
    ("benchmark-data-no-amplitude",
     lambda: joined(ScenarioConfig(), ("benchmark",), 10),
     "require an amplitude"),
    ("benchmark-invariant-no-amplitude",
     lambda: joined(ScenarioConfig(scnr_db=None), ("benchmark",), 10,
                    invariant=True),
     "require an amplitude"),
)


@pytest.mark.parametrize("call, message", [c[1:] for c in ARGUMENT_CHECKS],
                         ids=[c[0] for c in ARGUMENT_CHECKS])
def test_argument_check_fails_loudly(call, message):
    with pytest.raises(ValueError, match=message):
        call()


class TestSchedulingInvariance:
    def test_chunk_size_does_not_change_results(self, chunked):
        cfg = ScenarioConfig(master_seed=204)
        fine = chunked(7, cfg, ("glrt", "em-bml-d5"), 100)
        coarse = chunked(4096, cfg, ("glrt", "em-bml-d5"), 100)
        for lab in ("glrt", "em-bml-d5"):
            np.testing.assert_array_equal(fine[lab], coarse[lab])

    def test_worker_count_does_not_change_results(self, chunked):
        cfg = ScenarioConfig(master_seed=205)
        solo = chunked(50, cfg, ("amf",), 200, workers=1)
        pair = chunked(50, cfg, ("amf",), 200, workers=2)
        np.testing.assert_array_equal(solo["amf"], pair["amf"])

    def test_stream_seed_partitions_trials(self):
        cfg = ScenarioConfig(master_seed=206)
        a = joined(cfg, ("amf",), 50, stream_seed=1)
        b = joined(cfg, ("amf",), 50, stream_seed=2)
        assert not np.array_equal(a["amf"], b["amf"])

    STRADDLE_LABELS = ("glrt", "benchmark", "em-bml-d5")

    def straddling_run(self, chunked, chunk, invariant, **kwargs):
        # 600 trials: chunks of 7 and 100 straddle the 256-trial blocks
        cfg = ScenarioConfig(n=16, k=32, scnr_db=10.0, cos_sq_phi=0.6,
                             master_seed=211)
        return chunked(
            chunk, cfg, self.STRADDLE_LABELS, 600, inject=True,
            trace_l_max=4, invariant=invariant, **kwargs)

    def assert_identical(self, first, second):
        for lab in self.STRADDLE_LABELS:
            np.testing.assert_array_equal(first[lab], second[lab])
        np.testing.assert_array_equal(first[engine.TRACE], second[engine.TRACE])

    def check_chunk_sizes(self, chunked, invariant):
        reference = self.straddling_run(chunked, 4096, invariant)
        for chunk_size in (7, 100):
            self.assert_identical(
                self.straddling_run(chunked, chunk_size, invariant),
                reference)

    def check_worker_counts(self, chunked, invariant):
        self.assert_identical(
            self.straddling_run(chunked, 100, invariant, workers=1),
            self.straddling_run(chunked, 100, invariant, workers=2))

    def test_invariant_chunk_size_does_not_change_results(self, chunked):
        self.check_chunk_sizes(chunked, invariant=True)

    def test_invariant_worker_count_does_not_change_results(self, chunked):
        self.check_worker_counts(chunked, invariant=True)

    def test_data_chunk_size_does_not_change_results(self, chunked):
        self.check_chunk_sizes(chunked, invariant=False)

    def test_data_worker_count_does_not_change_results(self, chunked):
        self.check_worker_counts(chunked, invariant=False)

    def test_invariant_trace_does_not_move_the_statistics(self):
        cfg = ScenarioConfig(scnr_db=10.0, master_seed=212)
        plain = joined(cfg, ("glrt",), 300, inject=True, invariant=True)
        traced = joined(cfg, ("glrt",), 300, inject=True, trace_l_max=3,
                        invariant=True)
        np.testing.assert_array_equal(plain["glrt"], traced["glrt"])


# Distribution gate between the two generators: (n, k, scnr_db, cos_sq_phi,
# inject). H0, matched H1, mismatched H1 at n16, k = n, and the edges of
# the invariant draw without (n = 2) and with (n = 3) its Q ~ Gamma(n-2).
INVARIANT_CASES = (
    (8, 16, 13.0, 1.0, False),
    (8, 16, 13.0, 1.0, True),
    (16, 32, 10.0, 0.6, True),
    (8, 8, 13.0, 1.0, True),
    (2, 4, 10.0, 0.7, True),
    (3, 6, 10.0, 1.0, True),
)
GATE_LABELS = ("glrt", "amf", "rao", "ace", "benchmark", "em-bml-d5")
GATE_TRIALS = 8000
GATE_L = 6
# every two-sample KS test in the gate shares one family-wise false-failure
# rate of 1e-3 (Bonferroni): working code fails it for about one seed in a
# thousand
GATE_ALPHA = 1e-3 / (len(INVARIANT_CASES) * (len(GATE_LABELS) + GATE_L))


class TestInvariantGenerator:
    @pytest.mark.parametrize("case", INVARIANT_CASES,
                             ids=lambda c: "n{}k{}-{}".format(
                                 c[0], c[1], "h1" if c[4] else "h0"))
    def test_matches_data_path_distribution(self, case):
        n, k, scnr_db, cos_sq_phi, inject = case
        cfg = ScenarioConfig(n=n, k=k, scnr_db=scnr_db, cos_sq_phi=cos_sq_phi,
                             master_seed=220 + n + k)
        data, drawn = (
            joined(cfg, GATE_LABELS, GATE_TRIALS, inject=inject,
                   trace_l_max=GATE_L, invariant=invariant)
            for invariant in (False, True)
        )
        pvalues = {
            lab: sps.ks_2samp(data[lab], drawn[lab]).pvalue
            for lab in GATE_LABELS
        }
        for l in range(GATE_L):
            pvalues[f"dl{l + 1}"] = sps.ks_2samp(
                data[engine.TRACE][:, l], drawn[engine.TRACE][:, l]).pvalue
        failed = {key: p for key, p in pvalues.items() if p < GATE_ALPHA}
        assert not failed, f"KS p-values below {GATE_ALPHA:.1e}: {failed}"

    @pytest.mark.parametrize("n,k", [(8, 16), (2, 4), (3, 6)])
    def test_glrt_null_matches_kelly_cdf(self, n, k):
        """Under H0, P(GLRT <= eta) = 1 - (1 - eta)^(k - n + 1) (Kelly 1986)."""
        cfg = ScenarioConfig(n=n, k=k, master_seed=230 + n)
        glrt = joined(cfg, ("glrt",), 20_000, invariant=True)["glrt"]
        pvalue = sps.kstest(
            glrt, lambda eta: 1.0 - (1.0 - eta) ** (k - n + 1)).pvalue
        # three tests, family-wise false-failure rate 1e-3
        assert pvalue >= 1e-3 / 3


class TestDataGenerator:
    @pytest.mark.parametrize("invariant", [False, True],
                             ids=["data", "invariant"])
    def test_one_philox_per_chunk_and_one_key_per_block(self, monkeypatch,
                                                         chunked, invariant):
        """1000 trials in chunks of 512 build two Philox generators, one per
        chunk, and key them for blocks 0-3, once each."""
        keys, philox_built = [], []
        philox, block_key = np.random.Philox, scenario.block_key

        def count_philox(*args, **kwargs):
            philox_built.append(1)
            return philox(*args, **kwargs)

        def count_key(stream_seed, block_index, *, data=False):
            keys.append((block_index, data))
            return block_key(stream_seed, block_index, data=data)

        monkeypatch.setattr(np.random, "Philox", count_philox)
        monkeypatch.setattr(scenario, "block_key", count_key)
        sim = chunked(512, ScenarioConfig(master_seed=213), ("amf",), 1000,
                      invariant=invariant)
        assert sim["amf"].shape == (1000,)
        assert keys == [(b, not invariant) for b in range(4)]
        # every Philox is a chunk's, so no per-trial trial_rng was built
        assert len(philox_built) == 2

    @pytest.mark.parametrize("labels", [(), ("benchmark",)],
                             ids=["empty", "benchmark"])
    def test_labels_without_the_invariant_form_no_s(self, monkeypatch,
                                                    labels):
        # 600 trials straddle the 256-trial blocks
        cfg = ScenarioConfig(scnr_db=10.0, master_seed=214)
        full = joined(cfg, ("amf", "benchmark"), 600, inject=True)
        stacked = []

        def no_scatter(zs):
            raise AssertionError("S was formed")

        def record_solve(a, b):
            stacked.append(np.ndim(a) > 2)
            return solve(a, b)

        solve = np.linalg.solve
        monkeypatch.setattr(engine, "_scatter", no_scatter)
        monkeypatch.setattr(np.linalg, "solve", record_solve)
        sim = joined(cfg, labels, 600, inject=True)
        # the clairvoyant's M^-1 v takes n x n solves, never a stack's
        assert not any(stacked)
        assert sim.keys() == set(labels)
        for lab in labels:
            np.testing.assert_array_equal(sim[lab], full[lab])


def sha256(array):
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


# pfa-sweep's stream is pinned (acceptance criterion 3 passes at seed 405
# on it), so the coloured data of a block must not move by a bit. The AMF
# pin holds the statistics drawn from it, whose last bits also depend on
# how S is factored (by Cholesky). Digests taken with numpy 2.4 and its
# bundled OpenBLAS 0.3.31 on x86-64; (n, k, first trial, stop, cnr_db,
# rho), the n16 range straddles the 256-trial blocks.
GOLDEN_STACKS = {
    (8, 16, 0, 600, 30.0, 0.9):
        "4e1a221ae9db5caf293b75254085f6e16538eb9eb3eb5b9131c9697f85da3c48",
    (8, 16, 0, 600, 110.0, 0.99):
        "4900bc60fe61e855faf8e6cb289045490b5df2659831fabaa7688f013f7851bd",
    (16, 32, 100, 700, 30.0, 0.9):
        "0940b9259c886cfe7633a78f4a174c67a5657dc78dd6f291a9c065c8deac606f",
    (16, 32, 100, 700, 110.0, 0.99):
        "ccab66aea99e5f3eabb1f3523b6c2a7a11f50a3732eebbaa81aefd7ee5db8fd9",
}
GOLDEN_AMF = "742656e71092a4f8eb7710b9112fa28558b2e895237fa849d95ea47809fcc743"


class TestDataStream:
    @pytest.mark.parametrize("case", GOLDEN_STACKS,
                             ids=lambda c: f"n{c[0]}k{c[1]}-cnr{c[4]:g}")
    def test_coloured_stack_is_pinned(self, case):
        n, k, start, stop, cnr_db, rho = case
        cfg = ScenarioConfig(n=n, k=k, cnr_db=cnr_db, rho=rho)
        blocks = engine._coloured_blocks(cfg, build_covariance(cfg).chol, 241,
                                         start, stop)
        # (trials, n, k+1); each part is copied before the next block reuses it
        stack = np.concatenate([part.transpose(1, 0, 2).copy()
                                for _, _, part in blocks])
        seen = sha256(stack)
        assert seen == GOLDEN_STACKS[case], f"GOLDEN_STACKS {case}: sha256 {seen}"

    def test_complex_factor_is_refused(self):
        cfg = ScenarioConfig()
        chol = build_covariance(cfg).chol.copy()
        chol[1, 0] += 1e-12j
        with pytest.raises(ValueError, match="real"):
            next(engine._coloured_blocks(cfg, chol, 241, 0, 10))

    def test_default_detector_amf_is_pinned(self):
        sim = engine.simulate_statistics(
            ScenarioConfig(master_seed=242),
            ("glrt", "amf", "rao", "ace", "em-bml-d5", "em-bml-d7"), 600)
        seen = sha256(sim["amf"])
        assert seen == GOLDEN_AMF, f"GOLDEN_AMF: sha256 {seen}"


class TestWorkerPool:
    def test_chunk_error_reaches_the_caller_and_stops_the_run(
        self, monkeypatch, chunked
    ):
        # the first chunk fails at once and every other takes 50 ms, so the
        # failure reaches the caller while the other thread is in its first
        # chunk, and the chunks not yet started are cancelled
        err = RuntimeError("chunk failed")
        started = []

        def chunk(start, **run):
            started.append(start)
            if start == 0:
                raise err
            time.sleep(0.05)

        monkeypatch.setattr(engine, "_compute_chunk", chunk)
        threads = threading.active_count()
        with pytest.raises(RuntimeError) as raised:
            chunked(10, ScenarioConfig(), ("amf",), 640, workers=2)
        assert raised.value is err
        assert 1 <= len(started) <= 8
        assert threading.active_count() == threads

    @pytest.fixture
    def in_process_pool(self, monkeypatch):
        """The worker count of every pool the engine builds, on a machine
        of four usable CPUs; each pool maps lazily in the test's own thread
        and starts none."""
        built = []

        class InProcessPool:
            def __init__(self, max_workers=None, **kwargs):
                built.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, iterable):
                return map(fn, iterable)

        monkeypatch.setattr(engine, "ThreadPoolExecutor", InProcessPool)
        monkeypatch.setattr(engine.os, "sched_getaffinity",
                            lambda pid: {0, 1, 2, 3})
        return built

    def test_pool_gets_no_more_workers_than_chunks(self, in_process_pool,
                                                   chunked):
        # map submits every chunk at once, which starts every thread, so 64
        # workers for two chunks would start 62 threads for nothing
        cfg = ScenarioConfig(master_seed=216)
        wide = chunked(300, cfg, ("amf",), 600, workers=64)
        assert in_process_pool == [2]
        solo = chunked(300, cfg, ("amf",), 600)
        np.testing.assert_array_equal(wide["amf"], solo["amf"])

    def test_pool_gets_no_more_workers_than_usable_cpus(self,
                                                        in_process_pool):
        # 10^9 trials are 244 141 chunks; only the first is computed
        chunks = engine._simulate_chunks(
            ScenarioConfig(master_seed=218), ("amf",), 10**9, stream_seed=5,
            workers=100_000, invariant=True)
        with closing(chunks):
            assert next(chunks)["amf"].shape == (engine._CHUNK,)
        assert in_process_pool == [4]


SIX = ("glrt", "amf", "rao", "ace", "em-bml-d5", "em-bml-d7")


class TestMemory:
    def test_data_chunk_holds_one_block_at_a_time(self):
        # a whole 4096-trial chunk of (16, 33) matrices, its S and the
        # solve's copies peak at about 81 MiB; one 256-trial block at a time
        # keeps the peak near 6 MiB
        cfg = ScenarioConfig(n=16, k=32, master_seed=217)
        joined(cfg, SIX, 10)
        tracemalloc.start()
        try:
            sim = joined(cfg, SIX, 4096)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sim["amf"].shape == (4096,)
        assert peak < 12 * 2**20


class TestInjection:
    def test_injection_raises_detection_statistics(self):
        cfg = ScenarioConfig(scnr_db=20.0, master_seed=207)
        null = joined(cfg, ("glrt",), 400, inject=False)
        hit = joined(cfg, ("glrt",), 400, inject=True)
        assert hit["glrt"].mean() > 5 * null["glrt"].mean()

    def test_injection_requires_scnr(self):
        cfg = ScenarioConfig(master_seed=208)
        with pytest.raises(ValueError):
            joined(cfg, ("glrt",), 10, inject=True)

    def test_mismatched_injection_lowers_matched_response(self):
        cfg = ScenarioConfig(scnr_db=20.0, master_seed=209)
        matched = joined(cfg, ("amf",), 400, inject=True)
        skewed = joined(replace(cfg, cos_sq_phi=0.3), ("amf",), 400,
                        inject=True)
        assert skewed["amf"].mean() < 0.8 * matched["amf"].mean()


def direct_row(cfg, labels, draws, inject):
    """One invariant row's statistics evaluated straight from its drawn
    variates by Kelly's representation: r = (|w1 + o1|^2 + Q) / G1 and
    t = |z1 + o0 - sqrt(r) w'|^2 / G0, handed over as (t, r), the
    direct form that a row's reuse of the chunk's matched part must
    reproduce."""
    zr, wr, w1r, zi, wi, w1i, g0, g1 = draws[:8]
    q = draws[8] if cfg.n > 2 else 0.0
    root_s = 10.0 ** (cfg.scnr_db / 20.0)
    o0 = o1 = 0.0
    if inject:
        o0 = root_s * math.sqrt(cfg.cos_sq_phi)
        o1 = root_s * math.sqrt(1.0 - cfg.cos_sq_phi)
    r = ((w1r + o1) ** 2 + w1i ** 2 + q) / g1
    t = ((zr + o0 - np.sqrt(r) * wr) ** 2 + (zi - np.sqrt(r) * wi) ** 2) / g0
    return engine._evaluate(engine._plan(labels, None), cfg.n, cfg.k,
                            (t, r), (zr + o0, 1.0, root_s), None)


class TestInvariantRows:
    """A grid row evaluates the chunk's one draw at its own target; that
    equals evaluating Kelly's representation of the row's CUT directly."""

    LABELS = ("glrt", "amf", "rao", "ace", "benchmark", "em-bml-d5")
    TRIALS = 1000

    def rows_and_draws(self, n, inject):
        cfg = ScenarioConfig(n=n, k=2 * n, master_seed=230 + n)
        rows = tuple(replace(cfg, scnr_db=scnr, cos_sq_phi=cos_sq)
                     for cos_sq in (1.0, 0.3, 0.0)
                     for scnr in (0.0, 13.0, 40.0))
        # one chunk of trials, so one part per row
        chunk = {key: stats for part in engine._simulate_chunks(
            cfg, self.LABELS, self.TRIALS, stream_seed=19, inject=inject,
            invariant=True, rows=rows) for key, stats in part.items()}
        draws = engine._invariant_draws(n, 2 * n, 19, 0, self.TRIALS, False)
        return rows, chunk, draws

    @pytest.mark.parametrize("n", [2, 3, 8, 16])
    def test_injected_row_matches_its_representation(self, n):
        rows, chunk, draws = self.rows_and_draws(n, inject=True)
        for i, row in enumerate(rows):
            direct = direct_row(row, self.LABELS, draws, inject=True)
            for label in self.LABELS:
                np.testing.assert_allclose(
                    chunk[i, label], direct[label], rtol=1e-12, atol=0,
                    err_msg=f"{label} at {row.scnr_db} dB, "
                            f"cos^2 {row.cos_sq_phi}")

    @pytest.mark.parametrize("n", [2, 3, 8, 16])
    def test_row_without_target_is_its_representation(self, n):
        rows, chunk, draws = self.rows_and_draws(n, inject=False)
        for i, row in enumerate(rows):
            direct = direct_row(row, self.LABELS, draws, inject=False)
            for label in self.LABELS:
                np.testing.assert_array_equal(chunk[i, label], direct[label])


def joined_rows(cfg, labels, n_trials, rows, **kwargs):
    """A grid's parts joined into one array per (row index, label)."""
    parts = list(engine._simulate_chunks(cfg, labels, n_trials, rows=rows,
                                         **kwargs))
    keys = dict.fromkeys(key for part in parts for key in part)
    return {key: np.concatenate([p[key] for p in parts if key in p])
            for key in keys}


DATA_GRID = ScenarioConfig(n=8, k=16, scnr_db=9.0, master_seed=250)
# nominal, high-CNR mismatched, white, and a weakly correlated clutter
DATA_ROWS = tuple(
    replace(DATA_GRID, cnr_db=cnr, rho=rho, cos_sq_phi=cos_sq)
    for cnr, rho, cos_sq in ((30.0, 0.9, 1.0), (110.0, 0.99, 0.4),
                             (0.0, 0.9, 1.0), (50.0, 0.3, 0.7)))


class TestDataRows:
    """A data grid's rows read one white draw per block, each coloured,
    given its target and whitened by its own scenario; a row is bit for bit
    its single-row run."""

    LABELS = ("glrt", "amf", "rao", "ace", "benchmark", "em-bml-d5")
    # 5000 trials are two chunks, the second a partial one
    TRIALS = 5000

    def grid(self, **kwargs):
        return joined_rows(DATA_GRID, self.LABELS, self.TRIALS, DATA_ROWS,
                           stream_seed=23, trace_l_max=3, **kwargs)

    @pytest.mark.parametrize("inject", [False, True], ids=["h0", "h1"])
    def test_row_is_its_single_row_run(self, inject):
        grid = self.grid(inject=inject)
        for i, row in enumerate(DATA_ROWS):
            single = joined(row, self.LABELS, self.TRIALS, stream_seed=23,
                            trace_l_max=3, inject=inject)
            assert single.keys() == {lab for j, lab in grid if j == i}
            for lab, values in single.items():
                np.testing.assert_array_equal(grid[i, lab], values,
                                              err_msg=f"row {i}, {lab}")

    def test_chunk_size_and_worker_count_do_not_change_results(
        self, monkeypatch
    ):
        runs = []
        for chunk in (1024, 4096):
            monkeypatch.setattr(engine, "_CHUNK", chunk)
            runs.extend(self.grid(inject=True, workers=workers)
                        for workers in (1, 2))
        for run in runs[1:]:
            assert run.keys() == runs[0].keys()
            for key, values in runs[0].items():
                np.testing.assert_array_equal(run[key], values)

    @pytest.mark.parametrize("invariant", [False, True],
                             ids=["data", "invariant"])
    def test_grid_without_rows_yields_nothing(self, invariant):
        assert list(engine._simulate_chunks(
            DATA_GRID, ("amf",), 10, stream_seed=23, rows=(),
            invariant=invariant)) == []

    def test_grid_chunk_is_evaluated_on_its_thread(self):
        # a list of row dicts, not a lazy iterator a pool would hand back
        # unevaluated
        chunk = engine._compute_chunk(
            0, cfg=DATA_GRID, plan=engine._plan(("amf",), None),
            stream_seed=23, n_trials=300, inject=False, invariant=False,
            rows=DATA_ROWS[:2],
            scenes=[engine._data_scene(row, False, engine._plan((), None))
                    for row in DATA_ROWS[:2]])
        assert isinstance(chunk, list)
        assert [set(part) for part in chunk] == [{(0, "amf")}, {(1, "amf")}]


class TestHighScnrPrecision:
    """Every statistic reads Kelly's residual r as carried, never as the
    difference c - |b|^2 / a, which cancels once the SCNR makes c and
    |b|^2 / a large beside it."""

    @pytest.mark.parametrize("scnr_db", [0.0, 40.0, 100.0, 200.0])
    def test_data_path_em_matches_the_reference(self, scnr_db):
        cfg = ScenarioConfig(n=8, k=16, scnr_db=scnr_db, master_seed=5)
        m = build_covariance(cfg)
        v = steering_vector(cfg.n, cfg.doppler)
        batches = [inject_target(sample_batch(cfg, m, t), v, m, scnr_db)
                   for t in range(20)]
        stats = statistics_from_stacks(
            *stacks_from_batches(batches), v, ("em-bml-d5",),
            record_em_trace=True, trace_l_max=5)
        for i, batch in enumerate(batches):
            trace = run_em(batch, v, 5, sample_covariance(batch))
            assert stats[engine.TRACE][i, 0] == pytest.approx(
                trace.delta_l[0], rel=1e-7, abs=0)
            assert stats["em-bml-d5"][i] == pytest.approx(
                trace.states[5].log_post_ratio, rel=1e-12, abs=0)

    def test_rao_holds_its_plateau_and_every_detector_is_finite(self):
        # the rows share one invariant draw; past about 60 dB Rao's
        # t / ((1 + c)(1 + r)) is 1 / (1 + r) of the target-free residual,
        # so its Pd stops moving, here at about one half. pd_curve refuses
        # a non-finite statistic of any detector.
        scnrs = [60.0, 100.0, 200.0, 1000.0, 3000.0]
        curve = pd_curve(ScenarioConfig(n=8, k=10, master_seed=43), 0.01,
                         scnrs, ALL_LABELS, 2000, calibration_trials=10_000)
        rao = curve.rates[:, curve.detectors.index("rao")]
        assert 0.3 < rao[0] < 0.7
        np.testing.assert_array_equal(rao, rao[0])


class TestSaturation:
    @pytest.mark.parametrize("scnr_db", [20.0, 13.0, None])
    def test_saturated_step_adds_k_plus_one_amf(self, scnr_db):
        """Once q1 sits at its clamp, the next statistic is affine in the AMF.

        This is the mechanism behind acceptance criterion 4: the log prior
        ratio is pinned at L_sat and the increment is (k+1) AMF.
        """
        q1 = np.float64(1.0 - POSTERIOR_FLOOR)
        l_sat = np.log(q1) - np.log(1.0 - q1)
        cfg = ScenarioConfig(scnr_db=scnr_db, master_seed=210)
        stats = joined(cfg, ("amf", "em-bml-d4", "em-bml-d5"), 2000,
                       inject=scnr_db is not None)
        saturated = stats["em-bml-d4"] >= l_sat
        assert saturated.sum() > 100
        np.testing.assert_allclose(
            stats["em-bml-d5"][saturated],
            l_sat + (cfg.k + 1) * stats["amf"][saturated], rtol=1e-8)


class TestNonNegativeLogRatio:
    """The EM posterior's logistic keeps one branch, exact for log ratios
    r >= 0, so every log ratio of the recursion must be non-negative."""

    EM = tuple(f"em-bml-d{l}" for l in range(8))

    @pytest.mark.parametrize("invariant", [False, True],
                             ids=["data", "invariant"])
    @pytest.mark.parametrize("scnr_db", [None, 13.0], ids=["h0", "13dB"])
    def test_every_em_statistic_is_non_negative(self, invariant, scnr_db):
        # em-bml-d0 is the AMF t, the recursion's first log ratio
        cfg = ScenarioConfig(n=8, k=16, scnr_db=scnr_db, master_seed=213)
        stats = joined(cfg, self.EM, 8192, inject=scnr_db is not None,
                       invariant=invariant)
        for lab in self.EM:
            assert stats[lab].min() >= 0.0, lab

    @staticmethod
    def two_branch(r):
        """The logistic in the form that never overflows for any sign of r."""
        e = np.exp(-np.abs(r))
        return np.clip(np.where(r >= 0, 1.0 / (1.0 + e), e / (1.0 + e)),
                       POSTERIOR_FLOOR, 1.0 - POSTERIOR_FLOOR)

    def test_one_branch_has_the_bits_of_the_two_branch_form(self):
        rng = np.random.default_rng(214)
        r = np.concatenate([
            [0.0, 5e-324, 1.0, 36.7, 709.0, 710.0, 1e308, np.inf, np.nan],
            rng.exponential(20.0, 2048),
            10.0 ** rng.uniform(-320.0, 308.0, 2048),
        ])
        np.testing.assert_array_equal(
            engine._sigmoid_clamped(r).view(np.int64),
            self.two_branch(r).view(np.int64))
