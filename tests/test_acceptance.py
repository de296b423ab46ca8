"""End-to-end acceptance checks, one test per headline claim.

Each test prints one scorecard line (criterion NN: PASS/FAIL with the
measured numbers) and asserts the pinned tolerances. Expensive scenario
runs are shared module-scoped fixtures, all at frozen seeds.
"""

import csv
import math
import time

import numpy as np
import pytest

from crossolve import (
    DEFAULT_TRANSIENT_A,
    DEFAULT_TRANSIENT_B,
    ExperimentSpec,
    SolveConfig,
    attenuation,
    build_feedback,
    child_seed,
    covariance_matrix,
    direct_solve,
    fit_scaling,
    random_discrete_pd,
    run_experiment,
    simulate,
    sparse_pd,
    stability_report,
    time_bound,
)
from trajectory_oracle import analytic_trajectory

# Symmetric PD matrices produced while running criteria 2-4, re-checked
# against the attenuation inequality in criterion 9.
_PD_POOL: list[np.ndarray] = []


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} | {detail}")


def _unit(rng: np.random.Generator, n: int) -> np.ndarray:
    b = rng.uniform(-1.0, 1.0, size=n)
    return b / np.linalg.norm(b)


def _mean_tau_points(records, variant: str) -> list[tuple[int, float]]:
    sizes = sorted({r.n for r in records})
    pts = []
    for n in sizes:
        taus = [
            r.tau_measured_s
            for r in records
            if r.n == n and r.converged and r.notes.endswith(f"variant={variant}")
        ]
        assert taus, f"no converged records for variant={variant} n={n}"
        pts.append((n, float(np.mean(taus))))
    return pts


@pytest.fixture(scope="module")
def sweep_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep")
    records, summary = run_experiment(
        ExperimentSpec("lambda_sweep", seed=0, output_dir=str(out), threads=8)
    )
    return records, summary, out


@pytest.fixture(scope="module")
def scaling_b1(tmp_path_factory):
    out = tmp_path_factory.mktemp("scaling_b1")
    records, summary = run_experiment(
        ExperimentSpec("scaling", seed=0, output_dir=str(out), threads=8)
    )
    return records, summary, out


@pytest.fixture(scope="module")
def scaling_b2(tmp_path_factory):
    out = tmp_path_factory.mktemp("scaling_b2")
    records, summary = run_experiment(
        ExperimentSpec(
            "scaling", seed=0, output_dir=str(out), parameters={"beta": 2.0}, threads=8
        )
    )
    return records, summary, out


@pytest.fixture(scope="module")
def sparse_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("sparse")
    records, summary = run_experiment(
        ExperimentSpec("sparse_suite", seed=0, output_dir=str(out), threads=8)
    )
    return records, summary, out


@pytest.fixture(scope="module")
def inversion_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("inversion")
    records, summary = run_experiment(
        ExperimentSpec("inversion", seed=7, output_dir=str(out))
    )
    return records, summary, out


def test_criterion_01_transient_demo():
    system = build_feedback(DEFAULT_TRANSIENT_A)
    t0 = time.perf_counter()
    result = simulate(system, DEFAULT_TRANSIENT_B)
    wall = time.perf_counter() - t0
    x_star = direct_solve(DEFAULT_TRANSIENT_A, DEFAULT_TRANSIENT_B)
    comp_err = float(np.max(np.abs(result.x_final - x_star)))
    ok = result.converged and comp_err <= 1e-3 and result.tau < 1e-6 and wall < 1.0
    _line(
        1,
        ok,
        f"max|x - x*|={comp_err:.3g} (<=1e-3), tau={result.tau:.4g}s (<1e-6), "
        f"wall={wall:.3f}s (<1)",
    )
    assert ok


def test_criterion_02_discrete_matches_continuous():
    master = 2026
    devs: list[float] = []
    devs_half: list[float] = []
    for i in range(50):
        rng = np.random.default_rng(child_seed(master, i))
        n = int(rng.integers(3, 21))
        s = int(rng.integers(2, min(10, n) + 1))
        lam = float(rng.uniform(0.3, 1.2))
        a = sparse_pd(n, s=s, lambda_target=lam, seed=int(child_seed(master, i, 1)))
        _PD_POOL.append(a)
        system = build_feedback(a)
        x_hat = _unit(rng, n)
        b = a @ x_hat
        for fraction, bucket in ((0.01, devs), (0.005, devs_half)):
            res = simulate(system, b, cfg=SolveConfig(alpha_fraction=fraction))
            assert res.converged
            x_exact = analytic_trajectory(system, b, np.zeros(n), t=res.tau)
            bucket.append(float(np.linalg.norm(res.x_final - x_exact)))
    worst = max(devs)
    ratio = worst / max(devs_half)
    ok = worst <= 1e-4 and ratio >= 1.8
    _line(
        2,
        ok,
        f"50 systems: worst deviation={worst:.3g} (<=1e-4 with ||x*||=1), "
        f"halving ratio={ratio:.2f} (>=1.8)",
    )
    assert ok


def test_criterion_03_energy_bound(sweep_run):
    master = 1303
    violations = 0
    min_slack = math.inf
    for i in range(500):
        rng = np.random.default_rng(child_seed(master, i))
        n = int(rng.integers(3, 41))
        s = int(rng.integers(2, min(10, n) + 1))
        lam = float(rng.uniform(0.05, 1.5))
        a = sparse_pd(n, s=s, lambda_target=lam, seed=int(child_seed(master, i, 1)))
        if i < 50:
            _PD_POOL.append(a)
        system = build_feedback(a)
        b = _unit(rng, n)
        cfg = SolveConfig(norm_kind="a_norm")
        res = simulate(system, b, cfg=cfg)
        bound = time_bound(system, b, cfg=cfg)
        if not (res.converged and res.tau <= bound):
            violations += 1
        else:
            min_slack = min(min_slack, bound - res.tau)

    records = sweep_run[0]
    per_matrix: dict[str, tuple[float, float]] = {}
    for r in records:
        assert r.converged
        key = r.notes.split("matrix=")[1]
        inv_lam = 1.0 / r.lambda_m_min
        if key not in per_matrix or r.tau_measured_s > per_matrix[key][1]:
            per_matrix[key] = (inv_lam, r.tau_measured_s)
    x = np.array([v[0] for v in per_matrix.values()])
    y = np.array([v[1] for v in per_matrix.values()])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    r2 = 1.0 - float(resid @ resid) / float(((y - y.mean()) ** 2).sum())
    ok = violations == 0 and r2 >= 0.98
    _line(
        3,
        ok,
        f"bound violations={violations}/500 (==0, min slack={min_slack:.2e}s), "
        f"envelope over {len(per_matrix)} matrices: R^2={r2:.4f} (>=0.98)",
    )
    assert ok


def test_criterion_04_stability_classification():
    master = 4
    misclassified = []
    saw_stable = saw_unstable = False
    for i in range(100):
        rng = np.random.default_rng(child_seed(master, i))
        if i % 2 == 1:
            d = float(rng.uniform(0.3, 1.0))
            if int(rng.integers(0, 2)) == 0:
                c = d * float(rng.uniform(1.3, 2.0))
                a = np.array([[d, c], [c, d]])
            else:
                c = d / math.sqrt(2.0) * float(rng.uniform(1.3, 2.0))
                a = np.array([[d, c, 0.0], [c, d, c], [0.0, c, d]])
        else:
            n = int(rng.integers(2, 4))
            lam = float(rng.uniform(0.1, 1.0))
            a = sparse_pd(n, s=n, lambda_target=lam, seed=int(child_seed(master, i, 1)))
            _PD_POOL.append(a)
        system = build_feedback(a)
        predicted_unstable = stability_report(system).lambda_m_min <= 0
        b = _unit(rng, a.shape[0])
        res = simulate(
            system,
            b,
            cfg=SolveConfig(allow_unstable=True, max_steps=300_000),
        )
        if predicted_unstable:
            saw_unstable = True
        else:
            saw_stable = True
            assert res.converged, f"stable case {i} timed out"
        if res.diverged != predicted_unstable:
            misclassified.append(i)
    ok = not misclassified and saw_stable and saw_unstable
    _line(
        4,
        ok,
        f"misclassified={len(misclassified)}/100 (==0), both signs exercised="
        f"{saw_stable and saw_unstable}",
    )
    assert ok


def test_criterion_05_first_order_scaling(scaling_b1):
    records = scaling_b1[0]
    kinds = {}
    log_r2 = {}
    means = {}
    for variant in ("ideal", "rram"):
        pts = _mean_tau_points(records, variant)
        fit = fit_scaling(pts)
        kinds[variant] = fit.model_kind
        log_r2[variant] = fit.r_squared["logarithmic"]
        means[variant] = dict(pts)
    ratios = [means["rram"][n] / means["ideal"][n] for n in sorted(means["ideal"])]
    ok = (
        all(kinds[v] == "logarithmic" for v in kinds)
        and all(log_r2[v] >= 0.9 for v in log_r2)
        and all(0.5 <= r <= 2.0 for r in ratios)
    )
    _line(
        5,
        ok,
        f"fit kinds={kinds} (both logarithmic), R^2(log)="
        f"{{ideal: {log_r2['ideal']:.4f}, rram: {log_r2['rram']:.4f}}} (>=0.9), "
        f"rram/ideal per n={[f'{r:.2f}' for r in ratios]} (within [0.5, 2])",
    )
    assert ok


def test_criterion_06_second_order_scaling(scaling_b2):
    records = scaling_b2[0]
    kinds = {}
    ratios = {}
    for variant in ("ideal", "rram"):
        pts = _mean_tau_points(records, variant)
        fit = fit_scaling(pts)
        kinds[variant] = fit.model_kind
        by_n = dict(pts)
        ratios[variant] = by_n[300] / by_n[10]
    ok = all(kinds[v] == "constant" for v in kinds) and all(
        0.5 <= ratios[v] <= 1.5 for v in ratios
    )
    _line(
        6,
        ok,
        f"fit kinds={kinds} (both constant), tau(300)/tau(10)="
        f"{{ideal: {ratios['ideal']:.3f}, rram: {ratios['rram']:.3f}}} "
        f"(within [0.5, 1.5])",
    )
    assert ok


def test_criterion_07_sparse_complexity(sparse_run):
    records = [r for r in sparse_run[0] if r.converged]
    assert len(records) == 1000
    lam = np.array([r.lambda_min for r in records])
    tau = np.array([r.tau_measured_s for r in records])
    slope = float(np.polyfit(np.log(lam), np.log(tau), 1)[0])

    sub = [r for r in records if 0.9 <= r.lambda_min <= 1.0]
    ns = np.array([r.n for r in sub], dtype=float)
    sub_tau = np.array([r.tau_measured_s for r in sub])
    pearson = float(np.corrcoef(ns, sub_tau)[0, 1])
    cg_time = np.array([r.cg_iterations * r.beta_or_s * r.n for r in sub])
    cg_slope = float(np.polyfit(ns, cg_time, 1)[0])
    ok = (
        -1.15 <= slope <= -0.85
        and abs(pearson) < 0.2
        and cg_slope > 0
        and len(sub) >= 30
    )
    _line(
        7,
        ok,
        f"log-log slope={slope:.3f} (-1 +/- 0.15), subset size={len(sub)}, "
        f"|pearson(tau, n)|={abs(pearson):.3f} (<0.2), cg-time slope={cg_slope:.1f} (>0)",
    )
    assert ok


def test_criterion_08_noisy_inversion(inversion_run):
    out = inversion_run[2]
    with open(out / "inverse.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    ref = np.array([float(r["reference"]) for r in rows])
    comp = np.array([float(r["computed"]) for r in rows])
    thresh = 0.05 * np.max(np.abs(ref))
    sig = np.abs(ref) >= thresh
    rel = np.abs(comp[sig] - ref[sig]) / np.abs(ref[sig])
    worst = float(rel.max())
    ok = int(sig.sum()) > 0 and worst <= 0.10
    _line(
        8,
        ok,
        f"significant entries={int(sig.sum())}/{len(rows)}, "
        f"max relative error={worst:.3%} (<=10%)",
    )
    assert ok


def test_criterion_09_attenuation_inequality(
    sweep_run, scaling_b1, scaling_b2, sparse_run, inversion_run
):
    tol = 1.0 - 1e-12
    checked = 0
    for records, _, _ in (sweep_run, scaling_b1, scaling_b2, sparse_run, inversion_run):
        for r in records:
            if (
                r.lambda_min is not None
                and r.lambda_m_min is not None
                and r.u_min is not None
                and r.lambda_min > 0
            ):
                assert r.lambda_m_min >= tol * r.u_min * r.lambda_min
                checked += 1

    pool = list(_PD_POOL)
    rng = np.random.default_rng(child_seed(9, 0))
    for i in range(20):
        n = int(rng.integers(2, 9))
        pool.append(covariance_matrix(n, float(rng.uniform(0.5, 2.5))))
        lam = float(rng.uniform(0.05, 1.5))
        pool.append(
            sparse_pd(n, s=n, lambda_target=lam, seed=int(child_seed(9, 1, i)))
        )
    for a in pool:
        u_min = float(attenuation(a).min())
        lam_a = float(np.linalg.eigvalsh(a).min())
        assert lam_a > 0
        assert stability_report(build_feedback(a)).lambda_m_min >= tol * u_min * lam_a
    for i in range(10):
        a, lam_sym = random_discrete_pd(int(child_seed(9, 2, i)))
        u_min = float(attenuation(a).min())
        assert stability_report(build_feedback(a)).lambda_m_min >= tol * u_min * lam_sym

    worst_rel = 0.0
    for i in range(25):
        a = pool[int(rng.integers(0, len(pool)))]
        system = build_feedback(a)
        s_half = np.diag(np.sqrt(attenuation(a)))
        e_m = np.sort(np.linalg.eigvals(system.m).real)
        e_sym = np.linalg.eigvalsh(s_half @ a @ s_half)
        worst_rel = max(worst_rel, float(np.max(np.abs(e_m - e_sym) / np.abs(e_sym))))
    ok = worst_rel <= 1e-8
    _line(
        9,
        ok,
        f"inequality held on {checked} scenario records and {len(pool)} matrices, "
        f"similarity max relative eig mismatch={worst_rel:.2e} (<=1e-8)",
    )
    assert ok
    assert checked >= 3000


def test_criterion_10_thread_determinism(tmp_path):
    configs = [
        ("transient", {}),
        ("lambda_sweep", {"systems": 6, "vectors_per_system": 3}),
        ("scaling", {"sizes": (3, 10, 30), "vectors_per_size": 4}),
        ("sparse_suite", {"systems": 24}),
        ("inversion", {"n": 4}),
        ("estimate", {"sizes": (10, 100, 1000)}),
    ]
    mismatched = []
    for scenario, params in configs:
        blobs = []
        for threads in (1, 8):
            out = tmp_path / f"{scenario}_t{threads}"
            run_experiment(
                ExperimentSpec(
                    scenario,
                    seed=11,
                    output_dir=str(out),
                    parameters=params,
                    threads=threads,
                )
            )
            blobs.append((out / "records.csv").read_bytes())
        if blobs[0] != blobs[1]:
            mismatched.append(scenario)
    ok = not mismatched
    _line(
        10,
        ok,
        f"records.csv byte-identical at 1 vs 8 threads for all 6 scenarios"
        f"{'' if ok else ': mismatches ' + str(mismatched)}",
    )
    assert ok
