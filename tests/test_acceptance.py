"""Acceptance suite: one test per criterion, printing one PASS/FAIL line each.

Run `pytest tests/test_acceptance.py -v -s` to see every line live.  Three
sub-clauses are implemented exactly as stated even though the computed
physics cannot satisfy them (see notes in the affected tests); they fail
honestly rather than being loosened.
"""

import time

import numpy as np
import pytest
from reference_routes import basis_eval, per_direction_table, reference_field, solved_channel

from emlink import (
    FREE_SPACE_IMPEDANCE,
    LinkGeometry,
    cap_direction_grid,
    capacity_vs_snr,
    default_cap_densities,
    dof_geometric,
    expansion_error_sweep,
    gauss_legendre_rule,
    gram_currents,
    gram_fields,
    legendre_sequence,
    propagate_current,
    rect_aperture,
    sgf_exact,
    sgf_planewave,
    spectrum_fit,
    translator_table,
    truncation_order,
    waterfill,
)
from emlink.capacity import _rate
from emlink.cli import main as cli_main
from emlink.modes import basis_order_table
from emlink.specfun import spherical_bessel_j, spherical_hankel_paper

K = 2 * np.pi


def _report(criterion: str, clauses: list[tuple[str, bool, str]]) -> None:
    ok = all(c[1] for c in clauses)
    details = "; ".join(f"{name} {'ok' if good else 'FAILED'} ({info})" for name, good, info in clauses)
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} — {details}")
    failed = [f"{name}: {info}" for name, good, info in clauses if not good]
    assert not failed, " | ".join(failed)


def test_criterion_1_addition_theorem_identity():
    start = time.monotonic()
    geo = LinkGeometry(
        rect_aperture((0, 0, 0), 10.0, 10.0),
        rect_aperture((0, 0, 20.0), 10.0, 10.0),
        K,
    )
    L = truncation_order(K, 10.0)
    grid = cap_direction_grid(geo.axis, np.pi, L + 1, 2 * L)
    table = translator_table(grid, K, geo.r_pq, L, windowed=False)
    s, r = (-5, 1, 1), (-3.5, 5, 20)
    approx = sgf_planewave(r, s, geo, grid, table)
    exact = sgf_exact(r, s, K)
    rel = abs(approx - exact) / abs(exact)
    elapsed = time.monotonic() - start
    _report(
        "1 (addition-theorem identity)",
        [
            ("rel error <= 1e-6", rel <= 1e-6, f"{rel:.3e}"),
            ("runtime < 5 s", elapsed < 5.0, f"{elapsed:.2f}s"),
        ],
    )


def test_criterion_2_finite_angular_bandwidth():
    # NOTE: the final clause (windowed and unwindowed plateau levels within
    # 3x) is implemented verbatim but is not attainable: past the taper onset
    # the windowed expansion converges orders of magnitude deeper than the
    # unwindowed one (its plateau is the small full-sphere window bias, while
    # the unwindowed plateau is the genuine sidelobe tail outside the cap).
    start = time.monotonic()
    geo = LinkGeometry(
        rect_aperture((0, 0, 0), 10.0, 10.0),
        rect_aperture((0, 0, 20.0), 10.0, 10.0),
        K,
    )
    s, r = (-5, 1, 1), (-3.5, 5, 20)
    angles = np.radians(np.arange(10, 91, 10))
    rows = np.array(expansion_error_sweep(geo, s, r, angles))
    err = {False: rows[:, 1], True: rows[:, 2]}
    elapsed = time.monotonic() - start

    def non_increasing(errors):
        return bool(np.all(errors[1:] <= 1.1 * errors[:-1]))

    def plateau(errors):
        # geometric mean of the settled region (70-90 degrees)
        return float(np.exp(np.mean(np.log(errors[-3:]))))

    def settled(errors):
        # the last step no longer falls steeply
        return bool(errors[-1] >= errors[-2] / 5.0)

    ratio = plateau(err[False]) / plateau(err[True])
    _report(
        "2 (finite angular bandwidth)",
        [
            ("unwindowed non-increasing (10% jitter)", non_increasing(err[False]),
             np.array2string(err[False], precision=2)),
            ("windowed non-increasing (10% jitter)", non_increasing(err[True]),
             np.array2string(err[True], precision=2)),
            ("unwindowed plateaus by 60-90 deg", settled(err[False]), f"tail {err[False][-3:]}"),
            ("windowed plateaus by 60-90 deg", settled(err[True]), f"tail {err[True][-3:]}"),
            ("plateaus within 3x of each other", 1 / 3 <= ratio <= 3.0, f"ratio {ratio:.1f}x"),
            ("runtime < 30 s", elapsed < 30.0, f"{elapsed:.2f}s"),
        ],
    )


def test_criterion_3_geometric_dof():
    value = dof_geometric(100.0, 64.0, 25.5)
    _report(
        "3 (geometric DoF)",
        [("N = 9.84 +/- 0.01", abs(value - 9.84) <= 0.01, f"{value:.4f}")],
    )


def test_criterion_4_eigenvalue_spectrum(paper_run, ci_run):
    result, paper_seconds, cfg = paper_run
    bn = result.modes.normalized
    with np.errstate(divide="ignore"):
        count = int(np.sum(10 * np.log10(bn) >= -3.0))
    n_plateau = int(np.floor(dof_geometric(100.0, 64.0, 25.5)))
    fit = spectrum_fit(bn, n_plateau, tail_floor_rel=cfg.fit_floor_rel)

    ci_result, ci_seconds, ci_cfg = ci_run
    ci_bn = ci_result.modes.normalized
    geo = ci_result.modes.geometry
    ci_n = dof_geometric(geo.transmitter.area, geo.receiver.area, geo.distance)
    with np.errstate(divide="ignore"):
        ci_count = int(np.sum(10 * np.log10(ci_bn) >= -3.0))
    ci_fit = spectrum_fit(ci_bn, max(1, int(np.floor(ci_n))), tail_floor_rel=ci_cfg.fit_floor_rel)

    _report(
        "4 (eigenvalue spectrum)",
        [
            ("8 <= modes >= -3 dB <= 13", 8 <= count <= 13, f"{count}"),
            ("tail fit R^2 >= 0.99", fit.r_squared >= 0.99, f"{fit.r_squared:.4f}"),
            ("c in [0.09, 0.17]", 0.09 <= fit.decay_rate <= 0.17,
             f"{fit.decay_rate:.4f} vs reported 0.127"),
            ("paper runtime < 15 min", paper_seconds < 900.0, f"{paper_seconds:.1f}s"),
            ("ci plateau count within N +/- 3", abs(ci_count - round(ci_n)) <= 3,
             f"count {ci_count}, N {ci_n:.2f}"),
            ("ci tail fit self-consistent", ci_fit.r_squared >= 0.975 and 0.1 <= ci_fit.decay_rate <= 0.5,
             f"c {ci_fit.decay_rate:.4f}, R^2 {ci_fit.r_squared:.4f}"),
            ("ci runtime < 2 min", ci_seconds < 120.0, f"{ci_seconds:.1f}s"),
        ],
    )


def test_criterion_5_orthogonality(paper_run):
    result, _, cfg = paper_run
    ms = result.modes
    count = min(40, len(ms))
    gram_c = gram_currents(ms, count)
    diag_c = np.abs(np.diag(gram_c))
    off_c = np.abs(gram_c - np.diag(np.diag(gram_c)))
    current_ok = np.max(off_c) <= 1e-3 * np.max(diag_c)

    gram_f = gram_fields(result, count)
    scale = cfg.power_w / FREE_SPACE_IMPEDANCE
    expected = ms.eigenvalues[:count] * scale
    diag_f = np.diag(gram_f).real
    plateau = expected >= 0.5 * expected[0]  # the near-flat strong modes
    diag_ok = bool(np.all(np.abs(diag_f[plateau] - expected[plateau]) <= 0.05 * expected[plateau]))
    off_f = np.abs(gram_f - np.diag(np.diag(gram_f)))
    leak_ok = np.max(off_f) <= 0.03 * np.max(np.abs(diag_f))

    _report(
        "5 (orthogonality)",
        [
            ("current Gram off-diagonal <= 1e-3", current_ok,
             f"max off/diag {np.max(off_c) / np.max(diag_c):.2e}"),
            ("field Gram diagonal tracks eigenvalues (5%)", diag_ok,
             f"worst {np.max(np.abs(diag_f[plateau] / expected[plateau] - 1)):.2e}"),
            ("field Gram leakage <= 3%", leak_ok,
             f"max off/diag {np.max(off_f) / np.max(np.abs(diag_f)):.2e}"),
        ],
    )


def test_criterion_6_waterfilling_correctness():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    worst_gap = 0.0
    for _ in range(200):
        size = int(rng.integers(1, 7))
        betas = np.sort(rng.uniform(0.02, 1.0, size=size))[::-1]
        p_t = float(rng.uniform(0.2, 5.0))
        sigma2 = float(rng.uniform(0.01, 2.0))
        closed = _rate(betas, waterfill(betas, p_t, sigma2), sigma2)

        # discrete brute force at resolution p_t/100: greedy quantum
        # allocation is optimal for concave per-channel rates
        quantum = p_t / 100
        alloc = np.zeros(size)
        for _ in range(100):
            gains = np.log2(1 + betas * (alloc + quantum) / sigma2) - np.log2(
                1 + betas * alloc / sigma2
            )
            alloc[int(np.argmax(gains))] += quantum
        brute = float(np.sum(np.log2(1 + betas * alloc / sigma2)))
        one_step = float(np.log2(1 + betas[0] * quantum / sigma2))
        assert closed >= brute - 1e-9
        worst_gap = max(worst_gap, (closed - brute) / max(one_step, 1e-12))

        wf = waterfill(betas, p_t, sigma2)
        assert np.sum(wf.powers) == pytest.approx(p_t, rel=1e-10)
        active = wf.powers > 0
        levels = wf.powers[active] + sigma2 / betas[active]
        assert np.max(np.abs(levels - wf.water_level)) <= 1e-10 * wf.water_level
        inactive = ~active
        if np.any(inactive):
            assert np.all(sigma2 / betas[inactive] >= wf.water_level * (1 - 1e-12))
    elapsed = time.monotonic() - start
    _report(
        "6 (water-filling correctness)",
        [
            ("closed form within one grid step of brute force", worst_gap <= 1.0,
             f"worst gap {worst_gap:.3f} steps"),
            ("KKT + conservation at 1e-10", True, "200 spectra"),
            ("runtime < 10 s", elapsed < 10.0, f"{elapsed:.2f}s"),
        ],
    )


def test_criterion_7_capacity_regimes(paper_run):
    # NOTE: two clauses are implemented verbatim but cannot hold for the
    # computed spectrum.  The flat-plateau formula uses the plateau average,
    # which by concavity can exceed the true water-filling optimum near the
    # crossover (here by ~0.5% around 13 dB), and at low SNR water-filling
    # concentrates power on the strongest few modes, leaving a ~10% gap to
    # any equal split.  The paper's "nearly identical" curves coincide on an
    # absolute axis, not within 5% relative at low SNR.
    result, _, cfg = paper_run
    bn = result.modes.normalized
    n_plateau = int(np.floor(dof_geometric(100.0, 64.0, 25.5)))
    curve = capacity_vs_snr(bn, cfg.power_w, cfg.snr_db, n_plateau)
    margins = [(p.snr_db, (p.c_waterfill_bits - p.c_equal_bits) / p.c_waterfill_bits) for p in curve]
    worst_margin = min(m for _, m in margins)
    low = [(snr, m) for snr, m in margins if snr <= 15.0]
    max_low_gap = max(m for _, m in low)
    m_high = [p.allocation.active_count for p in curve if p.snr_db >= 25.0]
    _report(
        "7 (capacity regimes)",
        [
            ("waterfill >= equal everywhere", worst_margin >= -1e-9,
             f"worst margin {100 * worst_margin:.2f}%"),
            ("relative gap <= 5% for SNR <= 15 dB", max_low_gap <= 0.05,
             f"max gap {100 * max_low_gap:.2f}%"),
            ("active channels > 10 for SNR >= 25 dB", min(m_high) > 10,
             f"min M {min(m_high)}"),
        ],
    )


def test_criterion_8_property_suite(paper_run, tmp_path):
    clauses = []

    # quadrature exactness
    ok = True
    for n in (2, 8, 32, 128):
        rule = gauss_legendre_rule(n)
        for p in range(2 * n):
            value = np.sum(rule.weights * rule.nodes**p)
            exact = 2.0 / (p + 1) if p % 2 == 0 else 0.0
            if exact:
                ok &= abs(value - exact) <= 1e-12 * abs(exact)
            else:
                ok &= abs(value) <= 1e-12
    clauses.append(("quadrature exactness", ok, "n in {2,8,32,128}"))

    # Legendre orthogonality
    rule = gauss_legendre_rule(64)
    table = legendre_sequence(20, rule.nodes)
    gram = (table * rule.weights) @ table.T
    resid = np.max(np.abs(gram - np.diag(2.0 / (2.0 * np.arange(21) + 1.0))))
    clauses.append(("Legendre orthogonality", resid < 1e-10, f"resid {resid:.1e}"))

    # spherical cross-product identity
    worst = 0.0
    for x in (1.0, 10.0, 100.0):
        j = spherical_bessel_j(121, x)
        y = -spherical_hankel_paper(121, x).imag
        worst = max(worst, float(np.max(np.abs((j[1:] * y[:-1] - j[:-1] * y[1:]) * x * x - 1.0))))
    clauses.append(("cross-product identity", worst < 1e-9, f"worst {worst:.1e}"))

    # translator depends on directions only through the axis dot product
    result, _, cfg = paper_run
    geo = result.modes.geometry
    grid = cap_direction_grid(geo.axis, np.radians(cfg.theta_e_deg), 6, 48)
    tbl = np.repeat(translator_table(grid, K, geo.r_pq, 40, windowed=False), 48)
    per_direction = per_direction_table(grid, K, geo.r_pq, 40, windowed=False)
    sym = np.max(np.abs(tbl - per_direction)) / np.max(np.abs(per_direction))
    clauses.append(("translator direction symmetry", sym < 1e-12, f"spread {sym:.1e}"))

    # FMM against direct quadrature, on the pipeline's own cap and translator
    src, rcv = result.modes.src_grid, result.modes.rcv_grid
    L = cfg.truncation()
    theta_e = np.radians(cfg.theta_e_deg)
    cap_grid = cap_direction_grid(geo.axis, theta_e, *default_cap_densities(L, theta_e))
    cap_table = translator_table(cap_grid, K, geo.r_pq, L, cfg.windowed)
    E = basis_eval(basis_order_table(1), src)
    rng = np.random.default_rng(77)
    coeffs = rng.normal(size=(10, 3)) + 1j * rng.normal(size=(10, 3))
    currents = coeffs @ E.T
    worst_cap = 0.0
    for current in currents:
        fmm = propagate_current(current, src, rcv, geo, cap_grid, cap_table)
        direct = reference_field(current, src, rcv, K)
        worst_cap = max(worst_cap, np.linalg.norm(fmm - direct) / np.linalg.norm(direct))
    full_grid = cap_direction_grid(geo.axis, np.pi, L + 1, 2 * L)
    full_table = translator_table(full_grid, K, geo.r_pq, L, windowed=False)
    worst_full = 0.0
    for current in currents:
        fmm = propagate_current(current, src, rcv, geo, full_grid, full_table)
        direct = reference_field(current, src, rcv, K)
        worst_full = max(worst_full, np.linalg.norm(fmm - direct) / np.linalg.norm(direct))
    clauses.append(("FMM vs direct <= 2% at 60 deg cap", worst_cap <= 0.02, f"worst {worst_cap:.2e}"))
    clauses.append(("FMM vs direct <= 0.1% full sphere", worst_full <= 1e-3, f"worst {worst_full:.2e}"))

    # Galerkin self-convergence, basis order 20 -> 36
    geo_sc = LinkGeometry(
        rect_aperture((0, 0, 0), 5.0, 5.0),
        rect_aperture((0, 0, 10.2), 4.0, 4.0),
        K,
    )
    from emlink.modes import solve_modes

    L_sc = truncation_order(K, 5.0)
    sc = solve_modes(geo_sc, theta_e=np.radians(60), L=L_sc, t=36, n_surface=37 * 37)
    # the order-20 basis is the leading block of the order-36 one; its channel by quadrature on resolved grids
    v36 = sc.modes.eigenvalues
    G20 = solved_channel(sc, np.radians(60), L_sc, basis=basis_order_table(20))
    v20 = np.linalg.svd(G20, compute_uv=False) ** 2
    shift = float(np.max(np.abs(v20[:10] - v36[:10]) / v36[:10]))
    clauses.append(("Galerkin self-convergence <= 1%", shift <= 0.01, f"shift {shift:.1e}"))

    # CLI determinism
    out1, out2 = tmp_path / "a", tmp_path / "b"
    identical = True
    for out in (out1, out2):
        assert cli_main(["--preset", "ci", "--out", str(out), "translator"]) == 0
        assert cli_main(["--preset", "ci", "--out", str(out), "modes"]) == 0
        assert cli_main(["--preset", "ci", "--out", str(out), "capacity"]) == 0
    for name in ("translator.csv", "modeset.json", "eigenvalues.csv", "capacity_curve.csv"):
        identical &= (out1 / name).read_bytes() == (out2 / name).read_bytes()
    clauses.append(("CLI determinism", identical, "byte-identical reruns"))

    _report("8 (property suite)", clauses)
