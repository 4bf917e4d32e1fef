import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import (active_set_optimum, dense_kkt, dense_newton_step,
                     random_chsa_instance)

from chsa import ipm
from chsa.errors import KktSingular
from chsa.ipm import SolverConfig, solve, solve_batch
from chsa.qp import ChsaParams, assemble_raw, dense_q, recover_weights


def test_symmetric_projection_onto_simplex():
    """No neighbor term (G = 0): gamma ||w||^2 alone spreads the weight
    evenly, and lambda > 0 keeps the split complementary."""
    prob = assemble_raw(np.zeros(1), np.zeros((1, 4)), ChsaParams(1.0, 1.0))
    sol = solve(prob)
    assert sol.converged
    assert np.allclose(sol.u, [0.25] * 4 + [0.0] * 4, atol=1e-7)


def test_linear_cost_picks_smallest():
    """On a line, x = -1 sits next to neighbor 0 at 0 (others at 1 and 2).
    With lambda = 4 every extrapolating weight costs more l1 than it saves
    residual, so c = (lambda - 2 G^T x, lambda + 2 G^T x) makes the
    nearest neighbor take all the weight, with strictly positive
    multipliers everywhere else."""
    prob = assemble_raw(np.array([-1.0]), np.array([[0.0, 1.0, 2.0]]),
                        ChsaParams(gamma=1e-9, lam=4.0))
    sol = solve(prob)
    assert sol.converged
    assert np.allclose(sol.u, [1, 0, 0, 0, 0, 0], atol=1e-6)


def test_kkt_residuals_at_convergence():
    rng = np.random.default_rng(31)
    cfg = SolverConfig()
    for _ in range(10):
        x, G, params, prob = random_chsa_instance(rng)
        sol = solve(prob, cfg)
        assert sol.converged
        n = prob.c.shape[0]
        assert np.min(sol.u) >= -cfg.tol_feas
        assert abs(prob.A[0] @ sol.u - prob.b) <= cfg.tol_feas * 2
        stat = prob.Q @ sol.u + prob.c + prob.A[0] * sol.y - sol.z
        assert np.max(np.abs(stat)) <= cfg.tol_feas * (1 + np.max(np.abs(prob.c)))
        assert sol.u @ sol.z <= cfg.tol_gap * n


def test_matches_active_set_enumeration():
    """50 random instances vs. exhaustive active-set oracle."""
    tight = SolverConfig(tol_gap=1e-13, tol_feas=1e-11, max_iters=300)
    rng = np.random.default_rng(32)
    for _ in range(50):
        x, G, params, prob = random_chsa_instance(rng, k_max=6)
        sol = solve(prob, tight)
        assert sol.converged
        ref_val, ref_u = active_set_optimum(prob)
        assert prob.objective(sol.u) == pytest.approx(ref_val, abs=1e-6)
        assert np.max(np.abs(recover_weights(sol.u)
                             - recover_weights(ref_u))) < 1e-5


def _recorded_steps(monkeypatch, prob):
    """Solve prob, recording (Q, u, z, r1, r2, r3, step) at every iterate."""
    steps = []
    newton = ipm._newton

    def recording(G, gamma, u, z, r_dual, r_pri, r3, it):
        out = newton(G, gamma, u, z, r_dual, r_pri, r3, it)
        steps.append((dense_q(G[0], gamma[0]) + ipm._REG * np.eye(2 * prob.K),
                      u[0], z[0], -r_dual[0], -r_pri[0], r3[0], out))
        return out

    monkeypatch.setattr(ipm, "_newton", recording)
    sol = solve(prob)
    assert sol.converged and len(steps) == sol.iterations
    return steps


def test_backends_agree(monkeypatch):
    """The rank-D Newton step matches a dense (4K+1) KKT solve at every
    iterate of a K = 200, D = 3 problem.  The solver works on the
    normalized problem and adds its regularization floor to z/u, i.e. it
    solves the KKT system of Q + _REG I, so the reference does too."""
    rng = np.random.default_rng(33)
    cloud = rng.random((2000, 3))
    x = np.array([0.02, 0.5, 0.97])
    order = np.argsort(np.sum((cloud - x) ** 2, axis=1))[:200]
    prob = assemble_raw(x, cloud[order].T, ChsaParams(gamma=1e-5, lam=0.025))
    steps = _recorded_steps(monkeypatch, prob)
    assert len(steps) >= 10
    for Q, u, z, r1, r2, r3, (du, dy, dz) in steps:
        ref_u, ref_y, ref_z = dense_newton_step(Q, u, z, r1, r2, r3)
        assert np.max(np.abs(du[0] - ref_u)) <= 1e-10 * np.max(np.abs(ref_u))
        assert abs(dy[0] - ref_y) <= 1e-10 * max(abs(ref_y), np.max(np.abs(ref_u)))
        assert np.max(np.abs(dz[0] - ref_z)) <= 1e-10 * np.max(np.abs(ref_z))


def test_newton_step_solves_dense_kkt_at_d20(monkeypatch):
    """At D = 20, K = 50 (the simplex workload's regime, where the
    capacitance factor does the most work) the rank-D step solves the
    dense (4K+1) KKT system to rounding at every iterate.  The last steps
    have condition numbers near 1e10, so the check is on the residual:
    the forward difference to a dense LU solve reaches 1e-9 relative,
    from the LU solve as much as from the rank-D one."""
    rng = np.random.default_rng(43)
    cloud = rng.dirichlet(np.ones(3), 400) @ rng.random((3, 20))
    for b, lam in ((7, 1e-5), (8, 1e-3)):
        order = np.argsort(np.sum((cloud - cloud[b]) ** 2, axis=1))[1:51]
        prob = assemble_raw(cloud[b], cloud[order].T, ChsaParams(1e-6, lam))
        steps = _recorded_steps(monkeypatch, prob)
        assert len(steps) >= 6
        for Q, u, z, r1, r2, r3, (du, dy, dz) in steps:
            kkt = dense_kkt(Q, u, z)
            rhs = np.concatenate([r1, [r2], r3])
            step = np.concatenate([du[0], dy, dz[0]])
            scale = (np.max(np.sum(np.abs(kkt), axis=1)) * np.max(np.abs(step))
                     + np.max(np.abs(rhs)))
            assert np.max(np.abs(kkt @ step - rhs)) <= 1e-15 * scale


def test_cholesky_solve_matches_linalg():
    """The batched factor and its substitutions solve random SPD systems
    as np.linalg.solve does, for one and two right-hand sides, and a
    problem's factor and solution are bitwise the same alone as in a
    batch."""
    rng = np.random.default_rng(41)
    for D in (1, 3, 20, 45):
        A = rng.standard_normal((9, D, D + 2))
        cap = np.eye(D) + A @ A.transpose(0, 2, 1) * 10.0 ** rng.uniform(
            -3, 3, (9, 1, 1))
        L = ipm._cholesky(cap, 0)
        for m in (1, 2):
            rhs = rng.standard_normal((9, m, D))
            x = ipm._cho_solve(L, rhs)
            ref = np.linalg.solve(cap, rhs.transpose(0, 2, 1)).transpose(0, 2, 1)
            err = np.max(np.abs(x - ref), axis=(1, 2))
            assert np.all(err <= 1e-12 * np.max(np.abs(ref), axis=(1, 2)))
            for b in (0, 4):
                alone = ipm._cholesky(cap[b:b + 1], 0)
                assert np.array_equal(alone[:, :, 0], L[:, :, b])
                assert np.array_equal(ipm._cho_solve(alone, rhs[b:b + 1]),
                                      x[b:b + 1])


@pytest.mark.parametrize("where", ["G", "lam"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_input_raises_kkt_singular(where, bad):
    """A NaN or infinity in one problem's G or lambda ends the batch with
    KktSingular, not a LinAlgError or a silent NaN."""
    rng = np.random.default_rng(42)
    x, G, lam = rng.random((4, 3)), rng.random((4, 3, 6)), np.full(4, 1e-3)
    if where == "G":
        G[1, 0, 2] = bad
    else:
        lam[1] = bad
    with np.errstate(all="ignore"), pytest.raises(KktSingular):
        solve_batch(x, G, 1e-5, lam)


def test_gap_decreases_fast():
    """Complementarity gap must fall >= 10x over any 20 iterations, on the
    slowest point of a seeded 258-point cube at K = 200."""
    rng = np.random.default_rng(34)
    corners = np.array([[i, j, k] for i in (0, 1) for j in (0, 1)
                        for k in (0, 1)], dtype=float)
    cloud = np.vstack([rng.random((250, 3)), corners])
    d2 = np.sum((cloud[:, None, :] - cloud[None, :, :]) ** 2, axis=2)
    np.fill_diagonal(d2, np.inf)
    nbr = np.argsort(d2, axis=1, kind="stable")[:, :200]
    G = cloud[nbr].transpose(0, 2, 1)
    b = int(np.argmax(solve_batch(cloud, G, 1e-5, 0.025).iterations))
    prob = assemble_raw(cloud[b], G[b], ChsaParams(gamma=1e-5, lam=0.025))
    sol = solve(prob)
    assert sol.converged
    # the gap after m steps is the final gap of a run capped at m steps
    gaps = [solve(prob, SolverConfig(max_iters=m)).final_gap
            for m in range(1, sol.iterations + 1)]
    assert gaps[-1] == sol.final_gap
    assert len(gaps) > 20  # at least one 20-iteration window
    for i in range(len(gaps) - 20):
        assert gaps[i + 20] <= gaps[i] / 10.0


def test_deterministic_bitwise():
    rng = np.random.default_rng(35)
    x, G, params, prob = random_chsa_instance(rng, k_max=10)
    s1 = solve(prob)
    s2 = solve(prob)
    assert np.array_equal(s1.u, s2.u)
    assert s1.iterations == s2.iterations


def test_start_independence():
    """Two distinct interior starting points reach the same w (gamma > 0
    gives a unique minimizer in w)."""
    rng = np.random.default_rng(36)
    G = rng.random((3, 8))
    x = rng.random(3)
    prob = assemble_raw(x, G, ChsaParams(gamma=1e-4, lam=1e-3))
    tight = dict(tol_gap=1e-13, tol_feas=1e-11, max_iters=300)
    w1 = recover_weights(solve(prob, SolverConfig(start_scale=1.0, **tight)).u)
    w2 = recover_weights(solve(prob, SolverConfig(start_scale=7.0, **tight)).u)
    assert np.max(np.abs(w1 - w2)) < 1e-6


def test_polish_reaches_exact_complementarity():
    """Active-set polish lands on an exact KKT point: active coordinates
    exactly zero, elementwise complementarity at rounding level, and the
    same optimum the exhaustive oracle finds."""
    cfg = SolverConfig(tol_gap=1e-13, tol_feas=1e-11, max_iters=300,
                       polish=True)
    rng = np.random.default_rng(38)
    for _ in range(20):
        x, G, params, prob = random_chsa_instance(rng, k_max=6)
        sol = solve(prob, cfg)
        assert sol.converged
        active = sol.u < sol.z
        assert np.all(sol.u[active] == 0.0)
        assert float(np.max(sol.u * sol.z)) < 1e-12
        ref_val, ref_u = active_set_optimum(prob)
        assert np.max(np.abs(recover_weights(sol.u)
                             - recover_weights(ref_u))) < 1e-8
        assert prob.objective(sol.u) == pytest.approx(ref_val, abs=1e-10)


def test_polish_keeps_solver_guarantees():
    """Polish never loosens the converged iterate: residuals and gap stay
    within the configured tolerances."""
    cfg = SolverConfig(polish=True)
    rng = np.random.default_rng(39)
    for _ in range(10):
        x, G, params, prob = random_chsa_instance(rng, k_max=12)
        sol = solve(prob, cfg)
        assert sol.converged
        assert np.min(sol.u) >= 0.0
        assert abs(prob.A[0] @ sol.u - prob.b) <= cfg.tol_feas * 2
        assert sol.final_gap <= cfg.tol_gap * prob.c.shape[0]


def test_nonconvergence_is_flagged_not_raised():
    rng = np.random.default_rng(37)
    x, G, params, prob = random_chsa_instance(rng, k_max=10)
    sol = solve(prob, SolverConfig(max_iters=2))
    assert not sol.converged
    assert sol.iterations == 2


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(step_fraction=1.5)
    with pytest.raises(ValueError):
        SolverConfig(tol_gap=0.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iters=0)


def test_batch_composition_is_bitwise_invisible():
    """A problem's weights and iteration count are bitwise the same whether
    it is solved alone, in a chunk, or in the whole batch."""
    rng = np.random.default_rng(40)
    cloud = rng.random((60, 3))
    K = 20
    owners = np.arange(37)
    d2 = np.sum((cloud[owners, None, :] - cloud[None, :, :]) ** 2, axis=2)
    d2[owners, owners] = np.inf
    nbr = np.argsort(d2, axis=1, kind="stable")[:, :K]
    x = cloud[owners]
    G = cloud[nbr].transpose(0, 2, 1)
    lam = np.where(owners % 2 == 0, 1e-3, 0.025)
    whole = solve_batch(x, G, 1e-5, lam)
    assert np.all(whole.converged)
    chunked = [solve_batch(x[s:s + 8], G[s:s + 8], 1e-5, lam[s:s + 8])
               for s in range(0, 37, 8)]
    assert np.array_equal(np.vstack([c.u for c in chunked]), whole.u)
    assert np.array_equal(np.concatenate([c.iterations for c in chunked]),
                          whole.iterations)
    for b in range(37):
        alone = solve(assemble_raw(x[b], G[b], ChsaParams(1e-5, lam[b])))
        assert np.array_equal(alone.u, whole.u[b])
        assert alone.iterations == whole.iterations[b]


def test_solution_independent_of_blas_threads():
    """At D = 40, K = 599 the capacitance gemm of one problem is large
    enough for OpenBLAS to thread; the blocked accumulation keeps the
    weights bitwise the same with the BLAS/OpenMP thread variables unset
    and set to one thread."""
    script = (
        "import sys, numpy as np\n"
        "from chsa.ipm import solve_batch\n"
        "cloud = np.random.default_rng(7).random((600, 40))\n"
        "nbr = np.array([np.delete(np.arange(600), i) for i in range(8)])\n"
        "G = np.ascontiguousarray(cloud[nbr].transpose(0, 2, 1))\n"
        "sol = solve_batch(cloud[:8], G, 1e-6, 1e-3)\n"
        "assert sol.converged.all()\n"
        "sys.stdout.buffer.write(sol.u.tobytes())\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for threads in (None, "1"):
        env = dict(os.environ)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            env.pop(var, None)
            if threads is not None:
                env[var] = threads
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        outputs.append(subprocess.run(
            [sys.executable, "-c", script], env=env, check=True,
            capture_output=True, timeout=600).stdout)
    assert len(outputs[0]) == 8 * 2 * 599 * 8
    assert outputs[0] == outputs[1]
