import math

import numpy as np
import pytest
from scipy.sparse.linalg import splu

from graphnls import functional as fn
from graphnls.evolve import (
    EvolveError,
    check_time_grid,
    evolve,
    h1_norm,
    orbital_distance,
    smoothed_perturbation,
    stability_probe,
)
from graphnls.graphs import double_bridge_graph, example_graph
from graphnls.mesh import GraphFunction, build_mesh, zero_function
from graphnls.solve import SolveConfig, minimize_on_edge


@pytest.fixture(scope="module")
def bound_state():
    return minimize_on_edge(
        double_bridge_graph(0.3), "e", 8.0, 4.0, SolveConfig(h=0.02, truncation=10.0)
    )


def test_conservation_short_run(bound_state):
    res = evolve(bound_state.minimizer, 4.0, t_final=0.5, dt=0.005, fp_tol=1e-12)
    assert res.mass_drift < 1e-10
    assert res.energy_drift < 1e-8
    assert res.sweeps_max <= 20


def test_standing_wave_stays_on_orbit(bound_state):
    u0 = bound_state.minimizer
    res = evolve(u0, 4.0, t_final=0.5, dt=0.005, fp_tol=1e-12)
    ref = GraphFunction(u0.mesh, u0.values.astype(complex))
    assert orbital_distance(res.final, ref) < 1e-4
    # the start from the predicted load leaves about 3 sweeps per step
    assert res.sweeps_total < 3.1 * 100


def test_phase_commutation(bound_state):
    u0 = bound_state.minimizer
    mesh = u0.mesh
    theta = 0.7
    a = GraphFunction(mesh, u0.values.astype(complex))
    b = GraphFunction(mesh, np.exp(1j * theta) * u0.values)
    ra = evolve(a, 4.0, t_final=0.2, dt=0.005, fp_tol=1e-12)
    rb = evolve(b, 4.0, t_final=0.2, dt=0.005, fp_tol=1e-12)
    diff = np.max(np.abs(rb.final.values - np.exp(1j * theta) * ra.final.values))
    assert diff < 1e-12


def test_time_reversal(bound_state):
    u0 = bound_state.minimizer
    mesh = u0.mesh
    a = GraphFunction(mesh, u0.values.astype(complex))
    fwd = evolve(a, 4.0, t_final=0.2, dt=0.005, fp_tol=1e-12)
    conj = GraphFunction(mesh, np.conj(fwd.final.values))
    back = evolve(conj, 4.0, t_final=0.2, dt=0.005, fp_tol=1e-12)
    assert np.max(np.abs(np.conj(back.final.values) - a.values)) < 1e-10


def test_rotating_frame_records_the_physical_energy(bound_state):
    u0 = bound_state.minimizer
    start = GraphFunction(u0.mesh, u0.values + 1e-2 * smoothed_perturbation(u0.mesh))
    lab = evolve(start, 4.0, t_final=0.1, dt=0.005, fp_tol=1e-12)
    rot = evolve(start, 4.0, t_final=0.1, dt=0.005, fp_tol=1e-12, omega=bound_state.lam)
    assert rot.mass_history[0] == lab.mass_history[0]
    assert rot.energy_history[0] == lab.energy_history[0]
    assert lab.energy_history[0] == pytest.approx(fn.energy(start, 4.0).total, rel=1e-14)
    # the frames differ by a phase, which changes neither mass nor energy
    assert np.max(np.abs(rot.energy_history - lab.energy_history)) < 1e-6
    assert orbital_distance(rot.final, lab.final) < 1e-4


def test_unperturbed_probe_is_a_fixed_point_in_the_rotating_frame(bound_state):
    # in the frame of its multiplier the solved state is a stationary state
    # of the scheme: the predicted load is exact and one sweep confirms it
    probe = stability_probe(bound_state, epsilon=0.0, t_final=0.5, dt=0.005, fp_tol=1e-12)
    assert probe.omega == bound_state.lam
    assert probe.max_distance < 1e-8
    assert probe.sweeps <= 1.05 * 100


def test_load_predictor_leaves_three_sweeps_per_step(bound_state):
    # the first three steps predict from fewer loads; the runs agree on
    # them, so the difference counts the sweeps of the later 97 steps.  A
    # start extrapolated from the last three states takes 4 sweeps there
    args = {"epsilon": 1e-2, "dt": 0.005, "fp_tol": 1e-12}
    head = stability_probe(bound_state, t_final=0.015, **args)
    probe = stability_probe(bound_state, t_final=0.5, **args)
    assert probe.sweeps - head.sweeps <= 3 * 97


def plain_fixed_point(u0, p, t_final, dt, fp_tol):
    """The Crank-Nicolson fixed point started from the previous state."""
    mesh = u0.mesh
    M, K = mesh.mass_matrix, mesh.stiffness_matrix
    solver = splu(((1j / dt) * M - 0.5 * K).tocsc())
    B = (1j / dt) * M + 0.5 * K
    u = u0.values.astype(complex)
    scale0 = float(np.max(np.abs(u)))
    for _ in range(int(round(t_final / dt))):
        c = B @ u
        un = u.copy()
        for _ in range(50):
            mid = GraphFunction(mesh, 0.5 * (u + un))
            un_next = solver.solve(c - fn.nonlinear_term(mid, p))
            delta = float(np.max(np.abs(un_next - un)))
            un = un_next
            if delta <= fp_tol * scale0:
                break
        else:
            raise AssertionError("reference fixed point stalled")
        u = un
    return u


def test_extrapolated_start_reaches_the_same_state(bound_state):
    u0 = bound_state.minimizer
    mesh = u0.mesh
    start = GraphFunction(mesh, u0.values + 0.05 * smoothed_perturbation(mesh, seed=1))
    res = evolve(start, 4.0, t_final=0.5, dt=0.005)
    ref = plain_fixed_point(start, 4.0, t_final=0.5, dt=0.005, fp_tol=1e-10)
    assert np.max(np.abs(res.final.values - ref)) <= 1e-9 * np.max(np.abs(ref))


@pytest.mark.parametrize(
    "kind", ["perturbed", "larger", "smaller"], ids=["plus-0.3-pert", "1.5x", "0.5x"]
)
def test_stale_linear_part_reaches_the_same_state(bound_state, kind):
    # the factored operator carries the linear part of the load at |u0|;
    # where the modulus moves away from it, the sweeps still reach the
    # fixed point of the plain scheme
    u0 = bound_state.minimizer
    mesh = u0.mesh
    values = {
        "perturbed": u0.values + 0.3 * smoothed_perturbation(mesh),
        "larger": 1.5 * u0.values,
        "smaller": 0.5 * u0.values,
    }[kind]
    start = GraphFunction(mesh, values)
    res = evolve(start, 4.0, t_final=0.5, dt=0.005)
    ref = plain_fixed_point(start, 4.0, t_final=0.5, dt=0.005, fp_tol=1e-10)
    assert np.max(np.abs(res.final.values - ref)) <= 1e-9 * np.max(np.abs(ref))


def test_factored_linear_part_leaves_about_two_sweeps_per_step():
    # Example 3, edge e: the difference of the two probes counts the sweeps
    # of the 197 steps after the first three.  With the operator factored
    # without the linear part of the load they take 563, about 2.9 a step
    state = minimize_on_edge(
        example_graph(3), "e", 10.0, 4.0, SolveConfig(h=0.01, truncation=6.0)
    )
    assert state.status == "interior"
    args = {"epsilon": 1e-2, "dt": 1e-3, "fp_tol": 1e-12}
    head = stability_probe(state, t_final=0.003, **args)
    probe = stability_probe(state, t_final=0.2, **args)
    assert probe.sweeps - head.sweeps <= 2.25 * 197


def test_zero_initial_data_stays_zero(bound_state):
    mesh = bound_state.minimizer.mesh
    z = zero_function(mesh, complex_valued=True)
    res = evolve(z, 4.0, t_final=0.1, dt=0.01)
    assert np.max(np.abs(res.final.values)) == 0.0


def test_evolve_rejects_bad_steps(bound_state):
    u0 = bound_state.minimizer
    with pytest.raises(EvolveError):
        evolve(u0, 4.0, t_final=1.0, dt=0.0)
    with pytest.raises(EvolveError):
        evolve(u0, 4.0, t_final=-1.0, dt=0.1)
    for t_final, dt in (
        (1.0, math.nan), (math.nan, 0.1), (math.inf, 0.1), (1.0, math.inf), (1.0, True),
        (10**400, 1.0),
    ):
        with pytest.raises(EvolveError):
            evolve(u0, 4.0, t_final=t_final, dt=dt)
        with pytest.raises(EvolveError):
            check_time_grid(t_final, dt)
    # too many steps is refused before the histories are allocated
    for t_final, dt in ((1e300, 1e-3), (1.0, 1e-300), (1.0 + 1e7, 1.0)):
        with pytest.raises(EvolveError, match="steps"):
            evolve(u0, 4.0, t_final=t_final, dt=dt)
    # a run that would stop short of t_final is refused
    for t_final, dt in ((0.25, 0.1), (1.0, 0.3), (0.15, 0.1)):
        with pytest.raises(EvolveError, match="whole number of steps"):
            evolve(u0, 4.0, t_final=t_final, dt=dt)
    for omega in (math.nan, math.inf, True):
        with pytest.raises(EvolveError, match="omega"):
            evolve(u0, 4.0, t_final=0.1, dt=0.01, omega=omega)
    for p in (2.0, 6.0, math.nan):
        with pytest.raises(EvolveError, match="subcritical"):
            evolve(u0, p, t_final=0.1, dt=0.01)
    bad = GraphFunction(u0.mesh, u0.values.copy())
    bad.values[3] = math.nan
    with pytest.raises(EvolveError, match="non-finite"):
        evolve(bad, 4.0, t_final=0.1, dt=0.01)


@pytest.mark.parametrize("fp_tol", [math.nan, math.inf, -1.0, 0.0, True])
def test_evolve_rejects_bad_fp_tol(bound_state, fp_tol):
    # a non-positive tolerance used to report a stalled iteration, and an
    # infinite one accepted the first sweep
    with pytest.raises(EvolveError, match="fp_tol"):
        evolve(bound_state.minimizer, 4.0, t_final=0.1, dt=0.01, fp_tol=fp_tol)


def test_evolve_reports_a_blow_up_at_once(bound_state):
    # an overflowing update is a blow-up, not a stalled fixed point, and the
    # overflow escapes as no RuntimeWarning
    huge = zero_function(bound_state.minimizer.mesh)
    huge.values[5] = 1e120
    with pytest.raises(EvolveError, match="non-finite values at step 0; the state blew up"):
        evolve(huge, 4.0, t_final=0.05, dt=0.01)
    # at p = 5.5 the linear part of the load at the start overflows already
    with pytest.raises(EvolveError, match="non-finite values at step 0; the state blew up"):
        evolve(huge, 5.5, t_final=0.05, dt=0.01)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"dt": math.nan},
        {"dt": True},
        {"t_final": math.inf},
        {"t_final": True},
        {"stride": 0},
        {"stride": True},
        {"stride": 2.5},
        {"epsilon": math.nan},
        {"epsilon": math.inf},
        {"epsilon": True},
        {"seed": -1},
        {"seed": 1.5},
        {"seed": True},
        {"fp_tol": math.nan},
        {"fp_tol": 0.0},
    ],
)
def test_stability_probe_rejects_bad_input(bound_state, kwargs):
    args = {"epsilon": 1e-2, "t_final": 0.1, "dt": 0.01, "stride": 1, **kwargs}
    with pytest.raises(EvolveError):
        stability_probe(bound_state, **args)


def test_orbital_distance_phase_invariant(bound_state):
    u0 = bound_state.minimizer
    mesh = u0.mesh
    a = GraphFunction(mesh, u0.values.astype(complex))
    for theta in (0.0, 0.3, 2.0, -1.2):
        b = GraphFunction(mesh, np.exp(1j * theta) * a.values)
        # the squared distance cancels to roundoff of the H1 norms, so the
        # distance itself is accurate to about its square root
        assert orbital_distance(a, b) < 1e-5
    # and detects a genuine difference
    c = GraphFunction(mesh, a.values + 0.05 * np.max(np.abs(a.values)))
    assert orbital_distance(a, c) > 1e-3


def test_orbital_distance_of_a_rotated_copy_vanishes(bound_state):
    a = GraphFunction(bound_state.minimizer.mesh, bound_state.minimizer.values.astype(complex))
    for theta in (0.3, 2.0, -1.2, math.pi):
        b = GraphFunction(a.mesh, np.exp(1j * theta) * a.values)
        assert orbital_distance(a, b) < 1e-10


def random_complex(mesh, rng):
    return rng.standard_normal(mesh.ndof) + 1j * rng.standard_normal(mesh.ndof)


def h1_inner(mesh, a, b):
    return np.vdot(a, (mesh.stiffness_matrix + mesh.mass_matrix) @ b)


def test_orbital_distance_matches_a_dense_phase_scan(bound_state):
    mesh = bound_state.minimizer.mesh
    rng = np.random.default_rng(7)
    thetas = np.linspace(0.0, 2.0 * math.pi, 20000, endpoint=False)
    for _ in range(20):
        u = random_complex(mesh, rng)
        # part of v lies on the orbit of u, so the best phase matters
        v = 0.3 * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)) * u + random_complex(mesh, rng)
        a = h1_inner(mesh, u, u).real
        b = h1_inner(mesh, v, v).real
        z = h1_inner(mesh, v, u)
        scan = math.sqrt(np.min(a + b - 2.0 * np.real(np.exp(1j * thetas) * z)))
        got = orbital_distance(GraphFunction(mesh, u), GraphFunction(mesh, v))
        assert got == pytest.approx(scan, rel=1e-8)


def test_orbital_distance_of_orthogonal_functions(bound_state):
    mesh = bound_state.minimizer.mesh
    rng = np.random.default_rng(11)
    u = random_complex(mesh, rng)
    v = random_complex(mesh, rng)
    v -= h1_inner(mesh, u, v) / h1_inner(mesh, u, u) * u
    a = h1_inner(mesh, u, u).real
    b = h1_inner(mesh, v, v).real
    got = orbital_distance(GraphFunction(mesh, u), GraphFunction(mesh, v))
    assert got == pytest.approx(math.sqrt(a + b), rel=1e-12)


def test_smoothed_perturbation_unit_h1(bound_state):
    mesh = bound_state.minimizer.mesh
    z = smoothed_perturbation(mesh, seed=3)
    u = GraphFunction(mesh, z)
    assert h1_norm(u) == pytest.approx(1.0, rel=1e-10)
    # seeded: reproducible
    z2 = smoothed_perturbation(mesh, seed=3)
    assert np.array_equal(z, z2)


def test_stability_probe_small_perturbation(bound_state):
    probe = stability_probe(
        bound_state, epsilon=1e-2, t_final=0.5, dt=0.005, fp_tol=1e-12, stride=10
    )
    assert probe.max_distance < 0.1
    assert probe.mass_drift < 1e-10
    doc = probe.to_dict()
    assert doc["epsilon"] == 1e-2
    assert doc["omega"] == bound_state.lam
    assert len(doc["orbital_distances"]) == len(doc["times"])
    assert 100 <= doc["sweeps"] <= 100 * doc["sweeps_max"]
