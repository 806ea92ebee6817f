import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctqw_search import (
    DegenerateStateError,
    InvalidInputError,
    InvalidParameterError,
    MarkedState,
    NumericError,
    OrthogonalStateError,
    PoleError,
    amplitude_approx,
    amplitude_exact_sum,
    complete,
    complete_minus_disjoint_edges,
    eig_sym,
    evolve,
    f_of_mu,
    hypercube,
    hypercube_eigenbasis,
    laplacian,
    laplacian_decomposition,
    overlaps,
    paley,
    regular_multipartite,
    run_hypercube,
    search,
    search_params,
    solve_mu,
    uniform_state,
)
from conftest import (
    DEGENERATE_FAMILIES,
    random_connected_graph,
    random_marked_state,
    transform_level_masses,
)


def coupled_instance(g, seed, p_n=None):
    """Dense decomposition, state, parameters, and Hamiltonian eigendata."""
    decomp = laplacian_decomposition(laplacian(g))
    rng = np.random.default_rng(seed)
    state = random_marked_state(rng, g.n_vertices, p_n=p_n)
    params = search_params(decomp, state)
    h = params.gamma_c * laplacian(g) - np.outer(state.weights, state.weights)
    return decomp, state, params, eig_sym(h)


class TestMarkedState:
    def test_phase_flip(self):
        state = MarkedState.from_weights([-1.0, 0.0, 0.0])
        assert state.weights[0] == 1.0

    def test_norm_validation(self):
        with pytest.raises(InvalidInputError):
            MarkedState(np.array([1.0, 1.0]))

    def test_empty_support(self):
        with pytest.raises(InvalidInputError):
            MarkedState.from_weights([0.0, 0.0])

    def test_factories(self):
        assert MarkedState.single(4, 2).support == (2,)
        assert MarkedState.pair(4, 0, 3).support == (0, 3)
        assert MarkedState.uniform_over(4, [1, 2, 3]).support == (1, 2, 3)
        np.testing.assert_allclose(
            MarkedState.uniform_over(4, [1, 2]).weights[1], 1 / math.sqrt(2)
        )

    def test_digest_stability(self):
        a = MarkedState.pair(8, 1, 5)
        b = MarkedState.pair(8, 1, 5)
        assert a.digest() == b.digest()
        assert a.digest() != MarkedState.pair(8, 1, 6).digest()


class TestOverlaps:
    def test_uniform_state_hits_zero_mode_only(self):
        g = complete(5)
        decomp = laplacian_decomposition(laplacian(g))
        state = MarkedState(uniform_state(5))
        p = overlaps(decomp, state)
        assert p[-1] == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(p[:-1], 0.0, atol=1e-12)

    def test_single_vertex_uniform_overlap(self):
        for n in (2, 5, 8):
            decomp = laplacian_decomposition(laplacian(complete(n)))
            p = overlaps(decomp, MarkedState.single(n, 0))
            assert p[-1] == pytest.approx(1 / math.sqrt(n), abs=1e-12)

    def test_antipodal_pair_kills_odd_parity(self):
        for n in (2, 3, 4, 6):
            size = 1 << n
            basis = hypercube_eigenbasis(n)
            p = overlaps(basis, MarkedState.pair(size, 0, size - 1))
            odd = np.bitwise_count(np.arange(size, dtype=np.uint64)) % 2 == 1
            np.testing.assert_allclose(p[odd], 0.0, atol=1e-12)

    def test_normalization(self):
        rng = np.random.default_rng(21)
        for g in (complete(6), paley(13), hypercube(4)):
            decomp = laplacian_decomposition(laplacian(g))
            for _ in range(10):
                state = random_marked_state(rng, g.n_vertices)
                p = overlaps(decomp, state)
                assert np.sum(p**2) == pytest.approx(1.0, abs=1e-10)

    def test_dimension_mismatch(self):
        decomp = laplacian_decomposition(laplacian(complete(4)))
        with pytest.raises(InvalidInputError):
            overlaps(decomp, MarkedState.single(5, 0))


class TestSearchParams:
    def test_single_vertex_complete_closed_form(self):
        # all nonzero eigenvalues equal N, so the sums collapse
        for n in (4, 8, 16):
            decomp = laplacian_decomposition(laplacian(complete(n)))
            params = search_params(decomp, MarkedState.single(n, 0))
            assert params.gamma_c == pytest.approx((1 - 1 / n) / n, abs=1e-12)
            assert params.beta**2 == pytest.approx((1 - 1 / n) / n**2, abs=1e-12)
            assert params.envelope == pytest.approx(math.sqrt(1 - 1 / n), abs=1e-12)
            assert params.t_opt == pytest.approx(
                math.pi * params.beta / (2 * params.gamma_c * params.p_n), abs=1e-12
            )

    def test_pair_distance_one_on_sixteen_bits(self):
        basis = hypercube_eigenbasis(16)
        params = search_params(basis, MarkedState.pair(1 << 16, 0, 1))
        assert params.envelope == pytest.approx(0.9418, abs=2e-3)

    def test_uniform_state_is_degenerate(self):
        decomp = laplacian_decomposition(laplacian(complete(6)))
        with pytest.raises(DegenerateStateError):
            search_params(decomp, MarkedState(uniform_state(6)))

    def test_zero_sum_state_is_orthogonal(self):
        decomp = laplacian_decomposition(laplacian(complete(4)))
        state = MarkedState.from_weights([1.0, -1.0, 0.0, 0.0])
        with pytest.raises(OrthogonalStateError):
            search_params(decomp, state)

    def test_mu_antisymmetry_and_envelope_bound(self):
        rng = np.random.default_rng(33)
        for g in (complete(8), paley(13), complete_minus_disjoint_edges(10, 5)):
            decomp = laplacian_decomposition(laplacian(g))
            for _ in range(5):
                params = search_params(decomp, random_marked_state(rng, g.n_vertices))
                assert params.mu1 == -params.mu2
                assert params.envelope <= 1.0 + 1e-12

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_envelope_cauchy_schwarz_property(self, seed):
        g = paley(13)
        decomp = laplacian_decomposition(laplacian(g))
        state = random_marked_state(np.random.default_rng(seed), 13)
        params = search_params(decomp, state)
        assert params.envelope <= 1.0 + 1e-12
        assert params.reduced_envelope <= 1.0 + 1e-12
        assert np.sum(params.a_k) == pytest.approx(1.0, abs=1e-10)


def per_eigenvector_sums(basis, state):
    """p_n, gamma_c and beta summed over every eigenvector, one term each;
    the zero mode is the eigenvector of the smallest eigenvalue."""
    p = basis.overlaps(state.weights)
    lam = np.asarray(basis.eigenvalues)
    zero = int(np.argmin(lam))
    rest = np.delete(p**2, zero)
    lam_rest = np.delete(lam, zero)
    return (float(p[zero]), float(np.sum(rest / lam_rest)),
            math.sqrt(float(np.sum(rest / lam_rest**2))))


BASES = st.one_of(
    st.sampled_from(DEGENERATE_FAMILIES),
    st.builds(random_connected_graph, st.integers(0, 2**32 - 1).map(np.random.default_rng),
              st.integers(2, 24), st.floats(0.0, 0.5)),
).map(lambda g: laplacian_decomposition(laplacian(g))) | st.builds(
    hypercube_eigenbasis, st.integers(1, 8))


class TestLevels:
    @settings(max_examples=80, deadline=None)
    @given(BASES, st.integers(0, 2**32 - 1))
    def test_grouped_params_match_per_eigenvector_sums(self, basis, seed):
        rng = np.random.default_rng(seed)
        state = random_marked_state(rng, basis.n, support=int(rng.integers(1, basis.n + 1)))
        params = search_params(basis, state)
        p_n, gamma_c, beta = per_eigenvector_sums(basis, state)
        assert params.p_n == pytest.approx(p_n, rel=1e-12)
        assert params.gamma_c == pytest.approx(gamma_c, rel=1e-12)
        assert params.beta == pytest.approx(beta, rel=1e-12)
        # distinct levels in decreasing order, the zero level last
        assert np.all(np.diff(params.eigenvalues) < 0)
        assert params.eigenvalues[-1] == 0.0
        assert np.sum(params.a_k) == pytest.approx(1.0, abs=1e-12)
        # grouping leaves the secular function and its roots unchanged
        grouped = solve_mu(params.overlaps, params.eigenvalues, params.gamma_c)
        full = solve_mu(basis.overlaps(state.weights), basis.eigenvalues, params.gamma_c)
        np.testing.assert_allclose(grouped, full, rtol=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 10), st.integers(0, 2**32 - 1), st.booleans())
    def test_pair_kernel_masses_match_transform(self, n, seed, signed):
        rng = np.random.default_rng(seed)
        support = int(rng.integers(1, (1 << n) + 1))
        state = random_marked_state(rng, 1 << n, support=support)
        if not signed:
            state = MarkedState.from_weights(np.abs(state.weights))
        params = run_hypercube(n, state, steps=2).params
        np.testing.assert_array_equal(params.eigenvalues, 2.0 * np.arange(n, -1, -1))
        np.testing.assert_allclose(params.a_k, transform_level_masses(n, state.weights),
                                   rtol=0, atol=1e-12)
        basis_params = search_params(hypercube_eigenbasis(n), state)
        assert params.gamma_c == pytest.approx(basis_params.gamma_c, rel=1e-12)
        assert params.beta == pytest.approx(basis_params.beta, rel=1e-12)

    def test_pair_kernel_overlaps_finite(self):
        # odd levels of an antipodal pair have zero mass; the pair kernel
        # returns it with rounding of either sign
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for n in range(3, 17):
                size = 1 << n
                for state in (MarkedState.pair(size, 0, size - 1),
                              MarkedState.uniform_over(size, [0, 3, 5, 6])):
                    params = run_hypercube(n, state, steps=2).params
                    assert np.all(np.isfinite(params.overlaps))
                    assert np.all(params.overlaps >= 0.0)


class TestSecularFunction:
    def test_pure_zero_mode(self):
        # single unit overlap on the zero eigenvalue: f(mu) = -1/mu
        p = np.array([0.0, 1.0])
        lam = np.array([3.0, 0.0])
        assert f_of_mu(-1.0, p, lam, 1.0) == pytest.approx(1.0, abs=1e-14)
        assert f_of_mu(2.0, p, lam, 1.0) == pytest.approx(-0.5, abs=1e-14)

    def test_eigencondition_at_coupled_eigenvalues(self):
        _, state, params, decomp_h = coupled_instance(paley(13), seed=1)
        coupling = (decomp_h.eigenvectors.T @ state.weights) ** 2
        checked = 0
        for mu_k, r_k in zip(decomp_h.eigenvalues, coupling):
            if r_k < 1e-4:
                continue  # eigenvector orthogonal to the marked state: pole, not root
            value = f_of_mu(mu_k, params.overlaps, params.eigenvalues, params.gamma_c)
            assert value == pytest.approx(1.0, abs=1e-8)
            checked += 1
        assert checked >= 3

    def test_strictly_increasing_between_poles(self):
        _, _, params, _ = coupled_instance(complete_minus_disjoint_edges(8, 2), seed=2)
        # cluster numerically-degenerate eigenvalues into single poles
        poles = np.unique(np.round(params.gamma_c * params.eigenvalues, 9))
        for lo, hi in zip(poles[:-1], poles[1:]):
            grid = np.linspace(lo, hi, 13)[1:-1]
            values = [
                f_of_mu(mu, params.overlaps, params.eigenvalues, params.gamma_c)
                for mu in grid
            ]
            assert np.all(np.diff(values) > 0)

    def test_pole_raises(self):
        p = np.array([0.6, 0.8])
        lam = np.array([2.0, 0.0])
        with pytest.raises(PoleError):
            f_of_mu(2.0, p, lam, 1.0)


class TestSolveMu:
    def test_roots_are_hamiltonian_eigenvalues(self):
        for g, seed in ((paley(13), 3), (complete(12), 4), (hypercube(4), 5)):
            _, _, params, decomp_h = coupled_instance(g, seed=seed)
            mu_pos, mu_neg = solve_mu(params.overlaps, params.eigenvalues, params.gamma_c)
            assert mu_pos > 0 > mu_neg
            for root in (mu_pos, mu_neg):
                assert np.min(np.abs(decomp_h.eigenvalues - root)) <= 1e-8

    def test_approximation_small_overlap(self):
        for g, seed in ((paley(29), 6), (complete(32), 7)):
            _, _, params, _ = coupled_instance(g, seed=seed, p_n=0.05)
            mu_pos, mu_neg = solve_mu(params.overlaps, params.eigenvalues, params.gamma_c)
            assert abs(mu_pos - params.mu1) / mu_pos <= 0.05
            assert abs(mu_neg - params.mu2) / abs(mu_neg) <= 0.05

    def test_complete_graph_sign_symmetry(self):
        # on K_N the secular equation is the quadratic
        # mu**2 + mu*p_n**2 - p_n**2*(1 - p_n**2) = 0, so the exact roots sum
        # to -p_n**2 (Vieta) and the relative asymmetry is about p_n; the
        # approximants are antisymmetric by construction
        for seed in range(3):
            _, _, params, _ = coupled_instance(complete(64), seed=seed, p_n=0.01)
            mu_pos, mu_neg = solve_mu(params.overlaps, params.eigenvalues, params.gamma_c)
            assert mu_pos + mu_neg == pytest.approx(-params.p_n**2, rel=1e-9)
            assert abs(mu_pos + mu_neg) / mu_pos <= 0.011
            assert params.mu1 == -params.mu2

    def test_coupling_weights_match_secular_derivative(self):
        _, state, params, decomp_h = coupled_instance(paley(13), seed=8, p_n=0.07)
        mu_pos, mu_neg = solve_mu(params.overlaps, params.eigenvalues, params.gamma_c)
        coupling = (decomp_h.eigenvectors.T @ state.weights) ** 2
        for root in (mu_pos, mu_neg):
            den = params.gamma_c * params.eigenvalues - root
            f_prime = float(np.sum(params.a_k / den**2))
            k = int(np.argmin(np.abs(decomp_h.eigenvalues - root)))
            assert 1.0 / f_prime == pytest.approx(coupling[k], abs=1e-7)


def bisection_solve_mu(overlaps, eigenvalues, jump_rate):
    """Reference secular roots: geometric bracket expansion, then bisection
    to relative width 1e-15, each step one evaluation of ``f_of_mu``."""
    p = np.asarray(overlaps, dtype=float)
    lam = np.asarray(eigenvalues, dtype=float)
    a = p**2
    lam_top = float(lam.max())
    zero = lam <= search.ZERO_BRACKET_TOL * max(lam_top, 1.0)
    active = (~zero) & (a > search.NEGLIGIBLE_OVERLAP_SQ)

    def f(mu):
        return f_of_mu(mu, p, lam, jump_rate)

    def bisect(lo, hi):
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break
            if f(mid) < 1.0:
                lo = mid
            else:
                hi = mid
            if hi - lo <= 1e-15 * abs(mid):
                break
        return 0.5 * (lo + hi)

    def expand(x, done, step):
        for _ in range(200):
            if done(x):
                return x
            x = step(x)
        raise AssertionError("reference failed to bracket a root")

    pole = jump_rate * float(lam[active].min())
    eps = 1e-14 * jump_rate * lam_top
    lo = expand(eps, lambda x: f(x) < 1.0, lambda x: x * 1e-3)
    hi = expand(pole - eps, lambda x: x > lo and f(x) > 1.0, lambda x: pole - (pole - x) * 0.5)
    mu_pos = bisect(lo, hi)
    hi = expand(-eps, lambda x: f(x) > 1.0, lambda x: x * 1e-3)
    lo = expand(-10.0 * jump_rate * lam_top, lambda x: f(x) < 1.0, lambda x: x * 2.0)
    return mu_pos, bisect(lo, hi)


def split_level(overlaps, eigenvalues, k, rel_gap, share):
    """Split nonzero level k into two poles a relative ``rel_gap`` apart,
    the lower one taking ``share`` of its mass."""
    mass = overlaps[k] ** 2
    lam = np.insert(eigenvalues, k + 1, eigenvalues[k] * (1.0 - rel_gap))
    p = np.insert(overlaps, k + 1, math.sqrt(mass * share))
    p[k] = math.sqrt(mass * (1.0 - share))
    return p, lam


EPS = float(np.finfo(float).eps)


def conditioned_tol(overlaps, eigenvalues, jump_rate, mu):
    """1e-10 of |mu| plus 16 eps times the condition of the root mu of
    f = 1 under the rounding of f: sum |a_k/(rate*lam_k - mu)| + 1 over f'."""
    a = np.asarray(overlaps) ** 2
    keep = a > search.NEGLIGIBLE_OVERLAP_SQ
    den = jump_rate * np.asarray(eigenvalues)[keep] - mu
    terms = a[keep] / den
    return 1e-10 * abs(mu) + 16 * EPS * (np.sum(np.abs(terms)) + 1.0) / np.sum(terms / den)


def assert_roots_match_references(p, lam, rate):
    """solve_mu against the bisection reference and against eigvalsh; where
    it raises PoleError the reference must raise it too."""
    try:
        roots = solve_mu(p, lam, rate)
    except PoleError:
        with pytest.raises(PoleError):
            bisection_solve_mu(p, lam, rate)
        return
    try:
        want = bisection_solve_mu(p, lam, rate)
    except PoleError:  # the reference stops farther from the poles
        want = None
    if want is not None:
        for got, ref in zip(roots, want):
            assert abs(got - ref) <= conditioned_tol(p, lam, rate, ref)
    # the one negative and the smallest positive eigenvalue of the rank-one
    # matrix, to 1e-10 of the larger of its two terms (forming the matrix
    # rounds at that scale, which cancellation can leave far above its norm)
    keep = p**2 > search.NEGLIGIBLE_OVERLAP_SQ
    ev = np.linalg.eigvalsh(np.diag(rate * lam[keep]) - np.outer(p[keep], p[keep]))
    tol = 1e-10 * max(rate * float(np.max(lam)), float(np.sum(p**2)))
    assert abs(roots[1] - ev[0]) <= tol
    assert abs(roots[0] - ev[1]) <= tol


def model_roots(a, levels, rate):
    """Roots x_neg < 0 < x_pos, in units of the smallest active pole P, of
    -a_0 + C x + S x**2, the second-order Taylor model of mu*(f(mu) - 1)."""
    a_zero, a, levels = a[-1], a[:-1], levels[:-1]
    active = a > search.NEGLIGIBLE_OVERLAP_SQ
    pole = rate * levels[active].min()
    ratio = pole / (rate * levels[active])
    c = a[active] @ ratio - pole
    s = a[active] @ ratio**2
    q = -0.5 * (c + math.copysign(math.sqrt(c * c + 4.0 * a_zero * s), c))
    return sorted([q / s, -a_zero / q])


def brent_first_point(lo, h_lo, hi, h_hi):
    """Brent's first iterate: the secant point if it lies within half the
    bracket of the end with the smaller |h|, else the midpoint."""
    near = hi if abs(h_hi) <= abs(h_lo) else lo
    secant = hi - h_hi * (hi - lo) / (h_hi - h_lo)
    mid = 0.5 * (lo + hi)
    return secant if abs(secant - near) < abs(mid - near) else mid


ACCEPTANCE_POOL = [
    paley(13), paley(17), paley(29), complete(16), complete(32),
    complete_minus_disjoint_edges(12, 3), complete_minus_disjoint_edges(10, 5),
    regular_multipartite(4, 4), regular_multipartite(3, 4), hypercube(4), hypercube(5),
]


class TestSolveMuMatchesOracle:
    @settings(max_examples=200, deadline=None)
    @given(BASES, st.integers(0, 2**32 - 1), st.booleans(), st.floats(-8.0, math.log10(0.99)),
           st.floats(-3.0, 3.0), st.floats(0.25, 4.0),
           st.one_of(st.none(), st.tuples(st.floats(-14.0, -3.0), st.floats(0.01, 0.99))),
           st.one_of(st.none(), st.floats(-19.0, -3.0)))
    def test_roots_match_bisection_and_eigvalsh(self, basis, seed, grouped, log_p_n,
                                                log_rate, scale, split, log_low_mass):
        rng = np.random.default_rng(seed)
        state = random_marked_state(rng, basis.n, p_n=10.0**log_p_n)
        params = search_params(basis, state)
        if grouped:
            p, lam = params.overlaps, params.eigenvalues
        else:
            p, lam = basis.overlaps(state.weights), basis.eigenvalues
        p = np.array(p, dtype=float) * scale  # overlaps of a state of norm `scale`
        lam = np.asarray(lam)
        nonzero = np.flatnonzero(lam > 0.0)
        if split is not None:
            p, lam = split_level(p, lam, int(rng.choice(nonzero)), 10.0**split[0], split[1])
        if log_low_mass is not None:
            # a small mass on the lowest active pole
            active = np.flatnonzero((lam > 0.0) & (p**2 > search.NEGLIGIBLE_OVERLAP_SQ))
            p[active[np.argmin(lam[active])]] = math.sqrt(10.0**log_low_mass)
        assert_roots_match_references(p, lam, params.gamma_c * 10.0**log_rate)

    @pytest.mark.parametrize("masses, levels", [
        ([1.0 - 1e-16, 1e-16], [1.0, 0.0]),  # roots about 1e-8 from the pole 0
        ([0.7, 1e-16, 0.3], [1.5, 1.0, 0.0]),  # a tiny mass on the pole P
    ])
    def test_roots_near_guarded_poles(self, masses, levels):
        # Brent's first steps land within f_of_mu's pole guard here unless
        # they are kept out of it
        assert_roots_match_references(np.sqrt(masses), np.array(levels), 1.0)

    def test_tiny_uniform_overlap_at_critical_rate(self):
        rng = np.random.default_rng(41)
        decomp = laplacian_decomposition(laplacian(paley(13)))
        for p_n in (1e-8, 1e-7, 1e-6):
            params = search_params(decomp, random_marked_state(rng, 13, p_n=p_n))
            assert_roots_match_references(params.overlaps, params.eigenvalues, params.gamma_c)

    def test_evaluations_per_root(self, monkeypatch):
        evaluated = []

        def counting(mu, *args):
            evaluated.append(mu)
            return f_of_mu(mu, *args)

        monkeypatch.setattr(search, "f_of_mu", counting)
        rng = np.random.default_rng(17)
        pool = ACCEPTANCE_POOL + [random_connected_graph(rng, int(rng.integers(3, 40)),
                                                         float(rng.uniform(0.0, 0.5)))
                                  for _ in range(10)]
        per_root = []
        for g in pool:
            decomp = laplacian_decomposition(laplacian(g))
            for p_n in (None, 0.3, 0.05, 1e-3, 1e-8):
                state = random_marked_state(rng, g.n_vertices, p_n=p_n)
                params = search_params(decomp, state)
                evaluated.clear()
                solve_mu(params.overlaps, params.eigenvalues, params.gamma_c)
                # each root evaluates f only on its own side of zero
                per_root += [sum(mu > 0.0 for mu in evaluated), sum(mu < 0.0 for mu in evaluated)]
        # every step is one evaluation of the public f_of_mu; the old
        # bisection solver needs about 57 per root
        assert min(per_root) >= 1
        assert np.mean(per_root) <= 8.0
        assert max(per_root) <= 16

    @settings(max_examples=60, deadline=None)
    @given(BASES, st.integers(0, 2**32 - 1), st.floats(-3.0, 3.0))
    def test_first_steps_use_endpoint_identities(self, basis, seed, log_rate):
        # the forms h+(mu)/(mu/P - x_neg) on [0, P] and h-(mu)/(x_pos - mu/P)
        # on [-A, 0] take their endpoint values from h+(0) = -a_0*P,
        # h+(P) = P*a_P and h-(0) = -a_0, so Brent's first iterate of each
        # root is fixed by these identities and the model roots x_neg, x_pos
        rng = np.random.default_rng(seed)
        state = random_marked_state(rng, basis.n, support=int(rng.integers(1, basis.n + 1)))
        params = search_params(basis, state)
        rate = params.gamma_c * 10.0**log_rate
        a, levels = params.a_k, params.eigenvalues
        # the smallest active pole: the lowest nonzero level with mass
        k = np.flatnonzero(a[:-1] > search.NEGLIGIBLE_OVERLAP_SQ)[-1]
        a_zero, a_pole, pole = a[-1], a[k], rate * levels[k]
        x_neg, x_pos = model_roots(a, levels, rate)
        margin = (search.POLE_GUARD + EPS) * rate * levels[0]
        evaluated = []

        def recording(mu, *args):
            evaluated.append(mu)
            return f_of_mu(mu, *args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(search, "f_of_mu", recording)
            solve_mu(params.overlaps, levels, rate)
        first = brent_first_point(0.0, a_zero * pole / x_neg, pole, pole * a_pole / (1.0 - x_neg))
        assert evaluated[0] == pytest.approx(min(max(first, margin), pole - margin), rel=1e-9)
        neg = [mu for mu in evaluated if mu < 0.0]
        total = float(np.sum(a))
        assert neg[0] == -total
        if len(neg) > 1:
            f_lo = f_of_mu(-total, params.overlaps, levels, rate) - 1.0
            h_lo = -total * f_lo / (x_pos + total / pole)
            first = brent_first_point(-total, h_lo, 0.0, -a_zero / x_pos)
            assert neg[1] == pytest.approx(min(first, -margin), rel=1e-9)

    def test_negative_root_at_tiny_rate(self):
        # f(-A) - 1 is of order rate*lambda/A, so rounding gives it either
        # sign at rate 1e-18*gamma_c; the root is then -A to within rounding
        rng = np.random.default_rng(23)
        for g in DEGENERATE_FAMILIES:
            decomp = laplacian_decomposition(laplacian(g))
            for _ in range(20):
                params = search_params(decomp, random_marked_state(rng, g.n_vertices))
                rate = 1e-18 * params.gamma_c
                mu_pos, mu_neg = solve_mu(params.overlaps, params.eigenvalues, rate)
                assert mu_neg == pytest.approx(-np.sum(params.a_k), rel=1e-12)
                assert 0.0 < mu_pos < rate * params.eigenvalues[-2]

    def test_iteration_cap(self, monkeypatch):
        params = search_params(laplacian_decomposition(laplacian(paley(13))),
                               MarkedState.single(13, 0))
        monkeypatch.setattr(search, "MAX_SECULAR_STEPS", 2)
        with pytest.raises(NumericError, match="not converged"):
            solve_mu(params.overlaps, params.eigenvalues, params.gamma_c)


class TestSolveMuInputs:
    """Bad inputs raise before any evaluation of the secular function."""

    @pytest.fixture
    def paley_params(self, monkeypatch):
        def evaluated(*args):
            raise AssertionError("f_of_mu evaluated")

        params = search_params(laplacian_decomposition(laplacian(paley(13))),
                               MarkedState.single(13, 0))
        monkeypatch.setattr(search, "f_of_mu", evaluated)
        return params

    @pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_rate_not_finite_positive(self, paley_params, rate):
        p = paley_params
        with pytest.raises(InvalidParameterError):
            solve_mu(p.overlaps, p.eigenvalues, rate)
        with pytest.raises(InvalidParameterError):
            f_of_mu(0.1, p.overlaps, p.eigenvalues, rate)

    def test_shape_mismatch(self, paley_params):
        p = paley_params
        with pytest.raises(InvalidInputError):
            solve_mu(p.overlaps[:-1], p.eigenvalues, p.gamma_c)
        with pytest.raises(InvalidInputError):
            f_of_mu(0.1, p.overlaps, p.eigenvalues[1:], p.gamma_c)

    def test_negative_eigenvalues(self, paley_params):
        p = paley_params
        for lam in (-p.eigenvalues, np.append(p.eigenvalues[:-1], -1.0)):
            with pytest.raises(InvalidInputError, match="negative"):
                solve_mu(p.overlaps, lam, p.gamma_c)

    def test_non_finite_overlaps(self, paley_params):
        p = paley_params
        with pytest.raises(InvalidInputError):
            solve_mu(np.append(p.overlaps[:-1], math.nan), p.eigenvalues, p.gamma_c)

    @pytest.mark.parametrize("mu", [math.nan, math.inf])
    def test_f_of_mu_non_finite_mu(self, mu):
        with pytest.raises(InvalidParameterError):
            f_of_mu(mu, np.array([0.6, 0.8]), np.array([2.0, 0.0]), 1.0)


class TestAmplitudes:
    def test_approx_endpoints(self):
        _, _, params, _ = coupled_instance(complete(8), seed=10)
        assert amplitude_approx(params, 0.0) == 0.0
        assert amplitude_approx(params, params.t_opt) == pytest.approx(
            params.envelope, abs=1e-12
        )

    def test_approx_matches_exact_at_peak_on_hypercube(self):
        g = hypercube(6)
        decomp = laplacian_decomposition(laplacian(g))
        w = MarkedState.single(64, 0)
        params = search_params(decomp, w)
        h = params.gamma_c * laplacian(g) - np.outer(w.weights, w.weights)
        exact = abs(
            amplitude_exact_sum(eig_sym(h), w.weights, uniform_state(64), params.t_opt)
        )
        approx = float(amplitude_approx(params, params.t_opt))
        assert abs(approx - exact) / exact <= 0.10

    def test_exact_sum_at_time_zero_is_p_n(self):
        _, state, params, decomp_h = coupled_instance(paley(13), seed=11)
        amp = amplitude_exact_sum(
            decomp_h, state.weights, uniform_state(13), 0.0
        )
        assert amp.real == pytest.approx(params.p_n, abs=1e-10)
        assert amp.imag == pytest.approx(0.0, abs=1e-12)

    def test_exact_sum_agrees_with_evolution(self):
        rng = np.random.default_rng(12)
        for g, seed in ((complete(9), 13), (paley(17), 14)):
            _, state, _, decomp_h = coupled_instance(g, seed=seed)
            s = uniform_state(g.n_vertices)
            for t in rng.uniform(0, 20, size=5):
                via_sum = amplitude_exact_sum(decomp_h, state.weights, s, t)
                via_evolve = complex(state.weights @ evolve(decomp_h, s, t))
                assert abs(via_sum - via_evolve) <= 1e-10

    def test_magnitude_bounded_by_one(self):
        _, state, _, decomp_h = coupled_instance(complete(16), seed=15)
        times = np.linspace(0, 50, 101)
        amps = amplitude_exact_sum(
            decomp_h, state.weights, uniform_state(16), times
        )
        assert np.all(np.abs(amps) <= 1.0 + 1e-12)
