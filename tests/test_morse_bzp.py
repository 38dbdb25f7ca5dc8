"""Critical-point bookkeeping, the alternating resolution, unit constants."""

import cmath
import time

import pytest
from oracles import resolution_homology_by_complex

from smith_tate.errors import MalformedInput, NotPrime, PrimeTooLarge, TooLarge
from smith_tate.fp_core import is_prime
from smith_tate.morse_bzp import (
    MAX_CRITICAL_POINTS,
    MAX_RESOLUTION_LENGTH,
    MORSE_PRIME_BOUND,
    CriticalPoint,
    enumerate_critical_points,
    local_euler_constant,
    resolution_homology,
    wilson_constant,
)


class TestCriticalPoints:
    def test_counts(self):
        assert len(enumerate_critical_points(3, 0)) == 6
        assert len(enumerate_critical_points(2, 1)) == 8
        pts = enumerate_critical_points(5, 3)
        assert len(pts) == 2 * 5 * 4

    def test_exactly_p_per_index(self):
        pts = enumerate_critical_points(3, 2)
        by_index: dict[int, int] = {}
        for c in pts:
            by_index[c.index] = by_index.get(c.index, 0) + 1
        assert by_index == {k: 3 for k in range(6)}

    def test_index_formula(self):
        assert CriticalPoint(3, 2, 0, "even").index == 4
        assert CriticalPoint(3, 2, 0, "odd").index == 5

    def test_root_index_wraps(self):
        assert CriticalPoint(3, 0, 5, "odd").root_index == 2

    def test_coordinates_are_roots(self):
        for c in enumerate_critical_points(3, 1):
            z = c.coordinate()
            target = 1 if c.parity == "odd" else -1
            assert cmath.isclose(z**3, target, abs_tol=1e-12)

    def test_validation(self):
        with pytest.raises(MalformedInput):
            CriticalPoint(3, -1, 0, "even")
        with pytest.raises(MalformedInput):
            CriticalPoint(3, 0, 0, "mixed")
        with pytest.raises(NotPrime):
            CriticalPoint(4, 0, 0, "even")
        with pytest.raises(MalformedInput):
            enumerate_critical_points(3, -1)

    def test_count_budget(self):
        # 2p(l_max + 1) points: 2 * 2 * (l_max + 1) = MAX_CRITICAL_POINTS exactly
        assert len(enumerate_critical_points(2, MAX_CRITICAL_POINTS // 4 - 1)) == MAX_CRITICAL_POINTS
        with pytest.raises(TooLarge):
            enumerate_critical_points(2, MAX_CRITICAL_POINTS // 4)
        with pytest.raises(TooLarge):
            enumerate_critical_points(251, 10**12)


class TestResolutionHomology:
    def test_small_cases(self):
        assert resolution_homology(3, 6) == (1, 0, 0, 0, 0, 1)
        assert resolution_homology(2, 4) == (1, 0, 0, 1)
        assert resolution_homology(7, 8) == (1, 0, 0, 0, 0, 0, 0, 1)

    def test_leading_one_and_interior_vanishing(self):
        for p in (2, 3, 5, 7):
            dims = resolution_homology(p, 10)
            assert dims[0] == 1
            assert not any(dims[1:-1])

    def test_minimum_length(self):
        with pytest.raises(MalformedInput):
            resolution_homology(3, 1)
        assert resolution_homology(3, 2)[0] == 1

    @pytest.mark.parametrize("p", [p for p in range(32) if is_prime(p)])
    def test_matches_the_complex(self, p):
        for length in range(2, 13):
            assert resolution_homology(p, length) == resolution_homology_by_complex(p, length), length

    def test_large_prime_long_resolution(self):
        """At p = 251 and length 40 the ranks answer in under 1 s.  The
        complex's homology in degree k depends only on the maps into and out
        of k, so the complexes of length 4 and 5 hold every kind of degree:
        the first, an interior one after 1 - sigma (odd) and after N (even),
        and a last one after each map."""
        start = time.perf_counter()
        dims = resolution_homology(251, 40)
        assert time.perf_counter() - start < 1
        four, five = resolution_homology_by_complex(251, 4), resolution_homology_by_complex(251, 5)
        assert dims == (five[0],) + tuple(five[2 - k % 2] for k in range(1, 39)) + (four[3],)
        assert dims == (1,) + (0,) * 38 + (1,)

    def test_length_budget(self):
        assert len(resolution_homology(3, MAX_RESOLUTION_LENGTH)) == MAX_RESOLUTION_LENGTH
        with pytest.raises(TooLarge):
            resolution_homology(3, MAX_RESOLUTION_LENGTH + 1)


class TestWilsonConstant:
    def test_small_primes(self):
        assert wilson_constant(2) == 1
        assert wilson_constant(3) == 2
        assert wilson_constant(5) == 4
        assert wilson_constant(7) == 6

    def test_is_always_minus_one(self):
        for p in (2, 3, 5, 7, 11, 13, 31):
            assert wilson_constant(p) == p - 1

    def test_needs_prime(self):
        with pytest.raises(NotPrime):
            wilson_constant(6)


class TestEulerConstant:
    def test_zero_copies(self):
        c = local_euler_constant(0, 5)
        assert (c.sign, c.u_exponent) == (1, 0)

    def test_single_copy(self):
        c = local_euler_constant(1, 3)
        assert (c.sign, c.u_exponent) == (2, 2)

    def test_two_copies(self):
        c = local_euler_constant(2, 5)
        assert (c.sign, c.u_exponent) == (1, 8)

    def test_sign_alternates(self):
        for n in range(6):
            c = local_euler_constant(n, 7)
            assert c.sign == (1 if n % 2 == 0 else 6)
            assert c.u_exponent == 6 * n

    def test_negative_n_rejected(self):
        with pytest.raises(MalformedInput):
            local_euler_constant(-1, 3)


class TestPrimeBudget:
    def test_every_function_refuses_primes_from_the_bound(self):
        assert MORSE_PRIME_BOUND == 256
        for call in (
            lambda p: enumerate_critical_points(p, 1),
            lambda p: resolution_homology(p, 6),
            wilson_constant,
            lambda p: local_euler_constant(1, p),
        ):
            for p in (257, 10007, 1000003):
                with pytest.raises(PrimeTooLarge, match="below 256"):
                    call(p)
            with pytest.raises(NotPrime):
                call(255)

    def test_largest_prime_below_the_bound_accepted(self):
        assert wilson_constant(251) == 250
        assert local_euler_constant(2, 251).sign == 1
        assert len(enumerate_critical_points(251, 0)) == 502
