import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bdcopt.monomials import (Atom, AtomDecomposition, Monomial,
                              bdc_block_decompose, dc_atom_bounds,
                              expand_exact, merge_proportional, polarize,
                              verify_identity)


def all_monomials(max_vars, max_degree):
    for n in range(1, max_vars + 1):
        for exps in itertools.product(range(max_degree + 1), repeat=n):
            if 0 < sum(exps) <= max_degree:
                yield Monomial(exps)


class TestPolarize:
    def test_two_variable_product(self):
        dec = polarize(Monomial((1, 1)))
        assert dec.n_atoms == 2
        got = {(a.form, a.shift, a.power): a.weight for a in dec.atoms}
        assert got == {((1, 1), 0, 2): Fraction(1, 4),
                       ((1, -1), 0, 2): Fraction(-1, 4)}

    def test_single_variable_odd_degree(self):
        dec = polarize(Monomial((1,)))
        assert dec.n_atoms == 2
        got = {(a.form, a.shift, a.power): a.weight for a in dec.atoms}
        assert got == {((1,), 1, 2): Fraction(1, 4),
                       ((1,), -1, 2): Fraction(-1, 4)}

    def test_degree_six_pair(self):
        dec = polarize(Monomial((2, 4)))
        assert dec.n_atoms == 7
        forms = {a.form for a in dec.atoms}
        assert forms == {(1, 2), (1, 1), (1, 0), (1, -1), (1, -2), (0, 2), (0, 1)}
        ok, err = verify_identity(dec, Monomial((2, 4)), trials=100, tol=1e-6)
        assert ok, err
        # proportional merging collapses (0, 2) into (0, 1)
        assert merge_proportional(dec).n_atoms == 6

    def test_every_atom_power_even(self):
        for m in (Monomial((3,)), Monomial((1, 2)), Monomial((2, 2, 1))):
            for atom in polarize(m).atoms:
                assert atom.power % 2 == 0

    def test_atoms_are_convex(self):
        # midpoint spot check of |weight|-stripped atom functions
        rng = np.random.default_rng(17)
        for m in (Monomial((1, 2)), Monomial((2, 4)), Monomial((1, 1, 3))):
            for atom in polarize(m).atoms:
                u = np.array(atom.form, dtype=float)
                for _ in range(20):
                    a = rng.uniform(-2, 2, size=u.size)
                    b = rng.uniform(-2, 2, size=u.size)
                    phi = lambda t: (u @ t + atom.shift) ** atom.power
                    assert phi(0.5 * (a + b)) <= 0.5 * phi(a) + 0.5 * phi(b) + 1e-9

    def test_inert_variables_pass_through(self):
        m = Monomial((0, 2, 0))
        dec = polarize(m)
        assert dec.n_atoms == 1
        assert expand_exact(dec) == {(0, 2, 0): Fraction(1)}

    def test_exact_expansion_matches_monomial(self):
        # exact-rational oracle: expand every atom and compare coefficients
        rng = np.random.default_rng(0)
        pool = list(all_monomials(4, 8))
        for idx in rng.choice(len(pool), size=30, replace=False):
            m = pool[idx]
            terms = expand_exact(polarize(m))
            assert terms == {m.exponents: Fraction(1)}, m

    def test_atom_counts_against_grid(self):
        for m in all_monomials(3, 6):
            dec = polarize(m)
            full = 1
            for b in m.exponents:
                full *= b + 1
            if m.degree % 2 == 0:
                assert dec.n_atoms <= full // 2
            else:
                assert dec.n_atoms == full


class TestAtomBounds:
    @pytest.mark.parametrize("exps,lo,hi", [
        ((1, 1, 2, 4), 30, 30),
        ((2, 4), 5, 7),
        ((1, 1), 2, 2),
        ((4,), 1, 2),
        ((3,), 4, 4),
    ])
    def test_examples(self, exps, lo, hi):
        assert dc_atom_bounds(Monomial(exps)) == (lo, hi)

    def test_odd_degree_is_exact(self):
        for m in all_monomials(3, 5):
            lo, hi = dc_atom_bounds(m)
            if m.degree % 2 == 1:
                assert lo == hi

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(0, 4), min_size=2, max_size=5).filter(lambda b: sum(b) > 0),
           st.integers(0, 10 ** 6))
    def test_permutation_invariant(self, exps, seed):
        rng = np.random.default_rng(seed)
        shuffled = list(exps)
        rng.shuffle(shuffled)
        assert dc_atom_bounds(Monomial(tuple(exps))) == dc_atom_bounds(Monomial(tuple(shuffled)))

    def test_inert_variables_ignored(self):
        assert dc_atom_bounds(Monomial((0, 1, 1))) == dc_atom_bounds(Monomial((1, 1)))


class TestBlockDecompose:
    def test_pair_grouping_count(self):
        m = Monomial((1, 1, 2, 4))
        dec = bdc_block_decompose(m, [(0, 1), (2, 3)])
        assert dec.atom_counts == (2, 7)
        assert dec.total_atoms == 9
        ok, err = verify_identity(dec, m, trials=200, tol=1e-6)
        assert ok, err

    def test_trivial_grouping_counts_convex_factors_once(self):
        m = Monomial((1, 1, 2, 4))
        dec = bdc_block_decompose(m, [(0,), (1,), (2,), (3,)])
        assert dec.total_atoms == 4
        assert verify_identity(dec, m)[0]
        assert expand_exact(dec) == {m.exponents: Fraction(1)}

    def test_single_group_equals_polarize(self):
        m = Monomial((1, 2))
        whole = bdc_block_decompose(m, [(0, 1)])
        direct = polarize(m)
        assert whole.total_atoms == direct.n_atoms
        pts = np.random.default_rng(3).uniform(-2, 2, size=(50, 2))
        np.testing.assert_allclose(whole.evaluate(pts), direct.evaluate(pts), rtol=1e-12)

    def test_block_product_is_blockwise_dc(self):
        # fixing one group, the other group's factor is scaled by a constant
        m = Monomial((1, 1, 2, 4))
        dec = bdc_block_decompose(m, [(0, 1), (2, 3)])
        assert expand_exact(dec) == {m.exponents: Fraction(1)}

    def test_inert_group_is_the_constant_factor_one(self):
        # the group of x2 has exponent 0: it adds no atom and a factor of 1
        m = Monomial((2, 0, 1))
        dec = bdc_block_decompose(m, [[0], [1], [2]])
        assert dec.atom_counts == (1, 1)
        t = np.random.default_rng(5).uniform(-2, 2, size=(50, 3))
        np.testing.assert_allclose(dec.evaluate(t), t[:, 0] ** 2 * t[:, 2],
                                   rtol=1e-12)
        assert expand_exact(dec) == {m.exponents: Fraction(1)}

    def test_rejects_bad_grouping(self):
        m = Monomial((1, 1, 2))
        with pytest.raises(ValueError):
            bdc_block_decompose(m, [(0, 1), (1, 2)])  # overlap
        with pytest.raises(ValueError):
            bdc_block_decompose(m, [(0, 1)])  # misses an active variable


class TestVerifyIdentity:
    def test_explicit_two_atom_identity_passes(self):
        assert verify_identity(polarize(Monomial((1, 1))), Monomial((1, 1)))[0]

    def test_corrupted_weight_fails(self):
        dec = polarize(Monomial((2, 4)))
        bad = AtomDecomposition(
            atoms=[Atom(weight=a.weight * 2 if k == 0 else a.weight,
                        form=a.form, shift=a.shift, power=a.power)
                   for k, a in enumerate(dec.atoms)],
            target=dec.target)
        ok, err = verify_identity(bad, Monomial((2, 4)), trials=50, tol=1e-6)
        assert not ok and err > 1e-3

    def test_trials_must_be_positive(self):
        with pytest.raises(ValueError):
            verify_identity(polarize(Monomial((1,))), Monomial((1,)), trials=0)


@pytest.mark.parametrize("exponents, message", [
    ((2, -1), r"exponents must be nonnegative, got \(2, -1\)"),
    ((0, 0), r"at least one positive exponent, got \(0, 0\)"),
], ids=["negative", "all_zero"])
def test_monomial_names_the_exponents_it_rejects(exponents, message):
    with pytest.raises(ValueError, match=message):
        Monomial(exponents)


def test_atom_rejects_odd_power_above_one():
    with pytest.raises(ValueError):
        Atom(weight=Fraction(1), form=(1,), shift=0, power=3)
    Atom(weight=Fraction(1), form=(1,), shift=0, power=1)  # linear atom allowed


def test_atom_rejects_zero_weight():
    with pytest.raises(ValueError):
        Atom(weight=Fraction(0), form=(1,), shift=0, power=2)
