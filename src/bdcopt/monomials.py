"""Constructive DC decompositions of monomials into signed convex power atoms.

A monomial ``t1^b1 * ... * tn^bn`` of degree ``s`` expands exactly into a
signed combination of atoms ``alpha * (u . t + kappa)^p`` over a product grid
of indices.  For even ``s`` the atoms are pure powers of linear forms
(``kappa = 0``, ``p = s``); for odd ``s`` the monomial is lifted to degree
``s + 1`` with one homogenizing variable pinned to 1, which turns the
atoms into even powers of affine forms.  Complementary grid indices produce
the same atom twice, so the raw grid count halves; a zero center form (all
exponents even) is dropped.

Weights are kept as exact :class:`fractions.Fraction` values throughout
construction; the ``1/s!`` prefactor and the binomial products cancel
catastrophically in floating point.
"""

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial, gcd, isfinite, lcm, prod

import numpy as np

from .blocks import at_least, write_csv

__all__ = [
    "Monomial",
    "Atom",
    "AtomDecomposition",
    "BlockDecomposition",
    "polarize",
    "merge_proportional",
    "dc_atom_bounds",
    "bdc_block_decompose",
    "verify_identity",
    "check_verify_settings",
    "expand_exact",
    "atoms_to_csv",
]


@dataclass(frozen=True)
class Monomial:
    """Monomial given by its exponent vector; at least one exponent positive."""

    exponents: tuple

    def __post_init__(self):
        exps = tuple(int(b) for b in self.exponents)
        if any(b < 0 for b in exps):
            raise ValueError("exponents must be nonnegative, got %r" % (exps,))
        if not any(b > 0 for b in exps):
            raise ValueError("monomial needs at least one positive exponent, "
                             "got %r" % (exps,))
        object.__setattr__(self, "exponents", exps)

    @property
    def n_vars(self):
        return len(self.exponents)

    @property
    def degree(self):
        return sum(self.exponents)

    def evaluate(self, points):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.ones(points.shape[0])
        for j, b in enumerate(self.exponents):
            if b:
                out *= points[:, j] ** b
        return out


@dataclass(frozen=True)
class Atom:
    """One signed convex building block ``weight * (form . t + shift)^power``.

    ``power`` is even, or 1 for the linear (already convex) identity atom used
    by trivial single-variable blocks.
    """

    weight: Fraction
    form: tuple
    shift: int
    power: int

    def __post_init__(self):
        if self.weight == 0:
            raise ValueError("atom weight must be nonzero")
        if self.power < 1 or (self.power % 2 and self.power != 1):
            raise ValueError("atom power must be even or 1")


@dataclass
class AtomDecomposition:
    """Signed atom sum reproducing ``target``; positive weights form the convex
    side, negative weights the concave side."""

    atoms: list
    target: Monomial
    scale: Fraction = field(default_factory=lambda: Fraction(1))

    @property
    def n_atoms(self):
        return len(self.atoms)

    def evaluate(self, points):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.zeros(points.shape[0])
        for a in self.atoms:
            lin = points @ np.array(a.form, dtype=float) + float(a.shift)
            out += float(a.weight) * lin ** a.power
        return float(self.scale) * out


@dataclass
class BlockDecomposition:
    """Product of per-block decompositions of the sub-monomials of a grouping.

    Fixing all other blocks, each factor is a signed combination of convex
    atoms scaled by the (constant) product of the remaining factors.
    """

    parts: list  # (variable index tuple, AtomDecomposition) pairs
    target: Monomial

    @property
    def total_atoms(self):
        return sum(dec.n_atoms for _, dec in self.parts)

    @property
    def atom_counts(self):
        return tuple(dec.n_atoms for _, dec in self.parts)

    def evaluate(self, points):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.ones(points.shape[0])
        for vars_, dec in self.parts:
            out *= dec.evaluate(points[:, list(vars_)])
        return out


def _normalize(raw_form, raw_shift, power, weight):
    """Clear denominators and fix the sign of the leading coefficient.

    Scaling the form by c rescales the atom by c^power, which is absorbed
    into the weight exactly.
    """
    entries = list(raw_form) + [raw_shift]
    scale = lcm(*(e.denominator for e in entries)) if entries else 1
    ints = [int(e * scale) for e in entries]
    lead = next((v for v in ints if v != 0), 1)
    sign = -1 if lead < 0 else 1
    ints = [sign * v for v in ints]
    # atom value uses the scaled form, so divide the weight by (sign*scale)^p
    weight = weight / Fraction(sign * scale) ** power
    return tuple(ints[:-1]), ints[-1], weight


def polarize(monomial):
    """Exact decomposition of a monomial into signed convex power atoms.

    Even degree ``s``: pure powers ``(u . t)^s`` from the product grid, with
    complementary grid points merged (doubled weight) and the zero center form
    dropped.  Odd degree: the monomial is multiplied by a homogenizing
    variable, decomposed at degree ``s + 1`` in one extra variable, and that
    variable is pinned to 1, yielding affine atoms ``(u . t + kappa)^(s+1)``.

    Returns
    -------
    AtomDecomposition
        Evaluates to the monomial exactly, as a polynomial identity.
    """
    b = monomial.exponents
    s = monomial.degree
    odd = s % 2 == 1
    # grid exponents, prepending the homogenizing variable for odd degree
    grid_b = ((1,) + b) if odd else b
    power = s + 1 if odd else s
    inv_fact = Fraction(1, factorial(power))

    atoms = []
    for v in itertools.product(*(range(bi + 1) for bi in grid_b)):
        comp = tuple(bi - vi for bi, vi in zip(grid_b, v))
        # the product runs in lexicographic order, so the smaller point of a
        # complementary pair comes first; the grid center (zero form) has
        # comp == v
        if comp <= v:
            continue
        coeffs = [Fraction(bi, 2) - vi for bi, vi in zip(grid_b, v)]
        weight = 2 * inv_fact * (-1) ** sum(v) * prod(comb(bi, vi) for bi, vi in zip(grid_b, v))
        if odd:
            shift, form = coeffs[0], coeffs[1:]
        else:
            shift, form = Fraction(0), coeffs
        form, shift, weight = _normalize(form, shift, power, weight)
        atoms.append(Atom(weight=weight, form=form, shift=shift, power=power))
    return AtomDecomposition(atoms=atoms, target=monomial)


def merge_proportional(dec):
    """Merge atoms with proportional forms (same direction, shift and power).

    ``(2t)^6`` and ``t^6`` count as one atom after merging; the default
    bookkeeping keeps them separate.
    """
    groups = {}
    for a in dec.atoms:
        entries = list(a.form) + [a.shift]
        g = gcd(*(abs(v) for v in entries))
        g = g if g else 1
        key = (tuple(v // g for v in entries), a.power)
        carried = a.weight * Fraction(g) ** a.power
        groups[key] = groups.get(key, Fraction(0)) + carried
    atoms = [
        Atom(weight=w, form=key[0][:-1], shift=key[0][-1], power=key[1])
        for key, w in groups.items()
        if w != 0
    ]
    return AtomDecomposition(atoms=atoms, target=dec.target, scale=dec.scale)


def dc_atom_bounds(monomial):
    """Bounds on the minimum atom count of a whole-vector DC decomposition.

    Inert variables (zero exponent) are ignored.  With the active exponents
    sorted ascending: even total degree gives the range
    ``prod_{i>=2}(b_i+1) .. floor(prod(b_i+1) / 2)``; odd total degree is
    exact at ``prod(b_i+1)``.

    Returns
    -------
    (lower, upper) : pair of int
        ``lower == upper`` when the count is exact.
    """
    b = sorted(e for e in monomial.exponents if e > 0)
    full = prod(e + 1 for e in b)
    if monomial.degree % 2 == 1:
        return full, full
    lower = prod(e + 1 for e in b[1:])
    return lower, full // 2


def _identity_atom_decomposition(sub):
    """Single-atom decomposition for an already-convex one-variable power."""
    (j,) = [k for k, e in enumerate(sub.exponents) if e > 0]
    form = tuple(1 if k == j else 0 for k in range(sub.n_vars))
    atom = Atom(weight=Fraction(1), form=form, shift=0, power=sub.exponents[j])
    return AtomDecomposition(atoms=[atom], target=sub)


def bdc_block_decompose(monomial, grouping):
    """Decompose each variable group independently; the block product is the
    monomial.

    A group holding a single variable with exponent 1 or an even exponent is
    already convex and counts as one atom; every other group is polarized.
    The total count is the sum of the per-group counts.

    Parameters
    ----------
    monomial : Monomial
    grouping : iterable of iterables of variable indices (0-based)
        Disjoint groups covering every variable with positive exponent.
    """
    b = monomial.exponents
    groups = [tuple(sorted(int(j) for j in grp)) for grp in grouping]
    flat = [j for grp in groups for j in grp]
    if len(flat) != len(set(flat)):
        raise ValueError("groups must be disjoint")
    if any(j < 0 or j >= monomial.n_vars for j in flat):
        raise ValueError("group index out of range")
    support = {j for j, e in enumerate(b) if e > 0}
    if not support <= set(flat):
        raise ValueError("grouping must cover every variable with positive exponent")

    parts = []
    for grp in groups:
        sub_exps = tuple(b[j] for j in grp)
        if not any(sub_exps):
            continue  # inert group contributes the constant factor 1
        sub = Monomial(sub_exps)
        active = [e for e in sub_exps if e > 0]
        if len(active) == 1 and (active[0] == 1 or active[0] % 2 == 0):
            dec = _identity_atom_decomposition(sub)
        else:
            dec = polarize(sub)
        parts.append((grp, dec))
    return BlockDecomposition(parts=parts, target=monomial)


def check_verify_settings(trials, tol):
    """Reject a ``trials`` below 1 and a non-finite ``tol``; a negative
    ``tol`` is allowed and fails every verification."""
    at_least("trials", trials, 1)
    if not isfinite(tol):
        raise ValueError("tol must be finite, got %r" % (tol,))


def verify_identity(dec, monomial, trials=100, tol=1e-6):
    """Check a decomposition against the monomial at random points.

    Samples ``trials`` points uniformly from ``[-2, 2]^n`` (a generator
    seeded with 0, so a check replays) and compares the
    decomposition value with the monomial value, scaling the error by
    ``max(1, |monomial|)`` pointwise.

    Returns
    -------
    (passed, max_rel_err) : (bool, float)
    """
    check_verify_settings(trials, tol)
    rng = np.random.default_rng(0)
    pts = rng.uniform(-2.0, 2.0, size=(trials, monomial.n_vars))
    want = monomial.evaluate(pts)
    got = dec.evaluate(pts)
    err = float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))))
    return err <= tol, err


def _expand_atom(atom, n_vars):
    """Exact multinomial expansion of ``(form . t + shift)^power``."""
    support = [(j, atom.form[j]) for j in range(n_vars) if atom.form[j] != 0]
    terms = {}

    def rec(idx, remaining, coeff, exps):
        if idx == len(support):
            c = coeff * Fraction(atom.shift) ** remaining
            if c:
                key = tuple(exps)
                terms[key] = terms.get(key, Fraction(0)) + c
            return
        j, uj = support[idx]
        for k in range(remaining + 1):
            exps2 = list(exps)
            exps2[j] = k
            rec(idx + 1, remaining - k, coeff * comb(remaining, k) * Fraction(uj) ** k, exps2)

    if atom.shift == 0 and not support:
        return terms
    rec(0, atom.power, Fraction(1), [0] * n_vars)
    return terms


def expand_exact(dec):
    """Exact polynomial expansion of a decomposition as an exponent -> coefficient map.

    Works on :class:`AtomDecomposition` (single variable space) and
    :class:`BlockDecomposition` (product over disjoint variable groups);
    all arithmetic is exact rational.
    """
    if isinstance(dec, BlockDecomposition):
        n = dec.target.n_vars
        total = {(0,) * n: Fraction(1)}
        for vars_, part in dec.parts:
            part_terms = expand_exact(part)
            merged = {}
            for e1, c1 in total.items():
                for e2, c2 in part_terms.items():
                    e = list(e1)
                    for local_j, global_j in enumerate(vars_):
                        e[global_j] += e2[local_j]
                    key = tuple(e)
                    merged[key] = merged.get(key, Fraction(0)) + c1 * c2
            total = {k: v for k, v in merged.items() if v}
        return total

    n = dec.target.n_vars
    terms = {}
    for atom in dec.atoms:
        for key, c in _expand_atom(atom, n).items():
            c = c * atom.weight * dec.scale
            terms[key] = terms.get(key, Fraction(0)) + c
    return {k: v for k, v in terms.items() if v}


def atoms_to_csv(dec, path):
    """Write atoms as CSV rows: weight_num, weight_den, u_1..u_n, kappa, power."""
    n = dec.target.n_vars
    header = ["weight_num", "weight_den"] + ["u_%d" % (j + 1) for j in range(n)] + ["kappa", "power"]
    rows = []
    for a in dec.atoms:
        w = a.weight * dec.scale
        rows.append([w.numerator, w.denominator, *a.form, a.shift, a.power])
    write_csv(path, header, rows)
