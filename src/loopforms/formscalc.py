"""Alternating differential forms on finite-dimensional charts.

A form of degree q on a d-dimensional chart is stored through its
coefficient function ``coeff(point, idx)`` where ``idx`` is a strictly
increasing q-tuple of coordinate indices.  Coefficients may be scalars,
algebra values (n, n), or loop values (N, ...) -- everything downstream
broadcasts over the extra axes.

Conventions.  Coefficients compose by the standard wedge algebra (the
coefficient of dx^i ^ dx^j in A ^ B is A_i B_j - A_j B_i), and the 1/q!
alternation normalization lives entirely in :func:`evaluate`:

    w(X_1, ..., X_q) = (1/q!) sum_I c_I(p) det(X_j[I_k]).

Hence (dx1 ^ dx2)(e1, e2) = 1/2, a product of 1-forms evaluates as
(A ^ B)(X, Y) = (A(X) B(Y) - A(Y) B(X)) / 2, and the bracket-square of a
1-form satisfies (1/2)[A, A](X, Y) = [A(X), A(Y)] -- the combination in
which flatness of pure gauge F = dA + (1/2)[A, A] holds on the nose.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, wraps
from itertools import combinations
from math import factorial
from typing import Callable

import numpy as np

from .liecore import InvariantPolynomial, eval_invariant_polynomial, killing
from .loopspace import bracket, central, circle_integral, left_translate

# Points a form of degree <= 1 keeps: the 2 dim + 1 points of one d on charts
# up to dim 7
STENCIL_POINTS = 16


class ChartMismatch(ValueError):
    """Forms live on charts of different dimension."""


class DegreeError(ValueError):
    """Operation incompatible with a form's degree."""


@dataclass(frozen=True)
class FormField:
    """Degree-q alternating form given by coefficients on increasing tuples.

    ``coeff`` must be pure in (point, idx).  A form of degree <= 1 keeps
    the values of the last ``STENCIL_POINTS`` points it was asked, a higher
    form those of the last point (see :func:`_memo`): stencils ask the data
    forms (Higgs field, gauge map, connection) again and again, while a
    higher form is asked once per component at each stencil point.
    ``keep`` sets another number of points, for a form asked on a stencil
    of stencils.  A 0-form such as a Higgs field or a gauge map is called
    on a point: ``phi(p)``.
    """

    degree: int
    dim: int
    coeff: Callable[[np.ndarray, tuple[int, ...]], object]
    keep: int | None = None

    def __post_init__(self) -> None:
        if self.degree < 0 or self.dim < 1:
            raise DegreeError(f"bad degree {self.degree} or dim {self.dim}")
        points = self.keep or (STENCIL_POINTS if self.degree <= 1 else 1)
        object.__setattr__(self, "coeff", _memo(self.coeff, points))

    def __call__(self, p):
        if self.degree != 0:
            raise DegreeError(f"only a 0-form takes a point, not degree {self.degree}")
        return self.coeff(p, ())


def chart_function(fn, dim: int, keep: int | None = None) -> FormField:
    """A chart map p -> value as a 0-form keeping ``keep`` points (see
    :class:`FormField`); a 0-form passes through."""
    if isinstance(fn, FormField):
        if (fn.degree, fn.dim) != (0, dim):
            raise DegreeError(f"need a 0-form on {dim} dims, got degree {fn.degree} on {fn.dim}")
        return fn
    return FormField(0, dim, lambda p, idx: fn(p), keep)


def _memo(raw, points: int):
    """``raw`` with its values kept for the last ``points`` points asked.

    Points are told apart by their bytes, so one ulp or the sign of a zero
    makes a new point; past ``points`` of them the earliest is dropped.
    Arrays come back as read-only views: an in-place update by a caller
    raises rather than corrupting the memo, and an array the closure owns
    stays writeable.
    """
    kept: dict = {}  # point bytes -> {idx: value}, oldest point first

    @wraps(raw, updated=())
    def coeff(p, idx):
        key = np.asarray(p, dtype=float).tobytes()
        values = kept.get(key)
        if values is None:
            if len(kept) == points:
                del kept[next(iter(kept))]
            values = kept[key] = {}
        idx = tuple(idx)
        try:
            return values[idx]
        except KeyError:
            val = raw(p, idx)
        if isinstance(val, np.ndarray):
            val = val.view()
            val.flags.writeable = False
        values[idx] = val
        return val

    return coeff


def _require_same_chart(*forms: FormField) -> int:
    dims = {f.dim for f in forms}
    if len(dims) != 1:
        raise ChartMismatch(f"chart dimensions differ: {sorted(dims)}")
    return dims.pop()


@lru_cache(maxsize=None)
def _split_patterns(total: int, sizes: tuple[int, ...]) -> tuple:
    """Ordered splittings of range(total) into blocks of the given sizes.

    Returns tuples (sign, blocks) where blocks are position tuples and
    sign is the parity of the shuffle putting the blocks in sequence.
    """
    if sum(sizes) != total:
        raise DegreeError("block sizes do not fill the index tuple")
    if not sizes:
        return ((1, ()),)
    out = []
    head = sizes[0]
    for positions in combinations(range(total), head):
        sign = (-1) ** (sum(positions) - head * (head - 1) // 2)
        rest = [i for i in range(total) if i not in positions]
        for sub_sign, sub_blocks in _split_patterns(total - head, sizes[1:]):
            blocks = (positions,) + tuple(
                tuple(rest[p] for p in blk) for blk in sub_blocks
            )
            out.append((sign * sub_sign, blocks))
    return tuple(out)


@lru_cache(maxsize=None)
def _class_patterns(
    total: int, sizes: tuple[int, ...], classes: tuple[int, ...] | None
) -> tuple:
    """:func:`_split_patterns` with the splittings of exchangeable slots
    summed once.

    Slots with equal labels in ``classes`` hold the same form, so under a
    symmetric value map two splittings that differ only by which of those
    slots takes which block have equal values.  Such splittings share a
    key, the sorted (class, block) pairs.  Returns tuples (weight, blocks),
    one per key in order of first occurrence: the blocks of its first
    splitting and the sum of its members' signs.  Keys whose signs cancel
    (odd-degree repeats) are dropped, which is exact; if all cancel, the
    first splitting stays with weight 0, so a sum has the values' shape.
    ``classes=None`` labels every slot apart: each key is one splitting,
    so the plan is :func:`_split_patterns` term for term.
    """
    if classes is None:
        classes = range(len(sizes))
    weights: dict = {}  # key -> [weight, blocks of its first splitting]
    for sign, blocks in _split_patterns(total, sizes):
        key = tuple(sorted(zip(classes, blocks)))
        weights.setdefault(key, [0, blocks])[0] += sign
    out = tuple((w, blocks) for w, blocks in weights.values() if w)
    return out or ((0, next(iter(weights.values()))[1]),)


def _shuffle_sum(degrees: tuple[int, ...], entries, term: Callable, classes=None):
    """Signed sum of ``term(blocks)`` over the block shuffles of ``entries``.

    ``blocks`` holds one tuple of entries per degree, the entries of each
    block in their order in ``entries``; the sign is that of
    :func:`_split_patterns`.  ``classes``, a tuple of one label per degree,
    gives equal labels to slots that ``term`` treats symmetrically; each
    class of splittings is then one weighted term (:func:`_class_patterns`).
    """
    total = None
    for sign, pos_blocks in _class_patterns(len(entries), tuple(degrees), classes):
        value = term([tuple(entries[k] for k in blk) for blk in pos_blocks])
        if sign != 1:
            value = -value if sign == -1 else sign * value
        total = value if total is None else total + value
    return total


def _slot_classes(items) -> tuple[int, ...]:
    """Per item, the position of the first item that is the same object."""
    return tuple(next(i for i, x in enumerate(items) if x is item) for item in items)


def poly_wedge(forms: list[FormField], combine: Callable | InvariantPolynomial) -> FormField:
    """Wedge-combine k forms through a multilinear value map.

    ``combine`` receives one coefficient value per form and returns the
    combined value; the result's coefficient on K sums over ordered
    splittings of K into blocks matching each form's degree, with shuffle
    signs.

    ``combine`` may be an ``InvariantPolynomial`` f, evaluated by
    ``eval_invariant_polynomial``.  f is symmetric, so slots that hold the
    same form object form a class: splittings that differ only by a swap
    of blocks within a class are one term, evaluated once with the sum of
    their shuffle signs as weight.  Swapping the blocks of two slots of odd
    degree flips the sign, so odd-degree repeats give an exact zero.  Classes keep
    their first-occurrence order, so a wedge of distinct forms sums the
    same terms in the same order as without classes, bit for bit.  Pass f
    itself, never a lambda around it, or the symmetry is not seen.
    """
    dim = _require_same_chart(*forms)
    degrees = tuple(f.degree for f in forms)
    total_degree = sum(degrees)
    classes = None
    if isinstance(combine, InvariantPolynomial):
        poly, classes = combine, _slot_classes(forms)

        def combine(vals):
            return eval_invariant_polynomial(poly, vals)

    def coeff(p, idx):
        def term(blocks):
            return combine([f.coeff(p, blk) for f, blk in zip(forms, blocks)])

        return _shuffle_sum(degrees, idx, term, classes)

    return FormField(total_degree, dim, coeff)


def _scalar_times(s, X):
    s = np.asarray(s)
    X = np.asarray(X)
    if s.ndim and X.ndim > s.ndim:
        s = s.reshape(s.shape + (1,) * (X.ndim - s.ndim))
    return s * X


def wedge_bracket(A: FormField, B: FormField) -> FormField:
    """Graded bracket [A, B]; for 1-forms [A, A]_{ij} = 2 [A_i, A_j]."""
    return poly_wedge([A, B], lambda v: bracket(v[0], v[1]))


def half_bracket(A: FormField) -> FormField:
    """(1/2)[A, A] of a 1-form: one [A_i, A_j] per pair i < j.

    Bit for bit (1/2) ``wedge_bracket(A, A)``, which computes [A_i, A_j]
    and [A_j, A_i]: IEEE subtraction is exactly antisymmetric, so their
    difference is exactly twice the first.
    """
    if A.degree != 1:
        raise DegreeError(f"(1/2)[A, A] takes a 1-form, not degree {A.degree}")
    return FormField(2, A.dim, lambda p, idx: bracket(A.coeff(p, idx[:1]), A.coeff(p, idx[1:])))


def wedge_pair(A: FormField, B: FormField) -> FormField:
    """Killing-paired wedge; loop-valued inputs give loop-real coefficients."""
    return poly_wedge([A, B], lambda v: killing(v[0], v[1]))


def wedge_scalar(a: FormField, B: FormField) -> FormField:
    """Wedge of a real-valued form with a vector-valued one."""
    return poly_wedge([a, B], lambda v: _scalar_times(v[0], v[1]))


def form_sum(forms: list[FormField], weights=None) -> FormField:
    dim = _require_same_chart(*forms)
    degree = forms[0].degree
    if any(f.degree != degree for f in forms):
        raise DegreeError("cannot add forms of different degree")
    if weights is None:
        weights = [1.0] * len(forms)

    def coeff(p, idx):
        total = None
        for w, f in zip(weights, forms):
            term = w * np.asarray(f.coeff(p, idx))
            total = term if total is None else total + term
        return total

    return FormField(degree, dim, coeff)


def single_term_form(dim: int, block: tuple[int, ...], value) -> FormField:
    """Constant form value * dx^{block} (block strictly increasing)."""
    block = tuple(block)
    zero = np.zeros_like(np.asarray(value))

    def coeff(p, idx):
        return value if tuple(idx) == block else zero

    return FormField(len(block), dim, coeff)


def _minor(m) -> float:
    """Determinant of a q x q minor: products for q <= 3, LU beyond.

    Exact where a product formula is, e.g. b for [[1, a], [0, b]], and
    without a LAPACK call for the minors of forms of degree <= 3.
    """
    q = len(m)
    if q > 3:
        return float(np.linalg.det(m))
    if q == 0:
        return 1.0
    if q == 1:
        return float(m[0, 0])
    if q == 2:
        (a, b), (c, d) = m.tolist()
        return a * d - b * c
    (a, b, c), (d, e, f), (g, h, i) = m.tolist()
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _minor_sum(form: FormField, point, rows: np.ndarray):
    """sum_I det(rows[:, I]) c_I(point) over increasing q-tuples I.

    ``rows`` is q x dim.  Zero minors are skipped; if every minor is zero
    the sum is a zero of the coefficients' shape.
    """
    q = form.degree
    total = None
    for idx in combinations(range(form.dim), q):
        det = _minor(rows[:, idx])
        if det == 0.0:
            continue
        term = det * np.asarray(form.coeff(point, idx))
        total = term if total is None else total + term
    if total is None:
        total = 0.0 * np.asarray(form.coeff(point, tuple(range(q))))
    return total


def evaluate(form: FormField, point: np.ndarray, vectors) -> object:
    """Alternating evaluation with the 1/q! normalization."""
    q = form.degree
    if len(vectors) != q:
        raise DegreeError(f"degree-{q} form takes {q} vectors, got {len(vectors)}")
    if q == 0:
        return form.coeff(point, ())
    vecs = np.asarray(vectors, dtype=float)
    if vecs.shape[1] != form.dim:
        raise ChartMismatch("vector length does not match chart dimension")
    return _minor_sum(form, point, vecs) / factorial(q)


def exterior_derivative(form: FormField, step: float = 1e-4) -> FormField:
    """Exterior derivative by central differences of the coefficients.

    Values go to :func:`central` as they are, so the d of a group-valued
    0-form (an LG or LG x| S1 gauge map) is its algebra-valued difference.
    """
    if step <= 0:
        raise ValueError("step must be positive")

    def coeff(p, idx):
        total = None
        for m, j in enumerate(idx):
            e = np.zeros(form.dim)
            e[j] = step
            rest = idx[:m] + idx[m + 1 :]
            d = central(form.coeff(p + e, rest), form.coeff(p - e, rest), step)
            term = d if m % 2 == 0 else -d
            total = term if total is None else total + term
        return total

    return FormField(form.degree + 1, form.dim, coeff)


def maurer_cartan(sigma: FormField, step: float) -> FormField:
    """sigma^{-1} d sigma of a group-valued 0-form (an LG or LG x| S1 gauge
    map): its d at ``step``, left-translated to the identity."""
    dsigma = exterior_derivative(sigma, step)
    return FormField(1, sigma.dim, lambda p, idx: left_translate(sigma(p), dsigma.coeff(p, idx)))


def pullback(
    form: FormField,
    mapping: Callable[[np.ndarray], np.ndarray],
    source_dim: int,
    jacobian: Callable[[np.ndarray], np.ndarray],
) -> FormField:
    """Pullback along a chart map with its Jacobian (target_dim, source_dim)."""

    def coeff(u, idx):
        x = np.asarray(mapping(u), dtype=float)
        if x.shape[0] != form.dim:
            raise ChartMismatch("mapping target does not match form chart")
        return _minor_sum(form, x, np.asarray(jacobian(u), dtype=float)[:, idx].T)

    return FormField(form.degree, source_dim, coeff)


@dataclass(frozen=True)
class CylinderForm:
    """Form on chart x S1, split as beta + gamma ^ dtheta.

    Coefficients of both parts are loop-valued (the theta dependence
    rides on the loop axis); beta has the total degree, gamma one less.
    """

    beta: FormField
    gamma: FormField

    def __post_init__(self) -> None:
        if self.beta.dim != self.gamma.dim:
            raise ChartMismatch("beta and gamma live on different charts")
        if self.beta.degree != self.gamma.degree + 1:
            raise DegreeError("need deg beta = deg gamma + 1")


def fiber_integrate_poly_wedge(
    cyls: list[CylinderForm], combine: Callable | InvariantPolynomial
) -> FormField:
    """Fiber integral over S1 of poly_wedge on chart x S1.

    Only the terms with one dtheta factor survive the integral: slot i
    takes its gamma, the others their beta, with the sign of moving dtheta
    past the later betas.  Terms with two dtheta factors vanish.

    For an ``InvariantPolynomial`` (see :func:`poly_wedge`) the terms of
    slots holding the same cylinder object merge.  With q = deg beta, the
    terms of two such slots i < j hold gamma and beta swapped across slots
    of total degree r, which is the Koszul sign (-1)^(q(q-1) + (2q-1) r)
    = (-1)^r, or (-1)^(q(j-i-1)) when the slots between are q-forms; their
    dtheta signs differ by (-1)^(r+q).  So the two terms differ by (-1)^q:
    m copies give one term of weight m for even q, and for odd q the terms
    cancel in pairs (m = 2), or each is zero by its two odd betas (m > 2).
    """
    betas = [c.beta for c in cyls]
    classes = _slot_classes(cyls) if isinstance(combine, InvariantPolynomial) else range(len(cyls))
    weights = {}
    for i, c in enumerate(cyls):
        copies = classes.count(i)  # 0 for a later copy, merged into the first's term
        if copies:
            sign = (-1) ** sum(betas[j].degree for j in range(i + 1, len(cyls)))
            weights[i] = sign * (copies if c.beta.degree % 2 == 0 else int(copies == 1))
    # a sum whose terms all cancel keeps its first term at weight 0, for the shape
    kept = [i for i, w in weights.items() if w] or [0]
    terms = [poly_wedge(betas[:i] + [cyls[i].gamma] + betas[i + 1 :], combine) for i in kept]
    return integrate_loop_form(form_sum(terms, [float(weights[i]) for i in kept]))


def integrate_loop_form(form: FormField) -> FormField:
    """Apply the circle integral to every (loop-valued) coefficient."""

    def coeff(p, idx):
        return circle_integral(np.asarray(form.coeff(p, idx)))

    return FormField(form.degree, form.dim, coeff)


def _worst(values) -> float:
    """Largest of the residuals, 0.0 for none, NaN if any is NaN.

    The package's one worst-of rule.  ``max`` would drop a NaN, since every
    comparison with it is false, and a broken trial would pass.
    """
    return float(np.max(np.asarray(values, dtype=float), initial=0.0))


def max_coeff(form: FormField, points) -> float:
    """Max absolute coefficient over sample points and all index tuples."""
    idxs = list(combinations(range(form.dim), form.degree))
    return _worst(
        [np.max(np.abs(np.asarray(form.coeff(p, idx)))) for p in points for idx in idxs]
    )
