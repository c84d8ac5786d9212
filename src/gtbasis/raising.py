"""Raising words: send any pattern (or sum) to the highest pattern.

For a pattern ξ the sweep below produces exponents a(ξ) such that the
interleaved word E^{a(ξ)} maps ξ to a nonzero multiple of the highest
pattern β.  Words are stored in written order — the leftmost factor acts
last — so the displayed exponents read like the algebra, while the sweep
itself produces them in application order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .operators import (
    GTModule,
    GeneratorSpec,
    InternalConsistencyError,
    apply_generator,
)
from .patterns import GTPattern, Partition, _int_entries, highest_pattern
from .scalars import RadicalScalar


class CertificationError(RuntimeError):
    """A raising word failed to land exactly on the highest pattern."""


class UnsupportedScheduleError(ValueError):
    """Asked for an unknown sweep schedule."""


@dataclass(frozen=True, slots=True, init=False, repr=False)
class GeneratorWord:
    """A product of raising/lowering generator powers, in written order."""

    factors: tuple[tuple[GeneratorSpec, int], ...]

    def __init__(self, factors):
        factors = tuple((spec, exp) for spec, exp in factors)
        _int_entries(exp for _, exp in factors)
        for spec, exp in factors:
            if spec.kind not in ("raise", "lower"):
                raise ValueError("words contain only raise/lower factors")
            if exp < 0:
                raise ValueError("negative exponent %d" % exp)
            if spec.index < 1:
                raise ValueError("row index %d below 1" % spec.index)
        object.__setattr__(self, "factors", factors)

    def exponents_written(self) -> list[int]:
        return [exp for _, exp in self.factors]

    def mirror(self) -> "GeneratorWord":
        """Reverse the factors and swap raise <-> lower, keeping exponents."""
        return GeneratorWord((s.mirror(), exp) for s, exp in reversed(self.factors))

    def to_text(self) -> str:
        return word_format([s for s, _ in self.factors]) % tuple(self.exponents_written())

    def to_json(self) -> list[dict]:
        return [{"gen": spec.LETTERS[spec.kind], "row": spec.index, "exp": exp}
                for spec, exp in self.factors]

    def __repr__(self):
        return "GeneratorWord(%r)" % (self.to_text(),)


def word_format(specs) -> str:
    """Word text with these factors, to fill with their exponents.

    "E12^%d E23^%d ..." in factor order, or "(empty)" for no factors.
    """
    return " ".join([spec.label + "^%d" for spec in specs]) or "(empty)"


def canonical_row_order(n: int) -> list[int]:
    """Application-order rows: 1..n-1, then 1..n-2, ..., finally 1."""
    order = []
    for sweep in range(n - 1, 0, -1):
        order.extend(range(1, sweep + 1))
    return order


def alternate_row_order(n: int) -> list[int]:
    """The canonical order under r -> n - r: each pass starts on the top row."""
    return [n - r for r in canonical_row_order(n)]


# schedule name -> its application row order for a given n
SCHEDULES = {"canonical": canonical_row_order, "alternate": alternate_row_order}


def resolve_schedule(n: int, name: str) -> list[int]:
    """The application row order of the named schedule at this n."""
    if isinstance(name, str) and name in SCHEDULES:
        return SCHEDULES[name](n)
    raise UnsupportedScheduleError("unknown schedule %r" % (name,))


def sweep_exponents(xi: GTPattern, row_order: list[int]) -> list[int]:
    """Exponents (application order) of maximal raises along row_order.

    Each step raises every entry of the designated row to its ceiling
    min(row_above[j], row_below[j-1]); the exponent is the content gained.
    """
    rows = [list(row) for row in xi.rows]
    exps = []
    for r in row_order:
        if not 1 <= r < len(rows):
            raise ValueError("row %d out of range for n=%d" % (r, len(rows)))
        above, row = rows[r], rows[r - 1]
        gained = above[0] - row[0]
        row[0] = above[0]
        if r >= 2:
            for j, below in enumerate(rows[r - 2], start=1):
                ceiling = above[j] if above[j] < below else below
                gained += ceiling - row[j]
                row[j] = ceiling
        exps.append(gained)
    return exps


def raising_word(xi: GTPattern, schedule="canonical") -> GeneratorWord:
    """The raising word for ξ along the named schedule."""
    order = resolve_schedule(xi.n, schedule)
    exps = sweep_exponents(xi, order)  # application order; words are written
    return GeneratorWord(reversed([(GeneratorSpec("raise", r), e)
                                   for r, e in zip(order, exps)]))


def apply_word(
    word: GeneratorWord, v: dict[GTPattern, RadicalScalar]
) -> dict[GTPattern, RadicalScalar]:
    """Apply the word rightmost factor first, powers as repeated action."""
    for spec, exp in reversed(word.factors):
        for _ in range(exp):
            if not v:
                return v
            v = apply_generator(spec, v)
    return v


@dataclass
class RaiseOutcome:
    """Result of raising a sum by its minimal pattern's word."""

    ok: bool
    lambda_beta: RadicalScalar
    word: GeneratorWord
    minimal: GTPattern
    residual: dict[GTPattern, RadicalScalar]

    def __bool__(self):
        return self.ok

    def certified_lambda(self) -> RadicalScalar:
        """λ_β; CertificationError unless the image is a nonzero multiple of β alone."""
        xi = self.minimal.to_string()
        if self.residual:
            raise CertificationError("raising %s leaves support on %s"
                                     % (xi, sorted(p.to_string() for p in self.residual)))
        if self.lambda_beta.is_zero():
            raise CertificationError("raising %s annihilated it" % (xi,))
        return self.lambda_beta


def raise_sum_to_highest(v: dict[GTPattern, RadicalScalar]) -> RaiseOutcome:
    """Raise a nonzero sum {pattern: nonzero value} by its minimal pattern's word.

    Returns an outcome rather than asserting: if the image is not a nonzero
    multiple of β, the leftover support is reported in ``residual``.
    """
    if not v:
        raise ValueError("cannot raise the zero vector")
    minimal = min(v, key=GTPattern.key)
    beta = highest_pattern(minimal.partition)
    word = raising_word(minimal)
    image = apply_word(word, v)
    lam = image.get(beta, RadicalScalar.zero())
    residual = {p: c for p, c in image.items() if p != beta}
    ok = not residual and not lam.is_zero()
    return RaiseOutcome(ok, lam, word, minimal, residual)


def verify_raise(xi: GTPattern) -> RadicalScalar:
    """Apply ξ's canonical word to ξ; return the coefficient on β.

    Raises CertificationError unless the image is a nonzero multiple of the
    highest pattern alone.
    """
    return raise_sum_to_highest({xi: RadicalScalar.one()}).certified_lambda()


@dataclass
class SimplicityReport:
    """Computational certificate that the module is simple.

    Every pattern raises to a nonzero multiple of β (every nonzero submodule
    contains β), and the canonical monomial family has full rank (β
    generates).  Together: no proper nonzero submodule.
    """

    partition: Partition
    dim: int
    raised: int
    raise_failures: list[tuple[GTPattern, str]]
    rank: int

    @property
    def certified(self) -> bool:
        return not self.raise_failures and self.rank == self.dim

    def summary(self) -> str:
        status = "CERTIFIED" if self.certified else "NOT CERTIFIED"
        return "%s (%d/%d, rank %d)" % (status, self.raised, self.dim, self.rank)


def _check_ladder(module: GTModule):
    """Raise InternalConsistencyError on ``module.ladder_fault``, if any.

    The ladder makes the basis-matrix diagonal equal λ_β.  With F_k = E_kᵀ,
    the mirrored monomial of ξ is the transpose of ξ's raising word W, so
    the diagonal entry (ξ, ξ) of the canonical basis matrix is ⟨β, Wξ⟩.
    Every E_k moving the weight by α_k makes Wξ a single weight vector; β
    alone having its weight then leaves Wξ no support besides β when that
    entry is nonzero.
    """
    fault = module.ladder_fault
    if fault is not None:
        raise InternalConsistencyError(fault)


def simplicity_certificate(module: GTModule) -> SimplicityReport:
    """Certify simplicity from the support of the canonical basis matrix.

    Its diagonal gives λ_β for every pattern (see ``_check_ladder``), and its
    rank decides whether the monomial family spans.  When
    ``module.lowering_positive`` holds, every F_k entry is a positive real
    c·√d, so each entry of F_{k_m}⋯F_{k_1}β is a sum of positive path
    products: sums of positive reals cannot vanish, so the support of a
    column is exactly the set of patterns its word reaches
    (``monomials.reached_sets`` of the canonical family, no word built),
    found with sets and no arithmetic.  If
    column c reaches c and no pattern of lower index, the matrix is
    lower-triangular with a nonzero diagonal: every λ_β is nonzero and the
    rank is the dimension.  A support cannot see a flipped sign, which can
    make two paths cancel, so the positivity condition is required, not an
    optimization.  In any other case the exact basis matrix of the same
    family and its rank decide, so each pattern's sweep exponents are
    computed once either way.
    """
    from . import monomials  # deferred: monomials imports this module

    _check_ladder(module)
    partition, dim = module.partition, len(module.basis)
    family = monomials.monomial_family(module)
    if module.lowering_positive and monomials.lower_triangular(
            monomials.reached_sets(family)):
        return SimplicityReport(partition, dim, dim, [], dim)
    mat = monomials.basis_matrix(family)
    failures = [
        (pat, "raising %s annihilated it" % pat.to_string())
        for c, pat in enumerate(module.basis)
        if c not in mat.cols[c]
    ]
    return SimplicityReport(
        partition, dim, dim - len(failures), failures, monomials.rank(mat)
    )
