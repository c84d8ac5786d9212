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
    ModuleVector,
    _act,
    off_weight,
)
from .patterns import GTPattern, Partition, highest_pattern
from .scalars import RadicalScalar


class CertificationError(RuntimeError):
    """A raising word failed to land exactly on the highest pattern."""


class GeneratorWord:
    """A product of raising/lowering generator powers, in written order."""

    __slots__ = ("factors",)

    def __init__(self, factors):
        factors = tuple((spec, int(exp)) for spec, exp in factors)
        for spec, exp in factors:
            if spec.kind not in ("raise", "lower"):
                raise ValueError("words contain only raise/lower factors")
            if exp < 0:
                raise ValueError("negative exponent %d" % exp)
            if spec.index < 1:
                raise ValueError("row index %d below 1" % spec.index)
        object.__setattr__(self, "factors", factors)

    def __setattr__(self, name, value):
        raise AttributeError("GeneratorWord is immutable")

    @property
    def total_exponent(self) -> int:
        return sum(exp for _, exp in self.factors)

    def exponents_written(self) -> list[int]:
        return [exp for _, exp in self.factors]

    def mirror(self) -> "GeneratorWord":
        """Reverse the factors and swap raise <-> lower, keeping exponents."""
        return GeneratorWord((s.mirror(), exp) for s, exp in reversed(self.factors))

    def to_text(self) -> str:
        if not self.factors:
            return "(empty)"
        letters = GeneratorSpec.LETTERS
        return " ".join(["%s%d%d^%d" % (letters[s.kind], s.index, s.index + 1, exp)
                         for s, exp in self.factors])

    @classmethod
    def from_text(cls, text: str) -> "GeneratorWord":
        text = text.strip()
        if text in ("", "(empty)"):
            return cls([])
        factors = []
        for token in text.split():
            try:
                head, exp = token.split("^")
                spec = GeneratorSpec.from_letter(head[0], _split_row_pair(head[1:]))
                factors.append((spec, int(exp)))
            except (ValueError, IndexError):
                raise ValueError("malformed word token %r" % (token,)) from None
        return cls(factors)

    def to_json(self) -> list[dict]:
        return [{"gen": spec.LETTERS[spec.kind], "row": spec.index, "exp": exp}
                for spec, exp in self.factors]

    @classmethod
    def from_json(cls, data: list[dict]) -> "GeneratorWord":
        return cls(
            (GeneratorSpec.from_letter(item["gen"], int(item["row"])), int(item["exp"]))
            for item in data
        )

    def __eq__(self, other):
        return isinstance(other, GeneratorWord) and self.factors == other.factors

    def __hash__(self):
        return hash(self.factors)

    def __repr__(self):
        return "GeneratorWord(%r)" % (self.to_text(),)


def _split_row_pair(digits: str) -> int:
    """Parse "12" -> 1, "23" -> 2, ... (the digits are k followed by k+1)."""
    for cut in range(1, len(digits)):
        k = int(digits[:cut])
        if str(k) + str(k + 1) == digits:
            return k
    raise ValueError("not a row pair: %r" % (digits,))


def canonical_row_order(n: int) -> list[int]:
    """Application-order rows: 1..n-1, then 1..n-2, ..., finally 1."""
    order = []
    for sweep in range(n - 1, 0, -1):
        order.extend(range(1, sweep + 1))
    return order


def alternate_row_order(n: int) -> list[int]:
    """The n=3 variant that starts each pass on row 2: [2, 1, 2]."""
    if n != 3:
        raise ValueError("alternate schedule is defined for n=3 only")
    return [2, 1, 2]


def sweep_exponents(xi: GTPattern, row_order: list[int]) -> list[int]:
    """Exponents (application order) of maximal raises along row_order.

    Each step raises every entry of the designated row to its ceiling
    min(row_above[j], row_below[j-1]); the exponent is the content gained.
    """
    rows = [list(row) for row in xi.rows]
    exps = []
    for r in row_order:
        if not 1 <= r <= xi.n - 1:
            raise ValueError("row %d out of range for n=%d" % (r, xi.n))
        above = rows[r]
        below = rows[r - 2] if r >= 2 else None
        gained = 0
        for j in range(len(rows[r - 1])):
            ceiling = above[j]
            if below is not None and j >= 1:
                ceiling = min(ceiling, below[j - 1])
            gained += ceiling - rows[r - 1][j]
            rows[r - 1][j] = ceiling
        exps.append(gained)
    return exps


def raising_exponents(xi: GTPattern) -> list[int]:
    """The canonical exponent vector a(ξ), application order, length n(n-1)/2."""
    return sweep_exponents(xi, canonical_row_order(xi.n))


def raising_word(xi: GTPattern, row_order: list[int] | None = None) -> GeneratorWord:
    """The raising word for ξ (canonical schedule unless told otherwise)."""
    if row_order is None:
        row_order = canonical_row_order(xi.n)
    exps = sweep_exponents(xi, row_order)  # application order; words are written
    return GeneratorWord(reversed([(GeneratorSpec("raise", r), e)
                                   for r, e in zip(row_order, exps)]))


def apply_generator(spec: GeneratorSpec, v: ModuleVector) -> ModuleVector:
    """One application of a raising/lowering generator to a vector."""
    if spec.kind not in ("raise", "lower"):
        raise ValueError("only raise/lower generators act in words")
    step, roots = (1 if spec.kind == "raise" else -1), {}
    out: dict[GTPattern, RadicalScalar] = {}
    for pat, coeff in v.terms.items():
        for rows, c in _act(pat.rows, spec.index, step, roots):
            target = GTPattern._trusted(rows)
            prod = c * coeff
            out[target] = out[target] + prod if target in out else prod
    return ModuleVector(out)


def apply_word(word: GeneratorWord, v: ModuleVector) -> ModuleVector:
    """Apply the word rightmost factor first, powers as repeated action."""
    for spec, exp in reversed(word.factors):
        for _ in range(exp):
            if v.is_zero():
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
    residual: ModuleVector

    def __bool__(self):
        return self.ok


def raise_sum_to_highest(v: ModuleVector) -> RaiseOutcome:
    """Raise a nonzero sum using the word of its minimal support pattern.

    Returns an outcome rather than asserting: if the image is not a nonzero
    multiple of β, the leftover support is reported in ``residual``.
    """
    if v.is_zero():
        raise ValueError("cannot raise the zero vector")
    minimal = min(v.terms, key=GTPattern.key)
    beta = highest_pattern(minimal.partition)
    word = raising_word(minimal)
    image = apply_word(word, v)
    lam = image.coeff(beta)
    residual = ModuleVector({p: c for p, c in image.terms.items() if p != beta})
    ok = residual.is_zero() and not lam.is_zero()
    return RaiseOutcome(ok, lam, word, minimal, residual)


def verify_raise(xi: GTPattern) -> RadicalScalar:
    """Apply ξ's canonical word to ξ; return the coefficient on β.

    Raises CertificationError unless the image is a nonzero multiple of the
    highest pattern alone.
    """
    outcome = raise_sum_to_highest(ModuleVector.unit(xi))
    if not outcome.residual.is_zero():
        raise CertificationError(
            "raising %s leaves support on %s"
            % (xi.to_string(), sorted(p.to_string() for p in outcome.residual.terms))
        )
    if outcome.lambda_beta.is_zero():
        raise CertificationError("raising %s annihilated it" % (xi.to_string(),))
    return outcome.lambda_beta


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
    """Check, in O(nnz), what makes the basis-matrix diagonal equal λ_β.

    With F_k = E_kᵀ, the mirrored monomial of ξ is the transpose of ξ's
    raising word W, so the diagonal entry (ξ, ξ) of the canonical basis
    matrix is ⟨β, Wξ⟩.  Every E_k moving the weight by α_k makes Wξ a
    single weight vector; β alone having its weight then leaves Wξ no
    support besides β when that entry is nonzero.  Raises
    InternalConsistencyError on the first violation.
    """
    weights = module.weights
    if weights.count(weights[module.beta]) != 1:
        raise InternalConsistencyError(
            "the weight of the highest pattern is not unique to it"
        )
    for k in range(1, module.partition.n):
        e, f = module.generator("raise", k), module.generator("lower", k)
        moved = off_weight(e, weights, k, 1)
        if moved is not None:
            target, source = (module.basis[i].to_string() for i in moved)
            raise InternalConsistencyError(
                "E_%d moves %s to %s, not one up in row %d only" % (k, source, target, k)
            )
        if f != e.transpose():
            raise InternalConsistencyError("F_%d is not the transpose of E_%d" % (k, k))


def simplicity_certificate(
    partition: Partition, module: GTModule | None = None
) -> SimplicityReport:
    """Certify simplicity from the canonical basis matrix alone.

    Its diagonal gives λ_β for every pattern (see ``_check_ladder``), and its
    rank decides whether the monomial family spans.
    """
    from . import monomials  # deferred: monomials imports this module

    if module is None:
        module = GTModule(partition)
    _check_ladder(module)
    family = monomials.monomial_family(partition, "canonical", module.basis)
    mat = monomials.basis_matrix(family, module)
    failures = [
        (pat, "raising %s annihilated it" % pat.to_string())
        for c, pat in enumerate(module.basis)
        if c not in mat.cols[c]
    ]
    dim = len(module.basis)
    return SimplicityReport(
        partition, dim, dim - len(failures), failures, monomials.rank(mat)
    )
