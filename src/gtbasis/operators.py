"""Generator actions on patterns, matrix realizations, bracket verification.

The raising generator for row k bumps one entry of row(k) by 1; the
coefficient attached to bumping position j is a square root of a rational
built from the shifted entries l[i][r] = row(r)[i] - i.  Lowering uses the
same formula with l[j][k] replaced by l[j][k] - 1, and diagonal generators
act by the pattern's weight (``weights.weight_of``).  Invalid targets are
skipped before any formula is evaluated; for a valid target the denominator
is provably nonzero (shifted entries within a row are strictly decreasing)
and the radicand is positive.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .patterns import GTPattern, Partition, enumerate_patterns, highest_pattern
from .scalars import RadicalScalar, _make, sqrt_rational
from .weights import weight_of


class InternalConsistencyError(RuntimeError):
    """A formula produced something impossible (zero denominator, bad sign)."""


class ModuleVector:
    """Sparse linear combination of patterns with RadicalScalar coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[GTPattern, RadicalScalar] | None = None):
        clean = {}
        if terms:
            for pat, coeff in terms.items():
                if not coeff.is_zero():
                    clean[pat] = coeff
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("ModuleVector is immutable")

    @classmethod
    def unit(cls, pattern: GTPattern) -> "ModuleVector":
        return cls({pattern: RadicalScalar.one()})

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, pattern: GTPattern) -> RadicalScalar:
        return self.terms.get(pattern, RadicalScalar.zero())

    def support(self) -> set[GTPattern]:
        return set(self.terms)

    def __add__(self, other: "ModuleVector") -> "ModuleVector":
        if not isinstance(other, ModuleVector):
            return NotImplemented
        out = dict(self.terms)
        for pat, coeff in other.terms.items():
            acc = out.get(pat)
            acc = coeff if acc is None else acc + coeff
            if acc.is_zero():
                out.pop(pat, None)
            else:
                out[pat] = acc
        res = ModuleVector.__new__(ModuleVector)
        object.__setattr__(res, "terms", out)
        return res

    def scale(self, c: RadicalScalar) -> "ModuleVector":
        if c.is_zero():
            return ModuleVector()
        res = ModuleVector.__new__(ModuleVector)
        object.__setattr__(res, "terms", {p: v * c for p, v in self.terms.items()})
        return res

    def __eq__(self, other):
        return isinstance(other, ModuleVector) and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "ModuleVector(0)"
        bits = [
            "(%s)*%s" % (coeff, pat.to_string())
            for pat, coeff in sorted(self.terms.items(), key=lambda kv: kv[0].key())
        ]
        return "ModuleVector(%s)" % " + ".join(bits)


def _act(rows, k: int, step: int, roots: dict) -> list:
    """(target rows, coefficient) pairs of raising (step=1) or lowering (step=-1) row k.

    ``rows`` are a pattern's row tuples.  A target is skipped unless it passes
    the interleaving tests of ``GTPattern.replace``.  The lowering coefficient
    is the raising one with l_jk replaced by l_jk - 1, so one formula serves
    both; its radicand num/den is kept as plain ints, and ``roots`` memoizes
    each square root by (num, den).
    """
    name, verb = ("raise", "raising") if step > 0 else ("lower", "lowering")
    if not 1 <= k < len(rows):
        raise ValueError("%s row index %d out of range for n=%d" % (name, k, len(rows)))
    row, upper = rows[k - 1], rows[k]
    lower = rows[k - 2] if k > 1 else ()
    lk, lku, lkd = ([e - i for i, e in enumerate(r, start=1)] for r in (row, upper, lower))
    out = []
    for j in range(1, k + 1):
        value = row[j - 1] + step
        if (not upper[j - 1] >= value >= upper[j]
                or (j < k and value < lower[j - 1]) or (j > 1 and value > lower[j - 2])):
            continue
        ljk = lk[j - 1] if step > 0 else lk[j - 1] - 1
        num = -1
        for li in lku:
            num *= li - ljk
        for li in lkd:
            num *= li - ljk - 1
        den = 1
        for i, li in enumerate(lk, start=1):
            if i != j:
                den *= (li - ljk) * (li - ljk - 1)
        if den == 0:
            raise InternalConsistencyError(
                "zero denominator %s row %d of %s at position %d"
                % (verb, k, GTPattern._trusted(rows).to_string(), j)
            )
        if den < 0:
            num, den = -num, -den
        if num <= 0:
            raise InternalConsistencyError(
                "nonpositive radicand %s %s row %d of %s at position %d"
                % (Fraction(num, den), verb, k, GTPattern._trusted(rows).to_string(), j)
            )
        root = roots.get((num, den))
        if root is None:
            root = roots[(num, den)] = sqrt_rational(Fraction(num, den))
        target = rows[:k - 1] + (row[:j - 1] + (value,) + row[j:],) + rows[k:]
        out.append((target, root))
    return out


def act_raise(k: int, xi: GTPattern) -> ModuleVector:
    """Action of the raising generator on row k: sum over bumpable entries."""
    return ModuleVector({GTPattern._trusted(t): c for t, c in _act(xi.rows, k, 1, {})})


def act_lower(k: int, xi: GTPattern) -> ModuleVector:
    """Action of the lowering generator on row k (adjoint of act_raise)."""
    return ModuleVector({GTPattern._trusted(t): c for t, c in _act(xi.rows, k, -1, {})})


def act_diag(i: int, xi: GTPattern) -> tuple[int, GTPattern]:
    """Diagonal generator: eigenvalue κ_i of ξ's weight."""
    if not 1 <= i <= xi.n:
        raise ValueError("diag index %d out of range for n=%d" % (i, xi.n))
    return weight_of(xi).kappa[i - 1], xi


@dataclass(frozen=True)
class GeneratorSpec:
    """One of the distinguished generators: raise/lower row k, diag i, cartan i."""

    kind: str  # a key of LETTERS
    index: int

    # kind -> the letter that names it in text, JSON and matrix metadata
    LETTERS = {"raise": "E", "lower": "F", "diag": "H", "cartan": "cartan"}

    def __post_init__(self):
        if self.kind not in self.LETTERS:
            raise ValueError("unknown generator kind %r" % (self.kind,))

    @classmethod
    def from_letter(cls, letter: str, index: int) -> "GeneratorSpec":
        for kind, known in cls.LETTERS.items():
            if known == letter:
                return cls(kind, index)
        raise ValueError("unknown generator letter %r" % (letter,))

    def mirror(self) -> "GeneratorSpec":
        """The transpose: raise <-> lower; diag and cartan are their own."""
        flip = {"raise": "lower", "lower": "raise"}
        return GeneratorSpec(flip.get(self.kind, self.kind), self.index)

    def check_range(self, n: int):
        hi = n if self.kind == "diag" else n - 1
        if not 1 <= self.index <= hi:
            raise ValueError(
                "%s index %d out of range 1..%d" % (self.kind, self.index, hi)
            )


class OperatorMatrix:
    """Square matrix of RadicalScalars over the canonical pattern basis.

    Stored by column: ``cols[c]`` maps row index to value for the nonzero
    entries of column c, the image of the c-th pattern in ascending
    enumeration order.  ``entries`` is a dense view built on demand.
    ``meta`` optionally remembers (partition, generator label, index) for
    serialization.
    """

    __slots__ = ("dim", "cols", "meta")

    def __init__(self, entries, meta=None):
        rows = [tuple(row) for row in entries]
        if any(len(row) != len(rows) for row in rows):
            raise ValueError("matrix must be square")
        self._set(
            [
                {r: row[c] for r, row in enumerate(rows) if not row[c].is_zero()}
                for c in range(len(rows))
            ],
            meta,
        )

    @classmethod
    def from_columns(cls, cols, meta=None) -> "OperatorMatrix":
        """Build from {row: value} column dicts that hold only nonzero values."""
        mat = cls.__new__(cls)
        mat._set(cols, meta)
        return mat

    def _set(self, cols, meta):
        object.__setattr__(self, "dim", len(cols))
        object.__setattr__(self, "cols", tuple(cols))
        object.__setattr__(self, "meta", meta)

    def __setattr__(self, name, value):
        raise AttributeError("OperatorMatrix is immutable")

    @classmethod
    def zero(cls, dim: int) -> "OperatorMatrix":
        return cls.from_columns([{} for _ in range(dim)])

    @classmethod
    def identity(cls, dim: int) -> "OperatorMatrix":
        return cls.from_columns([{c: RadicalScalar.one()} for c in range(dim)])

    @property
    def entries(self) -> tuple[tuple[RadicalScalar, ...], ...]:
        """Dense rows, zeros included."""
        z = RadicalScalar.zero()
        rows = [[z] * self.dim for _ in range(self.dim)]
        for r, c, v in self.nonzeros():
            rows[r][c] = v
        return tuple(tuple(row) for row in rows)

    def nonzeros(self):
        """Yield (row, col, value) for every nonzero entry, column by column."""
        for c, col in enumerate(self.cols):
            for r, v in col.items():
                yield r, c, v

    def is_zero(self) -> bool:
        return not any(self.cols)

    def trace(self) -> RadicalScalar:
        acc = RadicalScalar.zero()
        for c, col in enumerate(self.cols):
            if c in col:
                acc = acc + col[c]
        return acc

    def __eq__(self, other):
        return (
            isinstance(other, OperatorMatrix)
            and self.dim == other.dim
            and self.cols == other.cols
        )

    def transpose(self) -> "OperatorMatrix":
        cols: list[dict[int, RadicalScalar]] = [{} for _ in self.cols]
        for r, c, v in self.nonzeros():
            cols[r][c] = v
        return OperatorMatrix.from_columns(cols)

    def __sub__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        _check_dims(self, other)
        return OperatorMatrix.from_columns(
            [_subtract_into(dict(a), b) for a, b in zip(self.cols, other.cols)]
        )

    def __matmul__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        _check_dims(self, other)
        return OperatorMatrix.from_columns([self.apply(b) for b in other.cols])

    def apply(self, vec: dict[int, RadicalScalar]) -> dict[int, RadicalScalar]:
        """Image of the sparse vector {index: value}: a combination of columns.

        Only nonzero values are kept in the result.
        """
        out: dict[int, RadicalScalar] = {}
        for k, bv in vec.items():
            for r, av in self.cols[k].items():
                prod = av * bv
                acc = out.get(r)
                out[r] = prod if acc is None else acc + prod
        return {r: v for r, v in out.items() if not v.is_zero()}

    def to_float_array(self):
        """Entries as a nested list of floats (numpy-friendly)."""
        rows = [[0.0] * self.dim for _ in range(self.dim)]
        for r, c, v in self.nonzeros():
            rows[r][c] = v.to_float()
        return rows

    def __repr__(self):
        label = ""
        if self.meta:
            label = " %s" % (self.meta,)
        return "OperatorMatrix(dim=%d%s)" % (self.dim, label)


def _check_dims(a: OperatorMatrix, b: OperatorMatrix):
    if a.dim != b.dim:
        raise ValueError("dimension mismatch: %d vs %d" % (a.dim, b.dim))


def _subtract_into(
    out: dict[int, RadicalScalar], col: dict[int, RadicalScalar]
) -> dict[int, RadicalScalar]:
    """Subtract the sparse column col from out in place, dropping zeros."""
    for r, v in col.items():
        acc = out.get(r)
        if acc is None:
            out[r] = -v
        else:
            acc = acc - v
            if acc.is_zero():
                del out[r]
            else:
                out[r] = acc
    return out


class GTModule:
    """One module's pattern basis and generator matrices, shared by one verdict.

    Holds the basis (enumerated once, or given in ascending order), the
    ``{rows: index}`` map, β's index, the square roots of the generator
    coefficients met so far, each basis pattern's weight (κ_1, ..., κ_n),
    read on first use, and each generator matrix, built through
    ``operator_matrix`` on first use.  Nothing is kept between verdicts.
    """

    def __init__(self, partition: Partition, basis: list[GTPattern] | None = None):
        self.partition = partition
        self.basis = enumerate_patterns(partition) if basis is None else basis
        self.index = {pat.rows: i for i, pat in enumerate(self.basis)}
        self.beta = self.index[highest_pattern(partition).rows]
        self.roots: dict[tuple[int, int], RadicalScalar] = {}
        self._mats: dict[tuple[str, int], OperatorMatrix] = {}

    @cached_property
    def weights(self) -> list[tuple[int, ...]]:
        return [weight_of(pat).kappa for pat in self.basis]

    def generator(self, kind: str, index: int) -> OperatorMatrix:
        """E_k ("raise"), F_k ("lower"), H_i ("diag") or a cartan difference."""
        mat = self._mats.get((kind, index))
        if mat is None:
            spec = GeneratorSpec(kind, index)
            mat = self._mats[(kind, index)] = operator_matrix(spec, self.partition, self)
        return mat


def operator_matrix(
    spec: GeneratorSpec, partition: Partition, module: GTModule | None = None
) -> OperatorMatrix:
    """Matrix of a generator over the ascending pattern basis of the module."""
    spec.check_range(partition.n)
    if module is None:
        module = GTModule(partition)
    index, k = module.index, spec.index
    if spec.kind in ("raise", "lower"):
        step, roots = (1 if spec.kind == "raise" else -1), module.roots
        cols = [{index[t]: v for t, v in _act(pat.rows, k, step, roots)}
                for pat in module.basis]
    else:  # H_k: κ_k; cartan k: κ_k − κ_{k+1}
        cartan = spec.kind == "cartan"
        evs = [w[k - 1] - (w[k] if cartan else 0) for w in module.weights]
        cols = [{c: _make({1: Fraction(ev)})} if ev else {} for c, ev in enumerate(evs)]
    meta = (partition, spec.LETTERS[spec.kind], spec.index)
    return OperatorMatrix.from_columns(cols, meta=meta)


def commutator(a: OperatorMatrix, b: OperatorMatrix) -> OperatorMatrix:
    """A@B - B@A, exact, built column by column: A(B e_c) - B(A e_c)."""
    _check_dims(a, b)
    return OperatorMatrix.from_columns(
        [_subtract_into(a.apply(bc), b.apply(ac)) for ac, bc in zip(a.cols, b.cols)]
    )


def off_weight(mat: OperatorMatrix, weights, k: int, step) -> tuple[int, int] | None:
    """First (row, column) entry of mat not moving the weight by step·α_k, or None.

    weights[c] = (κ_1, ..., κ_n) of basis vector c, α_k = ε_k − ε_{k+1}, and
    step is ±1 in the type of the κ_i.
    """
    for c, col in enumerate(mat.cols):
        if col:
            w = weights[c]
            want = (*w[: k - 1], w[k - 1] + step, w[k] - step, *w[k + 1 :])
            for r in col:
                if weights[r] != want:
                    return r, c
    return None


Pair = tuple[int, int]


class _Elements(dict):
    """E_{i,j} (i != j) of one module, keyed (i, j), each built on first use.

    E_{i,j} with |i-j| = 1 is a plain raising/lowering generator; otherwise
    E_{i,j} = [E_{i,k}, E_{k,j}] with k one step from i toward j.
    """

    def __init__(self, module: GTModule):
        super().__init__()
        self.module = module

    def __missing__(self, p: Pair) -> OperatorMatrix:
        i, j = p
        if abs(i - j) == 1:
            mat = self.module.generator("raise" if i < j else "lower", min(p))
        else:
            k = i + 1 if i < j else i - 1
            mat = commutator(self[(i, k)], self[(k, j)])
        self[p] = mat
        return mat


def general_element(i: int, j: int, partition: Partition) -> OperatorMatrix:
    """Matrix of E_{i,j} (i != j); non-adjacent indices via nested brackets."""
    n = partition.n
    if i == j:
        raise ValueError("diagonal element requested; use diag/cartan")
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError("indices (%d,%d) out of range for n=%d" % (i, j, n))
    return _Elements(GTModule(partition))[(i, j)]


class RelationReport:
    """Outcome of verify_sln_relations: named checks with pass/fail detail."""

    def __init__(self, partition: Partition):
        self.partition = partition
        self.checks: list[tuple[str, bool, str]] = []

    def record(self, name: str, ok: bool, detail: str = ""):
        self.checks.append((name, ok, detail))

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    @property
    def failures(self) -> list[tuple[str, str]]:
        return [(name, detail) for name, ok, detail in self.checks if not ok]

    def __repr__(self):
        return "RelationReport(%s: %d checks, %s)" % (
            self.partition,
            len(self.checks),
            "PASS" if self.passed else "FAIL",
        )


def _first_difference(a: OperatorMatrix, b: OperatorMatrix) -> str:
    """Describe the first differing entry in row-major order, or ""."""
    positions = sorted((r, c) for r, c, _ in (a - b).nonzeros())
    if not positions:
        return ""
    r, c = positions[0]
    z = RadicalScalar.zero()
    return "first difference at (%d,%d): %s vs %s" % (
        r, c, a.cols[c].get(r, z), b.cols[c].get(r, z))


def verify_sln_relations(
    partition: Partition, module: GTModule | None = None
) -> RelationReport:
    """Check the defining bracket relations on this module.

    Covers [E_{i,j}, E_{j,l}] = E_{i,l}, [E_{i,j}, E_{j,i}] = H_i - H_j,
    vanishing brackets for disjoint index pairs, zero traces of all E_{i,j},
    and zero traces of the cartan differences; every named check is
    reported.  Matrices satisfying Serre's relations on e_k = E(k,k+1),
    f_k = E(k+1,k) and H_k − H_{k+1} define an sl_n module (Humphreys,
    Introduction to Lie Algebras and Representation Theory, §18.3), in which
    each E_{i,j} of the element table is the image of a matrix unit: then
    every bracket check holds.  Otherwise each is decided by its commutator.
    """
    n = partition.n
    if module is None:
        module = GTModule(partition)
    report = RelationReport(partition)
    mats = _Elements(module)
    idx = range(1, n + 1)
    diags = {i: module.generator("diag", i) for i in idx}
    zero = OperatorMatrix.zero(len(module.basis))

    def want(p: Pair, q: Pair) -> OperatorMatrix:
        if p[1] != q[0]:
            return zero
        if p[0] != q[1]:
            return mats[(p[0], q[1])]
        return diags[p[0]] - diags[p[1]]

    ups = [(k, k + 1) for k in range(1, n)]
    downs = [(k + 1, k) for k in reversed(range(1, n))]
    serre = [(e, f) for e in ups for f in downs]
    for chain in (ups, downs):  # the table builds E(a[0],b[1]) = [a,b] for a, b adjacent
        serre += [(p, q) for x, p in enumerate(chain) for q in chain[x + 2 :]]
        serre += [(g, (a[0], b[1])) for a, b in zip(chain, chain[1:]) for g in (a, b)]
    z, one = RadicalScalar.zero(), RadicalScalar.one()
    columns = list(enumerate(zip(*(diags[i].cols for i in idx))))
    weights = [tuple(col.get(c, z) for col in cols) for c, cols in columns]
    holds = (  # every H_i diagonal, then the weight and the bracket relations
        all(col.keys() <= {c} for c, cols in columns for col in cols)
        and all(off_weight(mats[(k, k + 1)], weights, k, one) is None
                and off_weight(mats[(k + 1, k)], weights, k, -one) is None
                for k in range(1, n))
        and all(commutator(mats[p], mats[q]) == want(p, q) for p, q in serre)
    )
    pairs = [(i, j) for i in idx for j in idx if i != j]
    brackets = [(p, (p[1], l)) for p in pairs for l in idx if l not in p]
    brackets += [(p, p[::-1]) for p in pairs]
    brackets += [(p, q) for p in pairs for q in pairs if p[1] != q[0] and p[0] != q[1]]
    for p, q in brackets:
        label = ("0" if p[1] != q[0] else "H(%d)-H(%d)" % p if p[0] == q[1]
                 else "E(%d,%d)" % (p[0], q[1]))
        name = "[E(%d,%d),E(%d,%d)] = %s" % (*p, *q, label)
        if holds:
            report.record(name, True)
            continue
        got, rhs = commutator(mats[p], mats[q]), want(p, q)
        ok = got == rhs
        report.record(name, ok, "" if ok else _first_difference(got, rhs))

    for p in pairs:
        # on the Serre path an unbuilt E(i,j) is a commutator, so traceless
        tr = mats[p].trace() if p in mats or not holds else z
        report.record(
            "trace E(%d,%d) = 0" % p, tr.is_zero(), "" if tr.is_zero() else str(tr)
        )
    for i in range(1, n):
        tr = (diags[i] - diags[i + 1]).trace()
        report.record(
            "trace cartan(%d) = 0" % i, tr.is_zero(), "" if tr.is_zero() else str(tr)
        )
    return report


# -- serialization -------------------------------------------------------------


def matrix_to_json(mat: OperatorMatrix) -> dict:
    """Documented schema: partition, generator, index, dim, entries."""
    if mat.meta is None:
        raise ValueError("matrix has no generator metadata to serialize")
    partition, generator, index = mat.meta
    return {
        "partition": list(partition.parts),
        "generator": generator,
        "index": index,
        "dim": mat.dim,
        "entries": [[v.to_json() for v in row] for row in mat.entries],
    }


def matrix_from_json(data: dict) -> OperatorMatrix:
    entries = [
        [RadicalScalar.from_json(cell) for cell in row] for row in data["entries"]
    ]
    meta = (Partition(data["partition"]), data["generator"], data["index"])
    mat = OperatorMatrix(entries, meta=meta)
    if mat.dim != data["dim"]:
        raise ValueError("dim field %r does not match entries" % (data["dim"],))
    return mat


def matrix_market(mat: OperatorMatrix, threshold: float = 1e-12) -> str:
    """Coordinate-format text of the floating-point image.

    Entries with |value| below the threshold are omitted; the header comment
    records the partition and generator when available.
    """
    lines = ["%%MatrixMarket matrix coordinate real general"]
    if mat.meta is not None:
        partition, generator, index = mat.meta
        lines.append("%% partition %s generator %s index %d" % (partition, generator, index))
    coords = []
    for r, c, v in mat.nonzeros():
        x = v.to_float()
        if abs(x) >= threshold:
            coords.append((r + 1, c + 1, x))
    coords.sort()
    lines.append("%d %d %d" % (mat.dim, mat.dim, len(coords)))
    for r, c, x in coords:
        lines.append("%d %d %.16g" % (r, c, x))
    return "\n".join(lines) + "\n"
