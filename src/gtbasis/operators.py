"""Generator actions on patterns, matrix realizations, bracket verification.

The raising generator for row k bumps one entry of row(k) by 1; the
coefficient attached to bumping position j is a square root of a rational
built from the shifted entries l[i][r] = row(r)[i] - i.  Lowering uses the
same formula with l[j][k] replaced by l[j][k] - 1, and diagonal generators
act by the row-content differences.  Invalid targets are skipped before any
formula is evaluated; for a valid target the denominator is provably nonzero
(shifted entries within a row are strictly decreasing) and the radicand is
positive.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .patterns import GTPattern, Partition, enumerate_patterns, highest_pattern
from .scalars import RadicalScalar, sqrt_rational


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


def _shifted(pattern: GTPattern, r: int) -> list[int]:
    """l[i][r] = row(r)[i] - i for i = 1..r (returned 0-based)."""
    return [e - i for i, e in enumerate(pattern.row(r), start=1)]


def _act(k: int, xi: GTPattern, step: int) -> ModuleVector:
    """Raising (step=1) or lowering (step=-1) generator on row k.

    The lowering coefficient is the raising one with l_jk replaced by
    l_jk - 1, so one formula serves both.
    """
    name, verb = ("raise", "raising") if step > 0 else ("lower", "lowering")
    n = xi.n
    if not 1 <= k <= n - 1:
        raise ValueError("%s row index %d out of range for n=%d" % (name, k, n))
    out: dict[GTPattern, RadicalScalar] = {}
    lk = _shifted(xi, k)
    lku = _shifted(xi, k + 1)
    lkd = _shifted(xi, k - 1) if k > 1 else []
    for j in range(1, k + 1):
        target = xi.replace(k, j, xi.entry(k, j) + step)
        if target is None:
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
                % (verb, k, xi.to_string(), j)
            )
        radicand = Fraction(num, den)
        if radicand <= 0:
            raise InternalConsistencyError(
                "nonpositive radicand %s %s row %d of %s at position %d"
                % (radicand, verb, k, xi.to_string(), j)
            )
        out[target] = sqrt_rational(radicand)
    return ModuleVector(out)


def act_raise(k: int, xi: GTPattern) -> ModuleVector:
    """Action of the raising generator on row k: sum over bumpable entries."""
    return _act(k, xi, 1)


def act_lower(k: int, xi: GTPattern) -> ModuleVector:
    """Action of the lowering generator on row k (adjoint of act_raise)."""
    return _act(k, xi, -1)


def act_diag(i: int, xi: GTPattern) -> tuple[int, GTPattern]:
    """Diagonal generator: eigenvalue sum(row(i)) - sum(row(i-1))."""
    if not 1 <= i <= xi.n:
        raise ValueError("diag index %d out of range for n=%d" % (i, xi.n))
    return xi.content(i) - xi.content(i - 1), xi


@dataclass(frozen=True)
class GeneratorSpec:
    """One of the distinguished generators: raise/lower row k, diag i, cartan i."""

    kind: str  # "raise" | "lower" | "diag" | "cartan"
    index: int

    def __post_init__(self):
        if self.kind not in ("raise", "lower", "diag", "cartan"):
            raise ValueError("unknown generator kind %r" % (self.kind,))

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
    ``{pattern: index}`` map, β's index, and each generator matrix, built
    through ``operator_matrix`` on first use.  Nothing is kept between
    verdicts.
    """

    def __init__(self, partition: Partition, basis: list[GTPattern] | None = None):
        self.partition = partition
        self.basis = enumerate_patterns(partition) if basis is None else basis
        self.index = {pat: i for i, pat in enumerate(self.basis)}
        self.beta = self.index[highest_pattern(partition)]
        self._mats: dict[tuple[str, int], OperatorMatrix] = {}

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
    index = module.index
    cols: list[dict[int, RadicalScalar]] = []
    for pat in module.basis:
        if spec.kind in ("raise", "lower"):
            act = act_raise if spec.kind == "raise" else act_lower
            image = act(spec.index, pat)
            cols.append({index[p]: v for p, v in image.terms.items()})
        else:
            ev, _ = act_diag(spec.index, pat)
            if spec.kind == "cartan":
                ev -= act_diag(spec.index + 1, pat)[0]
            cols.append({index[pat]: RadicalScalar.from_rational(ev)} if ev else {})
    kind_label = {"raise": "E", "lower": "F", "diag": "H", "cartan": "cartan"}
    meta = (partition, kind_label[spec.kind], spec.index)
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


def _element_table(module: GTModule, lo: int, hi: int) -> dict[Pair, OperatorMatrix]:
    """E_{i,j} for every i != j in lo..hi, each built once, bottom-up.

    E_{i,j} with |i-j| = 1 is a plain raising/lowering generator; otherwise
    E_{i,j} = [E_{i,k}, E_{k,j}] with k one step from i toward j.
    """
    mats: dict[Pair, OperatorMatrix] = {}
    for k in range(lo, hi):
        mats[(k, k + 1)] = module.generator("raise", k)
        mats[(k + 1, k)] = module.generator("lower", k)
    for gap in range(2, hi - lo + 1):
        for i in range(lo, hi - gap + 1):
            for a, k, b in ((i, i + 1, i + gap), (i + gap, i + gap - 1, i)):
                mats[(a, b)] = commutator(mats[(a, k)], mats[(k, b)])
    return mats


def general_element(i: int, j: int, partition: Partition) -> OperatorMatrix:
    """Matrix of E_{i,j} (i != j); non-adjacent indices via nested brackets."""
    n = partition.n
    if i == j:
        raise ValueError("diagonal element requested; use diag/cartan")
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError("indices (%d,%d) out of range for n=%d" % (i, j, n))
    return _element_table(GTModule(partition), min(i, j), max(i, j))[(i, j)]


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
    mats = _element_table(module, 1, n)
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
    for chain in (ups, downs):  # the table built E(a[0],b[1]) = [a,b] for a, b adjacent
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

    for (i, j), mat in sorted(mats.items()):
        tr = mat.trace()
        report.record(
            "trace E(%d,%d) = 0" % (i, j), tr.is_zero(), "" if tr.is_zero() else str(tr)
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
