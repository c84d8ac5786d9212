"""Command-line front-end: every library capability behind one executable.

Exit codes form a stable contract: 0 for success (or a certified report),
1 for a verification failure, 2 for usage or parse errors, for a module
larger than ``--max-dim`` and for an ``--output`` file that cannot be written.
"""

from __future__ import annotations

import functools
import json
import sys

import click

from .monomials import family_rank, family_to_json, monomial_family
from .operators import (
    GTModule,
    GeneratorSpec,
    OperatorMatrix,
    matrix_market,
    matrix_to_json,
    verify_sln_relations,
)
from .patterns import GTPattern, Partition, PatternShapeError, dimension, enumerate_patterns
from .raising import (
    SCHEDULES,
    CertificationError,
    raise_sum_to_highest,
    simplicity_certificate,
)
from .scalars import RadicalScalar
from .weights import (
    epsilon_string,
    fundamental_coords,
    weight_decomposition,
    weight_of,
    weight_to_json,
)


class PartitionParam(click.ParamType):
    """Comma-separated weakly decreasing integers, e.g. "2,1,0"."""

    name = "partition"

    def convert(self, value, param, ctx):
        if isinstance(value, Partition):
            return value
        try:
            return Partition.from_string(value)
        except ValueError as exc:
            self.fail(str(exc), param, ctx)


PARTITION = PartitionParam()


def format_option(*choices):
    return click.option(
        "--format",
        "fmt",
        type=click.Choice(choices),
        default="table",
        show_default=True,
        help="Output format.",
    )


output_option = click.option(
    "--output",
    type=click.Path(dir_okay=False, writable=True),
    default=None,
    help="Write to FILE instead of stdout.",
)


def emit(text: str, output: str | None):
    if not text.endswith("\n"):
        text += "\n"
    if output is None:
        # an explicit stream: click's default-stream cache keeps every
        # redirected sys.stdout (and all text written to it) alive
        click.echo(text, nl=False, file=sys.stdout)
    else:
        try:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            click.echo("cannot write %s: %s" % (output, exc.strerror), err=True)
            sys.exit(2)


def max_dim_option(command):
    """Add --max-dim: refuse, before any enumeration, a module larger than it.

    A command given one ``--pattern`` enumerates nothing and is not refused.
    """

    @click.option("--max-dim", type=int, default=5000, show_default=True,
                  help="Refuse modules of larger dimension (Weyl formula).")
    @functools.wraps(command)
    def guarded(partition, max_dim, **kwargs):
        d = dimension(partition)
        if d > max_dim and kwargs.get("pattern_text") is None:
            click.echo("dimension %d exceeds --max-dim %d" % (d, max_dim), err=True)
            sys.exit(2)
        return command(partition, **kwargs)

    return guarded


def dumps(obj) -> str:
    return json.dumps(obj, indent=2, ensure_ascii=False)


def parse_pattern(text: str, partition: Partition) -> GTPattern:
    try:
        return GTPattern.from_string(text, partition)
    except (PatternShapeError, ValueError) as exc:
        raise click.UsageError(str(exc))


def generator_spec(partition: Partition, generator: str, index: int) -> GeneratorSpec:
    spec = GeneratorSpec.from_letter(generator, index)
    try:
        spec.check_range(partition.n)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    return spec


def kappa_str(kappa) -> str:
    return "(%s)" % ",".join(str(k) for k in kappa)


@click.group()
@click.pass_context
def main(ctx):
    """Gelfand-Tsetlin realizations of simple sl_n modules, exactly."""
    # λ_β and dimensions can run to thousands of digits; print them whole,
    # and give an in-process caller its own limit back when the command ends
    if hasattr(sys, "set_int_max_str_digits"):
        ctx.call_on_close(functools.partial(sys.set_int_max_str_digits,
                                            sys.get_int_max_str_digits()))
        sys.set_int_max_str_digits(0)


@main.command()
@click.argument("partition", type=PARTITION)
def dim(partition):
    """Print the dimension of the module for PARTITION."""
    emit(str(dimension(partition)), None)


@main.command()
@click.argument("partition", type=PARTITION)
@format_option("table", "json")
@output_option
@max_dim_option
def patterns(partition, fmt, output):
    """List every pattern for PARTITION with its weight."""
    pats = enumerate_patterns(partition)
    if fmt == "json":
        doc = [
            {"pattern": p.to_string(), **weight_to_json(weight_of(p))} for p in pats
        ]
        emit(dumps(doc), output)
        return
    lines = []
    for p in pats:
        w = weight_of(p)
        lines.append(
            "%s  kappa=%s  %s" % (p.to_string(), kappa_str(w), epsilon_string(w))
        )
    emit("\n".join(lines), output)


def matrix_table(mat: OperatorMatrix, module: GTModule) -> str:
    _, label, index = mat.meta
    lines = [
        "# %s index %d on %s, dim %d" % (label, index, module.partition, mat.dim),
        "# basis (rows below top): %s"
        % " | ".join(p.compact_str() for p in module.basis),
    ]
    texts = [{r: str(v) for r, v in col.items()} for col in mat.cols]
    zeros = ["0".rjust(max(map(len, ["0", *col.values()]))) for col in texts]
    for r, row in enumerate(mat.transpose().cols):
        cells = zeros.copy()
        for c in row:
            cells[c] = texts[c][r].rjust(len(zeros[c]))
        lines.append("  ".join(cells))
    return "\n".join(lines)


@main.command()
@click.argument("partition", type=PARTITION)
@click.argument("generator", type=click.Choice(list(GeneratorSpec.LETTERS.values())))
@click.argument("index", type=int)
@format_option("table", "json", "matrixmarket")
@output_option
@max_dim_option
def matrix(partition, generator, index, fmt, output):
    """Print the matrix of GENERATOR (E, F, H, or cartan) at INDEX."""
    spec = generator_spec(partition, generator, index)
    module = GTModule(partition)
    mat = module.generator(spec.kind, spec.index)
    if fmt == "json":
        emit(dumps(matrix_to_json(mat)), output)
    elif fmt == "matrixmarket":
        emit(matrix_market(mat), output)
    else:
        emit(matrix_table(mat, module), output)


@main.command()
@click.argument("partition", type=PARTITION)
@format_option("table", "json")
@output_option
@max_dim_option
def verify(partition, fmt, output):
    """Check every bracket relation and certify simplicity."""
    module = GTModule(partition)
    report = verify_sln_relations(module)
    cert = simplicity_certificate(module)
    if fmt == "json":
        doc = {
            "partition": list(partition.parts),
            "relations": {
                "passed": report.passed,
                "checks": len(report.checks),
                "failures": [
                    {"check": name, "detail": detail}
                    for name, detail in report.failures
                ],
            },
            "simplicity": {
                "certified": cert.certified,
                "raised": cert.raised,
                "dim": cert.dim,
                "rank": cert.rank,
                "failures": [
                    {"pattern": pat.to_string(), "detail": detail}
                    for pat, detail in cert.raise_failures
                ],
            },
        }
        emit(dumps(doc), output)
    else:
        if report.passed:
            relations = "PASS (%d checks)" % len(report.checks)
        else:
            relations = "FAIL (%d of %d checks)" % (
                len(report.failures), len(report.checks),
            )
        lines = ["relations: %s, simplicity: %s" % (relations, cert.summary())]
        for name, detail in report.failures:
            lines.append("  relation %s: %s" % (name, detail))
        for pat, detail in cert.raise_failures:
            lines.append("  raise %s: %s" % (pat.to_string(), detail))
        emit("\n".join(lines), output)
    if not (report.passed and cert.certified):
        sys.exit(1)


@main.command()
@click.argument("partition", type=PARTITION)
@format_option("table", "json")
@output_option
@click.option("--pattern", "pattern_text", default=None,
              help="Show the weight of one pattern instead.")
@max_dim_option
def weights(partition, fmt, output, pattern_text):
    """Weight decomposition of the module for PARTITION."""
    if pattern_text is not None:
        xi = parse_pattern(pattern_text, partition)
        w = weight_of(xi)
        if fmt == "json":
            emit(dumps({"pattern": xi.to_string(), **weight_to_json(w)}), output)
        else:
            emit("%s  kappa=%s  fundamental=%s  %s" % (
                xi.to_string(), kappa_str(w), kappa_str(fundamental_coords(w)),
                epsilon_string(w)), output)
        return
    decomposition = weight_decomposition(partition)
    if fmt == "json":
        doc = [
            {
                **weight_to_json(w),
                "multiplicity": len(pats),
                "patterns": [p.to_string() for p in pats],
            }
            for w, pats in decomposition.items()
        ]
        emit(dumps(doc), output)
        return
    lines = [
        "# %d weights, dim %d"
        % (len(decomposition), sum(len(p) for p in decomposition.values()))
    ]
    for w, pats in decomposition.items():
        lines.append(
            "kappa=%s  %s  multiplicity %d: %s"
            % (
                kappa_str(w),
                epsilon_string(w),
                len(pats),
                " | ".join(p.compact_str() for p in pats),
            )
        )
    emit("\n".join(lines), output)


@main.command(name="raise")
@click.argument("partition", type=PARTITION)
@click.option("--pattern", "pattern_text", required=True,
              help='Pattern in top-down text form, e.g. "2,1,0;2,0;0".')
@format_option("table", "json")
@output_option
def raise_cmd(partition, pattern_text, fmt, output):
    """Raise a pattern to the highest pattern and report λ_β."""
    xi = parse_pattern(pattern_text, partition)
    outcome = raise_sum_to_highest({xi: RadicalScalar.one()})
    try:
        lam = outcome.certified_lambda()
    except CertificationError as exc:
        click.echo("raise %s: FAIL (%s)" % (xi.to_string(), exc), file=sys.stderr)
        sys.exit(1)
    word = outcome.word
    exponents = "(%s)" % ",".join(str(e) for e in word.exponents_written())
    if fmt == "json":
        doc = {
            "pattern": xi.to_string(),
            "word": word.to_json(),
            "exponents": word.exponents_written(),
            "lambda": lam.to_json(),
        }
        emit(dumps(doc), output)
    else:
        lines = [
            "pattern: %s" % xi.to_string(),
            "word: %s" % word.to_text(),
            "exponents: %s" % exponents,
            "lambda: %s" % lam,
        ]
        emit("\n".join(lines), output)


@main.command()
@click.argument("partition", type=PARTITION)
@click.option("--schedule", type=click.Choice(list(SCHEDULES)),
              default="canonical", show_default=True,
              help="Sweep schedule generating the words.")
@click.option("--strict", is_flag=True,
              help="Exit 1 when the family is not a basis.")
@format_option("table", "json")
@output_option
@max_dim_option
def monomials(partition, schedule, strict, fmt, output):
    """Build the lowering-monomial family for PARTITION and rank it."""
    family = monomial_family(GTModule(partition), schedule)
    r = family_rank(family)
    d = len(family.patterns)
    is_basis = r == d
    if fmt == "json":
        emit(dumps(family_to_json(family, r)), output)
    else:
        lines = ["# monomial family for %s, schedule %s" % (partition, schedule)]
        for pat, word, dup in zip(family.patterns, family.word_texts(), family.duplicate_of):
            line = "%s  %s" % (pat.to_string(), word)
            if dup is not None:
                line += "  [duplicate of %s]" % family.patterns[dup].to_string()
            lines.append(line)
        lines.append("rank: %d" % r)
        if is_basis:
            lines.append("BASIS")
        else:
            dups = len(family.duplicates)
            detail = "rank %d < dim %d" % (r, d)
            if dups:
                detail += "; %d duplicate word%s" % (dups, "" if dups == 1 else "s")
            lines.append("NOT A BASIS (%s)" % detail)
        emit("\n".join(lines), output)
    if strict and not is_basis:
        sys.exit(1)


@main.command()
@click.argument("partition", type=PARTITION)
@click.argument("generator", type=click.Choice(list(GeneratorSpec.LETTERS.values())))
@click.argument("index", type=int)
@output_option
@max_dim_option
def export(partition, generator, index, output):
    """Write a generator matrix in Matrix Market coordinate format."""
    spec = generator_spec(partition, generator, index)
    emit(matrix_market(GTModule(partition).generator(spec.kind, spec.index)), output)


if __name__ == "__main__":
    main()
