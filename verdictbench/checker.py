"""Expected verdicts for the benchmark, derived without the code being timed.

The dimension comes from the Weyl formula (``patterns.dimension``), the
number of relation checks from ``n`` alone, and the alternate schedule's
rank from the distinct words the command itself printed.  A verdict is
``ok``, ``error`` (it raised or exited with an unexpected code) or
``wrong`` (it printed something these expectations reject).
"""

from __future__ import annotations

from gtbasis.patterns import Partition, dimension

# verify_sln_relations makes n(n-1)(n-2) + 2 n(n-1) checks plus one per
# commuting pair of E(i,j) and n-1 cartan traces: 38, 135, 364 for n = 3, 4, 5.
RELATION_CHECKS = {3: 38, 4: 135, 5: 364}

OK, ERROR, WRONG = "ok", "error", "wrong"


def command(workload: str, partition: str) -> list[str]:
    """The gtbasis CLI arguments that ask for one verdict."""
    if workload == "relations":
        return ["verify", partition]
    if workload == "monomials":
        return ["monomials", partition]
    if workload == "alternate":
        return ["monomials", partition, "--schedule", "alternate"]
    raise ValueError("unknown workload %r" % (workload,))


def _expected_verify(d: int, n: int) -> list[str]:
    return [
        "relations: PASS (%d checks), simplicity: CERTIFIED (%d/%d, rank %d)"
        % (RELATION_CHECKS[n], d, d, d)
    ]


def _check_family(lines: list[str], d: int, canonical: bool) -> str | None:
    """Reason the monomial table is rejected, or None if it is accepted."""
    table = lines[1:-2]
    if len(lines) < 3 or len(table) != d:
        return "expected %d family lines, got %d" % (d, max(len(lines) - 3, 0))
    words = [line.split("  ")[1] if "  " in line else "" for line in table]
    distinct = len(set(words))
    if canonical and distinct != d:
        return "canonical family has %d distinct words, dim %d" % (distinct, d)
    if lines[-2] != "rank: %d" % distinct:
        return "%r, expected rank %d" % (lines[-2], distinct)
    if distinct == d:
        want = "BASIS"
    else:
        want = "NOT A BASIS (rank %d < dim %d; %d duplicate word%s)" % (
            distinct, d, d - distinct, "" if d - distinct == 1 else "s",
        )
    if lines[-1] != want:
        return "%r, expected %r" % (lines[-1], want)
    return None


def check(workload: str, partition: str, exit_code: int, output: str,
          exception: BaseException | None) -> tuple[str, str]:
    """Classify one verdict as (status, detail)."""
    if exception is not None and not isinstance(exception, SystemExit):
        return ERROR, "%s: %s" % (type(exception).__name__, exception)
    part = Partition.from_string(partition)
    d = dimension(part)
    lines = output.splitlines()
    if workload == "relations":
        want = _expected_verify(d, part.n)
        reason = None if lines == want else "%r, expected %r" % (lines, want)
    else:
        reason = _check_family(lines, d, canonical=workload == "monomials")
    if reason is not None:
        return WRONG, reason
    if exit_code != 0:
        return ERROR, "exit code %d" % exit_code
    return OK, ""
