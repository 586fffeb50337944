"""Cutting-planes refutations derived from resolution refutations.

Each resolution step becomes the Cook-Coullard-Turan sequence: add the two
premise inequalities (the pivot cancels), add a boolean axiom for every
literal found in only one premise so that all coefficients reach +-2, then
divide by 2, which rounds the constant up to the resolvent's own encoding.
Clause axioms enter as hypotheses the first time they are used. Only lines
that the empty clause depends on are translated.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CpLine:
    coeffs: tuple[int, ...]
    constant: int
    justification: str  # the text after ';' in the proof format


def clause_row(n: int, literals) -> tuple[tuple[int, ...], int]:
    """The hypothesis encoding: +1 for x_v, -1 for not x_v, 1 - #negated."""
    coeffs = [0] * n
    negated = 0
    for var, neg in literals:
        coeffs[var - 1] = -1 if neg else 1
        negated += neg
    return tuple(coeffs), 1 - negated


def _needed(lines) -> list[int]:
    """Indices the last line depends on, in increasing order."""
    seen = set()
    stack = [len(lines) - 1]
    while stack:
        i = stack.pop()
        if i in seen:
            continue
        seen.add(i)
        if lines[i].premises is not None:
            stack.extend(lines[i].premises)
    return sorted(seen)


def resolution_to_cp(refutation, n: int) -> list[CpLine]:
    """Translate a ``ResolutionRefutation`` into cutting-planes lines."""
    lines = refutation.lines
    out: list[CpLine] = []
    where: dict[int, int] = {}  # resolution line index -> 1-based cp index

    def emit(coeffs, constant, just) -> int:
        out.append(CpLine(tuple(coeffs), constant, just))
        return len(out)

    def lits_of(i: int) -> set[tuple[int, bool]]:
        return {(lit.var, lit.negated) for lit in lines[i].literals}

    for i in _needed(lines):
        line = lines[i]
        if line.premises is None:
            coeffs, constant = clause_row(n, lits_of(i))
            where[i] = emit(coeffs, constant, f"hyp {line.axiom}")
            continue
        left, right = (lits_of(j) for j in line.premises)
        pivot = line.pivot
        rest = (left | right) - {(pivot, False), (pivot, True)}
        if any((v, not neg) in rest for v, neg in rest):
            raise ValueError(f"resolution line {i} would be a tautology")
        a, b = (out[where[j] - 1] for j in line.premises)
        cur = emit(
            [x + y for x, y in zip(a.coeffs, b.coeffs)],
            a.constant + b.constant,
            f"add {where[line.premises[0]]} {where[line.premises[1]]}",
        )
        for var, neg in sorted(rest - (left & right)):
            axiom = [0] * n
            axiom[var - 1] = -1 if neg else 1
            ax = emit(axiom, -1 if neg else 0, f"bool {var} {'hi' if neg else 'lo'}")
            prev = out[cur - 1]
            cur = emit(
                [x + y for x, y in zip(prev.coeffs, axiom)],
                prev.constant + out[ax - 1].constant,
                f"add {cur} {ax}",
            )
        prev = out[cur - 1]
        halved = CpLine(
            tuple(c // 2 for c in prev.coeffs), -((-prev.constant) // 2), f"div {cur} 2"
        )
        if (halved.coeffs, halved.constant) != clause_row(n, lits_of(i)):
            raise ValueError(f"division at resolution line {i} misses the resolvent")
        where[i] = emit(halved.coeffs, halved.constant, halved.justification)
    return out


def serialize(lines: list[CpLine]) -> str:
    return "".join(
        f"{i}: {' '.join(map(str, ln.coeffs))} >= {ln.constant} ; {ln.justification}\n"
        for i, ln in enumerate(lines, start=1)
    )


def weight(lines: list[CpLine]) -> int:
    return max(max(abs(ln.constant), *map(abs, ln.coeffs)) for ln in lines)


def protocol_depth(lines: list[CpLine], xvars) -> int:
    """Deepest sum-announcing protocol among the lines up to the first
    refutation terminal: Alice sends her partial sum in bit_length(sum of her
    |coefficients|) bits, then Bob sends one bit; lines with no variables are
    depth 0 and lines with Bob's variables only are depth 1.
    """
    depth = 0
    for ln in lines:
        span = sum(abs(ln.coeffs[v - 1]) for v in xvars)
        if span:
            depth = max(depth, span.bit_length() + 1)
        elif any(ln.coeffs):
            depth = max(depth, 1)
        else:
            break  # 0 >= c; a valid refutation's first such line has c >= 1
    return depth


def mutate(lines: list[CpLine]) -> tuple[list[CpLine], int]:
    """Raise the constant of the middle addition line by one. Returns the
    mutated proof and the 1-based index of the line that is now invalid.
    """
    adds = [i for i, ln in enumerate(lines) if ln.justification.startswith("add")]
    k = adds[len(adds) // 2]
    bad = lines[k]
    mutated = list(lines)
    mutated[k] = CpLine(bad.coeffs, bad.constant + 1, bad.justification)
    return mutated, k + 1
