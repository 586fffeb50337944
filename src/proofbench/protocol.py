"""Two-party communication protocol trees over a variable partition.

A tree is a complete binary tree of a fixed depth. Internal nodes are
addressed by the transcript prefix that reaches them; each carries an owner
(Alice reads only the X side, Bob only the Y side) and the owner's predicate,
stored as a bitmask over that side's input indices. Leaves carry output bits
and are addressed by full histories.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Mapping

from .bitops import full_mask, iter_bits, value_masks
from .cnf import Assignment, Clause, VariablePartition
from .errors import CapExceededError
from .linear import LinearInequality
from .semantics import SemanticLine, falsifying_mask, rectangle_bits

ALICE = "alice"
BOB = "bob"

SIDE_CAP = 12
DEPTH_CAP = 16


@dataclass(frozen=True)
class ProtocolTree:
    part: VariablePartition
    depth: int
    owners: Mapping[str, str] = field(repr=False)
    preds: Mapping[str, int] = field(repr=False)
    outputs: Mapping[str, int] = field(repr=False)

    @property
    def n1(self) -> int:
        return self.part.n1

    @property
    def n2(self) -> int:
        return self.part.n2

    def owner_at(self, prefix: str) -> str:
        return self.owners[prefix]

    def predicate_at(self, prefix: str) -> int:
        return self.preds[prefix]

    def output_at(self, history: str) -> int:
        return self.outputs[history]

    def histories(self) -> list[str]:
        return ["".join(h) for h in product("01", repeat=self.depth)]


@dataclass(frozen=True)
class Rectangle:
    """Materialized set of inputs reaching a history: a product set."""

    n1: int
    n2: int
    xset: frozenset[int]
    yset: frozenset[int]


@dataclass(frozen=True)
class RealProtocolRound:
    alice_value: int
    bob_value: int
    referee_bit: bool

    def __post_init__(self):
        if self.referee_bit != (self.alice_value >= self.bob_value):
            raise ValueError("referee bit must equal [alice_value >= bob_value]")


def check_side_cap(part: VariablePartition) -> None:
    """Raise ``CapExceededError`` when a side is too large to enumerate."""
    if part.n1 > SIDE_CAP or part.n2 > SIDE_CAP:
        raise CapExceededError(
            f"side sizes ({part.n1}, {part.n2}) exceed enumeration cap {SIDE_CAP}"
        )


def constant_tree(part: VariablePartition, bit: int) -> ProtocolTree:
    """Depth-0 tree: no communication, the empty history outputs ``bit``."""
    return ProtocolTree(part, 0, {}, {}, {"": int(bit)})


def clause_protocol(clause: Clause, part: VariablePartition) -> ProtocolTree:
    """The two-bit protocol of a clause: each player sends 0 iff all their
    literals of it are falsified, always so for a player with none.
    """
    check_side_cap(part)
    xf, yf = falsifying_mask(clause.literals, part)
    xfull, yfull = full_mask(1 << part.n1), full_mask(1 << part.n2)
    return two_bit_protocol(part, xfull ^ xf, yfull ^ yf)


def two_bit_protocol(
    part: VariablePartition, alice_pred: int, bob_pred: int
) -> ProtocolTree:
    """Depth-2 tree: Alice sends bit x of ``alice_pred``, then Bob bit y of
    ``bob_pred``; output 0 exactly at history "00".
    """
    owners = {"": ALICE, "0": BOB, "1": BOB}
    preds = {"": alice_pred, "0": bob_pred, "1": bob_pred}
    outputs = {h: (0 if h == "00" else 1) for h in ("00", "01", "10", "11")}
    return ProtocolTree(part, 2, owners, preds, outputs)


def inequality_protocol(
    ineq: LinearInequality, part: VariablePartition
) -> ProtocolTree:
    """Alice announces her partial sum in offset binary (w bits, most
    significant first), then one Bob bit decides ``sum >= constant``; that
    final bit is the output. Degenerates to depth 0 when no variable has a
    nonzero coefficient.
    """
    if ineq.n != part.n:
        raise ValueError("inequality arity does not match the partition")
    check_side_cap(part)
    asums, bsums = part.partial_sums(ineq.coeffs)
    amin, amax = min(asums), max(asums)
    by_asum = value_masks(asums)
    by_bsum = value_masks(bsums)
    if amin == amax and len(by_bsum) == 1:
        return constant_tree(part, int(amin + bsums[0] >= ineq.constant))
    w = (amax - amin).bit_length() if amax > amin else 0
    depth = w + 1
    if depth > DEPTH_CAP:
        raise CapExceededError(
            f"message width {w}+1 exceeds protocol depth cap {DEPTH_CAP}"
        )
    owners: dict[str, str] = {}
    preds: dict[str, int] = {}
    for level in range(w):
        shift = w - 1 - level
        mask = sum(xm for a, xm in by_asum.items() if ((a - amin) >> shift) & 1)
        for prefix in product("01", repeat=level):
            p = "".join(prefix)
            owners[p] = ALICE
            preds[p] = mask
    for prefix in product("01", repeat=w):
        p = "".join(prefix)
        announced = amin + (int(p, 2) if p else 0)
        mask = sum(ym for b, ym in by_bsum.items() if announced + b >= ineq.constant)
        owners[p] = BOB
        preds[p] = mask
    outputs = {
        "".join(h): int(h[-1]) for h in product("01", repeat=depth)
    }
    return ProtocolTree(part, depth, owners, preds, outputs)


def run_protocol(
    tree: ProtocolTree, x: Assignment, y: Assignment
) -> tuple[str, int]:
    """Walk the tree on a concrete input pair; returns (history, output)."""
    part = tree.part
    part.check_exact_sides(x, y)
    x_idx = x.to_index(part.xvars)
    y_idx = y.to_index(part.yvars)
    history = ""
    for _ in range(tree.depth):
        idx = x_idx if tree.owner_at(history) == ALICE else y_idx
        bit = (tree.predicate_at(history) >> idx) & 1
        history += str(bit)
    return history, tree.output_at(history)


def history_masks(tree: ProtocolTree, history: str) -> tuple[int, int]:
    """Index masks of the inputs consistent with a (possibly partial) history."""
    xmask = full_mask(1 << tree.n1)
    ymask = full_mask(1 << tree.n2)
    for i, bit in enumerate(history):
        prefix = history[:i]
        pred = tree.predicate_at(prefix)
        if tree.owner_at(prefix) == ALICE:
            xmask &= pred if bit == "1" else ~pred & full_mask(1 << tree.n1)
        else:
            ymask &= pred if bit == "1" else ~pred & full_mask(1 << tree.n2)
    return xmask, ymask


def full_history_masks(tree: ProtocolTree) -> dict[str, tuple[int, int]]:
    """Masks for every full history, computed by descending the tree once."""
    result: dict[str, tuple[int, int]] = {}
    xfull = full_mask(1 << tree.n1)
    yfull = full_mask(1 << tree.n2)

    def descend(prefix: str, xm: int, ym: int) -> None:
        if len(prefix) == tree.depth:
            result[prefix] = (xm, ym)
            return
        pred = tree.predicate_at(prefix)
        if tree.owner_at(prefix) == ALICE:
            descend(prefix + "0", xm & ~pred & xfull, ym)
            descend(prefix + "1", xm & pred, ym)
        else:
            descend(prefix + "0", xm, ym & ~pred & yfull)
            descend(prefix + "1", xm, ym & pred)

    descend("", xfull, yfull)
    return result


def materialize_rectangle(tree: ProtocolTree, history: str) -> Rectangle:
    check_side_cap(tree.part)
    if len(history) > tree.depth:
        raise ValueError("history longer than the tree depth")
    xmask, ymask = history_masks(tree, history)
    return Rectangle(
        tree.n1,
        tree.n2,
        frozenset(iter_bits(xmask)),
        frozenset(iter_bits(ymask)),
    )


def good_from_masks(
    masks: dict[str, tuple[int, int]], line: SemanticLine
) -> list[str]:
    """Good histories given precomputed full-history masks."""
    return [
        h
        for h in sorted(masks)
        if line.bits & rectangle_bits(*masks[h], line.n2) == 0
    ]


def good_histories(tree: ProtocolTree, line: SemanticLine) -> list[str]:
    """Full histories whose rectangle is 0-monochromatic for the line.

    Empty rectangles qualify vacuously.
    """
    check_side_cap(tree.part)
    if (line.n1, line.n2) != (tree.n1, tree.n2):
        raise ValueError("line dimensions do not match the tree")
    return good_from_masks(full_history_masks(tree), line)


def real_protocol_eval(
    ineq: LinearInequality,
    part: VariablePartition,
    x: Assignment,
    y: Assignment,
) -> tuple[RealProtocolRound, int]:
    """One referee round: Alice sends her partial sum, Bob sends the constant
    minus his; the referee's bit is the inequality's truth and the output.
    """
    if ineq.n != part.n:
        raise ValueError("inequality arity does not match the partition")
    part.check_exact_sides(x, y)
    alice = sum(ineq.coeffs[v - 1] * x.bit(v) for v in part.xvars)
    bob = ineq.constant - sum(ineq.coeffs[v - 1] * y.bit(v) for v in part.yvars)
    bit = alice >= bob
    return RealProtocolRound(alice, bob, bit), int(bit)
