"""Two-party communication protocol trees over a variable partition.

A tree is a complete binary tree of a fixed depth, stored in heap order:
the root is node 1 and node v has children 2v and 2v+1, so transcript p
reaches node ``int("1" + p, 2)``. Each internal node carries an owner (Alice
reads only the X side, Bob only the Y side) and the owner's predicate, a
bitmask over that side's input indices. Leaves carry output bits, indexed by
the leaf integer ``int(h, 2)`` of a full history h. Transcript strings
appear only at the API edge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Iterable

from .bitops import full_mask, iter_bits, value_masks
from .cnf import Assignment, Clause, Literal, VariablePartition
from .errors import CapExceededError
from .linear import LinearInequality
from .semantics import SemanticLine, check_table_cap, falsifying_mask

ALICE = "alice"
BOB = "bob"

SIDE_CAP = 12
DEPTH_CAP = 16


@dataclass(frozen=True)
class ProtocolTree:
    part: VariablePartition
    depth: int
    # indexed by heap node; entry 0 is unused
    owners: tuple[str | None, ...] = field(repr=False)
    preds: tuple[int, ...] = field(repr=False)
    outputs: tuple[int, ...] = field(repr=False)  # indexed by leaf integer

    @property
    def n1(self) -> int:
        return self.part.n1

    @property
    def n2(self) -> int:
        return self.part.n2

    def owner_at(self, prefix: str) -> str:
        return self.owners[self._node(prefix)]

    def predicate_at(self, prefix: str) -> int:
        return self.preds[self._node(prefix)]

    def output_at(self, history: str) -> int:
        if len(history) != self.depth:
            raise KeyError(history)
        return self.outputs[int("0" + history, 2)]

    def _node(self, prefix: str) -> int:
        """The internal node that the prefix reaches."""
        if len(prefix) >= self.depth:
            raise KeyError(prefix)
        return int("1" + prefix, 2)

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
    return ProtocolTree(part, 0, (None,), (0,), (int(bit),))


def clause_protocol(clause: Clause, part: VariablePartition) -> ProtocolTree:
    """The two-bit protocol of a clause: each player sends 0 iff all their
    literals of it are falsified, always so for a player with none.
    """
    check_side_cap(part)
    xf, yf = falsifying_mask(clause.literals, part)
    xfull, yfull = full_mask(1 << part.n1), full_mask(1 << part.n2)
    return two_bit_protocol(part, xfull ^ xf, yfull ^ yf)


def clause_line(
    literals: Iterable[Literal], part: VariablePartition
) -> tuple[SemanticLine, ProtocolTree]:
    """``SemanticLine.from_literals`` and ``clause_protocol`` from one
    ``falsifying_mask`` call, raising as they would in that order.
    """
    check_table_cap(part)
    xf, yf = falsifying_mask(literals, part)
    check_side_cap(part)
    xfull, yfull = full_mask(1 << part.n1), full_mask(1 << part.n2)
    tree = two_bit_protocol(part, xfull ^ xf, yfull ^ yf)
    return SemanticLine.from_falsifying(part, xf, yf), tree


def two_bit_protocol(
    part: VariablePartition, alice_pred: int, bob_pred: int
) -> ProtocolTree:
    """Depth-2 tree: Alice sends bit x of ``alice_pred``, then Bob bit y of
    ``bob_pred``; output 0 exactly at history "00".
    """
    owners = (None, ALICE, BOB, BOB)
    preds = (0, alice_pred, bob_pred, bob_pred)
    return ProtocolTree(part, 2, owners, preds, (0, 1, 1, 1))


def inequality_protocol(
    ineq: LinearInequality, part: VariablePartition
) -> ProtocolTree:
    """Alice announces her partial sum in offset binary (w bits, most
    significant first), then one Bob bit decides ``sum >= constant``; that
    final bit is the output. Degenerates to depth 0 when no variable has a
    nonzero coefficient.
    """
    return inequality_line(ineq, part)[1]


def inequality_line(
    ineq: LinearInequality, part: VariablePartition
) -> tuple[SemanticLine, ProtocolTree]:
    """An inequality's line and its protocol from one partial-sum pass."""
    if ineq.n != part.n:
        raise ValueError("inequality arity does not match the partition")
    check_side_cap(part)
    asums, bsums = part.partial_sums(ineq.coeffs)
    amin, amax = min(asums), max(asums)
    by_asum = value_masks(asums)
    by_bsum = value_masks(bsums)
    w = (amax - amin).bit_length() if amax > amin else 0
    depth = w + 1
    if depth > DEPTH_CAP:
        raise CapExceededError(
            f"message width {w}+1 exceeds protocol depth cap {DEPTH_CAP}"
        )
    line = SemanticLine.from_sums(part, by_asum, by_bsum, ineq.constant)
    if amin == amax and len(by_bsum) == 1:
        return line, constant_tree(part, int(amin + bsums[0] >= ineq.constant))
    # entry 0 is unused; levels 0..w-1 are Alice's, one mask per level, and
    # level w is Bob's
    preds = [0] * (1 << w)
    for level in range(w):
        shift = w - 1 - level
        mask = sum(xm for a, xm in by_asum.items() if ((a - amin) >> shift) & 1)
        preds[1 << level : 2 << level] = [mask] * (1 << level)
    for announced in range(amin, amin + (1 << w)):
        preds.append(
            sum(ym for b, ym in by_bsum.items() if announced + b >= ineq.constant)
        )
    owners = (None,) + (ALICE,) * ((1 << w) - 1) + (BOB,) * (1 << w)
    return line, ProtocolTree(part, depth, owners, tuple(preds), (0, 1) * (1 << w))


def run_protocol(
    tree: ProtocolTree, x: Assignment, y: Assignment
) -> tuple[str, int]:
    """Walk the tree on a concrete input pair; returns (history, output)."""
    part = tree.part
    part.check_exact_sides(x, y)
    x_idx = x.to_index(part.xvars)
    y_idx = y.to_index(part.yvars)
    v = 1
    for _ in range(tree.depth):
        idx = x_idx if tree.owners[v] == ALICE else y_idx
        v = 2 * v + ((tree.preds[v] >> idx) & 1)
    return bin(v)[3:], tree.outputs[v - (1 << tree.depth)]


def history_masks(tree: ProtocolTree, history: str) -> tuple[int, int]:
    """Index masks of the inputs consistent with a (possibly partial) history."""
    if len(history) > tree.depth:
        raise KeyError(history)
    xmask = full_mask(1 << tree.n1)
    ymask = full_mask(1 << tree.n2)
    v = 1
    for bit in history:
        pred = tree.preds[v] if bit == "1" else ~tree.preds[v]
        if tree.owners[v] == ALICE:
            xmask &= pred
        else:
            ymask &= pred
        v = 2 * v + (bit == "1")
    return xmask, ymask


def full_history_masks(tree: ProtocolTree) -> dict[str, tuple[int, int]]:
    """Masks for every full history in leaf order, computed level by level."""
    level = [(full_mask(1 << tree.n1), full_mask(1 << tree.n2))]
    for v0 in (1 << d for d in range(tree.depth)):
        nxt = []
        for v, (xm, ym) in enumerate(level, v0):
            pred = tree.preds[v]
            if tree.owners[v] == ALICE:
                nxt += ((xm & ~pred, ym), (xm & pred, ym))
            else:
                nxt += ((xm, ym & ~pred), (xm, ym & pred))
        level = nxt
    # node v's transcript: its binary digits after the leading 1
    return {bin(v)[3:]: masks for v, masks in enumerate(level, 1 << tree.depth)}


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
    """Good histories given precomputed full-history masks: no row class
    meeting a history's x mask has a one on its y mask.
    """
    return [
        h
        for h, (xm, ym) in sorted(masks.items())
        if not any(cx & xm and row & ym for cx, row in line.rows)
    ]


def good_leaves(
    tree: ProtocolTree, line: SemanticLine
) -> list[tuple[int, str, int, int]] | None:
    """(leaf, history, x mask, y mask) of every good history in leaf order,
    or None if the tree disagrees with the line: on a nonempty rectangle, a
    row class meeting its x mask is not all ones on its y mask under a leaf
    that outputs 1, or not all zeros under one that outputs 0. The good
    histories are then the empty rectangles and the leaves that output 0.
    """
    good = []
    rows, outputs = line.rows, tree.outputs
    for leaf, (h, (xm, ym)) in enumerate(full_history_masks(tree).items()):
        if xm and ym:
            want = ym if outputs[leaf] else 0
            if any(cx & xm and row & ym != want for cx, row in rows):
                return None
            if want:
                continue
        good.append((leaf, h, xm, ym))
    return good


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
