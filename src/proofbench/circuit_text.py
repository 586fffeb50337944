"""Line-oriented circuit files.

One gate per line, ``g<idx> = in <constraint> <alpha-bits> | and g<j> g<k> |
or g<j> g<k> | const0 | const1``, closed by ``output g<idx>``. An empty
alpha (a constraint reading no variables) is written as ``-``.
"""

from __future__ import annotations

from .errors import CircuitTextError
from .gates import AndGate, ConstGate, Gate, InputGate, MonotoneCircuit, OrGate


def serialize_circuit(circuit: MonotoneCircuit) -> str:
    lines = []
    for idx, gate in enumerate(circuit.gates):
        if isinstance(gate, InputGate):
            alpha = "".join(str(b) for b in gate.alpha) or "-"
            body = f"in {gate.constraint} {alpha}"
        elif isinstance(gate, ConstGate):
            body = f"const{gate.bit}"
        elif isinstance(gate, AndGate):
            body = f"and g{gate.left} g{gate.right}"
        else:
            body = f"or g{gate.left} g{gate.right}"
        lines.append(f"g{idx} = {body}")
    lines.append(f"output g{circuit.output}")
    return "\n".join(lines) + "\n"


_BINARY = {"and": AndGate, "or": OrGate}
_CONSTS = {"const0": ConstGate(0), "const1": ConstGate(1)}


def _gate_ref(token: str, line_no: int) -> int:
    if not token.startswith("g"):
        raise CircuitTextError(line_no, f"expected a gate reference, got {token!r}")
    try:
        return int(token[1:])
    except ValueError:
        raise CircuitTextError(line_no, f"bad gate reference {token!r}")


def parse_circuit(text: str) -> MonotoneCircuit:
    gates: list[Gate] = []
    output: int | None = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        if tokens[0].startswith("output"):
            if len(tokens) != 2:
                raise CircuitTextError(line_no, "malformed output line")
            output = _gate_ref(tokens[1], line_no)
            continue
        if len(tokens) < 3 or tokens[1] != "=" or "=" in tokens[0]:
            # The line splits at its first "=", wherever that falls.
            head, _, body = raw.partition("=")
            tokens = [head.strip(), "=", *body.split()]
        head = tokens[0]
        if not head.startswith("g") or len(tokens) < 3:
            raise CircuitTextError(line_no, f"malformed gate line {raw.strip()!r}")
        try:
            idx = int(head[1:])
        except ValueError:
            idx = _gate_ref(head, line_no)  # raises the precise error
        if idx != len(gates):
            raise CircuitTextError(line_no, f"expected gate index {len(gates)}")
        kind = tokens[2]
        if kind in _BINARY and len(tokens) == 5:
            left, right = tokens[3], tokens[4]
            try:
                if left[0] != "g" or right[0] != "g":
                    raise ValueError
                gate: Gate = _BINARY[kind](int(left[1:]), int(right[1:]))
            except ValueError:
                # Re-read the references one at a time for the precise error.
                gate = _BINARY[kind](
                    _gate_ref(left, line_no), _gate_ref(right, line_no)
                )
        elif kind == "in" and len(tokens) == 5:
            try:
                constraint = int(tokens[3])
            except ValueError:
                raise CircuitTextError(line_no, f"bad constraint {tokens[3]!r}")
            alpha_text = tokens[4]
            if alpha_text == "-":
                alpha: tuple[int, ...] = ()
            elif set(alpha_text) <= {"0", "1"}:
                alpha = tuple(map(int, alpha_text))
            else:
                raise CircuitTextError(line_no, f"bad alpha bits {alpha_text!r}")
            gate = InputGate(constraint, alpha)
        elif kind in _CONSTS and len(tokens) == 3:
            gate = _CONSTS[kind]
        else:
            body = raw.partition("=")[2].strip()
            raise CircuitTextError(line_no, f"unknown gate form {body!r}")
        gates.append(gate)
    if output is None:
        raise CircuitTextError(1, "missing output line")
    try:
        return MonotoneCircuit(tuple(gates), output)
    except ValueError as exc:
        raise CircuitTextError(1, str(exc))
