"""Arithmetic semantics for bytecode values.

Values are Python ints and floats; array handles are ints issued by the
heap (they live in the same slot file, as on a real register machine).
Arithmetic follows Java-like rules — the paper's substrate is a JVM:

* ``/`` truncates toward zero for int/int, is IEEE for floats;
* ``%`` takes the sign of the dividend (Java remainder), not Python's
  floor-mod;
* shifts and bitwise operators require int operands;
* comparisons yield 0/1 ints.

Integers are unbounded (workloads that need wrap-around mask manually);
this keeps the interpreter simple and deterministic.
"""

from __future__ import annotations

import math

from repro.bytecode.opcodes import BinOp, UnOp
from repro.errors import ExecutionError


# Sub-opcodes as plain ints: comparing against an IntEnum member costs
# several times an int compare, and these run once per BIN/UN executed.
(_ADD, _SUB, _MUL, _DIV, _MOD, _AND, _OR, _XOR, _SHL, _SHR,
 _LT, _LE, _GT, _GE, _EQ, _NE) = (
    int(BinOp.ADD), int(BinOp.SUB), int(BinOp.MUL), int(BinOp.DIV),
    int(BinOp.MOD), int(BinOp.AND), int(BinOp.OR), int(BinOp.XOR),
    int(BinOp.SHL), int(BinOp.SHR), int(BinOp.LT), int(BinOp.LE),
    int(BinOp.GT), int(BinOp.GE), int(BinOp.EQ), int(BinOp.NE))
_NEG, _NOT, _INV, _I2F, _F2I = (
    int(UnOp.NEG), int(UnOp.NOT), int(UnOp.INV), int(UnOp.I2F),
    int(UnOp.F2I))


def _require_ints(op_name: str, lhs, rhs) -> None:
    if isinstance(lhs, float) or isinstance(rhs, float):
        raise ExecutionError(
            "%s requires int operands, got %r and %r" % (op_name, lhs, rhs))


def java_div(lhs, rhs):
    """Division: truncating for int/int, IEEE for floats."""
    if rhs == 0:
        if isinstance(lhs, float) or isinstance(rhs, float):
            raise ExecutionError("float division by zero")
        raise ExecutionError("integer division by zero")
    if isinstance(lhs, int) and isinstance(rhs, int):
        q = abs(lhs) // abs(rhs)
        return q if (lhs >= 0) == (rhs >= 0) else -q
    return lhs / rhs


def java_mod(lhs, rhs):
    """Remainder with the sign of the dividend (Java semantics)."""
    if rhs == 0:
        raise ExecutionError("modulo by zero")
    if isinstance(lhs, int) and isinstance(rhs, int):
        return lhs - java_div(lhs, rhs) * rhs
    return math.fmod(lhs, rhs)


def apply_binop(sub: int, lhs, rhs):
    """Apply a :class:`~repro.bytecode.opcodes.BinOp` to two values."""
    if sub == _ADD:
        return lhs + rhs
    if sub == _SUB:
        return lhs - rhs
    if sub == _MUL:
        return lhs * rhs
    if sub == _DIV:
        return java_div(lhs, rhs)
    if sub == _MOD:
        return java_mod(lhs, rhs)
    if sub == _LT:
        return 1 if lhs < rhs else 0
    if sub == _LE:
        return 1 if lhs <= rhs else 0
    if sub == _GT:
        return 1 if lhs > rhs else 0
    if sub == _GE:
        return 1 if lhs >= rhs else 0
    if sub == _EQ:
        return 1 if lhs == rhs else 0
    if sub == _NE:
        return 1 if lhs != rhs else 0
    if sub == _AND:
        _require_ints("&", lhs, rhs)
        return lhs & rhs
    if sub == _OR:
        _require_ints("|", lhs, rhs)
        return lhs | rhs
    if sub == _XOR:
        _require_ints("^", lhs, rhs)
        return lhs ^ rhs
    if sub == _SHL:
        _require_ints("<<", lhs, rhs)
        if rhs < 0:
            raise ExecutionError("negative shift count %d" % rhs)
        return lhs << rhs
    if sub == _SHR:
        _require_ints(">>", lhs, rhs)
        if rhs < 0:
            raise ExecutionError("negative shift count %d" % rhs)
        return lhs >> rhs
    raise ExecutionError("unknown BIN sub-opcode %d" % sub)


def apply_unop(sub: int, value):
    """Apply a :class:`~repro.bytecode.opcodes.UnOp` to a value."""
    if sub == _NEG:
        return -value
    if sub == _NOT:
        return 0 if value else 1
    if sub == _INV:
        if isinstance(value, float):
            raise ExecutionError("~ requires an int operand, got %r" % value)
        return ~value
    if sub == _I2F:
        return float(value)
    if sub == _F2I:
        return int(value)
    raise ExecutionError("unknown UN sub-opcode %d" % sub)


def apply_intrinsic(name: str, args):
    """Evaluate a pure intrinsic call."""
    try:
        if name == "sqrt":
            return math.sqrt(args[0])
        if name == "sin":
            return math.sin(args[0])
        if name == "cos":
            return math.cos(args[0])
        if name == "exp":
            return math.exp(args[0])
        if name == "log":
            return math.log(args[0])
        if name == "abs":
            return abs(args[0])
        if name == "floor":
            return math.floor(args[0])
        if name == "min":
            return min(args[0], args[1])
        if name == "max":
            return max(args[0], args[1])
        if name == "pow":
            return math.pow(args[0], args[1])
    except ValueError as exc:
        raise ExecutionError("intrinsic %s%r: %s" % (name, tuple(args), exc))
    raise ExecutionError("unknown intrinsic %r" % name)
