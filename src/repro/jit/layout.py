"""Count-safe CFG flattening for the optimizer passes.

``CFG.linearize`` makes every fallthrough edge an explicit ``JMP`` —
correct, but an *executed* instruction the original program didn't
have, which would violate the optimizer's never-more-instructions
guarantee on functions where codegen fell through between blocks.

``relinearize`` instead keeps blocks in their original order (block
ids are assigned in pc order by ``build_cfg``) and **elides** any
terminating ``JMP`` whose target is the next block in layout — the
interpreter's ``pc + 1`` fallthrough takes over.  Every ``JMP`` that
``build_cfg`` synthesized comes right back out, and pre-existing
jumps-to-next disappear too, so the flattened code executes at most
as many instructions as the CFG it came from.  A block reduced to a lone
elided ``JMP`` contributes nothing and its incoming branches thread
through to its successor.
"""

from __future__ import annotations

from typing import Dict, List

from repro.bytecode.instructions import Instr
from repro.bytecode.opcodes import Op
from repro.cfg.graph import CFG


def relinearize(cfg: CFG) -> List[Instr]:
    """Flatten ``cfg`` to code in original block order, eliding
    jumps-to-next (drops unreachable blocks)."""
    reach = cfg.reachable()
    order = [bid for bid in sorted(cfg.blocks) if bid in reach]
    next_of = {order[i]: order[i + 1] for i in range(len(order) - 1)}
    elide = set()
    for bid in order:
        term = cfg.blocks[bid].terminator
        if term.op == Op.JMP and next_of.get(bid) == term.a:
            elide.add(bid)

    start: Dict[int, int] = {}
    pc = 0
    for bid in order:
        start[bid] = pc
        pc += len(cfg.blocks[bid].instrs) - (1 if bid in elide else 0)

    code: List[Instr] = []
    for bid in order:
        instrs = cfg.blocks[bid].instrs
        body = instrs[:-1] if bid in elide else instrs
        for ins in body:
            copy = ins.copy()
            if copy.op == Op.JMP:
                copy.a = start[copy.a]
            elif copy.op == Op.BR:
                copy.b = start[copy.b]
                copy.c = start[copy.c]
            code.append(copy)
    return code
