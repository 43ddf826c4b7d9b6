"""Natural-loop identification and the loop-nesting forest.

"The compiler chooses potential STLs by examining a method's
control-flow graph to identify all natural loops" (Section 4.1).  A back
edge is ``n -> h`` with ``h`` dominating ``n``; the natural loop of a
back edge is ``h`` plus every block that reaches ``n`` without passing
through ``h``.  Loops sharing a header are merged (Muchnick's
convention), and nesting is derived from block-set containment.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.cfg.dominators import DominatorTree, compute_dominators
from repro.cfg.graph import CFG


class Loop:
    """One natural loop within a function's CFG."""

    def __init__(self, header: int, blocks: Set[int],
                 back_edge_sources: Set[int]):
        self.header = header
        self.blocks = blocks
        self.back_edge_sources = back_edge_sources
        self.parent: Optional["Loop"] = None
        self.children: List["Loop"] = []
        #: 1-based nesting depth (1 = outermost in this function)
        self.depth = 1
        #: program-wide id, assigned by the candidate pass
        self.loop_id = -1

    def entry_edges(self, cfg: CFG) -> List[Tuple[int, int]]:
        """Edges from outside the loop into the header."""
        preds = cfg.predecessors_map()
        return [(p, self.header) for p in preds[self.header]
                if p not in self.blocks]

    def back_edges(self) -> List[Tuple[int, int]]:
        """The latch edges (source -> header)."""
        return [(src, self.header) for src in sorted(self.back_edge_sources)]

    def exit_edges(self, cfg: CFG) -> List[Tuple[int, int]]:
        """Edges from a loop block to a non-loop block."""
        out: List[Tuple[int, int]] = []
        for bid in sorted(self.blocks):
            for succ in cfg.successors(bid):
                if succ not in self.blocks:
                    out.append((bid, succ))
        return out

    def height(self) -> int:
        """Height above the innermost loop nested below this one
        (0 = innermost; the paper's Table 6 column f reports 1-based
        heights, see :meth:`height1`)."""
        if not self.children:
            return 0
        return 1 + max(child.height() for child in self.children)

    def height1(self) -> int:
        """1-based loop height as reported in Table 6 (inner loop = 1)."""
        return self.height() + 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<Loop L%d header=%d blocks=%d depth=%d>" % (
            self.loop_id, self.header, len(self.blocks), self.depth)


class LoopForest:
    """All natural loops of one function, with nesting structure."""

    def __init__(self, loops: List[Loop]):
        self.loops = loops
        self.by_header: Dict[int, Loop] = {lp.header: lp for lp in loops}
        self.roots = [lp for lp in loops if lp.parent is None]

    @property
    def max_depth(self) -> int:
        """Deepest static nesting (0 when there are no loops)."""
        return max((lp.depth for lp in self.loops), default=0)

    def loop_of_block(self, bid: int) -> Optional[Loop]:
        """The innermost loop containing ``bid``, if any."""
        best: Optional[Loop] = None
        for lp in self.loops:
            if bid in lp.blocks:
                if best is None or lp.depth > best.depth:
                    best = lp
        return best


def _natural_loop_blocks(cfg: CFG, header: int, latch: int) -> Set[int]:
    """Blocks of the natural loop of back edge latch -> header."""
    preds = cfg.predecessors_map()
    blocks = {header, latch}
    work = [latch]
    while work:
        bid = work.pop()
        if bid == header:
            continue
        for p in preds[bid]:
            if p not in blocks:
                blocks.add(p)
                work.append(p)
    return blocks


def find_loops(cfg: CFG, dom: Optional[DominatorTree] = None) -> LoopForest:
    """Identify all natural loops in ``cfg`` and build the forest."""
    if dom is None:
        dom = compute_dominators(cfg)
    reachable = set(dom.idom)

    # back edges: n -> h with h dominating n
    by_header: Dict[int, Loop] = {}
    for n in sorted(reachable):
        for h in cfg.successors(n):
            if h in reachable and dom.dominates(h, n):
                blocks = _natural_loop_blocks(cfg, h, n)
                existing = by_header.get(h)
                if existing is None:
                    by_header[h] = Loop(h, blocks, {n})
                else:
                    existing.blocks |= blocks
                    existing.back_edge_sources.add(n)

    loops = sorted(by_header.values(), key=lambda lp: lp.header)

    # nesting: the parent of L is the smallest strictly-containing loop
    for inner in loops:
        parent: Optional[Loop] = None
        for outer in loops:
            if outer is inner:
                continue
            if inner.header in outer.blocks \
                    and inner.blocks <= outer.blocks \
                    and inner.blocks != outer.blocks:
                if parent is None or len(outer.blocks) < len(parent.blocks):
                    parent = outer
        inner.parent = parent
        if parent is not None:
            parent.children.append(inner)

    # depths
    def set_depth(lp: Loop, depth: int) -> None:
        lp.depth = depth
        for child in lp.children:
            set_depth(child, depth + 1)

    for lp in loops:
        if lp.parent is None:
            set_depth(lp, 1)

    return LoopForest(loops)
