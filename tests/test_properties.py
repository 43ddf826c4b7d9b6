"""Property-based tests (hypothesis) over core invariants."""

import string

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bytecode import BinOp
from repro.cfg.dominators import compute_dominators
from repro.cfg.graph import CFG, Block, build_cfg
from repro.cfg.natural_loops import find_loops
from repro.bytecode.instructions import Instr
from repro.bytecode.opcodes import Op
from repro.hydra import HydraConfig
from repro.lang import compile_source, parse, tokenize
from repro.lang.tokens import TokKind
from repro.runtime import run_program
from repro.runtime.values import apply_binop, java_div, java_mod
from repro.tracer import (
    StoreTimestampFIFO,
    arc_limited_speedup,
    estimate_speedup,
)
from repro.tracer.stats import STLStats

from tests.conftest import columnar_entry, replay

# ---------------------------------------------------------------- lexer

idents = st.text(alphabet=string.ascii_lowercase, min_size=1,
                 max_size=8).filter(
    lambda s: s not in ("func", "var", "if", "else", "while", "for",
                        "return", "break", "continue", "print"))


@given(st.lists(st.one_of(
    idents,
    st.integers(min_value=0, max_value=10**9).map(str),
    st.sampled_from(["+", "-", "*", "/", "<=", ">=", "==", "!=", "&&",
                     "||", "<<", ">>", "(", ")", "[", "]", ";", ","]),
), min_size=0, max_size=30))
def test_lexer_roundtrip_token_texts(pieces):
    """Lexing space-joined tokens yields exactly those tokens back."""
    source = " ".join(pieces)
    toks = tokenize(source)
    assert toks[-1].kind is TokKind.EOF
    assert [t.text for t in toks[:-1]] == pieces


@given(st.integers(min_value=0, max_value=2**31))
def test_lexer_integer_values(n):
    tok = tokenize(str(n))[0]
    assert tok.kind is TokKind.INT
    assert int(tok.text) == n


# ------------------------------------------------------------ arithmetic

ints = st.integers(min_value=-10**6, max_value=10**6)


@given(ints, ints.filter(lambda x: x != 0))
def test_java_div_mod_identity(a, b):
    """a == (a / b) * b + (a % b), always."""
    assert java_div(a, b) * b + java_mod(a, b) == a


@given(ints, ints.filter(lambda x: x != 0))
def test_java_mod_sign_follows_dividend(a, b):
    m = java_mod(a, b)
    assert abs(m) < abs(b)
    if m != 0:
        assert (m > 0) == (a > 0)


@given(ints, ints)
def test_comparisons_are_booleans(a, b):
    for op in (BinOp.LT, BinOp.LE, BinOp.GT, BinOp.GE, BinOp.EQ,
               BinOp.NE):
        assert apply_binop(op, a, b) in (0, 1)


@given(ints, ints)
def test_expression_compilation_matches_python(a, b):
    """Compiled arithmetic agrees with Python on the same formula."""
    src = "func main() { var a = %d; var b = %d; " \
          "return a * 3 + b - (a - b) * 2; }" % (a, b)
    expect = a * 3 + b - (a - b) * 2
    assert run_program(compile_source(src)).return_value == expect


# ------------------------------------------------------------------ CFG

@st.composite
def random_cfgs(draw):
    """Random well-formed CFGs: every block ends JMP/BR/RET, targets
    in range, entry = 0."""
    n = draw(st.integers(min_value=1, max_value=10))
    blocks = {}
    for bid in range(n):
        kind = draw(st.sampled_from(["jmp", "br", "ret"]))
        if kind == "jmp":
            term = Instr(Op.JMP, a=draw(
                st.integers(min_value=0, max_value=n - 1)))
        elif kind == "br":
            term = Instr(Op.BR, a=0,
                         b=draw(st.integers(min_value=0, max_value=n - 1)),
                         c=draw(st.integers(min_value=0, max_value=n - 1)))
        else:
            term = Instr(Op.RET)
        blocks[bid] = Block(bid, [Instr(Op.NOP), term])
    fn_template = compile_source("func main() { return 0; }").main
    return CFG("main", blocks, entry=0, template=fn_template)


@given(random_cfgs())
@settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
def test_dominator_invariants_on_random_cfgs(cfg):
    dom = compute_dominators(cfg)
    reachable = cfg.reachable()
    assert set(dom.idom) == reachable
    for bid in reachable:
        assert dom.dominates(cfg.entry, bid)
        assert dom.dominates(bid, bid)
        if bid != cfg.entry:
            idom = dom.idom[bid]
            assert idom is not None
            # the immediate dominator is a predecessor-closed dominator
            assert dom.dominates(idom, bid)


@given(random_cfgs())
@settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
def test_natural_loop_invariants_on_random_cfgs(cfg):
    forest = find_loops(cfg)
    for lp in forest.loops:
        assert lp.header in lp.blocks
        for latch in lp.back_edge_sources:
            assert latch in lp.blocks
        if lp.parent is not None:
            assert lp.blocks < lp.parent.blocks
            assert lp.depth == lp.parent.depth + 1


# ----------------------------------------------------------- interpreter

@given(st.integers(min_value=0, max_value=40),
       st.integers(min_value=1, max_value=20))
def test_interpreter_loop_determinism(n, step):
    src = ("func main() { var s = 0; "
           "for (var i = 0; i < %d; i = i + %d) { s = s + i; } "
           "return s; }" % (n, step))
    expect = sum(range(0, n, step))
    r1 = run_program(compile_source(src))
    r2 = run_program(compile_source(src))
    assert r1.return_value == expect
    assert (r1.cycles, r1.instructions) == (r2.cycles, r2.instructions)


# ---------------------------------------------------------- timestamps

@given(st.lists(st.tuples(st.integers(min_value=0, max_value=31),
                          st.integers(min_value=0, max_value=10**6)),
                min_size=0, max_size=200),
       st.integers(min_value=1, max_value=16))
def test_fifo_agrees_with_bounded_reference(ops, capacity):
    """The FIFO behaves like an unbounded dict restricted to the last
    `capacity` distinct addresses."""
    fifo = StoreTimestampFIFO(capacity)
    reference = {}
    order = []
    for addr, ts in ops:
        fifo.record(addr, ts)
        reference[addr] = ts
        if addr in order:
            order.remove(addr)
        order.append(addr)
        order = order[-capacity:]
    for addr, ts in reference.items():
        if addr in order:
            assert fifo.lookup(addr) == ts
        else:
            assert fifo.lookup(addr) is None


# ------------------------------------------------------------- estimator

@given(st.integers(min_value=1, max_value=10**6),
       st.integers(min_value=1, max_value=10**4),
       st.integers(min_value=0, max_value=10**4),
       st.integers(min_value=0, max_value=10**6),
       st.integers(min_value=0, max_value=10**4))
def test_estimator_bounds(cycles, threads, arcs, arc_len, overflow):
    st_ = STLStats(0)
    st_.cycles = cycles
    st_.threads = threads
    st_.entries = 1
    st_.profiled_threads = threads
    st_.profiled_entries = 1
    st_.arcs_prev = min(arcs, max(threads - 1, 0))
    st_.arc_len_prev = arc_len if st_.arcs_prev else 0
    st_.overflow_threads = min(overflow, threads)
    est = estimate_speedup(st_)
    assert 0.0 < est.speedup <= 4.0
    assert est.base_speedup >= 1.0


@given(st.floats(min_value=1.0, max_value=10**6),
       st.floats(min_value=0.0, max_value=10**6),
       st.sampled_from([1, 2]),
       st.sampled_from([2, 4, 8]))
def test_arc_limited_speedup_bounds(size, arc, span, cpus):
    s = arc_limited_speedup(size, arc, span, cpus)
    assert 1.0 <= s <= cpus


# ------------------------------------------------------------------ TLS

@given(st.lists(st.integers(min_value=10, max_value=500),
                min_size=1, max_size=40))
@settings(max_examples=60)
def test_tls_independent_threads_bounds(sizes):
    """speedup within [1/(1+overheads), p] and parallel time at least
    the critical path."""
    from tests.test_tls import dummy_compilation

    entry = columnar_entry([(size, []) for size in sizes])
    res = replay([entry], dummy_compilation())
    config = HydraConfig()
    assert res.violations == 0
    assert res.parallel_cycles >= max(sizes)
    assert res.parallel_cycles >= (
        config.startup_overhead + config.shutdown_overhead)
    assert res.speedup <= config.n_cpus + 1e-9


@given(st.lists(st.tuples(
    st.integers(min_value=0, max_value=90),    # store offset
    st.integers(min_value=0, max_value=90)),   # load offset
    min_size=2, max_size=20))
@settings(max_examples=60)
def test_tls_dependencies_never_break_causality(pairs):
    """However stores/loads interleave, every consumer load must end up
    at or after its producer's store time."""
    from tests.test_tls import dummy_compilation

    threads = []
    for s_off, l_off in pairs:
        events = [(l_off, "ld", 0x4000), (s_off, "st", 0x4000)]
        events.sort(key=lambda e: e[0])
        threads.append((100, events))
    entry = columnar_entry(threads)
    res = replay([entry], dummy_compilation())
    assert res.parallel_cycles > 0
    assert res.violations >= 0
