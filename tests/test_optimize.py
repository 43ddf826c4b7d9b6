"""Unit tests for the microJIT scalar optimizer."""

import pytest

from repro.bytecode import Op, verify_program
from repro.jit import optimize_program
from repro.lang import compile_source
from repro.runtime import run_program


def optimized(source):
    program = compile_source(source)
    clone = program.copy()
    stats = optimize_program(clone)
    return program, clone, stats


class TestSemanticsPreserved:
    CASES = [
        "func main() { return 2 + 3 * 4; }",
        "func main() { var a = array(8); a[3] = 5; return a[3]; }",
        """func main() {
             var s = 0;
             for (var i = 0; i < 10; i = i + 1) { s = s + i * 2; }
             return s;
           }""",
        """func f(x) { return x * x; }
           func main() { return f(3) + f(4); }""",
        """func main() {
             var x = 1;
             if (x > 0) { x = x + 41; } else { x = -1; }
             return x;
           }""",
    ]

    @pytest.mark.parametrize("source", CASES)
    def test_same_result_fewer_or_equal_instructions(self, source):
        program, clone, _ = optimized(source)
        base = run_program(program)
        opt = run_program(clone)
        assert base.return_value == opt.return_value
        assert opt.instructions <= base.instructions

    def test_all_workloads_preserved(self, goldens):
        from repro.workloads import all_workloads
        for w in all_workloads():
            program = w.compile()
            clone = program.copy()
            optimize_program(clone)
            res = run_program(clone)
            assert res.return_value \
                == goldens[w.name]["return_value"], w.name


class TestTransformations:
    def test_constant_folding(self):
        _, clone, stats = optimized(
            "func main() { return (2 + 3) * (4 - 1); }")
        assert stats.folded >= 2
        # the whole expression collapses to one constant
        consts = [i for i in clone.main.code if i.op == Op.CONST]
        assert any(i.imm == 15 for i in consts)

    def test_dead_temp_elimination(self):
        program, clone, stats = optimized(
            "func main() { var x = 5; return x; }")
        # folding replaces computations; dead CONSTs disappear
        assert clone.main.n_slots <= program.main.n_slots
        assert stats.total >= 0
        verify_program(clone)

    def test_faulting_ops_never_removed(self):
        # the division faults at runtime and must keep doing so even
        # though its result is unused
        source = """
        func main() {
          var zero = 0;
          var unused = 1 / zero;
          return 7;
        }
        """
        program, clone, _ = optimized(source)
        from repro.errors import ExecutionError
        with pytest.raises(ExecutionError):
            run_program(clone)

    def test_dead_named_locals_removed(self):
        # liveness-driven global DCE (unlike the old temp-only sweep)
        # proves the named local dead and drops its definition
        source = """
        func main() {
          var dead = 123;
          return 5;
        }
        """
        program, clone, stats = optimized(source)
        assert not any(i.op == Op.CONST and i.imm == 123
                       for i in clone.main.code)
        assert stats.dead_removed >= 1
        from repro.runtime import run_program
        assert run_program(clone).return_value == 5

    def test_live_named_locals_kept(self):
        source = """
        func main() {
          var kept = 123;
          print(kept);
          return kept;
        }
        """
        program, clone, _ = optimized(source)
        from repro.runtime import run_program
        res = run_program(clone)
        assert res.return_value == 123
        assert res.printed == run_program(program).printed

    def test_branch_targets_remapped(self):
        source = """
        func main() {
          var s = 0;
          for (var i = 0; i < 6; i = i + 1) {
            var dead = 17;
            s = s + (1 + 1);
          }
          return s;
        }
        """
        _, clone, stats = optimized(source)
        verify_program(clone)
        assert run_program(clone).return_value == 12

    def test_copy_propagation_through_temps(self):
        # our codegen rarely emits MOVs into temps, so build the chain
        # by hand: t1 = const, t2 = t1, t3 = t2, return uses t3
        from repro.bytecode import FunctionBuilder, Program
        b = FunctionBuilder("main")
        t1, t2, t3 = b.temp(), b.temp(), b.temp()
        b.const(t1, 42)
        b.mov(t2, t1)
        b.mov(t3, t2)
        b.ret(t3)
        fn = b.build()
        program = Program()
        program.add(fn)
        stats = optimize_program(program)  # verifies after every pass
        assert stats.copies_propagated >= 1
        assert run_program(program).return_value == 42
        # the chain collapses: at most a const + ret remain
        assert len(fn.code) <= 3

    def test_signed_zeros_keep_distinct_value_numbers(self):
        # -0.0 == 0.0 in Python, but printing and division tell them
        # apart: the two constants must not share a value number
        program, clone, _ = optimized("""
        func main() {
          var a = 0.0;
          var b = -0.0;
          print(a);
          print(b);
          print(b * 3.0);
        }
        """)
        # compared by repr: the printed values are floats, and as
        # floats the two zeros compare equal
        for prog in (program, clone):
            printed = run_program(prog).printed
            assert [repr(v) for v in printed] == ["0.0", "-0.0", "-0.0"]


class TestPipelineIntegration:
    def test_optimize_flag(self):
        from repro.jrpm import Jrpm
        src = ("func main() { var s = 0; "
               "for (var i = 0; i < 40; i = i + 1) "
               "{ s = s + i * (2 + 3); } return s; }")
        plain = Jrpm(source=src).run(simulate_tls=False)
        opt = Jrpm(source=src, optimize=True).run(simulate_tls=False)
        assert plain.sequential.return_value \
            == opt.sequential.return_value
        assert opt.sequential.cycles <= plain.sequential.cycles

    def test_user_program_not_mutated(self):
        from repro.jrpm import Jrpm
        program = compile_source(
            "func main() { return (1 + 2) * 3; }")
        before = [i.render() for i in program.main.code]
        Jrpm(program=program, optimize=True).run(simulate_tls=False)
        after = [i.render() for i in program.main.code]
        assert before == after
