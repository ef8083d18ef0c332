"""Each frozen node stores its dataclass hash on first use; one
``simplify_formula`` call simplifies each distinct subterm once.  These
tests hold the stored hash to the dataclass one, keep it out of pickles,
and hold the memoized simplifier to a memo-free fixpoint."""
import dataclasses
import os
import pickle
import random
import subprocess
import sys

import casmkit.ast
import casmkit.symexec
from casmkit.ast import (
    BOOL, And, App, Call, Choose, ChooseCtl, Cond, Const, Eq, FunctionDecl,
    Ite, Let, Member, NamedRule, Not, Or, Par, Program, SetExpr, Sort,
    Update, Var, term_size,
)
from casmkit.parser import parse_or_raise
from casmkit.programs import traffic_light_source
from casmkit.symexec import (
    Symbol, SymRef, _simp, format_symexpr, simplify_formula,
)

from fuzzing import mixed_formula
from rings import ring_source

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")

CACHED = (Sort, FunctionDecl, Const, Var, App, Not, And, Or, Eq, Member,
          Ite, SymRef, Symbol, SetExpr, Update, Cond, Par, Choose, Let, Call,
          ChooseCtl, NamedRule, Program)


def one_of_each():
    """Fresh, never hashed instances of every cached class."""
    mode = Sort("Mode", "enum", ("A", "B"))
    flag = Symbol("beta", BOOL)
    x = App("x")
    update = Update("mode", (), Const("B"))
    main = NamedRule("main", (), (Cond(Eq(App("mode"), Const("A")),
                                       (update,)),))
    return [
        mode, FunctionDecl("mode", (), mode, "controlled", (((), "A"),)),
        Const(1), Var("v"), x, Not(x), And(x, Const(True)), Or(x, x),
        Eq(x, Const(0)), Member(App("mode"), ("B", "A")),
        Ite(x, Const(1), Const(2)), SymRef(flag), flag, SetExpr(("B", "A")),
        update, Cond(x, (update,), ()), Par((update,)),
        Choose("c", SetExpr(sort_name="Mode"), (update,)),
        Let("l", x, (update,)), Call("helper", (x,)), ChooseCtl(7), main,
        parse_or_raise(traffic_light_source()),
    ]


def field_hash(node):
    """What the generated dataclass ``__hash__`` returns."""
    return hash(tuple(getattr(node, f.name) for f in dataclasses.fields(node)
                      if f.compare))


def test_every_frozen_node_class_is_cached_and_covered():
    frozen = {obj for module in (casmkit.ast, casmkit.symexec)
              for obj in vars(module).values()
              if isinstance(obj, type) and dataclasses.is_dataclass(obj)
              and obj.__dataclass_params__.frozen}
    assert frozen == set(CACHED)
    assert {type(node) for node in one_of_each()} == set(CACHED)


def test_hash_equals_the_dataclass_hash_before_and_after_first_use():
    for i in range(len(CACHED)):
        node = one_of_each()[i]
        want = field_hash(node)
        assert "_hash" not in node.__dict__, type(node).__name__
        assert hash(node) == want, type(node).__name__
        assert node.__dict__["_hash"] == want
        assert hash(node) == want == field_hash(node)


def test_pickle_leaves_the_stored_hash_behind():
    program = parse_or_raise(traffic_light_source())
    hash(program)
    hash(program.unsafe)
    copy = pickle.loads(pickle.dumps(program))
    assert copy == program
    assert "_hash" not in copy.__dict__
    assert "_hash" not in copy.unsafe.__dict__
    assert hash(copy) == hash(program)


def run_python(code, hashseed, *args):
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed),
               PYTHONPATH=os.path.abspath(SRC))
    return subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          env=env, check=True, capture_output=True,
                          text=True, timeout=120).stdout


def test_pickled_nodes_are_found_under_another_hash_seed(tmp_path):
    """String hashes differ between processes, so a hash stored in one
    and unpickled in another would miss equal keys."""
    path = tmp_path / "nodes.pickle"
    run_python("""if True:
        import pickle, sys
        from casmkit.parser import parse_or_raise
        from casmkit.programs import traffic_light_source
        program = parse_or_raise(traffic_light_source())
        nodes = (program.unsafe, program)
        {node: None for node in nodes}
        with open(sys.argv[1], "wb") as fh:
            pickle.dump(nodes, fh)
        """, 1, path)
    out = run_python("""if True:
        import pickle, sys
        from casmkit.parser import parse_or_raise
        from casmkit.programs import traffic_light_source
        program = parse_or_raise(traffic_light_source())
        table = {program.unsafe: "unsafe", program: "program"}
        with open(sys.argv[1], "rb") as fh:
            unsafe, loaded = pickle.load(fh)
        print(table.get(unsafe), table.get(loaded))
        """, 2, path)
    assert out.split() == ["unsafe", "program"]


def test_protect_output_does_not_depend_on_the_hash_seed(tmp_path):
    source = tmp_path / "ring4.casm"
    source.write_text(ring_source(4))
    outs = []
    for hashseed in (1, 2):
        out = tmp_path / f"seed{hashseed}"
        run_python("from casmkit.cli import main; main()", hashseed,
                   "protect", source, "--device-seed", 42,
                   "--challenge-bits", 16, "--response-bits", 16,
                   "--out", out)
        outs.append(out)
    for name in ("protected.casm", "enrollment.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


class _NoMemo(dict):
    """A memo that forgets every entry."""

    def __setitem__(self, key, value):
        pass


def unmemoized(f):
    """``simplify_formula`` with every subterm simplified afresh."""
    out = f
    for _ in range(8):
        nxt = _simp(out, None, _NoMemo())
        if nxt == out:
            break
        out = nxt
    return f if term_size(out) > term_size(f) else out


def test_memoized_simplifier_matches_a_memo_free_fixpoint():
    rng = random.Random(7)
    changed = 0
    for _ in range(2000):
        f = mixed_formula(rng)
        got, want = simplify_formula(f), unmemoized(f)
        assert format_symexpr(got) == format_symexpr(want), f
        changed += got != f
    assert changed > 1000
