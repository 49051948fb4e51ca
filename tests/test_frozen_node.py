"""The immutable-node kernel: :func:`repro.hashcons.frozen_node`.

Every node class on the request path is built by ``frozen_node``: a
frozen dataclass whose ``__init__`` is generated by ``repro.hashcons``
instead of ``dataclasses``.  One parametrized test covers every such
class in the package: construction (positional, keyword, defaults)
agrees with the fields, a field cannot be assigned, and
``dataclasses.replace``, ``copy`` and pickling keep ``==`` and
``hash``.  A twin-class test pins
the ``__init__`` to the one ``dataclasses`` itself would generate.  The
structural hash is salted per process, so ``make test-canonical`` runs
this file under two ``PYTHONHASHSEED`` values.
"""

from __future__ import annotations

import copy
import dataclasses
import importlib
import inspect
import pickle
import pkgutil
from dataclasses import FrozenInstanceError, field

import pytest

import repro
from repro.errors import SchemaError
from repro.hashcons import cached_structural_hash, frozen_node
from repro.sql import ast
from repro.sql.schema import Attribute, Schema
from repro.sql.scope import Frame
from repro.udp.trace import ProofStep
from repro.usr import terms
from repro.usr.predicates import AtomPred, EqPred, NePred
from repro.usr.spnf import NormalTerm
from repro.usr.values import (
    Agg,
    Attr,
    ConcatTuple,
    ConstVal,
    Func,
    TupleCons,
    TupleVar,
)


def _node_classes():
    """Every class in the package that ``frozen_node`` built."""
    found = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for obj in vars(module).values():
            if (
                isinstance(obj, type)
                and obj.__module__ == info.name
                and dataclasses.is_dataclass(obj)
                and obj.__dataclass_params__.frozen
                and not obj.__dataclass_params__.init
            ):
                found[f"{obj.__module__}.{obj.__qualname__}"] = obj
    return found


def _schema():
    return Schema("s", (Attribute("a"), Attribute("b", "string")))


def _t():
    return TupleVar("t")


def _rel():
    return terms.Rel("r", _t())


def _eq():
    return EqPred(Attr(_t(), "a"), ConstVal(1))


#: One freshly built sample per node class, by qualified name.
SAMPLES = {
    "repro.sql.ast.ColumnRef": lambda: ast.ColumnRef("x", "a"),
    "repro.sql.ast.Constant": lambda: ast.Constant(3),
    "repro.sql.ast.FuncCall": lambda: ast.FuncCall("f", (ast.ColumnRef("x", "a"),)),
    "repro.sql.ast.AggCall": lambda: ast.AggCall("sum", ast.TableRef("r")),
    "repro.sql.ast.BinPred": lambda: ast.BinPred(
        "=", ast.ColumnRef("x", "a"), ast.Constant(1)
    ),
    "repro.sql.ast.NotPred": lambda: ast.NotPred(ast.TruePred()),
    "repro.sql.ast.AndPred": lambda: ast.AndPred(ast.TruePred(), ast.FalsePred()),
    "repro.sql.ast.OrPred": lambda: ast.OrPred(ast.TruePred(), ast.FalsePred()),
    "repro.sql.ast.TruePred": lambda: ast.TruePred(),
    "repro.sql.ast.FalsePred": lambda: ast.FalsePred(),
    "repro.sql.ast.Exists": lambda: ast.Exists(ast.TableRef("r"), True),
    "repro.sql.ast.InPred": lambda: ast.InPred(
        ast.ColumnRef("x", "a"), ast.TableRef("r"), True
    ),
    "repro.sql.ast.Star": lambda: ast.Star(),
    "repro.sql.ast.TableStar": lambda: ast.TableStar("x"),
    "repro.sql.ast.ExprAs": lambda: ast.ExprAs(ast.ColumnRef("x", "a"), "a"),
    "repro.sql.ast.TableRef": lambda: ast.TableRef("r"),
    "repro.sql.ast.FromItem": lambda: ast.FromItem(ast.TableRef("r"), "x"),
    "repro.sql.ast.Select": lambda: ast.Select(
        (ast.Star(),),
        (ast.FromItem(ast.TableRef("r"), "x"),),
        ast.TruePred(),
        (ast.ColumnRef("x", "a"),),
        True,
    ),
    "repro.sql.ast.Where": lambda: ast.Where(ast.TableRef("r"), ast.TruePred()),
    "repro.sql.ast.UnionAll": lambda: ast.UnionAll(ast.TableRef("r"), ast.TableRef("s")),
    "repro.sql.ast.Except": lambda: ast.Except(ast.TableRef("r"), ast.TableRef("s")),
    "repro.sql.ast.Intersect": lambda: ast.Intersect(
        ast.TableRef("r"), ast.TableRef("s")
    ),
    "repro.sql.ast.DistinctQuery": lambda: ast.DistinctQuery(ast.TableRef("r")),
    "repro.sql.ast.GroupBy": lambda: ast.GroupBy(
        ast.TableRef("r"), (ast.ColumnRef("x", "a"),)
    ),
    "repro.sql.schema.Attribute": lambda: Attribute("a", "string"),
    "repro.sql.schema.Schema": lambda: Schema(
        "s", (Attribute("a"), Attribute("b")), True
    ),
    "repro.sql.scope.Frame": lambda: Frame((("x", _schema()),)),
    "repro.usr.values.TupleVar": _t,
    "repro.usr.values.Attr": lambda: Attr(_t(), "a"),
    "repro.usr.values.ConstVal": lambda: ConstVal(3),
    "repro.usr.values.Func": lambda: Func("f", (_t(), ConstVal("c"))),
    "repro.usr.values.Agg": lambda: Agg("sum", "v", _schema(), terms.Rel("r", TupleVar("v"))),
    "repro.usr.values.TupleCons": lambda: TupleCons((("a", ConstVal(1)),)),
    "repro.usr.values.ConcatTuple": lambda: ConcatTuple(
        ((_t(), _schema()), (TupleVar("u"), None))
    ),
    "repro.usr.predicates.EqPred": _eq,
    "repro.usr.predicates.NePred": lambda: NePred(Attr(_t(), "a"), ConstVal(1)),
    "repro.usr.predicates.AtomPred": lambda: AtomPred("<", (Attr(_t(), "a"), ConstVal(1))),
    "repro.usr.terms._Zero": lambda: terms._Zero(),
    "repro.usr.terms._One": lambda: terms._One(),
    "repro.usr.terms.Add": lambda: terms.Add((_rel(), terms.Rel("s", _t()))),
    "repro.usr.terms.Mul": lambda: terms.Mul((_rel(), terms.Pred(_eq()))),
    "repro.usr.terms.Sum": lambda: terms.Sum("t", _schema(), _rel()),
    "repro.usr.terms.Squash": lambda: terms.Squash(_rel()),
    "repro.usr.terms.Not": lambda: terms.Not(_rel()),
    "repro.usr.terms.Pred": lambda: terms.Pred(_eq()),
    "repro.usr.terms.Rel": _rel,
    "repro.usr.terms.QueryDenotation": lambda: terms.QueryDenotation("t", _schema(), _rel()),
    "repro.usr.spnf.NormalTerm": lambda: NormalTerm(
        (("t", _schema()),),
        (_eq(),),
        (("r", _t()),),
        (NormalTerm(),),
        None,
    ),
    "repro.udp.trace.ProofStep": lambda: ProofStep("structural", "detail"),
}

NODE_CLASSES = _node_classes()


def test_every_node_class_has_a_sample():
    assert sorted(NODE_CLASSES) == sorted(SAMPLES)


def _values(node):
    return {f.name: getattr(node, f.name) for f in dataclasses.fields(node)}


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_node_kernel(name):
    cls = NODE_CLASSES[name]
    node = SAMPLES[name]()
    assert type(node) is cls
    values = _values(node)
    fields = dataclasses.fields(cls)

    # Positional and keyword construction rebuild the node.
    for twin in (cls(*values.values()), cls(**values)):
        assert twin == node and hash(twin) == hash(node)
        assert _values(twin) == values

    # Omitted arguments take the declared defaults.
    required = [getattr(node, f.name) for f in fields if f.default is dataclasses.MISSING]
    bare = cls(*required)
    for f in fields:
        if f.default is not dataclasses.MISSING:
            assert getattr(bare, f.name) == f.default

    # Structurally equal fresh nodes hash equal.
    fresh = SAMPLES[name]()
    assert fresh == node and hash(fresh) == hash(node)

    # Frozen.
    for f in fields:
        with pytest.raises(FrozenInstanceError):
            setattr(node, f.name, values[f.name])
        with pytest.raises(FrozenInstanceError):
            delattr(node, f.name)
    with pytest.raises(FrozenInstanceError):
        node.extra = 1

    # replace, copy and pickle keep == and hash; the salted hash never
    # survives pickling.
    hash(node)
    str(node)
    clones = [
        dataclasses.replace(node),
        copy.copy(node),
        copy.deepcopy(node),
        pickle.loads(pickle.dumps(node)),
    ]
    for clone in clones:
        assert clone == node and hash(clone) == hash(node)
        assert _values(clone) == values
    assert "_hash" not in vars(pickle.loads(pickle.dumps(node)))


def test_interned_leaves_stay_identical():
    assert TupleVar("t") is TupleVar("t")
    assert ConstVal(3) is ConstVal(3)
    assert ConstVal("c") is ConstVal("c")
    assert ConstVal(True) is not ConstVal(1)
    leaf = TupleVar("t")
    h = hash(leaf)
    assert TupleVar("t") is leaf and hash(TupleVar("t")) == h
    assert TupleVar(name="t") is leaf
    # Reconstruction allocates a fresh (equal) instance, never hands out
    # the interned one to be overwritten.
    clone = pickle.loads(pickle.dumps(leaf))
    assert clone == leaf and hash(clone) == h
    assert TupleVar("t") is leaf


def test_symmetric_predicates_store_one_orientation():
    left, right = Attr(_t(), "a"), ConstVal(1)
    for cls in (EqPred, NePred):
        assert cls(left, right) == cls(right, left)
        assert _values(cls(left, right)) == _values(cls(right=left, left=right))
        assert hash(cls(left, right)) == hash(cls(right, left))


def test_post_init_still_validates():
    with pytest.raises(SchemaError):
        Schema("s", (Attribute("a"), Attribute("a")))
    with pytest.raises(ValueError):
        ProofStep("no-such-axiom")


def _twin_body():
    """A class body exercising every ``__init__`` feature ``frozen_node`` keeps."""

    class Node:
        a: int
        b: tuple
        c: int = 3

        def __post_init__(self):
            if self.a < 0:
                raise ValueError("negative")
            object.__setattr__(self, "seen", (self.a, self.b, self.c))

    return Node


def test_init_matches_dataclasses():
    ours = frozen_node(_twin_body())
    ref = dataclasses.dataclass(frozen=True)(_twin_body())

    ours_params = inspect.signature(ours).parameters
    ref_params = inspect.signature(ref).parameters
    assert list(ours_params) == list(ref_params) == ["a", "b", "c"]
    for name in ours_params:
        assert ours_params[name].kind == ref_params[name].kind
        has_default = ours_params[name].default is not inspect.Parameter.empty
        assert has_default == (ref_params[name].default is not inspect.Parameter.empty)
    assert ours_params["c"].default == ref_params["c"].default == 3

    for args, kwargs in [
        ((1, ()), {}),
        ((1, (2,), 5), {}),
        ((), {"a": 1, "b": (), "c": 4}),
        ((1,), {"b": (9, 8)}),
    ]:
        mine, theirs = ours(*args, **kwargs), ref(*args, **kwargs)
        assert _values(mine) == _values(theirs)
        assert mine.seen == theirs.seen
        assert repr(mine).replace("Node", "") == repr(theirs).replace("Node", "")
    for cls in (ours, ref):
        with pytest.raises(TypeError):
            cls(1)
        with pytest.raises(TypeError):
            cls(1, (), 3, 4)
        with pytest.raises(ValueError):
            cls(-1, ())
        with pytest.raises(FrozenInstanceError):
            cls(1, ()).a = 2


def test_own_init_is_kept():
    @frozen_node
    class Pair:
        left: int
        right: int

        def __init__(self, left, right):
            low, high = sorted((left, right))
            object.__setattr__(self, "left", low)
            object.__setattr__(self, "right", high)

    assert _values(Pair(2, 1)) == {"left": 1, "right": 2}


def test_cached_hash_is_the_structural_hash():
    @cached_structural_hash
    @frozen_node
    class One:
        x: object

    @cached_structural_hash
    @frozen_node
    class Two:
        x: object
        y: object

    @cached_structural_hash
    @frozen_node
    class Nothing:
        pass

    assert hash(One(5)) == hash(("One", 5))
    assert hash(Two(5, "y")) == hash(("Two", 5, "y"))
    assert hash(Nothing()) == hash(("Nothing",))
    node = Two(1, 2)
    assert "_hash" not in vars(node)
    assert hash(node) == hash(node) and vars(node)["_hash"] == hash(node)


@pytest.mark.parametrize(
    "spec",
    [
        field(kw_only=True),
        field(default=1, init=False),
        field(default_factory=list),
    ],
    ids=["kw_only", "init_false", "default_factory"],
)
def test_unsupported_fields_are_refused(spec):
    node = type("Node", (), {"__annotations__": {"a": int}, "a": spec})
    with pytest.raises(TypeError):
        frozen_node(node)
