"""Union-find and congruence-closure tests."""

from hypothesis import given, strategies as st

from repro.logic.congruence import CongruenceClosure
from repro.logic.unionfind import UnionFind
from repro.usr.values import Attr, ConstVal, Func, TupleCons, TupleVar


# -- union-find -----------------------------------------------------------


def test_union_find_basics():
    uf = UnionFind()
    assert not uf.same("a", "b")
    assert uf.union("a", "b")
    assert uf.same("a", "b")
    assert not uf.union("a", "b")  # already merged


def test_union_find_transitivity():
    uf = UnionFind()
    uf.union("a", "b")
    uf.union("b", "c")
    assert uf.same("a", "c")


def test_union_find_classes():
    uf = UnionFind()
    uf.union("a", "b")
    uf.add("c")
    classes = {frozenset(group) for group in uf.classes()}
    assert frozenset({"a", "b"}) in classes
    assert frozenset({"c"}) in classes


@given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=30))
def test_union_find_is_equivalence_relation(pairs):
    uf = UnionFind()
    for a, b in pairs:
        uf.union(a, b)
    elements = list(uf.elements())
    for x in elements:
        assert uf.same(x, x)
        for y in elements:
            assert uf.same(x, y) == uf.same(y, x)


# -- congruence closure ---------------------------------------------------------


A, B, C, D, E = (TupleVar(n) for n in "abcde")


def test_transitive_equalities():
    cc = CongruenceClosure()
    cc.merge(A, B)
    cc.merge(B, C)
    assert cc.equal(A, C)
    assert not cc.equal(A, D)


def test_congruence_through_attributes():
    cc = CongruenceClosure()
    cc.add_term(Attr(A, "x"))
    cc.add_term(Attr(B, "x"))
    cc.merge(A, B)
    assert cc.equal(Attr(A, "x"), Attr(B, "x"))


def test_congruence_through_functions():
    cc = CongruenceClosure()
    fa = Func("f", (A,))
    fb = Func("f", (B,))
    cc.add_term(fa)
    cc.add_term(fb)
    cc.merge(A, B)
    assert cc.equal(fa, fb)
    # Different function symbol stays apart.
    assert not cc.equal(fa, Func("g", (B,)))


def test_paper_congruence_example():
    """Sec. 5.2: {a=b, c=d, b=e, f(a)=g(d)} ⊢ f(e) = g(c) ... up to classes."""
    a, b, c, d, e = (TupleVar(n) for n in "abcde")
    fa, fe = Func("f", (a,)), Func("f", (e,))
    gc, gd = Func("g", (c,)), Func("g", (d,))
    cc = CongruenceClosure()
    for term in (fa, fe, gc, gd):
        cc.add_term(term)
    cc.merge(a, b)
    cc.merge(c, d)
    cc.merge(b, e)
    cc.merge(fa, gd)
    assert cc.equal(fa, fe)       # congruence: a ~ e
    assert cc.equal(gc, gd)       # congruence: c ~ d
    assert cc.equal(fe, gc)       # through f(a) = g(d)


def test_new_terms_added_on_equal_query():
    cc = CongruenceClosure()
    cc.merge(A, B)
    # f(a)/f(b) were never registered; equal() must still see them congruent.
    assert cc.equal(Func("f", (A,)), Func("f", (B,)))


def test_nested_congruence():
    cc = CongruenceClosure()
    cc.merge(A, B)
    deep_a = Func("f", (Func("g", (Attr(A, "x"),)),))
    deep_b = Func("f", (Func("g", (Attr(B, "x"),)),))
    assert cc.equal(deep_a, deep_b)


def test_tuple_constructor_congruence():
    cc = CongruenceClosure()
    cc.merge(A, B)
    cons_a = TupleCons((("k", Attr(A, "k")),))
    cons_b = TupleCons((("k", Attr(B, "k")),))
    assert cc.equal(cons_a, cons_b)
    # Different field names are different constructors.
    cons_c = TupleCons((("j", Attr(A, "k")),))
    assert not cc.equal(cons_a, cons_c)


def test_constants_in_class():
    cc = CongruenceClosure()
    one = ConstVal(1)
    cc.merge(A, one)
    cc.merge(B, A)
    constants = cc.constants_in_class(B)
    assert one in constants


def test_classes_partition_nodes():
    cc = CongruenceClosure()
    cc.merge(A, B)
    cc.add_term(C)
    all_members = [m for group in cc.classes() for m in group]
    assert len(all_members) == len(set(all_members))


def test_copy_preserves_classes():
    cc = CongruenceClosure()
    cc.merge(A, B)
    clone = cc.copy()
    clone.merge(B, C)
    assert clone.equal(A, C)
    assert not cc.equal(A, C)


def test_queries_on_a_new_compound_term_restore_congruence():
    """``class_members`` and ``find`` on a term the closure has not seen
    must see it congruent to registered terms — and must not leave the
    closure in a state where a later ``equal`` misses the congruence."""
    cc = CongruenceClosure()
    cc.merge(A, B)
    cc.add_term(Attr(B, "a"))
    assert set(cc.class_members(Attr(A, "a"))) == {Attr(A, "a"), Attr(B, "a")}
    assert cc.equal(Attr(A, "a"), Attr(B, "a"))

    cc = CongruenceClosure()
    cc.merge(A, B)
    cc.add_term(Func("f", (B,)))
    assert cc.find(Func("f", (A,))) == cc.find(Func("f", (B,)))
    assert cc.equal(Func("f", (A,)), Func("f", (B,)))


def test_merge_many_reports_whether_the_closure_changed():
    cc = CongruenceClosure()
    assert not cc.merge_many([])
    assert cc.merge_many([(A, B)])
    assert not cc.merge_many([(A, B), (B, A)])
    assert cc.merge_many([(Attr(A, "x"), Attr(A, "x"))])
    assert cc.equal(Attr(A, "x"), Attr(B, "x"))
