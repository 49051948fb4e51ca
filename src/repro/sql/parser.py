"""Recursive-descent parser for the Fig. 2 SQL fragment and input programs.

Two entry points:

* :func:`parse_query` — parse a single SQL query;
* :func:`parse_program` — parse a sequence of declaration statements plus
  ``verify q1 == q2;`` goals.

The parser is a classical recursive-descent parser over the token stream from
:mod:`repro.sql.lexer`, with one spot of bounded backtracking to disambiguate
parenthesised predicates from parenthesised expressions.

Two input caps keep resolution, compilation and normalization — all
recursive over the tree the parser builds — inside Python's stack.  An
input past either raises :class:`~repro.errors.InputLimitError`.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.errors import InputLimitError, ParseError
from repro.sql.ast import (
    AggCall,
    AndPred,
    BinPred,
    ColumnRef,
    Constant,
    DistinctQuery,
    Except,
    Exists,
    Expr,
    ExprAs,
    FalsePred,
    FromItem,
    FuncCall,
    InPred,
    Intersect,
    NotPred,
    OrPred,
    Pred,
    Projection,
    Query,
    Select,
    Star,
    TableRef,
    TableStar,
    TruePred,
    UnionAll,
    is_aggregate_name,
)
from repro.sql.lexer import Token, tokenize
from repro.sql.program import (
    ForeignKeyDecl,
    IndexDecl,
    KeyDecl,
    Program,
    SchemaDecl,
    TableDecl,
    VerifyStmt,
    ViewDecl,
)
from repro.sql.schema import Attribute, Schema

#: Comparison operators; ``=``/``<>`` are interpreted, the rest opaque.
COMPARISON_OPS = ("=", "<>", "<", "<=", ">", ">=")

#: Deepest parenthesis nesting accepted; every subquery sits in its own
#: parentheses, so this also caps subquery nesting.  The 91-rule corpus
#: nests at most 2 deep; without the cap, 200 nested subqueries
#: overflowed the stack (150 still proved).
MAX_NESTING_DEPTH = 32

#: Most terms accepted in one ``AND`` or ``OR`` chain.  The corpus
#: maximum is 6 (an ``AND`` chain; it has no ``OR``); without the cap an
#: ``OR`` chain overflowed the stack at 300 terms and an ``AND`` chain
#: at 1000.
MAX_CHAIN_TERMS = 64


def _check_nesting(tokens: List[Token]) -> None:
    depth = 0
    for token in tokens:
        if token.kind == "LPAREN":
            depth += 1
            if depth > MAX_NESTING_DEPTH:
                raise InputLimitError(
                    f"parentheses nest deeper than {MAX_NESTING_DEPTH} "
                    f"(line {token.line}, column {token.column})"
                )
        elif token.kind == "RPAREN":
            depth -= 1


class _Parser:
    def __init__(self, tokens: List[Token]) -> None:
        _check_nesting(tokens)
        self._tokens = tokens
        self._pos = 0

    # -- token plumbing ------------------------------------------------------

    def _peek(self, offset: int = 0) -> Optional[Token]:
        index = self._pos + offset
        if index < len(self._tokens):
            return self._tokens[index]
        return None

    def _advance(self) -> Token:
        token = self._peek()
        if token is None:
            raise ParseError("unexpected end of input")
        self._pos += 1
        return token

    def _at_keyword(self, word: str) -> bool:
        token = self._peek()
        return token is not None and token.is_keyword(word)

    def _at_kind(self, kind: str) -> bool:
        token = self._peek()
        return token is not None and token.kind == kind

    def _accept_keyword(self, word: str) -> bool:
        if self._at_keyword(word):
            self._pos += 1
            return True
        return False

    def _accept_kind(self, kind: str) -> Optional[Token]:
        if self._at_kind(kind):
            return self._advance()
        return None

    def _expect_keyword(self, word: str) -> Token:
        token = self._peek()
        if token is None or not token.is_keyword(word):
            raise self._error(f"expected keyword {word.upper()!r}")
        return self._advance()

    def _expect_kind(self, kind: str) -> Token:
        token = self._peek()
        if token is None or token.kind != kind:
            raise self._error(f"expected {kind}")
        return self._advance()

    def _error(self, message: str) -> ParseError:
        token = self._peek()
        if token is None:
            return ParseError(f"{message}, found end of input")
        return ParseError(
            f"{message}, found {token.kind}({token.value!r})", token.line, token.column
        )

    def at_end(self) -> bool:
        return self._pos >= len(self._tokens)

    # -- programs --------------------------------------------------------

    def parse_program(self) -> Program:
        program = Program()
        while not self.at_end():
            program.statements.append(self._statement())
        return program

    def _statement(self):
        if self._accept_keyword("schema"):
            stmt = self._schema_decl()
        elif self._accept_keyword("table"):
            stmt = self._table_decl()
        elif self._accept_keyword("key"):
            stmt = self._key_decl()
        elif self._accept_keyword("foreign"):
            self._expect_keyword("key")
            stmt = self._foreign_key_decl()
        elif self._accept_keyword("view"):
            stmt = self._view_decl()
        elif self._accept_keyword("index"):
            stmt = self._index_decl()
        elif self._accept_keyword("verify"):
            stmt = self._verify_stmt()
        else:
            raise self._error("expected a statement")
        self._expect_kind("SEMI")
        return stmt

    def _schema_decl(self) -> SchemaDecl:
        name = self._expect_kind("IDENT").value
        self._expect_kind("LPAREN")
        attrs: List[Attribute] = []
        generic = False
        while True:
            if self._accept_kind("QQ"):
                generic = True
            else:
                attr_name = self._expect_kind("IDENT").value
                attr_type = "int"
                if self._accept_kind("COLON"):
                    attr_type = self._type_name()
                attrs.append(Attribute(attr_name, attr_type))
            if not self._accept_kind("COMMA"):
                break
        self._expect_kind("RPAREN")
        return SchemaDecl(Schema(name, tuple(attrs), generic=generic))

    def _type_name(self) -> str:
        token = self._peek()
        if token is not None and token.kind in ("IDENT", "KEYWORD"):
            return self._advance().value
        raise self._error("expected a type name")

    def _table_decl(self) -> TableDecl:
        name = self._expect_kind("IDENT").value
        self._expect_kind("LPAREN")
        schema_name = self._expect_kind("IDENT").value
        self._expect_kind("RPAREN")
        return TableDecl(name, schema_name)

    def _ident_list(self) -> Tuple[str, ...]:
        names = [self._expect_kind("IDENT").value]
        while self._accept_kind("COMMA"):
            names.append(self._expect_kind("IDENT").value)
        return tuple(names)

    def _key_decl(self) -> KeyDecl:
        table = self._expect_kind("IDENT").value
        self._expect_kind("LPAREN")
        attrs = self._ident_list()
        self._expect_kind("RPAREN")
        return KeyDecl(table, attrs)

    def _foreign_key_decl(self) -> ForeignKeyDecl:
        table = self._expect_kind("IDENT").value
        self._expect_kind("LPAREN")
        attrs = self._ident_list()
        self._expect_kind("RPAREN")
        self._expect_keyword("references")
        ref_table = self._expect_kind("IDENT").value
        self._expect_kind("LPAREN")
        ref_attrs = self._ident_list()
        self._expect_kind("RPAREN")
        return ForeignKeyDecl(table, attrs, ref_table, ref_attrs)

    def _view_decl(self) -> ViewDecl:
        name = self._expect_kind("IDENT").value
        query = self.parse_query()
        return ViewDecl(name, query)

    def _index_decl(self) -> IndexDecl:
        name = self._expect_kind("IDENT").value
        self._expect_keyword("on")
        table = self._expect_kind("IDENT").value
        self._expect_kind("LPAREN")
        attrs = self._ident_list()
        self._expect_kind("RPAREN")
        return IndexDecl(name, table, attrs)

    def _verify_stmt(self) -> VerifyStmt:
        left = self.parse_query()
        token = self._peek()
        if token is None or token.kind != "OP" or token.value != "==":
            raise self._error("expected '==' between the two verify queries")
        self._advance()
        right = self.parse_query()
        return VerifyStmt(left, right)

    # -- queries -----------------------------------------------------------

    def parse_query(self) -> Query:
        query = self._query_primary()
        while True:
            if self._at_keyword("union"):
                self._advance()
                if self._accept_keyword("all"):
                    right = self._query_primary()
                    query = UnionAll(query, right)
                else:
                    # Set-semantics UNION is sugar for DISTINCT(UNION ALL)
                    # (the Sec. 6.4 syntactic rewrite, implemented).
                    right = self._query_primary()
                    query = DistinctQuery(UnionAll(query, right))
            elif self._at_keyword("except"):
                self._advance()
                right = self._query_primary()
                query = Except(query, right)
            elif self._at_keyword("intersect"):
                self._advance()
                right = self._query_primary()
                query = Intersect(query, right)
            else:
                return query

    def _query_primary(self) -> Query:
        if self._accept_keyword("distinct"):
            # Standalone DISTINCT q combinator (Fig. 2).
            return DistinctQuery(self._query_primary())
        if self._at_keyword("select"):
            return self._select()
        if self._accept_kind("LPAREN"):
            query = self.parse_query()
            self._expect_kind("RPAREN")
            return query
        token = self._accept_kind("IDENT")
        if token is not None:
            return TableRef(token.value)
        raise self._error("expected a query")

    def _select(self) -> Query:
        self._expect_keyword("select")
        distinct = self._accept_keyword("distinct")
        projections = self._projection_list()
        from_items: Tuple[FromItem, ...] = ()
        if self._accept_keyword("from"):
            from_items = self._from_items()
        where = None
        if self._accept_keyword("where"):
            where = self._predicate()
        group_by: Tuple[ColumnRef, ...] = ()
        if self._accept_keyword("group"):
            self._expect_keyword("by")
            group_by = self._column_ref_list()
        having = None
        if self._accept_keyword("having"):
            having = self._predicate()
        query: Query = Select(
            projections, from_items, where, group_by, distinct=distinct
        )
        if having is not None:
            # HAVING is a filter over the grouped result; desugaring resolves
            # aggregate references, so we wrap in an outer SELECT * ... WHERE.
            from repro.sql.desugar import attach_having

            query = attach_having(query, having)
        return query

    def _column_ref_list(self) -> Tuple[ColumnRef, ...]:
        refs = [self._column_ref()]
        while self._accept_kind("COMMA"):
            refs.append(self._column_ref())
        return tuple(refs)

    def _column_ref(self) -> ColumnRef:
        first = self._expect_kind("IDENT").value
        if self._accept_kind("DOT"):
            second = self._expect_kind("IDENT").value
            return ColumnRef(first, second)
        return ColumnRef("", first)

    def _projection_list(self) -> Tuple[Projection, ...]:
        items = [self._projection()]
        while self._accept_kind("COMMA"):
            items.append(self._projection())
        return tuple(items)

    def _projection(self) -> Projection:
        if self._accept_kind("STAR"):
            return Star()
        # x.* form: IDENT DOT STAR
        token = self._peek()
        dot = self._peek(1)
        star = self._peek(2)
        if (
            token is not None
            and token.kind == "IDENT"
            and dot is not None
            and dot.kind == "DOT"
            and star is not None
            and star.kind == "STAR"
        ):
            self._pos += 3
            return TableStar(token.value)
        expr = self._expression()
        alias = ""
        if self._accept_keyword("as"):
            alias = self._expect_kind("IDENT").value
        return ExprAs(expr, alias)

    def _from_items(self) -> Tuple[FromItem, ...]:
        items = [self._from_item()]
        while self._accept_kind("COMMA"):
            items.append(self._from_item())
        return tuple(items)

    def _from_item(self) -> FromItem:
        if self._accept_kind("LPAREN"):
            query = self.parse_query()
            self._expect_kind("RPAREN")
        else:
            name = self._expect_kind("IDENT").value
            query = TableRef(name)
        self._accept_keyword("as")
        alias_token = self._accept_kind("IDENT")
        if alias_token is not None:
            alias = alias_token.value
        elif isinstance(query, TableRef):
            alias = query.name
        else:
            raise self._error("subquery in FROM requires an alias")
        return FromItem(query, alias)

    # -- predicates ----------------------------------------------------------

    def _predicate(self) -> Pred:
        return self._or_pred()

    def _or_pred(self) -> Pred:
        left = self._and_pred()
        terms = 1
        while self._accept_keyword("or"):
            terms = self._count_chain_term(terms, "OR")
            right = self._and_pred()
            left = OrPred(left, right)
        return left

    def _and_pred(self) -> Pred:
        left = self._not_pred()
        terms = 1
        while self._accept_keyword("and"):
            terms = self._count_chain_term(terms, "AND")
            right = self._not_pred()
            left = AndPred(left, right)
        return left

    def _count_chain_term(self, terms: int, op: str) -> int:
        if terms >= MAX_CHAIN_TERMS:
            token = self._peek()
            where = (
                f" (line {token.line}, column {token.column})"
                if token is not None
                else ""
            )
            raise InputLimitError(
                f"{op} chain longer than {MAX_CHAIN_TERMS} terms{where}"
            )
        return terms + 1

    def _not_pred(self) -> Pred:
        if self._at_keyword("not"):
            # NOT EXISTS gets a dedicated node so it compiles to not(·).
            next_token = self._peek(1)
            if next_token is not None and next_token.is_keyword("exists"):
                self._pos += 2
                self._expect_kind("LPAREN")
                query = self.parse_query()
                self._expect_kind("RPAREN")
                return Exists(query, negated=True)
            self._advance()
            return NotPred(self._not_pred())
        return self._atom_pred()

    def _atom_pred(self) -> Pred:
        if self._accept_keyword("true"):
            return TruePred()
        if self._accept_keyword("false"):
            return FalsePred()
        if self._accept_keyword("exists"):
            self._expect_kind("LPAREN")
            query = self.parse_query()
            self._expect_kind("RPAREN")
            return Exists(query)
        if self._at_kind("LPAREN"):
            # Could be a parenthesised predicate or the left expression of a
            # comparison; try the predicate reading first and fall back.
            saved = self._pos
            self._advance()
            try:
                inner = self._predicate()
                self._expect_kind("RPAREN")
            except ParseError:
                self._pos = saved
            else:
                token = self._peek()
                is_comparison = (
                    token is not None
                    and (
                        (token.kind == "OP" and token.value in COMPARISON_OPS)
                        or token.is_keyword("like")
                    )
                )
                if not is_comparison:
                    return inner
                self._pos = saved
        return self._comparison()

    def _comparison(self) -> Pred:
        left = self._expression()
        token = self._peek()
        # e [NOT] IN (query)
        if token is not None and token.is_keyword("not"):
            follower = self._peek(1)
            if follower is not None and follower.is_keyword("in"):
                self._pos += 2
                self._expect_kind("LPAREN")
                query = self.parse_query()
                self._expect_kind("RPAREN")
                return InPred(left, query, negated=True)
        if token is not None and token.is_keyword("in"):
            self._advance()
            self._expect_kind("LPAREN")
            query = self.parse_query()
            self._expect_kind("RPAREN")
            return InPred(left, query)
        if token is not None and token.kind == "OP" and token.value in COMPARISON_OPS:
            op = self._advance().value
            right = self._expression()
            return BinPred(op, left, right)
        if token is not None and token.is_keyword("like"):
            self._advance()
            right = self._expression()
            return BinPred("LIKE", left, right)
        raise self._error("expected a comparison operator")

    # -- expressions ---------------------------------------------------------

    def _expression(self) -> Expr:
        left = self._atom_expr()
        while True:
            token = self._peek()
            if token is None:
                return left
            if token.kind in ("PLUS", "MINUS", "SLASH"):
                op = self._advance().value
                right = self._atom_expr()
                left = FuncCall(op, (left, right))
            elif token.kind == "STAR":
                # '*' only binds as multiplication when an operand follows;
                # a bare trailing '*' belongs to an enclosing projection.
                follower = self._peek(1)
                if follower is not None and follower.kind in (
                    "IDENT",
                    "INT",
                    "STRING",
                    "LPAREN",
                ):
                    self._advance()
                    right = self._atom_expr()
                    left = FuncCall("*", (left, right))
                else:
                    return left
            else:
                return left

    def _atom_expr(self) -> Expr:
        token = self._peek()
        if token is None:
            raise self._error("expected an expression")
        if token.kind == "INT":
            self._advance()
            return Constant(int(token.value))
        if token.kind == "STRING":
            self._advance()
            return Constant(token.value)
        if token.is_keyword("true"):
            self._advance()
            return Constant(True)
        if token.is_keyword("false"):
            self._advance()
            return Constant(False)
        if token.kind == "LPAREN":
            self._advance()
            expr = self._expression()
            self._expect_kind("RPAREN")
            return expr
        if token.kind == "IDENT":
            self._advance()
            next_token = self._peek()
            if next_token is not None and next_token.kind == "LPAREN":
                return self._call(token.value)
            if next_token is not None and next_token.kind == "DOT":
                self._advance()
                column = self._expect_kind("IDENT").value
                return ColumnRef(token.value, column)
            return ColumnRef("", token.value)
        raise self._error("expected an expression")

    def _call(self, name: str) -> Expr:
        """Parse ``name(...)`` — either agg(query), agg(expr), or f(args)."""
        self._expect_kind("LPAREN")
        if self._at_keyword("select") or self._at_keyword("distinct"):
            query = self.parse_query()
            self._expect_kind("RPAREN")
            return AggCall(name, query)
        # COUNT(*) — model the star operand as a distinguished column ref.
        if is_aggregate_name(name) and self._at_kind("STAR"):
            self._advance()
            self._expect_kind("RPAREN")
            return FuncCall(name.lower(), (ColumnRef("", "*"),))
        args: List[Expr] = []
        if not self._at_kind("RPAREN"):
            args.append(self._expression())
            while self._accept_kind("COMMA"):
                args.append(self._expression())
        self._expect_kind("RPAREN")
        if is_aggregate_name(name):
            return FuncCall(name.lower(), tuple(args))
        return FuncCall(name, tuple(args))


def parse_query(text: str) -> Query:
    """Parse a single SQL query from ``text``."""
    parser = _Parser(tokenize(text))
    query = parser.parse_query()
    if not parser.at_end():
        raise parser._error("trailing input after query")
    return query


def parse_program(text: str) -> Program:
    """Parse a full input program (declarations + verify goals)."""
    parser = _Parser(tokenize(text))
    return parser.parse_program()
