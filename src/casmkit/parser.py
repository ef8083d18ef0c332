"""Text frontend for the ``.casm`` DSL.

Grammar (keywords lowercase, ``//`` comments, ASCII identifiers):

    program  := "asm" IDENT decl* ruleDef+
    decl     := "enum" IDENT "=" "{" IDENT ("," IDENT)* "}"
              | "int" IDENT "=" NUMBER ".." NUMBER
              | ("controlled"|"monitored"|"static") IDENT ":"
                    [sort ("," sort)* "->"] sort ["init" initVal]
              | "ctlstate" IDENT
              | "unsafe" formula
              | "constraint" formula
              | "enc" IDENT "{" IDENT ":" "[" NUMBER,* "]" ,* "}"   // protected
              | "condx" formula                                     // protected
    ruleDef  := "rule" IDENT ["(" IDENT ":" sort ,* ")"] ":" stmt+
    stmt     := "if" formula "then" stmt+ ["else" stmt+] "endif"
              | IDENT ["(" term,* ")"] ":=" term
              | "par" stmt+ "endpar"
              | "choose" IDENT "in" setExpr "do" stmt+ "endchoose"
              | "let" IDENT "=" term "in" stmt+ "endlet"
              | IDENT "(" term,* ")"
              | "challenge" NUMBER                                  // protected
    setExpr  := "{" const ("," const)* "}" | IDENT
    formula  := or-precedence chain over and, not, (=, !=, in), atoms;
                the set after "in" is a sort or "{" const,* "}"
    NUMBER   := "-"? [0-9]+                      // ASCII digits only
    IDENT    := [A-Za-z_] [A-Za-z0-9_]*          // unless a keyword

Rules without a parameter list are top-level machine rules and run on
every step; rules with a (possibly empty) parameter list are helpers and
run only when called.  A ``let`` binding term cannot use an unparenthesized
``in`` membership at top level, since ``in`` terminates the binding.
An ``unsafe``, ``constraint`` or ``condx`` formula may read functions
and literals declared after it.

Blanks are space, tab and carriage return.  Any other character outside a
token or comment, a non-ASCII digit included, is an E-SYNTAX error, and so
is a number longer than Python's int-string limit (4,300 digits by default).
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .ast import (
    BOOL, And, App, Call, Choose, ChooseCtl, Cond, Const, Eq, FunctionDecl,
    Ite, Let, Member, NamedRule, Not, Or, Par, Program, Rule, SetExpr, Sort,
    Term, Update, Value, Var, children, format_value, make_init,
    program_rules, validate_program,
)

KEYWORDS = {
    "asm", "enum", "int", "controlled", "monitored", "static", "init",
    "ctlstate", "unsafe", "constraint", "rule", "if", "then", "else",
    "endif", "par", "endpar", "choose", "in", "do", "endchoose", "let",
    "endlet", "and", "or", "not", "true", "false", "ite",
    "challenge", "enc", "condx",
}

_PUNCT = {
    ":=": "ASSIGN", "->": "ARROW", "..": "RANGE", "!=": "NEQ",
    "{": "LBRACE", "}": "RBRACE", "(": "LPAREN", ")": "RPAREN",
    ",": "COMMA", ":": "COLON", "=": "EQ", "[": "LBRACKET", "]": "RBRACKET",
}


@dataclass(frozen=True)
class SourceSpan:
    line: int
    column: int
    length: int = 1


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" | "warning"
    code: str
    message: str
    span: SourceSpan

    def render(self, filename: str = "<input>") -> str:
        return (f"{filename}:{self.span.line}:{self.span.column}: "
                f"{self.severity}[{self.code}]: {self.message}")


@dataclass(frozen=True)
class ProtectedExtras:
    """Dialect payload of a hardware-bound program file."""

    plain_sort: str
    enc: tuple[tuple[Value, tuple[int, ...]], ...]
    condx: Optional[Term]

    def enc_map(self) -> dict[Value, tuple[int, ...]]:
        return dict(self.enc)


@dataclass
class ParseResult:
    program: Optional[Program]
    diagnostics: list[Diagnostic]
    extras: Optional[ProtectedExtras] = None

    @property
    def ok(self) -> bool:
        return self.program is not None and \
            not any(d.severity == "error" for d in self.diagnostics)


class ParseFailure(Exception):
    def __init__(self, diagnostics: list[Diagnostic], filename: str = "<input>"):
        self.diagnostics = diagnostics
        super().__init__("; ".join(d.render(filename) for d in diagnostics))


class Token(NamedTuple):
    type: str
    value: str
    line: int
    column: int

    @property
    def span(self) -> SourceSpan:
        return SourceSpan(self.line, self.column, max(1, len(self.value)))


_new_tuple = tuple.__new__
"""Builds a ``Token`` without the named tuple's Python-level ``__new__``."""


class _SyntaxAbort(Exception):
    pass


# two-character punctuation first, so that ":=" is not read as ":" "="
_PUNCT_ALTS = "|".join(map(re.escape, sorted(_PUNCT, key=len, reverse=True)))

# one alternative per token class, tried in this order at each offset;
# OTHER takes any character no other class starts with
_SCAN = re.compile(rf"""
    (?P<NEWLINE>\n)
  | (?P<BLANK>[ \t\r]+)
  | (?P<COMMENT>//[^\n]*)
  | (?P<PUNCT>{_PUNCT_ALTS})
  | (?P<NUMBER>-?[0-9]+)
  | (?P<WORD>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<OTHER>.)
""", re.VERBOSE | re.DOTALL)


def tokenize(text: str) -> tuple[list[Token], list[Diagnostic]]:
    tokens: list[Token] = []
    diags: list[Diagnostic] = []
    line, line_start, end = 1, 0, len(text)
    for m in _SCAN.finditer(text):
        kind = m.lastgroup
        if kind == "BLANK":
            continue
        if kind == "NEWLINE":
            line += 1
            line_start = m.end()
            continue
        value = m.group()
        column = m.start() - line_start + 1
        if kind == "WORD":
            tokens.append(_new_tuple(Token, (
                value if value in KEYWORDS else "IDENT", value, line, column)))
        elif kind == "PUNCT":
            tokens.append(_new_tuple(Token, (_PUNCT[value], value, line,
                                             column)))
        elif kind == "NUMBER":
            tokens.append(_new_tuple(Token, ("NUMBER", value, line, column)))
        elif kind == "COMMENT":
            if m.end() == len(text):
                end = m.start()  # end of input sits before a trailing comment
        else:
            diags.append(Diagnostic("error", "E-SYNTAX",
                                    f"unexpected character {value!r}",
                                    SourceSpan(line, column)))
    tokens.append(Token("EOF", "", line, end - line_start + 1))
    return tokens, diags


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_STMT_END = {"else", "endif", "endpar", "endchoose", "endlet", "rule", "EOF"}

# Where a name that does not resolve is reported: of several such names
# the first is reported, by section in this order, then by token.
_UNSAFE, _CONSTRAINT, _CONDX, _HELPER, _MAIN = range(5)
_FORMULA_SCOPE = {_UNSAFE: frozenset(), _CONSTRAINT: frozenset(),
                  _CONDX: frozenset({"x"})}


class _Failure(NamedTuple):
    """A name that did not resolve, at token ``at`` of ``section``."""

    section: int
    at: int
    diagnostic: Diagnostic


class _Formula(NamedTuple):
    """An ``unsafe``, ``constraint`` or ``condx`` formula as read, with
    the failures of its names and the declarations they were resolved
    against."""

    term: Term
    failures: list[_Failure]
    section: int
    start: int
    declared: tuple[int, int]


class _Parser:
    def __init__(self, tokens: list[Token], diags: list[Diagnostic]):
        self.tokens = tokens
        self.pos = 0
        self.diags = diags
        self.sorts: list[Sort] = []
        self.sort_names: dict[str, Sort] = {}
        self.functions: list[FunctionDecl] = []
        self.fn_names: dict[str, FunctionDecl] = {}
        self.literals: dict[str, Sort] = {}
        self.ctl_name: Optional[str] = None
        self.unsafe: Optional[_Formula] = None
        self.constraints: list[_Formula] = []
        self.condx: Optional[_Formula] = None
        self.enc_sort: Optional[str] = None
        self.enc_entries: list[tuple[Value, tuple[int, ...]]] = []
        self.rule_spans: dict[str, SourceSpan] = {}
        # names are resolved as they are read: against the variables in
        # scope, then the literals, then the functions; a name that does
        # not resolve is recorded here, and parsing goes on, so that a
        # later syntax error is still the one reported
        self.scope: frozenset = frozenset()
        self.section = _MAIN
        self.failures: list[_Failure] = []
        # calls that name a function; they fail unless a rule of the
        # same name is defined, before or after them
        self.calls: list[_Failure] = []

    # -- token plumbing ----------------------------------------------------

    # the cursor never moves past the EOF sentinel, and no caller asks
    # accept() or expect() for EOF, so a match is never the sentinel

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.type != "EOF":
            self.pos += 1
        return tok

    def at(self, ttype: str) -> bool:
        return self.tokens[self.pos].type == ttype

    def accept(self, ttype: str) -> Optional[Token]:
        tok = self.tokens[self.pos]
        if tok.type == ttype:
            self.pos += 1
            return tok
        return None

    def expect(self, ttype: str, what: str = "") -> Token:
        tok = self.tokens[self.pos]
        if tok.type == ttype:
            self.pos += 1
            return tok
        shown = what or ttype.lower()
        self.error("E-SYNTAX", f"expected {shown}, found {tok.value or 'end of input'}",
                   tok.span)
        raise _SyntaxAbort()

    def error(self, code: str, message: str, span: SourceSpan) -> None:
        self.diags.append(Diagnostic("error", code, message, span))

    def failure(self, at: int, code: str, message: str) -> _Failure:
        return _Failure(self.section, at, Diagnostic(
            "error", code, message, self.tokens[at].span))

    def fail(self, at: int, code: str, message: str) -> None:
        """Records that the name at token ``at`` did not resolve."""
        self.failures.append(self.failure(at, code, message))

    def number(self, tok: Token) -> int:
        """Value of a NUMBER token.  A literal longer than Python's
        int-string digit limit is a syntax error at the token."""
        try:
            return int(tok.value)
        except ValueError:
            digits = len(tok.value.lstrip("-"))
            self.error("E-SYNTAX", f"number literal too long ({digits} digits)",
                       tok.span)
            raise _SyntaxAbort() from None

    # -- declarations ------------------------------------------------------

    def parse_program(self) -> Optional[tuple]:
        self.expect("asm", "'asm'")
        name = self.expect("IDENT", "program name").value
        while self.peek().type in ("enum", "int", "controlled", "monitored",
                                   "static", "ctlstate", "unsafe",
                                   "constraint", "enc", "condx"):
            self.parse_decl()
        if self.unsafe is not None:
            self.unsafe = self.settle(self.unsafe)
        self.constraints = [self.settle(c) for c in self.constraints]
        if self.condx is not None:
            self.condx = self.settle(self.condx)
        named: list[NamedRule] = []
        mains: list[NamedRule] = []
        if not self.at("rule"):
            self.error("E-SYNTAX", "expected at least one rule", self.peek().span)
            raise _SyntaxAbort()
        while self.at("rule"):
            nr, is_named = self.parse_rule_def()
            (named if is_named else mains).append(nr)
        tail = self.peek()
        if tail.type != "EOF":
            self.error("E-SYNTAX", f"unexpected trailing input {tail.value!r}",
                       tail.span)
            raise _SyntaxAbort()
        self.failures += [f for f in self.calls
                          if self.tokens[f.at].value not in self.rule_spans]
        return name, named, mains

    def parse_decl(self) -> None:
        tok = self.next()
        if tok.type == "enum":
            name_tok = self.expect("IDENT", "sort name")
            self.expect("EQ", "'='")
            self.expect("LBRACE", "'{'")
            lits = [self.expect("IDENT", "literal")]
            while self.accept("COMMA"):
                lits.append(self.expect("IDENT", "literal"))
            self.expect("RBRACE", "'}'")
            names: dict[str, None] = {}
            for lit in lits:
                if lit.value in names:
                    self.error("E-DUP-LITERAL", f"literal {lit.value} repeated "
                               f"in enum {name_tok.value}", lit.span)
                names[lit.value] = None
            self.declare_sort(Sort(name_tok.value, "enum", tuple(names)), name_tok)
        elif tok.type == "int":
            name_tok = self.expect("IDENT", "sort name")
            self.expect("EQ", "'='")
            lo = self.number(self.expect("NUMBER", "lower bound"))
            self.expect("RANGE", "'..'")
            hi = self.number(self.expect("NUMBER", "upper bound"))
            if lo > hi:
                self.error("E-SORT", f"empty range {lo}..{hi}", name_tok.span)
                raise _SyntaxAbort()
            self.declare_sort(Sort(name_tok.value, "int", (), lo, hi), name_tok)
        elif tok.type in ("controlled", "monitored", "static"):
            self.parse_function_decl(tok.type)
        elif tok.type == "ctlstate":
            name_tok = self.expect("IDENT", "function name")
            if self.ctl_name is not None:
                self.error("E-DUP-DECL", "more than one ctlstate declaration",
                           name_tok.span)
            self.ctl_name = name_tok.value
        elif tok.type == "unsafe":
            if self.unsafe is not None:
                self.error("E-DUP-DECL", "more than one unsafe declaration", tok.span)
            self.unsafe = self.read_formula(_UNSAFE)
        elif tok.type == "constraint":
            self.constraints.append(self.read_formula(_CONSTRAINT))
        elif tok.type == "condx":
            self.condx = self.read_formula(_CONDX)
        elif tok.type == "enc":
            self.parse_enc_block()

    def read_formula(self, section: int) -> _Formula:
        """Reads an ``unsafe``, ``constraint`` or ``condx`` formula, its
        names resolved against the declarations so far.  Its failures are
        kept with it, since later declarations can still resolve them."""
        start, mark = self.pos, len(self.failures)
        self.section, self.scope = section, _FORMULA_SCOPE[section]
        term = self.parse_formula()
        failures = self.failures[mark:]
        del self.failures[mark:]
        return _Formula(term, failures, section, start, self.declared())

    def declared(self) -> tuple[int, int]:
        # both tables only grow, so equal sizes mean equal tables
        return len(self.literals), len(self.fn_names)

    def settle(self, formula: _Formula) -> _Formula:
        """``formula`` resolved against all declarations, its failures
        recorded: read once more from its first token if literals or
        functions were declared after it."""
        if formula.declared != self.declared():
            resume, self.pos = self.pos, formula.start
            formula = self.read_formula(formula.section)
            self.pos = resume
        self.failures += formula.failures
        return formula

    def declare_sort(self, sort: Sort, tok: Token) -> None:
        if sort.name in self.sort_names or sort.name == "Bool":
            self.error("E-DUP-DECL", f"sort {sort.name} already declared", tok.span)
            return
        for lit in sort.literals:
            if lit in self.literals:
                self.error("E-DUP-LITERAL",
                           f"literal {lit} already declared in "
                           f"{self.literals[lit].name}", tok.span)
            self.literals[lit] = sort
        self.sorts.append(sort)
        self.sort_names[sort.name] = sort

    def lookup_sort(self, tok: Token) -> Sort:
        if tok.value == "Bool":
            return BOOL
        sort = self.sort_names.get(tok.value)
        if sort is None:
            self.error("E-UNKNOWN-IDENT", f"unknown sort {tok.value}", tok.span)
            raise _SyntaxAbort()
        return sort

    def parse_function_decl(self, mode: str) -> None:
        name_tok = self.expect("IDENT", "function name")
        self.expect("COLON", "':'")
        first = self.lookup_sort(self.expect("IDENT", "sort"))
        arg_sorts: list[Sort] = []
        result = first
        if self.at("COMMA") or self.at("ARROW"):
            arg_sorts.append(first)
            while self.accept("COMMA"):
                arg_sorts.append(self.lookup_sort(self.expect("IDENT", "sort")))
            self.expect("ARROW", "'->'")
            result = self.lookup_sort(self.expect("IDENT", "sort"))
        init: tuple = ()
        if self.accept("init"):
            if mode == "monitored":
                self.error("E-INIT",
                           f"monitored function {name_tok.value} cannot have "
                           "an initializer", name_tok.span)
            init = self.parse_init(tuple(arg_sorts), result, name_tok)
        elif mode in ("controlled", "static"):
            self.error("E-NOINIT",
                       f"{mode} function {name_tok.value} needs an initializer",
                       name_tok.span)
        if name_tok.value in self.fn_names:
            self.error("E-DUP-DECL",
                       f"function {name_tok.value} already declared",
                       name_tok.span)
            return
        decl = FunctionDecl(name_tok.value, tuple(arg_sorts), result, mode, init)
        self.functions.append(decl)
        self.fn_names[decl.name] = decl

    def parse_init(self, arg_sorts: tuple[Sort, ...], result: Sort,
                   name_tok: Token) -> tuple:
        if not arg_sorts:
            value = self.parse_const(result)
            return make_init({(): value})
        self.expect("LBRACE", "'{'")
        entries: dict[tuple[Value, ...], Value] = {}
        default: Optional[Value] = None
        while True:
            if self.at("IDENT") and self.peek().value == "_":
                self.next()
                self.expect("COLON", "':'")
                default = self.parse_const(result)
            else:
                self.expect("LPAREN", "'('")
                args = [self.parse_const(arg_sorts[0])]
                for s in arg_sorts[1:]:
                    self.expect("COMMA", "','")
                    args.append(self.parse_const(s))
                self.expect("RPAREN", "')'")
                self.expect("COLON", "':'")
                entries[tuple(args)] = self.parse_const(result)
            if not self.accept("COMMA"):
                break
        self.expect("RBRACE", "'}'")
        if default is not None:
            import itertools
            for combo in itertools.product(*(s.values() for s in arg_sorts)):
                entries.setdefault(combo, default)
        return make_init(entries)

    def parse_const(self, sort: Optional[Sort]) -> Value:
        tok = self.next()
        if tok.type == "true":
            value: Value = True
        elif tok.type == "false":
            value = False
        elif tok.type == "NUMBER":
            value = self.number(tok)
        elif tok.type == "IDENT":
            lit_sort = self.literals.get(tok.value)
            if lit_sort is None:
                self.error("E-UNKNOWN-LITERAL",
                           f"unknown literal {tok.value}", tok.span)
                raise _SyntaxAbort()
            value = tok.value
        else:
            self.error("E-SYNTAX", f"expected a constant, found {tok.value!r}",
                       tok.span)
            raise _SyntaxAbort()
        if sort is not None and not sort.contains(value):
            self.error("E-SORT",
                       f"{format_value(value)} is not a value of {sort.name}",
                       tok.span)
        return value

    def parse_enc_block(self) -> None:
        sort_tok = self.expect("IDENT", "sort name")
        self.enc_sort = sort_tok.value
        self.expect("LBRACE", "'{'")
        # empty when the program has no control-state transitions
        more = not self.at("RBRACE")
        while more:
            key = self.parse_const(None)
            self.expect("COLON", "':'")
            self.expect("LBRACKET", "'['")
            responses: list[int] = []
            if not self.at("RBRACKET"):
                responses.append(self.number(self.expect("NUMBER", "response")))
                while self.accept("COMMA"):
                    responses.append(self.number(self.expect("NUMBER", "response")))
            self.expect("RBRACKET", "']'")
            self.enc_entries.append((key, tuple(responses)))
            more = self.accept("COMMA") is not None
        self.expect("RBRACE", "'}'")

    # -- rules ---------------------------------------------------------------

    def parse_rule_def(self) -> tuple[NamedRule, bool]:
        self.expect("rule", "'rule'")
        name_tok = self.expect("IDENT", "rule name")
        if name_tok.value in self.rule_spans:
            self.error("E-DUP-DECL", f"rule {name_tok.value} already defined",
                       name_tok.span)
        self.rule_spans[name_tok.value] = name_tok.span
        params: list[tuple[str, Sort]] = []
        self.section = _MAIN
        if self.accept("LPAREN"):
            self.section = _HELPER
            if not self.at("RPAREN"):
                while True:
                    pname = self.expect("IDENT", "parameter name").value
                    self.expect("COLON", "':'")
                    params.append((pname, self.lookup_sort(self.expect("IDENT", "sort"))))
                    if not self.accept("COMMA"):
                        break
            self.expect("RPAREN", "')'")
        self.expect("COLON", "':'")
        self.scope = frozenset(p for p, _ in params)
        body = self.parse_stmts()
        if not body:
            self.error("E-SYNTAX", f"rule {name_tok.value} has an empty body",
                       name_tok.span)
            raise _SyntaxAbort()
        return (NamedRule(name_tok.value, tuple(params), tuple(body)),
                self.section == _HELPER)

    def parse_stmts(self) -> list[Rule]:
        out: list[Rule] = []
        while self.peek().type not in _STMT_END:
            out.append(self.parse_stmt())
        return out

    def parse_stmt(self) -> Rule:
        tok = self.peek()
        if tok.type == "if":
            self.next()
            guard = self.parse_formula()
            self.expect("then", "'then'")
            then_rules = self.parse_stmts()
            else_rules: list[Rule] = []
            if self.accept("else"):
                else_rules = self.parse_stmts()
            self.expect("endif", "'endif'")
            return Cond(guard, tuple(then_rules), tuple(else_rules))
        if tok.type == "par":
            self.next()
            rules = self.parse_stmts()
            self.expect("endpar", "'endpar'")
            return Par(tuple(rules))
        if tok.type == "choose":
            self.next()
            var = self.expect("IDENT", "variable").value
            self.expect("in", "'in'")
            cands = self.parse_set_expr()
            self.expect("do", "'do'")
            body = self.parse_scoped_stmts(var)
            self.expect("endchoose", "'endchoose'")
            return Choose(var, cands, body)
        if tok.type == "let":
            self.next()
            var = self.expect("IDENT", "variable").value
            self.expect("EQ", "'='")
            binding = self.parse_formula(stop_at_in=True)
            self.expect("in", "'in'")
            body = self.parse_scoped_stmts(var)
            self.expect("endlet", "'endlet'")
            return Let(var, binding, body)
        if tok.type == "challenge":
            self.next()
            return ChooseCtl(self.number(self.expect("NUMBER",
                                                     "challenge value")))
        if tok.type == "IDENT":
            at = self.pos
            name = self.next().value
            had_parens = self.accept("LPAREN") is not None
            args = self.parse_args() if had_parens else ()
            if self.accept("ASSIGN"):
                if name not in self.fn_names:
                    self.fail(at, "E-UNKNOWN-IDENT",
                              f"update to unknown function {name}")
                return Update(name, args, self.parse_formula())
            if had_parens:
                if name in self.fn_names:
                    self.calls.append(self.failure(
                        at, "E-SYNTAX", f"{name} is a function, not a rule"))
                return Call(name, args)
            self.error("E-SYNTAX", f"expected ':=' after {name}", tok.span)
            raise _SyntaxAbort()
        self.error("E-SYNTAX", f"expected a statement, found {tok.value!r}",
                   tok.span)
        raise _SyntaxAbort()

    def parse_scoped_stmts(self, var: str) -> tuple[Rule, ...]:
        """The body of a ``choose`` or ``let``, with ``var`` in scope."""
        outer = self.scope
        self.scope = outer | {var}
        body = tuple(self.parse_stmts())
        self.scope = outer
        return body

    def parse_args(self) -> tuple[Term, ...]:
        """Arguments after an opening parenthesis, through the closing one."""
        args: list[Term] = []
        if not self.at("RPAREN"):
            args.append(self.parse_formula())
            while self.accept("COMMA"):
                args.append(self.parse_formula())
        self.expect("RPAREN", "')'")
        return tuple(args)

    def parse_set_expr(self) -> SetExpr:
        if self.accept("LBRACE"):
            values = [self.parse_const(None)]
            while self.accept("COMMA"):
                values.append(self.parse_const(None))
            self.expect("RBRACE", "'}'")
            return SetExpr(values=tuple(values))
        tok = self.expect("IDENT", "sort name or '{'")
        self.lookup_sort(tok)
        return SetExpr(sort_name=tok.value)

    # -- terms / formulas ----------------------------------------------------

    def parse_formula(self, stop_at_in: bool = False) -> Term:
        return self.parse_or(stop_at_in)

    def parse_or(self, stop_at_in: bool) -> Term:
        left = self.parse_and(stop_at_in)
        while self.at("or"):
            self.next()
            left = Or(left, self.parse_and(stop_at_in))
        return left

    def parse_and(self, stop_at_in: bool) -> Term:
        left = self.parse_not(stop_at_in)
        while self.at("and"):
            self.next()
            left = And(left, self.parse_not(stop_at_in))
        return left

    def parse_not(self, stop_at_in: bool) -> Term:
        if self.accept("not"):
            return Not(self.parse_not(stop_at_in))
        return self.parse_cmp(stop_at_in)

    def parse_cmp(self, stop_at_in: bool) -> Term:
        left = self.parse_atom()
        if self.accept("EQ"):
            return Eq(left, self.parse_not(stop_at_in))
        if self.accept("NEQ"):
            return Not(Eq(left, self.parse_not(stop_at_in)))
        if not stop_at_in and self.at("in"):
            self.next()
            if self.accept("LBRACE"):
                if self.accept("RBRACE"):
                    return Member(left, ())
                values = [self.parse_const(None)]
                while self.accept("COMMA"):
                    values.append(self.parse_const(None))
                self.expect("RBRACE", "'}'")
                return Member(left, tuple(values))
            tok = self.expect("IDENT", "sort name or '{'")
            sort = self.lookup_sort(tok)
            return Member(left, sort.values())
        return left

    def parse_atom(self) -> Term:
        tok = self.next()
        if tok.type == "true":
            return Const(True)
        if tok.type == "false":
            return Const(False)
        if tok.type == "NUMBER":
            return Const(self.number(tok))
        if tok.type == "ite":
            self.expect("LPAREN", "'('")
            cond = self.parse_formula()
            self.expect("COMMA", "','")
            then = self.parse_formula()
            self.expect("COMMA", "','")
            other = self.parse_formula()
            self.expect("RPAREN", "')'")
            return Ite(cond, then, other)
        if tok.type == "LPAREN":
            inner = self.parse_formula()
            self.expect("RPAREN", "')'")
            return inner
        if tok.type == "IDENT":
            return self.resolve(self.pos - 1, self.parse_args()
                                if self.accept("LPAREN") else None)
        self.error("E-SYNTAX", f"expected a term, found {tok.value or 'end of input'}",
                   tok.span)
        raise _SyntaxAbort()

    def resolve(self, at: int, args: Optional[tuple[Term, ...]]) -> Term:
        """The term that the identifier at token ``at`` stands for.  A
        bare name (``args`` None) is a variable in scope, else a literal,
        else a nullary function; a name with arguments applies a
        function.  A name that does not resolve is recorded as a failure
        and read as a placeholder."""
        name = self.tokens[at].value
        if args is not None:
            if name not in self.fn_names:
                self.fail(at, "E-UNKNOWN-IDENT", f"unknown function {name}")
            return App(name, args)
        if name in self.scope:
            return Var(name)
        if name in self.literals:
            return Const(name)
        if name in self.fn_names:
            return App(name, ())
        self.fail(at, "E-UNKNOWN-LITERAL",
                  f"unknown literal or identifier {name}")
        return _RawIdent(name)


@dataclass(frozen=True)
class _RawIdent(Term):
    """Bare identifier that did not resolve: it stands only in a file
    that is refused, or in a declaration formula that is read again once
    all declarations are known."""

    name: str


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def parse_program(text: str, filename: str = "<input>") -> ParseResult:
    """Parse and validate a program; never raises on bad input.

    On success the result carries a fully validated program, and for the
    hardware-bound dialect also the encoding annotations and the compiled
    safety condition.
    """
    if not text.strip():
        return ParseResult(None, [Diagnostic(
            "error", "E-EMPTY", "empty input", SourceSpan(1, 1))])
    tokens, diags = tokenize(text)
    if any(d.severity == "error" for d in diags):
        return ParseResult(None, diags)
    parser = _Parser(tokens, diags)
    try:
        name, named, mains = parser.parse_program()
    except _SyntaxAbort:
        return ParseResult(None, diags)

    if parser.ctl_name is None:
        diags.append(Diagnostic("error", "E-NO-CTL",
                                "missing ctlstate declaration", SourceSpan(1, 1)))
    if parser.unsafe is None:
        diags.append(Diagnostic("error", "E-NO-UNSAFE",
                                "missing unsafe declaration", SourceSpan(1, 1)))
    if any(d.severity == "error" for d in diags):
        return ParseResult(None, diags)
    if parser.failures:
        first = min(parser.failures, key=lambda f: (f.section, f.at))
        diags.append(first.diagnostic)
        return ParseResult(None, diags)

    program = Program(
        name=name,
        sorts=tuple(parser.sorts),
        functions=tuple(parser.functions),
        named_rules=tuple(named),
        main_rules=tuple(mains),
        ctl_name=parser.ctl_name,
        unsafe=parser.unsafe.term,
        init_constraints=tuple(c.term for c in parser.constraints),
    )
    condx = parser.condx.term if parser.condx is not None else None

    extras = None
    is_protected = (parser.enc_sort is not None or condx is not None
                    or any(isinstance(rule, ChooseCtl)
                           for _, rule in program_rules(program)))
    if is_protected:
        extras = ProtectedExtras(
            plain_sort=parser.enc_sort or "",
            enc=tuple(parser.enc_entries),
            condx=condx,
        )

    plain_sort = next((s for s in program.sorts if s.name == parser.enc_sort),
                      None)
    for code, message in validate_program(program, protected=is_protected,
                                          plain_sort=plain_sort):
        diags.append(Diagnostic("error", code, message, SourceSpan(1, 1)))
    if condx is not None and parser.enc_sort:
        _check_condx(program, parser.enc_sort, condx, diags)
    if any(d.severity == "error" for d in diags):
        return ParseResult(None, diags, extras)
    return ParseResult(program, diags, extras)


def _check_condx(program: Program, plain_sort: str, condx: Term,
                 diags: list[Diagnostic]) -> None:
    from .ast import _SortChecker  # shared checker
    problems: list[tuple[str, str]] = []
    checker = _SortChecker(program, problems)
    try:
        sort = program.sort(plain_sort)
    except Exception:
        diags.append(Diagnostic("error", "E-UNKNOWN-IDENT",
                                f"unknown sort {plain_sort} in enc block",
                                SourceSpan(1, 1)))
        return
    checker.check_formula(condx, {"x": sort}, "condx declaration")
    for code, message in problems:
        diags.append(Diagnostic("error", code, message, SourceSpan(1, 1)))


def parse_or_raise(text: str, filename: str = "<input>") -> Program:
    result = parse_program(text, filename)
    if not result.ok:
        raise ParseFailure(result.diagnostics, filename)
    assert result.program is not None
    return result.program


def load_program(path: str) -> ParseResult:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_program(fh.read(), filename=path)


# ---------------------------------------------------------------------------
# Pretty printer
# ---------------------------------------------------------------------------

_PREC_OR, _PREC_AND, _PREC_NOT, _PREC_CMP, _PREC_ATOM = 1, 2, 3, 4, 5


def format_term(term: Term, prec: int = 0) -> str:
    """Canonical formula text in the DSL's syntax."""
    text, p = _fmt(term)
    if p < prec:
        return f"({text})"
    return text


def _fmt(term: Term) -> tuple[str, int]:
    if isinstance(term, Const):
        return format_value(term.value), _PREC_ATOM
    if isinstance(term, Var):
        return term.name, _PREC_ATOM
    if isinstance(term, App):
        if not term.args:
            return term.fn, _PREC_ATOM
        inner = ", ".join(format_term(a) for a in term.args)
        return f"{term.fn}({inner})", _PREC_ATOM
    if isinstance(term, Not):
        if isinstance(term.operand, Eq):
            lhs = format_term(term.operand.left, _PREC_ATOM)
            rhs = format_term(term.operand.right, _PREC_NOT)
            return f"{lhs} != {rhs}", _PREC_CMP
        return f"not {format_term(term.operand, _PREC_NOT)}", _PREC_NOT
    # left children reuse the operator level, right children need one
    # level more, so chains print flat yet re-parse to the same tree
    if isinstance(term, And):
        return (f"{format_term(term.left, _PREC_AND)} and "
                f"{format_term(term.right, _PREC_NOT)}"), _PREC_AND
    if isinstance(term, Or):
        return (f"{format_term(term.left, _PREC_OR)} or "
                f"{format_term(term.right, _PREC_AND)}"), _PREC_OR
    if isinstance(term, Eq):
        return (f"{format_term(term.left, _PREC_ATOM)} = "
                f"{format_term(term.right, _PREC_NOT)}"), _PREC_CMP
    if isinstance(term, Member):
        inner = ", ".join(format_value(v) for v in term.values)
        return (f"{format_term(term.item, _PREC_ATOM)} in {{{inner}}}"), _PREC_CMP
    if isinstance(term, Ite):
        return (f"ite({format_term(term.cond)}, {format_term(term.then)}, "
                f"{format_term(term.other)})"), _PREC_ATOM
    raise TypeError(f"cannot print node {type(term).__name__}")


def _mentions_member(term: Term) -> bool:
    if isinstance(term, Member):
        return True
    return any(_mentions_member(c) for c in children(term))


def _fmt_set(expr: SetExpr) -> str:
    if expr.sort_name is not None:
        return expr.sort_name
    return "{" + ", ".join(format_value(v) for v in expr.values) + "}"


def _fmt_rule(rule: Rule, depth: int, out: list[str]) -> None:
    pad = "  " * depth
    if isinstance(rule, Update):
        lhs = rule.fn
        if rule.args:
            lhs += "(" + ", ".join(format_term(a) for a in rule.args) + ")"
        out.append(f"{pad}{lhs} := {format_term(rule.rhs)}")
    elif isinstance(rule, Cond):
        out.append(f"{pad}if {format_term(rule.guard)} then")
        for r in rule.then_rules:
            _fmt_rule(r, depth + 1, out)
        if rule.else_rules:
            out.append(f"{pad}else")
            for r in rule.else_rules:
                _fmt_rule(r, depth + 1, out)
        out.append(f"{pad}endif")
    elif isinstance(rule, Par):
        out.append(f"{pad}par")
        for r in rule.rules:
            _fmt_rule(r, depth + 1, out)
        out.append(f"{pad}endpar")
    elif isinstance(rule, Choose):
        out.append(f"{pad}choose {rule.var} in {_fmt_set(rule.candidates)} do")
        for r in rule.body:
            _fmt_rule(r, depth + 1, out)
        out.append(f"{pad}endchoose")
    elif isinstance(rule, Let):
        binding = format_term(rule.binding)
        if _mentions_member(rule.binding):
            binding = f"({binding})"  # an unparenthesized 'in' would end the binding
        out.append(f"{pad}let {rule.var} = {binding} in")
        for r in rule.body:
            _fmt_rule(r, depth + 1, out)
        out.append(f"{pad}endlet")
    elif isinstance(rule, Call):
        out.append(f"{pad}{rule.name}("
                   + ", ".join(format_term(a) for a in rule.args) + ")")
    elif isinstance(rule, ChooseCtl):
        out.append(f"{pad}challenge {rule.challenge}")
    else:
        raise TypeError(f"cannot print rule {type(rule).__name__}")


def pretty_print(program: Program, extras: Optional[ProtectedExtras] = None,
                 header: tuple[str, ...] = ()) -> str:
    """Canonical source text; parsing it back yields an equal program."""
    out: list[str] = []
    for line in header:
        out.append(f"// {line}")
    out.append(f"asm {program.name}")
    out.append("")
    for s in program.sorts:
        if s.kind == "enum":
            out.append(f"enum {s.name} = {{ {', '.join(s.literals)} }}")
        elif s.kind == "int":
            out.append(f"int {s.name} = {s.lo}..{s.hi}")
    for f in program.functions:
        sig = f.name + " : "
        if f.arg_sorts:
            sig += ", ".join(s.name for s in f.arg_sorts) + " -> "
        sig += f.result.name
        line = f"{f.mode} {sig}"
        if f.mode in ("controlled", "static"):
            line += " init " + _fmt_init(f)
        out.append(line)
    out.append(f"ctlstate {program.ctl_name}")
    out.append(f"unsafe {format_term(program.unsafe)}")
    for c in program.init_constraints:
        out.append(f"constraint {format_term(c)}")
    if extras is not None:
        if extras.plain_sort:
            entries = ", ".join(
                f"{format_value(k)}: [{', '.join(str(r) for r in resp)}]"
                for k, resp in extras.enc)
            out.append(f"enc {extras.plain_sort} {{ {entries} }}" if entries
                       else f"enc {extras.plain_sort} {{ }}")
        if extras.condx is not None:
            out.append(f"condx {format_term(extras.condx)}")
    for nr in program.named_rules:
        out.append("")
        params = ", ".join(f"{p} : {s.name}" for p, s in nr.params)
        out.append(f"rule {nr.name}({params}):")
        for r in nr.body:
            _fmt_rule(r, 1, out)
    for nr in program.main_rules:
        out.append("")
        out.append(f"rule {nr.name}:")
        for r in nr.body:
            _fmt_rule(r, 1, out)
    return "\n".join(out) + "\n"


def _fmt_init(f: FunctionDecl) -> str:
    init = f.init_map()
    if not f.arg_sorts:
        return format_value(init[()])
    parts = []
    for args, value in f.init:
        key = ", ".join(format_value(a) for a in args)
        parts.append(f"({key}): {format_value(value)}")
    return "{ " + ", ".join(parts) + " }"
