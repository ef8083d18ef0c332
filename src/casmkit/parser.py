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
    formula  := or-precedence chain over and, not, (=, !=, in), atoms

Rules without a parameter list are top-level machine rules and run on
every step; rules with a (possibly empty) parameter list are helpers and
run only when called.  A ``let`` binding term cannot use an unparenthesized
``in`` membership at top level, since ``in`` terminates the binding.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .ast import (
    BOOL, And, App, Call, Choose, ChooseCtl, Cond, Const, Eq, FunctionDecl,
    Ite, Let, Member, NamedRule, Not, Or, Par, Program, Rule, SetExpr, Sort,
    Term, Update, Value, Var, format_value, make_init, validate_program,
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


@dataclass(frozen=True)
class Token:
    type: str
    value: str
    line: int
    column: int

    @property
    def span(self) -> SourceSpan:
        return SourceSpan(self.line, self.column, max(1, len(self.value)))


class _SyntaxAbort(Exception):
    pass


def tokenize(text: str) -> tuple[list[Token], list[Diagnostic]]:
    tokens: list[Token] = []
    diags: list[Diagnostic] = []
    line, col, i, n = 1, 1, 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        two = text[i:i + 2]
        if two in _PUNCT:
            tokens.append(Token(_PUNCT[two], two, line, col))
            i += 2
            col += 2
            continue
        if ch in _PUNCT:
            tokens.append(Token(_PUNCT[ch], ch, line, col))
            i += 1
            col += 1
            continue
        if ch.isdigit() or (ch == "-" and i + 1 < n and text[i + 1].isdigit()):
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(Token("NUMBER", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch == "_" or ch.isascii() and ch.isalpha():
            j = i
            while j < n and (text[j] == "_" or text[j].isascii() and text[j].isalnum()):
                j += 1
            word = text[i:j]
            ttype = word if word in KEYWORDS else "IDENT"
            tokens.append(Token(ttype, word, line, col))
            col += j - i
            i = j
            continue
        diags.append(Diagnostic("error", "E-SYNTAX",
                                f"unexpected character {ch!r}",
                                SourceSpan(line, col)))
        i += 1
        col += 1
    tokens.append(Token("EOF", "", line, col))
    return tokens, diags


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_STMT_END = {"else", "endif", "endpar", "endchoose", "endlet", "rule", "EOF"}


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
        self.unsafe: Optional[Term] = None
        self.constraints: list[Term] = []
        self.condx: Optional[Term] = None
        self.enc_sort: Optional[str] = None
        # source position of each parsed identifier and application, by id()
        self.spans: dict[int, SourceSpan] = {}
        self.enc_entries: list[tuple[Value, tuple[int, ...]]] = []
        self.rule_spans: dict[str, SourceSpan] = {}

    # -- token plumbing ----------------------------------------------------

    def peek(self, k: int = 0) -> Token:
        return self.tokens[min(self.pos + k, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.peek()
        if tok.type != "EOF":
            self.pos += 1
        return tok

    def at(self, ttype: str) -> bool:
        return self.peek().type == ttype

    def accept(self, ttype: str) -> Optional[Token]:
        if self.at(ttype):
            return self.next()
        return None

    def expect(self, ttype: str, what: str = "") -> Token:
        tok = self.peek()
        if tok.type == ttype:
            return self.next()
        shown = what or ttype.lower()
        self.error("E-SYNTAX", f"expected {shown}, found {tok.value or 'end of input'}",
                   tok.span)
        raise _SyntaxAbort()

    def error(self, code: str, message: str, span: SourceSpan) -> None:
        self.diags.append(Diagnostic("error", code, message, span))

    def warn(self, code: str, message: str, span: SourceSpan) -> None:
        self.diags.append(Diagnostic("warning", code, message, span))

    # -- declarations ------------------------------------------------------

    def parse_program(self) -> Optional[tuple]:
        self.expect("asm", "'asm'")
        name = self.expect("IDENT", "program name").value
        while self.peek().type in ("enum", "int", "controlled", "monitored",
                                   "static", "ctlstate", "unsafe",
                                   "constraint", "enc", "condx"):
            self.parse_decl()
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
        return name, named, mains

    def parse_decl(self) -> None:
        tok = self.next()
        if tok.type == "enum":
            name_tok = self.expect("IDENT", "sort name")
            self.expect("EQ", "'='")
            self.expect("LBRACE", "'{'")
            lits = [self.expect("IDENT", "literal").value]
            while self.accept("COMMA"):
                lits.append(self.expect("IDENT", "literal").value)
            self.expect("RBRACE", "'}'")
            self.declare_sort(Sort(name_tok.value, "enum", tuple(lits)), name_tok)
        elif tok.type == "int":
            name_tok = self.expect("IDENT", "sort name")
            self.expect("EQ", "'='")
            lo = int(self.expect("NUMBER", "lower bound").value)
            self.expect("RANGE", "'..'")
            hi = int(self.expect("NUMBER", "upper bound").value)
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
            self.unsafe = self.parse_formula()
        elif tok.type == "constraint":
            self.constraints.append(self.parse_formula())
        elif tok.type == "condx":
            self.condx = self.parse_formula()
        elif tok.type == "enc":
            self.parse_enc_block()

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
            value = int(tok.value)
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
                responses.append(int(self.expect("NUMBER", "response").value))
                while self.accept("COMMA"):
                    responses.append(int(self.expect("NUMBER", "response").value))
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
        is_named = False
        if self.accept("LPAREN"):
            is_named = True
            if not self.at("RPAREN"):
                while True:
                    pname = self.expect("IDENT", "parameter name").value
                    self.expect("COLON", "':'")
                    params.append((pname, self.lookup_sort(self.expect("IDENT", "sort"))))
                    if not self.accept("COMMA"):
                        break
            self.expect("RPAREN", "')'")
        self.expect("COLON", "':'")
        body = self.parse_stmts()
        if not body:
            self.error("E-SYNTAX", f"rule {name_tok.value} has an empty body",
                       name_tok.span)
            raise _SyntaxAbort()
        return NamedRule(name_tok.value, tuple(params), tuple(body)), is_named

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
            body = self.parse_stmts()
            self.expect("endchoose", "'endchoose'")
            return Choose(var, cands, tuple(body))
        if tok.type == "let":
            self.next()
            var = self.expect("IDENT", "variable").value
            self.expect("EQ", "'='")
            binding = self.parse_formula(stop_at_in=True)
            self.expect("in", "'in'")
            body = self.parse_stmts()
            self.expect("endlet", "'endlet'")
            return Let(var, binding, tuple(body))
        if tok.type == "challenge":
            self.next()
            num = self.expect("NUMBER", "challenge value")
            return ChooseCtl(int(num.value))
        if tok.type == "IDENT":
            name = self.next().value
            args: list[Term] = []
            had_parens = False
            if self.accept("LPAREN"):
                had_parens = True
                if not self.at("RPAREN"):
                    args.append(self.parse_formula())
                    while self.accept("COMMA"):
                        args.append(self.parse_formula())
                self.expect("RPAREN", "')'")
            if self.accept("ASSIGN"):
                rhs = self.parse_formula()
                return Update(name, tuple(args), rhs)
            if had_parens:
                return Call(name, tuple(args))
            self.error("E-SYNTAX", f"expected ':=' after {name}", tok.span)
            raise _SyntaxAbort()
        self.error("E-SYNTAX", f"expected a statement, found {tok.value!r}",
                   tok.span)
        raise _SyntaxAbort()

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
            return Const(int(tok.value))
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
            if self.accept("LPAREN"):
                args: list[Term] = []
                if not self.at("RPAREN"):
                    args.append(self.parse_formula())
                    while self.accept("COMMA"):
                        args.append(self.parse_formula())
                self.expect("RPAREN", "')'")
                node = App(tok.value, tuple(args))
            else:
                node = _RawIdent(tok.value)
            self.spans[id(node)] = tok.span
            return node
        self.error("E-SYNTAX", f"expected a term, found {tok.value or 'end of input'}",
                   tok.span)
        raise _SyntaxAbort()


@dataclass(frozen=True)
class _RawIdent(Term):
    """Bare identifier whose meaning (literal, function, variable) is
    resolved after all declarations are known."""

    name: str


# ---------------------------------------------------------------------------
# Identifier resolution
# ---------------------------------------------------------------------------

class _Resolver:
    def __init__(self, parser: _Parser):
        self.p = parser
        self.diags = parser.diags

    def term(self, node: Term, scope: frozenset) -> Term:
        if isinstance(node, _RawIdent):
            if node.name in scope:
                return Var(node.name)
            if node.name in self.p.literals:
                return Const(node.name)
            decl = self.p.fn_names.get(node.name)
            if decl is not None:
                return App(node.name, ())
            span = self.p.spans.get(id(node), SourceSpan(1, 1))
            self.diags.append(Diagnostic(
                "error", "E-UNKNOWN-LITERAL",
                f"unknown literal or identifier {node.name}", span))
            raise _SyntaxAbort()
        if isinstance(node, App):
            if node.fn not in self.p.fn_names:
                span = self.p.spans.get(id(node), SourceSpan(1, 1))
                self.diags.append(Diagnostic(
                    "error", "E-UNKNOWN-IDENT",
                    f"unknown function {node.fn}", span))
                raise _SyntaxAbort()
            return App(node.fn, tuple(self.term(a, scope) for a in node.args))
        if isinstance(node, Not):
            return Not(self.term(node.operand, scope))
        if isinstance(node, And):
            return And(self.term(node.left, scope), self.term(node.right, scope))
        if isinstance(node, Or):
            return Or(self.term(node.left, scope), self.term(node.right, scope))
        if isinstance(node, Eq):
            return Eq(self.term(node.left, scope), self.term(node.right, scope))
        if isinstance(node, Member):
            return Member(self.term(node.item, scope), node.values)
        if isinstance(node, Ite):
            return Ite(self.term(node.cond, scope), self.term(node.then, scope),
                       self.term(node.other, scope))
        return node

    def rule(self, node: Rule, scope: frozenset) -> Rule:
        if isinstance(node, Update):
            if node.fn in self.p.fn_names:
                return Update(node.fn,
                              tuple(self.term(a, scope) for a in node.args),
                              self.term(node.rhs, scope))
            self.diags.append(Diagnostic(
                "error", "E-UNKNOWN-IDENT",
                f"update to unknown function {node.fn}", SourceSpan(1, 1)))
            raise _SyntaxAbort()
        if isinstance(node, Cond):
            return Cond(self.term(node.guard, scope),
                        tuple(self.rule(r, scope) for r in node.then_rules),
                        tuple(self.rule(r, scope) for r in node.else_rules))
        if isinstance(node, Par):
            return Par(tuple(self.rule(r, scope) for r in node.rules))
        if isinstance(node, Choose):
            inner = scope | {node.var}
            return Choose(node.var, node.candidates,
                          tuple(self.rule(r, inner) for r in node.body))
        if isinstance(node, Let):
            binding = self.term(node.binding, scope)
            inner = scope | {node.var}
            return Let(node.var, binding,
                       tuple(self.rule(r, inner) for r in node.body))
        if isinstance(node, Call):
            if node.name in self.p.fn_names and node.name not in self.p.rule_spans:
                self.diags.append(Diagnostic(
                    "error", "E-SYNTAX",
                    f"{node.name} is a function, not a rule", SourceSpan(1, 1)))
                raise _SyntaxAbort()
            return Call(node.name, tuple(self.term(a, scope) for a in node.args))
        return node


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
        parsed = parser.parse_program()
    except _SyntaxAbort:
        return ParseResult(None, diags)
    name, named_raw, mains_raw = parsed

    if parser.ctl_name is None:
        diags.append(Diagnostic("error", "E-NO-CTL",
                                "missing ctlstate declaration", SourceSpan(1, 1)))
    if parser.unsafe is None:
        diags.append(Diagnostic("error", "E-NO-UNSAFE",
                                "missing unsafe declaration", SourceSpan(1, 1)))
    if any(d.severity == "error" for d in diags):
        return ParseResult(None, diags)

    resolver = _Resolver(parser)
    try:
        unsafe = resolver.term(parser.unsafe, frozenset())
        constraints = tuple(resolver.term(c, frozenset())
                            for c in parser.constraints)
        condx = None
        if parser.condx is not None:
            condx = resolver.term(parser.condx, frozenset({"x"}))
        named = tuple(
            NamedRule(nr.name, nr.params,
                      tuple(resolver.rule(r, frozenset(p for p, _ in nr.params))
                            for r in nr.body))
            for nr in named_raw)
        mains = tuple(
            NamedRule(nr.name, nr.params,
                      tuple(resolver.rule(r, frozenset()) for r in nr.body))
            for nr in mains_raw)
    except _SyntaxAbort:
        return ParseResult(None, diags)

    program = Program(
        name=name,
        sorts=tuple(parser.sorts),
        functions=tuple(parser.functions),
        named_rules=named,
        main_rules=mains,
        ctl_name=parser.ctl_name,
        unsafe=unsafe,
        init_constraints=constraints,
    )

    extras = None
    is_protected = (parser.enc_sort is not None or condx is not None
                    or _has_challenge_sites(program))
    if is_protected:
        extras = ProtectedExtras(
            plain_sort=parser.enc_sort or "",
            enc=tuple(parser.enc_entries),
            condx=condx,
        )

    for code, message in validate_program(program, protected=is_protected):
        diags.append(Diagnostic("error", code, message, SourceSpan(1, 1)))
    if condx is not None and parser.enc_sort:
        _check_condx(program, parser.enc_sort, condx, diags)
    if any(d.severity == "error" for d in diags):
        return ParseResult(None, diags, extras)
    return ParseResult(program, diags, extras)


def _has_challenge_sites(program: Program) -> bool:
    from .ast import iter_rules
    for nr in program.main_rules + program.named_rules:
        for rule, _ in iter_rules(nr.body):
            if isinstance(rule, ChooseCtl):
                return True
    return False


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
    from .ast import children
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
