"""A small generating-function expression language.

Grammar (whitespace insignificant, columns 1-based):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := atom ('^' nonneg-int)? | '-' factor
    atom   := rational-literal | 't' | '(' expr ')' | func
    func   := ('exp'|'log1p') '(' expr ')'
            | 'Li' '(' int-literal ',' expr ')'
            | 'pow1p' '(' rational-literal ')'
    rational-literal := int-literal ('/' posint-literal)?

Expressions denote exact truncated series in t; there is no symbolic x here
(symbolic computations live in the library and the verify command). Series
division is ``TruncatedSeries``' ``/``, which shifts out the denominator's
valuation: a denominator whose valuation exceeds the numerator's is
rejected, and one that vanishes at the working order is evaluated again at a
padded order (``eval_expr``) before it is rejected.

Nesting is capped at ``MAX_DEPTH`` levels, both for open parentheses,
function calls and unary minus signs and for the height of the parsed tree
(a flat sum of n terms is n-1 levels tall), so parsing and evaluation never
exhaust the interpreter stack. An integer literal has at most
``MAX_LITERAL_DIGITS`` digits. A power's exponent is at most
``MAX_EXPONENT``, and so is the product of the exponents along any chain of
nested powers (``(2^40)^40`` multiplies to 1600), so a literal raised to
powers stays small enough to compute and print quickly. The order of ``Li``
is at most ``MAX_ABS_K`` in absolute value. Each cap is a ``ParseError`` at
the offending token, before anything is evaluated. The literal and ``Li``
caps live in ``caps``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .caps import MAX_ABS_K, MAX_LITERAL_DIGITS
from .series import (
    TruncatedSeries,
    constant_series,
    polylog_series,
    pow1p_series,
    t_series,
)


class ParseError(ValueError):
    """Syntax or validation error, carrying a 1-based column."""

    def __init__(self, message: str, column: int) -> None:
        super().__init__(f"column {column}: {message}")
        self.column = column


class EvalError(ValueError):
    """Semantic error while evaluating a parsed expression."""


# -- AST -----------------------------------------------------------------


class Const(NamedTuple):
    value: Fraction


class Var(NamedTuple):
    """The series variable t."""


class BinOp(NamedTuple):
    op: str  # 'add' | 'sub' | 'mul' | 'div'
    left: object
    right: object


class Pow(NamedTuple):
    base: object
    exponent: int


class Call(NamedTuple):
    name: str  # 'exp' | 'log1p' | 'Li' | 'pow1p'
    args: tuple


MAX_DEPTH = 100
MAX_EXPONENT = 1000

# -- tokenizer -----------------------------------------------------------

_PUNCT = {"+", "-", "*", "/", "^", "(", ")", ","}


class _Token(NamedTuple):
    kind: str  # 'int' | 'name' | punctuation | 'end'
    text: str
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        col = i + 1
        if ch in _PUNCT:
            tokens.append(_Token(ch, ch, col))
            i += 1
        elif "0" <= ch <= "9":
            j = i
            while j < len(text) and "0" <= text[j] <= "9":
                j += 1
            if j - i > MAX_LITERAL_DIGITS:
                raise ParseError(
                    f"integer literal longer than {MAX_LITERAL_DIGITS} digits", col
                )
            tokens.append(_Token("int", text[i:j], col))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("name", text[i:j], col))
            i = j
        else:
            raise ParseError(f"unexpected character {ch!r}", col)
    tokens.append(_Token("end", "", len(text) + 1))
    return tokens


# -- parser --------------------------------------------------------------

_FUNCTIONS = ("exp", "log1p", "Li", "pow1p")


class _Parser:
    def __init__(self, tokens: list[_Token]) -> None:
        self.tokens = tokens
        self.pos = 0
        self.nesting = -1  # open levels; the whole expression is not nested
        self.heights: dict[int, int] = {}  # id(node) -> tree height
        # id(node) -> largest product of exponents along a chain of nested
        # powers inside the node; absent means 1
        self.powers: dict[int, int] = {}

    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "end":
            self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            found = "end of input" if tok.kind == "end" else repr(tok.text)
            raise ParseError(f"expected {what}, found {found}", tok.column)
        return self.advance()

    @staticmethod
    def check_depth(depth: int, column: int) -> None:
        if depth > MAX_DEPTH:
            raise ParseError(f"expression nested deeper than {MAX_DEPTH} levels", column)

    def enter(self) -> None:
        """Open a level at the '(' or unary '-' just consumed."""
        self.nesting += 1
        self.check_depth(self.nesting, self.tokens[self.pos - 1].column)

    def build(self, node: object, column: int, *parts: object) -> object:
        """Record the tree height of a node built over ``parts``, and the
        largest product of nested exponents it inherits from them."""
        height = 1 + max((self.heights.get(id(p), 0) for p in parts), default=0)
        self.check_depth(height, column)
        self.heights[id(node)] = height
        power = max((self.powers.get(id(p), 1) for p in parts), default=1)
        if power != 1:
            self.powers[id(node)] = power
        return node

    def parse(self) -> object:
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected {tok.text!r}", tok.column)
        return node

    def expr(self) -> object:
        self.enter()
        node = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.advance()
            rhs = self.term()
            kind = "add" if op.kind == "+" else "sub"
            node = self.build(BinOp(kind, node, rhs), op.column, node, rhs)
        self.nesting -= 1
        return node

    def term(self) -> object:
        node = self.factor()
        while self.peek().kind in ("*", "/"):
            op = self.advance()
            rhs = self.factor()
            kind = "mul" if op.kind == "*" else "div"
            node = self.build(BinOp(kind, node, rhs), op.column, node, rhs)
        return node

    def factor(self) -> object:
        if self.peek().kind == "-":
            op = self.advance()
            self.enter()
            operand = self.factor()
            self.nesting -= 1
            negated = BinOp("mul", Const(Fraction(-1)), operand)
            return self.build(negated, op.column, operand)
        node = self.atom()
        if self.peek().kind == "^":
            op = self.advance()
            tok = self.peek()
            if tok.kind != "int":
                raise ParseError(
                    "exponent must be a non-negative integer literal", tok.column
                )
            self.advance()
            exponent = int(tok.text)
            if exponent > MAX_EXPONENT:
                raise ParseError(f"exponent larger than {MAX_EXPONENT}", tok.column)
            power = exponent * self.powers.get(id(node), 1)
            if power > MAX_EXPONENT:
                raise ParseError(
                    f"nested exponents multiply to more than {MAX_EXPONENT}", tok.column
                )
            node = self.build(Pow(node, exponent), op.column, node)
            self.powers[id(node)] = power
        return node

    def atom(self) -> object:
        tok = self.peek()
        if tok.kind == "int":
            return Const(self.rational_literal())
        if tok.kind == "(":
            self.advance()
            node = self.expr()
            self.expect(")", "')'")
            return node
        if tok.kind == "name":
            if tok.text == "t":
                self.advance()
                return Var()
            if tok.text in _FUNCTIONS:
                return self.func()
            raise ParseError(f"unknown function {tok.text!r}", tok.column)
        found = "end of input" if tok.kind == "end" else repr(tok.text)
        raise ParseError(f"expected a value, found {found}", tok.column)

    def rational_literal(self) -> Fraction:
        tok = self.expect("int", "an integer literal")
        value = Fraction(int(tok.text))
        # Maximal munch: int '/' posint is one rational literal.
        if self.peek().kind == "/" and self.peek(1).kind == "int":
            self.advance()
            den_tok = self.advance()
            den = int(den_tok.text)
            if den == 0:
                raise ParseError("denominator must be positive", den_tok.column)
            value = Fraction(value, den)
        return value

    def signed_int_literal(self, what: str) -> int:
        negative = False
        if self.peek().kind == "-":
            self.advance()
            negative = True
        tok = self.peek()
        if tok.kind != "int":
            raise ParseError(what, tok.column)
        self.advance()
        value = int(tok.text)
        return -value if negative else value

    def func(self) -> Call:
        tok = self.advance()
        name = tok.text
        self.expect("(", "'('")
        if name == "Li":
            column = self.peek().column
            order = self.signed_int_literal("Li order must be an integer literal")
            if abs(order) > MAX_ABS_K:
                raise ParseError(f"Li order larger than {MAX_ABS_K} in absolute value", column)
            self.expect(",", "','")
            arg = self.expr()
            self.expect(")", "')'")
            return self.build(Call("Li", (order, arg)), tok.column, arg)
        if name == "pow1p":
            negative = False
            if self.peek().kind == "-":
                self.advance()
                negative = True
            tok = self.peek()
            if tok.kind != "int":
                raise ParseError("pow1p argument must be a rational literal", tok.column)
            value = self.rational_literal()
            self.expect(")", "')'")
            return Call("pow1p", (-value if negative else value,))
        arg = self.expr()
        self.expect(")", "')'")
        return self.build(Call(name, (arg,)), tok.column, arg)


def parse_expr(text: str) -> object:
    """Parse the expression language into an AST; errors carry a column."""
    return _Parser(_tokenize(text)).parse()


# -- evaluator -----------------------------------------------------------


def _eval_at(node: object, order: int) -> TruncatedSeries:
    """Evaluate at a working order; divisions may shrink the result order."""
    if isinstance(node, Const):
        return constant_series(node.value, order)
    if isinstance(node, Var):
        return t_series(order)
    if isinstance(node, Pow):
        return _eval_at(node.base, order) ** node.exponent
    if isinstance(node, Call):
        if node.name == "pow1p":
            return pow1p_series(node.args[0], order)
        if node.name == "Li":
            return polylog_series(node.args[0], _eval_at(node.args[1], order))
        inner = _eval_at(node.args[0], order)
        return inner.exp() if node.name == "exp" else inner.log1p()
    assert isinstance(node, BinOp)
    left = _eval_at(node.left, order)
    right = _eval_at(node.right, order)
    common = min(left.order, right.order)
    left = left.truncate(common)
    right = right.truncate(common)
    if node.op == "add":
        return left + right
    if node.op == "sub":
        return left - right
    if node.op == "mul":
        return left * right
    try:
        return left / right
    except ValueError as err:
        raise EvalError(str(err)) from None


def eval_expr(node: object, order: int) -> TruncatedSeries:
    """Exact series value of an AST at the requested truncation order.

    Valuation-shifting divisions lose top coefficients, and a denominator's
    leading zeros may fill the whole working window at small orders; both
    cases re-evaluate the tree at a padded working order. The first pass runs
    at order min(order, 8): once the valuations are visible, the coefficients
    a division loses do not depend on the order, so that cheap pass finds
    the padding and the full order is evaluated once. A denominator whose
    valuation exceeds max(2*order, order+8) is reported as not a power
    series, exactly like a zero denominator.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    work = min(order, 8)
    escalated = False
    for _ in range(5):
        try:
            result = _eval_at(node, work)
        except ZeroDivisionError:
            if escalated:
                raise EvalError("series quotient not a power series") from None
            escalated = True
            work = max(work, 2 * order, order + 8)
            continue
        if result.order >= order:
            return result.truncate(order)
        work += order - result.order
    raise EvalError("expression did not stabilize at the requested order")
