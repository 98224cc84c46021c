"""A tiny expression language for smooth scalar functions of chart coordinates:
its syntax tree, parser and printer.  `geometry.eval_expr` evaluates a tree
to jets.

The grammar is deliberately small (no abs, no piecewise) so that everything
it can express is smooth on its domain.  Parsed constants are kept as exact
`Fraction`s whenever the literal allows it and only widened to float when
evaluated; flat-metric entries therefore stay exact and derivative
cancellations hit true zeros.

Grammar (see README for the full EBNF)::

    expr     := term  (("+" | "-") term)*
    term     := unary (("*" | "/") unary)*
    unary    := "-" unary | power
    power    := atom ("^" exponent)?          # exponent: integer literal
    atom     := number | coord | func "(" expr ")" | "(" expr ")"

Identifiers bind to coordinates by *position* in the coordinate-name list at
parse time; evaluation never does name lookup.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (
    DimensionMismatch,
    ExprSyntaxError,
    NonIntegerExponent,
    UnknownIdentifier,
)

__all__ = [
    "Expr", "Const", "Coord", "Neg", "Add", "Sub", "Mul", "Div", "Pow",
    "Sin", "Cos", "Exp", "Sqrt", "parse_expr", "monomial_terms", "to_source",
]

FUNCTIONS = ("sin", "cos", "exp", "sqrt")


class Expr:
    """An expression node.  Nodes are immutable; a node equals a node of its
    own type with equal fields (so Const(0.0) == Const(-0.0)) and hashes as
    it, and `match` reads the fields by keyword (`case Const(value=v)`).
    Plain slotted classes, which import faster than dataclasses."""

    __slots__ = ()
    __match_args__ = ()  # the fields, in order

    def __init__(self, *fields):
        if len(fields) != len(self.__match_args__):
            raise TypeError(f"{type(self).__name__} takes fields {self.__match_args__}")
        for name, value in zip(self.__match_args__, fields):
            object.__setattr__(self, name, value)

    def _fields(self):
        return tuple(getattr(self, name) for name in self.__match_args__)

    @property
    def children(self):
        """The fields that are nodes, in order."""
        return tuple(f for f in self._fields() if isinstance(f, Expr))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an expression node")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an expression node")

    def __reduce__(self):  # copy and pickle through __init__
        return type(self), self._fields()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__name__}({fields})"


class Const(Expr):
    """A number: a `Fraction` when parsed from a literal that allows it, or a float."""

    __slots__ = __match_args__ = ("value",)


class Coord(Expr):
    """The coordinate at position `index` of the chart's coordinate names."""

    __slots__ = __match_args__ = ("index",)


class _Unary(Expr):
    __slots__ = __match_args__ = ("arg",)


class _Binary(Expr):
    __slots__ = __match_args__ = ("left", "right")


Neg, Sin, Cos, Exp, Sqrt = (type(name, (_Unary,), {"__slots__": ()})
                            for name in ("Neg", "Sin", "Cos", "Exp", "Sqrt"))
Add, Sub, Mul, Div = (type(name, (_Binary,), {"__slots__": ()})
                      for name in ("Add", "Sub", "Mul", "Div"))


class Pow(Expr):
    """`base` to the integer power `exponent`."""

    __slots__ = __match_args__ = ("base", "exponent")


# --------------------------------------------------------------------------
# Lexer
# --------------------------------------------------------------------------

_PUNCT = set("+-*/^()")


def _byte_offset(source, pos):
    return len(source[:pos].encode("utf-8"))


def _tokenize(source):
    """Yield (kind, text, byte_offset); kinds: num, ident, punct, end."""
    tokens = []
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        start = i
        if ch.isdigit() or (ch == "." and i + 1 < n and source[i + 1].isdigit()):
            i += 1
            seen_dot = ch == "."
            while i < n and (source[i].isdigit() or (source[i] == "." and not seen_dot)):
                seen_dot = seen_dot or source[i] == "."
                i += 1
            tokens.append(("num", source[start:i], _byte_offset(source, start)))
        elif ch.isalpha() or ch == "_":
            i += 1
            while i < n and (source[i].isalnum() or source[i] == "_"):
                i += 1
            tokens.append(("ident", source[start:i], _byte_offset(source, start)))
        elif ch in _PUNCT:
            i += 1
            tokens.append(("punct", ch, _byte_offset(source, start)))
        else:
            raise ExprSyntaxError(f"unexpected character {ch!r}", _byte_offset(source, start))
    tokens.append(("end", "", _byte_offset(source, n)))
    return tokens


class _Parser:
    def __init__(self, tokens, coord_names):
        self.tokens = tokens
        self.pos = 0
        self.coords = {name: i for i, name in enumerate(coord_names)}

    @property
    def token(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_punct(self, ch):
        kind, text, off = self.token
        if kind != "punct" or text != ch:
            raise ExprSyntaxError(f"expected {ch!r}, found {text!r}", off)
        return self.advance()

    def parse(self):
        e = self.expr()
        kind, text, off = self.token
        if kind != "end":
            raise ExprSyntaxError(f"trailing input {text!r}", off)
        return e

    def expr(self):
        e = self.term()
        while self.token[:2] in (("punct", "+"), ("punct", "-")):
            op = self.advance()[1]
            rhs = self.term()
            e = Add(e, rhs) if op == "+" else Sub(e, rhs)
        return e

    def term(self):
        e = self.unary()
        while self.token[:2] in (("punct", "*"), ("punct", "/")):
            op = self.advance()[1]
            rhs = self.unary()
            e = Mul(e, rhs) if op == "*" else Div(e, rhs)
        return e

    def unary(self):
        if self.token[:2] == ("punct", "-"):
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self):
        base = self.atom()
        if self.token[:2] == ("punct", "^"):
            self.advance()
            return Pow(base, self.exponent())
        return base

    def exponent(self):
        sign = 1
        if self.token[:2] == ("punct", "-"):
            self.advance()
            sign = -1
        kind, text, off = self.token
        if kind != "num":
            raise ExprSyntaxError(f"expected integer exponent, found {text!r}", off)
        if "." in text:
            raise NonIntegerExponent(off)
        self.advance()
        return sign * int(text)

    def atom(self):
        kind, text, off = self.advance()
        if kind == "num":
            return Const(Fraction(text))
        if kind == "ident":
            if text in FUNCTIONS:
                self.expect_punct("(")
                arg = self.expr()
                self.expect_punct(")")
                return {"sin": Sin, "cos": Cos, "exp": Exp, "sqrt": Sqrt}[text](arg)
            if text not in self.coords:
                raise UnknownIdentifier(text, off)
            if self.token[:2] == ("punct", "("):
                raise ExprSyntaxError(f"coordinate {text!r} is not callable", self.token[2])
            return Coord(self.coords[text])
        if (kind, text) == ("punct", "("):
            e = self.expr()
            self.expect_punct(")")
            return e
        raise ExprSyntaxError(f"unexpected token {text!r}", off)


def parse_expr(source: str, coord_names) -> Expr:
    """Parse `source` into an AST; identifiers bind by position in `coord_names`."""
    names = list(coord_names)
    if len(set(names)) != len(names):
        raise DimensionMismatch("coordinate names must be distinct")
    return _Parser(_tokenize(source), names).parse()


def monomial_terms(e: Expr):
    """`e` as a sum of monomial terms, [(coefficient, {coordinate index:
    power})] in the order the tree lists them, or None if it is not one.

    A term is a product of constants, coordinates and `Coord ^ n` with an
    integer n >= 0; terms are joined by `+`, `-` and unary `-`, and a
    product with one single-term factor multiplies that term into each
    term of the other.  A product of two sums, such as (x - 1000)^2, is not
    one: expanding it could cancel.  A quotient by a sum of constants, such
    as x^2/4 or 1/(2 + 1), divides each term's coefficient by that sum,
    unless it is zero: a division by zero stays a quotient, which the tape
    evaluates and names the point where it fails.  Coefficients are the
    constants' product, exact for `Fraction`s; zero ones are kept, and so
    is a coordinate to the power 0, so every coordinate the tree reads is a
    key of some term."""
    match e:
        case Const(value=v):
            return [(v, {})]
        case Coord(index=i):
            return [(1, {i: 1})]
        case Pow(base=Coord(index=i), exponent=n) if isinstance(n, int) and n >= 0:
            return [(1, {i: n})]
        case Neg(arg=a):
            terms = monomial_terms(a)
            return None if terms is None else [(-c, m) for c, m in terms]
        case Add(left=a, right=b) | Sub(left=a, right=b) | Mul(left=a, right=b):
            left, right = monomial_terms(a), monomial_terms(b)
            if left is None or right is None:
                return None
            if type(e) is Add:
                return left + right
            if type(e) is Sub:
                return left + [(-c, m) for c, m in right]
            if len(left) == 1 or len(right) == 1:
                return [(ca * cb, _times(ma, mb)) for ca, ma in left for cb, mb in right]
        case Div(left=a, right=b):
            terms, divisor = monomial_terms(a), monomial_terms(b)
            if terms is None or divisor is None or any(m for _, m in divisor):
                return None
            d = sum((c for c, _ in divisor), Fraction(0))
            return [(c / d, m) for c, m in terms] if d else None
    return None


def _times(ma, mb):
    """The powers of the product of two monomials."""
    out = dict(ma)
    for i, n in mb.items():
        out[i] = out.get(i, 0) + n
    return out


# --------------------------------------------------------------------------
# Pretty-printing (inverse of the parser on its normal form)
# --------------------------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_UNARY, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _fmt_const(v):
    if isinstance(v, Fraction):
        sign = "-" if v < 0 else ""
        num, den = abs(v.numerator), v.denominator
        if den == 1:
            return f"{sign}{num}"
        # Exact decimal when the denominator is 2^a 5^b, else a quotient.
        d = den
        for p in (2, 5):
            while d % p == 0:
                d //= p
        if d == 1:
            scale = 1
            while 10 ** scale % den:
                scale += 1
            digits = num * 10 ** scale // den
            s = f"{digits:0{scale + 1}d}"
            return f"{sign}{s[:-scale]}.{s[-scale:]}"
        return f"{sign}({num}/{den})"
    return repr(v)


def to_source(e: Expr, coord_names=None) -> str:
    """Render an AST back to parseable source; see the round-trip invariant."""

    def name(i):
        return coord_names[i] if coord_names else f"x{i + 1}"

    def walk(node, parent_prec):
        match node:
            case Const(value=v):
                s, prec = _fmt_const(v), _PREC_ATOM
            case Coord(index=i):
                s, prec = name(i), _PREC_ATOM
            case Neg(arg=a):
                s, prec = "-" + walk(a, _PREC_UNARY), _PREC_UNARY
            case Add(left=l, right=r):
                s, prec = walk(l, _PREC_ADD) + " + " + walk(r, _PREC_ADD + 1), _PREC_ADD
            case Sub(left=l, right=r):
                s, prec = walk(l, _PREC_ADD) + " - " + walk(r, _PREC_ADD + 1), _PREC_ADD
            case Mul(left=l, right=r):
                s, prec = walk(l, _PREC_MUL) + "*" + walk(r, _PREC_MUL + 1), _PREC_MUL
            case Div(left=l, right=r):
                s, prec = walk(l, _PREC_MUL) + "/" + walk(r, _PREC_MUL + 1), _PREC_MUL
            case Pow(base=b, exponent=n):
                s, prec = walk(b, _PREC_ATOM) + "^" + str(n), _PREC_POW
            case Sin(arg=a):
                s, prec = "sin(" + walk(a, 0) + ")", _PREC_ATOM
            case Cos(arg=a):
                s, prec = "cos(" + walk(a, 0) + ")", _PREC_ATOM
            case Exp(arg=a):
                s, prec = "exp(" + walk(a, 0) + ")", _PREC_ATOM
            case Sqrt(arg=a):
                s, prec = "sqrt(" + walk(a, 0) + ")", _PREC_ATOM
            case _:
                raise TypeError(f"not an expression node: {node!r}")
        return "(" + s + ")" if prec < parent_prec else s

    return walk(e, 0)
