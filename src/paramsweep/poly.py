"""Square polynomial systems whose coefficients are polynomial in parameters.

A system F(z, p) of N polynomials in N variables z and M parameters p is
stored fully expanded as lists of :class:`Term` (sparse monomial form).
Expansion happens at parse time, which makes differentiation trivial and
lets one compiled term structure (``term_structure``) serve every
parameter point: a point only changes the (n_terms, B) coefficients.

The input grammar is Bertini-style declarations and definitions::

    variable z0, z1;
    parameter a, b;
    function f0, f1;
    f0 = z0^2 - a;
    f1 = z0*z1 + 3.5*b^2 - 1.2e-3*I;

Supported expression syntax: ``+ - * ^`` with non-negative integer
exponents, parentheses, decimal and scientific literals, and ``I`` for the
imaginary unit.  ``%`` and ``#`` start line comments.

All numeric data is double-precision complex.  Parsed systems are
immutable and safe to share across worker processes.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ParseError",
    "strip_comment",
    "Term",
    "ParamSystem",
    "parse_system",
    "variable_degrees",
]


class ParseError(ValueError):
    """Input text rejected, with 1-based line/column when available."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"line {line}, col {col}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class Term:
    """One monomial: coeff * z^var_exps * p^param_exps."""

    coeff: complex
    var_exps: tuple[int, ...]
    param_exps: tuple[int, ...]


@dataclass(frozen=True)
class ParamSystem:
    """Square system of N expanded polynomials in N variables, M parameters."""

    var_names: tuple[str, ...]
    param_names: tuple[str, ...]
    functions: tuple[tuple[Term, ...], ...]

    def __post_init__(self):
        n, m = len(self.var_names), len(self.param_names)
        if len(self.functions) != n:
            raise ParseError(
                f"non-square system: {len(self.functions)} functions, {n} variables"
            )
        names = self.var_names + self.param_names
        if len(set(names)) != len(names):
            raise ParseError("variable/parameter names are not unique")
        for terms in self.functions:
            for t in terms:
                if len(t.var_exps) != n or len(t.param_exps) != m:
                    raise ParseError("term exponent vector has wrong length")

    @property
    def n_vars(self) -> int:
        return len(self.var_names)

    @property
    def n_params(self) -> int:
        return len(self.param_names)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)
        |(?P<name>[A-Za-z_][A-Za-z0-9_]*)
        |(?P<op>[-+*^();,=])
        |(?P<ws>\s+)
        |(?P<bad>.)""",
    re.VERBOSE,
)

_DECL_KINDS = ("variable", "parameter", "function")


@dataclass(frozen=True)
class _Tok:
    kind: str  # "num", "name", or the operator character
    text: str
    line: int
    col: int


def strip_comment(line: str) -> str:
    """``line`` up to its first ``%`` or ``#``: the comment rule of every
    input text, systems, input files and point files alike."""
    for marker in "%#":
        line = line.partition(marker)[0]
    return line


def _tokenize(text: str) -> list[_Tok]:
    toks: list[_Tok] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        for m in _TOKEN_RE.finditer(strip_comment(line)):
            col = m.start() + 1
            if m.lastgroup == "ws":
                continue
            if m.lastgroup == "bad":
                raise ParseError(f"unexpected character {m.group()!r}", lineno, col)
            kind = m.lastgroup if m.lastgroup != "op" else m.group()
            toks.append(_Tok(kind, m.group(), lineno, col))
    return toks


# A polynomial under construction: {(var_exps, param_exps): coeff}
_Poly = dict


def _poly_add(a: _Poly, b: _Poly, sign: complex = 1.0) -> _Poly:
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, 0.0) + sign * c
        if out[k] == 0:
            del out[k]
    return out


def _poly_mul(a: _Poly, b: _Poly) -> _Poly:
    out: _Poly = {}
    for (v1, p1), ca in a.items():
        for (v2, p2), cb in b.items():
            k = (
                tuple(x + y for x, y in zip(v1, v2)),
                tuple(x + y for x, y in zip(p1, p2)),
            )
            out[k] = out.get(k, 0.0) + ca * cb
            if out[k] == 0:
                del out[k]
    return out


class _Parser:
    """Recursive-descent parser for the declaration/definition grammar."""

    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0
        self.vars: list[str] = []
        self.params: list[str] = []
        self.funcs: list[str] = []
        self.defs: dict[str, _Poly] = {}

    def _const(self, c: complex) -> _Poly:
        if c == 0:
            return {}
        key = ((0,) * len(self.vars), (0,) * len(self.params))
        return {key: complex(c)}

    # -- token helpers
    def _peek(self) -> _Tok | None:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def _next(self) -> _Tok:
        tok = self._peek()
        if tok is None:
            last = self.toks[-1] if self.toks else None
            raise ParseError(
                "unexpected end of input",
                last.line if last else 1,
                last.col if last else 1,
            )
        self.pos += 1
        return tok

    def _expect(self, kind: str) -> _Tok:
        tok = self._next()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text!r}", tok.line, tok.col)
        return tok

    # -- statements
    def parse(self) -> ParamSystem:
        while self._peek() is not None:
            tok = self._peek()
            if tok.kind == "name" and tok.text in _DECL_KINDS:
                self._declaration()
            elif tok.kind == "name":
                self._definition()
            elif tok.kind == ";":
                self._next()
            else:
                raise ParseError(f"unexpected token {tok.text!r}", tok.line, tok.col)
        return self._build()

    def _declaration(self):
        kw = self._next()
        target = {"variable": self.vars, "parameter": self.params, "function": self.funcs}[kw.text]
        while True:
            name_tok = self._expect("name")
            name = name_tok.text
            if name in _DECL_KINDS or name == "I":
                raise ParseError(f"{name!r} is reserved", name_tok.line, name_tok.col)
            if name in self.vars or name in self.params or name in self.funcs:
                raise ParseError(f"duplicate declaration of {name!r}", name_tok.line, name_tok.col)
            target.append(name)
            tok = self._next()
            if tok.kind == ";":
                return
            if tok.kind != ",":
                raise ParseError(f"expected ',' or ';', found {tok.text!r}", tok.line, tok.col)

    def _definition(self):
        name_tok = self._expect("name")
        name = name_tok.text
        if name not in self.funcs:
            raise ParseError(f"{name!r} is not a declared function", name_tok.line, name_tok.col)
        if name in self.defs:
            raise ParseError(f"function {name!r} defined twice", name_tok.line, name_tok.col)
        self._expect("=")
        poly = self._expr()
        self._expect(";")
        self.defs[name] = poly

    # -- expression grammar: expr -> term (('+'|'-') term)*
    def _expr(self) -> _Poly:
        tok = self._peek()
        sign = 1.0
        if tok is not None and tok.kind in "+-":
            self._next()
            sign = -1.0 if tok.kind == "-" else 1.0
        poly = self._term()
        if sign < 0:
            poly = _poly_add({}, poly, -1.0)
        while (tok := self._peek()) is not None and tok.kind in "+-":
            self._next()
            rhs = self._term()
            poly = _poly_add(poly, rhs, -1.0 if tok.kind == "-" else 1.0)
        return poly

    def _term(self) -> _Poly:
        poly = self._factor()
        while (tok := self._peek()) is not None and tok.kind == "*":
            self._next()
            poly = _poly_mul(poly, self._factor())
        return poly

    def _factor(self) -> _Poly:
        base = self._base()
        tok = self._peek()
        if tok is not None and tok.kind == "^":
            self._next()
            exp_tok = self._next()
            neg = False
            if exp_tok.kind == "-":
                neg = True
                exp_tok = self._next()
            if exp_tok.kind != "num" or not exp_tok.text.isdigit():
                raise ParseError(
                    f"exponent must be a non-negative integer, found {exp_tok.text!r}",
                    exp_tok.line,
                    exp_tok.col,
                )
            if neg:
                raise ParseError("negative exponent not allowed", exp_tok.line, exp_tok.col)
            power = int(exp_tok.text)
            out = self._const(1.0)
            for _ in range(power):
                out = _poly_mul(out, base)
            return out
        return base

    def _base(self) -> _Poly:
        tok = self._next()
        if tok.kind == "num":
            return self._const(float(tok.text))
        if tok.kind == "name":
            if tok.text == "I":
                return self._const(1j)
            if tok.text in self.vars:
                v = [0] * len(self.vars)
                v[self.vars.index(tok.text)] = 1
                return {(tuple(v), (0,) * len(self.params)): 1.0 + 0j}
            if tok.text in self.params:
                q = [0] * len(self.params)
                q[self.params.index(tok.text)] = 1
                return {((0,) * len(self.vars), tuple(q)): 1.0 + 0j}
            raise ParseError(f"undeclared identifier {tok.text!r}", tok.line, tok.col)
        if tok.kind == "(":
            poly = self._expr()
            self._expect(")")
            return poly
        if tok.kind in "+-":
            inner = self._factor()
            return _poly_add({}, inner, -1.0 if tok.kind == "-" else 1.0)
        raise ParseError(f"unexpected token {tok.text!r}", tok.line, tok.col)

    # -- assembly
    def _build(self) -> ParamSystem:
        if len(self.funcs) != len(self.vars):
            raise ParseError(
                f"non-square system: {len(self.funcs)} functions, {len(self.vars)} variables"
            )
        missing = [f for f in self.funcs if f not in self.defs]
        if missing:
            raise ParseError(f"function {missing[0]!r} has no definition")
        functions = []
        for f in self.funcs:
            terms = [Term(complex(c), v, q) for (v, q), c in self.defs[f].items()]
            # canonical order: graded by var exponents then param exponents
            terms.sort(key=lambda t: (t.var_exps, t.param_exps))
            functions.append(tuple(terms))
        return ParamSystem(tuple(self.vars), tuple(self.params), tuple(functions))


def parse_system(text: str) -> ParamSystem:
    """Parse declaration/definition text into an expanded ParamSystem."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# Compiled term structure for fast evaluation
# ---------------------------------------------------------------------------


def _monomials(x: np.ndarray, exps: np.ndarray, max_deg: int) -> np.ndarray:
    """(K, B) monomials of a (B, n) batch: row k holds x**exps[k] for every
    point, multiplied out of one table of the powers x**0 .. x**max_deg."""
    if x.shape[1] == 0:
        return np.ones((len(exps), len(x)), dtype=complex)
    pw = np.empty((max_deg + 1,) + x.shape, dtype=complex)
    pw[0] = 1.0
    for k in range(1, max_deg + 1):
        pw[k] = pw[k - 1] * x
    m = pw[exps[:, 0], :, 0]
    for j in range(1, x.shape[1]):
        m *= pw[exps[:, j], :, j]
    return m


class TermStructure:
    """Flat numpy views of a system's monomials, shared by every parameter
    point and homotopy of the family.

    Holds exponent matrices and reduceat segment offsets so that repeated
    evaluation and differentiation need no per-call setup.  Summation is
    performed segment-by-segment in stored term order, which keeps results
    deterministic.  Every monomial, of the variables and of the parameters
    alike, comes from one kernel (``_monomials``).

    The Jacobian tables are read off ``var_exps``: d/dz_j of term k of
    function i contributes ``e * coeff[k] * z^(e_k - 1_j)`` to cell
    i*N + j, with e = var_exps[k, j] > 0.  Ordered by cell and, within a
    cell, by term, ``jac_src`` holds each contribution's term, ``jac_fac``
    its e and ``jac_exps`` its exponents; each cell with a contribution is
    one segment (``jac_cells``, ``jac_starts``).

    Every term has one parameter monomial.  The terms are grouped by it
    into blocks: ``block_exps`` (n_blocks, M) holds each distinct monomial's
    exponents, and ``block`` (n_terms,) each term's block, so a term's
    coefficient at p is ``base_coeffs[k] * param_monomials(p)[block[k]]``.

    Coefficients are term-major: (n_terms, B), one column per point, B = 1
    for one system.  Every evaluation takes one point z of shape (N,), with
    one column, or a batch of B points of shape (B, N), with one column per
    point or one shared column.  Row b of a batched result is bit-identical
    to the result for point b alone: each row sees the same multiplications
    and the same segment sums.
    """

    def __init__(self, n_vars: int, n_params: int, functions: tuple[tuple[Term, ...], ...]):
        self.n_vars = n_vars
        self.n_params = n_params
        terms = [t for fn in functions for t in fn]
        self.n_terms = len(terms)
        self.base_coeffs = np.array([t.coeff for t in terms], dtype=complex)
        self.var_exps = np.array(
            [t.var_exps for t in terms], dtype=np.intp
        ).reshape(self.n_terms, n_vars)
        self.param_exps = np.array(
            [t.param_exps for t in terms], dtype=np.intp
        ).reshape(self.n_terms, n_params)
        block_exps, block = np.unique(self.param_exps, axis=0, return_inverse=True)
        self.block_exps = block_exps
        self.block = block.reshape(self.n_terms)
        # a derivative's exponents never exceed its term's
        self.max_var_deg = int(self.var_exps.max(initial=0))
        self.max_param_deg = int(self.param_exps.max(initial=0))

        # evaluation segments: each function with terms sums its own run of terms
        counts = np.array([len(fn) for fn in functions], dtype=np.intp)
        self.eval_fn_ids = np.flatnonzero(counts)
        self.eval_starts = (np.cumsum(counts) - counts)[self.eval_fn_ids]

        # Jacobian terms, in (term, variable) order, then stably by cell
        term, var = np.nonzero(self.var_exps)
        cells = np.repeat(np.arange(n_vars), counts)[term] * n_vars + var
        order = np.argsort(cells, kind="stable")
        term, var = term[order], var[order]
        self.jac_src = term
        self.jac_fac = self.var_exps[term, var].astype(float)
        self.jac_exps = self.var_exps[term]
        self.jac_exps[np.arange(len(term)), var] -= 1
        self.jac_cells, self.jac_starts = np.unique(cells[order], return_index=True)
        # stacked exponents for the fused value+Jacobian pass
        self._all_exps = np.vstack([self.var_exps, self.jac_exps])

    def _values(self, coeffs: np.ndarray, mono: np.ndarray) -> np.ndarray:
        """(B, N) function values from (n_terms, B) monomials."""
        out = np.zeros((self.n_vars, mono.shape[1]), dtype=complex)
        if self.n_terms:
            vals = coeffs * mono
            out[self.eval_fn_ids] = np.add.reduceat(vals, self.eval_starts, axis=0)
        return out.T

    def _jac_values(self, coeffs: np.ndarray, mono: np.ndarray) -> np.ndarray:
        """(B, N, N) Jacobians from (n_jac_terms, B) monomials."""
        n = self.n_vars
        jac = np.zeros((n * n, mono.shape[1]), dtype=complex)
        if len(self.jac_src):
            vals = coeffs[self.jac_src] * self.jac_fac[:, None] * mono
            jac[self.jac_cells] = np.add.reduceat(vals, self.jac_starts, axis=0)
        return jac.T.reshape(-1, n, n)

    def param_monomials(self, points: np.ndarray) -> np.ndarray:
        """(n_blocks, k) parameter monomials p^block_exps of the (k, M) ``points``."""
        return _monomials(points, self.block_exps, self.max_param_deg)

    # the value or the Jacobian alone; sweepbench/tracer.py wraps both by name
    def evaluate(self, coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
        zb = z.reshape(-1, self.n_vars)
        out = self._values(coeffs, _monomials(zb, self.var_exps, self.max_var_deg))
        return out[0] if z.ndim == 1 else out

    def jacobian(self, coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
        zb = z.reshape(-1, self.n_vars)
        jac = self._jac_values(coeffs, _monomials(zb, self.jac_exps, self.max_var_deg))
        return jac[0] if z.ndim == 1 else jac

    def eval_and_jac(
        self, eval_coeffs: np.ndarray, jac_coeffs: np.ndarray, z: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Value and Jacobian in one pass over a shared power table.

        The two (n_terms, B) coefficient arrays may differ, which lets a
        homotopy pair dH/dt (for prediction) with the Jacobian of H at the
        same point.  ``z`` is one point, shape (N,), or a batch, shape (B, N).
        """
        if z.ndim not in (1, 2) or z.shape[-1] != self.n_vars:
            raise ValueError(
                f"expected z of shape ({self.n_vars},) or (B, {self.n_vars}), "
                f"got {z.shape}"
            )
        zb = z.reshape(-1, self.n_vars)
        mono = _monomials(zb, self._all_exps, self.max_var_deg)
        out = self._values(eval_coeffs, mono[: self.n_terms])
        jac = self._jac_values(jac_coeffs, mono[self.n_terms :])
        return (out[0], jac[0]) if z.ndim == 1 else (out, jac)


@functools.lru_cache(maxsize=64)
def term_structure(sys: ParamSystem) -> TermStructure:
    """The term structure of ``sys``, built once per family."""
    return TermStructure(sys.n_vars, sys.n_params, sys.functions)


def variable_degrees(sys: ParamSystem) -> tuple[int, ...]:
    """Per-function total degree in the variables only."""
    return tuple(
        max((sum(t.var_exps) for t in fn), default=0) for fn in sys.functions
    )
