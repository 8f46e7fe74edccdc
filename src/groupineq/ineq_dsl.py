"""Parser and printers for linear information inequalities.

An inequality like "I(X1;X2) <= I(X1;X2|X3) + I(X3;X4)" is expanded into a
signed integer coefficient vector over joint entropies: sum over nonempty
subsets A of c_A * H(X_A) >= 0, with "holds" meaning >= 0. That vector is
the single internal representation; the textual form and the group-product
form are printers on top of it.

Grammar (whitespace insignificant):
    ineq     := expr ((">=" | "<=") expr)?
    expr     := term (("+" | "-") term)*
    term     := [integer] quantity
    quantity := "H(" varlist ["|" varlist] ")"
              | "I(" varlist ";" varlist ["|" varlist] ")"
              | "0"
    varlist  := "X" digits ("," "X" digits)*

A bare expr with no comparator is read as "expr >= 0".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Tuple

__all__ = [
    "MAX_VARS",
    "ParseError",
    "InequalitySpec",
    "parse",
    "pretty_print",
    "group_form",
    "symmetry_group",
    "builtin",
    "BUILTIN_IDS",
    "DFZ_IDS",
]

MAX_VARS = 5

Subset = FrozenSet[int]


class ParseError(ValueError):
    """Syntax or semantic error in an inequality expression, with position."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True, eq=False)
class InequalitySpec:
    """Canonical coefficient vector of a linear information inequality.

    coeffs maps nonempty subsets of {1..n_vars} to nonzero integers; the
    inequality reads sum c_A * H(X_A) >= 0 and a violation is strict < 0.
    """

    n_vars: int
    coeffs: Dict[Subset, int]
    id: str = ""

    def subsets(self) -> List[Subset]:
        return sorted(self.coeffs, key=_subset_key)

    def __repr__(self) -> str:
        label = self.id or "adhoc"
        return f"InequalitySpec({label}, n_vars={self.n_vars}, {len(self.coeffs)} terms)"


def _subset_key(subset: Subset) -> Tuple[int, Tuple[int, ...]]:
    t = tuple(sorted(subset))
    return (len(t), t)


# ---------------------------------------------------------------------------
# Tokenizer

class _Token(NamedTuple):
    kind: str
    value: int
    pos: int
    text: str


def _tokenize(text: str) -> List[_Token]:
    tokens: List[_Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if "0" <= ch <= "9":
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            tokens.append(_Token("INT", int(text[i:j]), i, text[i:j]))
            i = j
            continue
        if ch == "X":
            j = i + 1
            while j < n and "0" <= text[j] <= "9":
                j += 1
            if j == i + 1:
                raise ParseError("expected a digit after 'X'", i)
            tokens.append(_Token("VAR", int(text[i + 1:j]), i, text[i:j]))
            i = j
            continue
        simple = {"H": "H", "I": "I", "(": "LPAREN", ")": "RPAREN", "|": "PIPE",
                  ";": "SEMI", ",": "COMMA", "+": "PLUS", "-": "MINUS"}
        if ch in simple:
            tokens.append(_Token(simple[ch], 0, i, ch))
            i += 1
            continue
        if text.startswith(">=", i):
            tokens.append(_Token("GE", 0, i, ">="))
            i += 2
            continue
        if text.startswith("<=", i):
            tokens.append(_Token("LE", 0, i, "<="))
            i += 2
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("END", 0, n, ""))
    return tokens


# ---------------------------------------------------------------------------
# Parser

class _Parser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.max_var = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.advance()
        if tok.kind != kind:
            shown = tok.text or "end of input"
            raise ParseError(f"expected {what}, found {shown!r}", tok.pos)
        return tok

    def parse_varlist(self) -> Subset:
        vars_seen = set()
        while True:
            tok = self.expect("VAR", "a variable like X1")
            if not 1 <= tok.value <= MAX_VARS:
                raise ParseError(f"variable index {tok.value} outside 1..{MAX_VARS}", tok.pos)
            vars_seen.add(tok.value)
            self.max_var = max(self.max_var, tok.value)
            if self.peek().kind == "COMMA":
                self.advance()
            else:
                return frozenset(vars_seen)

    def parse_quantity(self) -> Dict[Subset, int]:
        tok = self.advance()
        if tok.kind == "INT" and tok.value == 0:
            return {}
        if tok.kind == "H":
            self.expect("LPAREN", "'('")
            left = self.parse_varlist()
            cond: Optional[Subset] = None
            if self.peek().kind == "PIPE":
                self.advance()
                cond = self.parse_varlist()
            self.expect("RPAREN", "')'")
            out: Dict[Subset, int] = {}
            if cond is None:
                _add(out, left, 1)
            else:
                _add(out, left | cond, 1)
                _add(out, cond, -1)
            return out
        if tok.kind == "I":
            self.expect("LPAREN", "'('")
            a = self.parse_varlist()
            self.expect("SEMI", "';'")
            b = self.parse_varlist()
            cond = frozenset()
            if self.peek().kind == "PIPE":
                self.advance()
                cond = self.parse_varlist()
            self.expect("RPAREN", "')'")
            out = {}
            _add(out, a | cond, 1)
            _add(out, b | cond, 1)
            _add(out, a | b | cond, -1)
            if cond:
                _add(out, cond, -1)
            return out
        shown = tok.text or "end of input"
        raise ParseError(f"expected a quantity H(...), I(...) or 0, found {shown!r}", tok.pos)

    def parse_term(self) -> Dict[Subset, int]:
        scale = 1
        if self.peek().kind == "INT" and not (
                self.peek().value == 0 and self.tokens[self.pos + 1].kind in
                ("PLUS", "MINUS", "GE", "LE", "END")):
            scale = self.advance().value
        quantity = self.parse_quantity()
        return {k: v * scale for k, v in quantity.items()}

    def parse_expr(self) -> Dict[Subset, int]:
        out = self.parse_term()
        while self.peek().kind in ("PLUS", "MINUS"):
            sign = 1 if self.advance().kind == "PLUS" else -1
            term = self.parse_term()
            for k, v in term.items():
                _add(out, k, sign * v)
        return out

    def parse_ineq(self) -> Dict[Subset, int]:
        lhs = self.parse_expr()
        tok = self.peek()
        if tok.kind in ("GE", "LE"):
            self.advance()
            rhs = self.parse_expr()
            coeffs = dict(lhs) if tok.kind == "GE" else dict(rhs)
            other = rhs if tok.kind == "GE" else lhs
            for k, v in other.items():
                _add(coeffs, k, -v)
        else:
            coeffs = lhs
        self.expect("END", "end of input")
        return {k: v for k, v in coeffs.items() if v != 0}


def _add(coeffs: Dict[Subset, int], subset: Subset, value: int) -> None:
    if not subset:
        return
    new = coeffs.get(subset, 0) + value
    if new == 0:
        coeffs.pop(subset, None)
    else:
        coeffs[subset] = new


def parse(text: str, id: str = "") -> InequalitySpec:
    """Parse an inequality (or a bare expression, read as ">= 0")."""
    parser = _Parser(text)
    coeffs = parser.parse_ineq()
    n_vars = max(parser.max_var, 1)
    return InequalitySpec(n_vars=n_vars, coeffs=coeffs, id=id)


# ---------------------------------------------------------------------------
# Printers

def pretty_print(spec: InequalitySpec) -> str:
    """Canonical joint-entropy text for a spec, positive terms on the left;
    parsing the result reproduces its coeffs."""
    terms = sorted(spec.coeffs.items(), key=lambda kv: _subset_key(kv[0]))
    return (f"{_render_side([(s, c) for s, c in terms if c > 0])} >= "
            f"{_render_side([(s, -c) for s, c in terms if c < 0])}")


def _render_side(terms: Sequence[Tuple[Subset, int]]) -> str:
    parts = [("" if c == 1 else f"{c} ") + "H(" + ",".join(f"X{i}" for i in sorted(subset)) + ")"
             for subset, c in terms]
    return " + ".join(parts) or "0"


def group_form(spec: InequalitySpec) -> str:
    """The inequality as a product comparison of subgroup orders.

    Each H(X_A) = log(|G|/|G_A|) turns the linear form into
    "product of |G_A| over c_A > 0  <=  product of |G_A| over c_A < 0",
    with any leftover power of |G| attached to the appropriate side.
    The left product is the one a violation makes strictly larger.
    """
    lhs: List[str] = []
    rhs: List[str] = []
    balance = sum(spec.coeffs.values())
    for subset in spec.subsets():
        c = spec.coeffs[subset]
        label = "|G" + "".join(str(i) for i in sorted(subset)) + "|"
        target, power = (lhs, c) if c > 0 else (rhs, -c)
        target.append(label if power == 1 else f"{label}^{power}")
    if balance > 0:
        rhs.insert(0, "|G|" if balance == 1 else f"|G|^{balance}")
    elif balance < 0:
        lhs.insert(0, "|G|" if balance == -1 else f"|G|^{-balance}")
    left = "".join(lhs) if lhs else "1"
    right = "".join(rhs) if rhs else "1"
    return f"{left} <= {right}"


# ---------------------------------------------------------------------------
# Symmetries

def _apply_perm(subset: Subset, perm: Tuple[int, ...]) -> Subset:
    return frozenset(perm[i - 1] for i in subset)


def symmetry_group(spec: InequalitySpec) -> Tuple[Tuple[int, ...], ...]:
    """All permutations of the variable indices fixing the coefficient vector,
    as 1-based image tuples in lexicographic order, the identity first.

    Images are chosen for variables 1, 2, ... in turn. A variable can only
    go to one whose terms have the same sizes and coefficients, and once
    every variable of a term has its image, the image term must carry the
    same coefficient, so a partial choice that breaks either is dropped.
    """
    n = spec.n_vars
    profile = [sorted((len(s), c) for s, c in spec.coeffs.items() if i in s)
               for i in range(n + 1)]
    # the terms whose largest variable is i, checked once i has its image
    closing: List[List[Tuple[Subset, int]]] = [[] for _ in range(n + 1)]
    for s, c in spec.coeffs.items():
        closing[max(s, default=0)].append((s, c))
    out: List[Tuple[int, ...]] = []
    images: List[int] = []

    def extend() -> None:
        i = len(images) + 1
        if i > n:
            out.append(tuple(images))
            return
        for j in range(1, n + 1):
            if j in images or profile[j] != profile[i]:
                continue
            images.append(j)
            if all(spec.coeffs.get(_apply_perm(s, images), 0) == c for s, c in closing[i]):
                extend()
            images.pop()

    extend()
    return tuple(out)


# ---------------------------------------------------------------------------
# Builtins

_BUILTIN_TEXTS: Dict[str, str] = {
    "ingleton": "I(X1;X2) <= I(X1;X2|X3) + I(X1;X2|X4) + I(X3;X4)",
    "dfz1": "I(X1;X2) <= I(X1;X2|X3) + I(X1;X2|X4) + I(X3;X4|X5) + I(X1;X5)",
    "dfz2": "I(X1;X2) <= I(X1;X2|X3) + I(X1;X3|X4) + I(X1;X4|X5) + I(X2;X5)",
    "dfz3": "I(X1;X2) <= I(X1;X3) + I(X1;X2|X4) + I(X2;X5|X3) + I(X1;X4|X3,X5)",
    "dfz4": "I(X1;X2) <= I(X1;X3) + I(X1;X2|X4,X5) + I(X2;X4|X3) + I(X1;X5|X3,X4)",
    "dfz5": "I(X1;X2) <= I(X1;X3) + I(X2;X4|X3) + I(X1;X5|X4) + I(X1;X2|X3,X5) + I(X2;X3|X4,X5)",
    "dfz6": "I(X1;X2) <= I(X1;X3) + I(X2;X4|X5) + I(X4;X5|X3) + I(X1;X2|X3,X4) + I(X1;X3|X4,X5)",
    "dfz7": "I(X1;X2) <= I(X2;X4) + I(X1;X3|X4) + I(X1;X5|X3) + I(X2;X4|X3,X5) + I(X1;X2|X4,X5)",
    "dfz8": "2 I(X1;X2) <= I(X3;X4) + I(X3,X4;X5) + I(X1;X2|X3) + I(X1;X2|X4) + I(X1;X2|X5)",
    "dfz9": "2 I(X1;X2) <= I(X1;X3) + I(X4;X5) + I(X1;X2|X4) + I(X1;X2|X5) + I(X2;X4,X5|X3)",
    "dfz10": "2 I(X1;X2) <= I(X3;X4) + I(X1;X5) + I(X1;X2|X3) + I(X1;X2|X4) + I(X2;X4|X5) + I(X1;X3|X4,X5)",
}

BUILTIN_IDS: Tuple[str, ...] = ("ingleton",) + tuple(f"dfz{i}" for i in range(1, 11))
# The ten five-variable inequalities are exactly the ones implied by the
# existence of a common information for (X1, X2); the search engine's
# theory prunes are licensed only for these.
DFZ_IDS: Tuple[str, ...] = tuple(f"dfz{i}" for i in range(1, 11))

_BUILTIN_CACHE: Dict[str, InequalitySpec] = {}


def builtin(id: str) -> InequalitySpec:
    """One of the named inequalities: "ingleton" or "dfz1" .. "dfz10"."""
    if id not in _BUILTIN_TEXTS:
        raise ValueError(f"unknown inequality id {id!r}; known: {', '.join(BUILTIN_IDS)}")
    if id not in _BUILTIN_CACHE:
        _BUILTIN_CACHE[id] = parse(_BUILTIN_TEXTS[id], id=id)
    return _BUILTIN_CACHE[id]


def resolve_ids(ids: Sequence[str] | str) -> Tuple[str, ...]:
    """Expand "all" and validate a comma list or sequence of inequality ids."""
    if isinstance(ids, str):
        ids = [s.strip() for s in ids.split(",") if s.strip()]
    out: List[str] = []
    for name in ids:
        if name == "all":
            out.extend(BUILTIN_IDS)
        elif name == "dfz":
            out.extend(DFZ_IDS)
        elif name in _BUILTIN_TEXTS:
            out.append(name)
        else:
            raise ValueError(f"unknown inequality id {name!r}; known: {', '.join(BUILTIN_IDS)}")
    if not out:
        raise ValueError("no inequalities selected")
    return tuple(dict.fromkeys(out))
