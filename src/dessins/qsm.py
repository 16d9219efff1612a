"""Quantum statistical system built on the semigroup of linear labelled chains.

Words over the Galois-fixed label set form a semigroup under concatenation
(the empty word is the unit); they act on the tree algebra by grafting a chain
above the root.  A finite window of words of length <= L_max carries the
shift operators S_w, their adjoints, and the diagonal operators pi(X_t) built
from a balanced character.  Everything that can be checked exactly is checked
in cyclotomic arithmetic; time evolution uses complex floats.  The Gibbs
factor 1/((1 - q) Z) is rational: a = -1 must fix each fixed label, so they
are 0 and, for even m, m/2, and the level ratio q is (m % 2) / (D N^beta).

Operators in the window are "weighted shifts": each basis column maps to at
most one row with a cyclotomic coefficient.  Columns whose true image falls
outside the window are flagged and excluded from identity checks, so every
asserted identity is exact.
"""

from __future__ import annotations

import cmath
import math
import random
import time
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property

from dessins import hopf
from dessins.galois import (
    CyclotomicNumber,
    ExponentSumCharacter,
    GaloisGroup,
    _int_at_least,
    balance_check,
    char_eval,
    complex_embed,
)
from dessins.hopf import ForestPolynomial, relabel_tree
from dessins.report import Check, Report, check_all


class QsmError(ValueError):
    pass


class LabelNotFixed(QsmError):
    pass


class Divergent(QsmError):
    pass


class WindowTooSmall(QsmError):
    pass


# --- the word semigroup -------------------------------------------------------

def check_word(word, alphabet) -> tuple:
    word = tuple(word)
    allowed = set(alphabet)
    for lab in word:
        if lab not in allowed:
            raise LabelNotFixed(f"label {lab!r} is not in the fixed-label set {sorted(allowed)}")
    return word


def compose_words(w1, w2, alphabet=None) -> tuple:
    """Semigroup product: concatenation, the empty word is the unit."""
    if alphabet is not None:
        w1 = check_word(w1, alphabet)
        w2 = check_word(w2, alphabet)
    return tuple(w1) + tuple(w2)


def chain_graft(word, tree):
    """Graft a chain of word labels above the root of a tree.

    The first letter becomes the new root; label sums add."""
    cur = tree
    for lab in reversed(tuple(word)):
        cur = (lab, (cur,))
    return cur


def chain_strip(word, tree):
    """Inverse of chain_graft when the tree starts with the given chain, else None."""
    cur = tree
    for lab in tuple(word):
        label, children = cur
        if label != lab or len(children) != 1:
            return None
        cur = children[0]
    return cur


def alpha(word, x: ForestPolynomial) -> ForestPolynomial:
    """Algebra endomorphism X_t -> X_(word * t), extended multiplicatively."""
    word = tuple(word)
    return x.map_trees(lambda t: chain_graft(word, t))


def beta(word, x: ForestPolynomial) -> ForestPolynomial:
    """Partial inverse of alpha: strips the chain, kills non-factoring terms."""
    word = tuple(word)
    return x.map_trees(lambda t: chain_strip(word, t))


def words_upto(alphabet, max_length: int) -> list[tuple]:
    """All words of length <= max_length, in length-lexicographic order."""
    alphabet = tuple(sorted(alphabet))
    out = [()]
    level = [()]
    for _ in range(max_length):
        level = [w + (a,) for w in level for a in alphabet]
        out.extend(level)
    return out


# --- windowed operators ---------------------------------------------------------

@dataclass(frozen=True)
class LinearOp:
    """Operator on the word window: each column maps to at most one row.

    `cols` maps column index -> (row index, cyclotomic coefficient); columns in
    `overflow` left the window and are excluded from comparisons; absent
    columns are genuine zeros.
    """

    dim: int
    cols: dict[int, tuple[int, CyclotomicNumber]]
    overflow: frozenset[int] = frozenset()

    def compose(self, other: "LinearOp") -> "LinearOp":
        """self . other (apply `other` first)."""
        cols: dict = {}
        overflow = set(other.overflow)
        for c, (mid, coeff) in other.cols.items():
            if mid in self.overflow:
                overflow.add(c)
                continue
            hit = self.cols.get(mid)
            if hit is None:
                continue
            row, coeff2 = hit
            prod = coeff * coeff2
            if not prod.is_zero():
                cols[c] = (row, prod)
        return LinearOp(self.dim, cols, frozenset(overflow))

    def equal_on(self, other: "LinearOp", columns=None) -> bool:
        cols = set(range(self.dim)) if columns is None else set(columns)
        cols -= self.overflow | other.overflow
        for c in cols:
            a, b = self.cols.get(c), other.cols.get(c)
            if (a is None) != (b is None):
                return False
            if a is not None and (a[0] != b[0] or a[1] != b[1]):
                return False
        return True

    def safe_columns(self) -> frozenset[int]:
        return frozenset(range(self.dim)) - self.overflow


@dataclass(frozen=True)
class TruncatedRep:
    """Finite window of the word representation for one balanced character."""

    char: ExponentSumCharacter
    alphabet: tuple[int, ...]
    max_length: int
    basis: tuple[tuple, ...]
    index: dict[tuple, int]
    trees: tuple

    @property
    def dim(self) -> int:
        return len(self.basis)

    def identity(self) -> LinearOp:
        return self.shift(())

    def shift(self, word) -> LinearOp:
        """S_w: appends w to the basis word; out-of-window images are flagged."""
        word = check_word(word, self.alphabet)
        one = CyclotomicNumber.one(self.char.m)
        cols: dict = {}
        overflow = set()
        for i, w in enumerate(self.basis):
            target = w + word
            if len(target) <= self.max_length:
                cols[i] = (self.index[target], one)
            else:
                overflow.add(i)
        return LinearOp(self.dim, cols, frozenset(overflow))

    def shift_adjoint(self, word) -> LinearOp:
        """S_w^*: strips the suffix w, zero on words not ending in w."""
        word = check_word(word, self.alphabet)
        one = CyclotomicNumber.one(self.char.m)
        cols: dict = {}
        for i, w in enumerate(self.basis):
            if w[len(w) - len(word):] == word:
                cols[i] = (self.index[w[:len(w) - len(word)]], one)
        return LinearOp(self.dim, cols)

    def diag(self, tree) -> LinearOp:
        """pi(X_t): diagonal with entries phi(X_(w * t))."""
        cols: dict = {}
        for i, w in enumerate(self.basis):
            value = self.char.on_tree(chain_graft(w, tree))
            if not value.is_zero():
                cols[i] = (i, value)
        return LinearOp(self.dim, cols)

    def range_columns(self, word) -> frozenset[int]:
        """Columns of basis words that end with the given word."""
        return frozenset(self.shift_adjoint(word).cols)

    def length_diagonal(self) -> list[int]:
        return [len(w) for w in self.basis]


def build_rep(char: ExponentSumCharacter, max_length: int, alphabet,
              trees=()) -> TruncatedRep:
    """Basis of all words of length <= max_length over the alphabet."""
    alphabet = tuple(sorted(alphabet))
    _int_at_least("max_length", max_length, 1, WindowTooSmall)
    basis = tuple(words_upto(alphabet, max_length))
    index = {w: i for i, w in enumerate(basis)}
    return TruncatedRep(char, alphabet, max_length, basis, index, tuple(trees))


# --- crossed-product relation checks ---------------------------------------------

def verify_crossed_relations(rep: TruncatedRep, words=None) -> Report:
    """Exact matrix identities for the crossed-product relations.

    Composition law and isometry hold on window-safe columns.  Conjugation by
    S_w^* ... S_w realizes the chain-grafting endomorphism everywhere safe;
    conjugation by S_w ... S_w^* undoes it on the range of S_w and annihilates
    the complement.  The two conjugations are checked in that range form, which
    is the content the diagonal representation satisfies exactly.  Each
    relation instance is one Check, timed from the end of the one before.
    """
    if words is None:
        words = [(a,) for a in rep.alphabet]
    trees = rep.trees or tuple(hopf.leaf(a) for a in rep.alphabet)
    checks = []
    last = time.perf_counter()

    def add(name, passed):
        nonlocal last
        now = time.perf_counter()
        checks.append(Check(name, passed, seconds=now - last))
        last = now

    for w1 in words:
        for w2 in words:
            lhs = rep.shift(w1).compose(rep.shift(w2))
            rhs = rep.shift(compose_words(w2, w1))
            if not (lhs.safe_columns() & rhs.safe_columns()):
                raise WindowTooSmall(
                    f"no window-safe columns for the composition law at {w1}, {w2}")
            add(f"composition S_{w1} S_{w2} = S_{compose_words(w2, w1)}", lhs.equal_on(rhs))

    for w in words:
        lhs = rep.shift_adjoint(w).compose(rep.shift(w))
        add(f"isometry S*_{w} S_{w} = 1", lhs.equal_on(rep.identity()))

    for w in words:
        s, s_adj = rep.shift(w), rep.shift_adjoint(w)
        rng = rep.range_columns(w)
        off = frozenset(range(rep.dim)) - rng
        for t in trees:
            # conjugation downward: S* pi(X_t) S = pi(X_(w*t))
            lhs = s_adj.compose(rep.diag(t)).compose(s)
            rhs = rep.diag(chain_graft(w, t))
            add(f"endomorphism S*_{w} pi(X_{hopf.format_tree(t)}) S_{w}", lhs.equal_on(rhs))
            # conjugation upward on the range of S_w: S pi(X_(w*t)) S* = pi(X_t)
            lhs = s.compose(rep.diag(chain_graft(w, t))).compose(s_adj)
            add(f"partial inverse S_{w} pi(X_{{{w}*t}}) S*_{w} on range, t={hopf.format_tree(t)}",
                lhs.equal_on(rep.diag(t), columns=rng))
            # annihilation off the range
            lhs2 = s.compose(rep.diag(t)).compose(s_adj)
            annihilated = all(c not in lhs2.cols for c in off - lhs2.overflow)
            add(f"annihilation off range of S_{w}, t={hopf.format_tree(t)}", annihilated)

    return Report(tuple(checks))


def beta_kills_nonfactoring(word, tree) -> bool:
    """Algebra-level check that the partial inverse vanishes off the range."""
    x = ForestPolynomial.generator(tree)
    if chain_strip(tuple(word), tree) is None:
        return not beta(word, x)
    return beta(word, alpha(word, x)) == x


# --- Hamiltonian, time evolution, partition data ----------------------------------

def lam(word, N: int) -> int:
    """Semigroup homomorphism lambda(w) = N^len(w) into (N, *)."""
    return N ** len(word)


def _check_spectral_base(N) -> None:
    """H = len(w) * log N gives every non-empty word a positive energy only for
    N >= 2, and exact level weights N^-(beta L) need an integer N."""
    _int_at_least("N", N, 2, QsmError)


def hamiltonian(rep: TruncatedRep, N: int) -> list[float]:
    """Diagonal of H: the entries len(w) * log N over the basis."""
    _check_spectral_base(N)
    return [length * math.log(N) for length in rep.length_diagonal()]


@dataclass(frozen=True)
class EvolutionReport:
    max_shift_deviation: float
    diag_invariant: bool
    galois_commutes: bool


def time_evolution_report(rep: TruncatedRep, N: int, t: float,
                          words=None, group: GaloisGroup | None = None) -> EvolutionReport:
    """Conjugation by exp(itH) multiplies S_w by lambda(w)^(it) and fixes the
    diagonal operators; the Galois action commutes with the evolution.

    H is diagonal, so conjugating by u = exp(itH) multiplies the entry in row
    r, column c by u_r conj(u_c): one phase per stored entry of a shift, whose
    overflow columns are not stored.  Diagonals are checked exactly.
    """
    if words is None:
        words = [(a,) for a in rep.alphabet]
    trees = rep.trees or tuple(hopf.leaf(a) for a in rep.alphabet)
    u = [cmath.exp(1j * t * h) for h in hamiltonian(rep, N)]
    max_dev = 0.0
    for w in words:
        scale = cmath.exp(1j * t * len(w) * math.log(N))   # lambda(w)^(it)
        for c, (r, coeff) in rep.shift(w).cols.items():
            x = complex_embed(coeff)
            max_dev = max(max_dev, abs(u[r] * x * u[c].conjugate() - scale * x))
    diag_ok = all(evolution_fixes_diagonal_exactly(rep, tr) for tr in trees)
    # evolution fixes every diagonal and scales shifts by a group-independent
    # phase, so commuting reduces to the relabelled diagonals being fixed
    galois_ok = group is None or all(
        evolution_fixes_diagonal_exactly(rep, relabel_tree(tr, group.element(a).on_label))
        for a in group.elements for tr in trees)
    return EvolutionReport(max_dev, diag_ok, galois_ok)


def evolution_fixes_diagonal_exactly(rep: TruncatedRep, tree) -> bool:
    """Conjugating a diagonal operator by exp(itH) multiplies each entry by
    exp(it(h_row - h_col)); on a diagonal support that factor is exactly 1,
    so triviality of the evolution reduces to the support being diagonal."""
    return all(col == row for col, (row, _) in rep.diag(tree).cols.items())


@dataclass(frozen=True)
class PartitionResult:
    value: Fraction | float
    tail_bound: Fraction | float


def partition_function(beta, k: int, N: int, model="word", mode="closed",
                       max_length: int | None = None) -> PartitionResult:
    """Trace of exp(-beta H): sum over the semigroup of lambda^(-beta).

    Level L (lambda = N^L) holds first * p^L elements: k^L label words in the
    "word" model, k^(2L+1) chains of L labelled edges and L+1 labelled vertices
    in the "vertex-edge" model (alias "paper").  With r = p N^-beta, closed
    mode returns first / (1 - r); truncated mode sums levels 0..max_length,
    first (1 - r^(L+1)) / (1 - r), with tail first r^(L+1) / (1 - r).  Exact
    for integer beta.  Raises Divergent when r >= 1.
    """
    _check_spectral_base(N)
    _int_at_least("k", k, 0, QsmError)
    if model == "paper":                # command-line alias
        model = "vertex-edge"
    if model == "word":
        first, p = 1, k
    elif model == "vertex-edge":
        first, p = k, k * k
    else:
        raise QsmError(f"unknown multiplicity model {model!r}")
    r = p * Fraction(N) ** -beta
    if r >= 1:
        inequality = "k * N^-beta" if model == "word" else "k^2 * N^-beta"
        raise Divergent(f"divergent series: {inequality} = {r} >= 1")
    if mode == "closed":
        value = first / (1 - r)
        return PartitionResult(value, 0 * value)
    if mode != "truncated":
        raise QsmError(f"unknown mode {mode!r}")
    r_next = r ** (_int_at_least("max_length", max_length, 0, QsmError) + 1)
    return PartitionResult(first * (1 - r_next) / (1 - r), first * r_next / (1 - r))


def partition_trace(rep: TruncatedRep, N: int, beta) -> Fraction | float:
    """Trace of exp(-beta H) over the truncated basis (matches the level sums)."""
    scale = Fraction(N) ** -beta
    return sum(scale ** length for length in rep.length_diagonal())


# --- the bundled system ------------------------------------------------------------

@dataclass(frozen=True)
class QsmSystem:
    """Defaults wired together: conductor, group, character, window, N.

    Frozen, so each derived constant is computed on first read and kept."""

    m: int = 12
    N: int = 10
    D: int = 2
    max_length: int = 6

    def __post_init__(self):
        _int_at_least("m", self.m, 1, QsmError)
        _check_spectral_base(self.N)
        _int_at_least("D", self.D, 1, QsmError)
        _int_at_least("max_length", self.max_length, 1, WindowTooSmall)

    @cached_property
    def group(self) -> GaloisGroup:
        return GaloisGroup.full(self.m)

    @cached_property
    def fixed_labels(self) -> tuple[int, ...]:
        return self.group.fixed_labels()

    @cached_property
    def k(self) -> int:
        return len(self.fixed_labels)

    @cached_property
    def char(self) -> ExponentSumCharacter:
        return ExponentSumCharacter(self.m, self.D)

    @cached_property
    def rep(self) -> TruncatedRep:
        return build_rep(self.char, self.max_length, self.fixed_labels)

    def level_ratio(self, beta) -> Fraction | float:
        """Ratio q = (sum of zeta^j over the fixed labels) / (D N^beta) of the
        Gibbs levels, a Fraction for integer beta, else a float.  The sum is
        m % 2: a unit a fixes a fixed label j, so a = -1 gives 2j = 0 mod m,
        and the fixed labels are 0 and, for even m, m/2, of phases 1 and -1."""
        return Fraction(self.m % 2) / (self.D * Fraction(self.N) ** beta)


# --- Gibbs states --------------------------------------------------------------------

def gibbs_closed_exact(system: QsmSystem, tree, beta: int) -> CyclotomicNumber:
    """Closed form: phi(X_t) times the rational 1/((1 - q) Z), q the system's
    level ratio; exact for integer beta.  `partition_function` raises
    Divergent unless k N^-beta < 1, which gives 0 <= q <= 1 / (D N^beta) < 1."""
    z = partition_function(beta, system.k, system.N, "word", "closed").value
    return system.char.on_tree(tree) * (1 / ((1 - system.level_ratio(beta)) * z))


def gibbs_value(system: QsmSystem, tree, beta, route="closed") -> complex:
    """Gibbs state value at inverse temperature beta, as a complex number.

    Routes: "closed" (geometric series), "series" (direct truncated word sum),
    "trace" (matrix trace over the truncated representation).  All three are
    normalized by the closed-form partition function, which raises Divergent
    unless k N^-beta < 1; the closed route is exact at integer beta.
    """
    if route == "closed" and (isinstance(beta, int) or (
            isinstance(beta, Fraction) and beta.denominator == 1)):
        return complex_embed(gibbs_closed_exact(system, tree, int(beta)))
    z = float(partition_function(beta, system.k, system.N).value)
    if route == "closed":
        return complex_embed(system.char.on_tree(tree)) / (1 - system.level_ratio(beta)) / z
    if route in ("series", "trace"):
        return _window_sum(system, tree, route, float(system.N) ** (-float(beta))) / z
    raise QsmError(f"unknown route {route!r}")


def _window_sum(system: QsmSystem, tree, route: str, scale):
    """Sum over the window of phi(X_(w*t)) scale^len(w), the values read from
    the words ("series") or the diagonal of pi(X_t) ("trace").  A level's values
    are powers of zeta over one denominator, so each is added once times its
    count.  Exact for a Fraction scale; one embedding per level for a float."""
    if route == "series":
        values = ((len(w), system.char.on_tree(chain_graft(w, tree)))
                  for w in words_upto(system.fixed_labels, system.max_length))
    else:
        rep = system.rep
        values = ((len(rep.basis[i]), value) for i, (_, value) in rep.diag(tree).cols.items())
    level_sums = [CyclotomicNumber.zero(system.m)] * (system.max_length + 1)
    for (level, value), count in Counter(values).items():
        level_sums[level] += value * count
    if isinstance(scale, float):
        level_sums = [complex_embed(x) for x in level_sums]
    return sum(x * scale ** level for level, x in enumerate(level_sums))


# --- ground states and intertwining ----------------------------------------------------

def ground_state(char: ExponentSumCharacter, element) -> CyclotomicNumber:
    """Vacuum expectation <e_1, A e_1> on the empty-word vector, exactly.

    `element` is a ForestPolynomial (diagonal part) or a list of
    (coefficient, monomial) pairs, a monomial being a tuple of atoms
    ("X", tree), ("S", word) or ("S*", word) applied right to left.
    """
    if isinstance(element, ForestPolynomial):
        return char_eval(char, element)
    acc = CyclotomicNumber.zero(char.m)
    for coeff, monomial in element:
        word: tuple | None = ()
        scalar = CyclotomicNumber.one(char.m)
        for atom in reversed(monomial):
            kind, payload = atom
            if kind == "X":
                scalar = scalar * char.on_tree(chain_graft(word, payload))
            elif kind == "S":
                word = word + tuple(payload)
            elif kind == "S*":
                k = len(payload)
                if k and (len(word) < k or word[-k:] != tuple(payload)):
                    word = None
                    break
                word = word[: len(word) - k] if k else word
            else:
                raise QsmError(f"unknown atom kind {kind!r}")
        if word == ():
            acc = acc + scalar * Fraction(coeff)
    return acc


def verify_intertwining(system: QsmSystem, trees, betas=(1, 2)) -> Report:
    """Exact cyclotomic identities phi_inf(gamma X_t) = gamma phi_inf(X_t) and
    the same covariance for Gibbs values at integer beta."""
    trees = list(trees)
    checks = [balance_check("ground-state intertwining", system.char.on_tree,
                            system.group, trees)]
    for b in betas:
        checks.append(balance_check(f"Gibbs intertwining at beta={b}",
                                    lambda t, b=b: gibbs_closed_exact(system, t, b),
                                    system.group, trees))
    return Report(tuple(checks))


# --- the full verification suite ------------------------------------------------------

def verify_system(system: QsmSystem, seed: int = 0) -> Report:
    """Every identity of the system on its window: crossed-product relations,
    time evolution, ground-state and Gibbs intertwining, agreement of the three
    Gibbs routes, and the vanishing of the ground state on shifts.  The
    partition function at each beta comes first: a divergent series raises
    Divergent before any check runs."""
    betas = (1, 2)
    z = {b: partition_function(b, system.k, system.N).value for b in betas}
    rng = random.Random(seed)
    rep = system.rep
    m = system.m

    relations = verify_crossed_relations(rep)
    checks = [Check("crossed-product relations", relations.ok, len(relations.checks),
                    sum(c.seconds for c in relations.checks),
                    "; ".join(c.name for c in relations.failed()))]

    for t_val in (0.5, 1.0):
        start = time.perf_counter()
        evo = time_evolution_report(rep, system.N, t_val, group=system.group)
        checks.append(Check(
            f"time evolution at t={t_val}",
            evo.max_shift_deviation <= 1e-10 and evo.diag_invariant and evo.galois_commutes,
            1, time.perf_counter() - start,
            f"max deviation {evo.max_shift_deviation:.2e}, diagonal invariant "
            f"{evo.diag_invariant}, Galois commutes {evo.galois_commutes}"))

    trees = [hopf.leaf(rng.randrange(m)) for _ in range(2)]
    trees += [hopf.node(rng.randrange(m), hopf.leaf(rng.randrange(m))) for _ in range(2)]
    trees += [hopf.node(1 % m, hopf.leaf(7 % m)), hopf.node(6 % m, hopf.leaf(0), hopf.leaf(3 % m))]
    checks.extend(verify_intertwining(system, trees, betas).checks)

    # The series and trace routes stop at the window, so they miss exactly the
    # closed form's levels beyond it: series = trace = (1 - q^(L+1)) closed.
    for beta_val, z_val in z.items():
        scale = Fraction(system.N) ** -beta_val
        q = system.level_ratio(beta_val)
        kept = 1 - q ** (system.max_length + 1)
        agree = check_all(
            f"Gibbs three-route agreement at beta={beta_val}", trees[:4],
            lambda t: _window_sum(system, t, "series", scale) / z_val
            == _window_sum(system, t, "trace", scale) / z_val
            == kept * gibbs_closed_exact(system, t, beta_val),
            show=hopf.format_tree)
        checks.append(replace(agree, detail="; ".join(
            filter(None, (agree.detail, f"level ratio q = {q}")))))

    shifts = [(kind, lab) for lab in system.fixed_labels for kind in ("S", "S*")]
    checks.append(check_all(
        "ground state vanishes on shift monomials", shifts,
        lambda shift: ground_state(system.char, [(1, ((shift[0], (shift[1],)),))]).is_zero()))
    return Report(tuple(checks))
