"""Differential test: the window operators, the level phase sum and the exact
Gibbs closed form against a test-local copy of the code as it stood before
`QsmSystem` derived its constants once.

The references recompute the fixed labels from the group and the character
from (m, D) on every call, and keep the original suffix rule with its own
empty-word branch.  The crossed-product relations reference recomputes the
range of S_w and its complement for every (word, tree) pair.  The truncated
Gibbs routes are summed word by word in exact arithmetic.  Results are
compared with ==, so cyclotomic values must agree coordinate for coordinate.
"""

import random
from fractions import Fraction

import pytest

from dessins import hopf, qsm
from dessins.galois import (
    CyclotomicNumber,
    ExponentSumCharacter,
    balance_check,
    complex_embed,
    zeta,
)
from dessins.qsm import (
    Divergent,
    LinearOp,
    QsmSystem,
    TruncatedRep,
    build_rep,
    chain_graft,
    check_word,
    compose_words,
)
from dessins.report import check_all


# --- reference ------------------------------------------------------------------

def ref_fixed_labels(system):
    return system.group.fixed_labels()


def ref_level_phase_sum(system):
    acc = CyclotomicNumber.zero(system.m)
    for j in ref_fixed_labels(system):
        acc = acc + zeta(system.m, j)
    return acc


def ref_gibbs_closed_exact(system, tree, beta):
    k = len(ref_fixed_labels(system))
    if k * Fraction(1, system.N ** beta) >= 1:
        raise Divergent(f"k * N^-beta = {k} * {system.N}^-{beta} >= 1")
    scale = Fraction(1, system.N ** beta)
    q = ref_level_phase_sum(system) * (Fraction(1, system.D) * scale)
    if abs(complex_embed(q)) >= 1:
        raise Divergent("level ratio has modulus >= 1")
    z = qsm.partition_function(beta, k, system.N, "word", "closed").value
    series = (CyclotomicNumber.one(system.m) - q).inverse()
    char = ExponentSumCharacter(system.m, system.D)
    return char.on_tree(tree) * series * (Fraction(1) / z)


def ref_identity(rep):
    one = CyclotomicNumber.one(rep.char.m)
    return LinearOp(rep.dim, {i: (i, one) for i in range(rep.dim)})


def ref_shift_adjoint(rep, word):
    word = check_word(word, rep.alphabet)
    one = CyclotomicNumber.one(rep.char.m)
    k = len(word)
    cols = {}
    for i, w in enumerate(rep.basis):
        if k == 0:
            cols[i] = (i, one)
        elif len(w) >= k and w[-k:] == word:
            cols[i] = (rep.index[w[:-k]], one)
    return LinearOp(rep.dim, cols)


def ref_range_columns(rep, word):
    word = tuple(word)
    k = len(word)
    return frozenset(i for i, w in enumerate(rep.basis)
                     if len(w) >= k and (k == 0 or w[-k:] == word))


# --- fixtures -------------------------------------------------------------------

CONDUCTORS = (1, 5, 7, 12, 60)


def seeded_trees(m, seed=0, count=6):
    rng = random.Random(seed)
    trees = [hopf.leaf(rng.randrange(m)) for _ in range(2)]
    trees += [hopf.node(rng.randrange(m), hopf.leaf(rng.randrange(m))) for _ in range(2)]
    trees += [hopf.node(rng.randrange(m), *(hopf.leaf(rng.randrange(m)) for _ in range(2)))
              for _ in range(count - 4)]
    return trees


def short_words(alphabet):
    return [()] + [(a,) for a in alphabet] + [(a, b) for a in alphabet for b in alphabet]


# --- window operators -----------------------------------------------------------

@pytest.mark.parametrize("m", CONDUCTORS)
@pytest.mark.parametrize("max_length", [1, 2, 3, 4])
def test_window_operators_match_reference(m, max_length):
    system = QsmSystem(m=m, max_length=max_length)
    rep = build_rep(system.char, max_length, system.fixed_labels)
    assert rep.identity() == ref_identity(rep)
    for w in short_words(rep.alphabet):
        assert rep.shift_adjoint(w) == ref_shift_adjoint(rep, w)
        assert rep.range_columns(w) == ref_range_columns(rep, w)


# --- phase sum and Gibbs closed form --------------------------------------------

@pytest.mark.parametrize("m", range(1, 101))
def test_gibbs_closed_exact_matches_reference(m):
    system = QsmSystem(m=m)
    trees = seeded_trees(m, seed=m)
    for beta in (1, 2, 3):
        for t in trees:
            assert qsm.gibbs_closed_exact(system, t, beta) == ref_gibbs_closed_exact(system, t, beta)


def test_level_phase_sum_is_the_rational_m_mod_2():
    """Each unit a fixes a fixed label j, so a = -1 gives 2j = 0 mod m: the
    fixed labels are 0 and, for even m, m/2, whose phases are 1 and -1."""
    for m in range(1, 201):
        assert ref_level_phase_sum(QsmSystem(m=m)) == CyclotomicNumber.from_rational(m, m % 2), m


@pytest.mark.parametrize("m", [12, 60, 97])
def test_gibbs_path_inverts_no_cyclotomic_number(monkeypatch, m):
    """The level ratio is rational, so neither `verify_system` nor the closed
    Gibbs route needs an inverse in Q(zeta_m)."""
    def refuse(self):
        raise AssertionError("CyclotomicNumber.inverse called on the Gibbs path")

    monkeypatch.setattr(CyclotomicNumber, "inverse", refuse)
    system = QsmSystem(m=m)
    assert qsm.verify_system(system).ok
    for t in seeded_trees(m, seed=m):
        for beta in (1, 2, 2.5):
            qsm.gibbs_value(system, t, beta, route="closed")


def ref_window_sums(system, tree, scale):
    """Exact series and trace sums of phi(X_(w*t)) scale^len(w) over the
    window, word by word, read from the words and from the diagonal of pi(X_t)."""
    char = ExponentSumCharacter(system.m, system.D)
    zero = CyclotomicNumber.zero(system.m)
    series = sum((char.on_tree(chain_graft(w, tree)) * scale ** len(w)
                  for w in qsm.words_upto(ref_fixed_labels(system), system.max_length)), zero)
    rep = system.rep
    diag = rep.diag(tree)
    trace = sum((diag.cols[i][1] * scale ** len(w)
                 for i, w in enumerate(rep.basis) if i in diag.cols), zero)
    return series, trace


def ref_closed_less_tail(system, tree, beta):
    """(1 - q^(L+1)) times the closed form, q the level ratio and L the window
    length: the closed form without its levels beyond the window."""
    q = ref_level_phase_sum(system) * Fraction(1, system.D * system.N ** beta)
    q_past_window = CyclotomicNumber.one(system.m)
    for _ in range(system.max_length + 1):
        q_past_window = q_past_window * q
    return (1 - q_past_window) * qsm.gibbs_closed_exact(system, tree, beta)


def ref_routes_agree_exactly(system, tree, beta):
    """series_L = trace_L = (1 - q^(L+1)) closed at integer beta, each
    truncated route normalized by the closed-form Z."""
    scale = Fraction(1, system.N ** beta)
    z = qsm.partition_function(beta, len(ref_fixed_labels(system)), system.N).value
    series, trace = ref_window_sums(system, tree, scale)
    return series / z == trace / z == ref_closed_less_tail(system, tree, beta)


@pytest.mark.parametrize("m", range(1, 61))
def test_series_and_trace_are_the_closed_form_less_its_tail_exactly(m):
    """series_L = trace_L = (1 - q^(L+1)) closed in Q(zeta_m), at every
    conductor up to 60 and every beta in {1, 2, 5} where the series converges."""
    system = QsmSystem(m=m, N=10, D=2, max_length=6)
    for beta in (1, 2, 5):
        try:
            qsm.partition_function(beta, system.k, system.N)
        except Divergent:
            continue
        scale = Fraction(1, system.N ** beta)
        for t in (hopf.leaf(0), hopf.node(1 % m, hopf.leaf(7 % m))):
            assert ref_routes_agree_exactly(system, t, beta), (beta, t)
            assert (qsm._window_sum(system, t, "series", scale),
                    qsm._window_sum(system, t, "trace", scale)) == ref_window_sums(system, t, scale)


@pytest.mark.parametrize("m", CONDUCTORS)
def test_closed_route_and_phase_sum_match_reference(m):
    system = QsmSystem(m=m)
    phase = ref_level_phase_sum(system)
    for t in seeded_trees(m, seed=m + 1):
        # the non-integer closed route reads the phase sum through floats
        q = complex_embed(phase) / (system.D * float(system.N) ** 2.5)
        z = float(qsm.partition_function(2.5, len(ref_fixed_labels(system)), system.N).value)
        want = complex_embed(ExponentSumCharacter(m, system.D).on_tree(t)) / (1 - q) / z
        assert qsm.gibbs_value(system, t, 2.5, route="closed") == want


# --- the verification suite -----------------------------------------------------

def ref_verify_system(system, seed=0):
    """`verify_system` with the reference phase sum and Gibbs closed form; the
    three-route checks name the level ratio, the rational phase sum over D N^beta."""
    betas = (1, 2)
    rng = random.Random(seed)
    rep = system.rep
    m = system.m
    char = ExponentSumCharacter(m, system.D)
    relations = qsm.verify_crossed_relations(rep)
    out = [("crossed-product relations", relations.ok, len(relations.checks),
            "; ".join(c.name for c in relations.failed()))]
    for t_val in (0.5, 1.0):
        evo = qsm.time_evolution_report(rep, system.N, t_val, group=system.group)
        out.append((f"time evolution at t={t_val}",
                    evo.max_shift_deviation <= 1e-10 and evo.diag_invariant and evo.galois_commutes,
                    1, f"max deviation {evo.max_shift_deviation:.2e}, diagonal invariant "
                       f"{evo.diag_invariant}, Galois commutes {evo.galois_commutes}"))
    trees = [hopf.leaf(rng.randrange(m)) for _ in range(2)]
    trees += [hopf.node(rng.randrange(m), hopf.leaf(rng.randrange(m))) for _ in range(2)]
    trees += [hopf.node(1 % m, hopf.leaf(7 % m)), hopf.node(6 % m, hopf.leaf(0), hopf.leaf(3 % m))]
    checks = [balance_check("ground-state intertwining", char.on_tree, system.group, trees)]
    for b in betas:
        checks.append(balance_check(f"Gibbs intertwining at beta={b}",
                                    lambda t, b=b: ref_gibbs_closed_exact(system, t, b),
                                    system.group, trees))
    out += [(c.name, c.passed, c.cases, c.detail) for c in checks]
    phase = ref_level_phase_sum(system)
    for beta_val in betas:
        q = Fraction(phase.num[0], phase.den * system.D * system.N ** beta_val)
        out.append((f"Gibbs three-route agreement at beta={beta_val}",
                    all(ref_routes_agree_exactly(system, t, beta_val) for t in trees[:4]), 4,
                    f"level ratio q = {q}"))
    shifts = [(kind, lab) for lab in ref_fixed_labels(system) for kind in ("S", "S*")]
    vanish = check_all(
        "ground state vanishes on shift monomials", shifts,
        lambda shift: qsm.ground_state(char, [(1, ((shift[0], (shift[1],)),))]).is_zero())
    out.append((vanish.name, vanish.passed, vanish.cases, vanish.detail))
    return out


@pytest.mark.parametrize("m", [1, 5, 7, 12])
def test_verify_system_reports_match_reference(m):
    got = qsm.verify_system(QsmSystem(m=m))
    assert [(c.name, c.passed, c.cases, c.detail) for c in got.checks] == \
        ref_verify_system(QsmSystem(m=m))


def ref_crossed_relations(rep):
    """(name, passed) of each check of `verify_crossed_relations` at the
    default words and trees, with the range recomputed for every tree."""
    words = [(a,) for a in rep.alphabet]
    trees = rep.trees or tuple(hopf.leaf(a) for a in rep.alphabet)
    out = []
    for w1 in words:
        for w2 in words:
            lhs = rep.shift(w1).compose(rep.shift(w2))
            rhs = rep.shift(compose_words(w2, w1))
            out.append((f"composition S_{w1} S_{w2} = S_{compose_words(w2, w1)}",
                        lhs.equal_on(rhs)))
    for w in words:
        lhs = rep.shift_adjoint(w).compose(rep.shift(w))
        out.append((f"isometry S*_{w} S_{w} = 1", lhs.equal_on(rep.identity())))
    for w in words:
        s, s_adj = rep.shift(w), rep.shift_adjoint(w)
        for t in trees:
            name = hopf.format_tree(t)
            lhs = s_adj.compose(rep.diag(t)).compose(s)
            out.append((f"endomorphism S*_{w} pi(X_{name}) S_{w}",
                        lhs.equal_on(rep.diag(chain_graft(w, t)))))
            lhs = s.compose(rep.diag(chain_graft(w, t))).compose(s_adj)
            rng = rep.range_columns(w)
            out.append((f"partial inverse S_{w} pi(X_{{{w}*t}}) S*_{w} on range, t={name}",
                        lhs.equal_on(rep.diag(t), columns=rng)))
            off = frozenset(range(rep.dim)) - rng
            lhs2 = s.compose(rep.diag(t)).compose(s_adj)
            out.append((f"annihilation off range of S_{w}, t={name}",
                        all(c not in lhs2.cols for c in off - lhs2.overflow)))
    return out


@pytest.mark.parametrize("whole_window", [False, True])
def test_crossed_relations_match_reference_and_take_each_range_once(monkeypatch,
                                                                    whole_window):
    """The default system's relations keep their names, order and results, and
    the range of S_w is taken once per word.  Claiming the whole window as the
    range makes the partial-inverse and annihilation checks fail, so failing
    results are compared too."""
    calls = []
    columns = TruncatedRep.range_columns

    def counted(rep, word):
        calls.append(word)
        return frozenset(range(rep.dim)) if whole_window else columns(rep, word)

    monkeypatch.setattr(TruncatedRep, "range_columns", counted)
    rep = QsmSystem().rep
    got = [(c.name, c.passed) for c in qsm.verify_crossed_relations(rep).checks]
    assert calls == [(a,) for a in rep.alphabet]
    assert got == ref_crossed_relations(rep)
    assert all(passed for _, passed in got) != whole_window
