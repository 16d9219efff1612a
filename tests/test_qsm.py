import cmath
import dataclasses
import math
import random
from fractions import Fraction

import pytest

from dessins import qsm
from dessins.galois import (
    CyclotomicNumber,
    ExponentSumCharacter,
    GaloisGroup,
    complex_embed,
    zeta,
)
from dessins.hopf import ForestPolynomial, format_tree, leaf, node
from dessins.qsm import (
    Divergent,
    LabelNotFixed,
    QsmSystem,
    alpha,
    beta,
    beta_kills_nonfactoring,
    build_rep,
    chain_graft,
    chain_strip,
    compose_words,
    gibbs_closed_exact,
    gibbs_value,
    ground_state,
    hamiltonian,
    lam,
    partition_function,
    partition_trace,
    time_evolution_report,
    verify_crossed_relations,
    verify_intertwining,
    words_upto,
)


FIXED = (0, 6)  # fixed labels of the full group modulo 12


def default_system(max_length=4):
    return QsmSystem(m=12, N=10, D=2, max_length=max_length)


def test_system_equality_does_not_depend_on_a_built_window():
    a, b = default_system(), default_system()
    assert a == b
    assert a.rep is a.rep       # built once, on first read
    assert a == b
    assert default_system(max_length=3) != a


def test_system_window_is_not_a_constructor_argument():
    with pytest.raises(TypeError):
        QsmSystem(m=5, _rep=default_system().rep)


def test_system_is_frozen_and_equal_systems_hash_alike():
    s = default_system()
    assert s.rep.dim == 31
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.max_length = 3
    assert s.rep.dim == 31
    assert hash(QsmSystem()) == hash(QsmSystem())


def test_system_group_is_derived_from_the_conductor():
    assert [f.name for f in dataclasses.fields(QsmSystem)] == ["m", "N", "D", "max_length"]
    assert QsmSystem().group == GaloisGroup.full(12)
    assert QsmSystem(m=5).group == GaloisGroup.full(5)


@pytest.mark.parametrize("D", [0, -1])
def test_character_denominator_below_one_is_rejected(D):
    with pytest.raises(qsm.QsmError, match="D must be an integer >= 1"):
        QsmSystem(D=D)


@pytest.mark.parametrize("m", [0, -3, 2.5])
def test_system_refuses_a_conductor_below_one_at_construction(m):
    with pytest.raises(qsm.QsmError, match=r"^m must be an integer >= 1$"):
        QsmSystem(m=m)


@pytest.mark.parametrize("max_length", [0, -1, 2.5])
def test_system_refuses_an_empty_window_at_construction(max_length):
    with pytest.raises(qsm.WindowTooSmall, match=r"^max_length must be an integer >= 1$"):
        QsmSystem(max_length=max_length)


def test_verify_system_scans_the_fixed_labels_once(monkeypatch):
    calls = []
    scan = GaloisGroup.fixed_labels

    def counted(group):
        calls.append(group.m)
        return scan(group)

    monkeypatch.setattr(GaloisGroup, "fixed_labels", counted)
    assert qsm.verify_system(QsmSystem(m=13)).ok
    assert calls == [13]


def chain(*labels):
    t = leaf(labels[-1])
    for lab in reversed(labels[:-1]):
        t = node(lab, t)
    return t


# --- semigroup ----------------------------------------------------------------

def test_compose_words_unit():
    w = (0, 6)
    assert compose_words(w, ()) == w
    assert compose_words((), w) == w


def test_compose_words_concatenates():
    assert compose_words((0,), (6,)) == (0, 6)
    assert len(compose_words((0, 6), (6,))) == 3


def test_compose_words_associative_exhaustive():
    words = words_upto(FIXED, 2)
    for w1 in words:
        for w2 in words:
            for w3 in words:
                assert compose_words(compose_words(w1, w2), w3) == \
                    compose_words(w1, compose_words(w2, w3))


def test_compose_words_label_validation():
    with pytest.raises(LabelNotFixed):
        compose_words((0,), (3,), alphabet=FIXED)


def test_chain_graft():
    t = leaf(7)
    assert chain_graft((), t) == t
    assert chain_graft((6,), t) == node(6, leaf(7))
    assert chain_graft((0, 6), t) == node(0, node(6, leaf(7)))
    from dessins.hopf import label_sum
    assert label_sum(chain_graft((0, 6), t)) == 0 + 6 + 7


def test_chain_strip_inverts_graft():
    for w in words_upto(FIXED, 3):
        for t in (leaf(1), node(3, leaf(4), leaf(5))):
            assert chain_strip(w, chain_graft(w, t)) == t


def test_chain_strip_rejects_mismatch():
    assert chain_strip((6,), leaf(7)) is None
    assert chain_strip((6,), node(6, leaf(1), leaf(2))) is None  # branching


def test_alpha_beta_inverse_on_generators():
    from dessins.hopf import enumerate_trees

    for w in words_upto(FIXED, 2):
        for t in enumerate_trees((0, 6, 7), 5):
            x = ForestPolynomial.generator(t)
            assert beta(w, alpha(w, x)) == x


def test_beta_zero_without_prefix():
    x = ForestPolynomial.generator(leaf(7))
    assert not beta((6,), x)
    assert beta_kills_nonfactoring((6,), leaf(7))


def test_alpha_empty_is_identity():
    x = ForestPolynomial.generator(chain(1, 2)) + ForestPolynomial.one()
    assert alpha((), x) == x


def test_alpha_is_algebra_morphism():
    a = ForestPolynomial.generator(leaf(1))
    b = ForestPolynomial.generator(chain(2, 3))
    for w in ((0,), (6, 0)):
        assert alpha(w, a * b) == alpha(w, a) * alpha(w, b)


# --- representation window ------------------------------------------------------

def test_basis_size():
    rep = default_system(max_length=6).rep
    assert rep.dim == sum(2 ** L for L in range(7)) == 127


def test_shift_empty_is_identity():
    rep = default_system().rep
    assert rep.shift(()).equal_on(rep.identity())


def test_isometry_on_window():
    rep = default_system().rep
    for w in ((0,), (6,), (0, 6)):
        assert rep.shift_adjoint(w).compose(rep.shift(w)).equal_on(rep.identity())


def test_empty_word_relations_trivial():
    rep = default_system().rep
    s0, s0_adj = rep.shift(()), rep.shift_adjoint(())
    assert s0.equal_on(rep.identity()) and s0_adj.equal_on(rep.identity())
    t = leaf(6)
    conj = s0_adj.compose(rep.diag(t)).compose(s0)
    assert conj.equal_on(rep.diag(t))  # conjugating by the unit changes nothing


def test_opposite_composition_law():
    rep = default_system().rep
    w1, w2 = (0,), (6,)
    lhs = rep.shift(w1).compose(rep.shift(w2))
    rhs = rep.shift(compose_words(w2, w1))
    assert lhs.equal_on(rhs)


def test_shift_range_projection():
    rep = default_system(max_length=3).rep
    w = (6,)
    proj = rep.shift(w).compose(rep.shift_adjoint(w))
    for i, basis_word in enumerate(rep.basis):
        hit = proj.cols.get(i)
        if basis_word and basis_word[-1] == 6 and i not in proj.overflow:
            assert hit == (i, CyclotomicNumber.one(12))
        elif i not in proj.overflow:
            assert hit is None


def test_range_columns_rejects_a_label_outside_the_fixed_set():
    rep = default_system(max_length=3).rep
    with pytest.raises(LabelNotFixed):
        rep.range_columns((3,))


def test_crossed_relations_default():
    rep = default_system(max_length=4).rep
    report = verify_crossed_relations(rep)
    assert report.ok, report.failed()


def test_crossed_relations_longer_words_and_trees():
    system = default_system(max_length=5)
    rep = build_rep(system.char, 5, FIXED, trees=(leaf(0), leaf(6), chain(6, 0), node(1, leaf(7))))
    report = verify_crossed_relations(rep, words=[(0,), (6,), (0, 6), (6, 6)])
    assert report.ok, report.failed()


def test_crossed_relations_flag_corruption():
    rep = default_system(max_length=3).rep
    # corrupt one diagonal entry of pi(X_t) and watch the endomorphism check fail
    t = leaf(6)
    good = rep.diag(t)
    bad_cols = dict(good.cols)
    i = rep.index[(6,)]  # a column the conjugation by S_(6,) actually sees
    bad_cols[i] = (i, bad_cols[i][1] * 7)
    bad = qsm.LinearOp(rep.dim, bad_cols)
    s, s_adj = rep.shift((6,)), rep.shift_adjoint((6,))
    lhs = s_adj.compose(bad).compose(s)
    rhs = rep.diag(chain_graft((6,), t))
    assert not lhs.equal_on(rhs)


# --- Hamiltonian and evolution ----------------------------------------------------

def test_lambda_homomorphism():
    for w1 in words_upto(FIXED, 2):
        for w2 in words_upto(FIXED, 2):
            assert lam(compose_words(w1, w2), 10) == lam(w1, 10) * lam(w2, 10)
    assert lam((), 10) == 1
    assert lam((0, 6), 10) == 100


def test_hamiltonian_kernel_is_vacuum():
    rep = default_system(max_length=3).rep
    diag = hamiltonian(rep, 10)
    zeros = [i for i, v in enumerate(diag) if v == 0.0]
    assert zeros == [rep.index[()]]


def test_time_evolution_identity_at_zero():
    rep = default_system(max_length=3).rep
    report = time_evolution_report(rep, 10, 0.0)
    assert report.max_shift_deviation == 0.0
    assert report.diag_invariant


def test_time_evolution_scales_shifts():
    system = default_system(max_length=4)
    report = time_evolution_report(system.rep, 10, 1.0, group=system.group)
    assert report.max_shift_deviation <= 1e-10
    assert report.diag_invariant and report.galois_commutes


def _dense_shift_deviation(rep, N, t, words):
    """Pure-Python dense reference: conjugate the full matrix of each S_w, its
    overflow columns zeroed, by u = exp(itH) and compare with lambda(w)^(it) S_w."""
    u = [cmath.exp(1j * t * len(w) * math.log(N)) for w in rep.basis]
    worst = 0.0
    for w in words:
        s = rep.shift(w)
        dense = [[0j] * rep.dim for _ in range(rep.dim)]
        for c, (r, coeff) in s.cols.items():
            dense[r][c] = complex_embed(coeff)
        for c in s.overflow:
            for row in dense:
                row[c] = 0j
        scale = cmath.exp(1j * t * len(w) * math.log(N))
        for r in range(rep.dim):
            for c in range(rep.dim):
                x = dense[r][c]
                worst = max(worst, abs(u[r] * x * u[c].conjugate() - scale * x))
    return worst


@pytest.mark.parametrize("m", [1, 5, 12, 60])
def test_time_evolution_matches_dense_reference(m):
    system = QsmSystem(m=m)
    for max_length in range(1, 5):
        rep = build_rep(system.char, max_length, system.fixed_labels)
        words = words_upto(rep.alphabet, 2)[1:]
        for t in (0.0, 0.5, 1.0):
            got = time_evolution_report(rep, system.N, t, words=words).max_shift_deviation
            want = _dense_shift_deviation(rep, system.N, t, words)
            assert abs(got - want) <= 2 * math.ulp(want), (max_length, t, got, want)


@pytest.mark.parametrize("row_word,col_word", [
    ((), (6,)),
    # equal lengths: exp(itH) fixes the entry, but the operator is no longer
    # diagonal, which the exact check reports at any t
    ((0,), (6,)),
])
def test_time_evolution_flags_an_off_diagonal_entry(monkeypatch, row_word, col_word):
    system = default_system(max_length=3)
    rep = system.rep
    row, col = rep.index[row_word], rep.index[col_word]
    diag = qsm.TruncatedRep.diag

    def with_off_diagonal(self, tree):
        op = diag(self, tree)
        return dataclasses.replace(op, cols={**op.cols, col: (row, CyclotomicNumber.one(12))})

    monkeypatch.setattr(qsm.TruncatedRep, "diag", with_off_diagonal)
    report = time_evolution_report(rep, 10, 1.0, group=system.group)
    assert not report.diag_invariant
    assert not report.galois_commutes


# --- partition function -----------------------------------------------------------

def test_partition_word_closed_form():
    out = partition_function(1, k=1, N=2, model="word", mode="closed")
    assert out.value == Fraction(2)
    out = partition_function(1, k=2, N=10, model="word", mode="closed")
    assert out.value == Fraction(10, 8)


def test_partition_truncated_vs_closed():
    closed = partition_function(1, k=2, N=10, model="word", mode="closed").value
    trunc = partition_function(1, k=2, N=10, model="word", mode="truncated", max_length=40)
    assert abs(float(trunc.value) - float(closed)) < 1e-12
    assert float(trunc.tail_bound) < 1e-12
    # the tail bound is honest: |closed - truncated| <= bound
    assert abs(closed - trunc.value) <= trunc.tail_bound


@pytest.mark.parametrize("model", ["word", "vertex-edge"])
def test_partition_truncated_float_beta_past_float_range(model):
    # k^L and k^(2L+1) exceed the float range long before level 1100
    closed = partition_function(1.5, k=2, N=10, model=model, mode="closed").value
    trunc = partition_function(1.5, k=2, N=10, model=model, mode="truncated", max_length=1100)
    assert trunc.value == pytest.approx(closed, rel=0, abs=1e-12)
    assert trunc.tail_bound == 0.0


def test_partition_vertex_edge_model_bound():
    # with N > 2k^2 the vertex-edge series is bounded by 2k, exactly
    for k in (1, 2, 3):
        n = 2 * k ** 2 + 1
        out = partition_function(1, k=k, N=n, model="vertex-edge", mode="closed")
        assert isinstance(out.value, Fraction)
        assert out.value <= 2 * k
        alias = partition_function(1, k=k, N=n, model="paper", mode="closed")
        assert alias.value == out.value


def test_partition_divergent():
    with pytest.raises(Divergent):
        partition_function(0, k=2, N=10, model="word", mode="closed")
    with pytest.raises(Divergent):
        partition_function(0, k=4, N=10, model="vertex-edge", mode="closed")


@pytest.mark.parametrize("N", [1, 0, -3])
def test_spectral_base_below_two_is_rejected(N):
    # N = -3 passes the convergence test (k N^-beta = -2/3), so only the base
    # check stops it
    with pytest.raises(qsm.QsmError, match="N must be an integer >= 2"):
        partition_function(1, 2, N)
    with pytest.raises(qsm.QsmError, match="N must be an integer >= 2"):
        QsmSystem(N=N)


@pytest.mark.parametrize("N", [2.5, Fraction(5, 2)])
def test_non_integer_spectral_base_is_rejected(N):
    with pytest.raises(qsm.QsmError, match="N must be an integer >= 2"):
        partition_function(1, 2, N)
    with pytest.raises(qsm.QsmError, match="N must be an integer >= 2"):
        QsmSystem(N=N)
    with pytest.raises(qsm.QsmError, match="N must be an integer >= 2"):
        hamiltonian(default_system().rep, N)


@pytest.mark.parametrize("model", ["word", "vertex-edge"])
def test_truncated_exact_sums_match_level_by_level_fractions(model):
    def count(k, L):
        return k ** L if model == "word" else k ** (2 * L + 1)

    def ratio(k):
        return k if model == "word" else k ** 2

    def exact_levels(beta_val, k, N, max_length):
        want = Fraction(0)
        for L in range(max_length + 1):
            want += Fraction(count(k, L), N ** (beta_val * L))
        return want

    for beta_val in range(1, 6):
        for k in (0, 1, 2, 3):
            for N in (2, 10):
                if Fraction(ratio(k), N ** beta_val) >= 1:
                    with pytest.raises(Divergent):
                        partition_function(beta_val, k, N, model, "truncated", max_length=1)
                    continue
                for max_length in (0, 1, 8, 300):
                    got = partition_function(beta_val, k, N, model, "truncated",
                                             max_length=max_length)
                    assert isinstance(got.value, Fraction)
                    assert got.value == exact_levels(beta_val, k, N, max_length)
    # one long window: 2,001 levels
    got = partition_function(1, 2, 10, model, "truncated", max_length=2000)
    assert got.value == exact_levels(1, 2, 10, 2000)
    # float beta: the float levels summed without rounding drift
    for beta_val in (1.5, 2.5):
        for k in (0, 1, 2, 3):
            for N in (2, 10):
                if ratio(k) * float(N) ** -beta_val >= 1:
                    continue
                for max_length in (0, 1, 8, 300):
                    want = math.fsum(count(k, L) * float(N) ** (-beta_val * L)
                                     for L in range(max_length + 1))
                    got = partition_function(beta_val, k, N, model, "truncated",
                                             max_length=max_length)
                    assert got.value == pytest.approx(want, rel=1e-12, abs=0)


def test_partition_trace_matches_level_sums():
    system = default_system(max_length=5)
    got = partition_trace(system.rep, 10, 2)
    want = partition_function(2, k=2, N=10, model="word", mode="truncated",
                              max_length=5).value
    assert got == want


@pytest.mark.parametrize("model,mode,max_length,match", [
    ("bogus", "closed", None, "unknown multiplicity model 'bogus'"),
    ("custom", "truncated", 2, "unknown multiplicity model 'custom'"),
    ("word", "truncated", -1, "integer max_length >= 0"),
    ("word", "sampled", None, "unknown mode 'sampled'"),
])
def test_partition_function_refuses_bad_input(model, mode, max_length, match):
    with pytest.raises(qsm.QsmError, match=match):
        partition_function(1, 3, 10, model=model, mode=mode, max_length=max_length)


@pytest.mark.parametrize("k", [-3, -1, 2.5, Fraction(2), "2"])
@pytest.mark.parametrize("model", ["word", "vertex-edge"])
def test_partition_function_refuses_a_k_that_is_not_a_count(model, k):
    with pytest.raises(qsm.QsmError, match=r"^k must be an integer >= 0$"):
        partition_function(1, k, 10, model=model)


# --- Gibbs states ------------------------------------------------------------------

def test_gibbs_all_routes_agree():
    system = default_system(max_length=6)
    trees = [leaf(0), leaf(6), chain(6, 0), node(1, leaf(7)), node(3, leaf(4), leaf(5))]
    for beta_val in (1, 2, 5):
        for t in trees:
            closed = gibbs_value(system, t, beta_val, route="closed")
            series = gibbs_value(system, t, beta_val, route="series")
            trace = gibbs_value(system, t, beta_val, route="trace")
            assert abs(closed - series) <= 1e-10
            assert abs(closed - trace) <= 1e-10
            assert abs(series - trace) <= 1e-10


def test_gibbs_trivial_character_value_one():
    # one fixed label (m=5, full group), D=1, all labels zero: every character
    # value is 1 and the numerator series reproduces Z, so the state is 1
    system = QsmSystem(m=5, N=10, D=1, max_length=6)
    assert system.k == 1
    for t in (leaf(0), chain(0, 0)):
        val = gibbs_value(system, t, 1, route="closed")
        assert val == pytest.approx(1.0, abs=1e-12)


def test_gibbs_large_beta_approaches_ground_state():
    system = default_system(max_length=6)
    for t in (leaf(6), chain(6, 0), node(1, leaf(7))):
        ground = complex_embed(system.char.on_tree(t))
        val = gibbs_value(system, t, 50, route="closed")
        assert abs(val - ground) <= 1e-6


def test_gibbs_exact_value_at_defaults():
    # with fixed labels {0, 6} the level phases cancel pairwise, so the state
    # is exactly phi(X_t)/Z
    system = default_system(max_length=6)
    t = chain(6, 0)
    z = Fraction(10, 8)
    expected = system.char.on_tree(t) * Fraction(1, 1) / z
    assert gibbs_closed_exact(system, t, 1) == expected


def test_gibbs_divergent():
    system = QsmSystem(m=12, N=2, D=2, max_length=3)
    with pytest.raises(Divergent):
        gibbs_value(system, leaf(0), 0, route="closed")


def test_gibbs_series_truncation_within_geometric_tail():
    # with one fixed label the level phases do not cancel, so the truncated
    # series differs from the closed form; the gap obeys the geometric bound
    system = QsmSystem(m=5, N=10, D=2, max_length=6)
    assert system.k == 1
    for t in (leaf(0), chain(0, 0)):
        for beta_val in (1, 2):
            closed = gibbs_value(system, t, beta_val, route="closed")
            series = gibbs_value(system, t, beta_val, route="series")
            q = system.k / (system.D * system.N ** beta_val)
            z = float(partition_function(beta_val, system.k, system.N,
                                         "word", "closed").value)
            from dessins.galois import complex_embed
            bound = abs(complex_embed(system.char.on_tree(t))) * \
                q ** (system.max_length + 1) / (1 - q) / z
            gap = abs(closed - series)
            # the bound is attained exactly here (all phases positive), so
            # only float roundoff separates the two sides
            assert 0 < gap <= bound * (1 + 1e-9) + 1e-15


def test_gibbs_distance_to_ground_state_decreases():
    from dessins.galois import complex_embed

    system = default_system(max_length=5)
    for t in (leaf(6), chain(6, 0)):
        ground = complex_embed(system.char.on_tree(t))
        gaps = [abs(gibbs_value(system, t, b, route="closed") - ground)
                for b in (1, 2, 3, 4)]
        assert gaps == sorted(gaps, reverse=True)
        assert gaps[-1] < gaps[0]


def test_window_too_small():
    from dessins.qsm import WindowTooSmall

    system = default_system(max_length=2)
    with pytest.raises(WindowTooSmall):
        verify_crossed_relations(system.rep, words=[(0, 6), (6, 6)])
    with pytest.raises(WindowTooSmall):
        build_rep(system.char, 0, FIXED)


# --- ground states -------------------------------------------------------------------

def test_ground_state_unit():
    char = ExponentSumCharacter(12, 2)
    assert ground_state(char, ForestPolynomial.one()) == CyclotomicNumber.one(12)


def test_ground_state_on_generators():
    char = ExponentSumCharacter(12, 2)
    t = chain(6, 1)
    expected = zeta(12, 7) * Fraction(1, 4)
    assert ground_state(char, ForestPolynomial.generator(t)) == expected
    assert ground_state(char, [(1, (("X", t),))]) == expected


def test_ground_state_kills_shifts():
    char = ExponentSumCharacter(12, 2)
    zero = CyclotomicNumber.zero(12)
    assert ground_state(char, [(1, (("S", (6,)),))]) == zero
    assert ground_state(char, [(1, (("S*", (6,)),))]) == zero
    assert ground_state(char, [(1, (("X", leaf(1)), ("S", (0, 6))))]) == zero
    # unbalanced sandwich: appends two letters, strips one
    assert ground_state(char, [(1, (("S*", (6,)), ("S", (0, 6))))]) == zero


def test_ground_state_respects_relations():
    # S*_w X S_w acts on the vacuum like the grafted generator
    char = ExponentSumCharacter(12, 2)
    w, t = (6,), leaf(1)
    sandwiched = [(1, (("S*", w), ("X", t), ("S", w)))]
    assert ground_state(char, sandwiched) == char.on_tree(chain_graft(w, t))


def test_ground_state_linear():
    char = ExponentSumCharacter(12, 2)
    el = [(Fraction(2, 3), (("X", leaf(0)),)), (2, (("S", (6,)),))]
    assert ground_state(char, el) == char.on_tree(leaf(0)) * Fraction(2, 3)


# --- intertwining ---------------------------------------------------------------------

def test_intertwining_exact():
    system = default_system(max_length=4)
    trees = [leaf(j) for j in range(12)] + [chain(1, 7), node(3, leaf(4), leaf(5))]
    report = verify_intertwining(system, trees, betas=(1, 2))
    assert report.ok, report.failed()


def test_intertwining_flags_unbalanced_fixture():
    # a table character with one orbit-inconsistent value is not balanced
    from dessins.galois import TableCharacter, validate_character

    group = GaloisGroup.full(12)
    table = {j: zeta(12, j) for j in (1, 5, 7, 11)}
    table[11] = zeta(12, 5)
    char = TableCharacter(12, tuple((leaf(j), v) for j, v in table.items()))
    report = validate_character(char, group, [leaf(1), leaf(5), leaf(7), leaf(11)])
    balance, _ = report.checks
    assert not balance.passed
    assert report.failed() == [balance]
    # leaf(1) sent by gamma = 11 should carry zeta^11, the table gives zeta^5
    assert "gamma=11 on j1" in balance.detail


# --- the verification suite -----------------------------------------------------------

def test_verify_system_passes_on_defaults():
    report = qsm.verify_system(QsmSystem())
    assert report.ok, report.failed()
    assert all(c.cases >= 1 and c.seconds >= 0 for c in report.checks)
    names = [c.name for c in report.checks]
    assert names[0] == "crossed-product relations"
    assert report.checks[0].cases == 2 * 2 + 2 + 3 * 2 * 2
    assert "ground-state intertwining" in names


def test_verify_system_reads_evolution_at_the_tolerance(monkeypatch):
    monkeypatch.setattr(qsm, "time_evolution_report",
                        lambda *args, **kwargs: qsm.EvolutionReport(2e-10, True, True))
    report = qsm.verify_system(QsmSystem())
    assert [c.name for c in report.failed()] == ["time evolution at t=0.5",
                                                 "time evolution at t=1.0"]
    assert "max deviation 2.00e-10" in report.failed()[0].detail


def test_verify_system_three_routes_are_exact(monkeypatch):
    # a closed form off by one part in 10^15 is within any float tolerance of
    # the truncated routes, but breaks the exact identity; a rational factor
    # commutes with the Galois action, so the intertwining checks still pass
    closed = qsm.gibbs_closed_exact
    monkeypatch.setattr(qsm, "gibbs_closed_exact", lambda system, tree, beta:
                        closed(system, tree, beta) * Fraction(10 ** 15 + 1, 10 ** 15))
    report = qsm.verify_system(QsmSystem())
    assert [c.name for c in report.failed()] == ["Gibbs three-route agreement at beta=1",
                                                 "Gibbs three-route agreement at beta=2"]
    first = format_tree(leaf(random.Random(0).randrange(12)))   # the first sample tree
    for check in report.failed():
        assert check.cases == 4
        assert check.detail.startswith(f"4 failing, e.g. {first}; ")


@pytest.mark.parametrize("m", [1, 5, 7])
def test_verify_system_small_conductors(m):
    # the sample trees' labels are residues, and the truncated Gibbs routes
    # are compared up to the tail the window leaves out (k = 1 here, so the
    # level sums do not cancel as they do for even m)
    assert qsm.verify_system(QsmSystem(m=m)).ok


def test_verify_system_fails_fast_when_divergent():
    with pytest.raises(Divergent):
        qsm.verify_system(QsmSystem(N=2))
