import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from precursor.scoring import (DegenerateLikelihood, DyadContext, DyadScore,
                               ScoringConfig, TooLargeForExact, VARIANTS,
                               chance_prob, build_dyad_context, eligible_blogs,
                               gamma, global_scores, likelihood,
                               likelihood_sampled, omega, pr_h, score_dyad,
                               score_all_dyads, score_shared_dyads)

from conftest import (brute_force_likelihood, burst_of, corpus_of, grid_gamma,
                      post, quad_gamma, topic_of)


def ctx_of(n_a, n_y, c_values, b="a", b2="b"):
    topics = tuple(f"t{i}" for i in range(n_a))
    return DyadContext(b, b2, topics, topics[:n_y],
                       {t: c for t, c in zip(topics, c_values)})


def random_ctx(rng, max_a=8, max_y=8, c_lo=0.05, c_hi=0.95):
    n_a = int(rng.integers(0, max_a + 1))
    n_y = int(rng.integers(0, min(n_a, max_y) + 1))
    return ctx_of(n_a, n_y, rng.uniform(c_lo, c_hi, size=n_a))


class TestChanceProb:
    def make(self):
        posts = ([post(f"a{i}", "a", 10 + i) for i in range(3)]
                 + [post("b0", "b", 12)]
                 + [post("c0", "c", 500), post("c1", "d", 510)])
        return corpus_of(posts)

    def test_three_to_one(self):
        corpus = self.make()
        topic = topic_of("t1", 10, 20, {"a": 10, "b": 12})
        assert chance_prob(corpus, "a", "b", topic) == pytest.approx(0.75)

    def test_symmetry_at_equal_counts(self):
        corpus = self.make()
        topic = topic_of("t1", 10, 20, {"a": 10, "b": 12})
        assert chance_prob(corpus, "b", "b", topic) == pytest.approx(0.5)

    def test_zero_when_no_posts(self):
        corpus = self.make()
        topic = topic_of("t1", 10, 20, {})
        assert chance_prob(corpus, "c", "a", topic) == 0.0

    def test_guard_when_both_empty(self):
        corpus = self.make()
        topic = topic_of("t1", 100, 200, {})
        assert chance_prob(corpus, "a", "b", topic) == 0.5


class TestContext:
    def test_y_must_be_subset(self):
        with pytest.raises(ValueError):
            DyadContext("a", "b", ("t1",), ("t2",), {"t1": 0.5, "t2": 0.5})

    def test_c_must_cover_a(self):
        with pytest.raises(ValueError):
            DyadContext("a", "b", ("t1",), (), {})


class TestLikelihood:
    def test_empty_context_is_one(self):
        ctx = ctx_of(0, 0, [])
        for p in (0.0, 0.3, 1.0):
            assert likelihood(p, ctx) == 1.0

    def test_single_topic_no_precede(self):
        ctx = ctx_of(1, 0, [0.5])
        for p in (0.0, 0.2, 0.9):
            assert likelihood(p, ctx) == pytest.approx((1 - p) * 0.5)

    def test_single_topic_precede_is_flat(self):
        ctx = ctx_of(1, 1, [0.5])
        for p in (0.0, 0.2, 0.9):
            assert likelihood(p, ctx) == pytest.approx(0.5)

    def test_rejects_large_y(self):
        ctx = ctx_of(16, 16, [0.5] * 16)
        with pytest.raises(TooLargeForExact):
            likelihood(0.5, ctx)

    def test_matches_brute_force_enumeration(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            ctx = random_ctx(rng)
            p = float(rng.uniform())
            expected = brute_force_likelihood(p, ctx.a_topics, ctx.y_topics,
                                              ctx.c)
            got = likelihood(p, ctx)
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-300)

    def test_partitioned_variant_matches_its_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            ctx = random_ctx(rng)
            p = float(rng.uniform())
            expected = brute_force_likelihood(p, ctx.a_topics, ctx.y_topics,
                                              ctx.c, variant="partitioned")
            got = likelihood(p, ctx, variant="partitioned")
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-300)


class TestLikelihoodSampled:
    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(2)
        ctx = ctx_of(18, 17, rng.uniform(0.3, 0.7, 18))
        a = likelihood_sampled(0.4, ctx, 2000, seed=99)
        b = likelihood_sampled(0.4, ctx, 2000, seed=99)
        assert a == b

    def test_exhaustive_equals_exact(self):
        rng = np.random.default_rng(4)
        ctx = random_ctx(rng, max_a=6, max_y=6)
        for p in (0.1, 0.5, 0.9):
            assert likelihood_sampled(p, ctx, 1, seed=0, exhaustive=True) == \
                likelihood(p, ctx)

    def test_boundary_accuracy(self):
        rng = np.random.default_rng(6)
        ctx = ctx_of(16, 16, rng.uniform(0.35, 0.65, 16))
        exact = likelihood_sampled(0.5, ctx, 1, seed=0, exhaustive=True)
        sampled = likelihood_sampled(0.5, ctx, 50_000, seed=1)
        assert sampled == pytest.approx(exact, rel=0.05)


# chance probabilities strictly inside (0, 1): C_r = 1 on A\Y is degenerate
chance = st.floats(0.01, 0.99)


class TestGamma:
    def test_flat_prior_mean(self):
        assert gamma(ctx_of(0, 0, [])) == 0.5

    def test_one_third_case(self):
        assert gamma(ctx_of(1, 0, [0.5])) == pytest.approx(1 / 3, abs=1e-12)

    def test_half_case(self):
        assert gamma(ctx_of(1, 1, [0.5])) == pytest.approx(0.5, abs=1e-12)

    def test_degenerate_likelihood_returns_half(self):
        ctx = ctx_of(1, 0, [1.0])  # base factor (1 - C) = 0 kills every term
        with pytest.warns(DegenerateLikelihood):
            assert gamma(ctx) == 0.5

    def test_gamma_within_unit_interval(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            ctx = random_ctx(rng)
            g = gamma(ctx)
            assert 0.0 <= g <= 1.0

    def test_matches_quadrature_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            ctx = random_ctx(rng, max_a=5, max_y=5)
            expected = grid_gamma(ctx.a_topics, ctx.y_topics, ctx.c)
            assert gamma(ctx) == pytest.approx(expected, abs=1e-6)

    def test_monotone_in_y(self):
        rng = np.random.default_rng(10)
        for _ in range(6):
            n_a = int(rng.integers(1, 7))
            c_values = rng.uniform(0.1, 0.9, n_a)
            gammas = [grid_gamma(tuple(f"t{i}" for i in range(n_a)),
                                 tuple(f"t{i}" for i in range(n_y)),
                                 {f"t{i}": c for i, c in enumerate(c_values)})
                      for n_y in range(n_a + 1)]
            assert all(b >= a - 1e-9 for a, b in zip(gammas, gammas[1:]))

    def test_symmetric_null_stays_near_half(self):
        # chance-level precedence (C = 0.5 on every topic of Y = A) leaves
        # the likelihood flat in p, so gamma is the prior mean
        deviations = [abs(gamma(ctx_of(n, n, [0.5] * n)) - 0.5)
                      for n in range(20)]
        assert max(deviations) < 1e-12

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("n_y, n_a", [(16, 16), (30, 40), (150, 150),
                                          (150, 170)])
    def test_matches_adaptive_quadrature(self, n_y, n_a, variant):
        rng = np.random.default_rng(n_y * 1000 + n_a)
        ctx = ctx_of(n_a, n_y, rng.uniform(0.05, 0.95, n_a))
        expected = quad_gamma(ctx.a_topics, ctx.y_topics, ctx.c, variant)
        assert gamma(ctx, variant=variant) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_finite_at_400_topics(self, variant):
        rng = np.random.default_rng(400)
        for lo, hi in ((0.05, 0.95), (0.001, 0.01), (0.99, 0.999)):
            g = gamma(ctx_of(400, 400, rng.uniform(lo, hi, 400)),
                      variant=variant)
            assert math.isfinite(g) and 0.0 < g < 1.0

    @pytest.mark.parametrize("n_a", [1, 2, 7, 150, 400])
    def test_closed_form_fixtures(self, n_a):
        # Y empty: L = base (1-p)^n, so gamma = B(2, n+1) / B(1, n+1); at
        # C = 0.9 the factor base = 0.1^n underflows for large n and cancels
        assert gamma(ctx_of(n_a, 0, [0.9] * n_a)) == 1 / (n_a + 2)
        # Y = A with C = 0: every topic counts for the relationship, L = p^n
        assert gamma(ctx_of(n_a, n_a, [0.0] * n_a)) == (n_a + 1) / (n_a + 2)

    @pytest.mark.parametrize("variant, c, n", [("verbatim", 0.2, 60),
                                               ("verbatim", 0.01, 1100),
                                               ("partitioned", 0.3, 5),
                                               ("partitioned", 0.99, 1100)])
    def test_uniform_chance_closed_form(self, variant, c, n):
        # Y = A with one C for all: L = (a + b p)^n, and at n = 1100 the
        # split coefficients span more than the float range
        a, b = c, (1.0 - 2.0 * c if variant == "verbatim" else 1.0 - c)

        def moment(j):  # integral of u^j over u = a + b p, p in [0, 1]
            return ((a + b) ** (j + 1) - a ** (j + 1)) / (j + 1)

        expected = (moment(n + 1) - a * moment(n)) / (b * moment(n))
        got = gamma(ctx_of(n, n, [c] * n), variant=variant)
        assert got == pytest.approx(expected, rel=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(chance, min_size=1, max_size=6), st.data(),
           st.sampled_from(VARIANTS))
    def test_equals_grid_quadrature(self, c_values, data, variant):
        n_a = len(c_values)
        n_y = data.draw(st.integers(0, n_a))
        ctx = ctx_of(n_a, n_y, c_values)
        expected = grid_gamma(ctx.a_topics, ctx.y_topics, ctx.c,
                              variant=variant)
        # trapezoid error at 2001 points for degree <= 7 is below 3e-7
        assert gamma(ctx, variant=variant) == pytest.approx(expected, abs=1e-6)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(chance, min_size=1, max_size=40),
           st.sampled_from(VARIANTS))
    def test_never_decreases_as_topics_join_y(self, c_values, variant):
        n_a = len(c_values)
        gammas = [gamma(ctx_of(n_a, n_y, c_values), variant=variant)
                  for n_y in range(n_a + 1)]
        assert all(b >= a - 1e-12 for a, b in zip(gammas, gammas[1:]))


def scored_corpus():
    """Corpus and one topic: blogs a, b share it; c stays outside."""
    posts = ([post(f"a{i}", "a", 100 + 10 * i) for i in range(10)]
             + [post(f"b{i}", "b", 105 + 10 * i) for i in range(10)]
             + [post(f"c{i}", "c", 300 + i) for i in range(10)])
    corpus = corpus_of(posts)
    burst = burst_of(("w1", "w2"), 100, 145,
                     occurrences=[(100, "a", "a0"), (105, "b", "b0"),
                                  (120, "a", "a2"), (125, "b", "b2")])
    topic = topic_of("t1", 100, 145, {"a": 100, "b": 105}, bursts=(burst,))
    return corpus, [topic]


class TestPrH:
    def test_no_shared_topics_zero(self):
        corpus, topics = scored_corpus()
        assert pr_h(corpus, topics, "a", "c") == 0.0

    def test_two_of_ten(self):
        corpus, topics = scored_corpus()
        assert pr_h(corpus, topics, "a", "b") == pytest.approx(0.2)

    def test_all_posts_participating(self):
        posts = [post(f"a{i}", "a", 10 * i) for i in range(2)] + \
                [post(f"b{i}", "b", 10 * i + 5) for i in range(2)]
        corpus = corpus_of(posts)
        burst = burst_of(("w1", "w2"), 0, 15,
                         occurrences=[(0, "a", "a0"), (5, "b", "b0"),
                                      (10, "a", "a1"), (15, "b", "b1")])
        topic = topic_of("t1", 0, 15, {"a": 0, "b": 5}, bursts=(burst,))
        assert pr_h(corpus, [topic], "a", "b") == 1.0


class TestOmega:
    def test_zero_pr_h(self):
        assert omega(0.9, 0.0) == 0.0

    def test_product(self):
        assert omega(0.5, 0.2) == pytest.approx(0.1)

    def test_omega_never_exceeds_gamma(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            g, h = rng.uniform(), rng.uniform()
            assert omega(g, h) <= g


class TestGlobalScores:
    def make_score(self, b, b2, om):
        return DyadScore(b=b, b2=b2, a_size=1, y_size=0, gamma=0.5,
                         pr_h=om / 0.5, omega=om)

    def test_two_blogs_single_term(self):
        scores = [self.make_score("a", "b", 0.12),
                  self.make_score("b", "a", 0.3)]
        result = global_scores(scores, ["a", "b"])
        assert result["a"] == pytest.approx((0.12, 0.3))
        assert result["b"] == pytest.approx((0.3, 0.12))

    def test_three_blog_hand_means(self):
        values = {("a", "b"): 0.2, ("a", "c"): 0.4, ("b", "a"): 0.1,
                  ("b", "c"): 0.0, ("c", "a"): 0.3, ("c", "b"): 0.5}
        scores = [self.make_score(b, b2, om) for (b, b2), om in values.items()]
        result = global_scores(scores, ["a", "b", "c"])
        assert result["a"] == pytest.approx(((0.2 + 0.4) / 2, (0.1 + 0.3) / 2))
        assert result["b"] == pytest.approx(((0.1 + 0.0) / 2, (0.2 + 0.5) / 2))
        assert result["c"] == pytest.approx(((0.3 + 0.5) / 2, (0.4 + 0.0) / 2))

    def test_blog_without_topics_scores_zero(self):
        corpus, topics = scored_corpus()
        config = ScoringConfig(min_posts=7)
        scores = score_all_dyads(corpus, topics, config)
        result = global_scores(scores, eligible_blogs(corpus, 7))
        assert result["c"] == (0.0, 0.0)


class TestScoreDyads:
    def test_eligibility_threshold(self):
        posts = [post(f"a{i}", "a", i) for i in range(7)] + \
                [post(f"b{i}", "b", i + 100) for i in range(6)]
        corpus = corpus_of(posts)
        assert eligible_blogs(corpus, 7) == ["a"]

    def test_gamma_at_y16_matches_oracle(self):
        # |Y| = 16 is past the enumeration limit of `likelihood`
        corpus, _ = scored_corpus()
        big = [topic_of(f"t{i}", 100 + 20 * i, 140 + 20 * i,
                        {"a": 100 + 20 * i, "b": 105 + 20 * i})
               for i in range(16)]
        score = score_dyad(corpus, big, "a", "b", ScoringConfig())
        assert score.a_size == score.y_size == 16
        ctx = build_dyad_context(corpus, big, "a", "b")
        expected = quad_gamma(ctx.a_topics, ctx.y_topics, ctx.c)
        assert score.gamma == pytest.approx(expected, abs=1e-12)

    def test_strict_tie_excluded_from_y(self):
        corpus, _ = scored_corpus()
        topic = topic_of("t1", 100, 145, {"a": 100, "b": 100})
        ctx = build_dyad_context(corpus, [topic], "a", "b")
        assert ctx.a_topics == ("t1",) and ctx.y_topics == ()

    def test_deterministic_across_runs(self):
        corpus, topics = scored_corpus()
        config = ScoringConfig()
        first = score_all_dyads(corpus, topics, config)
        second = score_all_dyads(corpus, topics, config)
        assert first == second


@st.composite
def corpora_with_topics(draw):
    """A few blogs with 1-9 posts each and topics over random subsets of
    them; first participations fall in a 4-second range, so ties are common."""
    blogs = [f"b{i}" for i in range(draw(st.integers(2, 6)))]
    posts = {b: [post(f"{b}_{k}", b, t) for k, t in enumerate(
                 draw(st.lists(st.integers(0, 60), min_size=1, max_size=9)))]
             for b in blogs}
    corpus = corpus_of([p for ps in posts.values() for p in ps])
    topics = []
    for j in range(draw(st.integers(0, 6))):
        members = draw(st.lists(st.sampled_from(blogs), unique=True))
        start = draw(st.integers(0, 50))
        end = draw(st.integers(start, 60))
        bursts = tuple(
            burst_of(("w", f"{j}{k}"), start, end, occurrences=[
                (p.timestamp, b, p.post_id) for b in members
                for p in draw(st.lists(st.sampled_from(posts[b]),
                                       max_size=3))])
            for k in range(draw(st.integers(1, 2))))
        topics.append(topic_of(f"t{j}", start, end,
                               {b: draw(st.integers(start, start + 3))
                                for b in members}, bursts=bursts))
    return corpus, topics


def sparse_fixture():
    """Blogs a-d are eligible at min_posts = 3 and e is not.  Topic t1 is
    shared by a, b and e, with a and b tied; t2 by a and c; t3 has one
    eligible participant (b) besides e; d shares no topic."""
    posts = ([post(f"a{i}", "a", 10 * i) for i in range(5)]
             + [post(f"b{i}", "b", 10 * i + 2) for i in range(4)]
             + [post(f"c{i}", "c", 10 * i + 4) for i in range(3)]
             + [post(f"d{i}", "d", 10 * i + 6) for i in range(6)]
             + [post(f"e{i}", "e", 10 * i + 8) for i in range(2)])
    corpus = corpus_of(posts)
    t1 = topic_of("t1", 0, 20, {"a": 0, "b": 0, "e": 8}, bursts=(
        burst_of(("w", "1"), 0, 20, [(0, "a", "a0"), (2, "b", "b0"),
                                     (8, "e", "e0"), (12, "b", "b1")]),))
    t2 = topic_of("t2", 10, 40, {"c": 14, "a": 20}, bursts=(
        burst_of(("w", "2"), 10, 30, [(14, "c", "c1"), (20, "a", "a2")]),
        burst_of(("w", "3"), 20, 40, [(24, "c", "c2"), (30, "a", "a3"),
                                      (14, "c", "c1")])))
    t3 = topic_of("t3", 0, 50, {"b": 2, "e": 18}, bursts=(
        burst_of(("w", "4"), 0, 50, [(2, "b", "b0"), (18, "e", "e1")]),))
    return corpus, [t1, t2, t3]


@pytest.mark.filterwarnings("ignore::precursor.scoring.DegenerateLikelihood")
class TestSparseScoring:
    """The one-pass scorer against the per-pair reference `score_dyad`
    (build_dyad_context + gamma + pr_h)."""

    def check_against_reference(self, corpus, topics, config):
        blogs = eligible_blogs(corpus, config.min_posts)
        expected = [score_dyad(corpus, topics, b, b2, config)
                    for b in blogs for b2 in blogs if b != b2]
        assert score_all_dyads(corpus, topics, config) == expected
        shared = score_shared_dyads(corpus, topics, blogs, config)
        assert shared == [s for s in expected if s.a_size > 0]
        assert global_scores(shared, blogs) == global_scores(expected, blogs)
        return expected

    @settings(max_examples=150, deadline=None)
    @given(case=corpora_with_topics(), min_posts=st.integers(1, 5),
           variant=st.sampled_from(VARIANTS))
    def test_matches_per_pair_reference(self, case, min_posts, variant):
        corpus, topics = case
        self.check_against_reference(
            corpus, topics, ScoringConfig(min_posts=min_posts, variant=variant))

    def test_fixture_cases(self):
        corpus, topics = sparse_fixture()
        scores = self.check_against_reference(corpus, topics,
                                              ScoringConfig(min_posts=3))
        by_pair = {(s.b, s.b2): s for s in scores}
        assert {b for b, _ in by_pair} == {"a", "b", "c", "d"}  # not e
        # tied first participations: shared, but neither precedes
        assert by_pair["a", "b"].a_size == by_pair["b", "a"].a_size == 1
        assert by_pair["a", "b"].y_size == by_pair["b", "a"].y_size == 0
        # c1 occurs in both bursts of t2 and counts once: 2 of c's 3 posts
        assert by_pair["a", "c"].pr_h == 2 / 3
        # t3's only eligible participant and d share nothing with anyone
        fixed = [s for s in scores if s.b == "d" or s.b2 == "d"
                 or {s.b, s.b2} == {"b", "c"}]
        assert len(fixed) == 8
        assert all((s.a_size, s.y_size, s.gamma, s.pr_h, s.omega)
                   == (0, 0, 0.5, 0.0, 0.0) for s in fixed)

