import numpy as np
import pytest

from precursor.network import (CitationGraph, NotConverged, build_graph,
                               in_degrees, pagerank)

from conftest import corpus_of, pagerank_linear, post, reference_pagerank


def graph_from_links(links: dict[str, list[str]], extra_blogs=()):
    posts = []
    counter = 0
    blogs = set(links) | {t for ts in links.values() for t in ts} | set(extra_blogs)
    for blog in sorted(blogs):
        posts.append(post(f"seed_{blog}", blog, counter))
        counter += 1
    for src, targets in links.items():
        for target in targets:
            posts.append(post(f"p{counter}", src, counter, links={target}))
            counter += 1
    return build_graph(corpus_of(posts))


class TestInDegree:
    def test_isolated_blog(self):
        graph = graph_from_links({"a": []}, extra_blogs=["b"])
        assert in_degrees(graph)["b"] == 0

    def test_repeat_links_count_once(self):
        graph = graph_from_links({"a": ["b"] * 5})
        assert in_degrees(graph)["b"] == 1
        assert graph.weights[("a", "b")] == 5

    def test_three_distinct_sources(self):
        graph = graph_from_links({"a": ["x"], "b": ["x"], "c": ["x"]})
        assert in_degrees(graph)["x"] == 3

    def test_bounded_by_network_size(self):
        graph = graph_from_links({"a": ["x"], "b": ["x"], "c": ["x"]})
        degrees = in_degrees(graph)
        assert all(d <= len(graph.nodes) - 1 for d in degrees.values())


class TestPageRank:
    def test_mutual_pair_is_symmetric(self):
        graph = graph_from_links({"a": ["b"], "b": ["a"]})
        ranks = pagerank(graph)
        assert ranks["a"] == pytest.approx(0.5, abs=1e-9)
        assert ranks["b"] == pytest.approx(0.5, abs=1e-9)

    def test_isolated_nodes_share_uniformly(self):
        graph = graph_from_links({}, extra_blogs=[f"b{i}" for i in range(5)])
        ranks = pagerank(graph)
        assert all(r == pytest.approx(0.2, abs=1e-9) for r in ranks.values())
        assert pagerank(CitationGraph(nodes=())) == {}

    def test_chain_matches_linear_solve(self):
        graph = graph_from_links({"a": ["b"], "b": ["c"]})
        ranks = pagerank(graph)
        expected = pagerank_linear(graph)
        for blog in graph.nodes:
            assert ranks[blog] == pytest.approx(expected[blog], abs=1e-8)

    def test_random_graphs_match_linear_solve(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            links = {}
            names = [f"b{i}" for i in range(10)]
            for src in names:
                targets = [t for t in names
                           if t != src and rng.random() < 0.25]
                links[src] = targets
            graph = graph_from_links(links, extra_blogs=names)
            ranks = pagerank(graph)
            expected = pagerank_linear(graph)
            assert sum(ranks.values()) == pytest.approx(1.0, abs=1e-9)
            for blog in graph.nodes:
                assert ranks[blog] == pytest.approx(expected[blog], abs=1e-8)

    def test_external_target_is_a_node(self):
        # "outside" is cited but never posts, as under keep_external_links
        graph = build_graph(corpus_of([
            post("p1", "a", 1, links={"outside", "b"}),
            post("p2", "b", 2, links={"a"}), post("p3", "c", 3)]))
        assert graph.nodes == ("a", "b", "c", "outside")
        assert in_degrees(graph)["outside"] == 1
        ranks = pagerank(graph)
        expected = pagerank_linear(graph)
        assert sum(ranks.values()) == pytest.approx(1.0, abs=1e-9)
        for blog in graph.nodes:
            assert ranks[blog] == pytest.approx(expected[blog], abs=1e-8)

    def test_equals_the_node_loop_to_the_bit(self):
        # dangling nodes, and targets that never post (kept external links)
        rng = np.random.default_rng(5)
        for size in (1, 2, 7, 30):
            names = [f"b{i:02d}" for i in range(size)]
            targets = names + ["outside_x", "outside_y"]
            posts = [post(f"s{i}", b, i) for i, b in enumerate(names)]
            for i in range(3 * size):
                src = names[int(rng.integers(size))]
                links = {t for t in targets
                         if t != src and rng.random() < 0.15}
                posts.append(post(f"p{i}", src, size + i, links=links))
            graph = build_graph(corpus_of(posts))
            assert "outside_x" in graph.nodes
            assert pagerank(graph) == reference_pagerank(graph)
            with pytest.warns(NotConverged):
                early = pagerank(graph, damping=0.5, max_iter=3)
            assert early == reference_pagerank(graph, damping=0.5, max_iter=3)

    def test_relabeling_invariance(self):
        links = {"a": ["b", "c"], "b": ["c"], "c": ["a"]}
        renamed = {"x": ["y", "z"], "y": ["z"], "z": ["x"]}
        r1 = pagerank(graph_from_links(links))
        r2 = pagerank(graph_from_links(renamed))
        for old, new in (("a", "x"), ("b", "y"), ("c", "z")):
            assert r1[old] == pytest.approx(r2[new], abs=1e-12)

    def test_not_converged_warning(self):
        links = {f"b{i}": [f"b{i + 1}"] for i in range(8)}
        graph = graph_from_links(links)
        with pytest.warns(NotConverged):
            ranks = pagerank(graph, max_iter=2)
        assert sum(ranks.values()) == pytest.approx(1.0, abs=1e-9)

    def test_damping_validated(self):
        graph = graph_from_links({"a": ["b"]})
        with pytest.raises(ValueError):
            pagerank(graph, damping=1.5)
