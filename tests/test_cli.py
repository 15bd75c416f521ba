import os
import subprocess
import sys
from pathlib import Path

import pytest

import rainbowcube
from rainbowcube import (
    build_tree,
    cayley_coloring,
    cross_check,
    enumerate_trees,
    format_graph,
    format_tree,
    parse_embedding,
    path_tree,
    verify,
)
from rainbowcube.cli import main
from rainbowcube.gen import random_spider

from test_tree import BRANCHING_14


@pytest.fixture()
def q3(tmp_path):
    path = tmp_path / "q3.graph"
    path.write_text(format_graph(cayley_coloring(3)))
    return str(path)


@pytest.fixture()
def p4(tmp_path):
    path = tmp_path / "p4.tree"
    path.write_text(format_tree(path_tree(3)))
    return str(path)


def kv(output: str) -> dict:
    out = {}
    for line in output.strip().splitlines():
        key, _, value = line.partition("=")
        out[key] = value
    return out


class TestEmbedCommand:
    def test_success(self, q3, p4, tmp_path, capsys):
        out = tmp_path / "emb.txt"
        code = main(["embed", q3, p4, "--out", str(out), "--verify", "--trace"])
        assert code == 0
        image, n_edges, dim = parse_embedding(out.read_text())
        assert n_edges == 3 and dim == 3
        assert verify(cayley_coloring(3), path_tree(3), image).ok
        assert "trace" in out.read_text()

    def test_degree_too_small(self, q3, tmp_path):
        t = tmp_path / "p5.tree"
        t.write_text(format_tree(path_tree(4)))
        assert main(["embed", q3, str(t)]) == 4

    def test_missing_file(self, q3):
        assert main(["embed", q3, "/nonexistent/tree.txt"]) == 3

    def test_parse_error(self, q3, tmp_path):
        bad = tmp_path / "bad.tree"
        bad.write_text("not a tree\n")
        assert main(["embed", q3, str(bad)]) == 3

    def test_stdout_default(self, q3, p4, capsys):
        assert main(["embed", q3, p4]) == 0
        assert capsys.readouterr().out.startswith("embedding 3 3")

    def test_strict_vertices_flag(self, tmp_path, p4):
        g = tmp_path / "partial.graph"
        g.write_text("cube 2\nvertex 00\nedge 00 01 0\n")
        t = tmp_path / "edge.tree"
        t.write_text("tree 2\nparents 0\n")
        assert main(["embed", str(g), str(t)]) == 0  # endpoint auto-added
        assert main(["embed", str(g), str(t), "--strict-vertices"]) == 3

    def test_internal_failure_dumps_bundle(self, q3, p4, tmp_path, monkeypatch):
        # force a post-run verification failure to exercise the exit-1 path
        import rainbowcube.cli as cli
        from rainbowcube.report import Check, VerificationReport

        def broken_verify(*args, **kwargs):
            return VerificationReport((Check("rainbow", False, "forced"),))

        monkeypatch.setattr(cli, "verify", broken_verify)
        bundle = tmp_path / "bundle"
        code = main(["embed", q3, p4, "--verify", "--bundle-dir", str(bundle),
                     "--out", str(tmp_path / "e.txt")])
        assert code == 1
        assert (bundle / "graph.txt").exists()
        assert (bundle / "tree.txt").exists()
        assert (bundle / "embedding.txt").exists()

    def test_unexpected_engine_exception_exits_1_with_bundle(self, q3, p4, tmp_path,
                                                             monkeypatch, capsys):
        import rainbowcube.cli as cli

        def broken_engine(*args, **kwargs):
            raise KeyError(42)

        monkeypatch.setattr(cli, "embed_rainbow_tree", broken_engine)
        bundle = tmp_path / "bundle"
        assert main(["embed", q3, p4, "--bundle-dir", str(bundle)]) == 1
        assert "internal error: KeyError: 42" in capsys.readouterr().err
        assert (bundle / "graph.txt").read_text() == format_graph(cayley_coloring(3))
        assert (bundle / "tree.txt").exists()


class TestVerifyCommand:
    def test_pass_and_fail(self, q3, p4, tmp_path, capsys):
        emb = tmp_path / "emb.txt"
        assert main(["embed", q3, p4, "--out", str(emb)]) == 0
        assert main(["verify", q3, p4, str(emb)]) == 0
        # corrupt: map two tree vertices to one cube vertex
        text = emb.read_text().replace("map 3 111", "map 3 011")
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        assert main(["verify", q3, p4, str(bad)]) == 2
        assert "injective" in capsys.readouterr().out

    def test_z_bad_flag(self, q3, p4, tmp_path):
        emb = tmp_path / "emb.txt"
        main(["embed", q3, p4, "--out", str(emb)])
        assert main(["verify", q3, p4, str(emb), "--z-bad", "000"]) == 2
        assert main(["verify", q3, p4, str(emb), "--z-bad", "110",
                     "--require-path-distinct"]) == 0

    def test_invalid_input(self, q3, p4):
        assert main(["verify", q3, p4, "/nonexistent"]) == 3

    def test_lone_root_outside_the_host(self, tmp_path, capsys):
        files = {"host.graph": "cube 3\nvertex 000\n", "one.tree": "tree 1\n",
                 "in.txt": "embedding 0 3\nmap 0 000\n", "out.txt": "embedding 0 3\nmap 0 111\n"}
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        host, tree = str(tmp_path / "host.graph"), str(tmp_path / "one.tree")
        assert main(["verify", host, tree, str(tmp_path / "in.txt")]) == 0
        capsys.readouterr()
        assert main(["verify", host, tree, str(tmp_path / "out.txt")]) == 2
        assert capsys.readouterr().out == "FAIL homomorphism  [vertex 0 -> non-vertex 111]\n"


class TestVerifyReadsTheWholeFile:
    """The embedding's header and every `map` line must fit the tree and
    the host; a file that does not is bad input."""

    @pytest.fixture()
    def files(self, tmp_path):
        (tmp_path / "one.tree").write_text("tree 2\nparents 0\n")
        assert main(["gen", "cayley", "--n", "3", "--out", str(tmp_path / "q3.graph")]) == 0
        return tmp_path

    def run(self, files, embedding):
        (files / "emb.txt").write_text(embedding)
        return main(["verify", str(files / "q3.graph"), str(files / "one.tree"),
                     str(files / "emb.txt")])

    @pytest.mark.parametrize("embedding, message", [
        ("embedding 7 3\nmap 0 000\nmap 1 001\n",
         "embedding header claims 7 edges, the tree has 1"),
        ("embedding 1 5\nmap 0 00000\nmap 1 00001\n",
         "embedding header claims dimension 5, the host has 3"),
        ("embedding 1 3\nmap 0 000\nmap 1 001\nmap 9 011\n",
         "map names vertex 9, which the tree does not have"),
    ], ids=["edge-count", "dimension", "stray-map"])
    def test_mismatch_exits_3(self, files, embedding, message, capsys):
        assert self.run(files, embedding) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_matching_file_passes(self, files, capsys):
        assert self.run(files, "embedding 1 3\nmap 0 000\nmap 1 001\n") == 0
        assert capsys.readouterr().out == "PASS homomorphism\nPASS injective\nPASS rainbow\n"


class TestImproperHostFile:
    """A host file whose coloring is improper is bad input in every command."""

    MESSAGE = "error: vertex 000: edges to 001 and 010 share color 0\n"

    @pytest.fixture()
    def host(self, tmp_path):
        text = format_graph(cayley_coloring(3)).replace("edge 000 010 1", "edge 000 010 0")
        path = tmp_path / "improper.graph"
        path.write_text(text)
        return str(path)

    @pytest.mark.parametrize("command", ["embed", "verify", "oracle"])
    def test_exits_3(self, command, host, p4, tmp_path, capsys):
        bundle = tmp_path / "bundle"
        emb = tmp_path / "emb.txt"
        emb.write_text("embedding 3 3\nmap 0 000\n")
        argv = {
            "embed": ["embed", host, p4, "--bundle-dir", str(bundle)],
            "verify": ["verify", host, p4, str(emb)],
            "oracle": ["oracle", host, p4],
        }[command]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == self.MESSAGE
        assert not bundle.exists()


class TestUnwritableOut:
    @pytest.mark.parametrize("command", [["gen", "cayley", "--n", "2"], ["embed", "q3", "p4"]],
                             ids=["gen", "embed"])
    def test_exits_3(self, command, q3, p4, tmp_path, capsys):
        argv = [{"q3": q3, "p4": p4}.get(arg, arg) for arg in command]
        out = tmp_path / "missing" / "x"
        assert main([*argv, "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {out}: ")
        assert not out.parent.exists()


class TestOracleCommand:
    def test_found(self, q3, p4, capsys):
        assert main(["oracle", q3, p4]) == 0
        assert "found=True" in capsys.readouterr().out

    def test_not_found(self, q3, tmp_path, capsys):
        t = tmp_path / "p5.tree"
        t.write_text(format_tree(path_tree(4)))
        assert main(["oracle", q3, str(t)]) == 0
        out = capsys.readouterr().out
        assert "found=False" in out and "exhausted=True" in out

    def test_budget_ran_out(self, q3, tmp_path, capsys):
        t = tmp_path / "p5.tree"
        t.write_text(format_tree(path_tree(4)))
        assert main(["oracle", q3, str(t), "--budget", "3"]) == 0
        captured = capsys.readouterr()
        assert captured.out == "found=False exhausted=False nodes=5\n"
        assert captured.err == ""


class TestFuzzCommand:
    def test_random_trials(self, capsys):
        assert main(["fuzz", "--n", "4", "--trials", "200", "--seed", "7"]) == 0
        assert "0 counterexamples" in capsys.readouterr().out

    def test_exhaustive(self, capsys):
        assert main(["fuzz", "--exhaustive", "--n", "3", "--oracle"]) == 0
        out = capsys.readouterr().out
        assert "0 counterexamples" in out

    def test_jobs_agree_with_serial(self, capsys):
        assert main(["fuzz", "--n", "4", "--trials", "8", "--seed", "3"]) == 0
        serial = capsys.readouterr().out
        assert main(["fuzz", "--n", "4", "--trials", "8", "--seed", "3",
                     "--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial

    @pytest.mark.parametrize("jobs, trials, cpus, workers", [
        (1000, 6, 4, 4),
        (1000, 3, 64, 3),
        (2, 6, 4, 2),
        (1000, 1, 4, None),
        (8, 0, 4, None),
        (8, 6, None, None),
    ])
    def test_pool_size(self, jobs, trials, cpus, workers, monkeypatch, capsys):
        # a fake pool that records its size and maps in this process, so that
        # no worker starts whatever size is asked for
        import rainbowcube.cli as cli

        sizes = []

        class Pool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", Pool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        argv = ["fuzz", "--n", "3", "--trials", str(trials), "--seed", "4"]
        assert main(argv) == 0
        serial = capsys.readouterr().out
        assert main([*argv, "--jobs", str(jobs)]) == 0
        assert capsys.readouterr().out == serial
        assert sizes == ([] if workers is None else [workers])

    def test_env_seed_override(self, capsys, monkeypatch):
        monkeypatch.setenv("RAINBOW_SEED", "7")
        assert main(["fuzz", "--n", "4", "--trials", "5", "--seed", "999"]) == 0
        first = capsys.readouterr().out
        monkeypatch.delenv("RAINBOW_SEED")
        assert main(["fuzz", "--n", "4", "--trials", "5", "--seed", "7"]) == 0
        assert capsys.readouterr().out == first

    def test_bundles_on_counterexamples(self, tmp_path, monkeypatch, capsys):
        import dataclasses

        import rainbowcube.cli as cli

        seen = []

        def always_mismatch(g, t, **kwargs):
            seen.append((g, t))
            summary = cross_check(g, t, **kwargs)
            return dataclasses.replace(summary, mismatches=("forced",))

        monkeypatch.setattr(cli, "cross_check", always_mismatch)
        bundle = tmp_path / "bundle"
        assert main(["fuzz", "--n", "4", "--trials", "3", "--seed", "5",
                     "--bundle-dir", str(bundle)]) == 2
        assert "counterexample trial 2: forced" in capsys.readouterr().out
        assert len(seen) == 3
        for trial, (g, t) in enumerate(seen):
            case = bundle / f"trial{trial}"
            assert sorted(p.name for p in case.iterdir()) == ["graph.txt", "tree.txt"]
            assert (case / "graph.txt").read_text() == format_graph(g)
            assert (case / "tree.txt").read_text() == format_tree(t)

        seen.clear()
        assert main(["fuzz", "--exhaustive", "--n", "2", "--bundle-dir", str(bundle)]) == 2
        assert len(seen) == 21 * len(list(enumerate_trees(2)))
        for checked, (g, t) in enumerate(seen, 1):
            case = bundle / f"case{checked}"
            assert sorted(p.name for p in case.iterdir()) == [
                "embedding.txt", "graph.txt", "trace.txt", "tree.txt"]
            assert (case / "graph.txt").read_text() == format_graph(g)
            assert (case / "tree.txt").read_text() == format_tree(t)

    def test_reserved_mutation_flag_rejected(self):
        with pytest.raises(SystemExit) as info:
            main(["fuzz", "--mutate-engine-off"])
        assert info.value.code == 3


class TestGenCommand:
    def test_graph_to_file(self, tmp_path, capsys):
        out = tmp_path / "host.graph"
        code = main(["gen", "subgraph_min_degree", "--n", "4", "-d", "3",
                     "--seed", "5", "--out", str(out), "--emit-spec"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "gen subgraph_min_degree d=3 n=4 seed=5"
        assert out.read_text().startswith("cube 4")

    def test_tree_kind(self, capsys):
        assert main(["gen", "random_tree", "--edges", "5", "--seed", "1"]) == 0
        assert capsys.readouterr().out.startswith("tree 6")

    def test_spider_kind(self, capsys):
        assert main(["gen", "random_spider", "--legs", "2,2,4"]) == 0
        assert capsys.readouterr().out.startswith("tree 9")

    def test_missing_parameter(self):
        assert main(["gen", "random_tree"]) == 3

    @pytest.mark.parametrize("argv, message", [
        (["random_tree", "--edges", "-1"], "edge count must be >= 0, got -1"),
        (["cayley", "--n", "0"], "n must be >= 1, got 0"),
        (["cayley", "--n", "20"],
         "cayley_coloring materializes 2^20 vertices; use VirtualCayleyCube"),
        (["subgraph_min_degree", "--n", "4", "-d", "9"], "need 1 <= d <= n, got d=9, n=4"),
        (["random_spider", "--legs", "2,x"], "invalid literal for int() with base 10: 'x'"),
        (["refined_cayley", "--n", "3", "--splits", "0"], "splits must be >= 1, got 0"),
        (["cayley"], "--n required"),
        (["subgraph_min_degree", "--n", "4"], "--min-degree required"),
        (["random_tree"], "--edges required"),
        (["random_spider"], "--legs required"),
    ])
    def test_bad_values_exit_3(self, argv, message, capsys):
        assert main(["gen", *argv, "--emit-spec"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_spider_spec_line(self, capsys):
        assert main(["gen", "random_spider", "--legs", "2,3", "--emit-spec"]) == 0
        assert capsys.readouterr().out.splitlines()[:2] == [
            "gen random_spider legs=2,3 seed=0", "tree 6"]

    def test_determinism_across_calls(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["gen", "refined_cayley", "--n", "3", "--splits", "3",
              "--seed", "9", "--out", str(a)])
        main(["gen", "refined_cayley", "--n", "3", "--splits", "3",
              "--seed", "9", "--out", str(b)])
        assert a.read_text() == b.read_text()


class TestCheckTreeCommand:
    def test_branching_example(self, tmp_path, capsys):
        f = tmp_path / "t.tree"
        f.write_text(format_tree(build_tree(BRANCHING_14)))
        assert main(["check-tree", str(f)]) == 0
        values = kv(capsys.readouterr().out)
        assert values["format"] == "1"
        assert values["floor_edges"] == "4"
        assert values["ceil_edges"] == "5"
        assert values["is_spider"] == "0"
        assert values["internal_ok"] == "1"

    def test_five_leg_spider(self, tmp_path, capsys):
        f = tmp_path / "s.tree"
        f.write_text(format_tree(random_spider([5, 4, 4, 2, 2])))
        assert main(["check-tree", str(f)]) == 0
        values = kv(capsys.readouterr().out)
        assert values["legs"] == "5"
        assert values["odd_legs"] == "1"
        assert values["deficiency"] == "1"
        assert values["leg_lengths"] == "5,4,4,2,2"

    def test_single_edge(self, tmp_path, capsys):
        f = tmp_path / "e.tree"
        f.write_text(format_tree(path_tree(1)))
        assert main(["check-tree", str(f)]) == 0
        assert kv(capsys.readouterr().out)["deficiency"] == "1"

    def test_parse_error(self):
        assert main(["check-tree", "/nonexistent"]) == 3


class TestUsageErrors:
    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 3

    def test_no_subcommand(self):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 3

    def test_no_bench_command_and_no_strict_flag(self, q3, p4, capsys):
        with pytest.raises(SystemExit) as info:
            main(["bench"])
        assert info.value.code == 3
        assert "invalid choice: 'bench'" in capsys.readouterr().err
        with pytest.raises(SystemExit) as info:
            main(["embed", q3, p4, "--strict"])
        assert info.value.code == 3
        assert "unrecognized arguments: --strict" in capsys.readouterr().err


class TestBadNumbersExit3:
    """Out-of-range numbers print one error line, nothing on stdout, exit 3."""

    @pytest.mark.parametrize("argv, message", [
        (["fuzz", "--n", "0", "--trials", "1"], "--n must be in [1, 16], got 0"),
        (["fuzz", "--n", "17", "--trials", "1"], "--n must be in [1, 16], got 17"),
        (["fuzz", "--n", "3", "--trials", "-2"], "--trials must be >= 0, got -2"),
        (["fuzz", "--n", "3", "--trials", "1", "--jobs", "0"], "--jobs must be >= 1, got 0"),
    ])
    def test_fuzz_and_bench(self, argv, message, capsys):
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("argv", [
        ["gen", "cayley", "--n", "2"],
        ["fuzz", "--n", "3", "--trials", "1"],
        ["fuzz", "--n", "3", "--exhaustive"],
        ["embed", "GRAPH", "TREE"],
    ])
    def test_seed_that_is_not_an_integer(self, argv, q3, p4, monkeypatch, capsys):
        monkeypatch.setenv("RAINBOW_SEED", "abc")
        argv = [{"GRAPH": q3, "TREE": p4}.get(a, a) for a in argv]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: RAINBOW_SEED must be an integer, got 'abc'\n"


class TestModuleEntryPoint:
    """`python -m rainbowcube` runs the command line from a checkout, with
    nothing installed."""

    @staticmethod
    def run(tmp_path, *argv):
        src = Path(rainbowcube.__file__).resolve().parents[1]
        return subprocess.run(
            [sys.executable, "-m", "rainbowcube", *argv],
            cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=120,
        )

    def test_gen(self, tmp_path):
        out = self.run(tmp_path, "gen", "cayley", "--n", "2")
        assert out.returncode == 0, out.stderr
        assert out.stdout == format_graph(cayley_coloring(2))

    def test_bad_n_exits_3(self, tmp_path):
        out = self.run(tmp_path, "gen", "cayley", "--n", "0")
        assert out.returncode == 3
        assert out.stdout == ""
        assert out.stderr == "error: n must be >= 1, got 0\n"
