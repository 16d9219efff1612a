import csv
import json
import subprocess
import sys

import pytest

from dessins import cli, hopf, qsm, strata
from dessins.cli import main


def run_cli(*argv):
    return main(list(argv))


def test_strata_counts(capsys):
    assert run_cli("strata", "--n", "5", "--counts") == 0
    out = capsys.readouterr().out
    assert "codim 0: 1, codim 1: 10, codim 2: 15" in out


def test_strata_validation_error(capsys):
    assert run_cli("strata", "--n", "2") == 1
    assert "between 3 and 9" in capsys.readouterr().err


def test_strata_n_above_cap_exits_before_enumerating(monkeypatch, capsys):
    def refuse(labels):
        raise AssertionError("enumerated strata for a refused --n")

    monkeypatch.setattr(strata, "enumerate_strata", refuse)
    assert run_cli("strata", "--n", "10") == 1
    assert "between 3 and 9, got 10" in capsys.readouterr().err


def test_strata_dot_files(tmp_path):
    outdir = tmp_path / "dots"
    assert run_cli("strata", "--n", "4", "--dot", str(outdir)) == 0
    files = sorted(outdir.glob("*.dot"))
    assert len(files) == 4
    assert files[0].read_text().startswith("graph ")


def test_strata_json_and_csv(tmp_path):
    jpath = tmp_path / "strata.json"
    cpath = tmp_path / "counts.csv"
    assert run_cli("strata", "--n", "4", "--json", str(jpath), "--csv", str(cpath)) == 0
    payload = json.loads(jpath.read_text())
    assert len(payload) == 4
    assert {"labels", "tree", "tail_labels", "codim"} <= set(payload[0])
    rows = list(csv.reader(cpath.read_text().splitlines()))
    assert rows[0] == ["codim", "count"]
    assert rows[1:] == [["0", "1"], ["1", "3"]]


def test_strata_poset_and_clean(tmp_path):
    ppath = tmp_path / "poset.txt"
    cdir = tmp_path / "clean"
    assert run_cli("strata", "--n", "4", "--poset", str(ppath), "--clean", str(cdir)) == 0
    assert len(ppath.read_text().splitlines()) == 3  # each divisor under the corolla
    assert len(list(cdir.glob("*.dot"))) == 3


def test_strata_poset_matches_contracting_every_flag_edge(capsys):
    flat = [s for group in strata.enumerate_strata([str(i) for i in range(1, 7)]).values()
            for s in group]
    name = {s.canonical_key(): f"s{i}" for i, s in enumerate(flat)}
    covers = {f"s{i} < {name[strata.contract_edge(s.tree, e).canonical_key()]}"
              for i, s in enumerate(flat) for e in s.tree.graph.edges}
    assert run_cli("strata", "--n", "6", "--poset", "-") == 0
    assert capsys.readouterr().out == "\n".join(sorted(covers)) + "\n"


def test_strata_clean_at_three_labels_writes_the_corolla(tmp_path, capsys):
    cdir = tmp_path / "clean"
    assert run_cli("strata", "--n", "3", "--clean", str(cdir)) == 0
    assert [p.name for p in cdir.iterdir()] == ["clean_0000.dot"]
    assert "wrote 1 clean dessins" in capsys.readouterr().out


def test_clean_dot_files_are_what_the_library_writes(tmp_path):
    cdir = tmp_path / "clean"
    assert run_cli("strata", "--n", "6", "--clean", str(cdir)) == 0
    corners = [s for s, caterpillar in strata.maximal_codim_strata(["1", "2", "3", "4", "5", "6"])
               if caterpillar]
    written = sorted(cdir.iterdir())
    assert [p.name for p in written] == [f"clean_{i:04d}.dot" for i in range(len(corners))]
    for i, (s, path) in enumerate(zip(corners, written)):
        assert path.read_text() == strata.clean_dessin_to_dot(strata.clean_dessin(s),
                                                              name=f"clean_{i}")
    # the format, as the three-label corolla shows it
    corolla = strata.clean_dessin(strata.maximal_codim_strata(["1", "2", "3"])[0][0])
    assert strata.clean_dessin_to_dot(corolla, name="clean_0") == (
        'graph clean_0 {\n'
        '  "end_1" [color=black, style=filled];\n'
        '  "end_2" [color=black, style=filled];\n'
        '  "end_3" [color=black, style=filled];\n'
        '  "v0" [color=black, style=filled];\n'
        '  "end_1" -- "v0";\n'
        '  "end_2" -- "v0";\n'
        '  "end_3" -- "v0";\n'
        '}\n')


def test_hopf_coproduct(capsys):
    assert run_cli("hopf", "--tree", "j0[j0]", "--coproduct") == 0
    out = capsys.readouterr().out
    assert "(3 terms)" in out


def test_hopf_antipode(capsys):
    assert run_cli("hopf", "--tree", "j0[j1]", "--antipode") == 0
    assert capsys.readouterr().out == "antipode of j0[j1]:\n  1 * j0 j1\n  -1 * j0[j1]\n"


def test_hopf_tree_alone_prints_the_counit(capsys):
    assert run_cli("hopf", "--tree", "j0[j1]") == 0
    assert capsys.readouterr().out == "counit of j0[j1]: 0\n"


def test_hopf_without_tree_or_verify_exits_one(capsys):
    assert run_cli("hopf") == 1
    captured = capsys.readouterr()
    assert captured.err == "error: provide --tree or --verify\n" and captured.out == ""


def test_hopf_parse_error(capsys):
    assert run_cli("hopf", "--tree", "j0[j0") == 1
    assert "error" in capsys.readouterr().err


def test_hopf_verify_exit_zero(capsys):
    assert run_cli("hopf", "--verify", "--max-vertices", "4") == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5
    assert all(": ok (cases " in line for line in lines[:4])
    assert lines[-1].startswith("cache: ")


def test_hopf_verify_failure_exits_two(monkeypatch, capsys):
    monkeypatch.setattr(hopf, "counit_axioms_hold", lambda t: False)
    assert run_cli("hopf", "--verify", "--max-vertices", "3") == 2
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert any(line.startswith("counit axioms: FAIL (cases ") for line in lines)
    assert lines[-1].startswith("cache: ")
    assert "1 of 4 checks failed" in captured.err


def test_hopf_verify_json(capsys):
    hopf.clear_caches()                    # as in a fresh process
    assert run_cli("hopf", "--verify", "--max-vertices", "4", "--json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True and len(payload["checks"]) == 4
    for check in payload["checks"]:
        assert set(check) == {"name", "passed", "cases", "seconds", "detail"}
        assert check["passed"] and check["cases"] > 0
    assert payload["cache"]["trims"] == 0 and payload["cache"]["size"] > 0


def test_hopf_verify_json_at_six_vertices_keeps_the_cache_small(capsys):
    # a memo of every checked tree's own coproduct would read about 40,000 here
    hopf.clear_caches()                    # as in a fresh process
    assert run_cli("hopf", "--verify", "--max-vertices", "6", "--json") == 0
    cache = json.loads(capsys.readouterr().out)["cache"]
    assert cache["trims"] == 0 and cache["size"] < 25_000


def test_hopf_verify_json_failure_exits_two(monkeypatch, capsys):
    monkeypatch.setattr(hopf, "counit_axioms_hold", lambda t: False)
    assert run_cli("hopf", "--verify", "--max-vertices", "3", "--json") == 2
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["ok"] is False
    assert [c["name"] for c in payload["checks"] if not c["passed"]] == ["counit axioms"]
    assert "1 of 4 checks failed" in captured.err


def test_hopf_max_vertices_accepts_the_cap(capsys, monkeypatch):
    asked = []

    def record(max_vertices, seed):
        asked.append(max_vertices)
        return hopf.Report(())

    monkeypatch.setattr(hopf, "verify_identities", record)
    assert run_cli("hopf", "--verify", "--max-vertices", str(cli.MAX_HOPF_VERTICES)) == 0
    assert asked == [cli.MAX_HOPF_VERTICES] == [7]
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("value", ["0", "8"])
def test_hopf_max_vertices_out_of_range_exits_before_enumerating(capsys, monkeypatch, value):
    def refuse(*args):
        raise AssertionError("enumerated trees for a refused --max-vertices")

    monkeypatch.setattr(hopf, "enumerate_trees", refuse)
    assert run_cli("hopf", "--verify", "--max-vertices", value) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --max-vertices must be between 1 and 7")
    assert captured.out == ""


def test_qsm_build(capsys):
    assert run_cli("qsm", "build", "--m", "12", "--k", "auto", "--N", "10",
                   "--D", "2", "--lmax", "6") == 0
    out = capsys.readouterr().out
    assert "basis size 127" in out
    assert "fixed labels [0, 6] (k=2)" in out


def test_qsm_k_mismatch(capsys):
    assert run_cli("qsm", "build", "--k", "3") == 1
    assert "fixed labels" in capsys.readouterr().err


def test_qsm_partition_value(capsys):
    assert run_cli("qsm", "partition", "--beta", "1", "--model", "word") == 0
    out = capsys.readouterr().out
    rows = list(csv.reader(out.splitlines()))
    assert rows[0] == ["beta", "Z", "phi_beta_real", "phi_beta_imag", "tail_bound"]
    assert float(rows[1][1]) == pytest.approx(1.25)


def test_qsm_partition_divergent(capsys):
    assert run_cli("qsm", "partition", "--beta", "0") == 1
    err = capsys.readouterr().err
    assert ">= 1" in err


def test_qsm_partition_beta_range(tmp_path):
    out = tmp_path / "z.csv"
    assert run_cli("qsm", "partition", "--beta", "1..3", "--out", str(out)) == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert len(rows) == 4


def test_qsm_partition_exact(capsys):
    assert run_cli("qsm", "partition", "--exact", "--beta", "1..2") == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert rows[1:] == [["1", "5/4", "", "", "0"], ["2", "50/49", "", "", "0"]]


def test_qsm_partition_without_betas_exits_one(capsys):
    assert run_cli("qsm", "partition", "--beta", ",") == 1
    captured = capsys.readouterr()
    assert captured.err == "error: no inverse temperatures in ','\n" and captured.out == ""


def test_qsm_gibbs(tmp_path):
    out = tmp_path / "gibbs.csv"
    assert run_cli("qsm", "gibbs", "--tree", "j6[j0]", "--beta", "2",
                   "--out", str(out)) == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == ["beta", "Z", "phi_beta_real", "phi_beta_imag", "tail_bound"]
    val = complex(float(rows[1][2]), float(rows[1][3]))
    # phi(X_(6[0])) = zeta^6 / 4 = -1/4, scaled by 1/Z
    z = float(rows[1][1])
    assert val == pytest.approx((-0.25) / z, abs=1e-12)


def test_qsm_verify_exit_zero(capsys):
    assert run_cli("qsm", "verify") == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(qsm.verify_system(qsm.QsmSystem()).checks)
    assert all(": ok (cases " in line for line in lines)


def test_qsm_verify_failure_exits_two(monkeypatch, capsys):
    monkeypatch.setattr(qsm, "ground_state", lambda char, element: qsm.CyclotomicNumber.one(12))
    assert run_cli("qsm", "verify") == 2
    captured = capsys.readouterr()
    assert "ground state vanishes on shift monomials: FAIL (cases 4" in captured.out
    assert "1 of 9 checks failed" in captured.err


def test_qsm_verify_json(capsys):
    assert run_cli("qsm", "verify", "--json") == 0
    payload = json.loads(capsys.readouterr().out)
    want = qsm.verify_system(qsm.QsmSystem())
    assert payload["ok"] is True
    assert [c["name"] for c in payload["checks"]] == [c.name for c in want.checks]
    assert all(c["passed"] and set(c) == {"name", "passed", "cases", "seconds", "detail"}
               for c in payload["checks"])


def test_qsm_verify_json_failure_exits_two(monkeypatch, capsys):
    monkeypatch.setattr(qsm, "ground_state", lambda char, element: qsm.CyclotomicNumber.one(12))
    assert run_cli("qsm", "verify", "--json") == 2
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["ok"] is False
    failed = [c for c in payload["checks"] if not c["passed"]]
    assert [c["name"] for c in failed] == ["ground state vanishes on shift monomials"]
    assert failed[0]["cases"] == 4 and failed[0]["detail"]
    assert "1 of 9 checks failed" in captured.err


@pytest.mark.parametrize("argv", [("hopf", "--tree", "j0", "--json"), ("qsm", "build", "--json")])
def test_json_without_verify_exits_one(capsys, argv):
    assert run_cli(*argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --json needs") and captured.out == ""


def test_qsm_verify_divergent_prints_no_partial_report(capsys):
    assert run_cli("qsm", "verify", "--N", "2") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ("gibbs", "--N", "-3", "--beta", "1"),
    ("verify", "--N", "0"),
    ("partition", "--N", "1"),
])
def test_qsm_spectral_base_below_two_exits_one(capsys, argv):
    assert run_cli("qsm", *argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: N must be an integer >= 2, got {argv[argv.index('--N') + 1]}\n"
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ("gibbs", "--D", "0"),
    ("partition", "--D", "0"),
])
def test_qsm_character_denominator_below_one_exits_one(capsys, argv):
    assert run_cli("qsm", *argv) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: D must be an integer >= 1, got 0\n"
    assert captured.out == ""


@pytest.mark.parametrize("flag,value,bound", [
    ("--m", "0", "between 1 and 100"),
    ("--m", "101", "between 1 and 100"),
    ("--lmax", "0", "between 1 and 8"),
    ("--lmax", "9", "between 1 and 8"),
    ("--trunc", "-1", "between 0 and 2000"),
    ("--trunc", "2001", "between 0 and 2000"),
])
def test_qsm_bounds_exit_before_any_work(monkeypatch, capsys, flag, value, bound):
    def refuse(*args, **kwargs):
        raise AssertionError("built a system for a refused input")

    monkeypatch.setattr(qsm, "QsmSystem", refuse)
    assert run_cli("qsm", "partition", flag, value) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {flag} must be {bound}, got {value}\n"
    assert captured.out == ""


def test_qsm_partition_float_beta_at_high_truncation(capsys):
    assert run_cli("qsm", "partition", "--beta", "1.5", "--trunc", "1024") == 0
    assert run_cli("qsm", "partition", "--model", "paper", "--beta", "3.5",
                   "--trunc", "600") == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert float(rows[1][1]) == pytest.approx(1 / (1 - 2 * 10 ** -1.5))


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "dessins", "strata", "--n", "4",
                           "--counts"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "codim 0: 1" in proc.stdout


def test_cli_runs_without_numpy():
    # the library is stdlib-only: with numpy made unimportable, a full qsm
    # verification still runs and nothing named numpy is loaded
    code = ("import sys\n"
            "sys.modules['numpy'] = None\n"
            "from dessins.cli import main\n"
            "status = main(['qsm', 'verify', '--lmax', '3'])\n"
            "loaded = [n for n, mod in sys.modules.items()\n"
            "          if n.partition('.')[0] == 'numpy' and mod is not None]\n"
            "print('numpy modules:', loaded)\n"
            "sys.exit(status)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "numpy modules: []" in proc.stdout


@pytest.mark.parametrize("argv,message", [
    (("strata", "--n", "2"), "--n must be between 3 and 9, got 2"),
    (("strata", "--n", "10"), "--n must be between 3 and 9, got 10"),
    (("hopf", "--verify", "--max-vertices", "8"), "--max-vertices must be between 1 and 7, got 8"),
    (("hopf", "--tree", "j0", "--json"), "--json needs --verify"),
    (("hopf",), "provide --tree or --verify"),
    (("hopf", "--tree", "j0[j0"), "expected ']' at position 5 in 'j0[j0'"),
    (("qsm", "build", "--m", "101"), "--m must be between 1 and 100, got 101"),
    (("qsm", "verify", "--lmax", "0"), "--lmax must be between 1 and 8, got 0"),
    (("qsm", "gibbs", "--trunc", "2001"), "--trunc must be between 0 and 2000, got 2001"),
    (("qsm", "partition", "--N", "21"), "--N must be between 2 and 20, got 21"),
    (("qsm", "build", "--json"), "--json needs the verify command"),
    (("qsm", "partition", "--json"), "--json needs the verify command"),
    (("qsm", "build", "--k", "3"), "--k 3 disagrees with the 2 fixed labels of (Z/12)*"),
    (("qsm", "partition", "--beta", "abc"), "could not convert string to float: 'abc'"),
    (("qsm", "gibbs", "--tree", "j13", "--beta", "1"), "label 13 is not a residue modulo 12"),
    (("qsm", "verify", "--N", "2"), "divergent series: k * N^-beta = 1 >= 1"),
    (("qsm", "gibbs", "--N", "2", "--beta", "1"), "divergent series: k * N^-beta = 1 >= 1"),
], ids=["n-low", "n-high", "max-vertices-high", "hopf-json-without-verify", "hopf-nothing",
        "hopf-tree-syntax", "m-high", "lmax-low", "trunc-high", "N-high", "qsm-json-build",
        "qsm-json-partition", "k-mismatch", "beta-not-a-number", "label-off-conductor",
        "verify-divergent", "gibbs-divergent"])
def test_each_cli_refusal_prints_one_error_line(capsys, argv, message):
    assert run_cli(*argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""


def _chain(depth):
    return "j0[" * (depth - 1) + "j0" + "]" * (depth - 1)


def _star(vertices):
    return "j0[" + ",".join(f"j{i}" for i in range(1, vertices)) + "]"


def test_deep_chains_and_wide_stars_exit_zero_or_with_one_error_line(capsys):
    # the parse depth leaves room for the qsm window and the character's walk,
    # and a star is the tree whose antipode has the most terms for its size
    depth, vertices = hopf.MAX_TREE_DEPTH, cli.MAX_HOPF_TREE_VERTICES
    runs = [(("hopf", "--tree", _chain(d)), d <= vertices) for d in range(1, 1201)]
    runs += [(("qsm", "gibbs", "--tree", _chain(d), "--beta", "1"), d <= depth)
             for d in range(1, 1201)]
    runs += [(("qsm", "gibbs", "--tree", _chain(d), "--route", route, "--lmax", "8", "--beta", "1"),
              d <= depth)
             for d in (depth, depth + 1) for route in ("series", "trace")]
    runs += [(("hopf", "--tree", _star(n), "--antipode"), n <= vertices)
             for n in range(2, vertices + 2)]
    try:
        for argv, accepted in runs:
            code = run_cli(*argv)
            err = capsys.readouterr().err
            assert (code, err.count("\n")) == ((0, 0) if accepted else (1, 1)), argv[:2]
            assert accepted or err.startswith("error: "), argv[:2]
    finally:
        hopf.clear_caches()
    assert run_cli("hopf", "--tree", _star(vertices + 1)) == 1
    assert capsys.readouterr().err == "error: --tree vertices must be between 1 and 11, got 12\n"
    assert run_cli("qsm", "gibbs", "--tree", _chain(depth + 1)) == 1
    assert capsys.readouterr().err == "error: tree deeper than 500 levels at position 1500\n"


@pytest.mark.parametrize("beta,message", [
    ("inf", "--beta must be between -100 and 100, got inf"),
    ("-inf", "--beta must be between -100 and 100, got -inf"),
    ("1e400", "--beta must be between -100 and 100, got inf"),
    ("nan", "--beta must be between -100 and 100, got nan"),
    ("100.5", "--beta must be between -100 and 100, got 100.5"),
    ("1,-101", "--beta must be between -100 and 100, got -101"),
    ("1..101", "--beta must be between -100 and 100, got 101"),
    ("-100000..1", "--beta must be between -100 and 100, got -100000"),
    ("0..100", "the number of --beta values must be between 1 and 100, got 101"),
    (",".join(["2"] * 101), "the number of --beta values must be between 1 and 100, got 101"),
], ids=["inf", "minus-inf", "overflow", "nan", "float-past-bound", "int-past-bound",
        "range-end-past-bound", "range-start-past-bound", "range-too-long", "list-too-long"])
@pytest.mark.parametrize("command", ["partition", "gibbs"])
def test_qsm_betas_past_their_bounds_exit_one(capsys, command, beta, message):
    assert run_cli("qsm", command, f"--beta={beta}") == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""


def test_qsm_refused_spectral_base_exits_before_any_partition_sum(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("summed a partition function for a refused --N")

    monkeypatch.setattr(qsm, "partition_function", refuse)
    assert run_cli("qsm", "partition", "--N", str(10 ** 30), "--beta", "100", "--trunc", "2000") == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: --N must be between 2 and 20, got {10 ** 30}\n"
    assert captured.out == ""


def test_qsm_betas_at_their_bounds_are_accepted(capsys):
    assert run_cli("qsm", "partition", "--exact", "--beta", "1..100") == 0
    assert len(capsys.readouterr().out.splitlines()) == 101
    assert run_cli("qsm", "partition", "--beta", "100", "--trunc", "2000") == 0
    assert capsys.readouterr().out.splitlines()[1] == "100,1.0,,,0.0"
