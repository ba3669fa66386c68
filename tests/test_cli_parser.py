"""``cli.main`` builds its parser once per process and behaves like a fresh build on every call."""

import os
import subprocess
import sys
from pathlib import Path

from prodbasis import cli
from prodbasis.errors import ProductBasisError

SRC = str(Path(cli.__file__).resolve().parents[1])

# (argv, file the call writes or None), run in order in one directory; the
# --seed 5 calls check that a cached parser gives the next call its default seed
SEQUENCE = [
    (["construct", "--family", "gentiles1", "--n", "4", "--out", "g1_4.json"], "g1_4.json"),
    (["construct", "--family", "cartesian", "--m", "2", "--n", "3", "--out", "cart.json"], "cart.json"),
    (["verify", "g1_4.json", "--restarts", "5", "--seed", "1", "--format", "json"], None),
    (["render", "g1_4.json"], None),
    (["verify"], None),
    (["--help"], None),
    (["wind", "--help"], None),
    (["boundent", "g1_4.json", "--restarts", "5", "--out", "rho.json"], "rho.json"),
    (["verify", "g1_4.json", "--restarts", "5", "--seed", "5"], None),
    (["wind", "cart.json", "--moves", "1", "--seed", "5", "--out", "w1.json"], "w1.json"),
    (["wind", "--cartesian", "2", "3", "--moves", "2", "--out", "w2.json"], "w2.json"),
    (["wind", "cart.json", "--cartesian", "2", "3", "--out", "w3.json"], None),
    (["unwind", "w1.json", "--depth", "2"], None),
    (["verify", "missing.json"], None),
    (["construct", "--family", "gentiles2", "--m", "3", "--n", "3"], None),
]


def run_sequence(tmp_path, monkeypatch, capsys, fresh: bool) -> list:
    """(exit code, stdout, stderr, written bytes) of every call in ``SEQUENCE``."""
    results = []
    for argv, written in SEQUENCE:
        if fresh:
            monkeypatch.setattr(cli, "_parser", None)
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
        captured = capsys.readouterr()
        data = (tmp_path / written).read_bytes() if written else None
        results.append((code, captured.out, captured.err, data))
    return results


def test_cached_parser_matches_fresh_parser(tmp_path, monkeypatch, capsys):
    builds = []
    build = cli.build_parser

    def counting_build():
        builds.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counting_build)
    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path)

    cached = run_sequence(tmp_path, monkeypatch, capsys, fresh=False)
    assert len(builds) == 1
    fresh = run_sequence(tmp_path, monkeypatch, capsys, fresh=True)
    assert len(builds) == 1 + len(SEQUENCE)

    for (argv, _), got, want in zip(SEQUENCE, cached, fresh):
        assert got == want, argv
    codes = [code for code, *_ in cached]
    assert codes == [0, 0, 0, 0, ("SystemExit", 2), ("SystemExit", 0), ("SystemExit", 0),
                     0, 0, 0, 0, 1, 0, 1, 2]
    assert "seed: 5" in cached[8][1] and "(seed 5)" in cached[9][1] and "(seed 0)" in cached[10][1]


def test_cached_parser_sees_patched_module_attributes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["construct", "--family", "cartesian", "--m", "2", "--n", "2", "--out", "c.json"]) == 0
    parser = cli._parser
    assert parser is not None

    def stub_check(*args, **kwargs):
        raise ProductBasisError("stubbed check")

    monkeypatch.setattr(cli, "check_upb", stub_check)
    monkeypatch.setattr(cli, "cmd_render", lambda args: 42)
    assert cli.main(["verify", "c.json"]) == 1
    assert capsys.readouterr().err == "error: stubbed check\n"
    assert cli.main(["render", "c.json"]) == 42
    assert cli._parser is parser


def test_parser_is_not_built_at_import():
    code = "import prodbasis.cli as cli; assert cli._parser is None"
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": SRC})


def test_construct_gentiles1_rejects_m(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["construct", "--family", "gentiles1", "--n", "4", "--m", "7", "--out", "g.json"]) == 1
    assert capsys.readouterr().err == "error: --m is not used by gentiles1\n"
    assert not (tmp_path / "g.json").exists()
