import json

import numpy as np
import pytest

from prodbasis import cli, verify
from prodbasis.basis import ProductBasis, ProductState
from prodbasis.boundent import range_criterion_report, upb_density_state
from prodbasis.cli import main
from prodbasis.errors import (
    BasisFileError,
    IncompleteBasis,
    InvalidDimension,
    NoTileMetadata,
    ProductBasisError,
    WindingInvariantError,
)
from prodbasis.families import cartesian_basis, gen_tiles1, gen_tiles2
from prodbasis.io import (
    basis_from_payload,
    basis_to_payload,
    complex_from_json,
    complex_to_json,
    load_basis,
    save_basis,
)
from prodbasis.render import render_tiles
from prodbasis.sampling import random_unit_vector, stream
from prodbasis.winding import move_from_record, move_to_record, random_wound_basis


def random_basis_like(n_states, d_a, d_b, seed):
    rng = stream(seed, 0)
    states = tuple(
        ProductState(random_unit_vector(rng, d_a), random_unit_vector(rng, d_b), label=f"r{i}")
        for i in range(n_states)
    )
    return ProductBasis(d_a, d_b, states)


def test_round_trip_bit_exact(tmp_path):
    basis = random_basis_like(50, 3, 4, 7)
    path = tmp_path / "basis.json"
    save_basis(basis, path)
    loaded = load_basis(path)
    assert loaded.d_a == 3 and loaded.d_b == 4
    for x, y in zip(basis, loaded):
        assert np.array_equal(x.a, y.a)
        assert np.array_equal(x.b, y.b)
        assert x.label == y.label


def test_round_trip_preserves_metadata(tmp_path):
    basis = gen_tiles2(3, 4)
    path = tmp_path / "g2.json"
    save_basis(basis, path)
    loaded = load_basis(path)
    assert loaded.family == basis.family
    assert all(x.tile_cells == y.tile_cells for x, y in zip(basis, loaded))


def test_round_trip_provenance_moves(tmp_path):
    wound, moves = random_wound_basis(2, 2, 2, 11)
    path = tmp_path / "wound.json"
    save_basis(wound, path)
    loaded = load_basis(path)
    assert len(loaded.provenance) == 2
    recovered = move_from_record(loaded.provenance[-1])
    assert np.array_equal(recovered.u_b, moves[-1].u_b)


def test_load_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(BasisFileError):
        load_basis(path)
    path.write_text(json.dumps({"format_version": 99, "dims": [2, 2], "states": []}))
    with pytest.raises(BasisFileError):
        load_basis(path)
    payload = basis_to_payload(cartesian_basis(2, 2))
    payload["states"][0]["a"] = [[0.5, 0.0], [0.0, 0.0]]  # not unit norm
    with pytest.raises(BasisFileError):
        basis_from_payload(payload)


@pytest.mark.parametrize("key, value, message", [
    ("family", "Nope", "unknown family 'Nope'"),
    ("states", [], "states must be a nonempty list"),
    ("states", [1], "state 0 is not an object"),
    ("provenance", "x", "provenance must be a list when present"),
], ids=["family", "no_states", "state_not_object", "provenance_not_list"])
def test_malformed_payload_field_is_a_basis_file_error(tmp_path, capsys, key, value, message):
    payload = basis_to_payload(cartesian_basis(2, 2))
    payload[key] = value
    with pytest.raises(BasisFileError, match=message):
        basis_from_payload(payload)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    code, stdout, stderr = run_cli(["verify", str(path)], capsys)
    assert code == 1 and stdout == ""
    assert stderr == f"error: {message}\n"


def test_render_gentiles1_layout():
    text = render_tiles(gen_tiles1(4))
    lines = text.splitlines()
    # vertical tile V[1,0] sits in column 0, rows 1 and 2
    assert "V[1,0]" in lines[2] and "V[1,0]" in lines[3]
    assert "V[1,0]" not in lines[1] and "V[1,0]" not in lines[4]
    assert any("stopper F omitted" in ln for ln in lines)


def test_render_lists_truncated_labels_in_a_legend():
    lines = render_tiles(gen_tiles1(12)).splitlines()
    # labels longer than six characters, such as V[1,10], are cut in the grid
    legend = lines[lines.index("legend:") + 1:]
    assert "  V[1,10 = V[1,10]" in legend and "  H[5,11 = H[5,11]" in legend
    assert legend == sorted(legend)


def test_render_gentiles2_short_tiles():
    text = render_tiles(gen_tiles2(3, 4))
    lines = text.splitlines()
    # S[0] covers (0,0) and (1,0): both in the first grid row
    assert lines[1].count("S[0]") == 2


def test_render_requires_metadata():
    with pytest.raises(NoTileMetadata):
        render_tiles(cartesian_basis(2, 2))
    with pytest.raises(NoTileMetadata):
        render_tiles(random_basis_like(4, 2, 2, 3))


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_construct_and_verify(tmp_path, capsys):
    out = tmp_path / "g2.json"
    code, stdout, _ = run_cli(["construct", "--family", "gentiles2", "--m", "3", "--n", "4", "--out", str(out)], capsys)
    assert code == 0
    assert "7 states" in stdout

    code, stdout, _ = run_cli(["verify", str(out), "--restarts", "40", "--seed", "5", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(stdout)
    assert payload["report"]["verdict"] == "UPB_Numeric"
    assert payload["report"]["complement_dim"] == 5


def test_cli_construct_rejects_bad_dims(tmp_path, capsys):
    code, _, stderr = run_cli(["construct", "--family", "gentiles1", "--n", "5",
                               "--out", str(tmp_path / "x.json")], capsys)
    assert code == 2
    assert "even n >= 4" in stderr


def test_cli_wind_rejects_bad_cartesian_dims(tmp_path, capsys):
    # the same dimension bounds as construct --family cartesian, so the same exit code
    out = tmp_path / "w.json"
    code, stdout, stderr = run_cli(["wind", "--cartesian", "0", "3", "--out", str(out)], capsys)
    assert code == 2 and stdout == ""
    assert stderr == "error: cartesian_basis needs positive dims, got (0, 3)\n"
    assert not out.exists()


def test_cli_wind_rounding_drift_is_an_error_line(tmp_path, capsys):
    # sixteen seeded moves on 2x2 take a rotated factor just past the unit-norm tolerance
    out = tmp_path / "w.json"
    code, stdout, stderr = run_cli(["wind", "--cartesian", "2", "2", "--moves", "16", "--seed", "0",
                                    "--out", str(out)], capsys)
    assert code == 1 and stdout == ""
    assert stderr.startswith("error: winding move broke the unit-norm check")
    assert stderr.count("\n") == 1 and "Traceback" not in stderr
    assert not out.exists()


def test_cli_verify_eta_sets_the_upb_margin(tmp_path, capsys):
    # g1(6) with 20 restarts, seed 0 reaches about 0.978: below 1 - 1e-3, not below 1 - 0.05.
    # Its last digits depend on the BLAS kernel, so both runs must print the in-process value.
    value = verify.check_upb(gen_tiles1(6), restarts=20, seed=0).max_product_overlap
    assert 0.95 <= value < 0.999
    line = f"max_product_overlap: {value!r}\n"
    path = tmp_path / "g1.json"
    save_basis(gen_tiles1(6), path)
    args = ["verify", str(path), "--restarts", "20", "--seed", "0"]
    code, stdout, _ = run_cli(args, capsys)
    assert code == 0
    assert line in stdout
    assert stdout.endswith("verdict: UPB_Numeric\n")
    code, stdout, _ = run_cli(args + ["--eta", "0.05"], capsys)
    assert code == 4
    assert line in stdout
    assert stdout.endswith("verdict: Inconclusive\n")
    code, stdout, _ = run_cli(args + ["--eta", "0.05", "--format", "json"], capsys)
    assert json.loads(stdout)["config"]["eta"] == 0.05


@pytest.mark.parametrize("flag, value", [
    ("--eta", "2"), ("--eta", "nan"), ("--eta", "0"), ("--eta", "1"), ("--eta", "-0.5"), ("--eta", "inf"),
    ("--tol", "-1"), ("--tol", "nan"), ("--tol", "inf"),
])
def test_cli_verify_rejects_meaningless_margins(tmp_path, capsys, flag, value):
    path = tmp_path / "g2.json"
    save_basis(gen_tiles2(3, 4), path)
    code, stdout, stderr = run_cli(["verify", str(path), flag, value], capsys)
    assert code == 1 and stdout == ""
    assert stderr.startswith(f"error: {flag} must be a finite number")


def test_cli_verify_complete_and_extendible(tmp_path, capsys):
    cart = tmp_path / "cart.json"
    run_cli(["construct", "--family", "cartesian", "--m", "3", "--n", "3", "--out", str(cart)], capsys)
    code, stdout, _ = run_cli(["verify", str(cart)], capsys)
    assert code == 0
    assert "CompleteBasis" in stdout

    partial = ProductBasis(2, 2, cartesian_basis(2, 2).states[:1])
    path = tmp_path / "partial.json"
    save_basis(partial, path)
    code, stdout, _ = run_cli(["verify", str(path), "--restarts", "5"], capsys)
    assert code == 3
    assert "Extendible" in stdout


def test_cli_verify_duplicated_state(tmp_path, capsys):
    st = cartesian_basis(2, 2).states[0]
    dup = ProductBasis(2, 2, (st, st))
    path = tmp_path / "dup.json"
    save_basis(dup, path)
    code, _, stderr = run_cli(["verify", str(path)], capsys)
    assert code == 1
    assert "not orthonormal" in stderr


def test_cli_verify_missing_file(capsys):
    code, _, stderr = run_cli(["verify", "/nonexistent/basis.json"], capsys)
    assert code == 1


def test_cli_render_and_metadata_error(tmp_path, capsys):
    g1 = tmp_path / "g1.json"
    run_cli(["construct", "--family", "gentiles1", "--n", "4", "--out", str(g1)], capsys)
    code, stdout, _ = run_cli(["render", str(g1)], capsys)
    assert code == 0
    assert "V[1,0]" in stdout

    wound = tmp_path / "wound.json"
    run_cli(["wind", "--cartesian", "2", "2", "--moves", "1", "--seed", "3", "--out", str(wound)], capsys)
    code, _, stderr = run_cli(["render", str(wound)], capsys)
    assert code == 1


def test_cli_boundent(tmp_path, capsys):
    g1 = tmp_path / "g1.json"
    run_cli(["construct", "--family", "gentiles1", "--n", "4", "--out", str(g1)], capsys)
    density = tmp_path / "rho.json"
    code, stdout, _ = run_cli(["boundent", str(g1), "--restarts", "40", "--seed", "2",
                               "--out", str(density)], capsys)
    assert code == 0
    payload = json.loads(stdout)
    assert payload["ppt"]["is_ppt"] is True
    assert payload["density"]["rank"] == 7
    assert payload["range_criterion"]["verdict"] == "entangled (range criterion)"
    assert density.exists()

    cart = tmp_path / "cart.json"
    run_cli(["construct", "--family", "cartesian", "--m", "2", "--n", "2", "--out", str(cart)], capsys)
    code, _, stderr = run_cli(["boundent", str(cart)], capsys)
    assert code == 5


def test_cli_boundent_inconclusive_exits_4(tmp_path, capsys):
    # g2(3,20) is a UPB, but 100 restarts reach about 0.9991, inside the 1e-3 margin
    path = tmp_path / "g2.json"
    save_basis(gen_tiles2(3, 20), path)
    code, stdout, stderr = run_cli(["boundent", str(path), "--restarts", "100", "--seed", "0"], capsys)
    assert code == 4 and stdout == ""
    assert stderr == "error: unextendibility check was inconclusive\n"


def json_capped_restarts(argv, capsys):
    """``capped_restarts`` of the JSON report of a verify or boundent run."""
    if argv[0] == "verify":
        return json.loads(run_cli(argv + ["--format", "json"], capsys)[1])["report"]["capped_restarts"]
    return json.loads(run_cli(argv, capsys)[1])["range_criterion"]["capped_restarts"]


@pytest.mark.parametrize("command", ["verify", "boundent"])
def test_cli_warns_on_stderr_when_restarts_hit_the_iteration_cap(tmp_path, capsys, monkeypatch, command):
    path = tmp_path / "g1.json"
    save_basis(gen_tiles1(4), path)
    argv = [command, str(path), "--restarts", "20", "--seed", "3"]
    monkeypatch.setattr(verify, "_SEESAW_MAX_ITERATIONS", 1)
    if command == "verify":
        capped = verify.check_upb(gen_tiles1(4), restarts=20, seed=3).capped_restarts
    else:
        rho = upb_density_state(gen_tiles1(4))
        capped = range_criterion_report(rho, restarts=20, seed=3).capped_restarts
    assert capped > 0
    code, stdout, stderr = run_cli(argv, capsys)
    assert stderr.splitlines()[0] == f"warning: {capped} of 20 see-saw restarts stopped at the iteration cap"
    assert "warning" not in stdout
    # the warning goes to stderr only: stdout and the exit code are those of
    # the same capped run with the warning suppressed
    monkeypatch.setattr(cli, "_warn_capped", lambda capped, restarts: None)
    assert run_cli(argv, capsys)[:2] == (code, stdout)
    # the JSON reports carry the count; the text report of verify does not
    assert json_capped_restarts(argv, capsys) == capped
    assert "capped" not in stdout or command == "boundent"


@pytest.mark.parametrize("command", ["verify", "boundent"])
def test_cli_uncapped_run_prints_no_warning(tmp_path, capsys, command):
    path = tmp_path / "g1.json"
    save_basis(gen_tiles1(4), path)
    argv = [command, str(path), "--restarts", "20", "--seed", "3"]
    code, stdout, stderr = run_cli(argv, capsys)
    assert code == 0 and stdout
    assert stderr == ""
    assert json_capped_restarts(argv, capsys) == 0


def test_cli_wind_unwind_round_trip(tmp_path, capsys):
    wound = tmp_path / "wound.json"
    code, stdout, _ = run_cli(["wind", "--cartesian", "2", "2", "--moves", "1", "--seed", "7",
                               "--out", str(wound)], capsys)
    assert code == 0
    code, stdout, _ = run_cli(["unwind", str(wound), "--depth", "2"], capsys)
    assert code == 0
    payload = json.loads(stdout)
    assert payload["certified"] is True
    assert len(payload["moves"]) <= 2

    cart = tmp_path / "cart.json"
    run_cli(["construct", "--family", "cartesian", "--m", "2", "--n", "3", "--out", str(cart)], capsys)
    code, stdout, _ = run_cli(["unwind", str(cart)], capsys)
    assert code == 0
    assert json.loads(stdout)["moves"] == []


def test_cli_unwind_incomplete_basis(tmp_path, capsys):
    g1 = tmp_path / "g16.json"
    run_cli(["construct", "--family", "gentiles1", "--n", "6", "--out", str(g1)], capsys)
    code, _, stderr = run_cli(["unwind", str(g1)], capsys)
    assert code == 6
    code, _, stderr = run_cli(["wind", str(g1), "--out", str(tmp_path / "w.json")], capsys)
    assert code == 6


def test_cli_json_reports_are_byte_identical(tmp_path, capsys):
    path = tmp_path / "g2.json"
    run_cli(["construct", "--family", "gentiles2", "--m", "3", "--n", "4", "--out", str(path)], capsys)
    args = ["verify", str(path), "--restarts", "30", "--seed", "9", "--format", "json"]
    _, first, _ = run_cli(args, capsys)
    _, second, _ = run_cli(args, capsys)
    assert first == second


def test_cli_ignores_pb_seed(tmp_path, capsys, monkeypatch):
    # --seed (default 0) is the only route to the seed; the PB_SEED variable is not read
    path = tmp_path / "g2.json"
    save_basis(gen_tiles2(3, 4), path)
    rho, wound = tmp_path / "rho.json", tmp_path / "w.json"
    commands = [
        (["verify", str(path), "--restarts", "20", "--format", "json"], None),
        (["boundent", str(path), "--restarts", "20", "--out", str(rho)], rho),
        (["wind", "--cartesian", "2", "3", "--moves", "2", "--out", str(wound)], wound),
    ]

    def outcomes():
        results = []
        for argv, written in commands:
            code, stdout, stderr = run_cli(argv, capsys)
            results.append((code, stdout, stderr, written.read_bytes() if written else None))
        return results

    monkeypatch.delenv("PB_SEED", raising=False)
    unset = outcomes()
    assert [code for code, *_ in unset] == [0, 0, 0]
    assert json.loads(unset[0][1])["report"]["seed"] == 0 and "(seed 0)" in unset[2][1]
    for value in ("31", "seven"):
        monkeypatch.setenv("PB_SEED", value)
        assert outcomes() == unset, value


def cartesian_text(**changes) -> str:
    """A Cartesian 2x3 basis file with top-level fields or state 0's "a", "tile_cells" or "label" replaced."""
    payload = basis_to_payload(cartesian_basis(2, 3))
    for key, value in changes.items():
        if key in ("a", "tile_cells", "label"):
            payload["states"][0][key] = value
        else:
            payload[key] = value
    # the string "1e400" stands for the bare JSON number, which parses as inf
    return json.dumps(payload).replace('"1e400"', "1e400")


def write_cartesian_payload(path, **changes):
    path.write_text(cartesian_text(**changes))
    return path


def test_cli_rejects_non_integer_dims(tmp_path, capsys):
    path = write_cartesian_payload(tmp_path / "dims.json", dims=["x", 3])
    with pytest.raises(BasisFileError):
        load_basis(path)
    code, stdout, stderr = run_cli(["verify", str(path)], capsys)
    assert code == 1 and stdout == "" and stderr.startswith("error: ")


def test_cli_rejects_short_tile_cell(tmp_path, capsys):
    path = write_cartesian_payload(tmp_path / "cells.json", tile_cells=[[0]])
    with pytest.raises(BasisFileError):
        load_basis(path)
    code, stdout, stderr = run_cli(["render", str(path)], capsys)
    assert code == 1 and stdout == "" and stderr.startswith("error: ")


MALFORMED_TILE_CELLS = {
    "bool": [[True, 0]],
    "bool_second": [[0, False]],
    "float": [[1.0, 0]],
    "string": [["1", 0]],
    "nested_list": [[[1], 0]],
    "null_entry": [[None, 0]],
    "short_pair": [[0]],
    "empty_pair": [[]],
    "long_pair": [[0, 1, 0]],
    "tuple_cell": [(0, 1)],
    "string_cell": ["01"],
    "dict_cell": [{"c": 0, "r": 1}],
    "int_cell": [0],
    "null_cell": [None],
    "good_then_bad": [[0, 1], [1, True]],
    "support_string": "cells",
    "support_dict": {"0": 1},
    "support_int": 5,
    "support_tuple": ((0, 1),),
}


def tile_payload(cells_by_state):
    """The g1(4) payload with the tile cells of the given states replaced."""
    payload = basis_to_payload(gen_tiles1(4))
    for i, cells in cells_by_state.items():
        payload["states"][i]["tile_cells"] = cells
    return payload


@pytest.mark.parametrize("cells", MALFORMED_TILE_CELLS.values(), ids=MALFORMED_TILE_CELLS.keys())
def test_load_rejects_malformed_tile_cells_at_the_first_bad_state(cells):
    with pytest.raises(BasisFileError, match=r"^state 3 tile_cells must be \[column, row\] integer pairs$"):
        basis_from_payload(tile_payload({3: cells, 6: [[0, 0.5]]}))
    with pytest.raises(BasisFileError, match=r"^state 0 tile_cells must be \[column, row\] integer pairs$"):
        basis_from_payload(tile_payload({0: cells}))


def test_load_reports_the_first_bad_state_whatever_its_fault():
    # state 2 has bad cells and state 5 is not an object: state 2 is reported
    payload = tile_payload({2: [[0, 1.5]]})
    payload["states"][5] = [1, 2]
    with pytest.raises(BasisFileError, match=r"^state 2 tile_cells must be"):
        basis_from_payload(payload)
    # and the other way round
    payload = tile_payload({5: [[0, 1.5]]})
    payload["states"][2] = "state"
    with pytest.raises(BasisFileError, match=r"^state 2 is not an object$"):
        basis_from_payload(payload)
    # a label that is not a string, either side of bad cells
    payload = tile_payload({2: [[0, 1.5]]})
    payload["states"][5]["label"] = 5
    with pytest.raises(BasisFileError, match=r"^state 2 tile_cells must be"):
        basis_from_payload(payload)
    payload = tile_payload({5: [[0, 1.5]]})
    payload["states"][2]["label"] = None
    with pytest.raises(BasisFileError, match=r"^state 2 label must be a string$"):
        basis_from_payload(payload)


@pytest.mark.parametrize("label", [None, {"x": 1}, 5, True, ["a"]])
def test_load_rejects_a_label_that_is_not_a_string(label):
    payload = basis_to_payload(cartesian_basis(2, 2))
    payload["states"][1]["label"] = label
    with pytest.raises(BasisFileError, match=r"^state 1 label must be a string$"):
        basis_from_payload(payload)


def test_labels_round_trip_and_an_absent_label_reads_as_empty(tmp_path):
    labels = ("", "C[0,1]", "5", "None")
    basis = ProductBasis(2, 2, [ProductState(st.a, st.b, label=label)
                                for st, label in zip(cartesian_basis(2, 2), labels)])
    save_basis(basis, tmp_path / "b.json")
    assert load_basis(tmp_path / "b.json").labels == labels
    payload = basis_to_payload(basis)
    del payload["states"][2]["label"]
    assert basis_from_payload(payload).labels == ("", "C[0,1]", "", "None")


def test_load_keeps_the_tile_cells_as_frozensets():
    for basis in (gen_tiles1(6), gen_tiles2(3, 5)):
        loaded = basis_from_payload(basis_to_payload(basis))
        assert loaded.tile_cells == basis.tile_cells
        assert all(type(cells) is frozenset for cells in loaded.tile_cells)
        assert all(type(cell) is tuple and all(type(x) is int for x in cell)
                   for cells in loaded.tile_cells for cell in cells)
    # an empty list of cells is an empty set, and a missing or null entry is None
    payload = tile_payload({1: [], 2: None})
    del payload["states"][3]["tile_cells"]
    loaded = basis_from_payload(payload)
    assert loaded.tile_cells[1] == frozenset()
    assert loaded.tile_cells[2] is None and loaded.tile_cells[3] is None
    # duplicate cells collapse, as in a set
    loaded = basis_from_payload(tile_payload({1: [[0, 1], [0, 1]]}))
    assert loaded.tile_cells[1] == frozenset({(0, 1)})


MALFORMED_NUMBERS = {
    "dims_overflow": {"dims": ["1e400", 2]},
    "tile_cell_overflow": {"tile_cells": [["1e400", 0]]},
    "tile_cell_beyond_int64": {"tile_cells": [[2**64, 0]]},
    "empty_amplitudes": {"a": []},
    "fractional_dims": {"dims": [2.7, 3]},  # int() would read it as the fixture's 2x3
}


@pytest.mark.parametrize("changes", MALFORMED_NUMBERS.values(), ids=MALFORMED_NUMBERS.keys())
def test_load_rejects_malformed_numbers(tmp_path, changes):
    path = write_cartesian_payload(tmp_path / "bad.json", **changes)
    with pytest.raises(BasisFileError):
        load_basis(path)


def test_codec_round_trip_keeps_signed_zeros():
    m = np.array([[complex(-0.0, 0.0), complex(0.0, -0.0)], [complex(-0.5, 2.0), 1e-300j]])
    text = json.dumps(complex_to_json(m))
    assert text == "[[[-0.0, 0.0], [0.0, -0.0]], [[-0.5, 2.0], [0.0, 1e-300]]]"
    back = complex_from_json(json.loads(text), 2, "m")
    assert back.shape == (2, 2)
    assert np.array_equal(back.view(np.uint64), m.view(np.uint64))

    state = ProductState(np.array([complex(-0.0, -0.0), 1.0]), np.array([1.0, complex(0.0, -0.0)]))
    loaded = basis_from_payload(basis_to_payload(ProductBasis(2, 2, (state,))))[0]
    assert np.array_equal(loaded.a.view(np.uint64), state.a.view(np.uint64))
    assert np.array_equal(loaded.b.view(np.uint64), state.b.view(np.uint64))


@pytest.mark.parametrize("value", [
    [], [[]], [[1.0, 0.0], [1.0]], [[1.0, 0.0, 0.0]], [["1", 0.0]], [[None, 0.0]],
    [[float("inf"), 0.0]], [[10**400, 0.0]], [[[1.0, 0.0]]], 3.0, {"re": 1.0}, None,
])
def test_codec_rejects_malformed_vectors(value):
    with pytest.raises(BasisFileError):
        complex_from_json(value, 1, "v")


def test_move_from_record_rejects_malformed():
    _, moves = random_wound_basis(2, 3, 1, 4)
    record = move_to_record(moves[0])
    assert np.array_equal(move_from_record(record).u_a, moves[0].u_a)
    for key, value in (("u_a", [[1.0, 0.0]]), ("a_basis", [[[1.0, 0.0]], [1.0]]),
                       ("u_b", [[["x", 0.0]]]), ("b_basis", [[[2.0, 0.0]]])):
        with pytest.raises(BasisFileError):
            move_from_record({**record, key: value})
    with pytest.raises(BasisFileError):
        move_from_record({k: v for k, v in record.items() if k != "u_b"})
    with pytest.raises(BasisFileError):
        move_from_record([record])
    with pytest.raises(ValueError, match="not a winding move record"):
        move_from_record({**record, "op": "swap"})


def cartesian_2x2_text(**changes) -> str:
    """A Cartesian 2x2 basis file with fields of state 0 replaced."""
    payload = basis_to_payload(cartesian_basis(2, 2))
    payload["states"][0].update(changes)
    return json.dumps(payload)


def duplicated_state_text() -> str:
    st = cartesian_basis(2, 2).states[0]
    return json.dumps(basis_to_payload(ProductBasis(2, 2, (st, st))))


# Every file the table below refers to, by name; the first three are well formed.
CLI_FILES = {
    "g2": lambda: json.dumps(basis_to_payload(gen_tiles2(3, 4))),
    "cart": lambda: cartesian_text(),
    "wound": lambda: json.dumps(basis_to_payload(random_wound_basis(2, 2, 1, 3)[0])),
    "not_json": lambda: "{not json",
    "format_version_99": lambda: json.dumps({"format_version": 99, "dims": [2, 2], "states": []}),
    "not_unit_norm": lambda: cartesian_text(a=[[0.5, 0.0], [0.0, 0.0]]),
    "dims_not_integer": lambda: cartesian_text(dims=["x", 3]),
    "short_tile_cell": lambda: cartesian_text(tile_cells=[[0]]),
    "duplicated_state": duplicated_state_text,
    "format_version_true": lambda: cartesian_text(format_version=True),
    "format_version_float": lambda: cartesian_text(format_version=1.0),
    "provenance_not_objects": lambda: cartesian_text(provenance=[1, "x"]),
    "provenance_without_op": lambda: cartesian_text(provenance=[{"shift": 1}]),
    "provenance_op_not_string": lambda: cartesian_text(provenance=[{"op": 3}]),
    "ragged_side_a": lambda: cartesian_2x2_text(a=[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]),
    "short_side_b": lambda: cartesian_2x2_text(b=[[1.0, 0.0]]),
    "tile_cell_outside_grid": lambda: cartesian_2x2_text(tile_cells=[[2, 0]]),
    "label_null": lambda: cartesian_text(label=None),
    "label_object": lambda: cartesian_text(label={"x": 1}),
    **{name: (lambda changes=changes: cartesian_text(**changes)) for name, changes in MALFORMED_NUMBERS.items()},
}

# (case, argv); "{tmp}" is the directory holding CLI_FILES
CLI_MALFORMED = [
    *((name, ["verify", f"{{tmp}}/{name}.json"]) for name in list(CLI_FILES)[3:]),
    ("missing_file", ["verify", "{tmp}/absent.json"]),
    *((f"{command}_{name}", [command, f"{{tmp}}/{name}.json", *extra])
      for command, extra in (("boundent", []), ("wind", ["--out", "{tmp}/w.json"]), ("unwind", []))
      for name in ("not_json", "missing_file")),  # no file is written for missing_file
    ("boundent_duplicated_state", ["boundent", "{tmp}/duplicated_state.json"]),
    ("render_without_tiles", ["render", "{tmp}/wound.json"]),
    ("render_short_tile_cell", ["render", "{tmp}/short_tile_cell.json"]),
    ("gentiles1_without_n", ["construct", "--family", "gentiles1", "--out", "{tmp}/g.json"]),
    ("gentiles2_without_m", ["construct", "--family", "gentiles2", "--n", "4", "--out", "{tmp}/g.json"]),
    ("cartesian_without_m", ["construct", "--family", "cartesian", "--n", "4", "--out", "{tmp}/g.json"]),
    ("construct_out_unwritable",
     ["construct", "--family", "cartesian", "--m", "2", "--n", "2", "--out", "{tmp}/absent/x.json"]),
    ("wind_out_directory", ["wind", "--cartesian", "2", "2", "--out", "{tmp}"]),
    ("boundent_out_unwritable", ["boundent", "{tmp}/g2.json", "--out", "{tmp}/absent/rho.json"]),
    ("wind_file_and_cartesian", ["wind", "{tmp}/cart.json", "--cartesian", "2", "3", "--out", "{tmp}/w.json"]),
    ("verify_restarts_0", ["verify", "{tmp}/g2.json", "--restarts", "0"]),
    ("boundent_restarts_0", ["boundent", "{tmp}/g2.json", "--restarts", "0"]),
    # numpy refuses the starting points' allocation without making it
    ("verify_restarts_too_large", ["verify", "{tmp}/g2.json", "--restarts", "100000000000000"]),
    ("boundent_restarts_too_large", ["boundent", "{tmp}/g2.json", "--restarts", "100000000000000"]),
    ("wind_moves_negative", ["wind", "--cartesian", "2", "2", "--moves", "-1", "--out", "{tmp}/w.json"]),
    ("unwind_depth_negative", ["unwind", "{tmp}/cart.json", "--depth", "-1"]),
]


# How the one stderr line of a CLI_MALFORMED case starts, where a test pins more than "error: "
CLI_MALFORMED_STDERR = {
    "gentiles1_without_n": "error: --n is required for gentiles1\n",
    "gentiles2_without_m": "error: --m and --n are required for gentiles2\n",
    "cartesian_without_m": "error: --m and --n are required for cartesian\n",
    "construct_out_unwritable": "error: cannot write {tmp}/absent/x.json: ",
    "wind_out_directory": "error: cannot write {tmp}: ",
    "boundent_out_unwritable": "error: cannot write {tmp}/absent/rho.json: ",
    "verify_restarts_too_large": "error: out of memory: Unable to allocate ",
    "boundent_restarts_too_large": "error: out of memory: Unable to allocate ",
}


@pytest.mark.parametrize("case, argv", CLI_MALFORMED, ids=[case[0] for case in CLI_MALFORMED])
def test_cli_malformed_input_exits_1(tmp_path, capsys, case, argv):
    for name, text in CLI_FILES.items():
        (tmp_path / f"{name}.json").write_text(text())
    code, stdout, stderr = run_cli([arg.format(tmp=tmp_path) for arg in argv], capsys)
    assert code == 1 and stdout == ""
    assert stderr.startswith(CLI_MALFORMED_STDERR.get(case, "error: ").format(tmp=tmp_path))
    assert stderr.count("\n") == 1 and "Traceback" not in stderr
    assert not (tmp_path / "w.json").exists()


@pytest.mark.parametrize("error, code", [
    (InvalidDimension, 2), (IncompleteBasis, 6), (WindingInvariantError, 1),
    (BasisFileError, 1), (ProductBasisError, 1),
])
def test_main_maps_error_class_to_exit_code(capsys, monkeypatch, error, code):
    def fail(args):
        raise error(f"{error.__name__} raised")

    monkeypatch.setattr(cli, "cmd_render", fail)
    assert run_cli(["render", "any.json"], capsys) == (code, "", f"error: {error.__name__} raised\n")


def test_main_maps_memory_error_to_exit_1(capsys, monkeypatch):
    def fail(args):
        raise MemoryError

    monkeypatch.setattr(cli, "cmd_render", fail)
    assert run_cli(["render", "any.json"], capsys) == (1, "", "error: out of memory\n")


def test_main_lets_other_errors_propagate(monkeypatch):
    def fail(args):
        raise RuntimeError("not an input error")

    monkeypatch.setattr(cli, "cmd_render", fail)
    with pytest.raises(RuntimeError, match="not an input error"):
        main(["render", "any.json"])
